//! Differential test: [`MqDecoder`] against a bit-at-a-time decoder
//! written out from Annex C.3.
//!
//! The reference below is the standard's flow charts and nothing more:
//! INITDEC, DECODE with its two exchanges, RENORMD with one shift per
//! loop and BYTEIN with bit-unstuffing, over a 32-bit `C` register. Every
//! segment is decoded by both, each decision in a context drawn at random
//! from 19 with random starting states, and `12 * len + 40` decisions are
//! taken so that every case reads past the end of its segment. Every
//! decision and the final context bank must agree.

use mqcoder::{Contexts, CtxState, MqDecoder, MqEncoder, QE_TABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_CTX: usize = 19;

/// The Annex C.3 decoder, as its flow charts draw it.
struct Reference<'a> {
    data: &'a [u8],
    bp: usize,
    c: u32,
    a: u32,
    ct: u32,
}

impl<'a> Reference<'a> {
    /// INITDEC (C.3.5).
    fn new(data: &'a [u8]) -> Self {
        let mut d = Reference {
            data,
            bp: 0,
            c: 0,
            a: 0,
            ct: 0,
        };
        d.c = (d.byte(0) as u32) << 16;
        d.byte_in();
        d.c <<= 7;
        d.ct -= 7;
        d.a = 0x8000;
        d
    }

    /// The byte at `i`; past the end the segment reads as 0xFF.
    fn byte(&self, i: usize) -> u8 {
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    /// BYTEIN (C.3.4). `C` is a 32-bit register, so a carry out of it is
    /// lost.
    fn byte_in(&mut self) {
        if self.byte(self.bp) == 0xFF {
            if self.byte(self.bp + 1) > 0x8F {
                self.c = self.c.wrapping_add(0xFF00);
                self.ct = 8;
            } else {
                self.bp += 1;
                self.c = self.c.wrapping_add((self.byte(self.bp) as u32) << 9);
                self.ct = 7;
            }
        } else {
            self.bp += 1;
            self.c = self.c.wrapping_add((self.byte(self.bp) as u32) << 8);
            self.ct = 8;
        }
    }

    /// RENORMD (C.3.3), one shift per loop.
    fn renorm(&mut self) {
        loop {
            if self.ct == 0 {
                self.byte_in();
            }
            self.a <<= 1;
            self.c <<= 1;
            self.ct -= 1;
            if self.a & 0x8000 != 0 {
                break;
            }
        }
    }

    /// DECODE (C.3.2) with LPS_EXCHANGE and MPS_EXCHANGE.
    fn decode(&mut self, ctxs: &mut Contexts, cx: usize) -> u8 {
        let mut st = ctxs.get(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        let lps = |st: &mut CtxState| {
            let d = 1 - st.mps;
            if row.switch_mps == 1 {
                st.mps = 1 - st.mps;
            }
            st.index = row.nlps;
            d
        };
        let mps = |st: &mut CtxState| {
            st.index = row.nmps;
            st.mps
        };
        self.a -= qe;
        let d;
        if (self.c >> 16) < qe {
            d = if self.a < qe {
                mps(&mut st)
            } else {
                lps(&mut st)
            };
            self.a = qe;
            self.renorm();
        } else {
            self.c -= qe << 16;
            if self.a & 0x8000 == 0 {
                d = if self.a < qe {
                    lps(&mut st)
                } else {
                    mps(&mut st)
                };
                self.renorm();
            } else {
                d = st.mps;
            }
        }
        ctxs.set(cx, st);
        d
    }
}

/// Decode `seg` with both decoders from the same random context bank and
/// compare every decision and the final banks.
fn check(rng: &mut StdRng, seg: &[u8], what: &str) {
    let mut start = Contexts::new(NUM_CTX);
    for cx in 0..NUM_CTX {
        start.set(
            cx,
            CtxState {
                index: rng.gen_range(0..QE_TABLE.len() as u8),
                mps: rng.gen_range(0..=1u8),
            },
        );
    }
    let (mut want_ctxs, mut got_ctxs) = (start.clone(), start);
    let mut want = Reference::new(seg);
    let mut got = MqDecoder::new(seg);
    for i in 0..12 * seg.len() + 40 {
        let cx = rng.gen_range(0..NUM_CTX);
        let w = want.decode(&mut want_ctxs, cx);
        let g = got.decode(&mut got_ctxs, cx);
        assert_eq!(g, w, "{what}: decision {i} (context {cx}) of {seg:02X?}");
    }
    assert_eq!(got_ctxs, want_ctxs, "{what}: final contexts of {seg:02X?}");
}

/// A random byte, 0xFF one time in four.
fn ff_heavy(rng: &mut StdRng) -> u8 {
    if rng.gen_range(0..4u32) == 0 {
        0xFF
    } else {
        rng.gen_range(0..=0xFFu8)
    }
}

#[test]
fn random_segments_rich_in_ff() {
    let mut rng = StdRng::seed_from_u64(0xC3_0001);
    for _ in 0..3000 {
        let len = rng.gen_range(0..=64usize);
        let seg: Vec<u8> = (0..len).map(|_| ff_heavy(&mut rng)).collect();
        check(&mut rng, &seg, "random");
    }
}

#[test]
fn stuffed_bytes_that_carry() {
    // After every 0xFF comes a byte of 0x80..=0x8F: its top bit carries
    // into the 0xFF above it.
    let mut rng = StdRng::seed_from_u64(0xC3_0002);
    for _ in 0..3000 {
        let len = rng.gen_range(1..=64usize);
        let mut seg = Vec::with_capacity(len + 1);
        while seg.len() < len {
            let b = ff_heavy(&mut rng);
            seg.push(b);
            if b == 0xFF {
                seg.push(rng.gen_range(0x80..=0x8Fu8));
            }
        }
        check(&mut rng, &seg, "carry");
    }
}

#[test]
fn markers_inside_segments() {
    // A 0xFF followed by a byte above 0x8F ends the data: the decoder
    // feeds 1-bits from there on and never reads past it.
    let mut rng = StdRng::seed_from_u64(0xC3_0003);
    for _ in 0..3000 {
        let len = rng.gen_range(2..=64usize);
        let mut seg: Vec<u8> = (0..len).map(|_| ff_heavy(&mut rng)).collect();
        let at = rng.gen_range(0..len - 1);
        seg[at] = 0xFF;
        seg[at + 1] = rng.gen_range(0x90..=0xFFu8);
        check(&mut rng, &seg, "marker");
    }
}

#[test]
fn every_prefix_of_encoded_segments() {
    let mut rng = StdRng::seed_from_u64(0xC3_0004);
    for _ in 0..24 {
        // Skewed sources code long MPS runs; near-even ones code 0xFF
        // bytes and carries more often.
        let one_in = rng.gen_range(2..=40u32);
        let n = rng.gen_range(1..=1200usize);
        let mut ctxs = Contexts::new(NUM_CTX);
        let mut enc = MqEncoder::new();
        for _ in 0..n {
            let cx = rng.gen_range(0..NUM_CTX);
            let d = u8::from(rng.gen_range(0..one_in) == 0);
            enc.encode(&mut ctxs, cx, d);
        }
        let seg = enc.finish();
        for end in 0..=seg.len() {
            check(&mut rng, &seg[..end], "encoded prefix");
        }
    }
}
