//! MQ decoder (JPEG2000 Annex C.3, software-conventions form).

use crate::table::QE_TABLE;
use crate::Contexts;

/// The MQ arithmetic decoder, mirror of [`crate::MqEncoder`].
///
/// Reads past the end of the segment are modelled as the standard requires:
/// once the input is exhausted the decoder feeds `0xFF` fill bytes (`1`
/// bits), which is what lets truncated coding passes still decode a prefix.
///
/// The code register reads ahead. The standard's 32-bit `C` sits in bits
/// 32..63 of `c` (so `C_high` is bits 48..63), and below its valid bits
/// wait up to 40 bits the standard has not read yet, each byte placed
/// where BYTEIN would put it. `avail` counts the standard's `CT` plus
/// those bits, so DECODE shifts once, without a byte test, whenever
/// `avail` covers the renormalization.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    data: &'a [u8],
    /// The last byte taken into `c` (the standard's `BP`).
    bp: usize,
    c: u64,
    a: u32,
    /// Valid bits of `c` below `C_high`: `CT` plus the bits read ahead.
    avail: u32,
}

impl<'a> MqDecoder<'a> {
    /// INITDEC over a (possibly truncated) MQ segment.
    pub fn new(data: &'a [u8]) -> Self {
        let mut d = MqDecoder {
            data,
            bp: 0,
            c: 0,
            a: 0x8000,
            avail: 0,
        };
        d.c = (d.byte_at(0) as u64) << 48;
        d.byte_in();
        d.c <<= 7;
        d.avail -= 7;
        d.read_ahead();
        d
    }

    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        // Past-the-end bytes read as 0xFF (marker-like), per C.3.4.
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    /// True when the next BYTEIN reads a stuffed byte: the 7-bit byte
    /// after a 0xFF, whose top bit is a carry into the 0xFF above it.
    #[inline]
    fn stuffed_next(&self) -> bool {
        self.byte_at(self.bp) == 0xFF && self.byte_at(self.bp + 1) <= 0x8F
    }

    /// BYTEIN with bit-unstuffing, placing the byte directly below the
    /// `avail` valid bits (the standard's `C += B << 8` is this at
    /// `avail == 0`).
    fn byte_in(&mut self) {
        let (byte, shift, bits) = if self.byte_at(self.bp) != 0xFF {
            self.bp += 1;
            (self.byte_at(self.bp), 40, 8)
        } else if self.byte_at(self.bp + 1) > 0x8F {
            // Marker (or synthesized end-of-data): feed 1-bits.
            (0xFF, 40, 8)
        } else {
            self.bp += 1;
            (self.byte_at(self.bp), 41, 7)
        };
        // Wrapping, as the standard's 32-bit register does: on a corrupt
        // stream a stuffed byte's carry can leave the top.
        self.c = self.c.wrapping_add((byte as u64) << (shift - self.avail));
        self.avail += bits;
    }

    /// Take bytes into `c` ahead of the standard while `avail <= 32`.
    ///
    /// A byte read ahead lands below every bit in use, so it changes no
    /// comparison before the shifts reach it. A stuffed byte is the
    /// exception: its top bit would carry into `C_high` early, so reading
    /// stops before it and RENORMD takes it at `avail == 0`.
    fn read_ahead(&mut self) {
        while self.avail <= 32 && !self.stuffed_next() {
            self.byte_in();
        }
    }

    /// DECODE one decision in context `cx`.
    ///
    /// The mirror of [`crate::MqEncoder::encode`]: the code value lies in
    /// the `Qe` sub-interval or in the `A - Qe` one (then `C -= Qe`), and
    /// the conditional exchange (`A - Qe < Qe`) decides which of the two
    /// means the LPS. Selects replace the standard's data-dependent
    /// branches. The state moves exactly when the new `A` is below
    /// 0x8000, and RENORMD is one shift of `n` bits (zero when `A` needs
    /// none); only when the bits read ahead run short does it take the
    /// byte-at-a-time path.
    #[inline]
    pub fn decode(&mut self, ctxs: &mut Contexts, cx: usize) -> u8 {
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        let a1 = self.a - qe;
        let in_qe = ((self.c >> 48) as u32) < qe;
        let lps = in_qe != (a1 < qe);
        let a = if in_qe { qe } else { a1 };
        self.c -= if in_qe { 0 } else { (qe as u64) << 48 };
        let d = st.mps ^ u8::from(lps);
        // An LPS always renormalizes, so the MPS switch needs no test.
        let next = if lps { row.nlps } else { row.nmps };
        st.index = if a < 0x8000 { next } else { st.index };
        st.mps ^= u8::from(lps) & row.switch_mps;
        let n = a.leading_zeros() - 16;
        self.a = a << n;
        if n <= self.avail {
            self.c <<= n;
            self.avail -= n;
        } else {
            self.renorm_slow(n);
        }
        d
    }

    /// The `n` shifts of `c` that `avail` does not cover: refill, shift up
    /// to each stuffed byte, and take it where RENORMD meets `CT == 0`.
    #[cold]
    #[inline(never)]
    fn renorm_slow(&mut self, mut n: u32) {
        loop {
            self.read_ahead();
            let s = n.min(self.avail);
            self.c <<= s;
            self.avail -= s;
            n -= s;
            if n == 0 {
                break;
            }
            self.byte_in();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Contexts, MqEncoder};

    fn roundtrip(seq: &[(usize, u8)], nctx: usize) {
        let mut ectx = Contexts::new(nctx);
        let mut enc = MqEncoder::new();
        for &(cx, d) in seq {
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let mut dctx = Contexts::new(nctx);
        let mut dec = MqDecoder::new(&bytes);
        for (i, &(cx, d)) in seq.iter().enumerate() {
            let got = dec.decode(&mut dctx, cx);
            assert_eq!(got, d, "symbol {i} of {}", seq.len());
        }
    }

    #[test]
    fn roundtrip_simple_patterns() {
        roundtrip(&[(0, 1)], 1);
        roundtrip(&[(0, 0), (0, 1), (0, 0), (0, 1)], 1);
        let ones: Vec<_> = (0..1000).map(|_| (0usize, 1u8)).collect();
        roundtrip(&ones, 1);
        let zeros: Vec<_> = (0..1000).map(|_| (0usize, 0u8)).collect();
        roundtrip(&zeros, 1);
    }

    #[test]
    fn roundtrip_multi_context_lcg() {
        let mut x: u32 = 0xDEADBEEF;
        let seq: Vec<(usize, u8)> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 9) as usize % 19, ((x >> 21) & 1) as u8)
            })
            .collect();
        roundtrip(&seq, 19);
    }

    #[test]
    fn roundtrip_skewed_sources() {
        // 1-in-16 ones: exercises the fast-attack part of the table.
        let mut x: u32 = 7;
        let seq: Vec<(usize, u8)> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(22695477).wrapping_add(1);
                (0usize, u8::from((x >> 16).is_multiple_of(16)))
            })
            .collect();
        roundtrip(&seq, 1);
    }

    #[test]
    fn decoder_survives_truncation() {
        // Decoding from a truncated segment must not panic and must still
        // return *some* decisions (the standard guarantees a decodable
        // prefix; we check robustness, not the exact prefix length).
        let mut ectx = Contexts::new(2);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 99;
        let mut seq = Vec::new();
        for _ in 0..5_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 5) as usize % 2;
            let d = ((x >> 11) & 1) as u8;
            seq.push((cx, d));
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let cut = bytes.len() / 2;
        let mut dctx = Contexts::new(2);
        let mut dec = MqDecoder::new(&bytes[..cut]);
        let mut correct_prefix = 0usize;
        for &(cx, d) in &seq {
            if dec.decode(&mut dctx, cx) == d {
                correct_prefix += 1;
            } else {
                break;
            }
        }
        // At least ~cut bytes worth of decisions decode correctly.
        assert!(correct_prefix > 100, "only {correct_prefix} correct");
    }
}
