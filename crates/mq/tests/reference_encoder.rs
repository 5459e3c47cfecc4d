//! Differential test: [`MqEncoder`] against a bit-at-a-time encoder
//! written out from Annex C.2.
//!
//! The reference below is the standard's flow charts and nothing more:
//! INITENC, ENCODE with CODEMPS and CODELPS and their conditional
//! exchanges, RENORME with one shift per loop, BYTEOUT with its carry and
//! bit-stuffing paths, and FLUSH with SETBITS, over a 32-bit `C`
//! register. Like the Tier-1 coder, each case codes several segments in a
//! row through one context bank, re-initialising the coder at every
//! flush. Both [`MqEncoder::encode`] and [`MqEncoder::encode_decisions`]
//! must give every segment's bytes and the final context bank exactly.
//! The sources are chosen to reach every BYTEOUT path often: carries,
//! carries that turn the last byte into 0xFF, bytes after a 0xFF, 0x00
//! bytes (where `encode_decisions` redoes a batch one BYTEOUT at a time),
//! and flushes on both SETBITS paths, with and without a dropped trailing
//! 0xFF.

use mqcoder::{Contexts, CtxState, MqEncoder, QE_TABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_CTX: usize = 19;

/// How often each rare path of the reference ran.
#[derive(Debug, Default)]
struct Paths {
    carries: usize,
    carries_into_ff: usize,
    bytes_after_ff: usize,
    zero_bytes: usize,
    setbits_lowered: usize,
    setbits_kept: usize,
    trailing_ff_dropped: usize,
    empty_segments: usize,
}

/// The Annex C.2 encoder, as its flow charts draw it. `out[0]` stands for
/// the byte before the segment (`BPST - 1`), which is not 0xFF.
struct Reference {
    c: u32,
    a: u32,
    ct: u32,
    out: Vec<u8>,
}

impl Reference {
    /// INITENC (C.2.8).
    fn new() -> Self {
        Reference {
            c: 0,
            a: 0x8000,
            ct: 12,
            out: vec![0],
        }
    }

    /// ENCODE (C.2.2): CODE0 and CODE1 pick CODEMPS or CODELPS.
    fn encode(&mut self, ctxs: &mut Contexts, cx: usize, d: u8, paths: &mut Paths) {
        let mut st = ctxs.get(cx);
        if d == st.mps {
            self.code_mps(&mut st, paths);
        } else {
            self.code_lps(&mut st, paths);
        }
        ctxs.set(cx, st);
    }

    /// CODEMPS (C.2.5) with the conditional exchange.
    fn code_mps(&mut self, st: &mut CtxState, paths: &mut Paths) {
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        self.a -= qe;
        if self.a & 0x8000 == 0 {
            if self.a < qe {
                self.a = qe;
            } else {
                self.c += qe;
            }
            st.index = row.nmps;
            self.renorm(paths);
        } else {
            self.c += qe;
        }
    }

    /// CODELPS (C.2.6) with the conditional exchange.
    fn code_lps(&mut self, st: &mut CtxState, paths: &mut Paths) {
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        self.a -= qe;
        if self.a < qe {
            self.c += qe;
        } else {
            self.a = qe;
        }
        if row.switch_mps == 1 {
            st.mps = 1 - st.mps;
        }
        st.index = row.nlps;
        self.renorm(paths);
    }

    /// RENORME (C.2.7), one shift per loop.
    fn renorm(&mut self, paths: &mut Paths) {
        loop {
            self.a <<= 1;
            self.c <<= 1;
            self.ct -= 1;
            if self.ct == 0 {
                self.byte_out(paths);
            }
            if self.a & 0x8000 != 0 {
                break;
            }
        }
    }

    /// BYTEOUT (C.2.9) with bit-stuffing.
    fn byte_out(&mut self, paths: &mut Paths) {
        let b = self.out.len() - 1;
        if self.out[b] == 0xFF {
            paths.bytes_after_ff += 1;
            self.emit(self.c >> 20, paths);
            self.c &= 0xF_FFFF;
            self.ct = 7;
        } else if self.c < 0x800_0000 {
            self.emit(self.c >> 19, paths);
            self.c &= 0x7_FFFF;
            self.ct = 8;
        } else {
            paths.carries += 1;
            self.out[b] += 1;
            if self.out[b] == 0xFF {
                paths.carries_into_ff += 1;
                self.c &= 0x7FF_FFFF;
                self.emit(self.c >> 20, paths);
                self.c &= 0xF_FFFF;
                self.ct = 7;
            } else {
                self.emit(self.c >> 19, paths);
                self.c &= 0x7_FFFF;
                self.ct = 8;
            }
        }
    }

    fn emit(&mut self, byte: u32, paths: &mut Paths) {
        let byte = byte as u8;
        paths.zero_bytes += usize::from(byte == 0);
        self.out.push(byte);
    }

    /// FLUSH (C.2.9) with SETBITS; a trailing 0xFF is dropped. Returns the
    /// segment.
    fn flush(mut self, paths: &mut Paths) -> Vec<u8> {
        let tempc = self.c + self.a;
        self.c |= 0xFFFF;
        if self.c >= tempc {
            paths.setbits_lowered += 1;
            self.c -= 0x8000;
        } else {
            paths.setbits_kept += 1;
        }
        self.c <<= self.ct;
        self.byte_out(paths);
        self.c <<= self.ct;
        self.byte_out(paths);
        if self.out.last() == Some(&0xFF) {
            paths.trailing_ff_dropped += 1;
            self.out.pop();
        }
        self.out.remove(0);
        self.out
    }
}

/// A context bank at random states.
fn random_bank(rng: &mut StdRng) -> Contexts {
    let mut ctxs = Contexts::new(NUM_CTX);
    for cx in 0..NUM_CTX {
        ctxs.set(
            cx,
            CtxState {
                index: rng.gen_range(0..QE_TABLE.len() as u8),
                mps: rng.gen_range(0..=1u8),
            },
        );
    }
    ctxs
}

/// Code `segments` (each a list of `(cx << 1) | d` decisions) with the
/// reference and both ways into `MqEncoder`, one flush per segment, and
/// compare every segment and the final banks.
fn check(start: &Contexts, segments: &[Vec<u8>], paths: &mut Paths, what: &str) {
    let mut want_ctxs = start.clone();
    let mut want = Vec::new();
    for seg in segments {
        paths.empty_segments += usize::from(seg.is_empty());
        let mut r = Reference::new();
        for &e in seg {
            r.encode(&mut want_ctxs, (e >> 1) as usize, e & 1, paths);
        }
        want.push(r.flush(paths));
    }
    let (mut one_ctxs, mut batch_ctxs) = (start.clone(), start.clone());
    let (mut one, mut batch) = (MqEncoder::new(), MqEncoder::new());
    for (k, seg) in segments.iter().enumerate() {
        for &e in seg {
            one.encode(&mut one_ctxs, (e >> 1) as usize, e & 1);
        }
        batch.encode_decisions(&mut batch_ctxs, seg);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        one.flush_into(&mut a);
        batch.flush_into(&mut b);
        assert_eq!(a, want[k], "{what}: segment {k}, encode");
        assert_eq!(b, want[k], "{what}: segment {k}, encode_decisions");
    }
    assert_eq!(one_ctxs, want_ctxs, "{what}: final contexts, encode");
    assert_eq!(
        batch_ctxs, want_ctxs,
        "{what}: final contexts, encode_decisions"
    );
}

/// Decisions drawn in random contexts, each a 1 with probability
/// `1 / one_in` (so 2 is even and larger values skew towards 0).
fn decisions(rng: &mut StdRng, n: usize, one_in: u32) -> Vec<u8> {
    (0..n)
        .map(|_| {
            let cx = rng.gen_range(0..NUM_CTX) as u8;
            cx << 1 | u8::from(rng.gen_range(0..one_in) == 0)
        })
        .collect()
}

#[test]
fn random_decisions_in_random_contexts() {
    let mut rng = StdRng::seed_from_u64(0xC2_0001);
    let mut paths = Paths::default();
    for case in 0..400 {
        let start = random_bank(&mut rng);
        let segments: Vec<Vec<u8>> = (0..rng.gen_range(1..=6))
            .map(|_| {
                let most = [4, 60, 900, 4000][rng.gen_range(0..4usize)];
                let n = rng.gen_range(0..=most);
                let one_in = rng.gen_range(2..=64u32);
                decisions(&mut rng, n, one_in)
            })
            .collect();
        check(&start, &segments, &mut paths, &format!("case {case}"));
    }
    for (name, n) in [
        ("carries", paths.carries),
        ("carries into 0xFF", paths.carries_into_ff),
        ("bytes after 0xFF", paths.bytes_after_ff),
        ("0x00 bytes", paths.zero_bytes),
        ("SETBITS lowering C", paths.setbits_lowered),
        ("SETBITS keeping C", paths.setbits_kept),
        ("dropped trailing 0xFF", paths.trailing_ff_dropped),
        ("empty segments", paths.empty_segments),
    ] {
        assert!(n >= 5, "{name}: {n} in {paths:?}");
    }
}

#[test]
fn one_context_runs_and_alternations() {
    // One context at a time: long MPS runs, strict alternation, and runs
    // broken by a single LPS, each from every starting state.
    let mut paths = Paths::default();
    for index in 0..QE_TABLE.len() as u8 {
        for mps in 0..=1u8 {
            let mut start = Contexts::new(NUM_CTX);
            start.set(3, CtxState { index, mps });
            let run = |len: usize, lps_every: usize| -> Vec<u8> {
                (0..len)
                    .map(|i| 3 << 1 | (mps ^ u8::from(lps_every > 0 && i % lps_every == 0)))
                    .collect()
            };
            let segments = vec![
                run(3000, 0),
                run(800, 2),
                run(2000, 97),
                Vec::new(),
                run(5, 1),
            ];
            check(
                &start,
                &segments,
                &mut paths,
                &format!("state {index} mps {mps}"),
            );
        }
    }
    assert!(paths.carries > 0 && paths.bytes_after_ff > 0, "{paths:?}");
}
