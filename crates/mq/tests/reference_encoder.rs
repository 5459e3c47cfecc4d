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
//!
//! The two-lane form, [`MqEncoder::encode_lanes`], is checked lane by lane
//! against the same reference: two multi-segment sources coded as a pair
//! of code blocks is, both lanes' open segments in lockstep, each flushed
//! at its own segment ends. The reference follows the lanes' batches and
//! counts the batches in which exactly one lane settles a 0x00 byte and
//! codes the batch again, so the test can show that it reached them.

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
    /// RENORME shifts so far.
    shifts: u32,
    /// Set when a carry reaches the stuffed bit after a 0xFF that is at
    /// `out[stuffed_from..]` or later.
    carried_past_ff: bool,
    stuffed_from: usize,
}

impl Reference {
    /// INITENC (C.2.8).
    fn new() -> Self {
        Reference {
            c: 0,
            a: 0x8000,
            ct: 12,
            out: vec![0],
            shifts: 0,
            carried_past_ff: false,
            stuffed_from: usize::MAX,
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
            self.shifts += 1;
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
            self.carried_past_ff |= b >= self.stuffed_from && self.c & 0x800_0000 != 0;
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

/// Shifts past its oldest byte boundary at which a batch of
/// `encode_decisions` or `encode_lanes` settles its BYTEOUTs (the
/// encoder's `PENDING`).
const PENDING: u32 = 20;

/// One lane of the reference: its segments, the one being coded, and the
/// finished ones.
struct RefLane<'a> {
    segments: &'a [Vec<u8>],
    seg: usize,
    at: usize,
    r: Reference,
    done: Vec<Vec<u8>>,
    /// At the open batch's start: `ct`, shifts and the segment's length.
    batch: (u32, u32, usize),
}

impl<'a> RefLane<'a> {
    fn new(segments: &'a [Vec<u8>]) -> Self {
        RefLane {
            segments,
            seg: 0,
            at: 0,
            r: Reference::new(),
            done: Vec::new(),
            batch: (0, 0, 0),
        }
    }

    /// Flush every used-up segment; the decisions left in the open one,
    /// or `None` when every segment is done.
    fn left(&mut self, paths: &mut Paths) -> Option<usize> {
        while let Some(seg) = self.segments.get(self.seg) {
            if self.at < seg.len() {
                return Some(seg.len() - self.at);
            }
            let r = std::mem::replace(&mut self.r, Reference::new());
            self.done.push(r.flush(paths));
            (self.seg, self.at) = (self.seg + 1, 0);
        }
        None
    }

    fn step(&mut self, ctxs: &mut Contexts, paths: &mut Paths) {
        let e = self.segments[self.seg][self.at];
        self.r.encode(ctxs, (e >> 1) as usize, e & 1, paths);
        self.at += 1;
    }

    fn start_batch(&mut self) {
        self.batch = (self.r.ct, self.r.shifts, self.r.out.len());
        self.r.carried_past_ff = false;
        self.r.stuffed_from = self.r.out.len();
    }

    /// Whether the batch has `PENDING` shifts past its oldest boundary.
    fn full(&self) -> bool {
        self.r.shifts - self.batch.1 >= self.batch.0 + PENDING
    }

    /// Whether the encoder settles a 0x00 byte at the end of the batch and
    /// codes it again. The batch settles the bytes of the boundaries it
    /// passed, with every carry that reached them before its end: the
    /// reference's bytes, the last plus a carry still pending, unless a
    /// carry crossed a 0xFF, which the encoder reads as 0x00.
    fn redoes(&self) -> bool {
        let r = &self.r;
        let settled = &r.out[self.batch.2..];
        let carry = u8::from(r.c & 0x800_0000 != 0);
        let Some((&last, rest)) = settled.split_last() else {
            return false;
        };
        r.carried_past_ff || rest.contains(&0) || last.wrapping_add(carry) == 0
    }
}

/// How often the lane schedule reached the cases the two-lane test needs.
#[derive(Debug, Default)]
struct LaneCases {
    /// Batches where only lane 0, or only lane 1, is coded again.
    redo_only: [usize; 2],
    /// Batches where both are.
    redo_both: usize,
    /// Calls after which both lanes' open segments were used up at once.
    same_end: usize,
    /// Lanes without a decision.
    empty_lanes: usize,
}

/// Code two lanes of segments with the reference, on the schedule
/// [`encode_pair`] runs `encode_lanes` on, counting what it reaches.
fn reference_pair(
    starts: [&Contexts; 2],
    lanes: [&[Vec<u8>]; 2],
    paths: &mut Paths,
    cases: &mut LaneCases,
) -> [(Vec<Vec<u8>>, Contexts); 2] {
    let mut ctxs = starts.map(Contexts::clone);
    let mut l = lanes.map(RefLane::new);
    let [x, y] = &mut l;
    let [cx, cy] = &mut ctxs;
    while let (Some(nx), Some(ny)) = (x.left(paths), y.left(paths)) {
        let n = nx.min(ny);
        let mut done = 0;
        while done < n {
            x.start_batch();
            y.start_batch();
            loop {
                x.step(cx, paths);
                y.step(cy, paths);
                done += 1;
                if done == n || x.full() || y.full() {
                    break;
                }
            }
            match (x.redoes(), y.redoes()) {
                (true, true) => cases.redo_both += 1,
                (true, false) => cases.redo_only[0] += 1,
                (false, true) => cases.redo_only[1] += 1,
                (false, false) => {}
            }
        }
        cases.same_end += usize::from(nx == ny);
    }
    for (lane, c) in l.iter_mut().zip(&mut ctxs) {
        while lane.left(paths).is_some() {
            lane.step(c, paths);
        }
    }
    let [x, y] = l;
    let [cx, cy] = ctxs;
    [(x.done, cx), (y.done, cy)]
}

/// Code two lanes of segments as a pair of code blocks is coded: both
/// lanes' open segments through `encode_lanes` until either is used up,
/// each lane flushed at its own segment ends, and once one lane has no
/// segment left, the other's rest through `encode_decisions`.
fn encode_pair(starts: [&Contexts; 2], lanes: [&[Vec<u8>]; 2]) -> [(Vec<Vec<u8>>, Contexts); 2] {
    struct Lane<'a> {
        segments: &'a [Vec<u8>],
        seg: usize,
        at: usize,
        enc: MqEncoder,
        ctxs: Contexts,
        done: Vec<Vec<u8>>,
    }
    impl<'a> Lane<'a> {
        fn front(&mut self) -> Option<&'a [u8]> {
            let segments = self.segments;
            while let Some(seg) = segments.get(self.seg) {
                if self.at < seg.len() {
                    return Some(&seg[self.at..]);
                }
                let mut out = Vec::new();
                self.enc.flush_into(&mut out);
                self.done.push(out);
                (self.seg, self.at) = (self.seg + 1, 0);
            }
            None
        }
    }
    let mut l = [0, 1].map(|k| Lane {
        segments: lanes[k],
        seg: 0,
        at: 0,
        enc: MqEncoder::new(),
        ctxs: starts[k].clone(),
        done: Vec::new(),
    });
    let [x, y] = &mut l;
    while let (Some(dx), Some(dy)) = (x.front(), y.front()) {
        let n =
            MqEncoder::encode_lanes((&mut x.enc, &mut x.ctxs, dx), (&mut y.enc, &mut y.ctxs, dy));
        assert_eq!(
            n,
            dx.len().min(dy.len()),
            "encode_lanes codes the shorter lane"
        );
        x.at += n;
        y.at += n;
    }
    for lane in &mut l {
        while let Some(d) = lane.front() {
            lane.enc.encode_decisions(&mut lane.ctxs, d);
            lane.at += d.len();
        }
    }
    l.map(|lane| (lane.done, lane.ctxs))
}

/// Random segments for one lane: up to six, lengths up to one of a few
/// scales, decisions skewed at random.
fn lane_segments(rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..rng.gen_range(0..=6))
        .map(|_| {
            let most = [4, 60, 900, 4000][rng.gen_range(0..4usize)];
            let n = rng.gen_range(0..=most);
            let one_in = rng.gen_range(2..=64u32);
            decisions(rng, n, one_in)
        })
        .collect()
}

#[test]
fn two_lanes_match_the_reference_lane_by_lane() {
    let mut rng = StdRng::seed_from_u64(0xC2_0002);
    let mut paths = Paths::default();
    let mut cases = LaneCases::default();
    for case in 0..300 {
        let starts = [random_bank(&mut rng), random_bank(&mut rng)];
        let mut lanes = [lane_segments(&mut rng), lane_segments(&mut rng)];
        // Every fifth case makes lane 1's segments as long as lane 0's, so
        // both lanes use up their segments on the same decision.
        if case % 5 == 0 {
            let [x, y] = &mut lanes;
            for (seg, other) in x.iter().zip(y) {
                other.resize(seg.len(), 0);
            }
        }
        cases.empty_lanes += lanes.iter().filter(|l| l.iter().all(Vec::is_empty)).count();
        let want = reference_pair(
            [&starts[0], &starts[1]],
            [&lanes[0], &lanes[1]],
            &mut paths,
            &mut cases,
        );
        let got = encode_pair([&starts[0], &starts[1]], [&lanes[0], &lanes[1]]);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "case {case}: lane {k} segments");
            assert_eq!(g.1, w.1, "case {case}: lane {k} final contexts");
        }
    }
    for (name, n) in [
        ("batches redone in lane 0 alone", cases.redo_only[0]),
        ("batches redone in lane 1 alone", cases.redo_only[1]),
        ("lanes used up on the same decision", cases.same_end),
        ("empty lanes", cases.empty_lanes),
    ] {
        assert!(n >= 5, "{name}: {n} in {cases:?}");
    }
    assert!(
        paths.carries_into_ff >= 5 && paths.bytes_after_ff >= 5,
        "{paths:?}"
    );
}
