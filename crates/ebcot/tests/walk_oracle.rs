//! Decision-level differential test of the Tier-1 bit modeler.
//!
//! The oracle below is the per-sample walk the encoder had before its
//! column steps: each pass visits a stripe column's members one row at a
//! time, re-reading the column after each, and sets each new significant
//! sample's neighbors one sample at a time. It is kept here verbatim
//! except that it records each decision instead of coding it, as
//! `crates/mq/tests/reference_decoder.rs` keeps a reference decoder.
//!
//! For every pass of every block, `ebcot::block::model_block` must hand
//! over the same decisions (context and bit; the bit alone in a raw pass)
//! and the same count of coded samples, and leave the same flag and mask
//! words in every stripe column, the dummies included. The blocks cover
//! widths 1, 2, 5 and 64, heights 1 to 8 and 64 (every `h % 4`), all
//! three band kinds, bypass off and on, and contents chosen to reach the
//! column step's corners: significance propagation chained down whole
//! columns, cleanup run mode broken at each of rows 0 to 3, all-negative
//! and sign-alternating columns, sparse and dense blocks.

use ebcot::block::{model_block, pass_is_raw, BandKind, PassType};
use ebcot::context::{
    mr_context, sign_table, zc_table, CTX_RL, CTX_UNI, NB_E, NB_N, NB_NE, NB_NW, NB_S, NB_SE,
    NB_SW, NB_W,
};

/// Every decision the oracle makes, `(cx << 1) | d`; a raw bit is pushed
/// as it is.
#[derive(Default)]
struct Log(Vec<u8>);

impl Log {
    fn encode(&mut self, _ctxs: &mut (), cx: usize, d: u8) {
        self.0.push((cx as u8) << 1 | d);
    }

    fn put(&mut self, bit: u8) {
        self.0.push(bit);
    }
}

// ---------------------------------------------------------------------------
// The oracle: the per-sample walk.
// ---------------------------------------------------------------------------

const SIG: u8 = 1;
const VISITED: u8 = 2;
const REFINED: u8 = 4;
const NEG: u8 = 8;

/// `bit` in each of a column word's four sample bytes.
const fn all4(bit: u8) -> u32 {
    bit as u32 * 0x0101_0101
}

/// Byte `r` of a column word: the state of the stripe column's row `r`.
#[inline]
fn byte(word: u32, r: usize) -> u8 {
    (word >> (8 * r)) as u8
}

/// Row of the lowest set bit of a column word.
#[inline]
fn lowest_row(bits: u32) -> usize {
    (bits.trailing_zeros() / 8) as usize
}

/// Rows `0..rows` of a column word, as `SIG` bits.
#[inline]
fn first_rows(rows: usize) -> u32 {
    all4(SIG) >> (8 * (4 - rows))
}

/// Rows after row `r` of a column word, as `SIG` bits.
#[inline]
fn rows_after(r: usize) -> u32 {
    all4(SIG) & !(u32::MAX >> (24 - 8 * r))
}

/// The `SIG` bit of every nonzero byte of `word`.
#[inline]
fn nonzero_bytes(word: u32) -> u32 {
    // Per byte, the low seven bits plus 0x7F carry into bit 7 exactly when
    // they are nonzero, and never past it.
    ((((word & 0x7F7F_7F7F) + 0x7F7F_7F7F) | word) >> 7) & all4(SIG)
}

/// State of one stripe column: four vertically adjacent samples, row `r`
/// of the stripe in byte `r` of each word, so a pass can test the whole
/// column with one compare.
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    /// Per-sample `SIG`/`VISITED`/`REFINED`/`NEG` flags in bits 0..3;
    /// bits 4..7 hold the `NB_W`/`NB_E`/`NB_N`/`NB_S` bits, shifted up
    /// by 4, of the direct neighbors that are significant and negative.
    flags: u32,
    /// Per-sample neighbor mask: the `NB_*` bits of the significant
    /// neighbors, which index the zero-coding tables directly.
    masks: u32,
}

/// Shared significance/sign state in stripe-column order.
///
/// Columns are stored stripe by stripe with one dummy stripe above and
/// below and one dummy column on each side. The dummies' `SIG` flags stay
/// zero, and samples below the block's last row (in a partial last
/// stripe) are never coded, so none of them is ever significant: they
/// keep the "outside the block = insignificant" rule by value, and
/// setting a sample significant can OR its bit into all eight neighbors'
/// masks (and its sign into the direct neighbors' flags) without bounds
/// checks or edge branches.
struct Grid {
    w: usize,
    h: usize,
    /// Columns per stripe, `w + 2`.
    stride: usize,
    cols: Vec<Column>,
}

impl Grid {
    fn new(w: usize, h: usize) -> Self {
        Grid {
            w,
            h,
            stride: w + 2,
            cols: vec![Column::default(); (w + 2) * (h.div_ceil(4) + 2)],
        }
    }

    fn stripes(&self) -> usize {
        self.h.div_ceil(4)
    }

    /// Rows of stripe `s` inside the block (4 except in a partial last
    /// stripe).
    fn rows(&self, s: usize) -> usize {
        (self.h - 4 * s).min(4)
    }

    /// Index of the column holding rows `4s..4s + 4` of block column `x`.
    /// Sample row `r` of column `i` has magnitude `mags[4 * i + r]`.
    #[inline]
    fn idx(&self, s: usize, x: usize) -> usize {
        (s + 1) * self.stride + x + 1
    }

    /// The columns of stripe `s` inside the block.
    fn stripe(&self, s: usize) -> std::ops::Range<usize> {
        let i = self.idx(s, 0);
        i..i + self.w
    }

    #[inline]
    fn set(&mut self, i: usize, r: usize, bit: u8) {
        self.cols[i].flags |= (bit as u32) << (8 * r);
    }

    /// Set sample `r` of column `i` significant and OR its bit into its
    /// eight neighbors' masks; a negative sample also ORs it, shifted up
    /// by 4, into its four direct neighbors' sign nibbles. `NEG` must be
    /// set first.
    #[inline]
    fn make_significant(&mut self, i: usize, r: usize) {
        self.set(i, r, SIG);
        // Bits for rows r-1, r and r+1 of one neighboring column, as a word
        // over rows -1..=4 with row -1 in byte 0: bytes 1..=4 are this
        // stripe, byte 0 row 3 of the stripe above, byte 5 row 0 of the
        // stripe below.
        let rows3 = |above: u8, level: u8, below: u8| -> u64 {
            (above as u64 | (level as u64) << 8 | (below as u64) << 16) << (8 * r)
        };
        let stride = self.stride;
        for (j, word) in [
            (i - 1, rows3(NB_SE, NB_E, NB_NE)),
            (i, rows3(NB_S, 0, NB_N)),
            (i + 1, rows3(NB_SW, NB_W, NB_NW)),
        ] {
            self.cols[j - stride].masks |= (word as u32 & 0xFF) << 24;
            self.cols[j].masks |= (word >> 8) as u32;
            self.cols[j + stride].masks |= (word >> 40) as u32;
        }
        let neg = (self.cols[i].flags >> (8 * r + 3)) & 1;
        let level = |bit: u8| ((bit as u32) << (8 * r + 4)) * neg;
        self.cols[i - 1].flags |= level(NB_E);
        self.cols[i + 1].flags |= level(NB_W);
        let vertical = rows3(NB_S << 4, 0, NB_N << 4) * neg as u64;
        self.cols[i - stride].flags |= (vertical as u32 & 0xFF) << 24;
        self.cols[i].flags |= (vertical >> 8) as u32;
        self.cols[i + stride].flags |= (vertical >> 40) as u32;
    }

    /// Sign-coding (context, xor) of sample `r` of column `i`, one
    /// [`sign_table`] lookup on its direct neighbors' mask and sign bits.
    #[inline]
    fn sign_context(&self, i: usize, r: usize) -> (u8, u8) {
        let c = self.cols[i];
        sign_table()[((byte(c.masks, r) & 0x0F) | (byte(c.flags, r) & 0xF0)) as usize]
    }

    fn clear_visited(&mut self) {
        for c in &mut self.cols {
            c.flags &= !all4(VISITED);
        }
    }
}

/// Bit `plane` of sample `r` of column `i`.
#[inline]
fn plane_bit(mags: &[u32], i: usize, r: usize, plane: u8) -> u8 {
    ((mags[4 * i + r] >> plane) & 1) as u8
}

/// Samples of column `c` that significance propagation codes, as `SIG`
/// bits: insignificant, with a significant neighbor.
#[inline]
fn sig_prop_set(c: Column) -> u32 {
    nonzero_bytes(c.masks) & !c.flags & all4(SIG)
}

/// Samples of column `c` that magnitude refinement codes, as `SIG` bits:
/// significant, and not coded by this plane's significance propagation.
#[inline]
fn refine_set(c: Column) -> u32 {
    // VISITED is bit 1: shifting right by one lines it up with SIG.
    c.flags & all4(SIG) & !(c.flags >> 1)
}

/// Samples of column `c` that cleanup codes, as `SIG` bits: neither
/// significant nor coded by this plane's significance propagation.
#[inline]
fn cleanup_set(c: Column) -> u32 {
    !(c.flags | c.flags >> 1) & all4(SIG)
}

fn code_sign_enc(enc: &mut Log, ctxs: &mut (), grid: &Grid, i: usize, r: usize) {
    let (cx, xor) = grid.sign_context(i, r);
    let neg = u8::from(byte(grid.cols[i].flags, r) & NEG != 0);
    enc.encode(ctxs, cx as usize, neg ^ xor);
}

/// Significance propagation: every insignificant sample with a
/// significant neighbor. Returns the samples that became significant.
fn sig_prop_enc(
    enc: &mut Log,
    ctxs: &mut (),
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
    zc: &[u8; 256],
) -> u32 {
    let mut newly = 0;
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            // A sample that becomes significant can bring the one below it
            // into the pass, so the column is tested again after each row.
            let mut left = live;
            loop {
                let c = grid.cols[i];
                let todo = sig_prop_set(c) & left;
                if todo == 0 {
                    break;
                }
                let r = lowest_row(todo);
                left &= rows_after(r);
                let bit = plane_bit(mags, i, r, plane);
                enc.encode(ctxs, zc[byte(c.masks, r) as usize] as usize, bit);
                grid.set(i, r, VISITED);
                if bit == 1 {
                    code_sign_enc(enc, ctxs, grid, i, r);
                    grid.make_significant(i, r);
                    newly += 1;
                }
            }
        }
    }
    newly
}

/// Magnitude refinement. Returns the samples refined.
fn mag_ref_enc(enc: &mut Log, ctxs: &mut (), grid: &mut Grid, mags: &[u32], plane: u8) -> u32 {
    let mut refined = 0;
    for s in 0..grid.stripes() {
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            let todo = refine_set(c);
            let mut t = todo;
            while t != 0 {
                let r = lowest_row(t);
                t &= t - 1;
                let cx = mr_context(byte(c.flags, r) & REFINED == 0, byte(c.masks, r) != 0);
                enc.encode(ctxs, cx, plane_bit(mags, i, r, plane));
                refined += 1;
            }
            // REFINED is bit 2.
            grid.cols[i].flags |= todo << 2;
        }
    }
    refined
}

/// Raw (bypass) significance propagation: same membership rule as the MQ
/// pass, but bits and signs are emitted uncoded. Returns (bits emitted,
/// samples that became significant).
fn sig_prop_enc_raw(enc: &mut Log, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
    let (mut bits, mut newly) = (0u64, 0u32);
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let mut left = live;
            loop {
                let c = grid.cols[i];
                let todo = sig_prop_set(c) & left;
                if todo == 0 {
                    break;
                }
                let r = lowest_row(todo);
                left &= rows_after(r);
                let bit = plane_bit(mags, i, r, plane);
                enc.put(bit);
                bits += 1;
                grid.set(i, r, VISITED);
                if bit == 1 {
                    enc.put(u8::from(byte(c.flags, r) & NEG != 0));
                    bits += 1;
                    grid.make_significant(i, r);
                    newly += 1;
                }
            }
        }
    }
    (bits, newly)
}

/// Raw (bypass) magnitude refinement. Returns (bits emitted, samples
/// refined); the two are equal.
fn mag_ref_enc_raw(enc: &mut Log, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
    let mut refined = 0u32;
    for s in 0..grid.stripes() {
        for i in grid.stripe(s) {
            let todo = refine_set(grid.cols[i]);
            let mut t = todo;
            while t != 0 {
                let r = lowest_row(t);
                t &= t - 1;
                enc.put(plane_bit(mags, i, r, plane));
                refined += 1;
            }
            grid.cols[i].flags |= todo << 2;
        }
    }
    (refined as u64, refined)
}

/// Cleanup: every sample not yet significant and not coded by this
/// plane's significance propagation. Returns the samples that became
/// significant.
fn cleanup_enc(
    enc: &mut Log,
    ctxs: &mut (),
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
    zc: &[u8; 256],
) -> u32 {
    let mut newly = 0;
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            // Coding a sample changes only its own membership, so the set
            // is taken once per column.
            let mut todo = cleanup_set(c) & live;
            // Run mode: a full stripe column, all four uncoded and without
            // a significant neighbor (zero-coding context 0).
            if todo == all4(SIG) && c.masks == 0 {
                match (0..4).find(|&r| plane_bit(mags, i, r, plane) == 1) {
                    None => {
                        enc.encode(ctxs, CTX_RL, 0);
                        continue;
                    }
                    Some(r) => {
                        enc.encode(ctxs, CTX_RL, 1);
                        enc.encode(ctxs, CTX_UNI, ((r >> 1) & 1) as u8);
                        enc.encode(ctxs, CTX_UNI, (r & 1) as u8);
                        code_sign_enc(enc, ctxs, grid, i, r);
                        grid.make_significant(i, r);
                        newly += 1;
                        todo = rows_after(r);
                    }
                }
            }
            while todo != 0 {
                let r = lowest_row(todo);
                todo &= todo - 1;
                let bit = plane_bit(mags, i, r, plane);
                let m = byte(grid.cols[i].masks, r);
                enc.encode(ctxs, zc[m as usize] as usize, bit);
                if bit == 1 {
                    code_sign_enc(enc, ctxs, grid, i, r);
                    grid.make_significant(i, r);
                    newly += 1;
                }
            }
        }
    }
    newly
}

/// One pass as the oracle made it.
struct Pass {
    pass_type: PassType,
    plane: u8,
    raw: bool,
    decisions: Vec<u8>,
    coded: u32,
    columns: Vec<(u32, u32)>,
}

/// The oracle's passes of one block, as the encoder ran them.
fn oracle(data: &[i32], w: usize, h: usize, kind: BandKind, bypass: bool) -> Vec<Pass> {
    let any = data.iter().fold(0u32, |acc, v| acc | v.unsigned_abs());
    let num_planes = (32 - any.leading_zeros()) as u8;
    let mut out = Vec::new();
    if num_planes == 0 {
        return out;
    }
    let mut grid = Grid::new(w, h);
    let mut mags = vec![0u32; 4 * grid.cols.len()];
    for (y, row) in data.chunks_exact(w).enumerate() {
        let (i0, r) = (grid.idx(y / 4, 0), y % 4);
        for (i, &v) in (i0..).zip(row) {
            mags[4 * i + r] = v.unsigned_abs();
            grid.cols[i].flags |= (v as u32 >> 31) << (8 * r + 3);
        }
    }
    let zc = zc_table(kind);
    for plane in (0..num_planes).rev() {
        let passes: &[PassType] = if plane == num_planes - 1 {
            &[PassType::Cleanup]
        } else {
            &[PassType::SigProp, PassType::MagRef, PassType::Cleanup]
        };
        for &pt in passes {
            let raw = pass_is_raw(bypass, pt, plane, num_planes);
            let mut log = Log::default();
            let coded = match (pt, raw) {
                (PassType::SigProp, true) => sig_prop_enc_raw(&mut log, &mut grid, &mags, plane).1,
                (PassType::MagRef, true) => mag_ref_enc_raw(&mut log, &mut grid, &mags, plane).1,
                (PassType::SigProp, false) => {
                    sig_prop_enc(&mut log, &mut (), &mut grid, &mags, plane, zc)
                }
                (PassType::MagRef, false) => {
                    mag_ref_enc(&mut log, &mut (), &mut grid, &mags, plane)
                }
                (PassType::Cleanup, _) => {
                    let n = cleanup_enc(&mut log, &mut (), &mut grid, &mags, plane, zc);
                    grid.clear_visited();
                    n
                }
            };
            out.push(Pass {
                pass_type: pt,
                plane,
                raw,
                decisions: log.0,
                coded,
                columns: grid.cols.iter().map(|c| (c.flags, c.masks)).collect(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Content {
    /// Uniform in -2000..=2000: every pass type, and raw passes under
    /// bypass.
    Dense,
    /// One sample in nine nonzero: long cleanup runs.
    Sparse,
    /// Every sample negative.
    AllNegative,
    /// Signs alternating down each column and across each row.
    Alternating,
    /// A large sample on top of each column and the rest one plane below
    /// it: each new significance brings the sample below into the same
    /// significance-propagation pass, down the whole column.
    Chains,
    /// Isolated samples, one per stripe column at row `x % 4` of every
    /// other column: cleanup run mode broken at each of rows 0 to 3, in
    /// planes that vary with the column.
    RunBreaks,
}

const CONTENTS: [Content; 6] = [
    Content::Dense,
    Content::Sparse,
    Content::AllNegative,
    Content::Alternating,
    Content::Chains,
    Content::RunBreaks,
];

fn block(w: usize, h: usize, content: Content, seed: u32) -> Vec<i32> {
    let mut x = seed.wrapping_mul(2_654_435_761) | 1;
    let mut next = move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x >> 8
    };
    let mut v = vec![0i32; w * h];
    for y in 0..h {
        for c in 0..w {
            let r = next();
            v[y * w + c] = match content {
                Content::Dense => (r % 4001) as i32 - 2000,
                Content::Sparse => {
                    if r % 9 == 0 {
                        let m = (next() % 3000) as i32 + 1;
                        if r & 0x100 == 0 {
                            m
                        } else {
                            -m
                        }
                    } else {
                        0
                    }
                }
                Content::AllNegative => -((r % 700) as i32 + 1),
                Content::Alternating => {
                    let m = (r % 500) as i32 + 1;
                    if (y + c) % 2 == 0 {
                        m
                    } else {
                        -m
                    }
                }
                Content::Chains => {
                    let m = if y % 16 == 0 {
                        1 << 9
                    } else {
                        (1 << 8) + (r % 256) as i32
                    };
                    if r & 0x200 == 0 {
                        m
                    } else {
                        -m
                    }
                }
                Content::RunBreaks => {
                    if c % 2 == 0 && y % 4 == (c / 2) % 4 {
                        let m = 1 << ((c / 2 + y / 4) % 11);
                        if r & 1 == 0 {
                            m
                        } else {
                            -m
                        }
                    } else {
                        0
                    }
                }
            };
        }
    }
    v
}

/// Corners of the column step that the blocks reached.
#[derive(Default)]
struct Reached {
    passes: usize,
    raw_passes: usize,
    /// Cleanup run mode broken at row `r`.
    run_breaks: [usize; 4],
    /// Significance-propagation columns whose four samples all became
    /// significant although rows 1 to 3 had no significant neighbor
    /// before the pass.
    whole_chains: usize,
}

fn check(
    data: &[i32],
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
    what: &str,
    reached: &mut Reached,
) {
    let want = oracle(data, w, h, kind, bypass);
    let mut got = 0;
    model_block(data, w, h, kind, bypass, |p| {
        let o = &want[got];
        let at = format!("{what}, pass {got} ({:?} plane {})", o.pass_type, o.plane);
        assert_eq!(
            (p.pass_type, p.plane, p.raw),
            (o.pass_type, o.plane, o.raw),
            "{at}"
        );
        if p.raw {
            // A raw pass emits bits; its contexts code nothing.
            let bits: Vec<u8> = p.decisions.iter().map(|d| d & 1).collect();
            assert_eq!(bits, o.decisions, "{at}: raw bits");
        } else {
            assert_eq!(p.decisions, &o.decisions[..], "{at}: decisions");
        }
        assert_eq!(p.coded, o.coded, "{at}: coded samples");
        if p.raw {
            reached.raw_passes += 1;
        } else if p.pass_type == PassType::Cleanup {
            for d in p.decisions.windows(3) {
                if d[0] == (CTX_RL as u8) << 1 | 1 && d[1] >> 1 == CTX_UNI as u8 {
                    reached.run_breaks[((d[1] & 1) << 1 | (d[2] & 1)) as usize] += 1;
                }
            }
        }
        if p.pass_type == PassType::SigProp {
            let before = &want[got - 1].columns;
            let all = 0x0101_0101;
            reached.whole_chains += before
                .iter()
                .zip(&o.columns)
                .filter(|((f0, m0), (f1, _))| f0 & all == 0 && m0 >> 8 == 0 && f1 & all == all)
                .count();
        }
        let columns: Vec<(u32, u32)> = p.columns().collect();
        if columns != o.columns {
            let i = (0..columns.len())
                .find(|&i| columns[i] != o.columns[i])
                .unwrap();
            panic!(
                "{at}: column {i} (flags, masks) {:#010x?} != {:#010x?}",
                columns[i], o.columns[i]
            );
        }
        got += 1;
    });
    assert_eq!(got, want.len(), "{what}: passes");
    reached.passes += got;
}

#[test]
fn column_steps_match_the_per_sample_walk() {
    let kinds = [BandKind::LlLh, BandKind::Hl, BandKind::Hh];
    let mut reached = Reached::default();
    let mut blocks = 0;
    for w in [1usize, 2, 5, 64] {
        for h in (1usize..=8).chain([64]) {
            for (ci, &content) in CONTENTS.iter().enumerate() {
                for (ki, &kind) in kinds.iter().enumerate() {
                    let seed = (w * 1000 + h * 10 + ci) as u32 * 3 + ki as u32;
                    let data = block(w, h, content, seed);
                    for bypass in [false, true] {
                        let what = format!("{w}x{h} {content:?} {kind:?} bypass {bypass}");
                        check(&data, w, h, kind, bypass, &what, &mut reached);
                        blocks += 1;
                    }
                }
            }
        }
    }
    assert_eq!(blocks, 4 * 9 * CONTENTS.len() * 3 * 2);
    assert!(reached.passes > 10_000, "{} passes", reached.passes);
    assert!(
        reached.raw_passes > 1_000,
        "{} raw passes",
        reached.raw_passes
    );
    assert!(
        reached.run_breaks.iter().all(|&n| n > 0),
        "run mode broken at rows 0..=3: {:?}",
        reached.run_breaks
    );
    assert!(reached.whole_chains > 0, "no chain down a whole column");
}

#[test]
fn an_all_zero_block_has_no_passes() {
    model_block(&[0; 20], 5, 4, BandKind::Hh, true, |_| {
        panic!("a pass of a zero block")
    });
    assert!(oracle(&[0; 20], 5, 4, BandKind::Hh, true).is_empty());
}
