//! Tier-1 code-block coder and decoder (JPEG2000 Annex D).
//!
//! Coefficients are coded in sign-magnitude form, bit-plane by bit-plane,
//! most significant plane first. Each plane below the first runs three
//! passes — significance propagation, magnitude refinement, cleanup — and
//! every pass ends with an MQ termination (the standard's TERMALL /
//! RESTART style), so truncation at any pass boundary is *exact*: rate
//! control can drop a suffix of passes and the decoder reconstructs the
//! included prefix bit-for-bit.
//!
//! The coder also measures, per pass, the byte cost, the estimated
//! distortion reduction (for PCRD), and the MQ decision count (the Tier-1
//! work items consumed by the `cellsim` cost model).

use crate::context::{
    initial_contexts, mr_context, sign_table, zc_table, CTX_RL, CTX_UNI, NB_E, NB_N, NB_NE, NB_NW,
    NB_S, NB_SE, NB_SW, NB_W,
};
use mqcoder::{Contexts, MqDecoder, MqEncoder, RawDecoder, RawEncoder};

/// Band class for context selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandKind {
    /// LL and LH (vertically low-pass) bands share one table.
    LlLh,
    /// HL: horizontally high-pass (h/v roles swap).
    Hl,
    /// HH: diagonally oriented.
    Hh,
}

/// Coding pass type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassType {
    /// Significance propagation.
    SigProp,
    /// Magnitude refinement.
    MagRef,
    /// Cleanup.
    Cleanup,
}

/// Bookkeeping for one coding pass.
#[derive(Debug, Clone)]
pub struct PassInfo {
    /// Pass type.
    pub pass_type: PassType,
    /// Bit-plane index (0 = least significant).
    pub plane: u8,
    /// Cumulative compressed bytes through the end of this pass.
    pub rate_bytes: usize,
    /// Estimated distortion reduction of this pass, in (quantizer-index)^2
    /// units; multiply by (step * L2 basis norm)^2 to get image-domain MSE.
    pub dist_reduction: f64,
    /// MQ decisions coded in this pass (Tier-1 work items).
    pub symbols: u64,
}

/// Output of [`encode_block`].
#[derive(Debug, Clone)]
pub struct EncodedBlock {
    /// Concatenated per-pass MQ segments.
    pub data: Vec<u8>,
    /// Byte offset of the end of each pass's segment within `data`.
    pub pass_ends: Vec<usize>,
    /// Per-pass metadata (same length as `pass_ends`).
    pub passes: Vec<PassInfo>,
    /// Number of coded magnitude bit-planes (0 for an all-zero block).
    pub num_planes: u8,
    /// Block width.
    pub w: usize,
    /// Block height.
    pub h: usize,
}

impl EncodedBlock {
    /// Total MQ decisions across passes.
    pub fn total_symbols(&self) -> u64 {
        self.passes.iter().map(|p| p.symbols).sum()
    }

    /// Bytes if truncated to the first `n` passes.
    pub fn bytes_for_passes(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.pass_ends[n.min(self.pass_ends.len()) - 1]
        }
    }
}

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

/// Distortion-reduction estimate when a sample becomes significant at
/// plane `p` (reconstruction moves from 0 to the interval midpoint).
#[inline]
fn d_sig(p: u8) -> f64 {
    2.25 * f64::powi(4.0, p as i32)
}

/// Distortion-reduction estimate for one refinement bit at plane `p`
/// (uncertainty interval halves).
#[inline]
fn d_ref(p: u8) -> f64 {
    0.25 * f64::powi(4.0, p as i32)
}

/// True when a pass is raw-coded under selective arithmetic-coding bypass
/// (Annex D.5): significance-propagation and magnitude-refinement passes
/// below the four most significant bit planes skip the MQ coder.
#[inline]
pub fn pass_is_raw(bypass: bool, pt: PassType, plane: u8, num_planes: u8) -> bool {
    bypass && pt != PassType::Cleanup && plane + 4 < num_planes
}

/// Encode one code block of signed quantizer indices.
pub fn encode_block(data: &[i32], w: usize, h: usize, kind: BandKind) -> EncodedBlock {
    encode_block_opts(data, w, h, kind, false)
}

/// [`encode_block`] with the selective arithmetic-coding-bypass option
/// ("lazy" mode): cheaper Tier-1 at a small rate cost.
pub fn encode_block_opts(
    data: &[i32],
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
) -> EncodedBlock {
    assert_eq!(data.len(), w * h, "block data size");
    // Per-code-block trace span: free (one atomic load) while tracing
    // is disabled; Tier-1 cost is data dependent, so these spans are
    // the ground truth behind the dynamic work queue's utilization.
    let mut span = obs::trace::span("tier1")
        .cat("block")
        .arg("w", w as u64)
        .arg("h", h as u64);
    // The OR of the magnitudes has the same top bit as their maximum.
    let any = data.iter().fold(0u32, |acc, v| acc | v.unsigned_abs());
    let num_planes = (32 - any.leading_zeros()) as u8;
    let mut blk = EncodedBlock {
        data: Vec::new(),
        pass_ends: Vec::new(),
        passes: Vec::new(),
        num_planes,
        w,
        h,
    };
    if num_planes == 0 {
        span.set_arg("symbols", 0);
        return blk;
    }
    let mut grid = Grid::new(w, h);
    let mut mags = vec![0u32; 4 * grid.cols.len()];
    for (y, row) in data.chunks_exact(w).enumerate() {
        let (i0, r) = (grid.idx(y / 4, 0), y % 4);
        for (i, &v) in (i0..).zip(row) {
            mags[4 * i + r] = v.unsigned_abs();
            // NEG is bit 3: move the sign bit there.
            grid.cols[i].flags |= (v as u32 >> 31) << (8 * r + 3);
        }
    }
    let zc = zc_table(kind);
    let mut ctxs = initial_contexts();
    let mut enc = MqEncoder::new();

    for plane in (0..num_planes).rev() {
        let first = plane == num_planes - 1;
        let passes: &[PassType] = if first {
            &[PassType::Cleanup]
        } else {
            &[PassType::SigProp, PassType::MagRef, PassType::Cleanup]
        };
        let (ds, dr) = (d_sig(plane), d_ref(plane));
        for &pt in passes {
            // Each pass counts its newly significant (or refined) samples;
            // `count * d` equals the sum of `count` copies of `d` exactly,
            // as every partial sum is a small multiple of a power of two.
            let (symbols, dist) = if pass_is_raw(bypass, pt, plane, num_planes) {
                let mut raw = RawEncoder::new();
                let (bits, dist) = match pt {
                    PassType::SigProp => {
                        let (bits, n) = sig_prop_enc_raw(&mut raw, &mut grid, &mags, plane);
                        (bits, n as f64 * ds)
                    }
                    PassType::MagRef => {
                        let (bits, n) = mag_ref_enc_raw(&mut raw, &mut grid, &mags, plane);
                        (bits, n as f64 * dr)
                    }
                    PassType::Cleanup => unreachable!("cleanup is never raw"),
                };
                blk.data.extend_from_slice(&raw.finish());
                (bits, dist)
            } else {
                let dist = match pt {
                    PassType::SigProp => {
                        sig_prop_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane, zc) as f64 * ds
                    }
                    PassType::MagRef => {
                        mag_ref_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane) as f64 * dr
                    }
                    PassType::Cleanup => {
                        let n = cleanup_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane, zc);
                        grid.clear_visited();
                        n as f64 * ds
                    }
                };
                let symbols = enc.symbols();
                enc.flush_into(&mut blk.data);
                (symbols, dist)
            };
            blk.pass_ends.push(blk.data.len());
            blk.passes.push(PassInfo {
                pass_type: pt,
                plane,
                rate_bytes: blk.data.len(),
                dist_reduction: dist,
                symbols,
            });
        }
    }
    span.set_arg("symbols", blk.total_symbols());
    blk
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

fn code_sign_enc(enc: &mut MqEncoder, ctxs: &mut Contexts, grid: &Grid, i: usize, r: usize) {
    let (cx, xor) = grid.sign_context(i, r);
    let neg = u8::from(byte(grid.cols[i].flags, r) & NEG != 0);
    enc.encode(ctxs, cx as usize, neg ^ xor);
}

/// Significance propagation: every insignificant sample with a
/// significant neighbor. Returns the samples that became significant.
fn sig_prop_enc(
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
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
fn mag_ref_enc(
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
) -> u32 {
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
fn sig_prop_enc_raw(enc: &mut RawEncoder, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
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
fn mag_ref_enc_raw(enc: &mut RawEncoder, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
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
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
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

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

fn code_sign_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    i: usize,
    r: usize,
) {
    let (cx, xor) = grid.sign_context(i, r);
    let neg = dec.decode(ctxs, cx as usize) ^ xor;
    grid.set(i, r, neg << 3);
}

/// Decode the first `num_passes` passes of a block coded by
/// [`encode_block`]. `pass_ends` are the per-pass segment ends (as in
/// [`EncodedBlock::pass_ends`], possibly truncated); `data` must contain at
/// least `pass_ends[num_passes - 1]` bytes.
///
/// When `midpoint` is set, partially decoded magnitudes are reconstructed
/// at the midpoint of their uncertainty interval (standard lossy decoder
/// behavior); exact lossless reconstruction requires all passes and
/// `midpoint = false` (the adjustment would be zero anyway at plane 0).
#[allow(clippy::too_many_arguments)]
pub fn decode_block(
    data: &[u8],
    pass_ends: &[usize],
    num_passes: usize,
    w: usize,
    h: usize,
    kind: BandKind,
    num_planes: u8,
    midpoint: bool,
) -> Vec<i32> {
    decode_block_opts(
        data, pass_ends, num_passes, w, h, kind, num_planes, midpoint, false,
    )
}

/// [`decode_block`] with the selective arithmetic-coding-bypass option;
/// `bypass` must match the encoder's setting (signalled in COD).
#[allow(clippy::too_many_arguments)]
pub fn decode_block_opts(
    data: &[u8],
    pass_ends: &[usize],
    num_passes: usize,
    w: usize,
    h: usize,
    kind: BandKind,
    num_planes: u8,
    midpoint: bool,
    bypass: bool,
) -> Vec<i32> {
    if num_planes == 0 || num_passes == 0 || w == 0 {
        return vec![0; w * h];
    }
    let mut grid = Grid::new(w, h);
    let mut mags = vec![0u32; 4 * grid.cols.len()];
    let zc = zc_table(kind);
    let mut ctxs = initial_contexts();
    let mut pass_idx = 0usize;
    let mut seg_start = 0usize;
    let mut last_plane = num_planes - 1;

    'outer: for plane in (0..num_planes).rev() {
        let first = plane == num_planes - 1;
        let passes: &[PassType] = if first {
            &[PassType::Cleanup]
        } else {
            &[PassType::SigProp, PassType::MagRef, PassType::Cleanup]
        };
        for &pt in passes {
            if pass_idx >= num_passes {
                break 'outer;
            }
            let seg_end = pass_ends[pass_idx];
            let seg = &data[seg_start..seg_end];
            if pass_is_raw(bypass, pt, plane, num_planes) {
                let mut dec = RawDecoder::new(seg);
                match pt {
                    PassType::SigProp => sig_prop_dec_raw(&mut dec, &mut grid, &mut mags, plane),
                    PassType::MagRef => mag_ref_dec_raw(&mut dec, &mut grid, &mut mags, plane),
                    PassType::Cleanup => unreachable!("cleanup is never raw"),
                }
            } else {
                let mut dec = MqDecoder::new(seg);
                match pt {
                    PassType::SigProp => {
                        sig_prop_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane, zc)
                    }
                    PassType::MagRef => {
                        mag_ref_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane)
                    }
                    PassType::Cleanup => {
                        cleanup_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane, zc);
                        grid.clear_visited();
                    }
                }
            }
            last_plane = plane;
            seg_start = seg_end;
            pass_idx += 1;
        }
    }

    let half = if midpoint && last_plane > 0 {
        1u32 << (last_plane - 1)
    } else {
        0
    };
    let mut out = vec![0i32; w * h];
    for (y, row) in out.chunks_exact_mut(w).enumerate() {
        let (i0, r) = (grid.idx(y / 4, 0), y % 4);
        for (i, v) in (i0..).zip(row) {
            let m = mags[4 * i + r];
            let mag = (m + if m != 0 { half } else { 0 }) as i32;
            // 0, or -1 for a negative sample: `(mag ^ s) - s` negates.
            let s = -(((grid.cols[i].flags >> (8 * r + 3)) & 1) as i32);
            *v = (mag ^ s) - s;
        }
    }
    out
}

fn sig_prop_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
    zc: &[u8; 256],
) {
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
                let bit = dec.decode(ctxs, zc[byte(c.masks, r) as usize] as usize);
                grid.set(i, r, VISITED);
                if bit == 1 {
                    code_sign_dec(dec, ctxs, grid, i, r);
                    grid.make_significant(i, r);
                    mags[4 * i + r] |= 1 << plane;
                }
            }
        }
    }
}

fn mag_ref_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
) {
    for s in 0..grid.stripes() {
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            let todo = refine_set(c);
            let mut t = todo;
            while t != 0 {
                let r = lowest_row(t);
                t &= t - 1;
                let cx = mr_context(byte(c.flags, r) & REFINED == 0, byte(c.masks, r) != 0);
                mags[4 * i + r] |= (dec.decode(ctxs, cx) as u32) << plane;
            }
            grid.cols[i].flags |= todo << 2;
        }
    }
}

/// Raw (bypass) significance-propagation decode.
fn sig_prop_dec_raw(dec: &mut RawDecoder<'_>, grid: &mut Grid, mags: &mut [u32], plane: u8) {
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let mut left = live;
            loop {
                let todo = sig_prop_set(grid.cols[i]) & left;
                if todo == 0 {
                    break;
                }
                let r = lowest_row(todo);
                left &= rows_after(r);
                let bit = dec.get();
                grid.set(i, r, VISITED);
                if bit == 1 {
                    grid.set(i, r, dec.get() << 3);
                    grid.make_significant(i, r);
                    mags[4 * i + r] |= 1 << plane;
                }
            }
        }
    }
}

/// Raw (bypass) magnitude-refinement decode.
fn mag_ref_dec_raw(dec: &mut RawDecoder<'_>, grid: &mut Grid, mags: &mut [u32], plane: u8) {
    for s in 0..grid.stripes() {
        for i in grid.stripe(s) {
            let todo = refine_set(grid.cols[i]);
            let mut t = todo;
            while t != 0 {
                let r = lowest_row(t);
                t &= t - 1;
                mags[4 * i + r] |= (dec.get() as u32) << plane;
            }
            grid.cols[i].flags |= todo << 2;
        }
    }
}

fn cleanup_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
    zc: &[u8; 256],
) {
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            let mut todo = cleanup_set(c) & live;
            if todo == all4(SIG) && c.masks == 0 {
                if dec.decode(ctxs, CTX_RL) == 0 {
                    continue;
                }
                let r = ((dec.decode(ctxs, CTX_UNI) << 1) | dec.decode(ctxs, CTX_UNI)) as usize;
                mags[4 * i + r] |= 1 << plane;
                code_sign_dec(dec, ctxs, grid, i, r);
                grid.make_significant(i, r);
                todo = rows_after(r);
            }
            while todo != 0 {
                let r = lowest_row(todo);
                todo &= todo - 1;
                let m = byte(grid.cols[i].masks, r);
                if dec.decode(ctxs, zc[m as usize] as usize) == 1 {
                    code_sign_dec(dec, ctxs, grid, i, r);
                    grid.make_significant(i, r);
                    mags[4 * i + r] |= 1 << plane;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[i32], w: usize, h: usize, kind: BandKind) {
        let blk = encode_block(data, w, h, kind);
        let got = decode_block(
            &blk.data,
            &blk.pass_ends,
            blk.passes.len(),
            w,
            h,
            kind,
            blk.num_planes,
            false,
        );
        assert_eq!(got, data, "{w}x{h} {kind:?}");
    }

    fn pseudo(n: usize, seed: u32, spread: i32) -> Vec<i32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 10) as i32 % (2 * spread + 1)) - spread
            })
            .collect()
    }

    #[test]
    fn zero_block_is_empty() {
        let blk = encode_block(&[0; 16], 4, 4, BandKind::LlLh);
        assert_eq!(blk.num_planes, 0);
        assert!(blk.data.is_empty());
        assert!(blk.passes.is_empty());
        let got = decode_block(&[], &[], 0, 4, 4, BandKind::LlLh, 0, false);
        assert_eq!(got, vec![0; 16]);
    }

    #[test]
    fn empty_geometry_decodes_to_nothing() {
        for (w, h) in [(0usize, 5usize), (5, 0), (0, 0)] {
            let got = decode_block(&[0x12, 0x34], &[2], 1, w, h, BandKind::LlLh, 3, false);
            assert!(got.is_empty(), "{w}x{h}");
        }
    }

    #[test]
    fn single_coefficient() {
        for v in [1i32, -1, 2, -7, 255, -256] {
            let mut data = vec![0i32; 16];
            data[5] = v;
            roundtrip(&data, 4, 4, BandKind::Hh);
        }
    }

    #[test]
    fn roundtrip_various_shapes() {
        for (w, h) in [
            (4usize, 4usize),
            (8, 8),
            (5, 7),
            (1, 9),
            (9, 1),
            (3, 4),
            (64, 64),
        ] {
            for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
                let data = pseudo(w * h, (w * 31 + h) as u32, 100);
                roundtrip(&data, w, h, kind);
            }
        }
    }

    #[test]
    fn roundtrip_sparse_blocks() {
        // Mostly zeros: exercises run-length coding heavily.
        let mut data = vec![0i32; 32 * 32];
        for i in (0..data.len()).step_by(97) {
            data[i] = ((i as i32 % 13) - 6) * 3;
        }
        roundtrip(&data, 32, 32, BandKind::LlLh);
    }

    #[test]
    fn roundtrip_dense_large_values() {
        let data = pseudo(32 * 32, 99, 30_000);
        roundtrip(&data, 32, 32, BandKind::Hl);
    }

    #[test]
    fn pass_structure_is_3n_minus_2() {
        let data = pseudo(16 * 16, 5, 100);
        let blk = encode_block(&data, 16, 16, BandKind::LlLh);
        assert!(blk.num_planes > 0);
        assert_eq!(blk.passes.len(), 3 * blk.num_planes as usize - 2);
        assert_eq!(blk.passes[0].pass_type, PassType::Cleanup);
        if blk.passes.len() > 1 {
            assert_eq!(blk.passes[1].pass_type, PassType::SigProp);
            assert_eq!(blk.passes[2].pass_type, PassType::MagRef);
        }
        // Rates are cumulative and non-decreasing; ends match data length.
        for w in blk.passes.windows(2) {
            assert!(w[1].rate_bytes >= w[0].rate_bytes);
        }
        assert_eq!(*blk.pass_ends.last().unwrap(), blk.data.len());
    }

    #[test]
    fn truncated_decode_is_exact_prefix() {
        // Dropping trailing passes must reproduce exactly the coefficients
        // implied by the included planes (no corruption of earlier planes).
        let data = pseudo(16 * 16, 1234, 500);
        let blk = encode_block(&data, 16, 16, BandKind::LlLh);
        let total = blk.passes.len();
        for keep in [1usize, 2, total / 2, total - 1, total] {
            let keep = keep.clamp(1, total);
            let bytes = blk.bytes_for_passes(keep);
            let got = decode_block(
                &blk.data[..bytes],
                &blk.pass_ends[..keep],
                keep,
                16,
                16,
                BandKind::LlLh,
                blk.num_planes,
                false,
            );
            // Every decoded magnitude must be a prefix (high planes) of the
            // true magnitude, and the full decode must be exact.
            for (g, &t) in got.iter().zip(&data) {
                let (gm, tm) = (g.unsigned_abs(), t.unsigned_abs());
                assert!(gm <= tm, "keep={keep}: {gm} > {tm}");
                if keep == total {
                    assert_eq!(*g, t);
                }
                if gm > 0 {
                    assert_eq!(g.signum(), t.signum());
                }
            }
        }
    }

    #[test]
    fn midpoint_reconstruction_reduces_error() {
        let data = pseudo(16 * 16, 777, 1000);
        let blk = encode_block(&data, 16, 16, BandKind::Hh);
        let keep = blk.passes.len() / 2;
        let bytes = blk.bytes_for_passes(keep);
        let err = |v: &[i32]| -> f64 {
            v.iter()
                .zip(&data)
                .map(|(g, t)| ((g - t) as f64).powi(2))
                .sum()
        };
        let plain = decode_block(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            false,
        );
        let mid = decode_block(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            true,
        );
        assert!(
            err(&mid) <= err(&plain),
            "midpoint {} plain {}",
            err(&mid),
            err(&plain)
        );
    }

    #[test]
    fn distortion_estimates_decrease_with_plane() {
        let data = pseudo(32 * 32, 4242, 2000);
        let blk = encode_block(&data, 32, 32, BandKind::LlLh);
        // Cleanup of the top plane must claim more distortion reduction
        // than the cleanup of the bottom plane.
        let first = &blk.passes[0];
        let last = blk
            .passes
            .iter()
            .rev()
            .find(|p| p.pass_type == PassType::Cleanup)
            .unwrap();
        assert!(first.dist_reduction > last.dist_reduction);
        assert!(blk.total_symbols() > 0);
    }

    #[test]
    fn compresses_structured_data() {
        // A smooth gradient block should code well below 16 bits/sample.
        let mut data = vec![0i32; 64 * 64];
        for y in 0..64 {
            for x in 0..64 {
                data[y * 64 + x] = (x as i32 - 32) * 2;
            }
        }
        let blk = encode_block(&data, 64, 64, BandKind::LlLh);
        assert!(blk.data.len() < 64 * 64 * 2 / 4, "{} bytes", blk.data.len());
    }

    #[test]
    fn bypass_roundtrip_various() {
        for (w, h, spread) in [(16usize, 16usize, 30_000i32), (8, 8, 500), (33, 17, 4_000)] {
            for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
                let data = pseudo(w * h, (w + h) as u32 * 7 + 1, spread);
                let blk = encode_block_opts(&data, w, h, kind, true);
                let got = decode_block_opts(
                    &blk.data,
                    &blk.pass_ends,
                    blk.passes.len(),
                    w,
                    h,
                    kind,
                    blk.num_planes,
                    false,
                    true,
                );
                assert_eq!(got, data, "{w}x{h} {kind:?}");
            }
        }
    }

    #[test]
    fn bypass_reduces_mq_symbols() {
        // Bypass converts deep-plane SPP/MRP decisions to raw bits, which
        // are cheaper; total MQ decisions must drop (raw bits counted as
        // symbols too, but the point is the segments stay decodable and
        // the stream only grows slightly).
        let data = pseudo(32 * 32, 321, 20_000);
        let mq = encode_block_opts(&data, 32, 32, BandKind::LlLh, false);
        let raw = encode_block_opts(&data, 32, 32, BandKind::LlLh, true);
        assert_eq!(mq.passes.len(), raw.passes.len());
        // The raw stream costs at most ~15% more bytes.
        assert!(
            (raw.data.len() as f64) < mq.data.len() as f64 * 1.15,
            "raw {} vs mq {}",
            raw.data.len(),
            mq.data.len()
        );
    }

    #[test]
    fn bypass_rule_matches_standard() {
        // First four coded planes always use the MQ coder; deeper SPP/MRP
        // go raw; cleanup never does.
        assert!(!pass_is_raw(true, PassType::SigProp, 8, 12));
        assert!(!pass_is_raw(true, PassType::SigProp, 9, 12));
        assert!(pass_is_raw(true, PassType::SigProp, 7, 12));
        assert!(pass_is_raw(true, PassType::MagRef, 0, 12));
        assert!(!pass_is_raw(true, PassType::Cleanup, 0, 12));
        assert!(!pass_is_raw(false, PassType::SigProp, 0, 12));
    }

    #[test]
    fn bypass_truncation_still_exact_prefix() {
        let data = pseudo(16 * 16, 99, 9_000);
        let blk = encode_block_opts(&data, 16, 16, BandKind::Hh, true);
        let keep = blk.passes.len() / 2;
        let bytes = blk.bytes_for_passes(keep);
        let got = decode_block_opts(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            false,
            true,
        );
        for (g, t) in got.iter().zip(&data) {
            assert!(g.unsigned_abs() <= t.unsigned_abs());
        }
    }

    #[test]
    fn all_negative_block() {
        let data = vec![-5i32; 8 * 8];
        roundtrip(&data, 8, 8, BandKind::Hl);
    }

    #[test]
    fn alternating_signs() {
        let data: Vec<i32> = (0..64).map(|i| if i % 2 == 0 { 9 } else { -9 }).collect();
        roundtrip(&data, 8, 8, BandKind::LlLh);
    }
}
