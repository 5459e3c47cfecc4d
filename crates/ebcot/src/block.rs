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
    initial_contexts, mr_context, sign_table, zc_table, CTX_MAG0, CTX_RL, CTX_UNI, NB_E, NB_N,
    NB_NE, NB_NW, NB_S, NB_SE, NB_SW, NB_W,
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

/// Row `r` of a column word, as its `SIG` bit.
#[inline]
fn row(r: usize) -> u32 {
    (SIG as u32) << (8 * r)
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

/// The bits a sample sets in the rows above, beside and below it in one
/// column, as a multiplier: `rows as u64 * rows3(..)`, for a set of `SIG`
/// bits, is a word over rows -1..=4 with row -1 in byte 0 (row 3 of the
/// stripe above), bytes 1..=4 the stripe and byte 5 row 0 of the stripe
/// below. The three bit sets are disjoint, so the rows' copies never carry
/// into each other and the product is their OR.
const fn rows3(above: u8, level: u8, below: u8) -> u64 {
    above as u64 | (level as u64) << 8 | (below as u64) << 16
}

/// State of one stripe column: four vertically adjacent samples, row `r`
/// of the stripe in byte `r` of each word, so a pass can test the whole
/// column with one compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Column {
    /// Per-sample `SIG`/`VISITED`/`REFINED`/`NEG` flags in bits 0..3;
    /// bits 4..7 hold the `NB_W`/`NB_E`/`NB_N`/`NB_S` bits, shifted up
    /// by 4, of the direct neighbors that are significant and negative.
    flags: u32,
    /// Per-sample neighbor mask: the `NB_*` bits of the significant
    /// neighbors, which index the zero-coding tables directly.
    masks: u32,
}

impl Column {
    /// Set the samples `rows` (`SIG` bits) significant within the column:
    /// their `SIG` flags, `NB_S` in the mask of the row above each and
    /// `NB_N` in the row below, and for a negative sample the same bits,
    /// shifted up by 4, in those rows' sign nibbles. `NEG` must be set
    /// first. The bits for the stripes above and below, and for the
    /// columns beside, are [`Grid::make_significant_rows`]'s.
    #[inline]
    fn set_significant(&mut self, rows: u32) {
        let neg = rows & (self.flags >> 3);
        self.flags |= rows | ((neg >> 8) * (NB_S << 4) as u32) | ((neg << 8) * (NB_N << 4) as u32);
        self.masks |= ((rows >> 8) * NB_S as u32) | ((rows << 8) * NB_N as u32);
    }

    /// The masks and sign nibbles the samples are coded with when the
    /// samples `new` become significant in scan order: a new sample's
    /// `NB_N` bit (and sign) reaches the row below it before that row is
    /// coded, while the row above was coded before it.
    #[inline]
    fn coding_view(self, new: u32) -> (u32, u32) {
        let neg = new & (self.flags >> 3);
        (
            self.masks | ((new << 8) * NB_N as u32),
            self.flags | ((neg << 8) * (NB_N << 4) as u32),
        )
    }

    /// Sign-coding (context, xor) of row `r`, one [`sign_table`] lookup
    /// on its direct neighbors' mask and sign bits.
    #[inline]
    fn sign_context(self, r: usize) -> (u8, u8) {
        sign_lookup(byte(self.masks, r), byte(self.flags, r))
    }
}

/// [`sign_table`] entry of a sample with mask `mask` and flag byte `flags`.
#[inline]
fn sign_lookup(mask: u8, flags: u8) -> (u8, u8) {
    sign_table()[((mask & 0x0F) | (flags & 0xF0)) as usize]
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

    /// Set the samples `rows` (`SIG` bits) of column `i` significant:
    /// [`Column::set_significant`] within the column, each sample's bit in
    /// the masks of its neighbors in columns `i - 1` and `i + 1` and in the
    /// stripes above and below, and for a negative sample its sign in its
    /// direct neighbors' sign nibbles there. `NEG` must be set first. Every
    /// update is an OR, so this equals setting each sample significant on
    /// its own, in any order.
    #[inline]
    fn make_significant_rows(&mut self, i: usize, rows: u32) {
        let stride = self.stride;
        // Columns i - 1 ..= i + 1 of the stripes above, this and below.
        let win = &mut self.cols[i - stride - 1..i + stride + 2];
        let mid = stride + 1;
        win[mid].set_significant(rows);
        let neg = rows & (win[mid].flags >> 3);
        for (j, nb, sign) in [
            (mid - 1, rows3(NB_SE, NB_E, NB_NE), NB_E << 4),
            (mid, rows3(NB_S, 0, NB_N), 0),
            (mid + 1, rows3(NB_SW, NB_W, NB_NW), NB_W << 4),
        ] {
            let word = rows as u64 * nb;
            win[j - stride].masks |= (word as u32 & 0xFF) << 24;
            win[j].masks |= (word >> 8) as u32;
            win[j + stride].masks |= (word >> 40) as u32;
            win[j].flags |= neg * sign as u32;
        }
        let vertical = neg as u64 * rows3(NB_S << 4, 0, NB_N << 4);
        win[mid - stride].flags |= (vertical as u32 & 0xFF) << 24;
        win[mid + stride].flags |= (vertical >> 40) as u32;
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
///
/// The bit modeler ([`model_block`]) collects every pass's decisions,
/// and the coder codes each pass in one loop: through the MQ coder, or
/// for a raw pass as bare bits. Either way the pass's `symbols` are its
/// decisions. This is [`encode_block_pair`] for one block.
pub fn encode_block_opts(
    data: &[i32],
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
) -> EncodedBlock {
    let m = Modeled::new(data, w, h, kind, bypass);
    BlockLane::new(&m).finish()
}

/// [`encode_block_opts`] of two blocks, each `(data, w, h, kind)`, with
/// the same bytes and bookkeeping, field for field, as two single calls.
///
/// The two blocks' MQ passes run through [`MqEncoder::encode_lanes`]:
/// the blocks are independent, so their decisions are coded side by side
/// in one loop, and each block's coder is flushed at its own pass ends.
/// A raw pass is coded when its block reaches it. Once one block has no
/// MQ decisions left, the other codes the rest on its own.
pub fn encode_block_pair(
    blocks: [(&[i32], usize, usize, BandKind); 2],
    bypass: bool,
) -> [EncodedBlock; 2] {
    let [a, b] = blocks.map(|(data, w, h, kind)| Modeled::new(data, w, h, kind, bypass));
    let (mut x, mut y) = (BlockLane::new(&a), BlockLane::new(&b));
    while let (Some(dx), Some(dy)) = (x.front(), y.front()) {
        let n =
            MqEncoder::encode_lanes((&mut x.enc, &mut x.ctxs, dx), (&mut y.enc, &mut y.ctxs, dy));
        x.at += n;
        y.at += n;
    }
    [x.finish(), y.finish()]
}

/// One pass of a [`Modeled`] block: what its bookkeeping needs.
struct PassRecord {
    pass_type: PassType,
    plane: u8,
    raw: bool,
    /// [`PassModel::coded`].
    coded: u32,
    /// The pass's decisions in [`Modeled::decisions`].
    len: usize,
}

/// A block's passes as [`model_block`] hands them over, every pass's
/// decisions in one buffer, in coding order.
struct Modeled {
    w: usize,
    h: usize,
    num_planes: u8,
    decisions: Vec<u8>,
    passes: Vec<PassRecord>,
}

impl Modeled {
    fn new(data: &[i32], w: usize, h: usize, kind: BandKind, bypass: bool) -> Modeled {
        let (mut decisions, mut passes) = (Vec::new(), Vec::new());
        let num_planes = model_block(data, w, h, kind, bypass, |p| {
            decisions.extend_from_slice(p.decisions);
            passes.push(PassRecord {
                pass_type: p.pass_type,
                plane: p.plane,
                raw: p.raw,
                coded: p.coded,
                len: p.decisions.len(),
            });
        });
        Modeled {
            w,
            h,
            num_planes,
            decisions,
            passes,
        }
    }
}

/// One block on its way through the coder: its contexts, MQ coder and
/// output, and how far through its passes it is.
struct BlockLane<'m> {
    m: &'m Modeled,
    ctxs: Contexts,
    enc: MqEncoder,
    blk: EncodedBlock,
    /// The open pass.
    pass: usize,
    /// Its decisions left to code are `m.decisions[at..end]`.
    at: usize,
    end: usize,
}

impl<'m> BlockLane<'m> {
    fn new(m: &'m Modeled) -> Self {
        BlockLane {
            m,
            ctxs: initial_contexts(),
            enc: MqEncoder::new(),
            blk: EncodedBlock {
                data: Vec::new(),
                pass_ends: Vec::with_capacity(m.passes.len()),
                passes: Vec::with_capacity(m.passes.len()),
                num_planes: m.num_planes,
                w: m.w,
                h: m.h,
            },
            pass: 0,
            at: 0,
            end: m.passes.first().map_or(0, |p| p.len),
        }
    }

    /// The open MQ pass's decisions left to code, after ending every pass
    /// before it that is raw or coded in full (`None` once every pass has
    /// ended). Ending a pass codes a raw pass's bits or flushes the MQ
    /// coder, then does its bookkeeping.
    fn front(&mut self) -> Option<&'m [u8]> {
        let m = self.m;
        while let Some(p) = m.passes.get(self.pass) {
            let todo = &m.decisions[self.at..self.end];
            if !p.raw && !todo.is_empty() {
                return Some(todo);
            }
            if p.raw {
                let mut raw = RawEncoder::new();
                for &d in todo {
                    raw.put(d & 1);
                }
                self.blk.data.extend_from_slice(&raw.finish());
            } else {
                self.enc.flush_into(&mut self.blk.data);
            }
            // `count * d` equals the sum of `count` copies of `d` exactly,
            // as every partial sum is a small multiple of a power of two.
            let d = match p.pass_type {
                PassType::MagRef => d_ref(p.plane),
                _ => d_sig(p.plane),
            };
            self.blk.pass_ends.push(self.blk.data.len());
            self.blk.passes.push(PassInfo {
                pass_type: p.pass_type,
                plane: p.plane,
                rate_bytes: self.blk.data.len(),
                dist_reduction: p.coded as f64 * d,
                symbols: p.len as u64,
            });
            self.pass += 1;
            self.at = self.end;
            self.end += m.passes.get(self.pass).map_or(0, |p| p.len);
        }
        None
    }

    /// Code every pass left on this block's own.
    fn finish(mut self) -> EncodedBlock {
        while let Some(todo) = self.front() {
            self.enc.encode_decisions(&mut self.ctxs, todo);
            self.at = self.end;
        }
        self.blk
    }
}

/// One coding pass as the bit modeler hands it to a coder.
pub struct PassModel<'a> {
    /// Pass type.
    pub pass_type: PassType,
    /// Bit-plane index (0 = least significant).
    pub plane: u8,
    /// Raw-coded under selective bypass ([`pass_is_raw`]): each
    /// decision's bit goes out as it is, and a sign decision is the sign
    /// itself rather than its agreement with the predicted sign.
    pub raw: bool,
    /// The pass's decisions in coding order, `(cx << 1) | d` each: the
    /// context label (`context`'s 0..=18) and the decision bit.
    pub decisions: &'a [u8],
    /// Samples the pass made significant, or for magnitude refinement
    /// the samples it refined.
    pub coded: u32,
    grid: &'a Grid,
}

impl PassModel<'_> {
    /// Significance state after the pass, one `(flags, masks)` pair per
    /// stripe column: `w + 2` columns per stripe (a dummy column on each
    /// side) and one dummy stripe above and below the block. Byte `r` of
    /// each word is row `r` of the stripe: flag bits 0..3 are significant,
    /// visited, refined and negative, bits 4..7 the `NB_W`/`NB_E`/`NB_N`/
    /// `NB_S` bits, shifted up by 4, of its significant negative direct
    /// neighbors; the mask byte holds the `NB_*` bits of its significant
    /// neighbors.
    pub fn columns(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.grid.cols.iter().map(|c| (c.flags, c.masks))
    }
}

/// The bit modeler of [`encode_block_opts`]: compute every coding pass's
/// decisions, most significant plane first, and hand each pass to `pass`.
/// Returns the block's coded magnitude bit-planes (0 for an all-zero
/// block, which has no passes).
///
/// Each pass walks the block one stripe column at a time. From the
/// column's state and the plane's four magnitude bits it settles the
/// samples the pass codes and those that become significant at once,
/// writes their decisions with predicated stores, and updates the
/// neighbors of the new significant samples in one step at the end of
/// the column.
pub fn model_block(
    data: &[i32],
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
    mut pass: impl FnMut(&PassModel<'_>),
) -> u8 {
    assert_eq!(data.len(), w * h, "block data size");
    // The OR of the magnitudes has the same top bit as their maximum.
    let any = data.iter().fold(0u32, |acc, v| acc | v.unsigned_abs());
    let num_planes = (32 - any.leading_zeros()) as u8;
    if num_planes == 0 {
        return 0;
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
    let mut bits = vec![0u32; grid.cols.len()];
    // A cleanup column codes at most ten decisions, every other column
    // step fewer.
    let mut out = PassBuf::new(10 * w * grid.stripes());

    for plane in (0..num_planes).rev() {
        let first = plane == num_planes - 1;
        let passes: &[PassType] = if first {
            &[PassType::Cleanup]
        } else {
            &[PassType::SigProp, PassType::MagRef, PassType::Cleanup]
        };
        plane_bits(&mags, plane, &mut bits);
        for &pt in passes {
            let raw = pass_is_raw(bypass, pt, plane, num_planes);
            out.len = 0;
            let coded = match pt {
                PassType::SigProp => sig_prop_walk(&mut grid, &bits, zc, raw, &mut out),
                PassType::MagRef => mag_ref_walk(&mut grid, &bits, &mut out),
                PassType::Cleanup => cleanup_walk(&mut grid, &bits, zc, &mut out),
            };
            if pt == PassType::Cleanup {
                grid.clear_visited();
            }
            pass(&PassModel {
                pass_type: pt,
                plane,
                raw,
                decisions: &out.buf[..out.len],
                coded,
                grid: &grid,
            });
        }
    }
    num_planes
}

/// Bit `plane` of every sample: per stripe column, one word with each
/// row's bit at its `SIG` position.
fn plane_bits(mags: &[u32], plane: u8, bits: &mut [u32]) {
    for (b, m) in bits.iter_mut().zip(mags.chunks_exact(4)) {
        *b = (m[0] >> plane & 1)
            | (m[1] >> plane & 1) << 8
            | (m[2] >> plane & 1) << 16
            | (m[3] >> plane & 1) << 24;
    }
}

/// One pass's decisions, `(cx << 1) | d` each, in coding order.
///
/// A column step writes its decisions with predicated stores: each
/// candidate decision is stored at the next free byte, which moves on
/// only when the sample is coded, so a later decision overwrites one
/// that was not. The step works on an 8-byte window, and the buffer keeps
/// 8 bytes to spare beyond the pass's bound.
struct PassBuf {
    buf: Vec<u8>,
    len: usize,
}

impl PassBuf {
    fn new(bound: usize) -> Self {
        PassBuf {
            buf: vec![0; bound + 8],
            len: 0,
        }
    }

    /// The 8 bytes from the next free one.
    #[inline]
    fn window(&mut self) -> &mut [u8; 8] {
        (&mut self.buf[self.len..self.len + 8])
            .try_into()
            .expect("an 8-byte range")
    }

    #[inline]
    fn push(&mut self, cx: usize, d: u8) {
        self.buf[self.len] = (cx as u8) << 1 | d;
        self.len += 1;
    }

    /// Byte `r` of `decisions` for each row `r` of `rows`, in row order.
    #[inline]
    fn rows(&mut self, decisions: u32, rows: u32) {
        let out = self.window();
        let mut k = 0;
        for r in 0..4 {
            out[k & 7] = byte(decisions, r);
            k += byte(rows, r) as usize;
        }
        self.len += k;
    }

    /// The decisions of one stripe column of a significance or cleanup
    /// step: for each row of `coded` in turn its zero-coding decision and,
    /// if it is in `signed`, its sign decision. The contexts come from
    /// `c` as seen with the samples `new` turning significant in scan
    /// order; `xor` is 1 to code each sign against its predicted sign.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn zc_column(
        &mut self,
        zc: &[u8; 256],
        c: Column,
        bits: u32,
        coded: u32,
        new: u32,
        signed: u32,
        xor: u8,
    ) {
        let (masks, flags) = c.coding_view(new);
        let out = self.window();
        let mut k = 0;
        for r in 0..4 {
            let m = byte(masks, r);
            out[k & 7] = zc[m as usize] << 1 | byte(bits, r);
            k += byte(coded, r) as usize;
            let (cx, flip) = sign_lookup(m, byte(flags, r));
            out[k & 7] = cx << 1 | u8::from(byte(flags, r) & NEG != 0) ^ (flip & xor);
            k += byte(signed, r) as usize;
        }
        self.len += k;
    }
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

/// Significance propagation: every insignificant sample with a
/// significant neighbor. Returns the samples that became significant.
fn sig_prop_walk(
    grid: &mut Grid,
    bits: &[u32],
    zc: &[u8; 256],
    raw: bool,
    out: &mut PassBuf,
) -> u32 {
    // A raw pass codes each sign as it is.
    let xor = u8::from(!raw);
    let mut newly = 0;
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            // VISITED is clear before this pass, so the insignificant rows
            // are those without SIG.
            let insig = live & !c.flags;
            let mut coded = sig_prop_set(c) & live;
            if coded == 0 {
                continue;
            }
            let b = bits[i];
            // A sample that becomes significant brings the insignificant
            // one below it into the pass: three steps reach down a column.
            coded |= ((coded & b) << 8) & insig;
            coded |= ((coded & b) << 8) & insig;
            coded |= ((coded & b) << 8) & insig;
            let new = coded & b;
            out.zc_column(zc, c, b, coded, new, new, xor);
            // VISITED is bit 1.
            grid.cols[i].flags |= coded << 1;
            if new != 0 {
                grid.make_significant_rows(i, new);
                newly += new.count_ones();
            }
        }
    }
    newly
}

/// Magnitude refinement: every significant sample that this plane's
/// significance propagation did not code. Returns the samples refined.
fn mag_ref_walk(grid: &mut Grid, bits: &[u32], out: &mut PassBuf) -> u32 {
    let mut refined = 0;
    for s in 0..grid.stripes() {
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            let coded = refine_set(c);
            if coded == 0 {
                continue;
            }
            // Context 16 after the first refinement, else 15 with a
            // significant neighbor and 14 without (`mr_context`).
            let again = (c.flags >> 2) & all4(SIG);
            let cx = all4(CTX_MAG0 as u8) + 2 * again + (nonzero_bytes(c.masks) & !again);
            out.rows(cx << 1 | bits[i], coded);
            // REFINED is bit 2.
            grid.cols[i].flags |= coded << 2;
            refined += coded.count_ones();
        }
    }
    refined
}

/// Cleanup: every sample neither significant nor coded by this plane's
/// significance propagation. Returns the samples that became significant.
fn cleanup_walk(grid: &mut Grid, bits: &[u32], zc: &[u8; 256], out: &mut PassBuf) -> u32 {
    let mut newly = 0;
    for s in 0..grid.stripes() {
        let live = first_rows(grid.rows(s));
        for i in grid.stripe(s) {
            let c = grid.cols[i];
            let mut coded = cleanup_set(c) & live;
            if coded == 0 {
                continue;
            }
            let b = bits[i];
            let mut new = 0;
            // Run mode: a full stripe column, all four uncoded and without
            // a significant neighbor (zero-coding context 0).
            if coded == all4(SIG) && c.masks == 0 {
                if b == 0 {
                    out.push(CTX_RL, 0);
                    continue;
                }
                let r = lowest_row(b);
                out.push(CTX_RL, 1);
                out.push(CTX_UNI, (r >> 1) as u8);
                out.push(CTX_UNI, (r & 1) as u8);
                let (cx, flip) = c.sign_context(r);
                out.push(cx as usize, u8::from(byte(c.flags, r) & NEG != 0) ^ flip);
                new = row(r);
                coded = rows_after(r);
            }
            new |= coded & b;
            out.zc_column(zc, c, b, coded, new, new & coded, 1);
            if new != 0 {
                grid.make_significant_rows(i, new);
                newly += new.count_ones();
            }
        }
    }
    newly
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Decode the sign of row `r` of `c` and set the sample significant
/// within the column.
fn decode_sign(dec: &mut MqDecoder<'_>, ctxs: &mut Contexts, c: &mut Column, r: usize) {
    let (cx, xor) = c.sign_context(r);
    let neg = dec.decode(ctxs, cx as usize) ^ xor;
    c.flags |= (neg as u32) << (8 * r + 3);
    c.set_significant(row(r));
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

// The significance and cleanup decoders keep the column word in a local
// and apply each new significance's in-column updates there; the rest of
// its updates wait for one `make_significant_rows` at the end of the
// column. That is exact: the column before and the stripe above were
// visited already, and the column after and the stripe below come later.

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
            let mut c = grid.cols[i];
            if sig_prop_set(c) & live == 0 {
                continue;
            }
            // A sample that becomes significant can bring the one below it
            // into the pass, so the column is tested again after each row.
            let (mut left, mut new) = (live, 0);
            loop {
                let todo = sig_prop_set(c) & left;
                if todo == 0 {
                    break;
                }
                let r = lowest_row(todo);
                left &= rows_after(r);
                let bit = dec.decode(ctxs, zc[byte(c.masks, r) as usize] as usize);
                c.flags |= (VISITED as u32) << (8 * r);
                if bit == 1 {
                    decode_sign(dec, ctxs, &mut c, r);
                    mags[4 * i + r] |= 1 << plane;
                    new |= row(r);
                }
            }
            grid.cols[i] = c;
            if new != 0 {
                grid.make_significant_rows(i, new);
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
            let mut c = grid.cols[i];
            if sig_prop_set(c) & live == 0 {
                continue;
            }
            let (mut left, mut new) = (live, 0);
            loop {
                let todo = sig_prop_set(c) & left;
                if todo == 0 {
                    break;
                }
                let r = lowest_row(todo);
                left &= rows_after(r);
                let bit = dec.get();
                c.flags |= (VISITED as u32) << (8 * r);
                if bit == 1 {
                    c.flags |= (dec.get() as u32) << (8 * r + 3);
                    c.set_significant(row(r));
                    mags[4 * i + r] |= 1 << plane;
                    new |= row(r);
                }
            }
            grid.cols[i] = c;
            if new != 0 {
                grid.make_significant_rows(i, new);
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
            let mut c = grid.cols[i];
            let mut todo = cleanup_set(c) & live;
            if todo == 0 {
                continue;
            }
            let mut new = 0;
            if todo == all4(SIG) && c.masks == 0 {
                if dec.decode(ctxs, CTX_RL) == 0 {
                    continue;
                }
                let r = ((dec.decode(ctxs, CTX_UNI) << 1) | dec.decode(ctxs, CTX_UNI)) as usize;
                decode_sign(dec, ctxs, &mut c, r);
                mags[4 * i + r] |= 1 << plane;
                new = row(r);
                todo = rows_after(r);
            }
            while todo != 0 {
                let r = lowest_row(todo);
                todo &= todo - 1;
                if dec.decode(ctxs, zc[byte(c.masks, r) as usize] as usize) == 1 {
                    decode_sign(dec, ctxs, &mut c, r);
                    mags[4 * i + r] |= 1 << plane;
                    new |= row(r);
                }
            }
            if new != 0 {
                grid.cols[i] = c;
                grid.make_significant_rows(i, new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-sample update `make_significant_rows` replaced: sample `r`
    /// of column `i` significant, its bit in its eight neighbors' masks,
    /// and a negative sample's sign in its four direct neighbors' sign
    /// nibbles.
    fn make_significant_one(g: &mut Grid, i: usize, r: usize) {
        g.cols[i].flags |= (SIG as u32) << (8 * r);
        let rows3 = |above: u8, level: u8, below: u8| -> u64 {
            (above as u64 | (level as u64) << 8 | (below as u64) << 16) << (8 * r)
        };
        let stride = g.stride;
        for (j, word) in [
            (i - 1, rows3(NB_SE, NB_E, NB_NE)),
            (i, rows3(NB_S, 0, NB_N)),
            (i + 1, rows3(NB_SW, NB_W, NB_NW)),
        ] {
            g.cols[j - stride].masks |= (word as u32 & 0xFF) << 24;
            g.cols[j].masks |= (word >> 8) as u32;
            g.cols[j + stride].masks |= (word >> 40) as u32;
        }
        let neg = (g.cols[i].flags >> (8 * r + 3)) & 1;
        let level = |bit: u8| ((bit as u32) << (8 * r + 4)) * neg;
        g.cols[i - 1].flags |= level(NB_E);
        g.cols[i + 1].flags |= level(NB_W);
        let vertical = rows3(NB_S << 4, 0, NB_N << 4) * neg as u64;
        g.cols[i - stride].flags |= (vertical as u32 & 0xFF) << 24;
        g.cols[i].flags |= (vertical >> 8) as u32;
        g.cols[i + stride].flags |= (vertical >> 40) as u32;
    }

    /// A grid whose every word, dummies included, holds seeded bits, so
    /// an update that clears or overwrites anything shows.
    fn noisy_grid(w: usize, h: usize, seed: u32) -> Grid {
        let mut g = Grid::new(w, h);
        let mut x = seed | 1;
        for c in &mut g.cols {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // Sparse bits: mostly clear, so the ORs have room to show.
            c.flags = x & x.rotate_left(11) & x.rotate_left(23);
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            c.masks = x & x.rotate_left(13) & x.rotate_left(19);
        }
        g
    }

    #[test]
    fn make_significant_rows_equals_per_sample_updates() {
        let mut checked = 0;
        // 5x10 and 3x7 end in a partial stripe (2 and 3 rows); a width of
        // 1 makes every column an edge column.
        for (w, h) in [(5usize, 10usize), (3, 7), (1, 4)] {
            for s in 0..h.div_ceil(4) {
                let rows = (h - 4 * s).min(4);
                for x in [0, w / 2, w - 1] {
                    for set in 1u32..16 {
                        if set >> rows != 0 {
                            // Rows below the block are never coded.
                            continue;
                        }
                        for negs in 0u32..16 {
                            let seed = (set << 8 | negs << 4 | x as u32) ^ (s as u32) << 16;
                            let (mut a, mut b) = (noisy_grid(w, h, seed), noisy_grid(w, h, seed));
                            let i = a.idx(s, x);
                            let mut word = 0;
                            for r in (0..4).filter(|r| set >> r & 1 == 1) {
                                word |= row(r);
                                // NEG is set before a sample becomes significant.
                                let neg = (negs >> r & 1) << (8 * r + 3);
                                a.cols[i].flags = a.cols[i].flags & !(1 << (8 * r + 3)) | neg;
                                b.cols[i].flags = b.cols[i].flags & !(1 << (8 * r + 3)) | neg;
                            }
                            a.make_significant_rows(i, word);
                            for r in (0..4).filter(|r| set >> r & 1 == 1) {
                                make_significant_one(&mut b, i, r);
                            }
                            assert_eq!(
                                a.cols, b.cols,
                                "{w}x{h} stripe {s} column {x} rows {set:04b} negative {negs:04b}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked}");
    }

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
