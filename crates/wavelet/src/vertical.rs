//! Vertical (column) filtering with the paper's three loop schedules.
//!
//! All variants compute the same transform: columns of the region are
//! filtered, and the result is stored *split* — low-pass rows in the top
//! half `[0, nl)`, high-pass rows in the bottom half `[nl, h)`.
//!
//! * [`VerticalVariant::Separate`] — Algorithm 1: an explicit split pass
//!   followed by one pass per lifting step (and a scaling pass for 9/7).
//! * [`VerticalVariant::Interleaved`] — Algorithm 2: an explicit split pass
//!   followed by a single fused pass that software-pipelines all lifting
//!   steps.
//! * [`VerticalVariant::Merged`] — the split is folded into the fused pass.
//!   Writing the high rows in place would overwrite interleaved input rows
//!   that are still needed (Figure 3), so high rows are staged through an
//!   auxiliary buffer and copied back at the end.
//!
//! Outputs are **bit-identical** across variants (asserted by tests): every
//! coefficient undergoes the same arithmetic on the same operand values; only
//! the loop schedule differs. This is the paper's implicit correctness
//! criterion for Algorithm 2 and the merged loop.

use crate::consts::{ALPHA, BETA, DELTA, GAMMA, INV_K, K};
use crate::fixed::{ALPHA_Q13, BETA_Q13, DELTA_Q13, GAMMA_Q13, INV_K_Q13, K_Q13};
use crate::rowops::{self, Region, Rows};
use crate::{high_len, low_len};
use xpart::AlignedPlane;

/// Column-group width (elements) for cache-blocked vertical passes.
///
/// The paper sizes its column group for the Cell's 128-byte PPE cache lines /
/// DMA granularity; on this x86-64 host the cache line is 64 bytes (16 i32 or
/// f32 elements), so the group only needs to be a multiple of 16 to avoid
/// split lines. The fused 9/7 pipeline keeps an 11-row sliding window, so a
/// group of 256 four-byte elements bounds the window at 11 KiB — comfortably
/// inside a 32 KiB L1D with room for the in-flight region rows. Measured per
/// kernel (1024^2 workload): sub-lane-starved 32-wide groups cost
/// ~1.8x (dwt53_vertical 2.6 vs 4.7 GB/s, dwt97_vertical 1.4 vs 2.7), while
/// 128..=1024 are within run-to-run noise of each other; 256 is the smallest
/// width on that plateau that still L1-bounds the window. See DESIGN.md
/// section 18.
pub const VERT_GROUP_DEFAULT: usize = 256;

/// Loop schedule of the vertical filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerticalVariant {
    /// Algorithm 1: split + one pass per lifting step.
    Separate,
    /// Algorithm 2: split + single fused lifting pass.
    Interleaved,
    /// Split folded into the fused pass via an auxiliary high-row buffer.
    Merged,
}

// ---------------------------------------------------------------------------
// Row splitting
// ---------------------------------------------------------------------------

/// Deinterleave rows in place: row `2i` -> `i`, row `2i+1` -> `nl + i`.
/// Uses an auxiliary buffer of `nh` rows (half the region).
pub fn split_rows<T: Copy + Default>(rows: &mut Rows<'_, T>) {
    let h = rows.height();
    let nl = low_len(h);
    let nh = high_len(h);
    if h < 2 {
        return;
    }
    let w = rows.width();
    let mut aux = vec![T::default(); nh * w];
    for i in 0..nh {
        aux[i * w..(i + 1) * w].copy_from_slice(rows.row(2 * i + 1));
    }
    for i in 1..nl {
        let (dst, src, _) = rows.dst_src2(i, 2 * i, 2 * i);
        dst.copy_from_slice(src);
    }
    for i in 0..nh {
        rows.row_mut(nl + i)
            .copy_from_slice(&aux[i * w..(i + 1) * w]);
    }
}

/// Interleave rows back: row `i` -> `2i`, row `nl + i` -> `2i + 1`.
pub fn unsplit_rows<T: Copy + Default>(rows: &mut Rows<'_, T>) {
    let h = rows.height();
    let nl = low_len(h);
    let nh = high_len(h);
    if h < 2 {
        return;
    }
    let w = rows.width();
    let mut aux = vec![T::default(); nh * w];
    for i in 0..nh {
        aux[i * w..(i + 1) * w].copy_from_slice(rows.row(nl + i));
    }
    for i in (1..nl).rev() {
        let (dst, src, _) = rows.dst_src2(2 * i, i, i);
        dst.copy_from_slice(src);
    }
    for i in 0..nh {
        rows.row_mut(2 * i + 1)
            .copy_from_slice(&aux[i * w..(i + 1) * w]);
    }
}

// ---------------------------------------------------------------------------
// Generic row I/O for the fused pipelines
// ---------------------------------------------------------------------------

/// Row source/sink abstraction for the fused pipelines. Implementations map
/// logical (even, odd, low, high) row indices to storage:
/// [`SplitIo`] works on an already-split layout in place (Interleaved);
/// [`MergedIo`] reads interleaved rows and stages highs in an aux buffer.
///
/// Loads copy into caller buffers and stores copy out of them — exactly the
/// DMA GET/PUT pattern an SPE uses against its Local Store.
trait VertIo<T> {
    fn load_even(&mut self, i: usize, buf: &mut [T]);
    fn load_odd(&mut self, i: usize, buf: &mut [T]);
    fn store_low(&mut self, i: usize, buf: &[T]);
    fn store_high(&mut self, i: usize, buf: &[T]);
    fn finish(&mut self);
}

/// In-place I/O over a split layout (lows at `[0, nl)`, highs at `[nl, h)`).
struct SplitIo<'a, 'b, T> {
    rows: &'a mut Rows<'b, T>,
    nl: usize,
}

impl<T: Copy + Default> VertIo<T> for SplitIo<'_, '_, T> {
    fn load_even(&mut self, i: usize, buf: &mut [T]) {
        buf.copy_from_slice(self.rows.row(i));
    }
    fn load_odd(&mut self, i: usize, buf: &mut [T]) {
        buf.copy_from_slice(self.rows.row(self.nl + i));
    }
    fn store_low(&mut self, i: usize, buf: &[T]) {
        self.rows.row_mut(i).copy_from_slice(buf);
    }
    fn store_high(&mut self, i: usize, buf: &[T]) {
        self.rows.row_mut(self.nl + i).copy_from_slice(buf);
    }
    fn finish(&mut self) {}
}

/// I/O over the *interleaved* layout: even row `i` is natural row `2i`, odd
/// row `i` is natural row `2i+1`; lows are written in place to rows
/// `[0, nl)` (always behind the read frontier), highs go to the auxiliary
/// buffer and are copied to `[nl, h)` at the end.
struct MergedIo<'a, 'b, T> {
    rows: &'a mut Rows<'b, T>,
    nl: usize,
    aux: Vec<T>,
    w: usize,
}

impl<'a, 'b, T: Copy + Default> MergedIo<'a, 'b, T> {
    fn new(rows: &'a mut Rows<'b, T>) -> Self {
        let h = rows.height();
        let w = rows.width();
        let nh = high_len(h);
        MergedIo {
            nl: low_len(h),
            aux: vec![T::default(); nh * w],
            w,
            rows,
        }
    }
}

impl<T: Copy + Default> VertIo<T> for MergedIo<'_, '_, T> {
    fn load_even(&mut self, i: usize, buf: &mut [T]) {
        buf.copy_from_slice(self.rows.row(2 * i));
    }
    fn load_odd(&mut self, i: usize, buf: &mut [T]) {
        buf.copy_from_slice(self.rows.row(2 * i + 1));
    }
    fn store_low(&mut self, i: usize, buf: &[T]) {
        debug_assert!(i < self.nl);
        self.rows.row_mut(i).copy_from_slice(buf);
    }
    fn store_high(&mut self, i: usize, buf: &[T]) {
        self.aux[i * self.w..(i + 1) * self.w].copy_from_slice(buf);
    }
    fn finish(&mut self) {
        let nh = self.aux.len() / self.w.max(1);
        for i in 0..nh {
            self.rows
                .row_mut(self.nl + i)
                .copy_from_slice(&self.aux[i * self.w..(i + 1) * self.w]);
        }
    }
}

// ---------------------------------------------------------------------------
// 5/3 vertical
// ---------------------------------------------------------------------------

/// Separate passes (Algorithm 1) over an already-split layout.
fn lift53_separate(rows: &mut Rows<'_, i32>) {
    let h = rows.height();
    let nl = low_len(h);
    let nh = high_len(h);
    // Predict pass: high[i] -= (low[i] + low[min(i+1, nl-1)]) >> 1.
    for i in 0..nh {
        let r = (i + 1).min(nl - 1);
        let (d, a, b) = rows.dst_src2(nl + i, i, r);
        rowops::predict53(d, a, b);
    }
    // Update pass: low[i] += (high[i-1|0] + high[min(i, nh-1)] + 2) >> 2.
    for i in 0..nl {
        let l = nl + i.saturating_sub(1).min(nh - 1);
        let r = nl + i.min(nh - 1);
        let (d, a, b) = rows.dst_src2(i, l, r);
        rowops::update53(d, a, b);
    }
}

/// Fused 5/3 pipeline (Algorithm 2 / merged, depending on `io`).
fn pipeline_53(io: &mut dyn VertIo<i32>, h: usize, w: usize) {
    let nl = low_len(h);
    let nh = high_len(h);
    let mut e_cur = vec![0i32; w];
    let mut e_next = vec![0i32; w];
    let mut o = vec![0i32; w];
    let mut hi = vec![0i32; w];
    let mut h_prev = vec![0i32; w];
    let mut lo = vec![0i32; w];
    io.load_even(0, &mut e_cur);
    for i in 0..nh {
        io.load_odd(i, &mut o);
        if 2 * i + 2 < h {
            io.load_even(i + 1, &mut e_next);
        } else {
            e_next.copy_from_slice(&e_cur); // mirror x[h] -> x[h-2]
        }
        rowops::predict53_into(&mut hi, &o, &e_cur, &e_next);
        let left = if i == 0 { &hi } else { &h_prev };
        rowops::update53_into(&mut lo, &e_cur, left, &hi);
        io.store_high(i, &hi);
        io.store_low(i, &lo);
        std::mem::swap(&mut h_prev, &mut hi);
        std::mem::swap(&mut e_cur, &mut e_next);
    }
    if nl > nh {
        // Odd height: final low row, both neighbors mirror to high[nh-1].
        rowops::update53_into(&mut lo, &e_cur, &h_prev, &h_prev);
        io.store_low(nl - 1, &lo);
    }
    io.finish();
}

/// Forward 5/3 vertical filtering of `region` under `variant`.
pub fn fwd53_vertical(plane: &mut AlignedPlane<i32>, region: Region, variant: VerticalVariant) {
    fwd53_rows(Rows::new(plane, region), variant);
}

/// Forward 5/3 vertical filtering of a row view (e.g. one column chunk cut
/// by [`crate::rowops::split`]). Columns are independent, so running this
/// per-chunk across threads is bit-identical to one full-width call.
pub fn fwd53_rows(mut rows: Rows<'_, i32>, variant: VerticalVariant) {
    let h = rows.height();
    if h < 2 {
        return;
    }
    by_column_groups(&mut rows, |g| fwd53_group(g, variant, h));
}

/// Run `f` on each cache-blocked column group of `rows`: columns are
/// independent, so filtering each group in full before moving right is
/// bit-identical to one full-width pass but keeps the fused pipeline's
/// sliding window resident in L1. A view no wider than one group (every
/// column chunk of the parallel driver) is filtered as it is.
fn by_column_groups<T: Copy + Default>(
    rows: &mut Rows<'_, T>,
    mut f: impl FnMut(&mut Rows<'_, T>),
) {
    let w = rows.width();
    if w <= VERT_GROUP_DEFAULT {
        return f(rows);
    }
    for x0 in (0..w).step_by(VERT_GROUP_DEFAULT) {
        f(&mut rows.subcols(x0, VERT_GROUP_DEFAULT.min(w - x0)));
    }
}

fn fwd53_group(rows: &mut Rows<'_, i32>, variant: VerticalVariant, h: usize) {
    match variant {
        VerticalVariant::Separate => {
            split_rows(rows);
            lift53_separate(rows);
        }
        VerticalVariant::Interleaved => {
            split_rows(rows);
            let w = rows.width();
            let nl = low_len(h);
            let mut io = SplitIo { rows, nl };
            pipeline_53(&mut io, h, w);
        }
        VerticalVariant::Merged => {
            let w = rows.width();
            let mut io = MergedIo::new(rows);
            pipeline_53(&mut io, h, w);
        }
    }
}

/// Inverse 5/3 vertical filtering (split layout in, interleaved out).
pub fn inv53_vertical(plane: &mut AlignedPlane<i32>, region: Region) {
    let mut rows = Rows::new(plane, region);
    let h = rows.height();
    if h < 2 {
        return;
    }
    by_column_groups(&mut rows, |g| inv53_group(g, h));
}

fn inv53_group(rows: &mut Rows<'_, i32>, h: usize) {
    let nl = low_len(h);
    let nh = high_len(h);
    // Undo update, then undo predict (reverse order of the forward passes).
    for i in 0..nl {
        let l = nl + i.saturating_sub(1).min(nh - 1);
        let r = nl + i.min(nh - 1);
        let (d, a, b) = rows.dst_src2(i, l, r);
        rowops::unupdate53(d, a, b);
    }
    for i in 0..nh {
        let r = (i + 1).min(nl - 1);
        let (d, a, b) = rows.dst_src2(nl + i, i, r);
        rowops::unpredict53(d, a, b);
    }
    unsplit_rows(rows);
}

// ---------------------------------------------------------------------------
// 9/7 vertical (generic over f32 / Q13 arithmetic)
// ---------------------------------------------------------------------------

/// Elementwise arithmetic used by the 9/7 passes, instantiated for `f32`
/// (the paper's choice) and Q13 fixed point (Jasper's representation).
pub trait Arith97: Copy + Default {
    /// The four lifting constants and two scale factors.
    const STEPS: [Self::C; 4];
    /// Low-pass scale.
    const SCALE_LO: Self::C;
    /// High-pass scale.
    const SCALE_HI: Self::C;
    /// Constant type.
    type C: Copy;
    /// `dst += c * (a + b)`.
    fn lift(dst: &mut [Self], a: &[Self], b: &[Self], c: Self::C);
    /// `out = center + c * (a + b)`.
    fn lift_into(out: &mut [Self], center: &[Self], a: &[Self], b: &[Self], c: Self::C);
    /// `dst *= c`.
    fn scale(dst: &mut [Self], c: Self::C);
    /// Negate a constant (for the inverse transform).
    fn neg(c: Self::C) -> Self::C;
    /// Reciprocal pair for unscaling: (1/SCALE_LO, 1/SCALE_HI).
    const UNSCALE_LO: Self::C;
    /// See [`Arith97::UNSCALE_LO`].
    const UNSCALE_HI: Self::C;
}

impl Arith97 for f32 {
    type C = f32;
    const STEPS: [f32; 4] = [ALPHA, BETA, GAMMA, DELTA];
    const SCALE_LO: f32 = INV_K;
    const SCALE_HI: f32 = K;
    const UNSCALE_LO: f32 = K;
    const UNSCALE_HI: f32 = INV_K;
    fn lift(dst: &mut [f32], a: &[f32], b: &[f32], c: f32) {
        rowops::lift_f32(dst, a, b, c);
    }
    fn lift_into(out: &mut [f32], center: &[f32], a: &[f32], b: &[f32], c: f32) {
        rowops::lift_f32_into(out, center, a, b, c);
    }
    fn scale(dst: &mut [f32], c: f32) {
        rowops::scale_f32(dst, c);
    }
    fn neg(c: f32) -> f32 {
        -c
    }
}

impl Arith97 for i32 {
    type C = i32;
    const STEPS: [i32; 4] = [ALPHA_Q13, BETA_Q13, GAMMA_Q13, DELTA_Q13];
    const SCALE_LO: i32 = INV_K_Q13;
    const SCALE_HI: i32 = K_Q13;
    // Q13 reciprocals of the scale factors (rounded): 1/invK = K, 1/K = invK.
    const UNSCALE_LO: i32 = K_Q13;
    const UNSCALE_HI: i32 = INV_K_Q13;
    fn lift(dst: &mut [i32], a: &[i32], b: &[i32], c: i32) {
        rowops::lift_q13(dst, a, b, c);
    }
    fn lift_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32], c: i32) {
        rowops::lift_q13_into(out, center, a, b, c);
    }
    fn scale(dst: &mut [i32], c: i32) {
        rowops::scale_q13(dst, c);
    }
    fn neg(c: i32) -> i32 {
        -c
    }
}

/// Separate passes (split layout): 4 lifting passes + scaling pass.
fn lift97_separate<T: Arith97>(rows: &mut Rows<'_, T>) {
    let h = rows.height();
    let nl = low_len(h);
    let nh = high_len(h);
    for (step, &c) in T::STEPS.iter().enumerate() {
        if step % 2 == 0 {
            // Predict: high[i] += c * (low[i] + low[min(i+1, nl-1)]).
            for i in 0..nh {
                let r = (i + 1).min(nl - 1);
                let (d, a, b) = rows.dst_src2(nl + i, i, r);
                T::lift(d, a, b, c);
            }
        } else {
            // Update: low[i] += c * (high[i-1|0] + high[min(i, nh-1)]).
            for i in 0..nl {
                let l = nl + i.saturating_sub(1).min(nh - 1);
                let r = nl + i.min(nh - 1);
                let (d, a, b) = rows.dst_src2(i, l, r);
                T::lift(d, a, b, c);
            }
        }
    }
    for i in 0..nl {
        T::scale(rows.row_mut(i), T::SCALE_LO);
    }
    for i in 0..nh {
        T::scale(rows.row_mut(nl + i), T::SCALE_HI);
    }
}

/// Fused 9/7 pipeline: the Kutil single-loop, extended with the paper's
/// merged split. Maintains a sliding window of intermediate rows:
/// `dA` (after step 1), `sB` (after step 2), `dC` (after step 3).
fn pipeline_97<T: Arith97>(io: &mut dyn VertIo<T>, h: usize, w: usize) {
    let nl = low_len(h);
    let nh = high_len(h);
    let [ca, cb, cg, cd] = T::STEPS;
    let zero = || vec![T::default(); w];
    let (mut e_cur, mut e_next, mut o) = (zero(), zero(), zero());
    let (mut da_prev, mut da_cur) = (zero(), zero());
    let (mut sb_prev, mut sb_cur) = (zero(), zero());
    let (mut dc_prev2, mut dc_prev) = (zero(), zero());
    let (mut out_lo, mut out_hi) = (zero(), zero());

    io.load_even(0, &mut e_cur);
    for i in 0..nh {
        io.load_odd(i, &mut o);
        if 2 * i + 2 < h {
            io.load_even(i + 1, &mut e_next);
        } else {
            e_next.copy_from_slice(&e_cur);
        }
        // Step 1: dA[i] = o[i] + alpha * (e[i] + e[i+1]).
        T::lift_into(&mut da_cur, &o, &e_cur, &e_next, ca);
        // Step 2: sB[i] = e[i] + beta * (dA[i-1|0] + dA[i]).
        let left = if i == 0 { &da_cur } else { &da_prev };
        T::lift_into(&mut sb_cur, &e_cur, left, &da_cur, cb);
        if i >= 1 {
            // Step 3: dC[i-1] = dA[i-1] + gamma * (sB[i-1] + sB[i]).
            T::lift_into(&mut dc_prev, &da_prev, &sb_prev, &sb_cur, cg);
            // Step 4: sD[i-1] = sB[i-1] + delta * (dC[i-2|0] + dC[i-1]).
            let dcl = if i == 1 { &dc_prev } else { &dc_prev2 };
            T::lift_into(&mut out_lo, &sb_prev, dcl, &dc_prev, cd);
            T::scale(&mut out_lo, T::SCALE_LO);
            io.store_low(i - 1, &out_lo);
            out_hi.copy_from_slice(&dc_prev);
            T::scale(&mut out_hi, T::SCALE_HI);
            io.store_high(i - 1, &out_hi);
            std::mem::swap(&mut dc_prev2, &mut dc_prev);
        }
        std::mem::swap(&mut da_prev, &mut da_cur);
        std::mem::swap(&mut sb_prev, &mut sb_cur);
        std::mem::swap(&mut e_cur, &mut e_next);
    }
    // Drain the pipeline: rows nh-1 (high) and nh-1 / nl-1 (low).
    if nh >= 1 {
        let last = nh - 1;
        if nl > nh {
            // Odd height: one extra even row e[nl-1] (in e_cur after the
            // final swap). sB[nl-1] = e + beta * 2 * dA[nh-1].
            let mut sb_last = zero();
            T::lift_into(&mut sb_last, &e_cur, &da_prev, &da_prev, cb);
            // dC[nh-1] = dA[nh-1] + gamma * (sB[nh-1] + sB[nl-1]).
            let mut dc_last = zero();
            T::lift_into(&mut dc_last, &da_prev, &sb_prev, &sb_last, cg);
            // sD[nh-1] = sB[nh-1] + delta * (dC[nh-2|0] + dC[nh-1]).
            let dcl = if nh == 1 { &dc_last } else { &dc_prev2 };
            T::lift_into(&mut out_lo, &sb_prev, dcl, &dc_last, cd);
            T::scale(&mut out_lo, T::SCALE_LO);
            io.store_low(last, &out_lo);
            // sD[nl-1] = sB[nl-1] + delta * 2 * dC[nh-1].
            T::lift_into(&mut out_lo, &sb_last, &dc_last, &dc_last, cd);
            T::scale(&mut out_lo, T::SCALE_LO);
            io.store_low(nl - 1, &out_lo);
            out_hi.copy_from_slice(&dc_last);
            T::scale(&mut out_hi, T::SCALE_HI);
            io.store_high(last, &out_hi);
        } else {
            // Even height: sB[nl] mirrors to sB[nl-1] = sb_prev.
            let mut dc_last = zero();
            T::lift_into(&mut dc_last, &da_prev, &sb_prev, &sb_prev, cg);
            let dcl = if nh == 1 { &dc_last } else { &dc_prev2 };
            T::lift_into(&mut out_lo, &sb_prev, dcl, &dc_last, cd);
            T::scale(&mut out_lo, T::SCALE_LO);
            io.store_low(last, &out_lo);
            out_hi.copy_from_slice(&dc_last);
            T::scale(&mut out_hi, T::SCALE_HI);
            io.store_high(last, &out_hi);
        }
    }
    io.finish();
}

/// Forward 9/7 vertical filtering of `region` under `variant`. `T` is `f32`
/// for the paper's floating-point path or `i32` for Q13 fixed point.
pub fn fwd97_vertical<T: Arith97>(
    plane: &mut AlignedPlane<T>,
    region: Region,
    variant: VerticalVariant,
) {
    fwd97_rows(Rows::new(plane, region), variant);
}

/// Forward 9/7 vertical filtering of a row view (e.g. one column chunk cut
/// by [`crate::rowops::split`]). Columns are independent, so running this
/// per-chunk across threads is bit-identical to one full-width call.
pub fn fwd97_rows<T: Arith97>(mut rows: Rows<'_, T>, variant: VerticalVariant) {
    let h = rows.height();
    if h < 2 {
        return;
    }
    by_column_groups(&mut rows, |g| fwd97_group(g, variant, h));
}

fn fwd97_group<T: Arith97>(rows: &mut Rows<'_, T>, variant: VerticalVariant, h: usize) {
    match variant {
        VerticalVariant::Separate => {
            split_rows(rows);
            lift97_separate(rows);
        }
        VerticalVariant::Interleaved => {
            split_rows(rows);
            let w = rows.width();
            let nl = low_len(h);
            let mut io = SplitIo { rows, nl };
            pipeline_97(&mut io, h, w);
        }
        VerticalVariant::Merged => {
            let w = rows.width();
            let mut io = MergedIo::new(rows);
            pipeline_97(&mut io, h, w);
        }
    }
}

/// Inverse 9/7 vertical filtering (split layout in, interleaved out).
pub fn inv97_vertical<T: Arith97>(plane: &mut AlignedPlane<T>, region: Region) {
    let mut rows = Rows::new(plane, region);
    let h = rows.height();
    if h < 2 {
        return;
    }
    by_column_groups(&mut rows, |g| inv97_group(g, h));
}

fn inv97_group<T: Arith97>(rows: &mut Rows<'_, T>, h: usize) {
    let nl = low_len(h);
    let nh = high_len(h);
    for i in 0..nl {
        T::scale(rows.row_mut(i), T::UNSCALE_LO);
    }
    for i in 0..nh {
        T::scale(rows.row_mut(nl + i), T::UNSCALE_HI);
    }
    // Reverse lifting: steps 4, 3, 2, 1 with negated constants.
    for (step, &c) in T::STEPS.iter().enumerate().rev() {
        let c = T::neg(c);
        if step % 2 == 0 {
            for i in 0..nh {
                let r = (i + 1).min(nl - 1);
                let (d, a, b) = rows.dst_src2(nl + i, i, r);
                T::lift(d, a, b, c);
            }
        } else {
            for i in 0..nl {
                let l = nl + i.saturating_sub(1).min(nh - 1);
                let r = nl + i.min(nh - 1);
                let (d, a, b) = rows.dst_src2(i, l, r);
                T::lift(d, a, b, c);
            }
        }
    }
    unsplit_rows(rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line;

    fn make_plane(w: usize, h: usize, seed: u32) -> AlignedPlane<i32> {
        let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
        let mut x = seed | 1;
        p.for_each_mut(|_, _, v| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = ((x >> 8) % 511) as i32 - 255;
        });
        p
    }

    /// Reference: apply the 1-D line transform down every column.
    fn reference_cols_53(p: &AlignedPlane<i32>) -> AlignedPlane<i32> {
        let (w, h) = (p.width(), p.height());
        let mut out = p.clone();
        let mut col = vec![0i32; h];
        let mut s = Vec::new();
        for x in 0..w {
            for (y, v) in col.iter_mut().enumerate() {
                *v = p.get(x, y);
            }
            line::fwd_53(&mut col, &mut s);
            for (y, v) in col.iter().enumerate() {
                out.set(x, y, *v);
            }
        }
        out
    }

    fn reference_cols_97(p: &AlignedPlane<f32>) -> AlignedPlane<f32> {
        let (w, h) = (p.width(), p.height());
        let mut out = p.clone();
        let mut col = vec![0f32; h];
        let mut s = Vec::new();
        for x in 0..w {
            for (y, v) in col.iter_mut().enumerate() {
                *v = p.get(x, y);
            }
            line::fwd_97(&mut col, &mut s);
            for (y, v) in col.iter().enumerate() {
                out.set(x, y, *v);
            }
        }
        out
    }

    #[test]
    fn all_53_variants_match_line_reference() {
        for (w, h) in [
            (8usize, 8usize),
            (5, 7),
            (16, 9),
            (3, 2),
            (7, 16),
            (10, 3),
            (4, 2),
        ] {
            let p0 = make_plane(w, h, (w * 31 + h) as u32);
            let want = reference_cols_53(&p0);
            for variant in [
                VerticalVariant::Separate,
                VerticalVariant::Interleaved,
                VerticalVariant::Merged,
            ] {
                let mut p = p0.clone();
                fwd53_vertical(&mut p, Region::full(&p0), variant);
                assert_eq!(
                    p.to_dense(),
                    want.to_dense(),
                    "{variant:?} {w}x{h} mismatch"
                );
            }
        }
    }

    #[test]
    fn all_97_variants_bit_identical_and_match_reference() {
        for (w, h) in [
            (8usize, 8usize),
            (5, 7),
            (16, 9),
            (3, 2),
            (7, 16),
            (4, 5),
            (6, 2),
            (2, 3),
        ] {
            let p0 = make_plane(w, h, (w * 7 + h) as u32).to_f32();
            let want = reference_cols_97(&p0);
            for variant in [
                VerticalVariant::Separate,
                VerticalVariant::Interleaved,
                VerticalVariant::Merged,
            ] {
                let mut p = p0.clone();
                fwd97_vertical(&mut p, Region::full(&p0), variant);
                let got = p.to_dense();
                let exp = want.to_dense();
                for (i, (g, e)) in got.iter().zip(&exp).enumerate() {
                    assert!(
                        (g - e).abs() <= 1e-3 * e.abs().max(1.0),
                        "{variant:?} {w}x{h} elem {i}: {g} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_97_variants_bit_identical_to_separate() {
        // The pipelines perform the same arithmetic on the same operands, so
        // f32 results must be *exactly* equal, not just close.
        let p0 = make_plane(13, 12, 99).to_f32();
        let mut sep = p0.clone();
        fwd97_vertical(&mut sep, Region::full(&p0), VerticalVariant::Separate);
        for variant in [VerticalVariant::Interleaved, VerticalVariant::Merged] {
            let mut p = p0.clone();
            fwd97_vertical(&mut p, Region::full(&p0), variant);
            assert_eq!(
                p.to_dense(),
                sep.to_dense(),
                "{variant:?} not bit-identical"
            );
        }
    }

    #[test]
    fn vertical_53_roundtrip() {
        for (w, h) in [(8usize, 8usize), (5, 7), (16, 9), (3, 2), (9, 31)] {
            let p0 = make_plane(w, h, 7);
            for variant in [
                VerticalVariant::Separate,
                VerticalVariant::Interleaved,
                VerticalVariant::Merged,
            ] {
                let mut p = p0.clone();
                fwd53_vertical(&mut p, Region::full(&p0), variant);
                inv53_vertical(&mut p, Region::full(&p0));
                assert_eq!(p.to_dense(), p0.to_dense(), "{variant:?} {w}x{h}");
            }
        }
    }

    #[test]
    fn vertical_97_roundtrip_f32() {
        for (w, h) in [(8usize, 8usize), (5, 7), (16, 9), (9, 31)] {
            let p0 = make_plane(w, h, 11).to_f32();
            let mut p = p0.clone();
            fwd97_vertical(&mut p, Region::full(&p0), VerticalVariant::Merged);
            inv97_vertical(&mut p, Region::full(&p0));
            for (g, e) in p.to_dense().iter().zip(p0.to_dense()) {
                assert!((g - e).abs() < 1e-2, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn vertical_97_roundtrip_fixed() {
        let p0 = make_plane(12, 16, 13);
        let q0 = p0.map(crate::fixed::to_fixed);
        let mut q = q0.clone();
        fwd97_vertical(&mut q, Region::full(&q0), VerticalVariant::Merged);
        inv97_vertical(&mut q, Region::full(&q0));
        for (g, e) in q.to_dense().iter().zip(p0.to_dense()) {
            let g = crate::fixed::from_fixed(*g);
            assert!((g - e).abs() <= 1, "{g} vs {e}");
        }
    }

    #[test]
    fn split_unsplit_roundtrip() {
        for h in [2usize, 3, 4, 5, 8, 9] {
            let p0 = make_plane(6, h, h as u32);
            let mut p = p0.clone();
            let mut rows = Rows::new(&mut p, Region::full(&p0));
            split_rows(&mut rows);
            unsplit_rows(&mut rows);
            assert_eq!(p.to_dense(), p0.to_dense(), "h={h}");
        }
    }

    #[test]
    fn split_moves_rows_correctly() {
        let mut p = AlignedPlane::<i32>::new(2, 5).unwrap();
        for y in 0..5 {
            p.row_mut(y).fill(y as i32);
        }
        let mut rows = Rows::new(
            &mut p,
            Region {
                x0: 0,
                y0: 0,
                w: 2,
                h: 5,
            },
        );
        split_rows(&mut rows);
        let got: Vec<i32> = (0..5).map(|y| p.get(0, y)).collect();
        assert_eq!(got, vec![0, 2, 4, 1, 3]);
    }

    #[test]
    fn subregion_vertical_only_touches_region() {
        let p0 = make_plane(16, 8, 3);
        let mut p = p0.clone();
        let region = Region {
            x0: 4,
            y0: 0,
            w: 8,
            h: 8,
        };
        fwd53_vertical(&mut p, region, VerticalVariant::Merged);
        for y in 0..8 {
            for x in 0..16 {
                if !(4..12).contains(&x) {
                    assert_eq!(p.get(x, y), p0.get(x, y), "({x},{y}) modified");
                }
            }
        }
    }

    #[test]
    fn offset_region_matches_reference_and_roundtrips() {
        // Odd `x0` starts every region row off vector alignment. The forward
        // pass must equal the per-column reference on the region's own
        // samples, and forward then inverse must restore the whole plane.
        let bits = |p: &AlignedPlane<f32>| -> Vec<u32> {
            p.to_dense().iter().map(|v| v.to_bits()).collect()
        };
        for x0 in 0..=5usize {
            for (w, h) in [(1usize, 2usize), (3, 5), (8, 7), (13, 12)] {
                let y0 = x0 % 2;
                let p0 = make_plane(x0 + w + 2, y0 + h, (31 * x0 + 7 * w + h) as u32);
                let region = Region { x0, y0, w, h };
                let crop = |p: &AlignedPlane<i32>| {
                    let mut c = AlignedPlane::<i32>::new(w, h).unwrap();
                    c.for_each_mut(|x, y, v| *v = p.get(x0 + x, y0 + y));
                    c
                };
                let want = reference_cols_53(&crop(&p0));
                for variant in [
                    VerticalVariant::Separate,
                    VerticalVariant::Interleaved,
                    VerticalVariant::Merged,
                ] {
                    let mut p = p0.clone();
                    fwd53_vertical(&mut p, region, variant);
                    assert_eq!(crop(&p).to_dense(), want.to_dense(), "{variant:?} x0={x0}");
                    inv53_vertical(&mut p, region);
                    assert_eq!(p.to_dense(), p0.to_dense(), "{variant:?} x0={x0} inverse");
                }

                let f0 = p0.to_f32();
                let mut f = f0.clone();
                fwd97_vertical(&mut f, region, VerticalVariant::Merged);
                let wantf = reference_cols_97(&crop(&p0).to_f32());
                let mut got = AlignedPlane::<f32>::new(w, h).unwrap();
                got.for_each_mut(|x, y, v| *v = f.get(x0 + x, y0 + y));
                assert_eq!(bits(&got), bits(&wantf), "9/7 x0={x0} {w}x{h}");
                inv97_vertical(&mut f, region);
                for (g, e) in f.to_dense().iter().zip(f0.to_dense()) {
                    assert!((g - e).abs() < 1e-2, "9/7 x0={x0} {w}x{h}: {g} vs {e}");
                }
            }
        }
    }

    #[test]
    fn height_one_is_identity() {
        let p0 = make_plane(5, 1, 1);
        for variant in [
            VerticalVariant::Separate,
            VerticalVariant::Interleaved,
            VerticalVariant::Merged,
        ] {
            let mut p = p0.clone();
            fwd53_vertical(&mut p, Region::full(&p0), variant);
            assert_eq!(p.to_dense(), p0.to_dense());
        }
    }

    // -- cache-blocking edge/remainder cases ------------------------------
    //
    // The blocked drivers walk the region in column groups of
    // `VERT_GROUP_DEFAULT` elements; the widths below force a final group
    // narrower than one vector lane (1..=3 columns) after one or two full
    // groups, which is the remainder path most likely to go wrong.

    #[test]
    fn group_tail_narrower_than_simd_lane_53() {
        let g = VERT_GROUP_DEFAULT;
        for w in [g + 1, g + 3, 2 * g + 2] {
            let p0 = make_plane(w, 11, w as u32);
            let want = reference_cols_53(&p0);
            for variant in [
                VerticalVariant::Separate,
                VerticalVariant::Interleaved,
                VerticalVariant::Merged,
            ] {
                let mut p = p0.clone();
                fwd53_vertical(&mut p, Region::full(&p0), variant);
                assert_eq!(p.to_dense(), want.to_dense(), "{variant:?} w={w}");
                inv53_vertical(&mut p, Region::full(&p0));
                assert_eq!(p.to_dense(), p0.to_dense(), "{variant:?} w={w} inverse");
            }
        }
    }

    #[test]
    fn group_tail_narrower_than_simd_lane_97() {
        let g = VERT_GROUP_DEFAULT;
        for w in [g + 1, g + 2] {
            let p0 = make_plane(w, 9, w as u32).to_f32();
            let want = reference_cols_97(&p0);
            let mut p = p0.clone();
            fwd97_vertical(&mut p, Region::full(&p0), VerticalVariant::Merged);
            // The blocked pass must be *bit*-identical to the per-column
            // reference: columns are independent, grouping only reorders
            // them.
            let got: Vec<u32> = p.to_dense().iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = want.to_dense().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "w={w}");
            inv97_vertical(&mut p, Region::full(&p0));
            for (g2, e) in p.to_dense().iter().zip(p0.to_dense()) {
                assert!((g2 - e).abs() < 1e-2, "w={w}: {g2} vs {e}");
            }
        }
    }

    #[test]
    fn single_column_plane_matches_line_transform() {
        for h in [2usize, 3, 5, 31] {
            let p0 = make_plane(1, h, h as u32);
            let want = reference_cols_53(&p0);
            let mut p = p0.clone();
            fwd53_vertical(&mut p, Region::full(&p0), VerticalVariant::Merged);
            assert_eq!(p.to_dense(), want.to_dense(), "h={h}");
            inv53_vertical(&mut p, Region::full(&p0));
            assert_eq!(p.to_dense(), p0.to_dense(), "h={h} inverse");

            let f0 = p0.to_f32();
            let wantf = reference_cols_97(&f0);
            let mut f = f0.clone();
            fwd97_vertical(&mut f, Region::full(&f0), VerticalVariant::Merged);
            let got: Vec<u32> = f.to_dense().iter().map(|v| v.to_bits()).collect();
            let exp: Vec<u32> = wantf.to_dense().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, exp, "h={h} 9/7");
        }
    }

    #[test]
    fn odd_height_lifting_boundaries_pinned() {
        // Odd heights split into low_len = ceil(h/2), high_len = floor(h/2):
        // the final update step reads high[nh-1] for *both* neighbors of the
        // last low sample. A linear ramp makes every 5/3 detail coefficient
        // zero and leaves the ramp's even samples (plus the +2>>2 rounding
        // carry, which is 0 here) in the low band — a fully pinned result.
        let mut p = AlignedPlane::<i32>::new(1, 5).unwrap();
        for y in 0..5 {
            p.set(0, y, (y + 1) as i32);
        }
        let full = Region::full(&p);
        fwd53_vertical(&mut p, full, VerticalVariant::Merged);
        assert_eq!(p.to_dense(), vec![1, 3, 5, 0, 0]);
        inv53_vertical(&mut p, full);
        assert_eq!(p.to_dense(), vec![1, 2, 3, 4, 5]);

        // And the asymmetric tails roundtrip for every odd height.
        for h in [3usize, 5, 7, 9, 17] {
            let p0 = make_plane(5, h, 2 * h as u32 + 1);
            let want = reference_cols_53(&p0);
            let mut q = p0.clone();
            fwd53_vertical(&mut q, Region::full(&p0), VerticalVariant::Merged);
            assert_eq!(q.to_dense(), want.to_dense(), "h={h} forward");
            inv53_vertical(&mut q, Region::full(&p0));
            assert_eq!(q.to_dense(), p0.to_dense(), "h={h} inverse");

            let f0 = p0.to_f32();
            let mut f = f0.clone();
            fwd97_vertical(&mut f, Region::full(&f0), VerticalVariant::Merged);
            inv97_vertical(&mut f, Region::full(&f0));
            for (g, e) in f.to_dense().iter().zip(f0.to_dense()) {
                assert!((g - e).abs() < 1e-2, "h={h} 9/7: {g} vs {e}");
            }
        }
    }

    #[test]
    fn blocked_output_independent_of_group_width() {
        // Column groups are independent, so any tiling must produce the
        // same bytes. Emulate a tiny group width by transforming the plane
        // in hand-tiled subregions and compare with the one-shot driver.
        let p0 = make_plane(23, 10, 77);
        let mut whole = p0.clone();
        fwd53_vertical(&mut whole, Region::full(&p0), VerticalVariant::Merged);
        for gw in [1usize, 2, 3, 5, 7] {
            let mut tiled = p0.clone();
            let mut x0 = 0;
            while x0 < 23 {
                let w = gw.min(23 - x0);
                let r = Region {
                    x0,
                    y0: 0,
                    w,
                    h: 10,
                };
                fwd53_vertical(&mut tiled, r, VerticalVariant::Merged);
                x0 += w;
            }
            assert_eq!(tiled.to_dense(), whole.to_dense(), "gw={gw}");
        }
    }
}
