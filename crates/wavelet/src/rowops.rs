//! Row views of plane regions and whole-row primitives for the lifting
//! filters.
//!
//! [`split`] cuts disjoint regions of one plane into [`Rows`] views, one
//! `&mut` slice per row, which is how the encoder hands column chunks and
//! row bands of the same plane to different threads.
//!
//! The vertical filter processes all columns of a column group in lockstep;
//! each lifting step is an elementwise operation over three rows. These
//! kernels are written as simple slice loops that the compiler
//! auto-vectorizes (the role SPU intrinsics played in the paper's code).

use xpart::AlignedPlane;

/// A rectangular region of a plane (offsets/extents in elements/rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First column.
    pub x0: usize,
    /// First row.
    pub y0: usize,
    /// Width in elements.
    pub w: usize,
    /// Height in rows.
    pub h: usize,
}

impl Region {
    /// Region covering a whole plane.
    pub fn full<T: Copy + Default>(p: &AlignedPlane<T>) -> Self {
        Region {
            x0: 0,
            y0: 0,
            w: p.width(),
            h: p.height(),
        }
    }
}

/// Mutable row-wise view of a plane region: one `&mut` slice per row, each
/// `width()` elements long, with region-relative row indices. A view
/// borrows exactly the elements it covers, so views of disjoint regions of
/// one plane ([`split`]) can go to different threads, like SPEs holding DMA
/// windows into one main-memory array.
pub struct Rows<'a, T> {
    rows: Vec<&'a mut [T]>,
    w: usize,
}

impl<'a, T: Copy + Default> Rows<'a, T> {
    /// Borrow a region of `plane` as rows (the one-region [`split`]).
    pub fn new(plane: &'a mut AlignedPlane<T>, r: Region) -> Self {
        assert!(r.x0 + r.w <= plane.width() && r.y0 + r.h <= plane.height());
        let stride = plane.stride();
        let rows = plane.as_mut_slice().chunks_exact_mut(stride).skip(r.y0);
        let rows = rows
            .take(r.h)
            .map(|row| &mut row[r.x0..r.x0 + r.w])
            .collect();
        Rows { rows, w: r.w }
    }

    /// Region height in rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.rows.len()
    }

    /// Region width in elements.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Shared row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        self.rows[y]
    }

    /// Mutable row `y`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        self.rows[y]
    }

    /// Reborrow a column range `[x0, x0 + w)` of this view (all rows).
    ///
    /// Used by the cache-blocked vertical filter: the region is processed
    /// one column group at a time so the pipeline's working set fits the
    /// host cache, and columns are independent so the result is
    /// byte-identical to one full-width pass.
    pub fn subcols(&mut self, x0: usize, w: usize) -> Rows<'_, T> {
        assert!(x0 + w <= self.w);
        Rows {
            rows: self.rows.iter_mut().map(|r| &mut r[x0..x0 + w]).collect(),
            w,
        }
    }

    /// One mutable destination row plus two shared source rows.
    ///
    /// `ya`/`yb` may coincide with each other (mirror boundaries) but must
    /// differ from `yd`; either may lie above or below it.
    pub fn dst_src2(&mut self, yd: usize, ya: usize, yb: usize) -> (&mut [T], &[T], &[T]) {
        assert!(yd != ya && yd != yb, "destination row aliases a source row");
        let (above, rest) = self.rows.split_at_mut(yd);
        let (dst, below) = rest.split_first_mut().expect("destination row in range");
        let (above, below): (&[&mut [T]], &[&mut [T]]) = (above, below);
        let src = |y: usize| -> &[T] {
            if y < yd {
                above[y]
            } else {
                below[y - yd - 1]
            }
        };
        (dst, src(ya), src(yb))
    }
}

/// Cut `regions` of `plane` into views, one per region and in the same
/// order. Each plane row the regions cover is cut at their edges, left to
/// right, with `split_at_mut`, so the views are disjoint by construction.
///
/// # Panics
/// If a region extends past the plane, or two non-empty regions overlap.
pub fn split<'a, T: Copy + Default>(
    plane: &'a mut AlignedPlane<T>,
    regions: &[Region],
) -> Vec<Rows<'a, T>> {
    let (pw, ph, stride) = (plane.width(), plane.height(), plane.stride());
    let mut views: Vec<Rows<'a, T>> = regions
        .iter()
        .map(|r| {
            assert!(
                r.x0 + r.w <= pw && r.y0 + r.h <= ph,
                "region {r:?} outside the {pw}x{ph} plane"
            );
            // An empty region owns no element; its rows are empty slices.
            let rows = if r.w == 0 {
                (0..r.h).map(|_| -> &'a mut [T] { &mut [] }).collect()
            } else {
                Vec::with_capacity(r.h)
            };
            Rows { rows, w: r.w }
        })
        .collect();
    // The set of regions covering a row only changes at region edges, so
    // the cuts are worked out (and checked) once per run of rows.
    let mut edges: Vec<usize> = regions.iter().flat_map(|r| [r.y0, r.y0 + r.h]).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut by_x0: Vec<usize> = (0..regions.len()).filter(|&i| regions[i].w > 0).collect();
    by_x0.sort_by_key(|&i| regions[i].x0);
    let first = edges.first().copied().unwrap_or(0);
    let mut plane_rows = plane.as_mut_slice().chunks_exact_mut(stride).skip(first);
    for run in edges.windows(2) {
        let (ya, yb) = (run[0], run[1]);
        // (view, elements skipped before it, width), left to right.
        let mut cuts = Vec::new();
        let mut at = 0;
        for &i in &by_x0 {
            let r = regions[i];
            if (r.y0..r.y0 + r.h).contains(&ya) {
                assert!(r.x0 >= at, "region {r:?} overlaps another in row {ya}");
                cuts.push((i, r.x0 - at, r.w));
                at = r.x0 + r.w;
            }
        }
        let mut rest: Vec<&mut [T]> = plane_rows.by_ref().take(yb - ya).collect();
        for &(i, gap, w) in &cuts {
            views[i].rows.extend(rest.iter_mut().map(|row| {
                let (piece, tail) = std::mem::take(row)[gap..].split_at_mut(w);
                *row = tail;
                piece
            }));
        }
    }
    views
}

// ---------------------------------------------------------------------------
// Row kernels
// ---------------------------------------------------------------------------

/// `dst -= (a + b) >> 1` elementwise (5/3 predict).
#[inline]
pub fn predict53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d -= (x + y) >> 1;
    }
}

/// `dst += (a + b) >> 1` elementwise (5/3 predict undo).
#[inline]
pub fn unpredict53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += (x + y) >> 1;
    }
}

/// `dst += (a + b + 2) >> 2` elementwise (5/3 update).
#[inline]
pub fn update53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += (x + y + 2) >> 2;
    }
}

/// `dst -= (a + b + 2) >> 2` elementwise (5/3 update undo).
#[inline]
pub fn unupdate53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d -= (x + y + 2) >> 2;
    }
}

/// `out = center - ((a + b) >> 1)` elementwise.
#[inline]
pub fn predict53_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32]) {
    for i in 0..out.len() {
        out[i] = center[i] - ((a[i] + b[i]) >> 1);
    }
}

/// `out = center + ((a + b + 2) >> 2)` elementwise.
#[inline]
pub fn update53_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32]) {
    for i in 0..out.len() {
        out[i] = center[i] + ((a[i] + b[i] + 2) >> 2);
    }
}

/// `dst += c * (a + b)` elementwise (9/7 lifting step).
#[inline]
pub fn lift_f32(dst: &mut [f32], a: &[f32], b: &[f32], c: f32) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += c * (x + y);
    }
}

/// `out = center + c * (a + b)` elementwise.
#[inline]
pub fn lift_f32_into(out: &mut [f32], center: &[f32], a: &[f32], b: &[f32], c: f32) {
    for i in 0..out.len() {
        out[i] = center[i] + c * (a[i] + b[i]);
    }
}

/// `dst *= k` elementwise.
#[inline]
pub fn scale_f32(dst: &mut [f32], k: f32) {
    for d in dst {
        *d *= k;
    }
}

/// `dst += (c * (a + b)) >> 13` elementwise (Q13 lifting step).
#[inline]
pub fn lift_q13(dst: &mut [i32], a: &[i32], b: &[i32], c: i32) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += crate::fixed::fix_mul(c, x.wrapping_add(y));
    }
}

/// `out = center + ((c * (a + b)) >> 13)` elementwise.
#[inline]
pub fn lift_q13_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32], c: i32) {
    for i in 0..out.len() {
        out[i] = center[i] + crate::fixed::fix_mul(c, a[i].wrapping_add(b[i]));
    }
}

/// `dst = (dst * k) >> 13` elementwise.
#[inline]
pub fn scale_q13(dst: &mut [i32], k: i32) {
    for d in dst {
        *d = crate::fixed::fix_mul(*d, k);
    }
}

/// Split interleaved `src` into `low` (even indices) / `high` (odd).
#[inline]
pub fn deinterleave_i32(src: &[i32], low: &mut [i32], high: &mut [i32]) {
    deinterleave(src, low, high);
}

/// Merge `low`/`high` halves into interleaved `dst`.
#[inline]
pub fn interleave_i32(low: &[i32], high: &[i32], dst: &mut [i32]) {
    interleave(low, high, dst);
}

/// Split interleaved f32 `src` into `low`/`high` (bit-preserving).
#[inline]
pub fn deinterleave_f32(src: &[f32], low: &mut [f32], high: &mut [f32]) {
    deinterleave(src, low, high);
}

/// Merge f32 `low`/`high` into interleaved `dst` (bit-preserving).
#[inline]
pub fn interleave_f32(low: &[f32], high: &[f32], dst: &mut [f32]) {
    interleave(low, high, dst);
}

// The shuffles walk the interleaved side in pairs and handle an odd length's
// last (low-phase) sample on its own: an index-strided form of the same
// copy runs measurably slower in the inverse DWT.
#[inline]
fn deinterleave<T: Copy>(src: &[T], low: &mut [T], high: &mut [T]) {
    debug_assert_eq!(low.len(), src.len() - src.len() / 2);
    debug_assert_eq!(high.len(), src.len() / 2);
    let pairs = src.chunks_exact(2);
    if let [last] = pairs.remainder() {
        low[high.len()] = *last;
    }
    for ((pair, l), h) in pairs.zip(low.iter_mut()).zip(high.iter_mut()) {
        *l = pair[0];
        *h = pair[1];
    }
}

#[inline]
fn interleave<T: Copy>(low: &[T], high: &[T], dst: &mut [T]) {
    debug_assert_eq!(low.len(), dst.len() - dst.len() / 2);
    debug_assert_eq!(high.len(), dst.len() / 2);
    let mut pairs = dst.chunks_exact_mut(2);
    for ((pair, &l), &h) in (&mut pairs).zip(low).zip(high) {
        pair[0] = l;
        pair[1] = h;
    }
    if let [last] = pairs.into_remainder() {
        *last = low[high.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_full_covers_plane() {
        let p = AlignedPlane::<i32>::new(10, 4).unwrap();
        let r = Region::full(&p);
        assert_eq!((r.x0, r.y0, r.w, r.h), (0, 0, 10, 4));
    }

    #[test]
    fn rows_view_reads_and_writes_subregion() {
        let mut p = AlignedPlane::<i32>::new(8, 4).unwrap();
        p.for_each_mut(|x, y, v| *v = (10 * y + x) as i32);
        let mut rows = Rows::new(
            &mut p,
            Region {
                x0: 2,
                y0: 1,
                w: 3,
                h: 2,
            },
        );
        assert_eq!(rows.row(0), &[12, 13, 14]);
        rows.row_mut(1)[0] = -1;
        assert_eq!(p.get(2, 2), -1);
    }

    #[test]
    fn dst_src2_allows_mirror_aliasing_of_sources() {
        let mut p = AlignedPlane::<i32>::new(4, 3).unwrap();
        p.for_each_mut(|x, y, v| *v = (y * 4 + x) as i32);
        let r = Region::full(&p);
        let mut rows = Rows::new(&mut p, r);
        let (d, a, b) = rows.dst_src2(2, 0, 0);
        assert_eq!(a, b);
        predict53(d, a, b);
        assert_eq!(p.row(2), &[8, 8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn dst_src2_rejects_dst_aliasing() {
        let mut p = AlignedPlane::<i32>::new(4, 3).unwrap();
        let r = Region::full(&p);
        let mut rows = Rows::new(&mut p, r);
        let _ = rows.dst_src2(1, 1, 0);
    }

    #[test]
    fn shuffles_match_index_definition() {
        for n in 0..=11usize {
            let src: Vec<i32> = (0..n as i32).map(|v| 3 * v - 7).collect();
            let (nl, nh) = (n - n / 2, n / 2);
            let (mut low, mut high) = (vec![0; nl], vec![0; nh]);
            deinterleave_i32(&src, &mut low, &mut high);
            assert!((0..nl).all(|i| low[i] == src[2 * i]), "n={n} low");
            assert!((0..nh).all(|i| high[i] == src[2 * i + 1]), "n={n} high");
            let mut back = vec![0; n];
            interleave_i32(&low, &high, &mut back);
            assert_eq!(back, src, "n={n}");

            // f32 shuffles move bits, including NaN payloads.
            let srcf: Vec<f32> = (0..n as u32)
                .map(|v| f32::from_bits(0x7FC0_0001 + v))
                .collect();
            let (mut lowf, mut highf) = (vec![0.0; nl], vec![0.0; nh]);
            deinterleave_f32(&srcf, &mut lowf, &mut highf);
            let mut backf = vec![0.0; n];
            interleave_f32(&lowf, &highf, &mut backf);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&backf), bits(&srcf), "n={n} f32");
        }
    }

    #[test]
    fn predict_update_inverse_pair() {
        let a = vec![3i32, -5, 100, 7];
        let b = vec![9i32, 2, -4, 0];
        let orig = vec![10i32, 20, 30, -40];
        let mut d = orig.clone();
        predict53(&mut d, &a, &b);
        // inverse of predict is adding the same prediction back
        let mut d2 = d.clone();
        for i in 0..4 {
            d2[i] += (a[i] + b[i]) >> 1;
        }
        assert_eq!(d2, orig);
    }

    #[test]
    fn into_forms_match_inplace_forms() {
        let a = vec![1i32, -2, 3, -4];
        let b = vec![5i32, 6, -7, 8];
        let c = vec![9i32, 10, 11, 12];
        let mut inplace = c.clone();
        predict53(&mut inplace, &a, &b);
        let mut out = vec![0i32; 4];
        predict53_into(&mut out, &c, &a, &b);
        assert_eq!(out, inplace);

        let mut inplace = c.clone();
        update53(&mut inplace, &a, &b);
        let mut out = vec![0i32; 4];
        update53_into(&mut out, &c, &a, &b);
        assert_eq!(out, inplace);

        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let cf: Vec<f32> = c.iter().map(|&v| v as f32).collect();
        let mut inplace = cf.clone();
        lift_f32(&mut inplace, &af, &bf, 0.5);
        let mut out = vec![0f32; 4];
        lift_f32_into(&mut out, &cf, &af, &bf, 0.5);
        assert_eq!(out, inplace);
    }
}
