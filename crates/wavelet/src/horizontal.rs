//! Horizontal (row) filtering.
//!
//! "For the horizontal filtering, we assign an identical number of rows to
//! each SPE, and a single row becomes a unit of data transfer and
//! computation." Each row is transformed independently by the 1-D lifting
//! kernels of [`crate::line`] / [`crate::fixed`].

use crate::rowops::{Region, Rows};
use crate::{fixed, line};
use xpart::AlignedPlane;

/// Forward 5/3 on every row of a row view (e.g. one row band cut by
/// [`crate::rowops::split`]). Rows are independent, so running this
/// per-band across threads is bit-identical to one full-height call.
pub fn fwd53_rows(mut rows: Rows<'_, i32>) {
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        line::fwd_53(rows.row_mut(y), &mut scratch);
    }
}

/// Inverse 5/3 on every row of `region`.
pub fn inv53_horizontal(plane: &mut AlignedPlane<i32>, region: Region) {
    let mut rows = Rows::new(plane, region);
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        line::inv_53(rows.row_mut(y), &mut scratch);
    }
}

/// Forward 9/7 (f32) on every row of a row view; see [`fwd53_rows`].
pub fn fwd97_rows(mut rows: Rows<'_, f32>) {
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        line::fwd_97(rows.row_mut(y), &mut scratch);
    }
}

/// Inverse 9/7 (f32) on every row of `region`.
pub fn inv97_horizontal(plane: &mut AlignedPlane<f32>, region: Region) {
    let mut rows = Rows::new(plane, region);
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        line::inv_97(rows.row_mut(y), &mut scratch);
    }
}

/// Forward 9/7 (Q13) on every row of a row view; see [`fwd53_rows`].
pub fn fwd97_fixed_rows(mut rows: Rows<'_, i32>) {
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        fixed::fwd_97_fixed(rows.row_mut(y), &mut scratch);
    }
}

/// Inverse 9/7 (Q13 fixed point) on every row of `region`.
pub fn inv97_fixed_horizontal(plane: &mut AlignedPlane<i32>, region: Region) {
    let mut rows = Rows::new(plane, region);
    let mut scratch = Vec::new();
    for y in 0..rows.height() {
        fixed::inv_97_fixed(rows.row_mut(y), &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_53_matches_line_per_row() {
        let mut p = AlignedPlane::<i32>::new(9, 3).unwrap();
        p.for_each_mut(|x, y, v| *v = (x * x + y * 13) as i32 - 20);
        let orig = p.clone();
        fwd53_rows(Rows::new(&mut p, Region::full(&orig)));
        let mut s = Vec::new();
        for y in 0..3 {
            let mut row = orig.row(y).to_vec();
            crate::line::fwd_53(&mut row, &mut s);
            assert_eq!(p.row(y), &row[..], "row {y}");
        }
    }

    #[test]
    fn horizontal_53_roundtrip_region() {
        let mut p = AlignedPlane::<i32>::new(16, 4).unwrap();
        p.for_each_mut(|x, y, v| *v = (x * 7 + y) as i32 % 97 - 48);
        let orig = p.clone();
        let region = Region {
            x0: 2,
            y0: 1,
            w: 11,
            h: 2,
        };
        fwd53_rows(Rows::new(&mut p, region));
        inv53_horizontal(&mut p, region);
        assert_eq!(p.to_dense(), orig.to_dense());
    }

    #[test]
    fn horizontal_97_roundtrip() {
        let mut p = AlignedPlane::<f32>::new(33, 5).unwrap();
        p.for_each_mut(|x, y, v| *v = (x as f32 - 16.0) * (y as f32 + 1.0));
        let orig = p.clone();
        fwd97_rows(Rows::new(&mut p, Region::full(&orig)));
        inv97_horizontal(&mut p, Region::full(&orig));
        for (g, e) in p.to_dense().iter().zip(orig.to_dense()) {
            assert!((g - e).abs() < 1e-2);
        }
    }

    #[test]
    fn horizontal_97_fixed_roundtrip() {
        let mut p = AlignedPlane::<i32>::new(17, 4).unwrap();
        p.for_each_mut(|x, y, v| *v = crate::fixed::to_fixed((x * 3) as i32 - (y * 11) as i32));
        let orig = p.clone();
        fwd97_fixed_rows(Rows::new(&mut p, Region::full(&orig)));
        inv97_fixed_horizontal(&mut p, Region::full(&orig));
        for (g, e) in p.to_dense().iter().zip(orig.to_dense()) {
            assert!((crate::fixed::from_fixed(g - e)).abs() <= 1);
        }
    }
}
