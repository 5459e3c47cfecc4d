//! Multi-level 2-D transform and subband geometry.
//!
//! Per resolution level: vertical filtering first, then horizontal (the
//! paper's order, Section 3.1). After both, the region holds the standard
//! quad layout — LL top-left, HL top-right, LH bottom-left, HH bottom-right
//! — and the next level recurses on the LL quadrant.

use crate::rowops::{Region, Rows};
use crate::vertical::{self, VerticalVariant};
use crate::{high_len, horizontal, low_len};
use xpart::AlignedPlane;

/// Subband orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// Low-low (only at the deepest level).
    LL,
    /// Horizontal high-pass (top-right quadrant).
    HL,
    /// Vertical high-pass (bottom-left quadrant).
    LH,
    /// Diagonal (bottom-right quadrant).
    HH,
}

impl Band {
    /// log2 subband gain of the reversible 5/3 path (JPEG2000 Table E.1):
    /// used to size the effective dynamic range per band.
    pub fn gain_log2(self) -> u8 {
        match self {
            Band::LL => 0,
            Band::HL | Band::LH => 1,
            Band::HH => 2,
        }
    }
}

/// One subband rectangle in the transformed plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subband {
    /// Orientation.
    pub band: Band,
    /// Decomposition level this band was produced at (1 = finest/full-res).
    pub level: usize,
    /// Left column in the transformed plane.
    pub x0: usize,
    /// Top row in the transformed plane.
    pub y0: usize,
    /// Width in samples (may be 0 for degenerate extents).
    pub w: usize,
    /// Height in samples.
    pub h: usize,
}

impl Subband {
    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.w * self.h
    }
}

/// Enumerate the subbands of a `levels`-deep Mallat decomposition of a
/// `w x h` plane, deepest LL first, then per level (deep to fine):
/// HL, LH, HH. Degenerate (zero-area) bands are omitted.
pub fn subbands(w: usize, h: usize, levels: usize) -> Vec<Subband> {
    let mut dims = Vec::with_capacity(levels + 1);
    let (mut cw, mut ch) = (w, h);
    dims.push((cw, ch));
    for _ in 0..levels {
        cw = low_len(cw);
        ch = low_len(ch);
        dims.push((cw, ch));
    }
    let mut out = Vec::new();
    let (llw, llh) = dims[levels];
    if llw > 0 && llh > 0 {
        out.push(Subband {
            band: Band::LL,
            level: levels,
            x0: 0,
            y0: 0,
            w: llw,
            h: llh,
        });
    }
    // From deepest produced level down to level 1.
    for lev in (1..=levels).rev() {
        let (pw, ph) = dims[lev - 1]; // extent the level-`lev` transform ran on
        let (lw, lh) = (low_len(pw), low_len(ph));
        let (hw, hh) = (high_len(pw), high_len(ph));
        let bands = [
            (Band::HL, lw, 0, hw, lh),
            (Band::LH, 0, lh, lw, hh),
            (Band::HH, lw, lh, hw, hh),
        ];
        for (band, x0, y0, bw, bh) in bands {
            if bw > 0 && bh > 0 {
                out.push(Subband {
                    band,
                    level: lev,
                    x0,
                    y0,
                    w: bw,
                    h: bh,
                });
            }
        }
    }
    out
}

/// The per-level transform regions, finest first (public so callers can
/// compute reduced-resolution dimensions).
pub fn level_regions(w: usize, h: usize, levels: usize) -> Vec<Region> {
    let (mut cw, mut ch) = (w, h);
    let mut v = Vec::new();
    for _ in 0..levels {
        if cw < 2 && ch < 2 {
            break;
        }
        v.push(Region {
            x0: 0,
            y0: 0,
            w: cw,
            h: ch,
        });
        cw = low_len(cw);
        ch = low_len(ch);
    }
    v
}

/// Forward multi-level reversible 5/3 transform.
pub fn forward_2d_53(plane: &mut AlignedPlane<i32>, levels: usize, variant: VerticalVariant) {
    for r in level_regions(plane.width(), plane.height(), levels) {
        vertical::fwd53_vertical(plane, r, variant);
        horizontal::fwd53_rows(Rows::new(plane, r));
    }
}

/// Inverse multi-level reversible 5/3 transform.
pub fn inverse_2d_53(plane: &mut AlignedPlane<i32>, levels: usize) {
    inverse_2d_53_partial(plane, levels, 0)
}

/// Inverse 5/3 skipping the `skip_finest` finest levels: reconstructs the
/// reduced-resolution image in the top-left `level_dims[skip_finest]`
/// region (resolution-progressive decoding).
pub fn inverse_2d_53_partial(plane: &mut AlignedPlane<i32>, levels: usize, skip_finest: usize) {
    let regions = level_regions(plane.width(), plane.height(), levels);
    for r in regions.into_iter().skip(skip_finest).rev() {
        horizontal::inv53_horizontal(plane, r);
        vertical::inv53_vertical(plane, r);
    }
}

/// Forward multi-level irreversible 9/7 transform (f32).
pub fn forward_2d_97(plane: &mut AlignedPlane<f32>, levels: usize, variant: VerticalVariant) {
    for r in level_regions(plane.width(), plane.height(), levels) {
        vertical::fwd97_vertical::<f32>(plane, r, variant);
        horizontal::fwd97_rows(Rows::new(plane, r));
    }
}

/// Inverse multi-level irreversible 9/7 transform (f32).
pub fn inverse_2d_97(plane: &mut AlignedPlane<f32>, levels: usize) {
    inverse_2d_97_partial(plane, levels, 0)
}

/// Inverse 9/7 skipping the `skip_finest` finest levels (see
/// [`inverse_2d_53_partial`]).
pub fn inverse_2d_97_partial(plane: &mut AlignedPlane<f32>, levels: usize, skip_finest: usize) {
    let regions = level_regions(plane.width(), plane.height(), levels);
    for r in regions.into_iter().skip(skip_finest).rev() {
        horizontal::inv97_horizontal(plane, r);
        vertical::inv97_vertical::<f32>(plane, r);
    }
}

/// Forward multi-level 9/7 in Q13 fixed point (Jasper's representation; the
/// samples must already be Q13, see [`crate::fixed::to_fixed`]).
pub fn forward_2d_97_fixed(plane: &mut AlignedPlane<i32>, levels: usize, variant: VerticalVariant) {
    for r in level_regions(plane.width(), plane.height(), levels) {
        vertical::fwd97_vertical::<i32>(plane, r, variant);
        horizontal::fwd97_fixed_rows(Rows::new(plane, r));
    }
}

/// Inverse multi-level 9/7 in Q13 fixed point.
pub fn inverse_2d_97_fixed(plane: &mut AlignedPlane<i32>, levels: usize) {
    for r in level_regions(plane.width(), plane.height(), levels)
        .into_iter()
        .rev()
    {
        horizontal::inv97_fixed_horizontal(plane, r);
        vertical::inv97_vertical::<i32>(plane, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(w: usize, h: usize) -> AlignedPlane<i32> {
        let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
        let mut x: u32 = (w * 131 + h) as u32 | 1;
        p.for_each_mut(|_, _, v| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = ((x >> 9) % 256) as i32 - 128;
        });
        p
    }

    #[test]
    fn subband_geometry_64x64_3_levels() {
        let sb = subbands(64, 64, 3);
        assert_eq!(sb.len(), 10);
        assert_eq!(sb[0].band, Band::LL);
        assert_eq!((sb[0].w, sb[0].h), (8, 8));
        // Level 3 bands are 8x8, level 1 bands are 32x32.
        let hh1 = sb
            .iter()
            .find(|s| s.band == Band::HH && s.level == 1)
            .unwrap();
        assert_eq!((hh1.x0, hh1.y0, hh1.w, hh1.h), (32, 32, 32, 32));
        let hl3 = sb
            .iter()
            .find(|s| s.band == Band::HL && s.level == 3)
            .unwrap();
        assert_eq!((hl3.x0, hl3.y0, hl3.w, hl3.h), (8, 0, 8, 8));
        // Subband areas tile the plane exactly.
        let total: usize = sb.iter().map(Subband::samples).sum();
        assert_eq!(total, 64 * 64);
    }

    #[test]
    fn subband_geometry_odd_extents_tile_exactly() {
        for (w, h, l) in [
            (13usize, 9usize, 2usize),
            (7, 7, 3),
            (100, 33, 5),
            (1, 17, 2),
        ] {
            let sb = subbands(w, h, l);
            let total: usize = sb.iter().map(Subband::samples).sum();
            assert_eq!(total, w * h, "{w}x{h} levels {l}");
        }
    }

    #[test]
    fn roundtrip_53_multilevel() {
        for (w, h, l) in [
            (64usize, 64usize, 5usize),
            (13, 9, 2),
            (33, 65, 3),
            (8, 8, 1),
        ] {
            let p0 = make(w, h);
            for variant in [
                VerticalVariant::Separate,
                VerticalVariant::Interleaved,
                VerticalVariant::Merged,
            ] {
                let mut p = p0.clone();
                forward_2d_53(&mut p, l, variant);
                inverse_2d_53(&mut p, l);
                assert_eq!(p.to_dense(), p0.to_dense(), "{variant:?} {w}x{h} l{l}");
            }
        }
    }

    #[test]
    fn roundtrip_97_multilevel() {
        let p0 = make(48, 36).to_f32();
        let mut p = p0.clone();
        forward_2d_97(&mut p, 3, VerticalVariant::Merged);
        inverse_2d_97(&mut p, 3);
        for (g, e) in p.to_dense().iter().zip(p0.to_dense()) {
            assert!((g - e).abs() < 0.05, "{g} vs {e}");
        }
    }

    #[test]
    fn roundtrip_97_fixed_multilevel() {
        let p0 = make(32, 24);
        let q0 = p0.map(crate::fixed::to_fixed);
        let mut q = q0.clone();
        forward_2d_97_fixed(&mut q, 3, VerticalVariant::Merged);
        inverse_2d_97_fixed(&mut q, 3);
        for (g, e) in q.to_dense().iter().zip(p0.to_dense()) {
            let g = crate::fixed::from_fixed(*g);
            assert!((g - e).abs() <= 2, "{g} vs {e}");
        }
    }

    #[test]
    fn variants_agree_multilevel() {
        let p0 = make(40, 28);
        let mut a = p0.clone();
        let mut b = p0.clone();
        let mut c = p0.clone();
        forward_2d_53(&mut a, 3, VerticalVariant::Separate);
        forward_2d_53(&mut b, 3, VerticalVariant::Interleaved);
        forward_2d_53(&mut c, 3, VerticalVariant::Merged);
        assert_eq!(a.to_dense(), b.to_dense());
        assert_eq!(a.to_dense(), c.to_dense());
    }

    #[test]
    fn dwt_compacts_energy_into_ll() {
        // A smooth image must concentrate nearly all energy in the LL band.
        let mut p = AlignedPlane::<f32>::new(64, 64).unwrap();
        p.for_each_mut(|x, y, v| {
            *v = ((x as f32) / 9.0).sin() * 50.0 + ((y as f32) / 11.0).cos() * 50.0
        });
        forward_2d_97(&mut p, 3, VerticalVariant::Merged);
        // With the DC-gain-1 normalization a smooth image keeps its
        // amplitude in LL while detail bands stay near zero, so LL should
        // dominate the *transformed* energy.
        let total: f64 = p.to_dense().iter().map(|&v| (v as f64) * (v as f64)).sum();
        let mut ll = 0f64;
        for y in 0..8 {
            for x in 0..8 {
                let v = p.get(x, y) as f64;
                ll += v * v;
            }
        }
        assert!(
            ll / total > 0.9,
            "LL share of transformed energy {}",
            ll / total
        );
    }

    #[test]
    fn partial_inverse_reconstructs_reduced_resolution() {
        // Skipping the finest level must reproduce exactly what a full
        // forward transform of the half-size image's LL would invert to:
        // verify that full forward + partial inverse leaves the top-left
        // quadrant equal to forward-with-one-fewer-levels + full inverse
        // of the nested region.
        let p0 = make(32, 24);
        let mut full = p0.clone();
        forward_2d_53(&mut full, 3, VerticalVariant::Merged);
        let mut partial = full.clone();
        inverse_2d_53_partial(&mut partial, 3, 1);
        // Invert the same coefficients fully, then re-forward one level:
        // the level-1 LL must equal the partial reconstruction's quadrant.
        let mut fullinv = full.clone();
        inverse_2d_53(&mut fullinv, 3);
        let mut refwd = fullinv.clone();
        forward_2d_53(&mut refwd, 1, VerticalVariant::Merged);
        for y in 0..12 {
            for x in 0..16 {
                assert_eq!(partial.get(x, y), refwd.get(x, y), "({x},{y})");
            }
        }
    }
}
