//! Numerically computed L2 norms of the synthesis basis functions.
//!
//! The JPEG2000 normalization used here (low DC gain 1, high Nyquist gain 2)
//! is not orthonormal, so a unit quantization error on a coefficient at
//! depth `d` produces `‖basis‖₂` units of error in the image domain. Rate
//! control and quantizer step selection weight distortion by these norms.
//! Rather than hard-coding the textbook table we compute the norms once by
//! running the actual inverse transform on unit impulses — this stays
//! correct even if the lifting constants change.

use crate::line;
use crate::{high_len, low_len};
use std::sync::OnceLock;

/// Maximum decomposition depth for which norms are tabulated.
pub const MAX_LEVELS: usize = 10;

/// 1-D synthesis L2 norms `(low[d], high[d])` for depths `1..=MAX_LEVELS`
/// (index 0 = depth 1).
fn norms_1d_97() -> &'static [(f64, f64); MAX_LEVELS] {
    static CELL: OnceLock<[(f64, f64); MAX_LEVELS]> = OnceLock::new();
    CELL.get_or_init(|| {
        let n = 1usize << (MAX_LEVELS + 4);
        let mut out = [(0.0, 0.0); MAX_LEVELS];
        let mut scratch = Vec::new();
        for d in 1..=MAX_LEVELS {
            for (hi, slot) in [(false, 0usize), (true, 1)] {
                // Band extents after d levels of 1-D decomposition of n.
                let band_lo = n >> d;
                let (start, len) = if hi {
                    (band_lo, (n >> (d - 1)) - band_lo)
                } else {
                    (0, band_lo)
                };
                let mut x = vec![0.0f32; n];
                x[start + len / 2] = 1.0;
                // Invert from the deepest level out, like inverse_2d.
                for lev in (1..=d).rev() {
                    let extent = n >> (lev - 1);
                    line::inv_97(&mut x[..extent], &mut scratch);
                }
                let norm = x
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum::<f64>()
                    .sqrt();
                if slot == 0 {
                    out[d - 1].0 = norm;
                } else {
                    out[d - 1].1 = norm;
                }
            }
        }
        out
    })
}

/// L2 norm of the 2-D 9/7 synthesis basis for a coefficient of the given
/// band at depth `level` (1 = finest). Separable product of the 1-D norms.
pub fn l2_norm_97(band: crate::Band, level: usize) -> f64 {
    let level = level.clamp(1, MAX_LEVELS);
    let (lo, hi) = norms_1d_97()[level - 1];
    match band {
        crate::Band::LL => lo * lo,
        crate::Band::HL | crate::Band::LH => lo * hi,
        crate::Band::HH => hi * hi,
    }
}

/// L2 norm for the reversible 5/3 path (used only to weight distortion in
/// lossless-progressive contexts; computed the same way).
pub fn l2_norm_53(band: crate::Band, level: usize) -> f64 {
    static CELL: OnceLock<[(f64, f64); MAX_LEVELS]> = OnceLock::new();
    let norms = CELL.get_or_init(|| {
        let n = 1usize << (MAX_LEVELS + 4);
        let mut out = [(0.0, 0.0); MAX_LEVELS];
        let mut scratch = Vec::new();
        for d in 1..=MAX_LEVELS {
            for (hi, slot) in [(false, 0usize), (true, 1)] {
                let band_lo = n >> d;
                let (start, len) = if hi {
                    (band_lo, (n >> (d - 1)) - band_lo)
                } else {
                    (0, band_lo)
                };
                // Use a large impulse so integer lifting rounding is
                // negligible relative to the basis shape.
                let amp = 1 << 16;
                let mut x = vec![0i32; n];
                x[start + len / 2] = amp;
                for lev in (1..=d).rev() {
                    let extent = n >> (lev - 1);
                    line::inv_53(&mut x[..extent], &mut scratch);
                }
                let norm = x
                    .iter()
                    .map(|&v| {
                        let f = v as f64 / amp as f64;
                        f * f
                    })
                    .sum::<f64>()
                    .sqrt();
                if slot == 0 {
                    out[d - 1].0 = norm;
                } else {
                    out[d - 1].1 = norm;
                }
            }
        }
        out
    });
    let level = level.clamp(1, MAX_LEVELS);
    let (lo, hi) = norms[level - 1];
    match band {
        crate::Band::LL => lo * lo,
        crate::Band::HL | crate::Band::LH => lo * hi,
        crate::Band::HH => hi * hi,
    }
}

/// Sanity helper exposing the raw 1-D norms (used by tests and docs).
pub fn norms_1d(level: usize) -> (f64, f64) {
    norms_1d_97()[level.clamp(1, MAX_LEVELS) - 1]
}

#[allow(unused)]
fn band_extent_check(n: usize, d: usize) -> (usize, usize) {
    // Verify the shift arithmetic agrees with low_len/high_len for powers
    // of two (compile-time documentation; exercised in tests).
    let mut e = n;
    for _ in 0..d {
        e = low_len(e);
    }
    (e, high_len(e * 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Band;

    #[test]
    fn depth1_norms_match_pinned_values() {
        // Pinned values for *this* normalization (analysis low DC gain 1,
        // high Nyquist gain 2). The corresponding 5/3 norms below come out
        // as the textbook 1.5 / 0.71875, validating the methodology; the
        // 9/7 values differ from tables that assume the sqrt(2) analysis
        // convention only by that normalization factor.
        let (lo, hi) = norms_1d(1);
        assert!((lo - 1.4021).abs() < 0.01, "lo {lo}");
        assert!((hi - 0.7213).abs() < 0.01, "hi {hi}");
    }

    #[test]
    fn depth1_53_norms_are_textbook() {
        assert!((l2_norm_53(Band::LL, 1) - 1.5).abs() < 1e-3);
        assert!((l2_norm_53(Band::HH, 1) - 0.71875).abs() < 1e-2);
    }

    #[test]
    fn norms_grow_with_depth() {
        for d in 2..=5 {
            let (lo_d, _) = norms_1d(d);
            let (lo_p, _) = norms_1d(d - 1);
            assert!(lo_d > lo_p, "depth {d}: {lo_d} <= {lo_p}");
        }
    }

    #[test]
    fn band_norm_ordering() {
        for d in 1..=5 {
            assert!(l2_norm_97(Band::LL, d) >= l2_norm_97(Band::HL, d));
            assert!(l2_norm_97(Band::HL, d) >= l2_norm_97(Band::HH, d));
            assert_eq!(l2_norm_97(Band::HL, d), l2_norm_97(Band::LH, d));
            assert!(l2_norm_97(Band::HH, d) > 0.0);
        }
        // Depth-1 LL = (1-D low norm)^2 ~ 1.4021^2.
        assert!((l2_norm_97(Band::LL, 1) - 1.4021 * 1.4021).abs() < 0.03);
    }

    #[test]
    fn norms_53_positive_and_ordered() {
        for d in 1..=5 {
            assert!(l2_norm_53(Band::HH, d) > 0.0);
            assert!(l2_norm_53(Band::LL, d) >= l2_norm_53(Band::HH, d));
        }
    }
}
