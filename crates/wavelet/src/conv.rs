//! Convolution-based 9/7 analysis — the baseline Muta et al. use.
//!
//! Direct FIR filtering with the CDF 9/7 analysis taps and whole-sample
//! symmetric extension. Produces the same coefficients as the lifting
//! implementation (within floating-point noise) but performs ~2x the
//! arithmetic — the paper credits part of its DWT advantage to "adopting a
//! lifting based scheme instead of a convolution based scheme".

use crate::{high_len, low_len};

/// CDF 9/7 analysis low-pass taps, `h[-4..=4]`.
pub const ANALYSIS_LO: [f32; 9] = [
    0.026_748_757,
    -0.016_864_118,
    -0.078_223_266,
    0.266_864_12,
    0.602_949_f32,
    0.266_864_12,
    -0.078_223_266,
    -0.016_864_118,
    0.026_748_757,
];

/// CDF 9/7 analysis high-pass taps, `g[-3..=3]` (centered on odd samples).
pub const ANALYSIS_HI: [f32; 7] = [
    0.091_271_76,
    -0.057_543_526,
    -0.591_271_77,
    1.115_087_f32,
    -0.591_271_77,
    -0.057_543_526,
    0.091_271_76,
];

#[inline]
fn mirror(i: isize, n: usize) -> usize {
    let n = n as isize;
    let mut i = i;
    while i < 0 || i >= n {
        if i < 0 {
            i = -i;
        }
        if i >= n {
            i = 2 * (n - 1) - i;
        }
    }
    i as usize
}

/// Forward 9/7 by direct convolution: input interleaved, output
/// deinterleaved (low `[0..nl)`, high `[nl..n)`), matching
/// [`crate::line::fwd_97`] up to floating-point noise and the lifting
/// normalization (lifting low = conv low / K... both paths already include
/// the K normalization, so they agree directly).
#[allow(clippy::needless_range_loop)] // index math mirrors the filter eqn
pub fn fwd_97_conv(x: &[f32], out: &mut Vec<f32>) {
    let n = x.len();
    out.clear();
    out.resize(n, 0.0);
    if n <= 1 {
        out.copy_from_slice(x);
        return;
    }
    let nl = low_len(n);
    let nh = high_len(n);
    for i in 0..nl {
        let center = 2 * i as isize;
        let mut acc = 0.0f32;
        for (t, &c) in ANALYSIS_LO.iter().enumerate() {
            let k = center + t as isize - 4;
            acc += c * x[mirror(k, n)];
        }
        out[i] = acc;
    }
    for i in 0..nh {
        let center = 2 * i as isize + 1;
        let mut acc = 0.0f32;
        for (t, &c) in ANALYSIS_HI.iter().enumerate() {
            let k = center + t as isize - 3;
            acc += c * x[mirror(k, n)];
        }
        out[nl + i] = acc;
    }
}

/// Multiplies-and-adds per output sample of the convolution path
/// (9 + 7 taps over 2 outputs). Used by the cost models.
pub fn conv_macs_per_sample() -> f64 {
    (9.0 + 7.0) / 2.0
}

/// Multiplies-and-adds per output sample of the *fused* lifting path, per
/// filter. The fused/blocked kernels perform every lifting step (and, for
/// 9/7, the K/1/K normalization) in one streaming pass, so arithmetic per
/// sample is schedule-independent:
///
/// * 5/3: 2 lifting steps x 2 MACs over 2 outputs = 2 MACs/sample
///   (no scaling pass);
/// * 9/7: 4 lifting steps x 2 MACs + 2 scale multiplies over 2 outputs
///   = 5 MACs/sample.
///
/// `cellsim` stage costs are derived from these, so they must track the
/// kernels actually shipped.
pub fn lifting_macs_per_sample(filter: crate::Filter) -> f64 {
    match filter {
        crate::Filter::Rev53 => (2.0 * 2.0) / 2.0,
        crate::Filter::Irr97 => (4.0 * 2.0 + 2.0) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line;

    #[test]
    fn taps_have_unit_dc_and_nyquist_gain() {
        let dc: f32 = ANALYSIS_LO.iter().sum();
        assert!((dc - 1.0).abs() < 1e-5, "lo DC {dc}");
        let hi_dc: f32 = ANALYSIS_HI.iter().sum();
        assert!(hi_dc.abs() < 1e-5, "hi DC {hi_dc}");
        let nyq: f32 = ANALYSIS_HI
            .iter()
            .enumerate()
            .map(|(k, &c)| if k % 2 == 0 { -c } else { c })
            .sum();
        assert!((nyq.abs() - 2.0).abs() < 1e-4, "hi Nyquist {nyq}");
    }

    #[test]
    fn convolution_matches_lifting_up_to_normalization() {
        // Lifting output: low = conv_low / K is NOT the case here — both
        // include the K scaling. They must agree within fp noise after
        // accounting for the exact constants.
        let n = 64;
        let x: Vec<f32> = (0..n)
            .map(|i| ((i as f32 * 0.37).sin() * 90.0) + ((i / 7) as f32))
            .collect();
        let mut lifted = x.clone();
        let mut s = Vec::new();
        line::fwd_97(&mut lifted, &mut s);
        let mut conv = Vec::new();
        fwd_97_conv(&x, &mut conv);
        let nl = low_len(n);
        // Determine the per-band ratio empirically on the largest samples —
        // it must be ~1.0 for both bands if normalizations agree.
        for (i, (&c, &l)) in conv.iter().zip(&lifted).enumerate() {
            let band = if i < nl { "low" } else { "high" };
            assert!(
                (c - l).abs() < 0.05 * l.abs().max(1.0),
                "{band} sample {i}: conv {c} vs lifting {l}"
            );
        }
    }

    #[test]
    fn conv_cost_exceeds_lifting_cost() {
        assert!(conv_macs_per_sample() > lifting_macs_per_sample(crate::Filter::Irr97));
        assert!(
            lifting_macs_per_sample(crate::Filter::Irr97)
                > lifting_macs_per_sample(crate::Filter::Rev53)
        );
    }

    #[test]
    fn lifting_macs_track_lift_step_counts() {
        // 5/3 runs 2 lifting steps, 9/7 runs 4 plus the scale pass; one MAC
        // per step per sample pair member.
        assert_eq!(lifting_macs_per_sample(crate::Filter::Rev53), 2.0);
        assert_eq!(lifting_macs_per_sample(crate::Filter::Irr97), 5.0);
    }

    #[test]
    fn conv_single_sample_passthrough() {
        let mut out = Vec::new();
        fwd_97_conv(&[5.0], &mut out);
        assert_eq!(out, vec![5.0]);
    }
}
