//! 1-D lifting transforms on contiguous signals.
//!
//! These are the reference semantics for everything else in the crate: the
//! vertical variants and the convolution baseline are tested against them.
//!
//! Convention: input is the interleaved signal `x[0..n]` (even indices are
//! the low-pass phase); output is *deinterleaved in place* — low band in
//! `x[0..low_len(n)]`, high band in `x[low_len(n)..n]`. Boundary handling is
//! whole-sample symmetric extension (`x[-1] = x[1]`, `x[n] = x[n-2]`).
//!
//! ## Loop structure
//!
//! The transforms deinterleave *first* and then run every lifting step as a
//! contiguous slice operation over the half-bands (through the
//! [`crate::rowops`] kernels), instead of striding by 2 over the interleaved
//! signal. The arithmetic is unchanged: for the predict-phase steps the
//! interleaved stencil `x[2i+1] ⊕= f(x[2i], x[mirror(2i+2)])` is exactly
//! `high[i] ⊕= f(low[i], low[min(i+1, nl-1)])` in the split domain, and the
//! update-phase stencil `x[2i] ⊕= f(x[mirror(2i-1)], x[mirror(2i+1)])` is
//! `low[i] ⊕= f(high[clamp(i-1)], high[min(i, nh-1)])` — the whole-sample
//! symmetric extension becomes an index clamp because the mirror of an
//! even/odd index always lands on the opposite phase's edge sample. Only
//! the clamped boundary elements (at most two per step) run outside the
//! bulk slice kernel, so the hot loops are stride-1 and vectorize.

use crate::consts::{ALPHA, BETA, DELTA, GAMMA, INV_K, K};
use crate::rowops;
use crate::{high_len, low_len};

/// Symmetric extension of index `i` (as isize) into `0..n`. The bulk loops
/// below bake the mirror into index clamps; this is kept as the reference
/// definition for the tests.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
fn mirror(i: isize, n: usize) -> usize {
    let n = n as isize;
    debug_assert!(n >= 1);
    let mut i = i;
    // One reflection suffices for the lifting stencils used here (|i| < 2n).
    if i < 0 {
        i = -i;
    }
    if i >= n {
        i = 2 * (n - 1) - i;
    }
    debug_assert!((0..n).contains(&i));
    i as usize
}

/// Forward reversible 5/3 transform of one line.
pub fn fwd_53(x: &mut [i32], scratch: &mut Vec<i32>) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    let nl = low_len(n);
    let nh = high_len(n);
    scratch.clear();
    scratch.extend_from_slice(x);
    let (low, high) = x.split_at_mut(nl);
    rowops::deinterleave_i32(scratch, low, high);
    // Predict (high): high[i] -= (low[i] + low[min(i+1, nl-1)]) >> 1.
    let bulk = nh.min(nl - 1);
    rowops::predict53(&mut high[..bulk], &low[..bulk], &low[1..]);
    for i in bulk..nh {
        high[i] -= (low[i] + low[nl - 1]) >> 1;
    }
    // Update (low): low[i] += (high[max(i-1,0)] + high[min(i,nh-1)] + 2) >> 2.
    low[0] += (high[0] + high[0] + 2) >> 2;
    rowops::update53(&mut low[1..nh], &high[..nh - 1], &high[1..]);
    let tail = (high[nh - 1] + high[nh - 1] + 2) >> 2;
    for v in &mut low[nh.max(1)..nl] {
        *v += tail;
    }
}

/// Inverse reversible 5/3 transform of one line.
pub fn inv_53(x: &mut [i32], scratch: &mut Vec<i32>) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    let nl = low_len(n);
    let nh = high_len(n);
    {
        let (low, high) = x.split_at_mut(nl);
        // Undo update.
        low[0] -= (high[0] + high[0] + 2) >> 2;
        rowops::unupdate53(&mut low[1..nh], &high[..nh - 1], &high[1..]);
        let tail = (high[nh - 1] + high[nh - 1] + 2) >> 2;
        for v in &mut low[nh.max(1)..nl] {
            *v -= tail;
        }
        // Undo predict.
        let bulk = nh.min(nl - 1);
        rowops::unpredict53(&mut high[..bulk], &low[..bulk], &low[1..]);
        for i in bulk..nh {
            high[i] += (low[i] + low[nl - 1]) >> 1;
        }
    }
    scratch.clear();
    scratch.extend_from_slice(x);
    let (low, high) = scratch.split_at(nl);
    rowops::interleave_i32(low, high, x);
}

/// One predict-phase 9/7 step over the split bands:
/// `high[i] += c * (low[i] + low[min(i+1, nl-1)])`.
#[inline]
fn lift_hi(low: &[f32], high: &mut [f32], nl: usize, nh: usize, c: f32) {
    let bulk = nh.min(nl - 1);
    rowops::lift_f32(&mut high[..bulk], &low[..bulk], &low[1..], c);
    for i in bulk..nh {
        high[i] += c * (low[i] + low[nl - 1]);
    }
}

/// One update-phase 9/7 step over the split bands:
/// `low[i] += c * (high[max(i-1,0)] + high[min(i, nh-1)])`.
#[inline]
fn lift_lo(low: &mut [f32], high: &[f32], nl: usize, nh: usize, c: f32) {
    low[0] += c * (high[0] + high[0]);
    rowops::lift_f32(&mut low[1..nh], &high[..nh - 1], &high[1..], c);
    let tail = c * (high[nh - 1] + high[nh - 1]);
    for v in &mut low[nh.max(1)..nl] {
        *v += tail;
    }
}

/// Forward irreversible 9/7 transform of one line (single precision, the
/// representation the paper adopts for the SPE).
pub fn fwd_97(x: &mut [f32], scratch: &mut Vec<f32>) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    let nl = low_len(n);
    let nh = high_len(n);
    scratch.clear();
    scratch.extend_from_slice(x);
    let (low, high) = x.split_at_mut(nl);
    rowops::deinterleave_f32(scratch, low, high);
    lift_hi(low, high, nl, nh, ALPHA);
    lift_lo(low, high, nl, nh, BETA);
    lift_hi(low, high, nl, nh, GAMMA);
    lift_lo(low, high, nl, nh, DELTA);
    rowops::scale_f32(low, INV_K);
    rowops::scale_f32(high, K);
}

/// Inverse irreversible 9/7 transform of one line.
pub fn inv_97(x: &mut [f32], scratch: &mut Vec<f32>) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    let nl = low_len(n);
    let nh = high_len(n);
    {
        let (low, high) = x.split_at_mut(nl);
        rowops::scale_f32(low, K);
        rowops::scale_f32(high, INV_K);
        lift_lo(low, high, nl, nh, -DELTA);
        lift_hi(low, high, nl, nh, -GAMMA);
        lift_lo(low, high, nl, nh, -BETA);
        lift_hi(low, high, nl, nh, -ALPHA);
    }
    scratch.clear();
    scratch.extend_from_slice(x);
    let (low, high) = scratch.split_at(nl);
    rowops::interleave_f32(low, high, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_rules() {
        assert_eq!(mirror(-1, 8), 1);
        assert_eq!(mirror(8, 8), 6);
        assert_eq!(mirror(3, 8), 3);
        assert_eq!(mirror(0, 1), 0);
        assert_eq!(mirror(-1, 2), 1);
        assert_eq!(mirror(2, 2), 0);
    }

    #[test]
    fn fwd53_known_answer_constant_signal() {
        // A constant signal has zero high band and unchanged low band.
        let mut x = vec![7i32; 10];
        let mut s = Vec::new();
        fwd_53(&mut x, &mut s);
        assert_eq!(&x[..5], &[7; 5]);
        assert_eq!(&x[5..], &[0; 5]);
    }

    #[test]
    fn fwd53_known_answer_ramp() {
        // Ramp 0..8: predict makes every high sample 0 except the mirrored
        // tail; update adds the small correction to the lows.
        let mut x: Vec<i32> = (0..8).collect();
        let mut s = Vec::new();
        fwd_53(&mut x, &mut s);
        // highs: x1-((x0+x2)/2)=0, 0, 0, x7-((x6+x6mirror)/2)=7-6=1
        assert_eq!(&x[4..], &[0, 0, 0, 1]);
        // lows: x0+(h0*2+2)/4 = 0+0=0; x2,x4 unchanged (+0); x6 += (0+1+2)/4=0
        assert_eq!(&x[..4], &[0, 2, 4, 6]);
    }

    #[test]
    fn roundtrip_53_various_lengths() {
        let mut s = Vec::new();
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 17, 64, 101] {
            let orig: Vec<i32> = (0..n)
                .map(|i| ((i * 2654435761) % 511) as i32 - 255)
                .collect();
            let mut x = orig.clone();
            fwd_53(&mut x, &mut s);
            inv_53(&mut x, &mut s);
            assert_eq!(x, orig, "n={n}");
        }
    }

    #[test]
    fn roundtrip_97_various_lengths() {
        let mut s = Vec::new();
        for n in [1usize, 2, 3, 4, 5, 8, 16, 33, 100] {
            let orig: Vec<f32> = (0..n)
                .map(|i| (((i * 2654435761) % 511) as f32) - 255.0)
                .collect();
            let mut x = orig.clone();
            fwd_97(&mut x, &mut s);
            inv_97(&mut x, &mut s);
            for (a, b) in x.iter().zip(&orig) {
                assert!((a - b).abs() < 1e-2, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fwd97_dc_gain_is_one() {
        let mut x = vec![100.0f32; 64];
        let mut s = Vec::new();
        fwd_97(&mut x, &mut s);
        for &v in &x[..32] {
            assert!((v - 100.0).abs() < 0.05, "low {v}");
        }
        for &v in &x[32..] {
            assert!(v.abs() < 0.05, "high {v}");
        }
    }

    #[test]
    fn white_noise_energy_gain_matches_filter_norms() {
        // The JPEG2000 normalization (low DC gain 1, high Nyquist gain 2) is
        // NOT orthonormal — per-band L2 gains are compensated later by the
        // quantizer. On white noise the energy gain equals
        // (|h_lo|^2 + |h_hi|^2) / 2, which for these filters is ~1.7.
        let hash = |i: u32| {
            let mut v = i.wrapping_mul(0x9E37_79B1);
            v ^= v >> 16;
            v = v.wrapping_mul(0x85EB_CA6B);
            v ^= v >> 13;
            v
        };
        let mut x: Vec<f32> = (0..4096u32)
            .map(|i| hash(i) as f32 / u32::MAX as f32 - 0.5)
            .collect();
        let e0: f32 = x.iter().map(|v| v * v).sum();
        let mut s = Vec::new();
        fwd_97(&mut x, &mut s);
        let e1: f32 = x.iter().map(|v| v * v).sum();
        let expected = (crate::conv::ANALYSIS_LO.iter().map(|c| c * c).sum::<f32>()
            + crate::conv::ANALYSIS_HI.iter().map(|c| c * c).sum::<f32>())
            / 2.0;
        assert!(
            (e1 / e0 - expected).abs() < 0.1 * expected,
            "energy ratio {} expected {expected}",
            e1 / e0
        );
    }

    #[test]
    fn deinterleave_interleave_inverse() {
        for n in [2usize, 3, 9, 10] {
            let orig: Vec<i32> = (0..n as i32).collect();
            let nl = low_len(n);
            let mut low = vec![0; nl];
            let mut high = vec![0; n - nl];
            rowops::deinterleave_i32(&orig, &mut low, &mut high);
            let mut back = vec![0; n];
            rowops::interleave_i32(&low, &high, &mut back);
            assert_eq!(back, orig);
        }
    }

    #[test]
    fn fwd53_matches_interleaved_mirror_reference() {
        // The clamped-index split-band loops must reproduce the textbook
        // interleaved stencil with whole-sample symmetric extension exactly.
        for n in 2..=33usize {
            let orig: Vec<i32> = (0..n)
                .map(|i| ((i * 2654435761) % 521) as i32 - 260)
                .collect();
            // Reference: stride-2 loops over the interleaved signal.
            let mut r = orig.clone();
            let mut k = 1;
            while k < n {
                let a = r[mirror(k as isize - 1, n)];
                let b = r[mirror(k as isize + 1, n)];
                r[k] -= (a + b) >> 1;
                k += 2;
            }
            let mut k = 0;
            while k < n {
                let a = r[mirror(k as isize - 1, n)];
                let b = r[mirror(k as isize + 1, n)];
                r[k] += (a + b + 2) >> 2;
                k += 2;
            }
            let evens = r.iter().step_by(2);
            let want: Vec<i32> = evens.chain(r.iter().skip(1).step_by(2)).copied().collect();

            let mut got = orig.clone();
            let mut s = Vec::new();
            fwd_53(&mut got, &mut s);
            assert_eq!(got, want, "n={n}");
        }
    }
}
