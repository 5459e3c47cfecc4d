//! Row-granular MCT / level-shift / quantization kernels, forward for the
//! encoder and inverse for the decoder's output stage.
//!
//! Every kernel is one safe slice loop shaped so that LLVM vectorizes it.
//! The row quantizer [`quantize_row`] and dequantizer [`dequantize_row`]
//! are bit-identical to the per-element [`crate::quant::quantize`] and
//! [`crate::quant::dequantize`], and [`round_half_away`] to
//! `f32::round() as i32`; those are their references in the tests.

/// Forward RCT with level shift, in place on three component rows.
pub fn rct_forward_row(r: &mut [i32], g: &mut [i32], b: &mut [i32], shift: i32) {
    let n = r.len().min(g.len()).min(b.len());
    for i in 0..n {
        let rv = r[i] - shift;
        let gv = g[i] - shift;
        let bv = b[i] - shift;
        r[i] = (rv + 2 * gv + bv) >> 2;
        g[i] = bv - gv;
        b[i] = rv - gv;
    }
}

/// Inverse RCT with level unshift, in place (Y/U/V rows become R/G/B).
pub fn rct_inverse_row(y: &mut [i32], u: &mut [i32], v: &mut [i32], shift: i32) {
    let n = y.len().min(u.len()).min(v.len());
    for i in 0..n {
        let g = y[i] - ((u[i] + v[i]) >> 2);
        let r = v[i] + g;
        let b = u[i] + g;
        y[i] = r + shift;
        u[i] = g + shift;
        v[i] = b + shift;
    }
}

/// Forward ICT with level shift: integer R/G/B rows in (`i32` working
/// samples or `u16` image samples, widened to `i32` first), float
/// Y/Cb/Cr out.
#[allow(clippy::too_many_arguments)]
pub fn ict_forward_row<T: Copy + Into<i32>>(
    r: &[T],
    g: &[T],
    b: &[T],
    yy: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
    shift: f32,
) {
    let n = r.len().min(g.len()).min(b.len());
    for i in 0..n {
        let rv = r[i].into() as f32 - shift;
        let gv = g[i].into() as f32 - shift;
        let bv = b[i].into() as f32 - shift;
        yy[i] = 0.299 * rv + 0.587 * gv + 0.114 * bv;
        cb[i] = -0.168_736 * rv - 0.331_264 * gv + 0.5 * bv;
        cr[i] = 0.5 * rv - 0.418_688 * gv - 0.081_312 * bv;
    }
}

/// Inverse ICT with level unshift: float Y/Cb/Cr rows in, rounded integer
/// R/G/B rows out. Per sample this is `(yy + 1.402 * cr + shift).round()`
/// and its two twins, evaluated in the same `f32` order.
#[allow(clippy::too_many_arguments)]
pub fn ict_inverse_row(
    yy: &[f32],
    cb: &[f32],
    cr: &[f32],
    r: &mut [i32],
    g: &mut [i32],
    b: &mut [i32],
    shift: f32,
) {
    let n = yy.len().min(cb.len()).min(cr.len());
    let (yy, cb, cr) = (&yy[..n], &cb[..n], &cr[..n]);
    let (r, g, b) = (&mut r[..n], &mut g[..n], &mut b[..n]);
    for i in 0..n {
        let (y, u, v) = (yy[i], cb[i], cr[i]);
        r[i] = round_half_away(y + 1.402 * v + shift);
        g[i] = round_half_away(y - 0.344_136 * u - 0.714_136 * v + shift);
        b[i] = round_half_away(y + 1.772 * u + shift);
    }
}

/// Round half away from zero: exactly `v.round() as i32` for every `f32`,
/// NaN giving 0 and out-of-range values saturating. At the baseline
/// x86-64 target `f32::round` is a `roundf` libm call; this is a few
/// inline instructions.
///
/// `v as i32` truncates toward zero. Below 2^31 in magnitude that is exact
/// and so is the dropped fraction `v - t`, which lies in (-1, 1); the
/// result steps one away from zero when the fraction is at least ½. A
/// saturated truncation leaves a "fraction" of 0, ±∞ or at least 256 in
/// magnitude, and NaN leaves NaN, so neither ever steps.
#[inline]
pub fn round_half_away(v: f32) -> i32 {
    let t = v as i32;
    let f = v - t as f32;
    t + i32::from((0.5..1.0).contains(&f)) - i32::from((0.5..1.0).contains(&-f))
}

/// Round a row of `f32` samples to integers with [`round_half_away`].
pub fn round_row(src: &[f32], dst: &mut [i32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = round_half_away(v);
    }
}

/// Level unshift, clamp to `[0, maxv]` and narrow a row of integer samples
/// into image samples: `(v + shift).clamp(0, maxv) as u16`, the add
/// wrapping.
pub fn unshift_clamp_row(src: &[i32], dst: &mut [u16], shift: i32, maxv: i32) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v.wrapping_add(shift).clamp(0, maxv) as u16;
    }
}

/// Level shift a row in place: `v -= shift`.
pub fn level_shift_row(row: &mut [i32], shift: i32) {
    for v in row.iter_mut() {
        *v -= shift;
    }
}

/// Dead-zone quantize a row of `f32` coefficients into `i32` indices,
/// bit-identical to [`crate::quant::quantize`] on every element.
///
/// The reference's saturating `f64 -> i64` cast does not vectorize, so the
/// quotient `|v| / delta` is clamped to `[0, i32::MAX]` first (NaN and
/// negative quotients become 0) and then truncated by the 2^52 trick:
/// adding 2^52 rounds it to the nearest integer, which lands in the low
/// mantissa bits, and 1 is taken off where that rounding went up. The sign
/// of `v` is re-applied as `(t ^ m) - m`, `m` being all ones for a set
/// sign bit.
#[inline]
pub fn quantize_row(src: &[f32], dst: &mut [i32], delta: f64) {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    for (d, &v) in dst.iter_mut().zip(src) {
        let q = v.abs() as f64 / delta;
        let q = if q >= 0.0 {
            q.min(i32::MAX as f64)
        } else {
            0.0
        };
        let r = q + TWO_52;
        let t = r.to_bits() as u32 as i32 - i32::from(r - TWO_52 > q);
        let m = v.to_bits() as i32 >> 31;
        *d = (t ^ m) - m;
    }
}

/// Mid-point dequantize a row of `i32` indices into `f32` coefficients,
/// bit-identical to [`crate::quant::dequantize`] on every element: zero
/// stays `+0.0`, and `(|q| + ½) · delta` is negated for a negative `q`
/// after the `f64 -> f32` rounding (which is symmetric in sign) by
/// flipping its sign bit, so the loop has no branch.
#[inline]
pub fn dequantize_row(src: &[i32], dst: &mut [f32], delta: f64) {
    for (d, &q) in dst.iter_mut().zip(src) {
        let v = (((q as f64).abs() + 0.5) * delta) as f32;
        let v = f32::from_bits(v.to_bits() ^ (q as u32 & 0x8000_0000));
        *d = if q == 0 { 0.0 } else { v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcg(seed: &mut u64) -> u32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as u32
    }

    fn assert_matches_quantize(src: &[f32], delta: f64) {
        let want: Vec<i32> = src
            .iter()
            .map(|&v| crate::quant::quantize(v, delta))
            .collect();
        let mut got = vec![0i32; src.len()];
        quantize_row(src, &mut got, delta);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "v={:e} delta={delta:e} at {i}", src[i]);
        }
    }

    const DELTAS: [f64; 8] = [
        0.5,
        1.0,
        1e-30,
        0.0,
        -0.5,
        f64::NAN,
        f64::INFINITY,
        1.0 / 3.0,
    ];

    #[test]
    fn quantize_row_matches_quantize_including_edges() {
        let mut src = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1e-45,
            1e30,
            -1e30,
            0.4999,
            -0.4999,
            2147483520.0,
            2147483648.0,
            -2147483648.0,
        ];
        let mut s = 11u64;
        for _ in 0..37 {
            src.push((pcg(&mut s) as i32 % 100000) as f32 * 0.037);
        }
        for delta in DELTAS {
            assert_matches_quantize(&src, delta);
        }
    }

    #[test]
    fn quantize_row_matches_quantize_on_random_bit_patterns() {
        // Raw bit patterns cover every exponent, NaN payload and sign;
        // values just either side of an integer multiple of the step
        // exercise the round-then-correct truncation.
        let mut s = 5u64;
        for delta in DELTAS {
            let src: Vec<f32> = (0..1 << 14)
                .map(|i| {
                    let r = pcg(&mut s);
                    if i % 2 == 0 {
                        f32::from_bits(r)
                    } else {
                        let k = (r >> 8) as f64 * delta.abs().min(1e3);
                        (k as f32 + ((r & 7) as f32 - 3.5) * 1e-6)
                            * if r & 8 == 0 { 1.0 } else { -1.0 }
                    }
                })
                .collect();
            assert_matches_quantize(&src, delta);
        }
    }

    /// `v`, its two `f32` neighbours by bits, and the same three negated.
    fn with_neighbours(v: f32) -> [f32; 6] {
        let up = f32::from_bits(v.to_bits() + 1);
        let down = f32::from_bits(v.to_bits() - 1);
        [v, up, down, -v, -up, -down]
    }

    fn assert_rounds_like_std(v: f32) {
        assert_eq!(
            round_half_away(v),
            v.round() as i32,
            "v = {v:e} (bits {:#010x})",
            v.to_bits()
        );
    }

    #[test]
    fn round_half_away_matches_std_at_halves_and_limits() {
        for half in [0.5f32, 1.5, 2.5] {
            for v in with_neighbours(half) {
                assert_rounds_like_std(v);
            }
        }
        let two_23 = 8_388_608.0f32;
        for v in [
            two_23 - 1.0,
            two_23 + 1.0,
            16_777_216.0,
            2_147_483_648.0,
            f32::MAX,
            f32::INFINITY,
        ] {
            for v in with_neighbours(v) {
                assert_rounds_like_std(v);
            }
        }
        for v in [0.0f32, -0.0, f32::NAN, -f32::NAN, f32::MIN_POSITIVE, 1e-45] {
            assert_rounds_like_std(v);
        }
    }

    #[test]
    fn round_half_away_matches_std_on_a_seeded_sweep() {
        // Raw bit patterns cover every exponent, NaN payload and sign;
        // quarter steps around the sample range land on exact halves.
        let mut s = 3u64;
        for i in 0..1 << 16 {
            let r = pcg(&mut s);
            let v = if i % 2 == 0 {
                f32::from_bits(r)
            } else {
                (r % 8192) as f32 * 0.25 - 1024.0
            };
            assert_rounds_like_std(v);
        }
    }

    #[test]
    fn round_row_matches_to_i32_rounded() {
        let mut s = 9u64;
        let mut src: Vec<f32> = (0..1000)
            .map(|_| (pcg(&mut s) % 4096) as f32 * 0.125 - 256.0)
            .collect();
        src.extend([f32::NAN, f32::INFINITY, -3e9, 2.5, -2.5, 0.499_999_97]);
        let mut got = vec![0i32; src.len()];
        round_row(&src, &mut got);
        let plane = xpart::AlignedPlane::from_dense(src.len(), 1, &src).unwrap();
        assert_eq!(got, plane.to_i32_rounded().to_dense());
    }

    #[test]
    fn dequantize_row_matches_dequantize() {
        let mut src = vec![0i32, 1, -1, 2, -2, i32::MAX, i32::MIN, i32::MIN + 1];
        let mut s = 17u64;
        for i in 0..4096 {
            let r = pcg(&mut s) as i32;
            src.push(if i % 2 == 0 { r } else { r % 5000 });
        }
        for delta in DELTAS.into_iter().chain([-3.25, 1e300, 2f64.powi(-30)]) {
            let mut got = vec![0f32; src.len()];
            dequantize_row(&src, &mut got, delta);
            for (&q, g) in src.iter().zip(&got) {
                let want = crate::quant::dequantize(q, delta);
                assert!(
                    g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                    "q={q} delta={delta:e}: {g:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn ict_inverse_row_matches_per_sample_formula() {
        // The reference is the loop `mct::inverse_ict_shift` had before it
        // moved onto the row kernel.
        let mut s = 23u64;
        let mut yy: Vec<f32> = (0..3000)
            .map(|_| (pcg(&mut s) % 40_000) as f32 * 0.01 - 200.0)
            .collect();
        let mut cb: Vec<f32> = yy.iter().map(|&v| -0.37 * v + 0.5).collect();
        let mut cr: Vec<f32> = yy.iter().map(|&v| 0.61 * v - 1.25).collect();
        for (i, v) in [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3e9,
            -3e9,
            0.5,
            -0.5,
        ]
        .into_iter()
        .enumerate()
        {
            yy[i] = v;
            cb[i + 7] = v;
            cr[i + 14] = v;
        }
        for shift in [128.0f32, 2048.0, 0.0] {
            let n = yy.len();
            let (mut r, mut g, mut b) = (vec![0; n], vec![0; n], vec![0; n]);
            ict_inverse_row(&yy, &cb, &cr, &mut r, &mut g, &mut b, shift);
            for i in 0..n {
                let (y, u, v) = (yy[i], cb[i], cr[i]);
                let rr = y + 1.402 * v;
                let gg = y - 0.344_136 * u - 0.714_136 * v;
                let bb = y + 1.772 * u;
                let want = [
                    (rr + shift).round() as i32,
                    (gg + shift).round() as i32,
                    (bb + shift).round() as i32,
                ];
                assert_eq!([r[i], g[i], b[i]], want, "sample {i}: {y} {u} {v}");
            }
        }
    }

    #[test]
    fn unshift_clamp_row_matches_unshift_then_clamp() {
        // The reference is the decoder's old tail: `mct::level_unshift`
        // (a wrapping `v -= -shift` in release builds), then a per-sample
        // clamp and cast.
        let mut src = vec![0i32, -1, 1, 255, 256, -128, 127, 4095, 65535, 65536];
        src.extend([i32::MIN, i32::MAX, i32::MAX - 100, i32::MIN + 100]);
        let mut s = 31u64;
        src.extend((0..2000).map(|_| (pcg(&mut s) % 100_000) as i32 - 50_000));
        for (shift, maxv) in [(128, 255), (0, 255), (2048, 4095), (32768, 65535)] {
            let mut got = vec![0u16; src.len()];
            unshift_clamp_row(&src, &mut got, shift, maxv);
            for (&v, &g) in src.iter().zip(&got) {
                let want = v.wrapping_sub(-shift).clamp(0, maxv) as u16;
                assert_eq!(g, want, "v={v} shift={shift} maxv={maxv}");
            }
        }
    }
}
