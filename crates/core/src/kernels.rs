//! Row-granular MCT / level-shift / quantization kernels.
//!
//! Every kernel is one safe slice loop shaped so that LLVM vectorizes it.
//! The row quantizer [`quantize_row`] is bit-identical to the per-element
//! [`crate::quant::quantize`], which is its reference in the tests.

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

/// Forward ICT with level shift: integer R/G/B rows in, float Y/Cb/Cr out.
#[allow(clippy::too_many_arguments)]
pub fn ict_forward_row(
    r: &[i32],
    g: &[i32],
    b: &[i32],
    yy: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
    shift: f32,
) {
    let n = r.len().min(g.len()).min(b.len());
    for i in 0..n {
        let rv = r[i] as f32 - shift;
        let gv = g[i] as f32 - shift;
        let bv = b[i] as f32 - shift;
        yy[i] = 0.299 * rv + 0.587 * gv + 0.114 * bv;
        cb[i] = -0.168_736 * rv - 0.331_264 * gv + 0.5 * bv;
        cr[i] = 0.5 * rv - 0.418_688 * gv - 0.081_312 * bv;
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
}
