//! Deterministic synthetic test images.
//!
//! The paper's photographic test input is unavailable; these generators
//! stand in for it. [`natural_rgb`] is the primary substitute: multi-octave
//! value noise with a 1/f amplitude spectrum (the canonical natural-image
//! statistic) plus sparse edge content, so that EBCOT sees realistic
//! bit-plane activity and the DWT sees realistic energy compaction.

use crate::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Constant-value image (maximally compressible).
pub fn flat(width: usize, height: usize, value: u16) -> Image {
    let mut im = Image::new(width, height, 1, 8).expect("valid geometry");
    let v = value.min(im.max_value());
    for p in &mut im.planes[0] {
        *p = v;
    }
    im
}

/// Smooth diagonal gradient.
pub fn gradient(width: usize, height: usize) -> Image {
    let mut im = Image::new(width, height, 1, 8).expect("valid geometry");
    for y in 0..height {
        for x in 0..width {
            let v = ((x + y) * 255 / (width + height - 1).max(1)) as u16;
            im.planes[0][y * width + x] = v;
        }
    }
    im
}

/// Checkerboard (worst case for the DWT's energy compaction).
pub fn checkerboard(width: usize, height: usize, cell: usize) -> Image {
    let cell = cell.max(1);
    let mut im = Image::new(width, height, 1, 8).expect("valid geometry");
    for y in 0..height {
        for x in 0..width {
            let v = if ((x / cell) + (y / cell)).is_multiple_of(2) {
                230
            } else {
                25
            };
            im.planes[0][y * width + x] = v;
        }
    }
    im
}

/// Uniform random noise (incompressible; EBCOT stress case).
pub fn noise(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut im = Image::new(width, height, 1, 8).expect("valid geometry");
    for p in &mut im.planes[0] {
        *p = rng.gen_range(0..=255);
    }
    im
}

/// One octave of bilinear value noise on a `grid x grid` lattice.
fn value_noise_octave(width: usize, height: usize, grid: usize, rng: &mut StdRng) -> Vec<f32> {
    let gw = grid + 2;
    let lattice: Vec<f32> = (0..gw * gw).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut out = vec![0f32; width * height];
    for y in 0..height {
        let fy = y as f32 / height as f32 * grid as f32;
        let gy = fy as usize;
        let ty = fy - gy as f32;
        for x in 0..width {
            let fx = x as f32 / width as f32 * grid as f32;
            let gx = fx as usize;
            let tx = fx - gx as f32;
            let l = |i: usize, j: usize| lattice[j * gw + i];
            let a = l(gx, gy) * (1.0 - tx) + l(gx + 1, gy) * tx;
            let b = l(gx, gy + 1) * (1.0 - tx) + l(gx + 1, gy + 1) * tx;
            out[y * width + x] = a * (1.0 - ty) + b * ty;
        }
    }
    out
}

/// Natural-image-like grayscale: multi-octave 1/f value noise plus sparse
/// high-contrast edges (rectangles standing in for text/detail).
pub fn natural(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = vec![0f32; width * height];
    let octaves = (width.min(height).max(4) as f32).log2() as usize;
    let mut amp = 1.0f32;
    let mut grid = 2usize;
    for _ in 0..octaves.min(9) {
        let oct = value_noise_octave(width, height, grid, &mut rng);
        for (a, o) in acc.iter_mut().zip(&oct) {
            *a += amp * o;
        }
        amp *= 0.5; // 1/f: amplitude halves as frequency doubles
        grid *= 2;
    }
    // Fine-detail floor: real photographs (the paper's watch-dial image
    // included) carry sensor noise and sub-octave texture that keeps the
    // lowest bit planes active; without it, rate control has nothing to
    // truncate and lossless ratios are unrealistically high.
    for a in acc.iter_mut() {
        let r = rng.gen_range(-1.0f32..1.0);
        *a += 0.045 * r;
    }
    // Sparse edge content: a handful of soft-edged rectangles.
    let nrect = (width * height / 8192).clamp(2, 64);
    for _ in 0..nrect {
        let rw = rng.gen_range(width / 16 + 1..width / 4 + 2).min(width);
        let rh = rng.gen_range(height / 16 + 1..height / 4 + 2).min(height);
        let rx = rng.gen_range(0..width - rw + 1);
        let ry = rng.gen_range(0..height - rh + 1);
        let dv = rng.gen_range(-0.6f32..0.6);
        for y in ry..ry + rh {
            for x in rx..rx + rw {
                acc[y * width + x] += dv;
            }
        }
    }
    // Normalize to 8-bit range.
    let (mut lo, mut hi) = (f32::MAX, f32::MIN);
    for &v in &acc {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-6);
    let mut im = Image::new(width, height, 1, 8).expect("valid geometry");
    for (p, &v) in im.planes[0].iter_mut().zip(&acc) {
        *p = (((v - lo) / span) * 255.0).round() as u16;
    }
    im
}

/// Natural-image-like RGB: a shared luma structure plus per-channel chroma
/// variation, mimicking the strong inter-component correlation of
/// photographs (which is what the RCT/ICT stage exploits).
pub fn natural_rgb(width: usize, height: usize, seed: u64) -> Image {
    let luma = natural(width, height, seed);
    let chroma_a = natural(width, height, seed ^ 0x9E37_79B9_7F4A_7C15);
    let chroma_b = natural(width, height, seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
    let mut im = Image::new(width, height, 3, 8).expect("valid geometry");
    for i in 0..width * height {
        let l = luma.planes[0][i] as f32;
        let ca = (chroma_a.planes[0][i] as f32 - 128.0) * 0.25;
        let cb = (chroma_b.planes[0][i] as f32 - 128.0) * 0.25;
        im.planes[0][i] = (l + ca).clamp(0.0, 255.0) as u16;
        im.planes[1][i] = l as u16;
        im.planes[2][i] = (l + cb).clamp(0.0, 255.0) as u16;
    }
    im
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(natural(32, 24, 7), natural(32, 24, 7));
        assert_ne!(natural(32, 24, 7), natural(32, 24, 8));
        assert_eq!(natural_rgb(16, 16, 1), natural_rgb(16, 16, 1));
    }

    #[test]
    fn natural_uses_full_range() {
        let im = natural(64, 64, 42);
        let lo = *im.planes[0].iter().min().unwrap();
        let hi = *im.planes[0].iter().max().unwrap();
        assert_eq!(lo, 0);
        assert_eq!(hi, 255);
    }

    #[test]
    fn natural_has_1_over_f_spectrum_shape() {
        // Coarse check: mean absolute horizontal gradient should be much
        // smaller than the sample spread (smooth large-scale structure),
        // unlike white noise where they are comparable.
        let im = natural(128, 128, 3);
        let grad: f64 = im.planes[0]
            .chunks(128)
            .flat_map(|row| row.windows(2))
            .map(|w| (w[1] as f64 - w[0] as f64).abs())
            .sum::<f64>()
            / (128.0 * 127.0);
        let noise_im = noise(128, 128, 3);
        let ngrad: f64 = noise_im.planes[0]
            .chunks(128)
            .flat_map(|row| row.windows(2))
            .map(|w| (w[1] as f64 - w[0] as f64).abs())
            .sum::<f64>()
            / (128.0 * 127.0);
        assert!(
            grad * 2.0 < ngrad,
            "natural grad {grad} vs noise grad {ngrad}"
        );
    }

    #[test]
    fn rgb_channels_are_correlated() {
        let im = natural_rgb(64, 64, 9);
        let mean = |p: &[u16]| p.iter().map(|&v| v as f64).sum::<f64>() / p.len() as f64;
        let (mr, mg) = (mean(&im.planes[0]), mean(&im.planes[1]));
        let mut num = 0.0;
        let mut dr = 0.0;
        let mut dg = 0.0;
        for i in 0..im.planes[0].len() {
            let a = im.planes[0][i] as f64 - mr;
            let b = im.planes[1][i] as f64 - mg;
            num += a * b;
            dr += a * a;
            dg += b * b;
        }
        let corr = num / (dr.sqrt() * dg.sqrt());
        assert!(corr > 0.9, "R/G correlation {corr}");
    }

    #[test]
    fn simple_generators() {
        let f = flat(8, 8, 100);
        assert!(f.planes[0].iter().all(|&v| v == 100));
        let g = gradient(16, 16);
        assert!(g.planes[0][0] < g.planes[0][255]);
        let c = checkerboard(8, 8, 2);
        assert_ne!(c.planes[0][0], c.planes[0][2]);
        assert_eq!(c.planes[0][0], c.planes[0][4]);
    }

    #[test]
    fn paper_workload_dimensions() {
        // Don't generate the full 3072^2 in unit tests; just check the raw
        // size arithmetic it is documented to satisfy.
        let im = Image::new(3072, 3072, 3, 8).unwrap();
        let mb = im.raw_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 27.0).abs() < 0.1, "raw size {mb} MB"); // 3*3072^2 = 27 MiB = 28.3 MB decimal
    }
}
