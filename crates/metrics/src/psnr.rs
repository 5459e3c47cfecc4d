//! Mean-squared error and peak signal-to-noise ratio.
//!
//! The PSNR peak comes from the *reference* image's bit depth (the `a`
//! argument), matching the convention of the encoder's rate-distortion
//! machinery: an 8-bit reference scores against 255 even if the decoder
//! widened the representation.

use crate::comparator::MetricsError;
use imgio::Image;

/// Mean squared error of one component plane pair.
pub fn mse_plane(a: &Image, b: &Image, comp: usize) -> Result<f64, MetricsError> {
    crate::check_geometry(a, b)?;
    let pa = &a.planes[comp];
    let pb = &b.planes[comp];
    let acc: f64 = pa
        .iter()
        .zip(pb)
        .map(|(&va, &vb)| {
            let d = va as f64 - vb as f64;
            d * d
        })
        .sum();
    Ok(acc / pa.len() as f64)
}

/// Mean squared error across all components.
pub fn mse(a: &Image, b: &Image) -> Result<f64, MetricsError> {
    crate::check_geometry(a, b)?;
    let mut acc = 0.0;
    for c in 0..a.comps() {
        acc += mse_plane(a, b, c)?;
    }
    Ok(acc / a.comps() as f64)
}

/// PSNR of one component plane pair in dB; `f64::INFINITY` when the
/// planes are identical.
pub fn psnr_plane(a: &Image, b: &Image, comp: usize) -> Result<f64, MetricsError> {
    Ok(psnr_from_mse(mse_plane(a, b, comp)?, a.max_value()))
}

/// PSNR across all components in dB; `f64::INFINITY` for identical
/// images.
pub fn psnr(a: &Image, b: &Image) -> Result<f64, MetricsError> {
    Ok(psnr_from_mse(mse(a, b)?, a.max_value()))
}

/// Largest absolute sample difference across all components.
pub fn max_abs_err(a: &Image, b: &Image) -> Result<u16, MetricsError> {
    crate::check_geometry(a, b)?;
    let mut worst = 0u16;
    for (pa, pb) in a.planes.iter().zip(&b.planes) {
        for (&va, &vb) in pa.iter().zip(pb) {
            worst = worst.max(va.abs_diff(vb));
        }
    }
    Ok(worst)
}

pub(crate) fn psnr_from_mse(mse: f64, peak: u16) -> f64 {
    if mse == 0.0 {
        return f64::INFINITY;
    }
    let p = peak as f64;
    10.0 * (p * p / mse).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgio::synth;

    #[test]
    fn identical_images_are_infinite() {
        let im = synth::natural(16, 16, 1);
        assert_eq!(mse(&im, &im).unwrap(), 0.0);
        assert_eq!(psnr(&im, &im).unwrap(), f64::INFINITY);
        assert_eq!(max_abs_err(&im, &im).unwrap(), 0);
    }

    #[test]
    fn known_error_matches_closed_form() {
        let a = synth::flat(4, 4, 100);
        let b = synth::flat(4, 4, 110);
        assert_eq!(mse(&a, &b).unwrap(), 100.0);
        let p = psnr(&a, &b).unwrap();
        assert!((p - 10.0 * (255.0f64 * 255.0 / 100.0).log10()).abs() < 1e-9);
        assert_eq!(max_abs_err(&a, &b).unwrap(), 10);
    }

    #[test]
    fn per_plane_localizes_damage() {
        let a = synth::natural_rgb(24, 24, 7);
        let mut b = a.clone();
        for v in &mut b.planes[2] {
            *v = v.saturating_add(20);
        }
        assert_eq!(psnr_plane(&a, &b, 0).unwrap(), f64::INFINITY);
        assert_eq!(psnr_plane(&a, &b, 1).unwrap(), f64::INFINITY);
        assert!(psnr_plane(&a, &b, 2).unwrap() < 30.0);
    }

    #[test]
    fn geometry_mismatch_is_typed() {
        let a = synth::flat(4, 4, 0);
        let b = synth::flat(4, 5, 0);
        assert!(matches!(mse(&a, &b), Err(MetricsError::Geometry(_))));
        assert!(psnr(&a, &synth::natural_rgb(4, 4, 0)).is_err());
    }

    #[test]
    fn peak_follows_reference_depth() {
        let mut a = imgio::Image::new(4, 4, 1, 12).unwrap();
        let mut b = a.clone();
        a.planes[0].fill(2000);
        b.planes[0].fill(2010);
        // Same MSE as the 8-bit case, but a 4095 peak: +24.1 dB.
        let p12 = psnr(&a, &b).unwrap();
        let p8 = 10.0 * (255.0f64 * 255.0 / 100.0).log10();
        assert!((p12 - p8 - 20.0 * (4095.0f64 / 255.0).log10()).abs() < 1e-9);
    }
}
