//! `j2k-metrics` — image quality metrics and an A/B comparator
//! (std-only, like the rest of the workspace).
//!
//! The encoder's conformance story is closed-loop: every codestream the
//! test estate pins is *decoded and measured*, not trusted by stored
//! constants. This crate is the measuring instrument:
//!
//! * [`psnr`](mod@psnr) — mean-squared error and peak signal-to-noise ratio,
//!   aggregate and per component;
//! * [`ssim`](mod@ssim) — the Wang et al. structural similarity index (11×11
//!   Gaussian window, σ = 1.5), aggregate and per component;
//! * [`comparator`] — [`compare`] runs the full A/B battery in one pass
//!   and returns a [`Comparison`] with hand-rolled JSON and a human
//!   rendering, used by `j2kcell compare`, the golden-corpus suite, and
//!   the decode bench.
//!
//! All metrics operate on [`imgio::Image`] pairs of identical geometry
//! (width, height, components); geometry mismatches are typed
//! [`MetricsError`]s, never panics, so the comparator can sit directly
//! behind fuzzed decoder output.

pub mod comparator;
pub mod psnr;
pub mod ssim;

pub use comparator::{compare, Comparison, MetricsError, PlaneQuality};
pub use psnr::{max_abs_err, mse, mse_plane, psnr, psnr_plane};
pub use ssim::{ssim, ssim_plane};

/// Check that two images are comparable: identical geometry and
/// component count. Every metric entry point funnels through this.
pub(crate) fn check_geometry(
    a: &imgio::Image,
    b: &imgio::Image,
) -> Result<(), comparator::MetricsError> {
    if a.width != b.width || a.height != b.height || a.comps() != b.comps() {
        return Err(comparator::MetricsError::Geometry(format!(
            "{}x{} x{} vs {}x{} x{}",
            a.width,
            a.height,
            a.comps(),
            b.width,
            b.height,
            b.comps()
        )));
    }
    Ok(())
}
