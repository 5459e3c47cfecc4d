//! Cost-model honesty checks: the analytic traffic model, the cache-blocked
//! drivers, and the `obs::counters` byte denominators must tell the same
//! story about how much data one vertical pass moves.
//!
//! Lives in its own integration binary because enabling the process-global
//! kernel counters would race with unrelated tests in a shared process.

use std::sync::{Mutex, MutexGuard};
use wavelet::rowops::Region;
use wavelet::vertical::{fwd53_vertical, fwd97_vertical, VERT_GROUP_DEFAULT};
use wavelet::{vertical_traffic, Filter, VerticalVariant};
use xpart::AlignedPlane;

/// The harness runs tests on parallel threads and the counters are
/// process-global, so every test that enables, resets or reads them holds
/// this lock for its whole body. Each test resets the counters before it
/// reads them, so one that fails while holding the lock leaves nothing for
/// the next to repair.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    COUNTERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn make_plane(w: usize, h: usize) -> AlignedPlane<i32> {
    let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
    let mut x = 1u32;
    p.for_each_mut(|_, _, v| {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        *v = ((x >> 8) % 511) as i32 - 255;
    });
    p
}

fn snap(kernel: obs::counters::Kernel) -> obs::counters::KernelSnapshot {
    obs::counters::snapshot()
        .into_iter()
        .find(|s| s.kernel == kernel)
        .unwrap()
}

/// The counter denominator is *payload* bytes (`samples x elem_size`), and
/// the analytic traffic model relates to it through the variant's DMA
/// factor. Both must agree on a known plane — this is what keeps reported
/// GB/s comparable across variants and PR baselines.
#[test]
fn counter_bytes_agree_with_traffic_model() {
    let _lock = counters_lock();
    let (w, h) = (100usize, 64usize);
    obs::counters::set_enabled(true);

    // 5/3, merged: one fused pass plus the aux half-band staging.
    obs::counters::reset();
    let mut p = make_plane(w, h);
    let full = Region::full(&p);
    fwd53_vertical(&mut p, full, VerticalVariant::Merged);
    let s = snap(obs::counters::Kernel::Dwt53Vertical);
    assert_eq!(s.invocations, 1);
    assert_eq!(s.samples, (w * h) as u64);
    assert_eq!(s.bytes, (w * h * std::mem::size_of::<i32>()) as u64);

    let t = vertical_traffic(VerticalVariant::Merged, Filter::Rev53, w as u64, h as u64);
    // Model total (elements, both directions) = payload samples x 2 x factor.
    let factor = t.total() as f64 / (2.0 * s.samples as f64);
    assert!((1.0..=3.0).contains(&factor), "factor {factor}");
    let model_bytes = t.total() * std::mem::size_of::<i32>() as u64;
    let counter_derived = (s.bytes as f64 * 2.0 * factor).round() as u64;
    assert_eq!(model_bytes, counter_derived);

    // 9/7 f32: same payload accounting, independent of the filter's extra
    // lifting arithmetic.
    obs::counters::reset();
    let mut q = make_plane(w, h).to_f32();
    let fullq = Region::full(&q);
    fwd97_vertical(&mut q, fullq, VerticalVariant::Merged);
    let s97 = snap(obs::counters::Kernel::Dwt97Vertical);
    assert_eq!(s97.samples, (w * h) as u64);
    assert_eq!(s97.bytes, (w * h * std::mem::size_of::<f32>()) as u64);

    obs::counters::set_enabled(false);
}

/// Counters measure the whole blocked driver once: a plane wider than the
/// column-group width must still record exactly one invocation and the full
/// payload (not per-group fragments).
#[test]
fn blocked_driver_records_single_invocation() {
    let _lock = counters_lock();
    let g = VERT_GROUP_DEFAULT;
    let (w, h) = (2 * g + 3, 12);
    obs::counters::set_enabled(true);
    obs::counters::reset();
    let mut p = make_plane(w, h);
    let full = Region::full(&p);
    fwd53_vertical(&mut p, full, VerticalVariant::Merged);
    let s = snap(obs::counters::Kernel::Dwt53Vertical);
    assert_eq!(s.invocations, 1, "one measure for the whole blocked pass");
    assert_eq!(s.samples, (w * h) as u64);
    assert_eq!(s.bytes, (w * h * 4) as u64);
    obs::counters::set_enabled(false);
}

/// Column-group blocking must not change the analytic traffic: the model is
/// linear in width, so any exact tiling of the region sums to the full-width
/// number for every variant/filter combination.
#[test]
fn traffic_model_invariant_under_column_blocking() {
    let h = 64u64;
    for filter in [Filter::Rev53, Filter::Irr97] {
        for variant in [
            VerticalVariant::Separate,
            VerticalVariant::Interleaved,
            VerticalVariant::Merged,
        ] {
            let whole = vertical_traffic(variant, filter, 1000, h);
            for gw in [1u64, 3, 64, 256, 999] {
                let mut sum = wavelet::Traffic::default();
                let mut x0 = 0;
                while x0 < 1000 {
                    let w = gw.min(1000 - x0);
                    sum = sum.add(&vertical_traffic(variant, filter, w, h));
                    x0 += w;
                }
                assert_eq!(sum, whole, "{variant:?} {filter:?} gw={gw}");
            }
        }
    }
}
