//! Overload pressure controller: deterministic classification of service
//! load as [`Nominal`](PressureLevel::Nominal) /
//! [`Elevated`](PressureLevel::Elevated) /
//! [`Critical`](PressureLevel::Critical), with hysteresis.
//!
//! The paper's Cell port survives saturation because every stage runs
//! inside a fixed resource envelope (constant Local Store, static chunk
//! widths). The daemon's envelope is enforced here: the controller
//! samples three *measured* signals —
//!
//! * **queue depth** as a fraction of the admission bound,
//! * **queue-wait p95** over the window since the previous sample
//!   (a bucket-wise delta of the cumulative `queue_wait_us` histogram),
//! * **in-flight pixels** against a configurable budget (the accountant
//!   lives here; [`PixelReservation`] releases on job completion) —
//!
//! and classifies the worst of them. Escalation is immediate (one bad
//! sample raises the level); de-escalation is damped twice over:
//! signals must clear the thresholds scaled down by a fixed hysteresis
//! factor (0.75) for [`PressureConfig::cool_samples`] consecutive
//! samples, and the level steps down one notch at a time.
//! Without that band, a queue hovering at the threshold would flap the
//! admission policy every sample — exactly the oscillation Benoit et
//! al.'s bi-criteria framing says to trade away (see DESIGN.md §16).
//!
//! Determinism: the controller never sleeps and never reads the wall
//! clock directly — time comes from an injectable [`Clock`]
//! ([`ManualClock`] in tests), and all state transitions happen inside
//! explicit [`PressureController::sample`] calls placed at admission and
//! job-completion points, so a test drives the controller entirely with
//! synchronous calls.

use obs::hist::{bucket_upper, HistogramSnapshot, BUCKETS};
use obs::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fraction of [`PressureConfig::pixel_budget`] at which pressure is
/// Elevated.
const ELEVATED_PIXEL_FRAC: f64 = 0.75;
/// Fraction of [`PressureConfig::pixel_budget`] at which pressure is
/// Critical.
const CRITICAL_PIXEL_FRAC: f64 = 0.95;
/// De-escalation band: to step down, every signal must sit below
/// `threshold * HYSTERESIS` (strictly < 1.0, or the band vanishes).
const HYSTERESIS: f64 = 0.75;
/// Queue-wait delta windows with fewer samples than this contribute no
/// wait signal (too noisy to act on).
const MIN_WAIT_WINDOW: u64 = 4;

/// A monotonic time source. Injectable so pressure tests advance time
/// synchronously instead of sleeping.
pub trait Clock: Send + Sync {
    /// Current instant on this clock.
    fn now(&self) -> Instant;
}

/// The real monotonic clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A clock that only moves when told to ([`advance`](Self::advance)).
#[derive(Debug)]
pub struct ManualClock {
    now: Mutex<Instant>,
}

impl ManualClock {
    /// A manual clock anchored at the real "now"; only `advance` moves it.
    pub fn new() -> ManualClock {
        ManualClock {
            now: Mutex::new(Instant::now()),
        }
    }

    /// Move the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        *self.now.lock().unwrap_or_else(|e| e.into_inner()) += d;
    }

    /// A `(handle, clock)` pair: hand the handle to a
    /// [`PressureConfig`], keep the clock to drive time.
    pub fn handle() -> (ClockHandle, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (ClockHandle(Arc::clone(&clock) as Arc<dyn Clock>), clock)
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        *self.now.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Shared, cloneable handle to a [`Clock`]. Defaults to [`SystemClock`].
#[derive(Clone)]
pub struct ClockHandle(pub Arc<dyn Clock>);

impl ClockHandle {
    /// Current instant on the wrapped clock.
    pub fn now(&self) -> Instant {
        self.0.now()
    }
}

impl Default for ClockHandle {
    fn default() -> Self {
        ClockHandle(Arc::new(SystemClock))
    }
}

impl std::fmt::Debug for ClockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClockHandle(..)")
    }
}

/// Service pressure classification, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum PressureLevel {
    /// Signals below every threshold: admit everything.
    Nominal = 0,
    /// At least one signal past its elevated threshold: shed low-priority
    /// work, downgrade opt-in jobs to the cheap coder.
    Elevated = 1,
    /// At least one signal past its critical threshold: only
    /// high-priority work is admitted and the accept loop sheds new
    /// connections.
    Critical = 2,
}

impl PressureLevel {
    /// Wire/metrics encoding (0/1/2).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`as_u8`](Self::as_u8); out-of-range values are `None`.
    pub fn from_u8(v: u8) -> Option<PressureLevel> {
        match v {
            0 => Some(PressureLevel::Nominal),
            1 => Some(PressureLevel::Elevated),
            2 => Some(PressureLevel::Critical),
            _ => None,
        }
    }

    /// Lower-case name for logs and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Nominal => "nominal",
            PressureLevel::Elevated => "elevated",
            PressureLevel::Critical => "critical",
        }
    }

    fn step_down(self) -> PressureLevel {
        match self {
            PressureLevel::Nominal | PressureLevel::Elevated => PressureLevel::Nominal,
            PressureLevel::Critical => PressureLevel::Elevated,
        }
    }
}

/// Thresholds and damping of a [`PressureController`].
#[derive(Debug, Clone)]
pub struct PressureConfig {
    /// Queue depth / capacity fraction at which pressure is Elevated.
    pub elevated_depth: f64,
    /// Queue depth / capacity fraction at which pressure is Critical.
    pub critical_depth: f64,
    /// Windowed queue-wait p95 (µs) at which pressure is Elevated.
    pub elevated_wait_p95_us: u64,
    /// Windowed queue-wait p95 (µs) at which pressure is Critical.
    pub critical_wait_p95_us: u64,
    /// In-flight pixel budget; `u64::MAX` disables the pixel signal and
    /// the hard admission gate. Pressure is Elevated at 75% of it and
    /// Critical at 95%.
    pub pixel_budget: u64,
    /// Consecutive calm samples required per downward step.
    pub cool_samples: u32,
    /// Minimum clock time between full re-classifications; samples inside
    /// the interval return the cached level. Zero re-classifies every
    /// call (deterministic tests).
    pub min_sample_interval: Duration,
    /// Time source; swap in a [`ManualClock`] for tests.
    pub clock: ClockHandle,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            elevated_depth: 0.75,
            critical_depth: 0.95,
            elevated_wait_p95_us: 750_000,
            critical_wait_p95_us: 3_000_000,
            pixel_budget: u64::MAX,
            cool_samples: 2,
            min_sample_interval: Duration::from_millis(25),
            clock: ClockHandle::default(),
        }
    }
}

struct CtlState {
    last_sample: Option<Instant>,
    /// Cumulative queue-wait buckets at the previous sample; the current
    /// window's distribution is the bucket-wise difference.
    last_wait_buckets: [u64; BUCKETS],
    last_wait_count: u64,
    calm_streak: u32,
}

/// The controller. Cheap to share (`Arc`); `level` reads are lock-free.
pub struct PressureController {
    cfg: PressureConfig,
    level: AtomicU64,
    transitions: AtomicU64,
    pixels: AtomicU64,
    state: Mutex<CtlState>,
}

impl PressureController {
    /// A controller at Nominal with zero pixels in flight.
    pub fn new(cfg: PressureConfig) -> PressureController {
        PressureController {
            cfg,
            level: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            pixels: AtomicU64::new(0),
            state: Mutex::new(CtlState {
                last_sample: None,
                last_wait_buckets: [0; BUCKETS],
                last_wait_count: 0,
                calm_streak: 0,
            }),
        }
    }

    /// Last classified level (no re-sampling).
    pub fn level(&self) -> PressureLevel {
        PressureLevel::from_u8(self.level.load(Ordering::Relaxed) as u8)
            .unwrap_or(PressureLevel::Nominal)
    }

    /// Level transitions since start (each up- or down-step counts one).
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Pixels currently admitted and not yet completed.
    pub fn pixels_in_flight(&self) -> u64 {
        self.pixels.load(Ordering::Relaxed)
    }

    /// `retry_after_ms` hint attached to jobs shed at Elevated.
    pub const RETRY_AFTER_ELEVATED_MS: u64 = 250;
    /// `retry_after_ms` hint attached to jobs shed at Critical.
    pub const RETRY_AFTER_CRITICAL_MS: u64 = 1000;

    /// The backoff hint to attach to a shed job at the current level.
    pub fn retry_after_ms(&self) -> u64 {
        match self.level() {
            PressureLevel::Critical => Self::RETRY_AFTER_CRITICAL_MS,
            _ => Self::RETRY_AFTER_ELEVATED_MS,
        }
    }

    /// Hard admission gate on the pixel envelope: a job of `pixels` may
    /// be admitted unless it would push in-flight pixels past the budget.
    /// An oversized job is still admissible when nothing is in flight, so
    /// no job is permanently unadmittable.
    pub fn pixels_admittable(&self, pixels: u64) -> bool {
        if self.cfg.pixel_budget == u64::MAX {
            return true;
        }
        let in_flight = self.pixels.load(Ordering::Relaxed);
        in_flight == 0 || in_flight.saturating_add(pixels) <= self.cfg.pixel_budget
    }

    fn add_pixels(&self, n: u64) {
        self.pixels.fetch_add(n, Ordering::Relaxed);
    }

    fn remove_pixels(&self, n: u64) {
        self.pixels.fetch_sub(n, Ordering::Relaxed);
    }

    /// Instantaneous classification of the signals against thresholds
    /// scaled by `scale` (1.0 when deciding to raise, [`HYSTERESIS`] when
    /// deciding whether things are calm enough to step down).
    fn raw_level(&self, depth_frac: f64, wait_p95_us: u64, scale: f64) -> PressureLevel {
        let c = &self.cfg;
        let pixel_frac = if c.pixel_budget == u64::MAX {
            0.0
        } else {
            self.pixels.load(Ordering::Relaxed) as f64 / c.pixel_budget.max(1) as f64
        };
        let wait = wait_p95_us as f64;
        if depth_frac >= c.critical_depth * scale
            || wait >= c.critical_wait_p95_us as f64 * scale
            || pixel_frac >= CRITICAL_PIXEL_FRAC * scale
        {
            PressureLevel::Critical
        } else if depth_frac >= c.elevated_depth * scale
            || wait >= c.elevated_wait_p95_us as f64 * scale
            || pixel_frac >= ELEVATED_PIXEL_FRAC * scale
        {
            PressureLevel::Elevated
        } else {
            PressureLevel::Nominal
        }
    }

    /// Re-classify pressure from the signals. Rate-limited by
    /// [`PressureConfig::min_sample_interval`]; calls inside the interval
    /// return the cached level untouched. `wait` is the *cumulative*
    /// queue-wait histogram — the controller windows it internally.
    pub fn sample(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        wait: &HistogramSnapshot,
    ) -> PressureLevel {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let now = self.cfg.clock.now();
        if let Some(last) = st.last_sample {
            if now.duration_since(last) < self.cfg.min_sample_interval {
                return self.level();
            }
        }
        st.last_sample = Some(now);

        // Queue-wait p95 over the window since the previous sample.
        let mut delta = [0u64; BUCKETS];
        let mut delta_count = 0u64;
        for (i, d) in delta.iter_mut().enumerate() {
            *d = wait.buckets[i].saturating_sub(st.last_wait_buckets[i]);
            delta_count += *d;
        }
        st.last_wait_buckets = wait.buckets;
        st.last_wait_count = wait.count;
        let wait_p95_us = if delta_count < MIN_WAIT_WINDOW {
            0
        } else {
            let rank = ((0.95 * delta_count as f64).ceil() as u64).clamp(1, delta_count);
            let mut seen = 0u64;
            let mut p = 0u64;
            for (i, &n) in delta.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    p = bucket_upper(i);
                    break;
                }
            }
            p
        };

        let depth_frac = queue_depth as f64 / queue_capacity.max(1) as f64;
        let cur = self.level();
        let raise = self.raw_level(depth_frac, wait_p95_us, 1.0);
        let next = if raise > cur {
            st.calm_streak = 0;
            raise
        } else {
            let calm = self.raw_level(depth_frac, wait_p95_us, HYSTERESIS);
            if calm < cur {
                st.calm_streak += 1;
                if st.calm_streak >= self.cfg.cool_samples.max(1) {
                    st.calm_streak = 0;
                    cur.step_down()
                } else {
                    cur
                }
            } else {
                st.calm_streak = 0;
                cur
            }
        };
        if next != cur {
            self.level.store(u64::from(next.as_u8()), Ordering::Relaxed);
            self.transitions.fetch_add(1, Ordering::Relaxed);
            trace::instant_for(
                0,
                "pressure-level",
                &[
                    ("from", u64::from(cur.as_u8())),
                    ("to", u64::from(next.as_u8())),
                ],
            );
        }
        next
    }
}

impl std::fmt::Debug for PressureController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PressureController")
            .field("level", &self.level())
            .field("transitions", &self.transitions())
            .field("pixels_in_flight", &self.pixels_in_flight())
            .finish()
    }
}

/// RAII share of the in-flight pixel budget: created at admission,
/// released when the job reaches a terminal state (explicitly, before
/// the waiter wakes, with the owning task's drop as the backstop), so
/// crash retries and poisoned jobs can never leak budget.
pub struct PixelReservation {
    ctl: Arc<PressureController>,
    pixels: u64,
}

impl PixelReservation {
    /// Reserve `pixels` against `ctl`'s accountant.
    pub fn new(ctl: Arc<PressureController>, pixels: u64) -> PixelReservation {
        ctl.add_pixels(pixels);
        PixelReservation { ctl, pixels }
    }

    /// The reserved pixel count.
    pub fn pixels(&self) -> u64 {
        self.pixels
    }
}

impl Drop for PixelReservation {
    fn drop(&mut self) {
        self.ctl.remove_pixels(self.pixels);
    }
}

impl std::fmt::Debug for PixelReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PixelReservation({})", self.pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::hist::Histogram;

    fn cfg(clock: ClockHandle) -> PressureConfig {
        PressureConfig {
            elevated_depth: 0.5,
            critical_depth: 0.9,
            elevated_wait_p95_us: 1_000,
            critical_wait_p95_us: 10_000,
            cool_samples: 2,
            min_sample_interval: Duration::ZERO,
            clock,
            ..PressureConfig::default()
        }
    }

    fn empty_wait() -> HistogramSnapshot {
        Histogram::new().snapshot()
    }

    #[test]
    fn depth_raises_immediately_and_cools_with_hysteresis() {
        let (clock, _mc) = ManualClock::handle();
        let ctl = PressureController::new(cfg(clock));
        assert_eq!(ctl.level(), PressureLevel::Nominal);

        // 10/20 >= 0.5: one sample raises to Elevated.
        assert_eq!(ctl.sample(10, 20, &empty_wait()), PressureLevel::Elevated);
        // 20/20 >= 0.9: straight to Critical (multi-step raise is one
        // sample).
        assert_eq!(ctl.sample(20, 20, &empty_wait()), PressureLevel::Critical);
        assert_eq!(ctl.transitions(), 2);

        // 14/20 = 0.7 >= critical * HYSTERESIS = 0.675: inside the
        // hysteresis band, the level holds.
        assert_eq!(ctl.sample(14, 20, &empty_wait()), PressureLevel::Critical);
        // 12/20 = 0.6 < 0.675: calm relative to Critical — but one calm
        // sample is not enough (cool_samples = 2)...
        assert_eq!(ctl.sample(12, 20, &empty_wait()), PressureLevel::Critical);
        // ...the second steps down ONE level, not straight to Nominal.
        assert_eq!(ctl.sample(12, 20, &empty_wait()), PressureLevel::Elevated);
        // 0.6 >= elevated * HYSTERESIS = 0.375: Elevated now holds; only
        // samples below 0.375 cool further.
        ctl.sample(12, 20, &empty_wait());
        assert_eq!(ctl.level(), PressureLevel::Elevated);
        ctl.sample(7, 20, &empty_wait());
        assert_eq!(ctl.sample(7, 20, &empty_wait()), PressureLevel::Nominal);
        assert_eq!(ctl.transitions(), 4);
    }

    #[test]
    fn calm_streak_resets_on_a_loud_sample() {
        let (clock, _mc) = ManualClock::handle();
        let ctl = PressureController::new(cfg(clock));
        ctl.sample(6, 10, &empty_wait()); // Elevated
        ctl.sample(0, 10, &empty_wait()); // calm 1/2
        ctl.sample(4, 10, &empty_wait()); // loud (0.4 >= 0.375): streak resets
        ctl.sample(0, 10, &empty_wait()); // calm 1/2 again
        assert_eq!(ctl.level(), PressureLevel::Elevated);
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Nominal);
    }

    #[test]
    fn wait_p95_is_windowed_not_cumulative() {
        let (clock, _mc) = ManualClock::handle();
        let ctl = PressureController::new(cfg(clock));
        let h = Histogram::new();
        // A slow historical window...
        for _ in 0..10 {
            h.record(50_000);
        }
        assert_eq!(
            ctl.sample(0, 10, &h.snapshot()),
            PressureLevel::Critical,
            "first window sees the slow samples"
        );
        // ...followed by fast windows: the cumulative histogram still
        // holds the old samples, but the delta is fast, so the
        // controller cools. (cool_samples = 2, one step per streak.)
        for _ in 0..10 {
            h.record(10);
        }
        ctl.sample(0, 10, &h.snapshot());
        ctl.sample(0, 10, &h.snapshot());
        ctl.sample(0, 10, &h.snapshot());
        assert_eq!(ctl.sample(0, 10, &h.snapshot()), PressureLevel::Nominal);
    }

    #[test]
    fn tiny_wait_windows_are_ignored() {
        let (clock, _mc) = ManualClock::handle();
        let ctl = PressureController::new(cfg(clock));
        let h = Histogram::new();
        // Absurd samples, one fewer than MIN_WAIT_WINDOW: no wait signal.
        for _ in 1..MIN_WAIT_WINDOW {
            h.record(1 << 40);
        }
        assert_eq!(ctl.sample(0, 10, &h.snapshot()), PressureLevel::Nominal);
        // A full window of them is a signal.
        for _ in 0..MIN_WAIT_WINDOW {
            h.record(1 << 40);
        }
        assert_eq!(ctl.sample(0, 10, &h.snapshot()), PressureLevel::Critical);
    }

    #[test]
    fn sample_interval_returns_cached_level() {
        let (clock, mc) = ManualClock::handle();
        let mut c = cfg(clock);
        c.min_sample_interval = Duration::from_millis(100);
        let ctl = PressureController::new(c);
        assert_eq!(ctl.sample(10, 10, &empty_wait()), PressureLevel::Critical);
        // Inside the interval the depth change is invisible.
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Critical);
        mc.advance(Duration::from_millis(101));
        // Past the interval the calm streak starts counting.
        ctl.sample(0, 10, &empty_wait());
        mc.advance(Duration::from_millis(101));
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Elevated);
    }

    #[test]
    fn pixel_budget_drives_pressure_and_admission() {
        let (clock, _mc) = ManualClock::handle();
        let mut c = cfg(clock);
        c.pixel_budget = 1000;
        let ctl = Arc::new(PressureController::new(c));
        assert!(
            ctl.pixels_admittable(5000),
            "empty accountant admits even oversized jobs"
        );
        let r0 = PixelReservation::new(Arc::clone(&ctl), 740);
        // 0.74 of the budget < ELEVATED_PIXEL_FRAC (0.75).
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Nominal);
        drop(r0);
        let r1 = PixelReservation::new(Arc::clone(&ctl), 760);
        assert_eq!(ctl.pixels_in_flight(), 760);
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Elevated);
        assert!(!ctl.pixels_admittable(241), "241..: past the budget");
        assert!(ctl.pixels_admittable(240));
        let r2 = PixelReservation::new(Arc::clone(&ctl), 200);
        // 0.96 >= CRITICAL_PIXEL_FRAC (0.95).
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Critical);
        drop(r1);
        drop(r2);
        assert_eq!(ctl.pixels_in_flight(), 0);
        ctl.sample(0, 10, &empty_wait());
        assert_eq!(ctl.sample(0, 10, &empty_wait()), PressureLevel::Elevated);
    }

    #[test]
    fn retry_hint_tracks_level() {
        let (clock, _mc) = ManualClock::handle();
        let ctl = PressureController::new(cfg(clock));
        assert_eq!(ctl.retry_after_ms(), 250);
        ctl.sample(10, 10, &empty_wait());
        assert_eq!(ctl.retry_after_ms(), 1000);
    }

    #[test]
    fn level_codec_roundtrip() {
        for l in [
            PressureLevel::Nominal,
            PressureLevel::Elevated,
            PressureLevel::Critical,
        ] {
            assert_eq!(PressureLevel::from_u8(l.as_u8()), Some(l));
        }
        assert_eq!(PressureLevel::from_u8(3), None);
        assert!(PressureLevel::Critical > PressureLevel::Elevated);
        assert_eq!(PressureLevel::Critical.step_down(), PressureLevel::Elevated);
        assert_eq!(PressureLevel::Nominal.step_down(), PressureLevel::Nominal);
    }
}
