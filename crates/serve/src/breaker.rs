//! Client-side circuit breaker for daemon clients (`serve_load`, the
//! future shard router).
//!
//! A well-behaved fleet client must stop hammering an overloaded
//! server: after [`BreakerConfig::failure_threshold`] consecutive
//! failures the breaker *opens* and [`CircuitBreaker::poll`] refuses
//! sends for a cool-down period (exponential per consecutive open,
//! capped, and never shorter than the server's `retry_after_ms` hint).
//! When the cool-down elapses the breaker goes *half-open*: exactly one
//! probe request is allowed through; its success closes the breaker,
//! its failure re-opens it with a doubled cool-down.
//!
//! The breaker is single-client state (`&mut self`) and takes its time
//! from an injectable [`Clock`](crate::pressure::Clock), so tests drive
//! it with a [`ManualClock`](crate::pressure::ManualClock) and zero sleeps.

use crate::pressure::ClockHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Cool-down after the first open; doubles per consecutive open.
    pub open_base: Duration,
    /// Upper bound on the cool-down.
    pub open_max: Duration,
    /// Time source; swap in a [`crate::pressure::ManualClock`] in tests.
    pub clock: ClockHandle,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_base: Duration::from_millis(100),
            open_max: Duration::from_secs(5),
            clock: ClockHandle::default(),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are refused until the cool-down deadline.
    Open,
    /// Cool-down elapsed; one probe is in flight.
    HalfOpen,
}

/// The breaker. One per client connection identity.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    consecutive_opens: u32,
    opens: u64,
    open_until: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            consecutive_opens: 0,
            opens: 0,
            open_until: None,
        }
    }

    /// Current state, transitioning Open→HalfOpen if the cool-down has
    /// elapsed.
    pub fn state(&mut self) -> BreakerState {
        if self.state == BreakerState::Open {
            if let Some(until) = self.open_until {
                if self.cfg.clock.now() >= until {
                    self.state = BreakerState::HalfOpen;
                }
            }
        }
        self.state
    }

    /// Times the breaker has opened over its lifetime.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// May a request be sent now? `Ok(())` permits the send (Closed, or
    /// the single HalfOpen probe); `Err(wait)` is the remaining
    /// cool-down.
    pub fn poll(&mut self) -> Result<(), Duration> {
        match self.state() {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let now = self.cfg.clock.now();
                let until = self.open_until.unwrap_or(now);
                Err(until.saturating_duration_since(now))
            }
        }
    }

    /// Record a successful request: closes the breaker and clears all
    /// failure history.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.consecutive_opens = 0;
        self.open_until = None;
    }

    /// Record a failed request. `hint` is the server's `retry_after_ms`
    /// (when the failure was an `Overloaded` rejection); an open
    /// cool-down is never shorter than the hint.
    pub fn on_failure(&mut self, hint: Option<Duration>) {
        match self.state() {
            BreakerState::HalfOpen => self.trip(hint),
            BreakerState::Open => {} // already refusing; nothing to count
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold.max(1) {
                    self.trip(hint);
                }
            }
        }
    }

    fn trip(&mut self, hint: Option<Duration>) {
        self.consecutive_opens = self.consecutive_opens.saturating_add(1);
        self.opens += 1;
        let exp = self.consecutive_opens.min(32) - 1;
        let backoff = self
            .cfg
            .open_base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cfg.open_max)
            .max(hint.unwrap_or(Duration::ZERO));
        self.state = BreakerState::Open;
        self.open_until = Some(self.cfg.clock.now() + backoff);
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::ManualClock;

    fn breaker() -> (CircuitBreaker, std::sync::Arc<ManualClock>) {
        let (clock, mc) = ManualClock::handle();
        let cfg = BreakerConfig {
            failure_threshold: 3,
            open_base: Duration::from_millis(100),
            open_max: Duration::from_millis(400),
            clock,
        };
        (CircuitBreaker::new(cfg), mc)
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let (mut b, _mc) = breaker();
        b.on_failure(None);
        b.on_failure(None);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_success(); // success resets the streak
        b.on_failure(None);
        b.on_failure(None);
        assert_eq!(b.poll(), Ok(()));
        b.on_failure(None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert_eq!(b.poll(), Err(Duration::from_millis(100)));
    }

    #[test]
    fn half_open_probe_success_closes() {
        let (mut b, mc) = breaker();
        for _ in 0..3 {
            b.on_failure(None);
        }
        mc.advance(Duration::from_millis(100));
        assert_eq!(b.poll(), Ok(()), "half-open admits one probe");
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Back to closed: it takes a full threshold to trip again.
        b.on_failure(None);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_reopens_with_doubled_backoff() {
        let (mut b, mc) = breaker();
        for _ in 0..3 {
            b.on_failure(None);
        }
        mc.advance(Duration::from_millis(100));
        assert_eq!(b.poll(), Ok(()));
        b.on_failure(None); // probe failed
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert_eq!(b.poll(), Err(Duration::from_millis(200)), "backoff doubled");
        mc.advance(Duration::from_millis(200));
        b.poll().unwrap();
        b.on_failure(None);
        mc.advance(Duration::from_millis(400));
        b.poll().unwrap();
        b.on_failure(None);
        // Capped at open_max.
        assert_eq!(b.poll(), Err(Duration::from_millis(400)));
    }

    #[test]
    fn retry_after_hint_extends_the_cooldown() {
        let (mut b, mc) = breaker();
        for _ in 0..2 {
            b.on_failure(None);
        }
        b.on_failure(Some(Duration::from_millis(900)));
        assert_eq!(
            b.poll(),
            Err(Duration::from_millis(900)),
            "hint > base wins"
        );
        mc.advance(Duration::from_millis(900));
        assert_eq!(b.poll(), Ok(()));
    }

    #[test]
    fn failures_while_open_do_not_extend_or_recount() {
        let (mut b, mc) = breaker();
        for _ in 0..3 {
            b.on_failure(None);
        }
        b.on_failure(None);
        b.on_failure(None);
        assert_eq!(b.opens(), 1);
        assert_eq!(b.poll(), Err(Duration::from_millis(100)));
        mc.advance(Duration::from_millis(50));
        assert_eq!(b.poll(), Err(Duration::from_millis(50)));
    }
}
