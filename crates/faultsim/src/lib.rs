//! Deterministic fault injection for the encode pipeline and service.
//!
//! A **failpoint** is a named callsite (`"dwt.level"`, `"tier1.block"`,
//! `"rate.block"`, `"tier2.precinct"`, `"decode.packet"`, `"queue.pop"`,
//! `"wire.read"`, `"wire.stall"`, `"worker.job_start"`, `"ht.quad"`)
//! that production code evaluates on every pass. A test (or an operator running a chaos
//! drill) **arms** a failpoint with a [`FaultSpec`] — *fire action A
//! starting at the Nth hit, T times* — and the callsite then observes an
//! injected error, an injected delay, or a panic at exactly the scheduled
//! hits. Hit counting is global and monotonic per failpoint, so a seeded
//! schedule replays identically: same arms, same submission order, same
//! faults.
//!
//! Two build modes, selected by the `enabled` cargo feature:
//!
//! * **disabled (default)** — every entry point is an `#[inline(always)]`
//!   stub ([`eval`] returns `None`, [`arm`] returns `false`); after
//!   inlining, callsites compile to nothing. Release/bench builds carry
//!   no registry, no mutex, no counters (asserted by this crate's tests
//!   run without features).
//! * **enabled** — a process-global registry keyed by failpoint name.
//!
//! Panic discipline: [`eval`] never panics *while holding the registry
//! lock* — the armed action is decided under the lock, the lock is
//! dropped, and only then does the action run. A failpoint panic
//! therefore never poisons the registry, and the callsites place their
//! evaluations outside their own critical sections for the same reason.

use std::time::Duration;

/// Whether fault injection is compiled into this build.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Surface an injected error to the callsite ([`eval`] returns
    /// `Some(message)`); the callsite maps it into its local error type.
    Error(String),
    /// Panic at the callsite with the given message — the lever for
    /// exercising the service's `catch_unwind` recovery.
    Panic(String),
    /// Sleep for the given duration, then proceed normally — models a
    /// straggling stage or a slow queue claim.
    Delay(Duration),
}

/// One armed rule: fire [`action`](Self::action) on hits `nth ..
/// nth + times` (1-based hit numbering, `times` capped additions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The action to run when the rule fires.
    pub action: FaultAction,
    /// First hit (1-based) on which the rule fires.
    pub nth: u64,
    /// How many consecutive hits fire, starting at `nth`
    /// (`u64::MAX` = every hit from `nth` on).
    pub times: u64,
}

impl FaultSpec {
    /// Fire `action` exactly once, on the very first hit.
    pub fn once(action: FaultAction) -> Self {
        FaultSpec {
            action,
            nth: 1,
            times: 1,
        }
    }

    /// Fire `action` `times` times starting at hit `nth` (1-based).
    pub fn at(action: FaultAction, nth: u64, times: u64) -> Self {
        FaultSpec { action, nth, times }
    }

    /// Whether this spec fires on 1-based hit number `hit`. Only the
    /// enabled registry consults it, but it is part of the spec's
    /// contract in every build (tests exercise it unconditionally).
    pub fn fires_on(&self, hit: u64) -> bool {
        hit >= self.nth && hit - self.nth < self.times
    }
}

/// One entry of a schedule: a failpoint name plus the spec to arm it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Failpoint name.
    pub name: String,
    /// The rule to arm.
    pub spec: FaultSpec,
}

/// Parse a schedule from `name=action[@nth][xTIMES][,...]` where action is
/// `error`, `panic`, or `delay:MS`. Examples: `tier1.block=panic@3`,
/// `worker.job_start=panic@1x2`, `queue.pop=delay:5,dwt.level=error@2`.
/// Parsing is available in every build; arming is a no-op when
/// [`ENABLED`] is false.
pub fn parse_schedule(s: &str) -> Result<Vec<ScheduleEntry>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let (name, rhs) = part
            .split_once('=')
            .ok_or_else(|| format!("`{part}`: expected NAME=ACTION[@N][xT]"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("`{part}`: empty failpoint name"));
        }
        let mut rhs = rhs.trim();
        let mut times = 1u64;
        if let Some((head, t)) = rhs.rsplit_once('x') {
            if let Ok(t) = t.parse::<u64>() {
                times = t.max(1);
                rhs = head;
            }
        }
        let mut nth = 1u64;
        if let Some((head, n)) = rhs.rsplit_once('@') {
            nth = n
                .parse::<u64>()
                .map_err(|_| format!("`{part}`: bad hit number `{n}`"))?
                .max(1);
            rhs = head;
        }
        let action = match rhs {
            "error" => FaultAction::Error(format!("injected error at failpoint {name}")),
            "panic" => FaultAction::Panic(format!("injected panic at failpoint {name}")),
            other => match other.split_once(':') {
                Some(("delay", ms)) => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("`{part}`: bad delay `{ms}`"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                _ => return Err(format!("`{part}`: unknown action `{other}`")),
            },
        };
        out.push(ScheduleEntry {
            name: name.to_string(),
            spec: FaultSpec { action, nth, times },
        });
    }
    Ok(out)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded random schedule over `names`: `events` rules with mixed
/// actions (errors and panics weighted high, short delays capped at
/// `max_delay_ms`), hit numbers in `1..=max_nth`. Deterministic for a
/// given seed — print the seed, and a failing chaos run replays exactly.
pub fn random_schedule(
    seed: u64,
    names: &[&str],
    events: usize,
    max_nth: u64,
    max_delay_ms: u64,
) -> Vec<ScheduleEntry> {
    let mut s = seed;
    let mut out = Vec::with_capacity(events);
    if names.is_empty() {
        return out;
    }
    for _ in 0..events {
        let name = names[(splitmix64(&mut s) % names.len() as u64) as usize];
        let nth = 1 + splitmix64(&mut s) % max_nth.max(1);
        let times = 1 + splitmix64(&mut s) % 2;
        let action = match splitmix64(&mut s) % 4 {
            0 => FaultAction::Delay(Duration::from_millis(
                splitmix64(&mut s) % max_delay_ms.max(1),
            )),
            1 | 2 => FaultAction::Error(format!("chaos error at {name} (seed {seed})")),
            _ => FaultAction::Panic(format!("chaos panic at {name} (seed {seed})")),
        };
        out.push(ScheduleEntry {
            name: name.to_string(),
            spec: FaultSpec { action, nth, times },
        });
    }
    out
}

#[cfg(feature = "enabled")]
mod registry {
    use super::{FaultAction, FaultSpec, ScheduleEntry};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    #[derive(Default)]
    struct FpState {
        hits: u64,
        specs: Vec<FaultSpec>,
    }

    fn reg() -> &'static Mutex<HashMap<String, FpState>> {
        static REG: OnceLock<Mutex<HashMap<String, FpState>>> = OnceLock::new();
        REG.get_or_init(Mutex::default)
    }

    // The registry mutex is never held across user code or a panic, but a
    // *test* thread that panicked between lock() calls may still have
    // poisoned it via an unrelated assert; recover the data either way.
    fn lock() -> std::sync::MutexGuard<'static, HashMap<String, FpState>> {
        reg().lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn arm(name: &str, spec: FaultSpec) -> bool {
        lock().entry(name.to_string()).or_default().specs.push(spec);
        true
    }

    pub fn arm_schedule(entries: &[ScheduleEntry]) -> usize {
        for e in entries {
            arm(&e.name, e.spec.clone());
        }
        entries.len()
    }

    pub fn reset() {
        lock().clear();
    }

    pub fn hits(name: &str) -> u64 {
        lock().get(name).map_or(0, |s| s.hits)
    }

    pub fn eval(name: &str) -> Option<String> {
        // Decide the action under the lock, act after dropping it: a
        // firing Panic or Delay must never hold (or poison) the registry.
        let (action, hit) = {
            let mut g = lock();
            let st = g.entry(name.to_string()).or_default();
            st.hits += 1;
            let hit = st.hits;
            let action = st
                .specs
                .iter()
                .find(|s| s.fires_on(hit))
                .map(|s| s.action.clone());
            (action, hit)
        };
        let action = action?;
        // Record the armed hit *before* the action runs, so panics and
        // delays show up in traces too. Written straight to the global
        // sink (`instant_for`), not the thread-local buffer: a Panic
        // unwinds past any later flush, and the crash handler may
        // export the job's trace before this thread's TLS destructor
        // runs — the direct write makes the hit deterministically
        // visible to whoever drains next.
        if obs::trace::enabled() {
            let kind = match &action {
                FaultAction::Error(_) => 0u64,
                FaultAction::Panic(_) => 1,
                FaultAction::Delay(_) => 2,
            };
            obs::trace::instant_for(
                obs::trace::current(),
                format!("failpoint:{name}"),
                &[("hit", hit), ("kind", kind)],
            );
        }
        match action {
            FaultAction::Error(msg) => Some(msg),
            FaultAction::Panic(msg) => panic!("{msg}"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub use registry::{arm, arm_schedule, eval, hits, reset};

/// Arm `name` with `spec`. No-op returning `false` in disabled builds.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn arm(_name: &str, _spec: FaultSpec) -> bool {
    false
}

/// Arm every entry of a schedule; returns how many were armed (0 when
/// disabled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn arm_schedule(_entries: &[ScheduleEntry]) -> usize {
    0
}

/// Clear every rule and every hit counter.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn reset() {}

/// Times `name` has been evaluated since the last [`reset`] (0 when
/// disabled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hits(_name: &str) -> u64 {
    0
}

/// Evaluate the failpoint `name`: count the hit and run any rule armed
/// for it. Returns `Some(message)` for an injected error (the callsite
/// maps it into its own error type), panics for an injected panic, and
/// sleeps then returns `None` for an injected delay. In disabled builds
/// this is an inlined `None` — zero cost at every callsite.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn eval(_name: &str) -> Option<String> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_schedule_grammar() {
        let s =
            parse_schedule("tier1.block=panic@3,queue.pop=delay:5,dwt.level=error@2x4").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "tier1.block");
        assert_eq!(s[0].spec.nth, 3);
        assert!(matches!(s[0].spec.action, FaultAction::Panic(_)));
        assert_eq!(
            s[1].spec.action,
            FaultAction::Delay(Duration::from_millis(5))
        );
        assert_eq!((s[2].spec.nth, s[2].spec.times), (2, 4));
        assert!(parse_schedule("nope").is_err());
        assert!(parse_schedule("a=explode").is_err());
        assert!(parse_schedule("").unwrap().is_empty());
    }

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let names = ["a", "b", "c"];
        let s1 = random_schedule(42, &names, 8, 10, 5);
        let s2 = random_schedule(42, &names, 8, 10, 5);
        let s3 = random_schedule(43, &names, 8, 10, 5);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(s1.len(), 8);
    }

    #[test]
    fn spec_fire_window() {
        let sp = FaultSpec::at(FaultAction::Error("e".into()), 3, 2);
        assert!(!sp.fires_on(2));
        assert!(sp.fires_on(3));
        assert!(sp.fires_on(4));
        assert!(!sp.fires_on(5));
    }

    // Disabled builds must be inert: this is the assertion the CI release
    // gate runs (`cargo test --release -p faultsim` with no features).
    #[cfg(not(feature = "enabled"))]
    mod disabled {
        use super::super::*;

        #[test]
        #[allow(clippy::assertions_on_constants)]
        fn everything_is_a_noop() {
            assert!(!ENABLED);
            assert!(!arm("x", FaultSpec::once(FaultAction::Error("e".into()))));
            assert_eq!(eval("x"), None);
            assert_eq!(hits("x"), 0);
            assert_eq!(
                arm_schedule(&[ScheduleEntry {
                    name: "x".into(),
                    spec: FaultSpec::once(FaultAction::Error("e".into())),
                }]),
                0
            );
            reset();
        }
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;
        use std::sync::Mutex;

        // The registry is process-global; serialize the tests that use it.
        static LOCK: Mutex<()> = Mutex::new(());

        #[test]
        #[allow(clippy::assertions_on_constants)]
        fn error_fires_at_nth_hit_for_times_hits() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            reset();
            assert!(ENABLED);
            arm(
                "t.err",
                FaultSpec::at(FaultAction::Error("boom".into()), 2, 2),
            );
            assert_eq!(eval("t.err"), None);
            assert_eq!(eval("t.err"), Some("boom".into()));
            assert_eq!(eval("t.err"), Some("boom".into()));
            assert_eq!(eval("t.err"), None);
            assert_eq!(hits("t.err"), 4);
            reset();
            assert_eq!(hits("t.err"), 0);
        }

        #[test]
        fn panic_fires_and_registry_survives() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            reset();
            arm(
                "t.panic",
                FaultSpec::once(FaultAction::Panic("kapow".into())),
            );
            let r = std::panic::catch_unwind(|| eval("t.panic"));
            assert!(r.is_err());
            // Registry not poisoned: further use works.
            assert_eq!(eval("t.panic"), None);
            assert_eq!(hits("t.panic"), 2);
            reset();
        }
    }
}
