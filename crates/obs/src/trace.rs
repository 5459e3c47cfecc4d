//! Lock-free per-thread span recording behind one global enable flag.
//!
//! Recording model:
//!
//! * A global [`enabled`] flag (relaxed `AtomicBool`) gates every site.
//!   Disabled, [`span`] returns a disarmed guard whose `Drop` does
//!   nothing and [`instant`] returns immediately — the flag load is the
//!   whole cost, so instrumentation can stay in the hot path.
//! * Armed events are pushed into a thread-local `Vec` (no locks). The
//!   buffer drains into a bounded global sink when the thread exits
//!   (TLS destructor), when it grows past a watermark, or on an explicit
//!   [`flush_thread`]. Scoped threads must call [`flush_thread`] before
//!   their closure returns: `thread::scope` does not wait for TLS
//!   destructors, so the exit flush alone can lose a race against the
//!   parent's drain. The sink is bounded ([`MAX_SINK_EVENTS`]); events
//!   beyond the bound are counted in [`dropped`] instead of growing
//!   memory without limit.
//! * Each event carries a `trace_id` minted per encode job
//!   ([`next_trace_id`]) and inherited from the thread-local
//!   [`current`] id. Scoped worker threads do **not** inherit TLS —
//!   parents capture `current()` and call [`set_current`] inside the
//!   spawned closure.
//!
//! Timestamps are nanoseconds since a process-wide epoch (first use),
//! so events from different threads order correctly in one timeline.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on buffered events process-wide; beyond it new events
/// are dropped (and counted) rather than ballooning memory.
pub const MAX_SINK_EVENTS: usize = 1 << 20;

/// Thread-local buffers flush to the sink once they reach this size.
const LOCAL_FLUSH_WATERMARK: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<Event>> {
    static SINK: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The process's minor page faults so far (field 10, `minflt`, of
/// `/proc/self/stat`), or `None` where that file is absent. A span's
/// `minflt` arg is the difference of two readings: faults taken by every
/// thread of the process in between, the span's helpers included.
pub fn minor_faults() -> Option<u64> {
    minflt_of("/proc/self/stat")
}

/// The calling thread's minor page faults so far, from
/// `/proc/thread-self/stat`, or `None` where that file is absent.
pub fn thread_minor_faults() -> Option<u64> {
    minflt_of("/proc/thread-self/stat")
}

/// Field 10 of a `stat` file.
fn minflt_of(path: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name (field 2) is parenthesized and may hold spaces.
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The `minflt` arg of an interval that began when [`minor_faults`] read
/// `at`: the process's faults since. `None`, with no second reading, when
/// `at` is; `None` when the file cannot be read again.
pub fn minflt_since(at: Option<u64>) -> Option<(&'static str, u64)> {
    let at = at?;
    Some(("minflt", minor_faults()?.saturating_sub(at)))
}

/// Turn recording on or off. Enabling pins the epoch so the first
/// event does not pay the `OnceLock` initialisation inside a span.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Cheap global gate — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Mint a fresh u64 trace id (one per encode job).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Events dropped because the sink was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One recorded trace event. `dur_ns: Some(_)` is a complete span
/// (Chrome phase `"X"`), `None` an instant (phase `"i"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Job correlation id (0 = outside any job).
    pub trace_id: u64,
    /// Span/instant name; owned names support dynamic labels
    /// (`dwt-level-2`) without leaking.
    pub name: Cow<'static, str>,
    /// Category tag (Chrome `cat` field).
    pub cat: &'static str,
    /// Start (or occurrence) time, ns since the trace epoch.
    pub ts_ns: u64,
    /// Duration for complete spans.
    pub dur_ns: Option<u64>,
    /// Recording thread's obs-local id (dense, stable per thread).
    pub tid: u64,
    /// Small numeric payload, rendered as Chrome `args`.
    pub args: Vec<(&'static str, u64)>,
}

struct LocalBuf {
    events: RefCell<Vec<Event>>,
    tid: u64,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_into_sink(&mut self.events.borrow_mut());
    }
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static LOCAL: LocalBuf = LocalBuf {
        events: RefCell::new(Vec::new()),
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
    };
}

fn flush_into_sink(buf: &mut Vec<Event>) {
    if buf.is_empty() {
        return;
    }
    let mut sink = sink().lock().unwrap_or_else(|p| p.into_inner());
    let room = MAX_SINK_EVENTS.saturating_sub(sink.len());
    let take = buf.len().min(room);
    let overflow = buf.len() - take;
    sink.extend(buf.drain(..take));
    buf.clear();
    if overflow > 0 {
        DROPPED.fetch_add(overflow as u64, Ordering::Relaxed);
    }
}

fn push(ev: Event) {
    let mut ev = Some(ev);
    let pushed = LOCAL.try_with(|l| {
        let mut buf = l.events.borrow_mut();
        buf.push(ev.take().expect("event moved once"));
        if buf.len() >= LOCAL_FLUSH_WATERMARK {
            flush_into_sink(&mut buf);
        }
    });
    if pushed.is_err() {
        // TLS already torn down (event during thread destruction):
        // spill straight to the sink.
        if let Some(ev) = ev {
            flush_into_sink(&mut vec![ev]);
        }
    }
}

fn local_tid() -> u64 {
    LOCAL.try_with(|l| l.tid).unwrap_or(0)
}

/// The trace id inherited by spans recorded on this thread.
pub fn current() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Set this thread's trace id. Spawned threads start at 0; parents
/// capture [`current`] and re-set it inside the spawned closure.
pub fn set_current(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// RAII span guard: measures from construction to drop and records a
/// complete event. Disarmed (free) while tracing is disabled.
#[must_use = "a span measures until dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: Cow<'static, str>,
    cat: &'static str,
    trace_id: u64,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
    /// [`minor_faults`] when the span was asked to count them.
    faults: Option<u64>,
}

impl Span {
    /// A guard that records nothing; use at call sites that must build
    /// a dynamic name only when tracing is on.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Attach a numeric argument (builder style).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(i) = self.inner.as_mut() {
            i.args.push((key, value));
        }
        self
    }

    /// Attach a numeric argument after construction (e.g. a result
    /// count known only at the end of the measured region).
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if let Some(i) = self.inner.as_mut() {
            i.args.push((key, value));
        }
    }

    /// Set the category tag (builder style).
    pub fn cat(mut self, cat: &'static str) -> Span {
        if let Some(i) = self.inner.as_mut() {
            i.cat = cat;
        }
        self
    }

    /// Count the process's minor page faults over the span (builder
    /// style): [`minor_faults`] is read now and again when the span ends,
    /// just before its end time, and the difference becomes the `minflt`
    /// arg. No arg where `/proc/self/stat` is absent.
    pub fn minflt(mut self) -> Span {
        if let Some(i) = self.inner.as_mut() {
            i.faults = minor_faults();
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut i) = self.inner.take() {
            // Only a span asked to count faults reads them again.
            i.args.extend(minflt_since(i.faults));
            let end = now_ns();
            push(Event {
                trace_id: i.trace_id,
                name: i.name,
                cat: i.cat,
                ts_ns: i.start_ns,
                dur_ns: Some(end.saturating_sub(i.start_ns)),
                tid: local_tid(),
                args: i.args,
            });
        }
    }
}

/// Open a span named `name` under this thread's current trace id.
/// Returns a disarmed guard when tracing is disabled — but note the
/// `name` argument is still evaluated, so guard dynamic
/// (`format!`-built) names behind [`enabled`] and use
/// [`Span::disabled`] on the cold arm.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    Span {
        inner: Some(SpanInner {
            name: name.into(),
            cat: "",
            trace_id: current(),
            start_ns: now_ns(),
            args: Vec::new(),
            faults: None,
        }),
    }
}

/// Record an instant event under this thread's current trace id.
pub fn instant(name: impl Into<Cow<'static, str>>, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    push(Event {
        trace_id: current(),
        name: name.into(),
        cat: "",
        ts_ns: now_ns(),
        dur_ns: None,
        tid: local_tid(),
        args: args.to_vec(),
    });
}

/// Record an instant under an explicit trace id, written straight to
/// the global sink (bypassing TLS). For cold events — crash handling,
/// failpoint hits — where the recording thread is unwinding and
/// deterministic visibility to the next reader matters more than
/// lock-freedom.
pub fn instant_for(
    trace_id: u64,
    name: impl Into<Cow<'static, str>>,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    flush_into_sink(&mut vec![Event {
        trace_id,
        name: name.into(),
        cat: "",
        ts_ns: now_ns(),
        dur_ns: None,
        tid: local_tid(),
        args: args.to_vec(),
    }]);
}

/// Record a complete span whose begin and end were observed on
/// different threads (e.g. queue-wait: push on the acceptor, pop on a
/// worker). The caller supplies the start timestamp.
pub fn complete_with(
    trace_id: u64,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    push(Event {
        trace_id,
        name: name.into(),
        cat,
        ts_ns: start_ns,
        dur_ns: Some(dur_ns),
        tid: local_tid(),
        args: args.to_vec(),
    });
}

/// Drain this thread's local buffer into the global sink.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| flush_into_sink(&mut l.events.borrow_mut()));
}

/// Flush this thread, then take everything accumulated in the sink.
/// Buffers of *other live threads* are not visible until those threads
/// flush or exit. Note `thread::scope` joins closures, **not** TLS
/// destructors — a scoped worker must call [`flush_thread`] at the end
/// of its closure (the pipeline's workers do) or its tail of events can
/// miss a drain that runs right after the scope; the `Drop` flush is
/// only a backstop for ordinary (OS-joined) threads.
pub fn drain_all() -> Vec<Event> {
    flush_thread();
    let mut sink = sink().lock().unwrap_or_else(|p| p.into_inner());
    std::mem::take(&mut *sink)
}

/// Flush this thread, then extract only events carrying `trace_id`,
/// leaving other jobs' events in the sink.
pub fn take_job(trace_id: u64) -> Vec<Event> {
    flush_thread();
    let mut sink = sink().lock().unwrap_or_else(|p| p.into_inner());
    let mut taken = Vec::new();
    sink.retain(|ev| {
        if ev.trace_id == trace_id {
            taken.push(ev.clone());
            false
        } else {
            true
        }
    });
    taken
}

/// Clear the sink and drop counter (test isolation).
pub fn reset() {
    flush_thread();
    sink().lock().unwrap_or_else(|p| p.into_inner()).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace tests share the global sink, so they serialise on a lock
    // and scope themselves to ids they minted.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        let id = next_trace_id();
        set_current(id);
        {
            let _s = span("noop").arg("k", 1);
        }
        instant("noop-i", &[]);
        assert!(take_job(id).is_empty());
        set_current(0);
    }

    #[test]
    fn span_and_instant_roundtrip() {
        let _g = guard();
        set_enabled(true);
        let id = next_trace_id();
        set_current(id);
        {
            let mut s = span("work").cat("test").arg("k", 7);
            s.set_arg("late", 9);
        }
        instant("mark", &[("n", 3)]);
        let evs = take_job(id);
        set_current(0);
        set_enabled(false);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "work");
        assert_eq!(evs[0].cat, "test");
        assert!(evs[0].dur_ns.is_some());
        assert_eq!(evs[0].args, vec![("k", 7), ("late", 9)]);
        assert_eq!(evs[1].name, "mark");
        assert_eq!(evs[1].dur_ns, None);
        assert!(evs[1].ts_ns >= evs[0].ts_ns);
    }

    #[test]
    fn scoped_threads_carry_explicit_id() {
        let _g = guard();
        set_enabled(true);
        let id = next_trace_id();
        set_current(id);
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                let tid = current();
                scope.spawn(move || {
                    set_current(tid);
                    drop(span("chunk").arg("worker", w));
                    // The scoped-worker contract: flush before returning
                    // (`thread::scope` doesn't wait for TLS destructors).
                    flush_thread();
                });
            }
        });
        let evs = take_job(id);
        set_current(0);
        set_enabled(false);
        assert_eq!(evs.len(), 3, "scoped threads flush before the barrier");
        let mut tids: Vec<u64> = evs.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own tid");
    }

    #[test]
    fn take_job_leaves_other_jobs() {
        let _g = guard();
        set_enabled(true);
        let a = next_trace_id();
        let b = next_trace_id();
        set_current(a);
        instant("ev-a", &[]);
        set_current(b);
        instant("ev-b", &[]);
        set_current(0);
        let got_a = take_job(a);
        assert_eq!(got_a.len(), 1);
        assert_eq!(got_a[0].name, "ev-a");
        let got_b = take_job(b);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0].name, "ev-b");
        set_enabled(false);
    }

    #[test]
    fn instant_for_bypasses_tls() {
        let _g = guard();
        set_enabled(true);
        let id = next_trace_id();
        instant_for(id, "crash", &[("job", 5)]);
        // Visible without any flush: written straight to the sink.
        let sink_len = sink()
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.trace_id == id)
            .count();
        assert_eq!(sink_len, 1);
        let evs = take_job(id);
        assert_eq!(evs[0].name, "crash");
        set_enabled(false);
    }

    #[test]
    fn a_minflt_span_counts_the_faults_it_covers() {
        let _g = guard();
        let Some(before) = minor_faults() else {
            eprintln!("no /proc/self/stat: skipped");
            return;
        };
        set_enabled(true);
        let id = next_trace_id();
        set_current(id);
        {
            let _s = span("touch").minflt();
            // 64 fresh pages, each written once.
            let mut pages = vec![0u8; 64 << 12];
            for p in pages.chunks_mut(4096) {
                p[0] = 1;
            }
            std::hint::black_box(&pages);
        }
        drop(span("plain"));
        let evs = take_job(id);
        set_current(0);
        set_enabled(false);
        let minflt = evs[0].args.iter().find(|(k, _)| *k == "minflt");
        assert!(
            matches!(minflt, Some(&(_, n)) if n >= 64),
            "{:?}",
            evs[0].args
        );
        assert!(evs[1].args.is_empty(), "only an asked span counts");
        assert!(minor_faults().unwrap() >= before + 64);
    }

    #[test]
    fn dynamic_names_are_owned() {
        let _g = guard();
        set_enabled(true);
        let id = next_trace_id();
        set_current(id);
        let lev = 2;
        {
            let _s = if enabled() {
                span(format!("dwt-level-{lev}"))
            } else {
                Span::disabled()
            };
        }
        let evs = take_job(id);
        set_current(0);
        set_enabled(false);
        assert_eq!(evs[0].name, "dwt-level-2");
    }
}
