//! The encode service: admission control in front of a **self-healing**
//! worker pool that drains the bounded [`crate::queue::JobQueue`].
//!
//! Life of a job: [`EncodeService::submit`] computes the job's deadline,
//! wraps image + params + a shared [`EncodeControl`] into a queue task,
//! and either enqueues it (returning a [`JobHandle`]) or refuses with a
//! typed [`SubmitError`] — the service never buffers beyond the
//! configured queue capacity. A pool thread claims the task, runs
//! [`encode_with`] with the per-job `workers_per_job` budget, and
//! publishes the [`JobOutcome`] through the handle. Deadlines are
//! enforced *inside* the encode (the control is polled on every claimed
//! chunk, row band and code block), so a job whose deadline passes mid-encode stops at
//! the next checkpoint and reports [`JobOutcome::TimedOut`]; a job that
//! expires while still queued fails the control's very first checkpoint
//! the same way — one mechanism, no timer thread.
//!
//! # Fault model (DESIGN.md §11)
//!
//! Every worker iteration runs under `catch_unwind`: a panicking encode
//! (bad geometry reaching a kernel, a future SIMD bug, an injected
//! `faultsim` failpoint) is **isolated** — it retires that one worker
//! thread instead of silently shrinking the pool. The crash path:
//!
//! 1. the dying worker hands its claimed job to the crash handler, which
//!    either **re-enqueues** it (bounded retry budget, exponential
//!    backoff, bypassing the admission bound — the slot was paid at
//!    submit) or **quarantines** it after repeated crashes, completing
//!    the handle with a typed [`JobOutcome::Poisoned`];
//! 2. a retry whose backoff would end past the job's deadline resolves
//!    [`JobOutcome::TimedOut`] immediately — no doomed wait;
//! 3. the worker notifies the **supervisor** and exits; the supervisor
//!    joins the dead thread and spawns a fresh replacement (fresh stack,
//!    no suspect state), keeping the pool at strength;
//! 4. delayed retries park at the supervisor until due, holding a queue
//!    *reservation* so graceful shutdown still drains them.
//!
//! **Unwind-safety argument** for the `AssertUnwindSafe`: the encode
//! call owns every piece of mutable state it touches — planes, chunk
//! plans, Tier-1 slots all live in the call frame and die in the unwind.
//! The state shared across the boundary is (a) the job queue, whose
//! mutex is never held while user code runs, (b) the claimed-task slot,
//! written only between `pop` and the encode call, and (c) the metrics
//! atomics, which are monotone counters. A panic can therefore leave no
//! torn invariant behind; locks that could in principle observe a
//! panicking test thread are recovered with `into_inner` instead of
//! unwrapping the poison flag.
//!
//! Shutdown is graceful by construction: [`EncodeService::begin_shutdown`]
//! closes the queue (new submissions refuse with
//! [`SubmitError::ShuttingDown`]) while queued, in-flight, *and pending
//! retry* jobs drain; [`EncodeService::shutdown`] additionally joins the
//! supervisor (and with it every worker, original or respawned).

use crate::pressure::{PixelReservation, PressureConfig, PressureController, PressureLevel};
use crate::queue::{JobQueue, PushError};
use imgio::Image;
use j2k_core::{encode_with, CodecError, EncodeControl, EncoderParams};
use obs::hist::{HistogramSnapshot, HistogramStats};
use obs::trace;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Quarantined job ids kept for [`EncodeService::quarantined`] (the
/// count itself is unbounded; see `jobs_poisoned`).
const QUARANTINE_KEEP: usize = 64;

/// One encode request.
#[derive(Debug, Clone)]
pub struct EncodeJob {
    /// Input image.
    pub image: Image,
    /// Encoder parameters (validated by the encoder, not at submit).
    pub params: EncoderParams,
    /// Scheduling priority: higher runs first; FIFO within a priority.
    pub priority: u8,
    /// Per-job deadline, measured from submission. `None` falls back to
    /// [`ServiceConfig::default_timeout`].
    pub timeout: Option<Duration>,
    /// Opt-in graceful degradation: under Elevated pressure the service
    /// may transparently re-run this job with the cheaper HT coder
    /// instead of shedding it. The response carries a `degraded` marker,
    /// and byte-identity is then against the *degraded* params —
    /// which is why the flag is opt-in (DESIGN.md §16).
    pub allow_degraded: bool,
}

impl EncodeJob {
    /// A default-priority job with no per-job timeout and no degradation.
    pub fn new(image: Image, params: EncoderParams) -> Self {
        EncodeJob {
            image,
            params,
            priority: 0,
            timeout: None,
            allow_degraded: false,
        }
    }
}

/// Terminal state of a submitted job.
#[derive(Debug)]
pub enum JobOutcome {
    /// Encode finished; the codestream is byte-identical to
    /// [`j2k_core::encode`]'s output for the same input and effective
    /// params (the submitted params, or their degraded form when
    /// `degraded` is set).
    Completed {
        /// The JPEG2000 codestream.
        codestream: Vec<u8>,
        /// True when overload admission downgraded this `allow_degraded`
        /// job to the HT coder (DESIGN.md §16).
        degraded: bool,
    },
    /// The job's deadline passed (queued, mid-encode, or during a crash
    /// retry's backoff).
    TimedOut,
    /// [`JobHandle::cancel`] stopped the job.
    Cancelled,
    /// The encoder rejected the job (bad params/image) or failed.
    Failed(String),
    /// The job crashed its worker more than the retry budget allows and
    /// is quarantined: the service refuses to run it again.
    Poisoned {
        /// Human-readable crash summary.
        message: String,
    },
}

/// Typed admission-control refusal from [`EncodeService::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity or the pressure policy shed the job;
    /// retry after the hint, degrade, or drop the request.
    Overloaded {
        /// The configured queue bound.
        capacity: usize,
        /// Client backoff hint (scales with the pressure level).
        retry_after_ms: u64,
    },
    /// [`EncodeService::begin_shutdown`] has run; no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                capacity,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "overloaded: queue at capacity {capacity}, retry after {retry_after_ms}ms"
                )
            }
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct JobShared {
    id: u64,
    ctl: EncodeControl,
    outcome: Mutex<Option<JobOutcome>>,
    cv: Condvar,
}

impl JobShared {
    fn complete(&self, outcome: JobOutcome) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.cv.notify_all();
    }
}

/// Caller's side of a submitted job: wait for the outcome or cancel.
#[derive(Debug)]
pub struct JobHandle {
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// Service-assigned job id (monotonic per service).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Request cancellation; the encode stops at its next checkpoint and
    /// the outcome becomes [`JobOutcome::Cancelled`].
    pub fn cancel(&self) {
        self.shared.ctl.cancel();
    }

    /// Block until the job reaches a terminal state and take the outcome.
    pub fn wait(self) -> JobOutcome {
        let mut g = self
            .shared
            .outcome
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(o) = g.take() {
                return o;
            }
            g = self.shared.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A queued unit of work. Shared as `Arc` so a crashing worker's handler
/// and the retry path hand the *same* job (with its crash count) around
/// without copying the image.
struct Task {
    image: Image,
    params: EncoderParams,
    priority: u8,
    /// True when admission downgraded the params to the HT coder.
    degraded: bool,
    /// Share of the in-flight pixel budget. Released explicitly *before*
    /// the outcome is fulfilled (so a waiter that reads metrics right
    /// after `wait()` sees the pixels gone), with the `Drop` of the last
    /// `Arc` as the backstop for retry, quarantine, and shutdown paths.
    pixels: Mutex<Option<PixelReservation>>,
    /// Times this job has crashed a worker.
    crashes: AtomicU32,
    /// Submission time, for the queue-wait histogram.
    submitted: Instant,
    /// Submission time on the trace clock (ns since trace epoch), so the
    /// cross-thread queue-wait span has an explicit start timestamp.
    submitted_ns: u64,
    /// Trace correlation id minted at submit; every span and instant the
    /// job produces — on any thread — carries it.
    trace_id: u64,
    shared: Arc<JobShared>,
}

/// Tuning of an [`EncodeService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded queue capacity; submissions beyond it are
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Pool threads draining the queue (>= 1): the concurrency of whole
    /// jobs.
    pub pool_threads: usize,
    /// `workers` budget handed to [`encode_with`] per job: the
    /// parallelism *within* one encode, counted in threads with the pool
    /// thread that runs the job included (1 runs it on that thread
    /// alone).
    pub workers_per_job: usize,
    /// Deadline for jobs that set none.
    pub default_timeout: Option<Duration>,
    /// How many times a job that *crashes a worker* is retried before it
    /// is quarantined as [`JobOutcome::Poisoned`]. 1 (the default) means
    /// a job that crashes twice is poisoned.
    pub max_crash_retries: u32,
    /// Base backoff before a crash retry re-enters the queue; doubles per
    /// crash (`base << (crashes-1)`). Zero retries immediately.
    pub retry_backoff: Duration,
    /// When set (and tracing is enabled), each finished job's trace is
    /// also written to `DIR/trace-job-<id>.json`, keeping at most
    /// [`trace_keep`](Self::trace_keep) files.
    pub trace_dir: Option<PathBuf>,
    /// How many per-job traces the service retains — both in memory (for
    /// the wire `Trace` request) and on disk under
    /// [`trace_dir`](Self::trace_dir).
    pub trace_keep: usize,
    /// Overload-pressure thresholds and damping (DESIGN.md §16).
    pub pressure: PressureConfig,
    /// Jobs with `priority >= high_priority_min` are *high priority*:
    /// admitted even at Critical pressure and never shed by the pressure
    /// policy (the queue bound still applies).
    pub high_priority_min: u8,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            pool_threads: 2,
            workers_per_job: 1,
            default_timeout: None,
            max_crash_retries: 1,
            retry_backoff: Duration::from_millis(100),
            trace_dir: None,
            trace_keep: 16,
            pressure: PressureConfig::default(),
            high_priority_min: 128,
        }
    }
}

#[derive(Default)]
struct Metrics {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
    poisoned: AtomicU64,
    decoded: AtomicU64,
    decode_failed: AtomicU64,
    workers_respawned: AtomicU64,
    workers_alive: AtomicU64,
    /// Jobs refused by the *pressure* policy (a subset of `rejected`,
    /// which also counts queue-full refusals).
    shed: AtomicU64,
    /// `allow_degraded` jobs downgraded to the HT coder at admission.
    degraded: AtomicU64,
    /// Wire connections currently open (maintained by the server loop).
    conns_active: AtomicU64,
    /// Wire connections refused (cap reached or Critical pressure).
    conns_rejected: AtomicU64,
    /// Accumulated per-stage encode wall time (name -> seconds) and
    /// completed-job latency samples, both fed from finished jobs.
    stage_seconds: Mutex<BTreeMap<String, f64>>,
    /// Most recent quarantined job ids (bounded at [`QUARANTINE_KEEP`]).
    quarantine: Mutex<Vec<u64>>,
    /// Latency / throughput distributions: queue-wait, per-stage, whole
    /// job, Tier-1 symbol throughput. Recording is lock-free.
    hist: obs::Registry,
    /// Retained per-job Chrome traces, newest last, bounded at
    /// `trace_keep` (wire `Trace(job_id)` serves from here).
    traces: Mutex<VecDeque<(u64, String)>>,
    /// Trace files written under `trace_dir`, oldest first, for pruning.
    trace_files: Mutex<VecDeque<PathBuf>>,
}

/// Point-in-time counters of a service, JSON-serializable for the wire.
///
/// Every counter lives in service-owned atomics shared by reference with
/// the pool — nothing is held in worker-local state, so the numbers
/// survive any number of worker crashes and respawns.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs queued right now (admitted, not yet claimed).
    pub queue_depth: usize,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Jobs admitted since start.
    pub accepted: u64,
    /// Jobs refused by admission control since start.
    pub rejected: u64,
    /// Jobs that returned a codestream.
    pub completed: u64,
    /// Jobs stopped by their deadline.
    pub timed_out: u64,
    /// Jobs stopped by [`JobHandle::cancel`].
    pub cancelled: u64,
    /// Jobs the encoder refused or failed.
    pub failed: u64,
    /// Crash retries scheduled (a job that crashed once and completed on
    /// retry contributes 1 here and 1 to `completed`).
    pub jobs_retried: u64,
    /// Jobs quarantined after exhausting the crash-retry budget.
    pub jobs_poisoned: u64,
    /// Decode requests that returned an image.
    pub decoded: u64,
    /// Decode requests the decoder rejected.
    pub decode_failed: u64,
    /// Worker threads respawned after a crash.
    pub workers_respawned: u64,
    /// Worker threads currently live.
    pub workers_alive: u64,
    /// Current pressure classification (0 nominal / 1 elevated /
    /// 2 critical).
    pub pressure_level: u8,
    /// Pressure level transitions since start (each step counts one).
    pub pressure_transitions: u64,
    /// Jobs refused by the pressure policy (subset of `rejected`).
    pub jobs_shed: u64,
    /// `allow_degraded` jobs downgraded to the HT coder at admission.
    pub jobs_degraded: u64,
    /// Pixels admitted and not yet completed (the budget accountant).
    pub pixels_in_flight: u64,
    /// Wire connections currently open.
    pub connections_active: u64,
    /// Wire connections refused (cap or Critical pressure).
    pub connections_rejected: u64,
    /// Accumulated encode wall time per pipeline stage, seconds
    /// (stage names from [`j2k_core::WorkloadProfile::stage_times`]).
    pub stage_seconds: Vec<(String, f64)>,
    /// Percentile summaries per histogram series (`queue_wait_us`,
    /// `job_e2e_us`, `stage_*_us`, the per-coder Tier-1 throughput
    /// series `tier1_symbols_per_sec_mq` / `tier1_symbols_per_sec_ht`,
    /// and `decode_us`), sorted by series name.
    pub histograms: Vec<(String, HistogramStats)>,
}

impl MetricsSnapshot {
    /// Hand-rolled JSON (the workspace builds offline, without serde).
    /// Keys are a stable schema (golden-file tested); dynamic names —
    /// stage and series names — are JSON-escaped.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stage_seconds
            .iter()
            .map(|(n, s)| format!("\"{}\":{s:.6}", obs::json_escape(n)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(n, h)| {
                format!(
                    "\"{}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                    obs::json_escape(n),
                    h.count,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.p999,
                    h.max
                )
            })
            .collect();
        format!(
            "{{\"queue_depth\":{},\"queue_capacity\":{},\"accepted\":{},\"rejected\":{},\
             \"completed\":{},\"timed_out\":{},\"cancelled\":{},\"failed\":{},\
             \"jobs_retried\":{},\"jobs_poisoned\":{},\"decoded\":{},\"decode_failed\":{},\
             \"workers_respawned\":{},\
             \"workers_alive\":{},\"pressure_level\":{},\"pressure_transitions\":{},\
             \"jobs_shed\":{},\"jobs_degraded\":{},\"pixels_in_flight\":{},\
             \"connections_active\":{},\"connections_rejected\":{},\
             \"stage_seconds\":{{{}}},\"histograms\":{{{}}}}}",
            self.queue_depth,
            self.queue_capacity,
            self.accepted,
            self.rejected,
            self.completed,
            self.timed_out,
            self.cancelled,
            self.failed,
            self.jobs_retried,
            self.jobs_poisoned,
            self.decoded,
            self.decode_failed,
            self.workers_respawned,
            self.workers_alive,
            self.pressure_level,
            self.pressure_transitions,
            self.jobs_shed,
            self.jobs_degraded,
            self.pixels_in_flight,
            self.connections_active,
            self.connections_rejected,
            stages.join(","),
            hists.join(",")
        )
    }
}

/// Readiness probe payload for the wire `Health` request: is the pool at
/// strength, is anything quarantined, how deep is the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Worker threads currently live.
    pub workers_alive: u64,
    /// Configured pool size (the target for `workers_alive`).
    pub pool_threads: u64,
    /// Workers respawned after crashes since start.
    pub workers_respawned: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// The admission bound.
    pub queue_capacity: u64,
    /// Crash retries scheduled since start.
    pub jobs_retried: u64,
    /// Jobs quarantined after exhausting the crash-retry budget — the
    /// quarantine count.
    pub jobs_poisoned: u64,
    /// Whether the service still accepts submissions (false once
    /// shutdown has begun).
    pub accepting: bool,
    /// Current pressure classification (0 nominal / 1 elevated /
    /// 2 critical).
    pub pressure: u8,
}

impl HealthSnapshot {
    /// Hand-rolled JSON, mirroring [`MetricsSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers_alive\":{},\"pool_threads\":{},\"workers_respawned\":{},\
             \"queue_depth\":{},\"queue_capacity\":{},\"jobs_retried\":{},\
             \"jobs_poisoned\":{},\"accepting\":{},\"pressure\":{}}}",
            self.workers_alive,
            self.pool_threads,
            self.workers_respawned,
            self.queue_depth,
            self.queue_capacity,
            self.jobs_retried,
            self.jobs_poisoned,
            self.accepting,
            self.pressure,
        )
    }

    /// Ready to take traffic: accepting, full pool live, and pressure
    /// below Critical — a shedding replica should not receive new routed
    /// traffic.
    pub fn ready(&self) -> bool {
        self.accepting
            && self.workers_alive >= self.pool_threads
            && self.pressure < PressureLevel::Critical.as_u8()
    }
}

/// Worker → supervisor notifications.
enum SupMsg {
    /// A worker thread exited (cleanly on drain, or crashed).
    Exited { id: u64, crashed: bool },
    /// A crashed job's retry parks until `due`, then re-enters the queue.
    /// The sender already holds a queue reservation for it.
    RetryAt { task: Arc<Task>, due: Instant },
}

/// The embeddable encode service. See the module docs for the lifecycle
/// and fault model.
pub struct EncodeService {
    cfg: ServiceConfig,
    queue: Arc<JobQueue<Arc<Task>>>,
    metrics: Arc<Metrics>,
    pressure: Arc<PressureController>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
}

/// Every histogram series the service ever records, declared up front in
/// [`EncodeService::start`] so `MetricsSnapshot` JSON and the Prometheus
/// exposition carry the **full series set from the first scrape** —
/// zero-count histograms included. Recording lazily (as the workers do)
/// would otherwise make the schema depend on which coder or pipeline
/// happened to run first, breaking dashboards that join on series names.
/// Stage names are the encode driver's stages.
const DECLARED_HISTOGRAMS: &[&str] = &[
    "queue_wait_us",
    "job_e2e_us",
    "stage_mct_us",
    "stage_dwt_us",
    "stage_tier1_us",
    "stage_rate_control_us",
    "stage_tier2_us",
    "tier1_symbols_per_sec_mq",
    "tier1_symbols_per_sec_ht",
    "decode_us",
];

impl EncodeService {
    /// Start the worker pool (under its supervisor) and return the
    /// running service.
    pub fn start(cfg: ServiceConfig) -> Self {
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let metrics = Arc::new(Metrics::default());
        for series in DECLARED_HISTOGRAMS {
            metrics.hist.histogram(series);
        }
        let pressure = Arc::new(PressureController::new(cfg.pressure.clone()));
        let (tx, rx) = channel::<SupMsg>();
        let mut handles = HashMap::new();
        let pool = cfg.pool_threads.max(1) as u64;
        for id in 0..pool {
            handles.insert(id, spawn_worker(id, &queue, &metrics, &pressure, &cfg, &tx));
        }
        let supervisor = {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let pressure = Arc::clone(&pressure);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                supervisor_main(Supervisor {
                    rx,
                    tx,
                    queue,
                    metrics,
                    pressure,
                    cfg,
                    handles,
                    next_worker_id: pool,
                    live: pool as usize,
                    pending: Vec::new(),
                })
            })
        };
        EncodeService {
            cfg,
            queue,
            metrics,
            pressure,
            supervisor: Mutex::new(Some(supervisor)),
            next_id: AtomicU64::new(1),
        }
    }

    /// Refuse a job under pressure: counted as both `rejected` and
    /// `jobs_shed`, with a level-scaled backoff hint.
    fn shed(&self, priority: u8, level: PressureLevel) -> SubmitError {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        self.metrics.shed.fetch_add(1, Ordering::Relaxed);
        trace::instant_for(
            0,
            "job-shed",
            &[
                ("priority", u64::from(priority)),
                ("level", u64::from(level.as_u8())),
            ],
        );
        SubmitError::Overloaded {
            capacity: self.queue.capacity(),
            retry_after_ms: self.pressure.retry_after_ms(),
        }
    }

    /// Admission control: enqueue `job`, degrade it, or refuse. Never
    /// blocks and never buffers beyond `queue_capacity`.
    ///
    /// The degradation policy (DESIGN.md §16), applied in order:
    /// 1. at **Elevated+** pressure, an `allow_degraded` job is
    ///    downgraded to the HT coder (response marked `degraded`);
    /// 2. at **Elevated**, a low-priority job that did not opt in is
    ///    shed with [`SubmitError::Overloaded`]`{ retry_after_ms }`;
    /// 3. at **Critical**, only high-priority jobs
    ///    ([`ServiceConfig::high_priority_min`]) are admitted at all;
    /// 4. a job that would push in-flight pixels past the budget is shed
    ///    regardless of priority (hard envelope).
    pub fn submit(&self, job: EncodeJob) -> Result<JobHandle, SubmitError> {
        if self.queue.is_closed() {
            return Err(SubmitError::ShuttingDown);
        }
        let wait = self.metrics.hist.histogram("queue_wait_us").snapshot();
        let level = self
            .pressure
            .sample(self.queue.len(), self.queue.capacity(), &wait);
        let high = job.priority >= self.cfg.high_priority_min;
        let mut params = job.params;
        let mut degraded = false;
        if level >= PressureLevel::Elevated && job.allow_degraded {
            let (p, d) = params.degrade_for_load();
            if d {
                params = p;
                degraded = true;
            }
        }
        if !high {
            let shed_now = match level {
                PressureLevel::Critical => true,
                PressureLevel::Elevated => !degraded,
                PressureLevel::Nominal => false,
            };
            if shed_now {
                return Err(self.shed(job.priority, level));
            }
        }
        let pixels = (job.image.width as u64).saturating_mul(job.image.height as u64);
        if !self.pressure.pixels_admittable(pixels) {
            return Err(self.shed(job.priority, level));
        }
        let timeout = job.timeout.or(self.cfg.default_timeout);
        let ctl = match timeout {
            Some(t) => EncodeControl::with_deadline(Instant::now() + t),
            None => EncodeControl::new(),
        };
        let shared = Arc::new(JobShared {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            ctl,
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let trace_id = trace::next_trace_id();
        let task = Arc::new(Task {
            image: job.image,
            params,
            priority: job.priority,
            degraded,
            pixels: Mutex::new(Some(PixelReservation::new(
                Arc::clone(&self.pressure),
                pixels,
            ))),
            crashes: AtomicU32::new(0),
            submitted: Instant::now(),
            submitted_ns: trace::now_ns(),
            trace_id,
            shared: Arc::clone(&shared),
        });
        let (id, priority) = (shared.id, job.priority);
        match self.queue.try_push(task, job.priority) {
            Ok(()) => {
                self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                if degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    trace::instant_for(
                        trace_id,
                        "degraded-admit",
                        &[("job", id), ("level", u64::from(level.as_u8()))],
                    );
                }
                trace::instant_for(
                    trace_id,
                    "queue-push",
                    &[("job", id), ("priority", u64::from(priority))],
                );
                Ok(JobHandle { shared })
            }
            Err((_, PushError::Full { capacity })) => {
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(SubmitError::Overloaded {
                    capacity,
                    retry_after_ms: self.pressure.retry_after_ms(),
                })
            }
            Err((_, PushError::Closed)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Current queue depth (admitted, unclaimed jobs).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Decode a codestream inline on the calling thread, bypassing the
    /// queue, admission control, and the crash-retry machinery. That is
    /// not because decode is cheap — a lossless MQ decode runs slower
    /// than the encode that made it — but because it carries no shared
    /// rate-control state. `max_layers == usize::MAX` keeps every quality
    /// layer; `discard_levels` drops the finest resolution levels.
    /// Outcomes land in [`MetricsSnapshot::decoded`] /
    /// [`MetricsSnapshot::decode_failed`]; like `job_e2e_us`, the
    /// `decode_us` series records successful decodes only.
    pub fn decode(
        &self,
        data: &[u8],
        max_layers: usize,
        discard_levels: usize,
    ) -> Result<Image, CodecError> {
        let started = Instant::now();
        let r = j2k_core::decode_opts(data, max_layers, discard_levels);
        let ctr = match r {
            Ok(_) => {
                self.metrics
                    .hist
                    .histogram("decode_us")
                    .record(started.elapsed().as_micros() as u64);
                &self.metrics.decoded
            }
            Err(_) => &self.metrics.decode_failed,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Hold the pool at the queue: claimed jobs finish, queued jobs wait.
    /// Operational drain hook; also makes queue-state tests deterministic.
    pub fn pause(&self) {
        self.queue.pause();
    }

    /// Undo [`pause`](Self::pause).
    pub fn resume(&self) {
        self.queue.resume();
    }

    /// Counters right now.
    pub fn metrics(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        MetricsSnapshot {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            accepted: m.accepted.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            timed_out: m.timed_out.load(Ordering::Relaxed),
            cancelled: m.cancelled.load(Ordering::Relaxed),
            failed: m.failed.load(Ordering::Relaxed),
            jobs_retried: m.retried.load(Ordering::Relaxed),
            jobs_poisoned: m.poisoned.load(Ordering::Relaxed),
            decoded: m.decoded.load(Ordering::Relaxed),
            decode_failed: m.decode_failed.load(Ordering::Relaxed),
            workers_respawned: m.workers_respawned.load(Ordering::Relaxed),
            workers_alive: m.workers_alive.load(Ordering::Relaxed),
            pressure_level: self.pressure.level().as_u8(),
            pressure_transitions: self.pressure.transitions(),
            jobs_shed: m.shed.load(Ordering::Relaxed),
            jobs_degraded: m.degraded.load(Ordering::Relaxed),
            pixels_in_flight: self.pressure.pixels_in_flight(),
            connections_active: m.conns_active.load(Ordering::Relaxed),
            connections_rejected: m.conns_rejected.load(Ordering::Relaxed),
            stage_seconds: m
                .stage_seconds
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(n, &s)| (n.clone(), s))
                .collect(),
            histograms: m
                .hist
                .snapshot()
                .into_iter()
                .map(|(n, h)| (n, h.stats()))
                .collect(),
        }
    }

    /// Full (bucketed) histogram snapshots, for Prometheus exposition.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.metrics.hist.snapshot()
    }

    /// Retained Chrome trace JSON for `job_id`, or — with `job_id == 0` —
    /// the most recently finished traced job. `None` when tracing is off,
    /// the job is unknown, or its trace has been evicted.
    pub fn trace_json(&self, job_id: u64) -> Option<String> {
        let t = self
            .metrics
            .traces
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if job_id == 0 {
            return t.back().map(|(_, j)| j.clone());
        }
        t.iter()
            .rev()
            .find(|(id, _)| *id == job_id)
            .map(|(_, j)| j.clone())
    }

    /// Readiness probe: pool strength, quarantine count, queue depth,
    /// pressure. Probing re-samples the controller, so pressure decays
    /// even when no submissions arrive.
    pub fn health(&self) -> HealthSnapshot {
        let m = &self.metrics;
        let level = self.pressure_level();
        HealthSnapshot {
            workers_alive: m.workers_alive.load(Ordering::Relaxed),
            pool_threads: self.cfg.pool_threads.max(1) as u64,
            workers_respawned: m.workers_respawned.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            jobs_retried: m.retried.load(Ordering::Relaxed),
            jobs_poisoned: m.poisoned.load(Ordering::Relaxed),
            accepting: !self.queue.is_closed(),
            pressure: level.as_u8(),
        }
    }

    /// Re-sample and return the pressure level (rate-limited by the
    /// controller's sample interval). The server accept loop gates new
    /// connections on this.
    pub fn pressure_level(&self) -> PressureLevel {
        let wait = self.metrics.hist.histogram("queue_wait_us").snapshot();
        self.pressure
            .sample(self.queue.len(), self.queue.capacity(), &wait)
    }

    /// The backoff hint for a client refused at the current pressure.
    pub fn retry_after_ms(&self) -> u64 {
        self.pressure.retry_after_ms()
    }

    /// The pressure controller (shared with the workers).
    pub fn pressure(&self) -> &Arc<PressureController> {
        &self.pressure
    }

    /// Server loop bookkeeping: a wire connection was accepted.
    pub fn conn_opened(&self) {
        self.metrics.conns_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Server loop bookkeeping: a wire connection closed.
    pub fn conn_closed(&self) {
        self.metrics.conns_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Server loop bookkeeping: a wire connection was refused (cap
    /// reached or Critical pressure).
    pub fn conn_rejected(&self) {
        self.metrics.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Most recent quarantined job ids (up to the newest 64).
    pub fn quarantined(&self) -> Vec<u64> {
        self.metrics
            .quarantine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Close intake: new submissions get [`SubmitError::ShuttingDown`];
    /// queued, in-flight, and pending-retry jobs keep draining (a paused
    /// service resumes so the drain can proceed). Returns immediately;
    /// idempotent.
    pub fn begin_shutdown(&self) {
        self.queue.close();
    }

    /// [`begin_shutdown`](Self::begin_shutdown), then block until every
    /// admitted job has completed and the pool — including any workers
    /// respawned after crashes — has exited.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let sup = self
            .supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = sup {
            let _ = h.join();
        }
    }
}

impl Drop for EncodeService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker pool + supervisor
// ---------------------------------------------------------------------------

fn spawn_worker(
    id: u64,
    queue: &Arc<JobQueue<Arc<Task>>>,
    metrics: &Arc<Metrics>,
    pressure: &Arc<PressureController>,
    cfg: &ServiceConfig,
    tx: &Sender<SupMsg>,
) -> JoinHandle<()> {
    // Counted on the spawning side so `workers_alive` never transiently
    // under-reports a worker that exists but has not yet scheduled.
    metrics.workers_alive.fetch_add(1, Ordering::Relaxed);
    let queue = Arc::clone(queue);
    let metrics = Arc::clone(metrics);
    let pressure = Arc::clone(pressure);
    let cfg = cfg.clone();
    let tx = tx.clone();
    std::thread::spawn(move || worker_main(id, &queue, &metrics, &pressure, &cfg, &tx))
}

fn worker_main(
    id: u64,
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    pressure: &Arc<PressureController>,
    cfg: &ServiceConfig,
    tx: &Sender<SupMsg>,
) {
    // The task claimed by the current iteration; after a panic the crash
    // handler takes it from here. Written only between claim and encode,
    // never while a lock is held across user code (see the module-level
    // unwind-safety argument).
    let current: Mutex<Option<Arc<Task>>> = Mutex::new(None);
    loop {
        let r = catch_unwind(AssertUnwindSafe(|| {
            worker_iteration(queue, metrics, pressure, cfg, &current)
        }));
        match r {
            Ok(true) => continue,
            Ok(false) => {
                // Queue closed and drained: clean exit.
                metrics.workers_alive.fetch_sub(1, Ordering::Relaxed);
                let _ = tx.send(SupMsg::Exited { id, crashed: false });
                return;
            }
            Err(_) => {
                // The iteration panicked. A crashed worker always retires
                // (fresh stack and state beat an unwound one); the
                // supervisor replaces it. Its claimed job, if any, goes
                // through the retry/quarantine state machine first.
                // Flush this thread's span buffer *before* the crash
                // handler so the crash/backoff instants land after the
                // events already recorded — and so a terminal outcome's
                // trace export sees them.
                trace::flush_thread();
                trace::set_current(0);
                let task = current.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(task) = task {
                    handle_crash(task, queue, metrics, cfg, tx);
                }
                metrics.workers_alive.fetch_sub(1, Ordering::Relaxed);
                let _ = tx.send(SupMsg::Exited { id, crashed: true });
                return;
            }
        }
    }
}

/// One claim-encode-complete cycle. Returns `false` when the queue is
/// closed and drained (worker should exit cleanly).
fn worker_iteration(
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    pressure: &Arc<PressureController>,
    cfg: &ServiceConfig,
    current: &Mutex<Option<Arc<Task>>>,
) -> bool {
    let Some(task) = queue.pop() else {
        return false;
    };
    *current.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&task));
    let wait = task.submitted.elapsed();
    metrics
        .hist
        .histogram("queue_wait_us")
        .record(wait.as_micros() as u64);
    trace::set_current(task.trace_id);
    if trace::enabled() {
        // Cross-thread span: the push timestamp was captured at submit,
        // the popping worker emits the complete event.
        trace::complete_with(
            task.trace_id,
            "queue-wait",
            "queue",
            task.submitted_ns,
            wait.as_nanos() as u64,
            &[("job", task.shared.id)],
        );
        trace::instant("queue-pop", &[("job", task.shared.id)]);
    }
    // Failpoint `worker.job_start`: between claim and encode. A panic
    // here crashes the worker while it holds a claimed job — the
    // narrowest reproduction of "worker dies mid-job".
    let outcome = if let Some(msg) = faultsim::eval("worker.job_start") {
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        JobOutcome::Failed(format!("injected fault: {msg}"))
    } else {
        let encode_span = trace::span("encode")
            .cat("job")
            .arg("job", task.shared.id)
            .arg("coder", task.params.coder.id())
            .arg("crashes", u64::from(task.crashes.load(Ordering::Relaxed)));
        let started = Instant::now();
        let outcome = match encode_with(
            &task.image,
            &task.params,
            cfg.workers_per_job,
            Some(&task.shared.ctl),
        ) {
            Ok((codestream, profile)) => {
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                let mut tier1_secs = 0.0f64;
                {
                    let mut stages = metrics
                        .stage_seconds
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    for st in &profile.stage_times {
                        *stages.entry(st.name.to_string()).or_insert(0.0) += st.seconds;
                    }
                }
                for st in &profile.stage_times {
                    if st.name == "tier1" {
                        tier1_secs += st.seconds;
                    }
                    // Series name: dashes to underscores so the name is a
                    // legal Prometheus identifier (`stage_rate_control_us`).
                    let series = format!("stage_{}_us", st.name.replace('-', "_"));
                    metrics
                        .hist
                        .histogram(&series)
                        .record((st.seconds * 1e6) as u64);
                }
                if tier1_secs > 0.0 {
                    let symbols = profile.tier1_symbols();
                    let rate = (symbols as f64 / tier1_secs) as u64;
                    // Per-coder series so an MQ/HT mix stays separable.
                    let series = format!("tier1_symbols_per_sec_{}", task.params.coder.name());
                    metrics.hist.histogram(&series).record(rate);
                }
                // Only completed jobs feed the e2e series, so its +Inf
                // bucket count equals the completed-jobs counter (the
                // tie the exposition tests assert).
                metrics
                    .hist
                    .histogram("job_e2e_us")
                    .record((wait + started.elapsed()).as_micros() as u64);
                JobOutcome::Completed {
                    codestream,
                    degraded: task.degraded,
                }
            }
            Err(CodecError::Deadline) => {
                metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                JobOutcome::TimedOut
            }
            Err(CodecError::Cancelled) => {
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                JobOutcome::Cancelled
            }
            Err(e) => {
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                JobOutcome::Failed(e.to_string())
            }
        };
        drop(encode_span);
        outcome
    };
    export_trace(&task, metrics, cfg);
    trace::set_current(0);
    current.lock().unwrap_or_else(|e| e.into_inner()).take();
    // Release the pixel reservation before fulfilling the outcome: a
    // submitter that reads metrics right after `wait()` returns must see
    // the pixels gone (the budget is a statement about in-flight work).
    task.pixels.lock().unwrap_or_else(|e| e.into_inner()).take();
    task.shared.complete(outcome);
    drop(task);
    // Re-sample: pressure decays as work completes even when no new
    // submissions (or probes) arrive to drive the controller.
    let wait = metrics.hist.histogram("queue_wait_us").snapshot();
    pressure.sample(queue.len(), queue.capacity(), &wait);
    true
}

/// Collect the finished (or terminally failed) job's events into a Chrome
/// trace, retain it in the in-memory ring, and optionally persist it under
/// `cfg.trace_dir`. No-op while tracing is disabled.
fn export_trace(task: &Task, metrics: &Metrics, cfg: &ServiceConfig) {
    if !trace::enabled() {
        return;
    }
    // The encode's scoped threads flushed their buffers when they exited;
    // flush this worker's own buffer so take_job sees everything.
    trace::flush_thread();
    let events = trace::take_job(task.trace_id);
    if events.is_empty() {
        return;
    }
    let json = obs::chrome::render(&events);
    let keep = cfg.trace_keep.max(1);
    {
        let mut t = metrics.traces.lock().unwrap_or_else(|e| e.into_inner());
        t.push_back((task.shared.id, json.clone()));
        while t.len() > keep {
            t.pop_front();
        }
    }
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("trace-job-{}.json", task.shared.id));
        if std::fs::create_dir_all(dir).is_ok() && std::fs::write(&path, &json).is_ok() {
            let mut f = metrics
                .trace_files
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            f.push_back(path);
            while f.len() > keep {
                if let Some(old) = f.pop_front() {
                    let _ = std::fs::remove_file(old);
                }
            }
        }
    }
}

/// The retry/quarantine state machine, run by a dying worker for the job
/// it crashed on:
///
/// ```text
/// crash -> crashes+1 > budget ----------------> Poisoned (quarantine)
///       -> deadline <= retry due time --------> TimedOut (no doomed wait)
///       -> backoff == 0 ----------------------> requeue now
///       -> else: reserve + park at supervisor -> requeue at due
/// ```
fn handle_crash(
    task: Arc<Task>,
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    cfg: &ServiceConfig,
    tx: &Sender<SupMsg>,
) {
    let crashes = task.crashes.fetch_add(1, Ordering::Relaxed) + 1;
    let id = task.shared.id;
    trace::instant_for(
        task.trace_id,
        "worker-crash",
        &[("job", id), ("crashes", u64::from(crashes))],
    );
    if crashes > cfg.max_crash_retries {
        metrics.poisoned.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = metrics.quarantine.lock().unwrap_or_else(|e| e.into_inner());
            q.push(id);
            if q.len() > QUARANTINE_KEEP {
                let excess = q.len() - QUARANTINE_KEEP;
                q.drain(..excess);
            }
        }
        export_trace(&task, metrics, cfg);
        task.shared.complete(JobOutcome::Poisoned {
            message: format!(
                "job {id} crashed its worker {crashes} times (budget {}); quarantined",
                cfg.max_crash_retries
            ),
        });
        return;
    }
    // Exponential backoff: base << (crashes - 1), saturating.
    let backoff = cfg
        .retry_backoff
        .saturating_mul(1u32 << (crashes - 1).min(16));
    let due = Instant::now() + backoff;
    // A retry that cannot begin before the job's deadline is a timeout
    // *now*: completing the handle immediately beats parking the job for
    // a wait it is guaranteed to lose.
    if let Some(d) = task.shared.ctl.deadline() {
        if d <= due {
            metrics.timed_out.fetch_add(1, Ordering::Relaxed);
            export_trace(&task, metrics, cfg);
            task.shared.complete(JobOutcome::TimedOut);
            return;
        }
    }
    metrics.retried.fetch_add(1, Ordering::Relaxed);
    trace::instant_for(
        task.trace_id,
        "retry-backoff",
        &[("job", id), ("backoff_ms", backoff.as_millis() as u64)],
    );
    let priority = task.priority;
    if backoff.is_zero() {
        trace::instant_for(task.trace_id, "queue-requeue", &[("job", id)]);
        queue.requeue(task, priority);
        return;
    }
    queue.reserve();
    if let Err(e) = tx.send(SupMsg::RetryAt { task, due }) {
        // Supervisor already gone (late crash during teardown): run the
        // retry immediately rather than dropping an admitted job.
        if let SupMsg::RetryAt { task, .. } = e.0 {
            queue.requeue(task, priority);
        }
    }
}

struct Supervisor {
    rx: Receiver<SupMsg>,
    /// Kept for cloning into respawned workers; never used to send.
    tx: Sender<SupMsg>,
    queue: Arc<JobQueue<Arc<Task>>>,
    metrics: Arc<Metrics>,
    pressure: Arc<PressureController>,
    cfg: ServiceConfig,
    handles: HashMap<u64, JoinHandle<()>>,
    next_worker_id: u64,
    live: usize,
    /// Delayed crash retries: (due, task). Each holds a queue
    /// reservation.
    pending: Vec<(Instant, Arc<Task>)>,
}

fn supervisor_main(mut s: Supervisor) {
    loop {
        // Re-enqueue every retry that has come due.
        let now = Instant::now();
        let mut i = 0;
        while i < s.pending.len() {
            if s.pending[i].0 <= now {
                let (_, task) = s.pending.swap_remove(i);
                let priority = task.priority;
                trace::instant_for(task.trace_id, "queue-requeue", &[("job", task.shared.id)]);
                s.queue.requeue(task, priority);
            } else {
                i += 1;
            }
        }
        // Shutdown complete: intake closed, every worker exited (clean
        // exits only happen once the queue is drained), nothing parked.
        if s.queue.is_closed() && s.live == 0 && s.pending.is_empty() {
            break;
        }
        let next_due = s.pending.iter().map(|(d, _)| *d).min();
        let msg = match next_due {
            Some(d) => match s
                .rx
                .recv_timeout(d.saturating_duration_since(Instant::now()))
            {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
            // Nothing parked: block until a worker reports.
            None => match s.rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            },
        };
        match msg {
            None => {} // a retry came due; the loop head fires it
            Some(SupMsg::RetryAt { task, due }) => s.pending.push((due, task)),
            Some(SupMsg::Exited { id, crashed }) => {
                if let Some(h) = s.handles.remove(&id) {
                    let _ = h.join();
                }
                s.live -= 1;
                // Respawn after a crash while there is (or may be) work:
                // anything queued, reserved, pending, or still accepting.
                // Once the queue is fully drained post-shutdown, a
                // replacement would exit immediately — skip it.
                if crashed && (!s.queue.is_drained() || !s.pending.is_empty()) {
                    let id = s.next_worker_id;
                    s.next_worker_id += 1;
                    s.metrics.workers_respawned.fetch_add(1, Ordering::Relaxed);
                    trace::instant_for(0, "worker-respawn", &[("worker", id)]);
                    s.handles.insert(
                        id,
                        spawn_worker(id, &s.queue, &s.metrics, &s.pressure, &s.cfg, &s.tx),
                    );
                    s.live += 1;
                }
            }
        }
    }
    // Defensive teardown: resolve anything still parked (unreachable in
    // the normal protocol — the loop only exits with `pending` empty or
    // on a disconnected channel, which cannot happen while workers hold
    // senders) and join any stragglers.
    for (_, task) in s.pending.drain(..) {
        s.queue.unreserve();
        task.shared.complete(JobOutcome::Failed(
            "service shut down during retry backoff".into(),
        ));
    }
    for (_, h) in s.handles.drain() {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_wait_roundtrip() {
        let svc = EncodeService::start(ServiceConfig::default());
        let im = imgio::synth::natural(48, 48, 3);
        let h = svc
            .submit(EncodeJob::new(im.clone(), EncoderParams::lossless()))
            .unwrap();
        match h.wait() {
            JobOutcome::Completed {
                codestream,
                degraded,
            } => {
                assert!(!degraded, "nominal pressure never degrades");
                assert_eq!(j2k_core::decode(&codestream).unwrap(), im);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!((m.accepted, m.completed), (1, 1));
        assert_eq!(
            (m.jobs_retried, m.jobs_poisoned, m.workers_respawned),
            (0, 0, 0)
        );
        assert!(m.stage_seconds.iter().any(|(n, _)| n == "tier1"));
        // Stage names flow dynamically from the encoder's profile: the
        // rate-control/Tier-2 tail reports both of its stages.
        for want in ["rate-control", "tier2"] {
            assert!(
                m.stage_seconds.iter().any(|(n, _)| n == want),
                "missing stage {want} in {:?}",
                m.stage_seconds
            );
        }
    }

    #[test]
    fn invalid_params_fail_cleanly() {
        let svc = EncodeService::start(ServiceConfig::default());
        let im = imgio::synth::natural(16, 16, 1);
        let level0 = EncoderParams {
            levels: 0,
            ..EncoderParams::lossless()
        };
        // Code blocks below 4 have no COD exponent; the wire carries
        // `cb_size` as a raw byte, so they must fail here, not encode.
        let cb = |cb_size| EncoderParams {
            cb_size,
            ..EncoderParams::lossless()
        };
        for bad in [level0, cb(1), cb(2)] {
            let h = svc.submit(EncodeJob::new(im.clone(), bad)).unwrap();
            match h.wait() {
                JobOutcome::Failed(m) => assert!(m.starts_with("bad parameters"), "{m}"),
                _ => panic!("{bad:?} did not fail"),
            }
        }
        assert_eq!(svc.metrics().failed, 3);
    }

    #[test]
    fn health_reports_full_pool_and_ready() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 3,
            ..ServiceConfig::default()
        });
        let h = svc.health();
        assert_eq!(h.workers_alive, 3);
        assert_eq!(h.pool_threads, 3);
        assert_eq!(h.jobs_poisoned, 0);
        assert!(h.accepting);
        assert!(h.ready());
        svc.begin_shutdown();
        assert!(!svc.health().accepting);
        assert!(!svc.health().ready());
    }

    #[test]
    fn fresh_service_declares_the_full_histogram_series_set() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        });
        let m = svc.metrics();
        let names: Vec<&str> = m.histograms.iter().map(|(n, _)| n.as_str()).collect();
        let mut want: Vec<&str> = DECLARED_HISTOGRAMS.to_vec();
        want.sort_unstable();
        assert_eq!(
            names, want,
            "metrics must carry every declared series before anything runs"
        );
        assert!(m.histograms.iter().all(|(_, h)| h.count == 0));
        // No series the driver never records: no fused `transform` stage,
        // no `convert` or `quantize` stage (the MCT reads the image rows,
        // Tier-1 quantizes), and no aggregate Tier-1 rate beside the
        // per-coder ones.
        assert_eq!(names.len(), 10, "{names:?}");
        for retired in [
            "stage_transform_us",
            "stage_convert_us",
            "stage_quantize_us",
            "tier1_symbols_per_sec",
        ] {
            assert!(!names.contains(&retired), "{retired} is declared");
        }
        svc.begin_shutdown();
    }

    #[test]
    fn decode_latency_records_successful_decodes_only() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        });
        let im = imgio::synth::natural(24, 16, 1);
        let cs = j2k_core::encode(&im, &EncoderParams::lossless()).unwrap();
        assert_eq!(svc.decode(&cs, usize::MAX, 0).unwrap(), im);
        assert!(svc.decode(b"not a codestream", usize::MAX, 0).is_err());
        let m = svc.metrics();
        let decode_us = m
            .histograms
            .iter()
            .find(|(n, _)| n == "decode_us")
            .map(|(_, h)| h.count);
        assert_eq!(decode_us, Some(1), "only the valid decode is timed");
        assert_eq!(m.decoded, 1);
        assert_eq!(m.decode_failed, 1);
        svc.begin_shutdown();
    }

    #[test]
    fn metrics_json_shape() {
        let snap = MetricsSnapshot {
            queue_depth: 1,
            queue_capacity: 8,
            accepted: 5,
            rejected: 2,
            completed: 3,
            timed_out: 1,
            cancelled: 0,
            failed: 0,
            jobs_retried: 4,
            jobs_poisoned: 1,
            decoded: 6,
            decode_failed: 2,
            workers_respawned: 2,
            workers_alive: 2,
            pressure_level: 1,
            pressure_transitions: 3,
            jobs_shed: 7,
            jobs_degraded: 2,
            pixels_in_flight: 4096,
            connections_active: 3,
            connections_rejected: 1,
            stage_seconds: vec![("dwt".into(), 0.25)],
            histograms: vec![(
                "job_e2e_us".into(),
                HistogramStats {
                    count: 3,
                    p50: 100,
                    p95: 200,
                    p99: 200,
                    p999: 200,
                    max: 180,
                },
            )],
        };
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rejected\":2"));
        assert!(j.contains("\"jobs_retried\":4"));
        assert!(j.contains("\"jobs_poisoned\":1"));
        assert!(j.contains("\"decoded\":6"));
        assert!(j.contains("\"decode_failed\":2"));
        assert!(j.contains("\"workers_respawned\":2"));
        assert!(j.contains("\"workers_alive\":2"));
        assert!(j.contains("\"pressure_level\":1"));
        assert!(j.contains("\"pressure_transitions\":3"));
        assert!(j.contains("\"jobs_shed\":7"));
        assert!(j.contains("\"jobs_degraded\":2"));
        assert!(j.contains("\"pixels_in_flight\":4096"));
        assert!(j.contains("\"connections_active\":3"));
        assert!(j.contains("\"connections_rejected\":1"));
        assert!(j.contains("\"dwt\":0.250000"));
        assert!(j.contains("\"histograms\":{\"job_e2e_us\":{\"count\":3,\"p50\":100"));
        assert!(
            j.ends_with("\"max\":180}}}"),
            "histograms close the object: {j}"
        );
    }

    #[test]
    fn health_json_shape() {
        let h = HealthSnapshot {
            workers_alive: 2,
            pool_threads: 2,
            workers_respawned: 1,
            queue_depth: 0,
            queue_capacity: 64,
            jobs_retried: 1,
            jobs_poisoned: 1,
            accepting: true,
            pressure: 0,
        };
        let j = h.to_json();
        assert!(j.contains("\"workers_alive\":2"));
        assert!(j.contains("\"jobs_poisoned\":1"));
        assert!(j.contains("\"accepting\":true"));
        assert!(j.contains("\"pressure\":0"));
    }

    #[test]
    fn critical_pressure_makes_health_not_ready() {
        let h = HealthSnapshot {
            workers_alive: 2,
            pool_threads: 2,
            workers_respawned: 0,
            queue_depth: 8,
            queue_capacity: 8,
            jobs_retried: 0,
            jobs_poisoned: 0,
            accepting: true,
            pressure: 2,
        };
        assert!(!h.ready(), "Critical pressure must fail readiness");
        assert!(HealthSnapshot { pressure: 1, ..h }.ready());
    }
}
