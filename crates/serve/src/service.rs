//! The encode service: admission control in front of a worker pool that
//! drains the bounded [`crate::queue::JobQueue`] and survives its jobs'
//! panics.
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
//! `faultsim` failpoint) is **recovered in place** by the worker that
//! caught it. That worker charges its claimed job one crash, then
//!
//! 1. resolves it now if its control has stopped (deadline passed or
//!    cancelled), with the outcome and counter an encode that returned
//!    that error gets;
//! 2. **requeues** it at once after its first crash (bypassing the
//!    admission bound — the slot was paid at submit), or completes it as
//!    a typed [`JobOutcome::Poisoned`] after its second;
//! 3. goes back to `pop`. The pool never shrinks, so no thread replaces
//!    it, and a retry requeued during shutdown still runs: the worker
//!    that requeued it has not left the queue.
//!
//! **Unwind-safety argument** for the `AssertUnwindSafe`: the encode
//! call owns every piece of mutable state it touches — planes, chunk
//! plans, Tier-1 slots all live in the call frame and die in the unwind.
//! A panic on a helper thread of a multi-worker job reaches the pool
//! thread only after `std::thread::scope` has joined every helper
//! (`claim_jobs` resumes the panic there), so no helper outlives the
//! unwind either. The state shared across the boundary is (a) the job
//! queue, whose mutex is never held while user code runs, (b) the
//! claimed-task slot, set between `pop` and the encode call and cleared
//! once the job's outcome is out, (c) the metrics atomics, which are
//! monotone counters, and (d) the thread-local trace buffer, which the
//! crash path flushes and whose current id it resets. A panic can therefore leave no torn invariant
//! behind; locks that could in principle observe a panicking thread are
//! recovered with `into_inner` instead of unwrapping the poison flag.
//!
//! Shutdown is graceful by construction: [`EncodeService::begin_shutdown`]
//! closes the queue (new submissions refuse with
//! [`SubmitError::ShuttingDown`]) while queued, in-flight and requeued
//! jobs drain; [`EncodeService::shutdown`] additionally joins the pool.

use crate::pressure::{PixelReservation, PressureConfig, PressureController, PressureLevel};
use crate::queue::{JobQueue, PushError};
use imgio::Image;
use j2k_core::{encode_with, CodecError, Coder, EncodeControl, EncoderParams, Stage};
use obs::hist::{Histogram, HistogramSnapshot};
use obs::trace;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Crash retries a job gets: a job that crashes once is requeued, a job
/// that crashes twice is [`JobOutcome::Poisoned`]. A job that poisons one
/// worker gets a second chance; a job that kills two is the problem.
const CRASH_RETRIES: u32 = 1;

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
    /// The job's deadline passed (queued, mid-encode, or before a crash
    /// retry could be requeued).
    TimedOut,
    /// [`JobHandle::cancel`] stopped the job.
    Cancelled,
    /// The encoder rejected the job (bad params/image) or failed.
    Failed(String),
    /// The job crashed its worker on its retry too: the service refuses
    /// to run it again.
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
/// requeues the *same* job (with its crash count) without copying the
/// image.
struct Task {
    image: Image,
    params: EncoderParams,
    priority: u8,
    /// True when admission downgraded the params to the HT coder.
    degraded: bool,
    /// Share of the in-flight pixel budget. [`finish`] releases it
    /// *before* it fulfils the outcome, so a waiter that reads metrics
    /// right after `wait()` sees the pixels gone; the `Drop` of the last
    /// `Arc` is the backstop.
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
    worker_panics: AtomicU64,
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
    /// Latency / throughput distributions. Recording is lock-free.
    hist: Histograms,
    /// Retained per-job Chrome traces, newest last, bounded at
    /// `trace_keep` (wire `Trace(job_id)` serves from here).
    traces: Mutex<VecDeque<(u64, String)>>,
    /// Trace files written under `trace_dir`, oldest first, for pruning.
    trace_files: Mutex<VecDeque<PathBuf>>,
}

/// The service's histogram series: a fixed set, so the Prometheus
/// exposition carries every series from the first scrape, zero-count ones
/// included, whichever coder or request ran first. Recording is a few
/// relaxed atomic adds on a field; no lock is taken.
#[derive(Default)]
struct Histograms {
    /// Microseconds each job waited queued before a worker claimed it.
    queue_wait_us: Histogram,
    /// End-to-end latency of completed jobs only, so its count equals
    /// the completed-jobs counter.
    job_e2e_us: Histogram,
    /// Wall time of successful decodes only, so its count equals
    /// `decoded`.
    decode_us: Histogram,
    /// Each completed job's [`Stage`] times, indexed by stage.
    stage_us: [Histogram; Stage::ALL.len()],
    /// Each completed job's Tier-1 symbols per second, indexed by
    /// [`Coder::id`], so an MQ/HT mix stays separable.
    tier1_symbols_per_sec: [Histogram; 2],
}

impl Histograms {
    /// Every series as (name without the `j2k_` prefix, help text,
    /// snapshot), sorted by name.
    fn series(&self) -> Vec<(String, String, HistogramSnapshot)> {
        let one = |name: &str, help: &str, h: &Histogram| {
            (name.to_owned(), help.to_owned(), h.snapshot())
        };
        let mut series = vec![
            one(
                "queue_wait_us",
                "Microseconds a job waited queued before a worker claimed it.",
                &self.queue_wait_us,
            ),
            one(
                "job_e2e_us",
                "End-to-end latency of completed jobs, microseconds (submit to codestream).",
                &self.job_e2e_us,
            ),
            one(
                "decode_us",
                "Wall time of successful decode requests, microseconds.",
                &self.decode_us,
            ),
        ];
        for stage in Stage::ALL {
            // Dashes to underscores: a legal Prometheus name
            // (`stage_rate_control_us`).
            series.push(one(
                &format!("stage_{}_us", stage.name().replace('-', "_")),
                "Per-stage encode wall time, microseconds.",
                &self.stage_us[stage as usize],
            ));
        }
        for coder in [Coder::Mq, Coder::Ht] {
            series.push(one(
                &format!("tier1_symbols_per_sec_{coder}"),
                &format!(
                    "Per-job Tier-1 symbol throughput, {}-coded jobs.",
                    coder.name().to_uppercase()
                ),
                &self.tier1_symbols_per_sec[coder.id() as usize],
            ));
        }
        series.sort_by(|a, b| a.0.cmp(&b.0));
        series
    }
}

/// Point-in-time counters and gauges of a service, which
/// [`crate::render_prometheus`] exports beside the histogram series of
/// [`EncodeService::histogram_snapshots`].
///
/// Every counter lives in service-owned atomics shared by reference with
/// the pool — nothing is held in worker-local state, so the numbers
/// survive any number of caught panics.
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
    /// Crash retries requeued (a job that crashed once and completed on
    /// retry contributes 1 here and 1 to `completed`).
    pub jobs_retried: u64,
    /// Jobs poisoned: they crashed their worker on their retry too.
    pub jobs_poisoned: u64,
    /// Decode requests that returned an image.
    pub decoded: u64,
    /// Decode requests the decoder rejected.
    pub decode_failed: u64,
    /// Panics the pool workers caught, with or without a claimed job.
    pub worker_panics: u64,
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
}

/// Readiness probe payload for the wire `Health` request: is the pool at
/// strength, has anything crashed or been poisoned, how deep is the
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Worker threads currently live.
    pub workers_alive: u64,
    /// Configured pool size (the target for `workers_alive`).
    pub pool_threads: u64,
    /// Panics the pool workers caught since start.
    pub worker_panics: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// The admission bound.
    pub queue_capacity: u64,
    /// Crash retries requeued since start.
    pub jobs_retried: u64,
    /// Jobs poisoned since start (the quarantine count).
    pub jobs_poisoned: u64,
    /// Whether the service still accepts submissions (false once
    /// shutdown has begun).
    pub accepting: bool,
    /// Current pressure classification (0 nominal / 1 elevated /
    /// 2 critical).
    pub pressure: u8,
}

impl HealthSnapshot {
    /// Ready to take traffic: accepting, full pool live, and pressure
    /// below Critical — a shedding replica should not receive new routed
    /// traffic.
    pub fn ready(&self) -> bool {
        self.accepting
            && self.workers_alive >= self.pool_threads
            && self.pressure < PressureLevel::Critical.as_u8()
    }
}

/// The embeddable encode service. See the module docs for the lifecycle
/// and fault model.
pub struct EncodeService {
    cfg: ServiceConfig,
    queue: Arc<JobQueue<Arc<Task>>>,
    metrics: Arc<Metrics>,
    pressure: Arc<PressureController>,
    /// The pool threads, joined by [`shutdown`](EncodeService::shutdown).
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl EncodeService {
    /// Start the worker pool and return the running service. Pool worker
    /// `i` is the thread named `j2k-pool-<i>`.
    pub fn start(cfg: ServiceConfig) -> Self {
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let metrics = Arc::new(Metrics::default());
        let pressure = Arc::new(PressureController::new(cfg.pressure.clone()));
        let workers = (0..cfg.pool_threads.max(1))
            .map(|i| {
                // Counted on the spawning side so `workers_alive` never
                // transiently under-reports a worker that exists but has
                // not yet scheduled.
                metrics.workers_alive.fetch_add(1, Ordering::Relaxed);
                let (queue, metrics, pressure, cfg) = (
                    Arc::clone(&queue),
                    Arc::clone(&metrics),
                    Arc::clone(&pressure),
                    cfg.clone(),
                );
                std::thread::Builder::new()
                    .name(format!("j2k-pool-{i}"))
                    .spawn(move || worker_main(&queue, &metrics, &pressure, &cfg))
                    .expect("failed to spawn a pool worker")
            })
            .collect();
        EncodeService {
            cfg,
            queue,
            metrics,
            pressure,
            workers: Mutex::new(workers),
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
        let wait = self.metrics.hist.queue_wait_us.snapshot();
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
    /// queue, admission control, and crash recovery. That is
    /// not because decode is cheap — a lossless MQ decode runs slower
    /// than the encode that made it — but because it carries no shared
    /// rate-control state. `max_layers == usize::MAX` keeps every quality
    /// layer; `discard_levels` drops the finest resolution levels.
    ///
    /// A stream whose full-resolution image would take more than
    /// `max_bytes` as 16-bit samples is refused once its main header is
    /// read, before any precinct state or plane exists: a header of a few
    /// hundred bytes can declare gigabytes of planes. The server passes
    /// its frame ceiling, the bound that already caps an encode request's
    /// image. Outcomes land in [`MetricsSnapshot::decoded`] /
    /// [`MetricsSnapshot::decode_failed`]; like `job_e2e_us`, the
    /// `decode_us` series records successful decodes only.
    pub fn decode(
        &self,
        data: &[u8],
        max_layers: usize,
        discard_levels: usize,
        max_bytes: usize,
    ) -> Result<Image, CodecError> {
        let started = Instant::now();
        let r = within_bytes(data, max_bytes)
            .and_then(|()| j2k_core::decode_opts(data, max_layers, discard_levels));
        let ctr = match r {
            Ok(_) => {
                self.metrics
                    .hist
                    .decode_us
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
            worker_panics: m.worker_panics.load(Ordering::Relaxed),
            workers_alive: m.workers_alive.load(Ordering::Relaxed),
            pressure_level: self.pressure.level().as_u8(),
            pressure_transitions: self.pressure.transitions(),
            jobs_shed: m.shed.load(Ordering::Relaxed),
            jobs_degraded: m.degraded.load(Ordering::Relaxed),
            pixels_in_flight: self.pressure.pixels_in_flight(),
            connections_active: m.conns_active.load(Ordering::Relaxed),
            connections_rejected: m.conns_rejected.load(Ordering::Relaxed),
        }
    }

    /// Every histogram series, bucketed and sorted by name, for the
    /// Prometheus exposition.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histogram_series()
            .into_iter()
            .map(|(name, _, snap)| (name, snap))
            .collect()
    }

    /// [`histogram_snapshots`](Self::histogram_snapshots) with each
    /// series' help text: (name, help, snapshot).
    pub(crate) fn histogram_series(&self) -> Vec<(String, String, HistogramSnapshot)> {
        self.metrics.hist.series()
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

    /// Readiness probe: pool strength, crash counts, queue depth,
    /// pressure. Probing re-samples the controller, so pressure decays
    /// even when no submissions arrive.
    pub fn health(&self) -> HealthSnapshot {
        let m = &self.metrics;
        let level = self.pressure_level();
        HealthSnapshot {
            workers_alive: m.workers_alive.load(Ordering::Relaxed),
            pool_threads: self.cfg.pool_threads.max(1) as u64,
            worker_panics: m.worker_panics.load(Ordering::Relaxed),
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
        let wait = self.metrics.hist.queue_wait_us.snapshot();
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

    /// Close intake: new submissions get [`SubmitError::ShuttingDown`];
    /// queued, in-flight and requeued jobs keep draining (a paused
    /// service resumes so the drain can proceed). Returns immediately;
    /// idempotent.
    pub fn begin_shutdown(&self) {
        self.queue.close();
    }

    /// [`begin_shutdown`](Self::begin_shutdown), then block until every
    /// admitted job has completed and every pool thread has exited.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for EncodeService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Refuse `data` when its full-resolution image would take more than
/// `max_bytes` as 16-bit samples, reading only the main header.
fn within_bytes(data: &[u8], max_bytes: usize) -> Result<(), CodecError> {
    let (h, _) = j2k_core::codestream::read_header(data)?;
    // The header bounds w·h at 2^28 and comps at 256: no overflow in u64.
    let bytes = h.width as u64 * h.height as u64 * h.comps as u64 * 2;
    if bytes > max_bytes as u64 {
        return Err(CodecError::Codestream(format!(
            "{}x{}x{} image is {bytes} bytes of samples, over the {max_bytes}-byte limit",
            h.width, h.height, h.comps
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// One pool thread: claim, encode and complete jobs until the queue is
/// closed and empty, recovering in place from every panic an iteration
/// raises.
fn worker_main(
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    pressure: &PressureController,
    cfg: &ServiceConfig,
) {
    // The task claimed by the current iteration; after a panic the crash
    // handler takes it from here. Set between claim and encode, cleared
    // once the job's outcome is out (see the module-level unwind-safety
    // argument).
    let current: Cell<Option<Arc<Task>>> = Cell::new(None);
    loop {
        let r = catch_unwind(AssertUnwindSafe(|| {
            worker_iteration(queue, metrics, pressure, cfg, &current)
        }));
        match r {
            Ok(true) => {}
            Ok(false) => break,
            Err(_) => {
                // The unwind has dropped everything the iteration owned.
                // Flush this thread's span buffer *before* the crash
                // handler so the crash instants land after the events
                // already recorded — and so a terminal outcome's trace
                // export sees them.
                metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                trace::flush_thread();
                trace::set_current(0);
                if let Some(task) = current.take() {
                    handle_crash(task, queue, metrics, cfg);
                }
            }
        }
    }
    // Queue closed and drained: clean exit.
    metrics.workers_alive.fetch_sub(1, Ordering::Relaxed);
}

/// One claim-encode-complete cycle. Returns `false` when the queue is
/// closed and drained (worker should exit cleanly).
fn worker_iteration(
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    pressure: &PressureController,
    cfg: &ServiceConfig,
    current: &Cell<Option<Arc<Task>>>,
) -> bool {
    let Some(task) = queue.pop() else {
        return false;
    };
    current.set(Some(Arc::clone(&task)));
    let wait = task.submitted.elapsed();
    metrics.hist.queue_wait_us.record(wait.as_micros() as u64);
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
    let started = Instant::now();
    // Failpoint `worker.job_start`: between claim and encode. A panic
    // here crashes the worker while it holds a claimed job — the
    // narrowest reproduction of "worker dies mid-job".
    let result = match faultsim::eval("worker.job_start") {
        Some(msg) => Err(CodecError::Injected(msg)),
        None => {
            let _span = trace::span("encode")
                .cat("job")
                .arg("job", task.shared.id)
                .arg("coder", task.params.coder.id())
                .arg("crashes", u64::from(task.crashes.load(Ordering::Relaxed)));
            encode_with(
                &task.image,
                &task.params,
                cfg.workers_per_job,
                Some(&task.shared.ctl),
            )
        }
    };
    let outcome = match result {
        Ok((codestream, profile)) => {
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            let hist = &metrics.hist;
            for stage in Stage::ALL {
                let us = profile.stage_time(stage).as_micros() as u64;
                hist.stage_us[stage as usize].record(us);
            }
            let tier1_secs = profile.stage_time(Stage::Tier1).as_secs_f64();
            if tier1_secs > 0.0 {
                let rate = (profile.tier1_symbols() as f64 / tier1_secs) as u64;
                hist.tier1_symbols_per_sec[task.params.coder.id() as usize].record(rate);
            }
            // Only completed jobs feed the e2e series, so its +Inf
            // bucket count equals the completed-jobs counter (the
            // tie the exposition tests assert).
            hist.job_e2e_us
                .record((wait + started.elapsed()).as_micros() as u64);
            JobOutcome::Completed {
                codestream,
                degraded: task.degraded,
            }
        }
        Err(e) => failure(e, metrics),
    };
    trace::set_current(0);
    finish(&task, outcome, metrics, cfg);
    // Cleared only now: a panic before the outcome is out leaves the job
    // to the crash handler instead of leaving its waiter hanging.
    current.take();
    drop(task);
    // Re-sample: pressure decays as work completes even when no new
    // submissions (or probes) arrive to drive the controller.
    let wait = metrics.hist.queue_wait_us.snapshot();
    pressure.sample(queue.len(), queue.capacity(), &wait);
    true
}

/// The outcome of a job that stopped with `e`, charged to its counter:
/// an encode that returned `e`, or a crashed job whose control reports
/// `e` before its retry.
fn failure(e: CodecError, metrics: &Metrics) -> JobOutcome {
    let (counter, outcome) = match e {
        CodecError::Deadline => (&metrics.timed_out, JobOutcome::TimedOut),
        CodecError::Cancelled => (&metrics.cancelled, JobOutcome::Cancelled),
        e => (&metrics.failed, JobOutcome::Failed(e.to_string())),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    outcome
}

/// End a job: release its pixels, export its trace, then wake its
/// waiter. Every terminal outcome goes through here, so a waiter that
/// reads metrics right after `wait()` returns sees the pixels gone.
fn finish(task: &Task, outcome: JobOutcome, metrics: &Metrics, cfg: &ServiceConfig) {
    task.pixels.lock().unwrap_or_else(|e| e.into_inner()).take();
    export_trace(task, metrics, cfg);
    task.shared.complete(outcome);
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

/// Charge `task` one crash and settle it, on the worker that caught the
/// panic:
///
/// ```text
/// crash -> second crash ------------------------> Poisoned
///       -> ctl.check() fails (deadline, cancel) -> TimedOut / Cancelled
///       -> else --------------------------------> requeue now
/// ```
fn handle_crash(
    task: Arc<Task>,
    queue: &JobQueue<Arc<Task>>,
    metrics: &Metrics,
    cfg: &ServiceConfig,
) {
    let crashes = task.crashes.fetch_add(1, Ordering::Relaxed) + 1;
    let id = task.shared.id;
    trace::instant_for(
        task.trace_id,
        "worker-crash",
        &[("job", id), ("crashes", u64::from(crashes))],
    );
    let outcome = if crashes > CRASH_RETRIES {
        metrics.poisoned.fetch_add(1, Ordering::Relaxed);
        JobOutcome::Poisoned {
            message: format!("job {id} crashed its worker {crashes} times; it will not run again"),
        }
    } else if let Err(e) = task.shared.ctl.check() {
        failure(e, metrics)
    } else {
        metrics.retried.fetch_add(1, Ordering::Relaxed);
        trace::instant_for(task.trace_id, "queue-requeue", &[("job", id)]);
        let priority = task.priority;
        queue.requeue(task, priority);
        return;
    };
    finish(&task, outcome, metrics, cfg);
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
            (m.jobs_retried, m.jobs_poisoned, m.worker_panics),
            (0, 0, 0)
        );
        // Every stage, the rate-control/Tier-2 tail's two included, timed
        // the job once.
        let hist = svc.histogram_snapshots();
        for want in ["stage_tier1_us", "stage_rate_control_us", "stage_tier2_us"] {
            let count = hist.iter().find(|(n, _)| n == want).map(|(_, h)| h.count);
            assert_eq!(count, Some(1), "{want}");
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
        let hist = svc.histogram_snapshots();
        let names: Vec<&str> = hist.iter().map(|(n, _)| n.as_str()).collect();
        // Sorted by name; no fused `transform` stage, no `convert` or
        // `quantize` stage (the MCT reads the image rows, Tier-1
        // quantizes), and no aggregate Tier-1 rate beside the per-coder
        // ones.
        assert_eq!(
            names,
            [
                "decode_us",
                "job_e2e_us",
                "queue_wait_us",
                "stage_dwt_us",
                "stage_mct_us",
                "stage_rate_control_us",
                "stage_tier1_us",
                "stage_tier2_us",
                "tier1_symbols_per_sec_ht",
                "tier1_symbols_per_sec_mq",
            ],
            "metrics must carry every series before anything runs"
        );
        assert!(hist.iter().all(|(_, h)| h.count == 0));
        svc.begin_shutdown();
    }

    #[test]
    fn pool_workers_are_named() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 3,
            ..ServiceConfig::default()
        });
        let names: Vec<Option<String>> = svc
            .workers
            .lock()
            .unwrap()
            .iter()
            .map(|h| h.thread().name().map(str::to_owned))
            .collect();
        let want = (0..3).map(|i| Some(format!("j2k-pool-{i}")));
        assert_eq!(names, want.collect::<Vec<_>>());
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
        let max = crate::wire::DEFAULT_MAX_FRAME;
        assert_eq!(svc.decode(&cs, usize::MAX, 0, max).unwrap(), im);
        assert!(svc.decode(b"not a codestream", usize::MAX, 0, max).is_err());
        let m = svc.metrics();
        let decode_us = svc
            .histogram_snapshots()
            .iter()
            .find(|(n, _)| n == "decode_us")
            .map(|(_, h)| h.count);
        assert_eq!(decode_us, Some(1), "only the valid decode is timed");
        assert_eq!(m.decoded, 1);
        assert_eq!(m.decode_failed, 1);
        svc.begin_shutdown();
    }

    #[test]
    fn decode_refuses_an_image_over_the_byte_bound() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        });
        let im = imgio::synth::natural(24, 16, 1);
        let cs = j2k_core::encode(&im, &EncoderParams::lossless()).unwrap();
        // 24 x 16 x 1 samples at 2 bytes each: 768 bytes.
        match svc.decode(&cs, usize::MAX, 0, 767) {
            Err(CodecError::Codestream(m)) => assert!(m.contains("767-byte limit"), "{m}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(svc.decode(&cs, usize::MAX, 0, 768).unwrap(), im);
        let m = svc.metrics();
        assert_eq!((m.decoded, m.decode_failed), (1, 1));
        svc.begin_shutdown();
    }

    #[test]
    fn critical_pressure_makes_health_not_ready() {
        let h = HealthSnapshot {
            workers_alive: 2,
            pool_threads: 2,
            worker_panics: 0,
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
