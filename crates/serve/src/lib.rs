//! `j2k-serve` — an embeddable JPEG2000 **encode service**: the paper's
//! dynamic-work-queue discipline applied at the request level.
//!
//! Kang & Bader feed fixed-footprint SPE workers from a dynamic queue of
//! code blocks because Tier-1 cost is data dependent — static assignment
//! stalls the pipeline. A production encoder serving heavy traffic faces
//! the same problem one level up: whole encode requests have
//! data-dependent cost, arrive faster than they finish under overload,
//! and must never grow memory without bound. This crate is that level:
//!
//! * [`queue`] — a **bounded MPMC priority queue** of jobs: the
//!   request-level mirror of the Tier-1 code-block queue, with
//!   reject-when-full instead of unbounded growth;
//! * [`service`] — [`EncodeService`]: admission control, a worker pool
//!   running [`j2k_core::encode_with`]'s chunk/queue parallelism with a
//!   per-job `workers` budget, per-job deadlines enforced *inside* the
//!   encode via [`j2k_core::EncodeControl`], cancellation, graceful
//!   drain-on-shutdown, and a [`MetricsSnapshot`] of its counters and
//!   gauges;
//! * [`metrics_http`] — the one metrics document, Prometheus text
//!   exposition ([`render_prometheus`]): counters, gauges and every
//!   histogram series, per-stage wall times included, served on a side
//!   port and as the wire `Metrics` reply;
//! * [`wire`] — a length-prefixed binary protocol (std::net only) with
//!   typed errors and allocation bounded before it happens;
//! * [`server`] — the TCP daemon loop behind the `j2kserved` binary.
//!
//! The service **recovers in place** (DESIGN.md §11): each pool worker
//! runs every iteration under `catch_unwind`, and the worker that caught
//! a job's panic requeues the job at once for its one retry, or
//! completes it as a typed [`JobOutcome::Poisoned`] after a second
//! crash, then goes back to the queue; the wire protocol exposes a
//! `Health` probe ([`HealthSnapshot`]). Every recovery path is exercised
//! deterministically by the `fault_recovery` suite through the
//! `failpoints` feature (the [`faultsim`] registry), which compiles to a
//! no-op in release builds.
//!
//! Under sustained overload the service **degrades gracefully**
//! (DESIGN.md §16): a deterministic [`pressure`] controller classifies
//! load as Nominal/Elevated/Critical with hysteresis from queue depth,
//! windowed queue-wait p95, and an in-flight pixel budget; admission
//! sheds low-priority work with a typed
//! [`SubmitError::Overloaded`]`{ retry_after_ms }` hint, transparently
//! downgrades `allow_degraded` jobs to the HT coder (marked `degraded`
//! in the response), and at Critical the accept loop sheds new
//! connections while [`HealthSnapshot::ready`] turns false. A refused
//! client is expected to wait `retry_after_ms` before it tries again;
//! the hint is longer at Critical than at Elevated.
//!
//! Invariant inherited from the codec: every codestream the service
//! returns is **byte-identical** to [`j2k_core::encode`] for the same
//! input — scheduling decisions never touch the output.

pub mod metrics_http;
pub mod pressure;
pub mod queue;
pub mod server;
pub mod service;
pub mod wire;

pub use metrics_http::{render_prometheus, serve_metrics};
pub use pressure::{
    Clock, ClockHandle, ManualClock, PixelReservation, PressureConfig, PressureController,
    PressureLevel, SystemClock,
};
pub use queue::{JobQueue, PushError};
pub use server::{serve, ServerConfig};
pub use service::{
    EncodeJob, EncodeService, HealthSnapshot, JobHandle, JobOutcome, MetricsSnapshot,
    ServiceConfig, SubmitError,
};
pub use wire::{Request, Response, WireError};
