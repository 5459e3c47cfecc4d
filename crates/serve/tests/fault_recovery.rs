//! Deterministic recovery tests: every fault path of the service's
//! in-place crash recovery driven by `faultsim` failpoint schedules — no
//! sleeps, no timing assumptions. Requires `--features failpoints`; without it the
//! whole file compiles away (matching the production build, where the
//! failpoints themselves compile to nothing).
//!
//! The failpoint registry is process-global, so the tests in this binary
//! serialize on a static lock and reset the registry on entry and exit
//! (drop guard — survives asserts mid-test).

#![cfg(feature = "failpoints")]

use faultsim::{random_schedule, FaultAction, FaultSpec};
use imgio::Image;
use j2k_core::EncoderParams;
use j2k_serve::wire::{call, write_frame, EncodeRequest, Request, Response};
use j2k_serve::{
    serve, EncodeJob, EncodeService, JobOutcome, PressureConfig, ServerConfig, ServiceConfig,
};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the registry and guarantee a clean slate before *and*
/// after, even when the test body asserts out early.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn take() -> Self {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faultsim::reset();
        FaultGuard(g)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faultsim::reset();
    }
}

fn image(seed: u64) -> Image {
    imgio::synth::natural(40, 40, seed)
}

/// One worker — the tightest deterministic arena: every queue event is
/// sequenced by that single worker.
fn one_worker_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 8,
        pool_threads: 1,
        workers_per_job: 1,
        default_timeout: None,
        ..ServiceConfig::default()
    }
}

fn sequential(im: &Image, params: &EncoderParams) -> Vec<u8> {
    j2k_core::encode(im, params).unwrap()
}

/// A panic mid-Tier-1 is caught by the worker running the job, which
/// requeues the job and runs the retry itself: it completes
/// **byte-identical** to the sequential encoder, and the pool never
/// shrinks.
#[test]
fn panic_mid_tier1_is_recovered_in_place_and_retries_byte_identical() {
    let _g = FaultGuard::take();
    faultsim::arm(
        "tier1.block",
        FaultSpec::once(FaultAction::Panic("tier1 chaos".into())),
    );
    let svc = EncodeService::start(one_worker_cfg());
    let im = image(1);
    let params = EncoderParams::lossless();
    let h = svc.submit(EncodeJob::new(im.clone(), params)).unwrap();
    match h.wait() {
        JobOutcome::Completed { codestream, .. } => {
            assert_eq!(
                codestream,
                sequential(&im, &params),
                "retry must be byte-identical"
            );
        }
        other => panic!("expected Completed after a retry, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.jobs_retried, 1, "one crash retry was requeued");
    assert_eq!(m.worker_panics, 1, "the worker caught the one panic");
    assert_eq!(m.jobs_poisoned, 0);
    let health = svc.health();
    assert_eq!(health.workers_alive, 1, "pool back at strength");
    assert!(health.ready());
    svc.shutdown();
}

/// A job that crashes its worker twice has spent its one retry and is
/// poisoned with a typed `Poisoned` outcome that names it; the service
/// keeps serving on the same worker.
#[test]
fn double_crash_quarantines_job_as_poisoned() {
    let _g = FaultGuard::take();
    // Fire on hits 1 and 2 of `worker.job_start`: the first attempt and
    // its retry both crash.
    faultsim::arm(
        "worker.job_start",
        FaultSpec::at(FaultAction::Panic("job_start chaos".into()), 1, 2),
    );
    let svc = EncodeService::start(one_worker_cfg());
    let h = svc
        .submit(EncodeJob::new(image(2), EncoderParams::lossless()))
        .unwrap();
    let id = h.id();
    match h.wait() {
        JobOutcome::Poisoned { message } => {
            assert!(message.starts_with(&format!("job {id} ")), "got: {message}");
        }
        other => panic!("expected Poisoned after double crash, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.jobs_poisoned, 1);
    assert_eq!(m.jobs_retried, 1, "only the first crash earned a retry");
    assert_eq!(svc.health().jobs_poisoned, 1);
    // The quarantine is per-job: the pool is intact and fresh work runs.
    let im = image(3);
    let params = EncoderParams::lossless();
    let h2 = svc.submit(EncodeJob::new(im.clone(), params)).unwrap();
    match h2.wait() {
        JobOutcome::Completed { codestream, .. } => {
            assert_eq!(codestream, sequential(&im, &params));
        }
        other => panic!("service should still serve after a quarantine, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.worker_panics, 2, "the one worker caught both panics");
    assert_eq!(m.workers_alive, 1, "and still serves");
    svc.shutdown();
}

/// A crashed job whose control has stopped resolves now instead of
/// retrying: past its deadline it is `TimedOut`, cancelled it is
/// `Cancelled`, each charged to the counter an encode stopped that way
/// gets. Sleep-free: a zero timeout has passed before the worker claims
/// the job, and the cancel lands while the queue is paused.
#[test]
fn a_crash_after_the_control_stops_resolves_now_instead_of_retrying() {
    let _g = FaultGuard::take();
    faultsim::arm(
        "worker.job_start",
        FaultSpec::at(FaultAction::Panic("crash before encode".into()), 1, 2),
    );
    let svc = EncodeService::start(one_worker_cfg());
    let h = svc
        .submit(EncodeJob {
            timeout: Some(Duration::ZERO),
            ..EncodeJob::new(image(4), EncoderParams::lossless())
        })
        .unwrap();
    assert!(matches!(h.wait(), JobOutcome::TimedOut));
    svc.pause();
    let h = svc
        .submit(EncodeJob::new(image(4), EncoderParams::lossless()))
        .unwrap();
    h.cancel();
    svc.resume();
    assert!(matches!(h.wait(), JobOutcome::Cancelled));
    let m = svc.metrics();
    assert_eq!((m.timed_out, m.cancelled), (1, 1));
    assert_eq!(m.jobs_retried, 0, "a stopped job is never requeued");
    assert_eq!(m.jobs_poisoned, 0);
    assert_eq!((m.worker_panics, m.workers_alive), (2, 1));
    svc.shutdown();
}

/// A panic on a helper thread of a two-thread job reaches the pool
/// thread through the scope join and is recovered in place like any
/// other. `tier1.block` panics on two consecutive hits: the thread that
/// makes the first stops claiming, so the other thread of the job makes
/// the second, and one of the two is always the helper.
#[test]
fn a_panic_on_a_helper_thread_is_recovered_in_place() {
    let _g = FaultGuard::take();
    let params = EncoderParams::lossless();
    let jobs: Vec<(Image, Vec<u8>)> = (0..4)
        .map(|i| {
            let im = imgio::synth::natural_rgb(96, 96, 20 + i);
            let cs = sequential(&im, &params);
            (im, cs)
        })
        .collect();
    // Count hits from here: every one below is the service's. A 96x96
    // RGB encode codes 48 blocks; hits 10 and 11 are mid-encode.
    faultsim::reset();
    faultsim::arm(
        "tier1.block",
        FaultSpec::at(FaultAction::Panic("helper chaos".into()), 10, 2),
    );
    let svc = EncodeService::start(ServiceConfig {
        workers_per_job: 2,
        ..one_worker_cfg()
    });
    for (im, want) in &jobs {
        let h = svc.submit(EncodeJob::new(im.clone(), params)).unwrap();
        match h.wait() {
            JobOutcome::Completed { codestream, .. } => assert_eq!(&codestream, want),
            other => panic!("expected Completed, got {other:?}"),
        }
    }
    // The crashed attempt stopped at hit 11: both of its threads panicked.
    assert_eq!(faultsim::hits("tier1.block"), 11 + 4 * 48);
    let m = svc.metrics();
    assert_eq!((m.completed, m.jobs_retried, m.jobs_poisoned), (4, 1, 0));
    assert_eq!((m.worker_panics, m.workers_alive), (1, 1));
    svc.shutdown();
}

/// A poisoned job gives its pixels back before its waiter wakes: right
/// after `wait()` returns `Poisoned` nothing is in flight, and a
/// resubmission that needs the whole pixel budget is admitted.
#[test]
fn a_poisoned_job_releases_its_pixels_before_its_waiter_wakes() {
    let _g = FaultGuard::take();
    faultsim::arm(
        "worker.job_start",
        FaultSpec::at(FaultAction::Panic("job_start chaos".into()), 1, 2),
    );
    let im = image(9);
    let svc = EncodeService::start(ServiceConfig {
        pressure: PressureConfig {
            pixel_budget: (im.width * im.height) as u64,
            ..PressureConfig::default()
        },
        ..one_worker_cfg()
    });
    let params = EncoderParams::lossless();
    // High priority: only the pixel gate, never the pressure level, can
    // refuse these jobs.
    let job = || EncodeJob {
        priority: 255,
        ..EncodeJob::new(im.clone(), params)
    };
    assert!(matches!(
        svc.submit(job()).unwrap().wait(),
        JobOutcome::Poisoned { .. }
    ));
    assert_eq!(svc.metrics().pixels_in_flight, 0);
    match svc.submit(job()).expect("the budget is free again").wait() {
        JobOutcome::Completed { codestream, .. } => {
            assert_eq!(codestream, sequential(&im, &params));
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    assert_eq!(svc.metrics().pixels_in_flight, 0);
    svc.shutdown();
}

/// An injected *error* (as opposed to a panic) is an ordinary encoder
/// failure: typed `Failed`, no caught panic, no retry.
#[test]
fn injected_error_fails_job_without_crashing_worker() {
    let _g = FaultGuard::take();
    faultsim::arm(
        "dwt.level",
        FaultSpec::once(FaultAction::Error("dwt fault".into())),
    );
    let svc = EncodeService::start(one_worker_cfg());
    let h = svc
        .submit(EncodeJob::new(image(5), EncoderParams::lossless()))
        .unwrap();
    match h.wait() {
        JobOutcome::Failed(m) => assert!(m.contains("injected"), "got: {m}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    let m = svc.metrics();
    assert_eq!(m.failed, 1);
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.jobs_retried, 0);
    assert_eq!(m.workers_alive, 1);
    svc.shutdown();
}

/// ISSUE scenario 3: a wire-read fault mid-connection drops that
/// connection cleanly — the accept loop, the service, and subsequent
/// connections are untouched.
#[test]
fn wire_read_fault_drops_connection_cleanly() {
    let _g = FaultGuard::take();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(EncodeService::start(one_worker_cfg()));
    let server = std::thread::spawn(move || {
        serve(listener, service, ServerConfig::default()).unwrap();
    });
    // Arm *after* the server is up: hit 1 of `wire.read` is the handler's
    // first read on the next connection, which dies as if the transport
    // failed mid-frame.
    faultsim::arm(
        "wire.read",
        FaultSpec::once(FaultAction::Error("transport chaos".into())),
    );
    let max = ServerConfig::default().max_frame;
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        // The handler's read already failed; the write may or may not be
        // accepted by the dying socket. Only the observable contract
        // matters: the server closes the connection without replying.
        let _ = write_frame(&mut conn, &j2k_serve::wire::encode_request(&Request::Ping));
        let mut buf = [0u8; 1];
        match conn.read(&mut buf) {
            Ok(0) => {} // clean FIN
            Ok(n) => panic!("server replied {n} bytes on a dead connection"),
            Err(_) => {} // RST — equally a closed connection
        }
    }
    // The failpoint is spent; a fresh connection gets full service, and
    // an encode proves the worker pool never noticed the wire fault.
    let mut conn = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        call(&mut conn, &Request::Ping, max),
        Ok(Response::Pong)
    ));
    let im = image(6);
    let params = EncoderParams::lossless();
    let resp = call(
        &mut conn,
        &Request::Encode(EncodeRequest {
            priority: 0,
            allow_degraded: false,
            timeout_ms: 0,
            params,
            image: im.clone(),
        }),
        max,
    )
    .unwrap();
    match resp {
        Response::EncodeOk { codestream: cs, .. } => assert_eq!(cs, sequential(&im, &params)),
        other => panic!("expected EncodeOk, got {other:?}"),
    }
    match call(&mut conn, &Request::Health, max).unwrap() {
        Response::Health(h) => {
            assert_eq!(h.workers_alive, 1);
            assert_eq!(h.jobs_poisoned, 0);
            assert!(h.accepting);
        }
        other => panic!("expected Health, got {other:?}"),
    }
    assert!(matches!(
        call(&mut conn, &Request::Shutdown, max),
        Ok(Response::Pong)
    ));
    server.join().unwrap();
}

/// A connection handler that panics gives its connection slot back:
/// `connections_active` returns to 0, and a server capped at one
/// connection still answers the next client.
#[test]
fn panicking_handler_releases_its_connection_slot() {
    let _g = FaultGuard::take();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(EncodeService::start(one_worker_cfg()));
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve(listener, service, cfg).unwrap())
    };
    // Hit 1 of `wire.stall` is the next handler's first loop iteration.
    faultsim::arm(
        "wire.stall",
        FaultSpec::once(FaultAction::Panic("handler panic".into())),
    );
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut buf = [0u8; 1];
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {} // the unwinding handler dropped the socket
            Ok(n) => panic!("a panicked handler replied {n} bytes"),
        }
    }
    // The handler frees its slot before its socket closes, so the close
    // seen above already orders the release.
    assert_eq!(faultsim::hits("wire.stall"), 1);
    assert_eq!(
        service.metrics().connections_active,
        0,
        "the panicked handler kept its connection slot"
    );

    let max = cfg.max_frame;
    let mut conn = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        call(&mut conn, &Request::Ping, max),
        Ok(Response::Pong)
    ));
    assert!(matches!(
        call(&mut conn, &Request::Shutdown, max),
        Ok(Response::Pong)
    ));
    server.join().unwrap();
}

/// A traced, failpoint-crashed, retried job yields **one** retained
/// trace that tells the whole story — the armed failpoint firing, the
/// worker crash, the requeue — and the retried result is still
/// byte-identical. No sleeps: the single worker sequences every event.
#[test]
fn traced_crash_retry_trace_tells_the_story_and_stays_byte_identical() {
    let _g = FaultGuard::take();
    // The trace sink is process-global like the failpoint registry; the
    // FaultGuard lock already serializes this binary's tests around it.
    obs::trace::reset();
    obs::trace::set_enabled(true);
    struct TraceOff;
    impl Drop for TraceOff {
        fn drop(&mut self) {
            obs::trace::set_enabled(false);
            obs::trace::reset();
        }
    }
    let _t = TraceOff;
    faultsim::arm(
        "tier1.block",
        FaultSpec::once(FaultAction::Panic("traced tier1 chaos".into())),
    );
    let svc = EncodeService::start(one_worker_cfg());
    let im = image(7);
    let params = EncoderParams::lossless();
    let h = svc.submit(EncodeJob::new(im.clone(), params)).unwrap();
    let id = h.id();
    match h.wait() {
        JobOutcome::Completed { codestream, .. } => {
            assert_eq!(
                codestream,
                sequential(&im, &params),
                "traced retry must stay byte-identical"
            );
        }
        other => panic!("expected Completed after a retry, got {other:?}"),
    }
    let json = svc
        .trace_json(id)
        .expect("a traced completed job retains its trace");
    assert_eq!(
        svc.trace_json(0).as_deref(),
        Some(json.as_str()),
        "job 0 aliases the most recent trace"
    );
    let events = obs::chrome::check(
        &json,
        &[
            "queue-push",
            "queue-pop",
            "queue-wait",
            "failpoint:tier1.block",
            "worker-crash",
            "queue-requeue",
            "encode",
            "tier1",
        ],
    )
    .expect("trace must parse as Chrome JSON with the full crash story");
    // One trace, one story: every event belongs to this job's trace id,
    // and the crash precedes the requeue.
    let tid = events
        .iter()
        .find_map(|e| e.trace_id())
        .expect("events carry the trace id");
    assert!(events.iter().all(|e| e.trace_id() == Some(tid)));
    let ts_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.ts_us)
            .unwrap()
    };
    assert!(ts_of("failpoint:tier1.block") <= ts_of("worker-crash"));
    assert!(ts_of("worker-crash") <= ts_of("queue-requeue"));
    svc.shutdown();
}

/// Seeded chaos: a random schedule over every service-level failpoint,
/// on jobs that each run on two threads, so a panic may land on a
/// helper. Every job must reach a terminal outcome, completed jobs must
/// stay byte-identical, the pool must stay at strength, and shutdown
/// must drain — whatever the faults did. Reproduce a failure with
/// `CHAOS_SEED=<printed seed>`.
#[test]
fn seeded_chaos_schedule_resolves_every_job() {
    let _g = FaultGuard::take();
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    println!("chaos seed: {seed}");
    let schedule = random_schedule(
        seed,
        // `wire.read` is excluded: this test's in-process client shares
        // the global registry, so wire faults would fire on the test's
        // own reads rather than a victim the test controls.
        &["worker.job_start", "tier1.block", "dwt.level", "queue.pop"],
        6,
        8,
        2,
    );
    assert_eq!(faultsim::arm_schedule(&schedule), schedule.len());
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 16,
        pool_threads: 2,
        workers_per_job: 2,
        default_timeout: None,
        ..ServiceConfig::default()
    });
    let jobs: Vec<(Image, EncoderParams)> = (0..8)
        .map(|i| {
            (
                imgio::synth::natural(24, 24, 100 + i),
                EncoderParams::lossless(),
            )
        })
        .collect();
    let handles: Vec<_> = jobs
        .iter()
        .map(|(im, p)| svc.submit(EncodeJob::new(im.clone(), *p)).unwrap())
        .collect();
    for (h, (im, p)) in handles.into_iter().zip(&jobs) {
        match h.wait() {
            JobOutcome::Completed { codestream, .. } => {
                assert_eq!(
                    codestream,
                    sequential(im, p),
                    "chaos must never corrupt a completed encode (seed {seed})"
                );
            }
            // Injected errors and second crashes are legitimate terminal
            // outcomes under chaos; hangs and corruption are not.
            JobOutcome::Failed(_) | JobOutcome::Poisoned { .. } => {}
            other => panic!("unexpected outcome {other:?} (seed {seed})"),
        }
    }
    let m = svc.metrics();
    assert_eq!(m.workers_alive, 2, "the pool lost a worker (seed {seed})");
    // Every crash of a claimed job was retried or poisoned; a panic in
    // `queue.pop` had no job to charge.
    assert!(
        m.worker_panics >= m.jobs_retried + m.jobs_poisoned,
        "{m:?} (seed {seed})"
    );
    // Drain invariant: shutdown completes no matter what the schedule
    // did to the pool.
    svc.shutdown();
    let m = svc.metrics();
    assert_eq!(
        m.completed + m.failed + m.jobs_poisoned,
        8,
        "every job reached exactly one terminal state (seed {seed})"
    );
}
