//! Seeded overload-storm chaos test (DESIGN.md §16): a low-priority
//! flood plus slow-loris connections plus injected handler stalls, all
//! at once, against a small queue. The invariants under fire:
//!
//! 1. Every high-priority job completes **byte-identical** to the
//!    sequential encoder, and every degraded low-priority reply to the
//!    sequential encoder under the degraded params — overload never
//!    trades correctness.
//! 2. Low-priority work is shed with typed `Overloaded` replies, not
//!    hung connections or memory growth.
//! 3. Pressure transitions are observable: trace instants under job id 0
//!    and the Prometheus exposition both carry the arc.
//! 4. No thread is permanently pinned: the storm ends, the daemon drains
//!    on Shutdown, and the serve loop joins.
//!
//! Seeded via `CHAOS_SEED` (printed on entry) so a CI failure replays
//! locally. Requires `--features failpoints`; the whole file compiles
//! away without it — the `chaos` CI job's release step asserts exactly
//! that.

#![cfg(feature = "failpoints")]

use faultsim::{FaultAction, FaultSpec};
use j2k_core::EncoderParams;
use j2k_serve::wire::{call, EncodeRequest, RejectReason, Request, Response, DEFAULT_MAX_FRAME};
use j2k_serve::{serve, EncodeService, PressureConfig, PressureLevel, ServerConfig, ServiceConfig};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn seed_from_env() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20080906)
}

fn encode_req(size: usize, seed: u64, priority: u8, allow_degraded: bool) -> Request {
    Request::Encode(EncodeRequest {
        priority,
        allow_degraded,
        timeout_ms: 0,
        params: EncoderParams::lossless(),
        image: imgio::synth::natural(size, size, seed),
    })
}

#[test]
fn overload_storm_sheds_low_priority_and_keeps_high_priority_byte_identical() {
    let seed = seed_from_env();
    println!("CHAOS_SEED={seed}");
    faultsim::reset();
    obs::trace::set_enabled(true);

    // Small queue, depth-only pressure (the wait signal is disabled so
    // the storm's pressure arc is driven by the queue alone and the
    // decay at the end is deterministic), quick escalation.
    let svc = Arc::new(EncodeService::start(ServiceConfig {
        queue_capacity: 4,
        pool_threads: 2,
        high_priority_min: 5,
        pressure: PressureConfig {
            elevated_depth: 0.5,
            critical_depth: 0.95,
            elevated_wait_p95_us: u64::MAX,
            critical_wait_p95_us: u64::MAX,
            min_sample_interval: Duration::ZERO,
            cool_samples: 2,
            ..PressureConfig::default()
        },
        ..ServiceConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            serve(
                listener,
                svc,
                ServerConfig {
                    io_timeout: Some(Duration::from_millis(300)),
                    max_connections: 32,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
        })
    };

    // Injected handler stalls: the first three requests across the
    // server stall 50ms at the top of their handler loop — past nothing
    // fatal, but enough to skew the storm's interleaving run to run.
    faultsim::arm(
        "wire.stall",
        FaultSpec::at(FaultAction::Delay(Duration::from_millis(50)), 1, 3),
    );

    // Open the high-priority client's connection *before* the storm so
    // a Critical accept-gate can never refuse it mid-run.
    let mut hi_conn = TcpStream::connect(addr).unwrap();

    // Slow-loris peers: partial header, then silence. Their handlers
    // must be reclaimed by the 300ms io deadline, not held forever.
    let lorises: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&j2k_serve::wire::MAGIC.to_be_bytes()).unwrap();
            c
        })
        .collect();

    let shed_seen = AtomicU64::new(0);
    // (image seed, codestream) of every degraded flood reply.
    let degraded_seen: Mutex<Vec<(u64, Vec<u8>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Low-priority flood: 8 threads x 8 jobs, alternate jobs opted
        // into degradation. One request is in flight per connection, so
        // the flood's *concurrency* (8 conns vs a 4-deep queue drained by
        // 2 workers) is what drives the queue into Elevated/Critical.
        // Sheds and degrades are both expected and tallied; what is
        // *not* tolerated is a hang or an untyped error.
        for t in 0..8u64 {
            let (shed_seen, degraded_seen) = (&shed_seen, &degraded_seen);
            scope.spawn(move || {
                let Ok(mut conn) = TcpStream::connect(addr) else {
                    return;
                };
                for j in 0..8u64 {
                    let image_seed = seed ^ (t * 100 + j);
                    let req = encode_req(48, image_seed, 0, j % 2 == 0);
                    match call(&mut conn, &req, DEFAULT_MAX_FRAME) {
                        Ok(Response::EncodeOk {
                            codestream,
                            degraded,
                        }) => {
                            if degraded {
                                degraded_seen.lock().unwrap().push((image_seed, codestream));
                            }
                        }
                        Ok(Response::Rejected(RejectReason::Overloaded { retry_after_ms })) => {
                            assert!(retry_after_ms > 0, "shed must carry a retry hint");
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(other) => panic!("flood job {t}/{j}: unexpected {other:?}"),
                        // A blown deadline or stalled handler closed the
                        // conn: reconnect and keep flooding; if the
                        // accept gate refuses (Critical), stop this
                        // thread — that *is* load shedding working.
                        Err(_) => match TcpStream::connect(addr) {
                            Ok(c) => conn = c,
                            Err(_) => return,
                        },
                    }
                }
            });
        }

        // High-priority client: six jobs, each retried until admitted.
        // These must never be shed into oblivion — the retry loop is
        // bounded and every job must complete byte-identically.
        for j in 0..6u64 {
            let req = encode_req(32, seed ^ (7000 + j), 9, false);
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                assert!(attempts <= 100, "high-priority job {j} starved");
                match call(&mut hi_conn, &req, DEFAULT_MAX_FRAME) {
                    Ok(Response::EncodeOk {
                        codestream,
                        degraded,
                    }) => {
                        assert!(!degraded, "high-priority job {j} must not degrade");
                        let im = imgio::synth::natural(32, 32, seed ^ (7000 + j));
                        let sequential = j2k_core::encode(&im, &EncoderParams::lossless()).unwrap();
                        assert_eq!(
                            codestream, sequential,
                            "high-priority job {j} not byte-identical under storm"
                        );
                        break;
                    }
                    // Queue momentarily full even for high priority:
                    // honor the hint (capped so the test stays fast).
                    Ok(Response::Rejected(RejectReason::Overloaded { retry_after_ms })) => {
                        std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms).min(20)))
                    }
                    Ok(other) => panic!("high-priority job {j}: unexpected {other:?}"),
                    Err(_) => {
                        // The persistent conn died (stall + deadline):
                        // reconnect. An accept-gate refusal surfaces as
                        // a read error on the next call and retries here.
                        if let Ok(c) = TcpStream::connect(addr) {
                            hi_conn = c;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }
    });
    drop(lorises);

    // Degradation is a policy change, never a correctness one: each
    // degraded reply is the sequential encode under the degraded params.
    // Checked after the storm, so the storm's timing is unchanged. How
    // many replies degrade depends on the host's scheduling, so no count
    // is asserted (`service_semantics` pins the deterministic case).
    let (degraded_params, _) = EncoderParams::lossless().degrade_for_load();
    let degraded_seen = degraded_seen.into_inner().unwrap();
    println!("degraded replies checked: {}", degraded_seen.len());
    for (image_seed, codestream) in degraded_seen {
        let im = imgio::synth::natural(48, 48, image_seed);
        assert_eq!(
            codestream,
            j2k_core::encode(&im, &degraded_params).unwrap(),
            "degraded reply for image seed {image_seed} not byte-identical"
        );
    }

    // The stall failpoint fired (the first three handler passes).
    assert!(faultsim::hits("wire.stall") >= 3);

    // Decay: with the storm over, probing the controller with an empty
    // queue steps the level down one notch per sample (cool_samples = 2,
    // no rate limit) — six probes reach Nominal from anywhere.
    for _ in 0..6 {
        svc.pressure_level();
    }
    assert_eq!(svc.pressure().level(), PressureLevel::Nominal);

    let m = svc.metrics();
    assert!(
        m.jobs_shed > 0 || shed_seen.load(Ordering::Relaxed) > 0,
        "a 64-job low-priority flood against a 4-deep queue must shed"
    );
    assert!(
        m.pressure_transitions >= 2,
        "expected at least Nominal->Elevated and a decay, saw {}",
        m.pressure_transitions
    );

    // The pressure arc is observable on both surfaces: trace instants
    // under job id 0, and the Prometheus exposition.
    let events = obs::trace::take_job(0);
    assert!(
        events.iter().any(|e| e.name == "pressure-level"),
        "pressure transitions must emit trace instants"
    );
    let prom = j2k_serve::render_prometheus(&svc);
    for series in [
        "j2k_pressure_level",
        "j2k_pressure_transitions_total",
        "j2k_jobs_shed_total",
        "j2k_connections_rejected_total",
    ] {
        assert!(prom.contains(series), "missing {series} in exposition");
    }
    // The queue-wait tail stayed sane: nothing was parked forever. Every
    // wait is at or under the 2^26 - 1 µs (67 s) bound.
    let bound = |le: &str| {
        let name = format!("j2k_queue_wait_us_{le} ");
        prom.lines()
            .find_map(|l| l.strip_prefix(&name)?.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name}in exposition"))
    };
    assert_eq!(
        bound("bucket{le=\"67108863\"}"),
        bound("count"),
        "a queue wait over 67 s: something was pinned"
    );

    // Drain and join: the daemon must come down clean after the storm.
    let mut conn = TcpStream::connect(addr).unwrap();
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
    obs::trace::set_enabled(false);
    faultsim::reset();
}
