//! Service-semantics coverage: queue-full rejection, deadline firing
//! mid-encode, cancellation, priority scheduling, and graceful shutdown
//! with in-flight jobs. All deterministic — synchronization goes through
//! the service's pause/resume drain hook and blocking waits, never
//! through sleeps.

use j2k_core::EncoderParams;
use j2k_serve::{
    EncodeJob, EncodeService, JobOutcome, PressureConfig, PressureLevel, ServiceConfig, SubmitError,
};
use std::time::Duration;

fn job(seed: u64) -> EncodeJob {
    EncodeJob::new(
        imgio::synth::natural(48, 48, seed),
        EncoderParams::lossless(),
    )
}

#[test]
fn queue_full_rejects_with_overloaded_and_drains_byte_identical() {
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 2,
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    // Hold the pool at the queue so submissions stay queued: the queue
    // state is exact, not racing the workers.
    svc.pause();
    let h1 = svc.submit(job(1)).unwrap();
    let h2 = svc.submit(job(2)).unwrap();
    assert_eq!(svc.queue_depth(), 2);
    // Third job: admission control must refuse with the typed error,
    // carrying a machine-usable retry hint...
    match svc.submit(job(3)).unwrap_err() {
        SubmitError::Overloaded {
            capacity,
            retry_after_ms,
        } => {
            assert_eq!(capacity, 2);
            assert!(retry_after_ms > 0, "retry hint must be actionable");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // ...without having buffered anything.
    assert_eq!(svc.queue_depth(), 2);
    let m = svc.metrics();
    assert_eq!((m.accepted, m.rejected), (2, 1));

    svc.resume();
    for (h, seed) in [(h1, 1), (h2, 2)] {
        match h.wait() {
            JobOutcome::Completed { codestream, .. } => {
                // Every accepted job's output is byte-identical to the
                // sequential encoder for the same input.
                let seq = j2k_core::encode(
                    &imgio::synth::natural(48, 48, seed),
                    &EncoderParams::lossless(),
                )
                .unwrap();
                assert_eq!(codestream, seq);
            }
            other => panic!("job {seed}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(svc.metrics().completed, 2);
}

#[test]
fn deadline_fires_mid_encode() {
    let svc = EncodeService::start(ServiceConfig {
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    // Zero timeout: the deadline is already behind the encode when a
    // worker claims the job, so the control's first in-encode checkpoint
    // fires — the timeout path runs *inside* the encoder, not in the
    // queue, and needs no wall-clock coordination to be exercised.
    let h = svc
        .submit(EncodeJob {
            timeout: Some(Duration::ZERO),
            ..job(7)
        })
        .unwrap();
    assert!(matches!(h.wait(), JobOutcome::TimedOut));
    let m = svc.metrics();
    assert_eq!((m.timed_out, m.completed), (1, 0));
}

#[test]
fn default_timeout_applies_when_job_sets_none() {
    let svc = EncodeService::start(ServiceConfig {
        pool_threads: 1,
        default_timeout: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    let h = svc.submit(job(8)).unwrap();
    assert!(matches!(h.wait(), JobOutcome::TimedOut));
}

#[test]
fn cancel_stops_job() {
    let svc = EncodeService::start(ServiceConfig {
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    svc.pause();
    let h = svc.submit(job(9)).unwrap();
    // Cancel while the job is still queued: the worker claims it after
    // resume and the control stops the encode at its first checkpoint.
    h.cancel();
    svc.resume();
    assert!(matches!(h.wait(), JobOutcome::Cancelled));
    assert_eq!(svc.metrics().cancelled, 1);
}

#[test]
fn priorities_order_the_queue() {
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 8,
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    svc.pause();
    let lo = svc
        .submit(EncodeJob {
            priority: 0,
            ..job(10)
        })
        .unwrap();
    let hi = svc
        .submit(EncodeJob {
            priority: 9,
            ..job(11)
        })
        .unwrap();
    svc.resume();
    // With one pool thread, completion order == queue order; the
    // higher-priority job must finish with a lower completion count
    // observed when it resolves. Both must complete regardless.
    assert!(matches!(hi.wait(), JobOutcome::Completed { .. }));
    assert!(matches!(lo.wait(), JobOutcome::Completed { .. }));
    assert_eq!(svc.metrics().completed, 2);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_queued_jobs() {
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 8,
        pool_threads: 2,
        ..ServiceConfig::default()
    });
    svc.pause();
    let handles: Vec<_> = (0..3).map(|s| svc.submit(job(20 + s)).unwrap()).collect();
    assert_eq!(svc.queue_depth(), 3);

    // Close intake: synchronous, so the rejection below cannot race.
    svc.begin_shutdown();
    assert_eq!(svc.submit(job(99)).unwrap_err(), SubmitError::ShuttingDown);

    // Drain: every already-admitted job must still complete.
    for h in handles {
        assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
    }
    svc.shutdown();
    let m = svc.metrics();
    assert_eq!((m.completed, m.queue_depth), (3, 0));
}

/// Pressure thresholds driven purely by queue depth: the wait-p95 signal
/// is disabled so the tests control the level exactly through `pause()`
/// and submit counts — fully deterministic, no sleeps, no manual clock.
fn depth_only_pressure(elevated: f64, critical: f64) -> PressureConfig {
    PressureConfig {
        elevated_depth: elevated,
        critical_depth: critical,
        elevated_wait_p95_us: u64::MAX,
        critical_wait_p95_us: u64::MAX,
        min_sample_interval: Duration::ZERO,
        cool_samples: 1,
        ..PressureConfig::default()
    }
}

#[test]
fn drain_during_overload_completes_in_flight_byte_identical() {
    // Graceful shutdown racing active shedding: jobs admitted before the
    // storm must all complete, byte-identical, while late low-priority
    // work is shed with a retry hint and pressure decays back to Nominal
    // as the drain empties the queue.
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 4,
        pool_threads: 1,
        high_priority_min: 5,
        pressure: depth_only_pressure(0.5, 0.9),
        ..ServiceConfig::default()
    });
    svc.pause();
    let handles: Vec<_> = (0..4)
        .map(|s| {
            svc.submit(EncodeJob {
                priority: 9,
                ..job(40 + s)
            })
            .unwrap()
        })
        .collect();
    // Depth 4/4 at the fifth submit's sample: Critical. Low priority is
    // shed with an actionable hint; the high-priority admissions above
    // were not (priority 9 >= high_priority_min).
    match svc
        .submit(EncodeJob {
            priority: 0,
            ..job(99)
        })
        .unwrap_err()
    {
        SubmitError::Overloaded { retry_after_ms, .. } => {
            assert!(retry_after_ms > 0, "shed must carry a retry hint")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(svc.pressure().level(), PressureLevel::Critical);

    // Shut down while shedding: everything already admitted still drains.
    svc.begin_shutdown();
    svc.resume();
    for (s, h) in handles.into_iter().enumerate() {
        match h.wait() {
            JobOutcome::Completed {
                codestream,
                degraded,
            } => {
                assert!(!degraded);
                let seq = j2k_core::encode(
                    &imgio::synth::natural(48, 48, 40 + s as u64),
                    &EncoderParams::lossless(),
                )
                .unwrap();
                assert_eq!(codestream, seq, "job {s} not byte-identical");
            }
            other => panic!("job {s}: unexpected outcome {other:?}"),
        }
    }
    svc.shutdown();
    // The worker re-samples after each completion, so the drain itself
    // cooled the controller: Critical -> Elevated -> Nominal.
    assert_eq!(svc.pressure().level(), PressureLevel::Nominal);
    let m = svc.metrics();
    assert_eq!((m.completed, m.jobs_shed, m.rejected), (4, 1, 1));
    assert!(
        m.pressure_transitions >= 3,
        "expected a full Nominal->Critical->Nominal arc, saw {} transitions",
        m.pressure_transitions
    );
}

#[test]
fn elevated_pressure_degrades_opted_in_jobs_and_sheds_the_rest() {
    let svc = EncodeService::start(ServiceConfig {
        queue_capacity: 8,
        pool_threads: 1,
        high_priority_min: 5,
        pressure: depth_only_pressure(0.25, 0.9),
        ..ServiceConfig::default()
    });
    svc.pause();
    // Fill to Elevated: by the third submit the sampled depth is 2/8 =
    // 0.25, at the threshold.
    let fillers: Vec<_> = (0..3)
        .map(|s| {
            svc.submit(EncodeJob {
                priority: 9,
                ..job(50 + s)
            })
            .unwrap()
        })
        .collect();
    assert_eq!(svc.pressure().level(), PressureLevel::Elevated);

    // Low priority, opted in: admitted, transparently downgraded to the
    // HT coder.
    let degraded_h = svc
        .submit(EncodeJob {
            priority: 0,
            allow_degraded: true,
            ..job(60)
        })
        .unwrap();
    // Low priority, no opt-in: shed.
    assert!(matches!(
        svc.submit(EncodeJob {
            priority: 0,
            ..job(61)
        }),
        Err(SubmitError::Overloaded { .. })
    ));
    // High priority, no opt-in: admitted at full fidelity even Elevated.
    let hi_h = svc
        .submit(EncodeJob {
            priority: 9,
            ..job(62)
        })
        .unwrap();

    svc.resume();
    match degraded_h.wait() {
        JobOutcome::Completed {
            codestream,
            degraded,
        } => {
            assert!(degraded, "opted-in job must be marked degraded");
            // Degradation is a policy change, not a correctness one: the
            // bytes equal the sequential encode under the degraded params.
            let (dparams, switched) = EncoderParams::lossless().degrade_for_load();
            assert!(switched);
            let seq = j2k_core::encode(&imgio::synth::natural(48, 48, 60), &dparams).unwrap();
            assert_eq!(codestream, seq);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    match hi_h.wait() {
        JobOutcome::Completed {
            codestream,
            degraded,
        } => {
            assert!(!degraded, "high-priority job must keep full fidelity");
            let seq = j2k_core::encode(
                &imgio::synth::natural(48, 48, 62),
                &EncoderParams::lossless(),
            )
            .unwrap();
            assert_eq!(codestream, seq);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    for h in fillers {
        assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
    }
    let m = svc.metrics();
    assert_eq!((m.jobs_degraded, m.jobs_shed), (1, 1));
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    let svc = EncodeService::start(ServiceConfig::default());
    let h = svc.submit(job(30)).unwrap();
    svc.shutdown();
    svc.shutdown();
    assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
    drop(svc); // Drop runs shutdown again; must not hang or panic.
}

/// A pool worker keeps the working planes of its last job for the next
/// job of that geometry: a large job, a small job of another sample type,
/// then the large one again, each byte-identical to `encode`.
#[test]
fn one_worker_replies_stay_byte_identical_across_job_geometries() {
    let svc = EncodeService::start(ServiceConfig {
        pool_threads: 1,
        ..ServiceConfig::default()
    });
    let large = (
        imgio::synth::natural_rgb(768, 768, 7),
        EncoderParams {
            coder: j2k_core::Coder::Ht,
            ..EncoderParams::lossy(0.1)
        },
    );
    let small = (imgio::synth::natural(64, 64, 8), EncoderParams::lossless());
    for (i, (image, params)) in [&large, &small, &large].into_iter().enumerate() {
        let h = svc.submit(EncodeJob::new(image.clone(), *params)).unwrap();
        match h.wait() {
            JobOutcome::Completed { codestream, .. } => assert!(
                codestream == j2k_core::encode(image, params).unwrap(),
                "job {i} differs from encode"
            ),
            other => panic!("job {i}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(svc.metrics().completed, 3);
}
