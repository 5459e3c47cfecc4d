//! Schema-stability and escaping tests for the hand-rolled
//! [`MetricsSnapshot::to_json`] encoder.
//!
//! The wire `Metrics` reply is consumed by external tooling
//! (dashboards read its histogram fields and join on the series
//! names), so its key set and shape are a contract: the golden
//! file pins the exact serialization of a fully populated snapshot —
//! counters, stage seconds and histogram summaries, nothing else. If
//! this test fails because the schema changed *on purpose*, update
//! `tests/golden/metrics_snapshot.json` in the same commit and say so
//! in its message.

use j2k_serve::MetricsSnapshot;
use obs::hist::HistogramStats;

fn populated() -> MetricsSnapshot {
    MetricsSnapshot {
        queue_depth: 3,
        queue_capacity: 64,
        accepted: 100,
        rejected: 7,
        completed: 88,
        timed_out: 2,
        cancelled: 1,
        failed: 2,
        jobs_retried: 5,
        jobs_poisoned: 1,
        decoded: 21,
        decode_failed: 3,
        workers_respawned: 4,
        workers_alive: 2,
        pressure_level: 1,
        pressure_transitions: 6,
        jobs_shed: 5,
        jobs_degraded: 2,
        pixels_in_flight: 16384,
        connections_active: 3,
        connections_rejected: 1,
        stage_seconds: vec![("dwt".to_string(), 0.125), ("tier1".to_string(), 1.5)],
        histograms: vec![
            (
                "job_e2e_us".to_string(),
                HistogramStats {
                    count: 88,
                    p50: 1023,
                    p95: 4095,
                    p99: 8191,
                    p999: 8191,
                    max: 7777,
                },
            ),
            (
                "queue_wait_us".to_string(),
                HistogramStats {
                    count: 95,
                    p50: 255,
                    p95: 511,
                    p99: 1023,
                    p999: 2047,
                    max: 1999,
                },
            ),
        ],
    }
}

#[test]
fn golden_schema_is_stable() {
    let got = populated().to_json();
    let want = include_str!("golden/metrics_snapshot.json").trim_end();
    assert_eq!(
        got, want,
        "MetricsSnapshot::to_json schema drifted from the golden file \
         (crates/serve/tests/golden/metrics_snapshot.json); if intentional, \
         regenerate the golden file in the same commit"
    );
}

#[test]
fn dynamic_names_are_escaped() {
    let mut snap = populated();
    snap.stage_seconds = vec![("we\"ird\\stage\n".to_string(), 1.0)];
    snap.histograms = vec![(
        "se\"ries".to_string(),
        HistogramStats {
            count: 1,
            p50: 1,
            p95: 1,
            p99: 1,
            p999: 1,
            max: 1,
        },
    )];
    let j = snap.to_json();
    assert!(j.contains(r#""we\"ird\\stage\n":1.000000"#));
    assert!(j.contains(r#""se\"ries":{"count":1"#));
    // No raw control characters or unescaped interior quotes survive.
    assert!(!j.contains('\n'));
}

#[test]
fn empty_collections_serialize_as_empty_objects() {
    let mut snap = populated();
    snap.stage_seconds.clear();
    snap.histograms.clear();
    let j = snap.to_json();
    assert!(j.contains("\"stage_seconds\":{}"));
    assert!(j.contains("\"histograms\":{}"));
}
