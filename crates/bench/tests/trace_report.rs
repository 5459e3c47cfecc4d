//! `trace_report` folds a real encode trace into its utilization table:
//! a two-worker `encode_with` is traced the way `j2kcell --trace-out`
//! traces one, written to a file, and handed to the binary.

use j2k_core::{encode_with, EncoderParams};
use std::process::Command;

#[test]
fn trace_report_tabulates_a_two_worker_encode() {
    obs::trace::set_enabled(true);
    obs::trace::set_current(obs::trace::next_trace_id());
    let im = imgio::synth::natural_rgb(96, 64, 7);
    encode_with(&im, &EncoderParams::lossless(), 2, None).unwrap();
    obs::trace::flush_thread();
    let json = obs::chrome::render(&obs::trace::drain_all());
    obs::trace::set_enabled(false);

    let path = std::env::temp_dir().join(format!("trace-report-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.lines().any(|l| l.starts_with("tier1 ")), "{table}");
    assert!(table.lines().any(|l| l.starts_with("worker-")), "{table}");
}
