//! `kernel_bench` — per-kernel throughput from the `obs::counters`
//! instrumentation, emitted as a `BENCH_kernels.json` bench-report.
//!
//! The paper argues kernel by kernel (Table 1, the §4 DWT tuning); this
//! bench is the host-side analogue: it runs the real encoder over the
//! paper workload three ways — lossless/MQ (RCT + 5/3 + MQ Tier-1),
//! lossless/HT (the HT Tier-1 backend), and lossy/MQ (ICT + 9/7 +
//! quantization) — with kernel accounting enabled, so every declared
//! kernel accumulates real samples/bytes/ns, then reports derived GB/s
//! and symbols/s per kernel.
//!
//! With `--out FILE` the snapshot is written in the shared
//! [`BenchReport`] envelope (`perf_history` tracks the trajectory and
//! gates regressions in CI).

use j2k_bench::{lossless_params, lossy_params, parse_args, row, workload_rgb, Direction};
use j2k_core::{encode, Coder, EncoderParams};
use obs::counters::{self, Kernel};

/// The bench workload: the three encodes together touch all nine kernels.
fn run_workload(im: &imgio::Image, levels: usize) {
    encode(im, &lossless_params(levels)).expect("lossless MQ encode");
    encode(
        im,
        &EncoderParams {
            coder: Coder::Ht,
            ..lossless_params(levels)
        },
    )
    .expect("lossless HT encode");
    encode(im, &lossy_params(levels)).expect("lossy encode");
}

fn measured_snapshot(im: &imgio::Image, levels: usize) -> Vec<counters::KernelSnapshot> {
    counters::reset();
    counters::set_enabled(true);
    run_workload(im, levels);
    counters::set_enabled(false);
    counters::snapshot()
}

fn main() {
    let args = parse_args();
    let im = workload_rgb(&args);
    println!(
        "Per-kernel counters, {}x{} RGB (lossless MQ + lossless HT + lossy), kernels: {}",
        args.size,
        args.size,
        wavelet::dispatch::description()
    );

    let snap = measured_snapshot(&im, args.levels);

    row(
        args.csv,
        &[
            "kernel".into(),
            "calls".into(),
            "samples".into(),
            "MB".into(),
            "ms".into(),
            "GB/s".into(),
            "Msym/s".into(),
        ],
    );
    for k in &snap {
        row(
            args.csv,
            &[
                k.kernel.name().into(),
                k.invocations.to_string(),
                k.samples.to_string(),
                format!("{:.2}", k.bytes as f64 / 1e6),
                format!("{:.3}", k.ns as f64 / 1e6),
                format!("{:.3}", k.gb_per_sec()),
                format!("{:.3}", k.symbols_per_sec() / 1e6),
            ],
        );
    }

    // Every measurable kernel must actually have measured: the three
    // encodes above cover the full declared set, so a zero here means an
    // instrumentation point fell off a hot path.
    for k in &snap {
        assert!(
            k.invocations > 0,
            "kernel {} recorded no invocations — instrumentation lost?",
            k.kernel.name()
        );
    }

    if let Some(path) = &args.out {
        let mut report = j2k_bench::BenchReport::new("kernels").config(&format!(
            "{{\"size\":{},\"seed\":{},\"levels\":{}}}",
            args.size, args.seed, args.levels
        ));
        for k in &snap {
            report = report.metric(
                &format!("{}_gb_per_sec", k.kernel.name()),
                k.gb_per_sec(),
                Direction::Higher,
            );
            if matches!(k.kernel, Kernel::Tier1Mq | Kernel::Tier1Ht) {
                report = report.metric(
                    &format!("{}_symbols_per_sec", k.kernel.name()),
                    k.symbols_per_sec(),
                    Direction::Higher,
                );
            }
        }
        let detail: Vec<String> = snap
            .iter()
            .map(|k| {
                format!(
                    "{{\"kernel\":\"{}\",\"invocations\":{},\"samples\":{},\"bytes\":{},\
                     \"symbols\":{},\"ns\":{}}}",
                    k.kernel.name(),
                    k.invocations,
                    k.samples,
                    k.bytes,
                    k.symbols,
                    k.ns
                )
            })
            .collect();
        let report = report.detail(&format!("{{\"kernels\":[{}]}}", detail.join(",")));
        std::fs::write(path, format!("{}\n", report.to_json())).expect("write --out file");
        println!("wrote {path}");
    }
}
