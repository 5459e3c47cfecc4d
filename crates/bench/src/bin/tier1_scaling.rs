//! Tier-1 backend scaling: MQ bit-plane coder vs the HT quad coder on
//! the paper workload, swept over host worker counts (the `--spes` list
//! is reused as the worker counts, as in `host_parallel_scaling`).
//!
//! For each coder the codestream is asserted byte-identical to the
//! one-worker encode at every worker count, then the Tier-1 stage wall
//! time is converted into two throughput figures:
//!
//! * `symbols/s` — coder-native work items (MQ decisions, or HT quads +
//!   MagSgn emissions + refinement samples). Not comparable across
//!   coders: the HT cleanup codes a whole quad per item.
//! * `samples/s` — code-block samples swept per second of Tier-1 time.
//!   The coder-neutral basis; the ≥3x HT-vs-MQ gate below uses it.
//!
//! Prints a table (or `--csv`) and, with `--out FILE`, writes the
//! machine-readable `BENCH_tier1.json` consumed by CI — a shared
//! [`BenchReport`](j2k_bench::BenchReport) envelope whose `detail`
//! carries the per-row table and whose `metrics` feed `perf_history`.

use j2k_bench::{lossless_params, ms, parse_args, row, workload_rgb, BenchReport, Direction};
use j2k_core::{encode, encode_with, Coder, EncoderParams, WorkloadProfile};

/// HT must beat MQ by at least this factor on the samples/s basis
/// (single worker, so the ratio is per-core coder speed, not scaling).
const HT_MIN_SPEEDUP: f64 = 3.0;

fn tier1_secs(prof: &WorkloadProfile) -> f64 {
    prof.stage_times
        .iter()
        .filter(|s| s.name == "tier1")
        .map(|s| s.seconds)
        .sum()
}

struct Row {
    coder: Coder,
    workers: usize,
    tier1: f64,
    symbols: u64,
    samples: u64,
    bytes: usize,
}

fn main() {
    let args = parse_args();
    let im = workload_rgb(&args);
    println!(
        "Tier-1 backend scaling, {}x{} RGB lossless (workers = --spes list)",
        args.size, args.size
    );
    row(
        args.csv,
        &[
            "coder".into(),
            "workers".into(),
            "tier1_ms".into(),
            "symbols/s".into(),
            "samples/s".into(),
            "bytes".into(),
        ],
    );

    let mut rows: Vec<Row> = Vec::new();
    for coder in [Coder::Mq, Coder::Ht] {
        let params = EncoderParams {
            coder,
            ..lossless_params(args.levels)
        };
        let one = encode(&im, &params).expect("one-worker encode");
        for &n in &args.spes {
            let (bytes, prof) = encode_with(&im, &params, n, None).expect("encode");
            assert_eq!(
                bytes, one,
                "{coder} codestream changed at workers={n} vs one worker"
            );
            let r = Row {
                coder,
                workers: n,
                tier1: tier1_secs(&prof),
                symbols: prof.tier1_symbols(),
                samples: prof.blocks.iter().map(|b| b.samples).sum(),
                bytes: bytes.len(),
            };
            row(
                args.csv,
                &[
                    coder.name().into(),
                    n.to_string(),
                    ms(r.tier1),
                    format!("{:.3e}", r.symbols as f64 / r.tier1.max(1e-12)),
                    format!("{:.3e}", r.samples as f64 / r.tier1.max(1e-12)),
                    r.bytes.to_string(),
                ],
            );
            rows.push(r);
        }
    }

    // Single-worker rows give the per-core coder comparison.
    let base = |c: Coder| -> &Row {
        rows.iter()
            .find(|r| r.coder == c && r.workers == rows[0].workers)
            .expect("base row")
    };
    let (mq, ht) = (base(Coder::Mq), base(Coder::Ht));
    let sps = |r: &Row| r.samples as f64 / r.tier1.max(1e-12);
    let ht_speedup = sps(ht) / sps(mq).max(1e-12);
    let size_delta = ht.bytes as f64 / mq.bytes as f64 - 1.0;
    println!();
    println!(
        "HT vs MQ at {} worker(s): {:.2}x samples/s, {:+.2}% codestream size",
        mq.workers,
        ht_speedup,
        size_delta * 100.0
    );

    if let Some(path) = &args.out {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"coder\":\"{}\",\"workers\":{},\"tier1_ms\":{:.3},\
                     \"symbols\":{},\"symbols_per_sec\":{:.1},\
                     \"samples_per_sec\":{:.1},\"bytes\":{}}}",
                    r.coder.name(),
                    r.workers,
                    r.tier1 * 1e3,
                    r.symbols,
                    r.symbols as f64 / r.tier1.max(1e-12),
                    sps(r),
                    r.bytes,
                )
            })
            .collect();
        let config = format!(
            "{{\"size\":{},\"seed\":{},\"levels\":{},\"workers\":[{}]}}",
            args.size,
            args.seed,
            args.levels,
            args.spes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        let detail = format!(
            "{{\"rows\":[{}],\"summary\":{{\"ht_vs_mq_samples_per_sec\":{:.3},\
             \"ht_size_delta\":{:.4}}}}}",
            body.join(","),
            ht_speedup,
            size_delta,
        );
        let report = BenchReport::new("tier1_scaling")
            .config(&config)
            .metric("mq_samples_per_sec", sps(mq), Direction::Higher)
            .metric("ht_samples_per_sec", sps(ht), Direction::Higher)
            .metric("ht_vs_mq_samples_per_sec", ht_speedup, Direction::Higher)
            .metric("ht_size_delta", size_delta, Direction::Lower)
            .detail(&detail);
        std::fs::write(path, format!("{}\n", report.to_json())).expect("write --out file");
        println!("wrote {path}");
    }

    assert!(
        ht_speedup >= HT_MIN_SPEEDUP,
        "HT Tier-1 throughput regression: {ht_speedup:.2}x MQ on samples/s, \
         gate is {HT_MIN_SPEEDUP}x"
    );
}
