//! Tier-1 backend scaling: MQ bit-plane coder vs the HT quad coder on
//! the paper workload, swept over host worker counts (the `--spes` list
//! is reused as the worker counts; a list without 1 gets 1 added in
//! front, because the gate reads the one-worker rows).
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
//! Every row is its coder's fastest Tier-1 time over [`GATE_RUNS`] encodes
//! at that worker count, with MQ and HT alternating, and the gate compares
//! the two one-worker rows: a single sample per coder moved the ratio by
//! more than a third between runs on a shared two-core host, and host
//! slowdowns only ever add time.
//!
//! Prints a table (or `--csv`) and, with `--out FILE`, writes the same
//! run as one JSON document, `{"config":…, "rows":[…], "summary":{…}}`,
//! where the summary holds the gate's one-worker throughputs and ratio.
//! The file is written before the gate is checked, so a failing run
//! still leaves its numbers behind.

use j2k_bench::{lossless_params, ms, parse_args, row, workload_rgb};
use j2k_core::{encode, encode_with, Coder, EncoderParams, Stage, WorkloadProfile};

/// HT must beat MQ by at least this factor on the samples/s basis
/// (single worker, so the ratio is per-core coder speed, not scaling).
const HT_MIN_SPEEDUP: f64 = 3.0;

/// Encodes per coder and worker count behind each row's Tier-1 time.
const GATE_RUNS: usize = 5;

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

    let coders = [Coder::Mq, Coder::Ht];
    let params = |coder: Coder| EncoderParams {
        coder,
        ..lossless_params(args.levels)
    };
    let one: Vec<Vec<u8>> = coders
        .iter()
        .map(|&c| encode(&im, &params(c)).expect("one-worker encode"))
        .collect();
    let samples_of =
        |prof: &WorkloadProfile| -> u64 { prof.blocks.iter().map(|b| b.samples).sum() };

    let mut workers = args.spes.clone();
    if !workers.contains(&1) {
        workers.insert(0, 1);
    }
    let mut rows: Vec<Row> = Vec::new();
    for &n in &workers {
        let mut best: [Option<Row>; 2] = [None, None];
        for _ in 0..GATE_RUNS {
            for (k, &coder) in coders.iter().enumerate() {
                let (bytes, prof) = encode_with(&im, &params(coder), n, None).expect("encode");
                assert_eq!(
                    bytes, one[k],
                    "{coder} codestream changed at workers={n} vs one worker"
                );
                let tier1 = prof.stage_time(Stage::Tier1).as_secs_f64();
                if best[k].as_ref().is_none_or(|b| tier1 < b.tier1) {
                    best[k] = Some(Row {
                        coder,
                        workers: n,
                        tier1,
                        symbols: prof.tier1_symbols(),
                        samples: samples_of(&prof),
                        bytes: bytes.len(),
                    });
                }
            }
        }
        rows.extend(best.into_iter().flatten());
    }
    // Print by coder, worker counts in sweep order.
    rows.sort_by_key(|r| r.coder == Coder::Ht);
    for r in &rows {
        row(
            args.csv,
            &[
                r.coder.name().into(),
                r.workers.to_string(),
                ms(r.tier1),
                format!("{:.3e}", r.symbols as f64 / r.tier1.max(1e-12)),
                format!("{:.3e}", r.samples as f64 / r.tier1.max(1e-12)),
                r.bytes.to_string(),
            ],
        );
    }

    // Per-core coder comparison: the one-worker rows.
    let one_worker = |coder: Coder| {
        rows.iter()
            .find(|r| r.coder == coder && r.workers == 1)
            .expect("the sweep measures one worker")
    };
    let (mq, ht) = (one_worker(Coder::Mq), one_worker(Coder::Ht));
    let sps = |r: &Row| r.samples as f64 / r.tier1.max(1e-12);
    let (mq_sps, ht_sps) = (sps(mq), sps(ht));
    let ht_speedup = ht_sps / mq_sps.max(1e-12);
    let size_delta = one[1].len() as f64 / one[0].len() as f64 - 1.0;
    println!();
    println!(
        "HT vs MQ at 1 worker, fastest of {GATE_RUNS}: MQ tier1 {} ms, HT tier1 {} ms, \
         {:.2}x samples/s, {:+.2}% codestream size",
        ms(mq.tier1),
        ms(ht.tier1),
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
                    r.samples as f64 / r.tier1.max(1e-12),
                    r.bytes,
                )
            })
            .collect();
        let config = format!(
            "{{\"size\":{},\"seed\":{},\"levels\":{},\"workers\":[{}]}}",
            args.size,
            args.seed,
            args.levels,
            workers
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        let doc = format!(
            "{{\"config\":{config},\"rows\":[{}],\"summary\":{{\
             \"mq_samples_per_sec\":{mq_sps:.1},\"ht_samples_per_sec\":{ht_sps:.1},\
             \"ht_vs_mq_samples_per_sec\":{ht_speedup:.3},\"ht_size_delta\":{size_delta:.4}}}}}",
            body.join(","),
        );
        std::fs::write(path, format!("{doc}\n")).expect("write --out file");
        println!("wrote {path}");
    }

    assert!(
        ht_speedup >= HT_MIN_SPEEDUP,
        "HT Tier-1 throughput regression: {ht_speedup:.2}x MQ on samples/s, \
         gate is {HT_MIN_SPEEDUP}x"
    );
}
