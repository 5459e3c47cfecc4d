//! Host-parallel scaling: sweep worker counts over the sample-transform
//! stages (level shift + MCT, DWT, quantization) and Tier-1.
//!
//! Unlike the figure binaries this measures *real* wall time of the
//! encode driver (`encode_with`), not the simulated Cell timeline: the
//! `--spes` list is reused as the worker counts. Also prints per-worker
//! job counts so the fan-out is visible, and asserts the codestream stays
//! byte-identical to the one-worker encode at every worker count (the
//! paper's implicit invariant).

use j2k_bench::{lossless_params, lossy_params, ms, parse_args, row, workload_rgb};
use j2k_core::{encode, encode_with, EncoderParams, WorkloadProfile};

fn stage(prof: &WorkloadProfile, name: &str) -> f64 {
    prof.stage_times
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.seconds)
}

fn transform_secs(prof: &WorkloadProfile) -> f64 {
    stage(prof, "mct") + stage(prof, "dwt") + stage(prof, "quantize")
}

fn sweep(label: &str, im: &imgio::Image, params: &EncoderParams, workers: &[usize], csv: bool) {
    let one = encode(im, params).expect("one-worker encode");
    println!("{label}");
    row(
        csv,
        &[
            "workers".into(),
            "transform_ms".into(),
            "tier1_ms".into(),
            "total_ms".into(),
            "xform_speedup".into(),
            "jobs/worker".into(),
        ],
    );
    let mut base = None;
    for &n in workers {
        let t0 = std::time::Instant::now();
        let (bytes, prof) = encode_with(im, params, n, None).expect("encode");
        let total = t0.elapsed().as_secs_f64();
        assert_eq!(bytes, one, "codestream changed at workers={n}");
        let xform = transform_secs(&prof);
        let base = *base.get_or_insert(xform);
        let jobs: Vec<String> = prof.worker_jobs.iter().map(|j| j.to_string()).collect();
        row(
            csv,
            &[
                n.to_string(),
                ms(xform),
                ms(stage(&prof, "tier1")),
                ms(total),
                format!("{:.2}", base / xform.max(1e-12)),
                jobs.join("/"),
            ],
        );
    }
}

fn main() {
    let args = parse_args();
    let im = workload_rgb(&args);
    let workers: Vec<usize> = args.spes.iter().copied().filter(|&n| n > 0).collect();
    println!(
        "Host-parallel scaling — {}x{} RGB, {} levels (byte-identity asserted per row)",
        args.size, args.size, args.levels
    );
    sweep(
        "lossless (5/3)",
        &im,
        &lossless_params(args.levels),
        &workers,
        args.csv,
    );
    sweep(
        "lossy (9/7, f32)",
        &im,
        &lossy_params(args.levels),
        &workers,
        args.csv,
    );
}
