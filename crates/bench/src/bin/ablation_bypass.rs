//! Selective arithmetic-coding bypass ("lazy" mode) ablation — an optional
//! JPEG2000 feature the paper does not explore, but which attacks exactly
//! its bottleneck: Tier-1 is ~75% of the lossless encode, and bypass
//! converts deep-plane MQ decisions into raw bits.

use cellsim::MachineConfig;
use j2k_bench::{lossless_params, ms, parse_args, row, workload_rgb};
use j2k_core::cell::{simulate, SimOptions};
use j2k_core::EncoderParams;

fn main() {
    let args = parse_args();
    let im = workload_rgb(&args);
    println!(
        "Arithmetic-coding-bypass ablation, {}x{} RGB lossless (8 SPE + 1 PPE)",
        args.size, args.size
    );
    row(
        args.csv,
        &[
            "mode".into(),
            "bytes".into(),
            "t1_symbols".into(),
            "sim_total_ms".into(),
            "sim_tier1_ms".into(),
        ],
    );
    let cfg = MachineConfig::qs20_single();
    for bypass in [false, true] {
        let params = EncoderParams {
            bypass,
            ..lossless_params(args.levels)
        };
        let (bytes, prof) = j2k_core::encode_with(&im, &params, 1, None).unwrap();
        let tl = simulate(&prof, &cfg, &SimOptions::default());
        row(
            args.csv,
            &[
                if bypass {
                    "bypass (lazy)".into()
                } else {
                    "full MQ".into()
                },
                format!("{}", bytes.len()),
                format!("{}", prof.tier1_symbols()),
                ms(tl.total_seconds()),
                ms(tl.cycles_matching("tier1") as f64 / cfg.clock_hz),
            ],
        );
    }
    println!();
    println!("(Raw bits are counted as Tier-1 work items too; the benefit on real");
    println!(" hardware comes from the raw path's shorter dependency chain — the");
    println!(" cost model treats decisions uniformly, so simulated gains are");
    println!(" conservative. The rate cost of bypass is the `bytes` delta.)");
}
