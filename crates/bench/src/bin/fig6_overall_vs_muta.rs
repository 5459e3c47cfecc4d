//! Figure 6: overall encode time vs Muta0/Muta1 (1280x720 lossless frame).

use baselines::muta::{per_frame_seconds, simulate_muta, MutaMode};
use cellsim::MachineConfig;
use j2k_bench::{lossless_params, ms, parse_args, profile, row};
use j2k_core::cell::{simulate, SimOptions};
use j2k_core::EncoderParams;

fn main() {
    let args = parse_args();
    let im = imgio::synth::natural_rgb(1280, 720, args.seed);
    println!("Figure 6 — overall encode vs Muta et al. (1280x720 RGB lossless; speedups vs Muta0)");
    let ours = profile(&im, &lossless_params(args.levels));
    let muta_prof = profile(
        &im,
        &EncoderParams {
            cb_size: 32,
            ..lossless_params(args.levels)
        },
    );
    let m0 = per_frame_seconds(&simulate_muta(&muta_prof, MutaMode::Muta0), MutaMode::Muta0);
    let m1 = per_frame_seconds(&simulate_muta(&muta_prof, MutaMode::Muta1), MutaMode::Muta1);
    let ours1 = simulate(
        &ours,
        &MachineConfig::qs20_single(),
        &SimOptions {
            ppe_tier1: true,
            ..Default::default()
        },
    )
    .total_seconds();
    let ours2 = simulate(
        &ours,
        &MachineConfig::qs20_blade(),
        &SimOptions {
            ppe_tier1: true,
            ..Default::default()
        },
    )
    .total_seconds();
    row(
        args.csv,
        &[
            "config".into(),
            "ms/frame".into(),
            "speedup_vs_muta0".into(),
        ],
    );
    row(args.csv, &["Muta0 (2 chips)".into(), ms(m0), "1.00".into()]);
    row(
        args.csv,
        &["Muta1 (2 chips)".into(), ms(m1), format!("{:.2}", m0 / m1)],
    );
    row(
        args.csv,
        &[
            "Ours (1 chip)".into(),
            ms(ours1),
            format!("{:.2}", m0 / ours1),
        ],
    );
    row(
        args.csv,
        &[
            "Ours (2 chips)".into(),
            ms(ours2),
            format!("{:.2}", m0 / ours2),
        ],
    );
}
