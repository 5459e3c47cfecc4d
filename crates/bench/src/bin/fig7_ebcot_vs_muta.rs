//! Figure 7: EBCOT (Tier-1 + Tier-2) time vs Muta0/Muta1.

use baselines::muta::{muta_machine, simulate_muta, MutaMode};
use cellsim::MachineConfig;
use j2k_bench::{lossless_params, ms, parse_args, profile, row};
use j2k_core::cell::{simulate, SimOptions};
use j2k_core::EncoderParams;

fn ebcot_secs(tl: &cellsim::Timeline, hz: f64) -> f64 {
    (tl.cycles_matching("tier1") + tl.cycles_matching("tier2") + tl.cycles_matching("ebcot")) as f64
        / hz
}

fn main() {
    let args = parse_args();
    let im = imgio::synth::natural_rgb(1280, 720, args.seed);
    println!(
        "Figure 7 — EBCOT (Tier-1 + Tier-2) vs Muta et al. (1280x720 lossless; speedups vs Muta0)"
    );
    let ours = profile(&im, &lossless_params(args.levels));
    let muta_prof = profile(
        &im,
        &EncoderParams {
            cb_size: 32,
            ..lossless_params(args.levels)
        },
    );
    let m0tl = simulate_muta(&muta_prof, MutaMode::Muta0);
    let m1tl = simulate_muta(&muta_prof, MutaMode::Muta1);
    let m0 = ebcot_secs(&m0tl, muta_machine(MutaMode::Muta0).clock_hz) / 2.0; // throughput
    let m1 = ebcot_secs(&m1tl, muta_machine(MutaMode::Muta1).clock_hz);
    let opts = SimOptions {
        ppe_tier1: true,
        ..Default::default()
    };
    let o1tl = simulate(&ours, &MachineConfig::qs20_single(), &opts);
    let o2tl = simulate(&ours, &MachineConfig::qs20_blade(), &opts);
    let o1 = ebcot_secs(&o1tl, MachineConfig::qs20_single().clock_hz);
    let o2 = ebcot_secs(&o2tl, MachineConfig::qs20_blade().clock_hz);
    row(
        args.csv,
        &[
            "config".into(),
            "ebcot_ms".into(),
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
        &["Ours (1 chip)".into(), ms(o1), format!("{:.2}", m0 / o1)],
    );
    row(
        args.csv,
        &["Ours (2 chips)".into(), ms(o2), format!("{:.2}", m0 / o2)],
    );
}
