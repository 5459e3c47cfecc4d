//! Figure 8: DWT time vs Muta0/Muta1 (convolution + tiles vs merged lifting).

use baselines::muta::{muta_machine, simulate_muta, MutaMode};
use cellsim::MachineConfig;
use j2k_bench::{lossless_params, ms, parse_args, profile, row};
use j2k_core::cell::{simulate, SimOptions};
use j2k_core::EncoderParams;

fn main() {
    let args = parse_args();
    let im = imgio::synth::natural_rgb(1280, 720, args.seed);
    println!("Figure 8 — DWT vs Muta et al. (1280x720 lossless; speedups vs Muta0)");
    let ours = profile(&im, &lossless_params(args.levels));
    let muta_prof = profile(
        &im,
        &EncoderParams {
            cb_size: 32,
            ..lossless_params(args.levels)
        },
    );
    let dwt = |tl: &cellsim::Timeline, hz: f64| tl.cycles_matching("dwt") as f64 / hz;
    let m0 = dwt(
        &simulate_muta(&muta_prof, MutaMode::Muta0),
        muta_machine(MutaMode::Muta0).clock_hz,
    ) / 2.0;
    let m1 = dwt(
        &simulate_muta(&muta_prof, MutaMode::Muta1),
        muta_machine(MutaMode::Muta1).clock_hz,
    );
    let o1 = dwt(
        &simulate(&ours, &MachineConfig::qs20_single(), &SimOptions::default()),
        MachineConfig::qs20_single().clock_hz,
    );
    let o2 = dwt(
        &simulate(&ours, &MachineConfig::qs20_blade(), &SimOptions::default()),
        MachineConfig::qs20_blade().clock_hz,
    );
    row(
        args.csv,
        &["config".into(), "dwt_ms".into(), "speedup_vs_muta0".into()],
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
