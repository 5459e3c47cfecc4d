//! Pentium IV 3.2 GHz scalar baseline (Figure 9).
//!
//! Models Jasper compiled with `-O5` on a single x86 core: every stage runs
//! sequentially; nothing is vectorized ("vectorization is not implemented
//! in the Jasper code for the Pentium IV processor"); the lossy DWT uses
//! Jasper's Q13 fixed-point arithmetic ("the Pentium IV processor emulates
//! the floating point operations with the fixed point instructions").

use cellsim::stage::run_sequential;
use cellsim::{Kernel, MachineConfig, ProcKind, Timeline};
use j2k_core::{Arithmetic, Mode, WorkloadProfile};

/// A MachineConfig standing in for the P4 host (3.2 GHz; the bus model is
/// unused because all stages are compute-bound sequential).
pub fn p4_machine() -> MachineConfig {
    MachineConfig {
        num_spes: 0,
        num_ppes: 1,
        clock_hz: 3.2e9,
        cache_line: 64,
        ls_bytes: 0,
        mem_bw_bytes_per_s: 6.4e9,
        dma_latency_cycles: 0,
        ls_code_stack_bytes: 0,
    }
}

/// Simulate a sequential Jasper-style encode of `profile` on the P4.
pub fn simulate_p4(profile: &WorkloadProfile) -> Timeline {
    let cfg = p4_machine();
    let p = ProcKind::PentiumIV;
    let mut tl = Timeline::default();
    let comps = profile.comps as u64;

    let run = |tl: &mut Timeline, name: &str, kernel: Kernel, items: u64| {
        let out = run_sequential(&cfg, p, kernel, items);
        tl.push(out.report(name, &cfg));
    };

    run(
        &mut tl,
        "read-convert",
        Kernel::TypeConvert,
        profile.samples,
    );
    run(
        &mut tl,
        "levelshift-ict",
        Kernel::LevelShiftIct,
        profile.samples,
    );

    // DWT: Jasper is lifting based. The lossy kernel follows the
    // profile's arithmetic — stock Jasper uses Q13 fixed point on x86
    // (pass a FixedQ13 profile for the faithful Figure 9 baseline).
    let (kernel, passes) = match (profile.params.mode, profile.params.arithmetic) {
        (Mode::Lossless, _) => (Kernel::DwtLift53, 2u64),
        (Mode::Lossy { .. }, Arithmetic::FixedQ13) => (Kernel::DwtLift97Fixed, 4u64),
        (Mode::Lossy { .. }, Arithmetic::Float32) => (Kernel::DwtLift97F32, 4u64),
    };
    for (li, lv) in profile.levels.iter().enumerate() {
        let samples = lv.w * lv.h * comps;
        run(
            &mut tl,
            &format!("dwt-vertical-l{}", li + 1),
            kernel,
            samples * passes,
        );
        run(
            &mut tl,
            &format!("dwt-horizontal-l{}", li + 1),
            kernel,
            samples * passes,
        );
        // The split/deinterleave pass (poor cache behavior on the P4 is
        // part of why column-major traversal hurts; folded into DwtSplit).
        run(
            &mut tl,
            &format!("dwt-split-l{}", li + 1),
            Kernel::DwtSplit,
            samples,
        );
    }

    if matches!(profile.params.mode, Mode::Lossy { .. }) {
        run(&mut tl, "quantize", Kernel::Quantize, profile.samples);
    }
    run(&mut tl, "tier1", Kernel::Tier1, profile.tier1_symbols());
    if profile.rate_control_items > 0 {
        run(
            &mut tl,
            "rate-control",
            Kernel::RateControl,
            profile.rate_control_items,
        );
    }
    run(&mut tl, "tier2", Kernel::Tier2, profile.blocks.len() as u64);
    run(&mut tl, "stream-io", Kernel::StreamIo, profile.output_bytes);
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use j2k_core::{cell, EncoderParams};

    fn profile(params: &EncoderParams) -> WorkloadProfile {
        let im = imgio::synth::natural(160, 160, 17);
        j2k_core::encode_with(&im, params, 1, None).unwrap().1
    }

    #[test]
    fn p4_runs_all_stages_sequentially() {
        let tl = simulate_p4(&profile(&EncoderParams::lossless()));
        assert!(tl.stages.iter().all(|s| s.busy_cycles.len() == 1));
        assert!(tl.stages.iter().any(|s| s.name == "tier1"));
        assert!(tl.total_cycles() > 0);
    }

    #[test]
    fn cell_beats_p4_on_dwt_by_a_wide_margin() {
        let p = profile(&EncoderParams::lossless());
        let p4 = simulate_p4(&p);
        let cell_tl = cell::simulate(
            &p,
            &MachineConfig::qs20_single(),
            &cell::SimOptions::default(),
        );
        let p4_dwt = p4.cycles_matching("dwt") as f64 / p4_machine().clock_hz;
        let cell_dwt =
            cell_tl.cycles_matching("dwt") as f64 / MachineConfig::qs20_single().clock_hz;
        let speedup = p4_dwt / cell_dwt;
        assert!(speedup > 4.0, "DWT speedup only {speedup}");
    }

    #[test]
    fn lossy_p4_uses_fixed_point_and_rate_control() {
        let tl = simulate_p4(&profile(&EncoderParams::lossy(0.2)));
        assert!(tl.stages.iter().any(|s| s.name == "rate-control"));
        assert!(tl.stages.iter().any(|s| s.name == "quantize"));
    }
}
