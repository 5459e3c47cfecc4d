//! Mapping the encoder pipeline onto the Cell/B.E. machine model.
//!
//! [`simulate`] schedules a measured [`WorkloadProfile`] under a
//! [`cellsim::MachineConfig`] with the paper's work partitioning
//! (Figure 2): sample stages are chunked with the data decomposition
//! scheme (constant-width cache-line-aligned chunks to the SPEs, remainder
//! to the PPE), Tier-1 uses a dynamic work queue over code blocks run by
//! SPE *and* PPE threads, and rate control / Tier-2 / stream assembly are
//! sequential PPE stages.

use crate::profile::WorkloadProfile;
use crate::{CodecError, EncoderParams, Mode};
use cellsim::stage::{run_stage_traced, Assignment, StageOutcome, TaskEvent, TaskSpec};
use cellsim::{DmaClass, Kernel, MachineConfig, ProcKind, ScheduleTrace, Timeline};
use imgio::Image;
use wavelet::{Filter, VerticalVariant};
use xpart::{auto_chunk_bytes, ChunkPlan, Owner, PlanConfig};

/// Tunables of the Cell mapping.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Constant chunk / column-group width in bytes (cache-line multiple).
    /// `None` auto-sizes to roughly four chunks per SPE.
    pub chunk_width_bytes: Option<usize>,
    /// Multi-buffering level for the streaming stages.
    pub buffering: usize,
    /// DMA alignment class for chunk transfers. The decomposition scheme
    /// guarantees [`DmaClass::LineOptimal`]; baselines override this.
    pub dma_class: DmaClass,
    /// Whether PPE threads join the Tier-1 work queue. The paper's base
    /// scaling curves use SPEs only; the "+1 PPE"/"+2 PPE" bars of
    /// Figures 4/5 turn this on.
    pub ppe_tier1: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            chunk_width_bytes: None,
            buffering: 2,
            dma_class: DmaClass::LineOptimal,
            ppe_tier1: false,
        }
    }
}

/// The PE roster: SPEs first, then PPE threads.
pub fn roster(cfg: &MachineConfig) -> Vec<ProcKind> {
    let mut v = vec![ProcKind::Spe; cfg.num_spes];
    v.extend(vec![ProcKind::Ppe; cfg.num_ppes.max(1)]);
    v
}

fn plan_for(width: usize, cfg: &MachineConfig, opts: &SimOptions) -> ChunkPlan {
    let chunk = opts
        .chunk_width_bytes
        .unwrap_or_else(|| auto_chunk_bytes(width, cfg.num_spes));
    ChunkPlan::build(
        width,
        1, // height folded into per-task item counts
        &PlanConfig {
            num_spes: cfg.num_spes,
            elem_size: 4,
            chunk_width_bytes: chunk,
            buffering: opts.buffering,
            ls_budget: cfg.ls_data_budget(),
        },
    )
    .expect("chunk plan")
}

/// Build a static assignment from a chunk plan: each chunk becomes one
/// task of `kernel` covering `rows` rows, with in+out DMA of its samples.
#[allow(clippy::too_many_arguments)]
fn chunked_stage(
    plan: &ChunkPlan,
    pes: &[ProcKind],
    num_spes: usize,
    kernel: Kernel,
    rows: u64,
    passes: u64,
    dma_factor: f64,
    class: DmaClass,
) -> Assignment {
    let mut lists: Vec<Vec<TaskSpec>> = vec![Vec::new(); pes.len()];
    for c in plan.chunks() {
        let pe = match c.owner {
            Owner::Spe(i) => i,
            Owner::Ppe => num_spes, // first PPE thread
        };
        let samples = c.width as u64 * rows;
        let bytes = (samples as f64 * 4.0 * dma_factor) as u64;
        lists[pe].push(TaskSpec {
            kernel,
            items: samples * passes,
            dma_in: bytes,
            dma_out: bytes,
            class,
        });
    }
    Assignment::Static(lists)
}

/// Arithmetic work units (MACs) per sample of the fused lifting kernel,
/// identical across loop-schedule variants. Derived from the cost model the
/// wavelet crate publishes ([`wavelet::conv::lifting_macs_per_sample`]) so
/// the simulated stage costs cannot drift from the shipped kernels: 2 for
/// 5/3 (two lifting steps), 5 for 9/7 (four lifting steps plus the K/1/K
/// scaling the fused pass folds in).
fn lift_passes(filter: Filter) -> u64 {
    wavelet::conv::lifting_macs_per_sample(filter).round() as u64
}

/// One-way DMA factor of the vertical stage: total traffic divided by
/// `2 * samples` (so 1.0 means each sample crosses the bus once per
/// direction). Derived from [`wavelet::vertical_traffic`].
fn vertical_dma_factor(variant: VerticalVariant, filter: Filter) -> f64 {
    let t = wavelet::vertical_traffic(variant, filter, 1024, 1024);
    t.total() as f64 / (2.0 * 1024.0 * 1024.0)
}

fn filter_of(params: &EncoderParams) -> Filter {
    match params.mode {
        Mode::Lossless => Filter::Rev53,
        Mode::Lossy { .. } => Filter::Irr97,
    }
}

fn lift_kernel(params: &EncoderParams) -> Kernel {
    match (params.mode, params.arithmetic) {
        (Mode::Lossless, _) => Kernel::DwtLift53,
        (Mode::Lossy { .. }, crate::Arithmetic::Float32) => Kernel::DwtLift97F32,
        (Mode::Lossy { .. }, crate::Arithmetic::FixedQ13) => Kernel::DwtLift97Fixed,
    }
}

/// Simulate the full encode of `profile` on `cfg`.
pub fn simulate(profile: &WorkloadProfile, cfg: &MachineConfig, opts: &SimOptions) -> Timeline {
    simulate_traced(profile, cfg, opts).0
}

/// One task on one PE, traced (the sequential PPE stages).
fn seq_traced(
    cfg: &MachineConfig,
    pe: ProcKind,
    kernel: Kernel,
    items: u64,
) -> (StageOutcome, Vec<TaskEvent>) {
    run_stage_traced(
        cfg,
        &[pe],
        &Assignment::Static(vec![vec![TaskSpec::compute_only(kernel, items)]]),
        1,
    )
}

/// [`simulate`] that also returns the full per-task schedule as a
/// [`ScheduleTrace`] on the virtual clock — stages laid end to end in
/// pipeline order, exportable as Chrome trace-event JSON via
/// [`ScheduleTrace::to_chrome_json`] (`j2kcell --cell-trace-out`).
pub fn simulate_traced(
    profile: &WorkloadProfile,
    cfg: &MachineConfig,
    opts: &SimOptions,
) -> (Timeline, ScheduleTrace) {
    let mut tl = Timeline::default();
    let mut tr = ScheduleTrace::new(cfg);
    let pes = roster(cfg);
    let params = &profile.params;
    let comps = profile.comps as u64;
    let filter = filter_of(params);
    let lift = lift_kernel(params);

    // 1. Read + type conversion: partially parallelized (half the samples
    // stay on the PPE's sequential stream reader).
    let plan_full = plan_for(profile.width, cfg, opts);
    let a = chunked_stage(
        &plan_full,
        &pes,
        cfg.num_spes,
        Kernel::TypeConvert,
        profile.height as u64 * comps / 2,
        1,
        1.0,
        opts.dma_class,
    );
    let (out, ev) = run_stage_traced(cfg, &pes, &a, opts.buffering);
    tr.record("read-convert-par", &pes, &out, ev);
    tl.push(out.report("read-convert-par", cfg));
    let (out, ev) = seq_traced(cfg, ProcKind::Ppe, Kernel::TypeConvert, profile.samples / 2);
    tr.record("read-convert-seq", &[ProcKind::Ppe], &out, ev);
    tl.push(out.report("read-convert-seq", cfg));

    // 2. Level shift merged with the inter-component transform.
    let a = chunked_stage(
        &plan_full,
        &pes,
        cfg.num_spes,
        Kernel::LevelShiftIct,
        profile.height as u64 * comps,
        1,
        1.0,
        opts.dma_class,
    );
    let (out, ev) = run_stage_traced(cfg, &pes, &a, opts.buffering);
    tr.record("levelshift-ict", &pes, &out, ev);
    tl.push(out.report("levelshift-ict", cfg));

    // 3. DWT: per level, vertical (column groups) then horizontal (rows).
    let vfac = vertical_dma_factor(params.variant, filter);
    for (li, lv) in profile.levels.iter().enumerate() {
        let plan = plan_for(lv.w as usize, cfg, opts);
        let a = chunked_stage(
            &plan,
            &pes,
            cfg.num_spes,
            lift,
            lv.h * comps,
            lift_passes(filter),
            vfac,
            opts.dma_class,
        );
        let (out, ev) = run_stage_traced(cfg, &pes, &a, opts.buffering);
        let name = format!("dwt-vertical-l{}", li + 1);
        tr.record(&name, &pes, &out, ev);
        tl.push(out.report(&name, cfg));

        // Horizontal: "we assign an identical number of rows to each SPE";
        // a row is the unit of transfer and computation. The PPE does not
        // take rows here (it only owns the vertical remainder chunk).
        let h_pes: Vec<ProcKind> = if cfg.num_spes > 0 {
            vec![ProcKind::Spe; cfg.num_spes]
        } else {
            vec![ProcKind::Ppe; cfg.num_ppes.max(1)]
        };
        let rows_total = lv.h * comps;
        let mut lists: Vec<Vec<TaskSpec>> = vec![Vec::new(); h_pes.len()];
        let band = rows_total.div_ceil(h_pes.len() as u64).max(1);
        for (pe, list) in lists.iter_mut().enumerate() {
            let r0 = band * pe as u64;
            let r1 = (r0 + band).min(rows_total);
            if r0 >= r1 {
                continue;
            }
            // Tasks of up to 16 rows so double buffering has granularity.
            let mut r = r0;
            while r < r1 {
                let n = 16.min(r1 - r);
                let samples = lv.w * n;
                list.push(TaskSpec {
                    kernel: lift,
                    items: samples * lift_passes(filter),
                    dma_in: samples * 4,
                    dma_out: samples * 4,
                    class: opts.dma_class,
                });
                r += n;
            }
        }
        let (out, ev) = run_stage_traced(cfg, &h_pes, &Assignment::Static(lists), opts.buffering);
        let name = format!("dwt-horizontal-l{}", li + 1);
        tr.record(&name, &h_pes, &out, ev);
        tl.push(out.report(&name, cfg));
    }

    // 4. Quantization (lossy only).
    if matches!(params.mode, Mode::Lossy { .. }) {
        let a = chunked_stage(
            &plan_full,
            &pes,
            cfg.num_spes,
            Kernel::Quantize,
            profile.height as u64 * comps,
            1,
            1.0,
            opts.dma_class,
        );
        let (out, ev) = run_stage_traced(cfg, &pes, &a, opts.buffering);
        tr.record("quantize", &pes, &out, ev);
        tl.push(out.report("quantize", cfg));
    }

    // 5. Tier-1: dynamic work queue over code blocks, SPE + PPE threads.
    let tasks: Vec<TaskSpec> = profile
        .blocks
        .iter()
        .map(|b| TaskSpec {
            kernel: match params.coder {
                crate::coder::Coder::Mq => Kernel::Tier1,
                crate::coder::Coder::Ht => Kernel::Tier1Ht,
            },
            items: b.symbols,
            dma_in: b.samples * 4,
            dma_out: b.bytes,
            class: DmaClass::LineOptimal,
        })
        .collect();
    // The paper's base configurations run Tier-1 on the SPEs only;
    // "additional PPEs participate in Tier-1 encoding" when enabled (or
    // when there are no SPEs at all).
    let t1_pes: Vec<ProcKind> = if opts.ppe_tier1 || cfg.num_spes == 0 {
        pes.clone()
    } else {
        vec![ProcKind::Spe; cfg.num_spes]
    };
    let (out, ev) = run_stage_traced(cfg, &t1_pes, &Assignment::Queue(tasks), 1);
    tr.record("tier1", &t1_pes, &out, ev);
    tl.push(out.report("tier1", cfg));

    // 6. Rate control (lossy): sequential PPE stage between Tier-1 and
    // Tier-2; this is what flattens the lossy scaling curve.
    if profile.rate_control_items > 0 {
        let (out, ev) = seq_traced(
            cfg,
            ProcKind::Ppe,
            Kernel::RateControl,
            profile.rate_control_items,
        );
        tr.record("rate-control", &[ProcKind::Ppe], &out, ev);
        tl.push(out.report("rate-control", cfg));
    }

    // 7. Tier-2 (sequential PPE).
    let (out, ev) = seq_traced(
        cfg,
        ProcKind::Ppe,
        Kernel::Tier2,
        profile.blocks.len() as u64,
    );
    tr.record("tier2", &[ProcKind::Ppe], &out, ev);
    tl.push(out.report("tier2", cfg));

    // 8. Codestream assembly / stream I/O (sequential PPE portion).
    let (out, ev) = seq_traced(cfg, ProcKind::Ppe, Kernel::StreamIo, profile.output_bytes);
    tr.record("stream-io", &[ProcKind::Ppe], &out, ev);
    tl.push(out.report("stream-io", cfg));

    (tl, tr)
}

/// Encode on the host (one worker) while simulating the Cell schedule over
/// the encode's profile; returns the codestream (the bytes of
/// [`crate::encode`]) and the timeline.
pub fn encode_on_cell(
    image: &Image,
    params: &EncoderParams,
    cfg: &MachineConfig,
    opts: &SimOptions,
) -> Result<(Vec<u8>, Timeline, WorkloadProfile), CodecError> {
    let (bytes, profile) = crate::encode_with(image, params, 1, None)?;
    let tl = simulate(&profile, cfg, opts);
    Ok((bytes, tl, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgio::synth;

    fn profile_for(w: usize, h: usize, params: &EncoderParams) -> WorkloadProfile {
        let im = synth::natural(w, h, 42);
        crate::encode_with(&im, params, 1, None).unwrap().1
    }

    #[test]
    fn simulate_produces_all_stages() {
        let p = profile_for(128, 128, &EncoderParams::lossless());
        let tl = simulate(&p, &MachineConfig::qs20_single(), &SimOptions::default());
        let names: Vec<&str> = tl.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"tier1"));
        assert!(names.contains(&"levelshift-ict"));
        assert!(names.iter().any(|n| n.starts_with("dwt-vertical")));
        assert!(
            !names.contains(&"rate-control"),
            "lossless has no rate control"
        );
        assert!(tl.total_cycles() > 0);
    }

    #[test]
    fn lossy_has_rate_control_stage() {
        let p = profile_for(128, 128, &EncoderParams::lossy(0.2));
        let tl = simulate(&p, &MachineConfig::qs20_single(), &SimOptions::default());
        assert!(tl.stages.iter().any(|s| s.name == "rate-control"));
        assert!(tl.stages.iter().any(|s| s.name == "quantize"));
    }

    #[test]
    fn more_spes_is_faster_lossless() {
        let params = EncoderParams {
            cb_size: 32,
            ..EncoderParams::lossless()
        };
        let p = profile_for(256, 256, &params);
        let base = MachineConfig::qs20_single();
        let t1 = simulate(&p, &base.with_spes(1), &SimOptions::default());
        let t8 = simulate(&p, &base.with_spes(8), &SimOptions::default());
        let s = t1.total_cycles() as f64 / t8.total_cycles() as f64;
        assert!(s > 3.5, "8-SPE speedup only {s}");
        // Adding PPE threads to the Tier-1 queue helps further.
        let with_ppe = simulate(
            &p,
            &base.with_spes(8),
            &SimOptions {
                ppe_tier1: true,
                ..Default::default()
            },
        );
        assert!(with_ppe.total_cycles() < t8.total_cycles());
    }

    #[test]
    fn merged_variant_beats_separate_on_dwt_time() {
        let im = synth::natural(192, 192, 3);
        let pm = EncoderParams {
            variant: wavelet::VerticalVariant::Merged,
            ..Default::default()
        };
        let ps = EncoderParams {
            variant: wavelet::VerticalVariant::Separate,
            ..Default::default()
        };
        let (_, prof_m) = crate::encode_with(&im, &pm, 1, None).unwrap();
        let (_, prof_s) = crate::encode_with(&im, &ps, 1, None).unwrap();
        let cfg = MachineConfig::qs20_single();
        let tm = simulate(&prof_m, &cfg, &SimOptions::default());
        let ts = simulate(&prof_s, &cfg, &SimOptions::default());
        assert!(
            tm.cycles_matching("dwt-vertical") < ts.cycles_matching("dwt-vertical"),
            "merged {} vs separate {}",
            tm.cycles_matching("dwt-vertical"),
            ts.cycles_matching("dwt-vertical")
        );
    }

    #[test]
    fn cell_encode_matches_sequential_bytes() {
        let im = synth::natural_rgb(64, 48, 5);
        let params = EncoderParams {
            levels: 3,
            ..EncoderParams::lossless()
        };
        let seq = crate::encode(&im, &params).unwrap();
        let (bytes, tl, prof) = encode_on_cell(
            &im,
            &params,
            &MachineConfig::qs20_single(),
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(bytes, seq);
        assert!(tl.total_seconds() > 0.0);
        assert_eq!(prof.output_bytes as usize, bytes.len());
    }

    #[test]
    fn traced_simulation_exports_a_valid_chrome_trace() {
        let p = profile_for(128, 128, &EncoderParams::lossless());
        let cfg = MachineConfig::qs20_single();
        let (tl, tr) = simulate_traced(&p, &cfg, &SimOptions::default());
        assert_eq!(tr.total_cycles(), tl.total_cycles());
        assert_eq!(tr.stages().len(), tl.stages.len());
        let json = tr.to_chrome_json();
        obs::chrome::check(&json, &["stage:tier1", "stage:levelshift-ict"]).expect("check");
        // Tier-1 compute spans land on SPE tracks (tid >= 1).
        let evs = obs::chrome::parse(&json).unwrap();
        assert!(evs
            .iter()
            .any(|e| e.name == "tier1" && e.ph == "X" && e.tid >= 1));
    }

    #[test]
    fn ppe_only_configuration_runs() {
        let p = profile_for(96, 96, &EncoderParams::lossless());
        let cfg = MachineConfig::qs20_single().with_spes(0);
        let tl = simulate(&p, &cfg, &SimOptions::default());
        assert!(tl.total_cycles() > 0);
    }
}
