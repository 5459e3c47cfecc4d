//! The encoder driver: the paper's parallelization strategy on host
//! threads, end to end.
//!
//! * The **sample stages** (level shift + MCT merged, DWT, quantization)
//!   are decomposed by the same column-chunk plan the Cell path uses
//!   ([`xpart::ChunkPlan`]): constant-width chunks (a cache-line multiple)
//!   go round-robin to the workers — the SPE role — while the
//!   arbitrary-width remainder chunk stays on the calling thread — the PPE
//!   role. Vertical lifting runs per column chunk, horizontal lifting per
//!   row band ("an identical number of rows to each SPE").
//! * **Tier-1** uses a dynamic work queue of code blocks (an atomic
//!   cursor), exactly like the paper's SPE/PPE queue.
//! * **Rate control and Tier-2** run sequentially on the calling thread,
//!   as on the paper's PPE (`pipeline::rate_control_and_assemble`).
//!
//! One `workers` knob drives both fan-outs; at one worker every stage runs
//! on the calling thread and no thread is spawned. Output is byte-identical
//! for every worker count — parallelization must never change the
//! codestream (asserted by tests and proptests): the vertical filter is
//! column-local, the horizontal filter row-local, and level shift / MCT /
//! quantization are elementwise, so any disjoint partition performs the
//! same arithmetic on the same operands.

use crate::control::EncodeControl;
use crate::pipeline::{
    band_kind, block_grid, build_profile, default_base_step, rate_control_and_assemble,
    BlockRecord, Transformed,
};
use crate::profile::StageTime;
use crate::quant::{band_delta, StepSize, GUARD_BITS};
use crate::{codestream::Quant, Arithmetic, CodecError, EncoderParams, Mode, WorkloadProfile};
use imgio::Image;
use obs::trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wavelet::rowops::{Region, SharedPlane};
use wavelet::{horizontal, norms, vertical};
use xpart::{auto_chunk_bytes, AlignedPlane, ChunkPlan, Owner, PlanConfig};

/// Encode `image` with `params` on the calling thread, returning the
/// codestream: [`encode_with`] at one worker without a control.
pub fn encode(image: &Image, params: &EncoderParams) -> Result<Vec<u8>, CodecError> {
    encode_with(image, params, 1, None).map(|(bytes, _)| bytes)
}

/// Encode with `workers` threads (clamped to at least 1) and return the
/// codestream plus the measured [`WorkloadProfile`]: per-stage wall times
/// and per-worker job counts (`worker_jobs`: workers first, calling thread
/// last).
///
/// With a `ctl`, the encode polls it at every stage boundary and, during
/// Tier-1, once per code block, returning [`CodecError::Cancelled`] /
/// [`CodecError::Deadline`] instead of a codestream when the control stops
/// it. The control adds checkpoints, never arithmetic: a completed encode
/// is byte-identical with or without one, at every worker count.
pub fn encode_with(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    ctl: Option<&EncodeControl>,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let workers = workers.max(1);
    if let Some(c) = ctl {
        c.check()?;
    }

    let (t, stats) = transform_samples_parallel(image, params, workers, ctl)?;
    let mut stage_times = stats.stage_times;
    let mut worker_jobs = stats.worker_jobs;

    let stage_span = trace::span("stage:tier1")
        .cat("stage")
        .arg("coder", params.coder.id());
    let t1 = Instant::now();
    let (records, tier1_counts) = tier1_queue(&t, params, workers, ctl)?;
    drop(stage_span);
    stage_times.push(StageTime::new("tier1", t1.elapsed().as_secs_f64()));
    accumulate(&mut worker_jobs, &tier1_counts);

    let rc_span = trace::span("stage:rate-control").cat("stage");
    let raw = image.raw_bytes() as u64;
    let out = rate_control_and_assemble(image, params, &t, &records, raw)?;
    drop(rc_span);
    stage_times.push(StageTime::new("rate-control", out.alloc_secs));
    stage_times.push(StageTime::new("tier2", out.tier2_secs));

    let profile = build_profile(image, params, &records, &out, stage_times, worker_jobs);
    Ok((out.bytes, profile))
}

/// [`encode_with`] without a control, kept for callers of this name.
#[doc(hidden)]
pub fn encode_parallel_with_profile(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    encode_with(image, params, workers, None)
}

/// Dense quantizer-index planes from the chunked sample stages at
/// `workers`. Diagnostic counterpart of
/// [`crate::pipeline::transform_coefficients`]; the differential proptests
/// assert the two agree coefficient for coefficient for every worker count.
pub fn transform_coefficients_parallel(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
) -> Result<Vec<Vec<i32>>, CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let (t, _) = transform_samples_parallel(image, params, workers.max(1), None)?;
    Ok(t.indices.iter().map(|p| p.to_dense()).collect())
}

/// Run `worker(i)` for every worker index `i` in `0..workers` and
/// `calling()` on the calling thread, then join; returns the workers'
/// results in index order.
///
/// At one worker both run inline on the calling thread and no thread is
/// spawned. Otherwise each worker gets a scoped thread that inherits the
/// caller's trace id (TLS does not cross `thread::scope`) and flushes its
/// trace buffer before returning: the scope waits for closures, not TLS
/// destructors, so the Drop flush alone would race the caller's trace
/// drain. A worker's panic resumes on the calling thread after the join.
fn on_workers<R, W, C>(workers: usize, worker: W, calling: C) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    C: FnOnce(),
{
    if workers <= 1 {
        let r = worker(0);
        calling();
        return vec![r];
    }
    let parent_trace = trace::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|wi| {
                let worker = &worker;
                scope.spawn(move || {
                    trace::set_current(parent_trace);
                    let r = worker(wi);
                    trace::flush_thread();
                    r
                })
            })
            .collect();
        calling();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Tier-1 over a dynamic work queue: `workers` pull the next code block
/// atomically, code it, and run its R-D preparation. Each worker returns
/// its `(job index, record)` pairs, scattered into job order after the
/// join. Returns the records plus per-worker block counts.
pub(crate) fn tier1_queue(
    t: &Transformed,
    params: &EncoderParams,
    workers: usize,
    ctl: Option<&EncodeControl>,
) -> Result<(Vec<BlockRecord>, Vec<u64>), CodecError> {
    // The block job list: (comp, band, grid position, geometry).
    let mut jobs = Vec::new();
    for c in 0..t.indices.len() {
        for (bi, b) in t.bands.iter().enumerate() {
            for g in block_grid(b, params.cb_size) {
                jobs.push((c, bi, g));
            }
        }
    }
    let cursor = AtomicUsize::new(0);
    // First injected `tier1.block` error, if the failpoint fires: the
    // erroring worker parks its message here and stops claiming jobs.
    let injected: Mutex<Option<String>> = Mutex::new(None);
    let done = on_workers(
        workers,
        |_| {
            let mut done = Vec::new();
            loop {
                if ctl.is_some_and(|c| c.is_stopped()) {
                    break;
                }
                // Failpoint `tier1.block`: fires once per claimed code
                // block. A panic here unwinds through the join (the
                // service's catch_unwind lever); an error stops this
                // worker and fails the whole encode after the barrier.
                if let Some(msg) = faultsim::eval("tier1.block") {
                    *injected.lock().unwrap_or_else(|e| e.into_inner()) = Some(msg);
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(comp, bi, (bx, by, x0, y0, bw, bh))) = jobs.get(i) else {
                    break;
                };
                let plane = &t.indices[comp];
                let mut data = Vec::with_capacity(bw * bh);
                for y in y0..y0 + bh {
                    data.extend_from_slice(&plane.row(y)[x0..x0 + bw]);
                }
                let enc = params.coder.block_coder().encode(
                    &data,
                    bw,
                    bh,
                    band_kind(t.bands[bi].band),
                    params.bypass,
                );
                assert!(
                    enc.num_planes <= t.max_planes[bi],
                    "band {bi}: {} planes exceed M_b {}",
                    enc.num_planes,
                    t.max_planes[bi]
                );
                // R-D preparation (truncation rates/distortions + convex
                // hull) runs here, on the worker that coded the block —
                // the post-pass slice of rate control rides the queue.
                done.push((i, BlockRecord::new(comp, bi, bx, by, enc, t.weights[bi])));
            }
            done
        },
        || {},
    );
    if let Some(c) = ctl {
        // A stopped Tier-1 leaves unclaimed jobs; bail before collecting.
        c.check()?;
    }
    // Same for an injected `tier1.block` error: the erroring worker left
    // its claimed job (and any unclaimed tail) undone.
    if let Some(msg) = injected.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(CodecError::Injected(msg));
    }
    let counts = done.iter().map(|d| d.len() as u64).collect();
    let mut slots: Vec<Option<BlockRecord>> = jobs.iter().map(|_| None).collect();
    for (i, rec) in done.into_iter().flatten() {
        slots[i] = Some(rec);
    }
    let records = slots
        .into_iter()
        .map(|s| s.expect("every job completed"))
        .collect();
    Ok((records, counts))
}

// ---------------------------------------------------------------------------
// Chunked sample stages
// ---------------------------------------------------------------------------

/// Measurements of the chunked transform: per-stage wall times plus jobs
/// executed per worker (workers first, calling thread last).
pub(crate) struct TransformStats {
    pub stage_times: Vec<StageTime>,
    pub worker_jobs: Vec<u64>,
}

fn accumulate(totals: &mut [u64], counts: &[u64]) {
    for (t, c) in totals.iter_mut().zip(counts) {
        *t += c;
    }
}

/// Column-chunk plan for an extent of `width` samples: auto-sized
/// constant-width chunks round-robin over `workers`, remainder to the
/// calling thread.
fn plan_for(width: usize, workers: usize) -> Result<ChunkPlan, CodecError> {
    ChunkPlan::build(
        width,
        1,
        &PlanConfig {
            num_spes: workers,
            elem_size: 4,
            chunk_width_bytes: auto_chunk_bytes(width, workers),
            buffering: 1,
            // Host threads have no Local Store limit.
            ls_budget: usize::MAX / 2,
        },
    )
    .map_err(|e| CodecError::Params(format!("chunk plan: {e}")))
}

/// One unit of chunked work: a component index plus the plane region it
/// covers. For fused multi-component kernels (RCT/ICT) `comp` is 0 and the
/// job covers all components at once.
#[derive(Clone, Copy)]
struct ChunkJob {
    comp: usize,
    region: Region,
    /// Dense chunk index within the stage (the plan's `ChunkDesc::id`
    /// for column chunks, the band index for row bands); rides into
    /// trace span args so a trace can be joined back to the plan.
    chunk: usize,
}

/// Static job assignment for one stage: a list per worker (the SPE role)
/// plus the calling thread's remainder list (the PPE role).
struct Assignment {
    per_worker: Vec<Vec<ChunkJob>>,
    calling: Vec<ChunkJob>,
}

/// Column decomposition: every plan chunk becomes a full-height region.
fn assign_columns(plan: &ChunkPlan, comps: usize, h: usize, workers: usize) -> Assignment {
    let mut per_worker = vec![Vec::new(); workers];
    let mut calling = Vec::new();
    for comp in 0..comps {
        for c in plan.chunks() {
            let job = ChunkJob {
                comp,
                region: Region {
                    x0: c.x0,
                    y0: 0,
                    w: c.width,
                    h,
                },
                chunk: c.id,
            };
            match c.owner {
                Owner::Spe(i) => per_worker[i].push(job),
                Owner::Ppe => calling.push(job),
            }
        }
    }
    Assignment {
        per_worker,
        calling,
    }
}

/// Row decomposition for horizontal filtering: an identical number of rows
/// per worker (the paper assigns no rows to the PPE in this stage).
fn assign_rows(w: usize, h: usize, comps: usize, workers: usize) -> Assignment {
    let mut per_worker = vec![Vec::new(); workers];
    let band = h.div_ceil(workers).max(1);
    for comp in 0..comps {
        let mut y0 = 0;
        let mut wi = 0;
        while y0 < h {
            let bh = band.min(h - y0);
            per_worker[wi % workers].push(ChunkJob {
                comp,
                region: Region {
                    x0: 0,
                    y0,
                    w,
                    h: bh,
                },
                chunk: wi,
            });
            y0 += bh;
            wi += 1;
        }
    }
    Assignment {
        per_worker,
        calling: Vec::new(),
    }
}

impl Assignment {
    /// Run `f` over every job through [`on_workers`]: worker `i` processes
    /// its list while the calling thread processes the remainder, then
    /// all join (a stage barrier). Every job runs under a span named
    /// `stage` (args: worker / chunk / comp). Returns per-worker job
    /// counts with the calling thread last.
    fn run<F>(&self, stage: &'static str, f: F) -> Vec<u64>
    where
        F: Fn(ChunkJob) + Sync,
    {
        let traced = |wi: usize, j: ChunkJob| {
            let _sp = trace::span(stage)
                .cat("chunk")
                .arg("worker", wi as u64)
                .arg("chunk", j.chunk as u64)
                .arg("comp", j.comp as u64);
            f(j);
        };
        let calling_wi = self.per_worker.len();
        on_workers(
            self.per_worker.len(),
            |wi| {
                for &j in &self.per_worker[wi] {
                    traced(wi, j);
                }
            },
            || {
                for &j in &self.calling {
                    traced(calling_wi, j);
                }
            },
        );
        let mut counts: Vec<u64> = self.per_worker.iter().map(|l| l.len() as u64).collect();
        counts.push(self.calling.len() as u64);
        counts
    }
}

/// Chunked version of [`crate::pipeline::transform_samples`]: identical
/// coefficients by construction (same arithmetic on the same operands,
/// only partitioned), plus stage measurements. Polls `ctl` after each
/// stage and between DWT levels.
fn transform_samples_parallel(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    ctl: Option<&EncodeControl>,
) -> Result<(Transformed, TransformStats), CodecError> {
    let (w, h) = (image.width, image.height);
    let comps = image.comps();
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let use_mct = comps == 3;
    let variant = params.variant;
    let bands = wavelet::subbands(w, h, params.levels);
    let mut worker_jobs = vec![0u64; workers + 1];
    let mut stage_times = Vec::new();

    let cv_span = trace::span("stage:convert").cat("stage");
    let t0 = Instant::now();
    let mut int_planes: Vec<AlignedPlane<i32>> = image
        .planes
        .iter()
        .map(|p| {
            let dense: Vec<i32> = p.iter().map(|&v| v as i32).collect();
            AlignedPlane::from_dense(w, h, &dense).map_err(|e| CodecError::Image(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    drop(cv_span);
    stage_times.push(StageTime::new("convert", t0.elapsed().as_secs_f64()));
    if let Some(c) = ctl {
        c.check()?;
    }

    let plan = plan_for(w, workers)?;
    if trace::enabled() {
        // Record the column-chunk plan itself: one instant per chunk,
        // dynamically named (`chunk-3`), so a trace can be read against
        // the decomposition that produced it.
        for c in plan.chunks() {
            trace::instant(
                c.label(),
                &[
                    ("x0", c.x0 as u64),
                    ("w", c.width as u64),
                    ("remainder", u64::from(c.is_remainder)),
                ],
            );
        }
    }
    let regions = wavelet::level_regions(w, h, params.levels);

    match params.mode {
        Mode::Lossless => {
            // Level shift + RCT, merged, by column chunk.
            let mct_span = trace::span("stage:mct").cat("stage");
            let t1 = Instant::now();
            {
                let shared: Vec<SharedPlane<i32>> =
                    int_planes.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, if use_mct { 1 } else { comps }, h, workers);
                // SAFETY: plan chunks are pairwise disjoint column ranges
                // and each job is executed by exactly one thread, so live
                // views never overlap.
                let counts = asg.run("mct", |j| unsafe {
                    if use_mct {
                        let mut ry = shared[0].rows(j.region);
                        let mut ru = shared[1].rows(j.region);
                        let mut rv = shared[2].rows(j.region);
                        for y in 0..j.region.h {
                            crate::kernels::rct_forward_row(
                                ry.row_mut(y),
                                ru.row_mut(y),
                                rv.row_mut(y),
                                shift,
                            );
                        }
                    } else {
                        let mut rows = shared[j.comp].rows(j.region);
                        for y in 0..j.region.h {
                            for v in rows.row_mut(y) {
                                *v -= shift;
                            }
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(mct_span);
            stage_times.push(StageTime::new("mct", t1.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // 5/3 DWT level by level: vertical by column chunk, then (after
            // the barrier) horizontal by row band.
            let dwt_span = trace::span("stage:dwt").cat("stage");
            let t2 = Instant::now();
            {
                let shared: Vec<SharedPlane<i32>> =
                    int_planes.iter_mut().map(SharedPlane::new).collect();
                for (li, r) in regions.iter().enumerate() {
                    if let Some(c) = ctl {
                        c.check()?;
                    }
                    // Failpoint `dwt.level`: fires once per decomposition
                    // level, on the calling thread — the clean-error lever
                    // for the service's failure (not crash) paths.
                    if let Some(msg) = faultsim::eval("dwt.level") {
                        return Err(CodecError::Injected(msg));
                    }
                    let _lvl = if trace::enabled() {
                        trace::span(format!("dwt-level-{}", li + 1)).cat("stage")
                    } else {
                        trace::Span::disabled()
                    };
                    let lplan = plan_for(r.w, workers)?;
                    let vert = assign_columns(&lplan, comps, r.h, workers);
                    // SAFETY: disjoint column chunks, one thread per job.
                    let counts = vert.run("dwt", |j| unsafe {
                        vertical::fwd53_rows(shared[j.comp].rows(j.region), variant);
                    });
                    accumulate(&mut worker_jobs, &counts);
                    let horiz = assign_rows(r.w, r.h, comps, workers);
                    // SAFETY: disjoint row bands, one thread per job.
                    let counts = horiz.run("dwt", |j| unsafe {
                        horizontal::fwd53_rows(shared[j.comp].rows(j.region));
                    });
                    accumulate(&mut worker_jobs, &counts);
                }
            }
            drop(dwt_span);
            stage_times.push(StageTime::new("dwt", t2.elapsed().as_secs_f64()));

            let depth_eff = depth + u8::from(use_mct);
            let exps: Vec<u8> = bands
                .iter()
                .map(|b| depth_eff + b.band.gain_log2())
                .collect();
            let max_planes: Vec<u8> = exps.iter().map(|&e| GUARD_BITS + e - 1).collect();
            let weights: Vec<f64> = bands
                .iter()
                .map(|b| {
                    let n = norms::l2_norm_53(b.band, b.level.max(1));
                    n * n
                })
                .collect();
            Ok((
                Transformed {
                    indices: int_planes,
                    quant: Quant::Reversible(exps),
                    bands,
                    max_planes,
                    weights,
                },
                TransformStats {
                    stage_times,
                    worker_jobs,
                },
            ))
        }
        Mode::Lossy { .. } => {
            let base = default_base_step(depth);

            // Level shift + ICT, merged, by column chunk, straight into the
            // arithmetic's working representation (f32 or Q13).
            let mct_span = trace::span("stage:mct").cat("stage");
            let t1 = Instant::now();
            let fixed = params.arithmetic == Arithmetic::FixedQ13;
            let mut fp: Vec<AlignedPlane<f32>> = if fixed {
                Vec::new()
            } else {
                (0..comps)
                    .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                    .collect()
            };
            let mut q13: Vec<AlignedPlane<i32>> = if fixed {
                (0..comps)
                    .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                    .collect()
            } else {
                Vec::new()
            };
            {
                let src = &int_planes;
                let out_f: Vec<SharedPlane<f32>> = fp.iter_mut().map(SharedPlane::new).collect();
                let out_q: Vec<SharedPlane<i32>> = q13.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, if use_mct { 1 } else { comps }, h, workers);
                // SAFETY: disjoint column chunks, one thread per job; the
                // int planes are only read (shared borrows).
                let counts = asg.run("mct", |j| unsafe {
                    let (x0, cw) = (j.region.x0, j.region.w);
                    let mut ybuf = vec![0f32; cw];
                    let mut cbuf = vec![0f32; cw];
                    let mut rbuf = vec![0f32; cw];
                    for y in 0..j.region.h {
                        if use_mct {
                            let r = &src[0].row(y)[x0..x0 + cw];
                            let g = &src[1].row(y)[x0..x0 + cw];
                            let b = &src[2].row(y)[x0..x0 + cw];
                            crate::kernels::ict_forward_row(
                                r,
                                g,
                                b,
                                &mut ybuf,
                                &mut cbuf,
                                &mut rbuf,
                                shift as f32,
                            );
                            for (c, buf) in [&ybuf, &cbuf, &rbuf].into_iter().enumerate() {
                                if fixed {
                                    let mut rows = out_q[c].rows(j.region);
                                    for (d, &v) in rows.row_mut(y).iter_mut().zip(buf) {
                                        *d = (v * 8192.0).round() as i32;
                                    }
                                } else {
                                    out_f[c].rows(j.region).row_mut(y).copy_from_slice(buf);
                                }
                            }
                        } else {
                            let s = &src[j.comp].row(y)[x0..x0 + cw];
                            if fixed {
                                let mut rows = out_q[j.comp].rows(j.region);
                                for (d, &v) in rows.row_mut(y).iter_mut().zip(s) {
                                    *d = (((v - shift) as f32) * 8192.0).round() as i32;
                                }
                            } else {
                                let mut rows = out_f[j.comp].rows(j.region);
                                for (d, &v) in rows.row_mut(y).iter_mut().zip(s) {
                                    *d = (v - shift) as f32;
                                }
                            }
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(mct_span);
            stage_times.push(StageTime::new("mct", t1.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // 9/7 DWT level by level, vertical chunks then horizontal bands.
            let dwt_span = trace::span("stage:dwt").cat("stage");
            let t2 = Instant::now();
            {
                let shared_f: Vec<SharedPlane<f32>> = fp.iter_mut().map(SharedPlane::new).collect();
                let shared_q: Vec<SharedPlane<i32>> =
                    q13.iter_mut().map(SharedPlane::new).collect();
                for (li, r) in regions.iter().enumerate() {
                    if let Some(c) = ctl {
                        c.check()?;
                    }
                    // Failpoint `dwt.level`: fires once per decomposition
                    // level, on the calling thread — the clean-error lever
                    // for the service's failure (not crash) paths.
                    if let Some(msg) = faultsim::eval("dwt.level") {
                        return Err(CodecError::Injected(msg));
                    }
                    let _lvl = if trace::enabled() {
                        trace::span(format!("dwt-level-{}", li + 1)).cat("stage")
                    } else {
                        trace::Span::disabled()
                    };
                    let lplan = plan_for(r.w, workers)?;
                    let vert = assign_columns(&lplan, comps, r.h, workers);
                    // SAFETY: disjoint column chunks, one thread per job.
                    let counts = vert.run("dwt", |j| unsafe {
                        if fixed {
                            vertical::fwd97_rows(shared_q[j.comp].rows(j.region), variant);
                        } else {
                            vertical::fwd97_rows(shared_f[j.comp].rows(j.region), variant);
                        }
                    });
                    accumulate(&mut worker_jobs, &counts);
                    let horiz = assign_rows(r.w, r.h, comps, workers);
                    // SAFETY: disjoint row bands, one thread per job.
                    let counts = horiz.run("dwt", |j| unsafe {
                        if fixed {
                            horizontal::fwd97_fixed_rows(shared_q[j.comp].rows(j.region));
                        } else {
                            horizontal::fwd97_rows(shared_f[j.comp].rows(j.region));
                        }
                    });
                    accumulate(&mut worker_jobs, &counts);
                }
            }
            drop(dwt_span);
            stage_times.push(StageTime::new("dwt", t2.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // Per-band signalled steps and weights (cheap, calling thread;
            // same order and arithmetic as the sequential pipeline).
            let mut steps = Vec::with_capacity(bands.len());
            let mut weights = Vec::with_capacity(bands.len());
            let mut delta_sigs = Vec::with_capacity(bands.len());
            for b in &bands {
                let lev = b.level.max(1);
                let delta = band_delta(base, b.band, lev);
                let r_bits = depth as i32 + b.band.gain_log2() as i32;
                let step = StepSize::from_delta(delta, r_bits);
                let delta_sig = step.delta(r_bits);
                let nrm = norms::l2_norm_97(b.band, lev);
                steps.push(step);
                weights.push((delta_sig * nrm) * (delta_sig * nrm));
                delta_sigs.push(delta_sig);
            }

            // Quantize by column chunk (elementwise over band rectangles;
            // Q13 coefficients drop back to f32 exactly as sequentially).
            let q_span = trace::span("stage:quantize").cat("stage");
            let t3 = Instant::now();
            let mut indices: Vec<AlignedPlane<i32>> = (0..comps)
                .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                .collect();
            {
                let fp = &fp;
                let q13 = &q13;
                let bands = &bands;
                let delta_sigs = &delta_sigs;
                let out: Vec<SharedPlane<i32>> = indices.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, comps, h, workers);
                // SAFETY: disjoint column chunks, one thread per job; the
                // coefficient planes are only read.
                let counts = asg.run("quantize", |j| unsafe {
                    let (x0, cw) = (j.region.x0, j.region.w);
                    let mut rows = out[j.comp].rows(j.region);
                    let mut q13_row: Vec<f32> = Vec::new();
                    for (bi, b) in bands.iter().enumerate() {
                        let lo = b.x0.max(x0);
                        let hi = (b.x0 + b.w).min(x0 + cw);
                        if lo >= hi {
                            continue;
                        }
                        let d = delta_sigs[bi];
                        for y in b.y0..b.y0 + b.h {
                            let dst = &mut rows.row_mut(y)[lo - x0..hi - x0];
                            if fixed {
                                let s = &q13[j.comp].row(y)[lo..hi];
                                q13_row.clear();
                                q13_row.extend(s.iter().map(|&v| v as f32 / 8192.0));
                                crate::kernels::quantize_row(&q13_row, dst, d);
                            } else {
                                let s = fp[j.comp].row(y);
                                crate::kernels::quantize_row(&s[lo..hi], dst, d);
                            }
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(q_span);
            stage_times.push(StageTime::new("quantize", t3.elapsed().as_secs_f64()));

            let max_planes: Vec<u8> = steps.iter().map(|s| GUARD_BITS + s.exponent - 1).collect();
            Ok((
                Transformed {
                    indices,
                    quant: Quant::Scalar(steps),
                    bands,
                    max_planes,
                    weights,
                },
                TransformStats {
                    stage_times,
                    worker_jobs,
                },
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgio::synth;
    use std::sync::MutexGuard;

    /// Tracing is switched on and off process-wide, so the tests that
    /// record a trace hold this lock for their whole body.
    static TRACE: Mutex<()> = Mutex::new(());

    fn trace_lock() -> MutexGuard<'static, ()> {
        TRACE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Record one encode at `workers` under a fresh trace id; returns the
    /// codestream, its events, and the calling thread's `tid` (taken from
    /// an instant recorded just before the encode).
    fn traced_encode(
        im: &Image,
        params: &EncoderParams,
        workers: usize,
    ) -> (Vec<u8>, Vec<trace::Event>, u64) {
        trace::set_enabled(true);
        let id = trace::next_trace_id();
        trace::set_current(id);
        trace::instant("caller", &[]);
        let r = encode_with(im, params, workers, None);
        trace::set_current(0);
        let events = trace::take_job(id);
        trace::set_enabled(false);
        let caller = events
            .iter()
            .find(|e| e.name == "caller")
            .expect("caller instant recorded")
            .tid;
        (r.unwrap().0, events, caller)
    }

    /// 256 columns plan eight 32-sample column chunks at 8 workers, one
    /// per worker, so workers 4 to 7 own chunks too; narrower images
    /// never give a chunk to a worker above 3.
    fn wide_rgb() -> Image {
        synth::natural_rgb(256, 64, 17)
    }

    #[test]
    fn parallel_matches_sequential_lossless() {
        let im = synth::natural_rgb(96, 64, 13);
        let params = EncoderParams {
            levels: 3,
            ..EncoderParams::lossless()
        };
        let seq = encode(&im, &params).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let (par, _) = encode_with(&im, &params, workers, None).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }

        let wide = wide_rgb();
        let params = EncoderParams {
            levels: 5,
            ..EncoderParams::lossless()
        };
        let seq = encode(&wide, &params).unwrap();
        assert_eq!(crate::decode(&seq).unwrap(), wide);
        for workers in [1usize, 2, 4, 8] {
            let (par, _) = encode_with(&wide, &params, workers, None).unwrap();
            assert_eq!(par, seq, "256x64 workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_lossy() {
        let im = synth::natural(80, 80, 21);
        let params = EncoderParams::lossy(0.2);
        let seq = encode(&im, &params).unwrap();
        let (par, _) = encode_with(&im, &params, 3, None).unwrap();
        assert_eq!(par, seq);

        let wide = wide_rgb();
        let params = EncoderParams {
            levels: 5,
            ..EncoderParams::lossy(0.1)
        };
        let seq = encode(&wide, &params).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let (par, _) = encode_with(&wide, &params, workers, None).unwrap();
            assert_eq!(par, seq, "256x64 workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_lossy_fixed() {
        let im = synth::natural_rgb(72, 56, 5);
        let params = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.3)
        };
        let seq = encode(&im, &params).unwrap();
        for workers in [1usize, 2, 5] {
            let (par, _) = encode_with(&im, &params, workers, None).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_output_decodes() {
        let im = synth::natural(64, 64, 30);
        let (bytes, _) = encode_with(&im, &EncoderParams::lossless(), 4, None).unwrap();
        let back = crate::decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn auto_sized_chunks_with_a_remainder_match_the_oracle() {
        // At one worker a width auto-sizes to four constant chunks of a
        // cache-line multiple plus an arbitrary remainder.
        for (width, chunk, rem) in [(300usize, 64usize, 44usize), (600, 128, 88)] {
            let plan = plan_for(width, 1).unwrap();
            let widths: Vec<usize> = plan.chunks().iter().map(|c| c.width).collect();
            assert_eq!(widths, [chunk, chunk, chunk, chunk, rem], "width {width}");
            let im = synth::natural_rgb(width, 24, width as u64);
            for params in [
                EncoderParams {
                    levels: 3,
                    ..EncoderParams::lossless()
                },
                EncoderParams {
                    levels: 3,
                    ..EncoderParams::lossy(0.3)
                },
            ] {
                let oracle = crate::pipeline::transform_coefficients(&im, &params).unwrap();
                let chunked = transform_coefficients_parallel(&im, &params, 1).unwrap();
                assert_eq!(chunked, oracle, "width {width} {:?}", params.mode);
            }
        }
    }

    #[test]
    fn cancelled_control_stops_encode() {
        let im = synth::natural(64, 64, 9);
        let ctl = EncodeControl::new();
        ctl.cancel();
        for workers in [1, 2] {
            let r = encode_with(&im, &EncoderParams::lossless(), workers, Some(&ctl));
            assert!(matches!(r, Err(CodecError::Cancelled)), "workers={workers}");
        }
    }

    #[test]
    fn expired_deadline_stops_encode() {
        let im = synth::natural(64, 64, 9);
        let ctl =
            EncodeControl::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        for workers in [1, 2] {
            let r = encode_with(&im, &EncoderParams::lossy(0.2), workers, Some(&ctl));
            assert!(matches!(r, Err(CodecError::Deadline)), "workers={workers}");
        }
    }

    #[test]
    fn live_control_is_byte_identical() {
        let im = synth::natural_rgb(80, 48, 17);
        let params = EncoderParams::lossless();
        let seq = encode(&im, &params).unwrap();
        let ctl =
            EncodeControl::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        let (par, _) = encode_with(&im, &params, 3, Some(&ctl)).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn traced_encode_is_byte_identical_and_covers_stages() {
        let _g = trace_lock();
        let im = synth::natural_rgb(96, 64, 11);
        let params = EncoderParams::lossy(0.25);
        let seq = encode(&im, &params).unwrap();
        let (par, events, _) = traced_encode(&im, &params, 3);
        assert_eq!(par, seq, "tracing must not perturb the codestream");
        for name in [
            "mct",
            "dwt",
            "quantize",
            "tier1",
            "dwt-level-1",
            "chunk-0",
            "stage:rate-control",
        ] {
            assert!(
                events.iter().any(|e| e.name == name),
                "missing event {name} in {:?}",
                events.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
            );
        }
        // Chunk spans fan out: more than one distinct worker arg.
        let mut workers: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "mct")
            .filter_map(|e| e.args.iter().find(|(k, _)| *k == "worker").map(|&(_, v)| v))
            .collect();
        workers.sort_unstable();
        workers.dedup();
        assert!(
            workers.len() >= 2,
            "mct chunk spans on one worker only: {workers:?}"
        );
    }

    #[test]
    fn one_worker_encode_runs_on_the_calling_thread() {
        let _g = trace_lock();
        let im = synth::natural_rgb(96, 64, 11);
        let (_, events, caller) = traced_encode(&im, &EncoderParams::lossy(0.25), 1);
        for name in ["mct", "dwt", "quantize", "tier1", "stage:rate-control"] {
            assert!(events.iter().any(|e| e.name == name), "missing {name}");
        }
        let elsewhere: Vec<_> = events
            .iter()
            .filter(|e| e.tid != caller)
            .map(|e| (e.name.clone(), e.tid))
            .collect();
        assert!(
            elsewhere.is_empty(),
            "events recorded off the calling thread (tid {caller}): {elsewhere:?}"
        );
    }

    #[test]
    fn profile_reports_multi_worker_jobs_and_stages() {
        let im = synth::natural_rgb(256, 64, 3);
        let workers = 4;
        let (_, prof) = encode_with(&im, &EncoderParams::lossless(), workers, None).unwrap();
        assert_eq!(prof.worker_jobs.len(), workers + 1);
        let busy = prof.worker_jobs[..workers]
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(
            busy >= 2,
            "sample stages did not fan out: {:?}",
            prof.worker_jobs
        );
        let names: Vec<&str> = prof.stage_times.iter().map(|s| s.name.as_ref()).collect();
        for want in ["convert", "mct", "dwt", "tier1", "rate-control"] {
            assert!(names.contains(&want), "missing stage {want} in {names:?}");
        }
    }
}
