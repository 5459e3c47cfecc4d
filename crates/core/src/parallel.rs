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
//! Each chunked stage cuts every job's [`Rows`] views on the calling thread
//! ([`rowops::split`]) and moves them to the thread that runs the job, so
//! the borrow checker proves the partition disjoint.

use crate::control::EncodeControl;
use crate::kernels;
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
use wavelet::rowops::{self, Region, Rows};
use wavelet::vertical::Arith97;
use wavelet::{horizontal, norms, vertical, VerticalVariant};
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

    let (t, stages) = transform_samples_parallel(image, params, workers, ctl)?;
    let mut stage_times = stages.stage_times;
    let mut worker_jobs = stages.worker_jobs;

    let stage_span = trace::span("stage:tier1")
        .cat("stage")
        .arg("coder", params.coder.id());
    let t1 = Instant::now();
    let (records, tier1_counts) = tier1_queue(&t, params, workers, ctl)?;
    drop(stage_span);
    stage_times.push(StageTime::new("tier1", t1.elapsed().as_secs_f64()));
    for (total, n) in worker_jobs.iter_mut().zip(tier1_counts) {
        *total += n;
    }

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

/// Run `worker(i, payload)` for every worker index `i` with the `i`-th
/// payload and `calling()` on the calling thread, then join; returns the
/// workers' results in index order. There is one worker per payload.
///
/// At one worker both run inline on the calling thread and no thread is
/// spawned. Otherwise each worker gets a scoped thread that takes its
/// payload, inherits the caller's trace id (TLS does not cross
/// `thread::scope`) and flushes its trace buffer before returning: the
/// scope waits for closures, not TLS destructors, so the Drop flush alone
/// would race the caller's trace drain. A worker's panic resumes on the
/// calling thread after the join.
fn on_workers<P, R, W, C>(payloads: Vec<P>, worker: W, calling: C) -> Vec<R>
where
    P: Send,
    R: Send,
    W: Fn(usize, P) -> R + Sync,
    C: FnOnce(),
{
    if payloads.len() <= 1 {
        let r = payloads.into_iter().map(|p| worker(0, p)).collect();
        calling();
        return r;
    }
    let parent_trace = trace::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = payloads
            .into_iter()
            .enumerate()
            .map(|(wi, p)| {
                let worker = &worker;
                scope.spawn(move || {
                    trace::set_current(parent_trace);
                    let r = worker(wi, p);
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
        vec![(); workers],
        |_, ()| {
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

/// One chunked transform in progress: the fan-out, the control polled at
/// stage boundaries, and the measurements so far — per-stage wall times
/// plus jobs executed per worker (workers first, calling thread last).
struct Stages<'c> {
    workers: usize,
    ctl: Option<&'c EncodeControl>,
    stage_times: Vec<StageTime>,
    worker_jobs: Vec<u64>,
}

impl Stages<'_> {
    fn check(&self) -> Result<(), CodecError> {
        self.ctl.map_or(Ok(()), EncodeControl::check)
    }

    /// Run `f` as the stage `span` (`stage:<name>`), recording its wall
    /// time as `<name>`.
    fn timed<R>(&mut self, span: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let sp = trace::span(span).cat("stage");
        let t = Instant::now();
        let r = f(self);
        drop(sp);
        let name = span.trim_start_matches("stage:");
        self.stage_times
            .push(StageTime::new(name, t.elapsed().as_secs_f64()));
        r
    }

    /// Run `f(comp, region, view)` for every job `(comp, tile, view)`
    /// through [`on_workers`]: each worker takes the jobs of the tiles it
    /// owns, views included, the calling thread takes the rest, then all
    /// join (a stage barrier). Every job runs under a span named `stage`
    /// (args: worker / chunk / comp).
    fn run<V: Send>(
        &mut self,
        stage: &'static str,
        jobs: Vec<(usize, Tile, V)>,
        f: impl Fn(usize, Region, V) + Sync,
    ) {
        let mut lists: Vec<Vec<_>> = (0..=self.workers).map(|_| Vec::new()).collect();
        for job in jobs {
            lists[job.1.owner].push(job);
        }
        for (total, list) in self.worker_jobs.iter_mut().zip(&lists) {
            *total += list.len() as u64;
        }
        let traced = |wi: usize, list: Vec<(usize, Tile, V)>| {
            for (comp, tile, view) in list {
                let _sp = trace::span(stage)
                    .cat("chunk")
                    .arg("worker", wi as u64)
                    .arg("chunk", tile.chunk as u64)
                    .arg("comp", comp as u64);
                f(comp, tile.region, view);
            }
        };
        let calling = lists.pop().expect("the calling thread's list");
        on_workers(lists, traced, || traced(self.workers, calling));
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

/// One tile of a stage's decomposition of a plane: a column chunk or a
/// row band, and the thread that runs it.
#[derive(Clone, Copy)]
struct Tile {
    region: Region,
    /// Dense chunk index within the stage (the plan's `ChunkDesc::id`
    /// for column chunks, the band index for row bands); rides into
    /// trace span args so a trace can be joined back to the plan.
    chunk: usize,
    /// Worker index (the SPE role), or the worker count for the calling
    /// thread (the PPE role).
    owner: usize,
}

/// Column decomposition: every plan chunk becomes a full-height tile.
fn column_tiles(plan: &ChunkPlan, h: usize, workers: usize) -> Vec<Tile> {
    plan.chunks()
        .iter()
        .map(|c| Tile {
            region: Region {
                x0: c.x0,
                y0: 0,
                w: c.width,
                h,
            },
            chunk: c.id,
            owner: match c.owner {
                Owner::Spe(i) => i,
                Owner::Ppe => workers,
            },
        })
        .collect()
}

/// Row decomposition for horizontal filtering: an identical number of rows
/// per worker (the paper assigns no rows to the PPE in this stage).
fn row_tiles(w: usize, h: usize, workers: usize) -> Vec<Tile> {
    let band = h.div_ceil(workers).max(1);
    (0..h)
        .step_by(band)
        .enumerate()
        .map(|(i, y0)| Tile {
            region: Region {
                x0: 0,
                y0,
                w,
                h: band.min(h - y0),
            },
            chunk: i,
            owner: i % workers,
        })
        .collect()
}

/// The jobs of a per-component stage: every tile of every plane,
/// component-major, with its view. A plane's tiles are disjoint, so
/// [`rowops::split`] hands each element to one view.
fn per_plane<'a, T: Copy + Default>(
    planes: &'a mut [AlignedPlane<T>],
    tiles: &[Tile],
) -> Vec<(usize, Tile, Rows<'a, T>)> {
    let regions: Vec<Region> = tiles.iter().map(|t| t.region).collect();
    let mut jobs = Vec::new();
    for (c, p) in planes.iter_mut().enumerate() {
        let views = rowops::split(p, &regions);
        jobs.extend(tiles.iter().zip(views).map(|(&t, v)| (c, t, v)));
    }
    jobs
}

/// The jobs of a fused colour transform: every tile once (as component
/// 0), with its views of all three planes.
fn fused<'a, T: Copy + Default>(
    planes: &'a mut [AlignedPlane<T>],
    tiles: &[Tile],
) -> Vec<(usize, Tile, [Rows<'a, T>; 3])> {
    let regions: Vec<Region> = tiles.iter().map(|t| t.region).collect();
    let [a, b, c] = planes else {
        panic!("a fused colour transform covers three planes");
    };
    let mut views = [a, b, c].map(|p| rowops::split(p, &regions).into_iter());
    let mut next = || {
        views
            .each_mut()
            .map(|v| v.next().expect("one view per tile"))
    };
    tiles.iter().map(|&t| (0, t, next())).collect()
}

/// Chunked version of [`crate::pipeline::transform_samples`]: identical
/// coefficients by construction (same arithmetic on the same operands,
/// only partitioned), plus stage measurements. Polls `ctl` after each
/// stage and between DWT levels.
fn transform_samples_parallel<'c>(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    ctl: Option<&'c EncodeControl>,
) -> Result<(Transformed, Stages<'c>), CodecError> {
    let (w, h) = (image.width, image.height);
    let mut s = Stages {
        workers,
        ctl,
        stage_times: Vec::new(),
        worker_jobs: vec![0; workers + 1],
    };
    let int_planes: Vec<AlignedPlane<i32>> = s.timed("stage:convert", |_| {
        image
            .planes
            .iter()
            .map(|p| {
                let dense: Vec<i32> = p.iter().map(|&v| v as i32).collect();
                AlignedPlane::from_dense(w, h, &dense).map_err(|e| CodecError::Image(e.to_string()))
            })
            .collect::<Result<_, _>>()
    })?;
    s.check()?;

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
    let tiles = column_tiles(&plan, h, workers);
    let t = match (params.mode, params.arithmetic) {
        (Mode::Lossless, _) => lossless(&mut s, image, params, int_planes, &tiles),
        (_, Arithmetic::Float32) => lossy::<f32>(&mut s, image, params, &int_planes, &tiles),
        (_, Arithmetic::FixedQ13) => lossy::<i32>(&mut s, image, params, &int_planes, &tiles),
    }?;
    Ok((t, s))
}

/// The DWT stage: per level, vertical lifting by column chunk, then (after
/// the barrier) horizontal lifting by row band. One loop serves 5/3, 9/7
/// and Q13, which differ only in the row-view kernels passed in. Polls the
/// control and evaluates the `dwt.level` failpoint before each level.
fn dwt_levels<T: Copy + Default + Send>(
    s: &mut Stages,
    planes: &mut [AlignedPlane<T>],
    params: &EncoderParams,
    vertical: impl Fn(Rows<'_, T>, VerticalVariant) + Sync,
    horizontal: impl Fn(Rows<'_, T>) + Sync,
) -> Result<(), CodecError> {
    let (w, h) = (planes[0].width(), planes[0].height());
    s.timed("stage:dwt", |s| {
        for (li, r) in wavelet::level_regions(w, h, params.levels)
            .iter()
            .enumerate()
        {
            s.check()?;
            // Failpoint `dwt.level`: fires once per decomposition level, on
            // the calling thread — the clean-error lever for the service's
            // failure (not crash) paths.
            if let Some(msg) = faultsim::eval("dwt.level") {
                return Err(CodecError::Injected(msg));
            }
            let _lvl = if trace::enabled() {
                trace::span(format!("dwt-level-{}", li + 1)).cat("stage")
            } else {
                trace::Span::disabled()
            };
            let tiles = column_tiles(&plan_for(r.w, s.workers)?, r.h, s.workers);
            s.run("dwt", per_plane(planes, &tiles), |_, _, v| {
                vertical(v, params.variant)
            });
            let tiles = row_tiles(r.w, r.h, s.workers);
            s.run("dwt", per_plane(planes, &tiles), |_, _, v| horizontal(v));
        }
        Ok(())
    })
}

/// The lossless arm: level shift + RCT, merged, by column chunk, in place
/// on the integer planes, then the 5/3 DWT.
fn lossless(
    s: &mut Stages,
    image: &Image,
    params: &EncoderParams,
    mut planes: Vec<AlignedPlane<i32>>,
    tiles: &[Tile],
) -> Result<Transformed, CodecError> {
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let use_mct = planes.len() == 3;
    s.timed("stage:mct", |s| {
        if use_mct {
            s.run(
                "mct",
                fused(&mut planes, tiles),
                |_, _, [mut r, mut g, mut b]| {
                    for y in 0..r.height() {
                        let (r, g, b) = (r.row_mut(y), g.row_mut(y), b.row_mut(y));
                        kernels::rct_forward_row(r, g, b, shift);
                    }
                },
            );
        } else {
            s.run("mct", per_plane(&mut planes, tiles), |_, _, mut rows| {
                for y in 0..rows.height() {
                    for v in rows.row_mut(y) {
                        *v -= shift;
                    }
                }
            });
        }
    });
    s.check()?;

    dwt_levels(
        s,
        &mut planes,
        params,
        vertical::fwd53_rows,
        horizontal::fwd53_rows,
    )?;

    let bands = wavelet::subbands(image.width, image.height, params.levels);
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
    Ok(Transformed {
        indices: planes,
        quant: Quant::Reversible(exps),
        bands,
        max_planes,
        weights,
    })
}

/// The lossy arm's working sample: `f32`, the paper's SPE arithmetic, or
/// Q13 fixed point in `i32`, Jasper's (chosen by [`Arithmetic`]).
trait LossySample: Arith97 + Send + Sync {
    /// Working value of a level-shifted, colour-transformed sample.
    fn from_f32(v: f32) -> Self;
    /// Horizontal 9/7 lifting of every row of a view.
    fn horizontal(rows: Rows<'_, Self>);
    /// Quantize coefficients `src` into `dst` with step `delta`, as f32
    /// values (a Q13 row goes through `scratch`).
    fn quantize_row(src: &[Self], dst: &mut [i32], delta: f64, scratch: &mut Vec<f32>);
}

impl LossySample for f32 {
    fn from_f32(v: f32) -> f32 {
        v
    }
    fn horizontal(rows: Rows<'_, f32>) {
        horizontal::fwd97_rows(rows);
    }
    fn quantize_row(src: &[f32], dst: &mut [i32], delta: f64, _: &mut Vec<f32>) {
        kernels::quantize_row(src, dst, delta);
    }
}

impl LossySample for i32 {
    fn from_f32(v: f32) -> i32 {
        (v * 8192.0).round() as i32
    }
    fn horizontal(rows: Rows<'_, i32>) {
        horizontal::fwd97_fixed_rows(rows);
    }
    fn quantize_row(src: &[i32], dst: &mut [i32], delta: f64, scratch: &mut Vec<f32>) {
        scratch.clear();
        scratch.extend(src.iter().map(|&v| v as f32 / 8192.0));
        kernels::quantize_row(scratch, dst, delta);
    }
}

/// The lossy arm in working arithmetic `S`: level shift + ICT, merged,
/// into `S` planes, the 9/7 DWT, then quantization, all by column chunk.
fn lossy<S: LossySample>(
    s: &mut Stages,
    image: &Image,
    params: &EncoderParams,
    int_planes: &[AlignedPlane<i32>],
    tiles: &[Tile],
) -> Result<Transformed, CodecError> {
    let (w, h) = (image.width, image.height);
    let comps = int_planes.len();
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let mut planes: Vec<AlignedPlane<S>> = (0..comps)
        .map(|_| AlignedPlane::new(w, h).expect("geometry"))
        .collect();
    s.timed("stage:mct", |s| {
        if comps == 3 {
            s.run("mct", fused(&mut planes, tiles), |_, r, mut out| {
                let cols = r.x0..r.x0 + r.w;
                let mut bufs = [vec![0f32; r.w], vec![0f32; r.w], vec![0f32; r.w]];
                for y in 0..r.h {
                    let [yy, cb, cr] = &mut bufs;
                    let src = |c: usize| &int_planes[c].row(y)[cols.clone()];
                    kernels::ict_forward_row(src(0), src(1), src(2), yy, cb, cr, shift as f32);
                    for (rows, buf) in out.iter_mut().zip(&bufs) {
                        for (d, &v) in rows.row_mut(y).iter_mut().zip(buf) {
                            *d = S::from_f32(v);
                        }
                    }
                }
            });
        } else {
            s.run("mct", per_plane(&mut planes, tiles), |c, r, mut rows| {
                for y in 0..r.h {
                    let src = &int_planes[c].row(y)[r.x0..r.x0 + r.w];
                    for (d, &v) in rows.row_mut(y).iter_mut().zip(src) {
                        *d = S::from_f32((v - shift) as f32);
                    }
                }
            });
        }
    });
    s.check()?;

    dwt_levels(s, &mut planes, params, vertical::fwd97_rows, S::horizontal)?;
    s.check()?;

    // Per-band signalled steps and weights (cheap, calling thread; same
    // order and arithmetic as the sequential pipeline).
    let base = default_base_step(depth);
    let bands = wavelet::subbands(w, h, params.levels);
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

    // Quantize by column chunk (elementwise over band rectangles; Q13
    // coefficients drop back to f32 exactly as sequentially).
    let mut indices: Vec<AlignedPlane<i32>> = (0..comps)
        .map(|_| AlignedPlane::new(w, h).expect("geometry"))
        .collect();
    s.timed("stage:quantize", |s| {
        s.run(
            "quantize",
            per_plane(&mut indices, tiles),
            |c, r, mut rows| {
                let mut scratch = Vec::new();
                for (b, &d) in bands.iter().zip(&delta_sigs) {
                    let lo = b.x0.max(r.x0);
                    let hi = (b.x0 + b.w).min(r.x0 + r.w);
                    if lo >= hi {
                        continue;
                    }
                    for y in b.y0..b.y0 + b.h {
                        let src = &planes[c].row(y)[lo..hi];
                        let dst = &mut rows.row_mut(y)[lo - r.x0..hi - r.x0];
                        S::quantize_row(src, dst, d, &mut scratch);
                    }
                }
            },
        );
    });

    let max_planes: Vec<u8> = steps.iter().map(|s| GUARD_BITS + s.exponent - 1).collect();
    Ok(Transformed {
        indices,
        quant: Quant::Scalar(steps),
        bands,
        max_planes,
        weights,
    })
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
