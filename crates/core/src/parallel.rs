//! The encoder driver: the paper's parallelization strategy on host
//! threads, end to end.
//!
//! * The **sample stages** (level shift + MCT merged, then the DWT) are
//!   decomposed by the same column-chunk plan the Cell path uses
//!   ([`xpart::ChunkPlan`]): constant-width chunks of a cache-line
//!   multiple, about four per worker, plus one arbitrary-width remainder
//!   chunk. The merged level shift + MCT reads its columns straight from
//!   the [`Image`] rows into the one working plane per component the
//!   transform allocates; the DWT then runs in place on those planes.
//!   Vertical lifting runs per column chunk, horizontal lifting per row
//!   band ("an identical number of rows to each SPE").
//! * **Tier-1** takes one job per code block, as the paper's SPEs take
//!   blocks from its dynamic queue. The thread that claims a block
//!   quantizes its 9/7 coefficients as it copies them out of the plane
//!   (`Transformed::block_indices`), so quantization rides the queue.
//! * **Rate control and Tier-2** run sequentially on the calling thread,
//!   as on the paper's PPE (`pipeline::rate_control_and_assemble`).
//!
//! Every fan-out (the MCT, both DWT passes of every level, and Tier-1)
//! goes through one claim loop, `claim_jobs`: the calling thread and up to
//! `workers − 1` scoped helpers take the next job from one atomic cursor,
//! so a thread that the host deschedules holds up no fixed share of a
//! stage. `workers` counts the calling thread; at one worker, and for a
//! stage with one job, everything runs inline and no thread is spawned.
//! Output is byte-identical for every worker count — parallelization must
//! never change the codestream (asserted by tests and proptests): the
//! vertical filter is column-local, the horizontal filter row-local, and
//! level shift / MCT / quantization are elementwise, so any disjoint
//! partition performs the same arithmetic on the same operands.
//! Each chunked stage cuts every job's [`Rows`] views on the calling thread
//! ([`rowops::split`]); a view moves to whichever thread claims its job, so
//! the borrow checker proves the partition disjoint. The paper's fixed
//! SPE/PPE ownership of chunks lives on in the Cell model
//! ([`crate::cell`]).

use crate::control::EncodeControl;
use crate::kernels;
use crate::pipeline::{
    band_kind, block_grid, build_profile, rate_control_and_assemble, BlockRecord, Coefficients,
    Transformed,
};
use crate::profile::StageTime;
use crate::{Arithmetic, CodecError, EncoderParams, Mode, WorkloadProfile};
use imgio::Image;
use obs::trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use wavelet::rowops::{self, Region, Rows};
use wavelet::vertical::Arith97;
use wavelet::{horizontal, vertical, VerticalVariant};
use xpart::{auto_chunk_bytes, AlignedPlane, ChunkPlan, PlanConfig};

/// Encode `image` with `params` on the calling thread, returning the
/// codestream: [`encode_with`] at one worker without a control.
pub fn encode(image: &Image, params: &EncoderParams) -> Result<Vec<u8>, CodecError> {
    encode_with(image, params, 1, None).map(|(bytes, _)| bytes)
}

/// Encode on `workers` threads, the calling thread included (clamped to
/// at least 1), and return the codestream plus the measured
/// [`WorkloadProfile`]: per-stage wall times and the jobs each thread
/// claimed (`worker_jobs`: `workers` entries, calling thread first).
///
/// With a `ctl`, the encode polls it at the start and on every job a
/// thread claims (a chunk, a row band or a code block), returning
/// [`CodecError::Cancelled`] / [`CodecError::Deadline`] instead of a
/// codestream when the control stops it. The control adds checkpoints,
/// never arithmetic: a completed encode is byte-identical with or without
/// one, at every worker count.
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
/// `workers`, rebuilt through the Tier-1 block extraction that quantizes
/// them. Diagnostic counterpart of
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
    Ok(t.dense_indices(image.width, image.height, params.cb_size))
}

/// Run `f(thread, job)` for every job; returns the results in job order
/// and the jobs each thread ran (`workers` entries, calling thread first).
///
/// The calling thread is thread 0. It and at most `min(workers, jobs) − 1`
/// scoped helpers claim jobs from one atomic cursor, so a job, and any
/// views it owns, moves to whichever thread claims it. With one job or one
/// worker everything runs inline and no thread is spawned. `ctl` is polled
/// on every claim; the first error, from `ctl` or from `f`, stops all
/// claiming and is returned.
///
/// A helper inherits the caller's trace id (TLS does not cross
/// `thread::scope`) and flushes its trace buffer before returning: the
/// scope waits for closures, not TLS destructors, so the Drop flush alone
/// would race the caller's trace drain. A helper's panic resumes on the
/// calling thread after the join.
fn claim_jobs<J: Send, R: Send>(
    workers: usize,
    jobs: Vec<J>,
    ctl: Option<&EncodeControl>,
    f: impl Fn(usize, J) -> Result<R, CodecError> + Sync,
) -> Result<(Vec<R>, Vec<u64>), CodecError> {
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    // The cursor only hands out indices, so `Relaxed` suffices: a job
    // moves through its slot's mutex and a result through the join.
    let cursor = AtomicUsize::new(0);
    let first_err = OnceLock::new();
    let claim = |thread: usize| {
        let mut done = Vec::new();
        while first_err.get().is_none() {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let job = slot
                .lock()
                .expect("a slot is locked only to take its job")
                .take()
                .expect("the cursor hands out each job once");
            match ctl
                .map_or(Ok(()), EncodeControl::check)
                .and_then(|()| f(thread, job))
            {
                Ok(r) => done.push((i, r)),
                // A later error finds the first one set and is dropped.
                Err(e) => drop(first_err.set(e)),
            }
        }
        done
    };
    let threads = workers.min(slots.len()).max(1);
    let parent_trace = trace::current();
    let per_thread: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|thread| {
                let claim = &claim;
                scope.spawn(move || {
                    trace::set_current(parent_trace);
                    let done = claim(thread);
                    trace::flush_thread();
                    done
                })
            })
            .collect();
        let mut per_thread = vec![claim(0)];
        per_thread.extend(
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        per_thread
    });
    if let Some(e) = first_err.into_inner() {
        return Err(e);
    }
    let mut counts = vec![0; workers.max(1)];
    let mut results: Vec<Option<R>> = slots.iter().map(|_| None).collect();
    for (count, done) in counts.iter_mut().zip(per_thread) {
        *count = done.len() as u64;
        for (i, r) in done {
            results[i] = Some(r);
        }
    }
    let results = results.into_iter().map(|r| r.expect("every job ran"));
    Ok((results.collect(), counts))
}

/// Tier-1 on the claim loop, one job per code block: the claiming thread
/// extracts the block (quantizing 9/7 coefficients), codes it and runs its
/// R-D preparation. Returns the records in block order plus the blocks
/// each thread coded.
pub(crate) fn tier1_queue(
    t: &Transformed,
    params: &EncoderParams,
    workers: usize,
    ctl: Option<&EncodeControl>,
) -> Result<(Vec<BlockRecord>, Vec<u64>), CodecError> {
    // The block job list: (comp, band, grid position, geometry).
    let mut jobs = Vec::new();
    for c in 0..t.comps() {
        for (bi, b) in t.bands.iter().enumerate() {
            for g in block_grid(b, params.cb_size) {
                jobs.push((c, bi, g));
            }
        }
    }
    claim_jobs(workers, jobs, ctl, |_, (comp, bi, grid)| {
        let (bx, by, x0, y0, bw, bh) = grid;
        // Failpoint `tier1.block`: fires once per claimed code block. A
        // panic unwinds through the join (the service's catch_unwind
        // lever); an error stops all claiming and fails the encode.
        if let Some(msg) = faultsim::eval("tier1.block") {
            return Err(CodecError::Injected(msg));
        }
        let data = t.block_indices(comp, bi, (x0, y0, bw, bh));
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
        // R-D preparation (truncation rates/distortions + convex hull)
        // runs here, on the thread that coded the block — the post-pass
        // slice of rate control rides the queue.
        Ok(BlockRecord::new(comp, bi, bx, by, enc, t.weights[bi]))
    })
}

// ---------------------------------------------------------------------------
// Chunked sample stages
// ---------------------------------------------------------------------------

/// One chunked transform in progress: the fan-out, the control polled on
/// every claim, and the measurements so far — per-stage wall times plus
/// jobs executed per thread (calling thread first).
struct Stages<'c> {
    workers: usize,
    ctl: Option<&'c EncodeControl>,
    stage_times: Vec<StageTime>,
    worker_jobs: Vec<u64>,
}

impl Stages<'_> {
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

    /// Run `f(comp, region, view)` for every job `(comp, tile, view)` on
    /// [`claim_jobs`], then join (a stage barrier). Every job runs under a
    /// span named `stage` (args: worker / chunk / comp).
    fn run<V: Send>(
        &mut self,
        stage: &'static str,
        jobs: Vec<(usize, Tile, V)>,
        f: impl Fn(usize, Region, V) + Sync,
    ) -> Result<(), CodecError> {
        let (_, counts) = claim_jobs(self.workers, jobs, self.ctl, |wi, (comp, tile, view)| {
            let _sp = trace::span(stage)
                .cat("chunk")
                .arg("worker", wi as u64)
                .arg("chunk", tile.chunk as u64)
                .arg("comp", comp as u64);
            f(comp, tile.region, view);
            Ok(())
        })?;
        for (total, n) in self.worker_jobs.iter_mut().zip(counts) {
            *total += n;
        }
        Ok(())
    }
}

/// Column-chunk plan for an extent of `width` samples: auto-sized
/// constant-width chunks, about four per worker, plus a remainder.
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
/// row band.
#[derive(Clone, Copy)]
struct Tile {
    region: Region,
    /// Dense chunk index within the stage (the plan's `ChunkDesc::id`
    /// for column chunks, the band index for row bands); rides into
    /// trace span args so a trace can be joined back to the plan.
    chunk: usize,
}

/// Column decomposition: every plan chunk becomes a full-height tile.
fn column_tiles(plan: &ChunkPlan, h: usize) -> Vec<Tile> {
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
        })
        .collect()
}

/// Row decomposition for horizontal filtering: one band of an identical
/// number of rows per worker.
fn row_tiles(w: usize, h: usize, workers: usize) -> Vec<Tile> {
    let band = h.div_ceil(workers).max(1);
    (0..h)
        .step_by(band)
        .enumerate()
        .map(|(chunk, y0)| Tile {
            region: Region {
                x0: 0,
                y0,
                w,
                h: band.min(h - y0),
            },
            chunk,
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
/// only partitioned), plus stage measurements. Each arm allocates one
/// working plane per component and reads the image into it in its first
/// stage. Polls `ctl` on every claimed job.
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
        worker_jobs: vec![0; workers],
    };
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
    let tiles = column_tiles(&plan, h);
    let t = match (params.mode, params.arithmetic) {
        (Mode::Lossless, _) => lossless(&mut s, image, params, &tiles),
        (_, Arithmetic::Float32) => lossy::<f32>(&mut s, image, params, &tiles),
        (_, Arithmetic::FixedQ13) => lossy::<i32>(&mut s, image, params, &tiles),
    }?;
    Ok((t, s))
}

/// One zeroed working plane per component of `image`.
fn working_planes<T: Copy + Default>(image: &Image) -> Vec<AlignedPlane<T>> {
    (0..image.comps())
        .map(|_| AlignedPlane::new(image.width, image.height).expect("validated geometry"))
        .collect()
}

/// Row `y` of tile region `r` in component `c` of `image`: the `u16`
/// samples the merged level shift + MCT reads.
fn image_row(image: &Image, c: usize, r: Region, y: usize) -> &[u16] {
    let start = (r.y0 + y) * image.width + r.x0;
    &image.planes[c][start..start + r.w]
}

/// Widen image samples into a working `i32` row.
fn widen_row(src: &[u16], dst: &mut [i32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = i32::from(v);
    }
}

/// The DWT stage: per level, vertical lifting by column chunk, then (after
/// the barrier) horizontal lifting by row band. One loop serves 5/3, 9/7
/// and Q13, which differ only in the row-view kernels passed in. Evaluates
/// the `dwt.level` failpoint before each level.
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
            let tiles = column_tiles(&plan_for(r.w, s.workers)?, r.h);
            s.run("dwt", per_plane(planes, &tiles), |_, _, v| {
                vertical(v, params.variant)
            })?;
            let tiles = row_tiles(r.w, r.h, s.workers);
            s.run("dwt", per_plane(planes, &tiles), |_, _, v| horizontal(v))?;
        }
        Ok(())
    })
}

/// The lossless arm: level shift + RCT, merged, by column chunk — each
/// job widens its image columns into the `i32` planes and transforms them
/// in place — then the 5/3 DWT. The coefficients are the indices.
fn lossless(
    s: &mut Stages,
    image: &Image,
    params: &EncoderParams,
    tiles: &[Tile],
) -> Result<Transformed, CodecError> {
    let shift = 1i32 << (image.bit_depth - 1);
    let mut planes = working_planes::<i32>(image);
    s.timed("stage:mct", |s| {
        if planes.len() == 3 {
            s.run("mct", fused(&mut planes, tiles), |_, reg, mut out| {
                for y in 0..reg.h {
                    let [r, g, b] = out.each_mut().map(|rows| rows.row_mut(y));
                    widen_row(image_row(image, 0, reg, y), r);
                    widen_row(image_row(image, 1, reg, y), g);
                    widen_row(image_row(image, 2, reg, y), b);
                    kernels::rct_forward_row(r, g, b, shift);
                }
            })
        } else {
            s.run("mct", per_plane(&mut planes, tiles), |c, reg, mut rows| {
                for y in 0..reg.h {
                    let row = rows.row_mut(y);
                    widen_row(image_row(image, c, reg, y), row);
                    kernels::level_shift_row(row, shift);
                }
            })
        }
    })?;

    dwt_levels(
        s,
        &mut planes,
        params,
        vertical::fwd53_rows,
        horizontal::fwd53_rows,
    )?;

    Ok(Transformed::new(
        image,
        params,
        Coefficients::Indices(planes),
    ))
}

/// The lossy arm's working sample: `f32`, the paper's SPE arithmetic, or
/// Q13 fixed point in `i32`, Jasper's (chosen by [`Arithmetic`]).
trait LossySample: Arith97 + Send + Sync {
    /// Working value of a level-shifted, colour-transformed sample.
    fn from_f32(v: f32) -> Self;
    /// Horizontal 9/7 lifting of every row of a view.
    fn horizontal(rows: Rows<'_, Self>);
    /// The transformed planes, left for Tier-1 to quantize block by block.
    fn coefficients(planes: Vec<AlignedPlane<Self>>) -> Coefficients;
}

impl LossySample for f32 {
    fn from_f32(v: f32) -> f32 {
        v
    }
    fn horizontal(rows: Rows<'_, f32>) {
        horizontal::fwd97_rows(rows);
    }
    fn coefficients(planes: Vec<AlignedPlane<f32>>) -> Coefficients {
        Coefficients::F32(planes)
    }
}

impl LossySample for i32 {
    fn from_f32(v: f32) -> i32 {
        kernels::round_half_away(v * 8192.0)
    }
    fn horizontal(rows: Rows<'_, i32>) {
        horizontal::fwd97_fixed_rows(rows);
    }
    fn coefficients(planes: Vec<AlignedPlane<i32>>) -> Coefficients {
        Coefficients::Q13(planes)
    }
}

/// The lossy arm in working arithmetic `S`: level shift + ICT, merged, by
/// column chunk from the image rows into the `S` planes, then the 9/7 DWT.
/// Quantization is left to Tier-1 block extraction, with each band's
/// signalled step.
fn lossy<S: LossySample>(
    s: &mut Stages,
    image: &Image,
    params: &EncoderParams,
    tiles: &[Tile],
) -> Result<Transformed, CodecError> {
    let shift = 1i32 << (image.bit_depth - 1);
    let mut planes = working_planes::<S>(image);
    s.timed("stage:mct", |s| {
        if planes.len() == 3 {
            s.run("mct", fused(&mut planes, tiles), |_, reg, mut out| {
                let mut bufs = [vec![0f32; reg.w], vec![0f32; reg.w], vec![0f32; reg.w]];
                for y in 0..reg.h {
                    let [yy, cb, cr] = &mut bufs;
                    let src = |c: usize| image_row(image, c, reg, y);
                    kernels::ict_forward_row(src(0), src(1), src(2), yy, cb, cr, shift as f32);
                    for (rows, buf) in out.iter_mut().zip(&bufs) {
                        for (d, &v) in rows.row_mut(y).iter_mut().zip(buf) {
                            *d = S::from_f32(v);
                        }
                    }
                }
            })
        } else {
            s.run("mct", per_plane(&mut planes, tiles), |c, reg, mut rows| {
                for y in 0..reg.h {
                    let src = image_row(image, c, reg, y);
                    for (d, &v) in rows.row_mut(y).iter_mut().zip(src) {
                        *d = S::from_f32((i32::from(v) - shift) as f32);
                    }
                }
            })
        }
    })?;

    dwt_levels(s, &mut planes, params, vertical::fwd97_rows, S::horizontal)?;

    Ok(Transformed::new(image, params, S::coefficients(planes)))
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
    /// codestream and profile, its events, and the calling thread's `tid`
    /// (taken from an instant recorded just before the encode).
    fn traced_encode(
        im: &Image,
        params: &EncoderParams,
        workers: usize,
    ) -> ((Vec<u8>, WorkloadProfile), Vec<trace::Event>, u64) {
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
        (r.unwrap(), events, caller)
    }

    /// 256 columns plan eight 32-sample column chunks at 8 workers, so
    /// all eight threads have a chunk to claim; narrower images plan
    /// fewer chunks, and the claim loop spawns no thread beyond one per
    /// job.
    fn wide_rgb() -> Image {
        synth::natural_rgb(256, 64, 17)
    }

    /// [`wide_rgb`] at `depth` bits: each 8-bit sample moves to the top
    /// of the range with its high bits repeated below, so the samples
    /// span the full `depth`-bit range.
    fn deep_rgb(depth: u8) -> Image {
        let src = wide_rgb();
        let mut im = Image::new(src.width, src.height, 3, depth).unwrap();
        for (dst, src) in im.planes.iter_mut().zip(&src.planes) {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (v << (depth - 8)) | (v >> (16 - depth));
            }
        }
        im
    }

    /// `encode_with` at 1, 2, 4 and 8 workers must equal `encode`, and the
    /// chunked coefficients (read back through Tier-1 block extraction)
    /// the sequential oracle's.
    fn assert_matches_sequential(im: &Image, params: &EncoderParams, what: &str) {
        let seq = encode(im, params).unwrap();
        let oracle = crate::pipeline::transform_coefficients(im, params).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let (par, _) = encode_with(im, params, workers, None).unwrap();
            assert_eq!(par, seq, "{what} workers={workers}");
            let chunked = transform_coefficients_parallel(im, params, workers).unwrap();
            assert_eq!(chunked, oracle, "{what} coefficients workers={workers}");
        }
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

        let params = EncoderParams {
            levels: 5,
            ..EncoderParams::lossy(0.1)
        };
        assert_matches_sequential(&wide_rgb(), &params, "256x64 rgb");
        assert_matches_sequential(&synth::natural(256, 64, 17), &params, "256x64 gray");
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

        let params = EncoderParams {
            levels: 5,
            arithmetic: Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.1)
        };
        assert_matches_sequential(&wide_rgb(), &params, "256x64 rgb q13");
        assert_matches_sequential(&synth::natural(256, 64, 17), &params, "256x64 gray q13");
    }

    #[test]
    fn parallel_matches_sequential_at_high_bit_depth() {
        // The `u16` image read and the level shift at 12 and 16 bits.
        for depth in [12u8, 16] {
            let im = deep_rgb(depth);
            for params in [
                EncoderParams {
                    levels: 5,
                    ..EncoderParams::lossless()
                },
                EncoderParams {
                    levels: 5,
                    ..EncoderParams::lossy(0.1)
                },
                EncoderParams {
                    levels: 5,
                    arithmetic: Arithmetic::FixedQ13,
                    ..EncoderParams::lossy(0.1)
                },
            ] {
                let what = format!("{depth}-bit {:?} {:?}", params.mode, params.arithmetic);
                assert_matches_sequential(&im, &params, &what);
            }
            let lossless = encode(&im, &EncoderParams::lossless()).unwrap();
            assert_eq!(crate::decode(&lossless).unwrap(), im, "{depth}-bit");
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
        let workers = 3;
        let ((par, prof), events, _) = traced_encode(&im, &params, workers);
        assert_eq!(par, seq, "tracing must not perturb the codestream");
        for name in [
            "stage:mct",
            "stage:dwt",
            "stage:tier1",
            "stage:rate-control",
            "mct",
            "dwt",
            "quantize",
            "tier1",
            "dwt-level-1",
            "chunk-0",
        ] {
            assert!(
                events.iter().any(|e| e.name == name),
                "missing event {name} in {:?}",
                events.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
            );
        }
        for gone in ["stage:convert", "stage:quantize"] {
            assert!(events.iter().all(|e| e.name != gone), "{gone} recorded");
        }
        // One `quantize` span per code block, inside Tier-1, naming the
        // block's component and band.
        let quantize: Vec<_> = events.iter().filter(|e| e.name == "quantize").collect();
        let blocks = events.iter().filter(|e| e.name == "rate-prep").count();
        assert_eq!(quantize.len(), blocks);
        for e in quantize {
            let keys: Vec<&str> = e.args.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, ["comp", "band"], "quantize span args");
        }
        // Which thread claims a chunk varies from run to run; every chunk
        // span names a thread of this encode, and every job is counted
        // once in `worker_jobs`.
        let chunks: Vec<_> = events
            .iter()
            .filter(|e| e.name == "mct" || e.name == "dwt")
            .collect();
        for e in &chunks {
            let worker = e.args.iter().find(|(k, _)| *k == "worker").map(|&(_, v)| v);
            assert!(
                worker.is_some_and(|w| w < workers as u64),
                "{} span worker arg {worker:?}",
                e.name
            );
        }
        assert_eq!(
            prof.worker_jobs.iter().sum::<u64>(),
            (chunks.len() + blocks) as u64,
            "worker_jobs {:?}",
            prof.worker_jobs
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
        for params in [EncoderParams::lossless(), EncoderParams::lossy(0.2)] {
            let (_, prof) = encode_with(&im, &params, workers, None).unwrap();
            assert_eq!(prof.worker_jobs.len(), workers, "{:?}", params.mode);
            let names: Vec<&str> = prof.stage_times.iter().map(|s| s.name.as_ref()).collect();
            assert_eq!(
                names,
                ["mct", "dwt", "tier1", "rate-control", "tier2"],
                "{:?}",
                params.mode
            );
        }
    }

    /// Wait, yielding, until `started` reaches `n` or 10 s pass; returns
    /// whether it got there.
    fn all_started(started: &AtomicUsize, n: usize) -> bool {
        let t = Instant::now();
        while started.load(Ordering::SeqCst) < n {
            if t.elapsed() > std::time::Duration::from_secs(10) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn claim_jobs_runs_every_job_once_in_job_order() {
        for workers in 1..=8 {
            for n in [0usize, 1, 2, 3, 17] {
                let what = format!("workers={workers} jobs={n}");
                let threads = workers.min(n).max(1);
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let (results, counts) = claim_jobs(workers, (0..n).collect(), None, |t, j| {
                    assert!(t < threads, "{what}: thread {t}");
                    runs[j].fetch_add(1, Ordering::SeqCst);
                    Ok(j * 10)
                })
                .unwrap();
                assert_eq!(
                    results,
                    (0..n).map(|j| j * 10).collect::<Vec<_>>(),
                    "{what}"
                );
                assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "{what}");
                assert_eq!(counts.len(), workers, "{what}");
                assert_eq!(counts.iter().sum::<u64>(), n as u64, "{what}");
                assert!(counts[threads..].iter().all(|&c| c == 0), "{what}");
            }
        }
    }

    #[test]
    fn a_helper_claims_jobs_beside_the_calling_thread() {
        // Neither job returns before both have started, so the calling
        // thread cannot run both: a helper must claim one.
        let started = AtomicUsize::new(0);
        let (met, counts) = claim_jobs(2, vec![(); 2], None, |t, ()| {
            started.fetch_add(1, Ordering::SeqCst);
            Ok((t, all_started(&started, 2)))
        })
        .unwrap();
        assert_eq!(counts, [1, 1]);
        assert!(met.iter().all(|&(_, both)| both), "{met:?}");
        let mut threads: Vec<usize> = met.iter().map(|&(t, _)| t).collect();
        threads.sort_unstable();
        assert_eq!(threads, [0, 1]);
    }

    #[test]
    fn an_error_stops_every_thread_and_is_returned() {
        let injected = |r: &Result<_, CodecError>, msg: &str| match r {
            Err(CodecError::Injected(m)) => m == msg,
            _ => false,
        };
        // Inline, no job after the failing one runs.
        let ran = AtomicUsize::new(0);
        let r = claim_jobs(1, (0..10).collect(), None, |_, j: usize| {
            ran.fetch_add(1, Ordering::SeqCst);
            if j == 3 {
                return Err(CodecError::Injected("job 3".into()));
            }
            Ok(())
        });
        assert!(injected(&r, "job 3"));
        assert_eq!(ran.load(Ordering::SeqCst), 4);

        // Jobs 0 and 1 run side by side and job 1 fails: the thread left
        // on job 0 stops at its next claim instead of working through the
        // yielding jobs behind them.
        let (started, late) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let n = 10_000;
        let r = claim_jobs(2, (0..n).collect(), None, |_, j: usize| {
            if j >= 2 {
                late.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
                return Ok(());
            }
            started.fetch_add(1, Ordering::SeqCst);
            all_started(&started, 2);
            if j == 1 {
                return Err(CodecError::Injected("job 1".into()));
            }
            Ok(())
        });
        assert!(injected(&r, "job 1"));
        assert!(late.load(Ordering::SeqCst) < n - 2, "every job ran");
    }

    #[test]
    fn a_stopped_control_stops_claiming() {
        let ctl = EncodeControl::new();
        ctl.cancel();
        for workers in [1, 2] {
            let ran = AtomicUsize::new(0);
            let r = claim_jobs(workers, vec![(); 8], Some(&ctl), |_, ()| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            assert!(matches!(r, Err(CodecError::Cancelled)), "workers={workers}");
            assert_eq!(ran.load(Ordering::SeqCst), 0, "workers={workers}");
        }
    }

    #[test]
    fn a_helper_panic_resumes_on_the_calling_thread() {
        let started = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_jobs(2, vec![(); 2], None, |t, ()| {
                started.fetch_add(1, Ordering::SeqCst);
                all_started(&started, 2);
                if t != 0 {
                    panic!("helper job");
                }
                Ok(())
            })
        }));
        let payload = r.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper job"));
    }
}
