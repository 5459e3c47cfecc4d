//! The pieces of the pipeline around the encode driver
//! ([`crate::parallel`]): the sequential sample transform that serves as
//! the chunked transform's oracle, the rate-control/Tier-2 tail, and the
//! decoder. Stage order follows the paper's Figure 2.

use crate::codestream::{self, BlockStream, MainHeader, Quant};
use crate::profile::{BlockWork, LevelWork, StageTime, WorkloadProfile};
use crate::quant::{band_delta, StepSize, GUARD_BITS};
use crate::{kernels, mct, Arithmetic, CodecError, EncoderParams, Mode};
use ebcot::block::{BandKind, EncodedBlock};
use ebcot::rate::{search_threshold, BlockSummary, PreparedBlock, Threshold};
use imgio::Image;
use obs::trace;
use wavelet::{low_len, norms, Band, Subband};
use xpart::AlignedPlane;

/// Map subband orientation to Tier-1 context class.
pub fn band_kind(b: Band) -> BandKind {
    match b {
        Band::LL | Band::LH => BandKind::LlLh,
        Band::HL => BandKind::Hl,
        Band::HH => BandKind::Hh,
    }
}

/// Default base quantizer step for `depth`-bit imagery (image-domain
/// units); per-band steps divide by the basis norm (see [`band_delta`]),
/// so a unit index error costs `base/sqrt(12)` RMSE in every band. The
/// value trades quality ceiling (~41 dB for 8-bit) against the number of
/// magnitude bit planes Tier-1 has to code.
pub fn default_base_step(depth: u8) -> f64 {
    f64::powi(2.0, depth as i32 - 8) / 2.0
}

/// Per-level transform regions, finest first (mirrors the wavelet crate's
/// internal recursion).
pub fn level_dims(w: usize, h: usize, levels: usize) -> Vec<(usize, usize)> {
    let (mut cw, mut ch) = (w, h);
    let mut v = Vec::new();
    for _ in 0..levels {
        if cw < 2 && ch < 2 {
            break;
        }
        v.push((cw, ch));
        cw = low_len(cw);
        ch = low_len(ch);
    }
    v
}

/// One Tier-1-coded block with its placement, R-D weight, and the
/// rate-control preparation (weighted distortion curve + convex hull)
/// finalized the moment Tier-1 finished the block — on the worker that
/// coded it, not in a sequential post-pass.
pub(crate) struct BlockRecord {
    pub comp: usize,
    pub band_idx: usize,
    pub bx: usize,
    pub by: usize,
    pub enc: EncodedBlock,
    /// Per-block PCRD input (weighted distortions + hull), ready for the
    /// λ search.
    pub rd: PreparedBlock,
}

impl BlockRecord {
    /// Assemble a record, running the per-block R-D preparation (the
    /// parallelizable slice of rate control) inline. `weight` is the
    /// image-domain distortion weight, (delta * basis norm)^2.
    pub(crate) fn new(
        comp: usize,
        band_idx: usize,
        bx: usize,
        by: usize,
        enc: EncodedBlock,
        weight: f64,
    ) -> BlockRecord {
        let _sp = obs::trace::span("rate-prep").cat("chunk");
        let rd = PreparedBlock::new(BlockSummary::from_block(&enc, weight));
        BlockRecord {
            comp,
            band_idx,
            bx,
            by,
            enc,
            rd,
        }
    }
}

/// The coefficient planes the sample stages leave for Tier-1, one per
/// component. Tier-1 block extraction ([`Transformed::block_indices`])
/// turns them into quantizer indices.
pub(crate) enum Coefficients {
    /// Quantizer indices already, copied out as they are: the 5/3
    /// coefficients, or the sequential oracle's quantized 9/7 planes.
    Indices(Vec<AlignedPlane<i32>>),
    /// 9/7 coefficients in `f32`.
    F32(Vec<AlignedPlane<f32>>),
    /// 9/7 coefficients in Q13 fixed point; each row drops back to `f32`
    /// (`v / 8192`) before it is quantized.
    Q13(Vec<AlignedPlane<i32>>),
}

/// Everything shared between the sample stages and entropy stages.
pub(crate) struct Transformed {
    /// Coefficient planes (one per component).
    pub coeffs: Coefficients,
    /// Per-band signalled quantizer step (indexes match `bands`) for 9/7
    /// coefficients; empty for 5/3.
    pub deltas: Vec<f64>,
    /// Per-band quantization signalling (indexes match `bands`).
    pub quant: Quant,
    /// Subband geometry.
    pub bands: Vec<Subband>,
    /// Per-band M_b (max magnitude bit planes).
    pub max_planes: Vec<u8>,
    /// Per-band distortion weight ((delta * norm)^2).
    pub weights: Vec<f64>,
}

impl Transformed {
    /// Pair an encode's coefficient planes with its per-band
    /// quantization signalling, the one place the driver and the
    /// sequential oracle compute it. 5/3 signals reversible exponents,
    /// one bit deeper under the RCT; 9/7 signals each band's step, and
    /// `deltas` holds the steps Tier-1 quantizes with.
    pub(crate) fn new(image: &Image, params: &EncoderParams, coeffs: Coefficients) -> Transformed {
        let depth = image.bit_depth;
        let bands = wavelet::subbands(image.width, image.height, params.levels);
        let mut max_planes = Vec::with_capacity(bands.len());
        let mut weights = Vec::with_capacity(bands.len());
        let mut deltas = Vec::new();
        let quant = match params.mode {
            Mode::Lossless => {
                let depth = depth + u8::from(image.comps() == 3);
                let mut exps = Vec::with_capacity(bands.len());
                for b in &bands {
                    let e = depth + b.band.gain_log2();
                    let n = norms::l2_norm_53(b.band, b.level.max(1));
                    exps.push(e);
                    max_planes.push(GUARD_BITS + e - 1);
                    weights.push(n * n);
                }
                Quant::Reversible(exps)
            }
            Mode::Lossy { .. } => {
                let base = default_base_step(depth);
                let mut steps = Vec::with_capacity(bands.len());
                for b in &bands {
                    let lev = b.level.max(1);
                    let r_bits = depth as i32 + b.band.gain_log2() as i32;
                    let step = StepSize::from_delta(band_delta(base, b.band, lev), r_bits);
                    let delta = step.delta(r_bits);
                    let nrm = norms::l2_norm_97(b.band, lev);
                    steps.push(step);
                    max_planes.push(GUARD_BITS + step.exponent - 1);
                    weights.push((delta * nrm) * (delta * nrm));
                    deltas.push(delta);
                }
                Quant::Scalar(steps)
            }
        };
        Transformed {
            coeffs,
            deltas,
            quant,
            bands,
            max_planes,
            weights,
        }
    }

    /// Number of component planes.
    pub(crate) fn comps(&self) -> usize {
        match &self.coeffs {
            Coefficients::Indices(p) | Coefficients::Q13(p) => p.len(),
            Coefficients::F32(p) => p.len(),
        }
    }

    /// The quantizer indices of one code block of band `bi` in component
    /// `comp`, its `(x0, y0, bw, bh)` rectangle read row by row: the one
    /// place 9/7 coefficients are quantized. A block of 9/7 coefficients
    /// runs under one `quantize` span.
    pub(crate) fn block_indices(
        &self,
        comp: usize,
        bi: usize,
        (x0, y0, bw, bh): (usize, usize, usize, usize),
    ) -> Vec<i32> {
        let mut data = vec![0i32; bw * bh];
        let rows = data.chunks_exact_mut(bw).zip(y0..y0 + bh);
        let cols = x0..x0 + bw;
        let quantize_span = || {
            trace::span("quantize")
                .cat("chunk")
                .arg("comp", comp as u64)
                .arg("band", bi as u64)
        };
        match &self.coeffs {
            Coefficients::Indices(p) => {
                for (dst, y) in rows {
                    dst.copy_from_slice(&p[comp].row(y)[cols.clone()]);
                }
            }
            Coefficients::F32(p) => {
                let _sp = quantize_span();
                for (dst, y) in rows {
                    kernels::quantize_row(&p[comp].row(y)[cols.clone()], dst, self.deltas[bi]);
                }
            }
            Coefficients::Q13(p) => {
                let _sp = quantize_span();
                let mut scratch = vec![0f32; bw];
                for (dst, y) in rows {
                    for (s, &v) in scratch.iter_mut().zip(&p[comp].row(y)[cols.clone()]) {
                        *s = v as f32 / 8192.0;
                    }
                    kernels::quantize_row(&scratch, dst, self.deltas[bi]);
                }
            }
        }
        data
    }

    /// Dense `width`-wide quantizer-index planes rebuilt from every code
    /// block of `cb`-sized grids through [`Transformed::block_indices`],
    /// so a differential test reads what Tier-1 codes.
    pub(crate) fn dense_indices(&self, width: usize, height: usize, cb: usize) -> Vec<Vec<i32>> {
        (0..self.comps())
            .map(|c| {
                let mut dense = vec![0i32; width * height];
                for (bi, b) in self.bands.iter().enumerate() {
                    for (_, _, x0, y0, bw, bh) in block_grid(b, cb) {
                        let block = self.block_indices(c, bi, (x0, y0, bw, bh));
                        for (row, y) in block.chunks_exact(bw).zip(y0..) {
                            dense[y * width + x0..][..bw].copy_from_slice(row);
                        }
                    }
                }
                dense
            })
            .collect()
    }
}

/// Run level shift + MCT + DWT + quantization on whole planes, producing
/// quantizer-index planes and the quantization signalling: the sequential
/// oracle the driver's chunked transform must reproduce (see
/// [`transform_coefficients`]).
pub(crate) fn transform_samples(
    image: &Image,
    params: &EncoderParams,
) -> Result<Transformed, CodecError> {
    let (w, h) = (image.width, image.height);
    let shift = 1i32 << (image.bit_depth - 1);
    let use_mct = image.comps() == 3;

    let mut int_planes: Vec<AlignedPlane<i32>> = image
        .planes
        .iter()
        .map(|p| {
            let dense: Vec<i32> = p.iter().map(|&v| v as i32).collect();
            AlignedPlane::from_dense(w, h, &dense).map_err(|e| CodecError::Image(e.to_string()))
        })
        .collect::<Result<_, _>>()?;

    if params.mode == Mode::Lossless {
        if use_mct {
            mct::forward_rct_shift(&mut int_planes, shift);
        } else {
            for p in &mut int_planes {
                mct::level_shift(p, shift);
            }
        }
        for p in &mut int_planes {
            wavelet::forward_2d_53(p, params.levels, params.variant);
        }
        return Ok(Transformed::new(
            image,
            params,
            Coefficients::Indices(int_planes),
        ));
    }

    // Level shift + ICT, then the 9/7 DWT in the selected arithmetic.
    let mut fp: Vec<AlignedPlane<f32>> = if use_mct {
        mct::forward_ict_shift(&int_planes, shift as f32)
    } else {
        int_planes
            .iter_mut()
            .map(|p| {
                mct::level_shift(p, shift);
                p.to_f32()
            })
            .collect()
    };
    match params.arithmetic {
        Arithmetic::Float32 => {
            for p in &mut fp {
                wavelet::forward_2d_97(p, params.levels, params.variant);
            }
        }
        Arithmetic::FixedQ13 => {
            for p in &mut fp {
                let mut q13 = p.map(|v| kernels::round_half_away(v * 8192.0));
                wavelet::transform2d::forward_2d_97_fixed(&mut q13, params.levels, params.variant);
                *p = q13.map(|v| v as f32 / 8192.0);
            }
        }
    }
    // Quantize whole bands with the signalled steps; the driver leaves
    // this to Tier-1 block extraction.
    let mut t = Transformed::new(image, params, Coefficients::Indices(Vec::new()));
    let indices = fp
        .iter()
        .map(|plane| {
            let mut q = AlignedPlane::new(w, h).expect("geometry");
            for (b, &delta) in t.bands.iter().zip(&t.deltas) {
                for y in b.y0..b.y0 + b.h {
                    let src = &plane.row(y)[b.x0..b.x0 + b.w];
                    kernels::quantize_row(src, &mut q.row_mut(y)[b.x0..b.x0 + b.w], delta);
                }
            }
            q
        })
        .collect();
    t.coeffs = Coefficients::Indices(indices);
    Ok(t)
}

/// Extract the block grid of one band: `(bx, by, x0, y0, bw, bh)` tuples.
pub(crate) fn block_grid(
    b: &Subband,
    cb: usize,
) -> Vec<(usize, usize, usize, usize, usize, usize)> {
    let mut v = Vec::new();
    let gw = b.w.div_ceil(cb);
    let gh = b.h.div_ceil(cb);
    for by in 0..gh {
        for bx in 0..gw {
            let x0 = b.x0 + bx * cb;
            let y0 = b.y0 + by * cb;
            let bw = cb.min(b.x0 + b.w - x0);
            let bh = cb.min(b.y0 + b.h - y0);
            v.push((bx, by, x0, y0, bw, bh));
        }
    }
    v
}

/// What one quality layer keeps: either everything (lossless final
/// layer) or the truncations induced by a searched slope threshold.
enum LayerPlan {
    All,
    Th(Threshold),
}

/// Rate allocation: per-block cumulative kept passes per layer, plus the
/// PCRD work count. One λ search per layer (it needs every block's hull),
/// then the per-block truncation application in block order. Errors only
/// when the `rate.block` failpoint injects one.
pub(crate) fn allocate_layers(
    records: &[BlockRecord],
    params: &EncoderParams,
    raw_bytes: u64,
    extra_reserve: usize,
) -> Result<(Vec<Vec<usize>>, u64), CodecError> {
    let prepared: Vec<&PreparedBlock> = records.iter().map(|r| &r.rd).collect();
    let mut rc_items = 0u64;

    // One threshold search per layer.
    let search_span = obs::trace::span("rate-search").cat("stage");
    let plans: Vec<LayerPlan> = match params.mode {
        Mode::Lossless => (0..params.layers)
            .map(|l| {
                if l + 1 == params.layers {
                    // All passes, all in the final layer.
                    LayerPlan::All
                } else {
                    // Earlier layers split the total bytes evenly.
                    let frac = (l + 1) as f64 / params.layers as f64;
                    let budget: usize =
                        (records.iter().map(|r| r.enc.data.len() as f64).sum::<f64>() * frac)
                            as usize;
                    let th = search_threshold(&prepared, budget);
                    rc_items += th.passes_examined;
                    LayerPlan::Th(th)
                }
            })
            .collect(),
        Mode::Lossy { rate } => {
            // Reserve a sliver for markers and packet headers.
            let header_estimate = 120 + records.len() * 2 + extra_reserve;
            let budget_total = ((rate * raw_bytes as f64) as usize).saturating_sub(header_estimate);
            (0..params.layers)
                .map(|l| {
                    let frac = (l + 1) as f64 / params.layers as f64;
                    let th = search_threshold(&prepared, (budget_total as f64 * frac) as usize);
                    rc_items += th.passes_examined;
                    LayerPlan::Th(th)
                })
                .collect()
        }
    };
    drop(search_span);

    // Apply every layer's plan to each block, including the cross-layer
    // monotonicity fix-up.
    let mut kept = Vec::with_capacity(records.len());
    for r in records {
        // Failpoint `rate.block`: fires once per block per allocation.
        if let Some(msg) = faultsim::eval("rate.block") {
            return Err(CodecError::Injected(msg));
        }
        let mut k: Vec<usize> = plans
            .iter()
            .map(|p| match p {
                LayerPlan::All => r.enc.passes.len(),
                LayerPlan::Th(th) => th.apply(&r.rd),
            })
            .collect();
        for l in 1..k.len() {
            if k[l] < k[l - 1] {
                k[l] = k[l - 1];
            }
        }
        kept.push(k);
    }
    Ok((kept, rc_items))
}

/// Assemble the final codestream from coded blocks + allocations; the
/// only error is an injected `tier2.precinct` fault.
pub(crate) fn assemble(
    image: &Image,
    params: &EncoderParams,
    t: &Transformed,
    records: &[BlockRecord],
    kept: &[Vec<usize>],
) -> Result<Vec<u8>, CodecError> {
    let header = MainHeader {
        width: image.width,
        height: image.height,
        comps: image.comps(),
        depth: image.bit_depth,
        levels: params.levels,
        layers: params.layers,
        cb_size: params.cb_size,
        lossless: matches!(params.mode, Mode::Lossless),
        mct: image.comps() == 3,
        arithmetic: params.arithmetic,
        bypass: params.bypass,
        coder: params.coder,
        guard: GUARD_BITS,
        quant: t.quant.clone(),
    };
    let mut streams = Vec::new();
    for (r, k) in records.iter().zip(kept) {
        let last = *k.last().unwrap_or(&0);
        if last == 0 {
            continue;
        }
        let lens: Vec<usize> = (0..last)
            .map(|i| r.enc.pass_ends[i] - if i == 0 { 0 } else { r.enc.pass_ends[i - 1] })
            .collect();
        streams.push(BlockStream {
            comp: r.comp,
            band_idx: r.band_idx,
            bx: r.bx,
            by: r.by,
            zero_planes: (t.max_planes[r.band_idx] - r.enc.num_planes) as u32,
            layer_passes: k.clone(),
            pass_lens: lens,
            data: r.enc.data[..r.enc.bytes_for_passes(last)].to_vec(),
        });
    }
    codestream::try_write(&header, &streams).map_err(CodecError::Injected)
}

/// Dense quantizer-index planes produced by the sample stages (level
/// shift, MCT, DWT, quantization), one per component, in the sequential
/// reference arithmetic. Diagnostic API for the differential tests: the
/// driver's chunked transform must reproduce these coefficient for
/// coefficient (see `parallel::transform_coefficients_parallel`).
pub fn transform_coefficients(
    image: &Image,
    params: &EncoderParams,
) -> Result<Vec<Vec<i32>>, CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let t = transform_samples(image, params)?;
    Ok(t.dense_indices(image.width, image.height, params.cb_size))
}

/// Everything the rate-control/Tier-2 tail produced, including the
/// budget-shrink retry history the conformance tests pin down.
pub(crate) struct RateOutcome {
    /// The finished codestream.
    pub bytes: Vec<u8>,
    /// Coding passes examined by every PCRD search (profile work items).
    pub rc_items: u64,
    /// Budget-shrink retries taken (0 = first assembly fit).
    pub retries: u64,
    /// Whether the final stream is within the lossy byte budget
    /// (trivially true for lossless).
    pub converged: bool,
    /// `reserve` after each retry — must grow strictly monotonically.
    /// Only the in-module retry-loop tests read it; the non-test lib
    /// target carries it as diagnostic state.
    #[cfg_attr(not(test), allow(dead_code))]
    pub reserves: Vec<usize>,
    /// Cumulative wall seconds in allocation (search + apply), across
    /// retries.
    pub alloc_secs: f64,
    /// Cumulative wall seconds in Tier-2 packet assembly, across retries.
    pub tier2_secs: f64,
}

/// PCRD rate allocation plus codestream assembly, including the lossy
/// budget-shrink retry loop: the sequential tail, run on the calling
/// thread as on the paper's PPE.
pub(crate) fn rate_control_and_assemble(
    image: &Image,
    params: &EncoderParams,
    t: &Transformed,
    records: &[BlockRecord],
    raw: u64,
) -> Result<RateOutcome, CodecError> {
    let mut alloc_secs = 0.0;
    let mut tier2_secs = 0.0;
    let ta = std::time::Instant::now();
    let (mut kept, mut rc_items) = allocate_layers(records, params, raw, 0)?;
    alloc_secs += ta.elapsed().as_secs_f64();
    let t2_span = obs::trace::span("tier2").cat("stage");
    let tt = std::time::Instant::now();
    let mut bytes = assemble(image, params, t, records, &kept)?;
    tier2_secs += tt.elapsed().as_secs_f64();
    drop(t2_span);
    let mut retries = 0u64;
    let mut reserves = Vec::new();
    let mut converged = true;
    if let Mode::Lossy { rate } = params.mode {
        // The packet-header overhead is only known after assembly; shrink
        // the payload budget and retry until the target is met.
        let limit = (rate * raw as f64) as usize;
        let mut reserve = 0usize;
        let mut tries = 0;
        while bytes.len() > limit && tries < 8 {
            reserve += (bytes.len() - limit) + 32;
            reserves.push(reserve);
            let ta = std::time::Instant::now();
            let (k, rc) = allocate_layers(records, params, raw, reserve)?;
            alloc_secs += ta.elapsed().as_secs_f64();
            kept = k;
            rc_items += rc;
            let t2_span = obs::trace::span("tier2").cat("stage");
            let tt = std::time::Instant::now();
            bytes = assemble(image, params, t, records, &kept)?;
            tier2_secs += tt.elapsed().as_secs_f64();
            drop(t2_span);
            tries += 1;
        }
        retries = tries;
        converged = bytes.len() <= limit;
    }
    Ok(RateOutcome {
        bytes,
        rc_items,
        retries,
        converged,
        reserves,
        alloc_secs,
        tier2_secs,
    })
}

/// Build the measured [`WorkloadProfile`] from the Tier-1 records and the
/// driver's stage measurements.
pub(crate) fn build_profile(
    image: &Image,
    params: &EncoderParams,
    records: &[BlockRecord],
    out: &RateOutcome,
    stage_times: Vec<StageTime>,
    worker_jobs: Vec<u64>,
) -> WorkloadProfile {
    WorkloadProfile {
        params: *params,
        width: image.width,
        height: image.height,
        comps: image.comps(),
        samples: (image.width * image.height * image.comps()) as u64,
        raw_bytes: image.raw_bytes() as u64,
        levels: level_dims(image.width, image.height, params.levels)
            .into_iter()
            .map(|(w, h)| LevelWork {
                w: w as u64,
                h: h as u64,
            })
            .collect(),
        blocks: records
            .iter()
            .map(|r| {
                let symbols = match params.coder {
                    // Effective MQ Tier-1 work: raw (bypass) bits avoid
                    // the MQ coder's renormalization/byte-out machinery
                    // and cost roughly a quarter of an MQ decision.
                    crate::coder::Coder::Mq => {
                        let (mut mq, mut raw) = (0u64, 0u64);
                        for pi in &r.enc.passes {
                            if ebcot::block::pass_is_raw(
                                params.bypass,
                                pi.pass_type,
                                pi.plane,
                                r.enc.num_planes,
                            ) {
                                raw += pi.symbols;
                            } else {
                                mq += pi.symbols;
                            }
                        }
                        mq + raw / 4
                    }
                    // HT symbols are already work items (quads + MagSgn
                    // emissions + raw-pass sample visits), all of
                    // comparable branch-light cost; the per-item rate
                    // difference lives in the cost model's kernel entry.
                    crate::coder::Coder::Ht => r.enc.total_symbols(),
                };
                BlockWork {
                    samples: (r.enc.w * r.enc.h) as u64,
                    symbols,
                    passes: r.enc.passes.len() as u64,
                    bytes: r.enc.data.len() as u64,
                }
            })
            .collect(),
        rate_control_items: out.rc_items,
        rate_retries: out.retries,
        rate_converged: out.converged,
        output_bytes: out.bytes.len() as u64,
        stage_times,
        worker_jobs,
    }
}

/// Decode a codestream produced by this crate's encoder: every quality
/// layer at full resolution.
pub fn decode(data: &[u8]) -> Result<Image, CodecError> {
    decode_opts(data, usize::MAX, 0)
}

/// Progressive decode: keep only the first `max_layers` quality layers
/// (`usize::MAX` = all) — a truncated or partially fetched stream still
/// yields a complete, lower-quality image — and discard the
/// `discard_levels` finest resolution levels, so the output is the image
/// downscaled by `2^discard_levels`.
pub fn decode_opts(
    data: &[u8],
    max_layers: usize,
    discard_levels: usize,
) -> Result<Image, CodecError> {
    let parsed = {
        let _s = trace::span("stage:parse").cat("stage");
        codestream::parse(data)?
    };
    decode_parsed(parsed, max_layers, discard_levels, false)
}

/// Best-effort decode of a (possibly truncated) codestream prefix.
///
/// The main header must be intact — header damage is unrecoverable and
/// returns the usual typed [`CodecError`]. The packet walk, however, is
/// lenient: parsing stops at the first truncated or undecodable packet,
/// whole quality layers parsed before that point are kept, and the image
/// is reconstructed from them. Returns the image plus the number of
/// complete layers recovered (`0..=layers`); zero recovered layers still
/// yields a valid (flat) image of the right geometry, so the caller can
/// always measure it.
pub fn decode_prefix(data: &[u8]) -> Result<(Image, usize), CodecError> {
    let (parsed, complete_layers) = {
        let _s = trace::span("stage:parse").cat("stage");
        codestream::parse_prefix(data)?
    };
    let img = decode_parsed(parsed, usize::MAX, 0, true)?;
    Ok((img, complete_layers))
}

/// Tier-1 decode every block of `parsed` (its first `max_layers` layers)
/// and hand its indices to `place` with the block's top-left corner in
/// its component plane and its width.
fn decode_blocks(
    parsed: &codestream::Parsed,
    max_layers: usize,
    lenient: bool,
    mut place: impl FnMut(&BlockStream, usize, usize, usize, &[i32]),
) -> Result<(), CodecError> {
    let hdr = &parsed.header;
    let bands = hdr.bands();
    let cb = hdr.cb_size;
    for blk in &parsed.blocks {
        let b = bands
            .get(blk.band_idx)
            .ok_or_else(|| CodecError::Codestream("band index out of range".into()))?;
        let x0 = b.x0 + blk.bx * cb;
        let y0 = b.y0 + blk.by * cb;
        if x0 >= b.x0 + b.w || y0 >= b.y0 + b.h || blk.comp >= hdr.comps {
            return Err(CodecError::Codestream("block outside band".into()));
        }
        let bw = cb.min(b.x0 + b.w - x0);
        let bh = cb.min(b.y0 + b.h - y0);
        let mp = hdr.max_planes(blk.band_idx) as u32;
        if blk.zero_planes > mp {
            return Err(CodecError::Codestream("zero planes exceed M_b".into()));
        }
        let num_planes = (mp - blk.zero_planes) as u8;
        if num_planes > 31 {
            return Err(CodecError::Codestream(format!(
                "implausible bit-plane count {num_planes}"
            )));
        }
        let layer_idx = max_layers.min(blk.layer_passes.len());
        let mut pass_ends = Vec::with_capacity(blk.pass_lens.len());
        let mut acc = 0usize;
        for &l in &blk.pass_lens {
            acc += l;
            pass_ends.push(acc);
        }
        // On an injected block-decode fault in lenient mode
        // (`decode_prefix`), fall back one whole quality layer at a time
        // — the same commit-only-whole-layers contract the packet walk
        // honors for `decode.packet`. Strict decode surfaces the error.
        let mut li = layer_idx;
        let vals = loop {
            let num_passes = if li == 0 { 0 } else { blk.layer_passes[li - 1] };
            match hdr.coder.block_coder().decode(
                &blk.data,
                &pass_ends,
                num_passes,
                bw,
                bh,
                band_kind(b.band),
                num_planes,
                !hdr.lossless,
                hdr.bypass,
            ) {
                Ok(v) => break v,
                Err(CodecError::Injected(_)) if lenient && li > 0 => li -= 1,
                Err(e) => return Err(e),
            }
        };
        place(blk, x0, y0, bw, &vals);
    }
    Ok(())
}

/// One zeroed full-size plane per component.
fn component_planes<T: Copy + Default>(
    hdr: &MainHeader,
) -> Result<Vec<AlignedPlane<T>>, CodecError> {
    (0..hdr.comps)
        .map(|_| {
            AlignedPlane::new(hdr.width, hdr.height)
                .map_err(|e| CodecError::Codestream(e.to_string()))
        })
        .collect()
}

/// The decoder's four stages, each one pass over the samples: Tier-1
/// decode with the blocks scattered by rows (and dequantized as they land
/// on the lossy path), the in-place inverse DWT, then inverse MCT, level
/// unshift, rounding and clamping straight into the [`Image`] rows. A
/// reduced-resolution decode reads its output from the top-left corner of
/// the planes.
fn decode_parsed(
    parsed: codestream::Parsed,
    max_layers: usize,
    discard_levels: usize,
    lenient: bool,
) -> Result<Image, CodecError> {
    let hdr = &parsed.header;
    let depth = hdr.depth;
    let shift = 1i32 << (depth - 1);
    let maxv = ((1u32 << depth) - 1) as i32;
    // Output dimensions after discarding the finest resolution levels.
    let discard = discard_levels.min(hdr.levels);
    let (ow, oh) = {
        let (mut cw, mut ch) = (hdr.width, hdr.height);
        for _ in 0..discard {
            cw = low_len(cw);
            ch = low_len(ch);
        }
        (cw, ch)
    };
    let mut out =
        Image::new(ow, oh, hdr.comps, depth).map_err(|e| CodecError::Codestream(e.to_string()))?;

    if hdr.lossless {
        // Reversible: the indices are the 5/3 coefficients.
        let mut planes = component_planes::<i32>(hdr)?;
        {
            let _s = trace::span("stage:tier1-decode").cat("stage");
            decode_blocks(&parsed, max_layers, lenient, |blk, x0, y0, bw, vals| {
                let plane = &mut planes[blk.comp];
                for (y, row) in vals.chunks_exact(bw).enumerate() {
                    plane.row_mut(y0 + y)[x0..x0 + bw].copy_from_slice(row);
                }
            })?;
        }
        {
            let _s = trace::span("stage:idwt").cat("stage");
            for p in &mut planes {
                wavelet::transform2d::inverse_2d_53_partial(p, hdr.levels, discard);
            }
        }
        let _s = trace::span("stage:output").cat("stage");
        match (&mut planes[..], &mut out.planes[..]) {
            ([py, pu, pv], [r, g, b]) if hdr.mct => {
                let rows = r
                    .chunks_exact_mut(ow)
                    .zip(g.chunks_exact_mut(ow))
                    .zip(b.chunks_exact_mut(ow));
                for (y, ((r, g), b)) in rows.enumerate() {
                    let py = &mut py.row_mut(y)[..ow];
                    let pu = &mut pu.row_mut(y)[..ow];
                    let pv = &mut pv.row_mut(y)[..ow];
                    kernels::rct_inverse_row(py, pu, pv, shift);
                    kernels::unshift_clamp_row(py, r, 0, maxv);
                    kernels::unshift_clamp_row(pu, g, 0, maxv);
                    kernels::unshift_clamp_row(pv, b, 0, maxv);
                }
            }
            (planes, outs) => {
                for (p, o) in planes.iter().zip(outs) {
                    for (y, row) in o.chunks_exact_mut(ow).enumerate() {
                        kernels::unshift_clamp_row(&p.row(y)[..ow], row, shift, maxv);
                    }
                }
            }
        }
        return Ok(out);
    }

    // Lossy: dequantize each block as it lands, then inverse 9/7.
    let steps = match &hdr.quant {
        Quant::Scalar(s) => s,
        Quant::Reversible(_) => {
            return Err(CodecError::Codestream(
                "lossy stream with reversible quant".into(),
            ))
        }
    };
    let bands = hdr.bands();
    if steps.len() < bands.len() {
        return Err(CodecError::Codestream("missing band step".into()));
    }
    let deltas: Vec<f64> = bands
        .iter()
        .zip(steps)
        .map(|(b, step)| step.delta(depth as i32 + b.band.gain_log2() as i32))
        .collect();
    let mut planes = component_planes::<f32>(hdr)?;
    {
        let _s = trace::span("stage:tier1-decode").cat("stage");
        decode_blocks(&parsed, max_layers, lenient, |blk, x0, y0, bw, vals| {
            let (plane, delta) = (&mut planes[blk.comp], deltas[blk.band_idx]);
            for (y, row) in vals.chunks_exact(bw).enumerate() {
                kernels::dequantize_row(row, &mut plane.row_mut(y0 + y)[x0..x0 + bw], delta);
            }
        })?;
    }
    {
        let _s = trace::span("stage:idwt").cat("stage");
        match hdr.arithmetic {
            Arithmetic::Float32 => {
                for p in &mut planes {
                    wavelet::transform2d::inverse_2d_97_partial(p, hdr.levels, discard);
                }
            }
            Arithmetic::FixedQ13 => {
                // The fixed inverse has no partial variant; reduced-resolution
                // decode of a fixed-point stream falls back to full inversion
                // followed by DWT-domain cropping via the f32 path. The
                // result goes back into the f32 planes the scatter filled.
                for p in &mut planes {
                    let mut q13 = p.map(|v| kernels::round_half_away(v * 8192.0));
                    wavelet::transform2d::inverse_2d_97_fixed(&mut q13, hdr.levels);
                    for y in 0..q13.height() {
                        for (d, &v) in p.row_mut(y).iter_mut().zip(q13.row(y)) {
                            *d = v as f32 / 8192.0;
                        }
                    }
                    if discard > 0 {
                        wavelet::forward_2d_97(p, discard, wavelet::VerticalVariant::Merged);
                    }
                }
            }
        }
    }
    let _s = trace::span("stage:output").cat("stage");
    let [mut sr, mut sg, mut sb] = [vec![0i32; ow], vec![0i32; ow], vec![0i32; ow]];
    match (&planes[..], &mut out.planes[..]) {
        ([py, pb, pr], [r, g, b]) if hdr.mct => {
            let rows = r
                .chunks_exact_mut(ow)
                .zip(g.chunks_exact_mut(ow))
                .zip(b.chunks_exact_mut(ow));
            for (y, ((r, g), b)) in rows.enumerate() {
                kernels::ict_inverse_row(
                    &py.row(y)[..ow],
                    &pb.row(y)[..ow],
                    &pr.row(y)[..ow],
                    &mut sr,
                    &mut sg,
                    &mut sb,
                    shift as f32,
                );
                kernels::unshift_clamp_row(&sr, r, 0, maxv);
                kernels::unshift_clamp_row(&sg, g, 0, maxv);
                kernels::unshift_clamp_row(&sb, b, 0, maxv);
            }
        }
        (planes, outs) => {
            for (p, o) in planes.iter().zip(outs) {
                for (y, row) in o.chunks_exact_mut(ow).enumerate() {
                    kernels::round_row(&p.row(y)[..ow], &mut sr);
                    kernels::unshift_clamp_row(&sr, row, shift, maxv);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use imgio::synth;

    /// Sequential transform plus Tier-1 at one worker: the tail's input.
    fn coded(im: &Image, params: &EncoderParams) -> (Transformed, Vec<BlockRecord>) {
        let t = transform_samples(im, params).unwrap();
        let (records, _) = crate::parallel::tier1_queue(&t, params, 1, None).unwrap();
        (t, records)
    }

    #[test]
    fn lossless_roundtrip_gray() {
        let im = synth::natural(96, 64, 7);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn lossless_roundtrip_rgb() {
        let im = synth::natural_rgb(64, 48, 3);
        let params = EncoderParams {
            levels: 3,
            cb_size: 32,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn lossless_compresses_natural_images() {
        let im = synth::natural(128, 128, 9);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        assert!(
            bytes.len() < im.raw_bytes() * 8 / 10,
            "{} vs raw {}",
            bytes.len(),
            im.raw_bytes()
        );
    }

    #[test]
    fn lossy_rate_is_respected_and_quality_reasonable() {
        let im = synth::natural(128, 128, 11);
        for rate in [0.5, 0.25, 0.1] {
            let bytes = encode(&im, &EncoderParams::lossy(rate)).unwrap();
            let limit = (im.raw_bytes() as f64 * rate) as usize;
            assert!(
                bytes.len() <= limit + 64,
                "rate {rate}: {} > {limit}",
                bytes.len()
            );
            let back = decode(&bytes).unwrap();
            let p = j2k_metrics::psnr(&im, &back).unwrap();
            assert!(p > 24.0, "rate {rate}: psnr {p}");
        }
    }

    #[test]
    fn lossy_quality_monotone_in_rate() {
        let im = synth::natural(96, 96, 5);
        let mut prev = 0.0;
        for rate in [0.05, 0.15, 0.5] {
            let bytes = encode(&im, &EncoderParams::lossy(rate)).unwrap();
            let back = decode(&bytes).unwrap();
            let p = j2k_metrics::psnr(&im, &back).unwrap();
            assert!(p >= prev - 0.2, "rate {rate}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn fixed_point_path_works() {
        let im = synth::natural(64, 64, 2);
        let params = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.3)
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        let p = j2k_metrics::psnr(&im, &back).unwrap();
        assert!(p > 25.0, "fixed-point psnr {p}");
    }

    #[test]
    fn fixed_and_float_agree_closely() {
        let im = synth::natural(64, 64, 4);
        let pf = EncoderParams::lossy(0.4);
        let pq = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..pf
        };
        let f = decode(&encode(&im, &pf).unwrap()).unwrap();
        let q = decode(&encode(&im, &pq).unwrap()).unwrap();
        let p = j2k_metrics::psnr(&f, &q).unwrap();
        assert!(p > 35.0, "float-vs-fixed psnr {p}");
    }

    #[test]
    fn progressive_layer_decode_improves_quality() {
        let im = synth::natural(96, 96, 44);
        let params = EncoderParams {
            layers: 4,
            ..EncoderParams::lossy(0.4)
        };
        let bytes = encode(&im, &params).unwrap();
        let mut prev = 0.0f64;
        for l in 1..=4 {
            let partial = decode_opts(&bytes, l, 0).unwrap();
            let p = j2k_metrics::psnr(&im, &partial).unwrap();
            assert!(p >= prev - 0.01, "layer {l}: {p} < {prev}");
            prev = p;
        }
        // Full decode equals decode of all layers.
        assert_eq!(decode(&bytes).unwrap(), decode_opts(&bytes, 4, 0).unwrap());
        assert!(prev > 25.0, "final quality {prev}");
    }

    #[test]
    fn prefix_decode_of_full_stream_is_exact() {
        let im = synth::natural(64, 48, 21);
        let params = EncoderParams {
            layers: 3,
            ..EncoderParams::lossy(0.4)
        };
        let bytes = encode(&im, &params).unwrap();
        let (prefix, layers) = decode_prefix(&bytes).unwrap();
        assert_eq!(layers, 3);
        assert_eq!(prefix, decode(&bytes).unwrap());
    }

    #[test]
    fn prefix_decode_of_truncated_stream_degrades_monotonically() {
        let im = synth::natural(80, 64, 33);
        let params = EncoderParams {
            layers: 4,
            ..EncoderParams::lossy(0.5)
        };
        let bytes = encode(&im, &params).unwrap();
        // Walk prefixes from nothing to everything: every successful
        // decode is geometrically valid, layer recovery is monotone, and
        // quality at each recovered layer count matches a layer-limited
        // decode_opts.
        let mut last_layers = 0usize;
        let mut any_partial = false;
        for cut in (0..=bytes.len()).step_by(97) {
            match decode_prefix(&bytes[..cut]) {
                Err(_) => assert_eq!(last_layers, 0, "typed errors only before packets"),
                Ok((img, layers)) => {
                    assert_eq!((img.width, img.height, img.comps()), (80, 64, 1));
                    assert!(layers >= last_layers, "cut {cut}: layer count regressed");
                    if layers > 0 && layers < 4 {
                        any_partial = true;
                        assert_eq!(img, decode_opts(&bytes, layers, 0).unwrap());
                    }
                    last_layers = layers;
                }
            }
        }
        let (full, layers) = decode_prefix(&bytes).unwrap();
        assert_eq!(layers, 4);
        assert_eq!(full, decode(&bytes).unwrap());
        assert!(any_partial, "truncation walk never hit a partial stream");
    }

    #[test]
    fn resolution_progressive_decode() {
        let im = synth::natural(64, 48, 12);
        let bytes = encode(
            &im,
            &EncoderParams {
                levels: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Full resolution = normal decode.
        assert_eq!(decode_opts(&bytes, usize::MAX, 0).unwrap(), im);
        // Each discarded level halves the dimensions (ceil).
        let half = decode_opts(&bytes, usize::MAX, 1).unwrap();
        assert_eq!((half.width, half.height), (32, 24));
        let eighth = decode_opts(&bytes, usize::MAX, 3).unwrap();
        assert_eq!((eighth.width, eighth.height), (8, 6));
        // Discarding more than `levels` clamps to the deepest LL.
        let floor = decode_opts(&bytes, usize::MAX, 99).unwrap();
        assert_eq!((floor.width, floor.height), (8, 6));
        // The reduced image is a low-pass version: its mean tracks the
        // original's mean closely.
        let mean = |im: &Image| {
            im.planes[0].iter().map(|&v| v as f64).sum::<f64>() / im.planes[0].len() as f64
        };
        assert!((mean(&half) - mean(&im)).abs() < 8.0);
    }

    #[test]
    fn resolution_progressive_decode_lossy_rgb() {
        let im = synth::natural_rgb(64, 64, 9);
        let bytes = encode(
            &im,
            &EncoderParams {
                levels: 3,
                ..EncoderParams::lossy(0.5)
            },
        )
        .unwrap();
        let half = decode_opts(&bytes, usize::MAX, 1).unwrap();
        assert_eq!((half.width, half.height, half.comps()), (32, 32, 3));
        // Downscale the original by simple 2x2 averaging and compare: the
        // DWT LL is a (better) low-pass of the same content.
        let mut ds = Image::new(32, 32, 3, 8).unwrap();
        for c in 0..3 {
            for y in 0..32 {
                for x in 0..32 {
                    let s: u32 = [(0, 0), (1, 0), (0, 1), (1, 1)]
                        .iter()
                        .map(|&(dx, dy)| im.get(c, 2 * x + dx, 2 * y + dy) as u32)
                        .sum();
                    ds.set(c, x, y, (s / 4) as u16);
                }
            }
        }
        let p = j2k_metrics::psnr(&ds, &half).unwrap();
        assert!(p > 20.0, "half-res vs box-downscale PSNR {p}");
    }

    #[test]
    fn zero_layers_decodes_to_flat_image() {
        let im = synth::natural(32, 32, 1);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        let flat = decode_opts(&bytes, 0, 0).unwrap();
        assert_eq!(flat.width, 32);
        // All coefficients dropped: the reconstruction is the level-shift
        // midpoint everywhere.
        assert!(flat.planes[0].iter().all(|&v| v == flat.planes[0][0]));
    }

    #[test]
    fn bypass_mode_roundtrips_and_is_signalled() {
        let im = synth::natural(96, 96, 61);
        let params = EncoderParams {
            bypass: true,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        assert_eq!(decode(&bytes).unwrap(), im);
        let parsed = codestream::parse(&bytes).unwrap();
        assert!(parsed.header.bypass);
        // Lossy bypass too.
        let params = EncoderParams {
            bypass: true,
            ..EncoderParams::lossy(0.2)
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert!(j2k_metrics::psnr(&im, &back).unwrap() > 25.0);
    }

    #[test]
    fn multi_layer_lossless_roundtrip() {
        let im = synth::natural(48, 48, 6);
        let params = EncoderParams {
            layers: 3,
            levels: 3,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn all_variants_and_sizes_agree() {
        use wavelet::VerticalVariant;
        let im = synth::natural(33, 41, 8);
        let base = EncoderParams {
            levels: 2,
            ..EncoderParams::lossless()
        };
        let reference = encode(&im, &base).unwrap();
        for variant in [
            VerticalVariant::Separate,
            VerticalVariant::Interleaved,
            VerticalVariant::Merged,
        ] {
            let p = EncoderParams { variant, ..base };
            assert_eq!(encode(&im, &p).unwrap(), reference, "{variant:?}");
        }
    }

    #[test]
    fn profile_measures_real_work() {
        let im = synth::natural(64, 64, 1);
        let (bytes, prof) = crate::encode_with(&im, &EncoderParams::lossless(), 1, None).unwrap();
        assert_eq!(prof.output_bytes as usize, bytes.len());
        assert!(
            prof.tier1_symbols() > prof.samples,
            "EBCOT codes >1 decision/sample"
        );
        assert_eq!(prof.samples, 64 * 64);
        assert_eq!(prof.rate_control_items, 0);
        assert!(!prof.blocks.is_empty());
        let (_, lossy_prof) = crate::encode_with(&im, &EncoderParams::lossy(0.2), 1, None).unwrap();
        assert!(lossy_prof.rate_control_items > 0);
    }

    #[test]
    fn extreme_images_roundtrip_lossless() {
        for im in [
            synth::flat(32, 32, 0),
            synth::flat(32, 32, 255),
            synth::checkerboard(33, 31, 1),
            synth::noise(40, 40, 1),
            synth::gradient(17, 64),
        ] {
            let bytes = encode(
                &im,
                &EncoderParams {
                    levels: 3,
                    ..Default::default()
                },
            )
            .unwrap();
            let back = decode(&bytes).unwrap();
            assert_eq!(back, im);
        }
    }

    #[test]
    fn budget_shrink_retries_multiple_times_and_converges() {
        // Probed configuration: the first reserve bump is insufficient, so
        // the shrink loop has to iterate (3 retries at the time of writing;
        // the test only pins >= 2 so R-D-neutral tweaks don't break it).
        let im = synth::noise(64, 64, 6);
        let params = EncoderParams {
            layers: 6,
            cb_size: 32,
            ..EncoderParams::lossy(0.08)
        };
        let (t, records) = coded(&im, &params);
        let raw = im.raw_bytes() as u64;
        let out = rate_control_and_assemble(&im, &params, &t, &records, raw).unwrap();
        assert!(out.retries >= 2, "wanted >=2 retries, got {}", out.retries);
        assert!(out.converged);
        assert!(out.bytes.len() <= (0.08 * raw as f64) as usize);
        // One reserve recorded per retry, growing strictly monotonically.
        assert_eq!(out.reserves.len() as u64, out.retries);
        for w in out.reserves.windows(2) {
            assert!(w[1] > w[0], "reserve not monotonic: {:?}", out.reserves);
        }
    }

    #[test]
    fn budget_shrink_exhaustion_is_clean() {
        // An infeasible budget (the fixed marker overhead alone exceeds
        // it): the loop must stop at 8 tries, report non-convergence, and
        // still hand back a decodable stream.
        let im = synth::noise(8, 8, 5);
        let params = EncoderParams::lossy(0.02);
        let (t, records) = coded(&im, &params);
        let raw = im.raw_bytes() as u64;
        let out = rate_control_and_assemble(&im, &params, &t, &records, raw).unwrap();
        assert_eq!(out.retries, 8);
        assert!(!out.converged);
        assert_eq!(out.reserves.len(), 8);
        for w in out.reserves.windows(2) {
            assert!(w[1] > w[0], "reserve not monotonic: {:?}", out.reserves);
        }
        decode(&out.bytes).unwrap();
        // The profile surfaces the exhaustion for callers.
        let (_, prof) = crate::encode_with(&im, &params, 1, None).unwrap();
        assert_eq!(prof.rate_retries, 8);
        assert!(!prof.rate_converged);
    }

    #[test]
    fn tiny_images_roundtrip() {
        for (w, h) in [(1usize, 1usize), (2, 2), (1, 17), (16, 1), (5, 5)] {
            let mut im = Image::new(w, h, 1, 8).unwrap();
            for (i, v) in im.planes[0].iter_mut().enumerate() {
                *v = ((i * 37) % 256) as u16;
            }
            let params = EncoderParams {
                levels: 1,
                ..EncoderParams::lossless()
            };
            let back = decode(&encode(&im, &params).unwrap()).unwrap();
            assert_eq!(back, im, "{w}x{h}");
        }
    }
}
