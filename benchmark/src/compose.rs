//! Encode and decode rebuilt from the codec's public layer calls, each
//! call wrapped in an `obs` span named after its layer, so one traced pass
//! yields a per-layer waterfall measured from outside the program.
//!
//! The composition follows the sequential reference pipeline stage for
//! stage. Its lossless codestream is byte-identical to the encoder's and
//! its lossy quantizer indices equal the reference transform's; the lossy
//! tail runs the first rate allocation only (the encoder may retry with a
//! smaller budget), so only the indices are compared there.

use ebcot::rate::{search_threshold, BlockSummary, PreparedBlock, Threshold};
use imgio::Image;
use j2k_core::codestream::{self, BlockStream, MainHeader, Quant};
use j2k_core::pipeline::{band_kind, default_base_step};
use j2k_core::quant::{band_delta, dequantize, StepSize, GUARD_BITS};
use j2k_core::{kernels, mct, Arithmetic, CodecError, EncoderParams, Mode};
use wavelet::{norms, Subband};
use xpart::AlignedPlane;

/// Span category of the layer spans (the program's own spans carry
/// others).
pub const CAT: &str = "layer";

/// Layer spans of an encode, in pipeline order.
pub const ENCODE_LAYERS: &[&str] = &[
    "xpart.plane_convert",
    "core.mct",
    "wavelet.dwt",
    "core.quantize",
    "tier1.encode",
    "ebcot.rd_prep",
    "ebcot.lambda_search",
    "core.tier2_write",
];

/// Layer spans of a decode, in pipeline order.
pub const DECODE_LAYERS: &[&str] = &[
    "core.tier2_parse",
    "tier1.decode",
    "core.dequantize",
    "wavelet.idwt",
    "core.imct",
];

fn layer(name: &'static str) -> obs::Span {
    obs::trace::span(name).cat(CAT)
}

/// What a composed encode produced, plus the work counts the waterfall
/// reports beside its times.
pub struct Encoded {
    pub codestream: Vec<u8>,
    /// Quantizer indices, one plane per component.
    pub indices: Vec<AlignedPlane<i32>>,
    /// Tier-1 symbols coded.
    pub symbols: u64,
    /// Coding passes the λ searches examined.
    pub passes_examined: u64,
    /// Bytes the sample layers (convert, MCT, DWT, quantize) must move,
    /// from the traffic model rather than measured.
    pub sample_bytes: u64,
    /// The DWT's share of `sample_bytes`.
    pub dwt_bytes: u64,
}

/// `(bx, by, x0, y0, w, h)` of every code block of `b`, row by row.
fn block_grid(
    b: &Subband,
    cb: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize, usize, usize)> + '_ {
    (0..b.h.div_ceil(cb)).flat_map(move |by| {
        (0..b.w.div_ceil(cb)).map(move |bx| {
            let (x0, y0) = (b.x0 + bx * cb, b.y0 + by * cb);
            (
                bx,
                by,
                x0,
                y0,
                cb.min(b.x0 + b.w - x0),
                cb.min(b.y0 + b.h - y0),
            )
        })
    })
}

/// DWT traffic of one component, in bytes of 4-byte samples.
fn dwt_bytes(w: usize, h: usize, p: &EncoderParams) -> u64 {
    let filter = match p.mode {
        Mode::Lossless => wavelet::Filter::Rev53,
        Mode::Lossy { .. } => wavelet::Filter::Irr97,
    };
    j2k_core::pipeline::level_dims(w, h, p.levels)
        .into_iter()
        .map(|(lw, lh)| {
            let (lw, lh) = (lw as u64, lh as u64);
            wavelet::vertical_traffic(p.variant, filter, lw, lh).total()
                + wavelet::horizontal_traffic(lw, lh).total()
        })
        .sum::<u64>()
        * 4
}

/// Encode `image` layer by layer. Supports the f32 arithmetic the
/// workloads use.
pub fn encode(image: &Image, p: &EncoderParams) -> Encoded {
    assert_eq!(
        p.arithmetic,
        Arithmetic::Float32,
        "composition covers the f32 path"
    );
    let (w, h, comps) = (image.width, image.height, image.comps());
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let use_mct = comps == 3;
    let bands = wavelet::subbands(w, h, p.levels);
    let samples = (w * h * comps) as u64;

    let mut planes: Vec<AlignedPlane<i32>> = image
        .planes
        .iter()
        .map(|plane| {
            let dense: Vec<i32> = plane.iter().map(|&v| i32::from(v)).collect();
            let _s = layer("xpart.plane_convert");
            AlignedPlane::from_dense(w, h, &dense).expect("image geometry")
        })
        .collect();
    let dwt = dwt_bytes(w, h, p) * comps as u64;
    // Every sample layer but the DWT reads and writes each 4-byte sample
    // once: plane conversion, the MCT, and (lossy) the quantizer.
    let mut sample_bytes = samples * 8 * 2 + dwt;

    let (indices, quant, max_planes, weights) = match p.mode {
        Mode::Lossless => {
            {
                let _s = layer("core.mct");
                if use_mct {
                    mct::forward_rct_shift(&mut planes, shift);
                } else {
                    planes.iter_mut().for_each(|pl| mct::level_shift(pl, shift));
                }
            }
            {
                let _s = layer("wavelet.dwt");
                for pl in &mut planes {
                    wavelet::forward_2d_53(pl, p.levels, p.variant);
                }
            }
            // The reversible path has no quantizer: the span records the
            // (empty) step so every run reports the same layers.
            drop(layer("core.quantize"));
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
            (planes, Quant::Reversible(exps), max_planes, weights)
        }
        Mode::Lossy { .. } => {
            let mut coeffs: Vec<AlignedPlane<f32>> = {
                let _s = layer("core.mct");
                if use_mct {
                    mct::forward_ict_shift(&planes, shift as f32)
                } else {
                    planes
                        .iter_mut()
                        .map(|pl| {
                            mct::level_shift(pl, shift);
                            pl.to_f32()
                        })
                        .collect()
                }
            };
            {
                let _s = layer("wavelet.dwt");
                for pl in &mut coeffs {
                    wavelet::forward_2d_97(pl, p.levels, p.variant);
                }
            }
            let base = default_base_step(depth);
            let (mut steps, mut deltas, mut weights) = (Vec::new(), Vec::new(), Vec::new());
            for b in &bands {
                let lev = b.level.max(1);
                let r_bits = i32::from(depth) + i32::from(b.band.gain_log2());
                let step = StepSize::from_delta(band_delta(base, b.band, lev), r_bits);
                let delta = step.delta(r_bits);
                let nrm = norms::l2_norm_97(b.band, lev);
                steps.push(step);
                deltas.push(delta);
                weights.push((delta * nrm) * (delta * nrm));
            }
            let mut indices: Vec<AlignedPlane<i32>> = zeroed(comps, w, h);
            {
                let _s = layer("core.quantize");
                for (b, &delta) in bands.iter().zip(&deltas) {
                    for (src, dst) in coeffs.iter().zip(indices.iter_mut()) {
                        for y in b.y0..b.y0 + b.h {
                            kernels::quantize_row(
                                &src.row(y)[b.x0..b.x0 + b.w],
                                &mut dst.row_mut(y)[b.x0..b.x0 + b.w],
                                delta,
                            );
                        }
                    }
                }
            }
            sample_bytes += samples * 8;
            let max_planes = steps.iter().map(|s| GUARD_BITS + s.exponent - 1).collect();
            (indices, Quant::Scalar(steps), max_planes, weights)
        }
    };

    // Tier-1 and the per-block half of rate control, block by block.
    // Block extraction is the driver's own glue, so it stays untimed and
    // lands in the residual.
    struct Block {
        comp: usize,
        band: usize,
        bx: usize,
        by: usize,
        enc: ebcot::EncodedBlock,
        rd: PreparedBlock,
    }
    let mut blocks = Vec::new();
    let coder = p.coder.block_coder();
    for (comp, plane) in indices.iter().enumerate() {
        for (band, b) in bands.iter().enumerate() {
            for (bx, by, x0, y0, bw, bh) in block_grid(b, p.cb_size) {
                let mut data = Vec::with_capacity(bw * bh);
                for y in y0..y0 + bh {
                    data.extend_from_slice(&plane.row(y)[x0..x0 + bw]);
                }
                let enc = {
                    let _s = layer("tier1.encode");
                    coder.encode(&data, bw, bh, band_kind(b.band), p.bypass)
                };
                let rd = {
                    let _s = layer("ebcot.rd_prep");
                    PreparedBlock::new(BlockSummary::from_block(&enc, weights[band]))
                };
                blocks.push(Block {
                    comp,
                    band,
                    bx,
                    by,
                    enc,
                    rd,
                });
            }
        }
    }
    let symbols = blocks.iter().map(|b| b.enc.total_symbols()).sum();

    // One λ search per quality layer (none for a lossless final layer).
    let prepared: Vec<&PreparedBlock> = blocks.iter().map(|b| &b.rd).collect();
    let plans: Vec<Option<Threshold>> = {
        let _s = layer("ebcot.lambda_search");
        let budget = |frac: f64| -> Option<usize> {
            match p.mode {
                Mode::Lossless => (frac < 1.0).then(|| {
                    (blocks.iter().map(|b| b.enc.data.len() as f64).sum::<f64>() * frac) as usize
                }),
                Mode::Lossy { rate } => {
                    // The encoder's first-try reserve for markers and
                    // packet headers.
                    let headers = 120 + blocks.len() * 2;
                    let total =
                        ((rate * image.raw_bytes() as f64) as usize).saturating_sub(headers);
                    Some((total as f64 * frac) as usize)
                }
            }
        };
        (1..=p.layers)
            .map(|l| {
                budget(l as f64 / p.layers as f64).map(|bytes| search_threshold(&prepared, bytes))
            })
            .collect()
    };
    let passes_examined = plans.iter().flatten().map(|t| t.passes_examined).sum();

    let streams: Vec<BlockStream> = blocks
        .iter()
        .filter_map(|b| {
            let mut kept: Vec<usize> = plans
                .iter()
                .map(|t| t.map_or(b.enc.passes.len(), |t| t.apply(&b.rd)))
                .collect();
            for l in 1..kept.len() {
                kept[l] = kept[l].max(kept[l - 1]);
            }
            let last = *kept.last()?;
            (last > 0).then(|| BlockStream {
                comp: b.comp,
                band_idx: b.band,
                bx: b.bx,
                by: b.by,
                zero_planes: u32::from(max_planes[b.band] - b.enc.num_planes),
                pass_lens: (0..last)
                    .map(|i| b.enc.pass_ends[i] - if i == 0 { 0 } else { b.enc.pass_ends[i - 1] })
                    .collect(),
                data: b.enc.data[..b.enc.bytes_for_passes(last)].to_vec(),
                layer_passes: kept,
            })
        })
        .collect();
    let header = MainHeader {
        width: w,
        height: h,
        comps,
        depth,
        levels: p.levels,
        layers: p.layers,
        cb_size: p.cb_size,
        lossless: p.mode == Mode::Lossless,
        mct: use_mct,
        arithmetic: p.arithmetic,
        bypass: p.bypass,
        coder: p.coder,
        guard: GUARD_BITS,
        quant,
    };
    let codestream = {
        let _s = layer("core.tier2_write");
        codestream::write(&header, &streams)
    };
    Encoded {
        codestream,
        indices,
        symbols,
        passes_examined,
        sample_bytes,
        dwt_bytes: dwt,
    }
}

/// `n` zeroed `w` × `h` planes.
fn zeroed<T: Copy + Default>(n: usize, w: usize, h: usize) -> Vec<AlignedPlane<T>> {
    (0..n)
        .map(|_| AlignedPlane::new(w, h).expect("image geometry"))
        .collect()
}

/// Decode `data`, a codestream of this crate's own making, layer by
/// layer, keeping every quality layer.
pub fn decode(data: &[u8]) -> Result<Image, CodecError> {
    let parsed = {
        let _s = layer("core.tier2_parse");
        codestream::parse(data)?
    };
    let hdr = &parsed.header;
    let (w, h, comps) = (hdr.width, hdr.height, hdr.comps);
    let bands = hdr.bands();
    let coder = hdr.coder.block_coder();
    let mut indices: Vec<AlignedPlane<i32>> = zeroed(comps, w, h);
    for blk in &parsed.blocks {
        let b = &bands[blk.band_idx];
        let (x0, y0) = (b.x0 + blk.bx * hdr.cb_size, b.y0 + blk.by * hdr.cb_size);
        let (bw, bh) = (
            hdr.cb_size.min(b.x0 + b.w - x0),
            hdr.cb_size.min(b.y0 + b.h - y0),
        );
        let pass_ends: Vec<usize> = blk
            .pass_lens
            .iter()
            .scan(0, |end, &len| {
                *end += len;
                Some(*end)
            })
            .collect();
        let vals = {
            let _s = layer("tier1.decode");
            coder.decode(
                &blk.data,
                &pass_ends,
                blk.layer_passes.last().copied().unwrap_or(0),
                bw,
                bh,
                band_kind(b.band),
                hdr.max_planes(blk.band_idx) - blk.zero_planes as u8,
                !hdr.lossless,
                hdr.bypass,
            )?
        };
        let plane = &mut indices[blk.comp];
        for (y, row) in vals.chunks_exact(bw).enumerate() {
            plane.row_mut(y0 + y)[x0..x0 + bw].copy_from_slice(row);
        }
    }

    let shift = 1i32 << (hdr.depth - 1);
    let int_planes: Vec<AlignedPlane<i32>> = if hdr.lossless {
        // Reversible: indices are the coefficients.
        drop(layer("core.dequantize"));
        {
            let _s = layer("wavelet.idwt");
            for pl in &mut indices {
                wavelet::inverse_2d_53(pl, hdr.levels);
            }
        }
        let _s = layer("core.imct");
        if hdr.mct && comps == 3 {
            mct::inverse_rct_shift(&mut indices, shift);
        } else {
            indices
                .iter_mut()
                .for_each(|pl| mct::level_unshift(pl, shift));
        }
        indices
    } else {
        assert_eq!(
            hdr.arithmetic,
            Arithmetic::Float32,
            "composition covers the f32 path"
        );
        let Quant::Scalar(steps) = &hdr.quant else {
            unreachable!("a lossy header signals step sizes")
        };
        let mut coeffs: Vec<AlignedPlane<f32>> = zeroed(comps, w, h);
        {
            // The decoder's own loop shape: one `dequantize` per sample.
            let _s = layer("core.dequantize");
            for (b, step) in bands.iter().zip(steps) {
                let delta = step.delta(i32::from(hdr.depth) + i32::from(b.band.gain_log2()));
                for (src, dst) in indices.iter().zip(coeffs.iter_mut()) {
                    for y in b.y0..b.y0 + b.h {
                        for x in b.x0..b.x0 + b.w {
                            dst.set(x, y, dequantize(src.get(x, y), delta));
                        }
                    }
                }
            }
        }
        {
            let _s = layer("wavelet.idwt");
            for pl in &mut coeffs {
                wavelet::inverse_2d_97(pl, hdr.levels);
            }
        }
        let _s = layer("core.imct");
        if hdr.mct && comps == 3 {
            mct::inverse_ict_shift(&coeffs, shift as f32)
        } else {
            coeffs
                .iter()
                .map(|pl| {
                    let mut q = pl.to_i32_rounded();
                    mct::level_unshift(&mut q, shift);
                    q
                })
                .collect()
        }
    };

    let mut out = Image::new(w, h, comps, hdr.depth).expect("header geometry");
    let maxv = i32::from(out.max_value());
    for (dst, src) in out.planes.iter_mut().zip(&int_planes) {
        for (y, row) in dst.chunks_exact_mut(w).enumerate() {
            for (o, &v) in row.iter_mut().zip(src.row(y)) {
                *o = v.clamp(0, maxv) as u16;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::inputs::{lossless_mq, lossy_ht};
    use imgio::synth;

    #[test]
    fn lossless_composition_is_the_encoder_byte_for_byte() {
        for image in [synth::natural_rgb(80, 72, 3), synth::natural(67, 45, 4)] {
            let p = lossless_mq();
            let composed = encode(&image, &p);
            assert_eq!(
                composed.codestream,
                codec::reference_encode(&image, &p).unwrap()
            );
            assert_eq!(decode(&composed.codestream).unwrap(), image);
        }
    }

    #[test]
    fn lossy_composition_has_the_reference_indices_and_decode() {
        for (image, p) in [
            (synth::natural_rgb(96, 64, 5), lossy_ht(0.1)),
            (synth::natural(70, 50, 6), EncoderParams::lossy(0.25)),
        ] {
            let composed = encode(&image, &p);
            let dense: Vec<Vec<i32>> = composed.indices.iter().map(|pl| pl.to_dense()).collect();
            assert_eq!(dense, codec::reference_indices(&image, &p).unwrap());
            let reference = codec::reference_encode(&image, &p).unwrap();
            assert_eq!(
                decode(&reference).unwrap(),
                codec::decode(&reference).unwrap()
            );
            assert!(composed.passes_examined > 0);
        }
    }
}
