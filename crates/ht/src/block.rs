//! The HT block coder: one non-iterative quad cleanup pass over the
//! upper bit-planes, then raw significance/refinement passes for the
//! remaining low planes.
//!
//! ## Pass structure
//!
//! Let `num_planes` be the magnitude bit-plane count of the block and
//! `p_cup = min(2, num_planes - 1)`. The **cleanup pass** codes, in a
//! single pass over 2×2 quads, every sample's full magnitude above
//! plane `p_cup` — *all* upper bit-planes at once, in contrast to the
//! MQ coder's per-plane iteration. Below it, each plane `p_cup-1 .. 0`
//! contributes a raw **SigProp** pass (one bit per still-insignificant
//! sample, plus a sign on 1) and a raw **MagRef** pass (one bit per
//! already-significant sample), exactly the shape of the MQ coder's
//! lazy-mode bypass passes. Every pass is a separately terminated
//! segment, so the existing PCRD machinery truncates HT blocks at pass
//! boundaries just as it does MQ blocks; keeping all passes decodes
//! losslessly bit-for-bit.
//!
//! ## Cleanup segment layout
//!
//! ```text
//! [mel_len: u16 LE][vlc_len: u16 LE][MEL bytes][VLC bytes][MagSgn bytes]
//! ```
//!
//! Three independent forward bit-streams (the standard interleaves two
//! of them bidirectionally to save the length words; explicit lengths
//! keep the coder simple and cost at most 4 bytes per block):
//!
//! * **MEL** — adaptive run-length coded significance events for
//!   context-0 quads ([`crate::mel`]).
//! * **VLC** — significance patterns ([`crate::vlc`]), the quad
//!   exponent bound `u_q` (Elias-gamma) and per-sample exponent
//!   offsets `u_q - e_n` (unary).
//! * **MagSgn** — per significant sample: a sign bit then the
//!   `e_n - 1` magnitude bits below the implicit leading one.

use crate::bitio::{BitReader, BitWriter};
use crate::mel::{MelDecoder, MelEncoder};
use crate::vlc::{get_gamma, get_unary, put_gamma, put_unary, tables};
use ebcot::block::{EncodedBlock, PassInfo, PassType};

/// Decoder failure.
#[derive(Debug)]
pub enum HtError {
    /// The `ht.quad` failpoint injected this error (test/chaos builds).
    Injected(String),
    /// Structurally invalid HT segment data.
    Malformed(String),
}

impl std::fmt::Display for HtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtError::Injected(m) => write!(f, "injected fault: {m}"),
            HtError::Malformed(m) => write!(f, "malformed HT block: {m}"),
        }
    }
}

impl std::error::Error for HtError {}

/// Cleanup-pass floor plane: everything at or above it is coded by the
/// quad pass, everything below by raw refinement passes.
#[inline]
pub fn cup_plane(num_planes: u8) -> u8 {
    num_planes.saturating_sub(1).min(2)
}

/// Sample scan order within a quad at (2qx, 2qy).
const QOFF: [(usize, usize); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Distortion-reduction estimate when a sample becomes significant at
/// plane `p` (same units as the MQ coder's estimate, so PCRD compares
/// HT and MQ blocks on one scale).
#[inline]
fn d_sig(p: u8) -> f64 {
    2.25 * f64::powi(4.0, i32::from(p))
}

/// Distortion-reduction estimate for one refinement bit at plane `p`.
#[inline]
fn d_ref(p: u8) -> f64 {
    0.25 * f64::powi(4.0, i32::from(p))
}

/// Encode one code block of signed quantizer indices with the HT coder.
///
/// Output is the same [`EncodedBlock`] shape the MQ coder produces, so
/// rate control, packet assembly and the cost model treat both coders
/// uniformly; `passes[i].symbols` counts HT work items (quads coded +
/// MagSgn emissions for the cleanup pass, samples visited for the raw
/// passes), which is what makes the coder's per-item cost comparable
/// across backends in `cellsim`.
pub fn encode_block(data: &[i32], w: usize, h: usize) -> EncodedBlock {
    assert_eq!(data.len(), w * h, "block data size");
    let mut span = obs::trace::span("tier1")
        .cat("block")
        .arg("w", w as u64)
        .arg("h", h as u64)
        .arg("coder", 1);
    let mags: Vec<u32> = data.iter().map(|&v| v.unsigned_abs()).collect();
    let max = mags.iter().copied().max().unwrap_or(0);
    let num_planes = (32 - max.leading_zeros()) as u8;
    let mut blk = EncodedBlock {
        data: Vec::new(),
        pass_ends: Vec::new(),
        passes: Vec::new(),
        num_planes,
        w,
        h,
    };
    if num_planes == 0 {
        span.set_arg("symbols", 0);
        return blk;
    }
    let p_cup = cup_plane(num_planes);

    // --- cleanup pass ---
    let (seg, dist, symbols) = cleanup_enc(data, &mags, w, h, p_cup);
    push_pass(&mut blk, seg, PassType::Cleanup, p_cup, dist, symbols);

    // --- raw refinement passes, one SigProp + MagRef pair per plane ---
    for plane in (0..p_cup).rev() {
        let (seg, dist, symbols) = sig_prop_enc(data, &mags, plane);
        push_pass(&mut blk, seg, PassType::SigProp, plane, dist, symbols);
        let (seg, dist, symbols) = mag_ref_enc(&mags, plane);
        push_pass(&mut blk, seg, PassType::MagRef, plane, dist, symbols);
    }

    span.set_arg("symbols", blk.total_symbols());
    blk
}

fn push_pass(
    blk: &mut EncodedBlock,
    seg: Vec<u8>,
    pt: PassType,
    plane: u8,
    dist: f64,
    symbols: u64,
) {
    blk.data.extend_from_slice(&seg);
    blk.pass_ends.push(blk.data.len());
    blk.passes.push(PassInfo {
        pass_type: pt,
        plane,
        rate_bytes: blk.data.len(),
        dist_reduction: dist,
        symbols,
    });
}

/// Context of the quad at (qx, qy): 1 when any already-coded neighbor
/// quad (left, above-left, above, above-right) held a significant
/// sample. Significance clusters; the split keeps MEL events rare-ish
/// and lets the VLC tables specialize.
#[inline]
fn quad_ctx(qsig: &[bool], qw: usize, qx: usize, qy: usize) -> usize {
    let left = qx > 0 && qsig[qy * qw + qx - 1];
    let up = qy > 0
        && (qsig[(qy - 1) * qw + qx]
            || (qx > 0 && qsig[(qy - 1) * qw + qx - 1])
            || (qx + 1 < qw && qsig[(qy - 1) * qw + qx + 1]));
    usize::from(left || up)
}

fn cleanup_enc(data: &[i32], mags: &[u32], w: usize, h: usize, p_cup: u8) -> (Vec<u8>, f64, u64) {
    let (qw, qh) = (w.div_ceil(2), h.div_ceil(2));
    let mut qsig = vec![false; qw * qh];
    let mut mel = MelEncoder::new();
    let mut vlc = BitWriter::new();
    let mut ms = BitWriter::new();
    let tabs = tables();
    let mut dist = 0.0f64;
    let mut symbols = 0u64;

    for qy in 0..qh {
        for qx in 0..qw {
            symbols += 1;
            // Gather the quad's significance pattern and exponents of
            // the magnitudes above the cleanup floor.
            let mut rho = 0u8;
            let mut es = [0u8; 4];
            for (i, &(dx, dy)) in QOFF.iter().enumerate() {
                let (x, y) = (2 * qx + dx, 2 * qy + dy);
                if x < w && y < h {
                    let m = mags[y * w + x] >> p_cup;
                    if m != 0 {
                        rho |= 1 << i;
                        es[i] = (32 - m.leading_zeros()) as u8;
                    }
                }
            }
            let ctx = quad_ctx(&qsig, qw, qx, qy);
            if ctx == 0 {
                mel.encode(rho != 0);
                if rho == 0 {
                    continue;
                }
                tabs[0].put(&mut vlc, rho);
            } else {
                tabs[1].put(&mut vlc, rho);
                if rho == 0 {
                    continue;
                }
            }
            qsig[qy * qw + qx] = true;
            let u_q = u32::from(*es.iter().max().unwrap());
            put_gamma(&mut vlc, u_q);
            for (i, &e) in es.iter().enumerate() {
                if rho & (1 << i) != 0 {
                    put_unary(&mut vlc, u_q - u32::from(e));
                }
            }
            for (i, &(dx, dy)) in QOFF.iter().enumerate() {
                if rho & (1 << i) == 0 {
                    continue;
                }
                let (x, y) = (2 * qx + dx, 2 * qy + dy);
                let full = mags[y * w + x];
                let m = full >> p_cup;
                let e = es[i];
                ms.put_bit(u32::from(data[y * w + x] < 0));
                ms.put_bits(m & !(1u32 << (e - 1)), usize::from(e - 1));
                symbols += 1;
                // PCRD estimate: becoming significant at the sample's top
                // plane, then one refinement per coded plane down to the
                // cleanup floor.
                let top = (31 - full.leading_zeros()) as u8;
                dist += d_sig(top);
                for p in p_cup..top {
                    dist += d_ref(p);
                }
            }
        }
    }

    let mel_bytes = mel.finish();
    let vlc_bytes = vlc.finish();
    let ms_bytes = ms.finish();
    assert!(mel_bytes.len() <= u16::MAX as usize && vlc_bytes.len() <= u16::MAX as usize);
    let mut seg = Vec::with_capacity(4 + mel_bytes.len() + vlc_bytes.len() + ms_bytes.len());
    seg.extend_from_slice(&(mel_bytes.len() as u16).to_le_bytes());
    seg.extend_from_slice(&(vlc_bytes.len() as u16).to_le_bytes());
    seg.extend_from_slice(&mel_bytes);
    seg.extend_from_slice(&vlc_bytes);
    seg.extend_from_slice(&ms_bytes);
    (seg, dist, symbols)
}

/// Raw significance pass at `plane`: one bit per sample whose magnitude
/// has no coded bit above `plane` yet, plus a sign bit after each 1.
fn sig_prop_enc(data: &[i32], mags: &[u32], plane: u8) -> (Vec<u8>, f64, u64) {
    let mut w = BitWriter::new();
    let mut dist = 0.0f64;
    let mut symbols = 0u64;
    for (i, &m) in mags.iter().enumerate() {
        if m >> (plane + 1) != 0 {
            continue; // already significant
        }
        symbols += 1;
        let bit = (m >> plane) & 1;
        w.put_bit(bit);
        if bit == 1 {
            w.put_bit(u32::from(data[i] < 0));
            dist += d_sig(plane);
        }
    }
    (w.finish(), dist, symbols)
}

/// Raw refinement pass at `plane`: one bit per already-significant
/// sample.
fn mag_ref_enc(mags: &[u32], plane: u8) -> (Vec<u8>, f64, u64) {
    let mut w = BitWriter::new();
    let mut dist = 0.0f64;
    let mut symbols = 0u64;
    for &m in mags {
        if m >> (plane + 1) == 0 {
            continue;
        }
        symbols += 1;
        w.put_bit((m >> plane) & 1);
        dist += d_ref(plane);
    }
    (w.finish(), dist, symbols)
}

/// Decode the first `num_passes` passes of a block coded by
/// [`encode_block`]. Mirrors `ebcot::block::decode_block`'s contract:
/// `pass_ends` are per-pass segment ends (possibly truncated), and
/// `midpoint` selects lossy mid-interval reconstruction; exact
/// reconstruction needs all passes and `midpoint = false`.
pub fn decode_block(
    data: &[u8],
    pass_ends: &[usize],
    num_passes: usize,
    w: usize,
    h: usize,
    num_planes: u8,
    midpoint: bool,
) -> Result<Vec<i32>, HtError> {
    if num_planes == 0 || num_passes == 0 {
        return Ok(vec![0; w * h]);
    }
    let p_cup = cup_plane(num_planes);
    let mut mags = vec![0u32; w * h];
    let mut neg = vec![false; w * h];

    // Deterministic pass sequence, exactly as the encoder emits it.
    let mut seq: Vec<(PassType, u8)> = vec![(PassType::Cleanup, p_cup)];
    for plane in (0..p_cup).rev() {
        seq.push((PassType::SigProp, plane));
        seq.push((PassType::MagRef, plane));
    }

    let mut seg_start = 0usize;
    let mut last_plane = p_cup;
    for (idx, &(pt, plane)) in seq.iter().take(num_passes).enumerate() {
        let seg_end = *pass_ends
            .get(idx)
            .ok_or_else(|| HtError::Malformed("missing pass segment length".into()))?;
        if seg_end < seg_start || seg_end > data.len() {
            return Err(HtError::Malformed(format!(
                "pass segment [{seg_start}, {seg_end}) outside {} data bytes",
                data.len()
            )));
        }
        let seg = &data[seg_start..seg_end];
        match pt {
            PassType::Cleanup => cleanup_dec(seg, w, h, p_cup, num_planes, &mut mags, &mut neg)?,
            PassType::SigProp => sig_prop_dec(seg, plane, &mut mags, &mut neg),
            PassType::MagRef => mag_ref_dec(seg, plane, &mut mags),
        }
        last_plane = plane;
        seg_start = seg_end;
    }

    let half = if midpoint && last_plane > 0 {
        1u32 << (last_plane - 1)
    } else {
        0
    };
    Ok((0..w * h)
        .map(|i| {
            let m = mags[i];
            if m == 0 {
                0
            } else {
                let v = (m + half) as i32;
                if neg[i] {
                    -v
                } else {
                    v
                }
            }
        })
        .collect())
}

fn cleanup_dec(
    seg: &[u8],
    w: usize,
    h: usize,
    p_cup: u8,
    num_planes: u8,
    mags: &mut [u32],
    neg: &mut [bool],
) -> Result<(), HtError> {
    if seg.len() < 4 {
        return Err(HtError::Malformed(
            "cleanup segment shorter than header".into(),
        ));
    }
    let mel_len = u16::from_le_bytes([seg[0], seg[1]]) as usize;
    let vlc_len = u16::from_le_bytes([seg[2], seg[3]]) as usize;
    if 4 + mel_len + vlc_len > seg.len() {
        return Err(HtError::Malformed(format!(
            "cleanup sub-stream lengths {mel_len}+{vlc_len} exceed segment of {}",
            seg.len()
        )));
    }
    let mut mel = MelDecoder::new(&seg[4..4 + mel_len]);
    let mut vlc = BitReader::new(&seg[4 + mel_len..4 + mel_len + vlc_len]);
    let mut ms = BitReader::new(&seg[4 + mel_len + vlc_len..]);
    let tabs = tables();

    let (qw, qh) = (w.div_ceil(2), h.div_ceil(2));
    let mut qsig = vec![false; qw * qh];
    for qy in 0..qh {
        for qx in 0..qw {
            if let Some(msg) = faultsim::eval("ht.quad") {
                return Err(HtError::Injected(msg));
            }
            let ctx = quad_ctx(&qsig, qw, qx, qy);
            let rho = if ctx == 0 {
                if !mel.decode() {
                    continue;
                }
                tabs[0]
                    .get(&mut vlc)
                    .ok_or_else(|| HtError::Malformed("VLC hole (ctx 0)".into()))?
            } else {
                let r = tabs[1]
                    .get(&mut vlc)
                    .ok_or_else(|| HtError::Malformed("VLC hole (ctx 1)".into()))?;
                if r == 0 {
                    continue;
                }
                r
            };
            if rho == 0 {
                // MEL said significant but the pattern claims empty: the
                // encoder never writes this (ctx-0 table has no 0 entry),
                // so only corruption can reach here.
                return Err(HtError::Malformed("empty pattern after MEL hit".into()));
            }
            qsig[qy * qw + qx] = true;
            let u_q =
                get_gamma(&mut vlc).ok_or_else(|| HtError::Malformed("bad u_q gamma".into()))?;
            if u_q > u32::from(num_planes - p_cup) {
                return Err(HtError::Malformed(format!(
                    "quad exponent {u_q} exceeds plane budget {}",
                    num_planes - p_cup
                )));
            }
            for (i, &(dx, dy)) in QOFF.iter().enumerate() {
                if rho & (1 << i) == 0 {
                    continue;
                }
                let (x, y) = (2 * qx + dx, 2 * qy + dy);
                if x >= w || y >= h {
                    return Err(HtError::Malformed(
                        "significant sample outside block".into(),
                    ));
                }
                let r = get_unary(&mut vlc, u_q)
                    .ok_or_else(|| HtError::Malformed("bad exponent offset".into()))?;
                if r >= u_q {
                    return Err(HtError::Malformed(
                        "exponent offset consumes exponent".into(),
                    ));
                }
                let e = u_q - r;
                let sign = ms.bit();
                let rest = ms.bits((e - 1) as usize);
                let m = (1u32 << (e - 1)) | rest;
                mags[y * w + x] = m << p_cup;
                neg[y * w + x] = sign == 1;
            }
        }
    }
    Ok(())
}

fn sig_prop_dec(seg: &[u8], plane: u8, mags: &mut [u32], neg: &mut [bool]) {
    let mut r = BitReader::new(seg);
    for i in 0..mags.len() {
        if mags[i] >> (plane + 1) != 0 {
            continue;
        }
        if r.bit() == 1 {
            mags[i] |= 1 << plane;
            neg[i] = r.bit() == 1;
        }
    }
}

fn mag_ref_dec(seg: &[u8], plane: u8, mags: &mut [u32]) {
    let mut r = BitReader::new(seg);
    for m in mags.iter_mut() {
        if *m >> (plane + 1) == 0 {
            continue;
        }
        *m |= r.bit() << plane;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip_exact(data: &[i32], w: usize, h: usize) {
        let enc = encode_block(data, w, h);
        let back = decode_block(
            &enc.data,
            &enc.pass_ends,
            enc.passes.len(),
            w,
            h,
            enc.num_planes,
            false,
        )
        .expect("decode");
        assert_eq!(back, data, "{w}x{h} planes={}", enc.num_planes);
    }

    #[test]
    fn zero_block_is_empty() {
        let enc = encode_block(&[0; 12], 4, 3);
        assert_eq!(enc.num_planes, 0);
        assert!(enc.data.is_empty() && enc.passes.is_empty());
        let back = decode_block(&[], &[], 0, 4, 3, 0, false).unwrap();
        assert_eq!(back, vec![0; 12]);
    }

    #[test]
    fn pass_structure_matches_contract() {
        // 1 plane: cleanup only. 2 planes: cleanup + one SPP/MRP pair.
        // >= 3 planes: cleanup + two pairs, never more.
        let one = encode_block(&[1, 0, -1, 1], 2, 2);
        assert_eq!(one.passes.len(), 1);
        assert_eq!(one.passes[0].plane, 0);
        let two = encode_block(&[3, 0, -2, 1], 2, 2);
        assert_eq!(two.passes.len(), 3);
        let deep = encode_block(&[1000, -3, 77, 1], 2, 2);
        assert_eq!(deep.passes.len(), 5);
        assert_eq!(deep.passes[0].pass_type, PassType::Cleanup);
        assert_eq!(deep.passes[0].plane, 2);
    }

    #[test]
    fn roundtrips_shapes_and_depths() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(w, h) in &[
            (1usize, 1usize),
            (2, 2),
            (3, 5),
            (8, 8),
            (64, 1),
            (1, 64),
            (17, 9),
            (64, 64),
        ] {
            for &amp in &[1i32, 3, 255, 4095, 1 << 20] {
                let data: Vec<i32> = (0..w * h).map(|_| rng.gen_range(-amp..=amp)).collect();
                roundtrip_exact(&data, w, h);
            }
        }
    }

    #[test]
    fn roundtrips_sparse_blocks() {
        let mut rng = StdRng::seed_from_u64(9);
        for density in [0.0f64, 0.01, 0.1] {
            let (w, h) = (32usize, 24usize);
            let data: Vec<i32> = (0..w * h)
                .map(|_| {
                    if rng.gen_bool(density) {
                        rng.gen_range(-100_000i32..=100_000)
                    } else {
                        0
                    }
                })
                .collect();
            roundtrip_exact(&data, w, h);
        }
    }

    #[test]
    fn truncation_at_pass_boundaries_is_clean() {
        let mut rng = StdRng::seed_from_u64(5);
        let (w, h) = (16usize, 16usize);
        let data: Vec<i32> = (0..w * h).map(|_| rng.gen_range(-5000i32..=5000)).collect();
        let enc = encode_block(&data, w, h);
        assert!(enc.passes.len() >= 3);
        let full = decode_block(
            &enc.data,
            &enc.pass_ends,
            enc.passes.len(),
            w,
            h,
            enc.num_planes,
            false,
        )
        .unwrap();
        assert_eq!(full, data);
        // Every truncation decodes; per-sample error is bounded by the
        // uncertainty interval of the last decoded plane (midpoint
        // reconstruction halves the interval, so the bound tightens as
        // passes are added even though individual samples may wobble).
        for n in 1..=enc.passes.len() {
            let part = decode_block(
                &enc.data[..enc.bytes_for_passes(n)],
                &enc.pass_ends,
                n,
                w,
                h,
                enc.num_planes,
                true,
            )
            .unwrap();
            let last_plane = enc.passes[n - 1].plane;
            let bound = f64::from(1u32 << last_plane);
            for (i, (&a, &b)) in data.iter().zip(&part).enumerate() {
                let err = (f64::from(a) - f64::from(b)).abs();
                assert!(
                    err <= bound,
                    "sample {i}: |{a} - {b}| > {bound} after {n} passes"
                );
            }
        }
    }

    #[test]
    fn corrupt_streams_error_or_decode_never_panic() {
        let mut rng = StdRng::seed_from_u64(11);
        let (w, h) = (13usize, 7usize);
        let data: Vec<i32> = (0..w * h).map(|_| rng.gen_range(-900i32..=900)).collect();
        let enc = encode_block(&data, w, h);
        for _ in 0..500 {
            let mut d = enc.data.clone();
            let i = rng.gen_range(0..d.len());
            d[i] ^= 1 << rng.gen_range(0..8u32);
            // Must return (Ok with some values, or a typed error) —
            // never panic, never loop.
            let _ = decode_block(
                &d,
                &enc.pass_ends,
                enc.passes.len(),
                w,
                h,
                enc.num_planes,
                false,
            );
        }
    }

    #[test]
    fn rate_is_sane_on_natural_like_data() {
        // Smooth content: HT's rate premium over MQ is meant to be
        // small; at minimum the coder must beat raw sign-magnitude.
        let (w, h) = (64usize, 64usize);
        let data: Vec<i32> = (0..w * h)
            .map(|i| {
                let (x, y) = ((i % w) as f64, (i / w) as f64);
                ((x * 0.3).sin() * 40.0 + (y * 0.2).cos() * 30.0) as i32
            })
            .collect();
        let enc = encode_block(&data, w, h);
        assert!(
            enc.data.len() < w * h * 2,
            "{} bytes for {} samples",
            enc.data.len(),
            w * h
        );
        roundtrip_exact(&data, w, h);
    }
}
