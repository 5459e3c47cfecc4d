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

/// Distortion-reduction estimate when a sample becomes significant at
/// plane `p`, `2.25 · 4^p` (same units as the MQ coder's estimate, so
/// PCRD compares HT and MQ blocks on one scale).
const D_SIG: [f64; 32] = plane_table(2.25);

/// Distortion-reduction estimate for one refinement bit at plane `p`,
/// `0.25 · 4^p`.
const D_REF: [f64; 32] = plane_table(0.25);

/// `scale · 4^p` for every plane. Powers of four are exact in `f64`, so
/// these are the values `scale * f64::powi(4.0, p)` gives.
const fn plane_table(scale: f64) -> [f64; 32] {
    let mut t = [0.0; 32];
    let mut pow = 1.0;
    let mut p = 0;
    while p < 32 {
        t[p] = scale * pow;
        pow *= 4.0;
        p += 1;
    }
    t
}

/// Encode one code block of signed quantizer indices with the HT coder.
///
/// Output is the same [`EncodedBlock`] shape the MQ coder produces, so
/// rate control, packet assembly and the cost model treat both coders
/// uniformly; `passes[i].symbols` counts HT work items (quads coded +
/// MagSgn emissions for the cleanup pass, samples visited for the raw
/// passes), which is what makes the coder's per-item cost comparable
/// across backends in `cellsim`. It is [`size_block`] with the raw passes
/// packed at once.
pub fn encode_block(data: &[i32], w: usize, h: usize) -> EncodedBlock {
    let (mut blk, raw) = size_block(data, w, h);
    raw.pack(&mut blk);
    blk
}

/// Code the cleanup pass of one block and only size its raw passes:
/// `pass_ends` and `passes` are [`encode_block`]'s, field for field, but
/// `data` holds the cleanup segment alone. The returned [`RawPasses`]
/// packs the rest when rate control keeps it.
pub fn size_block(data: &[i32], w: usize, h: usize) -> (EncodedBlock, RawPasses) {
    assert_eq!(data.len(), w * h, "block data size");
    let all = data.iter().fold(0, |a, &v| a | v.unsigned_abs());
    let num_planes = (32 - all.leading_zeros()) as u8;
    let mut blk = EncodedBlock {
        data: Vec::new(),
        pass_ends: Vec::new(),
        passes: Vec::new(),
        num_planes,
        w,
        h,
    };
    if num_planes == 0 {
        let raw = RawPasses {
            samples: Vec::new(),
            planes: 0,
        };
        return (blk, raw);
    }
    let p_cup = cup_plane(num_planes);

    // Magnitudes in rows padded with zeros to whole quads, so the quad
    // walk needs no edge tests, and each sample's raw-pass byte.
    let pw = w + (w & 1);
    let mut mags = vec![0u32; pw * (h + (h & 1))];
    let mut bytes = vec![0u8; w * h];
    let rows = mags.chunks_exact_mut(pw).zip(bytes.chunks_exact_mut(w));
    for ((row, out), src) in rows.zip(data.chunks_exact(w)) {
        for ((m, b), &v) in row.iter_mut().zip(out).zip(src) {
            *m = v.unsigned_abs();
            *b = raw_byte(v);
        }
    }

    // The raw refinement passes, one SigProp + MagRef pair per plane
    // below the cleanup floor, sized first so that the cleanup segment's
    // buffer has room for them and packing them later allocates nothing.
    let raw = RawPasses {
        samples: bytes,
        planes: p_cup,
    };
    let (sizes, planes) = (raw.sizes(), usize::from(p_cup));
    let raw_len = sizes[..planes]
        .iter()
        .flatten()
        .map(|&(len, _, _)| len)
        .sum();

    let (seg, dist, symbols) = cleanup_enc(data, &mags, (w, pw), p_cup, raw_len);
    let len = seg.len();
    blk.data = seg;
    push_pass(&mut blk, PassType::Cleanup, p_cup, len, dist, symbols);
    for (plane, [sig_prop, mag_ref]) in sizes.into_iter().enumerate().take(planes).rev() {
        let (len, dist, symbols) = sig_prop;
        push_pass(&mut blk, PassType::SigProp, plane as u8, len, dist, symbols);
        let (len, dist, symbols) = mag_ref;
        push_pass(&mut blk, PassType::MagRef, plane as u8, len, dist, symbols);
    }
    (blk, raw)
}

/// Append a pass of `len` bytes, its distortion reduction and symbol
/// count to the block's bookkeeping.
fn push_pass(blk: &mut EncodedBlock, pt: PassType, plane: u8, len: usize, dist: f64, symbols: u64) {
    let end = blk.pass_ends.last().map_or(0, |&e| e) + len;
    blk.pass_ends.push(end);
    blk.passes.push(PassInfo {
        pass_type: pt,
        plane,
        rate_bytes: end,
        dist_reduction: dist,
        symbols,
    });
}

/// Quad significance of the row above and the current row, each padded
/// by one quad on both sides. A quad's context is 1 when any
/// already-coded neighbor quad (left, above-left, above, above-right)
/// held a significant sample: significance clusters, and the split keeps
/// MEL events rare-ish and lets the VLC tables specialize.
struct QuadRows {
    above: Vec<u8>,
    cur: Vec<u8>,
}

impl QuadRows {
    fn new(qw: usize) -> Self {
        QuadRows {
            above: vec![0; qw + 2],
            cur: vec![0; qw + 2],
        }
    }

    /// Context of quad `qx` in the current row.
    #[inline]
    fn ctx(&self, qx: usize) -> usize {
        usize::from(self.cur[qx] | self.above[qx] | self.above[qx + 1] | self.above[qx + 2] != 0)
    }

    /// Record whether quad `qx` of the current row is significant.
    #[inline]
    fn set(&mut self, qx: usize, sig: bool) {
        self.cur[qx + 1] = u8::from(sig);
    }

    /// The current row becomes the row above.
    fn next_row(&mut self) {
        std::mem::swap(&mut self.above, &mut self.cur);
    }
}

/// The cleanup pass over the padded magnitudes (`pw` wide), one row of
/// quads at a time. A quad's samples go in scan order (0,0), (1,0),
/// (0,1), (1,1). The segment's buffer has room for `reserve` more bytes.
fn cleanup_enc(
    data: &[i32],
    mags: &[u32],
    (w, pw): (usize, usize),
    p_cup: u8,
    reserve: usize,
) -> (Vec<u8>, f64, u64) {
    let mut rows = QuadRows::new(pw / 2);
    let mut mel = MelEncoder::new();
    let mut vlc = BitWriter::new();
    let mut ms = BitWriter::new();
    let tabs = tables();
    let floor = u32::from(p_cup);
    let mut dist = 0.0f64;
    let mut symbols = 0u64;

    for (qy, pair) in mags.chunks_exact(2 * pw).enumerate() {
        let (r0, r1) = pair.split_at(pw);
        for (qx, (t, b)) in r0.chunks_exact(2).zip(r1.chunks_exact(2)).enumerate() {
            symbols += 1;
            // The quad's magnitudes above the cleanup floor and their
            // significance pattern.
            let m = [t[0] >> floor, t[1] >> floor, b[0] >> floor, b[1] >> floor];
            let rho = m
                .iter()
                .enumerate()
                .fold(0u8, |rho, (i, &v)| rho | u8::from(v != 0) << i);
            let ctx = rows.ctx(qx);
            rows.set(qx, rho != 0);
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
            // Exponents (bit lengths), 0 for an insignificant sample.
            let es = m.map(|v| 32 - v.leading_zeros());
            let u_q = es.into_iter().max().unwrap();
            put_gamma(&mut vlc, u_q);
            for &e in es.iter().filter(|&&e| e != 0) {
                put_unary(&mut vlc, u_q - e);
            }
            for (i, &e) in es.iter().enumerate() {
                if e == 0 {
                    continue;
                }
                let (x, y) = (2 * qx + (i & 1), 2 * qy + (i >> 1));
                let sign = u32::from(data[y * w + x] < 0);
                // The sign, then the `e - 1` magnitude bits below the
                // implicit leading one.
                let lead = 1u32 << (e - 1);
                ms.put_bits((sign << (e - 1)) | (m[i] ^ lead), e);
                symbols += 1;
                // PCRD estimate: becoming significant at the sample's top
                // plane, then one refinement per coded plane down to the
                // cleanup floor.
                let top = (e + floor - 1) as usize;
                dist += D_SIG[top];
                for d in &D_REF[p_cup as usize..top] {
                    dist += d;
                }
            }
        }
        rows.next_row();
    }

    let mel_bytes = mel.finish();
    let vlc_bytes = vlc.finish();
    let ms_bytes = ms.finish();
    assert!(mel_bytes.len() <= u16::MAX as usize && vlc_bytes.len() <= u16::MAX as usize);
    let mut seg =
        Vec::with_capacity(4 + mel_bytes.len() + vlc_bytes.len() + ms_bytes.len() + reserve);
    seg.extend_from_slice(&(mel_bytes.len() as u16).to_le_bytes());
    seg.extend_from_slice(&(vlc_bytes.len() as u16).to_le_bytes());
    seg.extend_from_slice(&mel_bytes);
    seg.extend_from_slice(&vlc_bytes);
    seg.extend_from_slice(&ms_bytes);
    (seg, dist, symbols)
}

/// One sample's raw-pass byte: its magnitude's bits 0 and 1, its sign
/// (bit 2), and whether its magnitude reaches plane 2 (bit 3). That is
/// all the raw passes of planes 0 and 1 read.
#[inline]
fn raw_byte(v: i32) -> u8 {
    let m = v.unsigned_abs();
    (m & 3) as u8 | u8::from(v < 0) << 2 | u8::from(m > 3) << 3
}

/// The raw refinement passes of a block that [`size_block`] sized but did
/// not pack: one byte per sample (see `raw_byte`) and the number of
/// planes below the cleanup floor.
pub struct RawPasses {
    samples: Vec<u8>,
    planes: u8,
}

impl RawPasses {
    /// The raw passes of planes 0 and 1, `[plane][SigProp, MagRef]`, as
    /// (bytes, distortion reduction, symbols), from counts alone.
    ///
    /// At each plane, SigProp codes one bit for every sample with no coded
    /// bit above the plane, plus its sign after a one; MagRef codes one
    /// bit for every other sample. A segment is its bits padded to whole
    /// bytes. Every term of a pass's distortion estimate is the same, 2^k
    /// or 9·2^k, so count × term is the exact sum.
    fn sizes(&self) -> [[(usize, f64, u64); 2]; 2] {
        // Samples of magnitude 1, of at least 2 and of at least 4.
        let (mut ones, mut twos, mut fours) = (0u32, 0u32, 0u32);
        for &b in &self.samples {
            ones += u32::from(b & 0b1011 == 1);
            twos += u32::from(b & 0b1010 != 0);
            fours += u32::from(b >> 3);
        }
        let samples = self.samples.len() as u64;
        let pass = |p: usize, sig: u32, hits: u32| {
            let (sig, hits) = (u64::from(sig), u64::from(hits));
            let insig = samples - sig;
            let bytes = |bits: u64| bits.div_ceil(8) as usize;
            [
                (bytes(insig + hits), hits as f64 * D_SIG[p], insig),
                (bytes(sig), sig as f64 * D_REF[p], sig),
            ]
        };
        [pass(0, twos, ones), pass(1, fours, twos - fours)]
    }

    /// Append the raw passes' segments to `blk`, the block [`size_block`]
    /// returned with these passes, making it [`encode_block`]'s. The
    /// buffer [`size_block`] made has room for them, so packing allocates
    /// and frees nothing, wherever it runs.
    pub fn pack(&self, blk: &mut EncodedBlock) {
        let total = blk.bytes_for_passes(blk.passes.len());
        let mut data = std::mem::take(&mut blk.data);
        for plane in (0..self.planes).rev() {
            // Whether a sample has a bit above `plane`.
            let above = move |b: u32| match plane {
                0 => u32::from(b & 0b1010 != 0),
                _ => b >> 3,
            };
            let bit = move |b: u32| (b >> plane) & 1;
            // SigProp: a bit for each sample with none above, and its
            // sign (byte bit 2) after a one.
            data = put_pass(data, &self.samples, |b| {
                let hit = bit(b) & (above(b) ^ 1);
                ((hit << 1) | (hit & (b >> 2)), (above(b) ^ 1) + hit)
            });
            // MagRef: a bit for each other sample.
            data = put_pass(data, &self.samples, |b| (bit(b) & above(b), above(b)));
        }
        blk.data = data;
        assert_eq!(blk.data.len(), total, "packed raw passes match their sizes");
    }
}

/// Append one raw pass to `data`: each sample's `code(byte)`, a value of
/// at most 2 bits and its length, MSB first, padded to a whole byte.
/// Codes are gathered 16 samples (at most 32 bits) to a word by shifts
/// rather than branches: random low-plane bits defeat a branch predictor.
fn put_pass(data: Vec<u8>, samples: &[u8], code: impl Fn(u32) -> (u32, u32)) -> Vec<u8> {
    let mut w = BitWriter::appending(data);
    for chunk in samples.chunks(16) {
        let (mut word, mut len) = (0u32, 0u32);
        for &b in chunk {
            let (v, k) = code(u32::from(b));
            word = (word << k) | v;
            len += k;
        }
        w.put_bits(word, len);
    }
    w.finish()
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
    if num_planes > 32 {
        // No `i32` block has more, and the exponent codes assume it.
        return Err(HtError::Malformed(format!(
            "{num_planes} bit planes exceed 32"
        )));
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
    Ok(mags
        .iter()
        .zip(&neg)
        .map(|(&m, &neg)| {
            if m == 0 {
                0
            } else {
                let v = (m + half) as i32;
                if neg {
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
    let budget = u32::from(num_planes - p_cup);

    let (qw, qh) = (w.div_ceil(2), h.div_ceil(2));
    let mut rows = QuadRows::new(qw);
    for qy in 0..qh {
        // Scan-order bits of the quad samples that lie inside the block.
        let in_rows = if 2 * qy + 1 < h { 0b1111 } else { 0b0011 };
        for qx in 0..qw {
            if let Some(msg) = faultsim::eval("ht.quad") {
                return Err(HtError::Injected(msg));
            }
            let ctx = rows.ctx(qx);
            rows.set(qx, false);
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
            rows.set(qx, true);
            let u_q =
                get_gamma(&mut vlc).ok_or_else(|| HtError::Malformed("bad u_q gamma".into()))?;
            if u_q > budget {
                return Err(HtError::Malformed(format!(
                    "quad exponent {u_q} exceeds plane budget {budget}"
                )));
            }
            let inside = in_rows & if 2 * qx + 1 < w { 0b1111 } else { 0b0101 };
            for i in 0..4 {
                if rho & (1 << i) == 0 {
                    continue;
                }
                if inside & (1 << i) == 0 {
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
                // The sign, then the `e - 1` magnitude bits below the
                // implicit leading one.
                let e = u_q - r;
                let word = ms.bits(e);
                let lead = 1u32 << (e - 1);
                let at = (2 * qy + (i >> 1)) * w + 2 * qx + (i & 1);
                mags[at] = (lead | (word & (lead - 1))) << p_cup;
                neg[at] = word & lead != 0;
            }
        }
        rows.next_row();
    }
    Ok(())
}

/// Raw significance pass at `plane`: a bit for each sample with no bit
/// above `plane`, and a sign after each one. Such a sample has no sign
/// yet, so the sign can be or-ed in.
fn sig_prop_dec(seg: &[u8], plane: u8, mags: &mut [u32], neg: &mut [bool]) {
    let mut r = BitReader::new(seg);
    for (m, s) in mags.iter_mut().zip(neg.iter_mut()) {
        let insig = u32::from(*m >> (plane + 1) == 0);
        let two = r.peek(2);
        let hit = insig & (two >> 1);
        r.skip(insig + hit);
        *m |= hit << plane;
        *s |= hit & two & 1 == 1;
    }
}

/// Raw refinement pass at `plane`: a bit for each sample with a bit
/// above `plane`.
fn mag_ref_dec(seg: &[u8], plane: u8, mags: &mut [u32]) {
    let mut r = BitReader::new(seg);
    for m in mags.iter_mut() {
        let sig = u32::from(*m >> (plane + 1) != 0);
        *m |= (r.peek(1) & sig) << plane;
        r.skip(sig);
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

    /// Decode hostile input: `Ok` with a whole block or a typed error.
    /// A panic fails the test; a loop would hang it.
    fn decode_hostile(data: &[u8], pass_ends: &[usize], n: usize, w: usize, h: usize, planes: u8) {
        if let Ok(v) = decode_block(data, pass_ends, n, w, h, planes, false) {
            assert_eq!(v.len(), w * h);
        }
    }

    #[test]
    fn corrupt_streams_error_or_decode_never_panic() {
        let mut rng = StdRng::seed_from_u64(11);
        let small: Vec<i32> = (0..13 * 7).map(|_| rng.gen_range(-900i32..=900)).collect();
        let sparse: Vec<i32> = (0..64 * 64)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    rng.gen_range(-100_000i32..=100_000)
                } else {
                    0
                }
            })
            .collect();
        // Every bit length up to 31 planes, both signs.
        let deep: Vec<i32> = (0..64 * 64)
            .map(|_| {
                let top = 1i32 << rng.gen_range(0..31u32);
                let m = top | rng.gen_range(0..top);
                if rng.gen_bool(0.5) {
                    m
                } else {
                    -m
                }
            })
            .collect();
        for (data, w, h) in [(&small, 13, 7), (&sparse, 64, 64), (&deep, 64, 64)] {
            let enc = encode_block(data, w, h);
            let (n, planes) = (enc.passes.len(), enc.num_planes);
            // Single bit flips anywhere in the block's bytes.
            for _ in 0..500 {
                let mut d = enc.data.clone();
                let i = rng.gen_range(0..d.len());
                d[i] ^= 1 << rng.gen_range(0..8u32);
                decode_hostile(&d, &enc.pass_ends, n, w, h, planes);
            }
            // Shortened pass ends: one end pulled back, or the list cut short.
            for _ in 0..100 {
                let mut ends = enc.pass_ends.clone();
                let k = rng.gen_range(0..ends.len());
                ends[k] = rng.gen_range(0..=ends[k]);
                decode_hostile(&enc.data, &ends, n, w, h, planes);
            }
            for keep in 0..n {
                decode_hostile(&enc.data, &enc.pass_ends[..keep], n, w, h, planes);
            }
            // Wrong `mel_len` / `vlc_len` header words in the cleanup segment.
            let cup_len = enc.pass_ends[0] as i64;
            for word in [0usize, 2] {
                let real = i64::from(u16::from_le_bytes([enc.data[word], enc.data[word + 1]]));
                let mut lens = vec![0, 1, real - 1, real + 1, cup_len - 4, cup_len, 0xffff];
                lens.extend((0..20).map(|_| rng.gen_range(0..=cup_len)));
                for len in lens
                    .into_iter()
                    .filter(|&l| l != real && (0..=0xffff).contains(&l))
                {
                    let mut d = enc.data.clone();
                    d[word..word + 2].copy_from_slice(&(len as u16).to_le_bytes());
                    decode_hostile(&d, &enc.pass_ends, n, w, h, planes);
                }
            }
            // More planes than an `i32` block can have.
            for bad in [33u8, 40, 255] {
                assert!(decode_block(&enc.data, &enc.pass_ends, n, w, h, bad, false).is_err());
            }
            // Segments of all 0x00 and all 0xFF, at the real pass ends and
            // as one cleanup segment of several lengths.
            for fill in [0x00u8, 0xff] {
                decode_hostile(&vec![fill; enc.data.len()], &enc.pass_ends, n, w, h, planes);
                for len in [0usize, 1, 4, 5, 8, 64, 4096] {
                    decode_hostile(&vec![fill; len], &[len], 1, w, h, planes);
                }
            }
        }
    }

    /// The raw SigProp and MagRef passes of `plane`, packed one bit at a
    /// time straight from the samples, with their distortion reductions
    /// summed term by term: the reference for the sizes and the packer.
    fn raw_reference(data: &[i32], plane: usize) -> [(Vec<u8>, f64, u64); 2] {
        let (mut sp, mut mr) = (BitWriter::new(), BitWriter::new());
        let (mut sp_dist, mut mr_dist, mut insig, mut sig) = (0.0, 0.0, 0, 0);
        for &v in data {
            let m = v.unsigned_abs();
            let bit = (m >> plane) & 1;
            if m >> (plane + 1) != 0 {
                mr.put_bits(bit, 1);
                mr_dist += D_REF[plane];
                sig += 1;
            } else {
                sp.put_bits(bit, 1);
                insig += 1;
                if bit == 1 {
                    sp.put_bits(u32::from(v < 0), 1);
                    sp_dist += D_SIG[plane];
                }
            }
        }
        [(sp.finish(), sp_dist, insig), (mr.finish(), mr_dist, sig)]
    }

    /// A random `w`×`h` block whose magnitudes take exactly `planes` bit
    /// planes: each sample's bit length is uniform in `0..=planes`, so
    /// small magnitudes (the raw passes' hits) are common at any depth.
    fn block_of_depth(rng: &mut StdRng, w: usize, h: usize, planes: u32) -> Vec<i32> {
        let mut data: Vec<i32> = (0..w * h)
            .map(|_| {
                let len = rng.gen_range(0..=planes);
                let m = if len == 0 {
                    0
                } else {
                    let top = 1i32 << (len - 1);
                    top | rng.gen_range(0..top)
                };
                if rng.gen_bool(0.5) {
                    m
                } else {
                    -m
                }
            })
            .collect();
        if planes > 0 {
            let top = 1i32 << (planes - 1);
            data[rng.gen_range(0..w * h)] = -(top | rng.gen_range(0..top));
        }
        data
    }

    #[test]
    fn sized_blocks_pack_into_the_reference_passes() {
        let mut rng = StdRng::seed_from_u64(27);
        for (w, h) in [(1, 1), (1, 7), (5, 1), (3, 5), (17, 9), (33, 63), (64, 64)] {
            for planes in 0..=31u32 {
                let data = block_of_depth(&mut rng, w, h, planes);
                let what = format!("{w}x{h}, {planes} planes");
                let enc = encode_block(&data, w, h);
                let (sized, raw) = size_block(&data, w, h);
                assert_eq!(u32::from(sized.num_planes), planes, "{what}");
                assert_eq!((sized.w, sized.h), (w, h), "{what}");
                assert_eq!(sized.num_planes, enc.num_planes, "{what}");
                assert_eq!(sized.pass_ends, enc.pass_ends, "{what}");
                assert_eq!(sized.passes.len(), enc.passes.len(), "{what}");
                for (s, e) in sized.passes.iter().zip(&enc.passes) {
                    assert_eq!(
                        (s.pass_type, s.plane, s.rate_bytes, s.symbols),
                        (e.pass_type, e.plane, e.rate_bytes, e.symbols),
                        "{what}"
                    );
                    assert_eq!(
                        s.dist_reduction.to_bits(),
                        e.dist_reduction.to_bits(),
                        "{what}"
                    );
                }
                // Sized data is the cleanup segment alone, and packing the
                // per-sample bytes completes it into `encode_block`'s.
                let cleanup = enc.pass_ends.first().map_or(0, |&e| e);
                assert_eq!(sized.data, enc.data[..cleanup], "{what}");
                let mut packed = sized;
                raw.pack(&mut packed);
                assert_eq!(packed.data, enc.data, "{what}");

                // Every raw pass against the bit-at-a-time reference.
                let p_cup = cup_plane(planes as u8);
                let mut want = enc.data[..cleanup].to_vec();
                let mut k = 1;
                for plane in (0..usize::from(p_cup)).rev() {
                    for (seg, dist, symbols) in raw_reference(&data, plane) {
                        want.extend_from_slice(&seg);
                        let pass = &enc.passes[k];
                        assert_eq!(pass.plane as usize, plane, "{what}");
                        assert_eq!(enc.pass_ends[k], want.len(), "{what} pass {k}");
                        assert_eq!(pass.symbols, symbols, "{what} pass {k}");
                        assert_eq!(
                            pass.dist_reduction.to_bits(),
                            dist.to_bits(),
                            "{what} pass {k}"
                        );
                        k += 1;
                    }
                }
                assert_eq!(k, enc.passes.len().max(1), "{what}");
                assert_eq!(enc.data, want, "{what}");
                roundtrip_exact(&data, w, h);
            }
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
