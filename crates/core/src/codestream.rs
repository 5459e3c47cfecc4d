//! Codestream syntax: markers, packet sequencing, and parsing.
//!
//! The layout follows JPEG2000 Part 1 Annex A: `SOC`, `SIZ`, `COD`, `QCD`,
//! a `COM` (carrying this implementation's 9/7-arithmetic tag), one tile
//! (`SOT` … `SOD` … packets … ) and `EOC`. Documented simplifications
//! (internally consistent between writer and parser):
//!
//! * one tile, one precinct per subband, and one packet per
//!   (layer, component, subband) in layer → component → subband order
//!   (subbands in [`wavelet::subbands`] order, deepest LL first);
//! * packet headers are byte-aligned per packet (bit-stuffed as in the
//!   standard);
//! * every coding pass is an MQ-terminated segment (signalled in COD's
//!   code-block style as the standard TERMALL bit).

use crate::coder::Coder;
use crate::quant::{StepSize, GUARD_BITS};
use crate::{Arithmetic, CodecError};
use ebcot::header::{decode_packet, encode_packet, Contribution, PrecinctState};
use wavelet::{subbands, Subband};

/// Start of codestream.
pub const SOC: u16 = 0xFF4F;
/// Image and tile size.
pub const SIZ: u16 = 0xFF51;
/// Coding style default.
pub const COD: u16 = 0xFF52;
/// Quantization default.
pub const QCD: u16 = 0xFF5C;
/// Comment (carries the arithmetic tag).
pub const COM: u16 = 0xFF64;
/// Start of tile-part.
pub const SOT: u16 = 0xFF90;
/// Start of data.
pub const SOD: u16 = 0xFF93;
/// End of codestream.
pub const EOC: u16 = 0xFFD9;

/// Everything the decoder needs from the main header.
#[derive(Debug, Clone, PartialEq)]
pub struct MainHeader {
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Component count.
    pub comps: usize,
    /// Bits per sample.
    pub depth: u8,
    /// DWT levels.
    pub levels: usize,
    /// Quality layers.
    pub layers: usize,
    /// Code block size.
    pub cb_size: usize,
    /// Reversible (5/3 + RCT) path?
    pub lossless: bool,
    /// Multi-component transform used?
    pub mct: bool,
    /// 9/7 arithmetic representation.
    pub arithmetic: Arithmetic,
    /// Selective arithmetic-coding bypass enabled?
    pub bypass: bool,
    /// Tier-1 block coder backend (signalled in the COD style byte).
    pub coder: Coder,
    /// Guard bits.
    pub guard: u8,
    /// Per-subband quantization: exponents (lossless) or step sizes
    /// (lossy), in [`wavelet::subbands`] order.
    pub quant: Quant,
}

/// Quantization signalling.
#[derive(Debug, Clone, PartialEq)]
pub enum Quant {
    /// Reversible: per-band exponents (Annex E style 0).
    Reversible(Vec<u8>),
    /// Irreversible: per-band step sizes (Annex E style 2).
    Scalar(Vec<StepSize>),
}

impl MainHeader {
    /// Maximum magnitude bit planes of band `idx` (M_b = guard + eps - 1).
    pub fn max_planes(&self, idx: usize) -> u8 {
        let eps = match &self.quant {
            Quant::Reversible(exps) => exps[idx],
            Quant::Scalar(steps) => steps[idx].exponent,
        };
        self.guard + eps - 1
    }

    /// Subband geometry of each component's transformed plane.
    pub fn bands(&self) -> Vec<Subband> {
        subbands(self.width, self.height, self.levels)
    }
}

/// One code block's full Tier-1 output, ready for packetization.
#[derive(Debug, Clone)]
pub struct BlockStream {
    /// Component.
    pub comp: usize,
    /// Index into the [`MainHeader::bands`] list.
    pub band_idx: usize,
    /// Block grid position within the band.
    pub bx: usize,
    /// See `bx`.
    pub by: usize,
    /// Missing (all-zero) bit planes: `M_b - num_planes`.
    pub zero_planes: u32,
    /// Cumulative passes included per layer (non-decreasing).
    pub layer_passes: Vec<usize>,
    /// Byte length of each pass segment.
    pub pass_lens: Vec<usize>,
    /// All pass segments, concatenated.
    pub data: Vec<u8>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Number of code blocks along one axis of extent `n`.
fn grid(n: usize, cb: usize) -> usize {
    n.div_ceil(cb)
}

/// Serialize the complete codestream. Panics only if a `tier2.precinct`
/// fault is injected while calling this infallible entry point directly —
/// the encoder, which enables failpoints, goes through `try_write`.
pub fn write(hdr: &MainHeader, blocks: &[BlockStream]) -> Vec<u8> {
    try_write(hdr, blocks).expect("infallible without injected faults")
}

/// Serialize the complete codestream. The only error is an injected
/// `tier2.precinct` fault (one evaluation per (component, subband) unit).
pub(crate) fn try_write(hdr: &MainHeader, blocks: &[BlockStream]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    put_u16(&mut out, SOC);

    // SIZ
    put_u16(&mut out, SIZ);
    let lsiz = 38 + 3 * hdr.comps;
    put_u16(&mut out, lsiz as u16);
    put_u16(&mut out, 0); // Rsiz
    put_u32(&mut out, hdr.width as u32);
    put_u32(&mut out, hdr.height as u32);
    put_u32(&mut out, 0); // XOsiz
    put_u32(&mut out, 0); // YOsiz
    put_u32(&mut out, hdr.width as u32); // XTsiz
    put_u32(&mut out, hdr.height as u32); // YTsiz
    put_u32(&mut out, 0); // XTOsiz
    put_u32(&mut out, 0); // YTOsiz
    put_u16(&mut out, hdr.comps as u16);
    for _ in 0..hdr.comps {
        out.push(hdr.depth - 1); // Ssiz: unsigned, depth bits
        out.push(1); // XRsiz
        out.push(1); // YRsiz
    }

    // COD
    put_u16(&mut out, COD);
    put_u16(&mut out, 12);
    out.push(0); // Scod: default precincts, no SOP/EPH
    out.push(0); // progression: LRCP
    put_u16(&mut out, hdr.layers as u16);
    out.push(u8::from(hdr.mct));
    out.push(hdr.levels as u8);
    let cb_exp = hdr.cb_size.trailing_zeros() as u8 - 2;
    out.push(cb_exp); // code block width exponent - 2
    out.push(cb_exp); // height
                      // Code block style: terminate on each pass (TERMALL), plus the
                      // selective-bypass bit when enabled; bit 6 selects the
                      // HT block coder (Part 15's SPcod HT flag position).
    out.push(0x04 | u8::from(hdr.bypass) | ((hdr.coder == Coder::Ht) as u8) << 6);
    out.push(u8::from(hdr.lossless)); // transform: 1 = 5/3, 0 = 9/7

    // QCD
    put_u16(&mut out, QCD);
    match &hdr.quant {
        Quant::Reversible(exps) => {
            put_u16(&mut out, (3 + exps.len()) as u16);
            out.push(hdr.guard << 5); // style 0: no quantization
            for &e in exps {
                out.push(e << 3);
            }
        }
        Quant::Scalar(steps) => {
            put_u16(&mut out, (3 + 2 * steps.len()) as u16);
            out.push((hdr.guard << 5) | 2); // style 2: scalar expounded
            for s in steps {
                put_u16(&mut out, s.pack());
            }
        }
    }

    // COM: records the 9/7 arithmetic representation (private tag).
    put_u16(&mut out, COM);
    let tag: &[u8] = match hdr.arithmetic {
        Arithmetic::Float32 => b"arith=f32",
        Arithmetic::FixedQ13 => b"arith=q13",
    };
    put_u16(&mut out, (4 + tag.len()) as u16);
    put_u16(&mut out, 1); // Rcom: general use, latin-1
    out.extend_from_slice(tag);

    // Tile part.
    put_u16(&mut out, SOT);
    put_u16(&mut out, 10);
    put_u16(&mut out, 0); // Isot
    let psot_pos = out.len();
    put_u32(&mut out, 0); // Psot patched below
    out.push(0); // TPsot
    out.push(1); // TNsot
    put_u16(&mut out, SOD);

    // Packets: each (component, subband) unit owns one precinct state
    // chain across layers, emitted in the codestream's layer → component →
    // subband order. Grouping the blocks per unit up front avoids a scan
    // over the whole block list per layer and band.
    let bands = hdr.bands();
    let mut unit_blocks: Vec<Vec<&BlockStream>> = vec![Vec::new(); hdr.comps * bands.len()];
    for blk in blocks {
        unit_blocks[blk.comp * bands.len() + blk.band_idx].push(blk);
    }
    let mut states = Vec::with_capacity(unit_blocks.len());
    for (u, unit) in unit_blocks.iter().enumerate() {
        // Failpoint `tier2.precinct`: fires once per (comp, band) unit.
        if let Some(msg) = faultsim::eval("tier2.precinct") {
            return Err(msg);
        }
        let b = &bands[u % bands.len()];
        let (gw, gh) = (grid(b.w, hdr.cb_size), grid(b.h, hdr.cb_size));
        let mut state = PrecinctState::new(gw, gh);
        let mut first = vec![u32::MAX; gw * gh];
        let mut zbp = vec![0u32; gw * gh];
        for blk in unit {
            let i = blk.by * gw + blk.bx;
            zbp[i] = blk.zero_planes;
            first[i] = blk
                .layer_passes
                .iter()
                .position(|&p| p > 0)
                .map(|l| l as u32)
                .unwrap_or(u32::MAX);
        }
        state.set_encoder_values(&first, &zbp);
        states.push(state);
    }
    for layer in 0..hdr.layers {
        for (state, unit) in states.iter_mut().zip(&unit_blocks) {
            let gw = state.cbw;
            let mut contribs = vec![Contribution::default(); gw * state.cbh];
            let mut body: Vec<u8> = Vec::new();
            for blk in unit {
                let prev = if layer == 0 {
                    0
                } else {
                    blk.layer_passes[layer - 1]
                };
                let cur = blk.layer_passes[layer];
                if cur > prev {
                    let lens = blk.pass_lens[prev..cur].to_vec();
                    let start: usize = blk.pass_lens[..prev].iter().sum();
                    let len: usize = lens.iter().sum();
                    contribs[blk.by * gw + blk.bx] = Contribution {
                        num_passes: cur - prev,
                        pass_lens: lens,
                        zero_planes: blk.zero_planes,
                    };
                    body.extend_from_slice(&blk.data[start..start + len]);
                }
            }
            out.extend_from_slice(&encode_packet(state, layer as u32, &contribs));
            out.extend_from_slice(&body);
        }
    }

    // Psot: from the first byte of the SOT marker (6 bytes before the
    // Psot field) to the end of the tile data.
    let psot = (out.len() - (psot_pos - 6)) as u32;
    out[psot_pos..psot_pos + 4].copy_from_slice(&psot.to_be_bytes());
    put_u16(&mut out, EOC);
    Ok(out)
}

struct Reader<'a> {
    d: &'a [u8],
    p: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let v = *self
            .d
            .get(self.p)
            .ok_or_else(|| CodecError::Codestream("unexpected end".into()))?;
        self.p += 1;
        Ok(v)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(((self.u8()? as u16) << 8) | self.u8()? as u16)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(((self.u16()? as u32) << 16) | self.u16()? as u32)
    }

    fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        if self.p + n > self.d.len() {
            return Err(CodecError::Codestream("truncated segment".into()));
        }
        self.p += n;
        Ok(())
    }
}

/// Parsed codestream: header plus recovered per-block streams.
#[derive(Debug)]
pub struct Parsed {
    /// Main header fields.
    pub header: MainHeader,
    /// Recovered blocks (only those that contributed at least one pass).
    pub blocks: Vec<BlockStream>,
}

/// Parse a codestream produced by [`write()`]. Strict: any truncation or
/// corruption anywhere in the packet stream is an error.
pub fn parse(data: &[u8]) -> Result<Parsed, CodecError> {
    parse_opts(data, false).map(|(p, _)| p)
}

/// Best-effort prefix parse for truncated or damaged streams: the main
/// header must be intact (typed error otherwise), but the packet walk
/// stops at the first packet that is truncated or fails to decode, and
/// only **whole layers** are committed — a packet body cut mid-stream
/// never leaks half a layer into the result. Returns the parse plus the
/// number of complete layers recovered (0 ⇒ header-only: the decoder
/// reconstructs the flat level-shift midpoint image).
///
/// This is what makes the fuzz corpus semantically checkable: a
/// progressive stream cut at byte N either yields a degraded-but-
/// measurable image or a typed [`CodecError`], never a panic and never
/// garbage-without-signal.
pub fn parse_prefix(data: &[u8]) -> Result<(Parsed, usize), CodecError> {
    parse_opts(data, true)
}

/// Read a marker segment's length field, which counts itself and the
/// fixed fields after it: below `min`, the variable part would underflow.
fn segment_len(r: &mut Reader<'_>, marker: &str, min: usize) -> Result<usize, CodecError> {
    let l = r.u16()? as usize;
    let short = || CodecError::Codestream(format!("{marker} length {l} below {min}"));
    (l >= min).then_some(l).ok_or_else(short)
}

/// Read and validate the main header: every marker segment from `SOC`
/// through the tile's `SOD`. Returns the header and the offset of the
/// first packet. Nothing it allocates grows with the declared image, so
/// a caller can refuse a stream by its geometry before any precinct
/// state or plane exists; [`parse`] and [`parse_prefix`] start here.
pub fn read_header(data: &[u8]) -> Result<(MainHeader, usize), CodecError> {
    let mut r = Reader { d: data, p: 0 };
    if r.u16()? != SOC {
        return Err(CodecError::Codestream("missing SOC".into()));
    }
    let mut width = 0usize;
    let mut height = 0usize;
    let mut comps = 0usize;
    let mut depth = 0u8;
    let mut levels = 0usize;
    let mut layers = 0usize;
    let mut cb_size = 0usize;
    let mut lossless = false;
    let mut mct = false;
    let mut arithmetic = Arithmetic::Float32;
    let mut bypass = false;
    let mut coder = Coder::Mq;
    let mut guard = GUARD_BITS;
    let mut quant: Option<Quant> = None;

    loop {
        let marker = r.u16()?;
        match marker {
            SIZ => {
                let _l = r.u16()?;
                let _rsiz = r.u16()?;
                width = r.u32()? as usize;
                height = r.u32()? as usize;
                r.skip(8)?; // offsets
                let _xt = r.u32()?;
                let _yt = r.u32()?;
                r.skip(8)?; // tile offsets
                comps = r.u16()? as usize;
                for c in 0..comps {
                    let ssiz = r.u8()?;
                    if c == 0 {
                        depth = ssiz + 1;
                    }
                    r.skip(2)?;
                }
            }
            COD => {
                let _l = r.u16()?;
                let _scod = r.u8()?;
                let _prog = r.u8()?;
                layers = r.u16()? as usize;
                mct = r.u8()? != 0;
                levels = r.u8()? as usize;
                let cbw = r.u8()?;
                let _cbh = r.u8()?;
                if cbw > 4 {
                    return Err(CodecError::Codestream(format!(
                        "code block exponent {cbw} out of range"
                    )));
                }
                cb_size = 1usize << (cbw + 2);
                let style = r.u8()?;
                bypass = style & 0x01 != 0;
                coder = if style & 0x40 != 0 {
                    Coder::Ht
                } else {
                    Coder::Mq
                };
                lossless = r.u8()? != 0;
            }
            QCD => {
                let l = segment_len(&mut r, "QCD", 3)?;
                let sqcd = r.u8()?;
                guard = sqcd >> 5;
                let style = sqcd & 0x1F;
                if style == 0 {
                    let n = l - 3;
                    let mut exps = Vec::with_capacity(n);
                    for _ in 0..n {
                        exps.push(r.u8()? >> 3);
                    }
                    quant = Some(Quant::Reversible(exps));
                } else {
                    let n = (l - 3) / 2;
                    let mut steps = Vec::with_capacity(n);
                    for _ in 0..n {
                        steps.push(StepSize::unpack(r.u16()?));
                    }
                    quant = Some(Quant::Scalar(steps));
                }
            }
            COM => {
                let l = segment_len(&mut r, "COM", 4)?;
                let _rcom = r.u16()?;
                let start = r.p;
                r.skip(l - 4)?;
                let tag = &data[start..r.p];
                if tag == b"arith=q13" {
                    arithmetic = Arithmetic::FixedQ13;
                }
            }
            SOT => {
                r.skip(10)?;
                if r.u16()? != SOD {
                    return Err(CodecError::Codestream("expected SOD after SOT".into()));
                }
                break;
            }
            _ => {
                return Err(CodecError::Codestream(format!(
                    "unknown marker {marker:04X}"
                )));
            }
        }
    }

    let header = MainHeader {
        width,
        height,
        comps,
        depth,
        levels,
        layers,
        cb_size,
        lossless,
        mct,
        arithmetic,
        bypass,
        coder,
        guard,
        quant: quant.ok_or_else(|| CodecError::Codestream("missing QCD".into()))?,
    };
    if width == 0 || height == 0 || comps == 0 {
        return Err(CodecError::Codestream("missing or empty SIZ".into()));
    }
    // Bounds that keep a corrupted header from driving shifts or
    // allocations out of range.
    if !(1..=16).contains(&depth) {
        return Err(CodecError::Codestream(format!(
            "depth {depth} out of 1..=16"
        )));
    }
    if levels == 0 || levels > 10 {
        return Err(CodecError::Codestream(format!(
            "levels {levels} out of 1..=10"
        )));
    }
    if layers == 0 || layers > 1024 {
        return Err(CodecError::Codestream(format!(
            "layers {layers} out of range"
        )));
    }
    if comps > 256 {
        return Err(CodecError::Codestream(format!("{comps} components")));
    }
    if width.saturating_mul(height) > (1 << 28) {
        return Err(CodecError::Codestream("image too large".into()));
    }
    let nbands = header.bands().len();
    let quant_len = match &header.quant {
        Quant::Reversible(e) => e.len(),
        Quant::Scalar(st) => st.len(),
    };
    if quant_len < nbands {
        return Err(CodecError::Codestream(format!(
            "QCD has {quant_len} entries for {nbands} bands"
        )));
    }
    // Exponent 0 would underflow M_b = guard + eps - 1.
    let bad_eps = match &header.quant {
        Quant::Reversible(e) => e.contains(&0),
        Quant::Scalar(st) => st.iter().any(|x| x.exponent == 0),
    };
    if bad_eps || header.guard == 0 {
        return Err(CodecError::Codestream(
            "zero quant exponent or guard".into(),
        ));
    }
    Ok((header, r.p))
}

#[allow(clippy::needless_range_loop)] // comp/band indices are semantic
fn parse_opts(data: &[u8], lenient: bool) -> Result<(Parsed, usize), CodecError> {
    let (header, start) = read_header(data)?;
    let mut r = Reader { d: data, p: start };
    let (comps, layers, cb_size) = (header.comps, header.layers, header.cb_size);

    // Packets.
    let bands = header.bands();
    let mut states: Vec<Vec<PrecinctState>> = (0..comps)
        .map(|_| {
            bands
                .iter()
                .map(|b| PrecinctState::new(grid(b.w, cb_size), grid(b.h, cb_size)))
                .collect()
        })
        .collect();
    // blocks keyed by (comp, band, by, bx).
    let mut blocks: std::collections::HashMap<(usize, usize, usize, usize), BlockStream> =
        std::collections::HashMap::new();

    // One contribution a fully-parsed layer hands over for commit: block
    // key, the header-decoded contribution, and the body byte range.
    struct Update {
        key: (usize, usize, usize, usize),
        con: Contribution,
        body: std::ops::Range<usize>,
    }

    let mut complete_layers = 0usize;
    'layers: for layer in 0..layers {
        // Stage the whole layer before touching `blocks`: a packet that
        // dies mid-layer must not leave half a layer committed (the
        // lenient path rolls the stream back to the last whole layer).
        let mut updates: Vec<Update> = Vec::new();
        for c in 0..comps {
            for (bi, b) in bands.iter().enumerate() {
                // Failpoint `decode.packet`: one evaluation per packet,
                // so `@nth` schedules pin any packet in the walk.
                if let Some(msg) = faultsim::eval("decode.packet") {
                    if lenient {
                        break 'layers;
                    }
                    return Err(CodecError::Injected(msg));
                }
                let (gw, gh) = (grid(b.w, cb_size), grid(b.h, cb_size));
                let st = &mut states[c][bi];
                let (contribs, used) = match decode_packet(st, layer as u32, &data[r.p..]) {
                    Ok(v) => v,
                    Err(_) if lenient => break 'layers,
                    Err(e) => return Err(CodecError::Codestream(e.to_string())),
                };
                // A truncated packet header "parses" against the raw
                // decoder's 1-bit end padding and reports more bytes
                // consumed than the stream holds — that is the truncation
                // signal for the lenient walk.
                if lenient && used > data.len() - r.p {
                    break 'layers;
                }
                r.skip(used)?;
                for by in 0..gh {
                    for bx in 0..gw {
                        let con = contribs[by * gw + bx].clone();
                        if con.num_passes == 0 {
                            continue;
                        }
                        let body_len: usize = con.pass_lens.iter().sum();
                        if r.p + body_len > data.len() {
                            if lenient {
                                break 'layers;
                            }
                            return Err(CodecError::Codestream("packet body truncated".into()));
                        }
                        updates.push(Update {
                            key: (c, bi, by, bx),
                            con,
                            body: r.p..r.p + body_len,
                        });
                        r.p += body_len;
                    }
                }
            }
        }
        // Commit: the layer parsed end to end.
        for u in updates {
            let (c, bi, by, bx) = u.key;
            let blk = blocks.entry(u.key).or_insert_with(|| BlockStream {
                comp: c,
                band_idx: bi,
                bx,
                by,
                zero_planes: u.con.zero_planes,
                layer_passes: vec![0; layer],
                pass_lens: Vec::new(),
                data: Vec::new(),
            });
            blk.pass_lens.extend_from_slice(&u.con.pass_lens);
            blk.data.extend_from_slice(&data[u.body]);
            let total: usize = blk.pass_lens.len();
            while blk.layer_passes.len() < layer {
                let last = *blk.layer_passes.last().unwrap_or(&0);
                blk.layer_passes.push(last);
            }
            blk.layer_passes.push(total);
        }
        // Blocks without a contribution this layer still record the
        // layer boundary.
        for blk in blocks.values_mut() {
            let last = *blk.layer_passes.last().unwrap_or(&0);
            while blk.layer_passes.len() <= layer {
                blk.layer_passes.push(last);
            }
        }
        complete_layers = layer + 1;
    }

    let mut blocks: Vec<BlockStream> = blocks.into_values().collect();
    blocks.sort_by_key(|b| (b.comp, b.band_idx, b.by, b.bx));
    Ok((Parsed { header, blocks }, complete_layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(lossless: bool) -> MainHeader {
        let bands = subbands(40, 24, 2);
        MainHeader {
            width: 40,
            height: 24,
            comps: 3,
            depth: 8,
            levels: 2,
            layers: 2,
            cb_size: 16,
            lossless,
            mct: true,
            arithmetic: Arithmetic::Float32,
            bypass: false,
            coder: Coder::Mq,
            guard: GUARD_BITS,
            quant: if lossless {
                Quant::Reversible(bands.iter().map(|b| 8 + b.band.gain_log2()).collect())
            } else {
                Quant::Scalar(
                    bands
                        .iter()
                        .map(|_| StepSize {
                            exponent: 12,
                            mantissa: 300,
                        })
                        .collect(),
                )
            },
        }
    }

    fn sample_blocks() -> Vec<BlockStream> {
        vec![
            BlockStream {
                comp: 0,
                band_idx: 0,
                bx: 0,
                by: 0,
                zero_planes: 2,
                layer_passes: vec![2, 4],
                pass_lens: vec![3, 5, 2, 7],
                data: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
            },
            BlockStream {
                comp: 1,
                band_idx: 4,
                bx: 1,
                by: 0,
                zero_planes: 0,
                layer_passes: vec![0, 1],
                pass_lens: vec![9],
                data: vec![9; 9],
            },
        ]
    }

    #[test]
    fn roundtrip_header_and_blocks_lossless() {
        let hdr = header(true);
        let blocks = sample_blocks();
        let bytes = write(&hdr, &blocks);
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.header, hdr);
        assert_eq!(parsed.blocks.len(), 2);
        let b0 = &parsed.blocks[0];
        assert_eq!(b0.pass_lens, vec![3, 5, 2, 7]);
        assert_eq!(b0.layer_passes, vec![2, 4]);
        assert_eq!(b0.zero_planes, 2);
        assert_eq!(b0.data, sample_blocks()[0].data);
        let b1 = &parsed.blocks[1];
        assert_eq!(b1.layer_passes, vec![0, 1]);
        assert_eq!(b1.data, vec![9; 9]);
    }

    #[test]
    fn roundtrip_lossy_quant() {
        let hdr = header(false);
        let bytes = write(&hdr, &sample_blocks());
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed.header, hdr);
        match parsed.header.quant {
            Quant::Scalar(ref s) => {
                assert_eq!(
                    s[0],
                    StepSize {
                        exponent: 12,
                        mantissa: 300
                    }
                )
            }
            _ => panic!("expected scalar quant"),
        }
    }

    #[test]
    fn arithmetic_tag_roundtrip() {
        let mut hdr = header(false);
        hdr.arithmetic = Arithmetic::FixedQ13;
        let parsed = parse(&write(&hdr, &[])).unwrap();
        assert_eq!(parsed.header.arithmetic, Arithmetic::FixedQ13);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&[0, 1, 2, 3]).is_err());
        assert!(parse(&[]).is_err());
        let hdr = header(true);
        let mut bytes = write(&hdr, &sample_blocks());
        bytes.truncate(bytes.len() / 2);
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn max_planes_derivation() {
        let hdr = header(true);
        // Band 0 (LL): eps = 8 + 0, guard 3 -> M = 10.
        assert_eq!(hdr.max_planes(0), 10);
    }

    #[test]
    fn prefix_parse_of_full_stream_matches_strict() {
        let hdr = header(true);
        let bytes = write(&hdr, &sample_blocks());
        let strict = parse(&bytes).unwrap();
        let (lenient, layers) = parse_prefix(&bytes).unwrap();
        assert_eq!(layers, hdr.layers);
        assert_eq!(lenient.header, strict.header);
        assert_eq!(lenient.blocks.len(), strict.blocks.len());
        for (a, b) in lenient.blocks.iter().zip(&strict.blocks) {
            assert_eq!(a.layer_passes, b.layer_passes);
            assert_eq!(a.pass_lens, b.pass_lens);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn prefix_parse_never_commits_a_partial_layer() {
        let hdr = header(true);
        let bytes = write(&hdr, &sample_blocks());
        // Chop off the tail so layer 1's packet bodies are gone but the
        // header and layer 0 survive.
        let (parsed, layers) = parse_prefix(&bytes[..bytes.len() - 12]).unwrap();
        assert!(layers < hdr.layers, "truncation must drop a layer");
        for blk in &parsed.blocks {
            assert!(
                blk.layer_passes.len() <= layers,
                "block records {} layers but only {layers} are complete",
                blk.layer_passes.len()
            );
        }
    }

    #[test]
    fn prefix_layers_are_monotone_in_prefix_length() {
        let hdr = header(true);
        let bytes = write(&hdr, &sample_blocks());
        let mut last = 0usize;
        for cut in 0..=bytes.len() {
            match parse_prefix(&bytes[..cut]) {
                // Header damage stays a typed error.
                Err(_) => assert_eq!(last, 0, "errors only before the packet walk"),
                Ok((_, layers)) => {
                    assert!(layers >= last, "layers regressed at cut {cut}");
                    assert!(layers <= hdr.layers);
                    last = layers;
                }
            }
        }
        assert_eq!(last, hdr.layers, "full stream recovers every layer");
    }

    #[test]
    fn starts_with_soc_ends_with_eoc() {
        let bytes = write(&header(true), &[]);
        assert_eq!(&bytes[..2], &[0xFF, 0x4F]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
    }
}
