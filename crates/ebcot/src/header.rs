//! Packet headers (JPEG2000 Annex B.10) for one precinct.
//!
//! We use one precinct per subband, so a packet = (layer, subband). The
//! header tells the decoder, per code block: whether it contributes to this
//! layer, the number of all-zero bit planes (on first inclusion), how many
//! coding passes are added, and the byte length of each added pass segment
//! (every pass is MQ-terminated — see `block` — so lengths are per pass).

use crate::tagtree::TagTree;
use mqcoder::{RawDecoder, RawEncoder};

/// A malformed packet header (corrupt or truncated stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderError(pub String);

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad packet header: {}", self.0)
    }
}

impl std::error::Error for HeaderError {}

/// Upper bound on Lblock (32-bit segment lengths are already absurd).
const MAX_LBLOCK: u32 = 32;

/// Persistent Tier-2 state for the code blocks of one precinct.
#[derive(Debug, Clone)]
pub struct PrecinctState {
    /// Grid dimensions in code blocks.
    pub cbw: usize,
    /// See `cbw`.
    pub cbh: usize,
    incl_tree: TagTree,
    zbp_tree: TagTree,
    /// Layer at which each block was first included (`u32::MAX` = not yet).
    first_layer: Vec<u32>,
    /// Lblock length-signalling state per block.
    lblock: Vec<u32>,
    /// Passes already signalled per block.
    passes_done: Vec<usize>,
}

/// One code block's contribution to one layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contribution {
    /// Number of new passes in this layer (0 = does not contribute).
    pub num_passes: usize,
    /// Byte length of each added pass segment.
    pub pass_lens: Vec<usize>,
    /// Number of all-zero bit planes (consumed on first inclusion only).
    pub zero_planes: u32,
}

impl PrecinctState {
    /// State for a `cbw x cbh` grid of code blocks.
    pub fn new(cbw: usize, cbh: usize) -> Self {
        PrecinctState {
            cbw,
            cbh,
            incl_tree: TagTree::new(cbw, cbh),
            zbp_tree: TagTree::new(cbw, cbh),
            first_layer: vec![u32::MAX; cbw * cbh],
            lblock: vec![3; cbw * cbh],
            passes_done: vec![0; cbw * cbh],
        }
    }

    /// Initialize the encoder-side trees. `first_incl[i]` is the layer at
    /// which block `i` first contributes; `zero_planes[i]` its missing
    /// bit-plane count. Must be called before the first `encode_packet`.
    pub fn set_encoder_values(&mut self, first_incl: &[u32], zero_planes: &[u32]) {
        assert_eq!(first_incl.len(), self.cbw * self.cbh);
        assert_eq!(zero_planes.len(), self.cbw * self.cbh);
        for y in 0..self.cbh {
            for x in 0..self.cbw {
                self.incl_tree.set_value(x, y, first_incl[y * self.cbw + x]);
                self.zbp_tree.set_value(x, y, zero_planes[y * self.cbw + x]);
            }
        }
    }
}

fn put_bits(out: &mut RawEncoder, value: usize, bits: u32) {
    for i in (0..bits).rev() {
        out.put(((value >> i) & 1) as u8);
    }
}

fn get_bits(inp: &mut RawDecoder<'_>, bits: u32) -> usize {
    let mut v = 0usize;
    for _ in 0..bits {
        v = (v << 1) | inp.get() as usize;
    }
    v
}

/// Pass-count variable-length code (Annex B Table B.4).
fn put_numpasses(out: &mut RawEncoder, n: usize) {
    match n {
        1 => out.put(0),
        2 => {
            out.put(1);
            out.put(0);
        }
        3..=5 => {
            put_bits(out, 0b11, 2);
            put_bits(out, n - 3, 2);
        }
        6..=36 => {
            put_bits(out, 0b1111, 4);
            put_bits(out, n - 6, 5);
        }
        37..=164 => {
            put_bits(out, 0b1111_11111, 9);
            put_bits(out, n - 37, 7);
        }
        _ => panic!("pass count {n} out of range"),
    }
}

fn get_numpasses(inp: &mut RawDecoder<'_>) -> usize {
    if inp.get() == 0 {
        return 1;
    }
    if inp.get() == 0 {
        return 2;
    }
    let t = get_bits(inp, 2);
    if t != 0b11 {
        return 3 + t;
    }
    let t = get_bits(inp, 5);
    if t != 0b11111 {
        return 6 + t;
    }
    37 + get_bits(inp, 7)
}

fn bitlen(v: usize) -> u32 {
    usize::BITS - v.leading_zeros()
}

/// Encode one packet header. `contribs[i]` describes block `i` (raster
/// order) for layer `layer`. Returns the header bytes.
pub fn encode_packet(st: &mut PrecinctState, layer: u32, contribs: &[Contribution]) -> Vec<u8> {
    assert_eq!(contribs.len(), st.cbw * st.cbh);
    let mut out = RawEncoder::new();
    let nonempty = contribs.iter().any(|c| c.num_passes > 0);
    out.put(u8::from(nonempty));
    if !nonempty {
        return out.finish_header();
    }
    for y in 0..st.cbh {
        for x in 0..st.cbw {
            let i = y * st.cbw + x;
            let c = &contribs[i];
            let included = c.num_passes > 0;
            if st.first_layer[i] == u32::MAX {
                // Not yet included in any layer: inclusion via tag tree.
                let resolved = st.incl_tree.encode(x, y, layer + 1, &mut out);
                debug_assert_eq!(resolved, included, "tag tree vs contribution");
                if included {
                    st.first_layer[i] = layer;
                    st.zbp_tree.encode_value(x, y, &mut out);
                }
            } else {
                out.put(u8::from(included));
            }
            if !included {
                continue;
            }
            put_numpasses(&mut out, c.num_passes);
            debug_assert_eq!(c.pass_lens.len(), c.num_passes);
            // Length signalling: every pass is a terminated segment, so
            // each length is coded in `lblock` bits after enough unary
            // increments to make the longest fit.
            let need = c
                .pass_lens
                .iter()
                .map(|&l| bitlen(l))
                .max()
                .unwrap_or(1)
                .max(1);
            let incr = need.saturating_sub(st.lblock[i]);
            for _ in 0..incr {
                out.put(1);
            }
            out.put(0);
            st.lblock[i] += incr;
            for &len in &c.pass_lens {
                put_bits(&mut out, len, st.lblock[i]);
            }
            st.passes_done[i] += c.num_passes;
        }
    }
    out.finish_header()
}

/// Decode one packet header; the mirror of [`encode_packet`]. Returns the
/// per-block contributions and the number of header bytes consumed.
pub fn decode_packet(
    st: &mut PrecinctState,
    layer: u32,
    header: &[u8],
) -> Result<(Vec<Contribution>, usize), HeaderError> {
    let mut inp = RawDecoder::new(header);
    let mut out = vec![Contribution::default(); st.cbw * st.cbh];
    if inp.get() == 0 {
        return Ok((out, inp.header_len()));
    }
    for y in 0..st.cbh {
        for x in 0..st.cbw {
            let i = y * st.cbw + x;
            let included;
            if st.first_layer[i] == u32::MAX {
                included = st.incl_tree.decode(x, y, layer + 1, &mut inp);
                if included {
                    st.first_layer[i] = layer;
                    out[i].zero_planes = st.zbp_tree.decode_value(x, y, &mut inp);
                }
            } else {
                included = inp.get() == 1;
            }
            if !included {
                continue;
            }
            let np = get_numpasses(&mut inp);
            let mut incr = 0u32;
            while inp.get() == 1 {
                incr += 1;
                if st.lblock[i] + incr > MAX_LBLOCK {
                    return Err(HeaderError(format!(
                        "Lblock increment overflow for block {i}"
                    )));
                }
            }
            st.lblock[i] += incr;
            let mut lens = Vec::with_capacity(np);
            for _ in 0..np {
                lens.push(get_bits(&mut inp, st.lblock[i]));
            }
            out[i].num_passes = np;
            out[i].pass_lens = lens;
            st.passes_done[i] += np;
        }
    }
    Ok((out, inp.header_len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contribution(np: usize, lens: &[usize]) -> Contribution {
        Contribution {
            num_passes: np,
            pass_lens: lens.to_vec(),
            zero_planes: 0,
        }
    }

    #[test]
    fn numpasses_vlc_roundtrip() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 20, 36, 37, 46, 100, 164] {
            let mut out = RawEncoder::new();
            put_numpasses(&mut out, n);
            put_bits(&mut out, 0b1010, 4); // trailing guard bits
            let bytes = out.finish();
            let mut inp = RawDecoder::new(&bytes);
            assert_eq!(get_numpasses(&mut inp), n, "n={n}");
            assert_eq!(get_bits(&mut inp, 4), 0b1010);
        }
    }

    #[test]
    fn empty_packet_is_one_bit() {
        let mut st = PrecinctState::new(2, 2);
        st.set_encoder_values(&[0, 0, 1, 1], &[0; 4]);
        let hdr = encode_packet(&mut st, 5, &vec![Contribution::default(); 4]);
        assert_eq!(hdr.len(), 1);
        let mut dst = PrecinctState::new(2, 2);
        let (got, used) = decode_packet(&mut dst, 5, &hdr).unwrap();
        assert_eq!(used, 1);
        assert!(got.iter().all(|c| c.num_passes == 0));
    }

    #[test]
    fn single_layer_roundtrip() {
        let mut st = PrecinctState::new(2, 2);
        let first = [0u32, 0, 0, 0];
        let zbp = [2u32, 0, 5, 1];
        st.set_encoder_values(&first, &zbp);
        let contribs = vec![
            contribution(1, &[10]),
            contribution(3, &[5, 0, 77]),
            contribution(2, &[128, 4000]),
            contribution(1, &[0]),
        ];
        let hdr = encode_packet(&mut st, 0, &contribs);
        let mut dst = PrecinctState::new(2, 2);
        let (got, used) = decode_packet(&mut dst, 0, &hdr).unwrap();
        assert_eq!(used, hdr.len());
        for i in 0..4 {
            assert_eq!(got[i].num_passes, contribs[i].num_passes, "block {i}");
            assert_eq!(got[i].pass_lens, contribs[i].pass_lens, "block {i}");
            assert_eq!(got[i].zero_planes, zbp[i], "block {i}");
        }
    }

    #[test]
    fn multi_layer_roundtrip_with_late_inclusion() {
        let mut enc = PrecinctState::new(3, 1);
        // Block 0 included at layer 0, block 1 at layer 2, block 2 never.
        enc.set_encoder_values(&[0, 2, u32::MAX], &[1, 3, 0]);
        let layers: Vec<Vec<Contribution>> = vec![
            vec![
                contribution(2, &[9, 30]),
                Contribution::default(),
                Contribution::default(),
            ],
            vec![
                contribution(1, &[2]),
                Contribution::default(),
                Contribution::default(),
            ],
            vec![
                Contribution::default(),
                contribution(4, &[1, 2, 3, 4]),
                Contribution::default(),
            ],
        ];
        let headers: Vec<Vec<u8>> = layers
            .iter()
            .enumerate()
            .map(|(l, c)| encode_packet(&mut enc, l as u32, c))
            .collect();
        let mut dec = PrecinctState::new(3, 1);
        for (l, hdr) in headers.iter().enumerate() {
            let (got, _) = decode_packet(&mut dec, l as u32, hdr).unwrap();
            for i in 0..3 {
                assert_eq!(
                    got[i].num_passes, layers[l][i].num_passes,
                    "layer {l} block {i}"
                );
                assert_eq!(
                    got[i].pass_lens, layers[l][i].pass_lens,
                    "layer {l} block {i}"
                );
            }
            if l == 0 {
                assert_eq!(got[0].zero_planes, 1);
            }
            if l == 2 {
                assert_eq!(got[1].zero_planes, 3);
            }
        }
    }

    #[test]
    fn header_ending_in_ff_roundtrips_before_a_body() {
        // Some pass lengths end the header on a 0xFF byte. It must be kept
        // and followed by the stuffed 0x00, and the decoder must count both,
        // so the body that follows starts where the encoder put it.
        let mut stuffed = 0;
        for len in 1..4096usize {
            let mut enc = PrecinctState::new(1, 1);
            enc.set_encoder_values(&[0], &[0]);
            let c = contribution(1, &[len]);
            let hdr = encode_packet(&mut enc, 0, std::slice::from_ref(&c));
            assert_ne!(hdr.last(), Some(&0xFF), "len={len}");
            if !hdr.ends_with(&[0xFF, 0x00]) {
                continue;
            }
            // The 0x00 carries no header bits when the header parses the
            // same without it.
            let mut probe = PrecinctState::new(1, 1);
            let without = decode_packet(&mut probe, 0, &hdr[..hdr.len() - 1]).unwrap();
            stuffed += usize::from(without.1 == hdr.len());

            let mut packet = hdr.clone();
            packet.resize(hdr.len() + len, 0xA5);
            let mut dec = PrecinctState::new(1, 1);
            let (got, used) = decode_packet(&mut dec, 0, &packet).unwrap();
            assert_eq!(used, hdr.len(), "len={len}");
            assert_eq!(got[0].pass_lens, vec![len], "len={len}");
        }
        assert!(stuffed > 0, "no pass length ended a header in 0xFF");
    }

    #[test]
    fn lblock_grows_for_long_segments() {
        let mut enc = PrecinctState::new(1, 1);
        enc.set_encoder_values(&[0], &[0]);
        let big = contribution(1, &[1_000_000]);
        let hdr = encode_packet(&mut enc, 0, std::slice::from_ref(&big));
        let mut dec = PrecinctState::new(1, 1);
        let (got, _) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(got[0].pass_lens, vec![1_000_000]);
        // A follow-up short segment still decodes (state is persistent).
        let hdr2 = encode_packet(&mut enc, 1, &[contribution(1, &[3])]);
        let (got2, _) = decode_packet(&mut dec, 1, &hdr2).unwrap();
        assert_eq!(got2[0].pass_lens, vec![3]);
    }

    #[test]
    fn truncated_header_errors_instead_of_panicking() {
        // Past-the-end bits read as 1s; the unary Lblock run must bail out
        // instead of counting forever.
        let mut enc = PrecinctState::new(2, 2);
        enc.set_encoder_values(&[0, 0, 0, 0], &[0; 4]);
        let contribs = vec![contribution(1, &[100]); 4];
        let hdr = encode_packet(&mut enc, 0, &contribs);
        for cut in 0..hdr.len() {
            let mut dec = PrecinctState::new(2, 2);
            let _ = decode_packet(&mut dec, 0, &hdr[..cut]); // must not panic
        }
    }

    #[test]
    fn zero_length_pass_segments_roundtrip() {
        // Passes that code nothing produce empty MQ segments; headers must
        // carry length 0 correctly.
        let mut enc = PrecinctState::new(1, 1);
        enc.set_encoder_values(&[0], &[7]);
        let hdr = encode_packet(&mut enc, 0, &[contribution(3, &[0, 0, 0])]);
        let mut dec = PrecinctState::new(1, 1);
        let (got, _) = decode_packet(&mut dec, 0, &hdr).unwrap();
        assert_eq!(got[0].pass_lens, vec![0, 0, 0]);
        assert_eq!(got[0].zero_planes, 7);
    }
}
