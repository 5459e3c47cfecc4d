//! Tier-1 block-coder selection: the [`BlockCoder`] trait and the
//! [`Coder`] registry that lets the MQ (EBCOT Annex C/D) and HT
//! (Part 15 shaped) backends coexist behind one interface.
//!
//! The encoder's Tier-1 queue and the decoder dispatch through
//! [`Coder::block_coder`]; the choice is signalled in the codestream's
//! COD style byte, so a decoder never guesses. Both backends produce the
//! same [`EncodedBlock`] shape — per-pass terminated segments with
//! rate/distortion bookkeeping — so rate control and packet assembly are
//! completely coder-agnostic.

use crate::CodecError;
use ebcot::block::{BandKind, EncodedBlock};

/// Which Tier-1 block coder a codestream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coder {
    /// EBCOT MQ bit-plane coder (Part 1): best rate, per-plane passes.
    #[default]
    Mq,
    /// High-throughput quad coder (Part 15 shaped): single cleanup pass
    /// over the upper planes + raw refinement passes, ~an order of
    /// magnitude fewer Tier-1 work items per sample for a small rate
    /// premium.
    Ht,
}

impl Coder {
    /// Stable lowercase name, used on metrics/JSON surfaces and CLI.
    pub fn name(self) -> &'static str {
        match self {
            Coder::Mq => "mq",
            Coder::Ht => "ht",
        }
    }

    /// Numeric id used as a trace-span argument (span args are u64):
    /// 0 = mq, 1 = ht.
    pub fn id(self) -> u64 {
        match self {
            Coder::Mq => 0,
            Coder::Ht => 1,
        }
    }

    /// Parse a CLI/wire name.
    pub fn parse(s: &str) -> Option<Coder> {
        match s {
            "mq" => Some(Coder::Mq),
            "ht" => Some(Coder::Ht),
            _ => None,
        }
    }

    /// The backend implementation.
    pub fn block_coder(self) -> &'static dyn BlockCoder {
        match self {
            Coder::Mq => &MqBlockCoder,
            Coder::Ht => &HtBlockCoder,
        }
    }
}

impl std::fmt::Display for Coder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One Tier-1 backend. `encode` is infallible (both backends accept any
/// quantizer-index block); `decode` is fallible because the HT decoder
/// validates stream structure and hosts the `ht.quad` failpoint.
pub trait BlockCoder: Sync {
    /// Encode one code block of signed quantizer indices.
    fn encode(
        &self,
        data: &[i32],
        w: usize,
        h: usize,
        kind: BandKind,
        bypass: bool,
    ) -> EncodedBlock;

    /// Code one block for an encode whose rate control may drop its last
    /// passes: every pass is sized as [`encode`](Self::encode) sizes it,
    /// but a coder may leave passes unpacked and return what packs them
    /// once rate control keeps them. The default codes every pass; HT
    /// packs its cleanup pass alone ([`j2k_ht::size_block`]).
    fn size_block(
        &self,
        data: &[i32],
        w: usize,
        h: usize,
        kind: BandKind,
        bypass: bool,
    ) -> (EncodedBlock, Option<j2k_ht::RawPasses>) {
        (self.encode(data, w, h, kind, bypass), None)
    }

    /// [`size_block`](Self::size_block) of two blocks, each `(data, w,
    /// h, kind)`, with the same results as two calls: one Tier-1 job of
    /// the encoder's queue. The default sizes one block after the other;
    /// MQ codes the two blocks' decisions in one interleaved loop
    /// ([`ebcot::block::encode_block_pair`]).
    fn size_pair(
        &self,
        blocks: [(&[i32], usize, usize, BandKind); 2],
        bypass: bool,
    ) -> [(EncodedBlock, Option<j2k_ht::RawPasses>); 2] {
        blocks.map(|(data, w, h, kind)| self.size_block(data, w, h, kind, bypass))
    }

    /// Decode the first `num_passes` passes back to quantizer indices.
    #[allow(clippy::too_many_arguments)]
    fn decode(
        &self,
        data: &[u8],
        pass_ends: &[usize],
        num_passes: usize,
        w: usize,
        h: usize,
        kind: BandKind,
        num_planes: u8,
        midpoint: bool,
        bypass: bool,
    ) -> Result<Vec<i32>, CodecError>;
}

struct MqBlockCoder;

impl BlockCoder for MqBlockCoder {
    fn encode(
        &self,
        data: &[i32],
        w: usize,
        h: usize,
        kind: BandKind,
        bypass: bool,
    ) -> EncodedBlock {
        ebcot::block::encode_block_opts(data, w, h, kind, bypass)
    }

    fn size_pair(
        &self,
        blocks: [(&[i32], usize, usize, BandKind); 2],
        bypass: bool,
    ) -> [(EncodedBlock, Option<j2k_ht::RawPasses>); 2] {
        ebcot::block::encode_block_pair(blocks, bypass).map(|b| (b, None))
    }

    fn decode(
        &self,
        data: &[u8],
        pass_ends: &[usize],
        num_passes: usize,
        w: usize,
        h: usize,
        kind: BandKind,
        num_planes: u8,
        midpoint: bool,
        bypass: bool,
    ) -> Result<Vec<i32>, CodecError> {
        Ok(ebcot::block::decode_block_opts(
            data, pass_ends, num_passes, w, h, kind, num_planes, midpoint, bypass,
        ))
    }
}

struct HtBlockCoder;

impl BlockCoder for HtBlockCoder {
    fn encode(
        &self,
        data: &[i32],
        w: usize,
        h: usize,
        _kind: BandKind,
        _bypass: bool,
    ) -> EncodedBlock {
        // The HT cleanup needs no band-orientation context tables, and
        // its refinement passes are always raw — `bypass` is a no-op.
        j2k_ht::encode_block(data, w, h)
    }

    fn size_block(
        &self,
        data: &[i32],
        w: usize,
        h: usize,
        _kind: BandKind,
        _bypass: bool,
    ) -> (EncodedBlock, Option<j2k_ht::RawPasses>) {
        let (enc, raw) = j2k_ht::size_block(data, w, h);
        (enc, Some(raw))
    }

    fn decode(
        &self,
        data: &[u8],
        pass_ends: &[usize],
        num_passes: usize,
        w: usize,
        h: usize,
        _kind: BandKind,
        num_planes: u8,
        midpoint: bool,
        _bypass: bool,
    ) -> Result<Vec<i32>, CodecError> {
        j2k_ht::decode_block(data, pass_ends, num_passes, w, h, num_planes, midpoint).map_err(|e| {
            match e {
                j2k_ht::HtError::Injected(m) => CodecError::Injected(m),
                j2k_ht::HtError::Malformed(m) => CodecError::Codestream(m),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_maps_names_and_ids() {
        for c in [Coder::Mq, Coder::Ht] {
            assert_eq!(Coder::parse(c.name()), Some(c));
            assert_eq!(format!("{c}"), c.name());
        }
        assert_eq!(Coder::parse("j2k"), None);
        assert_eq!(Coder::default(), Coder::Mq);
        assert_eq!(Coder::Mq.id(), 0);
        assert_eq!(Coder::Ht.id(), 1);
    }

    #[test]
    fn both_backends_roundtrip_through_the_trait() {
        let data: Vec<i32> = (0..64).map(|i| (i * 37 % 101) - 50).collect();
        for c in [Coder::Mq, Coder::Ht] {
            let bc = c.block_coder();
            let enc = bc.encode(&data, 8, 8, BandKind::LlLh, false);
            let back = bc
                .decode(
                    &enc.data,
                    &enc.pass_ends,
                    enc.passes.len(),
                    8,
                    8,
                    BandKind::LlLh,
                    enc.num_planes,
                    false,
                    false,
                )
                .unwrap();
            assert_eq!(back, data, "{}", c.name());
        }
    }
}
