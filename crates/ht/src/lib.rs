//! `j2k-ht` — an HTJ2K-style (ISO/IEC 15444-15 shaped) high-throughput
//! Tier-1 block coder.
//!
//! The MQ bit-plane coder iterates three context-modeled passes per bit
//! plane, serializing on the arithmetic coder's state at every decision.
//! Part 15's answer — reproduced here in the repo's own codestream
//! container — codes **all upper bit-planes in one non-iterative cleanup
//! pass** over 2×2 sample quads, split across three simple streams:
//!
//! * `mel` — adaptive run-length significance events (context-0 quads);
//! * `vlc` — context-dependent significance patterns + exponents;
//! * MagSgn — raw sign + magnitude-below-MSB bits (`block`).
//!
//! Low planes are finished by raw SigProp/MagRef passes (the MQ coder's
//! lazy-mode shape), so rate control keeps real truncation points and a
//! full decode is lossless, while the per-sample work drops from tens of
//! MQ decisions to a handful of branch-light bit operations.
//!
//! The coder produces the same [`ebcot::block::EncodedBlock`] the MQ
//! coder does and is selected per encode through `j2k-core`'s
//! `BlockCoder` registry. [`size_block`] codes the cleanup pass and only
//! sizes the raw passes, for an encoder whose rate control may drop them;
//! [`RawPasses::pack`] writes them when it keeps them, and
//! [`encode_block`] is the two at once.

mod bitio;
mod block;
mod mel;
mod vlc;

pub use block::{cup_plane, decode_block, encode_block, size_block, HtError, RawPasses};
