//! Cache-line-aligned data decomposition for 2-D arrays.
//!
//! This crate implements the data decomposition scheme of Section 2 of
//! Kang & Bader, *Optimizing JPEG2000 Still Image Encoding on the Cell
//! Broadband Engine* (ICPP 2008). The scheme targets the Cell/B.E.'s DMA
//! alignment and size requirements and is equally useful for SIMD load/store
//! alignment on modern hosts:
//!
//! 1. Every row of a 2-D array is padded so that its start address is
//!    cache-line aligned ([`AlignedPlane`]).
//! 2. The array is partitioned into column *chunks*. Every chunk except the
//!    last has a width that is a multiple of the cache line size; all chunks
//!    span the full array height ([`ChunkPlan`]).
//! 3. Constant-width chunks are distributed to the SPEs; the arbitrary-width
//!    remainder chunk is processed by the PPE ([`Owner`]).
//! 4. A single row of a chunk is the unit of data transfer and computation,
//!    so the Local Store footprint is constant and independent of the array
//!    size ([`ls_row_footprint`]).
//!
//! The consequences the paper claims — always-aligned DMA, transfer sizes
//! that are even multiples of the cache line, no cache line shared between
//! processing elements, constant loop trip counts — are encoded here as
//! checked invariants (see [`ChunkPlan::validate`] and the property tests).

pub mod dma;
pub mod plan;
pub mod plane;

pub use dma::{DmaDir, RowTransfer};
pub use plan::{ChunkDesc, ChunkPlan, Owner, PlanConfig};
pub use plane::AlignedPlane;

/// Cache line size of the Cell/B.E. PPE and the unit of efficient DMA,
/// in bytes. DMA transfers that are cache-line aligned on both ends and a
/// multiple of this size use the Element Interconnect Bus most efficiently
/// (Kistler, Perrone & Petrini, IEEE Micro 2006).
pub const CACHE_LINE: usize = 128;

/// Quad-word size in bytes: the SPE SIMD load/store alignment requirement.
pub const QUAD_WORD: usize = 16;

/// Errors produced by decomposition planning and plane construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XpartError {
    /// A dimension was zero where a non-zero extent is required.
    EmptyExtent { what: &'static str },
    /// The element size does not divide the cache line size, so rows cannot
    /// be padded to an integral number of elements per line.
    ElemSizeIncompatible { elem_size: usize },
    /// A requested chunk width is not a positive multiple of the cache line.
    ChunkWidthNotLineMultiple { bytes: usize },
    /// The per-row Local Store footprint exceeds the available budget.
    LocalStoreOverflow { needed: usize, budget: usize },
    /// A raw buffer's length does not match `width * height`.
    BufferSizeMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for XpartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XpartError::EmptyExtent { what } => write!(f, "empty extent: {what}"),
            XpartError::ElemSizeIncompatible { elem_size } => write!(
                f,
                "element size {elem_size} does not divide the cache line size {CACHE_LINE}"
            ),
            XpartError::ChunkWidthNotLineMultiple { bytes } => write!(
                f,
                "chunk width of {bytes} bytes is not a positive multiple of the cache line ({CACHE_LINE})"
            ),
            XpartError::LocalStoreOverflow { needed, budget } => write!(
                f,
                "Local Store overflow: row buffers need {needed} bytes, budget is {budget}"
            ),
            XpartError::BufferSizeMismatch { expected, got } => {
                write!(f, "buffer size mismatch: expected {expected} elements, got {got}")
            }
        }
    }
}

impl std::error::Error for XpartError {}

/// Round `n` up to the next multiple of `to` (`to` must be non-zero).
#[inline]
pub fn round_up(n: usize, to: usize) -> usize {
    debug_assert!(to != 0);
    n.div_ceil(to) * to
}

/// Auto-sized column-chunk width, in bytes, for a plane `width` 4-byte
/// samples wide shared by `pes` processing elements: roughly four
/// constant-width chunks per PE, floored to a multiple of [`CACHE_LINE`]
/// and at least one line. The Cell model and the host driver both size
/// their chunks with it.
#[inline]
pub fn auto_chunk_bytes(width: usize, pes: usize) -> usize {
    let target = (width * 4) / (4 * pes.max(1));
    (target / CACHE_LINE).max(1) * CACHE_LINE
}

/// Local Store bytes needed to process one row of a chunk of
/// `chunk_width_bytes` with `buffering` levels of multi-buffering
/// (1 = single buffer, 2 = double buffering, ...).
///
/// Because the chunk width is constant, this footprint is constant and
/// independent of the image size — the property that lets the paper raise the
/// buffering level "to a higher value that fits within the Local Store".
#[inline]
pub fn ls_row_footprint(chunk_width_bytes: usize, buffering: usize) -> usize {
    chunk_width_bytes * buffering.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(0, 128), 0);
        assert_eq!(round_up(1, 128), 128);
        assert_eq!(round_up(128, 128), 128);
        assert_eq!(round_up(129, 128), 256);
        assert_eq!(round_up(300, 16), 304);
    }

    #[test]
    fn auto_chunk_bytes_floors_to_cache_lines() {
        assert_eq!(auto_chunk_bytes(300, 1), 256);
        assert_eq!(auto_chunk_bytes(600, 1), 512);
        assert_eq!(auto_chunk_bytes(768, 8), 128);
    }

    #[test]
    fn ls_footprint_scales_with_buffering() {
        assert_eq!(ls_row_footprint(1024, 1), 1024);
        assert_eq!(ls_row_footprint(1024, 2), 2048);
        assert_eq!(ls_row_footprint(1024, 0), 1024); // clamped to single buffer
    }

    #[test]
    fn error_display_is_informative() {
        let e = XpartError::LocalStoreOverflow {
            needed: 300_000,
            budget: 262_144,
        };
        let s = e.to_string();
        assert!(s.contains("300000") && s.contains("262144"));
    }
}
