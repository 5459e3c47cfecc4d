//! The benchmark's only calls to the codec's whole-image entry points.
//!
//! The public encode/decode surface is due to be collapsed into one
//! encode and one decode entry point; keeping every call here means that
//! change edits this file and nothing else in the benchmark.

use imgio::Image;
use j2k_core::{CodecError, EncoderParams, WorkloadProfile};

/// The measured encode: the host-parallel driver at `workers`.
pub fn encode(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    j2k_core::encode_parallel_with_profile(image, params, workers)
}

/// The measured decode: every quality layer at full resolution.
pub fn decode(codestream: &[u8]) -> Result<Image, CodecError> {
    j2k_core::decode_opts(codestream, usize::MAX, 0)
}

/// The sequential reference encoder every measured encode must match.
pub fn reference_encode(image: &Image, params: &EncoderParams) -> Result<Vec<u8>, CodecError> {
    j2k_core::encode(image, params)
}

/// Quantizer indices of the sequential reference transform, one dense
/// plane per component.
pub fn reference_indices(
    image: &Image,
    params: &EncoderParams,
) -> Result<Vec<Vec<i32>>, CodecError> {
    j2k_core::transform_coefficients(image, params)
}
