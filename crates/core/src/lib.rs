//! `j2k-core` — a from-scratch JPEG2000 Part-1-shaped still image codec,
//! engineered after Kang & Bader, *Optimizing JPEG2000 Still Image Encoding
//! on the Cell Broadband Engine* (ICPP 2008).
//!
//! The crate has one encoder driver, [`encode_with`]: the paper's
//! parallelization on host threads (chunked sample stages, a Tier-1 work
//! queue, and a sequential rate-control/Tier-2 tail), producing the same
//! **byte-identical** codestream at every worker count. [`encode`] runs it
//! at one worker, entirely on the calling thread, and
//! [`cell::encode_on_cell`] schedules its measured profile on the
//! [`cellsim`] machine model, returning a simulated per-stage
//! [`cellsim::Timeline`] alongside the codestream.
//!
//! [`decode`], [`decode_opts`] (quality layers and resolution levels) and
//! [`decode_prefix`] (truncated streams) form a full decoder. It is a
//! product surface in its own right (`j2kcell decode` and the daemon's
//! `Decode` request serve it), and it also closes the conformance loop
//! on the encoder (lossless round-trip, lossy PSNR) in the absence of the
//! paper's Jasper baseline.
//!
//! Pipeline (paper Figure 2): read + type convert → level shift merged with
//! the inter-component transform ([`mct`]) → DWT ([`wavelet`]) →
//! quantization ([`quant`]) → EBCOT Tier-1 ([`ebcot`]) → rate control →
//! Tier-2 + codestream assembly ([`codestream`]). The host encoder folds
//! the read into the merged level shift + MCT and quantizes each code
//! block as Tier-1 extracts it ([`parallel`]); the Cell model keeps every
//! stage of the figure ([`cell`]).

pub mod cell;
pub mod coder;
pub mod codestream;
pub mod control;
pub mod jp2;
pub mod kernels;
pub mod mct;
pub mod parallel;
pub mod pipeline;
pub mod profile;
pub mod quant;

pub use cell::encode_on_cell;
pub use coder::{BlockCoder, Coder};
pub use control::EncodeControl;
pub use parallel::{
    encode, encode_parallel_with_profile, encode_with, transform_coefficients_parallel,
};
pub use pipeline::{decode, decode_opts, decode_prefix, transform_coefficients};
pub use profile::{Stage, WorkloadProfile};

pub use wavelet::VerticalVariant;

/// Compression mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Reversible path: RCT + 5/3, no quantization, exact reconstruction.
    Lossless,
    /// Irreversible path: ICT + 9/7 + dead-zone quantization + PCRD rate
    /// control targeting `rate` output bits per input bit (Jasper's
    /// `-O rate=` convention; 0.1 = 10:1 compression).
    Lossy {
        /// Target compressed size as a fraction of the raw size.
        rate: f64,
    },
}

/// Arithmetic representation of the 9/7 path (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arithmetic {
    /// Single-precision float — the paper's choice for the SPE.
    Float32,
    /// Jasper-style Q13 fixed point — the representation the paper
    /// replaces; kept for the ablation.
    FixedQ13,
}

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderParams {
    /// Lossless or lossy.
    pub mode: Mode,
    /// DWT decomposition levels.
    pub levels: usize,
    /// Code block width/height (power of two in 4..=64). The paper uses
    /// 64; Muta et al. use 32.
    pub cb_size: usize,
    /// Vertical-filter loop schedule.
    pub variant: VerticalVariant,
    /// 9/7 arithmetic (ignored for lossless).
    pub arithmetic: Arithmetic,
    /// Quality layers (>= 1).
    pub layers: usize,
    /// Selective arithmetic-coding bypass ("lazy" mode, Annex D.5):
    /// deep-plane SPP/MRP passes emit raw bits, trading a little rate for
    /// cheaper Tier-1. MQ only; the HT coder's refinement passes are
    /// always raw.
    pub bypass: bool,
    /// Tier-1 block coder backend (MQ bit-plane coder or the
    /// high-throughput quad coder); signalled in COD.
    pub coder: coder::Coder,
}

impl Default for EncoderParams {
    fn default() -> Self {
        EncoderParams {
            mode: Mode::Lossless,
            levels: 5,
            cb_size: 64,
            variant: VerticalVariant::Merged,
            arithmetic: Arithmetic::Float32,
            layers: 1,
            bypass: false,
            coder: coder::Coder::Mq,
        }
    }
}

impl EncoderParams {
    /// Default lossless configuration.
    pub fn lossless() -> Self {
        Self::default()
    }

    /// Default lossy configuration at `rate` (e.g. 0.1).
    pub fn lossy(rate: f64) -> Self {
        EncoderParams {
            mode: Mode::Lossy { rate },
            ..Self::default()
        }
    }

    /// The cheaper form of these params for overload degradation: swap
    /// the Tier-1 backend to the high-throughput coder (≈5× the MQ
    /// symbol rate for ≈ +20% rate; DESIGN.md §15). Returns the degraded
    /// params and whether anything actually changed — params already on
    /// the HT coder cannot be degraded further.
    pub fn degrade_for_load(&self) -> (EncoderParams, bool) {
        if self.coder == coder::Coder::Ht {
            return (*self, false);
        }
        let degraded = EncoderParams {
            coder: coder::Coder::Ht,
            // The HT refinement passes are always raw; the MQ-only
            // bypass flag is meaningless there.
            bypass: false,
            ..*self
        };
        (degraded, true)
    }

    /// Validate parameter combinations.
    pub fn validate(&self) -> Result<(), CodecError> {
        if !(4..=64).contains(&self.cb_size) || !self.cb_size.is_power_of_two() {
            return Err(CodecError::Params(format!(
                "code block size {} must be a power of two in 4..=64",
                self.cb_size
            )));
        }
        if self.levels == 0 || self.levels > 10 {
            return Err(CodecError::Params(format!(
                "levels {} out of 1..=10",
                self.levels
            )));
        }
        if self.layers == 0 || self.layers > 16 {
            return Err(CodecError::Params(format!(
                "layers {} out of 1..=16",
                self.layers
            )));
        }
        if let Mode::Lossy { rate } = self.mode {
            if !(rate > 0.0 && rate <= 1.0) {
                return Err(CodecError::Params(format!("rate {rate} out of (0, 1]")));
            }
        }
        Ok(())
    }
}

/// Codec errors.
#[derive(Debug)]
pub enum CodecError {
    /// Invalid encoder parameters.
    Params(String),
    /// Unsupported or malformed image input.
    Image(String),
    /// Malformed codestream during decode.
    Codestream(String),
    /// Encode stopped by an explicit [`control::EncodeControl::cancel`].
    Cancelled,
    /// Encode stopped because its [`control::EncodeControl`] deadline
    /// passed.
    Deadline,
    /// A `faultsim` failpoint injected this error (test/chaos builds
    /// only; never produced without the `failpoints` feature).
    Injected(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Params(m) => write!(f, "bad parameters: {m}"),
            CodecError::Image(m) => write!(f, "bad image: {m}"),
            CodecError::Codestream(m) => write!(f, "bad codestream: {m}"),
            CodecError::Cancelled => write!(f, "encode cancelled"),
            CodecError::Deadline => write!(f, "encode deadline exceeded"),
            CodecError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(EncoderParams::lossless().validate().is_ok());
        assert!(EncoderParams::lossy(0.1).validate().is_ok());
        for cb_size in [1, 2, 48, 128] {
            assert!(
                matches!(
                    EncoderParams {
                        cb_size,
                        ..Default::default()
                    }
                    .validate(),
                    Err(CodecError::Params(_))
                ),
                "cb_size {cb_size}"
            );
        }
        assert!(EncoderParams {
            levels: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(EncoderParams::lossy(0.0).validate().is_err());
        assert!(EncoderParams::lossy(1.5).validate().is_err());
        assert!(EncoderParams {
            layers: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn degrade_for_load_switches_to_ht_once() {
        let mq = EncoderParams {
            bypass: true,
            ..EncoderParams::lossless()
        };
        let (d, changed) = mq.degrade_for_load();
        assert!(changed);
        assert_eq!(d.coder, coder::Coder::Ht);
        assert!(!d.bypass, "MQ-only bypass flag cleared on the HT path");
        assert_eq!(
            (d.mode, d.levels, d.cb_size),
            (mq.mode, mq.levels, mq.cb_size)
        );
        let (d2, changed2) = d.degrade_for_load();
        assert!(!changed2, "already HT: nothing left to degrade");
        assert_eq!(d2, d);
    }
}
