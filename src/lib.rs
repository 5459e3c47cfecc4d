//! `jpeg2000-cell` — umbrella crate for the reproduction of Kang & Bader,
//! *Optimizing JPEG2000 Still Image Encoding on the Cell Broadband Engine*
//! (ICPP 2008).
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`codec`] (`j2k-core`) — the JPEG2000 encoder/decoder: one
//!   host-parallel encode driver, inline at one worker, plus its
//!   Cell-simulated schedule;
//! * [`machine`] (`cellsim`) — the Cell/B.E. machine model;
//! * [`decomposition`] (`xpart`) — the paper's data decomposition scheme;
//! * [`dwt`] (`wavelet`) — lifting/convolution transforms and the loop
//!   schedule variants of Section 4;
//! * [`entropy`] (`ebcot`) and [`mq`] — EBCOT Tier-1/Tier-2 and the MQ
//!   coder;
//! * [`images`] (`imgio`) — I/O, synthetic workloads, basic metrics;
//! * [`quality`] (`j2k-metrics`) — PSNR/SSIM and the A/B comparator
//!   behind the closed-loop conformance suite;
//! * [`comparators`] (`baselines`) — the Muta et al. and Pentium IV models.
//!
//! # Quickstart
//!
//! ```
//! use jpeg2000_cell::codec::{encode, decode, EncoderParams};
//!
//! let image = jpeg2000_cell::images::synth::natural_rgb(64, 64, 1);
//! let bytes = encode(&image, &EncoderParams::lossless()).unwrap();
//! let back = decode(&bytes).unwrap();
//! assert_eq!(back, image);
//! ```

pub use baselines as comparators;
pub use cellsim as machine;
pub use ebcot as entropy;
pub use imgio as images;
pub use j2k_core as codec;
pub use j2k_metrics as quality;
pub use mqcoder as mq;
pub use wavelet as dwt;
pub use xpart as decomposition;
