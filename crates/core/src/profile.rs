//! Workload profiles: the measured operation counts that drive the
//! machine models.
//!
//! The encoder measures its own work — samples per stage, MQ decisions per
//! code block, rate-control search effort, output bytes — and the `cell`
//! module (and the `baselines` crate) schedule that measured work under
//! different machine configurations. This keeps the simulated timings tied
//! to the *actual* computation, not to analytic guesses about image
//! content (Tier-1 cost is data dependent, which is exactly why the paper
//! needs a dynamic work queue).

use crate::EncoderParams;
use std::borrow::Cow;

/// Per-code-block Tier-1 work.
#[derive(Debug, Clone, Copy)]
pub struct BlockWork {
    /// Samples in the block.
    pub samples: u64,
    /// Effective Tier-1 work items: MQ decisions plus bypass raw bits
    /// weighted at 1/4 (the raw path skips the coder's renormalization).
    pub symbols: u64,
    /// Coding passes produced.
    pub passes: u64,
    /// Compressed bytes produced (before truncation).
    pub bytes: u64,
}

/// Wall-clock time of one pipeline stage, as measured by the driver that
/// produced the profile.
#[derive(Debug, Clone)]
pub struct StageTime {
    /// Stage name (e.g. "mct", "dwt", "tier1"). `Cow` so
    /// dynamically named stages (`chunk-3`, `dwt-level-2`) don't force
    /// a `String` leak to obtain `'static` lifetime.
    pub name: Cow<'static, str>,
    /// Elapsed wall time in seconds.
    pub seconds: f64,
}

impl StageTime {
    /// Build from any static or owned name.
    pub fn new(name: impl Into<Cow<'static, str>>, seconds: f64) -> StageTime {
        StageTime {
            name: name.into(),
            seconds,
        }
    }
}

/// One DWT level's geometry (the region the level transforms).
#[derive(Debug, Clone, Copy)]
pub struct LevelWork {
    /// Region width in samples.
    pub w: u64,
    /// Region height in samples.
    pub h: u64,
}

/// Measured workload of one encode.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Encoder parameters used.
    pub params: EncoderParams,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Component count.
    pub comps: usize,
    /// Total input samples (w * h * comps).
    pub samples: u64,
    /// Raw input bytes.
    pub raw_bytes: u64,
    /// Per-level transform regions (per component; level order fine→deep).
    pub levels: Vec<LevelWork>,
    /// Per-block Tier-1 work, in work-queue order.
    pub blocks: Vec<BlockWork>,
    /// Coding passes examined by the PCRD search (0 when lossless).
    pub rate_control_items: u64,
    /// Budget-shrink retries the lossy rate loop took (0 when the first
    /// assembly fit, and always 0 for lossless).
    pub rate_retries: u64,
    /// Whether the final stream met the lossy byte budget before the
    /// retry loop gave up (always true for lossless).
    pub rate_converged: bool,
    /// Output codestream bytes.
    pub output_bytes: u64,
    /// Measured per-stage wall times, in pipeline order. The encode
    /// driver records `mct` (the image read merged with level shift and
    /// MCT), `dwt`, `tier1` (block extraction — with quantization of 9/7
    /// coefficients — coding and R-D preparation), `rate-control` and
    /// `tier2`.
    pub stage_times: Vec<StageTime>,
    /// Jobs each thread of the encode driver claimed (column chunks, row
    /// bands and code blocks): `workers` entries, the calling thread first,
    /// then the helpers in spawn order. Which thread claims a job varies
    /// from run to run; the sum is the job count. Empty for non-parallel
    /// drivers.
    pub worker_jobs: Vec<u64>,
}

impl WorkloadProfile {
    /// Total Tier-1 MQ decisions.
    pub fn tier1_symbols(&self) -> u64 {
        self.blocks.iter().map(|b| b.symbols).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let p = WorkloadProfile {
            params: EncoderParams::lossless(),
            width: 8,
            height: 8,
            comps: 1,
            samples: 64,
            raw_bytes: 64,
            levels: vec![LevelWork { w: 8, h: 8 }],
            blocks: vec![
                BlockWork {
                    samples: 32,
                    symbols: 100,
                    passes: 4,
                    bytes: 10,
                },
                BlockWork {
                    samples: 32,
                    symbols: 50,
                    passes: 2,
                    bytes: 6,
                },
            ],
            rate_control_items: 0,
            rate_retries: 0,
            rate_converged: true,
            output_bytes: 32,
            stage_times: Vec::new(),
            worker_jobs: Vec::new(),
        };
        assert_eq!(p.tier1_symbols(), 150);
    }
}
