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
use std::time::Duration;

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

/// The encode's stages, in pipeline order: the one list that names the
/// driver's stage times, its `stage:*` spans and the daemon's
/// `stage_*_us` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The image read merged with level shift and MCT.
    Mct,
    /// The forward DWT, every level.
    Dwt,
    /// Block extraction (quantizing 9/7 coefficients), coding and R-D
    /// preparation, plus packing the HT raw passes rate control keeps.
    Tier1,
    /// Rate allocation: the PCRD threshold searches and their
    /// application, once per assembly.
    RateControl,
    /// Tier-2 packet assembly into the codestream.
    Tier2,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Mct,
        Stage::Dwt,
        Stage::Tier1,
        Stage::RateControl,
        Stage::Tier2,
    ];

    /// The name of the stage's trace spans, `stage:<name>`.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Mct => "stage:mct",
            Stage::Dwt => "stage:dwt",
            Stage::Tier1 => "stage:tier1",
            Stage::RateControl => "stage:rate-control",
            Stage::Tier2 => "stage:tier2",
        }
    }

    /// Stable lowercase name (`rate-control`); the encode driver's chunk
    /// spans of the MCT and DWT carry it too.
    pub fn name(self) -> &'static str {
        &self.span_name()["stage:".len()..]
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
    /// Measured wall time of each [`Stage`], indexed by it (read one
    /// with [`WorkloadProfile::stage_time`]). Each is the sum of the
    /// durations of the stage's `stage:*` spans, to the nanosecond.
    pub stage_times: [Duration; Stage::ALL.len()],
    /// Jobs each thread of the encode driver claimed (column chunks, row
    /// bands, Tier-1 jobs of up to two code blocks each, and HT raw-pass
    /// pack jobs): `workers` entries, the calling thread first, then the
    /// helpers in spawn order. Which thread claims a job varies
    /// from run to run; the sum is the job count. Empty for non-parallel
    /// drivers.
    pub worker_jobs: Vec<u64>,
}

impl WorkloadProfile {
    /// Measured wall time of `stage`.
    pub fn stage_time(&self, stage: Stage) -> Duration {
        self.stage_times[stage as usize]
    }

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
            stage_times: [Duration::ZERO; 5],
            worker_jobs: Vec::new(),
        };
        assert_eq!(p.tier1_symbols(), 150);
    }

    #[test]
    fn stages_are_named_once() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["mct", "dwt", "tier1", "rate-control", "tier2"]);
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?} indexes stage_times");
            assert_eq!(s.span_name(), format!("stage:{}", s.name()));
        }
    }
}
