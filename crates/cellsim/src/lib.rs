//! A deterministic machine model of the Sony-Toshiba-IBM Cell Broadband
//! Engine, built to reproduce the scheduling/bandwidth phenomena that
//! Kang & Bader's ICPP 2008 JPEG2000 study measures on real QS20 hardware.
//!
//! # What is modelled
//!
//! * **Processing elements** — one PPE (scalar, branch-predicted) and `N`
//!   SPEs (4-wide SIMD, no dynamic branch prediction, no 32-bit integer
//!   multiply — Table 1 of the paper lives in [`isa`]), plus an Intel
//!   Pentium IV model for the Figure 9 comparison ([`cost`]).
//! * **Local Store** — 256 KiB per SPE; stage planning validates that row
//!   buffers fit ([`config::MachineConfig::ls_data_budget`]).
//! * **DMA & memory** — explicit transfers with the MFC alignment rules
//!   (via `xpart`-style classes), priced and serialized through a shared
//!   FIFO memory/EIB server with finite bandwidth ([`des`]). This is what
//!   produces the DWT's bandwidth ceiling and the benefit of the paper's
//!   lifting-step fusion.
//! * **Scheduling** — static chunk assignment (the data decomposition
//!   scheme) and a dynamic work queue (Tier-1's load balancing), both run
//!   under a discrete-event engine ([`stage`]).
//!
//! # What is not modelled
//!
//! Instruction-level SPU execution. Kernel costs are analytic
//! (cycles-per-work-item tables in [`cost`], documented and calibrated
//! against the paper's single-SPE/PPE ratios) driven by *real* operation
//! counts measured by the actual codec. DESIGN.md §2 documents this
//! substitution.

pub mod config;
pub mod cost;
pub mod des;
pub mod isa;
pub mod stage;
pub mod timeline;
pub mod trace;

pub use config::MachineConfig;
pub use cost::{Kernel, ProcKind};
pub use des::{DmaClass, MemBus};
pub use stage::{run_stage, run_stage_traced, Assignment, StageOutcome, TaskEvent, TaskSpec};
pub use timeline::{StageReport, Timeline};
pub use trace::ScheduleTrace;

/// Simulated time in processor cycles at the chip clock.
pub type Cycles = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_surface_links() {
        let cfg = MachineConfig::qs20_single();
        assert_eq!(cfg.num_spes, 8);
        let _ = Timeline::default();
    }
}
