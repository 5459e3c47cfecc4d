//! Machine configurations.

/// Parameters of a simulated Cell/B.E. platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of SPEs participating in computation.
    pub num_spes: usize,
    /// Number of PPE hardware threads participating (the QS20 blade exposes
    /// two PPEs; Figures 4/5 add "+1 PPE"/"+2 PPE" Tier-1 helpers).
    pub num_ppes: usize,
    /// Chip clock in Hz (3.2 GHz for the QS20, 2.4 GHz in Muta et al.).
    pub clock_hz: f64,
    /// Cache line / optimal DMA granule in bytes.
    pub cache_line: usize,
    /// Local Store size per SPE in bytes.
    pub ls_bytes: usize,
    /// Sustained off-chip memory bandwidth in bytes/second shared by all
    /// PEs (25.6 GB/s XDR on the Cell).
    pub mem_bw_bytes_per_s: f64,
    /// Fixed per-DMA-request latency in cycles (MFC setup + EIB hop).
    pub dma_latency_cycles: u64,
    /// Bytes reserved in the Local Store for code + stack; the rest is the
    /// data budget for row buffers.
    pub ls_code_stack_bytes: usize,
}

impl MachineConfig {
    /// One Cell/B.E. 3.2 GHz chip of an IBM QS20 blade (8 SPEs + 1 PPE).
    pub fn qs20_single() -> Self {
        MachineConfig {
            num_spes: 8,
            num_ppes: 1,
            clock_hz: 3.2e9,
            cache_line: 128,
            ls_bytes: 256 * 1024,
            mem_bw_bytes_per_s: 25.6e9,
            dma_latency_cycles: 200,
            ls_code_stack_bytes: 64 * 1024,
        }
    }

    /// The full QS20 blade: two chips, 16 SPEs + 2 PPEs, sharing the
    /// XDR memory of one blade (the paper scales to this configuration).
    pub fn qs20_blade() -> Self {
        MachineConfig {
            num_spes: 16,
            num_ppes: 2,
            // Two memory controllers; aggregate bandwidth roughly doubles.
            mem_bw_bytes_per_s: 2.0 * 25.6e9,
            ..Self::qs20_single()
        }
    }

    /// The 2.4 GHz pre-production Cell used by Muta et al. (two chips).
    pub fn muta_blade() -> Self {
        MachineConfig {
            num_spes: 16,
            num_ppes: 2,
            clock_hz: 2.4e9,
            mem_bw_bytes_per_s: 2.0 * 25.6e9,
            ..Self::qs20_single()
        }
    }

    /// A copy with a different number of SPEs (scaling sweeps).
    pub fn with_spes(&self, n: usize) -> Self {
        MachineConfig {
            num_spes: n,
            ..self.clone()
        }
    }

    /// A copy with a different number of PPE threads.
    pub fn with_ppes(&self, n: usize) -> Self {
        MachineConfig {
            num_ppes: n,
            ..self.clone()
        }
    }

    /// Local Store bytes available for data buffers.
    pub fn ls_data_budget(&self) -> usize {
        self.ls_bytes.saturating_sub(self.ls_code_stack_bytes)
    }

    /// Convert cycles to seconds.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let single = MachineConfig::qs20_single();
        let blade = MachineConfig::qs20_blade();
        assert_eq!(single.num_spes, 8);
        assert_eq!(blade.num_spes, 16);
        assert_eq!(blade.num_ppes, 2);
        assert!(blade.mem_bw_bytes_per_s > single.mem_bw_bytes_per_s);
        assert_eq!(MachineConfig::muta_blade().clock_hz, 2.4e9);
    }

    #[test]
    fn bandwidth_conversion() {
        let cfg = MachineConfig::qs20_single();
        // 3.2e9 cycles at 3.2 GHz = 1 s.
        assert!((cfg.cycles_to_secs(3_200_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ls_budget_subtracts_code() {
        let cfg = MachineConfig::qs20_single();
        assert_eq!(cfg.ls_data_budget(), 192 * 1024);
    }

    #[test]
    fn with_spes_preserves_rest() {
        let cfg = MachineConfig::qs20_single().with_spes(3).with_ppes(2);
        assert_eq!(cfg.num_spes, 3);
        assert_eq!(cfg.num_ppes, 2);
        assert_eq!(cfg.cache_line, 128);
    }
}
