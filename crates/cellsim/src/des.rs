//! The shared memory/EIB model: a FIFO server with finite bandwidth.
//!
//! All off-chip traffic — SPE DMA and PPE cacheable loads/stores alike —
//! funnels through the XDR memory interface, so the model serializes every
//! transfer through one server whose rate is the configured sustained
//! bandwidth. Misaligned transfers pay an efficiency factor, which is how
//! Muta-style overlapped tiles lose to the paper's cache-line-aligned
//! decomposition.

use crate::config::MachineConfig;
use crate::Cycles;

/// Alignment/size class of a transfer (mirror of `xpart::DmaClass`, kept
/// dependency-free here; `j2k-core` converts between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaClass {
    /// 128-byte aligned, size a multiple of 128: peak efficiency.
    LineOptimal,
    /// 16-byte aligned, 16-byte multiple: pays partial-line overhead.
    QuadAligned,
    /// Small naturally-aligned transfer (1/2/4/8 bytes).
    SmallNatural,
}

impl DmaClass {
    /// Effective bus-time multiplier relative to a line-optimal transfer.
    ///
    /// QuadAligned: a transfer that is not line-aligned touches up to one
    /// extra line and defeats the memory controller's full-line batching
    /// (~30% penalty measured by Kistler et al. for misaligned streams).
    /// SmallNatural: each tiny transfer occupies a full request slot.
    pub fn efficiency_factor(self) -> f64 {
        match self {
            DmaClass::LineOptimal => 1.0,
            DmaClass::QuadAligned => 1.3,
            DmaClass::SmallNatural => 8.0,
        }
    }
}

/// FIFO memory server. Requests are served in arrival order at the
/// configured bandwidth; each request also pays the fixed MFC/EIB latency.
#[derive(Debug, Clone)]
pub struct MemBus {
    cycles_per_byte: f64,
    latency: Cycles,
    free_at: Cycles,
    bytes: u64,
    busy: Cycles,
    requests: u64,
}

impl MemBus {
    /// A bus for the given machine.
    pub fn new(cfg: &MachineConfig) -> Self {
        MemBus {
            cycles_per_byte: cfg.clock_hz / cfg.mem_bw_bytes_per_s,
            latency: cfg.dma_latency_cycles,
            free_at: 0,
            bytes: 0,
            busy: 0,
            requests: 0,
        }
    }

    /// Request a transfer of `bytes` at time `now`; returns its completion
    /// time. Zero-byte requests complete immediately.
    pub fn request(&mut self, now: Cycles, bytes: u64, class: DmaClass) -> Cycles {
        if bytes == 0 {
            return now;
        }
        let service =
            (bytes as f64 * self.cycles_per_byte * class.efficiency_factor()).ceil() as Cycles;
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.bytes += bytes;
        self.busy += service;
        self.requests += 1;
        // The fixed latency overlaps with queueing but always delays the
        // requester's view of completion.
        done + self.latency
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }

    /// Cycles the bus spent serving transfers.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy
    }

    /// Number of transfer requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MemBus {
        MemBus::new(&MachineConfig::qs20_single())
    }

    #[test]
    fn single_transfer_timing() {
        let mut b = bus();
        // 25.6 GB/s at 3.2 GHz -> 0.125 cycles/byte; 1024 bytes = 128 cycles.
        let done = b.request(0, 1024, DmaClass::LineOptimal);
        assert_eq!(done, 128 + 200);
        assert_eq!(b.bytes_moved(), 1024);
    }

    #[test]
    fn fifo_serialization() {
        let mut b = bus();
        let d1 = b.request(0, 1024, DmaClass::LineOptimal);
        let d2 = b.request(0, 1024, DmaClass::LineOptimal);
        assert_eq!(d2 - d1, 128, "second transfer queues behind the first");
        // A later request after the bus idles starts immediately.
        let d3 = b.request(10_000, 1024, DmaClass::LineOptimal);
        assert_eq!(d3, 10_000 + 128 + 200);
    }

    #[test]
    fn misalignment_costs_more() {
        let mut a = bus();
        let mut q = bus();
        let da = a.request(0, 4096, DmaClass::LineOptimal);
        let dq = q.request(0, 4096, DmaClass::QuadAligned);
        assert!(dq > da);
        let mut s = bus();
        let ds = s.request(0, 4096, DmaClass::SmallNatural);
        assert!(ds > dq);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut b = bus();
        assert_eq!(b.request(5, 0, DmaClass::LineOptimal), 5);
        assert_eq!(b.requests(), 0);
    }

    #[test]
    fn busy_accounting() {
        let mut b = bus();
        b.request(0, 1024, DmaClass::LineOptimal);
        let done = b.request(0, 1024, DmaClass::LineOptimal);
        assert_eq!(b.busy_cycles(), 256);
        assert_eq!(b.requests(), 2);
        // Served back to back: the bus is busy until 256, and the second
        // transfer completes then plus the fixed latency.
        assert_eq!(done, 256 + 200);
    }
}
