//! Per-stage timing reports and whole-encode timelines.

/// Timing record of one simulated pipeline stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name (e.g. "dwt-vertical-l1", "tier1").
    pub name: String,
    /// Wall time in cycles.
    pub makespan_cycles: u64,
    /// Wall time in seconds at the machine clock.
    pub seconds: f64,
    /// Per-PE compute-busy cycles.
    pub busy_cycles: Vec<u64>,
    /// Per-PE task counts.
    pub tasks_run: Vec<usize>,
    /// Bytes through the memory bus.
    pub bytes_moved: u64,
    /// DMA request count.
    pub dma_requests: u64,
}

impl StageReport {
    /// Average PE utilization during the stage (busy / makespan).
    pub fn utilization(&self) -> f64 {
        if self.makespan_cycles == 0 || self.busy_cycles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.busy_cycles.iter().sum();
        total as f64 / (self.makespan_cycles as f64 * self.busy_cycles.len() as f64)
    }
}

/// Ordered collection of stage reports for one encode.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Stages in execution order.
    pub stages: Vec<StageReport>,
}

impl Timeline {
    /// Append a stage.
    pub fn push(&mut self, r: StageReport) {
        self.stages.push(r);
    }

    /// Total simulated cycles (stages are sequential phases).
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.makespan_cycles).sum()
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Sum of cycles of stages whose name contains `pat`.
    pub fn cycles_matching(&self, pat: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.name.contains(pat))
            .map(|s| s.makespan_cycles)
            .sum()
    }

    /// Fraction of total time spent in stages whose name contains `pat`.
    pub fn fraction_matching(&self, pat: &str) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            return 0.0;
        }
        self.cycles_matching(pat) as f64 / t as f64
    }

    /// Render a human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let total = self.total_cycles().max(1);
        let _ = writeln!(
            s,
            "{:<24} {:>14} {:>9} {:>7} {:>9} {:>8}",
            "stage", "cycles", "ms", "share", "MB moved", "PE util"
        );
        for st in &self.stages {
            let _ = writeln!(
                s,
                "{:<24} {:>14} {:>9.3} {:>6.1}% {:>9.2} {:>7.1}%",
                st.name,
                st.makespan_cycles,
                st.seconds * 1e3,
                st.makespan_cycles as f64 / total as f64 * 100.0,
                st.bytes_moved as f64 / (1024.0 * 1024.0),
                st.utilization() * 100.0,
            );
        }
        let _ = writeln!(
            s,
            "{:<24} {:>14} {:>9.3}",
            "TOTAL",
            self.total_cycles(),
            self.total_seconds() * 1e3
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, cycles: u64, busy: Vec<u64>) -> StageReport {
        StageReport {
            name: name.into(),
            makespan_cycles: cycles,
            seconds: cycles as f64 / 3.2e9,
            busy_cycles: busy,
            tasks_run: vec![],
            bytes_moved: 1024,
            dma_requests: 3,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let mut t = Timeline::default();
        t.push(stage("dwt-v", 600, vec![600, 600]));
        t.push(stage("tier1", 400, vec![200, 100]));
        assert_eq!(t.total_cycles(), 1000);
        assert_eq!(t.cycles_matching("dwt"), 600);
        assert!((t.fraction_matching("tier1") - 0.4).abs() < 1e-12);
    }

    #[test]
    fn utilization_math() {
        let s = stage("x", 1000, vec![500, 1000]);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_contains_stages() {
        let mut t = Timeline::default();
        t.push(stage("quantize", 100, vec![100]));
        let r = t.render();
        assert!(r.contains("quantize"));
        assert!(r.contains("TOTAL"));
    }
}
