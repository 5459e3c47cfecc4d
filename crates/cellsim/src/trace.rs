//! Chrome-trace export of simulated stage schedules.
//!
//! Timestamps live on the **virtual clock**: the DES's cycle counter
//! converted to nanoseconds at the machine's clock rate, not wall time.
//! Each simulated PE gets two tracks — one for compute spans and one
//! for DMA (GET/PUT) spans — so double-buffered overlap is visible as
//! a GET running concurrently with the previous task's compute, which
//! is exactly the phenomenon the paper's multi-buffering buys. Track 0
//! carries one span per pipeline stage. The JSON loads directly in
//! Perfetto / `chrome://tracing` and parses with `obs::chrome::check`.

use crate::config::MachineConfig;
use crate::cost::ProcKind;
use crate::stage::{StageOutcome, TaskEvent};
use crate::Cycles;
use obs::trace::Event;
use std::borrow::Cow;

/// One simulated stage placed on the pipeline's shared clock.
#[derive(Debug, Clone)]
pub struct StageTrace {
    /// Stage name (the span on track 0).
    pub name: String,
    /// Cycle offset of the stage start on the pipeline clock.
    pub offset: Cycles,
    /// Stage makespan in cycles.
    pub makespan: Cycles,
    /// The PEs that ran the stage (names the per-PE tracks).
    pub pes: Vec<ProcKind>,
    /// Per-task schedule from [`crate::stage::run_stage_traced`].
    pub events: Vec<TaskEvent>,
}

/// An accumulating schedule trace over a sequence of stages.
///
/// Stages recorded through [`ScheduleTrace::record`] are laid end to
/// end on the virtual clock (offset advances by each stage's
/// makespan), matching how the sequential pipeline driver runs them.
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    /// Chip clock used to convert cycles to nanoseconds.
    pub clock_hz: f64,
    stages: Vec<StageTrace>,
    cursor: Cycles,
}

impl ScheduleTrace {
    /// An empty trace on `cfg`'s clock.
    pub fn new(cfg: &MachineConfig) -> ScheduleTrace {
        ScheduleTrace {
            clock_hz: cfg.clock_hz,
            stages: Vec::new(),
            cursor: 0,
        }
    }

    /// Append a stage at the current cursor and advance it by the
    /// stage's makespan.
    pub fn record(
        &mut self,
        name: &str,
        pes: &[ProcKind],
        outcome: &StageOutcome,
        events: Vec<TaskEvent>,
    ) {
        self.stages.push(StageTrace {
            name: name.to_string(),
            offset: self.cursor,
            makespan: outcome.makespan,
            pes: pes.to_vec(),
            events,
        });
        self.cursor += outcome.makespan;
    }

    /// The recorded stages.
    pub fn stages(&self) -> &[StageTrace] {
        &self.stages
    }

    /// Total simulated cycles across recorded stages.
    pub fn total_cycles(&self) -> Cycles {
        self.cursor
    }

    fn cycles_to_ns(&self, c: Cycles) -> u64 {
        (c as f64 * 1e9 / self.clock_hz).round() as u64
    }

    /// Flatten into [`obs::trace::Event`]s on the virtual clock.
    ///
    /// Track ids: 0 is the stage track; PE `i` owns compute track
    /// `1 + 2i` and DMA track `2 + 2i`.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for st in &self.stages {
            let base = st.offset;
            out.push(Event {
                trace_id: 0,
                name: Cow::Owned(format!("stage:{}", st.name)),
                cat: "stage",
                ts_ns: self.cycles_to_ns(base),
                dur_ns: Some(self.cycles_to_ns(st.makespan)),
                tid: 0,
                args: vec![("pes", st.pes.len() as u64)],
            });
            for t in &st.events {
                let compute_tid = 1 + 2 * t.pe as u64;
                let dma_tid = 2 + 2 * t.pe as u64;
                if t.dma_in > 0 {
                    out.push(Event {
                        trace_id: 0,
                        name: Cow::Owned(format!("get:{}", t.kernel.name())),
                        cat: "dma",
                        ts_ns: self.cycles_to_ns(base + t.fetch_issue),
                        dur_ns: Some(self.cycles_to_ns(t.fetch_done.saturating_sub(t.fetch_issue))),
                        tid: dma_tid,
                        args: vec![("bytes", t.dma_in)],
                    });
                }
                out.push(Event {
                    trace_id: 0,
                    name: Cow::Borrowed(t.kernel.name()),
                    cat: "compute",
                    ts_ns: self.cycles_to_ns(base + t.compute_start),
                    dur_ns: Some(self.cycles_to_ns(t.compute_end.saturating_sub(t.compute_start))),
                    tid: compute_tid,
                    args: vec![("items", t.items)],
                });
                if t.dma_out > 0 {
                    out.push(Event {
                        trace_id: 0,
                        name: Cow::Owned(format!("put:{}", t.kernel.name())),
                        cat: "dma",
                        ts_ns: self.cycles_to_ns(base + t.compute_end),
                        dur_ns: Some(self.cycles_to_ns(t.put_done.saturating_sub(t.compute_end))),
                        tid: dma_tid,
                        args: vec![("bytes", t.dma_out)],
                    });
                }
            }
        }
        out
    }

    /// Render as Chrome trace-event JSON (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        obs::chrome::render(&self.to_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Kernel;
    use crate::stage::{run_stage_traced, Assignment, TaskSpec};
    use crate::DmaClass;

    fn demo_trace() -> ScheduleTrace {
        let cfg = MachineConfig::qs20_single();
        let task = TaskSpec {
            kernel: Kernel::Tier1,
            items: 1000,
            dma_in: 4096,
            dma_out: 2048,
            class: DmaClass::LineOptimal,
        };
        let pes = vec![ProcKind::Spe, ProcKind::Spe];
        let (out, ev) = run_stage_traced(&cfg, &pes, &Assignment::Queue(vec![task; 8]), 2);
        let mut tr = ScheduleTrace::new(&cfg);
        tr.record("tier1", &pes, &out, ev);
        tr
    }

    #[test]
    fn task_events_are_causally_ordered() {
        let tr = demo_trace();
        let st = &tr.stages()[0];
        assert_eq!(st.events.len(), 8);
        for t in &st.events {
            assert!(t.fetch_issue <= t.fetch_done, "{t:?}");
            assert!(t.fetch_done <= t.compute_start, "{t:?}");
            assert!(t.compute_start < t.compute_end, "{t:?}");
            assert!(t.compute_end <= t.put_done, "{t:?}");
            assert!(t.put_done <= st.makespan, "{t:?}");
            assert!(t.pe < 2, "{t:?}");
        }
    }

    #[test]
    fn compute_spans_on_one_pe_never_overlap() {
        let tr = demo_trace();
        let st = &tr.stages()[0];
        for pe in 0..2 {
            let mut spans: Vec<(Cycles, Cycles)> = st
                .events
                .iter()
                .filter(|t| t.pe == pe)
                .map(|t| (t.compute_start, t.compute_end))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on pe {pe}: {w:?}");
            }
        }
    }

    #[test]
    fn chrome_export_parses_and_checks() {
        let tr = demo_trace();
        let json = tr.to_chrome_json();
        let events = obs::chrome::parse(&json).expect("parse");
        // 1 stage span + 8 * (get + compute + put).
        assert_eq!(events.len(), 1 + 8 * 3);
        obs::chrome::check(&json, &["stage:tier1", "tier1", "get:tier1"]).expect("check");
        // Tracks: stage track 0 plus compute/DMA pairs for 2 PEs.
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert!(tids.contains(&0));
        assert!(tids.len() >= 3, "{tids:?}");
    }

    #[test]
    fn stages_lay_end_to_end() {
        let cfg = MachineConfig::qs20_single();
        let pes = vec![ProcKind::Spe];
        let (o1, e1) = run_stage_traced(
            &cfg,
            &pes,
            &Assignment::Static(vec![vec![TaskSpec::compute_only(Kernel::Quantize, 5000)]]),
            1,
        );
        let (o2, e2) = run_stage_traced(
            &cfg,
            &pes,
            &Assignment::Static(vec![vec![TaskSpec::compute_only(Kernel::Tier1, 5000)]]),
            1,
        );
        let mut tr = ScheduleTrace::new(&cfg);
        tr.record("quantize", &pes, &o1, e1);
        tr.record("tier1", &pes, &o2, e2);
        assert_eq!(tr.total_cycles(), o1.makespan + o2.makespan);
        assert_eq!(tr.stages()[1].offset, o1.makespan);
        // The second stage's compute span starts after the first ends.
        let evs = tr.to_events();
        let q = evs.iter().find(|e| e.name == "quantize").unwrap();
        let t = evs.iter().find(|e| e.name == "tier1").unwrap();
        assert!(t.ts_ns >= q.ts_ns + q.dur_ns.unwrap());
    }
}
