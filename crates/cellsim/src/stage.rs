//! Discrete-event execution of one pipeline stage.
//!
//! A stage is a set of tasks executed by a set of processing elements.
//! Tasks either come pre-assigned per PE (the data decomposition scheme's
//! static chunks) or are pulled from a shared work queue (Tier-1's dynamic
//! load balancing). Each task optionally GETs input, computes, and PUTs
//! output; transfers go through the shared [`MemBus`], and multi-buffering
//! lets a PE overlap the next task's GET with the current compute.

use crate::config::MachineConfig;
use crate::cost::{self, Kernel, ProcKind};
use crate::des::{DmaClass, MemBus};
use crate::timeline::StageReport;
use crate::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One schedulable unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Kernel class (drives per-PE compute cost).
    pub kernel: Kernel,
    /// Work items (samples / decisions / bytes — see [`Kernel`] docs).
    pub items: u64,
    /// Bytes transferred in before compute.
    pub dma_in: u64,
    /// Bytes transferred out after compute.
    pub dma_out: u64,
    /// Alignment class of both transfers.
    pub class: DmaClass,
}

impl TaskSpec {
    /// A compute-only task.
    pub fn compute_only(kernel: Kernel, items: u64) -> Self {
        TaskSpec {
            kernel,
            items,
            dma_in: 0,
            dma_out: 0,
            class: DmaClass::LineOptimal,
        }
    }
}

/// How tasks map onto PEs.
#[derive(Debug, Clone)]
pub enum Assignment {
    /// `lists[i]` executes on PE `i` in order (static decomposition).
    Static(Vec<Vec<TaskSpec>>),
    /// All PEs pull from one shared queue (dynamic load balancing).
    Queue(Vec<TaskSpec>),
}

/// Result of simulating a stage.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// Stage wall time in cycles (all compute and DMA drained).
    pub makespan: Cycles,
    /// Per-PE compute-busy cycles.
    pub busy: Vec<Cycles>,
    /// Per-PE executed task counts.
    pub tasks_run: Vec<usize>,
    /// Total bytes through the memory bus.
    pub bytes: u64,
    /// Bus service time (cycles).
    pub bus_busy: Cycles,
    /// Number of DMA requests.
    pub dma_requests: u64,
}

impl StageOutcome {
    /// Convert to a named report at a given clock.
    pub fn report(&self, name: &str, cfg: &MachineConfig) -> StageReport {
        StageReport {
            name: name.to_string(),
            makespan_cycles: self.makespan,
            seconds: cfg.cycles_to_secs(self.makespan),
            busy_cycles: self.busy.clone(),
            tasks_run: self.tasks_run.clone(),
            bytes_moved: self.bytes,
            dma_requests: self.dma_requests,
        }
    }
}

/// The simulated lifetime of one task on the virtual clock: when its GET
/// was issued and landed, when compute ran, and when the PUT drained.
/// All times are cycles on the stage's local clock (0 = stage start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEvent {
    /// PE that executed the task.
    pub pe: usize,
    /// Kernel class (for span naming).
    pub kernel: Kernel,
    /// Work items computed.
    pub items: u64,
    /// Cycle the GET was issued (bus queueing starts here).
    pub fetch_issue: Cycles,
    /// Cycle the GET completed (data resident in the Local Store).
    pub fetch_done: Cycles,
    /// Cycle compute started (>= fetch_done; waits for the PE).
    pub compute_start: Cycles,
    /// Cycle compute finished.
    pub compute_end: Cycles,
    /// Cycle the PUT completed (== compute_end when `dma_out` is 0).
    pub put_done: Cycles,
    /// Bytes transferred in.
    pub dma_in: u64,
    /// Bytes transferred out.
    pub dma_out: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// GET finished for (pe, slot-in-fetched-queue is implicit).
    FetchDone { pe: usize, task: usize },
    /// Compute finished for (pe, task).
    ComputeDone { pe: usize, task: usize },
}

/// Per-PE in-flight limit by buffering level (1 = no overlap, 2 = double
/// buffering, ...). The Local Store constraint that makes levels > 1 legal
/// is checked by the *planner* (chunk width x buffering <= LS budget); this
/// runner trusts the plan.
pub fn run_stage(
    cfg: &MachineConfig,
    pes: &[ProcKind],
    assignment: &Assignment,
    buffering: usize,
) -> StageOutcome {
    run_stage_traced(cfg, pes, assignment, buffering).0
}

/// [`run_stage`] that also returns the per-task schedule: one
/// [`TaskEvent`] per task, in task order, timestamped on the stage's
/// virtual clock. This is the raw material for the Chrome-trace export
/// in [`crate::trace`]; `run_stage` itself discards it.
pub fn run_stage_traced(
    cfg: &MachineConfig,
    pes: &[ProcKind],
    assignment: &Assignment,
    buffering: usize,
) -> (StageOutcome, Vec<TaskEvent>) {
    let npe = pes.len();
    let buffering = buffering.max(1);
    let mut bus = MemBus::new(cfg);

    // Task storage: flattened, with per-PE index lists (static) or a shared
    // cursor (queue).
    let (tasks, mut static_lists, queue_mode): (
        Vec<TaskSpec>,
        Vec<std::collections::VecDeque<usize>>,
        bool,
    ) = match assignment {
        Assignment::Static(lists) => {
            assert_eq!(lists.len(), npe, "one task list per PE");
            let mut flat = Vec::new();
            let mut idx = Vec::new();
            for l in lists {
                let mut q = std::collections::VecDeque::new();
                for t in l {
                    q.push_back(flat.len());
                    flat.push(*t);
                }
                idx.push(q);
            }
            (flat, idx, false)
        }
        Assignment::Queue(list) => {
            let mut q = std::collections::VecDeque::new();
            for i in 0..list.len() {
                q.push_back(i);
            }
            let mut lists = vec![std::collections::VecDeque::new(); npe];
            lists[0] = q; // shared queue stored in slot 0
            (list.clone(), lists, true)
        }
    };

    // Per-task schedule record, filled in as the DES fires.
    let mut tev: Vec<TaskEvent> = tasks
        .iter()
        .map(|t| TaskEvent {
            pe: 0,
            kernel: t.kernel,
            items: t.items,
            fetch_issue: 0,
            fetch_done: 0,
            compute_start: 0,
            compute_end: 0,
            put_done: 0,
            dma_in: t.dma_in,
            dma_out: t.dma_out,
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<(Cycles, u64, usize, Ev)>> = BinaryHeap::new();
    let mut seq: u64 = 0; // tie-breaker for determinism

    // Per-PE state.
    let mut fetched: Vec<std::collections::VecDeque<(usize, Cycles)>> =
        vec![std::collections::VecDeque::new(); npe];
    let mut in_flight = vec![0usize; npe];
    let mut computing = vec![false; npe];
    let mut busy = vec![0u64; npe];
    let mut tasks_run = vec![0usize; npe];
    let mut makespan: Cycles = 0;

    // Pop the next task index for `pe`, honoring queue vs static mode.
    macro_rules! next_task {
        ($pe:expr) => {
            if queue_mode {
                static_lists[0].pop_front()
            } else {
                static_lists[$pe].pop_front()
            }
        };
    }

    // Issue a fetch for PE `pe` at time `now` if capacity and work remain.
    macro_rules! try_fetch {
        ($pe:expr, $now:expr) => {
            while in_flight[$pe] < buffering {
                match next_task!($pe) {
                    Some(t) => {
                        in_flight[$pe] += 1;
                        let done = bus.request($now, tasks[t].dma_in, tasks[t].class);
                        tev[t].pe = $pe;
                        tev[t].fetch_issue = $now;
                        tev[t].fetch_done = done;
                        seq += 1;
                        heap.push(Reverse((
                            done,
                            seq,
                            $pe,
                            Ev::FetchDone { pe: $pe, task: t },
                        )));
                        if queue_mode {
                            // Queue mode pulls one task at a time (no
                            // prefetch of an unknown next assignment).
                            break;
                        }
                    }
                    None => break,
                }
            }
        };
    }

    for pe in 0..npe {
        try_fetch!(pe, 0);
    }

    while let Some(Reverse((now, _, _, ev))) = heap.pop() {
        makespan = makespan.max(now);
        match ev {
            Ev::FetchDone { pe, task } => {
                fetched[pe].push_back((task, now));
                if !computing[pe] {
                    let (t, ready) = fetched[pe].pop_front().expect("just pushed");
                    let start = now.max(ready);
                    let dur = cost::cycles(pes[pe], tasks[t].kernel, tasks[t].items);
                    computing[pe] = true;
                    busy[pe] += dur;
                    tev[t].compute_start = start;
                    tev[t].compute_end = start + dur;
                    seq += 1;
                    heap.push(Reverse((
                        start + dur,
                        seq,
                        pe,
                        Ev::ComputeDone { pe, task: t },
                    )));
                }
            }
            Ev::ComputeDone { pe, task } => {
                tasks_run[pe] += 1;
                in_flight[pe] -= 1;
                let put_done = bus.request(now, tasks[task].dma_out, tasks[task].class);
                tev[task].put_done = put_done;
                makespan = makespan.max(put_done);
                // Start the next fetched task, if any.
                if let Some((t, ready)) = fetched[pe].pop_front() {
                    let start = now.max(ready);
                    let dur = cost::cycles(pes[pe], tasks[t].kernel, tasks[t].items);
                    busy[pe] += dur;
                    tev[t].compute_start = start;
                    tev[t].compute_end = start + dur;
                    seq += 1;
                    heap.push(Reverse((
                        start + dur,
                        seq,
                        pe,
                        Ev::ComputeDone { pe, task: t },
                    )));
                } else {
                    computing[pe] = false;
                }
                try_fetch!(pe, now);
            }
        }
    }

    (
        StageOutcome {
            makespan,
            busy,
            tasks_run,
            bytes: bus.bytes_moved(),
            bus_busy: bus.busy_cycles(),
            dma_requests: bus.requests(),
        },
        tev,
    )
}

#[cfg(test)]
mod traced_tests {
    use super::*;

    #[test]
    fn run_stage_matches_traced_outcome() {
        let cfg = MachineConfig::qs20_single();
        let ts: Vec<TaskSpec> = (1..10)
            .map(|i| TaskSpec {
                kernel: Kernel::Tier1,
                items: i * 500,
                dma_in: 4096,
                dma_out: 4096,
                class: DmaClass::LineOptimal,
            })
            .collect();
        let pes = vec![ProcKind::Spe; 3];
        let plain = run_stage(&cfg, &pes, &Assignment::Queue(ts.clone()), 2);
        let (traced, events) = run_stage_traced(&cfg, &pes, &Assignment::Queue(ts), 2);
        assert_eq!(plain.makespan, traced.makespan);
        assert_eq!(plain.tasks_run, traced.tasks_run);
        assert_eq!(events.len(), 9);
        // Every task's busy window is accounted to the PE that ran it.
        let mut busy = vec![0u64; 3];
        for e in &events {
            busy[e.pe] += e.compute_end - e.compute_start;
        }
        assert_eq!(busy, traced.busy);
    }
}

/// Convenience: run a purely sequential stage (one PE, compute only).
pub fn run_sequential(
    cfg: &MachineConfig,
    pe: ProcKind,
    kernel: Kernel,
    items: u64,
) -> StageOutcome {
    run_stage(
        cfg,
        &[pe],
        &Assignment::Static(vec![vec![TaskSpec::compute_only(kernel, items)]]),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::qs20_single()
    }

    fn task(items: u64, dma: u64) -> TaskSpec {
        TaskSpec {
            kernel: Kernel::Quantize,
            items,
            dma_in: dma,
            dma_out: dma,
            class: DmaClass::LineOptimal,
        }
    }

    #[test]
    fn single_pe_compute_only_sums() {
        let ts = vec![TaskSpec::compute_only(Kernel::Tier1, 100); 5];
        let out = run_stage(&cfg(), &[ProcKind::Spe], &Assignment::Static(vec![ts]), 1);
        // 5 tasks x 100 items x 64 cycles.
        assert_eq!(out.makespan, 5 * 6400);
        assert_eq!(out.busy[0], 5 * 6400);
        assert_eq!(out.tasks_run[0], 5);
        assert_eq!(out.bytes, 0);
    }

    #[test]
    fn two_pes_halve_compute_time() {
        let list: Vec<TaskSpec> = vec![TaskSpec::compute_only(Kernel::Quantize, 10_000); 8];
        let one = run_stage(
            &cfg(),
            &[ProcKind::Spe],
            &Assignment::Static(vec![list.clone()]),
            1,
        );
        let half: Vec<Vec<TaskSpec>> = vec![list[..4].to_vec(), list[4..].to_vec()];
        let two = run_stage(
            &cfg(),
            &[ProcKind::Spe, ProcKind::Spe],
            &Assignment::Static(half),
            1,
        );
        assert_eq!(two.makespan * 2, one.makespan);
    }

    #[test]
    fn bandwidth_bound_stage_saturates() {
        // Tiny compute, huge DMA: doubling the PEs cannot beat the bus.
        let mk = |n: usize| {
            let per = vec![task(1, 1 << 20); 4];
            let lists = vec![per; n];
            let pes = vec![ProcKind::Spe; n];
            run_stage(&cfg(), &pes, &Assignment::Static(lists), 2)
        };
        let t1 = mk(1);
        let t8 = mk(8);
        // 8x the data in at most ~8x... the bus limit means t8 >= ~ t1 * 8 * 0.9.
        let total_bytes_ratio = 8.0;
        assert!(
            (t8.makespan as f64) > (t1.makespan as f64) * total_bytes_ratio * 0.7,
            "t1={} t8={}",
            t1.makespan,
            t8.makespan
        );
    }

    #[test]
    fn double_buffering_hides_transfer_latency() {
        // Compute-dominated tasks: with buffering=2 the GETs overlap compute
        // and the makespan approaches pure compute time.
        let ts = vec![task(100_000, 64 * 1024); 6];
        let single = run_stage(
            &cfg(),
            &[ProcKind::Spe],
            &Assignment::Static(vec![ts.clone()]),
            1,
        );
        let double = run_stage(&cfg(), &[ProcKind::Spe], &Assignment::Static(vec![ts]), 2);
        assert!(double.makespan < single.makespan);
        let compute = 6 * cost::cycles(ProcKind::Spe, Kernel::Quantize, 100_000);
        // Within 10% of pure compute once transfers are hidden.
        assert!((double.makespan as f64) < compute as f64 * 1.10);
    }

    #[test]
    fn queue_balances_skewed_work() {
        // One huge task + many small: static contiguous split strands one PE
        // with the big task plus extras; the queue spreads the rest.
        let mut tasks_v = vec![TaskSpec::compute_only(Kernel::Tier1, 100_000)];
        tasks_v.extend(vec![TaskSpec::compute_only(Kernel::Tier1, 5_000); 15]);
        let pes = [ProcKind::Spe, ProcKind::Spe];
        let static_lists = vec![tasks_v[..8].to_vec(), tasks_v[8..].to_vec()];
        let st = run_stage(&cfg(), &pes, &Assignment::Static(static_lists), 1);
        let qu = run_stage(&cfg(), &pes, &Assignment::Queue(tasks_v), 1);
        assert!(
            qu.makespan < st.makespan,
            "queue {} vs static {}",
            qu.makespan,
            st.makespan
        );
    }

    #[test]
    fn queue_on_heterogeneous_pes_respects_speed() {
        // PPE is faster per Tier-1 symbol; with a queue it should complete
        // more tasks than an SPE.
        let tasks_v = vec![TaskSpec::compute_only(Kernel::Tier1, 10_000); 24];
        let pes = [ProcKind::Spe, ProcKind::Ppe];
        let out = run_stage(&cfg(), &pes, &Assignment::Queue(tasks_v), 1);
        assert!(out.tasks_run[1] > out.tasks_run[0]);
        assert_eq!(out.tasks_run[0] + out.tasks_run[1], 24);
    }

    #[test]
    fn work_conservation() {
        let ts: Vec<TaskSpec> = (1..20).map(|i| task(i * 1000, 4096)).collect();
        let pes = vec![ProcKind::Spe; 4];
        let out = run_stage(&cfg(), &pes, &Assignment::Queue(ts.clone()), 1);
        for pe in 0..4 {
            assert!(out.busy[pe] <= out.makespan);
        }
        let total: usize = out.tasks_run.iter().sum();
        assert_eq!(total, ts.len());
        let expected_bytes: u64 = ts.iter().map(|t| t.dma_in + t.dma_out).sum();
        assert_eq!(out.bytes, expected_bytes);
    }

    #[test]
    fn deterministic() {
        let ts: Vec<TaskSpec> = (1..50).map(|i| task(i * 137, (i % 7) * 2048)).collect();
        let pes = vec![ProcKind::Spe; 5];
        let a = run_stage(&cfg(), &pes, &Assignment::Queue(ts.clone()), 2);
        let b = run_stage(&cfg(), &pes, &Assignment::Queue(ts), 2);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_run, b.tasks_run);
    }

    #[test]
    fn sequential_helper() {
        let out = run_sequential(&cfg(), ProcKind::Ppe, Kernel::RateControl, 100);
        assert_eq!(out.makespan, 100 * 100);
    }
}
