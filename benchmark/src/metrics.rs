//! The metric catalogue and the per-run report.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions; a unit test keeps the two in step. Every run emits exactly
//! one catalogue: [`E2E`] without `--trace`, [`LAYER`] with it.

use crate::inputs::Workload;
use crate::json::quote;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric: its name, unit and better direction. `deterministic`
/// marks a value fixed by the seed alone, so two runs of one seed must
/// agree exactly.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub deterministic: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        deterministic: false,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, as a caller of the codec or the daemon sees them.
/// Medians and tails are printed as notes, not listed: on a shared host
/// their run-to-run spread is the host's (see `e2e`).
pub const E2E: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("encode_peak_mpix_s", "Mpix/s", Higher),
    m("decode_peak_mpix_s", "Mpix/s", Higher),
    MetricDef {
        deterministic: true,
        ..m("bits_per_pixel", "bit/px", Lower)
    },
];

/// Per-layer metrics from the traced run: each is the median over the
/// run's repetitions of one repetition's value.
pub const LAYER: &[MetricDef] = &[
    m("xpart.plane_convert_ms", "ms", Lower),
    m("core.mct_ms", "ms", Lower),
    m("wavelet.dwt_ms", "ms", Lower),
    m("core.quantize_ms", "ms", Lower),
    m("tier1.encode_ms", "ms", Lower),
    m("ebcot.rd_prep_ms", "ms", Lower),
    m("ebcot.lambda_search_ms", "ms", Lower),
    m("core.tier2_write_ms", "ms", Lower),
    m("encode.driver_ms", "ms", Lower),
    m("encode.residual_frac", "frac", Lower),
    m("core.tier2_parse_ms", "ms", Lower),
    m("tier1.decode_ms", "ms", Lower),
    m("core.dequantize_ms", "ms", Lower),
    m("wavelet.idwt_ms", "ms", Lower),
    m("core.imct_ms", "ms", Lower),
    m("decode.driver_ms", "ms", Lower),
    m("decode.residual_frac", "frac", Lower),
    m("tier1.symbols", "count", Lower),
    m("tier1.encode_msym_s", "Msym/s", Higher),
    m("ebcot.lambda_passes_examined", "count", Lower),
    m("core.rate_retries", "count", Lower),
    m("wavelet.dwt_gbps", "GB/s", Higher),
    m("core.sample_gbps", "GB/s", Higher),
    m("host.copy_gbps", "GB/s", Higher),
    m("core.parallel_speedup", "x", Higher),
    m("core.parallel_imbalance", "x", Lower),
    m("bench.trace_overhead_frac", "frac", Lower),
    m("serve.queue_wait_ms", "ms", Lower),
    m("serve.job_ms", "ms", Lower),
    m("serve.encode_req_ms", "ms", Lower),
    m("serve.decode_req_ms", "ms", Lower),
    m("serve.overhead_ms", "ms", Lower),
    m("serve.reply_gap_ms", "ms", Lower),
    m("serve.wire_encode_ms", "ms", Lower),
    m("serve.wire_parse_ms", "ms", Lower),
];

/// What one workload run produced: its operation tally, one value per
/// catalogue entry, and free-form notes (sample sizes, waterfalls).
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<Option<(f64, Option<usize>)>>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Report {
        let n = if trace { LAYER.len() } else { E2E.len() };
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            values: vec![None; n],
            notes: Vec::new(),
        }
    }

    /// The catalogue this run must fill.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            LAYER
        } else {
            E2E
        }
    }

    /// Set `name` from `samples` measurements (`None` when the value is
    /// not a statistic over samples). Panics on a name outside this run's
    /// catalogue: that is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let i = self
            .defs()
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in this run's catalogue"));
        self.values[i] = Some((value, samples));
    }

    /// Like [`Report::set`] for a statistic that may be undefined (too few
    /// samples); an undefined value stays unset and fails the run.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, samples: usize) {
        if let Some(v) = value {
            self.set(name, v, Some(samples));
        }
    }

    /// Count one attempted operation; a false `ok` counts it failed and
    /// prints why to stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("{}: check failed: {}", self.workload.name(), what());
        }
    }

    /// Add `note` unless an identical one is already there: a set-up that
    /// runs several times notes the same thing each time.
    pub fn note_once(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    /// Catalogue entries left unset or not finite. Each one fails the run.
    pub fn invalid(&self) -> Vec<&'static str> {
        self.defs()
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !matches!(v, Some((x, _)) if x.is_finite()))
            .map(|(d, _)| d.name)
            .collect()
    }

    /// Whether every check passed and every metric holds a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid().is_empty()
    }

    /// `workload metric value unit [n=samples]`, one line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.defs().iter().zip(&self.values) {
            let (value, n) = match v {
                Some((x, n)) => (format!("{x}"), n.map(|n| format!(" n={n}"))),
                None => ("missing".to_string(), None),
            };
            let _ = writeln!(
                out,
                "{} {} {} {}{}",
                self.workload.name(),
                d.name,
                value,
                d.unit,
                n.unwrap_or_default()
            );
        }
        out
    }

    /// The `metrics` object: `{"name": {"value": v, "unit": u}, ...}`.
    fn metrics_json(&self, with_samples: bool) -> String {
        let items: Vec<String> = self
            .defs()
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                let value = match v {
                    Some((x, _)) if x.is_finite() => format!("{x}"),
                    _ => "null".to_string(),
                };
                let samples = match v {
                    Some((_, Some(n))) if with_samples => format!(", \"samples\": {n}"),
                    _ => String::new(),
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}{samples}}}",
                    quote(d.name),
                    quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The one-line result object every run prints last.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed + self.invalid().len() as u64,
            self.metrics_json(false)
        )
    }

    /// The run's record under `benchmark/out/`: the result plus the
    /// workload, seed, sample counts and notes `--compare` reads back.
    pub fn record_json(&self, seconds: f64) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {seconds}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"notes\": [{}]}}\n",
            quote(self.workload.name()),
            self.seed,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed + self.invalid().len() as u64,
            self.metrics_json(true),
            notes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
    }

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &json::Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        let better = |b| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), better(d.better).into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), catalogue(E2E));
        assert_eq!(listed(&doc, "per_layer"), catalogue(LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        // `daemon_mixed` is held out of BENCHMARK.json: the daemon writes a
        // reply's header and payload separately on a socket without
        // TCP_NODELAY, so its short replies (the lossy encodes) wait for
        // the client's delayed ACK, and the workload's latencies measure
        // that timer more than the served path.
        let ours: Vec<String> = Workload::ALL
            .iter()
            .filter(|&&w| w != Workload::DaemonMixed)
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        for name in E2E.iter().chain(LAYER).map(|d| d.name).chain(workloads) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in E2E.iter().chain(LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                "{}",
                d.unit
            );
        }
    }

    #[test]
    fn bounds_are_within_the_allowed_range_and_setup_has_the_largest() {
        let doc = benchmark_json();
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(|v| v.as_str()).unwrap_or("");
                (
                    name.to_string(),
                    e.get("bound").and_then(|v| v.as_f64()).unwrap_or(-1.0),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, b) in &bounds {
            assert!((0.0..=0.25).contains(b), "{name} bound {b}");
            assert!(*b <= setup, "{name} bound {b} exceeds setup_s {setup}");
        }
    }

    #[test]
    fn report_fails_until_every_metric_is_set() {
        let mut r = Report::new(Workload::LossyHt, 7, false);
        assert!(!r.correct());
        for d in E2E {
            r.set(d.name, 1.5, Some(40));
        }
        assert!(r.correct());
        r.set("decode_peak_mpix_s", f64::NAN, None);
        assert_eq!(r.invalid(), vec!["decode_peak_mpix_s"]);
        let doc = json::parse(&r.result_line()).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let metrics = doc.get("metrics").unwrap().as_obj();
        assert_eq!(metrics.len(), E2E.len());
        assert_eq!(
            metrics[1].1.get("value").and_then(|v| v.as_f64()),
            Some(1.5)
        );
    }

    #[test]
    #[should_panic(expected = "not in this run's catalogue")]
    fn setting_a_metric_of_the_other_catalogue_panics() {
        Report::new(Workload::LosslessMq, 1, true).set("setup_s", 1.0, None);
    }
}
