//! The shared `BENCH_*.json` envelope.
//!
//! Every bench emitter used to write an ad-hoc JSON shape. A
//! [`BenchReport`] is the common envelope: a bench name, a timestamp, a
//! flat list of named scalar [`Metric`]s each tagged with the direction
//! that is *better*, and the emitter's full original JSON preserved
//! verbatim under `detail`. The workspace builds offline without serde,
//! so serialization is hand-rolled here. Nothing in the workspace reads
//! the envelopes back: they are CI artifacts, and the regression gate
//! is the repository benchmark's `--compare`.

/// Which way a metric is *better*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, speedup).
    Higher,
    /// Smaller is better (latency, bytes, share).
    Lower,
}

impl Direction {
    /// Stable wire name (`higher` / `lower`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }
}

/// One tracked scalar.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable metric name within the bench (`ht_samples_per_sec`, ...).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Which way is better.
    pub dir: Direction,
}

/// The shared envelope written by every `BENCH_*.json` emitter.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Bench name (`tier1_scaling`, `decode_scaling`, `serve_load`).
    pub bench: String,
    /// Milliseconds since the Unix epoch at emit time (0 when unknown).
    pub unix_ms: u64,
    /// Raw JSON object with the run configuration, verbatim.
    pub config: String,
    /// Tracked scalars.
    pub metrics: Vec<Metric>,
    /// The emitter's full bench-specific JSON, verbatim (`null` if none).
    pub detail: String,
}

impl BenchReport {
    /// An empty report for `bench` stamped with the current wall clock.
    pub fn new(bench: &str) -> BenchReport {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        BenchReport {
            bench: bench.to_string(),
            unix_ms,
            config: "{}".to_string(),
            metrics: Vec::new(),
            detail: "null".to_string(),
        }
    }

    /// Add one tracked metric (builder style).
    pub fn metric(mut self, name: &str, value: f64, dir: Direction) -> BenchReport {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            dir,
        });
        self
    }

    /// Attach the raw JSON config object (must be valid JSON; stored
    /// verbatim).
    pub fn config(mut self, raw_json: &str) -> BenchReport {
        self.config = raw_json.to_string();
        self
    }

    /// Attach the emitter's full bench-specific JSON (stored verbatim).
    pub fn detail(mut self, raw_json: &str) -> BenchReport {
        self.detail = raw_json.to_string();
        self
    }

    /// One-line JSON envelope.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"value\":{},\"dir\":\"{}\"}}",
                    obs::json_escape(&m.name),
                    fmt_f64(m.value),
                    m.dir.as_str()
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"bench-report/v1\",\"bench\":\"{}\",\"unix_ms\":{},\
             \"config\":{},\"metrics\":[{}],\"detail\":{}}}",
            obs::json_escape(&self.bench),
            self.unix_ms,
            self.config,
            metrics.join(","),
            self.detail
        )
    }
}

/// Render an f64 as a JSON number (JSON numbers may not be NaN/inf;
/// those degrade to 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_json_writes_the_envelope_exactly() {
        let r = BenchReport {
            unix_ms: 1_700_000_000_000,
            ..BenchReport::new("na\"me")
        }
        .config("{\"a\":{\"b\":[1,2,{\"c\":\"}\"}]}}")
        .metric("mpix_per_s", 1.25e8, Direction::Higher)
        .metric("e2e_ms", 42.5, Direction::Lower)
        .metric("nan", f64::NAN, Direction::Lower)
        .detail("{\"s\":\"[{\\\"t\\\":1}]\"}");
        assert_eq!(
            r.to_json(),
            "{\"schema\":\"bench-report/v1\",\"bench\":\"na\\\"me\",\"unix_ms\":1700000000000,\
             \"config\":{\"a\":{\"b\":[1,2,{\"c\":\"}\"}]}},\
             \"metrics\":[{\"name\":\"mpix_per_s\",\"value\":125000000,\"dir\":\"higher\"},\
             {\"name\":\"e2e_ms\",\"value\":42.5,\"dir\":\"lower\"},\
             {\"name\":\"nan\",\"value\":0,\"dir\":\"lower\"}],\
             \"detail\":{\"s\":\"[{\\\"t\\\":1}]\"}}"
        );
    }
}
