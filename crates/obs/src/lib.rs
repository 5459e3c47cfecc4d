//! `obs` — zero-dependency observability for the JPEG2000 pipeline.
//!
//! Two halves, both hand-rolled for the offline build:
//!
//! * [`trace`] — per-thread span recorders behind one global enable flag.
//!   Every recording site starts with a relaxed atomic load; while tracing
//!   is disabled that load is the *entire* cost (the span constructor
//!   returns a disarmed guard and `Drop` is a no-op), mirroring the
//!   stub discipline of `faultsim` but switchable at runtime so stock
//!   builds can honour `--trace-out`. Armed threads push events into a
//!   thread-local buffer — no locks, no allocation beyond the `Vec` —
//!   which drains into a bounded global sink on thread exit or explicit
//!   flush. [`chrome`] renders the sink as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto).
//!
//! * [`hist`] — a fixed 64-bucket log₂ histogram (`AtomicU64` buckets,
//!   no floats on the record path) plus a named-series [`Registry`].
//!   [`prom`] renders a registry in Prometheus text exposition format
//!   0.0.4 and validates scraped output for tests.
//!
//! Per-layer timing is the trace spans and the histograms fed from the
//! encode driver's stage times.

pub mod chrome;
pub mod hist;
pub mod prom;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, HistogramStats, Registry};
pub use trace::Span;

/// Escape `s` for embedding inside a JSON string literal (quotes not
/// included). Handles quotes, backslashes and control characters.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("uni\u{e9}"), "uni\u{e9}");
    }
}
