//! Prometheus text exposition (format 0.0.4): render counters, gauges
//! and [`HistogramSnapshot`]s, and validate scraped output — the
//! validator backs the serve tests and the `j2kserved` test's scrape.

use crate::hist::{bucket_upper, HistogramSnapshot, BUCKETS};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    debug_assert!(valid_name(name), "bad metric name {name:?}");
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Append a counter sample.
pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "counter");
    out.push_str(&format!("{name} {value}\n"));
}

/// Append a gauge sample.
pub fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "gauge");
    out.push_str(&format!("{name} {value}\n"));
}

/// Append a histogram family: cumulative `_bucket{le="..."}` samples
/// for every finite bound of the 64-bucket layout, the mandatory
/// `le="+Inf"` bucket, `_sum`, and `_count`. Bucket bounds are the log₂
/// bucket upper bounds, emitted as integers. Every scrape carries the same
/// bounds, so a rule reading one `le` series finds it from the first
/// scrape on, before any observation reaches it.
pub fn histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    header(out, name, help, "histogram");
    let mut cumulative = 0u64;
    for (i, n) in snap.buckets[..BUCKETS - 1].iter().enumerate() {
        cumulative += n;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket_upper(i)
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
    out.push_str(&format!("{name}_sum {}\n", snap.sum));
    out.push_str(&format!("{name}_count {}\n", snap.count));
}

/// Parse the interior of a `{...}` label block into (name, unescaped
/// value) pairs, rejecting malformed label syntax: unquoted values,
/// bad label names, bad escapes, unterminated strings.
fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let bytes = block.as_bytes();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let name_start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err("label without '='".into());
        }
        let name = &block[name_start..pos];
        if !valid_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        pos += 1; // '='
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("label {name} value not quoted"));
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err(format!("label {name}: unterminated value")),
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        other => {
                            return Err(format!(
                                "label {name}: bad escape \\{}",
                                other.map_or(' ', |&b| b as char)
                            ))
                        }
                    }
                    pos += 2;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar.
                    let rest = &block[pos..];
                    let c = rest.chars().next().expect("non-empty");
                    value.push(c);
                    pos += c.len_utf8();
                }
            }
        }
        out.push((name.to_string(), value));
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            Some(&b) => return Err(format!("expected ',' between labels, got {:?}", b as char)),
        }
    }
    Ok(out)
}

/// Validate Prometheus text exposition: line syntax, metric-name
/// syntax, label syntax and value escaping, numeric sample values, and
/// histogram invariants (buckets cumulative and non-decreasing, `+Inf`
/// bucket present and equal to `_count`). Returns the number of samples
/// checked.
pub fn validate(text: &str) -> Result<usize, String> {
    struct HistState {
        last_cum: u64,
        inf: Option<u64>,
        count: Option<u64>,
    }
    let mut hists: Vec<(String, HistState)> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            // HELP / TYPE / arbitrary comments are all legal.
            continue;
        }
        // sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: non-numeric value {value:?}", lineno + 1))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let rest = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels", lineno + 1))?;
                (n, Some(rest))
            }
            None => (series, None),
        };
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        let labels = match labels {
            Some(block) => Some(
                parse_labels(block).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?,
            ),
            None => None,
        };
        samples += 1;

        if let Some(base) = name.strip_suffix("_bucket") {
            let labels =
                labels.ok_or_else(|| format!("line {}: _bucket without labels", lineno + 1))?;
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {}: _bucket without le label", lineno + 1))?;
            let cum = value as u64;
            let st = match hists.iter_mut().find(|(n, _)| n == base) {
                Some((_, st)) => st,
                None => {
                    hists.push((
                        base.to_string(),
                        HistState {
                            last_cum: 0,
                            inf: None,
                            count: None,
                        },
                    ));
                    &mut hists.last_mut().expect("just pushed").1
                }
            };
            if le == "+Inf" {
                if cum < st.last_cum {
                    return Err(format!("{base}: +Inf bucket below prior cumulative"));
                }
                st.inf = Some(cum);
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("{base}: non-numeric le {le:?}"))?;
                if cum < st.last_cum {
                    return Err(format!("{base}: bucket counts not cumulative at le={le}"));
                }
                st.last_cum = cum;
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some((_, st)) = hists.iter_mut().find(|(n, _)| n == base) {
                st.count = Some(value as u64);
            }
        }
    }
    for (name, st) in &hists {
        let inf = st
            .inf
            .ok_or_else(|| format!("{name}: histogram missing +Inf bucket"))?;
        if let Some(count) = st.count {
            if inf != count {
                return Err(format!("{name}: +Inf bucket {inf} != _count {count}"));
            }
        } else {
            return Err(format!("{name}: histogram missing _count"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn renders_and_validates() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 900, 70_000] {
            h.record(v);
        }
        let mut out = String::new();
        counter(&mut out, "j2k_jobs_completed_total", "Jobs completed.", 5);
        gauge(&mut out, "j2k_queue_depth", "Queued jobs.", 2);
        histogram(
            &mut out,
            "j2k_job_e2e_us",
            "End-to-end latency.",
            &h.snapshot(),
        );
        let n = validate(&out).expect("well-formed");
        assert!(n >= 6, "samples checked: {n}");
        assert!(out.contains("j2k_job_e2e_us_bucket{le=\"+Inf\"} 5"));
        assert!(out.contains("j2k_job_e2e_us_count 5"));
        assert!(out.contains("# TYPE j2k_job_e2e_us histogram"));
    }

    #[test]
    fn buckets_are_cumulative() {
        let h = Histogram::new();
        h.record(1);
        h.record(2);
        h.record(2);
        let mut out = String::new();
        histogram(&mut out, "m", "h", &h.snapshot());
        assert!(out.contains("m_bucket{le=\"1\"} 1\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"3\"} 3\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"+Inf\"} 3\n"), "{out}");
    }

    #[test]
    fn every_finite_bound_is_on_every_scrape() {
        let h = Histogram::new();
        h.record(5);
        let mut out = String::new();
        histogram(&mut out, "m", "h", &h.snapshot());
        validate(&out).expect("well-formed");
        let bounds: Vec<&str> = out
            .lines()
            .filter_map(|l| l.strip_prefix("m_bucket{le=\""))
            .map(|l| &l[..l.find('"').unwrap()])
            .collect();
        assert_eq!(bounds.len(), BUCKETS, "{out}");
        assert_eq!(bounds[0], "0");
        assert_eq!(bounds[BUCKETS - 2], ((1u64 << 62) - 1).to_string());
        assert_eq!(bounds[BUCKETS - 1], "+Inf");
        // Below the observation the count is 0, from its bucket on 1.
        assert!(out.contains("m_bucket{le=\"3\"} 0\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"7\"} 1\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"1023\"} 1\n"), "{out}");
    }

    #[test]
    fn empty_histogram_still_valid() {
        let mut out = String::new();
        histogram(&mut out, "m_empty", "h", &Histogram::new().snapshot());
        validate(&out).expect("empty histogram is well-formed");
        assert!(out.contains("m_empty_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn validator_rejects_malformed_labels() {
        assert!(validate("m{k=unquoted} 1\n").is_err(), "unquoted value");
        assert!(validate("m{k=\"open 1\n").is_err(), "unterminated value");
        assert!(validate("m{1bad=\"v\"} 1\n").is_err(), "bad label name");
        assert!(validate("m{k=\"a\\q\"} 1\n").is_err(), "bad escape");
        assert!(
            validate("m{k=\"a\"extra=\"b\"} 1\n").is_err(),
            "missing comma"
        );
        assert!(validate("m{k=\"a\",j=\"b\"} 1\n").is_ok(), "two labels ok");
        assert!(
            validate(r#"m{k="we\"ird\\name\nx"} 7"#).is_ok(),
            "escaped quote, backslash and newline"
        );
    }

    #[test]
    fn validator_catches_breakage() {
        assert!(validate("not a metric line at all\n").is_err());
        assert!(validate("1bad_name 3\n").is_err());
        assert!(validate(
            "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\nm_count 5\n"
        )
        .is_err());
        assert!(
            validate("m_bucket{le=\"+Inf\"} 4\nm_count 5\n").is_err(),
            "+Inf != count rejected"
        );
        assert!(
            validate("m_bucket{le=\"1\"} 5\nm_count 5\n").is_err(),
            "missing +Inf"
        );
        assert!(validate("m 12.5\n# random comment\n").is_ok());
    }
}
