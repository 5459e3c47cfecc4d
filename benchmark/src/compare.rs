//! `--compare A B`: whether two sets of untraced runs (the records the
//! runs leave under `benchmark/out/`, gathered into two directories) agree
//! within the regression bounds of `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{Better, MetricDef, E2E};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Not regressed, but the runs cannot show the metric held: A's own
    /// spread is wider than the bound, or a deterministic metric has no
    /// seed both sides ran.
    Unresolved,
    /// A deterministic metric differs on some seed both sides ran.
    Changed,
    /// B has no value of a metric A has.
    Missing,
}

/// Judge B against the base A for one metric. Values are `(seed, value)`.
pub fn verdict(def: &MetricDef, bound: f64, a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    if b.is_empty() {
        return Verdict::Missing;
    }
    if def.deterministic {
        let pairs: Vec<(f64, f64)> = a
            .iter()
            .flat_map(|&(s, x)| {
                b.iter()
                    .filter(move |&&(t, _)| s == t)
                    .map(move |&(_, y)| (x, y))
            })
            .collect();
        return if pairs.is_empty() {
            Verdict::Unresolved
        } else if pairs.iter().any(|(x, y)| x != y) {
            Verdict::Changed
        } else {
            Verdict::Within
        };
    }
    let values = |side: &[(u64, f64)]| side.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
        return Verdict::Unresolved;
    };
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let all_better = va.iter().all(|&x| {
        vb.iter().all(|&y| match def.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if worse > bound {
        Verdict::Regressed
    } else if spread(&va).is_none_or(|s| s > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// `(seed, value)` of each run, by `(workload, metric)`.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// The untraced run records in `dir`.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut out: BTreeMap<_, Vec<_>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let seed = doc.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        for (metric, v) in doc.get("metrics").map(Value::as_obj).unwrap_or(&[]) {
            if let Some(x) = v.get("value").and_then(Value::as_f64) {
                out.entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push((seed, x));
            }
        }
    }
    Ok(out)
}

/// Regression bound per end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text)?;
    Ok(doc
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Print one row per (workload, metric) of A and return whether every row
/// is [`Verdict::Within`].
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (base, new, bounds) = (load(a)?, load(b)?, bounds()?);
    if base.is_empty() {
        return Err(format!("{}: no untraced run records", a.display()));
    }
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread A", "bound"
    );
    for ((workload, metric), va) in &base {
        let Some(def) = E2E.iter().find(|d| d.name == *metric) else {
            continue;
        };
        let vb = new
            .get(&(workload.clone(), metric.clone()))
            .map_or(&[][..], Vec::as_slice);
        let bound = bounds.get(metric).copied().unwrap_or(0.0);
        let v = verdict(def, bound, va, vb);
        ok &= v == Verdict::Within;
        let values = |s: &[(u64, f64)]| s.iter().map(|&(_, x)| x).collect::<Vec<_>>();
        let (ma, mb) = (
            median(&values(va)).unwrap_or(f64::NAN),
            median(&values(vb)).unwrap_or(f64::NAN),
        );
        println!(
            "{workload:<14} {metric:<16} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {bound:>6.2}  {v:?}",
            100.0 * (mb - ma) / ma,
            100.0 * spread(&values(va)).unwrap_or(f64::NAN),
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::E2E;

    fn def(name: &str) -> &'static MetricDef {
        E2E.iter().find(|d| d.name == name).unwrap()
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn deterministic_metric_fails_on_any_change() {
        let bpp = def("bits_per_pixel");
        let a = runs(&[9.25, 8.5, 9.0]);
        assert_eq!(verdict(bpp, 0.05, &a, &a), Verdict::Within);
        // One seed moves by one part in a billion, in the better direction:
        // still a changed codestream.
        let mut b = a.clone();
        b[1].1 -= 8.5e-9;
        assert_eq!(verdict(bpp, 0.05, &a, &b), Verdict::Changed);
        // Seeds only one side ran are not compared; with none shared,
        // nothing was checked.
        assert_eq!(
            verdict(bpp, 0.05, &a, &[(0, 9.25), (99, 1.0)]),
            Verdict::Within
        );
        assert_eq!(verdict(bpp, 0.05, &a, &[(99, 1.0)]), Verdict::Unresolved);
    }

    #[test]
    fn a_metric_missing_from_b_is_missing() {
        let a = runs(&[9.25, 8.5, 9.0]);
        for name in ["bits_per_pixel", "setup_s"] {
            assert_eq!(verdict(def(name), 0.05, &a, &[]), Verdict::Missing);
        }
    }

    #[test]
    fn compare_passes_only_when_every_row_holds() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("empty")).unwrap();
        let record = |side: &str, workload: &str, seed: u64, bpp: f64| {
            let d = dir.join(side);
            std::fs::create_dir_all(&d).unwrap();
            let metrics: Vec<String> = E2E
                .iter()
                .map(|m| {
                    let v = if m.name == "bits_per_pixel" {
                        bpp
                    } else {
                        10.0
                    };
                    format!(
                        "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                        m.name, m.unit
                    )
                })
                .collect();
            std::fs::write(
                d.join(format!("{workload}-e2e-seed{seed}.json")),
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": false, \"metrics\": {{{}}}}}",
                    metrics.join(", ")
                ),
            )
            .unwrap();
        };
        for seed in 1..=5 {
            record("a", "lossy_ht", seed, 2.5);
            record("a", "small_images", seed, 4.5);
            record("same", "lossy_ht", seed, 2.5);
            record("same", "small_images", seed, 4.5);
            record("no_small", "lossy_ht", seed, 2.5);
            record("other_seeds", "lossy_ht", seed + 10, 2.5);
            record("other_seeds", "small_images", seed + 10, 4.5);
        }
        let cmp = |b: &str| run(&dir.join("a"), &dir.join(b)).unwrap();
        assert!(cmp("same"));
        assert!(!cmp("no_small"), "a workload B lacks must fail");
        assert!(!cmp("other_seeds"), "bits_per_pixel went unchecked");
        assert!(run(&dir.join("empty"), &dir.join("a")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timed_metric_regresses_past_its_bound_in_its_worse_direction() {
        let lat = def("setup_s");
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let shifted = |f: f64| runs(&[100.0 * f, 101.0 * f, 99.0 * f, 100.5 * f, 99.5 * f]);
        assert_eq!(verdict(lat, 0.05, &a, &shifted(1.04)), Verdict::Within);
        assert_eq!(verdict(lat, 0.05, &a, &shifted(1.06)), Verdict::Regressed);
        assert_eq!(verdict(lat, 0.05, &a, &shifted(0.5)), Verdict::Within);
        let rate = def("encode_peak_mpix_s");
        assert_eq!(verdict(rate, 0.05, &a, &shifted(0.94)), Verdict::Regressed);
        assert_eq!(verdict(rate, 0.05, &a, &shifted(1.5)), Verdict::Within);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let lat = def("setup_s");
        let noisy = runs(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        assert_eq!(verdict(lat, 0.05, &noisy, &noisy), Verdict::Unresolved);
        let faster = runs(&[70.0, 75.0, 72.0, 71.0, 74.0]);
        assert_eq!(verdict(lat, 0.05, &noisy, &faster), Verdict::Within);
    }
}
