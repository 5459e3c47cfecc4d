//! The repository benchmark: end-to-end metrics of four workloads, and a
//! separate traced run that splits their encodes and decodes into layers.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare DIR_A DIR_B
//! ```
//!
//! Without `--workload` every workload runs in turn. Each run prints its
//! metrics as `workload metric value unit`, writes a record to
//! `benchmark/out/`, and ends with one JSON result line; it exits nonzero
//! when any correctness check fails. See `benchmark/README.md`.

mod codec;
mod compare;
mod compose;
mod daemon;
mod e2e;
mod inputs;
mod json;
mod layers;
mod metrics;
mod stats;

use inputs::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: j2k-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
       j2k-benchmark --compare DIR_A DIR_B";

enum Command {
    Run {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) =
        (Workload::ALL.to_vec(), 1, 35.0, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} out of (0, 600]"));
                }
            }
            "--trace" => {
                let flag = it.peek().map(|s| s.as_str());
                trace = flag != Some("0");
                if matches!(flag, Some("0" | "1")) {
                    it.next();
                }
            }
            "--compare" => {
                let a = value("two directories")?;
                let b = value("two directories")?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, seed, seconds, trace) = match parse_args(&args) {
        Ok(Command::Run {
            workloads,
            seed,
            seconds,
            trace,
        }) => (workloads, seed, seconds, trace),
        Ok(Command::Compare(a, b)) => {
            return match compare::run(&a, &b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# seed {seed}, {seconds} s per workload, {} threads available, kernels {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        wavelet::dispatch::description()
    );
    let mut all_correct = true;
    for w in workloads {
        let report = if trace {
            layers::run(w, seed, seconds, &out_dir)
        } else {
            e2e::run(w, seed, seconds)
        };
        for note in &report.notes {
            println!("# {}", note.trim_end().replace('\n', "\n# "));
        }
        print!("{}", report.lines());
        let mode = if trace { "trace" } else { "e2e" };
        let path = out_dir.join(format!("{}-{mode}-seed{seed}.json", w.name()));
        if let Err(e) = std::fs::write(&path, report.record_json(seconds)) {
            eprintln!("{}: {e}", path.display());
            all_correct = false;
        }
        all_correct &= report.correct();
        println!("{}", report.result_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Command, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_bare_flag_forms_parse() {
        let Ok(Command::Run {
            workloads,
            seed,
            seconds,
            trace,
        }) = parse("--workload lossy_ht --seed 7 --seconds 12 --trace 1")
        else {
            panic!("driver form")
        };
        assert_eq!(
            (workloads, seed, seconds, trace),
            (vec![Workload::LossyHt], 7, 12.0, true)
        );
        let Ok(Command::Run {
            workloads, trace, ..
        }) = parse("--trace --seed 3")
        else {
            panic!("bare --trace")
        };
        assert_eq!((workloads.len(), trace), (4, true));
        let Ok(Command::Run { trace, .. }) = parse("--seed 3 --trace 0") else {
            panic!("--trace 0")
        };
        assert!(!trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
