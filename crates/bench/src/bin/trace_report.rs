//! `trace_report` — fold a Chrome trace from `j2kcell --trace-out` or
//! the daemon's `--trace-dir` into a per-stage / per-worker utilization
//! table.
//!
//! ```text
//! trace_report FILE
//! ```
//!
//! The table groups complete events by name within category (`stage`,
//! `chunk`, `block`) and by `args.worker` where present, so a glance
//! answers: which stage dominates, and was the chunk work balanced
//! across workers?

use std::collections::BTreeMap;
use std::process::exit;

fn die(msg: &str) -> ! {
    eprintln!("trace_report: {msg}");
    exit(1);
}

const USAGE: &str = "usage: trace_report FILE";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(file) => report(file),
        None => die(USAGE),
    }
}

fn report(file: &str) {
    let json = std::fs::read_to_string(file).unwrap_or_else(|e| die(&format!("read {file}: {e}")));
    let events = obs::chrome::parse(&json).unwrap_or_else(|e| die(&format!("{file}: {e}")));
    let completes: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
    if completes.is_empty() {
        die(&format!("{file}: no complete events"));
    }
    let wall_us = {
        let t0 = completes.iter().map(|e| e.ts_us).fold(f64::MAX, f64::min);
        let t1 = completes
            .iter()
            .map(|e| e.ts_us + e.dur_us)
            .fold(0.0f64, f64::max);
        (t1 - t0).max(1e-9)
    };

    // Per-name totals.
    let mut by_name: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for e in &completes {
        let ent = by_name.entry(e.name.as_str()).or_insert((0, 0.0));
        ent.0 += 1;
        ent.1 += e.dur_us;
    }
    println!("trace: {file}");
    println!(
        "{} events, {:.3} ms span-covered wall\n",
        events.len(),
        wall_us / 1e3
    );
    println!(
        "{:<24} {:>7} {:>12} {:>9}",
        "span", "count", "total ms", "% wall"
    );
    for (name, (count, total_us)) in &by_name {
        println!(
            "{name:<24} {count:>7} {:>12.3} {:>8.1}%",
            total_us / 1e3,
            100.0 * total_us / wall_us
        );
    }

    // Per-worker busy time over chunk/block events that carry a worker arg.
    let mut by_worker: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
    for e in &completes {
        if let Some((_, w)) = e.args.iter().find(|(k, _)| k == "worker") {
            let ent = by_worker.entry(*w as u64).or_insert((0, 0.0));
            ent.0 += 1;
            ent.1 += e.dur_us;
        }
    }
    if !by_worker.is_empty() {
        println!(
            "\n{:<10} {:>7} {:>12} {:>12}",
            "worker", "spans", "busy ms", "util %"
        );
        for (w, (count, busy_us)) in &by_worker {
            println!(
                "worker-{w:<3} {count:>7} {:>12.3} {:>11.1}%",
                busy_us / 1e3,
                100.0 * busy_us / wall_us
            );
        }
    }
}
