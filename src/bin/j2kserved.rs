//! `j2kserved` — the JPEG2000 encode daemon: a TCP front end over
//! `j2k_serve::EncodeService` speaking the length-prefixed binary
//! protocol of `j2k_serve::wire`.
//!
//! ```text
//! j2kserved [--addr HOST:PORT] [--pool N] [--job-workers N]
//!           [--queue N] [--timeout-ms N] [--max-frame-mb N]
//!           [--trace] [--trace-dir DIR] [--trace-keep N]
//!           [--metrics-addr HOST:PORT] [--io-timeout-ms N]
//!           [--max-conns N] [--pixel-budget-mp N] [--high-priority N]
//!           [--pressure-elevated PCT] [--pressure-critical PCT]
//!
//!   --addr HOST:PORT   listen address          (default 127.0.0.1:7201)
//!   --pool N           pool threads draining the job queue (default 2)
//!   --job-workers N    threads per job, the pool thread
//!                      included (encode_with workers)       (default 1)
//!   --queue N          bounded queue capacity; beyond it jobs are
//!                      rejected as Overloaded                (default 64)
//!   --timeout-ms N     default per-job deadline, 0 = none    (default 0)
//!   --max-frame-mb N   per-frame payload ceiling in MiB      (default 256)
//!   --trace            enable per-job tracing; finished jobs'
//!                      Chrome traces are retained for the wire
//!                      Trace(job_id) request
//!   --trace-dir DIR    also write each trace to
//!                      DIR/trace-job-<id>.json (implies --trace)
//!   --trace-keep N     traces retained, in memory and on disk
//!                      (default 16)
//!   --metrics-addr HOST:PORT  serve Prometheus text exposition on a
//!                      side port (GET anything returns the scrape)
//!   --io-timeout-ms N  per-connection read/write deadline on the wire
//!                      and metrics ports, 0 = none       (default 30000)
//!   --max-conns N      concurrent wire connections, 0 = unlimited
//!                      (default 256)
//!   --pixel-budget-mp N  in-flight pixel budget in megapixels,
//!                      0 = unlimited                         (default 0)
//!   --high-priority N  jobs with priority >= N are admitted even at
//!                      Critical pressure                   (default 128)
//!   --pressure-elevated PCT  queue-depth percent at which pressure is
//!                      Elevated                             (default 75)
//!   --pressure-critical PCT  queue-depth percent at which pressure is
//!                      Critical                             (default 95)
//! ```
//!
//! The daemon has one metrics document, the Prometheus text exposition:
//! `--metrics-addr` serves it over HTTP, and the wire `Metrics` request
//! returns the same text, so a daemon without a metrics port still
//! reports every series. Per-layer timing appears there as histograms:
//! one `stage_*_us` series per encode stage, the per-coder Tier-1 symbol
//! rates, and `decode_us`. Burn-rate alerting belongs to the scraper: the
//! exposition carries every job outcome counter and the `job_e2e_us`
//! buckets (DESIGN.md §17). A wire `Decode` whose full-resolution image
//! would not fit in one `--max-frame-mb` frame is refused from its main
//! header.
//!
//! A job that panics its pool worker is requeued at once by that worker,
//! which keeps serving; a job that panics on its retry too is answered
//! `Poisoned` (DESIGN.md §11).
//!
//! The daemon exits after a Shutdown request, draining queued and
//! in-flight jobs first. Under pressure it sheds low-priority work with
//! `Overloaded { retry_after_ms }`, degrades `allow_degraded` jobs to
//! the HT coder, and at Critical stops taking new connections
//! (DESIGN.md §16).

use j2k_serve::{serve, serve_metrics, EncodeService, ServerConfig, ServiceConfig};
use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("j2kserved: {msg}");
    exit(2);
}

const USAGE: &str = "usage: j2kserved [--addr HOST:PORT] [--pool N] [--job-workers N] \
                     [--queue N] [--timeout-ms N] [--max-frame-mb N] \
                     [--trace] [--trace-dir DIR] [--trace-keep N] \
                     [--metrics-addr HOST:PORT] [--io-timeout-ms N] \
                     [--max-conns N] [--pixel-budget-mp N] [--high-priority N] \
                     [--pressure-elevated PCT] [--pressure-critical PCT]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7201".to_string();
    let mut cfg = ServiceConfig::default();
    let mut max_frame_mb: usize = 256;
    let mut trace_on = false;
    let mut metrics_addr: Option<String> = None;
    let mut io_timeout_ms: u64 = 30_000;
    let mut max_conns: usize = 256;
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &String {
            argv.get(i + 1)
                .unwrap_or_else(|| die(&format!("missing value after {}", argv[i])))
        };
        match argv[i].as_str() {
            "--trace" => {
                trace_on = true;
                i += 1;
                continue;
            }
            "--trace-dir" => {
                trace_on = true;
                cfg.trace_dir = Some(need(i).into());
            }
            "--trace-keep" => {
                cfg.trace_keep = need(i).parse().unwrap_or_else(|_| die("--trace-keep N"))
            }
            "--metrics-addr" => metrics_addr = Some(need(i).clone()),
            "--addr" => addr = need(i).clone(),
            "--pool" => cfg.pool_threads = need(i).parse().unwrap_or_else(|_| die("--pool N")),
            "--job-workers" => {
                cfg.workers_per_job = need(i).parse().unwrap_or_else(|_| die("--job-workers N"))
            }
            "--queue" => cfg.queue_capacity = need(i).parse().unwrap_or_else(|_| die("--queue N")),
            "--timeout-ms" => {
                let ms: u64 = need(i).parse().unwrap_or_else(|_| die("--timeout-ms N"));
                cfg.default_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-frame-mb" => {
                max_frame_mb = need(i).parse().unwrap_or_else(|_| die("--max-frame-mb N"))
            }
            "--io-timeout-ms" => {
                io_timeout_ms = need(i).parse().unwrap_or_else(|_| die("--io-timeout-ms N"))
            }
            "--max-conns" => max_conns = need(i).parse().unwrap_or_else(|_| die("--max-conns N")),
            "--pixel-budget-mp" => {
                let mp: u64 = need(i)
                    .parse()
                    .unwrap_or_else(|_| die("--pixel-budget-mp N"));
                cfg.pressure.pixel_budget = if mp == 0 { u64::MAX } else { mp * 1_000_000 };
            }
            "--high-priority" => {
                cfg.high_priority_min = need(i).parse().unwrap_or_else(|_| die("--high-priority N"))
            }
            "--pressure-elevated" => {
                let pct: u64 = need(i)
                    .parse()
                    .ok()
                    .filter(|p| (1..=100).contains(p))
                    .unwrap_or_else(|| die("--pressure-elevated PCT (1..=100)"));
                cfg.pressure.elevated_depth = pct as f64 / 100.0;
            }
            "--pressure-critical" => {
                let pct: u64 = need(i)
                    .parse()
                    .ok()
                    .filter(|p| (1..=100).contains(p))
                    .unwrap_or_else(|| die("--pressure-critical PCT (1..=100)"));
                cfg.pressure.critical_depth = pct as f64 / 100.0;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other}; {USAGE}")),
        }
        i += 2;
    }

    if trace_on {
        obs::trace::set_enabled(true);
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
    println!(
        "j2kserved listening on {} (pool {}, {} workers/job, queue {}, default timeout {:?}{})",
        listener.local_addr().map_or(addr, |a| a.to_string()),
        cfg.pool_threads,
        cfg.workers_per_job,
        cfg.queue_capacity,
        cfg.default_timeout,
        if trace_on { ", tracing" } else { "" },
    );
    let io_timeout = (io_timeout_ms > 0).then(|| Duration::from_millis(io_timeout_ms));
    let service = Arc::new(EncodeService::start(cfg));
    if let Some(maddr) = metrics_addr {
        let mlistener =
            TcpListener::bind(&maddr).unwrap_or_else(|e| die(&format!("bind {maddr}: {e}")));
        println!(
            "j2kserved metrics on http://{}/metrics",
            mlistener.local_addr().map_or(maddr, |a| a.to_string())
        );
        let msvc = Arc::clone(&service);
        std::thread::Builder::new()
            .name("j2k-metrics".into())
            .spawn(move || serve_metrics(mlistener, msvc, io_timeout))
            .unwrap_or_else(|e| die(&format!("spawn the metrics thread: {e}")));
    }
    let server_cfg = ServerConfig {
        max_frame: max_frame_mb << 20,
        io_timeout,
        max_connections: max_conns,
    };
    serve(listener, service, server_cfg).unwrap_or_else(|e| die(&format!("serve: {e}")));
}
