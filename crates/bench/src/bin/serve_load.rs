//! `serve_load` — load generator for the `j2kserved` encode daemon.
//!
//! Drives the TCP wire protocol with `--clients` concurrent connections
//! pushing `--jobs` synthetic encode jobs total, then reports throughput
//! and latency percentiles as one JSON document, printed to stdout and
//! written to `--out` (default `BENCH_serve.json`).
//!
//! ```text
//! serve_load [--addr HOST:PORT] [--jobs N] [--clients N] [--size N]
//!            [--seed N] [--lossy RATE] [--timeout-ms N] [--verify]
//!            [--decode] [--retries N] [--backoff-ms N] [--probe]
//!            [--breaker-threshold N] [--allow-degraded]
//!            [--trace] [--out PATH]
//! ```
//!
//! With `--trace` (daemon started with tracing on), the last finished
//! job's Chrome trace is fetched over the wire and folded into a
//! queue-wait vs. encode-time split in the report — where does a
//! job's latency actually go under this load?
//!
//! Fault tolerance mirrors the server's own retry discipline:
//! `Rejected(Overloaded)` is **not** a hard failure — the client retries
//! the job up to `--retries` times, backing off by the larger of the
//! server's `retry_after_ms` hint and seeded-jitter exponential backoff
//! (base `--backoff-ms`); a wire error triggers a reconnect and retry on
//! a fresh connection under the same budget. Each client additionally
//! runs a circuit breaker (DESIGN.md §16): after `--breaker-threshold`
//! consecutive overload rejections or wire errors it stops sending and
//! waits out an exponentially growing open window (floored at the
//! server's hint) before a half-open probe; `0` disables it. Shed load
//! (rejections), retries, reconnects, degraded completions, and breaker
//! opens are reported as separate columns, latency additionally split
//! per priority class. `--probe` polls the `Health` request until the
//! daemon reports a full worker pool before offering load.
//!
//! `--allow-degraded` sets the wire flag of the same name on every job:
//! under Elevated pressure the daemon may answer with a codestream from
//! the faster HT coder (marked `degraded`) instead of shedding the job.
//! `--verify` then checks degraded replies byte-identical to the local
//! sequential encode with `EncoderParams::degrade_for_load()` applied —
//! degradation must be a *policy* change, never a correctness one.
//!
//! With `--verify`, every returned codestream is checked **byte-identical**
//! to the local sequential `j2k_core::encode` of the same input and
//! decoded back to the original image — the service must never trade
//! correctness for throughput. With `--decode`, each returned codestream
//! is additionally sent back through the daemon's `Decode` request and
//! (in lossless mode) the server-reconstructed image must equal the
//! input — the round trip closes without the client ever running the
//! codec. The exit code is nonzero if verification fails or nothing
//! completes.

use j2k_core::EncoderParams;
use j2k_serve::wire::{
    call, DecodeRequest, EncodeRequest, RejectReason, Request, Response, DEFAULT_MAX_FRAME,
};
use j2k_serve::{BreakerConfig, CircuitBreaker};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Priority classes the generator cycles jobs through (`job % 4`).
const PRIORITY_CLASSES: usize = 4;

struct Opt {
    addr: String,
    jobs: usize,
    clients: usize,
    size: usize,
    seed: u64,
    lossy: Option<f64>,
    timeout_ms: u32,
    verify: bool,
    decode: bool,
    retries: u32,
    backoff_ms: u64,
    breaker_threshold: u32,
    allow_degraded: bool,
    probe: bool,
    trace: bool,
    out: String,
}

/// Connect to the daemon with Nagle's algorithm off: a frame goes out as a
/// header write and a payload write, and the second must not wait for the
/// server's delayed ACK of the first.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

fn die(msg: &str) -> ! {
    eprintln!("serve_load: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Opt {
    let mut o = Opt {
        addr: "127.0.0.1:7201".into(),
        jobs: 32,
        clients: 4,
        size: 128,
        seed: 20080906,
        lossy: None,
        timeout_ms: 0,
        verify: false,
        decode: false,
        retries: 3,
        backoff_ms: 25,
        breaker_threshold: 5,
        allow_degraded: false,
        probe: false,
        trace: false,
        out: "BENCH_serve.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> &String {
            argv.get(i + 1)
                .unwrap_or_else(|| die(&format!("missing value after {}", argv[i])))
        };
        match argv[i].as_str() {
            "--addr" => {
                o.addr = need(i).clone();
                i += 2;
            }
            "--jobs" => {
                o.jobs = need(i).parse().unwrap_or_else(|_| die("--jobs N"));
                i += 2;
            }
            "--clients" => {
                o.clients = need(i).parse().unwrap_or_else(|_| die("--clients N"));
                i += 2;
            }
            "--size" => {
                o.size = need(i).parse().unwrap_or_else(|_| die("--size N"));
                i += 2;
            }
            "--seed" => {
                o.seed = need(i).parse().unwrap_or_else(|_| die("--seed N"));
                i += 2;
            }
            "--lossy" => {
                o.lossy = Some(need(i).parse().unwrap_or_else(|_| die("--lossy RATE")));
                i += 2;
            }
            "--timeout-ms" => {
                o.timeout_ms = need(i).parse().unwrap_or_else(|_| die("--timeout-ms N"));
                i += 2;
            }
            "--verify" => {
                o.verify = true;
                i += 1;
            }
            "--decode" => {
                o.decode = true;
                i += 1;
            }
            "--retries" => {
                o.retries = need(i).parse().unwrap_or_else(|_| die("--retries N"));
                i += 2;
            }
            "--backoff-ms" => {
                o.backoff_ms = need(i).parse().unwrap_or_else(|_| die("--backoff-ms N"));
                i += 2;
            }
            "--breaker-threshold" => {
                o.breaker_threshold = need(i)
                    .parse()
                    .unwrap_or_else(|_| die("--breaker-threshold N (0 disables)"));
                i += 2;
            }
            "--allow-degraded" => {
                o.allow_degraded = true;
                i += 1;
            }
            "--probe" => {
                o.probe = true;
                i += 1;
            }
            "--trace" => {
                o.trace = true;
                i += 1;
            }
            "--out" => {
                o.out = need(i).clone();
                i += 2;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    o
}

fn params_of(o: &Opt) -> EncoderParams {
    match o.lossy {
        Some(rate) => EncoderParams::lossy(rate),
        None => EncoderParams::lossless(),
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential backoff with seeded half-jitter: `base * 2^attempt`
/// stretched or shrunk by up to 50%, deterministic per (salt, attempt)
/// so a rerun with the same seed replays the same pacing.
fn jittered_backoff(base_ms: u64, attempt: u32, salt: u64) -> Duration {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(10));
    let jitter = splitmix64(salt.wrapping_add(u64::from(attempt))) % (exp / 2 + 1);
    Duration::from_millis(exp / 2 + jitter)
}

/// Poll `Health` until the daemon reports a full, accepting worker pool.
fn probe_until_ready(o: &Opt) {
    for attempt in 0..40u32 {
        let ready = connect(&o.addr)
            .ok()
            .and_then(|mut c| call(&mut c, &Request::Health, DEFAULT_MAX_FRAME).ok())
            .is_some_and(|r| matches!(r, Response::Health(h) if h.ready()));
        if ready {
            return;
        }
        std::thread::sleep(jittered_backoff(o.backoff_ms, attempt.min(5), o.seed));
    }
    die(&format!("daemon at {} never reported ready", o.addr));
}

/// Pull one integer field out of a specific histogram series inside the
/// server's hand-rolled metrics JSON, e.g.
/// `extract_hist_field(json, "queue_wait_us", "p999")`. Total: any shape
/// mismatch yields `None`.
fn extract_hist_field(metrics_json: &str, series: &str, field: &str) -> Option<u64> {
    let start = metrics_json.find(&format!("\"{series}\":{{"))?;
    let obj = &metrics_json[start..];
    let end = obj.find('}')?;
    let obj = &obj[..end];
    let fpos = obj.find(&format!("\"{field}\":"))?;
    let digits: String = obj[fpos + field.len() + 3..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Fold a job's Chrome trace into a queue-wait vs. encode-time split:
/// (queue_wait_ms, encode_ms) summed over complete events of those names.
fn trace_split(trace_json: &str) -> Option<(f64, f64)> {
    let events = obs::chrome::parse(trace_json).ok()?;
    let sum_ms = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us)
            .sum::<f64>()
            / 1e3
    };
    Some((sum_ms("queue-wait"), sum_ms("encode")))
}

#[derive(Default)]
struct Tally {
    completed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    poisoned: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_open_waits: AtomicU64,
    verify_failures: AtomicU64,
    decode_failures: AtomicU64,
}

/// `{"count":N,"p50":X,"p99":Y}` for one priority class's latencies.
fn priority_json(sorted_ms: &[f64]) -> String {
    format!(
        "{{\"count\":{},\"p50\":{:.3},\"p99\":{:.3}}}",
        sorted_ms.len(),
        percentile(sorted_ms, 0.50),
        percentile(sorted_ms, 0.99),
    )
}

fn main() {
    let o = parse_args();
    let params = params_of(&o);
    if o.probe {
        probe_until_ready(&o);
    }
    let tally = Tally::default();
    let latencies_ms: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(o.jobs));
    let priority_ms: [Mutex<Vec<f64>>; PRIORITY_CLASSES] = Default::default();
    let reconnect_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let next_job = AtomicU64::new(0);

    let wall = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..o.clients.max(1) {
            let (o, params, tally, latencies_ms, reconnect_ms, next_job) =
                (&o, &params, &tally, &latencies_ms, &reconnect_ms, &next_job);
            let priority_ms = &priority_ms;
            scope.spawn(move || {
                let mut conn = match connect(&o.addr) {
                    Ok(c) => c,
                    Err(e) => die(&format!("connect {}: {e}", o.addr)),
                };
                // Per-client circuit breaker: after `--breaker-threshold`
                // consecutive overload rejections or wire errors, stop
                // sending until the open window (floored at the server's
                // retry_after hint) lapses, then probe half-open.
                let mut breaker = (o.breaker_threshold > 0).then(|| {
                    CircuitBreaker::new(BreakerConfig {
                        failure_threshold: o.breaker_threshold,
                        open_base: Duration::from_millis(o.backoff_ms.max(1)),
                        ..BreakerConfig::default()
                    })
                });
                'jobs: loop {
                    let j = next_job.fetch_add(1, Ordering::Relaxed);
                    if j >= o.jobs as u64 {
                        break;
                    }
                    let priority = (j % PRIORITY_CLASSES as u64) as u8;
                    let image = imgio::synth::natural_rgb(o.size, o.size, o.seed + j);
                    let req = Request::Encode(EncodeRequest {
                        priority,
                        allow_degraded: o.allow_degraded,
                        timeout_ms: o.timeout_ms,
                        params: *params,
                        image: image.clone(),
                    });
                    let mut attempt = 0u32;
                    loop {
                        if let Some(b) = breaker.as_mut() {
                            while let Err(wait) = b.poll() {
                                tally.breaker_open_waits.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(wait);
                            }
                        }
                        let t0 = Instant::now();
                        match call(&mut conn, &req, DEFAULT_MAX_FRAME) {
                            Ok(Response::EncodeOk {
                                codestream: cs,
                                degraded,
                            }) => {
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                latencies_ms.lock().unwrap().push(ms);
                                priority_ms[usize::from(priority)].lock().unwrap().push(ms);
                                tally.completed.fetch_add(1, Ordering::Relaxed);
                                if degraded {
                                    tally.degraded.fetch_add(1, Ordering::Relaxed);
                                }
                                if let Some(b) = breaker.as_mut() {
                                    b.on_success();
                                }
                                if o.verify {
                                    // A degraded reply must match the local
                                    // sequential encode with the *degraded*
                                    // params — same determinism bar, different
                                    // (server-chosen) coder.
                                    let vparams = if degraded {
                                        params.degrade_for_load().0
                                    } else {
                                        *params
                                    };
                                    let seq =
                                        j2k_core::encode(&image, &vparams).expect("local encode");
                                    let decoded_ok = j2k_core::decode(&cs).is_ok();
                                    if cs != seq || !decoded_ok {
                                        eprintln!("job {j}: VERIFY FAILED (identical={}, decodes={decoded_ok}, degraded={degraded})", cs == seq);
                                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                if o.decode {
                                    // Round-trip through the daemon: the
                                    // server decodes its own codestream;
                                    // lossless must reconstruct the input
                                    // exactly.
                                    let dreq = Request::Decode(DecodeRequest {
                                        max_layers: 0,
                                        discard_levels: 0,
                                        codestream: cs,
                                    });
                                    let ok = match call(&mut conn, &dreq, DEFAULT_MAX_FRAME) {
                                        Ok(Response::DecodeOk(back)) => {
                                            if o.lossy.is_some() {
                                                (back.width, back.height, back.comps())
                                                    == (image.width, image.height, image.comps())
                                            } else {
                                                back == image
                                            }
                                        }
                                        other => {
                                            eprintln!("job {j}: server decode: {other:?}");
                                            false
                                        }
                                    };
                                    if !ok {
                                        eprintln!("job {j}: SERVER DECODE ROUND-TRIP FAILED");
                                        tally.decode_failures.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                break;
                            }
                            // Shed load is expected under overload: back
                            // off by the larger of the server's hint and
                            // the jittered exponential (so the client herd
                            // doesn't re-converge), and retry within the
                            // budget.
                            Ok(Response::Rejected(RejectReason::Overloaded { retry_after_ms }))
                                if attempt < o.retries =>
                            {
                                attempt += 1;
                                tally.retries.fetch_add(1, Ordering::Relaxed);
                                let hint = Duration::from_millis(u64::from(retry_after_ms));
                                if let Some(b) = breaker.as_mut() {
                                    b.on_failure(Some(hint));
                                }
                                std::thread::sleep(
                                    jittered_backoff(o.backoff_ms, attempt, o.seed ^ j).max(hint),
                                );
                            }
                            Ok(Response::Rejected(r)) => {
                                eprintln!("job {j}: rejected ({r:?}) after {attempt} retries");
                                tally.rejected.fetch_add(1, Ordering::Relaxed);
                                if let Some(b) = breaker.as_mut() {
                                    if let RejectReason::Overloaded { retry_after_ms } = r {
                                        b.on_failure(Some(Duration::from_millis(u64::from(
                                            retry_after_ms,
                                        ))));
                                    }
                                }
                                break;
                            }
                            Ok(Response::TimedOut) => {
                                tally.timed_out.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Ok(Response::Poisoned(m)) => {
                                eprintln!("job {j}: poisoned ({m})");
                                tally.poisoned.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Ok(other) => {
                                eprintln!("job {j}: {other:?}");
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            // The connection died (daemon restart, wire
                            // fault): reconnect and retry this job on a
                            // fresh stream.
                            Err(e) if attempt < o.retries => {
                                attempt += 1;
                                tally.reconnects.fetch_add(1, Ordering::Relaxed);
                                if let Some(b) = breaker.as_mut() {
                                    b.on_failure(None);
                                }
                                eprintln!("job {j}: wire error {e}; reconnecting");
                                std::thread::sleep(jittered_backoff(
                                    o.backoff_ms,
                                    attempt,
                                    o.seed ^ j,
                                ));
                                let c0 = Instant::now();
                                match connect(&o.addr) {
                                    Ok(c) => {
                                        reconnect_ms
                                            .lock()
                                            .unwrap()
                                            .push(c0.elapsed().as_secs_f64() * 1e3);
                                        conn = c;
                                    }
                                    Err(e) => {
                                        eprintln!("job {j}: reconnect failed: {e}");
                                        tally.failed.fetch_add(1, Ordering::Relaxed);
                                        break 'jobs;
                                    }
                                }
                            }
                            Err(e) => {
                                eprintln!("job {j}: wire error {e} (budget spent)");
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                                if let Some(b) = breaker.as_mut() {
                                    b.on_failure(None);
                                }
                                break;
                            }
                        }
                    }
                }
                if let Some(b) = breaker.as_ref() {
                    tally.breaker_opens.fetch_add(b.opens(), Ordering::Relaxed);
                }
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    // Pull the server's own view of the run.
    let server_metrics = connect(&o.addr)
        .ok()
        .and_then(|mut c| call(&mut c, &Request::Metrics, DEFAULT_MAX_FRAME).ok())
        .and_then(|r| match r {
            Response::MetricsJson(j) => Some(j),
            _ => None,
        })
        .unwrap_or_else(|| "null".into());
    // The server's own queue-wait tail, straight from its histogram.
    let queue_wait_p999_us = extract_hist_field(&server_metrics, "queue_wait_us", "p999");

    // Queue-wait vs. encode split of the last finished job's trace.
    let trace_section = if o.trace {
        let split = connect(&o.addr)
            .ok()
            .and_then(|mut c| call(&mut c, &Request::Trace(0), DEFAULT_MAX_FRAME).ok())
            .and_then(|r| match r {
                Response::TraceJson(j) => trace_split(&j),
                _ => None,
            });
        match split {
            Some((wait_ms, encode_ms)) => {
                format!("{{\"queue_wait_ms\":{wait_ms:.3},\"encode_ms\":{encode_ms:.3}}}")
            }
            None => {
                eprintln!("serve_load: --trace set but no trace retrieved (daemon tracing off?)");
                "null".into()
            }
        }
    } else {
        "null".into()
    };

    let mut lat = latencies_ms.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let per_priority = priority_ms
        .into_iter()
        .map(|m| {
            let mut v = m.into_inner().unwrap();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            priority_json(&v)
        })
        .collect::<Vec<_>>()
        .join(",");
    let mut recon = reconnect_ms.into_inner().unwrap();
    recon.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let recon_mean = if recon.is_empty() {
        0.0
    } else {
        recon.iter().sum::<f64>() / recon.len() as f64
    };
    let completed = tally.completed.load(Ordering::Relaxed);
    let verify_failures = tally.verify_failures.load(Ordering::Relaxed);
    let decode_failures = tally.decode_failures.load(Ordering::Relaxed);
    let mean = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let json = format!(
        "{{\"config\":{{\"addr\":\"{}\",\"jobs\":{},\"clients\":{},\"size\":{},\"seed\":{},\
         \"mode\":\"{}\",\"timeout_ms\":{},\"verify\":{},\"retries\":{},\"backoff_ms\":{},\
         \"breaker_threshold\":{},\"allow_degraded\":{}}},\
         \"completed\":{},\"degraded\":{},\"rejected\":{},\"timed_out\":{},\"failed\":{},\
         \"poisoned\":{},\"retries\":{},\"reconnects\":{},\
         \"breaker\":{{\"opens\":{},\"open_waits\":{}}},\
         \"wall_s\":{:.4},\"throughput_jobs_per_s\":{:.3},\
         \"latency_ms\":{{\"mean\":{:.3},\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3},\"p999\":{:.3},\"max\":{:.3}}},\
         \"per_priority\":[{}],\
         \"queue_wait_p999_us\":{},\
         \"reconnect_ms\":{{\"count\":{},\"mean\":{:.3},\"max\":{:.3}}},\
         \"trace\":{},\
         \"verify_failures\":{},\"decode_failures\":{},\"server_metrics\":{}}}",
        o.addr,
        o.jobs,
        o.clients,
        o.size,
        o.seed,
        if o.lossy.is_some() {
            "lossy"
        } else {
            "lossless"
        },
        o.timeout_ms,
        o.verify,
        o.retries,
        o.backoff_ms,
        o.breaker_threshold,
        o.allow_degraded,
        completed,
        tally.degraded.load(Ordering::Relaxed),
        tally.rejected.load(Ordering::Relaxed),
        tally.timed_out.load(Ordering::Relaxed),
        tally.failed.load(Ordering::Relaxed),
        tally.poisoned.load(Ordering::Relaxed),
        tally.retries.load(Ordering::Relaxed),
        tally.reconnects.load(Ordering::Relaxed),
        tally.breaker_opens.load(Ordering::Relaxed),
        tally.breaker_open_waits.load(Ordering::Relaxed),
        wall_s,
        completed as f64 / wall_s.max(1e-9),
        mean,
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
        percentile(&lat, 0.999),
        lat.last().copied().unwrap_or(0.0),
        per_priority,
        queue_wait_p999_us.map_or("null".into(), |v| v.to_string()),
        recon.len(),
        recon_mean,
        recon.last().copied().unwrap_or(0.0),
        trace_section,
        verify_failures,
        decode_failures,
        server_metrics,
    );
    println!("{json}");
    if let Err(e) = std::fs::write(&o.out, format!("{json}\n")) {
        die(&format!("write {}: {e}", o.out));
    }
    // Human summary, always printed in full: absent counters read as
    // "not measured", so poisoned/retried/reconnects appear even at 0.
    eprintln!(
        "serve_load: {completed} completed ({} degraded), {} rejected, {} timed out, \
         {} failed, {} poisoned, {} retried, {} reconnects, {} breaker opens \
         ({} jobs in {wall_s:.2}s, p50 {:.1} ms)",
        tally.degraded.load(Ordering::Relaxed),
        tally.rejected.load(Ordering::Relaxed),
        tally.timed_out.load(Ordering::Relaxed),
        tally.failed.load(Ordering::Relaxed),
        tally.poisoned.load(Ordering::Relaxed),
        tally.retries.load(Ordering::Relaxed),
        tally.reconnects.load(Ordering::Relaxed),
        tally.breaker_opens.load(Ordering::Relaxed),
        o.jobs,
        percentile(&lat, 0.50),
    );
    if verify_failures > 0 {
        die(&format!("{verify_failures} verification failures"));
    }
    if decode_failures > 0 {
        die(&format!(
            "{decode_failures} server decode round-trip failures"
        ));
    }
    if completed == 0 {
        die("no jobs completed");
    }
}
