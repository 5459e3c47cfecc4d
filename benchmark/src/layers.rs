//! The traced run (`--trace 1`): the per-layer catalogue, measured from the
//! benchmark's own code around public layer calls.
//!
//! Each repetition makes one pass over the workload's operations four
//! ways: composed from layer calls under `obs` spans ([`compose`]), through
//! the real drivers at one and two workers with tracing off, once more at
//! one worker with tracing on, and over the wire to an in-process daemon.
//! Every metric is the median over repetitions; the encode and decode
//! waterfalls put the driver's wall time beside the sum of its layers, and
//! the difference is the residual.

use crate::codec;
use crate::compose::{self, CAT, DECODE_LAYERS, ENCODE_LAYERS};
use crate::daemon::{decode_request, encode_request, reply_ok, Client, Daemon};
use crate::inputs::{self, Case, Op, Workload};
use crate::metrics::{Report, LAYER};
use crate::stats::median;
use j2k_core::Mode;
use j2k_serve::wire::{self, Request};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions at least, however long they take.
const MIN_REPS: usize = 5;

/// Workers of the parallel encode that `core.parallel_*` compare with one.
const WORKERS: usize = 2;

/// Each side of the copy probe. Source plus destination (448 MiB) is
/// over four times the largest last-level cache the benchmark has run on.
const COPY_BYTES: usize = 224 << 20;

/// One repetition's value of each per-layer metric, by name, plus the
/// raw sums the derived metrics are computed from.
type Rep = BTreeMap<&'static str, f64>;

fn add(rep: &mut Rep, key: &'static str, v: f64) {
    *rep.entry(key).or_insert(0.0) += v;
}

fn get(rep: &Rep, key: &str) -> f64 {
    rep.get(key).copied().unwrap_or(0.0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What every repetition works on.
struct Fixture {
    cases: Vec<Case>,
    /// Reference quantizer indices of the lossy cases.
    indices: Vec<Option<Vec<Vec<i32>>>>,
    /// Each case's encode and decode request.
    requests: Vec<(Request, Request)>,
    daemon: Daemon,
    client: Client,
}

pub fn run(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let mut report = Report::new(w, seed, true);
    let cases = inputs::cases(w, seed, &mut report);
    let daemon = Daemon::start().expect("start the daemon");
    let mut f = Fixture {
        indices: cases
            .iter()
            .map(|c| {
                (c.params.mode != Mode::Lossless).then(|| {
                    codec::reference_indices(&c.image, &c.params).expect("reference transform")
                })
            })
            .collect(),
        requests: cases
            .iter()
            .map(|c| (encode_request(c), decode_request(c)))
            .collect(),
        client: daemon.connect().expect("connect to the daemon"),
        daemon,
        cases,
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut events = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let ops = inputs::pass_ops(w, &f.cases, reps.len());
        let mut rep = Rep::new();
        let id = obs::trace::next_trace_id();
        obs::trace::set_current(id);
        composed_pass(&f, &ops, &mut rep, &mut report);
        driver_pass(&f, &ops, &mut rep, &mut report);
        let taken = obs::trace::take_job(id);
        for (name, ms) in layer_ms(&taken) {
            if let Some(d) = LAYER
                .iter()
                .find(|d| d.name.strip_suffix("_ms") == Some(name.as_str()))
            {
                rep.insert(d.name, ms);
            }
        }
        events.extend(taken);
        served_pass(&mut f, &ops, &mut rep, &mut report);
        derive(&mut rep);
        reps.push(rep);
    }
    let Fixture { client, daemon, .. } = f;
    drop(client);
    if let Err(e) = daemon.stop() {
        report.record(false, || format!("daemon did not stop: {e}"));
    }

    let med = |k: &str| {
        median(
            &reps
                .iter()
                .filter_map(|r| r.get(k).copied())
                .collect::<Vec<_>>(),
        )
    };
    for d in LAYER {
        if !d.name.ends_with("residual_frac") && d.name != "host.copy_gbps" {
            report.set_opt(d.name, med(d.name), reps.len());
        }
    }
    for (what, layers) in [("encode", ENCODE_LAYERS), ("decode", DECODE_LAYERS)] {
        waterfall(&mut report, what, layers, &med, reps.len());
    }
    let (copy, copies) = copy_probe();
    report.set("host.copy_gbps", copy, Some(copies));
    report.notes.push(format!(
        "host copy probe: {} MiB copied into {} MiB, {copies} copies; \
         layer GB/s are computed traffic over measured time",
        COPY_BYTES >> 20,
        COPY_BYTES >> 20
    ));
    write_trace(
        &mut report,
        &events,
        &out_dir.join(format!("{}-seed{seed}.trace.json", w.name())),
    );
    report
}

/// Encode and decode every op from layer calls, under spans.
fn composed_pass(f: &Fixture, ops: &[Op], rep: &mut Rep, report: &mut Report) {
    obs::trace::set_enabled(true);
    for op in ops {
        let case = &f.cases[op.case];
        if op.encode {
            let e = compose::encode(&case.image, &case.params);
            let ok = match &f.indices[op.case] {
                None => e.codestream == case.codestream,
                Some(ix) => e
                    .indices
                    .iter()
                    .map(|p| p.to_dense())
                    .eq(ix.iter().cloned()),
            };
            report.record(ok, || {
                format!("composed encode of case {} is not the encoder's", op.case)
            });
            add(rep, "tier1.symbols", e.symbols as f64);
            add(
                rep,
                "ebcot.lambda_passes_examined",
                e.passes_examined as f64,
            );
            add(rep, "sample_bytes", e.sample_bytes as f64);
            add(rep, "dwt_bytes", e.dwt_bytes as f64);
        }
        if op.decode {
            let d = compose::decode(&case.codestream);
            report.record(d.is_ok_and(|im| im == case.decoded), || {
                format!("composed decode of case {} is not the decoder's", op.case)
            });
        }
    }
    obs::trace::set_enabled(false);
}

/// The real drivers on every op: untraced at one worker (the wall times
/// the layers must add up to) and at [`WORKERS`], then traced at one
/// worker for the cost of the program's own spans.
fn driver_pass(f: &Fixture, ops: &[Op], rep: &mut Rep, report: &mut Report) {
    let mut jobs = [0u64; WORKERS];
    for op in ops {
        let case = &f.cases[op.case];
        if op.encode {
            let t = Instant::now();
            let one = codec::encode(&case.image, &case.params, 1);
            add(rep, "encode.driver_ms", ms_since(t));
            let t = Instant::now();
            let many = codec::encode(&case.image, &case.params, WORKERS);
            add(rep, "parallel_ms", ms_since(t));
            let same =
                |r: &Result<(Vec<u8>, _), _>| r.as_ref().is_ok_and(|(b, _)| *b == case.codestream);
            report.record(same(&one) && same(&many), || {
                format!("driver encode of case {} changed", op.case)
            });
            if let (Ok((_, p1)), Ok((_, p2))) = (&one, &many) {
                add(rep, "core.rate_retries", p1.rate_retries as f64);
                for (j, n) in jobs.iter_mut().zip(&p2.worker_jobs) {
                    *j += n;
                }
            }
        }
        if op.decode {
            let t = Instant::now();
            let d = codec::decode(&case.codestream);
            add(rep, "decode.driver_ms", ms_since(t));
            report.record(d.is_ok_and(|im| im == case.decoded), || {
                format!("driver decode of case {} changed", op.case)
            });
        }
    }
    // Spawned workers only: the calling thread keeps just the remainder
    // chunks by design.
    let mean = jobs.iter().sum::<u64>() as f64 / WORKERS as f64;
    let max = jobs.iter().copied().max().unwrap_or(0) as f64;
    rep.insert("core.parallel_imbalance", max / mean);

    obs::trace::set_enabled(true);
    for op in ops.iter().filter(|op| op.encode) {
        let case = &f.cases[op.case];
        let t = Instant::now();
        let traced = codec::encode(&case.image, &case.params, 1);
        add(rep, "traced_ms", ms_since(t));
        report.record(traced.is_ok(), || {
            format!("traced encode of case {} failed", op.case)
        });
    }
    obs::trace::set_enabled(false);
}

/// Every op over the wire, one request at a time on one connection, with
/// the request's serialization and parsing timed apart.
fn served_pass(f: &mut Fixture, ops: &[Op], rep: &mut Rep, report: &mut Report) {
    let (wait0, jobs0) = (
        hist(&f.daemon, "queue_wait_us"),
        hist(&f.daemon, "job_e2e_us"),
    );
    let (mut n_enc, mut n_dec) = (0.0, 0.0);
    for op in ops {
        let (enc_req, dec_req) = &f.requests[op.case];
        for (encode, req) in [(true, enc_req), (false, dec_req)] {
            if !(if encode { op.encode } else { op.decode }) {
                continue;
            }
            let t = Instant::now();
            let payload = wire::encode_request(req);
            add(rep, "serve.wire_encode_ms", ms_since(t));
            let t = Instant::now();
            let parsed = wire::parse_request(&payload);
            add(rep, "serve.wire_parse_ms", ms_since(t));
            let t = Instant::now();
            let (reply, gap) = f.client.call_timed(&payload);
            let ms = ms_since(t);
            add(rep, "serve.reply_gap_ms", gap.as_secs_f64() * 1e3);
            if encode {
                add(rep, "serve.encode_req_ms", ms);
                n_enc += 1.0;
            } else {
                add(rep, "serve.decode_req_ms", ms);
                n_dec += 1.0;
            }
            report.record(
                parsed.is_ok() && reply_ok(&f.cases[op.case], encode, &reply),
                || format!("served request for case {} failed: {reply:?}", op.case),
            );
        }
    }
    let (wait1, jobs1) = (
        hist(&f.daemon, "queue_wait_us"),
        hist(&f.daemon, "job_e2e_us"),
    );
    rep.insert(
        "serve.encode_req_ms",
        get(rep, "serve.encode_req_ms") / n_enc,
    );
    rep.insert(
        "serve.decode_req_ms",
        get(rep, "serve.decode_req_ms") / n_dec,
    );
    rep.insert(
        "serve.reply_gap_ms",
        get(rep, "serve.reply_gap_ms") / (n_enc + n_dec),
    );
    rep.insert(
        "serve.queue_wait_ms",
        (wait1.0 - wait0.0) / (wait1.1 - wait0.1) / 1e3,
    );
    rep.insert(
        "serve.job_ms",
        (jobs1.0 - jobs0.0) / (jobs1.1 - jobs0.1) / 1e3,
    );
}

/// The metrics computed from one repetition's sums.
fn derive(rep: &mut Rep) {
    let sample_ms: f64 = [
        "xpart.plane_convert_ms",
        "core.mct_ms",
        "wavelet.dwt_ms",
        "core.quantize_ms",
    ]
    .iter()
    .map(|k| get(rep, k))
    .sum();
    let derived = [
        (
            "serve.overhead_ms",
            get(rep, "serve.encode_req_ms") - get(rep, "serve.job_ms"),
        ),
        (
            "tier1.encode_msym_s",
            get(rep, "tier1.symbols") / get(rep, "tier1.encode_ms") / 1e3,
        ),
        (
            "wavelet.dwt_gbps",
            get(rep, "dwt_bytes") / get(rep, "wavelet.dwt_ms") / 1e6,
        ),
        (
            "core.sample_gbps",
            get(rep, "sample_bytes") / sample_ms / 1e6,
        ),
        (
            "core.parallel_speedup",
            get(rep, "encode.driver_ms") / get(rep, "parallel_ms"),
        ),
        (
            "bench.trace_overhead_frac",
            get(rep, "traced_ms") / get(rep, "encode.driver_ms") - 1.0,
        ),
    ];
    rep.extend(derived);
}

/// Report `what`'s residual and note its waterfall: the median of each
/// layer, the residual, and the driver's median wall time, which the rows
/// above it sum to.
fn waterfall(
    report: &mut Report,
    what: &str,
    layers: &[&'static str],
    med: &dyn Fn(&str) -> Option<f64>,
    reps: usize,
) {
    let rows: Vec<(&str, f64)> = layers
        .iter()
        .map(|l| (*l, med(&format!("{l}_ms")).unwrap_or(f64::NAN)))
        .collect();
    let wall = med(&format!("{what}.driver_ms")).unwrap_or(f64::NAN);
    let residual = wall - rows.iter().map(|(_, ms)| ms).sum::<f64>();
    let key = if what == "encode" {
        "encode.residual_frac"
    } else {
        "decode.residual_frac"
    };
    report.set(key, residual / wall, Some(reps));
    let mut table = format!(
        "{} {what} waterfall, median of {reps} repetitions, 1 worker:\n",
        report.workload.name()
    );
    for (name, ms) in rows
        .into_iter()
        .chain([("residual", residual), ("driver wall", wall)])
    {
        let _ = writeln!(
            table,
            "  {name:<22} {ms:>10.3} ms {:>6.1}%",
            100.0 * ms / wall
        );
    }
    report.notes.push(table);
}

/// Layer time per span name, in ms, over `events` of the layer category.
fn layer_ms(events: &[obs::trace::Event]) -> BTreeMap<String, f64> {
    let mut ms = BTreeMap::new();
    for e in events.iter().filter(|e| e.cat == CAT) {
        *ms.entry(e.name.to_string()).or_insert(0.0) += e.dur_ns.unwrap_or(0) as f64 / 1e6;
    }
    ms
}

/// Sum and count of a service histogram, for means over a window.
fn hist(daemon: &Daemon, series: &str) -> (f64, f64) {
    daemon
        .service
        .histogram_snapshots()
        .into_iter()
        .find(|(n, _)| n == series)
        .map_or((0.0, 0.0), |(_, s)| (s.sum as f64, s.count as f64))
}

/// Copy bandwidth, counting bytes read plus bytes written, median of five
/// copies after both buffers are faulted in.
fn copy_probe() -> (f64, usize) {
    let src: Vec<u8> = (0..COPY_BYTES).map(|i| i as u8).collect();
    let mut dst = vec![1u8; COPY_BYTES];
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            2.0 * COPY_BYTES as f64 / (ms_since(t) / 1e3) / 1e9
        })
        .collect();
    (median(&rates).expect("five copies"), rates.len())
}

/// Write the run's events as a Chrome trace and check the file has a span
/// of every layer.
fn write_trace(report: &mut Report, events: &[obs::trace::Event], path: &Path) {
    let required: Vec<&str> = ENCODE_LAYERS.iter().chain(DECODE_LAYERS).copied().collect();
    let checked = std::fs::write(path, obs::chrome::render(events))
        .and_then(|()| std::fs::read_to_string(path))
        .map_err(|e| e.to_string())
        .and_then(|back| obs::chrome::check(&back, &required).map(|ev| ev.len()));
    match checked {
        Ok(n) => report.notes.push(format!(
            "chrome trace {} ({n} events) passes obs::chrome::check",
            path.display()
        )),
        Err(e) => report.record(false, || format!("chrome trace {}: {e}", path.display())),
    }
}
