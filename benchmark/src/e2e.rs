//! The untraced run: the end-to-end catalogue, as a caller of the codec or
//! of the daemon sees it.
//!
//! The codec workloads are one caller in a closed loop over the
//! workload's images, each encoded then decoded. The daemon workload runs
//! on two persistent connections, as the repository's load generator
//! does: a closed loop for a quarter of the run (throughput and per-kind
//! latency), then an open loop at a fixed rate for the rest (latency from
//! each request's due time).
//!
//! The throughputs are peak throughputs: each image's fastest encode (or
//! decode) in the run. The host shares its cores with other tenants, so
//! its speed swings both within a run (bursts of a second or two) and
//! between runs (phases of minutes); a slower sample measures that as
//! much as the codec. The fastest sample is the one least disturbed, and
//! its run-to-run spread is a third to two thirds of the median's.
//! Medians and tails of every operation kind are printed beside them as
//! notes.
//!
//! The daemon writes a reply's frame header and payload separately on a
//! socket without `TCP_NODELAY`, so a reply shorter than one segment can
//! wait for the client's delayed ACK. The run notes the share of replies
//! of each loop whose payload was held back that way.

use crate::codec;
use crate::daemon::{self, closed_loop, open_loop, schedule, Daemon, Frames, Sample, STALL};
use crate::inputs::{self, daemon_op, Case, Workload, POOL};
use crate::metrics::Report;
use crate::stats::{median, percentile, samples_for};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is `setup_s`.
const SETUP_REPS: usize = 3;

/// The tail percentile noted beside each median. A run of this length
/// gives the 768² lossless workload about fifty operations, and forty is
/// the fewest that leave ten samples beyond the 75th percentile.
pub const TAIL: f64 = 0.75;

/// Daemon open-loop arrival rate: about 40% of what the two connections
/// complete in the closed loop. Queueing turns a slower host into a
/// larger rise in latency the nearer the rate is to capacity; at this load
/// a host running 25% slow moves the open-loop latency by about as much,
/// not twice as much.
const RATE_PER_S: f64 = 20.0;

/// Connections open at once, and so requests in flight, of the daemon
/// generator: the host has two cores.
const CLIENTS: usize = 2;

pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(w, seed, false);
    match w {
        Workload::DaemonMixed => run_daemon(&mut report, seconds),
        _ => run_codec(&mut report, seconds),
    }
    report
}

/// Build the fixture [`SETUP_REPS`] times (dropping each before the next),
/// report the median build time as `setup_s`, and keep the last.
fn set_up<T>(report: &mut Report, mut build: impl FnMut(&mut Report) -> T) -> T {
    let mut times = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build(report));
        times.push(t.elapsed().as_secs_f64());
    }
    report.set(
        "setup_s",
        median(&times).expect("set-up ran"),
        Some(times.len()),
    );
    fixture.expect("set-up ran")
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// When a loop that has run `secs` but still lacks its minimum sample
/// count stops anyway: late enough for a short `--seconds` to reach the
/// minimum, early enough that a stuck run still ends.
fn give_up_after(secs: f64) -> f64 {
    (3.0 * secs).max(60.0)
}

/// Peak throughput over `samples` of `(case, seconds)`: the pixels of the
/// cases that have samples over the sum of each one's fastest time. NaN,
/// which fails the run, when there are no samples.
fn peak_mpix_s(cases: &[Case], samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut best = vec![f64::INFINITY; cases.len()];
    for (case, s) in samples {
        best[case] = best[case].min(s);
    }
    let (pixels, secs) = cases
        .iter()
        .zip(&best)
        .filter(|(_, b)| b.is_finite())
        .fold((0, 0.0), |(p, t), (c, b)| (p + c.pixels(), t + b));
    pixels as f64 / 1e6 / secs
}

/// `what: p50 X ms, p75 Y ms, n=N` of latencies in ms.
fn latency_note(what: &str, latencies_ms: &[f64]) -> String {
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.3} ms"));
    format!(
        "{what}: p50 {}, p{} {}, n={}",
        fmt(median(latencies_ms)),
        (TAIL * 100.0) as u32,
        fmt(percentile(latencies_ms, TAIL)),
        latencies_ms.len()
    )
}

fn run_codec(report: &mut Report, seconds: f64) {
    let (w, seed) = (report.workload, report.seed);
    let cases = set_up(report, |r| inputs::cases(w, seed, r));
    let workers = w.workers();
    let min_ops = samples_for(TAIL);
    // (case, seconds) of every encode and every decode, in run order.
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && enc.len() >= min_ops) || elapsed >= give_up_after(seconds) {
            break;
        }
        for (i, case) in cases.iter().enumerate() {
            let t0 = Instant::now();
            let encoded = codec::encode(&case.image, &case.params, workers);
            let t1 = Instant::now();
            let decoded = encoded.as_ref().ok().map(|(bytes, _)| codec::decode(bytes));
            let t2 = Instant::now();
            let same_bytes = matches!(&encoded, Ok((b, _)) if *b == case.codestream);
            let same_image = matches!(&decoded, Some(Ok(im)) if *im == case.decoded);
            report.record(same_bytes && same_image, || {
                format!(
                    "case {i}: codestream identical {same_bytes}, decode identical {same_image}"
                )
            });
            enc.push((i, (t1 - t0).as_secs_f64()));
            dec.push((i, (t2 - t1).as_secs_f64()));
        }
    }
    report.set(
        "encode_peak_mpix_s",
        peak_mpix_s(&cases, enc.iter().copied()),
        Some(enc.len()),
    );
    report.set(
        "decode_peak_mpix_s",
        peak_mpix_s(&cases, dec.iter().copied()),
        Some(dec.len()),
    );
    let bits: usize = cases.iter().map(|c| 8 * c.codestream.len()).sum();
    let pixels: usize = cases.iter().map(Case::pixels).sum();
    report.set("bits_per_pixel", bits as f64 / pixels as f64, None);
    let lat = |v: &[(usize, f64)]| v.iter().map(|&(_, s)| ms(s)).collect::<Vec<_>>();
    let (enc_ms, dec_ms) = (lat(&enc), lat(&dec));
    let op_ms: Vec<f64> = enc_ms.iter().zip(&dec_ms).map(|(e, d)| e + d).collect();
    for (what, v) in [
        ("encode", &enc_ms),
        ("decode", &dec_ms),
        ("encode + decode", &op_ms),
    ] {
        report
            .notes
            .push(latency_note(&format!("{what} per image"), v));
    }
}

fn run_daemon(report: &mut Report, seconds: f64) {
    let seed = report.seed;
    let (cases, frames, daemon) = set_up(report, |r| {
        let cases = inputs::cases(Workload::DaemonMixed, seed, r);
        let frames: Vec<Frames> = cases.iter().map(Frames::new).collect();
        let daemon = Daemon::start().expect("start the daemon");
        let mut client = daemon.connect().expect("connect to the daemon");
        // Warm the served path: one request of each kind.
        for k in 0..4 {
            let ok = daemon::send(&mut client, &cases, &frames, k).ok;
            r.record(ok, || {
                format!("warm-up request {k} got a wrong or failed reply")
            });
        }
        (cases, frames, daemon)
    });
    let mut clients: Vec<_> = (0..CLIENTS)
        .map(|_| daemon.connect().expect("connect to the daemon"))
        .collect();
    let send = |c: &mut daemon::Client, k: usize| daemon::send(c, &cases, &frames, k);
    // Decodes are a quarter of the mix; each kind needs its tail samples.
    let closed_s = seconds / 4.0;
    let (closed, wall) = closed_loop(
        &mut clients,
        Duration::from_secs_f64(closed_s),
        Duration::from_secs_f64(give_up_after(closed_s)),
        4 * samples_for(TAIL),
        send,
    );
    let due = schedule(seed, RATE_PER_S, seconds * 3.0 / 4.0);
    let open = open_loop(&mut clients, &due, send);
    drop(clients);
    if let Err(e) = daemon.stop() {
        report.record(false, || format!("daemon did not stop: {e}"));
    }
    for s in closed.iter().chain(&open) {
        report.record(s.ok, || {
            format!("request {} got a wrong or failed reply", s.k)
        });
    }

    let of_kind = |encode: bool| {
        closed
            .iter()
            .filter(move |s| daemon_op(s.k).encode == encode)
            .map(|s| (daemon_op(s.k).case, s.latency.as_secs_f64()))
    };
    report.set(
        "encode_peak_mpix_s",
        peak_mpix_s(&cases, of_kind(true)),
        Some(of_kind(true).count()),
    );
    report.set(
        "decode_peak_mpix_s",
        peak_mpix_s(&cases, of_kind(false)),
        Some(of_kind(false).count()),
    );
    // The mix's coded size: two lossless-MQ and one lossy-HT encode of
    // every pool image (the replies are checked to be these bytes).
    let bits: usize = cases
        .chunks(2)
        .map(|pair| 8 * (2 * pair[0].codestream.len() + pair[1].codestream.len()))
        .sum();
    report.set(
        "bits_per_pixel",
        bits as f64 / (3 * POOL * cases[0].pixels()) as f64,
        None,
    );

    let latency = |s: &Sample| ms(s.latency.as_secs_f64());
    let completed = closed.iter().filter(|s| s.ok).count();
    report.notes.push(format!(
        "closed loop: {completed} requests completed in {:.3} s on {CLIENTS} connections, {:.3} req/s",
        wall.as_secs_f64(),
        completed as f64 / wall.as_secs_f64()
    ));
    for (what, encode) in [("closed-loop encode", true), ("closed-loop decode", false)] {
        let v: Vec<f64> = of_kind(encode).map(|(_, s)| ms(s)).collect();
        report.notes.push(latency_note(what, &v));
    }
    let lat: Vec<f64> = open.iter().map(latency).collect();
    report
        .notes
        .push(latency_note("open-loop latency from the due time", &lat));
    let late: Vec<f64> = open.iter().map(|s| ms(s.late.as_secs_f64())).collect();
    report.notes.push(format!(
        "open loop: {} requests at {RATE_PER_S}/s on {CLIENTS} connections; sent late by p50 {:.3} ms, p75 {:.3} ms, max {:.3} ms",
        open.len(),
        percentile(&late, 0.5).unwrap_or(f64::NAN),
        percentile(&late, TAIL).unwrap_or(f64::NAN),
        late.iter().copied().fold(0.0, f64::max),
    ));
    for (name, samples) in [("closed", &closed), ("open", &open)] {
        report.notes.push(stall_note(name, samples));
    }
}

/// The share of a loop's replies, per request kind, whose payload trailed
/// its header by [`STALL`] or more.
fn stall_note(name: &str, samples: &[Sample]) -> String {
    let kind = |s: &Sample| {
        let op = daemon_op(s.k);
        match (op.encode, op.case % 2) {
            (false, _) => "decode",
            (true, 0) => "lossless encode",
            _ => "lossy encode",
        }
    };
    let shares: Vec<String> = ["lossless encode", "lossy encode", "decode"]
        .iter()
        .map(|&k| {
            let of_kind: Vec<&Sample> = samples.iter().filter(|s| kind(s) == k).collect();
            let stalled = of_kind.iter().filter(|s| s.stalled()).count();
            format!("{k} {stalled}/{}", of_kind.len())
        })
        .collect();
    format!(
        "{name} loop: replies whose payload trailed the header by {} ms or more: {}",
        STALL.as_millis(),
        shares.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_throughput_takes_each_cases_fastest_sample() {
        let mut r = Report::new(Workload::SmallImages, 1, false);
        let mut case = |size| {
            let image = imgio::synth::natural(size, size, 1);
            inputs::drawn(|_| image.clone(), &[inputs::lossless_mq()], 1, &mut r).remove(0)
        };
        // 100 and 400 pixels.
        let cases = [case(10), case(20)];
        let samples = [(0, 3.0), (1, 2.0), (0, 1.0), (1, 9.0), (0, 5.0)];
        let mpix = peak_mpix_s(&cases, samples);
        assert!((mpix - 500.0 / 1e6 / 3.0).abs() < 1e-15, "{mpix}");
        // A case without samples adds neither pixels nor time.
        assert!((peak_mpix_s(&cases, [(1, 4.0)]) - 100e-6).abs() < 1e-15);
        assert!(peak_mpix_s(&cases, []).is_nan());
    }
}
