//! Prometheus text exposition over a trivial HTTP/1.1 responder.
//!
//! Deliberately minimal (std::net only, no HTTP library): every request —
//! whatever its path or method — is answered with the current metrics in
//! Prometheus text exposition format 0.0.4 and the connection is closed.
//! That is all a scrape loop (`curl`, Prometheus itself) needs, and it
//! keeps the attack surface of the side port near zero: the reader is
//! bounded, nothing in the request is parsed beyond discarding the
//! header block, and the responder never writes anything derived from
//! request bytes.
//!
//! Exposition invariant (checked by `obs::prom::validate` and the
//! tests below): every histogram's `+Inf` bucket equals its
//! `_count`, and `j2k_job_e2e_us` only ever observes *completed* jobs —
//! so `j2k_job_e2e_us_bucket{le="+Inf"}` equals
//! `j2k_jobs_completed_total`.

use crate::service::EncodeService;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Default read/write deadline of the scrape responder: a stalled
/// scraper may pin the (single) responder thread for at most this long.
const DEFAULT_SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Render the service's counters, gauges, and histogram series as
/// Prometheus text exposition format.
pub fn render_prometheus(svc: &EncodeService) -> String {
    let m = svc.metrics();
    let mut out = String::with_capacity(4096);
    obs::prom::counter(
        &mut out,
        "j2k_jobs_accepted_total",
        "Jobs admitted since start.",
        m.accepted,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_rejected_total",
        "Jobs refused by admission control.",
        m.rejected,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_completed_total",
        "Jobs that returned a codestream.",
        m.completed,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_timed_out_total",
        "Jobs stopped by their deadline.",
        m.timed_out,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_cancelled_total",
        "Jobs cancelled by their submitter.",
        m.cancelled,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_failed_total",
        "Jobs the encoder refused or failed.",
        m.failed,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_retried_total",
        "Crash retries scheduled.",
        m.jobs_retried,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_poisoned_total",
        "Jobs quarantined after exhausting the crash-retry budget.",
        m.jobs_poisoned,
    );
    obs::prom::counter(
        &mut out,
        "j2k_decoded_total",
        "Decode requests answered with an image.",
        m.decoded,
    );
    obs::prom::counter(
        &mut out,
        "j2k_decode_failed_total",
        "Decode requests refused with a typed error.",
        m.decode_failed,
    );
    obs::prom::counter(
        &mut out,
        "j2k_workers_respawned_total",
        "Worker threads respawned after a crash.",
        m.workers_respawned,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_shed_total",
        "Jobs refused by the pressure policy (subset of rejected).",
        m.jobs_shed,
    );
    obs::prom::counter(
        &mut out,
        "j2k_jobs_degraded_total",
        "allow_degraded jobs downgraded to the HT coder at admission.",
        m.jobs_degraded,
    );
    obs::prom::counter(
        &mut out,
        "j2k_pressure_transitions_total",
        "Pressure level transitions since start.",
        m.pressure_transitions,
    );
    obs::prom::counter(
        &mut out,
        "j2k_connections_rejected_total",
        "Wire connections refused (cap reached or Critical pressure).",
        m.connections_rejected,
    );
    obs::prom::gauge(
        &mut out,
        "j2k_pressure_level",
        "Pressure classification: 0 nominal, 1 elevated, 2 critical.",
        u64::from(m.pressure_level),
    );
    obs::prom::gauge(
        &mut out,
        "j2k_pixels_in_flight",
        "Pixels admitted and not yet completed.",
        m.pixels_in_flight,
    );
    obs::prom::gauge(
        &mut out,
        "j2k_connections_active",
        "Wire connections currently open.",
        m.connections_active,
    );
    obs::prom::gauge(
        &mut out,
        "j2k_workers_alive",
        "Worker threads currently live.",
        m.workers_alive,
    );
    obs::prom::gauge(
        &mut out,
        "j2k_queue_depth",
        "Jobs queued right now.",
        m.queue_depth as u64,
    );
    obs::prom::gauge(
        &mut out,
        "j2k_queue_capacity",
        "The admission bound.",
        m.queue_capacity as u64,
    );
    for (name, snap) in svc.histogram_snapshots() {
        let help = match name.as_str() {
            "queue_wait_us" => "Microseconds a job waited queued before a worker claimed it.",
            "job_e2e_us" => {
                "End-to-end latency of completed jobs, microseconds (submit to codestream)."
            }
            "tier1_symbols_per_sec_mq" => "Per-job Tier-1 symbol throughput, MQ-coded jobs.",
            "tier1_symbols_per_sec_ht" => "Per-job Tier-1 symbol throughput, HT-coded jobs.",
            "decode_us" => "Wall time of successful decode requests, microseconds.",
            _ => "Per-stage encode wall time, microseconds.",
        };
        obs::prom::histogram(&mut out, &format!("j2k_{name}"), help, &snap);
    }
    out
}

/// Serve `render_prometheus` on `listener` until the service shuts down
/// or the listener errors, with the default scrape deadline. One request
/// per connection; blocking reads. Run this on a dedicated thread.
pub fn serve_metrics(listener: TcpListener, svc: Arc<EncodeService>) {
    serve_metrics_with(listener, svc, Some(DEFAULT_SCRAPE_TIMEOUT));
}

/// [`serve_metrics`] with an explicit per-connection read/write deadline.
/// The responder handles one scrape at a time, so without a deadline a
/// scraper that connects and then stalls would pin it forever; with one,
/// the stalled socket errors out and the next scrape proceeds.
pub fn serve_metrics_with(
    listener: TcpListener,
    svc: Arc<EncodeService>,
    timeout: Option<Duration>,
) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let _ = respond(stream, &svc, timeout);
        if !svc.health().accepting {
            return;
        }
    }
}

fn respond(
    mut stream: TcpStream,
    svc: &EncodeService,
    timeout: Option<Duration>,
) -> std::io::Result<()> {
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    // Drain (and ignore) the request head. Bounded: stop at the blank
    // line or after 8 KiB, whichever comes first.
    let mut buf = [0u8; 1024];
    let mut seen = 0usize;
    loop {
        let n = stream.read(&mut buf)?;
        seen += n;
        if n == 0 || seen >= 8192 || buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let body = render_prometheus(svc);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{EncodeJob, JobOutcome, ServiceConfig};
    use j2k_core::EncoderParams;

    #[test]
    fn exposition_is_valid_and_ties_e2e_to_completed() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        });
        for _ in 0..3 {
            let im = imgio::synth::natural(32, 32, 1);
            let h = svc
                .submit(EncodeJob::new(im, EncoderParams::lossless()))
                .unwrap();
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        let text = render_prometheus(&svc);
        let series = obs::prom::validate(&text).expect("exposition must validate");
        assert!(
            series >= 10,
            "expected a full exposition, got {series} series"
        );
        assert!(text.contains("j2k_jobs_completed_total 3"));
        assert!(text.contains("j2k_decoded_total 0"));
        assert!(text.contains("j2k_job_e2e_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("j2k_job_e2e_us_count 3"));
        assert!(text.contains("j2k_stage_tier1_us_count 3"));
        // Overload surface: pressure gauge + shed/degraded counters.
        assert!(text.contains("j2k_pressure_level 0"));
        assert!(text.contains("j2k_pressure_transitions_total 0"));
        assert!(text.contains("j2k_jobs_shed_total 0"));
        assert!(text.contains("j2k_jobs_degraded_total 0"));
        assert!(text.contains("j2k_pixels_in_flight 0"));
        assert!(text.contains("j2k_connections_active 0"));
        assert!(text.contains("j2k_connections_rejected_total 0"));
        // Satellite schema guarantee: the full declared histogram series
        // set appears even though only the MQ coder ran.
        assert!(text.contains("j2k_tier1_symbols_per_sec_ht_count 0"));
        assert!(text.contains("j2k_tier1_symbols_per_sec_mq_count"));
        assert!(text.contains("j2k_decode_us_count 0"));
        assert!(!text.contains("j2k_stage_quantize_us"));
        assert!(!text.contains("j2k_stage_transform_us"));
        assert!(!text.contains("j2k_tier1_symbols_per_sec_count"));
        // Layers are timed by the stage histograms only: no per-kernel
        // counter families.
        assert!(!text.contains("j2k_kernel"));
    }

    /// The value of the unlabelled sample `name` in exposition `text`.
    fn sample(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"))
    }

    /// Burn rates are computed by the scraper, so the scrape must carry
    /// every job outcome they read: one job ends each way, and each
    /// outcome counter reads 1 in the exposition and in the snapshot.
    #[test]
    fn exposition_carries_every_job_outcome() {
        let svc = EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        });
        let job = || EncodeJob::new(imgio::synth::natural(32, 32, 1), EncoderParams::lossless());
        let completed = svc.submit(job()).unwrap();
        assert!(matches!(completed.wait(), JobOutcome::Completed { .. }));
        let failed = svc
            .submit(EncodeJob {
                params: EncoderParams {
                    levels: 0,
                    ..EncoderParams::lossless()
                },
                ..job()
            })
            .unwrap();
        assert!(matches!(failed.wait(), JobOutcome::Failed(_)));
        let timed_out = svc
            .submit(EncodeJob {
                timeout: Some(Duration::ZERO),
                ..job()
            })
            .unwrap();
        assert!(matches!(timed_out.wait(), JobOutcome::TimedOut));
        svc.pause();
        let cancelled = svc.submit(job()).unwrap();
        cancelled.cancel();
        svc.resume();
        assert!(matches!(cancelled.wait(), JobOutcome::Cancelled));

        let text = render_prometheus(&svc);
        obs::prom::validate(&text).expect("exposition must validate");
        let m = svc.metrics();
        for (name, snapshot) in [
            ("j2k_jobs_completed_total", m.completed),
            ("j2k_jobs_failed_total", m.failed),
            ("j2k_jobs_timed_out_total", m.timed_out),
            ("j2k_jobs_cancelled_total", m.cancelled),
        ] {
            let value = sample(&text, name);
            assert_eq!(value, 1, "{name}");
            assert_eq!(value, snapshot, "{name} against the snapshot");
        }
        assert_eq!(
            sample(&text, "j2k_job_e2e_us_bucket{le=\"+Inf\"}"),
            sample(&text, "j2k_jobs_completed_total")
        );
    }

    #[test]
    fn http_responder_answers_one_scrape() {
        let svc = Arc::new(EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = Arc::clone(&svc);
        let t = std::thread::spawn(move || serve_metrics(listener, svc2));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        let body = resp.split("\r\n\r\n").nth(1).unwrap();
        obs::prom::validate(body).expect("scraped body must validate");
        // Unblock and stop the responder thread.
        svc.begin_shutdown();
        let _ = TcpStream::connect(addr).map(|mut s| s.write_all(b"GET / HTTP/1.1\r\n\r\n"));
        let _ = t.join();
    }

    #[test]
    fn stalled_scraper_cannot_pin_the_responder() {
        let svc = Arc::new(EncodeService::start(ServiceConfig {
            pool_threads: 1,
            ..ServiceConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc2 = Arc::clone(&svc);
        let t = std::thread::spawn(move || {
            serve_metrics_with(listener, svc2, Some(Duration::from_millis(50)))
        });
        // A scraper that connects and then sends nothing: before the
        // deadline fix this pinned the single responder thread forever
        // and every later scrape hung.
        let stalled = TcpStream::connect(addr).unwrap();
        // A well-behaved scrape queued behind it must still be answered
        // (the stalled socket errors out after the 50ms deadline).
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp:.100}");
        drop(stalled);
        svc.begin_shutdown();
        let _ = TcpStream::connect(addr).map(|mut s| s.write_all(b"GET / HTTP/1.1\r\n\r\n"));
        let _ = t.join();
    }
}
