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
//! `observe` CI job): every histogram's `+Inf` bucket equals its
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
    // Burn-rate SLO status (DESIGN.md §17): one burn-rate sample per
    // (objective, window) and a 0/1 breach flag per objective.
    let slo = svc.slo_status();
    if !slo.is_empty() {
        let windows: Vec<(&str, String, f64)> = slo
            .iter()
            .flat_map(|s| {
                s.windows
                    .iter()
                    .map(|w| (s.name.as_str(), format!("{}s", w.secs), w.burn_rate))
            })
            .collect();
        let burn: Vec<(Vec<(&str, &str)>, f64)> = windows
            .iter()
            .map(|(name, win, rate)| (vec![("slo", *name), ("window", win.as_str())], *rate))
            .collect();
        obs::prom::gauge_vec_f64(
            &mut out,
            "j2k_slo_burn_rate",
            "Error-budget burn rate per SLO window (1.0 = exactly on budget).",
            &burn,
        );
        let breached: Vec<(Vec<(&str, &str)>, f64)> = slo
            .iter()
            .map(|s| {
                (
                    vec![("slo", s.name.as_str())],
                    if s.breached { 1.0 } else { 0.0 },
                )
            })
            .collect();
        obs::prom::gauge_vec_f64(
            &mut out,
            "j2k_slo_breached",
            "1 when every window of the SLO burns over threshold.",
            &breached,
        );
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
        // Burn-rate SLO gauges: both objectives over both windows, no
        // breach on a healthy service.
        assert!(text.contains("j2k_slo_burn_rate{slo=\"latency_p99\",window=\"300s\"}"));
        assert!(text.contains("j2k_slo_burn_rate{slo=\"error_rate\",window=\"3600s\"}"));
        assert!(text.contains("j2k_slo_breached{slo=\"latency_p99\"} 0.000000"));
        assert!(text.contains("j2k_slo_breached{slo=\"error_rate\"} 0.000000"));
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
