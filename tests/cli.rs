//! End-to-end tests of the two binaries, each spawned as a real
//! subprocess: the `j2kcell` command-line tool (file I/O and argument
//! parsing) and the `j2kserved` daemon (its TCP wire port and its
//! Prometheus side port).

use j2k_core::EncoderParams;
use j2k_serve::wire::{call, DecodeRequest, EncodeRequest, Request, Response, DEFAULT_MAX_FRAME};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_j2kcell")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("j2kcell-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write_test_ppm(path: &PathBuf, w: usize, h: usize) {
    let im = imgio::synth::natural_rgb(w, h, 77);
    imgio::pnm::write(path, &im).unwrap();
}

#[test]
fn encode_decode_roundtrip_via_cli() {
    let src = tmp("in.ppm");
    let j2c = tmp("out.j2c");
    let back = tmp("back.ppm");
    write_test_ppm(&src, 96, 64);
    let st = Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&j2c)
        .status()
        .unwrap();
    assert!(st.success());
    let st = Command::new(bin())
        .args(["decode"])
        .arg(&j2c)
        .arg(&back)
        .status()
        .unwrap();
    assert!(st.success());
    assert_eq!(std::fs::read(&src).unwrap(), std::fs::read(&back).unwrap());
}

#[test]
fn lossy_flag_shrinks_output() {
    let src = tmp("in2.ppm");
    let lossless = tmp("a.j2c");
    let lossy = tmp("b.j2c");
    write_test_ppm(&src, 128, 128);
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&lossless)
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&lossy)
        .args(["--lossy", "0.1"])
        .status()
        .unwrap()
        .success());
    let a = std::fs::metadata(&lossless).unwrap().len();
    let b = std::fs::metadata(&lossy).unwrap().len();
    assert!(b < a, "lossy {b} >= lossless {a}");
    assert!(b as f64 <= 0.1 * (128.0 * 128.0 * 3.0) + 64.0);
}

#[test]
fn info_reports_geometry() {
    let src = tmp("in3.ppm");
    let j2c = tmp("c.j2c");
    write_test_ppm(&src, 40, 30);
    Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&j2c)
        .status()
        .unwrap();
    let out = Command::new(bin())
        .args(["info"])
        .arg(&j2c)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("40x30 x3 @ 8 bit"), "{text}");
    assert!(text.contains("reversible 5/3"), "{text}");
}

#[test]
fn reduced_resolution_decode() {
    let src = tmp("in4.ppm");
    let j2c = tmp("d.j2c");
    let half = tmp("half.ppm");
    write_test_ppm(&src, 64, 64);
    Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&j2c)
        .status()
        .unwrap();
    assert!(Command::new(bin())
        .args(["decode"])
        .arg(&j2c)
        .arg(&half)
        .args(["--resolution", "1"])
        .status()
        .unwrap()
        .success());
    let im = imgio::pnm::read(&half).unwrap();
    assert_eq!((im.width, im.height), (32, 32));
}

#[test]
fn decode_applies_resolution_and_max_layers_together() {
    let src = tmp("in9.ppm");
    let j2c = tmp("layers9.j2c");
    let both = tmp("both9.ppm");
    let res_only = tmp("res9.ppm");
    write_test_ppm(&src, 64, 64);
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&j2c)
        .args(["--lossy", "0.5", "--layers", "3"])
        .status()
        .unwrap()
        .success());
    for (out, extra) in [
        (&both, &["--resolution", "1", "--max-layers", "1"][..]),
        (&res_only, &["--resolution", "1"][..]),
    ] {
        assert!(Command::new(bin())
            .args(["decode"])
            .arg(&j2c)
            .arg(out)
            .args(extra)
            .status()
            .unwrap()
            .success());
    }
    let cs = std::fs::read(&j2c).unwrap();
    let both = imgio::pnm::read(&both).unwrap();
    assert_eq!(both, jpeg2000_cell::codec::decode_opts(&cs, 1, 1).unwrap());
    assert_ne!(
        both,
        imgio::pnm::read(&res_only).unwrap(),
        "--max-layers ignored next to --resolution"
    );
}

#[test]
fn simulate_prints_timeline() {
    let src = tmp("in5.ppm");
    let trace = tmp("cell5.trace.json");
    write_test_ppm(&src, 96, 96);
    let out = Command::new(bin())
        .args(["simulate"])
        .arg(&src)
        .args(["--spes", "4", "--lossy", "0.1", "--cell-trace-out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tier1"), "{text}");
    assert!(text.contains("4 SPE"), "{text}");
    assert!(text.contains("TOTAL"), "{text}");
    // The simulated schedule exports every pipeline stage on the
    // virtual clock, lossy rate control and Tier-2 included.
    let json = std::fs::read_to_string(&trace).unwrap();
    obs::chrome::check(
        &json,
        &[
            "stage:read-convert-par",
            "stage:levelshift-ict",
            "stage:dwt-vertical-l1",
            "stage:dwt-horizontal-l1",
            "stage:quantize",
            "stage:tier1",
            "stage:rate-control",
            "stage:tier2",
            "stage:stream-io",
        ],
    )
    .expect("simulated trace carries every stage");
}

#[test]
fn workers_flag_is_byte_identical_to_sequential() {
    let src = tmp("in6.ppm");
    let seq = tmp("seq.j2c");
    let par = tmp("par.j2c");
    let alias = tmp("alias.j2c");
    write_test_ppm(&src, 96, 72);
    for (out, extra) in [
        (&seq, &[][..]),
        (&par, &["--workers", "4"][..]),
        (&alias, &["--threads", "3"][..]),
    ] {
        assert!(Command::new(bin())
            .args(["encode"])
            .arg(&src)
            .arg(out)
            .args(extra)
            .status()
            .unwrap()
            .success());
    }
    let seq = std::fs::read(&seq).unwrap();
    assert_eq!(std::fs::read(&par).unwrap(), seq);
    assert_eq!(std::fs::read(&alias).unwrap(), seq);
}

#[test]
fn trace_out_writes_valid_chrome_trace_and_identical_bytes() {
    let src = tmp("in7.ppm");
    let seq = tmp("seq7.j2c");
    let traced = tmp("traced7.j2c");
    let trace = tmp("trace7.json");
    write_test_ppm(&src, 96, 64);
    // Lossy: the reversible 5/3 path quantizes nothing, and this test
    // wants every pipeline span name to appear (`quantize` is per code
    // block, inside Tier-1).
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&seq)
        .args(["--lossy", "0.5"])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&traced)
        .args(["--lossy", "0.5", "--workers", "3", "--trace-out"])
        .arg(&trace)
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read(&traced).unwrap(),
        std::fs::read(&seq).unwrap(),
        "tracing must not change output bytes"
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    let events = obs::chrome::check(
        &json,
        &[
            "stage:mct",
            "stage:dwt",
            "stage:tier1",
            "stage:rate-control",
            "mct",
            "dwt",
            "quantize",
            "tier1",
            "dwt-level-1",
            "chunk-0",
            "rate-search",
            "stage:tier2",
        ],
    )
    .expect("trace must parse with all pipeline span names");
    // Chunk spans carry worker attribution for the utilization report.
    // Which thread claims a chunk varies from run to run (the calling
    // thread may claim them all before a helper starts), so the promise
    // is only that every chunk names one of the three threads; helper
    // participation is pinned by `claim_jobs`'s own unit tests.
    for e in events.iter().filter(|e| e.name == "mct" || e.name == "dwt") {
        let worker = e.args.iter().find(|(k, _)| k == "worker").map(|(_, v)| *v);
        assert!(
            matches!(worker, Some(w) if w < 3.0),
            "{} span with worker {worker:?}",
            e.name
        );
    }
}

#[test]
fn trace_out_works_at_one_worker() {
    let src = tmp("in8.ppm");
    let out = tmp("out8.j2c");
    let trace = tmp("trace8.json");
    write_test_ppm(&src, 48, 48);
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&out)
        .args(["--trace-out"])
        .arg(&trace)
        .status()
        .unwrap()
        .success());
    let json = std::fs::read_to_string(&trace).unwrap();
    obs::chrome::check(&json, &["stage:tier1", "tier1", "mct"])
        .expect("single-worker trace still carries stage and chunk spans");
}

#[test]
fn decode_trace_out_records_stage_spans_and_identical_samples() {
    let src = tmp("in9.ppm");
    let j2c = tmp("out9.j2c");
    let plain = tmp("back9.ppm");
    let traced = tmp("back9-traced.ppm");
    let trace = tmp("trace9.json");
    write_test_ppm(&src, 40, 36);
    let (src, j2c) = (src.to_str().unwrap(), j2c.to_str().unwrap());
    let (plain, traced) = (plain.to_str().unwrap(), traced.to_str().unwrap());
    let trace_path = trace.to_str().unwrap();
    for args in [
        vec!["encode", src, j2c, "--lossy", "0.3"],
        vec!["decode", j2c, plain],
        vec!["decode", j2c, traced, "--trace-out", trace_path],
    ] {
        assert!(Command::new(bin()).args(&args).status().unwrap().success());
    }
    assert_eq!(
        std::fs::read(plain).unwrap(),
        std::fs::read(traced).unwrap(),
        "tracing changed the decoded samples"
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    obs::chrome::check(
        &json,
        &[
            "stage:parse",
            "stage:tier1-decode",
            "stage:idwt",
            "stage:output",
        ],
    )
    .expect("decode trace carries one span per stage");
}

#[test]
fn compare_reports_bit_exact_lossless_roundtrip() {
    let src = tmp("cmp-in.ppm");
    let j2c = tmp("cmp.j2c");
    let back = tmp("cmp-back.ppm");
    write_test_ppm(&src, 72, 54);
    for args in [
        vec!["encode", src.to_str().unwrap(), j2c.to_str().unwrap()],
        vec!["decode", j2c.to_str().unwrap(), back.to_str().unwrap()],
    ] {
        assert!(Command::new(bin()).args(&args).status().unwrap().success());
    }
    let out = Command::new(bin())
        .args(["compare"])
        .arg(&src)
        .arg(&back)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bit-exact"), "{text}");
    // JSON mode carries the identical flag and null (infinite) PSNR.
    let out = Command::new(bin())
        .args(["compare", "--json"])
        .arg(&src)
        .arg(&back)
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"identical\":true"), "{json}");
    assert!(json.contains("\"psnr\":null"), "{json}");
}

#[test]
fn compare_gates_lossy_quality() {
    let src = tmp("cmpq-in.ppm");
    let j2c = tmp("cmpq.j2c");
    let back = tmp("cmpq-back.ppm");
    write_test_ppm(&src, 96, 96);
    assert!(Command::new(bin())
        .args(["encode"])
        .arg(&src)
        .arg(&j2c)
        .args(["--lossy", "0.3"])
        .status()
        .unwrap()
        .success());
    assert!(Command::new(bin())
        .args(["decode"])
        .arg(&j2c)
        .arg(&back)
        .status()
        .unwrap()
        .success());
    // A sane floor passes...
    assert!(Command::new(bin())
        .args(["compare"])
        .arg(&src)
        .arg(&back)
        .args(["--min-psnr", "20", "--min-ssim", "0.5"])
        .status()
        .unwrap()
        .success());
    // ...an impossible floor exits 1 (distinct from usage errors at 2).
    let st = Command::new(bin())
        .args(["compare"])
        .arg(&src)
        .arg(&back)
        .args(["--min-psnr", "95"])
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(1));
}

#[test]
fn compare_rejects_mismatched_geometry() {
    let a = tmp("cmp-a.ppm");
    let b = tmp("cmp-b.ppm");
    write_test_ppm(&a, 32, 32);
    write_test_ppm(&b, 33, 32);
    let st = Command::new(bin())
        .args(["compare"])
        .arg(&a)
        .arg(&b)
        .status()
        .unwrap();
    assert_eq!(st.code(), Some(2));
}

#[test]
fn help_documents_workers() {
    let out = Command::new(bin()).args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--workers N"), "{text}");
    assert!(text.contains("byte-identical"), "{text}");
}

#[test]
fn bad_arguments_exit_nonzero() {
    assert!(!Command::new(bin()).status().unwrap().success());
    assert!(!Command::new(bin())
        .args(["encode", "only-one-arg"])
        .status()
        .unwrap()
        .success());
    assert!(!Command::new(bin())
        .args(["decode", "/nonexistent.j2c", "/tmp/x.ppm"])
        .status()
        .unwrap()
        .success());
    assert!(!Command::new(bin())
        .args(["frobnicate"])
        .status()
        .unwrap()
        .success());
    // Code blocks below 4 are a typed params error, not a stream that
    // our own decoder rejects.
    let src = tmp("cb.ppm");
    write_test_ppm(&src, 16, 16);
    for cb in ["1", "2"] {
        let out = Command::new(bin())
            .args(["encode"])
            .arg(&src)
            .arg(tmp("cb.j2c"))
            .args(["--cb", cb])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--cb {cb}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad parameters"), "--cb {cb}: {err}");
    }
}

/// Runs `j2kserved` with `args` to its exit and returns its exit code,
/// stdout and stderr. A daemon still running after 20 s has accepted its
/// arguments and is serving, which fails the calling test.
fn j2kserved_exit(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_j2kserved"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = std::time::Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > std::time::Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("j2kserved {args:?} is still running");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn daemon_argument_errors_exit_2_before_binding() {
    for bad in [
        &["--bogus"][..],
        &["--retry-backoff-ms", "5"],
        &["--max-crash-retries", "2"],
        &["--pool"],
        &["--pool", "x"],
        &["--pressure-elevated", "0"],
    ] {
        // An ephemeral port first: a bad argument accepted by mistake
        // must not take the default port.
        let args = [&["--addr", "127.0.0.1:0"][..], bad].concat();
        let (code, stdout, stderr) = j2kserved_exit(&args);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        // The daemon prints its address once it has bound the port.
        assert!(stdout.is_empty(), "{bad:?} bound a port: {stdout}");
        assert!(stderr.starts_with("j2kserved: "), "{bad:?}: {stderr}");
    }
    let (code, stdout, _) = j2kserved_exit(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: j2kserved"), "{stdout}");
    for retired in ["--retry-backoff-ms", "--max-crash-retries"] {
        assert!(!stdout.contains(retired), "{retired} in {stdout}");
    }
}

/// Kills the daemon if a test fails before it shuts down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `j2kserved` with `args` (which bind `--addr 127.0.0.1:0`) and
/// returns it, its bound wire address, and the rest of its stdout. The
/// daemon prints its bound addresses, wire first, before it serves.
fn spawn_daemon(args: &[&str]) -> (Daemon, String, std::io::Lines<BufReader<ChildStdout>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_j2kserved"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let daemon = Daemon(child);
    let line = lines.next().unwrap().unwrap();
    let addr = line
        .strip_prefix("j2kserved listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("wire address line: {line}"))
        .to_string();
    (daemon, addr, lines)
}

#[test]
fn daemon_encodes_decodes_traces_and_exposes_metrics() {
    let args =
        "--addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --trace --pool 2 --job-workers 2 --queue 8";
    let (mut daemon, addr, mut lines) = spawn_daemon(&args.split(' ').collect::<Vec<_>>());
    let line = lines.next().unwrap().unwrap();
    let metrics_addr = line
        .strip_prefix("j2kserved metrics on http://")
        .and_then(|rest| rest.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("metrics address line: {line}"))
        .to_string();
    let mut conn = TcpStream::connect(&addr).unwrap();

    // Health reports ready once the whole pool is live.
    let ready = (0..500).any(|_| {
        let up = matches!(
            call(&mut conn, &Request::Health, DEFAULT_MAX_FRAME).unwrap(),
            Response::Health(h) if h.ready()
        );
        if !up {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        up
    });
    assert!(ready, "the daemon never reported ready");

    // Encode over the wire: byte-identical to the local encoder.
    let im = imgio::synth::natural_rgb(96, 96, 77);
    let encode = Request::Encode(EncodeRequest {
        priority: 0,
        allow_degraded: false,
        timeout_ms: 0,
        params: EncoderParams::lossless(),
        image: im.clone(),
    });
    let codestream = match call(&mut conn, &encode, DEFAULT_MAX_FRAME).unwrap() {
        Response::EncodeOk {
            codestream,
            degraded,
        } => {
            assert!(!degraded, "an idle daemon degraded a job");
            codestream
        }
        other => panic!("encode: unexpected {other:?}"),
    };
    assert_eq!(
        codestream,
        j2k_core::encode(&im, &EncoderParams::lossless()).unwrap()
    );

    // Decode it back on the daemon: the lossless round trip closes.
    let decode = Request::Decode(DecodeRequest {
        max_layers: 0,
        discard_levels: 0,
        codestream,
    });
    match call(&mut conn, &decode, DEFAULT_MAX_FRAME).unwrap() {
        Response::DecodeOk(back) => assert_eq!(back, im),
        other => panic!("decode: unexpected {other:?}"),
    }

    // The latest job's trace splits its latency into queue wait and encode.
    match call(&mut conn, &Request::Trace(0), DEFAULT_MAX_FRAME).unwrap() {
        Response::TraceJson(json) => {
            obs::chrome::check(&json, &["queue-wait", "encode"]).expect("job trace");
        }
        other => panic!("trace: unexpected {other:?}"),
    }

    // One scrape of the side port: a valid exposition that counts the job.
    let mut scrape = TcpStream::connect(&metrics_addr).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    scrape.read_to_string(&mut resp).unwrap();
    let body = resp.split("\r\n\r\n").nth(1).unwrap();
    obs::prom::validate(body).expect("scraped exposition");
    for series in [
        "j2k_jobs_completed_total 1",
        "j2k_job_e2e_us_bucket{le=\"+Inf\"} 1",
    ] {
        assert!(body.lines().any(|l| l == series), "{series}:\n{body}");
    }

    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    assert!(daemon.0.wait().unwrap().success());
}

#[test]
fn daemon_trace_dir_keeps_the_last_jobs_traces() {
    let dir = tmp("trace-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let args = [
        "--addr",
        "127.0.0.1:0",
        "--trace-dir",
        dir_arg,
        "--trace-keep",
        "2",
    ];
    let (mut daemon, addr, _) = spawn_daemon(&args);
    let mut conn = TcpStream::connect(&addr).unwrap();

    // Three encodes, one after another: a fresh daemon numbers its jobs
    // from 1, and each job's trace is written before its reply is sent.
    for seed in 0..3 {
        let encode = Request::Encode(EncodeRequest {
            priority: 0,
            allow_degraded: false,
            timeout_ms: 0,
            params: EncoderParams::lossless(),
            image: imgio::synth::natural_rgb(32, 24, seed),
        });
        match call(&mut conn, &encode, DEFAULT_MAX_FRAME).unwrap() {
            Response::EncodeOk { .. } => {}
            other => panic!("encode {seed}: unexpected {other:?}"),
        }
    }

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["trace-job-2.json", "trace-job-3.json"]);
    for name in &names {
        let json = std::fs::read_to_string(dir.join(name)).unwrap();
        obs::chrome::check(&json, &["queue-wait", "encode", "stage:tier1"])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // The first job's trace is gone from memory too.
    match call(&mut conn, &Request::Trace(1), DEFAULT_MAX_FRAME).unwrap() {
        Response::Failed(_) => {}
        other => panic!("trace of job 1: unexpected {other:?}"),
    }

    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    assert!(daemon.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}
