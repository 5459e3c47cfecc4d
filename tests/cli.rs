//! End-to-end tests of the `j2kcell` command-line tool (spawned as a real
//! subprocess, exercising file I/O and argument parsing).

use std::path::PathBuf;
use std::process::Command;

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
    write_test_ppm(&src, 64, 64);
    let out = Command::new(bin())
        .args(["simulate"])
        .arg(&src)
        .args(["--spes", "4"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tier1"), "{text}");
    assert!(text.contains("4 SPE"), "{text}");
    assert!(text.contains("TOTAL"), "{text}");
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
            "mct",
            "dwt",
            "quantize",
            "tier1",
            "dwt-level-1",
            "chunk-0",
        ],
    )
    .expect("trace must parse with all pipeline span names");
    // Chunk spans carry worker attribution for the utilization report.
    let workers: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "mct" || e.name == "dwt")
        .filter_map(|e| {
            e.args
                .iter()
                .find(|(k, _)| k == "worker")
                .map(|(_, v)| *v as u64)
        })
        .collect();
    assert!(
        workers.len() >= 2,
        "expected chunk spans from >= 2 workers, saw {workers:?}"
    );
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
