//! `j2kcell` — command-line JPEG2000 encoder/decoder and Cell/B.E.
//! what-if simulator.
//!
//! ```text
//! j2kcell encode  input.{bmp,pgm,ppm} output.{j2c,jp2} [--lossy RATE] [--levels N]
//!                 [--cb N] [--variant separate|interleaved|merged]
//!                 [--fixed] [--bypass] [--layers N] [--workers N]
//! j2kcell decode  input.j2c output.{bmp,pgm,ppm} [--resolution N] [--max-layers N]
//!                 [--trace-out FILE]
//! j2kcell compare a.{bmp,pgm,ppm} b.{bmp,pgm,ppm} [--min-psnr DB] [--min-ssim S] [--json]
//! j2kcell simulate input.{bmp,pgm,ppm} [--lossy RATE] [--spes N] [--ppes N]
//! j2kcell info    input.j2c
//! j2kcell synth   output.{bmp,pgm,ppm} [--size N] [--seed N] [--gray]
//! ```
//!
//! `compare` runs the `j2k-metrics` battery (PSNR, SSIM, max error,
//! bit-exactness) between a reference image A and a candidate B — the
//! closed-loop half of an encode/decode round trip. With `--min-psnr` /
//! `--min-ssim` it exits nonzero when the candidate falls below the
//! floor, so shell pipelines can gate on quality.
//!
//! `--workers N` (alias `--threads`) runs the encode driver on N host
//! threads, the calling thread included, which claim the paper's column
//! chunks, row bands and Tier-1 code blocks from one queue — producing the
//! same codestream as one worker, where every stage runs on the calling
//! thread.

use jpeg2000_cell::codec::cell::{simulate_traced, SimOptions};
use jpeg2000_cell::codec::codestream;
use jpeg2000_cell::codec::{decode_opts, encode_with, Coder, EncoderParams, Mode};
use jpeg2000_cell::images::{bmp, pnm, Image};
use jpeg2000_cell::machine::MachineConfig;
use std::path::Path;
use std::process::exit;

fn die(msg: &str) -> ! {
    eprintln!("j2kcell: {msg}");
    exit(2);
}

const USAGE: &str = "\
j2kcell — JPEG2000 encoder/decoder and Cell/B.E. what-if simulator

usage:
  j2kcell encode  INPUT.{bmp,pgm,ppm} OUTPUT.{j2c,jp2} [options]
  j2kcell decode  INPUT.{j2c,jp2} OUTPUT.{bmp,pgm,ppm} [--resolution N] [--max-layers N]
                  [--trace-out FILE]
  j2kcell compare A.{bmp,pgm,ppm} B.{bmp,pgm,ppm} [--min-psnr DB] [--min-ssim S] [--json]
                  measure candidate B against reference A (PSNR, SSIM,
                  max error, bit-exactness); exits 1 when a --min-* floor
                  is violated, 2 on incomparable geometry
  j2kcell simulate INPUT.{bmp,pgm,ppm} [--lossy RATE] [--spes N] [--ppes N]
                  [--cell-trace-out FILE]
  j2kcell info    INPUT.{j2c,jp2}
  j2kcell synth   OUTPUT.{bmp,pgm,ppm} [--size N] [--seed N] [--gray]
                  write a deterministic natural-statistics test image
                  (N x N, default 256; --gray for single component)

encode options:
  --lossy RATE       irreversible 9/7 path at RATE output bits per input
                     bit (e.g. 0.1 = 10:1); default lossless 5/3
  --levels N         DWT decomposition levels (default 5)
  --cb N             code block size, power of two in 4..=64 (default 64)
  --layers N         quality layers (default 1)
  --variant V        vertical DWT schedule: separate|interleaved|merged
  --fixed            Q13 fixed-point 9/7 arithmetic (default f32)
  --bypass           selective MQ bypass (lazy mode; MQ coder only)
  --coder C          Tier-1 block coder: mq (default, EBCOT MQ bit-plane
                     coder) or ht (high-throughput quad coder, Part-15
                     style: MEL + CxtVLC + MagSgn cleanup, raw
                     refinement passes)
  --workers N        encode on N host threads, this one included, that
                     claim column chunks, row bands and Tier-1 code
                     blocks from one queue; output stays byte-identical
                     to one worker (alias: --threads; default 1 = every
                     stage on the calling thread)
  --failpoints SPEC  arm faultsim failpoints before encoding, e.g.
                     `dwt.level=error@2` or `tier1.block=panic@3` —
                     requires a build with `--features failpoints`
                     (chaos drills; see DESIGN.md §11)
  --trace-out FILE   record the encode as Chrome trace-event JSON and
                     write it to FILE (load in Perfetto / about:tracing);
                     per-stage and per-chunk spans at any worker count —
                     output bytes are unchanged

decode options:
  --resolution N     discard the N finest resolution levels (the image
                     downscaled by 2^N)
  --max-layers N     keep only the first N quality layers
  --trace-out FILE   record the decode as Chrome trace-event JSON: one
                     span per stage (stage:parse, stage:tier1-decode,
                     stage:idwt, stage:output) — output samples are
                     unchanged

simulate options:
  --cell-trace-out FILE
                     export the simulated schedule as Chrome trace-event
                     JSON on the *virtual* clock: one span per pipeline
                     stage plus per-PE compute and DMA tracks (GET /
                     compute / PUT per task), so double-buffered overlap
                     and the Tier-1 queue's load balance are visible in
                     Perfetto";

fn read_image(path: &str) -> Image {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let r = match ext.to_ascii_lowercase().as_str() {
        "bmp" => bmp::read(path),
        "pgm" | "ppm" | "pnm" => pnm::read(path),
        other => die(&format!(
            "unsupported input extension .{other} (bmp/pgm/ppm)"
        )),
    };
    r.unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")))
}

fn write_image(path: &str, im: &Image) {
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    let r = match ext.to_ascii_lowercase().as_str() {
        "bmp" => bmp::write(path, im),
        "pgm" | "ppm" | "pnm" => pnm::write(path, im),
        other => die(&format!(
            "unsupported output extension .{other} (bmp/pgm/ppm)"
        )),
    };
    r.unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

struct Opt {
    positional: Vec<String>,
    lossy: Option<f64>,
    levels: usize,
    cb: usize,
    layers: usize,
    fixed: bool,
    variant: wavelet::VerticalVariant,
    workers: usize,
    spes: usize,
    ppes: usize,
    resolution: usize,
    max_layers: usize,
    bypass: bool,
    coder: Coder,
    failpoints: Option<String>,
    trace_out: Option<String>,
    cell_trace_out: Option<String>,
    size: usize,
    seed: u64,
    gray: bool,
    min_psnr: Option<f64>,
    min_ssim: Option<f64>,
    json: bool,
}

fn parse(args: &[String]) -> Opt {
    let mut o = Opt {
        positional: Vec::new(),
        lossy: None,
        levels: 5,
        cb: 64,
        layers: 1,
        fixed: false,
        variant: wavelet::VerticalVariant::Merged,
        workers: 1,
        spes: 8,
        ppes: 1,
        resolution: 0,
        max_layers: usize::MAX,
        bypass: false,
        coder: Coder::Mq,
        failpoints: None,
        trace_out: None,
        cell_trace_out: None,
        size: 256,
        seed: 7,
        gray: false,
        min_psnr: None,
        min_ssim: None,
        json: false,
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &String {
            args.get(i + 1)
                .unwrap_or_else(|| die(&format!("missing value after {}", args[i])))
        };
        match args[i].as_str() {
            "--lossy" => {
                o.lossy = Some(need(i).parse().unwrap_or_else(|_| die("--lossy RATE")));
                i += 2;
            }
            "--levels" => {
                o.levels = need(i).parse().unwrap_or_else(|_| die("--levels N"));
                i += 2;
            }
            "--cb" => {
                o.cb = need(i).parse().unwrap_or_else(|_| die("--cb N"));
                i += 2;
            }
            "--layers" => {
                o.layers = need(i).parse().unwrap_or_else(|_| die("--layers N"));
                i += 2;
            }
            "--workers" | "--threads" => {
                o.workers = need(i)
                    .parse()
                    .unwrap_or_else(|_| die(&format!("{} N", args[i])));
                i += 2;
            }
            "--spes" => {
                o.spes = need(i).parse().unwrap_or_else(|_| die("--spes N"));
                i += 2;
            }
            "--ppes" => {
                o.ppes = need(i).parse().unwrap_or_else(|_| die("--ppes N"));
                i += 2;
            }
            "--resolution" => {
                o.resolution = need(i).parse().unwrap_or_else(|_| die("--resolution N"));
                i += 2;
            }
            "--max-layers" => {
                o.max_layers = need(i).parse().unwrap_or_else(|_| die("--max-layers N"));
                i += 2;
            }
            "--failpoints" => {
                o.failpoints = Some(need(i).clone());
                i += 2;
            }
            "--trace-out" => {
                o.trace_out = Some(need(i).clone());
                i += 2;
            }
            "--cell-trace-out" => {
                o.cell_trace_out = Some(need(i).clone());
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
            "--gray" => {
                o.gray = true;
                i += 1;
            }
            "--min-psnr" => {
                o.min_psnr = Some(need(i).parse().unwrap_or_else(|_| die("--min-psnr DB")));
                i += 2;
            }
            "--min-ssim" => {
                o.min_ssim = Some(need(i).parse().unwrap_or_else(|_| die("--min-ssim S")));
                i += 2;
            }
            "--json" => {
                o.json = true;
                i += 1;
            }
            "--fixed" => {
                o.fixed = true;
                i += 1;
            }
            "--bypass" => {
                o.bypass = true;
                i += 1;
            }
            "--coder" => {
                o.coder = Coder::parse(need(i)).unwrap_or_else(|| die("--coder mq|ht"));
                i += 2;
            }
            "--variant" => {
                o.variant = match need(i).as_str() {
                    "separate" => wavelet::VerticalVariant::Separate,
                    "interleaved" => wavelet::VerticalVariant::Interleaved,
                    "merged" => wavelet::VerticalVariant::Merged,
                    v => die(&format!("unknown variant {v}")),
                };
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            _ => {
                o.positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    o
}

/// Turn tracing on for one encode or decode when `--trace-out` is given.
fn start_trace(o: &Opt) {
    if o.trace_out.is_some() {
        obs::trace::set_enabled(true);
        obs::trace::set_current(obs::trace::next_trace_id());
    }
}

/// Write the spans recorded since [`start_trace`] to the `--trace-out`
/// file as Chrome trace-event JSON.
fn write_trace(o: &Opt) {
    let Some(trace_path) = &o.trace_out else {
        return;
    };
    obs::trace::flush_thread();
    let events = obs::trace::drain_all();
    let json = obs::chrome::render(&events);
    std::fs::write(trace_path, &json)
        .unwrap_or_else(|e| die(&format!("cannot write {trace_path}: {e}")));
    eprintln!(
        "j2kcell: wrote {} trace events to {trace_path}{}",
        events.len(),
        if obs::trace::dropped() > 0 {
            " (sink overflow: some events dropped)"
        } else {
            ""
        }
    );
}

fn params_of(o: &Opt) -> EncoderParams {
    EncoderParams {
        mode: match o.lossy {
            Some(rate) => Mode::Lossy { rate },
            None => Mode::Lossless,
        },
        levels: o.levels,
        cb_size: o.cb,
        layers: o.layers,
        bypass: o.bypass,
        coder: o.coder,
        variant: o.variant,
        arithmetic: if o.fixed {
            jpeg2000_cell::codec::Arithmetic::FixedQ13
        } else {
            jpeg2000_cell::codec::Arithmetic::Float32
        },
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        die("usage: j2kcell <encode|decode|compare|simulate|info|synth> ... (--help for details)");
    };
    if cmd == "--help" || cmd == "-h" {
        println!("{USAGE}");
        return;
    }
    let o = parse(rest);
    if let Some(spec) = &o.failpoints {
        if !faultsim::ENABLED {
            die(
                "--failpoints requires a build with `--features failpoints` \
                 (this binary compiled the fault-injection layer out)",
            );
        }
        let schedule =
            faultsim::parse_schedule(spec).unwrap_or_else(|e| die(&format!("--failpoints: {e}")));
        let n = faultsim::arm_schedule(&schedule);
        eprintln!("j2kcell: armed {n} failpoint rule(s) from --failpoints");
    }
    match cmd.as_str() {
        "encode" => {
            let [input, output] = o.positional.as_slice() else {
                die("encode needs INPUT and OUTPUT paths");
            };
            let im = read_image(input);
            let params = params_of(&o);
            start_trace(&o);
            let t0 = std::time::Instant::now();
            let (bytes, _) =
                encode_with(&im, &params, o.workers, None).unwrap_or_else(|e| die(&e.to_string()));
            write_trace(&o);
            let bytes = if output.ends_with(".jp2") {
                jpeg2000_cell::codec::jp2::wrap(&bytes).unwrap_or_else(|e| die(&e.to_string()))
            } else {
                bytes
            };
            std::fs::write(output, &bytes).unwrap_or_else(|e| die(&e.to_string()));
            println!(
                "{} -> {}: {} -> {} bytes ({:.2}:1) in {:.1} ms",
                input,
                output,
                im.raw_bytes(),
                bytes.len(),
                im.raw_bytes() as f64 / bytes.len() as f64,
                t0.elapsed().as_secs_f64() * 1e3
            );
        }
        "decode" => {
            let [input, output] = o.positional.as_slice() else {
                die("decode needs INPUT and OUTPUT paths");
            };
            let bytes = std::fs::read(input).unwrap_or_else(|e| die(&e.to_string()));
            let cs: &[u8] = if jpeg2000_cell::codec::jp2::is_jp2(&bytes) {
                jpeg2000_cell::codec::jp2::unwrap(&bytes).unwrap_or_else(|e| die(&e.to_string()))
            } else {
                &bytes
            };
            start_trace(&o);
            let im =
                decode_opts(cs, o.max_layers, o.resolution).unwrap_or_else(|e| die(&e.to_string()));
            write_trace(&o);
            write_image(output, &im);
            println!(
                "{} -> {}: {}x{} x{} components",
                input,
                output,
                im.width,
                im.height,
                im.comps()
            );
        }
        "compare" => {
            let [a_path, b_path] = o.positional.as_slice() else {
                die("compare needs reference A and candidate B image paths");
            };
            let a = read_image(a_path);
            let b = read_image(b_path);
            let c = jpeg2000_cell::quality::compare(&a, &b)
                .unwrap_or_else(|e| die(&format!("{a_path} vs {b_path}: {e}")));
            if o.json {
                println!("{}", c.to_json());
            } else {
                print!("{c}");
            }
            let mut violated = false;
            if let Some(floor) = o.min_psnr {
                if c.psnr < floor {
                    eprintln!("j2kcell: PSNR {:.2} dB below floor {floor:.2} dB", c.psnr);
                    violated = true;
                }
            }
            if let Some(floor) = o.min_ssim {
                if c.ssim < floor {
                    eprintln!("j2kcell: SSIM {:.4} below floor {floor:.4}", c.ssim);
                    violated = true;
                }
            }
            if violated {
                exit(1);
            }
        }
        "simulate" => {
            let [input] = o.positional.as_slice() else {
                die("simulate needs an INPUT image path");
            };
            let im = read_image(input);
            let (_, prof) =
                encode_with(&im, &params_of(&o), 1, None).unwrap_or_else(|e| die(&e.to_string()));
            let base = if o.spes > 8 {
                MachineConfig::qs20_blade()
            } else {
                MachineConfig::qs20_single()
            };
            let cfg = base.with_spes(o.spes).with_ppes(o.ppes);
            let (tl, tr) = simulate_traced(
                &prof,
                &cfg,
                &SimOptions {
                    ppe_tier1: o.ppes > 1,
                    ..Default::default()
                },
            );
            if let Some(trace_path) = &o.cell_trace_out {
                let json = tr.to_chrome_json();
                std::fs::write(trace_path, &json)
                    .unwrap_or_else(|e| die(&format!("cannot write {trace_path}: {e}")));
                eprintln!(
                    "j2kcell: wrote simulated schedule ({} stages, {} cycles) to {trace_path}",
                    tr.stages().len(),
                    tr.total_cycles()
                );
            }
            println!(
                "simulated encode on {} SPE + {} PPE Cell/B.E. @ {:.1} GHz:",
                cfg.num_spes,
                cfg.num_ppes,
                cfg.clock_hz / 1e9
            );
            print!("{}", tl.render());
        }
        "info" => {
            let [input] = o.positional.as_slice() else {
                die("info needs an INPUT .j2c path");
            };
            let bytes = std::fs::read(input).unwrap_or_else(|e| die(&e.to_string()));
            let cs: &[u8] = if jpeg2000_cell::codec::jp2::is_jp2(&bytes) {
                println!("JP2 container ({} bytes)", bytes.len());
                jpeg2000_cell::codec::jp2::unwrap(&bytes).unwrap_or_else(|e| die(&e.to_string()))
            } else {
                &bytes
            };
            let parsed = codestream::parse(cs).unwrap_or_else(|e| die(&e.to_string()));
            let h = &parsed.header;
            println!("{}x{} x{} @ {} bit", h.width, h.height, h.comps, h.depth);
            println!(
                "{} levels, {} layers, {}x{} code blocks, {}, {} tier-1, MCT {}",
                h.levels,
                h.layers,
                h.cb_size,
                h.cb_size,
                if h.lossless {
                    "reversible 5/3"
                } else {
                    "irreversible 9/7"
                },
                h.coder.name(),
                h.mct
            );
            println!(
                "{} coded blocks, {} codestream bytes",
                parsed.blocks.len(),
                cs.len()
            );
        }
        "synth" => {
            let [output] = o.positional.as_slice() else {
                die("synth needs an OUTPUT image path");
            };
            if o.size == 0 {
                die("--size must be positive");
            }
            let im = if o.gray {
                jpeg2000_cell::images::synth::natural(o.size, o.size, o.seed)
            } else {
                jpeg2000_cell::images::synth::natural_rgb(o.size, o.size, o.seed)
            };
            write_image(output, &im);
            println!(
                "{}: {}x{} x{} synthetic image (seed {})",
                output,
                im.width,
                im.height,
                im.comps(),
                o.seed
            );
        }
        other => die(&format!("unknown command {other}")),
    }
}
