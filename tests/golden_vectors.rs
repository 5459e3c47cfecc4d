//! Golden codestream corpus: byte-exact fixtures under `tests/golden/`
//! that pin the encoder's output — header syntax, rate allocation, and
//! Tier-2 packet bytes — across refactors of the rate-control/Tier-2
//! tail. Any intentional format or R-D change must re-bless the corpus:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release --test golden_vectors
//! ```
//!
//! Every case is also encoded through `encode_with` (several worker
//! counts) and `encode_on_cell`, so the corpus simultaneously proves the
//! cross-worker byte-identity invariant on fixed inputs, and every lossy
//! case carries a decoder round-trip PSNR floor so a rate-control change
//! that silently trades quality for rate is caught even when the bytes
//! are re-blessed.

use jpeg2000_cell::codec::cell::SimOptions;
use jpeg2000_cell::codec::{
    decode, encode, encode_on_cell, encode_with, Arithmetic, Coder, EncoderParams,
};
use jpeg2000_cell::images::Image;
use jpeg2000_cell::machine::MachineConfig;
use jpeg2000_cell::quality;
use std::path::PathBuf;

struct Case {
    /// Fixture file stem under `tests/golden/`.
    name: &'static str,
    image: fn() -> Image,
    params: EncoderParams,
    /// Decoder round-trip PSNR floor in dB; `None` for lossless cases
    /// (those must reconstruct exactly).
    psnr_floor: Option<f64>,
}

fn synth() -> Vec<Case> {
    use jpeg2000_cell::images::synth::*;
    // Geometry notes: 57 and 100 are not multiples of the column-chunk
    // width, 31x47 is odd in both axes, and the 100x1 / 129x1 cases are
    // the 1-pixel-tall degenerate strips.
    vec![
        Case {
            name: "lossless_gray_64x64",
            image: || natural(64, 64, 7),
            params: EncoderParams::lossless(),
            psnr_floor: None,
        },
        Case {
            name: "lossless_rgb_57x33",
            image: || natural_rgb(57, 33, 4),
            params: EncoderParams {
                levels: 3,
                cb_size: 32,
                ..EncoderParams::lossless()
            },
            psnr_floor: None,
        },
        Case {
            name: "lossless_strip_100x1",
            image: || natural(100, 1, 3),
            params: EncoderParams {
                levels: 2,
                ..EncoderParams::lossless()
            },
            psnr_floor: None,
        },
        Case {
            name: "lossless_noise_bypass_31x47",
            image: || noise(31, 47, 9),
            params: EncoderParams {
                bypass: true,
                ..EncoderParams::lossless()
            },
            psnr_floor: None,
        },
        Case {
            name: "lossy_gray_96x96_r25",
            image: || natural(96, 96, 11),
            params: EncoderParams::lossy(0.25),
            psnr_floor: Some(30.0),
        },
        Case {
            name: "lossy_rgb_100x40_r40_l3",
            image: || natural_rgb(100, 40, 8),
            params: EncoderParams {
                layers: 3,
                ..EncoderParams::lossy(0.4)
            },
            psnr_floor: Some(30.0),
        },
        Case {
            name: "lossy_fixed_64x64_r30",
            image: || natural(64, 64, 2),
            params: EncoderParams {
                arithmetic: Arithmetic::FixedQ13,
                ..EncoderParams::lossy(0.3)
            },
            psnr_floor: Some(30.0),
        },
        Case {
            // Q13 through the ICT: the colour transform's f32 output is
            // rounded into fixed point before the 9/7 lifting.
            name: "lossy_fixed_rgb_100x40_r30",
            image: || natural_rgb(100, 40, 6),
            params: EncoderParams {
                arithmetic: Arithmetic::FixedQ13,
                ..EncoderParams::lossy(0.3)
            },
            psnr_floor: Some(30.0),
        },
        Case {
            name: "lossy_strip_129x1_r50",
            image: || natural(129, 1, 5),
            params: EncoderParams {
                levels: 1,
                ..EncoderParams::lossy(0.5)
            },
            // Degenerate budget: 50% of a 129-byte strip is mostly marker
            // overhead, so reconstruction quality is inherently low. The
            // case pins codestream shape, not fidelity (measured ~10.8 dB).
            psnr_floor: Some(9.5),
        },
        Case {
            name: "lossy_rgb_bypass_72x56_r20",
            image: || natural_rgb(72, 56, 5),
            params: EncoderParams {
                bypass: true,
                ..EncoderParams::lossy(0.2)
            },
            psnr_floor: Some(27.0),
        },
        // HT (high-throughput quad coder) legs: same shapes as the MQ
        // cases above so a Tier-1 backend regression shows up as a diff
        // against a directly comparable fixture.
        Case {
            name: "ht_lossless_gray_64x64",
            image: || natural(64, 64, 7),
            params: EncoderParams {
                coder: Coder::Ht,
                ..EncoderParams::lossless()
            },
            psnr_floor: None,
        },
        Case {
            name: "ht_lossless_rgb_57x33",
            image: || natural_rgb(57, 33, 4),
            params: EncoderParams {
                levels: 3,
                cb_size: 32,
                coder: Coder::Ht,
                ..EncoderParams::lossless()
            },
            psnr_floor: None,
        },
        Case {
            name: "ht_lossy_gray_96x96_r25",
            image: || natural(96, 96, 11),
            params: EncoderParams {
                coder: Coder::Ht,
                ..EncoderParams::lossy(0.25)
            },
            // The HT cleanup's coarser truncation grid costs rate vs MQ
            // at a fixed budget; the exact figure is pinned by
            // quality.json, this floor only catches collapses.
            psnr_floor: Some(27.0),
        },
        Case {
            name: "ht_lossy_rgb_100x40_r40_l3",
            image: || natural_rgb(100, 40, 8),
            params: EncoderParams {
                layers: 3,
                coder: Coder::Ht,
                ..EncoderParams::lossy(0.4)
            },
            psnr_floor: Some(27.0),
        },
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.j2c"))
}

fn blessing() -> bool {
    std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1")
}

/// Byte-diff every corpus case against its fixture, at several worker
/// counts and through the Cell-simulated encode. With `GOLDEN_BLESS=1` the
/// fixtures are rewritten from the one-worker encode instead (the worker
/// counts are still cross-checked).
#[test]
fn corpus_is_byte_exact_across_drivers() {
    let mut blessed = 0;
    for case in synth() {
        let im = (case.image)();
        let seq = encode(&im, &case.params).expect(case.name);
        for workers in [2usize, 5] {
            let (par, _) = encode_with(&im, &case.params, workers, None).expect(case.name);
            assert_eq!(par, seq, "{}: parallel({workers}) differs", case.name);
        }
        let (cell, _, _) = encode_on_cell(
            &im,
            &case.params,
            &MachineConfig::qs20_single(),
            &SimOptions::default(),
        )
        .expect(case.name);
        assert_eq!(cell, seq, "{}: cell-sim differs", case.name);

        let path = fixture_path(case.name);
        if blessing() {
            std::fs::write(&path, &seq).expect(case.name);
            blessed += 1;
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing fixture {} ({e}); regenerate with GOLDEN_BLESS=1",
                case.name,
                path.display()
            )
        });
        assert_eq!(
            seq,
            golden,
            "{}: codestream diverged from golden fixture (lengths {} vs {}); if \
             intentional, re-bless with GOLDEN_BLESS=1",
            case.name,
            seq.len(),
            golden.len()
        );
    }
    if blessing() {
        panic!("blessed {blessed} fixtures; rerun without GOLDEN_BLESS to verify");
    }
}

fn quality_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quality.json")
}

/// Pull one recorded metric for `name` out of the hand-rolled
/// `quality.json` (`None` = recorded as `null`, i.e. infinite PSNR).
fn recorded_metric(json: &str, name: &str, field: &str) -> Option<Option<f64>> {
    let obj = &json[json.find(&format!("\"{name}\": {{"))?..];
    let obj = &obj[..obj.find('}')?];
    let v = obj[obj.find(&format!("\"{field}\":"))? + field.len() + 3..].trim_start();
    let v: String = v
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '-')
        .collect();
    if v == "null" {
        Some(None)
    } else {
        v.parse().ok().map(Some)
    }
}

/// The closed loop: decode every fixture *and measure it*. Measured PSNR
/// and SSIM (via `j2k-metrics`) are recorded in `tests/golden/quality.json`
/// at bless time; afterwards every run re-measures and fails if quality
/// drops below the recording — a rate-control change that keeps the rate
/// but silently spends quality cannot hide behind a re-blessed byte
/// corpus without this file changing too. Lossy cases are measured at
/// several worker counts, so the quality statement (not just the byte
/// statement) covers every encoder driver.
#[test]
fn fixtures_measured_quality_matches_recorded() {
    // Measured-PSNR slack: decode is deterministic, so drift can only
    // come from an intentional codec change; the epsilon only absorbs
    // float formatting (6 decimals in the recording).
    const PSNR_EPS: f64 = 1e-4;
    const SSIM_EPS: f64 = 1e-5;
    let mut records = Vec::new();
    for case in synth() {
        let im = (case.image)();
        // Bless mode measures the fresh encode (the same bytes the
        // sibling test is writing to disk); verify mode measures the
        // on-disk fixture so corpus and recording cannot drift apart.
        let bytes = if blessing() {
            encode(&im, &case.params).expect(case.name)
        } else {
            std::fs::read(fixture_path(case.name)).unwrap_or_else(|e| {
                panic!(
                    "{}: missing fixture ({e}); regenerate with GOLDEN_BLESS=1",
                    case.name
                )
            })
        };
        let c = quality::compare(&im, &decode(&bytes).expect(case.name)).expect(case.name);
        if case.psnr_floor.is_none() {
            assert!(c.identical, "{}: lossless fixture not bit-exact", case.name);
        } else {
            // The same quality must be measured at every worker count,
            // not just from the one-worker bytes.
            for workers in [2usize, 5] {
                let (par, _) = encode_with(&im, &case.params, workers, None).expect(case.name);
                let cp = quality::compare(&im, &decode(&par).expect(case.name)).expect(case.name);
                assert_eq!(
                    (cp.psnr, cp.ssim),
                    (c.psnr, c.ssim),
                    "{}: measured quality differs at {workers} workers",
                    case.name
                );
            }
        }
        if blessing() {
            let psnr = if c.psnr.is_finite() {
                format!("{:.6}", c.psnr)
            } else {
                "null".into()
            };
            records.push(format!(
                "  \"{}\": {{\"psnr\": {psnr}, \"ssim\": {:.6}}}",
                case.name, c.ssim
            ));
            continue;
        }
        let json = std::fs::read_to_string(quality_path()).unwrap_or_else(|e| {
            panic!("missing quality recording ({e}); regenerate with GOLDEN_BLESS=1")
        });
        let want_psnr = recorded_metric(&json, case.name, "psnr")
            .unwrap_or_else(|| panic!("{}: no psnr recorded; re-bless quality.json", case.name));
        let want_ssim = recorded_metric(&json, case.name, "ssim")
            .flatten()
            .unwrap_or_else(|| panic!("{}: no ssim recorded; re-bless quality.json", case.name));
        match want_psnr {
            None => assert!(
                c.psnr.is_infinite(),
                "{}: recorded lossless (psnr null) but measured {:.2} dB",
                case.name,
                c.psnr
            ),
            Some(want) => assert!(
                c.psnr >= want - PSNR_EPS,
                "{}: measured PSNR {:.4} dB below recorded {want:.4} dB; if the \
                 quality change is intentional, re-bless with GOLDEN_BLESS=1",
                case.name,
                c.psnr
            ),
        }
        assert!(
            c.ssim >= want_ssim - SSIM_EPS,
            "{}: measured SSIM {:.6} below recorded {want_ssim:.6}; if intentional, \
             re-bless with GOLDEN_BLESS=1",
            case.name,
            c.ssim
        );
    }
    if blessing() {
        std::fs::write(quality_path(), format!("{{\n{}\n}}\n", records.join(",\n")))
            .expect("write quality.json");
        panic!(
            "blessed quality recordings for {} cases; rerun without GOLDEN_BLESS to verify",
            records.len()
        );
    }
}

/// Decode every lossy fixture from its *on-disk bytes* (not a fresh
/// encode) and hold the reconstruction to a PSNR floor. Lossless
/// fixtures must reconstruct the input exactly.
#[test]
fn fixtures_decode_within_quality_floor() {
    if blessing() {
        return; // fixtures are being rewritten in the sibling test
    }
    for case in synth() {
        let im = (case.image)();
        let golden = std::fs::read(fixture_path(case.name)).unwrap_or_else(|e| {
            panic!(
                "{}: missing fixture ({e}); regenerate with GOLDEN_BLESS=1",
                case.name
            )
        });
        let back = decode(&golden).expect(case.name);
        match case.psnr_floor {
            None => assert_eq!(back, im, "{}: lossless fixture not exact", case.name),
            Some(floor) => {
                let p = quality::psnr(&im, &back).expect(case.name);
                assert!(
                    p >= floor,
                    "{}: PSNR {p:.2} dB below floor {floor} dB",
                    case.name
                );
            }
        }
    }
}
