//! Cross-crate integration tests: the full system exercised end to end.

use jpeg2000_cell::codec::cell::{encode_on_cell, SimOptions};
use jpeg2000_cell::codec::{decode, encode, encode_with, Coder, EncoderParams, Mode};
use jpeg2000_cell::comparators::{simulate_muta, simulate_p4, MutaMode};
use jpeg2000_cell::images::synth;
use jpeg2000_cell::machine::MachineConfig;
use jpeg2000_cell::quality::psnr;

#[test]
fn three_drivers_one_codestream() {
    // One worker, four workers, and the Cell-simulated encode must produce
    // byte-identical output — parallelization never changes the stream.
    let im = synth::natural_rgb(128, 96, 11);
    let params = EncoderParams::lossless();
    let seq = encode(&im, &params).unwrap();
    let (par, _) = encode_with(&im, &params, 4, None).unwrap();
    let (cell, tl, _) = encode_on_cell(
        &im,
        &params,
        &MachineConfig::qs20_single(),
        &SimOptions::default(),
    )
    .unwrap();
    assert_eq!(seq, par);
    assert_eq!(seq, cell);
    assert!(tl.total_seconds() > 0.0);
    assert_eq!(decode(&seq).unwrap(), im);
}

#[test]
fn bmp_to_j2c_transcode_like_the_paper() {
    // The paper transcodes BMP -> JPEG2000. Round-trip through our BMP
    // writer/reader, then encode losslessly.
    let im = synth::natural_rgb(96, 64, 23);
    let bmp = jpeg2000_cell::images::bmp::encode(&im).unwrap();
    let loaded = jpeg2000_cell::images::bmp::decode(&bmp).unwrap();
    assert_eq!(loaded, im);
    let j2c = encode(&loaded, &EncoderParams::lossless()).unwrap();
    assert!(j2c.len() < bmp.len(), "JPEG2000 must beat raw BMP");
    assert_eq!(decode(&j2c).unwrap(), im);
}

#[test]
fn lossless_roundtrip_across_geometries_and_depths() {
    for (w, h, comps) in [
        (64usize, 64usize, 1usize),
        (65, 63, 3),
        (17, 129, 1),
        (128, 32, 3),
    ] {
        let im = if comps == 3 {
            synth::natural_rgb(w, h, 5)
        } else {
            synth::natural(w, h, 5)
        };
        let params = EncoderParams {
            levels: 3,
            ..EncoderParams::lossless()
        };
        let back = decode(&encode(&im, &params).unwrap()).unwrap();
        assert_eq!(back, im, "{w}x{h}x{comps}");
    }
}

#[test]
fn twelve_bit_imagery_roundtrips() {
    let mut im = jpeg2000_cell::images::Image::new(48, 48, 1, 12).unwrap();
    let mut x: u32 = 9;
    for v in &mut im.planes[0] {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        *v = ((x >> 12) % 4096) as u16;
    }
    let params = EncoderParams {
        levels: 3,
        ..EncoderParams::lossless()
    };
    let back = decode(&encode(&im, &params).unwrap()).unwrap();
    assert_eq!(back, im);
}

/// Each input produces a packet header whose last byte is 0xFF at rate
/// 0.25. The header keeps that byte and its stuffed 0x00 (T.800 B.10.1);
/// dropping the 0xFF, as a bypass segment does, misplaced the packet body.
#[test]
fn packet_headers_ending_in_ff_decode() {
    let cases = [
        (synth::natural(128, 128, 84), Coder::Mq, 1),
        (synth::natural_rgb(128, 128, 96), Coder::Ht, 1),
        (synth::natural_rgb(96, 80, 35), Coder::Mq, 3),
    ];
    for (im, coder, layers) in cases {
        let params = EncoderParams {
            coder,
            layers,
            ..EncoderParams::lossy(0.25)
        };
        let bytes = encode(&im, &params).unwrap();
        assert_eq!(
            encode_with(&im, &params, 2, None).unwrap().0,
            bytes,
            "{coder:?}"
        );
        let back = decode(&bytes).unwrap_or_else(|e| panic!("{coder:?} layers={layers}: {e}"));
        let p = psnr(&im, &back).unwrap();
        assert!(p >= 30.0, "{coder:?} layers={layers}: {p:.2} dB");
    }
}

#[test]
fn lossy_rate_sweep_monotone_and_within_budget() {
    let im = synth::natural_rgb(128, 128, 77);
    let mut last_psnr = 0.0f64;
    for rate in [0.05f64, 0.1, 0.3] {
        let bytes = encode(&im, &EncoderParams::lossy(rate)).unwrap();
        assert!(
            bytes.len() as f64 <= rate * im.raw_bytes() as f64 + 64.0,
            "rate {rate} overshoot: {}",
            bytes.len()
        );
        let p = psnr(&im, &decode(&bytes).unwrap()).unwrap();
        assert!(
            p > last_psnr - 0.1,
            "rate {rate}: PSNR {p} after {last_psnr}"
        );
        last_psnr = p;
    }
    assert!(last_psnr > 28.0, "rate 0.3 PSNR {last_psnr}");
}

#[test]
fn simulated_machines_reproduce_paper_orderings() {
    let im = synth::natural_rgb(256, 256, 5);
    let params = EncoderParams {
        cb_size: 32,
        ..EncoderParams::lossless()
    };
    let (_, prof) = encode_with(&im, &params, 1, None).unwrap();
    let single = MachineConfig::qs20_single();

    // More SPEs help; a second chip helps further.
    let t1 =
        jpeg2000_cell::codec::cell::simulate(&prof, &single.with_spes(1), &SimOptions::default());
    let t8 = jpeg2000_cell::codec::cell::simulate(&prof, &single, &SimOptions::default());
    let t16 = jpeg2000_cell::codec::cell::simulate(
        &prof,
        &MachineConfig::qs20_blade(),
        &SimOptions::default(),
    );
    assert!(t8.total_cycles() < t1.total_cycles());
    assert!(t16.total_cycles() < t8.total_cycles());

    // Cell beats the P4 overall and by far on the DWT.
    let p4 = simulate_p4(&prof);
    let p4_secs = p4.total_seconds();
    let cell_secs = t8.total_seconds();
    assert!(
        p4_secs / cell_secs > 1.5,
        "overall only {}",
        p4_secs / cell_secs
    );

    // Ours beats the Muta model per frame.
    let muta_tl = simulate_muta(&prof, MutaMode::Muta1);
    assert!(cell_secs < muta_tl.total_seconds());
}

#[test]
fn lossy_scaling_flattens_from_rate_control() {
    // The lossy pipeline's sequential rate control must grow as a share of
    // total time when SPEs are added (the paper's Figure 5 story).
    let im = synth::natural_rgb(192, 192, 31);
    let (_, prof) = encode_with(&im, &EncoderParams::lossy(0.1), 1, None).unwrap();
    let single = MachineConfig::qs20_single();
    let f1 =
        jpeg2000_cell::codec::cell::simulate(&prof, &single.with_spes(1), &SimOptions::default())
            .fraction_matching("rate-control");
    let f8 = jpeg2000_cell::codec::cell::simulate(&prof, &single, &SimOptions::default())
        .fraction_matching("rate-control");
    assert!(f8 > f1, "rate-control share should grow: {f1} -> {f8}");
}

#[test]
fn decomposition_feeds_the_machine_model() {
    // Chunk plans validate and the simulated stages respect ownership.
    let plan = jpeg2000_cell::decomposition::ChunkPlan::build(
        3072,
        3072,
        &jpeg2000_cell::decomposition::PlanConfig::default(),
    )
    .unwrap();
    plan.validate().unwrap();
    assert!(plan.remainder().is_none(), "3072 i32 columns divide evenly");
    let plan = jpeg2000_cell::decomposition::ChunkPlan::build(
        3000,
        100,
        &jpeg2000_cell::decomposition::PlanConfig::default(),
    )
    .unwrap();
    assert!(plan.remainder().is_some());
}

#[test]
fn mode_accessors() {
    match EncoderParams::lossy(0.1).mode {
        Mode::Lossy { rate } => assert!((rate - 0.1).abs() < 1e-12),
        Mode::Lossless => panic!("expected lossy"),
    }
}
