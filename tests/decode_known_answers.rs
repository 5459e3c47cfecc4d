//! Known-answer digests for the decoder: the exact samples that
//! `decode_opts` and `decode_prefix` reconstruct.
//!
//! The golden corpus pins codestream bytes and a PSNR floor, so a decode
//! that moved by one grey level would pass it. These digests do not. Each
//! case is a 64-bit FNV-1a digest (the `Fnv` of
//! `crates/ebcot/tests/known_answers.rs`) over the geometry and every
//! decoded sample:
//!
//! * every `tests/golden/*.j2c` at full resolution, with one and (where
//!   the stream has the levels) two resolution levels discarded, and with
//!   only the first quality layer;
//! * `decode_prefix` of two 3-layer streams, each cut at two points;
//! * synthetic edge cases: a high-contrast lossy RGB image that clips at
//!   both 0 and 255, a 12-bit lossy gray image, a 57×33 lossy image at
//!   two discarded levels, Q13 fixed-point RGB at one discarded level, and
//!   a 3-layer HT lossy RGB image at every layer count.
//!
//! A decoder change that is meant to keep the samples must leave every
//! digest as it is. On a mismatch the test prints the whole table in
//! source form.

use jpeg2000_cell::codec::{
    codestream, decode_opts, decode_prefix, encode, Arithmetic, Coder, EncoderParams,
};
use jpeg2000_cell::images::{synth, Image};
use std::path::PathBuf;

/// 64-bit FNV-1a: a fixed, std-only digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn image_digest(im: &Image) -> u64 {
    let mut d = Fnv::new();
    d.u64(im.width as u64);
    d.u64(im.height as u64);
    d.u64(im.comps() as u64);
    d.u64(u64::from(im.bit_depth));
    for plane in &im.planes {
        for &v in plane {
            d.bytes(&v.to_le_bytes());
        }
    }
    d.0
}

const GOLDEN: [&str; 13] = [
    "ht_lossless_gray_64x64",
    "ht_lossless_rgb_57x33",
    "ht_lossy_gray_96x96_r25",
    "ht_lossy_rgb_100x40_r40_l3",
    "lossless_gray_64x64",
    "lossless_noise_bypass_31x47",
    "lossless_rgb_57x33",
    "lossless_strip_100x1",
    "lossy_fixed_64x64_r30",
    "lossy_gray_96x96_r25",
    "lossy_rgb_100x40_r40_l3",
    "lossy_rgb_bypass_72x56_r20",
    "lossy_strip_129x1_r50",
];

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.j2c"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Hard-edged 0/255 bars, a different pattern per component: lossy
/// ringing at every edge overshoots both ends of the sample range.
fn high_contrast_rgb(w: usize, h: usize) -> Image {
    let mut im = Image::new(w, h, 3, 8).unwrap();
    for y in 0..h {
        for x in 0..w {
            let on = [(x / 5) % 2 == 0, (y / 4) % 2 == 0, (x / 3 + y / 3) % 2 == 0];
            for (c, &on) in on.iter().enumerate() {
                im.planes[c][y * w + x] = if on { 255 } else { 0 };
            }
        }
    }
    im
}

/// Smooth 12-bit content with a seeded ripple.
fn twelve_bit_gray(w: usize, h: usize) -> Image {
    let base = synth::natural(w, h, 13);
    let mut im = Image::new(w, h, 1, 12).unwrap();
    let mut x: u32 = 21;
    for (o, &v) in im.planes[0].iter_mut().zip(&base.planes[0]) {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        *o = (u32::from(v) * 16 + (x >> 28)) as u16;
    }
    im
}

/// `(label, decoded image)` for every case, in table order.
fn cases() -> Vec<(String, Image)> {
    let mut v = Vec::new();
    for name in GOLDEN {
        let data = golden(name);
        let levels = codestream::parse(&data).unwrap().header.levels;
        let mut runs = vec![("full", usize::MAX, 0), ("res1", usize::MAX, 1)];
        if levels >= 2 {
            runs.push(("res2", usize::MAX, 2));
        }
        runs.push(("layers1", 1, 0));
        for (what, max_layers, discard) in runs {
            let im = decode_opts(&data, max_layers, discard).expect(name);
            v.push((format!("{name} {what}"), im));
        }
    }

    for name in ["lossy_rgb_100x40_r40_l3", "ht_lossy_rgb_100x40_r40_l3"] {
        let data = golden(name);
        for (num, den) in [(2, 5), (3, 4)] {
            let cut = data.len() * num / den;
            let (im, layers) = decode_prefix(&data[..cut]).expect(name);
            v.push((format!("{name} prefix {num}/{den} layers={layers}"), im));
        }
    }

    let clip = high_contrast_rgb(48, 40);
    let data = encode(&clip, &EncoderParams::lossy(0.15)).unwrap();
    let im = decode_opts(&data, usize::MAX, 0).unwrap();
    for (c, plane) in im.planes.iter().enumerate() {
        assert!(
            plane.contains(&0) && plane.contains(&255),
            "component {c} of the high-contrast case no longer clips at both ends"
        );
    }
    v.push(("clip_rgb_48x40".into(), im));

    let deep = twelve_bit_gray(64, 48);
    let data = encode(&deep, &EncoderParams::lossy(0.3)).unwrap();
    v.push((
        "gray12_64x48".into(),
        decode_opts(&data, usize::MAX, 0).unwrap(),
    ));

    let odd = synth::natural_rgb(57, 33, 6);
    let params = EncoderParams {
        levels: 3,
        cb_size: 16,
        ..EncoderParams::lossy(0.4)
    };
    let data = encode(&odd, &params).unwrap();
    for discard in [0, 2] {
        v.push((
            format!("rgb_57x33 res{discard}"),
            decode_opts(&data, usize::MAX, discard).unwrap(),
        ));
    }

    let fixed = synth::natural_rgb(64, 48, 12);
    let params = EncoderParams {
        arithmetic: Arithmetic::FixedQ13,
        ..EncoderParams::lossy(0.3)
    };
    let data = encode(&fixed, &params).unwrap();
    for discard in [0, 1] {
        v.push((
            format!("q13_rgb_64x48 res{discard}"),
            decode_opts(&data, usize::MAX, discard).unwrap(),
        ));
    }

    let ht = synth::natural_rgb(80, 64, 17);
    let params = EncoderParams {
        layers: 3,
        coder: Coder::Ht,
        ..EncoderParams::lossy(0.3)
    };
    let data = encode(&ht, &params).unwrap();
    for layers in 1..=3 {
        v.push((
            format!("ht_rgb_80x64_l3 layers{layers}"),
            decode_opts(&data, layers, 0).unwrap(),
        ));
    }
    v
}

/// Recorded digests, one per case in [`cases`] order.
const EXPECTED: [(&str, u64); 64] = [
    ("ht_lossless_gray_64x64 full", 0x35ece15424df76b4),
    ("ht_lossless_gray_64x64 res1", 0x4bc70201e61c4d16),
    ("ht_lossless_gray_64x64 res2", 0xc79cd882e7e8a84d),
    ("ht_lossless_gray_64x64 layers1", 0x35ece15424df76b4),
    ("ht_lossless_rgb_57x33 full", 0x4b9ad81afdead8ce),
    ("ht_lossless_rgb_57x33 res1", 0x3323f13ef0b65a33),
    ("ht_lossless_rgb_57x33 res2", 0x825bd6121ef2e145),
    ("ht_lossless_rgb_57x33 layers1", 0x4b9ad81afdead8ce),
    ("ht_lossy_gray_96x96_r25 full", 0xe0f89642362e764b),
    ("ht_lossy_gray_96x96_r25 res1", 0x19f01c8f0476aa7d),
    ("ht_lossy_gray_96x96_r25 res2", 0xde66cef96632f7cf),
    ("ht_lossy_gray_96x96_r25 layers1", 0xe0f89642362e764b),
    ("ht_lossy_rgb_100x40_r40_l3 full", 0x69ecc1e8d24a62b7),
    ("ht_lossy_rgb_100x40_r40_l3 res1", 0x336e7b9addff657e),
    ("ht_lossy_rgb_100x40_r40_l3 res2", 0x0edad4007c4f12ba),
    ("ht_lossy_rgb_100x40_r40_l3 layers1", 0xb38e7c5479174a02),
    ("lossless_gray_64x64 full", 0x35ece15424df76b4),
    ("lossless_gray_64x64 res1", 0x4bc70201e61c4d16),
    ("lossless_gray_64x64 res2", 0xc79cd882e7e8a84d),
    ("lossless_gray_64x64 layers1", 0x35ece15424df76b4),
    ("lossless_noise_bypass_31x47 full", 0xe46545914081d43d),
    ("lossless_noise_bypass_31x47 res1", 0x526a998fc63dbbd7),
    ("lossless_noise_bypass_31x47 res2", 0xd8991697accbd5c8),
    ("lossless_noise_bypass_31x47 layers1", 0xe46545914081d43d),
    ("lossless_rgb_57x33 full", 0x4b9ad81afdead8ce),
    ("lossless_rgb_57x33 res1", 0x3323f13ef0b65a33),
    ("lossless_rgb_57x33 res2", 0x825bd6121ef2e145),
    ("lossless_rgb_57x33 layers1", 0x4b9ad81afdead8ce),
    ("lossless_strip_100x1 full", 0x50607a119e71de1e),
    ("lossless_strip_100x1 res1", 0xeafd43067178804e),
    ("lossless_strip_100x1 res2", 0xa3d5a874500c0bd1),
    ("lossless_strip_100x1 layers1", 0x50607a119e71de1e),
    ("lossy_fixed_64x64_r30 full", 0x81d15c8f777feb86),
    ("lossy_fixed_64x64_r30 res1", 0x9ea52a3a440951ff),
    ("lossy_fixed_64x64_r30 res2", 0x65213eb58a9f6237),
    ("lossy_fixed_64x64_r30 layers1", 0x81d15c8f777feb86),
    ("lossy_gray_96x96_r25 full", 0xd410c189fdc1928b),
    ("lossy_gray_96x96_r25 res1", 0x5335ca5438212648),
    ("lossy_gray_96x96_r25 res2", 0xfc2526473dbee9e5),
    ("lossy_gray_96x96_r25 layers1", 0xd410c189fdc1928b),
    ("lossy_rgb_100x40_r40_l3 full", 0x31db9e87123fba50),
    ("lossy_rgb_100x40_r40_l3 res1", 0x5c3796570bdb5757),
    ("lossy_rgb_100x40_r40_l3 res2", 0xf5b0d112816faac6),
    ("lossy_rgb_100x40_r40_l3 layers1", 0x2766abd05a6ccdfb),
    ("lossy_rgb_bypass_72x56_r20 full", 0x0489bd8835bd279e),
    ("lossy_rgb_bypass_72x56_r20 res1", 0x6c250cef6579f95c),
    ("lossy_rgb_bypass_72x56_r20 res2", 0xbe9af71d99699806),
    ("lossy_rgb_bypass_72x56_r20 layers1", 0x0489bd8835bd279e),
    ("lossy_strip_129x1_r50 full", 0xae3d725759b7f82c),
    ("lossy_strip_129x1_r50 res1", 0x0b758ccad79f35ec),
    ("lossy_strip_129x1_r50 layers1", 0xae3d725759b7f82c),
    (
        "lossy_rgb_100x40_r40_l3 prefix 2/5 layers=1",
        0x2766abd05a6ccdfb,
    ),
    (
        "lossy_rgb_100x40_r40_l3 prefix 3/4 layers=2",
        0xff76a978bdbe0c04,
    ),
    (
        "ht_lossy_rgb_100x40_r40_l3 prefix 2/5 layers=1",
        0xb38e7c5479174a02,
    ),
    (
        "ht_lossy_rgb_100x40_r40_l3 prefix 3/4 layers=2",
        0x3ac1b167e9662b0f,
    ),
    ("clip_rgb_48x40", 0x9a84268015e2afa7),
    ("gray12_64x48", 0xb6a6a237786792c9),
    ("rgb_57x33 res0", 0xfd23dd3b4a90e321),
    ("rgb_57x33 res2", 0x2c52873ebd2d1e33),
    ("q13_rgb_64x48 res0", 0x74333b7f9221d9eb),
    ("q13_rgb_64x48 res1", 0xea43d4b8720df043),
    ("ht_rgb_80x64_l3 layers1", 0x46978802f3220c2b),
    ("ht_rgb_80x64_l3 layers2", 0x71113a0e89a6eb99),
    ("ht_rgb_80x64_l3 layers3", 0x665966ad0db73f4d),
];

#[test]
fn decoded_samples_are_unchanged() {
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(label, im)| (label, image_digest(&im)))
        .collect();
    let same = got.len() == EXPECTED.len()
        && got
            .iter()
            .zip(EXPECTED.iter())
            .all(|((gl, gd), (el, ed))| gl == el && gd == ed);
    if !same {
        let mut bad = Vec::new();
        for (i, (label, d)) in got.iter().enumerate() {
            match EXPECTED.get(i) {
                Some((el, ed)) if el == label && ed == d => {}
                Some((el, ed)) => bad.push(format!("{label}: got {d:#018x}, want {el} {ed:#018x}")),
                None => bad.push(format!("{label}: got {d:#018x}, not recorded")),
            }
        }
        let table: Vec<String> = got
            .iter()
            .map(|(label, d)| format!("    ({label:?}, {d:#018x}),"))
            .collect();
        panic!(
            "{} of {} decodes changed:\n{}\n\ncurrent table ({} cases):\n{}",
            bad.len().max(EXPECTED.len().abs_diff(got.len())),
            got.len(),
            bad.join("\n"),
            got.len(),
            table.join("\n")
        );
    }
}
