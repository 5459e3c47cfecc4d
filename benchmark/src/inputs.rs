//! Workloads and their seeded inputs.
//!
//! Every image is synthesised in-process by `imgio::synth` from `--seed`,
//! so a seed names one input set exactly. The 768² workloads use a mosaic
//! of independently seeded tiles rather than one image: averaging sixteen
//! tiles cuts the spread of the coded size between seeds from ~4% for one
//! 768² image to ~1.5% (quartile distance over the median).

use crate::codec;
use crate::metrics::Report;
use imgio::{synth, Image};
use j2k_core::{Coder, EncoderParams};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LosslessMq,
    LossyHt,
    SmallImages,
    DaemonMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LosslessMq,
        Workload::LossyHt,
        Workload::SmallImages,
        Workload::DaemonMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LosslessMq => "lossless_mq",
            Workload::LossyHt => "lossy_ht",
            Workload::SmallImages => "small_images",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Encode workers each codec call of this workload uses.
    pub fn workers(self) -> usize {
        match self {
            Workload::LossyHt => 2,
            _ => 1,
        }
    }
}

/// Lossless 5/3, MQ, one quality layer.
pub fn lossless_mq() -> EncoderParams {
    EncoderParams::lossless()
}

/// Lossy 9/7 f32 at `rate`, HT coder, three quality layers.
pub fn lossy_ht(rate: f64) -> EncoderParams {
    EncoderParams {
        coder: Coder::Ht,
        layers: 3,
        ..EncoderParams::lossy(rate)
    }
}

/// A 64-bit mix of `seed` and `salt` (splitmix64 finaliser), so derived
/// seeds of neighbouring indices are unrelated.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `size`² RGB image tiled `tiles` × `tiles` with independent
/// `natural_rgb` tiles.
pub fn mosaic(size: usize, tiles: usize, seed: u64) -> Image {
    let t = size / tiles;
    let mut im = Image::new(size, size, 3, 8).expect("valid geometry");
    for ty in 0..tiles {
        for tx in 0..tiles {
            let tile = synth::natural_rgb(t, t, mix(seed, (ty * tiles + tx) as u64));
            for (dst, src) in im.planes.iter_mut().zip(&tile.planes) {
                for y in 0..t {
                    let row = (ty * t + y) * size + tx * t;
                    dst[row..row + t].copy_from_slice(&src[y * t..(y + 1) * t]);
                }
            }
        }
    }
    im
}

/// Daemon request images: 256² RGB, several per seed so one seed's
/// content does not decide the result.
pub const POOL: usize = 8;
pub const POOL_SIZE: usize = 256;

/// One (image, parameters) pair with its reference results: the
/// sequential encoder's codestream and its decode.
pub struct Case {
    pub image: Image,
    pub params: EncoderParams,
    pub codestream: Vec<u8>,
    pub decoded: Image,
}

/// The sequential reference encode of `image` and its decode, or why that
/// round trip is wrong: the decode fails, a lossless decode is not
/// bit-exact, or a lossy one is no closer to the image than the flat image
/// of each plane's mean (a floor against a decode to garbage).
fn reference(image: &Image, params: &EncoderParams) -> (Vec<u8>, Result<Image, String>) {
    let codestream = codec::reference_encode(image, params).expect("reference encode");
    let decoded = codec::decode(&codestream)
        .map_err(|e| format!("reference decode: {e:?}"))
        .and_then(|decoded| {
            if params.mode == j2k_core::Mode::Lossless {
                return if decoded == *image {
                    Ok(decoded)
                } else {
                    Err("lossless decode is not bit-exact".into())
                };
            }
            let mut flat = image.clone();
            for plane in &mut flat.planes {
                let mean = plane.iter().map(|&v| f64::from(v)).sum::<f64>() / plane.len() as f64;
                plane.fill(mean.round() as u16);
            }
            let psnr = j2k_metrics::psnr(image, &decoded).unwrap_or(0.0);
            let floor = j2k_metrics::psnr(image, &flat).unwrap_or(f64::INFINITY);
            if psnr > floor {
                Ok(decoded)
            } else {
                Err(format!(
                    "lossy decode PSNR {psnr:.2} dB is no better than a flat image's {floor:.2} dB"
                ))
            }
        });
    (codestream, decoded)
}

impl Case {
    /// Encode `image` once through the measured path at `workers` (this is
    /// also the warm-up), checking it against the sequential reference
    /// encode, and count a wrong reference round trip as failed. The
    /// measured loops then require every codestream and decode to equal
    /// these, so the quality checked here never drops.
    fn checked(
        image: Image,
        params: EncoderParams,
        codestream: Vec<u8>,
        decoded: Result<Image, String>,
        workers: usize,
        report: &mut Report,
    ) -> Case {
        let measured = codec::encode(&image, &params, workers).map(|(b, _)| b);
        report.record(measured.as_ref().is_ok_and(|b| *b == codestream), || {
            format!("encode at {workers} workers differs from sequential encode")
        });
        report.record(decoded.is_ok(), || {
            decoded.as_ref().err().cloned().unwrap_or_default()
        });
        // After a failed reference decode every later decode of this
        // codestream fails too and counts as failed; the placeholder
        // never matches one.
        let decoded = decoded.unwrap_or_else(|_| image.clone());
        Case {
            image,
            params,
            codestream,
            decoded,
        }
    }

    pub fn pixels(&self) -> usize {
        self.image.width * self.image.height
    }
}

/// Draws of one input before a wrong reference round trip counts as a
/// failure. The codec drops the last byte of a packet header when it is
/// 0xFF, so the decoder reads the packet body one byte early and a few
/// percent of inputs decode wrongly (`benchmark/README.md`, Findings).
/// Such an input is drawn again from another seed, and the run notes it.
const DRAWS: u64 = 8;

/// The seed of draw `k` of an input seeded `s`; draw 0 is `s` itself.
fn redraw(s: u64, k: u64) -> u64 {
    if k == 0 {
        s
    } else {
        mix(s, k.wrapping_neg())
    }
}

/// One case per entry of `params`, all of the first image `draw(k)` whose
/// reference round trips are all correct (see [`DRAWS`]), each checked by
/// [`Case::checked`].
pub fn drawn(
    draw: impl Fn(u64) -> Image,
    params: &[EncoderParams],
    workers: usize,
    report: &mut Report,
) -> Vec<Case> {
    let mut k = 0;
    loop {
        let image = draw(k);
        let refs: Vec<_> = params.iter().map(|p| reference(&image, p)).collect();
        let wrong = refs.iter().find_map(|(_, d)| d.as_ref().err()).cloned();
        match wrong {
            Some(why) if k + 1 < DRAWS => {
                report.note_once(format!("an input was drawn again after draw {k}: {why}"));
                k += 1;
            }
            _ => {
                return params
                    .iter()
                    .zip(refs)
                    .map(|(p, (cs, d))| Case::checked(image.clone(), *p, cs, d, workers, report))
                    .collect()
            }
        }
    }
}

/// The cases of `w`, built and checked (see [`drawn`]).
/// For `daemon_mixed` these are the request images, each as a lossless-MQ
/// case followed by a lossy-HT case.
pub fn cases(w: Workload, seed: u64, report: &mut Report) -> Vec<Case> {
    let seed = mix(seed, w as u64);
    let workers = w.workers();
    match w {
        Workload::LosslessMq => drawn(
            |k| mosaic(768, 4, redraw(seed, k)),
            &[lossless_mq()],
            workers,
            report,
        ),
        Workload::LossyHt => drawn(
            |k| mosaic(768, 4, redraw(seed, k)),
            &[lossy_ht(0.1)],
            workers,
            report,
        ),
        Workload::SmallImages => (0..24)
            .flat_map(|i| {
                let (width, height) =
                    [(64, 64), (96, 80), (128, 128), (192, 160), (256, 256)][i % 5];
                let draw = |k| {
                    let s = redraw(mix(seed, i as u64), k);
                    match i {
                        10 | 23 => synth::noise(width, height, s),
                        _ if i % 2 == 0 => synth::natural_rgb(width, height, s),
                        _ => synth::natural(width, height, s),
                    }
                };
                let params = match i % 3 {
                    0 => lossless_mq(),
                    1 => EncoderParams::lossy(0.25),
                    _ => lossy_ht(0.25),
                };
                drawn(draw, &[params], workers, report)
            })
            .collect(),
        Workload::DaemonMixed => (0..POOL)
            .flat_map(|i| {
                drawn(
                    |k| synth::natural_rgb(POOL_SIZE, POOL_SIZE, redraw(mix(seed, i as u64), k)),
                    &[lossless_mq(), lossy_ht(0.1)],
                    workers,
                    report,
                )
            })
            .collect(),
    }
}

/// One codec call sequence on a case: encode it, decode its reference
/// codestream, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub case: usize,
    pub encode: bool,
    pub decode: bool,
}

/// The daemon's request mix, 2 lossless-MQ encodes : 1 lossy-HT encode :
/// 1 lossless decode. Request `k` of a run is `MIX[k % 4]` on pool image
/// `(k / 4) % POOL`, so every image sees every request kind.
pub fn daemon_op(k: usize) -> Op {
    let image = (k / 4) % POOL;
    let (lossy, encode) = [(false, true), (false, true), (true, true), (false, false)][k % 4];
    Op {
        case: 2 * image + usize::from(lossy),
        encode,
        decode: !encode,
    }
}

/// One pass over a workload's operations: every case encoded and decoded
/// for the codec workloads, one turn of the request mix for the daemon.
pub fn pass_ops(w: Workload, cases: &[Case], pass: usize) -> Vec<Op> {
    match w {
        Workload::DaemonMixed => (4 * pass..4 * pass + 4).map(daemon_op).collect(),
        _ => (0..cases.len())
            .map(|case| Op {
                case,
                encode: true,
                decode: true,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mosaic_is_seeded_and_tiles_differ() {
        let a = mosaic(64, 4, 3);
        assert_eq!(a, mosaic(64, 4, 3));
        assert_ne!(a, mosaic(64, 4, 4));
        // Two tiles of one mosaic are different images.
        let tile = |tx: usize| {
            (0..16)
                .map(|y| a.get(0, tx * 16 + 3, y))
                .collect::<Vec<_>>()
        };
        assert_ne!(tile(0), tile(1));
    }

    #[test]
    fn daemon_mix_is_two_mq_one_ht_one_decode_over_every_image() {
        let ops: Vec<Op> = (0..4 * POOL).map(daemon_op).collect();
        let count = |f: &dyn Fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(&|o| o.encode && o.case % 2 == 0), 2 * POOL);
        assert_eq!(count(&|o| o.encode && o.case % 2 == 1), POOL);
        assert_eq!(count(&|o| o.decode && o.case % 2 == 0), POOL);
        assert_eq!(count(&|o| o.encode && o.decode), 0);
        for image in 0..POOL {
            assert!(ops.iter().any(|o| o.case / 2 == image && o.decode));
        }
    }
}
