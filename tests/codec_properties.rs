//! System-level property tests of the codec: lossless exactness over
//! arbitrary content, decoder robustness against corruption, and one
//! codestream from every worker count and the Cell-simulated encode. The corruption suite is
//! *semantic*: a mutated or truncated stream must yield either a typed
//! error or a well-formed, measurable image — never a panic, and never
//! an image the comparator cannot hold against the original.

use jpeg2000_cell::codec::cell::SimOptions;
use jpeg2000_cell::codec::{
    decode, decode_opts, decode_prefix, encode, encode_on_cell, encode_with,
    transform_coefficients, transform_coefficients_parallel, Coder, EncoderParams,
};
use jpeg2000_cell::images::Image;
use jpeg2000_cell::machine::MachineConfig;
use jpeg2000_cell::quality;
use proptest::prelude::*;

/// The codestream of the encode driver at `workers`.
fn encode_at(im: &Image, params: &EncoderParams, workers: usize) -> Vec<u8> {
    encode_with(im, params, workers, None).unwrap().0
}

fn image_strategy() -> impl Strategy<Value = Image> {
    (
        1usize..80,
        1usize..80,
        prop_oneof![Just(1usize), Just(3)],
        any::<u32>(),
        0u8..4,
    )
        .prop_map(|(w, h, comps, seed, kind)| {
            let mut im = Image::new(w, h, comps, 8).unwrap();
            let mut x = seed | 1;
            for c in 0..comps {
                for i in 0..w * h {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    im.planes[c][i] = match kind {
                        0 => (x >> 9) as u16 % 256,               // noise
                        1 => ((i % w) * 255 / w.max(1)) as u16,   // ramp
                        2 => u16::from((x >> 13) % 7 == 0) * 255, // sparse spikes
                        _ => (128 + ((i / w) % 3) * 9) as u16,    // bands
                    };
                }
            }
            im
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lossless_roundtrip_arbitrary_images(
        im in image_strategy(),
        levels in 1usize..5,
        cb_exp in 2u32..7,
    ) {
        let params = EncoderParams {
            levels,
            cb_size: 1 << cb_exp,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        prop_assert_eq!(decode(&bytes).unwrap(), im);
    }

    #[test]
    fn lossy_never_errors_and_respects_rate(
        im in image_strategy(),
        rate in 0.05f64..0.9,
    ) {
        let params = EncoderParams { levels: 3, ..EncoderParams::lossy(rate) };
        let bytes = encode(&im, &params).unwrap();
        // The fixed markers + one empty packet header per (band, comp,
        // layer) are a floor no encoder can truncate below; beyond that
        // the budget must hold.
        let floor = 128.0 + (10 * im.comps()) as f64;
        prop_assert!(
            bytes.len() as f64 <= rate * im.raw_bytes() as f64 + floor,
            "{} bytes for budget {}",
            bytes.len(),
            rate * im.raw_bytes() as f64
        );
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back.width, im.width);
        prop_assert_eq!(back.comps(), im.comps());
    }

    #[test]
    fn parallel_driver_always_matches(
        im in image_strategy(),
        workers in 1usize..=8,
    ) {
        let params = EncoderParams { levels: 2, ..EncoderParams::lossless() };
        let seq = encode(&im, &params).unwrap();
        let par = encode_at(&im, &params, workers);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn all_three_drivers_byte_identical(
        im in image_strategy(),
        workers in 1usize..=8,
        lossy in any::<bool>(),
    ) {
        // The paper's invariant: parallelization never changes the
        // codestream. One worker, any worker count, and the
        // Cell-simulated encode must agree byte for byte.
        let params = if lossy {
            EncoderParams { levels: 2, ..EncoderParams::lossy(0.4) }
        } else {
            EncoderParams { levels: 2, ..EncoderParams::lossless() }
        };
        let seq = encode(&im, &params).unwrap();
        let par = encode_at(&im, &params, workers);
        prop_assert_eq!(&par, &seq);
        let (cell, _, _) = encode_on_cell(
            &im,
            &params,
            &MachineConfig::qs20_single(),
            &SimOptions::default(),
        ).unwrap();
        prop_assert_eq!(&cell, &seq);
    }

    #[test]
    fn chunked_transform_matches_sequential_coefficients(
        im in image_strategy(),
        levels in 1usize..5,
        workers in 1usize..=8,
        lossy in any::<bool>(),
    ) {
        // Coefficient-for-coefficient equality of the chunked sample
        // stages against the sequential reference, over arbitrary widths —
        // including widths that are not a multiple of the chunk width, so
        // the remainder chunk on the calling thread is exercised.
        let params = if lossy {
            EncoderParams { levels, ..EncoderParams::lossy(0.3) }
        } else {
            EncoderParams { levels, ..EncoderParams::lossless() }
        };
        let seq = transform_coefficients(&im, &params).unwrap();
        let par = transform_coefficients_parallel(&im, &params, workers).unwrap();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn truncated_streams_commit_whole_layers_or_error_typed(
        im in image_strategy(),
        cut_frac in 0.0f64..1.0,
        layers in 1usize..4,
    ) {
        // A truncated progressive stream is not just "no panic": the
        // lenient prefix decoder must either report a typed error (header
        // cut short) or reconstruct a degraded-but-well-formed image that
        // is bit-identical to an honest layer-limited decode.
        let params = EncoderParams { levels: 2, layers, ..EncoderParams::lossy(0.5) };
        let bytes = encode(&im, &params).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match decode_prefix(&bytes[..cut]) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok((img, committed)) => {
                prop_assert_eq!((img.width, img.height, img.comps()),
                                (im.width, im.height, im.comps()));
                prop_assert!(committed <= layers);
                prop_assert_eq!(&img, &decode_opts(&bytes, committed, 0).unwrap());
                // The comparator can always hold a committed image
                // against the original.
                let c = quality::compare(&im, &img).unwrap();
                prop_assert!(c.psnr > 0.0);
            }
        }
        // The strict decoder on the same prefix: Ok (full stream) or a
        // typed error — never a panic.
        if let Err(e) = decode(&bytes[..cut]) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn decoder_yields_typed_error_or_wellformed_image_on_bitflips(
        im in image_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes =
            encode(&im, &EncoderParams { levels: 2, ..Default::default() }).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        match decode(&bytes) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(img) => {
                // A flipped header bit may change claimed geometry, but
                // whatever comes back must be internally consistent, and
                // measurable whenever the geometry still matches.
                prop_assert!(img.validate().is_ok());
                if let Ok(c) = quality::compare(&im, &img) {
                    prop_assert!(c.psnr > 0.0 && c.ssim.is_finite());
                }
            }
        }
    }

    #[test]
    fn decoder_yields_typed_error_or_wellformed_image_on_byte_mutations(
        im in image_strategy(),
        pos_frac in 0.0f64..1.0,
        val in 0u32..256,
    ) {
        // Overwrite one byte with an arbitrary value (not just a bit flip).
        let mut bytes =
            encode(&im, &EncoderParams { levels: 2, ..Default::default() }).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = val as u8;
        match decode(&bytes) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(img) => prop_assert!(img.validate().is_ok()),
        }
    }

    #[test]
    fn decoder_survives_mutation_plus_truncation(
        im in image_strategy(),
        pos_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
        val in 0u32..256,
    ) {
        let mut bytes =
            encode(&im, &EncoderParams { levels: 2, ..Default::default() }).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] = val as u8;
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        match decode(&bytes[..cut]) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(img) => prop_assert!(img.validate().is_ok()),
        }
        // The lenient path on the same damaged prefix must also hold the
        // no-panic, well-formed-or-typed contract.
        match decode_prefix(&bytes[..cut]) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok((img, _)) => prop_assert!(img.validate().is_ok()),
        }
    }

    #[test]
    fn lossless_roundtrip_bit_exact_at_any_depth_and_worker_count(
        w in 8usize..48,
        h in 8usize..48,
        comps in prop_oneof![Just(1usize), Just(3)],
        depth in prop_oneof![Just(8u8), Just(10), Just(12), Just(16)],
        seed in any::<u32>(),
        workers in 1usize..=6,
    ) {
        // The closed loop at full strength: any bit depth, any worker
        // count, encode -> decode -> bit-exact, and the comparator agrees
        // (identical flag, infinite PSNR, SSIM exactly 1).
        let mut im = Image::new(w, h, comps, depth).unwrap();
        let span = u32::from(im.max_value()) + 1;
        let mut x = seed | 1;
        for c in 0..comps {
            for v in &mut im.planes[c] {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((x >> 9) % span) as u16;
            }
        }
        let params = EncoderParams { levels: 2, ..EncoderParams::lossless() };
        let bytes = encode_at(&im, &params, workers);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(&back, &im);
        let c = quality::compare(&im, &back).unwrap();
        prop_assert!(c.identical && c.psnr.is_infinite() && c.ssim == 1.0);
    }

    #[test]
    fn lossy_roundtrip_quality_measured_above_floor(
        w in 48usize..97,
        h in 48usize..97,
        seed in any::<u64>(),
        rgb in any::<bool>(),
        rate in 0.3f64..0.8,
    ) {
        // Natural (smooth) content at a generous rate must reconstruct
        // to a measured PSNR/SSIM floor — the property-level version of
        // the golden corpus quality gate.
        let im = if rgb {
            jpeg2000_cell::images::synth::natural_rgb(w, h, seed)
        } else {
            jpeg2000_cell::images::synth::natural(w, h, seed)
        };
        let params = EncoderParams { levels: 2, ..EncoderParams::lossy(rate) };
        let bytes = encode(&im, &params).unwrap();
        let c = quality::compare(&im, &decode(&bytes).unwrap()).unwrap();
        prop_assert!(
            c.psnr >= 20.0,
            "PSNR {:.2} dB below 20 dB floor at rate {rate:.2}", c.psnr
        );
        prop_assert!(
            c.ssim >= 0.5,
            "SSIM {:.4} below 0.5 floor at rate {rate:.2}", c.ssim
        );
    }

    #[test]
    fn lossy_parallel_identity_with_rate_control_active(
        im in image_strategy(),
        workers in 1usize..=8,
        rate in 0.05f64..0.6,
        layers in 1usize..4,
    ) {
        // The PCRD search, the budget-shrink retry loop, and Tier-2
        // packet assembly all run here; the result must equal the
        // one-worker encode byte for byte at every worker count — even
        // when the loop retries or gives up.
        let params = EncoderParams {
            levels: 2,
            layers,
            ..EncoderParams::lossy(rate)
        };
        let seq = encode(&im, &params).unwrap();
        let par = encode_at(&im, &params, workers);
        prop_assert_eq!(&par, &seq);
    }

    #[test]
    fn lossy_budget_respected_whenever_shrink_loop_converges(
        im in image_strategy(),
        rate in 0.02f64..0.7,
        layers in 1usize..5,
    ) {
        // Unconditional budget assertions need a floor fudge for tiny
        // images (see lossy_never_errors_and_respects_rate); but whenever
        // the encoder itself reports the shrink loop converged, the hard
        // budget holds with no allowance at all.
        let params = EncoderParams {
            levels: 2,
            layers,
            ..EncoderParams::lossy(rate)
        };
        let (bytes, prof) = encode_with(&im, &params, 1, None).unwrap();
        if prof.rate_converged {
            let limit = (rate * im.raw_bytes() as f64) as usize;
            prop_assert!(
                bytes.len() <= limit,
                "converged but {} > limit {} (retries {})",
                bytes.len(),
                limit,
                prof.rate_retries
            );
        }
        // Either way the stream decodes.
        let _ = decode(&bytes).unwrap();
    }

    #[test]
    fn ht_lossless_roundtrip_bit_exact_at_any_depth_and_worker_count(
        w in 8usize..48,
        h in 8usize..48,
        comps in prop_oneof![Just(1usize), Just(3)],
        depth in prop_oneof![Just(8u8), Just(10), Just(12), Just(16)],
        seed in any::<u32>(),
        workers in 1usize..=6,
    ) {
        // The HT backend under the same closed loop the MQ coder passes:
        // any bit depth, any worker count, encode -> decode -> bit-exact.
        let mut im = Image::new(w, h, comps, depth).unwrap();
        let span = u32::from(im.max_value()) + 1;
        let mut x = seed | 1;
        for c in 0..comps {
            for v in &mut im.planes[c] {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((x >> 9) % span) as u16;
            }
        }
        let params = EncoderParams {
            levels: 2,
            coder: Coder::Ht,
            ..EncoderParams::lossless()
        };
        let bytes = encode_at(&im, &params, workers);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(&back, &im);
        let c = quality::compare(&im, &back).unwrap();
        prop_assert!(c.identical && c.psnr.is_infinite() && c.ssim == 1.0);
    }

    #[test]
    fn ht_byte_identical_across_all_drivers_and_worker_counts(
        im in image_strategy(),
        lossy in any::<bool>(),
        layers in 1usize..4,
    ) {
        // Determinism for the HT backend: one worker, several worker
        // counts, and the cell-sim encode all emit the same bytes, with
        // and without rate control.
        let params = EncoderParams {
            levels: 2,
            layers,
            coder: Coder::Ht,
            ..if lossy { EncoderParams::lossy(0.3) } else { EncoderParams::lossless() }
        };
        let seq = encode(&im, &params).unwrap();
        for workers in [1usize, 2, 5, 8] {
            let par = encode_at(&im, &params, workers);
            prop_assert_eq!(&par, &seq, "workers={} differs", workers);
        }
        let (cell, _, _) = encode_on_cell(
            &im,
            &params,
            &MachineConfig::qs20_single(),
            &SimOptions::default(),
        ).unwrap();
        prop_assert_eq!(&cell, &seq, "cell-sim differs");
    }

    #[test]
    fn ht_lossy_quality_tracks_mq_at_matched_rate(
        w in 48usize..97,
        h in 48usize..97,
        seed in any::<u64>(),
        rgb in any::<bool>(),
        rate in 0.3f64..0.8,
    ) {
        // Measured-quality comparison at a matched rate budget: the HT
        // coder's coarser truncation grid may cost fidelity, but on
        // natural content at generous rates it must stay within a fixed
        // band of the MQ coder's measured PSNR/SSIM — and above the same
        // absolute floor the MQ property test enforces.
        let im = if rgb {
            jpeg2000_cell::images::synth::natural_rgb(w, h, seed)
        } else {
            jpeg2000_cell::images::synth::natural(w, h, seed)
        };
        let mq = EncoderParams { levels: 2, ..EncoderParams::lossy(rate) };
        let ht = EncoderParams { coder: Coder::Ht, ..mq };
        let cm = quality::compare(&im, &decode(&encode(&im, &mq).unwrap()).unwrap()).unwrap();
        let ch = quality::compare(&im, &decode(&encode(&im, &ht).unwrap()).unwrap()).unwrap();
        prop_assert!(
            ch.psnr >= 20.0 && ch.ssim >= 0.5,
            "HT fell below the absolute floor: {:.2} dB / SSIM {:.4} at rate {rate:.2}",
            ch.psnr, ch.ssim
        );
        // PSNR of either coder can be infinite (or astronomically
        // high) when the budget covers a near-lossless reconstruction;
        // clamp to 50 dB — transparent quality — before differencing, so
        // the band only binds where the difference is perceptible.
        let gap = cm.psnr.min(50.0) - ch.psnr.min(50.0);
        prop_assert!(
            gap <= 10.0,
            "HT trails MQ by {gap:.2} dB at rate {rate:.2} ({:.2} vs {:.2})",
            ch.psnr, cm.psnr
        );
    }
}
