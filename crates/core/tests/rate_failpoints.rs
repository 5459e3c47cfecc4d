//! Injection tests for the encoder failpoints: the rate-control/Tier-2
//! tail's (`rate.block`, `tier2.precinct`) and all four at one worker.
//! Requires `--features failpoints`; without it the file compiles away,
//! matching the production build. This binary is its own process, so
//! arming the global registry here cannot leak into the crate's other
//! test binaries.

#![cfg(feature = "failpoints")]

use faultsim::{FaultAction, FaultSpec};
use imgio::Image;
use j2k_core::{codestream, encode_with, CodecError, Coder, EncoderParams};
use std::sync::{Mutex, MutexGuard};

/// The harness runs tests on parallel threads and the failpoint registry
/// is process-global, so every test that arms, resets or reads it holds
/// this lock for its whole body. Each test resets the registry before it
/// arms anything, so one that fails while holding the lock leaves nothing
/// for the next to repair.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn encode_at(im: &Image, params: &EncoderParams, workers: usize) -> Result<Vec<u8>, CodecError> {
    encode_with(im, params, workers, None).map(|(bytes, _)| bytes)
}

/// Each failpoint fires once and must surface as `CodecError::Injected`
/// with the armed message, at one worker and at three.
#[test]
fn rate_and_tier2_faults_surface_as_errors() {
    let _g = registry_lock();
    let im = imgio::synth::natural(48, 48, 3);
    let params = EncoderParams::lossy(0.3);
    for fp in ["rate.block", "tier2.precinct"] {
        for workers in [1usize, 3] {
            faultsim::reset();
            faultsim::arm(fp, FaultSpec::once(FaultAction::Error(fp.to_string())));
            let r = encode_at(&im, &params, workers);
            faultsim::reset();
            match r {
                Err(CodecError::Injected(msg)) => {
                    assert_eq!(msg, fp, "workers={workers}")
                }
                other => panic!("{fp} workers={workers}: expected injected error, got {other:?}"),
            }
        }
    }
    // Registry clean again: the same encode succeeds and matches the
    // one-worker bytes.
    let seq = j2k_core::encode(&im, &params).unwrap();
    assert_eq!(encode_at(&im, &params, 3).unwrap(), seq);
}

/// A fault armed to fire deep into the hit sequence still lands (the
/// per-unit hit counting reaches every unit).
#[test]
fn late_hit_faults_still_fire() {
    let _g = registry_lock();
    let im = imgio::synth::natural_rgb(64, 48, 9);
    let params = EncoderParams {
        levels: 3,
        ..EncoderParams::lossy(0.25)
    };
    faultsim::reset();
    // comps * bands = 3 * 10 units; hit 12 is mid-stream.
    faultsim::arm(
        "tier2.precinct",
        FaultSpec::at(FaultAction::Error("late".into()), 12, 1),
    );
    let r = encode_at(&im, &params, 4);
    faultsim::reset();
    assert!(
        matches!(r, Err(CodecError::Injected(ref m)) if m == "late"),
        "got {r:?}"
    );
}

/// Every encoder failpoint fires from the plain one-worker `encode`, whose
/// stages all run on the calling thread: the sample stages (`dwt.level`),
/// the Tier-1 queue (`tier1.block`) and the tail (`rate.block`,
/// `tier2.precinct`).
#[test]
fn every_encode_failpoint_fires_at_one_worker() {
    let _g = registry_lock();
    let im = imgio::synth::natural_rgb(48, 40, 4);
    for params in [EncoderParams::lossless(), EncoderParams::lossy(0.3)] {
        for fp in ["dwt.level", "tier1.block", "rate.block", "tier2.precinct"] {
            faultsim::reset();
            faultsim::arm(fp, FaultSpec::once(FaultAction::Error(fp.to_string())));
            let r = j2k_core::encode(&im, &params);
            faultsim::reset();
            match r {
                Err(CodecError::Injected(msg)) => assert_eq!(msg, fp, "{:?}", params.mode),
                other => panic!(
                    "{fp} {:?}: expected injected error, got {other:?}",
                    params.mode
                ),
            }
        }
    }
}

/// An HT lossy encode codes every block once, in Tier-1: the raw passes
/// rate control keeps are packed later from what that coding kept, so
/// `tier1.block` is evaluated exactly once per code block.
#[test]
fn tier1_block_is_evaluated_once_per_block_when_raw_passes_are_packed() {
    let _g = registry_lock();
    let im = imgio::synth::natural_rgb(96, 64, 5);
    let params = EncoderParams {
        layers: 3,
        cb_size: 16,
        coder: Coder::Ht,
        ..EncoderParams::lossy(0.4)
    };
    for workers in [1usize, 3] {
        faultsim::reset();
        let r = encode_with(&im, &params, workers, None);
        let hits = faultsim::hits("tier1.block");
        faultsim::reset();
        let (bytes, prof) = r.unwrap();
        assert_eq!(hits, prof.blocks.len() as u64, "workers={workers}");
        let parsed = codestream::parse(&bytes).unwrap();
        assert!(
            parsed
                .blocks
                .iter()
                .any(|b| b.layer_passes.last() > Some(&1)),
            "workers={workers}: no block keeps a raw pass"
        );
    }
}
