//! Injection tests for the HT cleanup decoder's `ht.quad` failpoint.
//! Requires `--features failpoints`; without it the file compiles away,
//! matching the production build. Own process, so arming the global
//! registry here cannot leak into the crate's other test binaries.

#![cfg(feature = "failpoints")]

use faultsim::{FaultAction, FaultSpec};
use j2k_core::{decode, decode_prefix, CodecError, Coder, EncoderParams};
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

fn ht_stream(layers: usize) -> (imgio::Image, Vec<u8>) {
    let im = imgio::synth::natural(64, 64, 9);
    let params = EncoderParams {
        levels: 2,
        layers,
        coder: Coder::Ht,
        ..if layers > 1 {
            EncoderParams::lossy(0.5)
        } else {
            EncoderParams::lossless()
        }
    };
    let bytes = j2k_core::encode(&im, &params).unwrap();
    (im, bytes)
}

/// The failpoint actually sits on the HT decode path: an unarmed decode
/// still *evaluates* `ht.quad` once per quad, so the hit counter moves.
#[test]
fn ht_quad_failpoint_is_on_the_decode_path() {
    let _g = registry_lock();
    let (im, bytes) = ht_stream(1);
    faultsim::reset();
    let before = faultsim::hits("ht.quad");
    let out = decode(&bytes).unwrap();
    assert!(
        faultsim::hits("ht.quad") > before,
        "HT decode evaluated no ht.quad failpoints — the hook is dead"
    );
    assert_eq!(out, im, "lossless HT round trip");
}

/// Strict decode: a fault on any quad surfaces as `CodecError::Injected`
/// with the armed message — the block loop must not swallow it. Matches
/// the `decode.packet` contract.
#[test]
fn strict_decode_surfaces_injected_quad_fault() {
    let _g = registry_lock();
    let (im, bytes) = ht_stream(1);
    faultsim::reset();
    faultsim::arm(
        "ht.quad",
        FaultSpec::once(FaultAction::Error("ht.quad".into())),
    );
    let r = decode(&bytes);
    faultsim::reset();
    match r {
        Err(CodecError::Injected(msg)) => assert_eq!(msg, "ht.quad"),
        other => panic!("expected injected error, got {other:?}"),
    }
    // Registry clean again: the same stream decodes normally.
    assert_eq!(decode(&bytes).unwrap(), im);
}

/// Lenient prefix decode absorbs a quad fault by dropping whole quality
/// layers for the affected block — it must return `Ok` with intact
/// geometry, never surface the injected error.
#[test]
fn prefix_decode_degrades_instead_of_failing() {
    let _g = registry_lock();
    let (im, bytes) = ht_stream(4);
    faultsim::reset();
    faultsim::arm(
        "ht.quad",
        FaultSpec::once(FaultAction::Error("mid-block".into())),
    );
    let r = decode_prefix(&bytes);
    faultsim::reset();
    let (img, committed) = r.expect("lenient decode must absorb the quad fault");
    assert_eq!((img.width, img.height), (im.width, im.height));
    // The packet walk itself saw no damage, so all layers were parsed;
    // only the faulted block privately fell back.
    assert_eq!(committed, 4);
}

/// A persistently-armed fault drives the affected block all the way to
/// zero passes (layer 0 short-circuits before any quad is decoded), so
/// lenient decode still succeeds even when every retry faults.
#[test]
fn prefix_decode_survives_persistent_quad_fault() {
    let _g = registry_lock();
    let (im, bytes) = ht_stream(4);
    faultsim::reset();
    faultsim::arm(
        "ht.quad",
        FaultSpec::at(FaultAction::Error("always".into()), 1, u64::MAX),
    );
    let r = decode_prefix(&bytes);
    faultsim::reset();
    let (img, _) = r.expect("layer-0 fallback must always succeed");
    assert_eq!((img.width, img.height), (im.width, im.height));
}
