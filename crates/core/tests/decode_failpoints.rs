//! Injection tests for the decoder's `decode.packet` failpoint. Requires
//! `--features failpoints`; without it the file compiles away, matching
//! the production build. Own process, so arming the global registry here
//! cannot leak into the crate's other test binaries.

#![cfg(feature = "failpoints")]

use faultsim::{FaultAction, FaultSpec};
use j2k_core::{decode, decode_opts, decode_prefix, CodecError, EncoderParams};
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

fn multilayer_stream() -> (imgio::Image, Vec<u8>, usize) {
    let im = imgio::synth::natural(64, 64, 5);
    let params = EncoderParams {
        levels: 2,
        layers: 4,
        ..EncoderParams::lossy(0.5)
    };
    let bytes = j2k_core::encode(&im, &params).unwrap();
    (im, bytes, params.layers)
}

/// Strict decode: a fault on any packet surfaces as `CodecError::Injected`
/// with the armed message — the walk must not swallow it.
#[test]
fn strict_decode_surfaces_injected_packet_fault() {
    let _g = registry_lock();
    let (im, bytes, _) = multilayer_stream();
    faultsim::reset();
    faultsim::arm(
        "decode.packet",
        FaultSpec::once(FaultAction::Error("decode.packet".into())),
    );
    let r = decode(&bytes);
    faultsim::reset();
    match r {
        Err(CodecError::Injected(msg)) => assert_eq!(msg, "decode.packet"),
        other => panic!("expected injected error, got {other:?}"),
    }
    // Registry clean again: the same stream decodes normally.
    assert_eq!(decode(&bytes).unwrap().width, im.width);
}

/// Lenient prefix decode treats an injected packet fault like truncation:
/// it stops the walk and commits only whole layers, and the committed
/// image equals an honest layer-limited decode of the same stream.
#[test]
fn prefix_decode_degrades_instead_of_failing() {
    let _g = registry_lock();
    let (_, bytes, layers) = multilayer_stream();
    let (_, total) = decode_prefix(&bytes).unwrap();
    assert_eq!(total, 4);
    // One packet per (band, comp, layer): grayscale at 2 levels has
    // 1 + 3 + 3 = 7 bands, so hit 10 (1-based) lands in the second layer.
    faultsim::reset();
    faultsim::arm(
        "decode.packet",
        FaultSpec::at(FaultAction::Error("mid-walk".into()), 10, 1),
    );
    let r = decode_prefix(&bytes);
    faultsim::reset();
    let (img, committed) = r.expect("lenient decode must absorb the fault");
    assert!(
        committed >= 1 && committed < layers,
        "expected a partial commit, got {committed}/{layers} layers"
    );
    assert_eq!(
        img,
        decode_opts(&bytes, committed, 0).unwrap(),
        "committed layers must be bit-identical to an honest layer-limited decode"
    );
}

/// A fault on the very first packet leaves lenient decode with zero
/// complete layers: still `Ok`, geometry intact, all-background image.
#[test]
fn prefix_decode_survives_first_packet_fault() {
    let _g = registry_lock();
    let (im, bytes, _) = multilayer_stream();
    faultsim::reset();
    faultsim::arm(
        "decode.packet",
        FaultSpec::once(FaultAction::Error("first".into())),
    );
    let r = decode_prefix(&bytes);
    faultsim::reset();
    let (img, committed) = r.expect("header parsed, so lenient decode must succeed");
    assert_eq!(committed, 0);
    assert_eq!((img.width, img.height), (im.width, im.height));
}
