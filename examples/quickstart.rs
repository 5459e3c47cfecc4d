//! Quickstart: lossless and lossy encode/decode of a synthetic photograph.
//!
//!     cargo run --release --example quickstart

use jpeg2000_cell::codec::{decode, encode, EncoderParams};
use jpeg2000_cell::images::synth;
use jpeg2000_cell::quality::psnr;

fn main() {
    let image = synth::natural_rgb(512, 512, 42);
    println!(
        "input: {}x{} RGB, {} raw bytes",
        image.width,
        image.height,
        image.raw_bytes()
    );

    // Lossless: RCT + 5/3, exact reconstruction.
    let bytes = encode(&image, &EncoderParams::lossless()).expect("encode");
    let back = decode(&bytes).expect("decode");
    assert_eq!(back, image, "lossless round-trip must be exact");
    println!(
        "lossless: {} bytes ({:.2}:1), round-trip exact",
        bytes.len(),
        image.raw_bytes() as f64 / bytes.len() as f64
    );

    // Lossy at the paper's rate 0.1 (10:1).
    let bytes = encode(&image, &EncoderParams::lossy(0.1)).expect("encode");
    let back = decode(&bytes).expect("decode");
    println!(
        "lossy r=0.1: {} bytes ({:.2}:1), PSNR {:.2} dB",
        bytes.len(),
        image.raw_bytes() as f64 / bytes.len() as f64,
        psnr(&image, &back).unwrap()
    );

    // Four worker threads produce the identical codestream.
    let (par, _) = jpeg2000_cell::codec::encode_with(&image, &EncoderParams::lossless(), 4, None)
        .expect("parallel encode");
    let one = encode(&image, &EncoderParams::lossless()).unwrap();
    assert_eq!(par, one);
    println!("4 workers: byte-identical to 1 worker");
}
