//! Rate-distortion sweep: compressed size and PSNR across target rates.
//!
//!     cargo run --release --example lossy_rate

use jpeg2000_cell::codec::{decode, encode, EncoderParams};
use jpeg2000_cell::images::synth;
use jpeg2000_cell::quality::psnr;

fn main() {
    let image = synth::natural(512, 512, 99);
    println!("rate-distortion sweep on a 512x512 grayscale natural image");
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "rate", "bytes", "bpp", "PSNR dB"
    );
    for rate in [0.02, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let bytes = encode(&image, &EncoderParams::lossy(rate)).expect("encode");
        let back = decode(&bytes).expect("decode");
        let bpp = bytes.len() as f64 * 8.0 / (image.width * image.height) as f64;
        println!(
            "{:>8.2} {:>12} {:>10.3} {:>10.2}",
            rate,
            bytes.len(),
            bpp,
            psnr(&image, &back).unwrap()
        );
    }
    let lossless = encode(&image, &EncoderParams::lossless()).unwrap();
    println!(
        "{:>8} {:>12} {:>10.3} {:>10}",
        "lossless",
        lossless.len(),
        lossless.len() as f64 * 8.0 / (image.width * image.height) as f64,
        "inf"
    );
}
