//! Simulated Cell/B.E. scaling: the shapes of Figures 4 and 5 in miniature.
//!
//!     cargo run --release --example cell_scaling

use jpeg2000_cell::codec::cell::{simulate, SimOptions};
use jpeg2000_cell::codec::{encode_with, EncoderParams};
use jpeg2000_cell::images::synth;
use jpeg2000_cell::machine::MachineConfig;

fn main() {
    let image = synth::natural_rgb(512, 512, 7);
    for (name, params) in [
        ("lossless", EncoderParams::lossless()),
        ("lossy r=0.1", EncoderParams::lossy(0.1)),
    ] {
        let (_, profile) = encode_with(&image, &params, 1, None).expect("encode");
        println!("== {name} encode of 512x512 RGB ==");
        println!("{:>14} {:>12} {:>9}", "config", "sim time ms", "speedup");
        let base = simulate(
            &profile,
            &MachineConfig::qs20_single().with_spes(1),
            &SimOptions::default(),
        )
        .total_seconds();
        for spes in [1usize, 2, 4, 8, 16] {
            let cfg = if spes > 8 {
                MachineConfig::qs20_blade().with_spes(spes)
            } else {
                MachineConfig::qs20_single().with_spes(spes)
            };
            let t = simulate(&profile, &cfg, &SimOptions::default()).total_seconds();
            println!("{:>11} SPE {:>12.3} {:>8.2}x", spes, t * 1e3, base / t);
        }
        let cfg = MachineConfig::qs20_blade();
        let t = simulate(
            &profile,
            &cfg,
            &SimOptions {
                ppe_tier1: true,
                ..Default::default()
            },
        )
        .total_seconds();
        println!("{:>8} + 2 PPE {:>12.3} {:>8.2}x", 16, t * 1e3, base / t);
        println!();
    }
}
