//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary accepts `--size N` (image edge, default 768 = the paper's
//! 3072 scaled by 1/4 so runs finish quickly; pass `--size 3072` for the
//! full workload), `--seed N`, `--spes a,b,c`, `--levels N`, and `--csv`.
//! Each prints the paper's reported numbers next to the measured ones so
//! EXPERIMENTS.md can be filled mechanically.

use imgio::Image;
use j2k_core::{EncoderParams, WorkloadProfile};

/// Paper-reported reference numbers (Section 5).
pub mod paper {
    /// Lossless encode speedup, 8 SPE vs 1 SPE (Fig. 4).
    pub const LOSSLESS_SPEEDUP_8SPE: f64 = 6.6;
    /// Lossy encode speedup, 8 SPE vs 1 SPE (Fig. 5).
    pub const LOSSY_SPEEDUP_8SPE: f64 = 3.1;
    /// Lossless speedup vs PPE-only (Fig. 4).
    pub const LOSSLESS_VS_PPE: f64 = 6.9;
    /// Lossy speedup vs PPE-only (Fig. 5).
    pub const LOSSY_VS_PPE: f64 = 7.4;
    /// Overall Cell vs Pentium IV, lossless (Fig. 9).
    pub const VS_P4_LOSSLESS: f64 = 3.2;
    /// Overall Cell vs Pentium IV, lossy (Fig. 9).
    pub const VS_P4_LOSSY: f64 = 2.7;
    /// DWT Cell vs Pentium IV, lossless (Fig. 9).
    pub const VS_P4_DWT_LOSSLESS: f64 = 9.1;
    /// DWT Cell vs Pentium IV, lossy (Fig. 9).
    pub const VS_P4_DWT_LOSSY: f64 = 15.0;
    /// Rate-control share of the lossy 16 SPE + 2 PPE encode (Sec. 5.1).
    pub const RC_SHARE_16SPE: f64 = 0.60;
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Image edge in pixels (images are square, RGB).
    pub size: usize,
    /// Synthetic image seed.
    pub seed: u64,
    /// SPE counts to sweep.
    pub spes: Vec<usize>,
    /// DWT levels.
    pub levels: usize,
    /// Emit CSV instead of a table.
    pub csv: bool,
    /// Optional JSON output path (binaries that emit a `BENCH_*.json`).
    pub out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            size: 768,
            seed: 20080906,
            spes: vec![1, 2, 4, 8, 16],
            levels: 5,
            csv: false,
            out: None,
        }
    }
}

/// Parse `std::env::args`; unknown flags abort with usage.
pub fn parse_args() -> Args {
    let mut a = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", argv[i]);
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--size" => {
                a.size = need(i).parse().expect("--size N");
                i += 2;
            }
            "--seed" => {
                a.seed = need(i).parse().expect("--seed N");
                i += 2;
            }
            "--levels" => {
                a.levels = need(i).parse().expect("--levels N");
                i += 2;
            }
            "--spes" => {
                a.spes = need(i)
                    .split(',')
                    .map(|s| s.parse().expect("--spes a,b,c"))
                    .collect();
                i += 2;
            }
            "--csv" => {
                a.csv = true;
                i += 1;
            }
            "--out" => {
                a.out = Some(need(i).clone());
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: --size N --seed N --spes a,b,c --levels N \
                     --csv --out FILE"
                );
                std::process::exit(2);
            }
        }
    }
    a
}

/// The scaled paper workload: `size x size` RGB natural image.
pub fn workload_rgb(args: &Args) -> Image {
    imgio::synth::natural_rgb(args.size, args.size, args.seed)
}

/// Encode and return the measured profile (paper parameters + overrides).
pub fn profile(image: &Image, params: &EncoderParams) -> WorkloadProfile {
    j2k_core::encode_with(image, params, 1, None)
        .expect("encode")
        .1
}

/// Lossless paper parameters at `levels`.
pub fn lossless_params(levels: usize) -> EncoderParams {
    EncoderParams {
        levels,
        ..EncoderParams::lossless()
    }
}

/// Lossy paper parameters (`-O mode=real -O rate=0.1`).
pub fn lossy_params(levels: usize) -> EncoderParams {
    EncoderParams {
        levels,
        ..EncoderParams::lossy(0.1)
    }
}

/// Print one table/CSV row.
pub fn row(csv: bool, cols: &[String]) {
    if csv {
        println!("{}", cols.join(","));
    } else {
        let widths = [18usize, 14, 14, 14, 14, 14, 14];
        let line: Vec<String> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(12)))
            .collect();
        println!("{}", line.join(" "));
    }
}

/// Format seconds as milliseconds with 3 decimals.
pub fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = Args::default();
        assert_eq!(a.size, 768);
        assert!(a.spes.contains(&8));
    }

    #[test]
    fn workload_is_rgb_and_deterministic() {
        let a = Args {
            size: 32,
            ..Args::default()
        };
        let im = workload_rgb(&a);
        assert_eq!(im.comps(), 3);
        assert_eq!(im.width, 32);
        assert_eq!(workload_rgb(&a), im);
    }

    #[test]
    fn params_builders() {
        assert!(matches!(lossy_params(5).mode, j2k_core::Mode::Lossy { rate } if rate == 0.1));
        assert_eq!(lossless_params(3).levels, 3);
    }
}
