//! CxtVLC — context-dependent variable-length coding of quad
//! significance patterns, plus the exponent side-information (`u_q`
//! Elias-gamma, per-sample unary offsets) that rides in the same
//! bit-stream.
//!
//! A quad's significance pattern `rho` is 4 bits (one per sample, scan
//! order (0,0),(1,0),(0,1),(1,1)). Two canonical prefix-code tables are
//! selected by the quad context:
//!
//! * context 0 (no significant coded neighbor quad): the MEL coder has
//!   already said "some sample is significant", so `rho != 0`. Singles
//!   are by far the most likely — 3 bits; pairs 5; triples and the full
//!   quad 6.
//! * context 1 (a coded neighbor quad is significant): all 16 patterns
//!   occur; significance clusters, so the empty pattern is short (2
//!   bits) and dense patterns are cheaper than in context 0.
//!
//! Both tables satisfy the Kraft inequality with slack (checked by a
//! unit test) and have a maximum codeword length of 6 bits, so decoding
//! is a single 64-entry table lookup on a 6-bit peek.

use crate::bitio::{BitReader, BitWriter};

/// Maximum codeword length across both tables.
const MAX_LEN: u32 = 6;

/// One canonical prefix-code table over the 16 quad patterns.
pub(crate) struct VlcTable {
    /// Codeword length per pattern (0 = pattern unused in this context).
    len: [u8; 16],
    /// Right-aligned codeword bits per pattern.
    code: [u16; 16],
    /// Decode LUT over a 6-bit peek: `(pattern, length)`; length 0
    /// marks a hole (no codeword has this prefix).
    lut: [(u8, u8); 1 << MAX_LEN],
}

impl VlcTable {
    /// Build the canonical code for the given length assignment:
    /// codewords are assigned in (length, pattern) order, which makes
    /// the code prefix-free whenever the lengths satisfy Kraft.
    fn build(len: [u8; 16]) -> VlcTable {
        let mut syms: Vec<u8> = (0u8..16).filter(|&s| len[s as usize] > 0).collect();
        syms.sort_by_key(|&s| (len[s as usize], s));
        let mut code = [0u16; 16];
        let mut next = 0u16;
        let mut prev = len[syms[0] as usize];
        for &s in &syms {
            let l = len[s as usize];
            next <<= l - prev;
            code[s as usize] = next;
            next += 1;
            prev = l;
        }
        let mut lut = [(0u8, 0u8); 1 << MAX_LEN];
        for &s in &syms {
            let l = u32::from(len[s as usize]);
            let base = (code[s as usize] as usize) << (MAX_LEN - l);
            for pad in 0..(1usize << (MAX_LEN - l)) {
                lut[base | pad] = (s, l as u8);
            }
        }
        VlcTable { len, code, lut }
    }

    /// Emit the codeword for `rho`.
    #[inline]
    pub fn put(&self, w: &mut BitWriter, rho: u8) {
        let l = self.len[rho as usize];
        debug_assert!(l > 0, "pattern {rho} unused in this context");
        w.put_bits(u32::from(self.code[rho as usize]), u32::from(l));
    }

    /// Decode one pattern; `None` on a prefix that matches no codeword
    /// (corrupt stream).
    #[inline]
    pub fn get(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let (sym, l) = self.lut[r.peek(MAX_LEN) as usize];
        if l == 0 {
            return None;
        }
        r.skip(u32::from(l));
        Some(sym)
    }
}

fn popcount4(rho: u8) -> u32 {
    (rho & 0xf).count_ones()
}

fn lengths_for_ctx(ctx: usize) -> [u8; 16] {
    let mut len = [0u8; 16];
    for rho in 0u8..16 {
        len[rho as usize] = match (ctx, popcount4(rho)) {
            (0, 0) => 0, // impossible: MEL already coded "significant"
            (0, 1) => 3,
            (0, 2) => 5,
            (0, 3) => 6,
            (0, 4) => 6,
            (1, 0) => 2,
            (1, 1) => 4,
            (1, 2) => 5,
            (1, 3) => 5,
            (1, 4) => 5,
            _ => unreachable!(),
        };
    }
    len
}

/// The two context tables, built once.
pub fn tables() -> &'static [VlcTable; 2] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[VlcTable; 2]> = OnceLock::new();
    TABLES.get_or_init(|| {
        [
            VlcTable::build(lengths_for_ctx(0)),
            VlcTable::build(lengths_for_ctx(1)),
        ]
    })
}

/// Elias-gamma code for `v >= 1`: `b-1` zeros then the `b` bits of `v`
/// (MSB first), where `b = bit-length(v)`.
#[inline]
pub fn put_gamma(w: &mut BitWriter, v: u32) {
    debug_assert!(v >= 1);
    let b = 32 - v.leading_zeros();
    if b <= 16 {
        w.put_bits(v, 2 * b - 1);
    } else {
        w.put_bits(0, b - 1);
        w.put_bits(v, b);
    }
}

/// Decode an Elias-gamma value; `None` if the prefix of zeros is
/// implausibly long (32 or more: corrupt or truncated stream).
#[inline]
pub fn get_gamma(r: &mut BitReader<'_>) -> Option<u32> {
    let zeros = r.leading_zeros();
    if zeros > 31 {
        return None;
    }
    r.skip(zeros);
    Some(r.bits(zeros + 1))
}

/// Unary code for `v <= 31`: `v` ones then a zero.
#[inline]
pub fn put_unary(w: &mut BitWriter, v: u32) {
    debug_assert!(v <= 31);
    w.put_bits((((1u64 << v) - 1) << 1) as u32, v + 1);
}

/// Decode a unary value with an upper bound `cap <= 31` (`None` past
/// `cap`).
#[inline]
pub fn get_unary(r: &mut BitReader<'_>, cap: u32) -> Option<u32> {
    debug_assert!(cap <= 31);
    let ones = r.leading_ones();
    if ones > cap {
        return None;
    }
    r.skip(ones + 1);
    Some(ones)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tables_satisfy_kraft() {
        for ctx in 0..2 {
            let len = lengths_for_ctx(ctx);
            let kraft: f64 = len
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| f64::powi(0.5, i32::from(l)))
                .sum();
            assert!(kraft <= 1.0 + 1e-12, "ctx {ctx} kraft {kraft}");
            // And every usable pattern has a codeword.
            for rho in 0u8..16 {
                let used = !(ctx == 0 && rho == 0);
                assert_eq!(len[rho as usize] > 0, used, "ctx {ctx} rho {rho}");
            }
        }
    }

    #[test]
    fn codewords_roundtrip_and_are_prefix_free() {
        for (ctx, t) in tables().iter().enumerate() {
            let start: u8 = if ctx == 0 { 1 } else { 0 };
            let mut w = BitWriter::new();
            for rho in start..16 {
                t.put(&mut w, rho);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for rho in start..16 {
                assert_eq!(t.get(&mut r), Some(rho), "ctx {ctx}");
            }
        }
    }

    #[test]
    fn gamma_and_unary_roundtrip() {
        // Every gamma length (one and two writes) and every unary run.
        let gammas: Vec<u32> = (1..40u32)
            .chain((5..32).map(|b| (1u32 << b) | 0x5555_5555 >> (32 - b)))
            .chain([u32::MAX])
            .collect();
        let mut w = BitWriter::new();
        for &v in &gammas {
            put_gamma(&mut w, v);
        }
        for v in 0..32u32 {
            put_unary(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &gammas {
            assert_eq!(get_gamma(&mut r), Some(v));
        }
        for v in 0..32u32 {
            assert_eq!(get_unary(&mut r, 31), Some(v));
        }
    }

    #[test]
    fn unary_runs_past_cap_are_rejected() {
        let mut w = BitWriter::new();
        put_unary(&mut w, 5);
        put_unary(&mut w, 31);
        let bytes = w.finish();
        assert_eq!(get_unary(&mut BitReader::new(&bytes), 4), None);
        assert_eq!(get_unary(&mut BitReader::new(&bytes), 5), Some(5));
        assert_eq!(get_unary(&mut BitReader::new(&[0xff; 8]), 31), None);
    }

    #[test]
    fn corrupt_prefixes_are_rejected() {
        // A context-0 stream starting with the all-ones hole (no 6-bit
        // codeword is 111111 in either table's canonical assignment at
        // full Kraft slack) must return None rather than alias.
        let bytes = [0xff, 0xff];
        // ctx0's deepest codeword ends well before 0b111111 (Kraft 0.766),
        // so the all-ones prefix is a hole in both tables.
        assert_eq!(tables()[0].get(&mut BitReader::new(&bytes)), None);
        assert_eq!(tables()[1].get(&mut BitReader::new(&bytes)), None);
        // An all-zero gamma prefix never terminates within 32 bits.
        assert_eq!(get_gamma(&mut BitReader::new(&[0u8; 5])), None);
    }
}
