//! MQ encoder (JPEG2000 Annex C.2, software-conventions form).

use crate::table::QE_TABLE;
use crate::Contexts;

/// The MQ arithmetic encoder.
///
/// Register conventions follow the standard's software implementation:
/// `c` is the 28-bit code register (carry appears at bit 27), `a` the 16-bit
/// interval register renormalized to keep `a >= 0x8000`, `ct` the downcounter
/// to the next byte emission.
///
/// One encoder codes any number of segments: [`MqEncoder::flush_into`]
/// terminates the open segment, appends it to a caller's buffer and
/// re-initialises the coder in place, keeping its segment buffer. The
/// buffer holds a sentinel byte at index 0 standing in for the "B-1"
/// position of the standard's pointer arithmetic. A carry never reaches
/// it: the first BYTEOUT comes after 12 shifts of an interval that starts
/// below 2^15, so the carry bit (27) is still clear.
#[derive(Debug, Clone)]
pub struct MqEncoder {
    c: u32,
    a: u32,
    ct: u32,
    /// Open segment; `out[0]` is the sentinel and the last byte is the one
    /// the standard calls `B`.
    out: Vec<u8>,
    /// Decisions coded into the open segment.
    symbols: u64,
}

impl Default for MqEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MqEncoder {
    /// INITENC.
    pub fn new() -> Self {
        MqEncoder {
            c: 0,
            a: 0x8000,
            ct: 12,
            out: vec![0u8],
            symbols: 0,
        }
    }

    /// Number of decisions coded since the coder was created or last
    /// flushed.
    #[inline]
    pub fn symbols(&self) -> u64 {
        self.symbols
    }

    /// ENCODE one `decision` in context `cx` of `ctxs`.
    ///
    /// CODEMPS and CODELPS as one step without data-dependent branches:
    /// the coder keeps either the `Qe` sub-interval at the bottom of the
    /// interval or the `A - Qe` one above it (`C += Qe`). The MPS keeps the
    /// `A - Qe` one and the LPS the `Qe` one unless the conditional exchange
    /// (`A - Qe < Qe`) swaps them. The state moves exactly when the new `A`
    /// is below 0x8000, which is also when RENORME shifts at all. Which
    /// symbol comes is as unpredictable as the data, so selects replace
    /// the standard's branches on it.
    #[inline]
    pub fn encode(&mut self, ctxs: &mut Contexts, cx: usize, decision: u8) {
        self.symbols += 1;
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        let a1 = self.a - qe;
        let lps = decision != st.mps;
        let keep_rest = lps == (a1 < qe);
        self.a = if keep_rest { a1 } else { qe };
        self.c += if keep_rest { qe } else { 0 };
        // The state moves only with a renormalization; an LPS always
        // renormalizes, so the MPS switch needs no test.
        let next = if lps { row.nlps } else { row.nmps };
        st.index = if self.a < 0x8000 { next } else { st.index };
        st.mps ^= u8::from(lps) & row.switch_mps;
        self.renorm();
    }

    /// RENORME, a byte at a time: `a` takes all its shifts at once, and
    /// `c` shifts up to each byte boundary, where BYTEOUT fires exactly
    /// when the bit-at-a-time loop's `ct` would reach 0. With `a` already
    /// at least 0x8000 it shifts nothing (`ct` is never 0 here).
    #[inline]
    fn renorm(&mut self) {
        let mut n = self.a.leading_zeros() - 16;
        self.a <<= n;
        while n >= self.ct {
            self.c <<= self.ct;
            n -= self.ct;
            self.byte_out();
        }
        self.c <<= n;
        self.ct -= n;
    }

    /// BYTEOUT with 0xFF bit-stuffing.
    fn byte_out(&mut self) {
        let b = self.out.len() - 1;
        if self.out[b] == 0xFF {
            self.out.push(((self.c >> 20) & 0xFF) as u8);
            self.c &= 0xF_FFFF;
            self.ct = 7;
        } else if self.c & 0x800_0000 == 0 {
            self.out.push(((self.c >> 19) & 0xFF) as u8);
            self.c &= 0x7_FFFF;
            self.ct = 8;
        } else {
            // Propagate carry into B.
            debug_assert!(b > 0, "carry into the sentinel");
            self.out[b] = self.out[b].wrapping_add(1);
            if self.out[b] == 0xFF {
                self.c &= 0x7FF_FFFF;
                self.out.push(((self.c >> 20) & 0xFF) as u8);
                self.c &= 0xF_FFFF;
                self.ct = 7;
            } else {
                self.out.push(((self.c >> 19) & 0xFF) as u8);
                self.c &= 0x7_FFFF;
                self.ct = 8;
            }
        }
    }

    /// FLUSH: SETBITS, emit the remaining register contents, append the
    /// finished segment to `dst` (trailing 0xFF dropped per the standard's
    /// "if B == 0xFF, discard" rule), then INITENC in place.
    pub fn flush_into(&mut self, dst: &mut Vec<u8>) {
        // SETBITS
        let tempc = self.c + self.a;
        self.c |= 0xFFFF;
        if self.c >= tempc {
            self.c -= 0x8000;
        }
        self.c <<= self.ct;
        self.byte_out();
        self.c <<= self.ct;
        self.byte_out();
        // Skip the sentinel; a trailing 0xFF carries no information and may
        // not legally end a segment.
        let mut end = self.out.len();
        if self.out[end - 1] == 0xFF {
            end -= 1;
        }
        dst.extend_from_slice(&self.out[1..end]);
        self.out.truncate(1);
        self.c = 0;
        self.a = 0x8000;
        self.ct = 12;
        self.symbols = 0;
    }

    /// [`MqEncoder::flush_into`] a new buffer: the finished segment.
    pub fn finish(mut self) -> Vec<u8> {
        let mut v = Vec::new();
        self.flush_into(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Contexts;

    #[test]
    fn empty_flush_is_small() {
        let enc = MqEncoder::new();
        let bytes = enc.finish();
        // Flushing an empty coder produces at most a few bytes.
        assert!(bytes.len() <= 3, "{bytes:?}");
    }

    #[test]
    fn all_mps_compresses_hard() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        for _ in 0..10_000 {
            enc.encode(&mut ctxs, 0, 0);
        }
        assert_eq!(enc.symbols(), 10_000);
        let bytes = enc.finish();
        // 10k highly-predictable symbols should land well under 100 bytes.
        assert!(bytes.len() < 100, "got {} bytes", bytes.len());
    }

    #[test]
    fn alternating_bits_cost_about_one_bit_each() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        let n = 8_192usize;
        for i in 0..n {
            enc.encode(&mut ctxs, 0, (i & 1) as u8);
        }
        let bytes = enc.finish();
        let bits_per_symbol = (bytes.len() * 8) as f64 / n as f64;
        assert!(
            (0.9..1.2).contains(&bits_per_symbol),
            "bits/symbol = {bits_per_symbol}"
        );
    }

    #[test]
    fn no_marker_bytes_in_output_interior() {
        // After any 0xFF the next byte must be < 0x90 (bit stuffing).
        let mut ctxs = Contexts::new(4);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 123456789;
        for _ in 0..50_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 7) as usize % 4;
            let d = ((x >> 13) & 1) as u8;
            enc.encode(&mut ctxs, cx, d);
        }
        let bytes = enc.finish();
        for w in bytes.windows(2) {
            if w[0] == 0xFF {
                assert!(w[1] < 0x90, "marker {:02X}{:02X} in MQ output", w[0], w[1]);
            }
        }
    }
}
