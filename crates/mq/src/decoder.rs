//! MQ decoder (JPEG2000 Annex C.3, software-conventions form).

use crate::table::QE_TABLE;
use crate::Contexts;

/// The MQ arithmetic decoder, mirror of [`crate::MqEncoder`].
///
/// Reads past the end of the segment are modelled as the standard requires:
/// once the input is exhausted the decoder feeds `0xFF` fill bytes (`1`
/// bits), which is what lets truncated coding passes still decode a prefix.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    data: &'a [u8],
    bp: usize,
    c: u32,
    a: u32,
    ct: u32,
}

impl<'a> MqDecoder<'a> {
    /// INITDEC over a (possibly truncated) MQ segment.
    pub fn new(data: &'a [u8]) -> Self {
        let mut d = MqDecoder {
            data,
            bp: 0,
            c: 0,
            a: 0,
            ct: 0,
        };
        d.c = (d.byte_at(0) as u32) << 16;
        d.byte_in();
        d.c <<= 7;
        d.ct -= 7;
        d.a = 0x8000;
        d
    }

    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        // Past-the-end bytes read as 0xFF (marker-like), per C.3.4.
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    /// BYTEIN with bit-unstuffing.
    fn byte_in(&mut self) {
        if self.byte_at(self.bp) == 0xFF {
            if self.byte_at(self.bp + 1) > 0x8F {
                // Marker (or synthesized end-of-data): feed 1-bits.
                self.c += 0xFF00;
                self.ct = 8;
            } else {
                self.bp += 1;
                self.c += (self.byte_at(self.bp) as u32) << 9;
                self.ct = 7;
            }
        } else {
            self.bp += 1;
            self.c += (self.byte_at(self.bp) as u32) << 8;
            self.ct = 8;
        }
    }

    /// DECODE one decision in context `cx`.
    ///
    /// The mirror of [`crate::MqEncoder::encode`]: the code value lies in
    /// the `Qe` sub-interval or in the `A - Qe` one (then `C -= Qe`), and
    /// the conditional exchange (`A - Qe < Qe`) decides which of the two
    /// means the LPS. Selects replace the standard's data-dependent
    /// branches; the state moves, and RENORMD runs, exactly when the new
    /// `A` is below 0x8000.
    #[inline]
    pub fn decode(&mut self, ctxs: &mut Contexts, cx: usize) -> u8 {
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        let a1 = self.a - qe;
        let in_qe = (self.c >> 16) < qe;
        let lps = in_qe != (a1 < qe);
        self.a = if in_qe { qe } else { a1 };
        self.c -= if in_qe { 0 } else { qe << 16 };
        let d = st.mps ^ u8::from(lps);
        if self.a < 0x8000 {
            st.index = if lps { row.nlps } else { row.nmps };
            st.mps ^= u8::from(lps) & row.switch_mps;
            self.renorm();
        }
        d
    }

    /// RENORMD, a byte at a time: `a` takes all its shifts at once, and
    /// `c` shifts up to each byte boundary, where BYTEIN fires exactly when
    /// the bit-at-a-time loop would meet `ct == 0` before a shift.
    #[inline]
    fn renorm(&mut self) {
        let mut n = self.a.leading_zeros() - 16;
        self.a <<= n;
        loop {
            if self.ct == 0 {
                self.byte_in();
            }
            let s = n.min(self.ct);
            self.c <<= s;
            self.ct -= s;
            n -= s;
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Contexts, MqEncoder};

    fn roundtrip(seq: &[(usize, u8)], nctx: usize) {
        let mut ectx = Contexts::new(nctx);
        let mut enc = MqEncoder::new();
        for &(cx, d) in seq {
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let mut dctx = Contexts::new(nctx);
        let mut dec = MqDecoder::new(&bytes);
        for (i, &(cx, d)) in seq.iter().enumerate() {
            let got = dec.decode(&mut dctx, cx);
            assert_eq!(got, d, "symbol {i} of {}", seq.len());
        }
    }

    #[test]
    fn roundtrip_simple_patterns() {
        roundtrip(&[(0, 1)], 1);
        roundtrip(&[(0, 0), (0, 1), (0, 0), (0, 1)], 1);
        let ones: Vec<_> = (0..1000).map(|_| (0usize, 1u8)).collect();
        roundtrip(&ones, 1);
        let zeros: Vec<_> = (0..1000).map(|_| (0usize, 0u8)).collect();
        roundtrip(&zeros, 1);
    }

    #[test]
    fn roundtrip_multi_context_lcg() {
        let mut x: u32 = 0xDEADBEEF;
        let seq: Vec<(usize, u8)> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 9) as usize % 19, ((x >> 21) & 1) as u8)
            })
            .collect();
        roundtrip(&seq, 19);
    }

    #[test]
    fn roundtrip_skewed_sources() {
        // 1-in-16 ones: exercises the fast-attack part of the table.
        let mut x: u32 = 7;
        let seq: Vec<(usize, u8)> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(22695477).wrapping_add(1);
                (0usize, u8::from((x >> 16).is_multiple_of(16)))
            })
            .collect();
        roundtrip(&seq, 1);
    }

    #[test]
    fn decoder_survives_truncation() {
        // Decoding from a truncated segment must not panic and must still
        // return *some* decisions (the standard guarantees a decodable
        // prefix; we check robustness, not the exact prefix length).
        let mut ectx = Contexts::new(2);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 99;
        let mut seq = Vec::new();
        for _ in 0..5_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 5) as usize % 2;
            let d = ((x >> 11) & 1) as u8;
            seq.push((cx, d));
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let cut = bytes.len() / 2;
        let mut dctx = Contexts::new(2);
        let mut dec = MqDecoder::new(&bytes[..cut]);
        let mut correct_prefix = 0usize;
        for &(cx, d) in &seq {
            if dec.decode(&mut dctx, cx) == d {
                correct_prefix += 1;
            } else {
                break;
            }
        }
        // At least ~cut bytes worth of decisions decode correctly.
        assert!(correct_prefix > 100, "only {correct_prefix} correct");
    }
}
