//! MSB-first bit packing for the HT segment streams.
//!
//! All three cleanup sub-streams (MEL, VLC, MagSgn) and the raw
//! refinement passes pack bits most-significant-bit first into whole
//! bytes, with zero padding at the end. Unlike the standard's MagSgn
//! byte-stuffing rules, no `0xFF` avoidance is needed here: every pass
//! segment's byte length travels explicitly in the packet headers
//! (TERMALL-style), so the decoder never scans for marker bytes.
//!
//! Both ends move a word at a time: the writer shifts whole codes into a
//! 64-bit accumulator and flushes four bytes at once, and the reader
//! keeps at least 32 bits buffered, so a peek is one shift.

/// MSB-first bit writer.
#[derive(Default)]
pub(crate) struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned; only the low `nbits` are meaningful.
    acc: u64,
    /// Pending bit count, below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to the bytes already in `buf`.
    pub fn appending(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            ..Self::default()
        }
    }

    /// Write the low `n` bits of `v`, most significant first (`n <= 32`;
    /// `n = 0` writes nothing).
    #[inline]
    pub fn put_bits(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        self.acc = (self.acc << n) | (u64::from(v) & ((1u64 << n) - 1));
        self.nbits += n;
        if self.nbits >= 32 {
            self.nbits -= 32;
            self.buf
                .extend_from_slice(&((self.acc >> self.nbits) as u32).to_be_bytes());
        }
    }

    /// Pad the final partial byte with zeros and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            self.buf.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.buf
    }
}

/// MSB-first bit reader. Reads past the end yield zero bits — the
/// decoder's structural validation (exponent bounds, LUT holes) turns
/// trailing garbage into a typed error rather than a panic.
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load.
    pos: usize,
    /// Buffered bits, left-aligned. Bits below the `avail` valid ones are
    /// zero or already the right bits of the bytes that follow.
    buf: u64,
    /// Valid bits in `buf`, at least 32 after every consume.
    avail: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        let mut r = BitReader {
            data,
            pos: 0,
            buf: 0,
            avail: 0,
        };
        r.refill();
        r
    }

    /// Top the buffer up to at least 57 valid bits: one 8-byte load while
    /// the data lasts, zero bytes past its end.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_be_bytes(word.try_into().unwrap());
            self.buf |= word >> self.avail;
            let take = (63 - self.avail) / 8;
            self.pos += take as usize;
            self.avail += take * 8;
        } else {
            while self.avail <= 56 {
                let byte = self.data.get(self.pos).copied().unwrap_or(0);
                self.buf |= u64::from(byte) << (56 - self.avail);
                self.pos += 1;
                self.avail += 8;
            }
        }
    }

    /// The next 32 bits, MSB first, without consuming them.
    #[inline]
    fn window(&self) -> u32 {
        (self.buf >> 32) as u32
    }

    #[inline]
    pub fn bit(&mut self) -> u32 {
        self.bits(1)
    }

    /// Read `n` bits MSB first (`n <= 32`).
    #[inline]
    pub fn bits(&mut self, n: u32) -> u32 {
        let v = self.peek(n);
        self.skip(n);
        v
    }

    /// Look at the next `n` bits without consuming (`n <= 32`; zero-padded
    /// past the end of the buffer).
    #[inline]
    pub fn peek(&self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        // Two shifts, so `n = 0` never shifts a u64 by 64.
        ((self.buf >> 1) >> (63 - n)) as u32
    }

    /// Consume `n` bits (`n <= 32`).
    #[inline]
    pub fn skip(&mut self, n: u32) {
        debug_assert!(n <= 32);
        self.buf <<= n;
        self.avail -= n;
        if self.avail < 32 {
            self.refill();
        }
    }

    /// Zero bits before the next one bit, 32 if the next 32 are all zero.
    #[inline]
    pub fn leading_zeros(&self) -> u32 {
        self.window().leading_zeros()
    }

    /// One bits before the next zero bit, 32 if the next 32 are all one.
    #[inline]
    pub fn leading_ones(&self) -> u32 {
        self.window().leading_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// The bit-at-a-time writer the word-wide one must match.
    #[derive(Default)]
    struct OracleWriter {
        buf: Vec<u8>,
        acc: u8,
        nbits: u32,
    }

    impl OracleWriter {
        fn put_bits(&mut self, v: u32, n: u32) {
            for i in (0..n).rev() {
                self.acc = (self.acc << 1) | ((v >> i) & 1) as u8;
                self.nbits += 1;
                if self.nbits == 8 {
                    self.buf.push(self.acc);
                    self.acc = 0;
                    self.nbits = 0;
                }
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.buf.push(self.acc << (8 - self.nbits));
            }
            self.buf
        }
    }

    #[test]
    fn bits_roundtrip_msb_first() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(1, 1);
        w.put_bits(0x5a, 8);
        w.put_bits(3, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(4), 0b1011);
        assert_eq!(r.bit(), 1);
        assert_eq!(r.bits(8), 0x5a);
        assert_eq!(r.bits(2), 3);
    }

    #[test]
    fn reads_past_end_are_zero() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.peek(0), 0);
        assert_eq!(r.bits(0), 0);
        assert_eq!(r.bits(8), 0xff);
        assert_eq!(r.bits(5), 0);
        assert_eq!(r.bits(32), 0);
        assert_eq!(r.leading_zeros(), 32);
    }

    #[test]
    fn padding_is_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b111, 3);
        assert_eq!(w.finish(), vec![0b1110_0000]);
    }

    /// Random codes of every width 0..=32, with stray bits above the
    /// width: the word-wide writer emits the oracle's bytes, and the
    /// reader reads every code back, then zeros past the end.
    #[test]
    fn matches_bit_at_a_time_oracle() {
        let mut rng = StdRng::seed_from_u64(18);
        for len in [0usize, 1, 3, 7, 8, 9, 100, 2000] {
            let codes: Vec<(u32, u32)> = (0..len)
                .map(|_| (rng.next_u32(), rng.gen_range(0..=32u32)))
                .collect();
            let mut w = BitWriter::new();
            let mut oracle = OracleWriter::default();
            for &(v, n) in &codes {
                w.put_bits(v, n);
                oracle.put_bits(v, n);
            }
            let bytes = w.finish();
            assert_eq!(bytes, oracle.finish(), "{len} codes");
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &codes {
                let want = if n == 0 {
                    0
                } else {
                    v & (u32::MAX >> (32 - n))
                };
                assert_eq!(r.peek(n), want);
                assert_eq!(r.bits(n), want);
            }
            for _ in 0..3 {
                assert_eq!(r.bits(32), 0, "past the end");
            }
        }
    }
}
