//! Raw (bypass / "lazy") bit coding, JPEG2000 Annex D.5.
//!
//! In selective arithmetic-coding-bypass mode, significance-propagation and
//! magnitude-refinement passes beyond the fourth bit-plane emit raw bits.
//! Raw segments still obey the no-marker rule: after a 0xFF byte only 7 bits
//! are used in the next byte (the MSB is a stuffed 0).

/// Raw bit writer with 0xFF stuffing.
#[derive(Debug, Clone, Default)]
pub struct RawEncoder {
    out: Vec<u8>,
    /// Bits pending in `byte`, MSB first.
    byte: u8,
    used: u8,
    /// Capacity of the current byte: 7 after an 0xFF, else 8.
    cap: u8,
}

impl RawEncoder {
    /// A fresh raw encoder.
    pub fn new() -> Self {
        RawEncoder {
            out: Vec::new(),
            byte: 0,
            used: 0,
            cap: 8,
        }
    }

    /// Append one bit.
    pub fn put(&mut self, bit: u8) {
        debug_assert!(bit <= 1);
        self.byte = (self.byte << 1) | bit;
        self.used += 1;
        if self.used == self.cap {
            self.flush_byte();
        }
    }

    fn flush_byte(&mut self) {
        // A 7-bit byte after 0xFF is emitted left-aligned below the stuffed
        // zero MSB, i.e. as-is in the low 7 bits.
        let b = self.byte;
        self.out.push(b);
        self.cap = if b == 0xFF { 7 } else { 8 };
        self.byte = 0;
        self.used = 0;
    }

    /// Terminate a bypass segment: pad the final partial byte with 0s to
    /// the byte boundary and drop a terminal 0xFF (the decoder reads 1s past
    /// the end of a segment, so the byte carries nothing).
    pub fn finish(mut self) -> Vec<u8> {
        self.pad_last_byte();
        if let Some(&0xFF) = self.out.last() {
            self.out.pop();
        }
        self.out
    }

    /// Terminate a packet header (T.800 B.10.1): pad like [`finish`], but a
    /// terminal 0xFF is kept and followed by its stuffed `0x00` byte. The
    /// packet body comes right after the header, so a dropped 0xFF would
    /// shift where the decoder finds it.
    ///
    /// [`finish`]: RawEncoder::finish
    pub fn finish_header(mut self) -> Vec<u8> {
        self.pad_last_byte();
        if let Some(&0xFF) = self.out.last() {
            self.out.push(0);
        }
        self.out
    }

    fn pad_last_byte(&mut self) {
        if self.used > 0 {
            self.byte <<= self.cap - self.used;
            self.flush_byte();
        }
    }
}

/// Raw bit reader, mirror of [`RawEncoder`]; reads past the end return 1s.
#[derive(Debug, Clone)]
pub struct RawDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    byte: u8,
    left: u8,
    prev_ff: bool,
}

impl<'a> RawDecoder<'a> {
    /// A raw decoder over a (possibly truncated) segment.
    pub fn new(data: &'a [u8]) -> Self {
        RawDecoder {
            data,
            pos: 0,
            byte: 0,
            left: 0,
            prev_ff: false,
        }
    }

    /// Length of a packet header whose last bit was just read: the bytes
    /// consumed plus, after a terminal 0xFF, the stuffed byte that
    /// [`RawEncoder::finish_header`] appends.
    pub fn header_len(&self) -> usize {
        self.pos + usize::from(self.prev_ff)
    }

    /// Read one bit.
    pub fn get(&mut self) -> u8 {
        if self.left == 0 {
            let b = self.data.get(self.pos).copied().unwrap_or(0xFF);
            self.pos += 1;
            if self.prev_ff {
                // Stuffed byte: MSB is a guaranteed 0, only 7 payload bits.
                self.byte = b << 1;
                self.left = 7;
            } else {
                self.byte = b;
                self.left = 8;
            }
            self.prev_ff = b == 0xFF;
        }
        let bit = self.byte >> 7;
        self.byte <<= 1;
        self.left -= 1;
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_random_bits() {
        let mut x: u32 = 42;
        let bits: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 17) & 1) as u8
            })
            .collect();
        let mut enc = RawEncoder::new();
        for &b in &bits {
            enc.put(b);
        }
        let bytes = enc.finish();
        let mut dec = RawDecoder::new(&bytes);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.get(), b, "bit {i}");
        }
    }

    #[test]
    fn roundtrip_all_ones_respects_stuffing() {
        let mut enc = RawEncoder::new();
        for _ in 0..64 {
            enc.put(1);
        }
        let bytes = enc.finish();
        for w in bytes.windows(2) {
            if w[0] == 0xFF {
                assert!(w[1] < 0x80, "stuffed bit missing after FF: {:02X}", w[1]);
            }
        }
        let mut dec = RawDecoder::new(&bytes);
        for i in 0..64 {
            assert_eq!(dec.get(), 1, "bit {i}");
        }
    }

    #[test]
    fn empty_is_empty() {
        assert!(RawEncoder::new().finish().is_empty());
        assert!(RawEncoder::new().finish_header().is_empty());
    }

    #[test]
    fn header_keeps_terminal_ff_and_its_stuffed_byte() {
        // Eight 1-bits fill one 0xFF byte; a bypass segment drops it, a
        // header keeps it and appends the stuffed zero byte.
        let ones = || {
            let mut enc = RawEncoder::new();
            for _ in 0..8 {
                enc.put(1);
            }
            enc
        };
        assert!(ones().finish().is_empty());
        let hdr = ones().finish_header();
        assert_eq!(hdr, [0xFF, 0x00]);

        // Followed by a body, the reader finds the header's end exactly.
        let mut packet = hdr.clone();
        packet.extend_from_slice(&[0x12, 0x34]);
        let mut dec = RawDecoder::new(&packet);
        for i in 0..8 {
            assert_eq!(dec.get(), 1, "bit {i}");
        }
        assert_eq!(dec.header_len(), hdr.len());
    }
}
