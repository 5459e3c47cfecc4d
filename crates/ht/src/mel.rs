//! MEL adaptive run-length coder (HTJ2K's low-entropy event coder).
//!
//! The MEL stream codes one binary event per context-0 quad: "does this
//! quad contain any significant sample?". Significance is rare in the
//! deep subbands, so the coder is a 13-state adaptive run-length scheme:
//! state `k` carries a run threshold `2^E[k]`; a completed run of
//! `2^E[k]` zero events emits a single `1` bit and moves to a longer
//! threshold, while a significant event emits `0` followed by `E[k]`
//! bits of the interrupted run's length and moves to a shorter one.
//! Throughput is the point: one branch and no table lookups per event,
//! versus the MQ coder's context fetch + probability update + renorm.

use crate::bitio::{BitReader, BitWriter};

/// Run-length exponents per adaptation state (threshold = `1 << E[k]`).
const E: [u32; 13] = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5];

/// MEL event encoder.
pub(crate) struct MelEncoder {
    out: BitWriter,
    k: usize,
    run: u32,
}

impl Default for MelEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MelEncoder {
    pub fn new() -> Self {
        MelEncoder {
            out: BitWriter::new(),
            k: 0,
            run: 0,
        }
    }

    /// Code one event (`true` = significant quad).
    #[inline]
    pub fn encode(&mut self, one: bool) {
        let t = 1u32 << E[self.k];
        if !one {
            self.run += 1;
            if self.run == t {
                self.out.put_bits(1, 1);
                self.run = 0;
                self.k = (self.k + 1).min(E.len() - 1);
            }
        } else {
            // A zero, then the run length in `E[k]` bits (`run < 2^E[k]`).
            self.out.put_bits(self.run, E[self.k] + 1);
            self.run = 0;
            self.k = self.k.saturating_sub(1);
        }
    }

    /// Flush: a partial final run is emitted as if it had completed; the
    /// decoder consumes only as many events as the quad walk demands, so
    /// the overhang is never observed.
    pub fn finish(mut self) -> Vec<u8> {
        if self.run > 0 {
            self.out.put_bits(1, 1);
        }
        self.out.finish()
    }
}

/// MEL event decoder, mirroring [`MelEncoder`] state-for-state.
pub(crate) struct MelDecoder<'a> {
    inp: BitReader<'a>,
    k: usize,
    /// Buffered zero events not yet handed out.
    run: u32,
    /// A one event queued behind the buffered zeros.
    one_pending: bool,
}

impl<'a> MelDecoder<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        MelDecoder {
            inp: BitReader::new(data),
            k: 0,
            run: 0,
            one_pending: false,
        }
    }

    /// Decode one event (`true` = significant quad).
    #[inline]
    pub fn decode(&mut self) -> bool {
        loop {
            if self.run > 0 {
                self.run -= 1;
                return false;
            }
            if self.one_pending {
                self.one_pending = false;
                return true;
            }
            // Refill from the next codeword. Past the end of the buffer
            // the reader yields zeros, which decode as "run of zeros
            // then a one" — bounded, never a stall.
            if self.inp.bit() == 1 {
                self.run = 1 << E[self.k];
                self.k = (self.k + 1).min(E.len() - 1);
            } else {
                self.run = self.inp.bits(E[self.k]);
                self.one_pending = true;
                self.k = self.k.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn roundtrip(events: &[bool]) {
        let mut enc = MelEncoder::new();
        for &e in events {
            enc.encode(e);
        }
        let bytes = enc.finish();
        let mut dec = MelDecoder::new(&bytes);
        for (i, &e) in events.iter().enumerate() {
            assert_eq!(dec.decode(), e, "event {i} of {}", events.len());
        }
    }

    #[test]
    fn roundtrips_hand_patterns() {
        roundtrip(&[]);
        roundtrip(&[true]);
        roundtrip(&[false]);
        roundtrip(&[true; 40]);
        roundtrip(&[false; 1000]);
        let alternating: Vec<bool> = (0..257).map(|i| i % 2 == 0).collect();
        roundtrip(&alternating);
    }

    #[test]
    fn roundtrips_random_densities() {
        let mut rng = StdRng::seed_from_u64(7);
        for &density in &[0.01f64, 0.1, 0.5, 0.9] {
            for len in [1usize, 17, 256, 4096] {
                let ev: Vec<bool> = (0..len).map(|_| rng.gen_bool(density)).collect();
                roundtrip(&ev);
            }
        }
    }

    #[test]
    fn long_zero_runs_compress() {
        let mut enc = MelEncoder::new();
        for _ in 0..10_000 {
            enc.encode(false);
        }
        let bytes = enc.finish();
        // Fully adapted, 32 zeros cost one bit.
        assert!(bytes.len() < 10_000 / 32 + 16, "got {} bytes", bytes.len());
    }
}
