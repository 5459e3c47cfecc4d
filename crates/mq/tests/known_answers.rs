//! Known-answer tests for the MQ coder's byte-stuffing edge cases.
//!
//! Each case is a short run of decisions in one context (starting at
//! table state 0, MPS 0) chosen so that the encoder takes one rare
//! branch of BYTEOUT or FLUSH. The expected bytes pin the exact output:
//! a renormalization or flush rewrite that changes when bytes are emitted
//! changes them. Every case is decoded back as well.

use mqcoder::{Contexts, MqDecoder, MqEncoder};

fn decisions(s: &str) -> Vec<u8> {
    s.bytes().map(|b| b - b'0').collect()
}

fn encode(seq: &[u8]) -> Vec<u8> {
    let mut ctxs = Contexts::new(1);
    let mut enc = MqEncoder::new();
    for &d in seq {
        enc.encode(&mut ctxs, 0, d);
    }
    enc.finish()
}

fn check(seq: &str, want: &[u8]) {
    let seq = decisions(seq);
    let bytes = encode(&seq);
    assert_eq!(bytes, want, "encoded bytes");
    let mut ctxs = Contexts::new(1);
    let mut dec = MqDecoder::new(&bytes);
    for (i, &d) in seq.iter().enumerate() {
        assert_eq!(dec.decode(&mut ctxs, 0), d, "decision {i}");
    }
}

/// A carry out of the code register turns the last emitted byte from
/// 0xFE into 0xFF, so the byte after it carries only 7 bits (here 0x00).
#[test]
fn carry_into_ff_byte() {
    check("000111100101001110000001101", &[0x40, 0xFF, 0x00, 0xC6]);
}

/// A 0xFF emitted while coding is followed by a 7-bit byte (0x41, MSB
/// stuffed to 0), so no marker code can appear inside the segment.
#[test]
fn seven_bit_byte_after_ff() {
    check("10100011000100011001111", &[0xB9, 0xFF, 0x41, 0x3F]);
}

/// The flush ends on a 0xFF byte, which `finish` drops: the decoder reads
/// 0xFF past the end of a segment anyway.
#[test]
fn finish_drops_trailing_ff() {
    check("11000010000111", &[0xC6, 0x6A, 0x7F]);
}
