//! Decoder robustness against malformed main headers: every rejected
//! stream must produce a clean `CodecError`, never a panic or runaway
//! allocation.

use j2k_core::codestream::{parse, write, MainHeader, Quant};
use j2k_core::quant::GUARD_BITS;
use j2k_core::Coder;
use j2k_core::{Arithmetic, EncoderParams};

fn valid_stream() -> Vec<u8> {
    let im = imgio::synth::natural(32, 32, 1);
    j2k_core::encode(
        &im,
        &EncoderParams {
            levels: 2,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Find the byte offset of a marker in the stream.
fn find_marker(data: &[u8], marker: u16) -> usize {
    let m = marker.to_be_bytes();
    data.windows(2).position(|w| w == m).unwrap()
}

#[test]
fn rejects_zero_dimensions() {
    let mut s = valid_stream();
    // SIZ Xsiz at offset: SOC(2) + SIZ marker(2) + Lsiz(2) + Rsiz(2) = 8.
    s[8..12].copy_from_slice(&0u32.to_be_bytes());
    assert!(parse(&s).is_err());
}

#[test]
fn rejects_absurd_dimensions() {
    let mut s = valid_stream();
    s[8..12].copy_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
    s[12..16].copy_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
    assert!(parse(&s).is_err());
}

#[test]
fn rejects_bad_codeblock_exponent() {
    let mut s = valid_stream();
    let cod = find_marker(&s, j2k_core::codestream::COD);
    // COD layout: marker(2) Lcod(2) Scod(1) prog(1) layers(2) mct(1)
    // levels(1) cbw(1) ...
    s[cod + 10] = 0x3F;
    assert!(parse(&s).is_err());
}

#[test]
fn rejects_bad_depth() {
    let mut s = valid_stream();
    // Ssiz of component 0: SOC(2)+SIZ(2)+Lsiz(2)+Rsiz(2)+8 u32 fields(32)
    // + Csiz(2) = 42.
    s[42] = 200;
    assert!(parse(&s).is_err());
}

#[test]
fn rejects_missing_qcd() {
    let im = imgio::synth::natural(16, 16, 1);
    let hdr = MainHeader {
        width: 16,
        height: 16,
        comps: 1,
        depth: 8,
        levels: 2,
        layers: 1,
        cb_size: 16,
        lossless: true,
        mct: false,
        arithmetic: Arithmetic::Float32,
        bypass: false,
        coder: Coder::Mq,
        guard: GUARD_BITS,
        quant: Quant::Reversible(vec![8; wavelet::subbands(16, 16, 2).len()]),
    };
    let bytes = write(&hdr, &[]);
    // Excise the QCD segment entirely.
    let q = find_marker(&bytes, j2k_core::codestream::QCD);
    let l = u16::from_be_bytes([bytes[q + 2], bytes[q + 3]]) as usize;
    let mut cut = bytes[..q].to_vec();
    cut.extend_from_slice(&bytes[q + 2 + l..]);
    assert!(parse(&cut).is_err());
    let _ = im; // silence unused in case of future edits
}

#[test]
fn rejects_truncated_qcd_band_list() {
    let mut s = valid_stream();
    let q = find_marker(&s, j2k_core::codestream::QCD);
    // Shrink Lqcd so the parser sees fewer band exponents than bands.
    s[q + 3] = 4;
    // Parsing may fail at QCD or at the band-count check; either way: Err.
    assert!(parse(&s).is_err());
}

#[test]
fn every_single_byte_truncation_is_handled() {
    let s = valid_stream();
    for cut in 0..s.len() {
        let _ = parse(&s[..cut]); // must never panic
    }
}

#[test]
fn guard_and_exponent_zero_rejected() {
    let mut s = valid_stream();
    let q = find_marker(&s, j2k_core::codestream::QCD);
    s[q + 4] = 0; // Sqcd: guard 0, style 0
    assert!(parse(&s).is_err());
}

/// Set the length field of the first `marker` segment to `len`.
fn with_segment_len(marker: u16, len: u16) -> Vec<u8> {
    let mut s = valid_stream();
    let m = find_marker(&s, marker);
    s[m + 2..m + 4].copy_from_slice(&len.to_be_bytes());
    s
}

#[test]
fn rejects_qcd_length_below_its_fixed_fields() {
    // Lqcd counts itself and Sqcd: 0, 1 and 2 would underflow the
    // exponent count.
    for len in 0..3 {
        let s = with_segment_len(j2k_core::codestream::QCD, len);
        assert!(parse(&s).is_err(), "Lqcd {len}");
        assert!(
            j2k_core::codestream::parse_prefix(&s).is_err(),
            "Lqcd {len}"
        );
    }
}

#[test]
fn rejects_com_length_below_its_fixed_fields() {
    // Lcom counts itself and Rcom: 0 to 3 would underflow the tag length.
    for len in 0..4 {
        let s = with_segment_len(j2k_core::codestream::COM, len);
        assert!(parse(&s).is_err(), "Lcom {len}");
        assert!(
            j2k_core::codestream::parse_prefix(&s).is_err(),
            "Lcom {len}"
        );
    }
}
