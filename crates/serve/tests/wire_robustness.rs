//! Wire-protocol robustness, mirroring the decoder's codestream-mutation
//! suite (`crates/core/tests/codestream_robustness.rs`): truncated
//! headers, oversized length claims, mid-frame disconnects, and random
//! payload mutations must produce typed errors — never panics, never
//! allocation beyond the admitted frame.

use j2k_serve::wire::{
    call, encode_request, parse_request, read_frame, write_frame, EncodeRequest, Request,
    WireError, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use rand::{Rng, SeedableRng};

fn valid_frame() -> Vec<u8> {
    let req = Request::Encode(EncodeRequest {
        priority: 1,
        allow_degraded: false,
        timeout_ms: 250,
        params: j2k_core::EncoderParams::lossless(),
        image: imgio::synth::natural_rgb(12, 10, 5),
    });
    let mut buf = Vec::new();
    write_frame(&mut buf, &encode_request(&req)).unwrap();
    buf
}

#[test]
fn truncated_header_every_prefix() {
    let frame = valid_frame();
    for cut in 0..HEADER_LEN {
        let r = read_frame(&mut &frame[..cut], DEFAULT_MAX_FRAME);
        assert!(
            matches!(r, Err(WireError::Truncated)),
            "header prefix {cut}: {r:?}"
        );
    }
}

#[test]
fn mid_frame_disconnect_every_payload_prefix() {
    let frame = valid_frame();
    // Every cut strictly inside the payload: the reader sees a complete
    // header whose length promises more bytes than the peer ever sends.
    for cut in HEADER_LEN..frame.len() {
        let r = read_frame(&mut &frame[..cut], DEFAULT_MAX_FRAME);
        assert!(
            matches!(r, Err(WireError::Truncated)),
            "payload cut {cut}: {r:?}"
        );
    }
}

#[test]
fn oversized_length_claim_errors_before_allocating() {
    // A header claiming u32::MAX payload bytes against a 1 MiB limit:
    // must refuse from the 8 header bytes alone (nothing else exists to
    // read, so completing proves no payload allocation was attempted).
    let mut hdr = Vec::new();
    hdr.extend_from_slice(&j2k_serve::wire::MAGIC.to_be_bytes());
    hdr.push(j2k_serve::wire::VERSION);
    hdr.push(0);
    hdr.extend_from_slice(&u32::MAX.to_be_bytes());
    match read_frame(&mut hdr.as_slice(), 1 << 20) {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, 1 << 20);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let mut frame = valid_frame();
    frame[0] ^= 0xFF;
    assert!(matches!(
        read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME),
        Err(WireError::BadMagic(_))
    ));
    // 3 is the previous version, whose health frame was one byte longer.
    for version in [99, 3] {
        let mut frame = valid_frame();
        frame[2] = version;
        assert!(matches!(
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }
}

#[test]
fn every_single_byte_truncation_of_payload_is_handled() {
    let payload = {
        let frame = valid_frame();
        frame[HEADER_LEN..].to_vec()
    };
    for cut in 0..payload.len() {
        // Must never panic; truncating a variable-length field errors,
        // and no prefix may parse as the full request.
        assert!(parse_request(&payload[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn random_payload_mutations_never_panic() {
    let base = {
        let frame = valid_frame();
        frame[HEADER_LEN..].to_vec()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EEDED);
    for _ in 0..2000 {
        let mut p = base.clone();
        for _ in 0..rng.gen_range(1..8usize) {
            let i = rng.gen_range(0..p.len());
            p[i] = (rng.gen_range(0..256u32)) as u8;
        }
        let _ = parse_request(&p); // Ok or Err, never a panic.
    }
}

#[test]
fn geometry_lies_are_rejected_not_allocated() {
    // Inflate the claimed width far beyond the carried samples: the
    // length cross-check must fire before any plane is built.
    let mut payload = {
        let frame = valid_frame();
        frame[HEADER_LEN..].to_vec()
    };
    // Width field lives right after
    // tag(1)+priority(1)+flags(1)+timeout(4)+params(15).
    let woff = 1 + 1 + 1 + 4 + 15;
    payload[woff..woff + 4].copy_from_slice(&0x00FF_FFFFu32.to_be_bytes());
    match parse_request(&payload) {
        Err(WireError::Malformed(m)) => assert!(m.contains("sample"), "{m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn mutated_decode_requests_never_panic_and_responses_stay_typed() {
    use j2k_serve::wire::{encode_response, parse_response, DecodeRequest, Response};
    // A Decode request whose codestream tail is a real encode, then
    // mutated: the wire layer must parse (the tail is opaque bytes) and
    // the decoder behind it must answer with an image or a typed error —
    // this is the serve-side mirror of the codec fuzz suite.
    let cs = j2k_core::encode(
        &imgio::synth::natural(24, 16, 8),
        &j2k_core::EncoderParams::lossless(),
    )
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDEC0DE);
    for _ in 0..300 {
        let mut stream = cs.clone();
        for _ in 0..rng.gen_range(1..6usize) {
            let i = rng.gen_range(0..stream.len());
            stream[i] = rng.gen_range(0..256u32) as u8;
        }
        let payload = encode_request(&Request::Decode(DecodeRequest {
            max_layers: rng.gen_range(0..4u32),
            discard_levels: rng.gen_range(0..3u32) as u8,
            codestream: stream,
        }));
        let Ok(Request::Decode(d)) = parse_request(&payload) else {
            panic!("decode request with opaque tail must reparse");
        };
        // Server-side handling: decode, then serialize whichever response
        // results. Ok or Err — never a panic, and the response reparses.
        let resp = match j2k_core::decode_opts(
            &d.codestream,
            if d.max_layers == 0 {
                usize::MAX
            } else {
                d.max_layers as usize
            },
            usize::from(d.discard_levels),
        ) {
            Ok(im) => Response::DecodeOk(im),
            Err(e) => Response::Failed(e.to_string()),
        };
        assert_eq!(parse_response(&encode_response(&resp)).unwrap(), resp);
    }
}

#[test]
fn random_garbage_frames_never_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for _ in 0..500 {
        let n = rng.gen_range(0..64usize);
        let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let _ = read_frame(&mut junk.as_slice(), DEFAULT_MAX_FRAME);
        let _ = parse_request(&junk);
    }
}

#[test]
fn call_surfaces_disconnect_as_error() {
    // A "connection" that accepts the request then hangs up mid-reply.
    struct HalfDead {
        reply: std::io::Cursor<Vec<u8>>,
    }
    impl std::io::Read for HalfDead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reply.read(buf)
        }
    }
    impl std::io::Write for HalfDead {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Reply stream: a valid header promising 100 bytes, then 3 bytes.
    let mut reply = Vec::new();
    reply.extend_from_slice(&j2k_serve::wire::MAGIC.to_be_bytes());
    reply.push(j2k_serve::wire::VERSION);
    reply.push(0);
    reply.extend_from_slice(&100u32.to_be_bytes());
    reply.extend_from_slice(&[1, 2, 3]);
    let mut conn = HalfDead {
        reply: std::io::Cursor::new(reply),
    };
    assert!(matches!(
        call(&mut conn, &Request::Ping, DEFAULT_MAX_FRAME),
        Err(WireError::Truncated)
    ));
}
