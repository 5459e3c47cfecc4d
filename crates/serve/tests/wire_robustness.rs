//! Wire-protocol robustness, mirroring the decoder's codestream-mutation
//! suite (`crates/core/tests/codestream_robustness.rs`): truncated
//! headers, oversized length claims, mid-frame disconnects, and random
//! payload mutations must produce typed errors — never panics, never
//! allocation beyond the admitted frame. The last test sends mutated
//! requests to a live server, whose every reply must parse and whose
//! workers must never panic.

use j2k_core::{Coder, EncoderParams};
use j2k_serve::wire::{
    call, encode_request, parse_request, parse_response, read_frame, write_frame, DecodeRequest,
    EncodeRequest, Request, Response, WireError, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use j2k_serve::{serve, EncodeService, ServerConfig, ServiceConfig};
use rand::{Rng, SeedableRng};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

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
    // 4 answered Metrics with a JSON snapshot; 3's health frame was one
    // byte longer.
    for version in [99, 4, 3] {
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

/// A live server answers every mutated request with a reply frame that
/// parses, and none of them panics a pool worker: a panic the wire can
/// reach is a bug, not a recovery path. Seeded from `CHAOS_SEED`
/// (printed) so a failure replays.
#[test]
fn a_live_server_answers_every_mutated_request_and_no_worker_panics() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20080906u64);
    println!("CHAOS_SEED={seed}");
    let service = Arc::new(EncodeService::start(ServiceConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A 1 MiB frame also refuses any mutated codestream header that
    // claims more than 1 MiB of samples, which keeps every decode small.
    let server_cfg = ServerConfig {
        max_frame: 1 << 20,
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || serve(listener, service, server_cfg).unwrap());

    // Valid payloads: an encode and a decode request for each of lossless
    // MQ, lossy MQ and 3-layer lossy HT.
    let im = imgio::synth::natural_rgb(16, 12, seed);
    let ht = EncoderParams {
        layers: 3,
        coder: Coder::Ht,
        ..EncoderParams::lossy(0.3)
    };
    let mut payloads = Vec::new();
    for params in [EncoderParams::lossless(), EncoderParams::lossy(0.3), ht] {
        payloads.push(encode_request(&Request::Encode(EncodeRequest {
            priority: 0,
            allow_degraded: false,
            timeout_ms: 0,
            params,
            image: im.clone(),
        })));
        payloads.push(encode_request(&Request::Decode(DecodeRequest {
            max_layers: 0,
            discard_levels: 0,
            codestream: j2k_core::encode(&im, &params).unwrap(),
        })));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut conn = TcpStream::connect(addr).unwrap();
    // A frame is two writes; without this each request waits out the
    // server's delayed ACK of the header.
    conn.set_nodelay(true).unwrap();
    let mut replies = std::collections::BTreeMap::new();
    let mut sent = 0;
    while sent < 200 {
        let mut p = payloads[rng.gen_range(0..payloads.len())].clone();
        for _ in 0..rng.gen_range(1..=3usize) {
            let i = rng.gen_range(0..p.len());
            p[i] = rng.gen_range(0..256u32) as u8;
        }
        if matches!(parse_request(&p), Ok(Request::Shutdown)) {
            continue;
        }
        write_frame(&mut conn, &p).unwrap();
        let reply = read_frame(&mut conn, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("request {sent}: no reply frame: {e}"));
        let kind = match parse_response(&reply) {
            Ok(Response::EncodeOk { .. }) => "encoded",
            Ok(Response::DecodeOk(_)) => "decoded",
            Ok(Response::Failed(_)) => "failed",
            Ok(_) => "other",
            Err(e) => panic!("request {sent}: reply does not parse: {e}"),
        };
        *replies.entry(kind).or_insert(0) += 1;
        sent += 1;
    }
    println!("replies: {replies:?}");
    // The mutations reach the codec, not only the parser.
    for kind in ["encoded", "decoded", "failed"] {
        assert!(replies.contains_key(kind), "no {kind} reply: {replies:?}");
    }

    match call(&mut conn, &Request::Health, DEFAULT_MAX_FRAME).unwrap() {
        Response::Health(h) => assert_eq!(h.worker_panics, 0, "a worker panicked"),
        other => panic!("health: unexpected {other:?}"),
    }
    assert_eq!(
        call(&mut conn, &Request::Ping, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}
