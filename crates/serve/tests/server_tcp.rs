//! End-to-end TCP coverage of the daemon loop: encode round trips with
//! byte-identity, metrics over the wire, rejection under pressure, a
//! decode bounded by the reply frame, and a server that survives
//! abusive connections.

use j2k_core::EncoderParams;
use j2k_serve::wire::{call, DecodeRequest, EncodeRequest, Request, Response, DEFAULT_MAX_FRAME};
use j2k_serve::{render_prometheus, serve, EncodeService, ServerConfig, ServiceConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn start_server(cfg: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    start_server_with(cfg, ServerConfig::default())
}

fn start_server_with(
    cfg: ServiceConfig,
    server_cfg: ServerConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    spawn_server(Arc::new(EncodeService::start(cfg)), server_cfg)
}

fn spawn_server(
    service: Arc<EncodeService>,
    server_cfg: ServerConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let t = std::thread::spawn(move || {
        serve(listener, service, server_cfg).unwrap();
    });
    (addr, t)
}

/// The exposition a wire `Metrics` request returns, checked to validate.
fn metrics_text(conn: &mut TcpStream) -> String {
    match call(conn, &Request::Metrics, DEFAULT_MAX_FRAME).unwrap() {
        Response::MetricsText(text) => {
            obs::prom::validate(&text).expect("the Metrics reply must validate");
            text
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// The value of the unlabelled sample `name` in exposition `text`.
fn sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"))
}

fn encode_req(seed: u64) -> Request {
    Request::Encode(EncodeRequest {
        priority: 0,
        allow_degraded: false,
        timeout_ms: 0,
        params: EncoderParams::lossless(),
        image: imgio::synth::natural(40, 40, seed),
    })
}

#[test]
fn tcp_encode_roundtrip_is_byte_identical_and_shutdown_works() {
    let (addr, server) = start_server(ServiceConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();

    // Ping.
    assert_eq!(
        call(&mut conn, &Request::Ping, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );

    // Encode twice over one connection; verify byte-identity + decode.
    for seed in [3u64, 4] {
        match call(&mut conn, &encode_req(seed), DEFAULT_MAX_FRAME).unwrap() {
            Response::EncodeOk {
                codestream: cs,
                degraded,
            } => {
                assert!(!degraded);
                let im = imgio::synth::natural(40, 40, seed);
                assert_eq!(
                    cs,
                    j2k_core::encode(&im, &EncoderParams::lossless()).unwrap()
                );
                assert_eq!(j2k_core::decode(&cs).unwrap(), im);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Metrics over the wire reflect the work: each completed job timed
    // its Tier-1 stage once.
    let text = metrics_text(&mut conn);
    assert!(text.contains("\nj2k_jobs_completed_total 2\n"), "{text}");
    assert_eq!(sample(&text, "j2k_stage_tier1_us_count"), 2);

    // Shutdown drains and the serve loop returns.
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

/// A reply frame is two writes, header then payload. Without TCP_NODELAY
/// on the server's socket the payload of a short reply waits for the
/// client's delayed ACK of the header, about 40 ms per round trip.
#[test]
fn ping_round_trips_do_not_wait_for_delayed_acks() {
    let (addr, server) = start_server(ServiceConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();
    // The client writes its frames in two parts as well; take it out of
    // the measurement so only the server's socket is under test.
    conn.set_nodelay(true).unwrap();
    let mut ms: Vec<f64> = (0..21)
        .map(|_| {
            let t = std::time::Instant::now();
            let reply = call(&mut conn, &Request::Ping, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(reply, Response::Pong);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    assert!(ms[10] < 10.0, "median Ping round trip {:.2} ms", ms[10]);
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

#[test]
fn tcp_decode_closes_the_loop() {
    let (addr, server) = start_server(ServiceConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();

    // Encode on the server, decode on the server, compare locally: the
    // service round-trips losslessly without the client ever touching
    // the codec.
    let im = imgio::synth::natural_rgb(48, 36, 9);
    let cs = match call(
        &mut conn,
        &Request::Encode(EncodeRequest {
            priority: 0,
            allow_degraded: false,
            timeout_ms: 0,
            params: EncoderParams::lossless(),
            image: im.clone(),
        }),
        DEFAULT_MAX_FRAME,
    )
    .unwrap()
    {
        Response::EncodeOk { codestream: cs, .. } => cs,
        other => panic!("unexpected response {other:?}"),
    };
    match call(
        &mut conn,
        &Request::Decode(DecodeRequest {
            max_layers: 0,
            discard_levels: 0,
            codestream: cs.clone(),
        }),
        DEFAULT_MAX_FRAME,
    )
    .unwrap()
    {
        Response::DecodeOk(back) => assert_eq!(back, im),
        other => panic!("unexpected response {other:?}"),
    }

    // A garbage codestream comes back as a typed failure, not a dead
    // connection.
    match call(
        &mut conn,
        &Request::Decode(DecodeRequest {
            max_layers: 0,
            discard_levels: 0,
            codestream: vec![0xDE, 0xAD, 0xBE, 0xEF],
        }),
        DEFAULT_MAX_FRAME,
    )
    .unwrap()
    {
        Response::Failed(m) => assert!(!m.is_empty()),
        other => panic!("unexpected response {other:?}"),
    }

    // Both outcomes are visible in the metrics.
    let text = metrics_text(&mut conn);
    assert!(text.contains("\nj2k_decoded_total 1\n"), "{text}");
    assert!(text.contains("\nj2k_decode_failed_total 1\n"), "{text}");

    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

/// A connection thread keeps the planes of its last decode for the next
/// one of that geometry: decodes of two sizes in turn on one connection,
/// lossless and lossy, each equal the same decode on the test thread.
#[test]
fn decodes_of_different_sizes_on_one_connection_are_exact() {
    let (addr, server) = start_server(ServiceConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();
    let large = imgio::synth::natural_rgb(96, 80, 4);
    let small = imgio::synth::natural_rgb(40, 24, 5);
    for params in [EncoderParams::lossless(), EncoderParams::lossy(0.3)] {
        for im in [&large, &small, &large] {
            let cs = j2k_core::encode(im, &params).unwrap();
            let want = j2k_core::decode(&cs).unwrap();
            if params.mode == j2k_core::Mode::Lossless {
                assert_eq!(want, *im);
            }
            let req = Request::Decode(DecodeRequest {
                max_layers: 0,
                discard_levels: 0,
                codestream: cs,
            });
            match call(&mut conn, &req, DEFAULT_MAX_FRAME).unwrap() {
                Response::DecodeOk(back) => {
                    assert!(back == want, "{}x{} {:?}", im.width, im.height, params.mode)
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

/// The wire `Metrics` reply is the document the metrics port serves: with
/// no job in flight, byte for byte what `render_prometheus` renders.
#[test]
fn wire_metrics_reply_is_the_exposition() {
    let svc = Arc::new(EncodeService::start(ServiceConfig::default()));
    let (addr, server) = spawn_server(Arc::clone(&svc), ServerConfig::default());
    let mut conn = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        call(&mut conn, &encode_req(7), DEFAULT_MAX_FRAME).unwrap(),
        Response::EncodeOk { .. }
    ));
    let text = metrics_text(&mut conn);
    assert_eq!(text, render_prometheus(&svc));
    assert_eq!(sample(&text, "j2k_jobs_completed_total"), 1);
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

/// A codestream of a few hundred bytes can declare an image far larger
/// than any reply frame. The server refuses it from the main header,
/// before any plane exists, and the connection keeps serving.
#[test]
fn decode_larger_than_a_reply_frame_is_refused() {
    let (addr, server) = start_server_with(
        ServiceConfig::default(),
        ServerConfig {
            max_frame: 64 << 10,
            ..ServerConfig::default()
        },
    );
    let mut conn = TcpStream::connect(addr).unwrap();
    let decode = |im: &imgio::Image| {
        Request::Decode(DecodeRequest {
            max_layers: 0,
            discard_levels: 0,
            codestream: j2k_core::encode(im, &EncoderParams::lossless()).unwrap(),
        })
    };
    // Flat 512x512 gray: tiny on the wire, 512 KiB of samples decoded.
    let flat = imgio::Image::new(512, 512, 1, 8).unwrap();
    match call(&mut conn, &decode(&flat), DEFAULT_MAX_FRAME).unwrap() {
        Response::Failed(m) => assert!(m.contains("65536-byte limit"), "{m}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    // The same connection decodes an image that fits: 8 KiB of samples.
    let small = imgio::synth::natural(64, 64, 2);
    match call(&mut conn, &decode(&small), DEFAULT_MAX_FRAME).unwrap() {
        Response::DecodeOk(back) => assert_eq!(back, small),
        other => panic!("expected DecodeOk, got {other:?}"),
    }
    let text = metrics_text(&mut conn);
    assert!(text.contains("\nj2k_decode_failed_total 1\n"), "{text}");
    assert!(text.contains("\nj2k_decoded_total 1\n"), "{text}");
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

#[test]
fn server_survives_garbage_and_mid_frame_disconnects() {
    let (addr, server) = start_server(ServiceConfig::default());

    // Garbage bytes: server drops the connection, stays alive.
    {
        use std::io::Write;
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"not a frame at all").unwrap();
    }
    // Mid-frame disconnect: header promises more than we send.
    {
        use std::io::Write;
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut partial = Vec::new();
        partial.extend_from_slice(&j2k_serve::wire::MAGIC.to_be_bytes());
        partial.push(j2k_serve::wire::VERSION);
        partial.push(0);
        partial.extend_from_slice(&1000u32.to_be_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        conn.write_all(&partial).unwrap();
    }

    // A healthy client still gets served.
    let mut conn = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        call(&mut conn, &encode_req(5), DEFAULT_MAX_FRAME).unwrap(),
        Response::EncodeOk { .. }
    ));
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

#[test]
fn slow_loris_connection_is_deadlined_and_server_stays_responsive() {
    use std::io::{Read, Write};
    // A short io deadline: the stalled peer must be cut loose quickly.
    let (addr, server) = start_server_with(
        ServiceConfig::default(),
        ServerConfig {
            io_timeout: Some(std::time::Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    );

    // The slow loris: send the 2 magic bytes of the 8-byte header, then
    // stall.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .write_all(&j2k_serve::wire::MAGIC.to_be_bytes())
        .unwrap();

    // A healthy client is served while the loris dangles.
    let mut conn = TcpStream::connect(addr).unwrap();
    assert!(matches!(
        call(&mut conn, &encode_req(6), DEFAULT_MAX_FRAME).unwrap(),
        Response::EncodeOk { .. }
    ));

    // The loris's read deadline fires: its connection gets closed (read
    // returns 0/err), never a reply frame.
    loris
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled peer unexpectedly got {n} bytes back"),
    }

    // The server still answers once the loris is gone. Ask on a fresh
    // connection: `conn` has sat idle past the same 100 ms deadline, so the
    // server may have closed it as well.
    let mut conn = TcpStream::connect(addr).unwrap();
    assert_eq!(
        call(&mut conn, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}

#[test]
fn connection_cap_refuses_excess_conns_with_overloaded() {
    use j2k_serve::wire::RejectReason;
    let (addr, server) = start_server_with(
        ServiceConfig::default(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );

    // First connection occupies the only slot...
    let mut held = TcpStream::connect(addr).unwrap();
    assert_eq!(
        call(&mut held, &Request::Ping, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    // ...so the next one is refused with a typed reply carrying a retry
    // hint, not a silent close or a hang. The accept loop only counts a
    // connection after a successful handshake of the previous one, so
    // poll until the reject (the spawn that frees/occupies the slot is
    // asynchronous only on *close*, which never happens here).
    let mut reader = std::io::BufReader::new(TcpStream::connect(addr).unwrap());
    let payload = j2k_serve::wire::read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    match j2k_serve::wire::parse_response(&payload).unwrap() {
        Response::Rejected(RejectReason::Overloaded { retry_after_ms: _ }) => {}
        other => panic!("expected Overloaded reject, got {other:?}"),
    }

    // The held connection still works, and can shut the server down.
    assert_eq!(
        call(&mut held, &Request::Shutdown, DEFAULT_MAX_FRAME).unwrap(),
        Response::Pong
    );
    server.join().unwrap();
}
