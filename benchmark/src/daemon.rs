//! The served path: an in-process `j2k_serve` daemon on loopback, a wire
//! client, and the closed- and open-loop request generators.

use crate::inputs::{daemon_op, mix, Case};
use j2k_serve::wire::{self, DecodeRequest, EncodeRequest, Request, Response, WireError};
use j2k_serve::{serve, EncodeService, ServerConfig, ServiceConfig};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// `j2k_serve::serve` with default service and server settings, accepting
/// on an ephemeral loopback port.
pub struct Daemon {
    addr: SocketAddr,
    pub service: Arc<EncodeService>,
    server: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    pub fn start() -> io::Result<Daemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let service = Arc::new(EncodeService::start(ServiceConfig::default()));
        let for_server = Arc::clone(&service);
        let server = thread::spawn(move || serve(listener, for_server, ServerConfig::default()));
        Ok(Daemon {
            addr,
            service,
            server: Some(server),
        })
    }

    pub fn connect(&self) -> io::Result<Client> {
        let stream = TcpStream::connect(self.addr)?;
        // Frames go out as header + payload writes; without this the
        // payload waits on the peer's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Ask the server to drain and exit, then wait for it.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let shutdown = wire::encode_request(&Request::Shutdown);
        match self.connect()?.call(&shutdown) {
            // Only a server that acknowledged the shutdown will leave its
            // accept loop; joining any other would block forever.
            Ok(Response::Pong) => server
                .join()
                .map_err(|_| io::Error::other("server thread panicked"))?,
            other => Err(io::Error::other(format!("shutdown refused: {other:?}"))),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("daemon shutdown: {e}");
        }
    }
}

/// A reply payload that finished arriving this long after its frame
/// header was held back: on loopback even a decode reply of several
/// hundred KiB arrives in well under a millisecond, while a payload that
/// waits for the client's delayed ACK waits about 40 ms.
pub const STALL: Duration = Duration::from_millis(10);

/// One wire connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Send one serialized request and read its reply.
    pub fn call(&mut self, payload: &[u8]) -> Result<Response, WireError> {
        self.call_timed(payload).0
    }

    /// [`Client::call`], also returning how long the reply's payload
    /// finished arriving after its frame header.
    pub fn call_timed(&mut self, payload: &[u8]) -> (Result<Response, WireError>, Duration) {
        if let Err(e) = wire::write_frame(&mut self.stream, payload) {
            return (Err(e.into()), Duration::ZERO);
        }
        let mut clock = HeaderClock {
            stream: &mut self.stream,
            read: 0,
            header_at: None,
        };
        let reply = wire::read_frame(&mut clock, wire::DEFAULT_MAX_FRAME);
        let gap = clock.header_at.map_or(Duration::ZERO, |t| t.elapsed());
        (reply.and_then(|r| wire::parse_response(&r)), gap)
    }
}

/// Reads through to a stream and notes when a frame header's last byte
/// arrived.
struct HeaderClock<'a> {
    stream: &'a mut TcpStream,
    read: usize,
    header_at: Option<Instant>,
}

impl Read for HeaderClock<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.read += n;
        if self.header_at.is_none() && self.read >= wire::HEADER_LEN {
            self.header_at = Some(Instant::now());
        }
        Ok(n)
    }
}

/// The wire request that encodes `case` (lowest priority, no deadline).
pub fn encode_request(case: &Case) -> Request {
    Request::Encode(EncodeRequest {
        priority: 0,
        allow_degraded: false,
        timeout_ms: 0,
        params: case.params,
        image: case.image.clone(),
    })
}

/// The wire request that decodes `case`'s reference codestream in full.
pub fn decode_request(case: &Case) -> Request {
    Request::Decode(DecodeRequest {
        max_layers: 0,
        discard_levels: 0,
        codestream: case.codestream.clone(),
    })
}

/// Whether `reply` is the right answer to an encode (`encode`) or decode
/// request for `case`: the sequential encoder's exact bytes, or the
/// reference decode.
pub fn reply_ok(case: &Case, encode: bool, reply: &Result<Response, WireError>) -> bool {
    match reply {
        Ok(Response::EncodeOk {
            codestream,
            degraded: false,
        }) if encode => *codestream == case.codestream,
        Ok(Response::DecodeOk(image)) if !encode => *image == case.decoded,
        _ => false,
    }
}

/// How one request ended: when its reply was in (before it was checked,
/// so checking is not timed), whether it was right, and how long its
/// payload trailed its frame header.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub at: Instant,
    pub ok: bool,
    pub gap: Duration,
}

/// Send request `k` of the daemon's mix on `client`.
pub fn send(client: &mut Client, cases: &[Case], frames: &[Frames], k: usize) -> Done {
    let op = daemon_op(k);
    let frame = &frames[op.case];
    let (reply, gap) = client.call_timed(if op.encode {
        &frame.encode
    } else {
        &frame.decode
    });
    let at = Instant::now();
    Done {
        at,
        ok: reply_ok(&cases[op.case], op.encode, &reply),
        gap,
    }
}

/// A case's encode and decode requests, serialized once at set-up.
pub struct Frames {
    pub encode: Vec<u8>,
    pub decode: Vec<u8>,
}

impl Frames {
    pub fn new(case: &Case) -> Frames {
        Frames {
            encode: wire::encode_request(&encode_request(case)),
            decode: wire::encode_request(&decode_request(case)),
        }
    }
}

/// One generated request: its index, its latency (from when it was due in
/// an open loop, from when it was sent in a closed loop), how late the
/// generator sent it, whether its reply was correct, and how long the
/// reply's payload trailed its header.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub k: usize,
    pub latency: Duration,
    pub late: Duration,
    pub ok: bool,
    pub gap: Duration,
}

impl Sample {
    fn new(k: usize, from: Instant, late: Duration, done: Done) -> Sample {
        Sample {
            k,
            latency: done.at.saturating_duration_since(from),
            late,
            ok: done.ok,
            gap: done.gap,
        }
    }

    /// Whether the reply's payload was held back (see [`STALL`]).
    pub fn stalled(&self) -> bool {
        self.gap >= STALL
    }
}

/// Closed loop: each client sends request `k`, taken from a shared
/// counter, as soon as its previous reply is in, until `until` has passed
/// and at least `min_ops` requests were sent, or `give_up` has passed.
/// Returns the samples in request order and the loop's wall time.
pub fn closed_loop<C: Send>(
    clients: &mut [C],
    until: Duration,
    give_up: Duration,
    min_ops: usize,
    op: impl Fn(&mut C, usize) -> Done + Sync,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let elapsed = start.elapsed();
                        if elapsed >= give_up
                            || (elapsed >= until && next.load(Ordering::Relaxed) >= min_ops)
                        {
                            return out;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        out.push(Sample::new(k, sent, Duration::ZERO, op(client, k)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.k);
    (samples, start.elapsed())
}

/// Open loop: request `k` is due `due[k]` after the start and goes out on
/// the first free client at or after that time. Its latency runs from the
/// due time, so a stall also charges every request that fell due during
/// it (no coordinated omission).
pub fn open_loop<C: Send>(
    clients: &mut [C],
    due: &[Duration],
    op: impl Fn(&mut C, usize) -> Done + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample> = thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = due.get(k) else {
                            return out;
                        };
                        let at = start + offset;
                        if let Some(wait) = at.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let late = Instant::now().saturating_duration_since(at);
                        out.push(Sample::new(k, at, late, op(client, k)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop client panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.k);
    samples
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `secs` seconds, fixed by `seed`.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<Duration> {
    let mut t = 0.0;
    let mut due = Vec::new();
    for i in 0.. {
        // Uniform in (0, 1] from the top 53 bits.
        let u = ((mix(seed, i) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= secs {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{drawn, lossless_mq, lossy_ht, Workload};
    use crate::metrics::Report;
    use std::io::Write;

    fn answered_now() -> Done {
        Done {
            at: Instant::now(),
            ok: true,
            gap: Duration::ZERO,
        }
    }

    #[test]
    fn schedule_is_fixed_by_the_seed() {
        let a = schedule(5, 30.0, 40.0);
        assert_eq!(a, schedule(5, 30.0, 40.0));
        assert_ne!(a, schedule(6, 30.0, 40.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 1200 arrivals expected; Poisson spread is about ±35.
        assert!((1050..1350).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < Duration::from_secs(40));
    }

    #[test]
    fn requests_due_during_a_stall_accrue_it() {
        // One client; request 0 stalls for 200 ms; one request is due
        // every 10 ms. Requests 1..=19 fall due during the stall and must
        // each be charged the rest of it, though the stub answers them at
        // once; request 25 is due after the backlog clears.
        let stall = Duration::from_millis(200);
        let due: Vec<Duration> = (0..30).map(|k| Duration::from_millis(10 * k)).collect();
        let samples = open_loop(&mut [()], &due, |_, k| {
            if k == 0 {
                thread::sleep(stall);
            }
            answered_now()
        });
        assert_eq!(samples.len(), 30);
        for s in &samples[1..20] {
            let owed = stall - due[s.k];
            assert!(
                s.latency >= owed,
                "request {} latency {:?} < {:?}",
                s.k,
                s.latency,
                owed
            );
            assert!(
                s.late >= owed,
                "request {} late {:?} < {:?}",
                s.k,
                s.late,
                owed
            );
        }
        assert!(samples[25].latency < Duration::from_millis(10));
    }

    #[test]
    fn closed_loop_shares_one_request_counter() {
        let (samples, wall) = closed_loop(
            &mut [(), ()],
            Duration::ZERO,
            Duration::from_secs(60),
            50,
            |_, _| answered_now(),
        );
        let ks: Vec<usize> = samples.iter().map(|s| s.k).collect();
        assert!(ks.len() >= 50);
        assert_eq!(ks, (0..ks.len()).collect::<Vec<_>>());
        assert!(wall >= samples[0].latency);
    }

    #[test]
    fn a_payload_sent_after_its_header_is_timed_as_a_stall() {
        // A stub server answers two pings: first header and payload in one
        // write, then the header alone, a 60 ms pause, and the payload.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, &wire::encode_response(&Response::Pong)).unwrap();
            for pause in [None, Some(Duration::from_millis(60))] {
                wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).unwrap();
                match pause {
                    None => stream.write_all(&frame).unwrap(),
                    Some(pause) => {
                        stream.write_all(&frame[..wire::HEADER_LEN]).unwrap();
                        thread::sleep(pause);
                        stream.write_all(&frame[wire::HEADER_LEN..]).unwrap();
                    }
                }
            }
        });
        let mut client = Client {
            stream: TcpStream::connect(addr).unwrap(),
        };
        let ping = wire::encode_request(&Request::Ping);
        let (reply, gap) = client.call_timed(&ping);
        assert!(matches!(reply, Ok(Response::Pong)));
        assert!(gap < STALL, "{gap:?}");
        let (reply, gap) = client.call_timed(&ping);
        assert!(matches!(reply, Ok(Response::Pong)));
        assert!(gap >= Duration::from_millis(60), "{gap:?}");
        server.join().unwrap();
    }

    #[test]
    fn daemon_replies_match_the_local_reference() {
        let mut report = Report::new(Workload::DaemonMixed, 0, false);
        let image = imgio::synth::natural_rgb(40, 32, 9);
        let cases = drawn(
            |_| image.clone(),
            &[lossless_mq(), lossy_ht(0.2)],
            1,
            &mut report,
        );
        assert_eq!((report.attempted, report.failed), (4, 0));
        let daemon = Daemon::start().unwrap();
        let mut client = daemon.connect().unwrap();
        for case in &cases {
            let enc = client.call(&wire::encode_request(&encode_request(case)));
            assert!(reply_ok(case, true, &enc), "{enc:?}");
            let dec = client.call(&wire::encode_request(&decode_request(case)));
            assert!(reply_ok(case, false, &dec));
            assert!(
                !reply_ok(case, true, &dec),
                "a decode reply is no encode reply"
            );
        }
        drop(client);
        daemon.stop().unwrap();
    }
}
