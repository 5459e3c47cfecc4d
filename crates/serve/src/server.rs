//! TCP front end for an [`EncodeService`]: one thread per connection,
//! one frame per request, one frame per reply.
//!
//! The server never buffers more than one in-flight request per
//! connection, and the service's bounded queue provides the global
//! backpressure — a flood of connections turns into
//! [`Response::Rejected`] replies, not memory growth. Framing errors
//! (bad magic, oversized length, mid-frame disconnect) close the
//! connection; payload-local errors get a [`Response::Failed`] reply and
//! the connection lives on. So does a `Decode` whose full-resolution
//! image would not fit in one reply frame: it is refused from the
//! codestream's main header, before the decoder allocates anything.
//!
//! Connection hardening (DESIGN.md §16): every accepted socket gets
//! read/write deadlines ([`ServerConfig::io_timeout`]) so a slow-loris
//! peer — one that opens a connection and trickles or stalls a frame —
//! times out instead of pinning its handler thread forever; the number
//! of concurrent handlers is capped ([`ServerConfig::max_connections`]);
//! and at **Critical** pressure the accept loop sheds new connections
//! with an `Overloaded { retry_after_ms }` reply instead of spawning
//! handlers. The `wire.stall` failpoint injects the stalled-peer path
//! deterministically in chaos tests.

use crate::service::{EncodeJob, EncodeService, JobOutcome, SubmitError};
use crate::wire::{
    encode_response, parse_request, read_frame, write_frame, RejectReason, Request, Response,
    WireError,
};
use crate::{render_prometheus, PressureLevel};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-frame payload ceiling (see [`crate::wire::read_frame`]). It
    /// also bounds a decode: a codestream whose image is larger than this
    /// as 16-bit samples is refused before it is decoded.
    pub max_frame: usize,
    /// Per-connection read *and* write deadline. A peer that stalls a
    /// frame longer than this gets its connection closed. `None`
    /// disables deadlines (tests that deliberately hold connections).
    pub io_timeout: Option<Duration>,
    /// Concurrent-connection cap; connections beyond it are refused
    /// with an `Overloaded` reply. 0 means unlimited.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
            io_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
        }
    }
}

/// Accept connections until a [`Request::Shutdown`] arrives, then drain
/// the service and return. Blocks the calling thread; each connection's
/// handler runs on its own thread, named `j2k-conn`.
pub fn serve(
    listener: TcpListener,
    service: Arc<EncodeService>,
    cfg: ServerConfig,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(AtomicUsize::new(0));
    let local = listener.local_addr()?;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Deadlines first: even the reject reply below is written under
        // a deadline, so a stalled peer cannot pin the accept loop.
        let _ = stream.set_read_timeout(cfg.io_timeout);
        let _ = stream.set_write_timeout(cfg.io_timeout);
        // A reply frame is a header write then a payload write; with Nagle
        // on, the payload of a short reply waits for the client's delayed
        // ACK of the header (~40 ms per round trip).
        let _ = stream.set_nodelay(true);
        if service.pressure_level() == PressureLevel::Critical {
            service.conn_rejected();
            let _ = write_frame(
                &mut stream,
                &encode_response(&Response::Rejected(RejectReason::Overloaded {
                    retry_after_ms: service.retry_after_ms().min(u64::from(u32::MAX)) as u32,
                })),
            );
            continue;
        }
        if cfg.max_connections > 0 && conns.load(Ordering::SeqCst) >= cfg.max_connections {
            service.conn_rejected();
            let _ = write_frame(
                &mut stream,
                &encode_response(&Response::Rejected(RejectReason::Overloaded {
                    retry_after_ms: service.retry_after_ms().min(u64::from(u32::MAX)) as u32,
                })),
            );
            continue;
        }
        conns.fetch_add(1, Ordering::SeqCst);
        service.conn_opened();
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("j2k-conn".into())
            .spawn(move || {
                let exit = handle_conn(stream, &service, cfg, ConnSlot(&conns, &service));
                if exit == ConnExit::Shutdown {
                    stop.store(true, Ordering::SeqCst);
                    service.begin_shutdown();
                    // Self-connect to pop the accept loop out of `incoming()`.
                    let _ = TcpStream::connect(local);
                }
            })
            .expect("failed to spawn a connection handler");
    }
    service.shutdown();
    Ok(())
}

/// An occupied connection slot (the count and the service's gauge),
/// freed on drop: a handler that unwinds gives its slot back too, so a
/// frame that panics a handler cannot lock later clients out.
struct ConnSlot<'a>(&'a AtomicUsize, &'a EncodeService);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        self.1.conn_closed();
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ConnExit {
    Closed,
    Shutdown,
}

fn respond(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &encode_response(resp)).is_ok()
}

fn handle_conn(
    stream: TcpStream,
    service: &EncodeService,
    cfg: ServerConfig,
    slot: ConnSlot<'_>,
) -> ConnExit {
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return ConnExit::Closed,
    };
    let mut reader = BufReader::new(stream);
    // Bound after the socket halves, so it drops before them on every
    // exit, unwinding included: the slot is free by the time the peer
    // sees its connection close.
    let _slot = slot;
    loop {
        // Failpoint `wire.stall`: models a peer that stalls mid-exchange.
        // A Delay holds the handler here (past the io deadline in the
        // storm test) then proceeds; an Error stands in for the deadline
        // expiring — the connection closes, the thread is reclaimed.
        if faultsim::eval("wire.stall").is_some() {
            return ConnExit::Closed;
        }
        let payload = match read_frame(&mut reader, cfg.max_frame) {
            Ok(p) => p,
            // Clean disconnect, mid-frame disconnect, garbage, an
            // oversized claim, or a blown io deadline: the stream is
            // unsynchronized — drop it.
            Err(_) => return ConnExit::Closed,
        };
        let req = match parse_request(&payload) {
            Ok(r) => r,
            Err(e @ WireError::Malformed(_)) => {
                if !respond(&mut writer, &Response::Failed(e.to_string())) {
                    return ConnExit::Closed;
                }
                continue;
            }
            Err(_) => return ConnExit::Closed,
        };
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::MetricsText(render_prometheus(service)),
            Request::Health => Response::Health(service.health()),
            Request::Trace(job_id) => match service.trace_json(job_id) {
                Some(j) => Response::TraceJson(j),
                None => Response::Failed(format!(
                    "no retained trace for job {job_id} (is the daemon tracing?)"
                )),
            },
            Request::Shutdown => {
                let _ = respond(&mut writer, &Response::Pong);
                return ConnExit::Shutdown;
            }
            Request::Decode(d) => {
                let max_layers = if d.max_layers == 0 {
                    usize::MAX
                } else {
                    d.max_layers as usize
                };
                match service.decode(
                    &d.codestream,
                    max_layers,
                    usize::from(d.discard_levels),
                    cfg.max_frame,
                ) {
                    Ok(image) => Response::DecodeOk(image),
                    Err(e) => Response::Failed(e.to_string()),
                }
            }
            Request::Encode(e) => {
                let job = EncodeJob {
                    image: e.image,
                    params: e.params,
                    priority: e.priority,
                    timeout: (e.timeout_ms > 0)
                        .then(|| Duration::from_millis(u64::from(e.timeout_ms))),
                    allow_degraded: e.allow_degraded,
                };
                match service.submit(job) {
                    Ok(handle) => match handle.wait() {
                        JobOutcome::Completed {
                            codestream,
                            degraded,
                        } => Response::EncodeOk {
                            codestream,
                            degraded,
                        },
                        JobOutcome::TimedOut => Response::TimedOut,
                        JobOutcome::Cancelled => Response::Cancelled,
                        JobOutcome::Failed(m) => Response::Failed(m),
                        JobOutcome::Poisoned { message } => Response::Poisoned(message),
                    },
                    Err(SubmitError::Overloaded { retry_after_ms, .. }) => {
                        Response::Rejected(RejectReason::Overloaded {
                            retry_after_ms: retry_after_ms.min(u64::from(u32::MAX)) as u32,
                        })
                    }
                    Err(SubmitError::ShuttingDown) => {
                        Response::Rejected(RejectReason::ShuttingDown)
                    }
                }
            }
        };
        if !respond(&mut writer, &resp) {
            return ConnExit::Closed;
        }
    }
}
