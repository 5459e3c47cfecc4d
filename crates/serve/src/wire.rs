//! Length-prefixed binary wire protocol for the encode service
//! (std::net only; no external serialization crates).
//!
//! Every message travels in one **frame**:
//!
//! ```text
//! +--------+---------+----------+-----------+----------------+
//! | magic  | version | reserved | length    | payload        |
//! | u16 BE | u8 (=4) | u8 (=0)  | u32 BE    | `length` bytes |
//! +--------+---------+----------+-----------+----------------+
//! ```
//!
//! The length field is validated against a caller-supplied ceiling
//! *before* any allocation, so an adversarial 4 GiB length claim costs
//! nothing ([`WireError::Oversized`]). Truncated headers, truncated
//! payloads, and mid-frame disconnects all surface as typed errors —
//! never panics, never unbounded buffering (asserted by the
//! `wire_robustness` fuzz tests, which mirror the decoder's
//! codestream-mutation suite).
//!
//! Payloads: a tag byte, then tag-specific fields, all big-endian,
//! decoded by total functions over `&[u8]`. An encode request carries
//! the full [`EncoderParams`] and the raw image planes; sample counts
//! are cross-checked against the actual payload size before the pixel
//! buffer is built.

use crate::service::HealthSnapshot;
use imgio::Image;
use j2k_core::{Arithmetic, Coder, EncoderParams, Mode, VerticalVariant};
use std::io::{Read, Write};

/// Frame magic: "J2".
pub const MAGIC: u16 = 0x4A32;
/// Protocol version. v2 added the encode-request flags byte
/// (`allow_degraded`), the `degraded` marker on `EncodeOk`, the
/// `retry_after_ms` hint on `Overloaded`, and the health pressure byte.
/// v3 appended a health byte for the SLO burn-rate verdict; v4 dropped it
/// with the in-process monitor.
pub const VERSION: u8 = 4;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Default ceiling on payload size: fits a 3072x3072 RGB u16 image
/// (the paper's full workload) with ample headroom.
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;

const TAG_ENCODE: u8 = 0x01;
const TAG_METRICS: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_HEALTH: u8 = 0x05;
const TAG_TRACE: u8 = 0x06;
const TAG_DECODE: u8 = 0x07;
const TAG_ENCODE_OK: u8 = 0x81;
const TAG_REJECTED: u8 = 0x82;
const TAG_TIMED_OUT: u8 = 0x83;
const TAG_CANCELLED: u8 = 0x84;
const TAG_FAILED: u8 = 0x85;
const TAG_METRICS_JSON: u8 = 0x86;
const TAG_PONG: u8 = 0x87;
const TAG_HEALTH_OK: u8 = 0x88;
const TAG_POISONED: u8 = 0x89;
const TAG_TRACE_JSON: u8 = 0x8A;
const TAG_DECODE_OK: u8 = 0x8B;

/// Wire-level failures. Framing errors ([`Truncated`](Self::Truncated),
/// [`BadMagic`](Self::BadMagic), [`Oversized`](Self::Oversized),
/// [`Io`](Self::Io)) desynchronize the stream and should close the
/// connection; [`Malformed`](Self::Malformed) is payload-local.
#[derive(Debug)]
pub enum WireError {
    /// Stream ended inside a header or payload (includes mid-frame
    /// disconnects).
    Truncated,
    /// First two header bytes were not [`MAGIC`].
    BadMagic(u16),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Length field exceeds the configured ceiling; nothing was
    /// allocated.
    Oversized {
        /// Claimed payload length.
        len: u64,
        /// The ceiling it exceeded.
        max: usize,
    },
    /// Payload decoded to an inconsistent or unknown message.
    Malformed(String),
    /// Underlying transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds limit {max}")
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Encode one image.
    Encode(EncodeRequest),
    /// Fetch a [`MetricsSnapshot`](crate::service::MetricsSnapshot) as
    /// JSON.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Readiness probe: fetch a
    /// [`crate::service::HealthSnapshot`] (live workers,
    /// quarantine count, retry totals, queue depth).
    Health,
    /// Fetch a finished job's Chrome trace JSON by job id (0 = the most
    /// recently finished traced job). Requires the daemon to run with
    /// tracing enabled; answered with [`Response::TraceJson`] or, when no
    /// such trace is retained, [`Response::Failed`].
    Trace(u64),
    /// Decode a codestream back to an image (the closed-loop half of
    /// [`Request::Encode`]). Answered with [`Response::DecodeOk`] or,
    /// on a codestream the decoder rejects, [`Response::Failed`].
    Decode(DecodeRequest),
}

/// Body of [`Request::Encode`].
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeRequest {
    /// Scheduling priority (higher first).
    pub priority: u8,
    /// Opt in to overload degradation: under pressure the server may
    /// encode with the cheaper HT coder instead of shedding the job,
    /// marking the response `degraded` (DESIGN.md §16).
    pub allow_degraded: bool,
    /// Deadline in milliseconds from receipt; 0 = server default.
    pub timeout_ms: u32,
    /// Encoder parameters.
    pub params: EncoderParams,
    /// The image to encode.
    pub image: Image,
}

/// Body of [`Request::Decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeRequest {
    /// Decode only the first N quality layers; 0 = all layers.
    pub max_layers: u32,
    /// Discard this many finest resolution levels (0 = full resolution).
    pub discard_levels: u8,
    /// The codestream to decode.
    pub codestream: Vec<u8>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The encoded codestream.
    EncodeOk {
        /// The JPEG2000 codestream.
        codestream: Vec<u8>,
        /// True when the server downgraded this `allow_degraded` job to
        /// the HT coder under pressure; byte-identity is then against
        /// the degraded params.
        degraded: bool,
    },
    /// Admission control refused the job.
    Rejected(RejectReason),
    /// The job's deadline passed before the encode finished.
    TimedOut,
    /// The job was cancelled server-side.
    Cancelled,
    /// Encoder or request failure, with a message.
    Failed(String),
    /// Metrics snapshot, JSON-encoded.
    MetricsJson(String),
    /// Reply to [`Request::Ping`] and [`Request::Shutdown`].
    Pong,
    /// Reply to [`Request::Health`]: binary snapshot of pool strength
    /// and fault counters.
    Health(HealthSnapshot),
    /// The job crashed its worker past the retry budget and was
    /// quarantined (see [`crate::service::JobOutcome::Poisoned`]).
    Poisoned(String),
    /// Reply to [`Request::Trace`]: one job's Chrome trace-event JSON.
    TraceJson(String),
    /// Reply to [`Request::Decode`]: the reconstructed image.
    DecodeOk(Image),
}

/// Why a job was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Queue at capacity or the pressure policy shed the job.
    Overloaded {
        /// Client backoff hint: do not retry sooner than this.
        retry_after_ms: u32,
    },
    /// Service is shutting down.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame (header + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut hdr = [0u8; HEADER_LEN];
    hdr[0..2].copy_from_slice(&MAGIC.to_be_bytes());
    hdr[2] = VERSION;
    hdr[3] = 0;
    hdr[4..8].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload, enforcing `max_payload` *before* allocating.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Vec<u8>, WireError> {
    // Failpoint `wire.read`: an injected error models the transport
    // dying mid-frame (the caller must treat it like any I/O failure —
    // close the connection, leak nothing); a delay models a slow peer.
    if let Some(msg) = faultsim::eval("wire.read") {
        return Err(WireError::Io(std::io::Error::other(msg)));
    }
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    let magic = u16::from_be_bytes([hdr[0], hdr[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if hdr[2] != VERSION {
        return Err(WireError::BadVersion(hdr[2]));
    }
    let len = u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
    if len > max_payload {
        return Err(WireError::Oversized {
            len: len as u64,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Cursor over a payload with typed, bounds-checked readers.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(WireError::Malformed("field overruns payload".into()))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes(s.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        let s = self.take(8)?;
        Ok(f64::from_be_bytes(s.try_into().unwrap()))
    }
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

fn put_params(out: &mut Vec<u8>, p: &EncoderParams) {
    let (mode, rate) = match p.mode {
        Mode::Lossless => (0u8, 0.0),
        Mode::Lossy { rate } => (1u8, rate),
    };
    out.push(mode);
    out.extend_from_slice(&rate.to_be_bytes());
    out.push(p.levels as u8);
    out.push(p.cb_size as u8);
    out.push(p.layers as u8);
    out.push(u8::from(p.bypass));
    out.push(match p.arithmetic {
        Arithmetic::Float32 => 0,
        Arithmetic::FixedQ13 => 1,
    });
    out.push(match p.variant {
        VerticalVariant::Separate => 0,
        VerticalVariant::Interleaved => 1,
        VerticalVariant::Merged => 2,
    });
    out.push(p.coder.id() as u8);
}

fn get_params(rd: &mut Rd) -> Result<EncoderParams, WireError> {
    let mode = rd.u8()?;
    let rate = rd.f64()?;
    let mode = match mode {
        0 => Mode::Lossless,
        1 => {
            if !rate.is_finite() {
                return Err(WireError::Malformed(format!("non-finite rate {rate}")));
            }
            Mode::Lossy { rate }
        }
        m => return Err(WireError::Malformed(format!("unknown mode {m}"))),
    };
    let levels = rd.u8()? as usize;
    let cb_size = rd.u8()? as usize;
    let layers = rd.u8()? as usize;
    let bypass = match rd.u8()? {
        0 => false,
        1 => true,
        b => return Err(WireError::Malformed(format!("bad bypass flag {b}"))),
    };
    let arithmetic = match rd.u8()? {
        0 => Arithmetic::Float32,
        1 => Arithmetic::FixedQ13,
        a => return Err(WireError::Malformed(format!("unknown arithmetic {a}"))),
    };
    let variant = match rd.u8()? {
        0 => VerticalVariant::Separate,
        1 => VerticalVariant::Interleaved,
        2 => VerticalVariant::Merged,
        v => return Err(WireError::Malformed(format!("unknown variant {v}"))),
    };
    let coder = match rd.u8()? {
        0 => Coder::Mq,
        1 => Coder::Ht,
        c => return Err(WireError::Malformed(format!("unknown coder {c}"))),
    };
    Ok(EncoderParams {
        mode,
        levels,
        cb_size,
        layers,
        bypass,
        arithmetic,
        variant,
        coder,
    })
}

fn put_image(out: &mut Vec<u8>, im: &Image) {
    out.extend_from_slice(&(im.width as u32).to_be_bytes());
    out.extend_from_slice(&(im.height as u32).to_be_bytes());
    out.push(im.comps() as u8);
    out.push(im.bit_depth);
    for plane in &im.planes {
        for &v in plane {
            out.extend_from_slice(&v.to_be_bytes());
        }
    }
}

fn get_image(rd: &mut Rd) -> Result<Image, WireError> {
    let width = rd.u32()? as usize;
    let height = rd.u32()? as usize;
    let comps = rd.u8()? as usize;
    let bit_depth = rd.u8()?;
    if width == 0 || height == 0 || comps == 0 {
        return Err(WireError::Malformed(format!(
            "degenerate geometry {width}x{height} x{comps}"
        )));
    }
    if bit_depth == 0 || bit_depth > 16 {
        return Err(WireError::Malformed(format!("bad bit depth {bit_depth}")));
    }
    // Cross-check the claimed geometry against what actually arrived
    // *before* building planes: sample count lies cannot inflate memory
    // beyond the (already bounded) payload.
    let samples = width
        .checked_mul(height)
        .and_then(|n| n.checked_mul(comps))
        .ok_or(WireError::Malformed("sample count overflow".into()))?;
    let expect = samples
        .checked_mul(2)
        .ok_or(WireError::Malformed("sample byte count overflow".into()))?;
    if rd.remaining() != expect {
        return Err(WireError::Malformed(format!(
            "geometry claims {expect} sample bytes, payload carries {}",
            rd.remaining()
        )));
    }
    let per_plane = width * height;
    let mut planes = Vec::with_capacity(comps);
    for _ in 0..comps {
        let raw = rd.take(per_plane * 2)?;
        planes.push(
            raw.chunks_exact(2)
                .map(|c| u16::from_be_bytes([c[0], c[1]]))
                .collect(),
        );
    }
    let im = Image {
        width,
        height,
        bit_depth,
        planes,
    };
    im.validate()
        .map_err(|e| WireError::Malformed(e.to_string()))?;
    Ok(im)
}

/// Serialize a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Encode(e) => {
            let mut out =
                Vec::with_capacity(32 + 2 * e.image.width * e.image.height * e.image.comps());
            out.push(TAG_ENCODE);
            out.push(e.priority);
            out.push(u8::from(e.allow_degraded));
            out.extend_from_slice(&e.timeout_ms.to_be_bytes());
            put_params(&mut out, &e.params);
            put_image(&mut out, &e.image);
            out
        }
        Request::Metrics => vec![TAG_METRICS],
        Request::Ping => vec![TAG_PING],
        Request::Shutdown => vec![TAG_SHUTDOWN],
        Request::Health => vec![TAG_HEALTH],
        Request::Trace(job_id) => {
            let mut out = vec![TAG_TRACE];
            out.extend_from_slice(&job_id.to_be_bytes());
            out
        }
        Request::Decode(d) => {
            let mut out = Vec::with_capacity(6 + d.codestream.len());
            out.push(TAG_DECODE);
            out.extend_from_slice(&d.max_layers.to_be_bytes());
            out.push(d.discard_levels);
            out.extend_from_slice(&d.codestream);
            out
        }
    }
}

/// Decode a request payload. Total: every byte sequence returns `Ok` or a
/// typed error, never panics, and allocation is bounded by the payload
/// size the framing layer already admitted.
pub fn parse_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut rd = Rd::new(payload);
    let tag = rd.u8()?;
    let req = match tag {
        TAG_ENCODE => {
            let priority = rd.u8()?;
            // A flags byte rather than a bare bool so future per-job
            // options extend the same octet; unknown bits are rejected
            // to keep them available.
            let flags = rd.u8()?;
            if flags & !0x01 != 0 {
                return Err(WireError::Malformed(format!(
                    "unknown encode flags {flags:#04x}"
                )));
            }
            let allow_degraded = flags & 0x01 != 0;
            let timeout_ms = rd.u32()?;
            let params = get_params(&mut rd)?;
            let image = get_image(&mut rd)?;
            Request::Encode(EncodeRequest {
                priority,
                allow_degraded,
                timeout_ms,
                params,
                image,
            })
        }
        TAG_METRICS => Request::Metrics,
        TAG_PING => Request::Ping,
        TAG_SHUTDOWN => Request::Shutdown,
        TAG_HEALTH => Request::Health,
        TAG_TRACE => Request::Trace(rd.u64()?),
        TAG_DECODE => {
            let max_layers = rd.u32()?;
            let discard_levels = rd.u8()?;
            let codestream = rd.take(rd.remaining())?.to_vec();
            Request::Decode(DecodeRequest {
                max_layers,
                discard_levels,
                codestream,
            })
        }
        t => {
            return Err(WireError::Malformed(format!(
                "unknown request tag {t:#04x}"
            )))
        }
    };
    rd.done()?;
    Ok(req)
}

/// Serialize a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::EncodeOk {
            codestream,
            degraded,
        } => {
            let mut out = Vec::with_capacity(2 + codestream.len());
            out.push(TAG_ENCODE_OK);
            out.push(u8::from(*degraded));
            out.extend_from_slice(codestream);
            out
        }
        Response::Rejected(r) => match r {
            RejectReason::Overloaded { retry_after_ms } => {
                let mut out = vec![TAG_REJECTED, 1];
                out.extend_from_slice(&retry_after_ms.to_be_bytes());
                out
            }
            RejectReason::ShuttingDown => vec![TAG_REJECTED, 2],
        },
        Response::TimedOut => vec![TAG_TIMED_OUT],
        Response::Cancelled => vec![TAG_CANCELLED],
        Response::Failed(m) => {
            let mut out = vec![TAG_FAILED];
            out.extend_from_slice(m.as_bytes());
            out
        }
        Response::MetricsJson(j) => {
            let mut out = vec![TAG_METRICS_JSON];
            out.extend_from_slice(j.as_bytes());
            out
        }
        Response::Pong => vec![TAG_PONG],
        Response::Health(h) => {
            let mut out = Vec::with_capacity(1 + 7 * 8 + 2);
            out.push(TAG_HEALTH_OK);
            for v in [
                h.workers_alive,
                h.pool_threads,
                h.workers_respawned,
                h.queue_depth,
                h.queue_capacity,
                h.jobs_retried,
                h.jobs_poisoned,
            ] {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out.push(u8::from(h.accepting));
            out.push(h.pressure);
            out
        }
        Response::Poisoned(m) => {
            let mut out = vec![TAG_POISONED];
            out.extend_from_slice(m.as_bytes());
            out
        }
        Response::TraceJson(j) => {
            let mut out = vec![TAG_TRACE_JSON];
            out.extend_from_slice(j.as_bytes());
            out
        }
        Response::DecodeOk(im) => {
            let mut out = Vec::with_capacity(11 + 2 * im.width * im.height * im.comps());
            out.push(TAG_DECODE_OK);
            put_image(&mut out, im);
            out
        }
    }
}

/// Decode a response payload (client side). Total, like
/// [`parse_request`].
pub fn parse_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut rd = Rd::new(payload);
    let tag = rd.u8()?;
    match tag {
        TAG_ENCODE_OK => {
            let degraded = match rd.u8()? {
                0 => false,
                1 => true,
                b => return Err(WireError::Malformed(format!("bad degraded flag {b}"))),
            };
            Ok(Response::EncodeOk {
                degraded,
                codestream: rd.take(rd.remaining())?.to_vec(),
            })
        }
        TAG_REJECTED => {
            let reason = match rd.u8()? {
                1 => RejectReason::Overloaded {
                    retry_after_ms: rd.u32()?,
                },
                2 => RejectReason::ShuttingDown,
                r => return Err(WireError::Malformed(format!("unknown reject reason {r}"))),
            };
            rd.done()?;
            Ok(Response::Rejected(reason))
        }
        TAG_TIMED_OUT => {
            rd.done()?;
            Ok(Response::TimedOut)
        }
        TAG_CANCELLED => {
            rd.done()?;
            Ok(Response::Cancelled)
        }
        TAG_FAILED => {
            let m = String::from_utf8(rd.take(rd.remaining())?.to_vec())
                .map_err(|_| WireError::Malformed("non-utf8 failure message".into()))?;
            Ok(Response::Failed(m))
        }
        TAG_METRICS_JSON => {
            let j = String::from_utf8(rd.take(rd.remaining())?.to_vec())
                .map_err(|_| WireError::Malformed("non-utf8 metrics json".into()))?;
            Ok(Response::MetricsJson(j))
        }
        TAG_PONG => {
            rd.done()?;
            Ok(Response::Pong)
        }
        TAG_HEALTH_OK => {
            let h = HealthSnapshot {
                workers_alive: rd.u64()?,
                pool_threads: rd.u64()?,
                workers_respawned: rd.u64()?,
                queue_depth: rd.u64()?,
                queue_capacity: rd.u64()?,
                jobs_retried: rd.u64()?,
                jobs_poisoned: rd.u64()?,
                accepting: match rd.u8()? {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(WireError::Malformed(format!("bad accepting flag {b}")));
                    }
                },
                pressure: match rd.u8()? {
                    p @ 0..=2 => p,
                    p => {
                        return Err(WireError::Malformed(format!("bad pressure level {p}")));
                    }
                },
            };
            rd.done()?;
            Ok(Response::Health(h))
        }
        TAG_POISONED => {
            let m = String::from_utf8(rd.take(rd.remaining())?.to_vec())
                .map_err(|_| WireError::Malformed("non-utf8 poison message".into()))?;
            Ok(Response::Poisoned(m))
        }
        TAG_TRACE_JSON => {
            let j = String::from_utf8(rd.take(rd.remaining())?.to_vec())
                .map_err(|_| WireError::Malformed("non-utf8 trace json".into()))?;
            Ok(Response::TraceJson(j))
        }
        TAG_DECODE_OK => Ok(Response::DecodeOk(get_image(&mut rd)?)),
        t => Err(WireError::Malformed(format!(
            "unknown response tag {t:#04x}"
        ))),
    }
}

/// Client convenience: send `req` over `io` and read the framed reply.
pub fn call(
    io: &mut (impl Read + Write),
    req: &Request,
    max_frame: usize,
) -> Result<Response, WireError> {
    write_frame(io, &encode_request(req))?;
    let payload = read_frame(io, max_frame)?;
    parse_response(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Encode(EncodeRequest {
            priority: 3,
            allow_degraded: true,
            timeout_ms: 1500,
            params: EncoderParams::lossy(0.25),
            image: imgio::synth::natural_rgb(9, 7, 42),
        })
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            sample_request(),
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
            Request::Health,
            Request::Trace(0),
            Request::Trace(42),
            Request::Decode(DecodeRequest {
                max_layers: 0,
                discard_levels: 0,
                codestream: vec![0xFF, 0x4F, 0xFF, 0xD9],
            }),
            Request::Decode(DecodeRequest {
                max_layers: 2,
                discard_levels: 1,
                codestream: Vec::new(),
            }),
        ] {
            assert_eq!(parse_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::EncodeOk {
                codestream: vec![1, 2, 3],
                degraded: false,
            },
            Response::EncodeOk {
                codestream: vec![7; 9],
                degraded: true,
            },
            Response::Rejected(RejectReason::Overloaded {
                retry_after_ms: 250,
            }),
            Response::Rejected(RejectReason::Overloaded { retry_after_ms: 0 }),
            Response::Rejected(RejectReason::ShuttingDown),
            Response::TimedOut,
            Response::Cancelled,
            Response::Failed("boom".into()),
            Response::MetricsJson("{}".into()),
            Response::Pong,
            Response::Health(HealthSnapshot {
                workers_alive: 2,
                pool_threads: 4,
                workers_respawned: 3,
                queue_depth: 1,
                queue_capacity: 64,
                jobs_retried: 5,
                jobs_poisoned: 1,
                accepting: true,
                pressure: 2,
            }),
            Response::Poisoned("job 7 crashed its worker 2 times".into()),
            Response::TraceJson("{\"traceEvents\":[]}".into()),
            Response::DecodeOk(imgio::synth::natural_rgb(6, 4, 11)),
        ] {
            assert_eq!(parse_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn frame_roundtrip() {
        let payload = encode_request(&sample_request());
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn params_fidelity_across_all_knobs() {
        let p = EncoderParams {
            mode: Mode::Lossy { rate: 0.125 },
            levels: 3,
            cb_size: 32,
            layers: 4,
            bypass: true,
            coder: Coder::Ht,
            arithmetic: Arithmetic::FixedQ13,
            variant: VerticalVariant::Interleaved,
        };
        let req = Request::Encode(EncodeRequest {
            priority: 0,
            allow_degraded: false,
            timeout_ms: 0,
            params: p,
            image: imgio::synth::natural(5, 5, 1),
        });
        let Request::Encode(back) = parse_request(&encode_request(&req)).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(back.params, p);
    }

    #[test]
    fn unknown_encode_flag_bits_are_rejected() {
        let mut payload = encode_request(&sample_request());
        // Byte 2 is the flags octet (tag, priority, flags, ...).
        payload[2] |= 0x80;
        assert!(matches!(
            parse_request(&payload),
            Err(WireError::Malformed(_))
        ));
    }
}
