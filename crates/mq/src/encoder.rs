//! MQ encoder (JPEG2000 Annex C.2, software-conventions form).

use crate::table::QE_TABLE;
use crate::{Contexts, CtxState};

/// Shifts a batch of [`MqEncoder::encode_decisions`] (or a lane's in
/// [`MqEncoder::encode_lanes`]) may take past a BYTEOUT before it settles
/// the pending ones: two to three bytes, with the register's top bit at
/// most 62.
const PENDING: i32 = 20;

/// The MQ arithmetic encoder.
///
/// Register conventions follow the standard's software implementation:
/// `c` holds the 28-bit code register (carry appears at bit 27), `a` the
/// 16-bit interval register renormalized to keep `a >= 0x8000`, `ct` the
/// downcounter to the next byte emission.
///
/// [`MqEncoder::encode`] codes one decision and emits each byte when `ct`
/// reaches 0, as the standard does. [`MqEncoder::encode_decisions`] codes
/// a pass's decisions in batches that let the byte emissions wait: see
/// there. [`MqEncoder::encode_lanes`] codes two encoders' batches side by
/// side.
///
/// One encoder codes any number of segments: [`MqEncoder::flush_into`]
/// terminates the open segment, appends it to a caller's buffer and
/// re-initialises the coder in place, keeping its segment buffer. The
/// buffer holds a sentinel byte at index 0 standing in for the "B-1"
/// position of the standard's pointer arithmetic. A carry never reaches
/// it: the first BYTEOUT comes after 12 shifts of an interval that starts
/// below 2^15, so the carry bit (27) is still clear.
#[derive(Debug, Clone)]
pub struct MqEncoder {
    /// The code register. Between calls it is the standard's `C`; inside
    /// a batch it also holds the bytes whose BYTEOUT is pending.
    c: u64,
    a: u32,
    /// Shifts left until the next BYTEOUT; inside a batch, when not
    /// positive, `-ct` shifts have passed since the oldest pending one.
    ct: i32,
    /// Open segment; `out[0]` is the sentinel and the last byte is the one
    /// the standard calls `B`.
    out: Vec<u8>,
    /// The coder's state at the start of the open batch.
    mark: Mark,
}

/// What [`MqEncoder::encode_decisions`] restores, besides the contexts
/// ([`States::saved`]), to code a batch again: the register, and the
/// segment's length and last byte (which a settled carry may have
/// raised).
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    a: u32,
    c: u64,
    ct: i32,
    len: usize,
    b: u8,
}

impl Default for MqEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// One step of the coder for a context in merged state `s = index << 1 |
/// mps`: its `Qe`, and its next merged state after an MPS and after an
/// LPS renormalization, the LPS one with the MPS switch applied.
#[derive(Clone, Copy)]
struct Step {
    qe: u16,
    nmps: u8,
    nlps: u8,
}

/// [`QE_TABLE`] by merged state, padded to every `u8`, so a state indexes
/// it with no bounds check. A valid state ([`CtxState`]: index below 47,
/// MPS 0 or 1) never reaches the padding.
const STEPS: [Step; 256] = {
    let mut t = [Step {
        qe: 0,
        nmps: 0,
        nlps: 0,
    }; 256];
    let mut s = 0;
    while s < 2 * QE_TABLE.len() {
        let (row, mps) = (QE_TABLE[s >> 1], s as u8 & 1);
        t[s] = Step {
            qe: row.qe,
            nmps: row.nmps << 1 | mps,
            nlps: row.nlps << 1 | (mps ^ row.switch_mps),
        };
        s += 1;
    }
    t
};

/// The merged state `index << 1 | mps` of a context.
#[inline]
fn merged(st: CtxState) -> u8 {
    st.index << 1 | st.mps
}

/// CODEMPS and CODELPS as one step without data-dependent branches, for
/// `decision` in the context whose merged state is `s`: the coder keeps
/// either the `Qe` sub-interval at the bottom of the interval or the
/// `A - Qe` one above it (`C += Qe`). The MPS keeps the `A - Qe` one and
/// the LPS the `Qe` one unless the conditional exchange (`A - Qe < Qe`)
/// swaps them. The state moves exactly when the new `A` is below 0x8000,
/// which is also when RENORME shifts at all. Which symbol comes is as
/// unpredictable as the data, so selects replace the standard's branches
/// on it.
///
/// Returns the number of RENORME shifts, already applied to `a` but not
/// to `c`.
#[inline(always)]
fn code(a: &mut u32, c: &mut u64, s: &mut u8, decision: u8) -> u32 {
    let step = STEPS[*s as usize];
    let qe = step.qe as u32;
    let a1 = *a - qe;
    let lps = (decision ^ *s) & 1 != 0;
    let keep_rest = lps == (a1 < qe);
    let kept = if keep_rest { a1 } else { qe };
    *c += if keep_rest { qe as u64 } else { 0 };
    // The state moves only with a renormalization; an LPS always
    // renormalizes.
    let next = if lps { step.nlps } else { step.nmps };
    *s = if kept < 0x8000 { next } else { *s };
    // `kept` is below 2^16 and not 0, so this is its count within 16 bits.
    let n = (kept as u16).leading_zeros();
    *a = kept << n;
    n
}

/// BYTEOUT with 0xFF bit-stuffing from the register `c` (at most 28 bits)
/// into `out`. Returns the register without the byte's bits, the shifts
/// to the next BYTEOUT, and the byte.
fn byte_out(out: &mut Vec<u8>, mut c: u32) -> (u32, i32, u8) {
    let b = out.len() - 1;
    if out[b] == 0xFF {
        let byte = (c >> 20) as u8;
        out.push(byte);
        return (c & 0xF_FFFF, 7, byte);
    }
    if c & 0x800_0000 != 0 {
        // Propagate carry into B.
        debug_assert!(b > 0, "carry into the sentinel");
        out[b] = out[b].wrapping_add(1);
        c &= 0x7FF_FFFF;
        if out[b] == 0xFF {
            let byte = (c >> 20) as u8;
            out.push(byte);
            return (c & 0xF_FFFF, 7, byte);
        }
    }
    let byte = (c >> 19) as u8;
    out.push(byte);
    (c & 0x7_FFFF, 8, byte)
}

/// One lane of [`MqEncoder::encode_lanes`]: an encoder, its contexts and
/// the decisions to code, each `(cx << 1) | decision`.
pub type Lane<'a> = (&'a mut MqEncoder, &'a mut Contexts, &'a [u8]);

/// A bank's contexts while [`MqEncoder::encode_decisions`] codes with
/// them, as merged states, one entry for every context a decision byte
/// can name (`e >> 1` of a `u8`, so indexing needs no bounds check).
struct States {
    live: [u8; 128],
    /// The live states at the start of the open batch.
    saved: [u8; 128],
}

impl States {
    /// The contexts of `ctxs` that a decision can name.
    #[inline]
    fn new(ctxs: &Contexts) -> States {
        let mut live = [0; 128];
        for (s, &st) in live.iter_mut().zip(&ctxs.states) {
            *s = merged(st);
        }
        States { live, saved: live }
    }

    /// Write the live states back into `ctxs`.
    #[inline]
    fn store(&self, ctxs: &mut Contexts) {
        for (st, &s) in ctxs.states.iter_mut().zip(&self.live) {
            *st = CtxState {
                index: s >> 1,
                mps: s & 1,
            };
        }
    }
}

/// [`MqEncoder::batch`] for two lanes in lockstep: the same number of
/// decisions from the front of `xd` and `yd`, until either lane has
/// `PENDING` shifts outstanding or runs out. Returns how many from each.
#[inline]
fn batch2(
    (xe, xw, xd): (&mut MqEncoder, &mut [u8; 128], &[u8]),
    (ye, yw, yd): (&mut MqEncoder, &mut [u8; 128], &[u8]),
) -> usize {
    let (mut xa, mut xc, mut xct) = (xe.a, xe.c, xe.ct);
    let (mut ya, mut yc, mut yct) = (ye.a, ye.c, ye.ct);
    let mut taken = 0;
    for (&ex, &ey) in xd.iter().zip(yd) {
        let n = code(&mut xa, &mut xc, &mut xw[(ex >> 1) as usize], ex & 1);
        let m = code(&mut ya, &mut yc, &mut yw[(ey >> 1) as usize], ey & 1);
        xc <<= n;
        xct -= n as i32;
        yc <<= m;
        yct -= m as i32;
        taken += 1;
        if xct.min(yct) <= -PENDING {
            break;
        }
    }
    (xe.a, xe.c, xe.ct) = (xa, xc, xct);
    (ye.a, ye.c, ye.ct) = (ya, yc, yct);
    taken
}

impl MqEncoder {
    /// INITENC.
    pub fn new() -> Self {
        MqEncoder {
            c: 0,
            a: 0x8000,
            ct: 12,
            out: vec![0u8],
            mark: Mark::default(),
        }
    }

    /// ENCODE one `decision` in context `cx` of `ctxs`.
    #[inline]
    pub fn encode(&mut self, ctxs: &mut Contexts, cx: usize, decision: u8) {
        let st = ctxs.get_mut(cx);
        let mut s = merged(*st);
        self.encode_state(&mut s, decision);
        (st.index, st.mps) = (s >> 1, s & 1);
    }

    /// ENCODE `decision` in the context whose merged state is `s`.
    #[inline]
    fn encode_state(&mut self, s: &mut u8, decision: u8) {
        let n = code(&mut self.a, &mut self.c, s, decision);
        self.renorm(n);
    }

    /// RENORME's `n` shifts of `c`, a byte at a time: `c` shifts up to
    /// each byte boundary, where BYTEOUT fires exactly when the
    /// bit-at-a-time loop's `ct` would reach 0.
    #[inline]
    fn renorm(&mut self, mut n: u32) {
        while n as i32 >= self.ct {
            self.c <<= self.ct;
            n -= self.ct as u32;
            let (c, ct, _) = byte_out(&mut self.out, self.c as u32);
            (self.c, self.ct) = (c as u64, ct);
        }
        self.c <<= n;
        self.ct -= n as i32;
    }

    /// ENCODE each of `decisions` in turn, each `(cx << 1) | decision`
    /// for a context `cx` of `ctxs`: one coding pass's decisions, as a bit
    /// modeler hands them over. The same bytes as [`MqEncoder::encode`]
    /// of each decision.
    ///
    /// The data-dependent BYTEOUT leaves the common path. A batch codes
    /// decisions with no byte test, the register shifting past each byte
    /// boundary into the upper bits of the 64-bit `c`, until `PENDING`
    /// shifts have passed the oldest boundary. Then every pending BYTEOUT
    /// runs in order, each from the register as it stood at its boundary
    /// (`c` shifted back down), the bits shifted in since staying below.
    ///
    /// That is the standard's BYTEOUT exactly unless a carry crossed a
    /// byte boundary after the byte's turn. No position takes more than
    /// one such carry (the code value grows by less than the interval),
    /// and the standard takes it into `B` too, except when `B` is 0xFF:
    /// there it goes into the stuffed bit of the next byte, while the
    /// wide register carries on through the 0xFF. A carry through 0xFF
    /// leaves 0x00 behind, so a settled byte that reads 0x00 makes the
    /// batch start over from its saved state, one BYTEOUT at a time
    /// ([`MqEncoder::encode`]). That happens to about one batch in 80.
    pub fn encode_decisions(&mut self, ctxs: &mut Contexts, decisions: &[u8]) {
        let mut st = States::new(ctxs);
        let mut rest = decisions;
        while !rest.is_empty() {
            self.save(&mut st);
            let taken = self.batch(&mut st.live, rest);
            self.settle_or_redo(&mut st, &rest[..taken]);
            rest = &rest[taken..];
        }
        st.store(ctxs);
    }

    /// [`MqEncoder::encode_decisions`] for two independent streams at
    /// once, each lane an encoder, its contexts and its decisions: codes
    /// the first `n` decisions of each lane, `n` the shorter lane's
    /// length, and returns `n`. Each lane's bytes and contexts are those
    /// of `encode_decisions` on its own.
    ///
    /// The lanes run in lockstep batches, one decision of each per step,
    /// so the two coders' dependency chains (`a`'s select, leading-zero
    /// count and shift, and a context state's store and reload) overlap
    /// instead of waiting on each other. A batch ends when either lane
    /// has `PENDING` shifts outstanding; then each lane settles its own
    /// BYTEOUTs, and a lane that settles a 0x00 byte restores only its
    /// own saved state and codes that batch again, one BYTEOUT at a time.
    pub fn encode_lanes((xe, xc, xd): Lane<'_>, (ye, yc, yd): Lane<'_>) -> usize {
        let (mut xs, mut ys) = (States::new(xc), States::new(yc));
        let n = xd.len().min(yd.len());
        let mut done = 0;
        while done < n {
            xe.save(&mut xs);
            ye.save(&mut ys);
            let taken = batch2(
                (xe, &mut xs.live, &xd[done..n]),
                (ye, &mut ys.live, &yd[done..n]),
            );
            xe.settle_or_redo(&mut xs, &xd[done..done + taken]);
            ye.settle_or_redo(&mut ys, &yd[done..done + taken]);
            done += taken;
        }
        xs.store(xc);
        ys.store(yc);
        n
    }

    /// Mark the state a batch starts from.
    #[inline]
    fn save(&mut self, st: &mut States) {
        st.saved = st.live;
        let len = self.out.len();
        self.mark = Mark {
            a: self.a,
            c: self.c,
            ct: self.ct,
            len,
            b: self.out[len - 1],
        };
    }

    /// Code decisions from the front of `decisions` in the merged states
    /// `live` without BYTEOUT until `PENDING` shifts have passed a byte
    /// boundary. Returns how many.
    #[inline]
    fn batch(&mut self, live: &mut [u8; 128], decisions: &[u8]) -> usize {
        let (mut a, mut c, mut ct) = (self.a, self.c, self.ct);
        let mut taken = 0;
        for &e in decisions {
            let n = code(&mut a, &mut c, &mut live[(e >> 1) as usize], e & 1);
            c <<= n;
            ct -= n as i32;
            taken += 1;
            if ct <= -PENDING {
                break;
            }
        }
        (self.a, self.c, self.ct) = (a, c, ct);
        taken
    }

    /// Run the pending BYTEOUTs of a batch of `decisions` coded since
    /// [`MqEncoder::save`]. When a byte reads 0x00 (see
    /// [`MqEncoder::encode_decisions`]), restore the marked state and the
    /// saved contexts and code the batch again one BYTEOUT at a time.
    #[inline]
    fn settle_or_redo(&mut self, st: &mut States, decisions: &[u8]) {
        if self.settle() {
            return;
        }
        let m = self.mark;
        self.out.truncate(m.len);
        self.out[m.len - 1] = m.b;
        (self.a, self.c, self.ct) = (m.a, m.c, m.ct);
        st.live = st.saved;
        for &e in decisions {
            self.encode_state(&mut st.live[(e >> 1) as usize], e & 1);
        }
    }

    /// Run the pending BYTEOUTs, oldest first. False when a byte reads
    /// 0x00 (see [`MqEncoder::encode_decisions`]).
    fn settle(&mut self) -> bool {
        let mut exact = true;
        while self.ct <= 0 {
            let s = -self.ct as u32;
            let below = self.c & ((1 << s) - 1);
            debug_assert!(self.c >> s < 1 << 28, "register past its carry bit");
            let (c, ct, byte) = byte_out(&mut self.out, (self.c >> s) as u32);
            exact &= byte != 0;
            self.c = (c as u64) << s | below;
            self.ct += ct;
        }
        exact
    }

    /// FLUSH: SETBITS, emit the remaining register contents, append the
    /// finished segment to `dst` (trailing 0xFF dropped per the standard's
    /// "if B == 0xFF, discard" rule), then INITENC in place.
    pub fn flush_into(&mut self, dst: &mut Vec<u8>) {
        // SETBITS
        let mut c = self.c as u32;
        let tempc = c + self.a;
        c |= 0xFFFF;
        if c >= tempc {
            c -= 0x8000;
        }
        let (c, ct, _) = byte_out(&mut self.out, c << self.ct);
        byte_out(&mut self.out, c << ct);
        // Skip the sentinel; a trailing 0xFF carries no information and may
        // not legally end a segment.
        let mut end = self.out.len();
        if self.out[end - 1] == 0xFF {
            end -= 1;
        }
        dst.extend_from_slice(&self.out[1..end]);
        self.out.truncate(1);
        self.c = 0;
        self.a = 0x8000;
        self.ct = 12;
    }

    /// [`MqEncoder::flush_into`] a new buffer: the finished segment.
    pub fn finish(mut self) -> Vec<u8> {
        let mut v = Vec::new();
        self.flush_into(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Contexts;

    #[test]
    fn empty_flush_is_small() {
        let enc = MqEncoder::new();
        let bytes = enc.finish();
        // Flushing an empty coder produces at most a few bytes.
        assert!(bytes.len() <= 3, "{bytes:?}");
    }

    #[test]
    fn all_mps_compresses_hard() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        for _ in 0..10_000 {
            enc.encode(&mut ctxs, 0, 0);
        }
        let bytes = enc.finish();
        // 10k highly-predictable symbols should land well under 100 bytes.
        assert!(bytes.len() < 100, "got {} bytes", bytes.len());
    }

    #[test]
    fn alternating_bits_cost_about_one_bit_each() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        let n = 8_192usize;
        for i in 0..n {
            enc.encode(&mut ctxs, 0, (i & 1) as u8);
        }
        let bytes = enc.finish();
        let bits_per_symbol = (bytes.len() * 8) as f64 / n as f64;
        assert!(
            (0.9..1.2).contains(&bits_per_symbol),
            "bits/symbol = {bits_per_symbol}"
        );
    }

    #[test]
    fn no_marker_bytes_in_output_interior() {
        // After any 0xFF the next byte must be < 0x90 (bit stuffing).
        let mut ctxs = Contexts::new(4);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 123456789;
        for _ in 0..50_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 7) as usize % 4;
            let d = ((x >> 13) & 1) as u8;
            enc.encode(&mut ctxs, cx, d);
        }
        let bytes = enc.finish();
        for w in bytes.windows(2) {
            if w[0] == 0xFF {
                assert!(w[1] < 0x90, "marker {:02X}{:02X} in MQ output", w[0], w[1]);
            }
        }
    }
}
