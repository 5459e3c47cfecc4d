//! MQ binary arithmetic coder (JPEG2000 Part 1, Annex C / ITU-T T.88).
//!
//! The MQ coder is the entropy-coding engine inside EBCOT Tier-1: a
//! multiplication-free, renormalization-driven binary arithmetic coder with a
//! 47-state probability estimation table and 0xFF byte-stuffing so that no
//! two consecutive codestream bytes ever form a marker (`>= 0xFF90`).
//!
//! This crate provides:
//! * [`MqEncoder`] / [`MqDecoder`] — the adaptive coder pair;
//! * [`RawEncoder`] / [`RawDecoder`] — the "lazy" raw bit mode used by the
//!   selective arithmetic-coding-bypass option;
//! * [`Contexts`] — a bank of adaptive context states shared by both.
//!
//! Correctness is established by exhaustive encode→decode round-trips over
//! random (context, decision) sequences (see `tests/roundtrip.rs`), by
//! known-answer tests for byte-stuffing edge cases (`tests/known_answers.rs`),
//! and by two differential tests against the standard's flow charts
//! written out bit at a time. [`MqDecoder`] meets an Annex C.3 decoder
//! (`tests/reference_decoder.rs`) on random segments rich in 0xFF, stuffed
//! bytes that carry, markers inside a segment and every prefix of encoded
//! segments, each decoded past its end. [`MqEncoder`], one decision at a
//! time, in batches and in two lanes, meets an Annex C.2 encoder
//! (`tests/reference_encoder.rs`) byte for byte on multi-segment random
//! sources that reach every BYTEOUT and FLUSH path.

mod decoder;
mod encoder;
mod raw;
mod table;

pub use decoder::MqDecoder;
pub use encoder::{Lane, MqEncoder};
pub use raw::{RawDecoder, RawEncoder};
pub use table::{QeRow, QE_TABLE};

/// One adaptive context: an index into [`QE_TABLE`] plus the current
/// most-probable-symbol sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtxState {
    /// Probability-estimation state, `0..47`.
    pub index: u8,
    /// Most probable symbol, 0 or 1.
    pub mps: u8,
}

impl CtxState {
    /// A context starting at a specific table state with MPS = 0.
    pub const fn at(index: u8) -> Self {
        CtxState { index, mps: 0 }
    }
}

/// A bank of `N` adaptive contexts.
///
/// EBCOT uses 19 (labels 0..=18); the bank size is a parameter so the coder
/// is reusable for other bit modelers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contexts {
    states: Vec<CtxState>,
}

impl Contexts {
    /// `n` contexts, all at table state 0 / MPS 0.
    pub fn new(n: usize) -> Self {
        Contexts {
            states: vec![CtxState::default(); n],
        }
    }

    /// Number of contexts in the bank.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the bank is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Read context `cx`.
    #[inline]
    pub fn get(&self, cx: usize) -> CtxState {
        self.states[cx]
    }

    /// Overwrite context `cx` (used to apply codec-specific initial states).
    #[inline]
    pub fn set(&mut self, cx: usize, s: CtxState) {
        self.states[cx] = s;
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, cx: usize) -> &mut CtxState {
        &mut self.states[cx]
    }

    /// Reset every context to table state 0 / MPS 0.
    pub fn reset(&mut self) {
        for s in &mut self.states {
            *s = CtxState::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_bank_basics() {
        let mut c = Contexts::new(19);
        assert_eq!(c.len(), 19);
        assert!(!c.is_empty());
        c.set(17, CtxState::at(3));
        assert_eq!(c.get(17), CtxState { index: 3, mps: 0 });
        c.reset();
        assert_eq!(c.get(17), CtxState::default());
    }

    #[test]
    fn qe_table_invariants() {
        assert_eq!(QE_TABLE.len(), 47);
        for (i, row) in QE_TABLE.iter().enumerate() {
            assert!((row.nmps as usize) < 47, "row {i} nmps");
            assert!((row.nlps as usize) < 47, "row {i} nlps");
            assert!(row.qe >= 0x0001 && row.qe <= 0x5601, "row {i} qe range");
            assert!(row.switch_mps == 0 || row.switch_mps == 1);
        }
        // Terminal / non-adaptive states named in the standard.
        assert_eq!(QE_TABLE[46].nmps, 46);
        assert_eq!(QE_TABLE[46].nlps, 46);
        assert_eq!(QE_TABLE[45].nmps, 45);
        // The startup fast-attack chain: states 0..=5 jump widely.
        assert_eq!(QE_TABLE[0].nmps, 1);
        assert_eq!(QE_TABLE[0].switch_mps, 1);
    }
}
