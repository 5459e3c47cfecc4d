//! Context assignment for Tier-1 bit modeling (JPEG2000 Annex D).
//!
//! Context labels 0..=18:
//! * 0..=8   — zero coding (significance), band-orientation dependent;
//! * 9..=13  — sign coding (plus an XOR flip bit);
//! * 14..=16 — magnitude refinement;
//! * 17      — run-length (cleanup run mode);
//! * 18      — UNIFORM (near-equiprobable side information).

use mqcoder::{Contexts, CtxState};

/// Number of adaptive contexts.
pub const NUM_CTX: usize = 19;
/// Run-length context label.
pub const CTX_RL: usize = 17;
/// UNIFORM context label.
pub const CTX_UNI: usize = 18;
/// First sign context label.
pub const CTX_SIGN0: usize = 9;
/// First magnitude-refinement context label.
pub const CTX_MAG0: usize = 14;

/// Fresh context bank with the standard initial states:
/// all-zero-neighborhood significance context at state 4, run-length at
/// state 3, UNIFORM at state 46, everything else at state 0.
pub fn initial_contexts() -> Contexts {
    let mut c = Contexts::new(NUM_CTX);
    c.set(0, CtxState::at(4));
    c.set(CTX_RL, CtxState::at(3));
    c.set(CTX_UNI, CtxState::at(46));
    c
}

/// Zero-coding context from neighbor significance counts, for a band class.
///
/// `h` = significant horizontal neighbors (0..=2), `v` = vertical (0..=2),
/// `d` = diagonal (0..=4).
#[inline]
pub const fn zc_context(kind: crate::BandKind, h: u32, v: u32, d: u32) -> usize {
    use crate::BandKind::*;
    let (h, v) = match kind {
        // HL is horizontally high-pass: the roles of h and v swap.
        Hl => (v, h),
        LlLh => (h, v),
        Hh => {
            // HH keys primarily on the diagonal count.
            return match (d, h + v) {
                (d, _) if d >= 3 => 8,
                (2, hv) if hv >= 1 => 7,
                (2, _) => 6,
                (1, hv) if hv >= 2 => 5,
                (1, 1) => 4,
                (1, _) => 3,
                (0, hv) if hv >= 2 => 2,
                (0, 1) => 1,
                _ => 0,
            };
        }
    };
    match (h, v, d) {
        (2, _, _) => 8,
        (1, v, _) if v >= 1 => 7,
        (1, 0, d) if d >= 1 => 6,
        (1, 0, 0) => 5,
        (0, 2, _) => 4,
        (0, 1, _) => 3,
        (0, 0, d) if d >= 2 => 2,
        (0, 0, 1) => 1,
        _ => 0,
    }
}

/// Sign-coding context and XOR flip from net neighbor sign contributions.
///
/// `hc`/`vc` are the clamped sums of (significant) horizontal/vertical
/// neighbor signs: -1, 0, or +1 (positive = +1 contribution).
#[inline]
pub const fn sc_context(hc: i32, vc: i32) -> (usize, u8) {
    match (hc, vc) {
        (1, 1) => (13, 0),
        (1, 0) => (12, 0),
        (1, -1) => (11, 0),
        (0, 1) => (10, 0),
        (0, 0) => (9, 0),
        (0, -1) => (10, 1),
        (-1, 1) => (11, 1),
        (-1, 0) => (12, 1),
        (-1, -1) => (13, 1),
        _ => unreachable!(),
    }
}

/// Magnitude-refinement context: `first` = first refinement of this sample,
/// `any_sig_neighbor` = any of the 8 neighbors significant.
#[inline]
pub fn mr_context(first: bool, any_sig_neighbor: bool) -> usize {
    if !first {
        16
    } else if any_sig_neighbor {
        15
    } else {
        14
    }
}

// ---------------------------------------------------------------------------
// Table-driven context lookup (branch-free inner loops)
//
// The branchy `zc_context` / `sc_context` matches above stay as the readable
// reference; the tables below are built from them, so equivalence is by
// construction (and additionally pinned by exhaustive tests).
// ---------------------------------------------------------------------------

/// Neighbor-mask bit of the west (left) neighbor. A sample's 8-bit mask has
/// one bit per neighbor, set once that neighbor is significant.
pub const NB_W: u8 = 1 << 0;
/// East (right) neighbor.
pub const NB_E: u8 = 1 << 1;
/// North (upper) neighbor.
pub const NB_N: u8 = 1 << 2;
/// South (lower) neighbor.
pub const NB_S: u8 = 1 << 3;
/// North-west neighbor.
pub const NB_NW: u8 = 1 << 4;
/// North-east neighbor.
pub const NB_NE: u8 = 1 << 5;
/// South-west neighbor.
pub const NB_SW: u8 = 1 << 6;
/// South-east neighbor.
pub const NB_SE: u8 = 1 << 7;

const fn zc_table_for(kind: crate::BandKind) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut m = 0;
    while m < 256 {
        let mask = m as u8;
        let h = (mask & (NB_W | NB_E)).count_ones();
        let v = (mask & (NB_N | NB_S)).count_ones();
        let d = (mask & (NB_NW | NB_NE | NB_SW | NB_SE)).count_ones();
        t[m] = zc_context(kind, h, v, d) as u8;
        m += 1;
    }
    t
}

static ZC_TABLES: [[u8; 256]; 3] = [
    zc_table_for(crate::BandKind::LlLh),
    zc_table_for(crate::BandKind::Hl),
    zc_table_for(crate::BandKind::Hh),
];

/// Zero-coding context table for a band class, indexed by a sample's
/// neighbor mask (`NB_*` bits). Equivalent to [`zc_context`] of the mask's
/// horizontal, vertical and diagonal counts; entry 0 (no significant
/// neighbor) is context 0 in every class.
#[inline]
pub fn zc_table(kind: crate::BandKind) -> &'static [u8; 256] {
    match kind {
        crate::BandKind::LlLh => &ZC_TABLES[0],
        crate::BandKind::Hl => &ZC_TABLES[1],
        crate::BandKind::Hh => &ZC_TABLES[2],
    }
}

/// Sign contribution of direct neighbor `bit` (`NB_W`, `NB_E`, `NB_N` or
/// `NB_S`) in a [`sign_table`] index: +1 when it is significant and
/// positive, -1 when significant and negative, 0 otherwise.
const fn neighbor_sign(idx: u8, bit: u8) -> i32 {
    let sig = (idx & bit != 0) as i32;
    let neg = (idx & (bit << 4) != 0) as i32;
    sig - 2 * (sig & neg)
}

static SIGN_TABLE: [(u8, u8); 256] = {
    let mut t = [(0u8, 0u8); 256];
    let mut i = 0;
    while i < 256 {
        let idx = i as u8;
        let hc = neighbor_sign(idx, NB_W) + neighbor_sign(idx, NB_E);
        let vc = neighbor_sign(idx, NB_N) + neighbor_sign(idx, NB_S);
        let (cx, xor) = sc_context(hc.signum(), vc.signum());
        t[i] = (cx as u8, xor);
        i += 1;
    }
    t
};

/// Sign-coding (context, xor) table, one lookup per coded sign. The index
/// is `(mask & 0x0F) | (flags & 0xF0)` of the sample: the low nibble holds
/// its `NB_W | NB_E | NB_N | NB_S` mask bits (that neighbor significant),
/// the high nibble the same bits shifted up by 4 (that neighbor
/// significant and negative). Each entry is [`sc_context`] of the clamped
/// horizontal and vertical sign sums; built at compile time and
/// exhaustively tested against it.
#[inline]
pub fn sign_table() -> &'static [(u8, u8); 256] {
    &SIGN_TABLE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandKind;

    #[test]
    fn initial_states_match_standard() {
        let c = initial_contexts();
        assert_eq!(c.get(0).index, 4);
        assert_eq!(c.get(CTX_RL).index, 3);
        assert_eq!(c.get(CTX_UNI).index, 46);
        assert_eq!(c.get(5).index, 0);
        assert_eq!(c.len(), 19);
    }

    #[test]
    fn zc_lllh_table() {
        let k = BandKind::LlLh;
        assert_eq!(zc_context(k, 0, 0, 0), 0);
        assert_eq!(zc_context(k, 0, 0, 1), 1);
        assert_eq!(zc_context(k, 0, 0, 3), 2);
        assert_eq!(zc_context(k, 0, 1, 2), 3);
        assert_eq!(zc_context(k, 0, 2, 0), 4);
        assert_eq!(zc_context(k, 1, 0, 0), 5);
        assert_eq!(zc_context(k, 1, 0, 2), 6);
        assert_eq!(zc_context(k, 1, 1, 0), 7);
        assert_eq!(zc_context(k, 2, 0, 0), 8);
        assert_eq!(zc_context(k, 2, 2, 4), 8);
    }

    #[test]
    fn zc_hl_swaps_h_and_v() {
        for h in 0..=2u32 {
            for v in 0..=2u32 {
                for d in 0..=4u32 {
                    assert_eq!(
                        zc_context(BandKind::Hl, h, v, d),
                        zc_context(BandKind::LlLh, v, h, d),
                        "h={h} v={v} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn zc_hh_table() {
        let k = BandKind::Hh;
        assert_eq!(zc_context(k, 0, 0, 0), 0);
        assert_eq!(zc_context(k, 1, 0, 0), 1);
        assert_eq!(zc_context(k, 1, 1, 0), 2);
        assert_eq!(zc_context(k, 0, 0, 1), 3);
        assert_eq!(zc_context(k, 1, 0, 1), 4);
        assert_eq!(zc_context(k, 2, 1, 1), 5);
        assert_eq!(zc_context(k, 0, 0, 2), 6);
        assert_eq!(zc_context(k, 2, 0, 2), 7);
        assert_eq!(zc_context(k, 0, 0, 3), 8);
        assert_eq!(zc_context(k, 2, 2, 4), 8);
    }

    #[test]
    fn sign_contexts_are_symmetric() {
        // Flipping both contributions gives the same context with the
        // opposite XOR bit.
        for hc in -1..=1 {
            for vc in -1..=1 {
                let (c1, x1) = sc_context(hc, vc);
                let (c2, x2) = sc_context(-hc, -vc);
                assert_eq!(c1, c2);
                if (hc, vc) != (0, 0) {
                    assert_ne!(x1, x2);
                }
            }
        }
        assert_eq!(sc_context(0, 0), (9, 0));
    }

    #[test]
    fn zc_table_matches_function_exhaustively() {
        let count = |m: usize, bits: u8| (m as u8 & bits).count_ones();
        for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
            let t = zc_table(kind);
            for (m, &cx) in t.iter().enumerate() {
                let h = count(m, NB_W | NB_E);
                let v = count(m, NB_N | NB_S);
                let d = count(m, NB_NW | NB_NE | NB_SW | NB_SE);
                assert_eq!(
                    cx as usize,
                    zc_context(kind, h, v, d),
                    "{kind:?} mask={m:#010b}"
                );
                assert_eq!(cx == 0, m == 0, "{kind:?} mask={m:#010b}");
            }
        }
    }

    #[test]
    fn sign_table_matches_function_exhaustively() {
        for (idx, &entry) in sign_table().iter().enumerate() {
            // Direct neighbor `bit`: significant in the low nibble,
            // negative in the high one.
            let sign = |bit: u8| -> i32 {
                match (idx as u8 & bit != 0, idx as u8 & (bit << 4) != 0) {
                    (false, _) => 0,
                    (true, false) => 1,
                    (true, true) => -1,
                }
            };
            let hc = (sign(NB_W) + sign(NB_E)).clamp(-1, 1);
            let vc = (sign(NB_N) + sign(NB_S)).clamp(-1, 1);
            let (cx, xor) = sc_context(hc, vc);
            assert_eq!(entry, (cx as u8, xor), "index {idx:#010b}");
        }
    }

    #[test]
    fn mr_contexts() {
        assert_eq!(mr_context(true, false), 14);
        assert_eq!(mr_context(true, true), 15);
        assert_eq!(mr_context(false, false), 16);
        assert_eq!(mr_context(false, true), 16);
    }
}
