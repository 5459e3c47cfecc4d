//! Tag trees (JPEG2000 Annex B.10.2) — Tier-2's incremental quad-tree code
//! for per-code-block side information (first inclusion layer, number of
//! all-zero bit planes).

use mqcoder::{RawDecoder, RawEncoder};

/// One node of the tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Assigned value (leaves) or min of children (internal).
    value: u32,
    /// Current decoder-known lower bound.
    low: u32,
    /// Whether the value is fully communicated.
    known: bool,
}

/// A tag tree over a `w x h` grid of leaves.
#[derive(Debug, Clone)]
pub struct TagTree {
    /// Per-level dimensions, finest first.
    dims: Vec<(usize, usize)>,
    /// Per-level node arrays, finest first.
    levels: Vec<Vec<Node>>,
}

impl TagTree {
    /// Build a tree with all leaf values zero (set them before encoding).
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0);
        let mut dims = vec![(w, h)];
        let (mut cw, mut ch) = (w, h);
        while cw > 1 || ch > 1 {
            cw = cw.div_ceil(2);
            ch = ch.div_ceil(2);
            dims.push((cw, ch));
        }
        let levels = dims
            .iter()
            .map(|&(w, h)| {
                vec![
                    Node {
                        value: 0,
                        low: 0,
                        known: false
                    };
                    w * h
                ]
            })
            .collect();
        TagTree { dims, levels }
    }

    /// Set leaf `(x, y)` to `value`, updating internal minima. Must be
    /// called for all leaves before the first `encode`.
    pub fn set_value(&mut self, x: usize, y: usize, value: u32) {
        let (w, _) = self.dims[0];
        self.levels[0][y * w + x].value = value;
        self.propagate_min();
    }

    fn propagate_min(&mut self) {
        for lev in 1..self.levels.len() {
            let (cw, _ch) = self.dims[lev];
            let (pw, ph) = self.dims[lev - 1];
            for y in 0..self.dims[lev].1 {
                for x in 0..cw {
                    let mut m = u32::MAX;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let (px, py) = (2 * x + dx, 2 * y + dy);
                            if px < pw && py < ph {
                                m = m.min(self.levels[lev - 1][py * pw + px].value);
                            }
                        }
                    }
                    self.levels[lev][y * cw + x].value = m;
                }
            }
        }
    }

    fn path(&self, x: usize, y: usize) -> Vec<(usize, usize)> {
        // (level, index) pairs from root down to the leaf.
        let mut p = Vec::with_capacity(self.levels.len());
        for lev in (0..self.levels.len()).rev() {
            let (w, _) = self.dims[lev];
            let (lx, ly) = (x >> lev, y >> lev);
            p.push((lev, ly * w + lx));
        }
        p
    }

    /// Encode whether leaf `(x, y)`'s value is `< threshold`, emitting only
    /// bits the decoder does not already know. Returns that predicate.
    pub fn encode(&mut self, x: usize, y: usize, threshold: u32, out: &mut RawEncoder) -> bool {
        let mut carried = 0u32;
        for (lev, idx) in self.path(x, y) {
            let n = &mut self.levels[lev][idx];
            if n.low < carried {
                n.low = carried;
            }
            while !n.known && n.low < threshold {
                if n.low == n.value {
                    out.put(1);
                    n.known = true;
                } else {
                    out.put(0);
                    n.low += 1;
                }
            }
            carried = n.low.min(threshold);
        }
        let (w, _) = self.dims[0];
        let leaf = &self.levels[0][y * w + x];
        leaf.known && leaf.value < threshold
    }

    /// Decoder mirror of [`TagTree::encode`].
    pub fn decode(&mut self, x: usize, y: usize, threshold: u32, inp: &mut RawDecoder<'_>) -> bool {
        let mut carried = 0u32;
        for (lev, idx) in self.path(x, y) {
            let n = &mut self.levels[lev][idx];
            if n.low < carried {
                n.low = carried;
            }
            while !n.known && n.low < threshold {
                if inp.get() == 1 {
                    n.known = true;
                } else {
                    n.low += 1;
                }
            }
            carried = n.low.min(threshold);
        }
        let (w, _) = self.dims[0];
        let leaf = &self.levels[0][y * w + x];
        leaf.known && leaf.low < threshold
    }

    /// Encode leaf `(x, y)`'s exact value by raising the threshold until the
    /// tree resolves it (used for zero-bit-plane counts).
    pub fn encode_value(&mut self, x: usize, y: usize, out: &mut RawEncoder) {
        let mut t = 1;
        while !self.encode(x, y, t, out) {
            t += 1;
        }
    }

    /// Decoder mirror of [`TagTree::encode_value`]; returns the value.
    pub fn decode_value(&mut self, x: usize, y: usize, inp: &mut RawDecoder<'_>) -> u32 {
        let mut t = 1;
        while !self.decode(x, y, t, inp) {
            t += 1;
        }
        let (w, _) = self.dims[0];
        self.levels[0][y * w + x].low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_values(w: usize, h: usize, values: &[u32]) {
        let mut enc_tree = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc_tree.set_value(x, y, values[y * w + x]);
            }
        }
        let mut out = RawEncoder::new();
        for y in 0..h {
            for x in 0..w {
                enc_tree.encode_value(x, y, &mut out);
            }
        }
        let bytes = out.finish();
        let mut dec_tree = TagTree::new(w, h);
        let mut inp = RawDecoder::new(&bytes);
        for y in 0..h {
            for x in 0..w {
                assert_eq!(
                    dec_tree.decode_value(x, y, &mut inp),
                    values[y * w + x],
                    "({x},{y}) of {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn single_leaf() {
        roundtrip_values(1, 1, &[0]);
        roundtrip_values(1, 1, &[7]);
    }

    #[test]
    fn small_grids() {
        roundtrip_values(2, 2, &[3, 1, 0, 2]);
        roundtrip_values(3, 2, &[5, 5, 5, 5, 5, 5]);
        roundtrip_values(4, 4, &(0..16).map(|i| (i * 7) % 5).collect::<Vec<_>>());
        roundtrip_values(5, 3, &[9, 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9]);
    }

    #[test]
    fn threshold_queries_roundtrip() {
        // Layered inclusion usage: query each leaf with rising thresholds.
        let w = 3;
        let h = 3;
        let values = [2u32, 0, 1, 3, 2, 0, 1, 1, 4];
        let mut enc_tree = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc_tree.set_value(x, y, values[y * w + x]);
            }
        }
        let mut out = RawEncoder::new();
        let mut expected = Vec::new();
        for t in 1..=5u32 {
            for y in 0..h {
                for x in 0..w {
                    expected.push(enc_tree.encode(x, y, t, &mut out));
                }
            }
        }
        let bytes = out.finish();
        let mut dec_tree = TagTree::new(w, h);
        let mut inp = RawDecoder::new(&bytes);
        let mut got = Vec::new();
        for t in 1..=5u32 {
            for y in 0..h {
                for x in 0..w {
                    got.push(dec_tree.decode(x, y, t, &mut inp));
                }
            }
        }
        assert_eq!(got, expected);
        // Threshold above every value resolves all leaves truthfully.
        for (i, &v) in values.iter().enumerate() {
            let idx = 4 * w * h + i; // t = 5 block
            assert_eq!(expected[idx], v < 5);
        }
    }

    #[test]
    fn min_propagation_saves_bits() {
        // A tree whose minimum is large should cost fewer bits than coding
        // each leaf independently: the root absorbs the common prefix.
        let n = 4;
        let mut tree = TagTree::new(n, n);
        for y in 0..n {
            for x in 0..n {
                tree.set_value(x, y, 10);
            }
        }
        let mut out = RawEncoder::new();
        for y in 0..n {
            for x in 0..n {
                tree.encode_value(x, y, &mut out);
            }
        }
        let bytes = out.finish();
        // Naive unary would be 16 * 11 bits = 22 bytes; the tree shares the
        // climb to 10 among ancestors.
        assert!(bytes.len() < 16, "{} bytes", bytes.len());
    }
}
