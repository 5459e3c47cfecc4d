//! Known-answer digests for the HT block coder: the exact bytes and
//! bookkeeping of `encode_block` and the exact output of `decode_block`.
//!
//! The round-trip tests elsewhere pass for any encoder and decoder that
//! change together; these do not. Each block of a seeded table (widths 1,
//! 2, 5 and 64, odd and even heights, sparse, dense, all-negative and
//! deep contents) has two digests:
//!
//! * encode: `data`, `pass_ends`, `num_planes`, and every pass's type,
//!   plane, `rate_bytes`, `symbols` and `dist_reduction.to_bits()`;
//! * decode: `decode_block` of every pass prefix, with `midpoint` off and
//!   on.
//!
//! The digests pin the HT segment format: a faster MEL, VLC or MagSgn
//! path that is meant to keep the bytes must leave them as they are.

use ebcot::block::PassType;
use j2k_ht::{decode_block, encode_block};

/// 64-bit FNV-1a: a fixed, std-only digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[derive(Clone, Copy, Debug)]
enum Content {
    Sparse,
    Dense,
    AllNegative,
    /// Magnitudes of every bit length from 1 to 31 (up to `i32::MAX`, the
    /// 31 planes the codestream decoder accepts) with both signs, and a
    /// few zeros: the widest MagSgn words, unary runs up to 28 and the
    /// deep-plane distortion sums.
    Deep,
}

const WIDTHS: [usize; 4] = [1, 2, 5, 64];
/// Odd heights leave a half-empty last quad row; even ones do not.
const HEIGHTS: [usize; 4] = [1, 2, 5, 64];
const CONTENTS: [Content; 3] = [Content::Sparse, Content::Dense, Content::AllNegative];

struct Case {
    w: usize,
    h: usize,
    content: Content,
}

/// The 48 shallow cases, then every shape again with deep content (the
/// deep cases came later; appending them keeps the earlier seeds).
fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for w in WIDTHS {
        for h in HEIGHTS {
            for content in CONTENTS {
                v.push(Case { w, h, content });
            }
        }
    }
    for w in WIDTHS {
        for h in HEIGHTS {
            v.push(Case {
                w,
                h,
                content: Content::Deep,
            });
        }
    }
    v
}

/// Block contents from an LCG seeded by the case index.
fn block(i: usize, n: usize, content: Content) -> Vec<i32> {
    let mut x = (i as u32).wrapping_mul(2_654_435_761) | 1;
    let mut next = move || {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        x >> 8
    };
    (0..n)
        .map(|_| {
            let r = next();
            match content {
                // About one sample in eleven is nonzero, some of them large:
                // mostly insignificant quads (MEL runs) broken by isolated
                // significant samples.
                Content::Sparse => {
                    if r % 11 == 0 {
                        let m = (next() % 3000) as i32 + 1;
                        if r & 0x100 == 0 {
                            m
                        } else {
                            -m
                        }
                    } else {
                        0
                    }
                }
                Content::Dense => (r % 4001) as i32 - 2000,
                Content::AllNegative => -((r % 300) as i32 + 1),
                Content::Deep => {
                    let bits = r % 32;
                    if bits == 0 {
                        0
                    } else {
                        let top = 1u32 << (bits - 1);
                        let low = (next() << 8) ^ next();
                        let m = (top | (low & (top - 1))) as i32;
                        if r & 0x100 == 0 {
                            m
                        } else {
                            -m
                        }
                    }
                }
            }
        })
        .collect()
}

fn pass_code(pt: PassType) -> u8 {
    match pt {
        PassType::SigProp => 0,
        PassType::MagRef => 1,
        PassType::Cleanup => 2,
    }
}

/// (encode digest, decode digest) of one case.
fn digests(i: usize, c: &Case) -> (u64, u64) {
    let data = block(i, c.w * c.h, c.content);
    let blk = encode_block(&data, c.w, c.h);

    let mut e = Fnv::new();
    e.u64(blk.data.len() as u64);
    e.bytes(&blk.data);
    e.u64(blk.num_planes as u64);
    for &end in &blk.pass_ends {
        e.u64(end as u64);
    }
    for p in &blk.passes {
        e.bytes(&[pass_code(p.pass_type), p.plane]);
        e.u64(p.rate_bytes as u64);
        e.u64(p.symbols);
        e.u64(p.dist_reduction.to_bits());
    }

    let mut d = Fnv::new();
    for keep in 0..=blk.passes.len() {
        let bytes = blk.bytes_for_passes(keep);
        for midpoint in [false, true] {
            let got = decode_block(
                &blk.data[..bytes],
                &blk.pass_ends[..keep],
                keep,
                c.w,
                c.h,
                blk.num_planes,
                midpoint,
            )
            .expect("a block of this coder's own making decodes");
            for v in got {
                d.bytes(&v.to_le_bytes());
            }
        }
    }
    (e.0, d.0)
}

/// Recorded digests, one per case in [`cases`] order. The 16 deep ones
/// were taken from the bit-at-a-time coder, before its word-wide rewrite.
const EXPECTED: [(u64, u64); 64] = [
    (0x88201fb960ff6465, 0xa8c7f832281a39c5), // 1x1 Sparse
    (0x3dd365acc562f131, 0x5cc48d912de46b73), // 1x1 Dense
    (0xa9832f5aa108828e, 0x6bfb23409aa7ce97), // 1x1 AllNegative
    (0x88201fb960ff6465, 0x88201fb960ff6465), // 1x2 Sparse
    (0xb5ff5d3932565d5f, 0xe8248ffa2a11fc61), // 1x2 Dense
    (0x3108598bcdc079ae, 0xc266abf63e2e3b69), // 1x2 AllNegative
    (0x88201fb960ff6465, 0x40d69e0cf0f65c45), // 1x5 Sparse
    (0x228216c958f0f410, 0x3199383cc68c045b), // 1x5 Dense
    (0xa514a0ee7a529fe0, 0x12fe826b5bf8558b), // 1x5 AllNegative
    (0xdb82ca2801b298e1, 0x93595bb4df005461), // 1x64 Sparse
    (0x4c074d06ac9d7489, 0x1f765a5ef6983fdd), // 1x64 Dense
    (0x6a95f6b9649564fb, 0x9ad1d30f159e3edf), // 1x64 AllNegative
    (0x88201fb960ff6465, 0x88201fb960ff6465), // 2x1 Sparse
    (0xc6fb558a2c47ca6c, 0xc619d50c9c5ab769), // 2x1 Dense
    (0xb077a8a835f174eb, 0x6df13c50fb35f179), // 2x1 AllNegative
    (0x88201fb960ff6465, 0x0c8210784d8af5a5), // 2x2 Sparse
    (0xf8a9582aa056aa94, 0xbc23ae4c13b8a521), // 2x2 Dense
    (0x5cfc3a2fd1ee8a4b, 0x99f184f98216861d), // 2x2 AllNegative
    (0x4dca84dbaf55c8e1, 0x8e2678097ceb878b), // 2x5 Sparse
    (0xb90791854f9956b2, 0x9e4828c805cbb815), // 2x5 Dense
    (0x5bbd156122d31a9a, 0x440e9a10539ab7d5), // 2x5 AllNegative
    (0x4c483d00fd3412ed, 0x390683678173bbff), // 2x64 Sparse
    (0x353ab58da41d0677, 0xd1ae1a1a660483e7), // 2x64 Dense
    (0x698bab45ec99ce56, 0xd9d8758eb296539b), // 2x64 AllNegative
    (0xd76fd7bada1d86eb, 0x5cb723363789b965), // 5x1 Sparse
    (0xf76432f0d4cb3978, 0xe6833f00ae226d8f), // 5x1 Dense
    (0x2f078d725e4000e6, 0xf8b9984d999e19a9), // 5x1 AllNegative
    (0x810b7e34e4003065, 0x3f4d59beccaba4b3), // 5x2 Sparse
    (0xd418ce73d7da3326, 0x5425e15ae0f707d5), // 5x2 Dense
    (0x594a5e327b304e30, 0x331eb9d664aeffc9), // 5x2 AllNegative
    (0x1651cb118145fe96, 0xb05db7e7cc0b9fd3), // 5x5 Sparse
    (0x0f961960ce83091d, 0xbcf4c2c95856921b), // 5x5 Dense
    (0xf10d607cfaa123b2, 0x7e55ffff8cfc4733), // 5x5 AllNegative
    (0x71d4ec5ae73a6ddb, 0x9788a9eb3d8f57ed), // 5x64 Sparse
    (0x6d45f2759e2ee709, 0xe32f5904defba439), // 5x64 Dense
    (0x926b7c68dde23699, 0xdfa96fabfe3d07a7), // 5x64 AllNegative
    (0xf79d6a7fe86cfc34, 0xb679e97faa406ddb), // 64x1 Sparse
    (0x4b2a22842a3e74c2, 0xa8f3070bd3bf0681), // 64x1 Dense
    (0x24b723695113ef74, 0x62260f040daaf605), // 64x1 AllNegative
    (0x830b96dbbc7c7984, 0x66bebff5db154311), // 64x2 Sparse
    (0xd6a8fbdf72b8bba6, 0x6b03ce70c32e1641), // 64x2 Dense
    (0x9f9e55ab3beb9828, 0x23b23f127d967644), // 64x2 AllNegative
    (0x2393874ce9c57f80, 0x9ae629937bc03cdd), // 64x5 Sparse
    (0x0a3000983688746c, 0x25913f7601939534), // 64x5 Dense
    (0x3ed846fa22646bda, 0x39fe169b02bd8d90), // 64x5 AllNegative
    (0x5e4e94449b9047a7, 0x1acfdf506c586345), // 64x64 Sparse
    (0x5a4958a3ced343b8, 0xcdb8c36191c9fa4b), // 64x64 Dense
    (0xb4ad944c77a10729, 0xbd1a6a507ff4b55d), // 64x64 AllNegative
    (0xe72601f9451237ae, 0xd33714318a0a1e8f), // 1x1 Deep
    (0x52dbdbb6116c6a45, 0x93d119c40c7fc3cd), // 1x2 Deep
    (0x97fcfabe78b14bce, 0x902ebac88d96870b), // 1x5 Deep
    (0x84854dce01118ea3, 0xb7ff5b3645591495), // 1x64 Deep
    (0xf1d69769208c34b3, 0x3b5c2a33aa522d25), // 2x1 Deep
    (0xa024061623cd69e5, 0x2be87c91e485da6d), // 2x2 Deep
    (0xf15ea7263e7d13fd, 0xf9421c147f60658d), // 2x5 Deep
    (0x3898e484c4523b53, 0x3cdaf4843921f6e9), // 2x64 Deep
    (0x6d132103673d2172, 0x8c80c62310f9879f), // 5x1 Deep
    (0x53fbfd2b7e24eaed, 0x780e9a8c62014f9b), // 5x2 Deep
    (0x5fc13338dfdaa750, 0x1af390bb80a9ce61), // 5x5 Deep
    (0xf21859b0ab035bda, 0x3bb7dbf46f34ac51), // 5x64 Deep
    (0xc3242fd3d293112a, 0xa6ef094caa8347f1), // 64x1 Deep
    (0xfd888d4f294789f8, 0xbdf61e34cf9f6883), // 64x2 Deep
    (0x6cff265d93f7a1ad, 0x27d7edfd78a5d393), // 64x5 Deep
    (0x7c052cbd66a668e3, 0xc9818959e1e5b551), // 64x64 Deep
];

/// The deep content reaches what it is there to pin: a 64×64 block of
/// 31 planes whose quads hold exponents 29 apart (cleanup floor 2), so
/// the MagSgn words are 29 bits wide and the unary offsets reach 28.
#[test]
fn deep_content_spans_every_plane() {
    let (i, c) = cases()
        .into_iter()
        .enumerate()
        .find(|(_, c)| matches!(c.content, Content::Deep) && c.w == 64 && c.h == 64)
        .unwrap();
    let data = block(i, c.w * c.h, c.content);
    assert_eq!(encode_block(&data, c.w, c.h).num_planes, 31);
    let exp = |x: usize, y: usize| 32 - (data[y * c.w + x].unsigned_abs() >> 2).leading_zeros();
    let mut widest_offset = 0;
    for qy in 0..c.h / 2 {
        for qx in 0..c.w / 2 {
            let es = [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(dx, dy)| exp(2 * qx + dx, 2 * qy + dy));
            let u_q = *es.iter().max().unwrap();
            for e in es.into_iter().filter(|&e| e > 0) {
                widest_offset = widest_offset.max(u_q - e);
            }
        }
    }
    assert_eq!(widest_offset, 28);
}

#[test]
fn ht_digests_are_unchanged() {
    let cases = cases();
    let got: Vec<(u64, u64)> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| digests(i, c))
        .collect();
    let mut bad = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        if EXPECTED.get(i) != Some(&got[i]) {
            bad.push(format!(
                "case {i}: {}x{} {:?}: got ({:#018x}, {:#018x}), want {:?}",
                c.w,
                c.h,
                c.content,
                got[i].0,
                got[i].1,
                EXPECTED.get(i)
            ));
        }
    }
    if !bad.is_empty() || cases.len() != EXPECTED.len() {
        let table: Vec<String> = cases
            .iter()
            .zip(&got)
            .map(|(c, (e, d))| {
                format!(
                    "    ({e:#018x}, {d:#018x}), // {}x{} {:?}",
                    c.w, c.h, c.content
                )
            })
            .collect();
        panic!(
            "{} of {} blocks changed:\n{}\n\ncurrent table:\n{}",
            bad.len(),
            cases.len(),
            bad.join("\n"),
            table.join("\n")
        );
    }
}
