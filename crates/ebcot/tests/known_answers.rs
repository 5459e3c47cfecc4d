//! Known-answer digests for Tier-1: the exact bytes and bookkeeping of
//! `encode_block_opts` and the exact output of `decode_block_opts`.
//!
//! The round-trip tests elsewhere pass for any encoder and decoder that
//! change together; these do not. Each block of a seeded table (every
//! stripe remainder `h % 4`, widths 1, 2, 5 and 64, all three band kinds,
//! bypass off and on, sparse, dense and all-negative contents) has two
//! digests:
//!
//! * encode: `data`, `pass_ends`, `num_planes`, and every pass's type,
//!   plane, `rate_bytes`, `symbols` and `dist_reduction.to_bits()`;
//! * decode: `decode_block_opts` of every pass prefix, with `midpoint`
//!   off and on.
//!
//! The digests pin the codestream format: a change to the pass state or the
//! MQ coder that is meant to keep the bytes must leave them as they are.
//!
//! `encode_block_pair` must equal two `encode_block_opts` calls field for
//! field, over ordered pairs of the same blocks with bypass off and on,
//! and over edge pairs: an all-zero block, a one-row block and a shallow
//! block each next to a dense deep one.

use ebcot::block::{
    decode_block_opts, encode_block_opts, encode_block_pair, BandKind, EncodedBlock, PassType,
};

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
}

const WIDTHS: [usize; 4] = [1, 2, 5, 64];
/// One height per stripe remainder: 3, 1, 2 and 0 rows in the last stripe.
const HEIGHTS: [usize; 4] = [3, 5, 6, 64];
const KINDS: [BandKind; 3] = [BandKind::LlLh, BandKind::Hl, BandKind::Hh];
const CONTENTS: [Content; 3] = [Content::Sparse, Content::Dense, Content::AllNegative];

struct Case {
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
    content: Content,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    for w in WIDTHS {
        for h in HEIGHTS {
            for kind in KINDS {
                for bypass in [false, true] {
                    for content in CONTENTS {
                        v.push(Case {
                            w,
                            h,
                            kind,
                            bypass,
                            content,
                        });
                    }
                }
            }
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
                // long cleanup runs broken by isolated significant samples.
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
    let blk = encode_block_opts(&data, c.w, c.h, c.kind, c.bypass);

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
            let got = decode_block_opts(
                &blk.data[..bytes],
                &blk.pass_ends[..keep],
                keep,
                c.w,
                c.h,
                c.kind,
                blk.num_planes,
                midpoint,
                c.bypass,
            );
            for v in got {
                d.bytes(&v.to_le_bytes());
            }
        }
    }
    (e.0, d.0)
}

/// Recorded digests, one per case in [`cases`] order.
const EXPECTED: [(u64, u64); 288] = [
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 LlLh mq Sparse
    (0xdfe847a68a1bd0d5, 0xbf8673b32aca66ca), // 1x3 LlLh mq Dense
    (0x7412e1aefd69ef40, 0xac92714847c5bdc0), // 1x3 LlLh mq AllNegative
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 LlLh bypass Sparse
    (0xd12c244af5226190, 0x5d98be34dee1ba7e), // 1x3 LlLh bypass Dense
    (0x44578e417488b607, 0x8a604e38e62a27f0), // 1x3 LlLh bypass AllNegative
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 Hl mq Sparse
    (0x412946447a4c5851, 0xb317da91737b0c37), // 1x3 Hl mq Dense
    (0x68186968c106a1b0, 0x3c3f27b7e0040468), // 1x3 Hl mq AllNegative
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 Hl bypass Sparse
    (0xc013aef84a0eec71, 0xf1013c68f7358b2b), // 1x3 Hl bypass Dense
    (0xf7e08d3f9a602a78, 0xd995bbc199222fe8), // 1x3 Hl bypass AllNegative
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 Hh mq Sparse
    (0x539d3895d82fff76, 0x3e989bdc4235c026), // 1x3 Hh mq Dense
    (0x0ef3f18b945d21c2, 0xb6e5a0031491cd38), // 1x3 Hh mq AllNegative
    (0x88201fb960ff6465, 0x81d23fd7003c2305), // 1x3 Hh bypass Sparse
    (0xf4f6cdf8aeca952f, 0xa68171adbf3428ed), // 1x3 Hh bypass Dense
    (0x7decb5587fb66098, 0x22fcc5c63fa14510), // 1x3 Hh bypass AllNegative
    (0x88201fb960ff6465, 0x40d69e0cf0f65c45), // 1x5 LlLh mq Sparse
    (0xb4f168003dd16620, 0xc922902a3af95588), // 1x5 LlLh mq Dense
    (0x4f9d808420c77922, 0xe3e9086f3a99c123), // 1x5 LlLh mq AllNegative
    (0x88201fb960ff6465, 0x40d69e0cf0f65c45), // 1x5 LlLh bypass Sparse
    (0xbec1d428835dac9b, 0xf11f605cfd88c875), // 1x5 LlLh bypass Dense
    (0x3c1e66332492ae49, 0xa002c3f082a31683), // 1x5 LlLh bypass AllNegative
    (0xdd12eda870753668, 0x1821fadba091b604), // 1x5 Hl mq Sparse
    (0x225257c2fb582f55, 0x0793a0833f18cbbe), // 1x5 Hl mq Dense
    (0xa109c7745d664c2a, 0x35de24189a8cb3ae), // 1x5 Hl mq AllNegative
    (0x9649bd0e7b6347ef, 0x0b838c90c94f71be), // 1x5 Hl bypass Sparse
    (0x5cd2baa5cd05f439, 0x0210927e882b502e), // 1x5 Hl bypass Dense
    (0x6e654a06815f2d71, 0x97085586e60206af), // 1x5 Hl bypass AllNegative
    (0x88201fb960ff6465, 0x40d69e0cf0f65c45), // 1x5 Hh mq Sparse
    (0x2feb83e6ad9e6615, 0x93cf1f15c9d38553), // 1x5 Hh mq Dense
    (0xbc3c9c5729e34e16, 0x8b16390e90d2ab20), // 1x5 Hh mq AllNegative
    (0x88201fb960ff6465, 0x40d69e0cf0f65c45), // 1x5 Hh bypass Sparse
    (0x8ed19c1e3b449069, 0x8eeaf59822777d11), // 1x5 Hh bypass Dense
    (0x18791b32f6409b47, 0x2afe03d09b444fd7), // 1x5 Hh bypass AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 1x6 LlLh mq Sparse
    (0xe760d9fafc34a20d, 0xd28c95ac70625bf7), // 1x6 LlLh mq Dense
    (0xcf20d819fe26e0a4, 0xd53f6009db597bfd), // 1x6 LlLh mq AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 1x6 LlLh bypass Sparse
    (0xa7676320e960b2b1, 0xcaaa4ab326a79ab7), // 1x6 LlLh bypass Dense
    (0x76da413251d7468e, 0xaaa578a8d3e7968e), // 1x6 LlLh bypass AllNegative
    (0xecc87926d9302a2b, 0x965f0872532d0c42), // 1x6 Hl mq Sparse
    (0x2f3cc7689c1ba2ef, 0xe44ecf55682cfb03), // 1x6 Hl mq Dense
    (0x98fd2947d4dc5c61, 0xae692f0365d40f61), // 1x6 Hl mq AllNegative
    (0x0bc2aab13c133316, 0xd4950625f5fd5479), // 1x6 Hl bypass Sparse
    (0xa7435967e4235d21, 0xda8d5b26898642c6), // 1x6 Hl bypass Dense
    (0xfced6a4db1589db7, 0x84d2184eedaf932e), // 1x6 Hl bypass AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 1x6 Hh mq Sparse
    (0x23712bc5622001ab, 0xcaa85fb7f840999f), // 1x6 Hh mq Dense
    (0xe4127b51ecdd8d22, 0xef448283edc86895), // 1x6 Hh mq AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 1x6 Hh bypass Sparse
    (0x9494e22853133d40, 0x00fe2eb51285482a), // 1x6 Hh bypass Dense
    (0xadeaf38066bc2439, 0x16a0ffd1628246f9), // 1x6 Hh bypass AllNegative
    (0xc87d4e51113c8f87, 0x40ddd6555e88c08a), // 1x64 LlLh mq Sparse
    (0xe9874896ee6ccaf6, 0xeddeb13848fa883b), // 1x64 LlLh mq Dense
    (0x71667210d1a81235, 0x6809f396da6be6bd), // 1x64 LlLh mq AllNegative
    (0x28a721a53d6ceb83, 0xb85617da96029411), // 1x64 LlLh bypass Sparse
    (0x2870f923a28f191e, 0xe22ef9ee0cf315d4), // 1x64 LlLh bypass Dense
    (0xd43a0b55e05a758e, 0xdc8f737ba6c58ff6), // 1x64 LlLh bypass AllNegative
    (0x9fa61d03a550925c, 0x04e618feeac04943), // 1x64 Hl mq Sparse
    (0x8bdb61ef172633c5, 0x18b26e078af075ac), // 1x64 Hl mq Dense
    (0xd150cd407e08a664, 0x57c6e287ce31b5ff), // 1x64 Hl mq AllNegative
    (0xb03f461fe06e0752, 0x06d96dea9959ab53), // 1x64 Hl bypass Sparse
    (0x2d42c64b4b0a4918, 0x4279af22c3f5e607), // 1x64 Hl bypass Dense
    (0x7adc90203a049ce3, 0xd4dcdcfcf6a8b361), // 1x64 Hl bypass AllNegative
    (0x51479af41c848659, 0x5ef005be29488201), // 1x64 Hh mq Sparse
    (0x2a726566f9c7f5c3, 0x71fdcb5de7d7fd13), // 1x64 Hh mq Dense
    (0xbc1a5d1baee3c9c7, 0xa1c04739be937461), // 1x64 Hh mq AllNegative
    (0x8d3c698d787e03ce, 0x7205e6c6338936e5), // 1x64 Hh bypass Sparse
    (0x3534f2b853175b81, 0x895ea6502d572b4b), // 1x64 Hh bypass Dense
    (0xedb8f3e89fbf678c, 0xad422e5b25b2cc12), // 1x64 Hh bypass AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 2x3 LlLh mq Sparse
    (0x5ebe295a964ef981, 0xb8df84c393bd07fe), // 2x3 LlLh mq Dense
    (0x421ae644b0a465a4, 0x001f315891a562d1), // 2x3 LlLh mq AllNegative
    (0x99a0321d24e5f8fa, 0x0f93d0f1beecedb7), // 2x3 LlLh bypass Sparse
    (0x4dde86383e0204a3, 0x92f9dce951334e36), // 2x3 LlLh bypass Dense
    (0xdd8ebbc7e4734f2d, 0xb3049160f2b59625), // 2x3 LlLh bypass AllNegative
    (0x121f55645e9e089c, 0x9f1399c9ac56d545), // 2x3 Hl mq Sparse
    (0x62778eea3a84f272, 0xd519cb15b7f90028), // 2x3 Hl mq Dense
    (0xd756131e9993a9a1, 0x453942a7840a693d), // 2x3 Hl mq AllNegative
    (0x3e5b7e43e4852f00, 0x54d69624ddc5af25), // 2x3 Hl bypass Sparse
    (0xedfdb5d656bd3fbd, 0x0362654a8ab50179), // 2x3 Hl bypass Dense
    (0xdfa3ddca6b3604be, 0x4ff6e514d8d8aa06), // 2x3 Hl bypass AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 2x3 Hh mq Sparse
    (0xdc3bf3278713de7a, 0xb9b476ea032483e1), // 2x3 Hh mq Dense
    (0x96d3bf13d6b8f3e5, 0x66a997d8ced1787d), // 2x3 Hh mq AllNegative
    (0x88201fb960ff6465, 0xa09d945a1cd8d6e5), // 2x3 Hh bypass Sparse
    (0x94712288deb4bf73, 0x1870cbf5f12c6e42), // 2x3 Hh bypass Dense
    (0xd1cd878abefe57db, 0x6c4cc5776d96312e), // 2x3 Hh bypass AllNegative
    (0x7bcaf18714e38f63, 0x3e2344b34e7f9c47), // 2x5 LlLh mq Sparse
    (0x44dd950204096a80, 0xa52eeb3cb47a1513), // 2x5 LlLh mq Dense
    (0x27c4c154b92c48d4, 0x544f2b682265e886), // 2x5 LlLh mq AllNegative
    (0x47de6eb6289d74e1, 0x85d3576d1410ef6c), // 2x5 LlLh bypass Sparse
    (0x45ef9ff80dbb28aa, 0x7beeddc7eb343e25), // 2x5 LlLh bypass Dense
    (0xbb058300b6df220e, 0x048bdc25f7835aa5), // 2x5 LlLh bypass AllNegative
    (0x0dbe88193a7ddfcb, 0x8aaa2397d1be89a7), // 2x5 Hl mq Sparse
    (0xb20b149aa23af71f, 0x2f8bfa6bab5e8bfd), // 2x5 Hl mq Dense
    (0xc8c79d5b8d51e0ff, 0x0289d6e4a66abf95), // 2x5 Hl mq AllNegative
    (0x7a99ee7de4730c76, 0x93e2b711cbcfa6dc), // 2x5 Hl bypass Sparse
    (0xb6ff215ae7a09618, 0x921197a3aaaebeb8), // 2x5 Hl bypass Dense
    (0xac1c43c12d6f4074, 0x38f0c7a4dd1da312), // 2x5 Hl bypass AllNegative
    (0x88201fb960ff6465, 0xf14b84b8290b8965), // 2x5 Hh mq Sparse
    (0xed9b78b2c681e286, 0x59cb96b202a08d9b), // 2x5 Hh mq Dense
    (0xe7c7b7a9d38b0efe, 0x132247cc1a24640a), // 2x5 Hh mq AllNegative
    (0x88201fb960ff6465, 0xf14b84b8290b8965), // 2x5 Hh bypass Sparse
    (0x2734db096e572492, 0x4136bf315b22cc8f), // 2x5 Hh bypass Dense
    (0x8071afce584111fa, 0x30a17b99b8f27b00), // 2x5 Hh bypass AllNegative
    (0x88201fb960ff6465, 0x0243cfa845185aa5), // 2x6 LlLh mq Sparse
    (0x359dcd32c4a82a2e, 0xfc6329e0bbe67fe0), // 2x6 LlLh mq Dense
    (0xcc01c31de8e91092, 0x22f0b94811da5a85), // 2x6 LlLh mq AllNegative
    (0x1504f07362018b8c, 0x32b7f3affaefd605), // 2x6 LlLh bypass Sparse
    (0x03fd16897afaf343, 0xe70213ce3c4bdfc5), // 2x6 LlLh bypass Dense
    (0x4759f846cc414cf4, 0xcf19533f53325171), // 2x6 LlLh bypass AllNegative
    (0xef15a0b3d7c49b86, 0x76da4b9c61fbda3a), // 2x6 Hl mq Sparse
    (0x7828cb452f334d68, 0xf042db07a9bfb179), // 2x6 Hl mq Dense
    (0x7f5cde41b2d09d3e, 0x70f801e4739963ed), // 2x6 Hl mq AllNegative
    (0x600bb23461e561eb, 0xd810e791adef575b), // 2x6 Hl bypass Sparse
    (0xffa3235eb0e6dff8, 0x09a4fd687b9d99ba), // 2x6 Hl bypass Dense
    (0x8bc451077aa35e75, 0xdc06ba83ce701179), // 2x6 Hl bypass AllNegative
    (0x88201fb960ff6465, 0x0243cfa845185aa5), // 2x6 Hh mq Sparse
    (0xca484d1f42b0f4d0, 0x465a69cf18e8132c), // 2x6 Hh mq Dense
    (0x6c4949d0f92668fb, 0x2e733c17b4712725), // 2x6 Hh mq AllNegative
    (0x88201fb960ff6465, 0x0243cfa845185aa5), // 2x6 Hh bypass Sparse
    (0x086aa91cf42e492b, 0xfac4cb3c3da82341), // 2x6 Hh bypass Dense
    (0x2c18d1a128cd6602, 0xd4afc928b29dba24), // 2x6 Hh bypass AllNegative
    (0x1193f7ed64dc0995, 0x7cfa89088b673290), // 2x64 LlLh mq Sparse
    (0xb3ac8fdfd174ad8f, 0xf94c8fdc20328089), // 2x64 LlLh mq Dense
    (0xe28e97f4be632043, 0x8ea7426a7611d748), // 2x64 LlLh mq AllNegative
    (0xad1305f3875cbcb1, 0x8bdcbb867fab8219), // 2x64 LlLh bypass Sparse
    (0x082bbd77154b637f, 0x1d8b18eddb83763a), // 2x64 LlLh bypass Dense
    (0x47b8f69b847ff093, 0x3e77c9eb1cfb2a4e), // 2x64 LlLh bypass AllNegative
    (0x1ff5679f8f0acaf9, 0xf925efebeab2054a), // 2x64 Hl mq Sparse
    (0xbc3cc31815edf9af, 0x124fde8b8e57eb35), // 2x64 Hl mq Dense
    (0x8134d8a198404a9a, 0x80e70c5ae15188ba), // 2x64 Hl mq AllNegative
    (0xa12d7adf0ea6f3e6, 0xaa0b3aedd969b0b7), // 2x64 Hl bypass Sparse
    (0x9a22611edfcc3bf5, 0xc965395472fccc91), // 2x64 Hl bypass Dense
    (0x6029270389c62de3, 0x6aafe5fa344f2d91), // 2x64 Hl bypass AllNegative
    (0xd1c577cf97100611, 0x89a962b4bd878160), // 2x64 Hh mq Sparse
    (0x47e66637fcd9845d, 0x836b36b65ea475b8), // 2x64 Hh mq Dense
    (0x3cc688cea6f6d5dd, 0x3b9bd31c5def864d), // 2x64 Hh mq AllNegative
    (0x9bb3f00c1d87eea3, 0x2345b80088d3ed05), // 2x64 Hh bypass Sparse
    (0xf5a8632615f90b85, 0x2cc80ebdf068ed80), // 2x64 Hh bypass Dense
    (0xcfffcd928625d85a, 0xede811166e4cf9de), // 2x64 Hh bypass AllNegative
    (0xde85fa86591bf726, 0x343d42359887d1f8), // 5x3 LlLh mq Sparse
    (0x72cd713e8fe0f3bf, 0x475744cd24df2c22), // 5x3 LlLh mq Dense
    (0x6ec01f556332e6a0, 0x7b8292c652cf9c54), // 5x3 LlLh mq AllNegative
    (0x9696fb3458080e82, 0x2d0ec739cf306341), // 5x3 LlLh bypass Sparse
    (0x1daa5b6b3dd9f165, 0x52cc6b4b6e3f8f8b), // 5x3 LlLh bypass Dense
    (0x5d317e18239c598b, 0xf145a259c26e89b8), // 5x3 LlLh bypass AllNegative
    (0x6a082a9919b7fc50, 0x9afa39e61b8fcc67), // 5x3 Hl mq Sparse
    (0xf099d274540370bb, 0x1e2c5408cccde85c), // 5x3 Hl mq Dense
    (0x9cdc19845ddb7d49, 0x4d30b2f8fb106ab8), // 5x3 Hl mq AllNegative
    (0xe8809a5e4e900930, 0xf79243cd59c76960), // 5x3 Hl bypass Sparse
    (0x92c8bfe0f54d28d2, 0xbca0b2ed29d13ee3), // 5x3 Hl bypass Dense
    (0xa2da8d8d09985a4a, 0x33ce374b4629d690), // 5x3 Hl bypass AllNegative
    (0x2d63d197b588a335, 0xfa9c00d6b1bba2bc), // 5x3 Hh mq Sparse
    (0xd6af1046da814b28, 0xa43e2b068c82590b), // 5x3 Hh mq Dense
    (0x88558e56a7591e12, 0x6b5fda3928454713), // 5x3 Hh mq AllNegative
    (0x992f23fbbe6b3f01, 0xe2bd25346fa5b6fe), // 5x3 Hh bypass Sparse
    (0xeb6f4420aa4e4ef0, 0x15e293f8ab62e99b), // 5x3 Hh bypass Dense
    (0xf2b9c3dd4afd44af, 0x08eded7a61abdb6b), // 5x3 Hh bypass AllNegative
    (0x02b07591d60912d8, 0x8f9e3e3e01084818), // 5x5 LlLh mq Sparse
    (0x2cf33cdc73b63179, 0x49d984101ccb0dbf), // 5x5 LlLh mq Dense
    (0x06d64087ee56286b, 0xb6322d3206697317), // 5x5 LlLh mq AllNegative
    (0xc52738aa9c679281, 0x387632f29414cabf), // 5x5 LlLh bypass Sparse
    (0x3170e7ed47eaa241, 0x642df6a460671c43), // 5x5 LlLh bypass Dense
    (0x8fff97267152d020, 0xf9cec424c6f73765), // 5x5 LlLh bypass AllNegative
    (0xbc61a672e65c5399, 0x62c6e24bebf3e026), // 5x5 Hl mq Sparse
    (0x153dad09f0478484, 0xf51810eacdf9aaad), // 5x5 Hl mq Dense
    (0xc4fb1ceed695f700, 0x27c1c4a5219c801f), // 5x5 Hl mq AllNegative
    (0x0a39dea33192656d, 0x1c52c93eef984d75), // 5x5 Hl bypass Sparse
    (0x6613a6256d69b1ab, 0x40de59762473e8ab), // 5x5 Hl bypass Dense
    (0xe18779d3cdb0f9e2, 0x9e5fef8bd8e77990), // 5x5 Hl bypass AllNegative
    (0x3e5bed110b287dc6, 0x8836add05c5d9acc), // 5x5 Hh mq Sparse
    (0xe3169cbb5589e7c2, 0x9b602a89ce37a770), // 5x5 Hh mq Dense
    (0x1c93e724e118bec5, 0x3e9db6aea314f5bb), // 5x5 Hh mq AllNegative
    (0x88201fb960ff6465, 0x37027190f725c8c5), // 5x5 Hh bypass Sparse
    (0x3a5b11711d6d37f4, 0x4ceef209d874b812), // 5x5 Hh bypass Dense
    (0x5462ebfcdf1ea98b, 0x7a8ca82056a88df9), // 5x5 Hh bypass AllNegative
    (0x25c59c129aefbeac, 0x0494152b867e32f8), // 5x6 LlLh mq Sparse
    (0xf0883312f3a08372, 0xbb59b37ac561f86b), // 5x6 LlLh mq Dense
    (0xce873fd5d03452be, 0xfbb2c6fcba3777ee), // 5x6 LlLh mq AllNegative
    (0x807afe4f63aedc49, 0x21808ac36bac0e44), // 5x6 LlLh bypass Sparse
    (0x2d1767f303121cd5, 0xdccee9b5d3882e30), // 5x6 LlLh bypass Dense
    (0xbf2584724471b34c, 0x11dee3558f9f5011), // 5x6 LlLh bypass AllNegative
    (0x6ea69268430b4db4, 0x827b9e7986db94e8), // 5x6 Hl mq Sparse
    (0x3876e456f45b3e4a, 0x308ddaef1c870c2c), // 5x6 Hl mq Dense
    (0x135f947caa8afafd, 0x01440260ccdf0632), // 5x6 Hl mq AllNegative
    (0x145075272986b504, 0x3db550a3a4c4acf9), // 5x6 Hl bypass Sparse
    (0x4aaa192fc9c8cade, 0xd073816e891d975e), // 5x6 Hl bypass Dense
    (0x6445b2266dc55a59, 0x28136a6a8349f92e), // 5x6 Hl bypass AllNegative
    (0xe8233e58f65c22d6, 0x71dee4aed669e138), // 5x6 Hh mq Sparse
    (0x8b4ee886a8a93e33, 0xf7ee8a37430c18bb), // 5x6 Hh mq Dense
    (0x015aee80aea8ebe9, 0x2e4c67134563a772), // 5x6 Hh mq AllNegative
    (0x08addb82596cc70c, 0xc1754b76d5ad5896), // 5x6 Hh bypass Sparse
    (0x236d9598160a401b, 0x7f8b0c2c9d50c300), // 5x6 Hh bypass Dense
    (0x3708127a693e9736, 0x975db44ed1fa5d24), // 5x6 Hh bypass AllNegative
    (0x9c31f8a23b231d3b, 0x3ad7e96284503df8), // 5x64 LlLh mq Sparse
    (0xa211f367a481ab76, 0x3c1660758b837cf1), // 5x64 LlLh mq Dense
    (0x1084c4b7d1b7cf89, 0xcd326145118912e7), // 5x64 LlLh mq AllNegative
    (0x345b66fed5a4b0a5, 0xd65302859d19ba85), // 5x64 LlLh bypass Sparse
    (0x618303879da43535, 0x466209adddfecf02), // 5x64 LlLh bypass Dense
    (0x4acb82bba12e6478, 0xfc6fa85d0146e8c2), // 5x64 LlLh bypass AllNegative
    (0x56818249406c0a18, 0xf3e1286c028b859a), // 5x64 Hl mq Sparse
    (0xa93f9350504c0de2, 0x0c78335c9396ce29), // 5x64 Hl mq Dense
    (0xd1fa12c79ab82b80, 0x84524e992a3dfac4), // 5x64 Hl mq AllNegative
    (0x4f804609b6cd88a4, 0x191a295edb002d5f), // 5x64 Hl bypass Sparse
    (0x34c0ac643e502c80, 0x5a6541b5e91f81be), // 5x64 Hl bypass Dense
    (0xfcc3d25c8688522e, 0x139df0fc6ba77d92), // 5x64 Hl bypass AllNegative
    (0x948e244bc40e35cc, 0x33f269f26e124d15), // 5x64 Hh mq Sparse
    (0x1d4aa3e838fa9c32, 0x75706625fca82a6e), // 5x64 Hh mq Dense
    (0xaa97c97557ec8bd5, 0xdbe67f1fd429f00e), // 5x64 Hh mq AllNegative
    (0x3d36bf139f719261, 0xeec9e5f7f57d035b), // 5x64 Hh bypass Sparse
    (0x0055b3f095fa264b, 0x1e75d147ed6e47a1), // 5x64 Hh bypass Dense
    (0x45dfa5d11dd18b8d, 0x1d582c8c91fc1d61), // 5x64 Hh bypass AllNegative
    (0x1a21e51661847796, 0xf1e7e470c133175b), // 64x3 LlLh mq Sparse
    (0xa410685f02f70126, 0x22c991008f5daac4), // 64x3 LlLh mq Dense
    (0xa1c78692a84f3dcd, 0x44df33424819c8be), // 64x3 LlLh mq AllNegative
    (0x9122e5b13d443a62, 0x6fa129dc2577c220), // 64x3 LlLh bypass Sparse
    (0xba7e46f3c43c1fa8, 0x7018cb5b4a1dc36a), // 64x3 LlLh bypass Dense
    (0x64c90630ecfe9c27, 0x00188ca4b366f171), // 64x3 LlLh bypass AllNegative
    (0xe3f0ef2066d57a59, 0x0d52552fefcd3cc5), // 64x3 Hl mq Sparse
    (0x4dff965e107eeddc, 0x9c2b0ecc1d4514e5), // 64x3 Hl mq Dense
    (0x4ba7497b9d365dd9, 0x1a00a8f630520e9e), // 64x3 Hl mq AllNegative
    (0xa9667deb83b104f4, 0xfda673a8c0e6428b), // 64x3 Hl bypass Sparse
    (0xf56a47e2d00601d6, 0x0933bb97afcef7f8), // 64x3 Hl bypass Dense
    (0xf5856d712403ba4b, 0x1c0ebdd5bee74c51), // 64x3 Hl bypass AllNegative
    (0xcfb0479463dea75c, 0xdf305433e0f5a3e9), // 64x3 Hh mq Sparse
    (0x42f08a63a0f42b7f, 0x8c03b5a80f45fb4d), // 64x3 Hh mq Dense
    (0xd607bc87b8961b89, 0x7c9c2681c7775859), // 64x3 Hh mq AllNegative
    (0xa0e7fff902871dd9, 0xd558b11fb119aad6), // 64x3 Hh bypass Sparse
    (0x2d27215fb61f7b1e, 0x4faec556ee368b20), // 64x3 Hh bypass Dense
    (0xbb444e9a3086e21e, 0xeb7d2db8f0883298), // 64x3 Hh bypass AllNegative
    (0x1fea074eb6d131a4, 0x746d782a6c628fae), // 64x5 LlLh mq Sparse
    (0xe52e50f64ab93980, 0xfe334b75c49c918f), // 64x5 LlLh mq Dense
    (0x23c5710a8dbcb4e5, 0x17b9a7b67b2ed108), // 64x5 LlLh mq AllNegative
    (0x5792577aefa9757d, 0x2839b35cdce5ba93), // 64x5 LlLh bypass Sparse
    (0xf3636fae8d229a8e, 0xd8a8c8248298a051), // 64x5 LlLh bypass Dense
    (0x027dea6c5f77c801, 0x8c7fb54aa5c0c561), // 64x5 LlLh bypass AllNegative
    (0xd665fde52a67ba1f, 0x9acf38128d566a6b), // 64x5 Hl mq Sparse
    (0x445e0c33b4ab0a24, 0x784222157b2f4e27), // 64x5 Hl mq Dense
    (0x5749e9f4077212ba, 0x95a646b11f23c36a), // 64x5 Hl mq AllNegative
    (0xc1cedaa3fd6d9cd0, 0xc23f0e730f29b009), // 64x5 Hl bypass Sparse
    (0xda6aaa6ad1877902, 0x87fbaf125f424aff), // 64x5 Hl bypass Dense
    (0x2c246af08971545c, 0xc3a98d5912e0fb00), // 64x5 Hl bypass AllNegative
    (0x9d4799dc77cffeee, 0xdf2489dbdaeea57c), // 64x5 Hh mq Sparse
    (0x5b95a49dfdda0ba0, 0x26037ae4d6be5cad), // 64x5 Hh mq Dense
    (0x3cd535e8c8f5d667, 0xec9a69e679e296ca), // 64x5 Hh mq AllNegative
    (0x069ed2f99165dcba, 0xb96a22f623159027), // 64x5 Hh bypass Sparse
    (0xc3f678f1ef47366a, 0x7fd0f1738dc44141), // 64x5 Hh bypass Dense
    (0x30d52d828fe0d551, 0xf8db344b2a904656), // 64x5 Hh bypass AllNegative
    (0xf339280d0fe7f51f, 0xa3d9c1c5b0635a22), // 64x6 LlLh mq Sparse
    (0x3d7a335c1771eac2, 0x9858480705e217c3), // 64x6 LlLh mq Dense
    (0x5ec4b4ef6552d660, 0xb64599fc20862a72), // 64x6 LlLh mq AllNegative
    (0x667a57c29142b719, 0xb38b761a5aa63b97), // 64x6 LlLh bypass Sparse
    (0x9bb85ffcfb57dabe, 0x91efa44151684327), // 64x6 LlLh bypass Dense
    (0xe706779a5f7eb95c, 0xaff501dfb5e8a65c), // 64x6 LlLh bypass AllNegative
    (0x5b375b263b5f39b6, 0x574099551fe6f6d5), // 64x6 Hl mq Sparse
    (0xcc083b132e5de2e4, 0xe6127155f124ed34), // 64x6 Hl mq Dense
    (0x63809c281d344dfb, 0x1020712897462320), // 64x6 Hl mq AllNegative
    (0x036732adda5e3784, 0xe061b21fa5216ef9), // 64x6 Hl bypass Sparse
    (0x90db2ea07917e98a, 0xb7140a73977cd7ac), // 64x6 Hl bypass Dense
    (0x63214f31ecbd79dc, 0xf331b1fd9b96848d), // 64x6 Hl bypass AllNegative
    (0x067bfe5624bdf438, 0x7962affc5b34f9dc), // 64x6 Hh mq Sparse
    (0x210df19da0accf92, 0xa147e26ed260573b), // 64x6 Hh mq Dense
    (0x73ff22eea2da3cd3, 0x7b8dbbe54e18a3f1), // 64x6 Hh mq AllNegative
    (0xf27d9e071b07c853, 0xb57c705970f0cdf2), // 64x6 Hh bypass Sparse
    (0x2fc356e73b01ca38, 0x7ec5cc61ebdecd6b), // 64x6 Hh bypass Dense
    (0x0274347091d6a7a5, 0x0118061e09544845), // 64x6 Hh bypass AllNegative
    (0xba910249fb7dbe57, 0x88cbfca157c8d69c), // 64x64 LlLh mq Sparse
    (0x4e602d109ef9a544, 0x3ab00b8418f1c0df), // 64x64 LlLh mq Dense
    (0x55fc7b1b27a81fd8, 0x28b6d485982120a5), // 64x64 LlLh mq AllNegative
    (0x3947dedb332db0d9, 0x536328ab13d904e5), // 64x64 LlLh bypass Sparse
    (0xc6942f9c98d888be, 0x639614639ca77571), // 64x64 LlLh bypass Dense
    (0x7299a68a58ccc46c, 0x2a39119a8dea3a50), // 64x64 LlLh bypass AllNegative
    (0xc7973a2b5e1a14af, 0xeefbf7dabe1a573d), // 64x64 Hl mq Sparse
    (0x8c149df00ff96b09, 0xc24cff5ceb720dc2), // 64x64 Hl mq Dense
    (0x80142eea5b197262, 0xb0f8042f79efe1f9), // 64x64 Hl mq AllNegative
    (0x0706cbea296d0ddc, 0xedcb8dcdde89143d), // 64x64 Hl bypass Sparse
    (0xcaecd18f1f0c5e33, 0xdb497519ce663e59), // 64x64 Hl bypass Dense
    (0x010d6d264c82ec42, 0xc8988c86dd389918), // 64x64 Hl bypass AllNegative
    (0x48ad1ae9748e84d8, 0x2e08d6d91c075f48), // 64x64 Hh mq Sparse
    (0xc3678e78ae30245c, 0xd6ffb0cb87d43b16), // 64x64 Hh mq Dense
    (0x1bcae56437af5029, 0xc4912d777a51ba96), // 64x64 Hh mq AllNegative
    (0x087baae44beb020d, 0x526f11110d17d886), // 64x64 Hh bypass Sparse
    (0x8135ce2c0763aa22, 0x7b446e0513918799), // 64x64 Hh bypass Dense
    (0x504fa91cefcb3e5f, 0x2f5c1e8bf10e6150), // 64x64 Hh bypass AllNegative
];

#[test]
fn tier1_digests_are_unchanged() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    let mut bad = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let got = digests(i, c);
        if got != EXPECTED[i] {
            bad.push(format!(
                "case {i}: {}x{} {:?} bypass={} {:?}: got ({:#018x}, {:#018x}), want ({:#018x}, {:#018x})",
                c.w, c.h, c.kind, c.bypass, c.content, got.0, got.1, EXPECTED[i].0, EXPECTED[i].1
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "{} of {} blocks changed:\n{}",
        bad.len(),
        cases.len(),
        bad.join("\n")
    );
}

/// `got` equals `want` field for field, `dist_reduction` bit for bit.
fn assert_same(got: &EncodedBlock, want: &EncodedBlock, what: &str) {
    assert_eq!(got.data, want.data, "{what}: data");
    assert_eq!(got.pass_ends, want.pass_ends, "{what}: pass_ends");
    assert_eq!(got.num_planes, want.num_planes, "{what}: num_planes");
    assert_eq!((got.w, got.h), (want.w, want.h), "{what}: size");
    assert_eq!(got.passes.len(), want.passes.len(), "{what}: passes");
    for (k, (g, w)) in got.passes.iter().zip(&want.passes).enumerate() {
        assert_eq!(
            (g.pass_type, g.plane, g.rate_bytes, g.symbols),
            (w.pass_type, w.plane, w.rate_bytes, w.symbols),
            "{what}: pass {k}"
        );
        assert_eq!(
            g.dist_reduction.to_bits(),
            w.dist_reduction.to_bits(),
            "{what}: pass {k} dist_reduction"
        );
    }
}

type Block = (Vec<i32>, usize, usize, BandKind);

/// Code `x` and `y` as a pair and check each against its single encode.
fn check_pair(x: &Block, y: &Block, bypass: bool, what: &str) {
    let pair = encode_block_pair([(&x.0, x.1, x.2, x.3), (&y.0, y.1, y.2, y.3)], bypass);
    for (k, (got, b)) in pair.iter().zip([x, y]).enumerate() {
        let want = encode_block_opts(&b.0, b.1, b.2, b.3, bypass);
        assert_same(got, &want, &format!("{what} bypass={bypass}: block {k}"));
    }
}

#[test]
fn pairs_equal_two_single_encodes() {
    let blocks: Vec<Block> = cases()
        .iter()
        .enumerate()
        .map(|(i, c)| (block(i, c.w * c.h, c.content), c.w, c.h, c.kind))
        .collect();
    let n = blocks.len();
    // Each block with partners near and far, in both orders.
    for i in 0..n {
        for k in [1, 7, 95, n / 2, n - 95, n - 7, n - 1] {
            let j = (i + k) % n;
            for bypass in [false, true] {
                check_pair(&blocks[i], &blocks[j], bypass, &format!("pair ({i}, {j})"));
            }
        }
    }
}

#[test]
fn edge_pairs_equal_two_single_encodes() {
    let dense = |w: usize, h: usize, top: i32, seed: usize| -> Block {
        let mut v = block(seed, w * h, Content::Dense);
        for x in &mut v {
            *x = *x * top / 2000;
        }
        (v, w, h, BandKind::Hl)
    };
    let deep = dense(64, 64, 1 << 14, 3);
    // Each edge block with its coded plane count: the all-zero block has
    // no passes, and the shallow ones are many planes short of `deep`.
    let edges = [
        ("all-zero", (vec![0; 64 * 64], 64, 64, BandKind::LlLh), 0),
        ("one row", dense(64, 1, 1 << 14, 5), 14),
        ("two planes", dense(64, 64, 3, 7), 2),
        ("five planes", dense(32, 8, 31, 9), 5),
    ];
    let planes = |b: &Block| encode_block_opts(&b.0, b.1, b.2, b.3, false).num_planes;
    assert_eq!(planes(&deep), 14);
    for (name, b, want) in &edges {
        assert_eq!(planes(b), *want, "{name}");
        for bypass in [false, true] {
            check_pair(b, &deep, bypass, &format!("{name} then deep"));
            check_pair(&deep, b, bypass, &format!("deep then {name}"));
        }
    }
}
