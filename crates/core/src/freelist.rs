//! Per-thread reuse of working planes.
//!
//! The encoder's working planes and the decoder's component planes are
//! megabytes each, and the allocator hands a freed plane of that size
//! back to the kernel, so a plane mapped fresh on every call is mostly
//! first-touch page faults. Instead each thread keeps, in one slot, the
//! planes its last call used, and the next call of the same sample type
//! and geometry takes them back, as the paper's SPEs size their Local
//! Store buffers once and stream every image through them (§2).
//!
//! The bound: a call takes the whole slot (it is empty while the call
//! runs), keeps the planes of its own sample type, width and height up to
//! the count it needs, drops the rest before it allocates any, and gives
//! back exactly the planes it used. So between calls a thread holds at
//! most its last call's planes, of one sample type, and no thread's peak
//! footprint grows: the planes a call keeps are ones it would have
//! allocated. A call that fails or panics drops its planes and leaves the
//! slot empty. A reused plane is zeroed when it is taken, padding
//! included, as [`AlignedPlane::new`] promises.

use std::cell::RefCell;
use xpart::{AlignedPlane, XpartError};

/// The planes of a thread's last call, of one sample type.
pub(crate) enum Held {
    I32(Vec<AlignedPlane<i32>>),
    F32(Vec<AlignedPlane<f32>>),
}

thread_local! {
    static SLOT: RefCell<Option<Held>> = const { RefCell::new(None) };
}

/// A sample type whose planes the slot can hold.
pub(crate) trait Pooled: Copy + Default + 'static {
    /// `planes`, as the slot holds them.
    fn hold(planes: Vec<AlignedPlane<Self>>) -> Held;
    /// The planes `held` holds, if they are of this type.
    fn of(held: Held) -> Option<Vec<AlignedPlane<Self>>>;
}

impl Pooled for i32 {
    fn hold(planes: Vec<AlignedPlane<i32>>) -> Held {
        Held::I32(planes)
    }
    fn of(held: Held) -> Option<Vec<AlignedPlane<i32>>> {
        match held {
            Held::I32(p) => Some(p),
            Held::F32(_) => None,
        }
    }
}

impl Pooled for f32 {
    fn hold(planes: Vec<AlignedPlane<f32>>) -> Held {
        Held::F32(planes)
    }
    fn of(held: Held) -> Option<Vec<AlignedPlane<f32>>> {
        match held {
            Held::F32(p) => Some(p),
            Held::I32(_) => None,
        }
    }
}

/// `n` zeroed `width × height` planes: this thread's held planes of that
/// type and geometry, zeroed, then fresh ones for the rest.
pub(crate) fn take<T: Pooled>(
    n: usize,
    width: usize,
    height: usize,
) -> Result<Vec<AlignedPlane<T>>, XpartError> {
    // The whole slot; planes of the other type are dropped here. A thread
    // whose slot is already destroyed allocates fresh.
    let mut planes = SLOT
        .try_with(RefCell::take)
        .ok()
        .flatten()
        .and_then(T::of)
        .unwrap_or_default();
    if planes
        .iter()
        .any(|p| (p.width(), p.height()) != (width, height))
    {
        planes.clear();
    }
    planes.truncate(n);
    for p in &mut planes {
        p.as_mut_slice().fill(T::default());
    }
    while planes.len() < n {
        planes.push(AlignedPlane::new(width, height)?);
    }
    Ok(planes)
}

/// Give a call's planes back to this thread's slot, for the next call of
/// their type and geometry to take.
pub(crate) fn give_back<T: Pooled>(planes: Vec<AlignedPlane<T>>) {
    // Whatever the slot holds is dropped outside its borrow.
    drop(SLOT.try_with(|s| s.replace(Some(T::hold(planes)))));
}

/// The width and height of every plane a thread holds: its `i32` planes,
/// then its `f32` planes (one of the two is always empty).
#[cfg(test)]
pub(crate) type HeldDims = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// What this thread holds.
#[cfg(test)]
pub(crate) fn held() -> HeldDims {
    fn dims<T: Copy + Default>(planes: &[AlignedPlane<T>]) -> Vec<(usize, usize)> {
        planes.iter().map(|p| (p.width(), p.height())).collect()
    }
    SLOT.with(|s| match &*s.borrow() {
        None => (vec![], vec![]),
        Some(Held::I32(p)) => (dims(p), vec![]),
        Some(Held::F32(p)) => (vec![], dims(p)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncoderParams;
    use imgio::{synth, Image};
    use obs::trace;

    /// Run `f` on a thread of its own, whose list starts empty.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    /// One call's use of `n` planes: take them, check that every element
    /// reads zero, padding included, then fill them with `v` and give them
    /// back.
    fn call<T: Pooled + PartialEq + std::fmt::Debug>(n: usize, w: usize, h: usize, v: T) {
        let mut planes = take::<T>(n, w, h).unwrap();
        assert_eq!(planes.len(), n);
        for p in &mut planes {
            assert_eq!((p.width(), p.height()), (w, h));
            assert!(p.as_slice().iter().all(|&x| x == T::default()), "{w}x{h}");
            p.as_mut_slice().fill(v);
        }
        give_back(planes);
    }

    #[test]
    fn a_plane_taken_after_another_call_reads_all_zeros_padding_included() {
        on_fresh_thread(|| {
            // 33 columns pad each row, so the fill reaches padding.
            let p = take::<f32>(1, 33, 9).unwrap();
            assert!(p[0].stride() > p[0].width());
            call::<f32>(3, 33, 9, 7.5);
            call::<f32>(2, 33, 9, -1.0);
            // More planes than the slot holds: held and fresh alike.
            call::<f32>(3, 33, 9, f32::NAN);
            call::<f32>(3, 33, 9, 1.0);
            call::<i32>(1, 5, 4, i32::MIN);
            call::<i32>(1, 5, 4, 3);
        });
    }

    #[test]
    fn a_thread_holds_only_its_last_calls_planes() {
        on_fresh_thread(|| {
            let none = || (vec![], vec![]);
            assert_eq!(held(), none());
            call::<i32>(3, 64, 48, 9);
            assert_eq!(held(), (vec![(64, 48); 3], vec![]));
            // A call of the other type empties the slot before it
            // allocates, and leaves only its own planes.
            let taken = take::<f32>(1, 80, 40).unwrap();
            assert_eq!(held(), none(), "a call holds the whole slot");
            give_back(taken);
            assert_eq!(held(), (vec![], vec![(80, 40)]));
            call::<i32>(3, 64, 48, 5);
            assert_eq!(held(), (vec![(64, 48); 3], vec![]));
            // Fewer planes of the same geometry: the extra ones go.
            call::<i32>(1, 64, 48, -4);
            assert_eq!(held(), (vec![(64, 48)], vec![]));
            call::<i32>(3, 64, 48, 5);
            // Another geometry empties the slot before it allocates.
            let taken = take::<i32>(3, 32, 32).unwrap();
            assert_eq!(held(), none(), "a call holds the whole slot");
            give_back(taken);
            assert_eq!(held(), (vec![(32, 32); 3], vec![]));
            call::<i32>(3, 32, 32, 6);
            // A call that fails gives nothing back.
            drop(take::<i32>(3, 32, 32).unwrap());
            assert_eq!(held(), none());
        });
    }

    /// One encode or decode on the calling thread.
    enum Call {
        Encode(Image, EncoderParams),
        Decode(Vec<u8>),
    }

    #[derive(PartialEq)]
    enum Out {
        Bytes(Vec<u8>),
        Image(Image),
    }

    impl Call {
        fn run(&self) -> Out {
            match self {
                Call::Encode(im, params) => Out::Bytes(crate::encode(im, params).unwrap()),
                Call::Decode(bytes) => Out::Image(crate::decode(bytes).unwrap()),
            }
        }
    }

    /// `params` with 16² code blocks, so that a band of these small
    /// images has several.
    fn small_blocks(params: EncoderParams) -> EncoderParams {
        EncoderParams {
            cb_size: 16,
            ..params
        }
    }

    /// A decode of `im` encoded with `params`.
    fn decode_of(im: &Image, params: &EncoderParams) -> Call {
        Call::Decode(crate::encode(im, params).unwrap())
    }

    /// A `w × h` image, flat but for a natural patch in its top-left
    /// quarter: every code block over the flat part codes no pass, so its
    /// stream leaves those blocks out and the decoder writes nothing there.
    fn sparse(w: usize, h: usize, comps: usize) -> Image {
        let patch = if comps == 3 {
            synth::natural_rgb(w / 4, h / 4, 5)
        } else {
            synth::natural(w / 4, h / 4, 5)
        };
        let mut im = Image::new(w, h, comps, 8).unwrap();
        for (c, plane) in im.planes.iter_mut().enumerate() {
            plane.fill(128);
            for y in 0..h / 4 {
                for x in 0..w / 4 {
                    plane[y * w + x] = patch.get(c, x, y);
                }
            }
        }
        im
    }

    /// Run `calls` in turn on one fresh thread, returning each output and
    /// what the thread holds after it ([`held`]).
    fn in_turn(calls: &[Call]) -> Vec<(Out, HeldDims)> {
        on_fresh_thread(|| calls.iter().map(|c| (c.run(), held())).collect())
    }

    /// Each of `calls`, run in turn on one thread, gives what it gives on
    /// a thread of its own.
    fn assert_same_as_fresh(what: &str, calls: &[Call]) {
        for (i, (call, (got, _))) in calls.iter().zip(in_turn(calls)).enumerate() {
            let fresh = on_fresh_thread(|| call.run());
            assert!(
                got == fresh,
                "{what}: call {i} differs from a fresh thread's"
            );
        }
    }

    #[test]
    fn a_sparse_decode_after_a_dense_one_equals_a_fresh_threads() {
        let (w, h) = (96, 80);
        let lossy = small_blocks(EncoderParams::lossy(0.3));
        let lossless = small_blocks(EncoderParams::lossless());
        // The sparse streams leave most blocks out.
        for params in [lossy, lossless] {
            let all = crate::codestream::parse(
                &crate::encode(&synth::natural_rgb(w, h, 1), &params).unwrap(),
            )
            .unwrap();
            let few = crate::codestream::parse(&crate::encode(&sparse(w, h, 3), &params).unwrap())
                .unwrap();
            let (few, all) = (few.blocks.len(), all.blocks.len());
            assert!(2 * few < all, "{:?}: {few} of {all} blocks", params.mode);
        }
        assert_same_as_fresh(
            "f32 planes",
            &[
                decode_of(&synth::natural_rgb(w, h, 1), &lossy),
                decode_of(&sparse(w, h, 3), &lossy),
            ],
        );
        assert_same_as_fresh(
            "i32 planes",
            &[
                decode_of(&synth::natural_rgb(w, h, 1), &lossless),
                decode_of(&sparse(w, h, 3), &lossless),
            ],
        );
    }

    #[test]
    fn a_smaller_geometry_after_a_larger_one_equals_a_fresh_threads() {
        let lossy = small_blocks(EncoderParams::lossy(0.3));
        let lossless = small_blocks(EncoderParams::lossless());
        assert_same_as_fresh(
            "lossy",
            &[
                decode_of(&synth::natural_rgb(96, 80, 1), &lossy),
                decode_of(&synth::natural_rgb(64, 48, 2), &lossy),
                decode_of(&sparse(64, 48, 3), &lossy),
            ],
        );
        assert_same_as_fresh(
            "lossless",
            &[
                decode_of(&synth::natural(96, 80, 1), &lossless),
                decode_of(&synth::natural(64, 48, 2), &lossless),
                decode_of(&sparse(64, 48, 1), &lossless),
            ],
        );
    }

    #[test]
    fn a_lossless_call_after_a_lossy_one_equals_a_fresh_threads() {
        let (w, h) = (96, 80);
        let im = synth::natural_rgb(w, h, 3);
        let q13 = small_blocks(EncoderParams {
            arithmetic: crate::Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.3)
        });
        let lossy = small_blocks(EncoderParams::lossy(0.3));
        let lossless = small_blocks(EncoderParams::lossless());
        // A Q13 encode leaves 9/7 coefficients in `i32` planes, and an
        // `f32` encode in `f32` planes, for the next decode of their type.
        assert_same_as_fresh(
            "after encodes",
            &[
                Call::Encode(im.clone(), q13),
                decode_of(&sparse(w, h, 3), &lossless),
                Call::Encode(im.clone(), lossy),
                decode_of(&sparse(w, h, 3), &lossy),
                Call::Encode(im.clone(), lossless),
                Call::Encode(im, q13),
            ],
        );
    }

    #[test]
    fn repeated_encodes_stop_faulting_their_working_planes() {
        if trace::thread_minor_faults().is_none() {
            eprintln!("no /proc/thread-self/stat: skipped");
            return;
        }
        // 7.1 MB of `f32` working planes, mapped fresh by the first call.
        let im = synth::natural_rgb(768, 768, 1);
        let params = EncoderParams {
            coder: crate::Coder::Ht,
            ..EncoderParams::lossy(0.1)
        };
        // The faults of three calls of `call` on one fresh thread.
        let faults = |call: &Call| {
            on_fresh_thread(|| {
                [(); 3].map(|()| {
                    let before = trace::thread_minor_faults().unwrap();
                    call.run();
                    trace::thread_minor_faults().unwrap() - before
                })
            })
        };
        let encodes = faults(&Call::Encode(im.clone(), params));
        let decodes = faults(&decode_of(&im, &params));
        eprintln!("minor faults per call: encode {encodes:?}, decode {decodes:?}");
        assert!(
            encodes[2] * 10 < encodes[0],
            "third encode took {} faults, the first {}",
            encodes[2],
            encodes[0]
        );
        // The decoded image is the caller's, and may fault afresh.
        assert!(
            decodes[2] * 2 < decodes[0],
            "third decode took {} faults, the first {}",
            decodes[2],
            decodes[0]
        );
    }

    #[test]
    fn a_thread_holds_only_its_last_calls_planes_after_codec_calls() {
        let (big, small) = ((96, 80), (64, 48));
        let lossy = small_blocks(EncoderParams::lossy(0.3));
        let lossless = small_blocks(EncoderParams::lossless());
        let calls = [
            Call::Encode(synth::natural_rgb(96, 80, 1), lossless),
            Call::Encode(synth::natural(64, 48, 2), lossy),
            decode_of(&sparse(64, 48, 1), &lossy),
            decode_of(&synth::natural_rgb(64, 48, 2), &lossless),
            decode_of(&sparse(64, 48, 3), &lossless),
            Call::Encode(synth::natural_rgb(96, 80, 3), lossy),
            decode_of(&synth::natural(96, 80, 3), &lossless),
        ];
        let held: Vec<_> = in_turn(&calls).into_iter().map(|(_, h)| h).collect();
        // Only the last call's planes, of its one type: the other type's
        // are gone.
        let want = [
            (vec![big; 3], vec![]),
            (vec![], vec![small]),
            (vec![], vec![small]),
            (vec![small; 3], vec![]),
            (vec![small; 3], vec![]),
            (vec![], vec![big; 3]),
            (vec![big], vec![]),
        ];
        for (i, (got, want)) in held.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "after call {i}");
        }
        assert_same_as_fresh("geometries and types", &calls);
    }
}
