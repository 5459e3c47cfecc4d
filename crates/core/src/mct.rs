//! Level shift and multi-component transforms, merged into one pass over
//! the samples ("the level shift and inter-component transform stages are
//! merged to minimize the data transfer", Section 3.2).

use xpart::AlignedPlane;

/// Forward reversible color transform (RCT, Annex G.2) with level shift.
/// Operates in place on the three component planes. Chroma outputs need
/// one extra bit of dynamic range.
pub fn forward_rct_shift(planes: &mut [AlignedPlane<i32>], shift: i32) {
    assert_eq!(planes.len(), 3);
    let h = planes[0].height();
    let (p0, rest) = planes.split_at_mut(1);
    let (p1, p2) = rest.split_at_mut(1);
    for y in 0..h {
        crate::kernels::rct_forward_row(
            p0[0].row_mut(y),
            p1[0].row_mut(y),
            p2[0].row_mut(y),
            shift,
        );
    }
}

/// Inverse RCT with level unshift.
pub fn inverse_rct_shift(planes: &mut [AlignedPlane<i32>], shift: i32) {
    assert_eq!(planes.len(), 3);
    let h = planes[0].height();
    let (p0, rest) = planes.split_at_mut(1);
    let (p1, p2) = rest.split_at_mut(1);
    for y in 0..h {
        crate::kernels::rct_inverse_row(
            p0[0].row_mut(y),
            p1[0].row_mut(y),
            p2[0].row_mut(y),
            shift,
        );
    }
}

/// Forward irreversible color transform (ICT, Annex G.3) with level shift,
/// integer planes in, float planes out.
pub fn forward_ict_shift(planes: &[AlignedPlane<i32>], shift: f32) -> Vec<AlignedPlane<f32>> {
    assert_eq!(planes.len(), 3);
    let (w, h) = (planes[0].width(), planes[0].height());
    let mut out: Vec<AlignedPlane<f32>> = (0..3)
        .map(|_| AlignedPlane::new(w, h).expect("geometry"))
        .collect();
    let (o0, rest) = out.split_at_mut(1);
    let (o1, o2) = rest.split_at_mut(1);
    for y in 0..h {
        crate::kernels::ict_forward_row(
            planes[0].row(y),
            planes[1].row(y),
            planes[2].row(y),
            o0[0].row_mut(y),
            o1[0].row_mut(y),
            o2[0].row_mut(y),
            shift,
        );
    }
    out
}

/// Inverse ICT with level unshift, float planes in, integer planes out.
pub fn inverse_ict_shift(planes: &[AlignedPlane<f32>], shift: f32) -> Vec<AlignedPlane<i32>> {
    assert_eq!(planes.len(), 3);
    let (w, h) = (planes[0].width(), planes[0].height());
    let mut out: Vec<AlignedPlane<i32>> = (0..3)
        .map(|_| AlignedPlane::new(w, h).expect("geometry"))
        .collect();
    let (o0, rest) = out.split_at_mut(1);
    let (o1, o2) = rest.split_at_mut(1);
    for y in 0..h {
        crate::kernels::ict_inverse_row(
            planes[0].row(y),
            planes[1].row(y),
            planes[2].row(y),
            o0[0].row_mut(y),
            o1[0].row_mut(y),
            o2[0].row_mut(y),
            shift,
        );
    }
    out
}

/// Plain level shift for non-RGB images (in place).
pub fn level_shift(plane: &mut AlignedPlane<i32>, shift: i32) {
    for y in 0..plane.height() {
        crate::kernels::level_shift_row(plane.row_mut(y), shift);
    }
}

/// Inverse level shift (in place).
pub fn level_unshift(plane: &mut AlignedPlane<i32>, shift: i32) {
    for y in 0..plane.height() {
        crate::kernels::level_shift_row(plane.row_mut(y), -shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rgb_planes(seed: u32) -> Vec<AlignedPlane<i32>> {
        let mut x = seed | 1;
        (0..3)
            .map(|_| {
                let mut p = AlignedPlane::<i32>::new(9, 7).unwrap();
                p.for_each_mut(|_, _, v| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    *v = ((x >> 9) % 256) as i32;
                });
                p
            })
            .collect()
    }

    #[test]
    fn rct_roundtrip_exact() {
        let orig = rgb_planes(1);
        let mut p = orig.clone();
        forward_rct_shift(&mut p, 128);
        inverse_rct_shift(&mut p, 128);
        for c in 0..3 {
            assert_eq!(p[c].to_dense(), orig[c].to_dense(), "component {c}");
        }
    }

    #[test]
    fn rct_decorrelates_gray() {
        // R = G = B means U = V = 0 and Y = sample - shift.
        let mut p: Vec<AlignedPlane<i32>> = (0..3)
            .map(|_| {
                let mut q = AlignedPlane::<i32>::new(4, 4).unwrap();
                q.for_each_mut(|x, y, v| *v = (40 + x * 10 + y) as i32);
                q
            })
            .collect();
        forward_rct_shift(&mut p, 128);
        assert!(p[1].to_dense().iter().all(|&v| v == 0));
        assert!(p[2].to_dense().iter().all(|&v| v == 0));
        assert_eq!(p[0].get(0, 0), 40 - 128);
    }

    #[test]
    fn rct_chroma_range_is_one_extra_bit() {
        // Extremes: R=255,G=0,B=255 -> U=V=255; R=0,G=255,B=0 -> U=V=-255.
        let mut p: Vec<AlignedPlane<i32>> = (0..3)
            .map(|_| AlignedPlane::<i32>::new(1, 1).unwrap())
            .collect();
        p[0].set(0, 0, 255);
        p[1].set(0, 0, 0);
        p[2].set(0, 0, 255);
        forward_rct_shift(&mut p, 128);
        assert_eq!(p[1].get(0, 0), 255);
        assert!(p[1].get(0, 0).unsigned_abs() < (1 << 9));
    }

    #[test]
    fn ict_roundtrip_close() {
        let orig = rgb_planes(2);
        let f = forward_ict_shift(&orig, 128.0);
        let back = inverse_ict_shift(&f, 128.0);
        for c in 0..3 {
            for (g, e) in back[c].to_dense().iter().zip(orig[c].to_dense()) {
                assert!((g - e).abs() <= 1, "component {c}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn ict_luma_of_gray_is_value() {
        let mut p: Vec<AlignedPlane<i32>> = (0..3)
            .map(|_| AlignedPlane::<i32>::new(1, 1).unwrap())
            .collect();
        for plane in p.iter_mut() {
            plane.set(0, 0, 200);
        }
        let f = forward_ict_shift(&p, 128.0);
        assert!((f[0].get(0, 0) - 72.0).abs() < 0.01);
        assert!(f[1].get(0, 0).abs() < 0.01);
        assert!(f[2].get(0, 0).abs() < 0.01);
    }

    #[test]
    fn level_shift_roundtrip() {
        let mut p = AlignedPlane::<i32>::new(3, 3).unwrap();
        p.for_each_mut(|x, _, v| *v = x as i32 * 100);
        let orig = p.clone();
        level_shift(&mut p, 128);
        assert_eq!(p.get(0, 0), -128);
        level_unshift(&mut p, 128);
        assert_eq!(p.to_dense(), orig.to_dense());
    }
}
