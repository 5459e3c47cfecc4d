//! `rowops::split` cuts disjoint regions of one plane into row views:
//! every tiling hands out each element exactly once, overlaps panic, and
//! a view's `dst_src2` reads source rows on either side of its
//! destination.

use wavelet::rowops::{predict53, split, update53, Region, Rows};
use xpart::AlignedPlane;

/// Add 1 to every element of every view; each element of a tiling
/// must then read exactly 1.
fn bump_all(views: Vec<Rows<'_, i32>>) {
    for mut v in views {
        for y in 0..v.height() {
            for e in v.row_mut(y) {
                *e += 1;
            }
        }
    }
}

#[test]
fn split_column_chunks_with_a_remainder_tile_the_plane() {
    let (w, h) = (70usize, 9usize);
    let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
    // Four 16-wide chunks plus a 6-wide remainder, listed out of order.
    let mut regions: Vec<Region> = (0..5)
        .map(|i| Region {
            x0: 16 * i,
            y0: 0,
            w: if i < 4 { 16 } else { w - 64 },
            h,
        })
        .collect();
    regions.swap(0, 3);
    let views = split(&mut p, &regions);
    for (v, r) in views.iter().zip(&regions) {
        assert_eq!((v.width(), v.height()), (r.w, r.h));
    }
    bump_all(views);
    assert!(p.to_dense().iter().all(|&e| e == 1));
    // Padding past the logical width is never handed out.
    assert!(p.as_slice()[w..p.stride()].iter().all(|&e| e == 0));
}

#[test]
fn split_row_bands_tile_the_plane() {
    let (w, h) = (13usize, 10usize);
    let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
    let regions: Vec<Region> = [(0, 4), (4, 4), (8, 2)]
        .into_iter()
        .map(|(y0, bh)| Region {
            x0: 0,
            y0,
            w,
            h: bh,
        })
        .collect();
    let mut views = split(&mut p, &regions);
    views[2].row_mut(1)[12] = 5;
    bump_all(views);
    let dense = p.to_dense();
    assert_eq!(
        dense[9 * w + 12],
        6,
        "band-relative row 1 of band 2 is row 9"
    );
    assert_eq!(dense.iter().filter(|&&e| e == 1).count(), w * h - 1);
}

#[test]
#[should_panic(expected = "overlaps")]
fn split_rejects_overlapping_regions() {
    let mut p = AlignedPlane::<i32>::new(8, 8).unwrap();
    let a = Region {
        x0: 0,
        y0: 0,
        w: 5,
        h: 4,
    };
    let b = Region {
        x0: 4,
        y0: 3,
        w: 4,
        h: 5,
    };
    let _ = split(&mut p, &[a, b]);
}

#[test]
fn dst_src2_reads_above_and_below() {
    let mut p = AlignedPlane::<i32>::new(3, 5).unwrap();
    p.for_each_mut(|x, y, v| *v = (10 * y + x) as i32);
    let r = Region::full(&p);
    let mut rows = Rows::new(&mut p, r);
    let (d, a, b) = rows.dst_src2(2, 1, 4);
    assert_eq!((a, b), (&[10, 11, 12][..], &[40, 41, 42][..]));
    predict53(d, a, b);
    let (d, a, b) = rows.dst_src2(1, 3, 0);
    assert_eq!((a, b), (&[30, 31, 32][..], &[0, 1, 2][..]));
    update53(d, a, b);
    assert_eq!(p.row(2), &[-5, -5, -5]);
    assert_eq!(p.row(1), &[18, 19, 21]);
}

#[test]
fn split_gives_an_empty_region_empty_rows() {
    let mut p = AlignedPlane::<i32>::new(8, 4).unwrap();
    let full = Region::full(&p);
    // Zero columns inside another region's span share no element with it.
    let empty = Region {
        x0: 3,
        y0: 1,
        w: 0,
        h: 2,
    };
    let views = split(&mut p, &[full, empty]);
    assert_eq!((views[1].width(), views[1].height()), (0, 2));
    assert!(views[1].row(1).is_empty());
    bump_all(views);
    assert!(p.to_dense().iter().all(|&e| e == 1));
}
