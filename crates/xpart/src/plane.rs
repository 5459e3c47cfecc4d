//! Row-padded 2-D storage ([`AlignedPlane`]).
//!
//! "First, we pad every row to force the start address of every row to be
//! cache line aligned." — Kang & Bader, Section 2. We realize this by padding
//! the row *stride* to a multiple of [`CACHE_LINE`] bytes; the backing vector
//! is over-allocated so that element 0 of every row begins at a stride
//! boundary. (Heap base alignment on the host is handled by the allocator;
//! all offsets within the buffer are line-aligned, which is what the DMA
//! model checks.)

use crate::{round_up, XpartError, CACHE_LINE};

/// A 2-D plane of `T` whose rows are padded to a cache-line multiple.
///
/// `width` is the logical width in elements; `stride` (≥ width) is the
/// allocated row pitch in elements and satisfies
/// `stride * size_of::<T>() % CACHE_LINE == 0`.
///
/// Samples are stored row-major. Padding elements exist at the end of each
/// row; their contents are unspecified but initialized (zeroed) so the plane
/// can be hashed/compared safely after [`AlignedPlane::zero_padding`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedPlane<T> {
    width: usize,
    height: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> AlignedPlane<T> {
    /// Create a zero-initialized plane of `width x height` logical elements.
    pub fn new(width: usize, height: usize) -> Result<Self, XpartError> {
        if width == 0 {
            return Err(XpartError::EmptyExtent { what: "width" });
        }
        if height == 0 {
            return Err(XpartError::EmptyExtent { what: "height" });
        }
        let elem = std::mem::size_of::<T>();
        if elem == 0 || !CACHE_LINE.is_multiple_of(elem) {
            return Err(XpartError::ElemSizeIncompatible { elem_size: elem });
        }
        let stride = round_up(width * elem, CACHE_LINE) / elem;
        let data = vec![T::default(); stride * height];
        Ok(Self {
            width,
            height,
            stride,
            data,
        })
    }

    /// Build a plane from a dense row-major buffer of `width * height`
    /// elements, inserting row padding.
    pub fn from_dense(width: usize, height: usize, dense: &[T]) -> Result<Self, XpartError> {
        if dense.len() != width * height {
            return Err(XpartError::BufferSizeMismatch {
                expected: width * height,
                got: dense.len(),
            });
        }
        let mut p = Self::new(width, height)?;
        for y in 0..height {
            p.row_mut(y)
                .copy_from_slice(&dense[y * width..(y + 1) * width]);
        }
        Ok(p)
    }

    /// Copy the logical contents back out to a dense row-major vector,
    /// dropping the padding.
    pub fn to_dense(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.width * self.height);
        for y in 0..self.height {
            out.extend_from_slice(self.row(y));
        }
        out
    }

    /// Logical width in elements.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Allocated row pitch in elements (a cache-line multiple in bytes).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row pitch in bytes.
    #[inline]
    pub fn stride_bytes(&self) -> usize {
        self.stride * std::mem::size_of::<T>()
    }

    /// Logical row `y` (without padding).
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let s = y * self.stride;
        &self.data[s..s + self.width]
    }

    /// Mutable logical row `y` (without padding).
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let s = y * self.stride;
        &mut self.data[s..s + self.width]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.stride + x] = v;
    }

    /// The entire padded backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The entire padded backing buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Byte offset of `(x, y)` from the start of the buffer. Used by the DMA
    /// descriptor builder.
    #[inline]
    pub fn byte_offset(&self, x: usize, y: usize) -> usize {
        (y * self.stride + x) * std::mem::size_of::<T>()
    }

    /// Reset every padding element to `T::default()` so whole-buffer
    /// comparisons are deterministic.
    pub fn zero_padding(&mut self) {
        for y in 0..self.height {
            let s = y * self.stride;
            for v in &mut self.data[s + self.width..s + self.stride] {
                *v = T::default();
            }
        }
    }

    /// Apply `f` to every logical element, row by row.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        for y in 0..self.height {
            let s = y * self.stride;
            for (x, v) in self.data[s..s + self.width].iter_mut().enumerate() {
                f(x, y, v);
            }
        }
    }

    /// Map into a new plane of a different element type with the same
    /// geometry.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> AlignedPlane<U> {
        let mut out =
            AlignedPlane::<U>::new(self.width, self.height).expect("geometry already validated");
        for y in 0..self.height {
            let src = self.row(y);
            let dst = out.row_mut(y);
            for (d, s) in dst.iter_mut().zip(src) {
                *d = f(*s);
            }
        }
        out
    }
}

impl AlignedPlane<i32> {
    /// Convert to `f32` samples (used when switching the 9/7 path from
    /// fixed-point to floating point, Section 4).
    pub fn to_f32(&self) -> AlignedPlane<f32> {
        self.map(|v| v as f32)
    }
}

impl AlignedPlane<f32> {
    /// Round-convert to `i32` samples.
    pub fn to_i32_rounded(&self) -> AlignedPlane<i32> {
        self.map(|v| v.round() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_is_line_multiple() {
        for w in [1usize, 31, 32, 33, 100, 1000, 3072] {
            let p = AlignedPlane::<i32>::new(w, 3).unwrap();
            assert_eq!(p.stride_bytes() % CACHE_LINE, 0, "width {w}");
            assert!(p.stride() >= w);
            // Stride never wastes a full extra line.
            assert!(p.stride_bytes() - w * 4 < CACHE_LINE);
        }
    }

    #[test]
    fn dense_round_trip() {
        let dense: Vec<i32> = (0..5 * 7).collect();
        let p = AlignedPlane::from_dense(7, 5, &dense).unwrap();
        assert_eq!(p.to_dense(), dense);
        assert_eq!(p.get(6, 4), 34);
    }

    #[test]
    fn row_offsets_are_line_aligned() {
        let p = AlignedPlane::<i32>::new(33, 9).unwrap();
        for y in 0..9 {
            assert_eq!(p.byte_offset(0, y) % CACHE_LINE, 0);
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            AlignedPlane::<i32>::new(0, 3),
            Err(XpartError::EmptyExtent { what: "width" })
        ));
        assert!(matches!(
            AlignedPlane::<i32>::new(3, 0),
            Err(XpartError::EmptyExtent { what: "height" })
        ));
    }

    #[test]
    fn rejects_bad_buffer_size() {
        let dense = vec![0i32; 10];
        assert!(matches!(
            AlignedPlane::from_dense(3, 4, &dense),
            Err(XpartError::BufferSizeMismatch {
                expected: 12,
                got: 10
            })
        ));
    }

    #[test]
    fn map_preserves_geometry() {
        let p = AlignedPlane::from_dense(3, 2, &[1i32, 2, 3, 4, 5, 6]).unwrap();
        let q = p.map(|v| v * 2);
        assert_eq!(q.to_dense(), vec![2, 4, 6, 8, 10, 12]);
        assert_eq!(q.stride(), p.stride());
    }

    #[test]
    fn f32_conversions() {
        let p = AlignedPlane::from_dense(2, 1, &[-3i32, 4]).unwrap();
        let f = p.to_f32();
        assert_eq!(f.to_dense(), vec![-3.0, 4.0]);
        assert_eq!(f.to_i32_rounded().to_dense(), vec![-3, 4]);
    }

    #[test]
    fn for_each_mut_visits_all_logical_elements() {
        let mut p = AlignedPlane::<i32>::new(5, 4).unwrap();
        let mut n = 0;
        p.for_each_mut(|x, y, v| {
            *v = (x + 10 * y) as i32;
            n += 1;
        });
        assert_eq!(n, 20);
        assert_eq!(p.get(4, 3), 34);
    }

    #[test]
    fn zero_padding_clears_pad_elements() {
        let mut p = AlignedPlane::<i32>::new(5, 2).unwrap();
        // Scribble into the padding via the raw slice.
        let stride = p.stride();
        p.as_mut_slice()[stride - 1] = 99;
        p.zero_padding();
        assert_eq!(p.as_slice()[stride - 1], 0);
    }
}
