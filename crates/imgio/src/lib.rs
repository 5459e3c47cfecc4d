//! Image I/O and synthetic workloads.
//!
//! The paper's test input is a 28.3 MB BMP photograph
//! (`waltham_dial.bmp`, 3072x3072 RGB) that is no longer retrievable. The
//! [`synth`] module provides deterministic synthetic substitutes whose
//! bit-plane statistics resemble natural photographs (multi-octave 1/f
//! value noise plus edge content), which is what drives EBCOT workload
//! characteristics and compressibility. BMP (the paper's input format) and
//! PNM readers/writers round out the I/O surface.

pub mod bmp;
pub mod pnm;
pub mod synth;

/// A simple planar image: one dense row-major `u16` plane per component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Bits per sample (1..=16).
    pub bit_depth: u8,
    /// Component planes (1 = grayscale, 3 = RGB), each `width * height`.
    pub planes: Vec<Vec<u16>>,
}

/// Errors from image construction and file I/O.
#[derive(Debug)]
pub enum ImgError {
    /// Geometry/plane mismatch or unsupported parameter.
    Invalid(String),
    /// Malformed file contents.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ImgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImgError::Invalid(m) => write!(f, "invalid image: {m}"),
            ImgError::Format(m) => write!(f, "bad file format: {m}"),
            ImgError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ImgError {}

impl From<std::io::Error> for ImgError {
    fn from(e: std::io::Error) -> Self {
        ImgError::Io(e)
    }
}

impl Image {
    /// A zero-filled image with `comps` components.
    pub fn new(width: usize, height: usize, comps: usize, bit_depth: u8) -> Result<Self, ImgError> {
        if width == 0 || height == 0 || comps == 0 {
            return Err(ImgError::Invalid("zero extent or component count".into()));
        }
        if bit_depth == 0 || bit_depth > 16 {
            return Err(ImgError::Invalid(format!(
                "bit depth {bit_depth} unsupported"
            )));
        }
        Ok(Image {
            width,
            height,
            bit_depth,
            planes: vec![vec![0u16; width * height]; comps],
        })
    }

    /// Number of components.
    #[inline]
    pub fn comps(&self) -> usize {
        self.planes.len()
    }

    /// Maximum sample value for the bit depth.
    #[inline]
    pub fn max_value(&self) -> u16 {
        ((1u32 << self.bit_depth) - 1) as u16
    }

    /// Sample accessor.
    #[inline]
    pub fn get(&self, c: usize, x: usize, y: usize) -> u16 {
        self.planes[c][y * self.width + x]
    }

    /// Sample mutator (clamps to the bit depth).
    #[inline]
    pub fn set(&mut self, c: usize, x: usize, y: usize, v: u16) {
        let m = self.max_value();
        self.planes[c][y * self.width + x] = v.min(m);
    }

    /// Total samples across components.
    pub fn samples(&self) -> usize {
        self.width * self.height * self.comps()
    }

    /// Uncompressed size in bytes at one byte per 8 bits of depth.
    pub fn raw_bytes(&self) -> usize {
        self.samples() * usize::from(self.bit_depth.div_ceil(8))
    }

    /// Validate internal consistency (bit depth, plane sizes, sample
    /// ranges). The depth check must come first: [`Self::max_value`] on
    /// an out-of-range depth would overflow the shift.
    pub fn validate(&self) -> Result<(), ImgError> {
        if self.bit_depth == 0 || self.bit_depth > 16 {
            return Err(ImgError::Invalid(format!(
                "bit depth {} unsupported",
                self.bit_depth
            )));
        }
        let n = self.width * self.height;
        let max = self.max_value();
        for (c, p) in self.planes.iter().enumerate() {
            if p.len() != n {
                return Err(ImgError::Invalid(format!(
                    "plane {c} has {} samples, expected {n}",
                    p.len()
                )));
            }
            if p.iter().any(|&v| v > max) {
                return Err(ImgError::Invalid(format!("plane {c} exceeds bit depth")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let mut im = Image::new(4, 3, 3, 8).unwrap();
        assert_eq!(im.comps(), 3);
        assert_eq!(im.max_value(), 255);
        im.set(1, 2, 1, 300); // clamps
        assert_eq!(im.get(1, 2, 1), 255);
        assert_eq!(im.samples(), 36);
        assert_eq!(im.raw_bytes(), 36);
        im.validate().unwrap();
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(Image::new(0, 3, 1, 8).is_err());
        assert!(Image::new(3, 3, 0, 8).is_err());
        assert!(Image::new(3, 3, 1, 17).is_err());
    }

    #[test]
    fn validate_catches_inconsistency() {
        let mut im = Image::new(2, 2, 1, 8).unwrap();
        im.planes[0].push(0);
        assert!(im.validate().is_err());
        let mut im = Image::new(2, 2, 1, 4).unwrap();
        im.planes[0][0] = 200;
        assert!(im.validate().is_err());
        // Out-of-range depth must error, not overflow max_value's shift.
        let mut im = Image::new(2, 2, 1, 8).unwrap();
        im.bit_depth = 200;
        assert!(im.validate().is_err());
        im.bit_depth = 0;
        assert!(im.validate().is_err());
    }
}
