//! 8-bit grayscale frames.
//!
//! The EVA² hardware front-end operates on raw, uncompressed luma pixels: the
//! paper argues real-time vision systems "save energy by skipping the ISP and
//! video codec" (§II-C1). [`GrayImage`] is that pixel format. Motion
//! estimation (`eva2-motion`) consumes pairs of `GrayImage`s, and the CNN
//! simulator converts them to [`Tensor3`] activations at the network input.

use crate::{Shape3, Tensor3};
use std::fmt;

/// A row-major `H × W` frame of 8-bit luma pixels.
///
/// # Example
///
/// ```
/// use eva2_tensor::GrayImage;
///
/// let img = GrayImage::from_fn(4, 4, |y, x| (y * 4 + x) as u8);
/// assert_eq!(img.get(2, 3), 11);
/// assert_eq!(img.translate(1, 0, 0).get(1, 0), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    height: usize,
    width: usize,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates an all-black frame.
    pub fn zeros(height: usize, width: usize) -> Self {
        Self {
            height,
            width,
            data: vec![0; height * width],
        }
    }

    /// Creates a frame filled with `value`.
    pub fn filled(height: usize, width: usize, value: u8) -> Self {
        Self {
            height,
            width,
            data: vec![value; height * width],
        }
    }

    /// Creates a frame by evaluating `f(y, x)` at every pixel.
    pub fn from_fn<F: FnMut(usize, usize) -> u8>(height: usize, width: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(height * width);
        for y in 0..height {
            for x in 0..width {
                data.push(f(y, x));
            }
        }
        Self {
            height,
            width,
            data,
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != height * width`.
    pub fn from_vec(height: usize, width: usize, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            height * width,
            "buffer length {} does not match {height}x{width}",
            data.len()
        );
        Self {
            height,
            width,
            data,
        }
    }

    /// Frame height in rows.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Frame width in columns.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Reads the pixel at `(y, x)`.
    #[inline]
    pub fn get(&self, y: usize, x: usize) -> u8 {
        debug_assert!(y < self.height && x < self.width);
        self.data[y * self.width + x]
    }

    /// Reads `(y, x)` with out-of-bounds coordinates clamped to the border.
    ///
    /// Border clamping (rather than zero fill) matches what a camera pipeline
    /// produces when a search window extends past the frame edge.
    #[inline]
    pub fn get_clamped(&self, y: isize, x: isize) -> u8 {
        let y = y.clamp(0, self.height as isize - 1) as usize;
        let x = x.clamp(0, self.width as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Reads `(y, x)`, returning `None` outside the frame.
    #[inline]
    pub fn try_get(&self, y: isize, x: isize) -> Option<u8> {
        if y >= 0 && x >= 0 && (y as usize) < self.height && (x as usize) < self.width {
            Some(self.data[y as usize * self.width + x as usize])
        } else {
            None
        }
    }

    /// Writes `value` at `(y, x)`.
    #[inline]
    pub fn set(&mut self, y: usize, x: usize, value: u8) {
        debug_assert!(y < self.height && x < self.width);
        self.data[y * self.width + x] = value;
    }

    /// Immutable view of the row-major pixel buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Bytes of heap memory this frame holds (allocated capacity, not just
    /// occupied length) — the serving engine's per-session memory audit.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity()
    }

    /// Mutable view of the row-major pixel buffer.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Translates the frame by `(dy, dx)`, filling vacated pixels with `fill`.
    /// Positive `dy`/`dx` move content down/right.
    pub fn translate(&self, dy: isize, dx: isize, fill: u8) -> Self {
        Self::from_fn(self.height, self.width, |y, x| {
            self.try_get(y as isize - dy, x as isize - dx)
                .unwrap_or(fill)
        })
    }

    /// Sum of absolute pixel differences against an equally-sized frame.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn sad(&self, other: &Self) -> u64 {
        assert_eq!(
            (self.height, self.width),
            (other.height, other.width),
            "dimension mismatch in sad"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i32 - b as i32).unsigned_abs() as u64)
            .sum()
    }

    /// Converts to a single-channel tensor with pixels scaled to `[0, 1]`.
    pub fn to_tensor(&self) -> Tensor3 {
        Tensor3::from_vec(
            Shape3::new(1, self.height, self.width),
            self.data.iter().map(|&p| p as f32 / 255.0).collect(),
        )
    }

    /// Builds a frame from channel 0 of a tensor, mapping `[0, 1]` to
    /// `[0, 255]` with saturation.
    pub fn from_tensor(t: &Tensor3) -> Self {
        let (h, w) = t.shape().spatial();
        Self::from_fn(h, w, |y, x| {
            (t.get(0, y, x).clamp(0.0, 1.0) * 255.0).round() as u8
        })
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&p| p as f64).sum::<f64>() / self.data.len() as f64
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayImage({}x{}, mean={:.1})",
            self.height,
            self.width,
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient() -> GrayImage {
        GrayImage::from_fn(4, 4, |y, x| (y * 4 + x) as u8)
    }

    #[test]
    fn constructors_and_access() {
        let img = gradient();
        assert_eq!(img.height(), 4);
        assert_eq!(img.width(), 4);
        assert_eq!(img.get(3, 3), 15);
        assert_eq!(GrayImage::filled(2, 2, 9).as_slice(), &[9, 9, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = GrayImage::from_vec(2, 2, vec![0; 3]);
    }

    #[test]
    fn clamped_reads() {
        let img = gradient();
        assert_eq!(img.get_clamped(-5, 0), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(3, 3));
    }

    #[test]
    fn try_get_bounds() {
        let img = gradient();
        assert_eq!(img.try_get(0, 0), Some(0));
        assert_eq!(img.try_get(-1, 0), None);
        assert_eq!(img.try_get(0, 4), None);
    }

    #[test]
    fn translate_fills_vacated() {
        let img = gradient();
        let moved = img.translate(1, 1, 0);
        assert_eq!(moved.get(0, 0), 0);
        assert_eq!(moved.get(1, 1), img.get(0, 0));
        assert_eq!(moved.get(3, 3), img.get(2, 2));
    }

    #[test]
    fn sad_of_identical_is_zero() {
        let img = gradient();
        assert_eq!(img.sad(&img), 0);
    }

    #[test]
    fn sad_counts_differences() {
        let a = GrayImage::filled(2, 2, 10);
        let b = GrayImage::filled(2, 2, 13);
        assert_eq!(a.sad(&b), 12);
    }

    #[test]
    fn tensor_roundtrip() {
        let img = gradient();
        let t = img.to_tensor();
        assert_eq!(t.shape(), Shape3::new(1, 4, 4));
        let back = GrayImage::from_tensor(&t);
        assert_eq!(back, img);
    }

    #[test]
    fn set_writes() {
        let mut img = GrayImage::zeros(2, 2);
        img.set(1, 0, 200);
        assert_eq!(img.get(1, 0), 200);
    }
}
