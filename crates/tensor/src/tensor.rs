//! Channel-major three-dimensional `f32` tensors.

use crate::shape::Shape3;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense `C × H × W` tensor of `f32` values in channel-major layout.
///
/// `Tensor3` is the activation format shared by the CNN simulator
/// (`eva2-cnn`), the warp engine (`eva2-core`), and the sparse activation
/// store. It deliberately stays small: the workspace needs predictable,
/// easily-audited numerics rather than a general N-d array library.
///
/// # Example
///
/// ```
/// use eva2_tensor::{Shape3, Tensor3};
///
/// let mut t = Tensor3::zeros(Shape3::new(1, 2, 2));
/// t.set(0, 1, 1, 3.5);
/// assert_eq!(t.get(0, 1, 1), 3.5);
/// assert_eq!(t.iter().copied().sum::<f32>(), 3.5);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor3 {
    shape: Shape3,
    data: Vec<f32>,
}

impl Tensor3 {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape3) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: Shape3, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Creates a tensor by evaluating `f(c, y, x)` at every coordinate.
    pub fn from_fn<F: FnMut(usize, usize, usize) -> f32>(shape: Shape3, mut f: F) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for c in 0..shape.channels {
            for y in 0..shape.height {
                for x in 0..shape.width {
                    data.push(f(c, y, x));
                }
            }
        }
        Self { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape3, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub const fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Reads the value at `(c, y, x)`.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.shape.index(c, y, x)]
    }

    /// Reads `(c, y, x)` treating out-of-bounds spatial coordinates as zero.
    ///
    /// This is the zero-padding convention of convolutional layers: the
    /// channel must be valid, but `y`/`x` may fall outside the frame.
    #[inline]
    pub fn get_padded(&self, c: usize, y: isize, x: isize) -> f32 {
        if self.shape.contains_spatial(y, x) {
            self.data[self.shape.index(c, y as usize, x as usize)]
        } else {
            0.0
        }
    }

    /// Writes `value` at `(c, y, x)`.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: f32) {
        let i = self.shape.index(c, y, x);
        self.data[i] = value;
    }

    /// Adds `value` at `(c, y, x)`.
    #[inline]
    pub fn add_at(&mut self, c: usize, y: usize, x: usize, value: f32) {
        let i = self.shape.index(c, y, x);
        self.data[i] += value;
    }

    /// Immutable view of the flat channel-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat channel-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One channel plane as a row-major slice.
    pub fn channel(&self, c: usize) -> &[f32] {
        let plane = self.shape.plane_len();
        &self.data[c * plane..(c + 1) * plane]
    }

    /// One channel plane as a mutable row-major slice.
    pub fn channel_mut(&mut self, c: usize) -> &mut [f32] {
        let plane = self.shape.plane_len();
        &mut self.data[c * plane..(c + 1) * plane]
    }

    /// Iterator over all elements in channel-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over all elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Self {
        Self {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two equally-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn zip_with<F: FnMut(f32, f32) -> f32>(&self, other: &Self, mut f: F) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_with");
        Self {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Largest element, or `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element, or `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Sum of absolute differences against an equally-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn l1_distance(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in l1_distance");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .sum()
    }

    /// Root-mean-square difference against an equally-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ.
    pub fn rms_distance(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in rms_distance");
        if self.data.is_empty() {
            return 0.0;
        }
        let sq: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        (sq / self.data.len() as f32).sqrt()
    }

    /// Fraction of elements whose magnitude is at most `threshold`.
    ///
    /// CNN activations after ReLU are highly sparse; the paper exploits this
    /// for its run-length activation store (§II-C2).
    pub fn sparsity(&self, threshold: f32) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|v| v.abs() <= threshold).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Translates every channel plane by `(dy, dx)`, filling vacated pixels
    /// with zero. Positive `dy`/`dx` move content down/right.
    ///
    /// This is the `δ(x)` operator of §II-B and backs the
    /// convolution/translation commutativity tests.
    pub fn translate(&self, dy: isize, dx: isize) -> Self {
        let s = self.shape;
        Self::from_fn(s, |c, y, x| {
            self.get_padded(c, y as isize - dy, x as isize - dx)
        })
    }

    /// Index of the largest element (channel-major order).
    ///
    /// Useful for argmax over a `C × 1 × 1` classification output.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl fmt::Debug for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor3({}, min={:.3}, max={:.3}, mean={:.3})",
            self.shape,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

impl Add<&Tensor3> for &Tensor3 {
    type Output = Tensor3;

    fn add(self, rhs: &Tensor3) -> Tensor3 {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor3> for &Tensor3 {
    type Output = Tensor3;

    fn sub(self, rhs: &Tensor3) -> Tensor3 {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor3 {
    type Output = Tensor3;

    fn mul(self, rhs: f32) -> Tensor3 {
        self.map(|v| v * rhs)
    }
}

impl AddAssign<&Tensor3> for Tensor3 {
    fn add_assign(&mut self, rhs: &Tensor3) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch in +=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor() -> Tensor3 {
        Tensor3::from_fn(Shape3::new(2, 3, 3), |c, y, x| (c * 9 + y * 3 + x) as f32)
    }

    #[test]
    fn constructors() {
        let z = Tensor3::zeros(Shape3::new(2, 2, 2));
        assert!(z.iter().all(|&v| v == 0.0));
        let f = Tensor3::filled(Shape3::new(1, 2, 2), 7.0);
        assert!(f.iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor3::zeros(Shape3::new(2, 2, 2));
        t.set(1, 1, 0, 4.0);
        assert_eq!(t.get(1, 1, 0), 4.0);
        t.add_at(1, 1, 0, 1.0);
        assert_eq!(t.get(1, 1, 0), 5.0);
    }

    #[test]
    fn padded_reads_are_zero_outside() {
        let t = seq_tensor();
        assert_eq!(t.get_padded(0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, 3), 0.0);
        assert_eq!(t.get_padded(1, 2, 2), 17.0);
    }

    #[test]
    fn channel_views() {
        let t = seq_tensor();
        assert_eq!(t.channel(0), (0..9).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(t.channel(1)[0], 9.0);
    }

    #[test]
    fn reductions() {
        let t = seq_tensor();
        assert_eq!(t.max(), 17.0);
        assert_eq!(t.min(), 0.0);
        assert!((t.mean() - 8.5).abs() < 1e-6);
        assert_eq!(t.argmax(), 17);
    }

    #[test]
    fn distances() {
        let a = Tensor3::filled(Shape3::new(1, 2, 2), 1.0);
        let b = Tensor3::filled(Shape3::new(1, 2, 2), 3.0);
        assert_eq!(a.l1_distance(&b), 8.0);
        assert!((a.rms_distance(&b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sparsity_counts_near_zero() {
        let t = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![0.0, 0.005, -0.5, 2.0]);
        assert_eq!(t.sparsity(0.01), 0.5);
        assert_eq!(t.sparsity(0.0), 0.25);
    }

    #[test]
    fn translate_moves_content() {
        let t = seq_tensor();
        let shifted = t.translate(0, 1);
        // Column 0 is vacated.
        assert_eq!(shifted.get(0, 0, 0), 0.0);
        assert_eq!(shifted.get(0, 0, 1), t.get(0, 0, 0));
        assert_eq!(shifted.get(1, 2, 2), t.get(1, 2, 1));
    }

    #[test]
    fn translate_by_zero_is_identity() {
        let t = seq_tensor();
        assert_eq!(t.translate(0, 0), t);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor3::filled(Shape3::new(1, 1, 2), 2.0);
        let b = Tensor3::filled(Shape3::new(1, 1, 2), 3.0);
        assert_eq!((&a + &b).as_slice(), &[5.0, 5.0]);
        assert_eq!((&b - &a).as_slice(), &[1.0, 1.0]);
        assert_eq!((&a * 4.0).as_slice(), &[8.0, 8.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[5.0, 5.0]);
    }

    #[test]
    fn map_and_zip() {
        let t = seq_tensor();
        let doubled = t.map(|v| v * 2.0);
        assert_eq!(doubled.get(1, 2, 2), 34.0);
        let summed = t.zip_with(&t, |a, b| a + b);
        assert_eq!(summed, doubled);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = seq_tensor();
        assert!(format!("{t:?}").contains("Tensor3"));
    }
}
