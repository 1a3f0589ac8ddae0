//! Three-dimensional tensor shapes in channel-major (`C × H × W`) order.

use std::fmt;

/// The shape of a [`Tensor3`](crate::Tensor3): channels × height × width.
///
/// All activation tensors in this workspace are channel-major, matching the
/// layout the EVA² warp engine iterates over (the sparsity decoder lanes walk
/// one channel at a time, §III-B).
///
/// # Example
///
/// ```
/// use eva2_tensor::Shape3;
///
/// let s = Shape3::new(64, 14, 14);
/// assert_eq!(s.len(), 64 * 14 * 14);
/// assert_eq!(s.spatial(), (14, 14));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape3 {
    /// Number of channels (feature maps).
    pub channels: usize,
    /// Spatial height in rows.
    pub height: usize,
    /// Spatial width in columns.
    pub width: usize,
}

impl Shape3 {
    /// Creates a new shape.
    pub const fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Returns `true` when the shape holds no elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(height, width)` spatial extent, dropping the channel dimension.
    pub const fn spatial(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// Number of elements in one channel plane.
    pub const fn plane_len(&self) -> usize {
        self.height * self.width
    }

    /// Flat index of `(c, y, x)` in channel-major order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when any coordinate is out of bounds.
    #[inline]
    pub fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(
            c < self.channels && y < self.height && x < self.width,
            "index ({c}, {y}, {x}) out of bounds for shape {self}"
        );
        (c * self.height + y) * self.width + x
    }

    /// Inverse of [`Shape3::index`]: recovers `(c, y, x)` from a flat index.
    #[inline]
    pub fn coords(&self, flat: usize) -> (usize, usize, usize) {
        let plane = self.plane_len();
        let c = flat / plane;
        let rem = flat % plane;
        (c, rem / self.width, rem % self.width)
    }

    /// Returns `true` when `(y, x)` lies within the spatial bounds.
    #[inline]
    pub const fn contains_spatial(&self, y: isize, x: isize) -> bool {
        y >= 0 && x >= 0 && (y as usize) < self.height && (x as usize) < self.width
    }

    /// Shape with the same spatial extent but a different channel count.
    pub const fn with_channels(&self, channels: usize) -> Self {
        Self::new(channels, self.height, self.width)
    }
}

impl fmt::Display for Shape3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

impl From<(usize, usize, usize)> for Shape3 {
    fn from((c, h, w): (usize, usize, usize)) -> Self {
        Self::new(c, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_plane() {
        let s = Shape3::new(3, 4, 5);
        assert_eq!(s.len(), 60);
        assert_eq!(s.plane_len(), 20);
        assert!(!s.is_empty());
        assert!(Shape3::new(0, 4, 5).is_empty());
    }

    #[test]
    fn index_roundtrip() {
        let s = Shape3::new(3, 4, 5);
        for c in 0..3 {
            for y in 0..4 {
                for x in 0..5 {
                    let flat = s.index(c, y, x);
                    assert_eq!(s.coords(flat), (c, y, x));
                }
            }
        }
    }

    #[test]
    fn index_is_channel_major() {
        let s = Shape3::new(2, 2, 2);
        // Channel 0 occupies the first plane.
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(0, 1, 1), 3);
        assert_eq!(s.index(1, 0, 0), 4);
    }

    #[test]
    fn contains_spatial_handles_negatives() {
        let s = Shape3::new(1, 4, 4);
        assert!(s.contains_spatial(0, 0));
        assert!(s.contains_spatial(3, 3));
        assert!(!s.contains_spatial(-1, 0));
        assert!(!s.contains_spatial(0, 4));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape3::new(64, 14, 7).to_string(), "64x14x7");
    }

    #[test]
    fn from_tuple() {
        let s: Shape3 = (1, 2, 3).into();
        assert_eq!(s, Shape3::new(1, 2, 3));
    }
}
