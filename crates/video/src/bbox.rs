//! Axis-aligned bounding boxes and intersection-over-union.

use std::fmt;

/// An axis-aligned bounding box in pixel coordinates.
///
/// `y`/`x` is the top-left corner; the box covers rows `y..y+h` and columns
/// `x..x+w`. Coordinates are `f32` because object centres move by fractional
/// amounts between frames.
///
/// # Example
///
/// ```
/// use eva2_video::BoundingBox;
///
/// let a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
/// let b = BoundingBox::new(5.0, 5.0, 10.0, 10.0);
/// assert!((a.iou(&b) - 25.0 / 175.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundingBox {
    /// Top edge (row).
    pub y: f32,
    /// Left edge (column).
    pub x: f32,
    /// Height in rows.
    pub h: f32,
    /// Width in columns.
    pub w: f32,
}

impl BoundingBox {
    /// Creates a box from its top-left corner and extent.
    pub const fn new(y: f32, x: f32, h: f32, w: f32) -> Self {
        Self { y, x, h, w }
    }

    /// Creates a box from its centre and extent.
    pub fn from_center(cy: f32, cx: f32, h: f32, w: f32) -> Self {
        Self::new(cy - h / 2.0, cx - w / 2.0, h, w)
    }

    /// The box centre `(cy, cx)`.
    pub fn center(&self) -> (f32, f32) {
        (self.y + self.h / 2.0, self.x + self.w / 2.0)
    }

    /// Box area (zero for degenerate boxes).
    pub fn area(&self) -> f32 {
        self.h.max(0.0) * self.w.max(0.0)
    }

    /// Area of the intersection with `other`.
    pub fn intersection(&self, other: &Self) -> f32 {
        let y0 = self.y.max(other.y);
        let x0 = self.x.max(other.x);
        let y1 = (self.y + self.h).min(other.y + other.h);
        let x1 = (self.x + self.w).min(other.x + other.w);
        (y1 - y0).max(0.0) * (x1 - x0).max(0.0)
    }

    /// Intersection over union, in `[0, 1]`. Returns 0 when both boxes are
    /// degenerate.
    pub fn iou(&self, other: &Self) -> f32 {
        let inter = self.intersection(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Translates the box by `(dy, dx)`.
    pub fn translated(&self, dy: f32, dx: f32) -> Self {
        Self::new(self.y + dy, self.x + dx, self.h, self.w)
    }

    /// Clamps the box to the frame `height × width`, shrinking as needed.
    pub fn clamped(&self, height: usize, width: usize) -> Self {
        let y0 = self.y.clamp(0.0, height as f32);
        let x0 = self.x.clamp(0.0, width as f32);
        let y1 = (self.y + self.h).clamp(0.0, height as f32);
        let x1 = (self.x + self.w).clamp(0.0, width as f32);
        Self::new(y0, x0, (y1 - y0).max(0.0), (x1 - x0).max(0.0))
    }

    /// Returns `true` when the box has positive area.
    pub fn is_valid(&self) -> bool {
        self.h > 0.0 && self.w > 0.0
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[y={:.1} x={:.1} h={:.1} w={:.1}]",
            self.y, self.x, self.h, self.w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = BoundingBox::new(2.0, 3.0, 4.0, 5.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BoundingBox::new(10.0, 10.0, 2.0, 2.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn partial_overlap() {
        let a = BoundingBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BoundingBox::new(2.0, 2.0, 4.0, 4.0);
        // intersection 2x2=4, union 16+16-4=28
        assert!((a.iou(&b) - 4.0 / 28.0).abs() < 1e-6);
    }

    #[test]
    fn center_roundtrip() {
        let b = BoundingBox::from_center(10.0, 20.0, 4.0, 6.0);
        assert_eq!(b.center(), (10.0, 20.0));
        assert_eq!(b.y, 8.0);
        assert_eq!(b.x, 17.0);
    }

    #[test]
    fn clamp_shrinks_to_frame() {
        let b = BoundingBox::new(-2.0, 30.0, 6.0, 6.0).clamped(32, 32);
        assert_eq!(b.y, 0.0);
        assert_eq!(b.h, 4.0);
        assert_eq!(b.x, 30.0);
        assert_eq!(b.w, 2.0);
    }

    #[test]
    fn degenerate_boxes() {
        let z = BoundingBox::new(0.0, 0.0, 0.0, 0.0);
        assert!(!z.is_valid());
        assert_eq!(z.iou(&z), 0.0);
    }

    #[test]
    fn translation_moves_box() {
        let b = BoundingBox::new(1.0, 1.0, 2.0, 2.0).translated(3.0, -1.0);
        assert_eq!(b.y, 4.0);
        assert_eq!(b.x, 0.0);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BoundingBox::new(0.0, 0.0, 5.0, 3.0);
        let b = BoundingBox::new(1.0, 1.0, 4.0, 4.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
    }
}
