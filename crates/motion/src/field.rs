//! Motion vectors and vector fields.

use std::fmt;

/// A 2-D displacement in pixels.
///
/// Sign convention (*gather*): content now at position `p` in the current
/// frame came from `p + v` in the key frame. Warping therefore reads
/// `key[p + v]` to predict the current value at `p`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MotionVector {
    /// Vertical displacement (rows).
    pub dy: f32,
    /// Horizontal displacement (columns).
    pub dx: f32,
}

impl MotionVector {
    /// The zero vector.
    pub const ZERO: MotionVector = MotionVector { dy: 0.0, dx: 0.0 };

    /// Creates a vector.
    pub const fn new(dy: f32, dx: f32) -> Self {
        Self { dy, dx }
    }

    /// Euclidean magnitude.
    pub fn magnitude(&self) -> f32 {
        (self.dy * self.dy + self.dx * self.dx).sqrt()
    }

    /// Component-wise scaling (e.g. pixel → activation units).
    pub fn scaled(&self, factor: f32) -> Self {
        Self {
            dy: self.dy * factor,
            dx: self.dx * factor,
        }
    }
}

impl fmt::Display for MotionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.2}, {:+.2})", self.dy, self.dx)
    }
}

/// A regular grid of motion vectors.
///
/// `cell` is the pixel pitch of the grid: vector `(gy, gx)` describes the
/// motion of the image region anchored at pixel `(gy * cell, gx * cell)`.
/// Dense optical flow uses `cell = 1`; RFBME uses `cell = receptive-field
/// stride`, so its grid coincides with the target activation's spatial grid.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    grid_h: usize,
    grid_w: usize,
    cell: usize,
    vectors: Vec<MotionVector>,
}

impl VectorField {
    /// Creates an all-zero field of `grid_h × grid_w` cells with pixel pitch
    /// `cell`.
    pub fn zeros(grid_h: usize, grid_w: usize, cell: usize) -> Self {
        Self {
            grid_h,
            grid_w,
            cell,
            vectors: vec![MotionVector::ZERO; grid_h * grid_w],
        }
    }

    /// Creates a field by evaluating `f(gy, gx)` on every cell.
    pub fn from_fn<F: FnMut(usize, usize) -> MotionVector>(
        grid_h: usize,
        grid_w: usize,
        cell: usize,
        mut f: F,
    ) -> Self {
        let mut vectors = Vec::with_capacity(grid_h * grid_w);
        for gy in 0..grid_h {
            for gx in 0..grid_w {
                vectors.push(f(gy, gx));
            }
        }
        Self {
            grid_h,
            grid_w,
            cell,
            vectors,
        }
    }

    /// Creates a uniform field (every cell carries `v`).
    pub fn uniform(grid_h: usize, grid_w: usize, cell: usize, v: MotionVector) -> Self {
        Self::from_fn(grid_h, grid_w, cell, |_, _| v)
    }

    /// Grid height in cells.
    pub fn grid_h(&self) -> usize {
        self.grid_h
    }

    /// Grid width in cells.
    pub fn grid_w(&self) -> usize {
        self.grid_w
    }

    /// Pixel pitch of one grid cell.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Vector at cell `(gy, gx)`.
    #[inline]
    pub fn get(&self, gy: usize, gx: usize) -> MotionVector {
        debug_assert!(gy < self.grid_h && gx < self.grid_w);
        self.vectors[gy * self.grid_w + gx]
    }

    /// Writes the vector at cell `(gy, gx)`.
    #[inline]
    pub fn set(&mut self, gy: usize, gx: usize, v: MotionVector) {
        debug_assert!(gy < self.grid_h && gx < self.grid_w);
        self.vectors[gy * self.grid_w + gx] = v;
    }

    /// Iterator over all vectors, row-major.
    pub fn iter(&self) -> std::slice::Iter<'_, MotionVector> {
        self.vectors.iter()
    }

    /// Sum of vector magnitudes — the paper's *total motion magnitude*
    /// key-frame feature: "this simple strategy sums the magnitude of the
    /// vectors produced by motion estimation" (§II-C4).
    pub fn magnitude_sum(&self) -> f32 {
        self.vectors.iter().map(|v| v.magnitude()).sum()
    }

    /// Mean vector magnitude.
    pub fn magnitude_mean(&self) -> f32 {
        if self.vectors.is_empty() {
            0.0
        } else {
            self.magnitude_sum() / self.vectors.len() as f32
        }
    }

    /// Resamples the field onto a `new_h × new_w` grid with pixel pitch
    /// `new_cell` by averaging all source vectors whose anchor falls inside
    /// each destination cell.
    ///
    /// This is how pixel-level optical flow baselines are converted for
    /// activation warping: "to convert these to receptive-field-level
    /// fields, we take the average vector within each receptive field"
    /// (§IV-E2). Empty destination cells (possible when upsampling) take the
    /// nearest source vector.
    pub fn resample(&self, new_h: usize, new_w: usize, new_cell: usize) -> VectorField {
        let mut sums = vec![(0.0f32, 0.0f32, 0usize); new_h * new_w];
        for gy in 0..self.grid_h {
            for gx in 0..self.grid_w {
                let py = gy * self.cell;
                let px = gx * self.cell;
                let ny = (py / new_cell).min(new_h.saturating_sub(1));
                let nx = (px / new_cell).min(new_w.saturating_sub(1));
                let v = self.get(gy, gx);
                let s = &mut sums[ny * new_w + nx];
                s.0 += v.dy;
                s.1 += v.dx;
                s.2 += 1;
            }
        }
        VectorField::from_fn(new_h, new_w, new_cell, |ny, nx| {
            let (sy, sx, n) = sums[ny * new_w + nx];
            if n > 0 {
                MotionVector::new(sy / n as f32, sx / n as f32)
            } else {
                // Nearest source cell by anchor distance.
                let py = ny * new_cell;
                let px = nx * new_cell;
                let gy = (py / self.cell).min(self.grid_h.saturating_sub(1));
                let gx = (px / self.cell).min(self.grid_w.saturating_sub(1));
                self.get(gy, gx)
            }
        })
    }

    /// Converts pixel-space displacements to activation-space units by
    /// dividing by the receptive-field stride (the `δ → δ'` scaling of
    /// §II-B).
    pub fn to_activation_units(&self, rf_stride: usize) -> VectorField {
        let f = 1.0 / rf_stride as f32;
        VectorField {
            grid_h: self.grid_h,
            grid_w: self.grid_w,
            cell: self.cell,
            vectors: self.vectors.iter().map(|v| v.scaled(f)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude() {
        assert_eq!(MotionVector::new(3.0, 4.0).magnitude(), 5.0);
        assert_eq!(MotionVector::ZERO.magnitude(), 0.0);
    }

    #[test]
    fn scaled_vector() {
        let v = MotionVector::new(2.0, -4.0).scaled(0.5);
        assert_eq!((v.dy, v.dx), (1.0, -2.0));
    }

    #[test]
    fn field_get_set() {
        let mut f = VectorField::zeros(2, 3, 8);
        f.set(1, 2, MotionVector::new(1.0, 2.0));
        assert_eq!(f.get(1, 2), MotionVector::new(1.0, 2.0));
        assert_eq!(f.get(0, 0), MotionVector::ZERO);
        assert_eq!(f.cell(), 8);
    }

    #[test]
    fn magnitude_sum_counts_all_cells() {
        let f = VectorField::uniform(2, 2, 1, MotionVector::new(0.0, 2.0));
        assert_eq!(f.magnitude_sum(), 8.0);
        assert_eq!(f.magnitude_mean(), 2.0);
    }

    #[test]
    fn resample_averages_uniform_field_exactly() {
        // Dense 8x8 field of (1, -1) → 2x2 grid of cell 4: still (1, -1).
        let dense = VectorField::uniform(8, 8, 1, MotionVector::new(1.0, -1.0));
        let coarse = dense.resample(2, 2, 4);
        for gy in 0..2 {
            for gx in 0..2 {
                assert_eq!(coarse.get(gy, gx), MotionVector::new(1.0, -1.0));
            }
        }
    }

    #[test]
    fn resample_averages_mixed_cells() {
        // Top half moves +2 in x, bottom half 0. A single destination cell
        // covering everything averages to +1.
        let dense = VectorField::from_fn(4, 4, 1, |gy, _| {
            if gy < 2 {
                MotionVector::new(0.0, 2.0)
            } else {
                MotionVector::ZERO
            }
        });
        let one = dense.resample(1, 1, 4);
        assert_eq!(one.get(0, 0), MotionVector::new(0.0, 1.0));
    }

    #[test]
    fn resample_upsampling_fills_with_nearest() {
        let coarse = VectorField::uniform(1, 1, 8, MotionVector::new(3.0, 0.0));
        let fine = coarse.resample(2, 2, 4);
        for gy in 0..2 {
            for gx in 0..2 {
                assert_eq!(fine.get(gy, gx), MotionVector::new(3.0, 0.0));
            }
        }
    }

    #[test]
    fn activation_scaling_divides_by_stride() {
        let f = VectorField::uniform(2, 2, 8, MotionVector::new(8.0, -4.0));
        let a = f.to_activation_units(8);
        assert_eq!(a.get(0, 0), MotionVector::new(1.0, -0.5));
    }

    #[test]
    fn display_format() {
        assert_eq!(MotionVector::new(1.0, -2.5).to_string(), "(+1.00, -2.50)");
    }
}
