//! Pyramidal Lucas–Kanade optical flow.
//!
//! The classic iterative registration technique of Lucas & Kanade \[22\],
//! used as a pixel-level baseline in the paper's Fig 14 comparison. This
//! implementation uses a small image pyramid with iterative refinement per
//! level, producing a dense (`cell = 1`) vector field that the harness
//! averages down to receptive-field granularity ("we take the average vector
//! within each receptive field", §IV-E2).

use crate::field::{MotionVector, VectorField};
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;

/// Lucas–Kanade estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LucasKanade {
    /// Half-width of the integration window (window side = `2w + 1`).
    pub window: usize,
    /// Pyramid levels (1 = single scale). Each level halves resolution.
    pub levels: usize,
    /// Newton iterations per level.
    pub iterations: usize,
}

impl Default for LucasKanade {
    fn default() -> Self {
        Self {
            window: 3,
            levels: 3,
            iterations: 3,
        }
    }
}

/// Box-filter 2× downsampling.
fn downsample(img: &GrayImage) -> GrayImage {
    let h = (img.height() / 2).max(1);
    let w = (img.width() / 2).max(1);
    GrayImage::from_fn(h, w, |y, x| {
        let mut sum = 0u32;
        for dy in 0..2 {
            for dx in 0..2 {
                sum += img.get_clamped((2 * y + dy) as isize, (2 * x + dx) as isize) as u32;
            }
        }
        (sum / 4) as u8
    })
}

/// Coarse-to-fine dense flow over a `levels`-deep box-filter pyramid, the
/// scheme Lucas–Kanade and Horn–Schunck share: `solve` refines a per-pixel
/// field at one level, starting from the coarser level's field upsampled
/// ×2 in grid and magnitude (zeros at the coarsest level).
pub(crate) fn coarse_to_fine(
    key: &GrayImage,
    new: &GrayImage,
    levels: usize,
    mut solve: impl FnMut(&GrayImage, &GrayImage, &mut VectorField),
) -> VectorField {
    assert_eq!(
        (key.height(), key.width()),
        (new.height(), new.width()),
        "frame size mismatch"
    );
    // Level 0 = full resolution.
    let mut keys = vec![key.clone()];
    let mut news = vec![new.clone()];
    for _ in 1..levels.max(1) {
        keys.push(downsample(keys.last().expect("level")));
        news.push(downsample(news.last().expect("level")));
    }
    let top = keys.len() - 1;
    let mut field = VectorField::zeros(keys[top].height(), keys[top].width(), 1);
    for level in (0..=top).rev() {
        if level != top {
            let prev = field;
            let h = keys[level].height();
            let w = keys[level].width();
            field = VectorField::from_fn(h, w, 1, |y, x| {
                prev.get(
                    (y / 2).min(prev.grid_h() - 1),
                    (x / 2).min(prev.grid_w() - 1),
                )
                .scaled(2.0)
            });
        }
        solve(&keys[level], &news[level], &mut field);
    }
    field
}

/// Bilinear sample of a row-major `f32` grid with border clamping.
fn sample_f32(data: &[f32], h: usize, w: usize, y: f32, x: f32) -> f32 {
    let at = |yy: isize, xx: isize| {
        let yy = yy.clamp(0, h as isize - 1) as usize;
        let xx = xx.clamp(0, w as isize - 1) as usize;
        data[yy * w + xx]
    };
    let y0 = y.floor();
    let x0 = x.floor();
    let v = y - y0;
    let u = x - x0;
    let y0 = y0 as isize;
    let x0 = x0 as isize;
    at(y0, x0) * (1.0 - u) * (1.0 - v)
        + at(y0, x0 + 1) * u * (1.0 - v)
        + at(y0 + 1, x0) * (1.0 - u) * v
        + at(y0 + 1, x0 + 1) * u * v
}

/// Bilinear sample with border clamping, `f32` output (also Horn–Schunck's
/// key-frame warp).
pub(crate) fn sample(img: &GrayImage, y: f32, x: f32) -> f32 {
    let y0 = y.floor();
    let x0 = x.floor();
    let v = y - y0;
    let u = x - x0;
    let y0 = y0 as isize;
    let x0 = x0 as isize;
    let p00 = img.get_clamped(y0, x0) as f32;
    let p01 = img.get_clamped(y0, x0 + 1) as f32;
    let p10 = img.get_clamped(y0 + 1, x0) as f32;
    let p11 = img.get_clamped(y0 + 1, x0 + 1) as f32;
    p00 * (1.0 - u) * (1.0 - v) + p01 * u * (1.0 - v) + p10 * (1.0 - u) * v + p11 * u * v
}

impl LucasKanade {
    /// Estimates dense flow at one pyramid level, refining `init` (a field
    /// at this level's resolution). Returns the updated field and op count.
    fn refine_level(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        init: &mut VectorField,
        ops: &mut u64,
    ) {
        let h = new.height();
        let w = new.width();
        let wr = self.window as isize;
        // Spatial gradients of the key frame (central differences).
        let mut gx = vec![0.0f32; h * w];
        let mut gy = vec![0.0f32; h * w];
        for y in 0..h {
            for x in 0..w {
                let yi = y as isize;
                let xi = x as isize;
                gx[y * w + x] =
                    (key.get_clamped(yi, xi + 1) as f32 - key.get_clamped(yi, xi - 1) as f32) / 2.0;
                gy[y * w + x] =
                    (key.get_clamped(yi + 1, xi) as f32 - key.get_clamped(yi - 1, xi) as f32) / 2.0;
            }
        }
        *ops += (h * w * 4) as u64;
        for y in 0..h {
            for x in 0..w {
                let mut d = init.get(y, x);
                for _ in 0..self.iterations {
                    // Accumulate the structure tensor and mismatch vector
                    // over the window.
                    let (mut a11, mut a12, mut a22) = (0.0f32, 0.0f32, 0.0f32);
                    let (mut b1, mut b2) = (0.0f32, 0.0f32);
                    for oy in -wr..=wr {
                        for ox in -wr..=wr {
                            let py = y as isize + oy;
                            let px = x as isize + ox;
                            // Forward-additive LK: gradients are sampled at
                            // the *warped* key-frame position p + d, which
                            // keeps the linearisation valid for the large
                            // initial displacements the pyramid hands down.
                            let ix = sample_f32(&gx, h, w, py as f32 + d.dy, px as f32 + d.dx);
                            let iy = sample_f32(&gy, h, w, py as f32 + d.dy, px as f32 + d.dx);
                            // Gather convention: new[p] ≈ key[p + d].
                            let diff = sample(key, py as f32 + d.dy, px as f32 + d.dx)
                                - new.get_clamped(py, px) as f32;
                            a11 += ix * ix;
                            a12 += ix * iy;
                            a22 += iy * iy;
                            b1 += ix * diff;
                            b2 += iy * diff;
                        }
                    }
                    let win = (2 * wr + 1) * (2 * wr + 1);
                    *ops += 8 * win as u64;
                    let det = a11 * a22 - a12 * a12;
                    if det.abs() < 1e-4 {
                        break; // untextured window: keep current estimate
                    }
                    let ddx = -(a22 * b1 - a12 * b2) / det;
                    let ddy = -(-a12 * b1 + a11 * b2) / det;
                    d = MotionVector::new(d.dy + ddy, d.dx + ddx);
                    if ddx.abs() < 0.01 && ddy.abs() < 0.01 {
                        break;
                    }
                }
                init.set(y, x, d);
            }
        }
    }

    /// Runs pyramidal LK, returning a dense per-pixel field.
    pub fn run(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        let mut ops = 0u64;
        let field = coarse_to_fine(key, new, self.levels, |k, n, f| {
            self.refine_level(k, n, f, &mut ops)
        });
        MotionResult {
            field,
            ops,
            total_error: None,
        }
    }
}

impl MotionEstimator for LucasKanade {
    fn name(&self) -> &str {
        "Lucas-Kanade"
    }

    fn estimate(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        self.run(key, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_texture(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| {
            let v =
                (y as f32 * 0.35).sin() + (x as f32 * 0.27).cos() + ((y + x) as f32 * 0.15).sin();
            (127.0 + v * 40.0) as u8
        })
    }

    #[test]
    fn zero_motion_on_identical_frames() {
        let img = smooth_texture(32, 32);
        let lk = LucasKanade::default();
        let r = lk.run(&img, &img);
        assert!(
            r.field.magnitude_mean() < 0.05,
            "mean {}",
            r.field.magnitude_mean()
        );
    }

    #[test]
    fn recovers_small_translation() {
        let key = smooth_texture(48, 48);
        let new = key.translate(1, 2, 128);
        let lk = LucasKanade::default();
        let r = lk.run(&key, &new);
        // Interior mean should be near the gather vector (-1, -2).
        let mut sum = (0.0f32, 0.0f32);
        let mut n = 0;
        for y in 8..40 {
            for x in 8..40 {
                let v = r.field.get(y, x);
                sum.0 += v.dy;
                sum.1 += v.dx;
                n += 1;
            }
        }
        let mean = (sum.0 / n as f32, sum.1 / n as f32);
        assert!(
            (mean.0 + 1.0).abs() < 0.5 && (mean.1 + 2.0).abs() < 0.5,
            "mean flow {mean:?} expected ≈ (-1, -2)"
        );
    }

    #[test]
    fn pyramid_handles_larger_motion_than_single_scale() {
        let key = smooth_texture(64, 64);
        let new = key.translate(0, 6, 128);
        let single = LucasKanade {
            window: 3,
            levels: 1,
            iterations: 3,
        };
        let pyramid = LucasKanade {
            window: 3,
            levels: 3,
            iterations: 3,
        };
        let err = |r: &MotionResult| {
            let mut e = 0.0f32;
            let mut n = 0;
            for y in 16..48 {
                for x in 16..48 {
                    let v = r.field.get(y, x);
                    e += (v.dy - 0.0).abs() + (v.dx + 6.0).abs();
                    n += 1;
                }
            }
            e / n as f32
        };
        let es = err(&single.run(&key, &new));
        let ep = err(&pyramid.run(&key, &new));
        assert!(ep < es, "pyramid {ep} should beat single {es}");
    }

    #[test]
    fn field_is_dense() {
        let img = smooth_texture(24, 24);
        let r = LucasKanade::default().run(&img, &img);
        assert_eq!(r.field.grid_h(), 24);
        assert_eq!(r.field.grid_w(), 24);
        assert_eq!(r.field.cell(), 1);
    }

    #[test]
    fn ops_counted() {
        let img = smooth_texture(16, 16);
        let r = LucasKanade::default().run(&img, &img);
        assert!(r.ops > 0);
        assert_eq!(r.total_error, None);
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = smooth_texture(32, 20);
        let d = downsample(&img);
        assert_eq!((d.height(), d.width()), (16, 10));
    }
}
