//! Horn–Schunck dense variational optical flow.
//!
//! Stands in for the paper's FlowNet2-s baseline in the Fig 14 comparison.
//! FlowNet2-s is a *learned dense flow network*; its role in the paper's
//! experiment is "an expensive method that produces a dense, globally
//! smooth, high-quality field". Horn–Schunck \[23\] is the classical
//! variational method with exactly those properties (global smoothness
//! regularisation, dense output, iterative and costly), making it the
//! closest reproducible substitute: no learned-flow weights are available
//! offline, and training FlowNet2-s needs ImageNet-scale data.

use crate::field::{MotionVector, VectorField};
use crate::lucas_kanade::{coarse_to_fine, sample};
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;

/// Horn–Schunck estimator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HornSchunck {
    /// Smoothness weight α (larger = smoother field).
    pub alpha: f32,
    /// Jacobi iterations.
    pub iterations: usize,
    /// Pyramid levels for handling larger motion.
    pub levels: usize,
}

impl Default for HornSchunck {
    fn default() -> Self {
        Self {
            alpha: 8.0,
            iterations: 120,
            levels: 3,
        }
    }
}

impl HornSchunck {
    /// One pyramid level of Horn–Schunck, warping `key` by the initial
    /// field (gather convention) and solving for the residual flow.
    fn solve_level(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        field: &mut VectorField,
        ops: &mut u64,
    ) {
        let h = new.height();
        let w = new.width();
        // Warp the key frame toward the new frame using the current field.
        let warped: Vec<f32> = (0..h * w)
            .map(|i| {
                let y = i / w;
                let x = i % w;
                let d = field.get(y, x);
                sample(key, y as f32 + d.dy, x as f32 + d.dx)
            })
            .collect();
        *ops += (h * w * 8) as u64;
        // Gradients of the warped key frame and the temporal difference.
        let mut ix = vec![0.0f32; h * w];
        let mut iy = vec![0.0f32; h * w];
        let mut it = vec![0.0f32; h * w];
        let at = |v: &Vec<f32>, y: isize, x: isize| {
            let y = y.clamp(0, h as isize - 1) as usize;
            let x = x.clamp(0, w as isize - 1) as usize;
            v[y * w + x]
        };
        for y in 0..h {
            for x in 0..w {
                let yi = y as isize;
                let xi = x as isize;
                ix[y * w + x] = (at(&warped, yi, xi + 1) - at(&warped, yi, xi - 1)) / 2.0;
                iy[y * w + x] = (at(&warped, yi + 1, xi) - at(&warped, yi - 1, xi)) / 2.0;
                it[y * w + x] = warped[y * w + x] - new.get(y, x) as f32;
            }
        }
        *ops += (h * w * 5) as u64;
        // Jacobi iterations for the residual flow (du, dv).
        let mut du = vec![0.0f32; h * w];
        let mut dv = vec![0.0f32; h * w];
        let alpha2 = self.alpha * self.alpha;
        for _ in 0..self.iterations {
            let mut ndu = vec![0.0f32; h * w];
            let mut ndv = vec![0.0f32; h * w];
            for y in 0..h {
                for x in 0..w {
                    let yi = y as isize;
                    let xi = x as isize;
                    // 4-neighbour average.
                    let ubar = (at(&du, yi - 1, xi)
                        + at(&du, yi + 1, xi)
                        + at(&du, yi, xi - 1)
                        + at(&du, yi, xi + 1))
                        / 4.0;
                    let vbar = (at(&dv, yi - 1, xi)
                        + at(&dv, yi + 1, xi)
                        + at(&dv, yi, xi - 1)
                        + at(&dv, yi, xi + 1))
                        / 4.0;
                    let i = y * w + x;
                    let num = ix[i] * ubar + iy[i] * vbar + it[i];
                    let den = alpha2 + ix[i] * ix[i] + iy[i] * iy[i];
                    ndu[i] = ubar - ix[i] * num / den;
                    ndv[i] = vbar - iy[i] * num / den;
                }
            }
            du = ndu;
            dv = ndv;
            *ops += (h * w * 14) as u64;
        }
        // du/dv describe motion of the warped key toward new in *scatter*
        // sense for the intensity constancy I_w(p) + Ix·u + Iy·v = J(p);
        // solving that equation, the corrected gather displacement adds
        // (v, u) to the key-frame sampling position.
        for y in 0..h {
            for x in 0..w {
                let d = field.get(y, x);
                field.set(
                    y,
                    x,
                    MotionVector::new(d.dy + dv[y * w + x], d.dx + du[y * w + x]),
                );
            }
        }
    }

    /// Runs pyramidal Horn–Schunck, producing a dense per-pixel field.
    pub fn run(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        let mut ops = 0u64;
        let field = coarse_to_fine(key, new, self.levels, |k, n, f| {
            self.solve_level(k, n, f, &mut ops)
        });
        MotionResult {
            field,
            ops,
            total_error: None,
        }
    }
}

impl MotionEstimator for HornSchunck {
    fn name(&self) -> &str {
        "DenseFlow (Horn-Schunck, FlowNet2-s stand-in)"
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
            let v = (y as f32 * 0.31).sin()
                + (x as f32 * 0.23).cos()
                + ((2 * y + x) as f32 * 0.11).sin();
            (127.0 + v * 40.0) as u8
        })
    }

    fn fast() -> HornSchunck {
        HornSchunck {
            alpha: 8.0,
            iterations: 40,
            levels: 3,
        }
    }

    #[test]
    fn zero_motion_on_identical_frames() {
        let img = smooth_texture(32, 32);
        let r = fast().run(&img, &img);
        assert!(r.field.magnitude_mean() < 0.05);
    }

    #[test]
    fn recovers_translation_direction() {
        let key = smooth_texture(48, 48);
        let new = key.translate(2, 3, 128);
        let r = fast().run(&key, &new);
        let mut sum = (0.0f32, 0.0f32);
        let mut n = 0;
        for y in 12..36 {
            for x in 12..36 {
                let v = r.field.get(y, x);
                sum.0 += v.dy;
                sum.1 += v.dx;
                n += 1;
            }
        }
        let mean = (sum.0 / n as f32, sum.1 / n as f32);
        // Gather convention: expected ≈ (-2, -3). Allow generous tolerance —
        // HS underestimates magnitudes with strong smoothing.
        assert!(mean.0 < -0.8, "dy mean {mean:?}");
        assert!(mean.1 < -1.2, "dx mean {mean:?}");
    }

    #[test]
    fn field_is_smooth() {
        // The variational regulariser keeps neighbouring vectors close.
        let key = smooth_texture(40, 40);
        let new = key.translate(1, 1, 128);
        let r = fast().run(&key, &new);
        let mut jump_sum = 0.0f32;
        let mut n = 0;
        for y in 5..34 {
            for x in 5..34 {
                let a = r.field.get(y, x);
                let b = r.field.get(y, x + 1);
                jump_sum += (a.dy - b.dy).abs() + (a.dx - b.dx).abs();
                n += 1;
            }
        }
        let mean_jump = jump_sum / n as f32;
        assert!(
            mean_jump < 0.5,
            "mean field jump {mean_jump} too large for HS"
        );
    }

    #[test]
    fn is_more_expensive_than_block_matching() {
        // Fig 14's premise: the dense baseline costs far more than RFBME.
        use crate::rfbme::{RfGeometry, Rfbme, SearchParams};
        let key = smooth_texture(48, 48);
        let new = key.translate(1, 0, 128);
        let hs = fast().run(&key, &new);
        let rfbme = Rfbme::new(
            RfGeometry {
                size: 8,
                stride: 4,
                padding: 0,
            },
            SearchParams { radius: 4, step: 1 },
        )
        .estimate(&key, &new);
        assert!(
            hs.ops > rfbme.ops() * 5,
            "HS {} should dwarf RFBME {}",
            hs.ops,
            rfbme.ops()
        );
    }

    #[test]
    fn dense_output_dimensions() {
        let img = smooth_texture(20, 28);
        let r = fast().run(&img, &img);
        assert_eq!((r.field.grid_h(), r.field.grid_w()), (20, 28));
        assert_eq!(r.field.cell(), 1);
    }
}
