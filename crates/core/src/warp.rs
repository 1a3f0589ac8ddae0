//! The warp engine: activation warping with bilinear interpolation.
//!
//! "The warp engine's job is to load this neighborhood of activation values
//! from its sparse activation memory, feed them into a bilinear interpolator
//! along with the fractional bits of this motion vector, and send the result
//! to the layer accelerators to compute the CNN suffix" (§III-B, Figs 9–11).
//!
//! Two datapaths are provided:
//!
//! * [`warp_activation`] — the `f32` reference path (used for accuracy
//!   experiments, where datapath quantization would be a confound).
//! * [`warp_activation_fixed`] — a bit-accurate Q8.8 model of the hardware
//!   datapath: activation values and fractional weights are 16-bit fixed
//!   point, products widen and the result shifts back (Fig 11's weighting
//!   units). Tests bound its divergence from the reference by the
//!   quantization step.
//!
//! # The fused warp→sparse seam
//!
//! On the hardware, the warp engine reads from and writes back to the
//! *sparse* activation memory — a dense intermediate never exists. The
//! dense entry points above model only the datapath; the predicted-frame
//! execution path uses their fused companions [`warp_activation_sparse`] /
//! [`warp_activation_fixed_sparse`], which emit the warped activation
//! directly as a [`SparseActivation`]: zero outputs are skipped at
//! generation time instead of being materialised into a tensor and
//! re-scanned by `SparseActivation::from_dense`. The fused functions also
//! hoist the per-position work out of the channel loop — every channel of
//! one output position shares the same motion vector, so the float path
//! finds the source cells (two `floor`s, four bounds tests) and the
//! fractions `(u, v)` once instead of `C` times and then evaluates the
//! reference's bilinear sum verbatim per channel, and the Q8.8 path
//! computes its four corner weights once. Entry values and [`WarpStats`]
//! are **bit-identical** to dense-then-extract (same operations in the
//! same order per element; tests pin this), which is what lets
//! `eva2_core::serve` feed the CNN suffix from the fused output without
//! changing a single output bit.

// lint: hot-path

use eva2_motion::field::VectorField;
use eva2_tensor::interp::{sample, Interpolation};
use eva2_tensor::{Fixed, Shape3, SparseActivation, Tensor3};

/// Statistics from one warp pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarpStats {
    /// Bilinear interpolations performed (one per output activation value).
    pub interpolations: u64,
    /// Interpolations whose entire 2×2 neighbourhood was zero — the loads a
    /// sparsity-aware warp engine skips (§V: cost reduced "proportionally to
    /// the activations' sparsity").
    pub zero_skipped: u64,
    /// Multiply operations in the interpolator datapath (8 per non-skipped
    /// interpolation: four weighting units of two multiplies each, Fig 11).
    pub mults: u64,
}

/// Warps a stored key-frame activation by a motion vector field.
///
/// `field` must have one vector per activation cell (its grid equals the
/// activation's spatial extent); vectors are in **pixel units** and are
/// scaled to activation units by dividing by `rf_stride` (§II-B: a distance
/// `d` in the input is `d/s` in the output). The gather convention applies:
/// `out[c, ay, ax] = key[c, ay + v.dy/s, ax + v.dx/s]`, interpolated.
///
/// # Panics
///
/// Panics when the field's grid does not match the activation's spatial
/// dimensions.
pub fn warp_activation(
    key: &Tensor3,
    field: &VectorField,
    rf_stride: usize,
    method: Interpolation,
) -> (Tensor3, WarpStats) {
    let shape = key.shape();
    assert_eq!(
        (field.grid_h(), field.grid_w()),
        (shape.height, shape.width),
        "vector field grid must match activation spatial dims"
    );
    let s = rf_stride.max(1) as f32;
    let mut stats = WarpStats::default();
    let out = Tensor3::from_fn(shape, |c, ay, ax| {
        let v = field.get(ay, ax);
        let sy = ay as f32 + v.dy / s;
        let sx = ax as f32 + v.dx / s;
        stats.interpolations += 1;
        let val = sample(key, method, c, sy, sx);
        if val == 0.0 {
            stats.zero_skipped += 1;
        } else {
            stats.mults += 8;
        }
        val
    });
    (out, stats)
}

/// The Q8.8 bilinear interpolator of Fig 11, bit-accurately.
///
/// Computes `p00·(1−u)(1−v) + p01·u(1−v) + p10·(1−u)v + p11·uv` where `u`
/// and `v` are the fractional bits of the motion vector, using widening
/// multiplies and a final shift back to 16 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BilinearInterpolator {
    /// Horizontal fraction `u` in Q8.8.
    pub u: Fixed,
    /// Vertical fraction `v` in Q8.8.
    pub v: Fixed,
}

impl BilinearInterpolator {
    /// Creates an interpolator from fractional offsets in `[0, 1)`.
    pub fn new(u: f32, v: f32) -> Self {
        Self {
            u: Fixed::from_f32(u),
            v: Fixed::from_f32(v),
        }
    }

    /// The four corner weights `[(1−u)(1−v), u(1−v), (1−u)v, uv]` in Q8.8,
    /// computed exactly as the weighting units do (two multiplies each).
    ///
    /// Weights depend only on the motion vector's fractional bits, so one
    /// output position's weights serve every channel — the fused sparse
    /// warp computes them once per position and applies them with
    /// [`BilinearInterpolator::apply`].
    pub fn weights(&self) -> [Fixed; 4] {
        let one = Fixed::ONE;
        let inv_u = one - self.u;
        let inv_v = one - self.v;
        [
            inv_u.wrapping_mul_shift(inv_v),
            self.u.wrapping_mul_shift(inv_v),
            inv_u.wrapping_mul_shift(self.v),
            self.u.wrapping_mul_shift(self.v),
        ]
    }

    /// Applies precomputed corner [`BilinearInterpolator::weights`] to one
    /// 2×2 neighbourhood — the shared tail of the interpolator, with the
    /// exact operation order of the hardware adder tree.
    pub fn apply(weights: [Fixed; 4], p: [Fixed; 4]) -> Fixed {
        p[0].wrapping_mul_shift(weights[0])
            .saturating_add(p[1].wrapping_mul_shift(weights[1]))
            .saturating_add(p[2].wrapping_mul_shift(weights[2]))
            .saturating_add(p[3].wrapping_mul_shift(weights[3]))
    }

    /// Interpolates one 2×2 neighbourhood `[p00, p01, p10, p11]`
    /// (`p01` = one step in +x, `p10` = one step in +y).
    pub fn interpolate(&self, p: [Fixed; 4]) -> Fixed {
        Self::apply(self.weights(), p)
    }
}

/// Warps using the bit-accurate Q8.8 datapath. The key activation is
/// quantized to Q8.8 on load (it is stored that way in the sparse activation
/// memory), the interpolator runs in fixed point, and results are returned
/// dequantized.
pub fn warp_activation_fixed(
    key: &Tensor3,
    field: &VectorField,
    rf_stride: usize,
) -> (Tensor3, WarpStats) {
    let shape = key.shape();
    assert_eq!(
        (field.grid_h(), field.grid_w()),
        (shape.height, shape.width),
        "vector field grid must match activation spatial dims"
    );
    let s = rf_stride.max(1) as f32;
    let mut stats = WarpStats::default();
    let out = Tensor3::from_fn(shape, |c, ay, ax| {
        let vec = field.get(ay, ax);
        let sy = ay as f32 + vec.dy / s;
        let sx = ax as f32 + vec.dx / s;
        let y0 = sy.floor();
        let x0 = sx.floor();
        let interp = BilinearInterpolator::new(sx - x0, sy - y0);
        let y0 = y0 as isize;
        let x0 = x0 as isize;
        let load = |yy: isize, xx: isize| Fixed::from_f32(key.get_padded(c, yy, xx));
        let p = [
            load(y0, x0),
            load(y0, x0 + 1),
            load(y0 + 1, x0),
            load(y0 + 1, x0 + 1),
        ];
        stats.interpolations += 1;
        if p.iter().all(|v| v.is_zero()) {
            stats.zero_skipped += 1;
            return 0.0;
        }
        stats.mults += 8;
        interp.interpolate(p).to_f32()
    });
    (out, stats)
}

/// What every channel of one output position shares when it samples the
/// key activation at `(sy, sx)`: where the source cells sit in a channel
/// plane (`None` outside the frame, which reads as zero) and, for bilinear
/// sampling, the fractions of the motion vector.
enum Source {
    /// The 2×2 neighbourhood `[p00, p01, p10, p11]` and `(u, v)`.
    Bilinear {
        cells: [Option<usize>; 4],
        u: f32,
        v: f32,
    },
    /// The nearest cell.
    Nearest(Option<usize>),
}

impl Source {
    fn new(shape: Shape3, method: Interpolation, sy: f32, sx: f32) -> Self {
        let cell = |y: isize, x: isize| {
            shape
                .contains_spatial(y, x)
                .then(|| y as usize * shape.width + x as usize)
        };
        match method {
            Interpolation::Bilinear => {
                let (y0, x0) = (sy.floor(), sx.floor());
                let (v, u) = (sy - y0, sx - x0);
                let (y0, x0) = (y0 as isize, x0 as isize);
                let cells = [
                    cell(y0, x0),
                    cell(y0, x0 + 1),
                    cell(y0 + 1, x0),
                    cell(y0 + 1, x0 + 1),
                ];
                Self::Bilinear { cells, u, v }
            }
            Interpolation::NearestNeighbor => {
                Self::Nearest(cell(sy.round() as isize, sx.round() as isize))
            }
        }
    }

    /// [`sample`]'s value on one channel plane. The bilinear sum is
    /// `sample_bilinear`'s expression verbatim — same operations, same
    /// order, no pre-multiplied weights — hence its bits.
    #[inline]
    fn sample(&self, plane: &[f32]) -> f32 {
        let at = |cell: Option<usize>| cell.map_or(0.0, |i| plane[i]);
        match *self {
            Self::Bilinear { cells, u, v } => {
                let [p00, p01, p10, p11] = cells.map(at);
                p00 * (1.0 - u) * (1.0 - v)
                    + p01 * u * (1.0 - v)
                    + p10 * (1.0 - u) * v
                    + p11 * u * v
            }
            Self::Nearest(cell) => at(cell),
        }
    }
}

/// [`warp_activation`] fused with sparse extraction: warps straight into a
/// [`SparseActivation`], skipping zero outputs at generation time instead
/// of materialising and re-scanning a dense tensor.
///
/// Entries and statistics are bit-identical to
/// `SparseActivation::from_dense(&warp_activation(..).0, 0.0)` — see the
/// [module docs](self) for the fusion argument.
///
/// # Panics
///
/// Panics when the field's grid does not match the activation's spatial
/// dimensions.
pub fn warp_activation_sparse(
    key: &Tensor3,
    field: &VectorField,
    rf_stride: usize,
    method: Interpolation,
) -> (SparseActivation, WarpStats) {
    let shape = key.shape();
    assert_eq!(
        (field.grid_h(), field.grid_w()),
        (shape.height, shape.width),
        "vector field grid must match activation spatial dims"
    );
    let s = rf_stride.max(1) as f32;
    let mut stats = WarpStats::default();
    // Pre-size each channel to its dense plane: entry counts are bounded
    // by it, so pushes never reallocate mid-warp.
    let mut channels: Vec<Vec<(u32, f32)>> = (0..shape.channels)
        .map(|_| Vec::with_capacity(shape.plane_len()))
        .collect();
    for ay in 0..shape.height {
        for ax in 0..shape.width {
            // Per-position work hoisted out of the channel loop: all
            // channels share this position's motion vector, hence its
            // source cells and fractions.
            let v = field.get(ay, ax);
            let source = Source::new(shape, method, ay as f32 + v.dy / s, ax as f32 + v.dx / s);
            let pos = (ay * shape.width + ax) as u32;
            for (c, entries) in channels.iter_mut().enumerate() {
                stats.interpolations += 1;
                let val = source.sample(key.channel(c));
                if val == 0.0 {
                    stats.zero_skipped += 1;
                } else {
                    stats.mults += 8;
                }
                // Same survivor predicate as `from_dense(.., 0.0)` (which
                // also drops NaN and −0.0).
                if val.abs() > 0.0 {
                    entries.push((pos, val));
                }
            }
        }
    }
    (SparseActivation::from_channels(shape, channels), stats)
}

/// [`warp_activation_fixed`] fused with sparse extraction — the Q8.8
/// companion of [`warp_activation_sparse`], and the predicted-frame
/// production path of `eva2_core::serve` in fixed-point mode.
///
/// The interpolator weights are computed once per output position
/// ([`BilinearInterpolator::weights`]) and applied per channel, which is
/// both the hardware's structure (one warp request covers a 2×2
/// neighbourhood across channels) and a C-fold reduction of the
/// coordinate/weight arithmetic. Entries and statistics are bit-identical
/// to `SparseActivation::from_dense(&warp_activation_fixed(..).0, 0.0)`.
///
/// # Panics
///
/// Panics when the field's grid does not match the activation's spatial
/// dimensions.
pub fn warp_activation_fixed_sparse(
    key: &Tensor3,
    field: &VectorField,
    rf_stride: usize,
) -> (SparseActivation, WarpStats) {
    let shape = key.shape();
    assert_eq!(
        (field.grid_h(), field.grid_w()),
        (shape.height, shape.width),
        "vector field grid must match activation spatial dims"
    );
    let s = rf_stride.max(1) as f32;
    let mut stats = WarpStats::default();
    // Pre-size each channel to its dense plane: entry counts are bounded
    // by it, so pushes never reallocate mid-warp.
    let mut channels: Vec<Vec<(u32, f32)>> = (0..shape.channels)
        .map(|_| Vec::with_capacity(shape.plane_len()))
        .collect();
    for ay in 0..shape.height {
        for ax in 0..shape.width {
            let vec = field.get(ay, ax);
            let sy = ay as f32 + vec.dy / s;
            let sx = ax as f32 + vec.dx / s;
            let y0 = sy.floor();
            let x0 = sx.floor();
            let weights = BilinearInterpolator::new(sx - x0, sy - y0).weights();
            let y0 = y0 as isize;
            let x0 = x0 as isize;
            let pos = (ay * shape.width + ax) as u32;
            for (c, entries) in channels.iter_mut().enumerate() {
                let load = |yy: isize, xx: isize| Fixed::from_f32(key.get_padded(c, yy, xx));
                let p = [
                    load(y0, x0),
                    load(y0, x0 + 1),
                    load(y0 + 1, x0),
                    load(y0 + 1, x0 + 1),
                ];
                stats.interpolations += 1;
                if p.iter().all(|v| v.is_zero()) {
                    stats.zero_skipped += 1;
                    continue;
                }
                stats.mults += 8;
                let val = BilinearInterpolator::apply(weights, p).to_f32();
                // Q8.8 truncation can produce an exact zero from nonzero
                // corners; `from_dense` drops those, so the fused path must
                // too.
                if val.abs() > 0.0 {
                    entries.push((pos, val));
                }
            }
        }
    }
    (SparseActivation::from_channels(shape, channels), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_motion::field::MotionVector;
    use eva2_tensor::Shape3;

    fn act(h: usize, w: usize) -> Tensor3 {
        Tensor3::from_fn(Shape3::new(2, h, w), |c, y, x| {
            ((c + 1) * (y * w + x)) as f32 * 0.125
        })
    }

    #[test]
    fn zero_field_is_identity() {
        let key = act(6, 6);
        let field = VectorField::zeros(6, 6, 8);
        let (out, stats) = warp_activation(&key, &field, 8, Interpolation::Bilinear);
        assert_eq!(out, key);
        assert_eq!(stats.interpolations, 2 * 36);
    }

    #[test]
    fn integer_motion_translates_exactly() {
        let key = act(6, 6);
        // Pixel motion of one full stride → activation shift of 1.
        let field = VectorField::uniform(6, 6, 8, MotionVector::new(0.0, 8.0));
        let (out, _) = warp_activation(&key, &field, 8, Interpolation::Bilinear);
        for c in 0..2 {
            for y in 0..6 {
                for x in 0..5 {
                    assert_eq!(out.get(c, y, x), key.get(c, y, x + 1));
                }
                // Gather beyond the right edge reads zero padding.
                assert_eq!(out.get(c, y, 5), 0.0);
            }
        }
    }

    #[test]
    fn fractional_motion_interpolates() {
        let key = act(4, 4);
        // Half-stride horizontal motion → sample halfway between columns.
        let field = VectorField::uniform(4, 4, 8, MotionVector::new(0.0, 4.0));
        let (out, _) = warp_activation(&key, &field, 8, Interpolation::Bilinear);
        let expect = (key.get(0, 1, 1) + key.get(0, 1, 2)) / 2.0;
        assert!((out.get(0, 1, 1) - expect).abs() < 1e-6);
    }

    #[test]
    fn nearest_neighbor_snaps() {
        let key = act(4, 4);
        let field = VectorField::uniform(4, 4, 8, MotionVector::new(0.0, 3.0)); // 0.375 act units
        let (out, _) = warp_activation(&key, &field, 8, Interpolation::NearestNeighbor);
        assert_eq!(out.get(0, 1, 1), key.get(0, 1, 1)); // rounds to 0 offset
        let field2 = VectorField::uniform(4, 4, 8, MotionVector::new(0.0, 5.0)); // 0.625
        let (out2, _) = warp_activation(&key, &field2, 8, Interpolation::NearestNeighbor);
        assert_eq!(out2.get(0, 1, 1), key.get(0, 1, 2));
    }

    #[test]
    fn fixed_path_matches_float_within_quantization() {
        let key = act(8, 8);
        let field = VectorField::from_fn(8, 8, 4, |y, x| {
            MotionVector::new(((y % 3) as f32 - 1.0) * 1.5, ((x % 3) as f32 - 1.0) * 2.5)
        });
        let (float_out, _) = warp_activation(&key, &field, 4, Interpolation::Bilinear);
        let (fixed_out, _) = warp_activation_fixed(&key, &field, 4);
        // Q8.8 resolution is 1/256; interpolation of 4 values can lose a few
        // LSBs through weight quantization and truncating multiplies.
        let tol = 6.0 / 256.0 + 1e-4;
        for (a, b) in float_out.iter().zip(fixed_out.iter()) {
            assert!((a - b).abs() <= tol * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn fixed_interpolator_corners_are_exact() {
        let interp = BilinearInterpolator::new(0.0, 0.0);
        let p = [
            Fixed::from_f32(1.0),
            Fixed::from_f32(2.0),
            Fixed::from_f32(3.0),
            Fixed::from_f32(4.0),
        ];
        assert_eq!(interp.interpolate(p).to_f32(), 1.0);
        let interp = BilinearInterpolator::new(1.0, 0.0);
        // u=1 → p01 exactly (1.0 representable in Q8.8).
        assert_eq!(interp.interpolate(p).to_f32(), 2.0);
    }

    #[test]
    fn fixed_interpolator_midpoint() {
        let interp = BilinearInterpolator::new(0.5, 0.5);
        let p = [
            Fixed::from_f32(0.0),
            Fixed::from_f32(1.0),
            Fixed::from_f32(2.0),
            Fixed::from_f32(3.0),
        ];
        let v = interp.interpolate(p).to_f32();
        assert!((v - 1.5).abs() <= 3.0 / 256.0, "midpoint {v}");
    }

    #[test]
    fn zero_neighbourhood_is_skipped() {
        let mut key = Tensor3::zeros(Shape3::new(1, 4, 4));
        key.set(0, 0, 0, 1.0);
        let field = VectorField::zeros(4, 4, 8);
        let (_, stats) = warp_activation_fixed(&key, &field, 8);
        // 16 outputs; the neighbourhoods touching (0,0) are not skipped.
        assert_eq!(stats.interpolations, 16);
        assert!(stats.zero_skipped >= 12, "skipped {}", stats.zero_skipped);
        assert!(stats.mults <= 4 * 8);
    }

    #[test]
    fn stats_mults_count_weighting_units() {
        let key = act(4, 4);
        let field = VectorField::zeros(4, 4, 8);
        let (_, stats) = warp_activation(&key, &field, 8, Interpolation::Bilinear);
        // Only position (c, 0, 0) is zero in this ramp (value 0).
        assert_eq!(stats.mults, (stats.interpolations - stats.zero_skipped) * 8);
    }

    #[test]
    #[should_panic(expected = "vector field grid")]
    fn mismatched_field_panics() {
        let key = act(4, 4);
        let field = VectorField::zeros(3, 3, 8);
        let _ = warp_activation(&key, &field, 8, Interpolation::Bilinear);
    }

    /// A ReLU-like activation (many exact zeros) under a field mixing
    /// integer, fractional, and out-of-bounds motion — the adversarial mix
    /// for the fused zero-skipping.
    fn sparse_key_and_field() -> (Tensor3, VectorField) {
        let key = Tensor3::from_fn(Shape3::new(3, 7, 6), |c, y, x| {
            let v = ((c * 5 + y * 3 + x * 7) % 11) as f32 - 5.0;
            v.max(0.0) * 0.37
        });
        let field = VectorField::from_fn(7, 6, 4, |y, x| {
            MotionVector::new(((y % 5) as f32 - 2.0) * 3.0, ((x % 7) as f32 - 3.0) * 2.5)
        });
        (key, field)
    }

    #[test]
    fn fused_sparse_warp_is_bit_identical_to_dense_then_extract() {
        let (key, field) = sparse_key_and_field();
        for method in [Interpolation::Bilinear, Interpolation::NearestNeighbor] {
            let (dense, dense_stats) = warp_activation(&key, &field, 4, method);
            let expect = eva2_tensor::SparseActivation::from_dense(&dense, 0.0);
            let (fused, fused_stats) = warp_activation_sparse(&key, &field, 4, method);
            assert_eq!(fused, expect, "{method:?}: entries must match exactly");
            assert_eq!(fused_stats, dense_stats, "{method:?}: stats must match");
        }
    }

    #[test]
    fn fused_fixed_sparse_warp_is_bit_identical_to_dense_then_extract() {
        let (key, field) = sparse_key_and_field();
        let (dense, dense_stats) = warp_activation_fixed(&key, &field, 4);
        let expect = eva2_tensor::SparseActivation::from_dense(&dense, 0.0);
        let (fused, fused_stats) = warp_activation_fixed_sparse(&key, &field, 4);
        assert_eq!(fused, expect, "fixed-point entries must match exactly");
        assert_eq!(fused_stats, dense_stats, "fixed-point stats must match");
    }

    #[test]
    fn weights_and_apply_compose_to_interpolate() {
        let interp = BilinearInterpolator::new(0.31, 0.84);
        let p = [
            Fixed::from_f32(1.25),
            Fixed::from_f32(-2.0),
            Fixed::from_f32(0.5),
            Fixed::from_f32(3.75),
        ];
        assert_eq!(
            interp.interpolate(p),
            BilinearInterpolator::apply(interp.weights(), p)
        );
    }

    /// The paper's commutativity claim (Fig 3/4): for stride-aligned global
    /// translation and a conv-only prefix, warping the key activation equals
    /// running the prefix on the translated input.
    #[test]
    fn warp_commutes_with_convolution_for_aligned_motion() {
        use eva2_cnn::layer::{Conv2d, Layer};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let conv = Conv2d::new("c", 1, 3, 3, 1, 1, &mut rng);
        let input = Tensor3::from_fn(Shape3::new(1, 10, 10), |_, y, x| {
            if (3..7).contains(&y) && (3..7).contains(&x) {
                1.0 + (y * x) as f32 * 0.05
            } else {
                0.0
            }
        });
        let key_act = conv.forward(&input);
        let moved = input.translate(0, 2); // content 2 px right
        let moved_act = conv.forward(&moved);
        // Stride 1 conv → rf stride 1; gather vector (0, -2).
        let shape = key_act.shape();
        let field =
            VectorField::uniform(shape.height, shape.width, 1, MotionVector::new(0.0, -2.0));
        let (warped, _) = warp_activation(&key_act, &field, 1, Interpolation::Bilinear);
        // Compare away from frame borders (translation fill effects).
        for c in 0..shape.channels {
            for y in 1..shape.height - 1 {
                for x in 3..shape.width - 1 {
                    let a = warped.get(c, y, x);
                    let b = moved_act.get(c, y, x);
                    assert!(
                        (a - b).abs() < 1e-4,
                        "({c},{y},{x}): warped {a} vs recomputed {b}"
                    );
                }
            }
        }
    }
}
