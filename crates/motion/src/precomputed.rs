//! Precomputed (codec-supplied) motion vectors.
//!
//! The paper's related-work and future-work sections point at reusing "the
//! motion vectors stored in compressed video data" (§II-C1, §VI, citing
//! Zhang & Sze's FAST \[26\]): when the camera pipeline already ran a video
//! encoder, its block motion vectors come for free and could replace RFBME.
//! [`PrecomputedField`] adapts such an externally-supplied field to the
//! [`MotionEstimator`] interface so the Fig 14 harness and the AMC executor
//! can consume codec vectors unchanged — with zero motion-estimation ops,
//! which is exactly the trade-off the paper sketches.

use crate::field::VectorField;
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;

/// A motion "estimator" that replays an externally-computed vector field
/// (e.g. decoded from a video bitstream) instead of analysing pixels.
///
/// The wrapped field uses the same gather convention as the rest of the
/// crate. The optional `residual_error` models the codec's own residual
/// energy, which a key-frame policy can threshold exactly like RFBME's
/// block error.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputedField {
    field: VectorField,
    residual_error: Option<u64>,
}

impl PrecomputedField {
    /// Wraps a codec-supplied field.
    pub fn new(field: VectorField) -> Self {
        Self {
            field,
            residual_error: None,
        }
    }

    /// Attaches the codec's residual energy (sum of absolute residuals) so
    /// adaptive key-frame policies keep working.
    pub fn with_residual_error(mut self, residual: u64) -> Self {
        self.residual_error = Some(residual);
        self
    }

    /// The wrapped field.
    pub fn field(&self) -> &VectorField {
        &self.field
    }
}

impl MotionEstimator for PrecomputedField {
    fn name(&self) -> &str {
        "Precomputed (codec vectors)"
    }

    fn estimate(&self, _key: &GrayImage, _new: &GrayImage) -> MotionResult {
        MotionResult {
            field: self.field.clone(),
            // The whole point: the vectors are free at inference time.
            ops: 0,
            total_error: self.residual_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::MotionVector;

    #[test]
    fn replays_field_with_zero_ops() {
        let field = VectorField::uniform(4, 4, 8, MotionVector::new(1.0, -2.0));
        let est = PrecomputedField::new(field.clone());
        let img = GrayImage::zeros(32, 32);
        let r = est.estimate(&img, &img);
        assert_eq!(r.field, field);
        assert_eq!(r.ops, 0);
        assert_eq!(r.total_error, None);
    }

    #[test]
    fn residual_error_feeds_policies() {
        let field = VectorField::zeros(2, 2, 8);
        let est = PrecomputedField::new(field).with_residual_error(1234);
        let img = GrayImage::zeros(16, 16);
        assert_eq!(est.estimate(&img, &img).total_error, Some(1234));
    }

    #[test]
    fn name_identifies_source() {
        let est = PrecomputedField::new(VectorField::zeros(1, 1, 1));
        assert!(est.name().contains("codec"));
    }

    /// Codec vectors drive the AMC warp path identically to RFBME vectors:
    /// a uniform stride-aligned codec field reproduces an exact activation
    /// translation.
    #[test]
    fn codec_vectors_warp_like_rfbme_vectors() {
        use crate::rfbme::{RfGeometry, Rfbme, SearchParams};
        let key = GrayImage::from_fn(40, 40, |y, x| {
            (120.0 + 60.0 * ((y as f32 * 0.33).sin() * (x as f32 * 0.27).cos())) as u8
        });
        let new = key.translate(0, 4, 0);
        let rf = RfGeometry {
            size: 8,
            stride: 4,
            padding: 0,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 4, step: 1 }).estimate(&key, &new);
        let g = rfbme.field.grid_h();
        let codec = PrecomputedField::new(VectorField::uniform(
            g,
            rfbme.field.grid_w(),
            4,
            MotionVector::new(0.0, -4.0),
        ));
        let replayed = codec.estimate(&key, &new);
        // Interior agreement between measured and codec-supplied vectors.
        for y in 1..g - 1 {
            for x in 2..g - 1 {
                assert_eq!(rfbme.field.get(y, x), replayed.field.get(y, x), "({y},{x})");
            }
        }
    }
}
