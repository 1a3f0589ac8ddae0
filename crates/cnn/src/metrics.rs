//! Vision accuracy metrics: top-1 accuracy and mean average precision.
//!
//! The paper scores AlexNet by top-1 accuracy and the detection networks by
//! mean average precision (mAP) on YTBB (§IV-B). The detection task here is
//! single-object (one annotated object per frame, one prediction per frame),
//! so AP per class reduces to ranking each class's predictions by confidence
//! and integrating precision over recall with the standard
//! every-point interpolation.

use crate::zoo::{DETECTION_OUTPUTS, NUM_CLASSES};
use eva2_tensor::Tensor3;

/// A bounding box in normalized coordinates (`cy, cx, h, w`, all in `[0,1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormBox {
    /// Centre row / frame height.
    pub cy: f32,
    /// Centre column / frame width.
    pub cx: f32,
    /// Box height / frame height.
    pub h: f32,
    /// Box width / frame width.
    pub w: f32,
}

impl NormBox {
    /// Intersection over union of two normalized boxes.
    pub fn iou(&self, other: &NormBox) -> f32 {
        let (ay0, ax0) = (self.cy - self.h / 2.0, self.cx - self.w / 2.0);
        let (by0, bx0) = (other.cy - other.h / 2.0, other.cx - other.w / 2.0);
        let y0 = ay0.max(by0);
        let x0 = ax0.max(bx0);
        let y1 = (ay0 + self.h).min(by0 + other.h);
        let x1 = (ax0 + self.w).min(bx0 + other.w);
        let inter = (y1 - y0).max(0.0) * (x1 - x0).max(0.0);
        let union = (self.h * self.w).max(0.0) + (other.h * other.w).max(0.0) - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// One detection prediction decoded from a network output tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Predicted class id.
    pub class: usize,
    /// Softmax confidence of the predicted class.
    pub confidence: f32,
    /// Predicted normalized box.
    pub bbox: NormBox,
}

impl Detection {
    /// Decodes a detection-head output tensor (`4 + NUM_CLASSES` channels).
    ///
    /// # Panics
    ///
    /// Panics when the output does not have [`DETECTION_OUTPUTS`] elements.
    pub fn from_output(output: &Tensor3) -> Self {
        let o = output.as_slice();
        assert_eq!(o.len(), DETECTION_OUTPUTS, "detection head size");
        let probs = crate::train::softmax(&o[4..]);
        let (class, &confidence) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty");
        Detection {
            class,
            confidence,
            bbox: NormBox {
                cy: o[0],
                cx: o[1],
                h: o[2].max(0.0),
                w: o[3].max(0.0),
            },
        }
    }
}

/// One evaluated frame: the prediction and the ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionResult {
    /// Network prediction.
    pub prediction: Detection,
    /// Ground-truth class.
    pub truth_class: usize,
    /// Ground-truth normalized box.
    pub truth_bbox: NormBox,
}

/// Top-1 accuracy over `(predicted, truth)` pairs, in percent.
pub fn top1_accuracy(pairs: &[(usize, usize)]) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    let correct = pairs.iter().filter(|(p, t)| p == t).count();
    100.0 * correct as f32 / pairs.len() as f32
}

/// Mean average precision at the given IoU threshold, in percent.
///
/// Per class: predictions of that class are sorted by confidence; each is a
/// true positive when the frame's ground truth has the same class and the
/// IoU clears `iou_threshold` (a frame's truth can be matched once — here
/// each frame has exactly one prediction, so this is automatic). AP is the
/// area under the interpolated precision–recall curve; mAP averages over
/// classes that appear in the ground truth.
pub fn mean_average_precision(results: &[DetectionResult], iou_threshold: f32) -> f32 {
    let mut aps = Vec::new();
    for class in 0..NUM_CLASSES {
        let truth_count = results.iter().filter(|r| r.truth_class == class).count();
        if truth_count == 0 {
            continue;
        }
        // Gather this class's predictions, sorted by descending confidence.
        let mut preds: Vec<&DetectionResult> = results
            .iter()
            .filter(|r| r.prediction.class == class)
            .collect();
        preds.sort_by(|a, b| b.prediction.confidence.total_cmp(&a.prediction.confidence));
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut curve: Vec<(f32, f32)> = Vec::with_capacity(preds.len()); // (recall, precision)
        for r in preds {
            let hit =
                r.truth_class == class && r.prediction.bbox.iou(&r.truth_bbox) >= iou_threshold;
            if hit {
                tp += 1;
            } else {
                fp += 1;
            }
            curve.push((tp as f32 / truth_count as f32, tp as f32 / (tp + fp) as f32));
        }
        // Every-point interpolation: precision at recall r is the max
        // precision at any recall ≥ r.
        let mut ap = 0.0;
        let mut prev_recall = 0.0;
        for i in 0..curve.len() {
            let max_prec = curve[i..].iter().map(|&(_, p)| p).fold(0.0f32, f32::max);
            let (recall, _) = curve[i];
            ap += (recall - prev_recall).max(0.0) * max_prec;
            prev_recall = recall;
        }
        aps.push(ap);
    }
    if aps.is_empty() {
        0.0
    } else {
        100.0 * aps.iter().sum::<f32>() / aps.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_tensor::Shape3;

    fn nb(cy: f32, cx: f32, h: f32, w: f32) -> NormBox {
        NormBox { cy, cx, h, w }
    }

    fn result(
        pred_class: usize,
        conf: f32,
        pred_box: NormBox,
        truth: usize,
        tbox: NormBox,
    ) -> DetectionResult {
        DetectionResult {
            prediction: Detection {
                class: pred_class,
                confidence: conf,
                bbox: pred_box,
            },
            truth_class: truth,
            truth_bbox: tbox,
        }
    }

    #[test]
    fn top1_basic() {
        assert_eq!(top1_accuracy(&[(1, 1), (2, 2), (3, 0), (0, 0)]), 75.0);
        assert_eq!(top1_accuracy(&[]), 0.0);
    }

    #[test]
    fn normbox_iou_identity() {
        let b = nb(0.5, 0.5, 0.4, 0.4);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
        assert_eq!(b.iou(&nb(0.05, 0.05, 0.05, 0.05)), 0.0);
    }

    #[test]
    fn perfect_detector_has_map_100() {
        let b = nb(0.5, 0.5, 0.3, 0.3);
        let results: Vec<DetectionResult> =
            (0..NUM_CLASSES).map(|c| result(c, 0.9, b, c, b)).collect();
        assert!((mean_average_precision(&results, 0.5) - 100.0).abs() < 1e-4);
    }

    #[test]
    fn wrong_class_gets_zero_ap() {
        let b = nb(0.5, 0.5, 0.3, 0.3);
        // Truth is class 0, prediction says class 1 always.
        let results = vec![result(1, 0.9, b, 0, b); 4];
        assert_eq!(mean_average_precision(&results, 0.5), 0.0);
    }

    #[test]
    fn bad_localization_gets_zero_ap() {
        let truth = nb(0.2, 0.2, 0.2, 0.2);
        let pred = nb(0.8, 0.8, 0.2, 0.2);
        let results = vec![result(0, 0.9, pred, 0, truth); 4];
        assert_eq!(mean_average_precision(&results, 0.5), 0.0);
    }

    #[test]
    fn map_is_between_extremes_for_mixed_results() {
        let good = nb(0.5, 0.5, 0.3, 0.3);
        let bad = nb(0.9, 0.9, 0.1, 0.1);
        let results = vec![
            result(0, 0.9, good, 0, good),
            result(0, 0.8, bad, 0, good),
            result(0, 0.7, good, 0, good),
            result(0, 0.6, bad, 0, good),
        ];
        let map = mean_average_precision(&results, 0.5);
        assert!(map > 0.0 && map < 100.0, "map = {map}");
    }

    #[test]
    fn confidence_ordering_matters() {
        let good = nb(0.5, 0.5, 0.3, 0.3);
        let bad = nb(0.9, 0.9, 0.05, 0.05);
        // High-confidence hits first → better AP than high-confidence misses.
        let good_first = vec![result(0, 0.9, good, 0, good), result(0, 0.1, bad, 0, good)];
        let bad_first = vec![result(0, 0.9, bad, 0, good), result(0, 0.1, good, 0, good)];
        assert!(mean_average_precision(&good_first, 0.5) > mean_average_precision(&bad_first, 0.5));
    }

    #[test]
    fn detection_decode() {
        let mut v = vec![0.5, 0.4, 0.3, 0.2];
        v.extend(vec![0.0; NUM_CLASSES]);
        v[4 + 2] = 5.0;
        let out = Tensor3::from_vec(Shape3::new(DETECTION_OUTPUTS, 1, 1), v);
        let d = Detection::from_output(&out);
        assert_eq!(d.class, 2);
        assert!(d.confidence > 0.9);
        assert_eq!(d.bbox.cy, 0.5);
        assert_eq!(d.bbox.w, 0.2);
    }

    #[test]
    fn detection_decode_clamps_negative_extent() {
        let mut v = vec![0.5, 0.5, -0.3, -0.2];
        v.extend(vec![0.1; NUM_CLASSES]);
        let out = Tensor3::from_vec(Shape3::new(DETECTION_OUTPUTS, 1, 1), v);
        let d = Detection::from_output(&out);
        assert_eq!(d.bbox.h, 0.0);
        assert_eq!(d.bbox.w, 0.0);
    }
}
