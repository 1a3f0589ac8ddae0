//! Training: SGD with momentum, softmax cross-entropy, detection loss.
//!
//! The paper trains its networks in Caffe with standard hyperparameters
//! (§IV-B); here the equivalent loop is implemented directly. Training also
//! backs the Table III experiment, which fine-tunes only the CNN *suffix* on
//! warped activation data (see [`crate::network::Network::backward_suffix`]).

use crate::network::Network;
use crate::zoo::DETECTION_OUTPUTS;
use eva2_tensor::Tensor3;
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;

/// Numerically stable softmax over a logit slice.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter()
        .map(|&e| e / sum.max(f32::MIN_POSITIVE))
        .collect()
}

/// Cross-entropy loss and its gradient w.r.t. the logits.
///
/// Returns `(loss, grad)` where `grad[i] = softmax(logits)[i] - 1[i==label]`.
pub fn cross_entropy(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    let p = softmax(logits);
    let loss = -p[label].max(1e-12).ln();
    let grad = p
        .iter()
        .enumerate()
        .map(|(i, &pi)| if i == label { pi - 1.0 } else { pi })
        .collect();
    (loss, grad)
}

/// Smooth-L1 (Huber) loss and gradient for one scalar residual, the standard
/// bounding-box regression loss of Faster R-CNN.
pub fn smooth_l1(residual: f32) -> (f32, f32) {
    if residual.abs() < 1.0 {
        (0.5 * residual * residual, residual)
    } else {
        (residual.abs() - 0.5, residual.signum())
    }
}

/// A labelled classification sample.
#[derive(Debug, Clone)]
pub struct ClsSample {
    /// Input tensor (1 × H × W, pixel values in `[0, 1]`).
    pub input: Tensor3,
    /// Ground-truth class id.
    pub label: usize,
}

/// A labelled detection sample.
#[derive(Debug, Clone)]
pub struct DetSample {
    /// Input tensor (1 × H × W).
    pub input: Tensor3,
    /// Ground-truth class id.
    pub label: usize,
    /// Normalized bounding box `[cy/H, cx/W, h/H, w/W]`.
    pub bbox: [f32; 4],
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
    /// Weight on the bounding-box regression term of the detection loss.
    pub bbox_weight: f32,
    /// Shuffling / ordering seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            lr: 0.01,
            lr_decay: 0.85,
            bbox_weight: 2.0,
            seed: 0,
        }
    }
}

/// Trains a classifier in place; returns the mean loss of the final epoch.
pub fn train_classifier(net: &mut Network, samples: &[ClsSample], cfg: &TrainConfig) -> f32 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut lr = cfg.lr;
    let mut last_epoch_loss = 0.0;
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let s = &samples[i];
            let acts = net.forward_collect(&s.input);
            let logits = acts.last().expect("output");
            let (loss, grad) = cross_entropy(logits.as_slice(), s.label);
            loss_sum += loss;
            let grad_t = Tensor3::from_vec(logits.shape(), grad);
            net.backward(&acts, grad_t);
            net.apply_grads(lr, 1);
        }
        last_epoch_loss = loss_sum / samples.len().max(1) as f32;
        lr *= cfg.lr_decay;
    }
    last_epoch_loss
}

/// Detection loss on a raw network output: cross-entropy on the class logits
/// plus weighted smooth-L1 on the box coordinates.
///
/// Returns `(loss, grad)` with `grad` shaped like the network output.
pub fn detection_loss(
    output: &Tensor3,
    label: usize,
    bbox: &[f32; 4],
    bbox_weight: f32,
) -> (f32, Tensor3) {
    let o = output.as_slice();
    assert_eq!(o.len(), DETECTION_OUTPUTS, "detection head size");
    let mut grad = vec![0.0f32; DETECTION_OUTPUTS];
    let mut loss = 0.0;
    for k in 0..4 {
        let (l, g) = smooth_l1(o[k] - bbox[k]);
        loss += bbox_weight * l;
        grad[k] = bbox_weight * g;
    }
    let (ce, ce_grad) = cross_entropy(&o[4..], label);
    loss += ce;
    grad[4..].copy_from_slice(&ce_grad);
    (loss, Tensor3::from_vec(output.shape(), grad))
}

/// Trains a detector in place; returns the mean loss of the final epoch.
pub fn train_detector(net: &mut Network, samples: &[DetSample], cfg: &TrainConfig) -> f32 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut lr = cfg.lr;
    let mut last_epoch_loss = 0.0;
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let s = &samples[i];
            let acts = net.forward_collect(&s.input);
            let output = acts.last().expect("output");
            let (loss, grad) = detection_loss(output, s.label, &s.bbox, cfg.bbox_weight);
            loss_sum += loss;
            net.backward(&acts, grad);
            net.apply_grads(lr, 1);
        }
        last_epoch_loss = loss_sum / samples.len().max(1) as f32;
        lr *= cfg.lr_decay;
    }
    last_epoch_loss
}

/// Fine-tunes only the suffix (layers after `target`) on pre-computed target
/// activations — the Table III "training on warped activation data"
/// experiment. Classification variant.
pub fn finetune_suffix_classifier(
    net: &mut Network,
    target: usize,
    samples: &[(Tensor3, usize)],
    cfg: &TrainConfig,
) -> f32 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut lr = cfg.lr;
    let mut last = 0.0;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let (act, label) = &samples[i];
            let acts = net.forward_suffix_collect(act, target);
            let logits = acts.last().expect("output");
            let (loss, grad) = cross_entropy(logits.as_slice(), *label);
            loss_sum += loss;
            net.backward_suffix(target, &acts, Tensor3::from_vec(logits.shape(), grad));
            net.apply_grads(lr, 1);
        }
        last = loss_sum / samples.len().max(1) as f32;
        lr *= cfg.lr_decay;
    }
    last
}

/// Fine-tunes only the suffix on (activation, label, bbox) detection samples.
pub fn finetune_suffix_detector(
    net: &mut Network,
    target: usize,
    samples: &[(Tensor3, usize, [f32; 4])],
    cfg: &TrainConfig,
) -> f32 {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut lr = cfg.lr;
    let mut last = 0.0;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        for &i in &order {
            let (act, label, bbox) = &samples[i];
            let acts = net.forward_suffix_collect(act, target);
            let output = acts.last().expect("output");
            let (loss, grad) = detection_loss(output, *label, bbox, cfg.bbox_weight);
            loss_sum += loss;
            net.backward_suffix(target, &acts, grad);
            net.apply_grads(lr, 1);
        }
        last = loss_sum / samples.len().max(1) as f32;
        lr *= cfg.lr_decay;
    }
    last
}

/// Builds a one-hot logit check helper used in tests: returns the predicted
/// class of a classification output tensor.
pub fn predicted_class(logits: &Tensor3) -> usize {
    logits.argmax()
}

/// Extracts the class prediction from a detection output (argmax over the
/// class logits, skipping the 4 box channels).
pub fn predicted_detection_class(output: &Tensor3) -> usize {
    let o = output.as_slice();
    o[4..]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{tiny_alexnet, tiny_fasterm, NUM_CLASSES};
    use eva2_tensor::Shape3;
    use rand::{Rng, SeedableRng};

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let (loss, grad) = cross_entropy(&[0.0, 0.0, 0.0], 1);
        assert!(loss > 0.0);
        assert!(grad[1] < 0.0, "true-class gradient must be negative");
        assert!(grad[0] > 0.0 && grad[2] > 0.0);
        let total: f32 = grad.iter().sum();
        assert!(total.abs() < 1e-6, "CE grad sums to zero");
    }

    #[test]
    fn smooth_l1_branches() {
        let (l, g) = smooth_l1(0.5);
        assert!((l - 0.125).abs() < 1e-6);
        assert!((g - 0.5).abs() < 1e-6);
        let (l, g) = smooth_l1(-3.0);
        assert!((l - 2.5).abs() < 1e-6);
        assert_eq!(g, -1.0);
    }

    /// The central training sanity check: a classifier must fit a small
    /// synthetic set far above chance.
    #[test]
    fn classifier_learns_separable_patterns() {
        let mut zoo = tiny_alexnet(1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // Synthetic "class = bright quadrant" task on 32x32 inputs.
        let make = |label: usize, rng: &mut ChaCha8Rng| {
            let (qy, qx) = ((label / 2) % 2, label % 2);
            let input = Tensor3::from_fn(Shape3::new(1, 32, 32), |_, y, x| {
                let inside = (y / 16 == qy) && (x / 16 == qx);
                let base = if inside { 0.8 } else { 0.1 };
                base + rng.gen_range(-0.05..0.05)
            });
            ClsSample { input, label }
        };
        let samples: Vec<ClsSample> = (0..48).map(|i| make(i % 4, &mut rng)).collect();
        let cfg = TrainConfig {
            epochs: 8,
            lr: 0.005,
            ..TrainConfig::default()
        };
        train_classifier(&mut zoo.network, &samples, &cfg);
        let correct = samples
            .iter()
            .filter(|s| predicted_class(&zoo.network.forward(&s.input)) == s.label)
            .count();
        assert!(
            correct as f32 / samples.len() as f32 > 0.75,
            "only {correct}/{} correct",
            samples.len()
        );
    }

    #[test]
    fn detector_loss_decreases() {
        let mut zoo = tiny_fasterm(2);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let samples: Vec<DetSample> = (0..16)
            .map(|i| {
                let label = i % 2;
                let cy = if label == 0 { 0.3 } else { 0.7 };
                let input = Tensor3::from_fn(Shape3::new(1, 48, 48), |_, y, x| {
                    let d = (y as f32 / 48.0 - cy).abs() + (x as f32 / 48.0 - 0.5).abs();
                    if d < 0.2 {
                        0.9
                    } else {
                        0.1 + rng.gen_range(0.0..0.02)
                    }
                });
                DetSample {
                    input,
                    label,
                    bbox: [cy, 0.5, 0.3, 0.3],
                }
            })
            .collect();
        let cfg = TrainConfig {
            epochs: 1,
            lr: 0.01,
            ..TrainConfig::default()
        };
        let first = train_detector(&mut zoo.network, &samples, &cfg);
        let later = train_detector(&mut zoo.network, &samples, &cfg);
        assert!(later < first, "loss did not decrease: {first} -> {later}");
    }

    #[test]
    fn detection_loss_gradient_shape() {
        let out = Tensor3::from_vec(
            Shape3::new(DETECTION_OUTPUTS, 1, 1),
            vec![0.1; DETECTION_OUTPUTS],
        );
        let (loss, grad) = detection_loss(&out, 3, &[0.5, 0.5, 0.2, 0.2], 2.0);
        assert!(loss > 0.0);
        assert_eq!(grad.shape(), out.shape());
        // Class gradient for the true class is negative.
        assert!(grad.as_slice()[4 + 3] < 0.0);
    }

    #[test]
    fn suffix_finetune_only_changes_suffix() {
        let mut zoo = tiny_alexnet(4);
        let target = zoo.late_target;
        let input = Tensor3::filled(Shape3::new(1, 32, 32), 0.4);
        let act = zoo.network.forward_prefix(&input, target);
        let before_prefix = act.clone();
        let samples = vec![(act, 2usize)];
        let cfg = TrainConfig {
            epochs: 2,
            lr: 0.05,
            ..TrainConfig::default()
        };
        finetune_suffix_classifier(&mut zoo.network, target, &samples, &cfg);
        let after_prefix = zoo.network.forward_prefix(&input, target);
        assert_eq!(before_prefix, after_prefix);
    }

    #[test]
    fn predicted_detection_class_skips_bbox_channels() {
        let mut v = vec![9.0, 9.0, 9.0, 9.0]; // large bbox values must be ignored
        v.extend(vec![0.0; NUM_CLASSES]);
        v[4 + 5] = 1.0;
        let out = Tensor3::from_vec(Shape3::new(DETECTION_OUTPUTS, 1, 1), v);
        assert_eq!(predicted_detection_class(&out), 5);
    }
}
