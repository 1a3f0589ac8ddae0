//! Evaluation protocols shared by the experiment binaries.

use eva2_cnn::metrics::{self, Detection, DetectionResult, NormBox};
use eva2_cnn::network::Network;
use eva2_cnn::zoo::{Task, Workload, ZooNet};
use eva2_core::executor::{AmcConfig, AmcExecutor, WarpMode};
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::Engine;
use eva2_core::target::TargetSelection;
use eva2_core::warp::warp_activation;
use eva2_motion::hornschunck::HornSchunck;
use eva2_motion::lucas_kanade::LucasKanade;
use eva2_motion::rfbme::{Rfbme, SearchParams};
use eva2_motion::MotionEstimator;
use eva2_tensor::interp::Interpolation;
use eva2_tensor::Tensor3;
use eva2_video::frame::{Clip, Frame};
use std::sync::Arc;

/// RFBME search window used throughout the experiments (chosen to cover the
/// synthetic dataset's motion range at its longest gaps).
pub const SEARCH: SearchParams = SearchParams {
    radius: 12,
    step: 1,
};

/// The AMC configuration the paper converges on per workload: motion
/// compensation with bilinear interpolation for the detection networks,
/// plain memoization for AlexNet (§IV-E1).
pub fn amc_config_for(workload: Workload) -> AmcConfig {
    let warp = match workload {
        Workload::AlexNet => WarpMode::Memoize,
        _ => WarpMode::MotionCompensate { bilinear: true },
    };
    AmcConfig {
        target: TargetSelection::Late,
        warp,
        search: SEARCH,
        policy: PolicyConfig::BlockError {
            threshold: 3.0,
            max_gap: 16,
        },
        fixed_point: false,
        sparsity_threshold: 1.0 / 256.0,
        max_residual_error: f32::INFINITY,
        allow_unverified: false,
    }
}

/// Normalized ground-truth box of a frame.
pub fn truth_normbox(frame: &Frame) -> NormBox {
    let h = frame.image.height() as f32;
    let w = frame.image.width() as f32;
    let (cy, cx) = frame.truth.bbox.center();
    NormBox {
        cy: cy / h,
        cx: cx / w,
        h: frame.truth.bbox.h / h,
        w: frame.truth.bbox.w / w,
    }
}

/// Scores a batch of `(output, truth frame)` pairs with the task's metric:
/// top-1 percent for classification, mAP@0.5 percent for detection.
pub fn score(task: Task, outputs: &[(Tensor3, &Frame)]) -> f32 {
    match task {
        Task::Classification => {
            let pairs: Vec<(usize, usize)> = outputs
                .iter()
                .map(|(o, f)| (o.argmax(), f.truth.class))
                .collect();
            metrics::top1_accuracy(&pairs)
        }
        Task::Detection => {
            let results: Vec<DetectionResult> = outputs
                .iter()
                .map(|(o, f)| DetectionResult {
                    prediction: Detection::from_output(o),
                    truth_class: f.truth.class,
                    truth_bbox: truth_normbox(f),
                })
                .collect();
            metrics::mean_average_precision(&results, 0.5)
        }
    }
}

/// Accuracy of plain full-CNN execution on every frame — the paper's `orig`
/// rows and the "new key frame" bars of Fig 14.
pub fn baseline_accuracy(zoo: &ZooNet, clips: &[Clip]) -> f32 {
    let outputs: Vec<(Tensor3, &Frame)> = clips
        .iter()
        .flat_map(|c| c.frames.iter())
        .map(|f| (zoo.network.forward(&f.image.to_tensor()), f))
        .collect();
    score(zoo.task, &outputs)
}

/// How a predicted frame's activation is produced in the fixed-gap protocol
/// (Fig 14 / Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapPredictor {
    /// Ideal: run the full CNN on the predicted frame ("new key frame").
    NewKey,
    /// Worst case: reuse the stale key activation ("old key frame").
    OldKey,
    /// RFBME + activation warping (the EVA² design).
    Rfbme {
        /// Bilinear (true) or nearest-neighbour interpolation.
        bilinear: bool,
    },
    /// Pixel-level Lucas–Kanade flow, averaged per receptive field.
    LucasKanade,
    /// Dense variational flow (FlowNet2-s stand-in), averaged per receptive
    /// field.
    DenseFlow,
}

impl GapPredictor {
    /// Display name matching Fig 14's x-axis.
    pub fn name(&self) -> &'static str {
        match self {
            GapPredictor::NewKey => "(new key frame)",
            GapPredictor::OldKey => "(old key frame)",
            GapPredictor::Rfbme { bilinear: true } => "RFBME",
            GapPredictor::Rfbme { bilinear: false } => "RFBME (nearest)",
            GapPredictor::LucasKanade => "Lucas-Kanade",
            GapPredictor::DenseFlow => "DenseFlow (FlowNet2-s stand-in)",
        }
    }
}

/// Produces the suffix output for a key/predicted frame pair under a
/// predictor, at an explicit target layer.
pub fn predict_output(
    net: &Network,
    target: usize,
    key: &Frame,
    pred: &Frame,
    predictor: GapPredictor,
) -> Tensor3 {
    match predictor {
        GapPredictor::NewKey => net.forward(&pred.image.to_tensor()),
        GapPredictor::OldKey => {
            let act = net.forward_prefix(&key.image.to_tensor(), target);
            net.forward_suffix(&act, target)
        }
        GapPredictor::Rfbme { bilinear } => {
            let rf = net.receptive_field(target);
            let rfbme = Rfbme::new(
                eva2_motion::rfbme::RfGeometry {
                    size: rf.size,
                    stride: rf.stride,
                    padding: rf.padding,
                },
                SEARCH,
            );
            let motion = rfbme.estimate(&key.image, &pred.image);
            let act = net.forward_prefix(&key.image.to_tensor(), target);
            let method = if bilinear {
                Interpolation::Bilinear
            } else {
                Interpolation::NearestNeighbor
            };
            let (warped, _) = warp_activation(&act, &motion.field, rf.stride, method);
            net.forward_suffix(&warped, target)
        }
        GapPredictor::LucasKanade | GapPredictor::DenseFlow => {
            let rf = net.receptive_field(target);
            let result = match predictor {
                GapPredictor::LucasKanade => {
                    LucasKanade::default().estimate(&key.image, &pred.image)
                }
                _ => HornSchunck::default().estimate(&key.image, &pred.image),
            };
            let act = net.forward_prefix(&key.image.to_tensor(), target);
            let shape = act.shape();
            // "We take the average vector within each receptive field"
            // (§IV-E2): resample the dense field onto the activation grid.
            let field = result.field.resample(shape.height, shape.width, rf.stride);
            let (warped, _) = warp_activation(&act, &field, rf.stride, Interpolation::Bilinear);
            net.forward_suffix(&warped, target)
        }
    }
}

/// The fixed-gap protocol: every `gap` frames, treat frame `t` as the key
/// frame and predict frame `t + gap`; score the predictions.
///
/// This isolates prediction quality at a controlled key-to-predicted time
/// gap (33 ms = 1 frame, 198 ms = 6 frames at 30 fps), exactly Fig 14's and
/// Table II's setup.
pub fn gap_accuracy(
    zoo: &ZooNet,
    target: usize,
    clips: &[Clip],
    gap: usize,
    predictor: GapPredictor,
) -> f32 {
    let gap = gap.max(1);
    let mut outputs: Vec<(Tensor3, &Frame)> = Vec::new();
    for clip in clips {
        let mut t0 = 0;
        while t0 + gap < clip.len() {
            let key = &clip.frames[t0];
            let pred = &clip.frames[t0 + gap];
            outputs.push((
                predict_output(&zoo.network, target, key, pred, predictor),
                pred,
            ));
            t0 += gap;
        }
    }
    score(zoo.task, &outputs)
}

/// Result of a policy-driven run over whole clips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Task accuracy over every frame (keys and predictions), percent.
    pub accuracy: f32,
    /// Fraction of frames executed as key frames.
    pub key_fraction: f32,
    /// Total frames evaluated.
    pub frames: usize,
}

/// Runs the full AMC stack over each clip (state resets between clips,
/// like the paper's per-video evaluation) and scores every frame's output.
///
/// Frames flow through the serving [`Engine`], the same entry point
/// production serving uses, one fresh session per clip; outputs are
/// bit-identical to the serial [`AmcExecutor`].
pub fn run_policy(zoo: &ZooNet, clips: &[Clip], config: AmcConfig) -> PolicyOutcome {
    // The engine needs an owned network; zoo networks are small.
    let mut engine = Engine::new(Arc::new(zoo.network.clone()), config).expect("valid AMC config");
    let mut outputs: Vec<(Tensor3, &Frame)> = Vec::new();
    let mut keys = 0usize;
    let mut frames = 0usize;
    for clip in clips {
        // A fresh session per clip, like the paper's per-video evaluation.
        let mut session = engine
            .open_session()
            .expect("an unlimited engine has capacity");
        for frame in &clip.frames {
            let r = engine
                .process(&mut session, &frame.image)
                .into_result()
                .expect("engine refused a clean experiment frame");
            keys += r.is_key as usize;
            frames += 1;
            outputs.push((r.output, frame));
        }
    }
    PolicyOutcome {
        accuracy: score(zoo.task, &outputs),
        key_fraction: if frames == 0 {
            0.0
        } else {
            keys as f32 / frames as f32
        },
        frames,
    }
}

/// The Fig 15 protocol: frames are sampled at a fixed `gap`; an adaptive
/// policy (with the given threshold applied to one of the two §II-C4
/// features) decides per sampled frame whether to refresh the key frame.
/// Returns `(predicted-frame fraction, accuracy)`.
pub fn fixed_gap_adaptive(
    zoo: &ZooNet,
    clips: &[Clip],
    gap: usize,
    config: AmcConfig,
) -> (f32, f32) {
    let gap = gap.max(1);
    let mut outputs: Vec<(Tensor3, &Frame)> = Vec::new();
    let mut keys = 0usize;
    let mut total = 0usize;
    for clip in clips {
        let mut amc = AmcExecutor::try_new(&zoo.network, config).expect("valid AMC config");
        let mut t = 0;
        while t < clip.len() {
            let frame = &clip.frames[t];
            let r = amc.process(&frame.image);
            keys += r.is_key as usize;
            total += 1;
            outputs.push((r.output, frame));
            t += gap;
        }
    }
    let pred_fraction = if total == 0 {
        0.0
    } else {
        1.0 - keys as f32 / total as f32
    };
    (pred_fraction, score(zoo.task, &outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{train_workload, Budget};

    fn tiny_budget() -> Budget {
        Budget {
            train_clips: 12,
            train_clip_len: 2,
            eval_clips: 3,
            eval_clip_len: 8,
            epochs: 2,
        }
    }

    #[test]
    fn new_key_predictor_matches_baseline_on_gap_frames() {
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let target = tw.zoo.late_target;
        // NewKey at any gap scores identically to running the network
        // directly on the same frames.
        let a = gap_accuracy(&tw.zoo, target, &tw.test, 2, GapPredictor::NewKey);
        assert!((0.0..=100.0).contains(&a));
    }

    #[test]
    fn policy_run_counts_frames() {
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let out = run_policy(&tw.zoo, &tw.test, amc_config_for(Workload::FasterM));
        assert_eq!(out.frames, 3 * 8);
        assert!(
            out.key_fraction >= 3.0 / 24.0 - 1e-6,
            "each clip starts with a key"
        );
    }

    #[test]
    fn engine_executor_reproduces_serial_policy_outcome() {
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let cfg = amc_config_for(Workload::FasterM);
        let mut outputs: Vec<(Tensor3, &Frame)> = Vec::new();
        let mut keys = 0usize;
        for clip in &tw.test {
            let mut amc = AmcExecutor::try_new(&tw.zoo.network, cfg).unwrap();
            for frame in &clip.frames {
                let r = amc.process(&frame.image);
                keys += r.is_key as usize;
                outputs.push((r.output, frame));
            }
        }
        let serial = PolicyOutcome {
            accuracy: score(tw.zoo.task, &outputs),
            key_fraction: keys as f32 / outputs.len() as f32,
            frames: outputs.len(),
        };
        assert_eq!(
            run_policy(&tw.zoo, &tw.test, cfg),
            serial,
            "the serving engine must match the serial oracle"
        );
    }

    #[test]
    fn always_key_policy_has_key_fraction_one() {
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let mut cfg = amc_config_for(Workload::FasterM);
        cfg.policy = PolicyConfig::AlwaysKey;
        let out = run_policy(&tw.zoo, &tw.test, cfg);
        assert!((out.key_fraction - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_gap_adaptive_bounds() {
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let mut cfg = amc_config_for(Workload::FasterM);
        cfg.policy = PolicyConfig::BlockError {
            threshold: f32::INFINITY,
            max_gap: usize::MAX,
        };
        let (pred_frac, _) = fixed_gap_adaptive(&tw.zoo, &tw.test, 2, cfg);
        // Only the first frame of each clip is a key.
        let expect = 1.0 - 3.0 / (3.0 * 4.0);
        assert!((pred_frac - expect).abs() < 1e-6, "pred_frac {pred_frac}");
    }

    #[test]
    fn score_handles_both_tasks() {
        use eva2_tensor::Shape3;
        let tw = train_workload(Workload::FasterM, &tiny_budget());
        let f = &tw.test[0].frames[0];
        let out = tw.zoo.network.forward(&f.image.to_tensor());
        let s = score(Task::Detection, &[(out, f)]);
        assert!((0.0..=100.0).contains(&s));
        let logits = Tensor3::from_fn(Shape3::new(8, 1, 1), |c, _, _| {
            if c == f.truth.class {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(score(Task::Classification, &[(logits, f)]), 100.0);
    }
}
