//! Table III: does fine-tuning the CNN suffix on *warped* activation data
//! help? The paper finds the effect small or negative and concludes
//! "additional training on warped data is unnecessary".
//!
//! Protocol: build warped-activation training samples (key frame at `t`,
//! RFBME-warp its target activation to `t + gap`, label with frame
//! `t + gap`'s ground truth), fine-tune only the suffix, then measure
//! accuracy on *plain* (key-frame) data — exactly the paper's "accuracy
//! column shows the network's score when processing plain, unwarped
//! activation data".

use eva2_cnn::train::TrainConfig;
use eva2_cnn::zoo::{Task, Workload};
use eva2_core::warp::warp_activation;
use eva2_experiments::evalproto::{baseline_accuracy, SEARCH};
use eva2_experiments::report::{pct, Table};
use eva2_experiments::workloads::{det_sample, train_workload, Budget, TrainedWorkload};
use eva2_motion::rfbme::{RfGeometry, Rfbme};
use eva2_tensor::interp::Interpolation;
use eva2_tensor::Tensor3;

/// Builds (warped activation, label, bbox) samples at the given target.
fn warped_samples(
    tw: &TrainedWorkload,
    target: usize,
    gap: usize,
) -> Vec<(Tensor3, usize, [f32; 4])> {
    let rf = tw.zoo.network.receptive_field(target);
    let rfbme = Rfbme::new(
        RfGeometry {
            size: rf.size,
            stride: rf.stride,
            padding: rf.padding,
        },
        SEARCH,
    );
    let mut samples = Vec::new();
    for clip in &tw.validation {
        let mut t0 = 0;
        while t0 + gap < clip.len() {
            let key = &clip.frames[t0];
            let pred = &clip.frames[t0 + gap];
            let motion = rfbme.estimate(&key.image, &pred.image);
            let act = tw
                .zoo
                .network
                .forward_prefix(&key.image.to_tensor(), target);
            let (warped, _) =
                warp_activation(&act, &motion.field, rf.stride, Interpolation::Bilinear);
            let d = det_sample(pred);
            samples.push((warped, d.label, d.bbox));
            t0 += gap;
        }
    }
    samples
}

fn main() {
    let budget = Budget::from_env();
    println!("Table III: fine-tuning the CNN suffix on warped activation data");
    println!("(accuracy measured on plain, unwarped key-frame data)");
    println!();
    let mut t = Table::new(["Network", "Target Layer", "Accuracy"]);
    for workload in [Workload::FasterM, Workload::Faster16] {
        eprintln!("[table3] training {} ...", workload.name());
        let tw = train_workload(workload, &budget);
        assert_eq!(tw.zoo.task, Task::Detection);
        let no_retrain = baseline_accuracy(&tw.zoo, &tw.test);
        t.row([
            workload.name().to_string(),
            "No Retraining".into(),
            pct(no_retrain),
        ]);
        for (label, target) in [
            ("Early Target", tw.zoo.early_target),
            ("Late Target", tw.zoo.late_target),
        ] {
            eprintln!("[table3] {} fine-tune at {label} ...", workload.name());
            // Fresh copy of the trained network for each variant.
            let mut variant = train_workload(workload, &budget);
            let samples = warped_samples(&variant, target, 3);
            // Gentle fine-tuning: warped activations from chaotic clips are
            // partially garbage targets; the full training rate would wreck
            // the suffix rather than adapt it.
            let cfg = TrainConfig {
                epochs: 1,
                lr: 0.00005,
                ..TrainConfig::default()
            };
            eva2_cnn::train::finetune_suffix_detector(
                &mut variant.zoo.network,
                target,
                &samples,
                &cfg,
            );
            let acc = baseline_accuracy(&variant.zoo, &variant.test);
            t.row([workload.name().to_string(), label.into(), pct(acc)]);
        }
    }
    println!("{}", t.render());
    println!("Paper shape: retraining on warped data gives no reliable improvement on plain");
    println!("data (small or negative deltas) — so AMC ships without suffix retraining.");
}
