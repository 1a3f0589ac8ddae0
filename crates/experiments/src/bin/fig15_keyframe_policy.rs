//! Figure 15: adaptive key-frame selection — vision accuracy as a function
//! of the predicted-frame percentage, for the two candidate policy features
//! (RFBME block-match error vs total motion-vector magnitude).
//!
//! Protocol (per §IV-E5): fix the frame sampling gap (198 ms for detection,
//! the longest representable gap for classification), sweep the decision
//! threshold, and record (predicted-frame %, accuracy). A fixed key-frame
//! rate would trace the straight line between the 0% and 100% endpoints;
//! adaptive curves should sit above it.

use eva2_cnn::zoo::Workload;
use eva2_core::policy::PolicyConfig;
use eva2_experiments::evalproto::{amc_config_for, fixed_gap_adaptive};
use eva2_experiments::report::{pct, Table};
use eva2_experiments::workloads::{train_workload, Budget};
use eva2_video::frame::Clip;

const ERROR_THRESHOLDS: [f32; 7] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, f32::INFINITY];
const MAGNITUDE_THRESHOLDS: [f32; 7] = [0.0, 10.0, 25.0, 50.0, 100.0, 200.0, f32::INFINITY];

fn main() {
    let budget = Budget::from_env();
    println!("Figure 15: adaptive key-frame selection strategies");
    println!();
    for workload in Workload::ALL {
        eprintln!("[fig15] training {} ...", workload.name());
        let tw = train_workload(workload, &budget);
        let gap = match workload {
            Workload::AlexNet => (budget.eval_clip_len / 2).max(1),
            _ => Clip::frames_for_gap_ms(198.0),
        };
        println!(
            "{} (sampling gap = {} frames ≈ {:.0} ms):",
            workload.name(),
            gap,
            gap as f32 * Clip::FRAME_MS
        );
        let mut t = Table::new(["feature", "threshold", "predicted %", "accuracy"]);
        for (feature, thresholds) in [
            ("block-error", &ERROR_THRESHOLDS),
            ("motion-magnitude", &MAGNITUDE_THRESHOLDS),
        ] {
            for &threshold in thresholds.iter() {
                let mut cfg = amc_config_for(workload);
                cfg.policy = match feature {
                    "block-error" => PolicyConfig::BlockError {
                        threshold,
                        max_gap: usize::MAX,
                    },
                    _ => PolicyConfig::MotionMagnitude {
                        threshold,
                        max_gap: usize::MAX,
                    },
                };
                let (pred_frac, acc) = fixed_gap_adaptive(&tw.zoo, &tw.test, gap, cfg);
                t.row([
                    feature.to_string(),
                    if threshold.is_infinite() {
                        "inf".to_string()
                    } else {
                        format!("{threshold}")
                    },
                    format!("{:.0}", pred_frac * 100.0),
                    pct(acc),
                ]);
            }
        }
        println!("{}", t.render());
    }
    println!("Paper shape: both adaptive curves dominate the straight fixed-rate line between");
    println!("their endpoints; block error and motion magnitude perform comparably, and the");
    println!("hardware uses block error because it is an RFBME byproduct.");
}
