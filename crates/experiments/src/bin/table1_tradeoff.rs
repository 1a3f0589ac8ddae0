//! Table I: the accuracy/efficiency trade-off space.
//!
//! For each workload: train it, measure the `orig` baseline accuracy, sweep
//! the adaptive block-error threshold on the *validation* split to find the
//! `hi`/`med`/`lo` configurations (validation accuracy degradation < 0.5%,
//! < 1%, < 2%), then report test-set accuracy, key-frame fraction, and
//! average per-frame latency/energy from the hardware model.
//!
//! Also reproduces the §IV-E1 AlexNet warp-ablation numbers (memoization vs
//! motion compensation for a translation-insensitive task).

use eva2_cnn::zoo::Workload;
use eva2_core::executor::WarpMode;
use eva2_core::policy::PolicyConfig;
use eva2_experiments::evalproto::{amc_config_for, baseline_accuracy, run_policy};
use eva2_experiments::report::{pct, qty, write_json, Table};
use eva2_experiments::workloads::{train_workload, Budget};
use eva2_hw::cost::HwModel;
use eva2_hw::nets;
use serde::Serialize;

#[derive(Serialize)]
struct Table1Row {
    network: String,
    config: String,
    accuracy: f32,
    keys_percent: f32,
    time_ms: f64,
    energy_mj: f64,
}

const THRESHOLDS: [f32; 9] = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 9.0, 14.0];

fn main() {
    let budget = Budget::from_env();
    let model = HwModel::default();
    println!("Table I: accuracy vs resource efficiency (synthetic-video analogues)");
    println!();
    let mut rows = Vec::new();
    let mut t = Table::new([
        "Network",
        "Config",
        "Acc.",
        "Keys",
        "Time (ms)",
        "Energy (mJ)",
    ]);
    for workload in Workload::ALL {
        eprintln!("[table1] training {} ...", workload.name());
        let tw = train_workload(workload, &budget);
        let hw_net = nets::by_name(workload.name()).expect("descriptor");
        let orig_val = baseline_accuracy(&tw.zoo, &tw.validation);
        let orig_test = baseline_accuracy(&tw.zoo, &tw.test);
        let orig_cost = model.baseline_cost(&hw_net);
        t.row([
            workload.name().to_string(),
            "orig".into(),
            pct(orig_test),
            "100%".into(),
            qty(orig_cost.latency_ms),
            qty(orig_cost.energy_mj),
        ]);
        rows.push(Table1Row {
            network: workload.name().into(),
            config: "orig".into(),
            accuracy: orig_test,
            keys_percent: 100.0,
            time_ms: orig_cost.latency_ms,
            energy_mj: orig_cost.energy_mj,
        });

        // Sweep thresholds on validation, recording (threshold, drop, keys).
        let mut sweep = Vec::new();
        for &threshold in &THRESHOLDS {
            let mut cfg = amc_config_for(workload);
            cfg.policy = PolicyConfig::BlockError {
                threshold,
                max_gap: 24,
            };
            let out = run_policy(&tw.zoo, &tw.validation, cfg);
            sweep.push((threshold, orig_val - out.accuracy, out.key_fraction));
            eprintln!(
                "[table1] {} threshold {threshold}: val drop {:.2} pts, keys {:.0}%",
                workload.name(),
                orig_val - out.accuracy,
                out.key_fraction * 100.0
            );
        }
        // hi/med/lo: largest threshold whose validation degradation stays
        // below the bound (falling back to the tightest threshold).
        for (config, bound) in [("hi", 0.5f32), ("med", 1.0), ("lo", 2.0)] {
            let chosen = sweep
                .iter()
                .filter(|(_, drop, _)| *drop < bound)
                .map(|&(th, _, _)| th)
                .fold(f32::NAN, f32::max);
            let threshold = if chosen.is_nan() {
                THRESHOLDS[0]
            } else {
                chosen
            };
            let mut cfg = amc_config_for(workload);
            cfg.policy = PolicyConfig::BlockError {
                threshold,
                max_gap: 24,
            };
            let out = run_policy(&tw.zoo, &tw.test, cfg);
            let cost = model.average_cost(&hw_net, out.key_fraction as f64);
            t.row([
                workload.name().to_string(),
                config.into(),
                pct(out.accuracy),
                format!("{:.0}%", out.key_fraction * 100.0),
                qty(cost.latency_ms),
                qty(cost.energy_mj),
            ]);
            rows.push(Table1Row {
                network: workload.name().into(),
                config: config.into(),
                accuracy: out.accuracy,
                keys_percent: out.key_fraction * 100.0,
                time_ms: cost.latency_ms,
                energy_mj: cost.energy_mj,
            });
        }
    }
    println!("{}", t.render());

    // §IV-E1 ablation: AlexNet memoization vs motion compensation.
    println!("\nSection IV-E1 ablation: AlexNet predicted-frame updates");
    let tw = train_workload(Workload::AlexNet, &budget);
    let orig = baseline_accuracy(&tw.zoo, &tw.test);
    let mut memo_cfg = amc_config_for(Workload::AlexNet);
    memo_cfg.policy = PolicyConfig::StaticRate { period: 12 };
    let memo = run_policy(&tw.zoo, &tw.test, memo_cfg);
    let mut warp_cfg = memo_cfg;
    warp_cfg.warp = WarpMode::MotionCompensate;
    let warp = run_policy(&tw.zoo, &tw.test, warp_cfg);
    println!("  orig accuracy            = {}", pct(orig));
    println!(
        "  memoization (paper: -1%)  = {} (drop {:.2})",
        pct(memo.accuracy),
        orig - memo.accuracy
    );
    println!(
        "  motion comp (paper: -5%)  = {} (drop {:.2})",
        pct(warp.accuracy),
        orig - warp.accuracy
    );
    write_json("table1_tradeoff", &rows);
}
