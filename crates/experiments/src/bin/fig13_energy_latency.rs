//! Figure 13: normalized latency (a) and energy (b) per frame for the three
//! workloads — `orig` (baseline CNN execution), `pred` (EVA² predicted
//! frames alone), and `avg` (the overall average at the paper's `med`
//! key-frame rates), with the per-unit breakdown (Eyeriss / EIE / EVA²).

use eva2_experiments::report::{qty, Table};
use eva2_hw::cost::HwModel;
use eva2_hw::nets;

/// Key-frame fractions of the paper's `med` configurations (Table I).
const MED_KEYS: [(&str, f64); 3] = [("AlexNet", 0.11), ("Faster16", 0.36), ("FasterM", 0.37)];

fn main() {
    let model = HwModel::default();
    println!("Figure 13: performance and energy impact of EVA2");
    println!("(bars normalized to the orig baseline; med key-frame rates from Table I)");
    println!();
    let mut t = Table::new([
        "network",
        "config",
        "latency (ms)",
        "norm. latency",
        "energy (mJ)",
        "norm. energy",
        "Eyeriss mJ",
        "EIE mJ",
        "EVA2 mJ",
    ]);
    for (name, keys) in MED_KEYS {
        let net = nets::by_name(name).expect("workload");
        let orig = model.baseline_cost(&net);
        let pred = model.predicted_frame_cost(&net);
        let avg = model.average_cost(&net, keys);
        for (config, cost) in [("orig", orig), ("pred", pred), ("avg", avg)] {
            t.row([
                name.to_string(),
                config.to_string(),
                qty(cost.latency_ms),
                format!("{:.3}", cost.latency_ms / orig.latency_ms),
                qty(cost.energy_mj),
                format!("{:.3}", cost.energy_mj / orig.energy_mj),
                qty(cost.eyeriss_mj),
                qty(cost.eie_mj),
                qty(cost.eva2_mj),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Paper shape: average energy reductions of ~87% (AlexNet), ~62% (Faster16), ~54% (FasterM).");
    for (name, keys) in MED_KEYS {
        let net = nets::by_name(name).expect("workload");
        let orig = model.baseline_cost(&net);
        let avg = model.average_cost(&net, keys);
        println!(
            "  {name}: measured energy reduction = {:.0}%",
            100.0 * (1.0 - avg.energy_mj / orig.energy_mj)
        );
    }
}
