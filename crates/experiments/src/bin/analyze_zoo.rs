//! Prints the `eva2-analysis` static-verification report for every zoo
//! network at both canonical target layers under the default serving
//! configuration, plus the Q8.8 fixed-point datapath for FasterM — the
//! workload the serving suites run fixed. (At their late targets the deeper
//! networks' *static* interval bound exceeds Q8.8 range; the activations
//! they actually produce stay far inside it. The analysis reports the bound
//! as a warning that names the Q8.8 key store, and the repo never
//! constructs those networks fixed, where it would be an error.)
//!
//! Exits nonzero if any (network, configuration) pair produces an
//! error-severity diagnostic, **or** if the static cost model's MAC
//! predictions disagree with a live two-frame runtime probe (one key
//! frame, one predicted frame) — CI runs this as a gate, so the shipped
//! zoo can never regress into a state the `Engine` constructor would
//! refuse, and the cost numbers the capacity planner sizes fleets with
//! can never drift from what the executor actually does.

use eva2_cnn::network::Network;
use eva2_cnn::zoo::Workload;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::policy::PolicyConfig;
use eva2_core::target::TargetSelection;
use eva2_tensor::GrayImage;

/// Runs one key frame and one predicted frame, returning their measured
/// `macs_executed` — the live numbers the static model must hit exactly.
fn runtime_probe(
    net: &Network,
    target: TargetSelection,
    fixed_point: bool,
) -> Result<(u64, u64), String> {
    let config = AmcConfig::builder()
        .target(target)
        .fixed_point(fixed_point)
        .policy(PolicyConfig::StaticRate { period: 1000 })
        .build()
        .map_err(|e| format!("probe config: {e}"))?;
    let mut exec = AmcExecutor::try_new(net, config).map_err(|e| format!("probe build: {e}"))?;
    let shape = net.input_shape();
    let frame = |t: usize| {
        GrayImage::from_fn(shape.height, shape.width, |y, x| {
            let xs = (x + 2 * t) as f32;
            (120.0 + 46.0 * ((y as f32 * 0.27).sin() + (xs * 0.21).cos())) as u8
        })
    };
    let key = exec
        .try_process(&frame(0))
        .map_err(|e| format!("probe key frame: {e}"))?;
    let predicted = exec
        .try_process(&frame(1))
        .map_err(|e| format!("probe predicted frame: {e}"))?;
    if !key.is_key || predicted.is_key {
        return Err("probe frames did not split key/predicted as forced".into());
    }
    Ok((key.macs_executed, predicted.macs_executed))
}

fn main() {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for workload in Workload::ALL {
        let z = workload.build(11);
        for (label, target) in [
            ("early", TargetSelection::Early),
            ("late", TargetSelection::Late),
        ] {
            let fixed_modes: &[bool] = match workload {
                Workload::FasterM => &[false, true],
                _ => &[false],
            };
            for &fixed_point in fixed_modes {
                let config = AmcConfig::builder()
                    .target(target)
                    .fixed_point(fixed_point)
                    .build()
                    .expect("default-derived config is valid");
                let report = match config.analyze(&z.network) {
                    Ok(r) => r,
                    Err(e) => {
                        println!(
                            "== {} / {label} target / fixed_point={fixed_point}: \
                             target resolution failed: {e}",
                            workload.name()
                        );
                        errors += 1;
                        continue;
                    }
                };
                println!(
                    "== {} / {label} target / fixed_point={fixed_point}",
                    workload.name()
                );
                println!("{}", report.render());
                errors += report.errors().count();
                warnings += report.warnings().count();
                match (&report.cost, runtime_probe(&z.network, target, fixed_point)) {
                    (Some(cost), Ok((key_macs, predicted_macs))) => {
                        let key_ok = cost.key_frame_macs == key_macs;
                        let predicted_ok = cost.predicted_frame_macs == predicted_macs;
                        println!(
                            "  probe: key {key_macs} MACs ({}), predicted {predicted_macs} \
                             MACs ({})",
                            if key_ok {
                                "matches static"
                            } else {
                                "STATIC MISMATCH"
                            },
                            if predicted_ok {
                                "matches static"
                            } else {
                                "STATIC MISMATCH"
                            },
                        );
                        if !key_ok || !predicted_ok {
                            eprintln!(
                                "  static model predicted key {} / predicted {}",
                                cost.key_frame_macs, cost.predicted_frame_macs
                            );
                            errors += 1;
                        }
                    }
                    (None, _) => {
                        eprintln!("  cost model did not build for a shipped zoo network");
                        errors += 1;
                    }
                    (_, Err(e)) => {
                        eprintln!("  runtime probe failed: {e}");
                        errors += 1;
                    }
                }
            }
        }
    }
    println!("analysis summary: {errors} error(s), {warnings} warning(s)");
    if errors > 0 {
        eprintln!("FAIL: zoo networks must verify clean under default configurations");
        std::process::exit(1);
    }
}
