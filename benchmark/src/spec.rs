//! The metric tables: the one place names, units, directions and bounds are
//! written down. `BENCHMARK.json` is printed from here (`manifest`), and a
//! test holds the committed file equal to it.

use crate::workload::WORKLOADS;

/// Seconds one driver run measures for; also the default of `--seconds`.
pub const RUN_SECONDS: u32 = 25;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the serving engine would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported for every workload, with tracing off.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "frames_per_s",
        unit: "frames/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "frame_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "frame_latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "deadline_met_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.005,
    },
    EndToEnd {
        name: "served_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "mac_share_of_full_cnn",
        unit: "share",
        better: Better::Lower,
        bound: 0.07,
    },
    EndToEnd {
        name: "output_rms_vs_full_cnn",
        unit: "rms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "session_kib",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced passes. No bound.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// GEMM layers of the prefixes the workloads run (`tiny_fasterm` and
/// `tiny_faster16`); a layer a workload's network lacks reads 0 there.
pub const PREFIX_GEMM_LAYERS: [&str; 9] = [
    "conv1", "conv2", "conv3", "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
];

/// Reported for every workload, from the traced passes.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let fixed: [(&str, &'static str, Better); 36] = [
        ("motion.rfbme.busy_us", "us", Lower),
        ("motion.rfbme.calls", "count", Lower),
        ("motion.rfbme.ops_per_call", "count", Lower),
        ("motion.rfbme.reject_share", "share", Higher),
        ("cnn.prefix.busy_us", "us", Lower),
        ("cnn.prefix.calls", "count", Lower),
        ("cnn.suffix_sparse.busy_us", "us", Lower),
        ("cnn.suffix_sparse.calls", "count", Lower),
        ("cnn.other_layers.busy_us", "us", Lower),
        ("tensor.gemm.peak_gmacs_per_s", "GMAC/s", Higher),
        ("tensor.gemm.peak_drift_share", "share", Lower),
        ("core.sparse.encode.busy_us", "us", Lower),
        ("core.sparse.compression", "share", Higher),
        ("core.sparse.activation_sparsity", "share", Higher),
        ("core.warp.busy_us", "us", Lower),
        ("core.warp.calls", "count", Lower),
        ("core.warp.interpolations_per_call", "count", Lower),
        ("core.policy.key_share", "share", Lower),
        ("core.policy.forced_key_share", "share", Lower),
        ("core.executor.process.busy_us", "us", Lower),
        ("core.executor.process.self_us", "us", Lower),
        ("core.executor.attributed_share", "share", Higher),
        ("core.serve.tick.busy_us", "us", Lower),
        ("core.serve.batch_size", "count", Higher),
        ("core.serve.key_batch_size", "count", Lower),
        ("core.serve.overhead_share", "share", Lower),
        ("core.serve.backlog_end_ms", "ms", Lower),
        ("core.serve.maintain.busy_us", "us", Lower),
        ("core.serve.evictions", "count", Lower),
        ("core.serve.open_session.busy_us", "us", Lower),
        ("core.serve.opens", "count", Lower),
        ("core.serve.shed", "count", Lower),
        ("core.serve.failed", "count", Lower),
        ("analysis.gate.busy_us", "us", Lower),
        ("video.render.busy_us", "us", Lower),
        ("trace.overhead_share", "share", Lower),
    ];
    let mut out: Vec<PerLayer> = fixed
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for layer in PREFIX_GEMM_LAYERS {
        out.push(PerLayer {
            name: format!("cnn.layer.{layer}.busy_us"),
            unit: "us",
            better: Lower,
        });
        out.push(PerLayer {
            name: format!("cnn.layer.{layer}.gmacs_per_s"),
            unit: "GMAC/s",
            better: Higher,
        });
    }
    out
}

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name.to_string()));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name.to_string()), "{} is used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name.clone()), "{} is used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() <= 64 * 1024);
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn committed_manifest_is_the_printed_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
