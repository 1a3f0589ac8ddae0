//! CI bench-regression gate.
//!
//! Re-measures the tracked speedup ratios (conv GEMM speedup, sparse-suffix
//! speedups, key/predicted frame ratio, RFBME fast-path speedup) on a
//! reduced sampling plan and compares them against the committed
//! `BENCH_conv.json`. Exits nonzero when any ratio regressed by more than
//! the tolerance (default 30%), so a PR that quietly loses an optimization
//! fails CI instead of merging.
//!
//! Ratios — not absolute nanoseconds — are compared because they divide out
//! how fast the CI machine happens to be; each ratio pits two in-process
//! implementations against each other under identical noise.
//!
//! Figures flagged *advisory* (toolchain-dependent: the session-memory
//! footprint) are reported but never fail the gate unless the
//! `EVA2_BENCH_STRICT=1` environment variable is set.
//!
//! ```text
//! cargo run --release -p eva2-bench --bin bench_gate [-- OPTIONS]
//!
//! OPTIONS:
//!   --baseline <path>        committed microkernel trajectory [BENCH_conv.json]
//!   --serve-baseline <path>  committed serving trajectory [BENCH_serve.json]
//!   --out <path>             fresh microkernel measurements (uploaded as a
//!                            CI artifact) [BENCH_gate_fresh.json]
//!   --serve-out <path>       fresh serving measurements [BENCH_serve_gate_fresh.json]
//!   --tolerance <frac>  allowed fractional regression [0.30]
//!   --inject <factor>   multiply every fresh ratio by <factor> before
//!                       comparing — a self-test hook to demonstrate the gate
//!                       fails on a real regression (e.g. --inject 0.5)
//! ```
//!
//! The serving suite (`BENCH_serve.json`, measured by
//! [`eva2_bench::serve_load`]) is gated the same way, plus one *absolute*
//! check: `serial_over_single_worker_engine` must stay above the strict
//! overhead floor (the one-worker engine may cost at most ~10% over the
//! serial oracles) on any host, independent of the committed baseline.
//!
//! The full-sampling trajectory writers are `bench_conv` and `bench_serve`;
//! regenerate the committed files after touching a measured kernel.

use eva2_bench::serve_load::{self, STRICT_OVERHEAD_FLOOR};
use eva2_bench::trajectory::{extract_number, measure, Mode, TrackedRatio};
use std::process::ExitCode;

struct Options {
    baseline: String,
    serve_baseline: String,
    out: String,
    serve_out: String,
    tolerance: f64,
    inject: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        baseline: "BENCH_conv.json".into(),
        serve_baseline: "BENCH_serve.json".into(),
        out: "BENCH_gate_fresh.json".into(),
        serve_out: "BENCH_serve_gate_fresh.json".into(),
        tolerance: 0.30,
        inject: 1.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => opts.baseline = value("--baseline")?,
            "--serve-baseline" => opts.serve_baseline = value("--serve-baseline")?,
            "--out" => opts.out = value("--out")?,
            "--serve-out" => opts.serve_out = value("--serve-out")?,
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--inject" => {
                opts.inject = value("--inject")?
                    .parse()
                    .map_err(|e| format!("--inject: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// Compares one suite's fresh tracked ratios against its committed
/// baseline, printing a verdict per ratio and accumulating failure.
fn gate_ratios(
    baseline: &str,
    ratios: Vec<TrackedRatio>,
    opts: &Options,
    strict: bool,
    failed: &mut bool,
) {
    println!(
        "\n{:<44} {:>10} {:>10} {:>8}  verdict",
        "tracked ratio", "committed", "fresh", "delta"
    );
    for ratio in ratios {
        let key = ratio.key;
        let fresh_value = ratio.value * opts.inject;
        let Some(committed) = extract_number(baseline, &key) else {
            // A newly tracked ratio has no baseline yet; it starts gating
            // once the trajectory writer commits it.
            println!("{key:<44} {:>10} {fresh_value:>10.2} {:>8}  NEW", "-", "-");
            continue;
        };
        let delta = fresh_value / committed - 1.0;
        let regressed = fresh_value < committed * (1.0 - opts.tolerance);
        let gating = !ratio.advisory || strict;
        let verdict = match (regressed, gating) {
            (false, _) => "ok",
            (true, true) => "REGRESSED",
            (true, false) => "regressed (advisory, not gating)",
        };
        println!(
            "{key:<44} {committed:>10.2} {fresh_value:>10.2} {:>+7.1}%  {verdict}",
            delta * 100.0,
        );
        *failed |= regressed && gating;
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match std::fs::read_to_string(&opts.baseline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: cannot read baseline {}: {e}", opts.baseline);
            return ExitCode::from(2);
        }
    };

    let fresh = measure(Mode::Quick);
    if let Err(e) = std::fs::write(&opts.out, fresh.to_json()) {
        eprintln!("bench_gate: could not write {}: {e}", opts.out);
    } else {
        println!("bench_gate: wrote fresh measurements to {}", opts.out);
    }
    if opts.inject != 1.0 {
        println!(
            "bench_gate: INJECTING artificial factor {} into fresh ratios (self-test)",
            opts.inject
        );
    }

    // Advisory (machine-topology-dependent) ratios only gate when the
    // operator explicitly opts in, e.g. on a host matching the committed
    // trajectory's topology.
    let strict = std::env::var_os("EVA2_BENCH_STRICT").is_some_and(|v| v == "1");
    let mut failed = false;
    gate_ratios(
        &baseline,
        fresh.tracked_ratios(),
        &opts,
        strict,
        &mut failed,
    );

    // ------------------------------------------------------------------
    // Serving suite: closed-loop load against the worker-pool engine.
    // ------------------------------------------------------------------
    let serve_baseline = match std::fs::read_to_string(&opts.serve_baseline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read serve baseline {}: {e}",
                opts.serve_baseline
            );
            return ExitCode::from(2);
        }
    };
    let serve_fresh = serve_load::measure(Mode::Quick);
    if let Err(e) = std::fs::write(&opts.serve_out, serve_fresh.to_json()) {
        eprintln!("bench_gate: could not write {}: {e}", opts.serve_out);
    } else {
        println!(
            "bench_gate: wrote fresh serving measurements to {}",
            opts.serve_out
        );
    }
    gate_ratios(
        &serve_baseline,
        serve_fresh.tracked_ratios(),
        &opts,
        strict,
        &mut failed,
    );

    // The absolute strict check: one-worker engine overhead over the serial
    // oracles, independent of any committed baseline.
    let overhead_ratio = serve_fresh.serial_over_single_worker_engine * opts.inject;
    if overhead_ratio < STRICT_OVERHEAD_FLOOR {
        eprintln!(
            "bench_gate: FAIL — serial_over_single_worker_engine {overhead_ratio:.3} is below \
             the absolute floor {STRICT_OVERHEAD_FLOOR} (single-worker engine overhead > ~10%)"
        );
        failed = true;
    } else {
        println!(
            "single-worker overhead floor: {overhead_ratio:.3} >= {STRICT_OVERHEAD_FLOOR} — ok"
        );
    }

    if failed {
        eprintln!(
            "\nbench_gate: FAIL — ratio(s) regressed more than {:.0}% vs {} / {}, or the \
             absolute single-worker overhead floor was missed",
            opts.tolerance * 100.0,
            opts.baseline,
            opts.serve_baseline
        );
        eprintln!(
            "If the regression is intended, regenerate the baselines with \
             `cargo run --release -p eva2-bench --bin bench_conv` (and bench_serve) and \
             commit them."
        );
        ExitCode::FAILURE
    } else {
        println!(
            "\nbench_gate: OK — all tracked ratios within {:.0}% of {} / {}",
            opts.tolerance * 100.0,
            opts.baseline,
            opts.serve_baseline
        );
        ExitCode::SUCCESS
    }
}
