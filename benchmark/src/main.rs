//! The EVA² serving benchmark: four workloads, nine end-to-end metrics,
//! and a traced run that attributes a frame to its layers. See README.md.
//!
//! ```text
//! eva2-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--workers N] [--out FILE]
//! eva2-benchmark selfcheck [--seed N] [--seconds S] [--workers N] [--out FILE]
//! eva2-benchmark manifest
//! ```

mod measure;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use report::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, DEFAULT_SEED, WORKLOADS};

/// Where the result and trace files go, relative to the invoking directory
/// (the root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    workers: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("usage: eva2-benchmark <run|selfcheck|manifest> [options]")?;
    let mut args = Args {
        command,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: None,
        workers: 1,
        out: PathBuf::from(OUT_DIR).join("result.json"),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--workers" => {
                args.workers = value.parse().map_err(|_| bad("a whole number"))?;
                if args.workers == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

/// Runs the selected workloads in the selected modes and merges each
/// workload's metrics under `workload/metric` when more than one ran.
fn run_set(args: &Args) -> Vec<RunResult> {
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results = Vec::new();
    for w in workloads {
        for &traced in modes {
            let r = if traced {
                report::run_traced(w, args.seed, args.seconds, args.workers)
            } else {
                report::run_end_to_end(w, args.seed, args.seconds, args.workers)
            };
            r.print();
            results.push(r);
        }
    }
    results
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "manifest" => {
            print!("{}", spec::manifest_json());
            ExitCode::SUCCESS
        }
        "run" => {
            report::print_host_line(args.workers, args.seed);
            let results = run_set(&args);
            if let Err(e) = report::write_result_file(
                &args.out,
                args.seed,
                args.workers,
                args.seconds,
                &results,
                None,
            ) {
                eprintln!("cannot write {}: {e}", args.out.display());
                return ExitCode::from(2);
            }
            // The contract's result line: last on standard output.
            println!("{}", report::result_line(&results));
            if results.iter().all(RunResult::correct) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "selfcheck" => {
            report::print_host_line(args.workers, args.seed);
            let first = run_set(&args);
            let second = run_set(&args);
            let noise = report::noise(&first, &second);
            noise.print();
            if let Err(e) = report::write_result_file(
                &args.out,
                args.seed,
                args.workers,
                args.seconds,
                &second,
                Some(&noise),
            ) {
                eprintln!("cannot write {}: {e}", args.out.display());
                return ExitCode::from(2);
            }
            let correct = first.iter().chain(&second).all(RunResult::correct);
            if correct && noise.within_bounds() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown command {other:?}; one of run, selfcheck, manifest");
            ExitCode::from(2)
        }
    }
}
