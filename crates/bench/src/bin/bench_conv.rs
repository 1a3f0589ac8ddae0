//! Produces `BENCH_conv.json` — the committed performance trajectory of the
//! convolution engine (naive vs the direct kernel), the sparse-aware suffix
//! (skip-zero vs densify-then-dense), the dense RFBME fast path, and
//! the AMC executor's key and predicted frames.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p eva2-bench --bin bench_conv
//! ```
//!
//! Set `EVA2_BENCH_QUICK=1` for a seconds-long reduced-sampling run (noisier
//! absolute numbers; the tracked ratios stay meaningful). The measurement
//! methodology lives in [`eva2_bench::trajectory`].

use eva2_bench::trajectory::{measure, Mode};

fn main() {
    let mode = if std::env::var_os("EVA2_BENCH_QUICK").is_some() {
        Mode::Quick
    } else {
        Mode::Full
    };
    let m = measure(mode);
    let path = "BENCH_conv.json";
    match std::fs::write(path, m.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
