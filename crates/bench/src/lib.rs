//! Criterion micro-benchmarks under `benches/` (`cargo bench -p eva2-bench`):
//! each retained kernel choice is timed against its alternative. End-to-end
//! performance is measured by the serving benchmark in `benchmark/`. The
//! library itself is empty; Cargo needs one lib or bin target per package.

#![forbid(unsafe_code)]
