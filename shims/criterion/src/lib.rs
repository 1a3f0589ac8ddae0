//! A small wall-clock benchmarking harness with the `criterion` API surface.
//!
//! Offline stand-in for the real `criterion` crate. Supports the subset this
//! workspace's `benches/` use: benchmark groups, `sample_size`,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `Bencher::iter`, and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! Methodology: each benchmark is calibrated so one *sample* runs enough
//! iterations to take roughly [`TARGET_SAMPLE_NANOS`]; `sample_size` samples
//! are then timed and the **median** per-iteration time is reported (median
//! is robust to scheduler noise). Results print to stdout as
//! `<group>/<id> ... median <t>` lines, and are written as JSON to the path
//! in the `EVA2_CRITERION_JSON` environment variable when set.
//!
//! A positional command-line filter (as passed by `cargo bench -- <filter>`)
//! restricts execution to benchmarks whose `group/id` contains the filter
//! substring. Setting the `EVA2_BENCH_QUICK` environment variable shrinks
//! the sampling plan (3 samples of ~0.5 ms) so CI bench smoke finishes in
//! seconds.

use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one measurement sample.
const TARGET_SAMPLE_NANOS: u64 = 5_000_000; // 5 ms

/// Hard cap on iterations per sample (guards against ~ns routines).
const MAX_ITERS_PER_SAMPLE: u64 = 1 << 20;

/// Re-export of `std::hint::black_box` (criterion compatibility).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group name (empty for ungrouped benchmarks).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Number of samples measured.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

impl BenchRecord {
    fn json(&self) -> String {
        format!(
            "{{\"group\":\"{}\",\"id\":\"{}\",\"median_ns\":{:.1},\"mean_ns\":{:.1},\"samples\":{},\"iters_per_sample\":{}}}",
            self.group, self.id, self.median_ns, self.mean_ns, self.samples, self.iters_per_sample
        )
    }
}

/// The benchmark driver.
pub struct Criterion {
    records: Vec<BenchRecord>,
    filter: Option<String>,
    default_sample_size: usize,
    target_sample_nanos: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo passes `--bench` (and sometimes other flags) to harness=false
        // bench binaries; the first non-flag argument is the user's filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        // Quick mode (CI bench smoke): shrink the sampling plan so a whole
        // bench binary finishes in seconds. Numbers get noisier; smoke runs
        // only check that the harness still executes.
        let quick = std::env::var_os("EVA2_BENCH_QUICK").is_some();
        Self {
            records: Vec::new(),
            filter,
            default_sample_size: if quick { 3 } else { 20 },
            target_sample_nanos: if quick { 500_000 } else { TARGET_SAMPLE_NANOS },
        }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Runs an ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let n = self.default_sample_size;
        self.run(String::new(), id.label(), n, f);
        self
    }

    fn run<F>(&mut self, group: String, id: String, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let full = if group.is_empty() {
            id.clone()
        } else {
            format!("{group}/{id}")
        };
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration: find iters/sample targeting the sample duration.
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        let once = bencher.elapsed.as_nanos().max(1) as u64;
        let iters = (self.target_sample_nanos / once).clamp(1, MAX_ITERS_PER_SAMPLE);
        // Warmup.
        bencher.iters = iters;
        f(&mut bencher);
        // Measurement.
        let mut per_iter: Vec<f64> = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            bencher.iters = iters;
            f(&mut bencher);
            per_iter.push(bencher.elapsed.as_nanos() as f64 / iters as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let record = BenchRecord {
            group,
            id,
            median_ns: median,
            mean_ns: mean,
            samples: sample_size,
            iters_per_sample: iters,
        };
        println!(
            "bench {:<52} median {:>12}  mean {:>12}  ({} samples x {} iters)",
            full,
            fmt_ns(record.median_ns),
            fmt_ns(record.mean_ns),
            record.samples,
            record.iters_per_sample
        );
        self.records.push(record);
    }

    /// All records measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Prints the closing summary and writes the JSON dump when
    /// `EVA2_CRITERION_JSON` is set.
    pub fn final_summary(&self) {
        if let Ok(path) = std::env::var("EVA2_CRITERION_JSON") {
            let mut body = String::from("[\n");
            for (i, r) in self.records.iter().enumerate() {
                let _ = write!(body, "  {}", r.json());
                body.push_str(if i + 1 < self.records.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            body.push_str("]\n");
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("criterion shim: could not write {path}: {e}");
            } else {
                println!(
                    "criterion shim: wrote {} records to {path}",
                    self.records.len()
                );
            }
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of measurement samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run(self.name.clone(), id.label(), n, f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion
            .run(self.name.clone(), id.label(), n, |b| f(b, input));
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            function: Some(function.to_string()),
            parameter: Some(parameter.to_string()),
        }
    }

    /// An id distinguished only by a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            function: None,
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match (&self.function, &self.parameter) {
            (Some(f), Some(p)) => format!("{f}/{p}"),
            (Some(f), None) => f.clone(),
            (None, Some(p)) => p.clone(),
            (None, None) => String::from("bench"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            function: Some(s.to_string()),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self {
            function: Some(s),
            parameter: None,
        }
    }
}

/// Timer handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over this sample's iteration count.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std_black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench binary's `main`, running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| b.iter(|| n * n));
        group.finish();
    }

    #[test]
    fn records_are_collected() {
        let mut c = Criterion {
            records: Vec::new(),
            filter: None,
            default_sample_size: 5,
            target_sample_nanos: 100_000,
        };
        tiny_bench(&mut c);
        assert_eq!(c.records().len(), 2);
        assert!(c.records()[0].median_ns > 0.0);
        assert_eq!(c.records()[1].id, "sq/4");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            records: Vec::new(),
            filter: Some("nomatch".into()),
            default_sample_size: 5,
            target_sample_nanos: 100_000,
        };
        tiny_bench(&mut c);
        assert!(c.records().is_empty());
    }
}
