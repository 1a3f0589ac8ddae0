//! Turns passes into named metrics, checks the run, and prints.

use crate::measure::{
    self, engine_pass, serial_pass, EnginePass, OracleCheck, StageTrace, CNN_OTHER, CNN_PREFIX,
    CNN_SUFFIX, EXEC_PROCESS, RFBME, SERVE_MAINTAIN, SERVE_OPEN, SERVE_TICK, SPARSE_ENCODE, WARP,
};
use crate::spec::{self, Better, END_TO_END};
use crate::stats::{
    backlog_end_ns, fastest_of, median, percentile, spread, virtual_latencies_ns, FRAME_INTERVAL_NS,
};
use crate::trace::Tracer;
use crate::workload::{render, Workload, MEASURED_TICKS, TRACED_TICKS, WARMUP_TICKS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Passes of the end-to-end run: at least this many, more while `--seconds`
/// lasts.
pub const MIN_PASSES: usize = 3;
/// Set-ups timed before the passes; `setup_s` is the median of these and of
/// each pass's own set-up.
pub const SETUP_REPS: usize = 15;
/// Two peak-GEMM readings of one run further apart than this mark the host
/// as noisy.
pub const NOISY_HOST_DRIFT: f64 = 0.10;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// `(min, max, n)` over the passes or rounds the median was taken from.
    pub over: Option<(f64, f64, usize)>,
    /// Sample count or other context printed beside the value.
    pub note: String,
}

/// One workload in one mode.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context lines printed above the metrics.
    pub notes: Vec<String>,
    /// Every check that failed; the run is correct when there is none.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One `workload metric value unit` line per metric.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {} {note}", self.workload);
        }
        for failure in &self.failures {
            println!("# {} INCORRECT: {failure}", self.workload);
        }
        for m in &self.metrics {
            let mut line = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
            if let Some((lo, hi, n)) = m.over {
                let _ = write!(line, "  [min {lo} max {hi} over {n}]");
            }
            if !m.note.is_empty() {
                let _ = write!(line, "  ({})", m.note);
            }
            println!("{line}");
        }
    }
}

/// The start-up line: enough to see a mis-built or oversubscribed run.
pub fn print_host_line(workers: usize, seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# host nproc={nproc} workers={workers} seed={seed} avx2={} fma={} (target-cpu=native comes from .cargo/config.toml at the repo root)",
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
    );
}

/// Checks shared by both modes: every frame served (no workload sets a
/// budget), the oracles agree, the traffic is still the workload's.
fn check_pass(w: &Workload, pass: &EnginePass, oracle: &OracleCheck, failures: &mut Vec<String>) {
    let c = &pass.counts;
    if c.shed + c.rejected > 0 || c.served != c.attempted {
        failures.push(format!(
            "{} of {} frames were not served ({} shed, {} rejected)",
            c.attempted - c.served,
            c.attempted,
            c.shed,
            c.rejected
        ));
    }
    if oracle.mismatches > 0 {
        failures.push(format!(
            "{} of {} frames differ from the serial oracle; first: {}",
            oracle.mismatches,
            oracle.frames,
            oracle.first_mismatch.as_deref().unwrap_or("?")
        ));
    }
    if let Err(e) = w.property.check(measure::key_share(c), c.evictions) {
        failures.push(format!("traffic property: {e}"));
    }
}

/// The figures that come from tick service times.
struct TimingFigures {
    frames_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    deadline_met_share: f64,
}

/// Throughput and the virtual-schedule latencies for one vector of tick
/// service times over the ticks of `pass`.
fn timing_figures(service_ns: &[u64], pass: &EnginePass) -> TimingFigures {
    let c = &pass.counts;
    let busy_s = service_ns.iter().sum::<u64>() as f64 / 1e9;
    let latency_ns = virtual_latencies_ns(service_ns, FRAME_INTERVAL_NS);
    let by_tick: Vec<(f64, u32)> = latency_ns
        .iter()
        .copied()
        .zip(pass.served.iter().copied())
        .collect();
    let pct = |p| percentile(&by_tick, p).expect("1,000 measured ticks carry a p99") / 1e6;
    let met: u64 = by_tick
        .iter()
        .filter(|(latency, _)| *latency <= FRAME_INTERVAL_NS)
        .map(|(_, served)| u64::from(*served))
        .sum();
    TimingFigures {
        frames_per_s: c.served as f64 / busy_s,
        p50_ms: pct(0.5),
        p99_ms: pct(0.99),
        deadline_met_share: met as f64 / c.attempted.max(1) as f64,
    }
}

fn end_to_end_metric(name: &str, value: f64, over: Option<&[f64]>, note: String) -> Metric {
    let e = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("metric is in the table");
    Metric {
        name: name.to_string(),
        unit: e.unit,
        value,
        over: over.map(|v| {
            let (lo, hi) = spread(v);
            (lo, hi, v.len())
        }),
        note,
    }
}

/// The end-to-end run of one workload, tracing off: set-up timed
/// [`SETUP_REPS`] times, then at least [`MIN_PASSES`] passes of a fresh
/// engine over identical frames for as long as `seconds` lasts, then the
/// off-clock checks.
pub fn run_end_to_end(w: &'static Workload, seed: u64, seconds: f64, workers: usize) -> RunResult {
    let ticks = WARMUP_TICKS + MEASURED_TICKS;
    let traffic = render(w, seed, ticks);
    let mut setup = measure::setup_seconds(w, workers, SETUP_REPS);

    let budget = Duration::from_secs_f64(seconds);
    let clock = Instant::now();
    let mut passes: Vec<EnginePass> = Vec::new();
    loop {
        let pass = engine_pass(w, &traffic, ticks, workers, None, passes.is_empty());
        passes.push(pass);
        let per_pass = clock.elapsed() / passes.len() as u32;
        if passes.len() >= MIN_PASSES && clock.elapsed() + per_pass > budget {
            break;
        }
    }
    let measured_for = clock.elapsed();
    // Each pass set up its own fleet: timings spread over the whole run.
    setup.extend(passes.iter().map(|p| p.setup_s));

    let mut notes = vec![
        format!(
            "end-to-end: {} streams, {} warm-up + {} measured ticks per pass, {} passes in {:.1} s, traffic digest {:016x}",
            w.streams,
            WARMUP_TICKS,
            MEASURED_TICKS,
            passes.len(),
            measured_for.as_secs_f64(),
            traffic.digest()
        ),
        "open loop at 30 fps in virtual time; the virtual generator is never late (lateness 0 ms)".to_string(),
    ];
    let mut failures = Vec::new();
    let first = &passes[0];
    let net = w.net.build();
    let oracle = serial_pass(w, &net, &traffic, first, WARMUP_TICKS + TRACED_TICKS, None);
    check_pass(w, first, &oracle, &mut failures);
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.records != first.records
            || pass.counts != first.counts
            || pass.session_bytes != first.session_bytes
        {
            failures.push(format!(
                "pass {i} did not repeat pass 0's outputs on identical frames"
            ));
        }
    }
    let c = &first.counts;
    notes.push(format!(
        "counts per pass: attempted {} served {} failed {} keys {} forced {} evictions {} opens {}; oracle compared {} frames",
        c.attempted,
        c.served,
        c.attempted - c.served,
        c.keys,
        c.forced_keys,
        c.evictions,
        c.opens,
        oracle.frames
    ));

    // Timing metrics come from each tick's fastest repeat over the passes
    // (see `fastest_of`); the whole-pass values are printed beside them.
    let service: Vec<&[u64]> = passes.iter().map(|p| p.service_ns.as_slice()).collect();
    let timing = timing_figures(&fastest_of(&service), first);
    let per_pass: Vec<TimingFigures> = passes
        .iter()
        .map(|p| timing_figures(&p.service_ns, p))
        .collect();
    let col = |f: fn(&TimingFigures) -> f64| -> Vec<f64> { per_pass.iter().map(f).collect() };
    let n_ticks = format!("n={MEASURED_TICKS} ticks, {} frames", c.served);
    let attempted = c.attempted.max(1) as f64;
    let rms = measure::output_rms_vs_full_cnn(&net, &traffic, &first.outputs);
    let metrics = vec![
        end_to_end_metric(
            "frames_per_s",
            timing.frames_per_s,
            Some(&col(|f| f.frames_per_s)),
            "closed loop".to_string(),
        ),
        end_to_end_metric(
            "frame_latency_p50_ms",
            timing.p50_ms,
            Some(&col(|f| f.p50_ms)),
            n_ticks.clone(),
        ),
        end_to_end_metric(
            "frame_latency_p99_ms",
            timing.p99_ms,
            Some(&col(|f| f.p99_ms)),
            format!("{n_ticks}, {} ticks beyond", MEASURED_TICKS / 100),
        ),
        end_to_end_metric(
            "deadline_met_share",
            timing.deadline_met_share,
            Some(&col(|f| f.deadline_met_share)),
            "1 - deadline_miss_share; unserved frames miss".to_string(),
        ),
        end_to_end_metric(
            "served_share",
            c.served as f64 / attempted,
            None,
            format!("1 - failed_share; {} of {} served", c.served, c.attempted),
        ),
        end_to_end_metric(
            "mac_share_of_full_cnn",
            c.macs as f64 / (c.served.max(1) as f64 * first.total_macs as f64),
            None,
            "a count: repeats exactly on one seed".to_string(),
        ),
        end_to_end_metric(
            "output_rms_vs_full_cnn",
            rms,
            None,
            format!(
                "all {} measured frames of pass 0, off the clock",
                first.outputs.len()
            ),
        ),
        end_to_end_metric(
            "session_kib",
            first.session_bytes / 1024.0,
            None,
            "mean over sessions after the last tick".to_string(),
        ),
        end_to_end_metric(
            "setup_s",
            median(&setup),
            Some(&setup),
            "frame rendering excluded".to_string(),
        ),
    ];
    RunResult {
        workload: w.name,
        traced: false,
        attempted: passes.iter().map(|p| p.counts.attempted).sum(),
        failed: passes
            .iter()
            .map(|p| p.counts.attempted - p.counts.served)
            .sum(),
        metrics,
        notes,
        failures,
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One round of the traced run: the same 400 ticks four ways.
struct Round {
    /// Engine pass, no spans: the reference for both overhead figures.
    untraced: EnginePass,
    /// Engine pass with `process_batch`/`maintain`/`open_session` in spans.
    traced: EnginePass,
    serve: Tracer,
    /// Serial pass, no spans: per-tick summed `AmcExecutor::process` times.
    serial_ns: Vec<u64>,
    /// Serial pass under spans with stage replays.
    stages: Tracer,
    counts: measure::StageCounts,
}

/// The per-layer figures, from every tick's fastest repeat over the rounds
/// (each pass folded on its own, always by whole ticks).
fn per_layer_figures(
    rounds: &mut [Round],
    layer_macs: &[u64],
    net: &eva2_cnn::network::Network,
) -> BTreeMap<String, f64> {
    let (first, rest) = rounds.split_first_mut().expect("at least one round");
    for r in rest.iter() {
        first.stages.keep_fastest_traces(&r.stages);
        first.serve.keep_fastest_traces(&r.serve);
    }
    let rounds = &*rounds;
    let first = &rounds[0];
    let (stages, serve) = (&first.stages, &first.serve);
    let sum_fastest = |pick: fn(&Round) -> &[u64]| -> f64 {
        let repeats: Vec<&[u64]> = rounds.iter().map(pick).collect();
        fastest_of(&repeats).iter().sum::<u64>() as f64
    };
    let engine_ns = sum_fastest(|r| &r.untraced.service_ns);
    let traced_engine_ns = sum_fastest(|r| &r.traced.service_ns);
    let serial_ns = sum_fastest(|r| &r.serial_ns);
    let untraced_service: Vec<&[u64]> = rounds
        .iter()
        .map(|r| r.untraced.service_ns.as_slice())
        .collect();

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let st = stages.totals();
    let sv = serve.totals();
    let c = &first.untraced.counts;
    let counts = &first.counts;

    let rfbme = st.of(RFBME);
    put("motion.rfbme.busy_us", rfbme.busy_us_per_call());
    put("motion.rfbme.calls", rfbme.calls as f64);
    put(
        "motion.rfbme.ops_per_call",
        share(counts.rfbme_ops as f64, rfbme.calls as f64),
    );
    put(
        "motion.rfbme.reject_share",
        share(
            (counts.search.rejected_level0 + counts.search.rejected_level1) as f64,
            counts.search.candidates as f64,
        ),
    );

    let prefix = st.of(CNN_PREFIX);
    put("cnn.prefix.busy_us", prefix.busy_us_per_call());
    put("cnn.prefix.calls", prefix.calls as f64);
    let suffix = st.of(CNN_SUFFIX);
    put("cnn.suffix_sparse.busy_us", suffix.busy_us_per_call());
    put("cnn.suffix_sparse.calls", suffix.calls as f64);
    // Per prefix call, not per layer call: what the non-GEMM layers add to
    // one key frame.
    put(
        "cnn.other_layers.busy_us",
        share(st.of(CNN_OTHER).busy_ns as f64 / 1e3, prefix.calls as f64),
    );
    for (layer, &macs) in net.layers().iter().zip(layer_macs) {
        let t = st.of(&measure::layer_span(layer.name()));
        if t.calls > 0 {
            put(
                &format!("cnn.layer.{}.busy_us", layer.name()),
                t.busy_us_per_call(),
            );
            // MACs per nanosecond is GMAC/s.
            put(
                &format!("cnn.layer.{}.gmacs_per_s", layer.name()),
                share((macs * t.calls) as f64, t.busy_ns as f64),
            );
        }
    }

    put(
        "core.sparse.encode.busy_us",
        st.of(SPARSE_ENCODE).busy_us_per_call(),
    );
    put(
        "core.sparse.compression",
        share(counts.compression_sum, counts.encodes as f64),
    );
    put(
        "core.sparse.activation_sparsity",
        share(counts.sparsity_sum, counts.encodes as f64),
    );
    let warp = st.of(WARP);
    put("core.warp.busy_us", warp.busy_us_per_call());
    put("core.warp.calls", warp.calls as f64);
    put(
        "core.warp.interpolations_per_call",
        share(counts.warp_interpolations as f64, warp.calls as f64),
    );

    put("core.policy.key_share", measure::key_share(c));
    put(
        "core.policy.forced_key_share",
        share(c.forced_keys as f64, c.served as f64),
    );

    let process = st.of(EXEC_PROCESS);
    put("core.executor.process.busy_us", process.busy_us_per_call());
    put("core.executor.process.self_us", process.self_us_per_call());
    put(
        "core.executor.attributed_share",
        share(process.children_ns as f64, process.busy_ns as f64),
    );

    let ticks = first.untraced.service_ns.len() as f64;
    put(
        "core.serve.tick.busy_us",
        sv.of(SERVE_TICK).busy_us_per_call(),
    );
    put("core.serve.batch_size", c.attempted as f64 / ticks);
    put("core.serve.key_batch_size", c.keys as f64 / ticks);
    // Engine ticks against serial `AmcExecutor::process` on the same frames,
    // neither under spans. Negative when batching key frames across streams
    // beats serial.
    put(
        "core.serve.overhead_share",
        share(engine_ns - serial_ns, engine_ns),
    );
    put(
        "core.serve.backlog_end_ms",
        backlog_end_ns(&fastest_of(&untraced_service), FRAME_INTERVAL_NS) / 1e6,
    );
    put(
        "core.serve.maintain.busy_us",
        sv.of(SERVE_MAINTAIN).busy_us_per_call(),
    );
    put("core.serve.evictions", c.evictions as f64);
    put(
        "core.serve.open_session.busy_us",
        sv.of(SERVE_OPEN).busy_us_per_call(),
    );
    put("core.serve.opens", c.opens as f64);
    put("core.serve.shed", c.shed as f64);
    put("core.serve.failed", c.rejected as f64);

    // Both traced passes against both untraced ones.
    put(
        "trace.overhead_share",
        (traced_engine_ns + process.busy_ns as f64) / (engine_ns + serial_ns) - 1.0,
    );
    m
}

/// The traced run of one workload: rounds of four passes over the first
/// [`TRACED_TICKS`] measured ticks (see [`Round`]) for as long as `seconds`
/// lasts. Round 0's spans are written to `trace_<workload>.json`.
pub fn run_traced(w: &'static Workload, seed: u64, seconds: f64, workers: usize) -> RunResult {
    let ticks = WARMUP_TICKS + TRACED_TICKS;
    let traffic = render(w, seed, ticks);
    let net = w.net.build();
    let config = w.config();
    let target = config
        .target
        .resolve(&net)
        .expect("workload target resolves");
    let peak_start = measure::gemm_peak_gmacs_per_s();
    let (gate_ns, layer_macs) = measure::analysis_gate(&net, &config, 9);

    let frames = traffic.frames_in(WARMUP_TICKS..ticks) as usize;
    let budget = Duration::from_secs_f64(seconds);
    let clock = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let untraced = engine_pass(w, &traffic, ticks, workers, None, false);
        let mut serve = Tracer::with_capacity(3 * TRACED_TICKS);
        let traced = engine_pass(w, &traffic, ticks, workers, Some(&mut serve), false);
        let serial = serial_pass(w, &net, &traffic, &untraced, ticks, None);
        let mut stages = Tracer::with_capacity(frames * (6 + target + 1));
        let mut stage_trace = StageTrace::new(&mut stages, w, &net, target);
        let oracle = serial_pass(w, &net, &traffic, &untraced, ticks, Some(&mut stage_trace));
        let counts = stage_trace.counts;

        if rounds.is_empty() {
            check_pass(w, &untraced, &oracle, &mut failures);
            let path = Path::new(crate::OUT_DIR).join(format!("trace_{}.json", w.name));
            let json = format!(
                "{{\"serial\": {},\n\"engine\": {}}}\n",
                stages.to_json(w.name, "serial"),
                serve.to_json(w.name, "engine")
            );
            match std::fs::create_dir_all(crate::OUT_DIR).and_then(|()| std::fs::write(&path, json))
            {
                Ok(()) => notes.push(format!(
                    "traced: round 0's {} + {} spans written to {}",
                    stages.spans().len(),
                    serve.spans().len(),
                    path.display()
                )),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        if oracle.mismatches + serial.mismatches > 0 && !rounds.is_empty() {
            failures.push("a later round differs from the serial oracle".to_string());
        }
        if traced.records != untraced.records {
            failures.push("the traced engine pass changed outputs".to_string());
        }
        if counts.replay_mismatches > 0 {
            failures.push(format!(
                "{} stage replays did not reproduce their frame",
                counts.replay_mismatches
            ));
        }
        for pass in [&untraced, &traced] {
            attempted += pass.counts.attempted;
            failed += pass.counts.attempted - pass.counts.served;
        }
        rounds.push(Round {
            untraced,
            traced,
            serve,
            serial_ns: serial.process_ns,
            stages,
            counts,
        });
        let per_round = clock.elapsed() / rounds.len() as u32;
        if clock.elapsed() + per_round > budget {
            break;
        }
    }
    let peak_end = measure::gemm_peak_gmacs_per_s();

    notes.insert(
        0,
        format!(
            "traced: {} streams, {} warm-up + {} traced ticks, {} rounds in {:.1} s; every tick is its fastest repeat over the rounds; busy_us is the mean per call",
            w.streams,
            WARMUP_TICKS,
            TRACED_TICKS,
            rounds.len(),
            clock.elapsed().as_secs_f64()
        ),
    );
    let drift = (peak_end - peak_start).abs() / peak_start;
    if drift > NOISY_HOST_DRIFT {
        notes.push(format!(
            "noisy_host: peak GEMM read {peak_start:.1} then {peak_end:.1} GMAC/s"
        ));
    }

    let mut figures = per_layer_figures(&mut rounds, &layer_macs, &net);
    figures.insert(
        "tensor.gemm.peak_gmacs_per_s".into(),
        peak_start.max(peak_end),
    );
    figures.insert("tensor.gemm.peak_drift_share".into(), drift);
    figures.insert("analysis.gate.busy_us".into(), median(&gate_ns) / 1e3);
    figures.insert(
        "video.render.busy_us".into(),
        traffic.render_ns as f64 / traffic.rendered as f64 / 1e3,
    );
    let table = spec::per_layer();
    for name in figures.keys() {
        assert!(
            table.iter().any(|m| &m.name == name),
            "{name} is not in the per-layer table"
        );
    }
    let metrics = table
        .into_iter()
        .map(|def| Metric {
            // A layer this workload's network lacks reads 0.
            value: figures.get(&def.name).copied().unwrap_or(0.0),
            name: def.name,
            unit: def.unit,
            over: None,
            note: String::new(),
        })
        .collect();
    RunResult {
        workload: w.name,
        traced: true,
        attempted,
        failed,
        metrics,
        notes,
        failures,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Metric {
    /// `"name": {"value": …, "unit": …}`, with `min`/`max`/`n` when asked
    /// for and known.
    fn json(&self, name: &str, with_over: bool) -> String {
        let over = match self.over {
            Some((lo, hi, n)) if with_over => format!(
                ", \"min\": {}, \"max\": {}, \"n\": {n}",
                json_number(lo),
                json_number(hi)
            ),
            _ => String::new(),
        };
        format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"{over}}}",
            json_number(self.value),
            self.unit
        )
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`. Metric names carry a `workload/` prefix only when more than
/// one run is reported.
pub fn result_line(results: &[RunResult]) -> String {
    let prefixed = results.len() > 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                if prefixed {
                    m.json(&format!("{}/{}", r.workload, m.name), false)
                } else {
                    m.json(&m.name, false)
                }
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(RunResult::correct),
        results.iter().map(|r| r.attempted).sum::<u64>().max(1),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// One end-to-end metric of one workload compared across two sets of runs.
#[derive(Debug, Clone)]
pub struct NoiseRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// `(second − first) / first`, signed so that positive is worse.
    pub worse_by: f64,
    pub bound: f64,
}

/// The `selfcheck` verdict.
#[derive(Debug, Clone)]
pub struct Noise {
    pub rows: Vec<NoiseRow>,
    pub noisy_host: bool,
}

impl Noise {
    pub fn within_bounds(&self) -> bool {
        self.rows.iter().all(|r| r.worse_by.abs() <= r.bound)
    }

    pub fn print(&self) {
        for r in &self.rows {
            println!(
                "noise {} {} first {} second {} worse_by {:+.4} bound {} {}",
                r.workload,
                r.metric,
                r.first,
                r.second,
                r.worse_by,
                r.bound,
                if r.worse_by.abs() <= r.bound {
                    "ok"
                } else {
                    "EXCEEDED"
                }
            );
        }
        if self.noisy_host {
            println!("noise warning noisy_host: peak GEMM readings within one run differ by more than {NOISY_HOST_DRIFT}");
        }
    }
}

/// Compares two sets of runs of the same code on the same seed.
pub fn noise(first: &[RunResult], second: &[RunResult]) -> Noise {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second).filter(|(a, _)| !a.traced) {
        for def in &END_TO_END {
            let (Some(x), Some(y)) = (a.metric(def.name), b.metric(def.name)) else {
                continue;
            };
            let sign = match def.better {
                Better::Lower => 1.0,
                Better::Higher => -1.0,
            };
            rows.push(NoiseRow {
                workload: a.workload,
                metric: def.name,
                first: x,
                second: y,
                worse_by: sign * (y - x) / x,
                bound: def.bound,
            });
        }
    }
    let noisy_host = first.iter().chain(second).any(|r| {
        r.metric("tensor.gemm.peak_drift_share")
            .is_some_and(|d| d > NOISY_HOST_DRIFT)
    });
    Noise { rows, noisy_host }
}

/// Writes everything a run printed as one JSON document. No gain is ever
/// claimed by this file: `"claim": null`.
pub fn write_result_file(
    path: &Path,
    seed: u64,
    workers: usize,
    seconds: f64,
    results: &[RunResult],
    noise: Option<&Noise>,
) -> std::io::Result<()> {
    let runs: Vec<String> = results
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| format!("      {}", m.json(&m.name, true)))
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
                r.workload,
                r.traced,
                r.correct(),
                r.attempted,
                r.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    let mut s = format!(
        "{{\n  \"seed\": {seed},\n  \"workers\": {workers},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"avx2\": {},\n  \"fma\": {},\n  \"claim\": null,\n  \"generator_lateness_ms\": 0,\n  \"runs\": [\n{}\n  ]",
        json_number(seconds),
        std::thread::available_parallelism().map_or(0, usize::from),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        runs.join(",\n")
    );
    if let Some(noise) = noise {
        let rows: Vec<String> = noise
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"first\": {}, \"second\": {}, \"worse_by\": {}, \"bound\": {}}}",
                    r.workload,
                    r.metric,
                    json_number(r.first),
                    json_number(r.second),
                    json_number(r.worse_by),
                    r.bound
                )
            })
            .collect();
        let _ = write!(
            s,
            ",\n  \"noise\": {{\"within_bounds\": {}, \"noisy_host\": {}, \"rows\": [\n{}\n  ]}}",
            noise.within_bounds(),
            noise.noisy_host,
            rows.join(",\n")
        );
    }
    s.push_str("\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
