//! The passes: set-up, the untraced engine pass every end-to-end metric
//! comes from, the same pass wrapped in spans, and the serial pass that is
//! both the output oracle and — when traced — the per-stage attribution.
//!
//! Everything here reaches the engine through the crates' public APIs.

use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Fnv, Traffic, Workload, WARMUP_TICKS};
use eva2_cnn::network::Network;
use eva2_cnn::LayerKind;
use eva2_core::executor::{AmcConfig, AmcExecutor, AmcFrameResult, WarpMode};
use eva2_core::serve::{Engine, EngineLimits, FrameOutcome, StreamSession};
use eva2_core::sparse::RleActivation;
use eva2_core::warp::warp_activation_sparse;
use eva2_motion::{Rfbme, RfbmeScratch, SearchStats};
use eva2_tensor::gemm::gemm_nn;
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GemmScratch, GrayImage, Tensor3};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn limits(w: &Workload, workers: usize) -> EngineLimits {
    let mut b = EngineLimits::builder().worker_threads(workers);
    if let Some(idle) = w.idle_evict_ticks {
        b = b.idle_evict_ticks(idle);
    }
    b.build().expect("benchmark engine limits are valid")
}

/// What `setup_s` times: build the network, construct the engine (which
/// runs the `eva2-analysis` gate), open the initial sessions. Returns the
/// seconds it took with the fleet.
fn set_up(w: &Workload, workers: usize) -> (f64, Engine, Vec<StreamSession>) {
    let start = Instant::now();
    let net = Arc::new(w.net.build());
    let mut engine = Engine::with_limits(net, w.config(), limits(w, workers))
        .expect("workload configuration passes the analysis gate");
    let sessions = (0..w.streams)
        .map(|_| engine.open_session().expect("engine has no session cap"))
        .collect();
    (start.elapsed().as_secs_f64(), engine, sessions)
}

/// Times the set-up `reps` times, in seconds.
pub fn setup_seconds(w: &Workload, workers: usize, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let fleet = set_up(w, workers);
            black_box(&fleet);
            fleet.0
        })
        .collect()
}

/// How a frame came back, and a digest of its output bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    pub is_key: bool,
    pub served: bool,
    pub digest: u64,
}

fn output_digest(output: &Tensor3) -> u64 {
    let mut h = Fnv::new();
    for v in output.as_slice() {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Counters summed over the measured ticks of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub attempted: u64,
    pub served: u64,
    pub shed: u64,
    pub rejected: u64,
    pub keys: u64,
    pub forced_keys: u64,
    pub macs: u64,
    pub evictions: u64,
    pub opens: u64,
}

/// One pass of a fresh engine over the traffic.
#[derive(Debug, Clone)]
pub struct EnginePass {
    /// Wall time of each measured tick: `open_session` (if any), the
    /// `process_batch` call, and `maintain` (if the workload runs it).
    pub service_ns: Vec<u64>,
    /// Frames served on each measured tick.
    pub served: Vec<u32>,
    pub counts: Counts,
    /// One record per frame sent, warm-up included, in (tick, slot) order.
    pub records: Vec<FrameRecord>,
    /// `(tick, slot)` of every key-state eviction, warm-up included.
    pub evictions: Vec<(usize, usize)>,
    /// `(tick, slot, engine output)` of every measured frame, when kept.
    pub outputs: Vec<(usize, usize, Tensor3)>,
    /// Wall time of this pass's own set-up, seconds.
    pub setup_s: f64,
    /// Mean `StreamSession::memory_footprint` after the last tick, bytes.
    pub session_bytes: f64,
    pub total_macs: u64,
}

/// Span names of the traced engine pass.
pub const SERVE_TICK: &str = "core.serve.tick";
pub const SERVE_MAINTAIN: &str = "core.serve.maintain";
pub const SERVE_OPEN: &str = "core.serve.open_session";

struct ServeSpans<'t> {
    tracer: &'t mut Tracer,
    tick: u16,
    maintain: u16,
    open: u16,
}

/// Runs `f`, as a root span when tracing.
fn timed<T>(
    spans: &mut Option<ServeSpans<'_>>,
    name: fn(&ServeSpans<'_>) -> u16,
    tick: usize,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => {
            let id = name(s);
            s.tracer.span(id, NO_PARENT, tick as u32, false, f)
        }
        None => f(),
    }
}

/// Drives a fresh engine over `ticks` ticks of `traffic`; the first
/// [`WARMUP_TICKS`] are not measured. With `tracer`, `process_batch`,
/// `maintain` and `open_session` are each wrapped in a span on the measured
/// ticks. `keep_outputs` retains the measured outputs for the off-clock
/// comparison with the full CNN.
pub fn engine_pass(
    w: &Workload,
    traffic: &Traffic,
    ticks: usize,
    workers: usize,
    tracer: Option<&mut Tracer>,
    keep_outputs: bool,
) -> EnginePass {
    let (setup_s, mut engine, mut sessions) = set_up(w, workers);
    let measured = ticks - WARMUP_TICKS;
    let mut spans = tracer.map(|tracer| ServeSpans {
        tick: tracer.name(SERVE_TICK),
        maintain: tracer.name(SERVE_MAINTAIN),
        open: tracer.name(SERVE_OPEN),
        tracer,
    });
    let mut pass = EnginePass {
        service_ns: Vec::with_capacity(measured),
        served: Vec::with_capacity(measured),
        counts: Counts::default(),
        records: Vec::with_capacity(traffic.frames_in(0..ticks) as usize),
        evictions: Vec::new(),
        outputs: Vec::new(),
        setup_s,
        session_bytes: 0.0,
        total_macs: engine.total_macs(),
    };
    let mut seen_evictions = vec![0usize; w.streams];
    let mut off = None;
    for (tick, frames) in traffic.frames[..ticks].iter().enumerate() {
        let is_measured = tick >= WARMUP_TICKS;
        let spans = if is_measured { &mut spans } else { &mut off };

        let start = Instant::now();
        if let Some(slot) = traffic.reopen[tick] {
            // Assigning drops the old session, which frees its slot.
            sessions[slot] = timed(spans, |s| s.open, tick, || engine.open_session())
                .expect("engine has no session cap");
        }
        let jobs = sessions
            .iter_mut()
            .zip(frames)
            .filter_map(|(session, frame)| frame.as_ref().map(|f| (session, f)));
        let outcomes = timed(spans, |s| s.tick, tick, || engine.process_batch(jobs));
        if w.idle_evict_ticks.is_some() {
            timed(
                spans,
                |s| s.maintain,
                tick,
                || engine.maintain(sessions.iter_mut()),
            );
        }
        let service_ns = start.elapsed().as_nanos() as u64;
        black_box(&outcomes);

        // Off the clock from here to the end of the loop body.
        if let Some(slot) = traffic.reopen[tick] {
            seen_evictions[slot] = 0;
            pass.counts.opens += u64::from(is_measured);
        }
        for (slot, session) in sessions.iter().enumerate() {
            let n = session.stats().evictions;
            if n != seen_evictions[slot] {
                seen_evictions[slot] = n;
                pass.evictions.push((tick, slot));
                pass.counts.evictions += u64::from(is_measured);
            }
        }
        let mut served = 0u32;
        let active = frames
            .iter()
            .enumerate()
            .filter_map(|(slot, f)| f.as_ref().map(|f| (slot, f)));
        for ((slot, _), outcome) in active.zip(&outcomes) {
            pass.records.push(FrameRecord {
                is_key: outcome.is_key(),
                served: outcome.is_served(),
                digest: outcome.frame().map_or(0, |f| output_digest(&f.output)),
            });
            if !is_measured {
                continue;
            }
            pass.counts.attempted += 1;
            match outcome {
                FrameOutcome::Shed(_) => pass.counts.shed += 1,
                FrameOutcome::Rejected(_) => pass.counts.rejected += 1,
                _ => {}
            }
            let (Some(result), Some(delta)) = (outcome.frame(), outcome.stats_delta()) else {
                continue;
            };
            served += 1;
            pass.counts.keys += u64::from(result.is_key);
            pass.counts.macs += delta.macs;
            pass.counts.forced_keys += delta.forced_keys as u64;
            if keep_outputs {
                pass.outputs.push((tick, slot, result.output.clone()));
            }
        }
        if is_measured {
            pass.service_ns.push(service_ns);
            pass.served.push(served);
            pass.counts.served += u64::from(served);
        }
    }
    pass.session_bytes = sessions
        .iter()
        .map(|s| s.memory_footprint() as f64)
        .sum::<f64>()
        / sessions.len() as f64;
    pass
}

/// Mean over frames of the RMS distance between the engine's output and
/// `Network::forward` on the same frame: the accuracy the compute saving
/// costs. (A mean of per-frame distances, not one RMS over all values: a
/// handful of badly predicted frames would otherwise set the figure.)
pub fn output_rms_vs_full_cnn(
    net: &Network,
    traffic: &Traffic,
    outputs: &[(usize, usize, Tensor3)],
) -> f64 {
    let sum: f64 = outputs
        .iter()
        .map(|(tick, slot, output)| {
            let frame = traffic.frames[*tick][*slot]
                .as_ref()
                .expect("an output belongs to a frame that was sent");
            f64::from(net.forward(&frame.to_tensor()).rms_distance(output))
        })
        .sum();
    sum / outputs.len().max(1) as f64
}

/// Span names of the traced serial pass.
pub const EXEC_PROCESS: &str = "core.executor.process";
pub const RFBME: &str = "motion.rfbme";
pub const CNN_PREFIX: &str = "cnn.prefix";
pub const CNN_OTHER: &str = "cnn.other_layers";
pub const CNN_SUFFIX: &str = "cnn.suffix_sparse";
pub const SPARSE_ENCODE: &str = "core.sparse.encode";
pub const WARP: &str = "core.warp";

/// Span name of a GEMM layer of the prefix.
pub fn layer_span(layer_name: &str) -> String {
    format!("cnn.layer.{layer_name}")
}

/// Counters the traced serial pass reads off its own calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    pub rfbme_ops: u64,
    pub search: SearchStats,
    pub warp_interpolations: u64,
    pub compression_sum: f64,
    pub sparsity_sum: f64,
    pub encodes: u64,
    /// Replays whose output was not the frame's output bit for bit.
    pub replay_mismatches: u64,
}

/// State of the traced serial pass: the span buffer plus what the stage
/// replays need that `AmcExecutor` keeps private.
pub struct StageTrace<'t> {
    pub tracer: &'t mut Tracer,
    pub counts: StageCounts,
    process: u16,
    rfbme: u16,
    prefix: u16,
    /// Span name per prefix layer: its own for a GEMM layer, `CNN_OTHER`
    /// for the rest.
    layers: Vec<u16>,
    encode: u16,
    warp: u16,
    suffix: u16,
    /// Per slot: the estimator's scratch and the decoded key activation
    /// that warping reads.
    scratch: Vec<RfbmeScratch>,
    decoded: Vec<Option<Tensor3>>,
    gemm: GemmScratch,
}

impl<'t> StageTrace<'t> {
    pub fn new(tracer: &'t mut Tracer, w: &Workload, net: &Network, target: usize) -> Self {
        let config = w.config();
        // The replays below mirror the float bilinear path only.
        assert_eq!(config.warp, WarpMode::default());
        assert!(!config.fixed_point);
        let layers = net.layers()[..=target]
            .iter()
            .map(|l| match l.describe().kind {
                LayerKind::Conv { .. } | LayerKind::FullyConnected { .. } => {
                    tracer.name(&layer_span(l.name()))
                }
                _ => tracer.name(CNN_OTHER),
            })
            .collect();
        Self {
            process: tracer.name(EXEC_PROCESS),
            rfbme: tracer.name(RFBME),
            prefix: tracer.name(CNN_PREFIX),
            layers,
            encode: tracer.name(SPARSE_ENCODE),
            warp: tracer.name(WARP),
            suffix: tracer.name(CNN_SUFFIX),
            tracer,
            counts: StageCounts::default(),
            scratch: (0..w.streams).map(|_| RfbmeScratch::new()).collect(),
            decoded: vec![None; w.streams],
            gemm: GemmScratch::new(),
        }
    }

    fn forget(&mut self, slot: usize) {
        self.scratch[slot] = RfbmeScratch::new();
        self.decoded[slot] = None;
    }

    /// An untraced (warm-up) frame: only keep the replay state current.
    fn untraced_frame(
        &mut self,
        exec: &mut AmcExecutor<'_>,
        slot: usize,
        image: &GrayImage,
    ) -> AmcFrameResult {
        let result = exec.process(image);
        if result.is_key {
            let rle = exec.key_activation().expect("a key frame stores its state");
            self.decoded[slot] = Some(rle.to_sparse().to_dense());
        }
        result
    }

    /// One frame under spans. RFBME runs in place (the estimate is handed
    /// to `process_with_motion`); the stages inside `process_with_motion`
    /// are private, so each is replayed on the same inputs right after the
    /// frame, as a child of the frame's span.
    #[allow(clippy::too_many_arguments)]
    fn traced_frame(
        &mut self,
        exec: &mut AmcExecutor<'_>,
        rfbme: Rfbme,
        net: &Network,
        config: &AmcConfig,
        slot: usize,
        tick: u32,
        image: &GrayImage,
    ) -> AmcFrameResult {
        let t = &mut *self.tracer;
        let frame = t.begin(self.process, NO_PARENT, tick, false);
        let motion = exec.key_image().map(|key| {
            let id = t.begin(self.rfbme, frame, tick, false);
            let m = rfbme.estimate_with(key, image, &mut self.scratch[slot]);
            t.end(id);
            m
        });
        let field = motion.as_ref().map(|m| m.field.clone());
        if let Some(m) = &motion {
            self.counts.rfbme_ops += m.ops();
            self.counts.search.candidates += m.search.candidates;
            self.counts.search.rejected_level0 += m.search.rejected_level0;
            self.counts.search.rejected_level1 += m.search.rejected_level1;
            self.counts.search.refined += m.search.refined;
        }
        let result = exec.process_with_motion(image, motion);
        t.end(frame);

        let target = exec.target();
        let sparse = if result.is_key {
            let p = t.begin(self.prefix, frame, tick, true);
            let mut x = image.to_tensor();
            for (layer, &name) in net.layers()[..=target].iter().zip(&self.layers) {
                let id = t.begin(name, p, tick, false);
                x = layer.forward_owned(x, &mut self.gemm);
                t.end(id);
            }
            t.end(p);
            let e = t.begin(self.encode, frame, tick, true);
            let rle = RleActivation::encode(&x, config.sparsity_threshold);
            let sparse = rle.to_sparse();
            let decoded = sparse.to_dense();
            t.end(e);
            self.counts.encodes += 1;
            self.counts.compression_sum += f64::from(rle.compression());
            self.counts.sparsity_sum += f64::from(sparse.sparsity());
            self.decoded[slot] = Some(decoded);
            sparse
        } else {
            let key = self.decoded[slot]
                .as_ref()
                .expect("predicted frame has key state");
            let field = field.expect("predicted frame has a motion estimate");
            let id = t.begin(self.warp, frame, tick, true);
            let (sparse, stats) = warp_activation_sparse(
                key,
                &field,
                exec.rf_geometry().stride,
                Interpolation::Bilinear,
            );
            t.end(id);
            self.counts.warp_interpolations += stats.interpolations;
            sparse
        };
        let id = t.begin(self.suffix, frame, tick, true);
        let output = net.forward_suffix_sparse(&sparse, target, &mut self.gemm);
        t.end(id);
        if output_digest(&output) != output_digest(&result.output) {
            self.counts.replay_mismatches += 1;
        }
        result
    }
}

/// Outcome of comparing the serial oracles with an engine pass.
#[derive(Debug, Clone, Default)]
pub struct OracleCheck {
    pub frames: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Per measured tick, the summed wall time of its frames'
    /// `AmcExecutor::process` calls when the pass ran without spans: the
    /// serial reference the engine's ticks are compared with.
    pub process_ns: Vec<u64>,
}

/// One serial `AmcExecutor` per stream over the same `ticks` ticks the
/// engine pass `engine` saw, mirroring its session turnover and evictions,
/// compared with it per frame: same kind, same output bits. With `stages`,
/// the measured ticks run under spans (see [`StageTrace`]).
pub fn serial_pass(
    w: &Workload,
    net: &Network,
    traffic: &Traffic,
    engine: &EnginePass,
    ticks: usize,
    mut stages: Option<&mut StageTrace<'_>>,
) -> OracleCheck {
    let config = w.config();
    let new_exec = || AmcExecutor::try_new(net, config).expect("workload configuration is valid");
    let mut execs: Vec<AmcExecutor<'_>> = (0..w.streams).map(|_| new_exec()).collect();
    let rfbme = execs[0].rfbme();
    let mut check = OracleCheck::default();
    let mut records = engine.records.iter();
    let mut evictions = engine.evictions.iter().peekable();
    for (tick, frames) in traffic.frames[..ticks].iter().enumerate() {
        if let Some(slot) = traffic.reopen[tick] {
            execs[slot] = new_exec();
            if let Some(s) = stages.as_deref_mut() {
                s.forget(slot);
            }
        }
        let mut tick_ns = 0u64;
        for (slot, frame) in frames.iter().enumerate() {
            let Some(image) = frame else { continue };
            let exec = &mut execs[slot];
            let result = match stages.as_deref_mut() {
                None => {
                    let start = Instant::now();
                    let result = exec.process(image);
                    tick_ns += start.elapsed().as_nanos() as u64;
                    result
                }
                Some(s) if tick < WARMUP_TICKS => s.untraced_frame(exec, slot, image),
                Some(s) => s.traced_frame(exec, rfbme, net, &config, slot, tick as u32, image),
            };
            let want = records.next().expect("one engine record per frame sent");
            check.frames += 1;
            let digest = output_digest(&result.output);
            let same = want.served && want.is_key == result.is_key && want.digest == digest;
            if !same {
                check.mismatches += 1;
                check.first_mismatch.get_or_insert_with(|| {
                    format!(
                        "tick {tick} slot {slot}: engine served={} key={} digest={:016x}, oracle key={} digest={digest:016x}",
                        want.served, want.is_key, want.digest, result.is_key
                    )
                });
            }
        }
        if stages.is_none() && tick >= WARMUP_TICKS {
            check.process_ns.push(tick_ns);
        }
        // The engine evicts in `maintain`, after the tick's batch.
        while let Some(&&(_, slot)) = evictions.peek().filter(|e| e.0 == tick) {
            evictions.next();
            execs[slot].reset();
            if let Some(s) = stages.as_deref_mut() {
                s.forget(slot);
            }
        }
    }
    check
}

/// Share of served frames that ran as key frames.
pub fn key_share(counts: &Counts) -> f64 {
    counts.keys as f64 / counts.served.max(1) as f64
}

/// Peak single-thread GEMM rate at the shape `BENCH_conv.json` uses
/// (32×1024×144), in GMAC/s: the roofline ceiling for the per-layer rates
/// and, taken at both ends of a run, a canary for host speed drift.
pub fn gemm_peak_gmacs_per_s() -> f64 {
    let (m, n, k) = (32usize, 1024usize, 144usize);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 17) % 23) as f32 * 0.1 - 1.1)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 13) % 19) as f32 * 0.1 - 0.9)
        .collect();
    let mut c = vec![0.0f32; m * n];
    let mut best_ns = f64::INFINITY;
    for _ in 0..8 {
        let start = Instant::now();
        for _ in 0..16 {
            c.fill(0.0);
            gemm_nn(m, n, k, black_box(&a), black_box(&b), &mut c);
            black_box(&c);
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / 16.0);
    }
    (m * n * k) as f64 / best_ns
}

/// Times the construction-time analysis gate (`AmcConfig::analyze`), in
/// nanoseconds per call, and returns the static per-layer MACs it derives.
pub fn analysis_gate(net: &Network, config: &AmcConfig, reps: usize) -> (Vec<f64>, Vec<u64>) {
    let analyze = || config.analyze(net).expect("workload target resolves");
    let macs = analyze()
        .cost
        .map(|c| c.per_layer.iter().map(|l| l.macs).collect())
        .unwrap_or_default();
    let times = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let report = analyze();
            let ns = start.elapsed().as_nanos() as f64;
            black_box(&report);
            ns
        })
        .collect();
    (times, macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{render, DEFAULT_SEED, WORKLOADS};

    #[test]
    fn traffic_properties_hold_on_the_default_seed_and_another() {
        for w in &WORKLOADS {
            for seed in [DEFAULT_SEED, 99] {
                let ticks = WARMUP_TICKS + 200;
                let traffic = render(w, seed, ticks);
                let pass = engine_pass(w, &traffic, ticks, 1, None, false);
                let c = &pass.counts;
                assert_eq!(c.served, c.attempted, "{} seed {seed}", w.name);
                w.property
                    .check(key_share(c), c.evictions)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
            }
        }
    }

    #[test]
    fn serial_oracles_match_the_engine_with_and_without_spans() {
        for w in &WORKLOADS {
            let ticks = WARMUP_TICKS + 40;
            let traffic = render(w, 5, ticks);
            let net = w.net.build();
            let engine = engine_pass(w, &traffic, ticks, 1, None, false);
            let plain = serial_pass(w, &net, &traffic, &engine, ticks, None);
            assert_eq!(
                plain.mismatches, 0,
                "{}: {:?}",
                w.name, plain.first_mismatch
            );
            assert_eq!(plain.frames, traffic.frames_in(0..ticks));
            assert_eq!(plain.process_ns.len(), ticks - WARMUP_TICKS);

            let target = w.config().target.resolve(&net).unwrap();
            let mut spans = Tracer::with_capacity(4096);
            let mut stages = StageTrace::new(&mut spans, w, &net, target);
            let traced = serial_pass(w, &net, &traffic, &engine, ticks, Some(&mut stages));
            assert_eq!(
                traced.mismatches, 0,
                "{}: {:?}",
                w.name, traced.first_mismatch
            );
            assert_eq!(stages.counts.replay_mismatches, 0, "{}", w.name);
            let totals = spans.totals();
            let process = totals.of(EXEC_PROCESS);
            assert_eq!(process.calls, traffic.frames_in(WARMUP_TICKS..ticks));
            // Every frame runs the suffix; key frames the prefix, the rest warp.
            assert_eq!(totals.of(CNN_SUFFIX).calls, process.calls);
            assert_eq!(
                totals.of(CNN_PREFIX).calls + totals.of(WARP).calls,
                process.calls
            );
        }
    }

    #[test]
    fn oracle_flags_a_tampered_output_and_a_flipped_kind() {
        let w = &WORKLOADS[0];
        let ticks = WARMUP_TICKS + 4;
        let traffic = render(w, 5, ticks);
        let net = w.net.build();
        let mut engine = engine_pass(w, &traffic, ticks, 1, None, false);
        engine.records[3].digest ^= 1;
        let last = engine.records.len() - 1;
        engine.records[last].is_key ^= true;
        let check = serial_pass(w, &net, &traffic, &engine, ticks, None);
        assert_eq!(check.mismatches, 2);
        assert!(check.first_mismatch.unwrap().starts_with("tick 0 slot 3"));
    }

    #[test]
    fn tracing_the_engine_pass_records_one_span_per_call() {
        let w = crate::workload::Workload::by_name("early_churn").unwrap();
        let ticks = WARMUP_TICKS + 32;
        let traffic = render(w, 5, ticks);
        let mut spans = Tracer::with_capacity(128);
        let pass = engine_pass(w, &traffic, ticks, 1, Some(&mut spans), false);
        let totals = spans.totals();
        assert_eq!(totals.of(SERVE_TICK).calls, 32);
        assert_eq!(totals.of(SERVE_MAINTAIN).calls, 32);
        assert_eq!(totals.of(SERVE_OPEN).calls, pass.counts.opens);
        assert_eq!(pass.counts.opens, 2);
        assert!(pass.counts.evictions > 0);
    }
}
