//! The serving engine's contract: N independent streams fed round-robin
//! through one [`Engine`] — several streams' frames, key frames included,
//! submitted in one tick, and every per-stream phase optionally fanned out
//! over a worker pool — produce outputs, decisions, and statistics
//! **bit-identical** to N independent serial [`AmcExecutor`] runs. Sharing
//! a tick and threading must be invisible except in wall-clock time (the
//! cross-stream analogue of `external_motion_bitident.rs`).
//!
//! Worker counts here are *forced* ([`EngineLimits::worker_threads`]), so
//! the fan-out code path is exercised even on a single-CPU container.

mod common;

use common::assert_result_eq;
use eva2_cnn::zoo;
use eva2_core::error::AmcError;
use eva2_core::executor::{AmcConfig, AmcExecutor, AmcFrameResult, WarpMode};
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::{
    Engine, EngineLimits, EnginePhase, FailureAction, FailureInjector, FrameOutcome,
};
use eva2_tensor::GrayImage;
use eva2_video::faults::{FaultScript, FaultyScene};
use eva2_video::scene::{Scene, SceneConfig};
use proptest::prelude::*;
use std::sync::Arc;

const STREAMS: usize = 3;
const FRAMES: usize = 14;

/// Stream `s`, frame `t`: each stream pans at its own speed and hard-cuts
/// at a different time, so key frames arrive decorrelated across streams —
/// every batch mixes key and predicted frames at some point.
fn stream_frame(s: usize, t: usize) -> GrayImage {
    let cut = 5 + 3 * s;
    if t < cut {
        return pan_frame(s, t);
    }
    let d = t - cut;
    GrayImage::from_fn(48, 48, |y, x| {
        let v = ((y + d + 7 * s) * 17 + (x + 2 * d) * 23) % 200;
        (30 + v) as u8
    })
}

/// Stream `s`, frame `t` of its pan, with no cut: after the first frame,
/// only a policy's gap or period makes a key frame.
fn pan_frame(s: usize, t: usize) -> GrayImage {
    GrayImage::from_fn(48, 48, |y, x| {
        let xs = (x + t * (s + 1)) as f32;
        (120.0 + 46.0 * ((y as f32 * (0.27 + 0.02 * s as f32)).sin() + (xs * 0.21).cos())) as u8
    })
}

fn engine_with(config: AmcConfig, workers: usize) -> Engine {
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    let limits = EngineLimits::builder()
        .worker_threads(workers)
        .build()
        .expect("valid limits");
    Engine::with_limits(net, config, limits).expect("valid engine config")
}

/// Two engines must agree on the *whole* outcome: the same variant, the
/// same served bits and per-frame stats delta, or the same typed error.
fn assert_outcome_eq(a: &FrameOutcome, b: &FrameOutcome, label: &str) {
    match (a, b) {
        (
            FrameOutcome::Predicted {
                frame: fa,
                stats: sa,
            },
            FrameOutcome::Predicted {
                frame: fb,
                stats: sb,
            },
        )
        | (
            FrameOutcome::Key {
                frame: fa,
                stats: sa,
            },
            FrameOutcome::Key {
                frame: fb,
                stats: sb,
            },
        ) => {
            assert_result_eq(fa, fb, label);
            assert_eq!(sa, sb, "{label}: stats delta");
        }
        (FrameOutcome::Shed(ea), FrameOutcome::Shed(eb))
        | (FrameOutcome::Rejected(ea), FrameOutcome::Rejected(eb)) => {
            assert_eq!(ea, eb, "{label}: error");
        }
        (a, b) => panic!("{label}: outcome variants differ: {a:?} vs {b:?}"),
    }
}

/// Round-robin N sessions through one engine (batched submission, `workers`
/// forced worker threads), compare against N fresh serial executors frame
/// by frame.
fn assert_interleaved_bit_identical(config: AmcConfig, workers: usize, label: &str) {
    let z = zoo::tiny_fasterm(3);
    let mut engine = engine_with(config, workers);
    let mut sessions: Vec<_> = (0..STREAMS)
        .map(|_| {
            engine
                .open_session()
                .expect("unlimited engine has capacity")
        })
        .collect();
    let mut serials: Vec<AmcExecutor> = (0..STREAMS)
        .map(|_| AmcExecutor::try_new(&z.network, config).expect("valid config"))
        .collect();

    let mut batched_keys = 0usize;
    for t in 0..FRAMES {
        let frames: Vec<GrayImage> = (0..STREAMS).map(|s| stream_frame(s, t)).collect();
        // One round: every stream submits its next frame in one batch.
        let results: Vec<AmcFrameResult> = engine
            .process_batch(sessions.iter_mut().zip(frames.iter()))
            .into_iter()
            .map(|r| r.expect("unlimited engine admits every frame"))
            .collect();
        let keys = results.iter().filter(|r| r.is_key).count();
        if keys > 1 {
            batched_keys += 1;
        }
        for (s, r) in results.iter().enumerate() {
            let want = serials[s].process(&frames[s]);
            assert_result_eq(r, &want, &format!("{label}: stream {s} frame {t}"));
        }
    }
    // A batch of one and a serial `Engine::process` submission must both
    // match too.
    for (s, (session, serial)) in sessions.iter_mut().zip(&mut serials).enumerate() {
        let frame = stream_frame(s, FRAMES);
        let r = engine
            .process_batch([(&mut *session, &frame)])
            .remove(0)
            .expect("admitted");
        let want = serial.process(&frame);
        assert_result_eq(&r, &want, &format!("{label}: stream {s} batch-of-one"));
        let frame = stream_frame(s, FRAMES + 1);
        let r = engine.process(session, &frame).expect("admitted");
        let want = serial.process(&frame);
        assert_result_eq(&r, &want, &format!("{label}: stream {s} single-submit"));
    }

    for (s, (session, serial)) in sessions.iter().zip(&serials).enumerate() {
        assert_eq!(
            session.stats(),
            serial.stats(),
            "{label}: stream {s} aggregate stats"
        );
        let keys = session.stats().key_frames;
        assert!(
            (2..FRAMES).contains(&keys),
            "{label}: stream {s} degenerate ({keys} keys)"
        );
    }
    // The scenario must actually put several streams' key frames in one
    // tick: at least one round (the first, if nothing else) ran >1 key
    // frame.
    assert!(
        batched_keys >= 1,
        "{label}: no tick ever held multiple key frames"
    );
}

/// Worker counts to pin: inline (1), fewer workers than streams (2), and
/// more workers than streams (5, so some workers idle every phase).
const WORKER_COUNTS: [usize; 3] = [1, 2, 5];

#[test]
fn interleaved_streams_bit_identical_default_policy() {
    for workers in WORKER_COUNTS {
        assert_interleaved_bit_identical(
            AmcConfig::default(),
            workers,
            &format!("default/{workers}w"),
        );
    }
}

#[test]
fn interleaved_streams_bit_identical_fixed_point() {
    for workers in WORKER_COUNTS {
        assert_interleaved_bit_identical(
            AmcConfig {
                fixed_point: true,
                ..Default::default()
            },
            workers,
            &format!("fixed-point/{workers}w"),
        );
    }
}

#[test]
fn interleaved_streams_bit_identical_memoize_static_rate() {
    for workers in WORKER_COUNTS {
        assert_interleaved_bit_identical(
            AmcConfig {
                warp: WarpMode::Memoize,
                policy: PolicyConfig::StaticRate { period: 3 },
                ..Default::default()
            },
            workers,
            &format!("memoize/static-rate/{workers}w"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Evicting a session's state and rehydrating is bit-identical to a
    /// fresh session replaying from the eviction point — outputs, MACs,
    /// and the full statistics delta — for every shipped datapath
    /// (float warp, fixed point, memoize) and any worker count.
    #[test]
    fn eviction_rehydration_bit_identical(
        cfg_idx in 0usize..3,
        evict_after in 1usize..4,
        tail in 2usize..5,
        stream in 0usize..STREAMS,
        workers in 1usize..5,
    ) {
        let configs = [
            AmcConfig::default(),
            AmcConfig {
                fixed_point: true,
                ..Default::default()
            },
            AmcConfig {
                warp: WarpMode::Memoize,
                policy: PolicyConfig::StaticRate { period: 3 },
                ..Default::default()
            },
        ];
        let config = configs[cfg_idx];
        let mut engine = engine_with(config, workers);
        let mut session = engine.open_session().expect("capacity");
        for t in 0..evict_after {
            engine
                .process(&mut session, &stream_frame(stream, t))
                .expect("admitted");
        }
        prop_assert!(session.evict_state(), "state was present to evict");
        let before = session.stats();
        let mut fresh = engine.open_session().expect("capacity");
        for t in evict_after..evict_after + tail {
            let frame = stream_frame(stream, t);
            let r_old = engine.process(&mut session, &frame).expect("admitted");
            let r_new = engine.process(&mut fresh, &frame).expect("admitted");
            if t == evict_after {
                prop_assert!(r_old.is_key, "rehydration forces a key frame");
            }
            assert_result_eq(&r_old, &r_new, &format!("rehydrated vs fresh, frame {t}"));
        }
        prop_assert_eq!(session.stats().delta_since(&before), fresh.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Backpressure shedding never corrupts admitted streams: every
    /// admitted frame is bit-identical to a serial executor fed only the
    /// admitted frames, and every shed frame leaves its session's
    /// statistics (and therefore its state machine) untouched — for any
    /// worker count (shedding happens in the serial admission walk, so
    /// speculative worker RFBME must leave no trace on shed frames).
    #[test]
    fn shedding_never_corrupts_admitted_sessions(
        frame_budget in 1usize..STREAMS + 1,
        key_budget in 1usize..3,
        workers in 1usize..5,
    ) {
        let z = zoo::tiny_fasterm(3);
        let net = Arc::new(zoo::tiny_fasterm(3).network);
        let limits = EngineLimits::builder()
            .max_frames_per_tick(frame_budget)
            .max_key_frames_per_tick(key_budget)
            .worker_threads(workers)
            .build()
            .expect("valid limits");
        let mut engine =
            Engine::with_limits(net, AmcConfig::default(), limits).expect("valid limits");
        let mut sessions: Vec<_> = (0..STREAMS)
            .map(|_| engine.open_session().expect("capacity"))
            .collect();
        let mut serials: Vec<AmcExecutor> = (0..STREAMS)
            .map(|_| AmcExecutor::try_new(&z.network, AmcConfig::default()).expect("valid"))
            .collect();
        let mut shed = 0usize;
        for t in 0..8 {
            let frames: Vec<GrayImage> = (0..STREAMS).map(|s| stream_frame(s, t)).collect();
            let stats_before: Vec<_> = sessions.iter().map(|s| s.stats()).collect();
            let results = engine.process_batch(sessions.iter_mut().zip(frames.iter()));
            for (s, r) in results.iter().enumerate() {
                match r {
                    outcome if outcome.is_served() => {
                        let want = serials[s].process(&frames[s]);
                        assert_result_eq(
                            outcome.frame().expect("served"),
                            &want,
                            &format!("admitted stream {s} frame {t}"),
                        );
                    }
                    FrameOutcome::Shed(AmcError::BudgetExceeded { .. }) => {
                        shed += 1;
                        prop_assert_eq!(
                            sessions[s].stats(),
                            stats_before[s],
                            "shed frame mutated stream {}",
                            s
                        );
                    }
                    other => prop_assert!(false, "unexpected outcome: {other:?}"),
                }
            }
        }
        if frame_budget < STREAMS {
            prop_assert!(shed > 0, "scenario never exercised frame shedding");
        }
        for (s, (session, serial)) in sessions.iter().zip(&serials).enumerate() {
            prop_assert_eq!(
                session.stats(),
                serial.stats(),
                "stream {} aggregate stats",
                s
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The full threaded-vs-inline storm: faulty decorrelated streams
    /// (random drops, corruption, saturation, downscales, and scene cuts
    /// from `eva2_video::faults`), tight random budgets, and a mid-storm
    /// eviction — an N-worker engine and a 1-worker engine must emit the
    /// *same outcome sequence to the bit*: served frames, stats deltas,
    /// shed/rejected errors, everything.
    #[test]
    fn threaded_engine_matches_inline_engine_under_fault_storms(
        workers in 2usize..6,
        seed in 0u64..512,
        frame_budget in 2usize..5,
        key_budget in 1usize..3,
    ) {
        const TICKS: usize = 12;
        let config = AmcConfig::default();
        let mk = |workers: usize| {
            let net = Arc::new(zoo::tiny_fasterm(3).network);
            let limits = EngineLimits::builder()
                .max_frames_per_tick(frame_budget)
                .max_key_frames_per_tick(key_budget)
                .worker_threads(workers)
                .build()
                .expect("valid limits");
            Engine::with_limits(net, config, limits).expect("valid engine config")
        };
        let mut threaded = mk(workers);
        let mut inline = mk(1);
        let mut threaded_sessions: Vec<_> = (0..STREAMS)
            .map(|_| threaded.open_session().expect("capacity"))
            .collect();
        let mut inline_sessions: Vec<_> = (0..STREAMS)
            .map(|_| inline.open_session().expect("capacity"))
            .collect();
        // Deterministic per (seed, t): both engines see identical storms.
        let mut streams: Vec<FaultyScene> = (0..STREAMS)
            .map(|s| {
                FaultyScene::new(
                    Scene::new(SceneConfig::detection(48, 48), seed + s as u64),
                    FaultScript::generate(seed + 100 + s as u64, TICKS, 0.35),
                )
            })
            .collect();
        for t in 0..TICKS {
            if t == TICKS / 2 {
                // Mid-storm eviction in both engines: rehydration under
                // faults must also be scheduling-independent.
                threaded_sessions[1].evict_state();
                inline_sessions[1].evict_state();
            }
            let frames: Vec<Option<GrayImage>> = streams
                .iter_mut()
                .map(|s| s.next_event().frame.map(|f| f.image))
                .collect();
            let threaded_results = threaded.process_batch(
                threaded_sessions
                    .iter_mut()
                    .zip(frames.iter())
                    .filter_map(|(session, f)| f.as_ref().map(|f| (session, f))),
            );
            let inline_results = inline.process_batch(
                inline_sessions
                    .iter_mut()
                    .zip(frames.iter())
                    .filter_map(|(session, f)| f.as_ref().map(|f| (session, f))),
            );
            prop_assert_eq!(threaded_results.len(), inline_results.len());
            for (j, (a, b)) in threaded_results.iter().zip(&inline_results).enumerate() {
                assert_outcome_eq(a, b, &format!("storm tick {t} job {j} ({workers}w vs 1w)"));
            }
        }
        for (s, (a, b)) in threaded_sessions.iter().zip(&inline_sessions).enumerate() {
            prop_assert_eq!(a.stats(), b.stats(), "stream {} final stats", s);
            prop_assert_eq!(
                a.memory_footprint(),
                b.memory_footprint(),
                "stream {} audited footprint",
                s
            );
        }
    }
}

/// Silences the default panic hook for injected chaos panics (payloads
/// start with `"chaos:"` by contract) so contained-panic cases don't spray
/// backtrace noise; real panics still print.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.starts_with("chaos:") {
                prev(info);
            }
        }));
    });
}

/// Injector that panics every time `session` reaches `phase`.
struct PanicOn {
    phase: EnginePhase,
    session: u64,
}

impl FailureInjector for PanicOn {
    fn action(&self, phase: EnginePhase, _tick: u64, session: u64) -> FailureAction {
        if phase == self.phase && session == self.session {
            FailureAction::Panic
        } else {
            FailureAction::None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The poisoned extension of the evicted≡fresh property: a session
    /// quarantined by a contained panic (in any phase), once evicted and
    /// rehydrated, serves bit-identically to a fresh session on the same
    /// frames — outputs, MACs, and the full statistics delta — across
    /// random configs and the inline (1) and pooled (3) engines.
    #[test]
    fn quarantined_session_rehydrates_bit_identical_to_fresh(
        cfg_idx in 0usize..3,
        phase_idx in 0usize..3,
        warm in 1usize..4,
        tail in 2usize..5,
        stream in 0usize..STREAMS,
        pooled in 0usize..2,
    ) {
        quiet_chaos_panics();
        let configs = [
            AmcConfig::default(),
            AmcConfig {
                fixed_point: true,
                ..Default::default()
            },
            AmcConfig {
                warp: WarpMode::Memoize,
                policy: PolicyConfig::StaticRate { period: 3 },
                ..Default::default()
            },
        ];
        // Prefix is exercised in the soak (it needs a key frame to land
        // exactly on the panic tick); these three fire deterministically
        // once key state exists.
        let phases = [
            (EnginePhase::Estimate, "estimate"),
            (EnginePhase::Admit, "admit"),
            (EnginePhase::Complete, "complete"),
        ];
        let (phase, phase_name) = phases[phase_idx];
        let workers = if pooled == 1 { 3 } else { 1 };
        let mut engine = engine_with(configs[cfg_idx], workers);
        let mut session = engine.open_session().expect("capacity");
        for t in 0..warm {
            engine
                .process(&mut session, &stream_frame(stream, t))
                .expect("admitted");
        }
        engine.set_failure_injector(std::sync::Arc::new(PanicOn {
            phase,
            session: session.id(),
        }));
        match engine.process(&mut session, &stream_frame(stream, warm)) {
            FrameOutcome::Rejected(AmcError::WorkerPanicked { phase: got, .. }) => {
                prop_assert_eq!(got, phase_name);
            }
            other => prop_assert!(false, "expected a contained panic, got {:?}", other),
        }
        prop_assert!(session.is_quarantined());
        // Quarantine is sticky: the next submission is screened out before
        // any phase runs (the injector never even sees the job).
        match engine.process(&mut session, &stream_frame(stream, warm)) {
            FrameOutcome::Rejected(AmcError::SessionPoisoned { session: id }) => {
                prop_assert_eq!(id, session.id());
            }
            other => prop_assert!(false, "expected SessionPoisoned, got {:?}", other),
        }
        // Recovery: eviction drops the suspect state and ends quarantine;
        // from there the stream is indistinguishable from a fresh session.
        engine.clear_failure_injector();
        prop_assert!(session.evict_state(), "state was present to evict");
        prop_assert!(!session.is_quarantined());
        let before = session.stats();
        let mut fresh = engine.open_session().expect("capacity");
        for t in warm..warm + tail {
            let frame = stream_frame(stream, t);
            let r_old = engine.process(&mut session, &frame).expect("admitted");
            let r_new = engine.process(&mut fresh, &frame).expect("admitted");
            if t == warm {
                prop_assert!(r_old.is_key, "rehydration forces a key frame");
            }
            assert_result_eq(&r_old, &r_new, &format!("rehydrated vs fresh, frame {t}"));
        }
        prop_assert_eq!(session.stats().delta_since(&before), fresh.stats());
    }
}

#[test]
fn heterogeneous_sessions_match_their_serial_counterparts() {
    // Streams with different per-session configs (policy, warp mode,
    // fixed point) share one engine — and a worker pool — and still match
    // their own serial executors exactly.
    let z = zoo::tiny_fasterm(5);
    let net = Arc::new(zoo::tiny_fasterm(5).network);
    let configs = [
        AmcConfig::default(),
        AmcConfig {
            warp: WarpMode::Memoize,
            policy: PolicyConfig::StaticRate { period: 2 },
            ..Default::default()
        },
        AmcConfig {
            fixed_point: true,
            policy: PolicyConfig::BlockError {
                threshold: 1.0,
                max_gap: 4,
            },
            ..Default::default()
        },
    ];
    let limits = EngineLimits::builder()
        .worker_threads(3)
        .build()
        .expect("valid limits");
    let mut engine =
        Engine::with_limits(net, AmcConfig::default(), limits).expect("valid engine config");
    let mut sessions: Vec<_> = configs
        .iter()
        .map(|c| engine.open_session_with(*c).expect("same target"))
        .collect();
    let mut serials: Vec<AmcExecutor> = configs
        .iter()
        .map(|c| AmcExecutor::try_new(&z.network, *c).expect("valid config"))
        .collect();
    for t in 0..10 {
        let frames: Vec<GrayImage> = (0..configs.len()).map(|s| stream_frame(s, t)).collect();
        let results = engine.process_batch(sessions.iter_mut().zip(frames.iter()));
        for (s, r) in results.iter().enumerate() {
            let r = r.frame().expect("unlimited engine admits every frame");
            let want = serials[s].process(&frames[s]);
            assert_result_eq(r, &want, &format!("hetero stream {s} frame {t}"));
        }
    }
    for (session, serial) in sessions.iter().zip(&serials) {
        assert_eq!(session.stats(), serial.stats(), "hetero aggregate stats");
    }
}

/// Frames the policy has already made key — its forced gap, its static
/// period — skip RFBME entirely, in the engine and in the serial executor
/// alike, and stay bit-identical to it when the key budget sheds such a
/// frame and it is resubmitted: the pre-decided key reports no metrics and
/// zero RFBME ops, and a stream's RFBME total is one search per frame that
/// needed motion.
#[test]
fn pre_decided_keys_skip_the_search_and_match_serial() {
    const PERIOD: usize = 3;
    const TICKS: usize = 12;
    let policies = [
        PolicyConfig::BlockError {
            threshold: 1e9,
            max_gap: PERIOD,
        },
        PolicyConfig::StaticRate { period: PERIOD },
    ];
    let z = zoo::tiny_fasterm(3);
    for policy in policies {
        for workers in [1, 3] {
            let label = format!("{}/{workers}w", policy.name());
            let config = AmcConfig {
                policy,
                ..AmcConfig::default()
            };
            let limits = EngineLimits::builder()
                .max_key_frames_per_tick(1)
                .worker_threads(workers)
                .build()
                .expect("valid limits");
            let net = Arc::new(zoo::tiny_fasterm(3).network);
            let mut engine = Engine::with_limits(net, config, limits).expect("valid engine");
            let mut sessions: Vec<_> = (0..STREAMS)
                .map(|_| engine.open_session().expect("capacity"))
                .collect();
            let mut serials: Vec<AmcExecutor> = (0..STREAMS)
                .map(|_| AmcExecutor::try_new(&z.network, config).expect("valid config"))
                .collect();
            let search_ops = serials[0].rfbme().ops_bound(48, 48);
            // Per stream: the next frame to submit (a shed frame is
            // resubmitted), whether key state is stored, the frames served
            // since the last key frame, and the served frames that searched
            // or were pre-decided keys.
            let mut next = [0usize; STREAMS];
            let mut keyed = [false; STREAMS];
            let mut since = [0usize; STREAMS];
            let mut searched = [0u64; STREAMS];
            let mut pre_decided = [0usize; STREAMS];
            let mut shed_pre_decided = 0usize;
            for t in 0..TICKS {
                // Every stream submits every tick, except that stream 0
                // sits out tick 1: the first keys are shed into ticks 0, 1
                // and 2, and streams 0 and 1 then reach their gap in the
                // same tick and contend for the one key slot.
                let live: Vec<usize> = (0..STREAMS).filter(|&s| (s, t) != (0, 1)).collect();
                let frames: Vec<GrayImage> = live.iter().map(|&s| pan_frame(s, next[s])).collect();
                let outcomes = engine.process_batch(
                    sessions
                        .iter_mut()
                        .enumerate()
                        .filter(|(s, _)| live.contains(s))
                        .map(|(_, session)| session)
                        .zip(frames.iter()),
                );
                for ((&s, frame), outcome) in live.iter().zip(&frames).zip(&outcomes) {
                    let forced = keyed[s] && since[s] + 1 >= PERIOD;
                    let at = format!("{label}: stream {s} tick {t}");
                    if let FrameOutcome::Shed(AmcError::BudgetExceeded { .. }) = outcome {
                        shed_pre_decided += usize::from(forced);
                        continue;
                    }
                    let got = outcome.frame().expect("served or shed");
                    assert_result_eq(got, &serials[s].process(frame), &at);
                    if forced {
                        pre_decided[s] += 1;
                        assert!(got.is_key, "{at}: the policy's key");
                        assert!(got.metrics.is_none(), "{at}: no metrics without a search");
                        assert_eq!(got.rfbme_ops, 0, "{at}: no search");
                    } else if keyed[s] {
                        assert!(!got.is_key, "{at}: smooth pan below the gap is predicted");
                        assert_eq!(got.rfbme_ops, search_ops, "{at}: one search");
                        searched[s] += 1;
                    }
                    keyed[s] = true;
                    since[s] = if got.is_key { 0 } else { since[s] + 1 };
                    next[s] += 1;
                }
            }
            for (s, (session, serial)) in sessions.iter().zip(&serials).enumerate() {
                assert_eq!(session.stats(), serial.stats(), "{label}: stream {s} stats");
                assert_eq!(
                    session.stats().rfbme_ops,
                    searched[s] * search_ops,
                    "{label}: stream {s} searched only the frames that needed motion"
                );
                assert_eq!(
                    session.stats().forced_keys,
                    pre_decided[s],
                    "{label}: stream {s} counts exactly its pre-decided keys"
                );
            }
            let pre_decided: usize = pre_decided.iter().sum();
            assert!(
                pre_decided >= STREAMS,
                "{label}: {pre_decided} pre-decided keys"
            );
            assert!(
                shed_pre_decided >= 1,
                "{label}: the key budget never shed a pre-decided key"
            );
        }
    }
}
