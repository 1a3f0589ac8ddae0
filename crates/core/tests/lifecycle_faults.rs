//! Serving-lifecycle fault injection: the engine must deliver a correct
//! frame or a typed error under every scripted fault — never a panic, and
//! never a corrupted neighbour stream.
//!
//! Faulty inputs come from `eva2_video::faults`, which is deterministic
//! per `(seed, t)`: every scenario here replays bit-identically, which is
//! what lets the eviction/rehydration checks compare damaged streams
//! against fresh sessions frame by frame.

mod common;

use common::assert_result_eq;
use eva2_cnn::zoo;
use eva2_core::error::AmcError;
use eva2_core::executor::AmcConfig;
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::{Engine, EngineLimits, FrameOutcome, StreamSession};
use eva2_tensor::GrayImage;
use eva2_video::faults::{FaultKind, FaultScript, FaultyScene};
use eva2_video::scene::{Scene, SceneConfig};
use std::sync::Arc;

const TICKS: usize = 20;

fn scene(seed: u64) -> Scene {
    Scene::new(SceneConfig::detection(48, 48), seed)
}

/// CI hook: `EVA2_SERVE_WORKERS=N` re-runs this whole suite through the
/// threaded engine (a forced worker count, so it
/// exercises the fan-out even on a single-CPU container). Outcomes are
/// bit-identical for any worker count, so every assertion holds unchanged.
fn workers_from_env(mut limits: EngineLimits) -> EngineLimits {
    if let Ok(n) = std::env::var("EVA2_SERVE_WORKERS") {
        limits.worker_threads = n
            .parse()
            .expect("EVA2_SERVE_WORKERS must be a thread count");
    }
    limits
}

fn engine(limits: EngineLimits) -> Engine {
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    Engine::with_limits(net, AmcConfig::default(), workers_from_env(limits)).expect("valid config")
}

/// The flagship property: a storm of dropped, corrupted, saturated,
/// resized, and cut frames across several streams, through an engine with
/// real backpressure, produces only correct frames or documented typed
/// errors — and the engine keeps serving afterwards.
#[test]
fn fault_storm_yields_correct_frames_or_typed_errors() {
    const STREAMS: usize = 4;
    let limits = EngineLimits {
        max_frames_per_tick: 3,
        max_key_frames_per_tick: 2,
        ..EngineLimits::unlimited()
    };
    let mut engine = engine(limits);
    let mut sessions: Vec<StreamSession> = (0..STREAMS)
        .map(|_| engine.open_session().expect("capacity"))
        .collect();
    let mut streams: Vec<FaultyScene> = (0..STREAMS)
        .map(|s| {
            FaultyScene::new(
                scene(21 + s as u64),
                FaultScript::generate(100 + s as u64, TICKS, 0.35),
            )
        })
        .collect();

    let mut delivered = [0usize; STREAMS];
    let mut served = [0usize; STREAMS];
    for _ in 0..TICKS {
        let mut frames: Vec<Option<GrayImage>> = Vec::new();
        for stream in streams.iter_mut() {
            frames.push(stream.next_event().frame.map(|f| f.image));
        }
        let jobs = sessions
            .iter_mut()
            .zip(frames.iter())
            .filter_map(|(session, frame)| frame.as_ref().map(|f| (session, f)));
        let mut live = Vec::new();
        for (s, f) in frames.iter().enumerate() {
            if f.is_some() {
                delivered[s] += 1;
                live.push(s);
            }
        }
        for (&s, outcome) in live.iter().zip(engine.process_batch(jobs)) {
            match outcome {
                FrameOutcome::Predicted { frame, stats } | FrameOutcome::Key { frame, stats } => {
                    served[s] += 1;
                    assert!(frame.output.as_slice().iter().all(|v| v.is_finite()));
                    assert_eq!(stats.frames, 1, "one frame's delta per outcome");
                }
                // The documented shed/reject set; anything else (or a
                // panic, which the harness would surface) fails the test.
                FrameOutcome::Shed(AmcError::BudgetExceeded { .. }) => {}
                FrameOutcome::Rejected(AmcError::FrameGeometryMismatch {
                    expected_height: 48,
                    expected_width: 48,
                    got_height: 24,
                    got_width: 24,
                }) => {}
                other => panic!("undocumented failure: {other:?}"),
            }
        }
    }
    for s in 0..STREAMS {
        assert!(served[s] > 0, "stream {s} starved");
        assert!(served[s] <= delivered[s]);
        assert_eq!(
            sessions[s].stats().frames,
            served[s],
            "stream {s}: only served frames are counted"
        );
    }
    // The engine is still healthy: a clean frame on every stream works.
    let clean = scene(99).render(0).image;
    for session in sessions.iter_mut() {
        engine
            .process(session, &clean)
            .expect("engine still serves");
    }
}

#[test]
fn resolution_change_is_a_typed_geometry_error() {
    let mut engine = engine(EngineLimits::unlimited());
    let mut session = engine.open_session().unwrap();
    let script = FaultScript::new(0, vec![(2, FaultKind::Downscale)]);
    let mut stream = FaultyScene::new(scene(5), script);
    for t in 0..4 {
        let frame = stream.next_event().frame.expect("nothing dropped").image;
        let result = engine.process(&mut session, &frame);
        if t == 2 {
            assert!(
                matches!(
                    result,
                    FrameOutcome::Rejected(AmcError::FrameGeometryMismatch {
                        expected_height: 48,
                        got_height: 24,
                        ..
                    })
                ),
                "t=2: {result:?}"
            );
        } else {
            result.expect("native-resolution frames serve normally");
        }
    }
    assert_eq!(
        session.stats().frames,
        3,
        "the rejected frame left no trace"
    );
}

/// Graceful degradation (§III-C): a hard scene cut is caught by the
/// block-error policy, which keys the frame rather than warp stale state.
/// The gap is far away, so the key is decided on the search's residual.
#[test]
fn scene_cut_is_caught_by_the_block_error_policy() {
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    let config = AmcConfig {
        policy: PolicyConfig::BlockError {
            threshold: 0.5,
            max_gap: 1000,
        },
        ..AmcConfig::default()
    };
    let mut engine = Engine::new(net, config).expect("valid config");
    let mut session = engine.open_session().unwrap();
    let cut_t = 4usize;
    let script = FaultScript::new(2, vec![(cut_t, FaultKind::SceneCut)]);
    let mut stream = FaultyScene::new(scene(13), script);
    for t in 0..8 {
        let frame = stream.next_event().frame.unwrap().image;
        let outcome = engine.process(&mut session, &frame);
        if t == cut_t {
            assert!(
                matches!(&outcome, FrameOutcome::Key { frame, .. }
                    if frame.metrics.is_some_and(|m| m.block_error_per_pixel > 0.5)),
                "the cut frame must not be warped from stale state: {outcome:?}"
            );
        }
        outcome.expect("admitted");
    }
    assert_eq!(
        session.stats().forced_keys,
        0,
        "every key after the first was decided on a search: {:?}",
        session.stats()
    );
}

/// Transport loss: dropped frames simply widen the inter-frame gap. The
/// session serves every delivered frame and counts nothing for the holes.
#[test]
fn dropped_frames_widen_gaps_without_errors() {
    let mut engine = engine(EngineLimits::unlimited());
    let mut session = engine.open_session().unwrap();
    let script = FaultScript::new(
        3,
        vec![
            (1, FaultKind::DropFrame),
            (2, FaultKind::DropFrame),
            (5, FaultKind::DropFrame),
        ],
    );
    let mut stream = FaultyScene::new(scene(17), script);
    let mut delivered = 0;
    for _ in 0..8 {
        let Some(frame) = stream.next_event().frame else {
            continue;
        };
        delivered += 1;
        engine
            .process(&mut session, &frame.image)
            .expect("delivered frames all serve");
    }
    assert_eq!(delivered, 5);
    assert_eq!(session.stats().frames, 5);
}

/// Soft eviction mid-damaged-stream: the rehydrated session is
/// bit-identical, frame for frame and in its statistics, to a session
/// opened fresh at the eviction point — even while the stream is being
/// corrupted and cut.
#[test]
fn evicted_session_rehydrates_bit_identically_under_faults() {
    let mut engine = engine(EngineLimits::unlimited());
    let mut session = engine.open_session().unwrap();
    let script = FaultScript::new(
        7,
        vec![
            (2, FaultKind::Corrupt { fraction: 0.2 }),
            (5, FaultKind::SceneCut),
            (7, FaultKind::Saturate),
        ],
    );
    let mut stream = FaultyScene::new(scene(29), script);
    let frames: Vec<GrayImage> = (0..10)
        .map(|_| stream.next_event().frame.unwrap().image)
        .collect();

    for frame in &frames[..4] {
        engine.process(&mut session, frame).expect("admitted");
    }
    assert!(session.evict_state(), "key state was present");
    let before = session.stats();
    assert_eq!(before.evictions, 1);

    let mut fresh = engine.open_session().unwrap();
    for (t, frame) in frames[4..].iter().enumerate() {
        let a = engine.process(&mut session, frame).expect("admitted");
        let b = engine.process(&mut fresh, frame).expect("admitted");
        if t == 0 {
            assert!(a.is_key, "rehydration re-keys");
        }
        assert_result_eq(&a, &b, &format!("post-eviction frame {t}"));
    }
    assert_eq!(session.stats().delta_since(&before), fresh.stats());
}

#[test]
fn hard_eviction_frees_capacity_and_revokes_admission() {
    let mut engine = engine(EngineLimits {
        max_sessions: 1,
        ..EngineLimits::unlimited()
    });
    let mut session = engine.open_session().unwrap();
    let frame = scene(31).render(0).image;
    engine.process(&mut session, &frame).expect("admitted");
    match engine.open_session() {
        Err(AmcError::EngineAtCapacity { limit: 1 }) => {}
        other => panic!("expected EngineAtCapacity, got {other:?}"),
    }
    engine.evict_session(&mut session).expect("own session");
    assert!(session.is_evicted());
    match engine.process(&mut session, &frame) {
        FrameOutcome::Rejected(AmcError::SessionEvicted { session: id }) => {
            assert_eq!(id, session.id())
        }
        other => panic!("expected SessionEvicted, got {other:?}"),
    }
    // The revoked slot is free for a replacement stream.
    let mut replacement = engine.open_session().expect("slot was freed");
    engine.process(&mut replacement, &frame).expect("admitted");
}

/// `maintain` holds the engine-wide audited footprint under the budget by
/// LRU-evicting stored key state, and the victims rehydrate on their next
/// frame.
#[test]
fn maintain_enforces_total_memory_budget_under_load() {
    // Probe the footprint of a session with and without key state so the
    // budget can be set meaningfully for this network.
    let mut probe_engine = engine(EngineLimits::unlimited());
    let mut probe = probe_engine.open_session().unwrap();
    let base = probe.memory_footprint();
    let frame = scene(37).render(0).image;
    probe_engine.process(&mut probe, &frame).unwrap();
    let with_state = probe.memory_footprint();
    assert!(with_state > base, "key state must be audited");

    // Room for three bare sessions plus between one and two key states.
    let budget = 3 * base + 2 * (with_state - base) - 1;
    let mut engine = engine(EngineLimits {
        max_total_bytes: budget,
        ..EngineLimits::unlimited()
    });
    let mut sessions: Vec<StreamSession> = (0..3).map(|_| engine.open_session().unwrap()).collect();
    let mut scenes: Vec<Scene> = (41..44).map(scene).collect();
    for t in 0..3 {
        let frames: Vec<GrayImage> = scenes.iter_mut().map(|s| s.render(t).image).collect();
        let results = engine.process_batch(sessions.iter_mut().zip(frames.iter()));
        assert!(results.into_iter().all(|r| r.is_served()));
        let evicted = engine.maintain(sessions.iter_mut());
        assert!(
            engine.total_session_bytes() <= budget,
            "tick {t}: audited total {} over budget {budget} after {evicted} evictions",
            engine.total_session_bytes(),
        );
    }
    // LRU under equal recency tie-breaks by id: at least one early session
    // lost its state, and the engine still serves everyone next tick.
    assert!(sessions.iter().any(|s| s.key_image().is_none()));
    let frames: Vec<GrayImage> = scenes.iter_mut().map(|s| s.render(3).image).collect();
    let results = engine.process_batch(sessions.iter_mut().zip(frames.iter()));
    assert!(results.into_iter().all(|r| r.is_served()));
}

/// The engine's aggregate accounting equals the per-session audits.
#[test]
fn engine_accounting_matches_session_audits() {
    let mut engine = engine(EngineLimits::unlimited());
    let mut sessions: Vec<StreamSession> = (0..3).map(|_| engine.open_session().unwrap()).collect();
    let frame = scene(53).render(0).image;
    for session in sessions.iter_mut() {
        engine.process(session, &frame).unwrap();
    }
    let audited: usize = sessions.iter().map(StreamSession::memory_footprint).sum();
    assert_eq!(engine.total_session_bytes(), audited);
    sessions[0].evict_state();
    let audited: usize = sessions.iter().map(StreamSession::memory_footprint).sum();
    assert_eq!(engine.total_session_bytes(), audited);
}
