//! The serving engine's unit tests, in one module so a test's name
//! (`serve::tests::…`) does not depend on which file its code lives in.

use super::session::KeyState;
use super::tick::fan_out;
use super::*;
use crate::error::AmcError;
use crate::executor::{AmcConfig, AmcExecutor, ExecStats, WarpMode};
use crate::policy::PolicyConfig;
use crate::target::TargetSelection;
use eva2_cnn::layer::{Layer, LayerGeometry};
use eva2_cnn::network::Network;
use eva2_cnn::zoo;
use eva2_tensor::{GrayImage, Shape3, Tensor3};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

fn frame(shift: usize) -> GrayImage {
    GrayImage::from_fn(48, 48, |y, x| {
        let xs = (x + shift) as f32;
        (122.0 + 46.0 * ((y as f32 * 0.31).sin() + (xs * 0.21).cos())) as u8
    })
}

#[test]
fn sessions_are_independent() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    assert_ne!(a.id(), b.id());
    let f = frame(0);
    assert!(engine.process(&mut a, &f).unwrap().is_key);
    // Session b has no key state yet; its first frame is still key.
    assert!(engine.process(&mut b, &f).unwrap().is_key);
    assert!(!engine.process(&mut a, &f).unwrap().is_key);
    assert_eq!(a.stats().frames, 2);
    assert_eq!(b.stats().frames, 1);
    b.reset();
    assert!(engine.process(&mut b, &f).unwrap().is_key);
}

#[test]
fn batched_keys_match_serial_executor_bits() {
    let z = zoo::tiny_fasterm(3);
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut sessions: Vec<StreamSession> = (0..3).map(|_| engine.open_session().unwrap()).collect();
    let frames: Vec<GrayImage> = (0..3).map(|i| frame(i * 5)).collect();
    // All three first frames are key frames in one tick.
    let jobs = sessions.iter_mut().zip(frames.iter());
    let results = engine.process_batch(jobs);
    for (f, r) in frames.iter().zip(&results) {
        let r = r.frame().unwrap();
        assert!(r.is_key);
        let mut serial = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let want = serial.process(f);
        assert_eq!(r.output.as_slice(), want.output.as_slice());
        assert_eq!(r.compression, want.compression);
        assert_eq!(r.macs_executed, want.macs_executed);
    }
}

#[test]
fn mixed_batch_handles_keys_and_predicted() {
    let net = Arc::new(zoo::tiny_fasterm(1).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    let f0 = frame(0);
    engine.process(&mut a, &f0).unwrap(); // a has key state
    let results = engine.process_batch([(&mut a, &f0), (&mut b, &f0)]);
    assert!(
        !results[0].frame().unwrap().is_key,
        "a predicts its unchanged scene"
    );
    assert!(results[1].frame().unwrap().is_key, "b's first frame is key");
    assert_eq!(a.stats().key_frames, 1);
    assert_eq!(b.stats().key_frames, 1);
}

#[test]
fn empty_batch_is_fine() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    assert!(engine.process_batch([]).is_empty());
}

#[test]
fn per_session_configs_may_differ_but_target_must_match() {
    let net = Arc::new(zoo::tiny_faster16(0).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let memo = AmcConfig {
        warp: WarpMode::Memoize,
        policy: PolicyConfig::StaticRate { period: 2 },
        ..Default::default()
    };
    assert!(engine.open_session_with(memo).is_ok());
    let early = AmcConfig {
        target: TargetSelection::Early,
        ..Default::default()
    };
    match engine.open_session_with(early) {
        Err(AmcError::SessionTargetMismatch {
            engine: e,
            session: s,
        }) => {
            assert_ne!(e, s);
        }
        other => panic!("expected SessionTargetMismatch, got {other:?}"),
    }
}

#[test]
fn cross_engine_session_use_is_a_typed_error() {
    // Two engines over different weights can resolve the same target
    // index; silently mixing their sessions would run one engine's key
    // state against the other's network.
    let mut a = Engine::new(Arc::new(zoo::tiny_fasterm(0).network), AmcConfig::default()).unwrap();
    let mut b = Engine::new(Arc::new(zoo::tiny_fasterm(1).network), AmcConfig::default()).unwrap();
    let mut session = a.open_session().unwrap();
    let f = frame(0);
    match b.process(&mut session, &f) {
        FrameOutcome::Rejected(AmcError::EngineMismatch { session: id }) => {
            assert_eq!(id, session.id())
        }
        other => panic!("expected EngineMismatch, got {other:?}"),
    }
    assert_eq!(
        session.stats().frames,
        0,
        "a rejected submission must not touch the session"
    );
    // The session still works with its own engine.
    assert!(a.process(&mut session, &f).unwrap().is_key);
    // evict_session refuses foreign sessions too.
    assert!(matches!(
        b.evict_session(&mut session),
        Err(AmcError::EngineMismatch { .. })
    ));
}

#[test]
fn engine_rejects_invalid_config() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let bad = AmcConfig {
        target: TargetSelection::Index(99),
        ..Default::default()
    };
    assert!(matches!(
        Engine::new(net, bad),
        Err(AmcError::TargetOutsidePrefix { index: 99, .. })
    ));
}

#[test]
fn engine_rejects_invalid_limits() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let bad = EngineLimits {
        max_sessions: 0,
        ..EngineLimits::unlimited()
    };
    assert!(matches!(
        Engine::with_limits(net, AmcConfig::default(), bad),
        Err(AmcError::InvalidConfig { .. })
    ));
}

#[test]
fn session_cap_refuses_then_frees_on_drop() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits {
        max_sessions: 2,
        ..EngineLimits::unlimited()
    };
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let a = engine.open_session().unwrap();
    let _b = engine.open_session().unwrap();
    match engine.open_session() {
        Err(AmcError::EngineAtCapacity { limit: 2 }) => {}
        other => panic!("expected EngineAtCapacity, got {other:?}"),
    }
    assert_eq!(engine.session_count(), 2);
    drop(a);
    // The dropped session's slot is reclaimed with no unregister call.
    let _c = engine.open_session().unwrap();
    assert_eq!(engine.session_count(), 2);
}

#[test]
fn frame_budget_sheds_without_corrupting_sessions() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits {
        max_frames_per_tick: 1,
        ..EngineLimits::unlimited()
    };
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    let f = frame(0);
    let results = engine.process_batch([(&mut a, &f), (&mut b, &f)]);
    assert!(results[0].frame().unwrap().is_key);
    match &results[1] {
        FrameOutcome::Shed(AmcError::BudgetExceeded {
            what: "frames per tick",
            budget: 1,
        }) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The shed frame left b untouched; next tick it runs identically.
    assert_eq!(b.stats().frames, 0);
    assert!(engine.process(&mut b, &f).unwrap().is_key);
    assert_eq!(b.stats().frames, 1);
}

#[test]
fn key_budget_sheds_keys_but_admits_predicted() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits {
        max_key_frames_per_tick: 1,
        ..EngineLimits::unlimited()
    };
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    let mut c = engine.open_session().unwrap();
    let f = frame(0);
    engine.process(&mut a, &f).unwrap(); // a has key state → predicts
                                         // b and c both need key frames; only one fits the tick.
    let results = engine.process_batch([(&mut b, &f), (&mut a, &f), (&mut c, &f)]);
    assert!(results[0].frame().unwrap().is_key, "b takes the key slot");
    assert!(
        !results[1].frame().unwrap().is_key,
        "a's predicted frame is not shed by the key budget"
    );
    match &results[2] {
        FrameOutcome::Shed(AmcError::BudgetExceeded {
            what: "key frames per tick",
            budget: 1,
        }) => {}
        other => panic!("expected key-budget shedding, got {other:?}"),
    }
    assert_eq!(c.stats().frames, 0);
    assert!(c.key_image().is_none(), "shed key frame stored no state");
    // Next tick c's key frame is admitted.
    assert!(engine.process(&mut c, &f).unwrap().is_key);
}

#[test]
fn geometry_mismatch_is_a_typed_error() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut session = engine.open_session().unwrap();
    engine.process(&mut session, &frame(0)).unwrap();
    let small = GrayImage::from_fn(32, 32, |y, x| ((y * 5 + x) % 251) as u8);
    match engine.process(&mut session, &small) {
        FrameOutcome::Rejected(AmcError::FrameGeometryMismatch {
            expected_height: 48,
            expected_width: 48,
            got_height: 32,
            got_width: 32,
        }) => {}
        other => panic!("expected FrameGeometryMismatch, got {other:?}"),
    }
    assert_eq!(session.stats().frames, 1, "rejected frame not counted");
    // The geometry is the *network's*, not the stored key frame's:
    // even after a reset the off-shape frame stays rejected, and the
    // stream resumes normally at the right resolution.
    session.reset();
    assert!(engine.process(&mut session, &small).error().is_some());
    assert!(engine.process(&mut session, &frame(1)).unwrap().is_key);
}

#[test]
fn off_geometry_job_is_shed_without_disturbing_the_batch() {
    let net = Arc::new(zoo::tiny_fasterm(2).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    let good = frame(0);
    let small = GrayImage::from_fn(40, 40, |y, x| ((y * 3 + x * 7) % 200) as u8);
    // A wrong-resolution *first* frame is caught before any CNN work
    // (the check is against the network, not yet-nonexistent state),
    // and the healthy job in the same batch is untouched.
    let results = engine.process_batch([(&mut a, &good), (&mut b, &small)]);
    assert!(results[0].frame().unwrap().is_key);
    assert!(matches!(
        results[1],
        FrameOutcome::Rejected(AmcError::FrameGeometryMismatch {
            expected_height: 48,
            expected_width: 48,
            got_height: 40,
            got_width: 40,
        })
    ));
    assert_eq!(a.stats().frames, 1);
    assert_eq!(b.stats().frames, 0, "shed job left no trace");
    // The shed stream is still serviceable.
    assert!(engine.process(&mut b, &good).unwrap().is_key);
}

#[test]
fn evict_session_revokes_admission() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits {
        max_sessions: 1,
        ..EngineLimits::unlimited()
    };
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let mut a = engine.open_session().unwrap();
    let f = frame(0);
    engine.process(&mut a, &f).unwrap();
    engine.evict_session(&mut a).unwrap();
    assert!(a.is_evicted());
    assert!(a.key_image().is_none());
    match engine.process(&mut a, &f) {
        FrameOutcome::Rejected(AmcError::SessionEvicted { session }) => {
            assert_eq!(session, a.id())
        }
        other => panic!("expected SessionEvicted, got {other:?}"),
    }
    // The retired session no longer counts toward the cap.
    assert_eq!(engine.session_count(), 0);
    let _b = engine.open_session().unwrap();
}

#[test]
fn evict_session_counts_each_retirement_once() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut a = engine.open_session().unwrap();
    engine.process(&mut a, &frame(0)).unwrap();
    engine.evict_session(&mut a).unwrap();
    engine.evict_session(&mut a).unwrap();
    assert!(a.is_evicted());
    assert_eq!(
        engine.health().evicted_sessions,
        1,
        "a repeat eviction is not a second retirement"
    );
    assert_eq!(a.stats().evictions, 1);
}

#[test]
fn soft_eviction_rehydrates_bit_identically() {
    let net = Arc::new(zoo::tiny_fasterm(4).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut evicted = engine.open_session().unwrap();
    for i in 0..3 {
        engine.process(&mut evicted, &frame(i)).unwrap();
    }
    assert!(evicted.evict_state());
    assert_eq!(evicted.stats().evictions, 1);
    let stats_before = evicted.stats();
    // A fresh session replaying the post-eviction frames must match
    // the rehydrated session bit for bit.
    let mut fresh = engine.open_session().unwrap();
    for i in 3..6 {
        let r_old = engine.process(&mut evicted, &frame(i)).unwrap();
        let r_new = engine.process(&mut fresh, &frame(i)).unwrap();
        assert_eq!(r_old.is_key, r_new.is_key);
        assert_eq!(r_old.output.as_slice(), r_new.output.as_slice());
        assert_eq!(r_old.macs_executed, r_new.macs_executed);
        if i == 3 {
            assert!(r_old.is_key, "rehydration forces a key frame");
        }
    }
    // Stats advanced by exactly the fresh session's totals.
    let delta_frames = evicted.stats().frames - stats_before.frames;
    let delta_macs = evicted.stats().macs - stats_before.macs;
    assert_eq!(delta_frames, fresh.stats().frames);
    assert_eq!(delta_macs, fresh.stats().macs);
}

#[test]
fn maintain_evicts_idle_then_lru() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits {
        idle_evict_ticks: 2,
        ..EngineLimits::unlimited()
    };
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let mut idle = engine.open_session().unwrap();
    let mut busy = engine.open_session().unwrap();
    let f = frame(0);
    engine.process(&mut idle, &f).unwrap();
    for i in 0..3 {
        engine.process(&mut busy, &frame(i)).unwrap();
    }
    // idle last ran at tick 1; current tick is 4 → idle for 3 ≥ 2.
    assert_eq!(engine.maintain([&mut idle, &mut busy]), 1);
    assert!(idle.key_image().is_none(), "idle session evicted");
    assert!(busy.key_image().is_some(), "busy session retained");
    // Engine-wide budget: force LRU eviction of the remaining state.
    let mut tight = Engine::with_limits(
        Arc::new(zoo::tiny_fasterm(0).network),
        AmcConfig::default(),
        EngineLimits {
            max_total_bytes: 1,
            ..EngineLimits::unlimited()
        },
    )
    .unwrap();
    let mut s = tight.open_session().unwrap();
    tight.process(&mut s, &f).unwrap();
    assert!(tight.total_session_bytes() > 1);
    assert_eq!(tight.maintain([&mut s]), 1);
    assert!(s.key_image().is_none());
}

#[test]
fn memory_footprint_audits_all_parts() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    // A policy that always predicts once keyed, so the second frame
    // runs RFBME and the warp.
    let config = AmcConfig {
        policy: PolicyConfig::BlockError {
            threshold: f32::INFINITY,
            max_gap: 1000,
        },
        ..Default::default()
    };
    let mut engine = Engine::new(net, config).unwrap();
    let mut session = engine.open_session().unwrap();
    let empty = session.memory_footprint();
    assert!(empty >= std::mem::size_of::<SessionCore>());
    engine.process(&mut session, &frame(0)).unwrap();
    let keyed = session.memory_footprint();
    assert!(keyed > empty, "key state must be audited");
    assert!(!engine.process(&mut session, &frame(1)).unwrap().is_key);
    // The audit is exactly struct + key-state buffers. The RFBME
    // scratch is the engine's, one per worker, so a predicted frame
    // grows nothing in the session.
    let core = &session.core;
    let want =
        std::mem::size_of::<SessionCore>() + core.state.as_ref().map_or(0, KeyState::heap_bytes);
    assert_eq!(session.memory_footprint(), want);
    assert_eq!(session.memory_footprint(), keyed);
    assert!(engine.motion_scratches[0].heap_bytes() > 0);
    assert_eq!(engine.total_session_bytes(), session.memory_footprint());
    // Eviction returns the session to (at most) its opening footprint.
    session.evict_state();
    assert!(session.memory_footprint() <= empty);
}

#[test]
fn limits_builder_validates_like_amc_config() {
    let limits = EngineLimits::builder()
        .max_sessions(8)
        .max_frames_per_tick(4)
        .max_key_frames_per_tick(2)
        .worker_threads(3)
        .build()
        .unwrap();
    assert_eq!(limits.max_sessions, 8);
    assert_eq!(limits.worker_threads, 3);
    assert_eq!(
        limits.max_total_bytes,
        usize::MAX,
        "unset knobs stay unlimited"
    );
    for bad in [
        EngineLimits::builder().worker_threads(0).build(),
        EngineLimits::builder().max_sessions(0).build(),
        EngineLimits::builder().idle_evict_ticks(0).build(),
    ] {
        assert!(matches!(bad, Err(AmcError::InvalidConfig { .. })));
    }
}

#[test]
fn stats_deltas_partition_the_session_totals() {
    let net = Arc::new(zoo::tiny_fasterm(2).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let mut session = engine.open_session().unwrap();
    let mut summed = ExecStats::default();
    for i in 0..5 {
        let delta = engine
            .process(&mut session, &frame(i))
            .stats_delta()
            .expect("served");
        assert_eq!(delta.frames, 1, "each outcome is exactly one frame's delta");
        summed.frames += delta.frames;
        summed.key_frames += delta.key_frames;
        summed.macs += delta.macs;
        summed.rfbme_ops += delta.rfbme_ops;
    }
    let totals = session.stats();
    assert_eq!(summed.frames, totals.frames);
    assert_eq!(summed.key_frames, totals.key_frames);
    assert_eq!(summed.macs, totals.macs);
    assert_eq!(summed.rfbme_ops, totals.rfbme_ops);
}

#[test]
fn multi_worker_batches_match_single_worker_bits() {
    // Forced worker counts (whatever the host's core count): the fanned
    // out engine must serve the same bits as the inline engine for a
    // batch mixing key and predicted frames.
    let mk = |workers: usize| {
        let net = Arc::new(zoo::tiny_fasterm(6).network);
        let limits = EngineLimits::builder()
            .worker_threads(workers)
            .build()
            .unwrap();
        Engine::with_limits(net, AmcConfig::default(), limits).unwrap()
    };
    let mut one = mk(1);
    let mut four = mk(4);
    let mut s1: Vec<StreamSession> = (0..5).map(|_| one.open_session().unwrap()).collect();
    let mut s4: Vec<StreamSession> = (0..5).map(|_| four.open_session().unwrap()).collect();
    for t in 0..6 {
        // Stagger content so streams disagree about key vs predicted
        // (stream s cuts sharply at t == s + 1 via a shifted pattern).
        let frames: Vec<GrayImage> = (0..5)
            .map(|s| frame(t + if t == s + 1 { 40 } else { s }))
            .collect();
        let r1 = one.process_batch(s1.iter_mut().zip(frames.iter()));
        let r4 = four.process_batch(s4.iter_mut().zip(frames.iter()));
        assert_eq!(r1.len(), r4.len());
        for (a, b) in r1.iter().zip(&r4) {
            assert_eq!(a.is_key(), b.is_key());
            let (fa, fb) = (a.frame().unwrap(), b.frame().unwrap());
            assert_eq!(fa.output.as_slice(), fb.output.as_slice());
            assert_eq!(fa.macs_executed, fb.macs_executed);
            assert_eq!(fa.rfbme_ops, fb.rfbme_ops);
            assert_eq!(a.stats_delta(), b.stats_delta());
        }
    }
    for (a, b) in s1.iter().zip(&s4) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.memory_footprint(), b.memory_footprint());
    }
}

#[test]
fn fan_out_partitions_all_items_round_robin() {
    // Every item is visited exactly once and lands in its own slot,
    // for worker counts below, at, and above the item count.
    for workers in [1usize, 2, 3, 8] {
        let mut states: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
        let mut out = [0usize; 7];
        let items: Vec<(usize, &mut usize)> = out.iter_mut().enumerate().collect();
        fan_out(&mut states, items, |seen, (i, slot)| {
            seen.push(i);
            *slot = i + 1;
        });
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }
}

/// Silences the default panic hook for injected chaos panics (their
/// payloads start with `"chaos:"` by contract) so contained-panic tests
/// don't spray backtrace noise; real panics still print.
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

/// Test injector: panic every time `session` reaches `phase`.
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

fn engine_with_workers(seed: u64, workers: usize) -> Engine {
    let net = Arc::new(zoo::tiny_fasterm(seed).network);
    let limits = EngineLimits::builder()
        .worker_threads(workers)
        .build()
        .unwrap();
    Engine::with_limits(net, AmcConfig::default(), limits).unwrap()
}

fn assert_same_bits(a: &FrameOutcome, b: &FrameOutcome) {
    let (fa, fb) = (a.frame().unwrap(), b.frame().unwrap());
    assert_eq!(fa.is_key, fb.is_key);
    assert_eq!(fa.output.as_slice(), fb.output.as_slice());
    assert_eq!(fa.macs_executed, fb.macs_executed);
    assert_eq!(fa.rfbme_ops, fb.rfbme_ops);
}

#[test]
fn contained_panic_quarantines_only_the_owner() {
    quiet_chaos_panics();
    for workers in [1usize, 3] {
        let mut engine = engine_with_workers(2, workers);
        let mut oracle = engine_with_workers(2, workers);
        let mut a = engine.open_session().unwrap();
        let mut b = engine.open_session().unwrap();
        let mut b_oracle = oracle.open_session().unwrap();
        engine.process(&mut a, &frame(0)).unwrap();
        engine.set_failure_injector(Arc::new(PanicOn {
            phase: EnginePhase::Complete,
            session: a.id(),
        }));
        for t in 1..4 {
            let f = frame(t);
            let results = engine.process_batch([(&mut a, &f), (&mut b, &f)]);
            match (t, &results[0]) {
                // The panic costs exactly a's frame, once...
                (1, FrameOutcome::Rejected(AmcError::WorkerPanicked { phase, .. })) => {
                    assert_eq!(*phase, "complete");
                }
                // ...and afterwards a is refused at screening, even
                // though the injector still targets it.
                (_, FrameOutcome::Rejected(AmcError::SessionPoisoned { session })) => {
                    assert_eq!(*session, a.id());
                }
                (t, other) => panic!("tick {t}: expected containment, got {other:?}"),
            }
            assert!(a.is_quarantined());
            // b serves bit-identically to an engine a never touched.
            let want = oracle.process(&mut b_oracle, &f);
            assert_same_bits(&results[1], &want);
        }
        assert_eq!(b.stats(), b_oracle.stats());
        let health = engine.health();
        assert_eq!(health.panics_caught, 1);
        assert_eq!(health.quarantines, 1);
        assert_eq!(health.quarantined_sessions, 1);
        // Recovery: evicting the suspect state ends the quarantine and
        // rehydrates through the no-state key seam, bit-identical to a
        // fresh session.
        engine.clear_failure_injector();
        a.evict_state();
        assert!(!a.is_quarantined());
        assert_eq!(engine.health().quarantined_sessions, 0);
        let mut fresh = engine.open_session().unwrap();
        for t in 4..7 {
            let f = frame(t);
            let got = engine.process(&mut a, &f);
            let want = engine.process(&mut fresh, &f);
            assert_same_bits(&got, &want);
        }
    }
}

#[test]
fn estimate_phase_panic_is_contained_per_frame() {
    quiet_chaos_panics();
    for workers in [1usize, 3] {
        let mut engine = engine_with_workers(1, workers);
        let mut s = engine.open_session().unwrap();
        engine.process(&mut s, &frame(0)).unwrap();
        let frames_before = s.stats().frames;
        engine.set_failure_injector(Arc::new(PanicOn {
            phase: EnginePhase::Estimate,
            session: s.id(),
        }));
        // The estimate phase runs ahead of the admission walk at every
        // worker count; a panic in it is contained like any other.
        match engine.process(&mut s, &frame(1)) {
            FrameOutcome::Rejected(AmcError::WorkerPanicked { phase, .. }) => {
                assert_eq!(phase, "estimate");
            }
            other => panic!("expected a contained estimate panic, got {other:?}"),
        }
        assert!(s.is_quarantined());
        assert_eq!(
            s.stats().frames,
            frames_before,
            "a pre-commit panic leaves the frame counters untouched"
        );
    }
}

/// Test injector: counts `Estimate` consultations.
#[derive(Default)]
struct CountEstimates(AtomicUsize);

impl FailureInjector for CountEstimates {
    fn action(&self, phase: EnginePhase, _tick: u64, _session: u64) -> FailureAction {
        self.0
            .fetch_add(usize::from(phase == EnginePhase::Estimate), Relaxed);
        FailureAction::None
    }
}

#[test]
fn speculative_estimates_stay_within_the_frame_budget() {
    for workers in [1usize, 3] {
        let net = Arc::new(zoo::tiny_fasterm(5).network);
        let limits = EngineLimits::builder()
            .worker_threads(workers)
            .max_frames_per_tick(2)
            .build()
            .unwrap();
        let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
        let mut sessions: Vec<StreamSession> =
            (0..6).map(|_| engine.open_session().unwrap()).collect();
        let f = frame(0);
        for session in &mut sessions {
            engine.process(session, &f).unwrap(); // key state everywhere
        }
        let counter = Arc::new(CountEstimates::default());
        engine.set_failure_injector(Arc::clone(&counter) as Arc<dyn FailureInjector>);
        let results = engine.process_batch(sessions.iter_mut().map(|s| (s, &f)));
        let served = results.iter().filter(|r| r.is_served()).count();
        assert_eq!(
            (counter.0.load(Relaxed), served),
            (2, 2),
            "{workers} workers: estimates and served frames"
        );
    }
}

#[test]
fn prefix_phase_panic_quarantines_the_key_frame_owner() {
    quiet_chaos_panics();
    for workers in [1usize, 3] {
        let mut engine = engine_with_workers(3, workers);
        let mut a = engine.open_session().unwrap();
        let mut b = engine.open_session().unwrap();
        engine.set_failure_injector(Arc::new(PanicOn {
            phase: EnginePhase::Prefix,
            session: a.id(),
        }));
        // Both first frames are key frames; only a's job panics in its
        // prefix, b's key frame completes normally.
        let f = frame(0);
        let results = engine.process_batch([(&mut a, &f), (&mut b, &f)]);
        match &results[0] {
            FrameOutcome::Rejected(AmcError::WorkerPanicked { phase, .. }) => {
                assert_eq!(*phase, "prefix");
            }
            other => panic!("expected a contained prefix panic, got {other:?}"),
        }
        assert!(a.is_quarantined());
        assert!(results[1].frame().unwrap().is_key);
        assert!(!b.is_quarantined());
    }
}

/// A pass-through prefix layer (kernel 1, stride 1) that really panics —
/// no injector involved — when pixel (0, 0) of its input is white.
#[derive(Debug, Clone)]
struct PanicOnWhiteCorner;

impl Layer for PanicOnWhiteCorner {
    fn name(&self) -> &str {
        "panic_on_white_corner"
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        input
    }

    fn forward(&self, input: &Tensor3) -> Tensor3 {
        // Frames enter through `GrayImage::to_tensor`: 255 maps to 1.0.
        // The `chaos:` prefix only keeps the test's panic hook quiet.
        assert!(input.get(0, 0, 0) < 1.0, "chaos: white corner pixel");
        input.clone()
    }

    fn backward(&mut self, _input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        grad_out.clone()
    }

    fn apply_grads(&mut self, _lr: f32, _batch: usize) {}

    fn geometry(&self) -> Option<LayerGeometry> {
        Some(LayerGeometry::IDENTITY)
    }

    fn macs(&self, _input: Shape3) -> u64 {
        0
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[test]
fn real_prefix_panic_costs_only_its_own_key_frame() {
    quiet_chaos_panics();
    let zoo_net = zoo::tiny_fasterm(3).network;
    let mut net = Network::new("panic_on_white_corner", zoo_net.input_shape());
    net.push(Box::new(PanicOnWhiteCorner));
    for layer in zoo_net.layers() {
        net.push(layer.clone());
    }
    // The opaque test layer is outside the verified envelope.
    let config = AmcConfig::builder().allow_unverified().build().unwrap();
    let clean = frame(0);
    let mut marked = frame(5);
    marked.set(0, 0, 255);
    let want = AmcExecutor::try_new(&net, config).unwrap().process(&clean);
    let net = Arc::new(net);
    for workers in [1usize, 3] {
        let limits = EngineLimits::builder()
            .worker_threads(workers)
            .build()
            .unwrap();
        let mut engine = Engine::with_limits(Arc::clone(&net), config, limits).unwrap();
        let mut a = engine.open_session().unwrap();
        let mut b = engine.open_session().unwrap();
        // Both first frames are key frames in one tick; only b's prefix
        // panics.
        let results = engine.process_batch([(&mut a, &clean), (&mut b, &marked)]);
        let got = results[0].frame().expect("a's key frame is served");
        assert!(got.is_key);
        assert_eq!(got.output.as_slice(), want.output.as_slice());
        assert_eq!(got.compression, want.compression);
        assert_eq!(got.macs_executed, want.macs_executed);
        assert!(!a.is_quarantined());
        match &results[1] {
            FrameOutcome::Rejected(AmcError::WorkerPanicked { phase, .. }) => {
                assert_eq!(*phase, "prefix", "{workers} workers");
            }
            other => panic!("{workers} workers: expected a contained prefix panic, got {other:?}"),
        }
        assert!(b.is_quarantined());
        let health = engine.health();
        assert_eq!((health.panics_caught, health.quarantines), (1, 1));
    }
}

/// Delay injector: stall `session`'s estimate through the tick clock.
struct DelayOn {
    session: u64,
    ms: u64,
}

impl FailureInjector for DelayOn {
    fn action(&self, phase: EnginePhase, _tick: u64, session: u64) -> FailureAction {
        if phase == EnginePhase::Estimate && session == self.session {
            FailureAction::Delay { ms: self.ms }
        } else {
            FailureAction::None
        }
    }
}

#[test]
fn tick_deadline_sheds_keys_but_serves_predicted() {
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits::builder().tick_deadline_ms(5).build().unwrap();
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
    let clock = Arc::new(FakeClock::new());
    engine.set_tick_clock(Arc::clone(&clock) as Arc<dyn TickClock>);
    let mut a = engine.open_session().unwrap();
    let mut b = engine.open_session().unwrap();
    engine.process(&mut a, &frame(0)).unwrap(); // a has key state
    assert_eq!(engine.health().deadline_overruns, 0);
    // a's estimate stalls 10 ms > the 5 ms budget; b's key-frame
    // upgrade behind it is shed with zero trace, while a's own
    // (already admitted) predicted frame still completes.
    engine.set_failure_injector(Arc::new(DelayOn {
        session: a.id(),
        ms: 10,
    }));
    let f = frame(1);
    let results = engine.process_batch([(&mut a, &f), (&mut b, &f)]);
    assert!(
        !results[0].frame().unwrap().is_key,
        "the overrun tick still serves its predicted frame"
    );
    match &results[1] {
        FrameOutcome::Shed(AmcError::BudgetExceeded {
            what: "tick deadline",
            budget: 5,
        }) => {}
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    assert_eq!(b.stats().frames, 0, "a deadline shed leaves no trace");
    let health = engine.health();
    assert_eq!(health.deadline_overruns, 1);
    assert_eq!(health.deadline_sheds, 1);
    assert_eq!(health.budget_sheds, 0);
    // Next tick starts a fresh budget: b's key frame is admitted.
    engine.clear_failure_injector();
    assert!(engine.process(&mut b, &f).unwrap().is_key);
    assert_eq!(engine.health().deadline_overruns, 1);
}

#[test]
fn health_snapshot_tracks_ticks_serves_and_percentiles() {
    let net = Arc::new(zoo::tiny_fasterm(4).network);
    let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
    let clock = Arc::new(FakeClock::new());
    engine.set_tick_clock(Arc::clone(&clock) as Arc<dyn TickClock>);
    assert_eq!(engine.health(), EngineHealth::default());
    let mut s = engine.open_session().unwrap();
    for t in 0..4 {
        engine.process(&mut s, &frame(t)).unwrap();
        clock.advance_us(100); // between ticks: not counted as duration
    }
    let health = engine.health();
    assert_eq!(health.ticks, 4);
    assert_eq!(health.frames_served, 4);
    assert_eq!(health.panics_caught, 0);
    assert_eq!(
        (health.tick_p50_us, health.tick_p99_us),
        (0, 0),
        "a fake clock static within ticks measures zero-length ticks"
    );
    // Eviction bookkeeping: engine-driven evictions are counted.
    engine.evict_session(&mut s).unwrap();
    assert_eq!(engine.health().evicted_sessions, 1);
}

#[test]
fn seeded_chaos_is_pure_and_seed_sensitive() {
    let chaos = SeededChaos::new(7);
    let mut panics = 0usize;
    let mut delays = 0usize;
    for tick in 0..50u64 {
        for session in 0..20u64 {
            for phase in [
                EnginePhase::Estimate,
                EnginePhase::Admit,
                EnginePhase::Prefix,
                EnginePhase::Complete,
            ] {
                let action = chaos.action(phase, tick, session);
                assert_eq!(
                    action,
                    chaos.action(phase, tick, session),
                    "pure in (phase, tick, session)"
                );
                match action {
                    FailureAction::Panic => panics += 1,
                    FailureAction::Delay { .. } => delays += 1,
                    FailureAction::None => {}
                }
            }
        }
    }
    // 4000 rolls at 6% / 4% nominal rates: generous bounds, no flake.
    assert!((100..500).contains(&panics), "panic rolls: {panics}");
    assert!((60..400).contains(&delays), "delay rolls: {delays}");
    let other = SeededChaos::new(8);
    assert!(
        (0..1000u64)
            .any(|t| chaos.action(EnginePhase::Admit, t, 0)
                != other.action(EnginePhase::Admit, t, 0)),
        "different seeds must disagree somewhere"
    );
}

#[test]
fn clocks_behave() {
    let fake = FakeClock::new();
    assert_eq!(fake.now_us(), 0);
    fake.advance_ms(2);
    assert_eq!(fake.now_us(), 2000);
    fake.sleep_us(500); // a fake sleep advances instead of blocking
    assert_eq!(fake.now_us(), 2500);
    let wall = MonotonicClock::new();
    let a = wall.now_us();
    assert!(wall.now_us() >= a, "monotonic never goes backwards");
}

#[test]
fn zero_tick_deadline_is_rejected() {
    assert!(matches!(
        EngineLimits::builder().tick_deadline_ms(0).build(),
        Err(AmcError::InvalidConfig { .. })
    ));
    // u64::MAX (the default) means "no deadline" and is valid.
    let limits = EngineLimits::builder().build().unwrap();
    assert_eq!(limits.tick_deadline_ms, u64::MAX);
}
