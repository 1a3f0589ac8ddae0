//! Serving-lifecycle hardening: admission control, backpressure, memory
//! budgets, eviction/rehydration, and graceful degradation under faults.
//!
//! ```sh
//! cargo run --release --example lifecycle
//! ```
//!
//! A serving process in front of real cameras must keep its promises when
//! the world misbehaves: too many streams, too many frames per tick, a
//! memory ceiling, connections that go idle, and video that arrives
//! dropped, corrupted, resized, or hard-cut. This example walks the
//! `Engine`'s lifecycle knobs through all of it — every submission comes
//! back as a typed `FrameOutcome` (served, shed, or rejected), never a
//! panic, and healthy streams never notice their neighbours' trouble.

use eva2::amc::error::AmcError;
use eva2::amc::executor::AmcConfig;
use eva2::amc::policy::PolicyConfig;
use eva2::amc::serve::{
    Engine, EngineLimits, EnginePhase, FailureAction, FailureInjector, FrameOutcome,
};
use eva2::cnn::zoo;
use eva2::video::faults::{FaultKind, FaultScript, FaultyScene};
use eva2::video::scene::{Scene, SceneConfig};
use std::sync::Arc;

fn main() {
    let workload = zoo::tiny_fasterm(42);
    let net = Arc::new(workload.network);
    let config = AmcConfig::builder()
        // Graceful degradation is the policy's own job: a frame whose
        // residual block-match error exceeds the threshold (this scene's
        // normal motion sits at 3–5 error/px) is keyed instead of warping
        // garbage (§III-C), and the gap re-keys the rest.
        .policy(PolicyConfig::BlockError {
            threshold: 8.0,
            max_gap: 16,
        })
        .build()
        .expect("valid config");
    let limits = EngineLimits::builder()
        .max_sessions(3)
        .max_frames_per_tick(2)
        .build()
        .expect("valid limits");
    let mut engine =
        Engine::with_limits(Arc::clone(&net), config, limits).expect("resolvable target");

    // 1. Admission control: the fourth camera is refused with a typed
    //    error — the engine never oversubscribes itself.
    let mut sessions: Vec<_> = (0..3)
        .map(|_| engine.open_session().expect("within capacity"))
        .collect();
    match engine.open_session() {
        Err(AmcError::EngineAtCapacity { limit }) => {
            println!("admission: 4th session refused (limit {limit})")
        }
        other => panic!("expected EngineAtCapacity, got {other:?}"),
    }

    // 2. Backpressure: three streams submit but the tick budget admits
    //    two; the third is shed with a typed error and *no state change*,
    //    so resubmitting it next tick is safe.
    let scenes: Vec<Scene> = (0..3)
        .map(|s| Scene::new(SceneConfig::detection(48, 48), 7 + s as u64))
        .collect();
    let frames: Vec<_> = scenes.iter().map(|sc| sc.render(0).image).collect();
    let results = engine.process_batch(sessions.iter_mut().zip(frames.iter()));
    let shed = results
        .iter()
        .filter(|r| matches!(r, FrameOutcome::Shed(_)))
        .count();
    println!(
        "backpressure: {} admitted, {shed} shed this tick",
        results.len() - shed
    );

    // 3. Memory accounting and soft eviction: each session's audited
    //    footprint backs the engine's budgets; evicting drops the key
    //    state and the next frame transparently re-keys (bit-identical to
    //    a fresh session from there on).
    let footprint = sessions[0].memory_footprint();
    println!(
        "memory: session 0 holds {footprint} bytes (engine total {})",
        engine.total_session_bytes()
    );
    sessions[0].evict_state();
    println!(
        "eviction: session 0 down to {} bytes; next frame re-keys",
        sessions[0].memory_footprint()
    );
    let r = engine
        .process(&mut sessions[0], &scenes[0].render(1).image)
        .expect("rehydrates");
    println!("rehydration: frame served as key = {}", r.is_key);

    // 4. Fault injection: a deterministic script drops, corrupts,
    //    resizes, and hard-cuts one stream. Every outcome is a correct
    //    frame or a typed error.
    let script = FaultScript::new(
        5,
        vec![
            (2, FaultKind::DropFrame),
            (3, FaultKind::Corrupt { fraction: 0.25 }),
            (5, FaultKind::Downscale),
            (7, FaultKind::SceneCut),
        ],
    );
    let mut faulty = FaultyScene::new(Scene::new(SceneConfig::detection(48, 48), 99), script);
    println!("\nfaulty stream (one frame per tick):");
    for t in 0..10 {
        let event = faulty.next_event();
        let label = match event.fault {
            Some(k) => format!("{k:?}"),
            None => "clean".to_string(),
        };
        let Some(frame) = event.frame else {
            println!("t={t:2}  {label:<28} -> dropped in transport, nothing to submit");
            continue;
        };
        match engine.process(&mut sessions[1], &frame.image) {
            FrameOutcome::Predicted { .. } => {
                println!("t={t:2}  {label:<28} -> served (predicted)")
            }
            FrameOutcome::Key { frame, .. } => match frame.metrics {
                Some(m) => println!(
                    "t={t:2}  {label:<28} -> served (key, residual {:.1}/px)",
                    m.block_error_per_pixel
                ),
                None => println!("t={t:2}  {label:<28} -> served (key)"),
            },
            FrameOutcome::Shed(e) | FrameOutcome::Rejected(e) => {
                println!("t={t:2}  {label:<28} -> typed error: {e}")
            }
        }
    }
    let stats = sessions[1].stats();
    println!(
        "\nstream 1: {} frames, {} keys ({} on the policy's gap, with no search)",
        stats.frames, stats.key_frames, stats.forced_keys
    );

    // 5. Failure containment: a worker panic is caught at the frame
    //    boundary (this frame only), the owning session is quarantined,
    //    and eviction is the recovery path — neighbours never notice, and
    //    the engine's health snapshot keeps score.
    //
    // Injected chaos panics carry a `"chaos:"` payload by contract;
    // silence just those so the walkthrough output stays readable.
    // Containment catches them either way — the hook only controls
    // stderr noise.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos:"));
        if !chaos {
            default_hook(info);
        }
    }));
    struct PanicOn {
        session: u64,
    }
    impl FailureInjector for PanicOn {
        fn action(&self, phase: EnginePhase, _tick: u64, session: u64) -> FailureAction {
            if phase == EnginePhase::Complete && session == self.session {
                FailureAction::Panic
            } else {
                FailureAction::None
            }
        }
    }
    println!("\nfailure containment (stream 2):");
    engine.set_failure_injector(Arc::new(PanicOn {
        session: sessions[2].id(),
    }));
    let clip: Vec<_> = (2..6).map(|t| scenes[2].render(t).image).collect();
    match engine.process(&mut sessions[2], &clip[0]) {
        FrameOutcome::Rejected(AmcError::WorkerPanicked { phase, .. }) => {
            println!("containment: panic in the {phase} phase caught; this frame only")
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    // The panic may have left stream 2's state half-written, so the
    // session is quarantined: every submission refuses with a typed error
    // until the suspect state is dropped.
    match engine.process(&mut sessions[2], &clip[1]) {
        FrameOutcome::Rejected(AmcError::SessionPoisoned { session }) => {
            println!("quarantine: session {session} refuses until evicted")
        }
        other => panic!("expected SessionPoisoned, got {other:?}"),
    }
    // Meanwhile the neighbours serve on, bit-identical to a world where
    // stream 2 never existed.
    let healthy = engine.process(&mut sessions[0], &scenes[0].render(3).image);
    println!(
        "neighbour: stream 0 {} through stream 2's quarantine",
        if healthy.is_served() {
            "served"
        } else {
            "was disturbed"
        }
    );
    // Recovery is eviction: drop the suspect state and the next frame
    // rehydrates as a key frame, bit-identical to a fresh session.
    engine.clear_failure_injector();
    sessions[2].evict_state();
    let recovered = engine
        .process(&mut sessions[2], &clip[2])
        .expect("rehydrates");
    println!(
        "recovery: evicted, rehydrated as key = {}, quarantined = {}",
        recovered.is_key,
        sessions[2].is_quarantined()
    );
    let health = engine.health();
    println!(
        "health: {} ticks, {} frames served, {} panics caught, {} quarantines, p99 tick {}us",
        health.ticks,
        health.frames_served,
        health.panics_caught,
        health.quarantines,
        health.tick_p99_us
    );
}
