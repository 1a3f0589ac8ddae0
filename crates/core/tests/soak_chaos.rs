//! Chaos soak for the serving engine: thousands of load-generator ticks
//! under seeded panic/delay injection, deadline pressure, scripted input
//! corruption, wrong-geometry probes, and forced evictions. Invariants,
//! checked on every tick:
//!
//! 1. The engine never dies: every job resolves to a served frame or a
//!    documented typed error, and the process never aborts.
//! 2. Every served frame is bit-identical to a clean serial oracle fed
//!    exactly the frames the engine actually served for that stream —
//!    contained panics, sheds, and refusals on *other* streams leave no
//!    trace.
//! 3. Quarantine is sticky: a poisoned session keeps refusing with
//!    [`AmcError::SessionPoisoned`] until `evict_state` rehydrates it,
//!    after which it serves bit-identically to a fresh stream.
//! 4. The memory-accounting identity `Engine::total_session_bytes()` ==
//!    Σ `StreamSession::memory_footprint()` holds exactly.
//!
//! Tick count comes from `EVA2_SOAK_TICKS` (CI runs 2000 in release; the
//! local default keeps a debug `cargo test` quick). `EVA2_SERVE_WORKERS`
//! re-runs the whole soak through the threaded engine; outcomes are
//! bit-identical for any worker count, so every assertion holds unchanged.

mod common;

use common::assert_result_eq;
use eva2_cnn::zoo;
use eva2_core::error::AmcError;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::serve::{Engine, EngineLimits, FakeClock, FrameOutcome, SeededChaos, StreamSession};
use eva2_tensor::GrayImage;
use eva2_video::load::{LoadConfig, LoadGenerator};
use std::sync::Arc;

const STREAMS: usize = 6;
const SIDE: usize = 48;

fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Ok(v) => v.parse().expect("env var must be a count"),
        Err(_) => default,
    }
}

/// Silences the default panic hook for injected chaos panics (payloads
/// start with `"chaos:"` by contract) so a soak with thousands of
/// contained unwinds doesn't spray backtraces; real panics still print.
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

#[test]
fn chaos_soak_never_dies_and_survivors_match_the_clean_oracle() {
    quiet_chaos_panics();
    let ticks = env_usize("EVA2_SOAK_TICKS", 150);
    let workers = env_usize("EVA2_SERVE_WORKERS", 1);
    let z = zoo::tiny_fasterm(3);
    let net = Arc::new(zoo::tiny_fasterm(3).network);
    let limits = EngineLimits::builder()
        .worker_threads(workers)
        .tick_deadline_ms(3)
        .build()
        .expect("valid limits");
    let mut engine =
        Engine::with_limits(net, AmcConfig::default(), limits).expect("valid engine config");
    // Deadline pressure without wall-clock flakiness: the fake clock only
    // advances when the injector lands a 2 ms delay, so a tick with two or
    // more delays deterministically overruns the 3 ms deadline.
    engine.set_tick_clock(Arc::new(FakeClock::new()));
    // ~6% of jobs panic and ~4% stall, in every phase, pure in
    // (phase, tick, session) — the whole storm replays bit-identically.
    engine.set_failure_injector(Arc::new(SeededChaos::new(0xC0FF_EE00_5EED)));

    let mut sessions: Vec<StreamSession> = (0..STREAMS)
        .map(|_| engine.open_session().expect("capacity"))
        .collect();
    let fresh_oracle =
        || AmcExecutor::try_new(&z.network, AmcConfig::default()).expect("valid config");
    let mut oracles: Vec<AmcExecutor> = (0..STREAMS).map(|_| fresh_oracle()).collect();
    let mut load = LoadGenerator::new(LoadConfig::new(STREAMS, SIDE, SIDE).with_seed(0xBAD_5EED));
    let wrong_geometry = GrayImage::from_fn(SIDE / 2, SIDE / 2, |y, x| ((x + 3 * y) % 251) as u8);

    let mut poisoned = [false; STREAMS];
    let mut served = 0u64;
    let mut panics = 0u64;
    let mut sticky_refusals = 0u64;
    let mut deadline_sheds = 0u64;
    let mut geometry_rejects = 0u64;

    for t in 0..ticks {
        // Scripted faults on top of the chaos injector: periodic sensor
        // white-out (a legal frame both engine and oracle must agree on)
        // and a forced state eviction of a healthy stream (seek/cut).
        let mut arrivals = load.tick();
        arrivals.sort_by_key(|lf| lf.stream);
        let mut frames: Vec<GrayImage> = arrivals.into_iter().map(|lf| lf.image).collect();
        assert_eq!(frames.len(), STREAMS, "tick {t}: one frame per stream");
        if t % 31 == 17 {
            frames[t % STREAMS] = GrayImage::from_fn(SIDE, SIDE, |_, _| 255);
        }
        if t % 53 == 29 {
            let s = (t / 53) % STREAMS;
            if !poisoned[s] {
                sessions[s].evict_state();
                oracles[s] = fresh_oracle();
            }
        }
        let geo_probe = if t % 97 == 41 {
            Some(t % STREAMS)
        } else {
            None
        };
        let submit: Vec<GrayImage> = (0..STREAMS)
            .map(|s| {
                if geo_probe == Some(s) {
                    wrong_geometry.clone()
                } else {
                    frames[s].clone()
                }
            })
            .collect();

        let results = engine.process_batch(sessions.iter_mut().zip(submit.iter()));
        assert_eq!(results.len(), STREAMS, "tick {t}: one outcome per job");
        for (s, outcome) in results.iter().enumerate() {
            match outcome {
                outcome if outcome.is_served() => {
                    assert!(
                        !poisoned[s],
                        "tick {t}: stream {s} served while quarantined"
                    );
                    let want = oracles[s].process(&submit[s]);
                    assert_result_eq(
                        outcome.frame().expect("served"),
                        &want,
                        &format!("tick {t} stream {s}"),
                    );
                    served += 1;
                }
                FrameOutcome::Rejected(AmcError::WorkerPanicked { .. }) => {
                    assert!(
                        sessions[s].is_quarantined(),
                        "tick {t}: contained panic must quarantine stream {s}"
                    );
                    poisoned[s] = true;
                    panics += 1;
                }
                FrameOutcome::Rejected(AmcError::SessionPoisoned { session }) => {
                    assert!(
                        poisoned[s],
                        "tick {t}: SessionPoisoned without a prior contained panic"
                    );
                    assert_eq!(*session, sessions[s].id(), "tick {t}: wrong session id");
                    sticky_refusals += 1;
                    // Quarantine exit: drop the suspect state; the stream
                    // rehydrates through a forced key frame, so its oracle
                    // restarts fresh too.
                    sessions[s].evict_state();
                    assert!(!sessions[s].is_quarantined());
                    poisoned[s] = false;
                    oracles[s] = fresh_oracle();
                }
                FrameOutcome::Rejected(AmcError::FrameGeometryMismatch { .. }) => {
                    assert_eq!(
                        geo_probe,
                        Some(s),
                        "tick {t}: geometry refusal without a probe"
                    );
                    geometry_rejects += 1;
                }
                FrameOutcome::Shed(AmcError::BudgetExceeded {
                    what: "tick deadline",
                    ..
                }) => {
                    deadline_sheds += 1;
                }
                other => panic!("tick {t} stream {s}: undocumented outcome {other:?}"),
            }
        }
        assert_eq!(
            engine.total_session_bytes(),
            sessions
                .iter()
                .map(StreamSession::memory_footprint)
                .sum::<usize>(),
            "tick {t}: memory-accounting identity broke"
        );
    }

    // The storm actually happened, and the health ledger agrees with what
    // the outcomes said.
    let health = engine.health();
    assert_eq!(health.ticks, ticks as u64);
    assert_eq!(health.frames_served, served);
    assert_eq!(health.panics_caught, panics);
    assert_eq!(health.deadline_sheds, deadline_sheds);
    assert!(panics > 0, "chaos injector never landed a panic");
    assert!(
        sticky_refusals > 0,
        "no quarantine survived to the next tick"
    );
    assert!(
        served > ticks as u64,
        "the engine barely served under chaos"
    );
    if ticks >= 150 {
        assert!(
            health.deadline_overruns > 0,
            "injected delays never overran the tick deadline"
        );
        assert!(geometry_rejects > 0, "geometry probes never fired");
    }

    // The engine is still alive and clean after the storm: clear the
    // chaos, rehydrate everything, and every stream must serve again.
    engine.clear_failure_injector();
    for (s, session) in sessions.iter_mut().enumerate() {
        session.evict_state();
        let frame = GrayImage::from_fn(SIDE, SIDE, |y, x| ((x * y + s) % 256) as u8);
        let outcome = engine.process(session, &frame);
        assert!(
            outcome.is_served(),
            "stream {s} failed to recover after the storm: {outcome:?}"
        );
    }
}
