//! Multi-stream serving: one `Engine`, many camera sessions, one tick per
//! round of frames.
//!
//! ```sh
//! cargo run --release --example multi_stream
//! ```
//!
//! Simulates a serving process fed by several independent synthetic video
//! streams. Each stream is a `StreamSession` with its own key-frame state,
//! policy, and statistics; every simulation tick submits one frame per
//! stream through `Engine::process_batch`, which classifies each frame
//! with its own session's RFBME + policy and then completes each frame, a
//! key frame running its own CNN prefix first. Outputs are bit-identical
//! to running each stream through its own serial `AmcExecutor` — sharing
//! a tick is invisible except in wall-clock time.

use eva2::amc::executor::AmcConfig;
use eva2::amc::serve::{Engine, EngineLimits, FrameOutcome};
use eva2::cnn::zoo;
use eva2::video::scene::{Scene, SceneConfig};
use std::sync::Arc;

const STREAMS: usize = 4;
const TICKS: usize = 24;

fn main() {
    // 1. One network serves every stream; the engine owns it (Arc) plus
    //    the per-worker convolution scratch.
    let workload = zoo::tiny_fasterm(42);
    let net = Arc::new(workload.network);
    let config = AmcConfig::builder().build().expect("defaults are valid");
    // Fan each tick out over a small worker pool (per-stream RFBME and
    // completion, key prefixes included, run stream-per-worker) — outputs
    // are bit-identical to worker_threads: 1.
    let limits = EngineLimits::builder()
        .worker_threads(2)
        .build()
        .expect("limits are valid");
    let mut engine =
        Engine::with_limits(Arc::clone(&net), config, limits).expect("resolvable target layer");
    println!(
        "engine: target layer {} (receptive field {:?}), {} worker threads",
        engine.target(),
        engine.rf_geometry(),
        engine.limits().worker_threads
    );

    // 2. One synthetic scene per stream, each with different content and
    //    motion. Streams *join* at different ticks (cameras come online
    //    independently), so their key-frame schedules decorrelate — some
    //    ticks mix key and predicted frames, and several hold more than
    //    one key frame.
    let mut scenes: Vec<Scene> = (0..STREAMS)
        .map(|s| Scene::new(SceneConfig::detection(48, 48), 7 + s as u64 * 13))
        .collect();
    let mut sessions: Vec<_> = (0..STREAMS)
        .map(|_| engine.open_session().expect("engine has capacity"))
        .collect();
    // Cameras come online in pairs: coinciding joins show multi-key
    // ticks, staggered pairs show mixed ticks.
    let join_tick = |s: usize| (s / 2) * 5;

    // 3. Serve: every tick, each live stream submits its next frame in one
    //    `process_batch` call.
    println!("\ntick  per-stream frame kinds (K = key, . = predicted, ' ' = not joined)");
    for t in 0..TICKS {
        let mut frames = Vec::new();
        let mut live = Vec::new();
        for (s, scene) in scenes.iter_mut().enumerate() {
            if t >= join_tick(s) {
                frames.push(scene.render_clip(1).frames.remove(0).image);
                live.push(s);
            }
        }
        let jobs = sessions
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| live.contains(s))
            .map(|(_, session)| session)
            .zip(frames.iter());
        let results = engine.process_batch(jobs);
        let mut kinds = [' '; STREAMS];
        let mut keys = 0;
        for (&s, outcome) in live.iter().zip(&results) {
            kinds[s] = match outcome {
                FrameOutcome::Predicted { .. } => '.',
                FrameOutcome::Key { .. } => 'K',
                FrameOutcome::ForcedKey { .. } => 'F',
                refused => panic!("unlimited engine admits every frame: {refused:?}"),
            };
            keys += usize::from(outcome.is_key());
        }
        println!(
            "{t:4}  {}   ({keys} key frame{})",
            kinds.iter().collect::<String>(),
            if keys == 1 { "" } else { "s" }
        );
    }

    // 4. Per-stream accounting stays per-stream.
    println!("\nstream  frames  keys  key%   MACs (vs all-key)");
    for session in &sessions {
        let s = session.stats();
        let full = net.total_macs() * s.frames as u64;
        println!(
            "{:6}  {:6}  {:4}  {:3.0}%   {:.1}% saved",
            session.id(),
            s.frames,
            s.key_frames,
            100.0 * s.key_fraction(),
            100.0 * (1.0 - s.macs as f64 / full as f64)
        );
    }
}
