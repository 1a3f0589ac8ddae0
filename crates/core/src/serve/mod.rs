//! Session-based serving: one [`Engine`] per network, one
//! [`StreamSession`] per video stream, cross-stream batched key frames.
//!
//! The paper's EVA² unit sits in front of *shared* layer accelerators and
//! serves a stream of frames; a deployment serves many such streams from
//! one process. The single-stream [`AmcExecutor`](crate::executor::AmcExecutor)
//! cannot model that: it borrows its network and fuses per-stream state
//! (key frame, policy, stats) with per-process resources (the network,
//! GEMM scratch). This module splits them:
//!
//! * [`Engine`] owns the process-wide resources — an
//!   [`Arc<Network>`](eva2_cnn::network::Network) plus one convolution
//!   scratch and one RFBME scratch per worker — and executes frames.
//! * [`StreamSession`] holds exactly the per-stream state: the stored key
//!   frame and its sparse activation, the key-frame policy, and per-stream
//!   statistics. Sessions are cheap, independent, and `Send`; a session
//!   owns no scratch, so its memory is its key state and nothing else.
//!
//! Files by concern: `limits`, `session` (the per-stream state machine),
//! `engine` (admission, housekeeping), `tick` (one
//! [`Engine::process_batch`]), `health`, `chaos` (the injectable clock and
//! failure seams) and `contain` (the one `catch_unwind`).
//!
//! # The batching seam
//!
//! Key frames are where the money is: a key frame runs the full CNN
//! prefix, a predicted frame only warps and runs the suffix. Key frames
//! from *independent* streams arrive decorrelated — one stream's scene cut
//! does not align with another's — so a serving process regularly holds
//! several key frames at once. [`Engine::process_batch`] classifies every
//! submitted frame with its own session's RFBME + policy (bit-identical to
//! serial processing), then executes all key-frame prefixes through
//! `Network::forward_prefix_batched`, which runs the batch layer by layer:
//! each layer's weight panels (packed once, when the network is built) and
//! the worker's convolution scratch stay cache-resident across the key
//! frames of independent streams. Batching across streams is strictly
//! better than within one stream — it adds no latency, because no stream
//! waits on its own future frames. Every frame is checked against the
//! network's input shape before any work touches it, so a tick's key frames
//! always form one same-shape batch.
//!
//! # The predicted-frame fast path
//!
//! Predicted frames are the steady-state common case, so their path has no
//! dense intermediates: RFBME runs the dense vectorised search
//! (`eva2_motion::rfbme`, whose cost depends on the geometry alone), and
//! warping emits the sparse activation *directly*
//! ([`crate::warp::warp_activation_sparse`] /
//! [`crate::warp::warp_activation_fixed_sparse`]) into the skip-zero CNN
//! suffix, mirroring the hardware's sparse activation memory. The fused
//! seam is bit-identical to dense-warp-then-extract.
//!
//! # Threading model & determinism
//!
//! [`EngineLimits::worker_threads`] sizes a pool of workers, each with a
//! private [`GemmScratch`](eva2_tensor::GemmScratch) and `RfbmeScratch`,
//! so the hot path never locks. A tick is one record per submitted job,
//! advanced by the same phases at every worker count; only the width the
//! parallel phases fan out at changes:
//!
//! 1. **Screen** — side-effect-free refusals (foreign engine, retired or
//!    quarantined session, off-geometry frame).
//! 2. **Estimate** — per-stream RFBME for the first `max_frames_per_tick`
//!    screened-in jobs, stream-per-worker.
//! 3. **Admit** — a serial walk in submission order: budget shedding, the
//!    key-frame decision, counter commits. Serial is what keeps budget
//!    semantics independent of the worker count.
//! 4. **Prefix** — the admitted key frames in `min(workers, keys)`
//!    buckets, frame-per-thread (one frame per thread beats splitting one
//!    48×48 frame's convolution across cores), each bucket one
//!    layer-by-layer `forward_prefix_batched` sub-batch.
//! 5. **Complete** — sparse store refresh + suffix for keys, warp + suffix
//!    for predicted, stream-per-worker.
//!
//! **Outputs are bit-identical for every worker count.** Sessions are
//! independent (no phase shares mutable state across streams), the batched
//! prefix is bit-identical to the per-frame prefix *for any partition of
//! the batch*, and every result lands in its job's own record, so
//! scheduling cannot reorder anything. `serve_interleaved.rs` pins N-worker
//! vs 1-worker vs serial-executor equality under random interleavings,
//! evictions, and fault storms.
//!
//! Estimation is *speculative*: a frame the walk then sheds (key budget,
//! tick deadline) has passed through a worker's `RfbmeScratch`. Scratch
//! contents never influence results — the interleaved, fault and chaos
//! suites hold every served frame to a serial oracle's bits — so
//! shed-and-resubmit stays bit-identical. A job the walk admits past the
//! speculation bound (an earlier job was shed) is estimated inline.
//!
//! `worker_threads: 1` (the default) runs every phase on the calling
//! thread and spawns nothing. The count is forced, not a hint, so tests
//! exercise the real split on any host; wall-clock scaling needs a core
//! per worker.
//!
//! # Lifecycle & failure modes
//!
//! Every submission returns a [`FrameOutcome`]: a served frame typed by how
//! it was produced ([`FrameOutcome::Key`], [`FrameOutcome::Predicted`],
//! [`FrameOutcome::ForcedKey`] with the residual that tripped the
//! confidence bound) with its per-frame statistics delta, or a refusal
//! that says what to do about it: [`FrameOutcome::Shed`] (backpressure;
//! resubmit next tick) or [`FrameOutcome::Rejected`] (the submission itself
//! is wrong; [`Engine::process_batch`] lists every cause).
//!
//! * **Admission control.** [`EngineLimits::max_sessions`] caps concurrent
//!   sessions ([`Engine::open_session`]); dropping a [`StreamSession`] (or
//!   retiring one with [`Engine::evict_session`]) frees its slot.
//! * **Backpressure.** Each [`Engine::process_batch`] call is one *tick*.
//!   [`EngineLimits::max_frames_per_tick`] and
//!   [`EngineLimits::max_key_frames_per_tick`] bound the work one tick may
//!   admit; excess frames are *shed* strictly before any state mutation, so
//!   resubmitting one next tick is bit-identical to having submitted it
//!   then. (Key-frame policies keep their state in
//!   [`KeyFramePolicy::note_key_frame`](crate::KeyFramePolicy::note_key_frame),
//!   never in `decide`, which makes the classify step side-effect-free.)
//! * **Eviction & rehydration.** [`StreamSession::memory_footprint`]
//!   audits a session's heap use by allocated capacity.
//!   [`Engine::maintain`] drops the key state of sessions idle for
//!   [`EngineLimits::idle_evict_ticks`] ticks, then of least-recently-used
//!   sessions until the total fits [`EngineLimits::max_total_bytes`]; a
//!   session over [`EngineLimits::max_session_bytes`] after a key frame is
//!   trimmed at once. The next frame *rehydrates* through the forced-key
//!   seam (no stored state ⇒ key frame), bit-identical to a fresh session.
//!   [`Engine::evict_session`] also revokes admission.
//! * **Graceful degradation.** When the residual per-pixel block error
//!   exceeds
//!   [`AmcConfig::max_residual_error`](crate::executor::AmcConfig::max_residual_error),
//!   the engine refuses to warp garbage and forces a key frame (§III-C).
//!
//! `crates/core/tests/lifecycle_faults.rs` drives all of this under a
//! deterministic fault-injection harness (dropped frames, corruption,
//! saturation, scene cuts, mid-stream resolution changes) and asserts
//! every submission yields a correct frame or a typed error.
//!
//! # Failure containment
//!
//! This layer survives bugs and slowness inside the engine, per session
//! rather than per process:
//!
//! * **Panic isolation.** Every per-frame job — the RFBME estimate, the
//!   walk's classify and commit, each prefix bucket, each completion — runs
//!   inside the engine's one `catch_unwind` seam (the `contain` module; the
//!   `eva2-lint` rule `contained-unwind` keeps `catch_unwind` out of every
//!   other file). A panic costs exactly that frame, as
//!   [`AmcError::WorkerPanicked`](crate::AmcError::WorkerPanicked) naming
//!   the phase (`"estimate"`, `"admit"`, `"prefix"`, or `"complete"`), and
//!   every other job completes bit-identically to a run without it. One
//!   sharp edge: a frame that panics *after* its commit has already
//!   consumed tick budget, so a later frame may have been shed on its
//!   account.
//! * **Quarantine.** The panicking job's session may be half-mutated, so
//!   it is *poisoned*: later submissions return
//!   [`AmcError::SessionPoisoned`](crate::AmcError::SessionPoisoned) until
//!   it is evicted, which drops the suspect state; the next frame
//!   rehydrates bit-identically to a fresh session.
//! * **Tick deadline.** [`EngineLimits::tick_deadline_ms`] is a soft
//!   budget read from an injectable [`TickClock`] ([`FakeClock`] in tests),
//!   checked at each key-frame admission, each prefix bucket, and before
//!   completion. Past it, remaining *key-frame upgrades* are shed
//!   (`what: "tick deadline"`); predicted frames still serve and committed
//!   work always finishes.
//!
//! [`Engine::health`] snapshots this layer for operators ([`EngineHealth`]).
//! [`Engine::set_failure_injector`] installs a [`FailureInjector`] — pure in
//! `(phase, tick, session)` — that forces panics or delays inside chosen
//! phases; `crates/core/tests/soak_chaos.rs` drives thousands of chaotic
//! ticks through it and holds survivors bit-identical to a clean oracle.
//!
//! # The single-stream wrapper guarantee
//!
//! `AmcExecutor` wraps the same per-session state machine (`SessionCore`)
//! with one borrowed network and private scratch. Every output, decision,
//! and statistic is **bit-identical** across the serial executor (fed its
//! own or an external motion estimate) and engine sessions (single or
//! batched), which `serve_interleaved.rs` and `external_motion_bitident.rs`
//! enforce.
//!
//! # Example
//!
//! ```
//! use eva2_cnn::zoo;
//! use eva2_core::executor::AmcConfig;
//! use eva2_core::serve::Engine;
//! use eva2_tensor::GrayImage;
//! use std::sync::Arc;
//!
//! let net = Arc::new(zoo::tiny_fasterm(7).network);
//! let mut engine = Engine::new(net, AmcConfig::default()).unwrap();
//! let mut cam_a = engine.open_session().unwrap();
//! let mut cam_b = engine.open_session().unwrap();
//! let frame = GrayImage::from_fn(48, 48, |y, x| {
//!     (120 + ((y * 7 + x * 3) % 64)) as u8
//! });
//! // Batched submission: both streams' first frames are key frames and
//! // share one batched prefix pass.
//! let results = engine.process_batch([(&mut cam_a, &frame), (&mut cam_b, &frame)]);
//! assert!(results.iter().all(|r| r.is_key()));
//! // Streams advance independently; each result is typed by how the frame
//! // was produced.
//! use eva2_core::serve::FrameOutcome;
//! match engine.process(&mut cam_a, &frame) {
//!     FrameOutcome::Predicted { frame, stats } => {
//!         assert!(!frame.is_key);
//!         assert_eq!(stats.frames, 1); // this frame's stats delta
//!     }
//!     other => panic!("steady scene should predict, got {other:?}"),
//! }
//! assert_eq!(cam_a.stats().frames, 2);
//! assert_eq!(cam_b.stats().frames, 1);
//! ```

// lint: hot-path

mod chaos;
mod contain;
mod engine;
mod health;
mod limits;
mod session;
mod tick;

pub use chaos::{
    EnginePhase, FailureAction, FailureInjector, FakeClock, MonotonicClock, SeededChaos, TickClock,
};
pub use engine::{Engine, EngineExecutor};
pub use health::{EngineHealth, TICK_RING};
pub use limits::{session_memory_bound, EngineLimits, EngineLimitsBuilder};
pub(crate) use session::SessionCore;
pub use session::StreamSession;
pub use tick::FrameOutcome;

#[cfg(test)]
mod tests;
