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
//! * [`Engine`] owns the process-wide resources — an [`Arc<Network>`] plus
//!   one convolution scratch and one RFBME scratch per worker — and
//!   executes frames.
//! * [`StreamSession`] holds exactly the per-stream state: the stored key
//!   frame and its sparse activation, the key-frame policy, and per-stream
//!   statistics. Sessions are cheap, independent, and `Send`; a session
//!   owns no scratch, so its memory is its key state and nothing else.
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
//! `Network::forward_prefix_batched`: weight panels pack once per layer
//! per batch, the unpacked-B micro-kernel skips the per-frame repack, and
//! outputs store in a single bias+product pass. Batching across streams is
//! strictly better than within one stream — it adds no latency, because no
//! stream waits on its own future frames. Key frames of different
//! resolutions batch in per-shape groups (sessions need not share an input
//! resolution, only a target layer).
//!
//! # The predicted-frame fast path
//!
//! Predicted frames are the steady-state common case — key frames are
//! deliberately rare — so their path is kept free of dense intermediates:
//! RFBME runs the dense vectorised search (`eva2_motion::rfbme`, whose
//! cost depends on the geometry alone), and warping emits the sparse
//! activation *directly*
//! ([`crate::warp::warp_activation_sparse`] /
//! [`crate::warp::warp_activation_fixed_sparse`]) into the skip-zero CNN
//! suffix. A predicted frame therefore flows RFBME → warp → sparse suffix
//! without ever materialising or re-compressing a dense activation tensor,
//! mirroring the hardware's sparse activation memory. The fused seam is
//! bit-identical to dense-warp-then-extract, so the wrapper guarantee
//! below is unaffected.
//!
//! # Threading model & determinism
//!
//! [`EngineLimits::worker_threads`] sizes a pool of workers (scoped
//! threads with one private [`GemmScratch`] and one private
//! `RfbmeScratch` each — the hot path never locks a shared pool) that
//! [`Engine::process_batch`] fans work out to in three places:
//!
//! 1. **Per-stream RFBME** runs stream-per-worker: motion estimation
//!    reads only its own session's key image and writes only the
//!    worker's `RfbmeScratch`, so jobs partition round-robin across
//!    workers with no sharing.
//! 2. **Coinciding key frames** fan out frame-per-thread: each worker
//!    runs *its* subset of the tick's key frames through one
//!    `forward_prefix_batched` sub-batch (one frame per thread beats
//!    splitting a single 48×48 frame's convolution across cores — the
//!    PR-4 finding; within a worker the sub-batch runs layer by layer, so
//!    a layer's weight panels stay cache-resident across its frames).
//! 3. **Completion** (sparse store refresh + suffix for keys, warp +
//!    suffix for predicted) is per-session work and again runs
//!    stream-per-worker.
//!
//! Between the parallel phases, admission — budget shedding, the
//! key-frame decision, and counter commits — stays a short *serial* walk
//! in submission order, which is what keeps budget semantics identical to
//! the single-threaded engine.
//!
//! **Outputs are bit-identical for every worker count.** Three facts make
//! this free: sessions are independent (no phase shares mutable state
//! across streams); the batched prefix is bit-identical to the per-frame
//! prefix *for any partition of the batch* (the `forward_prefix_batched`
//! contract); and every result lands in its job's own slot, so scheduling
//! order cannot reorder anything. The extended `serve_interleaved.rs`
//! harness pins N-worker vs 1-worker vs serial-executor equality under
//! random interleavings, evictions, and fault storms.
//!
//! The one observable difference: with `worker_threads > 1` the engine
//! estimates motion *speculatively* for every screened-in job before the
//! serial admission walk, so a frame that ends up shed by a tick budget
//! has passed through a worker's `RfbmeScratch`. Scratch contents never
//! influence results — one scratch serves every stream its worker
//! estimates for, whatever their geometry, and the interleaved, fault and
//! chaos suites hold every served frame to a serial oracle's bits — so
//! shed-and-resubmit stays bit-identical.
//!
//! `worker_threads: 1` (the default) runs every phase inline — no threads
//! are spawned, and the engine behaves exactly like the pre-pool
//! implementation. On the single-CPU dev container the forced thread
//! count is still honoured, which is how the bit-identity tests exercise
//! the real split without multi-core hardware; wall-clock scaling needs a
//! multi-core host.
//!
//! # Lifecycle & failure modes
//!
//! A long-running serving process cannot afford a panic, an unbounded
//! buffer, or a silently wrong frame, so the engine wraps the AMC state
//! machine in an explicit lifecycle. Every submission returns a
//! [`FrameOutcome`]: the engine either serves a correct frame — typed by
//! how it was produced ([`FrameOutcome::Key`], [`FrameOutcome::Predicted`],
//! [`FrameOutcome::ForcedKey`] with the residual that tripped the
//! confidence bound), carrying the output tensor and the per-frame
//! [`ExecStats`] delta — or tells the caller exactly why it refused:
//! [`FrameOutcome::Shed`] (backpressure; resubmit next tick) versus
//! [`FrameOutcome::Rejected`] (the submission itself is wrong).
//!
//! * **Admission control.** [`EngineLimits::max_sessions`] caps concurrent
//!   sessions: [`Engine::open_session`] returns
//!   [`AmcError::EngineAtCapacity`] when the cap is reached. Dropping a
//!   [`StreamSession`] (or retiring one with [`Engine::evict_session`])
//!   frees its slot immediately.
//! * **Backpressure.** Each [`Engine::process_batch`] call is one *tick*.
//!   [`EngineLimits::max_frames_per_tick`] and
//!   [`EngineLimits::max_key_frames_per_tick`] bound the work one tick may
//!   admit; excess frames are *shed* with [`AmcError::BudgetExceeded`].
//!   Shedding happens strictly before any state mutation — a shed frame
//!   leaves its session's counters, key state, and policy untouched, so
//!   resubmitting it next tick is bit-identical to having submitted it
//!   then. (Key-frame policies keep their state in
//!   [`KeyFramePolicy::note_key_frame`], never in `decide`, which makes
//!   the classify step side-effect-free.)
//! * **Eviction & rehydration.** [`StreamSession::memory_footprint`]
//!   audits a session's heap use (key image + compressed/sparse/decoded
//!   activations, by allocated capacity).
//!   [`Engine::maintain`] drops the key state of sessions idle for
//!   [`EngineLimits::idle_evict_ticks`] ticks and then least-recently-used
//!   sessions until the total fits [`EngineLimits::max_total_bytes`];
//!   a session whose own footprint exceeds
//!   [`EngineLimits::max_session_bytes`] after a key frame is trimmed
//!   immediately. Eviction is transparent: the session's next frame
//!   *rehydrates* through the forced-key seam (no stored state ⇒ key
//!   frame), bit-identical to a fresh session from that key frame onward.
//!   [`Engine::evict_session`] is the hard variant — it revokes admission,
//!   and further submissions return [`AmcError::SessionEvicted`].
//! * **Graceful degradation.** When RFBME cannot explain a frame — the
//!   residual per-pixel block error exceeds
//!   [`AmcConfig::max_residual_error`](crate::executor::AmcConfig::max_residual_error)
//!   — the engine refuses to warp garbage and forces a key frame instead
//!   (§III-C of the paper), counted in [`ExecStats::forced_keys`].
//! * **Typed internal errors.** Invariant violations that previously
//!   panicked (missing key state or motion on a predicted frame, a
//!   short batched-prefix result) now surface as [`AmcError::Internal`];
//!   submitting a frame whose geometry differs from the stored key state
//!   returns [`AmcError::FrameGeometryMismatch`]; submitting a session to
//!   an engine that did not open it returns [`AmcError::EngineMismatch`].
//!
//! `crates/core/tests/lifecycle_faults.rs` drives all of this under a
//! deterministic fault-injection harness (dropped frames, corruption,
//! saturation, scene cuts, mid-stream resolution changes) and asserts the
//! engine never panics: every submission yields a correct frame or a typed
//! error.
//!
//! # Failure containment
//!
//! The lifecycle above survives bad *inputs*; this layer survives bugs and
//! slowness inside the engine's own process. Three mechanisms, all
//! per-session rather than per-process:
//!
//! * **Panic isolation.** Every per-frame job — the speculative RFBME
//!   estimate, the admission walk's classify and commit steps, each
//!   key-frame prefix bucket, and per-frame completion — runs inside the
//!   engine's one `catch_unwind` seam (the `contain` module; the
//!   `eva2-lint` rule `contained-unwind` keeps `catch_unwind` out of every
//!   other module). A panic escaping a job costs exactly that frame: it
//!   comes back as [`FrameOutcome::Rejected`] carrying
//!   [`AmcError::WorkerPanicked`] (naming the phase — `"estimate"`,
//!   `"admit"`, `"prefix"`, or `"complete"` — and the payload), and every
//!   other job in the tick completes bit-identically to a run where the
//!   panicking job was never submitted. One sharp edge is documented
//!   rather than hidden: a frame that panics *after* its serial commit
//!   (prefix or completion) has already consumed tick budget, so under
//!   finite budgets a later frame in the same tick may have been shed on
//!   its account.
//! * **Quarantine.** A panic may have left the owning session's state
//!   half-mutated, so the session is *poisoned*: every later submission
//!   returns [`AmcError::SessionPoisoned`]
//!   ([`StreamSession::is_quarantined`]) until the session is evicted —
//!   [`StreamSession::evict_state`], [`Engine::maintain`], or
//!   [`Engine::evict_session`] — which drops the suspect state and lifts
//!   the quarantine. The next frame then rehydrates through the forced-key
//!   seam, bit-identical to a fresh session (the PR-6 evicted≡fresh
//!   property, extended to the poisoned path by `serve_interleaved.rs`).
//! * **Tick deadline.** [`EngineLimits::tick_deadline_ms`] is a soft
//!   per-tick budget read from an injectable [`TickClock`]
//!   ([`Engine::set_tick_clock`]; monotonic wall clock by default, a
//!   deterministic [`FakeClock`] in tests). The watchdog checks between
//!   phases, at each key-frame admission, and between prefix fan-out
//!   buckets. Degradation order on overrun: remaining *key-frame
//!   upgrades* are shed with the zero-trace [`AmcError::BudgetExceeded`]
//!   semantics (`what: "tick deadline"`) — predicted frames, which cost
//!   only a sparse suffix, still serve; already-committed work always
//!   finishes (the deadline is soft — it bounds *new* expensive work, it
//!   never abandons a frame mid-flight). Overruns and deadline sheds are
//!   counted, never silent.
//!
//! [`Engine::health`] snapshots the containment layer for operators: see
//! [`EngineHealth`] for per-field semantics. For deterministic chaos
//! testing, [`Engine::set_failure_injector`] installs a [`FailureInjector`]
//! — pure in `(phase, tick, session)` — that forces panics or delays
//! inside chosen phases; `crates/core/tests/soak_chaos.rs` drives
//! thousands of ticks of injected panics, input faults, evictions, and
//! deadline pressure through it and holds survivors bit-identical to a
//! clean oracle.
//!
//! # The single-stream wrapper guarantee
//!
//! `AmcExecutor` is a thin wrapper over the same per-session state machine
//! ([`SessionCore`]) this module runs: one session, one borrowed network,
//! private GEMM and RFBME scratch. Every output, decision, and statistic
//! is **bit-identical** across both entry points — the serial executor
//! (fed its own or an external motion estimate) and engine sessions
//! (single or batched) — which `crates/core/tests/serve_interleaved.rs`
//! and `external_motion_bitident.rs` enforce. Existing single-stream
//! callers keep working unchanged; multi-stream callers get batching by
//! switching to the engine.
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
//! // Streams advance independently; outcomes are typed by how the frame
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

use crate::error::AmcError;
use crate::executor::{AmcConfig, AmcFrameResult, ExecStats, WarpMode};
use crate::policy::{FrameKind, FrameMetrics, KeyFramePolicy, PolicyConfig};
use crate::sparse::{RleActivation, RleEntry};
use crate::warp::{warp_activation_fixed_sparse, warp_activation_sparse};
use eva2_cnn::network::Network;
use eva2_motion::rfbme::{RfGeometry, Rfbme, RfbmeResult, RfbmeScratch};
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GemmScratch, GrayImage, SparseActivation, Tensor3};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Stored key-frame state: the pixel buffer and the sparse activation
/// buffer.
#[derive(Debug, Clone)]
struct KeyState {
    image: GrayImage,
    /// The compressed activation as the hardware stores it.
    rle: RleActivation,
    /// Non-zero view feeding the sparse-aware suffix on memoized frames.
    sparse: SparseActivation,
    /// Decoded copy kept for software-speed warping (the hardware decodes
    /// through the sparsity lanes on the fly).
    decoded: Tensor3,
}

impl KeyState {
    /// Heap bytes held by the stored buffers (allocated capacity).
    fn heap_bytes(&self) -> usize {
        self.image.heap_bytes()
            + self.rle.heap_bytes()
            + self.sparse.heap_bytes()
            + self.decoded.heap_bytes()
    }
}

/// The classification of one submitted frame, produced by
/// [`SessionCore::classify`] *without* mutating the session. A plan is
/// either committed ([`SessionCore::commit_frame`]) and executed, or
/// discarded when the engine sheds the frame — which is what lets
/// backpressure reject work without corrupting admitted streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FramePlan {
    kind: FrameKind,
    /// The policy said `Predicted` but the residual block error exceeded
    /// the confidence bound, so the frame was degraded to a key frame.
    forced: bool,
    metrics: Option<FrameMetrics>,
    rfbme_ops: u64,
}

impl FramePlan {
    pub(crate) fn kind(&self) -> FrameKind {
        self.kind
    }
}

/// The typed outcome of one submitted frame — what
/// [`Engine::process_batch`] returns per job. Served variants carry the
/// frame's [`AmcFrameResult`] (output tensor, MACs, warp/compression
/// detail) plus `stats`: the [`ExecStats`] delta this single frame added
/// to its session, so callers account per frame without diffing
/// snapshots. Refused variants carry the typed [`AmcError`], split by
/// what the caller should do about it.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// Warped (or memoized) from stored key state; suffix-only compute.
    Predicted {
        /// The served frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// A key frame the policy (or a first frame / rehydration) asked for:
    /// full prefix + suffix, key state refreshed.
    Key {
        /// The served frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// The policy said *predicted* but the residual per-pixel block error
    /// exceeded
    /// [`AmcConfig::max_residual_error`](crate::executor::AmcConfig::max_residual_error),
    /// so the engine refused to warp garbage and spent a key frame
    /// (§III-C graceful degradation).
    ForcedKey {
        /// The residual per-pixel block error that tripped the bound.
        residual: f32,
        /// The served (key) frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// Backpressure: a per-tick budget was exhausted before this job. The
    /// session is untouched — resubmitting next tick is bit-identical to
    /// having submitted it then.
    Shed(AmcError),
    /// The submission itself is wrong (foreign engine, retired session,
    /// off-geometry frame, or a violated internal invariant surfaced as
    /// [`AmcError::Internal`]); resubmitting the same job cannot succeed.
    Rejected(AmcError),
}

impl FrameOutcome {
    /// Wraps a refusal, classifying shed-able backpressure apart from
    /// hard rejections.
    fn from_error(e: AmcError) -> Self {
        match e {
            AmcError::BudgetExceeded { .. } => FrameOutcome::Shed(e),
            _ => FrameOutcome::Rejected(e),
        }
    }

    /// Whether the frame was served (any of the three success variants).
    pub fn is_served(&self) -> bool {
        matches!(
            self,
            FrameOutcome::Predicted { .. }
                | FrameOutcome::Key { .. }
                | FrameOutcome::ForcedKey { .. }
        )
    }

    /// Whether the frame was served as a key frame (policy-chosen or
    /// forced).
    pub fn is_key(&self) -> bool {
        matches!(
            self,
            FrameOutcome::Key { .. } | FrameOutcome::ForcedKey { .. }
        )
    }

    /// The served frame, when one was produced.
    pub fn frame(&self) -> Option<&AmcFrameResult> {
        match self {
            FrameOutcome::Predicted { frame, .. }
            | FrameOutcome::Key { frame, .. }
            | FrameOutcome::ForcedKey { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// The statistics delta this frame added to its session, when served.
    pub fn stats_delta(&self) -> Option<ExecStats> {
        match self {
            FrameOutcome::Predicted { stats, .. }
            | FrameOutcome::Key { stats, .. }
            | FrameOutcome::ForcedKey { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// The refusal, when the frame was shed or rejected.
    pub fn error(&self) -> Option<&AmcError> {
        match self {
            FrameOutcome::Shed(e) | FrameOutcome::Rejected(e) => Some(e),
            _ => None,
        }
    }

    /// Collapses the outcome to the plain result shape, dropping the
    /// variant distinction and stats delta.
    pub fn into_result(self) -> Result<AmcFrameResult, AmcError> {
        match self {
            FrameOutcome::Predicted { frame, .. }
            | FrameOutcome::Key { frame, .. }
            | FrameOutcome::ForcedKey { frame, .. } => Ok(frame),
            FrameOutcome::Shed(e) | FrameOutcome::Rejected(e) => Err(e),
        }
    }

    /// The served frame, panicking with `msg` on a refusal — the
    /// test-and-example analogue of `Result::expect`. Panicking is this
    /// method's documented contract (serving code uses
    /// [`FrameOutcome::into_result`] instead), so the hot-path no-panic
    /// lint is waived here by design.
    #[track_caller]
    pub fn expect(self, msg: &str) -> AmcFrameResult {
        match self.into_result() {
            Ok(frame) => frame,
            Err(e) => panic!("{msg}: {e:?}"), // lint:allow(no-panic)
        }
    }

    /// The served frame, panicking on a refusal — the test-and-example
    /// analogue of `Result::unwrap`.
    #[track_caller]
    pub fn unwrap(self) -> AmcFrameResult {
        // lint:allow(no-panic)
        self.expect("frame was not served")
    }
}

/// Runs `f` over `items`, split round-robin across one scoped thread per
/// entry of `states` (each worker gets exclusive use of its state — this
/// is how per-worker `GemmScratch` stays lock-free). With one state, or
/// one item, everything runs inline on the caller's thread: the
/// single-worker engine spawns nothing.
///
/// Results travel through the items themselves (`&mut` slots), so work
/// lands deterministically regardless of scheduling.
fn fan_out<T, W, F>(states: &mut [W], items: Vec<T>, f: F)
where
    T: Send,
    W: Send,
    F: Fn(&mut W, T) + Sync,
{
    if states.len() <= 1 || items.len() <= 1 {
        // `worker_threads` is validated ≥ 1, so a missing state is
        // unreachable; bailing out leaves the items' result slots empty,
        // which the collection seam reports as `AmcError::Internal`.
        let Some(state) = states.first_mut() else {
            return;
        };
        for item in items {
            f(state, item);
        }
        return;
    }
    let n = states.len();
    let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % n].push(item);
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (state, bucket) in states.iter_mut().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            scope.spawn(move || {
                for item in bucket {
                    f(state, item);
                }
            });
        }
    });
}

// lint: containment
/// The engine's one panic-containment seam. `std::panic::catch_unwind` may
/// appear in this module and nowhere else in the workspace (enforced by
/// the `eva2-lint` rule `contained-unwind`): panic-swallowing is a serving
/// decision, and letting it leak into kernels or analysis passes would
/// hide real bugs instead of containing them at the per-frame boundary.
mod contain {
    use super::{AmcError, EnginePhase, FailureAction, FailureInjector, TickClock};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs one per-frame job, converting an escaping panic into
    /// [`AmcError::WorkerPanicked`] naming `phase`. `AssertUnwindSafe` is
    /// sound here because the caller quarantines the owning session on
    /// `Err` — the possibly half-mutated state is never trusted again
    /// until it is evicted and rehydrated.
    pub(super) fn run<T>(phase: &'static str, job: impl FnOnce() -> T) -> Result<T, AmcError> {
        catch_unwind(AssertUnwindSafe(job)).map_err(|panic| {
            let payload = if let Some(s) = panic.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = panic.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            AmcError::WorkerPanicked { phase, payload }
        })
    }

    /// The chaos hook: applies the injector's scripted action for
    /// `(phase, tick, session)`, if an injector is installed. Called only
    /// from inside a [`run`] job, so an injected panic is always contained
    /// one frame up. Payloads start with `"chaos:"` so test panic hooks
    /// can silence exactly the injected faults.
    pub(super) fn chaos(
        injector: Option<&dyn FailureInjector>,
        clock: &dyn TickClock,
        phase: EnginePhase,
        tick: u64,
        session: u64,
    ) {
        let Some(injector) = injector else {
            return;
        };
        match injector.action(phase, tick, session) {
            FailureAction::None => {}
            FailureAction::Panic => {
                // lint:allow(no-panic)
                panic!("chaos: injected {phase:?} panic (tick {tick}, session {session})")
            }
            FailureAction::Delay { ms } => clock.sleep_us(ms.saturating_mul(1000)),
        }
    }
}

/// The clock [`Engine::process_batch`] reads its tick-deadline watchdog
/// from. Injectable ([`Engine::set_tick_clock`]) so deadline behaviour is
/// deterministic in tests: production uses the default [`MonotonicClock`],
/// tests install a [`FakeClock`] and advance it by hand (injected
/// [`FailureAction::Delay`]s go through [`TickClock::sleep_us`], so a fake
/// clock turns them into pure time arithmetic).
pub trait TickClock: Send + Sync {
    /// Microseconds elapsed since an arbitrary fixed origin.
    fn now_us(&self) -> u64;
    /// Blocks (or, on a fake clock, pretends to block) for `us`
    /// microseconds.
    fn sleep_us(&self, us: u64);
}

/// Wall-clock [`TickClock`]: `std::time::Instant` against a fixed origin.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TickClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep_us(&self, us: u64) {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// Deterministic [`TickClock`] for tests: time advances only when the test
/// says so ([`FakeClock::advance_us`]) or when a sleep is requested —
/// [`TickClock::sleep_us`] advances the clock instead of blocking, so
/// injected delays exert deadline pressure without slowing the test down.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Relaxed);
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_us(ms.saturating_mul(1000));
    }
}

impl TickClock for FakeClock {
    fn now_us(&self) -> u64 {
        self.now.load(Relaxed)
    }

    fn sleep_us(&self, us: u64) {
        self.advance_us(us);
    }
}

/// Which serving phase a [`FailureInjector`] is being consulted in (the
/// same names [`AmcError::WorkerPanicked`] reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnginePhase {
    /// Per-stream RFBME (speculative fan-out or the inline fallback).
    Estimate,
    /// The serial admission walk's classify/commit steps.
    Admit,
    /// A key-frame batched-prefix bucket.
    Prefix,
    /// Per-frame completion (sparse encode + suffix, or warp + suffix).
    Complete,
}

impl EnginePhase {
    fn index(self) -> u64 {
        match self {
            EnginePhase::Estimate => 0,
            EnginePhase::Admit => 1,
            EnginePhase::Prefix => 2,
            EnginePhase::Complete => 3,
        }
    }
}

/// What a [`FailureInjector`] asks the engine to do inside one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Proceed normally.
    None,
    /// Panic inside the job (always contained; the frame fails with
    /// [`AmcError::WorkerPanicked`] and its session is quarantined).
    Panic,
    /// Sleep `ms` milliseconds through the engine's [`TickClock`] —
    /// deadline pressure, deterministic under a [`FakeClock`].
    Delay {
        /// Milliseconds to sleep.
        ms: u64,
    },
}

/// Deterministic failure-injection seam for chaos testing
/// ([`Engine::set_failure_injector`]). Implementations must be pure in
/// `(phase, tick, session)` so chaos runs replay bit-identically;
/// [`SeededChaos`] is the stock seeded implementation.
pub trait FailureInjector: Send + Sync {
    /// The action to take for this `(phase, tick, session)` job.
    fn action(&self, phase: EnginePhase, tick: u64, session: u64) -> FailureAction;
}

/// Stock [`FailureInjector`]: a splitmix64-style hash of
/// `(seed, phase, tick, session)` rolls a per-mille die for panics and
/// delays. Pure and allocation-free, so two engines with the same seed see
/// the same faults at the same jobs.
#[derive(Debug, Clone, Copy)]
pub struct SeededChaos {
    /// Seed fixing every roll.
    pub seed: u64,
    /// Panic probability per job, in 1/1000ths.
    pub panic_per_mille: u64,
    /// Delay probability per job, in 1/1000ths (rolled after panics).
    pub delay_per_mille: u64,
    /// Length of an injected delay.
    pub delay_ms: u64,
}

impl SeededChaos {
    /// A chaos script panicking ~6% and delaying ~4% of jobs, 2 ms per
    /// delay.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_per_mille: 60,
            delay_per_mille: 40,
            delay_ms: 2,
        }
    }

    fn roll(&self, phase: EnginePhase, tick: u64, session: u64) -> u64 {
        let mut x = self.seed
            ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ session.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ phase.index().wrapping_mul(0x94D0_49BB_1331_11EB);
        // splitmix64 finalizer: avalanche the combined key so nearby
        // (tick, session) pairs decorrelate.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) % 1000
    }
}

impl FailureInjector for SeededChaos {
    fn action(&self, phase: EnginePhase, tick: u64, session: u64) -> FailureAction {
        let roll = self.roll(phase, tick, session);
        if roll < self.panic_per_mille {
            FailureAction::Panic
        } else if roll < self.panic_per_mille + self.delay_per_mille {
            FailureAction::Delay { ms: self.delay_ms }
        } else {
            FailureAction::None
        }
    }
}

/// Operator-facing snapshot of the engine's failure-containment layer
/// ([`Engine::health`]) — the §III-C degradation signal at engine scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineHealth {
    /// Ticks processed (one per [`Engine::process_batch`] call).
    pub ticks: u64,
    /// Frames served across all sessions (key, forced-key, or predicted).
    pub frames_served: u64,
    /// Frame jobs that failed with a contained panic
    /// ([`AmcError::WorkerPanicked`]). A single prefix-bucket panic fails
    /// every frame in its bucket, so this counts frames lost, not unwinds.
    pub panics_caught: u64,
    /// Sessions quarantined so far (each panic outcome quarantines its
    /// owning session; a session re-poisoned after recovery counts again).
    pub quarantines: u64,
    /// Live sessions currently quarantined (poisoned, not yet evicted or
    /// retired).
    pub quarantined_sessions: usize,
    /// Sessions evicted by [`Engine::maintain`] (idle/LRU) or
    /// [`Engine::evict_session`]. Per-session budget trims inside a tick
    /// are counted per session in [`ExecStats::evictions`] instead.
    pub evicted_sessions: u64,
    /// Ticks that overran [`EngineLimits::tick_deadline_ms`] at any
    /// watchdog checkpoint.
    pub deadline_overruns: u64,
    /// Key-frame upgrades shed by the deadline watchdog
    /// (`BudgetExceeded { what: "tick deadline" }`).
    pub deadline_sheds: u64,
    /// Frames shed by the frame/key per-tick budgets (all other
    /// [`FrameOutcome::Shed`] outcomes).
    pub budget_sheds: u64,
    /// Key frames forced by the residual confidence bound across all
    /// sessions ([`FrameOutcome::ForcedKey`]).
    pub forced_keys: u64,
    /// Median of the last [`TICK_RING`] tick durations, microseconds
    /// (0 until a tick completes).
    pub tick_p50_us: u64,
    /// 99th percentile of the last [`TICK_RING`] tick durations,
    /// microseconds.
    pub tick_p99_us: u64,
}

/// Ring-buffer depth behind [`EngineHealth::tick_p50_us`] /
/// [`EngineHealth::tick_p99_us`].
pub const TICK_RING: usize = 256;

/// Mutable half of [`EngineHealth`]: the counters the engine accumulates
/// serially at the end of every tick, plus the tick-duration ring.
#[derive(Debug)]
struct HealthState {
    ticks: u64,
    frames_served: u64,
    panics_caught: u64,
    quarantines: u64,
    evicted_sessions: u64,
    deadline_overruns: u64,
    deadline_sheds: u64,
    budget_sheds: u64,
    forced_keys: u64,
    /// Last [`TICK_RING`] tick durations in µs, written circularly.
    recent_us: Vec<u64>,
    next_slot: usize,
}

impl Default for HealthState {
    /// The ring is allocated to its full capacity up front so
    /// `record_tick` never allocates on the serving hot path (the
    /// steady-state allocation audit counts every transient).
    fn default() -> Self {
        Self {
            ticks: 0,
            frames_served: 0,
            panics_caught: 0,
            quarantines: 0,
            evicted_sessions: 0,
            deadline_overruns: 0,
            deadline_sheds: 0,
            budget_sheds: 0,
            forced_keys: 0,
            recent_us: Vec::with_capacity(TICK_RING),
            next_slot: 0,
        }
    }
}

impl HealthState {
    fn record_tick(&mut self, us: u64) {
        if self.recent_us.len() < TICK_RING {
            self.recent_us.push(us);
        } else {
            self.recent_us[self.next_slot] = us;
        }
        self.next_slot = (self.next_slot + 1) % TICK_RING;
    }

    fn percentile(sorted: &[u64], p: usize) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
    }
}

/// The per-stream AMC state machine: everything one video stream needs
/// between frames, and nothing a stream shares with its neighbours.
///
/// Both [`StreamSession`] and the single-stream
/// [`AmcExecutor`](crate::executor::AmcExecutor) wrap exactly this type,
/// which is what makes their outputs bit-identical: there is one
/// implementation of the frame state machine, parameterised on a borrowed
/// network and borrowed GEMM and RFBME scratch at each call.
#[derive(Debug)]
pub(crate) struct SessionCore {
    target: usize,
    rf: RfGeometry,
    rfbme: Rfbme,
    warp_mode: WarpMode,
    fixed_point: bool,
    sparsity_threshold: f32,
    max_residual_error: f32,
    /// Frame geometry the network was built for; every submitted frame is
    /// validated against it before any state is touched.
    input_h: usize,
    input_w: usize,
    policy: Box<dyn KeyFramePolicy>,
    state: Option<KeyState>,
    frames_since_key: usize,
    stats: ExecStats,
    prefix_macs: u64,
    total_macs: u64,
}

impl SessionCore {
    /// Builds a core for `net` under `config`, validating both.
    pub(crate) fn new(net: &Network, config: &AmcConfig) -> Result<Self, AmcError> {
        Self::build(net, config, true)
    }

    /// [`SessionCore::new`] for a (`net`, `config`) pair the static
    /// verifier has already accepted.
    pub(crate) fn new_verified(net: &Network, config: &AmcConfig) -> Result<Self, AmcError> {
        Self::build(net, config, false)
    }

    fn build(net: &Network, config: &AmcConfig, verify: bool) -> Result<Self, AmcError> {
        config.validate()?;
        let (target, rf) = config.target.geometry(net)?;
        if verify {
            config.verify_resolved(net, target)?;
        }
        Ok(Self {
            target,
            rf,
            rfbme: Rfbme::new(rf, config.search),
            warp_mode: config.warp,
            fixed_point: config.fixed_point,
            sparsity_threshold: config.sparsity_threshold,
            max_residual_error: config.max_residual_error,
            input_h: net.input_shape().height,
            input_w: net.input_shape().width,
            policy: config.policy.build(),
            state: None,
            frames_since_key: 0,
            stats: ExecStats::default(),
            prefix_macs: net.prefix_macs(target),
            total_macs: net.total_macs(),
        })
    }

    pub(crate) fn target(&self) -> usize {
        self.target
    }

    pub(crate) fn rf(&self) -> RfGeometry {
        self.rf
    }

    pub(crate) fn rfbme(&self) -> Rfbme {
        self.rfbme
    }

    pub(crate) fn stats(&self) -> ExecStats {
        self.stats
    }

    pub(crate) fn prefix_macs(&self) -> u64 {
        self.prefix_macs
    }

    pub(crate) fn total_macs(&self) -> u64 {
        self.total_macs
    }

    pub(crate) fn policy_name(&self) -> &str {
        self.policy.name()
    }

    pub(crate) fn reset(&mut self) {
        self.state = None;
        self.frames_since_key = 0;
    }

    pub(crate) fn has_state(&self) -> bool {
        self.state.is_some()
    }

    /// Drops the stored key state, returning the session to its
    /// just-opened memory footprint (a session owns no scratch: the RFBME
    /// buffers belong to whoever runs the estimate). The next frame
    /// rehydrates through the forced-key seam (no state ⇒ key frame) and
    /// is bit-identical to a fresh session from that frame on. Returns
    /// whether key state was actually present; only real state drops count
    /// in [`ExecStats::evictions`].
    pub(crate) fn evict_state(&mut self) -> bool {
        let had_state = self.state.is_some();
        self.state = None;
        self.frames_since_key = 0;
        if had_state {
            self.stats.evictions += 1;
        }
        had_state
    }

    /// Audited heap use of this session: the struct itself plus the stored
    /// key-frame buffers, by allocated capacity.
    pub(crate) fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>() + self.state.as_ref().map_or(0, KeyState::heap_bytes)
    }

    /// Rejects a frame whose geometry differs from the network's input
    /// shape. The check is network-anchored rather than state-anchored so
    /// it also catches a wrong-resolution *first* frame (and frames after
    /// eviction or reset) before any CNN or RFBME work touches them —
    /// RFBME, warping, and the CNN head are all undefined off-geometry.
    pub(crate) fn check_geometry(&self, image: &GrayImage) -> Result<(), AmcError> {
        if (self.input_h, self.input_w) != (image.height(), image.width()) {
            return Err(AmcError::FrameGeometryMismatch {
                expected_height: self.input_h,
                expected_width: self.input_w,
                got_height: image.height(),
                got_width: image.width(),
            });
        }
        Ok(())
    }

    pub(crate) fn key_activation(&self) -> Option<&RleActivation> {
        self.state.as_ref().map(|s| &s.rle)
    }

    pub(crate) fn key_image(&self) -> Option<&GrayImage> {
        self.state.as_ref().map(|s| &s.image)
    }

    /// Runs this stream's RFBME from the stored key frame to `image`
    /// (`None` when no key state exists yet) in the caller's scratch — one
    /// per worker, shared by every stream that worker serves; its contents
    /// never influence a result (see `RfbmeScratch`).
    pub(crate) fn estimate_motion(
        &self,
        image: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> Option<RfbmeResult> {
        let state = self.state.as_ref()?;
        Some(self.rfbme.estimate_with(&state.image, image, scratch))
    }

    /// Classifies a frame without committing anything: derives the metrics
    /// the incoming frame *would* see, asks the policy, and applies the
    /// residual-error confidence bound. Counters are untouched, so a plan
    /// may be discarded (frame shed) with no trace.
    pub(crate) fn classify(&mut self, motion: &Option<RfbmeResult>) -> FramePlan {
        let metrics = motion
            .as_ref()
            .map(|m| FrameMetrics::from_rfbme(m, self.frames_since_key + 1));
        let rfbme_ops = motion.as_ref().map_or(0, |m| m.ops());
        let mut kind = match &metrics {
            None => FrameKind::Key,
            Some(m) => self.policy.decide(m),
        };
        let mut forced = false;
        if kind == FrameKind::Predicted {
            if let Some(m) = &metrics {
                // Graceful degradation (§III-C): a residual this large
                // means motion estimation failed to explain the frame
                // (occlusion, corruption, a cut the policy tolerated) —
                // warping would propagate garbage, so spend a key frame.
                if m.block_error_per_pixel > self.max_residual_error {
                    kind = FrameKind::Key;
                    forced = true;
                }
            }
        }
        FramePlan {
            kind,
            forced,
            metrics,
            rfbme_ops,
        }
    }

    /// Commits an admitted plan: bumps the per-stream frame and RFBME
    /// counters. Must be followed by exactly one matching
    /// `finish_key_frame`/`finish_predicted`.
    pub(crate) fn commit_frame(&mut self, plan: &FramePlan) {
        self.stats.frames += 1;
        self.frames_since_key += 1;
        self.stats.rfbme_ops += plan.rfbme_ops;
        if plan.forced {
            self.stats.forced_keys += 1;
        }
    }

    /// Completes a key frame from its already-computed prefix activation:
    /// encodes the sparse store, runs the suffix, refreshes the key state.
    pub(crate) fn finish_key_frame(
        &mut self,
        net: &Network,
        scratch: &mut GemmScratch,
        image: &GrayImage,
        act: Tensor3,
        metrics: Option<FrameMetrics>,
        rfbme_ops: u64,
    ) -> AmcFrameResult {
        let rle = RleActivation::encode(&act, self.sparsity_threshold);
        let compression = rle.compression();
        // The suffix consumes the *quantized* activation on real hardware;
        // feed it straight from the sparse store (skip-zero, no densify) so
        // key and predicted frames share numerics.
        let sparse = rle.to_sparse();
        let output = net.forward_suffix_sparse(&sparse, self.target, scratch);
        let decoded = sparse.to_dense();
        self.state = Some(KeyState {
            image: image.clone(),
            rle,
            sparse,
            decoded,
        });
        self.policy.note_key_frame();
        self.frames_since_key = 0;
        self.stats.key_frames += 1;
        self.stats.macs += self.total_macs;
        AmcFrameResult {
            output,
            is_key: true,
            macs_executed: self.total_macs,
            rfbme_ops,
            warp: None,
            metrics,
            compression: Some(compression),
        }
    }

    /// Completes a predicted frame: warps (or memoizes) the stored
    /// activation and runs the sparse suffix.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::Internal`] when no key state is stored — a
    /// violated invariant (classification decides `Predicted` only with
    /// state present), surfaced as a typed error instead of a panic so a
    /// serving process survives it.
    pub(crate) fn finish_predicted(
        &mut self,
        net: &Network,
        scratch: &mut GemmScratch,
        motion: &RfbmeResult,
        metrics: Option<FrameMetrics>,
        rfbme_ops: u64,
    ) -> Result<AmcFrameResult, AmcError> {
        let Some(state) = self.state.as_ref() else {
            return Err(AmcError::Internal {
                what: "predicted frame requires stored key state",
            });
        };
        // Both arms feed the suffix through the sparse entry point: zero
        // runs in the stored/warped activation are skipped, not densified
        // and multiplied (§IV skip-zero behaviour). Warping emits the
        // sparse representation *directly* (fused warp→sparse, see
        // `crate::warp`): a predicted frame never materialises a dense
        // activation tensor, exactly like the hardware's sparse activation
        // memory. The fused entries are bit-identical to
        // dense-warp-then-`from_dense`, so outputs match the PR-4 path.
        let (output, warp_stats) = match self.warp_mode {
            WarpMode::Memoize => {
                let output = net.forward_suffix_sparse(&state.sparse, self.target, scratch);
                (output, None)
            }
            WarpMode::MotionCompensate { bilinear } => {
                let field = &motion.field;
                let (sparse, ws) = if self.fixed_point {
                    warp_activation_fixed_sparse(&state.decoded, field, self.rf.stride)
                } else {
                    let method = if bilinear {
                        Interpolation::Bilinear
                    } else {
                        Interpolation::NearestNeighbor
                    };
                    warp_activation_sparse(&state.decoded, field, self.rf.stride, method)
                };
                let output = net.forward_suffix_sparse(&sparse, self.target, scratch);
                (output, Some(ws))
            }
        };
        if let Some(ws) = &warp_stats {
            self.stats.warp_interpolations += ws.interpolations;
        }
        let suffix_macs = self.total_macs - self.prefix_macs;
        self.stats.macs += suffix_macs;
        Ok(AmcFrameResult {
            output,
            is_key: false,
            macs_executed: suffix_macs,
            rfbme_ops,
            warp: warp_stats,
            metrics,
            compression: None,
        })
    }

    /// The serial whole-frame path: estimate, decide, execute.
    pub(crate) fn process(
        &mut self,
        net: &Network,
        scratch: &mut GemmScratch,
        motion_scratch: &mut RfbmeScratch,
        image: &GrayImage,
    ) -> Result<AmcFrameResult, AmcError> {
        self.check_geometry(image)?;
        // EVA² always runs RFBME — its block errors drive the key-frame
        // choice module even when warping is disabled (memoization mode).
        let motion = self.estimate_motion(image, motion_scratch);
        self.process_with_motion(net, scratch, image, motion)
    }

    /// [`SessionCore::process`] with an externally computed motion
    /// estimate: decide, execute.
    pub(crate) fn process_with_motion(
        &mut self,
        net: &Network,
        scratch: &mut GemmScratch,
        image: &GrayImage,
        motion: Option<RfbmeResult>,
    ) -> Result<AmcFrameResult, AmcError> {
        self.check_geometry(image)?;
        let plan = self.classify(&motion);
        self.commit_frame(&plan);
        match plan.kind {
            FrameKind::Key => {
                let input = image.to_tensor();
                let act = net.forward_prefix_scratch(&input, self.target, scratch);
                Ok(self.finish_key_frame(net, scratch, image, act, plan.metrics, plan.rfbme_ops))
            }
            FrameKind::Predicted => {
                let motion = motion.ok_or(AmcError::Internal {
                    what: "predicted frame requires a motion estimate",
                })?;
                self.finish_predicted(net, scratch, &motion, plan.metrics, plan.rfbme_ops)
            }
        }
    }
}

/// Resource limits a serving [`Engine`] enforces — the admission-control,
/// backpressure, and memory-budget knobs of the
/// [lifecycle](self#lifecycle--failure-modes). The default is
/// [`EngineLimits::unlimited`]: every limit at its type's maximum, which
/// preserves the pre-lifecycle behaviour exactly (nothing is ever shed or
/// evicted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineLimits {
    /// Maximum concurrently admitted sessions; `open_session*` beyond this
    /// returns [`AmcError::EngineAtCapacity`]. Dropped and retired
    /// sessions free their slots.
    pub max_sessions: usize,
    /// Maximum frames one [`Engine::process_batch`] tick admits; excess
    /// frames are shed with [`AmcError::BudgetExceeded`] and may be
    /// resubmitted next tick.
    pub max_frames_per_tick: usize,
    /// Maximum key frames one tick admits — key frames cost a full CNN
    /// prefix, so this is the knob that bounds tail latency when many
    /// streams cut scenes at once. Excess *key* frames are shed (predicted
    /// frames in the same tick still run).
    pub max_key_frames_per_tick: usize,
    /// Per-session memory budget: a session whose
    /// [`StreamSession::memory_footprint`] exceeds this after a key frame
    /// has its state evicted immediately (it degrades to bounded-memory
    /// all-key serving rather than growing).
    pub max_session_bytes: usize,
    /// Engine-wide memory budget over all admitted sessions' audited
    /// footprints, enforced by LRU eviction in [`Engine::maintain`].
    pub max_total_bytes: usize,
    /// A session idle for at least this many ticks has its key state
    /// evicted by [`Engine::maintain`].
    pub idle_evict_ticks: u64,
    /// Soft per-tick deadline in milliseconds, read from the engine's
    /// [`TickClock`]. Once a tick has run past it, remaining *key-frame*
    /// upgrades are shed with zero-trace
    /// [`AmcError::BudgetExceeded`]`{ what: "tick deadline" }` semantics
    /// (predicted frames still serve; committed work always finishes) and
    /// the overrun is counted in [`EngineHealth::deadline_overruns`].
    /// `u64::MAX` (the default) disables the watchdog.
    pub tick_deadline_ms: u64,
    /// Worker threads one [`Engine::process_batch`] tick fans out over
    /// (see the [module docs](self#threading-model--determinism)). `1`
    /// (the default) runs every phase inline on the calling thread and
    /// spawns nothing. This is a *forced* count, not a hint: asking for 3
    /// workers on a single-CPU host still splits the work three ways,
    /// which is what makes the threaded code path testable on a one-core
    /// container. The worker pool is the system's one parallelism layer.
    pub worker_threads: usize,
}

impl EngineLimits {
    /// No limits: nothing is refused, shed, or evicted, and every tick
    /// runs inline on the calling thread (`worker_threads: 1`).
    pub const fn unlimited() -> Self {
        Self {
            max_sessions: usize::MAX,
            max_key_frames_per_tick: usize::MAX,
            max_frames_per_tick: usize::MAX,
            max_session_bytes: usize::MAX,
            max_total_bytes: usize::MAX,
            idle_evict_ticks: u64::MAX,
            tick_deadline_ms: u64::MAX,
            worker_threads: 1,
        }
    }

    /// Starts a validating builder from the unlimited defaults — the same
    /// pattern as [`AmcConfig::builder`](crate::executor::AmcConfig):
    /// chain setters, then [`EngineLimitsBuilder::build`] validates once.
    pub fn builder() -> EngineLimitsBuilder {
        EngineLimitsBuilder {
            limits: Self::unlimited(),
        }
    }

    /// Checks every limit invariant: a zero limit would admit no work at
    /// all (or evict on every tick) and is always a configuration mistake.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), AmcError> {
        let invalid = |reason: &'static str| Err(AmcError::InvalidConfig { reason });
        if self.max_sessions == 0 {
            return invalid("engine limit max_sessions must be at least 1");
        }
        if self.max_frames_per_tick == 0 {
            return invalid("engine limit max_frames_per_tick must be at least 1");
        }
        if self.max_key_frames_per_tick == 0 {
            return invalid("engine limit max_key_frames_per_tick must be at least 1");
        }
        if self.max_session_bytes == 0 {
            return invalid("engine limit max_session_bytes must be at least 1");
        }
        if self.max_total_bytes == 0 {
            return invalid("engine limit max_total_bytes must be at least 1");
        }
        if self.idle_evict_ticks == 0 {
            return invalid("engine limit idle_evict_ticks must be at least 1");
        }
        if self.tick_deadline_ms == 0 {
            return invalid("engine limit tick_deadline_ms must be at least 1");
        }
        if self.worker_threads == 0 {
            return invalid("engine limit worker_threads must be at least 1");
        }
        Ok(())
    }
}

impl Default for EngineLimits {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Validating builder for [`EngineLimits`], mirroring
/// [`AmcConfigBuilder`](crate::executor::AmcConfigBuilder): every setter
/// is chainable, and [`build`](Self::build) runs
/// [`EngineLimits::validate`] so an invalid combination is caught at
/// construction rather than at [`Engine::with_limits`].
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct EngineLimitsBuilder {
    limits: EngineLimits,
}

impl EngineLimitsBuilder {
    /// Sets [`EngineLimits::max_sessions`].
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.limits.max_sessions = n;
        self
    }

    /// Sets [`EngineLimits::max_frames_per_tick`].
    pub fn max_frames_per_tick(mut self, n: usize) -> Self {
        self.limits.max_frames_per_tick = n;
        self
    }

    /// Sets [`EngineLimits::max_key_frames_per_tick`].
    pub fn max_key_frames_per_tick(mut self, n: usize) -> Self {
        self.limits.max_key_frames_per_tick = n;
        self
    }

    /// Sets [`EngineLimits::max_session_bytes`].
    pub fn max_session_bytes(mut self, n: usize) -> Self {
        self.limits.max_session_bytes = n;
        self
    }

    /// Sets [`EngineLimits::max_total_bytes`].
    pub fn max_total_bytes(mut self, n: usize) -> Self {
        self.limits.max_total_bytes = n;
        self
    }

    /// Sets [`EngineLimits::idle_evict_ticks`].
    pub fn idle_evict_ticks(mut self, n: u64) -> Self {
        self.limits.idle_evict_ticks = n;
        self
    }

    /// Sets [`EngineLimits::tick_deadline_ms`].
    pub fn tick_deadline_ms(mut self, ms: u64) -> Self {
        self.limits.tick_deadline_ms = ms;
        self
    }

    /// Sets [`EngineLimits::worker_threads`].
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.limits.worker_threads = n;
        self
    }

    /// Derives the tick and memory limits from the static cost model and
    /// a deployment envelope: a per-tick latency SLO (`slo_ms`) and the
    /// host's sustained compute (`gflops`, counting one MAC as two
    /// flops) — replacing hand-tuned numbers with
    /// [`CostSummary::capacity_plan`](eva2_analysis::CostSummary::capacity_plan)
    /// over (`net`, `config`):
    ///
    /// * [`EngineLimits::max_frames_per_tick`] — the tick's MAC budget
    ///   divided by the amortized per-frame cost at the policy's key-frame
    ///   gap, charging predicted frames their static op count (suffix +
    ///   RFBME, both exact, + the warp bound);
    /// * [`EngineLimits::max_key_frames_per_tick`] — the budget in whole
    ///   key frames;
    /// * [`EngineLimits::max_sessions`] — one stream per frame slot (each
    ///   live stream submits one frame per tick);
    /// * [`EngineLimits::max_session_bytes`] — [`session_memory_bound`],
    ///   the static per-session worst case (a bound the audited footprint
    ///   can never exceed, so SLO-derived limits never degrade a session);
    /// * [`EngineLimits::max_total_bytes`] — that bound across every
    ///   admitted session.
    ///
    /// A budget too small for even one key frame is clamped to one frame
    /// per tick — the plan's `W-CAP-001` finding; call
    /// [`AmcConfig::analyze`](crate::executor::AmcConfig::analyze) and
    /// `capacity_plan` directly to inspect it.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the target cannot be resolved for `net`,
    /// or [`AmcError::InvalidConfig`] when the analysis could not build a
    /// cost model for the pair (`W-COST-002`).
    pub fn derive_from_slo(
        mut self,
        net: &Network,
        config: &AmcConfig,
        slo_ms: f64,
        gflops: f64,
    ) -> Result<Self, AmcError> {
        let report = config.analyze(net)?;
        let Some(cost) = report.cost else {
            return Err(AmcError::InvalidConfig {
                reason: "SLO derivation needs the static cost model, which analysis \
                         could not build for this network/config (W-COST-002)",
            });
        };
        let key_gap = match config.policy {
            PolicyConfig::AlwaysKey => 1,
            PolicyConfig::StaticRate { period } => period.max(1),
            PolicyConfig::BlockError { max_gap, .. }
            | PolicyConfig::MotionMagnitude { max_gap, .. } => max_gap.max(1),
        };
        let session_bytes = session_memory_bound(net, config)?;
        let plan = cost.capacity_plan(slo_ms, gflops, key_gap, session_bytes);
        self.limits.max_frames_per_tick = plan.max_frames_per_tick;
        self.limits.max_key_frames_per_tick = plan.max_key_frames_per_tick;
        self.limits.max_sessions = plan.max_frames_per_tick;
        self.limits.max_session_bytes = session_bytes;
        self.limits.max_total_bytes = plan.max_total_bytes;
        Ok(self)
    }

    /// Validates and returns the limits.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] naming the violated invariant
    /// (see [`EngineLimits::validate`]).
    pub fn build(self) -> Result<EngineLimits, AmcError> {
        self.limits.validate()?;
        Ok(self.limits)
    }
}

/// Static upper bound on [`StreamSession::memory_footprint`] for any
/// stream served by (`net`, `config`) — the per-session term of the
/// SLO-derived memory budget
/// ([`EngineLimitsBuilder::derive_from_slo`]).
///
/// The bound charges every stored buffer at its worst-case allocated
/// capacity for the network's input geometry:
///
/// * the key image (`h·w` pixel bytes);
/// * the RLE store, all target activation values non-zero, with each
///   push-grown channel vector rounded up to its next power-of-two
///   capacity;
/// * the sparse non-zero view at one `(u32, f32)` entry per activation
///   value (its channel vectors are sized exactly from the RLE entry
///   counts);
/// * the decoded f32 copy of the target activation.
///
/// RFBME scratch is not session memory: the engine keeps one per worker.
///
/// The footprint audit counts allocated capacity, not length, which is
/// why capacity rounding (not just worst-case length) is charged.
///
/// # Errors
///
/// Returns [`AmcError`] when `config` is invalid or its target cannot be
/// resolved for `net`.
pub fn session_memory_bound(net: &Network, config: &AmcConfig) -> Result<usize, AmcError> {
    use std::mem::size_of;
    config.validate()?;
    let (target, _) = config.target.geometry(net)?;
    let input = net.input_shape();
    let mut act = input;
    for layer in &net.layers()[..=target] {
        act = layer.output_shape(act);
    }
    let plane = act.height.saturating_mul(act.width);
    // Push-grown vectors double from a minimum of 4, so their capacity
    // tops out at the next power of two above the worst-case length.
    let npot = |n: usize| n.next_power_of_two().max(4);
    let vec_header = size_of::<Vec<u8>>();
    let image = input.height.saturating_mul(input.width);
    let rle = act.channels.saturating_mul(vec_header).saturating_add(
        act.channels
            .saturating_mul(npot(plane) * size_of::<RleEntry>()),
    );
    let sparse = act
        .channels
        .saturating_mul(vec_header)
        .saturating_add(act.channels.saturating_mul(plane * size_of::<(u32, f32)>()));
    let decoded = act.len().saturating_mul(size_of::<f32>());
    Ok(size_of::<SessionCore>()
        .saturating_add(image)
        .saturating_add(rle)
        .saturating_add(sparse)
        .saturating_add(decoded))
}

/// Engine-side bookkeeping for one admitted session, shared through an
/// [`Arc`]: the session owns the strong reference, the engine holds a
/// [`Weak`] — so dropping a [`StreamSession`] frees its admission slot
/// with no unregister call, and the engine can observe recency and
/// audited footprint without borrowing the session.
#[derive(Debug)]
struct SessionSlot {
    /// Tick of the last admitted frame (LRU ordering for eviction).
    last_tick: AtomicU64,
    /// Audited footprint as of the last completed frame.
    bytes: AtomicUsize,
    /// Set by [`Engine::evict_session`]: admission is revoked and further
    /// submissions return [`AmcError::SessionEvicted`].
    retired: AtomicBool,
    /// Set when a contained panic escaped a job holding this session's
    /// state: the session is quarantined and submissions return
    /// [`AmcError::SessionPoisoned`] until the state is evicted
    /// ([`StreamSession::evict_state`] clears the flag).
    poisoned: AtomicBool,
}

/// A serving engine: one network, shared scratch pools, any number of
/// independent [`StreamSession`]s. See the [module docs](self).
pub struct Engine {
    net: Arc<Network>,
    base: AmcConfig,
    limits: EngineLimits,
    target: usize,
    rf: RfGeometry,
    prefix_macs: u64,
    total_macs: u64,
    /// Per-worker convolution scratch (padded input copies) — one
    /// `GemmScratch` per
    /// [`EngineLimits::worker_threads`], so each worker's CNN hot path is
    /// lock-free and steady-state serving allocates no convolution
    /// scratch no matter how many streams are open. Index 0 is the
    /// calling thread's pool (the only one touched when inline).
    scratches: Vec<GemmScratch>,
    /// Per-worker RFBME buffers, beside the GEMM pools and for the same
    /// reason. A worker's scratch serves every stream that worker
    /// estimates for; its contents never influence a result.
    motion_scratches: Vec<RfbmeScratch>,
    /// Process-unique engine identity, stamped into every session so
    /// cross-engine session use fails loudly instead of silently running
    /// one engine's key state against another engine's network.
    engine_id: u64,
    next_session: u64,
    /// One `process_batch` call = one tick (the backpressure and idleness
    /// clock).
    tick: u64,
    /// Weak handles to every admitted session's bookkeeping slot; dead
    /// weaks (dropped sessions) are pruned on admission and maintenance.
    slots: Vec<Weak<SessionSlot>>,
    /// Deadline-watchdog clock ([`Engine::set_tick_clock`]); monotonic
    /// wall clock unless a test injects a [`FakeClock`].
    clock: Arc<dyn TickClock>,
    /// Chaos hook ([`Engine::set_failure_injector`]); `None` in
    /// production, where every `contain::chaos` call is a no-op.
    injector: Option<Arc<dyn FailureInjector>>,
    /// Containment counters and the tick-duration ring behind
    /// [`Engine::health`].
    health: HealthState,
}

/// Source of process-unique [`Engine`] identities.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(net={}, target={}, rf={:?}, sessions_opened={}, tick={})",
            self.net.name(),
            self.target,
            self.rf,
            self.next_session,
            self.tick
        )
    }
}

impl Engine {
    /// Creates an engine over `net` with `config` as the default session
    /// configuration and no resource limits
    /// ([`EngineLimits::unlimited`]).
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration fails validation, its
    /// target selection cannot be resolved for `net`, or the static
    /// verifier finds an error-severity diagnostic
    /// ([`AmcError::AnalysisRejected`]; bypass with
    /// [`AmcConfigBuilder::allow_unverified`](crate::executor::AmcConfigBuilder::allow_unverified)).
    pub fn new(net: Arc<Network>, config: AmcConfig) -> Result<Self, AmcError> {
        Self::with_limits(net, config, EngineLimits::unlimited())
    }

    /// Creates an engine with explicit resource limits — the serving
    /// lifecycle's admission-control and memory-budget knobs (see the
    /// [module docs](self#lifecycle--failure-modes)).
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration or the limits fail
    /// validation, the target selection cannot be resolved for `net`, or
    /// the static verifier rejects the (network, configuration) pair
    /// ([`AmcError::AnalysisRejected`]).
    pub fn with_limits(
        net: Arc<Network>,
        config: AmcConfig,
        limits: EngineLimits,
    ) -> Result<Self, AmcError> {
        config.validate()?;
        limits.validate()?;
        let (target, rf) = config.target.geometry(&net)?;
        config.verify_resolved(&net, target)?;
        let prefix_macs = net.prefix_macs(target);
        let total_macs = net.total_macs();
        Ok(Self {
            net,
            base: config,
            limits,
            target,
            rf,
            prefix_macs,
            total_macs,
            scratches: (0..limits.worker_threads)
                .map(|_| GemmScratch::new())
                .collect(),
            motion_scratches: (0..limits.worker_threads)
                .map(|_| RfbmeScratch::new())
                .collect(),
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Relaxed),
            next_session: 0,
            tick: 0,
            slots: Vec::new(),
            clock: Arc::new(MonotonicClock::new()),
            injector: None,
            health: HealthState::default(),
        })
    }

    /// Replaces the deadline-watchdog clock — a [`FakeClock`] makes
    /// deadline behaviour fully deterministic in tests.
    pub fn set_tick_clock(&mut self, clock: Arc<dyn TickClock>) {
        self.clock = clock;
    }

    /// Installs a chaos [`FailureInjector`] consulted inside every
    /// contained per-frame job. Injected panics are contained exactly like
    /// real ones (the frame fails typed, the session is quarantined), so
    /// this is the deterministic seam the soak harness drives.
    pub fn set_failure_injector(&mut self, injector: Arc<dyn FailureInjector>) {
        self.injector = Some(injector);
    }

    /// Removes the chaos injector.
    pub fn clear_failure_injector(&mut self) {
        self.injector = None;
    }

    /// Snapshot of the failure-containment layer: panics contained,
    /// quarantines, evictions, deadline pressure, sheds, forced keys, and
    /// recent tick-duration percentiles. See [`EngineHealth`] for field
    /// semantics. Cheap enough to scrape every tick.
    pub fn health(&self) -> EngineHealth {
        let quarantined_sessions = self
            .slots
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|s| s.poisoned.load(Relaxed) && !s.retired.load(Relaxed))
            .count();
        let mut sorted = self.health.recent_us.clone();
        sorted.sort_unstable();
        EngineHealth {
            ticks: self.health.ticks,
            frames_served: self.health.frames_served,
            panics_caught: self.health.panics_caught,
            quarantines: self.health.quarantines,
            quarantined_sessions,
            evicted_sessions: self.health.evicted_sessions,
            deadline_overruns: self.health.deadline_overruns,
            deadline_sheds: self.health.deadline_sheds,
            budget_sheds: self.health.budget_sheds,
            forced_keys: self.health.forced_keys,
            tick_p50_us: HealthState::percentile(&sorted, 50),
            tick_p99_us: HealthState::percentile(&sorted, 99),
        }
    }

    fn check_session(&self, session: &StreamSession) -> Result<(), AmcError> {
        if session.engine_id != self.engine_id {
            return Err(AmcError::EngineMismatch {
                session: session.id,
            });
        }
        Ok(())
    }

    /// The served network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The default session configuration.
    pub fn config(&self) -> AmcConfig {
        self.base
    }

    /// The resource limits this engine enforces.
    pub fn limits(&self) -> EngineLimits {
        self.limits
    }

    /// The resolved target layer index (shared by all sessions).
    pub fn target(&self) -> usize {
        self.target
    }

    /// The receptive-field geometry RFBME matches at.
    pub fn rf_geometry(&self) -> RfGeometry {
        self.rf
    }

    /// MACs of the skipped prefix (key-frame-only work).
    pub fn prefix_macs(&self) -> u64 {
        self.prefix_macs
    }

    /// MACs of a full CNN pass.
    pub fn total_macs(&self) -> u64 {
        self.total_macs
    }

    /// Ticks elapsed (one per [`Engine::process_batch`] call, including
    /// batches of one through [`Engine::process`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Currently admitted sessions: alive (not dropped) and not retired.
    pub fn session_count(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|s| !s.retired.load(Relaxed))
            .count()
    }

    /// Sum of every live session's audited footprint, as of each
    /// session's last submission (served or refused — a contained panic
    /// can move a quarantined session's footprint, and the ledger tracks
    /// it).
    pub fn total_session_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Weak::upgrade)
            .map(|s| s.bytes.load(Relaxed))
            .sum()
    }

    /// Opens a new stream session with the engine's default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::EngineAtCapacity`] when
    /// [`EngineLimits::max_sessions`] sessions are already admitted.
    pub fn open_session(&mut self) -> Result<StreamSession, AmcError> {
        self.open_session_with(self.base)
    }

    /// Opens a new stream session with a per-stream configuration —
    /// streams may differ in policy, warp mode, fixed-point datapath, and
    /// sparsity threshold.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration fails validation or is
    /// refused by the static verifier ([`AmcError::AnalysisRejected`]),
    /// [`AmcError::SessionTargetMismatch`] when it resolves to a different
    /// target layer than the engine's (all sessions must share the
    /// engine's batched prefix split point), or
    /// [`AmcError::EngineAtCapacity`] when the session cap is reached.
    pub fn open_session_with(&mut self, config: AmcConfig) -> Result<StreamSession, AmcError> {
        self.slots.retain(|w| w.strong_count() > 0);
        if self.session_count() >= self.limits.max_sessions {
            return Err(AmcError::EngineAtCapacity {
                limit: self.limits.max_sessions,
            });
        }
        // The engine's own configuration passed the static verifier against
        // this network at construction; only a per-stream override needs a
        // run of its own.
        let core = if config == self.base {
            SessionCore::new_verified(&self.net, &config)?
        } else {
            SessionCore::new(&self.net, &config)?
        };
        if core.target() != self.target {
            return Err(AmcError::SessionTargetMismatch {
                engine: self.target,
                session: core.target(),
            });
        }
        let id = self.next_session;
        self.next_session += 1;
        let slot = Arc::new(SessionSlot {
            last_tick: AtomicU64::new(self.tick),
            bytes: AtomicUsize::new(core.memory_footprint()),
            retired: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        });
        self.slots.push(Arc::downgrade(&slot));
        Ok(StreamSession {
            id,
            engine_id: self.engine_id,
            core,
            slot,
        })
    }

    /// Processes one frame of one stream — identical in behaviour (and
    /// bits) to a batch of one.
    ///
    /// See [`Engine::process_batch`] — every admission and execution
    /// refusal surfaces here the same way, as a [`FrameOutcome::Shed`] or
    /// [`FrameOutcome::Rejected`].
    pub fn process(&mut self, session: &mut StreamSession, frame: &GrayImage) -> FrameOutcome {
        match self.process_batch([(session, frame)]).pop() {
            Some(outcome) => outcome,
            None => FrameOutcome::Rejected(AmcError::Internal {
                what: "a batch of one job yielded no outcome",
            }),
        }
    }

    /// Processes one frame from each of several streams, batching the
    /// key-frame prefixes across streams.
    ///
    /// Every frame is classified by its own session's RFBME estimate and
    /// policy (in submission order); the frames decided *key* then share
    /// one `forward_prefix_batched` pass before each
    /// session completes its frame (sparse store refresh + suffix for
    /// keys, warp + suffix for predicted). Results come back in submission
    /// order and are bit-identical to processing each `(session, frame)`
    /// pair serially through [`Engine::process`].
    ///
    /// One call is one *tick*: the unit of the per-tick frame and
    /// key-frame budgets and of the idle-eviction clock. With
    /// [`EngineLimits::worker_threads`] above one, the per-stream phases
    /// of the tick fan out across scoped worker threads (see the
    /// [module docs](self#threading-model--determinism)) without changing
    /// a single output bit.
    ///
    /// Each job succeeds or is refused independently; a refusal never
    /// disturbs the other jobs, and a refused job's session is left
    /// exactly as it was:
    ///
    /// * [`FrameOutcome::Shed`] — backpressure
    ///   ([`AmcError::BudgetExceeded`]): the tick's frame or key-frame
    ///   budget was exhausted before this job, or the tick overran
    ///   [`EngineLimits::tick_deadline_ms`] before this key-frame upgrade
    ///   (`what: "tick deadline"`); resubmit next tick.
    /// * [`FrameOutcome::Rejected`] — the submission is wrong:
    ///   [`AmcError::EngineMismatch`] (session opened by a different
    ///   engine), [`AmcError::SessionEvicted`] (session retired by
    ///   [`Engine::evict_session`]), [`AmcError::SessionPoisoned`]
    ///   (session quarantined by a contained panic; evict to recover),
    ///   [`AmcError::FrameGeometryMismatch`] (frame resolution differs
    ///   from the network's input shape), [`AmcError::WorkerPanicked`]
    ///   (this job's own worker panicked — contained, and the session is
    ///   now quarantined), or [`AmcError::Internal`] (a violated engine
    ///   invariant — never expected; returned instead of panicking so
    ///   serving survives it).
    pub fn process_batch<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = (&'a mut StreamSession, &'a GrayImage)>,
    ) -> Vec<FrameOutcome> {
        enum Plan {
            Key {
                metrics: Option<FrameMetrics>,
                rfbme_ops: u64,
                forced: bool,
                act: Option<Tensor3>,
            },
            Predicted {
                metrics: Option<FrameMetrics>,
                rfbme_ops: u64,
                motion: RfbmeResult,
            },
        }
        let mut jobs: Vec<(&mut StreamSession, &GrayImage)> = jobs.into_iter().collect();
        self.tick += 1;
        let tick = self.tick;
        let limits = self.limits;
        let engine_id = self.engine_id;
        let workers = self.scratches.len();
        // Cloned handles so the containment/watchdog seams borrow nothing
        // from `self` while the phases below borrow `self.scratches`.
        let clock_arc = Arc::clone(&self.clock);
        let clock: &dyn TickClock = clock_arc.as_ref();
        let injector_arc = self.injector.clone();
        let injector: Option<&dyn FailureInjector> = injector_arc.as_deref();
        let tick_start = clock.now_us();
        let deadline_active = limits.tick_deadline_ms != u64::MAX;
        let deadline_us = limits.tick_deadline_ms.saturating_mul(1000);
        // Sticky overrun marker, shared with the prefix fan-out buckets
        // (their checkpoint is the one that observes mid-phase delays).
        let overrun = AtomicBool::new(false);
        let past_deadline = |overrun: &AtomicBool| {
            if !deadline_active {
                return false;
            }
            if clock.now_us().saturating_sub(tick_start) > deadline_us {
                overrun.store(true, Relaxed);
                return true;
            }
            overrun.load(Relaxed)
        };

        // Phase 0: side-effect-free screening, split by where each check
        // sits in the serial precedence order — `hard` refusals (wrong
        // engine, retired session) precede the per-tick frame budget,
        // geometry refusals follow it — so the admission walk below can
        // surface exactly the error a serial walk would have chosen.
        let mut hard: Vec<Option<AmcError>> = Vec::with_capacity(jobs.len());
        let mut geom: Vec<Option<AmcError>> = Vec::with_capacity(jobs.len());
        for (session, frame) in &jobs {
            hard.push(if session.engine_id != engine_id {
                Some(AmcError::EngineMismatch {
                    session: session.id,
                })
            } else if session.slot.retired.load(Relaxed) {
                Some(AmcError::SessionEvicted {
                    session: session.id,
                })
            } else if session.slot.poisoned.load(Relaxed) {
                Some(AmcError::SessionPoisoned {
                    session: session.id,
                })
            } else {
                None
            });
            geom.push(session.core.check_geometry(frame).err());
        }

        // Phase 1 (multi-worker only): speculative per-stream RFBME for
        // screened-in jobs, fanned out stream-per-worker. `estimate_motion`
        // reads only the session's own key state and writes only the
        // worker's `RfbmeScratch` (whose contents never influence
        // results), so estimating for a frame the admission walk later
        // sheds leaves no observable trace.
        // Bounded by the frame budget so a submission storm against a
        // tight budget does not do unbounded speculative work; the walk
        // falls back to an inline estimate for anything not speculated.
        // Each estimate is a contained job: a panic here (scratch is the
        // only state it can half-mutate, and scratch never influences
        // results) surfaces in the walk at exactly the point the inline
        // estimate would have run.
        type MotionSlot = Option<Result<Option<RfbmeResult>, AmcError>>;
        let mut motions: Vec<MotionSlot> = (0..jobs.len()).map(|_| None).collect();
        if workers > 1 {
            let mut speculated = 0usize;
            let mut items: Vec<(&mut SessionCore, &GrayImage, u64, &mut MotionSlot)> = Vec::new();
            for (i, ((session, frame), slot)) in jobs.iter_mut().zip(motions.iter_mut()).enumerate()
            {
                if hard[i].is_none() && geom[i].is_none() && speculated < limits.max_frames_per_tick
                {
                    speculated += 1;
                    let sid = session.id;
                    items.push((&mut session.core, frame, sid, slot));
                }
            }
            fan_out(
                &mut self.motion_scratches,
                items,
                |scratch, (core, frame, sid, slot)| {
                    *slot = Some(contain::run("estimate", || {
                        contain::chaos(injector, clock, EnginePhase::Estimate, tick, sid);
                        core.estimate_motion(frame, scratch)
                    }));
                },
            );
        }

        // Phase 2: the serial admission walk, in submission order —
        // budgets, classification, and commits are inherently ordered
        // (earlier jobs consume budget first), so this stays on the
        // calling thread. Shedding happens here, strictly before any
        // session mutation.
        let mut admitted = 0usize;
        let mut admitted_keys = 0usize;
        let mut key_slots: Vec<usize> = Vec::new();
        let mut plans: Vec<Result<(Plan, ExecStats), AmcError>> = Vec::with_capacity(jobs.len());
        for (i, (session, frame)) in jobs.iter_mut().enumerate() {
            let plan = (|| {
                if let Some(e) = hard[i].take() {
                    return Err(e);
                }
                if admitted >= limits.max_frames_per_tick {
                    return Err(AmcError::BudgetExceeded {
                        what: "frames per tick",
                        budget: limits.max_frames_per_tick,
                    });
                }
                if let Some(e) = geom[i].take() {
                    return Err(e);
                }
                // A speculative estimate is consumed (Ok or panic) exactly
                // where the inline estimate would run, so error precedence
                // matches the single-worker walk.
                let motion = match motions[i].take() {
                    Some(speculated) => speculated?,
                    None => {
                        let sid = session.id;
                        let core = &session.core;
                        let scratch = &mut self.motion_scratches[0];
                        contain::run("estimate", || {
                            contain::chaos(injector, clock, EnginePhase::Estimate, tick, sid);
                            core.estimate_motion(frame, scratch)
                        })?
                    }
                };
                let plan = {
                    let sid = session.id;
                    let core = &mut session.core;
                    contain::run("admit", || {
                        contain::chaos(injector, clock, EnginePhase::Admit, tick, sid);
                        core.classify(&motion)
                    })?
                };
                if plan.kind() == FrameKind::Key {
                    // Deadline watchdog: once the tick is past its soft
                    // budget, no *new* key-frame upgrade is admitted —
                    // shed pre-commit, zero trace, like any other budget.
                    if past_deadline(&overrun) {
                        return Err(AmcError::BudgetExceeded {
                            what: "tick deadline",
                            budget: usize::try_from(limits.tick_deadline_ms).unwrap_or(usize::MAX),
                        });
                    }
                    if admitted_keys >= limits.max_key_frames_per_tick {
                        return Err(AmcError::BudgetExceeded {
                            what: "key frames per tick",
                            budget: limits.max_key_frames_per_tick,
                        });
                    }
                }
                // Admitted: from here on the frame is committed. The stats
                // snapshot (taken before the commit) is what turns the
                // session's counters into this frame's delta. The commit
                // is contained too — a panic mid-commit leaves counters
                // half-bumped, which is exactly what quarantine is for.
                let stats_before = session.core.stats();
                contain::run("admit", || session.core.commit_frame(&plan))?;
                admitted += 1;
                session.slot.last_tick.store(tick, Relaxed);
                match plan.kind() {
                    FrameKind::Key => {
                        admitted_keys += 1;
                        key_slots.push(i);
                        Ok((
                            Plan::Key {
                                metrics: plan.metrics,
                                rfbme_ops: plan.rfbme_ops,
                                forced: plan.forced,
                                act: None,
                            },
                            stats_before,
                        ))
                    }
                    FrameKind::Predicted => {
                        let motion = motion.ok_or(AmcError::Internal {
                            what: "predicted frame requires a motion estimate",
                        })?;
                        Ok((
                            Plan::Predicted {
                                metrics: plan.metrics,
                                rfbme_ops: plan.rfbme_ops,
                                motion,
                            },
                            stats_before,
                        ))
                    }
                }
            })();
            // Quarantine: a contained panic may have left this session's
            // state half-mutated, so the session is poisoned until it is
            // evicted and rehydrated through the forced-key seam.
            if matches!(&plan, Err(AmcError::WorkerPanicked { .. })) {
                session.slot.poisoned.store(true, Relaxed);
            }
            plans.push(plan);
        }

        // Phase 3: prefix passes over the admitted key frames. One worker
        // (or one key frame) runs a single batched pass with the calling
        // thread's scratch — exactly the pre-pool engine. More workers
        // fan the key frames out frame-per-thread (the PR-4 finding: one
        // frame per thread beats splitting one frame's GEMM), each worker
        // running one `forward_prefix_batched` sub-batch with its own
        // scratch; the batched prefix is bit-identical for any partition
        // of the batch, so the split never changes an output bit. The
        // geometry screen guarantees every input shares the network's
        // input shape, as the batched prefix requires.
        // Containment note: the chaos hook runs per frame (so injection
        // stays pure in `(tick, session)`), but a real panic inside the
        // batched pass cannot name a frame, so it costs — and quarantines —
        // every session in its bucket.
        type ActSlot = Option<Result<Tensor3, AmcError>>;
        let mut acts: Vec<ActSlot> = (0..key_slots.len()).map(|_| None).collect();
        if !key_slots.is_empty() {
            let net: &Network = &self.net;
            let target = self.target;
            type PrefixJob<'f> = (
                Vec<(&'f GrayImage, u64, &'f AtomicBool)>,
                Vec<&'f mut ActSlot>,
            );
            let run_bucket = |scratch: &mut GemmScratch, (frames, mut slots): PrefixJob<'_>| {
                // Deadline checkpoint between fan-out buckets: committed
                // key frames always finish (shedding happens at
                // admission), but an overrun observed here is recorded
                // for the health snapshot.
                past_deadline(&overrun);
                let mut clean: Vec<usize> = Vec::new();
                for (k, &(_, sid, poisoned)) in frames.iter().enumerate() {
                    match contain::run("prefix", || {
                        contain::chaos(injector, clock, EnginePhase::Prefix, tick, sid);
                    }) {
                        Ok(()) => clean.push(k),
                        Err(e) => {
                            poisoned.store(true, Relaxed);
                            *slots[k] = Some(Err(e));
                        }
                    }
                }
                if clean.is_empty() {
                    return;
                }
                let inputs: Vec<Tensor3> = clean.iter().map(|&k| frames[k].0.to_tensor()).collect();
                match contain::run("prefix", || {
                    net.forward_prefix_batched(inputs, target, scratch)
                }) {
                    Ok(outs) => {
                        for (&k, out) in clean.iter().zip(outs) {
                            *slots[k] = Some(Ok(out));
                        }
                    }
                    Err(e) => {
                        for &k in &clean {
                            frames[k].2.store(true, Relaxed);
                            *slots[k] = Some(Err(e.clone()));
                        }
                    }
                }
            };
            if workers == 1 || key_slots.len() <= 1 {
                let job: PrefixJob<'_> = (
                    key_slots
                        .iter()
                        .map(|&i| (jobs[i].1, jobs[i].0.id, &jobs[i].0.slot.poisoned))
                        .collect(),
                    acts.iter_mut().collect(),
                );
                run_bucket(&mut self.scratches[0], job);
            } else {
                let buckets_n = workers.min(key_slots.len());
                let mut buckets: Vec<PrefixJob<'_>> =
                    (0..buckets_n).map(|_| (Vec::new(), Vec::new())).collect();
                for ((k, &i), slot) in key_slots.iter().enumerate().zip(acts.iter_mut()) {
                    let (frames, slots) = &mut buckets[k % buckets_n];
                    frames.push((jobs[i].1, jobs[i].0.id, &jobs[i].0.slot.poisoned));
                    slots.push(slot);
                }
                fan_out(&mut self.scratches, buckets, run_bucket);
            }
        }
        for (&i, act) in key_slots.iter().zip(acts) {
            match act {
                Some(Ok(out)) => {
                    if let Ok((Plan::Key { act: slot, .. }, _)) = &mut plans[i] {
                        *slot = Some(out);
                    }
                }
                Some(Err(e)) => plans[i] = Err(e),
                // `None` is the missing-prefix seam: phase 4 reports it as
                // a typed `AmcError::Internal`.
                None => {}
            }
        }

        // Phase 4: per-stream completion (key sparse-encode + suffix, or
        // warp + suffix), fanned out stream-per-worker. Jobs are distinct
        // sessions by construction (`&mut` exclusivity), so this phase is
        // embarrassingly parallel; outcomes land in per-job slots, so the
        // returned order is submission order regardless of scheduling.
        let mut outcomes: Vec<Option<FrameOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let net: &Network = &self.net;
        let max_session_bytes = limits.max_session_bytes;
        let mut items: Vec<(
            &mut StreamSession,
            &GrayImage,
            Plan,
            ExecStats,
            &mut Option<FrameOutcome>,
        )> = Vec::new();
        for (((session, frame), plan), slot) in jobs.iter_mut().zip(plans).zip(outcomes.iter_mut())
        {
            match plan {
                Err(e) => {
                    // Keep the audited footprint honest even for failed
                    // jobs: a contained panic after admission may have
                    // mutated the session's state (that's what quarantine
                    // is for), and the memory ledger must reflect it.
                    session
                        .slot
                        .bytes
                        .store(session.core.memory_footprint(), Relaxed);
                    *slot = Some(FrameOutcome::from_error(e));
                }
                Ok((plan, stats_before)) => items.push((session, frame, plan, stats_before, slot)),
            }
        }
        past_deadline(&overrun);
        fan_out(
            &mut self.scratches,
            items,
            |scratch, (session, frame, plan, stats_before, slot)| {
                let sid = session.id;
                let core = &mut session.core;
                let result = contain::run("complete", || {
                    contain::chaos(injector, clock, EnginePhase::Complete, tick, sid);
                    match plan {
                        Plan::Key {
                            metrics,
                            rfbme_ops,
                            forced,
                            act,
                        } => match act {
                            None => FrameOutcome::Rejected(AmcError::Internal {
                                what: "one prefix activation per key frame",
                            }),
                            Some(act) => {
                                let residual = metrics.as_ref().map(|m| m.block_error_per_pixel);
                                let served = core
                                    .finish_key_frame(net, scratch, frame, act, metrics, rfbme_ops);
                                // Per-session budget: rather than let one
                                // stream grow past its allowance, trim its
                                // state — the stream degrades to
                                // bounded-memory all-key serving instead of
                                // failing.
                                if core.memory_footprint() > max_session_bytes {
                                    core.evict_state();
                                }
                                let stats = core.stats().delta_since(&stats_before);
                                match (forced, residual) {
                                    (true, Some(residual)) => FrameOutcome::ForcedKey {
                                        residual,
                                        frame: served,
                                        stats,
                                    },
                                    _ => FrameOutcome::Key {
                                        frame: served,
                                        stats,
                                    },
                                }
                            }
                        },
                        Plan::Predicted {
                            metrics,
                            rfbme_ops,
                            motion,
                        } => {
                            match core.finish_predicted(net, scratch, &motion, metrics, rfbme_ops) {
                                Ok(served) => {
                                    let stats = core.stats().delta_since(&stats_before);
                                    FrameOutcome::Predicted {
                                        frame: served,
                                        stats,
                                    }
                                }
                                Err(e) => FrameOutcome::from_error(e),
                            }
                        }
                    }
                });
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        // A panic mid-completion may have left key state
                        // half-written: quarantine the session.
                        session.slot.poisoned.store(true, Relaxed);
                        FrameOutcome::Rejected(e)
                    }
                };
                // Unconditional: a contained panic or typed refusal may
                // still have moved the footprint (e.g. the admission
                // commit before a completion panic), and the memory
                // ledger must track the core, not just happy paths.
                session
                    .slot
                    .bytes
                    .store(session.core.memory_footprint(), Relaxed);
                *slot = Some(outcome);
            },
        );
        let results: Vec<FrameOutcome> = outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or(FrameOutcome::Rejected(AmcError::Internal {
                    what: "a job produced no outcome",
                }))
            })
            .collect();

        // Tick epilogue: the health ledger. Serial, on the calling thread,
        // after every worker has finished — no outcome can race with it.
        let elapsed = clock.now_us().saturating_sub(tick_start);
        self.health.ticks += 1;
        self.health.record_tick(elapsed);
        if deadline_active && (elapsed > deadline_us || overrun.load(Relaxed)) {
            self.health.deadline_overruns += 1;
        }
        for outcome in &results {
            match outcome {
                FrameOutcome::Shed(AmcError::BudgetExceeded {
                    what: "tick deadline",
                    ..
                }) => self.health.deadline_sheds += 1,
                FrameOutcome::Shed(_) => self.health.budget_sheds += 1,
                FrameOutcome::Rejected(AmcError::WorkerPanicked { .. }) => {
                    self.health.panics_caught += 1;
                    self.health.quarantines += 1;
                }
                FrameOutcome::Rejected(_) => {}
                FrameOutcome::ForcedKey { .. } => {
                    self.health.forced_keys += 1;
                    self.health.frames_served += 1;
                }
                FrameOutcome::Key { .. } | FrameOutcome::Predicted { .. } => {
                    self.health.frames_served += 1;
                }
            }
        }
        results
    }

    /// Housekeeping over the offered sessions: evicts the key state of
    /// sessions idle for at least [`EngineLimits::idle_evict_ticks`]
    /// ticks, then least-recently-used sessions until the engine-wide
    /// audited footprint fits [`EngineLimits::max_total_bytes`]. Returns
    /// the number of evictions performed.
    ///
    /// Eviction is transparent (see
    /// [`StreamSession::evict_state`]): an evicted stream's next frame
    /// rehydrates as a key frame. The engine can only evict sessions it is
    /// *offered* — sessions held elsewhere still count toward the total
    /// (their slots are live), so a caller wanting the budget enforced
    /// must offer every session it holds.
    pub fn maintain<'a>(
        &mut self,
        sessions: impl IntoIterator<Item = &'a mut StreamSession>,
    ) -> usize {
        self.slots.retain(|w| w.strong_count() > 0);
        let mut own: Vec<&mut StreamSession> = sessions
            .into_iter()
            .filter(|s| s.engine_id == self.engine_id)
            .collect();
        let tick = self.tick;
        let mut evicted = 0usize;
        for session in own.iter_mut() {
            if session.core.has_state()
                && tick.saturating_sub(session.slot.last_tick.load(Relaxed))
                    >= self.limits.idle_evict_ticks
                && session.evict_state()
            {
                evicted += 1;
            }
        }
        while self.total_session_bytes() > self.limits.max_total_bytes {
            let victim = own
                .iter_mut()
                .filter(|s| s.core.has_state())
                .min_by_key(|s| (s.slot.last_tick.load(Relaxed), s.id));
            let Some(victim) = victim else {
                // Nothing offered is evictable; the budget cannot be met
                // from here.
                break;
            };
            if victim.evict_state() {
                evicted += 1;
            }
        }
        self.health.evicted_sessions += evicted as u64;
        evicted
    }

    /// Hard-evicts a session: drops its state *and revokes its
    /// admission*. The slot is freed immediately (another session may be
    /// opened in its place) and every later submission of this session
    /// returns [`AmcError::SessionEvicted`]. Use
    /// [`StreamSession::evict_state`] (or [`Engine::maintain`]) for the
    /// soft, transparent variant.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::EngineMismatch`] when `session` was opened by a
    /// different engine.
    pub fn evict_session(&mut self, session: &mut StreamSession) -> Result<(), AmcError> {
        self.check_session(session)?;
        session.slot.retired.store(true, Relaxed);
        session.evict_state();
        self.health.evicted_sessions += 1;
        Ok(())
    }
}

/// Per-stream serving state: key-frame buffers, policy, statistics. Opened
/// by [`Engine::open_session`]; submit frames through
/// [`Engine::process`] / [`Engine::process_batch`].
#[derive(Debug)]
pub struct StreamSession {
    id: u64,
    /// Identity of the engine that opened this session; checked on every
    /// submission (see [`Engine::process`]).
    engine_id: u64,
    core: SessionCore,
    /// Shared bookkeeping with the engine (recency, footprint, retired
    /// flag); the engine holds only a [`Weak`], so dropping the session
    /// frees its admission slot.
    slot: Arc<SessionSlot>,
}

impl StreamSession {
    /// The engine-assigned session id (unique per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Aggregate statistics over this stream's processed frames.
    pub fn stats(&self) -> ExecStats {
        self.core.stats()
    }

    /// The resolved target layer index.
    pub fn target(&self) -> usize {
        self.core.target()
    }

    /// Drops stored state, forcing this stream's next frame to be a key
    /// frame (e.g. on a known scene cut or after a seek). Unlike
    /// [`StreamSession::evict_state`] this is not counted as an eviction
    /// and does not lift a quarantine.
    pub fn reset(&mut self) {
        self.core.reset();
        self.slot.bytes.store(self.core.memory_footprint(), Relaxed);
    }

    /// Evicts this session's key state, returning it to its just-opened
    /// footprint; counted in [`ExecStats::evictions`] when
    /// key state was present (the returned flag). The next frame
    /// *rehydrates* as a key frame, bit-identical to a fresh session from
    /// that frame on.
    ///
    /// Eviction is also the quarantine exit: dropping the suspect state is
    /// exactly what makes a poisoned session trustworthy again, so the
    /// poisoned flag is cleared here (and nowhere else).
    pub fn evict_state(&mut self) -> bool {
        let had_state = self.core.evict_state();
        self.slot.bytes.store(self.core.memory_footprint(), Relaxed);
        self.slot.poisoned.store(false, Relaxed);
        had_state
    }

    /// Whether this session is quarantined after a contained worker panic
    /// (every submission returns [`AmcError::SessionPoisoned`] until
    /// [`StreamSession::evict_state`] rehydrates it).
    pub fn is_quarantined(&self) -> bool {
        self.slot.poisoned.load(Relaxed)
    }

    /// Audited heap footprint: the session struct plus the stored key
    /// image and compressed/sparse/decoded activations, by allocated
    /// capacity. This is the figure the engine's
    /// [`EngineLimits::max_session_bytes`] / `max_total_bytes` budgets
    /// are enforced against.
    pub fn memory_footprint(&self) -> usize {
        self.core.memory_footprint()
    }

    /// Whether [`Engine::evict_session`] has revoked this session's
    /// admission (submissions return [`AmcError::SessionEvicted`]).
    pub fn is_evicted(&self) -> bool {
        self.slot.retired.load(Relaxed)
    }

    /// The compressed key activation currently buffered, if any.
    pub fn key_activation(&self) -> Option<&RleActivation> {
        self.core.key_activation()
    }

    /// The stored key-frame pixel buffer, if any.
    pub fn key_image(&self) -> Option<&GrayImage> {
        self.core.key_image()
    }
}

// Sessions hop threads in serving deployments (one task per camera);
// enforce the property where the type is defined.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamSession>();
    assert_send::<Engine>();
};

/// The serving [`Engine`] behind the
/// [`FrameExecutor`](crate::executor::FrameExecutor) interface: one
/// unlimited engine driving one stream.
///
/// This is the adapter the experiment protocols
/// (`eva2_experiments::run_policy_with`) use so protocol runs funnel
/// through the serving entry point. The engine is opened with
/// [`EngineLimits::unlimited`] (plus the forced `worker_threads` count), so
/// every frame is admitted and [`FrameOutcome::into_result`] cannot refuse;
/// outputs are bit-identical to the serial
/// [`AmcExecutor`](crate::executor::AmcExecutor) for any worker count.
pub struct EngineExecutor {
    engine: Engine,
    session: StreamSession,
}

impl EngineExecutor {
    /// Builds an unlimited single-stream engine over `net` with a forced
    /// `worker_threads` count.
    pub fn new(
        net: Arc<Network>,
        config: AmcConfig,
        worker_threads: usize,
    ) -> Result<Self, AmcError> {
        let limits = EngineLimits::builder()
            .worker_threads(worker_threads)
            .build()?;
        let mut engine = Engine::with_limits(net, config, limits)?;
        let session = engine.open_session()?;
        Ok(Self { engine, session })
    }

    /// The engine driving this executor.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl crate::executor::FrameExecutor for EngineExecutor {
    fn process_frame(&mut self, frame: &GrayImage) -> Result<AmcFrameResult, AmcError> {
        // An unlimited engine sheds nothing, so any refusal here (a bad
        // frame, a contained panic) surfaces as its typed error for the
        // caller to stop on — never as a panic that could kill a process
        // serving other streams.
        self.engine.process(&mut self.session, frame).into_result()
    }

    fn stats(&self) -> ExecStats {
        self.session.stats()
    }

    fn reset(&mut self) {
        self.session.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AmcExecutor;
    use crate::policy::PolicyConfig;
    use crate::target::TargetSelection;
    use eva2_cnn::zoo;

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
        let mut sessions: Vec<StreamSession> =
            (0..3).map(|_| engine.open_session().unwrap()).collect();
        let frames: Vec<GrayImage> = (0..3).map(|i| frame(i * 5)).collect();
        // All three first frames are key frames → batched prefix.
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
        let mut a =
            Engine::new(Arc::new(zoo::tiny_fasterm(0).network), AmcConfig::default()).unwrap();
        let mut b =
            Engine::new(Arc::new(zoo::tiny_fasterm(1).network), AmcConfig::default()).unwrap();
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
    fn session_budget_degrades_to_bounded_memory_key_serving() {
        let net = Arc::new(zoo::tiny_fasterm(0).network);
        // Far below any real key-state footprint: every key frame is
        // immediately trimmed.
        let limits = EngineLimits {
            max_session_bytes: std::mem::size_of::<SessionCore>() + 1,
            ..EngineLimits::unlimited()
        };
        let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).unwrap();
        let mut session = engine.open_session().unwrap();
        let f = frame(0);
        for _ in 0..3 {
            let r = engine.process(&mut session, &f).unwrap();
            assert!(r.is_key, "with no retained state every frame re-keys");
            assert!(
                session.memory_footprint() <= engine.limits().max_session_bytes,
                "footprint {} exceeds the budget the engine promised to hold",
                session.memory_footprint()
            );
        }
        assert_eq!(session.stats().evictions, 3);
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
    fn residual_confidence_bound_forces_key_frames() {
        let net = Arc::new(zoo::tiny_fasterm(0).network);
        // A policy that never keys on error, bounded by the confidence
        // guard alone.
        let config = AmcConfig {
            policy: PolicyConfig::BlockError {
                threshold: f32::INFINITY,
                max_gap: 1000,
            },
            max_residual_error: 0.5,
            ..Default::default()
        };
        let mut engine = Engine::new(net, config).unwrap();
        let mut session = engine.open_session().unwrap();
        engine.process(&mut session, &frame(0)).unwrap();
        // Content RFBME cannot explain: high residual error everywhere.
        let noise = GrayImage::from_fn(48, 48, |y, x| ((y * 37 + x * 101) % 255) as u8);
        match engine.process(&mut session, &noise) {
            FrameOutcome::ForcedKey {
                residual,
                frame,
                stats,
            } => {
                assert!(frame.is_key, "a forced key frame is a key frame");
                assert!(
                    residual > 0.5,
                    "the outcome carries the residual that tripped the bound, got {residual}"
                );
                assert_eq!(stats.forced_keys, 1, "this frame's delta records the force");
                assert_eq!(stats.key_frames, 1);
            }
            other => panic!("unexplained motion must degrade to a forced key, got {other:?}"),
        }
        assert_eq!(session.stats().forced_keys, 1);
        // The same scene under an unlimited bound would have predicted.
        let mut loose = Engine::new(
            Arc::new(zoo::tiny_fasterm(0).network),
            AmcConfig {
                policy: PolicyConfig::BlockError {
                    threshold: f32::INFINITY,
                    max_gap: 1000,
                },
                ..Default::default()
            },
        )
        .unwrap();
        let mut ls = loose.open_session().unwrap();
        loose.process(&mut ls, &frame(0)).unwrap();
        assert!(!loose.process(&mut ls, &noise).unwrap().is_key);
        assert_eq!(ls.stats().forced_keys, 0);
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
        let want = std::mem::size_of::<SessionCore>()
            + core.state.as_ref().map_or(0, KeyState::heap_bytes);
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
        // Forced worker counts (this container is single-CPU): the fanned
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
            // (stream s cuts hard at t == s + 1 via a shifted pattern).
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
            // rehydrates through the forced-key seam, bit-identical to a
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
            // The estimate runs only with key state present, speculatively
            // (workers > 1) or inline — contained either way.
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
            // prefix bucket, b's key frame completes normally.
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
            (0..1000u64).any(|t| chaos.action(EnginePhase::Admit, t, 0)
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

    #[test]
    fn engine_executor_surfaces_refusals_as_typed_errors() {
        // Regression for the removed `.expect("an unlimited engine serves
        // every frame")`: a bad frame through the FrameExecutor seam must
        // come back as a typed error, not a harness-killing panic.
        use crate::executor::FrameExecutor;
        let net = Arc::new(zoo::tiny_fasterm(0).network);
        let mut exec = EngineExecutor::new(net, AmcConfig::default(), 1).unwrap();
        assert!(exec.process_frame(&frame(0)).unwrap().is_key);
        let small = GrayImage::from_fn(24, 24, |y, x| ((y * 7 + x) % 199) as u8);
        match exec.process_frame(&small) {
            Err(AmcError::FrameGeometryMismatch { got_height: 24, .. }) => {}
            other => panic!("expected a typed geometry refusal, got {other:?}"),
        }
        // The refusal cost nothing: the stream keeps serving.
        assert!(!exec.process_frame(&frame(1)).unwrap().is_key);
    }
}
