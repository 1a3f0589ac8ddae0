//! The per-stream state: the AMC frame state machine ([`SessionCore`]), the
//! engine's bookkeeping slot for each session, and the public
//! [`StreamSession`] handle that owns both.

use super::Engine;
use crate::error::AmcError;
use crate::executor::{AmcConfig, AmcFrameResult, ExecStats, WarpMode};
use crate::policy::{FrameKind, FrameMetrics, PolicyConfig};
use crate::sparse::{QuantizedActivation, RleActivation};
use crate::warp::{warp_quantized_fixed_sparse, warp_quantized_sparse};
use eva2_cnn::network::Network;
use eva2_motion::rfbme::{RfGeometry, Rfbme, RfbmeResult, RfbmeScratch};
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GemmScratch, GrayImage, Tensor3};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Stored key-frame state: the pixel buffer RFBME searches against and
/// the one copy of the target activation, as dense Q8.8 bits. The warp
/// reads the activation directly; the suffix's non-zero view and the
/// hardware's RLE stream are derived from it when needed, never stored.
#[derive(Debug, Clone)]
pub(super) struct KeyState {
    image: GrayImage,
    act: QuantizedActivation,
}

impl KeyState {
    /// Heap bytes held by the stored buffers (allocated capacity).
    pub(super) fn heap_bytes(&self) -> usize {
        self.image.heap_bytes() + self.act.heap_bytes()
    }
}

/// The classification of one submitted frame, produced by
/// [`SessionCore::classify`] *without* mutating the session. A plan is
/// either committed ([`SessionCore::commit_frame`]) and executed, or
/// discarded when the engine sheds the frame — which is what lets
/// backpressure reject work without corrupting admitted streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FramePlan {
    pub(super) kind: FrameKind,
    /// The policy said `Predicted` but the residual block error exceeded
    /// the confidence bound, so the frame was degraded to a key frame.
    pub(super) forced: bool,
    pub(super) metrics: Option<FrameMetrics>,
    pub(super) rfbme_ops: u64,
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
    policy: PolicyConfig,
    pub(super) state: Option<KeyState>,
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
            policy: config.policy,
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

    pub(crate) fn policy_name(&self) -> &'static str {
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
    /// key-frame buffers (image and Q8.8 activation), by allocated capacity.
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

    pub(crate) fn key_activation(&self) -> Option<RleActivation> {
        self.state.as_ref().map(|s| s.act.to_rle())
    }

    pub(crate) fn key_image(&self) -> Option<&GrayImage> {
        self.state.as_ref().map(|s| &s.image)
    }

    /// Whether the next frame's kind depends on its motion: key state is
    /// stored and the policy has not already made the frame a key frame
    /// ([`PolicyConfig::forces_key`]). When it is false the frame is a key
    /// frame and no motion estimate is read.
    pub(crate) fn needs_motion(&self) -> bool {
        self.state.is_some() && !self.policy.forces_key(self.frames_since_key + 1)
    }

    /// Runs this stream's RFBME from the stored key frame to `image` in the
    /// caller's scratch — one per worker, shared by every stream that
    /// worker serves; its contents never influence a result (see
    /// `RfbmeScratch`). `None`, without searching, when the frame does not
    /// [need motion](SessionCore::needs_motion).
    pub(crate) fn estimate_motion(
        &self,
        image: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> Option<RfbmeResult> {
        let state = self.state.as_ref().filter(|_| self.needs_motion())?;
        Some(self.rfbme.estimate_with(&state.image, image, scratch))
    }

    /// Classifies a frame without committing anything: derives the metrics
    /// the incoming frame *would* see, asks the policy, and applies the
    /// residual-error confidence bound. Counters are untouched, so a plan
    /// may be discarded (frame shed) with no trace. A frame that does not
    /// [need motion](SessionCore::needs_motion) is a key frame with no
    /// metrics and no RFBME ops, whatever estimate the caller supplies, so
    /// a caller that estimated anyway gets the same plan as one that did
    /// not.
    pub(crate) fn classify(&self, motion: &Option<RfbmeResult>) -> FramePlan {
        let motion = motion.as_ref().filter(|_| self.needs_motion());
        let metrics = motion.map(|m| FrameMetrics::from_rfbme(m, self.frames_since_key + 1));
        let rfbme_ops = motion.map_or(0, |m| m.ops());
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
    /// quantizes it into the key store, runs the suffix, refreshes the key
    /// state.
    pub(crate) fn finish_key_frame(
        &mut self,
        net: &Network,
        scratch: &mut GemmScratch,
        image: &GrayImage,
        prefix_out: Tensor3,
        metrics: Option<FrameMetrics>,
        rfbme_ops: u64,
    ) -> AmcFrameResult {
        let act = QuantizedActivation::quantize(&prefix_out, self.sparsity_threshold);
        let compression = act.compression();
        // The suffix consumes the *quantized* activation on real hardware;
        // feed it the store's non-zeros (skip-zero, no densify) so key and
        // predicted frames share numerics.
        let output = net.forward_suffix_sparse(&act.to_sparse(), self.target, scratch);
        self.state = Some(KeyState {
            image: image.clone(),
            act,
        });
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
        // Both arms feed the suffix through the sparse entry point, so zero
        // runs are skipped, not multiplied (§IV skip-zero behaviour). The
        // warp reads the Q8.8 store and emits the sparse representation
        // *directly* (see `crate::warp`), bit-identical to
        // dense-warp-then-`from_dense` on the dequantized store.
        let (sparse, warp_stats) = match self.warp_mode {
            WarpMode::Memoize => (state.act.to_sparse(), None),
            WarpMode::MotionCompensate => {
                let field = &motion.field;
                let (sparse, ws) = if self.fixed_point {
                    warp_quantized_fixed_sparse(&state.act, field, self.rf.stride)
                } else {
                    warp_quantized_sparse(
                        &state.act,
                        field,
                        self.rf.stride,
                        Interpolation::Bilinear,
                    )
                };
                (sparse, Some(ws))
            }
        };
        let output = net.forward_suffix_sparse(&sparse, self.target, scratch);
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
        // RFBME runs whenever the frame's kind depends on it — its block
        // errors drive the key-frame choice module even when warping is
        // disabled (memoization mode) — and is skipped on a frame the
        // policy has already made key.
        let motion = self.estimate_motion(image, motion_scratch);
        self.process_with_motion(net, scratch, image, motion)
    }

    /// [`SessionCore::process`] with an externally computed motion
    /// estimate: decide, execute. The estimate is ignored on a frame that
    /// does not [need motion](SessionCore::needs_motion).
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

/// Engine-side bookkeeping for one admitted session, shared through an
/// [`Arc`]: the session owns the strong reference, the engine holds a
/// [`Weak`](std::sync::Weak) — so dropping a [`StreamSession`] frees its
/// admission slot with no unregister call, and the engine can observe
/// recency and audited footprint without borrowing the session.
#[derive(Debug)]
pub(super) struct SessionSlot {
    /// Tick of the last admitted frame (LRU ordering for eviction).
    pub(super) last_tick: AtomicU64,
    /// Audited footprint as of the last completed frame.
    pub(super) bytes: AtomicUsize,
    /// Set by [`Engine::evict_session`]: admission is revoked and further
    /// submissions return [`AmcError::SessionEvicted`].
    pub(super) retired: AtomicBool,
    /// Set when a contained panic escaped a job holding this session's
    /// state: the session is quarantined and submissions return
    /// [`AmcError::SessionPoisoned`] until the state is evicted
    /// ([`StreamSession::evict_state`] clears the flag).
    pub(super) poisoned: AtomicBool,
}

/// Per-stream serving state: key-frame buffers, policy, statistics. Opened
/// by [`Engine::open_session`]; submit frames through
/// [`Engine::process`] / [`Engine::process_batch`].
#[derive(Debug)]
pub struct StreamSession {
    pub(super) id: u64,
    /// Identity of the engine that opened this session; checked on every
    /// submission (see [`Engine::process`]).
    pub(super) engine_id: u64,
    pub(super) core: SessionCore,
    /// Shared bookkeeping with the engine (recency, footprint, retired
    /// flag); the engine holds only a weak handle, so dropping the session
    /// frees its admission slot.
    pub(super) slot: Arc<SessionSlot>,
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
    /// image and Q8.8 key activation, by allocated capacity — exactly
    /// [`session_memory_bound`](super::session_memory_bound) once a key
    /// frame is stored. This is the figure the engine's
    /// [`EngineLimits::max_session_bytes`](super::EngineLimits::max_session_bytes) /
    /// `max_total_bytes` budgets
    /// are enforced against.
    pub fn memory_footprint(&self) -> usize {
        self.core.memory_footprint()
    }

    /// Whether [`Engine::evict_session`] has revoked this session's
    /// admission (submissions return [`AmcError::SessionEvicted`]).
    pub fn is_evicted(&self) -> bool {
        self.slot.retired.load(Relaxed)
    }

    /// The buffered key activation as the hardware would hold it (RLE,
    /// derived from the stored Q8.8 copy on each call), if any.
    pub fn key_activation(&self) -> Option<RleActivation> {
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
