//! The AMC execution pipeline (Fig 1 / Fig 6 of the paper).
//!
//! [`AmcExecutor`] plays the role of the EVA² unit in front of the layer
//! accelerators: it holds the two pixel buffers (the stored key frame and
//! the current frame), runs RFBME, consults the key-frame choice module, and
//! either (a) forwards pixels to the full CNN and refreshes the sparse key
//! activation buffer, or (b) warps the stored activation and invokes only
//! the CNN suffix.

use crate::error::AmcError;
use crate::policy::{FrameMetrics, PolicyConfig};
use crate::serve::SessionCore;
use crate::sparse::RleActivation;
use crate::target::TargetSelection;
use crate::warp::WarpStats;
use eva2_cnn::network::Network;
use eva2_motion::rfbme::{RfGeometry, Rfbme, RfbmeResult, RfbmeScratch, SearchParams};
use eva2_tensor::{GemmScratch, GrayImage, Tensor3};
use serde::{Deserialize, Serialize};

/// How predicted frames update the stored activation (§IV-E1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarpMode {
    /// Full activation motion compensation (detection networks).
    MotionCompensate {
        /// Interpolation used for fractional destinations.
        bilinear: bool,
    },
    /// Reuse the stored activation unchanged — "simple memoization", which
    /// the paper found *better* for translation-insensitive classification
    /// (AlexNet): warping "can even degrade them by introducing noise".
    Memoize,
}

impl Default for WarpMode {
    fn default() -> Self {
        WarpMode::MotionCompensate { bilinear: true }
    }
}

/// Configuration for an [`AmcExecutor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmcConfig {
    /// Which layer ends the CNN prefix.
    pub target: TargetSelection,
    /// Warp vs memoize on predicted frames.
    pub warp: WarpMode,
    /// RFBME search window.
    pub search: SearchParams,
    /// Key-frame policy.
    pub policy: PolicyConfig,
    /// Use the bit-accurate Q8.8 warp datapath instead of the `f32`
    /// reference.
    pub fixed_point: bool,
    /// Near-zero suppression threshold for the sparse activation store.
    pub sparsity_threshold: f32,
    /// Confidence bound on the RFBME residual: when a frame the policy
    /// decided *predicted* carries a per-pixel block error above this, the
    /// match did not explain the frame (occlusion, corruption, a tolerated
    /// cut) and warping would propagate garbage — the frame is degraded to
    /// a key frame instead (§III-C), counted in
    /// [`ExecStats::forced_keys`]. The default (`f32::INFINITY`) disables
    /// the bound.
    pub max_residual_error: f32,
    /// Skip the static verifier at engine/executor/session construction.
    ///
    /// By default every construction runs the `eva2-analysis` pass
    /// pipeline over the (network, config) pair and refuses error-severity
    /// findings with [`AmcError::AnalysisRejected`]. Setting this flag —
    /// normally through [`AmcConfigBuilder::allow_unverified`] — admits
    /// the pair anyway, for experiments that knowingly run outside the
    /// verified envelope (e.g. probing Q8.8 saturation behaviour).
    pub allow_unverified: bool,
}

impl Default for AmcConfig {
    fn default() -> Self {
        Self {
            target: TargetSelection::Late,
            warp: WarpMode::default(),
            search: SearchParams { radius: 8, step: 1 },
            policy: PolicyConfig::BlockError {
                threshold: 3.0,
                max_gap: 16,
            },
            fixed_point: false,
            sparsity_threshold: 1.0 / 256.0,
            max_residual_error: f32::INFINITY,
            allow_unverified: false,
        }
    }
}

impl AmcConfig {
    /// Starts a validating builder pre-loaded with the defaults.
    pub fn builder() -> AmcConfigBuilder {
        AmcConfigBuilder {
            config: Self::default(),
        }
    }

    /// Checks every network-independent invariant of the configuration.
    /// (Target resolution is network-dependent and checked at
    /// executor/engine construction.)
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), AmcError> {
        let invalid = |reason: &'static str| Err(AmcError::InvalidConfig { reason });
        if self.search.step == 0 {
            return invalid("search step must be at least 1");
        }
        if !self.sparsity_threshold.is_finite() || self.sparsity_threshold < 0.0 {
            return invalid("sparsity threshold must be finite and non-negative");
        }
        if self.max_residual_error.is_nan() || self.max_residual_error < 0.0 {
            return invalid("max residual error must be non-negative (INFINITY disables it)");
        }
        match self.policy {
            PolicyConfig::AlwaysKey => {}
            PolicyConfig::StaticRate { period } => {
                if period == 0 {
                    return invalid("static-rate period must be at least 1");
                }
            }
            PolicyConfig::BlockError { threshold, max_gap }
            | PolicyConfig::MotionMagnitude { threshold, max_gap } => {
                if threshold.is_nan() {
                    return invalid("policy threshold must not be NaN");
                }
                if max_gap == 0 {
                    return invalid("policy max_gap must be at least 1");
                }
            }
        }
        Ok(())
    }

    /// Runs the `eva2-analysis` pass pipeline for this configuration over
    /// `net`: shape inference, warp legality (against this config's search
    /// window), Q8.8 range analysis (against this config's datapath), and
    /// sparsity flow at the resolved target.
    ///
    /// This is the report [`Engine`](crate::serve::Engine) and
    /// [`AmcExecutor`] consult at construction; it is public so tools (the
    /// `analyze_zoo` bin, examples) can print it.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the target selection cannot be resolved
    /// for `net` — resolution failures precede analysis.
    pub fn analyze(&self, net: &Network) -> Result<eva2_analysis::AnalysisReport, AmcError> {
        let (target, _) = self.target.geometry(net)?;
        Ok(eva2_analysis::analyze(
            net,
            &eva2_analysis::AnalysisOptions {
                target,
                search_radius: self.search.radius,
                search_step: self.search.step,
                fixed_point: self.fixed_point,
                // Frames enter through `GrayImage::to_tensor`: u8 / 255.
                input_range: (0.0, 1.0),
            },
        ))
    }

    /// The construction-time gate: refuses error-severity analysis
    /// findings unless [`AmcConfig::allow_unverified`] is set. `target`
    /// must already be resolved (callers need it anyway).
    pub(crate) fn verify_resolved(&self, net: &Network, target: usize) -> Result<(), AmcError> {
        if self.allow_unverified {
            return Ok(());
        }
        let report = eva2_analysis::analyze(
            net,
            &eva2_analysis::AnalysisOptions {
                target,
                search_radius: self.search.radius,
                search_step: self.search.step,
                fixed_point: self.fixed_point,
                input_range: (0.0, 1.0),
            },
        );
        match report.first_error() {
            Some(d) => Err(AmcError::AnalysisRejected {
                code: d.code.as_str(),
                layer: d.layer,
                message: d.message.clone(),
            }),
            None => Ok(()),
        }
    }
}

/// Builder for [`AmcConfig`] whose [`AmcConfigBuilder::build`] validates
/// the result — the non-panicking construction path
/// (`AmcConfig::builder().….build()?`).
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct AmcConfigBuilder {
    config: AmcConfig,
}

impl AmcConfigBuilder {
    /// Sets the target-layer selection.
    pub fn target(mut self, target: TargetSelection) -> Self {
        self.config.target = target;
        self
    }

    /// Sets the predicted-frame update mode (warp vs memoize).
    pub fn warp(mut self, warp: WarpMode) -> Self {
        self.config.warp = warp;
        self
    }

    /// Sets the RFBME search window.
    pub fn search(mut self, search: SearchParams) -> Self {
        self.config.search = search;
        self
    }

    /// Sets the key-frame policy.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = policy;
        self
    }

    /// Toggles the bit-accurate Q8.8 warp datapath.
    pub fn fixed_point(mut self, fixed_point: bool) -> Self {
        self.config.fixed_point = fixed_point;
        self
    }

    /// Sets the near-zero suppression threshold of the sparse store.
    pub fn sparsity_threshold(mut self, threshold: f32) -> Self {
        self.config.sparsity_threshold = threshold;
        self
    }

    /// Sets the residual-error confidence bound above which a predicted
    /// frame is degraded to a key frame (`f32::INFINITY` disables it).
    pub fn max_residual_error(mut self, bound: f32) -> Self {
        self.config.max_residual_error = bound;
        self
    }

    /// Disables the static verifier at construction time — the escape
    /// hatch for (network, config) pairs the analysis would refuse (see
    /// [`AmcError::AnalysisRejected`]). Use for experiments only; a
    /// serving engine should never need it.
    pub fn allow_unverified(mut self) -> Self {
        self.config.allow_unverified = true;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] when an invariant is violated —
    /// see [`AmcConfig::validate`].
    pub fn build(self) -> Result<AmcConfig, AmcError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Outcome of processing one frame.
#[derive(Debug, Clone)]
pub struct AmcFrameResult {
    /// The CNN output (suffix output) for this frame.
    pub output: Tensor3,
    /// Whether this frame ran as a key frame.
    pub is_key: bool,
    /// MACs actually executed on the layer accelerators (prefix + suffix
    /// for key frames; suffix only for predicted frames).
    pub macs_executed: u64,
    /// RFBME adds performed (zero on the very first frame).
    pub rfbme_ops: u64,
    /// Warp-engine statistics for predicted frames with motion
    /// compensation.
    pub warp: Option<WarpStats>,
    /// Motion metrics that informed the key-frame decision.
    pub metrics: Option<FrameMetrics>,
    /// Compression achieved by the sparse activation store (key frames).
    pub compression: Option<f32>,
}

/// Aggregate statistics across all processed frames.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Frames processed.
    pub frames: usize,
    /// Frames executed as key frames.
    pub key_frames: usize,
    /// Total MACs executed on the layer accelerators.
    pub macs: u64,
    /// Total RFBME operations.
    pub rfbme_ops: u64,
    /// Total warp interpolations.
    pub warp_interpolations: u64,
    /// Key frames forced by the residual confidence bound
    /// ([`AmcConfig::max_residual_error`]): the policy said *predicted*
    /// but the RFBME match could not explain the frame, so the executor
    /// degraded it to a key frame rather than warp garbage (a subset of
    /// [`ExecStats::key_frames`]).
    pub forced_keys: usize,
    /// Key-state evictions this stream survived (serving-engine memory
    /// management); each one forces the next frame to re-key.
    pub evictions: usize,
}

impl ExecStats {
    /// Fraction of frames that were key frames (the paper's "keys" column).
    pub fn key_fraction(&self) -> f32 {
        if self.frames == 0 {
            0.0
        } else {
            self.key_frames as f32 / self.frames as f32
        }
    }

    /// Field-wise difference from an earlier snapshot of the same stream's
    /// statistics — how the serving engine derives a single frame's stats
    /// delta (every counter is monotonic, so `earlier` is always
    /// pointwise ≤ `self`).
    #[must_use]
    pub fn delta_since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            frames: self.frames - earlier.frames,
            key_frames: self.key_frames - earlier.key_frames,
            macs: self.macs - earlier.macs,
            rfbme_ops: self.rfbme_ops - earlier.rfbme_ops,
            warp_interpolations: self.warp_interpolations - earlier.warp_interpolations,
            forced_keys: self.forced_keys - earlier.forced_keys,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// The AMC executor: EVA² in front of a CNN, serving one stream.
///
/// This is a thin single-stream wrapper over the same per-session state
/// machine the serving engine runs (see [`crate::serve`]): one
/// [`SessionCore`] plus a borrowed network and a private GEMM scratch.
/// Outputs, decisions, and statistics are bit-identical to a one-session
/// [`crate::serve::Engine`] — multi-stream callers should use the engine
/// directly and gain cross-stream key-frame batching.
pub struct AmcExecutor<'n> {
    net: &'n Network,
    core: SessionCore,
    /// Reusable convolution buffers (padded input copies): steady-state
    /// frame processing performs no per-frame convolution-engine allocation.
    scratch: GemmScratch,
    /// Reusable RFBME buffers, for the same reason.
    motion_scratch: RfbmeScratch,
}

impl<'n> std::fmt::Debug for AmcExecutor<'n> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AmcExecutor(net={}, target={}, rf={:?}, policy={})",
            self.net.name(),
            self.core.target(),
            self.core.rf(),
            self.core.policy_name()
        )
    }
}

impl<'n> AmcExecutor<'n> {
    /// Creates an executor over `net` with the given configuration.
    ///
    /// (The panicking `AmcExecutor::new` constructor is gone; construct
    /// configurations through [`AmcConfig::builder`] and handle the typed
    /// error here.)
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration fails validation
    /// ([`AmcError::InvalidConfig`]) or its target selection cannot be
    /// resolved for `net` (see [`TargetSelection::resolve`]).
    pub fn try_new(net: &'n Network, config: AmcConfig) -> Result<Self, AmcError> {
        Ok(Self {
            net,
            core: SessionCore::new(net, &config)?,
            scratch: GemmScratch::new(),
            motion_scratch: RfbmeScratch::new(),
        })
    }

    /// The resolved target layer index.
    pub fn target(&self) -> usize {
        self.core.target()
    }

    /// The receptive-field geometry RFBME matches at.
    pub fn rf_geometry(&self) -> RfGeometry {
        self.core.rf()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.core.stats()
    }

    /// MACs of the skipped prefix (key-frame-only work).
    pub fn prefix_macs(&self) -> u64 {
        self.core.prefix_macs()
    }

    /// MACs of a full CNN pass.
    pub fn total_macs(&self) -> u64 {
        self.core.total_macs()
    }

    /// Drops stored state, forcing the next frame to be a key frame.
    pub fn reset(&mut self) {
        self.core.reset()
    }

    /// The compressed key activation currently buffered, if any — the
    /// contents of the hardware's sparse key-frame activation buffer.
    pub fn key_activation(&self) -> Option<&RleActivation> {
        self.core.key_activation()
    }

    /// The stored key-frame pixel buffer, if any — the reference input
    /// every RFBME estimate is computed against.
    pub fn key_image(&self) -> Option<&GrayImage> {
        self.core.key_image()
    }

    /// The RFBME estimator this executor runs, for callers that compute
    /// the estimate themselves and feed [`AmcExecutor::process_with_motion`].
    pub fn rfbme(&self) -> Rfbme {
        self.core.rfbme()
    }

    /// Processes one frame through AMC.
    ///
    /// # Panics
    ///
    /// Panics when the frame is rejected with a typed error — today only
    /// [`AmcError::FrameGeometryMismatch`], a frame whose resolution
    /// differs from the network's input shape. Use
    /// [`AmcExecutor::try_process`] to handle rejection instead.
    pub fn process(&mut self, image: &GrayImage) -> AmcFrameResult {
        self.try_process(image)
            .unwrap_or_else(|e| panic!("AMC rejected the frame: {e}"))
    }

    /// [`AmcExecutor::process`] returning frame rejection as a typed
    /// [`AmcError`] instead of panicking — the serving-grade entry point
    /// (the multi-stream [`crate::serve::Engine`] is fallible throughout).
    pub fn try_process(&mut self, image: &GrayImage) -> Result<AmcFrameResult, AmcError> {
        self.core
            .process(self.net, &mut self.scratch, &mut self.motion_scratch, image)
    }

    /// Processes one frame with an externally computed motion estimate.
    ///
    /// `motion` must be what [`AmcExecutor::rfbme`] would produce from the
    /// stored key image to `image` (and `None` exactly when no key state is
    /// stored) for results to match [`AmcExecutor::process`]. This is the
    /// entry point for callers that compute motion elsewhere, e.g.
    /// replayed codec vectors.
    ///
    /// # Panics
    ///
    /// Panics when the frame is rejected with a typed error (see
    /// [`AmcExecutor::process`]).
    pub fn process_with_motion(
        &mut self,
        image: &GrayImage,
        motion: Option<RfbmeResult>,
    ) -> AmcFrameResult {
        self.core
            .process_with_motion(self.net, &mut self.scratch, image, motion)
            .unwrap_or_else(|e| panic!("AMC rejected the frame: {e}"))
    }
}

/// Common interface over [`AmcExecutor`] and the engine-backed
/// [`EngineExecutor`](crate::serve::EngineExecutor), so experiment
/// protocols can drive either interchangeably.
pub trait FrameExecutor {
    /// Processes the next frame of the stream.
    ///
    /// # Errors
    ///
    /// Returns the executor's typed refusal (e.g.
    /// [`AmcError::FrameGeometryMismatch`] for an off-geometry frame, or
    /// an engine-backed executor's containment errors) instead of
    /// panicking — a harness must not be able to kill a serving process.
    fn process_frame(&mut self, frame: &GrayImage) -> Result<AmcFrameResult, AmcError>;

    /// Processes a clip, returning one result per frame in order. Key-frame
    /// state persists across calls; call [`FrameExecutor::reset`] between
    /// independent clips.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first frame refusal.
    fn process_clip(&mut self, frames: &[GrayImage]) -> Result<Vec<AmcFrameResult>, AmcError> {
        frames.iter().map(|f| self.process_frame(f)).collect()
    }

    /// Aggregate statistics over every frame processed so far.
    fn stats(&self) -> ExecStats;

    /// Drops stored state, forcing the next frame to be a key frame.
    fn reset(&mut self);
}

impl FrameExecutor for AmcExecutor<'_> {
    fn process_frame(&mut self, frame: &GrayImage) -> Result<AmcFrameResult, AmcError> {
        self.try_process(frame)
    }

    fn stats(&self) -> ExecStats {
        AmcExecutor::stats(self)
    }

    fn reset(&mut self) {
        AmcExecutor::reset(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_cnn::zoo;

    fn textured_frame(h: usize, w: usize, shift: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| {
            // Mix of frequencies: the PI/8 component has period 16 px, so an
            // 8 px pan flips its sign — maximally punishing stale
            // (memoized) activations while stride-aligned warping remains
            // exact.
            let xs = (x + shift) as f32;
            let v = (y as f32 * 0.33).sin()
                + (xs * std::f32::consts::PI / 8.0).cos() * 0.8
                + (xs * 0.21).cos();
            (115.0 + v * 38.0) as u8
        })
    }

    #[test]
    fn first_frame_is_key() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let r = amc.process(&textured_frame(48, 48, 0));
        assert!(r.is_key);
        assert_eq!(r.macs_executed, z.network.total_macs());
        assert_eq!(r.rfbme_ops, 0);
        assert!(r.compression.is_some());
    }

    #[test]
    fn static_scene_yields_predicted_frames() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let frame = textured_frame(48, 48, 0);
        amc.process(&frame);
        for _ in 0..5 {
            let r = amc.process(&frame);
            assert!(!r.is_key);
            assert!(r.macs_executed < z.network.total_macs() / 2);
        }
        assert_eq!(amc.stats().key_frames, 1);
        assert_eq!(amc.stats().frames, 6);
    }

    #[test]
    fn predicted_frame_on_static_scene_matches_key_output() {
        let z = zoo::tiny_fasterm(1);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let frame = textured_frame(48, 48, 0);
        let key = amc.process(&frame);
        let pred = amc.process(&frame);
        assert!(!pred.is_key);
        // Zero motion, zero-field warp: outputs agree to interpolation noise.
        let dist = key.output.rms_distance(&pred.output);
        assert!(dist < 1e-4, "rms {dist}");
    }

    #[test]
    fn scene_cut_forces_key_frame() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        amc.process(&textured_frame(48, 48, 0));
        // Completely different content (inverted, shifted pattern).
        let cut = GrayImage::from_fn(48, 48, |y, x| ((y * 11 + x * 29) % 255) as u8);
        let r = amc.process(&cut);
        assert!(r.is_key, "a scene cut must trigger a key frame");
    }

    #[test]
    fn max_gap_bounds_prediction_run() {
        let z = zoo::tiny_fasterm(0);
        let cfg = AmcConfig {
            policy: PolicyConfig::BlockError {
                threshold: f32::INFINITY,
                max_gap: 3,
            },
            ..Default::default()
        };
        let mut amc = AmcExecutor::try_new(&z.network, cfg).unwrap();
        let frame = textured_frame(48, 48, 0);
        let kinds: Vec<bool> = (0..8).map(|_| amc.process(&frame).is_key).collect();
        assert_eq!(
            kinds,
            vec![true, false, false, true, false, false, true, false]
        );
    }

    #[test]
    fn memoize_mode_skips_warp() {
        let z = zoo::tiny_alexnet(0);
        let cfg = AmcConfig {
            warp: WarpMode::Memoize,
            ..Default::default()
        };
        let mut amc = AmcExecutor::try_new(&z.network, cfg).unwrap();
        let frame = textured_frame(32, 32, 0);
        amc.process(&frame);
        let r = amc.process(&frame);
        assert!(!r.is_key);
        assert!(r.warp.is_none());
        assert_eq!(amc.stats().warp_interpolations, 0);
    }

    #[test]
    fn panning_scene_with_warp_tracks_translation() {
        // The warp-vs-memoization race is seed-marginal at this tiny scale:
        // measured over seeds 0..16, warp beats memoization by ~15% on
        // average but loses by up to ~30% on individual RNG streams (PR 1
        // reseeded 3→5 to dodge exactly such a loss). A single-seed strict
        // win is therefore a lucky-seed assertion. Instead, assert the
        // *aggregate* margin over a seed basket with explicit tolerances —
        // a property of the warp physics (stride-aligned pan is the regime
        // where warping is near-exact, §II-B, while memoization is off by a
        // whole activation cell) rather than of one weight draw — so the
        // test survives RNG-shim stream changes.

        /// Aggregate RMS error of warping must undercut memoization by at
        /// least this relative margin (measured headroom: ~0.85 vs the 0.98
        /// bound).
        const AGGREGATE_MARGIN: f32 = 0.98;
        /// No single seed may show warping worse than memoization beyond
        /// this factor (measured worst case ~1.30).
        const PER_SEED_BOUND: f32 = 1.5;
        const SEEDS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

        let make = |warp| AmcConfig {
            // Force predicted frames so we measure pure warp quality.
            policy: PolicyConfig::BlockError {
                threshold: f32::INFINITY,
                max_gap: 1000,
            },
            warp,
            ..Default::default()
        };
        let f0 = textured_frame(48, 48, 0);
        // A full receptive-field stride of pan (8 px).
        let f1 = textured_frame(48, 48, 8);
        let (mut warp_sum, mut memo_sum) = (0.0f32, 0.0f32);
        for seed in SEEDS {
            let z = zoo::tiny_fasterm(seed);
            let mut amc = AmcExecutor::try_new(&z.network, make(WarpMode::default())).unwrap();
            amc.process(&f0);
            let warped = amc.process(&f1);
            // Ground truth: full CNN on f1.
            let truth_act = z.network.forward_prefix(&f1.to_tensor(), amc.target());
            let truth_out = z.network.forward_suffix(&truth_act, amc.target());
            let with_warp = warped.output.rms_distance(&truth_out);

            // Memoized baseline (no warp) for the same pan.
            let mut amc2 = AmcExecutor::try_new(&z.network, make(WarpMode::Memoize)).unwrap();
            amc2.process(&f0);
            let memo = amc2.process(&f1);
            let with_memo = memo.output.rms_distance(&truth_out);

            assert!(
                with_warp <= with_memo * PER_SEED_BOUND,
                "seed {seed}: warp ({with_warp}) catastrophically worse than \
                 memoization ({with_memo})"
            );
            warp_sum += with_warp;
            memo_sum += with_memo;
        }
        assert!(
            warp_sum <= memo_sum * AGGREGATE_MARGIN,
            "aggregate warp error ({warp_sum}) does not undercut memoization \
             ({memo_sum}) by the required margin over seeds {SEEDS:?}"
        );
    }

    #[test]
    fn fixed_point_path_close_to_float_path() {
        let z = zoo::tiny_fasterm(4);
        let make = |fixed: bool| AmcConfig {
            fixed_point: fixed,
            policy: PolicyConfig::BlockError {
                threshold: f32::INFINITY,
                max_gap: 1000,
            },
            ..Default::default()
        };
        let f0 = textured_frame(48, 48, 0);
        let f1 = textured_frame(48, 48, 1);
        let mut a = AmcExecutor::try_new(&z.network, make(false)).unwrap();
        a.process(&f0);
        let float_out = a.process(&f1).output;
        let mut b = AmcExecutor::try_new(&z.network, make(true)).unwrap();
        b.process(&f0);
        let fixed_out = b.process(&f1).output;
        let dist = float_out.rms_distance(&fixed_out);
        assert!(dist < 0.05, "fixed/float divergence {dist}");
    }

    #[test]
    fn stats_accumulate() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let frame = textured_frame(48, 48, 0);
        for _ in 0..4 {
            amc.process(&frame);
        }
        let s = amc.stats();
        assert_eq!(s.frames, 4);
        assert_eq!(s.key_frames, 1);
        assert!((s.key_fraction() - 0.25).abs() < 1e-6);
        assert!(s.rfbme_ops > 0);
        let expected = z.network.total_macs()
            + 3 * (z.network.total_macs() - z.network.prefix_macs(amc.target()));
        assert_eq!(s.macs, expected);
    }

    #[test]
    fn reset_forces_key() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        let frame = textured_frame(48, 48, 0);
        amc.process(&frame);
        assert!(!amc.process(&frame).is_key);
        amc.reset();
        assert!(amc.process(&frame).is_key);
    }

    #[test]
    fn early_target_skips_less() {
        let z = zoo::tiny_faster16(0);
        let cfg = AmcConfig {
            target: TargetSelection::Early,
            ..Default::default()
        };
        let early = AmcExecutor::try_new(&z.network, cfg).unwrap();
        let late = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        assert!(early.prefix_macs() < late.prefix_macs());
        assert_eq!(early.target(), z.early_target);
        assert_eq!(late.target(), z.late_target);
    }

    #[test]
    fn try_process_rejects_geometry_change_with_typed_error() {
        let z = zoo::tiny_fasterm(0);
        let mut amc = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
        amc.process(&textured_frame(48, 48, 0));
        let err = amc.try_process(&textured_frame(32, 32, 0));
        assert!(
            matches!(
                err,
                Err(AmcError::FrameGeometryMismatch {
                    expected_height: 48,
                    got_height: 32,
                    ..
                })
            ),
            "got {err:?}"
        );
        // The stream is undisturbed and keeps serving at its resolution:
        // an unchanged scene still lands the cheap predicted path.
        assert_eq!(amc.stats().frames, 1);
        assert!(!amc.process(&textured_frame(48, 48, 0)).is_key);
        // The geometry is fixed by the network, so the off-shape frame is
        // rejected even on a fresh stream.
        amc.reset();
        assert!(amc.try_process(&textured_frame(32, 32, 0)).is_err());
        assert!(amc.try_process(&textured_frame(48, 48, 0)).unwrap().is_key);
    }

    #[test]
    fn residual_bound_forces_keys_in_executor_too() {
        let z = zoo::tiny_fasterm(0);
        let cfg = AmcConfig {
            policy: PolicyConfig::BlockError {
                threshold: f32::INFINITY,
                max_gap: 1000,
            },
            max_residual_error: 0.5,
            ..Default::default()
        };
        let mut amc = AmcExecutor::try_new(&z.network, cfg).unwrap();
        amc.process(&textured_frame(48, 48, 0));
        let noise = GrayImage::from_fn(48, 48, |y, x| ((y * 37 + x * 101) % 255) as u8);
        assert!(amc.process(&noise).is_key);
        assert_eq!(amc.stats().forced_keys, 1);
        assert_eq!(amc.stats().key_frames, 2);
    }

    #[test]
    fn executors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AmcExecutor<'static>>();
        assert_send::<AmcFrameResult>();
    }

    #[test]
    fn try_new_reports_bad_config() {
        let z = zoo::tiny_fasterm(0);
        let cfg = AmcConfig {
            target: TargetSelection::Index(99),
            ..Default::default()
        };
        match AmcExecutor::try_new(&z.network, cfg) {
            Err(AmcError::TargetOutsidePrefix { index: 99, .. }) => {}
            other => panic!("expected TargetOutsidePrefix, got {other:?}"),
        }
    }

    #[test]
    fn builder_roundtrips_and_validates() {
        let built = AmcConfig::builder()
            .target(TargetSelection::Early)
            .warp(WarpMode::Memoize)
            .search(SearchParams { radius: 4, step: 2 })
            .policy(PolicyConfig::StaticRate { period: 3 })
            .fixed_point(true)
            .sparsity_threshold(0.25)
            .max_residual_error(2.5)
            .allow_unverified()
            .build()
            .unwrap();
        assert_eq!(
            built,
            AmcConfig {
                target: TargetSelection::Early,
                warp: WarpMode::Memoize,
                search: SearchParams { radius: 4, step: 2 },
                policy: PolicyConfig::StaticRate { period: 3 },
                fixed_point: true,
                sparsity_threshold: 0.25,
                max_residual_error: 2.5,
                allow_unverified: true,
            }
        );
        assert!(AmcConfig::builder().build().is_ok(), "defaults are valid");
    }

    #[test]
    fn builder_rejects_invalid_fields() {
        let cases = [
            AmcConfig::builder().search(SearchParams { radius: 4, step: 0 }),
            AmcConfig::builder().sparsity_threshold(f32::NAN),
            AmcConfig::builder().sparsity_threshold(-0.5),
            AmcConfig::builder().max_residual_error(f32::NAN),
            AmcConfig::builder().max_residual_error(-1.0),
            AmcConfig::builder().policy(PolicyConfig::StaticRate { period: 0 }),
            AmcConfig::builder().policy(PolicyConfig::BlockError {
                threshold: f32::NAN,
                max_gap: 4,
            }),
            AmcConfig::builder().policy(PolicyConfig::MotionMagnitude {
                threshold: 1.0,
                max_gap: 0,
            }),
        ];
        for builder in cases {
            let err = builder.clone().build();
            assert!(
                matches!(err, Err(AmcError::InvalidConfig { .. })),
                "{builder:?} should be rejected, got {err:?}"
            );
        }
    }
}
