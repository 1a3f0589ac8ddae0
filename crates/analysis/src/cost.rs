//! Pass 5: static cost & capacity model.
//!
//! Derives per-layer MACs / bytes-moved / scratch-bytes purely from the
//! [`LayerInfo`] IR and the shape pass — a second, independent
//! implementation of the MAC accounting the engine's `ExecStats` counters
//! use at runtime. `analyze` cross-checks the two (`W-COST-001`), so a
//! drift between the static model and the executor is caught at
//! construction, not in a capacity review.
//!
//! The aggregate splits at the AMC target exactly like the engine does:
//! a key frame runs every layer (`key_frame_macs`); a predicted frame
//! skips the prefix (`predicted_frame_macs = key − prefix`) and instead
//! pays motion estimation and warping, both known statically
//! ([`Rfbme::ops_bound`], exact for the dense search, and at most one
//! interpolation per target activation value).
//! [`CostSummary::capacity_plan`] turns those numbers plus an SLO into
//! engine limits — see `EngineLimits::builder().derive_from_slo` in
//! `eva2-core`.

use eva2_cnn::describe::{LayerInfo, LayerKind};
use eva2_cnn::receptive::ReceptiveField;
use eva2_motion::{RfGeometry, Rfbme, SearchParams};
use eva2_tensor::Shape3;

use crate::report::{AnalysisReport, DiagCode, Diagnostic, Severity};
use crate::AnalysisOptions;

/// Static cost of one layer on one forward pass, in exact counts (MACs)
/// and dense-f32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// Multiply-accumulates — matches `Layer::macs` and therefore the
    /// engine's `ExecStats::macs_executed` accounting.
    pub macs: u64,
    /// Dense input activation read (f32).
    pub input_bytes: u64,
    /// Parameter bytes touched (weights + biases, f32).
    pub weight_bytes: u64,
    /// Dense output activation written (f32).
    pub output_bytes: u64,
    /// Working-set scratch beyond input, weights and output: for a conv
    /// layer the zero-bordered copy of its input the direct convolution
    /// reads (`C_in` planes of `(H+2P) × (W+2P)`, split into `S²` phase
    /// planes of `⌈(H+2P)/S⌉ × ⌈(W+2P)/S⌉` when the stride `S > 1`, plus one
    /// register tile of slack) — what `GemmScratch` grows to, not counting
    /// its `C_in·K²`-entry tap table. Zero elsewhere.
    pub scratch_bytes: u64,
}

/// The network-level static cost model, split at the AMC target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostSummary {
    /// One cost per layer, in layer order.
    pub per_layer: Vec<LayerCost>,
    /// MACs of the prefix `0..=target` — what AMC skips on predicted
    /// frames.
    pub prefix_macs: u64,
    /// MACs of the suffix `target+1..` — what predicted frames still pay.
    pub suffix_macs: u64,
    /// Exact MACs a key frame executes (`prefix + suffix`); must equal
    /// `ExecStats::macs_executed` after a key frame.
    pub key_frame_macs: u64,
    /// Exact MACs a predicted frame executes (= `suffix_macs`); must
    /// equal `ExecStats::macs_executed` after a predicted frame.
    pub predicted_frame_macs: u64,
    /// Exact RFBME arithmetic ops per estimate ([`Rfbme::ops_bound`]; the
    /// dense search's cost depends on the geometry alone); must equal
    /// `AmcFrameResult::rfbme_ops` on every frame that has key state.
    pub rfbme_ops_bound: u64,
    /// Upper bound on warp interpolations per predicted frame: one per
    /// target activation value.
    pub warp_interpolations_bound: u64,
    /// Total predicted-frame op bound: suffix MACs + RFBME + warp.
    pub predicted_ops_bound: u64,
    /// Dense size of the target activation (f32) — the tensor stored,
    /// warped, and RLE-encoded per session.
    pub target_activation_bytes: u64,
}

/// Engine limits derived from the cost model and a latency SLO — the
/// output of [`CostSummary::capacity_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPlan {
    /// MAC budget of one tick: `gflops/2 · slo`.
    pub budget_macs_per_tick: u64,
    /// Per-frame cost amortized over one key-frame gap:
    /// `(key + (gap−1)·predicted) / gap`.
    pub amortized_frame_macs: u64,
    /// Frames one tick can serve inside the SLO (≥ 1).
    pub max_frames_per_tick: usize,
    /// Of those, how many may be key frames (≥ 1).
    pub max_key_frames_per_tick: usize,
    /// Session-memory budget: one session per servable frame slot.
    pub max_total_bytes: usize,
    /// Capacity findings (`W-CAP-001` when the budget cannot even cover
    /// one key frame and the plan was clamped to 1).
    pub diagnostics: Vec<Diagnostic>,
}

impl CostSummary {
    /// Derives engine limits from this cost model and a deployment
    /// envelope: a per-tick latency SLO (`slo_ms`), sustained compute
    /// (`gflops`, counting 1 MAC = 2 flops), the policy's key-frame gap
    /// (`key_gap` frames per key frame; 1 = every frame is a key frame),
    /// and the per-session memory bound (`session_bytes`, see
    /// `session_memory_bound` in `eva2-core`).
    ///
    /// Predicted frames are charged suffix MACs + RFBME ops (both exact)
    /// + the warp bound, one op ≈ one MAC.
    pub fn capacity_plan(
        &self,
        slo_ms: f64,
        gflops: f64,
        key_gap: usize,
        session_bytes: usize,
    ) -> CapacityPlan {
        let macs_per_sec = gflops.max(0.0) * 1e9 / 2.0;
        let budget = (macs_per_sec * slo_ms.max(0.0) / 1e3) as u64;
        let gap = key_gap.max(1) as u64;
        let key = self.key_frame_macs.max(1);
        let predicted = self.predicted_ops_bound;
        let amortized = (key.saturating_add((gap - 1).saturating_mul(predicted)) / gap).max(1);
        let mut diagnostics = Vec::new();
        if budget < key {
            diagnostics.push(Diagnostic {
                code: DiagCode::CapacityBelowKeyFrame,
                severity: Severity::Warning,
                layer: None,
                message: format!(
                    "tick budget {budget} MACs ({gflops} GFLOP/s over {slo_ms} ms) is below \
                     one key frame ({key} MACs) — limits clamped to one frame per tick, \
                     the SLO cannot be met"
                ),
            });
        }
        let max_frames = ((budget / amortized) as usize).max(1);
        let max_keys = ((budget / key) as usize).clamp(1, max_frames);
        CapacityPlan {
            budget_macs_per_tick: budget,
            amortized_frame_macs: amortized,
            max_frames_per_tick: max_frames,
            max_key_frames_per_tick: max_keys,
            max_total_bytes: max_frames.saturating_mul(session_bytes),
            diagnostics,
        }
    }
}

/// Cost of one layer given its input and output shapes, or `None` on
/// arithmetic overflow.
fn layer_cost(info: &LayerInfo, input: Shape3, output: Shape3) -> Option<LayerCost> {
    let f32b = 4u64;
    let in_len = input.len() as u64;
    let out_len = output.len() as u64;
    let (macs, weight_bytes, scratch_bytes) = match info.kind {
        LayerKind::Conv { in_channels, .. } => {
            let g = info.geometry?;
            let k2 = (g.kernel as u64).checked_mul(g.kernel as u64)?;
            let patch = (in_channels as u64).checked_mul(k2)?;
            // One dot product of length in_c·k² per output value — the
            // §IV-A formula `Layer::macs` implements.
            let macs = out_len.checked_mul(patch)?;
            let weights = patch
                .checked_mul(info.channels.len() as u64)?
                .checked_add(info.channels.len() as u64)?
                .checked_mul(f32b)?;
            // The padded input copy, one (phase) plane per channel and
            // stride phase, and the kernel's one tile row of slack.
            let (s, p2) = (g.stride as u64, 2 * g.padding as u64);
            let rows = (input.height as u64).checked_add(p2)?.div_ceil(s);
            let pitch = (input.width as u64).checked_add(p2)?.div_ceil(s);
            let scratch = (in_channels as u64)
                .checked_mul(s.checked_mul(s)?)?
                .checked_mul(rows.checked_mul(pitch)?)?
                .checked_add(eva2_tensor::gemm::NR as u64)?
                .checked_mul(f32b)?;
            (macs, weights, scratch)
        }
        LayerKind::FullyConnected {
            in_features,
            out_features,
        } => {
            let macs = (in_features as u64).checked_mul(out_features as u64)?;
            let weights = macs.checked_add(out_features as u64)?.checked_mul(f32b)?;
            (macs, weights, 0)
        }
        // Pool and ReLU move bytes but multiply nothing, matching
        // `Layer::macs` — comparisons and clamps are not MACs.
        LayerKind::Pool | LayerKind::Relu => (0, 0, 0),
        LayerKind::Opaque => return None,
    };
    Some(LayerCost {
        macs,
        input_bytes: in_len.checked_mul(f32b)?,
        weight_bytes,
        output_bytes: out_len.checked_mul(f32b)?,
        scratch_bytes,
    })
}

/// Pass 5 driver: fills `AnalysisReport::cost` and the per-layer MAC
/// column, or reports why the model could not be built (`W-COST-002`) /
/// overflowed (`E-COST-001`).
pub(crate) fn cost_pass(
    infos: &[LayerInfo],
    input: Shape3,
    shapes: &[Option<Shape3>],
    opts: &AnalysisOptions,
    report: &mut AnalysisReport,
) {
    let mut per_layer = Vec::with_capacity(infos.len());
    let mut cur = Some(input);
    for (i, info) in infos.iter().enumerate() {
        let out = shapes.get(i).copied().flatten();
        let cost = match (cur, out) {
            (Some(is), Some(os)) => {
                let c = layer_cost(info, is, os);
                if c.is_none() && info.kind != LayerKind::Opaque {
                    report.push(
                        DiagCode::CostModelOverflow,
                        Severity::Error,
                        Some(i),
                        format!("{}: per-layer cost overflows u64", info.name),
                    );
                    return;
                }
                c
            }
            _ => None,
        };
        report.layers[i].macs = cost.as_ref().map(|c| c.macs);
        per_layer.push(cost);
        cur = out;
    }

    let incomplete = |report: &mut AnalysisReport, why: String| {
        report.push(DiagCode::CostModelIncomplete, Severity::Warning, None, why);
    };
    if opts.target >= infos.len() {
        incomplete(
            report,
            format!(
                "cost model not built: target {} is out of range ({} layers)",
                opts.target,
                infos.len()
            ),
        );
        return;
    }
    let Some(per_layer) = per_layer.into_iter().collect::<Option<Vec<_>>>() else {
        incomplete(
            report,
            "cost model not built: an opaque layer or shape failure stopped \
             per-layer costing"
                .to_string(),
        );
        return;
    };

    // Prefix/suffix split at the target, exactly as the engine splits it.
    let sum = |costs: &[LayerCost]| costs.iter().try_fold(0u64, |a, c| a.checked_add(c.macs));
    let (Some(prefix_macs), Some(suffix_macs), Some(key_frame_macs)) = (
        sum(&per_layer[..=opts.target]),
        sum(&per_layer[opts.target + 1..]),
        sum(&per_layer),
    ) else {
        report.push(
            DiagCode::CostModelOverflow,
            Severity::Error,
            None,
            "aggregate MAC count overflows u64".to_string(),
        );
        return;
    };

    // Motion terms: the prefix receptive field gives the RFBME geometry;
    // the search window comes from the options — the same derivation the
    // engine's session construction performs.
    let mut rf = ReceptiveField::INPUT;
    for info in &infos[..=opts.target] {
        let Some(g) = info.geometry else {
            // E-WARP-001 already reported; without a receptive field there
            // is no motion-cost term to bound.
            incomplete(
                report,
                "cost model not built: non-spatial prefix has no motion geometry".to_string(),
            );
            return;
        };
        rf = rf.then(g);
    }
    let rfbme = Rfbme::new(
        RfGeometry {
            size: rf.size,
            stride: rf.stride,
            padding: rf.padding,
        },
        SearchParams {
            radius: opts.search_radius,
            step: opts.search_step.max(1),
        },
    );
    let rfbme_ops_bound = rfbme.ops_bound(input.height, input.width);
    // shape_pass succeeded through the whole net, so the target shape
    // exists; warp interpolates each target activation value exactly once.
    let target_len = shapes[opts.target].map_or(0, |s| s.len() as u64);

    if prefix_macs == 0 {
        report.push(
            DiagCode::CostZeroPrefix,
            Severity::Warning,
            Some(opts.target),
            format!(
                "prefix 0..={} executes 0 MACs — predicted frames save nothing \
                 over key frames",
                opts.target
            ),
        );
    }

    report.cost = Some(CostSummary {
        per_layer,
        prefix_macs,
        suffix_macs,
        key_frame_macs,
        predicted_frame_macs: suffix_macs,
        rfbme_ops_bound,
        warp_interpolations_bound: target_len,
        predicted_ops_bound: suffix_macs
            .saturating_add(rfbme_ops_bound)
            .saturating_add(target_len),
        target_activation_bytes: target_len * 4,
    });
}
