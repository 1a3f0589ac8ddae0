//! Build-time model/pipeline verification for the EVA² serving stack.
//!
//! A production engine should refuse a broken (network, AMC config) pair at
//! *construction*, with a diagnostic naming the offending layer — not panic
//! on the first frame, and never saturate the Q8.8 datapath silently. This
//! crate is that verifier: it extracts a small IR from a
//! [`Network`](eva2_cnn::Network) through the
//! [`Layer::describe`](eva2_cnn::layer::Layer::describe) seam and runs a
//! five-pass pipeline over it, producing structured [`Diagnostic`]s in an
//! [`AnalysisReport`]. [`analyze`] runs it on a network; [`analyze_layers`]
//! runs it on a description alone, which is how `eva2-hw` counts the MACs
//! of the paper's full-scale networks.
//!
//! 1. **Shape inference** — propagates [`Shape3`](eva2_tensor::Shape3)
//!    through every layer, statically pinning the engine's input geometry
//!    and catching channel/flatten mismatches that would otherwise panic at
//!    the first key frame.
//! 2. **Warp legality** — proves the prefix before the AMC target is
//!    translation-equivariant modulo its cumulative stride (spatial layers
//!    only, no FC), folds the target's
//!    [`ReceptiveField`](eva2_cnn::receptive::ReceptiveField) into the
//!    report, and cross-checks its stride (the motion granularity) against
//!    the RFBME block size and search window.
//! 3. **Fixed-point range analysis** — interval arithmetic over weight
//!    statistics and a declared input range (see [`interval`]), flagging
//!    layers whose activations can escape — or come within 2× of — the
//!    Q8.8 representable range.
//! 4. **Sparsity flow** — verifies the sparse-suffix seam: the target
//!    activation should be ReLU-derived (sparse, non-negative) and the
//!    first suffix layer should have a sparse-aware path (conv or FC).
//! 5. **Static cost model** (see [`cost`]) — per-layer MACs and bytes
//!    moved, aggregated into exact key-frame and predicted-frame cost
//!    split at the AMC target, with static bounds for the RFBME and warp
//!    work predicted frames pay instead of the prefix. The model is an
//!    independent reimplementation of the engine's MAC accounting and is
//!    cross-checked against it here (`W-COST-001`), and
//!    [`CostSummary::capacity_plan`] turns it into SLO-driven engine
//!    limits.
//!
//! `eva2-core` consults this pipeline at every `Engine`/`AmcExecutor`/
//! session construction and denies error-severity findings with
//! `AmcError::AnalysisRejected` (escape hatch:
//! `AmcConfig::builder().allow_unverified()`).
//!
//! # Diagnostic code reference
//!
//! | Code | Meaning | Suggested fix |
//! |------|---------|---------------|
//! | `E-SHAPE-001` | A conv layer's `in_channels` does not match the channel count produced by the previous layer. | Fix the layer stack: the producing layer's output channels must equal the consumer's `in_channels`. |
//! | `E-SHAPE-002` | A layer's spatial output collapses to zero extent (kernel larger than its padded input). | Shrink the kernel, add padding, or feed a larger input. |
//! | `E-SHAPE-003` | A fully-connected layer's `in_features` does not match the flattened length of its input. | Rebuild the FC layer with `in_features == channels·height·width` of the preceding activation. |
//! | `W-SHAPE-004` | A layer did not describe itself (`LayerKind::Opaque`); shape and range propagation stop there. | Implement `Layer::describe` for the custom layer type. |
//! | `E-WARP-001` | A non-spatial layer (e.g. fully-connected) sits at or before the AMC target, so the prefix is not translation-equivariant and warping its activation is meaningless. | Move the target before the first non-spatial layer (the paper keeps FC layers in the suffix, §II-C5). |
//! | `E-WARP-002` | The input image is smaller than one RFBME block (receptive-field stride), so motion estimation has no whole tile to match. | Pick an earlier target (smaller cumulative stride) or serve larger frames. |
//! | `E-WARP-003` | The RFBME search step exceeds the block size: consecutive candidate offsets skip entire activation cells, so block matches cannot align with the motion granularity. | Reduce `SearchParams::step` to at most the receptive-field stride. |
//! | `W-WARP-004` | `2·radius` is not a multiple of `step`: the scanned window is asymmetric, so one motion direction is searched farther than the other. | Pick `radius`/`step` with `2·radius % step == 0`. |
//! | `E-RANGE-001` | The activation interval at the target layer exceeds Q8.8's representable range while the fixed-point datapath is enabled — the stored/warped activation *will* saturate for some in-range input. | Scale down weights (or retrain), choose an earlier target, or disable `fixed_point`. |
//! | `W-RANGE-002` | The target-layer interval fits the Q8.8 key store (every datapath stores the target in Q8.8) but with less than 2× headroom. | Consider weight scaling, or an earlier target. |
//! | `W-RANGE-003` | At the target: the interval exceeds the Q8.8 key store's range, so stored values beyond ±128 saturate on every datapath (an error only with `fixed_point`, because the static interval is loose). Past the target: a layer's interval exceeds Q8.8, so an integer datapath through it would saturate. | Rescale the layer, or choose an earlier target; past the target, requantize before moving the layer onto an integer datapath. |
//! | `W-SPARSE-001` | The target activation is not ReLU-derived: it can be dense and signed, so the RLE store's near-zero suppression clips real information. | Place the target on (or after) a ReLU/pool-of-ReLU boundary. |
//! | `W-SPARSE-002` | The first suffix layer is not conv/FC, so it has no sparse-aware path and the warped activation is densified before use. | Reorder the suffix or accept the densify cost. |
//! | `W-SPARSE-003` | The target is the network's last layer: there is no suffix to run on predicted frames. | Choose an earlier target. |
//! | `E-COST-001` | A per-layer or aggregate cost overflows `u64` — the network geometry is absurd and no capacity statement can be made. | Check the layer dimensions; this never fires for a realizable network. |
//! | `W-COST-001` | The static cost model disagrees with the engine's reference MAC accounting (`Network::total_macs`/`prefix_macs`) — the two implementations have drifted. | File a bug: capacity plans and `ExecStats` cross-checks are unreliable until the models agree. |
//! | `W-COST-002` | The cost model could not be built (opaque layer, shape failure, or out-of-range/non-spatial target); `AnalysisReport::cost` is `None`. | Fix the upstream diagnostic (shape/warp) that stopped costing. |
//! | `W-COST-003` | The prefix up to the AMC target executes zero MACs, so predicted frames save nothing over key frames. | Move the target after at least one conv layer. |
//! | `W-CAP-001` | The SLO tick budget is below the cost of a single key frame; the derived limits were clamped to one frame per tick. | Raise the SLO, provision more compute, or serve a smaller network. |
//!
//! # Example
//!
//! ```
//! use eva2_analysis::{analyze, AnalysisOptions};
//! use eva2_cnn::zoo;
//!
//! let z = zoo::tiny_fasterm(0);
//! let report = analyze(&z.network, &AnalysisOptions::for_target(z.late_target));
//! assert!(!report.has_errors(), "{}", report.render());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod interval;
pub mod report;

pub use cost::{CapacityPlan, CostSummary, LayerCost};
pub use interval::Interval;
pub use report::{AnalysisReport, DiagCode, Diagnostic, LayerSummary, Severity};

use eva2_cnn::describe::{LayerInfo, LayerKind};
use eva2_cnn::network::Network;
use eva2_cnn::receptive::ReceptiveField;
use eva2_tensor::fixed::Fixed;
use eva2_tensor::Shape3;

/// What the passes need to know about the AMC configuration under which the
/// network will serve.
///
/// This mirrors the analysis-relevant subset of `eva2_core`'s `AmcConfig`
/// with the target already resolved to a layer index — plain numbers, so
/// the analysis crate stays below `eva2-core` in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOptions {
    /// Resolved AMC target layer index (last prefix layer).
    pub target: usize,
    /// RFBME search radius in pixels (`SearchParams::radius`).
    pub search_radius: usize,
    /// RFBME search stride in pixels (`SearchParams::step`).
    pub search_step: usize,
    /// Whether the bit-accurate Q8.8 warp datapath is enabled.
    pub fixed_point: bool,
    /// Declared input value range. Frames decoded through
    /// `GrayImage::to_tensor` lie in `[0, 1]`.
    pub input_range: (f64, f64),
}

impl AnalysisOptions {
    /// Options for `target` with the serving defaults: search radius 8,
    /// step 1, f32 datapath, inputs in `[0, 1]`.
    pub fn for_target(target: usize) -> Self {
        AnalysisOptions {
            target,
            search_radius: 8,
            search_step: 1,
            fixed_point: false,
            input_range: (0.0, 1.0),
        }
    }
}

/// Runs the full pass pipeline over `net` under `opts`: [`analyze_layers`]
/// over [`Network::describe`], plus the `W-COST-001` cross-check against
/// the engine's MAC accounting for a network the pipeline admits (the
/// runtime accounting panics on a width mismatch).
///
/// Never panics on a malformed network — malformation is exactly what the
/// diagnostics report.
pub fn analyze(net: &Network, opts: &AnalysisOptions) -> AnalysisReport {
    let mut report = analyze_layers(net.name(), net.input_shape(), &net.describe(), opts);
    // The cost pass rebuilt the MAC accounting from the IR alone;
    // `Network::{total,prefix}_macs` is the reference the engine's
    // `ExecStats` counters are seeded from. Any disagreement means one of
    // the two models is wrong — surface it at construction.
    if let Some(cost) = report.cost.as_ref().filter(|_| !report.has_errors()) {
        let (reference_total, reference_prefix) = (net.total_macs(), net.prefix_macs(opts.target));
        if cost.key_frame_macs != reference_total || cost.prefix_macs != reference_prefix {
            report.push(
                DiagCode::CostModelMismatch,
                Severity::Warning,
                None,
                format!(
                    "static cost model (key {} / prefix {} MACs) disagrees with the \
                     engine's reference accounting (key {reference_total} / prefix \
                     {reference_prefix} MACs)",
                    cost.key_frame_macs, cost.prefix_macs
                ),
            );
        }
    }
    report
}

/// Runs the pass pipeline over a described network: `layers` in execution
/// order on an `input`-shaped activation. This is the entry point for a
/// network that exists only as a description — `eva2-hw` prices the paper's
/// full-scale networks through it. With no weight statistics in `layers`,
/// the range pass stops at the first conv or FC layer without a finding.
pub fn analyze_layers(
    name: &str,
    input: Shape3,
    layers: &[LayerInfo],
    opts: &AnalysisOptions,
) -> AnalysisReport {
    let mut report = AnalysisReport {
        network: name.to_string(),
        layers: layers
            .iter()
            .map(|l| LayerSummary {
                name: l.name.clone(),
                kind: l.kind.label(),
                ..LayerSummary::default()
            })
            .collect(),
        ..AnalysisReport::default()
    };
    shape_pass(layers, input, &mut report);
    warp_pass(layers, input, opts, &mut report);
    range_pass(layers, opts, &mut report);
    sparsity_pass(layers, opts, &mut report);
    cost::cost_pass(layers, input, opts, &mut report);
    report
}

/// Pass 1: shape inference. Records the inferred output shape of each
/// layer in its summary (`None` from the first failure on).
fn shape_pass(infos: &[LayerInfo], input: Shape3, report: &mut AnalysisReport) {
    let mut cur = Some(input);
    for (i, info) in infos.iter().enumerate() {
        cur = cur.and_then(|s| infer_shape(info, s, i, report));
        report.layers[i].shape = cur.map(|s| (s.channels, s.height, s.width));
    }
}

/// Output shape of one described layer, or `None` with a diagnostic.
///
/// A width mismatch is an error, but the layer's declared output still
/// carries inference on, so the passes after it see the whole network.
fn infer_shape(
    info: &LayerInfo,
    input: Shape3,
    i: usize,
    report: &mut AnalysisReport,
) -> Option<Shape3> {
    let name = &info.name;
    match info.kind {
        LayerKind::Conv { in_channels, .. } if input.channels != in_channels => report.push(
            DiagCode::ShapeChannelMismatch,
            Severity::Error,
            Some(i),
            format!(
                "{name}: expects {in_channels} input channels but receives {}",
                input.channels
            ),
        ),
        LayerKind::FullyConnected { in_features, .. } if input.len() != in_features => report.push(
            DiagCode::ShapeFlattenMismatch,
            Severity::Error,
            Some(i),
            format!(
                "{name}: expects {in_features} flattened inputs but receives {input} = {}",
                input.len()
            ),
        ),
        LayerKind::Opaque => report.push(
            DiagCode::ShapeOpaqueLayer,
            Severity::Warning,
            Some(i),
            format!("{name}: layer is not described; analysis stops here"),
        ),
        _ => {}
    }
    let out = info.output_shape(input)?;
    if out.height == 0 || out.width == 0 {
        let g = info.geometry?;
        let (k, s, p, ih, iw) = (g.kernel, g.stride, g.padding, input.height, input.width);
        let message = if info.kind == LayerKind::Pool {
            format!("{name}: {k}x{k} pooling window exceeds its {ih}x{iw} input")
        } else {
            format!(
                "{name}: {k}x{k} kernel (stride {s}, pad {p}) collapses a {ih}x{iw} input \
                 to zero spatial extent"
            )
        };
        report.push(DiagCode::ShapeCollapsed, Severity::Error, Some(i), message);
        return None;
    }
    Some(out)
}

/// Pass 2: warp/target legality. The prefix `0..=target` must be spatial
/// (translation-equivariant modulo its cumulative stride); the motion
/// granularity it induces must be compatible with the RFBME block size and
/// search window.
fn warp_pass(
    infos: &[LayerInfo],
    input: Shape3,
    opts: &AnalysisOptions,
    report: &mut AnalysisReport,
) {
    if opts.target >= infos.len() {
        report.push(
            DiagCode::WarpNonSpatialPrefix,
            Severity::Error,
            None,
            format!(
                "target layer {} is out of range (network has {} layers)",
                opts.target,
                infos.len()
            ),
        );
        return;
    }
    let mut rf = ReceptiveField::INPUT;
    for (i, info) in infos.iter().enumerate().take(opts.target + 1) {
        match info.geometry {
            Some(g) => rf = rf.then(g),
            None => {
                report.push(
                    DiagCode::WarpNonSpatialPrefix,
                    Severity::Error,
                    Some(i),
                    format!(
                        "{}: non-spatial layer inside the AMC prefix — the prefix is \
                         not translation-equivariant, so warping the target \
                         activation is meaningless",
                        info.name
                    ),
                );
                return;
            }
        }
    }
    // The prefix is conv/pool/ReLU only, hence translation-equivariant for
    // displacements that are multiples of the cumulative stride: that
    // stride is the motion granularity RFBME works at, and the field is the
    // RFBME geometry the cost pass bounds.
    report.receptive_field = Some(rf);
    if input.height < rf.stride || input.width < rf.stride {
        report.push(
            DiagCode::WarpNoWholeTile,
            Severity::Error,
            Some(opts.target),
            format!(
                "RFBME block size {} exceeds the {}x{} input: no whole tile to match",
                rf.stride, input.height, input.width
            ),
        );
    }
    if opts.search_step > rf.stride {
        report.push(
            DiagCode::WarpStepExceedsBlock,
            Severity::Error,
            Some(opts.target),
            format!(
                "search step {} exceeds the RFBME block size {} — candidate offsets \
                 skip whole activation cells and cannot align with the motion \
                 granularity",
                opts.search_step, rf.stride
            ),
        );
    }
    if opts.search_step > 0 && !(2 * opts.search_radius).is_multiple_of(opts.search_step) {
        report.push(
            DiagCode::WarpAsymmetricWindow,
            Severity::Warning,
            None,
            format!(
                "search window is asymmetric: 2·radius ({}) is not a multiple of \
                 step {}",
                2 * opts.search_radius,
                opts.search_step
            ),
        );
    }
}

/// Pass 3: fixed-point range analysis over the declared input range.
///
/// Every datapath stores the *target* activation in the Q8.8 key store,
/// which saturates at ±128, so the target's findings (`W-RANGE-002`,
/// `W-RANGE-003`) name the store whatever `fixed_point` says. Only the
/// fixed-point datapath turns an overflowing target into an error
/// (`E-RANGE-001`): the static interval is far looser than the values
/// trained or untrained networks actually produce, too loose to refuse the
/// f32 datapath on. Past the target, an overflow is advice for a future
/// integer datapath (`W-RANGE-003`).
fn range_pass(infos: &[LayerInfo], opts: &AnalysisOptions, report: &mut AnalysisReport) {
    let fmax = Fixed::MAX.to_f32() as f64; // ≈ 127.996
    let mut cur = Interval::new(opts.input_range.0, opts.input_range.1);
    for (i, info) in infos.iter().enumerate() {
        let Some(next) = interval::propagate(info, cur) else {
            // Opaque layer: already reported by the shape pass; stop.
            return;
        };
        report.layers[i].range = Some((next.lo, next.hi));
        let (name, mag) = (&info.name, next.mag());
        let interval = format!("interval [{:.3}, {:.3}]", next.lo, next.hi);
        let (code, severity, message) = match (i == opts.target, mag > fmax) {
            (true, true) if opts.fixed_point => (
                DiagCode::RangeFixedOverflow,
                Severity::Error,
                format!(
                    "{name}: target activation {interval} exceeds the Q8.8 representable \
                     range ±{fmax:.3} — the fixed-point store will saturate"
                ),
            ),
            (true, true) => (
                DiagCode::RangeFloatExceedsFixed,
                Severity::Warning,
                format!(
                    "{name}: target activation {interval} exceeds the Q8.8 key store's range \
                     ±{fmax:.3} — stored values beyond it saturate on every datapath"
                ),
            ),
            (false, true) => (
                DiagCode::RangeFloatExceedsFixed,
                Severity::Warning,
                format!(
                    "{name}: activation {interval} would not fit Q8.8 (±{fmax:.3}); a \
                     fixed-point datapath through this layer would saturate"
                ),
            ),
            (true, false) if mag > fmax / 2.0 => (
                DiagCode::RangeFixedNearOverflow,
                Severity::Warning,
                format!(
                    "{name}: target activation {interval} has less than 2x headroom to the \
                     Q8.8 key store's range ±{fmax:.3}"
                ),
            ),
            _ => {
                cur = next;
                continue;
            }
        };
        report.push(code, severity, Some(i), message);
        cur = next;
    }
}

/// Pass 4: sparsity flow across the prefix/suffix seam.
///
/// The key activation store thresholds near-zero values, which is lossless
/// in spirit only when the stored activation is ReLU-derived (non-negative,
/// mostly zero); and skip-zero execution only pays off when the first
/// suffix layer can consume sparse input (conv or FC).
fn sparsity_pass(infos: &[LayerInfo], opts: &AnalysisOptions, report: &mut AnalysisReport) {
    if opts.target >= infos.len() {
        return; // already an error in the warp pass
    }
    // Producer: walk back from the target through pooling layers (max of
    // non-negative values stays non-negative and sparse) to the layer that
    // actually produced the values.
    let mut p = opts.target;
    while p > 0 && infos[p].kind == LayerKind::Pool {
        p -= 1;
    }
    if infos[p].kind != LayerKind::Relu {
        report.push(
            DiagCode::SparseProducerNotRelu,
            Severity::Warning,
            Some(opts.target),
            format!(
                "{}: target activation is produced by {} ({}), not a ReLU — it can \
                 be dense and signed, so the sparse store's near-zero suppression \
                 clips information",
                infos[opts.target].name,
                infos[p].name,
                infos[p].kind.label()
            ),
        );
    }
    // Consumer: the first suffix layer should have a sparse-aware path.
    match infos.get(opts.target + 1) {
        None => {
            report.push(
                DiagCode::SparseNoSuffix,
                Severity::Warning,
                Some(opts.target),
                format!(
                    "{}: target is the last layer — there is no suffix to run on \
                     predicted frames",
                    infos[opts.target].name
                ),
            );
        }
        Some(next) => {
            if !matches!(
                next.kind,
                LayerKind::Conv { .. } | LayerKind::FullyConnected { .. }
            ) {
                report.push(
                    DiagCode::SparseConsumerNotSparse,
                    Severity::Warning,
                    Some(opts.target + 1),
                    format!(
                        "{}: first suffix layer is {} — no sparse-aware path, the \
                         warped activation will be densified before use",
                        next.name,
                        next.kind.label()
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests;
