//! Pass-pipeline unit tests: every documented diagnostic code fires on a
//! deliberately broken network, and every zoo network analyzes clean.

use crate::{analyze, AnalysisOptions, DiagCode, Severity};
use eva2_cnn::layer::{Conv2d, FullyConnected, MaxPool2d, Relu};
use eva2_cnn::network::Network;
use eva2_cnn::zoo;
use eva2_tensor::{GemmScratch, Shape3, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(7)
}

/// conv(1→4) → relu → pool2 → fc: a small well-formed net on 16×16 input.
fn well_formed() -> Network {
    let mut r = rng();
    let mut net = Network::new("well-formed", Shape3::new(1, 16, 16));
    net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut r)))
        .push(Box::new(Relu::new("relu1")))
        .push(Box::new(MaxPool2d::new("pool1", 2, 2)))
        .push(Box::new(FullyConnected::new("fc1", 4 * 8 * 8, 10, &mut r)));
    net
}

fn codes(report: &crate::AnalysisReport) -> Vec<DiagCode> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn well_formed_net_is_clean() {
    let report = analyze(&well_formed(), &AnalysisOptions::for_target(2));
    assert!(!report.has_errors(), "{}", report.render());
    assert_eq!(report.receptive_field.map(|rf| rf.stride), Some(2));
    // Shapes were pinned statically for every layer.
    assert_eq!(report.layers[0].shape, Some((4, 16, 16)));
    assert_eq!(report.layers[2].shape, Some((4, 8, 8)));
    assert_eq!(report.layers[3].shape, Some((10, 1, 1)));
    // Ranges were derived for every layer, and ReLU output is non-negative.
    let (lo, _hi) = report.layers[1].range.unwrap();
    assert!(lo >= 0.0);
}

#[test]
fn all_zoo_networks_pass_clean_at_both_targets() {
    for workload in zoo::Workload::ALL {
        let z = workload.build(3);
        for target in [z.early_target, z.late_target] {
            let report = analyze(&z.network, &AnalysisOptions::for_target(target));
            assert!(
                !report.has_errors(),
                "{} @ target {target}:\n{}",
                workload.name(),
                report.render()
            );
            // The statically folded receptive field matches the runtime
            // receptive-field arithmetic.
            assert_eq!(
                report.receptive_field,
                Some(z.network.receptive_field(target)),
                "{} @ target {target}",
                workload.name()
            );
        }
    }
}

#[test]
fn fasterm_fixed_point_targets_are_error_free() {
    // The serving suites run tiny_fasterm sessions with `fixed_point:
    // true`; the construction gate in eva2-core must keep admitting them.
    // (Its late-target interval stays well inside Q8.8 — pin that.)
    for seed in 0..8 {
        let z = zoo::tiny_fasterm(seed);
        for target in [z.early_target, z.late_target] {
            let mut opts = AnalysisOptions::for_target(target);
            opts.fixed_point = true;
            let report = analyze(&z.network, &opts);
            assert!(
                !report.has_errors(),
                "fasterm seed {seed} @ target {target}:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn channel_mismatch_is_e_shape_001() {
    let mut r = rng();
    let mut net = Network::new("bad-channels", Shape3::new(1, 16, 16));
    net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut r)))
        // conv2 expects 8 input channels; conv1 produces 4.
        .push(Box::new(Conv2d::new("conv2", 8, 4, 3, 1, 1, &mut r)));
    let report = analyze(&net, &AnalysisOptions::for_target(0));
    let d = report.first_error().expect("must error");
    assert_eq!(d.code, DiagCode::ShapeChannelMismatch);
    assert_eq!(d.layer, Some(1));
}

#[test]
fn collapsed_output_is_e_shape_002() {
    let mut r = rng();
    let mut net = Network::new("collapsed", Shape3::new(1, 8, 8));
    net.push(Box::new(Conv2d::new("conv1", 1, 2, 3, 1, 0, &mut r)))
        // 6×6 into a 7×7 window: zero spatial extent.
        .push(Box::new(MaxPool2d::new("pool1", 7, 7)));
    let report = analyze(&net, &AnalysisOptions::for_target(1));
    let d = report.first_error().expect("must error");
    assert_eq!(d.code, DiagCode::ShapeCollapsed);
    assert_eq!(d.layer, Some(1));
}

#[test]
fn flatten_mismatch_is_e_shape_003() {
    let mut r = rng();
    let mut net = Network::new("bad-flatten", Shape3::new(1, 16, 16));
    net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut r)))
        .push(Box::new(Relu::new("relu1")))
        .push(Box::new(MaxPool2d::new("pool1", 2, 2)))
        // 4·8·8 = 256 features arrive; the layer expects 999.
        .push(Box::new(FullyConnected::new("fc1", 999, 10, &mut r)));
    let report = analyze(&net, &AnalysisOptions::for_target(2));
    let d = report.first_error().expect("must error");
    assert_eq!(d.code, DiagCode::ShapeFlattenMismatch);
    assert_eq!(d.layer, Some(3));
}

#[test]
fn fc_before_target_is_e_warp_001() {
    let mut r = rng();
    let mut net = Network::new("fc-in-prefix", Shape3::new(1, 16, 16));
    net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut r)))
        .push(Box::new(FullyConnected::new(
            "fc1",
            4 * 16 * 16,
            64,
            &mut r,
        )))
        .push(Box::new(Relu::new("relu1")));
    // Target *past* the FC layer: the prefix contains a non-spatial layer.
    let report = analyze(&net, &AnalysisOptions::for_target(2));
    assert!(
        codes(&report).contains(&DiagCode::WarpNonSpatialPrefix),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
    assert_eq!(report.receptive_field, None);
}

#[test]
fn input_smaller_than_block_is_e_warp_002() {
    let mut r = rng();
    // Three stride-2 pools on a 6×6 input: cumulative stride 8 > 6.
    let mut net = Network::new("tiny-input", Shape3::new(1, 6, 6));
    net.push(Box::new(Conv2d::new("conv1", 1, 2, 1, 2, 0, &mut r)))
        .push(Box::new(MaxPool2d::new("pool1", 1, 2)))
        .push(Box::new(MaxPool2d::new("pool2", 1, 2)));
    let report = analyze(&net, &AnalysisOptions::for_target(2));
    assert!(
        codes(&report).contains(&DiagCode::WarpNoWholeTile),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
}

#[test]
fn stride_misaligned_search_is_e_warp_003() {
    // fasterm late target has receptive-field stride 8; a step of 16
    // skips whole activation cells.
    let z = zoo::tiny_fasterm(0);
    let mut opts = AnalysisOptions::for_target(z.late_target);
    opts.search_step = 16;
    opts.search_radius = 16;
    let report = analyze(&z.network, &opts);
    let d = report.first_error().expect("must error");
    assert_eq!(d.code, DiagCode::WarpStepExceedsBlock);
}

#[test]
fn asymmetric_window_is_w_warp_004() {
    let z = zoo::tiny_fasterm(0);
    let mut opts = AnalysisOptions::for_target(z.late_target);
    opts.search_radius = 4;
    opts.search_step = 3; // 2·4 = 8 is not a multiple of 3
    let report = analyze(&z.network, &opts);
    assert!(!report.has_errors(), "{}", report.render());
    assert!(codes(&report).contains(&DiagCode::WarpAsymmetricWindow));
}

/// A net whose target activation provably escapes Q8.8: one 3×3 conv with
/// every weight at +100 over inputs up to 1.0 reaches 900.
fn overflowing_net() -> Network {
    let mut r = rng();
    let mut conv = Conv2d::new("conv1", 1, 2, 3, 1, 0, &mut r);
    for oc in 0..2 {
        for ky in 0..3 {
            for kx in 0..3 {
                conv.set_weight(oc, 0, ky, kx, 100.0);
            }
        }
    }
    let mut net = Network::new("overflowing", Shape3::new(1, 16, 16));
    net.push(Box::new(conv))
        .push(Box::new(Relu::new("relu1")))
        .push(Box::new(MaxPool2d::new("pool1", 2, 2)))
        .push(Box::new(FullyConnected::new("fc1", 2 * 7 * 7, 4, &mut r)));
    net
}

#[test]
fn q88_overflow_is_e_range_001_only_on_fixed_datapath() {
    let net = overflowing_net();
    let mut opts = AnalysisOptions::for_target(2);
    opts.fixed_point = true;
    let report = analyze(&net, &opts);
    let d = report.first_error().expect("must error");
    assert_eq!(d.code, DiagCode::RangeFixedOverflow);
    assert_eq!(d.layer, Some(2));

    // Same network on the f32 datapath: a warning, but one that names the
    // Q8.8 key store the target is kept in on every datapath.
    opts.fixed_point = false;
    let report = analyze(&net, &opts);
    assert!(!report.has_errors(), "{}", report.render());
    let target = report.diagnostics.iter().find(|d| d.layer == Some(2));
    let d = target.expect("a target-layer finding");
    assert_eq!(d.code, DiagCode::RangeFloatExceedsFixed);
    assert!(d.message.contains("key store"), "{d}");
}

#[test]
fn near_overflow_is_w_range_002() {
    let mut r = rng();
    // Σw = 100 over [0, 1] inputs → interval top ≈ 100 ∈ (64, 128).
    let mut conv = Conv2d::new("conv1", 1, 1, 2, 1, 0, &mut r);
    for (ky, kx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        conv.set_weight(0, 0, ky, kx, 25.0);
    }
    let mut net = Network::new("near-overflow", Shape3::new(1, 8, 8));
    net.push(Box::new(conv))
        .push(Box::new(Relu::new("relu1")))
        .push(Box::new(FullyConnected::new("fc1", 49, 4, &mut r)));
    let mut opts = AnalysisOptions::for_target(1);
    opts.fixed_point = true;
    let report = analyze(&net, &opts);
    assert!(!report.has_errors(), "{}", report.render());
    assert!(codes(&report).contains(&DiagCode::RangeFixedNearOverflow));
}

#[test]
fn sparsity_seam_warnings() {
    let mut r = rng();
    let mut net = Network::new("seams", Shape3::new(1, 8, 8));
    net.push(Box::new(Conv2d::new("conv1", 1, 2, 3, 1, 1, &mut r)))
        .push(Box::new(MaxPool2d::new("pool1", 2, 2)))
        .push(Box::new(Relu::new("relu1")))
        .push(Box::new(FullyConnected::new("fc1", 2 * 4 * 4, 4, &mut r)));

    // Target at pool1: walking back through the pool reaches conv1, not a
    // ReLU → W-SPARSE-001.
    let report = analyze(&net, &AnalysisOptions::for_target(1));
    assert!(!report.has_errors(), "{}", report.render());
    assert!(codes(&report).contains(&DiagCode::SparseProducerNotRelu));

    // Target at the last layer: no suffix at all → W-SPARSE-003. (Also
    // E-WARP-001 fires, because an FC target is not warpable.)
    let report = analyze(&net, &AnalysisOptions::for_target(3));
    assert!(codes(&report).contains(&DiagCode::SparseNoSuffix));
}

#[test]
fn cost_model_matches_reference_accounting_for_zoo() {
    // The tentpole invariant: the cost pass rebuilds MAC accounting from
    // the IR alone and must agree with `Network::{total,prefix}_macs` —
    // the values the engine seeds `ExecStats::macs_executed` from — to
    // the MAC, for every zoo network at both serving targets.
    for workload in zoo::Workload::ALL {
        let z = workload.build(3);
        for target in [z.early_target, z.late_target] {
            let report = analyze(&z.network, &AnalysisOptions::for_target(target));
            let name = workload.name();
            let cost = report
                .cost
                .as_ref()
                .unwrap_or_else(|| panic!("{name} @ {target}: no cost model"));
            assert!(
                !codes(&report).contains(&DiagCode::CostModelMismatch),
                "{name} @ {target}:\n{}",
                report.render()
            );
            assert_eq!(
                cost.key_frame_macs,
                z.network.total_macs(),
                "{name} @ {target}"
            );
            assert_eq!(
                cost.prefix_macs,
                z.network.prefix_macs(target),
                "{name} @ {target}"
            );
            assert_eq!(
                cost.predicted_frame_macs,
                z.network.total_macs() - z.network.prefix_macs(target),
                "{name} @ {target}"
            );
            // Internal consistency of the summary itself.
            let layer_sum: u64 = cost.per_layer.iter().map(|c| c.macs).sum();
            assert_eq!(layer_sum, cost.key_frame_macs, "{name} @ {target}");
            assert_eq!(
                cost.predicted_ops_bound,
                cost.predicted_frame_macs + cost.rfbme_ops_bound + cost.warp_interpolations_bound,
                "{name} @ {target}"
            );
            assert!(cost.target_activation_bytes > 0, "{name} @ {target}");
        }
    }
}

#[test]
fn conv_scratch_bytes_is_what_the_live_scratch_grows_to() {
    // `LayerCost::scratch_bytes` models the padded (phase-split) input copy
    // of the direct convolution. Run every zoo conv through a fresh
    // `GemmScratch` and compare: all the live scratch holds beyond the
    // modelled bytes is the tap table (`C_in·K²` offsets, however the
    // allocator rounded it).
    for workload in zoo::Workload::ALL {
        let z = workload.build(3);
        let report = analyze(&z.network, &AnalysisOptions::for_target(z.late_target));
        let cost = report.cost.expect("zoo networks build a cost model");
        let mut x = Tensor3::filled(z.network.input_shape(), 0.5);
        for (layer, modelled) in z.network.layers().iter().zip(&cost.per_layer) {
            let mut scratch = GemmScratch::new();
            let input_channels = x.shape().channels;
            x = layer.forward_scratch(&x, &mut scratch);
            let live = scratch.capacity_bytes() as u64;
            let Some(g) = layer.geometry().filter(|_| layer.param_count() > 0) else {
                assert_eq!((modelled.scratch_bytes, live), (0, 0), "{}", layer.name());
                continue;
            };
            let taps = (input_channels * g.kernel * g.kernel * size_of::<usize>()) as u64;
            assert!(
                modelled.scratch_bytes <= live && live <= modelled.scratch_bytes + 2 * taps + 64,
                "{} {}: modelled {} vs live {live} (tap table {taps})",
                workload.name(),
                layer.name(),
                modelled.scratch_bytes,
            );
        }
    }
}

#[test]
fn unbuildable_cost_model_is_w_cost_002() {
    // Out-of-range target: every other pass errors too, and the cost pass
    // declines to publish a partial model.
    let report = analyze(&well_formed(), &AnalysisOptions::for_target(99));
    assert!(report.cost.is_none());
    assert!(
        codes(&report).contains(&DiagCode::CostModelIncomplete),
        "{}",
        report.render()
    );
}

#[test]
fn capacity_plan_scales_and_warns_below_key_frame() {
    let report = analyze(&well_formed(), &AnalysisOptions::for_target(2));
    let cost = report.cost.clone().expect("cost model built");

    // A generous envelope plans multiple frames per tick, cleanly.
    let plan = cost.capacity_plan(33.3, 10.0, 16, 100_000);
    assert!(plan.diagnostics.is_empty(), "{:?}", plan.diagnostics);
    assert!(plan.max_frames_per_tick > 1);
    assert!(plan.max_key_frames_per_tick >= 1);
    assert!(plan.max_key_frames_per_tick <= plan.max_frames_per_tick);
    assert_eq!(plan.max_total_bytes, plan.max_frames_per_tick * 100_000);

    // Doubling compute doubles the tick budget.
    let twice = cost.capacity_plan(33.3, 20.0, 16, 100_000);
    assert_eq!(twice.budget_macs_per_tick, 2 * plan.budget_macs_per_tick);

    // A starvation envelope cannot cover even one key frame: the plan is
    // clamped to one frame per tick and says so.
    let tiny = cost.capacity_plan(0.001, 1e-6, 16, 100_000);
    assert_eq!(tiny.max_frames_per_tick, 1);
    assert_eq!(tiny.diagnostics.len(), 1);
    assert_eq!(tiny.diagnostics[0].code, DiagCode::CapacityBelowKeyFrame);
}

#[test]
fn severity_matches_code_prefix() {
    // Harvest diagnostics from several broken nets and check each code's
    // E-/W- prefix agrees with the severity it was emitted at.
    let mut all = Vec::new();
    for (net, opts) in [
        (overflowing_net(), {
            let mut o = AnalysisOptions::for_target(2);
            o.fixed_point = true;
            o
        }),
        (well_formed(), AnalysisOptions::for_target(2)),
    ] {
        all.extend(analyze(&net, &opts).diagnostics);
    }
    for d in all {
        let expect = match d.severity {
            Severity::Error => 'E',
            Severity::Warning => 'W',
            Severity::Info => 'I',
        };
        assert!(
            d.code.as_str().starts_with(expect),
            "{} emitted at {}",
            d.code,
            d.severity
        );
    }
}
