//! Per-frame latency and energy (Fig 13, Table I).
//!
//! Cost of one frame on the VPU of Fig 5:
//!
//! * **Key frame** — Eyeriss runs every conv layer, EIE every FC layer, and
//!   EVA² stores the target activation. The model charges every key frame
//!   EVA²'s motion estimation too, as if the search had decided *that* it is
//!   a key. The software engine skips RFBME on keys the policy decides
//!   before searching (a forced gap, a static rate, always-key), so this
//!   over-prices those; ROADMAP item 11 re-prices frames from served counts.
//! * **Predicted frame** — EVA² runs RFBME + warping; Eyeriss runs only the
//!   conv layers after the target; EIE runs the FC layers.

use crate::calib::{
    ConvClass, EIE_ALEXNET_FC, EVA2_ADD_LANES, EVA2_CLOCK_NS, EVA2_INTERPS_PER_MS,
    EVA2_MJ_PER_INTERP, EVA2_MJ_PER_OP,
};
use crate::descriptor::NetDescriptor;
use crate::firstorder::{rfbme_ops, RfbmeParams};
use eva2_analysis::{analyze_layers, AnalysisOptions};
use eva2_cnn::describe::LayerKind;
use serde::{Deserialize, Serialize};

/// Latency/energy for one frame, with a per-unit breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameCost {
    /// Total frame latency, ms.
    pub latency_ms: f64,
    /// Total frame energy, mJ.
    pub energy_mj: f64,
    /// Eyeriss (conv) share of the energy, mJ.
    pub eyeriss_mj: f64,
    /// EIE (FC) share, mJ.
    pub eie_mj: f64,
    /// EVA² (motion estimation + compensation) share, mJ.
    pub eva2_mj: f64,
    /// Eyeriss share of latency, ms.
    pub eyeriss_ms: f64,
    /// EIE share of latency, ms.
    pub eie_ms: f64,
    /// EVA² share of latency, ms.
    pub eva2_ms: f64,
}

impl FrameCost {
    /// Weighted mixture: `key_fraction` of key-frame cost plus the rest of
    /// predicted-frame cost — the paper's "avg" bars in Fig 13.
    pub fn mix(key: &FrameCost, predicted: &FrameCost, key_fraction: f64) -> FrameCost {
        let mix = |k: f64, p: f64| k * key_fraction + p * (1.0 - key_fraction);
        FrameCost {
            latency_ms: mix(key.latency_ms, predicted.latency_ms),
            energy_mj: mix(key.energy_mj, predicted.energy_mj),
            eyeriss_mj: mix(key.eyeriss_mj, predicted.eyeriss_mj),
            eie_mj: mix(key.eie_mj, predicted.eie_mj),
            eva2_mj: mix(key.eva2_mj, predicted.eva2_mj),
            eyeriss_ms: mix(key.eyeriss_ms, predicted.eyeriss_ms),
            eie_ms: mix(key.eie_ms, predicted.eie_ms),
            eva2_ms: mix(key.eva2_ms, predicted.eva2_ms),
        }
    }
}

/// AMC execution parameters the cost model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmcCostConfig {
    /// Prefix target layer index in the descriptor (defaults to the
    /// workload's canonical target when `None`).
    pub target: Option<usize>,
    /// RFBME search radius in pixels.
    pub search_radius: usize,
    /// RFBME search stride in pixels.
    pub search_stride: usize,
}

impl Default for AmcCostConfig {
    fn default() -> Self {
        Self {
            target: None,
            search_radius: 24,
            search_stride: 8,
        }
    }
}

/// The layer-geometry figures the model prices one network by, at the
/// model's AMC target, read from `eva2-analysis`'s report on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFigures {
    /// MACs of a full forward pass.
    pub total_macs: u64,
    /// MACs of the conv layers, which run on Eyeriss.
    pub conv_macs: u64,
    /// MACs of the fully-connected layers, which run on EIE.
    pub fc_macs: u64,
    /// MACs of the AMC prefix `0..=target`.
    pub prefix_macs: u64,
    /// Conv MACs after the target, which predicted frames still run.
    pub suffix_conv_macs: u64,
    /// Target activation shape `(channels, height, width)`.
    pub target_shape: (usize, usize, usize),
    /// Receptive field `(size, stride, padding)` of the target activation.
    pub receptive_field: (usize, usize, usize),
}

/// The first-order hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwModel {
    /// AMC parameters.
    pub amc: AmcCostConfig,
}

impl HwModel {
    /// Canonical AMC target layer for a workload descriptor: the last conv
    /// layer of the feature extractor (conv5_3 for Faster16, conv5 for
    /// FasterM and AlexNet; otherwise pool5, or the last spatial layer
    /// before the head).
    pub fn canonical_target(net: &NetDescriptor) -> usize {
        for name in ["conv5_3", "conv5", "pool5"] {
            if let Some(i) = net.layer_index(name) {
                return i;
            }
        }
        net.last_spatial_layer().unwrap_or(0)
    }

    /// MAC counts, target shape and receptive field of `net` at this
    /// model's target, from [`analyze_layers`]'s report. Panics when the
    /// report has no cost model or receptive field (a collapsed layer or a
    /// non-spatial target).
    ///
    /// Diagnostics play no part: the detection networks list the RPN's
    /// sibling 1×1 convs in sequence, so the shape pass flags the second
    /// one's input width, and every layer is still priced by its own widths.
    pub fn figures(&self, net: &NetDescriptor) -> NetFigures {
        let target = self.target(net);
        let opts = AnalysisOptions {
            search_radius: self.amc.search_radius,
            search_step: self.amc.search_stride,
            ..AnalysisOptions::for_target(target)
        };
        let report = analyze_layers(&net.name, net.input, &net.layers, &opts);
        let shape = report.layers[target].shape;
        let (Some(cost), Some(rf), Some(target_shape)) =
            (report.cost, report.receptive_field, shape)
        else {
            panic!("{} cannot be priced at layer {target}", net.name);
        };
        let macs = |pick: &dyn Fn(usize, LayerKind) -> bool| -> u64 {
            let layers = net.layers.iter().zip(&cost.per_layer).enumerate();
            layers
                .filter(|&(i, (l, _))| pick(i, l.kind))
                .map(|(_, (_, c))| c.macs)
                .sum()
        };
        let conv = |k| matches!(k, LayerKind::Conv { .. });
        NetFigures {
            total_macs: cost.key_frame_macs,
            conv_macs: macs(&|_, k| conv(k)),
            fc_macs: macs(&|_, k| matches!(k, LayerKind::FullyConnected { .. })),
            prefix_macs: cost.prefix_macs,
            suffix_conv_macs: macs(&|i, k| i > target && conv(k)),
            target_shape,
            receptive_field: (rf.size, rf.stride, rf.padding),
        }
    }

    fn target(&self, net: &NetDescriptor) -> usize {
        self.amc
            .target
            .unwrap_or_else(|| Self::canonical_target(net))
    }

    /// The resolution at which FODLAM's published per-layer anchors exist.
    ///
    /// The paper's Table I `orig` numbers line up with the published
    /// Eyeriss runs at the *publication* resolutions (AlexNet 227², VGG-16
    /// 224²), while §IV-A counts MACs at the detection resolution — two
    /// separate analyses in the paper. The cost model follows FODLAM and
    /// costs conv layers at the anchor resolution; RFBME geometry and the
    /// first-order model keep the true 1000×562 shapes.
    fn costing_net(net: &NetDescriptor) -> NetDescriptor {
        if net.input.height > 300 || net.input.width > 300 {
            net.with_input((net.input.channels, 224, 224))
        } else {
            net.clone()
        }
    }

    fn conv_cost(&self, name: &str, macs: u64) -> (f64, f64) {
        let anchor = ConvClass::for_workload(name).anchor();
        let ms = macs as f64 / anchor.macs_per_ms();
        let mj = macs as f64 * anchor.mj_per_mac();
        (ms, mj)
    }

    fn fc_cost(&self, costing: &NetFigures) -> (f64, f64) {
        let macs = costing.fc_macs as f64;
        let ms = EIE_ALEXNET_FC.latency_ms * macs / EIE_ALEXNET_FC.macs;
        let mj = EIE_ALEXNET_FC.energy_mj * macs / EIE_ALEXNET_FC.macs;
        (ms, mj)
    }

    /// RFBME parameters for this network's target layer.
    pub fn rfbme_params(&self, net: &NetDescriptor) -> RfbmeParams {
        let f = self.figures(net);
        RfbmeParams {
            act_h: f.target_shape.1,
            act_w: f.target_shape.2,
            rf_size: f.receptive_field.0,
            rf_stride: f.receptive_field.1,
            search_radius: self.amc.search_radius,
            search_stride: self.amc.search_stride,
        }
    }

    fn eva2_cost(&self, net: &NetDescriptor) -> (f64, f64) {
        let ops = rfbme_ops(&self.rfbme_params(net)) as f64;
        let (c, h, w) = self.figures(net).target_shape;
        let interpolations = (c * h * w) as f64;
        // Activation sparsity lets the warp engine skip most interpolations;
        // the paper reports ≈80% sparse activations (§III-B).
        let effective_interps = interpolations * 0.25;
        let ms =
            ops / EVA2_ADD_LANES * EVA2_CLOCK_NS * 1e-6 + effective_interps / EVA2_INTERPS_PER_MS;
        let mj = ops * EVA2_MJ_PER_OP + effective_interps * EVA2_MJ_PER_INTERP;
        (ms, mj)
    }

    /// One frame from each unit's `(ms, mJ)`: Eyeriss, EIE and EVA².
    fn frame(
        (conv_ms, conv_mj): (f64, f64),
        (fc_ms, fc_mj): (f64, f64),
        (eva_ms, eva_mj): (f64, f64),
    ) -> FrameCost {
        FrameCost {
            latency_ms: conv_ms + fc_ms + eva_ms,
            energy_mj: conv_mj + fc_mj + eva_mj,
            eyeriss_mj: conv_mj,
            eie_mj: fc_mj,
            eva2_mj: eva_mj,
            eyeriss_ms: conv_ms,
            eie_ms: fc_ms,
            eva2_ms: eva_ms,
        }
    }

    /// Cost of a key frame: the full CNN (the paper's `orig` configuration
    /// is exactly this, with zero EVA² contribution).
    pub fn key_frame_cost(&self, net: &NetDescriptor) -> FrameCost {
        let costing = self.figures(&Self::costing_net(net));
        // Every key pays EVA²'s motion estimation here, although the engine
        // runs no RFBME on a key the policy decided before searching.
        // ROADMAP item 11 re-prices this from served counts.
        Self::frame(
            self.conv_cost(&net.name, costing.conv_macs),
            self.fc_cost(&costing),
            self.eva2_cost(net),
        )
    }

    /// Cost of the baseline (no EVA² attached at all): Eyeriss + EIE only.
    pub fn baseline_cost(&self, net: &NetDescriptor) -> FrameCost {
        let costing = self.figures(&Self::costing_net(net));
        Self::frame(
            self.conv_cost(&net.name, costing.conv_macs),
            self.fc_cost(&costing),
            (0.0, 0.0),
        )
    }

    /// Cost of a predicted frame: EVA² + conv suffix + FC layers.
    pub fn predicted_frame_cost(&self, net: &NetDescriptor) -> FrameCost {
        let costing = self.figures(&Self::costing_net(net));
        Self::frame(
            self.conv_cost(&net.name, costing.suffix_conv_macs),
            self.fc_cost(&costing),
            self.eva2_cost(net),
        )
    }

    /// Average per-frame cost at a given key-frame fraction (Table I's
    /// `time`/`energy` columns; Fig 13's `avg` bars).
    pub fn average_cost(&self, net: &NetDescriptor, key_fraction: f64) -> FrameCost {
        FrameCost::mix(
            &self.key_frame_cost(net),
            &self.predicted_frame_cost(net),
            key_fraction.clamp(0.0, 1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nets;

    #[test]
    fn orig_costs_match_table1_anchors() {
        // Table I `orig` rows: AlexNet 115.4 ms / 32.2 mJ; Faster16 4370.1
        // ms / 1035.5 mJ. Our baseline derives from the same published
        // Eyeriss runs, so it must land close.
        let model = HwModel::default();
        let a = model.baseline_cost(&nets::alexnet());
        assert!((a.latency_ms - 115.4).abs() / 115.4 < 0.15, "{a:?}");
        assert!((a.energy_mj - 32.2).abs() / 32.2 < 0.15, "{a:?}");
        let f = model.baseline_cost(&nets::faster16());
        assert!((f.latency_ms - 4370.0).abs() / 4370.0 < 0.25, "{f:?}");
        assert!((f.energy_mj - 1035.5).abs() / 1035.5 < 0.25, "{f:?}");
    }

    #[test]
    fn predicted_frames_are_much_cheaper() {
        let model = HwModel::default();
        for net in [nets::alexnet(), nets::faster16(), nets::fasterm()] {
            let key = model.key_frame_cost(&net);
            let pred = model.predicted_frame_cost(&net);
            assert!(
                pred.energy_mj < key.energy_mj * 0.25,
                "{}: pred {pred:?} vs key {key:?}",
                net.name
            );
            assert!(pred.latency_ms < key.latency_ms * 0.25, "{}", net.name);
        }
    }

    #[test]
    fn average_interpolates_between_extremes() {
        let model = HwModel::default();
        let net = nets::fasterm();
        let key = model.key_frame_cost(&net);
        let pred = model.predicted_frame_cost(&net);
        let avg = model.average_cost(&net, 0.37);
        assert!(avg.energy_mj < key.energy_mj && avg.energy_mj > pred.energy_mj);
        let expect = 0.37 * key.energy_mj + 0.63 * pred.energy_mj;
        assert!((avg.energy_mj - expect).abs() < 1e-9);
    }

    #[test]
    fn table1_med_energy_reductions_reproduce() {
        // Table I `med` rows: AlexNet 11% keys → 4.0 mJ (88% saving);
        // Faster16 36% keys → 396.4 mJ (62%); FasterM 37% → 53.4 mJ (54%).
        let model = HwModel::default();
        let cases = [
            (nets::alexnet(), 0.11, 32.2, 4.0),
            (nets::faster16(), 0.36, 1035.5, 396.4),
            (nets::fasterm(), 0.37, 116.7, 53.4),
        ];
        for (net, keys, orig_paper, avg_paper) in cases {
            let avg = model.average_cost(&net, keys);
            let orig = model.baseline_cost(&net);
            let our_ratio = avg.energy_mj / orig.energy_mj;
            let paper_ratio = avg_paper / orig_paper;
            assert!(
                (our_ratio - paper_ratio).abs() < 0.12,
                "{}: our ratio {our_ratio:.3} vs paper {paper_ratio:.3}",
                net.name
            );
        }
    }

    #[test]
    fn eva2_overhead_is_small() {
        // EVA²'s own cost must be a small fraction of even a predicted
        // frame for the big detection nets (else AMC couldn't win).
        let model = HwModel::default();
        let net = nets::faster16();
        let pred = model.predicted_frame_cost(&net);
        assert!(
            pred.eva2_mj < pred.energy_mj * 0.6,
            "EVA2 {} of {}",
            pred.eva2_mj,
            pred.energy_mj
        );
    }

    #[test]
    fn fc_latency_is_orders_of_magnitude_below_conv() {
        let model = HwModel::default();
        let net = nets::faster16();
        let key = model.key_frame_cost(&net);
        assert!(key.eie_ms < key.eyeriss_ms / 100.0);
    }

    #[test]
    fn canonical_targets() {
        assert_eq!(
            HwModel::canonical_target(&nets::faster16()),
            nets::faster16().layer_index("conv5_3").unwrap()
        );
        assert_eq!(
            HwModel::canonical_target(&nets::fasterm()),
            nets::fasterm().layer_index("conv5").unwrap()
        );
    }

    #[test]
    fn mix_endpoints() {
        let a = FrameCost {
            latency_ms: 10.0,
            energy_mj: 5.0,
            ..FrameCost::default()
        };
        let b = FrameCost {
            latency_ms: 2.0,
            energy_mj: 1.0,
            ..FrameCost::default()
        };
        assert_eq!(FrameCost::mix(&a, &b, 1.0).latency_ms, 10.0);
        assert_eq!(FrameCost::mix(&a, &b, 0.0).energy_mj, 1.0);
    }
}
