//! The network zoo: scaled-down analogues of the paper's three workloads.
//!
//! | Paper network | Task | Analogue | Structure preserved |
//! |---|---|---|---|
//! | AlexNet (5 conv + 3 FC) | classification | [`tiny_alexnet`] | conv/pool prefix, FC suffix, moderate depth |
//! | Faster16 (VGG-16 based Faster R-CNN) | detection | [`tiny_faster16`] | *deep* prefix of stacked 3×3 convs in 3 pooling stages |
//! | FasterM (CNN-M based Faster R-CNN) | detection | [`tiny_fasterm`] | *shallow* prefix with a stride-2 first conv (CNN-M style) |
//!
//! The analogues keep everything AMC interacts with — receptive-field
//! geometry, spatial-vs-FC layer split, early/late target layers, relative
//! depth ordering (Faster16 ≫ FasterM > AlexNet prefix cost) — while being
//! small enough to train from scratch on the synthetic dataset in seconds.
//! Full-scale layer shapes (for the hardware cost model) live in `eva2-hw`,
//! described in the same [`LayerInfo`](crate::describe::LayerInfo) IR these
//! networks describe themselves in, and costed by the same `eva2-analysis`
//! passes.

use crate::layer::{Conv2d, FullyConnected, MaxPool2d, Relu};
use crate::network::Network;
use eva2_tensor::Shape3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of object classes (matches `eva2_video::SpriteKind::COUNT`).
pub const NUM_CLASSES: usize = 8;

/// Channels in a detection head output: 4 bounding-box coordinates
/// (normalized cy, cx, h, w) followed by [`NUM_CLASSES`] class logits.
pub const DETECTION_OUTPUTS: usize = 4 + NUM_CLASSES;

/// The vision task a zoo network solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Frame classification (AlexNet's task; scored by top-1 accuracy).
    Classification,
    /// Single-object detection (Faster R-CNN's task; scored by mAP).
    Detection,
}

/// A zoo network plus the metadata AMC experiments need.
#[derive(Debug)]
pub struct ZooNet {
    /// The network itself.
    pub network: Network,
    /// The paper's "early" target layer: after the first pooling layer.
    pub early_target: usize,
    /// The paper's "late" (default) target layer: the last spatial layer.
    pub late_target: usize,
    /// The task this network solves.
    pub task: Task,
}

impl ZooNet {
    /// Frame size expected by the network.
    pub fn input_shape(&self) -> Shape3 {
        self.network.input_shape()
    }
}

/// Builds the AlexNet analogue: 3 conv stages, 32×32 input, classification.
pub fn tiny_alexnet(seed: u64) -> ZooNet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new("tiny-alexnet", Shape3::new(1, 32, 32));
    net.push(Box::new(Conv2d::new("conv1", 1, 8, 3, 1, 1, &mut rng))); // 0
    net.push(Box::new(Relu::new("relu1"))); // 1
    net.push(Box::new(MaxPool2d::new("pool1", 2, 2))); // 2 -> 8x16x16
    net.push(Box::new(Conv2d::new("conv2", 8, 16, 3, 1, 1, &mut rng))); // 3
    net.push(Box::new(Relu::new("relu2"))); // 4
    net.push(Box::new(MaxPool2d::new("pool2", 2, 2))); // 5 -> 16x8x8
    net.push(Box::new(Conv2d::new("conv3", 16, 32, 3, 1, 1, &mut rng))); // 6
    net.push(Box::new(Relu::new("relu3"))); // 7
    net.push(Box::new(MaxPool2d::new("pool3", 2, 2))); // 8 -> 32x4x4
    net.push(Box::new(FullyConnected::new(
        "fc1",
        32 * 4 * 4,
        48,
        &mut rng,
    ))); // 9
    net.push(Box::new(Relu::new("relu4"))); // 10
    net.push(Box::new(FullyConnected::new(
        "fc2",
        48,
        NUM_CLASSES,
        &mut rng,
    ))); // 11
    ZooNet {
        early_target: 2,
        late_target: 8,
        task: Task::Classification,
        network: net,
    }
}

/// Builds the Faster16 analogue: VGG-style stacked 3×3 convolutions in three
/// pooling stages, 48×48 input, detection head.
pub fn tiny_faster16(seed: u64) -> ZooNet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new("tiny-faster16", Shape3::new(1, 48, 48));
    net.push(Box::new(Conv2d::new("conv1_1", 1, 8, 3, 1, 1, &mut rng))); // 0
    net.push(Box::new(Relu::new("relu1_1"))); // 1
    net.push(Box::new(Conv2d::new("conv1_2", 8, 8, 3, 1, 1, &mut rng))); // 2
    net.push(Box::new(Relu::new("relu1_2"))); // 3
    net.push(Box::new(MaxPool2d::new("pool1", 2, 2))); // 4 -> 8x24x24
    net.push(Box::new(Conv2d::new("conv2_1", 8, 16, 3, 1, 1, &mut rng))); // 5
    net.push(Box::new(Relu::new("relu2_1"))); // 6
    net.push(Box::new(Conv2d::new("conv2_2", 16, 16, 3, 1, 1, &mut rng))); // 7
    net.push(Box::new(Relu::new("relu2_2"))); // 8
    net.push(Box::new(MaxPool2d::new("pool2", 2, 2))); // 9 -> 16x12x12
    net.push(Box::new(Conv2d::new("conv3_1", 16, 24, 3, 1, 1, &mut rng))); // 10
    net.push(Box::new(Relu::new("relu3_1"))); // 11
    net.push(Box::new(Conv2d::new("conv3_2", 24, 24, 3, 1, 1, &mut rng))); // 12
    net.push(Box::new(Relu::new("relu3_2"))); // 13
    net.push(Box::new(MaxPool2d::new("pool3", 2, 2))); // 14 -> 24x6x6
    net.push(Box::new(FullyConnected::new(
        "fc1",
        24 * 6 * 6,
        64,
        &mut rng,
    ))); // 15
    net.push(Box::new(Relu::new("relu_fc1"))); // 16
    net.push(Box::new(FullyConnected::new(
        "fc2",
        64,
        DETECTION_OUTPUTS,
        &mut rng,
    ))); // 17
    ZooNet {
        early_target: 4,
        late_target: 14,
        task: Task::Detection,
        network: net,
    }
}

/// Builds the FasterM analogue: CNN-M-style shallow prefix whose first
/// convolution has stride 2, 48×48 input, detection head.
pub fn tiny_fasterm(seed: u64) -> ZooNet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new("tiny-fasterm", Shape3::new(1, 48, 48));
    net.push(Box::new(Conv2d::new("conv1", 1, 8, 5, 2, 2, &mut rng))); // 0 -> 8x24x24
    net.push(Box::new(Relu::new("relu1"))); // 1
    net.push(Box::new(MaxPool2d::new("pool1", 2, 2))); // 2 -> 8x12x12
    net.push(Box::new(Conv2d::new("conv2", 8, 16, 3, 1, 1, &mut rng))); // 3
    net.push(Box::new(Relu::new("relu2"))); // 4
    net.push(Box::new(Conv2d::new("conv3", 16, 24, 3, 1, 1, &mut rng))); // 5
    net.push(Box::new(Relu::new("relu3"))); // 6
    net.push(Box::new(MaxPool2d::new("pool2", 2, 2))); // 7 -> 24x6x6
    net.push(Box::new(FullyConnected::new(
        "fc1",
        24 * 6 * 6,
        48,
        &mut rng,
    ))); // 8
    net.push(Box::new(Relu::new("relu_fc1"))); // 9
    net.push(Box::new(FullyConnected::new(
        "fc2",
        48,
        DETECTION_OUTPUTS,
        &mut rng,
    ))); // 10
    ZooNet {
        early_target: 2,
        late_target: 7,
        task: Task::Detection,
        network: net,
    }
}

/// Identifiers for the three workloads, used by experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// AlexNet analogue (classification).
    AlexNet,
    /// Faster16 analogue (deep detection).
    Faster16,
    /// FasterM analogue (shallow detection).
    FasterM,
}

impl Workload {
    /// All three paper workloads.
    pub const ALL: [Workload; 3] = [Workload::AlexNet, Workload::Faster16, Workload::FasterM];

    /// Builds the analogue network for this workload.
    pub fn build(self, seed: u64) -> ZooNet {
        match self {
            Workload::AlexNet => tiny_alexnet(seed),
            Workload::Faster16 => tiny_faster16(seed),
            Workload::FasterM => tiny_fasterm(seed),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlexNet => "AlexNet",
            Workload::Faster16 => "Faster16",
            Workload::FasterM => "FasterM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_tensor::Tensor3;

    #[test]
    fn alexnet_shapes() {
        let z = tiny_alexnet(0);
        assert_eq!(
            z.network.shape_after(z.early_target),
            Shape3::new(8, 16, 16)
        );
        assert_eq!(z.network.shape_after(z.late_target), Shape3::new(32, 4, 4));
        let out = z.network.forward(&Tensor3::zeros(z.input_shape()));
        assert_eq!(out.shape(), Shape3::new(NUM_CLASSES, 1, 1));
    }

    #[test]
    fn faster16_shapes() {
        let z = tiny_faster16(0);
        assert_eq!(z.network.shape_after(z.late_target), Shape3::new(24, 6, 6));
        let out = z.network.forward(&Tensor3::zeros(z.input_shape()));
        assert_eq!(out.shape(), Shape3::new(DETECTION_OUTPUTS, 1, 1));
    }

    #[test]
    fn fasterm_shapes() {
        let z = tiny_fasterm(0);
        assert_eq!(z.network.shape_after(0), Shape3::new(8, 24, 24));
        assert_eq!(z.network.shape_after(z.late_target), Shape3::new(24, 6, 6));
    }

    #[test]
    fn targets_match_network_introspection() {
        for w in Workload::ALL {
            let z = w.build(1);
            assert_eq!(
                z.network.first_pool_layer(),
                Some(z.early_target),
                "{}: early",
                w.name()
            );
            assert_eq!(
                z.network.last_spatial_layer(),
                Some(z.late_target),
                "{}: late",
                w.name()
            );
        }
    }

    #[test]
    fn prefix_cost_ordering_matches_paper() {
        // Faster16's prefix dominates FasterM's, which dominates AlexNet's —
        // the ordering behind the paper's energy ranking.
        let a = tiny_alexnet(0);
        let m = tiny_fasterm(0);
        let v = tiny_faster16(0);
        let am = a.network.prefix_macs(a.late_target);
        let mm = m.network.prefix_macs(m.late_target);
        let vm = v.network.prefix_macs(v.late_target);
        assert!(vm > mm, "faster16 {vm} <= fasterm {mm}");
        assert!(mm > am, "fasterm {mm} <= alexnet {am}");
    }

    #[test]
    fn receptive_fields_are_sane() {
        let z = tiny_faster16(0);
        let rf = z.network.receptive_field(z.late_target);
        assert_eq!(rf.stride, 8);
        assert!(rf.size > rf.stride, "RFBME needs overlapping fields");
        let z = tiny_fasterm(0);
        let rf = z.network.receptive_field(z.late_target);
        assert_eq!(rf.stride, 8);
    }

    #[test]
    fn networks_are_seed_deterministic() {
        let a = tiny_alexnet(7);
        let b = tiny_alexnet(7);
        let x = Tensor3::from_fn(a.input_shape(), |_, y, x| ((y ^ x) as f32) / 31.0);
        assert_eq!(a.network.forward(&x), b.network.forward(&x));
    }

    #[test]
    fn workload_names() {
        assert_eq!(Workload::AlexNet.name(), "AlexNet");
        assert_eq!(Workload::ALL.len(), 3);
    }
}
