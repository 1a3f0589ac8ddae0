//! Full-scale network descriptions.
//!
//! The cost model never executes these networks — it only needs layer
//! geometry to count MACs (the paper's §IV-A formulas) and to locate the AMC
//! prefix/suffix split. A [`NetDescriptor`] lists its layers in the IR the
//! executable `eva2-cnn` layers describe themselves in
//! ([`LayerInfo`](eva2_cnn::describe::LayerInfo), without weight
//! statistics); shapes, MACs and receptive fields come from `eva2-analysis`.
//! Energy numbers come from these real AlexNet/VGG shapes, accuracy numbers
//! from the scaled-down analogues in `eva2-cnn` that we can train.

use eva2_cnn::describe::{LayerInfo, LayerKind};
use eva2_cnn::layer::LayerGeometry;
use eva2_tensor::Shape3;

/// A full network as a list of described layers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetDescriptor {
    /// Network name (paper convention).
    pub name: String,
    /// Input shape.
    pub input: Shape3,
    /// Layers in execution order.
    pub layers: Vec<LayerInfo>,
}

impl NetDescriptor {
    /// Builder: starts an empty descriptor.
    pub fn new(name: impl Into<String>, input: impl Into<Shape3>) -> Self {
        Self {
            name: name.into(),
            input: input.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a dense convolution (ReLUs are free in the MAC model, so the
    /// paper's tables list none).
    pub fn conv(
        self,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        self.conv_grouped(name, in_channels, out_channels, kernel, stride, padding, 1)
    }

    /// Appends a grouped convolution (AlexNet's two-GPU split).
    #[allow(clippy::too_many_arguments)]
    pub fn conv_grouped(
        self,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Self {
        let kind = LayerKind::Conv {
            in_channels,
            out_channels,
            groups,
        };
        let geometry = LayerGeometry {
            kernel,
            stride,
            padding,
        };
        self.push(name.into(), kind, Some(geometry))
    }

    /// Appends a max-pooling layer.
    pub fn pool(self, name: &str, kernel: usize, stride: usize) -> Self {
        let geometry = LayerGeometry {
            kernel,
            stride,
            padding: 0,
        };
        self.push(name.into(), LayerKind::Pool, Some(geometry))
    }

    /// Appends a fully-connected layer over the flattened activation the
    /// layers so far produce.
    pub fn fc(self, name: &str, out_features: usize) -> Self {
        let kind = LayerKind::FullyConnected {
            in_features: 0,
            out_features,
        };
        self.push(name.into(), kind, None)
    }

    /// Appends one layer; a fully-connected layer's `in_features` is the
    /// length of the running activation shape.
    fn push(mut self, name: String, mut kind: LayerKind, geometry: Option<LayerGeometry>) -> Self {
        if let LayerKind::FullyConnected { in_features, .. } = &mut kind {
            let shape = self
                .layers
                .iter()
                .try_fold(self.input, |s, l| l.output_shape(s));
            *in_features = shape.map_or(0, |s| s.len());
        }
        self.layers.push(LayerInfo {
            name,
            kind,
            geometry,
            channels: Vec::new(),
        });
        self
    }

    /// Returns the same layers evaluated at a different input size; each
    /// fully-connected layer's width follows the new input.
    ///
    /// Used by the cost model: FODLAM sums *published* per-layer results,
    /// which exist at the publication resolutions (227² AlexNet, 224²
    /// VGG-16), while receptive-field geometry and the §IV-A analysis use
    /// the true detection resolution.
    pub fn with_input(&self, input: impl Into<Shape3>) -> Self {
        let mut net = Self::new(self.name.clone(), input);
        for l in &self.layers {
            net = net.push(l.name.clone(), l.kind, l.geometry);
        }
        net
    }

    /// Index of the last spatial layer (the paper's default target).
    pub fn last_spatial_layer(&self) -> Option<usize> {
        self.layers
            .iter()
            .position(|l| matches!(l.kind, LayerKind::FullyConnected { .. }))
            .unwrap_or(self.layers.len())
            .checked_sub(1)
    }

    /// Index of the layer with the given name.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AmcCostConfig, HwModel, NetFigures};

    /// c1 → p1 → c2 → fc1, with the MACs of c1, c2 and fc1.
    fn toy() -> NetDescriptor {
        NetDescriptor::new("toy", (1, 32, 32))
            .conv("c1", 1, 8, 3, 1, 1)
            .pool("p1", 2, 2)
            .conv("c2", 8, 16, 3, 1, 1)
            .fc("fc1", 10)
    }
    const C1: u64 = 32 * 32 * 8 * 9;
    const C2: u64 = 16 * 16 * 16 * 8 * 9;
    const FC1: u64 = 16 * 16 * 16 * 10;

    fn figures(net: &NetDescriptor, target: usize) -> NetFigures {
        let amc = AmcCostConfig {
            target: Some(target),
            ..AmcCostConfig::default()
        };
        HwModel { amc }.figures(net)
    }

    #[test]
    fn shapes_propagate() {
        let n = toy();
        let shapes = [0, 1, 2].map(|t| figures(&n, t).target_shape);
        assert_eq!(shapes, [(8, 32, 32), (8, 16, 16), (16, 16, 16)]);
        // The FC width is the flattened shape before it, at any input size.
        let in_features = |n: &NetDescriptor| match n.layers[3].kind {
            LayerKind::FullyConnected { in_features, .. } => in_features,
            _ => 0,
        };
        assert_eq!(in_features(&n), 16 * 16 * 16);
        assert_eq!(in_features(&n.with_input((1, 16, 16))), 16 * 8 * 8);
    }

    #[test]
    fn macs_formula() {
        let f = figures(&toy(), 2);
        assert_eq!((f.total_macs, f.prefix_macs), (C1 + C2 + FC1, C1 + C2));
    }

    #[test]
    fn grouped_conv_divides_macs() {
        let dense = NetDescriptor::new("d", (96, 27, 27)).conv("c", 96, 256, 5, 1, 2);
        let grouped = NetDescriptor::new("g", (96, 27, 27)).conv_grouped("c", 96, 256, 5, 1, 2, 2);
        let (d, g) = (figures(&dense, 0), figures(&grouped, 0));
        assert_eq!(d.total_macs, 2 * g.total_macs);
        assert_eq!(d.target_shape, g.target_shape);
    }

    #[test]
    fn conv_fc_split() {
        let f = figures(&toy(), 2);
        assert_eq!((f.conv_macs, f.fc_macs), (C1 + C2, FC1));
    }

    #[test]
    fn prefix_and_split() {
        let f = figures(&toy(), 1);
        assert_eq!((f.prefix_macs, f.suffix_conv_macs), (C1, C2));
    }

    #[test]
    fn last_spatial_stops_before_fc() {
        let n = toy();
        assert_eq!(n.last_spatial_layer(), Some(2));
        assert_eq!(n.layer_index("c2"), Some(2));
        assert_eq!(n.layer_index("nope"), None);
    }

    #[test]
    fn receptive_field_fold() {
        // c1 (3,1,1) → rf (3,1,1); p1 (2,2) → (4,2,1); c2 → (8,2,3).
        assert_eq!(figures(&toy(), 2).receptive_field, (8, 2, 3));
    }
}
