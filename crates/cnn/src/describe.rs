//! A static layer IR: the one description of a network.
//!
//! [`LayerInfo`] is the *description* of a layer — everything a static
//! verifier needs to reason about a network without running it: the layer
//! kind, its spatial geometry, and per-output-channel weight magnitude
//! statistics. The `eva2-analysis` crate folds these descriptions into
//! shape inference, warp-legality proofs, interval analysis and the cost
//! model; `eva2-hw` describes the paper's full-scale networks in it too,
//! without weight statistics. A new layer type only has to implement
//! [`Layer::describe`](crate::layer::Layer::describe) once to be analyzed.
//!
//! The IR is deliberately lossy: it carries weight *bounds*, not weights.
//! A conv layer with 10k parameters describes itself in
//! `out_channels × 4` floats, so a full-network description is cheap enough
//! to rebuild at every engine or session construction.

use crate::layer::LayerGeometry;
use eva2_tensor::Shape3;

/// What kind of computation a layer performs, as far as static analysis is
/// concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution: spatial, translation-equivariant, has parameters.
    Conv {
        /// Input channels the layer expects.
        in_channels: usize,
        /// Output channels (filters) the layer produces.
        out_channels: usize,
        /// Filter groups (AlexNet's split layers): each output sees
        /// `in_channels / groups` inputs. Every runtime `Conv2d` has 1.
        groups: usize,
    },
    /// Max pooling: spatial, translation-equivariant modulo stride,
    /// parameter-free, monotone (output range ⊆ input range).
    Pool,
    /// ReLU: pointwise, clamps the activation range at zero from below.
    Relu,
    /// Fully connected: *not* spatial — must stay in the CNN suffix.
    FullyConnected {
        /// Flattened input length the layer expects.
        in_features: usize,
        /// Output features the layer produces.
        out_features: usize,
    },
    /// A layer type the analysis does not know. Shape and range
    /// propagation stop here (reported as a warning, never silently
    /// guessed).
    Opaque,
}

impl LayerKind {
    /// Short human-readable label (`conv`, `pool`, …) for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LayerKind::Conv { .. } => "conv",
            LayerKind::Pool => "pool",
            LayerKind::Relu => "relu",
            LayerKind::FullyConnected { .. } => "fc",
            LayerKind::Opaque => "opaque",
        }
    }
}

/// Per-output-channel weight magnitude statistics.
///
/// These are exactly the sufficient statistics for interval arithmetic over
/// a linear channel `y = b + Σᵢ wᵢ·xᵢ` with every `xᵢ` drawn independently
/// from one interval `[lo, hi]`:
///
/// ```text
/// min y = b + pos_sum·lo + neg_sum·hi
/// max y = b + pos_sum·hi + neg_sum·lo
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Sum of the positive weights feeding this channel (`Σ max(w, 0)`).
    pub pos_sum: f32,
    /// Sum of the negative weights feeding this channel (`Σ min(w, 0)`,
    /// always ≤ 0).
    pub neg_sum: f32,
    /// Largest absolute weight feeding this channel.
    pub max_abs: f32,
    /// The channel's bias term.
    pub bias: f32,
}

impl ChannelStats {
    /// Accumulates the statistics of one channel's weight slice and bias.
    pub fn of(weights: &[f32], bias: f32) -> Self {
        let mut s = ChannelStats {
            pos_sum: 0.0,
            neg_sum: 0.0,
            max_abs: 0.0,
            bias,
        };
        for &w in weights {
            if w > 0.0 {
                s.pos_sum += w;
            } else {
                s.neg_sum += w;
            }
            s.max_abs = s.max_abs.max(w.abs());
        }
        s
    }
}

/// The static description of one layer — the IR node
/// [`Layer::describe`](crate::layer::Layer::describe) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInfo {
    /// The layer's human-readable name (e.g. `conv2`).
    pub name: String,
    /// What the layer computes.
    pub kind: LayerKind,
    /// Kernel/stride/padding for spatial layers, `None` for non-spatial
    /// ones — mirrors [`Layer::geometry`](crate::layer::Layer::geometry).
    pub geometry: Option<LayerGeometry>,
    /// Per-output-channel weight statistics. One entry per output channel
    /// (conv) or output feature (fully connected); empty for
    /// parameter-free layers.
    pub channels: Vec<ChannelStats>,
}

impl LayerInfo {
    /// Output shape for `input`, from the layer's geometry and declared
    /// widths alone (whether they fit `input` is the analysis shape pass's
    /// check); `None` for an opaque layer or a spatial one without geometry.
    pub fn output_shape(&self, input: Shape3) -> Option<Shape3> {
        let (channels, g) = match self.kind {
            LayerKind::Conv { out_channels, .. } => (out_channels, self.geometry?),
            LayerKind::Pool => (input.channels, self.geometry?),
            LayerKind::Relu => return Some(input),
            LayerKind::FullyConnected { out_features, .. } => {
                return Some(Shape3::new(out_features, 1, 1))
            }
            LayerKind::Opaque => return None,
        };
        let (h, w) = (g.output_len(input.height), g.output_len(input.width));
        Some(Shape3::new(channels, h, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_stats_split_signs() {
        let s = ChannelStats::of(&[1.0, -2.0, 3.0, -0.5, 0.0], 0.25);
        assert_eq!(s.pos_sum, 4.0);
        assert_eq!(s.neg_sum, -2.5);
        assert_eq!(s.max_abs, 3.0);
        assert_eq!(s.bias, 0.25);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(
            LayerKind::Conv {
                in_channels: 1,
                out_channels: 2,
                groups: 1
            }
            .label(),
            "conv"
        );
        assert_eq!(LayerKind::Pool.label(), "pool");
        assert_eq!(LayerKind::Relu.label(), "relu");
        assert_eq!(
            LayerKind::FullyConnected {
                in_features: 4,
                out_features: 2
            }
            .label(),
            "fc"
        );
        assert_eq!(LayerKind::Opaque.label(), "opaque");
    }
}
