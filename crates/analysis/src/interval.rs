//! Interval arithmetic for the fixed-point range analysis.
//!
//! An [`Interval`] is an *admissible over-approximation* of every value a
//! layer's activation can take when the network input is drawn from a
//! declared range: the true activations always lie inside the interval, but
//! the interval may be wider than necessary. Admissibility is what makes the
//! E-RANGE/W-RANGE diagnostics trustworthy — "this interval fits Q8.8"
//! really means no input in range can saturate the datapath.
//!
//! Propagation works on the [`LayerInfo`](eva2_cnn::describe::LayerInfo) IR,
//! not on weights: a linear channel `y = b + Σᵢ wᵢ·xᵢ` with every `xᵢ` in
//! `[lo, hi]` is bounded by the channel's signed weight sums
//! (see [`ChannelStats`]). Arithmetic runs in `f64` and the result is
//! widened by a small slack so that `f32` summation-order noise in the real
//! forward pass can never escape the predicted bound.

use eva2_cnn::describe::{ChannelStats, LayerInfo, LayerKind};

/// A closed interval `[lo, hi]` of activation values, in `f64` so bound
/// arithmetic never loses to the `f32` forward pass it predicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
}

impl Interval {
    /// The interval containing exactly `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Interval { lo, hi }
    }

    /// The largest absolute value the interval contains.
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// The smallest interval containing both `self` and `other`.
    pub fn union(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The interval extended to contain zero — the value zero-padding
    /// injects at a layer's spatial border.
    pub fn with_zero(&self) -> Interval {
        Interval {
            lo: self.lo.min(0.0),
            hi: self.hi.max(0.0),
        }
    }

    /// Bound of one linear channel `b + Σᵢ wᵢ·xᵢ` with all `xᵢ ∈ self`.
    pub fn through_channel(&self, ch: &ChannelStats) -> Interval {
        let (pos, neg, b) = (ch.pos_sum as f64, ch.neg_sum as f64, ch.bias as f64);
        Interval {
            lo: b + pos * self.lo + neg * self.hi,
            hi: b + pos * self.hi + neg * self.lo,
        }
    }

    /// Widens both bounds by an absolute + relative slack.
    ///
    /// The analysis computes bounds in `f64`, but the network's forward
    /// pass sums in `f32` in an implementation-defined order (blocked
    /// kernel vs naive loops); the slack absorbs that rounding noise so the
    /// proptest soundness contract ("every actual activation lies inside
    /// the predicted interval") holds for every execution path.
    pub fn slacked(&self) -> Interval {
        let pad = 1e-4 + 1e-5 * self.mag();
        Interval {
            lo: self.lo - pad,
            hi: self.hi + pad,
        }
    }
}

/// Propagates an input interval through one described layer.
///
/// Returns `None` for [`LayerKind::Opaque`] — the range analysis stops
/// rather than guessing (reported upstream as `W-SHAPE-004`).
pub fn propagate(info: &LayerInfo, input: Interval) -> Option<Interval> {
    match info.kind {
        LayerKind::Conv { .. } | LayerKind::FullyConnected { .. } => {
            // Zero-padding makes 0 a possible input of a padded conv window.
            let x = match info.geometry {
                Some(g) if g.padding > 0 => input.with_zero(),
                _ => input,
            };
            let out = info
                .channels
                .iter()
                .map(|ch| x.through_channel(ch))
                .reduce(|a, b| a.union(b))?;
            Some(out.slacked())
        }
        // max over a window of values each in `input` stays in `input`.
        LayerKind::Pool => Some(input),
        LayerKind::Relu => Some(Interval {
            lo: input.lo.max(0.0),
            hi: input.hi.max(0.0),
        }),
        LayerKind::Opaque => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_cnn::layer::LayerGeometry;

    fn conv_info(channels: Vec<ChannelStats>, padding: usize) -> LayerInfo {
        LayerInfo {
            name: "c".into(),
            kind: LayerKind::Conv {
                in_channels: 1,
                out_channels: channels.len(),
            },
            geometry: Some(LayerGeometry {
                kernel: 3,
                stride: 1,
                padding,
            }),
            channels,
        }
    }

    #[test]
    fn channel_bound_splits_signs() {
        // y = 0.5 + 2x₁ - 3x₂ with x ∈ [0, 1]: y ∈ [-2.5, 2.5].
        let ch = ChannelStats {
            pos_sum: 2.0,
            neg_sum: -3.0,
            max_abs: 3.0,
            bias: 0.5,
        };
        let out = Interval::new(0.0, 1.0).through_channel(&ch);
        assert_eq!(out.lo, -2.5);
        assert_eq!(out.hi, 2.5);
    }

    #[test]
    fn padding_widens_input_to_include_zero() {
        // With input strictly positive [2, 3] and one negative weight,
        // padding zeros make x = 0 reachable, so the bound must be the
        // padded one: y = -1·x, x ∈ [0, 3] → y ∈ [-3, 0].
        let ch = ChannelStats {
            pos_sum: 0.0,
            neg_sum: -1.0,
            max_abs: 1.0,
            bias: 0.0,
        };
        let padded = propagate(&conv_info(vec![ch], 1), Interval::new(2.0, 3.0)).unwrap();
        assert!(padded.lo <= -3.0 && padded.hi >= 0.0, "{padded:?}");
        let unpadded = propagate(&conv_info(vec![ch], 0), Interval::new(2.0, 3.0)).unwrap();
        assert!(unpadded.hi < -1.9, "{unpadded:?}");
    }

    #[test]
    fn relu_clamps_pool_passes_opaque_stops() {
        let relu = LayerInfo {
            name: "r".into(),
            kind: LayerKind::Relu,
            geometry: Some(LayerGeometry::IDENTITY),
            channels: Vec::new(),
        };
        let out = propagate(&relu, Interval::new(-2.0, 3.0)).unwrap();
        assert_eq!((out.lo, out.hi), (0.0, 3.0));

        let pool = LayerInfo {
            name: "p".into(),
            kind: LayerKind::Pool,
            geometry: Some(LayerGeometry {
                kernel: 2,
                stride: 2,
                padding: 0,
            }),
            channels: Vec::new(),
        };
        let out = propagate(&pool, Interval::new(-2.0, 3.0)).unwrap();
        assert_eq!((out.lo, out.hi), (-2.0, 3.0));

        let opaque = LayerInfo {
            name: "o".into(),
            kind: LayerKind::Opaque,
            geometry: None,
            channels: Vec::new(),
        };
        assert!(propagate(&opaque, Interval::new(0.0, 1.0)).is_none());
    }
}
