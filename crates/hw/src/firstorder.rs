//! The §IV-A first-order op-count model.
//!
//! "AMC eliminates ~10¹¹ MACs in the CNN prefix and incurs only ~10⁷
//! additions for motion estimation. AMC's advantages stem from this large
//! difference between savings and overhead."
//!
//! [`HwModel::rfbme_params`](crate::cost::HwModel::rfbme_params) fills the
//! parameters from `eva2-analysis`'s report on a network.

/// Parameters of an RFBME run on one network's target layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfbmeParams {
    /// Target activation height ("layer height" in the paper's formulas).
    pub act_h: usize,
    /// Target activation width.
    pub act_w: usize,
    /// Receptive-field size in pixels.
    pub rf_size: usize,
    /// Receptive-field stride in pixels.
    pub rf_stride: usize,
    /// Search radius in pixels.
    pub search_radius: usize,
    /// Search stride in pixels.
    pub search_stride: usize,
}

impl RfbmeParams {
    /// Candidate offsets per axis: `2·radius / stride` (the paper's term).
    pub fn window_per_axis(&self) -> f64 {
        2.0 * self.search_radius as f64 / self.search_stride.max(1) as f64
    }
}

/// The paper's *unoptimized* motion-estimation op count:
///
/// ```text
/// ops = (layer_w × layer_h) × (2·radius / search_stride)² × rf_size²
/// ```
pub fn unoptimized_ops(p: &RfbmeParams) -> u64 {
    let cells = (p.act_h * p.act_w) as f64;
    let window = p.window_per_axis() * p.window_per_axis();
    let field = (p.rf_size * p.rf_size) as f64;
    (cells * window * field) as u64
}

/// The paper's *optimized* RFBME op count with tile reuse:
///
/// ```text
/// ops = unoptimized / rf_stride² + (layer_w × layer_h) × (rf_size / rf_stride)²
/// ```
pub fn rfbme_ops(p: &RfbmeParams) -> u64 {
    let cells = (p.act_h * p.act_w) as f64;
    let tiles = (p.rf_size / p.rf_stride.max(1)) as f64;
    (unoptimized_ops(p) as f64 / (p.rf_stride * p.rf_stride).max(1) as f64 + cells * tiles * tiles)
        as u64
}

/// Speedup of RFBME's reuse over the unoptimized search.
pub fn reuse_speedup(p: &RfbmeParams) -> f64 {
    unoptimized_ops(p) as f64 / rfbme_ops(p).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HwModel;
    use crate::nets;

    /// The §IV-A Faster16 example: unoptimized ≈ 3×10⁹ adds, RFBME ≈
    /// 1.3×10⁷, against a prefix of 1.7×10¹¹ MACs.
    #[test]
    fn faster16_numbers_match_paper() {
        let model = HwModel::default();
        let net = nets::faster16();
        let p = model.rfbme_params(&net);
        assert_eq!(p.rf_stride, 16);
        assert_eq!(p.rf_size, 196);
        let un = unoptimized_ops(&p) as f64;
        let opt = rfbme_ops(&p) as f64;
        assert!((un - 3.0e9).abs() / 3.0e9 < 0.35, "unoptimized {un:.3e}");
        assert!((opt - 1.3e7).abs() / 1.3e7 < 0.35, "optimized {opt:.3e}");
        // The headline gap: prefix MACs / RFBME ops ≈ 4 orders of magnitude.
        let ratio = model.figures(&net).prefix_macs as f64 / opt;
        assert!(ratio > 3.0e3, "savings ratio {ratio:.3e}");
    }

    #[test]
    fn reuse_speedup_scales_with_stride_squared() {
        // "The potential benefit from this reuse depends linearly on the
        // number of pixels per tile" — i.e. stride² per comparison.
        let base = RfbmeParams {
            act_h: 32,
            act_w: 32,
            rf_size: 64,
            rf_stride: 8,
            search_radius: 16,
            search_stride: 4,
        };
        let wider = RfbmeParams {
            rf_stride: 16,
            rf_size: 128,
            ..base
        };
        let s1 = reuse_speedup(&base);
        let s2 = reuse_speedup(&wider);
        assert!(s2 > s1 * 2.0, "speedups {s1:.1} vs {s2:.1}");
    }

    #[test]
    fn unoptimized_formula_literal() {
        let p = RfbmeParams {
            act_h: 10,
            act_w: 20,
            rf_size: 8,
            rf_stride: 4,
            search_radius: 8,
            search_stride: 2,
        };
        // 200 cells × (16/2)² × 64 = 200 × 64 × 64 = 819200.
        assert_eq!(unoptimized_ops(&p), 819_200);
        // 819200/16 + 200×4 = 51200 + 800.
        assert_eq!(rfbme_ops(&p), 52_000);
    }
}
