//! Helpers shared by the engine's bit-identity suites.

use eva2_core::executor::AmcFrameResult;
use eva2_core::FrameMetrics;

/// Asserts two frame results are the same bits: kind, output, work
/// counters, warp statistics, the motion metrics behind the decision and
/// the key-store compression. Floats compare by `to_bits`, so `-0.0`
/// differs from `0.0` and a NaN equals only the same NaN.
pub fn assert_result_eq(a: &AmcFrameResult, b: &AmcFrameResult, label: &str) {
    fn metric_bits(m: &Option<FrameMetrics>) -> Option<(u64, u32, u32, usize)> {
        m.map(|m| {
            (
                m.block_error,
                m.block_error_per_pixel.to_bits(),
                m.motion_magnitude.to_bits(),
                m.frames_since_key,
            )
        })
    }
    let bits = |r: &AmcFrameResult| -> Vec<u32> {
        r.output.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(a.is_key, b.is_key, "{label}: kind");
    assert_eq!(a.output.shape(), b.output.shape(), "{label}: output shape");
    assert_eq!(bits(a), bits(b), "{label}: output bits");
    assert_eq!(a.macs_executed, b.macs_executed, "{label}: MACs");
    assert_eq!(a.rfbme_ops, b.rfbme_ops, "{label}: RFBME ops");
    assert_eq!(a.warp, b.warp, "{label}: warp stats");
    assert_eq!(
        metric_bits(&a.metrics),
        metric_bits(&b.metrics),
        "{label}: metrics"
    );
    assert_eq!(
        a.compression.map(f32::to_bits),
        b.compression.map(f32::to_bits),
        "{label}: compression"
    );
}
