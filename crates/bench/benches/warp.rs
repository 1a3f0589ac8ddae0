//! Warp-engine benchmarks: bilinear vs nearest interpolation, float
//! reference vs the bit-accurate Q8.8 datapath, dense vs sparse
//! activations (the §V claim that zero skipping cuts compensation cost),
//! and the predicted-frame tail the serving engine runs against its
//! dense-intermediate alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::sparse::QuantizedActivation;
use eva2_core::warp::{warp_activation, warp_activation_fixed, warp_quantized_sparse};
use eva2_motion::field::{MotionVector, VectorField};
use eva2_motion::rfbme::{Rfbme, SearchParams};
use eva2_tensor::gemm::GemmScratch;
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GrayImage, Shape3, SparseActivation, Tensor3};
use std::hint::black_box;

fn activation(c: usize, hw: usize, sparsity: f32) -> Tensor3 {
    Tensor3::from_fn(Shape3::new(c, hw, hw), |ch, y, x| {
        let i = (ch * 31 + y * 7 + x) % 100;
        if (i as f32) < sparsity * 100.0 {
            0.0
        } else {
            (i as f32) * 0.05 - 1.0
        }
    })
}

fn field(hw: usize) -> VectorField {
    VectorField::from_fn(hw, hw, 8, |y, x| {
        MotionVector::new(((y % 5) as f32 - 2.0) * 1.7, ((x % 3) as f32 - 1.0) * 2.3)
    })
}

fn bench_warp_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_24ch_12x12");
    let act = activation(24, 12, 0.6);
    let f = field(12);
    group.bench_function("bilinear_f32", |b| {
        b.iter(|| black_box(warp_activation(&act, &f, 8, Interpolation::Bilinear)))
    });
    group.bench_function("nearest_f32", |b| {
        b.iter(|| black_box(warp_activation(&act, &f, 8, Interpolation::NearestNeighbor)))
    });
    group.bench_function("bilinear_q88_fixed", |b| {
        b.iter(|| black_box(warp_activation_fixed(&act, &f, 8)))
    });
    group.finish();
}

fn bench_warp_sparsity(c: &mut Criterion) {
    // Zero-skipping in the stats path: sparser activations do less multiply
    // work (the hardware skips the loads entirely).
    let mut group = c.benchmark_group("warp_sparsity");
    for sparsity in [0.0f32, 0.5, 0.9] {
        let act = activation(24, 12, sparsity);
        let f = field(12);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}pct_zero", sparsity * 100.0)),
            &sparsity,
            |b, _| b.iter(|| black_box(warp_activation_fixed(&act, &f, 8))),
        );
    }
    group.finish();
}

/// Warp + sparse suffix at `tiny_fasterm`'s late target: `dense` warps the
/// dequantized key into a dense tensor and re-sparsifies it with
/// `from_dense`; `fused` is what the serving engine runs,
/// `warp_quantized_sparse` from the stored Q8.8 key straight into the
/// sparse suffix. Key state is prepared outside the timed bodies, as a
/// session holds it.
fn bench_predicted_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("predicted_tail_fasterm");
    group.sample_size(20);
    let z = zoo::tiny_fasterm(0);
    let (net, target, config) = (&z.network, z.late_target, AmcConfig::default());
    let rf = AmcExecutor::try_new(net, config).unwrap().rf_geometry();
    let f0 = GrayImage::from_fn(48, 48, |y, x| {
        (125.0 + 50.0 * ((y as f32 * 0.29).sin() + (x as f32 * 0.21).cos())) as u8
    });
    let f1 = f0.translate(0, 1, 0);
    let mut scratch = GemmScratch::new();
    let act = net.forward_prefix_scratch(&f0.to_tensor(), target, &mut scratch);
    let stored = QuantizedActivation::quantize(&act, config.sparsity_threshold);
    let key = stored.dequantize();
    let field = Rfbme::new(rf, SearchParams { radius: 8, step: 1 })
        .estimate(&f0, &f1)
        .field;
    let bilinear = Interpolation::Bilinear;
    group.bench_function("dense", |b| {
        b.iter(|| {
            let (warped, _) = warp_activation(&key, &field, rf.stride, bilinear);
            let sparse = SparseActivation::from_dense(&warped, 0.0);
            black_box(net.forward_suffix_sparse(&sparse, target, &mut scratch))
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            let (sparse, _) = warp_quantized_sparse(&stored, &field, rf.stride, bilinear);
            black_box(net.forward_suffix_sparse(&sparse, target, &mut scratch))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_warp_methods,
    bench_warp_sparsity,
    bench_predicted_tail
);
criterion_main!(benches);
