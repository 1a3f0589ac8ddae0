//! Activation store benchmarks: the Q8.8 quantize a key frame runs beside
//! the hardware model's RLE encode/decode, at the sparsity levels the paper
//! reports (≈80% zeros after ReLU).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eva2_cnn::zoo;
use eva2_core::sparse::{QuantizedActivation, RleActivation};
use eva2_tensor::gemm::GemmScratch;
use eva2_tensor::{Shape3, Tensor3};
use std::hint::black_box;

fn activation(sparsity: f32) -> Tensor3 {
    Tensor3::from_fn(Shape3::new(32, 12, 12), |c, y, x| {
        let i = (c * 131 + y * 17 + x * 3) % 1000;
        if (i as f32) < sparsity * 1000.0 {
            0.0
        } else {
            (i as f32) * 0.01
        }
    })
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rle");
    for sparsity in [0.5f32, 0.8, 0.95] {
        let act = activation(sparsity);
        group.bench_with_input(
            BenchmarkId::new("quantize", format!("{:.0}pct", sparsity * 100.0)),
            &act,
            |b, act| b.iter(|| black_box(QuantizedActivation::quantize(act, 0.0))),
        );
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{:.0}pct", sparsity * 100.0)),
            &act,
            |b, act| b.iter(|| black_box(RleActivation::encode(act, 0.0))),
        );
        let rle = RleActivation::encode(&act, 0.0);
        group.bench_with_input(
            BenchmarkId::new("decode", format!("{:.0}pct", sparsity * 100.0)),
            &rle,
            |b, rle| b.iter(|| black_box(rle.decode())),
        );
    }
    group.finish();
}

/// Sparse-aware suffix vs densify-then-dense execution from the RLE store.
///
/// `densify` is the pre-engine behaviour (`rle.decode()` then a dense
/// suffix); `sparse` feeds the first suffix layer straight from the
/// non-zero runs. The acceptance bar: `sparse` wins at ≥ 50% sparsity.
fn bench_suffix_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("suffix_from_rle");
    group.sample_size(20);
    let z = zoo::tiny_fasterm(0);
    let target = z.late_target;
    let shape = z.network.shape_after(target);
    for sparsity in [0.5f32, 0.8, 0.95] {
        let act = Tensor3::from_fn(shape, |c, y, x| {
            let i = (c * 131 + y * 17 + x * 3) % 1000;
            if (i as f32) < sparsity * 1000.0 {
                0.0
            } else {
                (i as f32) * 0.004
            }
        });
        let rle = RleActivation::encode(&act, 0.0);
        let label = format!("{:.0}pct", sparsity * 100.0);
        group.bench_with_input(BenchmarkId::new("densify", &label), &rle, |b, rle| {
            b.iter(|| {
                let dense = rle.decode();
                black_box(z.network.forward_suffix(&dense, target))
            })
        });
        let mut scratch = GemmScratch::new();
        group.bench_with_input(BenchmarkId::new("sparse", &label), &rle, |b, rle| {
            b.iter(|| {
                let sparse = rle.to_sparse();
                black_box(
                    z.network
                        .forward_suffix_sparse(&sparse, target, &mut scratch),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_suffix_paths);
criterion_main!(benches);
