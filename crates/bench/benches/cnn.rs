//! CNN execution benchmarks: the prefix/suffix cost asymmetry AMC exploits
//! (Fig 13's `orig` vs `pred` bars at software scale) for all three
//! workload analogues.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eva2_cnn::layer::{Conv2d, Layer};
use eva2_cnn::zoo::{self, Workload};
use eva2_tensor::gemm::{gemm_nn, GemmScratch};
use eva2_tensor::{Shape3, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// The register-blocked micro-kernel on the product the conv benchmark
/// lowers to (M=32, N=1024, K=144 — the key-frame prefix critical-path
/// shape), the shape the serving benchmark's
/// `tensor.gemm.peak_gmacs_per_s` probe times.
fn bench_gemm_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_micro");
    group.sample_size(20);
    let (m, n, k) = (32usize, 1024usize, 144usize);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 17) % 23) as f32 * 0.1 - 1.1)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 13) % 19) as f32 * 0.1 - 0.9)
        .collect();
    let mut out = vec![0.0f32; m * n];
    group.bench_function("microkernel", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            gemm_nn(m, n, k, black_box(&a), black_box(&b), &mut out);
            black_box(&out);
        })
    });
    group.finish();
}

/// Naive vs the direct-convolution kernel on a representative mid-network
/// layer (16→32 channels, 3×3, 32×32 spatial); the bench ids keep their
/// historical `gemm` label. The acceptance bar for the convolution engine
/// is a ≥ 5× speedup here (release build).
fn bench_naive_vs_direct_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_paths");
    group.sample_size(20);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let conv = Conv2d::new("bench", 16, 32, 3, 1, 1, &mut rng);
    let input = Tensor3::from_fn(Shape3::new(16, 32, 32), |c, y, x| {
        (((c * 31 + y * 7 + x) % 23) as f32 - 11.0) * 0.1
    });
    group.bench_function("naive", |b| {
        b.iter(|| black_box(conv.forward_naive(&input)))
    });
    group.bench_function("gemm", |b| b.iter(|| black_box(conv.forward(&input))));
    let mut scratch = GemmScratch::new();
    group.bench_function("gemm_scratch", |b| {
        b.iter(|| black_box(conv.forward_scratch(&input, &mut scratch)))
    });
    group.finish();
}

fn bench_prefix_vs_suffix(c: &mut Criterion) {
    let mut group = c.benchmark_group("cnn_split");
    group.sample_size(20);
    for workload in Workload::ALL {
        let z = workload.build(0);
        let input = Tensor3::from_fn(z.input_shape(), |_, y, x| ((y * 13 + x) % 97) as f32 / 97.0);
        let target = z.late_target;
        let act = z.network.forward_prefix(&input, target);
        group.bench_with_input(
            BenchmarkId::new("full", workload.name()),
            &input,
            |b, input| b.iter(|| black_box(z.network.forward(input))),
        );
        group.bench_with_input(
            BenchmarkId::new("prefix", workload.name()),
            &input,
            |b, input| b.iter(|| black_box(z.network.forward_prefix(input, target))),
        );
        group.bench_with_input(
            BenchmarkId::new("suffix", workload.name()),
            &act,
            |b, act| b.iter(|| black_box(z.network.forward_suffix(act, target))),
        );
    }
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("training_step");
    group.sample_size(10);
    let mut z = zoo::tiny_fasterm(0);
    let input = Tensor3::from_fn(z.input_shape(), |_, y, x| ((y + x) % 31) as f32 / 31.0);
    group.bench_function("fasterm_forward_backward", |b| {
        b.iter(|| {
            let acts = z.network.forward_collect(&input);
            let out = acts.last().unwrap();
            let grad = out.map(|v| v * 2.0);
            z.network.backward(&acts, grad);
            z.network.apply_grads(0.0, 1); // lr 0 keeps weights fixed
            black_box(())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_micro,
    bench_naive_vs_direct_conv,
    bench_prefix_vs_suffix,
    bench_training_step
);
criterion_main!(benches);
