//! End-to-end pipeline benchmarks: a key frame against a predicted frame
//! through the full AMC executor (Fig 1 at software scale), the predicted
//! frame once per warp datapath.

use criterion::{criterion_group, criterion_main, Criterion};
use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::policy::PolicyConfig;
use eva2_tensor::GrayImage;
use std::hint::black_box;

fn frame(shift: usize) -> GrayImage {
    GrayImage::from_fn(48, 48, |y, x| {
        (125.0 + 50.0 * ((y as f32 * 0.29).sin() + ((x + shift) as f32 * 0.21).cos())) as u8
    })
}

fn bench_amc_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("amc_pipeline_fasterm");
    group.sample_size(20);
    let z = zoo::tiny_fasterm(0);
    let f0 = frame(0);
    let f1 = frame(1);

    // Key frame: full prefix + suffix + activation store refresh.
    let always_key = AmcConfig {
        policy: PolicyConfig::AlwaysKey,
        ..Default::default()
    };
    group.bench_function("key_frame", |b| {
        let mut amc = AmcExecutor::try_new(&z.network, always_key).unwrap();
        amc.process(&f0);
        b.iter(|| black_box(amc.process(&f1)))
    });

    // Predicted frame: RFBME + warp + sparse-fed suffix only.
    let never_key = AmcConfig {
        policy: PolicyConfig::BlockError {
            threshold: f32::INFINITY,
            max_gap: usize::MAX,
        },
        ..Default::default()
    };
    group.bench_function("predicted_frame", |b| {
        let mut amc = AmcExecutor::try_new(&z.network, never_key).unwrap();
        amc.process(&f0);
        b.iter(|| black_box(amc.process(&f1)))
    });

    // Same predicted frame through the bit-accurate Q8.8 warp datapath.
    let mut fixed = never_key;
    fixed.fixed_point = true;
    group.bench_function("predicted_frame_q88", |b| {
        let mut amc = AmcExecutor::try_new(&z.network, fixed).unwrap();
        amc.process(&f0);
        b.iter(|| black_box(amc.process(&f1)))
    });

    // Memoized predicted frame: suffix fed the Q8.8 key store's non-zeros
    // (no warp, no densify).
    let mut memo = never_key;
    memo.warp = eva2_core::executor::WarpMode::Memoize;
    group.bench_function("predicted_frame_memoize", |b| {
        let mut amc = AmcExecutor::try_new(&z.network, memo).unwrap();
        amc.process(&f0);
        b.iter(|| black_box(amc.process(&f1)))
    });
    group.finish();
}

criterion_group!(benches, bench_amc_frames);
criterion_main!(benches);
