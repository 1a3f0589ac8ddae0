//! The §IV-A claim in wall-clock form: RFBME's tile reuse versus an
//! unoptimized per-receptive-field exhaustive search, and versus the other
//! block-matching organisations and optical-flow baselines of Fig 14.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eva2_motion::block::{BlockMatcher, SearchStrategy};
use eva2_motion::hornschunck::HornSchunck;
use eva2_motion::lucas_kanade::LucasKanade;
use eva2_motion::rfbme::{RfGeometry, Rfbme, RfbmeScratch, SearchParams};
use eva2_motion::MotionEstimator;
use eva2_tensor::GrayImage;
use std::hint::black_box;

fn frames(h: usize, w: usize) -> (GrayImage, GrayImage) {
    let key = GrayImage::from_fn(h, w, |y, x| {
        (128.0 + 55.0 * ((y as f32 * 0.31).sin() + (x as f32 * 0.23).cos())) as u8
    });
    let new = key.translate(1, 2, 0);
    (key, new)
}

fn bench_rfbme_vs_unoptimized(c: &mut Criterion) {
    let mut group = c.benchmark_group("motion_estimation");
    for size in [64usize, 128] {
        let (key, new) = frames(size, size);
        let rf = RfGeometry {
            size: 16,
            stride: 8,
            padding: 0,
        };
        let params = SearchParams { radius: 8, step: 2 };
        let rfbme = Rfbme::new(rf, params);
        group.bench_with_input(BenchmarkId::new("rfbme", size), &size, |b, _| {
            b.iter(|| black_box(rfbme.estimate(&key, &new)))
        });
        // The two-stage reference model of the same exhaustive search.
        group.bench_with_input(BenchmarkId::new("rfbme_reference", size), &size, |b, _| {
            b.iter(|| black_box(rfbme.estimate_reference(&key, &new)))
        });
        // The unoptimized variant: exhaustive SAD per receptive field with
        // no tile reuse (block = rf size, anchors on the rf grid).
        let unopt = BlockMatcher {
            block: rf.size,
            grid_stride: rf.stride,
            radius: params.radius,
            step: params.step,
            strategy: SearchStrategy::Exhaustive,
        };
        group.bench_with_input(BenchmarkId::new("unoptimized", size), &size, |b, _| {
            b.iter(|| black_box(unopt.run(&key, &new)))
        });
    }
    group.finish();
}

fn bench_fig14_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_estimators_48x48");
    let (key, new) = frames(48, 48);
    let rf = RfGeometry {
        size: 27,
        stride: 8,
        padding: 10,
    };
    let estimators: Vec<(&str, Box<dyn MotionEstimator>)> = vec![
        (
            "rfbme",
            Box::new(Rfbme::new(
                rf,
                SearchParams {
                    radius: 12,
                    step: 1,
                },
            )),
        ),
        ("lucas_kanade", Box::new(LucasKanade::default())),
        ("dense_flow_hs", Box::new(HornSchunck::default())),
        (
            "diamond_search",
            Box::new(BlockMatcher::codec(8, 12, SearchStrategy::Diamond)),
        ),
        (
            "three_step_search",
            Box::new(BlockMatcher::codec(8, 12, SearchStrategy::ThreeStep)),
        ),
    ];
    for (name, est) in &estimators {
        group.bench_function(*name, |b| b.iter(|| black_box(est.estimate(&key, &new))));
    }
    group.finish();
}

/// What the serving engine runs: the two geometries of the serving
/// benchmark's workloads (`steady`/`mixed_fleet`/`cut_storm_deep` search a
/// late target's 27/8/10 fields at radius 8, `early_churn` an early
/// target's 7/4/2 fields at radius 4) over 48×48 frames, through a held
/// scratch as a worker holds one.
fn bench_serving_geometries(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_geometries_48x48");
    let (key, new) = frames(48, 48);
    for (name, size, stride, padding, radius) in [
        ("late_27_8_10_r8", 27, 8, 10, 8),
        ("early_7_4_2_r4", 7, 4, 2, 4),
    ] {
        let rf = RfGeometry {
            size,
            stride,
            padding,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
        let mut scratch = RfbmeScratch::new();
        group.bench_function(name, |b| {
            b.iter(|| black_box(rfbme.estimate_with(&key, &new, &mut scratch)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rfbme_vs_unoptimized,
    bench_fig14_estimators,
    bench_serving_geometries
);
criterion_main!(benches);
