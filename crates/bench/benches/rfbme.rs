//! RFBME in wall-clock form: the dense search against the two-stage
//! reference model it is bit-identical to, beside the optical-flow
//! baselines of Fig 14 and at the serving engine's geometries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

/// The dense search against `estimate_reference`, the two-stage model it is
/// bit-identical to, at step 2. The unoptimized search of §IV-A is priced
/// analytically (`eva2_hw::firstorder`), not timed.
fn bench_rfbme_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("motion_estimation");
    for size in [64usize, 128] {
        let (key, new) = frames(size, size);
        let rf = RfGeometry {
            size: 16,
            stride: 8,
            padding: 0,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 8, step: 2 });
        group.bench_with_input(BenchmarkId::new("rfbme", size), &size, |b, _| {
            b.iter(|| black_box(rfbme.estimate(&key, &new)))
        });
        group.bench_with_input(BenchmarkId::new("rfbme_reference", size), &size, |b, _| {
            b.iter(|| black_box(rfbme.estimate_reference(&key, &new)))
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
/// scratch as a worker holds one. The late geometry also times the
/// two-stage reference model the fast path is bit-identical to.
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
        if name == "late_27_8_10_r8" {
            group.bench_function(format!("{name}_reference"), |b| {
                b.iter(|| black_box(rfbme.estimate_reference(&key, &new)))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rfbme_vs_reference,
    bench_fig14_estimators,
    bench_serving_geometries
);
criterion_main!(benches);
