//! The external-motion seam's contract: over a synthetic 20-frame sequence
//! with pans, a scene cut, and policy-forced key frames, an executor fed
//! motion estimates computed outside it (`AmcExecutor::process_with_motion`,
//! the entry point for replayed codec vectors) produces every output
//! tensor, frame kind, and statistic bit-identical to `AmcExecutor::process`.

use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor, WarpMode};
use eva2_core::policy::PolicyConfig;
use eva2_tensor::GrayImage;

/// 20 frames: a slow rightward pan, a hard scene cut at frame 10, then a
/// diagonal drift — exercising predicted frames, a forced key frame, and
/// fresh motion state after the cut.
fn sequence() -> Vec<GrayImage> {
    (0..20usize)
        .map(|t| {
            GrayImage::from_fn(48, 48, |y, x| {
                if t < 10 {
                    let xs = (x + t) as f32;
                    (122.0 + 48.0 * ((y as f32 * 0.31).sin() + (xs * 0.21).cos())) as u8
                } else {
                    let s = t - 10;
                    let v = ((y + s) * 17 + (x + 2 * s) * 23) % 200;
                    (28 + v) as u8
                }
            })
        })
        .collect()
}

fn assert_bit_identical(config: AmcConfig, label: &str) {
    let z = zoo::tiny_fasterm(3);
    let frames = sequence();
    let mut internal = AmcExecutor::try_new(&z.network, config).unwrap();
    let mut external = AmcExecutor::try_new(&z.network, config).unwrap();
    let rfbme = internal.rfbme();
    let a: Vec<_> = frames
        .iter()
        .map(|f| internal.try_process(f).expect("clean clip serves"))
        .collect();
    let b: Vec<_> = frames
        .iter()
        .map(|f| {
            // `None` exactly when no key state is stored (the first frame).
            let motion = external.key_image().map(|key| rfbme.estimate(key, f));
            external.process_with_motion(f, motion)
        })
        .collect();
    for (t, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.is_key, y.is_key, "{label}: frame {t} kind");
        assert_eq!(
            x.output.as_slice(),
            y.output.as_slice(),
            "{label}: frame {t} output bits"
        );
        assert_eq!(x.macs_executed, y.macs_executed, "{label}: frame {t} MACs");
        assert_eq!(x.rfbme_ops, y.rfbme_ops, "{label}: frame {t} RFBME ops");
        assert_eq!(
            x.compression, y.compression,
            "{label}: frame {t} compression"
        );
    }
    assert_eq!(
        internal.stats(),
        external.stats(),
        "{label}: aggregate stats"
    );
    // The sequence must actually exercise both frame kinds for the
    // comparison to mean anything.
    let keys = a.iter().filter(|r| r.is_key).count();
    assert!(
        (2..20).contains(&keys),
        "{label}: degenerate sequence ({keys} keys)"
    );
}

#[test]
fn external_motion_bit_identical_over_20_frames_default_policy() {
    assert_bit_identical(AmcConfig::default(), "default");
}

#[test]
fn external_motion_bit_identical_with_fixed_point_warp() {
    assert_bit_identical(
        AmcConfig {
            fixed_point: true,
            ..Default::default()
        },
        "fixed-point",
    );
}

#[test]
fn external_motion_bit_identical_with_memoize_and_static_rate() {
    assert_bit_identical(
        AmcConfig {
            warp: WarpMode::Memoize,
            policy: PolicyConfig::StaticRate { period: 3 },
            ..Default::default()
        },
        "memoize/static-rate",
    );
}
