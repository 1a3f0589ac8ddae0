//! Scene composition: background, objects, camera, occluders, noise.

use crate::bbox::BoundingBox;
use crate::frame::{Clip, Frame, GroundTruth};
use crate::motion_script::MotionScript;
use crate::sprite::SpriteKind;
use eva2_tensor::GrayImage;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How energetically the scene moves. Determines the sampled
/// [`MotionScript`]s for the object and camera.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MotionRegime {
    /// Nothing moves; the ideal case for memoization.
    Frozen,
    /// Slow, smooth motion (sub-pixel to ~1 px/frame). AMC predictions are
    /// usually accurate here.
    #[default]
    Smooth,
    /// Moderate motion (~1–2 px/frame) with occasional direction changes.
    Medium,
    /// Fast, erratic motion that violates the paper's condition 1/2 often;
    /// adaptive policies should respond with more key frames.
    Chaotic,
}

/// Configuration for a synthetic scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Frame height in pixels.
    pub height: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Side length of the primary object's bounding box in pixels.
    pub object_size: f32,
    /// Motion energy of the scene.
    pub regime: MotionRegime,
    /// When `true`, the camera pans (global translation of the background
    /// and all objects) — the case where "most pixels change abruptly" that
    /// motivates motion compensation over delta updates (§II).
    pub camera_pan: bool,
    /// When `true`, a moving occluder bar sweeps the scene, producing
    /// de-occlusion "new pixels" (condition 1 violation, Fig 4c).
    pub occluder: bool,
    /// Per-frame additive intensity drift amplitude (lighting change).
    pub lighting_drift: f32,
    /// Standard deviation of per-pixel Gaussian sensor noise (intensity
    /// units).
    pub noise_std: f32,
    /// Number of additional distractor sprites.
    pub distractors: usize,
    /// Peak-to-peak contrast of the procedural background texture.
    pub background_contrast: u8,
}

impl SceneConfig {
    /// Configuration mirroring the frame-classification task: one dominant
    /// centred object, mild motion.
    pub fn classification(height: usize, width: usize) -> Self {
        Self {
            height,
            width,
            object_size: height as f32 * 0.55,
            regime: MotionRegime::Smooth,
            camera_pan: false,
            occluder: false,
            lighting_drift: 1.5,
            noise_std: 2.0,
            distractors: 0,
            background_contrast: 60,
        }
    }

    /// Configuration mirroring the object-detection task: a smaller object
    /// travelling through the frame, distractors, camera pan.
    pub fn detection(height: usize, width: usize) -> Self {
        Self {
            height,
            width,
            object_size: height as f32 * 0.35,
            regime: MotionRegime::Medium,
            camera_pan: true,
            occluder: false,
            lighting_drift: 1.5,
            noise_std: 2.0,
            distractors: 1,
            background_contrast: 60,
        }
    }

    /// Configuration for one stream of a serving-load mix
    /// ([`crate::load`]): `variant` cycles motion regime, camera pan,
    /// occluders, and distractor count so a fleet of streams built with
    /// consecutive variants is decorrelated — no two neighbours share
    /// motion energy, and their key-frame pressure differs.
    pub fn streaming(height: usize, width: usize, variant: usize) -> Self {
        let regime = match variant % 4 {
            0 => MotionRegime::Smooth,
            1 => MotionRegime::Medium,
            2 => MotionRegime::Chaotic,
            _ => MotionRegime::Smooth,
        };
        Self {
            height,
            width,
            object_size: height as f32 * 0.45,
            regime,
            camera_pan: !variant.is_multiple_of(2),
            occluder: variant.is_multiple_of(5),
            lighting_drift: 1.5,
            noise_std: 2.0,
            distractors: variant % 3,
            background_contrast: 60,
        }
    }

    /// Returns a copy with the given motion regime.
    pub fn with_regime(mut self, regime: MotionRegime) -> Self {
        self.regime = regime;
        self
    }

    /// Returns a copy with the occluder enabled or disabled.
    pub fn with_occluder(mut self, occluder: bool) -> Self {
        self.occluder = occluder;
        self
    }
}

#[derive(Debug, Clone)]
struct SceneObject {
    kind: SpriteKind,
    start_y: f32,
    start_x: f32,
    motion: MotionScript,
    intensity: u8,
    size: f32,
}

/// A deterministic synthetic scene: render any frame index on demand.
///
/// All randomness is fixed at construction from the seed, so two `Scene`s
/// with identical config and seed produce bit-identical video — a property
/// the reproducibility tests rely on.
#[derive(Debug, Clone)]
pub struct Scene {
    config: SceneConfig,
    seed: u64,
    primary: SceneObject,
    distractors: Vec<SceneObject>,
    camera: MotionScript,
    occluder_motion: MotionScript,
    background_phase: (f32, f32, f32, f32),
}

impl Scene {
    /// Builds a scene whose object class, start position, and motion are
    /// sampled deterministically from `seed`.
    pub fn new(config: SceneConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let kind = SpriteKind::from_class_id(rng.gen_range(0..SpriteKind::COUNT));
        let margin = config.object_size * 0.6;
        let h = config.height as f32;
        let w = config.width as f32;
        let start_y = rng.gen_range(margin..(h - margin).max(margin + 0.1));
        let start_x = rng.gen_range(margin..(w - margin).max(margin + 0.1));
        let motion = Self::sample_motion(&mut rng, config.regime, seed);
        let primary = SceneObject {
            kind,
            start_y,
            start_x,
            motion,
            intensity: rng.gen_range(190..=255),
            size: config.object_size,
        };
        let distractors = (0..config.distractors)
            .map(|i| {
                let kind = SpriteKind::from_class_id(rng.gen_range(0..SpriteKind::COUNT));
                SceneObject {
                    kind,
                    start_y: rng.gen_range(0.0..h),
                    start_x: rng.gen_range(0.0..w),
                    motion: Self::sample_motion(&mut rng, config.regime, seed ^ (i as u64 + 1)),
                    intensity: rng.gen_range(120..=180),
                    size: config.object_size * rng.gen_range(0.4..0.7),
                }
            })
            .collect();
        let camera = if config.camera_pan {
            // Camera pans smoothly regardless of object regime.
            MotionScript::Linear {
                vy: rng.gen_range(-0.4..0.4),
                vx: rng.gen_range(-0.8..0.8),
            }
        } else {
            MotionScript::Static
        };
        let occluder_motion = MotionScript::Linear {
            vy: 0.0,
            vx: rng.gen_range(0.8..1.6),
        };
        let background_phase = (
            rng.gen_range(0.0..std::f32::consts::TAU),
            rng.gen_range(0.0..std::f32::consts::TAU),
            rng.gen_range(0.05..0.15),
            rng.gen_range(0.05..0.15),
        );
        Self {
            config,
            seed,
            primary,
            distractors,
            camera,
            occluder_motion,
            background_phase,
        }
    }

    fn sample_motion(rng: &mut ChaCha8Rng, regime: MotionRegime, seed: u64) -> MotionScript {
        match regime {
            MotionRegime::Frozen => MotionScript::Static,
            MotionRegime::Smooth => MotionScript::Linear {
                vy: rng.gen_range(-0.5..0.5),
                vx: rng.gen_range(-0.8..0.8),
            },
            MotionRegime::Medium => {
                if rng.gen_bool(0.5) {
                    MotionScript::Linear {
                        vy: rng.gen_range(-1.2..1.2),
                        vx: rng.gen_range(-1.8..1.8),
                    }
                } else {
                    MotionScript::Oscillate {
                        amp_y: rng.gen_range(2.0..6.0),
                        amp_x: rng.gen_range(2.0..8.0),
                        period: rng.gen_range(20.0..60.0),
                        phase: rng.gen_range(0.0..std::f32::consts::TAU),
                    }
                }
            }
            MotionRegime::Chaotic => MotionScript::Jitter {
                max_speed: rng.gen_range(2.0..4.0),
                hold: rng.gen_range(2..5),
                seed,
            },
        }
    }

    /// The scene's configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Ground-truth class of the primary object.
    pub fn class(&self) -> usize {
        self.primary.kind.class_id()
    }

    fn background_pixel(&self, y: f32, x: f32) -> f32 {
        let (p0, p1, fy, fx) = self.background_phase;
        let v = (y * fy + p0).sin() + (x * fx + p1).cos() + ((y + x) * fy * 0.5).sin();
        // v in [-3, 3] → centre around 110 with configured contrast.
        110.0 + v / 3.0 * self.config.background_contrast as f32 / 2.0
    }

    /// Object position (centre) at frame `t`, in frame coordinates after
    /// camera compensation.
    fn object_center(&self, obj: &SceneObject, t: usize) -> (f32, f32) {
        let (oy, ox) = obj.motion.displacement(t);
        let (cy, cx) = self.camera.displacement(t);
        // Camera motion moves the whole world opposite to the pan direction.
        let h = self.config.height as f32;
        let w = self.config.width as f32;
        // Reflect positions back into the frame so long clips keep the
        // object visible (mirror-wrap).
        let y = reflect(obj.start_y + oy - cy, h);
        let x = reflect(obj.start_x + ox - cx, w);
        (y, x)
    }

    /// Renders the frame at index `t` with ground truth.
    pub fn render(&self, t: usize) -> Frame {
        let cfg = &self.config;
        let (cam_dy, cam_dx) = self.camera.displacement(t);
        let lighting = cfg.lighting_drift * (t as f32 * 0.21).sin();

        let mut image = GrayImage::from_fn(cfg.height, cfg.width, |y, x| {
            let v = self.background_pixel(y as f32 + cam_dy, x as f32 + cam_dx) + lighting;
            v.clamp(0.0, 255.0) as u8
        });

        for d in &self.distractors {
            let (dy, dx) = self.object_center(d, t);
            d.kind.render(&mut image, dy, dx, d.size, d.intensity);
        }

        let (py, px) = self.object_center(&self.primary, t);
        self.primary.kind.render(
            &mut image,
            py,
            px,
            self.primary.size,
            self.primary.intensity,
        );

        let full = BoundingBox::from_center(py, px, self.primary.size, self.primary.size);
        let bbox = full.clamped(cfg.height, cfg.width);
        let mut visibility = if full.area() > 0.0 {
            bbox.area() / full.area()
        } else {
            0.0
        };

        // Occluder: a vertical bar sweeping the frame, drawn on top.
        if cfg.occluder {
            let (_, occ_dx) = self.occluder_motion.displacement(t);
            let bar_w = (cfg.width as f32 * 0.18).max(2.0);
            let bar_x = (occ_dx).rem_euclid(cfg.width as f32 + bar_w) - bar_w;
            for y in 0..cfg.height {
                for x in 0..cfg.width {
                    let xf = x as f32;
                    if xf >= bar_x && xf < bar_x + bar_w {
                        image.set(y, x, 30);
                    }
                }
            }
            let bar = BoundingBox::new(0.0, bar_x, cfg.height as f32, bar_w);
            let occluded = bbox.intersection(&bar);
            if bbox.area() > 0.0 {
                visibility *= 1.0 - occluded / bbox.area();
            }
        }

        // Sensor noise: deterministic per (seed, t).
        if cfg.noise_std > 0.0 {
            let mut rng = ChaCha8Rng::seed_from_u64(
                self.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            );
            for p in image.as_mut_slice() {
                // Cheap approximate Gaussian: sum of two uniforms, centred.
                let n: f32 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
                let v = *p as f32 + n * cfg.noise_std;
                *p = v.clamp(0.0, 255.0) as u8;
            }
        }

        Frame {
            image,
            truth: GroundTruth {
                class: self.primary.kind.class_id(),
                bbox,
                visibility,
            },
        }
    }

    /// Renders frames `0..len` as a [`Clip`].
    pub fn render_clip(&mut self, len: usize) -> Clip {
        Clip {
            frames: (0..len).map(|t| self.render(t)).collect(),
            scene_seed: self.seed,
        }
    }
}

/// Reflects `v` into `[0, max)` by mirroring at the boundaries.
fn reflect(v: f32, max: f32) -> f32 {
    if max <= 0.0 {
        return 0.0;
    }
    let period = 2.0 * max;
    let m = v.rem_euclid(period);
    if m < max {
        m
    } else {
        period - m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_is_deterministic() {
        let cfg = SceneConfig::detection(48, 48);
        let a = Scene::new(cfg.clone(), 9).render(5);
        let b = Scene::new(cfg, 9).render(5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SceneConfig::detection(48, 48);
        let a = Scene::new(cfg.clone(), 1).render(0);
        let b = Scene::new(cfg, 2).render(0);
        assert_ne!(a.image, b.image);
    }

    #[test]
    fn truth_bbox_is_inside_frame() {
        let cfg = SceneConfig::detection(48, 64);
        for seed in 0..20 {
            let scene = Scene::new(cfg.clone(), seed);
            for t in [0usize, 7, 30] {
                let f = scene.render(t);
                let b = f.truth.bbox;
                assert!(b.y >= 0.0 && b.x >= 0.0);
                assert!(b.y + b.h <= 48.0 + 1e-3);
                assert!(b.x + b.w <= 64.0 + 1e-3);
            }
        }
    }

    #[test]
    fn object_pixels_are_brighter_than_background() {
        let mut cfg = SceneConfig::classification(48, 48);
        cfg.noise_std = 0.0;
        let scene = Scene::new(cfg, 5);
        let f = scene.render(0);
        let (cy, cx) = f.truth.bbox.center();
        // The sprite's own pixels may be hollow at the exact centre, so probe
        // the bbox for at least one bright pixel.
        let mut found_bright = false;
        let y0 = f.truth.bbox.y as usize;
        let x0 = f.truth.bbox.x as usize;
        for y in y0..(y0 + f.truth.bbox.h as usize).min(48) {
            for x in x0..(x0 + f.truth.bbox.w as usize).min(48) {
                if f.image.get(y, x) >= 190 {
                    found_bright = true;
                }
            }
        }
        assert!(found_bright, "no bright object pixel near ({cy},{cx})");
    }

    #[test]
    fn frozen_regime_only_changes_by_noise_and_lighting() {
        let mut cfg = SceneConfig::classification(32, 32).with_regime(MotionRegime::Frozen);
        cfg.noise_std = 0.0;
        cfg.lighting_drift = 0.0;
        let scene = Scene::new(cfg, 3);
        assert_eq!(scene.render(0), scene.render(10));
    }

    #[test]
    fn smooth_regime_moves_the_object() {
        let mut cfg = SceneConfig::detection(48, 48).with_regime(MotionRegime::Smooth);
        cfg.noise_std = 0.0;
        cfg.camera_pan = false;
        // Find a seed whose sampled velocity is non-negligible.
        let mut moved = false;
        for seed in 0..10 {
            let scene = Scene::new(cfg.clone(), seed);
            let b0 = scene.render(0).truth.bbox;
            let b9 = scene.render(9).truth.bbox;
            let (dy, dx) = (b9.y - b0.y, b9.x - b0.x);
            if dy.abs() + dx.abs() > 1.0 {
                moved = true;
                break;
            }
        }
        assert!(moved, "no seed produced visible motion");
    }

    #[test]
    fn occluder_reduces_visibility_sometimes() {
        let cfg = SceneConfig::detection(48, 48).with_occluder(true);
        let scene = Scene::new(cfg, 4);
        let mut saw_occlusion = false;
        for t in 0..120 {
            if scene.render(t).truth.visibility < 0.95 {
                saw_occlusion = true;
                break;
            }
        }
        assert!(saw_occlusion, "occluder never covered the object");
    }

    #[test]
    fn render_clip_matches_individual_renders() {
        let mut scene = Scene::new(SceneConfig::classification(32, 32), 7);
        let clip = scene.render_clip(4);
        assert_eq!(clip.len(), 4);
        assert_eq!(clip.frames[2], scene.render(2));
        assert_eq!(clip.scene_seed, 7);
    }

    #[test]
    fn reflect_stays_in_bounds() {
        for v in [-100.0f32, -3.2, 0.0, 5.0, 47.9, 96.0, 1000.0] {
            let r = reflect(v, 48.0);
            assert!((0.0..48.0).contains(&r), "reflect({v}) = {r}");
        }
    }

    #[test]
    fn camera_pan_shifts_background() {
        let mut cfg = SceneConfig::detection(48, 48);
        cfg.noise_std = 0.0;
        cfg.occluder = false;
        cfg.lighting_drift = 0.0;
        cfg.distractors = 0;
        let scene = Scene::new(cfg, 2);
        let f0 = scene.render(0);
        let f20 = scene.render(20);
        // With a panning camera, a majority of pixels change by t=20.
        let changed = f0
            .image
            .as_slice()
            .iter()
            .zip(f20.image.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            changed > f0.image.as_slice().len() / 4,
            "only {changed} pixels changed"
        );
    }
}
