//! Dataset builders: reproducible collections of labelled clips.
//!
//! The paper trains on 1/25 of YTBB's training split and evaluates on fresh
//! validation/test subsets (§IV-B). The builders here mirror that protocol
//! with disjoint seed ranges: [`Split::Train`], [`Split::Validation`], and
//! [`Split::Test`] never share a scene seed, so no experiment can leak test
//! video into training.

use crate::frame::Clip;
use crate::scene::{MotionRegime, Scene, SceneConfig};

/// Dataset split with a disjoint seed space per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Training scenes (seed space 0).
    Train,
    /// Validation scenes used for threshold calibration (seed space 1).
    Validation,
    /// Held-out test scenes used for reported numbers (seed space 2).
    Test,
}

impl Split {
    fn seed_base(self) -> u64 {
        match self {
            Split::Train => 0x0000_0000_0000_0000,
            Split::Validation => 0x1000_0000_0000_0000,
            Split::Test => 0x2000_0000_0000_0000,
        }
    }
}

/// Options for building a clip collection.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Scene template (size, task, noise, ...).
    pub scene: SceneConfig,
    /// Number of clips to generate.
    pub clips: usize,
    /// Frames per clip.
    pub clip_len: usize,
    /// Base seed mixed with the split's seed space.
    pub seed: u64,
    /// When set, overrides the scene regime per clip in round-robin order,
    /// giving the collection a controlled mixture of motion energies.
    pub regime_mix: Vec<MotionRegime>,
}

impl DatasetConfig {
    /// A classification dataset: centred sprites, mild motion.
    pub fn classification(clips: usize, clip_len: usize) -> Self {
        Self {
            scene: SceneConfig::classification(32, 32),
            clips,
            clip_len,
            seed: 0xC1A5, // "class"
            regime_mix: vec![
                MotionRegime::Frozen,
                MotionRegime::Smooth,
                MotionRegime::Smooth,
                MotionRegime::Medium,
            ],
        }
    }

    /// A detection dataset: travelling sprites, camera pan, distractors.
    pub fn detection(clips: usize, clip_len: usize) -> Self {
        Self {
            scene: SceneConfig::detection(48, 48),
            clips,
            clip_len,
            seed: 0xDE7, // "det"
            regime_mix: vec![
                MotionRegime::Smooth,
                MotionRegime::Medium,
                MotionRegime::Medium,
                MotionRegime::Chaotic,
            ],
        }
    }
}

/// Generates the clip collection for a split.
pub fn build(config: &DatasetConfig, split: Split) -> Vec<Clip> {
    (0..config.clips)
        .map(|i| {
            let seed =
                split.seed_base() ^ config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            let mut scene_cfg = config.scene.clone();
            if !config.regime_mix.is_empty() {
                scene_cfg.regime = config.regime_mix[i % config.regime_mix.len()];
            }
            Scene::new(scene_cfg, seed).render_clip(config.clip_len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_disjoint() {
        let cfg = DatasetConfig {
            scene: SceneConfig::classification(16, 16),
            clips: 3,
            clip_len: 2,
            seed: 5,
            regime_mix: vec![],
        };
        let train = build(&cfg, Split::Train);
        let test = build(&cfg, Split::Test);
        for a in &train {
            for b in &test {
                assert_ne!(a.scene_seed, b.scene_seed);
            }
        }
    }

    #[test]
    fn build_is_reproducible() {
        let cfg = DatasetConfig {
            scene: SceneConfig::classification(16, 16),
            clips: 2,
            clip_len: 3,
            seed: 11,
            regime_mix: vec![MotionRegime::Smooth],
        };
        let a = build(&cfg, Split::Validation);
        let b = build(&cfg, Split::Validation);
        assert_eq!(a, b);
    }

    #[test]
    fn regime_mix_round_robins() {
        let cfg = DatasetConfig {
            scene: SceneConfig::classification(16, 16).with_regime(MotionRegime::Chaotic),
            clips: 4,
            clip_len: 1,
            seed: 1,
            regime_mix: vec![MotionRegime::Frozen, MotionRegime::Chaotic],
        };
        let clips = build(&cfg, Split::Train);
        assert_eq!(clips.len(), 4);
        // Frozen clips with zero drift/noise would be static; here we only
        // check the builder produced the requested count and is seed-stable.
        assert_eq!(clips[0].len(), 1);
    }

    #[test]
    fn class_coverage_is_broad() {
        // With enough clips every sprite class should appear.
        let cfg = DatasetConfig {
            scene: SceneConfig::classification(16, 16),
            clips: 64,
            clip_len: 1,
            seed: 3,
            regime_mix: vec![],
        };
        let clips = build(&cfg, Split::Train);
        let mut seen = [false; crate::sprite::SpriteKind::COUNT];
        for c in &clips {
            seen[c.frames[0].truth.class] = true;
        }
        assert!(seen.iter().all(|&s| s), "class coverage: {seen:?}");
    }
}
