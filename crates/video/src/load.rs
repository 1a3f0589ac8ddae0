//! Closed-loop serving load: many decorrelated streams with staggered,
//! heavy-tailed scene cuts.
//!
//! The serving benchmark's `mixed_fleet` workload uses this traffic. It
//! needs traffic that looks like "heavy traffic from millions of users"
//! scaled down: hundreds of independent camera streams whose key frames do
//! *not* arrive in lock-step. [`LoadGenerator`] synthesizes that from the
//! existing [`Scene`] machinery:
//!
//! - **Decorrelation.** Stream `s` uses [`SceneConfig::streaming`] variant
//!   `s`, so neighbouring streams differ in motion regime, camera pan, and
//!   distractor count; each is seeded independently, so pixel content never
//!   repeats across streams.
//! - **Staggered cuts.** Each stream's first scene cut lands at a
//!   per-stream offset, so cuts (which force key frames) spread over ticks
//!   instead of synchronising into one worst-case batch.
//! - **Heavy-tailed cut arrivals.** Gaps between cuts are Pareto-ish
//!   (`gap = min_gap · u^(-1/α)`): most scenes last close to `min_cut_gap`
//!   frames, but a heavy tail of long-lived scenes keeps steady-state
//!   predicted-frame traffic flowing while bursts of cuts stress the
//!   key-frame path — the bimodal load the paper's adaptive key-frame
//!   policy is built for.
//!
//! Everything is deterministic in the [`LoadConfig`]: two generators with
//! identical configs emit bit-identical frames and cut schedules, so
//! benchmark runs are reproducible and the bit-identity harnesses can
//! replay the exact traffic.

use crate::scene::{Scene, SceneConfig};
use eva2_tensor::GrayImage;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a serving-load fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Number of concurrent streams.
    pub streams: usize,
    /// Frame height in pixels (must match the served network's input).
    pub height: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Minimum frames between scene cuts on one stream.
    pub min_cut_gap: usize,
    /// Pareto tail index for cut gaps; smaller is heavier-tailed. Must be
    /// positive.
    pub cut_alpha: f32,
    /// Master seed; every stream derives its own generators from it.
    pub seed: u64,
}

impl LoadConfig {
    /// A fleet of `streams` streams of `height`×`width` video with default
    /// cut statistics (minimum gap 8 frames, tail index 1.5).
    pub fn new(streams: usize, height: usize, width: usize) -> Self {
        Self {
            streams,
            height,
            width,
            min_cut_gap: 8,
            cut_alpha: 1.5,
            seed: 0x5EED_10AD,
        }
    }

    /// Returns a copy with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One frame of generated load.
#[derive(Debug, Clone)]
pub struct LoadFrame {
    /// Index of the stream this frame belongs to.
    pub stream: usize,
    /// The rendered frame.
    pub image: GrayImage,
    /// `true` when a scene cut happened at this tick: the frame is the
    /// first of a brand-new scene, so the engine should be forced into a
    /// key frame by its residual check.
    pub cut: bool,
}

/// Per-stream state: the live scene, its local clock, and the cut schedule.
#[derive(Debug, Clone)]
struct StreamSource {
    variant: usize,
    scene: Scene,
    /// Frame index within the current scene.
    phase: usize,
    /// Scenes consumed so far (bumped on every cut).
    epoch: u64,
    /// Global tick of the next scene cut.
    next_cut: usize,
    /// Drives cut-gap sampling only; pixel content comes from the scene's
    /// own seed.
    rng: ChaCha8Rng,
}

/// Deterministic multi-stream load generator. Call [`LoadGenerator::tick`]
/// once per serving tick to get one new frame per stream.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    config: LoadConfig,
    sources: Vec<StreamSource>,
    tick: usize,
}

impl LoadGenerator {
    /// Builds the fleet described by `config`.
    ///
    /// # Panics
    ///
    /// Panics when `cut_alpha` is not positive or `min_cut_gap` is zero.
    pub fn new(config: LoadConfig) -> Self {
        assert!(
            config.cut_alpha > 0.0,
            "load cut_alpha must be positive, got {}",
            config.cut_alpha
        );
        assert!(config.min_cut_gap > 0, "load min_cut_gap must be nonzero");
        let sources = (0..config.streams)
            .map(|s| {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    config.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let scene = Scene::new(
                    SceneConfig::streaming(config.height, config.width, s),
                    stream_scene_seed(config.seed, s, 0),
                );
                // Stagger: spread first cuts across the fleet so they do
                // not synchronise into one worst-case key-frame batch.
                let stagger = s % config.min_cut_gap.max(1);
                let next_cut = stagger + pareto_gap(&mut rng, config.min_cut_gap, config.cut_alpha);
                StreamSource {
                    variant: s,
                    scene,
                    phase: 0,
                    epoch: 0,
                    next_cut,
                    rng,
                }
            })
            .collect();
        Self {
            config,
            sources,
            tick: 0,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &LoadConfig {
        &self.config
    }

    /// Advances the clock one tick and renders one frame per stream.
    pub fn tick(&mut self) -> Vec<LoadFrame> {
        let t = self.tick;
        self.tick += 1;
        let config = self.config;
        self.sources
            .iter_mut()
            .enumerate()
            .map(|(s, src)| {
                let mut cut = false;
                if t >= src.next_cut {
                    // Swap in a brand-new scene: a different streaming
                    // variant and a fresh seed, so the first frame shares
                    // nothing with the old scene.
                    src.epoch += 1;
                    src.variant = src.variant.wrapping_add(config.streams.max(1));
                    src.scene = Scene::new(
                        SceneConfig::streaming(config.height, config.width, src.variant),
                        stream_scene_seed(config.seed, s, src.epoch),
                    );
                    src.phase = 0;
                    src.next_cut =
                        t + pareto_gap(&mut src.rng, config.min_cut_gap, config.cut_alpha);
                    cut = true;
                }
                let image = src.scene.render(src.phase).image;
                src.phase += 1;
                LoadFrame {
                    stream: s,
                    image,
                    cut,
                }
            })
            .collect()
    }
}

/// Seed for stream `s`'s `epoch`-th scene, decorrelated across both axes.
fn stream_scene_seed(master: u64, stream: usize, epoch: u64) -> u64 {
    master
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add((stream as u64) << 32)
        .wrapping_add(epoch)
}

/// Samples a Pareto-ish cut gap: `min_gap · u^(-1/alpha)` for uniform
/// `u ∈ (0, 1]`, clamped so one draw cannot freeze a stream forever.
fn pareto_gap(rng: &mut ChaCha8Rng, min_gap: usize, alpha: f32) -> usize {
    let u: f32 = rng.gen_range(f32::EPSILON..=1.0);
    let gap = min_gap as f32 * u.powf(-1.0 / alpha);
    (gap as usize).clamp(min_gap, min_gap.saturating_mul(1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LoadConfig {
        LoadConfig::new(4, 24, 24)
    }

    #[test]
    fn load_is_deterministic() {
        let mut a = LoadGenerator::new(tiny());
        let mut b = LoadGenerator::new(tiny());
        for _ in 0..20 {
            let fa = a.tick();
            let fb = b.tick();
            assert_eq!(fa.len(), fb.len());
            for (x, y) in fa.iter().zip(&fb) {
                assert_eq!(x.stream, y.stream);
                assert_eq!(x.cut, y.cut);
                assert_eq!(x.image.as_slice(), y.image.as_slice());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LoadGenerator::new(tiny());
        let mut b = LoadGenerator::new(tiny().with_seed(7));
        let fa = a.tick();
        let fb = b.tick();
        assert_ne!(fa[0].image.as_slice(), fb[0].image.as_slice());
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut g = LoadGenerator::new(tiny());
        let frames = g.tick();
        for w in frames.windows(2) {
            assert_ne!(
                w[0].image.as_slice(),
                w[1].image.as_slice(),
                "neighbouring streams must not render identical content"
            );
        }
    }

    #[test]
    fn cuts_are_staggered_and_change_the_scene() {
        let mut g = LoadGenerator::new(LoadConfig::new(6, 24, 24));
        let mut cut_ticks: Vec<Vec<usize>> = vec![Vec::new(); 6];
        let mut last: Vec<Option<GrayImage>> = vec![None; 6];
        for t in 0..200 {
            for f in g.tick() {
                if f.cut {
                    cut_ticks[f.stream].push(t);
                    if let Some(prev) = &last[f.stream] {
                        // A cut must decorrelate the pixels.
                        let diff: usize = prev
                            .as_slice()
                            .iter()
                            .zip(f.image.as_slice())
                            .filter(|(a, b)| a != b)
                            .count();
                        assert!(
                            diff > prev.as_slice().len() / 4,
                            "scene cut changed only {diff} pixels"
                        );
                    }
                }
                last[f.stream] = Some(f.image);
            }
        }
        // Every stream cuts eventually, and first cuts are not synchronised.
        let firsts: Vec<usize> = cut_ticks
            .iter()
            .map(|c| *c.first().expect("every stream cuts within 200 ticks"))
            .collect();
        let distinct: std::collections::BTreeSet<usize> = firsts.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "first cuts all landed on tick {firsts:?}"
        );
    }

    #[test]
    fn cut_gaps_are_heavy_tailed() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let gaps: Vec<usize> = (0..4000).map(|_| pareto_gap(&mut rng, 8, 1.5)).collect();
        let min = *gaps.iter().min().unwrap();
        let max = *gaps.iter().max().unwrap();
        assert!(min >= 8, "gap below the floor: {min}");
        assert!(max >= 8 * 20, "no heavy tail: max gap {max}");
        let mean = gaps.iter().sum::<usize>() as f64 / gaps.len() as f64;
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        assert!(
            mean > median * 1.2,
            "distribution not right-skewed: mean {mean:.1} median {median:.1}"
        );
    }
}
