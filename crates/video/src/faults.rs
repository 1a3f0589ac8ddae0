//! Deterministic fault injection for serving-lifecycle tests.
//!
//! A serving engine in front of live cameras sees more than clean video:
//! frames are dropped by the transport, corrupted by the sensor, blown out
//! by lighting, resized by a renegotiating encoder, and cut hard between
//! shots. The lifecycle hardening in `eva2-core::serve` promises
//! *correct-frame-or-typed-error, never a panic* under all of these; this
//! module generates the inputs that prove it.
//!
//! Everything is deterministic per `(seed, t)`: the pixels a fault produces
//! at stream time `t` depend only on the script seed and `t`, never on how
//! many frames were rendered before it or in what order. That makes fault
//! runs replayable (the property the integration suite's bit-identity
//! checks rely on) and lets two differently-configured engines consume the
//! exact same damaged stream.
//!
//! # Example
//!
//! ```
//! use eva2_video::faults::{FaultKind, FaultScript, FaultyScene};
//! use eva2_video::scene::{Scene, SceneConfig};
//!
//! let script = FaultScript::generate(9, 30, 0.3);
//! let scene = Scene::new(SceneConfig::detection(48, 48), 7);
//! let mut a = FaultyScene::new(scene.clone(), script.clone());
//! let mut b = FaultyScene::new(scene, script);
//! for t in 0..30 {
//!     // Replayable: two iterations of the same faulty stream are equal.
//!     assert_eq!(a.next_event().frame, b.next_event().frame);
//! }
//! ```

use crate::frame::Frame;
use crate::scene::Scene;
use eva2_tensor::GrayImage;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One kind of injected fault, applied to a single stream time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The frame never arrives (transport loss): the client submits
    /// nothing this tick, so the session sees a larger inter-frame gap.
    DropFrame,
    /// Salt-and-pepper sensor corruption over `fraction` of the pixels.
    Corrupt {
        /// Fraction of pixels replaced with random values, in `[0, 1]`.
        fraction: f32,
    },
    /// Sensor blowout: every pixel saturates to full intensity, erasing
    /// all texture RFBME could match against.
    Saturate,
    /// Mid-stream resolution change (an encoder renegotiation): the frame
    /// arrives at half the configured height and width. The engine must
    /// reject it with a typed geometry error, not feed it to the CNN.
    Downscale,
    /// Hard cut: from this time step on, the stream shows an unrelated
    /// scene (content discontinuity with no explanatory motion).
    SceneCut,
}

impl FaultKind {
    /// Applies the fault to `image`, the clean frame at stream time `t`
    /// under script seed `seed`. Returns `None` when the frame is dropped.
    /// Pure in `(self, image, seed, t)` — replaying a time step yields the
    /// same pixels.
    ///
    /// [`FaultKind::SceneCut`] is persistent and therefore handled by
    /// [`FaultyScene`], which swaps the underlying scene; applied directly
    /// it passes the frame through unchanged.
    pub fn apply(&self, image: &GrayImage, seed: u64, t: usize) -> Option<GrayImage> {
        match self {
            FaultKind::DropFrame => None,
            FaultKind::Corrupt { fraction } => {
                let mut rng = rng_for(seed, t);
                let mut out = image.clone();
                let threshold = (f64::from(fraction.clamp(0.0, 1.0)) * 1e6) as u64;
                for px in out.as_mut_slice() {
                    if rng.gen_range(0..1_000_000u64) < threshold {
                        *px = rng.gen_range(0..=255u32) as u8;
                    }
                }
                Some(out)
            }
            FaultKind::Saturate => Some(GrayImage::filled(image.height(), image.width(), 255)),
            FaultKind::Downscale => {
                let (h, w) = (image.height().max(2) / 2, image.width().max(2) / 2);
                Some(GrayImage::from_fn(h, w, |y, x| image.get(y * 2, x * 2)))
            }
            FaultKind::SceneCut => Some(image.clone()),
        }
    }
}

/// A schedule of faults keyed by stream time, plus the seed that fixes
/// every random choice the faults make.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript {
    seed: u64,
    /// `(t, fault)` pairs, strictly increasing in `t`.
    events: Vec<(usize, FaultKind)>,
}

impl FaultScript {
    /// An explicit script. Events are sorted by time; of several events at
    /// one time, the first given wins.
    pub fn new(seed: u64, mut events: Vec<(usize, FaultKind)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        events.dedup_by_key(|(t, _)| *t);
        Self { seed, events }
    }

    /// A script with no faults (the control arm of a fault experiment).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Generates a random script over `len` frames where each frame after
    /// the first is faulty with probability `fault_rate`, the kind drawn
    /// uniformly. Deterministic in `(seed, len, fault_rate)`. Frame 0 is
    /// never faulted so every stream has a valid first key frame.
    pub fn generate(seed: u64, len: usize, fault_rate: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let per_million = (fault_rate.clamp(0.0, 1.0) * 1e6) as u64;
        let mut events = Vec::new();
        for t in 1..len {
            if rng.gen_range(0..1_000_000u64) >= per_million {
                continue;
            }
            let kind = match rng.gen_range(0..5u32) {
                0 => FaultKind::DropFrame,
                1 => FaultKind::Corrupt { fraction: 0.25 },
                2 => FaultKind::Saturate,
                3 => FaultKind::Downscale,
                _ => FaultKind::SceneCut,
            };
            events.push((t, kind));
        }
        Self { seed, events }
    }

    /// The script's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault scheduled at stream time `t`, if any.
    pub fn fault_at(&self, t: usize) -> Option<FaultKind> {
        self.events.iter().find(|(et, _)| *et == t).map(|(_, k)| *k)
    }

    /// All scheduled events in time order.
    pub fn events(&self) -> &[(usize, FaultKind)] {
        &self.events
    }
}

/// What a faulty stream delivered for one time step.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Stream time of this step.
    pub t: usize,
    /// The fault injected at this step, if any.
    pub fault: Option<FaultKind>,
    /// The delivered frame; `None` when the frame was dropped.
    pub frame: Option<Frame>,
}

/// A [`Scene`] viewed through a [`FaultScript`]: renders clean frames and
/// damages them on schedule. [`FaultKind::SceneCut`] is applied here (and
/// only here) by swapping the underlying scene for one seeded from
/// `(script seed, t)`, so the discontinuity persists for the rest of the
/// stream the way a real shot change does.
///
/// Iteration is deterministic: the struct's only state is the stream
/// clock and the currently active scene, both fixed by `(scene, script)`.
#[derive(Debug, Clone)]
pub struct FaultyScene {
    scene: Scene,
    script: FaultScript,
    t: usize,
    /// Stream time at which the active scene started (its local t=0).
    origin: usize,
}

impl FaultyScene {
    /// Wraps `scene` with `script`.
    pub fn new(scene: Scene, script: FaultScript) -> Self {
        Self {
            scene,
            script,
            t: 0,
            origin: 0,
        }
    }

    /// The script driving this stream.
    pub fn script(&self) -> &FaultScript {
        &self.script
    }

    /// Produces the next time step and advances the stream clock.
    pub fn next_event(&mut self) -> FaultEvent {
        let t = self.t;
        self.t += 1;
        let fault = self.script.fault_at(t);
        if let Some(FaultKind::SceneCut) = fault {
            // A hard cut: every later frame comes from the new scene.
            let cut_seed = self.script.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.scene = Scene::new(self.scene.config().clone(), cut_seed);
            self.origin = t;
        }
        let clean = self.scene.render(t - self.origin);
        let frame = match fault {
            None | Some(FaultKind::SceneCut) => Some(clean),
            Some(kind) => kind
                .apply(&clean.image, self.script.seed, t)
                .map(|image| Frame {
                    image,
                    truth: clean.truth.clone(),
                }),
        };
        FaultEvent { t, fault, frame }
    }
}

/// Seeds a per-time-step generator: all randomness a fault uses at stream
/// time `t` comes from here, so replaying a step never depends on what was
/// rendered before it.
fn rng_for(seed: u64, t: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneConfig;

    fn scene() -> Scene {
        Scene::new(SceneConfig::detection(48, 48), 11)
    }

    #[test]
    fn scripts_are_deterministic() {
        let a = FaultScript::generate(5, 40, 0.4);
        let b = FaultScript::generate(5, 40, 0.4);
        assert_eq!(a, b);
        assert!(!a.events().is_empty(), "a 40% rate over 39 frames fires");
        assert!(a.fault_at(0).is_none(), "frame 0 is never faulted");
    }

    #[test]
    fn faulty_streams_replay_bit_identically() {
        let script = FaultScript::generate(9, 25, 0.35);
        let mut a = FaultyScene::new(scene(), script.clone());
        let mut b = FaultyScene::new(scene(), script);
        for _ in 0..25 {
            let (ea, eb) = (a.next_event(), b.next_event());
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn corrupt_changes_only_the_requested_fraction() {
        let clean = scene().render(0).image;
        let noisy = FaultKind::Corrupt { fraction: 0.25 }
            .apply(&clean, 3, 7)
            .unwrap();
        let differing = clean
            .as_slice()
            .iter()
            .zip(noisy.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        let frac = differing as f64 / clean.as_slice().len() as f64;
        // ~25% of pixels are *replaced*; some replacements collide with
        // the original value, so the changed fraction sits a bit below.
        assert!((0.10..=0.30).contains(&frac), "changed fraction {frac}");
    }

    #[test]
    fn saturate_erases_texture_and_downscale_halves_geometry() {
        let clean = scene().render(0).image;
        let flat = FaultKind::Saturate.apply(&clean, 0, 0).unwrap();
        assert!(flat.as_slice().iter().all(|&p| p == 255));
        let small = FaultKind::Downscale.apply(&clean, 0, 0).unwrap();
        assert_eq!((small.height(), small.width()), (24, 24));
        assert!(FaultKind::DropFrame.apply(&clean, 0, 0).is_none());
    }

    #[test]
    fn scene_cut_is_persistent_and_discontinuous() {
        let script = FaultScript::new(1, vec![(3, FaultKind::SceneCut)]);
        let mut faulty = FaultyScene::new(scene(), script);
        let mut control = FaultyScene::new(scene(), FaultScript::clean(1));
        let mut frames = Vec::new();
        let mut clean_frames = Vec::new();
        for _ in 0..6 {
            frames.push(faulty.next_event().frame.unwrap());
            clean_frames.push(control.next_event().frame.unwrap());
        }
        // Identical up to the cut, different from it on.
        assert_eq!(frames[..3], clean_frames[..3]);
        for t in 3..6 {
            assert_ne!(frames[t].image, clean_frames[t].image, "post-cut t={t}");
        }
        // The cut is a *discontinuity*: frame 3 differs far more from
        // frame 2 than consecutive same-scene frames do.
        let cut_sad = frames[2].image.sad(&frames[3].image);
        let smooth_sad = frames[1].image.sad(&frames[2].image);
        assert!(
            cut_sad * 2 > smooth_sad * 3,
            "cut {cut_sad} vs smooth {smooth_sad}"
        );
    }

    #[test]
    fn explicit_scripts_sort_and_dedup() {
        let s = FaultScript::new(
            0,
            vec![
                (9, FaultKind::Saturate),
                (2, FaultKind::DropFrame),
                (9, FaultKind::DropFrame),
            ],
        );
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0], (2, FaultKind::DropFrame));
        assert_eq!(s.fault_at(9), Some(FaultKind::Saturate));
        assert_eq!(s.fault_at(4), None);
    }
}
