//! Motion scripts: how objects and the camera move over time.
//!
//! AMC's adaptive key-frame policies (§II-C4) trade accuracy for energy based
//! on *how predictable* the scene's motion is, so the generator needs motion
//! regimes spanning smooth/predictable to chaotic/unpredictable.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A deterministic motion trajectory sampled at 30 fps frame indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum MotionScript {
    /// No motion.
    #[default]
    Static,
    /// Constant velocity in pixels/frame.
    Linear {
        /// Vertical velocity (pixels per frame, positive = down).
        vy: f32,
        /// Horizontal velocity (pixels per frame, positive = right).
        vx: f32,
    },
    /// Sinusoidal oscillation around the start position.
    Oscillate {
        /// Vertical amplitude in pixels.
        amp_y: f32,
        /// Horizontal amplitude in pixels.
        amp_x: f32,
        /// Period in frames.
        period: f32,
        /// Phase offset in radians.
        phase: f32,
    },
    /// Piecewise-linear motion that changes direction every `hold` frames —
    /// the "chaotic" regime that forces adaptive policies to spend key
    /// frames.
    Jitter {
        /// Maximum per-segment speed in pixels/frame.
        max_speed: f32,
        /// Frames between direction changes.
        hold: usize,
        /// Seed for the per-segment direction stream.
        seed: u64,
    },
}

impl MotionScript {
    /// Displacement from the start position at frame `t`.
    pub fn displacement(&self, t: usize) -> (f32, f32) {
        match *self {
            MotionScript::Static => (0.0, 0.0),
            MotionScript::Linear { vy, vx } => (vy * t as f32, vx * t as f32),
            MotionScript::Oscillate {
                amp_y,
                amp_x,
                period,
                phase,
            } => {
                let theta = 2.0 * std::f32::consts::PI * t as f32 / period + phase;
                (amp_y * theta.sin(), amp_x * theta.cos())
            }
            MotionScript::Jitter {
                max_speed,
                hold,
                seed,
            } => {
                // Integrate segment velocities up to frame t. Segments are
                // derived deterministically from the seed so the trajectory
                // is reproducible without storing state.
                let hold = hold.max(1);
                let mut dy = 0.0f32;
                let mut dx = 0.0f32;
                let segments = t / hold;
                for s in 0..=segments {
                    let (vy, vx) = Self::segment_velocity(seed, s, max_speed);
                    let frames_in_segment = if s < segments {
                        hold
                    } else {
                        t - segments * hold
                    };
                    dy += vy * frames_in_segment as f32;
                    dx += vx * frames_in_segment as f32;
                }
                (dy, dx)
            }
        }
    }

    /// Instantaneous velocity at frame `t` (displacement difference).
    pub fn velocity(&self, t: usize) -> (f32, f32) {
        let (y1, x1) = self.displacement(t + 1);
        let (y0, x0) = self.displacement(t);
        (y1 - y0, x1 - x0)
    }

    fn segment_velocity(seed: u64, segment: usize, max_speed: f32) -> (f32, f32) {
        use rand::SeedableRng;
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let angle = rng.gen_range(0.0..std::f32::consts::TAU);
        let speed = rng.gen_range(0.2..max_speed.max(0.21));
        (speed * angle.sin(), speed * angle.cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_never_moves() {
        let m = MotionScript::Static;
        for t in 0..100 {
            assert_eq!(m.displacement(t), (0.0, 0.0));
        }
    }

    #[test]
    fn linear_accumulates() {
        let m = MotionScript::Linear { vy: 1.5, vx: -0.5 };
        assert_eq!(m.displacement(0), (0.0, 0.0));
        assert_eq!(m.displacement(4), (6.0, -2.0));
        assert_eq!(m.velocity(7), (1.5, -0.5));
    }

    #[test]
    fn oscillate_returns_to_origin_each_period() {
        let m = MotionScript::Oscillate {
            amp_y: 4.0,
            amp_x: 2.0,
            period: 10.0,
            phase: 0.0,
        };
        let (dy0, dx0) = m.displacement(0);
        let (dy1, dx1) = m.displacement(10);
        assert!((dy0 - dy1).abs() < 1e-4);
        assert!((dx0 - dx1).abs() < 1e-4);
    }

    #[test]
    fn jitter_is_deterministic() {
        let m = MotionScript::Jitter {
            max_speed: 2.0,
            hold: 3,
            seed: 7,
        };
        assert_eq!(m.displacement(17), m.displacement(17));
        // Different seeds diverge.
        let m2 = MotionScript::Jitter {
            max_speed: 2.0,
            hold: 3,
            seed: 8,
        };
        assert_ne!(m.displacement(17), m2.displacement(17));
    }

    #[test]
    fn jitter_changes_direction() {
        let m = MotionScript::Jitter {
            max_speed: 2.0,
            hold: 2,
            seed: 3,
        };
        let v0 = m.velocity(0);
        let v5 = m.velocity(5);
        assert_ne!(v0, v5, "jitter should change velocity across segments");
    }

    #[test]
    fn jitter_displacement_is_continuous() {
        // Consecutive displacements differ by at most max_speed * sqrt(2).
        let m = MotionScript::Jitter {
            max_speed: 2.0,
            hold: 4,
            seed: 11,
        };
        for t in 0..50 {
            let (vy, vx) = m.velocity(t);
            let speed = (vy * vy + vx * vx).sqrt();
            assert!(speed <= 2.0 * 1.5, "speed {speed} exceeds bound at t={t}");
        }
    }

    #[test]
    fn default_is_static() {
        assert_eq!(MotionScript::default(), MotionScript::Static);
    }
}
