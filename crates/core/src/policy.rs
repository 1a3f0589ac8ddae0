//! Key-frame selection: the paper's key-frame choice module.
//!
//! "The primary control that AMC has over vision accuracy and execution
//! efficiency is the allocation of key frames" (§II-C4). The paper's module
//! is a fixed comparator over a closed set of choices, and
//! [`PolicyConfig`] is that set, one variant each: always key (the `orig`
//! baseline), a static rate, or a threshold on one of two features
//! measurable from RFBME's own bookkeeping, each with a forced gap:
//!
//! * **Pixel compensation error** — the aggregate block-match error; high
//!   error means motion estimation failed to explain the frame (occlusion,
//!   lighting, new objects), so spend a key frame. Chosen for the hardware
//!   because "block errors are byproducts of RFBME" (§IV-E5).
//! * **Total motion magnitude** — the summed length of the motion vectors;
//!   large motion accumulates more warp error.
//!
//! Every rule about a policy lives on [`PolicyConfig`]: the per-frame
//! decision ([`PolicyConfig::decide`], a pure function of the value and the
//! frame's [`FrameMetrics`]), its motion-free part
//! ([`PolicyConfig::forces_key`], which lets a session skip RFBME on a
//! frame that is a key frame whatever the motion), its parameter checks,
//! its report name and the longest key-frame gap it allows. Code elsewhere
//! only constructs variants.

use crate::error::AmcError;

/// Per-frame features available to a key-frame policy, produced by the
/// motion-estimation stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameMetrics {
    /// Sum of per-receptive-field minimum block errors (RFBME bookkeeping).
    pub block_error: u64,
    /// `block_error` normalised by the number of compared pixels, making
    /// thresholds resolution-independent.
    pub block_error_per_pixel: f32,
    /// Sum of motion-vector magnitudes (pixels).
    pub motion_magnitude: f32,
    /// Frames elapsed since the last key frame (≥ 1 when deciding).
    pub frames_since_key: usize,
}

impl FrameMetrics {
    /// Builds metrics from an RFBME result. The per-pixel error normalises
    /// by the pixels actually compared (receptive fields overlap, so this
    /// exceeds the frame area), making thresholds intensity-scaled and
    /// resolution-independent.
    pub fn from_rfbme(result: &eva2_motion::rfbme::RfbmeResult, frames_since_key: usize) -> Self {
        let per_pixel = result.total_error as f32 / result.total_pixels.max(1) as f32;
        Self {
            block_error: result.total_error,
            block_error_per_pixel: per_pixel,
            motion_magnitude: result.field.magnitude_sum(),
            frames_since_key,
        }
    }
}

/// A key-frame decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Run the full CNN and refresh the stored state.
    Key,
    /// Warp the stored activation and run only the suffix.
    Predicted,
}

/// The key-frame choice module's configuration: one of the paper's closed
/// set of choices (see the [module docs](self)). A plain `Copy` value that
/// a session holds and asks per frame through [`PolicyConfig::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyConfig {
    /// Always run the full CNN (the paper's `orig` baseline).
    AlwaysKey,
    /// Every `period`-th frame is a key frame; the rest are predicted.
    StaticRate {
        /// Key-frame period (1 = every frame is a key frame).
        period: usize,
    },
    /// A key frame whenever the normalised block-match error exceeds
    /// `threshold`, or `max_gap` predicted frames have accumulated (a
    /// safety net against unbounded drift).
    BlockError {
        /// Per-pixel error threshold (intensity units).
        threshold: f32,
        /// Maximum consecutive predicted frames before forcing a key frame.
        max_gap: usize,
    },
    /// A key frame whenever the summed vector magnitude exceeds `threshold`
    /// pixels, or `max_gap` predicted frames have accumulated.
    MotionMagnitude {
        /// Motion magnitude threshold in summed pixels.
        threshold: f32,
        /// Maximum consecutive predicted frames before forcing a key frame.
        max_gap: usize,
    },
}

impl PolicyConfig {
    /// Chooses the frame kind given the motion metrics.
    ///
    /// A pure function of `self` and `metrics`: the serving engine
    /// classifies a frame before admitting it, and a classified frame may
    /// still be shed by backpressure
    /// (see [`serve`](crate::serve#lifecycle--failure-modes)).
    pub fn decide(&self, metrics: &FrameMetrics) -> FrameKind {
        let key = self.forces_key(metrics.frames_since_key)
            || match *self {
                PolicyConfig::AlwaysKey | PolicyConfig::StaticRate { .. } => false,
                PolicyConfig::BlockError { threshold, .. } => {
                    metrics.block_error_per_pixel > threshold
                }
                PolicyConfig::MotionMagnitude { threshold, .. } => {
                    metrics.motion_magnitude > threshold
                }
            };
        if key {
            FrameKind::Key
        } else {
            FrameKind::Predicted
        }
    }

    /// The motion-free part of [`PolicyConfig::decide`]: whether the frame
    /// `frames_since_key` frames after the last key frame is a key frame
    /// whatever its motion — every frame under
    /// [`PolicyConfig::AlwaysKey`], the period under
    /// [`PolicyConfig::StaticRate`], the forced gap under the two threshold
    /// policies. When it holds, `decide` returns [`FrameKind::Key`] for any
    /// metrics, so a caller may skip motion estimation for the frame.
    pub fn forces_key(&self, frames_since_key: usize) -> bool {
        frames_since_key >= self.max_key_gap()
    }

    /// Policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyConfig::AlwaysKey => "always-key",
            PolicyConfig::StaticRate { .. } => "static-rate",
            PolicyConfig::BlockError { .. } => "block-error",
            PolicyConfig::MotionMagnitude { .. } => "motion-magnitude",
        }
    }

    /// The most frames that can pass between two key frames under this
    /// policy: the period, the forced gap, or 1 for [`PolicyConfig::AlwaysKey`].
    pub(crate) fn max_key_gap(&self) -> usize {
        match *self {
            PolicyConfig::AlwaysKey => 1,
            PolicyConfig::StaticRate { period } => period.max(1),
            PolicyConfig::BlockError { max_gap, .. }
            | PolicyConfig::MotionMagnitude { max_gap, .. } => max_gap.max(1),
        }
    }

    /// Checks the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] for a zero period or gap, or a
    /// NaN threshold.
    pub(crate) fn validate(&self) -> Result<(), AmcError> {
        let invalid = |reason: &'static str| Err(AmcError::InvalidConfig { reason });
        match *self {
            PolicyConfig::AlwaysKey => {}
            PolicyConfig::StaticRate { period } => {
                if period == 0 {
                    return invalid("static-rate period must be at least 1");
                }
            }
            PolicyConfig::BlockError { threshold, max_gap }
            | PolicyConfig::MotionMagnitude { threshold, max_gap } => {
                if threshold.is_nan() {
                    return invalid("policy threshold must not be NaN");
                }
                if max_gap == 0 {
                    return invalid("policy max_gap must be at least 1");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(err_pp: f32, mag: f32, since: usize) -> FrameMetrics {
        FrameMetrics {
            block_error: (err_pp * 1000.0) as u64,
            block_error_per_pixel: err_pp,
            motion_magnitude: mag,
            frames_since_key: since,
        }
    }

    #[test]
    fn static_rate_fires_on_period() {
        let p = PolicyConfig::StaticRate { period: 3 };
        assert_eq!(p.decide(&metrics(0.0, 0.0, 1)), FrameKind::Predicted);
        assert_eq!(p.decide(&metrics(0.0, 0.0, 2)), FrameKind::Predicted);
        assert_eq!(p.decide(&metrics(100.0, 100.0, 3)), FrameKind::Key);
    }

    #[test]
    fn always_key_ignores_metrics() {
        let p = PolicyConfig::AlwaysKey;
        assert_eq!(p.decide(&metrics(0.0, 0.0, 1)), FrameKind::Key);
    }

    #[test]
    fn block_error_thresholds() {
        let p = PolicyConfig::BlockError {
            threshold: 2.0,
            max_gap: 100,
        };
        assert_eq!(p.decide(&metrics(1.9, 50.0, 1)), FrameKind::Predicted);
        assert_eq!(p.decide(&metrics(2.1, 0.0, 1)), FrameKind::Key);
    }

    #[test]
    fn block_error_max_gap_forces_key() {
        let p = PolicyConfig::BlockError {
            threshold: 1e9,
            max_gap: 5,
        };
        assert_eq!(p.decide(&metrics(0.0, 0.0, 4)), FrameKind::Predicted);
        assert_eq!(p.decide(&metrics(0.0, 0.0, 5)), FrameKind::Key);
    }

    #[test]
    fn motion_magnitude_thresholds() {
        let p = PolicyConfig::MotionMagnitude {
            threshold: 10.0,
            max_gap: 100,
        };
        assert_eq!(p.decide(&metrics(5.0, 9.0, 1)), FrameKind::Predicted);
        assert_eq!(p.decide(&metrics(0.0, 11.0, 1)), FrameKind::Key);
        let gapped = PolicyConfig::MotionMagnitude {
            threshold: 1e9,
            max_gap: 5,
        };
        assert_eq!(gapped.decide(&metrics(0.0, 0.0, 4)), FrameKind::Predicted);
        assert_eq!(gapped.decide(&metrics(0.0, 0.0, 5)), FrameKind::Key);
    }

    #[test]
    fn forces_key_is_the_motion_free_part_of_decide() {
        let policies = [
            PolicyConfig::AlwaysKey,
            PolicyConfig::StaticRate { period: 1 },
            PolicyConfig::StaticRate { period: 7 },
            PolicyConfig::BlockError {
                threshold: 2.0,
                max_gap: 5,
            },
            PolicyConfig::MotionMagnitude {
                threshold: 10.0,
                max_gap: 16,
            },
        ];
        for p in policies {
            for n in 1..=40 {
                let still = p.decide(&metrics(0.0, 0.0, n));
                let wild = p.decide(&metrics(1e9, 1e9, n));
                if p.forces_key(n) {
                    assert_eq!(
                        (still, wild),
                        (FrameKind::Key, FrameKind::Key),
                        "{p:?} n={n}"
                    );
                    continue;
                }
                let want = match p {
                    // Thresholds still see the motion below the gap.
                    PolicyConfig::BlockError { .. } | PolicyConfig::MotionMagnitude { .. } => {
                        (FrameKind::Predicted, FrameKind::Key)
                    }
                    // Nothing else decides: motion cannot make a key.
                    PolicyConfig::AlwaysKey | PolicyConfig::StaticRate { .. } => {
                        (FrameKind::Predicted, FrameKind::Predicted)
                    }
                };
                assert_eq!((still, wild), want, "{p:?} n={n}");
            }
        }
    }

    #[test]
    fn config_names_match_policies() {
        assert_eq!(PolicyConfig::AlwaysKey.name(), "always-key");
        assert_eq!(PolicyConfig::StaticRate { period: 2 }.name(), "static-rate");
        assert_eq!(
            PolicyConfig::BlockError {
                threshold: 1.0,
                max_gap: 10
            }
            .name(),
            "block-error"
        );
        assert_eq!(
            PolicyConfig::MotionMagnitude {
                threshold: 1.0,
                max_gap: 10
            }
            .name(),
            "motion-magnitude"
        );
    }
}
