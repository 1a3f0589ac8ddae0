//! Frames, ground truth, and clips.

use crate::bbox::BoundingBox;
use eva2_tensor::GrayImage;

/// Per-frame ground truth for the synthetic tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Class id of the primary object (a [`crate::SpriteKind`] index).
    pub class: usize,
    /// Bounding box of the primary object, clamped to the frame.
    pub bbox: BoundingBox,
    /// Fraction of the object's bounding box that is unoccluded and inside
    /// the frame, in `[0, 1]`. Detection metrics can skip frames where the
    /// object is mostly invisible, mirroring dataset annotation policy.
    pub visibility: f32,
}

/// One video frame: pixels plus ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Luma pixels.
    pub image: GrayImage,
    /// Ground-truth annotation.
    pub truth: GroundTruth,
}

/// A contiguous sequence of frames from one scene, decoded at a fixed rate.
///
/// The paper decodes YTBB at 30 fps, "corresponding to a 33 ms time gap
/// between each frame" (§IV-B); [`Clip::FRAME_MS`] preserves that constant so
/// experiment code can speak in the paper's milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// The frames in presentation order.
    pub frames: Vec<Frame>,
    /// Identifier of the generating scene (for reproducibility reports).
    pub scene_seed: u64,
}

impl Clip {
    /// Milliseconds between consecutive frames at 30 fps.
    pub const FRAME_MS: f32 = 1000.0 / 30.0;

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the clip holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The time gap in milliseconds between frame indices `a` and `b`.
    pub fn gap_ms(a: usize, b: usize) -> f32 {
        (b as f32 - a as f32).abs() * Self::FRAME_MS
    }

    /// Converts a paper-style millisecond gap to a frame-index gap, rounding
    /// to the nearest frame (e.g. 198 ms → 6 frames, 33 ms → 1 frame).
    pub fn frames_for_gap_ms(ms: f32) -> usize {
        (ms / Self::FRAME_MS).round().max(1.0) as usize
    }

    /// Iterator over the frames.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }
}

impl<'a> IntoIterator for &'a Clip {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

// Frames move across threads on their way to the serving engine's worker
// pool; keep the hand-off types thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GrayImage>();
    assert_send_sync::<Frame>();
    assert_send_sync::<Clip>();
    assert_send_sync::<GroundTruth>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_constants_match_paper() {
        // 33 ms is one frame at 30 fps; 198 ms is six.
        assert_eq!(Clip::frames_for_gap_ms(33.0), 1);
        assert_eq!(Clip::frames_for_gap_ms(198.0), 6);
        // AlexNet's huge memoization gap: 4891 ms ≈ 147 frames.
        assert_eq!(Clip::frames_for_gap_ms(4891.0), 147);
    }

    #[test]
    fn gap_ms_is_symmetric() {
        assert_eq!(Clip::gap_ms(3, 9), Clip::gap_ms(9, 3));
        assert!((Clip::gap_ms(0, 6) - 200.0).abs() < 1.0);
    }

    #[test]
    fn empty_clip() {
        let c = Clip {
            frames: vec![],
            scene_seed: 0,
        };
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.iter().count(), 0);
    }
}
