//! Classic block-matching motion estimation.
//!
//! These are the video-codec algorithms the paper builds on ("block matching
//! algorithms, often used in video codecs, work by taking a block of pixels
//! and comparing it to a window of nearby blocks in the reference frame",
//! §II-C1, citing [19, 20]):
//!
//! * [`SearchStrategy::Exhaustive`] — full search; with `block = rf.size`
//!   and anchors on the receptive-field grid this is the *unoptimized
//!   RFBME* variant of the §IV-A analysis (no tile reuse).
//! * [`SearchStrategy::ThreeStep`] — the three-step search of Li, Zeng &
//!   Liou \[20\].
//! * [`SearchStrategy::Diamond`] — the diamond search of Zhu & Ma \[19\].

use crate::field::{MotionVector, VectorField};
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;

/// The search organisation used by a [`BlockMatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// Evaluate every offset in the window (optimal, most expensive).
    Exhaustive,
    /// Logarithmic three-step search.
    ThreeStep,
    /// Diamond search (large/small diamond pattern).
    Diamond,
}

/// Block-matching motion estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMatcher {
    /// Block side length in pixels.
    pub block: usize,
    /// Pixel distance between the anchors of adjacent blocks (the grid
    /// pitch of the output field). Usually equal to `block`; RFBME-style
    /// overlapping anchors use a smaller pitch.
    pub grid_stride: usize,
    /// Maximum displacement searched.
    pub radius: usize,
    /// Offset subsampling for the exhaustive strategy.
    pub step: usize,
    /// Search organisation.
    pub strategy: SearchStrategy,
}

struct SadCounter {
    ops: u64,
}

impl SadCounter {
    /// SAD between the block at `(by, bx)` in `new` and the block at
    /// `(by + dy, bx + dx)` in `key`; `None` when out of bounds.
    #[allow(clippy::too_many_arguments)] // block geometry spelled out
    fn sad(
        &mut self,
        key: &GrayImage,
        new: &GrayImage,
        block: usize,
        by: usize,
        bx: usize,
        dy: isize,
        dx: isize,
    ) -> Option<u64> {
        let ky = by as isize + dy;
        let kx = bx as isize + dx;
        if ky < 0
            || kx < 0
            || ky + block as isize > key.height() as isize
            || kx + block as isize > key.width() as isize
        {
            return None;
        }
        let mut sum = 0u64;
        for py in 0..block {
            for px in 0..block {
                let a = new.get(by + py, bx + px) as i32;
                let b = key.get(ky as usize + py, kx as usize + px) as i32;
                sum += (a - b).unsigned_abs() as u64;
            }
        }
        self.ops += (block * block) as u64;
        Some(sum)
    }
}

impl BlockMatcher {
    /// A codec-style matcher: non-overlapping blocks of side `block`.
    pub fn codec(block: usize, radius: usize, strategy: SearchStrategy) -> Self {
        Self {
            block,
            grid_stride: block,
            radius,
            step: 1,
            strategy,
        }
    }

    fn grid_len(&self, n: usize) -> usize {
        if n < self.block {
            0
        } else {
            (n - self.block) / self.grid_stride + 1
        }
    }

    fn search_block(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        counter: &mut SadCounter,
        by: usize,
        bx: usize,
    ) -> (MotionVector, u64) {
        match self.strategy {
            SearchStrategy::Exhaustive => {
                let step = self.step.max(1) as isize;
                let r = self.radius as isize;
                let mut best = (MotionVector::ZERO, u64::MAX);
                let mut dy = -r;
                while dy <= r {
                    let mut dx = -r;
                    while dx <= r {
                        if let Some(s) = counter.sad(key, new, self.block, by, bx, dy, dx) {
                            let mag = (dy * dy + dx * dx) as f32;
                            let bm = best.0.dy * best.0.dy + best.0.dx * best.0.dx;
                            if s < best.1 || (s == best.1 && mag < bm) {
                                best = (MotionVector::new(dy as f32, dx as f32), s);
                            }
                        }
                        dx += step;
                    }
                    dy += step;
                }
                if best.1 == u64::MAX {
                    (MotionVector::ZERO, 0)
                } else {
                    best
                }
            }
            SearchStrategy::ThreeStep => self.three_step(key, new, counter, by, bx),
            SearchStrategy::Diamond => self.diamond(key, new, counter, by, bx),
        }
    }

    #[allow(clippy::too_many_arguments)] // block geometry spelled out
    fn eval_candidates(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        counter: &mut SadCounter,
        by: usize,
        bx: usize,
        center: (isize, isize),
        pattern: &[(isize, isize)],
        best: &mut ((isize, isize), u64),
    ) {
        for &(py, px) in pattern {
            let dy = center.0 + py;
            let dx = center.1 + px;
            if dy.unsigned_abs() > self.radius || dx.unsigned_abs() > self.radius {
                continue;
            }
            if let Some(s) = counter.sad(key, new, self.block, by, bx, dy, dx) {
                if s < best.1 {
                    *best = ((dy, dx), s);
                }
            }
        }
    }

    fn three_step(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        counter: &mut SadCounter,
        by: usize,
        bx: usize,
    ) -> (MotionVector, u64) {
        let mut best = ((0isize, 0isize), u64::MAX);
        if let Some(s) = counter.sad(key, new, self.block, by, bx, 0, 0) {
            best = ((0, 0), s);
        }
        let mut step = (self.radius.div_ceil(2)).max(1) as isize;
        let mut center = (0isize, 0isize);
        loop {
            let pattern: Vec<(isize, isize)> = (-1..=1)
                .flat_map(|a| (-1..=1).map(move |b| (a * step, b * step)))
                .filter(|&p| p != (0, 0))
                .collect();
            self.eval_candidates(key, new, counter, by, bx, center, &pattern, &mut best);
            center = best.0;
            if step == 1 {
                break;
            }
            step /= 2;
        }
        if best.1 == u64::MAX {
            (MotionVector::ZERO, 0)
        } else {
            (
                MotionVector::new(best.0 .0 as f32, best.0 .1 as f32),
                best.1,
            )
        }
    }

    fn diamond(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        counter: &mut SadCounter,
        by: usize,
        bx: usize,
    ) -> (MotionVector, u64) {
        const LDSP: [(isize, isize); 8] = [
            (-2, 0),
            (-1, -1),
            (-1, 1),
            (0, -2),
            (0, 2),
            (1, -1),
            (1, 1),
            (2, 0),
        ];
        const SDSP: [(isize, isize); 4] = [(-1, 0), (0, -1), (0, 1), (1, 0)];
        let mut best = ((0isize, 0isize), u64::MAX);
        if let Some(s) = counter.sad(key, new, self.block, by, bx, 0, 0) {
            best = ((0, 0), s);
        }
        // Large diamond until the centre is best (bounded iterations).
        for _ in 0..(2 * self.radius + 1) {
            let center = best.0;
            self.eval_candidates(key, new, counter, by, bx, center, &LDSP, &mut best);
            if best.0 == center {
                break;
            }
        }
        // Final small diamond refinement.
        let center = best.0;
        self.eval_candidates(key, new, counter, by, bx, center, &SDSP, &mut best);
        if best.1 == u64::MAX {
            (MotionVector::ZERO, 0)
        } else {
            (
                MotionVector::new(best.0 .0 as f32, best.0 .1 as f32),
                best.1,
            )
        }
    }

    /// Runs block matching over the whole frame.
    pub fn run(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        let grid_h = self.grid_len(new.height());
        let grid_w = self.grid_len(new.width());
        let mut field = VectorField::zeros(grid_h, grid_w, self.grid_stride);
        let mut counter = SadCounter { ops: 0 };
        let mut total_error = 0u64;
        for gy in 0..grid_h {
            for gx in 0..grid_w {
                let (v, err) = self.search_block(
                    key,
                    new,
                    &mut counter,
                    gy * self.grid_stride,
                    gx * self.grid_stride,
                );
                field.set(gy, gx, v);
                total_error += err;
            }
        }
        MotionResult {
            field,
            ops: counter.ops,
            total_error: Some(total_error),
        }
    }
}

impl MotionEstimator for BlockMatcher {
    fn name(&self) -> &str {
        match self.strategy {
            SearchStrategy::Exhaustive => "BlockMatch-Exhaustive",
            SearchStrategy::ThreeStep => "BlockMatch-ThreeStep",
            SearchStrategy::Diamond => "BlockMatch-Diamond",
        }
    }

    fn estimate(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        self.run(key, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smooth multi-frequency texture: fast searches (TSS, diamond) assume a
    /// roughly monotonic SAD surface, which noise-like textures violate.
    fn textured(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| {
            let v = (y as f32 * 0.30).sin()
                + (x as f32 * 0.22).cos()
                + ((y + 2 * x) as f32 * 0.13).sin();
            (127.0 + v * 40.0) as u8
        })
    }

    fn all_strategies() -> [SearchStrategy; 3] {
        [
            SearchStrategy::Exhaustive,
            SearchStrategy::ThreeStep,
            SearchStrategy::Diamond,
        ]
    }

    #[test]
    fn identical_frames_zero_motion_all_strategies() {
        let img = textured(32, 32);
        for strat in all_strategies() {
            let m = BlockMatcher::codec(8, 4, strat);
            let r = m.run(&img, &img);
            assert_eq!(r.total_error, Some(0), "{strat:?}");
            assert!(
                r.field.iter().all(|v| *v == MotionVector::ZERO),
                "{strat:?}"
            );
        }
    }

    #[test]
    fn translation_recovered_all_strategies() {
        let key = textured(48, 48);
        let new = key.translate(2, -3, 0);
        for strat in all_strategies() {
            let m = BlockMatcher::codec(8, 4, strat);
            let r = m.run(&key, &new);
            let center = r.field.get(2, 2);
            assert_eq!(
                center,
                MotionVector::new(-2.0, 3.0),
                "{strat:?} failed: {center:?}"
            );
        }
    }

    #[test]
    fn fast_searches_use_fewer_ops() {
        let key = textured(64, 64);
        let new = key.translate(1, 2, 0);
        let ex = BlockMatcher::codec(8, 7, SearchStrategy::Exhaustive).run(&key, &new);
        let ts = BlockMatcher::codec(8, 7, SearchStrategy::ThreeStep).run(&key, &new);
        let dm = BlockMatcher::codec(8, 7, SearchStrategy::Diamond).run(&key, &new);
        assert!(ts.ops < ex.ops / 3, "TSS {} vs EX {}", ts.ops, ex.ops);
        assert!(dm.ops < ex.ops / 3, "DS {} vs EX {}", dm.ops, ex.ops);
    }

    #[test]
    fn exhaustive_error_is_lower_bound() {
        // The exhaustive search finds the global SAD minimum, so its total
        // error can never exceed the fast searches'.
        let key = textured(48, 48);
        let mut new = key.translate(3, 1, 0);
        // Add a deformation the fast searches may mis-track.
        for y in 20..28 {
            for x in 20..28 {
                new.set(y, x, 255 - new.get(y, x));
            }
        }
        let ex = BlockMatcher::codec(8, 4, SearchStrategy::Exhaustive)
            .run(&key, &new)
            .total_error
            .unwrap();
        for strat in [SearchStrategy::ThreeStep, SearchStrategy::Diamond] {
            let e = BlockMatcher::codec(8, 4, strat)
                .run(&key, &new)
                .total_error
                .unwrap();
            assert!(ex <= e, "{strat:?}: exhaustive {ex} > {e}");
        }
    }

    #[test]
    fn overlapping_anchors_make_denser_fields() {
        let key = textured(32, 32);
        let dense = BlockMatcher {
            block: 8,
            grid_stride: 4,
            radius: 2,
            step: 1,
            strategy: SearchStrategy::Exhaustive,
        };
        let r = dense.run(&key, &key);
        assert_eq!(r.field.grid_h(), 7);
        let codec = BlockMatcher::codec(8, 2, SearchStrategy::Exhaustive).run(&key, &key);
        assert_eq!(codec.field.grid_h(), 4);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_strategies()
            .iter()
            .map(|&s| {
                let m = BlockMatcher::codec(8, 4, s);
                // Leak is fine in a test; we only compare strings.
                Box::leak(Box::new(m)).name()
            })
            .collect();
        assert_eq!(names.len(), 3);
        assert_ne!(names[0], names[1]);
        assert_ne!(names[1], names[2]);
    }
}
