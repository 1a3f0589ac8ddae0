//! Receptive field block motion estimation (RFBME).
//!
//! RFBME (§III-A of the paper) estimates one motion vector per *receptive
//! field* of the AMC target layer — exactly the granularity activation
//! warping can use. It exploits two properties of receptive fields:
//!
//! 1. Their size is typically much larger than their stride, so adjacent
//!    fields overlap heavily and **tile-level differences can be reused**.
//! 2. Padding makes edge receptive fields extend out of bounds, where
//!    comparisons are unnecessary.
//!
//! The implementation mirrors the hardware microarchitecture:
//! [`DiffTileProducer`] performs a subsampled exhaustive search per
//! `stride × stride` tile (Fig 6's "diff tile producer"), and
//! [`DiffTileConsumer`] coalesces tile differences into receptive-field
//! differences with rolling column add/subtract reuse and a min-check
//! register per field (Fig 8). Both stages count their arithmetic
//! operations, which backs the §IV-A first-order comparison against the CNN
//! prefix cost.
//!
//! # The fast path: the same search, laid out for the vector unit
//!
//! [`Rfbme::estimate`] runs the *same exhaustive search* as the two-stage
//! hardware model ([`Rfbme::estimate_reference`]) — every in-bounds tile
//! SAD of every offset — with the data laid out so that both stages are
//! contiguous vector work and no per-offset diff plane is materialised.
//! One loop structure serves every stride; strides 4, 8 and 16 run it with
//! the stride as a constant.
//!
//! * **Every search offset is a lane.** With `n` offsets per axis, lane
//!   `xi·n + yi` holds the offset `(dy, dx)` whose indices on the two axes
//!   are `yi` and `xi`. The `n²` lanes are padded once, at the end, to whole
//!   vector registers (16 `u32` in a `zmm` on an AVX-512 target, 8 in a
//!   `ymm` otherwise): 81 → 96 lanes for the early target's radius 4,
//!   289 → 304 for the late target's radius 8.
//! * **Producer: contiguous tiles against a contiguous strip, one tile
//!   column at a time.** `new` is copied once per call tile-major, so a
//!   tile is `stride²` contiguous bytes. For each `dx` at which tile column
//!   `tx`'s windows stay in the key frame, the key frame's
//!   `stride`-byte-wide column displaced by `dx` is copied into one
//!   contiguous strip. The tile SAD at vertical offset `dy` is then a SAD
//!   of two contiguous `stride²`-byte runs — the tile against the strip
//!   from row `ty·stride + dy` — and consecutive `dy` are `stride` bytes
//!   apart. `sad::sad_tile` compares the runs in 32-byte blocks (`vpsadbw`;
//!   one 16-byte block at stride 4, a runtime-length run at other strides).
//!   The SADs fill a `[tile row][lane]` plane for the column, at the valid
//!   (tile, offset) pairs only.
//! * **Consumer, first half: a ring of tile-row sums.** For each field row,
//!   the lane-wise sum of the plane rows it covers goes into a ring that
//!   holds the last few tile columns, as many as the widest field is wide.
//! * **Consumer, second half: one min-check per receptive field.** Once a
//!   field's last tile column is done, the lane-wise sum of its ring slots
//!   is keyed `(sum << 32) | rank[lane]` and reduced by one vector minimum
//!   (`vpminuq`). The rank is `(dy² + dx²)·n² + yi·n + xi`: it orders the
//!   offsets as the reference's register does among equal errors (smaller
//!   `dy² + dx²`, then first in row-major order), so the smallest key is
//!   the reference's answer and there is no tie pass. Lanes where the field
//!   is not admitted (one of its windows leaves the key frame) have their
//!   sum forced to `u32::MAX` by OR-ing one mask per field row and one per
//!   field column; every admitted sum is below that.
//! * **What the geometry fixes is kept.** The rank table, the masks, the
//!   two axes' plans and the operation counts depend on `(rf, params, h,
//!   w)` alone. [`RfbmeScratch`] keeps them until a call brings another
//!   geometry.
//!
//! Results are bit-identical to the reference. The cost depends on the
//! geometry only, never on frame contents: [`Rfbme::ops_bound`] is the
//! exact operation count of every call, and the counts a result reports
//! are computed from the same per-axis totals rather than tallied in the
//! loop. Sums are exact in `u32` for frames below [`Rfbme::MAX_PIXELS`],
//! and ranks fit in `u32` up to radius 151 at step 1; [`Rfbme::estimate_with`]
//! checks both.
//!
//! Where a call's time goes (48×48 frames, a textured pair shifted by
//! (1, 2), on an AVX-512 host; stages deleted from the back, minimum over
//! 40 interleaved rounds of 100 calls): at RF 7/4/2, radius 4 (the early
//! target), ≈ 22 µs — tile SADs and strip copies ≈ 15.3, tile-row sums
//! into the ring ≈ 1.2, the field minimums ≈ 4.4, and copying `new`, the
//! geometry check and the returned result ≈ 1.4; at RF 27/8/10, radius 8
//! (the late target), ≈ 23.5 µs — SADs ≈ 17.5, ring ≈ 1.9, minimums ≈ 3.7,
//! the rest ≈ 0.6. The `dy`-lane search this replaced kept one `u64` key
//! per field per `dy` lane, folded every `dx` into it and settled ties in
//! a pass per field. In the same harness it took 28.4–28.7 µs at radius 4,
//! where every field covers a single tile and ≈ 13 µs of its consumer
//! summed nothing, and 26.1–26.9 µs at radius 8.
//!
//! Measured on the way here, so nobody re-tries them blind (48×48, RF
//! 27/8/10, radius 8, interleaved min-of-60 against the per-row `psadbw`
//! search this replaced at 69 µs a call, unless stated):
//!
//! * Making `dx` the lane of the producer, with the per-row 8-byte kernel,
//!   took it from 35 to 55 µs: per-lane bounds checks and spilled row
//!   pointers. Within one `dx`, `dy` lanes need neither, because a strip
//!   makes consecutive lanes' windows one fixed pitch apart.
//! * The tile SAD must be straight-line blocks of a constant size. Fed
//!   through the runtime-length run kernel ([`crate::sad::sad_row`]) with
//!   a length the compiler could have folded, the SAD stayed scalar or
//!   went out of line (62 µs a call with the consumer below, 0.9× the old
//!   search); see also the kernel notes in [`crate::sad`].
//! * Summing runtime-length lane ranges (`copy_from_slice` then adds over
//!   the 9–17 admitted lanes) costs a `memcpy` call and a scalar epilogue
//!   per row; whole padded rows in register-wide blocks, with zero or an
//!   earlier tile's SAD in the lanes a tile is not searched at, are what
//!   made the consumer cheap.
//! * Building the rank table, or sorting the offsets, on every call
//!   measured slower than a closed form (43 µs a call against 29 at radius
//!   8, with the earlier `dy`-lane consumer), and a sort of more than 20
//!   offsets allocates, which the serving engine's warmed estimate may not.
//!   The table is built from the closed form once per geometry instead.
//! * A `u32` error plus a blended `dx` index as the key, with `dx` visited
//!   in rank order (on the earlier `dy`-lane consumer): medians 31.6 → 41.4
//!   µs a call at radius 4, 29.1 → 37.4 at radius 8.
//! * Folding fields that cover a single tile straight from the `dy`-lane
//!   plane, skipping the tile-row sums: only 10 % off that consumer.
//! * Moving the tile-row loop inside the out-of-line producer call, and a
//!   branch-free producer that fills every lane from a padded strip, gained
//!   nothing over valid lanes only — and the second would make the
//!   reported operation count understate the work.
//! * Summing a field's ring slots into a lane buffer first, then taking
//!   the minimum over the buffer: level at radius 4, 1.12–1.14× the call
//!   at radius 8, where fields span three tile columns and the sums make a
//!   round trip through memory that the register sum here avoids.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

use crate::field::{MotionVector, VectorField};
use crate::sad::sad_tile;
use crate::{MotionEstimator, MotionResult};
use eva2_tensor::GrayImage;
use std::ops::Range;

/// Receptive-field geometry as seen from the input image.
///
/// Mirrors `eva2_cnn::ReceptiveField` (duplicated here so the motion crate
/// depends only on the tensor substrate; `eva2-core` converts between the
/// two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfGeometry {
    /// Receptive-field side length in pixels.
    pub size: usize,
    /// Pixel distance between adjacent receptive fields.
    pub stride: usize,
    /// Offset of the first receptive field's origin above/left of the image
    /// origin.
    pub padding: usize,
}

impl RfGeometry {
    /// Number of receptive fields along an image dimension of `n` pixels
    /// (the spatial extent of the target activation).
    pub fn grid_len(&self, n: usize) -> usize {
        let padded = n + 2 * self.padding;
        if padded < self.size {
            0
        } else {
            (padded - self.size) / self.stride + 1
        }
    }
}

/// Block-matching search window parameters.
///
/// The producer "considers all locations in the key frame that are aligned
/// with the search stride and are within the search radius" (§III-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SearchParams {
    /// Maximum displacement searched in each direction, in pixels.
    pub radius: usize,
    /// Search stride: only offsets that are multiples of `step` are
    /// examined. 1 = full search.
    pub step: usize,
}

impl SearchParams {
    /// The search offsets along one axis, in visit order: `-radius`,
    /// `-radius + step`, … up to `radius`.
    fn axis(&self) -> impl Iterator<Item = isize> + Clone {
        let r = self.radius as isize;
        (-r..=r).step_by(self.step.max(1))
    }

    /// The offset at index `i` of [`SearchParams::axis`].
    fn offset(&self, i: usize) -> isize {
        (i * self.step.max(1)) as isize - self.radius as isize
    }

    /// The search offsets along one axis: `-radius..=radius` step `step`.
    pub fn offsets(&self) -> Vec<isize> {
        self.axis().collect()
    }

    /// Number of candidate offsets in the 2-D search window.
    pub fn window_len(&self) -> usize {
        let n = 2 * self.radius / self.step.max(1) + 1;
        n * n
    }
}

/// Marker for a tile difference that could not be computed because the
/// candidate window leaves the key frame.
const INVALID: u32 = u32::MAX;

/// Tile-level absolute differences for every search offset.
///
/// `diffs[o][ty * tiles_x + tx]` is the sum of absolute differences between
/// the new frame's tile `(ty, tx)` and the key frame at that tile's origin
/// displaced by `offsets[o]`, or [`INVALID`] when that window is out of
/// bounds.
#[derive(Debug, Clone)]
pub struct TileDiffs {
    /// Tile grid height.
    pub tiles_y: usize,
    /// Tile grid width.
    pub tiles_x: usize,
    /// The (dy, dx) search offsets, row-major over the search window.
    pub offsets: Vec<(isize, isize)>,
    /// Per-offset tile difference planes.
    pub diffs: Vec<Vec<u32>>,
    /// Adds performed while producing the differences.
    pub ops: u64,
}

/// The diff tile producer: subsampled exhaustive search per tile (§III-A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffTileProducer {
    /// Tile side length — equal to the receptive-field stride.
    pub tile: usize,
    /// Search window parameters.
    pub params: SearchParams,
}

impl DiffTileProducer {
    /// Computes tile differences between `new` (current frame tiles) and
    /// `key` (search windows).
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size.
    pub fn produce(&self, key: &GrayImage, new: &GrayImage) -> TileDiffs {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        let s = self.tile.max(1);
        let tiles_y = new.height() / s;
        let tiles_x = new.width() / s;
        let axis = self.params.offsets();
        let mut offsets = Vec::with_capacity(axis.len() * axis.len());
        for &dy in &axis {
            for &dx in &axis {
                offsets.push((dy, dx));
            }
        }
        let mut diffs = vec![vec![INVALID; tiles_y * tiles_x]; offsets.len()];
        let mut ops: u64 = 0;
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let oy = (ty * s) as isize;
                let ox = (tx * s) as isize;
                for (oi, &(dy, dx)) in offsets.iter().enumerate() {
                    let ky = oy + dy;
                    let kx = ox + dx;
                    // Only fully in-bounds key windows are valid candidates.
                    if ky < 0
                        || kx < 0
                        || ky + s as isize > key.height() as isize
                        || kx + s as isize > key.width() as isize
                    {
                        continue;
                    }
                    let mut sad: u32 = 0;
                    for py in 0..s {
                        for px in 0..s {
                            let a = new.get(oy as usize + py, ox as usize + px) as i32;
                            let b = key.get((ky as usize) + py, (kx as usize) + px) as i32;
                            sad += (a - b).unsigned_abs();
                        }
                    }
                    ops += (s * s) as u64;
                    diffs[oi][ty * tiles_x + tx] = sad;
                }
            }
        }
        TileDiffs {
            tiles_y,
            tiles_x,
            offsets,
            diffs,
            ops,
        }
    }
}

/// Per-receptive-field output of the consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfMatch {
    /// Best-match displacement (pixels, gather convention).
    pub vector: MotionVector,
    /// Minimum receptive-field difference (the block error fed to the
    /// key-frame choice module).
    pub error: u32,
    /// Number of pixels that contributed to `error` (for normalisation).
    pub pixels: u32,
}

impl RfMatch {
    /// A min-check register before any valid offset: the `u32::MAX` error
    /// is a sentinel no real (clamped) error reaches.
    const UNMATCHED: RfMatch = RfMatch {
        vector: MotionVector::ZERO,
        error: u32::MAX,
        pixels: 0,
    };
}

/// The diff tile consumer: aggregates tile differences into receptive-field
/// differences with rolling reuse, and finds each field's best offset
/// (§III-A2, Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffTileConsumer {
    /// Receptive-field geometry.
    pub rf: RfGeometry,
}

impl DiffTileConsumer {
    /// Tile index range `[t0, t1)` covered by the receptive field starting
    /// at activation coordinate `a` along one axis, restricted to whole
    /// tiles inside the frame ("RFBME ignores partial tiles", §III-A).
    fn tile_range(&self, a: usize, tiles: usize) -> (usize, usize) {
        let s = self.rf.stride as isize;
        let origin = a as isize * s - self.rf.padding as isize;
        let end = origin + self.rf.size as isize;
        // First whole tile at or after origin; last whole tile ending at or
        // before end.
        let t0 = origin.div_euclid(s) + if origin.rem_euclid(s) != 0 { 1 } else { 0 };
        let t1 = end.div_euclid(s);
        let t0 = t0.max(0) as usize;
        let t1 = t1.max(0) as usize;
        (t0.min(tiles), t1.min(tiles))
    }

    /// Consumes tile differences, producing one [`RfMatch`] per receptive
    /// field plus the consumer's operation count.
    pub fn consume(&self, tiles: &TileDiffs, grid_h: usize, grid_w: usize) -> (Vec<RfMatch>, u64) {
        let s2 = (self.rf.stride * self.rf.stride) as u32;
        let mut best = vec![RfMatch::UNMATCHED; grid_h * grid_w];
        let mut ops: u64 = 0;
        let mut colsum = vec![0u64; tiles.tiles_x];
        let mut colvalid = vec![true; tiles.tiles_x];
        for (oi, plane) in tiles.diffs.iter().enumerate() {
            let (ody, odx) = tiles.offsets[oi];
            for ay in 0..grid_h {
                let (ty0, ty1) = self.tile_range(ay, tiles.tiles_y);
                if ty0 >= ty1 {
                    continue;
                }
                // Column sums over the tile rows of this receptive-field row
                // (the "previous block sum memory" granularity in hardware).
                for tx in 0..tiles.tiles_x {
                    let mut sum = 0u64;
                    let mut valid = true;
                    for ty in ty0..ty1 {
                        let d = plane[ty * tiles.tiles_x + tx];
                        if d == INVALID {
                            valid = false;
                            break;
                        }
                        sum += d as u64;
                    }
                    ops += (ty1 - ty0) as u64;
                    colsum[tx] = sum;
                    colvalid[tx] = valid;
                }
                // Slide the window across activation columns with rolling
                // add/subtract.
                let mut window: Option<(u64, usize, usize)> = None; // (sum, tx0, tx1)
                for ax in 0..grid_w {
                    let (tx0, tx1) = self.tile_range(ax, tiles.tiles_x);
                    if tx0 >= tx1 {
                        window = None;
                        continue;
                    }
                    let sum = match window {
                        // Rolling update only valid when the window width is
                        // unchanged and slid by exactly the reuse pattern.
                        Some((prev, p0, p1)) if tx1 - tx0 == p1 - p0 && tx0 >= p0 && tx0 <= p1 => {
                            let mut sum = prev;
                            for &col in &colsum[p0..tx0] {
                                sum -= col;
                                ops += 1;
                            }
                            for &col in &colsum[p1..tx1] {
                                sum += col;
                                ops += 1;
                            }
                            sum
                        }
                        _ => {
                            let mut sum = 0u64;
                            for &col in &colsum[tx0..tx1] {
                                sum += col;
                                ops += 1;
                            }
                            sum
                        }
                    };
                    window = Some((sum, tx0, tx1));
                    // Any invalid column invalidates this offset for the RF.
                    if colvalid[tx0..tx1].iter().any(|&v| !v) {
                        continue;
                    }
                    let n_tiles = ((ty1 - ty0) * (tx1 - tx0)) as u32;
                    let err = sum.min(u32::MAX as u64 - 1) as u32;
                    let b = &mut best[ay * grid_w + ax];
                    // Min-check register: strictly-smaller error wins; ties
                    // prefer the smaller displacement (stability).
                    let cand_mag = (ody * ody + odx * odx) as f32;
                    let best_mag = b.vector.dy * b.vector.dy + b.vector.dx * b.vector.dx;
                    if err < b.error || (err == b.error && cand_mag < best_mag) {
                        *b = RfMatch {
                            vector: MotionVector::new(ody as f32, odx as f32),
                            error: err,
                            pixels: n_tiles * s2,
                        };
                    }
                }
            }
        }
        // Receptive fields that never saw a valid offset keep the
        // `u32::MAX` sentinel; `Rfbme::result_from_matches` maps them to
        // zero motion / zero error (no evidence either way).
        (best, ops)
    }
}

/// Search bookkeeping of one estimate, retained for API stability.
///
/// A *candidate* is one valid (offset, receptive field) pair — an offset
/// whose search windows stay in bounds for every tile the field covers.
/// The dense search evaluates every candidate exactly, so
/// `candidates == refined` and both rejection counters are zero; the
/// reference model reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Valid (offset, receptive field) pairs examined.
    pub candidates: u64,
    /// Always zero: no candidate is rejected by a bound.
    pub rejected_level0: u64,
    /// Always zero: no candidate is rejected by a bound.
    pub rejected_level1: u64,
    /// Candidates evaluated with exact SAD aggregation.
    pub refined: u64,
}

/// Full RFBME result.
#[derive(Debug, Clone)]
pub struct RfbmeResult {
    /// Motion vector per receptive field (pixel units, cell = RF stride).
    pub field: VectorField,
    /// Per-field minimum block error.
    pub errors: Vec<u32>,
    /// Sum of per-field minimum errors — the pixel-compensation-error
    /// signal for adaptive key-frame selection.
    pub total_error: u64,
    /// Total pixels compared across all fields' best matches (receptive
    /// fields overlap, so this exceeds the frame size). Normalising
    /// `total_error` by this gives a resolution-independent per-pixel
    /// error.
    pub total_pixels: u64,
    /// Producer adds.
    pub producer_ops: u64,
    /// Consumer adds/subtracts.
    pub consumer_ops: u64,
    /// Search bookkeeping (all zero for [`Rfbme::estimate_reference`]).
    pub search: SearchStats,
}

impl RfbmeResult {
    /// Total arithmetic operations.
    pub fn ops(&self) -> u64 {
        self.producer_ops + self.consumer_ops
    }
}

/// Contiguous range `[lo, hi)` of tile indices along one axis whose search
/// windows stay inside the key frame at offset `d`: `t·s + d ≥ 0` and
/// `t·s + d + s ≤ n`. Validity is separable per axis (a tile is valid iff
/// its row *and* column are), which is what makes per-offset validity O(1)
/// instead of per-tile.
#[inline]
fn valid_tile_range(tiles: usize, s: usize, d: isize, n: usize) -> (usize, usize) {
    let s_i = s as isize;
    let lo = (-d).div_euclid(s_i) + if (-d).rem_euclid(s_i) != 0 { 1 } else { 0 };
    let lo = lo.max(0) as usize;
    let hi_num = n as isize - s_i - d;
    if hi_num < 0 {
        return (tiles, tiles); // empty
    }
    let hi = ((hi_num.div_euclid(s_i) + 1) as usize).min(tiles);
    (lo.min(hi), hi)
}

/// What one search offset admits along one axis: the valid tiles, and the
/// receptive fields whose whole tile range lies inside them.
///
/// Both are contiguous. A field's tile range is a fixed-width window that
/// moves one tile per field (then clamps to the frame), so its two ends
/// are non-decreasing in the field index; the fields inside a tile
/// interval are therefore an interval too.
#[derive(Debug, Clone)]
struct AxisSpan {
    tiles: Range<usize>,
    fields: Range<usize>,
}

impl AxisSpan {
    /// `ranges[a]` is field `a`'s tile range ([`DiffTileConsumer::tile_range`]).
    fn new(ranges: &[(usize, usize)], tiles: usize, s: usize, d: isize, n: usize) -> Self {
        let (lo, hi) = valid_tile_range(tiles, s, d, n);
        let inside = |&(t0, t1): &(usize, usize)| t0 < t1 && t0 >= lo && t1 <= hi;
        let first = ranges.iter().position(inside).unwrap_or(ranges.len());
        let count = ranges[first..].iter().take_while(|r| inside(r)).count();
        Self {
            tiles: lo..hi,
            fields: first..first + count,
        }
    }
}

/// The search along one axis, derived from the geometry: each receptive
/// field's tile range, each offset's [`AxisSpan`], and their transposes —
/// the offsets at which each tile is searched and each field admitted.
/// Everything the search costs factors through two of these.
#[derive(Debug, Clone, Default)]
struct AxisPlan {
    /// Tile range of each receptive field along the axis.
    ranges: Vec<(usize, usize)>,
    /// What each search offset admits, in visit order.
    spans: Vec<AxisSpan>,
    /// The offsets (indices in visit order) at which each tile is searched:
    /// its window stays in the key frame and the offset admits some field.
    tile_offsets: Vec<Range<usize>>,
    /// The offsets at which each receptive field is admitted.
    field_offsets: Vec<Range<usize>>,
}

impl AxisPlan {
    /// Plans an axis of `n` pixels.
    fn fill(&mut self, rfbme: &Rfbme, n: usize) {
        let s = rfbme.rf.stride.max(1);
        let tiles = n / s;
        let consumer = DiffTileConsumer { rf: rfbme.rf };
        let Self {
            ranges,
            spans,
            tile_offsets,
            field_offsets,
        } = self;
        ranges.clear();
        ranges.extend((0..rfbme.rf.grid_len(n)).map(|a| consumer.tile_range(a, tiles)));
        spans.clear();
        spans.extend(
            rfbme
                .params
                .axis()
                .map(|d| AxisSpan::new(ranges, tiles, s, d, n)),
        );
        // Both conditions bound the offset from two sides, so each tile's
        // and each field's offsets are one contiguous run.
        tile_offsets.clear();
        tile_offsets.resize(tiles, 0..0);
        field_offsets.clear();
        field_offsets.resize(ranges.len(), 0..0);
        let live = spans
            .iter()
            .enumerate()
            .filter(|(_, span)| !span.fields.is_empty());
        for (i, span) in live {
            let tiles = tile_offsets[span.tiles.clone()].iter_mut();
            for r in tiles.chain(&mut field_offsets[span.fields.clone()]) {
                if r.start == r.end {
                    r.start = i;
                }
                r.end = i + 1;
            }
        }
    }

    /// The offsets that admit at least one receptive field, with their
    /// index in visit order. An offset that admits none on either axis is
    /// not searched at all.
    fn active(&self) -> impl Iterator<Item = (usize, &AxisSpan)> {
        let live = |(_, span): &(usize, &AxisSpan)| !span.fields.is_empty();
        self.spans.iter().enumerate().filter(live)
    }

    /// Totals over the active offsets.
    fn totals(&self) -> AxisTotals {
        let mut t = AxisTotals::default();
        for (_, span) in self.active() {
            t.valid += span.tiles.len() as u64;
            t.covered += self.ranges[span.fields.clone()]
                .iter()
                .map(|&(t0, t1)| (t1 - t0) as u64)
                .sum::<u64>();
            t.fields += span.fields.len() as u64;
        }
        t
    }
}

/// Per-axis totals of the dense search over the offsets that admit at least
/// one receptive field: valid tiles, tiles covered by admitted fields, and
/// admitted fields.
#[derive(Debug, Clone, Copy, Default)]
struct AxisTotals {
    valid: u64,
    covered: u64,
    fields: u64,
}

/// The operation counts of one dense search, from the two axes' totals.
///
/// An offset `(dy, dx)` that admits a receptive field on both axes costs
/// `s²` per valid tile (producer), one add per valid tile column per tile
/// row of each admitted field row (tile-row sums), and one add per covered
/// column of each admitted field; every admitted (offset, field) pair is
/// one candidate. All four factor per axis, so the sums over the window
/// are products of per-axis totals. Saturating arithmetic keeps degenerate
/// geometries from wrapping.
#[derive(Debug, Clone, Copy, Default)]
struct SearchCost {
    producer: u64,
    consumer: u64,
    candidates: u64,
}

impl SearchCost {
    fn new(s: usize, y: AxisTotals, x: AxisTotals) -> Self {
        let s = s as u64;
        let tile_row_sums = y.covered.saturating_mul(x.valid);
        let field_sums = y.fields.saturating_mul(x.covered);
        Self {
            producer: y.valid.saturating_mul(x.valid).saturating_mul(s * s),
            consumer: tile_row_sums.saturating_add(field_sums),
            candidates: y.fields.saturating_mul(x.fields),
        }
    }
}

/// Copies the `s`-byte-wide column of `px` (rows `w` bytes apart) that
/// starts at byte `x0` of each row into `dst`, one row after another, so
/// that any `s × s` window of the column is `s²` contiguous bytes.
/// `dst.len() / s` rows are copied.
#[inline(always)]
fn copy_column(px: &[u8], w: usize, x0: usize, s: usize, dst: &mut [u8]) {
    for (row, out) in px[x0..].chunks(w).zip(dst.chunks_exact_mut(s)) {
        out.copy_from_slice(&row[..s]);
    }
}

/// Lanes are summed and compared in blocks of this many, one vector
/// register of `u32` ([`eva2_tensor::F32_LANES`]: 16 in a `zmm` on an
/// AVX-512 target, 8 in a `ymm` otherwise). The lanes are all the search
/// offsets, padded once at the end to a whole number of blocks: the early
/// target's radius-4 search has 81 offsets in 96 lanes, the late target's
/// radius-8 one 289 in 304.
const LANE_BLOCK: usize = eva2_tensor::F32_LANES;

/// Writes the SAD of `tile` against each window of `windows` into `out`:
/// window `i` is the `tile.len()` bytes starting `i · pitch` bytes in.
/// `S` is the tile side (`0`: whatever `tile.len()` says).
///
/// Kept out of line: measured level with the inlined form at stride 8 and
/// 5 % faster at stride 4.
#[inline(never)]
fn tile_lane_sads<const S: usize>(tile: &[u8], windows: &[u8], pitch: usize, out: &mut [u32]) {
    let s2 = if S == 0 { tile.len() } else { S * S };
    let tile = &tile[..s2];
    for (sad, window) in out.iter_mut().zip(windows.windows(s2).step_by(pitch)) {
        *sad = sad_tile::<S>(tile, window);
    }
}

/// The lane-wise sum of block `b` of `count` lane rows, the first at the
/// start of `rows` and each next one `pitch` lanes further on: one
/// [`LANE_BLOCK`] of lanes, summed in a register.
#[inline(always)]
fn lane_block_sum(rows: &[u32], pitch: usize, b: usize, count: usize) -> [u32; LANE_BLOCK] {
    let mut acc = [0u32; LANE_BLOCK];
    for row in 0..count {
        let block = &rows[row * pitch + b * LANE_BLOCK..][..LANE_BLOCK];
        for (a, &v) in acc.iter_mut().zip(block) {
            *a += v;
        }
    }
    acc
}

/// One receptive field's min-check register over every lane at once.
///
/// The field's sum at a lane is the lane-wise sum of its tile columns' ring
/// rows, `lanes` apart: `head` rows from the start of `ring`, then `tail`
/// rows from the start of `wrapped` (where the ring wrapped). A lane at
/// which the field is not admitted has its sum forced to `u32::MAX` by
/// either mask. The result is the smallest `(sum << 32) | rank` over the
/// lanes.
#[inline(always)]
fn field_min(
    (ring, head): (&[u32], usize),
    (wrapped, tail): (&[u32], usize),
    row_mask: &[u32],
    col_mask: &[u32],
    rank: &[u32],
) -> u64 {
    fn blocks(v: &[u32]) -> std::slice::ChunksExact<'_, u32> {
        v.chunks_exact(LANE_BLOCK)
    }
    let lanes = rank.len();
    let masks = blocks(row_mask).zip(blocks(col_mask));
    let mut min = [u64::MAX; LANE_BLOCK];
    for (b, ((rm, cm), rk)) in masks.zip(blocks(rank)).enumerate() {
        let mut sums = lane_block_sum(ring, lanes, b, head);
        for (sum, v) in sums.iter_mut().zip(lane_block_sum(wrapped, lanes, b, tail)) {
            *sum += v;
        }
        let each = min.iter_mut().zip(sums).zip(rm.iter().zip(cm).zip(rk));
        for ((m, sum), ((&rm, &cm), &rk)) in each {
            *m = (*m).min(u64::from(sum | rm | cm) << 32 | u64::from(rk));
        }
    }
    min.into_iter().fold(u64::MAX, u64::min)
}

/// The reference's whole tie rule as one number per offset. Of two offsets
/// with the same error, the reference keeps the smaller `dy² + dx²`, and of
/// two equal in that too the one it visits first, in row-major order: the
/// smaller `(dy, dx)`. With offset indices `yi`, `xi` in `0..n` on each
/// axis that is the order of `(dy² + dx²)·n² + yi·n + xi`, and the rank is
/// distinct per offset, so it also names the offset ([`decode_rank`]).
#[inline]
fn offset_rank(params: SearchParams, n: usize, (yi, xi): (usize, usize)) -> u32 {
    let (dy, dx) = (params.offset(yi), params.offset(xi));
    let magnitude = (dy * dy + dx * dx) as usize;
    (magnitude * n * n + yi * n + xi) as u32
}

/// The offset indices `(yi, xi)` that [`offset_rank`] ranked, given the
/// number of offsets per axis `n`.
#[inline]
fn decode_rank(rank: u32, n: usize) -> (usize, usize) {
    // `n²` fits in `u32` wherever the ranks do (`Rfbme::ranks_fit_u32`).
    let n = n as u32;
    let offset = rank % (n * n);
    ((offset / n) as usize, (offset % n) as usize)
}

/// What the search derives from its geometry, `(rf, params, h, w)`, and
/// keeps while that geometry lasts: the two axes' plans, the cost, and the
/// per-lane tables of the min-check.
///
/// Lane `xi·n + yi` is the offset `(dy, dx)` with indices `(yi, xi)` in
/// `0..n` on each axis; lanes from `n²` on are padding.
#[derive(Debug, Clone, Default)]
struct SearchPlan {
    /// The geometry the rest was derived for.
    geometry: Option<(Rfbme, usize, usize)>,
    rows: AxisPlan,
    cols: AxisPlan,
    cost: SearchCost,
    /// Offsets per axis.
    n: usize,
    /// `n²`, padded to a whole number of [`LANE_BLOCK`]s.
    lanes: usize,
    /// Tile columns the widest receptive field covers: the ring's length.
    ring_len: usize,
    /// [`offset_rank`] of each lane.
    rank: Vec<u32>,
    /// `[field row][lane]`: zero where the field row is admitted, else
    /// `u32::MAX`.
    row_mask: Vec<u32>,
    /// `[field column][lane]`, likewise.
    col_mask: Vec<u32>,
}

impl SearchPlan {
    /// Derives everything for `rfbme` over `h`×`w` frames, unless it
    /// already holds that geometry.
    fn prepare(&mut self, rfbme: &Rfbme, h: usize, w: usize) {
        if self.geometry == Some((*rfbme, h, w)) {
            return;
        }
        let Self {
            geometry,
            rows,
            cols,
            cost,
            n,
            lanes,
            ring_len,
            rank,
            row_mask,
            col_mask,
        } = self;
        rows.fill(rfbme, h);
        cols.fill(rfbme, w);
        *cost = SearchCost::new(rfbme.rf.stride.max(1), rows.totals(), cols.totals());
        *n = rfbme.params.axis().count();
        *lanes = (*n * *n).next_multiple_of(LANE_BLOCK);
        *ring_len = Self::widest(cols.ranges.iter().copied());
        let lane_offsets =
            || (0..*lanes).map(|lane| (lane < *n * *n).then(|| (lane % *n, lane / *n)));
        rank.clear();
        rank.extend(
            lane_offsets().map(|o| o.map_or(u32::MAX, |o| offset_rank(rfbme.params, *n, o))),
        );
        let mask = |admitted: bool| if admitted { 0 } else { u32::MAX };
        row_mask.clear();
        row_mask.reserve_exact(rows.field_offsets.len() * *lanes);
        for offsets in &rows.field_offsets {
            row_mask.extend(
                lane_offsets().map(|o| mask(o.is_some_and(|(yi, _)| offsets.contains(&yi)))),
            );
        }
        col_mask.clear();
        col_mask.reserve_exact(cols.field_offsets.len() * *lanes);
        for offsets in &cols.field_offsets {
            col_mask.extend(
                lane_offsets().map(|o| mask(o.is_some_and(|(_, xi)| offsets.contains(&xi)))),
            );
        }
        *geometry = Some((*rfbme, h, w));
    }

    /// The most tiles any of `ranges` covers, at least one.
    fn widest(ranges: impl IntoIterator<Item = (usize, usize)>) -> usize {
        let widths = ranges.into_iter().map(|(t0, t1)| t1.saturating_sub(t0));
        widths.fold(1, usize::max)
    }
}

/// Reusable buffers for [`Rfbme::estimate_with`].
///
/// A frame-loop caller (each worker of the serving engine, the
/// single-stream executor) holds one scratch so steady-state estimation
/// allocates nothing but the returned [`RfbmeResult`]. What the search
/// derives from its geometry (the lane ranks and admission masks) is kept
/// between calls and rebuilt whenever `(rf, params, h, w)` differs from the
/// last call's; every other value is rewritten before it is read. So
/// sharing a scratch across streams, key images or geometries, or none at
/// all, is purely a performance choice.
#[derive(Debug, Clone, Default)]
pub struct RfbmeScratch {
    /// What the last call's geometry derived.
    plan: SearchPlan,
    /// Min-check register per receptive field.
    best: Vec<RfMatch>,
    /// `new`, one tile column after another, each `stride` bytes wide.
    new_tiles: Vec<u8>,
    /// One `stride`-byte-wide column of `key`, displaced by `dx`.
    strip: Vec<u8>,
    /// Tile SADs of one tile column: `[tile row][lane]`.
    plane: Vec<u32>,
    /// Tile-row sums of the last `ring_len` tile columns:
    /// `[field row][tile column mod ring_len][lane]`.
    ring: Vec<u32>,
}

impl RfbmeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of heap memory this scratch holds (allocated capacities).
    /// Buffers grow to their steady-state size on the first estimate of a
    /// geometry and stay there.
    pub fn heap_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let axis = |a: &AxisPlan| {
            vec_bytes(&a.ranges)
                + vec_bytes(&a.spans)
                + vec_bytes(&a.tile_offsets)
                + vec_bytes(&a.field_offsets)
        };
        let plan = &self.plan;
        axis(&plan.rows)
            + axis(&plan.cols)
            + vec_bytes(&plan.rank)
            + vec_bytes(&plan.row_mask)
            + vec_bytes(&plan.col_mask)
            + vec_bytes(&self.best)
            + vec_bytes(&self.new_tiles)
            + vec_bytes(&self.strip)
            + vec_bytes(&self.plane)
            + vec_bytes(&self.ring)
    }
}

/// The complete RFBME estimator: producer + consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rfbme {
    rf: RfGeometry,
    params: SearchParams,
}

impl Rfbme {
    /// Creates an estimator for the given receptive-field geometry and
    /// search window.
    pub fn new(rf: RfGeometry, params: SearchParams) -> Self {
        Self { rf, params }
    }

    /// The receptive-field geometry being matched.
    pub fn rf(&self) -> RfGeometry {
        self.rf
    }

    /// Runs RFBME from `key` to `new` through the two-stage hardware
    /// reference model ([`DiffTileProducer`] + [`DiffTileConsumer`]): a
    /// diff plane per offset, then the rolling-sum consumer.
    ///
    /// This is the bit-faithful model of Fig 6/Fig 8 and the one oracle
    /// the fast path ([`Rfbme::estimate`]) is tested against.
    pub fn estimate_reference(&self, key: &GrayImage, new: &GrayImage) -> RfbmeResult {
        let producer = DiffTileProducer {
            tile: self.rf.stride,
            params: self.params,
        };
        let tiles = producer.produce(key, new);
        let grid_h = self.rf.grid_len(new.height());
        let grid_w = self.rf.grid_len(new.width());
        let consumer = DiffTileConsumer { rf: self.rf };
        let (matches, consumer_ops) = consumer.consume(&tiles, grid_h, grid_w);
        Self::result_from_matches(
            self.rf,
            &matches,
            grid_h,
            grid_w,
            tiles.ops,
            consumer_ops,
            SearchStats::default(),
        )
    }

    /// Runs RFBME from `key` to `new` on the fast path: the dense,
    /// vectorised form of the reference's exhaustive search (see the
    /// [module docs](self)). `field`, `errors`, `total_error` and
    /// `total_pixels` equal [`Rfbme::estimate_reference`]'s bit for bit;
    /// [`RfbmeResult::ops`] equals [`Rfbme::ops_bound`] whatever the
    /// frames contain.
    ///
    /// # Panics
    ///
    /// As [`Rfbme::estimate_with`].
    pub fn estimate(&self, key: &GrayImage, new: &GrayImage) -> RfbmeResult {
        self.estimate_with(key, new, &mut RfbmeScratch::new())
    }

    /// [`Rfbme::estimate`] reusing caller-owned scratch buffers, so a
    /// frame-loop caller performs no per-estimate allocation. Results are
    /// identical to [`Rfbme::estimate`]: between calls the scratch carries
    /// capacity and what the last call's geometry derived, which a call
    /// with another geometry derives afresh.
    ///
    /// # Panics
    ///
    /// Panics when the two frames differ in size, or hold
    /// [`Rfbme::MAX_PIXELS`] pixels or more (the search sums in `u32`), or
    /// when the search window is too large for its offsets' ranks to fit in
    /// `u32` (beyond radius 151 at step 1).
    pub fn estimate_with(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> RfbmeResult {
        assert_eq!(
            (key.height(), key.width()),
            (new.height(), new.width()),
            "frame size mismatch"
        );
        assert!(
            Self::sums_fit_u32(new.height(), new.width()),
            "frame too large for RFBME's u32 sums"
        );
        assert!(
            Self::ranks_fit_u32(self.params),
            "search window too large for RFBME's u32 ranks"
        );
        // The stride as a constant is what turns the row copies into
        // single moves and the tile SAD into two (or one, or eight) block
        // SADs; any other stride runs the same loop on runtime lengths.
        match self.rf.stride {
            4 => self.search::<4>(key, new, scratch),
            8 => self.search::<8>(key, new, scratch),
            16 => self.search::<16>(key, new, scratch),
            _ => self.search::<0>(key, new, scratch),
        }
    }

    /// Frames must hold fewer pixels than this. A receptive-field sum is at
    /// most `255` per pixel of the frame, so below this limit every sum is
    /// at most `u32::MAX - 1`: exact in the search's `u32` lanes, never
    /// touched by the reference's clamp to that value (the reference sums
    /// in `u64`), and never equal to the min-check register's `u32::MAX`
    /// sentinel. 4096×4096 fits.
    pub const MAX_PIXELS: usize = (u32::MAX / 255) as usize;

    fn sums_fit_u32(h: usize, w: usize) -> bool {
        h.checked_mul(w).is_some_and(|p| p < Self::MAX_PIXELS)
    }

    /// Whether every offset rank of the window fits in `u32`: with `n`
    /// offsets per axis, each is below `(2·radius² + 1)·n²`.
    fn ranks_fit_u32(params: SearchParams) -> bool {
        let (r, n) = (params.radius as u64, params.axis().count() as u64);
        r.checked_mul(2 * r)
            .and_then(|m| (m + 1).checked_mul(n * n))
            .is_some_and(|bound| bound <= 1 << 32)
    }

    /// The dense search for tile side `S` (`0`: the runtime stride).
    fn search<const S: usize>(
        &self,
        key: &GrayImage,
        new: &GrayImage,
        scratch: &mut RfbmeScratch,
    ) -> RfbmeResult {
        let (h, w) = (new.height(), new.width());
        scratch.plan.prepare(self, h, w);
        let RfbmeScratch {
            plan,
            best,
            new_tiles,
            strip,
            plane,
            ring,
        } = scratch;
        let SearchPlan {
            rows,
            cols,
            cost,
            n,
            lanes,
            ring_len,
            ..
        } = &*plan;
        let (n, lanes, ring_len) = (*n, *lanes, *ring_len);
        let s = if S == 0 { self.rf.stride.max(1) } else { S };
        let s2 = s * s;
        let (tiles_y, tiles_x) = (h / s, w / s);
        let (grid_h, grid_w) = (rows.ranges.len(), cols.ranges.len());
        let (new_px, key_px) = (new.as_slice(), key.as_slice());
        let step = self.params.step.max(1);

        best.clear();
        best.resize(grid_h * grid_w, RfMatch::UNMATCHED);
        new_tiles.resize(tiles_x * tiles_y * s2, 0);
        strip.resize(h * s, 0);
        // A lane a tile is not searched at keeps an earlier tile's SAD, or
        // zero: its sums stay below `u32::MAX` and are masked off.
        plane.clear();
        plane.resize(tiles_y * lanes, 0);
        ring.resize(grid_h * ring_len * lanes, 0);
        let column = tiles_y * s2;
        for tx in 0..tiles_x {
            copy_column(
                new_px,
                w,
                tx * s,
                s,
                &mut new_tiles[tx * column..][..column],
            );
        }

        let live_rows = || {
            let rows = rows.ranges.iter().zip(&rows.field_offsets).enumerate();
            rows.filter(|(_, (_, offsets))| !offsets.is_empty())
        };
        // The next field column whose last tile column is still to come.
        let mut next_ax = 0;
        let mut slot = 0;
        for tx in 0..tiles_x {
            // Producer: every tile of this tile column against the key
            // column displaced by each `dx`, all vertical offsets at once.
            // Consecutive `dy` lanes' windows start `step` strip rows apart.
            for xi in cols.tile_offsets[tx].clone() {
                let dx = self.params.offset(xi);
                copy_column(key_px, w, ((tx * s) as isize + dx) as usize, s, strip);
                let tiles = new_tiles[tx * column..][..column].chunks_exact(s2);
                for ((ty, tile), yis) in tiles.enumerate().zip(&rows.tile_offsets) {
                    if yis.is_empty() {
                        continue;
                    }
                    let first = ((ty * s) as isize + self.params.offset(yis.start)) as usize * s;
                    let sads = &mut plane[ty * lanes + xi * n..][yis.clone()];
                    tile_lane_sads::<S>(tile, &strip[first..], step * s, sads);
                }
            }
            // Consumer, first half: the tile rows each field row covers,
            // into this tile column's ring slot.
            for (ay, (&(ty0, ty1), _)) in live_rows() {
                let sum = &mut ring[(ay * ring_len + slot) * lanes..][..lanes];
                let (sads, count) = (&plane[ty0 * lanes..], ty1 - ty0);
                for (b, out) in sum.chunks_exact_mut(LANE_BLOCK).enumerate() {
                    out.copy_from_slice(&lane_block_sum(sads, lanes, b, count));
                }
            }
            // Consumer, second half: each field whose last tile column this
            // is sums its ring slots and takes its min-check, every offset
            // at once. Fields end in field order.
            while next_ax < grid_w && cols.ranges[next_ax].1 <= tx + 1 {
                let ax = next_ax;
                next_ax += 1;
                if cols.field_offsets[ax].is_empty() {
                    continue;
                }
                let (tx0, tx1) = cols.ranges[ax];
                let count = tx1 - tx0;
                // The ring slots of tile columns `tx0..=tx`, which may wrap.
                let first = (slot + 1 + ring_len - count) % ring_len;
                let head = count.min(ring_len - first);
                let col_mask = &plan.col_mask[ax * lanes..][..lanes];
                // A live field row and a live field column share an
                // admitted lane, so every minimum here is a real sum.
                for (ay, (&(ty0, ty1), _)) in live_rows() {
                    let rows = &ring[ay * ring_len * lanes..][..ring_len * lanes];
                    let min = field_min(
                        (&rows[first * lanes..], head),
                        (rows, count - head),
                        &plan.row_mask[ay * lanes..][..lanes],
                        col_mask,
                        &plan.rank,
                    );
                    let (yi, xi) = decode_rank(min as u32, n);
                    best[ay * grid_w + ax] = RfMatch {
                        vector: MotionVector::new(
                            self.params.offset(yi) as f32,
                            self.params.offset(xi) as f32,
                        ),
                        error: (min >> 32) as u32,
                        pixels: ((ty1 - ty0) * count * s2) as u32,
                    };
                }
            }
            slot = if slot + 1 == ring_len { 0 } else { slot + 1 };
        }

        Self::result_from_matches(
            self.rf,
            best,
            grid_h,
            grid_w,
            cost.producer,
            cost.consumer,
            SearchStats {
                candidates: cost.candidates,
                refined: cost.candidates,
                ..SearchStats::default()
            },
        )
    }

    /// The exact [`RfbmeResult::ops`] of one
    /// [`Rfbme::estimate`]/[`Rfbme::estimate_with`] call over `h`×`w`
    /// frames — the motion-estimation term of `eva2-analysis`'s
    /// predicted-frame cost model. It is a function of the geometry alone,
    /// so the bound capacity planning budgets against is met with equality.
    pub fn ops_bound(&self, h: usize, w: usize) -> u64 {
        let (mut rows, mut cols) = (AxisPlan::default(), AxisPlan::default());
        rows.fill(self, h);
        cols.fill(self, w);
        let cost = SearchCost::new(self.rf.stride.max(1), rows.totals(), cols.totals());
        cost.producer.saturating_add(cost.consumer)
    }

    /// Static upper bound on [`RfbmeScratch::heap_bytes`] after any number
    /// of [`Rfbme::estimate_with`] calls over `h`×`w` frames. Every buffer
    /// is sized exactly by the geometry, up to the allocator's minimum of
    /// eight bytes or four wider elements.
    pub fn scratch_bytes_bound(&self, h: usize, w: usize) -> usize {
        use std::mem::size_of;
        fn bytes<T>(len: usize) -> usize {
            let floor = if size_of::<T>() == 1 { 8 } else { 4 };
            if len == 0 {
                0
            } else {
                len.max(floor) * size_of::<T>()
            }
        }
        let s = self.rf.stride.max(1);
        let (tiles_y, tiles_x) = (h / s, w / s);
        let (grid_h, grid_w) = (self.rf.grid_len(h), self.rf.grid_len(w));
        let offsets = self.params.axis().count();
        let lanes = (offsets * offsets).next_multiple_of(LANE_BLOCK);
        let consumer = DiffTileConsumer { rf: self.rf };
        let ring_len = SearchPlan::widest((0..grid_w).map(|a| consumer.tile_range(a, tiles_x)));
        bytes::<(usize, usize)>(grid_h) // rows.ranges
            + bytes::<(usize, usize)>(grid_w) // cols.ranges
            + 2 * bytes::<AxisSpan>(offsets) // rows.spans, cols.spans
            + bytes::<Range<usize>>(tiles_y) // rows.tile_offsets
            + bytes::<Range<usize>>(tiles_x) // cols.tile_offsets
            + bytes::<Range<usize>>(grid_h) // rows.field_offsets
            + bytes::<Range<usize>>(grid_w) // cols.field_offsets
            + bytes::<u32>(lanes) // rank
            + bytes::<u32>(grid_h * lanes) // row_mask
            + bytes::<u32>(grid_w * lanes) // col_mask
            + bytes::<RfMatch>(grid_h * grid_w) // best
            + bytes::<u8>(tiles_x * tiles_y * s * s) // new_tiles
            + bytes::<u8>(h * s) // strip
            + bytes::<u32>(tiles_y * lanes) // plane
            + bytes::<u32>(grid_h * ring_len * lanes) // ring
    }

    /// Finalises per-field matches into an [`RfbmeResult`], mapping fields
    /// that never saw a valid offset to zero motion / zero error.
    fn result_from_matches(
        rf: RfGeometry,
        matches: &[RfMatch],
        grid_h: usize,
        grid_w: usize,
        producer_ops: u64,
        consumer_ops: u64,
        search: SearchStats,
    ) -> RfbmeResult {
        let mut field = VectorField::zeros(grid_h, grid_w, rf.stride);
        let mut errors = Vec::with_capacity(matches.len());
        let mut total: u64 = 0;
        let mut total_pixels: u64 = 0;
        for (i, m) in matches.iter().enumerate() {
            let m = if m.error == u32::MAX {
                RfMatch {
                    vector: MotionVector::ZERO,
                    error: 0,
                    pixels: 0,
                }
            } else {
                *m
            };
            field.set(i / grid_w.max(1), i % grid_w.max(1), m.vector);
            errors.push(m.error);
            total += m.error as u64;
            total_pixels += m.pixels as u64;
        }
        RfbmeResult {
            field,
            errors,
            total_error: total,
            total_pixels,
            producer_ops,
            consumer_ops,
            search,
        }
    }
}

impl MotionEstimator for Rfbme {
    fn name(&self) -> &str {
        "RFBME"
    }

    fn estimate(&self, key: &GrayImage, new: &GrayImage) -> MotionResult {
        let r = Rfbme::estimate(self, key, new);
        MotionResult {
            ops: r.ops(),
            total_error: Some(r.total_error),
            field: r.field,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| (((y * 31 + x * 17) ^ (y * x / 3)) % 251) as u8)
    }

    fn rf_844() -> RfGeometry {
        RfGeometry {
            size: 8,
            stride: 4,
            padding: 0,
        }
    }

    #[test]
    fn search_offsets_respect_step() {
        let p = SearchParams { radius: 4, step: 2 };
        assert_eq!(p.offsets(), vec![-4, -2, 0, 2, 4]);
        assert_eq!(p.window_len(), 25);
        // A step that does not divide the radius stops short of +radius.
        let p = SearchParams { radius: 5, step: 3 };
        assert_eq!(p.offsets(), vec![-5, -2, 1, 4]);
        for radius in 0..=9 {
            for step in 0..=5 {
                let p = SearchParams { radius, step };
                let n = p.offsets().len();
                assert_eq!(p.window_len(), n * n, "{p:?}");
            }
        }
    }

    #[test]
    fn ranks_order_offsets_like_the_reference_and_decode() {
        // Sorting the offsets by rank must give the reference's preference
        // among equal errors: smaller `dy² + dx²`, then smaller `dy`, then
        // smaller `dx`; and every rank must name its own offset.
        for radius in 0..=16 {
            for step in 1..=4 {
                let params = SearchParams { radius, step };
                let axis = params.offsets();
                let n = axis.len();
                let mut by_rank: Vec<(usize, usize)> = (0..n)
                    .flat_map(|yi| (0..n).map(move |xi| (yi, xi)))
                    .collect();
                by_rank.sort_by_key(|&o| offset_rank(params, n, o));
                let offsets: Vec<(isize, isize)> = by_rank
                    .iter()
                    .map(|&(yi, xi)| (axis[yi], axis[xi]))
                    .collect();
                let mut want = offsets.clone();
                want.sort_by_key(|&(dy, dx)| (dy * dy + dx * dx, dy, dx));
                assert_eq!(offsets, want, "{params:?}");
                for o in by_rank {
                    assert_eq!(decode_rank(offset_rank(params, n, o), n), o, "{params:?}");
                }
            }
        }
        // The window's largest rank fits in `u32` up to radius 151 at step 1.
        assert!(Rfbme::ranks_fit_u32(SearchParams {
            radius: 151,
            step: 1
        }));
        assert!(!Rfbme::ranks_fit_u32(SearchParams {
            radius: 152,
            step: 1
        }));
    }

    #[test]
    fn ops_bound_dominates_measured_ops() {
        // The dense search's cost is a function of the geometry alone, so
        // the static count is met exactly whatever the frames contain:
        // identical, translated, and uncorrelated — across geometries with
        // and without padding, and a step that does not divide the radius.
        let geoms = [
            (rf_844(), SearchParams { radius: 4, step: 1 }),
            (
                RfGeometry {
                    size: 6,
                    stride: 3,
                    padding: 2,
                },
                SearchParams { radius: 3, step: 2 },
            ),
            (
                RfGeometry {
                    size: 27,
                    stride: 8,
                    padding: 10,
                },
                SearchParams { radius: 8, step: 3 },
            ),
        ];
        let key = textured(40, 36);
        let shifted = key.translate(2, 3, 0);
        let noise = GrayImage::from_fn(40, 36, |y, x| ((y * 97 + x * 41 + 13) % 256) as u8);
        for (rf, params) in geoms {
            let rfbme = Rfbme::new(rf, params);
            let bound = rfbme.ops_bound(40, 36);
            assert!(bound > 0);
            for new in [&key, &shifted, &noise] {
                let r = rfbme.estimate(&key, new);
                assert_eq!(r.ops(), bound, "rf {rf:?} params {params:?}");
            }
        }
    }

    /// The geometry the late target serves (`steady`) and the early one
    /// (`early_churn`), with their search radii.
    fn served() -> [(RfGeometry, usize); 2] {
        let late = RfGeometry {
            size: 27,
            stride: 8,
            padding: 10,
        };
        let early = RfGeometry {
            size: 7,
            stride: 4,
            padding: 2,
        };
        [(late, 8), (early, 4)]
    }

    #[test]
    fn scratch_bytes_bound_dominates_warmed_heap_bytes() {
        let key = textured(48, 48);
        let new = key.translate(2, 1, 0);
        for (rf, radius) in [(rf_844(), 4)].into_iter().chain(served()) {
            let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
            let mut scratch = RfbmeScratch::new();
            for _ in 0..3 {
                let _ = rfbme.estimate_with(&key, &new, &mut scratch);
            }
            let used = scratch.heap_bytes();
            let bound = rfbme.scratch_bytes_bound(48, 48);
            assert!(
                used <= bound,
                "rf {rf:?}: warmed scratch {used} B > bound {bound} B"
            );
            // Tightness: almost every buffer is sized exactly by the
            // geometry, so the bound should be close — a big gap means the
            // model and the implementation have drifted apart.
            assert!(
                bound <= used * 2,
                "rf {rf:?}: bound {bound} B is >2x warmed scratch {used} B"
            );
        }
    }

    #[test]
    fn warmed_estimate_reuses_scratch_without_growth() {
        // The serving engine's alloc audit relies on this: once warmed for
        // a frame size, further estimates leave the scratch heap unchanged.
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let key = textured(48, 48);
        let mut scratch = RfbmeScratch::new();
        let _ = rfbme.estimate_with(&key, &key.translate(1, 0, 0), &mut scratch);
        let warmed = scratch.heap_bytes();
        for dx in 0..4 {
            let _ = rfbme.estimate_with(&key, &key.translate(0, dx, 0), &mut scratch);
            assert_eq!(scratch.heap_bytes(), warmed, "scratch grew at dx={dx}");
        }
    }

    #[test]
    fn identical_frames_give_zero_vectors_and_zero_error() {
        let img = textured(32, 32);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&img, &img);
        assert_eq!(r.total_error, 0);
        assert!(r.field.iter().all(|v| *v == MotionVector::ZERO));
    }

    #[test]
    fn global_translation_is_recovered() {
        let key = textured(40, 40);
        // New frame: content moved right by 3 pixels → best match for a new
        // block at p is at p + v with v = (0, -3).
        let new = key.translate(0, 3, 0);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&key, &new);
        let mut hits = 0;
        let mut total = 0;
        for gy in 0..r.field.grid_h() {
            for gx in 2..r.field.grid_w() {
                // skip leftmost columns polluted by the translation fill
                total += 1;
                if r.field.get(gy, gx) == MotionVector::new(0.0, -3.0) {
                    hits += 1;
                }
            }
        }
        assert!(hits * 10 >= total * 8, "only {hits}/{total} fields correct");
    }

    #[test]
    fn vertical_translation_sign() {
        let key = textured(40, 40);
        let new = key.translate(2, 0, 0); // content moved down
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let r = rfbme.estimate(&key, &new);
        let center = r.field.get(r.field.grid_h() / 2, r.field.grid_w() / 2);
        assert_eq!(center, MotionVector::new(-2.0, 0.0));
    }

    #[test]
    fn consumer_matches_brute_force_sums() {
        // The rolling-window consumer must agree with a brute-force
        // recomputation of every receptive-field difference.
        let key = textured(32, 32);
        let new = key.translate(1, 2, 7);
        let rf = rf_844();
        let params = SearchParams { radius: 2, step: 1 };
        let producer = DiffTileProducer {
            tile: rf.stride,
            params,
        };
        let tiles = producer.produce(&key, &new);
        let grid = rf.grid_len(32);
        let consumer = DiffTileConsumer { rf };
        let (matches, _) = consumer.consume(&tiles, grid, grid);
        // Brute force.
        for ay in 0..grid {
            for ax in 0..grid {
                let (ty0, ty1) = consumer.tile_range(ay, tiles.tiles_y);
                let (tx0, tx1) = consumer.tile_range(ax, tiles.tiles_x);
                let mut best_err = u32::MAX;
                for (oi, _) in tiles.offsets.iter().enumerate() {
                    let mut sum: u64 = 0;
                    let mut valid = true;
                    for ty in ty0..ty1 {
                        for tx in tx0..tx1 {
                            let d = tiles.diffs[oi][ty * tiles.tiles_x + tx];
                            if d == INVALID {
                                valid = false;
                            } else {
                                sum += d as u64;
                            }
                        }
                    }
                    if valid {
                        best_err = best_err.min(sum as u32);
                    }
                }
                // Never-valid fields keep the sentinel here; the result
                // finaliser maps them to zero.
                let got = matches[ay * grid + ax].error;
                assert_eq!(got, best_err, "rf ({ay},{ax})");
            }
        }
    }

    #[test]
    fn padding_shrinks_valid_tile_range_at_edges() {
        let rf = RfGeometry {
            size: 6,
            stride: 2,
            padding: 2,
        };
        let consumer = DiffTileConsumer { rf };
        // Fig 7a: the first receptive field starts at -2; only tiles 0 and 1
        // (pixels 0..4) are fully inside it.
        assert_eq!(consumer.tile_range(0, 10), (0, 2));
        // Fig 7b: second receptive field covers pixels 0..6 → tiles 0..3.
        assert_eq!(consumer.tile_range(1, 10), (0, 3));
    }

    #[test]
    fn producer_skips_out_of_bounds_windows() {
        let img = textured(16, 16);
        let producer = DiffTileProducer {
            tile: 4,
            params: SearchParams { radius: 8, step: 4 },
        };
        let tiles = producer.produce(&img, &img);
        // Corner tile (0,0) cannot match at offset (-8,-8).
        let oi = tiles
            .offsets
            .iter()
            .position(|&o| o == (-8, -8))
            .expect("offset present");
        assert_eq!(tiles.diffs[oi][0], INVALID);
        // But it can match at (0, 0).
        let oi0 = tiles.offsets.iter().position(|&o| o == (0, 0)).unwrap();
        assert_eq!(tiles.diffs[oi0][0], 0);
    }

    #[test]
    fn ops_are_far_below_unoptimized_for_large_strides() {
        // §IV-A: reuse gains scale with stride². With rf 16/8, the optimized
        // op count must be well under the unoptimized rf_size² per offset.
        let key = textured(64, 64);
        let new = key.translate(1, 1, 0);
        let rf = RfGeometry {
            size: 16,
            stride: 8,
            padding: 0,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 8, step: 2 });
        let r = rfbme.estimate(&key, &new);
        let grid = rf.grid_len(64);
        let window = SearchParams { radius: 8, step: 2 }.window_len() as u64;
        let unoptimized = (grid * grid) as u64 * window * (rf.size * rf.size) as u64;
        assert!(
            r.ops() * 2 < unoptimized,
            "ops {} not far below unoptimized {unoptimized}",
            r.ops()
        );
    }

    #[test]
    fn occlusion_raises_block_error() {
        let key = textured(32, 32);
        let mut new = key.clone();
        // Paint a block of "new pixels" (de-occlusion).
        for y in 8..20 {
            for x in 8..20 {
                new.set(y, x, 255);
            }
        }
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 4, step: 1 });
        let clean = rfbme.estimate(&key, &key).total_error;
        let occluded = rfbme.estimate(&key, &new).total_error;
        assert!(occluded > clean + 1000, "occluded {occluded} clean {clean}");
    }

    #[test]
    fn grid_len_matches_conv_arithmetic() {
        let rf = RfGeometry {
            size: 8,
            stride: 4,
            padding: 2,
        };
        // (32 + 4 - 8)/4 + 1 = 8
        assert_eq!(rf.grid_len(32), 8);
        assert_eq!(rf_844().grid_len(32), 7);
    }

    fn assert_same_result(fast: &RfbmeResult, reference: &RfbmeResult, label: &str) {
        assert_eq!(fast.errors, reference.errors, "{label}: errors differ");
        assert_eq!(
            fast.total_error, reference.total_error,
            "{label}: total_error differs"
        );
        assert_eq!(
            fast.total_pixels, reference.total_pixels,
            "{label}: total_pixels differs"
        );
        assert_eq!(fast.field, reference.field, "{label}: vector fields differ");
    }

    #[test]
    fn fast_path_matches_reference_on_translations() {
        let key = textured(48, 48);
        let rfs = [
            rf_844(),
            RfGeometry {
                size: 16,
                stride: 8,
                padding: 0,
            },
            RfGeometry {
                size: 27,
                stride: 8,
                padding: 10,
            },
        ];
        for rf in rfs {
            let rfbme = Rfbme::new(rf, SearchParams { radius: 6, step: 1 });
            for (dy, dx) in [(0isize, 0isize), (0, 1), (2, -3), (-5, 4), (8, 8)] {
                let new = key.translate(dy, dx, 31);
                let fast = rfbme.estimate(&key, &new);
                let reference = rfbme.estimate_reference(&key, &new);
                assert_same_result(&fast, &reference, &format!("rf {rf:?} shift ({dy},{dx})"));
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_on_occlusion_and_noise() {
        let key = textured(40, 40);
        let mut new = key.translate(1, 1, 0);
        for y in 10..22 {
            for x in 14..26 {
                new.set(y, x, 240);
            }
        }
        for step in [1usize, 2, 3] {
            let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 5, step });
            let fast = rfbme.estimate(&key, &new);
            let reference = rfbme.estimate_reference(&key, &new);
            assert_same_result(&fast, &reference, &format!("step {step}"));
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_and_geometries_is_identical() {
        // One scratch driven across shrinking/growing frames, changing key
        // images and changing geometries must reproduce fresh-scratch
        // results exactly — the worker thread and every session reuse one
        // scratch for life.
        let mut scratch = RfbmeScratch::new();
        let cases = [
            (48usize, rf_844(), 4usize, (2isize, -3isize)),
            (
                32,
                RfGeometry {
                    size: 16,
                    stride: 8,
                    padding: 0,
                },
                6,
                (0, 1),
            ),
            (48, rf_844(), 3, (-5, 4)),
            (
                64,
                RfGeometry {
                    size: 27,
                    stride: 8,
                    padding: 10,
                },
                5,
                (8, 8),
            ),
        ];
        for (i, (dim, rf, radius, (dy, dx))) in cases.into_iter().enumerate() {
            let key = textured(dim, dim).translate(i as isize, 0, 90);
            let new = key.translate(dy, dx, 17);
            let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
            let reused = rfbme.estimate_with(&key, &new, &mut scratch);
            let fresh = rfbme.estimate(&key, &new);
            assert_same_result(&reused, &fresh, &format!("dim {dim} rf {rf:?}"));
            assert_eq!(reused.producer_ops, fresh.producer_ops, "producer ops");
            assert_eq!(reused.consumer_ops, fresh.consumer_ops, "consumer ops");
        }
    }

    #[test]
    fn search_stats_account_for_every_candidate() {
        let key = textured(48, 48);
        let new = key.translate(2, -3, 41);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 5, step: 1 });
        let s = rfbme.estimate(&key, &new).search;
        assert!(s.candidates > 0);
        assert_eq!(s.refined, s.candidates, "every candidate is evaluated");
        assert_eq!((s.rejected_level0, s.rejected_level1), (0, 0));
        // The central offset is valid for every receptive field, the
        // extreme ones for fewer: more than one field-set per offset, fewer
        // than all fields at all offsets.
        let n_rf = (rf_844().grid_len(48) * rf_844().grid_len(48)) as u64;
        assert!(s.candidates > n_rf && s.candidates < n_rf * 121);
        // The reference reports nothing.
        let reference = rfbme.estimate_reference(&key, &new).search;
        assert_eq!(reference, SearchStats::default());
    }

    #[test]
    fn periodic_texture_ties_break_like_the_reference() {
        // A texture with period 4 on both axes, shifted by 2 with wrap:
        // offsets (0, -2) and (0, 2) — and every offset a period away from
        // them — match exactly. The smallest displacement wins, and of the
        // two equally small ones the first in row-major order.
        let pattern = |y: usize, x: usize| (((y % 4) * 4 + x % 4) * 15) as u8;
        let key = GrayImage::from_fn(40, 40, pattern);
        let new = GrayImage::from_fn(40, 40, |y, x| pattern(y, x + 2));
        for rf in [
            rf_844(),
            RfGeometry {
                size: 16,
                stride: 8,
                padding: 4,
            },
        ] {
            let rfbme = Rfbme::new(rf, SearchParams { radius: 6, step: 1 });
            let fast = rfbme.estimate(&key, &new);
            let reference = rfbme.estimate_reference(&key, &new);
            assert_same_result(&fast, &reference, &format!("periodic rf {rf:?}"));
            assert_eq!(fast.total_error, 0);
            let centre = fast
                .field
                .get(fast.field.grid_h() / 2, fast.field.grid_w() / 2);
            assert_eq!(centre, MotionVector::new(0.0, -2.0));
        }
    }

    #[test]
    fn checkerboard_ties_resolve_in_row_major_order() {
        // A checkerboard against its inverse: every offset with odd
        // `dy + dx` matches exactly, so the four unit offsets tie at error 0
        // and magnitude 1. The reference visits (-1, 0) first; the dense
        // search, which takes every offset at once, must still prefer it —
        // the row-major term `yi·n + xi` of the offset rank.
        let key = GrayImage::from_fn(48, 48, |y, x| 255 * ((y + x) & 1) as u8);
        let new = GrayImage::from_fn(48, 48, |y, x| 255 * ((y + x + 1) & 1) as u8);
        for (rf, radius) in served() {
            let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
            let fast = rfbme.estimate(&key, &new);
            let reference = rfbme.estimate_reference(&key, &new);
            assert_same_result(&fast, &reference, &format!("checkerboard rf {rf:?}"));
            assert_eq!(fast.total_error, 0);
            let consumer = DiffTileConsumer { rf };
            let tiles = 48 / rf.stride;
            for gy in 0..fast.field.grid_h() {
                for gx in 0..fast.field.grid_w() {
                    // A field that covers tile row 0 cannot look up, one
                    // that covers tile column 0 cannot look left.
                    let want = match (
                        consumer.tile_range(gy, tiles).0,
                        consumer.tile_range(gx, tiles).0,
                    ) {
                        (1.., _) => MotionVector::new(-1.0, 0.0),
                        (0, 1..) => MotionVector::new(0.0, -1.0),
                        (0, 0) => MotionVector::new(0.0, 1.0),
                    };
                    assert_eq!(fast.field.get(gy, gx), want, "rf {rf:?} field ({gy},{gx})");
                }
            }
        }
    }

    #[test]
    fn later_visited_smaller_dx_wins_a_lane_tie() {
        // Horizontal period `radius + 1`, shifted by one: at `dy = 0`,
        // `dx = -radius` and `dx = +1` both match exactly. `-radius`
        // is visited first; `+1` must displace it, being the smaller
        // displacement. Every other row offset mismatches: the rows' term
        // is quadratic in `y`.
        for (rf, radius) in served() {
            let period = radius + 1;
            let pattern = |y: usize, x: usize| ((x % period * 29 + 3 * y * y + 11 * y) % 256) as u8;
            let key = GrayImage::from_fn(48, 48, pattern);
            let new = GrayImage::from_fn(48, 48, |y, x| pattern(y, x + 1));
            let rfbme = Rfbme::new(rf, SearchParams { radius, step: 1 });
            let fast = rfbme.estimate(&key, &new);
            let reference = rfbme.estimate_reference(&key, &new);
            assert_same_result(&fast, &reference, &format!("period {period} rf {rf:?}"));
            assert_eq!(fast.total_error, 0);
            let consumer = DiffTileConsumer { rf };
            let tiles = 48 / rf.stride;
            for gy in 0..fast.field.grid_h() {
                for gx in 0..fast.field.grid_w() {
                    // A field that covers the last tile column cannot look
                    // right.
                    let want = if consumer.tile_range(gx, tiles).1 == tiles {
                        MotionVector::new(0.0, -(radius as f32))
                    } else {
                        MotionVector::new(0.0, 1.0)
                    };
                    assert_eq!(fast.field.get(gy, gx), want, "rf {rf:?} field ({gy},{gx})");
                }
            }
        }
    }

    #[test]
    fn saturated_difference_is_255_per_pixel() {
        // The search sums in `u32`. Below `MAX_PIXELS` a frame-wide sum of
        // saturated differences stays under the reference's clamp and the
        // register's sentinel; at it, it would not — so such frames are
        // refused up front rather than summed in a second, wider path.
        let limit = Rfbme::MAX_PIXELS as u64;
        assert_eq!((limit - 1) * 255, u32::MAX as u64 - 255);
        assert!(limit * 255 > u32::MAX as u64 - 1);
        assert!(Rfbme::sums_fit_u32(4096, 4096));
        assert!(Rfbme::sums_fit_u32(1, Rfbme::MAX_PIXELS - 1));
        assert!(!Rfbme::sums_fit_u32(1, Rfbme::MAX_PIXELS));
        assert!(!Rfbme::sums_fit_u32(usize::MAX, 2));
        // All-0 against all-255: every offset of every field costs exactly
        // 255 per compared pixel, far below the `u32::MAX - 1` clamp.
        let key = GrayImage::filled(40, 48, 0);
        let new = GrayImage::filled(40, 48, 255);
        let rf = RfGeometry {
            size: 27,
            stride: 8,
            padding: 10,
        };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 8, step: 1 });
        let fast = rfbme.estimate(&key, &new);
        assert_same_result(&fast, &rfbme.estimate_reference(&key, &new), "saturated");
        let consumer = DiffTileConsumer { rf };
        for gy in 0..fast.field.grid_h() {
            for gx in 0..fast.field.grid_w() {
                let (ty0, ty1) = consumer.tile_range(gy, 40 / 8);
                let (tx0, tx1) = consumer.tile_range(gx, 48 / 8);
                let pixels = ((ty1 - ty0) * (tx1 - tx0) * 64) as u32;
                assert!(pixels > 0);
                let err = fast.errors[gy * fast.field.grid_w() + gx];
                assert_eq!(err, 255 * pixels, "field ({gy},{gx})");
            }
        }
        assert_eq!(fast.total_error, 255 * fast.total_pixels);
    }

    #[test]
    fn estimator_trait_reports_error() {
        let img = textured(24, 24);
        let rfbme = Rfbme::new(rf_844(), SearchParams { radius: 2, step: 1 });
        let res = MotionEstimator::estimate(&rfbme, &img, &img);
        assert_eq!(res.total_error, Some(0));
        assert_eq!(MotionEstimator::name(&rfbme), "RFBME");
        assert!(res.ops > 0);
    }
}
