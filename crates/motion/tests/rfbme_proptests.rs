//! Property tests for the RFBME fast path: the dense search must return,
//! for every receptive field, a motion vector whose SAD *cost* equals the
//! exhaustive search's minimum — and, against the in-tree reference model,
//! the exact same *vectors* (smaller error, then smaller displacement, then
//! row-major order) on any geometry.

use eva2_motion::rfbme::{RfGeometry, Rfbme, RfbmeResult, RfbmeScratch, SearchParams};
use eva2_motion::sad::sad_window;
use eva2_tensor::GrayImage;
use proptest::prelude::*;

/// Tile index range `[t0, t1)` of whole tiles covered by receptive field
/// `a` along one axis — reimplemented independently of the library (same
/// rule: partial tiles are ignored, §III-A).
fn tile_range(rf: RfGeometry, a: usize, tiles: usize) -> (usize, usize) {
    let s = rf.stride as isize;
    let origin = a as isize * s - rf.padding as isize;
    let end = origin + rf.size as isize;
    let t0 = origin.div_euclid(s) + if origin.rem_euclid(s) != 0 { 1 } else { 0 };
    let t1 = end.div_euclid(s);
    (
        (t0.max(0) as usize).min(tiles),
        (t1.max(0) as usize).min(tiles),
    )
}

/// Exhaustive per-receptive-field minimum SAD, straight from the paper's
/// definition with no reuse, no bounds, no early exit: for every offset,
/// sum the SADs of every whole tile the field covers; take the minimum over
/// offsets whose windows stay fully in bounds.
fn exhaustive_min_errors(
    rf: RfGeometry,
    params: SearchParams,
    key: &GrayImage,
    new: &GrayImage,
) -> Vec<u32> {
    let s = rf.stride.max(1);
    let (h, w) = (new.height(), new.width());
    let (tiles_y, tiles_x) = (h / s, w / s);
    let grid_h = rf.grid_len(h);
    let grid_w = rf.grid_len(w);
    let axis = params.offsets();
    let mut errors = Vec::with_capacity(grid_h * grid_w);
    for ay in 0..grid_h {
        for ax in 0..grid_w {
            let (ty0, ty1) = tile_range(rf, ay, tiles_y);
            let (tx0, tx1) = tile_range(rf, ax, tiles_x);
            let mut best = u32::MAX;
            if ty0 < ty1 && tx0 < tx1 {
                for &dy in &axis {
                    for &dx in &axis {
                        let mut sum = 0u64;
                        let mut valid = true;
                        'tiles: for ty in ty0..ty1 {
                            for tx in tx0..tx1 {
                                let ky = (ty * s) as isize + dy;
                                let kx = (tx * s) as isize + dx;
                                if ky < 0
                                    || kx < 0
                                    || ky + s as isize > h as isize
                                    || kx + s as isize > w as isize
                                {
                                    valid = false;
                                    break 'tiles;
                                }
                                sum += sad_window(
                                    new,
                                    key,
                                    (ty * s, tx * s),
                                    (ky as usize, kx as usize),
                                    s,
                                    s,
                                ) as u64;
                            }
                        }
                        if valid {
                            best = best.min(sum.min(u32::MAX as u64 - 1) as u32);
                        }
                    }
                }
            }
            // Fields with no valid offset report zero error (no evidence).
            errors.push(if best == u32::MAX { 0 } else { best });
        }
    }
    errors
}

/// Asserts the returned vectors *achieve* the returned errors: recompute
/// each field's SAD at its reported vector and compare. This is what makes
/// "ties may differ in vector, never in cost" checkable — whatever vector
/// the search picked must cost exactly the reported (minimal) error.
fn assert_vectors_achieve_errors(
    rf: RfGeometry,
    key: &GrayImage,
    new: &GrayImage,
    result: &RfbmeResult,
) {
    let s = rf.stride.max(1);
    let (h, w) = (new.height(), new.width());
    let (tiles_y, tiles_x) = (h / s, w / s);
    for gy in 0..result.field.grid_h() {
        for gx in 0..result.field.grid_w() {
            let err = result.errors[gy * result.field.grid_w() + gx];
            let v = result.field.get(gy, gx);
            let (dy, dx) = (v.dy as isize, v.dx as isize);
            let (ty0, ty1) = tile_range(rf, gy, tiles_y);
            let (tx0, tx1) = tile_range(rf, gx, tiles_x);
            if ty0 >= ty1 || tx0 >= tx1 {
                assert_eq!(err, 0, "empty field ({gy},{gx}) must report zero");
                continue;
            }
            let mut sum = 0u64;
            let mut valid = true;
            for ty in ty0..ty1 {
                for tx in tx0..tx1 {
                    let ky = (ty * s) as isize + dy;
                    let kx = (tx * s) as isize + dx;
                    if ky < 0
                        || kx < 0
                        || ky + s as isize > h as isize
                        || kx + s as isize > w as isize
                    {
                        valid = false;
                    } else {
                        sum += sad_window(
                            new,
                            key,
                            (ty * s, tx * s),
                            (ky as usize, kx as usize),
                            s,
                            s,
                        ) as u64;
                    }
                }
            }
            if valid {
                assert_eq!(
                    sum.min(u32::MAX as u64 - 1) as u32,
                    err,
                    "field ({gy},{gx}): reported vector does not achieve reported error"
                );
            } else {
                // Only the zero vector of a never-valid field may be out of
                // bounds, and those fields report zero error.
                assert_eq!((dy, dx), (0, 0), "invalid vector at ({gy},{gx})");
                assert_eq!(err, 0);
            }
        }
    }
}

fn frame_strategy(h: usize, w: usize) -> impl Strategy<Value = GrayImage> {
    proptest::collection::vec(0u8..=255, h * w).prop_map(move |v| GrayImage::from_vec(h, w, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn early_exit_search_cost_equals_exhaustive(
        key in frame_strategy(24, 24),
        noise_seed in 0u64..1000,
        dy in -3isize..=3,
        dx in -3isize..=3,
        radius in 1usize..=4,
        step in 1usize..=2,
    ) {
        // A translated + lightly corrupted frame: realistic motion with
        // occlusion-like disturbances that create SAD ties and near-ties.
        let mut new = key.translate(dy, dx, 77);
        let mut state = noise_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..24 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let y = (state >> 33) as usize % 24;
            let x = (state >> 13) as usize % 24;
            let v = (state >> 5) as u8;
            new.set(y, x, v);
        }
        let rf = RfGeometry { size: 8, stride: 4, padding: 2 };
        let params = SearchParams { radius, step };
        let rfbme = Rfbme::new(rf, params);
        let fast = rfbme.estimate(&key, &new);
        let exhaustive = exhaustive_min_errors(rf, params, &key, &new);
        prop_assert_eq!(&fast.errors, &exhaustive, "per-field minimum SAD costs differ");
        assert_vectors_achieve_errors(rf, &key, &new, &fast);
        // The in-tree reference agrees wholesale — vectors included.
        let reference = rfbme.estimate_reference(&key, &new);
        prop_assert_eq!(&fast.errors, &reference.errors);
        prop_assert_eq!(fast.total_error, reference.total_error);
        prop_assert_eq!(fast.total_pixels, reference.total_pixels);
        prop_assert_eq!(&fast.field, &reference.field, "vector fields differ");
    }

    #[test]
    fn high_motion_and_ragged_geometry_match_reference(
        key in frame_strategy(26, 22),
        dy in -9isize..=9,
        dx in -9isize..=9,
        size in 6usize..=14,
        stride in 3usize..=6,
        padding in 0usize..=4,
    ) {
        // Large motion (up to the window edge and beyond) over frames that
        // are NOT multiples of the stride — tile grids with leftover pixels
        // and clipped receptive fields at every border.
        let new = key.translate(dy, dx, 201);
        let rf = RfGeometry { size, stride, padding };
        let rfbme = Rfbme::new(rf, SearchParams { radius: 7, step: 1 });
        let fast = rfbme.estimate(&key, &new);
        let reference = rfbme.estimate_reference(&key, &new);
        prop_assert_eq!(&fast.errors, &reference.errors);
        prop_assert_eq!(fast.total_error, reference.total_error);
        prop_assert_eq!(fast.total_pixels, reference.total_pixels);
        prop_assert_eq!(&fast.field, &reference.field, "vector fields differ");
    }

    #[test]
    fn flat_frames_maximise_ties_but_never_change_cost(
        level_a in 0u8..=255,
        level_b in 0u8..=255,
        radius in 1usize..=3,
    ) {
        // Constant frames make *every* in-bounds offset an exact tie — the
        // adversarial case for tie-sensitive pruning.
        let key = GrayImage::filled(20, 20, level_a);
        let new = GrayImage::filled(20, 20, level_b);
        let rf = RfGeometry { size: 8, stride: 4, padding: 0 };
        let params = SearchParams { radius, step: 1 };
        let rfbme = Rfbme::new(rf, params);
        let fast = rfbme.estimate(&key, &new);
        let exhaustive = exhaustive_min_errors(rf, params, &key, &new);
        prop_assert_eq!(&fast.errors, &exhaustive);
        assert_vectors_achieve_errors(rf, &key, &new, &fast);
        // All-ties is the adversarial case for tie-sensitive pruning: the
        // kept vectors must still match the reference exactly.
        let reference = rfbme.estimate_reference(&key, &new);
        prop_assert_eq!(&fast.field, &reference.field, "tie-break divergence");
    }
}

/// Cases `any_geometry_matches_reference` draws: 256, or what
/// `EVA2_RFBME_CASES` says (CI runs 20,000 in the release profile, where
/// the vector kernels exist).
fn geometry_cases() -> u32 {
    std::env::var("EVA2_RFBME_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(geometry_cases()))]

    #[test]
    fn any_geometry_matches_reference(
        h in 1usize..=40,
        w in 1usize..=44,
        seed in 0u64..1_000_000,
        dy in -6isize..=6,
        dx in -6isize..=6,
        stride in prop_oneof![Just(4usize), Just(8usize), Just(16usize), 1usize..=13],
        size in 1usize..=30,
        padding in 0usize..=20,
        radius in 0usize..=16,
        step in 1usize..=4,
        dirty_stride in 1usize..=9,
        dirty_radius in 0usize..=5,
        sibling_size in 1usize..=30,
        sibling_padding in 0usize..=20,
    ) {
        // Everything the dense search specialises on, drawn at random:
        // strides with and without a fixed-width kernel, steps that do not
        // divide the radius, non-square frames that are not a multiple of
        // the stride or are smaller than one tile, padding beyond the
        // stride, receptive fields narrower than a tile, and radii whose
        // 1–1,089 offset lanes fill one to 69 16-lane blocks (the served
        // radius 8 has 289 lanes in 19 blocks, radius 4 has 81 in 6).
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let key = GrayImage::from_vec(h, w, (0..h * w).map(|_| next() as u8).collect());
        let mut new = key.translate(dy, dx, 77);
        for _ in 0..(h * w / 16) {
            let (y, x, v) = (next() % h, next() % w, next() as u8);
            new.set(y, x, v);
        }
        let rf = RfGeometry { size, stride, padding };
        let rfbme = Rfbme::new(rf, SearchParams { radius, step });
        // A scratch left dirty by another geometry — another stride and
        // lane count, so another layout of every buffer — and another key
        // image must not show through.
        let mut scratch = RfbmeScratch::new();
        let other = RfGeometry { size: 2 * dirty_stride, stride: dirty_stride, padding: 1 };
        let _ = Rfbme::new(other, SearchParams { radius: dirty_radius, step: 1 })
            .estimate_with(&new, &key, &mut scratch);
        let fast = rfbme.estimate_with(&key, &new, &mut scratch);
        let reference = rfbme.estimate_reference(&key, &new);
        prop_assert_eq!(&fast.errors, &reference.errors);
        prop_assert_eq!(fast.total_error, reference.total_error);
        prop_assert_eq!(fast.total_pixels, reference.total_pixels);
        prop_assert_eq!(&fast.field, &reference.field, "vector fields differ");
        // A scratch left by a sibling geometry: the same stride, window and
        // frame size, so the same lane count and ranks, but another field
        // size and padding, so other admission masks — what a geometry
        // cache keyed on too little would wrongly reuse.
        let mut scratch = RfbmeScratch::new();
        let sibling = RfGeometry { size: sibling_size, stride, padding: sibling_padding };
        let _ = Rfbme::new(sibling, SearchParams { radius, step })
            .estimate_with(&new, &key, &mut scratch);
        let again = rfbme.estimate_with(&key, &new, &mut scratch);
        prop_assert_eq!(&again.errors, &reference.errors);
        prop_assert_eq!(again.total_pixels, reference.total_pixels);
        prop_assert_eq!(&again.field, &reference.field, "vector fields differ after a sibling");
        // Cost is the geometry's, not the frames': the static count is
        // exact, and swapping the frames does not move it.
        prop_assert_eq!(fast.ops(), rfbme.ops_bound(h, w));
        prop_assert_eq!(rfbme.estimate(&new, &key).ops(), fast.ops());
    }
}

#[test]
fn panning_scene_recovers_translation_with_exhaustive_cost() {
    // Deterministic panning case: an 8-frame rightward pan at 2 px/frame.
    // Every frame's estimate must (a) cost exactly the exhaustive minimum
    // and (b) point the interior vectors at the true motion.
    let textured = |shift: usize| {
        GrayImage::from_fn(48, 48, |y, x| {
            let xs = x + shift;
            (((y * 13 + xs * 29) ^ (y * xs / 5)) % 251) as u8
        })
    };
    let rf = RfGeometry {
        size: 16,
        stride: 8,
        padding: 0,
    };
    let params = SearchParams { radius: 6, step: 1 };
    let rfbme = Rfbme::new(rf, params);
    for t in 1..8usize {
        let key = textured(0);
        let new = textured(2 * t);
        if 2 * t > params.radius {
            break; // beyond the search window the estimate is unconstrained
        }
        let fast = rfbme.estimate(&key, &new);
        let exhaustive = exhaustive_min_errors(rf, params, &key, &new);
        assert_eq!(fast.errors, exhaustive, "pan {t}");
        assert_vectors_achieve_errors(rf, &key, &new, &fast);
        // textured(x + shift) slides the pattern left, so the gather
        // convention ("content at p came from p + v") gives v = +shift.
        let expect = 2.0 * t as f32;
        let mut hits = 0;
        let mut total = 0;
        // Skip the leftmost and rightmost columns: their rightward-offset
        // windows leave the frame, so the true offset is not searchable.
        for gy in 0..fast.field.grid_h() {
            for gx in 1..fast.field.grid_w() - 1 {
                total += 1;
                let v = fast.field.get(gy, gx);
                if v.dy == 0.0 && v.dx == expect {
                    hits += 1;
                }
            }
        }
        assert!(
            hits * 10 >= total * 8,
            "pan {t}: only {hits}/{total} fields found ({expect})"
        );
    }
}
