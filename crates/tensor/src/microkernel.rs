//! The register-blocked [`MR`]`×`[`NR`] micro-kernel, in its two operand
//! forms.
//!
//! One invocation computes a full `MR × NR` tile of `A·B` for one depth
//! block, keeping all `MR·NR` partial sums in an accumulator array that
//! lives in registers for the whole depth loop. With `MR = 4`, `NR = 16`
//! the tile is 64 `f32` accumulators — 8 YMM registers under AVX2, leaving
//! room for the B row and the A broadcasts: every depth step issues `MR`
//! independent 16-wide multiply-adds with no loads from `C`.
//!
//! `A` always arrives as a kernel-ordered panel from [`crate::pack`].
//! [`microkernel`] reads `B` from a packed panel too (the GEMM driver);
//! [`microkernel_taps`] reads each depth step's `NR` values at an offset
//! into a padded input buffer (the direct convolution, which packs no `B`
//! at all). Both run the same arithmetic in the same order.
//!
//! **What it compiles to.** The nested `[[f32; NR]; MR]` accumulator with
//! `row[j] += ai * bp[j]` becomes `ymm` `vmulps` + `vaddps` — a separate
//! multiply and add, not an FMA: Rust never contracts `a*b + c`, and the
//! disassembled serving benchmark counts 0 `vfmadd`. The tile's ceiling is
//! therefore the mul+add port limit (23–27 GMAC/s measured on the
//! development host), half the FMA units' rate. The form is fragile in the
//! other direction as well: a flat `[f32; MR*NR]` accumulator walked with
//! `chunks_exact_mut(NR).zip(..)` compiled to scalar code (1.5 GMAC/s).
//! `f32::mul_add` would need exactly such a re-shaping *and* changes every
//! output bit, so it is left to a change of its own.
//!
//! The kernel is branch-free over ragged edges: packing zero-pads partial
//! `A` panels (and `B` panels in the GEMM driver), so partial tiles cost a
//! few wasted lanes instead of a second code path; the caller stores only
//! the valid region of the returned tile.

// lint: hot-path

use crate::pack::{MR, NR};

/// Computes one full `MR × NR` tile of `A·B` over a `kc`-deep block.
///
/// `a_panel` is `kc` groups of `MR` values (`a_panel[p*MR + i]`), `b_panel`
/// `kc` groups of `NR` values (`b_panel[p*NR + j]`); both come from
/// [`crate::pack`]. Returns the tile row-major (`tile[i*NR + j]`), starting
/// from zero — the caller accumulates it into `C`.
#[inline]
pub(crate) fn microkernel(kc: usize, a_panel: &[f32], b_panel: &[f32]) -> [f32; MR * NR] {
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in a_panel[..kc * MR]
        .chunks_exact(MR)
        .zip(b_panel[..kc * NR].chunks_exact(NR))
    {
        for i in 0..MR {
            let ai = ap[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += ai * bp[j];
            }
        }
    }
    let mut out = [0.0f32; MR * NR];
    for i in 0..MR {
        out[i * NR..(i + 1) * NR].copy_from_slice(&acc[i]);
    }
    out
}

/// Accumulates the valid `mr × nr` region of a micro-kernel tile into `C`.
///
/// `c` is row-major with leading dimension `ldc`; the tile lands at
/// `(i0, j0)`. Split out from the kernel so the store path (which touches
/// `C` once per depth *block*, not per depth step) stays simple.
#[inline]
pub(crate) fn add_tile(
    tile: &[f32; MR * NR],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let dst = &mut c[(i0 + i) * ldc + j0..(i0 + i) * ldc + j0 + nr];
        let src = &tile[i * NR..i * NR + nr];
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// [`microkernel`] for the direct convolution: depth step `p` reads its
/// [`NR`] `B` values at `b[taps[p]..][..NR]` — one contiguous load from the
/// padded input buffer instead of a packed panel row. The depth is
/// `taps.len()`; `a_panel` holds that many groups of `MR` weights.
///
/// Same operands in the same order as [`microkernel`] over the im2col rows
/// the taps stand for, hence the same bits. Returns the tile as rows.
///
/// # Panics
///
/// Panics when a tap's `NR`-wide window leaves `b`.
#[inline]
pub(crate) fn microkernel_taps(a_panel: &[f32], taps: &[usize], b: &[f32]) -> [[f32; NR]; MR] {
    debug_assert_eq!(a_panel.len(), taps.len() * MR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, &tap) in a_panel.chunks_exact(MR).zip(taps) {
        let bp = &b[tap..tap + NR];
        for i in 0..MR {
            let ai = ap[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += ai * bp[j];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_matches_schoolbook_tile() {
        let kc = 9;
        let a: Vec<f32> = (0..kc * MR).map(|v| (v % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..kc * NR).map(|v| (v % 5) as f32 * 0.5 - 1.0).collect();
        let tile = microkernel(kc, &a, &b);
        for i in 0..MR {
            for j in 0..NR {
                let want: f32 = (0..kc).map(|p| a[p * MR + i] * b[p * NR + j]).sum();
                assert!(
                    (tile[i * NR + j] - want).abs() < 1e-4,
                    "({i},{j}): {} vs {want}",
                    tile[i * NR + j]
                );
            }
        }
    }

    #[test]
    fn add_tile_writes_only_valid_region() {
        let mut tile = [0.0f32; MR * NR];
        for (i, t) in tile.iter_mut().enumerate() {
            *t = i as f32;
        }
        let ldc = 5;
        let mut c = vec![1.0f32; 4 * ldc];
        add_tile(&tile, &mut c, ldc, 1, 2, 2, 3);
        for (idx, v) in c.iter().enumerate() {
            let (r, col) = (idx / ldc, idx % ldc);
            let expect = if (1..3).contains(&r) && (2..5).contains(&col) {
                1.0 + tile[(r - 1) * NR + (col - 2)]
            } else {
                1.0
            };
            assert_eq!(*v, expect, "c[{r}][{col}]");
        }
    }
}
