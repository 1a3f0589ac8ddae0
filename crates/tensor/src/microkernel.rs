//! The register-blocked [`MR`]`×`[`NR`] fused-multiply-add micro-kernel, in
//! its two operand forms.
//!
//! One invocation computes a full `MR × NR` tile of `A·B` for one depth
//! block, keeping all `MR·NR` partial sums in an accumulator array that
//! lives in registers for the whole depth loop. `NR` is three vector
//! registers ([`crate::F32_LANES`]): with `MR = 4` the tile is 12
//! accumulators, plus 3 for the `B` row and 1 for the `A` broadcast — 16
//! `zmm` of AVX-512's 32 (4×48), or exactly AVX2's 16 `ymm` (4×24). 12
//! independent chains cover the FMA latency × 2 ports.
//!
//! `A` always arrives as a kernel-ordered panel from [`crate::pack`].
//! [`microkernel`] reads `B` from a packed panel too (the GEMM driver);
//! [`microkernel_taps`] reads each depth step's `NR` values at an offset
//! into a padded input buffer (the direct convolution, which packs no `B`
//! at all). Both run [`rank1`] per depth step — one `fmac` chain over the
//! depth index per `(i, j)`, from zero — hence the same bits, at either
//! width.
//!
//! **What it compiles to.** Per depth step, 3 `vmovups` of `B`, 4
//! `vbroadcastss` of `A` and 12 `vfmadd231ps` on `zmm` (on `ymm` for an
//! AVX2-only target), no stack traffic (`objdump -d`: the depth loops of
//! `conv_tiles` and `gemm_packed`) — FMA-bound at 6 cycles a step. The
//! `zmm` form needs `.cargo/config.toml`'s `-prefer-256-bit`: LLVM's
//! default AVX-512 tuning sizes every vector for `ymm`. The form is fragile
//! *per tile shape and per target*; measured on an AVX-512 host:
//! * at 256-bit preference, 4×24 was the shape that stayed vector; with
//!   `mul_add`, 4×16 compiled the taps form but took the packed form to 13
//!   GMAC/s, and 8×16, 8×32 and a flat `[f32; MR*NR]` accumulator walked
//!   with `chunks_exact_mut(NR).zip(..)` went scalar;
//! * with the flag, 4×24 got slower (1.5 `zmm` a row, 8 chains:
//!   `cut_storm_deep`'s `cnn.prefix.busy_us` 267 → 306 µs), 8×32 still
//!   compiled to 63 `ymm` FMAs, and 4×64 measured no better than 4×48.
//!
//! Read the disassembly after any edit.
//!
//! The kernel is branch-free over ragged edges: packing zero-pads partial
//! `A` panels (and `B` panels in the GEMM driver), so partial tiles cost a
//! few wasted lanes instead of a second code path; the caller stores only
//! the valid region of the returned tile.

// lint: hot-path

use crate::pack::{MR, NR};

/// `a·b + c`, fused where the target has an FMA unit (`f32::mul_add`
/// without one is a libm call per MAC). Chosen at build time from the
/// platform and called by [`rank1`] alone, so each build is self-consistent.
#[inline(always)]
fn fmac(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// One depth step of either kernel: `acc[i][j] = fmac(ap[i], bp[j], acc[i][j])`.
#[inline(always)]
fn rank1(acc: &mut [[f32; NR]; MR], ap: &[f32], bp: &[f32]) {
    for i in 0..MR {
        let ai = ap[i];
        let row = &mut acc[i];
        for j in 0..NR {
            row[j] = fmac(ai, bp[j], row[j]);
        }
    }
}

/// Computes one full `MR × NR` tile of `A·B` over a `kc`-deep block.
///
/// `a_panel` is `kc` groups of `MR` values (`a_panel[p*MR + i]`), `b_panel`
/// `kc` groups of `NR` values (`b_panel[p*NR + j]`); both come from
/// [`crate::pack`]. The tile starts from zero — the caller accumulates it
/// into `C`.
#[inline]
pub(crate) fn microkernel(kc: usize, a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in a_panel[..kc * MR]
        .chunks_exact(MR)
        .zip(b_panel[..kc * NR].chunks_exact(NR))
    {
        rank1(&mut acc, ap, bp);
    }
    acc
}

/// Accumulates the valid `mr × nr` region of a micro-kernel tile into `C`.
///
/// `c` is row-major with leading dimension `ldc`; the tile lands at
/// `(i0, j0)`. Split out from the kernel so the store path (which touches
/// `C` once per depth *block*, not per depth step) stays simple.
#[inline]
pub(crate) fn add_tile(
    tile: &[[f32; NR]; MR],
    c: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for (i, row) in tile.iter().enumerate().take(mr) {
        let dst = &mut c[(i0 + i) * ldc + j0..(i0 + i) * ldc + j0 + nr];
        for (d, s) in dst.iter_mut().zip(row) {
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
/// the taps stand for, hence the same bits.
///
/// # Panics
///
/// Panics when a tap's `NR`-wide window leaves `b`.
#[inline]
pub(crate) fn microkernel_taps(a_panel: &[f32], taps: &[usize], b: &[f32]) -> [[f32; NR]; MR] {
    debug_assert_eq!(a_panel.len(), taps.len() * MR);
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, &tap) in a_panel.chunks_exact(MR).zip(taps) {
        rank1(&mut acc, ap, &b[tap..tap + NR]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a_block, pack_b_block, MatRef};

    /// Full-mantissa operands: a product of two of them is not an `f32`, so
    /// a fused and an unfused multiply-add of them round differently.
    fn operands(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|v| (((v * 37 + salt * 11) % 101) as f32 - 50.0) * 0.013)
            .collect()
    }

    /// What either kernel must return for `(i, j)`: one `fmac` chain over
    /// the depth index, from zero.
    fn chain(kc: usize, a: impl Fn(usize) -> f32, b: impl Fn(usize) -> f32) -> f32 {
        (0..kc).fold(0.0, |acc, p| fmac(a(p), b(p), acc))
    }

    #[test]
    fn microkernel_matches_schoolbook_tile() {
        let kc = 9;
        let a = operands(kc * MR, 1);
        let b = operands(kc * NR, 2);
        let tile = microkernel(kc, &a, &b);
        for i in 0..MR {
            for j in 0..NR {
                let want = chain(kc, |p| a[p * MR + i], |p| b[p * NR + j]);
                assert_eq!(tile[i][j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn ragged_panels_match_the_scalar_chain_and_pad_with_zeros() {
        // 3 of MR rows, NR − 5 of NR columns: the packers pad, the kernel
        // runs the full tile.
        let (m, n, kc) = (MR - 1, NR - 5, 7);
        let a = operands(m * kc, 3);
        let b = operands(kc * n, 4);
        let mut a_panel = vec![f32::NAN; MR * kc];
        let mut b_panel = vec![f32::NAN; NR * kc];
        pack_a_block(MatRef::new(&a, kc, 1), m, 0, kc, &mut a_panel);
        pack_b_block(MatRef::new(&b, n, 1), 0, kc, 0, n, &mut b_panel);
        let tile = microkernel(kc, &a_panel, &b_panel);
        for i in 0..MR {
            for j in 0..NR {
                let want = if i < m && j < n {
                    chain(kc, |p| a[i * kc + p], |p| b[p * n + j])
                } else {
                    0.0
                };
                assert_eq!(tile[i][j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn taps_form_matches_the_scalar_chain_across_grid_rows() {
        // A 3×3 window over two planes of pitch 7 < NR: the NR lanes of one
        // tap run through several grid rows (and into the next plane).
        let (pitch, rows, planes) = (7, 6, 2);
        let buf = operands(planes * rows * pitch + NR, 5);
        let taps: Vec<usize> = (0..planes * 9)
            .map(|p| (p / 9) * rows * pitch + (p % 9 / 3) * pitch + p % 3)
            .collect();
        let a = operands(taps.len() * MR, 6);
        let start = 3; // the tile's lane 0 sits mid-row
        let tile = microkernel_taps(&a, &taps, &buf[start..]);
        for i in 0..MR {
            for j in 0..NR {
                let want = chain(taps.len(), |p| a[p * MR + i], |p| buf[start + taps[p] + j]);
                assert_eq!(tile[i][j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
        // And the packed form over the panel those taps stand for.
        let b_panel: Vec<f32> = taps
            .iter()
            .flat_map(|&t| buf[start + t..][..NR].iter().copied())
            .collect();
        assert_eq!(tile, microkernel(taps.len(), &a, &b_panel));
    }

    #[test]
    fn add_tile_writes_only_valid_region() {
        let mut tile = [[0.0f32; NR]; MR];
        for (i, t) in tile.iter_mut().flatten().enumerate() {
            *t = i as f32;
        }
        let ldc = 5;
        let mut c = vec![1.0f32; 4 * ldc];
        add_tile(&tile, &mut c, ldc, 1, 2, 2, 3);
        for (idx, v) in c.iter().enumerate() {
            let (r, col) = (idx / ldc, idx % ldc);
            let expect = if (1..3).contains(&r) && (2..5).contains(&col) {
                1.0 + tile[r - 1][col - 2]
            } else {
                1.0
            };
            assert_eq!(*v, expect, "c[{r}][{col}]");
        }
    }
}
