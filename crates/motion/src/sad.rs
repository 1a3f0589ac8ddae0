//! Sum-of-absolute-difference kernels over contiguous byte runs.
//!
//! The dense RFBME search ([`crate::rfbme`]) lays its operands out so that
//! every tile SAD is a SAD of two *contiguous* `stride²`-byte runs; the
//! kernels here are written so the compiler turns such a run into wide
//! vector code without intrinsics. [`sad_chunk`] is one fixed-width block:
//! it writes the absolute differences into a byte array and then sums that
//! array, which LLVM lowers (with `target-cpu=native` on x86-64) to one
//! `vpsadbw` per block — on `ymm` operands for the 32-byte block, straight
//! from memory. `sad_tile` is a whole tile of side 4, 8 or 16 as
//! straight-line blocks; [`sad_row`] is a run of any length, for every
//! other stride; [`sad_window`] is a 2-D window of a frame, row by row.
//!
//! The forms are fragile. Measured alternatives, so nobody re-tries them
//! blind (48×48 frames, radius 8 at RF 27/8/10 and radius 4 at RF 7/4/2;
//! the search loop's own notes are in [`crate::rfbme`]):
//!
//! * Summing `(a as i32 - b as i32).unsigned_abs()` straight into a `u32`
//!   over 64 contiguous bytes makes LLVM pick a vectorisation factor of 8
//!   and emit eight `movq` + `psadbw xmm` pairs — 0.88× the per-row kernel
//!   it replaced, not the 4× the layout allows.
//! * One `[u8; 64]` block does get `vpsadbw zmm`, but inlined into the
//!   search the differences are stored as two `ymm` halves and reloaded as
//!   one `zmm`: a store-forwarding stall that ran **2.2× slower** than the
//!   per-row kernel. 32-byte blocks have no such reload. (Out of line, as
//!   the search calls it now, the 64-byte block loads its `zmm` straight
//!   from memory and still ran 31.6 µs a call against 26–28.)
//! * `u8::abs_diff` widens through `i32`. In a 32-byte block that is
//!   recognised and becomes `vpsadbw (mem), ymm`. In a 16-byte block
//!   inside the lane loop it is not: the compiler widens sixteen bytes to
//!   sixteen `i32` in a `zmm` and never emits `psadbw` (75 µs a call at
//!   stride 4, slower than the search this replaced). `max − min` stays
//!   in `u8` and gets `vpsadbw xmm` at 16 bytes (33 µs) — but at 32 bytes
//!   the same form merges two blocks into `vpminub`/`vpmaxub`/`vpsubb` and
//!   one `vpsadbw zmm` against zero (32 µs a call at stride 8, against
//!   27–28). So [`sad_chunk`] picks the form by block width.

use eva2_tensor::GrayImage;

/// Sum of absolute differences over the first `N` bytes of two runs.
///
/// The differences go through a `[u8; N]`, computed as `abs_diff` in
/// blocks of 32 bytes and more and as `max − min` in narrower ones, on
/// purpose (see the module docs): those are the forms the compiler lowers
/// to one `psadbw` per block.
///
/// # Panics
///
/// Panics when either slice is shorter than `N`.
#[inline(always)]
pub fn sad_chunk<const N: usize>(a: &[u8], b: &[u8]) -> u32 {
    let (a, b) = (&a[..N], &b[..N]);
    let mut diff = [0u8; N];
    for i in 0..N {
        diff[i] = if N < 32 {
            a[i].max(b[i]) - a[i].min(b[i])
        } else {
            a[i].abs_diff(b[i])
        };
    }
    diff.iter().map(|&d| u32::from(d)).sum()
}

/// Sum of absolute differences between two contiguous `S × S` tiles, for
/// the tile sides the dense search specialises (4, 8, 16): one 16-byte
/// block, or `S² / 32` 32-byte blocks, in straight-line code. `S = 0`
/// compares runs of whatever (equal) length the slices have.
///
/// # Panics
///
/// Panics when either slice is shorter than `S²` bytes.
#[inline(always)]
pub(crate) fn sad_tile<const S: usize>(a: &[u8], b: &[u8]) -> u32 {
    const {
        assert!(
            (S * S).is_multiple_of(32) || S == 4,
            "tile side without a block kernel"
        )
    };
    match S {
        0 => sad_row(a, b),
        4 => sad_chunk::<16>(a, b),
        _ => (0..S * S / 32)
            .map(|i| sad_chunk::<32>(&a[i * 32..], &b[i * 32..]))
            .sum(),
    }
}

/// Sum of absolute differences between two equal-length contiguous byte
/// runs of any length: 8-byte blocks, then a scalar tail. (A 32-byte stage
/// in front was measured: 1.6× faster a call at stride 12, 12 % slower at
/// stride 3, and no served network has either.)
#[inline]
pub fn sad_row(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "sad_row length mismatch");
    let mut acc = 0u32;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (ka, kb) in (&mut ca).zip(&mut cb) {
        acc += sad_chunk::<8>(ka, kb);
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += u32::from(x.abs_diff(y));
    }
    acc
}

/// SAD between an `h × w` window of `new` anchored at `(ny, nx)` and an
/// equally-sized window of `key` anchored at `(ky, kx)`.
///
/// Both windows must lie fully inside their frames (the caller performs the
/// bounds check once per candidate, not per pixel).
#[inline]
pub fn sad_window(
    new: &GrayImage,
    key: &GrayImage,
    (ny, nx): (usize, usize),
    (ky, kx): (usize, usize),
    h: usize,
    w: usize,
) -> u32 {
    debug_assert!(ny + h <= new.height() && nx + w <= new.width());
    debug_assert!(ky + h <= key.height() && kx + w <= key.width());
    let nw = new.width();
    let kw = key.width();
    let nd = new.as_slice();
    let kd = key.as_slice();
    let mut acc = 0u32;
    for row in 0..h {
        let no = (ny + row) * nw + nx;
        let ko = (ky + row) * kw + kx;
        acc += sad_row(&nd[no..no + w], &kd[ko..ko + w]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(h: usize, w: usize) -> GrayImage {
        GrayImage::from_fn(h, w, |y, x| (((y * 31 + x * 17) ^ (y + x * 3)) % 253) as u8)
    }

    fn sad_window_naive(
        new: &GrayImage,
        key: &GrayImage,
        (ny, nx): (usize, usize),
        (ky, kx): (usize, usize),
        h: usize,
        w: usize,
    ) -> u32 {
        let mut acc = 0u32;
        for y in 0..h {
            for x in 0..w {
                let a = new.get(ny + y, nx + x) as i32;
                let b = key.get(ky + y, kx + x) as i32;
                acc += (a - b).unsigned_abs();
            }
        }
        acc
    }

    #[test]
    fn sad_row_matches_scalar() {
        for len in [0usize, 1, 7, 8, 9, 16, 23, 32, 63] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 91 % 251) as u8).collect();
            let expect: u32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs())
                .sum();
            assert_eq!(sad_row(&a, &b), expect, "len {len}");
            match len {
                8 => assert_eq!(sad_chunk::<8>(&a, &b), expect),
                16 => assert_eq!(sad_chunk::<16>(&a, &b), expect),
                32 => assert_eq!(sad_chunk::<32>(&a, &b), expect),
                _ => {}
            }
        }
    }

    #[test]
    fn sad_window_matches_naive() {
        let new = textured(24, 20);
        let key = textured(24, 20).translate(1, 2, 9);
        for (anchor_n, anchor_k, h, w) in [
            ((0, 0), (0, 0), 8, 8),
            ((3, 5), (1, 2), 8, 8),
            ((10, 7), (12, 9), 4, 4),
            ((0, 0), (16, 12), 8, 7),
            ((5, 5), (5, 5), 1, 1),
        ] {
            assert_eq!(
                sad_window(&new, &key, anchor_n, anchor_k, h, w),
                sad_window_naive(&new, &key, anchor_n, anchor_k, h, w),
            );
        }
    }
}
