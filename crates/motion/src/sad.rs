//! Chunked sum-of-absolute-difference kernels.
//!
//! The RFBME diff tile producer's inner loop is a `u8` SAD over a
//! `stride × stride` window — the canonical block-matching kernel. The
//! kernels here operate on row slices in fixed-width chunks so the compiler
//! can keep the accumulation in vector registers (with `target-cpu=native`
//! this lowers to `psadbw` on x86-64): [`sad_chunk`] is one fixed-width
//! chunk, [`sad_row`] a row of any length, [`sad_window`] a 2-D window.

use eva2_tensor::GrayImage;

/// Sum of absolute differences over the first `N` bytes of two rows.
///
/// The fixed trip count is what lets the compiler emit a single `psadbw`
/// for `N` = 4, 8 or 16 — the dense RFBME producer calls this once per
/// tile row.
///
/// # Panics
///
/// Panics when either slice is shorter than `N`.
#[inline(always)]
pub fn sad_chunk<const N: usize>(a: &[u8], b: &[u8]) -> u32 {
    let (a, b) = (&a[..N], &b[..N]);
    let mut s = 0u32;
    for i in 0..N {
        s += (a[i] as i32 - b[i] as i32).unsigned_abs();
    }
    s
}

/// Sum of absolute differences between two equal-length byte rows.
///
/// Accumulates in 8-wide chunks with a scalar tail.
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
        acc += (x as i32 - y as i32).unsigned_abs();
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
        for len in [0usize, 1, 7, 8, 9, 16, 23] {
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
