//! Panel packing for the register-blocked GEMM micro-kernel.
//!
//! The micro-kernel ([`crate::microkernel`]) consumes its operands in a
//! fixed *kernel order*: an A panel interleaves [`MR`] rows so that the
//! `MR` values needed at depth step `p` are contiguous (`panel[p*MR + i]`),
//! and a B panel interleaves [`NR`] columns the same way
//! (`panel[p*NR + j]`). Packing happens once per operand element; the hot
//! loop then runs entirely over unit-stride, cache-resident scratch.
//!
//! Both packers take *strided* views (`element(r, c) = data[r*rs + c*cs]`),
//! which is how one driver serves all three transpose variants: `gemm_nt`
//! packs `Bᵀ` and `gemm_tn` packs `Aᵀ` by swapping the stride pair — no
//! transposed copy of the input is ever materialised.
//!
//! Ragged edges are zero-padded to full `MR`/`NR` panels, so the
//! micro-kernel never sees a partial tile; the driver simply stores only
//! the valid `mr × nr` region of each accumulator tile back to `C`.

/// Micro-kernel tile height: rows of `C` computed per kernel invocation.
pub const MR: usize = 4;

/// Micro-kernel tile width: columns of `C` computed per kernel invocation,
/// three vector registers per tile row — 48 (three `zmm`) on an AVX-512
/// target, 24 (three `ymm`) otherwise; see [`crate::F32_LANES`]. Either way
/// the tile's 12 accumulators, 3 `B` loads and 1 broadcast take 16
/// registers: half of AVX-512's 32, all of AVX2's 16.
pub const NR: usize = 3 * crate::F32_LANES;
const _: () = assert!(NR.is_multiple_of(crate::F32_LANES));

/// A read-only strided matrix view: `element(r, c) = data[r*rs + c*cs]`.
///
/// `rs`/`cs` are the row and column strides in elements. A row-major
/// `R × C` buffer is `(rs, cs) = (C, 1)`; its transpose is `(1, C)`.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    pub(crate) fn new(data: &'a [f32], rs: usize, cs: usize) -> Self {
        Self { data, rs, cs }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Packs rows `0..m` of `a`'s depth block `kb..kb+kc` into MR-row panels.
///
/// Output layout: panel `ip` (rows `ip*MR..ip*MR+MR`) occupies
/// `buf[ip*MR*kc..][..MR*kc]`, stored as `kc` groups of `MR` values —
/// `buf[panel + p*MR + i] = a(ip*MR + i, kb + p)`, zero for rows `>= m`.
///
/// Every element of the claimed `buf` region is overwritten (valid data or
/// explicit zero padding), so the buffer never needs pre-clearing.
pub(crate) fn pack_a_block(a: MatRef<'_>, m: usize, kb: usize, kc: usize, buf: &mut [f32]) {
    let m_panels = m.div_ceil(MR);
    debug_assert!(buf.len() >= m_panels * MR * kc);
    for ip in 0..m_panels {
        let i0 = ip * MR;
        let mr = MR.min(m - i0);
        let panel = &mut buf[ip * MR * kc..(ip + 1) * MR * kc];
        for (p, group) in panel.chunks_exact_mut(MR).enumerate() {
            for (i, slot) in group.iter_mut().enumerate() {
                *slot = if i < mr { a.at(i0 + i, kb + p) } else { 0.0 };
            }
        }
    }
}

/// Packs columns `jc..jc+nc` of `b`'s depth block `kb..kb+kc` into NR-column
/// panels: `buf[jp*NR*kc + p*NR + j] = b(kb + p, jc + jp*NR + j)`, zero for
/// columns past `jc + nc`. Unit-stride rows (`cs == 1`) copy with
/// `copy_from_slice`.
///
/// Like [`pack_a_block`], the claimed region is fully overwritten.
pub(crate) fn pack_b_block(
    b: MatRef<'_>,
    kb: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    buf: &mut [f32],
) {
    let n_panels = nc.div_ceil(NR);
    debug_assert!(buf.len() >= n_panels * NR * kc);
    for jp in 0..n_panels {
        let j0 = jc + jp * NR;
        let nr = NR.min(jc + nc - j0);
        let panel = &mut buf[jp * NR * kc..(jp + 1) * NR * kc];
        for (p, group) in panel.chunks_exact_mut(NR).enumerate() {
            if b.cs == 1 {
                let row = (kb + p) * b.rs + j0;
                group[..nr].copy_from_slice(&b.data[row..row + nr]);
            } else {
                for (j, slot) in group.iter_mut().take(nr).enumerate() {
                    *slot = b.at(kb + p, j0 + j);
                }
            }
            group[nr..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_interleaves_and_pads() {
        // 3×5 row-major matrix, one depth block covering all of K.
        let a: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let view = MatRef::new(&a, 5, 1);
        let mut buf = vec![f32::NAN; MR * 5];
        pack_a_block(view, 3, 0, 5, &mut buf);
        for p in 0..5 {
            for i in 0..MR {
                let want = if i < 3 { a[i * 5 + p] } else { 0.0 };
                assert_eq!(buf[p * MR + i], want, "p={p} i={i}");
            }
        }
    }

    #[test]
    fn pack_b_handles_strided_and_ragged() {
        // 4×6 row-major matrix viewed transposed (6×4 product operand).
        let b: Vec<f32> = (0..24).map(|v| (v as f32) * 0.5).collect();
        let bt = MatRef::new(&b, 1, 6); // element(p, j) = b[j*6 + p]
        let (k, n) = (6, 4);
        let mut buf = vec![f32::NAN; NR * k];
        pack_b_block(bt, 0, k, 0, n, &mut buf);
        for p in 0..k {
            for j in 0..NR {
                let want = if j < n { b[j * 6 + p] } else { 0.0 };
                assert_eq!(buf[p * NR + j], want, "p={p} j={j}");
            }
        }
    }

    #[test]
    fn pack_b_partial_depth_block() {
        let b: Vec<f32> = (0..40).map(|v| v as f32).collect(); // 5×8
        let view = MatRef::new(&b, 8, 1);
        let mut buf = vec![f32::NAN; NR * 2];
        pack_b_block(view, 3, 2, 0, 8, &mut buf);
        for p in 0..2 {
            for j in 0..8 {
                assert_eq!(buf[p * NR + j], b[(3 + p) * 8 + j]);
            }
            for j in 8..NR {
                assert_eq!(buf[p * NR + j], 0.0);
            }
        }
    }
}
