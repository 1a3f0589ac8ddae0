//! The convolution engine behind `eva2_cnn::Conv2d`: a padded-domain
//! direct convolution for the forward pass, and a packed, register-blocked
//! f32 GEMM over im2col for training.
//!
//! # Why this exists
//!
//! EVA²'s performance story rests on the cost asymmetry between full CNN
//! execution (key frames) and suffix-only execution (predicted frames). For
//! the software reproduction to *measure* that asymmetry honestly, the
//! forward pass must be compute-bound rather than interpreter-bound: key
//! frames — dominated by the prefix convolutions — are the pipeline's
//! critical path, so every GMAC/s left on the table here inflates the
//! apparent AMC savings.
//!
//! # Lowering
//!
//! For an input of shape `C_in × H × W` and a square `K × K` kernel with
//! stride `S` and padding `P`, [`conv2d_forward`] never materialises the
//! `(C_in·K²) × (H_out·W_out)` im2col matrix (9× the input for a 3×3
//! kernel). Instead:
//!
//! * the input is copied **once** into a zero-bordered buffer held in
//!   [`GemmScratch`] — `C_in` planes of `(H+2P) × (W+2P)`; for `S > 1` the
//!   same copy splits every plane into `S²` *phase planes*
//!   (`phase(ry, rx)[y][x] = padded[S·y + ry][S·x + rx]`), which turns the
//!   strided convolution into a stride-1 one over them;
//! * the `C_in·K²` *tap offsets* are built once per call: tap
//!   `p = (ic, ky, kx)` of output `(0, 0)` reads `buf[off[p]]`, and the
//!   same tap of output `(oy, ox)` reads `buf[off[p] + oy·Wp + ox]`, where
//!   `Wp` is the row pitch of a (phase) plane;
//! * the [`MR`]`×`[`NR`] register tile walks the *padded-width* output grid
//!   `j' = oy·Wp + ox`, so every tap's `NR` operands are one contiguous
//!   load `buf[off[p] + j' ..][..NR]` for any tile. Tiles may straddle
//!   output rows; lanes with `ox ≥ W_out` compute values nobody stores
//!   (`(Wp − W_out)/Wp` of the work: 4 % at 48×48 with a 3×3 kernel, 14 %
//!   at 12×12), and the buffer carries `NR` floats of slack so the last
//!   tile's loads stay in bounds;
//! * the store writes only lanes with `ox < W_out`, as `bias + tile`.
//!
//! The weights are packed into `MR`-row kernel-order panels by
//! [`pack_conv_weights`] — once, when the layer is built or its weights
//! change, not per call. A sparse activation is densified first and takes
//! the same road: scattering its non-zeros straight into the zeroed padded
//! buffer measured *slower* than densify + [`conv2d_forward`] (12.3 against
//! 7.1 µs on `tiny_fasterm`'s early-target head, ≈ 735 non-zeros): every
//! non-zero paid the phase-plane index's four integer divisions, where the
//! dense copy walks rows.
//!
//! Each output sees the operands of row `p` of the im2col matrix in the
//! same `p` order, with the same [`KC`] depth blocking, as a bias-prefilled
//! [`gemm_nn`] over [`im2col_into`] would feed it, so the two agree **bit
//! for bit** on every geometry (`direct_conv_bit_identical_to_im2col_gemm`
//! in `eva2-cnn` pins that over random geometries in both build profiles).
//!
//! The backward pass still lowers to GEMM: `∂W = ∂Y · colsᵀ`
//! ([`gemm_nt`]) over [`im2col_into`]'s patch matrix, `∂cols = Wᵀ · ∂Y`
//! ([`gemm_tn`]), and [`col2im_into`] scatter-adds `∂cols` back to `∂X`.
//!
//! # Blocking scheme
//!
//! The direct convolution's loop nest is: for each `NR`-wide tile of the
//! padded grid, for each `MR`-row weight panel, for each [`KC`]-deep block
//! of taps — one micro-kernel run (`microkernel.rs`) with `MR·NR = 96`
//! accumulators in registers, summed across depth blocks in registers and
//! stored once. A tile's operands are `C_in` short runs of `K` input rows,
//! L1-resident while every weight panel streams against them.
//!
//! The micro-kernel is a fused multiply-add — per depth step 12
//! `vfmadd231ps`, FMA-bound at 6 cycles — on `zmm` (`MR·NR = 4·48`) for an
//! AVX-512 target and on `ymm` (4·24) otherwise. In the serving
//! benchmark's traced pass on the development host (2 shared AVX-512
//! vCPUs) the `tiny_faster16` prefix convolutions run at 40–54 GMAC/s
//! with the `zmm` tile, against 26–29 with the `ymm` one, and the
//! 1-channel first layers at 16–18 (13 with `ymm`). What is left is
//! per-tile overhead: a few tens of ns a kernel call, and
//! `store_grid_tile`'s row-straddling path (≈ 8 % of the `tiny_faster16`
//! prefix at `NR = 24`, measured by storing every tile through the
//! fixed-width path; at `NR = 48` a pitch-50 row is barely wider than a
//! tile, so nearly every tile straddles). Inline fixed-width moves in
//! place of its per-run `memcpy` measured *slower*; removing the straddle
//! takes a tile walk anchored to output rows (ROADMAP, "Row-anchored tile
//! walk").
//!
//! The GEMM transpose variants ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]) run
//! one BLIS-style nest: `A` is packed once into `MR`-row kernel-order
//! panels (`pack.rs`); for each [`NC`]-wide column block and `KC`-deep
//! depth block, `B` is packed into `NR`-column panels (`KC × NC × 4 B =
//! 288 KiB`, L2-resident while `A`'s panels stream against it); the inner
//! loops walk `MR × NR` tiles of `C`. Ragged `M`/`N` edges are zero-padded
//! during packing; ragged `K` tails shorten the depth loop. Transposed
//! operands are handled by the *packers* through strided views, so no
//! transpose is ever materialised.
//!
//! # Scratch reuse
//!
//! [`GemmScratch`] owns the padded input copy, the tap offsets, the
//! backward pass's im2col buffers and the packed GEMM panels. Callers that
//! process many frames (the AMC executor, the serving engine's workers, the
//! training loop) hold one scratch and pass it to
//! [`conv2d_forward`]/[`conv2d_backward`], so steady-state execution
//! performs **no** per-frame allocation in the convolution engine. One-shot
//! callers can use [`with_thread_scratch`], which reuses a thread-local
//! scratch.
//!
//! # Measuring the kernels
//!
//! The serving benchmark's traced pass times these kernels where they run:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload cut_storm_deep --seconds 8 --trace 1
//! objdump -d --no-show-raw-insn benchmark/target/release/eva2-benchmark \
//!     | grep -c vfmadd231ps
//! ```
//!
//! `tensor.gemm.peak_gmacs_per_s` is packed [`gemm_nn`] at the prefix shape
//! 32×1024×144; `cnn.layer.<name>.gmacs_per_s` is each prefix GEMM layer's
//! [`conv2d_forward`] rate at serving geometry. The `objdump` count is 24
//! on an AVX-512 host while the micro-kernel's depth loops stay on `zmm`
//! FMAs (2 kernels × 12 per depth step, none on `ymm`). An AVX2-only build
//! (`-C target-cpu=x86-64-v3`, the 4×24 tile) counts 24 on `ymm`; the 48
//! that `target-cpu=native` counted on `ymm` before the flag was the same
//! tile with `gemm_packed`'s depth step unrolled twice. A scalar fallback
//! shows up as `vfmadd231ss` and as the peak rate falling by more than
//! half; CI's benchmark job fails on a binary with no packed
//! `vfmadd231ps`. Re-measure after touching this module — the numbers
//! depend on `.cargo/config.toml`'s `target-cpu=native` and
//! `-prefer-256-bit`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]

use crate::microkernel::{add_tile, microkernel, microkernel_taps};
use crate::pack::{pack_a_block, pack_b_block, MatRef};
use crate::shape::Shape3;
use crate::tensor::Tensor3;
use std::cell::RefCell;

pub use crate::pack::{MR, NR};

/// Depth-blocking factor: the `K` extent of one packed `B` panel (and of
/// one micro-kernel accumulation run).
pub const KC: usize = 256;

/// Column-blocking factor: the `N` extent of one packed `B` block, a
/// multiple of [`NR`] at either register width (6 panels of 48, 12 of 24)
/// so no block ends in a ragged panel. `KC × NC` f32 = 288 KiB, L2-resident
/// while every `MR`-row panel of `A` streams against it.
pub const NC: usize = 288;
const _: () = assert!(NC.is_multiple_of(NR));

/// Output spatial length of a convolution along one axis (floor convention;
/// `LayerGeometry::output_len` in `eva2-cnn` calls this).
pub fn conv_output_len(n: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = n + 2 * padding;
    if padded < kernel {
        0
    } else {
        (padded - kernel) / stride + 1
    }
}

/// Packed-panel scratch for the GEMM driver (kernel-ordered A row-panels
/// and B column-panels — see `pack.rs` for the layout).
#[derive(Debug, Default)]
pub(crate) struct PackBufs {
    /// All of `A`, packed per [`KC`] depth block into [`MR`]-row panels.
    a: Vec<f32>,
    /// One `KC × NC` block of `B`, packed into [`NR`]-column panels.
    b: Vec<f32>,
}

/// Reusable buffers for the convolution engine.
///
/// Holding one `GemmScratch` across frames eliminates steady-state heap
/// allocation (the buffers grow to the largest layer seen, then stabilise):
/// `padded`/`taps` serve the forward pass's direct convolution,
/// `cols`/`cols_grad` the backward pass's im2col matrices, and `packs` the
/// kernel-ordered GEMM panels.
#[derive(Debug, Default)]
pub struct GemmScratch {
    /// Zero-bordered (phase-split) copy of the forward input, plus [`NR`]
    /// floats of slack — see [`PaddedLayout`].
    padded: Vec<f32>,
    /// Offset of every `(ic, ky, kx)` tap of output `(0, 0)` in `padded`.
    taps: Vec<usize>,
    /// im2col patch matrix, `(C_in·K²) × (H_out·W_out)` (backward pass).
    cols: Vec<f32>,
    /// Gradient w.r.t. `cols` in the backward pass.
    cols_grad: Vec<f32>,
    /// Packed GEMM panels.
    packs: PackBufs,
}

impl GemmScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently held by the scratch buffers.
    pub fn capacity_bytes(&self) -> usize {
        (self.padded.capacity()
            + self.cols.capacity()
            + self.cols_grad.capacity()
            + self.packs.a.capacity()
            + self.packs.b.capacity())
            * std::mem::size_of::<f32>()
            + self.taps.capacity() * std::mem::size_of::<usize>()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// Runs `f` with the calling thread's shared [`GemmScratch`].
///
/// Lets one-shot conv calls (tests, generic `Layer::forward`) reuse buffers
/// without threading a scratch through every signature. Re-entrant calls
/// fall back to a fresh scratch.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut GemmScratch::new()),
    })
}

// ---------------------------------------------------------------------------
// Packed micro-kernel driver
// ---------------------------------------------------------------------------

/// Packs all of `a` (an `m × k` strided view) into `buf`, kernel-ordered:
/// depth block starting at `kb` lives at offset `kb * m_panels * MR`.
fn pack_a_full(a: MatRef<'_>, m: usize, k: usize, buf: &mut Vec<f32>) {
    let m_panels = m.div_ceil(MR);
    buf.resize(k * m_panels * MR, 0.0);
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        pack_a_block(a, m, kb, kc, &mut buf[kb * m_panels * MR..]);
    }
}

/// Serial packed GEMM over strided operand views: `C += A·B`, `C`
/// row-major `m × n`.
fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    packs: &mut PackBufs,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    pack_a_full(a, m, k, &mut packs.a);
    let m_panels = m.div_ceil(MR);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let n_panels = nc.div_ceil(NR);
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            packs.b.resize(n_panels * NR * kc, 0.0);
            pack_b_block(b, kb, kc, jc, nc, &mut packs.b);
            let a_block = &packs.a[kb * m_panels * MR..];
            for ip in 0..m_panels {
                let mr = MR.min(m - ip * MR);
                let a_panel = &a_block[ip * MR * kc..(ip + 1) * MR * kc];
                for jp in 0..n_panels {
                    let nr = NR.min(nc - jp * NR);
                    let b_panel = &packs.b[jp * NR * kc..(jp + 1) * NR * kc];
                    let tile = microkernel(kc, a_panel, b_panel);
                    add_tile(&tile, c, n, ip * MR, jc + jp * NR, mr, nr);
                }
            }
        }
    }
}

/// `C += A · B` for row-major `A: M×K`, `B: K×N`, `C: M×N`, through the
/// packed [`MR`]`×`[`NR`] micro-kernel.
///
/// # Panics
///
/// Panics when a buffer length does not match its matrix dimensions.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: A is not M×K");
    assert_eq!(b.len(), k * n, "gemm_nn: B is not K×N");
    assert_eq!(c.len(), m * n, "gemm_nn: C is not M×N");
    let (a, b) = (MatRef::new(a, k, 1), MatRef::new(b, n, 1));
    with_thread_scratch(|s| gemm_packed(m, n, k, a, b, c, &mut s.packs));
}

/// `C += A · Bᵀ` for row-major `A: M×K`, `B: N×K`, `C: M×N`.
///
/// `Bᵀ` is handled by the packer through a strided view — no transpose is
/// materialised, and the micro-kernel path is identical to [`gemm_nn`].
/// Used for the weight gradient `∂W = ∂Y · colsᵀ`.
///
/// # Panics
///
/// Panics when a buffer length does not match its matrix dimensions.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A is not M×K");
    assert_eq!(b.len(), n * k, "gemm_nt: B is not N×K");
    assert_eq!(c.len(), m * n, "gemm_nt: C is not M×N");
    with_thread_scratch(|s| gemm_nt_scratch(m, n, k, a, b, c, &mut s.packs));
}

fn gemm_nt_scratch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    packs: &mut PackBufs,
) {
    // Product-B = Bᵀ: element (p, j) = b[j*k + p] ⇒ strides (1, k).
    gemm_packed(
        m,
        n,
        k,
        MatRef::new(a, k, 1),
        MatRef::new(b, 1, k),
        c,
        packs,
    );
}

/// `C += Aᵀ · B` for row-major `A: M×K`, `B: M×N`, `C: K×N`.
///
/// `Aᵀ` is handled by the packer through a strided view. Used for the
/// input gradient `∂cols = Wᵀ · ∂Y`.
///
/// # Panics
///
/// Panics when a buffer length does not match its matrix dimensions.
pub fn gemm_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_tn: A is not M×K");
    assert_eq!(b.len(), m * n, "gemm_tn: B is not M×N");
    assert_eq!(c.len(), k * n, "gemm_tn: C is not K×N");
    with_thread_scratch(|s| gemm_tn_scratch(m, n, k, a, b, c, &mut s.packs));
}

fn gemm_tn_scratch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    packs: &mut PackBufs,
) {
    // Product dims: C (k×n) += Aᵀ (k×m) · B (m×n); product-A element
    // (i, p) = a[p*k + i] ⇒ strides (1, k).
    gemm_packed(
        k,
        n,
        m,
        MatRef::new(a, 1, k),
        MatRef::new(b, n, 1),
        c,
        packs,
    );
}

/// Unfolds `input` into the im2col patch matrix (the backward pass's
/// lowering; the forward pass reads a padded copy instead).
///
/// `cols` is resized to `(C_in·K²) × (H_out·W_out)` and fully overwritten.
/// Row `((ic·K) + ky)·K + kx` holds, for every output position `(oy, ox)`,
/// the input sample at `(ic, oy·S − P + ky, ox·S − P + kx)` (zero outside
/// the frame). Stride-1 rows are bulk `copy_from_slice` copies.
///
/// Returns `(K_dim, N)` = (rows, columns) of the packed matrix.
pub fn im2col_into(
    input: &Tensor3,
    kernel: usize,
    stride: usize,
    padding: usize,
    cols: &mut Vec<f32>,
) -> (usize, usize) {
    let shape = input.shape();
    let out_h = conv_output_len(shape.height, kernel, stride, padding);
    let out_w = conv_output_len(shape.width, kernel, stride, padding);
    let k_dim = shape.channels * kernel * kernel;
    let n = out_h * out_w;
    // Length-only resize (grows zero-filled, shrinks by truncation); every
    // retained element is overwritten below.
    cols.resize(k_dim * n, 0.0);
    let p = padding as isize;
    for ic in 0..shape.channels {
        let plane = input.channel(ic);
        for ky in 0..kernel {
            for kx in 0..kernel {
                let row = ((ic * kernel) + ky) * kernel + kx;
                let dst_row = &mut cols[row * n..(row + 1) * n];
                for oy in 0..out_h {
                    let iy = (oy * stride) as isize - p + ky as isize;
                    let dst = &mut dst_row[oy * out_w..(oy + 1) * out_w];
                    if iy < 0 || iy as usize >= shape.height {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row =
                        &plane[iy as usize * shape.width..(iy as usize + 1) * shape.width];
                    if stride == 1 {
                        // ix = ox − P + kx for ox in 0..out_w: one contiguous
                        // window, zero-filled where it leaves the frame.
                        let ix0 = kx as isize - p;
                        let lead = (-ix0).clamp(0, out_w as isize) as usize;
                        let start = ((ix0 + lead as isize) as usize).min(shape.width);
                        let body = (shape.width - start).min(out_w - lead);
                        dst[..lead].fill(0.0);
                        dst[lead..lead + body].copy_from_slice(&src_row[start..start + body]);
                        dst[lead + body..].fill(0.0);
                    } else {
                        for (ox, dv) in dst.iter_mut().enumerate() {
                            let ix = (ox * stride) as isize - p + kx as isize;
                            *dv = if ix >= 0 && (ix as usize) < shape.width {
                                src_row[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }
    (k_dim, n)
}

/// Scatter-adds a `cols`-shaped gradient back onto an input-shaped tensor
/// (the adjoint of [`im2col_into`]).
pub fn col2im_into(
    cols_grad: &[f32],
    kernel: usize,
    stride: usize,
    padding: usize,
    grad_in: &mut Tensor3,
) {
    let shape = grad_in.shape();
    let out_h = conv_output_len(shape.height, kernel, stride, padding);
    let out_w = conv_output_len(shape.width, kernel, stride, padding);
    let n = out_h * out_w;
    let p = padding as isize;
    for ic in 0..shape.channels {
        let plane = grad_in.channel_mut(ic);
        for ky in 0..kernel {
            for kx in 0..kernel {
                let row = ((ic * kernel) + ky) * kernel + kx;
                let src_row = &cols_grad[row * n..(row + 1) * n];
                for oy in 0..out_h {
                    let iy = (oy * stride) as isize - p + ky as isize;
                    if iy < 0 || iy as usize >= shape.height {
                        continue;
                    }
                    let dst =
                        &mut plane[iy as usize * shape.width..(iy as usize + 1) * shape.width];
                    let src = &src_row[oy * out_w..(oy + 1) * out_w];
                    for (ox, &gv) in src.iter().enumerate() {
                        let ix = (ox * stride) as isize - p + kx as isize;
                        if ix >= 0 && (ix as usize) < shape.width {
                            dst[ix as usize] += gv;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Padded-domain direct convolution (forward pass)
// ---------------------------------------------------------------------------

/// Packs a `[oc][ic][ky][kx]` filter bank (`out_channels × k_dim`,
/// row-major) into the [`MR`]-row kernel-order panels [`conv2d_forward`]
/// reads: per [`KC`] depth block, one panel per `MR` output channels with
/// the `MR` weights of tap `p` contiguous, zero rows past `out_channels`.
///
/// Done once when a layer is built or its weights change, not per frame.
///
/// # Panics
///
/// Panics when `weights.len() != out_channels · k_dim`.
pub fn pack_conv_weights(
    weights: &[f32],
    out_channels: usize,
    k_dim: usize,
    panels: &mut Vec<f32>,
) {
    assert_eq!(
        weights.len(),
        out_channels * k_dim,
        "pack_conv_weights: weights"
    );
    pack_a_full(MatRef::new(weights, k_dim, 1), out_channels, k_dim, panels);
}

/// Where the padded copy of a `C × H × W` input keeps each sample.
///
/// The padded domain is `(H+2P) × (W+2P)` per channel. Stride 1 stores it
/// as is; stride `S > 1` splits it into `S²` phase planes per channel,
/// `phase(ry, rx)[y][x] = padded[S·y + ry][S·x + rx]`, each `rows × pitch`
/// (the last row/column of a phase the padded domain does not reach stays
/// zero and is never a valid output's operand). Either way output
/// `(oy, ox)`'s tap `(ic, ky, kx)` sits `oy·pitch + ox` past the same tap
/// of output `(0, 0)`.
#[derive(Debug, Clone, Copy)]
struct PaddedLayout {
    stride: usize,
    padding: usize,
    /// Rows of one (phase) plane: `⌈(H+2P)/S⌉`.
    rows: usize,
    /// Row pitch of one (phase) plane: `⌈(W+2P)/S⌉`.
    pitch: usize,
}

impl PaddedLayout {
    fn new(input: Shape3, stride: usize, padding: usize) -> Self {
        Self {
            stride,
            padding,
            rows: (input.height + 2 * padding).div_ceil(stride),
            pitch: (input.width + 2 * padding).div_ceil(stride),
        }
    }

    /// Buffer length for `channels` planes, including the [`NR`] floats of
    /// slack the last tile's loads may run into.
    fn len(&self, channels: usize) -> usize {
        channels * self.stride * self.stride * self.rows * self.pitch + NR
    }

    /// Index of padded-domain sample `(ic, py, px)`.
    #[inline]
    fn index(&self, ic: usize, py: usize, px: usize) -> usize {
        let s = self.stride;
        let plane = (ic * s + py % s) * s + px % s;
        (plane * self.rows + py / s) * self.pitch + px / s
    }

    /// Writes the padded copy of `input` into `buf`: every sample and every
    /// border zero in one sequential pass (the slack is left as found — it
    /// is only ever read into lanes nobody stores).
    fn copy_dense(&self, input: &Tensor3, buf: &mut Vec<f32>) {
        let shape = input.shape();
        let (s, p) = (self.stride, self.padding);
        buf.resize(self.len(shape.channels), 0.0);
        let plane_len = self.rows * self.pitch;
        for ic in 0..shape.channels {
            let src = input.channel(ic);
            for ry in 0..s {
                for rx in 0..s {
                    let plane = &mut buf[((ic * s + ry) * s + rx) * plane_len..][..plane_len];
                    for (yq, dst) in plane.chunks_exact_mut(self.pitch).enumerate() {
                        let py = yq * s + ry;
                        if py < p || py >= p + shape.height {
                            dst.fill(0.0);
                            continue;
                        }
                        let row = &src[(py - p) * shape.width..][..shape.width];
                        if s == 1 {
                            dst[..p].fill(0.0);
                            dst[p..p + shape.width].copy_from_slice(row);
                            dst[p + shape.width..].fill(0.0);
                        } else {
                            for (xq, dv) in dst.iter_mut().enumerate() {
                                let px = xq * s + rx;
                                *dv = if px >= p && px < p + shape.width {
                                    row[px - p]
                                } else {
                                    0.0
                                };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The direct convolution over a filled padded buffer: see the module docs
/// ("Lowering", "Blocking scheme").
fn conv_tiles(
    panels: &[f32],
    bias: &[f32],
    buf: &[f32],
    taps: &[usize],
    pitch: usize,
    out_shape: Shape3,
    out: &mut [f32],
) {
    let m = out_shape.channels;
    let (out_h, out_w) = (out_shape.height, out_shape.width);
    let m_panels = m.div_ceil(MR);
    let k_dim = taps.len();
    let grid = (out_h - 1) * pitch + out_w;
    // Grid cell `jt` is column `ox` of grid row `oy`.
    let (mut oy, mut ox) = (0, 0);
    for jt in (0..grid).step_by(NR) {
        let window = &buf[jt..];
        for ip in 0..m_panels {
            // `bias + block₀ + block₁ + …`, summed in registers: the value a
            // bias-prefilled accumulate loop over the same depth blocks
            // leaves in `C`. Rows past `m` (a ragged last panel) stay zero.
            let mut tile = [[0.0f32; NR]; MR];
            for (i, row) in tile.iter_mut().enumerate() {
                if let Some(&b) = bias.get(ip * MR + i) {
                    *row = [b; NR];
                }
            }
            for kb in (0..k_dim).step_by(KC) {
                let kc = KC.min(k_dim - kb);
                let a_panel = &panels[(kb * m_panels + ip * kc) * MR..][..kc * MR];
                let block = microkernel_taps(a_panel, &taps[kb..kb + kc], window);
                for (row, add) in tile.iter_mut().zip(&block) {
                    for j in 0..NR {
                        row[j] += add[j];
                    }
                }
            }
            let channels = &mut out[ip * MR * out_h * out_w..];
            let rows = &tile[..MR.min(m - ip * MR)];
            store_grid_tile(rows, channels, (out_h, out_w), pitch, (oy, ox));
        }
        ox += NR;
        while ox >= pitch {
            ox -= pitch;
            oy += 1;
        }
    }
}

/// Stores the lanes of a tile that are outputs. The tile's lane 0 is grid
/// cell `(oy, ox)`; its lanes run on through the padded-width grid row by
/// row, and cells with `ox ≥ out_w` are nobody's output. `rows[i]` belongs
/// to the `i`-th `out_h × out_w` plane of `channels`.
#[inline]
fn store_grid_tile(
    rows: &[[f32; NR]],
    channels: &mut [f32],
    (out_h, out_w): (usize, usize),
    pitch: usize,
    (mut oy, mut ox): (usize, usize),
) {
    if ox + NR <= out_w {
        // The common case on wide layers: all lanes in one output row, a
        // fixed-width copy.
        for (i, row) in rows.iter().enumerate() {
            let at = (i * out_h + oy) * out_w + ox;
            channels[at..at + NR].copy_from_slice(row);
        }
        return;
    }
    let mut j = 0;
    while j < NR && oy < out_h {
        let run = (pitch - ox).min(NR - j);
        let valid = out_w.saturating_sub(ox).min(run);
        if valid > 0 {
            for (i, row) in rows.iter().enumerate() {
                let at = (i * out_h + oy) * out_w + ox;
                channels[at..at + valid].copy_from_slice(&row[j..j + valid]);
            }
        }
        j += run;
        ox = 0;
        oy += 1;
    }
}

/// Padded-domain direct convolution forward pass (see the module docs).
///
/// `panels` is the filter bank packed by [`pack_conv_weights`], `bias` one
/// value per output channel. Returns the `C_out × H_out × W_out` output,
/// bit-identical to a bias-prefilled [`gemm_nn`] over [`im2col_into`].
///
/// # Panics
///
/// Panics when `panels` is not the packing of a
/// `bias.len() × (C_in·kernel²)` filter bank.
pub fn conv2d_forward(
    input: &Tensor3,
    panels: &[f32],
    bias: &[f32],
    kernel: usize,
    stride: usize,
    padding: usize,
    scratch: &mut GemmScratch,
) -> Tensor3 {
    let in_shape = input.shape();
    let out_channels = bias.len();
    let k_dim = in_shape.channels * kernel * kernel;
    assert_eq!(
        panels.len(),
        k_dim * out_channels.div_ceil(MR) * MR,
        "conv2d_forward: panels"
    );
    let out_shape = Shape3::new(
        out_channels,
        conv_output_len(in_shape.height, kernel, stride, padding),
        conv_output_len(in_shape.width, kernel, stride, padding),
    );
    let n = out_shape.plane_len();
    if k_dim == 0 || out_shape.is_empty() {
        let mut out = Vec::with_capacity(out_shape.len());
        for &b in bias {
            out.resize(out.len() + n, b);
        }
        return Tensor3::from_vec(out_shape, out);
    }
    let layout = PaddedLayout::new(in_shape, stride, padding);
    layout.copy_dense(input, &mut scratch.padded);
    // Tap `p = (ic·K + ky)·K + kx` of output (0, 0) reads padded sample
    // `(ic, ky, kx)` — im2col's row order.
    scratch.taps.clear();
    scratch.taps.extend((0..k_dim).map(|p| {
        let (ic, cell) = (p / (kernel * kernel), p % (kernel * kernel));
        layout.index(ic, cell / kernel, cell % kernel)
    }));
    // Every element is written by the store pass.
    let mut out = vec![0.0f32; out_shape.len()];
    conv_tiles(
        panels,
        bias,
        &scratch.padded,
        &scratch.taps,
        layout.pitch,
        out_shape,
        &mut out,
    );
    Tensor3::from_vec(out_shape, out)
}

/// im2col + GEMM convolution backward pass.
///
/// Accumulates the weight gradient into `grad_w` (`∂W += ∂Y·colsᵀ`) and the
/// bias gradient into `grad_b`, and returns the input gradient
/// (`col2im(Wᵀ·∂Y)`).
///
/// # Panics
///
/// Panics when buffer lengths are inconsistent with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    input: &Tensor3,
    weights: &[f32],
    grad_out: &Tensor3,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    scratch: &mut GemmScratch,
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) -> Tensor3 {
    let shape = input.shape();
    let k_dim = shape.channels * kernel * kernel;
    assert_eq!(
        weights.len(),
        out_channels * k_dim,
        "conv2d_backward: weights"
    );
    assert_eq!(grad_w.len(), weights.len(), "conv2d_backward: grad_w");
    assert_eq!(grad_b.len(), out_channels, "conv2d_backward: grad_b");
    let (_, n) = im2col_into(input, kernel, stride, padding, &mut scratch.cols);
    assert_eq!(
        grad_out.shape().len(),
        out_channels * n,
        "conv2d_backward: grad_out"
    );
    for (oc, gb) in grad_b.iter_mut().enumerate() {
        *gb += grad_out.channel(oc).iter().sum::<f32>();
    }
    gemm_nt_scratch(
        out_channels,
        k_dim,
        n,
        grad_out.as_slice(),
        &scratch.cols,
        grad_w,
        &mut scratch.packs,
    );
    scratch.cols_grad.clear();
    scratch.cols_grad.resize(k_dim * n, 0.0);
    gemm_tn_scratch(
        out_channels,
        n,
        k_dim,
        weights,
        grad_out.as_slice(),
        &mut scratch.cols_grad,
        &mut scratch.packs,
    );
    let mut grad_in = Tensor3::zeros(shape);
    col2im_into(&scratch.cols_grad, kernel, stride, padding, &mut grad_in);
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_input(c: usize, h: usize, w: usize) -> Tensor3 {
        Tensor3::from_fn(Shape3::new(c, h, w), |ci, y, x| {
            ((ci * 31 + y * 7 + x * 3) % 13) as f32 - 6.0
        })
    }

    /// Direct scalar conv used as the test oracle.
    fn conv_reference(
        input: &Tensor3,
        weights: &[f32],
        bias: &[f32],
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Tensor3 {
        let s = input.shape();
        let out_shape = Shape3::new(
            out_channels,
            conv_output_len(s.height, kernel, stride, padding),
            conv_output_len(s.width, kernel, stride, padding),
        );
        let k_dim = s.channels * kernel * kernel;
        Tensor3::from_fn(out_shape, |oc, oy, ox| {
            let mut acc = bias[oc];
            for ic in 0..s.channels {
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let iy = (oy * stride) as isize - padding as isize + ky as isize;
                        let ix = (ox * stride) as isize - padding as isize + kx as isize;
                        let w = weights[oc * k_dim + (ic * kernel + ky) * kernel + kx];
                        acc += w * input.get_padded(ic, iy, ix);
                    }
                }
            }
            acc
        })
    }

    /// [`conv2d_forward`] from an unpacked filter bank.
    #[allow(clippy::too_many_arguments)]
    fn conv_forward(
        input: &Tensor3,
        weights: &[f32],
        bias: &[f32],
        kernel: usize,
        stride: usize,
        padding: usize,
        scratch: &mut GemmScratch,
    ) -> Tensor3 {
        let mut panels = Vec::new();
        let k_dim = input.shape().channels * kernel * kernel;
        pack_conv_weights(weights, bias.len(), k_dim, &mut panels);
        conv2d_forward(input, &panels, bias, kernel, stride, padding, scratch)
    }

    fn weights_for(out_c: usize, in_c: usize, kernel: usize) -> (Vec<f32>, Vec<f32>) {
        let k_dim = in_c * kernel * kernel;
        let weights: Vec<f32> = (0..out_c * k_dim)
            .map(|i| ((i * 17 + 5) % 11) as f32 * 0.1 - 0.5)
            .collect();
        let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.25 - 0.5).collect();
        (weights, bias)
    }

    fn schoolbook_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
    }

    #[test]
    fn gemm_nn_matches_schoolbook() {
        let (m, n, k) = (5, 7, 9);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        let mut c = vec![0.5f32; m * n];
        let mut expect = c.clone();
        schoolbook_nn(m, n, k, &a, &b, &mut expect);
        gemm_nn(m, n, k, &a, &b, &mut c);
        for (got, want) in c.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn gemm_nn_matches_axpy_reference_across_blocks() {
        // Spans multiple KC depth blocks and NC column blocks plus ragged
        // tails in every dimension. (The name dates from when the reference
        // was a second, AXPY-panel kernel; it is the schoolbook loop now.)
        let (m, n, k) = (MR + 3, NC + NR + 5, KC + 17);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7) % 23) as f32 * 0.1 - 1.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5) % 19) as f32 * 0.1 - 0.9)
            .collect();
        let mut c_micro = vec![0.25f32; m * n];
        let mut c_ref = c_micro.clone();
        gemm_nn(m, n, k, &a, &b, &mut c_micro);
        schoolbook_nn(m, n, k, &a, &b, &mut c_ref);
        for (got, want) in c_micro.iter().zip(&c_ref) {
            assert!(
                (got - want).abs() < 2e-2 * (1.0 + want.abs()),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn gemm_nt_and_tn_match_schoolbook() {
        let (m, n, k) = (4, 6, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 4) as f32 - 1.5).collect();
        let bt: Vec<f32> = (0..n * k).map(|i| (i % 6) as f32 * 0.3).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c);
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|p| a[i * k + p] * bt[j * k + p]).sum();
                assert!((c[i * n + j] - want).abs() < 1e-4);
            }
        }
        // gemm_tn: C (k×n) += Aᵀ B with A m×k, B m×n.
        let b: Vec<f32> = (0..m * n).map(|i| (i % 3) as f32 - 1.0).collect();
        let mut ct = vec![0.0f32; k * n];
        gemm_tn(m, n, k, &a, &b, &mut ct);
        for p in 0..k {
            for j in 0..n {
                let want: f32 = (0..m).map(|i| a[i * k + p] * b[i * n + j]).sum();
                assert!((ct[p * n + j] - want).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn im2col_identity_geometry_is_transpose_free_copy() {
        let input = seq_input(2, 3, 3);
        let mut cols = Vec::new();
        let (k_dim, n) = im2col_into(&input, 1, 1, 0, &mut cols);
        assert_eq!((k_dim, n), (2, 9));
        assert_eq!(&cols, input.as_slice());
    }

    #[test]
    fn conv_forward_matches_reference_across_geometries() {
        for &(c, h, w, oc, k, s, p) in &[
            (1usize, 5usize, 5usize, 1usize, 3usize, 1usize, 0usize),
            (2, 6, 5, 3, 3, 1, 1),
            (3, 8, 8, 4, 5, 2, 2),
            (2, 7, 9, 2, 1, 1, 0),
            (1, 4, 4, 2, 4, 4, 0),
            (2, 5, 5, 3, 3, 2, 0),
        ] {
            let input = seq_input(c, h, w);
            let (weights, bias) = weights_for(oc, c, k);
            let want = conv_reference(&input, &weights, &bias, oc, k, s, p);
            let got = with_thread_scratch(|scratch| {
                conv_forward(&input, &weights, &bias, k, s, p, scratch)
            });
            assert_eq!(
                got.shape(),
                want.shape(),
                "shape for {c}x{h}x{w} k{k}s{s}p{p}"
            );
            for (a, b) in got.iter().zip(want.iter()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "conv mismatch: {a} vs {b} (k{k}s{s}p{p})"
                );
            }
        }
    }

    #[test]
    fn conv_backward_gradcheck() {
        let (c, h, w, oc, k, s, p) = (2, 5, 5, 3, 3, 1, 1);
        let input = seq_input(c, h, w).map(|v| (v * 0.37).sin());
        let (weights, bias) = weights_for(oc, c, k);
        let mut scratch = GemmScratch::new();
        let out = conv_forward(&input, &weights, &bias, k, s, p, &mut scratch);
        let grad_out = Tensor3::filled(out.shape(), 1.0);
        let mut grad_w = vec![0.0f32; weights.len()];
        let mut grad_b = vec![0.0f32; bias.len()];
        let grad_in = conv2d_backward(
            &input,
            &weights,
            &grad_out,
            oc,
            k,
            s,
            p,
            &mut scratch,
            &mut grad_w,
            &mut grad_b,
        );
        let eps = 1e-2;
        // Input gradient.
        for &(y, x) in &[(0usize, 0usize), (2, 3), (4, 4)] {
            let mut plus = input.clone();
            plus.set(1, y, x, input.get(1, y, x) + eps);
            let mut minus = input.clone();
            minus.set(1, y, x, input.get(1, y, x) - eps);
            let lp: f32 = conv_forward(&plus, &weights, &bias, k, s, p, &mut scratch)
                .iter()
                .sum();
            let lm: f32 = conv_forward(&minus, &weights, &bias, k, s, p, &mut scratch)
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.get(1, y, x);
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad_in ({y},{x}): numeric {numeric} vs analytic {analytic}"
            );
        }
        // Weight gradient.
        for wi in [0usize, 7, weights.len() - 1] {
            let mut wp = weights.clone();
            wp[wi] += eps;
            let mut wm = weights.clone();
            wm[wi] -= eps;
            let lp: f32 = conv_forward(&input, &wp, &bias, k, s, p, &mut scratch)
                .iter()
                .sum();
            let lm: f32 = conv_forward(&input, &wm, &bias, k, s, p, &mut scratch)
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_w[wi]).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad_w [{wi}]: numeric {numeric} vs analytic {}",
                grad_w[wi]
            );
        }
        // Bias gradient: dL/db = number of output positions per channel.
        let n_out = out.shape().plane_len() as f32;
        for gb in &grad_b {
            assert!((gb - n_out).abs() < 1e-3);
        }
    }

    /// Bias-prefilled `gemm_nn` over the im2col matrix: the lowering the
    /// direct convolution replaced, and must match bit for bit.
    fn conv_via_im2col_gemm(
        input: &Tensor3,
        weights: &[f32],
        bias: &[f32],
        (k, s, p): (usize, usize, usize),
    ) -> Vec<f32> {
        let mut cols = Vec::new();
        let (k_dim, n) = im2col_into(input, k, s, p, &mut cols);
        let mut want = vec![0.0f32; bias.len() * n];
        for (ch, &b) in bias.iter().enumerate() {
            want[ch * n..(ch + 1) * n].fill(b);
        }
        gemm_nn(bias.len(), n, k_dim, weights, &cols, &mut want);
        want
    }

    #[test]
    fn direct_single_frame_conv_bit_identical_to_packed_loop() {
        // One scratch across all geometries, so each runs over what the
        // previous one left in the padded buffer.
        let mut scratch = GemmScratch::new();
        for &(c, h, w, oc, k, s, p) in &[
            (2usize, 6usize, 5usize, 3usize, 3usize, 1usize, 1usize),
            (3, 8, 8, 4, 5, 2, 2),
            (1, 4, 4, 2, 4, 4, 0),
            // Padded row pitch 7 < NR over NR/2 rows: several tiles, each
            // straddling output rows.
            (2, NR / 2, 5, 3, 3, 1, 1),
            // Whole output narrower than one NR tile.
            (2, 3, 3, 5, 3, 1, 0),
            // K_dim = 8·6² = 288 > KC: two depth blocks.
            (8, 8, 8, 4, 6, 1, 2),
            // Stride 3 with a kernel that does not fill its last phase.
            (2, 11, 10, 6, 4, 3, 1),
            // One output column in a pitch of 5: the fourth tile starts in
            // the grid's unused columns, past the end of the last channel.
            (1, 11, 1, 2, 5, 1, 2),
            // The zoo's pitches, 50, 26 and 14: at either register width a
            // tile covers parts of one to five output rows, starting at a
            // different column each time.
            (2, 5, 48, 5, 3, 1, 1),
            (2, 5, 24, 5, 3, 1, 1),
            (2, 5, 12, 5, 3, 1, 1),
            // Pitch NR + 9, between NR and 2·NR: a row is one whole tile and
            // a part of the next.
            (2, 4, NR + 7, 5, 3, 1, 1),
        ] {
            let input = seq_input(c, h, w);
            let (weights, bias) = weights_for(oc, c, k);
            let got = conv_forward(&input, &weights, &bias, k, s, p, &mut scratch);
            let want = conv_via_im2col_gemm(&input, &weights, &bias, (k, s, p));
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "direct conv must be bit-identical (k{k}s{s}p{p})"
            );
        }
    }

    #[test]
    fn degenerate_convs_return_the_bias() {
        let mut scratch = GemmScratch::new();
        // Kernel larger than the padded input: empty output.
        let (weights, bias) = weights_for(2, 1, 5);
        let out = conv_forward(&seq_input(1, 2, 2), &weights, &bias, 5, 1, 0, &mut scratch);
        assert_eq!(out.shape(), Shape3::new(2, 0, 0));
        // No input channels: nothing to sum, the bias alone.
        let out = conv_forward(
            &seq_input(0, 3, 3),
            &[],
            &[0.5, -1.0],
            3,
            1,
            1,
            &mut scratch,
        );
        assert_eq!(out.channel(0), &[0.5; 9]);
        assert_eq!(out.channel(1), &[-1.0; 9]);
    }

    #[test]
    fn scratch_reuse_across_shapes_is_safe() {
        let mut scratch = GemmScratch::new();
        // Large then small: stale tail data must not leak into results.
        let big = seq_input(3, 10, 10);
        let (wb, bb) = weights_for(4, 3, 3);
        let _ = conv_forward(&big, &wb, &bb, 3, 1, 1, &mut scratch);
        let small = seq_input(1, 4, 4);
        let (ws, bs) = weights_for(2, 1, 3);
        let got = conv_forward(&small, &ws, &bs, 3, 1, 0, &mut scratch);
        let want = conv_reference(&small, &ws, &bs, 2, 3, 1, 0);
        for (a, b) in got.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn output_len_edge_cases() {
        assert_eq!(conv_output_len(5, 3, 1, 0), 3);
        assert_eq!(conv_output_len(5, 3, 2, 1), 3);
        assert_eq!(conv_output_len(2, 5, 1, 0), 0);
        assert_eq!(conv_output_len(2, 5, 1, 2), 2);
    }
}
