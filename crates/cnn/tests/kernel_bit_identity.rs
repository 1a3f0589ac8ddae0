//! Bit-identity pins for the vectorised forward kernels.
//!
//! Each of the three forward bodies that were re-shaped for the vector unit
//! — the padded-domain direct convolution, the row-slice max-pool and the
//! register-blocked fully-connected product, dense and sparse-fed — must
//! return exactly the bits of the definition it replaced, built here only
//! from retained public functions (`im2col_into` + `gemm_nn`,
//! `Tensor3::from_fn`, a scalar dot product).
//! The serving engine's replayability rests on that: key frames, predicted
//! frames and the full-CNN reference all run these kernels, and a digest
//! recorded by one build must verify on the next.
//!
//! Debug and release builds compile different kernels (the release ones are
//! vectorised), so CI runs the convolution property in the release profile
//! as well, at `EVA2_CONV_CASES=20000`.

use eva2_cnn::layer::{Conv2d, FullyConnected, Layer, MaxPool2d};
use eva2_tensor::gemm::{gemm_nn, im2col_into, GemmScratch, NR};
use eva2_tensor::{Shape3, SparseActivation, Tensor3};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Deterministic values in `[-1, 1)` with exact zeros (one in four) mixed
/// in, so failures shrink to a seed rather than a vector.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64 ^ seed)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (x >> 29) % 4 {
                0 => 0.0,
                _ => ((x >> 33) % 2000) as f32 * 0.001 - 1.0,
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A conv layer with random weights *and* biases (`Conv2d::new` leaves the
/// biases zero), loaded through `load_params` like a trained checkpoint.
fn random_conv(c_in: usize, c_out: usize, (k, s, p): (usize, usize, usize), seed: u64) -> Conv2d {
    let mut conv = Conv2d::new(
        "c",
        c_in,
        c_out,
        k,
        s,
        p,
        &mut ChaCha8Rng::seed_from_u64(seed),
    );
    let mut params = conv.params();
    let n_weights = params.len() - c_out;
    params[n_weights..].copy_from_slice(&fill(c_out, seed ^ 0xb1a5));
    conv.load_params(&params);
    conv
}

/// Cases `direct_conv_bit_identical_to_im2col_gemm` draws: 256, or what
/// `EVA2_CONV_CASES` says (CI runs 20,000 in the release profile, where the
/// vector kernels exist).
fn conv_cases() -> u32 {
    std::env::var("EVA2_CONV_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Channel counts: mostly small, sometimes large enough that
/// `C_in·K² > KC` (several depth blocks) — always free to be a
/// non-multiple of the kernel's `MR` rows.
fn channels() -> impl Strategy<Value = usize> {
    prop_oneof![3 => 1usize..=6, 1 => 1usize..=40]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(conv_cases()))]

    /// `Conv2d::forward` == a bias-prefilled `gemm_nn` over `im2col_into`,
    /// bit for bit: output rows narrower than one register tile and wider
    /// than two (`w` reaches past `2·NR` at either register width), tiles
    /// straddling rows, strides that split the input into phases,
    /// ragged channel panels, several depth blocks, 1×1 and empty outputs,
    /// all through a scratch another geometry used first.
    #[test]
    fn direct_conv_bit_identical_to_im2col_gemm(
        c_in in channels(),
        c_out in channels(),
        h in 1usize..=14,
        w in prop_oneof![1usize..=14, 15usize..=2 * NR + 8],
        k in 1usize..=5,
        s in 1usize..=3,
        p in 0usize..=2,
        seed in 0u64..1_000_000,
        dirty in (1usize..=8, 1usize..=24, 1usize..=2 * NR + 8, 1usize..=5, 1usize..=3, 0usize..=2),
    ) {
        let mut scratch = GemmScratch::new();
        let (dc, dh, dw, dk, ds, dp) = dirty;
        let other = random_conv(dc, 3, (dk, ds, dp), seed ^ 1);
        let noise = Tensor3::from_vec(Shape3::new(dc, dh, dw), fill(dc * dh * dw, seed ^ 2));
        other.forward_scratch(&noise, &mut scratch);

        let conv = random_conv(c_in, c_out, (k, s, p), seed);
        let input = Tensor3::from_vec(Shape3::new(c_in, h, w), fill(c_in * h * w, seed ^ 3));
        let got = conv.forward_scratch(&input, &mut scratch);

        let params = conv.params();
        let (weights, bias) = params.split_at(params.len() - c_out);
        let mut cols = Vec::new();
        let (k_dim, n) = im2col_into(&input, k, s, p, &mut cols);
        let mut want = Vec::with_capacity(c_out * n);
        for &b in bias {
            want.resize(want.len() + n, b);
        }
        gemm_nn(c_out, n, k_dim, weights, &cols, &mut want);

        prop_assert_eq!(got.shape(), conv.output_shape(input.shape()));
        prop_assert_eq!(bits(got.as_slice()), bits(&want));
        // The scratch-free entry point is the same body.
        prop_assert_eq!(bits(conv.forward(&input).as_slice()), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `MaxPool2d::forward` == the per-element window fold it was written
    /// from (`ky` outer, `kx` inner, starting at −∞), bit for bit, for
    /// windows that tile, overlap and skip, odd sizes, 1×1 and empty
    /// outputs.
    #[test]
    fn row_slice_pool_bit_identical_to_window_fold(
        c in 1usize..=3,
        h in 1usize..=13,
        w in prop_oneof![1usize..=13, 14usize..=41],
        k in 1usize..=3,
        s in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let pool = MaxPool2d::new("p", k, s);
        let input = Tensor3::from_vec(Shape3::new(c, h, w), fill(c * h * w, seed));
        let want = Tensor3::from_fn(pool.output_shape(input.shape()), |c, oy, ox| {
            let mut m = f32::NEG_INFINITY;
            for ky in 0..k {
                for kx in 0..k {
                    m = m.max(input.get(c, oy * s + ky, ox * s + kx));
                }
            }
            m
        });
        let got = pool.forward(&input);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    }

    /// `FullyConnected::forward` == one scalar `acc += w·x` chain per
    /// output, started from the bias, bit for bit — exact zeros and
    /// negative inputs included (the dense path skips nothing).
    #[test]
    fn axpy_fc_bit_identical_to_scalar_chains(
        n_in in 1usize..=90,
        n_out in 1usize..=70,
        seed in 0u64..1_000_000,
    ) {
        let mut fc = FullyConnected::new("f", n_in, n_out, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut params = fc.params();
        params[n_in * n_out..].copy_from_slice(&fill(n_out, seed ^ 7));
        fc.load_params(&params);
        let x = fill(n_in, seed ^ 9);
        let want: Vec<f32> = (0..n_out)
            .map(|o| {
                let mut acc = params[n_in * n_out + o];
                for (w, v) in params[o * n_in..(o + 1) * n_in].iter().zip(&x) {
                    acc += w * v;
                }
                acc
            })
            .collect();
        let got = fc.forward(&Tensor3::from_vec(Shape3::new(n_in, 1, 1), x));
        prop_assert_eq!(bits(got.as_slice()), bits(&want));
    }

    /// `FullyConnected::forward_sparse` == one scalar `acc += w·x` chain
    /// per output over the non-zeros only, in flat (channel-major) order,
    /// started from the bias, bit for bit — over several output blocks and
    /// a narrower last one, and inputs with every entry zero.
    #[test]
    fn sparse_fc_bit_identical_to_scalar_chains_over_non_zeros(
        c in 1usize..=4,
        h in 1usize..=5,
        w in 1usize..=5,
        n_out in 1usize..=110,
        zero_draw in 0u32..20,
        seed in 0u64..1_000_000,
    ) {
        let n_in = c * h * w;
        let mut fc = FullyConnected::new("f", n_in, n_out, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut params = fc.params();
        params[n_in * n_out..].copy_from_slice(&fill(n_out, seed ^ 7));
        fc.load_params(&params);
        // One case in twenty has no non-zero at all: the output is the bias.
        let x = if zero_draw == 0 { vec![0.0; n_in] } else { fill(n_in, seed ^ 9) };
        let want: Vec<f32> = (0..n_out)
            .map(|o| {
                let mut acc = params[n_in * n_out + o];
                for (wt, &v) in params[o * n_in..(o + 1) * n_in].iter().zip(&x) {
                    if v != 0.0 {
                        acc += wt * v;
                    }
                }
                acc
            })
            .collect();
        let dense = Tensor3::from_vec(Shape3::new(c, h, w), x);
        let sparse = SparseActivation::from_dense(&dense, 0.0);
        let got = fc
            .forward_sparse(&sparse, &mut GemmScratch::new())
            .expect("a fully-connected layer has a sparse-fed path");
        prop_assert_eq!(got.shape(), Shape3::new(n_out, 1, 1));
        prop_assert_eq!(bits(got.as_slice()), bits(&want));
    }
}
