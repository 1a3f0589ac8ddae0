//! Golden-equivalence property tests for the convolution engine.
//!
//! The kernel path ([`Conv2d::forward`]/[`Layer::backward`]) must agree
//! with the naive reference loops
//! ([`Conv2d::forward_naive`]/[`Conv2d::backward_naive`]) within 1e-4
//! across random shapes, strides, and paddings — the two implementations
//! may only differ by floating-point summation order. The sparse suffix
//! path ([`Layer::forward_sparse`], [`Network::forward_suffix_sparse`])
//! must agree with the dense one.

use eva2_cnn::layer::{Conv2d, FullyConnected, Layer, MaxPool2d, Relu};
use eva2_cnn::network::Network;
use eva2_cnn::zoo::{tiny_alexnet, tiny_faster16, tiny_fasterm};
use eva2_tensor::gemm::GemmScratch;
use eva2_tensor::{Shape3, SparseActivation, Tensor3};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const TOL: f32 = 1e-4;

/// Random conv geometry: (in_c, h, w, out_c, kernel, stride, padding),
/// constrained so the output is non-empty.
fn arb_geometry() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize, usize)> {
    (
        1usize..4,
        3usize..10,
        3usize..10,
        1usize..5,
        1usize..5,
        1usize..3,
        0usize..3,
    )
        .prop_map(|(c, h, w, oc, k, s, p)| {
            // Keep kernel within the padded frame so out_h/out_w >= 1.
            let k = k.min(h + 2 * p).min(w + 2 * p);
            (c, h, w, oc, k, s, p)
        })
}

/// Sparse-ish input: roughly 60% zeros, like a post-ReLU activation.
fn arb_sparse_input(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor3> {
    proptest::collection::vec(prop_oneof![3 => Just(0.0f32), 2 => -2.0f32..2.0], c * h * w)
        .prop_map(move |v| Tensor3::from_vec(Shape3::new(c, h, w), v))
}

fn assert_close(a: &Tensor3, b: &Tensor3, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() <= TOL, "{what}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM forward == naive forward across random geometries.
    #[test]
    fn gemm_forward_matches_naive(
        (c, h, w, oc, k, s, p) in arb_geometry(),
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let conv = Conv2d::new("eq", c, oc, k, s, p, &mut rng);
        let input = Tensor3::from_fn(Shape3::new(c, h, w), |ci, y, x| {
            (((ci * 37 + y * 11 + x * 5 + seed as usize) % 29) as f32 - 14.0) * 0.1
        });
        let naive = conv.forward_naive(&input);
        let gemm = conv.forward(&input);
        assert_close(&gemm, &naive, "forward");
        // The scratch-reusing entry point is the same kernel.
        let mut scratch = GemmScratch::new();
        let scratched = conv.forward_scratch(&input, &mut scratch);
        assert_close(&scratched, &naive, "forward_scratch");
    }

    /// GEMM backward == naive backward (input, weight, and bias gradients).
    #[test]
    fn gemm_backward_matches_naive(
        (c, h, w, oc, k, s, p) in arb_geometry(),
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut conv_gemm = Conv2d::new("eq", c, oc, k, s, p, &mut rng);
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
        let mut conv_naive = Conv2d::new("eq", c, oc, k, s, p, &mut rng2);
        let input = Tensor3::from_fn(Shape3::new(c, h, w), |ci, y, x| {
            (((ci * 13 + y * 7 + x * 3) % 17) as f32 - 8.0) * 0.1
        });
        let out_shape = conv_gemm.output_shape(input.shape());
        prop_assume!(!out_shape.is_empty());
        let grad_out = Tensor3::from_fn(out_shape, |ci, y, x| {
            (((ci * 5 + y * 3 + x) % 7) as f32 - 3.0) * 0.25
        });
        let gi_gemm = conv_gemm.backward(&input, &grad_out);
        let gi_naive = conv_naive.backward_naive(&input, &grad_out);
        assert_close(&gi_gemm, &gi_naive, "grad_in");
        // Compare accumulated parameter gradients via params() after an
        // SGD step from identical weights: identical gradients ⇒ identical
        // updated parameters.
        conv_gemm.apply_grads(0.1, 1);
        conv_naive.apply_grads(0.1, 1);
        for (a, b) in conv_gemm.params().iter().zip(conv_naive.params().iter()) {
            prop_assert!((a - b).abs() <= 1e-3, "updated param {a} vs {b}");
        }
    }

    /// Sparse FC forward == dense FC forward.
    #[test]
    fn sparse_fc_matches_dense(x in arb_sparse_input(3, 4, 4), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fc = FullyConnected::new("eq", 48, 7, &mut rng);
        let sparse = SparseActivation::from_dense(&x, 0.0);
        let mut scratch = GemmScratch::new();
        let via_sparse = fc
            .forward_sparse(&sparse, &mut scratch)
            .expect("fc has a sparse path");
        assert_close(&via_sparse, &fc.forward(&x), "sparse fc");
    }

    /// The sparse suffix entry point == the dense suffix across every
    /// possible split of a conv/pool/relu/fc stack.
    #[test]
    fn suffix_sparse_matches_dense(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Network::new("eq", Shape3::new(1, 8, 8));
        net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(MaxPool2d::new("pool1", 2, 2)));
        net.push(Box::new(Conv2d::new("conv2", 4, 8, 3, 1, 1, &mut rng)));
        net.push(Box::new(Relu::new("relu2")));
        net.push(Box::new(FullyConnected::new("fc1", 8 * 4 * 4, 5, &mut rng)));
        let input = Tensor3::from_fn(Shape3::new(1, 8, 8), |_, y, x| {
            (((y * 8 + x + seed as usize) % 23) as f32 - 11.0) * 0.08
        });
        let mut scratch = GemmScratch::new();
        for target in 0..net.len() - 1 {
            let act = net.forward_prefix(&input, target);
            let dense_out = net.forward_suffix(&act, target);
            let sparse = SparseActivation::from_dense(&act, 0.0);
            let sparse_out = net.forward_suffix_sparse(&sparse, target, &mut scratch);
            assert_close(&sparse_out, &dense_out, "suffix split");
        }
    }
}

/// The served suffixes: at both of every zoo network's targets the sparse
/// suffix entry point — an AXPY-fed FC head late, a densified conv head
/// early — equals the dense suffix on the densified activation, bit for
/// bit.
#[test]
fn zoo_suffix_sparse_bit_identical_to_dense() {
    let mut scratch = GemmScratch::new();
    for zoo in [tiny_fasterm(11), tiny_faster16(12), tiny_alexnet(13)] {
        let net = &zoo.network;
        for seed in 0..3usize {
            let frame = Tensor3::from_fn(net.input_shape(), |_, y, x| {
                ((y * 7 + x * 13 + seed * 5) % 31) as f32 / 31.0
            });
            for target in [zoo.early_target, zoo.late_target] {
                let sparse = SparseActivation::from_dense(&net.forward_prefix(&frame, target), 0.0);
                let got = net.forward_suffix_sparse(&sparse, target, &mut scratch);
                let want = net.forward_suffix(&sparse.to_dense(), target);
                let bits = |t: &Tensor3| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} target {target} seed {seed}",
                    net.name()
                );
            }
        }
    }
}

/// Degenerate geometries that property sampling may miss.
#[test]
fn empty_output_and_one_by_one_kernels() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    // 1x1 kernel, stride 2: pure channel mixing with subsampling.
    let conv = Conv2d::new("k1", 2, 3, 1, 2, 0, &mut rng);
    let input = Tensor3::from_fn(Shape3::new(2, 5, 5), |c, y, x| (c + y + x) as f32 * 0.2);
    assert_eq!(conv.forward(&input), conv.forward_naive(&input));
    // Kernel larger than the unpadded input (valid only via padding).
    let conv = Conv2d::new("big", 1, 1, 5, 1, 2, &mut rng);
    let small = Tensor3::filled(Shape3::new(1, 3, 3), 1.0);
    let out = conv.forward(&small);
    assert_eq!(out, conv.forward_naive(&small));
}
