//! Property tests pinning the packed micro-kernel GEMM to the schoolbook
//! reference at every blocking-edge geometry.
//!
//! The micro-kernel driver has three places where ragged shapes can go
//! wrong: M tails (zero-padded A panels, `MR`-row granularity), N tails
//! (zero-padded B panels, `NR`-column granularity), and K tails (shortened
//! depth loops). The dimension strategies below therefore sample exactly
//! the values that straddle those boundaries — `1`, `MR±1`, `MR`, `NR±1`,
//! `NR`, and odd K values — for all three transpose variants.

use eva2_tensor::gemm::{gemm_nn, gemm_nt, gemm_tn, MR, NR};
use proptest::prelude::*;

const TOL: f32 = 1e-3;

/// Deterministic pseudo-random fill so failures shrink reproducibly.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) % 1000) as f32 * 0.002 - 1.0
        })
        .collect()
}

/// Edge values for M and N: 1, and ±1 around both tile dimensions.
fn edge_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(MR - 1),
        Just(MR),
        Just(MR + 1),
        Just(NR - 1),
        Just(NR),
        Just(NR + 1),
    ]
}

/// Edge values for K: the M/N edges plus odd depths that leave ragged
/// tails in the kernel's depth loop.
fn edge_k() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(MR - 1),
        Just(MR),
        Just(MR + 1),
        Just(NR - 1),
        Just(NR),
        Just(NR + 1),
        Just(7usize),
        Just(33usize),
    ]
}

fn ref_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] += a[i * k + p] * b[p * n + j];
            }
        }
    }
}

fn ref_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[i * n + j] += a[i * k + p] * b[j * k + p];
            }
        }
    }
}

fn ref_tn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                c[p * n + j] += a[i * k + p] * b[i * n + j];
            }
        }
    }
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= TOL * (1.0 + w.abs()),
            "{what}[{idx}]: {g} vs {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three transpose variants match the schoolbook triple loop at
    /// every combination of blocking-edge dimensions.
    #[test]
    fn transpose_variants_match_schoolbook_at_edges(
        m in edge_dim(),
        n in edge_dim(),
        k in edge_k(),
        seed in 0u64..1_000_000,
    ) {
        let a = fill(m * k, seed);
        let b_nn = fill(k * n, seed ^ 1);
        let c0 = fill(m * n, seed ^ 2);

        let mut got = c0.clone();
        gemm_nn(m, n, k, &a, &b_nn, &mut got);
        let mut want = c0.clone();
        ref_nn(m, n, k, &a, &b_nn, &mut want);
        assert_close(&got, &want, "gemm_nn");

        let b_nt = fill(n * k, seed ^ 3);
        let mut got = c0.clone();
        gemm_nt(m, n, k, &a, &b_nt, &mut got);
        let mut want = c0;
        ref_nt(m, n, k, &a, &b_nt, &mut want);
        assert_close(&got, &want, "gemm_nt");

        let b_tn = fill(m * n, seed ^ 4);
        let ct0 = fill(k * n, seed ^ 5);
        let mut got = ct0.clone();
        gemm_tn(m, n, k, &a, &b_tn, &mut got);
        let mut want = ct0;
        ref_tn(m, n, k, &a, &b_tn, &mut want);
        assert_close(&got, &want, "gemm_tn");
    }

    /// The micro-kernel agrees with the schoolbook loop at arbitrary (not
    /// just edge) sizes, including multi-block depths. (The name dates from
    /// when the reference here was a second, AXPY-panel kernel.)
    #[test]
    fn micro_matches_axpy_at_random_sizes(
        m in 1usize..24,
        n in 1usize..40,
        k in 1usize..300,
        seed in 0u64..1_000_000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 1);
        let c0 = fill(m * n, seed ^ 2);
        let mut micro = c0.clone();
        gemm_nn(m, n, k, &a, &b, &mut micro);
        let mut want = c0;
        ref_nn(m, n, k, &a, &b, &mut want);
        assert_close(&micro, &want, "micro vs schoolbook");
    }
}
