//! Cross-crate property-based tests on AMC invariants.

use eva2::amc::sparse::RleActivation;
use eva2::amc::warp::{warp_activation, warp_activation_fixed};
use eva2::motion::field::{MotionVector, VectorField};
use eva2::motion::rfbme::{RfGeometry, Rfbme, SearchParams};
use eva2::tensor::interp::Interpolation;
use eva2::tensor::{fixed, GrayImage, Shape3, Tensor3};
use proptest::prelude::*;

fn arb_activation() -> impl Strategy<Value = Tensor3> {
    (1usize..4, 3usize..8, 3usize..8).prop_flat_map(|(c, h, w)| {
        let shape = Shape3::new(c, h, w);
        proptest::collection::vec(
            prop_oneof![3 => Just(0.0f32), 2 => -20.0f32..20.0],
            shape.len(),
        )
        .prop_map(move |v| Tensor3::from_vec(shape, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RLE encode/decode is lossless on the Q8.8 grid for any sparsity
    /// pattern.
    #[test]
    fn rle_roundtrip(t in arb_activation()) {
        let quantized = t.map(eva2::tensor::fixed::quantize);
        let rle = RleActivation::encode(&quantized, 0.0);
        prop_assert_eq!(rle.decode(), quantized);
    }

    /// RLE never grows storage beyond one entry per element.
    #[test]
    fn rle_is_bounded(t in arb_activation()) {
        let rle = RleActivation::encode(&t, 0.0);
        prop_assert!(rle.encoded_bytes() <= 2 * rle.dense_bytes() + 8);
    }

    /// A zero vector field leaves the activation unchanged (bilinear and
    /// nearest).
    #[test]
    fn zero_field_warp_is_identity(t in arb_activation()) {
        let s = t.shape();
        let field = VectorField::zeros(s.height, s.width, 4);
        let (bi, _) = warp_activation(&t, &field, 4, Interpolation::Bilinear);
        prop_assert_eq!(&bi, &t);
        let (nn, _) = warp_activation(&t, &field, 4, Interpolation::NearestNeighbor);
        prop_assert_eq!(&nn, &t);
    }

    /// The fixed-point warp datapath tracks the float reference within a
    /// small multiple of the Q8.8 quantization step.
    #[test]
    fn fixed_warp_tracks_float(
        t in arb_activation(),
        dy in -6.0f32..6.0,
        dx in -6.0f32..6.0,
    ) {
        let s = t.shape();
        let field = VectorField::uniform(s.height, s.width, 4, MotionVector::new(dy, dx));
        let (float_out, _) = warp_activation(&t, &field, 4, Interpolation::Bilinear);
        let (fixed_out, _) = warp_activation_fixed(&t, &field, 4);
        // Weight quantization error scales with the *inputs'* magnitude
        // (each of the four Q8.8 weights may be off by half an LSB), not
        // with the interpolated output.
        let max_abs = t.max().abs().max(t.min().abs());
        let tol = 8.0 / fixed::SCALE as f32 * (1.0 + max_abs);
        for (a, b) in float_out.iter().zip(fixed_out.iter()) {
            prop_assert!((a - b).abs() <= tol, "{} vs {} (tol {})", a, b, tol);
        }
    }

    /// Warping never invents values outside the key activation's range
    /// (bilinear interpolation is a convex combination; out-of-bounds reads
    /// contribute zeros).
    #[test]
    fn warp_is_bounded(
        t in arb_activation(),
        dy in -8.0f32..8.0,
        dx in -8.0f32..8.0,
    ) {
        let s = t.shape();
        let field = VectorField::uniform(s.height, s.width, 4, MotionVector::new(dy, dx));
        let (out, _) = warp_activation(&t, &field, 4, Interpolation::Bilinear);
        let lo = t.min().min(0.0) - 1e-4;
        let hi = t.max().max(0.0) + 1e-4;
        for &v in out.as_slice() {
            prop_assert!(v >= lo && v <= hi, "warped {} outside [{}, {}]", v, lo, hi);
        }
    }

    /// RFBME exactly recovers any global integer translation inside its
    /// search radius on a textured frame (away from the border fill).
    #[test]
    fn rfbme_recovers_global_translation(dy in -3isize..=3, dx in -3isize..=3) {
        let key = GrayImage::from_fn(40, 40, |y, x| {
            (128.0
                + 50.0 * ((y as f32 * 0.37).sin() + (x as f32 * 0.29).cos())
                + 20.0 * (((y * 3 + x * 7) % 13) as f32 / 13.0)) as u8
        });
        let new = key.translate(dy, dx, 0);
        let rfbme = Rfbme::new(
            RfGeometry { size: 8, stride: 4, padding: 0 },
            SearchParams { radius: 4, step: 1 },
        );
        let r = rfbme.estimate(&key, &new);
        let g = r.field.grid_h();
        let center = r.field.get(g / 2, g / 2);
        prop_assert_eq!(center, MotionVector::new(-dy as f32, -dx as f32));
    }

    /// The receptive field of a runtime conv/pool stack agrees with the one
    /// `eva2-analysis` folds over the same stack described for `eva2-hw`.
    #[test]
    fn receptive_field_impls_agree(
        k1 in 1usize..6, s1 in 1usize..3, p1 in 0usize..3,
        k2 in 1usize..4, s2 in 1usize..3,
    ) {
        use eva2::cnn::layer::{Conv2d, Layer, MaxPool2d};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new("c", 1, 1, k1, s1, p1, &mut rng)),
            Box::new(MaxPool2d::new("p", k2, s2)),
        ];
        let rf = eva2::cnn::receptive::ReceptiveField::of_prefix(&layers);
        let desc = eva2::hw::NetDescriptor::new("x", (1, 64, 64))
            .conv("c", 1, 1, k1, s1, p1)
            .pool("p", k2, s2);
        let amc = eva2::hw::cost::AmcCostConfig { target: Some(1), ..Default::default() };
        let (size, stride, padding) = eva2::hw::HwModel { amc }.figures(&desc).receptive_field;
        prop_assert_eq!(rf.size, size);
        prop_assert_eq!(rf.stride, stride);
        prop_assert_eq!(rf.padding, padding);
    }

    /// The hardware cost model is monotone in the key-frame fraction.
    #[test]
    fn average_cost_monotone_in_key_fraction(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let model = eva2::hw::HwModel::default();
        let net = eva2::hw::nets::fasterm();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = model.average_cost(&net, lo);
        let c_hi = model.average_cost(&net, hi);
        prop_assert!(c_lo.energy_mj <= c_hi.energy_mj + 1e-9);
        prop_assert!(c_lo.latency_ms <= c_hi.latency_ms + 1e-9);
    }

    /// Golden equivalence of the sparse suffix feed through the Q8.8 warp
    /// datapath, end to end: quantize → RLE → warp (bit-accurate fixed
    /// point) → suffix. Feeding the suffix from the warped activation's
    /// non-zero entries must match the dense reference within 1e-4.
    #[test]
    fn fixed_point_warp_sparse_suffix_matches_dense(
        t in arb_activation(),
        dy in -4.0f32..4.0,
        dx in -4.0f32..4.0,
        seed in 0u64..100,
    ) {
        use eva2::cnn::layer::{FullyConnected, Relu};
        use eva2::cnn::network::Network;
        use eva2::tensor::gemm::GemmScratch;
        use eva2::tensor::SparseActivation;
        use rand::SeedableRng;

        let s = t.shape();
        // The stored key activation, exactly as the hardware holds it.
        let rle = RleActivation::encode(&t, 0.0);
        let decoded = rle.decode();
        prop_assert_eq!(rle.to_sparse().to_dense(), decoded.clone());

        // Warp through the bit-accurate Q8.8 datapath.
        let field = VectorField::uniform(s.height, s.width, 4, MotionVector::new(dy, dx));
        let (warped, _) = warp_activation_fixed(&decoded, &field, 4);

        // Suffix [fc] beyond target layer 0 (the relu standing in for the
        // prefix's last layer), fed dense vs sparse.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut net = Network::new("suffix", s);
        net.push(Box::new(Relu::new("target")));
        net.push(Box::new(FullyConnected::new("fc", s.len(), 6, &mut rng)));
        let dense_out = net.forward_suffix(&warped, 0);
        let mut scratch = GemmScratch::new();
        let sparse_out = net.forward_suffix_sparse(
            &SparseActivation::from_dense(&warped, 0.0),
            0,
            &mut scratch,
        );
        for (a, b) in sparse_out.iter().zip(dense_out.iter()) {
            prop_assert!((a - b).abs() <= 1e-4, "{} vs {}", a, b);
        }
    }
}
