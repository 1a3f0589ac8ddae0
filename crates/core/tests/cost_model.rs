//! Runtime cross-checks for the static cost model (`eva2-analysis`'s cost
//! pass) and the session memory bound: the analysis numbers are *claims
//! about this engine*, so every claim is pinned against what the engine
//! actually does.
//!
//! - Key-frame and predicted-frame MAC counts must match
//!   [`AmcFrameResult::macs_executed`] **exactly** — to the MAC, for every
//!   zoo network at both paper targets and for randomized architectures.
//! - RFBME ops must equal their static count; warp interpolations must stay
//!   under their static bound.
//! - [`session_memory_bound`] must dominate the audited
//!   [`StreamSession::memory_footprint`] without being uselessly loose
//!   (within 2×). Both sides are key state only: RFBME scratch belongs to
//!   the engine's workers, so neither counts it.
//! - The SLO capacity planner must reproduce the measured
//!   `BENCH_serve.json` operating point from first principles.

use eva2_cnn::layer::{Conv2d, FullyConnected, MaxPool2d, Relu};
use eva2_cnn::network::Network;
use eva2_cnn::zoo::{self, Workload};
use eva2_core::executor::AmcConfig;
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::{session_memory_bound, Engine, EngineLimits};
use eva2_core::target::TargetSelection;
use eva2_tensor::{GrayImage, Shape3};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A textured frame with a per-step horizontal pan, sized for `net`'s
/// input, so predicted frames exercise real motion search and warping.
fn panned_frame(net: &Network, t: usize) -> GrayImage {
    let shape = net.input_shape();
    GrayImage::from_fn(shape.height, shape.width, |y, x| {
        let xs = (x + 2 * t) as f32;
        (120.0 + 46.0 * ((y as f32 * 0.27).sin() + (xs * 0.21).cos())) as u8
    })
}

/// A policy that makes frame 0 a key frame and every later frame
/// predicted, so each cost-model figure is observable in isolation.
fn predicted_after_first(target: TargetSelection) -> AmcConfig {
    AmcConfig::builder()
        .target(target)
        .policy(PolicyConfig::StaticRate { period: 1000 })
        .max_residual_error(f32::INFINITY)
        .build()
        .expect("valid config")
}

/// Runs one key frame and `predicted` predicted frames, asserting every
/// static claim against the live engine.
fn check_net_against_cost_model(net: &Network, target: TargetSelection, predicted: usize) {
    let config = predicted_after_first(target);
    let report = config.analyze(net).expect("analyzable network");
    let cost = report
        .cost
        .as_ref()
        .unwrap_or_else(|| panic!("{}: cost model must build", net.name()));

    let mut engine = Engine::new(Arc::new(net.clone()), config).expect("valid engine");
    let mut session = engine.open_session().expect("capacity");

    let key = engine
        .process(&mut session, &panned_frame(net, 0))
        .expect("admitted");
    assert!(key.is_key, "{}: first frame is a key frame", net.name());
    assert_eq!(
        key.macs_executed,
        cost.key_frame_macs,
        "{}: static key-frame MACs must match the engine exactly",
        net.name()
    );

    for t in 1..=predicted {
        let frame = engine
            .process(&mut session, &panned_frame(net, t))
            .expect("admitted");
        assert!(!frame.is_key, "{}: frame {t} is predicted", net.name());
        assert_eq!(
            frame.macs_executed,
            cost.predicted_frame_macs,
            "{}: static predicted-frame MACs must match the engine exactly",
            net.name()
        );
        assert_eq!(
            frame.rfbme_ops,
            cost.rfbme_ops_bound,
            "{}: static RFBME ops must match the engine exactly",
            net.name()
        );
    }
    let stats = session.stats();
    assert!(
        stats.warp_interpolations <= predicted as u64 * cost.warp_interpolations_bound,
        "{}: warp interpolations {} exceed {} frames x static bound {}",
        net.name(),
        stats.warp_interpolations,
        predicted,
        cost.warp_interpolations_bound
    );

    let bound = session_memory_bound(net, &engine.config()).expect("boundable");
    let measured = session.memory_footprint();
    assert!(
        bound >= measured,
        "{}: memory bound {bound} must dominate audited footprint {measured}",
        net.name()
    );
    assert!(
        bound <= measured.saturating_mul(2),
        "{}: memory bound {bound} is uselessly loose vs footprint {measured}",
        net.name()
    );
}

#[test]
fn static_costs_match_runtime_for_every_zoo_network_and_target() {
    for workload in Workload::ALL {
        let z = workload.build(0);
        for target in [TargetSelection::Early, TargetSelection::Late] {
            check_net_against_cost_model(&z.network, target, 3);
        }
    }
}

/// Builds a randomized but always-valid zoo-shaped network: `stages`
/// conv/relu/pool stages from `input` pixels, then a hidden FC layer.
fn random_net(input: usize, stages: usize, base_channels: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new("random", Shape3::new(1, input, input));
    let mut channels = 1usize;
    let mut side = input;
    for s in 0..stages {
        let out = base_channels << s;
        net.push(Box::new(Conv2d::new(
            "conv", channels, out, 3, 1, 1, &mut rng,
        )));
        net.push(Box::new(Relu::new("relu")));
        net.push(Box::new(MaxPool2d::new("pool", 2, 2)));
        channels = out;
        side /= 2;
    }
    net.push(Box::new(FullyConnected::new(
        "fc1",
        channels * side * side,
        16,
        &mut rng,
    )));
    net.push(Box::new(FullyConnected::new("fc2", 16, 8, &mut rng)));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary architectures and either paper target, the static
    /// model still matches the engine to the MAC and the memory bound
    /// still brackets the audited footprint.
    #[test]
    fn static_costs_match_runtime_for_random_architectures(
        input_pow in 4usize..6,      // 16 or 32 pixels
        stages in 1usize..3,
        base_channels in 2usize..9,
        late in 0usize..2,
        seed in 0u64..1024,
    ) {
        let net = random_net(1 << input_pow, stages, base_channels, seed);
        let target = if late == 1 {
            TargetSelection::Late
        } else {
            TargetSelection::Early
        };
        check_net_against_cost_model(&net, target, 2);
    }
}

/// Pulls `"key": <number>` out of the flat `BENCH_serve.json` without a
/// JSON dependency.
fn bench_field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("{key} in bench"));
    let rest = &json[at + pat.len()..];
    let end = rest.find([',', '}', '\n']).expect("terminated number");
    rest[..end].trim().parse().expect("numeric bench field")
}

#[test]
fn memory_bound_and_capacity_plan_match_serve_bench() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve.json"
    ))
    .expect("BENCH_serve.json at repo root");
    let per_session_bytes = bench_field(&json, "per_session_bytes") as usize;
    let slo_ms = bench_field(&json, "slo_ms");
    let streams = bench_field(&json, "streams_per_core_at_slo");

    // The bench serves `tiny_fasterm(0)` under the default config.
    let net = zoo::tiny_fasterm(0).network;
    let config = AmcConfig::default();

    let bound = session_memory_bound(&net, &config).expect("boundable");
    assert!(
        bound >= per_session_bytes,
        "static bound {bound} must dominate the bench's audited {per_session_bytes} B/session"
    );
    assert!(
        bound <= 2 * per_session_bytes,
        "static bound {bound} is uselessly loose vs the bench's {per_session_bytes} B/session"
    );

    // Round trip: the compute rate implied by the bench's measured
    // operating point (64 streams inside the SLO) must plan back to a
    // per-tick frame budget in the same regime — [streams/2, 2*streams].
    let report = config.analyze(&net).expect("analyzable");
    let cost = report.cost.expect("cost model builds");
    let key_gap = 16; // default policy: BlockError { max_gap: 16 }
    let amortized = (cost.key_frame_macs as f64
        + (key_gap - 1) as f64 * cost.predicted_ops_bound as f64)
        / key_gap as f64;
    let implied_gflops = streams * amortized * 2.0 / (slo_ms / 1e3) / 1e9;

    let limits = EngineLimits::builder()
        .derive_from_slo(&net, &config, slo_ms, implied_gflops)
        .expect("plannable")
        .build()
        .expect("valid limits");
    let frames = limits.max_frames_per_tick;
    assert!(
        (streams as usize / 2..=2 * streams as usize).contains(&frames),
        "planned {frames} frames/tick is out of regime vs the bench's {streams} streams"
    );
    assert!(limits.max_key_frames_per_tick <= frames);
    assert!(
        limits.max_total_bytes >= frames * per_session_bytes,
        "total byte budget must cover the planned fleet at the audited footprint"
    );
}
