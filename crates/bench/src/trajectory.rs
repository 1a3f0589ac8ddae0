//! The `BENCH_conv.json` measurement suite, shared by the `bench_conv`
//! trajectory writer and the `bench_gate` CI regression gate.
//!
//! Timing methodology matches the criterion shim: calibrate iterations so
//! one sample takes a target wall-clock duration, take N samples, report
//! the median per-iteration time (median is robust to scheduler noise).
//! [`Mode::Quick`] shrinks both knobs so a full suite run finishes in a few
//! seconds — absolute numbers get noisier, but the *ratios* the gate tracks
//! (speedups of one in-process implementation over another) stay stable
//! because both sides of each ratio see the same machine and the same
//! noise.

use eva2_cnn::layer::{Conv2d, Layer};
use eva2_cnn::zoo;
use eva2_core::executor::{AmcConfig, AmcExecutor};
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::Engine;
use eva2_core::sparse::RleActivation;
use eva2_core::warp::{warp_activation, warp_activation_sparse};
use eva2_motion::rfbme::{Rfbme, SearchParams};
use eva2_tensor::gemm::{gemm_nn, GemmScratch};
use eva2_tensor::interp::Interpolation;
use eva2_tensor::{GrayImage, Shape3, SparseActivation, Tensor3};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Measurement effort: the committed trajectory uses [`Mode::Full`]; CI's
/// regression gate uses [`Mode::Quick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ~5 ms samples × 15 — the committed-trajectory methodology.
    Full,
    /// ~1 ms samples × 5 — finishes the whole suite in seconds.
    Quick,
}

impl Mode {
    fn target_sample_ns(self) -> u64 {
        match self {
            Mode::Full => 5_000_000,
            Mode::Quick => 1_000_000,
        }
    }

    fn samples(self) -> usize {
        match self {
            Mode::Full => 15,
            Mode::Quick => 5,
        }
    }

    /// Warmup budget, deliberately identical in both modes: entries with
    /// microsecond bodies need on the order of a thousand iterations before
    /// caches and branch predictors reach steady state, and a mode-skewed
    /// warmup would bias Quick-vs-Full *ratios* — exactly what the gate
    /// compares — rather than just widening their noise.
    fn warmup_ns(self) -> u64 {
        5_000_000
    }
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Entry {
    /// `group/path/id` benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// The full measurement set backing `BENCH_conv.json`.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Every timed benchmark, in measurement order.
    pub entries: Vec<Entry>,
    /// Conv forward: naive over the direct kernel (scratch path).
    pub conv_speedup: f64,
    /// Suffix-from-RLE: densify-then-dense over sparse-aware, per sparsity.
    pub suffix_speedups: Vec<(f32, f64)>,
    /// End-to-end AMC: key frame over predicted frame (serial executor).
    pub key_over_predicted: f64,
    /// RFBME: the two-stage reference model over the dense vectorised
    /// fast path (the same exhaustive search).
    pub rfbme_reference_over_fast: f64,
    /// Predicted-frame tail (warp + sparse suffix): dense-intermediate
    /// (warp → dense tensor → `from_dense` → suffix) over the fused
    /// warp→sparse path the serving engine runs.
    pub predicted_frame_fused_over_dense: f64,
    /// Audited heap footprint (bytes) of one serving session holding key
    /// state for the FasterM analogue — the figure the serving engine's
    /// memory budgets ([`EngineLimits::max_session_bytes`] /
    /// `max_total_bytes`) are enforced against. Tracked so a PR that
    /// bloats per-stream state shows up in the trajectory.
    ///
    /// [`EngineLimits::max_session_bytes`]: eva2_core::serve::EngineLimits
    pub session_memory_footprint: f64,
}

/// One speedup ratio the CI gate compares against the committed trajectory.
#[derive(Debug, Clone)]
pub struct TrackedRatio {
    /// Dotted JSON key in `BENCH_conv.json`.
    pub key: String,
    /// The freshly measured value.
    pub value: f64,
    /// *Advisory* figures make `bench_gate` warn on regression instead of
    /// failing unless `EVA2_BENCH_STRICT=1` is set. Only the session-memory
    /// capacity figure is one (it moves with the toolchain, not the code);
    /// in-process algorithm-vs-algorithm ratios divide out the host and
    /// stay strict.
    pub advisory: bool,
}

/// Median ns/iter of `f` under the mode's sampling plan.
fn time_ns(mode: Mode, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1) as u64;
    let iters = (mode.target_sample_ns() / once).clamp(1, 1 << 20);
    // Warmup (same budget in every mode — see [`Mode::warmup_ns`]).
    for _ in 0..(mode.warmup_ns() / once).clamp(1, 1 << 20) {
        f();
    }
    let samples = mode.samples();
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

/// The 48×48 drifting test pattern every end-to-end entry uses.
fn frame(shift: usize) -> GrayImage {
    GrayImage::from_fn(48, 48, |y, x| {
        (125.0 + 50.0 * ((y as f32 * 0.29).sin() + ((x + shift) as f32 * 0.21).cos())) as u8
    })
}

/// Runs the whole suite, printing one line per entry.
pub fn measure(mode: Mode) -> Measurements {
    let mut entries: Vec<Entry> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        println!("{name:<44} {ns:>12.1} ns/iter");
        entries.push(Entry {
            name: name.to_string(),
            median_ns: ns,
        });
    };

    // ------------------------------------------------------------------
    // Conv forward: naive vs the direct kernel on a representative
    // mid-network layer (entry names keep their historical `gemm` label).
    // ------------------------------------------------------------------
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let conv = Conv2d::new("bench", 16, 32, 3, 1, 1, &mut rng);
    let input = Tensor3::from_fn(Shape3::new(16, 32, 32), |c, y, x| {
        (((c * 31 + y * 7 + x) % 23) as f32 - 11.0) * 0.1
    });
    let naive = time_ns(mode, || {
        black_box(conv.forward_naive(black_box(&input)));
    });
    record("conv_forward/naive/16x32x32_k3", naive);
    let gemm = time_ns(mode, || {
        black_box(conv.forward(black_box(&input)));
    });
    record("conv_forward/gemm/16x32x32_k3", gemm);
    let mut scratch = GemmScratch::new();
    let gemm_scratch = time_ns(mode, || {
        black_box(conv.forward_scratch(black_box(&input), &mut scratch));
    });
    record("conv_forward/gemm_scratch/16x32x32_k3", gemm_scratch);
    let conv_speedup = naive / gemm_scratch;
    println!("conv speedup (naive / gemm_scratch): {conv_speedup:.2}x");

    // ------------------------------------------------------------------
    // Raw GEMM: the register-blocked micro-kernel on the exact product the
    // conv benchmark lowers to (the key-frame prefix critical-path shape).
    // ------------------------------------------------------------------
    let (gm, gn, gk) = (32usize, 1024usize, 144usize);
    let ga: Vec<f32> = (0..gm * gk)
        .map(|i| ((i * 17) % 23) as f32 * 0.1 - 1.1)
        .collect();
    let gb: Vec<f32> = (0..gk * gn)
        .map(|i| ((i * 13) % 19) as f32 * 0.1 - 0.9)
        .collect();
    let mut gc = vec![0.0f32; gm * gn];
    let micro_ns = time_ns(mode, || {
        gc.fill(0.0);
        gemm_nn(gm, gn, gk, black_box(&ga), black_box(&gb), &mut gc);
        black_box(&gc);
    });
    record("gemm_micro/microkernel/32x1024x144", micro_ns);
    let gflops = (2 * gm * gn * gk) as f64 / micro_ns;
    println!("gemm microkernel: {gflops:.1} GFLOP/s");

    // A strided large-kernel geometry (AlexNet-like first layer shape).
    let conv2 = Conv2d::new("bench2", 3, 24, 5, 2, 2, &mut rng);
    let input2 = Tensor3::from_fn(Shape3::new(3, 48, 48), |c, y, x| {
        (((c * 7 + y * 3 + x) % 17) as f32 - 8.0) * 0.1
    });
    let naive2 = time_ns(mode, || {
        black_box(conv2.forward_naive(black_box(&input2)));
    });
    record("conv_forward/naive/3x48x48_k5s2", naive2);
    let gemm2 = time_ns(mode, || {
        black_box(conv2.forward_scratch(black_box(&input2), &mut scratch));
    });
    record("conv_forward/gemm_scratch/3x48x48_k5s2", gemm2);

    let z = zoo::tiny_fasterm(0);
    let target = z.late_target;

    // ------------------------------------------------------------------
    // Suffix from the RLE store: densify-then-dense vs sparse-aware.
    // ------------------------------------------------------------------
    let shape = z.network.shape_after(target);
    let mut suffix_speedups: Vec<(f32, f64)> = Vec::new();
    for sparsity in [0.5f32, 0.8, 0.95] {
        let act = Tensor3::from_fn(shape, |c, y, x| {
            let i = (c * 131 + y * 17 + x * 3) % 1000;
            if (i as f32) < sparsity * 1000.0 {
                0.0
            } else {
                (i as f32) * 0.004
            }
        });
        let rle = RleActivation::encode(&act, 0.0);
        let pct = (sparsity * 100.0) as u32;
        let densify = time_ns(mode, || {
            let dense = rle.decode();
            black_box(z.network.forward_suffix(&dense, target));
        });
        record(&format!("suffix/densify_dense/{pct}pct"), densify);
        let sparse = time_ns(mode, || {
            let s = rle.to_sparse();
            black_box(z.network.forward_suffix_sparse(&s, target, &mut scratch));
        });
        record(&format!("suffix/sparse_aware/{pct}pct"), sparse);
        suffix_speedups.push((sparsity, densify / sparse));
        println!(
            "suffix speedup at {pct}% sparsity: {:.2}x",
            densify / sparse
        );
    }

    // ------------------------------------------------------------------
    // RFBME at the executor's geometry: the dense vectorised fast path vs
    // the two-stage reference model.
    // ------------------------------------------------------------------
    let f0 = frame(0);
    let f1 = frame(1);
    let probe = AmcExecutor::try_new(&z.network, AmcConfig::default()).unwrap();
    let rf_geom = probe.rf_geometry();
    let rfbme = Rfbme::new(rf_geom, SearchParams { radius: 8, step: 1 });
    drop(probe);
    let rfbme_fast = time_ns(mode, || {
        black_box(rfbme.estimate(black_box(&f0), black_box(&f1)));
    });
    record("rfbme/fast/48x48_r8s1", rfbme_fast);
    let rfbme_reference = time_ns(mode, || {
        black_box(rfbme.estimate_reference(black_box(&f0), black_box(&f1)));
    });
    record("rfbme/reference/48x48_r8s1", rfbme_reference);
    let rfbme_reference_over_fast = rfbme_reference / rfbme_fast;
    println!("rfbme speedup (reference / fast): {rfbme_reference_over_fast:.2}x");

    // ------------------------------------------------------------------
    // Predicted-frame tail: warp + sparse suffix, fused warp→sparse (the
    // serving path) vs the PR-4 dense-intermediate. Key state is prepared
    // once outside the timed bodies, exactly as a session would hold it.
    // ------------------------------------------------------------------
    let predicted_frame_fused_over_dense = {
        let cfg = AmcConfig::default();
        let act = z
            .network
            .forward_prefix_scratch(&f0.to_tensor(), target, &mut scratch);
        let rle = RleActivation::encode(&act, cfg.sparsity_threshold);
        let decoded = rle.to_sparse().to_dense();
        let motion = rfbme.estimate(&f0, &f1);
        let dense = time_ns(mode, || {
            let (warped, _) = warp_activation(
                black_box(&decoded),
                black_box(&motion.field),
                rf_geom.stride,
                Interpolation::Bilinear,
            );
            let sparse = SparseActivation::from_dense(&warped, 0.0);
            black_box(
                z.network
                    .forward_suffix_sparse(&sparse, target, &mut scratch),
            );
        });
        record("predicted_tail/warp_dense_suffix/fasterm", dense);
        let fused = time_ns(mode, || {
            let (sparse, _) = warp_activation_sparse(
                black_box(&decoded),
                black_box(&motion.field),
                rf_geom.stride,
                Interpolation::Bilinear,
            );
            black_box(
                z.network
                    .forward_suffix_sparse(&sparse, target, &mut scratch),
            );
        });
        record("predicted_tail/warp_fused_suffix/fasterm", fused);
        println!(
            "predicted tail speedup (dense intermediate / fused): {:.2}x",
            dense / fused
        );
        dense / fused
    };

    // ------------------------------------------------------------------
    // End-to-end AMC frames (FasterM analogue).
    // ------------------------------------------------------------------
    let always_key = AmcConfig {
        policy: PolicyConfig::AlwaysKey,
        ..Default::default()
    };
    let mut amc = AmcExecutor::try_new(&z.network, always_key).unwrap();
    amc.process(&f0);
    let key_ns = time_ns(mode, || {
        black_box(amc.process(black_box(&f1)));
    });
    record("pipeline/key_frame/fasterm", key_ns);
    let never_key = AmcConfig {
        policy: PolicyConfig::BlockError {
            threshold: f32::INFINITY,
            max_gap: usize::MAX,
        },
        ..Default::default()
    };
    let mut amc = AmcExecutor::try_new(&z.network, never_key).unwrap();
    amc.process(&f0);
    let pred_ns = time_ns(mode, || {
        black_box(amc.process(black_box(&f1)));
    });
    record("pipeline/predicted_frame/fasterm", pred_ns);
    println!("key/predicted frame ratio: {:.2}x", key_ns / pred_ns);

    // ------------------------------------------------------------------
    // Serving-session memory: the audited footprint one stream holds in
    // steady state (struct + key image + RLE/sparse/decoded activations +
    // RFBME scratch). Not a timing — a capacity figure for the lifecycle
    // budgets.
    // ------------------------------------------------------------------
    let session_memory_footprint = {
        let net = Arc::new(zoo::tiny_fasterm(0).network);
        let mut engine =
            Engine::new(net, AmcConfig::default()).expect("default serving config is valid");
        let mut session = engine
            .open_session()
            .expect("unlimited engine has capacity");
        engine.process(&mut session, &f0).expect("admitted");
        engine.process(&mut session, &f1).expect("admitted");
        let bytes = session.memory_footprint();
        println!("session memory footprint (steady state): {bytes} bytes");
        bytes as f64
    };

    Measurements {
        entries,
        conv_speedup,
        suffix_speedups,
        key_over_predicted: key_ns / pred_ns,
        rfbme_reference_over_fast,
        predicted_frame_fused_over_dense,
        session_memory_footprint,
    }
}

impl Measurements {
    /// Renders the `BENCH_conv.json` document.
    pub fn to_json(&self) -> String {
        let mut body = String::from("{\n  \"bench\": \"conv_engine\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                body,
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}}}",
                e.name, e.median_ns
            );
            body.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = write!(
            body,
            "  ],\n  \"conv_speedup_naive_over_gemm\": {:.2},\n  \"suffix_speedup_sparse_over_densify\": {{\n",
            self.conv_speedup
        );
        for (i, (s, x)) in self.suffix_speedups.iter().enumerate() {
            let _ = write!(body, "    \"{:.0}pct\": {x:.2}", s * 100.0);
            body.push_str(if i + 1 < self.suffix_speedups.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = write!(
            body,
            "  }},\n  \"key_over_predicted_frame\": {:.2},\n  \"rfbme_reference_over_fast\": {:.2},\n  \"predicted_frame_fused_over_dense\": {:.2},\n  \"session_memory_footprint\": {:.0}\n}}\n",
            self.key_over_predicted,
            self.rfbme_reference_over_fast,
            self.predicted_frame_fused_over_dense,
            self.session_memory_footprint
        );
        body
    }

    /// The speedup ratios the CI gate tracks. Ratios (not absolute times)
    /// are tracked because they divide out the host machine's speed; the
    /// one figure that is not a ratio carries `advisory: true` — see
    /// [`TrackedRatio`].
    pub fn tracked_ratios(&self) -> Vec<TrackedRatio> {
        let strict = |key: &str, value: f64| TrackedRatio {
            key: key.to_string(),
            value,
            advisory: false,
        };
        let mut v = vec![strict("conv_speedup_naive_over_gemm", self.conv_speedup)];
        for (s, x) in &self.suffix_speedups {
            v.push(strict(
                &format!("suffix_speedup_sparse_over_densify.{:.0}pct", s * 100.0),
                *x,
            ));
        }
        v.push(strict("key_over_predicted_frame", self.key_over_predicted));
        v.push(strict(
            "rfbme_reference_over_fast",
            self.rfbme_reference_over_fast,
        ));
        v.push(strict(
            "predicted_frame_fused_over_dense",
            self.predicted_frame_fused_over_dense,
        ));
        // A capacity figure, not a speedup: `Vec` growth policy and
        // allocator round-up differ across toolchains, so byte-for-byte
        // bands would flake on a toolchain bump. Advisory keeps bloat
        // visible without gating on it.
        v.push(TrackedRatio {
            key: "session_memory_footprint".to_string(),
            value: self.session_memory_footprint,
            advisory: true,
        });
        v
    }
}

/// Extracts `"key": <number>` from a JSON document, addressing nested keys
/// with dots (`"suffix_speedup_sparse_over_densify.50pct"`). Minimal by
/// design: it only needs to read back the flat documents this module
/// writes.
pub fn extract_number(json: &str, dotted_key: &str) -> Option<f64> {
    let leaf = dotted_key.rsplit('.').next()?;
    let needle = format!("\"{leaf}\":");
    let mut search_from = 0;
    while let Some(pos) = json[search_from..].find(&needle) {
        let after = search_from + pos + needle.len();
        let rest = json[after..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(rest.len());
        if end > 0 {
            if let Ok(x) = rest[..end].parse::<f64>() {
                return Some(x);
            }
        }
        search_from = after;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_reads_flat_and_nested_keys() {
        let doc = "{\n  \"a\": 16.62,\n  \"nest\": {\n    \"50pct\": 4.48,\n    \"80pct\": 11.63\n  },\n  \"z\": -2.5\n}\n";
        assert_eq!(extract_number(doc, "a"), Some(16.62));
        assert_eq!(extract_number(doc, "nest.50pct"), Some(4.48));
        assert_eq!(extract_number(doc, "nest.80pct"), Some(11.63));
        assert_eq!(extract_number(doc, "z"), Some(-2.5));
        assert_eq!(extract_number(doc, "missing"), None);
    }

    #[test]
    fn json_roundtrips_through_extract_number() {
        let m = Measurements {
            entries: vec![Entry {
                name: "x/y".into(),
                median_ns: 123.4,
            }],
            conv_speedup: 17.25,
            suffix_speedups: vec![(0.5, 4.5), (0.8, 11.0)],
            key_over_predicted: 1.21,
            rfbme_reference_over_fast: 6.8,
            predicted_frame_fused_over_dense: 1.4,
            session_memory_footprint: 123456.0,
        };
        let json = m.to_json();
        for ratio in m.tracked_ratios() {
            let read = extract_number(&json, &ratio.key)
                .unwrap_or_else(|| panic!("{} missing from {json}", ratio.key));
            assert!(
                (read - ratio.value).abs() < 0.01,
                "{}: {read} vs {}",
                ratio.key,
                ratio.value
            );
        }
    }

    #[test]
    fn only_host_marginal_ratios_are_advisory() {
        let m = Measurements {
            entries: Vec::new(),
            conv_speedup: 1.0,
            suffix_speedups: vec![(0.5, 1.0)],
            key_over_predicted: 1.0,
            rfbme_reference_over_fast: 1.0,
            predicted_frame_fused_over_dense: 1.0,
            session_memory_footprint: 1.0,
        };
        let advisory: Vec<String> = m
            .tracked_ratios()
            .into_iter()
            .filter(|r| r.advisory)
            .map(|r| r.key)
            .collect();
        assert_eq!(advisory, vec!["session_memory_footprint"]);
    }
}
