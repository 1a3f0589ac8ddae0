//! Building and training the paper's three workloads on synthetic video.

use eva2_cnn::train::{self, ClsSample, DetSample, TrainConfig};
use eva2_cnn::zoo::{Task, Workload, ZooNet};
use eva2_video::dataset::{self, DatasetConfig, Split};
use eva2_video::frame::{Clip, Frame};
use eva2_video::scene::{MotionRegime, SceneConfig};
use std::path::{Path, PathBuf};

/// Sizes of the datasets and the training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Scene clips in the training set.
    pub train_clips: usize,
    /// Frames per training clip.
    pub train_clip_len: usize,
    /// Scene clips in each evaluation set.
    pub eval_clips: usize,
    /// Frames per evaluation clip (long enough for 198 ms gaps and policy
    /// runs).
    pub eval_clip_len: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Budget {
    /// The default experiment budget.
    pub fn full() -> Self {
        Self {
            train_clips: 480,
            train_clip_len: 3,
            eval_clips: 24,
            eval_clip_len: 25,
            epochs: 16,
        }
    }

    /// A reduced budget for smoke runs (`EVA2_QUICK=1`).
    pub fn quick() -> Self {
        Self {
            train_clips: 24,
            train_clip_len: 2,
            eval_clips: 6,
            eval_clip_len: 13,
            epochs: 3,
        }
    }

    /// Picks full or quick based on the environment.
    pub fn from_env() -> Self {
        if crate::quick_mode() {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// Dataset template for a workload: classification scenes for AlexNet
/// (32×32, dominant centred object), detection scenes for the Faster
/// variants (48×48, travelling object, camera pan).
pub fn dataset_config(workload: Workload, clips: usize, clip_len: usize) -> DatasetConfig {
    match workload {
        Workload::AlexNet => DatasetConfig {
            scene: SceneConfig::classification(32, 32),
            clips,
            clip_len,
            seed: 0xA1E,
            regime_mix: vec![
                MotionRegime::Frozen,
                MotionRegime::Smooth,
                MotionRegime::Smooth,
                MotionRegime::Medium,
            ],
        },
        Workload::Faster16 | Workload::FasterM => DatasetConfig {
            scene: SceneConfig::detection(48, 48),
            clips,
            clip_len,
            seed: 0xF0_0D ^ workload as u64,
            regime_mix: vec![
                MotionRegime::Smooth,
                MotionRegime::Medium,
                MotionRegime::Medium,
                MotionRegime::Chaotic,
            ],
        },
    }
}

/// Converts a frame to a classification training sample.
pub fn cls_sample(frame: &Frame) -> ClsSample {
    ClsSample {
        input: frame.image.to_tensor(),
        label: frame.truth.class,
    }
}

/// Converts a frame to a detection training sample (normalized box).
pub fn det_sample(frame: &Frame) -> DetSample {
    let h = frame.image.height() as f32;
    let w = frame.image.width() as f32;
    let (cy, cx) = frame.truth.bbox.center();
    DetSample {
        input: frame.image.to_tensor(),
        label: frame.truth.class,
        bbox: [
            cy / h,
            cx / w,
            frame.truth.bbox.h / h,
            frame.truth.bbox.w / w,
        ],
    }
}

/// A trained workload plus its evaluation clips.
#[derive(Debug)]
pub struct TrainedWorkload {
    /// Which paper workload this is.
    pub workload: Workload,
    /// The trained network and its AMC metadata.
    pub zoo: ZooNet,
    /// Held-out validation clips (threshold calibration).
    pub validation: Vec<Clip>,
    /// Held-out test clips (reported numbers).
    pub test: Vec<Clip>,
}

/// On-disk weight cache path for a (workload, budget) pair. Training is
/// deterministic, so the cache is purely an amortisation across the
/// experiment binaries (several of which train the same workload).
fn cache_path(workload: Workload, budget: &Budget) -> PathBuf {
    PathBuf::from("results").join(format!(
        "weights_{}_{}x{}e{}.f32",
        workload.name(),
        budget.train_clips,
        budget.train_clip_len,
        budget.epochs
    ))
}

/// First bytes of a weight cache file; bump the digits if the layout changes.
const CACHE_TAG: &[u8; 8] = b"EVA2WT01";

/// The cache header for layers of `lens` parameters: the tag, the layer
/// count, then each layer's length, all little-endian `u64`.
fn cache_header(lens: &[usize]) -> Vec<u8> {
    let mut header = CACHE_TAG.to_vec();
    for n in std::iter::once(lens.len()).chain(lens.iter().copied()) {
        header.extend_from_slice(&(n as u64).to_le_bytes());
    }
    header
}

/// A weight snapshot as the cache header followed by every parameter's
/// little-endian `f32` bits, layer after layer.
fn encode_snapshot(snapshot: &[Vec<f32>]) -> Vec<u8> {
    let lens: Vec<usize> = snapshot.iter().map(Vec::len).collect();
    let mut bytes = cache_header(&lens);
    for w in snapshot.iter().flatten() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Decodes [`encode_snapshot`]'s bytes for a network whose layers hold
/// `lens` parameters, or `None` when the tag, the layer count, any layer's
/// length or the byte count differs.
fn decode_snapshot(bytes: &[u8], lens: &[usize]) -> Option<Vec<Vec<f32>>> {
    let body = bytes.strip_prefix(cache_header(lens).as_slice())?;
    if body.len() != 4 * lens.iter().sum::<usize>() {
        return None;
    }
    let mut words = body
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    Some(
        lens.iter()
            .map(|&n| words.by_ref().take(n).collect())
            .collect(),
    )
}

/// Restores `zoo`'s weights from the cache at `path` when it matches the
/// network's shape; otherwise runs `train` and rewrites the cache. A cache
/// that cannot be written only costs the next run a retrain.
fn load_or_train(zoo: &mut ZooNet, path: &Path, train: impl FnOnce(&mut ZooNet)) {
    let lens: Vec<usize> = zoo
        .network
        .layers()
        .iter()
        .map(|l| l.param_count())
        .collect();
    let cached = std::fs::read(path)
        .ok()
        .and_then(|bytes| decode_snapshot(&bytes, &lens));
    if let Some(snapshot) = cached {
        zoo.network.restore(&snapshot);
        return;
    }
    train(zoo);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(path, encode_snapshot(&zoo.network.snapshot()));
}

/// Trains `zoo` from scratch on `workload`'s training split.
fn train_from_scratch(zoo: &mut ZooNet, workload: Workload, budget: &Budget) {
    let train_cfg = dataset_config(workload, budget.train_clips, budget.train_clip_len);
    let train_clips = dataset::build(&train_cfg, Split::Train);
    // Learning rates found by convergence probes: the detection trunks
    // collapse (dying ReLUs) above ~0.004 with per-sample momentum SGD.
    // The deep Faster16 analogue converges more slowly and gets extra
    // epochs, mirroring the paper's heavier VGG training schedule.
    let lr = match zoo.task {
        Task::Classification => 0.005,
        Task::Detection => 0.002,
    };
    let epochs = match workload {
        Workload::Faster16 => budget.epochs * 3 / 2,
        _ => budget.epochs,
    };
    let cfg = TrainConfig {
        epochs,
        lr,
        lr_decay: 0.9,
        bbox_weight: 2.0,
        seed: 7,
    };
    match zoo.task {
        Task::Classification => {
            let samples: Vec<ClsSample> = train_clips
                .iter()
                .flat_map(|c| c.frames.iter().map(cls_sample))
                .collect();
            train::train_classifier(&mut zoo.network, &samples, &cfg);
        }
        Task::Detection => {
            let samples: Vec<DetSample> = train_clips
                .iter()
                .flat_map(|c| c.frames.iter().map(det_sample))
                .collect();
            train::train_detector(&mut zoo.network, &samples, &cfg);
        }
    }
}

/// `workload`'s network with the initial weights training starts from.
fn untrained(workload: Workload) -> ZooNet {
    workload.build(0x5EED ^ workload as u64)
}

/// Builds and trains a workload end to end.
///
/// Mirrors the paper's protocol (§IV-B): train on the training split,
/// calibrate on validation, report on a fresh test set. Trained weights are
/// cached under `results/` (training is deterministic; delete the cache to
/// retrain).
pub fn train_workload(workload: Workload, budget: &Budget) -> TrainedWorkload {
    let mut zoo = untrained(workload);
    load_or_train(&mut zoo, &cache_path(workload, budget), |zoo| {
        train_from_scratch(zoo, workload, budget)
    });
    let eval_cfg = dataset_config(workload, budget.eval_clips, budget.eval_clip_len);
    TrainedWorkload {
        workload,
        zoo,
        validation: dataset::build(&eval_cfg, Split::Validation),
        test: dataset::build(&eval_cfg, Split::Test),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_ordered() {
        let f = Budget::full();
        let q = Budget::quick();
        assert!(q.train_clips < f.train_clips);
        assert!(q.eval_clip_len < f.eval_clip_len);
    }

    #[test]
    fn dataset_configs_match_tasks() {
        let a = dataset_config(Workload::AlexNet, 4, 2);
        assert_eq!(a.scene.height, 32);
        let f = dataset_config(Workload::Faster16, 4, 2);
        assert_eq!(f.scene.height, 48);
        // Faster16 and FasterM share scenes but distinct seeds.
        let m = dataset_config(Workload::FasterM, 4, 2);
        assert_ne!(f.seed, m.seed);
    }

    #[test]
    fn sample_conversion() {
        use eva2_video::scene::Scene;
        let frame = Scene::new(SceneConfig::detection(48, 48), 3).render(0);
        let d = det_sample(&frame);
        assert_eq!(d.label, frame.truth.class);
        for v in d.bbox {
            assert!((0.0..=1.0).contains(&v), "bbox coord {v}");
        }
        let c = cls_sample(&frame);
        assert_eq!(c.input.shape().spatial(), (48, 48));
    }

    #[test]
    fn quick_training_produces_evaluable_workload() {
        let budget = Budget {
            train_clips: 8,
            train_clip_len: 2,
            eval_clips: 2,
            eval_clip_len: 4,
            epochs: 1,
        };
        let workload = Workload::FasterM;
        let fresh = || untrained(workload);
        // A cache of this process's own, so every run trains: a cache
        // under `results/` would make only a checkout's first run train.
        let path = temp_cache("quick_training");
        let _ = std::fs::remove_file(&path);
        let mut zoo = fresh();
        let mut trained = false;
        load_or_train(&mut zoo, &path, |zoo| {
            train_from_scratch(zoo, workload, &budget);
            trained = true;
        });
        assert!(trained, "a missing cache must train");
        assert_ne!(
            bits(&zoo.network.snapshot()),
            bits(&fresh().network.snapshot()),
            "training left the weights as built"
        );
        // The trained weights come back from the cache bit for bit.
        let mut reloaded = fresh();
        load_or_train(&mut reloaded, &path, |_| panic!("cache not reused"));
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            bits(&reloaded.network.snapshot()),
            bits(&zoo.network.snapshot())
        );
        // The network runs on the eval frames.
        let eval_cfg = dataset_config(workload, budget.eval_clips, budget.eval_clip_len);
        assert_eq!(dataset::build(&eval_cfg, Split::Validation).len(), 2);
        let test = dataset::build(&eval_cfg, Split::Test);
        assert_eq!(test.len(), 2);
        let out = reloaded
            .network
            .forward(&test[0].frames[0].image.to_tensor());
        assert_eq!(out.shape().channels, eva2_cnn::zoo::DETECTION_OUTPUTS);
    }

    /// A cache file under the system temp directory, unique to this test
    /// process and `name`.
    fn temp_cache(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("eva2_{}_{name}.f32", std::process::id()))
    }

    fn bits(snapshot: &[Vec<f32>]) -> Vec<Vec<u32>> {
        snapshot
            .iter()
            .map(|l| l.iter().map(|w| w.to_bits()).collect())
            .collect()
    }

    #[test]
    fn weight_cache_round_trips_bit_for_bit() {
        let snapshot = vec![
            vec![-0.0, 0.0, f32::from_bits(1), f32::MIN_POSITIVE / 3.0],
            vec![],
            vec![f32::MAX, f32::MIN, -f32::from_bits(0x007F_FFFF), 1.5e-3],
        ];
        let path = temp_cache("round_trip");
        std::fs::write(&path, encode_snapshot(&snapshot)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lens: Vec<usize> = snapshot.iter().map(Vec::len).collect();
        let back = decode_snapshot(&bytes, &lens).expect("matching shape decodes");
        assert_eq!(bits(&back), bits(&snapshot));
    }

    #[test]
    fn bad_weight_caches_are_refused_and_retrained() {
        let fresh = || Workload::AlexNet.build(3);
        let good = encode_snapshot(&fresh().network.snapshot());
        let mut wrong_tag = good.clone();
        wrong_tag[0] ^= 1;
        let mut wrong_layer_count = fresh().network.snapshot();
        wrong_layer_count.pop();
        let mut wrong_length = fresh().network.snapshot();
        wrong_length[0].pop();
        let cases = [
            ("truncated", good[..good.len() - 1].to_vec()),
            ("wrong_tag", wrong_tag),
            ("wrong_layer_count", encode_snapshot(&wrong_layer_count)),
            ("wrong_length", encode_snapshot(&wrong_length)),
        ];
        for (name, bytes) in cases {
            let path = temp_cache(name);
            std::fs::write(&path, bytes).unwrap();
            // A refused cache retrains, and the retrained weights replace it.
            let mut zoo = fresh();
            let mut trained = false;
            load_or_train(&mut zoo, &path, |zoo| {
                let mut snapshot = zoo.network.snapshot();
                snapshot[0][0] = -0.0;
                zoo.network.restore(&snapshot);
                trained = true;
            });
            assert!(trained, "{name}: a bad cache must retrain");
            // The next run loads the rewritten cache without training.
            let mut reloaded = fresh();
            load_or_train(&mut reloaded, &path, |_| panic!("{name}: cache not reused"));
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                bits(&reloaded.network.snapshot()),
                bits(&zoo.network.snapshot()),
                "{name}"
            );
        }
    }
}
