//! # EVA² — Exploiting Temporal Redundancy in Live Computer Vision
//!
//! A from-scratch Rust reproduction of Buckler et al., ISCA 2018
//! (arXiv:1803.06312): **activation motion compensation (AMC)** and the
//! **EVA²** hardware unit, together with every substrate the paper's
//! evaluation depends on.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`tensor`] — tensors, 8-bit frames, Q8.8 fixed point, interpolation.
//! * [`video`] — synthetic annotated live video (the YTBB stand-in).
//! * [`cnn`] — a trainable CNN library with prefix/suffix execution and
//!   receptive-field arithmetic.
//! * [`motion`] — RFBME and the motion-estimation baselines.
//! * [`analysis`] — the build-time model/pipeline verifier: shape
//!   inference, warp-legality, Q8.8 range analysis, and sparsity-flow
//!   passes over a network IR (`analysis::analyze`), with stable
//!   diagnostic codes. `Engine`/`AmcExecutor` construction consults it.
//! * [`amc`] — the AMC executor: warp engine, sparse activation store,
//!   key-frame policies, and the multi-stream serving engine
//!   (`amc::serve::Engine` / `StreamSession`, a worker pool over
//!   independent streams) — crate `eva2-core`.
//! * [`hw`] — the Eyeriss + EIE + EVA² energy/latency/area model.
//!
//! ## Quick start
//!
//! ```
//! use eva2::amc::executor::{AmcConfig, AmcExecutor};
//! use eva2::cnn::zoo;
//! use eva2::video::scene::{Scene, SceneConfig};
//!
//! let workload = zoo::tiny_fasterm(1);
//! let mut scene = Scene::new(SceneConfig::detection(48, 48), 7);
//! let clip = scene.render_clip(5);
//! let mut amc = AmcExecutor::try_new(&workload.network, AmcConfig::default()).unwrap();
//! for frame in &clip.frames {
//!     let result = amc.process(&frame.image);
//!     // result.output is the CNN suffix output for this frame.
//!     assert_eq!(result.output.shape().channels, zoo::DETECTION_OUTPUTS);
//! }
//! assert!(amc.stats().key_frames >= 1);
//! ```
//!
//! `ROADMAP.md` records where the system stands and what is open;
//! `benchmark/README.md` describes the serving benchmark every
//! performance claim is judged on. The paper's tables and figures are
//! regenerated by the `eva2-experiments` binaries.

#![forbid(unsafe_code)]

pub use eva2_analysis as analysis;
pub use eva2_cnn as cnn;
pub use eva2_core as amc;
pub use eva2_hw as hw;
pub use eva2_motion as motion;
pub use eva2_tensor as tensor;
pub use eva2_video as video;
