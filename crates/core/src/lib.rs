//! Activation motion compensation (AMC) — the EVA² paper's core contribution.
//!
//! AMC processes live video as a mixture of **key frames** (full, precise
//! CNN execution) and **predicted frames** (approximately incremental
//! execution): on a predicted frame it estimates motion between the stored
//! key frame and the new input, *warps* the stored target-layer activation
//! by the scaled vector field, and runs only the CNN suffix (Fig 1 of the
//! paper).
//!
//! Module map (paper section → module):
//!
//! * §II-C2 / §III-B compressed activation storage → [`sparse`]
//!   (run-length encoding plus the 4-lane sparsity decoder model of Fig 10).
//! * §II-C3 / §III-B interpolated warping → [`warp`] (float reference and a
//!   bit-accurate Q8.8 model of the Fig 11 bilinear interpolator).
//! * §II-C4 key frame selection → [`policy`] (static rate, pixel
//!   compensation error, total motion magnitude).
//! * §II-C5 target layer choice → [`target`].
//! * §II-A the full pipeline → [`executor`] ([`AmcExecutor`], a
//!   single-stream wrapper).
//! * §III / Fig 6's decoupled EVA² unit stays hardware-only: on one host a
//!   worker thread overlapping the next frame's RFBME with this frame's CNN
//!   work cost more in hand-off than it hid (serial/pipelined 0.89).
//! * Multi-stream serving → [`serve`] ([`serve::Engine`] owns the network
//!   and shared scratch; each video stream is a [`serve::StreamSession`],
//!   and key frames from independent streams share one batched,
//!   layer-by-layer prefix pass).
//!
//! Configuration errors are typed ([`AmcError`]); build configurations
//! through [`executor::AmcConfig::builder`].
//!
//! # Example
//!
//! ```
//! use eva2_core::executor::AmcConfig;
//! use eva2_core::serve::Engine;
//! use eva2_cnn::zoo;
//! use eva2_tensor::GrayImage;
//! use std::sync::Arc;
//!
//! let net = Arc::new(zoo::tiny_fasterm(7).network);
//! let config = AmcConfig::builder().build().expect("defaults are valid");
//! let mut engine = Engine::new(net, config).expect("resolvable target");
//! let mut stream = engine.open_session().expect("engine has capacity");
//! let frame = GrayImage::from_fn(48, 48, |y, x| {
//!     (120.0 + 60.0 * ((y as f32) * 0.3).sin() * ((x as f32) * 0.2).cos()) as u8
//! });
//! let first = engine.process(&mut stream, &frame).unwrap();
//! assert!(first.is_key, "a stream's first frame is always a key frame");
//! let second = engine.process(&mut stream, &frame).unwrap();
//! // An unchanged scene with the default policy yields a cheap predicted frame.
//! assert!(!second.is_key);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod executor;
pub mod policy;
pub mod serve;
pub mod sparse;
pub mod target;
pub mod warp;

pub use error::AmcError;
pub use executor::{
    AmcConfig, AmcConfigBuilder, AmcExecutor, AmcFrameResult, FrameExecutor, WarpMode,
};
pub use policy::{FrameMetrics, KeyFramePolicy};
pub use serve::{Engine, EngineLimits, StreamSession};
pub use sparse::RleActivation;
pub use target::TargetSelection;
