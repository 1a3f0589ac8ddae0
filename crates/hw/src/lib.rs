//! First-order ASIC cost model: Eyeriss + EIE + EVA².
//!
//! The paper evaluates EVA² by attaching it to "a model of a state-of-the-art
//! deep learning accelerator based on recent architecture papers… Eyeriss for
//! convolutional layers and EIE for fully-connected layers", gathering
//! *published* per-network results and scaling layers by their
//! multiply–accumulate counts (§IV-B — their FODLAM model, ref \[36\]). This
//! crate reimplements that methodology:
//!
//! * [`descriptor`] — *full-scale* networks in `eva2-cnn`'s layer IR, so
//!   MAC counts (the model's input) are the real ones. MACs, shapes and
//!   receptive fields come from [`analyze_layers`](eva2_analysis::analyze_layers),
//!   the pipeline that verifies the zoo the engine runs.
//! * [`nets`] — AlexNet, Faster16 (VGG-16-based Faster R-CNN at 1000×562),
//!   and FasterM (CNN-M-based) exactly as the paper evaluates them.
//! * [`calib`] — calibration anchors from the published Eyeriss (JSSC'17)
//!   and EIE (ISCA'16) results; every experiment derives from the same
//!   constants.
//! * [`cost`] — per-frame latency/energy for key frames, predicted frames,
//!   and key/predicted mixtures (Fig 13, Table I).
//! * [`area`] — the 65 nm area comparison (Fig 12).
//! * [`firstorder`] — the §IV-A analytical op-count model (prefix MACs vs
//!   RFBME adds).
//!
//! # Example
//!
//! ```
//! use eva2_hw::nets;
//! use eva2_hw::cost::HwModel;
//!
//! let net = nets::faster16();
//! let model = HwModel::default();
//! let key = model.key_frame_cost(&net);
//! let pred = model.predicted_frame_cost(&net);
//! assert!(pred.energy_mj * 2.0 < key.energy_mj, "predicted frames must be far cheaper");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
pub mod calib;
pub mod cost;
pub mod descriptor;
pub mod firstorder;
pub mod nets;

pub use cost::{FrameCost, HwModel, NetFigures};
pub use descriptor::NetDescriptor;
