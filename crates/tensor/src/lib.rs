//! Tensor, image, and fixed-point substrate for the EVA² reproduction.
//!
//! This crate provides the numeric foundation shared by every other crate in
//! the workspace:
//!
//! * [`Shape3`] and [`Tensor3`] — channel-major (`C × H × W`) `f32` tensors,
//!   the activation format used by the CNN simulator and the AMC warp engine.
//! * [`GrayImage`] — 8-bit grayscale frames, the pixel format consumed by the
//!   motion-estimation hardware model (the paper's diff tile producer operates
//!   on raw luma pixels).
//! * [`Fixed`] — a bit-accurate Q8.8 16-bit fixed-point type modelling the
//!   datapath width of the EVA² warp engine ("shifts the final result back to
//!   a 16-bit fixed-point representation", §III-B of the paper).
//! * [`interp`] — bilinear sampling used by activation warping (§II-C3).
//! * [`gemm`] — the convolution engine behind `eva2_cnn::Conv2d`: a
//!   padded-domain direct convolution for the forward pass and a packed,
//!   register-blocked f32 GEMM over im2col for training, both on one
//!   4×24 fused-multiply-add micro-kernel.
//! * [`sparse`] — [`SparseActivation`], the non-zero view the sparse-aware
//!   CNN suffix consumes (the software analogue of the Fig 10 decoder-lane
//!   output).
//!
//! # Example
//!
//! ```
//! use eva2_tensor::{Shape3, Tensor3};
//!
//! let t = Tensor3::from_fn(Shape3::new(2, 3, 3), |c, y, x| (c + y + x) as f32);
//! assert_eq!(t.get(1, 2, 2), 5.0);
//! assert_eq!(t.shape().len(), 18);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixed;
pub mod gemm;
pub mod image;
pub mod interp;
pub(crate) mod microkernel;
pub(crate) mod pack;
pub mod shape;
pub mod sparse;
pub mod tensor;

pub use fixed::Fixed;
pub use gemm::GemmScratch;
pub use image::GrayImage;
pub use shape::Shape3;
pub use sparse::SparseActivation;
pub use tensor::Tensor3;
