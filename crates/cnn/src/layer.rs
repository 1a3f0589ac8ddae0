//! Neural network layers with forward and backward passes.
//!
//! Every layer implements [`Layer`]. Spatial layers (convolution, pooling,
//! ReLU) report a [`LayerGeometry`] so the receptive-field arithmetic in
//! [`crate::receptive`] can fold them; non-spatial layers (fully-connected)
//! return `None`, which is exactly the property AMC uses to bound the target
//! layer ("these non-spatial layers must remain in the CNN suffix", §II-C5).

use crate::describe::{ChannelStats, LayerInfo, LayerKind};
use eva2_tensor::gemm::{self, GemmScratch};
use eva2_tensor::{Shape3, SparseActivation, Tensor3};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Kernel/stride/padding of a spatial layer, used by receptive-field
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerGeometry {
    /// Kernel side length.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl LayerGeometry {
    /// Geometry of a 1×1, stride-1 "pass-through" layer (e.g. ReLU).
    pub const IDENTITY: LayerGeometry = LayerGeometry {
        kernel: 1,
        stride: 1,
        padding: 0,
    };

    /// Output spatial length for an input of length `n` (floor convention;
    /// [`gemm::conv_output_len`] is the formula).
    pub fn output_len(&self, n: usize) -> usize {
        gemm::conv_output_len(n, self.kernel, self.stride, self.padding)
    }
}

/// A neural network layer.
///
/// `backward` consumes the gradient with respect to the layer's output and
/// returns the gradient with respect to its input, accumulating parameter
/// gradients internally; [`Layer::apply_grads`] then performs an SGD step and
/// clears the accumulators.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Human-readable layer name (e.g. `conv2`).
    fn name(&self) -> &str;

    /// Output shape for a given input shape.
    fn output_shape(&self, input: Shape3) -> Shape3;

    /// Runs the layer forward.
    fn forward(&self, input: &Tensor3) -> Tensor3;

    /// Runs the layer forward reusing caller-owned scratch buffers.
    ///
    /// [`Conv2d`] keeps the padded copy of its input there, so steady-state
    /// frame processing performs no per-frame allocation beyond the output;
    /// layers without scratch needs fall back to [`Layer::forward`].
    fn forward_scratch(&self, input: &Tensor3, scratch: &mut GemmScratch) -> Tensor3 {
        let _ = scratch;
        self.forward(input)
    }

    /// Runs the layer forward consuming an owned input — used by
    /// `Network::forward_prefix_scratch` so layers that can work in place
    /// skip the per-frame allocate-and-copy entirely.
    ///
    /// The contract is **bit-identity** with [`Layer::forward_scratch`] on
    /// the same input (the default is exactly that call). [`Relu`]
    /// overrides it to rectify in place.
    fn forward_owned(&self, input: Tensor3, scratch: &mut GemmScratch) -> Tensor3 {
        self.forward_scratch(&input, scratch)
    }

    /// Runs the layer forward directly from a sparse activation (the
    /// software analogue of the EVA² skip-zero suffix feed, §IV of the
    /// paper). [`FullyConnected`] skips the zero entries' work entirely,
    /// one weight row per non-zero; it is the one layer with such a path.
    ///
    /// Returns `None` when the layer has no sparse-fed path; the caller
    /// then densifies and uses [`Layer::forward_scratch`]. [`Conv2d`] is
    /// fed that way: its dense kernel reads a padded copy of the input
    /// anyway, and scattering the non-zeros into that copy measured slower
    /// than densifying first.
    fn forward_sparse(
        &self,
        input: &SparseActivation,
        scratch: &mut GemmScratch,
    ) -> Option<Tensor3> {
        let _ = (input, scratch);
        None
    }

    /// Backpropagates `grad_out`, returning the gradient w.r.t. `input`.
    ///
    /// `input` must be the tensor passed to the corresponding `forward`.
    fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3;

    /// Applies accumulated gradients with learning rate `lr` (scaled by
    /// `1/batch`), then clears them. Layers without parameters do nothing.
    fn apply_grads(&mut self, lr: f32, batch: usize);

    /// Geometry for spatial layers; `None` for layers with no 2-D structure.
    fn geometry(&self) -> Option<LayerGeometry>;

    /// `true` when the layer preserves 2-D spatial structure, i.e. can sit
    /// inside an AMC prefix.
    fn is_spatial(&self) -> bool {
        self.geometry().is_some()
    }

    /// Multiply–accumulate operations for one forward pass on `input`.
    ///
    /// The paper's first-order model (§IV-A) and the hardware cost model are
    /// driven by MAC counts; pooling and ReLU return 0 MACs, matching the
    /// model's focus on convolutional/FC work.
    fn macs(&self, input: Shape3) -> u64;

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Copies all trainable parameters (weights then biases) into a flat
    /// vector. Parameter-free layers return an empty vector.
    fn params(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores parameters captured by [`Layer::params`].
    ///
    /// # Panics
    ///
    /// Implementations panic when `params.len() != self.param_count()`.
    fn load_params(&mut self, params: &[f32]) {
        assert!(
            params.is_empty(),
            "{}: layer has no parameters to load",
            self.name()
        );
    }

    /// Deep-copies the layer behind a fresh `Box<dyn Layer>`.
    ///
    /// Makes `Box<dyn Layer>` — and therefore [`Network`](crate::Network) —
    /// [`Clone`], so callers that only hold `&Network` (e.g. the experiment
    /// protocols) can hand an owned copy to `Arc`-based serving engines.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// The layer's static description — the IR node the `eva2-analysis`
    /// pass pipeline consumes (see [`crate::describe`]).
    ///
    /// The default implementation reports [`LayerKind::Opaque`]: analysis
    /// over an undescribed layer stops with a warning instead of guessing.
    /// Built-in layers override this with their real kind and weight
    /// statistics.
    fn describe(&self) -> LayerInfo {
        LayerInfo {
            name: self.name().to_string(),
            kind: LayerKind::Opaque,
            geometry: self.geometry(),
            channels: Vec::new(),
        }
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

/// A 2-D convolutional layer with square kernels and zero padding.
#[derive(Clone)]
pub struct Conv2d {
    name: String,
    in_channels: usize,
    out_channels: usize,
    geom: LayerGeometry,
    /// Weights indexed `[oc][ic][ky][kx]`, flattened.
    weights: Vec<f32>,
    /// `weights` packed into the forward kernel's row panels
    /// ([`gemm::pack_conv_weights`]), kept in sync by
    /// [`Conv2d::sync_panels`] so no frame pays for the packing.
    panels: Vec<f32>,
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    momentum_w: Vec<f32>,
    momentum_b: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights drawn from `rng`.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let n = out_channels * in_channels * kernel * kernel;
        let scale = (2.0 / (in_channels * kernel * kernel) as f32).sqrt();
        let weights = (0..n)
            .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
            .collect();
        let mut conv = Self {
            name: name.into(),
            in_channels,
            out_channels,
            geom: LayerGeometry {
                kernel,
                stride,
                padding,
            },
            weights,
            panels: Vec::new(),
            bias: vec![0.0; out_channels],
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_channels],
            momentum_w: vec![0.0; n],
            momentum_b: vec![0.0; out_channels],
        };
        conv.sync_panels();
        conv
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    #[inline]
    fn w_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        let k = self.geom.kernel;
        ((oc * self.in_channels + ic) * k + ky) * k + kx
    }

    /// Direct access to the weight buffer (for tests constructing known
    /// filters). Call [`Conv2d::sync_panels`] after mutating, before the
    /// next forward pass.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Re-packs the forward kernel's weight panels after a weight mutation.
    ///
    /// Called automatically by [`Layer::apply_grads`],
    /// [`Layer::load_params`], and [`Conv2d::set_weight`]; code poking
    /// [`Conv2d::weights_mut`] directly must call it before running the
    /// layer forward.
    pub fn sync_panels(&mut self) {
        let k_dim = self.in_channels * self.geom.kernel * self.geom.kernel;
        gemm::pack_conv_weights(&self.weights, self.out_channels, k_dim, &mut self.panels);
    }

    /// Sets a single weight `[oc][ic][ky][kx]` (and re-packs the panels).
    pub fn set_weight(&mut self, oc: usize, ic: usize, ky: usize, kx: usize, v: f32) {
        let i = self.w_index(oc, ic, ky, kx);
        self.weights[i] = v;
        self.sync_panels();
    }

    fn check_input(&self, shape: Shape3) {
        assert_eq!(
            shape.channels, self.in_channels,
            "{}: input channel mismatch",
            self.name
        );
    }

    /// Reference implementation: the direct six-loop convolution.
    ///
    /// Kept for golden-equivalence tests and the naive-vs-kernel benchmark;
    /// the production path is [`Layer::forward`], the padded-domain direct
    /// convolution of [`eva2_tensor::gemm`].
    pub fn forward_naive(&self, input: &Tensor3) -> Tensor3 {
        self.check_input(input.shape());
        let out_shape = self.output_shape(input.shape());
        let k = self.geom.kernel;
        let s = self.geom.stride as isize;
        let p = self.geom.padding as isize;
        let mut out = Tensor3::zeros(out_shape);
        for oc in 0..self.out_channels {
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let mut acc = self.bias[oc];
                    let base_y = oy as isize * s - p;
                    let base_x = ox as isize * s - p;
                    for ic in 0..self.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iv = input.get_padded(
                                    ic,
                                    base_y + ky as isize,
                                    base_x + kx as isize,
                                );
                                if iv != 0.0 {
                                    acc += self.weights[self.w_index(oc, ic, ky, kx)] * iv;
                                }
                            }
                        }
                    }
                    out.set(oc, oy, ox, acc);
                }
            }
        }
        out
    }

    /// Reference backward pass matching [`Conv2d::forward_naive`]
    /// (accumulates parameter gradients like [`Layer::backward`]).
    pub fn backward_naive(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        let out_shape = self.output_shape(input.shape());
        assert_eq!(grad_out.shape(), out_shape, "{}: grad shape", self.name);
        let k = self.geom.kernel;
        let s = self.geom.stride as isize;
        let p = self.geom.padding as isize;
        let in_shape = input.shape();
        let mut grad_in = Tensor3::zeros(in_shape);
        for oc in 0..self.out_channels {
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    let g = grad_out.get(oc, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b[oc] += g;
                    let base_y = oy as isize * s - p;
                    let base_x = ox as isize * s - p;
                    for ic in 0..self.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = base_y + ky as isize;
                                let ix = base_x + kx as isize;
                                if in_shape.contains_spatial(iy, ix) {
                                    let (iyu, ixu) = (iy as usize, ix as usize);
                                    let wi = self.w_index(oc, ic, ky, kx);
                                    self.grad_w[wi] += g * input.get(ic, iyu, ixu);
                                    grad_in.add_at(ic, iyu, ixu, g * self.weights[wi]);
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

impl fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Conv2d({}: {}→{}, k={}, s={}, p={})",
            self.name,
            self.in_channels,
            self.out_channels,
            self.geom.kernel,
            self.geom.stride,
            self.geom.padding
        )
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        Shape3::new(
            self.out_channels,
            self.geom.output_len(input.height),
            self.geom.output_len(input.width),
        )
    }

    fn forward(&self, input: &Tensor3) -> Tensor3 {
        gemm::with_thread_scratch(|scratch| self.forward_scratch(input, scratch))
    }

    fn forward_scratch(&self, input: &Tensor3, scratch: &mut GemmScratch) -> Tensor3 {
        self.check_input(input.shape());
        let g = self.geom;
        gemm::conv2d_forward(
            input,
            &self.panels,
            &self.bias,
            g.kernel,
            g.stride,
            g.padding,
            scratch,
        )
    }

    fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        let out_shape = self.output_shape(input.shape());
        assert_eq!(grad_out.shape(), out_shape, "{}: grad shape", self.name);
        let weights = &self.weights;
        let grad_w = &mut self.grad_w;
        let grad_b = &mut self.grad_b;
        gemm::with_thread_scratch(|scratch| {
            gemm::conv2d_backward(
                input,
                weights,
                grad_out,
                self.out_channels,
                self.geom.kernel,
                self.geom.stride,
                self.geom.padding,
                scratch,
                grad_w,
                grad_b,
            )
        })
    }

    fn apply_grads(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        const MOMENTUM: f32 = 0.9;
        // Per-element gradient clipping guards against the dying-ReLU
        // collapse that unlucky shuffle orders can otherwise trigger with
        // per-sample momentum SGD.
        const CLIP: f32 = 4.0;
        for i in 0..self.weights.len() {
            let g = self.grad_w[i].clamp(-CLIP, CLIP);
            self.momentum_w[i] = MOMENTUM * self.momentum_w[i] + g;
            self.weights[i] -= scale * self.momentum_w[i];
            self.grad_w[i] = 0.0;
        }
        for i in 0..self.bias.len() {
            let g = self.grad_b[i].clamp(-CLIP, CLIP);
            self.momentum_b[i] = MOMENTUM * self.momentum_b[i] + g;
            self.bias[i] -= scale * self.momentum_b[i];
            self.grad_b[i] = 0.0;
        }
        self.sync_panels();
    }

    fn geometry(&self) -> Option<LayerGeometry> {
        Some(self.geom)
    }

    fn macs(&self, input: Shape3) -> u64 {
        // outputs × MACs-per-output, exactly the paper's §IV-A formula:
        //   outputs = layer_width × layer_height × out_channels
        //   MACs/output = in_channels × filter_height × filter_width
        let out = self.output_shape(input);
        (out.len() as u64) * (self.in_channels * self.geom.kernel * self.geom.kernel) as u64
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn params(&self) -> Vec<f32> {
        let mut v = self.weights.clone();
        v.extend_from_slice(&self.bias);
        v
    }

    fn load_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "{}: param count",
            self.name
        );
        let (w, b) = params.split_at(self.weights.len());
        self.weights.copy_from_slice(w);
        self.bias.copy_from_slice(b);
        self.sync_panels();
    }

    fn describe(&self) -> LayerInfo {
        let per_oc = self.in_channels * self.geom.kernel * self.geom.kernel;
        LayerInfo {
            name: self.name.clone(),
            kind: LayerKind::Conv {
                in_channels: self.in_channels,
                out_channels: self.out_channels,
                groups: 1,
            },
            geometry: Some(self.geom),
            channels: (0..self.out_channels)
                .map(|oc| {
                    ChannelStats::of(&self.weights[oc * per_oc..(oc + 1) * per_oc], self.bias[oc])
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Max pooling
// ---------------------------------------------------------------------------

/// A 2-D max-pooling layer.
///
/// Max-pooling is the paper's canonical "condition 3" violator: it commutes
/// with stride-aligned translations but not with arbitrary ones (Fig 4e).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    name: String,
    geom: LayerGeometry,
}

impl MaxPool2d {
    /// Creates a pooling layer with square window `kernel` and `stride`.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Self {
        Self {
            name: name.into(),
            geom: LayerGeometry {
                kernel,
                stride,
                padding: 0,
            },
        }
    }
}

/// `N` neighbouring outputs of one max-pool row: lane `i` is the maximum
/// of the `k × k` window at column `i·s` of `rows` (the input rows from the
/// window's first, `w` apart), folded `ky`-outer, `kx`-inner from −∞.
///
/// The `N` running maxima stay in one register across the whole window.
/// The compiler unrolls the window and turns the strided reads into
/// shuffles only when `k` and `s` are literals at the (inlined) call site —
/// see `MaxPool2d::forward`.
#[inline(always)]
fn pool_block<const N: usize>(rows: &[f32], w: usize, k: usize, s: usize) -> [f32; N] {
    let mut acc = [f32::NEG_INFINITY; N];
    for ky in 0..k {
        let row = &rows[ky * w..][..(N - 1) * s + k];
        for kx in 0..k {
            for lane in 0..N {
                acc[lane] = acc[lane].max(row[lane * s + kx]);
            }
        }
    }
    acc
}

/// One output row of a max-pool, in [`pool_block`]s of eight (a `ymm`
/// register); a ragged end is covered by a last block that overlaps its
/// neighbour, and rows narrower than a block go output by output.
///
/// Eight even on an AVX-512 target (not `eva2_tensor::F32_LANES`): the
/// zoo's pooled rows are 4–24 outputs wide, and with 16-lane blocks the
/// rows of 6–12 fall through to the per-output path — measured slower
/// (`cut_storm_deep`: `cnn.other_layers.busy_us` 3.7 → 5.4).
#[inline(always)]
fn pool_row(m: &mut [f32], rows: &[f32], w: usize, k: usize, s: usize) {
    const LANES: usize = 8;
    let n = m.len();
    if n >= LANES {
        for b in 0..n.div_ceil(LANES) {
            let o = (b * LANES).min(n - LANES);
            m[o..o + LANES].copy_from_slice(&pool_block::<LANES>(&rows[o * s..], w, k, s));
        }
    } else {
        for (o, mv) in m.iter_mut().enumerate() {
            [*mv] = pool_block::<1>(&rows[o * s..], w, k, s);
        }
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        Shape3::new(
            input.channels,
            self.geom.output_len(input.height),
            self.geom.output_len(input.width),
        )
    }

    fn forward(&self, input: &Tensor3) -> Tensor3 {
        // Row slices instead of per-element accessors; every output is
        // still the fold `max(…max(max(−∞, w₀₀), w₀₁)…, w_kk)` over its
        // window in `ky`-outer, `kx`-inner order.
        let in_shape = input.shape();
        let out_shape = self.output_shape(in_shape);
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let mut out = vec![0.0f32; out_shape.len()];
        if out_shape.is_empty() {
            return Tensor3::from_vec(out_shape, out);
        }
        let w = in_shape.width;
        for (r, m) in out.chunks_exact_mut(out_shape.width).enumerate() {
            let (c, oy) = (r / out_shape.height, r % out_shape.height);
            let rows = &input.channel(c)[oy * s * w..];
            // A literal window and stride let the inlined body unroll and
            // its strided reads become shuffles; every zoo pool is 2×2 at
            // stride 2. Other shapes take the same body as compiled for
            // run-time values (mostly scalar).
            match (k, s) {
                (2, 2) => pool_row(m, rows, w, 2, 2),
                _ => pool_row(m, rows, w, k, s),
            }
        }
        Tensor3::from_vec(out_shape, out)
    }

    fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        let out_shape = self.output_shape(input.shape());
        assert_eq!(grad_out.shape(), out_shape, "{}: grad shape", self.name);
        let k = self.geom.kernel;
        let s = self.geom.stride;
        let mut grad_in = Tensor3::zeros(input.shape());
        for c in 0..out_shape.channels {
            for oy in 0..out_shape.height {
                for ox in 0..out_shape.width {
                    // Route the gradient to the argmax cell.
                    let mut best = (oy * s, ox * s);
                    let mut m = f32::NEG_INFINITY;
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = input.get(c, oy * s + ky, ox * s + kx);
                            if v > m {
                                m = v;
                                best = (oy * s + ky, ox * s + kx);
                            }
                        }
                    }
                    grad_in.add_at(c, best.0, best.1, grad_out.get(c, oy, ox));
                }
            }
        }
        grad_in
    }

    fn apply_grads(&mut self, _lr: f32, _batch: usize) {}

    fn geometry(&self) -> Option<LayerGeometry> {
        Some(self.geom)
    }

    fn macs(&self, _input: Shape3) -> u64 {
        0
    }

    fn describe(&self) -> LayerInfo {
        LayerInfo {
            name: self.name.clone(),
            kind: LayerKind::Pool,
            geometry: Some(self.geom),
            channels: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Element-wise rectified linear unit.
///
/// ReLU also produces the activation sparsity ("most values in CNN weights
/// and activations are close to zero", §II-C2) that the EVA² run-length
/// activation store exploits.
#[derive(Debug, Clone)]
pub struct Relu {
    name: String,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        input
    }

    fn forward(&self, input: &Tensor3) -> Tensor3 {
        input.map(|v| v.max(0.0))
    }

    fn forward_owned(&self, mut input: Tensor3, _scratch: &mut GemmScratch) -> Tensor3 {
        // The caller hands over the tensor, so rectify in place: no
        // allocation + copy, identical bits.
        for v in input.as_mut_slice() {
            *v = v.max(0.0);
        }
        input
    }

    fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        input.zip_with(grad_out, |x, g| if x > 0.0 { g } else { 0.0 })
    }

    fn apply_grads(&mut self, _lr: f32, _batch: usize) {}

    fn geometry(&self) -> Option<LayerGeometry> {
        Some(LayerGeometry::IDENTITY)
    }

    fn macs(&self, _input: Shape3) -> u64 {
        0
    }

    fn describe(&self) -> LayerInfo {
        LayerInfo {
            name: self.name.clone(),
            kind: LayerKind::Relu,
            geometry: Some(LayerGeometry::IDENTITY),
            channels: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Fully connected
// ---------------------------------------------------------------------------

/// Outputs a fully-connected layer accumulates at once: three vector
/// registers of `f32` (48 on an AVX-512 target, 24 otherwise).
const FC_BLOCK: usize = 3 * eva2_tensor::F32_LANES;

/// A fully-connected layer over the flattened input tensor.
///
/// Output shape is `out × 1 × 1`. Fully-connected layers have "no 2D spatial
/// structure and no meaningful relationship with motion in the input"
/// (§II-C5), so [`Layer::geometry`] returns `None` and AMC keeps them in the
/// suffix.
#[derive(Clone)]
pub struct FullyConnected {
    name: String,
    in_features: usize,
    out_features: usize,
    /// Row-major `[out][in]`.
    weights: Vec<f32>,
    /// Transposed copy `[in][out]`, kept in sync by [`FullyConnected::sync_transpose`].
    ///
    /// Both forward paths add each input times a unit-stride row of this
    /// matrix to the outputs — every input on the dense path, every
    /// non-zero on the sparse one.
    weights_t: Vec<f32>,
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    momentum_w: Vec<f32>,
    momentum_b: Vec<f32>,
}

impl FullyConnected {
    /// Creates a fully-connected layer with He-initialised weights.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let n = in_features * out_features;
        let scale = (2.0 / in_features as f32).sqrt();
        let mut fc = Self {
            name: name.into(),
            in_features,
            out_features,
            weights: (0..n)
                .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                .collect(),
            weights_t: vec![0.0; n],
            bias: vec![0.0; out_features],
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_features],
            momentum_w: vec![0.0; n],
            momentum_b: vec![0.0; out_features],
        };
        fc.sync_transpose();
        fc
    }

    /// Number of input features (flattened input length).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// `bias[o] + Σ x·w[o]` for every output `o`, over the `(index, x)`
    /// pairs `inputs()` yields: one chain of separate multiplies and adds
    /// per output, in the order of the pairs.
    ///
    /// The outputs go [`FC_BLOCK`] at a time. A block is held in a local
    /// array across every input, so it stays in vector registers, and each
    /// input adds `x` times its row of the transposed weights to it. The
    /// last, narrower block runs the same chains through memory.
    fn accumulate<I: Iterator<Item = (usize, f32)>>(&self, inputs: impl Fn() -> I) -> Vec<f32> {
        let nout = self.out_features;
        let mut out = self.bias.clone();
        for (b, block) in out.chunks_mut(FC_BLOCK).enumerate() {
            let row = |i: usize| &self.weights_t[i * nout + b * FC_BLOCK..];
            if let Ok(block) = <&mut [f32; FC_BLOCK]>::try_from(&mut *block) {
                let mut acc = *block;
                for (i, x) in inputs() {
                    for (a, &w) in acc.iter_mut().zip(&row(i)[..FC_BLOCK]) {
                        *a += x * w;
                    }
                }
                *block = acc;
            } else {
                for (i, x) in inputs() {
                    for (a, &w) in block.iter_mut().zip(row(i)) {
                        *a += x * w;
                    }
                }
            }
        }
        out
    }

    /// Rebuilds the transposed weight copy after a weight mutation.
    ///
    /// Called automatically by [`Layer::apply_grads`] and
    /// [`Layer::load_params`]; tests poking `weights` directly must call it
    /// before running the layer forward.
    pub fn sync_transpose(&mut self) {
        for o in 0..self.out_features {
            for i in 0..self.in_features {
                self.weights_t[i * self.out_features + o] = self.weights[o * self.in_features + i];
            }
        }
    }
}

impl fmt::Debug for FullyConnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FullyConnected({}: {}→{})",
            self.name, self.in_features, self.out_features
        )
    }
}

impl Layer for FullyConnected {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn output_shape(&self, input: Shape3) -> Shape3 {
        assert_eq!(
            input.len(),
            self.in_features,
            "{}: flattened input {} != in_features {}",
            self.name,
            input.len(),
            self.in_features
        );
        Shape3::new(self.out_features, 1, 1)
    }

    fn forward(&self, input: &Tensor3) -> Tensor3 {
        let out_shape = self.output_shape(input.shape());
        let inputs = || input.as_slice().iter().copied().enumerate();
        Tensor3::from_vec(out_shape, self.accumulate(inputs))
    }

    fn forward_sparse(
        &self,
        input: &SparseActivation,
        _scratch: &mut GemmScratch,
    ) -> Option<Tensor3> {
        assert_eq!(
            input.shape().len(),
            self.in_features,
            "{}: flattened sparse input {} != in_features {}",
            self.name,
            input.shape().len(),
            self.in_features
        );
        // [`Layer::forward`] minus the zero inputs (`O(nnz · out)` wide ops
        // vs the dense `O(in · out)`).
        let out = self.accumulate(|| input.iter_flat());
        Some(Tensor3::from_vec(Shape3::new(self.out_features, 1, 1), out))
    }

    fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        assert_eq!(grad_out.shape().len(), self.out_features);
        let x = input.as_slice();
        let g = grad_out.as_slice();
        let mut grad_in = vec![0.0f32; self.in_features];
        for (o, &go) in g.iter().enumerate().take(self.out_features) {
            if go == 0.0 {
                continue;
            }
            self.grad_b[o] += go;
            let row_base = o * self.in_features;
            for i in 0..self.in_features {
                self.grad_w[row_base + i] += go * x[i];
                grad_in[i] += go * self.weights[row_base + i];
            }
        }
        Tensor3::from_vec(input.shape(), grad_in)
    }

    fn apply_grads(&mut self, lr: f32, batch: usize) {
        let scale = lr / batch.max(1) as f32;
        const MOMENTUM: f32 = 0.9;
        // Per-element gradient clipping guards against the dying-ReLU
        // collapse that unlucky shuffle orders can otherwise trigger with
        // per-sample momentum SGD.
        const CLIP: f32 = 4.0;
        for i in 0..self.weights.len() {
            let g = self.grad_w[i].clamp(-CLIP, CLIP);
            self.momentum_w[i] = MOMENTUM * self.momentum_w[i] + g;
            self.weights[i] -= scale * self.momentum_w[i];
            self.grad_w[i] = 0.0;
        }
        for i in 0..self.bias.len() {
            let g = self.grad_b[i].clamp(-CLIP, CLIP);
            self.momentum_b[i] = MOMENTUM * self.momentum_b[i] + g;
            self.bias[i] -= scale * self.momentum_b[i];
            self.grad_b[i] = 0.0;
        }
        self.sync_transpose();
    }

    fn geometry(&self) -> Option<LayerGeometry> {
        None
    }

    fn macs(&self, _input: Shape3) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn params(&self) -> Vec<f32> {
        let mut v = self.weights.clone();
        v.extend_from_slice(&self.bias);
        v
    }

    fn load_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "{}: param count",
            self.name
        );
        let (w, b) = params.split_at(self.weights.len());
        self.weights.copy_from_slice(w);
        self.bias.copy_from_slice(b);
        self.sync_transpose();
    }

    fn describe(&self) -> LayerInfo {
        LayerInfo {
            name: self.name.clone(),
            kind: LayerKind::FullyConnected {
                in_features: self.in_features,
                out_features: self.out_features,
            },
            geometry: None,
            channels: (0..self.out_features)
                .map(|o| {
                    ChannelStats::of(
                        &self.weights[o * self.in_features..(o + 1) * self.in_features],
                        self.bias[o],
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng());
        for w in conv.weights_mut() {
            *w = 0.0;
        }
        conv.set_weight(0, 0, 1, 1, 1.0);
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, y, x| (y * 4 + x) as f32);
        let out = conv.forward(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_paper_figure4_example() {
        // Fig 4a: 3x3 conv, stride 1, filter with a vertical bar of ones in
        // the middle column, applied to an image with ones in the left
        // column rows 0-1.
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, &mut rng());
        for w in conv.weights_mut() {
            *w = 0.0;
        }
        conv.set_weight(0, 0, 0, 1, 1.0);
        conv.set_weight(0, 0, 1, 1, 1.0);
        conv.set_weight(0, 0, 2, 1, 1.0);
        let mut img = Tensor3::zeros(Shape3::new(1, 5, 5));
        img.set(0, 0, 1, 1.0);
        img.set(0, 1, 1, 1.0);
        let out = conv.forward(&img);
        // Column of the bar aligns with input column 1 → output column 0.
        assert_eq!(out.get(0, 0, 0), 2.0);
        assert_eq!(out.get(0, 1, 0), 1.0); // windows rows 1..3 contain one 1
        assert_eq!(out.get(0, 0, 1), 0.0);
    }

    #[test]
    fn conv_output_shape_with_stride_and_padding() {
        let conv = Conv2d::new("c", 3, 8, 5, 2, 2, &mut rng());
        let s = conv.output_shape(Shape3::new(3, 32, 32));
        assert_eq!(s, Shape3::new(8, 16, 16));
    }

    #[test]
    fn conv_macs_match_formula() {
        let conv = Conv2d::new("c", 16, 32, 3, 1, 1, &mut rng());
        let input = Shape3::new(16, 8, 8);
        // outputs = 8*8*32, per-output = 16*3*3
        assert_eq!(conv.macs(input), 8 * 8 * 32 * 16 * 9);
    }

    #[test]
    fn conv_gradcheck() {
        // Numerical gradient check on a tiny conv.
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 1, &mut rng());
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, y, x| ((y + x) as f32).sin());
        let out = conv.forward(&input);
        // Loss = sum of outputs; grad_out = ones.
        let grad_out = Tensor3::filled(out.shape(), 1.0);
        let grad_in = conv.backward(&input, &grad_out);
        let eps = 1e-3;
        for y in 0..4 {
            for x in 0..4 {
                let mut plus = input.clone();
                plus.set(0, y, x, input.get(0, y, x) + eps);
                let mut minus = input.clone();
                minus.set(0, y, x, input.get(0, y, x) - eps);
                let lp: f32 = conv.forward(&plus).iter().sum();
                let lm: f32 = conv.forward(&minus).iter().sum();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad_in.get(0, y, x);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "at ({y},{x}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn maxpool_forward_and_shape() {
        let pool = MaxPool2d::new("p", 2, 2);
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, y, x| (y * 4 + x) as f32);
        let out = pool.forward(&input);
        assert_eq!(out.shape(), Shape3::new(1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 5.0);
        assert_eq!(out.get(0, 1, 1), 15.0);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new("p", 2, 2);
        let input = Tensor3::from_fn(Shape3::new(1, 2, 2), |_, y, x| (y * 2 + x) as f32);
        let grad_out = Tensor3::filled(Shape3::new(1, 1, 1), 1.0);
        let grad_in = pool.backward(&input, &grad_out);
        assert_eq!(grad_in.get(0, 1, 1), 1.0);
        assert_eq!(grad_in.get(0, 0, 0), 0.0);
    }

    #[test]
    fn relu_clamps_and_masks() {
        let mut relu = Relu::new("r");
        let input = Tensor3::from_vec(Shape3::new(1, 1, 4), vec![-1.0, 0.0, 2.0, -3.0]);
        let out = relu.forward(&input);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor3::filled(input.shape(), 1.0);
        let gi = relu.backward(&input, &g);
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn fc_forward_matches_manual() {
        let mut fc = FullyConnected::new("f", 3, 2, &mut rng());
        fc.weights = vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5];
        fc.bias = vec![0.1, -0.1];
        fc.sync_transpose();
        let input = Tensor3::from_vec(Shape3::new(3, 1, 1), vec![2.0, 3.0, 4.0]);
        let out = fc.forward(&input);
        assert!((out.get(0, 0, 0) - (2.0 - 4.0 + 0.1)).abs() < 1e-6);
        assert!((out.get(1, 0, 0) - (4.5 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn fc_gradcheck() {
        let mut fc = FullyConnected::new("f", 4, 3, &mut rng());
        let input = Tensor3::from_vec(Shape3::new(4, 1, 1), vec![0.5, -1.0, 2.0, 0.0]);
        let out = fc.forward(&input);
        let grad_out = Tensor3::filled(out.shape(), 1.0);
        let grad_in = fc.backward(&input, &grad_out);
        let eps = 1e-3;
        for i in 0..4 {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let lp: f32 = fc.forward(&plus).iter().sum();
            let lm: f32 = fc.forward(&minus).iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad_in.as_slice()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn fc_is_not_spatial() {
        let fc = FullyConnected::new("f", 4, 2, &mut rng());
        assert!(!fc.is_spatial());
        assert!(Relu::new("r").is_spatial());
        assert!(MaxPool2d::new("p", 2, 2).is_spatial());
    }

    #[test]
    fn apply_grads_moves_weights_downhill() {
        let mut fc = FullyConnected::new("f", 2, 1, &mut rng());
        fc.weights = vec![1.0, 1.0];
        fc.bias = vec![0.0];
        fc.sync_transpose();
        let input = Tensor3::from_vec(Shape3::new(2, 1, 1), vec![1.0, 1.0]);
        // Loss = output; d(loss)/dw = input = 1, so weights must decrease.
        let grad_out = Tensor3::filled(Shape3::new(1, 1, 1), 1.0);
        fc.backward(&input, &grad_out);
        fc.apply_grads(0.1, 1);
        assert!(fc.weights[0] < 1.0);
        let out1 = fc.forward(&input).get(0, 0, 0);
        assert!(out1 < 2.0);
    }

    #[test]
    fn geometry_output_len() {
        let g = LayerGeometry {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(g.output_len(32), 16);
        assert_eq!(g.output_len(2), 1);
        let small = LayerGeometry {
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert_eq!(small.output_len(3), 0);
    }

    #[test]
    fn param_counts() {
        let conv = Conv2d::new("c", 2, 4, 3, 1, 1, &mut rng());
        assert_eq!(conv.param_count(), 2 * 4 * 9 + 4);
        let fc = FullyConnected::new("f", 10, 5, &mut rng());
        assert_eq!(fc.param_count(), 55);
        assert_eq!(Relu::new("r").param_count(), 0);
    }
}
