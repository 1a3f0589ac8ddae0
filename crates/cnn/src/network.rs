//! Sequential networks with prefix/suffix execution.

use crate::layer::Layer;
use crate::receptive::ReceptiveField;
use eva2_tensor::{GemmScratch, Shape3, SparseActivation, Tensor3};
use std::fmt;

/// A feed-forward network: an ordered list of layers.
///
/// AMC splits the network at a *target layer* index: `forward_prefix` runs
/// layers `0..=target` (key frames only), `forward_suffix` runs layers
/// `target+1..` (every frame). The unsplit [`Network::forward`] is the
/// baseline generic-accelerator execution the paper compares against.
///
/// Networks are [`Clone`] (layers deep-copy via [`Layer::clone_box`]), so a
/// caller holding only `&Network` can mint the owned copy an
/// `Arc<Network>`-based serving engine needs.
#[derive(Clone)]
pub struct Network {
    name: String,
    input_shape: Shape3,
    layers: Vec<Box<dyn Layer>>,
}

// `Layer: Send + Sync` makes networks shareable by reference across
// threads: the serving engine's workers all run one `Arc<Network>`.
// Enforce the property where the type is defined.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Network>();
    assert_send_sync::<Tensor3>();
};

impl Network {
    /// Creates an empty network expecting `input_shape` tensors.
    pub fn new(name: impl Into<String>, input_shape: Shape3) -> Self {
        Self {
            name: name.into(),
            input_shape,
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected input shape.
    pub fn input_shape(&self) -> Shape3 {
        self.input_shape
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// The network's static IR: one [`LayerInfo`](crate::describe::LayerInfo)
    /// per layer, in order. This is what the `eva2-analysis` pass pipeline
    /// consumes — cheap enough (a weight-statistics scan) to rebuild at
    /// every engine or session construction.
    pub fn describe(&self) -> Vec<crate::describe::LayerInfo> {
        self.layers.iter().map(|l| l.describe()).collect()
    }

    /// Shape of the activation *output by* layer `i` (for the configured
    /// input shape).
    pub fn shape_after(&self, i: usize) -> Shape3 {
        let mut s = self.input_shape;
        for layer in &self.layers[..=i] {
            s = layer.output_shape(s);
        }
        s
    }

    /// Shape of the activation *entering* layer `i`.
    pub fn shape_before(&self, i: usize) -> Shape3 {
        if i == 0 {
            self.input_shape
        } else {
            self.shape_after(i - 1)
        }
    }

    /// Full forward pass.
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Forward pass retaining every intermediate activation.
    ///
    /// Returns `n+1` tensors: the input followed by each layer's output.
    /// Training and the delta-network baseline need the intermediates.
    pub fn forward_collect(&self, input: &Tensor3) -> Vec<Tensor3> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    /// Runs layers `0..=target` — the AMC *prefix* (key frames only).
    pub fn forward_prefix(&self, input: &Tensor3, target: usize) -> Tensor3 {
        assert!(target < self.layers.len(), "target layer out of range");
        let mut x = input.clone();
        for layer in &self.layers[..=target] {
            x = layer.forward(&x);
        }
        x
    }

    /// Runs layers `target+1..` — the AMC *suffix* (every frame), starting
    /// from a (stored or warped) target activation.
    pub fn forward_suffix(&self, activation: &Tensor3, target: usize) -> Tensor3 {
        assert!(target < self.layers.len(), "target layer out of range");
        let mut x = activation.clone();
        for layer in &self.layers[target + 1..] {
            x = layer.forward(&x);
        }
        x
    }

    /// [`Network::forward_prefix`] reusing caller-owned scratch, so a
    /// frame-loop caller (the AMC executor) allocates nothing per frame for
    /// the convolutions' padded input copies. Activations are handed layer
    /// to layer by value
    /// ([`Layer::forward_owned`]), so in-place-capable layers (ReLU)
    /// rectify without allocating — bit-identical to the borrowing chain.
    pub fn forward_prefix_scratch(
        &self,
        input: &Tensor3,
        target: usize,
        scratch: &mut GemmScratch,
    ) -> Tensor3 {
        assert!(target < self.layers.len(), "target layer out of range");
        let mut x = input.clone();
        for layer in &self.layers[..=target] {
            x = layer.forward_owned(x, scratch);
        }
        x
    }

    /// Runs the suffix directly from a sparse target activation.
    ///
    /// The first suffix layer consumes the non-zero entries via
    /// [`Layer::forward_sparse`] when it has a sparse-fed path: a
    /// fully-connected head adds one weight row per non-zero and skips the
    /// zeros' work, mirroring the paper's skip-zero hardware (§IV). Every other
    /// head densifies first — a convolution head included: on
    /// `tiny_fasterm`'s early-target head, densify + the dense conv
    /// measured 7.1 µs against 12.3 µs for scattering the ≈ 735 non-zeros
    /// straight into the conv's padded input copy (6.8 against 10.0 µs at
    /// ≈ 480). Remaining suffix layers run dense with shared scratch.
    pub fn forward_suffix_sparse(
        &self,
        activation: &SparseActivation,
        target: usize,
        scratch: &mut GemmScratch,
    ) -> Tensor3 {
        assert!(target < self.layers.len(), "target layer out of range");
        let suffix = &self.layers[target + 1..];
        let Some((first, rest)) = suffix.split_first() else {
            return activation.to_dense();
        };
        let mut x = match first.forward_sparse(activation, scratch) {
            Some(out) => out,
            None => first.forward_scratch(&activation.to_dense(), scratch),
        };
        for layer in rest {
            x = layer.forward_scratch(&x, scratch);
        }
        x
    }

    /// Backpropagates through all layers given the forward activations from
    /// [`Network::forward_collect`] and the gradient of the loss w.r.t. the
    /// network output. Returns the gradient w.r.t. the input.
    pub fn backward(&mut self, acts: &[Tensor3], grad_out: Tensor3) -> Tensor3 {
        assert_eq!(acts.len(), self.layers.len() + 1, "activation count");
        let mut grad = grad_out;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(&acts[i], &grad);
        }
        grad
    }

    /// Backpropagates only through the suffix `target+1..` (used by the
    /// Table III suffix-retraining experiment). `acts` must be the forward
    /// activations of the suffix: `acts[0]` is the (possibly warped) target
    /// activation, `acts[i]` the output of suffix layer `i-1`.
    pub fn backward_suffix(&mut self, target: usize, acts: &[Tensor3], grad_out: Tensor3) {
        let suffix = &mut self.layers[target + 1..];
        assert_eq!(acts.len(), suffix.len() + 1, "suffix activation count");
        let mut grad = grad_out;
        for (i, layer) in suffix.iter_mut().enumerate().rev() {
            grad = layer.backward(&acts[i], &grad);
        }
    }

    /// Forward pass through the suffix retaining intermediates (companion of
    /// [`Network::backward_suffix`]).
    pub fn forward_suffix_collect(&self, activation: &Tensor3, target: usize) -> Vec<Tensor3> {
        let mut acts = vec![activation.clone()];
        for layer in &self.layers[target + 1..] {
            let next = layer.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    /// Applies accumulated gradients on every layer.
    pub fn apply_grads(&mut self, lr: f32, batch: usize) {
        for layer in &mut self.layers {
            layer.apply_grads(lr, batch);
        }
    }

    /// Index of the last spatial layer — the paper's default ("late") target
    /// layer: "we implement AMC by statically targeting the last spatial
    /// layer" (§II-C5).
    pub fn last_spatial_layer(&self) -> Option<usize> {
        let mut last = None;
        for (i, layer) in self.layers.iter().enumerate() {
            if layer.is_spatial() {
                last = Some(i);
            } else {
                break; // spatial prefix ends at the first non-spatial layer
            }
        }
        last
    }

    /// Index of the first pooling-like downsampling layer's position, i.e.
    /// the paper's "early" target: "the early layer is after the CNN's first
    /// pooling layer" (§IV-E3).
    pub fn first_pool_layer(&self) -> Option<usize> {
        self.layers.iter().position(|l| {
            l.geometry()
                .map(|g| g.stride > 1 && l.param_count() == 0)
                .unwrap_or(false)
        })
    }

    /// Receptive field of the activation produced by layer `target`, as seen
    /// from the input pixels.
    pub fn receptive_field(&self, target: usize) -> ReceptiveField {
        ReceptiveField::of_prefix(&self.layers[..=target])
    }

    /// Total MACs of a full forward pass.
    pub fn total_macs(&self) -> u64 {
        let mut s = self.input_shape;
        let mut total = 0;
        for layer in &self.layers {
            total += layer.macs(s);
            s = layer.output_shape(s);
        }
        total
    }

    /// MACs of the prefix `0..=target` (the work AMC skips on predicted
    /// frames).
    pub fn prefix_macs(&self, target: usize) -> u64 {
        let mut s = self.input_shape;
        let mut total = 0;
        for layer in &self.layers[..=target] {
            total += layer.macs(s);
            s = layer.output_shape(s);
        }
        total
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Snapshots every layer's parameters (for checkpointing).
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.layers.iter().map(|l| l.params()).collect()
    }

    /// Restores a snapshot taken from a structurally identical network.
    ///
    /// # Panics
    ///
    /// Panics when the layer count or any layer's parameter count differs.
    pub fn restore(&mut self, snapshot: &[Vec<f32>]) {
        assert_eq!(snapshot.len(), self.layers.len(), "layer count mismatch");
        for (layer, params) in self.layers.iter_mut().zip(snapshot) {
            layer.load_params(params);
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Network({}, input={})", self.name, self.input_shape)?;
        let mut s = self.input_shape;
        for (i, layer) in self.layers.iter().enumerate() {
            s = layer.output_shape(s);
            writeln!(f, "  [{i}] {layer:?} -> {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, FullyConnected, MaxPool2d, Relu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_net() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Network::new("toy", Shape3::new(1, 8, 8));
        net.push(Box::new(Conv2d::new("conv1", 1, 4, 3, 1, 1, &mut rng)));
        net.push(Box::new(Relu::new("relu1")));
        net.push(Box::new(MaxPool2d::new("pool1", 2, 2)));
        net.push(Box::new(Conv2d::new("conv2", 4, 8, 3, 1, 1, &mut rng)));
        net.push(Box::new(Relu::new("relu2")));
        net.push(Box::new(FullyConnected::new("fc1", 8 * 4 * 4, 4, &mut rng)));
        net
    }

    #[test]
    fn shapes_propagate() {
        let net = toy_net();
        assert_eq!(net.shape_after(0), Shape3::new(4, 8, 8));
        assert_eq!(net.shape_after(2), Shape3::new(4, 4, 4));
        assert_eq!(net.shape_after(5), Shape3::new(4, 1, 1));
        assert_eq!(net.shape_before(3), Shape3::new(4, 4, 4));
        assert_eq!(net.shape_before(0), Shape3::new(1, 8, 8));
    }

    #[test]
    fn prefix_plus_suffix_equals_full() {
        let net = toy_net();
        let input = Tensor3::from_fn(Shape3::new(1, 8, 8), |_, y, x| ((y * 8 + x) as f32).sin());
        let full = net.forward(&input);
        for target in 0..4 {
            let act = net.forward_prefix(&input, target);
            let split = net.forward_suffix(&act, target);
            assert_eq!(split, full, "split at {target} diverged");
        }
    }

    #[test]
    fn forward_collect_matches_forward() {
        let net = toy_net();
        let input = Tensor3::filled(Shape3::new(1, 8, 8), 0.5);
        let acts = net.forward_collect(&input);
        assert_eq!(acts.len(), net.len() + 1);
        assert_eq!(acts.last().unwrap(), &net.forward(&input));
    }

    #[test]
    fn prefix_scratch_owned_chain_bit_identical_to_borrowing_chain() {
        use eva2_tensor::GemmScratch;
        let net = toy_net();
        let input = Tensor3::from_fn(Shape3::new(1, 8, 8), |_, y, x| ((y * 3 + x) as f32).sin());
        let mut scratch = GemmScratch::new();
        for target in 0..=4 {
            let owned = net.forward_prefix_scratch(&input, target, &mut scratch);
            let mut borrowed = input.clone();
            for layer in &net.layers()[..=target] {
                borrowed = layer.forward_scratch(&borrowed, &mut scratch);
            }
            assert_eq!(
                owned.as_slice(),
                borrowed.as_slice(),
                "owned chain bits at target {target}"
            );
        }
    }

    #[test]
    fn last_spatial_layer_stops_at_fc() {
        let net = toy_net();
        assert_eq!(net.last_spatial_layer(), Some(4)); // relu2
        assert_eq!(net.first_pool_layer(), Some(2)); // pool1
    }

    #[test]
    fn macs_sum() {
        let net = toy_net();
        // conv1: 8*8*4 * 1*9 = 2304; conv2: 4*4*8 * 4*9 = 4608; fc: 128*4 = 512
        assert_eq!(net.total_macs(), 2304 + 4608 + 512);
        assert_eq!(net.prefix_macs(2), 2304);
        assert_eq!(net.prefix_macs(4), 2304 + 4608);
    }

    #[test]
    fn end_to_end_gradcheck() {
        let mut net = toy_net();
        let input = Tensor3::from_fn(Shape3::new(1, 8, 8), |_, y, x| ((y + 2 * x) as f32).cos());
        let acts = net.forward_collect(&input);
        let out = acts.last().unwrap().clone();
        let grad_out = Tensor3::filled(out.shape(), 1.0);
        let grad_in = net.backward(&acts, grad_out);
        // Numerically check a few input coordinates.
        let eps = 1e-2;
        for &(y, x) in &[(0usize, 0usize), (3, 5), (7, 7)] {
            let mut plus = input.clone();
            plus.set(0, y, x, input.get(0, y, x) + eps);
            let mut minus = input.clone();
            minus.set(0, y, x, input.get(0, y, x) - eps);
            let lp: f32 = net.forward(&plus).iter().sum();
            let lm: f32 = net.forward(&minus).iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.get(0, y, x);
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "at ({y},{x}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn suffix_training_leaves_prefix_untouched() {
        let mut net = toy_net();
        let input = Tensor3::filled(Shape3::new(1, 8, 8), 0.3);
        let target = net.last_spatial_layer().unwrap();
        let act_before = net.forward_prefix(&input, target);
        // Train the suffix a few steps on an arbitrary loss.
        for _ in 0..3 {
            let acts = net.forward_suffix_collect(&act_before, target);
            let out = acts.last().unwrap().clone();
            let grad = out.map(|v| 2.0 * v); // d/dv of v^2
            net.backward_suffix(target, &acts, grad);
            net.apply_grads(0.01, 1);
        }
        let act_after = net.forward_prefix(&input, target);
        assert_eq!(act_before, act_after, "prefix weights must not change");
    }

    #[test]
    fn debug_lists_layers() {
        let net = toy_net();
        let d = format!("{net:?}");
        assert!(d.contains("conv1"));
        assert!(d.contains("fc1"));
    }

    #[test]
    fn param_count_sums() {
        let net = toy_net();
        let expect = (4 * 9 + 4) + (8 * 4 * 9 + 8) + (8 * 16 * 4 + 4);
        assert_eq!(net.param_count(), expect);
    }
}
