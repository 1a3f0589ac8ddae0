//! Key-activation storage: the dense Q8.8 store the host keeps and the
//! run-length encoding the hardware keeps.
//!
//! "EVA² uses run-length encoding (RLE) for activations. RLE is critical to
//! enabling on-chip activation storage: for Faster16, for example, sparse
//! storage reduces memory requirements by more than 80%" (§III-B). Values
//! are 16-bit fixed point; zeros are elided and represented as a *zero gap*
//! before each stored value.
//!
//! The host stores one copy of a key activation: a [`QuantizedActivation`],
//! every value as Q8.8 bits after near-zero suppression, dense. At 2 B a
//! value against the RLE's 4 B a non-zero it is the smaller format until
//! more than half the values are zero (which untrained zoo activations are
//! not), and it needs no decode: the warp reads it directly
//! ([`crate::warp::warp_quantized_sparse`]) and the suffix's non-zero view
//! is derived from it per frame ([`QuantizedActivation::to_sparse`]).
//! [`RleActivation`] is the hardware model, *derived on demand*
//! ([`QuantizedActivation::to_rle`]) for its compression figure; nothing on
//! the serving path builds one. Fig 10's sparsity decoder, which lets the
//! warp engine skip shared zero runs, is priced by `eva2-hw` from its
//! calibration constants and has no software model here.

use eva2_tensor::{Fixed, Shape3, SparseActivation, Tensor3};
use serde::{Deserialize, Serialize};

/// Maximum zero gap representable in one RLE entry. Longer runs insert
/// explicit zero-value entries, mirroring a fixed-width gap field in
/// hardware.
pub const MAX_ZERO_GAP: u16 = 255;

/// One run-length entry: `zero_gap` zeros followed by `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RleEntry {
    /// Number of zeros preceding `value` in the stream.
    pub zero_gap: u16,
    /// The non-zero activation value (Q8.8 bits). May be zero only for
    /// gap-overflow placeholder entries.
    pub value: i16,
}

/// A key-frame target activation as the host stores it: one dense plane
/// of Q8.8 bits per channel, values with `|v| <= threshold` suppressed to
/// zero (the paper's near-zero suppression, §II-C2).
///
/// This is the only copy a serving session keeps. Every other view — the
/// RLE stream, the non-zero list the suffix reads, the dequantized tensor
/// — is derived from it and agrees with it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedActivation {
    shape: Shape3,
    bits: Vec<i16>,
}

impl QuantizedActivation {
    /// Quantizes a tensor to Q8.8, zeroing values with `|v| <= threshold`
    /// first. NaN quantizes to zero.
    pub fn quantize(t: &Tensor3, threshold: f32) -> Self {
        let bits = t
            .iter()
            .map(|&v| {
                if v.abs() <= threshold {
                    0
                } else {
                    Fixed::from_f32(v).to_bits()
                }
            })
            .collect();
        Self {
            shape: t.shape(),
            bits,
        }
    }

    /// The activation shape.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Channel `c`'s plane of Q8.8 bits, row-major.
    pub fn channel(&self, c: usize) -> &[i16] {
        let plane = self.shape.plane_len();
        &self.bits[c * plane..(c + 1) * plane]
    }

    /// Bytes of heap memory this store holds (allocated capacity) — what
    /// a serving session is charged for its key activation.
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<i16>()
    }

    /// Calls `emit` with each RLE entry of channel `c`, in stream order:
    /// the one encoder behind [`QuantizedActivation::to_rle`] and
    /// [`QuantizedActivation::compression`].
    fn rle_entries(&self, c: usize, mut emit: impl FnMut(RleEntry)) {
        let mut gap: u32 = 0;
        for &value in self.channel(c) {
            if value == 0 {
                gap += 1;
                continue;
            }
            // A placeholder entry stands for MAX_ZERO_GAP skipped zeros
            // *plus its own zero value*, i.e. MAX_ZERO_GAP + 1 positions.
            while gap > MAX_ZERO_GAP as u32 {
                emit(RleEntry {
                    zero_gap: MAX_ZERO_GAP,
                    value: 0,
                });
                gap -= MAX_ZERO_GAP as u32 + 1;
            }
            emit(RleEntry {
                zero_gap: gap as u16,
                value,
            });
            gap = 0;
        }
    }

    /// The hardware's run-length encoding of this activation.
    pub fn to_rle(&self) -> RleActivation {
        let channels = (0..self.shape.channels)
            .map(|c| {
                let mut entries = Vec::new();
                self.rle_entries(c, |e| entries.push(e));
                entries
            })
            .collect();
        RleActivation {
            shape: self.shape,
            channels,
        }
    }

    /// [`RleActivation::compression`] of [`QuantizedActivation::to_rle`],
    /// counted without building the stream.
    pub fn compression(&self) -> f32 {
        let mut entries = 0usize;
        for c in 0..self.shape.channels {
            self.rle_entries(c, |_| entries += 1);
        }
        rle_compression(entries, self.shape)
    }

    /// The non-zero `(position, value)` view the sparse-aware CNN suffix
    /// consumes, sized exactly: two allocations whatever the channel count.
    pub fn to_sparse(&self) -> SparseActivation {
        let nnz = self.bits.iter().filter(|&&b| b != 0).count();
        let mut out = SparseActivation::with_capacity(self.shape, nnz);
        for c in 0..self.shape.channels {
            for (pos, &b) in self.channel(c).iter().enumerate() {
                if b != 0 {
                    out.push(pos as u32, Fixed::from_bits(b).to_f32());
                }
            }
            out.end_channel();
        }
        out
    }

    /// The dense `f32` tensor of the stored values (exact: every Q8.8
    /// value is an `f32`).
    pub fn dequantize(&self) -> Tensor3 {
        Tensor3::from_vec(
            self.shape,
            self.bits
                .iter()
                .map(|&b| Fixed::from_bits(b).to_f32())
                .collect(),
        )
    }
}

/// `1 - encoded/dense` for `entries` 4-byte RLE entries of a `shape`
/// activation stored densely at 2 bytes a value.
fn rle_compression(entries: usize, shape: Shape3) -> f32 {
    let encoded = entries * 4;
    let dense = shape.len() * 2;
    1.0 - encoded as f32 / dense.max(1) as f32
}

/// A run-length-encoded activation tensor in Q8.8 fixed point — the
/// hardware's on-chip format (§III-B), derived from a
/// [`QuantizedActivation`].
///
/// Channels are encoded independently (the hardware's decoder lanes walk one
/// channel at a time). Trailing zeros in a channel are implicit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RleActivation {
    shape: Shape3,
    channels: Vec<Vec<RleEntry>>,
}

impl RleActivation {
    /// Encodes a tensor, zeroing values with `|v| <= threshold` first
    /// (the paper's near-zero suppression, §II-C2) and quantizing to Q8.8:
    /// [`QuantizedActivation::quantize`] then
    /// [`QuantizedActivation::to_rle`].
    pub fn encode(t: &Tensor3, threshold: f32) -> Self {
        QuantizedActivation::quantize(t, threshold).to_rle()
    }

    /// Decodes back to a dense tensor (values on the Q8.8 grid).
    pub fn decode(&self) -> Tensor3 {
        let mut t = Tensor3::zeros(self.shape);
        for (c, entries) in self.channels.iter().enumerate() {
            let plane = t.channel_mut(c);
            let mut pos = 0usize;
            for e in entries {
                pos += e.zero_gap as usize;
                // A gap-overflow placeholder's zero value takes a slot too.
                if e.value != 0 {
                    plane[pos] = Fixed::from_bits(e.value).to_f32();
                }
                pos += 1;
            }
        }
        t
    }

    /// The decoded tensor shape.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Encoded size in bytes (each entry is 16-bit gap + 16-bit value in
    /// this model; the RTL packs tighter but ratios are what matter).
    pub fn encoded_bytes(&self) -> usize {
        self.channels.iter().map(|c| c.len() * 4).sum()
    }

    /// Dense 16-bit storage size in bytes.
    pub fn dense_bytes(&self) -> usize {
        self.shape.len() * 2
    }

    /// Compression ratio: `1 - encoded/dense` (the paper reports 80–87% for
    /// its detection networks).
    pub fn compression(&self) -> f32 {
        rle_compression(self.channels.iter().map(Vec::len).sum(), self.shape)
    }

    /// The run-length stream of channel `c`.
    pub fn channel_stream(&self, c: usize) -> &[RleEntry] {
        &self.channels[c]
    }

    /// Converts to the non-zero `(position, value)` view the sparse-aware
    /// CNN suffix consumes, **without densifying**: each lane's zero gaps
    /// are walked exactly once, so the cost is `O(entries)` rather than
    /// `O(dense size)`. Gap-overflow placeholders contribute positions but
    /// no values.
    pub fn to_sparse(&self) -> SparseActivation {
        let entries = self.channels.iter().map(Vec::len).sum();
        let mut out = SparseActivation::with_capacity(self.shape, entries);
        for entries in &self.channels {
            let mut pos = 0u32;
            for e in entries {
                pos += e.zero_gap as u32;
                if e.value != 0 {
                    out.push(pos, Fixed::from_bits(e.value).to_f32());
                }
                pos += 1;
            }
            out.end_channel();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_tensor() -> Tensor3 {
        Tensor3::from_fn(Shape3::new(2, 4, 4), |c, y, x| {
            if (y * 4 + x + c) % 5 == 0 {
                (1 + y + x) as f32 * 0.5
            } else {
                0.0
            }
        })
    }

    #[test]
    fn roundtrip_is_exact_on_q88_grid() {
        let t = sparse_tensor();
        let rle = RleActivation::encode(&t, 0.0);
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn threshold_zeroes_small_values() {
        let t = Tensor3::from_vec(Shape3::new(1, 1, 4), vec![0.001, 0.5, -0.002, -0.8]);
        let rle = RleActivation::encode(&t, 0.01);
        let d = rle.decode();
        assert_eq!(d.as_slice()[0], 0.0);
        assert_eq!(d.as_slice()[2], 0.0);
        assert_eq!(d.as_slice()[1], 0.5);
    }

    #[test]
    fn sparse_data_compresses_dramatically() {
        // 95% zeros → compression must exceed the paper's 80% claim.
        let t = Tensor3::from_fn(Shape3::new(4, 16, 16), |_, y, x| {
            if (y * 16 + x) % 20 == 0 {
                1.5
            } else {
                0.0
            }
        });
        let rle = RleActivation::encode(&t, 0.0);
        assert!(
            rle.compression() > 0.8,
            "compression {} too low",
            rle.compression()
        );
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn dense_data_does_not_compress() {
        let t = Tensor3::filled(Shape3::new(1, 8, 8), 1.0);
        let rle = RleActivation::encode(&t, 0.0);
        assert!(rle.compression() <= 0.0);
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn long_zero_runs_use_placeholders() {
        let mut t = Tensor3::zeros(Shape3::new(1, 20, 20)); // 400 zeros
        t.set(0, 19, 19, 2.0);
        let rle = RleActivation::encode(&t, 0.0);
        // 399 zeros before the value: one placeholder (255) + entry (144).
        assert_eq!(rle.channel_stream(0).len(), 2);
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn all_zero_channel_is_empty() {
        let t = Tensor3::zeros(Shape3::new(2, 4, 4));
        let rle = RleActivation::encode(&t, 0.0);
        assert_eq!(rle.channel_stream(0).len(), 0);
        assert_eq!(rle.encoded_bytes(), 0);
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn negative_values_roundtrip() {
        let t = Tensor3::from_vec(Shape3::new(1, 1, 3), vec![-1.5, 0.0, -0.25]);
        let rle = RleActivation::encode(&t, 0.0);
        assert_eq!(rle.decode(), t);
    }

    #[test]
    fn quantization_respects_q88() {
        let t = Tensor3::from_vec(Shape3::new(1, 1, 2), vec![0.126, 1.0 / 3.0]);
        let d = RleActivation::encode(&t, 0.0).decode();
        assert_eq!(d.as_slice()[0], Fixed::from_f32(0.126).to_f32());
        assert_eq!(d.as_slice()[1], Fixed::from_f32(1.0 / 3.0).to_f32());
    }

    // ------------------------------------------------------------------
    // Derived views against an independent reference
    // ------------------------------------------------------------------

    /// The per-value RLE encoder the engine ran before the Q8.8 store
    /// existed, kept verbatim as the oracle for every derived view.
    fn reference_encode(t: &Tensor3, threshold: f32) -> RleActivation {
        let shape = t.shape();
        let mut channels = Vec::with_capacity(shape.channels);
        for c in 0..shape.channels {
            let mut entries = Vec::new();
            let mut gap: u32 = 0;
            for &v in t.channel(c) {
                let q = if v.abs() <= threshold {
                    Fixed::ZERO
                } else {
                    Fixed::from_f32(v)
                };
                if q.is_zero() {
                    gap += 1;
                    continue;
                }
                while gap > MAX_ZERO_GAP as u32 {
                    entries.push(RleEntry {
                        zero_gap: MAX_ZERO_GAP,
                        value: 0,
                    });
                    gap -= MAX_ZERO_GAP as u32 + 1;
                }
                entries.push(RleEntry {
                    zero_gap: gap as u16,
                    value: q.to_bits(),
                });
                gap = 0;
            }
            channels.push(entries);
        }
        RleActivation { shape, channels }
    }

    /// A random activation mixing the encoder's edge cases: long zero runs
    /// (past [`MAX_ZERO_GAP`], so placeholders), negative values, values
    /// exactly at ±`threshold`, values that round to a zero Q8.8 code,
    /// magnitudes ≥ 128 (saturation), −0.0 and NaN.
    fn edge_case_tensor(rng: &mut impl rand::Rng, threshold: f32) -> Tensor3 {
        let shape = Shape3::new(
            rng.gen_range(1..4),
            rng.gen_range(1..24),
            rng.gen_range(1..24),
        );
        let zero_share = [0.3, 0.9, 0.995][rng.gen_range(0..3)];
        Tensor3::from_fn(shape, |_, _, _| {
            if rng.gen_bool(zero_share) {
                return 0.0;
            }
            match rng.gen_range(0..9) {
                0 => threshold,
                1 => -threshold,
                2 => 0.001,
                3 => rng.gen_range(128.0..400.0),
                4 => -rng.gen_range(128.0..400.0),
                5 => f32::NAN,
                6 => -0.0,
                _ => rng.gen_range(-4.0..4.0),
            }
        })
    }

    #[test]
    fn derived_views_match_the_reference_encoder() {
        use crate::warp::{
            warp_activation_fixed, warp_activation_sparse, warp_quantized_fixed_sparse,
            warp_quantized_sparse,
        };
        use eva2_motion::field::{MotionVector, VectorField};
        use eva2_tensor::interp::Interpolation;
        use rand::{Rng, SeedableRng};

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(30);
        let mut placeholders = 0;
        for case in 0..300 {
            let threshold = [0.0, 0.05, 0.5][case % 3];
            let t = edge_case_tensor(&mut rng, threshold);
            let act = QuantizedActivation::quantize(&t, threshold);
            let rle = act.to_rle();
            assert_eq!(
                rle,
                reference_encode(&t, threshold),
                "case {case}: RLE stream"
            );
            placeholders += (0..rle.shape().channels)
                .flat_map(|c| rle.channel_stream(c))
                .filter(|e| e.value == 0)
                .count();
            assert_eq!(act.to_sparse(), rle.to_sparse(), "case {case}: sparse view");
            assert_eq!(act.dequantize(), rle.decode(), "case {case}: dequantized");
            assert_eq!(
                act.compression().to_bits(),
                rle.compression().to_bits(),
                "case {case}: compression"
            );

            // The store-reading warps against the tensor warps on the
            // dequantized store, with motion reaching past the frame.
            let shape = act.shape();
            let stride = rng.gen_range(1..5);
            let reach = 3.0 * stride as f32;
            let field = VectorField::from_fn(shape.height, shape.width, stride, |_, _| {
                MotionVector::new(rng.gen_range(-reach..reach), rng.gen_range(-reach..reach))
            });
            let dense = act.dequantize();
            for method in [Interpolation::Bilinear, Interpolation::NearestNeighbor] {
                assert_eq!(
                    warp_quantized_sparse(&act, &field, stride, method),
                    warp_activation_sparse(&dense, &field, stride, method),
                    "case {case}: {method:?} warp"
                );
            }
            let (fixed, fixed_stats) = warp_activation_fixed(&dense, &field, stride);
            assert_eq!(
                warp_quantized_fixed_sparse(&act, &field, stride),
                (SparseActivation::from_dense(&fixed, 0.0), fixed_stats),
                "case {case}: Q8.8 warp"
            );
        }
        assert!(placeholders > 0, "the cases must exercise gap placeholders");
    }
}
