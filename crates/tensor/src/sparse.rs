//! A lightweight sparse view of an activation tensor.
//!
//! [`SparseActivation`] is the exchange format between the stored key
//! activation (`eva2-core`'s Q8.8 store and the warp that reads it) and the
//! CNN suffix's sparse-aware layers: per channel, an ascending list of
//! `(position, value)` pairs for the non-zero entries, all channels in one
//! flat vector. It deliberately carries no run-length machinery — its
//! producers emit survivors through a [`SparseActivation::push`] /
//! [`SparseActivation::end_channel`] builder, and the suffix consumes it by
//! iterating only the survivors, mirroring how the EVA² warp engine "skips
//! over zero entries … reducing the motion compensation cost proportionally
//! to the activations' sparsity" (§V of the paper).

use crate::shape::Shape3;
use crate::tensor::Tensor3;

/// Non-zero entries of a `C × H × W` activation, channel-major: one flat
/// entry vector plus the offset where each channel's entries start, so
/// building or reading one allocates nothing per channel.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseActivation {
    shape: Shape3,
    /// Every channel's ascending `(plane_position, value)` pairs, in
    /// channel order.
    entries: Vec<(u32, f32)>,
    /// `offsets[c]..offsets[c + 1]` indexes channel `c`'s entries; one
    /// more element than channels once built, starting at 0.
    offsets: Vec<usize>,
}

impl SparseActivation {
    /// An empty builder for an activation of `shape` with room for
    /// `capacity` entries: [`push`](Self::push) channel 0's entries,
    /// [`end_channel`](Self::end_channel), and so on for every channel.
    pub fn with_capacity(shape: Shape3, capacity: usize) -> Self {
        let mut offsets = Vec::with_capacity(shape.channels + 1);
        offsets.push(0);
        Self {
            shape,
            entries: Vec::with_capacity(capacity),
            offsets,
        }
    }

    /// Appends a non-zero entry to the channel being built. Positions must
    /// ascend within a channel and stay inside the plane.
    #[inline]
    pub fn push(&mut self, pos: u32, value: f32) {
        debug_assert!((pos as usize) < self.shape.plane_len());
        self.entries.push((pos, value));
    }

    /// Closes the channel being built; the next [`push`](Self::push)
    /// starts the next channel.
    #[inline]
    pub fn end_channel(&mut self) {
        debug_assert!(self.offsets.len() <= self.shape.channels);
        self.offsets.push(self.entries.len());
    }

    /// Builds from per-channel `(position, value)` lists.
    ///
    /// # Panics
    ///
    /// Panics when the channel count differs from `shape.channels`, any
    /// position exceeds the plane length, or positions within a channel
    /// are not strictly ascending.
    pub fn from_channels(shape: Shape3, channels: Vec<Vec<(u32, f32)>>) -> Self {
        assert_eq!(channels.len(), shape.channels, "channel count mismatch");
        let plane = shape.plane_len();
        let mut out = Self::with_capacity(shape, channels.iter().map(Vec::len).sum());
        for entries in &channels {
            let mut prev: Option<u32> = None;
            for &(pos, v) in entries {
                assert!(
                    (pos as usize) < plane,
                    "position {pos} outside plane {plane}"
                );
                if let Some(p) = prev {
                    assert!(pos > p, "positions not strictly ascending: {p} then {pos}");
                }
                prev = Some(pos);
                out.push(pos, v);
            }
            out.end_channel();
        }
        out
    }

    /// Extracts the non-zero structure of a dense tensor, treating values
    /// with `|v| <= threshold` as zero.
    pub fn from_dense(t: &Tensor3, threshold: f32) -> Self {
        let shape = t.shape();
        let mut out = Self::with_capacity(shape, shape.len());
        for c in 0..shape.channels {
            for (i, &v) in t.channel(c).iter().enumerate() {
                if v.abs() > threshold {
                    out.push(i as u32, v);
                }
            }
            out.end_channel();
        }
        out
    }

    /// Densifies back to a tensor.
    pub fn to_dense(&self) -> Tensor3 {
        let mut t = Tensor3::zeros(self.shape);
        for c in 0..self.shape.channels {
            let plane = t.channel_mut(c);
            for &(pos, v) in self.channel(c) {
                plane[pos as usize] = v;
            }
        }
        t
    }

    /// The dense shape this sparse view describes.
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of entries that are zero (1.0 for an all-zero tensor).
    pub fn sparsity(&self) -> f32 {
        let len = self.shape.len();
        if len == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f32 / len as f32
        }
    }

    /// One channel's `(position, value)` pairs.
    pub fn channel(&self, c: usize) -> &[(u32, f32)] {
        &self.entries[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Iterates `(flat_index, value)` over all non-zeros in channel-major
    /// order (`flat_index` indexes the dense channel-major buffer).
    pub fn iter_flat(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        let plane = self.shape.plane_len();
        (0..self.shape.channels).flat_map(move |c| {
            self.channel(c)
                .iter()
                .map(move |&(pos, v)| (c * plane + pos as usize, v))
        })
    }

    /// Iterates `(channel, y, x, value)` over all non-zeros.
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, usize, f32)> + '_ {
        let width = self.shape.width;
        (0..self.shape.channels).flat_map(move |c| {
            self.channel(c)
                .iter()
                .map(move |&(pos, v)| (c, pos as usize / width, pos as usize % width, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tensor3 {
        Tensor3::from_fn(Shape3::new(2, 3, 4), |c, y, x| {
            if (c + y + x) % 3 == 0 {
                0.0
            } else {
                (c * 12 + y * 4 + x) as f32 - 5.0
            }
        })
    }

    #[test]
    fn dense_roundtrip() {
        let t = sample();
        let s = SparseActivation::from_dense(&t, 0.0);
        assert_eq!(s.to_dense(), t);
        assert_eq!(s.shape(), t.shape());
    }

    #[test]
    fn threshold_drops_small_values() {
        let t = Tensor3::from_vec(Shape3::new(1, 1, 4), vec![0.05, -0.5, 0.0, 2.0]);
        let s = SparseActivation::from_dense(&t, 0.1);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense().as_slice(), &[0.0, -0.5, 0.0, 2.0]);
    }

    #[test]
    fn sparsity_and_iterators_agree() {
        let t = sample();
        let s = SparseActivation::from_dense(&t, 0.0);
        let dense_nonzero = t.iter().filter(|v| **v != 0.0).count();
        assert_eq!(s.nnz(), dense_nonzero);
        assert!((s.sparsity() - t.sparsity(0.0)).abs() < 1e-6);
        for (i, v) in s.iter_flat() {
            assert_eq!(t.as_slice()[i], v);
        }
        for (c, y, x, v) in s.iter_coords() {
            assert_eq!(t.get(c, y, x), v);
        }
    }

    #[test]
    fn from_channels_validates() {
        let s =
            SparseActivation::from_channels(Shape3::new(1, 2, 2), vec![vec![(0, 1.0), (3, -2.0)]]);
        assert_eq!(s.to_dense().as_slice(), &[1.0, 0.0, 0.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "outside plane")]
    fn from_channels_rejects_out_of_range() {
        let _ = SparseActivation::from_channels(Shape3::new(1, 2, 2), vec![vec![(4, 1.0)]]);
    }
}
