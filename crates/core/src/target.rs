//! Target layer selection.
//!
//! "To apply AMC to a given CNN, the system needs to choose a target layer.
//! This choice controls both AMC's potential efficiency benefits and its
//! error rate" (§II-C5). The paper evaluates an *early* target (after the
//! first pooling layer) and a *late* target (the last spatial layer) and
//! adopts the late one statically.

use crate::error::AmcError;
use eva2_cnn::network::Network;
use eva2_motion::rfbme::RfGeometry;

/// How the AMC target layer is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetSelection {
    /// After the CNN's first pooling layer (§IV-E3's "early target").
    Early,
    /// The last spatial layer — the paper's default.
    #[default]
    Late,
    /// An explicit layer index (must be spatial and within the spatial
    /// prefix).
    Index(usize),
}

impl TargetSelection {
    /// Resolves the selection to a concrete layer index for `net`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AmcError`] when the network has no spatial prefix
    /// ([`AmcError::NoSpatialPrefix`]), an early target is requested with
    /// no pooling layer ([`AmcError::NoPoolingLayer`]), or the explicit
    /// index lies after the last spatial layer
    /// ([`AmcError::TargetOutsidePrefix`]).
    pub fn resolve(self, net: &Network) -> Result<usize, AmcError> {
        let last = net
            .last_spatial_layer()
            .ok_or_else(|| AmcError::NoSpatialPrefix {
                network: net.name().to_string(),
            })?;
        match self {
            TargetSelection::Late => Ok(last),
            TargetSelection::Early => {
                net.first_pool_layer()
                    .ok_or_else(|| AmcError::NoPoolingLayer {
                        network: net.name().to_string(),
                    })
            }
            TargetSelection::Index(i) => {
                if i > last {
                    Err(AmcError::TargetOutsidePrefix {
                        index: i,
                        last_spatial: last,
                    })
                } else {
                    Ok(i)
                }
            }
        }
    }

    /// Resolves and returns the receptive-field geometry RFBME needs.
    ///
    /// # Errors
    ///
    /// Propagates [`TargetSelection::resolve`]'s errors.
    pub fn geometry(self, net: &Network) -> Result<(usize, RfGeometry), AmcError> {
        let target = self.resolve(net)?;
        let rf = net.receptive_field(target);
        Ok((
            target,
            RfGeometry {
                size: rf.size,
                stride: rf.stride,
                padding: rf.padding,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva2_cnn::zoo;

    #[test]
    fn late_resolves_to_last_spatial() {
        let z = zoo::tiny_faster16(0);
        assert_eq!(TargetSelection::Late.resolve(&z.network), Ok(z.late_target));
    }

    #[test]
    fn early_resolves_to_first_pool() {
        let z = zoo::tiny_faster16(0);
        assert_eq!(
            TargetSelection::Early.resolve(&z.network),
            Ok(z.early_target)
        );
    }

    #[test]
    fn explicit_index_validated() {
        let z = zoo::tiny_alexnet(0);
        assert_eq!(TargetSelection::Index(5).resolve(&z.network), Ok(5));
        assert!(TargetSelection::Index(100).resolve(&z.network).is_err());
        // fc1 at index 9 is outside the spatial prefix.
        assert!(TargetSelection::Index(9).resolve(&z.network).is_err());
    }

    #[test]
    fn geometry_matches_network_receptive_field() {
        let z = zoo::tiny_fasterm(0);
        let (target, rf) = TargetSelection::Late.geometry(&z.network).expect("ok");
        let expect = z.network.receptive_field(target);
        assert_eq!(rf.size, expect.size);
        assert_eq!(rf.stride, expect.stride);
        assert_eq!(rf.padding, expect.padding);
        assert_eq!(rf.stride, 8);
    }

    #[test]
    fn default_is_late() {
        assert_eq!(TargetSelection::default(), TargetSelection::Late);
    }
}
