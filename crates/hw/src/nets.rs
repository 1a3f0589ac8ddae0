//! Full-scale descriptors for the paper's three workloads.
//!
//! * [`alexnet`] — AlexNet as in Krizhevsky et al. \[35\], with the original
//!   grouped conv2/4/5 (so conv MACs come out at the canonical ≈666 M).
//! * [`faster16`] — Faster R-CNN with the VGG-16 feature extractor at the
//!   paper's detection resolution of 1000×562 (§IV-A uses exactly this
//!   configuration for its 1.7 × 10¹¹-MAC prefix example).
//! * [`fasterm`] — Faster R-CNN with the CNN-M "medium" extractor of
//!   Chatfield et al. \[38\].

use crate::descriptor::NetDescriptor;

/// Detection input height used by the paper's Faster R-CNN variants.
pub const DETECTION_H: usize = 562;
/// Detection input width.
pub const DETECTION_W: usize = 1000;

/// AlexNet (classification, 3×227×227).
pub fn alexnet() -> NetDescriptor {
    NetDescriptor::new("AlexNet", (3, 227, 227))
        .conv("conv1", 3, 96, 11, 4, 0)
        .pool("pool1", 3, 2)
        .conv_grouped("conv2", 96, 256, 5, 1, 2, 2)
        .pool("pool2", 3, 2)
        .conv("conv3", 256, 384, 3, 1, 1)
        .conv_grouped("conv4", 384, 384, 3, 1, 1, 2)
        .conv_grouped("conv5", 384, 256, 3, 1, 1, 2)
        .pool("pool5", 3, 2)
        .fc("fc6", 4096)
        .fc("fc7", 4096)
        .fc("fc8", 1000)
}

/// VGG-16's thirteen convolutional layers on an arbitrary input size.
fn vgg16_convs(net: NetDescriptor) -> NetDescriptor {
    net.conv("conv1_1", 3, 64, 3, 1, 1)
        .conv("conv1_2", 64, 64, 3, 1, 1)
        .pool("pool1", 2, 2)
        .conv("conv2_1", 64, 128, 3, 1, 1)
        .conv("conv2_2", 128, 128, 3, 1, 1)
        .pool("pool2", 2, 2)
        .conv("conv3_1", 128, 256, 3, 1, 1)
        .conv("conv3_2", 256, 256, 3, 1, 1)
        .conv("conv3_3", 256, 256, 3, 1, 1)
        .pool("pool3", 2, 2)
        .conv("conv4_1", 256, 512, 3, 1, 1)
        .conv("conv4_2", 512, 512, 3, 1, 1)
        .conv("conv4_3", 512, 512, 3, 1, 1)
        .pool("pool4", 2, 2)
        .conv("conv5_1", 512, 512, 3, 1, 1)
        .conv("conv5_2", 512, 512, 3, 1, 1)
        .conv("conv5_3", 512, 512, 3, 1, 1)
}

/// Faster16: VGG-16 features + RPN + detection head at 1000×562.
///
/// "Faster R-CNN adds 3 convolutional layers and 4 fully-connected layers"
/// (§IV-B): the RPN's 3×3 conv with its two 1×1 sibling convs, then
/// fc6/fc7/cls/bbox on the RoI-pooled features. RoI pooling is modelled as a
/// pooling layer to 7×7 granularity (it contributes no MACs either way).
pub fn faster16() -> NetDescriptor {
    let net = vgg16_convs(NetDescriptor::new(
        "Faster16",
        (3, DETECTION_H, DETECTION_W),
    ));
    net
        // Region proposal network.
        .conv("rpn_conv", 512, 512, 3, 1, 1)
        .conv("rpn_cls", 512, 18, 1, 1, 0)
        .conv("rpn_bbox", 512, 36, 1, 1, 0)
        // RoI pooling to 7x7 (no MACs), then the detection head. The head
        // runs per proposal; we model the paper's per-frame cost with one
        // effective pass (EIE's costs are orders of magnitude below conv).
        .pool("roi_pool", 5, 5)
        .fc("fc6", 4096)
        .fc("fc7", 4096)
        .fc("cls_score", 21)
        .fc("bbox_pred", 84)
}

/// FasterM: CNN-M features + RPN + detection head at 1000×562.
pub fn fasterm() -> NetDescriptor {
    NetDescriptor::new("FasterM", (3, DETECTION_H, DETECTION_W))
        .conv("conv1", 3, 96, 7, 2, 0)
        .pool("pool1", 3, 2)
        .conv("conv2", 96, 256, 5, 2, 1)
        .pool("pool2", 3, 2)
        .conv("conv3", 256, 512, 3, 1, 1)
        .conv("conv4", 512, 512, 3, 1, 1)
        .conv("conv5", 512, 512, 3, 1, 1)
        .conv("rpn_conv", 512, 256, 3, 1, 1)
        .conv("rpn_cls", 256, 18, 1, 1, 0)
        .conv("rpn_bbox", 256, 36, 1, 1, 0)
        .pool("roi_pool", 5, 5)
        .fc("fc6", 4096)
        .fc("fc7", 1024)
        .fc("cls_score", 21)
        .fc("bbox_pred", 84)
}

/// The three workloads by paper name.
pub fn by_name(name: &str) -> Option<NetDescriptor> {
    match name {
        "AlexNet" => Some(alexnet()),
        "Faster16" => Some(faster16()),
        "FasterM" => Some(fasterm()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_conv_macs_canonical() {
        let n = alexnet();
        let macs = n.conv_macs();
        // Canonical grouped AlexNet: ≈666M conv MACs (tolerate the usual
        // ±10% from output-size conventions).
        assert!(
            (macs as f64 - 666e6).abs() / 666e6 < 0.12,
            "AlexNet conv MACs = {macs}"
        );
    }

    #[test]
    fn alexnet_fc_macs_canonical() {
        let n = alexnet();
        // 9216*4096 + 4096*4096 + 4096*1000 ≈ 58.6M.
        let macs = n.fc_macs();
        assert!(
            (macs as f64 - 58.6e6).abs() / 58.6e6 < 0.05,
            "AlexNet FC MACs = {macs}"
        );
    }

    #[test]
    fn faster16_prefix_matches_paper_section4a() {
        // "For a Faster16 prefix ending at layer conv5_3 on 1000×562 images
        // … the total is 1.7 × 10^11 MACs."
        let n = faster16();
        let target = n.layer_index("conv5_3").expect("conv5_3");
        let prefix = n.prefix_macs(target);
        assert!(
            (prefix as f64 - 1.7e11).abs() / 1.7e11 < 0.10,
            "Faster16 prefix MACs = {prefix:.3e}"
        );
    }

    #[test]
    fn faster16_rf_at_conv5_3() {
        let n = faster16();
        let target = n.layer_index("conv5_3").unwrap();
        let (size, stride, _) = n.receptive_field(target);
        // VGG-16 conv5_3: canonical receptive field 196, stride 16.
        assert_eq!(stride, 16);
        assert_eq!(size, 196);
    }

    #[test]
    fn workload_ordering() {
        // Total cost ordering matches the paper: Faster16 ≫ FasterM ≫ AlexNet.
        let a = alexnet().total_macs();
        let m = fasterm().total_macs();
        let v = faster16().total_macs();
        assert!(v > 5 * m, "faster16 {v} vs fasterm {m}");
        assert!(m > 5 * a, "fasterm {m} vs alexnet {a}");
    }

    #[test]
    fn detection_nets_share_input() {
        assert_eq!(faster16().input, (3, DETECTION_H, DETECTION_W));
        assert_eq!(fasterm().input, (3, DETECTION_H, DETECTION_W));
    }

    #[test]
    fn last_spatial_layers() {
        let f = faster16();
        // Last spatial layer is roi_pool; the conv5_3 target sits earlier.
        let last = f.last_spatial_layer().unwrap();
        assert!(f.layer_index("conv5_3").unwrap() < last);
        let a = alexnet();
        assert_eq!(a.last_spatial_layer(), a.layer_index("pool5"));
    }

    #[test]
    fn by_name_roundtrip() {
        for name in ["AlexNet", "Faster16", "FasterM"] {
            assert_eq!(by_name(name).unwrap().name, name);
        }
        assert!(by_name("ResNet").is_none());
    }

    #[test]
    fn fasterm_prefix_is_much_smaller_than_faster16() {
        let f16 = faster16();
        let fm = fasterm();
        let t16 = f16.layer_index("conv5_3").unwrap();
        let tm = fm.layer_index("conv5").unwrap();
        let r = f16.prefix_macs(t16) as f64 / fm.prefix_macs(tm) as f64;
        // The paper's energy ratio between the two detection nets is ~9x.
        assert!(r > 4.0, "ratio {r}");
    }
}
