//! §IV-A: the first-order efficiency model.
//!
//! Reproduces the analytical comparison (prefix MACs vs RFBME adds for
//! Faster16 at 1000×562) and cross-checks the analytical RFBME op count
//! against the *empirical* operation counter of the actual RFBME
//! implementation on same-geometry synthetic frames.

use eva2_experiments::report::Table;
use eva2_hw::cost::HwModel;
use eva2_hw::firstorder::{reuse_speedup, rfbme_ops, unoptimized_ops};
use eva2_hw::nets;
use eva2_motion::rfbme::{RfGeometry, Rfbme, SearchParams};
use eva2_tensor::GrayImage;

fn main() {
    let model = HwModel::default();
    println!("Section IV-A: first-order efficiency comparison");
    println!("(paper: Faster16 prefix = 1.7e11 MACs; unoptimized motion estimation = 3e9 adds; RFBME = 1.3e7 adds)");
    println!();
    let mut t = Table::new([
        "network",
        "prefix MACs",
        "unoptimized ME ops",
        "RFBME ops",
        "reuse speedup",
        "MACs / RFBME ops",
    ]);
    for net in [nets::alexnet(), nets::faster16(), nets::fasterm()] {
        let p = model.rfbme_params(&net);
        let prefix = model.figures(&net).prefix_macs;
        let un = unoptimized_ops(&p);
        let opt = rfbme_ops(&p);
        let ratio = prefix as f64 / opt.max(1) as f64;
        t.row([
            net.name.clone(),
            format!("{:.3e}", prefix as f64),
            format!("{:.3e}", un as f64),
            format!("{:.3e}", opt as f64),
            format!("{:.0}x", reuse_speedup(&p)),
            format!("{ratio:.1e}"),
        ]);
    }
    println!("{}", t.render());

    // Empirical cross-check: run the real RFBME implementation on frames
    // with the Faster16 conv5_3 geometry (downscaled 4x to keep the run
    // short; op counts scale linearly with the pixel count).
    println!(
        "Empirical cross-check (real RFBME on 250x140 frames, conv5_3-like geometry scaled 4x):"
    );
    let rf = RfGeometry {
        size: 49,
        stride: 4, // 196/16 scaled by 4
        padding: 0,
    };
    let key = GrayImage::from_fn(140, 250, |y, x| {
        let v = (y as f32 * 0.13).sin() + (x as f32 * 0.09).cos();
        (120.0 + v * 50.0) as u8
    });
    let new = key.translate(1, 2, 0);
    let rfbme = Rfbme::new(rf, SearchParams { radius: 6, step: 2 });
    let r = rfbme.estimate(&key, &new);
    println!(
        "  producer ops = {:.3e}, consumer ops = {:.3e}, total = {:.3e}",
        r.producer_ops as f64,
        r.consumer_ops as f64,
        r.ops() as f64
    );
    let analytic = rfbme_ops(&eva2_hw::firstorder::RfbmeParams {
        act_h: rf.grid_len(140),
        act_w: rf.grid_len(250),
        rf_size: rf.size,
        rf_stride: rf.stride,
        search_radius: 6,
        search_stride: 2,
    });
    println!(
        "  analytic model = {:.3e}  (empirical/analytic = {:.2})",
        analytic as f64,
        r.ops() as f64 / analytic.max(1) as f64
    );
}
