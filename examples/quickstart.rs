//! Quickstart: run activation motion compensation over a synthetic clip.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small detection CNN, generates a synthetic video scene, and
//! processes it through the AMC executor, printing per-frame decisions and
//! the work saved relative to running the full CNN every frame.
//!
//! This is the single-stream path; see `examples/multi_stream.rs` for
//! serving many concurrent streams through one `Engine`.

use eva2::amc::executor::{AmcConfig, AmcExecutor};
use eva2::cnn::zoo;
use eva2::video::scene::{Scene, SceneConfig};

fn main() {
    // 1. A CNN with a spatial prefix and a fully-connected suffix.
    let workload = zoo::tiny_fasterm(42);
    println!("network: {:?}", workload.network);

    // 2. A synthetic live-video scene (moving sprite, camera pan, noise).
    let mut scene = Scene::new(SceneConfig::detection(48, 48), 7);
    let clip = scene.render_clip(20);

    // 3. AMC with the default configuration: late target layer, RFBME
    //    motion estimation, bilinear warping, adaptive block-error policy.
    //    The builder validates; construction errors are typed (`AmcError`).
    let config = AmcConfig::builder().build().expect("defaults are valid");
    let mut amc = AmcExecutor::try_new(&workload.network, config).expect("resolvable target");
    println!(
        "target layer = {} (receptive field {:?})",
        amc.target(),
        amc.rf_geometry()
    );
    println!();

    for (t, frame) in clip.frames.iter().enumerate() {
        let result = amc.process(&frame.image);
        let kind = if result.is_key { "KEY " } else { "pred" };
        let err = result
            .metrics
            .map(|m| format!("{:6.2}", m.block_error_per_pixel))
            .unwrap_or_else(|| "     -".into());
        println!(
            "frame {t:2}  {kind}  MACs executed {:>9}  block err/px {err}",
            result.macs_executed
        );
    }

    let stats = amc.stats();
    let full = workload.network.total_macs() * stats.frames as u64;
    println!();
    println!(
        "key frames: {}/{} ({:.0}%)",
        stats.key_frames,
        stats.frames,
        100.0 * stats.key_fraction()
    );
    println!(
        "MACs: {} vs {} for all-key execution ({:.1}% saved)",
        stats.macs,
        full,
        100.0 * (1.0 - stats.macs as f64 / full as f64)
    );
    if let Some(rle) = amc.key_activation() {
        println!(
            "sparse activation store: {:.0}% compression",
            100.0 * rle.compression()
        );
    }
}
