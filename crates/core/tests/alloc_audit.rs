//! Heap audit for the serving hot loop, backing the static memory model
//! with allocator-level evidence: once a session is warmed (key state
//! stored, the engine's per-worker scratch buffers grown to their
//! geometry), serving predicted frames causes **zero net heap growth** and
//! a **constant number of transient allocations per frame** — i.e. every
//! byte the hot loop touches was either pre-sized (by the structures
//! [`session_memory_bound`] charges for, or by the engine's GEMM and RFBME
//! scratch), or belongs to the returned [`AmcFrameResult`] the caller
//! immediately drops. Both frame kinds' transient allocation counts are
//! pinned ([`PREDICTED_FRAME_ALLOCS`], [`KEY_FRAME_ALLOCS`]): neither the
//! warp nor a key frame allocates per channel.
//!
//! [`session_memory_bound`]: eva2_core::serve::session_memory_bound
//! [`AmcFrameResult`]: eva2_core::AmcFrameResult
//!
//! A counting [`GlobalAlloc`] wrapper around [`System`] observes every
//! allocation in the process, so this file holds exactly ONE `#[test]`
//! function: a second test running concurrently would interleave its
//! allocations into the counters and make the audit flaky by design.

use eva2_cnn::zoo;
use eva2_core::executor::AmcConfig;
use eva2_core::policy::PolicyConfig;
use eva2_core::serve::{Engine, EngineLimits};
use eva2_motion::{RfGeometry, Rfbme, RfbmeScratch, SearchParams};
use eva2_tensor::GrayImage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Allocator calls one warmed predicted frame makes on `tiny_fasterm`'s
/// default (late) target: the warp's source table, plane buffer and
/// sparse output, the suffix's layer outputs, and the result.
const PREDICTED_FRAME_ALLOCS: u64 = 11;

/// Allocator calls one key frame makes on a warmed engine, after a session
/// reset or at a policy's forced gap (which runs no RFBME): the prefix's
/// layer outputs, the Q8.8 store, the suffix's non-zero view and layer
/// outputs, the stored key image, and the result.
const KEY_FRAME_ALLOCS: u64 = 16;

/// Allocator calls [`Engine::open_session`] makes on the default config
/// once the engine's slot list has room: the shared session slot. The
/// session's policy and warp mode are plain values inside it.
const OPEN_SESSION_ALLOCS: u64 = 1;

/// Counts allocator calls and tracks live bytes on top of [`System`].
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static AUDIT: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, i64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// A textured 48×48 frame panning 2 px/step, matching the zoo input.
fn frame(t: usize) -> GrayImage {
    GrayImage::from_fn(48, 48, |y, x| {
        let xs = (x + 2 * t) as f32;
        (120.0 + 46.0 * ((y as f32 * 0.27).sin() + (xs * 0.21).cos())) as u8
    })
}

#[test]
fn steady_state_predicted_frames_cause_no_net_heap_growth() {
    // --- Phase 1: engine steady state, predicted frames -------------------
    // StaticRate { period: 1000 } + an unbounded residual gate: frame 0 is
    // the key frame, every following frame takes the predicted path.
    let config = AmcConfig::builder()
        .policy(PolicyConfig::StaticRate { period: 1000 })
        .max_residual_error(f32::INFINITY)
        .build()
        .expect("valid config");
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits::builder()
        .worker_threads(1) // inline execution: no worker-pool allocations
        .build()
        .expect("valid limits");
    let mut engine = Engine::with_limits(net, config, limits).expect("valid engine");
    let mut session = engine.open_session().expect("capacity");

    // Pre-render every frame so frame construction never pollutes the
    // audited window.
    let frames: Vec<GrayImage> = (0..12).map(frame).collect();

    // Warm-up: the key frame plus enough predicted frames for every lazily
    // grown buffer (RFBME scratch, GEMM packing) to reach
    // its high-water mark.
    for f in &frames[..6] {
        let r = engine.process(&mut session, f).expect("admitted");
        assert_eq!(r.is_key, std::ptr::eq(f, &frames[0]));
    }

    let footprint_before = session.memory_footprint();
    // Pre-sized so the audit's own bookkeeping never shows up in the
    // counters it is reading.
    let mut per_frame_allocs = Vec::with_capacity(frames.len());
    let mut per_frame_growth = Vec::with_capacity(frames.len());
    let (_, live_before) = snapshot();
    for f in &frames[6..] {
        let (calls_before, live_frame_before) = snapshot();
        let r = engine.process(&mut session, f).expect("admitted");
        assert!(!r.is_key, "steady-state frames are predicted");
        drop(r);
        let (calls_after, live_frame_after) = snapshot();
        per_frame_allocs.push(calls_after - calls_before);
        per_frame_growth.push(live_frame_after - live_frame_before);
    }
    let (_, live_after) = snapshot();

    assert_eq!(
        live_after - live_before,
        0,
        "steady-state predicted frames must cause zero net heap growth \
         (per-frame allocation counts: {per_frame_allocs:?}, per-frame \
         growth: {per_frame_growth:?})"
    );
    assert!(
        per_frame_allocs.windows(2).all(|w| w[0] == w[1]),
        "per-frame transient allocation count must be constant in steady \
         state, got {per_frame_allocs:?}"
    );
    assert_eq!(
        session.memory_footprint(),
        footprint_before,
        "the audited session footprint must not grow across steady-state \
         predicted frames"
    );
    assert!(
        per_frame_allocs[0] <= PREDICTED_FRAME_ALLOCS,
        "a predicted frame made {} allocations, budget {PREDICTED_FRAME_ALLOCS}",
        per_frame_allocs[0]
    );

    // --- Phase 2: one key frame on a warmed engine ------------------------
    // A reset drops the key state, so the next frame is a key frame; the
    // engine's scratch is already grown by the first key frame above.
    session.reset();
    let (calls_before, _) = snapshot();
    let r = engine.process(&mut session, &frames[0]).expect("admitted");
    assert!(r.is_key, "a reset session's next frame is a key frame");
    drop(r);
    let (calls_after, _) = snapshot();
    let key_allocs = calls_after - calls_before;
    assert!(
        key_allocs <= KEY_FRAME_ALLOCS,
        "a key frame made {key_allocs} allocations, budget {KEY_FRAME_ALLOCS}"
    );
    assert_eq!(
        session.memory_footprint(),
        footprint_before,
        "a key frame restores exactly the keyed footprint"
    );

    // --- Phase 3: a gap-forced key on a keyed session ---------------------
    // The policy makes every fourth frame a key whatever the motion, so no
    // RFBME runs for it: it allocates exactly what the rehydration key
    // above does, and nothing for a search result. The engine's scratch is
    // warm from phase 1.
    let gapped_config = AmcConfig::builder()
        .policy(PolicyConfig::BlockError {
            threshold: f32::INFINITY,
            max_gap: 4,
        })
        .max_residual_error(f32::INFINITY)
        .build()
        .expect("valid config");
    let mut gapped = engine
        .open_session_with(gapped_config)
        .expect("same target");
    for (t, f) in frames[..4].iter().enumerate() {
        let r = engine.process(&mut gapped, f).expect("admitted");
        assert_eq!(r.is_key, t == 0, "a key, then three predicted frames");
    }
    let (calls_before, _) = snapshot();
    let r = engine.process(&mut gapped, &frames[4]).expect("admitted");
    assert!(r.is_key, "the fourth frame since the key is forced key");
    assert_eq!(r.rfbme_ops, 0, "a gap-forced key runs no search");
    drop(r);
    let (calls_after, _) = snapshot();
    let gap_key_allocs = calls_after - calls_before;
    assert_eq!(
        (gap_key_allocs, key_allocs),
        (KEY_FRAME_ALLOCS, KEY_FRAME_ALLOCS),
        "a gap-forced key and a rehydration key must each make exactly \
         {KEY_FRAME_ALLOCS} allocations"
    );

    // --- Phase 4: warmed RFBME allocates only its result ------------------
    // With warm scratch, `estimate_with`'s allocation count equals that of
    // simply cloning its result: the search itself touches no allocator.
    let rfbme = Rfbme::new(
        RfGeometry {
            size: 8,
            stride: 4,
            padding: 0,
        },
        SearchParams { radius: 4, step: 1 },
    );
    let mut scratch = RfbmeScratch::new();
    let key = frame(0);
    let new = frame(1);
    let warmed = rfbme.estimate_with(&key, &new, &mut scratch);

    let (calls_before, live_before) = snapshot();
    let result = rfbme.estimate_with(&key, &new, &mut scratch);
    let (calls_mid, _) = snapshot();
    let cloned = warmed.clone();
    let (calls_after, _) = snapshot();
    let estimate_allocs = calls_mid - calls_before;
    let clone_allocs = calls_after - calls_mid;
    assert_eq!(
        estimate_allocs, clone_allocs,
        "a warmed estimate_with must allocate exactly what its returned \
         result owns — the search itself is allocation-free"
    );
    drop(result);
    drop(cloned);
    let (_, live_end) = snapshot();
    assert_eq!(
        live_end - live_before,
        0,
        "warmed RFBME estimation must cause zero net heap growth"
    );

    // --- Phase 5: opening a session on the default config ----------------
    // A first open grows the engine's slot list; the audited second open
    // allocates only what the session itself holds.
    let net = Arc::new(zoo::tiny_fasterm(0).network);
    let limits = EngineLimits::builder()
        .worker_threads(1)
        .build()
        .expect("valid limits");
    let mut engine = Engine::with_limits(net, AmcConfig::default(), limits).expect("valid engine");
    drop(engine.open_session().expect("capacity"));
    let (calls_before, _) = snapshot();
    let session = engine.open_session().expect("capacity");
    let (calls_after, _) = snapshot();
    drop(session);
    assert_eq!(
        calls_after - calls_before,
        OPEN_SESSION_ALLOCS,
        "opening a session on the default config must allocate only its slot"
    );
}
