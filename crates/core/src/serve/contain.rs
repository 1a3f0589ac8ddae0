//! The engine's one panic-containment seam. `std::panic::catch_unwind` is
//! a `disallowed-methods` entry in the workspace's `clippy.toml`, allowed
//! by one `#[expect]` on [`run`] and nowhere else: panic-swallowing is a
//! serving decision, and letting it leak into kernels or analysis passes
//! would hide real bugs instead of containing them at the per-frame
//! boundary.

use super::chaos::{EnginePhase, FailureAction, FailureInjector, TickClock};
use crate::error::AmcError;

/// Runs one per-frame job, converting an escaping panic into
/// [`AmcError::WorkerPanicked`] naming `phase`. `AssertUnwindSafe` is sound
/// here because the caller quarantines the owning session on `Err` — the
/// possibly half-mutated state is never trusted again until it is evicted
/// and rehydrated.
#[expect(
    clippy::disallowed_methods,
    reason = "the engine's one panic-containment seam"
)]
pub(super) fn run<T>(phase: EnginePhase, job: impl FnOnce() -> T) -> Result<T, AmcError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|panic| {
        let payload = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        AmcError::WorkerPanicked {
            phase: phase.name(),
            payload,
        }
    })
}

/// The chaos hook: applies the injector's scripted action for
/// `(phase, tick, session)`, if an injector is installed. Called only from
/// inside a [`run`] job, so an injected panic is always contained one frame
/// up. Payloads start with `"chaos:"` so test panic hooks can silence
/// exactly the injected faults.
#[expect(
    clippy::panic,
    reason = "an injected fault panics by design; `run` contains it"
)]
pub(super) fn chaos(
    injector: Option<&dyn FailureInjector>,
    clock: &dyn TickClock,
    phase: EnginePhase,
    tick: u64,
    session: u64,
) {
    let Some(injector) = injector else {
        return;
    };
    match injector.action(phase, tick, session) {
        FailureAction::None => {}
        FailureAction::Panic => {
            panic!("chaos: injected {phase:?} panic (tick {tick}, session {session})")
        }
        FailureAction::Delay { ms } => clock.sleep_us(ms.saturating_mul(1000)),
    }
}
