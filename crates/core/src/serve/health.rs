//! The operator-facing health ledger: containment counters and recent tick
//! durations, accumulated serially at the end of every tick.

use super::FrameOutcome;
use crate::error::AmcError;

/// Operator-facing snapshot of the engine's failure-containment layer
/// ([`Engine::health`](super::Engine::health)) — the §III-C degradation
/// signal at engine scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineHealth {
    /// Ticks processed (one per
    /// [`Engine::process_batch`](super::Engine::process_batch) call).
    pub ticks: u64,
    /// Frames served across all sessions (key, forced-key, or predicted).
    pub frames_served: u64,
    /// Frame jobs that failed with a contained panic
    /// ([`AmcError::WorkerPanicked`]): one unwind costs exactly one frame,
    /// so this counts both.
    pub panics_caught: u64,
    /// Sessions quarantined so far (each panic outcome quarantines its
    /// owning session; a session re-poisoned after recovery counts again).
    pub quarantines: u64,
    /// Live sessions currently quarantined (poisoned, not yet evicted or
    /// retired).
    pub quarantined_sessions: usize,
    /// Sessions evicted by [`Engine::maintain`](super::Engine::maintain)
    /// (idle/LRU) or [`Engine::evict_session`](super::Engine::evict_session)
    /// (once per retirement). Per-session budget trims inside a tick are
    /// counted per session in
    /// [`ExecStats::evictions`](crate::executor::ExecStats::evictions)
    /// instead.
    pub evicted_sessions: u64,
    /// Ticks that overran
    /// [`EngineLimits::tick_deadline_ms`](super::EngineLimits::tick_deadline_ms)
    /// at any watchdog checkpoint.
    pub deadline_overruns: u64,
    /// Key-frame upgrades shed by the deadline watchdog
    /// (`BudgetExceeded { what: "tick deadline" }`).
    pub deadline_sheds: u64,
    /// Frames shed by the frame/key per-tick budgets (all other
    /// [`FrameOutcome::Shed`] refusals).
    pub budget_sheds: u64,
    /// Key frames forced by the residual confidence bound across all
    /// sessions ([`FrameOutcome::ForcedKey`]).
    pub forced_keys: u64,
    /// Median of the last [`TICK_RING`] tick durations, microseconds
    /// (0 until a tick completes).
    pub tick_p50_us: u64,
    /// 99th percentile of the last [`TICK_RING`] tick durations,
    /// microseconds.
    pub tick_p99_us: u64,
}

/// Ring-buffer depth behind [`EngineHealth::tick_p50_us`] /
/// [`EngineHealth::tick_p99_us`].
pub const TICK_RING: usize = 256;

/// Mutable half of [`EngineHealth`]: the running totals (the snapshot's
/// live fields — quarantined sessions and percentiles — are filled in by
/// [`HealthState::snapshot`]) plus the tick-duration ring.
#[derive(Debug)]
pub(super) struct HealthState {
    pub(super) totals: EngineHealth,
    /// Last [`TICK_RING`] tick durations in µs, written circularly.
    recent_us: Vec<u64>,
    next_slot: usize,
}

impl HealthState {
    /// The ring is allocated to its full capacity up front so
    /// [`HealthState::end_tick`] never allocates on the serving hot path
    /// (the steady-state allocation audit counts every transient).
    pub(super) fn new() -> Self {
        Self {
            totals: EngineHealth::default(),
            recent_us: Vec::with_capacity(TICK_RING),
            next_slot: 0,
        }
    }

    /// The tick epilogue: counts the tick, its duration, an overrun, and
    /// every outcome.
    pub(super) fn end_tick(&mut self, elapsed_us: u64, overran: bool, results: &[FrameOutcome]) {
        if self.recent_us.len() < TICK_RING {
            self.recent_us.push(elapsed_us);
        } else {
            self.recent_us[self.next_slot] = elapsed_us;
        }
        self.next_slot = (self.next_slot + 1) % TICK_RING;
        let h = &mut self.totals;
        h.ticks += 1;
        h.deadline_overruns += u64::from(overran);
        for outcome in results {
            h.frames_served += u64::from(outcome.is_served());
            match outcome {
                FrameOutcome::Shed(AmcError::BudgetExceeded {
                    what: "tick deadline",
                    ..
                }) => h.deadline_sheds += 1,
                FrameOutcome::Shed(_) => h.budget_sheds += 1,
                FrameOutcome::Rejected(AmcError::WorkerPanicked { .. }) => {
                    h.panics_caught += 1;
                    h.quarantines += 1;
                }
                FrameOutcome::ForcedKey { .. } => h.forced_keys += 1,
                _ => {}
            }
        }
    }

    /// The totals plus `quarantined_sessions` and the tick percentiles.
    pub(super) fn snapshot(&self, quarantined_sessions: usize) -> EngineHealth {
        let mut sorted = self.recent_us.clone();
        sorted.sort_unstable();
        let percentile = |p: usize| match sorted.len() {
            0 => 0,
            n => sorted[(n * p / 100).min(n - 1)],
        };
        EngineHealth {
            quarantined_sessions,
            tick_p50_us: percentile(50),
            tick_p99_us: percentile(99),
            ..self.totals
        }
    }
}
