//! The engine's two injectable seams: the tick clock the deadline watchdog
//! reads, and the failure injector the chaos soak drives.

// lint: hot-path

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The clock [`Engine::process_batch`](super::Engine::process_batch) reads
/// its tick-deadline watchdog from. Injectable
/// ([`Engine::set_tick_clock`](super::Engine::set_tick_clock)) so deadline
/// behaviour is deterministic in tests: production uses the default
/// [`MonotonicClock`], tests install a [`FakeClock`] and advance it by hand
/// (injected [`FailureAction::Delay`]s go through [`TickClock::sleep_us`],
/// so a fake clock turns them into pure time arithmetic).
pub trait TickClock: Send + Sync {
    /// Microseconds elapsed since an arbitrary fixed origin.
    fn now_us(&self) -> u64;
    /// Blocks (or, on a fake clock, pretends to block) for `us`
    /// microseconds.
    fn sleep_us(&self, us: u64);
}

/// Wall-clock [`TickClock`]: `std::time::Instant` against a fixed origin.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TickClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep_us(&self, us: u64) {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// Deterministic [`TickClock`] for tests: time advances only when the test
/// says so ([`FakeClock::advance_us`]) or when a sleep is requested —
/// [`TickClock::sleep_us`] advances the clock instead of blocking, so
/// injected delays exert deadline pressure without slowing the test down.
#[derive(Debug, Default)]
pub struct FakeClock {
    now: AtomicU64,
}

impl FakeClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Relaxed);
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_us(ms.saturating_mul(1000));
    }
}

impl TickClock for FakeClock {
    fn now_us(&self) -> u64 {
        self.now.load(Relaxed)
    }

    fn sleep_us(&self, us: u64) {
        self.advance_us(us);
    }
}

/// Which serving phase a [`FailureInjector`] is being consulted in (the
/// same names [`AmcError::WorkerPanicked`](crate::AmcError::WorkerPanicked)
/// reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EnginePhase {
    /// Per-stream RFBME, fanned out ahead of the admission walk for the
    /// first `max_frames_per_tick` screened-in jobs, or run inline by the
    /// walk for a later job it admits.
    Estimate,
    /// The serial admission walk's classify/commit steps.
    Admit,
    /// A key-frame batched-prefix bucket.
    Prefix,
    /// Per-frame completion (sparse encode + suffix, or warp + suffix).
    Complete,
}

impl EnginePhase {
    /// The phase name [`AmcError::WorkerPanicked`](crate::AmcError::WorkerPanicked)
    /// carries.
    pub(super) fn name(self) -> &'static str {
        match self {
            EnginePhase::Estimate => "estimate",
            EnginePhase::Admit => "admit",
            EnginePhase::Prefix => "prefix",
            EnginePhase::Complete => "complete",
        }
    }
}

/// What a [`FailureInjector`] asks the engine to do inside one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Proceed normally.
    None,
    /// Panic inside the job (always contained; the frame fails with
    /// [`AmcError::WorkerPanicked`](crate::AmcError::WorkerPanicked) and its
    /// session is quarantined).
    Panic,
    /// Sleep `ms` milliseconds through the engine's [`TickClock`] —
    /// deadline pressure, deterministic under a [`FakeClock`].
    Delay {
        /// Milliseconds to sleep.
        ms: u64,
    },
}

/// Deterministic failure-injection seam for chaos testing
/// ([`Engine::set_failure_injector`](super::Engine::set_failure_injector)).
/// Implementations must be pure in `(phase, tick, session)` so chaos runs
/// replay bit-identically; [`SeededChaos`] is the stock seeded
/// implementation.
pub trait FailureInjector: Send + Sync {
    /// The action to take for this `(phase, tick, session)` job.
    fn action(&self, phase: EnginePhase, tick: u64, session: u64) -> FailureAction;
}

/// Stock [`FailureInjector`]: a splitmix64-style hash of
/// `(seed, phase, tick, session)` rolls a per-mille die for panics and
/// delays. Pure and allocation-free, so two engines with the same seed see
/// the same faults at the same jobs.
#[derive(Debug, Clone, Copy)]
pub struct SeededChaos {
    /// Seed fixing every roll.
    pub seed: u64,
    /// Panic probability per job, in 1/1000ths.
    pub panic_per_mille: u64,
    /// Delay probability per job, in 1/1000ths (rolled after panics).
    pub delay_per_mille: u64,
    /// Length of an injected delay.
    pub delay_ms: u64,
}

impl SeededChaos {
    /// A chaos script panicking ~6% and delaying ~4% of jobs, 2 ms per
    /// delay.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_per_mille: 60,
            delay_per_mille: 40,
            delay_ms: 2,
        }
    }

    fn roll(&self, phase: EnginePhase, tick: u64, session: u64) -> u64 {
        let mut x = self.seed
            ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ session.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (phase as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
        // splitmix64 finalizer: avalanche the combined key so nearby
        // (tick, session) pairs decorrelate.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) % 1000
    }
}

impl FailureInjector for SeededChaos {
    fn action(&self, phase: EnginePhase, tick: u64, session: u64) -> FailureAction {
        let roll = self.roll(phase, tick, session);
        if roll < self.panic_per_mille {
            FailureAction::Panic
        } else if roll < self.panic_per_mille + self.delay_per_mille {
            FailureAction::Delay { ms: self.delay_ms }
        } else {
            FailureAction::None
        }
    }
}
