//! The [`Engine`]: one network, per-worker scratch, session admission and
//! housekeeping — plus [`EngineExecutor`], the engine behind the
//! single-stream [`FrameExecutor`](crate::executor::FrameExecutor)
//! interface. A tick itself runs in the `tick` module.

// lint: hot-path

use super::chaos::{FailureInjector, MonotonicClock, TickClock};
use super::health::{EngineHealth, HealthState};
use super::session::{SessionCore, SessionSlot, StreamSession};
use super::{EngineLimits, FrameOutcome};
use crate::error::AmcError;
use crate::executor::{AmcConfig, AmcFrameResult, ExecStats};
use eva2_cnn::network::Network;
use eva2_motion::rfbme::{RfGeometry, RfbmeScratch};
use eva2_tensor::{GemmScratch, GrayImage};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Weak};

/// A serving engine: one network, shared scratch pools, any number of
/// independent [`StreamSession`]s. See the [module docs](crate::serve).
pub struct Engine {
    pub(super) net: Arc<Network>,
    base: AmcConfig,
    pub(super) limits: EngineLimits,
    pub(super) target: usize,
    rf: RfGeometry,
    prefix_macs: u64,
    total_macs: u64,
    /// Per-worker convolution scratch (padded input copies) — one
    /// `GemmScratch` per
    /// [`EngineLimits::worker_threads`], so each worker's CNN hot path is
    /// lock-free and steady-state serving allocates no convolution
    /// scratch no matter how many streams are open. Index 0 is the
    /// calling thread's pool (the only one touched when inline).
    pub(super) scratches: Vec<GemmScratch>,
    /// Per-worker RFBME buffers, beside the GEMM pools and for the same
    /// reason. A worker's scratch serves every stream that worker
    /// estimates for; its contents never influence a result.
    pub(super) motion_scratches: Vec<RfbmeScratch>,
    /// Process-unique engine identity, stamped into every session so
    /// cross-engine session use fails loudly instead of silently running
    /// one engine's key state against another engine's network.
    pub(super) engine_id: u64,
    next_session: u64,
    /// One `process_batch` call = one tick (the backpressure and idleness
    /// clock).
    pub(super) tick: u64,
    /// Weak handles to every admitted session's bookkeeping slot; dead
    /// weaks (dropped sessions) are pruned on admission and maintenance.
    slots: Vec<Weak<SessionSlot>>,
    /// Deadline-watchdog clock ([`Engine::set_tick_clock`]); monotonic wall
    /// clock unless a test injects a [`FakeClock`](super::FakeClock).
    pub(super) clock: Arc<dyn TickClock>,
    /// Chaos hook ([`Engine::set_failure_injector`]); `None` in
    /// production, where every `contain::chaos` call is a no-op.
    pub(super) injector: Option<Arc<dyn FailureInjector>>,
    /// Containment counters and the tick-duration ring behind
    /// [`Engine::health`].
    pub(super) health: HealthState,
}

/// Source of process-unique [`Engine`] identities.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Engine(net={}, target={}, rf={:?}, sessions_opened={}, tick={})",
            self.net.name(),
            self.target,
            self.rf,
            self.next_session,
            self.tick
        )
    }
}

impl Engine {
    /// Creates an engine over `net` with `config` as the default session
    /// configuration and no resource limits
    /// ([`EngineLimits::unlimited`]).
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration fails validation, its
    /// target selection cannot be resolved for `net`, or the static
    /// verifier finds an error-severity diagnostic
    /// ([`AmcError::AnalysisRejected`]; bypass with
    /// [`AmcConfigBuilder::allow_unverified`](crate::executor::AmcConfigBuilder::allow_unverified)).
    pub fn new(net: Arc<Network>, config: AmcConfig) -> Result<Self, AmcError> {
        Self::with_limits(net, config, EngineLimits::unlimited())
    }

    /// Creates an engine with explicit resource limits — the serving
    /// lifecycle's admission-control and memory-budget knobs (see the
    /// [module docs](crate::serve#lifecycle--failure-modes)).
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration or the limits fail
    /// validation, the target selection cannot be resolved for `net`, or
    /// the static verifier rejects the (network, configuration) pair
    /// ([`AmcError::AnalysisRejected`]).
    pub fn with_limits(
        net: Arc<Network>,
        config: AmcConfig,
        limits: EngineLimits,
    ) -> Result<Self, AmcError> {
        config.validate()?;
        limits.validate()?;
        let (target, rf) = config.target.geometry(&net)?;
        config.verify_resolved(&net, target)?;
        Ok(Self {
            prefix_macs: net.prefix_macs(target),
            total_macs: net.total_macs(),
            net,
            base: config,
            limits,
            target,
            rf,
            scratches: (0..limits.worker_threads)
                .map(|_| GemmScratch::new())
                .collect(),
            motion_scratches: (0..limits.worker_threads)
                .map(|_| RfbmeScratch::new())
                .collect(),
            engine_id: NEXT_ENGINE_ID.fetch_add(1, Relaxed),
            next_session: 0,
            tick: 0,
            slots: Vec::new(),
            clock: Arc::new(MonotonicClock::new()),
            injector: None,
            health: HealthState::new(),
        })
    }

    /// Replaces the deadline-watchdog clock — a [`FakeClock`](super::FakeClock)
    /// makes deadline behaviour fully deterministic in tests.
    pub fn set_tick_clock(&mut self, clock: Arc<dyn TickClock>) {
        self.clock = clock;
    }

    /// Installs a chaos [`FailureInjector`] consulted inside every
    /// contained per-frame job. Injected panics are contained exactly like
    /// real ones (the frame fails typed, the session is quarantined), so
    /// this is the deterministic seam the soak harness drives.
    pub fn set_failure_injector(&mut self, injector: Arc<dyn FailureInjector>) {
        self.injector = Some(injector);
    }

    /// Removes the chaos injector.
    pub fn clear_failure_injector(&mut self) {
        self.injector = None;
    }

    /// Snapshot of the failure-containment layer: panics contained,
    /// quarantines, evictions, deadline pressure, sheds, forced keys, and
    /// recent tick-duration percentiles. See [`EngineHealth`] for field
    /// semantics. Cheap enough to scrape every tick.
    pub fn health(&self) -> EngineHealth {
        let quarantined_sessions = self
            .slots
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|s| s.poisoned.load(Relaxed) && !s.retired.load(Relaxed))
            .count();
        self.health.snapshot(quarantined_sessions)
    }

    /// The served network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The default session configuration.
    pub fn config(&self) -> AmcConfig {
        self.base
    }

    /// The resource limits this engine enforces.
    pub fn limits(&self) -> EngineLimits {
        self.limits
    }

    /// The resolved target layer index (shared by all sessions).
    pub fn target(&self) -> usize {
        self.target
    }

    /// The receptive-field geometry RFBME matches at.
    pub fn rf_geometry(&self) -> RfGeometry {
        self.rf
    }

    /// MACs of the skipped prefix (key-frame-only work).
    pub fn prefix_macs(&self) -> u64 {
        self.prefix_macs
    }

    /// MACs of a full CNN pass.
    pub fn total_macs(&self) -> u64 {
        self.total_macs
    }

    /// Ticks elapsed (one per [`Engine::process_batch`] call, including
    /// batches of one through [`Engine::process`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Currently admitted sessions: alive (not dropped) and not retired.
    pub fn session_count(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|s| !s.retired.load(Relaxed))
            .count()
    }

    /// Sum of every live session's audited footprint, as of each
    /// session's last submission (served or refused — a contained panic
    /// can move a quarantined session's footprint, and the ledger tracks
    /// it).
    pub fn total_session_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(Weak::upgrade)
            .map(|s| s.bytes.load(Relaxed))
            .sum()
    }

    /// Opens a new stream session with the engine's default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::EngineAtCapacity`] when
    /// [`EngineLimits::max_sessions`] sessions are already admitted.
    pub fn open_session(&mut self) -> Result<StreamSession, AmcError> {
        self.open_session_with(self.base)
    }

    /// Opens a new stream session with a per-stream configuration —
    /// streams may differ in policy, warp mode, fixed-point datapath, and
    /// sparsity threshold.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the configuration fails validation or is
    /// refused by the static verifier ([`AmcError::AnalysisRejected`]),
    /// [`AmcError::SessionTargetMismatch`] when it resolves to a different
    /// target layer than the engine's (all sessions must share the
    /// engine's batched prefix split point), or
    /// [`AmcError::EngineAtCapacity`] when the session cap is reached.
    pub fn open_session_with(&mut self, config: AmcConfig) -> Result<StreamSession, AmcError> {
        self.slots.retain(|w| w.strong_count() > 0);
        if self.session_count() >= self.limits.max_sessions {
            return Err(AmcError::EngineAtCapacity {
                limit: self.limits.max_sessions,
            });
        }
        // The engine's own configuration passed the static verifier against
        // this network at construction; only a per-stream override needs a
        // run of its own.
        let core = if config == self.base {
            SessionCore::new_verified(&self.net, &config)?
        } else {
            SessionCore::new(&self.net, &config)?
        };
        if core.target() != self.target {
            return Err(AmcError::SessionTargetMismatch {
                engine: self.target,
                session: core.target(),
            });
        }
        let id = self.next_session;
        self.next_session += 1;
        let slot = Arc::new(SessionSlot {
            last_tick: AtomicU64::new(self.tick),
            bytes: AtomicUsize::new(core.memory_footprint()),
            retired: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        });
        self.slots.push(Arc::downgrade(&slot));
        Ok(StreamSession {
            id,
            engine_id: self.engine_id,
            core,
            slot,
        })
    }

    /// Processes one frame of one stream — identical in behaviour (and
    /// bits) to a batch of one.
    ///
    /// See [`Engine::process_batch`] — every admission and execution
    /// refusal surfaces here the same way, as a [`FrameOutcome::Shed`] or
    /// [`FrameOutcome::Rejected`].
    pub fn process(&mut self, session: &mut StreamSession, frame: &GrayImage) -> FrameOutcome {
        let outcome = self.process_batch([(session, frame)]).pop();
        outcome.unwrap_or(FrameOutcome::Rejected(AmcError::Internal {
            what: "a batch of one job yielded no outcome",
        }))
    }

    /// Housekeeping over the offered sessions: evicts the key state of
    /// sessions idle for at least [`EngineLimits::idle_evict_ticks`]
    /// ticks, then least-recently-used sessions until the engine-wide
    /// audited footprint fits [`EngineLimits::max_total_bytes`]. Returns
    /// the number of evictions performed.
    ///
    /// Eviction is transparent (see
    /// [`StreamSession::evict_state`]): an evicted stream's next frame
    /// rehydrates as a key frame. The engine can only evict sessions it is
    /// *offered* — sessions held elsewhere still count toward the total
    /// (their slots are live), so a caller wanting the budget enforced
    /// must offer every session it holds.
    pub fn maintain<'a>(
        &mut self,
        sessions: impl IntoIterator<Item = &'a mut StreamSession>,
    ) -> usize {
        self.slots.retain(|w| w.strong_count() > 0);
        let mut own: Vec<&mut StreamSession> = sessions
            .into_iter()
            .filter(|s| s.engine_id == self.engine_id)
            .collect();
        let tick = self.tick;
        let mut evicted = 0usize;
        for session in own.iter_mut() {
            if session.core.has_state()
                && tick.saturating_sub(session.slot.last_tick.load(Relaxed))
                    >= self.limits.idle_evict_ticks
                && session.evict_state()
            {
                evicted += 1;
            }
        }
        while self.total_session_bytes() > self.limits.max_total_bytes {
            let victim = own
                .iter_mut()
                .filter(|s| s.core.has_state())
                .min_by_key(|s| (s.slot.last_tick.load(Relaxed), s.id));
            let Some(victim) = victim else {
                // Nothing offered is evictable; the budget cannot be met
                // from here.
                break;
            };
            if victim.evict_state() {
                evicted += 1;
            }
        }
        self.health.totals.evicted_sessions += evicted as u64;
        evicted
    }

    /// Hard-evicts a session: drops its state *and revokes its
    /// admission*. The slot is freed immediately (another session may be
    /// opened in its place) and every later submission of this session
    /// returns [`AmcError::SessionEvicted`]. Use
    /// [`StreamSession::evict_state`] (or [`Engine::maintain`]) for the
    /// soft, transparent variant. Evicting an already retired session does
    /// nothing and is not counted again.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::EngineMismatch`] when `session` was opened by a
    /// different engine.
    pub fn evict_session(&mut self, session: &mut StreamSession) -> Result<(), AmcError> {
        if session.engine_id != self.engine_id {
            return Err(AmcError::EngineMismatch {
                session: session.id,
            });
        }
        if !session.slot.retired.swap(true, Relaxed) {
            session.evict_state();
            self.health.totals.evicted_sessions += 1;
        }
        Ok(())
    }
}

/// The serving [`Engine`] behind the
/// [`FrameExecutor`](crate::executor::FrameExecutor) interface: one
/// unlimited engine driving one stream.
///
/// This is the adapter the experiment protocols
/// (`eva2_experiments::run_policy_with`) use so protocol runs funnel
/// through the serving entry point. The engine is opened with
/// [`EngineLimits::unlimited`] (plus the forced `worker_threads` count), so
/// every frame is admitted and [`FrameOutcome::into_result`] cannot refuse;
/// outputs are bit-identical to the serial
/// [`AmcExecutor`](crate::executor::AmcExecutor) for any worker count.
pub struct EngineExecutor {
    engine: Engine,
    session: StreamSession,
}

impl EngineExecutor {
    /// Builds an unlimited single-stream engine over `net` with a forced
    /// `worker_threads` count.
    pub fn new(
        net: Arc<Network>,
        config: AmcConfig,
        worker_threads: usize,
    ) -> Result<Self, AmcError> {
        let limits = EngineLimits::builder()
            .worker_threads(worker_threads)
            .build()?;
        let mut engine = Engine::with_limits(net, config, limits)?;
        let session = engine.open_session()?;
        Ok(Self { engine, session })
    }

    /// The engine driving this executor.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl crate::executor::FrameExecutor for EngineExecutor {
    fn process_frame(&mut self, frame: &GrayImage) -> Result<AmcFrameResult, AmcError> {
        // An unlimited engine sheds nothing, so any refusal here (a bad
        // frame, a contained panic) surfaces as its typed error for the
        // caller to stop on — never as a panic that could kill a process
        // serving other streams.
        self.engine.process(&mut self.session, frame).into_result()
    }

    fn stats(&self) -> ExecStats {
        self.session.stats()
    }

    fn reset(&mut self) {
        self.session.reset();
    }
}
