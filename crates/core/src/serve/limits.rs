//! Resource limits, their validating builder, the SLO derivation, and the
//! static per-session memory bound behind it.

use super::session::SessionCore;
use crate::error::AmcError;
use crate::executor::AmcConfig;
use eva2_cnn::network::Network;

/// Resource limits a serving [`Engine`](super::Engine) enforces — the
/// admission-control, backpressure, and memory-budget knobs of the
/// [lifecycle](crate::serve#lifecycle--failure-modes). The default is
/// [`EngineLimits::unlimited`]: every limit at its type's maximum, which
/// preserves the pre-lifecycle behaviour exactly (nothing is ever shed or
/// evicted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLimits {
    /// Maximum concurrently admitted sessions; `open_session*` beyond this
    /// returns [`AmcError::EngineAtCapacity`]. Dropped and retired
    /// sessions free their slots.
    pub max_sessions: usize,
    /// Maximum frames one tick admits; excess frames are shed with
    /// [`AmcError::BudgetExceeded`] and may be resubmitted next tick.
    pub max_frames_per_tick: usize,
    /// Maximum key frames one tick admits — key frames cost a full CNN
    /// prefix, so this is the knob that bounds tail latency when many
    /// streams cut scenes at once. Excess *key* frames are shed (predicted
    /// frames in the same tick still run).
    pub max_key_frames_per_tick: usize,
    /// Engine-wide memory budget over all admitted sessions' audited
    /// footprints, enforced by LRU eviction in
    /// [`Engine::maintain`](super::Engine::maintain).
    pub max_total_bytes: usize,
    /// A session idle for at least this many ticks has its key state
    /// evicted by [`Engine::maintain`](super::Engine::maintain).
    pub idle_evict_ticks: u64,
    /// Soft per-tick deadline in milliseconds, read from the engine's
    /// [`TickClock`](super::TickClock). Once a tick has run past it,
    /// remaining *key-frame* upgrades are shed with zero-trace
    /// [`AmcError::BudgetExceeded`]`{ what: "tick deadline" }` semantics
    /// (predicted frames still serve; committed work always finishes) and
    /// the overrun is counted in
    /// [`EngineHealth::deadline_overruns`](super::EngineHealth::deadline_overruns).
    /// `u64::MAX` (the default) disables the watchdog.
    pub tick_deadline_ms: u64,
    /// Worker threads a tick fans out over (see the
    /// [module docs](crate::serve#threading-model--determinism)). `1` (the
    /// default) runs every phase on the calling thread and spawns nothing.
    /// A *forced* count, not a hint: 3 workers on a host with fewer cores
    /// still split the work three ways, so tests exercise the split on any
    /// host. The worker pool is the system's one parallelism layer.
    pub worker_threads: usize,
}

impl EngineLimits {
    /// No limits: nothing is refused, shed, or evicted, and every tick
    /// runs inline on the calling thread (`worker_threads: 1`).
    pub const fn unlimited() -> Self {
        Self {
            max_sessions: usize::MAX,
            max_key_frames_per_tick: usize::MAX,
            max_frames_per_tick: usize::MAX,
            max_total_bytes: usize::MAX,
            idle_evict_ticks: u64::MAX,
            tick_deadline_ms: u64::MAX,
            worker_threads: 1,
        }
    }

    /// Starts a validating builder from the unlimited defaults — the same
    /// pattern as [`AmcConfig::builder`]: chain setters, then
    /// [`EngineLimitsBuilder::build`] validates once.
    pub fn builder() -> EngineLimitsBuilder {
        EngineLimitsBuilder {
            limits: Self::unlimited(),
        }
    }

    /// Checks every limit invariant: a zero limit would admit no work at
    /// all (or evict on every tick) and is always a configuration mistake.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), AmcError> {
        let invalid = |reason: &'static str| Err(AmcError::InvalidConfig { reason });
        if self.max_sessions == 0 {
            return invalid("engine limit max_sessions must be at least 1");
        }
        if self.max_frames_per_tick == 0 {
            return invalid("engine limit max_frames_per_tick must be at least 1");
        }
        if self.max_key_frames_per_tick == 0 {
            return invalid("engine limit max_key_frames_per_tick must be at least 1");
        }
        if self.max_total_bytes == 0 {
            return invalid("engine limit max_total_bytes must be at least 1");
        }
        if self.idle_evict_ticks == 0 {
            return invalid("engine limit idle_evict_ticks must be at least 1");
        }
        if self.tick_deadline_ms == 0 {
            return invalid("engine limit tick_deadline_ms must be at least 1");
        }
        if self.worker_threads == 0 {
            return invalid("engine limit worker_threads must be at least 1");
        }
        Ok(())
    }
}

impl Default for EngineLimits {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Validating builder for [`EngineLimits`], mirroring
/// [`AmcConfigBuilder`](crate::executor::AmcConfigBuilder): every setter
/// is chainable, and [`build`](Self::build) runs
/// [`EngineLimits::validate`] so an invalid combination is caught at
/// construction rather than at
/// [`Engine::with_limits`](super::Engine::with_limits).
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct EngineLimitsBuilder {
    limits: EngineLimits,
}

impl EngineLimitsBuilder {
    /// Sets [`EngineLimits::max_sessions`].
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.limits.max_sessions = n;
        self
    }

    /// Sets [`EngineLimits::max_frames_per_tick`].
    pub fn max_frames_per_tick(mut self, n: usize) -> Self {
        self.limits.max_frames_per_tick = n;
        self
    }

    /// Sets [`EngineLimits::max_key_frames_per_tick`].
    pub fn max_key_frames_per_tick(mut self, n: usize) -> Self {
        self.limits.max_key_frames_per_tick = n;
        self
    }

    /// Sets [`EngineLimits::max_total_bytes`].
    pub fn max_total_bytes(mut self, n: usize) -> Self {
        self.limits.max_total_bytes = n;
        self
    }

    /// Sets [`EngineLimits::idle_evict_ticks`].
    pub fn idle_evict_ticks(mut self, n: u64) -> Self {
        self.limits.idle_evict_ticks = n;
        self
    }

    /// Sets [`EngineLimits::tick_deadline_ms`].
    pub fn tick_deadline_ms(mut self, ms: u64) -> Self {
        self.limits.tick_deadline_ms = ms;
        self
    }

    /// Sets [`EngineLimits::worker_threads`].
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.limits.worker_threads = n;
        self
    }

    /// Derives the tick and memory limits from the static cost model and
    /// a deployment envelope: a per-tick latency SLO (`slo_ms`) and the
    /// host's sustained compute (`gflops`, counting one MAC as two
    /// flops) — replacing hand-tuned numbers with
    /// [`CostSummary::capacity_plan`](eva2_analysis::CostSummary::capacity_plan)
    /// over (`net`, `config`):
    ///
    /// * [`EngineLimits::max_frames_per_tick`] — the tick's MAC budget
    ///   divided by the amortized per-frame cost at the policy's key-frame
    ///   gap, charging predicted frames their static op count (suffix +
    ///   RFBME, both exact, + the warp bound);
    /// * [`EngineLimits::max_key_frames_per_tick`] — the budget in whole
    ///   key frames;
    /// * [`EngineLimits::max_sessions`] — one stream per frame slot (each
    ///   live stream submits one frame per tick);
    /// * [`EngineLimits::max_total_bytes`] — [`session_memory_bound`], the
    ///   static per-session footprint, across every admitted session.
    ///
    /// A budget too small for even one key frame is clamped to one frame
    /// per tick — the plan's `W-CAP-001` finding; call
    /// [`AmcConfig::analyze`] and `capacity_plan` directly to inspect it.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError`] when the target cannot be resolved for `net`,
    /// or [`AmcError::InvalidConfig`] when the analysis could not build a
    /// cost model for the pair (`W-COST-002`).
    pub fn derive_from_slo(
        mut self,
        net: &Network,
        config: &AmcConfig,
        slo_ms: f64,
        gflops: f64,
    ) -> Result<Self, AmcError> {
        let report = config.analyze(net)?;
        let Some(cost) = report.cost else {
            return Err(AmcError::InvalidConfig {
                reason: "SLO derivation needs the static cost model, which analysis \
                         could not build for this network/config (W-COST-002)",
            });
        };
        let key_gap = config.policy.max_key_gap();
        let session_bytes = session_memory_bound(net, config)?;
        let plan = cost.capacity_plan(slo_ms, gflops, key_gap, session_bytes);
        self.limits.max_frames_per_tick = plan.max_frames_per_tick;
        self.limits.max_key_frames_per_tick = plan.max_key_frames_per_tick;
        self.limits.max_sessions = plan.max_frames_per_tick;
        self.limits.max_total_bytes = plan.max_total_bytes;
        Ok(self)
    }

    /// Validates and returns the limits.
    ///
    /// # Errors
    ///
    /// Returns [`AmcError::InvalidConfig`] naming the violated invariant
    /// (see [`EngineLimits::validate`]).
    pub fn build(self) -> Result<EngineLimits, AmcError> {
        self.limits.validate()?;
        Ok(self.limits)
    }
}

/// Static upper bound on
/// [`StreamSession::memory_footprint`](super::StreamSession::memory_footprint)
/// for any stream served by (`net`, `config`) — the per-session term of the
/// SLO-derived memory budget
/// ([`EngineLimitsBuilder::derive_from_slo`]).
///
/// The bound charges the session struct and the two buffers a keyed
/// session stores, each allocated at exactly its length:
///
/// * the key image (`h·w` pixel bytes);
/// * the Q8.8 key activation (2 bytes per target activation value, dense,
///   whatever its sparsity).
///
/// Neither depends on the frame's content, so the bound is not a worst
/// case but *the* footprint: a session holding key state is audited at
/// exactly this many bytes. RFBME scratch is not session memory: the
/// engine keeps one per worker.
///
/// # Errors
///
/// Returns [`AmcError`] when `config` is invalid or its target cannot be
/// resolved for `net`.
pub fn session_memory_bound(net: &Network, config: &AmcConfig) -> Result<usize, AmcError> {
    use std::mem::size_of;
    config.validate()?;
    let (target, _) = config.target.geometry(net)?;
    let input = net.input_shape();
    let mut act = input;
    for layer in &net.layers()[..=target] {
        act = layer.output_shape(act);
    }
    let image = input.height.saturating_mul(input.width);
    let key_act = act.len().saturating_mul(size_of::<i16>());
    Ok(size_of::<SessionCore>()
        .saturating_add(image)
        .saturating_add(key_act))
}
