//! One tick: [`Engine::process_batch`] as a short sequence of phase
//! functions over one record per submitted job — screen → estimate → admit
//! → complete → health epilogue, where a key frame's completion runs its
//! own CNN prefix first. Every worker count runs this same code; only the
//! width [`fan_out`] splits a phase across changes (see the
//! [threading model](crate::serve#threading-model--determinism)).

use super::chaos::{EnginePhase, FailureInjector, TickClock};
use super::contain;
use super::session::{FramePlan, StreamSession};
use super::{Engine, EngineLimits};
use crate::error::AmcError;
use crate::executor::{AmcFrameResult, ExecStats};
use crate::policy::FrameKind;
use eva2_cnn::network::Network;
use eva2_motion::rfbme::{RfbmeResult, RfbmeScratch};
use eva2_tensor::{GemmScratch, GrayImage};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The typed outcome of one submitted frame — what
/// [`Engine::process_batch`] returns per job. Served variants carry the
/// frame's [`AmcFrameResult`] (output tensor, MACs, warp/compression
/// detail) plus `stats`: the [`ExecStats`] delta this single frame added
/// to its session, so callers account per frame without diffing
/// snapshots. Refused variants carry the typed [`AmcError`], split by
/// what the caller should do about it.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// Warped (or memoized) from stored key state; suffix-only compute.
    Predicted {
        /// The served frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// A key frame the policy (or a first frame / rehydration) asked for:
    /// full prefix + suffix, key state refreshed.
    Key {
        /// The served frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// The policy said *predicted* but the residual per-pixel block error
    /// exceeded
    /// [`AmcConfig::max_residual_error`](crate::executor::AmcConfig::max_residual_error),
    /// so the engine refused to warp garbage and spent a key frame
    /// (§III-C graceful degradation).
    ForcedKey {
        /// The residual per-pixel block error that tripped the bound.
        residual: f32,
        /// The served (key) frame.
        frame: AmcFrameResult,
        /// This frame's statistics delta.
        stats: ExecStats,
    },
    /// Backpressure: a per-tick budget was exhausted before this job. The
    /// session is untouched — resubmitting next tick is bit-identical to
    /// having submitted it then.
    Shed(AmcError),
    /// The submission itself is wrong (foreign engine, retired session,
    /// off-geometry frame, or a violated internal invariant surfaced as
    /// [`AmcError::Internal`]); resubmitting the same job cannot succeed.
    Rejected(AmcError),
}

impl FrameOutcome {
    /// Wraps a refusal, classifying shed-able backpressure apart from
    /// rejections.
    fn from_error(e: AmcError) -> Self {
        match e {
            AmcError::BudgetExceeded { .. } => FrameOutcome::Shed(e),
            _ => FrameOutcome::Rejected(e),
        }
    }

    /// Whether the frame was served (any of the three success variants).
    pub fn is_served(&self) -> bool {
        self.frame().is_some()
    }

    /// Whether the frame was served as a key frame (policy-chosen or
    /// forced).
    pub fn is_key(&self) -> bool {
        matches!(
            self,
            FrameOutcome::Key { .. } | FrameOutcome::ForcedKey { .. }
        )
    }

    /// The served frame, when one was produced.
    pub fn frame(&self) -> Option<&AmcFrameResult> {
        match self {
            FrameOutcome::Predicted { frame, .. }
            | FrameOutcome::Key { frame, .. }
            | FrameOutcome::ForcedKey { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// The statistics delta this frame added to its session, when served.
    pub fn stats_delta(&self) -> Option<ExecStats> {
        match self {
            FrameOutcome::Predicted { stats, .. }
            | FrameOutcome::Key { stats, .. }
            | FrameOutcome::ForcedKey { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// The refusal, when the frame was shed or rejected.
    pub fn error(&self) -> Option<&AmcError> {
        match self {
            FrameOutcome::Shed(e) | FrameOutcome::Rejected(e) => Some(e),
            _ => None,
        }
    }

    /// Collapses the outcome to the plain result shape, dropping the
    /// variant distinction and stats delta.
    pub fn into_result(self) -> Result<AmcFrameResult, AmcError> {
        match self {
            FrameOutcome::Predicted { frame, .. }
            | FrameOutcome::Key { frame, .. }
            | FrameOutcome::ForcedKey { frame, .. } => Ok(frame),
            FrameOutcome::Shed(e) | FrameOutcome::Rejected(e) => Err(e),
        }
    }

    /// The served frame, panicking with `msg` on a refusal — the
    /// test-and-example analogue of `Result::expect`. Serving code uses
    /// [`FrameOutcome::into_result`] instead.
    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "panicking on a refusal is this method's documented contract"
    )]
    pub fn expect(self, msg: &str) -> AmcFrameResult {
        match self.into_result() {
            Ok(frame) => frame,
            Err(e) => panic!("{msg}: {e:?}"),
        }
    }

    /// The served frame, panicking on a refusal — the test-and-example
    /// analogue of `Result::unwrap`.
    #[track_caller]
    pub fn unwrap(self) -> AmcFrameResult {
        self.expect("frame was not served")
    }
}

/// One submission's record. Its [`Stage`] advances phase by phase, so a
/// phase can only act on a job in the state it expects.
struct Job<'a> {
    session: &'a mut StreamSession,
    frame: &'a GrayImage,
    stage: Stage,
}

/// Where a job stands. A refusal at any point jumps straight to `Done`.
enum Stage {
    /// Past the screen. `geometry` is the off-geometry refusal, which the
    /// walk surfaces after the frame budget, in serial precedence order.
    Screened {
        geometry: Option<AmcError>,
    },
    /// Motion estimated: `None` when the frame needs none — the session
    /// has no key state, or its policy has already made the frame a key
    /// frame — which classifies it as a key frame.
    Estimated(Option<RfbmeResult>),
    /// Admitted and committed, so the frame must complete. `stats_before`
    /// turns the session's totals into this frame's delta.
    Admitted {
        plan: FramePlan,
        stats_before: ExecStats,
        work: Work,
    },
    Done(FrameOutcome),
}

/// What an admitted frame still needs.
enum Work {
    /// A key frame: the full prefix, then sparse encode + suffix.
    Key,
    /// A predicted frame and the motion it warps by.
    Predicted(RfbmeResult),
}

/// Per-tick context: the tick number and limits, the injectable seams,
/// and the deadline watchdog.
struct Tick<'e> {
    number: u64,
    limits: EngineLimits,
    clock: &'e dyn TickClock,
    injector: Option<&'e dyn FailureInjector>,
    start_us: u64,
    /// Sticky: set by the first checkpoint past the deadline.
    overrun: AtomicBool,
}

impl Tick<'_> {
    /// A deadline watchdog checkpoint: the time since the tick started,
    /// and whether it has run past its soft budget, now or at an earlier
    /// checkpoint.
    fn checkpoint(&self) -> (u64, bool) {
        let elapsed = self.clock.now_us().saturating_sub(self.start_us);
        if elapsed > self.limits.tick_deadline_ms.saturating_mul(1000) {
            self.overrun.store(true, Relaxed);
        }
        (elapsed, self.overrun.load(Relaxed))
    }

    /// Runs one per-frame job of `phase` inside the containment seam,
    /// consulting the chaos injector first, so an injected fault is
    /// contained exactly like a real one.
    fn run<T>(&self, phase: EnginePhase, sid: u64, job: impl FnOnce() -> T) -> Result<T, AmcError> {
        contain::run(phase, || {
            contain::chaos(self.injector, self.clock, phase, self.number, sid);
            job()
        })
    }
}

impl<'a> Job<'a> {
    /// The screen: side-effect-free. The refusals that precede the frame
    /// budget in serial order end the job here.
    fn screen(session: &'a mut StreamSession, frame: &'a GrayImage, engine_id: u64) -> Self {
        let id = session.id;
        let refused = |e| Stage::Done(FrameOutcome::Rejected(e));
        let stage = if session.engine_id != engine_id {
            refused(AmcError::EngineMismatch { session: id })
        } else if session.slot.retired.load(Relaxed) {
            refused(AmcError::SessionEvicted { session: id })
        } else if session.slot.poisoned.load(Relaxed) {
            refused(AmcError::SessionPoisoned { session: id })
        } else {
            let geometry = session.core.check_geometry(frame).err();
            Stage::Screened { geometry }
        };
        Self {
            session,
            frame,
            stage,
        }
    }

    /// Ends the job with `e`. A contained panic may have left the session's
    /// state half-mutated, so it also quarantines the session until it is
    /// evicted and rehydrated through the forced-key seam.
    fn refuse(&mut self, e: AmcError) {
        if matches!(e, AmcError::WorkerPanicked { .. }) {
            self.session.slot.poisoned.store(true, Relaxed);
        }
        self.stage = Stage::Done(FrameOutcome::from_error(e));
    }

    /// Runs this stream's RFBME in a worker's scratch, unless the frame
    /// needs no motion (no key state, or a key frame the policy has already
    /// decided). It reads only the session's key state and writes only the
    /// scratch, whose contents never influence a result — so estimating a
    /// frame the walk later sheds leaves no trace, and a panic here costs
    /// only this frame.
    fn estimate(&mut self, tick: &Tick<'_>, scratch: &mut RfbmeScratch) {
        let (core, frame) = (&self.session.core, self.frame);
        match tick.run(EnginePhase::Estimate, self.session.id, || {
            core.estimate_motion(frame, scratch)
        }) {
            Ok(motion) => self.stage = Stage::Estimated(motion),
            Err(e) => self.refuse(e),
        }
    }

    /// One step of the admission walk. `admitted` counts the tick's
    /// admitted frames and key frames so far; `Err` refuses the job, which
    /// is untouched unless the commit itself panicked.
    fn admit(
        &mut self,
        tick: &Tick<'_>,
        admitted: &mut (usize, usize),
        scratch: &mut RfbmeScratch,
    ) -> Result<(), AmcError> {
        let limits = &tick.limits;
        if matches!(self.stage, Stage::Done(_)) {
            return Ok(());
        }
        if admitted.0 >= limits.max_frames_per_tick {
            return Err(AmcError::BudgetExceeded {
                what: "frames per tick",
                budget: limits.max_frames_per_tick,
            });
        }
        if let Stage::Screened { geometry } = &mut self.stage {
            if let Some(e) = geometry.take() {
                return Err(e);
            }
            // Past the speculation bound: the one inline estimate.
            self.estimate(tick, scratch);
        }
        let Stage::Estimated(motion) = &mut self.stage else {
            return Ok(()); // the estimate refused the job
        };
        let session = &mut *self.session;
        let core = &session.core;
        let plan = tick.run(EnginePhase::Admit, session.id, || core.classify(motion))?;
        if plan.kind == FrameKind::Key {
            // Deadline watchdog: once the tick is past its soft budget, no
            // *new* key-frame upgrade is admitted.
            if tick.checkpoint().1 {
                return Err(AmcError::BudgetExceeded {
                    what: "tick deadline",
                    budget: usize::try_from(limits.tick_deadline_ms).unwrap_or(usize::MAX),
                });
            }
            if admitted.1 >= limits.max_key_frames_per_tick {
                return Err(AmcError::BudgetExceeded {
                    what: "key frames per tick",
                    budget: limits.max_key_frames_per_tick,
                });
            }
        }
        // Committed from here on. The commit is contained too: a panic
        // mid-commit leaves counters half-bumped, which is what quarantine
        // is for.
        let stats_before = session.core.stats();
        contain::run(EnginePhase::Admit, || session.core.commit_frame(&plan))?;
        session.slot.last_tick.store(tick.number, Relaxed);
        admitted.0 += 1;
        let work = match plan.kind {
            FrameKind::Key => {
                admitted.1 += 1;
                Work::Key
            }
            FrameKind::Predicted => Work::Predicted(motion.take().ok_or(AmcError::Internal {
                what: "predicted frame requires a motion estimate",
            })?),
        };
        self.stage = Stage::Admitted {
            plan,
            stats_before,
            work,
        };
        Ok(())
    }

    /// Completes an admitted frame: for a key frame the CNN prefix, then
    /// sparse encode + suffix; for a predicted frame warp + suffix. A key
    /// frame's prefix is contained as a step of its own, so a panic there
    /// is reported in the `"prefix"` phase and costs only this frame.
    fn complete(&mut self, tick: &Tick<'_>, net: &Network, scratch: &mut GemmScratch) {
        let Stage::Admitted {
            plan,
            stats_before,
            work,
        } = &self.stage
        else {
            return;
        };
        let (plan, before) = (*plan, *stats_before);
        let (session, frame) = (&mut *self.session, self.frame);
        let (id, core) = (session.id, &mut session.core);
        let max_bytes = tick.limits.max_session_bytes;
        let outcome = match work {
            Work::Key => {
                // A checkpoint only records an overrun: committed frames finish.
                tick.checkpoint();
                let target = core.target();
                let prefix = tick.run(EnginePhase::Prefix, id, || {
                    net.forward_prefix_scratch(&frame.to_tensor(), target, scratch)
                });
                prefix.and_then(|act| {
                    tick.run(EnginePhase::Complete, id, || {
                        let (metrics, ops) = (plan.metrics, plan.rfbme_ops);
                        let frame = core.finish_key_frame(net, scratch, frame, act, metrics, ops);
                        // Per-session budget: rather than grow past its
                        // allowance, the stream degrades to bounded-memory
                        // all-key serving.
                        if core.memory_footprint() > max_bytes {
                            core.evict_state();
                        }
                        let stats = core.stats().delta_since(&before);
                        match (plan.forced, plan.metrics) {
                            (true, Some(m)) => FrameOutcome::ForcedKey {
                                residual: m.block_error_per_pixel,
                                frame,
                                stats,
                            },
                            _ => FrameOutcome::Key { frame, stats },
                        }
                    })
                })
            }
            Work::Predicted(motion) => tick.run(EnginePhase::Complete, id, || {
                match core.finish_predicted(net, scratch, motion, plan.metrics, plan.rfbme_ops) {
                    Ok(frame) => FrameOutcome::Predicted {
                        stats: core.stats().delta_since(&before),
                        frame,
                    },
                    Err(e) => FrameOutcome::from_error(e),
                }
            }),
        };
        match outcome {
            Ok(outcome) => self.stage = Stage::Done(outcome),
            Err(e) => self.refuse(e),
        }
    }

    /// The job's outcome. Refreshes the session's audited footprint first,
    /// served or not: a contained panic may still have moved it, and the
    /// memory ledger must track the core, not just happy paths.
    fn finish(self) -> FrameOutcome {
        let footprint = self.session.core.memory_footprint();
        self.session.slot.bytes.store(footprint, Relaxed);
        match self.stage {
            Stage::Done(outcome) => outcome,
            _ => FrameOutcome::Rejected(AmcError::Internal {
                what: "a job produced no outcome",
            }),
        }
    }
}

/// Estimate phase: the first `max_frames_per_tick` screened-in jobs,
/// stream-per-worker — bounded, so a submission storm against a tight
/// budget does no unbounded speculative work.
fn estimate(tick: &Tick<'_>, jobs: &mut [Job<'_>], scratches: &mut [RfbmeScratch]) {
    let jobs = jobs
        .iter_mut()
        .filter(|job| matches!(job.stage, Stage::Screened { geometry: None }))
        .take(tick.limits.max_frames_per_tick);
    fan_out(scratches, jobs, |scratch, job| job.estimate(tick, scratch));
}

/// Admit phase: budgets, classification, and commits are inherently
/// ordered (earlier jobs consume budget first), so this walk runs serially
/// in submission order. Shedding happens here, before any session
/// mutation.
fn admit(tick: &Tick<'_>, jobs: &mut [Job<'_>], scratch: &mut RfbmeScratch) {
    let mut admitted = (0, 0);
    for job in jobs {
        if let Err(e) = job.admit(tick, &mut admitted, scratch) {
            job.refuse(e);
        }
    }
}

/// Complete phase: per-session work on distinct sessions (`&mut`
/// exclusivity), stream-per-worker — a key frame's prefix included, on the
/// same worker's scratch as the rest of its frame.
fn complete(tick: &Tick<'_>, jobs: &mut [Job<'_>], net: &Network, scratches: &mut [GemmScratch]) {
    tick.checkpoint();
    let jobs = jobs
        .iter_mut()
        .filter(|job| matches!(job.stage, Stage::Admitted { .. }));
    fan_out(scratches, jobs, |scratch, job| {
        job.complete(tick, net, scratch)
    });
}

/// Runs `f` over `items`, split round-robin across the entries of
/// `states`, each worker with exclusive use of its state — this is how
/// per-worker scratch stays lock-free. The calling thread takes the first
/// share and a scoped thread each of the others, so one state, or at most
/// one item, runs inline and spawns nothing. This is the only code in a
/// tick that depends on the worker count.
///
/// Results travel through the items themselves (`&mut` records), so work
/// lands deterministically regardless of scheduling.
pub(super) fn fan_out<T, W, F>(states: &mut [W], items: impl IntoIterator<Item = T>, f: F)
where
    T: Send,
    W: Send,
    F: Fn(&mut W, T) + Sync,
{
    // `worker_threads` is validated ≥ 1, so a missing state is
    // unreachable; bailing out leaves the jobs unfinished, which
    // `Job::finish` reports as `AmcError::Internal`.
    let Some((first, rest)) = states.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        return items.into_iter().for_each(|item| f(first, item));
    }
    let mut shares = deal(items, rest.len() + 1).into_iter();
    let own = shares.next().unwrap_or_default();
    let f = &f;
    std::thread::scope(|scope| {
        for (state, share) in rest.iter_mut().zip(shares) {
            if !share.is_empty() {
                scope.spawn(move || share.into_iter().for_each(|item| f(state, item)));
            }
        }
        own.into_iter().for_each(|item| f(first, item));
    });
}

/// Deals `items` round-robin into `n` hands.
fn deal<T>(items: impl IntoIterator<Item = T>, n: usize) -> Vec<Vec<T>> {
    let mut hands: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        hands[i % n].push(item);
    }
    hands
}

impl Engine {
    /// Processes one frame from each of several streams — one *tick*, the
    /// unit of the per-tick frame and key-frame budgets and of the
    /// idle-eviction clock.
    ///
    /// Every frame is classified by its own session's RFBME estimate and
    /// policy, in submission order; a frame that is a key frame whatever
    /// its motion (no key state, or the policy's forced gap or static
    /// period) is classified without a search. Then each session completes
    /// its frame, a key frame running its own CNN prefix first. Results come
    /// back in submission order, bit-identical to processing each
    /// `(session, frame)` pair serially through [`Engine::process`], at any
    /// [`EngineLimits::worker_threads`] (see the
    /// [module docs](crate::serve#threading-model--determinism)).
    ///
    /// Each job succeeds or is refused independently; a refusal never
    /// disturbs the other jobs, and a refused job's session is left
    /// exactly as it was:
    ///
    /// * [`FrameOutcome::Shed`] — [`AmcError::BudgetExceeded`]: the tick's
    ///   frame or key-frame budget was exhausted before this job, or the
    ///   tick overran [`EngineLimits::tick_deadline_ms`] before this
    ///   key-frame upgrade (`what: "tick deadline"`); resubmit next tick.
    /// * [`FrameOutcome::Rejected`] — [`AmcError::EngineMismatch`] (a
    ///   different engine's session), [`AmcError::SessionEvicted`],
    ///   [`AmcError::SessionPoisoned`] (quarantined; evict to recover),
    ///   [`AmcError::FrameGeometryMismatch`] (not the network's input
    ///   shape), [`AmcError::WorkerPanicked`] (this job panicked —
    ///   contained, and the session is now quarantined), or
    ///   [`AmcError::Internal`] (a violated engine invariant, returned
    ///   instead of panicking so serving survives it).
    pub fn process_batch<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = (&'a mut StreamSession, &'a GrayImage)>,
    ) -> Vec<FrameOutcome> {
        self.tick += 1;
        let tick = Tick {
            number: self.tick,
            limits: self.limits,
            clock: self.clock.as_ref(),
            injector: self.injector.as_deref(),
            start_us: self.clock.now_us(),
            overrun: AtomicBool::new(false),
        };
        let mut jobs: Vec<Job<'_>> = jobs
            .into_iter()
            .map(|(session, frame)| Job::screen(session, frame, self.engine_id))
            .collect();
        estimate(&tick, &mut jobs, &mut self.motion_scratches);
        admit(&tick, &mut jobs, &mut self.motion_scratches[0]);
        complete(&tick, &mut jobs, &self.net, &mut self.scratches);
        let results: Vec<FrameOutcome> = jobs.into_iter().map(Job::finish).collect();
        // The health epilogue: serial, after every worker has finished.
        let (elapsed_us, overran) = tick.checkpoint();
        self.health.end_tick(elapsed_us, overran, &results);
        results
    }
}
