//! Typed errors for AMC configuration and serving.
//!
//! Everything fallible in the public execution API — target-layer
//! resolution, configuration validation, session management — reports an
//! [`AmcError`] instead of the stringly-typed `Result<_, String>` the
//! original executor used, so callers can match on the failure instead of
//! parsing prose.

use std::error::Error;
use std::fmt;

/// Why an AMC configuration or serving operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AmcError {
    /// The network has no spatial prefix to split (its first layer is
    /// already non-spatial), so no target layer exists.
    NoSpatialPrefix {
        /// Name of the offending network.
        network: String,
    },
    /// `TargetSelection::Early` was requested but the network has no
    /// pooling layer.
    NoPoolingLayer {
        /// Name of the offending network.
        network: String,
    },
    /// An explicit `TargetSelection::Index` lies outside the spatial
    /// prefix.
    TargetOutsidePrefix {
        /// The requested layer index.
        index: usize,
        /// The last spatial layer — the largest valid target.
        last_spatial: usize,
    },
    /// A configuration field failed validation (builder or constructor).
    InvalidConfig {
        /// Which invariant was violated.
        reason: &'static str,
    },
    /// A session was opened with a configuration that resolves to a
    /// different target layer than its engine's. Sessions share the
    /// engine's target, prefix MACs and session memory bound, so the
    /// session is refused.
    SessionTargetMismatch {
        /// The engine's resolved target layer.
        engine: usize,
        /// The session configuration's resolved target layer.
        session: usize,
    },
    /// A session was submitted to an engine that did not open it. Running
    /// one engine's key-frame state against another engine's network would
    /// silently produce garbage, so the submission is refused instead.
    EngineMismatch {
        /// Id of the offending session (unique per opening engine).
        session: u64,
    },
    /// `Engine::open_session*` was refused because the engine already holds
    /// its configured maximum number of live sessions
    /// (`EngineLimits::max_sessions`). Close or evict a session first.
    EngineAtCapacity {
        /// The configured session limit.
        limit: usize,
    },
    /// A submitted frame was shed by admission control: serving it would
    /// exceed a per-tick budget (`EngineLimits::max_frames_per_tick` or
    /// `max_keys_per_tick`). The session is untouched — resubmitting the
    /// frame on a later tick is safe and will produce the same result it
    /// would have produced now.
    BudgetExceeded {
        /// Which budget was exhausted (`"frames per tick"` /
        /// `"key frames per tick"`).
        what: &'static str,
        /// The configured budget.
        budget: usize,
    },
    /// The session was evicted by the engine (admission revoked) and can no
    /// longer submit frames; open a fresh session to resume the stream.
    SessionEvicted {
        /// Id of the evicted session.
        session: u64,
    },
    /// A submitted frame's dimensions do not match the geometry the
    /// serving network expects. The expected geometry is the network's input
    /// shape, so it cannot be changed mid-stream; a renegotiated source
    /// must rescale frames (or be served by an engine built for the new
    /// resolution).
    FrameGeometryMismatch {
        /// Height the network was built for.
        expected_height: usize,
        /// Width the network was built for.
        expected_width: usize,
        /// Height of the submitted frame.
        got_height: usize,
        /// Width of the submitted frame.
        got_width: usize,
    },
    /// An internal serving invariant was violated. This is a bug report,
    /// not an operational condition — but a serving process must not be
    /// killed by one bad stream, so it surfaces as a typed error instead
    /// of a panic.
    Internal {
        /// Which invariant was violated.
        what: &'static str,
    },
    /// A worker panicked while executing one frame's job. The panic was
    /// contained at the job boundary (`serve`'s containment seam), so it
    /// cost exactly one frame: the rest of the tick completed as if the
    /// panicking job had never been submitted. Because the panic may have
    /// left the owning session's state half-mutated, that session is
    /// quarantined — see [`AmcError::SessionPoisoned`].
    WorkerPanicked {
        /// Which serving phase the panic escaped from (`"estimate"`,
        /// `"admit"`, `"prefix"`, or `"complete"`).
        phase: &'static str,
        /// The panic payload, when it was a string (the common
        /// `panic!("...")` case); a placeholder otherwise.
        payload: String,
    },
    /// The session is quarantined: a previous frame's job panicked while
    /// holding this session's state, so the state cannot be trusted. Every
    /// submission is refused with this error until the session is evicted
    /// (`StreamSession::evict_state`), which drops the suspect state and
    /// lets the next frame rehydrate it through the forced-key seam —
    /// bit-identical to a fresh session from there on.
    SessionPoisoned {
        /// Id of the quarantined session.
        session: u64,
    },
    /// The static verifier (`eva2-analysis`) found an error-severity
    /// diagnostic for this (network, configuration) pair: a shape that
    /// cannot propagate, a prefix that is not warp-legal, or a Q8.8 range
    /// that will saturate. Construction is refused so the fault surfaces
    /// here — with a stable diagnostic code — instead of as a panic or a
    /// silent saturation on the first frame. Escape hatch for experiments:
    /// `AmcConfig::builder().allow_unverified()`.
    AnalysisRejected {
        /// Stable diagnostic code (e.g. `E-SHAPE-003`); see the
        /// `eva2-analysis` crate docs for the reference table.
        code: &'static str,
        /// The offending layer, when the finding anchors to one.
        layer: Option<usize>,
        /// Human-readable explanation from the analysis report.
        message: String,
    },
}

impl fmt::Display for AmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmcError::NoSpatialPrefix { network } => {
                write!(f, "{network}: network has no spatial prefix")
            }
            AmcError::NoPoolingLayer { network } => {
                write!(
                    f,
                    "{network}: network has no pooling layer for an early target"
                )
            }
            AmcError::TargetOutsidePrefix {
                index,
                last_spatial,
            } => write!(
                f,
                "layer {index} is outside the spatial prefix (last spatial layer is {last_spatial})"
            ),
            AmcError::InvalidConfig { reason } => write!(f, "invalid AMC configuration: {reason}"),
            AmcError::SessionTargetMismatch { engine, session } => write!(
                f,
                "session target layer {session} does not match engine target layer {engine}"
            ),
            AmcError::EngineMismatch { session } => {
                write!(f, "session {session} was opened by a different engine")
            }
            AmcError::EngineAtCapacity { limit } => write!(
                f,
                "engine is at its session capacity ({limit} live sessions)"
            ),
            AmcError::BudgetExceeded { what, budget } => write!(
                f,
                "frame shed by admission control: {what} budget ({budget}) exhausted this tick"
            ),
            AmcError::SessionEvicted { session } => write!(
                f,
                "session {session} was evicted by the engine; open a fresh session"
            ),
            AmcError::FrameGeometryMismatch {
                expected_height,
                expected_width,
                got_height,
                got_width,
            } => write!(
                f,
                "frame geometry {got_height}x{got_width} does not match the network's \
                 input geometry {expected_height}x{expected_width} (rescale the frame \
                 or serve it from an engine built for that resolution)"
            ),
            AmcError::Internal { what } => {
                write!(f, "internal serving invariant violated: {what}")
            }
            AmcError::WorkerPanicked { phase, payload } => write!(
                f,
                "worker panicked in the {phase} phase (contained; this frame only): {payload}"
            ),
            AmcError::SessionPoisoned { session } => write!(
                f,
                "session {session} is quarantined after a contained panic; \
                 evict its state to recover through a fresh key frame"
            ),
            AmcError::AnalysisRejected {
                code,
                layer,
                message,
            } => {
                write!(f, "rejected by static analysis [{code}]: {message}")?;
                if let Some(i) = layer {
                    write!(f, " (layer {i})")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for AmcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AmcError::TargetOutsidePrefix {
            index: 99,
            last_spatial: 7,
        };
        let s = e.to_string();
        assert!(s.contains("99") && s.contains('7'), "{s}");
        assert!(AmcError::InvalidConfig {
            reason: "search step must be at least 1"
        }
        .to_string()
        .contains("search step"));
    }

    #[test]
    fn lifecycle_variants_display_is_informative() {
        assert!(AmcError::EngineAtCapacity { limit: 3 }
            .to_string()
            .contains('3'));
        let shed = AmcError::BudgetExceeded {
            what: "key frames per tick",
            budget: 2,
        }
        .to_string();
        assert!(
            shed.contains("key frames per tick") && shed.contains('2'),
            "{shed}"
        );
        assert!(AmcError::SessionEvicted { session: 9 }
            .to_string()
            .contains('9'));
        assert!(AmcError::EngineMismatch { session: 4 }
            .to_string()
            .contains("different engine"));
        let geom = AmcError::FrameGeometryMismatch {
            expected_height: 48,
            expected_width: 48,
            got_height: 24,
            got_width: 24,
        }
        .to_string();
        assert!(geom.contains("48x48") && geom.contains("24x24"), "{geom}");
        assert!(AmcError::Internal {
            what: "one prefix activation per key frame"
        }
        .to_string()
        .contains("invariant"));
    }

    #[test]
    fn containment_variants_display_is_informative() {
        let p = AmcError::WorkerPanicked {
            phase: "prefix",
            payload: "index out of bounds".into(),
        }
        .to_string();
        assert!(
            p.contains("prefix") && p.contains("index out of bounds") && p.contains("contained"),
            "{p}"
        );
        let q = AmcError::SessionPoisoned { session: 12 }.to_string();
        assert!(q.contains("12") && q.contains("quarantined"), "{q}");
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: Error>(_: &E) {}
        takes_error(&AmcError::NoSpatialPrefix {
            network: "net".into(),
        });
    }
}
