//! Structured diagnostics: [`Diagnostic`], [`Severity`], [`DiagCode`], and
//! the [`AnalysisReport`] the pass pipeline fills in.

use std::fmt;

/// How bad a diagnostic is.
///
/// Only [`Severity::Error`] diagnostics make `Engine`/`AmcExecutor`
/// construction fail; warnings and infos are advisory and appear in the
/// rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context the report reader may want (resolved granularity, ranges).
    Info,
    /// Suspicious but survivable — the pipeline will run, possibly badly.
    Warning,
    /// The (network, config) pair is broken; construction must refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes — see the crate-level reference table for
/// meaning and suggested fixes. The `E-`/`W-` prefix documents the severity
/// the code is emitted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagCode {
    /// `E-SHAPE-001`: conv input channel mismatch.
    ShapeChannelMismatch,
    /// `E-SHAPE-002`: a layer's spatial output collapses to zero extent.
    ShapeCollapsed,
    /// `E-SHAPE-003`: FC `in_features` ≠ flattened input length.
    ShapeFlattenMismatch,
    /// `W-SHAPE-004`: opaque (undescribed) layer; analysis stops there.
    ShapeOpaqueLayer,
    /// `E-WARP-001`: non-spatial layer inside the AMC prefix.
    WarpNonSpatialPrefix,
    /// `E-WARP-002`: input smaller than one RFBME tile (no whole block).
    WarpNoWholeTile,
    /// `E-WARP-003`: search step exceeds the RFBME block size.
    WarpStepExceedsBlock,
    /// `W-WARP-004`: search window asymmetric (`2·radius % step ≠ 0`).
    WarpAsymmetricWindow,
    /// `E-RANGE-001`: Q8.8 datapath can saturate at the target layer.
    RangeFixedOverflow,
    /// `W-RANGE-002`: Q8.8 headroom under 2× at the target layer.
    RangeFixedNearOverflow,
    /// `W-RANGE-003`: f32 activation range would not fit Q8.8.
    RangeFloatExceedsFixed,
    /// `W-SPARSE-001`: target activation is not ReLU-derived.
    SparseProducerNotRelu,
    /// `W-SPARSE-003`: target is the last layer; the suffix is empty.
    SparseNoSuffix,
    /// `E-COST-001`: a cost aggregate overflows `u64`.
    CostModelOverflow,
    /// `W-COST-001`: static cost model ≠ the engine's MAC accounting.
    CostModelMismatch,
    /// `W-COST-002`: cost model could not be built (opaque/shape/target).
    CostModelIncomplete,
    /// `W-COST-003`: zero-MAC prefix — AMC saves nothing.
    CostZeroPrefix,
    /// `W-CAP-001`: SLO tick budget below one key frame; limits clamped.
    CapacityBelowKeyFrame,
}

impl DiagCode {
    /// The stable string form (`E-SHAPE-001`, …) used in rendered reports
    /// and in `AmcError::AnalysisRejected`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::ShapeChannelMismatch => "E-SHAPE-001",
            DiagCode::ShapeCollapsed => "E-SHAPE-002",
            DiagCode::ShapeFlattenMismatch => "E-SHAPE-003",
            DiagCode::ShapeOpaqueLayer => "W-SHAPE-004",
            DiagCode::WarpNonSpatialPrefix => "E-WARP-001",
            DiagCode::WarpNoWholeTile => "E-WARP-002",
            DiagCode::WarpStepExceedsBlock => "E-WARP-003",
            DiagCode::WarpAsymmetricWindow => "W-WARP-004",
            DiagCode::RangeFixedOverflow => "E-RANGE-001",
            DiagCode::RangeFixedNearOverflow => "W-RANGE-002",
            DiagCode::RangeFloatExceedsFixed => "W-RANGE-003",
            DiagCode::SparseProducerNotRelu => "W-SPARSE-001",
            DiagCode::SparseNoSuffix => "W-SPARSE-003",
            DiagCode::CostModelOverflow => "E-COST-001",
            DiagCode::CostModelMismatch => "W-COST-001",
            DiagCode::CostModelIncomplete => "W-COST-002",
            DiagCode::CostZeroPrefix => "W-COST-003",
            DiagCode::CapacityBelowKeyFrame => "W-CAP-001",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the pass pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (see the crate-level reference table).
    pub code: DiagCode,
    /// How bad it is.
    pub severity: Severity,
    /// The layer the finding anchors to (`None` for whole-network or
    /// config-level findings).
    pub layer: Option<usize>,
    /// Human-readable explanation, naming the offending layer and values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.severity, self.code, self.message)?;
        if let Some(i) = self.layer {
            write!(f, " (layer {i})")?;
        }
        Ok(())
    }
}

/// Per-layer facts the passes derive, kept for the rendered report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    /// Layer name from the IR.
    pub name: String,
    /// Kind label (`conv`, `pool`, …).
    pub kind: &'static str,
    /// Inferred output shape as `(channels, height, width)`, when shape
    /// inference reached this layer.
    pub shape: Option<(usize, usize, usize)>,
    /// Activation bounds `[lo, hi]`, when range analysis reached this
    /// layer.
    pub range: Option<(f64, f64)>,
    /// Forward-pass MACs, when the cost pass reached this layer.
    pub macs: Option<u64>,
}

/// Everything the pass pipeline produced for one (network, config) pair.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Network name, for rendering.
    pub network: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// One summary per layer, in layer order.
    pub layers: Vec<LayerSummary>,
    /// Receptive field of the target activation, when the warp-legality
    /// pass could fold it (the prefix is spatial). Its stride is the motion
    /// granularity, in pixels per activation cell.
    pub receptive_field: Option<eva2_cnn::receptive::ReceptiveField>,
    /// The static cost model, when the cost pass could build it
    /// (`W-COST-002` explains why when it could not).
    pub cost: Option<crate::cost::CostSummary>,
}

impl AnalysisReport {
    /// Appends a diagnostic.
    pub fn push(
        &mut self,
        code: DiagCode,
        severity: Severity,
        layer: Option<usize>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            layer,
            message,
        });
    }

    /// `true` when any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        self.first_error().is_some()
    }

    /// The first error-severity diagnostic, if any — what
    /// `AmcError::AnalysisRejected` reports.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// All error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// All warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Renders the report as a plain-text table plus the diagnostics list
    /// (the format `analyze_zoo` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "network {}:", self.network);
        if let Some(rf) = self.receptive_field {
            let _ = writeln!(
                out,
                "  motion granularity: {} px/activation cell",
                rf.stride
            );
        }
        for (i, l) in self.layers.iter().enumerate() {
            let shape = match l.shape {
                Some((c, h, w)) => format!("{c}x{h}x{w}"),
                None => "?".to_string(),
            };
            let range = match l.range {
                Some((lo, hi)) => format!("[{lo:+.3}, {hi:+.3}]"),
                None => "[?]".to_string(),
            };
            let macs = match l.macs {
                Some(m) => m.to_string(),
                None => "?".to_string(),
            };
            let _ = writeln!(
                out,
                "  {i:>2} {:<12} {:<5} {shape:<12} {macs:>10} {range}",
                l.name, l.kind
            );
        }
        if let Some(c) = &self.cost {
            let _ = writeln!(
                out,
                "  cost: key {} MACs; predicted <= {} ops (suffix {} MACs + rfbme {} exact \
                 + warp <= {}); target activation {} B",
                c.key_frame_macs,
                c.predicted_ops_bound,
                c.predicted_frame_macs,
                c.rfbme_ops_bound,
                c.warp_interpolations_bound,
                c.target_activation_bytes
            );
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "  no diagnostics");
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn code_strings_match_severity_prefix() {
        for (code, sev) in [
            (DiagCode::ShapeChannelMismatch, 'E'),
            (DiagCode::ShapeOpaqueLayer, 'W'),
            (DiagCode::WarpNonSpatialPrefix, 'E'),
            (DiagCode::RangeFixedOverflow, 'E'),
            (DiagCode::RangeFloatExceedsFixed, 'W'),
            (DiagCode::SparseNoSuffix, 'W'),
            (DiagCode::CostModelOverflow, 'E'),
            (DiagCode::CostModelMismatch, 'W'),
            (DiagCode::CostModelIncomplete, 'W'),
            (DiagCode::CostZeroPrefix, 'W'),
            (DiagCode::CapacityBelowKeyFrame, 'W'),
        ] {
            assert!(code.as_str().starts_with(sev), "{code}");
        }
    }

    #[test]
    fn first_error_skips_warnings() {
        let mut r = AnalysisReport::default();
        r.push(
            DiagCode::WarpAsymmetricWindow,
            Severity::Warning,
            None,
            "w".into(),
        );
        assert!(!r.has_errors());
        r.push(
            DiagCode::ShapeCollapsed,
            Severity::Error,
            Some(3),
            "e".into(),
        );
        let first = r.first_error().unwrap();
        assert_eq!(first.code, DiagCode::ShapeCollapsed);
        assert_eq!(first.layer, Some(3));
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
    }
}
