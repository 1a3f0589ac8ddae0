//! Chip area on a 65 nm process (Fig 12).
//!
//! "The area for Eyeriss is 12.2 mm² on a 65 nm process… The area for EIE
//! is 40.8 mm² on a 45 nm process; compensating for the process difference,
//! EIE would occupy approximately 58.9 mm² on a 65 nm process. EVA² itself
//! occupies 2.6 mm², which is 3.5% of the overall area for the three units.
//! Of this, the eDRAM memory for the pixel buffers occupies 54.5% of EVA²'s
//! area, and the activation buffer occupies 16.0%" (§IV-B).

use crate::calib::TECH_SCALE_45_TO_65;

/// Published Eyeriss area at 65 nm, mm².
pub const EYERISS_MM2: f64 = 12.2;
/// Fraction of Eyeriss occupied by its PE array.
pub const EYERISS_PE_FRACTION: f64 = 0.786;
/// Published EIE area at 45 nm, mm².
pub const EIE_MM2_45NM: f64 = 40.8;
/// EVA² synthesized area at 65 nm, mm².
pub const EVA2_MM2: f64 = 2.6;
/// Fraction of EVA² occupied by the two pixel buffers (eDRAM).
pub const EVA2_PIXEL_BUFFER_FRACTION: f64 = 0.545;
/// Fraction of EVA² occupied by the key activation buffer.
pub const EVA2_ACTIVATION_BUFFER_FRACTION: f64 = 0.160;

/// One unit's area entry in the Fig 12 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaEntry {
    /// Unit name.
    pub name: String,
    /// Area in mm² at 65 nm.
    pub mm2: f64,
}

/// The Fig 12 area report.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// Eyeriss, EIE (scaled), EVA².
    pub entries: Vec<AreaEntry>,
}

/// EIE's area scaled from 45 nm to 65 nm (linear scaling, as the paper
/// applies: 40.8 × 65/45 ≈ 58.9).
pub fn eie_scaled_mm2() -> f64 {
    EIE_MM2_45NM * TECH_SCALE_45_TO_65
}

/// Builds the Fig 12 report.
pub fn fig12_report() -> AreaReport {
    AreaReport {
        entries: vec![
            AreaEntry {
                name: "Eyeriss (conv)".into(),
                mm2: EYERISS_MM2,
            },
            AreaEntry {
                name: "EIE (FC)".into(),
                mm2: eie_scaled_mm2(),
            },
            AreaEntry {
                name: "EVA2".into(),
                mm2: EVA2_MM2,
            },
        ],
    }
}

impl AreaReport {
    /// Total VPU area.
    pub fn total_mm2(&self) -> f64 {
        self.entries.iter().map(|e| e.mm2).sum()
    }

    /// One unit's share of the total, as a percentage.
    pub fn percent_of_total(&self, name: &str) -> Option<f64> {
        let e = self.entries.iter().find(|e| e.name.contains(name))?;
        Some(100.0 * e.mm2 / self.total_mm2())
    }
}

/// EVA²'s internal area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Eva2Breakdown {
    /// Pixel buffers (two eDRAM frame stores), mm².
    pub pixel_buffers_mm2: f64,
    /// Key activation buffer (eDRAM), mm².
    pub activation_buffer_mm2: f64,
    /// Remaining logic (RFBME producer/consumer, warp engine), mm².
    pub logic_mm2: f64,
}

/// EVA²'s area breakdown per the paper's percentages.
pub fn eva2_breakdown() -> Eva2Breakdown {
    let pixel = EVA2_MM2 * EVA2_PIXEL_BUFFER_FRACTION;
    let act = EVA2_MM2 * EVA2_ACTIVATION_BUFFER_FRACTION;
    Eva2Breakdown {
        pixel_buffers_mm2: pixel,
        activation_buffer_mm2: act,
        logic_mm2: EVA2_MM2 - pixel - act,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eie_scaling_matches_paper() {
        assert!((eie_scaled_mm2() - 58.9).abs() < 0.1);
    }

    #[test]
    fn eva2_is_3_5_percent_of_vpu() {
        let r = fig12_report();
        let pct = r.percent_of_total("EVA2").unwrap();
        assert!((pct - 3.5).abs() < 0.2, "EVA2 share {pct}%");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let b = eva2_breakdown();
        let total = b.pixel_buffers_mm2 + b.activation_buffer_mm2 + b.logic_mm2;
        assert!((total - EVA2_MM2).abs() < 1e-9);
        assert!(b.pixel_buffers_mm2 > b.activation_buffer_mm2);
        assert!(b.pixel_buffers_mm2 > b.logic_mm2);
    }

    #[test]
    fn report_totals() {
        let r = fig12_report();
        assert_eq!(r.entries.len(), 3);
        assert!((r.total_mm2() - (12.2 + 58.9 + 2.6)).abs() < 0.1);
        assert!(r.percent_of_total("nope").is_none());
    }
}
