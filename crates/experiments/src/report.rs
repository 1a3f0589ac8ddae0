//! Plain-text tables and number formatting for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table builder for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                let _ = write!(line, "{cell:<w$}  ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a percentage with one decimal.
pub fn pct(v: f32) -> String {
    format!("{v:.1}")
}

/// Formats a millisecond/millijoule quantity with adaptive precision.
pub fn qty(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 4);
        // Columns align: both rows start "name-width" apart.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].find('1'), lines[3].find('1'));
    }

    #[test]
    fn qty_precision() {
        assert_eq!(qty(4370.1), "4370");
        assert_eq!(qty(53.4), "53.4");
        assert_eq!(qty(0.032), "0.032");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(51.849), "51.8");
    }
}
