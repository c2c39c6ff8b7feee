//! Minimal fixed-width table formatting for experiment output.

use spinamm_telemetry::json::JsonValue;
use std::fmt::Write as _;

/// A simple printable table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// The row is normalized to exactly one cell per header — short rows
    /// are padded with empty cells, long rows are trimmed — so no data can
    /// silently vanish at render time. A mismatched width is a caller bug
    /// and panics in debug builds.
    pub fn row(&mut self, cells: &[String]) {
        debug_assert_eq!(
            cells.len(),
            self.headers.len(),
            "table '{}': row has {} cells for {} columns",
            self.title,
            cells.len(),
            self.headers.len()
        );
        let mut row = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate().take(cols) {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (k, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[k]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (k, cell) in row.iter().enumerate().take(cols) {
                let _ = write!(line, "{:<w$}  ", cell, w = widths[k]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// The table as a structured JSON value: `{title, columns, rows}` with
    /// every cell carried as its rendered string.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let strings = |items: &[String]| {
            JsonValue::Array(items.iter().map(|s| JsonValue::Str(s.clone())).collect())
        };
        JsonValue::object([
            ("title", JsonValue::Str(self.title.clone())),
            ("columns", strings(&self.headers)),
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
    }
}

/// Formats a value in engineering notation with a unit.
#[must_use]
pub fn eng(value: f64, unit: &str) -> String {
    if !value.is_finite() {
        // Mirror the JSON writer, which nulls non-finite numbers: a bare
        // `inf`/`NaN` cell would corrupt any table a reader tries to parse.
        return format!("n/a {unit}");
    }
    let (scaled, prefix) = if value == 0.0 {
        (0.0, "")
    } else {
        let exp = value.abs().log10().floor() as i32;
        match exp {
            e if e >= 9 => (value / 1e9, "G"),
            e if e >= 6 => (value / 1e6, "M"),
            e if e >= 3 => (value / 1e3, "k"),
            e if e >= 0 => (value, ""),
            e if e >= -3 => (value * 1e3, "m"),
            e if e >= -6 => (value * 1e6, "µ"),
            e if e >= -9 => (value * 1e9, "n"),
            e if e >= -12 => (value * 1e12, "p"),
            e if e >= -15 => (value * 1e15, "f"),
            _ => (value * 1e18, "a"),
        }
    };
    format!("{scaled:.3} {prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        assert!(t.is_empty());
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["long-name".to_string(), "2".to_string()]);
        assert_eq!(t.len(), 2);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row has 1 cells for 2 columns")]
    fn short_row_panics_in_debug() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn rows_are_normalized_to_header_width() {
        // In release builds (no debug assertions) a short row must pad
        // rather than silently shifting columns, and a long row must trim.
        let mut t = Table::new("demo", &["a", "b"]);
        if cfg!(debug_assertions) {
            t.row(&["x".to_string(), "y".to_string()]);
            assert_eq!(t.rows[0].len(), 2);
        } else {
            t.row(&["x".to_string()]);
            t.row(&["1".to_string(), "2".to_string(), "3".to_string()]);
            assert_eq!(t.rows[0], vec!["x".to_string(), String::new()]);
            assert_eq!(t.rows[1].len(), 2);
        }
    }

    #[test]
    fn eng_nulls_non_finite() {
        assert_eq!(eng(f64::NAN, "W"), "n/a W");
        assert_eq!(eng(f64::INFINITY, "J"), "n/a J");
        assert_eq!(eng(f64::NEG_INFINITY, "J"), "n/a J");
        assert_eq!(eng(0.0, "W"), "0.000 W");
    }

    #[test]
    fn json_round_trips_all_cells() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["b".to_string(), "2".to_string()]);
        let j = t.to_json().render();
        spinamm_telemetry::json::validate(&j).expect("table JSON must parse");
        assert!(j.contains("\"title\":\"demo\""));
        assert!(j.contains("\"columns\":[\"name\",\"value\"]"));
        assert!(j.contains("[\"b\",\"2\"]"));
    }

    #[test]
    fn engineering_notation() {
        assert_eq!(eng(65e-6, "W"), "65.000 µW");
        assert_eq!(eng(5.5e-3, "W"), "5.500 mW");
        assert_eq!(eng(1.6e-9, "J"), "1.600 nJ");
        assert_eq!(eng(100e6, "Hz"), "100.000 MHz");
        assert_eq!(eng(0.0, "A"), "0.000 A");
        assert_eq!(eng(2e-18, "J"), "2.000 aJ");
        assert_eq!(eng(1.5, "V"), "1.500 V");
    }
}
