//! Tabular report rendering: aligned plain-text and Markdown tables, used
//! to present experiment results consistently.

use std::fmt::Write as _;

/// A simple column-oriented table builder.
///
/// # Example
///
/// ```
/// use advhunter::report::Table;
///
/// let mut t = Table::new(&["event", "accuracy", "F1"]);
/// t.row(&["cache-misses", "94.6%", "0.9577"]);
/// t.row(&["branches", "33.5%", "0.0177"]);
/// let text = t.to_text();
/// assert!(text.contains("cache-misses"));
/// let md = t.to_markdown();
/// assert!(md.starts_with("| event"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders as aligned plain text (first column left-aligned, the rest
    /// right-aligned — the convention used for numbers).
    pub fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let render = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                let w = *w;
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        render(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavored Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha", "1.0"]);
        t.row(&["beta, the second", "2.5"]);
        t
    }

    #[test]
    fn text_aligns_columns() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width (right-aligned numeric column).
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("alpha"));
    }

    #[test]
    fn markdown_has_separator_row() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }
}
