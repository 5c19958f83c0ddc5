//! Plain-text and CSV report rendering (no external dependencies).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish; quotes cells containing commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `content` under `dir/name`, creating the directory if needed.
pub fn write_output(dir: &Path, name: &str, content: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(name))?;
    f.write_all(content.as_bytes())
}

/// Renders an ASCII heatmap: rows × cols of values in `[0, 1]` mapped onto
/// a density ramp (dark = low, bright = high).
pub(crate) fn ascii_heatmap(values: &[Vec<f64>], row_labels: &[String], col_title: &str) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    let label_w = row_labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let _ = writeln!(out, "{:label_w$}  {}", "", col_title);
    for (row, label) in values.iter().zip(row_labels) {
        let cells: String = row
            .iter()
            .map(|&v| {
                let v = v.clamp(0.0, 1.0);
                let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                RAMP[idx] as char
            })
            .collect();
        let _ = writeln!(out, "{label:>label_w$} |{cells}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["P", "time"]);
        t.row(vec!["16", "9.2"]);
        t.row(vec!["1024", "11.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('P') && lines[0].contains("time"));
        assert!(lines[2].trim_start().starts_with("16"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["1"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["name", "v"]);
        t.row(vec!["a,b", "1"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",1"));
    }

    #[test]
    fn heatmap_maps_extremes() {
        let v = vec![vec![0.0, 1.0]];
        let s = ascii_heatmap(&v, &["row".into()], "cols");
        assert!(s.contains('@'));
        assert!(s.contains(' '));
    }

    #[test]
    fn write_output_creates_files() {
        let dir = std::env::temp_dir().join("borg-exp-test");
        write_output(&dir, "x.csv", "a,b\n").unwrap();
        let read = std::fs::read_to_string(dir.join("x.csv")).unwrap();
        assert_eq!(read, "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
