//! Text-table rendering for the figure binaries.

use errflow_obs::json::JsonWriter;

/// A printable, column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the table with its title prefixed by `prefix — `.
    pub fn with_title_prefix(mut self, prefix: &str) -> Table {
        self.title = format!("{prefix} — {}", self.title);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout, and — when `ERRFLOW_JSON_DIR`
    /// is set — also writes the table as JSON into that directory (one file
    /// per table, named from the slugified title).
    pub fn print(&self) {
        println!("{}", self.render());
        if let Ok(dir) = std::env::var("ERRFLOW_JSON_DIR") {
            let path = std::path::Path::new(&dir).join(format!("{}.json", self.slug()));
            if let Err(e) = std::fs::write(&path, self.to_json()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }

    /// Machine-readable form: `{"title", "headers", "rows"}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("title").str(&self.title);
        w.key("headers").begin_array();
        for h in &self.headers {
            w.str(h);
        }
        w.end_array().key("rows").begin_array();
        for row in &self.rows {
            w.begin_array();
            for cell in row {
                w.str(cell);
            }
            w.end_array();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Filesystem-safe slug of the title.
    fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }
}

/// Scientific notation with 3 significant digits (`1.23e-4`).
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v:.2e}")
    }
}

/// Fixed-point with 2 decimals (throughputs, ratios).
pub fn fixed(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["333".into(), "4".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long_header"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new("Fig. 9 — demo (L∞)", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["x\"y".into(), "".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"Fig. 9 — demo (L∞)\",\"headers\":[\"a\",\"b\"],\
             \"rows\":[[\"1\",\"2\"],[\"x\\\"y\",\"\"]]}"
        );
        assert_eq!(t.slug(), "fig_9_demo_l");
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(1.234e-4), "1.23e-4");
        assert_eq!(sci(f64::INFINITY), "inf");
    }

    #[test]
    fn fixed_formatting() {
        assert_eq!(fixed(3.14159), "3.14");
    }
}
