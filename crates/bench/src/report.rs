//! Tables whose cells keep their number.
//!
//! An experiment returns [`Table`]s; `repro` prints them as aligned text,
//! writes them into `EXPERIMENTS.json`, and hands them to
//! [`crate::checks`].  A [`Cell`] is formatted only when it is printed, so
//! the predicates and the JSON read the `f64` the experiment computed, not
//! its three printed digits.

use errflow_obs::json::JsonWriter;
use std::fmt;

/// One table cell: a label, or a number with the way it prints.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (task, backend, format, layer, feature index).
    Text(String),
    /// Printed in scientific notation with 3 significant digits (`1.23e-4`).
    Sci(f64),
    /// Printed fixed-point with 2 decimals (throughputs, ratios).
    Fixed(f64),
}

/// A [`Cell::Sci`] cell.
pub fn sci(v: f64) -> Cell {
    Cell::Sci(v)
}

/// A [`Cell::Fixed`] cell.
pub fn fixed(v: f64) -> Cell {
    Cell::Fixed(v)
}

impl Cell {
    /// The cell's number; `None` for a label.
    pub fn num(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Sci(v) | Cell::Fixed(v) => Some(v),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.pad(s),
            Cell::Sci(v) if *v == 0.0 => f.pad("0"),
            Cell::Sci(v) if v.is_infinite() => f.pad("inf"),
            Cell::Sci(v) => f.pad(&format!("{v:.2e}")),
            Cell::Fixed(v) => f.pad(&format!("{v:.2}")),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

/// A titled table with named columns.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a table from its title and its header line: the column
    /// names, separated by whitespace as they print.
    pub fn new(title: impl Into<String>, headers: &str) -> Self {
        Table {
            title: title.into(),
            headers: headers.split_whitespace().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Index of the column named `header`, if the table has one.
    pub fn col(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }

    /// One row as `header=value` pairs, the way a failed predicate cites it.
    pub fn describe(&self, row: &[Cell]) -> String {
        let pairs: Vec<String> = self
            .headers
            .iter()
            .zip(row)
            .map(|(h, c)| format!("{h}={c}"))
            .collect();
        format!("[{}] {}", self.title, pairs.join(" "))
    }

    /// Renders the table as aligned text under a `## title` line.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("## {}\n{}\n", self.title, line(&self.headers));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &cells {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Writes `{"title", "headers", "rows"}` as the writer's next value;
    /// numeric cells are JSON numbers at full precision.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("title").str(&self.title);
        w.key("headers").begin_array();
        for h in &self.headers {
            w.str(h);
        }
        w.end_array().key("rows").begin_array();
        for row in &self.rows {
            w.begin_array();
            for cell in row {
                match cell {
                    Cell::Text(s) => w.str(s),
                    Cell::Sci(v) | Cell::Fixed(v) => w.f64(*v),
                };
            }
            w.end_array();
        }
        w.end_array().end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", "a long_header");
        t.push(vec!["1".into(), sci(2.0)]);
        t.push(vec!["333".into(), fixed(4.0)]);
        assert_eq!(
            t.render(),
            "## demo\n  a  long_header\n----------------\n  1       2.00e0\n333         4.00\n"
        );
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.col("long_header"), Some(1));
        assert_eq!(t.describe(&t.rows()[1]), "[demo] a=333 long_header=4.00");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", "a b");
        t.push(vec!["1".into()]);
    }

    #[test]
    fn json_cells_are_numbers_at_full_precision() {
        let mut t = Table::new("Fig. 9 — demo (L∞)", "a b c");
        t.push(vec!["x\"y".into(), sci(1.23456789e-4), fixed(0.125)]);
        t.push(vec!["7".into(), sci(f64::INFINITY), fixed(2.0)]);
        let mut w = JsonWriter::new();
        t.write_json(&mut w);
        assert_eq!(
            w.finish(),
            "{\"title\":\"Fig. 9 — demo (L∞)\",\"headers\":[\"a\",\"b\",\"c\"],\
             \"rows\":[[\"x\\\"y\",0.000123456789,0.125],[\"7\",null,2]]}"
        );
    }

    #[test]
    fn cells_print_three_digits_and_keep_their_number() {
        assert_eq!(sci(0.0).to_string(), "0");
        assert_eq!(sci(1.234e-4).to_string(), "1.23e-4");
        assert_eq!(sci(f64::INFINITY).to_string(), "inf");
        assert_eq!(fixed(14.368).to_string(), "14.37");
        assert_eq!(sci(1.234e-4).num(), Some(1.234e-4));
        assert_eq!(Cell::from("fp16").num(), None);
    }
}
