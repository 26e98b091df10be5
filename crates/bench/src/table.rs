//! The one result shape every experiment returns: a titled table of typed
//! cells, printed as markdown by its `Display` impl.

use std::fmt;

/// What a number in a [`Cell`] measures; `Display` writes the suffix
/// printed after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count.
    Count,
    /// A count of named things, e.g. `3 missing-fence`.
    Of(&'static str),
    /// Simulated nanoseconds.
    Ns,
    /// Simulated microseconds.
    Us,
    /// Simulated milliseconds.
    Ms,
    /// Mebibytes.
    MiB,
    /// Thousands of operations per simulated second.
    KopsPerSec,
    /// A ratio of two measurements, e.g. `2.90x`.
    Ratio,
    /// A percentage, already multiplied by 100.
    Percent,
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Count => Ok(()),
            Unit::Of(name) => write!(f, " {name}"),
            Unit::Ns => f.write_str(" ns"),
            Unit::Us => f.write_str(" us"),
            Unit::Ms => f.write_str(" ms"),
            Unit::MiB => f.write_str(" MiB"),
            Unit::KopsPerSec => f.write_str(" kops/s"),
            Unit::Ratio => f.write_str("x"),
            Unit::Percent => f.write_str("%"),
        }
    }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A number, unrounded, with the digits after the point it is printed
    /// with and its unit.
    Num(f64, usize, Unit),
    /// A number printed without its unit, in a column whose header names
    /// it.
    Bare(f64, usize, Unit),
    /// Several cells in one, printed comma-separated.
    List(Vec<Cell>),
}

impl Cell {
    /// A label.
    pub fn text(text: impl Into<String>) -> Self {
        Cell::Text(text.into())
    }

    /// A plain count.
    pub fn count(n: u64) -> Self {
        Cell::Num(n as f64, 0, Unit::Count)
    }

    /// The number in this cell, if it holds one.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Num(value, ..) | Cell::Bare(value, ..) => Some(*value),
            _ => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Num(value, precision, unit) => write!(f, "{value:.precision$}{unit}"),
            Cell::Bare(value, precision, _) => write!(f, "{value:.precision$}"),
            Cell::List(cells) => {
                let cells: Vec<String> = cells.iter().map(Cell::to_string).collect();
                f.write_str(&cells.join(", "))
            }
        }
    }
}

/// The result of one experiment: a title, the column headers, and one row
/// of cells per line of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table or figure of the paper it reproduces, and what it shows.
    pub title: &'static str,
    /// Column headers.
    pub columns: &'static [&'static str],
    /// The rows, each as wide as `columns`.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with no rows yet.
    pub fn new(title: &'static str, columns: &'static [&'static str]) -> Self {
        Self {
            title,
            columns,
            rows: Vec::new(),
        }
    }
}

impl fmt::Display for Table {
    /// Markdown: a blank line, the `##` title, a blank line, the header,
    /// its rule and the rows.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n## {}\n", self.title)?;
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        writeln!(f, "|{}|", vec!["---"; self.columns.len()].join("|"))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::to_string).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}
