//! Figure reports as data: renderers build a [`Report`] (header, tables,
//! free-form note lines) and the harness either prints it
//! (`gsuite-cli run-scenario`) or snapshots it for the golden-profile
//! regression suite.

use gsuite_profile::TextTable;

use crate::opts::BenchOpts;

/// One element of a rendered report.
#[derive(Debug, Clone)]
pub enum ReportItem {
    /// The standard reproducibility header (`=== gSuite-rs :: ...`).
    Header {
        /// Figure name, e.g. `"Fig. 3"`.
        figure: String,
        /// One-line description.
        description: String,
    },
    /// A named, titled table (the name keys the optional CSV file).
    Table {
        /// CSV/golden key, e.g. `"fig3_gcn"`.
        name: String,
        /// Printed title.
        title: String,
        /// The rendered table.
        table: TextTable,
    },
    /// One verbatim output line (the figures' shape-check trailers).
    Note(String),
}

impl ReportItem {
    /// The item's text: the header and each table end with a blank line.
    fn render(&self, opts: &BenchOpts) -> String {
        match self {
            ReportItem::Header {
                figure,
                description,
            } => format!("{}\n\n", opts.header_text(figure, description)),
            ReportItem::Table { title, table, .. } => {
                format!("## {title}\n\n{}\n", table.render())
            }
            ReportItem::Note(line) => format!("{line}\n"),
        }
    }
}

/// An ordered report — what one scenario prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Items in print order.
    pub items: Vec<ReportItem>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends the standard header.
    pub fn header(&mut self, figure: impl Into<String>, description: impl Into<String>) {
        self.items.push(ReportItem::Header {
            figure: figure.into(),
            description: description.into(),
        });
    }

    /// Appends a titled table.
    pub fn table(&mut self, name: impl Into<String>, title: impl Into<String>, table: TextTable) {
        self.items.push(ReportItem::Table {
            name: name.into(),
            title: title.into(),
            table,
        });
    }

    /// Appends one verbatim line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.items.push(ReportItem::Note(line.into()));
    }

    /// Renders the report to text exactly as `emit` prints it (without
    /// `[csv]` side-effect lines) — the golden-profile snapshot format.
    pub fn render(&self, opts: &BenchOpts) -> String {
        self.items.iter().map(|item| item.render(opts)).collect()
    }

    /// Prints the report to stdout and, with `--csv`, writes each table as
    /// `<name>.csv`, announcing each file on its own `[csv]` line after
    /// the table.
    pub fn emit(&self, opts: &BenchOpts) {
        for item in &self.items {
            print!("{}", item.render(opts));
            if let (ReportItem::Table { name, table, .. }, Some(dir)) = (item, &opts.csv_dir) {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = dir.join(format!("{name}.csv"));
                gsuite_profile::write_csv(table, &path).expect("write csv");
                println!("[csv] {}", path.display());
            }
        }
    }

    /// The tables of the report, in order (name, title, table).
    pub fn tables(&self) -> impl Iterator<Item = (&str, &str, &TextTable)> {
        self.items.iter().filter_map(|i| match i {
            ReportItem::Table { name, title, table } => {
                Some((name.as_str(), title.as_str(), table))
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_print_format() {
        let mut r = Report::new();
        r.header("Fig. X", "demo");
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1", "2"]);
        r.table("x_t", "Demo table", t);
        r.note("trailer line");
        let opts = BenchOpts::quick();
        let s = r.render(&opts);
        assert!(s.starts_with("=== gSuite-rs :: Fig. X — demo\nmode=quick | scales: "));
        assert!(s.contains("\n\n## Demo table\n\n"));
        // Table render ends with \n, emit adds a blank line after it.
        assert!(s.contains("1  2\n\ntrailer line\n"));
        assert_eq!(r.tables().count(), 1);
    }
}
