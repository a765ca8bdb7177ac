//! Table formatting and persistence for the bench binaries.

use sb_metrics::escape_json;
use std::fs;
use std::path::Path;

/// A simple result table, printed as markdown and saved as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (printed above the table).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, one inner vector per row.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = format!("\n## {}\n\n", self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }

    /// Save as `results/<name>.csv` relative to `dir` (created on demand).
    /// Errors name the path that failed, not just the raw io error.
    pub fn save_csv(&self, dir: &Path, name: &str) -> Result<(), String> {
        let path = dir.join(format!("{name}.csv"));
        ensure_parent(&path)?;
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            out.push_str(&escaped.join(","));
            out.push('\n');
        }
        fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Save as `<dir>/<name>.json` (created on demand): the title plus one
    /// record per row, keyed by the column headers — the machine-readable
    /// twin of [`Table::save_csv`]. Errors name the path that failed.
    pub fn save_json(&self, dir: &Path, name: &str) -> Result<(), String> {
        self.save_json_extra(dir, name, &[])
    }

    /// [`Table::save_json`] with extra top-level fields appended after the
    /// title. Values are emitted verbatim (raw JSON), so callers can attach
    /// booleans or numbers — e.g. `("host_limited", "true")`.
    pub fn save_json_extra(
        &self,
        dir: &Path,
        name: &str,
        extra: &[(&str, String)],
    ) -> Result<(), String> {
        let path = dir.join(format!("{name}.json"));
        ensure_parent(&path)?;
        let records: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| format!("\"{}\":\"{}\"", escape_json(h), escape_json(c)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        let mut head = format!("\"title\":\"{}\"", escape_json(&self.title));
        for (k, v) in extra {
            head.push_str(&format!(",\"{}\":{v}", escape_json(k)));
        }
        let body = format!("{{{head},\"records\":[{}]}}\n", records.join(","));
        fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Print and save under `results/` in the current directory.
    pub fn emit(&self, name: &str) {
        self.print();
        if let Err(e) = self.save_csv(Path::new("results"), name) {
            eprintln!("warning: could not save results/{name}.csv: {e}");
        } else {
            println!("\n[saved results/{name}.csv]");
        }
        if let Err(e) = self.save_json(Path::new("results"), name) {
            eprintln!("warning: could not save results/{name}.json: {e}");
        } else {
            println!("[saved results/{name}.json]");
        }
    }
}

/// Create the parent directory of `path`, naming the directory in the error.
fn ensure_parent(path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
        }
    }
    Ok(())
}

/// Format milliseconds with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Format a speedup multiplier.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a speedup cell, refusing to present a clean multiplier when the
/// host had no real parallelism: every thread count ran on one core, so the
/// ratio measures pool overhead, not scaling.
pub fn fmt_speedup(x: f64, host_limited: bool) -> String {
    if host_limited {
        format!("{} (host-limited)", fmt_x(x))
    } else {
        fmt_x(x)
    }
}

/// Arithmetic mean (the paper's "average speedup"); `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "hello".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a | b"));
        assert!(md.contains("| 1 | hello |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_saving_escapes() {
        let dir = std::env::temp_dir().join("sb-bench-test-csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["va,l".into(), "pl\"ain".into()]);
        t.save_csv(&dir, "t").unwrap();
        let got = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(got, "a,b\n\"va,l\",\"pl\"\"ain\"\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_saving_keys_records_by_header() {
        let dir = std::env::temp_dir().join("sb-bench-test-json");
        let mut t = Table::new("Fig X — demo", &["graph", "ms"]);
        t.row(vec!["lp1".into(), "1.5".into()]);
        t.row(vec!["quo\"ted".into(), "2".into()]);
        t.save_json(&dir, "t").unwrap();
        let got = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert_eq!(
            got,
            "{\"title\":\"Fig X — demo\",\"records\":[\
             {\"graph\":\"lp1\",\"ms\":\"1.5\"},\
             {\"graph\":\"quo\\\"ted\",\"ms\":\"2\"}]}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_extra_fields_are_raw_values() {
        let dir = std::env::temp_dir().join("sb-bench-test-json-extra");
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        t.save_json_extra(&dir, "t", &[("host_limited", "true".into())])
            .unwrap();
        let got = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert_eq!(
            got,
            "{\"title\":\"T\",\"host_limited\":true,\"records\":[{\"a\":\"1\"}]}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn speedup_annotates_host_limited_hosts() {
        assert_eq!(fmt_speedup(2.5, false), "2.50x");
        assert_eq!(fmt_speedup(1.02, true), "1.02x (host-limited)");
    }

    #[test]
    fn save_creates_parents_and_errors_name_the_path() {
        let dir = std::env::temp_dir()
            .join("sb-bench-test-parents")
            .join("deep")
            .join("er");
        std::fs::remove_dir_all(std::env::temp_dir().join("sb-bench-test-parents")).ok();
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        t.save_csv(&dir, "t").unwrap();
        t.save_json(&dir, "t").unwrap();
        assert!(dir.join("t.csv").is_file());
        assert!(dir.join("t.json").is_file());

        // A file where a directory must go: both writers fail, and the
        // message carries the offending path so the user can act on it.
        let clash_root = std::env::temp_dir().join("sb-bench-test-parents-clash");
        std::fs::remove_dir_all(&clash_root).ok();
        std::fs::create_dir_all(&clash_root).unwrap();
        let file_as_dir = clash_root.join("not-a-dir");
        std::fs::write(&file_as_dir, "occupied").unwrap();
        let err = t.save_json(&file_as_dir, "t").unwrap_err();
        assert!(
            err.contains("not-a-dir"),
            "error should name the path, got: {err}"
        );
        let err = t.save_csv(&file_as_dir, "t").unwrap_err();
        assert!(err.contains("not-a-dir"), "got: {err}");
        std::fs::remove_dir_all(std::env::temp_dir().join("sb-bench-test-parents")).ok();
        std::fs::remove_dir_all(&clash_root).ok();
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(123.4), "123");
        assert_eq!(fmt_ms(12.34), "12.3");
        assert_eq!(fmt_ms(0.1234), "0.123");
        assert_eq!(fmt_x(2.5), "2.50x");
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }
}
