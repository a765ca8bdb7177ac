//! Batch reports: the cached-vs-fresh wall-clock table and its JSON twin
//! (`results/BENCH_engine.json`).

use crate::batch::{JobOutcome, JobRecord};
use crate::cache::CacheStats;
use sb_metrics::escape_json;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Column keys of every record in the report, in order. Pinned by the
/// golden tests: changing this is a schema change.
pub const RECORD_KEYS: [&str; 12] = [
    "job",
    "graph",
    "config",
    "seed",
    "outcome",
    "decomp",
    "decompose_ms",
    "solve_ms",
    "wall_ms",
    "fresh_wall_ms",
    "speedup",
    "detail",
];

/// Title written to the JSON report.
pub const REPORT_TITLE: &str = "Engine batch — cached vs fresh wall-clock";

/// The result of one batch run (see [`crate::batch`]).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Graph-cache counters at the end of the batch.
    pub graph_cache: CacheStats,
    /// Decomposition-cache counters at the end of the batch.
    pub decomp_cache: CacheStats,
    /// Wall clock of the whole batch.
    pub total_wall_ms: f64,
    /// Wall clock of the cache-disabled reference batch, when
    /// [`crate::run_batch_compare`] ran one.
    pub fresh_total_wall_ms: Option<f64>,
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

impl BatchReport {
    /// True when every job finished `ok`.
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.outcome == JobOutcome::Ok)
    }

    /// Sum of per-job wall clocks in the cached run.
    pub fn cached_job_ms(&self) -> f64 {
        self.jobs.iter().map(|j| j.wall_ms).sum()
    }

    /// Sum of per-job wall clocks in the fresh reference run, when known.
    pub fn fresh_job_ms(&self) -> Option<f64> {
        self.jobs.iter().map(|j| j.fresh_wall_ms).sum()
    }

    /// Batch speedup of cached over fresh (fresh ÷ cached job time), when a
    /// comparison ran and the cached time is nonzero.
    pub fn speedup(&self) -> Option<f64> {
        let cached = self.cached_job_ms();
        let fresh = self.fresh_job_ms()?;
        (cached > 0.0).then(|| fresh / cached)
    }

    fn record_cells(job: &JobRecord) -> Vec<String> {
        let speedup = match (job.fresh_wall_ms, job.wall_ms) {
            (Some(f), w) if w > 0.0 => format!("{:.2}x", f / w),
            _ => "-".into(),
        };
        vec![
            job.label.clone(),
            job.graph.clone(),
            job.config.clone(),
            job.seed.to_string(),
            job.outcome.label().to_string(),
            match job.decomp_cached {
                Some(true) => "cached".into(),
                Some(false) => "fresh".into(),
                None => "-".into(),
            },
            fmt_ms(job.decompose_ms),
            fmt_ms(job.solve_ms),
            fmt_ms(job.wall_ms),
            job.fresh_wall_ms.map_or_else(|| "-".into(), fmt_ms),
            speedup,
            job.detail.clone(),
        ]
    }

    fn total_cells(&self) -> Vec<String> {
        let cached = self.cached_job_ms();
        let fresh = self.fresh_job_ms();
        vec![
            "TOTAL".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            if self.all_ok() {
                "ok".into()
            } else {
                "partial".into()
            },
            "-".into(),
            fmt_ms(self.jobs.iter().map(|j| j.decompose_ms).sum()),
            fmt_ms(self.jobs.iter().map(|j| j.solve_ms).sum()),
            fmt_ms(cached),
            fresh.map_or_else(|| "-".into(), fmt_ms),
            self.speedup()
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            format!(
                "graph cache {}h/{}m, decomp cache {}h/{}m",
                self.graph_cache.hits,
                self.graph_cache.misses,
                self.decomp_cache.hits,
                self.decomp_cache.misses
            ),
        ]
    }

    /// All rows (one per job plus the TOTAL row), each aligned with
    /// [`RECORD_KEYS`].
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self.jobs.iter().map(Self::record_cells).collect();
        rows.push(self.total_cells());
        rows
    }

    /// One cache's counters as the flat `"key":"value"` JSON object the
    /// report embeds under `"graph_cache"` / `"decomp_cache"` — all values
    /// strings, like every other report cell.
    fn cache_json(stats: &CacheStats) -> String {
        format!(
            "{{\"hits\":\"{}\",\"misses\":\"{}\",\"evictions\":\"{}\",\"inserts\":\"{}\",\"hit_rate\":\"{}\"}}",
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.inserts,
            escape_json(&stats.hit_rate_label())
        )
    }

    /// Human cache summary appended below the markdown table.
    fn cache_lines(&self) -> String {
        let line = |name: &str, s: &CacheStats| {
            format!(
                "- {name} cache: {} hits / {} misses ({} hit rate), {} inserts, {} evictions\n",
                s.hits,
                s.misses,
                s.hit_rate_label(),
                s.inserts,
                s.evictions
            )
        };
        let mut out = String::new();
        out.push_str(&line("graph", &self.graph_cache));
        out.push_str(&line("decomp", &self.decomp_cache));
        out
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let headers: Vec<String> = RECORD_KEYS.iter().map(|k| k.to_string()).collect();
        let rows = self.rows();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
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
        let mut out = format!("\n## {REPORT_TITLE}\n\n");
        out.push_str(&fmt_row(&headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&self.cache_lines());
        out
    }

    /// Save as JSON at `path` — the same `{"title", "records": [...]}`
    /// shape the bench tables use, so downstream tooling reads both.
    /// Parent directories are created; errors carry the offending path.
    pub fn save_json(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create directory {}: {e}", parent.display()))?;
        }
        let mut f =
            fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let records: Vec<String> = self
            .rows()
            .iter()
            .map(|row| {
                let fields: Vec<String> = RECORD_KEYS
                    .iter()
                    .zip(row)
                    .map(|(k, c)| format!("\"{}\":\"{}\"", escape_json(k), escape_json(c)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        writeln!(
            f,
            "{{\"title\":\"{}\",\"records\":[{}],\"graph_cache\":{},\"decomp_cache\":{}}}",
            escape_json(REPORT_TITLE),
            records.join(","),
            Self::cache_json(&self.graph_cache),
            Self::cache_json(&self.decomp_cache)
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, wall: f64, fresh: Option<f64>) -> JobRecord {
        JobRecord {
            label: label.into(),
            graph: "gen:lp1@0.2#42".into(),
            config: "mm-rand:10@cpu/compact".into(),
            seed: 42,
            outcome: JobOutcome::Ok,
            detail: "matching of 3 edges".into(),
            graph_cached: false,
            decomp_cached: Some(false),
            decompose_ms: 1.0,
            solve_ms: 2.0,
            wall_ms: wall,
            fresh_wall_ms: fresh,
            solution: None,
            fingerprint: None,
        }
    }

    fn report() -> BatchReport {
        BatchReport {
            jobs: vec![record("a", 10.0, Some(30.0)), record("b", 10.0, Some(10.0))],
            graph_cache: CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                inserts: 1,
            },
            decomp_cache: CacheStats::default(),
            total_wall_ms: 20.0,
            fresh_total_wall_ms: Some(40.0),
        }
    }

    #[test]
    fn speedup_is_fresh_over_cached() {
        assert_eq!(report().speedup(), Some(2.0));
        let mut r = report();
        r.jobs[0].fresh_wall_ms = None;
        assert_eq!(r.speedup(), None, "partial comparisons have no speedup");
    }

    #[test]
    fn rows_align_with_record_keys() {
        let r = report();
        for row in r.rows() {
            assert_eq!(row.len(), RECORD_KEYS.len());
        }
        let md = r.render_markdown();
        assert!(md.contains("## Engine batch"));
        assert!(md.contains("| a "));
        assert!(md.contains("TOTAL"));
        assert!(md.contains("3.00x"), "per-job speedup column: {md}");
        assert!(
            md.contains("graph cache: 2 hits / 1 misses (66.7% hit rate), 1 inserts, 0 evictions"),
            "cache summary lines: {md}"
        );
        assert!(md.contains("decomp cache: 0 hits / 0 misses (- hit rate)"));
    }

    #[test]
    fn json_carries_cache_sections_with_hit_rates() {
        let dir = std::env::temp_dir().join("sb-engine-test-report-caches");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("BENCH_engine.json");
        report().save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(
            "\"graph_cache\":{\"hits\":\"2\",\"misses\":\"1\",\"evictions\":\"0\",\
             \"inserts\":\"1\",\"hit_rate\":\"66.7%\"}"
        ));
        assert!(text.contains("\"decomp_cache\":{\"hits\":\"0\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_json_creates_parents_and_names_path_on_error() {
        let dir = std::env::temp_dir().join("sb-engine-test-report/nested");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
        let path = dir.join("BENCH_engine.json");
        report().save_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"title\":\"Engine batch"));
        assert!(text.contains("\"job\":\"a\""));
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();

        // A directory in place of the file: the error must name the path.
        let clash = std::env::temp_dir().join("sb-engine-test-report-clash");
        std::fs::create_dir_all(&clash).unwrap();
        let e = report().save_json(&clash).unwrap_err();
        assert!(e.contains("sb-engine-test-report-clash"), "{e}");
        std::fs::remove_dir_all(&clash).ok();
    }
}
