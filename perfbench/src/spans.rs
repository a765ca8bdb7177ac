//! The benchmark's own trace: spans kept in memory during a traced run and
//! written out at the end. Child spans are rebuilt from what the program
//! reports (per-job report cells and `--trace-dir` records; per-response
//! `queue_ms`/`wall_ms`/`decompose_ms`/`solve_ms`), never from tracing
//! added inside the program.

use std::collections::BTreeMap;
use std::io::Write;

/// One timed interval, in microseconds on the owning operation's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The operation (batch pass or serve request) this span belongs to.
    pub op: String,
    /// Layer that owns the span's self time.
    pub layer: String,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        parent: Option<usize>,
        op: &str,
        layer: &str,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op: op.to_string(),
            layer: layer.to_string(),
            start_us,
            end_us: end_us.max(start_us),
        });
        id
    }

    /// Self time per layer in milliseconds, and the total duration of the
    /// root spans. A span's self time is its duration minus the part of it
    /// that the union of its children covers, so overlapping children are
    /// not subtracted twice and the part of a child outside its parent is
    /// not subtracted at all. The per-layer totals therefore sum to the
    /// root total exactly when children nest inside their parents without
    /// overlapping; any difference is the residual.
    pub fn self_times(&self) -> (BTreeMap<String, f64>, f64) {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        let mut root_us = 0.0;
        for s in &self.spans {
            match s.parent {
                Some(p) => children[p].push((s.start_us, s.end_us)),
                None => root_us += s.end_us - s.start_us,
            }
        }
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let own = self_time((s.start_us, s.end_us), kids);
            *layers.entry(s.layer.clone()).or_default() += own / 1e3;
        }
        (layers, root_us / 1e3)
    }

    /// Write the spans as JSONL.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                crate::json::escape(&s.op),
                crate::json::escape(&s.layer),
                s.start_us,
                s.end_us
            )?;
        }
        w.flush()
    }
}

/// Length of `parent` not covered by the union of `children`.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlapping_children_once() {
        // [10,30) and [20,40) overlap: together they cover [10,40).
        assert_eq!(self_time((0.0, 100.0), &[(10.0, 30.0), (20.0, 40.0)]), 70.0);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0.0, 100.0), &[(10.0, 60.0), (20.0, 30.0)]), 50.0);
        // Disjoint children add up; a child poking outside is clipped.
        assert_eq!(
            self_time((0.0, 100.0), &[(0.0, 10.0), (50.0, 60.0), (95.0, 130.0)]),
            75.0
        );
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(20.0, 30.0)]), 10.0);
    }

    #[test]
    fn layer_self_times_sum_to_the_root_when_children_nest() {
        let mut log = SpanLog::default();
        let root = log.push(None, "r1", "residual", 0.0, 10_000.0);
        let job = log.push(Some(root), "r1", "engine", 1_000.0, 9_000.0);
        log.push(Some(job), "r1", "decompose", 2_000.0, 3_000.0);
        log.push(Some(job), "r1", "core", 3_000.0, 7_000.0);
        let (layers, root_ms) = log.self_times();
        assert_eq!(root_ms, 10.0);
        assert_eq!(layers["residual"], 2.0);
        assert_eq!(layers["engine"], 3.0);
        assert_eq!(layers["decompose"], 1.0);
        assert_eq!(layers["core"], 4.0);
        assert_eq!(layers.values().sum::<f64>(), root_ms);
    }

    #[test]
    fn overlapping_siblings_show_up_as_a_negative_residual() {
        let mut log = SpanLog::default();
        let root = log.push(None, "r", "wire", 0.0, 10_000.0);
        log.push(Some(root), "r", "queue", 0.0, 6_000.0);
        log.push(Some(root), "r", "engine", 5_000.0, 10_000.0);
        let (layers, root_ms) = log.self_times();
        let claimed: f64 = layers.values().sum();
        assert_eq!(layers["wire"], 0.0);
        assert_eq!(root_ms - claimed, -1.0);
    }
}
