//! In-memory digest of a trace: the round-convergence quantities the
//! paper reasons about, computed once at end of run and cheap to attach
//! to `RunStats`.

use crate::TraceEvent;

/// Number of log2 buckets in the settled-per-round histogram. Bucket `i`
/// counts rounds that settled in `[2^(i-1), 2^i)` items (bucket 0 counts
/// zero-settled rounds).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Digest of the round records in one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total round records in the trace across every phase.
    pub total_rounds: u64,
    /// Rounds in the longest single phase — the synchronous depth the run
    /// had to wait through, i.e. "rounds to converge" in the paper's sense.
    pub rounds_to_converge: u64,
    /// Median round duration, microseconds.
    pub round_time_p50_us: u64,
    /// 95th-percentile round duration, microseconds.
    pub round_time_p95_us: u64,
    /// 99th-percentile round duration, microseconds.
    pub round_time_p99_us: u64,
    /// Slowest round, microseconds.
    pub round_time_max_us: u64,
    /// Log2 histogram of items settled per round: bucket `i` counts rounds
    /// that settled `[2^(i-1), 2^i)` items (bucket 0, zero-settled rounds).
    pub settled_histogram: [u64; HISTOGRAM_BUCKETS],
    /// `(phase name, rounds recorded in that phase)`, in first-appearance
    /// order.
    pub phase_rounds: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Compute the digest from raw trace events.
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut durations: Vec<u64> = Vec::new();
        let mut histogram = [0u64; HISTOGRAM_BUCKETS];
        for event in events {
            if let TraceEvent::Round { record, .. } = event {
                durations.push(record.duration_us);
                histogram[settled_bucket(record.settled)] += 1;
            }
        }
        let phase_rounds = crate::rounds_per_phase(events);
        let rounds_to_converge = phase_rounds.iter().map(|&(_, c)| c).max().unwrap_or(0);

        durations.sort_unstable();
        // Nearest-rank percentile: the smallest value with at least p of
        // the mass at or below it.
        let percentile = |p: f64| -> u64 {
            if durations.is_empty() {
                return 0;
            }
            let rank = (p * durations.len() as f64).ceil() as usize;
            durations[rank.clamp(1, durations.len()) - 1]
        };

        TraceSummary {
            total_rounds: durations.len() as u64,
            rounds_to_converge,
            round_time_p50_us: percentile(0.50),
            round_time_p95_us: percentile(0.95),
            round_time_p99_us: percentile(0.99),
            round_time_max_us: durations.last().copied().unwrap_or(0),
            settled_histogram: histogram,
            phase_rounds,
        }
    }

    /// Rounds recorded under `phase`, or 0 if the phase never ran.
    pub fn rounds_in_phase(&self, phase: &str) -> u64 {
        self.phase_rounds
            .iter()
            .find(|(name, _)| name == phase)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }

    /// One-line human rendering for CLI output.
    pub fn render_line(&self) -> String {
        let phases: Vec<String> = self
            .phase_rounds
            .iter()
            .map(|(name, c)| format!("{name}:{c}"))
            .collect();
        format!(
            "trace: {} rounds ({}), round time p50 {} us / p95 {} us / p99 {} us / max {} us",
            self.total_rounds,
            phases.join(" "),
            self.round_time_p50_us,
            self.round_time_p95_us,
            self.round_time_p99_us,
            self.round_time_max_us
        )
    }
}

/// Bucket index for a settled count: 0 for zero, else `log2(settled) + 1`,
/// clamped to the last bucket.
fn settled_bucket(settled: u64) -> usize {
    if settled == 0 {
        0
    } else {
        ((64 - settled.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    #[test]
    fn summary_over_two_phases() {
        let sink = TraceSink::enabled();
        let a = sink.begin_span("induced-solve").unwrap();
        for d in [10, 20, 30] {
            sink.record_round(1, 4, 0, 1, d, false);
        }
        sink.end_span(a, Default::default());
        let b = sink.begin_span("cross-solve").unwrap();
        sink.record_round(1, 0, 0, 1, 100, true);
        sink.end_span(b, Default::default());

        let s = sink.summary().unwrap();
        assert_eq!(s.total_rounds, 4);
        assert_eq!(s.rounds_to_converge, 3);
        assert_eq!(s.round_time_max_us, 100);
        assert_eq!(s.round_time_p50_us, 20);
        // Nearest-rank p99 over 4 samples is the maximum.
        assert_eq!(s.round_time_p99_us, 100);
        assert_eq!(s.rounds_in_phase("induced-solve"), 3);
        assert_eq!(s.rounds_in_phase("cross-solve"), 1);
        assert_eq!(s.rounds_in_phase("cleanup"), 0);
        // settled=4 lands in bucket log2(4)+1 = 3; settled=0 in bucket 0.
        assert_eq!(s.settled_histogram[3], 3);
        assert_eq!(s.settled_histogram[0], 1);
        assert!(s.render_line().contains("induced-solve:3"));
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s.total_rounds, 0);
        assert_eq!(s.rounds_to_converge, 0);
        assert_eq!(s.round_time_p95_us, 0);
        assert_eq!(s.round_time_p99_us, 0);
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(settled_bucket(0), 0);
        assert_eq!(settled_bucket(1), 1);
        assert_eq!(settled_bucket(2), 2);
        assert_eq!(settled_bucket(3), 2);
        assert_eq!(settled_bucket(4), 3);
        assert_eq!(settled_bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
