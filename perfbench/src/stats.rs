//! Percentiles that refuse to report a tail the sample cannot support.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The latency a failed, refused or timed-out operation enters the
/// percentiles with: past every real latency, so it misses any limit,
/// yet finite, so a run with many failures still reports (and its
/// `failed` count says why the tail reads one minute).
pub const FAILED_MS: f64 = 60_000.0;

fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// `q`-quantile of values that were rounded before we saw them (a batch
/// report prints `wall_ms` with 3, 1 or 0 decimals). Each sample stands
/// for a uniform spread over its rounding interval `value ± width/2`, and
/// the quantile is interpolated inside the interval holding rank `q·n`.
/// Nearest rank would snap to the rounding grid, so a 2 ms median could
/// only move in 5% steps. Same [`MIN_BEYOND`] rule as [`percentile`].
pub fn rounded_quantile(samples: &[(f64, f64)], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    rank(n, q)?;
    let pos = (q * n as f64).clamp(0.0, n as f64 - 1e-9);
    let at = pos as usize;
    let (value, width) = sorted[at];
    let lo = sorted.partition_point(|s| s.0 < value);
    let hi = sorted.partition_point(|s| s.0 <= value);
    let frac = (pos - lo as f64) / (hi - lo) as f64;
    Some(value - width / 2.0 + width * frac)
}

/// A report cell's value and the width of its rounding interval, read off
/// the number of decimals it was printed with.
pub fn rounded_cell(text: &str) -> Option<(f64, f64)> {
    let value: f64 = text.parse().ok()?;
    let decimals = text.split_once('.').map_or(0, |(_, frac)| frac.len());
    Some((value, 10f64.powi(-(decimals as i32))))
}

/// Median of a small set of run-level values (mean of the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().take(20) {
            *x = FAILED_MS;
        }
        assert_eq!(percentile(&v, 0.99), Some(FAILED_MS));
    }

    #[test]
    fn rounded_quantile_interpolates_inside_the_rounding_interval() {
        // 40 samples printed as 2.0 and 60 as 2.1 (width 0.1): the median
        // sits 10/60 of the way into the 2.1 interval [2.05, 2.15).
        let mut v = vec![(2.0, 0.1); 40];
        v.extend(vec![(2.1, 0.1); 60]);
        let m = rounded_quantile(&v, 0.5).unwrap();
        assert!((m - (2.05 + 0.1 * 10.0 / 60.0)).abs() < 1e-12, "{m}");
        // Shifting one sample across the boundary moves the estimate.
        v[40] = (2.0, 0.1);
        assert!(rounded_quantile(&v, 0.5).unwrap() < m);
        assert_eq!(rounded_quantile(&v[..15], 0.5), None);
    }

    #[test]
    fn rounded_cells_carry_their_print_precision() {
        assert_eq!(rounded_cell("0.439"), Some((0.439, 0.001)));
        assert_eq!(rounded_cell("2.5"), Some((2.5, 0.1)));
        assert_eq!(rounded_cell("581"), Some((581.0, 1.0)));
        assert_eq!(rounded_cell("-"), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
