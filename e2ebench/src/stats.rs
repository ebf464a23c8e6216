//! Sample statistics and failure accounting.

use std::time::Duration;

/// Fewest samples that must lie beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles tried as the tail, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// Nearest-rank percentile of `samples` (`p` in 0..=100). `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` (to 0.1) in a sample of `n`,
/// in integer per-mille so that 99.9% of 10 000 is exactly 9990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The median (the mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, as `(percentile, value)`; `None` when the sample is too small for
/// any (fewer than 100 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n - rank(n.max(1), p) >= TAIL_BEYOND)
        .and_then(|&p| Some((p, percentile(samples, p)?)))
}

/// Durations as milliseconds.
pub fn millis(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Operations attempted and failed. An operation counts as failed when
/// it errors, is refused, or its output fails a check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted operation; `ok == false` also counts it as
    /// failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally (e.g. from a second client thread).
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
    }

    #[test]
    fn no_tail_below_ten_samples_beyond_p90() {
        for n in [0, 1, 11, 50, 99] {
            let s: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(tail(&s), None, "n = {n}");
        }
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s).map(|t| t.0), Some(90.0));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0)));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (3, 1));
        let mut u = Tally::default();
        u.record(false);
        t.add(u);
        assert_eq!((t.attempted, t.failed), (4, 2));
    }
}
