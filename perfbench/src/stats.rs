//! Order statistics used by every report: nearest-rank percentiles
//! that carry the sample count they rest on.

use std::time::Duration;

/// One nearest-rank percentile and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p / 100 · n)`.
    pub value: f64,
    /// Number of samples `n`.
    pub samples: usize,
    /// Samples strictly above the chosen rank (`n − rank`): how many
    /// observations the tail estimate has beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile of `values` (any order): the smallest sample
/// such that at least `p` percent of all samples are at or below it.
/// `None` for an empty input.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 100]` or a value is NaN.
#[must_use]
pub fn nearest_rank(values: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile input holds no NaN"));
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Nearest-rank median; 0 for an empty input.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0).map_or(0.0, |p| p.value)
}

/// Durations as milliseconds, for the percentile helpers.
#[must_use]
pub fn as_ms(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank_and_counts_the_tail() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = nearest_rank(&values, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = nearest_rank(&values, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let max = nearest_rank(&values, 100.0).unwrap();
        assert_eq!((max.value, max.beyond), (1000.0, 0));
    }

    #[test]
    fn small_samples_clamp_to_existing_ranks() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        let one = nearest_rank(&[7.0], 1.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        // Four samples: p50 is rank 2, p99 is rank 4 (the maximum).
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(nearest_rank(&four, 50.0).unwrap().value, 2.0);
        assert_eq!(nearest_rank(&four, 99.0).unwrap().value, 4.0);
        assert_eq!(nearest_rank(&four, 99.0).unwrap().beyond, 0);
        assert_eq!(median(&four), 2.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
