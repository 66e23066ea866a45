//! Order statistics over per-op samples.

/// Fewest ops a run may hold: at 100 samples the nearest-rank p90 still
/// leaves ten samples above it.
pub const MIN_OPS: usize = 100;

/// Nearest-rank index (0-based) of the `pct`-th percentile of `n`
/// sorted samples: the smallest rank covering `pct` percent of them.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n) - 1
}

/// The nearest-rank `pct`-th percentile of `samples` (any order).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct)]
}

/// The median of `samples`, averaging the middle pair of an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples that lie strictly beyond the nearest-rank `pct`-th percentile.
    fn beyond(n: usize, pct: usize) -> usize {
        n - 1 - rank(n, pct)
    }

    #[test]
    fn p90_leaves_ten_samples_beyond_it_from_min_ops_up() {
        for n in MIN_OPS..=1000 {
            assert!(beyond(n, 90) >= 10, "n = {n}: {} beyond p90", beyond(n, 90));
        }
        assert_eq!(beyond(MIN_OPS, 90), 10);
        assert!(
            beyond(MIN_OPS - 1, 90) < 10,
            "MIN_OPS is the smallest count that works"
        );
    }

    #[test]
    fn percentile_counts_samples_above_it() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&samples, 90);
        assert_eq!(p90, 90.0);
        assert_eq!(
            samples.iter().filter(|&&s| s > p90).count(),
            beyond(100, 90)
        );
        assert_eq!(percentile(&samples, 50), 50.0);
        assert_eq!(percentile(&samples, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
