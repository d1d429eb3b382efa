//! Order statistics for the reported metrics.

/// Percentiles the tail metric may be reported at, highest first.
const TAIL_LADDER: [u32; 5] = [99, 98, 95, 90, 75];

/// Median of `values` (mean of the two middle samples for an even
/// count). Panics on an empty slice: every caller reports a measured
/// quantity, and an empty sample set is a bug in the run, not a value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `values`.
pub fn percentile(values: &[f64], q: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q as usize * sorted.len())
        .div_ceil(100)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; `None` when even p75 has fewer (the caller
/// then reports the worst sample).
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|q| n * (100 - *q as usize) / 100 >= 10)
}

/// The tail of a latency sample: the value at [`tail_percentile`], or
/// the maximum when the sample is too small for any ladder rung.
pub fn tail(values: &[f64]) -> f64 {
    match tail_percentile(values.len()) {
        Some(q) => percentile(values, q),
        None => values.iter().copied().fold(f64::MIN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples: p99 leaves 9, p98 leaves 19.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(499), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_insensitive() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn small_samples_report_their_worst_value_as_tail() {
        assert_eq!(tail(&[1.0, 9.0, 3.0]), 9.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
    }
}
