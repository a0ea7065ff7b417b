//! Order statistics for the reported timings.

/// Median of `values` (the mean of the two middle values when the count
/// is even); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        // Five samples: p50 is the 3rd, p99 the 5th (rank ⌈4.95⌉).
        let w = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 50.0), 30);
        assert_eq!(percentile(&w, 99.0), 50);
        assert_eq!(percentile(&w, 20.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
