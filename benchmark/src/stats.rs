//! The benchmark's own arithmetic: medians, exact percentiles and the
//! quartile spread the acceptance rule is stated in.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` of the sample at or below it. Exact — no bins.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 1]`.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 1.0, "percentile rank must be in (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile — what says
/// whether a tail percentile is supported by the sample.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len.saturating_sub((p * len as f64).ceil() as usize)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread as a share of the median: the inter-quartile
/// distance from four values up, the full range below that (three runs
/// have no quartiles worth the name), zero for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values).abs();
    if med == 0.0 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let (q1, q3) = quartiles(values).expect("four values have quartiles");
        q3 - q1
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    width / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        // Five 2 s windows, one of them descheduled: the median rate is
        // a real window's rate, not an average dragged down by it.
        let rates = [301_000.0, 298_500.0, 120_000.0, 300_200.0, 299_900.0];
        assert_eq!(median(&rates), 299_900.0);
    }

    #[test]
    fn percentiles_are_nearest_rank_and_exact() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 0.999), 100);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[42], 0.5), 42);
        // A percentile is always one of the samples.
        let t = [10, 20, 30, 1_000];
        assert_eq!(percentile(&t, 0.5), 20);
        assert_eq!(percentile(&t, 0.75), 30);
        assert_eq!(percentile(&t, 0.76), 1_000);
    }

    #[test]
    fn tail_support_counts_samples_beyond_the_rank() {
        assert_eq!(samples_beyond(100_000, 0.99), 1_000);
        assert_eq!(samples_beyond(100, 0.999), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_from_four_runs_and_range_below() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert!((spread(&[100.0, 110.0, 90.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
