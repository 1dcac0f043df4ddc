//! Latency percentiles under the ten-samples-beyond rule.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), reported only if
/// at least `min_beyond` samples lie above the chosen rank. A failed
/// call enters as `f64::INFINITY`, so it misses every latency limit.
pub fn percentile(sorted: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest sample count for which `percentile` is defined.
    fn min_samples(q: f64, min_beyond: usize) -> usize {
        (1..)
            .find(|&n| percentile(&ramp(n), q, min_beyond).is_some())
            .expect("some sample count satisfies the rule")
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(min_samples(0.99, MIN_BEYOND), 1000);
        assert_eq!(percentile(&ramp(999), 0.99, MIN_BEYOND), None);
        // 1000 samples: rank 990, and 991..=1000 are the ten beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99, MIN_BEYOND), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99, MIN_BEYOND), Some(1980.0));
    }

    #[test]
    fn p50_rule_and_failures() {
        assert_eq!(min_samples(0.5, MIN_BEYOND), 20);
        assert_eq!(percentile(&ramp(19), 0.5, MIN_BEYOND), None);
        assert_eq!(percentile(&ramp(20), 0.5, MIN_BEYOND), Some(10.0));
        // Failed calls sort last as infinite latencies.
        let mut v = ramp(990);
        v.extend(std::iter::repeat_n(f64::INFINITY, 20));
        assert_eq!(percentile(&v, 0.99, MIN_BEYOND), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 0.5, MIN_BEYOND), Some(505.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
