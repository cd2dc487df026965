//! Sample statistics: the median and the percentile rule.

/// Samples that must lie beyond a tail percentile before it is printed.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule;
/// `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median — always reported, whatever the sample size.
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// A tail percentile under the reporting rule: printed only when at least
/// [`MIN_BEYOND`] samples lie beyond it, `None` otherwise.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    let beyond = sorted.len().saturating_sub(rank);
    if beyond >= MIN_BEYOND {
        quantile(sorted, q)
    } else {
        None
    }
}

/// The highest of p99.9 / p99 / p95 / p90 the sample supports under the
/// rule, with its label; `None` below 100 samples.
pub fn highest_tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ]
    .into_iter()
    .find_map(|(label, q)| tail(sorted, q).map(|v| (label, v)))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method): the contract's spread is `(q3 - q1) / median`.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_always_reported() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: exactly ten beyond.
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // One fewer sample leaves nine beyond the 990th.
        assert_eq!(tail(&ramp(999), 0.99), None);
        // p90 needs 100 samples.
        assert_eq!(tail(&ramp(100), 0.90), Some(90.0));
        assert_eq!(tail(&ramp(99), 0.90), None);
    }

    #[test]
    fn highest_tail_picks_the_highest_supported_percentile() {
        assert_eq!(highest_tail(&ramp(10_000)).unwrap().0, "p99.9");
        assert_eq!(highest_tail(&ramp(1000)).unwrap().0, "p99");
        assert_eq!(highest_tail(&ramp(300)).unwrap().0, "p95");
        assert_eq!(highest_tail(&ramp(100)).unwrap().0, "p90");
        assert!(highest_tail(&ramp(50)).is_none());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q2, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two
        // points extrapolate, exactly as Python does.
        let (q1, _, q3) = quartiles(&ramp(2)).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
