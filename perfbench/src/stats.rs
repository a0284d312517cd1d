//! The benchmark's own arithmetic: order statistics over repeated
//! measurements and the pool / failure ratios it reports.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `n - 1` cut points dividing `xs` into `n` groups, computed exactly
/// as Python's `statistics.quantiles(xs, n=n)` does with its default
/// `exclusive` method. Needs at least two values and `n >= 1`.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(
        xs.len() >= 2 && n >= 1,
        "quantiles needs two values and n >= 1"
    );
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (ld, n) = (v.len() as i64, n as i64);
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // May be negative or exceed n: the method extrapolates past
            // the end points for small samples.
            let delta = (i * m - j * n) as f64;
            let (lo, hi) = (v[j as usize - 1], v[j as usize]);
            (lo * (n as f64 - delta) + hi * delta) / n as f64
        })
        .collect()
}

/// Interquartile range as a share of the median, the measure a metric's
/// bound is compared against; 0 for fewer than two values.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let q = quantiles(xs, 4);
    ratio(q[2] - q[0], median(xs).abs())
}

/// Share of the pool's capacity spent inside cells:
/// `Σ cell seconds / (jobs × pool wall seconds)`; 0 when nothing ran.
pub fn pool_efficiency(cell_s_sum: f64, jobs: usize, pool_wall_s: f64) -> f64 {
    let capacity = jobs as f64 * pool_wall_s;
    if capacity <= 0.0 {
        0.0
    } else {
        cell_s_sum / capacity
    }
}

/// Worker seconds the pool held but spent outside any cell:
/// `jobs × pool wall − Σ cell seconds`, never negative.
pub fn pool_idle_s(cell_s_sum: f64, jobs: usize, pool_wall_s: f64) -> f64 {
    (jobs as f64 * pool_wall_s - cell_s_sum).max(0.0)
}

/// Cells failing a check over cells attempted; 0 when none were.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=10) extrapolates
        // past both end points: [6.0, 12.0, ..., 54.0].
        let q = quantiles(&[50.0, 40.0, 30.0, 20.0, 10.0], 10);
        let want: Vec<f64> = (1..=9).map(|k| 6.0 * f64::from(k)).collect();
        assert_eq!(q.len(), 9);
        for (got, want) in q.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0; 10]), 0.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn pool_efficiency_and_idle() {
        // Two workers for 3 s, cells summing to 4.5 s: 75 % busy, 1.5 s idle.
        assert_eq!(pool_efficiency(4.5, 2, 3.0), 0.75);
        assert_eq!(pool_idle_s(4.5, 2, 3.0), 1.5);
        assert_eq!(pool_efficiency(1.0, 2, 0.0), 0.0);
        assert_eq!(pool_idle_s(7.0, 2, 3.0), 0.0);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 48), 0.0);
        assert_eq!(failed_frac(12, 48), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
