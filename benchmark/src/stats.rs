//! Order statistics over timing samples.

/// Sort `samples` in place and return the `q`-quantile (`0.0..=1.0`) by
/// the nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. Nearest-rank never interpolates, so a reported
/// percentile is always a latency that was actually measured.
///
/// Panics on an empty slice: every caller times at least one operation.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median, averaging the two middle samples of an even count (the
/// convention of Python's `statistics.median`, which the acceptance
/// procedure applies to the values this benchmark prints).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Sum over segments of each segment's fastest time: `passes[p][s]` is the
/// time of segment `s` in pass `p`, every pass timing the same segments.
pub fn sum_of_fastest(passes: &[Vec<f64>]) -> f64 {
    let segments = passes.first().map_or(0, Vec::len);
    assert!(segments > 0, "no timed segment");
    assert!(
        passes.iter().all(|p| p.len() == segments),
        "passes time different segments"
    );
    (0..segments)
        .map(|s| passes.iter().map(|p| p[s]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Geometric mean of positive values: the aggregate that weighs a 10 %
/// change on a cheap kernel the same as a 10 % change on a costly one.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// `|a - b|` as a share of their mean — the A/A difference the self-check
/// compares with a metric's bound.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let mean = (a + b) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank_and_never_interpolates() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.50), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [5.0, 1.0], 0.5), 1.0);
        assert_eq!(quantile(&mut [5.0, 1.0], 0.51), 5.0);
    }

    #[test]
    fn sum_of_fastest_takes_each_segments_minimum() {
        // pass 0 was slowed on its second segment, pass 1 on its first
        let passes = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]];
        assert_eq!(sum_of_fastest(&passes), 1.0 + 4.0 + 2.0);
        assert_eq!(sum_of_fastest(&[vec![1.5, 2.5]]), 4.0);
    }

    #[test]
    #[should_panic(expected = "different segments")]
    fn sum_of_fastest_refuses_ragged_passes() {
        sum_of_fastest(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(25_000, 0.99), 250);
        assert_eq!(samples_beyond(3, 0.5), 1);
        assert_eq!(samples_beyond(1, 0.99), 0);
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        // doubling the cheap term moves the mean as much as doubling the costly one
        let a = geomean(&[2.0, 100.0]);
        let b = geomean(&[1.0, 200.0]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn rel_diff_is_symmetric() {
        assert_eq!(rel_diff(10.0, 10.0), 0.0);
        assert!((rel_diff(9.0, 11.0) - 0.2).abs() < 1e-12);
        assert_eq!(rel_diff(9.0, 11.0), rel_diff(11.0, 9.0));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
