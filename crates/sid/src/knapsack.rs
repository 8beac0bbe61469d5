//! 0-1 knapsack instruction selection (paper §II-C).
//!
//! Items are the duplicable instructions, weight = dynamic cycles, value =
//! benefit (Eq. 2), capacity = protection level × total cycles. The greedy
//! benefit-density heuristic is the production path. The DP solver runs
//! over a capacity scaled down to a bounded number of columns, because
//! weights run into the millions: it is exact only when the columns are
//! at least the capacity, and the knapsack ablation bench compares it
//! with greedy at 4096 columns, where it is not.

/// A selection over `n` items.
pub type Selection = Vec<bool>;

/// Greedy 0-1 knapsack by value density (value per unit weight).
///
/// `eligible[i]` masks which items may be chosen at all (non-duplicable
/// instructions are ineligible). Zero-value items are never selected:
/// duplicating an instruction with no measured SDC benefit only spends
/// budget. Zero-weight positive-value items are always selected.
pub fn greedy_select(
    weights: &[u64],
    values: &[f64],
    eligible: &[bool],
    capacity: u64,
) -> Selection {
    assert_eq!(weights.len(), values.len());
    assert_eq!(weights.len(), eligible.len());
    let mut order: Vec<usize> = (0..weights.len())
        .filter(|&i| eligible[i] && values[i] > 0.0)
        .collect();
    order.sort_by(|&a, &b| {
        let da = density(values[a], weights[a]);
        let db = density(values[b], weights[b]);
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut selected = vec![false; weights.len()];
    let mut used: u64 = 0;
    for i in order {
        if weights[i] == 0 || used + weights[i] <= capacity {
            selected[i] = true;
            used += weights[i];
        }
    }
    selected
}

fn density(value: f64, weight: u64) -> f64 {
    if weight == 0 {
        f64::INFINITY
    } else {
        value / weight as f64
    }
}

/// 0-1 knapsack via dynamic programming over a *scaled* capacity.
///
/// Weights are rescaled so the DP table has at most `max_buckets` columns,
/// each weight rounded up to whole columns. With `max_buckets ≥ capacity`
/// a column is one unit of weight and the result is optimal; with fewer,
/// the rounding wastes capacity and the result can lose to
/// [`greedy_select`].
pub fn dp_select(
    weights: &[u64],
    values: &[f64],
    eligible: &[bool],
    capacity: u64,
    max_buckets: usize,
) -> Selection {
    assert_eq!(weights.len(), values.len());
    assert_eq!(weights.len(), eligible.len());
    let n = weights.len();
    let mut selected = vec![false; n];
    if capacity == 0 || max_buckets == 0 {
        // only zero-weight items fit
        for i in 0..n {
            if eligible[i] && values[i] > 0.0 && weights[i] == 0 {
                selected[i] = true;
            }
        }
        return selected;
    }
    let scale = (capacity as u128).div_ceil(max_buckets as u128).max(1) as u64;
    let cap = (capacity / scale) as usize;
    let scaled = |w: u64| -> usize { w.div_ceil(scale) as usize };

    let items: Vec<usize> = (0..n).filter(|&i| eligible[i] && values[i] > 0.0).collect();
    // dp[c] = best value with capacity c; keep predecessor bits per item
    let mut dp = vec![0.0f64; cap + 1];
    let mut take = vec![false; items.len() * (cap + 1)];
    for (k, &i) in items.iter().enumerate() {
        let w = scaled(weights[i]);
        if w > cap {
            continue;
        }
        for c in (w..=cap).rev() {
            let cand = dp[c - w] + values[i];
            if cand > dp[c] {
                dp[c] = cand;
                take[k * (cap + 1) + c] = true;
            }
        }
    }
    // reconstruct
    let mut c = cap;
    for (k, &i) in items.iter().enumerate().rev() {
        if take[k * (cap + 1) + c] {
            selected[i] = true;
            c -= scaled(weights[i]);
        }
    }
    selected
}

/// Total weight of a selection.
pub fn selection_weight(weights: &[u64], selected: &[bool]) -> u64 {
    weights
        .iter()
        .zip(selected)
        .filter(|(_, &s)| s)
        .map(|(w, _)| *w)
        .sum()
}

/// Total value of a selection.
pub fn selection_value(values: &[f64], selected: &[bool]) -> f64 {
    values
        .iter()
        .zip(selected)
        .filter(|(_, &s)| s)
        .map(|(v, _)| *v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_respects_capacity() {
        let w = vec![5, 5, 5, 5];
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let e = vec![true; 4];
        let s = greedy_select(&w, &v, &e, 10);
        assert_eq!(selection_weight(&w, &s), 10);
        // picks the two densest: items 3 and 2
        assert_eq!(s, vec![false, false, true, true]);
    }

    #[test]
    fn greedy_skips_zero_value_items() {
        let w = vec![1, 1];
        let v = vec![0.0, 0.5];
        let e = vec![true, true];
        let s = greedy_select(&w, &v, &e, 100);
        assert_eq!(s, vec![false, true]);
    }

    #[test]
    fn greedy_respects_eligibility() {
        let w = vec![1, 1];
        let v = vec![9.0, 1.0];
        let e = vec![false, true];
        let s = greedy_select(&w, &v, &e, 100);
        assert_eq!(s, vec![false, true]);
    }

    #[test]
    fn greedy_zero_weight_items_always_fit() {
        let w = vec![0, 10];
        let v = vec![0.1, 5.0];
        let e = vec![true, true];
        let s = greedy_select(&w, &v, &e, 0);
        assert_eq!(s, vec![true, false]);
    }

    #[test]
    fn dp_is_optimal_where_greedy_is_not() {
        // classic greedy trap: density favors the small item, but the
        // optimum is the two larger ones
        let w = vec![6, 5, 5];
        let v = vec![7.0, 5.0, 5.0];
        let e = vec![true; 3];
        let greedy = greedy_select(&w, &v, &e, 10);
        let dp = dp_select(&w, &v, &e, 10, 1000);
        assert!(selection_value(&v, &dp) >= selection_value(&v, &greedy));
        assert_eq!(dp, vec![false, true, true]);
        assert!((selection_value(&v, &dp) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dp_respects_capacity_after_scaling() {
        let w: Vec<u64> = (1..40).map(|i| i * 1000).collect();
        let v: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let e = vec![true; w.len()];
        let cap = 50_000;
        let s = dp_select(&w, &v, &e, cap, 256);
        assert!(selection_weight(&w, &s) <= cap + 256 * 1000, "scaled slack");
        assert!(selection_value(&v, &s) > 0.0);
    }

    #[test]
    fn empty_instance() {
        let s = greedy_select(&[], &[], &[], 10);
        assert!(s.is_empty());
        let s = dp_select(&[], &[], &[], 10, 10);
        assert!(s.is_empty());
    }

    /// The best value over every subset of the eligible items that fits.
    fn brute_force(w: &[u64], v: &[f64], e: &[bool], cap: u64) -> f64 {
        (0u32..1 << w.len())
            .map(|mask| {
                (0..w.len())
                    .map(|i| e[i] && mask >> i & 1 == 1)
                    .collect::<Vec<_>>()
            })
            .filter(|s| selection_weight(w, s) <= cap)
            .map(|s| selection_value(v, &s))
            .fold(0.0, f64::max)
    }

    #[test]
    fn dp_with_a_column_per_unit_of_capacity_equals_brute_force() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..300 {
            let n = rng.random_range(0..=12usize);
            let w: Vec<u64> = (0..n).map(|_| rng.random_range(0..40u64)).collect();
            let v: Vec<f64> = (0..n)
                .map(|_| f64::from(rng.random_range(0..100u32)) / 7.0)
                .collect();
            let e: Vec<bool> = (0..n).map(|_| rng.random_range(0..5u32) > 0).collect();
            let cap = rng.random_range(0..120u64);
            let buckets = cap as usize + rng.random_range(0..3usize);
            let s = dp_select(&w, &v, &e, cap, buckets);
            assert!(
                selection_weight(&w, &s) <= cap,
                "case {case}: over capacity"
            );
            assert!(
                s.iter().zip(&e).all(|(&s, &e)| !s || e),
                "case {case}: ineligible item"
            );
            let best = brute_force(&w, &v, &e, cap);
            assert!(
                (selection_value(&v, &s) - best).abs() < 1e-9,
                "case {case}: dp {} vs brute force {best}",
                selection_value(&v, &s)
            );
        }
    }

    #[test]
    fn dp_and_greedy_agree_on_uniform_density() {
        let w = vec![2, 2, 2];
        let v = vec![1.0, 1.0, 1.0];
        let e = vec![true; 3];
        let g = greedy_select(&w, &v, &e, 4);
        let d = dp_select(&w, &v, &e, 4, 100);
        assert_eq!(selection_weight(&w, &g), 4);
        assert_eq!(selection_weight(&w, &d), 4);
    }
}
