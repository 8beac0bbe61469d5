//! Campaign statistics: binomial confidence intervals.
//!
//! The paper reports 95 % confidence intervals of 0.26 %–3.10 % on its FI
//! measurements (§III-A3); the same Wilson score interval is exposed here
//! so experiment reports can print comparable error bars.
//!
//! This module is the single home of the Wilson interval for the whole
//! workspace: `minpsid-faultsim` re-exports [`BinomialCi`],
//! [`binomial_ci`] and [`Z`] rather than keeping its own copy, so every
//! report agrees on the arithmetic and the confidence level.

/// The confidence level every campaign report prints its intervals at,
/// in standard deviations: 1.96 ⇒ 95 %.
pub const Z: f64 = 1.96;

/// A binomial proportion with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialCi {
    pub estimate: f64,
    pub lo: f64,
    pub hi: f64,
}

impl BinomialCi {
    /// The vacuous interval reported when no valid trial exists (zero
    /// samples, or a quarantined site whose samples are untrusted).
    pub fn vacuous() -> BinomialCi {
        BinomialCi {
            estimate: 0.0,
            lo: 0.0,
            hi: 1.0,
        }
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Wilson score interval for `successes` out of `trials` at confidence
/// level `z` standard deviations (1.96 ⇒ 95 %).
pub fn binomial_ci(successes: u64, trials: u64, z: f64) -> BinomialCi {
    if trials == 0 {
        return BinomialCi::vacuous();
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    BinomialCi {
        estimate: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_estimate() {
        let ci = binomial_ci(250, 1000, 1.96);
        assert!(ci.lo < ci.estimate && ci.estimate < ci.hi);
        assert!((ci.estimate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_campaign_has_paper_scale_error_bars() {
        // 1000 injections at p=0.25 -> half width around 2.7 %, inside the
        // paper's reported 0.26 %–3.10 % band
        let ci = binomial_ci(250, 1000, 1.96);
        let hw = ci.half_width();
        assert!(hw > 0.0026 && hw < 0.031, "half width {hw}");
    }

    #[test]
    fn extreme_proportions_stay_in_unit_interval() {
        let ci = binomial_ci(0, 100, 1.96);
        assert_eq!(ci.estimate, 0.0);
        assert!(ci.lo >= 0.0);
        assert!(ci.hi > 0.0, "Wilson interval is open above zero");
        let ci = binomial_ci(100, 100, 1.96);
        assert!(ci.hi <= 1.0);
        assert!(ci.lo < 1.0);
    }

    #[test]
    fn zero_trials_is_vacuous() {
        let ci = binomial_ci(0, 0, 1.96);
        assert_eq!((ci.lo, ci.hi), (0.0, 1.0));
    }

    #[test]
    fn more_trials_narrow_the_interval() {
        let wide = binomial_ci(5, 20, 1.96);
        let narrow = binomial_ci(250, 1000, 1.96);
        assert!(narrow.half_width() < wide.half_width());
    }
}
