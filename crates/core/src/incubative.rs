//! Incubative-instruction identification (paper §IV).
//!
//! *"We place instructions into incubative instructions if their benefits
//! fall into the last 1 % of the overall results with one input, but move
//! out of the last 30 % of the overall results when using different
//! inputs."*
//!
//! Thresholds are hybrid. "In the last 1 % under the reference input" is
//! the union of two readings — the bottom 1 % of instructions *by rank*
//! (ties at zero all belong) and the ascending prefix holding ≤ 1 % of
//! the total benefit *mass* (so on small kernels an instruction whose
//! benefit is negligible to the knapsack still counts as near-zero).
//! "Out of the last 30 % under another input" is by rank, like the
//! paper's "overall results".

/// Thresholds of the §IV rule.
#[derive(Debug, Clone, Copy)]
pub struct IncubativeConfig {
    /// "last 1 %": at or below the 1st rank-percentile of reference
    /// benefits, or inside the ≤ 1 %-of-total-mass ascending prefix.
    pub low_quantile: f64,
    /// Mass reading of the low threshold (see module docs).
    pub low_mass: f64,
    /// "last 30 %": strictly above the 30th rank-percentile of the other
    /// input's benefits.
    pub high_quantile: f64,
}

impl Default for IncubativeConfig {
    fn default() -> Self {
        IncubativeConfig {
            low_quantile: 0.01,
            low_mass: 0.01,
            high_quantile: 0.30,
        }
    }
}

impl IncubativeConfig {
    /// Feed the thresholds to the MINPSID journal header's key. Every one
    /// enters: each changes which instructions count as incubative.
    pub fn key(&self, h: &mut minpsid_ir::bytes::Fnv) {
        let IncubativeConfig {
            low_quantile,
            low_mass,
            high_quantile,
        } = self;
        h.text(format_args!(
            "IncubativeConfig {{ low_quantile: {low_quantile:?}, low_mass: {low_mass:?}, \
             high_quantile: {high_quantile:?} }}"
        ));
    }
}

/// Value at rank-quantile `q` of `values`.
fn rank_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Value at rank-quantile `q` of the *positive* entries of `values` —
/// the "overall results" of a per-instruction FI campaign are the
/// instructions that actually showed SDC mass; instructions that were
/// never executed (or never mattered) would otherwise collapse the 30 %
/// threshold to zero and make every faintly-beneficial instruction count
/// as "out of the last 30 %".
fn positive_rank_quantile(values: &[f64], q: f64) -> f64 {
    let positives: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    rank_quantile(&positives, q)
}

/// The largest benefit value still inside the ascending prefix whose mass
/// is ≤ `frac` of the total. Values ≤ the returned threshold are "in the
/// last `frac` of the overall results". Returns `None` for zero total
/// mass (then nothing is above any threshold either).
fn mass_threshold(values: &[f64], frac: f64) -> Option<f64> {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let budget = total * frac.clamp(0.0, 1.0);
    let mut cum = 0.0;
    let mut thr = 0.0;
    for v in sorted {
        cum += v;
        if cum > budget {
            break;
        }
        thr = v;
    }
    Some(thr)
}

/// Dense indices of the instructions that are incubative between the
/// reference benefit profile and one other input's benefit profile.
pub fn incubative_between(
    ref_benefit: &[f64],
    other_benefit: &[f64],
    cfg: &IncubativeConfig,
) -> Vec<usize> {
    assert_eq!(ref_benefit.len(), other_benefit.len());
    let low = rank_quantile(ref_benefit, cfg.low_quantile)
        .max(mass_threshold(ref_benefit, cfg.low_mass).unwrap_or(0.0));
    let high = positive_rank_quantile(other_benefit, cfg.high_quantile);
    (0..ref_benefit.len())
        .filter(|&i| ref_benefit[i] <= low && other_benefit[i] > high)
        .collect()
}

/// Accumulates incubative instructions and per-instruction benefit maxima
/// across the searched inputs, and answers the search-termination question
/// ("the entire search terminates once the number of incubative
/// instructions no longer increases", §V-B2).
#[derive(Debug, Clone)]
pub struct IncubativeTracker {
    cfg: IncubativeConfig,
    ref_benefit: Vec<f64>,
    /// max benefit observed per instruction across reference + all
    /// searched inputs (the re-prioritization value, Fig. 4 ⑧).
    max_benefit: Vec<f64>,
    /// sum of observed benefits (reference + searched), for the mean-rule
    /// ablation.
    sum_benefit: Vec<f64>,
    incubative: Vec<bool>,
    inputs_seen: usize,
}

/// How incubative instructions' benefits are rewritten before the final
/// knapsack (the paper uses [`ReprioritizeRule::Max`]; the others exist
/// for the re-prioritization ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprioritizeRule {
    /// Highest benefit observed across all searched inputs (paper ⑧).
    Max,
    /// Mean benefit across reference + searched inputs.
    Mean,
    /// No rewrite — keep the reference benefit (degenerates to baseline
    /// SID selection; incubative knowledge is discarded).
    ReferenceOnly,
}

impl IncubativeTracker {
    pub fn new(ref_benefit: Vec<f64>, cfg: IncubativeConfig) -> Self {
        let max_benefit = ref_benefit.clone();
        let sum_benefit = ref_benefit.clone();
        let n = ref_benefit.len();
        IncubativeTracker {
            cfg,
            ref_benefit,
            max_benefit,
            sum_benefit,
            incubative: vec![false; n],
            inputs_seen: 0,
        }
    }

    /// Fold in one searched input's benefit profile. Returns the number of
    /// *new* incubative instructions this input revealed.
    pub fn observe(&mut self, benefit: &[f64]) -> usize {
        assert_eq!(benefit.len(), self.ref_benefit.len());
        self.inputs_seen += 1;
        for (i, b) in benefit.iter().enumerate() {
            if *b > self.max_benefit[i] {
                self.max_benefit[i] = *b;
            }
            self.sum_benefit[i] += *b;
        }
        let mut new = 0;
        for i in incubative_between(&self.ref_benefit, benefit, &self.cfg) {
            if !self.incubative[i] {
                self.incubative[i] = true;
                new += 1;
            }
        }
        new
    }

    /// Dense indices of all incubative instructions found so far.
    pub fn incubative_indices(&self) -> Vec<usize> {
        (0..self.incubative.len())
            .filter(|&i| self.incubative[i])
            .collect()
    }

    pub fn count(&self) -> usize {
        self.incubative.iter().filter(|&&b| b).count()
    }

    pub fn inputs_seen(&self) -> usize {
        self.inputs_seen
    }

    /// The re-prioritized benefit profile (Fig. 4 ⑧): incubative
    /// instructions take their maximum observed benefit, everything else
    /// keeps the reference benefit.
    pub fn reprioritized_benefit(&self) -> Vec<f64> {
        self.reprioritized_with(ReprioritizeRule::Max)
    }

    /// Re-prioritization under an explicit rule (ablation support).
    pub fn reprioritized_with(&self, rule: ReprioritizeRule) -> Vec<f64> {
        let samples = (self.inputs_seen + 1) as f64;
        (0..self.ref_benefit.len())
            .map(|i| {
                if !self.incubative[i] {
                    return self.ref_benefit[i];
                }
                match rule {
                    ReprioritizeRule::Max => self.max_benefit[i],
                    ReprioritizeRule::Mean => self.sum_benefit[i] / samples,
                    ReprioritizeRule::ReferenceOnly => self.ref_benefit[i],
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_threshold_basics() {
        // total 10; 30% budget = 3: ascending prefix {1, 2} fits, 3 spills
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(mass_threshold(&v, 0.3), Some(2.0));
        // tiny budget: nothing fits except zeros
        assert_eq!(mass_threshold(&v, 0.01), Some(0.0));
        // full budget: everything fits
        assert_eq!(mass_threshold(&v, 1.0), Some(4.0));
        // zero mass
        assert_eq!(mass_threshold(&[0.0, 0.0], 0.3), None);
        assert_eq!(mass_threshold(&[], 0.3), None);
    }

    #[test]
    fn zeros_are_always_in_the_low_mass_prefix() {
        let v = vec![0.0, 0.0, 5.0];
        assert_eq!(mass_threshold(&v, 0.01), Some(0.0));
    }

    #[test]
    fn detects_the_fig3_pattern() {
        // instruction 2 has ~zero benefit under the reference input but a
        // large benefit under the other input — the FFT icmp of Fig. 3
        let ref_b = vec![0.5, 0.3, 0.0, 0.0, 0.1];
        let oth_b = vec![0.5, 0.3, 0.4, 0.0, 0.1];
        let inc = incubative_between(&ref_b, &oth_b, &IncubativeConfig::default());
        assert_eq!(inc, vec![2]);
    }

    #[test]
    fn stable_profiles_yield_no_incubative_instructions() {
        let b = vec![0.5, 0.3, 0.0, 0.1];
        let inc = incubative_between(&b, &b, &IncubativeConfig::default());
        assert!(inc.is_empty());
    }

    #[test]
    fn tracker_accumulates_without_double_counting() {
        let ref_b = vec![0.5, 0.0, 0.0, 0.2];
        let mut t = IncubativeTracker::new(ref_b, IncubativeConfig::default());
        let new1 = t.observe(&[0.5, 0.6, 0.0, 0.2]); // reveals inst 1
        assert_eq!(new1, 1);
        let new2 = t.observe(&[0.5, 0.7, 0.0, 0.2]); // inst 1 again
        assert_eq!(new2, 0);
        let new3 = t.observe(&[0.5, 0.0, 0.6, 0.2]); // reveals inst 2
        assert_eq!(new3, 1);
        assert_eq!(t.count(), 2);
        assert_eq!(t.incubative_indices(), vec![1, 2]);
        assert_eq!(t.inputs_seen(), 3);
    }

    #[test]
    fn reprioritization_takes_the_maximum_for_incubative_only() {
        let ref_b = vec![0.5, 0.0, 0.0];
        let mut t = IncubativeTracker::new(ref_b, IncubativeConfig::default());
        t.observe(&[0.9, 0.4, 0.0]);
        t.observe(&[0.1, 0.6, 0.0]);
        let re = t.reprioritized_benefit();
        // inst 0 is NOT incubative (high ref benefit): keeps 0.5, not 0.9
        assert_eq!(re[0], 0.5);
        // inst 1 is incubative: takes max(0.4, 0.6)
        assert_eq!(re[1], 0.6);
        // inst 2 never shows benefit anywhere
        assert_eq!(re[2], 0.0);
    }

    #[test]
    fn reprioritization_rules_differ_as_specified() {
        let ref_b = vec![0.5, 0.0, 0.3, 0.2];
        let mut t = IncubativeTracker::new(ref_b, IncubativeConfig::default());
        t.observe(&[0.5, 0.4, 0.3, 0.2]);
        t.observe(&[0.5, 0.1, 0.3, 0.2]);
        // inst 1 incubative: ref 0.0, observed 0.4 and 0.1
        let max = t.reprioritized_with(ReprioritizeRule::Max);
        let mean = t.reprioritized_with(ReprioritizeRule::Mean);
        let refonly = t.reprioritized_with(ReprioritizeRule::ReferenceOnly);
        assert_eq!(max[1], 0.4);
        assert!((mean[1] - 0.5 / 3.0).abs() < 1e-12);
        assert_eq!(refonly[1], 0.0);
        // non-incubative inst keeps the reference under all rules
        assert_eq!(max[0], 0.5);
        assert_eq!(mean[0], 0.5);
    }

    #[test]
    fn all_zero_profiles_have_no_incubative_instructions() {
        let z = vec![0.0; 8];
        let inc = incubative_between(&z, &z, &IncubativeConfig::default());
        assert!(inc.is_empty(), "nothing exceeds the 30% quantile of zeros");
    }
}
