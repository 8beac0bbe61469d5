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

/// Keeps the benefit profile of every input it was given — the reference
/// first, then the searched inputs in acceptance order — and the
/// incubative instructions found so far, and answers the
/// search-termination question ("the entire search terminates once the
/// number of incubative instructions no longer increases", §V-B2).
#[derive(Debug, Clone)]
pub struct IncubativeTracker {
    cfg: IncubativeConfig,
    profiles: Vec<Vec<f64>>,
    incubative: Vec<bool>,
}

/// How incubative instructions' benefits are rewritten before the final
/// knapsack (the paper uses [`ReprioritizeRule::Max`]; the others exist
/// for the re-prioritization ablation). Each rule is a view over the
/// tracker's per-input list, computed by [`reprioritize`].
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

/// The re-prioritized benefit profile (Fig. 4 ⑧): the instructions in
/// `incubative` take `rule`'s reading of their benefits across
/// `profiles` (the reference first, then the searched inputs in
/// acceptance order); every other instruction keeps the reference
/// benefit.
pub fn reprioritize(
    profiles: &[Vec<f64>],
    incubative: &[usize],
    rule: ReprioritizeRule,
) -> Vec<f64> {
    let (reference, searched) = profiles.split_first().expect("the reference profile");
    let mut out = reference.clone();
    for &i in incubative {
        let observed = searched.iter().map(|p| p[i]);
        out[i] = match rule {
            ReprioritizeRule::Max => observed.fold(reference[i], |m, b| if b > m { b } else { m }),
            ReprioritizeRule::Mean => {
                observed.fold(reference[i], |s, b| s + b) / profiles.len() as f64
            }
            ReprioritizeRule::ReferenceOnly => reference[i],
        };
    }
    out
}

impl IncubativeTracker {
    pub fn new(ref_benefit: Vec<f64>, cfg: IncubativeConfig) -> Self {
        let n = ref_benefit.len();
        IncubativeTracker {
            cfg,
            profiles: vec![ref_benefit],
            incubative: vec![false; n],
        }
    }

    /// Record one searched input's benefit profile. Returns the number of
    /// *new* incubative instructions this input revealed.
    pub fn observe(&mut self, benefit: &[f64]) -> usize {
        let mut new = 0;
        for i in incubative_between(&self.profiles[0], benefit, &self.cfg) {
            if !self.incubative[i] {
                self.incubative[i] = true;
                new += 1;
            }
        }
        self.profiles.push(benefit.to_vec());
        new
    }

    /// The benefit profile of every input given, the reference first and
    /// then the searched inputs in acceptance order.
    pub fn profiles(&self) -> &[Vec<f64>] {
        &self.profiles
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

    /// The re-prioritized benefit profile under the paper's rule:
    /// incubative instructions take their maximum observed benefit.
    pub fn reprioritized_benefit(&self) -> Vec<f64> {
        reprioritize(
            &self.profiles,
            &self.incubative_indices(),
            ReprioritizeRule::Max,
        )
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
        assert_eq!(
            t.profiles().len(),
            4,
            "the reference and three searched inputs"
        );
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
        let inc = t.incubative_indices();
        let max = reprioritize(t.profiles(), &inc, ReprioritizeRule::Max);
        let mean = reprioritize(t.profiles(), &inc, ReprioritizeRule::Mean);
        let refonly = reprioritize(t.profiles(), &inc, ReprioritizeRule::ReferenceOnly);
        assert_eq!(max[1], 0.4);
        assert!((mean[1] - 0.5 / 3.0).abs() < 1e-12);
        assert_eq!(refonly[1], 0.0);
        // non-incubative inst keeps the reference under all rules
        assert_eq!(max[0], 0.5);
        assert_eq!(mean[0], 0.5);
    }

    /// Each rule read from the list is bit for bit the running fold the
    /// tracker used to keep: a maximum by `>` and a sum in acceptance
    /// order, both starting from the reference.
    #[test]
    fn reprioritize_equals_a_sequential_fold_of_the_list() {
        let profiles = vec![
            vec![0.1, 0.0, 0.3, 1e-17, 0.0],
            vec![0.2, 0.7, 0.1, 0.1, 0.3],
            vec![0.05, 0.3, 0.9, 0.2 + 1e-16, 0.1],
        ];
        let all: Vec<usize> = (0..5).collect();
        let mut max = profiles[0].clone();
        let mut sum = profiles[0].clone();
        for p in &profiles[1..] {
            for i in 0..5 {
                if p[i] > max[i] {
                    max[i] = p[i];
                }
                sum[i] += p[i];
            }
        }
        let mean: Vec<f64> = sum.iter().map(|s| s / 3.0).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rule, want) in [
            (ReprioritizeRule::Max, &max),
            (ReprioritizeRule::Mean, &mean),
            (ReprioritizeRule::ReferenceOnly, &profiles[0]),
        ] {
            assert_eq!(
                bits(&reprioritize(&profiles, &all, rule)),
                bits(want),
                "{rule:?}"
            );
        }
        // instructions outside `incubative` keep the reference under every rule
        let some = reprioritize(&profiles, &[1], ReprioritizeRule::Max);
        assert_eq!(bits(&some), bits(&[0.1, 0.7, 0.3, 1e-17, 0.0]));
    }

    #[test]
    fn all_zero_profiles_have_no_incubative_instructions() {
        let z = vec![0.0; 8];
        let inc = incubative_between(&z, &z, &IncubativeConfig::default());
        assert!(inc.is_empty(), "nothing exceeds the 30% quantile of zeros");
    }
}
