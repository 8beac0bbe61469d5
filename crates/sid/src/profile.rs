//! Cost/benefit profile construction (paper Eqs. 1–2).

use minpsid_faultsim::{GoldenRun, PerInstSdc};
use minpsid_ir::Module;

/// Per-instruction cost and benefit, dense in module numbering order.
///
/// * `cost[i]` — dynamic cycles attributed to static instruction `i` under
///   the profiling input (the numerator of Eq. 1).
/// * `benefit[i]` — `cost_fraction(i) × sdc_prob(i)` (Eq. 2): the share of
///   the program's total SDC exposure that protecting `i` removes.
#[derive(Debug, Clone)]
pub struct CostBenefit {
    pub cost: Vec<u64>,
    pub benefit: Vec<f64>,
    pub sdc_prob: Vec<f64>,
    pub dyn_counts: Vec<u64>,
    pub total_cycles: u64,
}

impl CostBenefit {
    /// Combine a golden profile with a per-instruction FI campaign.
    pub fn build(module: &Module, golden: &GoldenRun, per_inst: &PerInstSdc) -> Self {
        let cost = golden.profile.inst_cycles(module);
        assert_eq!(per_inst.sdc_prob.len(), cost.len());
        let total_cycles = cost.iter().sum::<u64>().max(1);
        let benefit = cost
            .iter()
            .zip(&per_inst.sdc_prob)
            .map(|(&c, &p)| c as f64 / total_cycles as f64 * p)
            .collect();
        CostBenefit {
            cost,
            benefit,
            sdc_prob: per_inst.sdc_prob.clone(),
            dyn_counts: golden.profile.inst_counts.clone(),
            total_cycles,
        }
    }

    pub fn len(&self) -> usize {
        self.cost.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cost.is_empty()
    }

    /// Total benefit mass (the denominator of expected-coverage).
    pub fn total_benefit(&self) -> f64 {
        self.benefit.iter().sum()
    }

    /// Expected SDC coverage of a selection: the benefit-weighted share of
    /// SDC mass covered (§II-C "expected SDC coverage"). A program with no
    /// measured SDC mass is trivially fully covered.
    pub fn expected_coverage(&self, selected: &[bool]) -> f64 {
        let total = self.total_benefit();
        if total <= 0.0 {
            return 1.0;
        }
        let covered: f64 = self
            .benefit
            .iter()
            .zip(selected)
            .filter(|(_, &s)| s)
            .map(|(b, _)| *b)
            .sum();
        covered / total
    }

    /// Knapsack capacity for a protection level in `[0, 1]`.
    pub fn capacity(&self, protection_level: f64) -> u64 {
        (protection_level.clamp(0.0, 1.0) * self.total_cycles as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_faultsim::{golden_run, per_instruction_campaign, CampaignConfig};
    use minpsid_interp::{ProgInput, Scalar};

    fn setup() -> (Module, CostBenefit) {
        let m = minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0.0;
                for i = 0 to n {
                    acc = acc + sqrt(float(i));
                }
                out_f(acc);
            }
            "#,
            "cb-test",
        )
        .unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(40)]);
        let cfg = CampaignConfig::quick(1);
        let g = golden_run(&m, &input, &cfg).unwrap();
        let p = per_instruction_campaign(&m, &input, &g, &cfg);
        let cb = CostBenefit::build(&m, &g, &p);
        (m, cb)
    }

    #[test]
    fn benefit_is_cost_fraction_times_sdc_prob() {
        let (_, cb) = setup();
        for i in 0..cb.len() {
            let expected = cb.cost[i] as f64 / cb.total_cycles as f64 * cb.sdc_prob[i];
            assert!((cb.benefit[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_coverage_bounds() {
        let (_, cb) = setup();
        let none = vec![false; cb.len()];
        let all = vec![true; cb.len()];
        assert_eq!(cb.expected_coverage(&none), 0.0);
        assert!((cb.expected_coverage(&all) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_scales_with_level() {
        let (_, cb) = setup();
        assert_eq!(cb.capacity(0.0), 0);
        assert!(cb.capacity(0.5) > 0);
        assert!(cb.capacity(0.5) <= cb.capacity(0.7));
        assert_eq!(cb.capacity(1.0), cb.total_cycles);
        // out-of-range levels are clamped
        assert_eq!(cb.capacity(2.0), cb.total_cycles);
    }

    #[test]
    fn unexecuted_instructions_have_zero_benefit() {
        let (m, cb) = setup();
        for i in 0..cb.len() {
            if cb.dyn_counts[i] == 0 {
                assert_eq!(cb.benefit[i], 0.0);
            }
        }
        let _ = m;
    }
}
