//! End-to-end SID: profile → select → transform, and the measured
//! coverage of a selection.

use crate::knapsack::{dp_select, greedy_select, selection_weight, Selection};
use crate::profile::CostBenefit;
use crate::transform::{duplicable, duplicate_module, TransformMeta};
use minpsid_faultsim::{golden_run, per_instruction_campaign, program_campaign, CampaignConfig};
use minpsid_interp::{ProgInput, Termination};
use minpsid_ir::Module;

/// SID configuration.
#[derive(Debug, Clone)]
pub struct SidConfig {
    /// Protection level in `[0, 1]` — the fraction of dynamic cycles whose
    /// instructions are duplicated (the paper evaluates 0.3 / 0.5 / 0.7).
    pub protection_level: f64,
    /// FI campaign parameters for the profiling phase.
    pub campaign: CampaignConfig,
}

/// Everything SID produces for a program.
#[derive(Debug, Clone)]
pub struct SidResult {
    /// The protected module (the "protected binary" of Fig. 4 ⑨).
    pub protected: Module,
    pub meta: TransformMeta,
    pub selection: Selection,
    /// The coverage SID promises to developers (red bars of Figs. 2/6).
    pub expected_coverage: f64,
    pub cost_benefit: CostBenefit,
}

/// Run the full baseline-SID pipeline on `module` with the reference
/// input (§II-C: profiling and selection both use the reference input).
/// Selection is greedy, as in deployed SID systems.
pub fn run_sid(
    module: &Module,
    ref_input: &ProgInput,
    cfg: &SidConfig,
) -> Result<SidResult, Termination> {
    let golden = golden_run(module, ref_input, &cfg.campaign)?;
    let per_inst = per_instruction_campaign(module, ref_input, &golden, &cfg.campaign);
    let cb = CostBenefit::build(module, &golden, &per_inst);
    let (selection, expected_coverage, protected, meta) =
        select_and_protect(module, &cb, cfg.protection_level, false);
    Ok(SidResult {
        protected,
        meta,
        selection,
        expected_coverage,
        cost_benefit: cb,
    })
}

/// Knapsack selection + duplication transform for an existing cost/benefit
/// profile. MINPSID re-enters here after re-prioritizing benefits.
pub fn select_and_protect(
    module: &Module,
    cb: &CostBenefit,
    protection_level: f64,
    use_dp: bool,
) -> (Selection, f64, Module, TransformMeta) {
    let (selection, expected) = select(module, cb, protection_level, use_dp);
    let (protected, meta) = duplicate_module(module, &selection);
    (selection, expected, protected, meta)
}

/// The knapsack half of [`select_and_protect`]: the selection at
/// `protection_level` and the coverage it promises.
pub fn select(
    module: &Module,
    cb: &CostBenefit,
    protection_level: f64,
    use_dp: bool,
) -> (Selection, f64) {
    let eligible: Vec<bool> = module.iter_insts().map(|(_, i)| duplicable(i)).collect();
    let capacity = cb.capacity(protection_level);
    let selection = if use_dp {
        dp_select(&cb.cost, &cb.benefit, &eligible, capacity, 4096)
    } else {
        greedy_select(&cb.cost, &cb.benefit, &eligible, capacity)
    };
    let expected = cb.expected_coverage(&selection);
    if minpsid_trace::active() {
        let total_cycles = cb.total_cycles();
        minpsid_trace::emit(minpsid_trace::Event::Knapsack {
            budget: capacity,
            total_cycles,
            eligible: eligible.iter().filter(|&&e| e).count() as u64,
            selected: selection.iter().filter(|&&s| s).count() as u64,
            protected_cycle_fraction: selection_weight(&cb.cost, &selection) as f64
                / total_cycles as f64,
            expected_coverage: expected,
        });
    }
    (selection, expected)
}

/// One input's whole-program campaign on the original program, tallied by
/// site, with the golden run's dynamic counts: what the measured coverage
/// of *any* selection on that input is read from (DESIGN.md §6). It
/// depends on neither the selection nor the protection level, so an
/// evaluation that protects one program several ways measures it once.
#[derive(Debug, Clone)]
pub struct Unprotected {
    /// SDC outcomes of the campaign by the site each fault hit (dense).
    pub site_sdc: Vec<u64>,
    /// The golden run's executions of each static instruction (dense).
    pub counts: Vec<u64>,
    /// The golden run's injectable dynamic executions, `N`.
    pub injectable_execs: u64,
}

impl Unprotected {
    /// Measured SDC coverage of a knapsack `selection` (duplicable sites
    /// only): the share of the campaign's SDC faults at sites it
    /// duplicates; 1 when the campaign saw no SDC. Duplication leaves a
    /// fault at an unselected site ending as it did and ends none at a
    /// selected site as SDC (`tests/one_campaign_coverage.rs`), so this is
    /// what a campaign on the protected program measures, over the
    /// original program's faults.
    pub fn coverage(&self, selection: &Selection) -> f64 {
        let total: u64 = self.site_sdc.iter().sum();
        if total == 0 {
            return 1.0;
        }
        selection_weight(&self.site_sdc, selection) as f64 / total as f64
    }

    /// The paper's convention, `1 − P_sdc(protected) / P_sdc(original)`,
    /// with the protected program's faults spread over its own
    /// `N + Σ_{s∈S} count[s]` injectable executions (a duplicate runs as
    /// often as its original; a check is not injectable):
    /// `1 − (1 − C)·N / (N + Σ_{s∈S} count[s])` for `C` = [`coverage`](Self::coverage).
    pub fn paper_coverage(&self, selection: &Selection) -> f64 {
        let n = self.injectable_execs as f64;
        let dups = selection_weight(&self.counts, selection) as f64;
        1.0 - (1.0 - self.coverage(selection)) * n / (n + dups).max(1.0)
    }
}

/// Run `input`'s golden run and whole-program campaign on `original`.
pub fn measure_unprotected(
    original: &Module,
    input: &ProgInput,
    campaign: &CampaignConfig,
) -> Result<Unprotected, Termination> {
    let golden = golden_run(original, input, campaign)?;
    let c = program_campaign(original, input, &golden, campaign);
    Ok(Unprotected {
        site_sdc: c.site_sdc,
        counts: golden.profile.inst_counts,
        injectable_execs: golden.profile.injectable_execs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::Scalar;

    fn kernel() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0.0;
                let w = 1.0;
                for i = 0 to n {
                    let x = float(i) * 0.25;
                    acc = acc + x * w;
                    if i % 8 == 0 { w = w + 0.125; }
                }
                out_f(acc);
            }
            "#,
            "sid-pipeline-test",
        )
        .unwrap()
    }

    fn quick_cfg(level: f64) -> SidConfig {
        SidConfig {
            protection_level: level,
            campaign: CampaignConfig::quick(17),
        }
    }

    #[test]
    fn sid_selects_within_budget_and_reports_coverage() {
        let m = kernel();
        let input = ProgInput::scalars(vec![Scalar::I(48)]);
        let r = run_sid(&m, &input, &quick_cfg(0.5)).unwrap();
        assert!(r.expected_coverage > 0.0 && r.expected_coverage <= 1.0);
        let used: u64 = r
            .cost_benefit
            .cost
            .iter()
            .zip(&r.selection)
            .filter(|(_, &s)| s)
            .map(|(c, _)| *c)
            .sum();
        assert!(used <= r.cost_benefit.capacity(0.5));
        assert!(r.meta.num_dups > 0);
    }

    #[test]
    fn expected_coverage_monotone_in_level() {
        let m = kernel();
        let input = ProgInput::scalars(vec![Scalar::I(48)]);
        let lo = run_sid(&m, &input, &quick_cfg(0.3)).unwrap();
        let hi = run_sid(&m, &input, &quick_cfg(0.7)).unwrap();
        assert!(hi.expected_coverage >= lo.expected_coverage - 1e-12);
    }

    #[test]
    fn protection_preserves_output_on_other_inputs() {
        let m = kernel();
        let ref_input = ProgInput::scalars(vec![Scalar::I(48)]);
        let r = run_sid(&m, &ref_input, &quick_cfg(0.5)).unwrap();
        for n in [1, 7, 100] {
            let input = ProgInput::scalars(vec![Scalar::I(n)]);
            let a = minpsid_interp::Interp::new(&m, Default::default()).run(&input);
            let b = minpsid_interp::Interp::new(&r.protected, Default::default()).run(&input);
            assert_eq!(a.output, b.output, "n={n}");
        }
    }

    #[test]
    fn measured_coverage_on_reference_input_tracks_expected() {
        let m = kernel();
        let input = ProgInput::scalars(vec![Scalar::I(48)]);
        let mut cfg = quick_cfg(0.7);
        cfg.campaign.injections = 400;
        let r = run_sid(&m, &input, &cfg).unwrap();
        let u = measure_unprotected(&m, &input, &cfg.campaign).unwrap();
        let c = u.coverage(&r.selection);
        assert!(c > 0.0, "70% level must mitigate something");
        assert!(c <= 1.0);
        // the duplicates' extra executions only dilute what is left
        assert!(u.paper_coverage(&r.selection) >= c);
        assert_eq!(u.coverage(&vec![false; m.num_insts()]), 0.0);
        assert_eq!(u.coverage(&vec![true; m.num_insts()]), 1.0);
    }

    #[test]
    fn zero_protection_level_changes_nothing() {
        let m = kernel();
        let input = ProgInput::scalars(vec![Scalar::I(32)]);
        let r = run_sid(&m, &input, &quick_cfg(0.0)).unwrap();
        assert_eq!(r.meta.num_dups, 0);
        assert_eq!(r.expected_coverage, 0.0);
    }

    #[test]
    fn dp_selection_value_at_least_greedy() {
        let m = kernel();
        let input = ProgInput::scalars(vec![Scalar::I(48)]);
        let greedy = run_sid(&m, &input, &quick_cfg(0.3)).unwrap();
        let (_, dp) = select(&m, &greedy.cost_benefit, 0.3, true);
        // same profile -> comparable benefit sums
        assert!(dp >= greedy.expected_coverage - 0.05);
    }
}
