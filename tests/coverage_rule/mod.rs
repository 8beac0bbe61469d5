//! The rule `sid::Unprotected::coverage` rests on, checked fault by fault
//! (shared by `one_campaign_coverage.rs` and `proptest_ir_modules.rs`).
//!
//! Every fault the whole-program campaign on the original program plans
//! runs on the original and on each protected program: its site mapped
//! through `TransformMeta::orig_to_new`, the same dynamic instance, the
//! same bit, beside each program's own golden run as a campaign runs it.
//! Then:
//! - a fault at an unselected site ends with the same `Outcome`;
//! - a fault at a selected site never ends as `Sdc`;
//! - the protected golden run's injectable executions are
//!   `N + Σ_{s∈S} count[s]`, which makes `Unprotected::paper_coverage`
//!   exact;
//! - `measure_unprotected`'s per-site tally is the SDC outcomes of these
//!   faults by site.
//!
//! The known gap: a faulty run may take `hang_multiplier` × its own
//! program's golden length, and the protected program's is the longer, so
//! a fault that hangs the original could in principle finish in the
//! protected program. No run checked here has.

use minpsid_repro::faultsim::{
    classify, faulty_exec_config, golden_run, CampaignConfig, CampaignEngine, GoldenRun, Outcome,
};
use minpsid_repro::interp::{ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput, Run, Start};
use minpsid_repro::ir::Module;
use minpsid_repro::sid::knapsack::selection_weight;
use minpsid_repro::sid::{duplicable, duplicate_module, measure_unprotected, Selection};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Faults checked: at unselected sites (same outcome) and at selected
/// ones (no SDC), summed over the selections.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checked {
    pub unselected: usize,
    pub selected: usize,
}

/// A seeded random selection of `module`'s duplicable sites, each with
/// probability `percent` / 100.
pub fn random_selection(module: &Module, percent: u32, seed: u64) -> Selection {
    let mut rng = StdRng::seed_from_u64(seed);
    module
        .iter_insts()
        .map(|(_, inst)| rng.random_range(0..100u32) < percent && duplicable(inst))
        .collect()
}

/// One injection beside `golden`'s checkpoints, classified against it.
fn outcome(
    interp: &Interp,
    st: &mut ExecScratch,
    golden: &GoldenRun,
    input: &ProgInput,
    fault: FaultSpec,
) -> Outcome {
    let run = Run {
        fault: Some(fault),
        start: Start::Beside(&golden.checkpoints),
        ..Run::new(input)
    };
    classify(&golden.output, &interp.execute(st, &run))
}

/// Check the rule for every fault `cfg`'s campaign plans on `module`
/// under `input`, against `module` protected with each of `selections`.
/// `None` when the original program rejects `input`.
pub fn check(
    module: &Module,
    input: &ProgInput,
    cfg: &CampaignConfig,
    selections: &[Selection],
) -> Option<Checked> {
    let golden = golden_run(module, input, cfg).ok()?;
    let numbering = module.numbering();
    let plan = CampaignEngine::new(module, input, &golden, cfg).plan_program();
    let interp = Interp::new(module, faulty_exec_config(cfg, golden.steps));
    let mut st = ExecScratch::default();
    let mut site_sdc = vec![0u64; numbering.len()];
    let mut faults = Vec::new();
    for sec in &plan.sections {
        for j in 0..sec.units {
            for fault in plan.faults(sec, j) {
                let FaultTarget::NthOfInst(gid, nth) = fault.target else {
                    unreachable!("a program plan targets sites")
                };
                let o = outcome(&interp, &mut st, &golden, input, fault);
                let dense = numbering.index(gid);
                site_sdc[dense] += u64::from(o == Outcome::Sdc);
                faults.push((dense, nth, fault.bit, o));
            }
        }
    }
    let measured = measure_unprotected(module, input, cfg).expect("the golden run exits");
    assert_eq!(measured.site_sdc, site_sdc, "the campaign's per-site tally");
    assert_eq!(measured.injectable_execs, golden.profile.injectable_execs);

    let mut checked = Checked::default();
    for selection in selections {
        for (dense, (_, inst)) in module.iter_insts().enumerate() {
            assert!(
                !selection[dense] || duplicable(inst),
                "site {dense} is not duplicable"
            );
        }
        let (protected, meta) = duplicate_module(module, selection);
        let pgolden = golden_run(&protected, input, cfg).expect("protection keeps the input valid");
        assert_eq!(
            pgolden.output, golden.output,
            "protection changed the output"
        );
        assert_eq!(
            pgolden.profile.injectable_execs,
            golden.profile.injectable_execs
                + selection_weight(&golden.profile.inst_counts, selection),
            "a duplicate runs as often as its original, and a check is not injectable"
        );
        let pinterp = Interp::new(&protected, faulty_exec_config(cfg, pgolden.steps));
        for &(dense, nth, bit, o) in &faults {
            let fault = FaultSpec {
                target: FaultTarget::NthOfInst(meta.orig_to_new[dense], nth),
                bit,
            };
            let p = outcome(&pinterp, &mut st, &pgolden, input, fault);
            if selection[dense] {
                assert_ne!(p, Outcome::Sdc, "selected site {dense}: {fault:?}");
                checked.selected += 1;
            } else {
                assert_eq!(p, o, "unselected site {dense}: {fault:?}");
                checked.unselected += 1;
            }
        }
    }
    Some(checked)
}
