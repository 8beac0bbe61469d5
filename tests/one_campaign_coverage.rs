//! Coverage from one campaign on the original program: the rule
//! `sid::Unprotected::coverage` rests on (see `coverage_rule/mod.rs` for
//! what is checked, and its one known gap, the protected program's longer
//! step limit), over real kernels under their reference inputs, for the
//! knapsack selections at 30/50/70 % and seeded random selections.
//!
//! Tier-1 checks fft, knn, hpccg and the 2-thread FFT with small
//! campaigns. The `#[ignore]`d probe re-checks it at the scale the rule
//! was first measured at, all 11 kernels × (reference + 2 random inputs) ×
//! 1,000 faults:
//!
//! ```text
//! cargo test --release --test one_campaign_coverage -- --ignored
//! ```

mod coverage_rule;

use coverage_rule::{check, random_selection, Checked};
use minpsid_repro::faultsim::{golden_run, per_instruction_campaign, CampaignConfig};
use minpsid_repro::interp::ProgInput;
use minpsid_repro::sid::{select, CostBenefit, Selection};
use minpsid_repro::workloads::benchmarks::fft::mt_benchmark;
use minpsid_repro::workloads::{self, Benchmark};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The knapsack selections at the paper's three levels, profiled on the
/// reference input as SID does, plus two seeded random selections.
fn selections(b: &Benchmark, cfg: &CampaignConfig) -> Vec<Selection> {
    let module = b.compile();
    let input = b.model.materialize(&b.model.reference());
    let golden = golden_run(&module, &input, cfg).expect("the reference input exits");
    let per_inst = per_instruction_campaign(&module, &input, &golden, cfg);
    let cb = CostBenefit::build(&module, &golden, &per_inst);
    let mut out: Vec<Selection> = [0.3, 0.5, 0.7]
        .iter()
        .map(|&level| select(&module, &cb, level, false).0)
        .collect();
    out.push(random_selection(&module, 25, cfg.seed));
    out.push(random_selection(&module, 75, cfg.seed + 1));
    out
}

/// Check every selection of `b` on each of `inputs`; the faults checked.
fn check_kernel(b: &Benchmark, cfg: &CampaignConfig, inputs: &[ProgInput]) -> Checked {
    let module = b.compile();
    let selections = selections(b, cfg);
    let mut total = Checked::default();
    for input in inputs {
        let c = check(&module, input, cfg, &selections)
            .unwrap_or_else(|| panic!("{}: the original rejects the input", b.name));
        total.unselected += c.unselected;
        total.selected += c.selected;
    }
    assert!(
        total.unselected > 0 && total.selected > 0,
        "{}: {total:?}",
        b.name
    );
    total
}

#[test]
fn one_campaign_on_the_original_decides_every_selection() {
    let cfg = CampaignConfig {
        injections: 200,
        per_inst_injections: 4,
        seed: 42,
        ..CampaignConfig::default()
    };
    let mut kernels: Vec<Benchmark> = ["fft", "knn", "hpccg"]
        .iter()
        .map(|name| workloads::by_name(name).expect("a suite kernel"))
        .collect();
    kernels.push(mt_benchmark(2));
    for b in &kernels {
        let reference = b.model.materialize(&b.model.reference());
        check_kernel(b, &cfg, &[reference]);
    }
}

/// The probe's scale: every suite kernel under its reference input and
/// two valid random inputs, 1,000 faults each.
#[test]
#[ignore = "probe scale: ~15 s in release (scripts/ci.sh runs it)"]
fn one_campaign_rule_holds_at_probe_scale() {
    let cfg = CampaignConfig {
        injections: 1000,
        per_inst_injections: 20,
        seed: 42,
        ..CampaignConfig::default()
    };
    let mut total = Checked::default();
    for b in workloads::suite() {
        let module = b.compile();
        let mut inputs = vec![b.model.materialize(&b.model.reference())];
        let mut rng = StdRng::seed_from_u64(7);
        while inputs.len() < 3 {
            let input = b.model.materialize(&b.model.random(&mut rng));
            if golden_run(&module, &input, &cfg).is_ok() {
                inputs.push(input);
            }
        }
        let c = check_kernel(&b, &cfg, &inputs);
        eprintln!("{}: {c:?}", b.name);
        total.unselected += c.unselected;
        total.selected += c.selected;
    }
    eprintln!("suite: {total:?}");
}
