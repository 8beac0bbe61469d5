//! Cross-crate integration tests: the full front-end → interpreter →
//! fault-injection → SID → MINPSID pipeline over the real benchmark suite.

use minpsid_repro::faultsim::{golden_run, CampaignConfig};
use minpsid_repro::interp::{ExecConfig, Interp};
use minpsid_repro::minpsid::{
    reference_profile, run_minpsid_from, GaConfig, GoldenCache, MinpsidConfig, SearchStrategy,
};
use minpsid_repro::sid::{measure_unprotected, run_sid, select, SidConfig};
use minpsid_repro::workloads;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections: 80,
        per_inst_injections: 6,
        seed,
        ..CampaignConfig::default()
    }
}

fn tiny_minpsid(seed: u64) -> MinpsidConfig {
    MinpsidConfig {
        protection_level: 0.6,
        campaign: tiny_campaign(seed),
        ga: GaConfig {
            population: 5,
            max_generations: 3,
            seed,
            ..GaConfig::default()
        },
        max_inputs: 4,
        stagnation_patience: 2,
        strategy: SearchStrategy::Genetic,
        ..MinpsidConfig::default()
    }
}

/// SID's transform must never change program semantics: for every
/// benchmark, the protected binary produces bit-identical output on
/// random inputs it was *not* tuned for.
#[test]
fn protection_preserves_semantics_across_the_whole_suite() {
    for b in workloads::suite() {
        let module = b.compile();
        let ref_input = b.model.materialize(&b.model.reference());
        let sid = run_sid(
            &module,
            &ref_input,
            &SidConfig {
                protection_level: 0.5,
                campaign: tiny_campaign(1),
            },
        )
        .unwrap_or_else(|t| panic!("{}: {t:?}", b.name));

        let mut rng = StdRng::seed_from_u64(7);
        let mut checked = 0;
        while checked < 3 {
            let input = b.model.materialize(&b.model.random(&mut rng));
            let orig = Interp::new(&module, ExecConfig::default()).run(&input);
            if !orig.exited() {
                continue; // invalid random input: skipped, like the paper
            }
            let prot = Interp::new(&sid.protected, ExecConfig::default()).run(&input);
            assert!(prot.exited(), "{}: protected run failed", b.name);
            assert_eq!(
                orig.output, prot.output,
                "{}: protection changed the output",
                b.name
            );
            assert!(
                prot.steps >= orig.steps,
                "{}: duplication adds work",
                b.name
            );
            checked += 1;
        }
    }
}

/// The headline claim on the paper's worst benchmark (Kmeans): MINPSID's
/// worst-case coverage over random inputs is at least the baseline's.
#[test]
fn minpsid_does_not_lose_to_baseline_on_kmeans() {
    let b = workloads::by_name("kmeans").unwrap();
    let module = b.compile();
    let cfg = tiny_minpsid(3);
    // baseline SID and MINPSID from one reference profile
    let reference =
        reference_profile(&module, b.model.as_ref(), &cfg, &GoldenCache::new()).unwrap();
    let (baseline, _) = select(&module, &reference.cb, cfg.protection_level, cfg.use_dp);
    let hardened = run_minpsid_from(&module, b.model.as_ref(), &cfg, &reference).unwrap();
    assert!(
        !hardened.incubative.is_empty(),
        "kmeans must show incubative insts"
    );

    let mut rng = StdRng::seed_from_u64(11);
    let mut base_min = f64::INFINITY;
    let mut hard_min = f64::INFINITY;
    let mut n = 0;
    while n < 4 {
        let input = b.model.materialize(&b.model.random(&mut rng));
        let Ok(measured) = measure_unprotected(&module, &input, &cfg.campaign) else {
            continue;
        };
        base_min = base_min.min(measured.coverage(&baseline));
        hard_min = hard_min.min(measured.coverage(&hardened.selection));
        n += 1;
    }
    // noise slack: a tiny campaign carries wide error bars
    assert!(
        hard_min >= base_min - 0.10,
        "MINPSID worst-case {hard_min:.3} vs baseline {base_min:.3}"
    );
}

/// Golden runs of all benchmarks are deterministic (the foundation of the
/// whole FI methodology).
#[test]
fn golden_runs_are_deterministic() {
    for b in workloads::suite() {
        let module = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let cfg = tiny_campaign(1);
        let a = golden_run(&module, &input, &cfg).unwrap();
        let g = golden_run(&module, &input, &cfg).unwrap();
        assert_eq!(a.output, g.output, "{}", b.name);
        assert_eq!(a.steps, g.steps, "{}", b.name);
        assert_eq!(
            a.profile.indexed_cfg_list(),
            g.profile.indexed_cfg_list(),
            "{}",
            b.name
        );
    }
}

/// The compile → print → module path stays verified for every benchmark.
#[test]
fn all_benchmarks_print_and_reverify() {
    for b in workloads::suite() {
        let module = b.compile();
        minpsid_repro::ir::verify_module(&module).unwrap_or_else(|e| panic!("{}: {e:?}", b.name));
        let text = minpsid_repro::ir::printer::print_module(&module);
        assert!(text.contains("fn main()"), "{}", b.name);
        assert!(text.len() > 500, "{}: suspiciously short IR", b.name);
    }
}

/// MINPSID's expected coverage is never higher than what full protection
/// would promise, and its conservative profile never *reduces* the
/// benefit of non-incubative instructions.
#[test]
fn reprioritized_profile_is_conservative() {
    let b = workloads::by_name("fft").unwrap();
    let module = b.compile();
    let cfg = tiny_minpsid(5);
    let reference =
        reference_profile(&module, b.model.as_ref(), &cfg, &GoldenCache::new()).unwrap();
    let hardened = run_minpsid_from(&module, b.model.as_ref(), &cfg, &reference).unwrap();
    for i in 0..module.num_insts() {
        assert!(
            hardened.cost_benefit.benefit[i] >= reference.cb.benefit[i] - 1e-12,
            "benefit can only be raised by re-prioritization (inst {i})"
        );
    }
}
