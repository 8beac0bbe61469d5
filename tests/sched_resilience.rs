//! Integration test for the campaign scheduler's deadline: a run whose
//! wall-clock deadline expires still terminates with an honest, annotated
//! report, and resuming its journal under a looser (or absent) budget
//! converges to exactly the result an unbounded run produces.

use minpsid_repro::faultsim::CampaignConfig;
use minpsid_repro::journal::CampaignJournal;
use minpsid_repro::minpsid::{
    minpsid_config_fingerprint, module_fingerprint, run_minpsid, run_minpsid_journaled, GaConfig,
    GoldenCache, MinpsidConfig, MinpsidResult, SearchStrategy,
};
use minpsid_repro::workloads;
use std::path::PathBuf;

fn tiny_minpsid(seed: u64) -> MinpsidConfig {
    MinpsidConfig {
        protection_level: 0.6,
        campaign: CampaignConfig {
            injections: 80,
            per_inst_injections: 6,
            seed,
            ..CampaignConfig::default()
        },
        ga: GaConfig {
            population: 5,
            max_generations: 3,
            seed,
            ..GaConfig::default()
        },
        max_inputs: 3,
        stagnation_patience: 2,
        strategy: SearchStrategy::Genetic,
        ..MinpsidConfig::default()
    }
}

fn journal_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "minpsid-sched-resilience-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn same_result(a: &MinpsidResult, b: &MinpsidResult) {
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.incubative, b.incubative);
    assert_eq!(a.incubative_history, b.incubative_history);
    assert_eq!(a.inputs_searched, b.inputs_searched);
    assert_eq!(a.expected_coverage, b.expected_coverage);
}

/// The satellite acceptance story end to end: an already-expired deadline
/// truncates the whole campaign (completeness < 1, nothing lost, report
/// still produced), its journal resumes under no deadline to the exact
/// full-run result, and the deadline never participates in the journal's
/// config fingerprint.
#[test]
fn deadline_truncated_run_resumes_to_the_full_report() {
    let suite = workloads::suite();
    let b = suite.first().expect("non-empty suite");
    let module = b.compile();
    let cfg = tiny_minpsid(9);
    let full = run_minpsid(&module, b.model.as_ref(), &cfg).unwrap();
    assert_eq!(full.sched.completeness(), 1.0);
    assert_eq!(full.sched.accounted(), full.sched.planned);

    let mut truncated_cfg = cfg.clone();
    truncated_cfg.deadline_secs = Some(0.0); // expired before any work
    assert_eq!(
        minpsid_config_fingerprint(&cfg),
        minpsid_config_fingerprint(&truncated_cfg),
        "the deadline must not re-key the journal"
    );

    let mfp = module_fingerprint(&module);
    let cfp = minpsid_config_fingerprint(&cfg);
    let dir = journal_dir("deadline");

    // phase 1: run out of budget immediately — still Ok, still a report,
    // honestly annotated, with every planned injection accounted for
    {
        let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
        let partial = run_minpsid_journaled(
            &module,
            b.model.as_ref(),
            &truncated_cfg,
            &GoldenCache::new(),
            &journal,
        )
        .unwrap();
        assert_eq!(partial.inputs_searched, 0, "no search past the deadline");
        assert!(partial.sched.truncated > 0, "ref FI was truncated");
        assert!(
            partial.sched.completeness() < 1.0,
            "a truncated run must confess: {:?}",
            partial.sched
        );
        assert_eq!(
            partial.sched.accounted(),
            partial.sched.planned,
            "zero lost injections even when the budget is zero"
        );
    }

    // phase 2: resume the same journal with no deadline — converges to
    // the full report, bit-identical to the never-bounded run
    {
        let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
        let resumed = run_minpsid_journaled(
            &module,
            b.model.as_ref(),
            &cfg,
            &GoldenCache::new(),
            &journal,
        )
        .unwrap();
        same_result(&full, &resumed);
        assert_eq!(resumed.sched.completeness(), 1.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
