//! Integration tests for the crash-safe campaign journal: an interrupted
//! MINPSID run resumed from its journal must produce a bit-identical
//! result.

use minpsid_repro::faultsim::{interrupt, CampaignConfig, CampaignJournal};
use minpsid_repro::minpsid::{
    minpsid_config_fingerprint, module_fingerprint, run_minpsid, run_minpsid_journaled, GaConfig,
    GoldenCache, MinpsidConfig, MinpsidResult, PipelineError, SearchStrategy,
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
        "minpsid-integration-journal-{name}-{}",
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

/// The full resume story on a real benchmark, in one test so nothing
/// races the process-wide interrupt flag: fresh-journaled == plain,
/// interrupt → Err(Interrupted) with progress kept, resume == plain.
#[test]
fn interrupted_minpsid_run_resumes_bit_identically() {
    let suite = workloads::suite();
    let b = suite.first().expect("non-empty suite");
    let module = b.compile();
    let cfg = tiny_minpsid(5);
    let plain = run_minpsid(&module, b.model.as_ref(), &cfg).unwrap();

    let mfp = module_fingerprint(&module);
    let cfp = minpsid_config_fingerprint(&cfg);

    // interrupt immediately: the run stops cleanly, journaling whatever
    // completed before the first poll
    let dir = journal_dir("resume");
    {
        let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
        interrupt::request();
        let r = run_minpsid_journaled(
            &module,
            b.model.as_ref(),
            &cfg,
            &GoldenCache::new(),
            &journal,
        );
        interrupt::clear();
        assert!(
            matches!(r, Err(PipelineError::Interrupted)),
            "interrupt propagates"
        );
    }

    // resume with a fresh cache and a reopened journal: bit-identical
    let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
    let resumed = run_minpsid_journaled(
        &module,
        b.model.as_ref(),
        &cfg,
        &GoldenCache::new(),
        &journal,
    )
    .unwrap();
    same_result(&plain, &resumed);

    // run once more over the now-complete journal: everything is served
    drop(journal);
    let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
    let replayed = run_minpsid_journaled(
        &module,
        b.model.as_ref(),
        &cfg,
        &GoldenCache::new(),
        &journal,
    )
    .unwrap();
    same_result(&plain, &replayed);
    let (served, appended) = journal.usage();
    assert!(served > 0, "completed journal serves the injections");
    assert!(
        appended <= 1,
        "replay appends at most the selection record, got {appended}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
