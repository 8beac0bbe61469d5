//! Chaos matrix for the self-verifying artifact store: a flipped bit in
//! ANY stored artifact class — golden-run metadata, checkpoint store,
//! compacted journal WAL snapshot — must be detected by digest
//! verification, quarantined, and healed by recompute, with the final
//! result identical to an uncorrupted run.
//! Corruption may cost time; it must never change an answer.
//!
//! The `--chaos-flip-artifact-one-in` knob (here the per-store
//! [`ArtifactStore::set_chaos_flip`]) flips one bit in a published
//! object between write and read, at most once per digest — modeling a
//! single at-rest rot event per artifact.

use minpsid_repro::faultsim::{CampaignConfig, CampaignJournal};
use minpsid_repro::minpsid::{
    minpsid_config_fingerprint, module_fingerprint, run_minpsid, run_minpsid_cached,
    run_minpsid_journaled, GaConfig, GoldenCache, MinpsidConfig, MinpsidResult, SearchStrategy,
};
use minpsid_repro::store::ArtifactStore;
use minpsid_repro::workloads;
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_minpsid(seed: u64) -> MinpsidConfig {
    MinpsidConfig {
        protection_level: 0.6,
        campaign: CampaignConfig {
            injections: 60,
            per_inst_injections: 4,
            seed,
            ..CampaignConfig::default()
        },
        ga: GaConfig {
            population: 4,
            max_generations: 2,
            seed,
            ..GaConfig::default()
        },
        max_inputs: 3,
        stagnation_patience: 2,
        strategy: SearchStrategy::Genetic,
        ..MinpsidConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn same_result(a: &MinpsidResult, b: &MinpsidResult) {
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.incubative, b.incubative);
    assert_eq!(a.inputs_searched, b.inputs_searched);
    assert_eq!(a.expected_coverage, b.expected_coverage);
}

/// Artifact classes `golden` and `ckpt`: every artifact the first run
/// persists rots; the next invocation detects each on load, quarantines
/// it, recomputes, and republishes — and a third invocation is served
/// verified bytes again.
#[test]
fn flipped_golden_and_checkpoint_artifacts_recompute_identically() {
    let suite = workloads::suite();
    let b = suite.first().expect("non-empty suite");
    let module = b.compile();
    let cfg = tiny_minpsid(11);
    let plain = run_minpsid(&module, b.model.as_ref(), &cfg).unwrap();

    let dir = tmpdir("golden");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    store.set_chaos_flip(1); // rot every published artifact once
    let cache = GoldenCache::with_store(0, store.clone());
    let r1 = run_minpsid_cached(&module, b.model.as_ref(), &cfg, &cache).unwrap();
    same_result(&plain, &r1);

    // Second invocation over the rotten store: nothing corrupt is ever
    // served — every load fails verification and recomputes.
    let store2 = Arc::new(ArtifactStore::open(&dir).unwrap());
    let cache2 = GoldenCache::with_store(0, store2.clone());
    let r2 = run_minpsid_cached(&module, b.model.as_ref(), &cfg, &cache2).unwrap();
    same_result(&plain, &r2);
    assert_eq!(
        cache2.disk_hits(),
        0,
        "rotten artifacts never count as hits"
    );
    assert!(cache2.misses() > 0, "corruption degrades to recompute");
    assert!(
        store2.quarantined_count().unwrap() > 0,
        "corrupt objects were quarantined, not deleted or served"
    );

    // Third invocation: the republished artifacts verify; served from disk.
    let store3 = Arc::new(ArtifactStore::open(&dir).unwrap());
    let cache3 = GoldenCache::with_store(0, store3.clone());
    let r3 = run_minpsid_cached(&module, b.model.as_ref(), &cfg, &cache3).unwrap();
    same_result(&plain, &r3);
    assert!(
        cache3.disk_hits() > 0,
        "healed store serves verified artifacts"
    );
    assert!(!store3.scrub().unwrap().found_corruption());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Artifact class `wal`: the compacted journal snapshot rots. Reopening
/// the journal quarantines the snapshot, the live WAL stands alone as
/// the source of truth, and the replayed run is identical; recompaction
/// republishes a verifiable snapshot.
#[test]
fn flipped_wal_snapshot_quarantines_and_live_log_stays_authoritative() {
    let suite = workloads::suite();
    let b = suite.first().expect("non-empty suite");
    let module = b.compile();
    let cfg = tiny_minpsid(13);
    let plain = run_minpsid(&module, b.model.as_ref(), &cfg).unwrap();
    let mfp = module_fingerprint(&module);
    let cfp = minpsid_config_fingerprint(&cfg);

    let dir = tmpdir("wal");
    let store_dir = dir.join("store");
    {
        let store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
        store.set_chaos_flip(1);
        let j = CampaignJournal::open(&dir, mfp, cfp, Some(store)).unwrap();
        let r1 = run_minpsid_journaled(&module, b.model.as_ref(), &cfg, &GoldenCache::new(), &j)
            .unwrap();
        same_result(&plain, &r1);
        j.compact().unwrap(); // publishes the snapshot — rotted by chaos
    }

    // Reopen: the rotten snapshot is quarantined; the live WAL alone
    // serves the replay, which is bit-identical.
    let store2 = Arc::new(ArtifactStore::open(&store_dir).unwrap());
    let j2 = CampaignJournal::open(&dir, mfp, cfp, Some(store2.clone())).unwrap();
    assert!(
        store2.quarantined_count().unwrap() >= 1,
        "corrupt snapshot was quarantined on open"
    );
    let r2 =
        run_minpsid_journaled(&module, b.model.as_ref(), &cfg, &GoldenCache::new(), &j2).unwrap();
    same_result(&plain, &r2);

    // Recompaction republishes; the store scrubs clean again.
    j2.compact().unwrap();
    drop(j2);
    let store3 = ArtifactStore::open(&store_dir).unwrap();
    let report = store3.scrub().unwrap();
    assert!(!report.found_corruption());
    assert!(
        report.dangling_refs.is_empty(),
        "recompaction re-pointed the wal ref at a live object"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
