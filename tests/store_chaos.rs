//! Chaos matrix for the self-verifying artifact store: a flipped bit in
//! ANY stored artifact class — golden-run metadata, checkpoint store,
//! sealed section table, compacted journal WAL snapshot — must be detected by digest
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

/// Artifact classes `golden`, `ckpt` and `table`: every artifact the
/// first run persists rots; the next invocation detects each on load, quarantines
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
    let tables2 = r2.table_stats.expect("store-backed runs memoize sections");
    assert!(
        tables2.sections_recomputed > 0,
        "rotten section tables are quarantined and re-run: {tables2:?}"
    );
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
    let tables3 = r3.table_stats.expect("store-backed runs memoize sections");
    assert!(
        tables3.sections_hit > 0,
        "resealed section tables are served: {tables3:?}"
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

/// The on-disk image of one journaled, store-backed run: xsbench at the
/// CLI's `--quick` counts on one thread, journal and store in a fresh
/// directory, compacted at the end. One FNV covers the sorted ref lines
/// (`kind name digest`) under `refs/` and then the bytes of
/// `campaign.wal`. Every ref name, object byte and WAL frame the three
/// persistence clients — golden cache, section tables, WAL snapshots —
/// write enters it, so a change that moves any of them moves the pin.
#[test]
fn journaled_store_backed_run_leaves_a_pinned_image() {
    use minpsid_repro::ir::bytes::Fnv;
    const PIN: u64 = 0x07cd_52c9_ea9d_db54;

    let b = workloads::by_name("xsbench").expect("xsbench");
    let module = b.compile();
    let mut cfg = MinpsidConfig {
        campaign: CampaignConfig {
            threads: 1,
            ..CampaignConfig::quick(42)
        },
        ..MinpsidConfig::default()
    };
    cfg.ga.population = 4;
    cfg.ga.max_generations = 3;
    cfg.max_inputs = 4;

    let dir = tmpdir("pin");
    let store_dir = dir.join("store");
    let store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
    let cache = GoldenCache::with_store(0, store.clone());
    let j = CampaignJournal::open(
        &dir,
        module_fingerprint(&module),
        minpsid_config_fingerprint(&cfg),
        Some(store),
    )
    .unwrap();
    run_minpsid_journaled(&module, b.model.as_ref(), &cfg, &cache, &j).unwrap();
    j.compact().unwrap();
    drop(j);

    let mut refs = Vec::new();
    for kind in std::fs::read_dir(store_dir.join("refs")).unwrap() {
        let kind = kind.unwrap().path();
        for r in std::fs::read_dir(&kind).unwrap() {
            let r = r.unwrap().path();
            let name = r.file_name().unwrap().to_string_lossy().into_owned();
            let Some(name) = name.strip_suffix(".ref") else {
                continue;
            };
            let hex = std::fs::read_to_string(&r).unwrap();
            let kind = kind.file_name().unwrap().to_string_lossy().into_owned();
            refs.push(format!("{kind} {name} {}", hex.trim()));
        }
    }
    refs.sort();
    let kinds: std::collections::BTreeSet<&str> =
        refs.iter().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["ckpt", "golden", "table", "wal"],
        "every client published"
    );
    let mut h = Fnv::new();
    for line in &refs {
        h.bytes(line.as_bytes());
    }
    h.bytes(&std::fs::read(dir.join("campaign.wal")).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(h.finish(), PIN, "the on-disk image moved");
}
