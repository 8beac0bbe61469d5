//! A shared cache of golden runs keyed by (module fingerprint, input
//! fingerprint, config fingerprint).
//!
//! Golden runs are pure functions of (module, input, limits): the
//! interpreter is deterministic, so recomputing one is always wasted work.
//! The pipeline hits the same (module, input) pair repeatedly — the
//! reference input is profiled by baseline SID *and* MINPSID, experiment
//! drivers re-evaluate the same inputs at several protection levels, and a
//! GA search can propose duplicate parameter vectors — and with
//! checkpointed golden runs each recomputation also rebuilds the whole
//! snapshot store. [`GoldenCache`] memoizes them behind an `Arc` so
//! concurrent campaign threads share one copy.
//!
//! Fingerprints are FNV-1a over a stable rendering of the value. Module
//! fingerprints hash the full IR (any transform — e.g. SID duplication —
//! changes it); input fingerprints hash scalar args and data streams
//! bit-exactly; config fingerprints hash only the fields that influence
//! the golden run (interpreter limits and checkpoint knobs — not seeds,
//! thread counts, or injection counts).

use minpsid_faultsim::{golden_run_sized, CampaignConfig, ConfigKey, GoldenRun};
use minpsid_interp::{Output, ProgInput, Termination};
use minpsid_ir::bytes::Fnv;
use minpsid_ir::Module;
use minpsid_store::ArtifactStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Store artifact class for a golden run's meta (output+profile+steps).
pub const GOLDEN_ARTIFACT: &str = "golden";
/// Store artifact class for a golden run's checkpoint store.
pub const CKPT_ARTIFACT: &str = "ckpt";

/// Structural fingerprint of a module: any change to functions, blocks, or
/// instructions changes it.
pub fn module_fingerprint(module: &Module) -> u64 {
    let mut h = Fnv::new();
    h.text(format_args!("{module:?}"));
    h.finish()
}

/// [`ProgInput::fingerprint`] under the name this crate's callers import.
pub fn input_fingerprint(input: &ProgInput) -> u64 {
    input.fingerprint()
}

/// [`Output::key`] alone: the digest the crash-safe journal stores to
/// verify that a resumed run's recomputed golden runs match the originals.
pub fn output_fingerprint(output: &Output) -> u64 {
    let mut h = Fnv::new();
    output.key(&mut h);
    h.finish()
}

/// The golden-run store ref's config part: [`ConfigKey::Golden`].
pub fn config_fingerprint(cfg: &CampaignConfig) -> u64 {
    let mut h = Fnv::new();
    cfg.key(ConfigKey::Golden, &mut h);
    h.finish()
}

type Key = (u64, u64, u64);

/// Store ref name of a golden run: the fingerprint triple, hex.
fn ref_name((m, i, c): Key) -> String {
    format!("{m:016x}-{i:016x}-{c:016x}")
}

/// A cached golden run stamped with its last-use tick for LRU eviction.
struct Entry {
    run: Arc<GoldenRun>,
    tick: u64,
}

/// Thread-safe memo table for golden runs. Cheap to share (`Arc` it, or
/// borrow it down a pipeline); entries are `Arc<GoldenRun>` so campaign
/// fan-out reads one shared copy of the profile and checkpoint store.
///
/// Checkpointed golden runs can hold megabytes of snapshot state each, so
/// long experiment sweeps bound the cache with [`GoldenCache::with_capacity`]:
/// when full, the least-recently-used entry is evicted before inserting a
/// new one. The default capacity is unbounded (`cap == 0`), preserving the
/// old behaviour for short pipelines.
/// With [`GoldenCache::with_store`], evicted or cold entries fall back
/// to a content-addressed on-disk tier that survives process restarts:
/// each golden run is persisted as two independently corruptible
/// artifacts (`golden` meta and `ckpt` checkpoint store). Loads are
/// digest-verified by the store — an artifact that rots on disk is
/// quarantined and the run is recomputed and republished, never served
/// corrupt.
#[derive(Default)]
pub struct GoldenCache {
    map: Mutex<HashMap<Key, Entry>>,
    cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    store: Option<Arc<ArtifactStore>>,
    disk_hits: AtomicU64,
}

impl GoldenCache {
    pub fn new() -> Self {
        GoldenCache::default()
    }

    /// A cache holding at most `cap` golden runs (`0` = unbounded). At
    /// capacity, inserting a new entry first evicts the one with the
    /// oldest last-use tick.
    pub fn with_capacity(cap: usize) -> Self {
        GoldenCache {
            cap,
            ..GoldenCache::default()
        }
    }

    /// A capped cache backed by a content-addressed artifact store:
    /// entries missing from memory are loaded (digest-verified) from the
    /// store, and fresh computes are published back, so golden runs
    /// survive across CLI invocations.
    pub fn with_store(cap: usize, store: Arc<ArtifactStore>) -> Self {
        GoldenCache {
            cap,
            store: Some(store),
            ..GoldenCache::default()
        }
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The backing artifact store, if one is attached.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// The golden run of (module, input) under `cfg`, computed at most
    /// once per fingerprint triple while resident. Failed runs
    /// (non-exiting inputs) are not cached — the paper's pipeline filters
    /// those inputs out anyway.
    pub fn golden(
        &self,
        module: &Module,
        input: &ProgInput,
        cfg: &CampaignConfig,
    ) -> Result<Arc<GoldenRun>, Termination> {
        self.golden_sized(module, input, cfg, None)
    }

    /// [`GoldenCache::golden`] with the run's length, when the caller
    /// already knows it, handed to a miss's compute (see
    /// [`golden_run_sized`]). The entry is the same either way.
    pub fn golden_sized(
        &self,
        module: &Module,
        input: &ProgInput,
        cfg: &CampaignConfig,
        steps: Option<u64>,
    ) -> Result<Arc<GoldenRun>, Termination> {
        let key = (
            module_fingerprint(module),
            input_fingerprint(input),
            config_fingerprint(cfg),
        );
        if let Some(e) = self.map.lock().unwrap().get_mut(&key) {
            e.tick = self.tick.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&e.run));
        }
        // Disk tier: a verified load from the store skips the recompute.
        // A corrupt artifact was already quarantined by the store — it
        // can never be served — so we fall through to recompute.
        if let Some(g) = self.load_from_store(key, cfg) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.insert(key, &g);
            return Ok(g);
        }
        // Compute outside the lock so concurrent misses on different keys
        // don't serialize. Two threads racing on the *same* key compute
        // identical results (determinism), so last-write-wins is benign.
        let g = Arc::new(golden_run_sized(module, input, cfg, steps)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.publish_to_store(key, &g);
        self.insert(key, &g);
        Ok(g)
    }

    fn insert(&self, key: Key, g: &Arc<GoldenRun>) {
        let mut map = self.map.lock().unwrap();
        if self.cap > 0 && !map.contains_key(&key) && map.len() >= self.cap {
            let oldest = map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            key,
            Entry {
                run: Arc::clone(g),
                tick: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
    }

    /// Verified load of both wire artifacts from the store. `None` on
    /// any miss the store reports ([`ArtifactStore::get`]) or a wire
    /// decode error: all degrade to recompute.
    fn load_from_store(&self, key: Key, cfg: &CampaignConfig) -> Option<Arc<GoldenRun>> {
        let store = self.store.as_ref()?;
        let name = ref_name(key);
        let meta = store.get(GOLDEN_ARTIFACT, &name).ok()?;
        let ckpt = store.get(CKPT_ARTIFACT, &name).ok()?;
        GoldenRun::decode(&meta, &ckpt, &cfg.exec)
            .ok()
            .map(Arc::new)
    }

    /// Best-effort publish of a freshly computed run; persistence
    /// failures degrade to a cold cache, never to a wrong result.
    fn publish_to_store(&self, key: Key, g: &GoldenRun) {
        if let Some(store) = &self.store {
            let name = ref_name(key);
            let _ = store
                .put(GOLDEN_ARTIFACT, &name, &g.encode_meta())
                .and_then(|()| store.put(CKPT_ARTIFACT, &name, &g.encode_checkpoints()));
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// How many entries LRU pressure has pushed out so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Golden runs served from the on-disk store tier (verified loads
    /// that skipped a recompute).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
    }
}

impl std::fmt::Debug for GoldenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoldenCache")
            .field("entries", &self.len())
            .field("capacity", &self.cap)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .field("disk_hits", &self.disk_hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::{OutputItem, Scalar};

    fn module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                for i = 0 to n { acc = acc + i * i; }
                out_i(acc);
            }
            "#,
            "cache-test",
        )
        .unwrap()
    }

    fn input(n: i64) -> ProgInput {
        ProgInput::scalars(vec![Scalar::I(n)])
    }

    #[test]
    fn repeated_lookups_hit() {
        let m = module();
        let cache = GoldenCache::new();
        let cfg = CampaignConfig::quick(1);
        let a = cache.golden(&m, &input(30), &cfg).unwrap();
        let b = cache.golden(&m, &input(30), &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup returns the cached Arc");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_inputs_and_modules_miss() {
        let m = module();
        let cache = GoldenCache::new();
        let cfg = CampaignConfig::quick(1);
        cache.golden(&m, &input(30), &cfg).unwrap();
        cache.golden(&m, &input(31), &cfg).unwrap();
        assert_eq!(cache.misses(), 2);

        let m2 = minic::compile("fn main() { out_i(arg_i(0)); }", "other").unwrap();
        cache.golden(&m2, &input(30), &cfg).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn config_knobs_that_change_the_golden_run_miss() {
        let m = module();
        let cache = GoldenCache::new();
        let a = CampaignConfig::quick(1);
        let mut b = CampaignConfig::quick(1);
        b.checkpoints = minpsid_faultsim::CheckpointPolicy::Disabled;
        cache.golden(&m, &input(30), &a).unwrap();
        cache.golden(&m, &input(30), &b).unwrap();
        assert_eq!(cache.misses(), 2, "checkpoint policy changes the entry");

        let mut d = CampaignConfig::quick(1);
        d.snapshot_mode = minpsid_faultsim::SnapshotMode::Full;
        cache.golden(&m, &input(30), &d).unwrap();
        assert_eq!(cache.misses(), 3, "snapshot encoding changes the entry");

        // seed/threads/injections do not change golden runs -> hit
        let mut c = CampaignConfig::quick(999);
        c.threads = 1;
        c.injections = 5;
        cache.golden(&m, &input(30), &c).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn failing_inputs_error_and_are_not_cached() {
        let m = minic::compile("fn main() { out_i(10 / arg_i(0)); }", "div").unwrap();
        let cache = GoldenCache::new();
        let cfg = CampaignConfig::quick(1);
        assert!(cache.golden(&m, &input(0), &cfg).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn input_fingerprint_is_bit_exact_for_floats() {
        let a = ProgInput::scalars(vec![Scalar::F(0.0)]);
        let b = ProgInput::scalars(vec![Scalar::F(-0.0)]);
        assert_ne!(input_fingerprint(&a), input_fingerprint(&b));
        assert_eq!(input_fingerprint(&a), input_fingerprint(&a.clone()));
    }

    #[test]
    fn output_fingerprint_is_bit_exact_and_order_sensitive() {
        let a = Output {
            items: vec![OutputItem::I(1), OutputItem::F(0.0)],
        };
        let b = Output {
            items: vec![OutputItem::I(1), OutputItem::F(-0.0)],
        };
        let c = Output {
            items: vec![OutputItem::F(0.0), OutputItem::I(1)],
        };
        assert_ne!(output_fingerprint(&a), output_fingerprint(&b));
        assert_ne!(output_fingerprint(&a), output_fingerprint(&c));
        assert_eq!(output_fingerprint(&a), output_fingerprint(&a.clone()));
    }

    #[test]
    fn capped_cache_evicts_least_recently_used() {
        let m = module();
        let cache = GoldenCache::with_capacity(2);
        let cfg = CampaignConfig::quick(1);
        cache.golden(&m, &input(10), &cfg).unwrap();
        cache.golden(&m, &input(11), &cfg).unwrap();
        // Touch 10 so 11 becomes the LRU entry, then insert a third.
        cache.golden(&m, &input(10), &cfg).unwrap();
        cache.golden(&m, &input(12), &cfg).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);

        // 10 survived, 11 was evicted (re-fetching it is a miss).
        let misses = cache.misses();
        cache.golden(&m, &input(10), &cfg).unwrap();
        assert_eq!(cache.misses(), misses, "10 was retained");
        cache.golden(&m, &input(11), &cfg).unwrap();
        assert_eq!(cache.misses(), misses + 1, "11 was evicted");
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("minpsid-cache-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_tier_survives_cache_instances() {
        let dir = store_dir("warm");
        let m = module();
        let cfg = CampaignConfig::quick(1);

        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let first = GoldenCache::with_store(0, store);
        let a = first.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!(first.misses(), 1);
        assert_eq!(first.disk_hits(), 0);

        // a fresh cache (fresh process, conceptually) over the same store
        // serves the run from disk without recomputing
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let second = GoldenCache::with_store(0, store);
        let b = second.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!(second.disk_hits(), 1);
        assert_eq!(second.misses(), 0);
        assert_eq!(b.output, a.output);
        assert_eq!(b.steps, a.steps);
        assert_eq!(b.checkpoints.len(), a.checkpoints.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: an entry whose persisted artifacts fail digest
    /// verification must be quarantined and recomputed — never served.
    /// The chaos-flip knob corrupts each published artifact in place.
    #[test]
    fn corrupt_store_entry_is_quarantined_and_recomputed() {
        let dir = store_dir("rot");
        let m = module();
        let cfg = CampaignConfig::quick(1);

        // flip a bit in every published artifact (one-in-1)
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        store.set_chaos_flip(1);
        let first = GoldenCache::with_store(0, store);
        let a = first.golden(&m, &input(30), &cfg).unwrap();

        // the rotted artifacts are detected on load, quarantined, and the
        // run recomputed; the result is correct, not the corrupt bytes
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let second = GoldenCache::with_store(0, Arc::clone(&store));
        let b = second.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!(second.disk_hits(), 0, "corrupt entry must not be served");
        assert_eq!(second.misses(), 1, "recomputed");
        assert_eq!(b.output, a.output);
        assert_eq!(b.steps, a.steps);
        assert!(store.quarantined_count().unwrap() >= 1);

        // recompute republished clean artifacts (the chaos marker files
        // record each digest as already flipped, so they stay clean):
        // a third instance now hits disk and scrub passes
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let third = GoldenCache::with_store(0, Arc::clone(&store));
        let c = third.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!(third.disk_hits(), 1);
        assert_eq!(c.output, a.output);
        assert!(!store.scrub().unwrap().found_corruption());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A golden image of another wire version (a store kept from an older
    /// binary) is a decode error: the run is recomputed and republished,
    /// and the next process serves the new image from disk.
    #[test]
    fn golden_image_of_another_wire_version_is_recomputed() {
        let dir = store_dir("version");
        let m = module();
        let cfg = CampaignConfig::quick(1);
        let key = (
            module_fingerprint(&m),
            input_fingerprint(&input(30)),
            config_fingerprint(&cfg),
        );
        let g = golden_run_sized(&m, &input(30), &cfg, None).unwrap();
        let mut old = g.encode_meta();
        let version = minpsid_interp::wire::WIRE_VERSION - 1;
        old[4..8].copy_from_slice(&version.to_le_bytes());
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        store.put(GOLDEN_ARTIFACT, &ref_name(key), &old).unwrap();
        store
            .put(CKPT_ARTIFACT, &ref_name(key), &g.encode_checkpoints())
            .unwrap();

        let first = GoldenCache::with_store(0, Arc::clone(&store));
        first.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!(first.disk_hits(), 0, "an old image must not be served");
        assert_eq!(first.misses(), 1, "recomputed");
        let republished = store.get(GOLDEN_ARTIFACT, &ref_name(key)).unwrap();
        assert_eq!(republished, g.encode_meta());

        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let second = GoldenCache::with_store(0, store);
        let b = second.golden(&m, &input(30), &cfg).unwrap();
        assert_eq!((second.disk_hits(), second.misses()), (1, 0));
        assert_eq!(b.profile, g.profile);
        assert_eq!(b.encode_meta(), g.encode_meta());
        assert_eq!(b.encode_checkpoints(), g.encode_checkpoints());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let m = module();
        let cache = GoldenCache::new();
        assert_eq!(cache.capacity(), 0);
        let cfg = CampaignConfig::quick(1);
        for n in 0..8 {
            cache.golden(&m, &input(10 + n), &cfg).unwrap();
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.evictions(), 0);
    }
}
