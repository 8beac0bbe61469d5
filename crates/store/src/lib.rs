//! Self-verifying content-addressed artifact store.
//!
//! Every artifact is keyed by the SHA-256 of its bytes and lives at
//! `objects/<first 2 hex>/<64 hex>.obj`. Publishing is a crash-safe
//! two-phase write (hidden tmp sibling + fsync + rename + directory
//! fsync), so a partial publish is never visible under its final name.
//! Every load re-hashes the bytes and compares against the requested
//! digest: a mismatch is *never* returned to the caller — the object is
//! moved to `corrupt/` (quarantined) and the caller falls back to
//! recomputing the artifact (goldens, checkpoints, outcome tables, and
//! compacted WALs are all re-derivable). A flipped bit on disk therefore
//! costs one recomputation instead of a silently wrong campaign report.
//!
//! Human-readable names map onto digests through `refs/<kind>/<name>.ref`
//! files (one hex digest per file, also written two-phase). Clients use
//! one pair: [`ArtifactStore::put`] publishes and sets the ref, and
//! [`ArtifactStore::get`] resolves it and loads verified, deciding in one
//! place what a miss, an I/O error and a corrupt object mean.
//!
//! `scrub` walks every object and verifies it in place; `gc` drops
//! objects no ref points at; `ls` lists objects with their back-refs.
//! [`ArtifactStore::set_chaos_flip`] is the tests' hook: it flips one bit
//! in every Nth freshly published object — between write and read — to
//! prove end to end that corruption is detected, quarantined, and
//! recomputed, never consumed. A store opens with flipping off.

pub mod bytes;
mod digest;
pub use digest::{sha256, Digest};

use bytes::fnv64;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const OBJECTS: &str = "objects";
const CORRUPT: &str = "corrupt";
const REFS: &str = "refs";
const CHAOS: &str = "chaos";
const OBJ_EXT: &str = "obj";

/// Typed failure of a load by digest ([`ArtifactStore::load`]); named
/// artifacts go through [`ArtifactStore::get`], which reduces it to a
/// [`Miss`].
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// Digest verification failed; the object was quarantined to
    /// `quarantined` and will never be served.
    Corrupt {
        digest: Digest,
        quarantined: PathBuf,
    },
    /// No object with this digest exists (never published, garbage
    /// collected, or previously quarantined).
    Missing(Digest),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Corrupt {
                digest,
                quarantined,
            } => write!(
                f,
                "object {digest} failed digest verification; quarantined to {}",
                quarantined.display()
            ),
            StoreError::Missing(d) => write!(f, "object {d} not in store"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Why [`ArtifactStore::get`] served nothing. Either way the caller
/// recomputes the artifact and [`put`](ArtifactStore::put)s it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No ref, no object under it, or an I/O error reading either.
    Absent,
    /// The object failed verification and was quarantined.
    Quarantined,
}

/// What a full-store verification pass found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Objects examined (verified or quarantined).
    pub objects: u64,
    /// Total bytes hashed.
    pub bytes: u64,
    /// Objects that failed verification and were quarantined:
    /// `(hex digest, artifact class from refs — "object" if unreferenced)`.
    pub quarantined: Vec<(String, String)>,
    /// Refs whose target object does not exist (earlier quarantine or
    /// gc); the next campaign run recomputes these.
    pub dangling_refs: Vec<String>,
}

impl ScrubReport {
    /// True when this pass itself found and quarantined corruption.
    pub fn found_corruption(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// What a garbage-collection pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    pub kept: u64,
    pub removed: u64,
    pub bytes_freed: u64,
    /// Stale two-phase tmp files swept (crashed publishes).
    pub tmp_swept: u64,
}

/// One `ls` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsEntry {
    pub digest: Digest,
    pub bytes: u64,
    /// Back-references as `kind/name`, sorted.
    pub refs: Vec<String>,
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Crash-safe two-phase file write: the bytes land in a hidden tmp
/// sibling (`.{name}.tmp.{pid}.{seq}`), are fsynced, then renamed over
/// the final path, and the directory entry is fsynced too. A crash at
/// any point leaves either the old file or the new one — never a torn
/// mix — plus at worst a stale tmp sibling (swept by [`ArtifactStore::gc`]).
///
/// Exported because the journal's WAL compaction publishes through the
/// same machinery.
pub fn two_phase_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "two_phase_write: no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    // Test-only crash point: park between the durable tmp write and the
    // rename so a SIGKILL here must leave the final path untouched.
    if std::env::var_os("MINPSID_STORE_CRASH").is_some_and(|v| v == "hang-before-rename") {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    fs::rename(&tmp, path)?;
    File::open(&dir)?.sync_all()?;
    Ok(())
}

/// Claim the first free generation of `base` — `base`, then `base.1`,
/// `base.2`, … — with `claim`, which must create the candidate atomically
/// and fail with `AlreadyExists` when it is taken (`hard_link`,
/// `create_new`), so two processes quarantining under one name never
/// overwrite each other's evidence. Returns the path claimed.
///
/// Exported because the journal quarantines a WAL's severed suffix
/// through it.
pub fn claim_generation(
    base: &Path,
    mut claim: impl FnMut(&Path) -> io::Result<()>,
) -> io::Result<PathBuf> {
    for n in 0u32.. {
        let mut candidate = base.as_os_str().to_os_string();
        if n > 0 {
            candidate.push(format!(".{n}"));
        }
        let candidate = PathBuf::from(candidate);
        match claim(&candidate) {
            Ok(()) => return Ok(candidate),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u32 quarantine generations exhausted")
}

fn emit(op: &str, artifact: &str, bytes: u64) {
    minpsid_trace::emit(minpsid_trace::Event::StoreEvent {
        op: op.to_string(),
        artifact: artifact.to_string(),
        bytes,
    });
}

/// A content-addressed store rooted at one directory. Cheap to open;
/// safe to share across threads (all mutation happens through atomic
/// filesystem operations) and across processes (two CLI invocations may
/// open the same root independently).
pub struct ArtifactStore {
    root: PathBuf,
    /// Chaos: flip one bit in every Nth freshly published object
    /// (0 = off). Each distinct digest is flipped at most once, enforced
    /// cross-process by a marker file, so recomputed artifacts republish
    /// clean instead of looping forever.
    flip_one_in: AtomicU64,
    publishes: AtomicU64,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path) -> io::Result<ArtifactStore> {
        fs::create_dir_all(root.join(OBJECTS))?;
        fs::create_dir_all(root.join(CORRUPT))?;
        fs::create_dir_all(root.join(REFS))?;
        Ok(ArtifactStore {
            root: root.to_path_buf(),
            flip_one_in: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Set the chaos flip rate of this store instance (0 = off, the
    /// state it opens in).
    pub fn set_chaos_flip(&self, one_in: u64) {
        self.flip_one_in.store(one_in, Ordering::Relaxed);
    }

    fn object_path(&self, digest: &Digest) -> PathBuf {
        let hex = digest.hex();
        self.root
            .join(OBJECTS)
            .join(&hex[..2])
            .join(format!("{hex}.{OBJ_EXT}"))
    }

    /// Publish `bytes` as an object of artifact class `kind` (the class
    /// only labels trace events and `ls`; the address is the digest).
    /// Idempotent: republishing existing content is a no-op, and two
    /// racing publishers of the same bytes both succeed with intact
    /// content (atomic rename, identical payloads). The no-op path still
    /// verifies the resident object — if it rotted in place since it was
    /// published, it is quarantined and replaced with the fresh bytes
    /// rather than trusted by name.
    pub fn publish(&self, kind: &str, bytes: &[u8]) -> io::Result<Digest> {
        let digest = sha256(bytes);
        let path = self.object_path(&digest);
        match fs::read(&path) {
            Ok(existing) if sha256(&existing) == digest => {
                self.maybe_flip(kind, &digest, &path)?;
                return Ok(digest);
            }
            Ok(existing) => {
                self.quarantine_file(&path, &digest.hex())?;
                emit("quarantine", kind, existing.len() as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        fs::create_dir_all(path.parent().unwrap())?;
        two_phase_write(&path, bytes)?;
        emit("publish", kind, bytes.len() as u64);
        self.maybe_flip(kind, &digest, &path)?;
        Ok(digest)
    }

    /// Load and *verify* an object. A digest mismatch quarantines the
    /// object and returns [`StoreError::Corrupt`]; corrupt bytes are
    /// never returned.
    pub fn load(&self, kind: &str, digest: &Digest) -> Result<Vec<u8>, StoreError> {
        let path = self.object_path(digest);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(StoreError::Missing(*digest))
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        if sha256(&bytes) != *digest {
            let quarantined = self.quarantine_file(&path, &digest.hex())?;
            emit("quarantine", kind, bytes.len() as u64);
            return Err(StoreError::Corrupt {
                digest: *digest,
                quarantined,
            });
        }
        emit("load", kind, bytes.len() as u64);
        Ok(bytes)
    }

    fn ref_path(&self, kind: &str, name: &str) -> PathBuf {
        self.root.join(REFS).join(kind).join(format!("{name}.ref"))
    }

    /// Publish `bytes` as an object of `kind` and point
    /// `refs/<kind>/<name>` at it (two-phase, so a crash leaves either
    /// the old ref or the new one).
    pub fn put(&self, kind: &str, name: &str, bytes: &[u8]) -> io::Result<()> {
        let digest = self.publish(kind, bytes)?;
        let path = self.ref_path(kind, name);
        fs::create_dir_all(path.parent().unwrap())?;
        two_phase_write(&path, format!("{}\n", digest.hex()).as_bytes())
    }

    /// Resolve `refs/<kind>/<name>` and load its object, verified. An
    /// absent ref or object and an I/O error are [`Miss::Absent`]. A
    /// malformed ref is quarantined and reads as absent. An object that
    /// fails verification is quarantined, announced on stderr (loud by
    /// design, past `--quiet`: this is bit rot), and [`Miss::Quarantined`].
    pub fn get(&self, kind: &str, name: &str) -> Result<Vec<u8>, Miss> {
        let path = self.ref_path(kind, name);
        let text = fs::read_to_string(&path).map_err(|_| Miss::Absent)?;
        let Some(digest) = Digest::parse(&text) else {
            let _ = self.quarantine_file(&path, &format!("ref-{kind}-{name}"));
            emit("quarantine", kind, text.len() as u64);
            return Err(Miss::Absent);
        };
        match self.load(kind, &digest) {
            Ok(bytes) => Ok(bytes),
            Err(StoreError::Corrupt { quarantined, .. }) => {
                eprintln!(
                    "minpsid: STORE CORRUPTION: {kind} artifact {name} failed digest \
                     verification; quarantined to {} and recomputing",
                    quarantined.display(),
                );
                Err(Miss::Quarantined)
            }
            Err(_) => Err(Miss::Absent),
        }
    }

    /// Move a failed file into `corrupt/` under the first free generation
    /// of `tag` ([`claim_generation`]). Returns the quarantine path.
    fn quarantine_file(&self, path: &Path, tag: &str) -> io::Result<PathBuf> {
        let claimed = claim_generation(&self.root.join(CORRUPT).join(tag), |c| {
            fs::hard_link(path, c)
        })?;
        match fs::remove_file(path) {
            // a concurrent quarantiner of the same file removed it first
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(claimed),
        }
    }

    fn maybe_flip(&self, kind: &str, digest: &Digest, path: &Path) -> io::Result<()> {
        let one_in = self.flip_one_in.load(Ordering::Relaxed);
        if one_in == 0 {
            return Ok(());
        }
        let draw = self.publishes.fetch_add(1, Ordering::Relaxed) + 1;
        if !draw.is_multiple_of(one_in) {
            return Ok(());
        }
        // At most one flip per digest, ever, across all processes: the
        // recomputed artifact must republish clean or corruption-recovery
        // would loop forever. `create_new` is the cross-process lock.
        let markers = self.root.join(CHAOS);
        fs::create_dir_all(&markers)?;
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(markers.join(digest.hex()))
        {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(()),
            Err(e) => return Err(e),
        }
        let mut bytes = fs::read(path)?;
        if bytes.is_empty() {
            return Ok(());
        }
        let bit = (fnv64(&digest.0) as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Deliberately NOT two-phase: this simulates in-place bit rot.
        fs::write(path, &bytes)?;
        emit("chaos_flip", kind, bytes.len() as u64);
        Ok(())
    }

    /// All refs as `(kind, name, digest)`; malformed refs are skipped
    /// (they quarantine on read through [`ArtifactStore::get`]).
    fn walk_refs(&self) -> io::Result<Vec<(String, String, Digest)>> {
        let mut out = Vec::new();
        let refs_root = self.root.join(REFS);
        for kind_entry in read_dir_sorted(&refs_root)? {
            if !kind_entry.is_dir() {
                continue;
            }
            let kind = file_name_string(&kind_entry);
            for ref_entry in read_dir_sorted(&kind_entry)? {
                let fname = file_name_string(&ref_entry);
                if fname.starts_with('.') {
                    continue; // stale two-phase tmp
                }
                let Some(name) = fname.strip_suffix(".ref") else {
                    continue;
                };
                if let Ok(text) = fs::read_to_string(&ref_entry) {
                    if let Some(d) = Digest::parse(&text) {
                        out.push((kind.clone(), name.to_string(), d));
                    }
                }
            }
        }
        Ok(out)
    }

    /// All object files as `(path, hex stem, bytes)`. Dot-files (stale
    /// two-phase tmps) are skipped.
    fn walk_objects(&self) -> io::Result<Vec<(PathBuf, String, u64)>> {
        let mut out = Vec::new();
        for fan in read_dir_sorted(&self.root.join(OBJECTS))? {
            if !fan.is_dir() {
                continue;
            }
            for obj in read_dir_sorted(&fan)? {
                let fname = file_name_string(&obj);
                if fname.starts_with('.') {
                    continue;
                }
                let Some(stem) = fname.strip_suffix(&format!(".{OBJ_EXT}")) else {
                    continue;
                };
                let len = fs::metadata(&obj)?.len();
                out.push((obj, stem.to_string(), len));
            }
        }
        Ok(out)
    }

    /// Walk every object, re-hash it, and quarantine mismatches. Also
    /// reports refs whose target object has gone missing. Emits one
    /// `quarantine` event per corrupt object and a summary `scrub` event.
    pub fn scrub(&self) -> io::Result<ScrubReport> {
        let refs = self.walk_refs()?;
        let mut kind_of: HashMap<Digest, String> = HashMap::new();
        for (kind, _, d) in &refs {
            kind_of.entry(*d).or_insert_with(|| kind.clone());
        }
        let mut report = ScrubReport::default();
        for (path, stem, len) in self.walk_objects()? {
            report.objects += 1;
            report.bytes += len;
            let bytes = fs::read(&path)?;
            let expected = Digest::parse(&stem);
            let ok = expected.is_some_and(|d| sha256(&bytes) == d);
            if !ok {
                let artifact = expected
                    .and_then(|d| kind_of.get(&d).cloned())
                    .unwrap_or_else(|| "object".to_string());
                self.quarantine_file(&path, &stem)?;
                emit("quarantine", &artifact, len);
                report.quarantined.push((stem, artifact));
            }
        }
        for (kind, name, d) in &refs {
            if !self.object_path(d).exists() {
                report.dangling_refs.push(format!("{kind}/{name}"));
            }
        }
        emit("scrub", "*", report.objects);
        Ok(report)
    }

    /// Remove objects no ref points at, and sweep stale two-phase tmp
    /// files left behind by crashed publishes.
    pub fn gc(&self) -> io::Result<GcReport> {
        let live: HashSet<Digest> = self.walk_refs()?.into_iter().map(|(_, _, d)| d).collect();
        let mut report = GcReport::default();
        for (path, stem, len) in self.walk_objects()? {
            match Digest::parse(&stem) {
                Some(d) if live.contains(&d) => report.kept += 1,
                _ => {
                    fs::remove_file(&path)?;
                    report.removed += 1;
                    report.bytes_freed += len;
                }
            }
        }
        for dir in [self.root.join(OBJECTS), self.root.join(REFS)] {
            report.tmp_swept += sweep_tmp(&dir)?;
        }
        emit("gc", "*", report.removed);
        Ok(report)
    }

    /// Every object with its size and back-refs, sorted by digest.
    pub fn ls(&self) -> io::Result<Vec<LsEntry>> {
        let mut back: BTreeMap<Digest, Vec<String>> = BTreeMap::new();
        for (kind, name, d) in self.walk_refs()? {
            back.entry(d).or_default().push(format!("{kind}/{name}"));
        }
        let mut out = Vec::new();
        for (_, stem, len) in self.walk_objects()? {
            let Some(digest) = Digest::parse(&stem) else {
                continue;
            };
            let mut refs = back.get(&digest).cloned().unwrap_or_default();
            refs.sort();
            out.push(LsEntry {
                digest,
                bytes: len,
                refs,
            });
        }
        out.sort_by_key(|e| e.digest);
        Ok(out)
    }

    /// Number of quarantined files currently in `corrupt/`.
    pub fn quarantined_count(&self) -> io::Result<u64> {
        Ok(read_dir_sorted(&self.root.join(CORRUPT))?.len() as u64)
    }
}

/// Recursively sweep `.{name}.tmp.*` files under `dir`; returns how many.
fn sweep_tmp(dir: &Path) -> io::Result<u64> {
    let mut n = 0;
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            n += sweep_tmp(&entry)?;
        } else if file_name_string(&entry).starts_with('.') {
            fs::remove_file(&entry)?;
            n += 1;
        }
    }
    Ok(n)
}

/// Directory entries, sorted by name for deterministic walk order.
/// A missing directory reads as empty.
fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out: Vec<PathBuf> = rd.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    out.sort();
    Ok(out)
}

fn file_name_string(path: &Path) -> String {
    path.file_name()
        .unwrap_or_default()
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let d = std::env::temp_dir().join(format!(
            "minpsid-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        let store = ArtifactStore::open(&d).unwrap();
        (d, store)
    }

    #[test]
    fn publish_load_round_trip() {
        let (d, store) = tmp_store("rt");
        let payload = b"golden bytes".to_vec();
        let digest = store.publish("golden", &payload).unwrap();
        assert_eq!(digest, sha256(&payload));
        assert_eq!(store.load("golden", &digest).unwrap(), payload);
        // idempotent republish
        assert_eq!(store.publish("golden", &payload).unwrap(), digest);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_object_is_typed() {
        let (d, store) = tmp_store("missing");
        let digest = sha256(b"never published");
        assert!(matches!(
            store.load("golden", &digest),
            Err(StoreError::Missing(m)) if m == digest
        ));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_object_is_quarantined_never_served() {
        let (d, store) = tmp_store("corrupt");
        let digest = store.publish("ckpt", b"checkpoint payload").unwrap();
        // rot one bit in place
        let path = store.object_path(&digest);
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let err = store.load("ckpt", &digest).unwrap_err();
        let StoreError::Corrupt {
            digest: cd,
            quarantined,
        } = err
        else {
            panic!("expected Corrupt, got {err}");
        };
        assert_eq!(cd, digest);
        assert!(quarantined.starts_with(d.join(CORRUPT)));
        assert!(quarantined.exists(), "rotten bytes moved, not copied");
        assert!(!path.exists(), "object gone from objects/");
        // recompute path: subsequent load is a clean Missing
        assert!(matches!(
            store.load("ckpt", &digest),
            Err(StoreError::Missing(_))
        ));
        // republish writes fresh bytes and loads verify again
        store.publish("ckpt", b"checkpoint payload").unwrap();
        assert_eq!(
            store.load("ckpt", &digest).unwrap(),
            b"checkpoint payload".to_vec()
        );
        assert_eq!(store.quarantined_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn refs_resolve_and_malformed_refs_quarantine() {
        let (d, store) = tmp_store("refs");
        store.put("golden", "mfp-ifp-cfp", b"ref target").unwrap();
        assert_eq!(
            store.get("golden", "mfp-ifp-cfp").unwrap(),
            b"ref target".to_vec()
        );
        assert_eq!(store.get("golden", "absent"), Err(Miss::Absent));

        // malformed ref: quarantined, reads as absent thereafter
        let rp = store.ref_path("golden", "mangled");
        fs::write(&rp, b"not a digest").unwrap();
        assert_eq!(store.get("golden", "mangled"), Err(Miss::Absent));
        assert!(!rp.exists());
        assert!(d.join(CORRUPT).join("ref-golden-mangled").exists());
        assert_eq!(store.get("golden", "mangled"), Err(Miss::Absent));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn get_quarantines_a_rotten_object_and_put_heals_it() {
        let (d, store) = tmp_store("get-rot");
        store.put("table", "t", b"sealed outcomes").unwrap();
        let path = store.object_path(&sha256(b"sealed outcomes"));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get("table", "t"), Err(Miss::Quarantined));
        // the ref dangles now: a plain miss until the artifact is put again
        assert_eq!(store.get("table", "t"), Err(Miss::Absent));
        store.put("table", "t", b"sealed outcomes").unwrap();
        assert_eq!(store.get("table", "t").unwrap(), b"sealed outcomes");
        assert_eq!(store.quarantined_count().unwrap(), 1);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn quarantine_never_overwrites_an_earlier_generation() {
        let (d, store) = tmp_store("generations");
        let corrupt = d.join(CORRUPT);
        fs::write(corrupt.join("tag"), b"evidence 0").unwrap();
        // claimants racing for one tag each keep their own generation
        std::thread::scope(|s| {
            for i in 1..=8 {
                let (store, d) = (&store, &d);
                s.spawn(move || {
                    let victim = d.join(format!("victim-{i}"));
                    fs::write(&victim, format!("evidence {i}")).unwrap();
                    store.quarantine_file(&victim, "tag").unwrap();
                    assert!(!victim.exists());
                });
            }
        });
        let mut kept: Vec<String> = read_dir_sorted(&corrupt)
            .unwrap()
            .iter()
            .map(|p| fs::read_to_string(p).unwrap())
            .collect();
        kept.sort();
        let want: Vec<String> = (0..=8).map(|i| format!("evidence {i}")).collect();
        assert_eq!(kept, want);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn scrub_clean_then_corrupt() {
        let (d, store) = tmp_store("scrub");
        store.put("golden", "g1", b"first").unwrap();
        let (d1, d2) = (sha256(b"first"), store.publish("spool", b"second").unwrap());

        let clean = store.scrub().unwrap();
        assert_eq!(clean.objects, 2);
        assert!(!clean.found_corruption());
        assert!(clean.dangling_refs.is_empty());

        // rot the *referenced* one so scrub can attribute its class
        let p1 = store.object_path(&d1);
        let mut bytes = fs::read(&p1).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&p1, &bytes).unwrap();

        let dirty = store.scrub().unwrap();
        assert_eq!(dirty.objects, 2);
        assert!(dirty.found_corruption());
        assert_eq!(dirty.quarantined, vec![(d1.hex(), "golden".to_string())]);

        // next pass: object gone, ref dangles, no new corruption
        let after = store.scrub().unwrap();
        assert_eq!(after.objects, 1);
        assert!(!after.found_corruption());
        assert_eq!(after.dangling_refs, vec!["golden/g1".to_string()]);
        assert!(store.object_path(&d2).exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn gc_drops_unreferenced_and_sweeps_tmp() {
        let (d, store) = tmp_store("gc");
        store.put("golden", "keep", b"live").unwrap();
        let dead = store.publish("golden", b"dead").unwrap();
        // a stale tmp from a crashed publish
        let fan = d.join(OBJECTS).join("ab");
        fs::create_dir_all(&fan).unwrap();
        fs::write(fan.join(".x.obj.tmp.1.2"), b"partial").unwrap();

        let report = store.gc().unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 1);
        assert_eq!(report.bytes_freed, 4);
        assert_eq!(report.tmp_swept, 1);
        assert_eq!(store.get("golden", "keep").unwrap(), b"live");
        assert!(!store.object_path(&dead).exists());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn ls_lists_objects_with_back_refs() {
        let (d, store) = tmp_store("ls");
        store.put("golden", "a", b"one").unwrap();
        store.put("ckpt", "b", b"one").unwrap();
        let (d1, d2) = (sha256(b"one"), store.publish("spool", b"two").unwrap());
        let entries = store.ls().unwrap();
        assert_eq!(entries.len(), 2);
        let e1 = entries.iter().find(|e| e.digest == d1).unwrap();
        assert_eq!(e1.refs, vec!["ckpt/b".to_string(), "golden/a".to_string()]);
        assert_eq!(e1.bytes, 3);
        let e2 = entries.iter().find(|e| e.digest == d2).unwrap();
        assert!(e2.refs.is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn chaos_flip_corrupts_each_object_exactly_once() {
        let (d, store) = tmp_store("chaos");
        store.set_chaos_flip(1);
        let digest = store.publish("golden", b"will be flipped").unwrap();
        let err = store.load("golden", &digest).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // recompute: republish identical bytes — the flip marker must
        // prevent a second flip, so the reload verifies
        let again = store.publish("golden", b"will be flipped").unwrap();
        assert_eq!(again, digest);
        assert_eq!(
            store.load("golden", &digest).unwrap(),
            b"will be flipped".to_vec()
        );
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn chaos_flip_respects_rate() {
        let (d, store) = tmp_store("chaos-rate");
        store.set_chaos_flip(3);
        let mut corrupt = 0;
        for i in 0..9u32 {
            let digest = store
                .publish("golden", format!("obj {i}").as_bytes())
                .unwrap();
            if store.load("golden", &digest).is_err() {
                corrupt += 1;
            }
        }
        assert_eq!(corrupt, 3, "every 3rd publish flips");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn concurrent_same_key_publish_is_idempotent_and_untorn() {
        let (d, store) = tmp_store("race");
        let store = std::sync::Arc::new(store);
        let payload: Vec<u8> = (0..32_768u32).flat_map(|i| i.to_le_bytes()).collect();
        let expected = sha256(&payload);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = store.clone();
            let payload = payload.clone();
            handles.push(std::thread::spawn(move || {
                store.publish("golden", &payload).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        assert_eq!(store.load("golden", &expected).unwrap(), payload);
        let _ = fs::remove_dir_all(&d);
    }

    /// Helper for `sigkill_mid_publish_never_exposes_partial_object`:
    /// only acts when re-invoked as a child with the crash env armed.
    #[test]
    fn sigkill_child_publish_hang() {
        let Ok(dir) = std::env::var("MINPSID_STORE_SIGKILL_DIR") else {
            return;
        };
        let store = ArtifactStore::open(Path::new(&dir)).unwrap();
        // hangs inside two_phase_write (MINPSID_STORE_CRASH armed by parent)
        let _ = store.publish("golden", &vec![0xa5u8; 1 << 16]);
        unreachable!("publish must park before rename");
    }

    #[test]
    fn sigkill_mid_publish_never_exposes_partial_object() {
        let (d, store) = tmp_store("sigkill");
        let exe = std::env::current_exe().unwrap();
        let mut child = std::process::Command::new(exe)
            .args([
                "sigkill_child_publish_hang",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("MINPSID_STORE_SIGKILL_DIR", &d)
            .env("MINPSID_STORE_CRASH", "hang-before-rename")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();

        // Wait until the child's durable tmp sibling exists — the instant
        // before rename — then SIGKILL it there.
        let objects = d.join(OBJECTS);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let tmp_visible = || -> bool {
            let Ok(fans) = fs::read_dir(&objects) else {
                return false;
            };
            for fan in fans.flatten() {
                if let Ok(files) = fs::read_dir(fan.path()) {
                    for f in files.flatten() {
                        if f.file_name().to_string_lossy().starts_with('.') {
                            return true;
                        }
                    }
                }
            }
            false
        };
        while !tmp_visible() {
            assert!(
                std::time::Instant::now() < deadline,
                "child never reached the crash point"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        child.kill().unwrap(); // SIGKILL on unix
        child.wait().unwrap();

        // No partial object is visible: the store has zero objects and a
        // scrub agrees; the payload reads as Missing, not as torn bytes.
        let digest = sha256(&vec![0xa5u8; 1 << 16]);
        assert!(matches!(
            store.load("golden", &digest),
            Err(StoreError::Missing(_))
        ));
        let scrubbed = store.scrub().unwrap();
        assert_eq!(scrubbed.objects, 0);
        assert!(!scrubbed.found_corruption());
        // gc sweeps the orphaned tmp, and a fresh publish of the same
        // content succeeds end to end.
        let swept = store.gc().unwrap();
        assert!(swept.tmp_swept >= 1);
        store.publish("golden", &vec![0xa5u8; 1 << 16]).unwrap();
        assert_eq!(store.load("golden", &digest).unwrap().len(), 1 << 16);
        let _ = fs::remove_dir_all(&d);
    }
}
