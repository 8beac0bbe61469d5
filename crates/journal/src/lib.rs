//! # minpsid-journal — crash-safe campaign journal
//!
//! An SDC screening campaign runs for hours; this crate makes the run's
//! progress durable so a crash, OOM, or `kill -9` costs seconds of
//! replay instead of the whole campaign. The design follows the
//! append-only, checksummed, recovery-by-replay idioms of persistent
//! log libraries:
//!
//! * [`record`] — the durable facts: per-injection outcomes, golden-run
//!   digests, GA evaluation memos, accepted search inputs, the knapsack
//!   selection, all keyed by FNV-64 fingerprints.
//! * [`wal`] — framing, checksums, batched fsync, and torn-tail
//!   recovery (truncate to the last intact record).
//! * [`CampaignJournal`] — the in-memory index over the log that the
//!   pipeline consults: campaigns ask it for already-journaled outcomes
//!   (recovered work) and append fresh ones (new work). Resume is
//!   replay: the deterministic pipeline re-walks its decisions and the
//!   journal short-circuits everything expensive, which is what makes a
//!   resumed run bit-identical to an uninterrupted one.
//! * [`interrupt`] — a process-wide cooperative stop flag (set by the
//!   CLI's SIGINT handler) that campaign loops poll, so ^C flushes the
//!   journal and exits cleanly instead of mid-write.
//!
//! Campaign workers never append to the WAL directly: the faultsim
//! `CampaignEngine` buffers each unit's records worker-locally and a
//! single ordered writer appends completed units in plan order, so a
//! journaled campaign parallelizes while its WAL (and therefore any
//! resume) stays byte-identical to a serial run's.
//!
//! The crate sits just above `minpsid-trace` in the dependency order:
//! recovery and usage statistics flow into the trace so `trace report`
//! shows injections recovered vs replayed.

pub mod record;
pub mod wal;

use minpsid_store::ArtifactStore;
use record::Record;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use wal::{encode_records, open_wal, rewrite_wal, WalWriter};

/// Cooperative interruption: one process-wide flag, set from a signal
/// handler (it is only an atomic store, so it is async-signal-safe) and
/// polled by campaign loops between injections.
pub mod interrupt {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    /// Request a clean stop (safe to call from a signal handler).
    pub fn request() {
        FLAG.store(true, Ordering::SeqCst);
    }

    /// Has a stop been requested?
    pub fn requested() -> bool {
        FLAG.load(Ordering::SeqCst)
    }

    /// Reset the flag (tests; a fresh run after a handled interrupt).
    pub fn clear() {
        FLAG.store(false, Ordering::SeqCst);
    }
}

/// The run was cooperatively interrupted (SIGINT); journaled state is
/// flushed and the campaign can be resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign interrupted; progress saved to the journal")
    }
}

impl std::error::Error for Interrupted {}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalError {
    Io(io::Error),
    /// The log belongs to another campaign configuration: its outcomes
    /// answer other questions (seeds, injection counts, inputs), so
    /// replaying them into this run would be silent garbage. (A log of
    /// another *module* under the same config is superseded instead; see
    /// [`CampaignJournal::open`].) Both pairs are `(module, config)`.
    Mismatch {
        expected: (u64, u64),
        found: (u64, u64),
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Mismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign configuration: config \
                 fingerprint {:#x} but this run is {:#x} — resume with the same \
                 inputs and campaign settings, or point --journal at a fresh directory",
                found.1, expected.1
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

const WAL_FILE: &str = "campaign.wal";

/// Store ref name for a run's compacted-WAL snapshot: one snapshot per
/// (module, config) pair, so a resumed run finds exactly its own.
fn wal_ref_name(module_fp: u64, config_fp: u64) -> String {
    format!("{module_fp:016x}-{config_fp:016x}")
}

/// What one journaled record is a fact about. The derived `Ord` is the
/// compacted log's record order, so compaction is reproducible.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    Golden(u64),
    PerInst(u64, u64, u64),
    Program(u64, u64),
    Eval(u64),
    Accepted(u64),
    Selection,
}

impl Fact {
    /// The fact `rec` states; `None` for the log's header and for the
    /// retired records ([`Record::Quarantine`], [`Record::SectionMap`]),
    /// which still decode but state nothing.
    fn of(rec: &Record) -> Option<Fact> {
        Some(match *rec {
            Record::GoldenDigest { input_fp, .. } => Fact::Golden(input_fp),
            Record::PerInstOutcome {
                input_fp, dense, k, ..
            } => Fact::PerInst(input_fp, dense, k),
            Record::ProgramOutcome {
                input_fp, index, ..
            } => Fact::Program(input_fp, index),
            Record::EvalProfile { input_fp, .. } => Fact::Eval(input_fp),
            Record::SearchAccepted { index, .. } => Fact::Accepted(index),
            Record::Selection { .. } => Fact::Selection,
            Record::Header { .. } | Record::Quarantine { .. } | Record::SectionMap { .. } => {
                return None
            }
        })
    }
}

/// The journal's index: the record that states each fact — the latest
/// one, except that the first acceptance of a search index stands.
#[derive(Default)]
struct State(BTreeMap<Fact, Record>);

impl State {
    fn apply(&mut self, rec: Record) {
        match Fact::of(&rec) {
            Some(fact @ Fact::Accepted(_)) => {
                self.0.entry(fact).or_insert(rec);
            }
            Some(fact) => {
                self.0.insert(fact, rec);
            }
            None => {}
        }
    }

    /// The compacted record set: the header, then one record per fact.
    fn snapshot(&self, module_fp: u64, config_fp: u64) -> Vec<Record> {
        let header = Record::Header {
            module_fp,
            config_fp,
        };
        std::iter::once(header)
            .chain(self.0.values().cloned())
            .collect()
    }
}

/// The crash-safe journal of one campaign run: an in-memory index over
/// an append-only WAL.
///
/// Readers (campaign workers probing for recovered outcomes) take the
/// `RwLock` read side; appends take the write side plus the writer
/// mutex. Both are off the interpreter's hot path — one probe and at
/// most one append per *injection* (a whole program execution).
pub struct CampaignJournal {
    dir: PathBuf,
    module_fp: u64,
    config_fp: u64,
    state: RwLock<State>,
    writer: Mutex<WalWriter>,
    /// Injections served from the journal this run (recovered work).
    served: AtomicU64,
    /// Records appended this run (fresh work).
    appended: AtomicU64,
    recovered_records: u64,
    truncated_bytes: u64,
    dropped_records: u64,
    /// Artifact store that mirrors each compacted WAL snapshot. On open
    /// the snapshot object is verified and its records merged under the
    /// live log, so bit rot in the compacted prefix costs a recompute of
    /// at most the un-snapshotted suffix instead of the whole campaign.
    store: Option<Arc<ArtifactStore>>,
}

/// Artifact class under which compacted WAL snapshots are published.
pub const WAL_ARTIFACT: &str = "wal";

impl CampaignJournal {
    /// Open (creating if needed) the journal in `dir`, recover its
    /// intact prefix, truncate any torn tail, and emit a
    /// `journal_recovery` trace event describing what recovery found.
    ///
    /// One rule decides what the log's facts are worth to this run, read
    /// off the live log's header:
    /// - same (module, config): resume — every recovered fact is served;
    /// - same config, another module: the program was edited, so the live
    ///   log is superseded and rewritten (two-phase) to hold only this
    ///   run's header. Outcomes that survive an edit are served by the
    ///   store's sealed section tables, which check the golden context a
    ///   section's outcomes depend on; this log's keys cannot;
    /// - another config: [`JournalError::Mismatch`].
    ///
    /// With a `store`, the verified snapshot of the last compacted WAL of
    /// this (module, config) pair is merged *under* the live log (the
    /// live log is newer): facts that mid-file corruption severed from
    /// the live log come back, and so do a module's facts when an edit is
    /// undone. A rotten snapshot is quarantined by the store, and the live
    /// log stands alone, as it does when the store cannot be read.
    pub fn open(
        dir: &Path,
        module_fp: u64,
        config_fp: u64,
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<Self, JournalError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let (mut writer, recovery) = open_wal(&path)?;

        if recovery.mid_file_corruption() {
            // Loud by design: this is bit rot inside the journal, not a
            // normal crash artifact, and it bypasses --quiet.
            eprintln!(
                "minpsid: JOURNAL CORRUPTION: checksum mismatch mid-file in {}: \
                 {} intact record(s) past the corruption were dropped and will be \
                 recomputed; severed suffix preserved at {}",
                path.display(),
                recovery.dropped_records,
                recovery
                    .quarantined_tail
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "<unsaved>".to_string()),
            );
        }

        let mut live_records = recovery.records;
        let found = live_records.iter().find_map(|rec| match *rec {
            Record::Header {
                module_fp,
                config_fp,
            } => Some((module_fp, config_fp)),
            _ => None,
        });
        let header = Record::Header {
            module_fp,
            config_fp,
        };
        match found {
            Some(found) if found.1 != config_fp => {
                return Err(JournalError::Mismatch {
                    expected: (module_fp, config_fp),
                    found,
                });
            }
            Some((m, _)) if m != module_fp => {
                live_records.clear();
                writer = rewrite_wal(&path, std::slice::from_ref(&header))?;
            }
            Some(_) => {}
            None => {
                writer.append(&header)?;
                writer.sync()?;
            }
        }

        // The verified snapshot of this pair's last compacted WAL, applied
        // before the live records so live facts win. It is digest-verified,
        // so a short scan would be an encoding bug, not rot: take whatever
        // parses.
        let snapshot = store
            .as_ref()
            .and_then(|s| {
                s.get(WAL_ARTIFACT, &wal_ref_name(module_fp, config_fp))
                    .ok()
            })
            .map(|bytes| wal::scan_bytes(&bytes).records)
            .unwrap_or_default();
        let mut state = State::default();
        for rec in snapshot.into_iter().chain(live_records) {
            state.apply(rec);
        }
        let recovered_records = state.0.len() as u64;
        minpsid_trace::emit(minpsid_trace::Event::JournalRecovery {
            records: recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
        });

        Ok(CampaignJournal {
            dir: dir.to_path_buf(),
            module_fp,
            config_fp,
            state: RwLock::new(state),
            writer: Mutex::new(writer),
            served: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            recovered_records,
            truncated_bytes: recovery.truncated_bytes,
            dropped_records: recovery.dropped_records,
            store,
        })
    }

    /// [`CampaignJournal::open`]; the section map is not journaled. Kept
    /// for the benchmark package, which still calls it.
    #[doc(hidden)]
    pub fn open_with_sections(
        dir: &Path,
        module_fp: u64,
        config_fp: u64,
        _sections: &[(u64, u64, u64)],
        store: Option<Arc<ArtifactStore>>,
    ) -> Result<Self, JournalError> {
        Self::open(dir, module_fp, config_fp, store)
    }

    /// Directory this journal lives in (for "resume with ..." hints).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The record stating `fact`, if one is journaled.
    fn fact(&self, fact: Fact) -> Option<Record> {
        self.read().0.get(&fact).cloned()
    }

    /// [`fact`](Self::fact), counting a hit as work served from the
    /// journal.
    fn serve(&self, fact: Fact) -> Option<Record> {
        let hit = self.fact(fact);
        if hit.is_some() {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn append(&self, rec: Record) {
        self.append_fact(rec, true);
    }

    /// Append `rec`; `ran` says whether its fact is new work. A fact a
    /// sealed table served is already durable and digest-verified in the
    /// store, so its record does not advance the fsync cadence
    /// ([`WalWriter::append_served`]).
    fn append_fact(&self, rec: Record, ran: bool) {
        {
            let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            // a failed append degrades durability, not correctness: the
            // in-memory state stays right, so the run completes and only
            // resumability of the un-appended span is lost
            let _ = if ran {
                w.append(&rec)
            } else {
                w.append_served(&rec)
            };
        }
        self.appended.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.write().unwrap_or_else(|e| e.into_inner());
        st.apply(rec);
    }

    // --- golden-run digests ---

    pub fn golden_digest(&self, input_fp: u64) -> Option<(u64, u64)> {
        match self.fact(Fact::Golden(input_fp))? {
            Record::GoldenDigest {
                output_fp, steps, ..
            } => Some((output_fp, steps)),
            _ => None,
        }
    }

    pub fn record_golden(&self, input_fp: u64, output_fp: u64, steps: u64) {
        if self.golden_digest(input_fp) == Some((output_fp, steps)) {
            return;
        }
        self.append(Record::GoldenDigest {
            input_fp,
            output_fp,
            steps,
        });
    }

    // --- per-injection outcomes ---

    pub fn per_inst_outcome(&self, input_fp: u64, dense: u64, k: u64) -> Option<u8> {
        match self.serve(Fact::PerInst(input_fp, dense, k))? {
            Record::PerInstOutcome { outcome, .. } => Some(outcome),
            _ => None,
        }
    }

    /// Journal one per-instruction outcome; `ran` is false when a sealed
    /// table served it rather than an injection.
    pub fn record_per_inst(&self, input_fp: u64, dense: u64, k: u64, outcome: u8, ran: bool) {
        let rec = Record::PerInstOutcome {
            input_fp,
            dense,
            k,
            outcome,
        };
        self.append_fact(rec, ran);
    }

    pub fn program_outcome(&self, input_fp: u64, index: u64) -> Option<u8> {
        match self.serve(Fact::Program(input_fp, index))? {
            Record::ProgramOutcome { outcome, .. } => Some(outcome),
            _ => None,
        }
    }

    /// Journal one whole-program outcome; `ran` as for
    /// [`record_per_inst`](Self::record_per_inst).
    pub fn record_program(&self, input_fp: u64, index: u64, outcome: u8, ran: bool) {
        let rec = Record::ProgramOutcome {
            input_fp,
            index,
            outcome,
        };
        self.append_fact(rec, ran);
    }

    // --- GA evaluation memos ---

    pub fn eval_profile(&self, input_fp: u64) -> Option<Vec<u64>> {
        match self.serve(Fact::Eval(input_fp))? {
            Record::EvalProfile { cfg_list, .. } => Some(cfg_list),
            _ => None,
        }
    }

    pub fn record_eval(&self, input_fp: u64, cfg_list: &[u64]) {
        if self.read().0.contains_key(&Fact::Eval(input_fp)) {
            return;
        }
        self.append(Record::EvalProfile {
            input_fp,
            cfg_list: cfg_list.to_vec(),
        });
    }

    // --- search / selection state ---

    pub fn accepted_input(&self, index: u64) -> Option<u64> {
        match self.fact(Fact::Accepted(index))? {
            Record::SearchAccepted { input_fp, .. } => Some(input_fp),
            _ => None,
        }
    }

    pub fn record_accepted(&self, index: u64, input_fp: u64) {
        if self.accepted_input(index).is_some() {
            return;
        }
        self.append(Record::SearchAccepted { index, input_fp });
    }

    pub fn selection(&self) -> Option<Vec<bool>> {
        match self.fact(Fact::Selection)? {
            Record::Selection { bits } => Some(bits),
            _ => None,
        }
    }

    pub fn record_selection(&self, bits: &[bool]) {
        self.append(Record::Selection {
            bits: bits.to_vec(),
        });
    }

    // --- durability & maintenance ---

    /// Force every appended record to stable storage (end of a stage, or
    /// on the way out after an interrupt).
    pub fn sync(&self) -> io::Result<()> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner()).sync()
    }

    /// Rewrite the log as a compacted snapshot of the current state
    /// (drops superseded records; bounds log growth across many resumes).
    /// With a store attached, the snapshot is also published as a
    /// content-addressed `wal` artifact so the next open can verify it
    /// and recover from bit rot in the live file.
    pub fn compact(&self) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let records = self.read().snapshot(self.module_fp, self.config_fp);
        *w = rewrite_wal(&self.dir.join(WAL_FILE), &records)?;
        if let Some(store) = &self.store {
            let name = wal_ref_name(self.module_fp, self.config_fp);
            store.put(WAL_ARTIFACT, &name, &encode_records(&records))?;
        }
        Ok(())
    }

    /// (records recovered at open, torn-tail bytes truncated at open).
    pub fn recovery_stats(&self) -> (u64, u64) {
        (self.recovered_records, self.truncated_bytes)
    }

    /// Intact records dropped past a mid-file checksum mismatch at open
    /// (0 for a clean or merely torn log). See [`wal::Recovery`].
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// (injections/evals served from the journal, records appended) this
    /// run.
    pub fn usage(&self) -> (u64, u64) {
        (
            self.served.load(Ordering::Relaxed),
            self.appended.load(Ordering::Relaxed),
        )
    }

    /// Emit the end-of-run `journal_stats` trace event.
    pub fn emit_stats(&self) {
        let (recovered, appended) = self.usage();
        minpsid_trace::emit(minpsid_trace::Event::JournalStats {
            recovered,
            appended,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("minpsid-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn outcomes_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let j = CampaignJournal::open(&dir, 10, 20, None).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 3, 0, 2, true);
            j.record_per_inst(1, 3, 1, 0, true);
            j.record_program(1, 9, 1, true);
            j.record_eval(77, &[1, 2, 3]);
            j.record_accepted(0, 77);
            j.record_selection(&[true, false, true]);
            j.sync().unwrap();
        }
        let j = CampaignJournal::open(&dir, 10, 20, None).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.per_inst_outcome(1, 3, 0), Some(2));
        assert_eq!(j.per_inst_outcome(1, 3, 1), Some(0));
        assert_eq!(j.per_inst_outcome(1, 3, 2), None);
        assert_eq!(j.program_outcome(1, 9), Some(1));
        assert_eq!(j.eval_profile(77), Some(vec![1, 2, 3]));
        assert_eq!(j.accepted_input(0), Some(77));
        assert_eq!(j.selection(), Some(vec![true, false, true]));
        let (recovered, _) = j.recovery_stats();
        assert_eq!(recovered, 7);
        // three hits + one eval hit were served above
        assert!(j.usage().0 >= 4);
    }

    #[test]
    fn mismatched_fingerprints_refuse_to_resume() {
        let dir = tmpdir("mismatch");
        {
            let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
            j.record_golden(1, 1, 1);
            j.sync().unwrap();
        }
        // another config — with the same module or another one — means
        // other campaign questions: refuse
        assert!(matches!(
            CampaignJournal::open(&dir, 1, 3, None),
            Err(JournalError::Mismatch { .. })
        ));
        assert!(matches!(
            CampaignJournal::open(&dir, 9, 3, None),
            Err(JournalError::Mismatch { .. })
        ));
        // a refusal leaves the log alone: the right pair still resumes
        let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
        assert_eq!(j.golden_digest(1), Some((1, 1)));
    }

    #[test]
    fn edited_module_supersedes_the_log_and_the_snapshot_returns_on_revert() {
        let dir = tmpdir("supersede");
        let store = Arc::new(ArtifactStore::open(&dir.join("store")).unwrap());
        {
            let j = CampaignJournal::open(&dir, 100, 2, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 5, 3, 4, true);
            j.compact().unwrap(); // publishes module 100's snapshot
            j.record_program(1, 0, 1, true); // live only
            j.sync().unwrap();
        }
        // the program was edited (same config): nothing of module 100's
        // carries over, and the log holds only the new header
        let j = CampaignJournal::open(&dir, 200, 2, Some(store.clone())).unwrap();
        assert_eq!(j.recovery_stats().0, 0);
        assert_eq!(j.per_inst_outcome(1, 5, 3), None);
        assert_eq!(j.golden_digest(1), None);
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).unwrap(),
            encode_records(&[Record::Header {
                module_fp: 200,
                config_fp: 2
            }])
        );
        j.record_per_inst(1, 6, 3, 0, true);
        j.sync().unwrap();
        drop(j);
        // the edit is undone: module 100's compacted facts come back from
        // its snapshot; the fact it never compacted is recomputed
        let j = CampaignJournal::open(&dir, 100, 2, Some(store)).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.per_inst_outcome(1, 5, 3), Some(4));
        assert_eq!(j.program_outcome(1, 0), None);
        assert_eq!(j.per_inst_outcome(1, 6, 3), None);
        drop(j);
        // without a store nothing returns
        let j = CampaignJournal::open(&dir, 200, 2, None).unwrap();
        assert_eq!(j.recovery_stats().0, 0);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let dir = tmpdir("compact");
        let j = CampaignJournal::open(&dir, 5, 6, None).unwrap();
        // write the same key many times: only the last survives compaction
        for i in 0..200u64 {
            j.record_per_inst(1, 0, 0, (i % 6) as u8, true);
            j.record_per_inst(1, 0, i, 1, true);
        }
        j.sync().unwrap();
        let before = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        j.compact().unwrap();
        let after = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(after < before, "compaction shrinks ({before} -> {after})");
        drop(j);
        let j = CampaignJournal::open(&dir, 5, 6, None).unwrap();
        assert_eq!(j.per_inst_outcome(1, 0, 0), Some((199 % 6) as u8));
        assert_eq!(j.per_inst_outcome(1, 0, 150), Some(1));
    }

    /// Byte offset of frame `n` in a WAL image (frame 0 is the first
    /// record after the preamble).
    fn frame_start(bytes: &[u8], n: usize) -> usize {
        let mut pos = 8;
        for _ in 0..n {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
        }
        pos
    }

    #[test]
    fn store_snapshot_restores_facts_severed_by_mid_file_corruption() {
        let dir = tmpdir("snap-restore");
        let store = Arc::new(ArtifactStore::open(&dir.join("store")).unwrap());
        {
            let j = CampaignJournal::open(&dir, 5, 6, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.record_per_inst(1, 3, 0, 2, true);
            j.sync().unwrap();
            j.compact().unwrap(); // publishes the snapshot artifact
            j.record_program(1, 9, 1, true); // post-snapshot fact
            j.sync().unwrap();
        }
        // Rot a byte inside frame 1 (the GoldenDigest record): the live
        // scan now stops at the Header, severing every later record.
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = frame_start(&bytes, 1) + 12 + 2;
        bytes[pos] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let j = CampaignJournal::open(&dir, 5, 6, Some(store)).unwrap();
        // intact frames past the corruption (per_inst + program) counted
        assert_eq!(j.dropped_records(), 2);
        // compacted facts come back from the verified snapshot...
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.per_inst_outcome(1, 3, 0), Some(2));
        // ...the post-snapshot fact is honestly lost (recompute territory)
        assert_eq!(j.program_outcome(1, 9), None);
        // severed suffix preserved for forensics
        assert!(path.with_extension("corrupt").exists());
    }

    #[test]
    fn corrupt_store_snapshot_is_quarantined_and_live_log_stands_alone() {
        let dir = tmpdir("snap-rot");
        let store_dir = dir.join("store");
        let store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
        {
            let j = CampaignJournal::open(&dir, 5, 6, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.sync().unwrap();
            j.compact().unwrap();
        }
        // rot the snapshot object itself
        let ref_path = store_dir
            .join("refs")
            .join(WAL_ARTIFACT)
            .join(format!("{}.ref", wal_ref_name(5, 6)));
        let hex = std::fs::read_to_string(&ref_path)
            .unwrap()
            .trim()
            .to_string();
        let obj = store_dir
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.obj"));
        let mut bytes = std::fs::read(&obj).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&obj, &bytes).unwrap();

        // open succeeds from the intact live log; the rotten snapshot is
        // quarantined, not consumed
        let j = CampaignJournal::open(&dir, 5, 6, Some(store.clone())).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(store.quarantined_count().unwrap(), 1);
        assert!(!obj.exists());
        // the next compact republishes a fresh, verifiable snapshot
        j.compact().unwrap();
        assert!(!store.scrub().unwrap().found_corruption());
    }

    #[test]
    fn an_unreadable_store_leaves_the_live_log_standing() {
        let dir = tmpdir("snap-io");
        let store_dir = dir.join("store");
        let store = Arc::new(ArtifactStore::open(&store_dir).unwrap());
        {
            let j = CampaignJournal::open(&dir, 5, 6, Some(store.clone())).unwrap();
            j.record_golden(1, 111, 5000);
            j.sync().unwrap();
        }
        // a directory where the snapshot's ref belongs: reading it fails
        let ref_path = store_dir
            .join("refs")
            .join(WAL_ARTIFACT)
            .join(format!("{}.ref", wal_ref_name(5, 6)));
        std::fs::create_dir_all(&ref_path).unwrap();
        let j = CampaignJournal::open(&dir, 5, 6, Some(store)).unwrap();
        assert_eq!(j.golden_digest(1), Some((111, 5000)));
        assert_eq!(j.recovery_stats().0, 1);
    }

    #[test]
    fn interrupt_flag_round_trips() {
        interrupt::clear();
        assert!(!interrupt::requested());
        interrupt::request();
        assert!(interrupt::requested());
        interrupt::clear();
        assert!(!interrupt::requested());
    }
}
