//! Store-backed per-section outcome tables — the memoization layer behind
//! incremental (O(diff)) fault-injection campaigns.
//!
//! A *section* is one function. The campaign engine plans both campaign
//! shapes as per-section unit groups, and when a [`TableMemo`] is attached
//! it seals each section's executed outcomes into a `table` artifact in
//! the content-addressed store. A later campaign whose section fingerprint
//! *and* golden-context signature match serves those outcomes without
//! re-executing a single injection; only edited sections (and sections
//! whose golden behaviour shifted) re-run.
//!
//! Soundness is the FastFlip composition argument (PAPERS.md,
//! arXiv 2403.13989): a sealed table is reused only when
//!
//! 1. the section's content fingerprint matches — the function's own code
//!    and every transitive callee are unchanged, and
//! 2. the table *signature* matches — same input fingerprint, same golden
//!    output and step count, same per-instruction dynamic counts within
//!    the section, same injection-relevant config knobs.
//!
//! Together these pin every seed, every fault target and the golden
//! baseline each outcome was classified against. What they do **not** pin
//! is the post-injection trajectory through *other* (edited) functions;
//! an edit that changes neither the golden output, the golden step count,
//! nor the section's dynamic counts is assumed not to re-classify faults
//! injected elsewhere. `--no-incremental` is the escape hatch, and the
//! cold path is always exact.
//!
//! Tables follow the store's verify-on-load discipline: a corrupt artifact
//! is quarantined and the section silently re-runs (recompute-on-
//! corruption, like goldens). A table sealed under an expired deadline is
//! marked incomplete in its header and is a *miss* on load — truncated
//! campaigns never masquerade as finished ones.

use crate::campaign::{CampaignConfig, ConfigKey, GoldenRun};
use minpsid_ir::bytes::{put_u32, put_u64, put_varint, Error, Fnv, Reader};
use minpsid_store::{ArtifactStore, StoreError};
use minpsid_trace as trace;
use minpsid_trace::CampaignKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store artifact kind for sealed outcome tables.
pub const TABLE_ARTIFACT: &str = "table";

/// Bump on any layout change; decoders treat other versions as misses.
const TABLE_VERSION: u32 = 1;
const TABLE_MAGIC: &[u8; 4] = b"MPTB";

/// The byte a table's header, signature and ref name carry for the
/// campaign shape it memoizes.
fn tag(kind: CampaignKind) -> u8 {
    match kind {
        CampaignKind::Program => b'p',
        CampaignKind::PerInst => b'i',
    }
}

/// The golden-context signature a table is valid under. Everything that
/// determines a section's injection outcomes besides its content
/// fingerprint: the golden baseline (output, steps, the section's dynamic
/// counts and injectable population) and the config's
/// [`ConfigKey::Table`] key, which records what of the config enters and
/// why the rest does not.
pub fn table_sig(
    kind: CampaignKind,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    sec_counts: &[u64],
    pop: u64,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(TABLE_VERSION as u64);
    h.bytes(&[tag(kind)]);
    cfg.key(ConfigKey::Table(kind), &mut h);
    h.u64(golden.steps);
    golden.output.key(&mut h);
    h.u64(sec_counts.len() as u64);
    for &c in sec_counts {
        h.u64(c);
    }
    h.u64(pop);
    h.finish()
}

/// A decoded section table: the outcome stream of each unit of the
/// section, in plan order, each under its key — in a program table the
/// local unit index, with one outcome; in a per-instruction table the
/// instruction's *local* index within the function (stable across edits
/// elsewhere), with the outcomes in injection order.
#[derive(Debug, Clone, Default)]
pub struct SectionTable {
    pub complete: bool,
    pub streams: Vec<(u32, Vec<u8>)>,
}

impl SectionTable {
    /// Outcomes recorded for one unit, by key. A program table's streams
    /// sit at their keys' positions, so its units are found without a
    /// scan.
    pub fn stream(&self, key: u32) -> Option<&[u8]> {
        match self.streams.get(key as usize) {
            Some((k, o)) if *k == key => Some(o),
            _ => self
                .streams
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, o)| o.as_slice()),
        }
    }

    pub fn total_outcomes(&self) -> u64 {
        self.streams.iter().map(|(_, o)| o.len() as u64).sum()
    }
}

// --- wire format ---

fn header(kind: CampaignKind, complete: bool, fp: u64, input_fp: u64, sig: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(TABLE_MAGIC);
    put_u32(&mut buf, TABLE_VERSION);
    buf.push(tag(kind));
    buf.push(complete as u8);
    put_u64(&mut buf, fp);
    put_u64(&mut buf, input_fp);
    put_u64(&mut buf, sig);
    buf
}

/// Decode the common header; an error (a miss) unless magic, version,
/// kind, fingerprint, input and signature all match. Returns the
/// completeness flag and a reader positioned at the body.
fn check_header<'a>(
    bytes: &'a [u8],
    kind: CampaignKind,
    fp: u64,
    input_fp: u64,
    sig: u64,
) -> Result<(bool, Reader<'a>), Error> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != TABLE_MAGIC || r.u32()? != TABLE_VERSION || r.u8()? != tag(kind) {
        return Err(Error::Invalid("not this kind of table"));
    }
    let complete = r.u8()? != 0;
    if r.u64()? != fp || r.u64()? != input_fp || r.u64()? != sig {
        return Err(Error::Invalid("table of another section or context"));
    }
    Ok((complete, r))
}

/// The layout of a section table of either kind.
fn encode(kind: CampaignKind, fp: u64, input_fp: u64, sig: u64, t: &SectionTable) -> Vec<u8> {
    match kind {
        CampaignKind::Program => encode_program(fp, input_fp, sig, t),
        CampaignKind::PerInst => encode_per_inst(fp, input_fp, sig, t),
    }
}

fn decode(
    kind: CampaignKind,
    bytes: &[u8],
    fp: u64,
    input_fp: u64,
    sig: u64,
) -> Result<SectionTable, Error> {
    match kind {
        CampaignKind::Program => decode_program(bytes, fp, input_fp, sig),
        CampaignKind::PerInst => decode_per_inst(bytes, fp, input_fp, sig),
    }
}

/// One outcome byte per unit, up to the first unit with none (one the
/// deadline cut, in a table sealed incomplete).
fn encode_program(fp: u64, input_fp: u64, sig: u64, t: &SectionTable) -> Vec<u8> {
    let units: Vec<u8> = t
        .streams
        .iter()
        .map_while(|(_, o)| o.first().copied())
        .collect();
    let mut buf = header(CampaignKind::Program, t.complete, fp, input_fp, sig);
    put_varint(&mut buf, units.len() as u64);
    for outcome in units {
        buf.push(outcome);
        // reserved: was the unit's recovered-via-retry flag (PR 22)
        buf.push(0);
    }
    buf
}

fn decode_program(bytes: &[u8], fp: u64, input_fp: u64, sig: u64) -> Result<SectionTable, Error> {
    let (complete, mut r) = check_header(bytes, CampaignKind::Program, fp, input_fp, sig)?;
    let n = r.count(2)?;
    let mut streams = Vec::with_capacity(n);
    for j in 0..n {
        let outcome = r.u8()?;
        // reserved byte: 0 or 1 in tables sealed before PR 22, ignored
        if r.u8()? > 1 {
            return Err(Error::Invalid("reserved byte"));
        }
        streams.push((j as u32, vec![outcome]));
    }
    r.finish()?;
    Ok(SectionTable { complete, streams })
}

fn encode_per_inst(fp: u64, input_fp: u64, sig: u64, t: &SectionTable) -> Vec<u8> {
    let mut buf = header(CampaignKind::PerInst, t.complete, fp, input_fp, sig);
    put_varint(&mut buf, t.streams.len() as u64);
    for (local, outcomes) in &t.streams {
        put_varint(&mut buf, *local as u64);
        put_varint(&mut buf, outcomes.len() as u64);
        buf.extend_from_slice(outcomes);
    }
    buf
}

fn decode_per_inst(bytes: &[u8], fp: u64, input_fp: u64, sig: u64) -> Result<SectionTable, Error> {
    let (complete, mut r) = check_header(bytes, CampaignKind::PerInst, fp, input_fp, sig)?;
    let n = r.count(2)?;
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        let local = u32::try_from(r.varint()?).map_err(|_| Error::Invalid("site index"))?;
        let k = r.count(1)?;
        streams.push((local, r.take(k)?.to_vec()));
    }
    r.finish()?;
    Ok(SectionTable { complete, streams })
}

// --- the memo ---

/// Monotonic counters describing how much work the table layer saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStatsSnapshot {
    /// Sections whose sealed table was served.
    pub sections_hit: u64,
    /// Sections with no usable table (absent, stale signature, version
    /// skew, or sealed incomplete).
    pub sections_missed: u64,
    /// Sections whose table failed store verification and was quarantined
    /// (the section re-ran).
    pub sections_recomputed: u64,
    /// Injections served from tables instead of executing.
    pub injections_served: u64,
    /// Injections actually executed by the interpreter.
    pub injections_executed: u64,
    /// Tables sealed (published) this run.
    pub tables_sealed: u64,
}

impl TableStatsSnapshot {
    /// Fold another snapshot into this one (a pipeline run aggregates one
    /// snapshot per campaign).
    pub fn merge(&mut self, other: &TableStatsSnapshot) {
        self.sections_hit += other.sections_hit;
        self.sections_missed += other.sections_missed;
        self.sections_recomputed += other.sections_recomputed;
        self.injections_served += other.injections_served;
        self.injections_executed += other.injections_executed;
        self.tables_sealed += other.tables_sealed;
    }
}

#[derive(Default)]
struct TableStats {
    sections_hit: AtomicU64,
    sections_missed: AtomicU64,
    sections_recomputed: AtomicU64,
    injections_served: AtomicU64,
    injections_executed: AtomicU64,
    tables_sealed: AtomicU64,
}

/// The store-backed section-table memo a [`CampaignEngine`] attaches with
/// [`with_tables`](crate::CampaignEngine::with_tables). One memo is scoped
/// to one `(store, input)` pair; both campaign shapes share it.
pub struct TableMemo {
    store: Arc<ArtifactStore>,
    input_fp: u64,
    stats: TableStats,
}

impl TableMemo {
    pub fn new(store: Arc<ArtifactStore>, input_fp: u64) -> Self {
        TableMemo {
            store,
            input_fp,
            stats: TableStats::default(),
        }
    }

    pub fn input_fp(&self) -> u64 {
        self.input_fp
    }

    pub fn stats(&self) -> TableStatsSnapshot {
        TableStatsSnapshot {
            sections_hit: self.stats.sections_hit.load(Ordering::Relaxed),
            sections_missed: self.stats.sections_missed.load(Ordering::Relaxed),
            sections_recomputed: self.stats.sections_recomputed.load(Ordering::Relaxed),
            injections_served: self.stats.injections_served.load(Ordering::Relaxed),
            injections_executed: self.stats.injections_executed.load(Ordering::Relaxed),
            tables_sealed: self.stats.tables_sealed.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_served(&self, n: u64) {
        self.stats.injections_served.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_executed(&self, n: u64) {
        self.stats
            .injections_executed
            .fetch_add(n, Ordering::Relaxed);
    }

    fn ref_name(&self, kind: CampaignKind, fp: u64, sig: u64) -> String {
        format!(
            "{}-{fp:016x}-{:016x}-{sig:016x}",
            tag(kind) as char,
            self.input_fp
        )
    }

    /// Fetch the raw table bytes, bumping stats and emitting the
    /// `section_event` for every disposition. `None` is a miss (absent,
    /// stale, incomplete, corrupt — corrupt additionally quarantined the
    /// artifact and counts as a recompute).
    fn fetch(&self, kind: CampaignKind, fp: u64, sig: u64) -> Option<Vec<u8>> {
        let name = self.ref_name(kind, fp, sig);
        match self.store.load_named(TABLE_ARTIFACT, &name) {
            Ok(Some((_, bytes))) => Some(bytes),
            Ok(None) => {
                self.stats.sections_missed.fetch_add(1, Ordering::Relaxed);
                trace::emit(trace::Event::SectionEvent {
                    fp,
                    action: trace::SectionAction::Miss,
                    units: 0,
                });
                None
            }
            Err(StoreError::Corrupt { .. }) => {
                self.stats
                    .sections_recomputed
                    .fetch_add(1, Ordering::Relaxed);
                trace::emit(trace::Event::SectionEvent {
                    fp,
                    action: trace::SectionAction::Recompute,
                    units: 0,
                });
                None
            }
            Err(_) => {
                self.stats.sections_missed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn note_hit(&self, fp: u64, units: u64) {
        self.stats.sections_hit.fetch_add(1, Ordering::Relaxed);
        trace::emit(trace::Event::SectionEvent {
            fp,
            action: trace::SectionAction::Hit,
            units,
        });
    }

    fn note_stale(&self, fp: u64) {
        self.stats.sections_missed.fetch_add(1, Ordering::Relaxed);
        trace::emit(trace::Event::SectionEvent {
            fp,
            action: trace::SectionAction::Miss,
            units: 0,
        });
    }

    /// Load the sealed table of `kind` for `(fp, sig)`. Incomplete
    /// tables (sealed under an expired deadline) are misses.
    pub(crate) fn load(&self, kind: CampaignKind, fp: u64, sig: u64) -> Option<SectionTable> {
        let bytes = self.fetch(kind, fp, sig)?;
        match decode(kind, &bytes, fp, self.input_fp, sig) {
            Ok(t) if t.complete => {
                self.note_hit(fp, t.total_outcomes());
                Some(t)
            }
            _ => {
                self.note_stale(fp);
                None
            }
        }
    }

    /// Publish a table and point the section's ref at it. Best-effort: a
    /// failed seal degrades to a future miss, never an error.
    pub(crate) fn seal(&self, kind: CampaignKind, fp: u64, sig: u64, t: &SectionTable) {
        let name = self.ref_name(kind, fp, sig);
        let bytes = encode(kind, fp, self.input_fp, sig, t);
        if let Ok(digest) = self.store.publish(TABLE_ARTIFACT, &bytes) {
            if self.store.set_ref(TABLE_ARTIFACT, &name, &digest).is_ok() {
                self.stats.tables_sealed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CampaignKind::{PerInst, Program};

    fn program(complete: bool, units: &[u8]) -> SectionTable {
        SectionTable {
            complete,
            streams: (0..).zip(units).map(|(j, &o)| (j, vec![o])).collect(),
        }
    }

    fn memo(name: &str) -> TableMemo {
        let dir = std::env::temp_dir().join(format!("minpsid-table-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TableMemo::new(Arc::new(ArtifactStore::open(&dir).unwrap()), 77)
    }

    #[test]
    fn program_table_round_trips_through_the_store() {
        let m = memo("prog-rt");
        let t = program(true, &[0, 1, 4]);
        assert!(m.load(Program, 5, 9).is_none(), "cold store misses");
        m.seal(Program, 5, 9, &t);
        let back = m.load(Program, 5, 9).unwrap();
        assert_eq!(back.streams, t.streams);
        assert_eq!(back.stream(1), Some(&[1u8][..]));
        assert!(back.complete);
        // wrong fingerprint, signature or kind: miss, not a wrong-table serve
        assert!(m.load(Program, 6, 9).is_none());
        assert!(m.load(Program, 5, 10).is_none());
        assert!(m.load(PerInst, 5, 9).is_none());
        let s = m.stats();
        assert_eq!(s.sections_hit, 1);
        assert_eq!(s.tables_sealed, 1);
        assert!(s.sections_missed >= 4);
    }

    #[test]
    fn incomplete_tables_are_misses() {
        // the --deadline-secs asymmetry fix: a table sealed under a
        // truncated deadline must never be served as if it were finished
        let m = memo("incomplete");
        m.seal(Program, 1, 2, &program(false, &[0]));
        assert!(m.load(Program, 1, 2).is_none());
        // a program table stops at the first unit the deadline cut
        let mut cut = program(false, &[1, 2, 3]);
        cut.streams[1].1.clear();
        let back = decode(Program, &encode(Program, 1, 77, 2, &cut), 1, 77, 2).unwrap();
        assert_eq!(back.streams, vec![(0, vec![1])]);
        let pi = SectionTable {
            complete: false,
            streams: vec![(0, vec![0, 0])],
        };
        m.seal(PerInst, 3, 4, &pi);
        assert!(m.load(PerInst, 3, 4).is_none());
        assert_eq!(m.stats().sections_hit, 0);
    }

    #[test]
    fn per_inst_table_round_trips_and_indexes_by_local_site() {
        let m = memo("pi-rt");
        let t = SectionTable {
            complete: true,
            streams: vec![(2, vec![0, 1, 0]), (7, vec![3]), (0, vec![1])],
        };
        m.seal(PerInst, 11, 13, &t);
        let back = m.load(PerInst, 11, 13).unwrap();
        assert_eq!(back.stream(2), Some(&[0u8, 1, 0][..]));
        assert_eq!(back.stream(7), Some(&[3u8][..]));
        assert_eq!(back.stream(0), Some(&[1u8][..]));
        assert_eq!(back.stream(9), None);
        assert_eq!(back.total_outcomes(), 5);
    }

    #[test]
    fn corrupt_tables_are_quarantined_and_rerun() {
        let dir = std::env::temp_dir().join(format!("minpsid-table-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let m = TableMemo::new(store.clone(), 77);
        // Chaos flips at publish time: arm it before sealing so the
        // stored object rots in place, then load must spot the rot.
        store.set_chaos_flip(1);
        m.seal(Program, 5, 9, &program(true, &[0]));
        store.set_chaos_flip(0);
        assert!(m.load(Program, 5, 9).is_none(), "corrupt table is a miss");
        let s = m.stats();
        assert_eq!(s.sections_recomputed, 1);
        assert_eq!(store.quarantined_count().unwrap(), 1);
    }

    #[test]
    fn corrupt_table_bytes_are_misses_or_tables_that_are_safe_to_serve() {
        use minpsid_ir::bytes::mutations;
        let good = encode(Program, 9, 77, 13, &program(true, &[1, 2]));
        for bad in mutations(&good) {
            if let Ok(back) = decode(Program, &bad, 9, 77, 13) {
                assert_eq!(bad.len(), good.len(), "a truncation decoded");
                assert_eq!(
                    back.streams.len(),
                    2,
                    "a flip may change outcomes, never the shape"
                );
            }
        }
        let pi = SectionTable {
            complete: true,
            streams: vec![(1, vec![0; 4]), (300, vec![3; 130])],
        };
        let good = encode(PerInst, 9, 77, 13, &pi);
        for bad in mutations(&good) {
            if let Ok(back) = decode(PerInst, &bad, 9, 77, 13) {
                assert_eq!(bad.len(), good.len(), "a truncation decoded");
                assert!(back.total_outcomes() <= good.len() as u64);
                back.stream(1);
            }
        }
        let body = header(PerInst, true, 9, 77, 13).len();
        // hostile length never over-allocates
        let mut bad = good.clone();
        bad[body] = 0xff;
        bad.push(0xff);
        assert!(decode(PerInst, &bad, 9, 77, 13).is_err());
        // a ten-byte varint may only carry bit 63 in its last byte
        let mut bad = good[..body].to_vec();
        bad.extend_from_slice(&[0xff; 9]);
        bad.push(0x02);
        assert_eq!(
            decode(PerInst, &bad, 9, 77, 13).err(),
            Some(Error::Invalid("varint exceeds 64 bits"))
        );
        // a length near usize::MAX is an error, not an overflowing `pos + n`
        let mut bad = good[..body].to_vec();
        put_varint(&mut bad, 1);
        put_varint(&mut bad, 0);
        put_varint(&mut bad, u64::MAX);
        assert!(decode(PerInst, &bad, 9, 77, 13).is_err());
    }

    #[test]
    fn sig_moves_with_the_knobs_that_matter_and_not_others() {
        use crate::campaign::CampaignConfig;
        let golden = GoldenRun {
            output: {
                let mut o = minpsid_interp::Output::default();
                o.push_i(42);
                o
            },
            profile: {
                // shape only; the sig hashes the slice we pass explicitly
                let m = minpsid_ir::Module::new("t");
                minpsid_interp::Profile::for_module(&m)
            },
            steps: 1000,
            checkpoints: Default::default(),
        };
        let cfg = CampaignConfig::quick(1);
        let base = table_sig(Program, &cfg, &golden, &[5, 6], 11);
        // measured at the parent of PR 22, which removed fields from the
        // two structs the sig then rendered: a sealed table must stay findable
        assert_eq!(base, 0x343a_734c_41fa_bc87, "program tables re-keyed");
        assert_eq!(
            table_sig(PerInst, &cfg, &golden, &[5, 6], 11),
            0x0040_eff3_39e7_1ef8,
            "per-instruction tables re-keyed"
        );
        let mut seed2 = cfg.clone();
        seed2.seed = 2;
        assert_ne!(base, table_sig(Program, &seed2, &golden, &[5, 6], 11));
        let mut more = cfg.clone();
        more.injections += 1;
        assert_eq!(
            base,
            table_sig(Program, &more, &golden, &[5, 6], 11),
            "campaign size must not invalidate program tables"
        );
        let mut ckpt = cfg.clone();
        ckpt.max_checkpoints = 3;
        assert_eq!(
            base,
            table_sig(Program, &ckpt, &golden, &[5, 6], 11),
            "checkpoint policy is outcome-neutral"
        );
        assert_ne!(base, table_sig(Program, &cfg, &golden, &[5, 7], 11));
        assert_ne!(base, table_sig(PerInst, &cfg, &golden, &[5, 6], 11));
    }
}
