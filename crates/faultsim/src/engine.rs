//! The unified campaign execution engine: one plan → execute → reduce
//! pipeline behind every campaign composition.
//!
//! Four features grew onto the fault-injection loop one PR at a time —
//! checkpointed replay, tracing, the crash-safe WAL journal, and the
//! scheduler — and each arrived as a forked entry point, until
//! `campaign.rs` carried a 3×2 matrix of near-identical loop bodies.
//! [`CampaignEngine`] folds that matrix back into one orchestration core
//! with the features attached as *policy layers*:
//!
//! * **Scheduling** — early stop, the wall-clock deadline and the
//!   accounting invariant live on a [`Scheduler`]. The engine owns an
//!   unbounded one by default; [`CampaignEngine::with_scheduler`] attaches
//!   a caller-owned (deadline-aware, shared-accounting) one instead.
//! * **Journaling** — [`CampaignEngine::with_journal`] makes the run
//!   crash-safe: recorded outcomes are served without re-execution, fresh
//!   outcomes are appended, and a pending [`interrupt`] drains the run
//!   into [`Interrupted`] with all finished work durable.
//! * **Tracing** — counters, progress sampling and per-function outcome
//!   events, active whenever the process-wide trace sink is.
//!
//! Execution is parallel for **every** composition. Workers fan out over
//! [`par_map_init`] and each result lands in its plan-ordered slot, so
//! reduction — and therefore every report — is byte-identical at any
//! thread count. Journaled runs stay parallel too: workers buffer their
//! WAL records per work unit and a single [`OrderedWriter`] appends each
//! contiguous prefix of completed units, so the WAL byte stream is as
//! deterministic as the report while finished work still reaches disk
//! *during* the run (a crash loses at most the in-flight units).
//!
//! Failure policy, stated once: everything an injected program can do
//! wrong is a value the interpreter returns — its step, output, memory
//! and call-depth limits turn every runaway into `Crash` or `Hang`. What
//! is left is a bug in the harness itself, and [`injection_boundary`] is
//! the one place that meets it: it names the fault that was running and
//! lets the panic go on to stop the run. Nothing is recorded for that
//! injection, and what the WAL had committed resumes.
//!
//! Determinism contract (unchanged from the pre-engine code, verified by
//! the equivalence tests): every injection's RNG is seeded only by
//! `(cfg.seed, plan position)`, never by thread schedule or by which
//! outcomes a journal served, so plain, scheduled, journaled and resumed
//! runs of the same seed produce bit-identical reports.

use crate::campaign::{CampaignConfig, GoldenRun, PerInstSdc, ProgramCampaign, PROGRESS_INTERVAL};
use crate::outcome::{classify, Outcome, OutcomeCounts};
use crate::parallel::par_map_init;
use crate::table::{table_sig, PerInstTable, ProgramTable, TableKind, TableMemo};
use minpsid_interp::{
    ExecConfig, ExecResult, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput, Run, Start,
};
use minpsid_ir::{section_fingerprints, GlobalInstId, Module};
use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
use minpsid_sched::{binomial_ci, splitmix64, Scheduler, SiteStatus};
use minpsid_trace as trace;
use minpsid_trace::{CampaignCounters, CampaignKind, Histogram, OutcomeKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One whole-program-campaign section: a function's slice of the
/// stratified plan. Flat plan positions `unit_base..unit_base+injections`
/// target this function's injectable dynamic executions; allocations are
/// largest-remainder over `pop`, so per-section totals still sum to
/// `cfg.injections` and the sampling stays proportional to execution
/// weight (the same distribution the unstratified sampler converged to).
#[derive(Debug, Clone)]
pub struct ProgramSection {
    /// Function index in the module.
    pub func: usize,
    /// Content fingerprint: the function's own code plus every transitive
    /// callee (see `minpsid_ir::section_fingerprints`).
    pub fp: u64,
    /// Flat plan position of this section's first unit.
    pub unit_base: usize,
    /// Units allocated to this section.
    pub injections: usize,
    /// Injectable dynamic executions within this function.
    pub pop: u64,
    /// Cumulative dynamic counts over the function's injectable sites
    /// with nonzero count, in instruction order: `(gid, count-through-
    /// gid)`. Maps a section-local draw in `0..pop` to a fault target.
    pub prefix: Vec<(GlobalInstId, u64)>,
}

/// One per-instruction-campaign section: a function's injectable,
/// executed sites, highest dynamic count first (a deadline truncates the
/// low-benefit tail *within* each section).
#[derive(Debug, Clone)]
pub struct PerInstSection {
    /// Function index in the module.
    pub func: usize,
    /// Content fingerprint (code + transitive callees).
    pub fp: u64,
    /// Flat plan position of this section's first site.
    pub site_base: usize,
    /// `(dense index, instruction id, dynamic count)`.
    pub sites: Vec<(usize, GlobalInstId, u64)>,
}

/// The deterministic work list a campaign executes: per-section unit
/// groups — a single injection per unit for program campaigns, a whole
/// site per unit for per-instruction campaigns. One *section* is one
/// function; grouping by section is what lets a memoized outcome table
/// stand in for a whole group, and the per-section RNG streams (seeded by
/// content fingerprint, not flat position) are what keep an unedited
/// section's fault sequence stable when a neighbour is edited. Building a
/// plan is pure: it depends only on the module, the golden profile and
/// the config, never on the thread schedule or on journal contents, which
/// is what keeps reduction order (and unit numbering for the ordered
/// journal writer) stable.
#[derive(Debug, Clone)]
pub enum CampaignPlan {
    /// `injections` single-bit flips over `population` injectable dynamic
    /// executions, stratified across `sections`.
    Program {
        injections: usize,
        population: u64,
        sections: Vec<ProgramSection>,
    },
    /// One unit per injectable, executed static instruction, grouped by
    /// enclosing function.
    PerInst {
        sections: Vec<PerInstSection>,
        injections_per_site: usize,
    },
}

impl CampaignPlan {
    /// Number of work units the executor fans out over.
    pub fn units(&self) -> usize {
        match self {
            CampaignPlan::Program { injections, .. } => *injections,
            CampaignPlan::PerInst { sections, .. } => sections.iter().map(|s| s.sites.len()).sum(),
        }
    }

    /// Total injections the plan intends to run (the scheduler's
    /// `planned` figure).
    pub fn planned_injections(&self) -> u64 {
        match self {
            CampaignPlan::Program { injections, .. } => *injections as u64,
            CampaignPlan::PerInst {
                sections,
                injections_per_site,
            } => {
                (sections.iter().map(|s| s.sites.len()).sum::<usize>() * injections_per_site) as u64
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ordered journal writer
// ---------------------------------------------------------------------------

/// One WAL record a worker produced, buffered until the single ordered
/// writer commits its work unit. `ran` is false for an outcome a sealed
/// table served: the journal writes it all the same, but it is already
/// durable in the store and does not advance the WAL's fsync cadence.
enum PendingRecord {
    Program {
        index: u64,
        outcome: u8,
        ran: bool,
    },
    PerInst {
        site: u64,
        k: u64,
        outcome: u8,
        ran: bool,
    },
}

/// The single ordered writer behind parallel journaled runs.
///
/// Workers complete units out of order, but the WAL byte stream must not
/// depend on the thread schedule: replay correctness is keyed, yet a
/// deterministic stream is what makes resume diffs and journal
/// compaction reproducible. Each worker hands its unit's record batch to
/// [`OrderedWriter::commit`]; the writer appends the longest contiguous
/// prefix of committed units and holds later units in a reorder buffer.
/// Finished work therefore reaches disk during the run — a crash loses
/// at most the in-flight units behind the first gap — in an order no
/// thread schedule can perturb.
struct OrderedWriter<'j> {
    journal: &'j CampaignJournal,
    input_fp: u64,
    state: Mutex<ReorderBuffer>,
}

#[derive(Default)]
struct ReorderBuffer {
    /// Next unit ordinal the WAL is waiting for.
    next: usize,
    /// Out-of-order batches, keyed by unit ordinal.
    pending: BTreeMap<usize, Vec<PendingRecord>>,
}

impl<'j> OrderedWriter<'j> {
    fn new(journal: &'j CampaignJournal, input_fp: u64) -> Self {
        OrderedWriter {
            journal,
            input_fp,
            state: Mutex::new(ReorderBuffer::default()),
        }
    }

    /// Hand over unit `unit`'s records (possibly empty — served-from-
    /// journal and truncated units still advance the cursor) and flush
    /// every batch that is now part of the contiguous completed prefix.
    fn commit(&self, unit: usize, records: Vec<PendingRecord>) {
        let mut st = self.state.lock().unwrap();
        st.pending.insert(unit, records);
        while let Some(batch) = {
            let next = st.next;
            st.pending.remove(&next)
        } {
            for r in batch {
                self.append(&r);
            }
            st.next += 1;
        }
    }

    /// Drain whatever is still buffered, in unit order. Interrupted runs
    /// leave gaps (units that never committed); everything that *did*
    /// complete still becomes durable.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        for (_, batch) in std::mem::take(&mut st.pending) {
            for r in batch {
                self.append(&r);
            }
        }
    }

    fn append(&self, r: &PendingRecord) {
        match *r {
            PendingRecord::Program {
                index,
                outcome,
                ran,
            } => self
                .journal
                .record_program(self.input_fp, index, outcome, ran),
            PendingRecord::PerInst {
                site,
                k,
                outcome,
                ran,
            } => self
                .journal
                .record_per_inst(self.input_fp, site, k, outcome, ran),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution helpers (shared by both campaign shapes)
// ---------------------------------------------------------------------------

fn outcome_kind(o: Outcome) -> OutcomeKind {
    match o {
        Outcome::Benign => OutcomeKind::Benign,
        Outcome::Sdc => OutcomeKind::Sdc,
        Outcome::Crash => OutcomeKind::Crash,
        Outcome::Hang => OutcomeKind::Hang,
        Outcome::Detected => OutcomeKind::Detected,
    }
}

fn outcome_tally(c: &OutcomeCounts) -> trace::OutcomeTally {
    trace::OutcomeTally {
        benign: c.benign,
        sdc: c.sdc,
        crash: c.crash,
        hang: c.hang,
        detected: c.detected,
    }
}

/// Aggregate a per-instruction campaign's outcome counts by enclosing
/// function and emit one `function_outcomes` event per touched function.
fn emit_function_outcomes(
    module: &Module,
    targets: &[(usize, GlobalInstId, u64)],
    counts: &[OutcomeCounts],
) {
    let mut per_func = vec![OutcomeCounts::default(); module.funcs.len()];
    for &(dense, gid, _) in targets {
        per_func[gid.func.index()].merge(&counts[dense]);
    }
    for (fi, agg) in per_func.iter().enumerate() {
        if agg.total() > 0 {
            trace::emit(trace::Event::FunctionOutcomes {
                func: module.funcs[fi].name.clone(),
                counts: outcome_tally(agg),
            });
        }
    }
}

/// Run one injection beside the golden run ([`Start::Beside`]): resumed
/// from the nearest checkpoint before the fault's target, or from the entry
/// point when none precedes it, and finished early once its state equals
/// the golden run's at a later checkpoint, or once, past the golden run's
/// length, a counted loop of it provably repeats itself to the step limit.
/// `st` is per-worker scratch whose buffers are reused across injections.
fn inject(
    interp: &Interp<'_>,
    st: &mut ExecScratch,
    golden: &GoldenRun,
    input: &ProgInput,
    fault: FaultSpec,
) -> ExecResult {
    interp.execute(
        st,
        &Run {
            fault: Some(fault),
            start: Start::Beside(&golden.checkpoints),
            ..Run::new(input)
        },
    )
}

/// How a campaign runs one fault: [`inject`], always — a type so that a
/// test can hand the engine a way that fails.
type Inject<'f> = dyn Fn(&Interp<'_>, &mut ExecScratch, &GoldenRun, &ProgInput, FaultSpec) -> ExecResult
    + Sync
    + 'f;

/// Where one injection's dynamic steps went: skipped by resuming from a
/// checkpoint, executed, and — when the run converged onto the golden run
/// and was finished early — the tail that was neither. A run proved to
/// end at the step limit executed up to the proof only.
#[derive(Debug, Clone, Copy, Default)]
struct StepTally {
    executed: u64,
    skipped: u64,
    saved: Option<u64>,
    hang_proved: bool,
}

impl StepTally {
    fn record(&self, counters: &CampaignCounters, outcome: Outcome) {
        counters.record(outcome_kind(outcome), self.executed, self.skipped);
        if let Some(saved) = self.saved {
            counters.record_converged(saved);
        }
        if self.hang_proved {
            counters.record_hang_proved();
        }
    }
}

/// The one line a harness panic adds to the panic's own: which fault was
/// running, in the terms `propagate` and a journal use to find it again.
fn describe_fault(module: &Module, input: &ProgInput, seed: u64, fault: FaultSpec) -> String {
    let target = match fault.target {
        FaultTarget::NthOfInst(gid, nth) => format!(
            "{}::%{} (dynamic instance {nth}",
            module.func(gid.func).name,
            gid.inst.index()
        ),
        FaultTarget::NthDynamic(nth) => format!("(dynamic instruction {nth}"),
    };
    format!(
        "minpsid: harness panic while injecting into {target}, bit {}) — campaign seed {seed}, \
         input {:016x}. This is a bug in the interpreter or the engine, not an outcome: nothing \
         was recorded for this injection, and a journaled run resumes from what its WAL holds.",
        fault.bit,
        input.fingerprint()
    )
}

/// The harness's whole failure policy: run one injection and, if the
/// harness itself panics underneath it, say which fault it was running
/// and re-raise. `par_map_init` and `sample_campaign` carry the panic on
/// to the caller, so the process stops; the interpreter is deterministic,
/// so running the fault again would only panic again.
fn injection_boundary<T>(
    module: &Module,
    input: &ProgInput,
    seed: u64,
    fault: FaultSpec,
    run: impl FnOnce() -> T,
) -> T {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        eprintln!("{}", describe_fault(module, input, seed, fault));
        resume_unwind(payload)
    })
}

/// The fault a whole-program campaign injects at section-local unit `j`
/// of `sec` — shared by [`CampaignEngine::run_program`] and
/// [`ProgramUnitExecutor`], so a unit resolved on its own is exactly the
/// outcome the parallel executor records at that plan position.
///
/// The RNG stream is seeded by `(cfg.seed, section fingerprint, j)` —
/// never by the flat plan position — so an unedited section draws the
/// same fault sequence whatever its neighbours turned into, which is the
/// determinism a memoized outcome table relies on.
fn program_fault(cfg: &CampaignConfig, sec: &ProgramSection, j: usize) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ splitmix64(sec.fp) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let r = rng.random_range(0..sec.pop);
    // map the section-local draw through the cumulative site counts
    let idx = sec.prefix.partition_point(|&(_, cum)| cum <= r);
    let (gid, _) = sec.prefix[idx];
    let prev = if idx == 0 { 0 } else { sec.prefix[idx - 1].1 };
    FaultSpec {
        target: FaultTarget::NthOfInst(gid, r - prev),
        bit: rng.random_range(0..64),
    }
}

/// The `k`-th fault a per-instruction campaign injects at the site
/// `(gid, count)` of `sec`: one of the site's `count` dynamic instances,
/// one bit. Seeded by content (section fingerprint, function-local
/// instruction index, `k`), never by plan position, for the same reason
/// [`program_fault`]'s stream is. With `count` instances there are only
/// `64 * count` distinct faults, so at a site executed once a campaign of
/// N injections repeats itself (half of them at N = 100).
fn per_inst_fault(
    cfg: &CampaignConfig,
    sec: &PerInstSection,
    gid: GlobalInstId,
    count: u64,
    k: usize,
) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            ^ splitmix64(sec.fp)
            ^ (gid.inst.index() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    FaultSpec {
        target: FaultTarget::NthOfInst(gid, rng.random_range(0..count)),
        bit: rng.random_range(0..64),
    }
}

/// Golden-context table signature for a program section: the per-site
/// dynamic counts (in plan order) plus the section population pin every
/// fault target the section-local RNG stream can draw.
fn program_sig(cfg: &CampaignConfig, golden: &GoldenRun, sec: &ProgramSection) -> u64 {
    let mut counts = Vec::with_capacity(sec.prefix.len());
    let mut prev = 0u64;
    for &(_, cum) in &sec.prefix {
        counts.push(cum - prev);
        prev = cum;
    }
    table_sig(TableKind::Program, cfg, golden, &counts, sec.pop)
}

/// Golden-context table signature for a per-instruction section.
fn per_inst_sig(cfg: &CampaignConfig, golden: &GoldenRun, sec: &PerInstSection) -> u64 {
    let counts: Vec<u64> = sec.sites.iter().map(|&(_, _, c)| c).collect();
    let pop = counts.iter().sum();
    table_sig(TableKind::PerInst, cfg, golden, &counts, pop)
}

/// Seal each program section's outcomes after a completed (uninterrupted)
/// run. A group fully served from an existing table is skipped — the
/// sealed artifact may hold *more* units than this run's allocation
/// (allocation drift after an edit elsewhere), and rewriting would
/// discard them. A group containing a truncated unit seals
/// `complete: false`: a miss on every future load, so deadline-starved
/// runs never masquerade as finished ones.
fn seal_program_sections(
    memo: &TableMemo,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    sections: &[ProgramSection],
    loaded: &[Option<ProgramTable>],
    results: &[UnitResult],
) {
    for (s, sec) in sections.iter().enumerate() {
        if sec.injections == 0 {
            continue;
        }
        let range = &results[sec.unit_base..sec.unit_base + sec.injections];
        let any_fresh = range
            .iter()
            .any(|r| matches!(r, UnitResult::Done { fresh: true, .. }));
        if loaded[s].is_some() && !any_fresh {
            continue;
        }
        let mut units = Vec::with_capacity(range.len());
        let mut complete = true;
        for r in range {
            match r {
                UnitResult::Done { outcome, .. } => units.push(outcome.to_u8()),
                _ => {
                    complete = false;
                    break;
                }
            }
        }
        memo.seal_program(
            sec.fp,
            program_sig(cfg, golden, sec),
            &ProgramTable { complete, units },
        );
    }
}

/// The interpreter limits a campaign's injections run under: the
/// campaign's base limits, unprofiled, with the hang threshold scaled from
/// the golden run's length.
pub fn faulty_exec_config(cfg: &CampaignConfig, golden_steps: u64) -> ExecConfig {
    ExecConfig {
        profile: false,
        step_limit: golden_steps.saturating_mul(cfg.hang_multiplier).max(10_000),
        ..cfg.exec.clone()
    }
}

/// How a program-campaign work unit ended. `fresh` distinguishes an
/// interpreter execution from an outcome served by the journal or a
/// memoized table — sealing skips groups with nothing newly executed.
enum UnitResult {
    Done { outcome: Outcome, fresh: bool },
    Truncated,
    Interrupted,
}

/// How one per-instruction site (one work unit) ended: the dense index
/// and outcome tally the reducer keys on, the final site status, how many
/// of its injections the deadline cut, whether the unit ran to completion
/// (vs interrupted), the recorded outcome bytes in injection order (what
/// sealing writes), and whether any injection at this site executed
/// fresh.
struct SiteResult {
    dense: usize,
    counts: OutcomeCounts,
    status: SiteStatus,
    truncated: u64,
    done: bool,
    outcomes: Vec<u8>,
    fresh: bool,
}

/// Where one injection's outcome came from.
#[derive(PartialEq)]
enum Source {
    Journal,
    Table,
    Run,
}

impl Source {
    /// Book the injection with the table layer's served/executed tallies.
    fn note(&self, memo: Option<&TableMemo>) {
        match (self, memo) {
            (Source::Table, Some(m)) => m.note_served(1),
            (Source::Run, Some(m)) => m.note_executed(1),
            _ => {}
        }
    }
}

/// Seal each per-instruction section's outcome streams. Mirrors
/// [`seal_program_sections`]: a group fully served from an existing table
/// is left alone, and any site the run could not finish
/// (deadline-truncated or unsampled) marks the whole group
/// `complete: false` — a miss on every future load.
fn seal_per_inst_sections(
    memo: &TableMemo,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    sections: &[PerInstSection],
    loaded: &[Option<PerInstTable>],
    per_site: &[SiteResult],
) {
    for (s, sec) in sections.iter().enumerate() {
        let range = &per_site[sec.site_base..sec.site_base + sec.sites.len()];
        let any_fresh = range.iter().any(|r| r.fresh);
        if loaded[s].is_some() && !any_fresh {
            continue;
        }
        let complete = range
            .iter()
            .all(|r| matches!(r.status, SiteStatus::Full | SiteStatus::EarlyStopped));
        let sites: Vec<(u32, Vec<u8>)> = sec
            .sites
            .iter()
            .zip(range)
            .map(|(&(_, gid, _), r)| (gid.inst.index() as u32, r.outcomes.clone()))
            .collect();
        memo.seal_per_inst(
            sec.fp,
            per_inst_sig(cfg, golden, sec),
            &PerInstTable { complete, sites },
        );
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The single orchestration core every campaign runs through.
///
/// Construct with [`CampaignEngine::new`], attach policy layers with
/// [`with_scheduler`](CampaignEngine::with_scheduler) /
/// [`with_journal`](CampaignEngine::with_journal), then execute a
/// campaign shape with [`run_program`](CampaignEngine::run_program) or
/// [`run_per_instruction`](CampaignEngine::run_per_instruction).
///
/// ```text
/// CampaignEngine::new(&module, &input, &golden, &cfg)
///     .with_scheduler(&sched)        // deadline + shared accounting
///     .with_journal(&journal, fp)    // crash-safe resume
///     .run_per_instruction()?
/// ```
pub struct CampaignEngine<'a> {
    module: &'a Module,
    input: &'a ProgInput,
    golden: &'a GoldenRun,
    cfg: &'a CampaignConfig,
    /// Fallback scheduler (early stop per `cfg.sched`, no deadline) used
    /// when the caller does not attach one.
    owned_sched: Scheduler,
    sched: Option<&'a Scheduler>,
    journal: Option<(&'a CampaignJournal, u64)>,
    tables: Option<&'a TableMemo>,
    /// Per-instruction injections that repeated a fault already run at
    /// their site and took its outcome (a statistic, hence `Relaxed`).
    deduped: AtomicU64,
}

impl<'a> CampaignEngine<'a> {
    /// An engine over `(module, input, golden)` with no external policy
    /// layers: early stop per `cfg.sched`, no deadline, no journal.
    pub fn new(
        module: &'a Module,
        input: &'a ProgInput,
        golden: &'a GoldenRun,
        cfg: &'a CampaignConfig,
    ) -> Self {
        CampaignEngine {
            module,
            input,
            golden,
            cfg,
            owned_sched: Scheduler::unbounded(cfg.sched.clone()),
            sched: None,
            journal: None,
            tables: None,
            deduped: AtomicU64::new(0),
        }
    }

    /// Attach a caller-owned [`Scheduler`] — the deadline-aware form whose
    /// accounting spans several campaigns of one run.
    pub fn with_scheduler(mut self, sched: &'a Scheduler) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Attach a crash-safe journal layer: outcomes recorded under
    /// `input_fp` are served without re-execution, fresh outcomes are
    /// appended (in deterministic unit order, whatever the thread count),
    /// and a pending [`interrupt`] returns [`Interrupted`] with all
    /// finished work durable.
    pub fn with_journal(mut self, journal: &'a CampaignJournal, input_fp: u64) -> Self {
        self.journal = Some((journal, input_fp));
        self
    }

    /// Attach a store-backed section-table memo: each section's executed
    /// outcomes are sealed into the artifact store, and a later campaign
    /// whose section fingerprint and golden-context signature match
    /// serves them without re-executing. The cold path is unchanged —
    /// composed reports are byte-identical to monolithic ones.
    pub fn with_tables(mut self, memo: &'a TableMemo) -> Self {
        self.tables = Some(memo);
        self
    }

    /// The scheduler this engine executes under.
    pub fn scheduler(&self) -> &Scheduler {
        self.sched.unwrap_or(&self.owned_sched)
    }

    /// Run `fault` to its classified outcome behind the
    /// [`injection_boundary`].
    fn execute(
        &self,
        interp: &Interp<'_>,
        st: &mut ExecScratch,
        fault: FaultSpec,
        inject: &Inject<'_>,
    ) -> (Outcome, StepTally) {
        injection_boundary(self.module, self.input, self.cfg.seed, fault, || {
            let r = inject(interp, st, self.golden, self.input, fault);
            debug_assert!(r.fault_applied, "fault target within population");
            let outcome = classify(&self.golden.output, &r);
            let skipped = r.resumed_at.unwrap_or(0);
            let steps = StepTally {
                skipped,
                // a run that converged onto golden stopped there, one
                // proved to hang at the proof; the rest of `steps` was
                // not replayed
                executed: r.hang_proved_at.or(r.converged_at).unwrap_or(r.steps) - skipped,
                saved: r.converged_at.map(|at| r.steps - at),
                hang_proved: r.hang_proved_at.is_some(),
            };
            st.recycle_output(r.output);
            (outcome, steps)
        })
    }

    /// Per-instruction injections so far that were not interpreted
    /// because the same `(dynamic instance, bit)` had already run at their
    /// site in this campaign. They are accounted exactly like executed
    /// ones — reports, journal and tables cannot tell — with zero steps.
    pub fn deduped(&self) -> u64 {
        self.deduped.load(Ordering::Relaxed)
    }

    /// The faults [`run_per_instruction`](Self::run_per_instruction)
    /// injects at `sec.sites[site]`, in injection order. Planning is pure
    /// (config, section fingerprint, the site's dynamic count): what the
    /// journal or a sealed table serves, and which repeats are deduped,
    /// changes which of these faults are *run*, never which are planned.
    pub fn planned_faults<'s>(
        &'s self,
        sec: &'s PerInstSection,
        site: usize,
    ) -> impl Iterator<Item = FaultSpec> + 's {
        let (_, gid, count) = sec.sites[site];
        (0..self.cfg.per_inst_injections).map(move |k| per_inst_fault(self.cfg, sec, gid, count, k))
    }

    /// Injectable sites per function: `(dense index, gid, dynamic count)`
    /// for every injectable instruction that executed at least once.
    fn sites_by_function(&self) -> Vec<Vec<(usize, GlobalInstId, u64)>> {
        let numbering = self.module.numbering();
        let mut per_func = vec![Vec::new(); self.module.funcs.len()];
        for (gid, inst) in self.module.iter_insts() {
            if !inst.injectable() {
                continue;
            }
            let dense = numbering.index(gid);
            let count = self.golden.profile.inst_counts[dense];
            if count > 0 {
                per_func[gid.func.index()].push((dense, gid, count));
            }
        }
        per_func
    }

    /// The whole-program plan: `cfg.injections` units over the golden
    /// run's injectable population, stratified by section. Per-section
    /// allocations are largest-remainder over each section's injectable
    /// executions (remainder ties broken by function index), so they sum
    /// exactly to `cfg.injections` and track execution weight the way
    /// uniform global sampling does in expectation.
    pub fn plan_program(&self) -> CampaignPlan {
        let population = self.golden.profile.injectable_execs;
        let injections = self.cfg.injections;
        let fps = section_fingerprints(self.module);
        let per_func = self.sites_by_function();
        let mut sections: Vec<ProgramSection> = Vec::new();
        for (fi, sites) in per_func.into_iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            let mut prefix = Vec::with_capacity(sites.len());
            let mut cum = 0u64;
            for (_, gid, count) in sites {
                cum += count;
                prefix.push((gid, cum));
            }
            sections.push(ProgramSection {
                func: fi,
                fp: fps[fi],
                unit_base: 0,
                injections: 0,
                pop: cum,
                prefix,
            });
        }
        debug_assert_eq!(
            sections.iter().map(|s| s.pop).sum::<u64>(),
            population,
            "profile population equals the sum of section populations"
        );
        if population > 0 && injections > 0 {
            let mut assigned = 0usize;
            let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(sections.len());
            for (s, sec) in sections.iter_mut().enumerate() {
                let exact = injections as u128 * sec.pop as u128;
                sec.injections = (exact / population as u128) as usize;
                assigned += sec.injections;
                remainders.push((exact % population as u128, s));
            }
            remainders.sort_unstable_by_key(|&(rem, s)| (std::cmp::Reverse(rem), s));
            for &(_, s) in remainders.iter().take(injections - assigned) {
                sections[s].injections += 1;
            }
            let mut base = 0usize;
            for sec in &mut sections {
                sec.unit_base = base;
                base += sec.injections;
            }
            debug_assert_eq!(base, injections, "allocations sum to the plan size");
        }
        CampaignPlan::Program {
            injections,
            population,
            sections,
        }
    }

    /// The per-instruction plan: one unit per injectable, executed static
    /// instruction, grouped by enclosing function, highest dynamic count
    /// first within each group (deadlines truncate each section's
    /// low-benefit tail; dense index breaks ties so the order is total).
    pub fn plan_per_instruction(&self) -> CampaignPlan {
        let fps = section_fingerprints(self.module);
        let per_func = self.sites_by_function();
        let mut sections: Vec<PerInstSection> = Vec::new();
        let mut site_base = 0usize;
        for (fi, mut sites) in per_func.into_iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            sites.sort_unstable_by_key(|&(dense, _, count)| (std::cmp::Reverse(count), dense));
            let len = sites.len();
            sections.push(PerInstSection {
                func: fi,
                fp: fps[fi],
                site_base,
                sites,
            });
            site_base += len;
        }
        CampaignPlan::PerInst {
            sections,
            injections_per_site: self.cfg.per_inst_injections,
        }
    }

    /// Execute the whole-program campaign: `cfg.injections` single-bit
    /// flips, each into a uniformly random dynamic instruction execution
    /// and uniformly random bit, every outcome classified against the
    /// golden run. Errs with [`Interrupted`] only when a journal is
    /// attached and an interrupt is pending.
    pub fn run_program(&self) -> Result<ProgramCampaign, Interrupted> {
        let plan_span = trace::span("plan");
        let (injections, population, sections) = match self.plan_program() {
            CampaignPlan::Program {
                injections,
                population,
                sections,
            } => (injections, population, sections),
            CampaignPlan::PerInst { .. } => unreachable!(),
        };
        drop(plan_span);
        let cfg = self.cfg;
        let sched = self.scheduler();
        if population == 0 || injections == 0 {
            return Ok(ProgramCampaign::empty(cfg));
        }
        sched.add_planned(injections as u64);
        let interp = Interp::new(self.module, faulty_exec_config(cfg, self.golden.steps));
        // capture once so workers pay no atomic load when tracing is off
        let tracing = trace::active();
        let counters = CampaignCounters::new(CampaignKind::Program, injections as u64);
        let suffix_steps = Histogram::new();
        let journal = self.journal;
        let writer = journal.map(|(j, fp)| OrderedWriter::new(j, fp));
        let memo = self.tables;
        // one verified load per section, before the fan-out: workers only
        // index the decoded tables
        let loaded: Vec<Option<ProgramTable>> = sections
            .iter()
            .map(|sec| {
                memo.filter(|_| sec.injections > 0)
                    .and_then(|m| m.load_program(sec.fp, program_sig(cfg, self.golden, sec)))
            })
            .collect();
        let execute_span = trace::span("execute");
        let results = trace::sample_campaign(&counters, PROGRESS_INTERVAL, || {
            par_map_init(injections, cfg.threads, ExecScratch::default, |st, i| {
                if journal.is_some() && interrupt::requested() {
                    return UnitResult::Interrupted;
                }
                // last section whose unit range begins at or before `i`
                let s = sections.partition_point(|sec| sec.unit_base <= i) - 1;
                let sec = &sections[s];
                let j = i - sec.unit_base;
                // the journal, then the sealed table, then — unless the
                // deadline has passed — a run: the first that knows this
                // unit's outcome
                let journaled = journal
                    .and_then(|(jr, fp)| jr.program_outcome(fp, i as u64))
                    .and_then(Outcome::from_u8);
                let tabled = loaded[s]
                    .as_ref()
                    .and_then(|t| t.units.get(j))
                    .and_then(|&b| Outcome::from_u8(b));
                let (outcome, steps, source) = match (journaled, tabled) {
                    (Some(o), _) => (o, StepTally::default(), Source::Journal),
                    (None, Some(o)) => (o, StepTally::default(), Source::Table),
                    (None, None) if sched.deadline_exceeded() => {
                        if let Some(w) = &writer {
                            w.commit(i, Vec::new());
                        }
                        return UnitResult::Truncated;
                    }
                    (None, None) => {
                        let run = self.execute(&interp, st, program_fault(cfg, sec, j), &inject);
                        if tracing {
                            suffix_steps.record(run.1.executed);
                        }
                        (run.0, run.1, Source::Run)
                    }
                };
                source.note(memo);
                sched.note_completed(1);
                if tracing {
                    steps.record(&counters, outcome);
                }
                if let Some(w) = &writer {
                    // a table-served outcome still gets a real record, so
                    // a resumed run's journal matches a cold run's
                    let mut records = Vec::new();
                    if source != Source::Journal {
                        records.push(PendingRecord::Program {
                            index: i as u64,
                            outcome: outcome.to_u8(),
                            ran: source == Source::Run,
                        });
                    }
                    w.commit(i, records);
                }
                UnitResult::Done {
                    outcome,
                    fresh: source == Source::Run,
                }
            })
        });
        drop(execute_span);
        if let Some(w) = &writer {
            w.finish();
        }
        if tracing {
            suffix_steps.emit("fi.program.suffix_steps");
        }
        if journal.is_some()
            && (results.iter().any(|r| matches!(r, UnitResult::Interrupted))
                || interrupt::requested())
        {
            if let Some((j, _)) = journal {
                let _ = j.sync();
            }
            return Err(Interrupted);
        }
        let _reduce_span = trace::span("reduce");
        let mut counts = OutcomeCounts::default();
        let mut truncated = 0u64;
        for r in &results {
            match r {
                UnitResult::Done { outcome, .. } => counts.record(*outcome),
                UnitResult::Truncated => truncated += 1,
                UnitResult::Interrupted => unreachable!("handled above"),
            }
        }
        sched.note_truncated(CampaignKind::Program, truncated);
        if let Some(m) = memo {
            seal_program_sections(m, cfg, self.golden, &sections, &loaded, &results);
            let served = loaded.iter().filter(|t| t.is_some()).count() as u64;
            if served > 0 {
                trace::emit(trace::Event::SectionEvent {
                    fp: 0,
                    action: trace::SectionAction::Compose,
                    units: served,
                });
            }
        }
        if let Some((j, _)) = journal {
            let _ = j.sync();
        }
        let sdc_ci = binomial_ci(counts.sdc, counts.total(), cfg.sched.ci_z);
        Ok(ProgramCampaign {
            counts,
            sdc_ci,
            planned: injections as u64,
            truncated,
        })
    }

    /// Execute the per-instruction campaign: `cfg.per_inst_injections`
    /// faults into uniformly random dynamic executions of every site in
    /// the plan. Converged sites stop early; sites past the deadline are
    /// truncated. Errs with [`Interrupted`] only when a journal is
    /// attached and an interrupt is pending.
    pub fn run_per_instruction(&self) -> Result<PerInstSdc, Interrupted> {
        self.run_per_instruction_with(&inject)
    }

    /// [`run_per_instruction`](Self::run_per_instruction) over the given
    /// way of running one fault (see [`execute`](Self::execute)).
    fn run_per_instruction_with(&self, inject: &Inject<'_>) -> Result<PerInstSdc, Interrupted> {
        let plan_span = trace::span("plan");
        let (sections, planned) = match self.plan_per_instruction() {
            CampaignPlan::PerInst {
                sections,
                injections_per_site,
            } => (sections, injections_per_site),
            CampaignPlan::Program { .. } => unreachable!(),
        };
        drop(plan_span);
        // flat plan-order site list, for the fan-out and the reducer
        let sites: Vec<(usize, GlobalInstId, u64)> = sections
            .iter()
            .flat_map(|sec| sec.sites.iter().copied())
            .collect();
        let cfg = self.cfg;
        let sched = self.scheduler();
        let n = self.module.numbering().len();
        let interp = Interp::new(self.module, faulty_exec_config(cfg, self.golden.steps));
        sched.add_planned((sites.len() * planned) as u64);
        let tracing = trace::active();
        let counters = CampaignCounters::new(CampaignKind::PerInst, (sites.len() * planned) as u64);
        let journal = self.journal;
        let writer = journal.map(|(j, fp)| OrderedWriter::new(j, fp));
        let memo = self.tables;
        let loaded: Vec<Option<PerInstTable>> = sections
            .iter()
            .map(|sec| {
                memo.and_then(|m| m.load_per_inst(sec.fp, per_inst_sig(cfg, self.golden, sec)))
            })
            .collect();
        let execute_span = trace::span("execute");
        let per_site = trace::sample_campaign(&counters, PROGRESS_INTERVAL, || {
            par_map_init(sites.len(), cfg.threads, ExecScratch::default, |st, t| {
                let (dense, gid, count) = sites[t];
                // last section whose site range begins at or before `t`
                let s = sections.partition_point(|sec| sec.site_base <= t) - 1;
                let sec = &sections[s];
                let site = dense as u64;
                let mut r = SiteResult {
                    dense,
                    counts: OutcomeCounts::default(),
                    status: SiteStatus::Full,
                    truncated: 0,
                    done: true,
                    outcomes: Vec::new(),
                    fresh: false,
                };
                let mut records: Vec<PendingRecord> = Vec::new();
                // the sealed table's outcome stream for this site, keyed
                // by the instruction's function-local index (stable when
                // other functions are edited). A stream shorter than
                // `planned` means the sealing run stopped early at this
                // site; the same stop re-derives below before `k` ever
                // reaches its end.
                let served: &[u8] = loaded[s]
                    .as_ref()
                    .and_then(|tab| tab.site(gid.inst.index() as u32))
                    .unwrap_or(&[]);
                // outcome of the faults already run at this site
                let mut ran: HashMap<FaultSpec, Outcome> = HashMap::new();
                for k in 0..planned {
                    if journal.is_some() && interrupt::requested() {
                        // partial work stays durable: the batch holds
                        // everything this unit finished before the
                        // interrupt
                        r.done = false;
                        break;
                    }
                    if sched.deadline_exceeded() {
                        r.status = if k == 0 {
                            SiteStatus::Unsampled
                        } else {
                            SiteStatus::Truncated
                        };
                        r.truncated = (planned - k) as u64;
                        break;
                    }
                    // the journal, then the sealed table, then a run: the
                    // first that knows this injection's outcome
                    let journaled = journal
                        .and_then(|(j, fp)| j.per_inst_outcome(fp, site, k as u64))
                        .and_then(Outcome::from_u8);
                    let tabled = served.get(k).copied().and_then(Outcome::from_u8);
                    let (outcome, steps, source) = match (journaled, tabled) {
                        (Some(o), _) => (o, StepTally::default(), Source::Journal),
                        (None, Some(o)) => (o, StepTally::default(), Source::Table),
                        (None, None) => {
                            let fault = per_inst_fault(cfg, sec, gid, count, k);
                            // a repeat of a fault already run at this site
                            // takes its outcome: the interpreter is
                            // deterministic
                            let (o, steps) = match ran.get(&fault) {
                                Some(&o) => {
                                    self.deduped.fetch_add(1, Ordering::Relaxed);
                                    if tracing {
                                        counters.record_deduped();
                                    }
                                    (o, StepTally::default())
                                }
                                None => {
                                    let run = self.execute(&interp, st, fault, inject);
                                    ran.insert(fault, run.0);
                                    run
                                }
                            };
                            (o, steps, Source::Run)
                        }
                    };
                    source.note(memo);
                    r.fresh |= source == Source::Run;
                    // a table-served outcome still gets a real WAL record,
                    // so a resumed run's journal matches a cold run's
                    if journal.is_some() && source != Source::Journal {
                        records.push(PendingRecord::PerInst {
                            site,
                            k: k as u64,
                            outcome: outcome.to_u8(),
                            ran: source == Source::Run,
                        });
                    }
                    r.counts.record(outcome);
                    r.outcomes.push(outcome.to_u8());
                    sched.note_completed(1);
                    if tracing {
                        steps.record(&counters, outcome);
                    }
                    if let Some(hw) = sched.early_stop(r.counts.sdc, r.counts.total()) {
                        if k + 1 < planned {
                            let skip = (planned - k - 1) as u64;
                            sched.note_early_stop(
                                CampaignKind::PerInst,
                                site,
                                r.counts.total(),
                                hw,
                                skip,
                            );
                            r.status = SiteStatus::EarlyStopped;
                            break;
                        }
                    }
                }
                if let Some(w) = &writer {
                    w.commit(t, records);
                }
                r
            })
        });
        drop(execute_span);
        if let Some(w) = &writer {
            w.finish();
        }

        if journal.is_some() {
            let complete = per_site.iter().all(|r| r.done);
            if !complete || interrupt::requested() {
                if let Some((j, _)) = journal {
                    let _ = j.sync();
                }
                return Err(Interrupted);
            }
        }
        let _reduce_span = trace::span("reduce");
        sched.note_truncated(
            CampaignKind::PerInst,
            per_site.iter().map(|r| r.truncated).sum(),
        );
        if let Some(m) = memo {
            seal_per_inst_sections(m, cfg, self.golden, &sections, &loaded, &per_site);
            let served = loaded.iter().filter(|t| t.is_some()).count() as u64;
            if served > 0 {
                trace::emit(trace::Event::SectionEvent {
                    fp: 0,
                    action: trace::SectionAction::Compose,
                    units: served,
                });
            }
        }
        let mut sdc_prob = vec![0.0; n];
        let mut counts = vec![OutcomeCounts::default(); n];
        let mut ci = vec![binomial_ci(0, 0, cfg.sched.ci_z); n];
        let mut status = vec![SiteStatus::Unsampled; n];
        for r in per_site {
            sdc_prob[r.dense] = r.counts.sdc_prob();
            ci[r.dense] = sched.site_ci(r.counts.sdc, r.counts.total());
            counts[r.dense] = r.counts;
            status[r.dense] = r.status;
        }
        if tracing {
            emit_function_outcomes(self.module, &sites, &counts);
        }
        if let Some((j, _)) = journal {
            let _ = j.sync();
        }
        Ok(PerInstSdc {
            sdc_prob,
            counts,
            ci,
            status,
        })
    }

    /// A sequential unit-at-a-time executor over this engine's program
    /// plan, for callers that drive unit selection themselves — the
    /// benchmark's `fi_units` workload times one injection at a time — in
    /// whatever order they choose; each unit's outcome is identical to
    /// what [`run_program`](Self::run_program) would have produced at
    /// that plan position.
    pub fn program_executor(&self) -> ProgramUnitExecutor<'_> {
        let (injections, population, sections) = match self.plan_program() {
            CampaignPlan::Program {
                injections,
                population,
                sections,
            } => (injections, population, sections),
            CampaignPlan::PerInst { .. } => unreachable!(),
        };
        ProgramUnitExecutor {
            engine: self,
            interp: Interp::new(self.module, faulty_exec_config(self.cfg, self.golden.steps)),
            scratch: ExecScratch::default(),
            injections,
            population,
            sections,
        }
    }
}

// ---------------------------------------------------------------------------
// Unit-at-a-time executor
// ---------------------------------------------------------------------------

/// Resolves individual program-campaign units on demand: restore →
/// replay → classify for one plan position, with no pool, journal or
/// table around it, which is what the benchmark's `fi_units` workload
/// times. Determinism is carried entirely by the plan position `i` — the
/// fault derives from `(cfg, section, i)` alone — so units resolved in any
/// order, any number of times, reduce to exactly the
/// [`run_program`](CampaignEngine::run_program) report.
pub struct ProgramUnitExecutor<'e> {
    engine: &'e CampaignEngine<'e>,
    interp: Interp<'e>,
    scratch: ExecScratch,
    injections: usize,
    population: u64,
    sections: Vec<ProgramSection>,
}

impl ProgramUnitExecutor<'_> {
    /// Resolve unit `i` to its classified outcome. The `bool` is always
    /// `false` (it said "recovered via retry"): `benchmark/` destructures
    /// a pair and may not change here; ROADMAP 4(b) drops it.
    ///
    /// Panics if `i` is outside the plan or the population is empty.
    pub fn run_unit(&mut self, i: usize) -> (Outcome, bool) {
        assert!(
            i < self.injections && self.population > 0,
            "unit {i} outside plan ({} injections, population {})",
            self.injections,
            self.population
        );
        let s = self.sections.partition_point(|sec| sec.unit_base <= i) - 1;
        let sec = &self.sections[s];
        let fault = program_fault(self.engine.cfg, sec, i - sec.unit_base);
        let (outcome, _) = self
            .engine
            .execute(&self.interp, &mut self.scratch, fault, &inject);
        (outcome, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::golden_run;
    use crate::campaign::tests::{input, journal_dir, test_module, INTERRUPT_FLAG};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn boundary_names_the_fault_and_reraises_the_panic() {
        let m = test_module();
        let inp = input(50);
        let (gid, _) = m
            .iter_insts()
            .find(|(_, inst)| inst.injectable())
            .expect("an injectable instruction");
        let fault = FaultSpec {
            target: FaultTarget::NthOfInst(gid, 7),
            bit: 33,
        };
        let msg = describe_fault(&m, &inp, 42, fault);
        for part in [
            format!("main::%{} ", gid.inst.index()),
            "dynamic instance 7,".to_string(),
            "bit 33)".to_string(),
            "campaign seed 42,".to_string(),
            format!("input {:016x}.", inp.fingerprint()),
        ] {
            assert!(msg.contains(&part), "no `{part}` in: {msg}");
        }
        // a closure that returns is passed through; one that panics takes
        // its own payload past the boundary
        assert_eq!(injection_boundary(&m, &inp, 42, fault, || 5), 5);
        let payload = catch_unwind(|| {
            injection_boundary(&m, &inp, 42, fault, || -> u32 { panic!("interpreter bug") })
        })
        .expect_err("the panic goes on");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"interpreter bug"));
    }

    /// A harness panic at one injection stops the run with nothing
    /// recorded for it — no outcome, no tally, no WAL record — and the
    /// sites the WAL had committed are served when the run is resumed,
    /// which ends at the report and the WAL of a run nothing disturbed.
    #[test]
    fn harness_panic_stops_the_run_and_its_wal_resumes() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = test_module();
        let inp = input(50);
        for threads in [1, 2] {
            let mut cfg = CampaignConfig::quick(17);
            cfg.threads = threads;
            let g = golden_run(&m, &inp, &cfg).unwrap();
            let planned = cfg.per_inst_injections as u64;
            let wal = |dir: &std::path::Path| std::fs::read(dir.join("campaign.wal")).unwrap();

            let calm_dir = journal_dir(&format!("panic-calm-{threads}"));
            let calm = {
                let j = CampaignJournal::open(&calm_dir, 1, 2, None).unwrap();
                let p = CampaignEngine::new(&m, &inp, &g, &cfg)
                    .with_journal(&j, 9)
                    .run_per_instruction()
                    .unwrap();
                j.sync().unwrap();
                p
            };

            // the harness fails on the third fault it runs at plan site 4
            let dir = journal_dir(&format!("panic-{threads}"));
            {
                let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
                let s = Scheduler::unbounded(cfg.sched.clone());
                let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
                    .with_scheduler(&s)
                    .with_journal(&j, 9);
                let CampaignPlan::PerInst { sections, .. } = eng.plan_per_instruction() else {
                    unreachable!()
                };
                let (_, bad_gid, _) = sections
                    .iter()
                    .flat_map(|sec| &sec.sites)
                    .nth(4)
                    .copied()
                    .unwrap();
                let runs_there = AtomicUsize::new(0);
                let failing = |interp: &Interp<'_>,
                               st: &mut ExecScratch,
                               golden: &GoldenRun,
                               input: &ProgInput,
                               fault: FaultSpec| {
                    if matches!(fault.target, FaultTarget::NthOfInst(gid, _) if gid == bad_gid)
                        && runs_there.fetch_add(1, Ordering::Relaxed) == 2
                    {
                        panic!("interpreter bug");
                    }
                    inject(interp, st, golden, input, fault)
                };
                let payload =
                    catch_unwind(AssertUnwindSafe(|| eng.run_per_instruction_with(&failing)))
                        .expect_err("the run stops");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"interpreter bug"));
                let snap = s.snapshot();
                assert!((4 * planned..snap.planned).contains(&snap.completed));
                j.sync().unwrap();
            }
            // whole sites only, in plan order: the calm WAL's header and
            // sites 0..4, nothing of the site that panicked or after it
            let (partial, full) = (wal(&dir), wal(&calm_dir));
            assert!(full.starts_with(&partial));
            let records = minpsid_journal::wal::scan_bytes(&partial).records;
            assert_eq!(records.len() as u64, 1 + 4 * planned);

            let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
            let resumed = CampaignEngine::new(&m, &inp, &g, &cfg)
                .with_journal(&j, 9)
                .run_per_instruction()
                .unwrap();
            j.sync().unwrap();
            assert_eq!(resumed.counts, calm.counts);
            assert_eq!(resumed.sdc_prob, calm.sdc_prob);
            assert_eq!(resumed.status, calm.status);
            assert!(j.usage().0 > 0, "committed sites were served, not re-run");
            assert_eq!(wal(&dir), full);
        }
    }
}
