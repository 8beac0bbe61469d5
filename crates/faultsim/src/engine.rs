//! The campaign execution engine: one plan → execute → reduce loop behind
//! both of the paper's campaign shapes (§III-A3).
//!
//! A whole-program campaign (N faults over every dynamic instruction) and
//! a per-instruction one (N faults per static instruction) are the same
//! injector under two sampling rules, so they run through one loop. A plan
//! is a list of *units*, each a section-local stream of planned faults: a
//! program unit plans one fault, a per-instruction unit (one site) plans
//! `cfg.per_inst_injections`. What differs per shape is a small `match` on
//! the plan's [`CampaignKind`] — the fault a unit draws, the key its
//! outcomes have in the journal and in a sealed table, and the reduction
//! into [`ProgramCampaign`] or [`PerInstSdc`]. The policy layers observe
//! each unit of that loop:
//!
//! * **Scheduling** — the wall-clock deadline and the accounting
//!   invariant live on a [`Scheduler`]. Every unit runs its full plan
//!   unless the deadline cuts it. The engine owns an unbounded scheduler
//!   by default; [`CampaignEngine::with_scheduler`] attaches a
//!   caller-owned (deadline-aware, shared-accounting) one instead.
//! * **Journaling** — [`CampaignEngine::with_journal`] makes the run
//!   crash-safe: recorded outcomes are served without re-execution, fresh
//!   outcomes are appended, and a pending [`interrupt`] drains the run
//!   into [`Interrupted`] with all finished work durable.
//! * **Tables** — [`CampaignEngine::with_tables`] serves a section's
//!   outcomes from the table an earlier run sealed, and seals new ones.
//! * **Tracing** — counters, progress sampling and per-function outcome
//!   events, active whenever the process-wide trace sink is.
//!
//! One rule for the deadline, in both shapes: it stops a fault from
//! *running*, never an outcome that is already recorded from being
//! *served*. A unit looks in the journal, then in its section's table,
//! and only when neither knows the outcome does an expired deadline
//! truncate it — so a resumed run under a deadline still takes everything
//! its WAL holds.
//!
//! Execution is parallel. Workers fan out over [`par_map_init`] and each
//! result lands in its plan-ordered slot, so reduction — and therefore
//! every report — is byte-identical at any thread count. Journaled runs
//! stay parallel too: workers buffer their WAL records per unit and a
//! single [`OrderedWriter`] appends each contiguous prefix of completed
//! units, so the WAL byte stream is as deterministic as the report while
//! finished work still reaches disk *during* the run (a crash loses at
//! most the in-flight units).
//!
//! Failure policy, stated once: everything an injected program can do
//! wrong is a value the interpreter returns — its step, output, memory
//! and call-depth limits turn every runaway into `Crash` or `Hang`. What
//! is left is a bug in the harness itself, and [`injection_boundary`] is
//! the one place that meets it: it names the fault that was running and
//! lets the panic go on to stop the run. Nothing is recorded for that
//! injection, and what the WAL had committed resumes.
//!
//! Determinism contract (verified by the equivalence tests): every
//! injection's RNG is seeded only by `(cfg.seed, section, unit, k)`, never
//! by thread schedule or by which outcomes a journal served, so plain,
//! scheduled, journaled and resumed runs of the same seed produce
//! bit-identical reports.

use crate::campaign::{CampaignConfig, GoldenRun, PerInstSdc, ProgramCampaign, PROGRESS_INTERVAL};
use crate::outcome::{classify, Outcome, OutcomeCounts};
use crate::parallel::par_map_init;
use crate::table::{table_sig, SectionTable, TableMemo};
use minpsid_interp::{
    state_diff, CheckpointConfig, ExecConfig, ExecResult, ExecScratch, FaultSpec, FaultTarget,
    Interp, ProgInput, Run, Start, StateDiff,
};
use minpsid_ir::{section_fingerprints, GlobalInstId, InstId, Module};
use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
use minpsid_sched::{splitmix64, Scheduler, SiteStatus};
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

/// One section of a plan: a function, its injectable executed sites, and
/// the run of plan units that sample them.
#[derive(Debug, Clone)]
pub struct Section {
    /// Function index in the module.
    pub func: usize,
    /// Content fingerprint: the function's own code plus every transitive
    /// callee (see `minpsid_ir::section_fingerprints`).
    pub fp: u64,
    /// Flat plan position of this section's first unit.
    pub unit_base: usize,
    /// Units planned in this section: its share of a whole-program
    /// campaign's faults, or one per site for a per-instruction campaign.
    pub units: usize,
    /// `(dense index, instruction id, dynamic count)` of every injectable
    /// site that executed: in instruction order in a program plan, highest
    /// count first (dense index breaking ties) in a per-instruction one, so
    /// a deadline truncates each section's low-benefit tail.
    pub sites: Vec<(usize, GlobalInstId, u64)>,
    /// Injectable dynamic executions within the function.
    pub pop: u64,
}

/// The deterministic work list a campaign executes: units grouped by
/// section. One *section* is one function; grouping by section is what
/// lets a memoized outcome table stand in for a whole group, and the
/// per-section RNG streams (seeded by content fingerprint, not flat
/// position) are what keep an unedited section's fault sequence stable
/// when a neighbour is edited. Building a plan is pure: it depends only on
/// the module, the golden profile and the config, never on the thread
/// schedule or on journal contents, which is what keeps reduction order
/// (and unit numbering for the ordered journal writer) stable.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The sampling rule: one fault per unit over the whole program, or
    /// `faults_per_unit` per static instruction.
    pub kind: CampaignKind,
    /// Campaign seed every fault stream starts from.
    pub seed: u64,
    /// Faults each unit plans: 1 in a program plan.
    pub faults_per_unit: usize,
    pub sections: Vec<Section>,
}

impl CampaignPlan {
    /// Number of work units the executor fans out over.
    pub fn units(&self) -> usize {
        self.sections.iter().map(|s| s.units).sum()
    }

    /// Total injections the plan intends to run (the scheduler's
    /// `planned` figure).
    pub fn planned_injections(&self) -> u64 {
        (self.units() * self.faults_per_unit) as u64
    }

    /// Unit `t`'s section and its section-local index.
    fn locate(&self, t: usize) -> (usize, usize) {
        // last section whose unit range begins at or before `t`
        let s = self.sections.partition_point(|sec| sec.unit_base <= t) - 1;
        (s, t - self.sections[s].unit_base)
    }

    /// The `k`-th fault of `sec`'s unit `j`.
    fn fault(&self, sec: &Section, j: usize, k: usize) -> FaultSpec {
        match self.kind {
            CampaignKind::Program => program_fault(self.seed, sec, j),
            CampaignKind::PerInst => per_inst_fault(self.seed, sec, j, k),
        }
    }

    /// The key of unit `t` (`sec`'s unit `j`) in the journal: the plan
    /// position of a program unit, the dense index of a per-instruction
    /// site (the journal adds the fault's `k`).
    fn journal_key(&self, t: usize, sec: &Section, j: usize) -> u64 {
        match self.kind {
            CampaignKind::Program => t as u64,
            CampaignKind::PerInst => sec.sites[j].0 as u64,
        }
    }

    /// The key of `sec`'s unit `j` in a sealed table: the local unit index
    /// in a program table, the instruction's function-local index in a
    /// per-instruction one (stable when other functions are edited).
    fn table_key(&self, sec: &Section, j: usize) -> u32 {
        match self.kind {
            CampaignKind::Program => j as u32,
            CampaignKind::PerInst => sec.sites[j].1.inst.index() as u32,
        }
    }

    /// The faults the engine plans for `sec`'s unit `j`, in injection
    /// order. Planning is pure (seed, section fingerprint, the site's
    /// dynamic count): what the journal or a sealed table serves, and which
    /// repeats are deduped, changes which of these faults are *run*, never
    /// which are planned.
    pub fn faults<'s>(
        &'s self,
        sec: &'s Section,
        j: usize,
    ) -> impl Iterator<Item = FaultSpec> + 's {
        (0..self.faults_per_unit).map(move |k| self.fault(sec, j, k))
    }
}

// ---------------------------------------------------------------------------
// Ordered journal writer
// ---------------------------------------------------------------------------

/// One WAL record a worker produced, buffered until the single ordered
/// writer commits its unit. `key` is the unit's journal key (see
/// [`OrderedWriter`]). `ran` is false for an outcome a sealed table
/// served: the journal writes it all the same, but it is already durable
/// in the store and does not advance the WAL's fsync cadence.
struct PendingRecord {
    key: u64,
    k: u64,
    outcome: u8,
    ran: bool,
}

/// The journal layer of one campaign, and the single ordered writer behind
/// parallel journaled runs.
///
/// A program unit's outcome is keyed by its plan position; a
/// per-instruction unit's `k`-th outcome by the site's dense index and `k`.
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
    kind: CampaignKind,
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
    fn new(journal: &'j CampaignJournal, input_fp: u64, kind: CampaignKind) -> Self {
        OrderedWriter {
            journal,
            input_fp,
            kind,
            state: Mutex::new(ReorderBuffer::default()),
        }
    }

    /// The `k`-th outcome the journal holds for the unit keyed `key`.
    fn lookup(&self, key: u64, k: u64) -> Option<Outcome> {
        match self.kind {
            CampaignKind::Program => self.journal.program_outcome(self.input_fp, key),
            CampaignKind::PerInst => self.journal.per_inst_outcome(self.input_fp, key, k),
        }
        .and_then(Outcome::from_u8)
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
        let (j, fp) = (self.journal, self.input_fp);
        match self.kind {
            CampaignKind::Program => j.record_program(fp, r.key, r.outcome, r.ran),
            CampaignKind::PerInst => j.record_per_inst(fp, r.key, r.k, r.outcome, r.ran),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution helpers
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
fn emit_function_outcomes(module: &Module, plan: &CampaignPlan, counts: &[OutcomeCounts]) {
    let mut per_func = vec![OutcomeCounts::default(); module.funcs.len()];
    for sec in &plan.sections {
        for &(dense, _, _) in &sec.sites {
            per_func[sec.func].merge(&counts[dense]);
        }
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

/// One injection as a campaign runs it, and the states it left at the
/// golden run's checkpoints: the lens `minpsid propagate` prints.
#[derive(Debug)]
pub struct Explanation {
    /// The campaign's own run of the fault ([`inject`]): where it resumed,
    /// converged onto the golden run or was proved to hang.
    pub run: ExecResult,
    /// `run` classified against the golden output, as the campaign does.
    pub outcome: Outcome,
    /// Every golden checkpoint after the flip that the faulty run reached,
    /// up to the first at which its state equals golden's, and what
    /// differs there.
    pub states: Vec<(usize, StateDiff)>,
}

/// Run `fault` as a campaign under `cfg` runs it beside `golden`, and
/// compare the states it leaves at the golden run's checkpoints with
/// golden's. The states come from a second run of the fault from the entry
/// point that captures them at the same boundaries (the store's first
/// boundary is its interval, whatever thinning did to it) and stops at
/// the golden run's length.
pub fn explain(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
    fault: FaultSpec,
) -> Explanation {
    let exec = faulty_exec_config(cfg, golden.steps);
    let interp = Interp::new(module, exec.clone());
    let run = inject(&interp, &mut ExecScratch::default(), golden, input, fault);
    let store = &golden.checkpoints;
    let mut states = Vec::new();
    if !store.is_empty() {
        let capture = CheckpointConfig {
            interval: store.steps_at(0),
            mem_budget_bytes: cfg.checkpoint_mem_budget,
            mode: cfg.snapshot_mode,
            keyframe_every: cfg.keyframe_every,
        };
        let mut scratch = ExecScratch::default();
        let step_limit = golden.steps;
        Interp::new(module, ExecConfig { step_limit, ..exec }).execute(
            &mut scratch,
            &Run {
                fault: Some(fault),
                start: Start::Capture(capture),
                ..Run::new(input)
            },
        );
        let faulty = scratch.take_checkpoints();
        let at: HashMap<u64, usize> = (0..faulty.len()).map(|f| (faulty.steps_at(f), f)).collect();
        // the flip lies between the checkpoint the run resumed from and the next
        let flipped_after = run.resumed_at.unwrap_or(0);
        for k in (0..store.len()).filter(|&k| store.steps_at(k) > flipped_after) {
            let Some(&f) = at.get(&store.steps_at(k)) else {
                continue; // the faulty run ended before it, or thinned it
            };
            let diff = state_diff(&faulty.materialize(f), &store.materialize(k));
            let converged = diff.is_empty();
            states.push((k, diff));
            if converged {
                break;
            }
        }
    }
    Explanation {
        outcome: classify(&golden.output, &run),
        run,
        states,
    }
}

/// `fn::%inst:instance:bit`: how a command line names the per-instruction
/// fault into dynamic instance `nth` of `gid`, at `bit`.
pub fn fault_token(module: &Module, gid: GlobalInstId, nth: u64, bit: u32) -> String {
    let func = &module.func(gid.func).name;
    format!("{func}::%{}:{nth}:{bit}", gid.inst.index())
}

/// The fault a [`fault_token`] names in `module` under the input `golden`
/// ran: the instruction must exist and produce a value, the instance must
/// be one that `golden` executed and the bit one of 64.
pub fn parse_fault(module: &Module, golden: &GoldenRun, token: &str) -> Result<FaultSpec, String> {
    let bad = || format!("bad fault `{token}` (want <fn>::%<inst>:<instance>:<bit>)");
    let (name, rest) = token.split_once("::%").ok_or_else(bad)?;
    let mut fields = rest.split(':').map(str::parse::<u64>);
    let (Some(Ok(inst)), Some(Ok(nth)), Some(Ok(bit)), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(bad());
    };
    let site = format!("{name}::%{inst}");
    let gid = module
        .iter_funcs()
        .find(|(_, f)| f.name == name && inst < f.insts.len() as u64)
        .map(|(func, _)| GlobalInstId {
            func,
            inst: InstId(inst as u32),
        })
        .ok_or_else(|| format!("no instruction {site} in the program"))?;
    if !module.inst(gid).injectable() {
        return Err(format!("{site} produces no value to flip"));
    }
    let count = golden.profile.inst_counts[module.numbering().index(gid)];
    if nth >= count {
        return Err(format!(
            "{site} executes {count} times under this input: no instance {nth}"
        ));
    }
    if bit >= 64 {
        return Err(format!("no bit {bit} in a 64-bit value"));
    }
    Ok(FaultSpec {
        target: FaultTarget::NthOfInst(gid, nth),
        bit: bit as u32,
    })
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
    let (target, replay) = match fault.target {
        FaultTarget::NthOfInst(gid, nth) => (
            format!(
                "{}::%{} (dynamic instance {nth}",
                module.func(gid.func).name,
                gid.inst.index()
            ),
            format!(
                " `minpsid propagate <program> {}` replays it.",
                fault_token(module, gid, nth, fault.bit)
            ),
        ),
        FaultTarget::NthDynamic(nth) => (format!("(dynamic instruction {nth}"), String::new()),
    };
    format!(
        "minpsid: harness panic while injecting into {target}, bit {}) — campaign seed {seed}, \
         input {:016x}. This is a bug in the interpreter or the engine, not an outcome: nothing \
         was recorded for this injection, and a journaled run resumes from what its WAL holds.\
         {replay}",
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
/// of `sec`: a draw over the section's injectable dynamic executions,
/// mapped through the sites' counts in instruction order, and a bit.
///
/// The RNG stream is seeded by `(seed, section fingerprint, j)` — never by
/// the flat plan position — so an unedited section draws the same fault
/// sequence whatever its neighbours turned into, which is the determinism
/// a memoized outcome table relies on.
fn program_fault(seed: u64, sec: &Section, j: usize) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(
        seed ^ splitmix64(sec.fp) ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut r = rng.random_range(0..sec.pop);
    let mut sites = sec.sites.iter();
    let gid = loop {
        let &(_, gid, count) = sites.next().expect("a draw below the population");
        if r < count {
            break gid;
        }
        r -= count;
    };
    FaultSpec {
        target: FaultTarget::NthOfInst(gid, r),
        bit: rng.random_range(0..64),
    }
}

/// The `k`-th fault a per-instruction campaign injects at site `j` of
/// `sec`: one of the site's dynamic instances, one bit. Seeded by content
/// (section fingerprint, function-local instruction index, `k`), never by
/// plan position, for the same reason [`program_fault`]'s stream is. With
/// `count` instances there are only `64 * count` distinct faults, so at a
/// site executed once a campaign of N injections repeats itself (half of
/// them at N = 100).
fn per_inst_fault(seed: u64, sec: &Section, j: usize, k: usize) -> FaultSpec {
    let (_, gid, count) = sec.sites[j];
    let mut rng = StdRng::seed_from_u64(
        seed ^ splitmix64(sec.fp)
            ^ (gid.inst.index() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    FaultSpec {
        target: FaultTarget::NthOfInst(gid, rng.random_range(0..count)),
        bit: rng.random_range(0..64),
    }
}

/// Golden-context table signature for a section: the per-site dynamic
/// counts (in plan order) plus the section population pin every fault
/// target the section-local RNG streams can draw.
fn section_sig(
    plan: &CampaignPlan,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    sec: &Section,
) -> u64 {
    let counts: Vec<u64> = sec.sites.iter().map(|&(_, _, c)| c).collect();
    table_sig(plan.kind, cfg, golden, &counts, sec.pop)
}

/// Seal each section's outcome streams after a completed (uninterrupted)
/// run. A section with no units has nothing to seal. One fully served
/// from an existing table is skipped — the sealed artifact may hold
/// *more* units than this run's allocation (allocation drift after an
/// edit elsewhere), and rewriting would discard them. A section with a
/// unit the deadline cut seals `complete: false`: a miss on every future
/// load, so deadline-starved runs never masquerade as finished ones.
fn seal_sections(
    memo: &TableMemo,
    plan: &CampaignPlan,
    cfg: &CampaignConfig,
    golden: &GoldenRun,
    loaded: &[Option<SectionTable>],
    results: &[UnitResult],
) {
    for (s, sec) in plan.sections.iter().enumerate() {
        let range = &results[sec.unit_base..sec.unit_base + sec.units];
        if range.is_empty() || loaded[s].is_some() && !range.iter().any(|r| r.fresh) {
            continue;
        }
        let complete = range.iter().all(|r| r.status == SiteStatus::Full);
        let streams = range
            .iter()
            .enumerate()
            .map(|(j, r)| (plan.table_key(sec, j), r.outcomes.clone()))
            .collect();
        memo.seal(
            plan.kind,
            sec.fp,
            section_sig(plan, cfg, golden, sec),
            &SectionTable { complete, streams },
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

/// How one unit ended: its outcome tally, its status (full, or cut by the
/// deadline) and how many of its faults the deadline cut, whether it ran
/// to completion (vs interrupted), the recorded outcome bytes in
/// injection order (what sealing writes), and whether any of its faults
/// executed fresh.
struct UnitResult {
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

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The single orchestration core every campaign runs through.
///
/// Construct with [`CampaignEngine::new`], attach policy layers with
/// [`with_scheduler`](CampaignEngine::with_scheduler) /
/// [`with_journal`](CampaignEngine::with_journal) /
/// [`with_tables`](CampaignEngine::with_tables), then execute a campaign
/// shape with [`run_program`](CampaignEngine::run_program) or
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
    /// Fallback scheduler (no deadline) used when the caller does not
    /// attach one.
    owned_sched: Scheduler,
    sched: Option<&'a Scheduler>,
    journal: Option<(&'a CampaignJournal, u64)>,
    tables: Option<&'a TableMemo>,
    inject: &'a Inject<'a>,
    /// Per-instruction injections that repeated a fault already run at
    /// their site and took its outcome (a statistic, hence `Relaxed`).
    deduped: AtomicU64,
}

impl<'a> CampaignEngine<'a> {
    /// An engine over `(module, input, golden)` with no external policy
    /// layers: no deadline, no journal.
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
            owned_sched: Scheduler::unbounded(),
            sched: None,
            journal: None,
            tables: None,
            inject: &inject,
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

    /// Run every fault through `inject` instead of [`inject`].
    #[cfg(test)]
    fn with_inject(mut self, inject: &'a Inject<'a>) -> Self {
        self.inject = inject;
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
    ) -> (Outcome, StepTally) {
        injection_boundary(self.module, self.input, self.cfg.seed, fault, || {
            let r = (self.inject)(interp, st, self.golden, self.input, fault);
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

    /// The plan of either shape: one section per function with an
    /// injectable site that executed. A per-instruction plan has one unit
    /// per site, its sites ordered by dynamic count. A program plan
    /// allocates `cfg.injections` units over the golden run's injectable
    /// population by largest remainder over each section's executions
    /// (remainder ties broken by function index), so they sum exactly to
    /// `cfg.injections` and track execution weight the way uniform global
    /// sampling does in expectation.
    fn plan(&self, kind: CampaignKind) -> CampaignPlan {
        let fps = section_fingerprints(self.module);
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
        let mut sections: Vec<Section> = Vec::new();
        for (func, mut sites) in per_func.into_iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            if kind == CampaignKind::PerInst {
                sites.sort_unstable_by_key(|&(dense, _, count)| (std::cmp::Reverse(count), dense));
            }
            sections.push(Section {
                func,
                fp: fps[func],
                unit_base: 0,
                units: sites.len(),
                pop: sites.iter().map(|&(_, _, c)| c).sum(),
                sites,
            });
        }
        let population = self.golden.profile.injectable_execs;
        debug_assert_eq!(
            sections.iter().map(|s| s.pop).sum::<u64>(),
            population,
            "profile population equals the sum of section populations"
        );
        let faults_per_unit = match kind {
            CampaignKind::Program => {
                let injections = self.cfg.injections;
                let mut assigned = 0usize;
                let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(sections.len());
                for (s, sec) in sections.iter_mut().enumerate() {
                    let exact = injections as u128 * sec.pop as u128;
                    sec.units = (exact / population as u128) as usize;
                    assigned += sec.units;
                    remainders.push((exact % population as u128, s));
                }
                remainders.sort_unstable_by_key(|&(rem, s)| (std::cmp::Reverse(rem), s));
                for &(_, s) in remainders.iter().take(injections - assigned) {
                    sections[s].units += 1;
                }
                1
            }
            CampaignKind::PerInst => self.cfg.per_inst_injections,
        };
        let mut base = 0usize;
        for sec in &mut sections {
            sec.unit_base = base;
            base += sec.units;
        }
        CampaignPlan {
            kind,
            seed: self.cfg.seed,
            faults_per_unit,
            sections,
        }
    }

    /// The whole-program plan: `cfg.injections` units of one fault each
    /// (see [`plan`](Self::plan) for the allocation).
    pub fn plan_program(&self) -> CampaignPlan {
        self.plan(CampaignKind::Program)
    }

    /// The per-instruction plan: one unit per injectable, executed static
    /// instruction, grouped by enclosing function, highest dynamic count
    /// first within each group (deadlines truncate each section's
    /// low-benefit tail; dense index breaks ties so the order is total).
    pub fn plan_per_instruction(&self) -> CampaignPlan {
        self.plan(CampaignKind::PerInst)
    }

    /// Execute the whole-program campaign: `cfg.injections` single-bit
    /// flips, each into a uniformly random dynamic instruction execution
    /// and uniformly random bit, every outcome classified against the
    /// golden run. Errs with [`Interrupted`] only when a journal is
    /// attached and an interrupt is pending.
    pub fn run_program(&self) -> Result<ProgramCampaign, Interrupted> {
        let (plan, results) = self.run(CampaignKind::Program)?;
        let _reduce_span = trace::span("reduce");
        let numbering = self.module.numbering();
        let mut counts = OutcomeCounts::default();
        let mut site_sdc = vec![0; numbering.len()];
        let mut truncated = 0u64;
        for (t, r) in results.iter().enumerate() {
            counts.merge(&r.counts);
            truncated += r.truncated;
            // tables and the journal key a program unit by position, so its
            // site is redrawn from the plan
            let (s, j) = plan.locate(t);
            if let FaultTarget::NthOfInst(gid, _) = plan.fault(&plan.sections[s], j, 0).target {
                site_sdc[numbering.index(gid)] += r.counts.sdc;
            }
        }
        Ok(ProgramCampaign {
            counts,
            site_sdc,
            planned: plan.planned_injections(),
            truncated,
        })
    }

    /// Execute the per-instruction campaign: `cfg.per_inst_injections`
    /// faults into uniformly random dynamic executions of every site in
    /// the plan. Sites past the deadline are truncated. Errs with [`Interrupted`] only when a journal is
    /// attached and an interrupt is pending.
    pub fn run_per_instruction(&self) -> Result<PerInstSdc, Interrupted> {
        let (plan, results) = self.run(CampaignKind::PerInst)?;
        let _reduce_span = trace::span("reduce");
        let n = self.module.numbering().len();
        let mut counts = vec![OutcomeCounts::default(); n];
        let mut status = vec![SiteStatus::Unsampled; n];
        let sites = plan.sections.iter().flat_map(|sec| &sec.sites);
        for (&(dense, _, _), r) in sites.zip(results) {
            counts[dense] = r.counts;
            status[dense] = r.status;
        }
        if trace::active() {
            emit_function_outcomes(self.module, &plan, &counts);
        }
        Ok(PerInstSdc { counts, status })
    }

    /// The one campaign loop: plan `kind`, then resolve every unit's
    /// faults in parallel — each from the journal, else from its section's
    /// sealed table, else, unless the deadline has passed, by running it —
    /// and hand back the plan and the per-unit results in plan order.
    fn run(&self, kind: CampaignKind) -> Result<(CampaignPlan, Vec<UnitResult>), Interrupted> {
        let plan = {
            let _plan_span = trace::span("plan");
            self.plan(kind)
        };
        let units = plan.units();
        if units == 0 {
            return Ok((plan, Vec::new()));
        }
        let cfg = self.cfg;
        let sched = self.scheduler();
        let planned = plan.faults_per_unit;
        sched.add_planned(plan.planned_injections());
        let interp = Interp::new(self.module, faulty_exec_config(cfg, self.golden.steps));
        // capture once so workers pay no atomic load when tracing is off
        let tracing = trace::active();
        let counters = CampaignCounters::new(kind, plan.planned_injections());
        let suffix_steps = match kind {
            CampaignKind::Program => Some(("fi.program.suffix_steps", Histogram::new())),
            CampaignKind::PerInst => None,
        }
        .filter(|_| tracing);
        let journal = self.journal;
        let writer = journal.map(|(j, fp)| OrderedWriter::new(j, fp, kind));
        let memo = self.tables;
        // one verified load per section, before the fan-out: workers only
        // index the decoded tables
        let loaded: Vec<Option<SectionTable>> = plan
            .sections
            .iter()
            .map(|sec| {
                memo.filter(|_| sec.units > 0)
                    .and_then(|m| m.load(kind, sec.fp, section_sig(&plan, cfg, self.golden, sec)))
            })
            .collect();
        let execute_span = trace::span("execute");
        let results = trace::sample_campaign(&counters, PROGRESS_INTERVAL, || {
            par_map_init(units, cfg.threads, ExecScratch::default, |st, t| {
                let (s, j) = plan.locate(t);
                let sec = &plan.sections[s];
                let journal_key = plan.journal_key(t, sec, j);
                // the sealed table's outcome stream for this unit
                let served: &[u8] = loaded[s]
                    .as_ref()
                    .and_then(|tab| tab.stream(plan.table_key(sec, j)))
                    .unwrap_or(&[]);
                let mut r = UnitResult {
                    counts: OutcomeCounts::default(),
                    status: SiteStatus::Full,
                    truncated: 0,
                    done: true,
                    outcomes: Vec::new(),
                    fresh: false,
                };
                let mut records: Vec<PendingRecord> = Vec::new();
                // outcome of the faults already run in this unit
                let mut ran: HashMap<FaultSpec, Outcome> = HashMap::new();
                for k in 0..planned {
                    if journal.is_some() && interrupt::requested() {
                        // partial work stays durable: the batch holds
                        // everything this unit finished before the
                        // interrupt
                        r.done = false;
                        break;
                    }
                    // the journal, then the sealed table, then — unless
                    // the deadline has passed — a run: the first that
                    // knows this injection's outcome
                    let journaled = writer
                        .as_ref()
                        .and_then(|w| w.lookup(journal_key, k as u64));
                    let tabled = served.get(k).copied().and_then(Outcome::from_u8);
                    let (outcome, steps, source) = match (journaled, tabled) {
                        (Some(o), _) => (o, StepTally::default(), Source::Journal),
                        (None, Some(o)) => (o, StepTally::default(), Source::Table),
                        (None, None) if sched.deadline_exceeded() => {
                            r.status = if k == 0 {
                                SiteStatus::Unsampled
                            } else {
                                SiteStatus::Truncated
                            };
                            r.truncated = (planned - k) as u64;
                            break;
                        }
                        (None, None) => {
                            let fault = plan.fault(sec, j, k);
                            // a repeat of a fault already run in this unit
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
                                    let run = self.execute(&interp, st, fault);
                                    // only a later fault of this unit can
                                    // repeat it (a program unit has none)
                                    if k + 1 < planned {
                                        ran.insert(fault, run.0);
                                    }
                                    if let Some((_, h)) = &suffix_steps {
                                        h.record(run.1.executed);
                                    }
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
                        records.push(PendingRecord {
                            key: journal_key,
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
        if let Some((name, h)) = &suffix_steps {
            h.emit(name);
        }
        if let Some((j, _)) = journal {
            if results.iter().any(|r| !r.done) || interrupt::requested() {
                let _ = j.sync();
                return Err(Interrupted);
            }
        }
        sched.note_truncated(kind, results.iter().map(|r| r.truncated).sum());
        if let Some(m) = memo {
            seal_sections(m, &plan, cfg, self.golden, &loaded, &results);
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
        Ok((plan, results))
    }

    /// A sequential unit-at-a-time executor over this engine's program
    /// plan, for callers that drive unit selection themselves — the
    /// benchmark's `fi_units` workload times one injection at a time — in
    /// whatever order they choose; each unit's outcome is identical to
    /// what [`run_program`](Self::run_program) would have produced at
    /// that plan position.
    pub fn program_executor(&self) -> ProgramUnitExecutor<'_> {
        ProgramUnitExecutor {
            engine: self,
            interp: Interp::new(self.module, faulty_exec_config(self.cfg, self.golden.steps)),
            scratch: ExecScratch::default(),
            plan: self.plan_program(),
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
    plan: CampaignPlan,
}

impl ProgramUnitExecutor<'_> {
    /// Resolve unit `i` to its classified outcome. The `bool` is always
    /// `false` (it said "recovered via retry"): `benchmark/` destructures
    /// a pair and may not change here; ROADMAP 4(b) drops it.
    ///
    /// Panics if `i` is outside the plan.
    pub fn run_unit(&mut self, i: usize) -> (Outcome, bool) {
        let units = self.plan.units();
        assert!(i < units, "unit {i} outside plan ({units} units)");
        let (s, j) = self.plan.locate(i);
        let fault = self.plan.fault(&self.plan.sections[s], j, 0);
        let (outcome, _) = self.engine.execute(&self.interp, &mut self.scratch, fault);
        (outcome, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::golden_run;
    use crate::campaign::tests::{input, journal_dir, test_module, INTERRUPT_FLAG};
    use minpsid_sched::{Deadline, SchedSnapshot};
    use std::path::Path;

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

    /// A harness panic names its fault the way `propagate` takes one: the
    /// line carries the token, and the token parses back to the fault;
    /// what no campaign could inject does not parse.
    #[test]
    fn the_panic_line_names_a_fault_propagate_parses() {
        let m = test_module();
        let inp = input(50);
        let g = golden_run(&m, &inp, &CampaignConfig::quick(17)).unwrap();
        let numbering = m.numbering();
        let count = |gid| g.profile.inst_counts[numbering.index(gid)];
        let (gid, _) = m
            .iter_insts()
            .find(|&(gid, inst)| inst.injectable() && count(gid) > 7)
            .expect("an injectable instruction executed 8 times");
        let fault = FaultSpec {
            target: FaultTarget::NthOfInst(gid, 7),
            bit: 33,
        };
        let token = fault_token(&m, gid, 7, 33);
        assert_eq!(token, format!("main::%{}:7:33", gid.inst.index()));
        let msg = describe_fault(&m, &inp, 42, fault);
        assert!(
            msg.contains(&format!("`minpsid propagate <program> {token}`")),
            "{msg}"
        );
        assert_eq!(parse_fault(&m, &g, &token), Ok(fault));

        let (store, _) = m
            .iter_insts()
            .find(|(_, inst)| !inst.injectable())
            .expect("an instruction without a value");
        let site = |gid: GlobalInstId| format!("{}::%{}", m.func(gid.func).name, gid.inst.index());
        for bad in [
            format!("{}:{}:0", site(gid), count(gid)),
            format!("{}:0:64", site(gid)),
            format!("{}:0:0", site(store)),
            "nosuch::%0:0:0".to_string(),
            "main::%99999:0:0".to_string(),
            format!("{}:0", site(gid)),
            format!("{}:0:1:2", site(gid)),
        ] {
            assert!(parse_fault(&m, &g, &bad).is_err(), "{bad} parsed");
        }
    }

    /// `kind`'s campaign on `eng`, rendered.
    fn report(eng: &CampaignEngine, kind: CampaignKind) -> String {
        match kind {
            CampaignKind::Program => format!("{:?}", eng.run_program().unwrap()),
            CampaignKind::PerInst => format!("{:?}", eng.run_per_instruction().unwrap()),
        }
    }

    fn wal(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join("campaign.wal")).unwrap()
    }

    /// Run `kind`'s campaign journaled into `dir` with a harness that
    /// panics at plan unit `bad` — at its third fault in a per-instruction
    /// unit, at its only one in a program unit — and return the stopped
    /// run's accounting. The journal then holds units `0..bad`.
    fn panic_at_unit(
        (m, inp, g, cfg): (&Module, &ProgInput, &GoldenRun, &CampaignConfig),
        kind: CampaignKind,
        bad: usize,
        dir: &Path,
    ) -> SchedSnapshot {
        let plan = CampaignEngine::new(m, inp, g, cfg).plan(kind);
        let (s, j) = plan.locate(bad);
        let bad_fault = plan.faults(&plan.sections[s], j).take(3).last().unwrap();
        let failing = |interp: &Interp<'_>,
                       st: &mut ExecScratch,
                       golden: &GoldenRun,
                       input: &ProgInput,
                       fault: FaultSpec| {
            if fault == bad_fault {
                panic!("interpreter bug");
            }
            inject(interp, st, golden, input, fault)
        };
        let j = CampaignJournal::open(dir, 1, 2, None).unwrap();
        let sched = Scheduler::unbounded();
        let eng = CampaignEngine::new(m, inp, g, cfg)
            .with_scheduler(&sched)
            .with_journal(&j, 9)
            .with_inject(&failing);
        let payload =
            catch_unwind(AssertUnwindSafe(|| report(&eng, kind))).expect_err("the run stops");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"interpreter bug"));
        j.sync().unwrap();
        sched.snapshot()
    }

    /// A harness panic at one injection stops the run with nothing
    /// recorded for it — no outcome, no tally, no WAL record — and the
    /// units the WAL had committed are served when the run is resumed,
    /// which ends at the report and the WAL of a run nothing disturbed.
    /// Both shapes: the panic reaches the one loop through the same hook.
    #[test]
    fn harness_panic_stops_the_run_and_its_wal_resumes() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = test_module();
        let inp = input(50);
        for kind in [CampaignKind::PerInst, CampaignKind::Program] {
            for threads in [1, 2] {
                let mut cfg = CampaignConfig::quick(17);
                cfg.threads = threads;
                let g = golden_run(&m, &inp, &cfg).unwrap();
                let name = format!("{}-{threads}", kind.as_str());
                let faults = CampaignEngine::new(&m, &inp, &g, &cfg)
                    .plan(kind)
                    .faults_per_unit;

                let calm_dir = journal_dir(&format!("panic-calm-{name}"));
                let calm = {
                    let j = CampaignJournal::open(&calm_dir, 1, 2, None).unwrap();
                    let r = report(
                        &CampaignEngine::new(&m, &inp, &g, &cfg).with_journal(&j, 9),
                        kind,
                    );
                    j.sync().unwrap();
                    r
                };

                let dir = journal_dir(&format!("panic-{name}"));
                let snap = panic_at_unit((&m, &inp, &g, &cfg), kind, 4, &dir);
                assert!((4 * faults as u64..snap.planned).contains(&snap.completed));
                // whole units only, in plan order: the calm WAL's header and
                // units 0..4, nothing of the unit that panicked or after it
                let (partial, full) = (wal(&dir), wal(&calm_dir));
                assert!(full.starts_with(&partial), "{name}");
                let records = minpsid_journal::wal::scan_bytes(&partial).records;
                assert_eq!(records.len(), 1 + 4 * faults, "{name}");

                let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
                let resumed = report(
                    &CampaignEngine::new(&m, &inp, &g, &cfg).with_journal(&j, 9),
                    kind,
                );
                j.sync().unwrap();
                assert_eq!(resumed, calm, "{name}");
                assert!(
                    j.usage().0 > 0,
                    "{name}: committed units were served, not re-run"
                );
                assert_eq!(wal(&dir), full, "{name}");
            }
        }
    }

    /// The one deadline rule, in both shapes: an expired deadline stops
    /// every fault from running, never a recorded outcome from being
    /// served. Resumed under a deadline that has already passed, a journal
    /// holding the first half of the units serves all of them and
    /// truncates the rest, and appends nothing.
    #[test]
    fn an_expired_deadline_serves_what_the_journal_holds_and_runs_nothing() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = test_module();
        let inp = input(50);
        let mut cfg = CampaignConfig::quick(17);
        cfg.threads = 2;
        let g = golden_run(&m, &inp, &cfg).unwrap();
        for kind in [CampaignKind::PerInst, CampaignKind::Program] {
            let plan = CampaignEngine::new(&m, &inp, &g, &cfg).plan(kind);
            let (units, faults) = (plan.units(), plan.faults_per_unit);
            let half = units / 2;
            let dir = journal_dir(&format!("deadline-{}", kind.as_str()));
            panic_at_unit((&m, &inp, &g, &cfg), kind, half, &dir);
            let before = wal(&dir);

            let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
            let sched = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
            let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
                .with_scheduler(&sched)
                .with_journal(&j, 9);
            let served = (half * faults) as u64;
            match kind {
                CampaignKind::Program => {
                    let c = eng.run_program().unwrap();
                    assert_eq!(c.counts.total(), served);
                    assert_eq!(c.truncated, (units - half) as u64);
                }
                CampaignKind::PerInst => {
                    let p = eng.run_per_instruction().unwrap();
                    let calm = CampaignEngine::new(&m, &inp, &g, &cfg)
                        .run_per_instruction()
                        .unwrap();
                    let sites = plan.sections.iter().flat_map(|sec| &sec.sites);
                    for (t, &(dense, _, _)) in sites.enumerate() {
                        let (status, counts) = if t < half {
                            (SiteStatus::Full, calm.counts[dense])
                        } else {
                            (SiteStatus::Unsampled, OutcomeCounts::default())
                        };
                        assert_eq!(
                            (p.status[dense], p.counts[dense]),
                            (status, counts),
                            "site {t}"
                        );
                    }
                }
            }
            let snap = sched.snapshot();
            assert_eq!(
                snap.completed, served,
                "{kind:?}: every journaled outcome served"
            );
            assert_eq!(snap.truncated, snap.planned - served, "{kind:?}");
            assert_eq!(j.usage().0, served, "{kind:?}");
            j.sync().unwrap();
            assert_eq!(
                wal(&dir),
                before,
                "{kind:?}: nothing ran, nothing was appended"
            );
        }
    }
}
