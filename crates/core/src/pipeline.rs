//! The end-to-end MINPSID pipeline (paper Fig. 4).

use crate::cache::{input_fingerprint, output_fingerprint, GoldenCache};
use crate::incubative::{IncubativeConfig, IncubativeTracker};
use crate::input::InputModel;
use crate::search::{EvalMemo, GaConfig, SearchEngine};
use minpsid_faultsim::{
    interrupt, CampaignConfig, CampaignEngine, CampaignJournal, ConfigKey, Deadline, GoldenRun,
    Interrupted, SchedSnapshot, Scheduler, TableMemo, TableStatsSnapshot,
};
use minpsid_interp::{ProgInput, Termination};
use minpsid_ir::bytes::Fnv;
use minpsid_ir::Module;
use minpsid_sid::knapsack::Selection;
use minpsid_sid::{select_and_protect, CostBenefit};
use minpsid_trace as trace;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which searcher drives step ④ — the GA engine (MINPSID proper) or the
/// blind random searcher (the Fig. 7 baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    Genetic,
    Random,
    /// Simulated annealing (§X future-work exploration).
    Annealing,
}

/// MINPSID configuration.
#[derive(Debug, Clone)]
pub struct MinpsidConfig {
    /// Protection level in `[0, 1]`.
    pub protection_level: f64,
    /// FI campaign parameters (per-instruction counts etc.).
    pub campaign: CampaignConfig,
    pub ga: GaConfig,
    pub incubative: IncubativeConfig,
    /// Hard cap on searched inputs (the paper's searches converge around
    /// 21 inputs).
    pub max_inputs: usize,
    /// Stop when this many consecutive searched inputs reveal no new
    /// incubative instruction ("the entire search process terminates once
    /// the number of incubative instructions no longer increases").
    pub stagnation_patience: usize,
    pub strategy: SearchStrategy,
    /// Exact-DP knapsack instead of greedy (ablation).
    pub use_dp: bool,
    /// Wall-clock budget for the whole run in seconds; `None` is
    /// unbounded. When the budget expires, campaigns truncate their
    /// remaining injections and the search stops — the run still produces
    /// a report, annotated with its completeness. Deliberately excluded
    /// from the journal fingerprint: a truncated run resumed under a
    /// looser (or absent) deadline must converge to the full result.
    pub deadline_secs: Option<f64>,
    /// Memoize sealed per-section FI outcome tables in the golden cache's
    /// artifact store and serve them on later runs, so a re-campaign
    /// after an edit re-executes only the touched sections (O(diff)).
    /// Only engaged when the cache has a store attached. Like
    /// `deadline_secs`, excluded from the journal config fingerprint: it
    /// changes how outcomes are obtained, never what they are.
    pub incremental: bool,
}

impl Default for MinpsidConfig {
    fn default() -> Self {
        MinpsidConfig {
            protection_level: 0.5,
            campaign: CampaignConfig::default(),
            ga: GaConfig::default(),
            incubative: IncubativeConfig::default(),
            max_inputs: 25,
            stagnation_patience: 3,
            strategy: SearchStrategy::Genetic,
            use_dp: false,
            deadline_secs: None,
            incremental: true,
        }
    }
}

/// Wall-clock breakdown of a MINPSID run — the three components of Fig. 8
/// ("Per-Inst-FI (Ref Input)", "Per-Inst-FI (For Incubative Insts.)",
/// "Input Search Engine") plus everything else.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    pub ref_fi: Duration,
    pub incubative_fi: Duration,
    pub search: Duration,
    pub other: Duration,
}

impl Timings {
    pub fn total(&self) -> Duration {
        self.ref_fi + self.incubative_fi + self.search + self.other
    }
}

/// Everything a MINPSID run produces.
#[derive(Debug, Clone)]
pub struct MinpsidResult {
    /// The hardened binary (Fig. 4 ⑨).
    pub protected: Module,
    pub selection: Selection,
    /// Expected coverage under the *re-prioritized* profile — the
    /// conservative promise MINPSID reports (red bars of Fig. 6).
    pub expected_coverage: f64,
    /// Dense indices of the incubative instructions found.
    pub incubative: Vec<usize>,
    /// Cumulative incubative count after each searched input (the Fig. 7
    /// convergence series).
    pub incubative_history: Vec<usize>,
    pub inputs_searched: usize,
    pub timings: Timings,
    /// The re-prioritized cost/benefit profile used for selection.
    pub cost_benefit: CostBenefit,
    /// The full benefit-observation state, so callers can re-derive
    /// profiles under alternative re-prioritization rules (ablations).
    pub tracker: IncubativeTracker,
    /// The run's scheduler accounting: completed and deadline-truncated.
    /// `sched.completeness()` annotates the report.
    pub sched: SchedSnapshot,
    /// Section-table usage aggregated over every campaign in the run.
    /// `None` when memoization was off (no store, or `incremental:
    /// false`).
    pub table_stats: Option<TableStatsSnapshot>,
    /// Interpretations the run was asked for twice and did once.
    pub deduped: Deduped,
}

/// Identical interpretations a run did not repeat: the interpreter is
/// deterministic, so a GA candidate that materializes to an input the
/// search already profiled, or an injection that draws a `(dynamic
/// instance, bit)` its site already ran, has a known answer. Both are
/// counted where they would have run, as if they had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deduped {
    /// GA candidate evaluations (see `SearchEngine::deduped`).
    pub evals: u64,
    /// Per-instruction injections (see `CampaignEngine::deduped`).
    pub injections: u64,
}

/// Step ① of Fig. 4: the reference input's cost/benefit profile, which
/// baseline SID selects from as it stands and MINPSID extends.
#[derive(Debug, Clone)]
pub struct Reference {
    pub cb: CostBenefit,
    /// The reference run's indexed weighted-CFG list (search history).
    pub cfg_list: Vec<u64>,
    /// Fig. 8's "Per-Inst-FI (Ref Input)".
    pub elapsed: Duration,
}

/// Compute step ① on `model`'s reference input: golden run, per-inst FI, [`CostBenefit`].
pub fn reference_profile(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
) -> Result<Reference, Termination> {
    FiStage::new(module, cfg, cache)
        .reference(model)
        .map_err(journal_free)
}

/// Run the full MINPSID pipeline on `module` over `model`'s input space.
pub fn run_minpsid(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
) -> Result<MinpsidResult, Termination> {
    run_minpsid_cached(module, model, cfg, &GoldenCache::new())
}

/// [`run_minpsid`] against a caller-owned [`GoldenCache`]: shared across
/// calls, or backed by an artifact store, it computes each golden run (and
/// its checkpoint store) once.
pub fn run_minpsid_cached(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
) -> Result<MinpsidResult, Termination> {
    run_minpsid_inner(module, model, cfg, cache, None, None).map_err(journal_free)
}

/// [`run_minpsid`] extending a [`reference_profile`] (`timings.ref_fi` is its `elapsed`);
/// `sched`, `deduped` and `table_stats` count only the search's work.
pub fn run_minpsid_from(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    reference: &Reference,
) -> Result<MinpsidResult, Termination> {
    let (cache, reference) = (GoldenCache::new(), Some(reference.clone()));
    run_minpsid_inner(module, model, cfg, &cache, None, reference).map_err(journal_free)
}

/// Interrupts and journal mismatches require an attached journal.
fn journal_free(e: PipelineError) -> Termination {
    match e {
        PipelineError::Golden(t) => t,
        _ => unreachable!("journal-free pipeline raised a journal error"),
    }
}

/// Why a journaled pipeline run stopped without a result.
#[derive(Debug)]
pub enum PipelineError {
    /// The golden run of an input failed to exit normally.
    Golden(Termination),
    /// A cooperative interrupt (SIGINT) stopped the run; all completed
    /// work is in the journal and the run can be resumed.
    Interrupted,
    /// The journal disagrees with this run (e.g. a recomputed golden run
    /// no longer matches its recorded digest).
    Journal(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Golden(t) => write!(f, "golden run did not exit: {t:?}"),
            PipelineError::Interrupted => Interrupted.fmt(f),
            PipelineError::Journal(msg) => write!(f, "journal: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<Termination> for PipelineError {
    fn from(t: Termination) -> Self {
        PipelineError::Golden(t)
    }
}

impl From<Interrupted> for PipelineError {
    fn from(_: Interrupted) -> Self {
        PipelineError::Interrupted
    }
}

impl MinpsidConfig {
    /// Feed this config to the MINPSID journal header's key. Everything
    /// that changes the run's decisions enters; the destructure says why
    /// the rest does not.
    pub fn key(&self, h: &mut Fnv) {
        let MinpsidConfig {
            protection_level,
            campaign,
            ga,
            incubative,
            max_inputs,
            stagnation_patience,
            strategy,
            use_dp,
            // As `None`: a deadline truncates *which* work runs, never its
            // results, so a truncated journal must resume under another budget.
            deadline_secs: _,
            // As `true`: table memoization changes where outcomes come from,
            // not what they are, so an incremental run must resume a
            // non-incremental journal.
            incremental: _,
        } = self;
        let strategy = match strategy {
            SearchStrategy::Genetic => "Genetic",
            SearchStrategy::Random => "Random",
            SearchStrategy::Annealing => "Annealing",
        };
        h.text(format_args!(
            "MinpsidConfig {{ protection_level: {protection_level:?}, campaign: "
        ));
        campaign.key(ConfigKey::Journal, h);
        h.bytes(b", ga: ");
        ga.key(h);
        h.bytes(b", incubative: ");
        incubative.key(h);
        h.text(format_args!(
            ", max_inputs: {max_inputs:?}, stagnation_patience: {stagnation_patience:?}, \
             strategy: {strategy}, use_dp: {use_dp:?}, deadline_secs: None, incremental: true }}"
        ));
    }
}

/// The config fingerprint a journal header carries for a MINPSID run:
/// [`MinpsidConfig::key`].
pub fn minpsid_config_fingerprint(cfg: &MinpsidConfig) -> u64 {
    let mut h = Fnv::new();
    cfg.key(&mut h);
    h.finish()
}

/// The per-section module identity: one `(fingerprint, dense
/// instruction base, instruction count)` triple per function, in function
/// order. `minpsid sections` prints it, and the benchmark counts and
/// times it.
pub fn module_section_map(module: &Module) -> Vec<(u64, u64, u64)> {
    let fps = minpsid_ir::section_fingerprints(module);
    let mut out = Vec::with_capacity(fps.len());
    let mut base = 0u64;
    for (fp, (_, f)) in fps.iter().zip(module.iter_funcs()) {
        let len = f.insts.len() as u64;
        out.push((*fp, base, len));
        base += len;
    }
    out
}

/// The journal serves as the GA's evaluation memo: profiled CFG lists are
/// durable, so a resumed search replays candidate evaluations for free.
impl EvalMemo for CampaignJournal {
    fn cfg_list(&self, input_fp: u64) -> Option<Vec<u64>> {
        self.eval_profile(input_fp)
    }

    fn record_cfg_list(&self, input_fp: u64, list: &[u64]) {
        self.record_eval(input_fp, list);
    }
}

/// What the per-input FI steps of one pipeline run share (the run-scoped
/// scheduler under `deadline_secs`), and what they add up.
struct FiStage<'a> {
    module: &'a Module,
    cfg: &'a MinpsidConfig,
    cache: &'a GoldenCache,
    sched: Scheduler,
    journal: Option<&'a CampaignJournal>,
    table_stats: Option<TableStatsSnapshot>,
    injections_deduped: u64,
}

impl<'a> FiStage<'a> {
    fn new(module: &'a Module, cfg: &'a MinpsidConfig, cache: &'a GoldenCache) -> Self {
        FiStage {
            module,
            cfg,
            cache,
            sched: Scheduler::new(Default::default(), Deadline::from_secs(cfg.deadline_secs)),
            journal: None,
            table_stats: None,
            injections_deduped: 0,
        }
    }

    /// ① SID preparation: reference-input profile + per-instruction FI.
    fn reference(&mut self, model: &dyn InputModel) -> Result<Reference, PipelineError> {
        let t0 = Instant::now();
        let _span = trace::span("ref_fi");
        let ref_input = model.materialize(&model.reference());
        let (golden, cb, _) = self.per_inst_fi(&ref_input, None)?;
        Ok(Reference {
            cb,
            cfg_list: golden.profile.indexed_cfg_list(),
            elapsed: t0.elapsed(),
        })
    }

    /// Fetch the golden run for `input` (`steps`: its length, when a
    /// profile run already measured it) and, under a journal, verify or
    /// record its digest. A digest mismatch means the journal belongs to
    /// different work and replaying its outcomes would be silent garbage —
    /// refuse loudly.
    fn golden(
        &self,
        input: &ProgInput,
        steps: Option<u64>,
    ) -> Result<(Arc<GoldenRun>, Option<u64>), PipelineError> {
        let golden = self
            .cache
            .golden_sized(self.module, input, &self.cfg.campaign, steps)?;
        let Some(journal) = self.journal else {
            return Ok((golden, None));
        };
        let fp = input_fingerprint(input);
        let digest = output_fingerprint(&golden.output);
        match journal.golden_digest(fp) {
            Some((d, s)) if d != digest || s != golden.steps => {
                return Err(PipelineError::Journal(format!(
                    "golden-run digest mismatch for input {fp:#x}: journal has \
                     (output {d:#x}, {s} steps) but this run computed \
                     (output {digest:#x}, {} steps) — the journal belongs to a \
                     different program or campaign config",
                    golden.steps
                )));
            }
            Some(_) => {}
            None => journal.record_golden(fp, digest, golden.steps),
        }
        Ok((golden, Some(fp)))
    }

    /// Fetch the golden run for one input and run its per-instruction FI
    /// through the [`CampaignEngine`], with the journal layer attached
    /// when one is present (digest-checked golden, served/appended
    /// outcomes).
    fn per_inst_fi(
        &mut self,
        input: &ProgInput,
        steps: Option<u64>,
    ) -> Result<(Arc<GoldenRun>, CostBenefit, Option<u64>), PipelineError> {
        let (golden, input_fp) = self.golden(input, steps)?;
        // Section-table memo: scoped to (store, input), shared by every
        // campaign shape over this pair.
        let memo = match (self.cfg.incremental, self.cache.store()) {
            (true, Some(store)) => Some(TableMemo::new(
                store.clone(),
                input_fp.unwrap_or_else(|| input_fingerprint(input)),
            )),
            _ => None,
        };
        let mut engine = CampaignEngine::new(self.module, input, &golden, &self.cfg.campaign)
            .with_scheduler(&self.sched);
        if let (Some(j), Some(fp)) = (self.journal, input_fp) {
            engine = engine.with_journal(j, fp);
        }
        if let Some(m) = &memo {
            engine = engine.with_tables(m);
        }
        let per_inst = engine.run_per_instruction()?;
        self.injections_deduped += engine.deduped();
        if let Some(m) = &memo {
            self.table_stats
                .get_or_insert_with(Default::default)
                .merge(&m.stats());
        }
        let cb = CostBenefit::build(self.module, &golden, &per_inst);
        Ok((golden, cb, input_fp))
    }
}

/// [`run_minpsid_cached`] with crash-safe progress: every per-injection
/// outcome, golden digest, GA evaluation, accepted input, and the final
/// selection is journaled as it happens. Resume is replay — rerunning
/// with the same journal short-circuits completed work and produces a
/// bit-identical [`MinpsidResult`]; an interrupt (SIGINT) flushes the
/// journal and returns [`PipelineError::Interrupted`].
pub fn run_minpsid_journaled(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    journal: &CampaignJournal,
) -> Result<MinpsidResult, PipelineError> {
    run_minpsid_inner(module, model, cfg, cache, Some(journal), None)
}

/// The one pipeline body behind [`run_minpsid_cached`], [`run_minpsid_journaled`]
/// and [`run_minpsid_from`]: the journal (durable outcomes, eval memo, interrupt
/// handling, selection record) is a layer attached when present, and step ① runs
/// here unless `reference` is given.
fn run_minpsid_inner(
    module: &Module,
    model: &dyn InputModel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    journal: Option<&CampaignJournal>,
    reference: Option<Reference>,
) -> Result<MinpsidResult, PipelineError> {
    let _pipeline_span = trace::span("minpsid_pipeline");
    let mut fi = FiStage::new(module, cfg, cache);
    fi.journal = journal;
    let reference = reference.map_or_else(|| fi.reference(model), Ok)?;
    let mut timings = Timings {
        ref_fi: reference.elapsed,
        ..Timings::default()
    };
    if let Some(j) = journal {
        let _ = j.sync();
    }

    // ③–⑦ input search + incubative identification
    let mut engine = SearchEngine::new(module, model, cfg.campaign.clone(), cfg.ga.clone());
    if let Some(j) = journal {
        engine.set_eval_memo(j);
    }
    engine.set_deadline(fi.sched.deadline());
    engine.record_history(reference.cfg_list.clone());
    let mut tracker = IncubativeTracker::new(reference.cb.benefit.clone(), cfg.incubative);
    let mut incubative_history = Vec::new();
    let mut stale = 0usize;
    let mut inputs_searched = 0usize;

    while inputs_searched < cfg.max_inputs && stale < cfg.stagnation_patience {
        if let Some(j) = journal.filter(|_| interrupt::requested()) {
            let _ = j.sync();
            return Err(PipelineError::Interrupted);
        }
        if fi.sched.deadline_exceeded() {
            break; // graceful: report what we have, annotated as partial
        }
        let t_search = Instant::now();
        let search_span = trace::span("search");
        let outcome = match cfg.strategy {
            SearchStrategy::Genetic => engine.next_ga_input(),
            SearchStrategy::Random => engine.next_random_input(),
            SearchStrategy::Annealing => engine.next_annealing_input(),
        };
        drop(search_span);
        timings.search += t_search.elapsed();
        let Some(outcome) = outcome else {
            break; // input space exhausted / generator keeps failing
        };

        // ⑦ per-instruction FI under the searched input
        let t_fi = Instant::now();
        let fi_span = trace::span("incubative_fi");
        let (_, cb, input_fp) = fi.per_inst_fi(&outcome.input, outcome.steps)?;
        drop(fi_span);
        timings.incubative_fi += t_fi.elapsed();

        engine.record_history(outcome.cfg_list.clone());
        let new = tracker.observe(&cb.benefit);
        incubative_history.push(tracker.count());
        inputs_searched += 1;
        if let (Some(j), Some(fp)) = (journal, input_fp) {
            j.record_accepted(inputs_searched as u64, fp);
            let _ = j.sync();
        }
        if trace::active() {
            trace::emit(trace::Event::SearchInput {
                index: inputs_searched as u64,
                fitness: outcome.fitness,
                new_incubative: new as u64,
                total_incubative: tracker.count() as u64,
            });
        }
        if new == 0 {
            stale += 1;
        } else {
            stale = 0;
        }
    }

    // ⑧ re-prioritization + ⑨ selection & transform
    let t_rest = Instant::now();
    let select_span = trace::span("select_transform");
    let mut cb = reference.cb;
    cb.benefit = tracker.reprioritized_benefit();
    let (selection, expected_coverage, protected, _) =
        select_and_protect(module, &cb, cfg.protection_level, cfg.use_dp);
    if let Some(j) = journal {
        j.record_selection(&selection);
    }
    drop(select_span);
    timings.other = t_rest.elapsed();
    if trace::active() {
        trace::emit(trace::Event::CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            entries: cache.len() as u64,
        });
    }
    if let Some(j) = journal {
        j.emit_stats();
    }
    fi.sched.emit_summary();
    if let Some(j) = journal {
        // completed run: compact the log so the directory stays small
        // across repeated resumes, and make everything durable on the
        // way out
        let _ = j.compact();
        let _ = j.sync();
    }

    Ok(MinpsidResult {
        protected,
        selection,
        expected_coverage,
        incubative: tracker.incubative_indices(),
        incubative_history,
        inputs_searched,
        timings,
        cost_benefit: cb,
        tracker,
        sched: fi.sched.snapshot(),
        table_stats: fi.table_stats,
        deduped: Deduped {
            evals: engine.deduped,
            injections: fi.injections_deduped,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{ParamSpec, ParamValue};
    use minpsid_interp::{ProgInput, Stream};
    use minpsid_sid::{measure_unprotected, select};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A miniature version of the paper's Fig. 3 situation: a comparison
    /// whose SDC-proneness depends on whether the data values sit near the
    /// `> 50` threshold. The reference input keeps all values far below
    /// the threshold, so the multiply path never executes and its
    /// instructions (plus the icmp) carry ~zero benefit. Other inputs
    /// push values above the threshold.
    fn module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = data_len(0);
                let acc = 0;
                for i = 0 to n {
                    let v = data_i(0, i);
                    if v > 50 {
                        acc = acc + v * 3 + 17;
                    } else {
                        acc = acc + 1;
                    }
                }
                out_i(acc);
            }
            "#,
            "minpsid-pipeline-test",
        )
        .unwrap()
    }

    struct Model {
        spec: Vec<ParamSpec>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                spec: vec![
                    ParamSpec::int("n", 16, 64),
                    ParamSpec::int("base", 0, 100),
                    ParamSpec::int("seed", 0, 1_000_000),
                ],
            }
        }
    }

    impl InputModel for Model {
        fn spec(&self) -> &[ParamSpec] {
            &self.spec
        }

        fn materialize(&self, params: &[ParamValue]) -> ProgInput {
            let n = params[0].as_i().max(1) as usize;
            let base = params[1].as_i();
            let mut rng = StdRng::seed_from_u64(params[2].as_i() as u64);
            let data: Vec<i64> = (0..n).map(|_| base + rng.random_range(0..20i64)).collect();
            ProgInput::new(vec![], vec![Stream::I(data)])
        }

        fn reference(&self) -> Vec<ParamValue> {
            // all values in [5, 25): the `v > 50` path never runs
            vec![ParamValue::I(32), ParamValue::I(5), ParamValue::I(42)]
        }
    }

    fn quick_cfg(level: f64, strategy: SearchStrategy) -> MinpsidConfig {
        MinpsidConfig {
            protection_level: level,
            campaign: CampaignConfig {
                injections: 200,
                per_inst_injections: 12,
                seed: 7,
                ..CampaignConfig::default()
            },
            ga: GaConfig {
                population: 6,
                max_generations: 4,
                seed: 11,
                ..GaConfig::default()
            },
            max_inputs: 8,
            stagnation_patience: 2,
            strategy,
            ..MinpsidConfig::default()
        }
    }

    #[test]
    fn minpsid_finds_incubative_instructions() {
        let m = module();
        let model = Model::new();
        let r = run_minpsid(&m, &model, &quick_cfg(0.5, SearchStrategy::Genetic)).unwrap();
        assert!(
            !r.incubative.is_empty(),
            "the threshold branch must surface incubative instructions"
        );
        assert!(r.inputs_searched >= 1);
        assert_eq!(r.incubative_history.len(), r.inputs_searched);
        // cumulative count is non-decreasing
        assert!(r.incubative_history.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.timings.ref_fi > Duration::ZERO);
        assert!(r.timings.search > Duration::ZERO);
    }

    #[test]
    fn minpsid_recovers_coverage_on_an_adversarial_input() {
        let m = module();
        let model = Model::new();
        let cfg = quick_cfg(0.6, SearchStrategy::Genetic);

        let reference = reference_profile(&m, &model, &cfg, &GoldenCache::new()).unwrap();
        let (baseline, _) = select(&m, &reference.cb, cfg.protection_level, cfg.use_dp);
        let hardened = run_minpsid_from(&m, &model, &cfg, &reference).unwrap();

        // adversarial input: every value above the threshold
        let bad_params = vec![ParamValue::I(48), ParamValue::I(90), ParamValue::I(3)];
        let bad_input = model.materialize(&bad_params);

        let measured = measure_unprotected(&m, &bad_input, &cfg.campaign).unwrap();
        let base_cov = measured.coverage(&baseline);
        let hard_cov = measured.coverage(&hardened.selection);

        assert!(
            hard_cov >= base_cov,
            "MINPSID must not lose coverage vs baseline on the adversarial input: \
             baseline={base_cov:.3}, minpsid={hard_cov:.3}"
        );
    }

    /// Extending a reference the caller computed is the pipeline that
    /// computes its own: same search, same profile, same protected program.
    #[test]
    fn a_run_from_a_reference_equals_a_run_that_computes_it() {
        let m = module();
        let model = Model::new();
        for strategy in [SearchStrategy::Genetic, SearchStrategy::Random] {
            let cfg = quick_cfg(0.5, strategy);
            let reference = reference_profile(&m, &model, &cfg, &GoldenCache::new()).unwrap();
            let from = run_minpsid_from(&m, &model, &cfg, &reference).unwrap();
            let whole = run_minpsid(&m, &model, &cfg).unwrap();
            same_result(&from, &whole);
            let bits = |r: &MinpsidResult| -> Vec<u64> {
                r.cost_benefit.benefit.iter().map(|b| b.to_bits()).collect()
            };
            assert_eq!(bits(&from), bits(&whole), "{strategy:?}");
            assert_eq!(
                crate::cache::module_fingerprint(&from.protected),
                crate::cache::module_fingerprint(&whole.protected),
                "{strategy:?}"
            );
            assert_eq!(from.timings.ref_fi, reference.elapsed);
        }
    }

    #[test]
    fn reprioritized_selection_includes_incubative_instructions() {
        let m = module();
        let model = Model::new();
        let cfg = quick_cfg(0.7, SearchStrategy::Genetic);
        let r = run_minpsid(&m, &model, &cfg).unwrap();
        // at a high protection level, re-prioritized incubative
        // instructions should be selected (that is the whole point)
        let selected_incubative = r.incubative.iter().filter(|&&i| r.selection[i]).count();
        assert!(
            selected_incubative > 0,
            "incubative instructions must be prioritized: {:?}",
            r.incubative
        );
    }

    #[test]
    fn shared_cache_eliminates_repeat_golden_runs() {
        let m = module();
        let model = Model::new();
        let cfg = quick_cfg(0.5, SearchStrategy::Genetic);
        let cache = GoldenCache::new();
        let a = run_minpsid_cached(&m, &model, &cfg, &cache).unwrap();
        let misses_after_first = cache.misses();
        assert!(misses_after_first >= 1);
        // identical rerun: every golden run is served from the cache, and
        // the result is unchanged (campaigns are seed-deterministic)
        let b = run_minpsid_cached(&m, &model, &cfg, &cache).unwrap();
        assert_eq!(cache.misses(), misses_after_first);
        assert!(cache.hits() >= misses_after_first);
        assert_eq!(a.incubative, b.incubative);
        assert_eq!(a.expected_coverage, b.expected_coverage);
    }

    #[test]
    fn random_strategy_runs_to_completion() {
        let m = module();
        let model = Model::new();
        let r = run_minpsid(&m, &model, &quick_cfg(0.5, SearchStrategy::Random)).unwrap();
        assert!(r.inputs_searched >= 1);
    }

    fn journal_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "minpsid-pipeline-journal-{name}-{}",
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

    /// `interrupt::request()` is process-wide and every journal-attached
    /// run polls it: a test that raises the flag or attaches a journal
    /// holds this for its whole body.
    static INTERRUPT_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// One test covers fresh-journaled, resumed, and interrupted runs.
    #[test]
    fn journaled_runs_are_bit_identical_and_resumable() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = module();
        let model = Model::new();
        let cfg = quick_cfg(0.5, SearchStrategy::Genetic);
        let plain = run_minpsid(&m, &model, &cfg).unwrap();

        let dir = journal_dir("pipeline");
        let mfp = crate::cache::module_fingerprint(&m);
        let cfp = minpsid_config_fingerprint(&cfg);

        // fresh journaled run == plain run
        {
            let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
            let fresh =
                run_minpsid_journaled(&m, &model, &cfg, &GoldenCache::new(), &journal).unwrap();
            same_result(&plain, &fresh);
            let (_, appended) = journal.usage();
            assert!(appended > 0, "a fresh run journals its work");
        }

        // resumed run (fresh cache, reopened journal) == plain run, with
        // nearly all injections served from the log
        {
            let journal = CampaignJournal::open(&dir, mfp, cfp, None).unwrap();
            let resumed =
                run_minpsid_journaled(&m, &model, &cfg, &GoldenCache::new(), &journal).unwrap();
            same_result(&plain, &resumed);
            let (served, appended) = journal.usage();
            assert!(served > 0, "a completed journal serves everything");
            assert!(
                appended <= 1,
                "only the (non-idempotent) selection record is re-appended, got {appended}"
            );
        }

        // interrupt before the search loop: progress is kept, a resumed
        // run still matches
        let dir2 = journal_dir("pipeline-interrupt");
        {
            let journal = CampaignJournal::open(&dir2, mfp, cfp, None).unwrap();
            interrupt::request();
            let r = run_minpsid_journaled(&m, &model, &cfg, &GoldenCache::new(), &journal);
            interrupt::clear();
            assert!(matches!(r, Err(PipelineError::Interrupted)));
        }
        {
            let journal = CampaignJournal::open(&dir2, mfp, cfp, None).unwrap();
            let (recovered, _) = journal.recovery_stats();
            assert!(recovered > 0, "the interrupted run journaled its ref FI");
            let resumed =
                run_minpsid_journaled(&m, &model, &cfg, &GoldenCache::new(), &journal).unwrap();
            same_result(&plain, &resumed);
        }

        // a config change is refused (journal belongs to different work)
        let other = quick_cfg(0.9, SearchStrategy::Genetic);
        assert!(
            CampaignJournal::open(&dir, mfp, minpsid_config_fingerprint(&other), None).is_err()
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn incremental_runs_serve_sections_from_the_store() {
        let m = module();
        let model = Model::new();
        let cfg = quick_cfg(0.5, SearchStrategy::Genetic);
        let plain = run_minpsid(&m, &model, &cfg).unwrap();
        assert!(plain.table_stats.is_none(), "no store, no memoization");

        let dir = journal_dir("tables");
        let store = Arc::new(minpsid_store::ArtifactStore::open(&dir).unwrap());
        // cold: every section misses, executes, and seals a table
        let cache = GoldenCache::with_store(64, store.clone());
        let cold = run_minpsid_cached(&m, &model, &cfg, &cache).unwrap();
        same_result(&plain, &cold);
        let ts = cold.table_stats.unwrap();
        assert!(ts.injections_executed > 0, "{ts:?}");
        assert_eq!(ts.injections_served, 0, "{ts:?}");
        assert!(ts.tables_sealed > 0, "{ts:?}");

        // warm rerun (fresh golden cache, same store): every injection is
        // served from sealed tables; the interpreter never injects
        let cache = GoldenCache::with_store(64, store);
        let warm = run_minpsid_cached(&m, &model, &cfg, &cache).unwrap();
        same_result(&plain, &warm);
        let ts = warm.table_stats.unwrap();
        assert_eq!(ts.injections_executed, 0, "{ts:?}");
        assert!(ts.injections_served > 0, "{ts:?}");
        assert!(ts.sections_hit > 0, "{ts:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_fingerprint_ignores_thread_count_and_deadline() {
        let a = quick_cfg(0.5, SearchStrategy::Genetic);
        let mut b = a.clone();
        b.campaign.threads = 13;
        assert_eq!(
            minpsid_config_fingerprint(&a),
            minpsid_config_fingerprint(&b)
        );
        // a deadline changes how much work runs, not what it computes: a
        // truncated journal must be resumable under a looser budget
        let mut d = a.clone();
        d.deadline_secs = Some(3.5);
        assert_eq!(
            minpsid_config_fingerprint(&a),
            minpsid_config_fingerprint(&d)
        );
        let mut c = a.clone();
        c.protection_level = 0.6;
        assert_ne!(
            minpsid_config_fingerprint(&a),
            minpsid_config_fingerprint(&c)
        );
    }

    /// Measured at the parent of PR 22, which removed fields from three
    /// structs these fingerprints then hashed the `{:?}` of. They key the
    /// golden-run store refs and the MINPSID journal header: if either
    /// moves, every store written before misses and every journal refuses
    /// to resume.
    #[test]
    fn hashed_config_renderings_did_not_move() {
        assert_eq!(
            crate::config_fingerprint(&CampaignConfig::default()),
            0x814f_9cdf_444e_6d48
        );
        assert_eq!(
            minpsid_config_fingerprint(&MinpsidConfig::default()),
            0xfe0b_06b5_c2a3_ca67
        );
    }

    #[test]
    fn expired_deadline_still_produces_an_annotated_report() {
        let m = module();
        let model = Model::new();
        let mut cfg = quick_cfg(0.5, SearchStrategy::Genetic);
        cfg.deadline_secs = Some(0.0); // already expired at start
        let r = run_minpsid(&m, &model, &cfg).unwrap();
        assert_eq!(r.inputs_searched, 0, "search never starts past deadline");
        assert!(r.sched.truncated > 0, "ref FI is truncated");
        assert!(
            r.sched.completeness() < 1.0,
            "the report must confess its incompleteness: {:?}",
            r.sched
        );
        // unbounded runs report full completeness
        let full = run_minpsid(&m, &model, &quick_cfg(0.5, SearchStrategy::Genetic)).unwrap();
        assert_eq!(full.sched.completeness(), 1.0);
        assert_eq!(full.sched.truncated, 0);
    }

    #[test]
    fn search_terminates_on_stagnation() {
        let m = module();
        let model = Model::new();
        let mut cfg = quick_cfg(0.5, SearchStrategy::Genetic);
        cfg.max_inputs = 100; // only stagnation can stop us in reasonable time
        cfg.stagnation_patience = 2;
        let r = run_minpsid(&m, &model, &cfg).unwrap();
        assert!(
            r.inputs_searched < 100,
            "stagnation patience must terminate the search"
        );
    }
}
