//! The traced run's staged replay: the MINPSID pipeline re-driven stage by
//! stage from the benchmark's own code, through the crates' public
//! functions, with a span around each call into a layer.
//!
//! It follows `minpsid::run_minpsid_cached` / `run_minpsid_journaled` step
//! for step (Fig. 4 of the paper), so its result digest must equal theirs;
//! the caller counts a mismatch as a failed operation. Spans inside the
//! product are a later change.

use crate::pipeline::{result_digest, Kernel};
use crate::spans::Tracer;
use minpsid::{
    input_fingerprint, output_fingerprint, GoldenCache, IncubativeTracker, MinpsidConfig,
    SearchEngine,
};
use minpsid_faultsim::{
    CampaignEngine, CampaignJournal, Deadline, GoldenRun, OutcomeCounts, SchedSnapshot, Scheduler,
    TableMemo, TableStatsSnapshot,
};
use minpsid_interp::ProgInput;
use minpsid_ir::Module;
use minpsid_sid::{select_and_protect, CostBenefit};
use std::sync::Arc;

/// What one staged pipeline run produced and counted.
pub struct Staged {
    pub digest: u64,
    pub protected: Module,
    pub sched: SchedSnapshot,
    pub table_stats: Option<TableStatsSnapshot>,
    pub outcomes: OutcomeCounts,
    pub units_planned: u64,
    pub per_inst_injections: u64,
    pub campaigns: u64,
    pub ga_evals: u64,
    pub inputs_searched: u64,
    pub selected: u64,
    pub expected_coverage: f64,
    /// Indexed CFG lists of the reference and every accepted input, in
    /// order: what the GA scored candidates against.
    pub history: Vec<Vec<u64>>,
}

struct Stage<'a> {
    t: &'a mut Tracer,
    label: &'static str,
    module: &'a Module,
    cfg: &'a MinpsidConfig,
    cache: &'a GoldenCache,
    journal: Option<&'a CampaignJournal>,
    sched: &'a Scheduler,
    table_stats: Option<TableStatsSnapshot>,
    outcomes: OutcomeCounts,
    units_planned: u64,
    per_inst_injections: u64,
    campaigns: u64,
}

impl Stage<'_> {
    /// Golden run + per-instruction FI + cost/benefit for one input: the
    /// pipeline's `engine_per_inst_fi`, with the journal and the table
    /// memo attached as layers when present.
    fn per_inst_fi(
        &mut self,
        input: &ProgInput,
    ) -> Result<(Arc<GoldenRun>, CostBenefit, Option<u64>), String> {
        let (module, cfg, label) = (self.module, self.cfg, self.label);
        let golden = self
            .t
            .time("core.golden", label, || {
                self.cache.golden(module, input, &cfg.campaign)
            })
            .map_err(|t| format!("golden run did not exit: {t:?}"))?;
        let input_fp = match self.journal {
            None => None,
            Some(j) => {
                let fp = input_fingerprint(input);
                let digest = output_fingerprint(&golden.output);
                match j.golden_digest(fp) {
                    Some((d, s)) if d != digest || s != golden.steps => {
                        return Err(format!("journal golden digest mismatch for input {fp:#x}"))
                    }
                    Some(_) => {}
                    None => j.record_golden(fp, digest, golden.steps),
                }
                Some(fp)
            }
        };
        let memo = match (cfg.incremental, self.cache.store()) {
            (true, Some(store)) => Some(TableMemo::new(
                store.clone(),
                input_fp.unwrap_or_else(|| input_fingerprint(input)),
            )),
            _ => None,
        };
        let mut engine =
            CampaignEngine::new(module, input, &golden, &cfg.campaign).with_scheduler(self.sched);
        if let (Some(j), Some(fp)) = (self.journal, input_fp) {
            engine = engine.with_journal(j, fp);
        }
        if let Some(m) = &memo {
            engine = engine.with_tables(m);
        }
        let plan = self
            .t
            .time("faultsim.plan", label, || engine.plan_per_instruction());
        self.units_planned += plan.units() as u64;
        self.per_inst_injections += plan.planned_injections();
        self.campaigns += 1;
        let per_inst = self
            .t
            .time("faultsim.per_inst", label, || engine.run_per_instruction())
            .map_err(|_| "campaign interrupted".to_string())?;
        for c in &per_inst.counts {
            self.outcomes.merge(c);
        }
        if let Some(m) = &memo {
            self.table_stats
                .get_or_insert_with(Default::default)
                .merge(&m.stats());
        }
        let cb = self.t.time("sid.cost_benefit", label, || {
            CostBenefit::build(module, &golden, &per_inst)
        });
        Ok((golden, cb, input_fp))
    }
}

/// Run the pipeline on `k` stage by stage under one `core.pipeline` span
/// labelled with the kernel's name.
pub fn staged_minpsid(
    t: &mut Tracer,
    k: &Kernel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    journal: Option<&CampaignJournal>,
) -> Result<Staged, String> {
    t.enter("core.pipeline", k.name);
    let out = staged_inner(t, k, cfg, cache, journal);
    t.exit();
    out
}

fn staged_inner(
    t: &mut Tracer,
    k: &Kernel,
    cfg: &MinpsidConfig,
    cache: &GoldenCache,
    journal: Option<&CampaignJournal>,
) -> Result<Staged, String> {
    let (label, module, model) = (k.name, &k.module, k.model.as_ref());
    let sched = Scheduler::new(
        cfg.campaign.sched.clone(),
        Deadline::from_secs(cfg.deadline_secs),
    );
    let mut stage = Stage {
        t,
        label,
        module,
        cfg,
        cache,
        journal,
        sched: &sched,
        table_stats: None,
        outcomes: OutcomeCounts::default(),
        units_planned: 0,
        per_inst_injections: 0,
        campaigns: 0,
    };
    let sync = |j: Option<&CampaignJournal>| {
        if let Some(j) = j {
            let _ = j.sync();
        }
    };

    // ① reference-input profile + per-instruction FI
    let ref_input = model.materialize(&model.reference());
    let (ref_golden, ref_cb, _) = stage.per_inst_fi(&ref_input)?;
    sync(journal);

    // ③–⑦ input search + incubative identification
    let mut engine = SearchEngine::new(module, model, cfg.campaign.clone(), cfg.ga.clone());
    if let Some(j) = journal {
        engine.set_eval_memo(j);
    }
    engine.set_deadline(sched.deadline());
    let mut history = vec![ref_golden.profile.indexed_cfg_list()];
    engine.record_history(history[0].clone());
    let mut tracker = IncubativeTracker::new(ref_cb.benefit.clone(), cfg.incubative);
    let mut stale = 0usize;
    let mut inputs_searched = 0usize;
    while inputs_searched < cfg.max_inputs && stale < cfg.stagnation_patience {
        let Some(outcome) = stage
            .t
            .time("core.search", label, || engine.next_ga_input())
        else {
            break;
        };
        let (_, cb, input_fp) = stage.per_inst_fi(&outcome.input)?;
        history.push(outcome.cfg_list.clone());
        engine.record_history(outcome.cfg_list);
        let new = stage
            .t
            .time("core.observe", label, || tracker.observe(&cb.benefit));
        inputs_searched += 1;
        if let (Some(j), Some(fp)) = (journal, input_fp) {
            j.record_accepted(inputs_searched as u64, fp);
            sync(journal);
        }
        stale = if new == 0 { stale + 1 } else { 0 };
    }

    // ⑧ re-prioritization + ⑨ selection & transform
    let mut cb = ref_cb;
    cb.benefit = tracker.reprioritized_benefit();
    let (selection, expected_coverage, protected, _) =
        stage.t.time("sid.select_protect", label, || {
            select_and_protect(module, &cb, cfg.protection_level, cfg.use_dp)
        });
    if let Some(j) = journal {
        stage.t.time("journal.finish", label, || {
            j.record_selection(&selection);
            let _ = j.compact();
            let _ = j.sync();
        });
    }

    let incubative = tracker.incubative_indices();
    Ok(Staged {
        digest: result_digest(
            &selection,
            &incubative,
            expected_coverage,
            inputs_searched,
            &cb.benefit,
        ),
        protected,
        sched: sched.snapshot(),
        table_stats: stage.table_stats,
        outcomes: stage.outcomes,
        units_planned: stage.units_planned,
        per_inst_injections: stage.per_inst_injections,
        campaigns: stage.campaigns,
        ga_evals: engine.profiled_runs,
        inputs_searched: inputs_searched as u64,
        selected: selection.iter().filter(|&&s| s).count() as u64,
        expected_coverage,
        history,
    })
}
