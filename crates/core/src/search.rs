//! The input search engine (paper Fig. 4 ③–⑥): a genetic algorithm whose
//! fitness is the weighted-CFG distance to the search history, plus the
//! blind random searcher used as the baseline in Fig. 7.
//!
//! The search itself only *profiles* candidate inputs (a single run per
//! distinct input on one profiling interpreter built with the engine, so
//! the module is decoded once per search, not once per candidate, and an
//! input is interpreted once per search, however many candidates
//! materialize to it); all actual fault-injection campaigns in the
//! surrounding pipeline go through the faultsim `CampaignEngine`, which is
//! where the scheduler, journal, and thread-count knobs attach.

use crate::cache::input_fingerprint;
use crate::input::{crossover, mutate, InputModel, ParamValue};
use crate::wcfg::{fitness_score, fitness_score_normalized, profile_with, profiling_interp};
use minpsid_faultsim::{CampaignConfig, Deadline};
use minpsid_interp::{ExecScratch, Interp, ProgInput};
use minpsid_ir::bytes::Fnv;
use minpsid_ir::Module;
use minpsid_trace as trace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Memoized profiling results, keyed by input fingerprint. The crash-safe
/// journal implements this so a resumed search replays GA evaluations from
/// the log instead of re-interpreting every candidate; fitness is a pure
/// function of the CFG list and the history, so a served list yields the
/// exact score the original run computed.
pub trait EvalMemo {
    /// The indexed CFG list previously recorded for this input, if any.
    fn cfg_list(&self, input_fp: u64) -> Option<Vec<u64>>;
    /// Record a freshly profiled input's indexed CFG list.
    fn record_cfg_list(&self, input_fp: u64, list: &[u64]);
}

/// Which fitness function drives the GA (Eq. 3 is the paper's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitnessKind {
    /// Unnormalized Euclidean distance over indexed CFG lists (Eq. 3).
    #[default]
    Euclidean,
    /// Shape-normalized variant (see `wcfg::fitness_score_normalized`).
    NormalizedEuclidean,
}

/// Per-survivor mutation and per-generation crossover chances: the
/// paper's §V-B1 choice of "common heuristics used in GA".
const MUTATION_RATE: f64 = 0.4;
const CROSSOVER_RATE: f64 = 0.05;

/// GA hyper-parameters.
#[derive(Debug, Clone)]
pub struct GaConfig {
    pub population: usize,
    /// Fitness function (Eq. 3 by default).
    pub fitness: FitnessKind,
    /// Stop an inner GA search when the best fitness has not improved for
    /// this many generations ("the current GA search terminates when the
    /// fitness score no longer improves").
    pub patience: usize,
    /// Hard cap on inner generations.
    pub max_generations: usize,
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 10,
            fitness: FitnessKind::Euclidean,
            patience: 2,
            max_generations: 8,
            seed: 1234,
        }
    }
}

impl GaConfig {
    /// Feed this config to the MINPSID journal header's key. Every field,
    /// and the two rates as text, enters: each changes what the search proposes.
    pub fn key(&self, h: &mut Fnv) {
        let GaConfig {
            population,
            fitness,
            patience,
            max_generations,
            seed,
        } = self;
        let fitness = match fitness {
            FitnessKind::Euclidean => "Euclidean",
            FitnessKind::NormalizedEuclidean => "NormalizedEuclidean",
        };
        h.text(format_args!(
            "GaConfig {{ population: {population:?}, mutation_rate: {MUTATION_RATE:?}, \
             crossover_rate: {CROSSOVER_RATE:?}, fitness: {fitness}, patience: {patience:?}, \
             max_generations: {max_generations:?}, seed: {seed:?} }}"
        ));
    }
}

/// An input accepted by the search, with the indexed CFG list its fitness
/// was scored against (all the pipeline needs for the history; carrying
/// the full `Profile` would defeat memoized resume).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    pub params: Vec<ParamValue>,
    pub input: ProgInput,
    pub fitness: f64,
    pub cfg_list: Vec<u64>,
    /// Length in dynamic steps of the profile run that produced
    /// `cfg_list` — the golden run of `input` is that same run, so it can
    /// size its checkpoint interval from this instead of a sizing pass.
    /// `None` when the list came from an [`EvalMemo`], which keeps lists
    /// only.
    pub steps: Option<u64>,
}

/// The search engine: owns the history of indexed CFG lists against which
/// fitness is evaluated.
pub struct SearchEngine<'a> {
    /// The one profiling interpreter every candidate runs on.
    interp: Interp<'a>,
    /// The one set of run buffers every candidate runs in.
    scratch: ExecScratch,
    model: &'a dyn InputModel,
    ga: GaConfig,
    history: Vec<Vec<u64>>,
    rng: StdRng,
    memo: Option<&'a dyn EvalMemo>,
    /// What the profile run of every input this engine has interpreted
    /// produced, by input fingerprint: the indexed CFG list and the run's
    /// steps, or `None` for an input that errors out. The interpreter is
    /// deterministic and the engine's module and limits are fixed, so an
    /// entry stands for every later run of its input. Mutation no-ops and
    /// candidates re-drawn in a later GA round land here.
    profiled: HashMap<u64, Option<(Vec<u64>, u64)>>,
    /// Evaluate as if `profiled` were always empty (the reference the
    /// memo is tested against).
    #[cfg(test)]
    bypass_profiled: bool,
    deadline: Deadline,
    /// Candidate evaluations that produced a CFG list, however it was
    /// obtained — a profile run, this engine's own record of one, or the
    /// memo. Memo hits count so an interrupted-and-resumed search reports
    /// the same totals (and emits the same trace events) as an
    /// uninterrupted one; repeats count for the same reason.
    pub profiled_runs: u64,
    /// How many of `profiled_runs` were served from the memo.
    pub memo_served: u64,
    /// Evaluations (of valid and of erroring inputs) answered from this
    /// engine's record of an earlier profile run of the same input.
    pub deduped: u64,
}

impl<'a> SearchEngine<'a> {
    pub fn new(
        module: &'a Module,
        model: &'a dyn InputModel,
        campaign: CampaignConfig,
        ga: GaConfig,
    ) -> Self {
        let rng = StdRng::seed_from_u64(ga.seed);
        SearchEngine {
            interp: profiling_interp(module, &campaign),
            scratch: ExecScratch::default(),
            model,
            ga,
            history: Vec::new(),
            rng,
            memo: None,
            profiled: HashMap::new(),
            #[cfg(test)]
            bypass_profiled: false,
            deadline: Deadline::none(),
            profiled_runs: 0,
            memo_served: 0,
            deduped: 0,
        }
    }

    /// Attach a memo (e.g. a crash-safe journal) consulted before every
    /// candidate profiling run and updated after every fresh one.
    pub fn set_eval_memo(&mut self, memo: &'a dyn EvalMemo) {
        self.memo = Some(memo);
    }

    /// Bound the search by a wall-clock deadline: GA generations and
    /// annealing steps stop early once it expires, returning the best
    /// candidate found so far. Unbounded runs are unaffected, so a run
    /// without a deadline stays bit-identical to one that never expires.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Record an accepted input's indexed CFG list (the reference input is
    /// recorded before the search starts).
    pub fn record_history(&mut self, list: Vec<u64>) {
        self.history.push(list);
    }

    /// The profile run of `input` (fingerprint `fp`): looked up in
    /// `profiled`, else executed and entered there. A fresh valid run is
    /// also handed to the memo.
    fn profile(&mut self, fp: u64, input: &ProgInput) -> Option<(Vec<u64>, u64)> {
        #[cfg(test)]
        if self.bypass_profiled {
            self.profiled.clear();
        }
        if let Some(known) = self.profiled.get(&fp) {
            self.deduped += 1;
            return known.clone();
        }
        let run = profile_with(&self.interp, &mut self.scratch, input)
            .ok()
            .map(|(profile, steps)| (profile.block_counts, steps));
        if let (Some(m), Some((list, _))) = (self.memo, &run) {
            m.record_cfg_list(fp, list);
        }
        self.profiled.insert(fp, run.clone());
        run
    }

    /// Evaluate one parameter vector: materialize, profile (or serve the
    /// CFG list from the memo), score. `None` if the input errors out
    /// (filtered per §III-A2).
    fn evaluate(&mut self, params: Vec<ParamValue>) -> Option<SearchOutcome> {
        let input = self.model.materialize(&params);
        let fp = input_fingerprint(&input);
        let (list, steps) = match self.memo.and_then(|m| m.cfg_list(fp)) {
            Some(list) => {
                self.memo_served += 1;
                (list, None)
            }
            None => {
                let (list, steps) = self.profile(fp, &input)?;
                (list, Some(steps))
            }
        };
        self.profiled_runs += 1;
        let fitness = match self.ga.fitness {
            FitnessKind::Euclidean => fitness_score(&list, &self.history),
            FitnessKind::NormalizedEuclidean => fitness_score_normalized(&list, &self.history),
        };
        Some(SearchOutcome {
            params,
            input,
            cfg_list: list,
            steps,
            fitness,
        })
    }

    fn random_candidate(&mut self, attempts: usize) -> Option<SearchOutcome> {
        for _ in 0..attempts {
            let params = self.model.random(&mut self.rng);
            if let Some(c) = self.evaluate(params) {
                return Some(c);
            }
        }
        None
    }

    /// One full GA search (Fig. 4 ④–⑥): evolve a population until fitness
    /// stagnates, return the fittest input found. Does *not* record it in
    /// the history — the caller does that after the FI step accepts it.
    pub fn next_ga_input(&mut self) -> Option<SearchOutcome> {
        let pop_size = self.ga.population.max(2);
        let mut pop: Vec<SearchOutcome> = Vec::with_capacity(pop_size);
        for _ in 0..pop_size {
            if let Some(c) = self.random_candidate(10) {
                pop.push(c);
            }
        }
        if pop.is_empty() {
            return None;
        }
        sort_by_fitness(&mut pop);
        let mut best = pop[0].fitness;
        let mut stale = 0usize;
        // which searched input this GA round is producing (1-based, like
        // the pipeline's `search_input` events)
        let input_index = self.history.len() as u64;

        for gen in 0..self.ga.max_generations {
            if self.deadline.exceeded() {
                break; // out of budget: ship the fittest survivor
            }
            let evals_before = self.profiled_runs;
            // offspring via mutation
            let mut offspring: Vec<Vec<ParamValue>> = Vec::new();
            for c in &pop {
                if self.rng.random_range(0.0..1.0) < MUTATION_RATE {
                    offspring.push(mutate(self.model.spec(), &c.params, &mut self.rng));
                }
            }
            // offspring via crossover of two random parents
            if pop.len() >= 2 && self.rng.random_range(0.0..1.0) < CROSSOVER_RATE {
                let a = self.rng.random_range(0..pop.len());
                let mut b = self.rng.random_range(0..pop.len());
                if a == b {
                    b = (b + 1) % pop.len();
                }
                let (x, y) = crossover(&pop[a].params, &pop[b].params, &mut self.rng);
                offspring.push(x);
                offspring.push(y);
            }
            for params in offspring {
                if let Some(c) = self.evaluate(params) {
                    pop.push(c);
                }
            }
            // survival of the fittest
            sort_by_fitness(&mut pop);
            pop.truncate(pop_size);

            if trace::active() {
                let mean = pop.iter().map(|c| c.fitness).sum::<f64>() / pop.len() as f64;
                trace::emit(trace::Event::GaGeneration {
                    input_index,
                    generation: gen as u64,
                    best_fitness: pop[0].fitness,
                    mean_fitness: mean,
                    population: pop.len() as u64,
                    evals: self.profiled_runs - evals_before,
                });
            }

            if pop[0].fitness > best {
                best = pop[0].fitness;
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.ga.patience {
                    break;
                }
            }
        }

        pop.into_iter().next()
    }

    /// Blind random search (the Fig. 7 baseline): a single random valid
    /// input, no fitness guidance.
    pub fn next_random_input(&mut self) -> Option<SearchOutcome> {
        self.random_candidate(20)
    }

    /// Simulated-annealing search — the paper's future-work direction of
    /// "more efficient fuzzing algorithms and heuristics" (§X): a single
    /// mutation chain with temperature-controlled acceptance, spending a
    /// comparable evaluation budget to one GA round but without a
    /// population. Accepts downhill moves with probability
    /// `exp(Δ/T)`, geometric cooling.
    pub fn next_annealing_input(&mut self) -> Option<SearchOutcome> {
        let steps = (self.ga.population * self.ga.max_generations).max(4);
        let mut current = self.random_candidate(10)?;
        let mut best_params = current.params.clone();
        let mut best_fitness = current.fitness;

        // scale T0 to the starting fitness so acceptance is meaningful
        // for both raw and normalized fitness magnitudes
        let mut temp = (current.fitness.abs().max(1e-6)) * 0.5;
        let cooling = 0.85f64;

        for _ in 0..steps {
            if self.deadline.exceeded() {
                break; // out of budget: ship the best point seen
            }
            let proposal = mutate(self.model.spec(), &current.params, &mut self.rng);
            let Some(cand) = self.evaluate(proposal) else {
                continue; // invalid input: stay put
            };
            let delta = cand.fitness - current.fitness;
            let accept = delta >= 0.0 || {
                let p = (delta / temp.max(1e-12)).exp();
                self.rng.random_range(0.0..1.0) < p
            };
            if accept {
                current = cand;
                if current.fitness > best_fitness {
                    best_fitness = current.fitness;
                    best_params = current.params.clone();
                }
            }
            temp *= cooling;
        }

        // re-materialize the best point seen (the chain may have moved on)
        self.evaluate(best_params)
    }
}

/// Convenience wrapper used by experiments that only need the baseline.
pub fn random_searcher(
    module: &Module,
    model: &dyn InputModel,
    campaign: &CampaignConfig,
    seed: u64,
) -> Option<SearchOutcome> {
    let mut engine = SearchEngine::new(
        module,
        model,
        campaign.clone(),
        GaConfig {
            seed,
            ..GaConfig::default()
        },
    );
    engine.next_random_input()
}

fn sort_by_fitness(pop: &mut [SearchOutcome]) {
    pop.sort_by(|a, b| {
        b.fitness
            .partial_cmp(&a.fitness)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{ParamSpec, ParamValue};
    use crate::wcfg::profile_input;
    use minpsid_interp::Scalar;

    struct ToyModel {
        spec: Vec<ParamSpec>,
    }

    impl ToyModel {
        fn new() -> Self {
            ToyModel {
                spec: vec![ParamSpec::int("n", 1, 200)],
            }
        }
    }

    impl InputModel for ToyModel {
        fn spec(&self) -> &[ParamSpec] {
            &self.spec
        }

        fn materialize(&self, params: &[ParamValue]) -> ProgInput {
            ProgInput::scalars(vec![Scalar::I(params[0].as_i())])
        }

        fn reference(&self) -> Vec<ParamValue> {
            vec![ParamValue::I(10)]
        }
    }

    fn module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                for i = 0 to n { acc = acc + i; }
                out_i(acc);
            }
            "#,
            "search-test",
        )
        .unwrap()
    }

    #[test]
    fn ga_prefers_inputs_far_from_history() {
        let m = module();
        let model = ToyModel::new();
        let cfg = CampaignConfig::quick(1);
        let mut engine = SearchEngine::new(&m, &model, cfg.clone(), GaConfig::default());
        // history: the reference input n=10
        let ref_profile = profile_input(&m, &model.materialize(&model.reference()), &cfg).unwrap();
        engine.record_history(ref_profile.indexed_cfg_list());

        let got = engine.next_ga_input().expect("search succeeds");
        // the trip count of the chosen input should be far from 10 —
        // fitness is monotone in |n - 10| for this toy kernel
        let n = got.params[0].as_i();
        assert!(
            (n - 10).abs() > 40,
            "GA should wander far from the reference (n={n})"
        );
        assert!(got.fitness > 0.0);
    }

    #[test]
    fn annealing_finds_distant_inputs_and_is_deterministic() {
        let m = module();
        let model = ToyModel::new();
        let cfg = CampaignConfig::quick(6);
        let ref_list = profile_input(&m, &model.materialize(&model.reference()), &cfg)
            .unwrap()
            .indexed_cfg_list();
        let run = |seed: u64| {
            let mut e = SearchEngine::new(
                &m,
                &model,
                cfg.clone(),
                GaConfig {
                    seed,
                    population: 5,
                    max_generations: 4,
                    ..GaConfig::default()
                },
            );
            e.record_history(ref_list.clone());
            e.next_annealing_input().unwrap()
        };
        let a = run(3);
        assert!(a.fitness > 0.0);
        // annealing is a *local* ±10% mutation chain: it must end away
        // from the reference, but unlike the GA it cannot teleport across
        // the domain, so the bar is lower than the GA test's
        assert!(
            (a.params[0].as_i() - 10).abs() > 5,
            "annealing should drift away from the reference (n={})",
            a.params[0].as_i()
        );
        let b = run(3);
        assert_eq!(a.params, b.params, "deterministic given the seed");
    }

    #[test]
    fn random_searcher_returns_valid_inputs() {
        let m = module();
        let model = ToyModel::new();
        let cfg = CampaignConfig::quick(2);
        let got = random_searcher(&m, &model, &cfg, 7).unwrap();
        let n = got.params[0].as_i();
        assert!((1..=200).contains(&n));
    }

    #[test]
    fn search_is_deterministic_given_seed() {
        let m = module();
        let model = ToyModel::new();
        let cfg = CampaignConfig::quick(3);
        let ref_list = profile_input(&m, &model.materialize(&model.reference()), &cfg)
            .unwrap()
            .indexed_cfg_list();
        let run = |seed| {
            let mut e = SearchEngine::new(
                &m,
                &model,
                cfg.clone(),
                GaConfig {
                    seed,
                    ..GaConfig::default()
                },
            );
            e.record_history(ref_list.clone());
            e.next_ga_input().unwrap().params
        };
        assert_eq!(run(5), run(5));
    }

    /// Two parameters, one input: `noise` never reaches the program, and
    /// `n` is divided by four on the way, so candidates collide (every
    /// mutation of `noise` is a no-op on the input). The program divides by
    /// `n % 5`: one input in five traps, and those collide too.
    struct CollidingModel {
        spec: Vec<ParamSpec>,
        /// Candidates materialized to an input that traps.
        trapping: std::sync::atomic::AtomicU64,
    }

    impl InputModel for CollidingModel {
        fn spec(&self) -> &[ParamSpec] {
            &self.spec
        }

        fn materialize(&self, params: &[ParamValue]) -> ProgInput {
            let n = params[0].as_i() / 4;
            if n % 5 == 0 {
                self.trapping
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            ProgInput::scalars(vec![Scalar::I(n)])
        }

        fn reference(&self) -> Vec<ParamValue> {
            vec![ParamValue::I(44), ParamValue::I(0)]
        }
    }

    /// What a search did, as far as anything outside it can tell.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcomes: Vec<SearchOutcome>,
        profiled_runs: u64,
        memo_served: u64,
        generations: Vec<trace::Event>,
    }

    /// Three rounds of each strategy on one engine, with every
    /// `ga_generation` event the calling thread emitted (other tests of
    /// this binary may be searching on theirs).
    fn observe(engine: &mut SearchEngine<'_>) -> Observed {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (sink, me) = (seen.clone(), std::thread::current().id());
        trace::add_observer(move |e| {
            if std::thread::current().id() == me
                && matches!(e.event, trace::Event::GaGeneration { .. })
            {
                sink.lock().unwrap().push(e.event.clone());
            }
        });
        let mut outcomes = Vec::new();
        for round in 0..9 {
            let got = match round % 3 {
                0 => engine.next_ga_input(),
                1 => engine.next_annealing_input(),
                _ => engine.next_random_input(),
            }
            .expect("four inputs in five are valid");
            engine.record_history(got.cfg_list.clone());
            outcomes.push(got);
        }
        trace::shutdown().unwrap();
        let generations = std::mem::take(&mut *seen.lock().unwrap());
        assert!(!generations.is_empty(), "the observer saw the search");
        Observed {
            outcomes,
            profiled_runs: engine.profiled_runs,
            memo_served: engine.memo_served,
            generations,
        }
    }

    /// The engine's record of its own profile runs changes how many times
    /// the interpreter runs and nothing else: against an engine that
    /// forgets every run at once, the same accepted inputs, fitness bits,
    /// evaluation counts and trace events — on an input space where
    /// candidates collide and where one input in five errors out.
    #[test]
    fn remembered_profile_runs_change_nothing_observable() {
        let m = minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 100 / (n % 5);
                for i = 0 to n { if i % 3 == 0 { acc = acc + i; } }
                out_i(acc);
            }
            "#,
            "search-memo-test",
        )
        .unwrap();
        let model = CollidingModel {
            spec: vec![
                ParamSpec::int("n", 4, 400),
                ParamSpec::int("noise", 0, 1000),
            ],
            trapping: Default::default(),
        };
        let cfg = CampaignConfig::quick(1);
        let ga = GaConfig {
            population: 7,
            seed: 9,
            ..GaConfig::default()
        };
        let ref_list = profile_input(&m, &model.materialize(&model.reference()), &cfg)
            .unwrap()
            .indexed_cfg_list();
        let run = |bypass: bool| {
            let mut e = SearchEngine::new(&m, &model, cfg.clone(), ga.clone());
            e.bypass_profiled = bypass;
            e.record_history(ref_list.clone());
            (observe(&mut e), e.deduped)
        };
        let (remembering, deduped) = run(false);
        let (forgetting, none) = run(true);
        assert_eq!(remembering, forgetting);
        assert_eq!(none, 0);
        assert!(deduped > 20, "only {deduped} evaluations repeated an input");
        // both kinds of entry were hit: `n / 4` has 20 trapping values, and
        // more candidates than that (over both runs) materialized to one
        let trapping = model.trapping.load(std::sync::atomic::Ordering::Relaxed) / 2;
        assert!(trapping > 20, "only {trapping} candidates trapped");
        // a run this engine made itself carries its steps
        assert!(remembering.outcomes.iter().all(|o| o.steps.is_some()));
    }

    #[test]
    fn engine_counts_profiled_runs() {
        let m = module();
        let model = ToyModel::new();
        let cfg = CampaignConfig::quick(4);
        let ref_list = profile_input(&m, &model.materialize(&model.reference()), &cfg)
            .unwrap()
            .indexed_cfg_list();
        let mut e = SearchEngine::new(&m, &model, cfg, GaConfig::default());
        e.record_history(ref_list);
        let _ = e.next_ga_input();
        assert!(e.profiled_runs >= GaConfig::default().population as u64);
    }
}
