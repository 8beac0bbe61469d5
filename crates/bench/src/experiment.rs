//! The computation every experiment table is a view of. A [`Sweep`] holds,
//! for one (preset, seed), each kernel's baseline profile, each MINPSID
//! pass and each evaluation input's golden run and campaign on the original
//! program — computed lazily, at most once, keyed by module fingerprint and
//! configuration. Every coverage is read from those campaigns.

use crate::preset::Preset;
use minpsid::{
    input_fingerprint, minpsid_config_fingerprint, module_fingerprint, reference_profile,
    run_minpsid_from, GoldenCache, InputModel, MinpsidConfig, MinpsidResult, ParamValue, Reference,
};
use minpsid_faultsim::CampaignConfig;
use minpsid_interp::ProgInput;
use minpsid_ir::Module;
use minpsid_sid::transform::TransformMeta;
use minpsid_sid::{
    duplicate_module, measure_unprotected, select, CostBenefit, Selection, Unprotected,
};
use minpsid_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A benchmark with its profile, ready for per-level selection.
pub struct Prepared {
    pub module: Module,
    /// Baseline: the reference-input profile. MINPSID: the re-prioritized
    /// profile.
    pub cb: CostBenefit,
}

impl Prepared {
    /// The knapsack selection at one protection level and the coverage it
    /// promises.
    pub(crate) fn select(&self, level: f64) -> (Selection, f64) {
        select(&self.module, &self.cb, level, false)
    }

    /// [`Prepared::select`] and the transform: the protected module.
    pub fn protect(&self, level: f64) -> (Module, f64, TransformMeta) {
        let (selection, expected) = self.select(level);
        let (protected, meta) = duplicate_module(&self.module, &selection);
        (protected, expected, meta)
    }
}

/// One MINPSID run on one kernel. The profile is level-independent (only
/// the knapsack re-runs per level).
pub(crate) struct Pass {
    pub(crate) prepared: Prepared,
    pub(crate) result: MinpsidResult,
    /// The run's wall time, its reference profile's included.
    pub(crate) elapsed: Duration,
}

/// Coverage of one protected binary over the evaluation inputs.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Measured SDC coverage per evaluation input.
    pub coverage: Vec<f64>,
    /// The expected coverage the technique promised.
    pub expected: f64,
}

impl CoverageRow {
    /// Fraction of inputs whose measured coverage misses the expectation
    /// (the Table II / III / IV metric). `eps` absorbs campaign sampling
    /// noise — the paper's 1000-injection campaigns carry 0.26–3.1 %
    /// error bars (§III-A3), so a miss inside the error bar is not a loss.
    pub fn loss_fraction_with(&self, eps: f64) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        let losses = self
            .coverage
            .iter()
            .filter(|&&c| c + eps < self.expected)
            .count();
        losses as f64 / self.coverage.len() as f64
    }

    pub fn min(&self) -> f64 {
        self.coverage.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// How often a memo computed a value and how often it handed one back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub(crate) computed: u64,
    pub(crate) reused: u64,
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "{} run / {} reused", self.computed, self.reused)
    }
}

struct Memo<K, V> {
    map: HashMap<K, V>,
    tally: Tally,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo {
            map: HashMap::new(),
            tally: Tally::default(),
        }
    }

    fn get_or(&mut self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.map.get(&key) {
            self.tally.reused += 1;
            return v.clone();
        }
        self.tally.computed += 1;
        let v = compute();
        self.map.insert(key, v.clone());
        v
    }
}

/// Everything the experiment tables of one (preset, seed) measure.
pub struct Sweep {
    pub(crate) preset: Preset,
    pub(crate) seed: u64,
    pub(crate) campaign: CampaignConfig,
    /// Restrict the per-kernel tables to this kernel (`--bench`).
    only: Option<String>,
    /// By kernel ([`Sweep::profile`]), with the reference passes extend.
    baselines: Memo<(u64, u64), (Rc<Prepared>, Rc<Reference>)>,
    /// By kernel and config fingerprint.
    passes: Memo<(u64, u64, u64), Rc<Pass>>,
    /// By (module, input) fingerprint; `None` for an input the program
    /// rejects.
    unprotected: Memo<(u64, u64), Option<Rc<Unprotected>>>,
}

impl Sweep {
    pub fn new(preset: Preset, seed: u64, only: Option<String>) -> Sweep {
        Sweep {
            preset,
            seed,
            campaign: preset.campaign(seed),
            only,
            baselines: Memo::new(),
            passes: Memo::new(),
            unprotected: Memo::new(),
        }
    }

    /// Whether the per-kernel tables include `name`.
    pub(crate) fn selects(&self, name: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|only| name.eq_ignore_ascii_case(only))
    }

    /// The suite's kernels that [`Sweep::selects`].
    pub(crate) fn kernels(&self) -> Vec<Benchmark> {
        minpsid_workloads::suite()
            .into_iter()
            .filter(|b| self.selects(b.name))
            .collect()
    }

    /// `b`'s memo key (module and reference-input fingerprints: the threaded
    /// FFTs are one program under three input models), its baseline-SID
    /// profile, and the reference that profile is and its passes extend.
    fn profile(&mut self, b: &Benchmark) -> ((u64, u64), Rc<Prepared>, Rc<Reference>) {
        let module = b.compile();
        let ref_input = b.model.materialize(&b.model.reference());
        let key = (module_fingerprint(&module), input_fingerprint(&ref_input));
        let cfg = self.preset.minpsid_config(0.5, self.seed);
        let (prepared, reference) = self.baselines.get_or(key, || {
            eprintln!("[sweep] baseline profile: {}", b.name);
            let reference = reference_profile(&module, b.model.as_ref(), &cfg, &GoldenCache::new())
                .unwrap_or_else(|t| panic!("{}: reference input failed: {t:?}", b.name));
            let cb = reference.cb.clone();
            (Rc::new(Prepared { module, cb }), Rc::new(reference))
        });
        (key, prepared, reference)
    }

    /// The baseline-SID profile: the reference input only.
    pub(crate) fn baseline(&mut self, b: &Benchmark) -> Rc<Prepared> {
        self.profile(b).1
    }

    /// The MINPSID run of `b` under `cfg`, extending `b`'s baseline profile:
    /// `cfg.campaign` is the sweep's, as every `Preset::minpsid_config` is.
    pub(crate) fn pass(&mut self, b: &Benchmark, cfg: &MinpsidConfig) -> Rc<Pass> {
        let ((module_fp, input_fp), base, reference) = self.profile(b);
        let key = (module_fp, input_fp, minpsid_config_fingerprint(cfg));
        self.passes.get_or(key, || {
            eprintln!(
                "[sweep] minpsid pass: {} ({:?}, {:?})",
                b.name, cfg.strategy, cfg.ga.fitness
            );
            let t0 = Instant::now();
            let module = base.module.clone();
            let result = run_minpsid_from(&module, b.model.as_ref(), cfg, &reference)
                .unwrap_or_else(|t| panic!("{}: MINPSID failed: {t:?}", b.name));
            let elapsed = reference.elapsed + t0.elapsed();
            let cb = result.cost_benefit.clone();
            Rc::new(Pass {
                prepared: Prepared { module, cb },
                result,
                elapsed,
            })
        })
    }

    /// The MINPSID run at the 50 % level most tables share.
    pub(crate) fn pass_at_half(&mut self, b: &Benchmark) -> Rc<Pass> {
        let cfg = self.preset.minpsid_config(0.5, self.seed);
        self.pass(b, &cfg)
    }

    /// `prepared`'s selection at `level`, evaluated on the preset's count
    /// of *valid* random inputs drawn with `seed` (§III-A2 filters
    /// error-producing inputs).
    pub(crate) fn evaluate(
        &mut self,
        model: &dyn InputModel,
        prepared: &Prepared,
        level: f64,
        seed: u64,
    ) -> CoverageRow {
        let n = self.preset.eval_inputs();
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn = (0..10 * n + 20).map(|_| model.materialize(&model.random(&mut rng)));
        let (selection, expected) = prepared.select(level);
        let coverage = self.evaluate_on(&prepared.module, &selection, drawn, n);
        CoverageRow { coverage, expected }
    }

    /// Like [`Sweep::evaluate`], over a *fixed* list of inputs (the §VII
    /// case-study datasets).
    pub(crate) fn evaluate_fixed(
        &mut self,
        model: &dyn InputModel,
        prepared: &Prepared,
        level: f64,
        params_list: &[Vec<ParamValue>],
    ) -> CoverageRow {
        let inputs = params_list.iter().map(|params| model.materialize(params));
        let (selection, expected) = prepared.select(level);
        let coverage = self.evaluate_on(&prepared.module, &selection, inputs, params_list.len());
        CoverageRow { coverage, expected }
    }

    /// The measured coverage of `selection` on the first `n` of `inputs`
    /// that `original` accepts, each read from the input's one campaign on
    /// `original`.
    fn evaluate_on(
        &mut self,
        original: &Module,
        selection: &Selection,
        inputs: impl Iterator<Item = ProgInput>,
        n: usize,
    ) -> Vec<f64> {
        let orig_fp = module_fingerprint(original);
        let campaign = &self.campaign;
        inputs
            .filter_map(|input| {
                let key = (orig_fp, input_fingerprint(&input));
                let unprotected = self.unprotected.get_or(key, || {
                    measure_unprotected(original, &input, campaign)
                        .ok()
                        .map(Rc::new)
                })?;
                Some(unprotected.coverage(selection))
            })
            .take(n)
            .collect()
    }

    /// Computed/reused counts of the three memos, in the order baseline
    /// profiles, MINPSID passes, unprotected measurements.
    pub(crate) fn tallies(&self) -> [Tally; 3] {
        [
            self.baselines.tally,
            self.passes.tally,
            self.unprotected.tally,
        ]
    }

    /// One line of what the memos computed and reused.
    pub fn memo_report(&self) -> String {
        let [b, p, u] = self.tallies();
        format!("sweep memo: baseline profiles {b}, minpsid passes {p}, unprotected runs {u}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_prepare_and_protect_roundtrip() {
        let b = minpsid_workloads::by_name("pathfinder").unwrap();
        let mut sweep = Sweep::new(Preset::Tiny, 3, None);
        let prepared = sweep.baseline(&b);
        let (_, _, meta) = prepared.protect(0.5);
        assert!(meta.num_dups > 0);
        let row = sweep.evaluate(b.model.as_ref(), &prepared, 0.5, 9);
        assert!(row.expected > 0.0);
        assert_eq!(row.coverage.len(), Preset::Tiny.eval_inputs());
        assert!(row.coverage.iter().all(|c| (0.0..=1.0).contains(c)));
        // the same profile, at another level, on the same inputs: no
        // campaign runs again
        let again = sweep.baseline(&b);
        assert!(Rc::ptr_eq(&prepared, &again));
        sweep.evaluate(b.model.as_ref(), &prepared, 0.3, 9);
        let [base, _, unprot] = sweep.tallies();
        assert_eq!(
            base,
            Tally {
                computed: 1,
                reused: 1
            }
        );
        assert_eq!(unprot.reused, unprot.computed);
    }

    #[test]
    fn loss_fraction_counts_misses() {
        let row = CoverageRow {
            coverage: vec![0.9, 0.5, 0.95, 1.0],
            expected: 0.93,
        };
        assert_eq!(row.loss_fraction_with(0.0), 0.5);
        assert_eq!(row.min(), 0.5);
    }
}
