//! The repo benchmark: four MINPSID workloads driven through the crates'
//! public functions, end-to-end metrics from untraced passes, per-layer
//! metrics from a separate traced run. `README.md` says why each workload
//! and metric exists; `BENCHMARK.json` at the repo root is the contract.

pub mod fi_units;
pub mod incremental;
pub mod pipeline;
pub mod probes;
pub mod report;
pub mod selfcheck;
pub mod spans;
pub mod staged;
pub mod stats;
pub mod suite;

use pipeline::Kernel;
use report::{Ledger, Metrics};
use spans::Tracer;
use staged::Staged;
use std::time::Instant;

/// How much work a run does. `smoke` shrinks every workload to seconds
/// (for the test that compares emitted metric names with
/// `BENCHMARK.json`); its numbers mean nothing.
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// Set up several times and return the median seconds with the last
    /// state; `discard` gets every state a later one replaces. A set-up of
    /// milliseconds is repeated until a quarter second has been timed (at
    /// most 200 times), one of seconds three times or until ten seconds
    /// have gone into it, and any set-up at least twice.
    pub fn repeat_setup<T>(
        &self,
        mut setup: impl FnMut(usize) -> T,
        mut discard: impl FnMut(T),
    ) -> (f64, T) {
        let mut times = Vec::new();
        let mut total = 0.0;
        let mut state = None;
        loop {
            let t = Instant::now();
            let next = setup(times.len());
            times.push(t.elapsed().as_secs_f64());
            total += times[times.len() - 1];
            if let Some(old) = state.replace(next) {
                discard(old);
            }
            let n = times.len();
            let more = n < 2 || (n < 3 && total < 10.0) || (n < 200 && total < 0.25);
            if self.smoke || !more {
                break;
            }
        }
        (
            stats::median(&mut times),
            state.expect("set up at least once"),
        )
    }
}

/// Where a workload puts what it measures and checks.
pub struct Run {
    pub tracer: Tracer,
    pub ledger: Ledger,
    pub e2e: Metrics,
    pub layers: Metrics,
}

impl Run {
    pub fn new(traced: bool) -> Self {
        Run {
            tracer: Tracer::new(traced),
            ledger: Ledger::default(),
            e2e: Metrics::end_to_end(),
            layers: Metrics::per_layer(),
        }
    }

    /// Set `wall_s` and `injections_per_s` from the passes' segments:
    /// `passes[p][s]` is the seconds segment `s` (one pipeline call, or one
    /// kernel's unit loop) took in pass `p`.
    ///
    /// `wall_s` sums each segment's **fastest** time over the passes. On
    /// this kind of host a run is slowed by its neighbours for seconds at
    /// a time and never sped up, so the fastest time is the one nearest to
    /// what the code costs: over simulated runs of recorded timings the
    /// sum of fastest segments spread 6 % where the median pass spread 13 %.
    pub fn set_wall(&mut self, passes: &[Vec<f64>], injections_per_pass: u64) {
        let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        println!("# {} passes, wall seconds {walls:?}", passes.len());
        let wall_s = stats::sum_of_fastest(passes);
        self.e2e.set("wall_s", wall_s);
        self.e2e
            .set("injections_per_s", injections_per_pass as f64 / wall_s);
        // before the correctness checks, which run code no pass runs
        self.layers.set("bench.peak_rss_mb", peak_rss_mib());
    }
}

/// How long a run measures: passes repeat, back to back, while another
/// one still fits in `seconds`. A traced run times one pass, so that its
/// counts do not depend on the host's speed.
pub struct Budget {
    pub seconds: f64,
    pub one_pass: bool,
}

impl Budget {
    /// Whether to start another pass, `started` being when the first one
    /// began and `passes` the segment seconds of each pass so far. The
    /// first pass always runs.
    pub fn another_pass(&self, started: Instant, passes: &[Vec<f64>]) -> bool {
        match passes.last() {
            None => true,
            Some(last) => {
                let last: f64 = last.iter().sum();
                !self.one_pass && started.elapsed().as_secs_f64() + last <= self.seconds
            }
        }
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn set_sched(layers: &mut Metrics, s: &minpsid_faultsim::SchedSnapshot) {
    layers.set("sched.planned", s.planned as f64);
    layers.set("sched.completed", s.completed as f64);
    layers.set("sched.retries", s.retries as f64);
    layers.set("sched.early_stop_skipped", s.early_stop_skipped as f64);
    layers.set("sched.completeness", s.completeness());
}

pub fn add_outcomes(layers: &mut Metrics, o: &minpsid_faultsim::OutcomeCounts) {
    layers.add("faultsim.outcomes.benign", o.benign as f64);
    layers.add("faultsim.outcomes.sdc", o.sdc as f64);
    layers.add("faultsim.outcomes.crash", o.crash as f64);
    layers.add("faultsim.outcomes.hang", o.hang as f64);
    layers.add("faultsim.outcomes.detected", o.detected as f64);
}

/// What the staged replays of one traced pass counted, summed over kernels.
#[derive(Default)]
pub struct StagedTotals {
    sched: minpsid_faultsim::SchedSnapshot,
    tables: minpsid_faultsim::TableStatsSnapshot,
    coverage_sum: f64,
    kernels: u64,
}

impl StagedTotals {
    /// Check one kernel's staged replay (one ledger operation: its digest
    /// must equal `expected`, the untraced pipeline's) and fold its counts
    /// into the per-layer metrics.
    pub fn record(
        &mut self,
        k: &Kernel,
        staged: Result<Staged, String>,
        expected: Option<u64>,
        cache: &minpsid::GoldenCache,
        run: &mut Run,
    ) {
        let Run {
            tracer,
            ledger,
            layers,
            ..
        } = run;
        let s = match staged {
            Ok(s) => s,
            Err(e) => return ledger.record(Some(format!("{}: staged replay: {e}", k.name))),
        };
        let problem = tracer.time("bench.check", k.name, || {
            pipeline::check_result(k, &s.sched, s.digest, &s.protected, expected)
        });
        ledger.record(problem.map(|p| format!("staged replay: {p}")));
        self.sched.merge(&s.sched);
        if let Some(t) = &s.table_stats {
            self.tables.merge(t);
        }
        self.coverage_sum += s.expected_coverage;
        self.kernels += 1;
        add_outcomes(layers, &s.outcomes);
        layers.add("faultsim.units_planned", s.units_planned as f64);
        layers.add("faultsim.per_inst_injections", s.per_inst_injections as f64);
        layers.add("core.ga_evals", s.ga_evals as f64);
        layers.add("core.inputs_searched", s.inputs_searched as f64);
        layers.add("sid.selected", s.selected as f64);
        layers.add("core.cache_hits", cache.hits() as f64);
        layers.add("core.cache_misses", cache.misses() as f64);
        layers.add("core.cache_disk_hits", cache.disk_hits() as f64);
        // `Interp::new` runs once per GA evaluation (`profile_input`),
        // twice per computed golden run, once per campaign at one thread
        layers.add(
            "interp.decode_calls",
            (s.ga_evals + 2 * cache.misses() + s.campaigns) as f64,
        );
        probes::fitness(k.name, &s.history, s.ga_evals, tracer, layers);
    }

    /// Set the metrics that are totals or means over the kernels, and the
    /// per-stage seconds the spans add up to.
    pub fn finish(&self, tracer: &Tracer, layers: &mut Metrics) {
        set_sched(layers, &self.sched);
        let t = &self.tables;
        layers.set("faultsim.table_served", t.injections_served as f64);
        layers.set("faultsim.table_executed", t.injections_executed as f64);
        layers.set("faultsim.sections_hit", t.sections_hit as f64);
        layers.set("faultsim.sections_missed", t.sections_missed as f64);
        // served = not executed: by the journal (outcomes carried over an
        // edit) or by a sealed table; the journal answers first
        if self.sched.planned > 0 && *t != Default::default() {
            let executed = t.injections_executed as f64 / self.sched.planned as f64;
            layers.set("faultsim.served_share", 1.0 - executed);
        }
        layers.set(
            "sid.expected_coverage",
            self.coverage_sum / self.kernels.max(1) as f64,
        );
        let totals = spans::totals_by_name(tracer.spans());
        for (span, metric) in [
            ("core.golden", "faultsim.golden_s"),
            ("faultsim.plan", "faultsim.plan_s"),
            ("faultsim.per_inst", "faultsim.per_inst_s"),
            ("sid.cost_benefit", "sid.cost_benefit_s"),
            ("sid.select_protect", "sid.select_protect_s"),
        ] {
            layers.set(metric, totals.get(span).map_or(0.0, |t| t.0));
        }
    }
}

/// The Fig. 8 split and the per-kernel wall of one untraced pass, and the
/// split's shares printed with the run's header.
pub fn set_pass_timings(calls: &[pipeline::Call], kernels: &[Kernel], layers: &mut Metrics) {
    for (k, c) in kernels.iter().zip(calls) {
        layers.set(&format!("core.pipeline_s.{}", k.name), c.seconds);
        if let Ok(r) = &c.result {
            let t = &r.timings;
            layers.add("core.ref_fi_s", t.ref_fi.as_secs_f64());
            layers.add("core.incubative_fi_s", t.incubative_fi.as_secs_f64());
            layers.add("core.search_s", t.search.as_secs_f64());
            layers.add("core.other_s", t.other.as_secs_f64());
        }
    }
    let get = |name| layers.get(name).unwrap_or(0.0);
    let fi = get("core.ref_fi_s") + get("core.incubative_fi_s");
    let (search, other) = (get("core.search_s"), get("core.other_s"));
    let total = (fi + search + other).max(1e-9);
    println!(
        "# stage shares of the untraced pass: fi {:.3}, search {:.3}, other {:.4}",
        fi / total,
        search / total,
        other / total
    );
}

/// Top-level spans must cover this share of the traced wall, or the
/// per-layer seconds explain too little of it.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// `bench.trace_overhead_pct` and `bench.span_coverage` of a traced pass
/// that ran from `from_ns` until now, against the untraced pass's wall.
/// Coverage below [`MIN_SPAN_COVERAGE`] is a failed operation.
pub fn set_trace_quality(run: &mut Run, from_ns: u64, traced_s: f64, untraced_s: f64) {
    let Run {
        tracer,
        ledger,
        layers,
        ..
    } = run;
    layers.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    let coverage = spans::coverage(tracer.spans(), from_ns, tracer.now_ns());
    layers.set("bench.span_coverage", coverage);
    ledger.record(
        (coverage < MIN_SPAN_COVERAGE)
            .then(|| format!("spans cover {coverage:.3} of the traced wall")),
    );
}
