//! The metric catalogue, the operation ledger, and the result line.
//!
//! The catalogue here and `BENCHMARK.json` list the same metrics; the
//! `smoke` test compares them in both directions.

use minpsid_trace::json::Json;
use std::collections::BTreeMap;

/// The 11 kernels of `minpsid_workloads::suite()`, in suite order. Named
/// here so the catalogue is known before a kernel is compiled.
pub const KERNELS: [&str; 11] = [
    "xsbench",
    "hpccg",
    "fft",
    "knn",
    "pathfinder",
    "backprop",
    "bfs",
    "particlefilter",
    "kmeans",
    "lu",
    "needle",
];

/// The `fi_units` kernels: they span the 10x gap in per-injection cost.
pub const FI_KERNELS: [&str; 4] = ["hpccg", "kmeans", "fft", "bfs"];

pub const WORKLOADS: [&str; 4] = [
    "pipeline_suite",
    "search_heavy",
    "fi_units",
    "incremental_edit",
];

/// `(name, unit)` of every end-to-end metric; every workload reports all
/// of them on a `--trace 0` run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("injections_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric (layer = crate), reported on a
/// `--trace 1` run. A metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 68] = [
        ("minic.compile_s", "s"),
        ("minic.ir_insts", "count"),
        ("ir.fingerprint_s", "s"),
        ("ir.sections", "count"),
        ("interp.decode_s", "s"),
        ("interp.decode_calls", "count"),
        ("interp.profiled_steps_per_s", "1/s"),
        ("interp.clean_steps_per_s", "1/s"),
        ("interp.capture_s", "s"),
        ("interp.snapshots", "count"),
        ("interp.snapshot_bytes", "B"),
        ("interp.restore_us_p50", "us"),
        ("interp.restore_us_p99", "us"),
        ("interp.replay_us_p50", "us"),
        ("interp.replay_us_p99", "us"),
        ("interp.replay_steps_mean", "count"),
        ("interp.replay_skipped_share", "ratio"),
        ("interp.wire_encode_mb_s", "MB/s"),
        ("interp.wire_decode_mb_s", "MB/s"),
        ("faultsim.golden_s", "s"),
        ("faultsim.plan_s", "s"),
        ("faultsim.units_planned", "count"),
        ("faultsim.per_inst_s", "s"),
        ("faultsim.per_inst_injections", "count"),
        ("faultsim.classify_us_p50", "us"),
        ("faultsim.unit_us_p50", "us"),
        ("faultsim.unit_us_p99", "us"),
        ("faultsim.unit_samples", "count"),
        ("faultsim.outcomes.benign", "count"),
        ("faultsim.outcomes.sdc", "count"),
        ("faultsim.outcomes.crash", "count"),
        ("faultsim.outcomes.hang", "count"),
        ("faultsim.outcomes.detected", "count"),
        ("faultsim.table_served", "count"),
        ("faultsim.table_executed", "count"),
        ("faultsim.sections_hit", "count"),
        ("faultsim.sections_missed", "count"),
        ("faultsim.served_share", "ratio"),
        ("sched.planned", "count"),
        ("sched.completed", "count"),
        ("sched.retries", "count"),
        ("sched.early_stop_skipped", "count"),
        ("sched.completeness", "ratio"),
        ("journal.append_us", "us"),
        ("journal.sync_ms", "ms"),
        ("journal.wal_bytes", "B"),
        ("journal.appended", "count"),
        ("journal.recover_mb_s", "MB/s"),
        ("journal.served", "count"),
        ("store.publish_mb_s", "MB/s"),
        ("store.load_mb_s", "MB/s"),
        ("store.objects", "count"),
        ("store.bytes", "B"),
        ("core.ref_fi_s", "s"),
        ("core.incubative_fi_s", "s"),
        ("core.search_s", "s"),
        ("core.other_s", "s"),
        ("core.inputs_searched", "count"),
        ("core.fitness_s", "s"),
        ("core.ga_evals", "count"),
        ("core.cache_hits", "count"),
        ("core.cache_misses", "count"),
        ("core.cache_disk_hits", "count"),
        ("sid.cost_benefit_s", "s"),
        ("sid.select_protect_s", "s"),
        ("sid.selected", "count"),
        ("sid.expected_coverage", "ratio"),
        ("bench.span_coverage", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.push(("bench.trace_overhead_pct".into(), "%"));
    out.push(("bench.peak_rss_mb".into(), "MiB"));
    for k in FI_KERNELS {
        out.push((format!("faultsim.unit_us_p50.{k}"), "us"));
        out.push((format!("faultsim.unit_us_p99.{k}"), "us"));
    }
    for k in KERNELS {
        out.push((format!("core.pipeline_s.{k}"), "s"));
    }
    out
}

/// A metric or workload name the contract accepts: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Counts operations against failures. An operation is one pipeline call
/// or one sampled unit check; it fails on a panic, an `Err`, or any
/// correctness check not holding.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed, for the report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Record one operation; `problem` is `None` when every check held.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Process exit code: a run with a failed operation is not a result.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// Metric values by name. Setting a name outside the catalogue is a bug in
/// the benchmark, caught at once rather than by a name mismatch later.
pub struct Metrics {
    units: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::with(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        )
    }

    pub fn per_layer() -> Self {
        Self::with(per_layer())
    }

    fn with(decls: Vec<(String, &'static str)>) -> Self {
        Metrics {
            units: decls.into_iter().collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.units.contains_key(name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let prev = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, prev + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` of every catalogue metric; one the workload
    /// never set reads 0 (not exercised there).
    pub fn rows(&self) -> Vec<(&str, f64, &'static str)> {
        self.units
            .iter()
            .map(|(n, &u)| (n.as_str(), self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, value, unit) in self.rows() {
            let mut m = Json::obj();
            m.set("value", Json::F64(value));
            m.set("unit", Json::Str(unit.into()));
            o.set(name, m);
        }
        o
    }
}

/// The result: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(ledger: &Ledger, metrics: &Metrics) -> Json {
    let mut o = Json::obj();
    o.set("correct", Json::Bool(ledger.correct()));
    o.set("attempted", Json::U64(ledger.attempted));
    o.set("failed", Json::U64(ledger.failed));
    o.set("metrics", metrics.to_json());
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogue_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u));
        for (name, unit) in e2e.chain(per_layer()) {
            assert!(valid_name(&name), "bad metric name `{name}`");
            assert!(seen.insert(name.clone()), "duplicate metric `{name}`");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}` on `{name}`"
            );
        }
        assert!(per_layer().len() <= 128);
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
    }

    #[test]
    fn names_outside_the_contract_are_refused() {
        for bad in ["", ".x", "-x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "`{bad}` accepted");
        }
        for good in ["a", "9", "core.pipeline_s.fft", "A-b_c.9", &"x".repeat(64)] {
            assert!(valid_name(good), "`{good}` refused");
        }
    }

    #[test]
    fn a_failed_check_shows_in_failed_share_and_exit_code() {
        let mut ok = Ledger::default();
        ok.record(None);
        assert_eq!((ok.failed_share(), ok.exit_code()), (0.0, 0));
        assert!(ok.correct());

        // a digest that differs between two passes of one kernel
        let mut bad = Ledger::default();
        let (expected, got) = (0xfeed_u64, 0xbeef_u64);
        bad.record(None);
        bad.record((expected != got).then(|| format!("digest {got:#x} != {expected:#x}")));
        assert_eq!(bad.failed_share(), 0.5);
        assert_eq!(bad.exit_code(), 1);
        assert!(!bad.correct());
        assert!(result_json(&bad, &Metrics::end_to_end())
            .render()
            .contains("\"correct\":false"));

        // nothing attempted is not a correct run either
        assert_eq!(Ledger::default().exit_code(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut l = Ledger::default();
        l.record(None);
        let mut m = Metrics::end_to_end();
        m.set("wall_s", 1.25);
        let parsed = minpsid_trace::json::parse(&result_json(&l, &m).render()).unwrap();
        let Json::Object(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = parsed.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unknown_metric_panics() {
        Metrics::end_to_end().set("wal_s", 1.0);
    }
}
