//! The versioned trace event schema.
//!
//! Every JSONL line is one [`TimedEvent`]: `{"v":11,"ts_us":…,"kind":…,…}`.
//! `v` is [`SCHEMA_VERSION`]; the parser rejects lines whose version it
//! does not understand, so a report can never silently misparse a log
//! written by a different schema. Serialization is hand-rolled over
//! [`crate::json`] (no serde in the dependency budget) and round-trip
//! tested, both example-based and property-based.

use crate::json::{parse, Json, JsonError};

/// Version stamped into every line. Bump on any incompatible field change.
/// v2: outcome tallies carry `engine_error`, and the crash-safe journal
/// emits `journal_recovery`/`journal_stats` events.
/// v3: outcome tallies carry `transient_recovered`/`quarantined`, and the
/// resilient scheduler emits `retry_attempt`/`quarantine`/`early_stop`/
/// `deadline_truncation`/`sched_summary` events.
/// v4: the interpreter sampling profiler emits `interp_profile`, and the
/// engine wraps plan/execute/reduce (plus golden runs and checkpoint
/// capture) in span begin/end pairs so reports render a stage waterfall.
/// v5: `fleet_worker`/`fleet_shard`/`fleet_summary`, removed again in v9.
/// v6: the content-addressed artifact store emits `store_event`
/// (publish/load/quarantine/scrub per artifact class), and
/// `journal_recovery` carries `dropped_records` — the count of intact
/// suffix records lost to a checksum mismatch in the *middle* of the WAL
/// (0 for a plain torn tail).
/// v7: incremental campaigns emit `section_event` — per-section outcome
/// table dispositions (hit/miss/recompute) and the final compose step.
/// v8: `campaign_end` carries `deduped` — per-instruction injections that
/// repeated a fault already run at their site and took its outcome — and
/// `converged`/`steps_saved`, optional within v7, are required.
/// v9: the three v5 kinds are gone with the executor that emitted them; a
/// log holding one is an unknown kind.
/// v10: `retry_attempt`/`quarantine`, the tallies' `engine_error`/
/// `transient_recovered`/`quarantined` and `sched_summary`'s retry and
/// quarantine fields are gone with the retry loop that fed them.
/// v11: `campaign_end` carries `hangs_proved` — injections stopped once a
/// counted loop of theirs provably repeated itself to the step limit.
pub const SCHEMA_VERSION: u32 = 11;

/// Which campaign shape produced a progress/end event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Whole-program campaign (`program_campaign`).
    Program,
    /// Per-static-instruction campaign (`per_instruction_campaign`).
    PerInst,
}

impl CampaignKind {
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignKind::Program => "program",
            CampaignKind::PerInst => "per_inst",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "program" => Some(CampaignKind::Program),
            "per_inst" => Some(CampaignKind::PerInst),
            _ => None,
        }
    }
}

/// FI outcome tallies carried by campaign events (mirrors
/// `minpsid_faultsim::OutcomeCounts`, re-declared here so the trace crate
/// sits at the bottom of the dependency graph).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    pub benign: u64,
    pub sdc: u64,
    pub crash: u64,
    pub hang: u64,
    pub detected: u64,
}

impl OutcomeTally {
    pub fn total(&self) -> u64 {
        self.benign + self.sdc + self.crash + self.hang + self.detected
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.set("benign", Json::U64(self.benign));
        o.set("sdc", Json::U64(self.sdc));
        o.set("crash", Json::U64(self.crash));
        o.set("hang", Json::U64(self.hang));
        o.set("detected", Json::U64(self.detected));
        o
    }

    fn from_json(v: &Json) -> Result<Self, SchemaError> {
        Ok(OutcomeTally {
            benign: field_u64(v, "benign")?,
            sdc: field_u64(v, "sdc")?,
            crash: field_u64(v, "crash")?,
            hang: field_u64(v, "hang")?,
            detected: field_u64(v, "detected")?,
        })
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First line of every trace: identifies the producing tool.
    TraceStart { tool: String },
    /// Last line written by a clean shutdown.
    TraceEnd { dur_us: u64 },
    /// A named stage began. `id` pairs it with its `SpanEnd`.
    SpanBegin { id: u64, name: String },
    /// A named stage finished after `dur_us` microseconds.
    SpanEnd { id: u64, name: String, dur_us: u64 },
    /// A monotonic counter sample.
    Counter { name: String, value: u64 },
    /// A power-of-two-bucketed histogram snapshot: `(bucket_lo, count)`
    /// pairs for the non-empty buckets.
    Histogram {
        name: String,
        buckets: Vec<(u64, u64)>,
    },
    /// Periodic mid-campaign sample taken from the workers' lock-free
    /// counters by the sampler thread.
    CampaignProgress {
        kind: CampaignKind,
        done: u64,
        total: u64,
        counts: OutcomeTally,
        elapsed_us: u64,
    },
    /// Campaign summary: final outcome tallies plus checkpoint-restore
    /// accounting (dynamic steps actually executed vs skipped by resuming
    /// from golden-run snapshots) and golden-convergence accounting
    /// (`converged` injections were finished early at a checkpoint where
    /// their state equalled the golden run's, leaving `steps_saved` tail
    /// steps unreplayed; `hangs_proved` injections were stopped once a
    /// counted loop of theirs provably repeated itself to the step limit,
    /// their steps after the proof in neither step tally; `deduped`
    /// injections repeated a fault already run at their site and were not
    /// replayed at all).
    CampaignEnd {
        kind: CampaignKind,
        injections: u64,
        elapsed_us: u64,
        counts: OutcomeTally,
        steps_executed: u64,
        steps_skipped: u64,
        restores: u64,
        converged: u64,
        steps_saved: u64,
        hangs_proved: u64,
        deduped: u64,
    },
    /// Per-function outcome distribution of a per-instruction campaign.
    FunctionOutcomes { func: String, counts: OutcomeTally },
    /// One GA generation inside an input search.
    GaGeneration {
        /// How many inputs were already in the search history when this
        /// GA round started (0 = the round that produced input #1).
        input_index: u64,
        generation: u64,
        best_fitness: f64,
        mean_fitness: f64,
        population: u64,
        evals: u64,
    },
    /// One accepted search input, after its FI campaign.
    SearchInput {
        index: u64,
        fitness: f64,
        new_incubative: u64,
        total_incubative: u64,
    },
    /// Knapsack selection summary (budget in dynamic cycles).
    Knapsack {
        budget: u64,
        total_cycles: u64,
        eligible: u64,
        selected: u64,
        protected_cycle_fraction: f64,
        expected_coverage: f64,
    },
    /// Golden-run cache tallies.
    CacheStats {
        hits: u64,
        misses: u64,
        entries: u64,
    },
    /// Crash-safe journal opened: how much prior state was recovered and
    /// how many bytes of torn/corrupt tail were truncated.
    /// `dropped_records` counts intact-looking records found *after* the
    /// first corrupt frame: nonzero means mid-file corruption (bit rot),
    /// not an ordinary torn tail, and those records will be recomputed.
    JournalRecovery {
        records: u64,
        truncated_bytes: u64,
        dropped_records: u64,
    },
    /// End-of-run journal usage: injections served from the journal
    /// (recovered) vs executed fresh and appended (replayed).
    JournalStats { recovered: u64, appended: u64 },
    /// A site's Wilson interval narrowed below the configured half-width
    /// after `samples` injections; the rest were skipped.
    EarlyStop {
        kind: CampaignKind,
        site: u64,
        samples: u64,
        half_width: f64,
    },
    /// The wall-clock deadline expired with `truncated` injections still
    /// pending in this campaign.
    DeadlineTruncation { kind: CampaignKind, truncated: u64 },
    /// Accumulated interpreter sampling-profiler state: per-op sample
    /// counts (descending), fusion coverage, and checkpoint
    /// encode/restore cost totals. Emitted once at shutdown when the
    /// profiler ran.
    InterpProfile {
        sample_every: u64,
        total_samples: u64,
        fused_samples: u64,
        fused_sites: u64,
        total_sites: u64,
        encode_ns: u64,
        encode_ops: u64,
        restore_ns: u64,
        restore_ops: u64,
        /// `(op name, samples)` pairs, nonzero only.
        samples: Vec<(String, u64)>,
    },
    /// Run-level scheduler accounting, emitted once at the end.
    SchedSummary {
        early_stopped_sites: u64,
        early_stop_skipped: u64,
        truncated: u64,
        completeness: f64,
    },
    /// Artifact-store operation. `op` is one of `publish`, `load`,
    /// `quarantine`, `chaos_flip`, `scrub`, `gc`; `artifact` is the
    /// artifact class (`golden`, `ckpt`, `table`, `wal`, …— `*` for
    /// store-wide ops); `bytes` is the object size (for `scrub`/`gc`,
    /// the number of objects examined).
    StoreEvent {
        op: String,
        artifact: String,
        bytes: u64,
    },
    /// Per-section outcome-table disposition in an incremental campaign.
    /// `fp` is the section's content fingerprint; `units` is the number
    /// of memoized injection outcomes involved (served outcomes for
    /// `hit`, composed sections for `compose`, 0 for `miss`/`recompute`).
    SectionEvent {
        fp: u64,
        action: SectionAction,
        units: u64,
    },
}

/// How the table memo disposed of one section (or, for `Compose`, how the
/// reducer assembled the campaign report from per-section tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionAction {
    /// A sealed, complete table matched and its outcomes were served.
    Hit,
    /// No usable table: absent, stale signature, or sealed incomplete.
    Miss,
    /// The table failed store verification, was quarantined, and the
    /// section re-ran.
    Recompute,
    /// The reducer composed per-section results into the final report.
    Compose,
}

impl SectionAction {
    pub fn as_str(self) -> &'static str {
        match self {
            SectionAction::Hit => "hit",
            SectionAction::Miss => "miss",
            SectionAction::Recompute => "recompute",
            SectionAction::Compose => "compose",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(SectionAction::Hit),
            "miss" => Some(SectionAction::Miss),
            "recompute" => Some(SectionAction::Recompute),
            "compose" => Some(SectionAction::Compose),
            _ => None,
        }
    }
}

impl Event {
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TraceStart { .. } => "trace_start",
            Event::TraceEnd { .. } => "trace_end",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Counter { .. } => "counter",
            Event::Histogram { .. } => "histogram",
            Event::CampaignProgress { .. } => "campaign_progress",
            Event::CampaignEnd { .. } => "campaign_end",
            Event::FunctionOutcomes { .. } => "function_outcomes",
            Event::GaGeneration { .. } => "ga_generation",
            Event::SearchInput { .. } => "search_input",
            Event::Knapsack { .. } => "knapsack",
            Event::CacheStats { .. } => "cache_stats",
            Event::JournalRecovery { .. } => "journal_recovery",
            Event::JournalStats { .. } => "journal_stats",
            Event::EarlyStop { .. } => "early_stop",
            Event::DeadlineTruncation { .. } => "deadline_truncation",
            Event::InterpProfile { .. } => "interp_profile",
            Event::SchedSummary { .. } => "sched_summary",
            Event::StoreEvent { .. } => "store_event",
            Event::SectionEvent { .. } => "section_event",
        }
    }
}

/// An event plus its timestamp (microseconds since trace start).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    pub ts_us: u64,
    pub event: Event,
}

/// Schema-level (as opposed to JSON-level) decode failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    Json(JsonError),
    /// The line's `v` is not [`SCHEMA_VERSION`].
    Version(u64),
    UnknownKind(String),
    MissingField(&'static str),
    BadField(&'static str),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "{e}"),
            SchemaError::Version(v) => {
                write!(
                    f,
                    "schema version {v} (this analyzer reads {SCHEMA_VERSION})"
                )
            }
            SchemaError::UnknownKind(k) => write!(f, "unknown event kind `{k}`"),
            SchemaError::MissingField(k) => write!(f, "missing field `{k}`"),
            SchemaError::BadField(k) => write!(f, "malformed field `{k}`"),
        }
    }
}

impl std::error::Error for SchemaError {}

fn field<'a>(v: &'a Json, key: &'static str) -> Result<&'a Json, SchemaError> {
    v.get(key).ok_or(SchemaError::MissingField(key))
}

fn field_u64(v: &Json, key: &'static str) -> Result<u64, SchemaError> {
    field(v, key)?.as_u64().ok_or(SchemaError::BadField(key))
}

fn field_f64(v: &Json, key: &'static str) -> Result<f64, SchemaError> {
    field(v, key)?.as_f64().ok_or(SchemaError::BadField(key))
}

fn field_str(v: &Json, key: &'static str) -> Result<String, SchemaError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(SchemaError::BadField(key))
}

fn field_kind(v: &Json) -> Result<CampaignKind, SchemaError> {
    CampaignKind::from_str(&field_str(v, "campaign")?).ok_or(SchemaError::BadField("campaign"))
}

impl TimedEvent {
    /// Serialize as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = Json::obj();
        o.set("v", Json::U64(SCHEMA_VERSION as u64));
        o.set("ts_us", Json::U64(self.ts_us));
        o.set("kind", Json::Str(self.event.kind().to_string()));
        match &self.event {
            Event::TraceStart { tool } => o.set("tool", Json::Str(tool.clone())),
            Event::TraceEnd { dur_us } => o.set("dur_us", Json::U64(*dur_us)),
            Event::SpanBegin { id, name } => {
                o.set("id", Json::U64(*id));
                o.set("name", Json::Str(name.clone()));
            }
            Event::SpanEnd { id, name, dur_us } => {
                o.set("id", Json::U64(*id));
                o.set("name", Json::Str(name.clone()));
                o.set("dur_us", Json::U64(*dur_us));
            }
            Event::Counter { name, value } => {
                o.set("name", Json::Str(name.clone()));
                o.set("value", Json::U64(*value));
            }
            Event::Histogram { name, buckets } => {
                o.set("name", Json::Str(name.clone()));
                o.set(
                    "buckets",
                    Json::Array(
                        buckets
                            .iter()
                            .map(|&(lo, n)| Json::Array(vec![Json::U64(lo), Json::U64(n)]))
                            .collect(),
                    ),
                );
            }
            Event::CampaignProgress {
                kind,
                done,
                total,
                counts,
                elapsed_us,
            } => {
                o.set("campaign", Json::Str(kind.as_str().to_string()));
                o.set("done", Json::U64(*done));
                o.set("total", Json::U64(*total));
                o.set("counts", counts.to_json());
                o.set("elapsed_us", Json::U64(*elapsed_us));
            }
            Event::CampaignEnd {
                kind,
                injections,
                elapsed_us,
                counts,
                steps_executed,
                steps_skipped,
                restores,
                converged,
                steps_saved,
                hangs_proved,
                deduped,
            } => {
                o.set("campaign", Json::Str(kind.as_str().to_string()));
                o.set("injections", Json::U64(*injections));
                o.set("elapsed_us", Json::U64(*elapsed_us));
                o.set("counts", counts.to_json());
                o.set("steps_executed", Json::U64(*steps_executed));
                o.set("steps_skipped", Json::U64(*steps_skipped));
                o.set("restores", Json::U64(*restores));
                o.set("converged", Json::U64(*converged));
                o.set("steps_saved", Json::U64(*steps_saved));
                o.set("hangs_proved", Json::U64(*hangs_proved));
                o.set("deduped", Json::U64(*deduped));
            }
            Event::FunctionOutcomes { func, counts } => {
                o.set("func", Json::Str(func.clone()));
                o.set("counts", counts.to_json());
            }
            Event::GaGeneration {
                input_index,
                generation,
                best_fitness,
                mean_fitness,
                population,
                evals,
            } => {
                o.set("input_index", Json::U64(*input_index));
                o.set("generation", Json::U64(*generation));
                o.set("best_fitness", Json::F64(*best_fitness));
                o.set("mean_fitness", Json::F64(*mean_fitness));
                o.set("population", Json::U64(*population));
                o.set("evals", Json::U64(*evals));
            }
            Event::SearchInput {
                index,
                fitness,
                new_incubative,
                total_incubative,
            } => {
                o.set("index", Json::U64(*index));
                o.set("fitness", Json::F64(*fitness));
                o.set("new_incubative", Json::U64(*new_incubative));
                o.set("total_incubative", Json::U64(*total_incubative));
            }
            Event::Knapsack {
                budget,
                total_cycles,
                eligible,
                selected,
                protected_cycle_fraction,
                expected_coverage,
            } => {
                o.set("budget", Json::U64(*budget));
                o.set("total_cycles", Json::U64(*total_cycles));
                o.set("eligible", Json::U64(*eligible));
                o.set("selected", Json::U64(*selected));
                o.set(
                    "protected_cycle_fraction",
                    Json::F64(*protected_cycle_fraction),
                );
                o.set("expected_coverage", Json::F64(*expected_coverage));
            }
            Event::CacheStats {
                hits,
                misses,
                entries,
            } => {
                o.set("hits", Json::U64(*hits));
                o.set("misses", Json::U64(*misses));
                o.set("entries", Json::U64(*entries));
            }
            Event::JournalRecovery {
                records,
                truncated_bytes,
                dropped_records,
            } => {
                o.set("records", Json::U64(*records));
                o.set("truncated_bytes", Json::U64(*truncated_bytes));
                o.set("dropped_records", Json::U64(*dropped_records));
            }
            Event::JournalStats {
                recovered,
                appended,
            } => {
                o.set("recovered", Json::U64(*recovered));
                o.set("appended", Json::U64(*appended));
            }
            Event::EarlyStop {
                kind,
                site,
                samples,
                half_width,
            } => {
                o.set("campaign", Json::Str(kind.as_str().to_string()));
                o.set("site", Json::U64(*site));
                o.set("samples", Json::U64(*samples));
                o.set("half_width", Json::F64(*half_width));
            }
            Event::DeadlineTruncation { kind, truncated } => {
                o.set("campaign", Json::Str(kind.as_str().to_string()));
                o.set("truncated", Json::U64(*truncated));
            }
            Event::InterpProfile {
                sample_every,
                total_samples,
                fused_samples,
                fused_sites,
                total_sites,
                encode_ns,
                encode_ops,
                restore_ns,
                restore_ops,
                samples,
            } => {
                o.set("sample_every", Json::U64(*sample_every));
                o.set("total_samples", Json::U64(*total_samples));
                o.set("fused_samples", Json::U64(*fused_samples));
                o.set("fused_sites", Json::U64(*fused_sites));
                o.set("total_sites", Json::U64(*total_sites));
                o.set("encode_ns", Json::U64(*encode_ns));
                o.set("encode_ops", Json::U64(*encode_ops));
                o.set("restore_ns", Json::U64(*restore_ns));
                o.set("restore_ops", Json::U64(*restore_ops));
                o.set(
                    "samples",
                    Json::Array(
                        samples
                            .iter()
                            .map(|(name, n)| {
                                Json::Array(vec![Json::Str(name.clone()), Json::U64(*n)])
                            })
                            .collect(),
                    ),
                );
            }
            Event::SchedSummary {
                early_stopped_sites,
                early_stop_skipped,
                truncated,
                completeness,
            } => {
                o.set("early_stopped_sites", Json::U64(*early_stopped_sites));
                o.set("early_stop_skipped", Json::U64(*early_stop_skipped));
                o.set("truncated", Json::U64(*truncated));
                o.set("completeness", Json::F64(*completeness));
            }
            Event::StoreEvent {
                op,
                artifact,
                bytes,
            } => {
                o.set("op", Json::Str(op.clone()));
                o.set("artifact", Json::Str(artifact.clone()));
                o.set("bytes", Json::U64(*bytes));
            }
            Event::SectionEvent { fp, action, units } => {
                o.set("fp", Json::U64(*fp));
                o.set("action", Json::Str(action.as_str().to_string()));
                o.set("units", Json::U64(*units));
            }
        }
        o.render()
    }

    /// Parse one JSONL line. Strict: unknown versions, unknown kinds, and
    /// missing/malformed fields are all errors.
    pub fn parse_line(line: &str) -> Result<TimedEvent, SchemaError> {
        let v = parse(line.trim()).map_err(SchemaError::Json)?;
        let version = field_u64(&v, "v")?;
        if version != SCHEMA_VERSION as u64 {
            return Err(SchemaError::Version(version));
        }
        let ts_us = field_u64(&v, "ts_us")?;
        let kind = field_str(&v, "kind")?;
        let event = match kind.as_str() {
            "trace_start" => Event::TraceStart {
                tool: field_str(&v, "tool")?,
            },
            "trace_end" => Event::TraceEnd {
                dur_us: field_u64(&v, "dur_us")?,
            },
            "span_begin" => Event::SpanBegin {
                id: field_u64(&v, "id")?,
                name: field_str(&v, "name")?,
            },
            "span_end" => Event::SpanEnd {
                id: field_u64(&v, "id")?,
                name: field_str(&v, "name")?,
                dur_us: field_u64(&v, "dur_us")?,
            },
            "counter" => Event::Counter {
                name: field_str(&v, "name")?,
                value: field_u64(&v, "value")?,
            },
            "histogram" => {
                let raw = field(&v, "buckets")?
                    .as_array()
                    .ok_or(SchemaError::BadField("buckets"))?;
                let mut buckets = Vec::with_capacity(raw.len());
                for pair in raw {
                    let pair = pair.as_array().ok_or(SchemaError::BadField("buckets"))?;
                    match pair {
                        [lo, n] => buckets.push((
                            lo.as_u64().ok_or(SchemaError::BadField("buckets"))?,
                            n.as_u64().ok_or(SchemaError::BadField("buckets"))?,
                        )),
                        _ => return Err(SchemaError::BadField("buckets")),
                    }
                }
                Event::Histogram {
                    name: field_str(&v, "name")?,
                    buckets,
                }
            }
            "campaign_progress" => Event::CampaignProgress {
                kind: field_kind(&v)?,
                done: field_u64(&v, "done")?,
                total: field_u64(&v, "total")?,
                counts: OutcomeTally::from_json(field(&v, "counts")?)?,
                elapsed_us: field_u64(&v, "elapsed_us")?,
            },
            "campaign_end" => Event::CampaignEnd {
                kind: field_kind(&v)?,
                injections: field_u64(&v, "injections")?,
                elapsed_us: field_u64(&v, "elapsed_us")?,
                counts: OutcomeTally::from_json(field(&v, "counts")?)?,
                steps_executed: field_u64(&v, "steps_executed")?,
                steps_skipped: field_u64(&v, "steps_skipped")?,
                restores: field_u64(&v, "restores")?,
                converged: field_u64(&v, "converged")?,
                steps_saved: field_u64(&v, "steps_saved")?,
                hangs_proved: field_u64(&v, "hangs_proved")?,
                deduped: field_u64(&v, "deduped")?,
            },
            "function_outcomes" => Event::FunctionOutcomes {
                func: field_str(&v, "func")?,
                counts: OutcomeTally::from_json(field(&v, "counts")?)?,
            },
            "ga_generation" => Event::GaGeneration {
                input_index: field_u64(&v, "input_index")?,
                generation: field_u64(&v, "generation")?,
                best_fitness: field_f64(&v, "best_fitness")?,
                mean_fitness: field_f64(&v, "mean_fitness")?,
                population: field_u64(&v, "population")?,
                evals: field_u64(&v, "evals")?,
            },
            "search_input" => Event::SearchInput {
                index: field_u64(&v, "index")?,
                fitness: field_f64(&v, "fitness")?,
                new_incubative: field_u64(&v, "new_incubative")?,
                total_incubative: field_u64(&v, "total_incubative")?,
            },
            "knapsack" => Event::Knapsack {
                budget: field_u64(&v, "budget")?,
                total_cycles: field_u64(&v, "total_cycles")?,
                eligible: field_u64(&v, "eligible")?,
                selected: field_u64(&v, "selected")?,
                protected_cycle_fraction: field_f64(&v, "protected_cycle_fraction")?,
                expected_coverage: field_f64(&v, "expected_coverage")?,
            },
            "cache_stats" => Event::CacheStats {
                hits: field_u64(&v, "hits")?,
                misses: field_u64(&v, "misses")?,
                entries: field_u64(&v, "entries")?,
            },
            "journal_recovery" => Event::JournalRecovery {
                records: field_u64(&v, "records")?,
                truncated_bytes: field_u64(&v, "truncated_bytes")?,
                dropped_records: field_u64(&v, "dropped_records")?,
            },
            "journal_stats" => Event::JournalStats {
                recovered: field_u64(&v, "recovered")?,
                appended: field_u64(&v, "appended")?,
            },
            "early_stop" => Event::EarlyStop {
                kind: field_kind(&v)?,
                site: field_u64(&v, "site")?,
                samples: field_u64(&v, "samples")?,
                half_width: field_f64(&v, "half_width")?,
            },
            "deadline_truncation" => Event::DeadlineTruncation {
                kind: field_kind(&v)?,
                truncated: field_u64(&v, "truncated")?,
            },
            "interp_profile" => {
                let raw = field(&v, "samples")?
                    .as_array()
                    .ok_or(SchemaError::BadField("samples"))?;
                let mut samples = Vec::with_capacity(raw.len());
                for pair in raw {
                    let pair = pair.as_array().ok_or(SchemaError::BadField("samples"))?;
                    match pair {
                        [name, n] => samples.push((
                            name.as_str()
                                .ok_or(SchemaError::BadField("samples"))?
                                .to_string(),
                            n.as_u64().ok_or(SchemaError::BadField("samples"))?,
                        )),
                        _ => return Err(SchemaError::BadField("samples")),
                    }
                }
                Event::InterpProfile {
                    sample_every: field_u64(&v, "sample_every")?,
                    total_samples: field_u64(&v, "total_samples")?,
                    fused_samples: field_u64(&v, "fused_samples")?,
                    fused_sites: field_u64(&v, "fused_sites")?,
                    total_sites: field_u64(&v, "total_sites")?,
                    encode_ns: field_u64(&v, "encode_ns")?,
                    encode_ops: field_u64(&v, "encode_ops")?,
                    restore_ns: field_u64(&v, "restore_ns")?,
                    restore_ops: field_u64(&v, "restore_ops")?,
                    samples,
                }
            }
            "sched_summary" => Event::SchedSummary {
                early_stopped_sites: field_u64(&v, "early_stopped_sites")?,
                early_stop_skipped: field_u64(&v, "early_stop_skipped")?,
                truncated: field_u64(&v, "truncated")?,
                completeness: field_f64(&v, "completeness")?,
            },
            "store_event" => Event::StoreEvent {
                op: field_str(&v, "op")?,
                artifact: field_str(&v, "artifact")?,
                bytes: field_u64(&v, "bytes")?,
            },
            "section_event" => Event::SectionEvent {
                fp: field_u64(&v, "fp")?,
                action: SectionAction::from_str(&field_str(&v, "action")?)
                    .ok_or(SchemaError::BadField("action"))?,
                units: field_u64(&v, "units")?,
            },
            other => return Err(SchemaError::UnknownKind(other.to_string())),
        };
        Ok(TimedEvent { ts_us, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(ev: Event) {
        let t = TimedEvent {
            ts_us: 123,
            event: ev,
        };
        let line = t.to_line();
        let back = TimedEvent::parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, t, "line: {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        rt(Event::TraceStart {
            tool: "minpsid 0.1".into(),
        });
        rt(Event::TraceEnd { dur_us: 9 });
        rt(Event::SpanBegin {
            id: 1,
            name: "ref_fi".into(),
        });
        rt(Event::SpanEnd {
            id: 1,
            name: "ref_fi".into(),
            dur_us: 42,
        });
        rt(Event::Counter {
            name: "cache.hits".into(),
            value: u64::MAX,
        });
        rt(Event::Histogram {
            name: "restore.suffix_steps".into(),
            buckets: vec![(0, 3), (1024, 17)],
        });
        rt(Event::CampaignProgress {
            kind: CampaignKind::Program,
            done: 10,
            total: 100,
            counts: OutcomeTally {
                benign: 5,
                sdc: 2,
                crash: 1,
                hang: 1,
                detected: 1,
            },
            elapsed_us: 7,
        });
        rt(Event::CampaignEnd {
            kind: CampaignKind::PerInst,
            injections: 100,
            elapsed_us: 88,
            counts: OutcomeTally {
                benign: 90,
                sdc: 10,
                ..OutcomeTally::default()
            },
            steps_executed: 1000,
            steps_skipped: 5000,
            restores: 99,
            converged: 12,
            steps_saved: 3400,
            hangs_proved: 3,
            deduped: 5,
        });
        rt(Event::FunctionOutcomes {
            func: "main".into(),
            counts: OutcomeTally {
                sdc: 3,
                ..OutcomeTally::default()
            },
        });
        rt(Event::GaGeneration {
            input_index: 2,
            generation: 4,
            best_fitness: 12.5,
            mean_fitness: 3.25,
            population: 10,
            evals: 14,
        });
        rt(Event::SearchInput {
            index: 3,
            fitness: 0.5,
            new_incubative: 2,
            total_incubative: 7,
        });
        rt(Event::Knapsack {
            budget: 500,
            total_cycles: 1000,
            eligible: 80,
            selected: 40,
            protected_cycle_fraction: 0.5,
            expected_coverage: 0.875,
        });
        rt(Event::CacheStats {
            hits: 4,
            misses: 2,
            entries: 2,
        });
        rt(Event::JournalRecovery {
            records: 321,
            truncated_bytes: 13,
            dropped_records: 2,
        });
        rt(Event::JournalStats {
            recovered: 200,
            appended: 121,
        });
        rt(Event::EarlyStop {
            kind: CampaignKind::PerInst,
            site: 5,
            samples: 40,
            half_width: 0.05,
        });
        rt(Event::DeadlineTruncation {
            kind: CampaignKind::Program,
            truncated: 12,
        });
        rt(Event::InterpProfile {
            sample_every: 1024,
            total_samples: 4096,
            fused_samples: 3000,
            fused_sites: 120,
            total_sites: 400,
            encode_ns: 1_000_000,
            encode_ops: 10,
            restore_ns: 2_000_000,
            restore_ops: 99,
            samples: vec![("LoadBinStoreBr".into(), 2500), ("BinII".into(), 500)],
        });
        rt(Event::SchedSummary {
            early_stopped_sites: 3,
            early_stop_skipped: 55,
            truncated: 12,
            completeness: 0.875,
        });
        rt(Event::StoreEvent {
            op: "quarantine".into(),
            artifact: "golden".into(),
            bytes: 4096,
        });
        for action in [
            SectionAction::Hit,
            SectionAction::Miss,
            SectionAction::Recompute,
            SectionAction::Compose,
        ] {
            rt(Event::SectionEvent {
                fp: u64::MAX,
                action,
                units: 120,
            });
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let line = TimedEvent {
            ts_us: 0,
            event: Event::TraceEnd { dur_us: 0 },
        }
        .to_line()
        .replace("\"v\":11", "\"v\":999");
        assert!(matches!(
            TimedEvent::parse_line(&line),
            Err(SchemaError::Version(999))
        ));
        // a v9 log — the last schema with `retry_attempt`/`quarantine` —
        // is refused by version, before its kind is even looked at
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":9,"ts_us":0,"kind":"quarantine","campaign":"per_inst","site":3,"failures":2,"reason":"panic"}"#
            ),
            Err(SchemaError::Version(9))
        ));
        // and a v10 `campaign_end`, which could not say how many hangs were
        // proved, is refused the same way
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":10,"ts_us":0,"kind":"campaign_end","campaign":"per_inst","injections":1,"elapsed_us":1,"counts":{"benign":0,"sdc":0,"crash":0,"hang":1,"detected":0},"steps_executed":9,"steps_skipped":0,"restores":0,"converged":0,"steps_saved":0,"deduped":0}"#
            ),
            Err(SchemaError::Version(10))
        ));
    }

    /// Every `campaign_end` counter is required (a v7 log, where
    /// `converged`/`steps_saved` could be absent, and a v10 one, which has no
    /// `hangs_proved`, are refused by version).
    #[test]
    fn campaign_end_without_a_counter_is_rejected() {
        let line = TimedEvent {
            ts_us: 5,
            event: Event::CampaignEnd {
                kind: CampaignKind::PerInst,
                injections: 10,
                elapsed_us: 20,
                counts: OutcomeTally::default(),
                steps_executed: 30,
                steps_skipped: 40,
                restores: 9,
                converged: 3,
                steps_saved: 17,
                hangs_proved: 1,
                deduped: 2,
            },
        }
        .to_line();
        for (field, text) in [
            ("converged", ",\"converged\":3"),
            ("steps_saved", ",\"steps_saved\":17"),
            ("hangs_proved", ",\"hangs_proved\":1"),
            ("deduped", ",\"deduped\":2"),
        ] {
            let without = line.replace(text, "");
            assert_ne!(without, line, "{field} was written");
            assert_eq!(
                TimedEvent::parse_line(&without),
                Err(SchemaError::MissingField(field))
            );
        }
        let bad = line.replace("\"deduped\":2", "\"deduped\":\"two\"");
        assert_eq!(
            TimedEvent::parse_line(&bad),
            Err(SchemaError::BadField("deduped"))
        );
    }

    #[test]
    fn unknown_kind_and_missing_fields_are_rejected() {
        assert!(matches!(
            TimedEvent::parse_line(r#"{"v":11,"ts_us":0,"kind":"mystery"}"#),
            Err(SchemaError::UnknownKind(_))
        ));
        assert!(matches!(
            TimedEvent::parse_line(r#"{"v":11,"ts_us":0,"kind":"counter","name":"x"}"#),
            Err(SchemaError::MissingField("value"))
        ));
        assert!(matches!(
            TimedEvent::parse_line("not json at all"),
            Err(SchemaError::Json(_))
        ));
    }
}
