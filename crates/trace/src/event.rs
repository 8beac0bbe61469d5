//! The versioned trace event schema.
//!
//! Every JSONL line is one [`TimedEvent`]: `{"v":12,"ts_us":…,"kind":…,…}`.
//! `v` is [`SCHEMA_VERSION`]; the parser rejects lines whose version it
//! does not understand, so a report can never silently misparse a log
//! written by a different schema. Serialization is hand-rolled over
//! [`crate::json`] (no serde in the dependency budget): each kind's name
//! and fields are declared once, in the `events!` table below, which
//! generates the [`Event`] enum, its encoder and its strict decoder, so
//! the two cannot drift.

use crate::json::{parse, Json, JsonError};

/// Version stamped into every line. Bump on any incompatible field change.
/// v2: outcome tallies carry `engine_error`, and the crash-safe journal
/// emits `journal_recovery`/`journal_stats` events.
/// v3: outcome tallies carry `transient_recovered`/`quarantined`, and the
/// resilient scheduler emits `retry_attempt`/`quarantine`/early-stop/
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
/// The `counter` kind, which no v11 producer ever wrote, is an unknown
/// kind.
/// v12: the early-stop kind and `sched_summary`'s two early-stop counts
/// are gone with per-site early stopping: every site gets its full sample
/// size.
pub const SCHEMA_VERSION: u32 = 12;

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

/// A value an event field can hold: how it is written, and how it is read
/// back from the JSON value stored under `key` (named in errors).
trait Field: Sized {
    fn put(&self) -> Json;
    fn take(v: &Json, key: &'static str) -> Result<Self, SchemaError>;
}

/// Read the field `key` of object `v`.
fn take<T: Field>(v: &Json, key: &'static str) -> Result<T, SchemaError> {
    T::take(v.get(key).ok_or(SchemaError::MissingField(key))?, key)
}

/// The JSON scalars: each written as its `Json` variant, read with its
/// `as_*` accessor.
macro_rules! scalars {
    ($($ty:ty => $variant:ident, $read:ident;)*) => {$(
        impl Field for $ty {
            fn put(&self) -> Json {
                Json::$variant(self.to_owned())
            }
            fn take(v: &Json, key: &'static str) -> Result<Self, SchemaError> {
                v.$read().map(<$ty>::from).ok_or(SchemaError::BadField(key))
            }
        }
    )*};
}

scalars! {
    u64 => U64, as_u64;
    f64 => F64, as_f64;
    String => Str, as_str;
}

/// `[a, b]` pairs: histogram buckets and profile samples.
impl<A: Field, B: Field> Field for Vec<(A, B)> {
    fn put(&self) -> Json {
        Json::Array(
            self.iter()
                .map(|(a, b)| Json::Array(vec![a.put(), b.put()]))
                .collect(),
        )
    }
    fn take(v: &Json, key: &'static str) -> Result<Self, SchemaError> {
        let bad = || SchemaError::BadField(key);
        v.as_array()
            .ok_or_else(bad)?
            .iter()
            .map(|pair| match pair.as_array() {
                Some([a, b]) => Ok((A::take(a, key)?, B::take(b, key)?)),
                _ => Err(bad()),
            })
            .collect()
    }
}

/// Declares a fieldless enum written on the wire as one of its names.
macro_rules! names {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $s:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $s,)*
                }
            }
        }

        impl Field for $name {
            fn put(&self) -> Json {
                Json::Str(self.as_str().to_string())
            }
            fn take(v: &Json, key: &'static str) -> Result<Self, SchemaError> {
                match v.as_str() {
                    $(Some($s) => Ok($name::$variant),)*
                    _ => Err(SchemaError::BadField(key)),
                }
            }
        }
    };
}

names! {
    /// Which campaign shape produced a progress/end event.
    CampaignKind {
        /// Whole-program campaign (`program_campaign`).
        Program = "program",
        /// Per-static-instruction campaign (`per_instruction_campaign`).
        PerInst = "per_inst",
    }
}

names! {
    /// How the table memo disposed of one section (or, for `Compose`, how
    /// the reducer assembled the campaign report from per-section tables).
    SectionAction {
        /// A sealed, complete table matched and its outcomes were served.
        Hit = "hit",
        /// No usable table: absent, stale signature, or sealed incomplete.
        Miss = "miss",
        /// The table failed store verification, was quarantined, and the
        /// section re-ran.
        Recompute = "recompute",
        /// The reducer composed per-section results into the final report.
        Compose = "compose",
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
}

impl Field for OutcomeTally {
    fn put(&self) -> Json {
        let mut o = Json::obj();
        o.set("benign", self.benign.put());
        o.set("sdc", self.sdc.put());
        o.set("crash", self.crash.put());
        o.set("hang", self.hang.put());
        o.set("detected", self.detected.put());
        o
    }
    fn take(v: &Json, _key: &'static str) -> Result<Self, SchemaError> {
        Ok(OutcomeTally {
            benign: take(v, "benign")?,
            sdc: take(v, "sdc")?,
            crash: take(v, "crash")?,
            hang: take(v, "hang")?,
            detected: take(v, "detected")?,
        })
    }
}

/// The wire key of a field: its name, or the `as "…"` override.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The event table: `Variant = "kind" { field [as "key"]: Type, … }`
/// declares one kind's variant, wire name and fields, written and
/// required in declaration order.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$fdoc:meta])* $field:ident $(as $key:literal)?: $ty:ty,)*
        }
    )*) => {
        /// One structured trace event.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl Event {
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            fn put_fields(&self, o: &mut Json) {
                match self {
                    $(Event::$variant { $($field,)* } => {
                        $(o.set(key!($field $($key)?), Field::put($field));)*
                    })*
                }
            }

            fn take_fields(kind: &str, v: &Json) -> Result<Event, SchemaError> {
                match kind {
                    $($kind => Ok(Event::$variant {
                        $($field: take(v, key!($field $($key)?))?,)*
                    }),)*
                    other => Err(SchemaError::UnknownKind(other.to_string())),
                }
            }
        }
    };
}

events! {
    /// First line of every trace: identifies the producing tool.
    TraceStart = "trace_start" { tool: String, }
    /// Last line written by a clean shutdown.
    TraceEnd = "trace_end" { dur_us: u64, }
    /// A named stage began. `id` pairs it with its `SpanEnd`.
    SpanBegin = "span_begin" { id: u64, name: String, }
    /// A named stage finished after `dur_us` microseconds.
    SpanEnd = "span_end" { id: u64, name: String, dur_us: u64, }
    /// A power-of-two-bucketed histogram snapshot: `(bucket_lo, count)`
    /// pairs for the non-empty buckets.
    Histogram = "histogram" { name: String, buckets: Vec<(u64, u64)>, }
    /// Periodic mid-campaign sample taken from the workers' lock-free
    /// counters by the sampler thread.
    CampaignProgress = "campaign_progress" {
        kind as "campaign": CampaignKind,
        done: u64,
        total: u64,
        counts: OutcomeTally,
        elapsed_us: u64,
    }
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
    CampaignEnd = "campaign_end" {
        kind as "campaign": CampaignKind,
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
    }
    /// Per-function outcome distribution of a per-instruction campaign.
    FunctionOutcomes = "function_outcomes" { func: String, counts: OutcomeTally, }
    /// One GA generation inside an input search.
    GaGeneration = "ga_generation" {
        /// How many inputs were already in the search history when this
        /// GA round started (0 = the round that produced input #1).
        input_index: u64,
        generation: u64,
        best_fitness: f64,
        mean_fitness: f64,
        population: u64,
        evals: u64,
    }
    /// One accepted search input, after its FI campaign.
    SearchInput = "search_input" {
        index: u64,
        fitness: f64,
        new_incubative: u64,
        total_incubative: u64,
    }
    /// Knapsack selection summary (budget in dynamic cycles).
    Knapsack = "knapsack" {
        budget: u64,
        total_cycles: u64,
        eligible: u64,
        selected: u64,
        protected_cycle_fraction: f64,
        expected_coverage: f64,
    }
    /// Golden-run cache tallies.
    CacheStats = "cache_stats" { hits: u64, misses: u64, entries: u64, }
    /// Crash-safe journal opened: how much prior state was recovered and
    /// how many bytes of torn/corrupt tail were truncated.
    /// `dropped_records` counts intact-looking records found *after* the
    /// first corrupt frame: nonzero means mid-file corruption (bit rot),
    /// not an ordinary torn tail, and those records will be recomputed.
    JournalRecovery = "journal_recovery" {
        records: u64,
        truncated_bytes: u64,
        dropped_records: u64,
    }
    /// End-of-run journal usage: injections served from the journal
    /// (recovered) vs executed fresh and appended (replayed).
    JournalStats = "journal_stats" { recovered: u64, appended: u64, }
    /// The wall-clock deadline expired with `truncated` injections still
    /// pending in this campaign.
    DeadlineTruncation = "deadline_truncation" {
        kind as "campaign": CampaignKind,
        truncated: u64,
    }
    /// Accumulated interpreter sampling-profiler state: per-op sample
    /// counts (descending), fusion coverage, and checkpoint
    /// encode/restore cost totals. Emitted once at shutdown when the
    /// profiler ran.
    InterpProfile = "interp_profile" {
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
    }
    /// Run-level scheduler accounting, emitted once at the end.
    SchedSummary = "sched_summary" {
        truncated: u64,
        completeness: f64,
    }
    /// Artifact-store operation. `op` is one of `publish`, `load`,
    /// `quarantine`, `chaos_flip`, `scrub`, `gc`; `artifact` is the
    /// artifact class (`golden`, `ckpt`, `table`, `wal`, …— `*` for
    /// store-wide ops); `bytes` is the object size (for `scrub`/`gc`,
    /// the number of objects examined).
    StoreEvent = "store_event" { op: String, artifact: String, bytes: u64, }
    /// Per-section outcome-table disposition in an incremental campaign.
    /// `fp` is the section's content fingerprint; `units` is the number
    /// of memoized injection outcomes involved (served outcomes for
    /// `hit`, composed sections for `compose`, 0 for `miss`/`recompute`).
    SectionEvent = "section_event" { fp: u64, action: SectionAction, units: u64, }
}

/// An event plus its timestamp (microseconds since trace start).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    pub ts_us: u64,
    pub event: Event,
}

impl TimedEvent {
    /// Serialize as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = Json::obj();
        o.set("v", Json::U64(SCHEMA_VERSION as u64));
        o.set("ts_us", Json::U64(self.ts_us));
        o.set("kind", Json::Str(self.event.kind().to_string()));
        self.event.put_fields(&mut o);
        o.render()
    }

    /// Parse one JSONL line. Strict: unknown versions, unknown kinds, and
    /// missing/malformed fields are all errors.
    pub fn parse_line(line: &str) -> Result<TimedEvent, SchemaError> {
        let v = parse(line.trim()).map_err(SchemaError::Json)?;
        let version: u64 = take(&v, "v")?;
        if version != SCHEMA_VERSION as u64 {
            return Err(SchemaError::Version(version));
        }
        let ts_us = take(&v, "ts_us")?;
        let kind: String = take(&v, "kind")?;
        let event = Event::take_fields(&kind, &v)?;
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
        .replace("\"v\":12", "\"v\":999");
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
        // and a v11 `early_stop`, from a run that skipped part of a site's
        // sample
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":11,"ts_us":0,"kind":"early_stop","campaign":"per_inst","site":7,"samples":6,"half_width":0.19}"#
            ),
            Err(SchemaError::Version(11))
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
            TimedEvent::parse_line(r#"{"v":12,"ts_us":0,"kind":"mystery"}"#),
            Err(SchemaError::UnknownKind(_))
        ));
        // `counter` had no producer and is gone from v11, `early_stop`
        // from v12
        for kind in ["counter", "early_stop"] {
            let line = format!(r#"{{"v":12,"ts_us":0,"kind":"{kind}","name":"x","value":1}}"#);
            assert!(matches!(
                TimedEvent::parse_line(&line),
                Err(SchemaError::UnknownKind(_))
            ));
        }
        assert!(matches!(
            TimedEvent::parse_line(r#"{"v":12,"ts_us":0,"kind":"journal_stats","recovered":1}"#),
            Err(SchemaError::MissingField("appended"))
        ));
        // a tally names its own missing key, not the field that holds it
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":12,"ts_us":0,"kind":"function_outcomes","func":"main","counts":{"sdc":0,"crash":0,"hang":0,"detected":0}}"#
            ),
            Err(SchemaError::MissingField("benign"))
        ));
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":12,"ts_us":0,"kind":"section_event","fp":1,"action":"stale","units":0}"#
            ),
            Err(SchemaError::BadField("action"))
        ));
        assert!(matches!(
            TimedEvent::parse_line(
                r#"{"v":12,"ts_us":0,"kind":"histogram","name":"h","buckets":[[1,2,3]]}"#
            ),
            Err(SchemaError::BadField("buckets"))
        ));
        assert!(matches!(
            TimedEvent::parse_line("not json at all"),
            Err(SchemaError::Json(_))
        ));
    }
}
