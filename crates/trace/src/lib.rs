//! # minpsid-trace — structured tracing + metrics for the MINPSID pipeline
//!
//! Production SDC-screening fleets treat telemetry as a first-class output
//! ("Silent Data Corruptions at Scale", Dixit et al.); this crate gives
//! the reproduction the same substrate, in the `tlparse` idiom: the run
//! emits a structured JSONL trace, and an offline analyzer turns the log
//! into a human-readable report.
//!
//! Three layers:
//!
//! * **Schema** ([`event`]): versioned events ([`Event`], wrapped in
//!   [`TimedEvent`]), each kind's name and fields declared once and its
//!   JSON encoder and decoder generated from that over [`json`] — every
//!   line carries `"v": SCHEMA_VERSION` and the parser rejects anything
//!   it does not understand, so reports never silently misparse.
//! * **Sink** ([`sink`]): a `Sync`, process-wide sink that is a no-op
//!   static until a file ([`init_file`]) or observer ([`add_observer`])
//!   is attached — the disabled cost is one relaxed atomic load. Hot
//!   paths use lock-free primitives ([`CampaignCounters`], [`Histogram`])
//!   that a sampler thread ([`sample_campaign`]) turns into events at a
//!   fixed low rate; [`span`] guards mark pipeline stages.
//! * **Analyzer** ([`report`]): `minpsid trace report <log>` parses the
//!   JSONL into a [`TraceSummary`] and renders markdown with stage
//!   time breakdowns, FI throughput + outcome distributions, checkpoint
//!   restore savings, golden-cache hit rates, and per-generation GA
//!   fitness curves.
//!
//! The crate sits at the bottom of the workspace dependency graph, so
//! every layer — interp, faultsim, sid, core, CLI, bench — can emit
//! events. Its one dependency, `minpsid-metrics`, is an item-less stub
//! that nothing here names: the edge stays only because
//! `benchmark/Cargo.lock` pins it (see that crate's doc).

pub mod event;
pub mod json;
pub mod report;
pub mod sink;

pub use event::{
    CampaignKind, Event, OutcomeTally, SchemaError, SectionAction, TimedEvent, SCHEMA_VERSION,
};
pub use report::{parse_log, render_markdown, summarize, CampaignStat, JournalStat, TraceSummary};
pub use sink::{
    active, add_observer, emit, flush, init_file, init_writer, sample_campaign, shutdown, span,
    CampaignCounters, Histogram, OutcomeKind, Span,
};
