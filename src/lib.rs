//! # minpsid-repro — reproduction of MINPSID (SC'22)
//!
//! *"Mitigating Silent Data Corruptions in HPC Applications across
//! Multiple Program Inputs"*, Huang, Guo, Di, Li, Cappello — SC 2022.
//!
//! This facade crate re-exports the workspace so examples and integration
//! tests can exercise the full pipeline from one place:
//!
//! * [`ir`] — the typed register IR (LLVM-IR stand-in);
//! * [`minic`] — the C-like front end (clang stand-in);
//! * [`interp`] — deterministic interpreter with profiling and the
//!   fault-injection hook;
//! * [`faultsim`] — LLFI-style single-bit-flip campaigns, all executed
//!   by one composable `CampaignEngine` (parallel by default; the
//!   scheduler, journal, and tracer attach as policy layers);
//! * [`sid`] — baseline selective instruction duplication;
//! * [`minpsid`] — the paper's contribution: GA input search,
//!   incubative-instruction identification, re-prioritized SID;
//! * [`trace`] — structured tracing sink, in-process observers and the
//!   offline `minpsid trace report` analyzer: the one way to watch a run;
//! * [`journal`] — crash-safe campaign journal: durable WAL,
//!   resume-after-crash, cooperative interrupts;
//! * [`sched`] — campaign scheduler: Wilson-interval early stopping,
//!   deadlines, the accounting invariant;
//! * [`store`] — self-verifying content-addressed artifact store:
//!   digest-verified loads, corruption quarantine, scrub/gc;
//! * [`workloads`] — the 11 benchmarks of Table I.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use minic;
pub use minpsid;
pub use minpsid_faultsim as faultsim;
pub use minpsid_interp as interp;
pub use minpsid_ir as ir;
pub use minpsid_journal as journal;
pub use minpsid_sched as sched;
pub use minpsid_sid as sid;
pub use minpsid_store as store;
pub use minpsid_trace as trace;
pub use minpsid_workloads as workloads;
