//! # minpsid-faultsim — fault-injection campaigns over the minpsid IR
//!
//! The LLFI role in the paper's toolchain (§III-A3): given a program and an
//! input, inject single-bit flips into the return value of a uniformly
//! random dynamic instruction and classify the outcome against a golden
//! run:
//!
//! * **Benign** — normal exit, bit-identical output (the fault was masked);
//! * **SDC** — normal exit, different output (silent data corruption);
//! * **Crash** — a trap (the hardware-exception analogue);
//! * **Hang** — step budget exceeded (10× the golden run by default);
//! * **Detected** — a SID duplication check caught the mismatch.
//!
//! Two campaign shapes, mirroring §III-A3:
//!
//! * whole-program — N faults uniformly over all dynamic instructions
//!   (the paper's 1000-fault program-level measurement);
//! * per-instruction — N faults per *static* instruction, sampled
//!   uniformly over that instruction's dynamic executions (the paper's
//!   100-fault per-instruction SDC-probability measurement that feeds
//!   SID's benefit, Eq. 2).
//!
//! Both shapes are one injector with two sampling rules, and every
//! campaign runs through one [`CampaignEngine`] loop (see [`engine`]): a
//! plan of units — one planned fault per whole-program unit,
//! `per_inst_injections` per per-instruction site — executed and reduced
//! with scheduling (deadline, accounting), crash-safe WAL journaling,
//! per-section outcome tables (see [`table`]) and tracing attached as
//! composable policy layers. Campaigns are deterministic given a seed and
//! embarrassingly parallel at any composition: injections fan out over
//! `std::thread::scope` workers (see [`parallel`]) and reduce in plan
//! order, so reports are byte-identical at any thread count — journaled
//! runs included, whose WAL is serialized by a single ordered writer.
//! Golden runs capture a checkpoint store so each injection replays only
//! the suffix after the nearest snapshot (see [`campaign`]).
//!
//! [`program_campaign`] and [`per_instruction_campaign`] remain as thin
//! wrappers for default-policy campaigns. A [`CampaignConfig`] is plain
//! data: callers build it with struct-update syntax over `Default` or
//! [`CampaignConfig::quick`], and the `minpsid` CLI, where campaign flags
//! arrive from outside, is the one place they are parsed and validated.

pub mod campaign;
pub mod engine;
pub mod outcome;
pub mod parallel;
pub mod table;

pub use campaign::{
    fi_journal_key, golden_run, golden_run_sized, per_instruction_campaign, program_campaign,
    CampaignConfig, CheckpointPolicy, ConfigKey, GoldenRun, PerInstSdc, ProgramCampaign,
};
pub use engine::{
    explain, fault_token, faulty_exec_config, parse_fault, CampaignEngine, CampaignPlan,
    Explanation, ProgramUnitExecutor, Section,
};
pub use table::{table_sig, TableMemo, TableStatsSnapshot, TABLE_ARTIFACT};
// The campaign shape a plan and a sealed table carry, re-exported so
// campaign callers keep a single import path.
pub use minpsid_trace::CampaignKind;
// The interpreter knob that rides on CampaignConfig, re-exported so front
// ends keep a single import path.
pub use minpsid_interp::SnapshotMode;
pub use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
// The Wilson-interval code and the scheduler live in minpsid-sched;
// re-exported here so campaign callers keep a single import path.
pub use minpsid_sched::{
    binomial_ci, BinomialCi, Deadline, SchedConfig, SchedSnapshot, Scheduler, SiteStatus, Z,
};
pub use outcome::{classify, Outcome, OutcomeCounts};
