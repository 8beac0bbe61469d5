//! # minpsid-sid — selective instruction duplication
//!
//! The baseline protection technique of the paper (§II-C):
//!
//! 1. **Profile** (reference input): per-instruction dynamic cycles give
//!    the knapsack *cost* (Eq. 1); per-instruction FI gives the SDC
//!    probability, and `benefit = SDC probability × cost` (Eq. 2).
//! 2. **Instruction selection**: a 0-1 knapsack with capacity
//!    `protection level × total cycles` picks the instructions to
//!    duplicate. (Both the greedy density heuristic used by SID systems in
//!    practice and a scaled-DP solver are provided; the ablation bench
//!    compares them.)
//! 3. **Code transformation**: each selected instruction is re-executed on
//!    its original operands and a `check` comparing the two results is
//!    placed *before the next synchronization point* (store, call, output,
//!    or control transfer), per §II-C. A transient fault hitting either
//!    copy makes the check fire → `Detected`.
//! 4. **Expected SDC coverage**: the benefit-weighted fraction of the
//!    program's SDC mass that the selection covers — the number SID
//!    reports to developers, and the red bars of Figs. 2 & 6.
//!
//! [`measure_unprotected`] then gives what the paper's evaluation
//! measures: one FI campaign on the *original* program under an arbitrary
//! input, tallied by site, from which [`Unprotected::coverage`] reads the
//! measured coverage of any selection (the share of SDC faults at the
//! sites it duplicates) and [`Unprotected::paper_coverage`] the paper's
//! `1 − P_sdc(protected) / P_sdc(unprotected)`.

pub mod knapsack;
pub mod pipeline;
pub mod profile;
pub mod transform;

pub use knapsack::{dp_select, greedy_select, Selection};
pub use pipeline::{
    measure_unprotected, run_sid, select, select_and_protect, SidConfig, SidResult, Unprotected,
};
pub use profile::CostBenefit;
pub use transform::{
    duplicable, duplicate_module, duplicate_module_with, CheckPlacement, TransformMeta,
};
