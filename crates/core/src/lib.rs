//! # minpsid — Multi-Input-hardened Selective Instruction Duplication
//!
//! The paper's primary contribution (§V): an automated framework that
//! hardens SID against the loss of SDC coverage across program inputs.
//!
//! ## The problem (§III–IV)
//!
//! Baseline SID profiles cost and benefit under a single *reference input*
//! and promises an expected SDC coverage. A small set of **incubative
//! instructions** — benefit in the bottom 1 % under the reference input but
//! outside the bottom 30 % under some other input — never gets prioritized,
//! so the real coverage collapses when the protected program runs with
//! different inputs (to 0 % in extreme cases, paper Fig. 2).
//!
//! ## The fix (Fig. 4)
//!
//! 1. **SID preparation** (①②): reference-input cost/benefit profile
//!    ([`reference_profile`]; the cost/benefit model is `minpsid-sid`'s).
//! 2. **Input search engine** (③–⑦): a genetic algorithm over the
//!    program's input space whose fitness (Eq. 3) is the mean Euclidean
//!    distance between the candidate's *indexed weighted-CFG list* (per
//!    basic-block dynamic execution counts, Fig. 5) and those of all
//!    previously searched inputs — inputs that exercise *different paths*
//!    reveal different error-propagation behaviour. Each accepted input
//!    gets a per-instruction FI campaign; incubative instructions
//!    accumulate until the set saturates.
//! 3. **Re-prioritization** (⑧): incubative instructions get their benefit
//!    replaced with the *maximum* observed across all searched inputs, so
//!    the knapsack now prioritizes them.
//! 4. **Selection + transform** (⑨): rerun knapsack + duplication.
//!
//! [`run_minpsid`] is the end-to-end entry point; baseline SID selects from
//! a [`reference_profile`] as it stands, and [`run_minpsid_from`] extends one.

pub mod cache;
pub mod incubative;
pub mod input;
pub mod pipeline;
pub mod search;
pub mod wcfg;

pub use cache::{
    config_fingerprint, input_fingerprint, module_fingerprint, output_fingerprint, GoldenCache,
};
pub use incubative::{
    incubative_between, reprioritize, IncubativeConfig, IncubativeTracker, ReprioritizeRule,
};
pub use input::{crossover, mutate, InputModel, ParamKind, ParamSpec, ParamValue};
pub use pipeline::{
    minpsid_config_fingerprint, module_section_map, reference_profile, run_minpsid,
    run_minpsid_cached, run_minpsid_from, run_minpsid_journaled, Deduped, MinpsidConfig,
    MinpsidResult, PipelineError, Reference, SearchStrategy, Timings,
};
pub use search::{EvalMemo, FitnessKind, GaConfig, SearchEngine, SearchOutcome};
pub use wcfg::{fitness_score, fitness_score_normalized, profile_input};
