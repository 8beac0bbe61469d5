//! minpsid-sched: campaign scheduling policy — how much of a planned
//! campaign runs, and the books that prove none of it was lost.
//!
//! * [`stats`] — Wilson score intervals for report error bars, at the one
//!   confidence level [`Z`];
//! * [`deadline`] — a global wall-clock budget under which campaigns
//!   degrade gracefully to a truncated-but-honest report with a
//!   completeness score;
//! * [`Scheduler`] — the deadline and the accounting invariant
//!   (completed + truncated = planned). Every site gets its full sample
//!   size.
//!
//! There is no failure handling here because there is no failure to
//! handle: every way an injected program can go wrong is a value the
//! interpreter returns (`Crash`, `Hang`), and a panic in the harness is a
//! bug that stops the run (see DESIGN.md, "One failure policy").
//!
//! The scheduler is a *policy layer*, not an entry point: campaigns are
//! executed by the faultsim `CampaignEngine`, which consults an attached
//! [`Scheduler`] (or a default unbounded one) — there is no separate
//! "scheduled campaign" code path to keep in sync.

pub mod deadline;
mod scheduler;
pub mod stats;

pub use deadline::Deadline;
pub use scheduler::{SchedConfig, SchedSnapshot, Scheduler, SiteStatus};
pub use stats::{binomial_ci, BinomialCi, Z};

/// splitmix64: the standard 64-bit finalizer-style mixer. The campaign
/// engine derives every injection's RNG seed with it, so no state is
/// carried between draws.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_consecutive_keys() {
        assert_ne!(splitmix64(1), splitmix64(2));
        let low: std::collections::HashSet<u64> = (0..16).map(|k| splitmix64(k) & 3).collect();
        assert!(low.len() > 1, "low bits stuck at one value");
    }
}
