//! The scheduler proper: the deadline and campaign-level accounting.
//!
//! One [`Scheduler`] spans one logical run (a single campaign, or a whole
//! MINPSID pipeline with its many campaigns). It is `Sync`: campaign
//! workers on many threads drive it concurrently, so every tally is an
//! atomic.
//!
//! The accounting invariant the whole design hangs on: every site gets
//! its full sample size, and for every scheduled injection exactly one of
//! these happens —
//!
//! * it **completes** (an outcome the interpreter returned, or one a
//!   journal or sealed table already held),
//! * it is **truncated** by the deadline.
//!
//! `SchedSnapshot::accounted()` sums the two; campaigns assert it equals
//! `planned`. "Zero lost injections" is that assertion.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::deadline::Deadline;
use minpsid_trace as trace;
use trace::CampaignKind;

/// No knobs left: a campaign's sample size is its config's, and the
/// deadline is deliberately not a config value (see [`crate::deadline`]).
/// Kept because `benchmark/` passes `cfg.campaign.sched` to
/// [`Scheduler::new`] and may not change here; ROADMAP 4(b) deletes it.
/// The keys a campaign config enters hash the rendering of its retired
/// knobs as a literal (`CampaignConfig::key`), not this struct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedConfig {}

/// How a per-instruction site ended the campaign. Annotates every
/// estimate in the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteStatus {
    /// All planned injections produced outcomes.
    Full,
    /// The deadline expired with injections still pending.
    Truncated,
    /// The deadline expired before the site ran at all.
    Unsampled,
}

impl SiteStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            SiteStatus::Full => "full",
            SiteStatus::Truncated => "truncated",
            SiteStatus::Unsampled => "unsampled",
        }
    }
}

#[derive(Default)]
struct SchedStats {
    planned: AtomicU64,
    completed: AtomicU64,
    truncated: AtomicU64,
}

/// Point-in-time copy of a scheduler's accounting, embedded in results
/// and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    pub planned: u64,
    pub completed: u64,
    /// Always 0: nothing retries. Kept because `benchmark/` reads it for
    /// its `sched.retries` column and may not change here; ROADMAP 4(b)
    /// deletes both.
    pub retries: u64,
    /// Always 0: every site gets its full sample size. Kept because
    /// `benchmark/` reads it for its `sched.early_stop_skipped` column and
    /// may not change here; ROADMAP 4(b) deletes both.
    pub early_stop_skipped: u64,
    pub truncated: u64,
}

impl SchedSnapshot {
    /// Injections with a known fate. The zero-lost-injections invariant
    /// is `accounted() == planned`.
    pub fn accounted(&self) -> u64 {
        self.completed + self.truncated
    }

    /// Fraction of planned work that yielded an outcome: what the
    /// deadline truncated is missing. 1.0 when nothing was planned.
    pub fn completeness(&self) -> f64 {
        if self.planned == 0 {
            return 1.0;
        }
        (self.planned.saturating_sub(self.truncated)) as f64 / self.planned as f64
    }

    pub fn merge(&mut self, other: &SchedSnapshot) {
        self.planned += other.planned;
        self.completed += other.completed;
        self.truncated += other.truncated;
    }
}

/// The run-scoped scheduler. Cheap to construct; share one per run by
/// reference (it is `Sync`).
pub struct Scheduler {
    deadline: Deadline,
    stats: SchedStats,
}

impl Scheduler {
    /// A scheduler under `deadline`. The [`SchedConfig`] carries nothing;
    /// it is taken because `benchmark/` passes one (ROADMAP 4(b)).
    pub fn new(_cfg: SchedConfig, deadline: Deadline) -> Scheduler {
        Scheduler {
            deadline,
            stats: SchedStats::default(),
        }
    }

    /// A scheduler with no deadline — what a campaign runs under when the
    /// caller attaches none.
    pub fn unbounded() -> Scheduler {
        Scheduler::new(SchedConfig::default(), Deadline::none())
    }

    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.exceeded()
    }

    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    // -- accounting ------------------------------------------------------

    pub fn add_planned(&self, n: u64) {
        self.stats.planned.fetch_add(n, Ordering::Relaxed);
    }

    pub fn note_completed(&self, n: u64) {
        self.stats.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Deadline-truncated injections; emits one DeadlineTruncation event
    /// per call, so a campaign calls it once, with its total.
    pub fn note_truncated(&self, kind: CampaignKind, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.truncated.fetch_add(n, Ordering::Relaxed);
        if trace::active() {
            trace::emit(trace::Event::DeadlineTruncation { kind, truncated: n });
        }
    }

    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            planned: self.stats.planned.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            retries: 0,
            early_stop_skipped: 0,
            truncated: self.stats.truncated.load(Ordering::Relaxed),
        }
    }

    /// Emit the run-level SchedSummary trace event from current tallies.
    pub fn emit_summary(&self) {
        if !trace::active() {
            return;
        }
        let s = self.snapshot();
        trace::emit(trace::Event::SchedSummary {
            truncated: s.truncated,
            completeness: s.completeness(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every site gets its full sample size: nothing is skipped, so the
    /// benchmark's `early_stop_skipped` column stays 0 and the books
    /// close on completed + truncated alone.
    #[test]
    fn early_stop_is_off_by_default() {
        let s = Scheduler::unbounded();
        s.add_planned(10);
        s.note_completed(7);
        s.note_truncated(CampaignKind::PerInst, 3);
        let snap = s.snapshot();
        assert_eq!(snap.early_stop_skipped, 0);
        assert_eq!(snap.accounted(), snap.completed + snap.truncated);
        assert_eq!(snap.accounted(), snap.planned);
    }

    #[test]
    fn accounting_invariant_holds_across_paths() {
        let s = Scheduler::unbounded();
        s.add_planned(100);
        s.note_completed(95);
        s.note_truncated(CampaignKind::PerInst, 5);
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        // completeness loses the truncated work only
        assert!((snap.completeness() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_complete() {
        let s = Scheduler::unbounded();
        assert_eq!(s.snapshot().completeness(), 1.0);
        assert_eq!(s.snapshot().accounted(), 0);
    }

    #[test]
    fn snapshots_merge_fieldwise() {
        let s = Scheduler::unbounded();
        s.add_planned(10);
        s.note_completed(10);
        let mut a = s.snapshot();
        a.merge(&s.snapshot());
        assert_eq!(a.planned, 20);
        assert_eq!(a.completed, 20);
    }
}
