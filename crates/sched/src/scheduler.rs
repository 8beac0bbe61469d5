//! The scheduler proper: early-stop decisions, the deadline, and
//! campaign-level accounting.
//!
//! One [`Scheduler`] spans one logical run (a single campaign, or a whole
//! MINPSID pipeline with its many campaigns). It is `Sync`: campaign
//! workers on many threads drive it concurrently, so every tally is an
//! atomic and every decision that must be deterministic is derived from
//! per-site counts, never from cross-thread interleaving.
//!
//! The accounting invariant the whole design hangs on: for every
//! scheduled injection, exactly one of these happens —
//!
//! * it **completes** (an outcome the interpreter returned),
//! * it is **skipped by early stop** (its site's Wilson interval got
//!   tight enough first),
//! * it is **truncated** by the deadline.
//!
//! `SchedSnapshot::accounted()` sums the three; campaigns assert it equals
//! `planned`. "Zero lost injections" is that assertion.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::deadline::Deadline;
use crate::stats::{binomial_ci, BinomialCi};
use minpsid_trace as trace;
use trace::CampaignKind;

/// Knobs for early stopping. Lives inside `CampaignConfig`, so it *is*
/// part of the config fingerprint — two runs that stop sampling at
/// different widths are different experiments. The deadline is
/// deliberately not here (see [`crate::deadline`]).
#[derive(Clone, PartialEq)]
pub struct SchedConfig {
    /// Early-stop threshold: stop sampling a site once its Wilson
    /// interval's half-width is ≤ this. 0.0 disables early stopping.
    pub ci_half_width: f64,
    /// Confidence level in standard deviations (1.96 ⇒ 95 %).
    pub ci_z: f64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            ci_half_width: 0.0,
            ci_z: 1.96,
        }
    }
}

/// Hashed, so frozen: `table_sig` and the MINPSID journal header key on
/// this rendering. The first five fields are the retired retry/quarantine
/// knobs, printed at the defaults every journal and sealed table written
/// before their removal was keyed under.
impl fmt::Debug for SchedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedConfig")
            .field("max_retries", &2u32)
            .field("backoff_base_ms", &1u64)
            .field("backoff_cap_ms", &50u64)
            .field("quarantine_after", &2u32)
            .field("quarantine_cap", &64u64)
            .field("ci_half_width", &self.ci_half_width)
            .field("ci_z", &self.ci_z)
            .finish()
    }
}

/// How a per-instruction site ended the campaign. Annotates every
/// estimate in the final report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteStatus {
    /// All planned injections produced outcomes.
    Full,
    /// Sampling stopped early: the Wilson interval converged.
    EarlyStopped,
    /// The deadline expired with injections still pending.
    Truncated,
    /// The deadline expired before the site ran at all.
    Unsampled,
}

impl SiteStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            SiteStatus::Full => "full",
            SiteStatus::EarlyStopped => "early-stopped",
            SiteStatus::Truncated => "truncated",
            SiteStatus::Unsampled => "unsampled",
        }
    }
}

#[derive(Default)]
struct SchedStats {
    planned: AtomicU64,
    completed: AtomicU64,
    early_stopped_sites: AtomicU64,
    early_stop_skipped: AtomicU64,
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
    pub early_stopped_sites: u64,
    pub early_stop_skipped: u64,
    pub truncated: u64,
}

impl SchedSnapshot {
    /// Injections with a known fate. The zero-lost-injections invariant
    /// is `accounted() == planned`.
    pub fn accounted(&self) -> u64 {
        self.completed + self.early_stop_skipped + self.truncated
    }

    /// Fraction of planned work that yielded information: completed and
    /// early-stopped injections count (an early stop means the estimate
    /// converged — nothing was lost), deadline-truncated work does not.
    /// 1.0 when nothing was planned.
    pub fn completeness(&self) -> f64 {
        if self.planned == 0 {
            return 1.0;
        }
        (self.planned.saturating_sub(self.truncated)) as f64 / self.planned as f64
    }

    pub fn merge(&mut self, other: &SchedSnapshot) {
        self.planned += other.planned;
        self.completed += other.completed;
        self.early_stopped_sites += other.early_stopped_sites;
        self.early_stop_skipped += other.early_stop_skipped;
        self.truncated += other.truncated;
    }
}

/// The run-scoped scheduler. Cheap to construct; share one per run by
/// reference (it is `Sync`).
pub struct Scheduler {
    cfg: SchedConfig,
    deadline: Deadline,
    stats: SchedStats,
}

impl Scheduler {
    pub fn new(cfg: SchedConfig, deadline: Deadline) -> Scheduler {
        Scheduler {
            cfg,
            deadline,
            stats: SchedStats::default(),
        }
    }

    /// A scheduler with no deadline — what a campaign runs under when the
    /// caller attaches none.
    pub fn unbounded(cfg: SchedConfig) -> Scheduler {
        Scheduler::new(cfg, Deadline::none())
    }

    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.exceeded()
    }

    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Early-stop check for one site: `Some(half_width)` when enabled and
    /// the Wilson interval for `successes`/`trials` is tight enough.
    pub fn early_stop(&self, successes: u64, trials: u64) -> Option<f64> {
        if self.cfg.ci_half_width <= 0.0 || trials == 0 {
            return None;
        }
        let hw = binomial_ci(successes, trials, self.cfg.ci_z).half_width();
        (hw <= self.cfg.ci_half_width).then_some(hw)
    }

    /// The interval a report should print for a site.
    pub fn site_ci(&self, successes: u64, trials: u64) -> BinomialCi {
        binomial_ci(successes, trials, self.cfg.ci_z)
    }

    // -- accounting ------------------------------------------------------

    pub fn add_planned(&self, n: u64) {
        self.stats.planned.fetch_add(n, Ordering::Relaxed);
    }

    pub fn note_completed(&self, n: u64) {
        self.stats.completed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn note_early_stop(
        &self,
        kind: CampaignKind,
        site: u64,
        samples: u64,
        half_width: f64,
        skipped: u64,
    ) {
        self.stats
            .early_stopped_sites
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .early_stop_skipped
            .fetch_add(skipped, Ordering::Relaxed);
        if trace::active() {
            trace::emit(trace::Event::EarlyStop {
                kind,
                site,
                samples,
                half_width,
            });
        }
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
            early_stopped_sites: self.stats.early_stopped_sites.load(Ordering::Relaxed),
            early_stop_skipped: self.stats.early_stop_skipped.load(Ordering::Relaxed),
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
            early_stopped_sites: s.early_stopped_sites,
            early_stop_skipped: s.early_stop_skipped,
            truncated: s.truncated,
            completeness: s.completeness(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `table_sig` and the journal header hash this string: a field
    /// dropped, renamed or reordered re-keys every sealed table and
    /// refuses every journal written before the change.
    #[test]
    fn hashed_rendering_is_the_one_old_journals_and_tables_were_keyed_under() {
        assert_eq!(
            format!("{:?}", SchedConfig::default()),
            "SchedConfig { max_retries: 2, backoff_base_ms: 1, backoff_cap_ms: 50, \
             quarantine_after: 2, quarantine_cap: 64, ci_half_width: 0.0, ci_z: 1.96 }"
        );
    }

    #[test]
    fn early_stop_is_off_by_default() {
        let s = Scheduler::unbounded(SchedConfig::default());
        assert_eq!(s.early_stop(0, 1000), None);
    }

    #[test]
    fn early_stop_fires_once_the_interval_is_tight() {
        let s = Scheduler::unbounded(SchedConfig {
            ci_half_width: 0.05,
            ..SchedConfig::default()
        });
        assert_eq!(
            s.early_stop(1, 4),
            None,
            "4 samples are never enough at 5 %"
        );
        let hw = s.early_stop(0, 1000).expect("1000 clean samples converge");
        assert!(hw <= 0.05);
    }

    #[test]
    fn accounting_invariant_holds_across_paths() {
        let s = Scheduler::unbounded(SchedConfig::default());
        s.add_planned(100);
        s.note_completed(70);
        s.note_early_stop(CampaignKind::PerInst, 3, 12, 0.04, 25);
        s.note_truncated(CampaignKind::PerInst, 5);
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        // completeness loses the truncated work only
        assert!((snap.completeness() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_complete() {
        let s = Scheduler::unbounded(SchedConfig::default());
        assert_eq!(s.snapshot().completeness(), 1.0);
        assert_eq!(s.snapshot().accounted(), 0);
    }

    #[test]
    fn snapshots_merge_fieldwise() {
        let s = Scheduler::unbounded(SchedConfig::default());
        s.add_planned(10);
        s.note_completed(10);
        let mut a = s.snapshot();
        a.merge(&s.snapshot());
        assert_eq!(a.planned, 20);
        assert_eq!(a.completed, 20);
    }
}
