//! The scheduler proper: retry loop, quarantine book-keeping, early-stop
//! decisions, and campaign-level accounting.
//!
//! One [`Scheduler`] spans one logical run (a single campaign, or a whole
//! MINPSID pipeline with its many campaigns). It is `Sync`: campaign
//! workers on many threads drive it concurrently, so every tally is an
//! atomic and every decision that must be deterministic is derived from
//! per-site keys, never from cross-thread interleaving.
//!
//! The accounting invariant the whole design hangs on: for every
//! scheduled injection, exactly one of these happens —
//!
//! * it **completes** (a real outcome, possibly after retries, possibly a
//!   final `EngineError` when the retry budget is exhausted),
//! * it is **skipped by early stop** (its site's Wilson interval got
//!   tight enough first),
//! * it is **skipped by quarantine** (its site was declared bad),
//! * it is **truncated** by the deadline.
//!
//! `SchedSnapshot::accounted()` sums the four; campaigns assert it equals
//! `planned`. "Zero lost injections" is that assertion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::deadline::Deadline;
use crate::retry::{backoff_ms, FailureKind};
use crate::stats::{binomial_ci, BinomialCi};
use minpsid_trace as trace;
use trace::CampaignKind;

/// Knobs for retry, quarantine, and early stopping. Lives inside
/// `CampaignConfig`, so it *is* part of the config fingerprint — two runs
/// with different retry budgets are different experiments. The deadline
/// is deliberately not here (see [`crate::deadline`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Extra attempts after the first failed one. 0 restores the
    /// pre-scheduler behaviour: first engine failure ⇒ `EngineError`.
    pub max_retries: u32,
    /// Base backoff delay in milliseconds (attempt `a` waits
    /// `min(base << a, cap)` + deterministic jitter in `[0, base]`).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Consecutive retry-exhausted injections at one site before the
    /// site is quarantined.
    pub quarantine_after: u32,
    /// Hard cap on quarantined sites per run; once reached, further
    /// exhaustions degrade to plain `EngineError` outcomes.
    pub quarantine_cap: u64,
    /// Early-stop threshold: stop sampling a site once its Wilson
    /// interval's half-width is ≤ this. 0.0 disables early stopping.
    pub ci_half_width: f64,
    /// Confidence level in standard deviations (1.96 ⇒ 95 %).
    pub ci_z: f64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            max_retries: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 50,
            quarantine_after: 2,
            quarantine_cap: 64,
            ci_half_width: 0.0,
            ci_z: 1.96,
        }
    }
}

/// What one injection attempt produced.
#[derive(Debug)]
pub enum AttemptResult<T> {
    Ok(T),
    Failed(FailureKind),
}

/// What [`Scheduler::run_task`] resolved an injection to.
#[derive(Debug, PartialEq, Eq)]
pub enum TaskResult<T> {
    /// A real outcome, after `retries` failed attempts (0 ⇒ first try).
    Done { value: T, retries: u32 },
    /// Every attempt failed; `reason` is the last failure.
    Exhausted { reason: FailureKind, attempts: u32 },
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
    /// The site was quarantined after consecutive engine failures; its
    /// estimate is excluded from all rates.
    Quarantined(FailureKind),
    /// The deadline expired before the site ran at all.
    Unsampled,
}

impl SiteStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            SiteStatus::Full => "full",
            SiteStatus::EarlyStopped => "early-stopped",
            SiteStatus::Truncated => "truncated",
            SiteStatus::Quarantined(FailureKind::Panic) => "quarantined(panic)",
            SiteStatus::Quarantined(FailureKind::Timeout) => "quarantined(timeout)",
            SiteStatus::Unsampled => "unsampled",
        }
    }

    /// Whether the site's samples participate in SDC/detection rates.
    pub fn trusted(self) -> bool {
        !matches!(self, SiteStatus::Quarantined(_))
    }
}

#[derive(Default)]
struct SchedStats {
    planned: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
    exhausted: AtomicU64,
    quarantined_sites: AtomicU64,
    quarantined_injections: AtomicU64,
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
    pub retries: u64,
    pub recovered: u64,
    pub exhausted: u64,
    pub quarantined_sites: u64,
    pub quarantined_injections: u64,
    pub early_stopped_sites: u64,
    pub early_stop_skipped: u64,
    pub truncated: u64,
}

impl SchedSnapshot {
    /// Injections with a known fate. The zero-lost-injections invariant
    /// is `accounted() == planned`.
    pub fn accounted(&self) -> u64 {
        self.completed + self.quarantined_injections + self.early_stop_skipped + self.truncated
    }

    /// Fraction of planned work that yielded trustworthy information:
    /// completed and early-stopped injections count (an early stop means
    /// the estimate converged — nothing was lost), quarantined and
    /// deadline-truncated work does not. 1.0 when nothing was planned.
    pub fn completeness(&self) -> f64 {
        if self.planned == 0 {
            return 1.0;
        }
        let lost = self.truncated + self.quarantined_injections;
        (self.planned.saturating_sub(lost)) as f64 / self.planned as f64
    }

    pub fn merge(&mut self, other: &SchedSnapshot) {
        self.planned += other.planned;
        self.completed += other.completed;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.exhausted += other.exhausted;
        self.quarantined_sites += other.quarantined_sites;
        self.quarantined_injections += other.quarantined_injections;
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

    /// A scheduler with default knobs and no deadline — the drop-in for
    /// call sites that predate the scheduler.
    pub fn unbounded(cfg: SchedConfig) -> Scheduler {
        Scheduler::new(cfg, Deadline::none())
    }

    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.exceeded()
    }

    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Run one injection through the retry loop. `attempt_fn` is called
    /// with the attempt index (0-based); it must be deterministic in that
    /// index for campaign byte-identity to hold. Backoff sleeps are
    /// skipped once the deadline has expired (the attempt schedule — and
    /// therefore the outcome — does not change, only the waiting).
    pub fn run_task<T>(
        &self,
        kind: CampaignKind,
        site: u64,
        mut attempt_fn: impl FnMut(u32) -> AttemptResult<T>,
    ) -> TaskResult<T> {
        let mut attempt = 0u32;
        loop {
            match attempt_fn(attempt) {
                AttemptResult::Ok(value) => {
                    if attempt > 0 {
                        self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return TaskResult::Done {
                        value,
                        retries: attempt,
                    };
                }
                AttemptResult::Failed(reason) => {
                    if attempt >= self.cfg.max_retries {
                        self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
                        return TaskResult::Exhausted {
                            reason,
                            attempts: attempt + 1,
                        };
                    }
                    let delay = backoff_ms(
                        self.cfg.backoff_base_ms,
                        self.cfg.backoff_cap_ms,
                        site,
                        attempt,
                    );
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    if trace::active() {
                        trace::emit(trace::Event::RetryAttempt {
                            kind,
                            site,
                            attempt: u64::from(attempt),
                            backoff_ms: delay,
                            reason: reason.as_str().to_string(),
                        });
                    }
                    if delay > 0 && !self.deadline.exceeded() {
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Try to quarantine a site after `failures` consecutive exhausted
    /// injections. Returns `false` when the cap is reached — the caller
    /// must then record a plain `EngineError` outcome instead, so the
    /// quarantine list can never exceed the cap.
    pub fn try_quarantine(
        &self,
        kind: CampaignKind,
        site: u64,
        reason: FailureKind,
        failures: u32,
    ) -> bool {
        let mut n = self.stats.quarantined_sites.load(Ordering::Relaxed);
        loop {
            if n >= self.cfg.quarantine_cap {
                return false;
            }
            match self.stats.quarantined_sites.compare_exchange_weak(
                n,
                n + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => n = cur,
            }
        }
        if trace::active() {
            trace::emit(trace::Event::Quarantine {
                kind,
                site,
                failures: u64::from(failures),
                reason: reason.as_str().to_string(),
            });
        }
        true
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

    /// Injections discarded because their site was quarantined (the
    /// triggering injection plus everything not yet run there, or a whole
    /// site skipped on resume).
    pub fn note_quarantine_skipped(&self, n: u64) {
        self.stats
            .quarantined_injections
            .fetch_add(n, Ordering::Relaxed);
    }

    /// A previously-journaled quarantine honoured on resume: the site
    /// takes a cap slot (so resumed runs respect the same cap) but no
    /// fresh Quarantine event is emitted.
    pub fn note_resumed_quarantine(&self) {
        self.stats.quarantined_sites.fetch_add(1, Ordering::Relaxed);
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
    /// per call, so campaigns report their truncation once, aggregated.
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
            retries: self.stats.retries.load(Ordering::Relaxed),
            recovered: self.stats.recovered.load(Ordering::Relaxed),
            exhausted: self.stats.exhausted.load(Ordering::Relaxed),
            quarantined_sites: self.stats.quarantined_sites.load(Ordering::Relaxed),
            quarantined_injections: self.stats.quarantined_injections.load(Ordering::Relaxed),
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
            retries: s.retries,
            recovered: s.recovered,
            exhausted: s.exhausted,
            quarantined_sites: s.quarantined_sites,
            quarantined_injections: s.quarantined_injections,
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

    fn sched(cfg: SchedConfig) -> Scheduler {
        Scheduler::unbounded(cfg)
    }

    fn fast_cfg() -> SchedConfig {
        SchedConfig {
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn first_try_success_needs_no_retries() {
        let s = sched(fast_cfg());
        let r = s.run_task(CampaignKind::PerInst, 1, |_| AttemptResult::Ok(7u32));
        assert_eq!(
            r,
            TaskResult::Done {
                value: 7,
                retries: 0
            }
        );
        assert_eq!(s.snapshot().recovered, 0);
        assert_eq!(s.snapshot().retries, 0);
    }

    #[test]
    fn transient_failure_recovers_and_counts_once() {
        let s = sched(fast_cfg());
        let r = s.run_task(CampaignKind::PerInst, 1, |attempt| {
            if attempt < 2 {
                AttemptResult::Failed(FailureKind::Panic)
            } else {
                AttemptResult::Ok(42u32)
            }
        });
        assert_eq!(
            r,
            TaskResult::Done {
                value: 42,
                retries: 2
            }
        );
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.recovered, 1);
        assert_eq!(snap.exhausted, 0);
    }

    #[test]
    fn persistent_failure_exhausts_the_budget() {
        let s = sched(fast_cfg());
        let r: TaskResult<()> = s.run_task(CampaignKind::Program, 9, |_| {
            AttemptResult::Failed(FailureKind::Timeout)
        });
        assert_eq!(
            r,
            TaskResult::Exhausted {
                reason: FailureKind::Timeout,
                attempts: 3
            }
        );
        assert_eq!(s.snapshot().exhausted, 1);
        assert_eq!(s.snapshot().retries, 2);
    }

    #[test]
    fn zero_retries_restores_fail_fast() {
        let s = sched(SchedConfig {
            max_retries: 0,
            ..fast_cfg()
        });
        let r: TaskResult<()> = s.run_task(CampaignKind::Program, 0, |_| {
            AttemptResult::Failed(FailureKind::Panic)
        });
        assert_eq!(
            r,
            TaskResult::Exhausted {
                reason: FailureKind::Panic,
                attempts: 1
            }
        );
    }

    #[test]
    fn quarantine_respects_the_cap() {
        let s = sched(SchedConfig {
            quarantine_cap: 2,
            ..fast_cfg()
        });
        assert!(s.try_quarantine(CampaignKind::PerInst, 1, FailureKind::Panic, 2));
        assert!(s.try_quarantine(CampaignKind::PerInst, 2, FailureKind::Panic, 2));
        assert!(!s.try_quarantine(CampaignKind::PerInst, 3, FailureKind::Panic, 2));
        assert_eq!(s.snapshot().quarantined_sites, 2);
    }

    #[test]
    fn early_stop_is_off_by_default() {
        let s = sched(SchedConfig::default());
        assert_eq!(s.early_stop(0, 1000), None);
    }

    #[test]
    fn early_stop_fires_once_the_interval_is_tight() {
        let s = sched(SchedConfig {
            ci_half_width: 0.05,
            ..fast_cfg()
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
        let s = sched(fast_cfg());
        s.add_planned(100);
        s.note_completed(60);
        s.note_quarantine_skipped(10);
        s.note_early_stop(CampaignKind::PerInst, 3, 12, 0.04, 25);
        s.note_truncated(CampaignKind::PerInst, 5);
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        // completeness loses the quarantined and truncated work only
        assert!((snap.completeness() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_complete() {
        let s = sched(SchedConfig::default());
        assert_eq!(s.snapshot().completeness(), 1.0);
        assert_eq!(s.snapshot().accounted(), 0);
    }

    #[test]
    fn snapshots_merge_fieldwise() {
        let s = sched(fast_cfg());
        s.add_planned(10);
        s.note_completed(10);
        let mut a = s.snapshot();
        a.merge(&s.snapshot());
        assert_eq!(a.planned, 20);
        assert_eq!(a.completed, 20);
    }
}
