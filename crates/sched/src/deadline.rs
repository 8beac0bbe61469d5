//! Wall-clock deadlines for graceful campaign degradation.
//!
//! A [`Deadline`] is a point in time past which the scheduler stops
//! *starting* work. It never aborts an injection mid-flight — outcomes
//! already earned are kept — so a deadline produces a truncated-but-valid
//! report instead of a dead process. Deadlines intentionally live outside
//! every config fingerprint: resuming a truncated journal with a looser
//! (or no) deadline must converge on the exact full-run report.

use std::time::{Duration, Instant};

/// An optional wall-clock budget. `none()` never expires.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: Option<Instant>,
}

impl Deadline {
    /// No deadline: `exceeded()` is always false.
    pub fn none() -> Deadline {
        Deadline { end: None }
    }

    /// Expires `budget` from now. A zero budget is already expired, which
    /// tests use to force deterministic full truncation; a budget past
    /// what the clock can represent never expires.
    pub fn within(budget: Duration) -> Deadline {
        Deadline {
            end: Instant::now().checked_add(budget),
        }
    }

    /// Convenience for CLI plumbing: `None` ⇒ no deadline, and so is a
    /// budget too large to be a `Duration` (the value is unchecked user
    /// input; `1e300` seconds is "never", not a panic).
    pub fn from_secs(secs: Option<f64>) -> Deadline {
        match secs.map(|s| Duration::try_from_secs_f64(s.max(0.0))) {
            Some(Ok(budget)) => Deadline::within(budget),
            Some(Err(_)) | None => Deadline::none(),
        }
    }

    pub fn exceeded(&self) -> bool {
        match self.end {
            Some(end) => Instant::now() >= end,
            None => false,
        }
    }

    /// Time left, `None` when unbounded. Saturates at zero once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.end
            .map(|end| end.saturating_duration_since(Instant::now()))
    }

    pub fn is_bounded(&self) -> bool {
        self.end.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.exceeded());
        assert!(!d.is_bounded());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn zero_budget_is_already_expired() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.exceeded());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_budget_is_not_expired() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.exceeded());
        assert!(d.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn unrepresentable_budgets_never_expire() {
        // 1e19 s fits a Duration but not an Instant; 1e300 fits neither
        for secs in [1e19, 1e300, f64::MAX, f64::INFINITY] {
            let d = Deadline::from_secs(Some(secs));
            assert!(!d.exceeded(), "{secs}");
            assert!(!d.is_bounded(), "{secs}");
        }
        assert!(!Deadline::within(Duration::MAX).is_bounded());
    }

    #[test]
    fn from_secs_maps_none_to_unbounded() {
        assert!(!Deadline::from_secs(None).is_bounded());
        assert!(Deadline::from_secs(Some(0.0)).exceeded());
    }
}
