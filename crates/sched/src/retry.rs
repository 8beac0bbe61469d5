//! Retry policy: exponential backoff with deterministic jitter.
//!
//! Backoff delays are real (the thread sleeps) but bounded and tiny by
//! default — engine failures here are panics and wall-clock blowouts, not
//! remote-service throttling, so the delay exists to decorrelate retries
//! from transient host pressure, not to be polite. Jitter is derived from
//! the site key with splitmix64, never from the clock or a global RNG:
//! the same campaign seed always produces the same delay schedule, which
//! keeps chaos-knob runs byte-identical across repeats.

/// Why an injection attempt failed inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The worker panicked (caught at the injection boundary).
    Panic,
    /// The per-injection wall-clock budget blew.
    Timeout,
}

impl FailureKind {
    /// Stable byte encoding used by the journal's quarantine records.
    /// Byte 2 is reserved: it was `PoisonedShard`, written by the process
    /// fleet removed in PR 19, and is never reused.
    pub fn to_u8(self) -> u8 {
        match self {
            FailureKind::Panic => 0,
            FailureKind::Timeout => 1,
        }
    }

    /// Inverse of [`FailureKind::to_u8`]; `None` for every other byte,
    /// the reserved 2 included (the engine then falls back to `Panic`).
    pub fn from_u8(b: u8) -> Option<FailureKind> {
        match b {
            0 => Some(FailureKind::Panic),
            1 => Some(FailureKind::Timeout),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer. Used for every
/// deterministic "random-looking" decision in the scheduler (jitter,
/// chaos failure plans) so no state is carried between calls.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Exponential backoff with deterministic jitter: attempt `a` waits
/// `min(base << a, cap)` plus a jitter in `[0, base]` keyed on
/// `(site, attempt)`. Milliseconds.
pub fn backoff_ms(base_ms: u64, cap_ms: u64, site: u64, attempt: u32) -> u64 {
    let exp = base_ms.saturating_shl(attempt);
    let jitter_span = base_ms.max(1);
    let jitter =
        splitmix64(site ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03)) % jitter_span;
    exp.min(cap_ms).saturating_add(jitter)
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if n >= 64 || self > (u64::MAX >> n) {
            u64::MAX
        } else {
            self << n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kind_bytes_round_trip() {
        for k in [FailureKind::Panic, FailureKind::Timeout] {
            assert_eq!(FailureKind::from_u8(k.to_u8()), Some(k));
        }
        assert_eq!(FailureKind::from_u8(2), None, "reserved, not reused");
        assert_eq!(FailureKind::from_u8(3), None);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let b0 = backoff_ms(4, 64, 7, 0);
        let b3 = backoff_ms(4, 64, 7, 3);
        let b40 = backoff_ms(4, 64, 7, 40);
        assert!(b0 < b3, "{b0} vs {b3}");
        // cap + max jitter
        assert!(b40 <= 64 + 4, "{b40}");
    }

    #[test]
    fn backoff_is_deterministic_per_site_and_attempt() {
        assert_eq!(backoff_ms(1, 50, 42, 1), backoff_ms(1, 50, 42, 1));
        // different sites jitter differently at least somewhere
        let distinct = (0..32).any(|s| backoff_ms(8, 50, s, 0) != backoff_ms(8, 50, s + 1, 0));
        assert!(distinct);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        assert!(backoff_ms(u64::MAX, u64::MAX, 0, 63) >= u64::MAX - 1);
        let _ = backoff_ms(2, 100, u64::MAX, u32::MAX);
    }

    #[test]
    fn splitmix_spreads_consecutive_keys() {
        assert_ne!(splitmix64(1), splitmix64(2));
        // low bits must vary across nearby keys (they drive chaos plans)
        let low: std::collections::HashSet<u64> = (0..16).map(|k| splitmix64(k) & 3).collect();
        assert!(low.len() > 1, "low bits stuck at one value");
    }
}
