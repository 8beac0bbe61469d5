//! One validated builder for campaign knobs, shared by every front end.
//!
//! The CLI, the bench binaries and the examples all accept the same
//! campaign vocabulary (`--injections`, `--per-inst`, `--threads`,
//! checkpoint flags and `--deadline-secs`). Before
//! this module each front end re-parsed and re-validated its own subset,
//! and the validation rules drifted. [`CampaignConfigBuilder`] is the
//! single place those rules live: construct one (or parse one with
//! [`CampaignConfigBuilder::from_flags`]), chain validated setters, then
//! [`build`](CampaignConfigBuilder::build) the [`CampaignConfig`].
//!
//! Validation philosophy, inherited from the CLI: a knob whose zero value
//! silently produces an empty campaign (`injections`, `per-inst`,
//! `threads`) rejects zero; a knob where zero is a
//! meaningful mode (`deadline-secs` = already expired) accepts it.
//!
//! The deadline rides on the builder but **not** on the built config: it
//! bounds how much work runs, never what that work computes, so it stays
//! out of the journal fingerprint and is handed to the
//! [`Scheduler`](minpsid_sched::Scheduler) separately via
//! [`deadline_secs`](CampaignConfigBuilder::deadline_secs).

use crate::campaign::{CampaignConfig, CheckpointPolicy};

/// Builder for [`CampaignConfig`] with every validation rule in one
/// place. Setters take raw values and reject invalid ones with the same
/// messages the CLI shows, so front ends can surface them verbatim.
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
    deadline_secs: Option<f64>,
}

impl CampaignConfigBuilder {
    /// Full-size campaign (paper defaults) with the given seed.
    pub fn new(seed: u64) -> Self {
        CampaignConfigBuilder {
            cfg: CampaignConfig {
                seed,
                ..CampaignConfig::default()
            },
            deadline_secs: None,
        }
    }

    /// Scaled-down preset for smoke tests and tiny experiments.
    pub fn quick(seed: u64) -> Self {
        CampaignConfigBuilder {
            cfg: CampaignConfig::quick(seed),
            deadline_secs: None,
        }
    }

    /// Whole-program campaign size (zero would be an empty campaign).
    pub fn injections(mut self, n: u64) -> Result<Self, String> {
        if n == 0 {
            return Err("bad --injections `0` (want a positive campaign size)".into());
        }
        self.cfg.injections = n as usize;
        Ok(self)
    }

    /// Per-static-instruction campaign size (zero would sample nothing).
    pub fn per_inst_injections(mut self, n: u64) -> Result<Self, String> {
        if n == 0 {
            return Err("bad --per-inst `0` (want a positive per-instruction count)".into());
        }
        self.cfg.per_inst_injections = n as usize;
        Ok(self)
    }

    /// Worker thread count (zero would execute nothing; campaigns are
    /// byte-identical at any thread count, so this is purely a
    /// throughput knob).
    pub fn threads(mut self, n: u64) -> Result<Self, String> {
        if n == 0 {
            return Err("bad --threads `0` (want a positive worker count)".into());
        }
        self.cfg.threads = n as usize;
        Ok(self)
    }

    /// Disable checkpointing; every injection replays from scratch.
    pub fn no_checkpoints(mut self) -> Self {
        self.cfg.checkpoints = CheckpointPolicy::Disabled;
        self
    }

    /// Snapshot count cap under [`CheckpointPolicy::Auto`]. Zero would
    /// silently disable checkpointing while the policy claims otherwise;
    /// use [`no_checkpoints`](Self::no_checkpoints) for that.
    pub fn max_checkpoints(mut self, n: u64) -> Result<Self, String> {
        if n == 0 {
            return Err(
                "bad --max-checkpoints `0` (want a positive cap, or --no-checkpoints)".into(),
            );
        }
        self.cfg.max_checkpoints = n;
        Ok(self)
    }

    /// Global wall-clock budget in seconds; 0 means already expired
    /// (truncate everything), which is allowed.
    pub fn deadline_secs(mut self, d: f64) -> Result<Self, String> {
        if !d.is_finite() || d < 0.0 {
            return Err(format!(
                "bad --deadline-secs `{d}` (want a non-negative number)"
            ));
        }
        self.deadline_secs = Some(d);
        Ok(self)
    }

    /// Parse the shared campaign flag vocabulary out of `rest` (flags
    /// irrelevant to campaigns are ignored, so front ends can mix their
    /// own flags in freely): `--seed`, `--quick`, `--injections`,
    /// `--per-inst`, `--threads`, `--no-checkpoints` and
    /// `--deadline-secs`.
    pub fn from_flags(rest: &[String]) -> Result<Self, String> {
        let seed = match flag_value(rest, "--seed")? {
            None => 42,
            Some(v) => v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
        };
        let mut b = if rest.iter().any(|a| a == "--quick") {
            CampaignConfigBuilder::quick(seed)
        } else {
            CampaignConfigBuilder::new(seed)
        };
        if rest.iter().any(|a| a == "--no-checkpoints") {
            b = b.no_checkpoints();
        }
        if let Some(n) = parse_u64(rest, "--injections")? {
            b = b.injections(n)?;
        }
        if let Some(n) = parse_u64(rest, "--per-inst")? {
            b = b.per_inst_injections(n)?;
        }
        if let Some(n) = parse_u64(rest, "--threads")? {
            b = b.threads(n)?;
        }
        if let Some(v) = flag_value(rest, "--deadline-secs")? {
            let d: f64 = v
                .parse()
                .map_err(|_| format!("bad --deadline-secs `{v}` (want a non-negative number)"))?;
            b = b.deadline_secs(d)?;
        }
        Ok(b)
    }

    /// The deadline this builder carries, if any (not part of the built
    /// config — hand it to the scheduler).
    pub fn deadline(&self) -> Option<f64> {
        self.deadline_secs
    }

    /// Finish the builder.
    pub fn build(self) -> CampaignConfig {
        self.cfg
    }
}

/// `--flag value` lookup over a raw argument slice: `Ok(None)` when the
/// flag is absent, a usage error when it is there without its value —
/// last on the line, or followed by another `--flag` (a value may start
/// with a single `-`: `--level -0.1` is a value, and a bad one).
pub fn flag_value(rest: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = rest.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match rest.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{flag} needs a value")),
    }
}

fn parse_u64(rest: &[String], flag: &str) -> Result<Option<u64>, String> {
    match flag_value(rest, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("bad {flag} `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_match_campaign_config() {
        let b = CampaignConfigBuilder::from_flags(&args(&[])).unwrap();
        assert_eq!(b.deadline(), None);
        let c = b.build();
        let d = CampaignConfig::default();
        assert_eq!(c.injections, d.injections);
        assert_eq!(c.per_inst_injections, d.per_inst_injections);
        assert_eq!(c.seed, 42);
        assert_eq!(c.checkpoints, CheckpointPolicy::Auto);
        assert_eq!(c.sched, d.sched);
    }

    #[test]
    fn zero_rejecting_knobs_reject_zero() {
        assert!(CampaignConfigBuilder::new(1).injections(0).is_err());
        assert!(CampaignConfigBuilder::new(1)
            .per_inst_injections(0)
            .is_err());
        assert!(CampaignConfigBuilder::new(1).threads(0).is_err());
    }

    #[test]
    fn zero_meaning_knobs_accept_zero() {
        let b = CampaignConfigBuilder::from_flags(&args(&["--deadline-secs", "0"])).unwrap();
        assert_eq!(b.deadline(), Some(0.0));
        // the deadline bounds the run, it is not part of the config
        assert_eq!(
            format!("{:?}", b.build()),
            format!("{:?}", CampaignConfigBuilder::new(42).build())
        );
    }

    #[test]
    fn threads_flag_is_part_of_the_shared_vocabulary() {
        let c = CampaignConfigBuilder::from_flags(&args(&["--threads", "4"]))
            .unwrap()
            .build();
        assert_eq!(c.threads, 4);
        assert!(CampaignConfigBuilder::from_flags(&args(&["--threads", "0"])).is_err());
        assert!(CampaignConfigBuilder::from_flags(&args(&["--threads", "abc"])).is_err());
    }

    #[test]
    fn deadline_allows_zero_and_rejects_nonsense() {
        assert_eq!(
            CampaignConfigBuilder::new(1)
                .deadline_secs(0.0)
                .unwrap()
                .deadline(),
            Some(0.0),
            "an already-expired budget is allowed (truncate everything)"
        );
        assert!(CampaignConfigBuilder::new(1).deadline_secs(-1.0).is_err());
        assert!(CampaignConfigBuilder::new(1)
            .deadline_secs(f64::INFINITY)
            .is_err());
        assert!(CampaignConfigBuilder::from_flags(&args(&["--deadline-secs", "soon"])).is_err());
    }

    #[test]
    fn quick_preset_shrinks_campaigns() {
        let q = CampaignConfigBuilder::from_flags(&args(&["--quick", "--seed", "7"]))
            .unwrap()
            .build();
        assert!(q.injections < CampaignConfig::default().injections);
        assert_eq!(q.seed, 7);
    }
}
