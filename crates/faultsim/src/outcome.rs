//! Fault outcome taxonomy and classification.

use minpsid_interp::{ExecResult, Output, Termination};

/// What a single injected fault did to the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Fault masked: normal exit, output bit-identical to golden.
    Benign,
    /// Silent data corruption: normal exit, output differs.
    Sdc,
    /// Trap (out-of-bounds, division by zero, …).
    Crash,
    /// Step/output budget exceeded.
    Hang,
    /// A duplication check fired.
    Detected,
}

impl Outcome {
    /// Stable byte encoding used by the campaign journal and the sealed
    /// outcome tables. Byte 5 is reserved: it was `EngineError`, the
    /// retry scheduler's "harness failed" verdict removed in PR 22, and
    /// is never reused.
    pub fn to_u8(self) -> u8 {
        match self {
            Outcome::Benign => 0,
            Outcome::Sdc => 1,
            Outcome::Crash => 2,
            Outcome::Hang => 3,
            Outcome::Detected => 4,
        }
    }

    /// Inverse of [`Outcome::to_u8`]; `None` for every other byte, the
    /// reserved 5 included — a journal or table miss, so the injection
    /// simply runs.
    pub fn from_u8(b: u8) -> Option<Outcome> {
        Some(match b {
            0 => Outcome::Benign,
            1 => Outcome::Sdc,
            2 => Outcome::Crash,
            3 => Outcome::Hang,
            4 => Outcome::Detected,
            _ => return None,
        })
    }
}

/// Classify a faulty run against the golden output.
pub fn classify(golden_output: &Output, faulty: &ExecResult) -> Outcome {
    match faulty.termination {
        Termination::Trap(_) => Outcome::Crash,
        Termination::StepLimit => Outcome::Hang,
        Termination::Detected => Outcome::Detected,
        Termination::Exit => {
            if faulty.output == *golden_output {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Aggregated outcome counts of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    pub benign: u64,
    pub sdc: u64,
    pub crash: u64,
    pub hang: u64,
    pub detected: u64,
}

impl OutcomeCounts {
    pub fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Benign => self.benign += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Hang => self.hang += 1,
            Outcome::Detected => self.detected += 1,
        }
    }

    /// Injections classified — the denominator for SDC/detection rates.
    pub fn total(&self) -> u64 {
        self.benign + self.sdc + self.crash + self.hang + self.detected
    }

    /// SDC probability: SDCs per manifested fault (paper §II-A).
    pub fn sdc_prob(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.sdc as f64 / t as f64
        }
    }

    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.benign += other.benign;
        self.sdc += other.sdc;
        self.crash += other.crash;
        self.hang += other.hang;
        self.detected += other.detected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::{OutputItem, Termination, TrapKind};

    fn result(term: Termination, out: Vec<OutputItem>) -> ExecResult {
        ExecResult {
            termination: term,
            output: Output { items: out },
            profile: None,
            steps: 10,
            fault_applied: true,
            ret: None,
            trace: None,
            resumed_at: None,
            converged_at: None,
            hang_proved_at: None,
        }
    }

    #[test]
    fn classification_covers_all_terminations() {
        let golden = Output {
            items: vec![OutputItem::I(7)],
        };
        assert_eq!(
            classify(&golden, &result(Termination::Exit, vec![OutputItem::I(7)])),
            Outcome::Benign
        );
        assert_eq!(
            classify(&golden, &result(Termination::Exit, vec![OutputItem::I(8)])),
            Outcome::Sdc
        );
        assert_eq!(
            classify(
                &golden,
                &result(Termination::Trap(TrapKind::OutOfBounds), vec![])
            ),
            Outcome::Crash
        );
        assert_eq!(
            classify(&golden, &result(Termination::StepLimit, vec![])),
            Outcome::Hang
        );
        assert_eq!(
            classify(&golden, &result(Termination::Detected, vec![])),
            Outcome::Detected
        );
    }

    #[test]
    fn truncated_output_is_sdc() {
        let golden = Output {
            items: vec![OutputItem::I(1), OutputItem::I(2)],
        };
        assert_eq!(
            classify(&golden, &result(Termination::Exit, vec![OutputItem::I(1)])),
            Outcome::Sdc
        );
    }

    #[test]
    fn counts_accumulate_and_merge() {
        let mut a = OutcomeCounts::default();
        a.record(Outcome::Sdc);
        a.record(Outcome::Sdc);
        a.record(Outcome::Benign);
        a.record(Outcome::Crash);
        assert_eq!(a.total(), 4);
        assert_eq!(a.sdc_prob(), 0.5);

        let mut b = OutcomeCounts::default();
        b.record(Outcome::Detected);
        b.merge(&a);
        assert_eq!(b.total(), 5);
    }

    #[test]
    fn outcome_byte_encoding_round_trips() {
        for o in [
            Outcome::Benign,
            Outcome::Sdc,
            Outcome::Crash,
            Outcome::Hang,
            Outcome::Detected,
        ] {
            assert_eq!(Outcome::from_u8(o.to_u8()), Some(o));
        }
        assert_eq!(Outcome::from_u8(5), None, "reserved, not reused");
        assert_eq!(Outcome::from_u8(6), None);
        assert_eq!(Outcome::from_u8(255), None);
    }

    #[test]
    fn empty_counts_have_zero_probabilities() {
        let c = OutcomeCounts::default();
        assert_eq!(c.sdc_prob(), 0.0);
    }
}
