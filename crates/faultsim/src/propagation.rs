//! Error-propagation analysis: run a fault side by side with the golden
//! execution and report how the corruption spreads through the dataflow.
//!
//! This is the §IV root-cause methodology made executable: the paper
//! identified incubative instructions by asking *which instructions lead
//! to SDCs under which inputs*; this module answers the finer-grained
//! question of *which values a single fault corrupts on its way to the
//! output* — the same style of analysis as the error-propagation studies
//! the paper builds on (Li et al., DSN'18).

use crate::outcome::{classify, Outcome};
use minpsid_interp::{ExecConfig, ExecScratch, Interp, Output, ProgInput, Run, TraceEvent, Value};
use minpsid_ir::{GlobalInstId, Module};
use std::collections::BTreeSet;

/// How one fault propagated.
#[derive(Debug, Clone)]
pub struct PropagationReport {
    /// Final outcome of the faulty run.
    pub outcome: Outcome,
    /// Position in the register-write trace where the faulty run first
    /// deviates from the golden run (`None` if the traces are identical —
    /// the fault was locally masked).
    pub first_divergence: Option<usize>,
    /// Static instructions (dense indices) that produced at least one
    /// differing value — the fault's dataflow footprint.
    pub corrupted_insts: Vec<usize>,
    /// Dynamic register writes that differ (or exist in only one trace).
    pub corrupted_writes: usize,
    /// Lengths of the two traces (they differ when control flow diverged).
    pub golden_len: usize,
    pub faulty_len: usize,
}

impl PropagationReport {
    /// Fraction of aligned write positions that differ between the runs
    /// (a faulty run can be shorter *or* longer than the golden one when
    /// control flow diverges, so the denominator is the longer trace).
    pub fn corruption_density(&self) -> f64 {
        let denom = self.golden_len.max(self.faulty_len);
        if denom == 0 {
            0.0
        } else {
            self.corrupted_writes as f64 / denom as f64
        }
    }
}

fn value_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (a, b) => a == b,
    }
}

/// Trace the propagation of `fault` through `(module, input)`.
///
/// Both runs execute with tracing enabled; the traces are compared
/// positionally up to the first divergence and as per-instruction write
/// multisets afterwards (positional alignment is meaningless once control
/// flow has diverged).
pub fn trace_fault(
    module: &Module,
    input: &ProgInput,
    fault: minpsid_interp::FaultSpec,
    golden_output: &Output,
    step_limit: u64,
) -> PropagationReport {
    let exec = ExecConfig {
        trace: true,
        step_limit,
        ..ExecConfig::default()
    };
    let interp = Interp::new(module, exec);
    let golden = interp.run(input);
    let faulty = interp.execute(
        &mut ExecScratch::default(),
        &Run {
            fault: Some(fault),
            ..Run::new(input)
        },
    );
    let outcome = classify(golden_output, &faulty);

    let gt = golden.trace.expect("tracing enabled");
    let ft = faulty.trace.expect("tracing enabled");

    let mut first_divergence = None;
    for (i, (g, f)) in gt.iter().zip(ft.iter()).enumerate() {
        if g.dense != f.dense || !value_eq(g.value, f.value) {
            first_divergence = Some(i);
            break;
        }
    }
    if first_divergence.is_none() && gt.len() != ft.len() {
        first_divergence = Some(gt.len().min(ft.len()));
    }

    let (corrupted_insts, corrupted_writes) = match first_divergence {
        None => (Vec::new(), 0),
        Some(at) => diff_tails(&gt[at..], &ft[at..]),
    };

    PropagationReport {
        outcome,
        first_divergence,
        corrupted_insts,
        corrupted_writes,
        golden_len: gt.len(),
        faulty_len: ft.len(),
    }
}

/// Compare trace tails: positionally where instruction streams still
/// align, and by presence where they do not.
fn diff_tails(golden: &[TraceEvent], faulty: &[TraceEvent]) -> (Vec<usize>, usize) {
    let mut insts = BTreeSet::new();
    let mut writes = 0usize;
    let n = golden.len().max(faulty.len());
    for i in 0..n {
        match (golden.get(i), faulty.get(i)) {
            (Some(g), Some(f)) => {
                if g.dense != f.dense || !value_eq(g.value, f.value) {
                    insts.insert(f.dense as usize);
                    writes += 1;
                }
            }
            (None, Some(f)) => {
                insts.insert(f.dense as usize);
                writes += 1;
            }
            (Some(_), None) => {
                writes += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (insts.into_iter().collect(), writes)
}

/// Human-readable rendering of a report against the module.
pub fn render_report(module: &Module, report: &PropagationReport) -> String {
    use std::fmt::Write as _;
    let numbering = module.numbering();
    let mut out = String::new();
    let _ = writeln!(out, "outcome: {:?}", report.outcome);
    match report.first_divergence {
        None => {
            let _ = writeln!(out, "no divergence: the fault was masked before any write");
        }
        Some(at) => {
            let _ = writeln!(
                out,
                "first divergence at write {at} of {} (faulty run: {} writes)",
                report.golden_len, report.faulty_len
            );
            let _ = writeln!(
                out,
                "corrupted writes: {} ({:.2}% of the run)",
                report.corrupted_writes,
                report.corruption_density() * 100.0
            );
            let _ = writeln!(out, "instructions that produced corrupted values:");
            for &dense in report.corrupted_insts.iter().take(20) {
                let gid: GlobalInstId = numbering.id_of(dense);
                let func = module.func(gid.func);
                let _ = writeln!(
                    out,
                    "  [{dense}] {}::{}",
                    func.name,
                    minpsid_ir::printer::print_inst(func, gid.inst)
                );
            }
            if report.corrupted_insts.len() > 20 {
                let _ = writeln!(out, "  ... and {} more", report.corrupted_insts.len() - 20);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::{FaultSpec, FaultTarget, Scalar};

    fn module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                for i = 0 to n {
                    acc = acc + i * i;
                }
                out_i(acc);
            }
            "#,
            "prop-test",
        )
        .unwrap()
    }

    fn golden_output(m: &Module, input: &ProgInput) -> Output {
        Interp::new(m, ExecConfig::default()).run(input).output
    }

    #[test]
    fn corrupting_the_accumulator_propagates_to_the_output() {
        let m = module();
        let input = ProgInput::scalars(vec![Scalar::I(20)]);
        let golden = golden_output(&m, &input);
        // hit an early dynamic instruction with a high bit
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(30),
            bit: 40,
        };
        let r = trace_fault(&m, &input, fault, &golden, 1_000_000);
        assert!(r.first_divergence.is_some(), "the flip must surface");
        assert!(r.corrupted_writes > 0);
        assert!(!r.corrupted_insts.is_empty());
        let rendered = render_report(&m, &r);
        assert!(rendered.contains("first divergence"));
    }

    #[test]
    fn fault_past_the_trace_is_fully_masked() {
        let m = module();
        let input = ProgInput::scalars(vec![Scalar::I(5)]);
        let golden = golden_output(&m, &input);
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(10_000_000),
            bit: 1,
        };
        let r = trace_fault(&m, &input, fault, &golden, 1_000_000);
        assert_eq!(r.outcome, Outcome::Benign);
        assert_eq!(r.first_divergence, None);
        assert_eq!(r.corrupted_writes, 0);
    }

    #[test]
    fn sdc_outcomes_show_nonzero_corruption_density() {
        let m = module();
        let input = ProgInput::scalars(vec![Scalar::I(30)]);
        let golden = golden_output(&m, &input);
        // scan a few faults; at least one must be an SDC with density > 0
        let mut found_sdc = false;
        for nth in 0..40 {
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: 35,
            };
            let r = trace_fault(&m, &input, fault, &golden, 10_000_000);
            if r.outcome == Outcome::Sdc {
                found_sdc = true;
                assert!(r.corruption_density() > 0.0);
            }
        }
        assert!(found_sdc, "high-bit flips on a live accumulator cause SDCs");
    }

    #[test]
    fn traces_align_when_control_flow_is_unchanged() {
        let m = module();
        let input = ProgInput::scalars(vec![Scalar::I(10)]);
        let golden = golden_output(&m, &input);
        // a low bit on the accumulator: value corruption, same paths
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(25),
            bit: 2,
        };
        let r = trace_fault(&m, &input, fault, &golden, 1_000_000);
        assert_eq!(r.golden_len, r.faulty_len, "same control flow");
    }
}
