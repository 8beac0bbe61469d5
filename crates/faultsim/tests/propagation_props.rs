//! Property and consistency tests for the error-propagation analysis:
//! the trace diff must agree with the campaign-level outcome
//! classification for the same fault.

use minpsid_faultsim::{classify, trace_fault, Outcome};
use minpsid_interp::{ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput, Scalar};
use proptest::prelude::*;

fn module() -> minpsid_ir::Module {
    minic::compile(
        r#"
        fn main() {
            let n = arg_i(0);
            let acc = 0;
            for i = 0 to n {
                if i % 3 == 0 { acc = acc + i * 2; } else { acc = acc - 1; }
            }
            out_i(acc);
        }
        "#,
        "prop-prop",
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The propagation report's outcome equals direct classification of
    /// the same faulty run, and its divergence structure is consistent
    /// with it: SDC/Crash/Hang require a divergence; a Benign outcome
    /// with identical traces has zero corrupted writes.
    #[test]
    fn report_outcome_matches_direct_classification(
        n in 5i64..40,
        nth in 0u64..200,
        bit in 0u32..64,
    ) {
        let m = module();
        let input = ProgInput::scalars(vec![Scalar::I(n)]);
        let interp = Interp::new(&m, ExecConfig::default());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };

        let report = trace_fault(&m, &input, fault, &golden.output, golden.steps * 10);
        let direct = classify(&golden.output, &interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault));
        prop_assert_eq!(report.outcome, direct);

        match report.outcome {
            Outcome::Sdc | Outcome::Crash | Outcome::Hang | Outcome::Detected => {
                prop_assert!(
                    report.first_divergence.is_some(),
                    "a non-benign outcome implies a trace divergence"
                );
            }
            Outcome::Benign => {
                if report.first_divergence.is_none() {
                    prop_assert_eq!(report.corrupted_writes, 0);
                }
                // else: locally corrupted but masked before the output —
                // the canonical benign-with-footprint case
            }
        }
        prop_assert!(report.corruption_density() <= 1.0);
    }
}

#[test]
fn masked_faults_can_still_have_a_footprint() {
    // flipping a low bit of a value that is later multiplied by zero (or
    // overwritten) corrupts intermediate writes but not the output; scan
    // for at least one such benign-with-divergence case
    let m = module();
    let input = ProgInput::scalars(vec![Scalar::I(30)]);
    let interp = Interp::new(&m, ExecConfig::default());
    let golden = interp.run(&input);
    let mut found = false;
    for nth in 0..150 {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(nth),
            bit: 0,
        };
        let r = trace_fault(&m, &input, fault, &golden.output, golden.steps * 10);
        if r.outcome == Outcome::Benign && r.first_divergence.is_some() {
            found = true;
            assert!(r.corrupted_writes > 0);
            break;
        }
    }
    assert!(found, "some low-bit flips must be masked after propagating");
}
