//! Quickstart: compile a program, inject faults, protect it with SID,
//! and watch the protection detect what used to be silent corruption.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use minpsid_repro::faultsim::{golden_run, program_campaign, CampaignConfig};
use minpsid_repro::interp::{ExecConfig, Interp, ProgInput, Scalar};
use minpsid_repro::sid::{run_sid, SidConfig};

fn main() {
    // 1. A small HPC-ish kernel in minic: dot product with a reduction.
    let source = r#"
        fn main() {
            let n = arg_i(0);
            let acc = 0.0;
            for i = 0 to n {
                let x = float(i) * 0.5;
                let y = float(n - i);
                acc = acc + x * y;
            }
            out_f(acc);
        }
    "#;
    let module = minpsid_repro::minic::compile(source, "quickstart").expect("compiles");
    println!(
        "compiled `quickstart`: {} static instructions",
        module.num_insts()
    );

    // 2. Run it.
    let input = ProgInput::scalars(vec![Scalar::I(500)]);
    let result = Interp::new(&module, ExecConfig::default()).run(&input);
    println!(
        "golden output: {} ({} dynamic instructions)",
        result.output.items[0], result.steps
    );

    // 3. Fault-injection campaign on the unprotected program.
    let campaign = CampaignConfig {
        injections: 500,
        seed: 1,
        ..CampaignConfig::default()
    };
    let golden = golden_run(&module, &input, &campaign).unwrap();
    let unprotected = program_campaign(&module, &input, &golden, &campaign);
    println!(
        "unprotected: {} SDCs / {} injections (P_sdc = {:.1}%)",
        unprotected.counts.sdc,
        unprotected.counts.total(),
        unprotected.sdc_prob() * 100.0
    );

    // 4. Protect with baseline SID at a 50% budget and re-measure.
    let sid = run_sid(
        &module,
        &input,
        &SidConfig {
            protection_level: 0.5,
            campaign: campaign.clone(),
        },
    )
    .unwrap();
    println!(
        "SID selected {} instructions ({} duplicates, {} checks), expected coverage {:.1}%",
        sid.selection.iter().filter(|&&s| s).count(),
        sid.meta.num_dups,
        sid.meta.num_checks,
        sid.expected_coverage * 100.0
    );

    let golden_p = golden_run(&sid.protected, &input, &campaign).unwrap();
    assert_eq!(
        golden.output, golden_p.output,
        "protection preserves semantics"
    );
    let protected = program_campaign(&sid.protected, &input, &golden_p, &campaign);
    println!(
        "protected:   {} SDCs, {} detected / {} injections (P_sdc = {:.1}%)",
        protected.counts.sdc,
        protected.counts.detected,
        protected.counts.total(),
        protected.sdc_prob() * 100.0
    );
    let coverage = 1.0 - protected.sdc_prob() / unprotected.sdc_prob().max(1e-12);
    println!(
        "measured SDC coverage on this input: {:.1}%",
        coverage * 100.0
    );
}
