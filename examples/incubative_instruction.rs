//! The paper's Fig. 3, live: an `icmp` whose SDC probability is ~0 under
//! one input and large under another — an *incubative instruction*.
//!
//! The kernel compares a data-derived value against 50, exactly like the
//! paper's `%11 > 50`. Under the reference input the value is a small
//! *negative* number: flipping any single bit of a negative two's-
//! complement word keeps it negative except the sign bit, so the branch
//! almost never inverts and faults on the operand mask (paper: "it is
//! difficult for a bit-flip to modify it to a positive value greater
//! than 50"). Under the second input the value is a small positive number
//! below 50, where every high-bit flip pushes it across the threshold →
//! SDC. The operand-producing instruction is incubative.
//!
//! ```text
//! cargo run --release --example incubative_instruction
//! ```

use minpsid_repro::faultsim::{golden_run, per_instruction_campaign, CampaignConfig};
use minpsid_repro::interp::{ProgInput, Stream};
use minpsid_repro::ir::printer::print_inst;
use minpsid_repro::ir::InstKind;
use minpsid_repro::minpsid::{incubative_between, IncubativeConfig};
use minpsid_repro::sid::CostBenefit;

fn main() {
    let source = r#"
        fn main() {
            let n = data_len(0);
            let acc = 0;
            for i = 0 to n {
                let v = data_i(0, i);
                if v > 50 {
                    acc = acc + v * 3;
                } else {
                    acc = acc + 1;
                }
            }
            out_i(acc);
        }
    "#;
    let module = minpsid_repro::minic::compile(source, "fig3").expect("compiles");

    // reference input: small negative values — only a sign-bit flip can
    // cross the `> 50` threshold (1 of 64 bits)
    let ref_input = ProgInput::new(
        vec![],
        vec![Stream::I((0..64).map(|i| -30 + i % 10).collect())],
    );
    // a different input: small positive values just below 50 — nearly any
    // high-bit flip crosses the threshold
    let other_input = ProgInput::new(
        vec![],
        vec![Stream::I((0..64).map(|i| 40 + i % 10).collect())],
    );

    let campaign = CampaignConfig {
        per_inst_injections: 200,
        seed: 3,
        ..CampaignConfig::default()
    };

    let profile = |input: &ProgInput| {
        let golden = golden_run(&module, input, &campaign).unwrap();
        let per_inst = per_instruction_campaign(&module, input, &golden, &campaign);
        let cb = CostBenefit::build(&module, &golden, &per_inst);
        let sdc_prob: Vec<f64> = per_inst.counts.iter().map(|c| c.sdc_prob()).collect();
        (sdc_prob, cb)
    };
    let (ref_sdc, ref_cb) = profile(&ref_input);
    let (oth_sdc, oth_cb) = profile(&other_input);

    // locate the threshold comparison in the IR
    let numbering = module.numbering();
    println!("per-instruction SDC probability (reference vs other input):\n");
    println!("{:>6} {:>9} {:>9}   instruction", "inst", "ref", "other");
    for (gid, inst) in module.iter_insts() {
        let dense = numbering.index(gid);
        let is_cmp = matches!(inst.kind, InstKind::Cmp { .. });
        let marker = if is_cmp { "  <-- icmp" } else { "" };
        if ref_sdc[dense] > 0.0 || oth_sdc[dense] > 0.0 || is_cmp {
            println!(
                "{:>6} {:>8.1}% {:>8.1}%   {}{}",
                dense,
                ref_sdc[dense] * 100.0,
                oth_sdc[dense] * 100.0,
                print_inst(module.func(gid.func), gid.inst),
                marker
            );
        }
    }

    let incubative = incubative_between(
        &ref_cb.benefit,
        &oth_cb.benefit,
        &IncubativeConfig::default(),
    );
    println!("\nincubative instructions (benefit ~0 under ref, material under other):");
    for dense in &incubative {
        let gid = numbering.id_of(*dense);
        println!(
            "  #{dense}: {}",
            print_inst(module.func(gid.func), gid.inst)
        );
    }
    assert!(
        !incubative.is_empty(),
        "the threshold kernel must expose incubative instructions"
    );
}
