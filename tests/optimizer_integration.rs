//! The IR optimizer (constant folding + DCE) must preserve the observable
//! behaviour of every benchmark, and the protection pipeline must work
//! identically on optimized modules.

use minpsid_repro::faultsim::CampaignConfig;
use minpsid_repro::interp::{ExecConfig, Interp};
use minpsid_repro::ir::opt::optimize;
use minpsid_repro::sid::{run_sid, SidConfig};
use minpsid_repro::workloads;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn optimizer_preserves_benchmark_semantics() {
    for b in workloads::suite() {
        let module = b.compile();
        let mut optimized = module.clone();
        let removed = optimize(&mut optimized);
        minpsid_repro::ir::verify_module(&optimized)
            .unwrap_or_else(|e| panic!("{}: {e:?}", b.name));

        let mut rng = StdRng::seed_from_u64(23);
        let mut checked = 0;
        let mut tried = 0;
        while checked < 3 && tried < 20 {
            tried += 1;
            let input = b.model.materialize(&b.model.random(&mut rng));
            let orig = Interp::new(&module, ExecConfig::default()).run(&input);
            if !orig.exited() {
                continue;
            }
            let opt = Interp::new(&optimized, ExecConfig::default()).run(&input);
            assert!(opt.exited(), "{}: optimized run failed", b.name);
            assert_eq!(orig.output, opt.output, "{}: outputs differ", b.name);
            assert!(
                opt.steps <= orig.steps,
                "{}: the optimizer must not add work",
                b.name
            );
            checked += 1;
        }
        assert_eq!(checked, 3, "{}: not enough valid inputs", b.name);
        // front-end output contains foldable patterns in most kernels;
        // removal count is informational, zero is fine for tight kernels
        let _ = removed;
    }
}

#[test]
fn sid_protects_optimized_modules() {
    let b = workloads::by_name("pathfinder").unwrap();
    let mut module = b.compile();
    optimize(&mut module);
    let ref_input = b.model.materialize(&b.model.reference());
    let cfg = SidConfig {
        protection_level: 0.5,
        campaign: CampaignConfig {
            injections: 60,
            per_inst_injections: 5,
            seed: 2,
            ..CampaignConfig::default()
        },
    };
    let sid = run_sid(&module, &ref_input, &cfg).expect("SID on optimized IR");
    assert!(sid.meta.num_dups > 0);
    let orig = Interp::new(&module, ExecConfig::default()).run(&ref_input);
    let prot = Interp::new(&sid.protected, ExecConfig::default()).run(&ref_input);
    assert_eq!(orig.output, prot.output);
}

#[test]
fn optimizer_shrinks_foldable_frontend_output() {
    // the front end lowers naively; a kernel full of literal arithmetic
    // must shrink measurably
    let src = r#"
        fn main() {
            let scale = 4 * 256;
            let bias = 100 / 4 + 3;
            let limit = scale - bias;
            out_i(limit);
            out_i(scale * 2);
        }
    "#;
    let mut module = minic::compile(src, "foldable").unwrap();
    let before = module.num_insts();
    let removed = optimize(&mut module);
    assert!(removed > 0, "literal arithmetic must fold");
    assert!(module.num_insts() < before);
    let r = Interp::new(&module, ExecConfig::default())
        .run(&minpsid_repro::interp::ProgInput::default());
    assert_eq!(
        r.output.items,
        vec![
            minpsid_repro::interp::OutputItem::I(996),
            minpsid_repro::interp::OutputItem::I(2048)
        ]
    );
}
