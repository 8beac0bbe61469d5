//! Property tests over *randomly generated IR modules* (not source
//! programs): the text format round-trips them, and SID's duplication
//! decides each fault's outcome the way one-campaign coverage assumes.
//!
//! The generator builds verified straight-line modules by folding a
//! random op tape into the builder, tracking per-type value pools so
//! every operand reference is well-typed and dominating.

mod coverage_rule;

use coverage_rule::{check, random_selection};
use minpsid_repro::faultsim::CampaignConfig;
use minpsid_repro::interp::ProgInput;
use minpsid_repro::ir::inst::{BinOp, CmpOp, UnOp};
use minpsid_repro::ir::parser::parse_module;
use minpsid_repro::ir::printer::print_module;
use minpsid_repro::ir::{verify_module, InstId, Module, ModuleBuilder, Operand, Ty};
use proptest::prelude::*;

/// One step of the random op tape.
#[derive(Debug, Clone)]
enum Op {
    ConstI(i64),
    ConstF(f64),
    IntBin(u8),
    FloatBin(u8),
    IntUn(u8),
    FloatUn(u8),
    Cmp(u8),
    Select,
    CastToF,
    CastToI,
    MinMax(bool),
    OutI,
    OutF,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Op::ConstI),
        (-1.0e6..1.0e6).prop_map(Op::ConstF),
        (0u8..4).prop_map(Op::IntBin),
        (0u8..4).prop_map(Op::FloatBin),
        (0u8..3).prop_map(Op::IntUn),
        (0u8..3).prop_map(Op::FloatUn),
        (0u8..6).prop_map(Op::Cmp),
        Just(Op::Select),
        Just(Op::CastToF),
        Just(Op::CastToI),
        any::<bool>().prop_map(Op::MinMax),
        Just(Op::OutI),
        Just(Op::OutF),
    ]
}

/// Fold an op tape into a verified module. Pools hold the ids of values
/// of each type produced so far; ops that need operands draw the most
/// recent ones (determinism keeps shrinking effective).
fn build_module(tape: &[Op]) -> Module {
    let mut mb = ModuleBuilder::new("gen");
    let main = mb.declare("main", vec![], None);
    let mut fb = mb.body(main);
    let mut ints: Vec<InstId> = Vec::new();
    let mut floats: Vec<InstId> = Vec::new();
    let mut bools: Vec<InstId> = Vec::new();

    // seed the pools so early ops have operands
    ints.push(fb.add(Ty::I64, 3i64, 4i64));
    floats.push(fb.add(Ty::F64, 1.5f64, 0.25f64));
    bools.push(fb.cmp(CmpOp::Lt, 1i64, 2i64));

    let pick =
        |pool: &[InstId], k: usize| -> Operand { pool[pool.len() - 1 - k % pool.len()].into() };

    for (i, op) in tape.iter().enumerate() {
        match op {
            Op::ConstI(v) => ints.push(fb.add(Ty::I64, *v, 0i64)),
            Op::ConstF(v) => floats.push(fb.add(Ty::F64, *v, 0.0f64)),
            Op::IntBin(k) => {
                let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor];
                let a = pick(&ints, i);
                let b = pick(&ints, i + 1);
                ints.push(fb.bin(ops[*k as usize % 4], Ty::I64, a, b));
            }
            Op::FloatBin(k) => {
                let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
                let a = pick(&floats, i);
                let b = pick(&floats, i + 1);
                floats.push(fb.bin(ops[*k as usize % 4], Ty::F64, a, b));
            }
            Op::IntUn(k) => {
                let ops = [UnOp::Neg, UnOp::Abs, UnOp::Not];
                let a = pick(&ints, i);
                ints.push(fb.un(ops[*k as usize % 3], Ty::I64, a));
            }
            Op::FloatUn(k) => {
                let ops = [UnOp::Neg, UnOp::Abs, UnOp::Floor];
                let a = pick(&floats, i);
                floats.push(fb.un(ops[*k as usize % 3], Ty::F64, a));
            }
            Op::Cmp(k) => {
                let ops = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                let a = pick(&ints, i);
                let b = pick(&ints, i + 2);
                bools.push(fb.cmp(ops[*k as usize % 6], a, b));
            }
            Op::Select => {
                let c = pick(&bools, i);
                let a = pick(&ints, i);
                let b = pick(&ints, i + 1);
                ints.push(fb.select(Ty::I64, c, a, b));
            }
            Op::CastToF => {
                let a = pick(&ints, i);
                floats.push(fb.cast(Ty::F64, a));
            }
            Op::CastToI => {
                let a = pick(&floats, i);
                ints.push(fb.cast(Ty::I64, a));
            }
            Op::MinMax(mx) => {
                let a = pick(&ints, i);
                let b = pick(&ints, i + 3);
                let op = if *mx { BinOp::Max } else { BinOp::Min };
                ints.push(fb.bin(op, Ty::I64, a, b));
            }
            Op::OutI => {
                let a = pick(&ints, i);
                fb.out_i(a);
            }
            Op::OutF => {
                let a = pick(&floats, i);
                fb.out_f(a);
            }
        }
    }
    // always observe something
    let last_i = *ints.last().unwrap();
    let last_f = *floats.last().unwrap();
    fb.out_i(last_i);
    fb.out_f(last_f);
    fb.ret_void();
    mb.define(fb);
    mb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated modules always verify.
    #[test]
    fn generated_modules_verify(tape in prop::collection::vec(op_strategy(), 0..80)) {
        let m = build_module(&tape);
        prop_assert!(verify_module(&m).is_ok());
    }

    /// print → parse preserves structure (generated modules are in arena
    /// order, so the round-trip is exact).
    #[test]
    fn text_format_roundtrips_generated_modules(
        tape in prop::collection::vec(op_strategy(), 0..80)
    ) {
        let m = build_module(&tape);
        let text = print_module(&m);
        let parsed = parse_module(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        // NaN literals break Eq; compare the canonical printed form
        prop_assert_eq!(print_module(&parsed), text);
    }

    /// The rule `sid::Unprotected::coverage` rests on
    /// (`coverage_rule/mod.rs`): a fault at an unselected site ends alike
    /// in the protected module, one at a selected site never as SDC, and
    /// the duplicates add exactly their originals' executions.
    #[test]
    fn one_campaign_rule_holds_on_generated_modules(
        tape in prop::collection::vec(op_strategy(), 0..80),
        seed in any::<u64>(),
    ) {
        let m = build_module(&tape);
        let cfg = CampaignConfig {
            injections: 32,
            per_inst_injections: 1,
            seed,
            threads: 1,
            ..CampaignConfig::default()
        };
        // a module whose fault-free run traps has no campaign to check
        check(&m, &ProgInput::default(), &cfg, &[random_selection(&m, 50, seed)]);
    }
}
