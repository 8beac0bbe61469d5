//! Resource-limit and robustness tests for the interpreter: every way an
//! execution can be cut short must terminate cleanly with the right
//! classification — campaigns depend on it (a runaway faulty run would
//! stall a whole experiment).

use minic::compile;
use minpsid_interp::{
    ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput, Scalar, Termination,
    TrapKind,
};

fn run_with(src: &str, args: Vec<Scalar>, cfg: ExecConfig) -> minpsid_interp::ExecResult {
    let m = compile(src, "limit-test").expect("compiles");
    Interp::new(&m, cfg).run(&ProgInput::scalars(args))
}

#[test]
fn unbounded_recursion_hits_the_call_depth_limit() {
    let src = r#"
        fn f(n: int) -> int { return f(n + 1); }
        fn main() { out_i(f(0)); }
    "#;
    let r = run_with(src, vec![], ExecConfig::default());
    assert_eq!(r.termination, Termination::Trap(TrapKind::CallDepth));
}

#[test]
fn runaway_allocation_hits_the_memory_limit() {
    let src = r#"
        fn main() {
            let i = 0;
            while true {
                let a: [int] = alloc(65536);
                a[0] = i;
                i = i + 1;
            }
        }
    "#;
    let cfg = ExecConfig {
        mem_limit: 1 << 20,
        ..ExecConfig::default()
    };
    let r = run_with(src, vec![], cfg);
    assert_eq!(r.termination, Termination::Trap(TrapKind::MemLimit));
}

#[test]
fn output_flood_is_cut_off_as_a_hang() {
    let src = "fn main() { while true { out_i(1); } }";
    let cfg = ExecConfig {
        output_limit: 5000,
        ..ExecConfig::default()
    };
    let r = run_with(src, vec![], cfg);
    assert_eq!(r.termination, Termination::StepLimit);
    assert!(r.output.len() <= 5001);
}

#[test]
fn negative_alloc_traps() {
    let src = r#"
        fn main() {
            let n = arg_i(0);
            let a: [int] = alloc(n);
            a[0] = 1;
            out_i(a[0]);
        }
    "#;
    let r = run_with(src, vec![Scalar::I(-4)], ExecConfig::default());
    assert_eq!(r.termination, Termination::Trap(TrapKind::NegativeAlloc));
}

#[test]
fn missing_argument_traps_cleanly() {
    let src = "fn main() { out_i(arg_i(3)); }";
    let r = run_with(src, vec![Scalar::I(1)], ExecConfig::default());
    assert_eq!(r.termination, Termination::Trap(TrapKind::ArgOutOfRange));
}

#[test]
fn wrong_argument_type_traps_cleanly() {
    let src = "fn main() { out_i(arg_i(0)); }";
    let r = run_with(src, vec![Scalar::F(2.5)], ExecConfig::default());
    assert_eq!(r.termination, Termination::Trap(TrapKind::ArgTypeMismatch));
}

#[test]
fn pointer_fault_can_cross_into_the_stack_space_and_traps() {
    // a heap pointer with bit 62 flipped becomes a stack pointer far out
    // of bounds — the fault model turns it into a crash, never UB
    let src = r#"
        fn main() {
            let a: [int] = alloc(8);
            a[0] = 7;
            out_i(a[0]);
        }
    "#;
    let m = compile(src, "ptr-fault").unwrap();
    let interp = Interp::new(&m, ExecConfig::default());
    // find the alloc's dynamic position: it is the first injectable
    // instruction producing a pointer; sweep the first few sites with
    // bit 62 and require that every outcome is a clean termination
    for nth in 0..6 {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(nth),
            bit: 62,
        };
        let r = interp.run_with_fault_in(&mut ExecScratch::default(), &ProgInput::default(), fault);
        assert!(
            matches!(
                r.termination,
                Termination::Exit | Termination::Trap(_) | Termination::StepLimit
            ),
            "nth={nth}: {:?}",
            r.termination
        );
    }
}

#[test]
fn golden_runs_scale_linearly_with_input() {
    // sanity guard on the cost model plumbing: steps grow with n
    let src = r#"
        fn main() {
            let n = arg_i(0);
            let acc = 0;
            for i = 0 to n { acc = acc + i; }
            out_i(acc);
        }
    "#;
    let m = compile(src, "scale").unwrap();
    let interp = Interp::new(&m, ExecConfig::default());
    let steps = |n: i64| interp.run(&ProgInput::scalars(vec![Scalar::I(n)])).steps;
    let s100 = steps(100);
    let s200 = steps(200);
    let per_iter = (s200 - s100) as f64 / 100.0;
    assert!(per_iter > 3.0 && per_iter < 50.0, "per-iter {per_iter}");
}

#[test]
fn trace_mode_matches_untraced_semantics() {
    let src = r#"
        fn main() {
            let n = arg_i(0);
            let acc = 0.0;
            for i = 0 to n { acc = acc + sqrt(float(i)); }
            out_f(acc);
        }
    "#;
    let m = compile(src, "trace").unwrap();
    let plain =
        Interp::new(&m, ExecConfig::default()).run(&ProgInput::scalars(vec![Scalar::I(50)]));
    let traced = Interp::new(
        &m,
        ExecConfig {
            trace: true,
            ..ExecConfig::default()
        },
    )
    .run(&ProgInput::scalars(vec![Scalar::I(50)]));
    assert_eq!(plain.output, traced.output);
    assert_eq!(plain.steps, traced.steps);
    let trace = traced.trace.expect("trace collected");
    assert!(!trace.is_empty());
    // every trace event names a real instruction
    let n_insts = m.num_insts() as u32;
    assert!(trace.iter().all(|e| e.dense < n_insts));
}
