//! Property tests holding the decoded engine to the reference oracle
//! (`minpsid_interp::oracle`, the per-step tree walk) and delta-encoded
//! snapshots to full ones: for *random* minic programs,
//!
//! * every run — clean, faulty, resumed — ends the same way on both:
//!   termination, output, step count, return value (the fault model
//!   counts dynamic instructions, so a single off-by-one step in either
//!   engine shows up as a different injection point and fails loudly);
//! * the observers agree field for field: the whole `Profile`, the
//!   register-write trace event for event, and the checkpoint store byte
//!   for byte in both encodings, thinned or not — the injection counts
//!   among them, which the oracle counts production by production and
//!   the decoded engine derives for a fault-free run;
//! * a delta-encoded checkpoint store materializes to exactly the
//!   snapshots a full-encoding store captures, and resuming a faulty run
//!   from any delta-chain index matches the from-scratch faulty run.
//!
//! Directed tests below the properties reach what random programs do
//! not: every trap kind, a detected fault, the output limit, a stop at
//! every single step of a run, every shape the slot-addressing rewrite
//! must leave alone, every bit of a fault into a slot pointer, and the
//! runs whose derived injection counts need a correction: ended under a
//! suspended value-returning call, at the step limit mid-block, at the
//! output limit.

use minpsid_interp::wire::encode_checkpoints;
use minpsid_interp::{
    oracle, CheckpointConfig, CheckpointStore, ExecConfig, ExecResult, ExecScratch, FaultSpec,
    FaultTarget, Interp, ProgInput, Run, Scalar, SnapshotMode, Start, Stream, Termination,
    TrapKind, Value,
};
use minpsid_ir::{
    BlockId, CmpOp, FunctionBuilder, GlobalInstId, InstId, InstKind, Module, ModuleBuilder, Ty,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Random minic program from statement codes; exercises loops, branches,
/// array stores (linear memory), recursion (frame stack + stack memory),
/// float arithmetic (type-specialized decoded ops), comparisons feeding
/// branches (the fused cmp+br superinstruction) and loads feeding
/// arithmetic (the fused load+binop superinstruction).
fn gen_source(stmts: &[(u8, u8)]) -> String {
    let mut body = String::new();
    for (idx, &(op, k)) in stmts.iter().enumerate() {
        let k = k as i64;
        let s = match op % 8 {
            0 => format!("    acc = acc + (a + {k}) * {};\n", idx + 1),
            1 => format!("    acc = acc - b / {};\n", k + 1),
            2 => format!(
                "    if acc % {} == 0 {{ acc = acc * 3 + 1; }} else {{ acc = acc + b; }}\n",
                k + 2
            ),
            3 => format!(
                "    for i = 0 to {} {{ acc = acc + i * a; buf[i % 8] = acc; }}\n",
                k % 13 + 1
            ),
            4 => format!("    acc = acc + rec(a % {} + 1);\n", k % 7 + 2),
            5 => format!("    f = f * 1.5 + {k}.25; out_f(f);\n"),
            6 => format!(
                "    for i = 0 to {} {{ acc = acc + buf[i % 8] * 2; }}\n",
                k % 9 + 1
            ),
            _ => format!("    out_i(acc % {});\n", k + 10),
        };
        body.push_str(&s);
    }
    format!(
        r#"
fn rec(x: int) -> int {{
    if x <= 1 {{ return 1; }}
    return rec(x - 1) + x;
}}

fn main() {{
    let a = arg_i(0);
    let b = arg_i(1);
    let buf: [int] = alloc(8);
    for i = 0 to 8 {{ buf[i] = i; }}
    let acc = 7;
    let f = 0.5;
{body}    for i = 0 to 8 {{ out_i(buf[i]); }}
    out_i(acc);
}}
"#
    )
}

/// Identical step cap for every variant so bit-identity is preserved
/// even when a faulty run diverges into unbounded recursion.
fn exec() -> ExecConfig {
    ExecConfig {
        step_limit: 300_000,
        ..ExecConfig::default()
    }
}

/// [`exec`] with the profile and trace observers on.
fn observed() -> ExecConfig {
    ExecConfig {
        profile: true,
        trace: true,
        ..exec()
    }
}

/// A register value as comparable bits (NaN payloads included).
fn value_key(v: Value) -> (u8, u64) {
    match v {
        Value::I(x) => (0, x as u64),
        Value::F(x) => (1, x.to_bits()),
        Value::B(x) => (2, u64::from(x)),
        Value::P(x) => (3, x),
        Value::Undef => (4, 0),
    }
}

/// The injection counters of two checkpoint stores of one module, entry
/// by entry: the global counter and every static instruction's.
fn same_inj_counts(
    m: &Module,
    decoded: &CheckpointStore,
    reference: &CheckpointStore,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(decoded.len(), reference.len());
    for i in 0..reference.len() {
        prop_assert_eq!(decoded.steps_at(i), reference.steps_at(i), "entry {}", i);
        prop_assert_eq!(
            decoded.inj_ctr_at(i),
            reference.inj_ctr_at(i),
            "inj_ctr of entry {}",
            i
        );
        for d in 0..m.num_insts() {
            prop_assert_eq!(
                decoded.inj_count_at(i, d),
                reference.inj_count_at(i, d),
                "inj_count of instruction {} at entry {}",
                d,
                i
            );
        }
    }
    Ok(())
}

/// Everything a run reports, decoded engine against oracle.
fn same_result(decoded: &ExecResult, reference: &ExecResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&decoded.termination, &reference.termination);
    prop_assert_eq!(&decoded.output, &reference.output);
    prop_assert_eq!(decoded.steps, reference.steps);
    prop_assert_eq!(decoded.fault_applied, reference.fault_applied);
    prop_assert_eq!(
        decoded.ret.map(value_key),
        reference.ret.map(value_key),
        "return value"
    );
    prop_assert_eq!(decoded.resumed_at, reference.resumed_at);
    prop_assert_eq!(
        decoded.profile.as_ref().map(|p| p.injectable_execs),
        reference.profile.as_ref().map(|p| p.injectable_execs),
        "injectable_execs"
    );
    prop_assert_eq!(&decoded.profile, &reference.profile);
    let events = |r: &ExecResult| {
        r.trace.as_ref().map(|t| {
            t.iter()
                .map(|e| (e.dense, value_key(e.value)))
                .collect::<Vec<_>>()
        })
    };
    prop_assert_eq!(events(decoded), events(reference), "trace");
    Ok(())
}

/// How the runs of the observer properties ended, so that the properties
/// can be shown not to be vacuous.
struct Seen {
    exit: AtomicUsize,
    trap: AtomicUsize,
    step_limit: AtomicUsize,
    thinned: AtomicUsize,
    resumed: AtomicUsize,
    /// Slot-addressed loads and stores executed by compared runs.
    slot_halves: AtomicUsize,
    /// Compared runs that finished on the generic lowering.
    on_generic: AtomicUsize,
    /// Loads and stores a directed shape must not slot-address.
    ineligible: AtomicUsize,
}

impl Seen {
    fn record(&self, t: Termination) {
        let counter = match t {
            Termination::Exit => &self.exit,
            Termination::Trap(_) => &self.trap,
            Termination::StepLimit => &self.step_limit,
            Termination::Detected => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

static SEEN: Seen = Seen {
    exit: AtomicUsize::new(0),
    trap: AtomicUsize::new(0),
    step_limit: AtomicUsize::new(0),
    thinned: AtomicUsize::new(0),
    resumed: AtomicUsize::new(0),
    slot_halves: AtomicUsize::new(0),
    on_generic: AtomicUsize::new(0),
    ineligible: AtomicUsize::new(0),
};

/// The observer properties, and the evidence that they compared runs of
/// every kind random programs can end in.
#[test]
fn observers_match_the_oracle_on_every_kind_of_run() {
    every_run_matches_the_oracle();
    checkpoint_stores_are_byte_identical();
    let n = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    assert!(n(&SEEN.exit) >= 20, "{} runs exited", n(&SEEN.exit));
    assert!(n(&SEEN.trap) >= 5, "{} runs trapped", n(&SEEN.trap));
    assert!(
        n(&SEEN.step_limit) >= 5,
        "{} runs hit the step limit",
        n(&SEEN.step_limit)
    );
    assert!(n(&SEEN.thinned) >= 5, "{} stores thinned", n(&SEEN.thinned));
    assert!(n(&SEEN.resumed) >= 20, "{} resumes", n(&SEEN.resumed));
}

/// `run` on the reference walk.
fn reference(interp: &Interp<'_>, run: &Run<'_>) -> ExecResult {
    oracle::execute(interp, run).0
}

/// A capturing run on the reference walk, and the store it captured.
fn oracle_capture(
    interp: &Interp<'_>,
    input: &ProgInput,
    cfg: CheckpointConfig,
) -> (ExecResult, CheckpointStore) {
    let run = Run {
        start: Start::Capture(cfg),
        ..Run::new(input)
    };
    let (r, store) = oracle::execute(interp, &run);
    (r, store.expect("a capturing run captures"))
}

/// A run of `input` resumed from checkpoint `idx` of `store` with `fault`
/// armed.
fn from_checkpoint<'a>(
    store: &'a CheckpointStore,
    idx: usize,
    input: &'a ProgInput,
    fault: FaultSpec,
) -> Run<'a> {
    Run {
        start: Start::At(store, idx),
        ..faulty(input, fault)
    }
}

/// A run of `input` with `fault` armed from the entry point.
fn faulty(input: &ProgInput, fault: FaultSpec) -> Run<'_> {
    Run {
        fault: Some(fault),
        ..Run::new(input)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Every kind of [`Run`] against the oracle: each start (the entry
    /// point, a capture, beside the golden store, and at the first, the
    /// middle and the nearest checkpoint before the fault's target), with
    /// no fault, a whole-program fault and a per-instruction fault at a
    /// random dynamic instruction, observed or not, on the bare config and
    /// with the profile and trace on; and the proving loop and an observed
    /// run cut short by a step limit that falls anywhere in the run. The
    /// injection counters of the two engines must agree step for step, the
    /// observers field for field, a resumed run must say where it resumed,
    /// a captured store must equal the oracle's byte for byte, and a run
    /// must finish on the generic lowering when it observes a fault, never
    /// when it has none. Run by
    /// `observers_match_the_oracle_on_every_kind_of_run`.
    fn every_run_matches_the_oracle(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        nth_raw in 0u64..10_000,
        dense_raw in 0usize..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-run").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let ckpt = CheckpointConfig {
            interval: 1 + interval_raw % 97,
            mode: SnapshotMode::Delta,
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let mut scratch = ExecScratch::default();
        for cfg in [exec(), observed()] {
            let observing = cfg.profile;
            let interp = Interp::new(&m, cfg);
            let capture = Run { start: Start::Capture(ckpt), ..Run::new(&input) };
            let (golden, store) = oracle::execute(&interp, &capture);
            let store = store.expect("a capturing run captures");
            let nth = nth_raw % golden.steps;
            let gid = m.numbering().id_of(dense_raw % m.num_insts());
            let faults = [
                None,
                Some(FaultSpec { target: FaultTarget::NthDynamic(nth), bit }),
                Some(FaultSpec { target: FaultTarget::NthOfInst(gid, nth % 5), bit }),
            ];
            for fault in faults {
                let before_flip = |i: usize| match fault.map(|f| f.target) {
                    None => true,
                    Some(FaultTarget::NthDynamic(n)) => store.inj_ctr_at(i) <= n,
                    Some(FaultTarget::NthOfInst(g, n)) => {
                        store.inj_count_at(i, m.numbering().index(g)) <= n
                    }
                };
                let eligible: Vec<usize> = (0..store.len()).filter(|&i| before_flip(i)).collect();
                let mut starts = vec![Start::Entry, Start::Beside(&store)];
                if fault.is_none() {
                    starts.push(Start::Capture(ckpt));
                }
                starts.extend(
                    [eligible.first(), eligible.get(eligible.len() / 2), eligible.last()]
                        .into_iter()
                        .flatten()
                        .map(|&k| Start::At(&store, k)),
                );
                for start in starts {
                    for observe in [true, false] {
                        let run = Run { input: &input, fault, start, observe, prove: false };
                        let (want, want_store) = oracle::execute(&interp, &run);
                        let got = interp.execute(&mut scratch, &run);
                        same_result(&got, &want)?;
                        if observing && observe && matches!(start, Start::Entry) {
                            SEEN.record(want.termination);
                        }
                        let generic = scratch.finished_on_generic();
                        prop_assert!(fault.is_some() || !generic, "a fault-free run went generic");
                        if observing && observe && fault.is_some() {
                            prop_assert!(generic, "an observed faulty run stayed slotted");
                        }
                        match start {
                            Start::At(_, k) => {
                                prop_assert_eq!(got.resumed_at, Some(store.steps_at(k)));
                                if observing && observe {
                                    SEEN.resumed.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Start::Capture(_) => {
                                let (got, want) = (scratch.take_checkpoints(), want_store.unwrap());
                                same_inj_counts(&m, &got, &want)?;
                                prop_assert!(
                                    encode_checkpoints(&got) == encode_checkpoints(&want),
                                    "captured store images differ"
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
            let proving = Run { observe: false, prove: true, ..Run::new(&input) };
            same_result(&interp.execute(&mut scratch, &proving), &reference(&interp, &proving))?;

            let cut = Interp::new(&m, ExecConfig { step_limit: nth, ..interp.config().clone() });
            let want = reference(&cut, &Run::new(&input));
            if observing {
                SEEN.record(want.termination);
            }
            same_result(&cut.run(&input), &want)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One observed pass captures the very store the oracle captures:
    /// same boundaries, counters, thinning and keyframe/delta choices, so
    /// the wire images are equal byte for byte — in both encodings, with
    /// a memory budget that forces thinning in some cases, and with the
    /// profile riding along. Run by
    /// `observers_match_the_oracle_on_every_kind_of_run`.
    fn checkpoint_stores_are_byte_identical(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        keyframe_every in 1u32..9,
        budget_kib in 1usize..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-capture").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, observed());
        let golden = reference(&interp, &Run::new(&input));
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % 40;
        for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
            let cfg = CheckpointConfig {
                interval,
                mem_budget_bytes: budget_kib << 10,
                mode,
                keyframe_every,
            };
            let (rr, reference) = oracle_capture(&interp, &input, cfg);
            let (rd, decoded) = interp.run_with_checkpoint_store(&input, cfg);
            same_result(&rd, &rr)?;
            same_result(&rd, &golden)?;
            same_inj_counts(&m, &decoded, &reference)?;
            prop_assert_eq!(decoded.total_bytes(), reference.total_bytes());
            prop_assert!(
                encode_checkpoints(&decoded) == encode_checkpoints(&reference),
                "{mode:?} store images differ"
            );
            if (decoded.len() as u64) < (golden.steps - 1) / interval {
                SEEN.thinned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A delta-encoded store materializes to exactly the snapshots the
    /// full-encoding store captures: same count, same step/injection
    /// counters, same per-instruction injection counts, same output
    /// prefix — and every materialized pair round-trips to the same
    /// resumed execution.
    #[test]
    fn delta_store_round_trips_to_full_snapshots(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        keyframe_every in 1u32..9,
        dense_raw in 0usize..10_000,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let full_cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Full,
            ..CheckpointConfig::default()
        };
        let delta_cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Delta,
            keyframe_every,
            ..CheckpointConfig::default()
        };
        let (rf, full) = interp.run_with_checkpoint_store(&input, full_cfg);
        let (rd, delta) = interp.run_with_checkpoint_store(&input, delta_cfg);
        prop_assert_eq!(&rf.output, &rd.output);
        prop_assert_eq!(rf.steps, rd.steps);
        prop_assert_eq!(full.len(), delta.len());

        let dense = dense_raw % m.num_insts();
        for i in 0..full.len() {
            let sf = full.materialize(i);
            let sd = delta.materialize(i);
            prop_assert_eq!(sd.steps(), sf.steps());
            prop_assert_eq!(sd.inj_ctr(), sf.inj_ctr());
            prop_assert_eq!(sd.inj_count_of(dense), sf.inj_count_of(dense));
            prop_assert_eq!(sd.output(), sf.output());
            prop_assert_eq!(delta.steps_at(i), full.steps_at(i));
            prop_assert_eq!(delta.inj_ctr_at(i), full.inj_ctr_at(i));
            prop_assert_eq!(delta.inj_count_at(i, dense), full.inj_count_at(i, dense));
        }
    }

    /// Resuming a faulty run from any index of a delta-encoded store is
    /// bit-identical to the from-scratch faulty run (the soundness
    /// property checkpointed fault injection rests on, now across
    /// delta-chain reconstruction).
    #[test]
    fn delta_resume_matches_cold_faulty_run(
        stmts in proptest::collection::vec((0u8..8, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        keyframe_every in 1u32..9,
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-decode").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let cfg = CheckpointConfig {
            interval,
            mode: SnapshotMode::Delta,
            keyframe_every,
            ..CheckpointConfig::default()
        };
        let (_, store) = interp.run_with_checkpoint_store(&input, cfg);
        prop_assert!(!store.is_empty(), "interval <= steps yields snapshots");

        let nth = nth_raw % golden.steps;
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };
        let cold = interp.execute(&mut ExecScratch::default(), &faulty(&input, fault));

        let mut scratch = ExecScratch::default();
        for i in (0..store.len()).filter(|&i| store.inj_ctr_at(i) <= nth) {
            let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
            prop_assert_eq!(&warm.termination, &cold.termination);
            prop_assert_eq!(&warm.output, &cold.output);
            prop_assert_eq!(warm.steps, cold.steps);
            prop_assert_eq!(warm.fault_applied, cold.fault_applied);
            prop_assert_eq!(&warm.ret, &cold.ret);
        }
    }
}

/// Compare one observed run with the oracle and return how it ended.
fn ends_like_the_oracle(m: &Module, cfg: ExecConfig, input: &ProgInput) -> Termination {
    let interp = Interp::new(m, cfg);
    let reference = reference(&interp, &Run::new(input));
    if let Err(e) = same_result(&interp.run(input), &reference) {
        panic!("{}: {e}", m.name);
    }
    reference.termination
}

fn compiled(name: &str, body: &str) -> Module {
    let src =
        format!("fn rec(x: int) -> int {{ return rec(x + 1) + 1; }}\nfn main() {{\n{body}\n}}\n");
    minic::compile(&src, name).unwrap()
}

/// Random programs only ever trap out of bounds, on a division or deep
/// in a recursion. Every other way a run can end, on a program made for
/// it: each trap kind (the work before the trap makes the profile worth
/// comparing), a duplication check that fires, and the output limit.
#[test]
fn every_termination_kind_profiles_like_the_oracle() {
    let warmup = "let buf: [int] = alloc(4);\nlet s = 0;\n\
                  for i = 0 to 9 { buf[i % 4] = i; s = s + buf[(i + 1) % 4]; }\nout_i(s);";
    let ints = |v: &[i64]| ProgInput::scalars(v.iter().map(|&x| Scalar::I(x)).collect());
    let streams = |s: Stream| ProgInput::new(vec![Scalar::I(1)], vec![s]);
    let trap = |k| Termination::Trap(k);
    let limits = ExecConfig {
        mem_limit: 64,
        call_depth_limit: 7,
        output_limit: 3,
        ..observed()
    };
    let cases: Vec<(&str, String, ProgInput, ExecConfig, Termination)> = vec![
        (
            "exit",
            String::new(),
            ints(&[1]),
            observed(),
            Termination::Exit,
        ),
        (
            "oob",
            "out_i(buf[arg_i(0)]);".into(),
            ints(&[100]),
            observed(),
            trap(TrapKind::OutOfBounds),
        ),
        (
            "div0",
            "out_i(s / arg_i(0));".into(),
            ints(&[0]),
            observed(),
            trap(TrapKind::DivByZero),
        ),
        (
            "negalloc",
            "let big: [int] = alloc(arg_i(0)); out_i(big[0]);".into(),
            ints(&[-3]),
            observed(),
            trap(TrapKind::NegativeAlloc),
        ),
        (
            "memlimit",
            "let big: [int] = alloc(arg_i(0)); out_i(big[0]);".into(),
            ints(&[61]),
            limits.clone(),
            trap(TrapKind::MemLimit),
        ),
        (
            "calldepth",
            "out_i(rec(arg_i(0)));".into(),
            ints(&[1]),
            limits.clone(),
            trap(TrapKind::CallDepth),
        ),
        (
            "argrange",
            "out_i(arg_i(3));".into(),
            ints(&[1]),
            observed(),
            trap(TrapKind::ArgOutOfRange),
        ),
        (
            "argtype",
            "out_f(arg_f(0));".into(),
            ints(&[1]),
            observed(),
            trap(TrapKind::ArgTypeMismatch),
        ),
        (
            "badindex",
            "out_i(arg_i(0 - arg_i(0)));".into(),
            ints(&[1]),
            observed(),
            trap(TrapKind::BadIndex),
        ),
        (
            "streamoob",
            "out_i(data_i(0, data_len(0)));".into(),
            streams(Stream::I(vec![4, 5])),
            observed(),
            trap(TrapKind::StreamOutOfBounds),
        ),
        (
            "streamtype",
            "out_i(data_i(0, 0));".into(),
            streams(Stream::F(vec![4.0])),
            observed(),
            trap(TrapKind::StreamTypeMismatch),
        ),
        (
            "outlimit",
            "for i = 0 to 9 { out_i(i); }".into(),
            ints(&[1]),
            limits,
            Termination::StepLimit,
        ),
    ];
    for (name, tail, input, cfg, want) in cases {
        let m = compiled(name, &format!("{warmup}\n{tail}"));
        assert_eq!(ends_like_the_oracle(&m, cfg, &input), want, "{name}");
    }

    // shapes the front end never emits: a parameter nobody passed, an
    // integer added to a float, and a duplication check that disagrees
    let built = |name: &str, body: &dyn Fn(&mut minpsid_ir::FunctionBuilder)| {
        let mut mb = ModuleBuilder::new(name);
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let looped = fb.new_block("loop");
        let done = fb.new_block("done");
        let slot = fb.alloc(1i64);
        fb.store(slot, 0i64, 0i64);
        fb.br(looped);
        fb.switch_to(looped);
        let i = fb.load(Ty::I64, slot, 0i64);
        let i2 = fb.add(Ty::I64, i, 1i64);
        fb.store(slot, 0i64, i2);
        let c = fb.cmp(CmpOp::Lt, i2, 5i64);
        fb.cond_br(c, looped, done);
        fb.switch_to(done);
        body(&mut fb);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    };
    let helper_with_missing_arg = {
        let mut mb = ModuleBuilder::new("undef");
        let main = mb.declare("main", vec![], None);
        let h = mb.declare("h", vec![Ty::I64], Some(Ty::I64));
        let mut fb = mb.body(h);
        let p = fb.param(0);
        let r = fb.add(Ty::I64, p, 1i64);
        fb.ret(r);
        mb.define(fb);
        let mut fb = mb.body(main);
        let v = fb.call(h, Some(Ty::I64), vec![]);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    };
    let none = ProgInput::default();
    assert_eq!(
        ends_like_the_oracle(&helper_with_missing_arg, observed(), &none),
        trap(TrapKind::UndefRead)
    );
    let confused = built("confused", &|fb| {
        let x = fb.add(Ty::I64, 1i64, 2.5f64);
        fb.out_i(x);
    });
    assert_eq!(
        ends_like_the_oracle(&confused, observed(), &none),
        trap(TrapKind::TypeConfusion)
    );
    let detected = built("detected", &|fb| {
        let x = fb.add(Ty::I64, 1i64, 2i64);
        let y = fb.add(Ty::I64, 1i64, 3i64);
        fb.check(x, y);
        fb.out_i(x);
    });
    assert_eq!(
        ends_like_the_oracle(&detected, observed(), &none),
        Termination::Detected
    );
}

/// A step limit at every single step of one run: each dynamic
/// instruction — first of a block, second half of a superinstruction,
/// first of a callee, the one after a return — is once the instruction
/// that trips the limit, which is counted as a step but not as an
/// execution.
#[test]
fn a_stop_at_every_step_profiles_like_the_oracle() {
    let m = minic::compile(
        &gen_source(&[(3, 5), (4, 3), (5, 2), (6, 4), (2, 1)]),
        "sweep",
    )
    .unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(5), Scalar::I(3)]);
    let full = reference(&Interp::new(&m, observed()), &Run::new(&input));
    assert!(full.exited());
    assert!(full.steps > 300, "the run is worth sweeping");
    for step_limit in 0..=full.steps {
        let cfg = ExecConfig {
            step_limit,
            ..observed()
        };
        let want = if step_limit == full.steps {
            Termination::Exit
        } else {
            Termination::StepLimit
        };
        assert_eq!(ends_like_the_oracle(&m, cfg, &input), want, "{step_limit}");
    }
}

/// A fault aimed past the end of any trace: arms the loop, never fires.
const NEVER: FaultSpec = FaultSpec {
    target: FaultTarget::NthDynamic(u64::MAX),
    bit: 0,
};

/// The injectable value productions of one fault-free run of `src`, three
/// ways that must agree: counted by the oracle, counted by the armed
/// observed loop (a fault that never fires) and derived by the unarmed
/// one — in the profile and at every checkpoint of a store captured every
/// other step. Returns the run with that number, and what a derivation
/// without its corrections would have said: the executions of every
/// injectable instruction.
fn injectable_execs_three_ways(name: &str, src: &str, cfg: ExecConfig) -> (ExecResult, u64, u64) {
    let m = minic::compile(src, name).unwrap();
    let input = ProgInput::default();
    let interp = Interp::new(&m, cfg);
    let check = |r: Result<(), TestCaseError>| r.unwrap_or_else(|e| panic!("{name}: {e}"));
    let counted = reference(&interp, &Run::new(&input));
    let derived = interp.run(&input);
    check(same_result(&derived, &counted));
    check(same_result(
        &interp.execute(&mut ExecScratch::default(), &faulty(&input, NEVER)),
        &reference(&interp, &faulty(&input, NEVER)),
    ));
    for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
        let ckpt = CheckpointConfig {
            interval: 2,
            mode,
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let (_, want) = oracle_capture(&interp, &input, ckpt);
        let (_, got) = interp.run_with_checkpoint_store(&input, ckpt);
        check(same_inj_counts(&m, &got, &want));
        assert!(
            encode_checkpoints(&got) == encode_checkpoints(&want),
            "{name}: {mode:?} store images differ"
        );
    }
    let p = derived.profile.as_ref().expect("profiled");
    let executions = m
        .iter_insts()
        .zip(&p.inst_counts)
        .filter(|((_, inst), _)| inst.injectable())
        .map(|(_, &n)| n)
        .sum();
    let productions = p.injectable_execs;
    (derived, productions, executions)
}

/// The unarmed observed loop counts no production; it derives them from
/// executions, and an execution is not a production where the value has
/// not been produced. The three ways a fault-free run ends with such
/// executions outstanding: (i) a trap in a callee reached through two
/// value-returning calls — both calls executed, neither has produced
/// (a call's value is produced at the return), and the trapping division
/// never will; (ii) the step limit in the middle of a callee's block;
/// (iii) the output limit, inside a callee.
#[test]
fn derived_injection_counts_survive_every_unfinished_run() {
    let helpers = "fn inv(x: int) -> int { return 100 / x; }\n\
                   fn outer(x: int) -> int { return inv(x - 1) + 1; }\n\
                   fn emit(i: int) -> int { out_i(i); return i + 1; }\n";
    let program = |body: &str| format!("{helpers}fn main() {{\n{body}\n}}\n");

    // (i) the fourth trip divides by zero two calls down
    let (r, productions, executions) = injectable_execs_three_ways(
        "trap-under-calls",
        &program("let s = 0;\nfor i = 0 to 5 { s = s + outer(4 - i); }\nout_i(s);"),
        observed(),
    );
    assert_eq!(r.termination, Termination::Trap(TrapKind::DivByZero));
    assert!(
        productions > 20,
        "{productions} productions before the trap"
    );
    assert_eq!(
        executions - productions,
        3,
        "two suspended calls and the division that trapped"
    );

    // (ii) every step limit that falls inside the first `outer(..)` call
    // or right around it: mid-block in main, in outer, in inv
    let src = program("let s = 0;\nfor i = 0 to 3 { s = s + outer(i + 2); }\nout_i(s);");
    let mut owed = [0u64; 4];
    for step_limit in 3..40 {
        let cfg = ExecConfig {
            step_limit,
            ..observed()
        };
        let (r, productions, executions) = injectable_execs_three_ways("step-limit", &src, cfg);
        assert_eq!(r.termination, Termination::StepLimit, "{step_limit}");
        owed[(executions - productions) as usize] += 1;
    }
    assert!(
        owed[0] > 0 && owed[1] > 0 && owed[2] > 0 && owed[3] == 0,
        "stops under no, one and two suspended calls: {owed:?}"
    );

    // (iii) the fourth `out_i` is one too many, inside `emit`
    let cfg = ExecConfig {
        output_limit: 3,
        ..observed()
    };
    let (r, productions, executions) = injectable_execs_three_ways(
        "output-limit",
        &program("let s = 0;\nfor i = 0 to 9 { s = s + emit(i); }\nout_i(s);"),
        cfg,
    );
    assert_eq!(r.termination, Termination::StepLimit);
    assert_eq!(r.output.len(), 4);
    assert_eq!(executions - productions, 1, "the suspended call to `emit`");
}

/// The runs that stay on the armed observed loop, where a counter is
/// state the run entered with or needs to fire its fault: a profiled
/// *faulty* run applies its fault and profiles like the oracle's, and a
/// *resumed* observed run — its fault never fires — reports the
/// injection count of the whole run, the restored counter plus the
/// suffix, which no derivation from the suffix's executions could.
#[test]
fn faulty_and_resumed_observed_runs_keep_their_counters() {
    let m = minic::compile(
        &gen_source(&[(3, 5), (4, 3), (5, 2), (6, 4), (2, 1)]),
        "armed-observed",
    )
    .unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(5), Scalar::I(3)]);
    let interp = Interp::new(&m, observed());
    let check = |r: Result<(), TestCaseError>| r.unwrap_or_else(|e| panic!("{e}"));

    let ckpt = CheckpointConfig {
        interval: 37,
        ..CheckpointConfig::default()
    };
    let (golden, store) = interp.run_with_checkpoint_store(&input, ckpt);
    assert!(golden.exited());
    let total = golden.profile.as_ref().expect("profiled").injectable_execs;

    let fault = FaultSpec {
        target: FaultTarget::NthDynamic(total / 2),
        bit: 1,
    };
    let flipped = interp.execute(&mut ExecScratch::default(), &faulty(&input, fault));
    assert!(flipped.fault_applied);
    check(same_result(
        &flipped,
        &reference(&interp, &faulty(&input, fault)),
    ));

    let mut scratch = ExecScratch::default();
    let idx = store.len() / 2;
    let resumed = interp.resume_from(&mut scratch, &store, idx, &input, NEVER);
    check(same_result(
        &resumed,
        &reference(&interp, &from_checkpoint(&store, idx, &input, NEVER)),
    ));
    let p = resumed.profile.as_ref().expect("profiled");
    assert_eq!(p.injectable_execs, total, "restored counter + suffix");
    let suffix: u64 = m
        .iter_insts()
        .zip(&p.inst_counts)
        .filter(|((_, inst), _)| inst.injectable())
        .map(|(_, &n)| n)
        .sum();
    assert!(
        store.inj_ctr_at(idx) > 0 && suffix < total,
        "the suffix alone executes {suffix} of {total}"
    );
}

/// One `main` (function 0) built by `body`, plus whatever `body` declares.
fn built(name: &str, body: impl FnOnce(&mut ModuleBuilder, &mut FunctionBuilder)) -> Module {
    let mut mb = ModuleBuilder::new(name);
    let main = mb.declare("main", vec![], None);
    let mut fb = mb.body(main);
    body(&mut mb, &mut fb);
    mb.define(fb);
    mb.finish()
}

/// Every fault-free way of running `m`, decoded against the oracle: the
/// bare loop, the observed loop (whole profile, whole trace) and the
/// checkpoint stores byte for byte in both encodings. Returns how the run
/// ended and counts the slot-addressed halves it executed.
fn fault_free_runs_match(m: &Module, input: &ProgInput, cfg: ExecConfig) -> Termination {
    let check = |r: Result<(), TestCaseError>| r.unwrap_or_else(|e| panic!("{}: {e}", m.name));
    let bare = Interp::new(m, cfg.clone());
    check(same_result(
        &bare.run(input),
        &reference(&bare, &Run::new(input)),
    ));
    let interp = Interp::new(
        m,
        ExecConfig {
            profile: true,
            trace: true,
            ..cfg
        },
    );
    let reference = reference(&interp, &Run::new(input));
    check(same_result(&interp.run(input), &reference));
    for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
        let ckpt = CheckpointConfig {
            interval: 3,
            mode,
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let (rr, want) = oracle_capture(&interp, input, ckpt);
        let (rd, got) = interp.run_with_checkpoint_store(input, ckpt);
        check(same_result(&rd, &rr));
        assert!(
            encode_checkpoints(&got) == encode_checkpoints(&want),
            "{}: {mode:?} store images differ",
            m.name
        );
    }
    let counts = &reference.profile.as_ref().expect("profiled").inst_counts;
    let executed: u64 = (0..counts.len())
        .filter(|&d| interp.slot_addressed(d))
        .map(|d| counts[d])
        .sum();
    SEEN.slot_halves
        .fetch_add(executed as usize, Ordering::Relaxed);
    reference.termination
}

/// The shapes the slot-addressing rewrite must leave alone, each in a
/// function built for it (the front end emits none of them), each written
/// so that a half addressed at decode time anyway would read or write a
/// different word than the operand path: the coverage count says the
/// rewrite declined exactly those halves, the oracle that the runs agree.
fn ineligible_shapes_stay_on_the_operand_path() {
    let ints = |v: &[i64]| ProgInput::scalars(v.iter().map(|&x| Scalar::I(x)).collect());
    let oob = Termination::Trap(TrapKind::OutOfBounds);
    // (module, input, (slot-addressed, all) loads and stores, ending)
    let mut cases: Vec<(Module, ProgInput, (usize, usize), Termination)> = Vec::new();

    // the control: constant slots opening the entry block, in-range
    // constant indices, uses after the allocation and in a later block
    let eligible = built("eligible", |_, fb| {
        let next = fb.new_block("next");
        let a = fb.salloc(2i64);
        let b = fb.salloc(1i64);
        fb.store(a, 1i64, 5i64);
        fb.store(b, 0i64, 6i64);
        fb.br(next);
        fb.switch_to(next);
        let x = fb.load(Ty::I64, a, 1i64);
        let y = fb.load(Ty::I64, b, 0i64);
        let z = fb.add(Ty::I64, x, y);
        fb.out_i(z);
        fb.ret_void();
    });
    cases.push((eligible, ints(&[]), (4, 4), Termination::Exit));

    // a dynamic-count salloc ahead of a constant one: `s` sits `n` words
    // up, wherever that is this run
    let dynamic_first = built("dynamic-first", |_, fb| {
        let n = fb.arg_i(0i64);
        let d = fb.salloc(n);
        let s = fb.salloc(2i64);
        let zero = fb.sub(Ty::I64, n, n);
        fb.store(s, 0i64, 11i64);
        fb.store(s, 1i64, 22i64);
        fb.store(d, zero, 5i64);
        for (ptr, idx) in [(s, 0i64), (s, 1i64)] {
            let v = fb.load(Ty::I64, ptr, idx);
            fb.out_i(v);
        }
        let v = fb.load(Ty::I64, d, zero);
        fb.out_i(v);
        fb.ret_void();
    });
    cases.push((dynamic_first.clone(), ints(&[1]), (0, 6), Termination::Exit));
    cases.push((dynamic_first, ints(&[3]), (0, 6), Termination::Exit));

    // a salloc outside the entry block, in a loop: every pass allocates
    // `s` anew, one word further up; the read-back goes through a
    // computed zero
    let late = built("late-salloc", |_, fb| {
        let (next, exit) = (fb.new_block("next"), fb.new_block("exit"));
        let e = fb.salloc(1i64);
        fb.store(e, 0i64, 0i64);
        fb.br(next);
        fb.switch_to(next);
        let s = fb.salloc(1i64);
        let i = fb.load(Ty::I64, e, 0i64);
        fb.store(s, 0i64, i);
        let zero = fb.sub(Ty::I64, i, i);
        let v = fb.load(Ty::I64, s, zero);
        fb.out_i(v);
        let i2 = fb.add(Ty::I64, i, 1i64);
        fb.store(e, 0i64, i2);
        let again = fb.cmp(CmpOp::Lt, i2, 3i64);
        fb.cond_br(again, next, exit);
        fb.switch_to(exit);
        fb.ret_void();
    });
    cases.push((late, ints(&[]), (3, 5), Termination::Exit));

    // a branch back to the entry block: the same, one block earlier
    let looped = built("entry-loop", |mb, fb| {
        let f = mb.declare("f", vec![Ty::Ptr], None);
        let mut g = mb.body(f);
        let exit = g.new_block("exit");
        let cell = g.param(0);
        let s = g.salloc(1i64);
        let i = g.load(Ty::I64, cell, 0i64);
        g.store(s, 0i64, i);
        let zero = g.sub(Ty::I64, i, i);
        let v = g.load(Ty::I64, s, zero);
        g.out_i(v);
        let i2 = g.add(Ty::I64, i, 1i64);
        g.store(cell, 0i64, i2);
        let again = g.cmp(CmpOp::Lt, i2, 3i64);
        g.cond_br(again, BlockId(0), exit);
        g.switch_to(exit);
        g.ret_void();
        mb.define(g);
        let cell = fb.alloc(1i64);
        fb.store(cell, 0i64, 0i64);
        fb.call(f, None, vec![cell.into()]);
        fb.ret_void();
    });
    cases.push((looped, ints(&[]), (0, 5), Termination::Exit));

    // a constant index equal to the count lands in the next slot, or past
    // the stack's end
    let past_end = built("index-eq-count", |_, fb| {
        let a = fb.salloc(2i64);
        let b = fb.salloc(2i64);
        fb.store(b, 0i64, 7i64);
        fb.store(a, 1i64, 3i64);
        let x = fb.load(Ty::I64, a, 2i64);
        fb.out_i(x);
        let y = fb.load(Ty::I64, b, 2i64);
        fb.out_i(y);
        fb.ret_void();
    });
    cases.push((past_end, ints(&[]), (2, 4), oob));

    // a negative index reaches the slot below, the caller's frame, or
    // under the stack
    let negative = built("negative-index", |mb, fb| {
        let f = mb.declare("f", vec![], None);
        let mut g = mb.body(f);
        let a = g.salloc(1i64);
        let b = g.salloc(1i64);
        g.store(a, 0i64, 4i64);
        let x = g.load(Ty::I64, b, -1i64);
        g.out_i(x);
        let y = g.load(Ty::I64, a, -1i64);
        g.out_i(y);
        g.ret_void();
        mb.define(g);
        let m = fb.salloc(1i64);
        fb.store(m, 0i64, 9i64);
        fb.call(f, None, vec![]);
        let w = fb.load(Ty::I64, m, -1i64);
        fb.out_i(w);
        fb.ret_void();
    });
    cases.push((negative, ints(&[]), (2, 5), oob));

    // a use ahead of its salloc in the entry block (IR that does not
    // verify): the register is still undefined there
    let mut early = built("use-before-salloc", |_, fb| {
        let s = fb.salloc(1i64);
        fb.store(s, 0i64, 1i64);
        let v = fb.load(Ty::I64, s, 0i64);
        fb.out_i(v);
        fb.ret_void();
    });
    early.funcs[0].blocks[0].insts.swap(0, 1);
    assert!(minpsid_ir::verify_module(&early).is_err());
    let undef = Termination::Trap(TrapKind::UndefRead);
    cases.push((early, ints(&[]), (1, 2), undef));

    for (m, input, coverage, want) in cases {
        let interp = Interp::new(&m, observed());
        assert_eq!(interp.slot_coverage(), coverage, "{}", m.name);
        SEEN.ineligible
            .fetch_add(coverage.1 - coverage.0, Ordering::Relaxed);
        assert_eq!(
            fault_free_runs_match(&m, &input, exec()),
            want,
            "{}",
            m.name
        );
    }
}

/// A callee with three slots between its caller's and the stack's end, a
/// heap block for a pointer that loses its stack tag, and a loop long
/// enough for checkpoints to fall inside both calls.
fn slots_module() -> Module {
    built("slot-faults", |mb, fb| {
        let f = mb.declare("f", vec![Ty::I64], Some(Ty::I64));
        let mut g = mb.body(f);
        let (head, body, exit) = (
            g.new_block("head"),
            g.new_block("body"),
            g.new_block("exit"),
        );
        let k = g.param(0);
        let x = g.salloc(1i64);
        let y = g.salloc(2i64);
        let z = g.salloc(1i64);
        g.store(x, 0i64, k);
        g.store(y, 0i64, 10i64);
        g.store(y, 1i64, 20i64);
        g.store(z, 0i64, 30i64);
        g.br(head);
        g.switch_to(head);
        let i = g.load(Ty::I64, x, 0i64);
        let more = g.cmp(CmpOp::Lt, i, 6i64);
        g.cond_br(more, body, exit);
        g.switch_to(body);
        let a = g.load(Ty::I64, y, 0i64);
        let b = g.load(Ty::I64, y, 1i64);
        let t = g.add(Ty::I64, a, b);
        g.store(y, 0i64, t);
        let i2 = g.add(Ty::I64, i, 1i64);
        g.store(x, 0i64, i2);
        g.br(head);
        g.switch_to(exit);
        let r0 = g.load(Ty::I64, y, 0i64);
        let r1 = g.load(Ty::I64, z, 0i64);
        let r = g.add(Ty::I64, r0, r1);
        g.ret(r);
        mb.define(g);

        let heap = fb.alloc(5i64);
        fb.store(heap, 3i64, 100i64);
        let m = fb.salloc(2i64);
        fb.store(m, 0i64, 1i64);
        fb.store(m, 1i64, 2i64);
        for arg in [2i64, 4] {
            let v = fb.call(f, Some(Ty::I64), vec![arg.into()]);
            fb.out_i(v);
        }
        let u = fb.load(Ty::I64, m, 1i64);
        fb.out_i(u);
        let h = fb.load(Ty::I64, heap, 3i64);
        fb.out_i(h);
        fb.ret_void();
    })
}

/// Every injectable production of `m`'s fault-free run on `input`,
/// faulted at each of `bits(is it a salloc's)`: cold, cold beside the
/// golden store (a checkpoint every `interval` steps) and resumed from
/// every checkpoint before the flip, addressed as `NthDynamic` and as
/// `NthOfInst`, on the bare loops and on the observed loop with the trace
/// on, each against the oracle. A fault into a `salloc` result must finish
/// on the generic lowering, as must every observed run with a fault; any
/// other bare run must not. Returns the golden run, its store and how
/// many faults went into `salloc` results and elsewhere.
fn every_fault_matches_the_oracle(
    m: &Module,
    input: &ProgInput,
    interval: u64,
    bits: impl Fn(bool) -> Vec<u32>,
) -> (ExecResult, CheckpointStore, usize, usize) {
    let (bare, obs) = (Interp::new(m, exec()), Interp::new(m, observed()));
    let ckpt = CheckpointConfig {
        interval,
        mode: SnapshotMode::Delta,
        keyframe_every: 3,
        ..CheckpointConfig::default()
    };
    let (golden, store) = obs.run_with_checkpoint_store(input, ckpt);
    assert!(golden.exited());

    // every injectable production of the golden run, in order: its
    // `NthDynamic` index is its position, its `NthOfInst` index the
    // number of earlier productions of the same instruction
    let numbering = m.numbering();
    let productions: Vec<GlobalInstId> = golden
        .trace
        .as_ref()
        .expect("traced")
        .iter()
        .map(|e| numbering.id_of(e.dense as usize))
        .filter(|&gid| m.inst(gid).injectable())
        .collect();
    let check = |what: &str, r: Result<(), TestCaseError>| {
        r.unwrap_or_else(|e| panic!("{what}: {e}"));
    };
    let mut scratch = ExecScratch::default();
    let (mut into_salloc, mut elsewhere) = (0, 0);
    for (nth, &gid) in productions.iter().enumerate() {
        let is_salloc = matches!(m.inst(gid).kind, InstKind::Salloc { .. });
        let of_inst = productions[..nth].iter().filter(|&&g| g == gid).count() as u64;
        let dense = numbering.index(gid);
        for bit in bits(is_salloc) {
            for target in [
                FaultTarget::NthDynamic(nth as u64),
                FaultTarget::NthOfInst(gid, of_inst),
            ] {
                let fault = FaultSpec { target, bit };
                let before_flip = |i: usize| match target {
                    FaultTarget::NthDynamic(n) => store.inj_ctr_at(i) <= n,
                    FaultTarget::NthOfInst(_, n) => store.inj_count_at(i, dense) <= n,
                };
                let resumes = (0..store.len()).filter(|&i| before_flip(i));
                let starts = [(Start::Entry, "cold".to_string())]
                    .into_iter()
                    .chain([(Start::Beside(&store), "beside the store".to_string())])
                    .chain(resumes.map(|k| (Start::At(&store, k), format!("from checkpoint {k}"))));
                for (start, from) in starts {
                    let what = format!("{fault:?} {from}");
                    let run = Run {
                        start,
                        ..faulty(input, fault)
                    };
                    for interp in [&bare, &obs] {
                        let want = reference(interp, &run);
                        assert!(want.fault_applied, "{what}");
                        check(
                            &what,
                            same_result(&interp.execute(&mut scratch, &run), &want),
                        );
                        let observed = interp.config().trace;
                        assert_eq!(
                            scratch.finished_on_generic(),
                            is_salloc || observed,
                            "{what}, observed: {observed}"
                        );
                    }
                    if let Start::At(..) = start {
                        SEEN.resumed.fetch_add(1, Ordering::Relaxed);
                        if is_salloc {
                            SEEN.on_generic.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                *if is_salloc {
                    &mut into_salloc
                } else {
                    &mut elsewhere
                } += 1;
            }
        }
    }
    (golden, store, into_salloc, elsewhere)
}

/// Every bit of a fault into every `salloc` result — the pointer moves to
/// a neighbour slot, into the caller's frame, past the stack's end, or
/// (stack tag cleared) onto the heap — cold, cold beside the golden
/// store, and resumed from every checkpoint before the flip, addressed as
/// `NthDynamic` and as `NthOfInst`, on the bare loops and on the observed
/// loop with the trace on. The slotted lowering would not see the flipped
/// pointer, so each of these runs must finish on the generic one; a fault
/// anywhere else must not.
fn faults_into_slot_pointers_match_the_oracle() {
    let m = slots_module();
    let input = ProgInput::default();
    let bare = Interp::new(&m, exec());
    let (slotted, all) = bare.slot_coverage();
    assert_eq!((slotted, all), (14, 16), "only the heap accesses compute");
    // all 64 bits of a slot pointer; one bit of everything else
    let (golden, store, into_salloc, elsewhere) =
        every_fault_matches_the_oracle(&m, &input, 7, |is_salloc| {
            if is_salloc {
                (0..64).collect()
            } else {
                vec![1]
            }
        });
    assert!(store.len() > 10, "{} checkpoints", store.len());
    // x, y, z in two calls and main's own slot; every ending a moved
    // pointer can have was among them
    assert_eq!(into_salloc, 7 * 64 * 2);
    assert!(elsewhere > 100, "{elsewhere} faults outside slot pointers");
    let numbering = m.numbering();
    let y_in_the_second_call = golden
        .trace
        .as_ref()
        .expect("traced")
        .iter()
        .map(|e| m.inst(numbering.id_of(e.dense as usize)))
        .filter(|inst| inst.injectable())
        .enumerate()
        .filter(|(_, inst)| matches!(inst.kind, InstKind::Salloc { .. }))
        .nth(5)
        .expect("seven sallocs run")
        .0 as u64;
    let moved = |bit| {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(y_in_the_second_call),
            bit,
        };
        let r = bare.execute(&mut ExecScratch::default(), &faulty(&input, fault));
        (r.termination, r.output == golden.output)
    };
    // y = stack word 3: bit 0 -> x's slot, bit 1 -> the caller's m[1],
    // bit 3 -> past the end, bit 62 -> heap word 3
    assert_eq!(moved(0), (Termination::Exit, false), "neighbour slot");
    assert_eq!(moved(1), (Termination::Exit, false), "caller's frame");
    assert_eq!(
        moved(3).0,
        Termination::Trap(TrapKind::OutOfBounds),
        "past the stack's end"
    );
    assert_eq!(moved(62), (Termination::Exit, false), "onto the heap");

    // and a fault-free run never leaves the slotted lowering
    let mut scratch = ExecScratch::default();
    let idx = store.len() / 2;
    let never = FaultSpec {
        target: FaultTarget::NthDynamic(u64::MAX),
        bit: 0,
    };
    let r = bare.resume_from(&mut scratch, &store, idx, &input, never);
    assert!(!r.fault_applied && r.output == golden.output);
    assert!(!scratch.finished_on_generic());
    assert_eq!(fault_free_runs_match(&m, &input, exec()), Termination::Exit);
}

/// `main` for one window: two stack slots (`s[0] = 1`, `s[1] = 5`), a
/// heap block holding the chain `1 -> 2 -> 3 -> 0`, then `body` in a block
/// of its own, so the window it opens with is matched from its first
/// instruction.
fn window_module(
    name: &str,
    body: impl FnOnce(&mut FunctionBuilder, minpsid_ir::InstId, minpsid_ir::InstId),
) -> Module {
    built(name, |_, fb| {
        let start = fb.new_block("window");
        let s = fb.salloc(2i64);
        let heap = fb.alloc(4i64);
        for (idx, next) in [(1i64, 2i64), (2, 3), (3, 0)] {
            fb.store(heap, idx, next);
        }
        fb.store(s, 1i64, 5i64);
        fb.store(s, 0i64, 1i64);
        fb.br(start);
        fb.switch_to(start);
        body(fb, s, heap);
    })
}

/// Every superinstruction the decoder can emit, each in a minimal
/// function: the decode must emit it (a pattern no program reaches would
/// otherwise survive unnoticed), and every half must read what the half
/// before it wrote — each window is a dependence chain, so an operand
/// fetched early reads a stale register. Fault-free, with a fault in
/// every half (an address moved by one or two words, a sign, a flipped
/// compare) and resumed at every step — the mid-window pcs among them —
/// on the slotted lowering (bare runs) and the generic one (observed runs
/// with a fault), field for field against the oracle.
#[test]
fn every_superinstruction_is_reachable_and_oracle_exact() {
    fn emit(fb: &mut FunctionBuilder, v: impl Into<minpsid_ir::Operand>) {
        fb.out_i(v);
        fb.ret_void();
    }
    let counted_loop = || {
        window_module("loop", |fb, s, _| {
            let (latch, exit) = (fb.new_block("latch"), fb.new_block("exit"));
            let head = fb.current_block();
            let i = fb.load(Ty::I64, s, 0i64);
            let more = fb.cmp(CmpOp::Lt, i, 4i64);
            fb.cond_br(more, latch, exit);
            fb.switch_to(latch);
            let i = fb.load(Ty::I64, s, 0i64);
            let next = fb.add(Ty::I64, i, 1i64);
            fb.store(s, 0i64, next);
            fb.br(head);
            fb.switch_to(exit);
            let i = fb.load(Ty::I64, s, 0i64);
            emit(fb, i);
        })
    };
    let windows: Vec<(&str, Module)> = vec![
        (
            "CmpBr",
            window_module("cmp-br", |fb, s, _| {
                let (yes, no) = (fb.new_block("yes"), fb.new_block("no"));
                let a = fb.load(Ty::I64, s, 1i64);
                fb.out_i(a);
                let c = fb.cmp(CmpOp::Lt, a, 9i64);
                fb.cond_br(c, yes, no);
                fb.switch_to(yes);
                emit(fb, 1i64);
                fb.switch_to(no);
                emit(fb, 0i64);
            }),
        ),
        (
            "StoreBr",
            window_module("store-br", |fb, s, _| {
                let exit = fb.new_block("exit");
                fb.store(s, 0i64, 9i64);
                fb.br(exit);
                fb.switch_to(exit);
                let v = fb.load(Ty::I64, s, 0i64);
                emit(fb, v);
            }),
        ),
        (
            "LoadBin",
            window_module("load-bin", |fb, s, _| {
                let a = fb.load(Ty::I64, s, 1i64);
                let b = fb.sub(Ty::I64, 3i64, a);
                emit(fb, b);
            }),
        ),
        (
            "LoadBinBin",
            window_module("load-bin-bin", |fb, s, _| {
                let a = fb.load(Ty::I64, s, 1i64);
                let b = fb.mul(Ty::I64, a, 3i64);
                let c = fb.sub(Ty::I64, b, a);
                emit(fb, c);
            }),
        ),
        (
            "LoadLoadBin",
            window_module("load-load-bin", |fb, s, heap| {
                let a = fb.load(Ty::I64, s, 0i64);
                let b = fb.load(Ty::I64, heap, a);
                let c = fb.sub(Ty::I64, b, a);
                emit(fb, c);
            }),
        ),
        // `Load4` carries its first load and runs the other three from
        // their standalone slots: once where each later load addresses
        // through the one before it, once where the chained halves are
        // slot-addressed and the last two address through the first two
        (
            "Load4",
            window_module("load4", |fb, s, heap| {
                let a = fb.load(Ty::I64, s, 0i64);
                let b = fb.load(Ty::I64, heap, a);
                let c = fb.load(Ty::I64, heap, b);
                let d = fb.load(Ty::I64, heap, c);
                emit(fb, d);
            }),
        ),
        (
            "Load4",
            window_module("load4-slots", |fb, s, heap| {
                let a = fb.load(Ty::I64, s, 0i64);
                let b = fb.load(Ty::I64, s, 1i64);
                let c = fb.load(Ty::I64, heap, a);
                let d = fb.load(Ty::I64, heap, c);
                let e = fb.sub(Ty::I64, d, b);
                emit(fb, e);
            }),
        ),
        ("LoadCmpBr", counted_loop()),
        ("LoadBinStoreBr", counted_loop()),
    ];
    for (name, m) in &windows {
        minpsid_ir::verify_module(m).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let ops = Interp::new(m, exec()).op_names();
        assert!(
            ops[0].iter().any(|&(op, ..)| op == *name),
            "{name} not emitted: {:?}",
            ops[0]
        );
        let input = ProgInput::default();
        assert_eq!(fault_free_runs_match(m, &input, exec()), Termination::Exit);
        let (golden, store, _, elsewhere) =
            every_fault_matches_the_oracle(m, &input, 1, |_| vec![0, 1, 63]);
        assert_eq!(store.len() as u64, golden.steps - 1, "a stop at every step");
        assert!(elsewhere >= 2 * 3 * 2, "{name}: {elsewhere} faults");
        if *name == "Load4" {
            // each half produced, so each took a fault above, and the
            // window ran through boundaries at all three mid-window pcs
            let window = &m.funcs[0].blocks[1].insts[..4];
            let produced: Vec<u32> = golden
                .trace
                .as_ref()
                .expect("traced")
                .iter()
                .map(|e| e.dense)
                .collect();
            for id in window {
                assert!(matches!(
                    m.funcs[0].insts[id.index()].kind,
                    InstKind::Load { .. }
                ));
                assert!(
                    produced.contains(&id.0),
                    "{}: half {id:?} never ran",
                    m.name
                );
            }
        }
    }
    // and the table is the whole set: a superinstruction added to the
    // decoder shows up in some function here or fails this
    let emitted: std::collections::BTreeSet<&str> = windows
        .iter()
        .flat_map(|(_, m)| Interp::new(m, exec()).op_names().concat())
        .map(|(op, ..)| op)
        .collect();
    let plain = [
        "Salloc", "Alloc", "Store", "Load", "BinII", "CmpII", "OutI", "Br", "CondBr", "Ret",
    ];
    let fused: Vec<&str> = emitted
        .iter()
        .copied()
        .filter(|n| !plain.contains(n))
        .collect();
    let mut table: Vec<&str> = windows.iter().map(|(n, _)| *n).collect();
    table.sort_unstable();
    table.dedup();
    assert_eq!(fused, table);
}

/// The slot-addressing rewrite against the oracle where it applies and
/// where it must not, and the evidence that both were exercised.
#[test]
fn slot_addressing_matches_the_oracle_and_yields_where_it_must() {
    ineligible_shapes_stay_on_the_operand_path();
    faults_into_slot_pointers_match_the_oracle();
    let n = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    assert!(
        n(&SEEN.slot_halves) >= 50,
        "{} slot halves ran",
        n(&SEEN.slot_halves)
    );
    assert!(
        n(&SEEN.on_generic) >= 1000,
        "{} generic runs",
        n(&SEEN.on_generic)
    );
    assert!(
        n(&SEEN.ineligible) >= 15,
        "{} ineligible halves",
        n(&SEEN.ineligible)
    );
}

/// `main` counting stack slot 0 from 0 up to `arg_i(0)` in the latch shape
/// the hang proof recognises (`head: load; icmp lt; condbr`, `latch: load;
/// add 1; store; br head`). `body` runs between them and gets the slot,
/// the bound, the header's load of the counter and a four-word heap block
/// allocated before the loop, all zero; `exit` ends the block the loop
/// leaves to and gets the slot and the header.
fn counted_loop(
    name: &str,
    body: impl FnOnce(&mut ModuleBuilder, &mut FunctionBuilder, [InstId; 4]),
    exit: impl FnOnce(&mut FunctionBuilder, InstId, BlockId),
) -> Module {
    built(name, |mb, fb| {
        let [head, first, latch, out] = ["head", "body", "latch", "exit"].map(|n| fb.new_block(n));
        let s = fb.salloc(1i64);
        let heap = fb.alloc(4i64);
        let n = fb.arg_i(0i64);
        fb.store(s, 0i64, 0i64);
        fb.br(head);
        fb.switch_to(head);
        let h0 = fb.load(Ty::I64, s, 0i64);
        let more = fb.cmp(CmpOp::Lt, h0, n);
        fb.cond_br(more, first, out);
        fb.switch_to(first);
        body(mb, fb, [s, n, h0, heap]);
        fb.br(latch);
        fb.switch_to(latch);
        let i = fb.load(Ty::I64, s, 0i64);
        let next = fb.add(Ty::I64, i, 1i64);
        fb.store(s, 0i64, next);
        fb.br(head);
        fb.switch_to(out);
        exit(fb, s, head);
    })
}

/// `1000 / (v - k)`: traps once `v` reaches `k`, and is what a loop body
/// computes into a register nothing reads.
fn trap_at(fb: &mut FunctionBuilder, v: impl Into<minpsid_ir::Operand>, k: i64) {
    let d = fb.sub(Ty::I64, v, k);
    fb.div(Ty::I64, 1000i64, d);
}

/// A `void` function of one pointer, declared and defined by `body`.
fn callee(
    mb: &mut ModuleBuilder,
    name: &str,
    body: impl FnOnce(&mut FunctionBuilder, InstId),
) -> minpsid_ir::FuncId {
    let f = mb.declare(name, vec![Ty::Ptr], None);
    let mut g = mb.body(f);
    let p = g.param(0);
    body(&mut g, p);
    g.ret_void();
    mb.define(g);
    f
}

/// `m` on the proving loop ([`Run::prove`]: every latch visited from
/// the first step) against the oracle, field for field, at every step
/// limit from `span` below to `span` above the step at which `m` ends
/// under `cap` — a trap, an exit, or `cap` itself. Returns how many of
/// those runs a proof stopped, or the first that differs.
fn proofs_around_the_end(
    m: &Module,
    input: &ProgInput,
    cap: ExecConfig,
    span: u64,
) -> Result<usize, String> {
    let end = reference(&Interp::new(m, cap.clone()), &Run::new(input)).steps;
    let mut proofs = 0;
    for step_limit in end - span..=end + span {
        let interp = Interp::new(
            m,
            ExecConfig {
                step_limit,
                ..cap.clone()
            },
        );
        let proving = Run {
            prove: true,
            ..Run::new(input)
        };
        let r = interp.execute(&mut ExecScratch::default(), &proving);
        let want = reference(&interp, &proving);
        same_result(&r, &want)
            .map_err(|e| format!("{} at step limit {step_limit}: {e}", m.name))?;
        if let Some(at) = r.hang_proved_at {
            assert!(at < step_limit, "{}: proved at {at}", m.name);
            proofs += 1;
        }
    }
    Ok(proofs)
}

/// The hang proof stops a run at a counted loop's latch only when the
/// iterations to come provably repeat the last one to the step limit. Two
/// loops it must prove — one counting up to a bound past the limit, one
/// whose state recurs exactly — with the loop's exit falling at the step
/// limit, one step past it, and around both; and a hand-built loop for
/// each way a weaker rule would claim a hang that is not one, each ending
/// in a division that traps at iteration K: a heap cell that a callee
/// counts; a register carried from one iteration into the next (IR that
/// does not verify); the counter read in the body through its slot, or
/// compared through the header's register; a side exit whose block reads
/// the counter; a slot pointer passed to a callee that reads it; a bound
/// loaded inside the loop; a loop that prints every iteration; and a heap
/// pointer flipped into a stack pointer that a callee reads the counter
/// through, on the path a campaign's faulty run takes. Each against the
/// oracle at every step limit around its end (EXPERIMENTS.md "Proving a
/// hang" says which of the rule's conditions each one needs).
#[test]
fn hangs_are_proved_only_where_the_loop_repeats_itself() -> Result<(), String> {
    let ints = |v: &[i64]| ProgInput::scalars(v.iter().map(|&x| Scalar::I(x)).collect());
    let cap = |step_limit: u64| ExecConfig {
        step_limit,
        ..exec()
    };
    let ret = |fb: &mut FunctionBuilder, _: InstId, _: BlockId| fb.ret_void();
    const K: i64 = 200;
    let huge = ints(&[1 << 40]);

    // the loops to prove: an iteration count past the limit, with the
    // exit at step_limit, step_limit + 1 and around; and an inner loop of
    // one trip that an endless outer loop re-enters, resetting the counter
    let counting = counted_loop(
        "counting",
        |_, fb, [_, n, _, _]| {
            fb.mul(Ty::I64, n, 3i64);
        },
        ret,
    );
    let trips = ints(&[300]);
    let end = reference(&Interp::new(&counting, exec()), &Run::new(&trips)).steps;
    let proving = Run {
        prove: true,
        ..Run::new(&trips)
    };
    for (step_limit, ends) in [(end, Termination::Exit), (end - 1, Termination::StepLimit)] {
        let r =
            Interp::new(&counting, cap(step_limit)).execute(&mut ExecScratch::default(), &proving);
        assert_eq!((r.termination, r.steps), (ends, end), "limit {step_limit}");
    }
    assert!(proofs_around_the_end(&counting, &trips, exec(), 40)? >= 20);
    let recurring = counted_loop(
        "recurring",
        |_, _, _| {},
        |fb, s, head| {
            fb.store(s, 0i64, 0i64);
            fb.br(head);
        },
    );
    assert_eq!(
        proofs_around_the_end(&recurring, &ints(&[1]), cap(20_000), 40)?,
        81
    );

    // the loops a weaker rule would prove: each ends in a trap (or at the
    // output limit) before the step limit, and none is proved
    let mut refuted: Vec<(Module, ExecConfig)> = Vec::new();
    let counted_cell = counted_loop(
        "heap-cell-counted-by-a-callee",
        |mb, fb, [_, _, _, heap]| {
            let bump = callee(mb, "bump", |g, p| {
                let c = g.load(Ty::I64, p, 0i64);
                let c2 = g.add(Ty::I64, c, 1i64);
                g.store(p, 0i64, c2);
                trap_at(g, c, K);
            });
            fb.call(bump, None, vec![heap.into()]);
        },
        ret,
    );
    refuted.push((counted_cell, exec()));
    // the first pass sets a flag; every later one adds 1 to what the
    // select left in its register the pass before
    let ids = std::cell::Cell::new(None);
    let mut carried = counted_loop(
        "register-carried-across-iterations",
        |_, fb, [_, _, _, heap]| {
            let [first, later, join] = ["first", "later", "join"].map(|n| fb.new_block(n));
            let f = fb.load(Ty::I64, heap, 0i64);
            let fresh = fb.cmp(CmpOp::Eq, f, 0i64);
            fb.cond_br(fresh, first, later);
            fb.switch_to(first);
            fb.store(heap, 0i64, 1i64);
            fb.br(join);
            fb.switch_to(later);
            let x = fb.add(Ty::I64, 0i64, 1i64);
            fb.br(join);
            fb.switch_to(join);
            let sel = fb.select(Ty::I64, fresh, 0i64, x);
            trap_at(fb, sel, K);
            ids.set(Some((x, sel)));
        },
        ret,
    );
    let (x, sel) = ids.get().expect("the body was built");
    carried.funcs[0].insts[x.index()].kind = InstKind::Bin {
        op: minpsid_ir::BinOp::Add,
        lhs: sel.into(),
        rhs: 1i64.into(),
    };
    assert!(minpsid_ir::verify_module(&carried).is_err());
    refuted.push((carried, exec()));
    let read_slot = counted_loop(
        "counter-read-through-its-slot",
        |_, fb, [s, ..]| {
            let t = fb.load(Ty::I64, s, 0i64);
            trap_at(fb, t, K);
        },
        ret,
    );
    refuted.push((read_slot, exec()));
    let compared = counted_loop(
        "counter-compared-through-h0",
        |_, fb, [_, _, h0, _]| {
            let [boom, on] = ["boom", "on"].map(|n| fb.new_block(n));
            let hit = fb.cmp(CmpOp::Eq, h0, K);
            fb.cond_br(hit, boom, on);
            fb.switch_to(boom);
            fb.div(Ty::I64, 1000i64, 0i64);
            fb.br(on);
            fb.switch_to(on);
        },
        ret,
    );
    refuted.push((compared, exec()));
    // every other pass through the body leaves through a side exit whose
    // block reads the counter, then re-enters at the header: the latch
    // sees the same memory each time, the counter one higher
    let side_exit = built("side-exit", |_, fb| {
        let [head, body, stay, side, latch, exit] =
            ["head", "body", "stay", "side", "latch", "exit"].map(|n| fb.new_block(n));
        let s = fb.salloc(1i64);
        let n = fb.arg_i(0i64);
        let flag = fb.alloc(1i64);
        fb.store(s, 0i64, 0i64);
        fb.br(head);
        fb.switch_to(head);
        let h0 = fb.load(Ty::I64, s, 0i64);
        let more = fb.cmp(CmpOp::Lt, h0, n);
        fb.cond_br(more, body, exit);
        fb.switch_to(body);
        let f = fb.load(Ty::I64, flag, 0i64);
        let fresh = fb.cmp(CmpOp::Eq, f, 0i64);
        fb.cond_br(fresh, stay, side);
        fb.switch_to(stay);
        fb.store(flag, 0i64, 1i64);
        fb.br(latch);
        fb.switch_to(side);
        let t = fb.load(Ty::I64, s, 0i64);
        trap_at(fb, t, K);
        fb.store(flag, 0i64, 0i64);
        fb.br(head);
        fb.switch_to(latch);
        let i = fb.load(Ty::I64, s, 0i64);
        let next = fb.add(Ty::I64, i, 1i64);
        fb.store(s, 0i64, next);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret_void();
    });
    refuted.push((side_exit, exec()));
    let escaped = counted_loop(
        "slot-pointer-passed-to-a-callee",
        |mb, fb, [s, ..]| {
            let peek = callee(mb, "peek", |g, p| {
                let t = g.load(Ty::I64, p, 0i64);
                trap_at(g, t, K);
            });
            fb.call(peek, None, vec![s.into()]);
        },
        ret,
    );
    refuted.push((escaped, exec()));
    // the header loads the bound from a heap cell the body halves once the
    // counter has passed K
    let loaded_bound = built("bound-loaded-in-the-loop", |_, fb| {
        let [head, body, down, latch, exit] =
            ["head", "body", "down", "latch", "exit"].map(|n| fb.new_block(n));
        let s = fb.salloc(1i64);
        let cell = fb.alloc(1i64);
        let n = fb.arg_i(0i64);
        fb.store(cell, 0i64, n);
        fb.store(s, 0i64, 0i64);
        fb.br(head);
        fb.switch_to(head);
        let h0 = fb.load(Ty::I64, s, 0i64);
        let bound = fb.load(Ty::I64, cell, 0i64);
        let more = fb.cmp(CmpOp::Lt, h0, bound);
        fb.cond_br(more, body, exit);
        fb.switch_to(body);
        let late = fb.cmp(CmpOp::Gt, h0, K);
        fb.cond_br(late, down, latch);
        fb.switch_to(down);
        let b = fb.load(Ty::I64, cell, 0i64);
        let shrunk = fb.div(Ty::I64, b, 2i64);
        fb.store(cell, 0i64, shrunk);
        fb.br(latch);
        fb.switch_to(latch);
        let i = fb.load(Ty::I64, s, 0i64);
        let next = fb.add(Ty::I64, i, 1i64);
        fb.store(s, 0i64, next);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret_void();
    });
    refuted.push((loaded_bound, exec()));
    let printing = counted_loop("prints-every-iteration", |_, fb, _| fb.out_i(7i64), ret);
    refuted.push((printing.clone(), cap(3_000)));
    let output_capped = ExecConfig {
        output_limit: 150,
        ..exec()
    };
    refuted.push((printing, output_capped));
    // every case, so that a rule too weak for several names them all
    let wrong: Vec<String> = (refuted.iter())
        .filter_map(
            |(m, cap)| match proofs_around_the_end(m, &huge, cap.clone(), 40) {
                Ok(0) => None,
                Ok(proofs) => Some(format!("{}: {proofs} proofs", m.name)),
                Err(e) => Some(e),
            },
        )
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));

    // a fault sets a heap pointer's stack tag: the bound is read from the
    // slot that holds 1_000_000, and a callee reads the counter through it.
    // The same loop with the bound's add flipped instead is a hang the
    // campaign's path proves
    let aliased = built("flipped-heap-pointer", |mb, fb| {
        let [head, body, latch, exit] = ["head", "body", "latch", "exit"].map(|n| fb.new_block(n));
        let s = fb.salloc(3i64);
        fb.store(s, 2i64, 1_000_000i64);
        let heap = fb.alloc(3i64);
        let b = fb.load(Ty::I64, heap, 2i64);
        let n = fb.add(Ty::I64, b, 5i64);
        fb.store(s, 0i64, 0i64);
        fb.br(head);
        fb.switch_to(head);
        let h0 = fb.load(Ty::I64, s, 0i64);
        let more = fb.cmp(CmpOp::Lt, h0, n);
        fb.cond_br(more, body, exit);
        fb.switch_to(body);
        let peek = callee(mb, "peek", |g, p| {
            let v = g.load(Ty::I64, p, 0i64);
            trap_at(g, v, K);
        });
        fb.call(peek, None, vec![heap.into()]);
        fb.br(latch);
        fb.switch_to(latch);
        let i = fb.load(Ty::I64, s, 0i64);
        let next = fb.add(Ty::I64, i, 1i64);
        fb.store(s, 0i64, next);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret_void();
    });
    let input = ProgInput::default();
    let (heap, bound) = (InstId(2), InstId(4));
    assert!(matches!(
        aliased.funcs[0].insts[2].kind,
        InstKind::Alloc { .. }
    ));
    assert!(matches!(
        aliased.funcs[0].insts[4].kind,
        InstKind::Bin { .. }
    ));
    let mut scratch = ExecScratch::default();
    for (inst, bit, proves) in [(heap, 62, false), (bound, 20, true)] {
        let fault = FaultSpec {
            target: FaultTarget::NthOfInst(
                GlobalInstId {
                    func: minpsid_ir::FuncId(0),
                    inst,
                },
                0,
            ),
            bit,
        };
        let end = reference(&Interp::new(&aliased, cap(50_000)), &faulty(&input, fault)).steps;
        let mut proved = 0;
        for step_limit in end - 40..=end + 40 {
            let interp = Interp::new(&aliased, cap(step_limit));
            let ckpt = CheckpointConfig {
                interval: 5,
                ..CheckpointConfig::default()
            };
            let (golden, store) = interp.run_with_checkpoint_store(&input, ckpt);
            assert!(golden.exited() && golden.steps < 100);
            let beside = Run {
                start: Start::Beside(&store),
                ..faulty(&input, fault)
            };
            let r = interp.execute(&mut scratch, &beside);
            same_result(&r, &reference(&interp, &faulty(&input, fault)))
                .unwrap_or_else(|e| panic!("{fault:?} at step limit {step_limit}: {e}"));
            proved += usize::from(r.hang_proved_at.is_some());
        }
        assert_eq!(proved > 0, proves, "{fault:?}: {proved} proofs");
    }
    Ok(())
}
