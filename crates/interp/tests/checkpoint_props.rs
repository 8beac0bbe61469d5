//! Property tests for checkpoint/resume (the soundness argument behind
//! checkpointed fault injection): for *random* minic programs and random
//! (checkpoint interval, fault spec) pairs, resuming from any snapshot
//! whose injection counter has not yet reached the fault must be
//! bit-identical to injecting into a from-scratch run — also when the
//! resumed run is finished early because its state converged onto the
//! golden run's (`Start::At`, and `Start::Beside` for a fault that precedes
//! every snapshot), which must change what is executed and never what is
//! returned.

use minpsid_interp::{
    CheckpointConfig, CheckpointStore, ExecConfig, ExecResult, ExecScratch, FaultSpec, FaultTarget,
    Interp, ProgInput, Run, Scalar, SnapshotMode, Start, Termination,
};
use minpsid_ir::Module;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build a random minic program from a vector of statement codes. The
/// grammar is tiny but exercises every structure a snapshot must capture:
/// loops, branches, array stores (linear memory), recursion (frame stack
/// and stack memory), and the output stream.
fn gen_source(stmts: &[(u8, u8)]) -> String {
    let mut body = String::new();
    for (idx, &(op, k)) in stmts.iter().enumerate() {
        let k = k as i64;
        let s = match op % 7 {
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
            5 => format!("    out_i(acc % {});\n", k + 10),
            // a long loop whose body masks most flips (`% 64` never
            // exceeds 100) and recomputes every register each iteration:
            // where faulty runs converge back onto the golden run
            _ => format!(
                "    for i = 0 to {} {{ if (i * a + {k}) % 64 > 100 {{ acc = acc + 1; out_i(i); }} }}\n",
                150 + k * 8
            ),
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
{body}    for i = 0 to 8 {{ out_i(buf[i]); }}
    out_i(acc);
}}
"#
    )
}

/// Faulty runs can diverge into unbounded recursion; cap both the cold
/// and the resumed run identically so bit-identity is preserved.
fn exec() -> ExecConfig {
    ExecConfig {
        step_limit: 300_000,
        ..ExecConfig::default()
    }
}

/// A run resumed from checkpoint `idx` of `store` — or, for `None`, run
/// beside a `store` none of whose checkpoints precedes the fault, which
/// starts cold — held to its contract —
/// equal to the cold run field for field — and to its cost bounds: the
/// words hashed looking for convergence stay within 1/8 of the steps
/// executed, and the boundaries hashed follow a geometric back-off.
fn check_resume_from(
    interp: &Interp<'_>,
    scratch: &mut ExecScratch,
    store: &CheckpointStore,
    idx: Option<usize>,
    input: &ProgInput,
    fault: FaultSpec,
    cold: &ExecResult,
) -> Result<ExecResult, TestCaseError> {
    let start = match idx {
        Some(idx) => Start::At(store, idx),
        None => Start::Beside(store),
    };
    let run = Run {
        fault: Some(fault),
        start,
        ..Run::new(input)
    };
    let warm = interp.execute(scratch, &run);
    prop_assert_eq!(&warm.termination, &cold.termination);
    prop_assert_eq!(&warm.output, &cold.output);
    prop_assert_eq!(warm.steps, cold.steps);
    prop_assert_eq!(warm.fault_applied, cold.fault_applied);
    prop_assert_eq!(&warm.ret, &cold.ret);
    let resumed_at = idx.map(|idx| store.steps_at(idx));
    prop_assert_eq!(warm.resumed_at, resumed_at);

    let stats = scratch.converge_stats();
    let start = resumed_at.unwrap_or(0);
    let executed = warm.converged_at.unwrap_or(warm.steps) - start;
    prop_assert!(
        stats.words_hashed * 8 <= executed,
        "{} words hashed over {executed} steps",
        stats.words_hashed
    );
    let boundaries = (store.len() - idx.unwrap_or(0)) as u32;
    prop_assert!(
        stats.checks <= boundaries.ilog2() + 1,
        "{} checks over {boundaries} boundaries",
        stats.checks
    );
    if let Some(at) = warm.converged_at {
        prop_assert!(stats.checks > 0);
        prop_assert!(at > start && at < warm.steps);
        prop_assert_eq!(warm.termination, Termination::Exit);
    }
    Ok(warm)
}

/// Cases of `early_exit_matches_cold_run` that finished early.
static CONVERGED: AtomicUsize = AtomicUsize::new(0);

/// The property above is vacuous if no case ever takes the early exit.
#[test]
fn early_exit_matches_cold_run_and_is_taken() {
    early_exit_matches_cold_run();
    let converged = CONVERGED.load(Ordering::Relaxed);
    assert!(converged >= 5, "only {converged} runs converged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// `resume_from` — restore, replay, and the golden-convergence early
    /// exit — equals the cold run for random programs, store encodings,
    /// intervals and faults, from the nearest eligible checkpoint (little
    /// replayed before the flip: the cost bound delays the first check)
    /// and from the first (much replayed: it does not), or from the entry
    /// point when the fault precedes them all. Run by
    /// `early_exit_matches_cold_run_and_is_taken`.
    fn early_exit_matches_cold_run(
        stmts in proptest::collection::vec((0u8..7, 0u8..20), 1..6),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        delta in proptest::prelude::any::<bool>(),
        nth_raw in 0u64..100_000,
        bit in 0u32..64,
    ) {
        // always one masking loop, so some faults land where they wash out
        let mut stmts = stmts;
        stmts.push((6, (nth_raw % 20) as u8));
        let m = minic::compile(&gen_source(&stmts), "prop-early-exit").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let cfg = CheckpointConfig {
            interval: 1 + interval_raw % 200,
            mode: if delta { SnapshotMode::Delta } else { SnapshotMode::Full },
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let (golden, store) = interp.run_with_checkpoint_store(&input, cfg);
        prop_assume!(golden.exited());

        let mut scratch = ExecScratch::default();
        for salt in 0..4u64 {
            let nth = (nth_raw + salt * 7919) % golden.steps;
            let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit: bit + salt as u32 };
            let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
            // a fault that precedes every checkpoint is replayed cold
            let from = match store.nearest_for_dynamic(nth) {
                Some(nearest) => vec![Some(nearest), Some(0)],
                None => vec![None],
            };
            for idx in from {
                let warm =
                    check_resume_from(&interp, &mut scratch, &store, idx, &input, fault, &cold)?;
                if warm.converged_at.is_some() {
                    CONVERGED.fetch_add(1, Ordering::Relaxed);
                }
                scratch.recycle_output(warm.output);
            }
        }
    }
}

/// A fault before the first checkpoint has nothing to resume from, but the
/// run it starts from the entry point still meets every checkpoint on its
/// way: `Start::Beside` finishes it at the first one where its
/// state is golden's again. The program opens with the masking loop, so
/// most early flips wash out within an iteration.
#[test]
fn cold_injection_converges_and_equals_the_cold_replay() {
    let m = minic::compile(&gen_source(&[(6, 4), (5, 3), (0, 7)]), "cold-converge").unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(3), Scalar::I(4)]);
    let interp = Interp::new(&m, exec());
    let cfg = CheckpointConfig {
        interval: 120,
        ..CheckpointConfig::default()
    };
    let (golden, store) = interp.run_with_checkpoint_store(&input, cfg);
    assert!(golden.exited());
    let first = store.inj_ctr_at(0);
    assert!(first > 40, "room for faults before the first checkpoint");

    let mut scratch = ExecScratch::default();
    let (mut early, mut full) = (0, 0);
    for nth in 0..first {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(nth),
            bit: (nth % 5) as u32,
        };
        assert_eq!(store.nearest_for_dynamic(nth), None);
        let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        let warm = check_resume_from(&interp, &mut scratch, &store, None, &input, fault, &cold)
            .unwrap_or_else(|e| panic!("fault {nth}: {e:?}"));
        match warm.converged_at {
            Some(_) => early += 1,
            None => full += 1,
        }
        scratch.recycle_output(warm.output);
    }
    assert!(
        early >= 10 && full > 0,
        "{early} early exits, {full} full replays"
    );
}

/// Every result moves its output out of the scratch; once it is handed
/// back, the next run on that scratch writes into the same buffer — to
/// the end, or spliced with golden's tail on an early exit — instead of
/// allocating a fresh one per injection.
#[test]
fn recycled_output_buffer_is_reused_by_the_next_injection() {
    let m = minic::compile(&gen_source(&[(5, 3), (6, 4), (5, 9)]), "recycle").unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(3), Scalar::I(4)]);
    let interp = Interp::new(&m, exec());
    let cfg = CheckpointConfig {
        interval: 50,
        ..CheckpointConfig::default()
    };
    let (golden, store) = interp.run_with_checkpoint_store(&input, cfg);
    assert!(golden.exited());

    let mut scratch = ExecScratch::default();
    let mut buffer = None;
    let (mut early, mut full, mut reused) = (0, 0, 0);
    for nth in (60..600).step_by(7) {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(nth),
            bit: 2,
        };
        let idx = store
            .nearest_for_dynamic(nth)
            .expect("past the first checkpoint");
        let r = interp.resume_from(&mut scratch, &store, idx, &input, fault);
        if r.output.items.capacity() == 0 {
            continue; // trapped before printing: nothing was ever allocated
        }
        // a buffer that had to grow moved; one that did not is the same
        let this = (r.output.items.as_ptr(), r.output.items.capacity());
        if let Some((ptr, capacity)) = buffer {
            if this.1 == capacity {
                assert_eq!(this.0, ptr, "fault {nth} allocated a new buffer");
                reused += 1;
            }
        }
        buffer = Some(this);
        match r.converged_at {
            Some(_) => early += 1,
            None => full += 1,
        }
        scratch.recycle_output(r.output);
    }
    assert!(
        early > 0 && full > 0,
        "{early} early exits, {full} full replays"
    );
    assert!(reused > 20, "only {reused} runs reused the buffer");
}

/// A checkpoint at which the fault's target has already executed: the
/// loops fire on a counter *equal* to the target, so a run resumed there
/// would never flip its bit and return the golden result, which a
/// campaign counts as benign. Resuming there is refused, for a
/// whole-program fault and for a per-instruction one.
fn resume_past_the_target(target: impl Fn(&Module, &CheckpointStore) -> FaultTarget) {
    let m = minic::compile(&gen_source(&[(3, 5), (4, 3), (0, 2)]), "past").unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(3), Scalar::I(4)]);
    let interp = Interp::new(&m, exec());
    let cfg = CheckpointConfig {
        interval: 25,
        ..CheckpointConfig::default()
    };
    let (golden, store) = interp.run_with_checkpoint_store(&input, cfg);
    assert!(golden.exited() && store.len() > 2);
    let fault = FaultSpec {
        target: target(&m, &store),
        bit: 0,
    };
    let last = store.len() - 1;
    interp.resume_from(&mut ExecScratch::default(), &store, last, &input, fault);
}

#[test]
#[should_panic(expected = "past the fault's target")]
fn resuming_past_a_whole_program_fault_is_refused() {
    resume_past_the_target(|_, store| {
        assert!(store.inj_ctr_at(store.len() - 1) > 0);
        FaultTarget::NthDynamic(0)
    });
}

#[test]
#[should_panic(expected = "past the fault's target")]
fn resuming_past_a_per_instruction_fault_is_refused() {
    resume_past_the_target(|m, store| {
        // the first instruction that ran before the last checkpoint
        let dense = (0..m.num_insts())
            .find(|&d| store.inj_count_at(store.len() - 1, d) > 0)
            .expect("something ran");
        FaultTarget::NthOfInst(m.numbering().id_of(dense), 0)
    });
}

/// A fault that makes the run print one item too many and then leaves no
/// other trace: every register it touched is recomputed within a few
/// iterations (the printing block runs every eighth one), memory never
/// saw it. The state is golden's except for the output length — and that
/// is state: under an output limit the golden run just fits, the faulty
/// run does not end as the golden run does.
#[test]
fn extra_output_item_is_not_convergence() {
    let src = r#"
fn main() {
    let n = arg_i(0);
    let acc = 0;
    let t = 0;
    for i = 0 to n {
        if (i * 3) % 8 > 6 { out_i(i); } else { t = i; }
        acc = acc + i;
    }
    out_i(acc + t);
}
"#;
    let m = minic::compile(src, "extra-item").unwrap();
    let input = ProgInput::scalars(vec![Scalar::I(3000)]);
    let cfg = CheckpointConfig {
        interval: 64,
        ..CheckpointConfig::default()
    };
    let roomy = Interp::new(&m, ExecConfig::default());
    let (golden, store) = roomy.run_with_checkpoint_store(&input, cfg);
    assert!(golden.exited());
    let golden_len = golden.output.items.len();
    assert!(golden_len > 300, "the loop prints every eighth iteration");
    // the same program under a limit the golden output exactly fills
    let tight = Interp::new(
        &m,
        ExecConfig {
            output_limit: golden.output.len(),
            ..ExecConfig::default()
        },
    );

    let mut scratch = ExecScratch::default();
    let (mut extra_item, mut converged) = (0, 0);
    // bit 10 adds 1024 to whatever it hits: a `% 8` result jumps over 6
    for nth in 200..800 {
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(nth),
            bit: 10,
        };
        let idx = store
            .nearest_for_dynamic(nth)
            .expect("past the first checkpoint");
        let cold = roomy.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        let warm = roomy.resume_from(&mut scratch, &store, idx, &input, fault);
        assert_eq!(warm.termination, cold.termination);
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.steps, cold.steps);
        converged += usize::from(warm.converged_at.is_some());

        let printed_extra = cold.exited()
            && cold.output.items.len() == golden_len + 1
            && cold.output.items.last() == golden.output.items.last();
        if printed_extra {
            extra_item += 1;
            assert_eq!(
                warm.converged_at, None,
                "fault {nth}: output length is state"
            );
            let cold = tight.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
            let warm = tight.resume_from(&mut scratch, &store, idx, &input, fault);
            assert_eq!(cold.termination, Termination::StepLimit);
            assert_eq!(warm.termination, cold.termination);
            assert_eq!(warm.output, cold.output);
            assert_eq!(warm.steps, cold.steps);
        }
    }
    assert!(
        extra_item >= 10,
        "only {extra_item} faults printed an extra item"
    );
    assert!(converged >= 10, "only {converged} other faults converged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `resume_from` on every checkpoint eligible for a random
    /// dynamic-index fault matches the cold faulty run bit for bit.
    #[test]
    fn resume_matches_cold_run_for_dynamic_faults(
        stmts in proptest::collection::vec((0u8..6, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        nth_raw in 0u64..10_000,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-ckpt").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let cfg = CheckpointConfig { interval, ..CheckpointConfig::default() };
        let (gold2, store) = interp.run_with_checkpoint_store(&input, cfg);
        prop_assert_eq!(&golden.output, &gold2.output);
        prop_assert_eq!(golden.steps, gold2.steps);
        prop_assert!(!store.is_empty(), "interval <= steps yields snapshots");

        let nth = nth_raw % golden.steps;
        let fault = FaultSpec { target: FaultTarget::NthDynamic(nth), bit };
        let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);

        let mut scratch = ExecScratch::default();
        for i in (0..store.len()).filter(|&i| store.inj_ctr_at(i) <= nth) {
            prop_assert_eq!(store.materialize(i).inj_ctr(), store.inj_ctr_at(i));
            let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
            prop_assert_eq!(&warm.termination, &cold.termination);
            prop_assert_eq!(&warm.output, &cold.output);
            prop_assert_eq!(warm.steps, cold.steps);
            prop_assert_eq!(warm.fault_applied, cold.fault_applied);
            prop_assert_eq!(&warm.ret, &cold.ret);
        }
    }

    /// Same property for per-static-instruction faults, which restore the
    /// per-instruction injection counter from the store.
    #[test]
    fn resume_matches_cold_run_for_per_inst_faults(
        stmts in proptest::collection::vec((0u8..6, 0u8..20), 1..8),
        a in 0i64..30,
        b in -10i64..30,
        interval_raw in 1u64..400,
        dense_raw in 0usize..10_000,
        nth in 0u64..20,
        bit in 0u32..64,
    ) {
        let m = minic::compile(&gen_source(&stmts), "prop-ckpt").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(a), Scalar::I(b)]);
        let interp = Interp::new(&m, exec());
        let golden = interp.run(&input);
        prop_assume!(golden.exited());

        let interval = 1 + interval_raw % golden.steps.max(1);
        let cfg = CheckpointConfig { interval, ..CheckpointConfig::default() };
        let (_, store) = interp.run_with_checkpoint_store(&input, cfg);

        let numbering = m.numbering();
        let dense = dense_raw % m.num_insts();
        let gid = numbering.id_of(dense);
        let fault = FaultSpec { target: FaultTarget::NthOfInst(gid, nth), bit };
        let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);

        let mut scratch = ExecScratch::default();
        for i in (0..store.len()).filter(|&i| store.inj_count_at(i, dense) <= nth) {
            prop_assert_eq!(
                store.materialize(i).inj_count_of(dense),
                store.inj_count_at(i, dense)
            );
            let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
            prop_assert_eq!(&warm.termination, &cold.termination);
            prop_assert_eq!(&warm.output, &cold.output);
            prop_assert_eq!(warm.steps, cold.steps);
            prop_assert_eq!(warm.fault_applied, cold.fault_applied);
            prop_assert_eq!(&warm.ret, &cold.ret);
        }
    }
}
