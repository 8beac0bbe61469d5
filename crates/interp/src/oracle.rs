//! The reference oracle: a per-step tree walk over the IR.
//!
//! This is the interpreter the project started with. Production runs all
//! go through the decoded loop ([`crate::decode`]); the walk survives as
//! what the decoded loop is *compared with*, in tests only: every step
//! re-derives frame → function → block → instruction from the IR, every
//! observer (profile, trace, checkpoint capture) acts per instruction, and
//! nothing is fused, cached or folded. It is slow and obviously right,
//! which is the point — `tests/decode_props.rs` and
//! `tests/engine_equivalence.rs` hold the decoded engine to it field for
//! field (see DESIGN.md, "Interpreter hot path").
//!
//! No production code path may call into this module (`scripts/ci.sh`
//! checks). It has no sampling profiler: a reference carries nothing a
//! run's result does not need.

use crate::exec::{
    bit_equal, cmp_ord, ExecResult, Frame, Interp, MachineState, Run, Start, Termination,
    TraceEvent, TrapKind, STACK_TAG,
};
use crate::fault::{flip_bit, FaultSpec, FaultTarget};
use crate::profile::Profile;
use crate::snapshot::{CheckpointCollector, CheckpointStore};
use crate::value::{Scalar, Stream, Value};
use minpsid_ir::{BinOp, BlockId, CmpOp, FuncId, InstKind, Ty, UnOp};

/// [`Interp::execute`] on the reference walk, and the store a
/// [`Start::Capture`] run captured. It resumes where the decoded engine
/// does, but replays every run to its own end: no golden-convergence early
/// exit and no hang proof ([`Run::prove`] changes nothing here). And it
/// captures a *faulty* run too, which the decoded engine has no use for:
/// the states a fault leaves behind at the golden run's checkpoint
/// boundaries, for asking afterwards why a run did not converge
/// ([`crate::converge::divergence`]).
pub fn execute(interp: &Interp<'_>, run: &Run<'_>) -> (ExecResult, Option<CheckpointStore>) {
    let mut st = MachineState::default();
    match run.golden(interp) {
        (Some(store), Some(k)) => interp.restore(store, k, run.fault, &mut st),
        _ => st.start(interp.module()),
    }
    let mut ckpt = match run.start {
        Start::Capture(cfg) => Some(CheckpointCollector::new(cfg, interp.module().num_insts())),
        _ => None,
    };
    let r = run_inner(interp, &mut st, run, ckpt.as_mut());
    let store = ckpt.map(|coll| {
        let mut store = coll.into_store();
        if r.termination == Termination::Exit {
            store.attach_tail(r.output.clone(), r.steps, r.ret);
        }
        store
    });
    (r, store)
}

fn run_inner(
    interp: &Interp<'_>,
    st: &mut MachineState,
    run: &Run<'_>,
    mut ckpt: Option<&mut CheckpointCollector>,
) -> ExecResult {
    let (input, fault) = (run.input, run.fault);
    let m = interp.module();
    // per static instruction (dense): injectable flag
    let injectable: Vec<bool> = m
        .funcs
        .iter()
        .flat_map(|f| f.insts.iter().map(|inst| inst.injectable()))
        .collect();
    // per function: the number of its first block in the profile's list
    let first_block: Vec<usize> = m
        .funcs
        .iter()
        .scan(0, |n, f| {
            *n += f.blocks.len();
            Some(*n - f.blocks.len())
        })
        .collect();
    let cfg = interp.config();
    let mut profile = (run.observe && cfg.profile).then(|| Profile::for_module(m));
    let mut trace: Option<Vec<TraceEvent>> = (run.observe && cfg.trace).then(Vec::new);
    // A resumed run enters with the snapshot's step counter already set.
    let resumed_at = (st.steps > 0).then_some(st.steps);

    // fault target precomputation
    let (target_dense, target_nth, whole_nth) = match fault {
        Some(FaultSpec {
            target: FaultTarget::NthOfInst(gid, n),
            ..
        }) => (Some(interp.dense_index(gid)), n, u64::MAX),
        Some(FaultSpec {
            target: FaultTarget::NthDynamic(n),
            ..
        }) => (None, 0, n),
        None => (None, 0, u64::MAX),
    };
    let fault_armed = fault.is_some();
    let fault_bit = fault.map(|f| f.bit).unwrap_or(0);

    // A fresh run enters the entry block; a resumed run (steps > 0)
    // re-enters mid-block, and its suffix profile counts no extra
    // block entry.
    if st.steps == 0 {
        if let Some(p) = profile.as_mut() {
            p.block_counts[first_block[m.entry.index()]] += 1;
        }
    }

    'outer: loop {
        // Hot loop: one instruction per iteration of this inner loop.
        loop {
            // Checkpoint capture sits between instructions, before any
            // borrow of the frame stack: everything the next
            // instruction will observe is in `st`.
            if let Some(c) = ckpt.as_deref_mut() {
                if c.due(st.steps) {
                    c.capture(st);
                }
            }

            // Disjoint field borrows: the frame stack, memories, and
            // counters are all mutated in one iteration.
            let MachineState {
                frames: stack,
                mem,
                stack_mem,
                output,
                steps,
                inj_ctr,
                per_inst_ctr,
                fault_applied,
            } = &mut *st;

            macro_rules! finish {
                ($term:expr, $ret:expr) => {
                    return ExecResult {
                        termination: $term,
                        output: std::mem::take(output),
                        profile: profile.map(|mut p: Profile| {
                            p.injectable_execs = *inj_ctr;
                            p
                        }),
                        steps: *steps,
                        fault_applied: *fault_applied,
                        ret: $ret,
                        trace,
                        resumed_at,
                        converged_at: None,
                        hang_proved_at: None,
                    }
                };
            }
            macro_rules! trap {
                ($kind:expr) => {
                    finish!(Termination::Trap($kind), None)
                };
            }

            let depth = stack.len() as u32;
            let frame = stack.last_mut().unwrap();
            let func = &m.funcs[frame.func.index()];
            let block = &func.blocks[frame.block.index()];
            debug_assert!(frame.pos < block.insts.len(), "fell off block end");
            let iid = block.insts[frame.pos];
            let inst = &func.insts[iid.index()];
            let dense = interp.base[frame.func.index()] + iid.index();

            *steps += 1;
            if *steps > interp.config().step_limit {
                finish!(Termination::StepLimit, None);
            }
            if let Some(p) = profile.as_mut() {
                p.inst_counts[dense] += 1;
                // Per-section dynamic range: steps are 1-based here
                // (incremented above), so 0 doubles as "never ran".
                let fidx = frame.func.index();
                if p.sec_first_step[fidx] == 0 {
                    p.sec_first_step[fidx] = *steps;
                }
                p.sec_last_step[fidx] = *steps;
            }

            // operand fetch
            macro_rules! val {
                ($o:expr) => {{
                    let v = match $o {
                        minpsid_ir::Operand::Value(id) => frame.regs[id.index()],
                        minpsid_ir::Operand::ConstI(c) => Value::I(*c),
                        minpsid_ir::Operand::ConstF(c) => Value::F(*c),
                        minpsid_ir::Operand::ConstB(c) => Value::B(*c),
                    };
                    if matches!(v, Value::Undef) {
                        trap!(TrapKind::UndefRead);
                    }
                    v
                }};
            }
            macro_rules! int {
                ($o:expr) => {
                    match val!($o) {
                        Value::I(v) => v,
                        _ => trap!(TrapKind::TypeConfusion),
                    }
                };
            }
            macro_rules! flt {
                ($o:expr) => {
                    match val!($o) {
                        Value::F(v) => v,
                        _ => trap!(TrapKind::TypeConfusion),
                    }
                };
            }
            macro_rules! boolean {
                ($o:expr) => {
                    match val!($o) {
                        Value::B(v) => v,
                        _ => trap!(TrapKind::TypeConfusion),
                    }
                };
            }
            macro_rules! ptr {
                ($o:expr) => {
                    match val!($o) {
                        Value::P(v) => v,
                        _ => trap!(TrapKind::TypeConfusion),
                    }
                };
            }

            // compute the result value (None for void / control)
            let mut result: Option<Value> = None;
            let mut control: Option<Control> = None;

            match &inst.kind {
                InstKind::Param { n } => {
                    let v = frame.args.get(*n as usize).copied().unwrap_or(Value::Undef);
                    result = Some(v);
                }
                InstKind::Bin { op, lhs, rhs } => {
                    let a = val!(lhs);
                    let b = val!(rhs);
                    match (a, b) {
                        (Value::I(x), Value::I(y)) => {
                            let r = match op {
                                BinOp::Add => x.wrapping_add(y),
                                BinOp::Sub => x.wrapping_sub(y),
                                BinOp::Mul => x.wrapping_mul(y),
                                BinOp::Div => match x.checked_div(y) {
                                    Some(v) => v,
                                    None => trap!(TrapKind::DivByZero),
                                },
                                BinOp::Rem => match x.checked_rem(y) {
                                    Some(v) => v,
                                    None => trap!(TrapKind::DivByZero),
                                },
                                BinOp::And => x & y,
                                BinOp::Or => x | y,
                                BinOp::Xor => x ^ y,
                                BinOp::Shl => x.wrapping_shl(y as u32 & 63),
                                BinOp::Shr => x.wrapping_shr(y as u32 & 63),
                                BinOp::Min => x.min(y),
                                BinOp::Max => x.max(y),
                            };
                            result = Some(Value::I(r));
                        }
                        (Value::F(x), Value::F(y)) => {
                            let r = match op {
                                BinOp::Add => x + y,
                                BinOp::Sub => x - y,
                                BinOp::Mul => x * y,
                                BinOp::Div => x / y,
                                BinOp::Rem => x % y,
                                BinOp::Min => x.min(y),
                                BinOp::Max => x.max(y),
                                _ => trap!(TrapKind::TypeConfusion),
                            };
                            result = Some(Value::F(r));
                        }
                        _ => trap!(TrapKind::TypeConfusion),
                    }
                }
                InstKind::Un { op, arg } => {
                    let v = val!(arg);
                    let r = match (op, v) {
                        (UnOp::Neg, Value::I(x)) => Value::I(x.wrapping_neg()),
                        (UnOp::Neg, Value::F(x)) => Value::F(-x),
                        (UnOp::Not, Value::B(x)) => Value::B(!x),
                        (UnOp::Not, Value::I(x)) => Value::I(!x),
                        (UnOp::Abs, Value::I(x)) => Value::I(x.wrapping_abs()),
                        (UnOp::Abs, Value::F(x)) => Value::F(x.abs()),
                        (UnOp::Sqrt, Value::F(x)) => Value::F(x.sqrt()),
                        (UnOp::Sin, Value::F(x)) => Value::F(x.sin()),
                        (UnOp::Cos, Value::F(x)) => Value::F(x.cos()),
                        (UnOp::Exp, Value::F(x)) => Value::F(x.exp()),
                        (UnOp::Log, Value::F(x)) => Value::F(x.ln()),
                        (UnOp::Floor, Value::F(x)) => Value::F(x.floor()),
                        _ => trap!(TrapKind::TypeConfusion),
                    };
                    result = Some(r);
                }
                InstKind::Cmp { op, lhs, rhs } => {
                    let a = val!(lhs);
                    let b = val!(rhs);
                    let r = match (a, b) {
                        (Value::I(x), Value::I(y)) => cmp_ord(*op, x.cmp(&y)),
                        (Value::B(x), Value::B(y)) => cmp_ord(*op, x.cmp(&y)),
                        (Value::F(x), Value::F(y)) => match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        },
                        _ => trap!(TrapKind::TypeConfusion),
                    };
                    result = Some(Value::B(r));
                }
                InstKind::Select {
                    cond,
                    then_v,
                    else_v,
                } => {
                    let c = boolean!(cond);
                    result = Some(if c { val!(then_v) } else { val!(else_v) });
                }
                InstKind::Cast { to, arg } => {
                    let v = val!(arg);
                    let r = match (v, to) {
                        (Value::I(x), Ty::F64) => Value::F(x as f64),
                        (Value::F(x), Ty::I64) => Value::I(x as i64), // saturating
                        (Value::B(x), Ty::I64) => Value::I(x as i64),
                        (Value::I(x), Ty::I64) => Value::I(x),
                        _ => trap!(TrapKind::TypeConfusion),
                    };
                    result = Some(r);
                }
                InstKind::Alloc { count } => {
                    let n = int!(count);
                    if n < 0 {
                        trap!(TrapKind::NegativeAlloc);
                    }
                    let n = n as u64;
                    let base = mem.len() as u64;
                    if base + n > interp.config().mem_limit {
                        trap!(TrapKind::MemLimit);
                    }
                    mem.resize((base + n) as usize, 0);
                    result = Some(Value::P(base));
                }
                InstKind::Salloc { count } => {
                    let n = int!(count);
                    if n < 0 {
                        trap!(TrapKind::NegativeAlloc);
                    }
                    let n = n as u64;
                    let base = stack_mem.len() as u64;
                    if base + n > interp.config().mem_limit {
                        trap!(TrapKind::MemLimit);
                    }
                    stack_mem.resize((base + n) as usize, 0);
                    result = Some(Value::P(STACK_TAG | base));
                }
                InstKind::Load { ptr, idx, ty } => {
                    let p = ptr!(ptr);
                    let i = int!(idx);
                    let (space, base): (&[u64], u64) = if p & STACK_TAG != 0 {
                        (&*stack_mem, p & !STACK_TAG)
                    } else {
                        (&*mem, p)
                    };
                    let addr = base as i128 + i as i128;
                    if addr < 0 || addr >= space.len() as i128 {
                        trap!(TrapKind::OutOfBounds);
                    }
                    let bits = space[addr as usize];
                    result = Some(match ty {
                        Ty::I64 => Value::I(bits as i64),
                        Ty::F64 => Value::F(f64::from_bits(bits)),
                        _ => trap!(TrapKind::TypeConfusion),
                    });
                }
                InstKind::Store { ptr, idx, value } => {
                    let p = ptr!(ptr);
                    let i = int!(idx);
                    let v = val!(value);
                    let (space, base): (&mut Vec<u64>, u64) = if p & STACK_TAG != 0 {
                        (&mut *stack_mem, p & !STACK_TAG)
                    } else {
                        (&mut *mem, p)
                    };
                    let addr = base as i128 + i as i128;
                    if addr < 0 || addr >= space.len() as i128 {
                        trap!(TrapKind::OutOfBounds);
                    }
                    space[addr as usize] = match v {
                        Value::I(x) => x as u64,
                        Value::F(x) => x.to_bits(),
                        _ => trap!(TrapKind::TypeConfusion),
                    };
                }
                InstKind::Call { func: callee, args } => {
                    if depth >= interp.config().call_depth_limit {
                        trap!(TrapKind::CallDepth);
                    }
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(val!(a));
                    }
                    control = Some(Control::Call(*callee, argv));
                }
                InstKind::NArgs => {
                    result = Some(Value::I(input.args.len() as i64));
                }
                InstKind::ArgI { n } => {
                    let i = int!(n);
                    // a negative (or otherwise unrepresentable) index
                    // traps distinctly instead of aliasing to a miss
                    let Ok(ix) = usize::try_from(i) else {
                        trap!(TrapKind::BadIndex)
                    };
                    match input.args.get(ix) {
                        Some(Scalar::I(v)) => result = Some(Value::I(*v)),
                        Some(Scalar::F(_)) => trap!(TrapKind::ArgTypeMismatch),
                        None => trap!(TrapKind::ArgOutOfRange),
                    }
                }
                InstKind::ArgF { n } => {
                    let i = int!(n);
                    let Ok(ix) = usize::try_from(i) else {
                        trap!(TrapKind::BadIndex)
                    };
                    match input.args.get(ix) {
                        Some(Scalar::F(v)) => result = Some(Value::F(*v)),
                        Some(Scalar::I(_)) => trap!(TrapKind::ArgTypeMismatch),
                        None => trap!(TrapKind::ArgOutOfRange),
                    }
                }
                InstKind::DataLen { stream } => {
                    let len = input
                        .streams
                        .get(*stream as usize)
                        .map(|s| s.len() as i64)
                        .unwrap_or(0);
                    result = Some(Value::I(len));
                }
                InstKind::DataI { stream, idx } => {
                    let i = int!(idx);
                    let Ok(ix) = usize::try_from(i) else {
                        trap!(TrapKind::BadIndex)
                    };
                    match input.streams.get(*stream as usize) {
                        Some(Stream::I(v)) => match v.get(ix) {
                            Some(x) => result = Some(Value::I(*x)),
                            None => trap!(TrapKind::StreamOutOfBounds),
                        },
                        Some(Stream::F(_)) => trap!(TrapKind::StreamTypeMismatch),
                        None => trap!(TrapKind::StreamOutOfBounds),
                    }
                }
                InstKind::DataF { stream, idx } => {
                    let i = int!(idx);
                    let Ok(ix) = usize::try_from(i) else {
                        trap!(TrapKind::BadIndex)
                    };
                    match input.streams.get(*stream as usize) {
                        Some(Stream::F(v)) => match v.get(ix) {
                            Some(x) => result = Some(Value::F(*x)),
                            None => trap!(TrapKind::StreamOutOfBounds),
                        },
                        Some(Stream::I(_)) => trap!(TrapKind::StreamTypeMismatch),
                        None => trap!(TrapKind::StreamOutOfBounds),
                    }
                }
                InstKind::OutI { v } => {
                    let x = int!(v);
                    output.push_i(x);
                    if output.len() > interp.config().output_limit {
                        finish!(Termination::StepLimit, None);
                    }
                }
                InstKind::OutF { v } => {
                    let x = flt!(v);
                    output.push_f(x);
                    if output.len() > interp.config().output_limit {
                        finish!(Termination::StepLimit, None);
                    }
                }
                InstKind::Check { a, b } => {
                    let x = val!(a);
                    let y = val!(b);
                    if !bit_equal(x, y) {
                        finish!(Termination::Detected, None);
                    }
                }
                InstKind::Br { target } => {
                    control = Some(Control::Jump(*target));
                }
                InstKind::CondBr {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let c = boolean!(cond);
                    control = Some(Control::Jump(if c { *then_b } else { *else_b }));
                }
                InstKind::Ret { v } => {
                    let rv = match v {
                        Some(v) => Some(val!(v)),
                        None => None,
                    };
                    control = Some(Control::Return(rv));
                }
            }

            // fault application: flip a bit of the freshly produced
            // value when this dynamic execution is the armed target.
            // Calls produce their value at return time and are handled
            // in the Return branch below; everything else produces it
            // here. Checkpoint collection mirrors the counters here so
            // snapshots can restore them exactly.
            if injectable[dense] {
                if let Some(v) = result {
                    if fault_armed {
                        let fire = match target_dense {
                            Some(td) => {
                                if td == dense {
                                    let hit = *per_inst_ctr == target_nth;
                                    *per_inst_ctr += 1;
                                    hit
                                } else {
                                    false
                                }
                            }
                            None => *inj_ctr == whole_nth,
                        };
                        if fire && !*fault_applied {
                            *fault_applied = true;
                            result = Some(flip_bit(v, fault_bit));
                        }
                    }
                    *inj_ctr += 1;
                    if let Some(c) = ckpt.as_deref_mut() {
                        c.inj_counts[dense] += 1;
                    }
                }
            }

            if let Some(v) = result {
                frame.regs[iid.index()] = v;
                if let Some(t) = trace.as_mut() {
                    t.push(TraceEvent {
                        dense: dense as u32,
                        value: v,
                    });
                }
            }

            match control {
                None => {
                    frame.pos += 1;
                }
                Some(Control::Jump(target)) => {
                    if let Some(p) = profile.as_mut() {
                        p.block_counts[first_block[frame.func.index()] + target.index()] += 1;
                    }
                    frame.block = target;
                    frame.pos = 0;
                }
                Some(Control::Call(callee, argv)) => {
                    let cf = &m.funcs[callee.index()];
                    let new_frame = Frame {
                        func: callee,
                        block: BlockId(0),
                        pos: 0,
                        regs: vec![Value::Undef; cf.insts.len()],
                        args: argv,
                        sp_base: stack_mem.len(),
                    };
                    if let Some(p) = profile.as_mut() {
                        p.block_counts[first_block[callee.index()]] += 1;
                    }
                    stack.push(new_frame);
                }
                Some(Control::Return(rv)) => {
                    let finished = stack.pop().unwrap();
                    stack_mem.truncate(finished.sp_base);
                    match stack.last_mut() {
                        None => {
                            finish!(Termination::Exit, rv);
                        }
                        Some(caller) => {
                            // write the return value into the call's
                            // register and advance past the call; the
                            // call's return value materializes *here*,
                            // so this is its fault-injection point
                            let cfunc = &m.funcs[caller.func.index()];
                            let cblock = &cfunc.blocks[caller.block.index()];
                            let call_iid = cblock.insts[caller.pos];
                            let call_dense = interp.base[caller.func.index()] + call_iid.index();
                            if let Some(mut v) = rv {
                                if injectable[call_dense] {
                                    if fault_armed {
                                        let fire = match target_dense {
                                            Some(td) => {
                                                if td == call_dense {
                                                    let hit = *per_inst_ctr == target_nth;
                                                    *per_inst_ctr += 1;
                                                    hit
                                                } else {
                                                    false
                                                }
                                            }
                                            None => *inj_ctr == whole_nth,
                                        };
                                        if fire && !*fault_applied {
                                            *fault_applied = true;
                                            v = flip_bit(v, fault_bit);
                                        }
                                    }
                                    *inj_ctr += 1;
                                    if let Some(c) = ckpt.as_deref_mut() {
                                        c.inj_counts[call_dense] += 1;
                                    }
                                }
                                caller.regs[call_iid.index()] = v;
                                if let Some(t) = trace.as_mut() {
                                    t.push(TraceEvent {
                                        dense: call_dense as u32,
                                        value: v,
                                    });
                                }
                            }
                            caller.pos += 1;
                        }
                    }
                    continue 'outer;
                }
            }
        }
    }
}

enum Control {
    Jump(BlockId),
    Call(FuncId, Vec<Value>),
    Return(Option<Value>),
}
