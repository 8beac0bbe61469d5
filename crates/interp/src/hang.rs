//! Proving a hang: stop a faulty run whose counted loop provably repeats
//! itself until the step limit.
//!
//! A run that ends at the step limit ([`Termination::StepLimit`], classified
//! as a hang) is the costliest kind there is: it executes the whole budget,
//! ten times the golden run's length in a campaign. Many such runs are a
//! counted loop whose bound a fault inflated and whose body has settled into
//! doing the same thing every time round. This module recognises that case
//! and returns, at the point of proof, the [`ExecResult`] the full run would
//! return — field for field, like golden convergence ([`crate::converge`]).
//!
//! **Which loops** (decode time, [`latches`]). A back edge `L → H` whose
//! blocks are exactly
//!
//! ```text
//! L: l0 = load s; l1 = add l0, 1; store s, l1; br H
//! H: h0 = load s; h1 = icmp lt h0, B; condbr h1, <in loop>, <out of loop>
//! ```
//!
//! where `s` is a slot-addressed stack word of the frame and `B` a constant
//! or a register defined outside the loop; the loop leaves only through
//! `H`'s false edge and holds no `ret`; in the whole function `s` is loaded
//! only at `h0` and `l0`, inside the loop stored only at `l2`, and `h0`,
//! `l0`, `l1` are each read only by the next instruction of their block;
//! and, module-wide, every `salloc` result is used only as the pointer of
//! slot-addressed loads and stores, so no pointer to a stack slot escapes.
//!
//! **The rule** (run time, [`HangProof::visit`]). The proving loop visits a
//! latch after its store, the branch not yet taken. Two consecutive visits
//! `a`, `b` of one latch whose states agree in everything the next
//! instruction can observe ([`crate::converge`]'s state: every frame's
//! place, registers and arguments, heap, stack, output length) except `s`
//! and the three registers that carry it (`h0`, `l0`, `l1`), in a state that
//! holds no stack-tagged pointer but `salloc` results, end the run at the
//! step limit when
//!
//! * `s_b = s_a`: the state recurs exactly, so the run is periodic; or
//! * `s_b = s_a + 1` and `steps_b + (B − s_b) · (steps_b − steps_a) >
//!   step_limit`: the loop is still counting up to `B` when the limit
//!   expires.
//!
//! **Why that is exact.** Nothing but `h0` and `l0` reads `s`: no other
//! load names its slot, no `salloc` pointer reaches a callee or a register
//! other than its own, and no stray stack-tagged pointer (a flipped heap
//! pointer) is live, so no access computed from operands can reach the
//! stack. What `h0` and `l0` read reaches only `h1` and the store back into
//! `s`. So from `b` the run repeats what it did from `a` — the same
//! instructions on the same values, `s` one higher — for as long as `h1`
//! holds, and every one of those steps is a step the iteration `a → b`
//! already ran without trapping, exiting or printing. With `s_a < B` the
//! iteration from `a` entered the body, and with no other exit and no `ret`
//! it is exactly one trip round the loop; the trips from `b` continue while
//! `s < B`, each `steps_b − steps_a` long, so the last one ends at
//! `steps_b + (B − s_b) · (steps_b − steps_a)` — past the limit, the run
//! stops there first. The registers `h0`, `l0`, `l1` may differ between the
//! visits because each is read only by the next instruction of its own
//! block, after it is written again; every other register is compared, so
//! no liveness argument is needed and the rule holds on IR that does not
//! verify. Trap-freedom and the step count are therefore observed, not
//! derived.
//!
//! **Cost.** The proof runs only past the golden run's length, on the
//! slotted lowering (the generic lowering carries no latches), and at a
//! visit it either compares against the previous visit's save or takes a
//! save: a copy of the state, charged together with the compare it pays
//! for in advance. The words so charged never exceed 1/8 of the steps run
//! since the golden run's length ([`WORDS_PER_STEP_DEN`]); a visit the
//! bound rules out drops the save, so every compare is between consecutive
//! visits.

use crate::converge::{values_eq, DecodedView, WORDS_PER_STEP_DEN};
use crate::decode::DFrame;
use crate::exec::{ExecResult, MachineState, Termination, STACK_TAG};
use crate::snapshot::value_bits_eq;
use crate::value::Value;
use minpsid_ir::{
    BinOp, BlockId, Cfg, CmpOp, DomTree, Function, InstId, InstKind, Module, Operand, Ty,
};

/// What a counted loop compares its counter with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bound {
    Const(i64),
    /// A register of the frame, defined outside the loop.
    Reg(u32),
}

/// One counted loop whose latch the proving loop visits (see the module
/// docs for the shape).
#[derive(Debug, Clone)]
pub(crate) struct Latch {
    /// Code slot of `l0`: where the latch's `LoadBinStoreBr` sits.
    pub(crate) pc: u32,
    /// Module-wide index: which save a visit compares against.
    pub(crate) id: u32,
    /// Word offset of the counter `s` from the frame's stack base.
    pub(crate) slot: u32,
    pub(crate) bound: Bound,
    /// `h0`, `l0`, `l1`: the registers that carry `s`, left out of the
    /// comparison.
    pub(crate) carriers: [u32; 3],
}

/// Whether every `salloc` result of `m` is used only as the pointer of a
/// slot-addressed load or store. `offsets[f]` is `slot_offsets` of function
/// `f`: per code slot, the word offset a load or store addresses at decode
/// time.
pub(crate) fn sallocs_stay_in_slots(m: &Module, offsets: &[Vec<Option<u32>>]) -> bool {
    let mut ops = Vec::new();
    m.funcs.iter().zip(offsets).all(|(f, offsets)| {
        let placed = f.blocks.iter().flat_map(|b| &b.insts);
        placed.zip(offsets).all(|(id, offset)| {
            let kind = &f.insts[id.index()].kind;
            ops.clear();
            kind.value_operands(&mut ops);
            let sallocs = ops
                .iter()
                .filter(|o| matches!(f.insts[o.index()].kind, InstKind::Salloc { .. }))
                .count();
            // a slot-addressed half names its slot's salloc as its pointer,
            // and only there
            let slotted =
                matches!(kind, InstKind::Load { .. } | InstKind::Store { .. }) && offset.is_some();
            sallocs == usize::from(slotted)
        })
    })
}

/// The latches of `f` the proving loop may visit, numbered from `*next_id`
/// on. `offsets` is `slot_offsets(f)`; `contained` says whether
/// [`sallocs_stay_in_slots`] holds for the whole module (without it no
/// loop qualifies).
pub(crate) fn latches(
    f: &Function,
    offsets: &[Option<u32>],
    contained: bool,
    next_id: &mut u32,
) -> Vec<Latch> {
    if !contained {
        return Vec::new();
    }
    // where each placed instruction sits, and how often it is read
    let n = f.insts.len();
    let (mut slot_of, mut block_of) = (vec![usize::MAX; n], vec![usize::MAX; n]);
    let mut reads = vec![0u32; n];
    let mut ops = Vec::new();
    let mut slot = 0;
    for (bi, b) in f.blocks.iter().enumerate() {
        for id in &b.insts {
            (slot_of[id.index()], block_of[id.index()]) = (slot, bi);
            slot += 1;
            ops.clear();
            f.insts[id.index()].kind.value_operands(&mut ops);
            for o in &ops {
                reads[o.index()] += 1;
            }
        }
    }
    let offset = |id: InstId| offsets[slot_of[id.index()]];
    let mut cfg_dom = None;
    let mut found = Vec::new();
    for (li, lb) in f.blocks.iter().enumerate() {
        let Some((h, s, bound, carriers)) = latch_shape(f, &lb.insts, &offset, &reads) else {
            continue;
        };
        let (cfg, dom) = cfg_dom.get_or_insert_with(|| {
            let cfg = Cfg::build(f);
            let dom = DomTree::build(&cfg);
            (cfg, dom)
        });
        let (l, h) = (BlockId(li as u32), BlockId(h as u32));
        if l == h || !dom.dominates(h, l) {
            continue;
        }
        let mut in_loop = vec![false; f.blocks.len()];
        for b in dom.natural_loop(cfg, l, h) {
            in_loop[b.index()] = true;
        }
        let exits_only_at_h = in_loop
            .iter()
            .enumerate()
            .filter(|(_, &i)| i)
            .all(|(b, _)| {
                let term = f.blocks[b].insts.last().map(|id| &f.insts[id.index()].kind);
                match term {
                    Some(InstKind::Br { target }) => in_loop[target.index()],
                    Some(InstKind::CondBr { then_b, else_b, .. }) if b == h.index() => {
                        in_loop[then_b.index()] && !in_loop[else_b.index()]
                    }
                    Some(InstKind::CondBr { then_b, else_b, .. }) => {
                        in_loop[then_b.index()] && in_loop[else_b.index()]
                    }
                    _ => false, // a ret, or a block without a terminator
                }
            });
        let bound_outside = match bound {
            Bound::Const(_) => true,
            Bound::Reg(r) => block_of[r as usize] != usize::MAX && !in_loop[block_of[r as usize]],
        };
        // `s` is read only at h0 and l0 anywhere in the function, and
        // written inside the loop only at l2
        let [h0, l0, _] = carriers;
        let l2 = lb.insts[2];
        let s_private = f.blocks.iter().enumerate().all(|(bi, b)| {
            b.insts.iter().all(|&id| match f.insts[id.index()].kind {
                InstKind::Load { .. } if offset(id) == Some(s) => id.0 == h0 || id.0 == l0,
                InstKind::Store { .. } if in_loop[bi] && offset(id) == Some(s) => id == l2,
                _ => true,
            })
        });
        if exits_only_at_h && bound_outside && s_private {
            found.push(Latch {
                pc: slot_of[lb.insts[0].index()] as u32,
                id: *next_id,
                slot: s,
                bound,
                carriers,
            });
            *next_id += 1;
        }
    }
    found
}

/// The block-local half of the shape: `insts` is `L`'s body. Returns the
/// header block, the counter's slot, the bound and the carriers.
fn latch_shape(
    f: &Function,
    insts: &[InstId],
    offset: &impl Fn(InstId) -> Option<u32>,
    reads: &[u32],
) -> Option<(usize, u32, Bound, [u32; 3])> {
    let kind = |id: InstId| &f.insts[id.index()].kind;
    let is = |o: &Operand, id: InstId| matches!(o, Operand::Value(v) if *v == id);
    let counter_load = |id: InstId| {
        matches!(kind(id), InstKind::Load { ty: Ty::I64, .. })
            .then(|| offset(id))
            .flatten()
    };
    let &[l0, l1, l2, l3] = insts else {
        return None;
    };
    let s = counter_load(l0)?;
    let InstKind::Bin {
        op: BinOp::Add,
        lhs,
        rhs,
    } = kind(l1)
    else {
        return None;
    };
    let one = |o: &Operand| matches!(o, Operand::ConstI(1));
    let stored = matches!(kind(l2), InstKind::Store { value, .. } if is(value, l1));
    let InstKind::Br { target } = kind(l3) else {
        return None;
    };
    let &[h0, h1, h2] = f.blocks[target.index()].insts.as_slice() else {
        return None;
    };
    let InstKind::Cmp {
        op: CmpOp::Lt,
        lhs: cmp_lhs,
        rhs: bound,
    } = kind(h1)
    else {
        return None;
    };
    let bound = match *bound {
        Operand::ConstI(b) => Bound::Const(b),
        Operand::Value(r) => Bound::Reg(r.0),
        _ => return None,
    };
    let shaped = ((is(lhs, l0) && one(rhs)) || (one(lhs) && is(rhs, l0)))
        && stored
        && offset(l2) == Some(s)
        && counter_load(h0) == Some(s)
        && is(cmp_lhs, h0)
        && matches!(kind(h2), InstKind::CondBr { cond, .. } if is(cond, h1))
        && [h0, l0, l1].iter().all(|id| reads[id.index()] == 1);
    shaped.then_some((target.index(), s, bound, [h0.0, l0.0, l1.0]))
}

/// One visit's state, kept for the next visit of the same latch.
#[derive(Debug, Default)]
struct Save {
    live: bool,
    steps: u64,
    s: i64,
    dframes: Vec<DFrame>,
    regs: Vec<Value>,
    args: Vec<Value>,
    mem: Vec<u64>,
    stack_mem: Vec<u64>,
    out_len: usize,
}

/// Copy `src` into `buf`, keeping `buf`'s allocation.
fn refill<T: Clone>(buf: &mut Vec<T>, src: &[T]) {
    buf.clear();
    buf.extend_from_slice(src);
}

impl Save {
    fn take(&mut self, view: &DecodedView<'_>, steps: u64, s: i64) {
        (self.steps, self.s, self.out_len) = (steps, s, view.out_len);
        refill(&mut self.dframes, view.dframes);
        refill(&mut self.regs, view.regs);
        refill(&mut self.args, view.args);
        refill(&mut self.mem, view.mem);
        refill(&mut self.stack_mem, view.stack_mem);
    }

    /// Whether `view`'s state equals the saved one apart from the counter
    /// (stack word `at`) and the running frame's carriers.
    fn same_state(&self, latch: &Latch, view: &DecodedView<'_>, at: usize) -> bool {
        let (saved, now) = (&self.dframes, view.dframes);
        let last = now.len() - 1;
        // the running frame's pc is stale in both: the latch, by construction
        let place = |f: &DFrame| DFrame { pc: 0, ..*f };
        let top = now[last].reg_base;
        let carried = |r: usize| latch.carriers.iter().any(|&c| c as usize + top == r);
        saved.len() == now.len()
            && saved[..last] == now[..last]
            && place(&saved[last]) == place(&now[last])
            && self.out_len == view.out_len
            && self.mem == view.mem
            && self.stack_mem.len() == view.stack_mem.len()
            && self.stack_mem[..at] == view.stack_mem[..at]
            && self.stack_mem[at + 1..] == view.stack_mem[at + 1..]
            && values_eq(&self.args, view.args)
            && self.regs.len() == view.regs.len()
            && (self.regs.iter().zip(view.regs).enumerate())
                .all(|(r, (&x, &y))| carried(r) || value_bits_eq(x, y))
    }
}

/// Whether some frame's register or argument holds a stack-tagged pointer
/// that is not a `salloc` result: a flipped heap pointer, which could reach
/// the counter.
fn stray_stack_pointer(view: &DecodedView<'_>) -> bool {
    let stack = |v: &Value| matches!(v, Value::P(p) if p & STACK_TAG != 0);
    view.args.iter().any(stack)
        || view.dframes.iter().any(|f| {
            let df = &view.dm.funcs[f.func as usize];
            let regs = &view.regs[f.reg_base..f.reg_base + df.salloc_regs.len()];
            regs.iter()
                .zip(&df.salloc_regs)
                .any(|(v, &salloc)| !salloc && stack(v))
        })
}

/// The hang proof of one run on the proving loop: one save per latch of
/// the module, and what the saves and compares have cost. Lives in the
/// scratch, so its buffers outlive the run.
#[derive(Debug, Default)]
pub(crate) struct HangProof {
    saves: Vec<Save>,
    /// Step count at which the proving loop took over: the budget counts
    /// from here.
    from: u64,
    /// The run's step limit (here, not in the loop's registers: one value
    /// more live across the loop puts its `pc` on the stack).
    step_limit: u64,
    /// Words copied into saves and compared against them (each save is
    /// charged its compare when it is taken).
    pub(crate) words: u64,
}

impl HangProof {
    /// Start a run under `step_limit` that enters the proving loop at step
    /// count `steps`.
    pub(crate) fn begin(&mut self, steps: u64, step_limit: u64) {
        (self.from, self.step_limit, self.words) = (steps, step_limit, 0);
        for s in &mut self.saves {
            s.live = false;
        }
    }

    /// Visit `latch` after its store, with `steps` steps completed. `true`
    /// means the run is proved to end at the step limit (see the module
    /// docs).
    #[cold]
    #[inline(never)]
    pub(crate) fn visit(&mut self, latch: &Latch, view: &DecodedView<'_>, steps: u64) -> bool {
        let step_limit = self.step_limit;
        let id = latch.id as usize;
        if id >= self.saves.len() {
            self.saves.resize_with(id + 1, Save::default);
        }
        let top = view.dframes.last().expect("a latch runs in a frame");
        let at = top.sp_base + latch.slot as usize;
        let s = view.stack_mem[at] as i64;
        let save = &mut self.saves[id];
        if save.live && save.same_state(latch, view, at) {
            let (sa, sb) = (i128::from(save.s), i128::from(s));
            let bound = match latch.bound {
                Bound::Const(b) => Some(b),
                Bound::Reg(r) => match view.regs[top.reg_base + r as usize] {
                    Value::I(b) => Some(b),
                    _ => None,
                },
            };
            let counts_past_limit = || {
                let Some(trips) = bound.and_then(|b| u128::try_from(i128::from(b) - sb).ok())
                else {
                    return false;
                };
                let period = u128::from(steps - save.steps);
                u128::from(steps).saturating_add(trips.saturating_mul(period))
                    > u128::from(step_limit)
            };
            if (sb == sa || (sb == sa + 1 && counts_past_limit())) && !stray_stack_pointer(view) {
                return true;
            }
        }
        // save this visit for the next one, paying for that compare now,
        // or drop the save: a compare is only ever between consecutive
        // visits
        let cost = 2 * view.words();
        let allowance = (steps - self.from) / WORDS_PER_STEP_DEN;
        save.live = self.words + cost <= allowance;
        if save.live {
            self.words += cost;
            save.take(view, steps, s);
        }
        false
    }

    /// The result of a run proved, at step count `st.steps`, to end at the
    /// step limit: the full run's, field for field — nothing after the
    /// proof prints — with [`ExecResult::hang_proved_at`] set.
    pub(crate) fn finish(&self, st: &mut MachineState, resumed_at: Option<u64>) -> ExecResult {
        ExecResult {
            termination: Termination::StepLimit,
            output: std::mem::take(&mut st.output),
            profile: None,
            steps: self.step_limit + 1,
            fault_applied: st.fault_applied,
            ret: None,
            trace: None,
            resumed_at,
            converged_at: None,
            hang_proved_at: Some(st.steps),
        }
    }
}
