//! The observers of the decoded loop: dynamic profile, register-write
//! trace and checkpoint capture.
//!
//! The *observed* instantiation of [`crate::decode`]'s loop drives one
//! [`Observers`] per run. What it records is exactly what the reference
//! walk ([`crate::oracle`]) records instruction by instruction, but the
//! loop itself does almost none of that work per step:
//!
//! * **Counts.** The loop counts only control transfers, profiled or
//!   not: one counter per *taken branch* (two per code slot, indexed by
//!   the branch's logical pc, so a branch fused into a superinstruction
//!   counts like a standalone one) and one block entry per call. Whenever
//!   counts are wanted — at the end of a profiled run, at a capture — the
//!   branch counters become block entries, and every instruction's
//!   dynamic count is the entry count of its block — minus one for each
//!   live frame that has not reached it yet (the *partial
//!   block correction*: a suspended caller has executed its block up to
//!   and including the call, the running frame up to the instruction in
//!   flight), plus one for each frame a resumed run re-entered mid-block
//!   without a block entry.
//! * **Injection counts.** A fault-free run from the entry point executes
//!   on the unarmed loop, which counts no value production. What the
//!   armed counters would read — [`Profile::injectable_execs`], a
//!   snapshot's `inj_ctr` and its dense per-instruction vector — is the
//!   execution count of every injectable instruction minus the executions
//!   that have *not produced*: a call's value is produced at the return,
//!   so each suspended frame still owes its call's, and an instruction
//!   that ends the run (a trap) never produces its own ([`unproduced`]).
//!   A run with a fault armed or applied, or resumed mid-run, executes on
//!   the armed loop and reads the counter it keeps.
//! * **Profile.** Per-function step ranges are kept per *stretch* — the
//!   steps a frame runs between two calls or returns — so they cost two
//!   stores per call, not per step.
//! * **Trace.** One [`TraceEvent`] per register write, pushed where the
//!   loop writes the register.
//! * **Checkpoint capture.** The next capture boundary is one more term
//!   of the loop's folded `next_pause` compare. At a boundary the decoded
//!   frames are synced back into canonical [`Frame`]s (logical pc =
//!   `pc + half` inside a superinstruction), the memories and the output
//!   are lent to a staging [`MachineState`], the injection counts so far
//!   are derived as above, and the [`CheckpointCollector`] captures that
//!   — the very state the reference walk would hand it, so stores are
//!   byte-identical.

use crate::converge::frame_views;
use crate::decode::{DFrame, DecodedModule};
use crate::exec::{ExecResult, Frame, Interp, MachineState, TraceEvent};
use crate::profile::Profile;
use crate::snapshot::CheckpointCollector;
use crate::value::{Output, Value};
use minpsid_ir::{BlockId, FuncId, InstKind, Module};

/// Observer state of one run of the observed loop; part of the
/// [`ExecScratch`](crate::ExecScratch), which the unobserved
/// instantiations never touch.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    /// Taken-branch counters: slot `2 * (slot_base + pc) + k` counts how
    /// often the control instruction at logical pc `pc` of a function
    /// went to its `k`-th target (`Br`: k = 0; `CondBr`: then 0, else 1).
    pub(crate) branches: Vec<u64>,
    /// The block entries no branch counts, per function: calls, and the
    /// program entry.
    calls: Vec<u64>,
    /// The profile under construction. During the run it holds only what
    /// the counters cannot say later: the step ranges and a resumed run's
    /// credits.
    profile: Option<Profile>,
    /// First step of the running frame's current stretch.
    stretch_start: u64,
    /// Offset of the instruction in flight from the slot carrying it (0
    /// outside a superinstruction): the loop writes it at every step, and
    /// the carrying pc plus it is the logical pc when the run stops. It
    /// lives here, in memory, because as one more local of the loop it
    /// costs `pc` its register.
    pub(crate) half: usize,
    /// The running function's pair base into `branches`: twice its
    /// `slot_base`. Written by the loop at every call and return; in
    /// memory for the same reason as `half`.
    pub(crate) br_base: usize,
    pub(crate) trace: Option<Vec<TraceEvent>>,
    pub(crate) ckpt: Option<CheckpointCollector>,
    /// The state at a capture boundary, in canonical form.
    staging: MachineState,
}

/// Dense indices of the instructions of `block` from position `from` on.
fn block_tail<'i>(
    interp: &'i Interp<'_>,
    func: u32,
    block: usize,
    from: usize,
) -> impl Iterator<Item = usize> + 'i {
    let f = &interp.module().funcs[func as usize];
    let base = interp.base[func as usize];
    f.blocks[block].insts[from..]
        .iter()
        .map(move |iid| base + iid.index())
}

/// Per live frame of `dframes`, whether it is the running one and what it
/// has left of its block from its instruction on (dense indices): the
/// running frame's instruction is the one at logical pc `top_pc`, a
/// suspended frame's is its call.
fn live_tails<'i>(
    interp: &'i Interp<'_>,
    dframes: &'i [DFrame],
    top_pc: u32,
) -> impl Iterator<Item = (bool, impl Iterator<Item = usize> + 'i)> + 'i {
    let last = dframes.len().wrapping_sub(1);
    dframes.iter().enumerate().map(move |(i, fr)| {
        let running = i == last;
        let pc = if running { top_pc } else { fr.pc };
        let (block, pos) = interp.decoded().funcs[fr.func as usize].locate(pc);
        (running, block_tail(interp, fr.func, block, pos))
    })
}

/// No block, or no branch target.
const NONE: u32 = u32::MAX;

/// A block's terminator, as the counters see it.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// Which pair of [`Observers::branches`] counts it: `slot_base + pc`.
    slot: u32,
    /// The blocks the two counters lead to, numbered module-wide; `NONE`
    /// where the terminator has no such target.
    targets: [u32; 2],
}

/// The module's blocks, numbered module-wide, laid out so that the loop's
/// counters turn into counts without walking the IR: a capture does this
/// at every boundary. Built once, with the [`Interp`].
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Per function, the number of its first block; then the block count.
    first: Vec<u32>,
    terms: Vec<Term>,
    /// Per static instruction (dense): its block; `NONE` if it is in none.
    block_of: Vec<u32>,
    /// `block_of` for the instructions whose value is an injection site,
    /// `NONE` for the rest.
    inj_block: Vec<u32>,
}

impl BlockTable {
    pub(crate) fn new(m: &Module, dm: &DecodedModule) -> Self {
        let mut first = Vec::with_capacity(m.funcs.len() + 1);
        let mut blocks = 0;
        for f in &m.funcs {
            first.push(blocks);
            blocks += f.blocks.len() as u32;
        }
        first.push(blocks);
        let mut terms = Vec::with_capacity(blocks as usize);
        let mut block_of = vec![NONE; m.num_insts()];
        let mut inj_block = block_of.clone();
        let mut base = 0;
        for ((f, df), &first) in m.funcs.iter().zip(&dm.funcs).zip(&first) {
            for (bi, block) in f.blocks.iter().enumerate() {
                let number = first + bi as u32;
                for iid in &block.insts {
                    block_of[base + iid.index()] = number;
                    if f.insts[iid.index()].injectable() {
                        inj_block[base + iid.index()] = number;
                    }
                }
                let targets = match block.insts.last().map(|t| &f.insts[t.index()].kind) {
                    Some(InstKind::Br { target }) => [first + target.0, NONE],
                    Some(InstKind::CondBr { then_b, else_b, .. }) => {
                        [first + then_b.0, first + else_b.0]
                    }
                    _ => [NONE; 2],
                };
                // the last slot of the block; read only where there is a target
                let end = df.block_entry[bi] as usize + block.insts.len();
                terms.push(Term {
                    slot: (df.slot_base + end).saturating_sub(1) as u32,
                    targets,
                });
            }
            base += f.insts.len();
        }
        BlockTable {
            first,
            terms,
            block_of,
            inj_block,
        }
    }
}

/// Add to `counts` (dense) the executions of every instruction that `of`
/// gives a block, when `blocks` are the entries of each block, the call
/// stack is `dframes` and the running frame is at logical pc `top_pc`,
/// its instruction `executed` or not: every entry of a block executes all
/// of it, except the entries the live frames are still in the middle of.
fn add_executions(
    interp: &Interp<'_>,
    of: &[u32],
    blocks: &[u64],
    dframes: &[DFrame],
    top_pc: u32,
    executed: bool,
    counts: &mut [u64],
) {
    for (n, &block) in counts.iter_mut().zip(of) {
        if block != NONE {
            *n += blocks[block as usize];
        }
    }
    for (running, tail) in live_tails(interp, dframes, top_pc) {
        // a frame is past its own instruction unless it never executed it
        let past = usize::from(!running || executed);
        for d in tail.skip(past) {
            if of[d] != NONE {
                counts[d] -= 1;
            }
        }
    }
}

/// The injection sites (dense index) with an execution that has not
/// produced its value, in a fault-free run from the entry point: a
/// suspended frame has executed its call, whose value is produced at the
/// return, and an instruction that executed and is still the running
/// frame's ended the run (a trap) before producing.
fn unproduced<'a>(
    interp: &'a Interp<'_>,
    dframes: &'a [DFrame],
    top_pc: u32,
    executed: bool,
) -> impl Iterator<Item = usize> + 'a {
    live_tails(interp, dframes, top_pc)
        .filter(move |(running, _)| !running || executed)
        .filter_map(|(_, mut tail)| tail.next())
        .filter(|&d| interp.block_table.inj_block[d] != NONE)
}

impl Observers {
    /// Set up for a run about to enter the loop with call stack `dframes`
    /// after `steps` completed steps (0: a fresh run), capturing into
    /// `ckpt` if there is one; the profile and trace only if `observe`.
    pub(crate) fn begin(
        &mut self,
        interp: &Interp<'_>,
        observe: bool,
        ckpt: Option<CheckpointCollector>,
        dframes: &[DFrame],
        steps: u64,
    ) {
        let (m, dm) = (interp.module(), interp.decoded());
        let slots = dm.funcs.last().map_or(0, |f| f.slot_base + f.code.len());
        self.branches.clear();
        self.branches.resize(2 * slots, 0);
        self.calls.clear();
        self.calls.resize(m.funcs.len(), 0);
        self.profile = (observe && interp.config().profile).then(|| Profile::for_module(m));
        if steps == 0 {
            self.calls[m.entry.index()] = 1;
        } else if let Some(p) = &mut self.profile {
            // a resumed run re-enters its live blocks mid-way and counts
            // no block entry for them: credit what each frame has left of
            // its block (a suspended caller is past its call)
            let top_pc = dframes.last().expect("a resumed run has a frame").pc;
            for (running, tail) in live_tails(interp, dframes, top_pc) {
                for d in tail.skip(usize::from(!running)) {
                    p.inst_counts[d] += 1;
                }
            }
        }
        self.stretch_start = steps + 1;
        self.trace = (observe && interp.config().trace).then(Vec::new);
        self.ckpt = ckpt;
    }

    /// The running frame of `func` ran every step of
    /// `stretch_start..=last` (none, if the range is empty) and stops
    /// running there: it called, returned (the loop says so itself) or
    /// the run ended.
    pub(crate) fn close_stretch(&mut self, func: u32, last: u64) {
        if let Some(p) = &mut self.profile {
            if self.stretch_start <= last {
                let f = func as usize;
                if p.sec_first_step[f] == 0 {
                    p.sec_first_step[f] = self.stretch_start;
                }
                p.sec_last_step[f] = last;
            }
        }
        self.stretch_start = last + 1;
    }

    /// `caller` executed a call to `callee` as step `step`.
    #[inline]
    pub(crate) fn on_call(&mut self, caller: u32, callee: usize, step: u64) {
        self.close_stretch(caller, step);
        self.calls[callee] += 1;
    }

    /// Entries of every block so far, numbered as in `t`: by call, counted
    /// as the run goes, and by taken branch, from the counters.
    fn block_counts(&self, t: &BlockTable) -> Vec<u64> {
        let mut counts = vec![0; t.terms.len()];
        for (&first, &n) in t.first.iter().zip(&self.calls) {
            if n > 0 {
                counts[first as usize] = n;
            }
        }
        for term in &t.terms {
            for (k, &to) in term.targets.iter().enumerate() {
                if to != NONE {
                    counts[to as usize] += self.branches[2 * term.slot as usize + k];
                }
            }
        }
        counts
    }

    /// Step count from which the loop must pause for the next capture:
    /// one past the boundary, because the pause sits in the tick of the
    /// instruction that follows it (a boundary already passed is due at
    /// the next tick). `u64::MAX` when nothing is captured.
    pub(crate) fn capture_at(&self) -> u64 {
        self.ckpt
            .as_ref()
            .map_or(u64::MAX, |c| c.next_at().saturating_add(1))
    }

    /// Capture the state after `steps` completed steps: `dframes` with the
    /// running frame about to execute logical pc `top_pc`, the arenas, the
    /// memories and output (lent to the staging state for the capture, not
    /// copied), and the injection counts the run so far amounts to.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        &mut self,
        interp: &Interp<'_>,
        dframes: &[DFrame],
        top_pc: u32,
        regs: &[Value],
        args: &[Value],
        (mem, stack_mem, output): (&mut Vec<u64>, &mut Vec<u64>, &mut Output),
        steps: u64,
    ) {
        // what the armed counters would read: the executions of every
        // injection site, minus the ones that have not produced
        let t = &interp.block_table;
        let blocks = self.block_counts(t);
        let coll = self.ckpt.as_mut().expect("a capture was announced");
        let counts = &mut coll.inj_counts;
        counts.fill(0);
        add_executions(
            interp,
            &t.inj_block,
            &blocks,
            dframes,
            top_pc,
            false,
            counts,
        );
        for d in unproduced(interp, dframes, top_pc, false) {
            counts[d] -= 1;
        }
        let inj_ctr = counts.iter().sum();
        let dm = interp.decoded();
        let st = &mut self.staging;
        st.frames.clear();
        st.frames
            .extend(frame_views(dm, dframes, top_pc, regs, args).map(|v| Frame {
                func: FuncId(v.func),
                block: BlockId(v.block),
                pos: v.pos,
                regs: v.regs.to_vec(),
                args: v.args.to_vec(),
                sp_base: v.sp_base,
            }));
        std::mem::swap(&mut st.mem, mem);
        std::mem::swap(&mut st.stack_mem, stack_mem);
        std::mem::swap(&mut st.output, output);
        st.steps = steps;
        st.inj_ctr = inj_ctr;
        coll.capture(st);
        std::mem::swap(&mut st.mem, mem);
        std::mem::swap(&mut st.stack_mem, stack_mem);
        std::mem::swap(&mut st.output, output);
    }

    /// The run ended as `result` says with call stack `dframes`, the
    /// running frame at logical pc `top_pc`; `executed` says whether the
    /// instruction there got past its step accounting (a run that stops
    /// *in* the accounting — the step limit — counts the step but
    /// not the instruction). `inj_ctr` is the armed loop's count of
    /// injectable value productions; the unarmed loop has none. Completes
    /// `result` with the trace and with the [`Profile`] the counters
    /// amount to — the one the reference walk would have collected.
    #[cold]
    #[inline(never)]
    pub(crate) fn finish(
        &mut self,
        interp: &Interp<'_>,
        dframes: &[DFrame],
        top_pc: u32,
        executed: bool,
        mut result: ExecResult,
        inj_ctr: Option<u64>,
    ) -> ExecResult {
        result.trace = self.trace.take();
        if self.profile.is_none() {
            return result;
        }
        let steps = result.steps;
        // a normal exit has already closed the entry function's stretch
        // at its return and leaves no frame
        if let Some(top) = dframes.last() {
            self.close_stretch(top.func, if executed { steps } else { steps - 1 });
        }
        let mut p = self.profile.take().expect("checked above");
        let t = &interp.block_table;
        p.block_counts = self.block_counts(t);
        add_executions(
            interp,
            &t.block_of,
            &p.block_counts,
            dframes,
            top_pc,
            executed,
            &mut p.inst_counts,
        );
        p.injectable_execs = inj_ctr.unwrap_or_else(|| {
            let executions: u64 = p
                .inst_counts
                .iter()
                .zip(&t.inj_block)
                .filter(|(_, &block)| block != NONE)
                .map(|(&n, _)| n)
                .sum();
            executions - unproduced(interp, dframes, top_pc, executed).count() as u64
        });
        result.profile = Some(p);
        result
    }
}
