//! The observers of the decoded loop: dynamic profile, register-write
//! trace and checkpoint capture.
//!
//! The *observed* instantiation of [`crate::decode`]'s loop drives one
//! [`Observers`] per run. What it records is exactly what the reference
//! walk ([`crate::oracle`]) records instruction by instruction, but the
//! loop itself does almost none of that work per step:
//!
//! * **Profile.** The loop counts only control transfers: one counter per
//!   *taken branch* (two per code slot, indexed by the branch's logical
//!   pc, so a branch fused into a superinstruction counts like a
//!   standalone one) and one block entry per call. At the end of the run
//!   the branch counters become block entries and CFG edges, and every
//!   instruction's dynamic count is the entry count of its block — minus
//!   one for each live frame that has not reached it yet (the *partial
//!   block correction*: a suspended caller has executed its block up to
//!   and including the call, the running frame up to the instruction in
//!   flight), plus one for each frame a resumed run re-entered mid-block
//!   without a block entry. Per-function step ranges are kept per
//!   *stretch* — the steps a frame runs between two calls or returns —
//!   so they cost two stores per call, not per step.
//! * **Trace.** One [`TraceEvent`] per register write, pushed where the
//!   loop writes the register.
//! * **Checkpoint capture.** The next capture boundary is one more term
//!   of the loop's folded `next_pause` compare. At a boundary the decoded
//!   frames are synced back into canonical [`Frame`]s (logical pc =
//!   `pc + half` inside a superinstruction), the memories and the output
//!   are lent to a staging [`MachineState`], and the
//!   [`CheckpointCollector`] captures that — the very state the reference
//!   walk would hand it, so stores are byte-identical.

use crate::converge::frame_views;
use crate::decode::{DFrame, DecodedModule};
use crate::exec::{ExecResult, Frame, Interp, MachineState, TraceEvent};
use crate::profile::Profile;
use crate::snapshot::CheckpointCollector;
use crate::value::{Output, Value};
use minpsid_ir::{BlockId, FuncId, InstKind};

/// Observer state of one run of the observed loop; part of the
/// [`ExecScratch`](crate::ExecScratch), which the unobserved
/// instantiations never touch.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    /// Taken-branch counters: slot `2 * (slot_base + pc) + k` counts how
    /// often the control instruction at logical pc `pc` of a function
    /// went to its `k`-th target (`Br`: k = 0; `CondBr`: then 0, else 1).
    pub(crate) branches: Vec<u64>,
    /// The profile under construction. During the run it holds only what
    /// the loop cannot reconstruct later: block entries by call (and the
    /// program entry), the step ranges, and a resumed run's credits.
    profile: Option<Profile>,
    /// First step of the running frame's current stretch.
    stretch_start: u64,
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

impl Observers {
    /// Set up for a run about to enter the loop with call stack `dframes`
    /// after `steps` completed steps (0: a fresh run), capturing into
    /// `ckpt` if there is one.
    pub(crate) fn begin(
        &mut self,
        interp: &Interp<'_>,
        ckpt: Option<CheckpointCollector>,
        dframes: &[DFrame],
        steps: u64,
    ) {
        let (m, dm) = (interp.module(), interp.decoded());
        let slots = dm.funcs.last().map_or(0, |f| f.slot_base + f.code.len());
        self.branches.clear();
        self.branches.resize(2 * slots, 0);
        self.profile = interp.config().profile.then(|| Profile::for_module(m));
        if let Some(p) = &mut self.profile {
            if steps == 0 {
                p.block_counts[m.entry.index()][0] += 1;
            } else {
                // a resumed run re-enters its live blocks mid-way and
                // counts no block entry for them: credit what each frame
                // has left of its block (a suspended caller is past its
                // call)
                let last = dframes.len() - 1;
                for (i, fr) in dframes.iter().enumerate() {
                    let (block, pos) = dm.funcs[fr.func as usize].locate(fr.pc);
                    let from = if i == last { pos } else { pos + 1 };
                    for d in block_tail(interp, fr.func, block, from) {
                        p.inst_counts[d] += 1;
                    }
                }
            }
        }
        self.stretch_start = steps + 1;
        self.trace = interp.config().trace.then(Vec::new);
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
        if let Some(p) = &mut self.profile {
            p.block_counts[callee][0] += 1;
        }
    }

    /// Step count at which the loop must pause for the next capture,
    /// given `steps` completed ones: one past the boundary, because the
    /// pause sits in the tick of the instruction that follows it.
    /// `u64::MAX` when nothing is captured.
    pub(crate) fn capture_at(&self, steps: u64) -> u64 {
        self.ckpt
            .as_ref()
            .map_or(u64::MAX, |c| c.next_at().max(steps).saturating_add(1))
    }

    /// Capture the state after `steps` completed steps: `dframes` with the
    /// running frame at logical pc `top_pc`, the arenas, and the memories
    /// and output (lent to the staging state for the capture, not copied).
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        &mut self,
        dm: &DecodedModule,
        dframes: &[DFrame],
        top_pc: u32,
        regs: &[Value],
        args: &[Value],
        (mem, stack_mem, output): (&mut Vec<u64>, &mut Vec<u64>, &mut Output),
        steps: u64,
        inj_ctr: u64,
    ) {
        let coll = self.ckpt.as_mut().expect("a capture was announced");
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
    /// *in* the accounting — step limit, wall clock — counts the step but
    /// not the instruction). Completes `result` with the trace and with
    /// the [`Profile`] the counters amount to — the one the reference walk
    /// would have collected.
    #[cold]
    #[inline(never)]
    pub(crate) fn finish(
        &mut self,
        interp: &Interp<'_>,
        dframes: &[DFrame],
        top_pc: u32,
        executed: bool,
        mut result: ExecResult,
        inj_ctr: u64,
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
        let (m, dm) = (interp.module(), interp.decoded());

        // taken branches -> block entries and CFG edges
        for (fi, (f, df)) in m.funcs.iter().zip(&dm.funcs).enumerate() {
            for (bi, block) in f.blocks.iter().enumerate() {
                let Some(term) = block.insts.last() else {
                    continue;
                };
                let targets = match &f.insts[term.index()].kind {
                    InstKind::Br { target } => [Some(*target), None],
                    InstKind::CondBr { then_b, else_b, .. } => [Some(*then_b), Some(*else_b)],
                    _ => continue,
                };
                let term_pc = df.block_entry[bi] as usize + block.insts.len() - 1;
                let taken = &self.branches[2 * (df.slot_base + term_pc)..][..2];
                for (target, &n) in targets.into_iter().zip(taken) {
                    if let (Some(target), true) = (target, n > 0) {
                        p.block_counts[fi][target.index()] += n;
                        *p.edge_counts[fi]
                            .entry((BlockId(bi as u32), target))
                            .or_insert(0) += n;
                    }
                }
            }
        }

        // every entry of a block executes all of it ...
        for (fi, f) in m.funcs.iter().enumerate() {
            for (bi, block) in f.blocks.iter().enumerate() {
                let n = p.block_counts[fi][bi];
                if n > 0 {
                    for iid in &block.insts {
                        p.inst_counts[interp.base[fi] + iid.index()] += n;
                    }
                }
            }
        }
        // ... except the entries the live frames are still in the middle of
        let last = dframes.len().wrapping_sub(1);
        for (i, fr) in dframes.iter().enumerate() {
            let running = i == last;
            let pc = if running { top_pc } else { fr.pc };
            let (block, pos) = dm.funcs[fr.func as usize].locate(pc);
            let from = if running && !executed { pos } else { pos + 1 };
            for d in block_tail(interp, fr.func, block, from) {
                p.inst_counts[d] -= 1;
            }
        }

        for ((cycles, &n), &cost) in p
            .inst_cycles
            .iter_mut()
            .zip(&p.inst_counts)
            .zip(&interp.cost)
        {
            *cycles = n * cost;
        }
        p.total_cycles = p.inst_cycles.iter().sum();
        p.total_insts = steps;
        p.injectable_execs = inj_ctr;
        result.profile = Some(p);
        result
    }
}
