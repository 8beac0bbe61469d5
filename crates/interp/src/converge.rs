//! Golden-convergence early exit: stop replaying a faulty run once its
//! machine state equals the golden run's.
//!
//! The interpreter is deterministic, so everything a run does from some
//! point on is a function of the *state* at that point. A faulty run whose
//! state at golden checkpoint `k` equals the state the golden run had
//! there will retrace the golden run step for step to its end: same
//! termination, same step count, same return value, same output items
//! from there on. Replaying that suffix buys nothing, so the checkpointed
//! injection path (a run beside the golden run's store, [`Start::Beside`],
//! whether it resumed from a checkpoint or, for a fault that precedes the
//! first one, started cold) stops at `k` and returns the result the full
//! replay would have produced.
//!
//! **State** is what the next instruction can observe: the frame stack
//! (function, logical pc, every register, arguments, stack watermark),
//! heap and stack memory, and the *length* of the output. The output's
//! content is history, not state — a faulty run that already printed a
//! wrong item and then re-converged is an SDC whose remaining items equal
//! golden's — but its length feeds the `output_limit` check, so a run
//! that printed one item too many is *not* converged: it would hit the
//! limit one item before golden does. The step counter is equal by
//! construction (the comparison happens at checkpoint `k`'s step count);
//! the injection counters are dead once the fault has fired.
//!
//! Comparing states costs a walk over both, so each checkpoint carries a
//! 64-bit state digest taken at capture and the faulty side is hashed
//! at the boundary. The digest is only a filter: a match is confirmed by
//! an exact comparison against the restored checkpoint before the run
//! exits, so a collision can cost time but never an outcome. Both sides
//! hash the same logical content (`FrameView`), whichever form holds
//! it — the canonical `Frame` stack at capture, the decoded arenas here.
//!
//! Cost is bounded two ways, both deterministic counts:
//!
//! * boundaries are visited with a geometric back-off — the 1st, 2nd,
//!   4th, 8th … after the flip — because most runs that converge do so
//!   at once and the rest mostly never do;
//! * the words hashed for one injection never exceed 1/8 of the steps it
//!   has replayed ([`WORDS_PER_STEP_DEN`]): boundaries that would break
//!   the bound are passed over, which spaces the checks by state size.
//!
//! [`Start::Beside`]: crate::Start::Beside

use crate::decode::{DFrame, DecodedModule};
use crate::exec::{ExecResult, Frame, Interp, MachineState, Termination};
use crate::snapshot::{value_bits_eq, CheckpointStore, GoldenTail, Snapshot};
use crate::value::{Output, Value};
use minpsid_ir::FuncId;

/// Cumulative words hashed per injection stay ≤ steps replayed / this.
pub const WORDS_PER_STEP_DEN: u64 = 8;

/// One call-stack frame as the digest and the exact comparison see it,
/// independent of the form that stores it. `regs` excludes the decoded
/// arena's constant tail.
pub(crate) struct FrameView<'a> {
    pub(crate) func: u32,
    pub(crate) block: u32,
    pub(crate) pos: usize,
    pub(crate) sp_base: usize,
    pub(crate) regs: &'a [Value],
    pub(crate) args: &'a [Value],
}

impl<'a> FrameView<'a> {
    fn of_canonical(f: &'a Frame) -> Self {
        FrameView {
            func: f.func.0,
            block: f.block.0,
            pos: f.pos,
            sp_base: f.sp_base,
            regs: &f.regs,
            args: &f.args,
        }
    }
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(K)
}

/// Order-sensitive fold of a slice in four independent lanes (the
/// multiply chain of one lane would otherwise bound throughput).
#[inline(always)]
fn fold<T: Copy>(xs: &[T], word: impl Fn(T) -> u64) -> u64 {
    let mut l = [K, !K, K.rotate_left(21), K.rotate_left(42)];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        l[0] = mix(l[0], word(c[0]));
        l[1] = mix(l[1], word(c[1]));
        l[2] = mix(l[2], word(c[2]));
        l[3] = mix(l[3], word(c[3]));
    }
    for (lane, &x) in l.iter_mut().zip(chunks.remainder()) {
        *lane = mix(*lane, word(x));
    }
    l.iter().fold(xs.len() as u64, |h, &lane| mix(h, lane))
}

/// A register's bits with its variant folded in, so `I(1)`, `B(true)`
/// and `P(1)` hash apart.
#[inline(always)]
fn value_word(v: Value) -> u64 {
    match v {
        Value::I(x) => x as u64,
        Value::F(x) => x.to_bits() ^ K,
        Value::B(x) => u64::from(x) ^ K.rotate_left(16),
        Value::P(x) => x ^ K.rotate_left(32),
        Value::Undef => K.rotate_left(48),
    }
}

/// 64-bit digest of a machine state (see the module docs for what state
/// is). Equal states hash equal whichever form produced the views.
pub(crate) fn state_digest<'a>(
    frames: impl Iterator<Item = FrameView<'a>>,
    mem: &[u64],
    stack_mem: &[u64],
    out_len: usize,
) -> u64 {
    let mut h = mix(fold(mem, |w| w), fold(stack_mem, |w| w));
    h = mix(h, out_len as u64);
    for f in frames {
        h = mix(h, u64::from(f.func) << 32 | u64::from(f.block));
        h = mix(h, f.pos as u64);
        h = mix(h, f.sp_base as u64);
        h = mix(h, fold(f.regs, value_word));
        h = mix(h, fold(f.args, value_word));
    }
    // avalanche, so nearby states differ in every bit
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    h ^ h >> 29
}

/// [`state_digest`] of a state held in canonical form (the capture side).
pub(crate) fn digest_of(st: &MachineState) -> u64 {
    state_digest(
        st.frames.iter().map(FrameView::of_canonical),
        &st.mem,
        &st.stack_mem,
        st.output.len(),
    )
}

pub(crate) fn values_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| value_bits_eq(x, y))
}

/// Where a state differs from the state another run had at the same step
/// (see [`state_diff`]); empty when the two are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDiff {
    /// The call stacks are not in the same place — depth, function,
    /// logical pc, stack watermark or register count of some frame — or
    /// the outputs are not the same length.
    pub shape: bool,
    /// Registers that differ in frames of the same function, bottom frame
    /// first: `(function, instruction)`, the instruction that wrote it.
    pub regs: Vec<(FuncId, usize)>,
    /// Arguments that differ in frames of the same function:
    /// `(function, argument index)`.
    pub args: Vec<(FuncId, usize)>,
    /// Memory words that differ: heap words by index, then stack words
    /// numbered on from the longer heap.
    pub words: Vec<usize>,
}

impl StateDiff {
    /// Whether the two states are equal (the run has converged).
    pub fn is_empty(&self) -> bool {
        !self.shape && self.regs.is_empty() && self.args.is_empty() && self.words.is_empty()
    }
}

/// Where the state `faulty` differs from `golden`, the state another run
/// had at the same step. The early exit itself only ever asks whether two
/// states are equal; this says what still differs — `propagate` prints it
/// at every golden checkpoint after a fault, and
/// `examples/replay_headroom.rs` sorts unconverged runs by it.
pub fn state_diff(faulty: &Snapshot, golden: &Snapshot) -> StateDiff {
    let (a, b) = (&faulty.state, &golden.state);
    let place = |f: &Frame| {
        (
            f.func,
            f.block,
            f.pos,
            f.sp_base,
            f.regs.len(),
            f.args.len(),
        )
    };
    let mut d = StateDiff {
        shape: a.output.len() != b.output.len()
            || a.frames.len() != b.frames.len()
            || a.frames
                .iter()
                .zip(&b.frames)
                .any(|(x, y)| place(x) != place(y)),
        ..StateDiff::default()
    };
    for (x, y) in a.frames.iter().zip(&b.frames) {
        if x.func != y.func {
            continue;
        }
        let changed = |p: &[Value], q: &[Value]| {
            let pairs = p.iter().zip(q).enumerate();
            pairs
                .filter(|(_, (&v, &w))| !value_bits_eq(v, w))
                .map(|(i, _)| (x.func, i))
                .collect::<Vec<_>>()
        };
        d.regs.extend(changed(&x.regs, &y.regs));
        d.args.extend(changed(&x.args, &y.args));
    }
    fn differing<'a>(x: &'a [u64], y: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        (0..x.len().max(y.len())).filter(move |&i| x.get(i) != y.get(i))
    }
    let heap = a.mem.len().max(b.mem.len());
    let stack = differing(&a.stack_mem, &b.stack_mem).map(|i| heap + i);
    d.words = differing(&a.mem, &b.mem).chain(stack).collect();
    d
}

/// A decoded run's live state, borrowed at a pause. The running frame's
/// [`DFrame::pc`] is stale while the loop caches the pc in a local: `pc`
/// is that local — the slot of the instruction, or of the superinstruction
/// carrying it — and `half` the instruction's offset from it, so
/// `pc + half` is the logical pc (every instruction keeps a standalone
/// slot; a snapshot taken here would record that one).
pub(crate) struct DecodedView<'a> {
    pub(crate) dm: &'a DecodedModule,
    pub(crate) dframes: &'a [DFrame],
    pub(crate) pc: usize,
    pub(crate) half: usize,
    pub(crate) regs: &'a [Value],
    pub(crate) args: &'a [Value],
    pub(crate) mem: &'a [u64],
    pub(crate) stack_mem: &'a [u64],
    pub(crate) out_len: usize,
}

/// The call stack of a decoded run as [`FrameView`]s. `top_pc` is the
/// logical pc of the running frame, whose [`DFrame::pc`] is stale while
/// the loop caches it in a local; suspended frames sit at their call.
pub(crate) fn frame_views<'a>(
    dm: &'a DecodedModule,
    dframes: &'a [DFrame],
    top_pc: u32,
    regs: &'a [Value],
    args: &'a [Value],
) -> impl Iterator<Item = FrameView<'a>> {
    let last = dframes.len() - 1;
    dframes.iter().enumerate().map(move |(i, f)| {
        let df = &dm.funcs[f.func as usize];
        let (block, pos) = df.locate(if i == last { top_pc } else { f.pc });
        let nregs = df.num_regs as usize - df.consts.len();
        FrameView {
            func: f.func,
            block: block as u32,
            pos,
            sp_base: f.sp_base,
            regs: &regs[f.reg_base..f.reg_base + nregs],
            args: &args[f.arg_base..f.arg_base + f.arg_len],
        }
    })
}

impl<'a> DecodedView<'a> {
    fn frames(&self) -> impl Iterator<Item = FrameView<'a>> {
        frame_views(
            self.dm,
            self.dframes,
            (self.pc + self.half) as u32,
            self.regs,
            self.args,
        )
    }

    fn digest(&self) -> u64 {
        state_digest(self.frames(), self.mem, self.stack_mem, self.out_len)
    }

    /// Words a digest of this state reads, counted from the arena sizes
    /// (constant slots included): an upper bound that costs nothing.
    pub(crate) fn words(&self) -> u64 {
        (self.regs.len() + self.args.len() + self.mem.len() + self.stack_mem.len()) as u64
    }

    /// Exact equality with a restored golden state.
    fn matches(&self, golden: &MachineState) -> bool {
        golden.frames.len() == self.dframes.len()
            && golden.output.len() == self.out_len
            && golden.mem == self.mem
            && golden.stack_mem == self.stack_mem
            && self.frames().zip(&golden.frames).all(|(a, g)| {
                let g = FrameView::of_canonical(g);
                (a.func, a.block, a.pos, a.sp_base) == (g.func, g.block, g.pos, g.sp_base)
                    && values_eq(a.regs, g.regs)
                    && values_eq(a.args, g.args)
            })
    }
}

/// What the last run on a scratch spent looking for convergence, and for
/// a hang to prove past the golden run's length; see
/// [`ExecScratch::converge_stats`].
///
/// [`ExecScratch::converge_stats`]: crate::ExecScratch::converge_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergeStats {
    /// Boundaries at which the faulty state was hashed.
    pub checks: u32,
    /// Words those hashes read (an upper bound; see the module docs).
    pub words_hashed: u64,
    /// Words the hang proof copied into latch saves and compared against
    /// them, each save charged its compare when taken; never more than
    /// the steps run past the golden run's length / [`WORDS_PER_STEP_DEN`].
    pub proof_words: u64,
}

/// The early-exit driver of one injection: which boundary to visit next
/// and what the visits have cost. Lives for one clean-loop run, which it
/// ends at the golden run's length if nothing earlier does: a run still
/// going there continues on the loop that proves hangs (`hang.rs`).
pub(crate) struct Converge<'a> {
    /// `None` when early exit is off for this run.
    golden: Option<(&'a CheckpointStore, &'a GoldenTail)>,
    resumed_at: Option<u64>,
    /// Index of the first boundary after the flip.
    first: usize,
    /// 1-based ordinal, counted from `first`, of the next boundary to
    /// visit: doubles after a failed comparison, advances to the first
    /// boundary the cost bound allows when it forbids hashing yet.
    ord: usize,
    pub(crate) stats: ConvergeStats,
    /// Visit every boundary, never exit, and log (boundary, digest
    /// equal, exactly equal, inside a fused op).
    #[cfg(test)]
    pub(crate) audit: Option<Vec<(usize, bool, bool, bool)>>,
}

impl<'a> Converge<'a> {
    pub(crate) fn off() -> Self {
        Converge {
            golden: None,
            resumed_at: None,
            first: 0,
            ord: 1,
            stats: ConvergeStats::default(),
            #[cfg(test)]
            audit: None,
        }
    }

    /// Early exit for a run that enters the clean loop at step count
    /// `steps` having resumed at `resumed_at` (`None`: a cold run). Stays off unless the store
    /// knows how the golden run ended and that ending is reachable under
    /// this interpreter's limits: a run-to-end would otherwise stop at
    /// the step or output limit before it got there.
    pub(crate) fn new(
        interp: &Interp<'_>,
        store: &'a CheckpointStore,
        resumed_at: Option<u64>,
        steps: u64,
    ) -> Self {
        let cfg = interp.config();
        let entry = interp.module().func(interp.module().entry);
        let golden = store.tail().filter(|t| {
            t.steps <= cfg.step_limit
                && t.output.len() <= cfg.output_limit
                // a tail decoded from the wire does not know `ret`
                && t.ret.is_some() == entry.ret.is_some()
        });
        Converge {
            golden: golden.map(|t| (store, t)),
            resumed_at,
            first: store.entries.partition_point(|e| e.steps < steps),
            ..Converge::off()
        }
    }

    /// Audit mode on a fault-free run from the entry point.
    #[cfg(test)]
    pub(crate) fn audit(interp: &Interp<'_>, store: &'a CheckpointStore) -> Self {
        Converge {
            audit: Some(Vec::new()),
            ..Converge::new(interp, store, None, 0)
        }
    }

    /// Step count at which the loop must pause for the next visit: one
    /// past the boundary, because the pause sits in the tick of the
    /// instruction that follows it; after the last boundary, one past the
    /// golden run's length (which a faulty run, equal to golden up to its
    /// flip, has not passed when it gets here). `u64::MAX` when early exit
    /// is off.
    pub(crate) fn next_at(&self) -> u64 {
        match self.golden {
            Some((store, tail)) => store
                .entries
                .get(self.first + self.ord - 1)
                .map_or(tail.steps + 1, |e| e.steps + 1),
            None => u64::MAX,
        }
    }

    /// Whether the pause [`Converge::visit`] ended the clean loop at is a
    /// boundary the run converged at, not the golden run's length.
    pub(crate) fn converged(&self) -> bool {
        self.golden
            .is_some_and(|(store, _)| self.first + self.ord - 1 < store.entries.len())
    }

    /// Visit the pause [`Converge::next_at`] announced. `true` ends the
    /// clean loop there: the run has converged at the boundary (`shadow`
    /// then holds the golden state), or it has reached the golden run's
    /// length without ([`Converge::converged`] tells the two apart).
    #[cold]
    #[inline(never)]
    pub(crate) fn visit(&mut self, view: &DecodedView<'_>, shadow: &mut MachineState) -> bool {
        let (store, _) = self.golden.expect("a pause was announced");
        let k = self.first + self.ord - 1;
        let Some(entry) = store.entries.get(k) else {
            // the golden run's length: the run goes on proving, with
            // nothing left to visit
            self.golden = None;
            return true;
        };
        #[cfg(test)]
        if let Some(log) = &mut self.audit {
            store.restore_into(k, shadow);
            let (digest_eq, exact) = (view.digest() == entry.digest, view.matches(shadow));
            log.push((k, digest_eq, exact, view.half != 0));
            self.ord += 1;
            return false;
        }
        let words = view.words();
        let resumed_at = self.resumed_at.unwrap_or(0);
        let replayed = entry.steps - resumed_at;
        let affordable_at = (self.stats.words_hashed + words).saturating_mul(WORDS_PER_STEP_DEN);
        if affordable_at > replayed {
            // pass over every boundary the bound rules out at this state
            // size, not just this one
            let target = resumed_at.saturating_add(affordable_at);
            let k = store.entries.partition_point(|e| e.steps < target);
            self.ord = (k - self.first + 1).max(self.ord + 1);
            return false;
        }
        self.stats.checks += 1;
        self.stats.words_hashed += words;
        if view.digest() == entry.digest {
            store.restore_into(k, shadow);
            if view.matches(shadow) {
                return true;
            }
        }
        self.ord *= 2;
        false
    }

    /// The result a run-to-end would have produced, for a run that
    /// converged at the boundary just visited with `output` emitted so
    /// far: golden's ending, and golden's remaining output after the
    /// faulty run's own.
    #[cold]
    #[inline(never)]
    pub(crate) fn finish(&self, output: &mut Output) -> ExecResult {
        let (store, tail) = self.golden.expect("converged against a golden run");
        let at = store.entries[self.first + self.ord - 1].steps;
        output
            .items
            .extend_from_slice(&tail.output.items[output.len()..]);
        ExecResult {
            termination: Termination::Exit,
            output: std::mem::take(output),
            profile: None,
            steps: tail.steps,
            fault_applied: true,
            ret: tail.ret,
            trace: None,
            resumed_at: self.resumed_at,
            converged_at: Some(at),
            hang_proved_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_variants_lengths_and_output_length() {
        let d = |regs: &[Value], mem: &[u64], out_len: usize| {
            let f = FrameView {
                func: 0,
                block: 1,
                pos: 2,
                sp_base: 0,
                regs,
                args: &[],
            };
            state_digest(std::iter::once(f), mem, &[], out_len)
        };
        let base = d(&[Value::I(1)], &[0, 0], 3);
        assert_eq!(base, d(&[Value::I(1)], &[0, 0], 3));
        assert_ne!(base, d(&[Value::P(1)], &[0, 0], 3), "variant");
        assert_ne!(base, d(&[Value::B(true)], &[0, 0], 3), "variant");
        assert_ne!(base, d(&[Value::I(1)], &[0, 0, 0], 3), "grown zeros");
        assert_ne!(base, d(&[Value::I(1)], &[0, 0], 4), "output length");
        assert_ne!(
            d(&[Value::F(f64::NAN)], &[], 0),
            d(&[Value::F(f64::from_bits(0x7ff8_0000_0000_0001))], &[], 0),
            "NaN payloads are state"
        );
        // a word moved between memories, or between lanes, is a change
        assert_ne!(d(&[], &[1, 0, 0, 0, 0], 0), d(&[], &[0, 0, 0, 0, 1], 0));
        assert_ne!(d(&[], &[1, 2], 0), d(&[], &[2, 1], 0));
    }
}
