//! Golden-run checkpoints: snapshots of complete interpreter state that
//! faulty runs can resume from.
//!
//! The interpreter is fully deterministic, and the fault model flips one
//! bit at one dynamic injection point — so a faulty run is bit-identical
//! to the golden run up to that point. A campaign therefore only needs to
//! re-execute the *suffix* after the nearest snapshot at or before the
//! injection site (FastFlip's incremental-FI observation). A [`Snapshot`]
//! captures everything the machine carries forward:
//!
//! * the frame stack (function, block, position, registers, arguments,
//!   stack-memory watermark),
//! * heap and stack linear memory,
//! * the output stream emitted so far,
//! * the step counter,
//! * the injection counters: the global injectable-execution counter and a
//!   dense per-static-instruction vector of injectable-execution counts.
//!
//! The per-instruction counts matter because injection points are *value
//! productions*, not instruction fetches: a `call`'s value materializes at
//! return time, attributed to the call's dense index. Restoring
//! `per_inst_ctr` from the dense count vector keeps `NthOfInst` targeting
//! bit-identical even when a snapshot lands mid-call.
//!
//! ## Delta encoding
//!
//! Consecutive snapshots of an HPC kernel are nearly identical: a few
//! registers, the handful of memory words the loop body touched, and the
//! counters. [`SnapshotMode::Delta`] exploits this — a stored checkpoint
//! is either a full *keyframe* or a diff against the previously stored
//! entry: dirty memory runs (gap-coalesced, diffed against the
//! zero-extended predecessor so freshly grown regions cost only their
//! non-zero words), per-frame changed registers when the call-stack shape
//! matches, the appended output tail, and a varint stream of changed
//! per-instruction injection counts (absolute values, so lookups walk
//! backward and stop at the first stream mentioning the instruction). A
//! keyframe every [`CheckpointConfig::keyframe_every`] entries bounds
//! restore cost; restoring applies at most `keyframe_every - 1` deltas in
//! place. The ~5-10x size reduction buys proportionally higher checkpoint
//! density inside the same memory budget.
//!
//! ## What the store knows besides states
//!
//! Each stored checkpoint carries a 64-bit digest of its state and the
//! store remembers how its golden run ended (final output, step count,
//! return value). Both serve the golden-convergence early exit (see
//! [`crate::converge`]): a faulty run whose state equals checkpoint
//! `k`'s will end exactly as the golden run did, so it need not be
//! replayed further. Both are derived data — neither is in the wire
//! image ([`crate::wire`]); digests are retaken on decode and the
//! ending is re-attached by whoever holds the golden result
//! ([`CheckpointStore::attach_tail`]).
//!
//! What a snapshot does **not** contain: the [`Profile`](crate::Profile)
//! and the trace (resumed runs re-profile only the suffix — campaigns run
//! faulty executions unprofiled), and the program input (resume takes the
//! same `&ProgInput`; the machine reads it lazily).

use crate::exec::{Frame, MachineState};
use crate::value::{Output, OutputItem, Value};
use minpsid_ir::bytes::{put_varint, Reader};
use minpsid_ir::BlockId;

/// A point-in-time copy of complete interpreter state, captured between
/// two instructions. Resuming from it is bit-identical to executing from
/// scratch up to the same step.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) state: MachineState,
    /// Per-static-instruction (dense module-wide index) count of injectable
    /// value productions performed so far.
    pub(crate) inj_counts: Vec<u64>,
}

impl Snapshot {
    /// Dynamic instructions completed at capture time.
    pub fn steps(&self) -> u64 {
        self.state.steps
    }

    /// Global injectable-execution counter at capture time (the
    /// `NthDynamic` fault population index).
    pub fn inj_ctr(&self) -> u64 {
        self.state.inj_ctr
    }

    /// Injectable value productions of the static instruction `dense` at
    /// capture time (the `NthOfInst` population index).
    pub fn inj_count_of(&self, dense: usize) -> u64 {
        self.inj_counts[dense]
    }

    /// Output items emitted up to the capture point.
    pub fn output(&self) -> &Output {
        &self.state.output
    }

    /// Rough heap footprint, for memory budgeting.
    pub fn approx_bytes(&self) -> usize {
        self.state.approx_bytes() + self.inj_counts.len() * 8 + 64
    }

    /// The 64-bit state digest golden convergence filters on
    /// ([`crate::converge`]): equal states hash equal. Measurements key
    /// faulty runs' states by it (`examples/replay_headroom.rs`).
    #[doc(hidden)]
    pub fn digest(&self) -> u64 {
        crate::converge::digest_of(&self.state)
    }
}

/// How checkpoints are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Every checkpoint is a complete [`Snapshot`].
    #[default]
    Full,
    /// Checkpoints are diffs against the previous one, with a full
    /// keyframe every [`CheckpointConfig::keyframe_every`] entries.
    Delta,
}

/// Knobs for checkpoint capture during a golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Steps between snapshots (≥ 1).
    pub interval: u64,
    /// Total snapshot memory budget in bytes. When a capture exceeds it,
    /// every other snapshot is dropped and the interval doubles, keeping
    /// spacing even while halving the footprint.
    pub mem_budget_bytes: usize,
    /// Full snapshots or delta chains; see [`SnapshotMode`].
    pub mode: SnapshotMode,
    /// Delta mode: a full keyframe every this many stored entries (so a
    /// restore applies at most `keyframe_every - 1` diffs). Ignored in
    /// full mode.
    pub keyframe_every: u32,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 4096,
            mem_budget_bytes: 256 << 20,
            mode: SnapshotMode::Full,
            keyframe_every: 16,
        }
    }
}

/// Bit-exact value equality for delta encoding: NaN payloads compare by
/// bits and `Undef == Undef` (unlike the Check-semantics
/// [`bit_equal`](crate::exec::bit_equal), which must treat any Undef as a
/// mismatch).
pub(crate) fn value_bits_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (Value::B(x), Value::B(y)) => x == y,
        (Value::P(x), Value::P(y)) => x == y,
        (Value::Undef, Value::Undef) => true,
        _ => false,
    }
}

/// Two dirty runs closer than this many unchanged words are merged: run
/// headers cost ~16 bytes, so short gaps are cheaper stored verbatim.
const RUN_GAP: usize = 8;

/// Dirty runs of `cur` against `prev`, with `prev` zero-extended (a grown
/// region only costs its non-zero words, matching `Vec::resize(_, 0)` on
/// apply).
fn diff_words(prev: &[u64], cur: &[u64]) -> Vec<(usize, Vec<u64>)> {
    let mut runs: Vec<(usize, Vec<u64>)> = Vec::new();
    for (i, &c) in cur.iter().enumerate() {
        if c == prev.get(i).copied().unwrap_or(0) {
            continue;
        }
        match runs.last_mut() {
            Some((start, words)) if *start + words.len() + RUN_GAP >= i => {
                let from = *start + words.len();
                words.extend_from_slice(&cur[from..=i]);
            }
            _ => runs.push((i, vec![c])),
        }
    }
    runs
}

fn apply_words(dst: &mut Vec<u64>, new_len: usize, runs: &[(usize, Vec<u64>)]) {
    dst.resize(new_len, 0);
    for (start, words) in runs {
        dst[*start..*start + words.len()].copy_from_slice(words);
    }
}

/// Changed per-instruction injection counts as a varint byte stream of
/// (dense-index gap, absolute new count) pairs. Absolute counts let
/// [`CheckpointStore::inj_count_at`] stop at the first delta mentioning
/// the instruction when walking backward.
fn encode_inj(prev: &[u64], cur: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut last = 0usize;
    for (i, (&p, &c)) in prev.iter().zip(cur).enumerate() {
        if p != c {
            put_varint(&mut buf, (i - last) as u64);
            put_varint(&mut buf, c);
            last = i + 1;
        }
    }
    buf
}

/// Whether `buf` is an [`encode_inj`] stream over `num_insts` counts —
/// what [`apply_inj`] and [`delta_inj_lookup`] take for granted.
fn inj_applies(buf: &[u8], num_insts: usize) -> bool {
    let mut r = Reader::new(buf);
    let mut i = 0usize;
    while r.remaining() > 0 {
        let (Ok(gap), Ok(_count)) = (r.varint(), r.varint()) else {
            return false;
        };
        match i.checked_add(gap as usize) {
            Some(at) if at < num_insts => i = at + 1,
            _ => return false,
        }
    }
    true
}

/// Streams come from [`encode_inj`] or passed [`inj_applies`] on decode.
const INJ_CHECKED: &str = "inj stream is well-formed";

// The two walks below stay plain loops: sharing one iterator with
// `inj_applies` changed how `exec_loop` compiles (same crate, one codegen
// unit) and cost 4-8 % on every benchmark workload.

fn apply_inj(dst: &mut [u64], buf: &[u8]) {
    let mut r = Reader::new(buf);
    let mut i = 0usize;
    while r.remaining() > 0 {
        i += r.varint().expect(INJ_CHECKED) as usize;
        dst[i] = r.varint().expect(INJ_CHECKED);
        i += 1;
    }
}

/// The count for `dense` in one delta's stream, if the stream mentions it.
fn delta_inj_lookup(buf: &[u8], dense: usize) -> Option<u64> {
    let mut r = Reader::new(buf);
    let mut i = 0usize;
    while r.remaining() > 0 {
        i += r.varint().expect(INJ_CHECKED) as usize;
        let c = r.varint().expect(INJ_CHECKED);
        match i.cmp(&dense) {
            std::cmp::Ordering::Equal => return Some(c),
            std::cmp::Ordering::Greater => return None,
            std::cmp::Ordering::Less => i += 1,
        }
    }
    None
}

/// Per-frame diff used when the call-stack shape is unchanged.
#[derive(Debug, Clone)]
pub(crate) struct FrameDiff {
    pub(crate) block: BlockId,
    pub(crate) pos: usize,
    /// (register index, new value) for registers whose bits changed.
    pub(crate) regs: Vec<(u32, Value)>,
}

#[derive(Debug, Clone)]
pub(crate) enum FramesDelta {
    /// Same depth, functions, watermarks and arguments: store per-frame
    /// position + changed registers only.
    Sparse(Vec<FrameDiff>),
    /// The call stack changed shape; store it whole.
    Full(Vec<Frame>),
}

/// A checkpoint stored as a diff against the previously stored entry.
#[derive(Debug, Clone)]
pub(crate) struct SnapDelta {
    pub(crate) frames: FramesDelta,
    pub(crate) mem: Vec<(usize, Vec<u64>)>,
    pub(crate) mem_len: usize,
    pub(crate) stack: Vec<(usize, Vec<u64>)>,
    pub(crate) stack_len: usize,
    /// Output is append-only, so the delta is just the new tail.
    pub(crate) out_tail: Vec<OutputItem>,
    /// See [`encode_inj`].
    pub(crate) inj: Vec<u8>,
}

impl SnapDelta {
    fn approx_bytes(&self) -> usize {
        let frames = match &self.frames {
            FramesDelta::Full(fs) => fs
                .iter()
                .map(|f| (f.regs.len() + f.args.len()) * std::mem::size_of::<Value>() + 64)
                .sum::<usize>(),
            FramesDelta::Sparse(ds) => ds
                .iter()
                .map(|d| d.regs.len() * (std::mem::size_of::<Value>() + 4) + 24)
                .sum::<usize>(),
        };
        let words: usize = self
            .mem
            .iter()
            .chain(&self.stack)
            .map(|(_, w)| w.len() * 8 + 16)
            .sum();
        frames
            + words
            + self.out_tail.len() * std::mem::size_of::<OutputItem>()
            + self.inj.len()
            + 48
    }
}

fn frames_delta(prev: &[Frame], cur: &[Frame]) -> FramesDelta {
    let same_shape = prev.len() == cur.len()
        && prev.iter().zip(cur).all(|(p, c)| {
            p.func == c.func
                && p.sp_base == c.sp_base
                && p.regs.len() == c.regs.len()
                && p.args.len() == c.args.len()
                // same-depth frames can still be *different invocations*
                // (call returned, new call entered between captures), so
                // arguments must match bit-exactly for a sparse diff
                && p.args
                    .iter()
                    .zip(&c.args)
                    .all(|(a, b)| value_bits_eq(*a, *b))
        });
    if !same_shape {
        return FramesDelta::Full(cur.to_vec());
    }
    FramesDelta::Sparse(
        prev.iter()
            .zip(cur)
            .map(|(p, c)| FrameDiff {
                block: c.block,
                pos: c.pos,
                regs: c
                    .regs
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| !value_bits_eq(p.regs[i], v))
                    .map(|(i, &v)| (i as u32, v))
                    .collect(),
            })
            .collect(),
    )
}

fn apply_frames(dst: &mut Vec<Frame>, d: &FramesDelta) {
    match d {
        FramesDelta::Full(frames) => dst.clone_from(frames),
        FramesDelta::Sparse(diffs) => {
            debug_assert_eq!(dst.len(), diffs.len());
            for (f, diff) in dst.iter_mut().zip(diffs) {
                f.block = diff.block;
                f.pos = diff.pos;
                for &(i, v) in &diff.regs {
                    f.regs[i as usize] = v;
                }
            }
        }
    }
}

fn encode_delta(prev: &Snapshot, st: &MachineState, inj_counts: &[u64]) -> SnapDelta {
    debug_assert!(prev.state.output.items.len() <= st.output.items.len());
    SnapDelta {
        frames: frames_delta(&prev.state.frames, &st.frames),
        mem: diff_words(&prev.state.mem, &st.mem),
        mem_len: st.mem.len(),
        stack: diff_words(&prev.state.stack_mem, &st.stack_mem),
        stack_len: st.stack_mem.len(),
        out_tail: st.output.items[prev.state.output.items.len()..].to_vec(),
        inj: encode_inj(&prev.inj_counts, inj_counts),
    }
}

fn apply_delta_state(st: &mut MachineState, d: &SnapDelta, steps: u64, inj_ctr: u64) {
    apply_frames(&mut st.frames, &d.frames);
    apply_words(&mut st.mem, d.mem_len, &d.mem);
    apply_words(&mut st.stack_mem, d.stack_len, &d.stack);
    st.output.items.extend_from_slice(&d.out_tail);
    st.steps = steps;
    st.inj_ctr = inj_ctr;
    st.per_inst_ctr = 0;
    st.fault_applied = false;
}

/// Whether [`apply_delta_state`] can apply `d` to `st`, and [`apply_inj`]
/// its count stream to `num_insts` counts, without indexing out of bounds
/// or growing a memory past `mem_limit` words — the check a delta from
/// outside the process must pass before it is applied. The lengths are
/// bare varints on the wire and applying one resizes to it; no run grows
/// either memory past its `ExecConfig::mem_limit`, so no checkpoint of
/// one records more.
fn delta_applies(st: &MachineState, d: &SnapDelta, num_insts: usize, mem_limit: u64) -> bool {
    let runs_fit = |runs: &[(usize, Vec<u64>)], len: usize| {
        len as u64 <= mem_limit
            && runs
                .iter()
                .all(|(start, words)| start.checked_add(words.len()).is_some_and(|end| end <= len))
    };
    let frames_fit = match &d.frames {
        FramesDelta::Full(_) => true,
        FramesDelta::Sparse(diffs) => {
            diffs.len() == st.frames.len()
                && diffs
                    .iter()
                    .zip(&st.frames)
                    .all(|(diff, f)| diff.regs.iter().all(|&(i, _)| (i as usize) < f.regs.len()))
        }
    };
    frames_fit
        && runs_fit(&d.mem, d.mem_len)
        && runs_fit(&d.stack, d.stack_len)
        && inj_applies(&d.inj, num_insts)
}

#[derive(Debug, Clone)]
pub(crate) enum SnapBody {
    Key(Snapshot),
    Delta(SnapDelta),
}

/// One stored checkpoint: metadata needed for nearest-snapshot selection
/// inline, body either a keyframe or a delta.
#[derive(Debug, Clone)]
pub(crate) struct StoredSnap {
    pub(crate) steps: u64,
    pub(crate) inj_ctr: u64,
    /// Index of the governing keyframe entry (`== own index` for keys).
    pub(crate) key: u32,
    pub(crate) bytes: usize,
    /// [`state_digest`](crate::converge::state_digest) of the checkpointed
    /// state: what a faulty run's state is filtered against at this
    /// boundary. Derived data — taken at capture, recomputed on decode,
    /// never on the wire.
    pub(crate) digest: u64,
    pub(crate) body: SnapBody,
}

/// How the golden run that filled a [`CheckpointStore`] ended: what a
/// faulty run that converges onto it will end as.
#[derive(Debug, Clone)]
pub(crate) struct GoldenTail {
    /// The complete golden output.
    pub(crate) output: Output,
    pub(crate) steps: u64,
    pub(crate) ret: Option<Value>,
}

/// Accumulates checkpoints during a golden run, with the dense
/// injection-count vector that each snapshot clones: the oracle counts
/// into it production by production, the decoded engine fills it in at
/// each capture from what its observers kept (see [`crate::observe`]).
#[derive(Debug)]
pub(crate) struct CheckpointCollector {
    interval: u64,
    next_at: u64,
    mem_budget_bytes: usize,
    mode: SnapshotMode,
    keyframe_every: u32,
    bytes: usize,
    pub(crate) inj_counts: Vec<u64>,
    entries: Vec<StoredSnap>,
    /// Delta mode: a materialized copy of the last stored entry — exactly
    /// the base the next delta diffs against. Invariant: equals the state
    /// encoded by `entries.last()`, which `thin` preserves by re-pushing
    /// kept entries through the same path.
    shadow: Option<Snapshot>,
}

impl CheckpointCollector {
    pub(crate) fn new(cfg: CheckpointConfig, num_insts: usize) -> Self {
        let interval = cfg.interval.max(1);
        CheckpointCollector {
            interval,
            next_at: interval,
            mem_budget_bytes: cfg.mem_budget_bytes,
            mode: cfg.mode,
            keyframe_every: cfg.keyframe_every.max(1),
            bytes: 0,
            inj_counts: vec![0; num_insts],
            entries: Vec::new(),
            shadow: None,
        }
    }

    /// True when the machine has completed enough steps for the next
    /// capture. Checked between instructions.
    #[inline]
    pub(crate) fn due(&self, steps: u64) -> bool {
        steps >= self.next_at
    }

    /// Completed-step count from which the next capture is due.
    pub(crate) fn next_at(&self) -> u64 {
        self.next_at
    }

    pub(crate) fn capture(&mut self, st: &MachineState) {
        let inj = std::mem::take(&mut self.inj_counts);
        self.push_entry(st, &inj, crate::converge::digest_of(st));
        self.inj_counts = inj;
        self.next_at = st.steps + self.interval;
        while self.bytes > self.mem_budget_bytes && self.entries.len() > 1 {
            self.thin();
        }
    }

    /// Append one checkpoint of machine state `st` with injection counts
    /// `inj`, choosing keyframe vs delta by the configured policy. Shared
    /// by live capture and by `thin`'s re-encode.
    fn push_entry(&mut self, st: &MachineState, inj: &[u64], digest: u64) {
        let idx = self.entries.len();
        let make_key = match self.mode {
            SnapshotMode::Full => true,
            SnapshotMode::Delta => match self.entries.last() {
                None => true,
                Some(last) => idx as u32 - last.key >= self.keyframe_every,
            },
        };
        let entry = if make_key {
            let snap = Snapshot {
                state: st.clone(),
                inj_counts: inj.to_vec(),
            };
            StoredSnap {
                steps: st.steps,
                inj_ctr: st.inj_ctr,
                key: idx as u32,
                bytes: snap.approx_bytes(),
                digest,
                body: SnapBody::Key(snap),
            }
        } else {
            let shadow = self.shadow.as_ref().expect("delta entries follow a key");
            let d = encode_delta(shadow, st, inj);
            StoredSnap {
                steps: st.steps,
                inj_ctr: st.inj_ctr,
                key: self.entries.last().unwrap().key,
                bytes: d.approx_bytes(),
                digest,
                body: SnapBody::Delta(d),
            }
        };
        self.bytes += entry.bytes;
        self.entries.push(entry);
        if self.mode == SnapshotMode::Delta {
            match &mut self.shadow {
                Some(sh) => {
                    sh.state.clone_from(st);
                    sh.inj_counts.clear();
                    sh.inj_counts.extend_from_slice(inj);
                }
                None => {
                    self.shadow = Some(Snapshot {
                        state: st.clone(),
                        inj_counts: inj.to_vec(),
                    })
                }
            }
        }
    }

    /// Drop every other checkpoint (keeping the later of each pair, so the
    /// worst-case replay suffix stays ≤ the new interval) and double the
    /// interval. In delta mode the survivors are re-encoded by walking a
    /// single materialization cursor over the old chain and re-pushing
    /// each kept state, so keys/deltas stay consistent.
    fn thin(&mut self) {
        match self.mode {
            SnapshotMode::Full => {
                let mut keep = false;
                self.entries.retain(|_| {
                    keep = !keep;
                    !keep
                });
                for (i, e) in self.entries.iter_mut().enumerate() {
                    e.key = i as u32;
                }
                self.bytes = self.entries.iter().map(|e| e.bytes).sum();
            }
            SnapshotMode::Delta => {
                let old = std::mem::take(&mut self.entries);
                self.bytes = 0;
                self.shadow = None;
                let mut cur = MachineState::default();
                let mut inj = vec![0u64; self.inj_counts.len()];
                for (i, e) in old.iter().enumerate() {
                    match &e.body {
                        SnapBody::Key(s) => {
                            cur.clone_from(&s.state);
                            inj.copy_from_slice(&s.inj_counts);
                        }
                        SnapBody::Delta(d) => {
                            apply_delta_state(&mut cur, d, e.steps, e.inj_ctr);
                            apply_inj(&mut inj, &d.inj);
                        }
                    }
                    if i % 2 == 1 {
                        self.push_entry(&cur, &inj, e.digest);
                    }
                }
            }
        }
        self.interval = self.interval.saturating_mul(2);
        self.next_at = self.entries.last().map(|s| s.steps).unwrap_or(0) + self.interval;
    }

    pub(crate) fn into_store(self) -> CheckpointStore {
        CheckpointStore {
            num_insts: self.inj_counts.len(),
            entries: self.entries,
            tail: None,
        }
    }
}

/// An ordered set of checkpoints from one golden run, with the lookups FI
/// campaigns need: the latest checkpoint whose injection counter has not
/// yet passed a given fault index. Checkpoints are addressed by index;
/// [`CheckpointStore::restore_into`] reconstructs one directly into a
/// scratch [`MachineState`] (applying delta chains in place), and
/// [`CheckpointStore::materialize`] clones one out as a [`Snapshot`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    pub(crate) entries: Vec<StoredSnap>,
    pub(crate) num_insts: usize,
    /// Known when the golden run exited normally; without it faulty runs
    /// replay to their own end (see [`crate::converge`]).
    tail: Option<GoldenTail>,
}

impl CheckpointStore {
    /// Rebuild a store from wire-decoded entries (their `digest` fields
    /// are placeholders): walk every delta chain once, refusing a delta
    /// that would not apply or that asks for more than `mem_limit` words
    /// of either memory, and take each checkpoint's state digest.
    pub(crate) fn from_decoded(
        mut entries: Vec<StoredSnap>,
        num_insts: usize,
        mem_limit: u64,
    ) -> Result<Self, &'static str> {
        let mut cur = MachineState::default();
        for e in &mut entries {
            match &e.body {
                SnapBody::Key(s) => cur.clone_from(&s.state),
                SnapBody::Delta(d) if delta_applies(&cur, d, num_insts, mem_limit) => {
                    apply_delta_state(&mut cur, d, e.steps, e.inj_ctr)
                }
                SnapBody::Delta(_) => return Err("delta does not apply to its predecessor"),
            }
            e.digest = crate::converge::digest_of(&cur);
        }
        Ok(CheckpointStore {
            entries,
            num_insts,
            tail: None,
        })
    }

    /// Tell the store how its golden run ended — normal exit after `steps`
    /// instructions with the complete `output` and return value `ret` —
    /// which is what lets a run beside it ([`Start::Beside`]) finish early
    /// once it has converged onto the golden one. A [`Start::Capture`] run
    /// does this itself; a store
    /// decoded from its wire image needs it re-attached. Pass `ret: None`
    /// when the return value is not known: early exit then stays off for
    /// modules whose entry function returns a value.
    ///
    /// [`Start::Beside`]: crate::Start::Beside
    /// [`Start::Capture`]: crate::Start::Capture
    pub fn attach_tail(&mut self, output: Output, steps: u64, ret: Option<Value>) {
        self.tail = Some(GoldenTail { output, steps, ret });
    }

    pub(crate) fn tail(&self) -> Option<&GoldenTail> {
        self.tail.as_ref()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn total_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Step counter of checkpoint `idx`.
    pub fn steps_at(&self, idx: usize) -> u64 {
        self.entries[idx].steps
    }

    /// Global injection counter of checkpoint `idx`.
    pub fn inj_ctr_at(&self, idx: usize) -> u64 {
        self.entries[idx].inj_ctr
    }

    /// Injection count of static instruction `dense` at checkpoint `idx`.
    /// Walks backward from `idx`: deltas store absolute counts, so the
    /// first stream mentioning `dense` answers; otherwise the keyframe
    /// does.
    pub fn inj_count_at(&self, idx: usize, dense: usize) -> u64 {
        let mut j = idx;
        loop {
            match &self.entries[j].body {
                SnapBody::Key(s) => return s.inj_counts[dense],
                SnapBody::Delta(d) => {
                    if let Some(c) = delta_inj_lookup(&d.inj, dense) {
                        return c;
                    }
                    j -= 1;
                }
            }
        }
    }

    /// Reconstruct checkpoint `idx`'s machine state into `st`, reusing its
    /// buffers: `clone_from` the governing keyframe, then apply the (at
    /// most `keyframe_every - 1`) deltas in place.
    pub fn restore_into(&self, idx: usize, st: &mut MachineState) {
        let key = self.entries[idx].key as usize;
        for j in key..=idx {
            let e = &self.entries[j];
            match &e.body {
                SnapBody::Key(s) => st.clone_from(&s.state),
                SnapBody::Delta(d) => apply_delta_state(st, d, e.steps, e.inj_ctr),
            }
        }
    }

    /// Clone checkpoint `idx` out as a standalone [`Snapshot`].
    pub fn materialize(&self, idx: usize) -> Snapshot {
        let mut st = MachineState::default();
        self.restore_into(idx, &mut st);
        let key = self.entries[idx].key as usize;
        let mut inj_counts = vec![0u64; self.num_insts];
        for j in key..=idx {
            match &self.entries[j].body {
                SnapBody::Key(s) => inj_counts.copy_from_slice(&s.inj_counts),
                SnapBody::Delta(d) => apply_inj(&mut inj_counts, &d.inj),
            }
        }
        Snapshot {
            state: st,
            inj_counts,
        }
    }

    /// Latest checkpoint safe for a `NthDynamic(nth)` fault: the last one
    /// whose global injection counter is still ≤ `nth` (the target event
    /// has not yet happened at capture time).
    pub fn nearest_for_dynamic(&self, nth: u64) -> Option<usize> {
        let k = self.entries.partition_point(|s| s.inj_ctr <= nth);
        k.checked_sub(1)
    }

    /// Latest checkpoint safe for a `NthOfInst(dense, nth)` fault: the
    /// last one where the target instruction's injection count is still
    /// ≤ `nth`.
    pub fn nearest_for_inst(&self, dense: usize, nth: u64) -> Option<usize> {
        binary_search_by_count(self, dense, nth).checked_sub(1)
    }
}

/// `partition_point` over `inj_count_at(i, dense) <= nth` (counts are
/// monotone nondecreasing in the checkpoint index).
fn binary_search_by_count(store: &CheckpointStore, dense: usize, nth: u64) -> usize {
    let mut lo = 0usize;
    let mut hi = store.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if store.inj_count_at(mid, dense) <= nth {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Auto-tuned capture interval for a golden run of `golden_steps` dynamic
/// instructions: ~sqrt(steps) (balancing snapshot count against mean replay
/// suffix), floored so at most `max_snapshots` are captured.
pub fn auto_interval(golden_steps: u64, max_snapshots: u64) -> u64 {
    let sqrt = (golden_steps as f64).sqrt().ceil() as u64;
    let floor = golden_steps / max_snapshots.max(1) + 1;
    sqrt.max(floor).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_interval_is_sqrt_like_and_capped() {
        assert_eq!(auto_interval(0, 512), 1);
        assert_eq!(auto_interval(100, 512), 10);
        let i = auto_interval(1_000_000, 512);
        // sqrt(1e6) = 1000 snapshots would exceed the 512 cap -> floor wins
        assert!(i >= 1_000_000 / 512);
        assert!(1_000_000 / i <= 512);
    }

    #[test]
    fn word_diffs_round_trip_including_growth_and_shrink() {
        let cases: [(&[u64], &[u64]); 5] = [
            (&[1, 2, 3], &[1, 9, 3]),
            (&[1, 2, 3], &[1, 2, 3, 0, 0, 7]), // growth: zeros are free
            (&[1, 2, 3, 4, 5], &[1, 2]),       // shrink
            (&[], &[5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9]), // two runs
            (&[0; 64], &[0; 64]),              // no change
        ];
        for (prev, cur) in cases {
            let runs = diff_words(prev, cur);
            let mut dst = prev.to_vec();
            apply_words(&mut dst, cur.len(), &runs);
            assert_eq!(dst, cur);
        }
    }

    #[test]
    fn inj_streams_round_trip_and_support_lookup() {
        let prev = vec![0u64, 5, 9, 0, 2, 2];
        let cur = vec![0u64, 6, 9, 0, 4, 2];
        let buf = encode_inj(&prev, &cur);
        let mut dst = prev.clone();
        apply_inj(&mut dst, &buf);
        assert_eq!(dst, cur);
        assert_eq!(delta_inj_lookup(&buf, 1), Some(6));
        assert_eq!(delta_inj_lookup(&buf, 4), Some(4));
        assert_eq!(delta_inj_lookup(&buf, 2), None, "unchanged: not in stream");
        assert_eq!(delta_inj_lookup(&buf, 5), None);
    }
}
