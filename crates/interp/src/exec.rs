//! The interpreter's front door: execution limits, results, the canonical
//! machine state and [`Interp`], which binds a module to its decoded form.
//!
//! Every run — clean, faulty, profiled, traced, checkpoint-capturing,
//! resumed — is one [`Run`] handed to [`Interp::execute`], which executes
//! it on the one decoded loop in [`crate::decode`]. Per-instruction
//! static data (dense numbering, block table) is precomputed in
//! [`Interp::new`], and the observers are compiled out of the
//! fault-injection runs that dominate total experiment time.
//!
//! All mutable machine state lives in [`MachineState`], which makes two
//! things cheap: snapshotting it mid-run ([`Start::Capture`]) and resuming
//! a faulty run from a checkpoint instead of from scratch
//! ([`Start::Beside`]).
//! Because the machine is fully deterministic, a resumed run is
//! bit-identical to a from-scratch run with the same fault.

use crate::decode::{self, DecodedModule, ExecScratch, Lowered};
use crate::fault::{FaultSpec, FaultTarget};
use crate::observe::BlockTable;
use crate::profile::Profile;
use crate::snapshot::{CheckpointConfig, CheckpointStore};
use crate::value::{Output, ProgInput, Value};
use minpsid_ir::{BlockId, CmpOp, FuncId, InstKind, Module};

/// Limits and switches for one execution.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Maximum dynamic instructions; exceeding it terminates with
    /// [`Termination::StepLimit`] (classified as a hang by the campaign
    /// layer, which sets this to a multiple of the golden run's steps).
    pub step_limit: u64,
    /// Maximum linear-memory cells (8 bytes each).
    pub mem_limit: u64,
    /// Maximum call depth.
    pub call_depth_limit: u32,
    /// Maximum output items (a fault can turn a bounded loop into an
    /// output flood; the limit keeps campaigns memory-safe).
    pub output_limit: usize,
    /// Collect a [`Profile`].
    pub profile: bool,
    /// Record every register write as a [`TraceEvent`] (used by the
    /// error-propagation analysis; costs memory proportional to steps).
    pub trace: bool,
}

impl ExecConfig {
    /// Feed this config to a key. It enters every key a campaign config
    /// does, whole: each limit decides where a faulty run stops, `profile`
    /// and `trace` what a golden run records, and the cost model the
    /// knapsack's costs ([`Profile::inst_cycles`]).
    pub fn key(&self, h: &mut minpsid_ir::bytes::Fnv) {
        let ExecConfig {
            step_limit,
            mem_limit,
            call_depth_limit,
            output_limit,
            profile,
            trace,
        } = self;
        // `wall_clock_ms: 0` is the retired per-run clock budget, at the one
        // value a journal or store written before its removal could hold
        h.text(format_args!(
            "ExecConfig {{ step_limit: {step_limit:?}, mem_limit: {mem_limit:?}, \
             call_depth_limit: {call_depth_limit:?}, output_limit: {output_limit:?}, \
             profile: {profile:?}, trace: {trace:?}, wall_clock_ms: 0, cost_model: "
        ));
        minpsid_ir::cost::key(h);
        h.bytes(b" }");
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_limit: 200_000_000,
            mem_limit: 1 << 24,
            call_depth_limit: 512,
            output_limit: 1 << 20,
            profile: false,
            trace: false,
        }
    }
}

/// One register write: which static instruction (dense index) produced
/// which value. The sequence of trace events is the program's dataflow
/// history; diffing a faulty run's trace against the golden one shows how
/// an error propagates (the paper's §IV root-cause methodology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Dense module-wide index of the producing instruction.
    pub dense: u32,
    pub value: Value,
}

/// Why an execution trapped (→ "crash" in the paper's outcome taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    OutOfBounds,
    DivByZero,
    NegativeAlloc,
    MemLimit,
    CallDepth,
    UndefRead,
    ArgOutOfRange,
    ArgTypeMismatch,
    StreamOutOfBounds,
    StreamTypeMismatch,
    TypeConfusion,
    /// An arg/stream index outside the `usize` range (e.g. negative).
    /// Distinct from the out-of-range kinds so that a corrupted index is
    /// never silently aliased to a plain miss.
    BadIndex,
}

/// How an execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Normal exit from the entry function.
    Exit,
    /// Hardware-exception-like failure.
    Trap(TrapKind),
    /// A duplication check caught a mismatch (SID detection event).
    Detected,
    /// Step or output budget exhausted (hang).
    StepLimit,
}

/// The result of one execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    pub termination: Termination,
    pub output: Output,
    pub profile: Option<Profile>,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Whether the configured fault actually triggered (a fault aimed past
    /// the end of the dynamic trace never fires).
    pub fault_applied: bool,
    /// Entry function's return value on normal exit.
    pub ret: Option<Value>,
    /// Register-write trace (only with [`ExecConfig::trace`]).
    pub trace: Option<Vec<TraceEvent>>,
    /// Step counter at the snapshot this run resumed from (`None` for
    /// from-scratch runs). The per-restore telemetry surface: callers
    /// derive steps-skipped (`resumed_at`) vs steps-executed
    /// (`steps - resumed_at`) per injection from it.
    pub resumed_at: Option<u64>,
    /// Step count at which the run was found to have converged onto the
    /// golden run and was finished early (`None` for a run replayed to its
    /// own end). Telemetry like `resumed_at`: every other field is what
    /// the full replay would have produced, and `converged_at -
    /// resumed_at` is what was executed (see [`crate::converge`]).
    pub converged_at: Option<u64>,
    /// Step count at which the run was proved to end at the step limit and
    /// was stopped (`None` for a run that got there, or anywhere else, on
    /// its own). Telemetry like `converged_at`: the result is the full
    /// run's, `steps` included, and `hang_proved_at - resumed_at` is what
    /// was executed (DESIGN.md, "Proving a hang").
    pub hang_proved_at: Option<u64>,
}

impl ExecResult {
    /// Convenience for tests and examples.
    pub fn exited(&self) -> bool {
        self.termination == Termination::Exit
    }
}

/// Tag bit distinguishing stack (`salloc`) pointers from heap (`alloc`)
/// pointers. A bit flip on the tag moves the pointer into the other space,
/// which — like any pointer corruption — yields a wrong-address access or
/// an out-of-bounds trap.
pub const STACK_TAG: u64 = 1 << 62;

#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    /// Index into the current block's instruction list.
    pub(crate) pos: usize,
    pub(crate) regs: Vec<Value>,
    pub(crate) args: Vec<Value>,
    /// Stack-memory watermark to restore on return (frees `salloc`s).
    pub(crate) sp_base: usize,
}

/// Everything the interpreter carries from one instruction to the next:
/// the frame stack, both linear memories, the output stream, and the step
/// and injection counters. Snapshots clone this wholesale; resumed runs
/// start from a restored copy. The profile and trace are deliberately
/// *not* part of it — they are observers, not machine state, and resumed
/// runs re-collect them for the suffix only.
///
/// Campaigns keep one `MachineState` per worker thread as reusable scratch
/// (inside an [`ExecScratch`], see [`Interp::execute`]): restoring
/// into an existing state reuses its memory buffers instead of
/// reallocating per injection.
#[derive(Debug, Default)]
pub struct MachineState {
    pub(crate) frames: Vec<Frame>,
    pub(crate) mem: Vec<u64>,
    pub(crate) stack_mem: Vec<u64>,
    pub(crate) output: Output,
    pub(crate) steps: u64,
    /// Global count of injectable value productions so far (the
    /// `NthDynamic` population index).
    pub(crate) inj_ctr: u64,
    /// Count of injectable value productions by the armed `NthOfInst`
    /// target instruction. Meaningless without an armed fault; restored
    /// from a snapshot's dense count vector on resume.
    pub(crate) per_inst_ctr: u64,
    pub(crate) fault_applied: bool,
}

impl Clone for MachineState {
    fn clone(&self) -> Self {
        MachineState {
            frames: self.frames.clone(),
            mem: self.mem.clone(),
            stack_mem: self.stack_mem.clone(),
            output: self.output.clone(),
            steps: self.steps,
            inj_ctr: self.inj_ctr,
            per_inst_ctr: self.per_inst_ctr,
            fault_applied: self.fault_applied,
        }
    }

    /// Buffer-reusing restore: `Vec::clone_from` keeps existing
    /// allocations, which is what makes per-worker scratch states pay off
    /// in campaigns.
    fn clone_from(&mut self, src: &Self) {
        self.frames.clone_from(&src.frames);
        self.mem.clone_from(&src.mem);
        self.stack_mem.clone_from(&src.stack_mem);
        self.output.items.clone_from(&src.output.items);
        self.steps = src.steps;
        self.inj_ctr = src.inj_ctr;
        self.per_inst_ctr = src.per_inst_ctr;
        self.fault_applied = src.fault_applied;
    }
}

impl MachineState {
    /// Clear to the pre-run state (no frames) without touching capacity.
    pub(crate) fn reset(&mut self) {
        self.frames.clear();
        self.mem.clear();
        self.stack_mem.clear();
        self.output.items.clear();
        self.steps = 0;
        self.inj_ctr = 0;
        self.per_inst_ctr = 0;
        self.fault_applied = false;
    }

    /// Reset to the program entry point: one frame at the entry function's
    /// first block, empty memories and output, zeroed counters.
    pub(crate) fn start(&mut self, m: &Module) {
        let entry_fn = m.func(m.entry);
        self.reset();
        self.frames.push(Frame {
            func: m.entry,
            block: BlockId(0),
            pos: 0,
            regs: vec![Value::Undef; entry_fn.insts.len()],
            args: vec![],
            sp_base: 0,
        });
    }

    /// Rough heap footprint in bytes, for checkpoint memory budgeting.
    pub(crate) fn approx_bytes(&self) -> usize {
        let frames: usize = self
            .frames
            .iter()
            .map(|f| (f.regs.len() + f.args.len()) * std::mem::size_of::<Value>() + 64)
            .sum();
        frames
            + (self.mem.len() + self.stack_mem.len()) * 8
            + self.output.items.len() * std::mem::size_of::<crate::value::OutputItem>()
            + 64
    }
}

/// Where a [`Run`] starts, and the golden run's checkpoints it runs beside.
#[derive(Clone, Copy)]
pub enum Start<'a> {
    /// The program entry point.
    Entry,
    /// The entry point, fault-free, capturing a checkpoint every
    /// `interval` dynamic instructions into a [`CheckpointStore`]
    /// (delta-encoded checkpoints stay encoded) that
    /// [`ExecScratch::take_checkpoints`] hands over. The result is
    /// bit-identical to the plain run's, profile and trace included: one
    /// pass yields everything a golden run needs.
    Capture(CheckpointConfig),
    /// A faulty run of the input the golden run that captured this store
    /// ran, under this interpreter's memory and call-depth limits — a
    /// campaign's injection. It resumes from the last checkpoint before the
    /// fault's target (executing only the suffix, the profile and trace
    /// covering it alone) or, when none precedes it, runs cold from the
    /// entry point. Once the fault has fired, an unobserved run is compared
    /// with the golden run at the store's later checkpoints and finished
    /// early when their states are equal ([`ExecResult::converged_at`], see
    /// [`crate::converge`]); one still going past the golden run's length
    /// is stopped once a counted loop of it provably repeats itself to the
    /// step limit ([`ExecResult::hang_proved_at`]). Same result as the cold
    /// run, that telemetry and [`ExecResult::resumed_at`] aside.
    Beside(&'a CheckpointStore),
    /// As [`Start::Beside`], resumed from checkpoint `k` of the store,
    /// which must precede the fault's target.
    At(&'a CheckpointStore, usize),
}

/// One execution: what [`Interp::execute`] runs.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    pub input: &'a ProgInput,
    /// The single bit flip armed for the run, if any.
    pub fault: Option<FaultSpec>,
    pub start: Start<'a>,
    /// Run the observers the config asks for ([`ExecConfig::profile`],
    /// [`ExecConfig::trace`]). Off, the result carries neither: the sizing
    /// pass of a golden run whose checkpoint interval depends on the run's
    /// length.
    pub observe: bool,
    /// Run fault-free from the entry point on the loop a faulty run
    /// finishes on past the golden run's length, visiting counted loops'
    /// latches from the first step (the budget for their saves counted
    /// from there): a run whose loop provably repeats itself to the step
    /// limit stops at the proof, with [`ExecResult::hang_proved_at`] set
    /// and every other field the full run's. What `step_rate` times and
    /// tests hold against the oracle on hand-built loops.
    #[doc(hidden)]
    pub prove: bool,
}

impl<'a> Run<'a> {
    /// A fault-free, observed run of `input` from the entry point.
    pub fn new(input: &'a ProgInput) -> Self {
        Run {
            input,
            fault: None,
            start: Start::Entry,
            observe: true,
            prove: false,
        }
    }

    /// The golden run's store this run executes beside, and the checkpoint
    /// of it the run resumes from: for [`Start::Beside`], the last one
    /// captured before the fault's target executed.
    pub(crate) fn golden(
        &self,
        interp: &Interp<'_>,
    ) -> (Option<&'a CheckpointStore>, Option<usize>) {
        let from = |store: &CheckpointStore, f: FaultSpec| match f.target {
            FaultTarget::NthDynamic(n) => store.nearest_for_dynamic(n),
            FaultTarget::NthOfInst(gid, n) => store.nearest_for_inst(interp.dense_index(gid), n),
        };
        match self.start {
            Start::Entry | Start::Capture(_) => (None, None),
            Start::Beside(store) => (Some(store), self.fault.and_then(|f| from(store, f))),
            Start::At(store, k) => (Some(store), Some(k)),
        }
    }
}

/// An interpreter bound to one module. Construction decodes the module
/// (see [`crate::decode`]), so build one per module and reuse it across
/// runs; it is immutable and shareable across threads.
pub struct Interp<'m> {
    module: &'m Module,
    config: ExecConfig,
    /// Dense numbering base per function.
    pub(crate) base: Vec<usize>,
    /// The module's blocks as the observers' counters see them.
    pub(crate) block_table: BlockTable,
    /// The module lowered for pre-decoded dispatch (see [`crate::decode`]).
    lowered: Lowered,
}

impl<'m> Interp<'m> {
    pub fn new(module: &'m Module, config: ExecConfig) -> Self {
        let mut base = Vec::with_capacity(module.funcs.len());
        let mut acc = 0usize;
        for f in &module.funcs {
            base.push(acc);
            acc += f.insts.len();
        }
        let lowered = decode::decode_module(module);
        Interp {
            module,
            config,
            base,
            block_table: BlockTable::new(module, &lowered.slotted),
            lowered,
        }
    }

    pub(crate) fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The lowering every run starts on. Frame layout, block entries and
    /// constant pools are the generic lowering's too.
    pub(crate) fn decoded(&self) -> &DecodedModule {
        &self.lowered.slotted
    }

    /// Whether the static instruction with dense index `dense` is a
    /// `salloc`: the one kind of value whose corruption the slotted
    /// lowering would not see.
    pub(crate) fn is_salloc(&self, dense: u32) -> bool {
        let dense = dense as usize;
        let func = self.base.partition_point(|&b| b <= dense) - 1;
        matches!(
            self.module.funcs[func].insts[dense - self.base[func]].kind,
            InstKind::Salloc { .. }
        )
    }

    /// Static slot-addressing coverage: `(loads and stores addressed at
    /// decode time, all loads and stores)`. What the front end must keep
    /// emitting for the slotted lowering to pay off; tests pin a floor.
    #[doc(hidden)]
    pub fn slot_coverage(&self) -> (usize, usize) {
        let slotted = self.lowered.slot_addressed.iter().filter(|&&s| s).count();
        (slotted, self.lowered.mem_halves)
    }

    /// Whether the static instruction with dense index `dense` is a load
    /// or store addressed at decode time.
    #[doc(hidden)]
    pub fn slot_addressed(&self, dense: usize) -> bool {
        self.lowered.slot_addressed[dense]
    }

    /// The op in every code slot, function by function, as `(display
    /// name, width, dense index)`: a superinstruction's name sits in the
    /// first slot of the window it carries, `width` slots long, and the
    /// dense index is the instruction the slot stands for. Tests pin which
    /// windows fuse; `step_rate` counts the static sites of each kind and,
    /// window by window, the steps each carries.
    #[doc(hidden)]
    pub fn op_names(&self) -> Vec<Vec<(&'static str, usize, usize)>> {
        let op = |di: &decode::DInst| {
            let name = decode::OP_NAMES[di.op.index()];
            (name, di.op.width(), di.dense as usize)
        };
        let funcs = self.lowered.slotted.funcs.iter();
        funcs.map(|f| f.code.iter().map(op).collect()).collect()
    }

    /// Bytes per code slot of the decoded loop: the stride of its
    /// dispatch, which `step_rate` prints beside the rates it explains.
    #[doc(hidden)]
    pub fn code_slot_bytes() -> usize {
        std::mem::size_of::<decode::DInst>()
    }

    pub fn module(&self) -> &'m Module {
        self.module
    }

    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Dense module-wide index of a static instruction.
    pub fn dense_index(&self, gid: minpsid_ir::GlobalInstId) -> usize {
        self.base[gid.func.index()] + gid.inst.index()
    }

    /// Execute one [`Run`] in `scratch`, reusing every buffer (frames,
    /// register/argument arenas, memories, the observers' counters, the
    /// output a caller handed back with [`ExecScratch::recycle_output`]).
    /// The one way to run the interpreter: the run's start, fault and
    /// observers pick one of the decoded loop's instantiations (see
    /// [`crate::decode`]), and the result is bit-identical to the
    /// reference walk's ([`crate::oracle`]), telemetry aside.
    ///
    /// # Panics
    /// A [`Start::Capture`] with a fault, a proving run that is not a
    /// fault-free one from the entry point, a [`Start::At`] checkpoint at
    /// which the fault's target has already executed, and a checkpoint
    /// whose frames are not the module's.
    pub fn execute(&self, scratch: &mut ExecScratch, run: &Run<'_>) -> ExecResult {
        decode::execute(self, scratch, run)
    }

    /// A fault-free run from the entry point.
    pub fn run(&self, input: &ProgInput) -> ExecResult {
        self.execute(&mut ExecScratch::default(), &Run::new(input))
    }

    /// A run with `fault` armed from the entry point, in `scratch`.
    pub fn run_with_fault_in(
        &self,
        scratch: &mut ExecScratch,
        input: &ProgInput,
        fault: FaultSpec,
    ) -> ExecResult {
        self.execute(
            scratch,
            &Run {
                fault: Some(fault),
                ..Run::new(input)
            },
        )
    }

    /// A fault-free run from the entry point that captures checkpoints
    /// ([`Start::Capture`]), and the store it captured.
    pub fn run_with_checkpoint_store(
        &self,
        input: &ProgInput,
        cfg: CheckpointConfig,
    ) -> (ExecResult, CheckpointStore) {
        let scratch = &mut ExecScratch::default();
        let run = Run {
            start: Start::Capture(cfg),
            ..Run::new(input)
        };
        (self.execute(scratch, &run), scratch.take_checkpoints())
    }

    /// A run with `fault` armed, resumed from checkpoint `idx` of `store`
    /// ([`Start::At`]).
    pub fn resume_from(
        &self,
        scratch: &mut ExecScratch,
        store: &CheckpointStore,
        idx: usize,
        input: &ProgInput,
        fault: FaultSpec,
    ) -> ExecResult {
        let run = Run {
            fault: Some(fault),
            start: Start::At(store, idx),
            ..Run::new(input)
        };
        self.execute(scratch, &run)
    }

    /// Restore checkpoint `idx` of `store` into `st` for a run with
    /// `fault`. The golden run that captured it armed no fault, so an
    /// `NthOfInst` target's counter comes from the store's dense count
    /// vector.
    ///
    /// # Panics
    /// If the fault's target has already executed at the checkpoint: the
    /// loops fire on a counter *equal* to the target, so a run resumed
    /// past it would never flip its bit and look benign.
    pub(crate) fn restore(
        &self,
        store: &CheckpointStore,
        idx: usize,
        fault: Option<FaultSpec>,
        st: &mut MachineState,
    ) {
        store.restore_into(idx, st);
        st.fault_applied = false;
        st.per_inst_ctr = 0;
        let (seen, nth) = match fault.map(|f| f.target) {
            None => return,
            Some(FaultTarget::NthDynamic(n)) => (st.inj_ctr, n),
            Some(FaultTarget::NthOfInst(gid, n)) => {
                st.per_inst_ctr = store.inj_count_at(idx, self.dense_index(gid));
                (st.per_inst_ctr, n)
            }
        };
        assert!(
            seen <= nth,
            "checkpoint {idx} is past the fault's target ({seen} of its events already ran, it fires at {nth})"
        );
    }
}

pub(crate) fn cmp_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// Bit-exact equality used by duplication checks (NaN payloads compare by
/// bits, exactly as a hardware comparator over registers would).
pub(crate) fn bit_equal(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (Value::B(x), Value::B(y)) => x == y,
        (Value::P(x), Value::P(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Scalar, Stream};
    use minpsid_ir::{verify::assert_verified, GlobalInstId, InstId, ModuleBuilder, Ty, UnOp};

    fn every(interval: u64) -> CheckpointConfig {
        CheckpointConfig {
            interval,
            ..CheckpointConfig::default()
        }
    }

    fn run_module(m: &Module, input: &ProgInput) -> ExecResult {
        assert_verified(m);
        let cfg = ExecConfig {
            profile: true,
            ..ExecConfig::default()
        };
        Interp::new(m, cfg).run(input)
    }

    /// sum of 0..n via a loop with a memory accumulator
    fn sum_module() -> Module {
        let mut mb = ModuleBuilder::new("sum");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let head = fb.new_block("head");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let n = fb.arg_i(0i64);
        let slot = fb.alloc(2i64); // [i, acc]
        fb.store(slot, 0i64, 0i64);
        fb.store(slot, 1i64, 0i64);
        fb.br(head);
        fb.switch_to(head);
        let i = fb.load(Ty::I64, slot, 0i64);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let acc = fb.load(Ty::I64, slot, 1i64);
        let acc2 = fb.add(Ty::I64, acc, i);
        fb.store(slot, 1i64, acc2);
        let i2 = fb.add(Ty::I64, i, 1i64);
        fb.store(slot, 0i64, i2);
        fb.br(head);
        fb.switch_to(exit);
        let fin = fb.load(Ty::I64, slot, 1i64);
        fb.out_i(fin);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    }

    /// fib(n) recursive — exercises the call-return injection point
    fn fib_module() -> Module {
        let mut mb = ModuleBuilder::new("fib");
        let main = mb.declare("main", vec![], None);
        let fib = mb.declare("fib", vec![Ty::I64], Some(Ty::I64));
        let mut fb = mb.body(fib);
        let rec = fb.new_block("rec");
        let basecase = fb.new_block("base");
        let n = fb.param(0);
        let c = fb.cmp(CmpOp::Lt, n, 2i64);
        fb.cond_br(c, basecase, rec);
        fb.switch_to(basecase);
        fb.ret(n);
        fb.switch_to(rec);
        let n1 = fb.sub(Ty::I64, n, 1i64);
        let n2 = fb.sub(Ty::I64, n, 2i64);
        let a = fb.call(fib, Some(Ty::I64), vec![n1.into()]);
        let b = fb.call(fib, Some(Ty::I64), vec![n2.into()]);
        let s = fb.add(Ty::I64, a, b);
        fb.ret(s);
        mb.define(fb);
        let mut fb = mb.body(main);
        let x = fb.arg_i(0i64);
        let v = fb.call(fib, Some(Ty::I64), vec![x.into()]);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    }

    #[test]
    fn loop_sum_produces_expected_output() {
        let m = sum_module();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::I(10)]));
        assert!(r.exited());
        assert_eq!(r.output.items, vec![crate::value::OutputItem::I(45)]);
    }

    #[test]
    fn profile_counts_loop_iterations() {
        let m = sum_module();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::I(10)]));
        let p = r.profile.unwrap();
        // body block (id 2) entered exactly 10 times
        assert_eq!(p.block_counts[2], 10);
        // head entered 11 times (10 iterations + final test)
        assert_eq!(p.block_counts[1], 11);
        assert_eq!(p.inst_counts.iter().sum::<u64>(), r.steps);
        assert!(p.inst_cycles(&m).iter().sum::<u64>() > 0);
    }

    #[test]
    fn recursion_works_and_depth_is_limited() {
        let m = fib_module();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::I(12)]));
        assert!(r.exited());
        assert_eq!(r.output.items, vec![crate::value::OutputItem::I(144)]);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let a = fb.arg_i(0i64);
        let d = fb.div(Ty::I64, 10i64, a);
        fb.out_i(d);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::I(0)]));
        assert_eq!(r.termination, Termination::Trap(TrapKind::DivByZero));
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let p = fb.alloc(4i64);
        let v = fb.load(Ty::I64, p, 100i64);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::default());
        assert_eq!(r.termination, Termination::Trap(TrapKind::OutOfBounds));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let l = fb.new_block("l");
        fb.br(l);
        fb.switch_to(l);
        fb.br(l);
        mb.define(fb);
        let m = mb.finish();
        let cfg = ExecConfig {
            step_limit: 1000,
            ..ExecConfig::default()
        };
        let r = Interp::new(&m, cfg).run(&ProgInput::default());
        assert_eq!(r.termination, Termination::StepLimit);
        assert!(r.steps <= 1001);
    }

    #[test]
    fn check_detects_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let a = fb.add(Ty::I64, 1i64, 2i64);
        let b = fb.add(Ty::I64, 1i64, 2i64);
        // manually insert a check; without a fault both sides agree
        fb.check(a, b);
        fb.out_i(a);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::default());
        assert!(r.exited(), "no fault -> check passes");

        // fault on the first add: check must fire
        let cfg = ExecConfig::default();
        let fault = FaultSpec {
            target: FaultTarget::NthOfInst(
                GlobalInstId {
                    func: FuncId(0),
                    inst: InstId(0),
                },
                0,
            ),
            bit: 5,
        };
        let r = Interp::new(&m, cfg).run_with_fault_in(
            &mut ExecScratch::default(),
            &ProgInput::default(),
            fault,
        );
        assert!(r.fault_applied);
        assert_eq!(r.termination, Termination::Detected);
    }

    #[test]
    fn whole_program_fault_changes_output() {
        let m = sum_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(10)]);
        let golden = interp.run(&input);
        // hit the accumulator add (flip a low bit of some execution)
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(20),
            bit: 3,
        };
        let faulty = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        assert!(faulty.fault_applied);
        // outcome is input- and site-dependent; it must be *some* deviation
        // or a masked (equal-output) run, never a panic
        if faulty.termination == Termination::Exit {
            // either masked or SDC — both are legitimate
            let _ = faulty.output == golden.output;
        }
    }

    #[test]
    fn fault_past_end_of_trace_never_fires() {
        let m = sum_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(3)]);
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(1_000_000),
            bit: 0,
        };
        let r = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        assert!(!r.fault_applied);
        assert!(r.exited());
    }

    #[test]
    fn call_return_values_are_injectable() {
        // main calls sq(x) and prints it: a fault aimed at the call
        // instruction must flip the *returned* value
        let mut mb = ModuleBuilder::new("call-fi");
        let main = mb.declare("main", vec![], None);
        let sq = mb.declare("sq", vec![Ty::I64], Some(Ty::I64));
        let mut fb = mb.body(sq);
        let p = fb.param(0);
        let r = fb.mul(Ty::I64, p, p);
        fb.ret(r);
        mb.define(fb);
        let mut fb = mb.body(main);
        let v = fb.call(sq, Some(Ty::I64), vec![6i64.into()]);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();

        // locate the call instruction (function 0, the first instruction)
        let call_gid = GlobalInstId {
            func: FuncId(0),
            inst: InstId(0),
        };
        assert!(m.inst(call_gid).injectable());
        let interp = Interp::new(&m, ExecConfig::default());
        let fault = FaultSpec {
            target: FaultTarget::NthOfInst(call_gid, 0),
            bit: 0,
        };
        let r = interp.run_with_fault_in(&mut ExecScratch::default(), &ProgInput::default(), fault);
        assert!(r.fault_applied, "call-return fault must fire");
        assert_eq!(
            r.output.items,
            vec![crate::value::OutputItem::I(37)],
            "36 with bit 0 flipped"
        );
    }

    #[test]
    fn injectable_exec_count_matches_between_golden_and_armed_runs() {
        // profile a run with calls; then aim a fault at the *last*
        // injectable execution — it must fire (the populations agree)
        let mut mb = ModuleBuilder::new("count-check");
        let main = mb.declare("main", vec![], None);
        let inc = mb.declare("inc", vec![Ty::I64], Some(Ty::I64));
        let mut fb = mb.body(inc);
        let p = fb.param(0);
        let r = fb.add(Ty::I64, p, 1i64);
        fb.ret(r);
        mb.define(fb);
        let mut fb = mb.body(main);
        let a = fb.call(inc, Some(Ty::I64), vec![1i64.into()]);
        let b = fb.call(inc, Some(Ty::I64), vec![a.into()]);
        fb.out_i(b);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();

        let cfg = ExecConfig {
            profile: true,
            ..ExecConfig::default()
        };
        let interp = Interp::new(&m, cfg);
        let golden = interp.run(&ProgInput::default());
        let pop = golden.profile.unwrap().injectable_execs;
        assert!(pop >= 4, "two adds + two call returns");
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(pop - 1),
            bit: 1,
        };
        let r = interp.run_with_fault_in(&mut ExecScratch::default(), &ProgInput::default(), fault);
        assert!(
            r.fault_applied,
            "last injectable execution must be reachable"
        );
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(pop),
            bit: 1,
        };
        let r = interp.run_with_fault_in(&mut ExecScratch::default(), &ProgInput::default(), fault);
        assert!(!r.fault_applied, "population is exactly `injectable_execs`");
    }

    #[test]
    fn fault_determinism() {
        let m = sum_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(25)]);
        let fault = FaultSpec {
            target: FaultTarget::NthDynamic(33),
            bit: 62,
        };
        let a = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        let b = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.output, b.output);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn salloc_locals_are_per_frame_and_freed() {
        // fact(n) with the accumulator held in a salloc slot per frame
        let mut mb = ModuleBuilder::new("fact");
        let main = mb.declare("main", vec![], None);
        let fact = mb.declare("fact", vec![Ty::I64], Some(Ty::I64));
        let mut fb = mb.body(fact);
        let rec = fb.new_block("rec");
        let basecase = fb.new_block("base");
        let n = fb.param(0);
        let slot = fb.salloc(1i64);
        fb.store(slot, 0i64, n);
        let c = fb.cmp(CmpOp::Le, n, 1i64);
        fb.cond_br(c, basecase, rec);
        fb.switch_to(basecase);
        fb.ret(1i64);
        fb.switch_to(rec);
        let n1 = fb.sub(Ty::I64, n, 1i64);
        let sub = fb.call(fact, Some(Ty::I64), vec![n1.into()]);
        // reload our own n from the slot: must be unclobbered by the call
        let mine = fb.load(Ty::I64, slot, 0i64);
        let r = fb.mul(Ty::I64, sub, mine);
        fb.ret(r);
        mb.define(fb);
        let mut fb = mb.body(main);
        let x = fb.arg_i(0i64);
        let v = fb.call(fact, Some(Ty::I64), vec![x.into()]);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::I(6)]));
        assert!(r.exited());
        assert_eq!(r.output.items, vec![crate::value::OutputItem::I(720)]);
    }

    #[test]
    fn dangling_salloc_pointer_traps_after_return() {
        // helper returns a pointer to its own stack slot; main dereferences
        // it after the frame died -> out of bounds
        let mut mb = ModuleBuilder::new("dangle");
        let main = mb.declare("main", vec![], None);
        let h = mb.declare("h", vec![], Some(Ty::Ptr));
        let mut fb = mb.body(h);
        let slot = fb.salloc(1i64);
        fb.store(slot, 0i64, 42i64);
        fb.ret(slot);
        mb.define(fb);
        let mut fb = mb.body(main);
        let p = fb.call(h, Some(Ty::Ptr), vec![]);
        let v = fb.load(Ty::I64, p, 0i64);
        fb.out_i(v);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::default());
        assert_eq!(r.termination, Termination::Trap(TrapKind::OutOfBounds));
    }

    #[test]
    fn float_pipeline_and_casts() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let x = fb.arg_f(0i64);
        let s = fb.un(UnOp::Sqrt, Ty::F64, x);
        let i = fb.cast(Ty::I64, s);
        fb.out_i(i);
        fb.out_f(s);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let r = run_module(&m, &ProgInput::scalars(vec![Scalar::F(16.0)]));
        assert!(r.exited());
        assert_eq!(
            r.output.items,
            vec![
                crate::value::OutputItem::I(4),
                crate::value::OutputItem::F(4.0)
            ]
        );
    }

    #[test]
    fn data_streams_are_readable_and_bounds_checked() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let n = fb.data_len(0);
        let v = fb.data_f(0, 1i64);
        fb.out_i(n);
        fb.out_f(v);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let input = ProgInput::new(vec![], vec![Stream::F(vec![1.0, 2.5])]);
        let r = run_module(&m, &input);
        assert!(r.exited());
        assert_eq!(
            r.output.items,
            vec![
                crate::value::OutputItem::I(2),
                crate::value::OutputItem::F(2.5)
            ]
        );

        // out-of-range read traps
        let input = ProgInput::new(vec![], vec![Stream::F(vec![1.0])]);
        let r = run_module(&m, &input);
        assert_eq!(
            r.termination,
            Termination::Trap(TrapKind::StreamOutOfBounds)
        );
    }

    // ---- checkpointing ----

    #[test]
    fn checkpointed_run_matches_plain_run() {
        for (m, input) in [
            (sum_module(), ProgInput::scalars(vec![Scalar::I(40)])),
            (fib_module(), ProgInput::scalars(vec![Scalar::I(12)])),
        ] {
            let interp = Interp::new(&m, ExecConfig::default());
            let plain = interp.run(&input);
            let (ckpt, store) = interp.run_with_checkpoint_store(&input, every(7));
            assert_eq!(plain.termination, ckpt.termination);
            assert_eq!(plain.output, ckpt.output);
            assert_eq!(plain.steps, ckpt.steps);
            assert!(!store.is_empty(), "run is long enough to snapshot");
            assert!(
                (1..store.len()).all(|i| store.steps_at(i - 1) < store.steps_at(i)),
                "snapshots are strictly ordered by step"
            );
        }
    }

    #[test]
    fn resume_is_bit_identical_for_dynamic_faults() {
        let m = fib_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(11)]);
        let (golden, store) = interp.run_with_checkpoint_store(&input, every(13));
        let mut scratch = ExecScratch::default();
        let pop = golden.steps; // upper bound on injectable execs
        let stride = (pop as usize / 40).max(1);
        for nth in (0..pop).step_by(stride) {
            for bit in [0u32, 62] {
                let fault = FaultSpec {
                    target: FaultTarget::NthDynamic(nth),
                    bit,
                };
                let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
                assert_eq!(cold.resumed_at, None, "cold runs report no restore");
                if let Some(i) = store.nearest_for_dynamic(nth) {
                    let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
                    assert_eq!(cold.termination, warm.termination, "nth={nth} bit={bit}");
                    assert_eq!(cold.output, warm.output, "nth={nth} bit={bit}");
                    assert_eq!(cold.steps, warm.steps, "nth={nth} bit={bit}");
                    assert_eq!(cold.fault_applied, warm.fault_applied);
                    assert_eq!(cold.ret, warm.ret);
                    // the per-restore telemetry surface: skipped prefix =
                    // the snapshot's step counter
                    assert_eq!(
                        warm.resumed_at,
                        Some(store.steps_at(i)),
                        "nth={nth} bit={bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_is_bit_identical_for_per_inst_faults() {
        // per-instruction targeting across call boundaries: the fib calls'
        // return values count at the call's dense index. A flipped argument
        // can blow fib up exponentially, so cap the hang budget (the cap
        // applies identically to cold and resumed runs).
        let m = fib_module();
        let interp = Interp::new(
            &m,
            ExecConfig {
                step_limit: 200_000,
                ..ExecConfig::default()
            },
        );
        let input = ProgInput::scalars(vec![Scalar::I(10)]);
        let (_, store) = interp.run_with_checkpoint_store(&input, every(9));
        let mut scratch = ExecScratch::default();
        for f in 0..m.funcs.len() {
            for i in 0..m.funcs[f].insts.len() {
                let gid = GlobalInstId {
                    func: FuncId(f as u32),
                    inst: InstId(i as u32),
                };
                if !m.inst(gid).injectable() {
                    continue;
                }
                let dense = interp.dense_index(gid);
                for nth in [0u64, 3, 11] {
                    let fault = FaultSpec {
                        target: FaultTarget::NthOfInst(gid, nth),
                        bit: 7,
                    };
                    let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
                    if let Some(i) = store.nearest_for_inst(dense, nth) {
                        let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
                        assert_eq!(cold.termination, warm.termination, "gid={gid:?} nth={nth}");
                        assert_eq!(cold.output, warm.output, "gid={gid:?} nth={nth}");
                        assert_eq!(cold.steps, warm.steps, "gid={gid:?} nth={nth}");
                        assert_eq!(cold.fault_applied, warm.fault_applied);
                    }
                }
            }
        }
    }

    #[test]
    fn resume_from_reuses_scratch_state() {
        let m = sum_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(30)]);
        let (_, store) = interp.run_with_checkpoint_store(&input, every(11));
        let mut scratch = ExecScratch::default();
        // back-to-back resumes into the same scratch must stay independent
        for nth in [5u64, 50, 20] {
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: 4,
            };
            let cold = interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault);
            if let Some(i) = store.nearest_for_dynamic(nth) {
                let warm = interp.resume_from(&mut scratch, &store, i, &input, fault);
                assert_eq!(cold.termination, warm.termination);
                assert_eq!(cold.output, warm.output);
                assert_eq!(cold.steps, warm.steps);
            }
        }
    }

    /// `resume_from` takes any store, one decoded from a wire image
    /// included, and the loop reads registers and code unchecked: a
    /// checkpoint whose frames are not this module's is refused at the
    /// restore, in release builds too.
    #[test]
    fn a_checkpoint_that_does_not_fit_the_module_is_refused() {
        use crate::snapshot::{SnapBody, SnapshotMode};
        // locals that are assigned to live in stack slots
        let src = "fn rec(x: int) -> int {\n    let y = x;\n    y = y * 2;\n    \
                   if x <= 1 { return y; }\n    return rec(x - 1) + y;\n}\n\
                   fn main() { let a = 2; a = a + 1; out_i(rec(6) + a); }\n";
        let m = minic::compile(src, "misfit").unwrap();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::default();
        let cfg = CheckpointConfig {
            mode: SnapshotMode::Full,
            ..every(5)
        };
        let (_, store) = interp.run_with_checkpoint_store(&input, cfg);
        let state_of = |store: &CheckpointStore, i: usize| match &store.entries[i].body {
            SnapBody::Key(snap) => snap.state.clone(),
            SnapBody::Delta(_) => unreachable!("a full store holds keyframes only"),
        };
        let deep = (0..store.len())
            .max_by_key(|&i| state_of(&store, i).frames.len())
            .unwrap();
        let depth = state_of(&store, deep).frames.len();
        assert!(depth >= 4, "{depth} frames");
        let never = FaultSpec {
            target: FaultTarget::NthDynamic(u64::MAX),
            bit: 0,
        };
        type Edit<'a> = &'a dyn Fn(&mut MachineState);
        let resume = |edit: Edit| {
            let mut store = store.clone();
            match &mut store.entries[deep].body {
                SnapBody::Key(snap) => edit(&mut snap.state),
                SnapBody::Delta(_) => unreachable!("a full store holds keyframes only"),
            }
            std::panic::catch_unwind(|| {
                interp.resume_from(&mut ExecScratch::default(), &store, deep, &input, never)
            })
            .map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
        };
        assert!(resume(&|_| {})
            .expect("the checkpoint as captured fits")
            .exited());
        let misfits: [(&str, Edit); 7] = [
            ("one register too few", &|st| {
                st.frames[1].regs.pop();
            }),
            ("a position past its block", &|st| {
                st.frames.last_mut().unwrap().pos = 10_000
            }),
            ("a position that wraps", &|st| {
                st.frames.last_mut().unwrap().pos = usize::MAX
            }),
            ("a suspended frame not at a call", &|st| {
                st.frames[1].pos -= 1
            }),
            ("a shortened stack", &|st| {
                let keep = st.frames.last().unwrap().sp_base - 1;
                st.stack_mem.truncate(keep)
            }),
            ("a stack base below the caller's", &|st| {
                st.frames.last_mut().unwrap().sp_base = 0
            }),
            ("no frame", &|st| st.frames.clear()),
        ];
        for (what, edit) in misfits {
            let refused = resume(edit).expect_err(what);
            assert!(
                refused.contains("do not fit the decoded module"),
                "{what}: {refused}"
            );
        }
    }

    #[test]
    fn nearest_snapshot_selection_is_safe() {
        let m = fib_module();
        let interp = Interp::new(&m, ExecConfig::default());
        let input = ProgInput::scalars(vec![Scalar::I(10)]);
        let (_, store) = interp.run_with_checkpoint_store(&input, every(10));
        // a snapshot chosen for nth must not have passed the event yet
        for nth in 0..60u64 {
            if let Some(i) = store.nearest_for_dynamic(nth) {
                assert!(store.inj_ctr_at(i) <= nth);
            }
        }
        // events before the first snapshot's counter have no safe snapshot
        let first = store.inj_ctr_at(0);
        if first > 0 {
            assert!(store.nearest_for_dynamic(first - 1).is_none() || first == 0);
        }
    }
}
