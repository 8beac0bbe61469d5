//! Pre-decoded dispatch: the one execution engine.
//!
//! A tree walk over the IR (the reference [`crate::oracle`]) re-derives
//! everything per step: frame → function → block → inst-id → inst → dense
//! index is a chain of six dependent loads before the opcode match even
//! starts. Fault-injection campaigns execute billions of steps on replayed
//! suffixes and the input search profiles every candidate, so
//! [`Interp::new`] lowers the module once into a flat [`DecodedModule`]:
//! one contiguous `Vec<DInst>` per function, indexed by a single program
//! counter, with
//!
//! * operands pre-resolved to dense register indices or immediate values
//!   ([`Opd`]) — no `Operand::Value(id)` indirection at run time;
//! * per-op static metadata (destination register, dense module-wide
//!   index, injectability) baked into the [`DInst`] — no side-table loads;
//! * binary/compare ops specialized by the *static* types of their
//!   operands (`BinII`, `CmpFF`, …), falling back to the generic pair
//!   match when types are mixed or unknown. Specialized ops still verify
//!   the runtime variant, so semantics — including every trap — are
//!   bit-identical to the reference tree walk;
//! * eight hot instruction windows carried by one superinstruction each
//!   ([`DOp::CmpBr`] … [`DOp::LoadBin`]): the set whose removal measures,
//!   all of it named by one matcher, `try_fuse`.
//!
//! ## Superinstruction layout and snapshot resume
//!
//! Fusion must not disturb the pc ↔ (block, pos) mapping, because
//! snapshots store frame positions in (block, pos) form and a resumed run
//! may land *between* the halves of a window. So a fused window emits the
//! superinstruction at the first instruction's pc **and** a standalone
//! copy of every later instruction at its own pc; block lengths are
//! unchanged and `pc = block_entry[block] + pos` stays plain arithmetic.
//! The fused op advances the pc by its width (or branches); only a
//! snapshot resume ever enters a standalone copy. Jump targets are always
//! block starts, so no branch can land inside a window. Which windows
//! fuse is therefore invisible outside `code`: a checkpoint captured
//! under one fusion set restores under any other.
//!
//! Fused ops replicate the reference per-instruction sequence for *each*
//! half: step increment, step-limit check, operand traps,
//! injection counting, fault application, register write — in that order —
//! so step counts, injection indices and trap points are bit-identical.
//!
//! ## Slot addressing, and the two lowerings
//!
//! The front end keeps a function's mutable locals in one `salloc` at the
//! top of its entry block, so over a third of all dynamic instructions are
//! a load or store at a constant index into it: an address — frame stack
//! base plus a constant — the decoder already knows. [`slot_offsets`] finds
//! those halves and the *slotted* lowering addresses them directly
//! (`ptr = `[`SLOT`], `idx` = the word offset; see `load_word!`), skipping
//! two register fetches, the tag test, the checked add and the range
//! compare. That is exact while every `salloc` register holds the pointer
//! its `salloc` produced, which only a fault *into a `salloc` result*
//! breaks. So [`decode_module`] also keeps the *generic* lowering — same
//! slots, same fusion, same constant pool, every address computed from
//! its operands — and a run moves onto it as soon as it may hold a
//! corrupted slot pointer: the clean phase after a flip of a `salloc`
//! result, a run entered with the fault already applied, and every
//! observed run that carries a fault (it never hands off). Nothing but
//! `code` differs between the two, so pcs, snapshots, digests and
//! observers cannot tell them apart.
//!
//! ## Observers
//!
//! The loop is monomorphized four ways (see [`exec_loop`]), over whether
//! it is *armed* (counts value productions, fires the fault) and whether
//! it is *observed*. The observed instantiations carry the profile, trace
//! and checkpoint-capture observers of [`crate::observe`]; the unarmed
//! one is what every golden run and every GA candidate evaluation
//! executes on, and the injection counts those need are derived from the
//! observers' own counters. The other two compile the observers out. A
//! fifth, the *proving* loop, is the clean one plus a visit at the latch
//! of every counted loop the decoder found (`hang.rs`): what a faulty run
//! finishes on once it has passed the golden run's length.
//!
//! ## The scratch arena
//!
//! [`ExecScratch`] owns everything a decoded run mutates: the canonical
//! [`MachineState`] (linear memories, output, counters) plus flat decoded
//! frames — one shared register arena and one shared argument arena for
//! the whole call stack, grown on call and truncated on return. Resetting
//! it between injections is `clear()`s and a `clone_from`, never a fresh
//! allocation — given the output buffer each result carries away is
//! handed back ([`ExecScratch::recycle_output`]) — which is what makes
//! per-worker scratch pay off in campaigns (see `CampaignEngine`).
//!
//! [`Interp::run`]: crate::Interp::run
//! [`Interp::new`]: crate::Interp::new

use crate::converge::{Converge, ConvergeStats, DecodedView};
use crate::exec::{
    bit_equal, cmp_ord, ExecResult, Interp, MachineState, Run, Start, Termination, TraceEvent,
    TrapKind, STACK_TAG,
};
use crate::fault::{flip_bit, FaultSpec, FaultTarget};
use crate::hang::{HangProof, Latch};
use crate::observe::Observers;
use crate::snapshot::{CheckpointCollector, CheckpointStore};
use crate::value::{Output, Scalar, Stream, Value};
use minpsid_ir::{BinOp, CmpOp, Function, InstKind, Module, Operand, Ty, UnOp};

/// A pre-resolved operand: a register of the frame's arena, as its byte
/// offset from the frame's first register ([`OPD_SCALE`] × its index).
/// Indices below the function's instruction count name registers (the
/// producing instruction's index); the slots after them hold the
/// function's interned constants, materialized at frame entry. Operand
/// fetch is therefore a single load at frame base + operand — no
/// immediate-vs-register branch and no index scaling in the hot loop.
pub(crate) type Opd = u32;

/// What decode multiplies every register operand and destination by: the
/// size of a register. x86 addressing scales an index by 1, 2, 4 or 8
/// only, so an index into 16-byte registers would cost a shift on every
/// operand fetch and every register write; a byte offset costs nothing.
pub(crate) const OPD_SCALE: u32 = 16;
const _: () = assert!(OPD_SCALE as usize == std::mem::size_of::<Value>());

/// In the `ptr` field of a load/store half: the half is slot-addressed and
/// its `idx` field is the word offset from the frame's stack base, not an
/// operand. Operands are multiples of [`OPD_SCALE`], so none is this.
pub(crate) const SLOT: Opd = u32::MAX;

/// Which specialized comparison a fused [`DOp::CmpBr`] performs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpKind {
    II,
    FF,
    BB,
    Any,
}

/// A decoded operation. Control operands (`Br`/`CondBr`/`CmpBr` targets)
/// are pre-resolved to pcs; `Call` callees to function indices.
#[derive(Debug, Clone)]
pub(crate) enum DOp {
    Param {
        n: u32,
    },
    BinII {
        op: BinOp,
        a: Opd,
        b: Opd,
    },
    BinFF {
        op: BinOp,
        a: Opd,
        b: Opd,
    },
    BinAny {
        op: BinOp,
        a: Opd,
        b: Opd,
    },
    Un {
        op: UnOp,
        a: Opd,
    },
    CmpII {
        op: CmpOp,
        a: Opd,
        b: Opd,
    },
    CmpFF {
        op: CmpOp,
        a: Opd,
        b: Opd,
    },
    CmpBB {
        op: CmpOp,
        a: Opd,
        b: Opd,
    },
    CmpAny {
        op: CmpOp,
        a: Opd,
        b: Opd,
    },
    Select {
        c: Opd,
        t: Opd,
        e: Opd,
    },
    Cast {
        to: Ty,
        a: Opd,
    },
    Alloc {
        n: Opd,
    },
    Salloc {
        n: Opd,
    },
    Load {
        ty: Ty,
        ptr: Opd,
        idx: Opd,
    },
    Store {
        ptr: Opd,
        idx: Opd,
        v: Opd,
    },
    Call {
        callee: u32,
        args: Box<[Opd]>,
    },
    NArgs,
    ArgI {
        n: Opd,
    },
    ArgF {
        n: Opd,
    },
    DataLen {
        stream: u32,
    },
    DataI {
        stream: u32,
        idx: Opd,
    },
    DataF {
        stream: u32,
        idx: Opd,
    },
    OutI {
        v: Opd,
    },
    OutF {
        v: Opd,
    },
    Check {
        a: Opd,
        b: Opd,
    },
    Br {
        target: u32,
    },
    CondBr {
        c: Opd,
        t: u32,
        e: u32,
    },
    Ret {
        v: Option<Opd>,
    },
    /// Fused compare + conditional branch. Metadata in the carrying
    /// [`DInst`] belongs to the compare; the branch half is control-only.
    CmpBr {
        kind: CmpKind,
        op: CmpOp,
        a: Opd,
        b: Opd,
        t: u32,
        e: u32,
    },
    /// Fused run of four loads: reduction bodies interleave slot reads
    /// and element reads (`s, i, a[i], i`) into long load runs. Carries
    /// the first load; the other three execute from their standalone
    /// slots at `pc + 1 .. pc + 3` (inline they would hold [`DInst`] at
    /// 96 bytes, a stride x86 cannot scale). Each half's address
    /// operands are fetched after the previous halves' results are
    /// written, so loads may feed later addresses.
    Load4 {
        ty: Ty,
        ptr: Opd,
        idx: Opd,
    },
    /// Fused slot-load + compare + conditional branch: every loop head
    /// (`while i_slot < n`) is this exact triple. Load metadata on the
    /// carrying [`DInst`]; compare metadata carried here; the branch half
    /// is control-only.
    LoadCmpBr {
        ty: Ty,
        ptr: Opd,
        idx: Opd,
        kind: CmpKind,
        op: CmpOp,
        a: Opd,
        b: Opd,
        t: u32,
        e: u32,
        cmp_dst: u32,
        cmp_dense: u32,
        cmp_inj: bool,
    },
    /// Fused load + load + binary op: the dominant three-instruction
    /// window of compiled loop bodies (`a[i]`, `b[i]`, combine). The
    /// second load's address operands are fetched after the first's
    /// result is written, so indirect chains (`x[idx[k]]`) fuse
    /// correctly; the bin executes from its typed standalone slot at
    /// `pc + 2` (a bounded tag check instead of a full dispatch round).
    LoadLoadBin {
        ty1: Ty,
        ptr1: Opd,
        idx1: Opd,
        ty2: Ty,
        ptr2: Opd,
        idx2: Opd,
        ld_dst: u32,
        ld_dense: u32,
        ld_inj: bool,
    },
    /// Fused load + binary op + binary op (a load feeding a multiply
    /// feeding an accumulate). Carries the load and first bin as
    /// [`DOp::LoadBin`] plus the second bin's operands inline.
    LoadBinBin {
        ty: Ty,
        op: BinOp,
        ptr: Opd,
        idx: Opd,
        other: Opd,
        load_lhs: bool,
        bin_dst: u32,
        bin_dense: u32,
        bin_inj: bool,
        op2: BinOp,
        a2: Opd,
        b2: Opd,
        bin2_dst: u32,
        bin2_dense: u32,
        bin2_inj: bool,
    },
    /// Fused load + binary op + store + unconditional branch: the loop
    /// latch (`i = i + 1; br head`) of every compiled loop. All four
    /// halves carry their operands inline — no chained-slot fetches —
    /// because this is the single hottest superinstruction in compiled
    /// loops and each chained slot would touch another code cache line.
    LoadBinStoreBr {
        ty: Ty,
        ptr: Opd,
        idx: Opd,
        op: BinOp,
        a: Opd,
        b: Opd,
        bin_dst: u32,
        bin_dense: u32,
        bin_inj: bool,
        st_ptr: Opd,
        st_idx: Opd,
        st_v: Opd,
        target: u32,
    },
    /// Fused store + unconditional branch (block tails like
    /// `i_slot = t; br head`). Control-only second half.
    StoreBr {
        ptr: Opd,
        idx: Opd,
        v: Opd,
        target: u32,
    },
    /// Fused load + binary op. Metadata in the carrying [`DInst`] belongs
    /// to the load; the bin half's is carried here.
    LoadBin {
        ty: Ty,
        op: BinOp,
        ptr: Opd,
        idx: Opd,
        /// The bin operand that is not the load result. When both bin
        /// operands are the load result this is `R(load_dst)`, read back
        /// after the (possibly faulted) load value is written.
        other: Opd,
        /// True when the load result is the bin's *lhs*.
        load_lhs: bool,
        bin_dst: u32,
        bin_dense: u32,
        bin_inj: bool,
    },
}

/// Display names for every [`DOp`] kind, indexed by [`DOp::index`].
/// Declaration order of the enum, fused superinstructions last. The enum,
/// this table, [`DOp::index`] and [`DOp::width`] are kept equal by the
/// unit test `every_op_kind_is_declared_once`.
pub(crate) const OP_NAMES: [&str; 36] = [
    "Param",
    "BinII",
    "BinFF",
    "BinAny",
    "Un",
    "CmpII",
    "CmpFF",
    "CmpBB",
    "CmpAny",
    "Select",
    "Cast",
    "Alloc",
    "Salloc",
    "Load",
    "Store",
    "Call",
    "NArgs",
    "ArgI",
    "ArgF",
    "DataLen",
    "DataI",
    "DataF",
    "OutI",
    "OutF",
    "Check",
    "Br",
    "CondBr",
    "Ret",
    "CmpBr",
    "Load4",
    "LoadCmpBr",
    "LoadLoadBin",
    "LoadBinBin",
    "LoadBinStoreBr",
    "StoreBr",
    "LoadBin",
];

impl DOp {
    /// Stable profiling index of this op kind: its position in
    /// [`OP_NAMES`] (enum declaration order).
    #[inline]
    pub(crate) fn index(&self) -> usize {
        match self {
            DOp::Param { .. } => 0,
            DOp::BinII { .. } => 1,
            DOp::BinFF { .. } => 2,
            DOp::BinAny { .. } => 3,
            DOp::Un { .. } => 4,
            DOp::CmpII { .. } => 5,
            DOp::CmpFF { .. } => 6,
            DOp::CmpBB { .. } => 7,
            DOp::CmpAny { .. } => 8,
            DOp::Select { .. } => 9,
            DOp::Cast { .. } => 10,
            DOp::Alloc { .. } => 11,
            DOp::Salloc { .. } => 12,
            DOp::Load { .. } => 13,
            DOp::Store { .. } => 14,
            DOp::Call { .. } => 15,
            DOp::NArgs => 16,
            DOp::ArgI { .. } => 17,
            DOp::ArgF { .. } => 18,
            DOp::DataLen { .. } => 19,
            DOp::DataI { .. } => 20,
            DOp::DataF { .. } => 21,
            DOp::OutI { .. } => 22,
            DOp::OutF { .. } => 23,
            DOp::Check { .. } => 24,
            DOp::Br { .. } => 25,
            DOp::CondBr { .. } => 26,
            DOp::Ret { .. } => 27,
            DOp::CmpBr { .. } => 28,
            DOp::Load4 { .. } => 29,
            DOp::LoadCmpBr { .. } => 30,
            DOp::LoadLoadBin { .. } => 31,
            DOp::LoadBinBin { .. } => 32,
            DOp::LoadBinStoreBr { .. } => 33,
            DOp::StoreBr { .. } => 34,
            DOp::LoadBin { .. } => 35,
        }
    }

    /// How many instructions the op executes — the window a
    /// superinstruction carries; 1 for a plain op. [`decode_func`] lays
    /// the window out from it and the op's arm advances the pc by it
    /// (or branches).
    pub(crate) fn width(&self) -> usize {
        match self {
            DOp::Load4 { .. } | DOp::LoadBinStoreBr { .. } => 4,
            DOp::LoadCmpBr { .. } | DOp::LoadLoadBin { .. } | DOp::LoadBinBin { .. } => 3,
            DOp::CmpBr { .. } | DOp::StoreBr { .. } | DOp::LoadBin { .. } => 2,
            _ => 1,
        }
    }

    /// The load/store halves this op carries inline, as `(offset from the
    /// carrying slot, pointer operand, index operand)`. A half that a
    /// superinstruction executes from its standalone slot is that slot's
    /// own.
    fn for_each_mem_half(&mut self, mut f: impl FnMut(usize, &mut Opd, &mut Opd)) {
        match self {
            DOp::Load { ptr, idx, .. }
            | DOp::Store { ptr, idx, .. }
            | DOp::StoreBr { ptr, idx, .. }
            | DOp::LoadCmpBr { ptr, idx, .. }
            | DOp::LoadBinBin { ptr, idx, .. }
            | DOp::Load4 { ptr, idx, .. }
            | DOp::LoadBin { ptr, idx, .. } => f(0, ptr, idx),
            DOp::LoadLoadBin {
                ptr1,
                idx1,
                ptr2,
                idx2,
                ..
            } => {
                f(0, ptr1, idx1);
                f(1, ptr2, idx2);
            }
            DOp::LoadBinStoreBr {
                ptr,
                idx,
                st_ptr,
                st_idx,
                ..
            } => {
                f(0, ptr, idx);
                f(2, st_ptr, st_idx);
            }
            DOp::Param { .. }
            | DOp::BinII { .. }
            | DOp::BinFF { .. }
            | DOp::BinAny { .. }
            | DOp::Un { .. }
            | DOp::CmpII { .. }
            | DOp::CmpFF { .. }
            | DOp::CmpBB { .. }
            | DOp::CmpAny { .. }
            | DOp::Select { .. }
            | DOp::Cast { .. }
            | DOp::Alloc { .. }
            | DOp::Salloc { .. }
            | DOp::Call { .. }
            | DOp::NArgs
            | DOp::ArgI { .. }
            | DOp::ArgF { .. }
            | DOp::DataLen { .. }
            | DOp::DataI { .. }
            | DOp::DataF { .. }
            | DOp::OutI { .. }
            | DOp::OutF { .. }
            | DOp::Check { .. }
            | DOp::Br { .. }
            | DOp::CondBr { .. }
            | DOp::Ret { .. }
            | DOp::CmpBr { .. } => {}
        }
    }
}

/// One decoded instruction slot: the op plus the static per-instruction
/// metadata the oracle looks up per step. 64 bytes, so that the loop's
/// `code[pc]` is one shift and an add (a unit test pins the size).
#[derive(Debug, Clone)]
pub(crate) struct DInst {
    pub(crate) op: DOp,
    /// Destination register, scaled like an [`Opd`]; `u32::MAX` for void
    /// ops (never written).
    pub(crate) dst: u32,
    /// Dense module-wide index (fault targeting, injection counting).
    pub(crate) dense: u32,
    pub(crate) inj: bool,
}

/// One decoded function: flat code, block-entry pcs, register count.
#[derive(Debug, Clone)]
pub(crate) struct DFunc {
    pub(crate) code: Vec<DInst>,
    /// `pc_of(block, pos) = block_entry[block] + pos`: every instruction
    /// keeps its own slot (fusion emits a standalone second-half copy),
    /// so the mapping from canonical frame positions is plain arithmetic.
    pub(crate) block_entry: Vec<u32>,
    /// Frame arena size: instruction count plus `consts.len()`. The
    /// first `num_regs - consts.len()` slots are registers, the tail
    /// holds the materialized constant pool.
    pub(crate) num_regs: u32,
    /// Interned constants, copied into the arena tail at frame entry.
    pub(crate) consts: Vec<Value>,
    /// Code slots of all earlier functions: this function's base into
    /// module-wide per-slot tables (see [`crate::observe`]).
    pub(crate) slot_base: usize,
    /// The counted loops whose latches the proving loop visits, by pc
    /// (`hang.rs`). Slotted lowering only: the generic one proves nothing.
    pub(crate) latches: Vec<Latch>,
    /// Per register: holds a `salloc` result, the one stack pointer a
    /// state the hang proof accepts may hold.
    pub(crate) salloc_regs: Vec<bool>,
}

impl DFunc {
    /// The (block, position) of the instruction whose slot is `pc`: every
    /// instruction keeps its own slot, so the block is the last one
    /// entered at or before `pc`.
    pub(crate) fn locate(&self, pc: u32) -> (usize, usize) {
        let block = self.block_entry.partition_point(|&e| e <= pc) - 1;
        (block, (pc - self.block_entry[block]) as usize)
    }
}

/// One lowering of the whole module.
#[derive(Debug)]
pub(crate) struct DecodedModule {
    pub(crate) funcs: Vec<DFunc>,
    pub(crate) entry: u32,
}

/// The module lowered once, both ways, at [`Interp::new`] (see "Slot
/// addressing" in the module docs).
///
/// [`Interp::new`]: crate::Interp::new
#[derive(Debug)]
pub(crate) struct Lowered {
    /// Slot-addressed halves rewritten; what every run starts on.
    pub(crate) slotted: DecodedModule,
    /// Every address computed from its operands.
    pub(crate) generic: DecodedModule,
    /// Per static instruction (dense): a load or store the slotted
    /// lowering addresses at decode time.
    pub(crate) slot_addressed: Vec<bool>,
    /// Load and store instructions in the module's blocks.
    pub(crate) mem_halves: usize,
}

/// One decoded frame: bases into the shared [`ExecScratch`] arenas
/// instead of per-frame `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DFrame {
    pub(crate) func: u32,
    pub(crate) pc: u32,
    pub(crate) reg_base: usize,
    pub(crate) arg_base: usize,
    pub(crate) arg_len: usize,
    /// Stack-memory watermark to restore on return.
    pub(crate) sp_base: usize,
}

/// Reusable per-worker machine arena for decoded runs: the canonical
/// [`MachineState`] plus the flat frame/register/argument arenas. All
/// buffers survive across injections; resetting is `clear` + `clone_from`.
#[derive(Debug, Default)]
pub struct ExecScratch {
    pub(crate) st: MachineState,
    pub(crate) dframes: Vec<DFrame>,
    pub(crate) regs: Vec<Value>,
    pub(crate) args: Vec<Value>,
    /// The golden state a digest match is confirmed against (see
    /// [`crate::converge`]).
    shadow: MachineState,
    converge_stats: ConvergeStats,
    /// See [`ExecScratch::finished_on_generic`].
    on_generic: bool,
    /// What the observed loop records (see [`crate::observe`]).
    obs: Observers,
    /// The latch saves of the proving loop (`hang.rs`).
    hang: HangProof,
    /// What the last [`Start::Capture`] run captured.
    captured: Option<CheckpointStore>,
}

impl ExecScratch {
    /// Hand a finished run's output buffer back, so the next run on this
    /// scratch appends into it instead of allocating a new one. Every
    /// result moves its output out of the scratch; callers that are done
    /// with the result (a campaign, once the outcome is classified) return
    /// it here.
    pub fn recycle_output(&mut self, mut output: Output) {
        if output.items.capacity() > self.st.output.items.capacity() {
            output.items.clear();
            self.st.output = output;
        }
    }

    /// The checkpoint store the last [`Start::Capture`] run on this scratch
    /// captured, with the golden run's ending attached when it exited
    /// ([`CheckpointStore::attach_tail`]).
    ///
    /// # Panics
    /// If no capturing run left one here.
    pub fn take_checkpoints(&mut self) -> CheckpointStore {
        self.captured.take().expect("a capturing run left a store")
    }

    /// What the last run on this scratch spent looking for golden
    /// convergence (see [`Start::Beside`]).
    pub fn converge_stats(&self) -> ConvergeStats {
        self.converge_stats
    }

    /// Whether the last run on this scratch finished on the generic
    /// lowering, as a run that may hold a corrupted slot pointer must
    /// (tests hold the choice to exactly those runs).
    #[doc(hidden)]
    pub fn finished_on_generic(&self) -> bool {
        self.on_generic
    }

    /// Reset to the program entry point without touching capacity.
    pub(crate) fn start_decoded(&mut self, dm: &DecodedModule) {
        self.st.reset();
        self.dframes.clear();
        self.regs.clear();
        self.args.clear();
        let entry = &dm.funcs[dm.entry as usize];
        self.regs
            .resize(entry.num_regs as usize - entry.consts.len(), Value::Undef);
        self.regs.extend_from_slice(&entry.consts);
        self.dframes.push(DFrame {
            func: dm.entry,
            pc: entry.block_entry[0],
            reg_base: 0,
            arg_base: 0,
            arg_len: 0,
            sp_base: 0,
        });
    }

    /// Convert the restored canonical frames in `self.st` into decoded
    /// frames (a snapshot-resume entry point). The canonical frames stay
    /// in `st` untouched; the decoded run never reads them.
    ///
    /// The loop reads registers and code unchecked and addresses slots
    /// from `sp_base`, and the state may come from a decoded wire image,
    /// so the shape it relies on is checked here, once per restore.
    ///
    /// # Panics
    /// If the frames do not fit `dm`: no frame, a register file of the
    /// wrong size, a position outside its block, a suspended frame that is
    /// not at a call, or stack bases that decrease or pass the stack's end.
    pub(crate) fn enter_decoded(&mut self, dm: &DecodedModule) {
        const MISFIT: &str = "restored frames do not fit the decoded module";
        self.dframes.clear();
        self.regs.clear();
        self.args.clear();
        assert!(!self.st.frames.is_empty(), "{MISFIT}");
        let last = self.st.frames.len() - 1;
        let mut sp_floor = 0;
        for (i, f) in self.st.frames.iter().enumerate() {
            let df = &dm.funcs[f.func.index()];
            let block = f.block.index();
            let start = df.block_entry[block] as usize;
            let end = df
                .block_entry
                .get(block + 1)
                .map_or(df.code.len(), |&e| e as usize);
            assert!(
                f.regs.len() + df.consts.len() == df.num_regs as usize
                    && f.pos < end - start
                    && (i == last || matches!(df.code[start + f.pos].op, DOp::Call { .. }))
                    && sp_floor <= f.sp_base,
                "{MISFIT}"
            );
            sp_floor = f.sp_base;
            let reg_base = self.regs.len();
            let arg_base = self.args.len();
            // canonical frames carry register slots only; re-materialize
            // the const tail the decoded arena layout expects
            self.regs.extend_from_slice(&f.regs);
            self.regs.extend_from_slice(&df.consts);
            self.args.extend_from_slice(&f.args);
            self.dframes.push(DFrame {
                func: f.func.0,
                pc: (start + f.pos) as u32,
                reg_base,
                arg_base,
                arg_len: f.args.len(),
                sp_base: f.sp_base,
            });
        }
        assert!(sp_floor <= self.st.stack_mem.len(), "{MISFIT}");
    }
}

/// Static type of an operand: the defining instruction's declared type,
/// or the immediate's. `None` for untyped definitions (unverified
/// modules); decode then falls back to the generic op.
fn sty(f: &Function, o: &Operand) -> Option<Ty> {
    match o {
        Operand::Value(id) => f.insts[id.index()].ty,
        Operand::ConstI(_) => Some(Ty::I64),
        Operand::ConstF(_) => Some(Ty::F64),
        Operand::ConstB(_) => Some(Ty::Bool),
    }
}

/// Register `r` of a frame as an [`Opd`]: its byte offset.
fn scaled(r: u32) -> Opd {
    r.checked_mul(OPD_SCALE)
        .expect("a function's registers are byte-addressable in 32 bits")
}

/// Per-function operand-interning context. Registers resolve to their
/// instruction id; constants are deduplicated by tagged bit pattern
/// (`0.0` and `-0.0` stay distinct) into slots after the registers. Both
/// come out [`scaled`].
struct OpdCx {
    /// Instruction count of the function = index of the first const slot.
    ni: u32,
    pool: std::cell::RefCell<ConstPool>,
}

#[derive(Default)]
struct ConstPool {
    vals: Vec<Value>,
    ix: std::collections::HashMap<(u8, u64), u32>,
}

impl OpdCx {
    fn new(f: &Function) -> Self {
        OpdCx {
            ni: f.insts.len() as u32,
            pool: Default::default(),
        }
    }

    fn opd(&self, o: &Operand) -> Opd {
        scaled(match o {
            Operand::Value(id) => id.0,
            Operand::ConstI(c) => self.slot(0, *c as u64, Value::I(*c)),
            Operand::ConstF(c) => self.slot(1, c.to_bits(), Value::F(*c)),
            Operand::ConstB(c) => self.slot(2, *c as u64, Value::B(*c)),
        })
    }

    fn slot(&self, tag: u8, bits: u64, v: Value) -> u32 {
        let mut p = self.pool.borrow_mut();
        if let Some(&i) = p.ix.get(&(tag, bits)) {
            return self.ni + i;
        }
        let i = p.vals.len() as u32;
        p.vals.push(v);
        p.ix.insert((tag, bits), i);
        self.ni + i
    }
}

pub(crate) fn decode_module(m: &Module) -> Lowered {
    let mut generic: Vec<DFunc> = Vec::with_capacity(m.funcs.len());
    let mut slotted: Vec<DFunc> = Vec::with_capacity(m.funcs.len());
    let mut slot_addressed = vec![false; m.num_insts()];
    let mut mem_halves = 0;
    let mut dense_base = 0u32;
    let mut slot_base = 0usize;
    let offsets: Vec<_> = m.funcs.iter().map(slot_offsets).collect();
    let contained = crate::hang::sallocs_stay_in_slots(m, &offsets);
    let mut latch_ids = 0;
    for (f, offsets) in m.funcs.iter().zip(&offsets) {
        let df = decode_func(f, dense_base, slot_base);
        dense_base += f.insts.len() as u32;
        slot_base += df.code.len();
        mem_halves += f
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. } | InstKind::Store { .. }))
            .count();
        // the slotted lowering is the generic one with the slot-addressed
        // halves rewritten in place: layout, fusion and pool are shared
        // by construction
        let mut sf = df.clone();
        for pc in 0..sf.code.len() {
            sf.code[pc].op.for_each_mem_half(|half, ptr, idx| {
                if let Some(off) = offsets[pc + half] {
                    (*ptr, *idx) = (SLOT, off);
                    slot_addressed[df.code[pc + half].dense as usize] = true;
                }
            });
        }
        sf.latches = crate::hang::latches(f, offsets, contained, &mut latch_ids);
        generic.push(df);
        slotted.push(sf);
    }
    let lowering = |funcs| DecodedModule {
        funcs,
        entry: m.entry.0,
    };
    Lowered {
        slotted: lowering(slotted),
        generic: lowering(generic),
        slot_addressed,
        mem_halves,
    }
}

/// Per code slot of `f` (block order is code order): the word offset from
/// the frame's stack base that the load or store in that slot addresses,
/// when the decoder can know it. All four conditions are needed:
///
/// * the pointer is the result of a `salloc` with a non-negative constant
///   count in the entry block, with only such `salloc`s before it there —
///   a dynamic count ahead of it would shift it by a run-time amount;
/// * no branch targets the entry block — a second pass through it would
///   allocate the slot again, further up;
/// * the index is a constant inside the slot — an index past its end
///   lands in a neighbour, or out of bounds, and those are the operand
///   path's to decide;
/// * a use inside the entry block follows its `salloc` — before it the
///   register is still undefined and the access traps.
///
/// The entry block then runs exactly once per frame, before anything
/// else of the frame, so every such `salloc` register holds
/// `STACK_TAG | (sp_base + offset)` whenever a use executes. (Block
/// structure — one terminator, last; every instruction placed once — is
/// taken as given, as it is by the loop's unchecked code reads.)
fn slot_offsets(f: &Function) -> Vec<Option<u32>> {
    let mut offsets = vec![None; f.blocks.iter().map(|b| b.insts.len()).sum()];
    let entry_is_target = f.insts.iter().any(|inst| match &inst.kind {
        InstKind::Br { target } => target.index() == 0,
        InstKind::CondBr { then_b, else_b, .. } => then_b.index() == 0 || else_b.index() == 0,
        _ => false,
    });
    if entry_is_target {
        return offsets;
    }
    // (offset, count) of each slot the frame opens with, by instruction
    let mut frame: Vec<Option<(u32, u32)>> = vec![None; f.insts.len()];
    let mut top = 0u32;
    let mut open = true;
    let mut slot = 0;
    for (bi, b) in f.blocks.iter().enumerate() {
        open &= bi == 0;
        for id in &b.insts {
            match &f.insts[id.index()].kind {
                InstKind::Salloc { count } if open => {
                    let end = match count {
                        Operand::ConstI(c) => u32::try_from(*c)
                            .ok()
                            .and_then(|c| top.checked_add(c))
                            .filter(|&end| end < SLOT),
                        _ => None,
                    };
                    match end {
                        Some(end) => {
                            frame[id.index()] = Some((top, end - top));
                            top = end;
                        }
                        None => open = false,
                    }
                }
                InstKind::Load { ptr, idx, .. } | InstKind::Store { ptr, idx, .. } => {
                    if let (Operand::Value(p), Operand::ConstI(k)) = (ptr, idx) {
                        // inside the entry block `frame` holds only the
                        // slots allocated so far
                        offsets[slot] = frame[p.index()]
                            .filter(|&(_, count)| (0..i64::from(count)).contains(k))
                            .map(|(off, _)| off + *k as u32);
                    }
                }
                _ => {}
            }
            slot += 1;
        }
    }
    offsets
}

fn decode_func(f: &Function, dense_base: u32, slot_base: usize) -> DFunc {
    let cx = OpdCx::new(f);
    let mut block_entry = Vec::with_capacity(f.blocks.len());
    let mut pc = 0u32;
    for b in &f.blocks {
        block_entry.push(pc);
        pc += b.insts.len() as u32;
    }
    let mut code = Vec::with_capacity(pc as usize);
    for b in &f.blocks {
        let mut k = 0;
        while k < b.insts.len() {
            // the layout rule: whatever carries the window sits in its
            // first slot, and every later instruction of the window keeps
            // a standalone copy in its own
            let carrier = try_fuse(f, &cx, &block_entry, &b.insts[k..], dense_base)
                .unwrap_or_else(|| decode_inst(f, &cx, &block_entry, b.insts[k], dense_base));
            let width = carrier.op.width();
            code.push(carrier);
            for &iid in &b.insts[k + 1..k + width] {
                code.push(decode_inst(f, &cx, &block_entry, iid, dense_base));
            }
            k += width;
        }
    }
    let consts = cx.pool.into_inner().vals;
    DFunc {
        code,
        block_entry,
        num_regs: f.insts.len() as u32 + consts.len() as u32,
        consts,
        slot_base,
        latches: Vec::new(),
        salloc_regs: (f.insts.iter())
            .map(|i| matches!(i.kind, InstKind::Salloc { .. }))
            .collect(),
    }
}

/// The superinstruction that carries the instructions `window` opens
/// with, if one does. `window` is the rest of a block; a pattern covers
/// its own two to four instructions ([`DOp::width`]), the widest that
/// matches wins, and no two of one width match the same window. The set
/// is the one whose removal measured (EXPERIMENTS.md "The fusion table
/// earns its keep"): price a new pattern the same way before adding it.
///
/// No pattern needs a dependence restriction beyond the ones spelled out:
/// every half fetches its operands after the previous halves' writes.
fn try_fuse(
    f: &Function,
    cx: &OpdCx,
    block_entry: &[u32],
    window: &[minpsid_ir::InstId],
    dense_base: u32,
) -> Option<DInst> {
    let opd = |o: &Operand| cx.opd(o);
    let kind = |h: usize| window.get(h).map(|id| &f.insts[id.index()].kind);
    // (dst, dense, inj) of a later half, carried inline by the op
    let meta = |h: usize| {
        let id = window[h];
        (
            scaled(id.0),
            dense_base + id.0,
            f.insts[id.index()].injectable(),
        )
    };
    let is = |o: &Operand, h: usize| matches!(o, Operand::Value(id) if *id == window[h]);
    let cmp_kind = |lhs: &Operand, rhs: &Operand| match (sty(f, lhs), sty(f, rhs)) {
        (Some(Ty::I64), Some(Ty::I64)) => CmpKind::II,
        (Some(Ty::F64), Some(Ty::F64)) => CmpKind::FF,
        (Some(Ty::Bool), Some(Ty::Bool)) => CmpKind::BB,
        _ => CmpKind::Any,
    };
    let op = match (kind(0)?, kind(1)?, kind(2), kind(3)) {
        // the loop latch (`i = i + 1; br head`)
        (
            InstKind::Load { ptr, idx, ty },
            InstKind::Bin { op, lhs, rhs },
            Some(InstKind::Store {
                ptr: sp,
                idx: si,
                value: sv,
            }),
            Some(InstKind::Br { target }),
        ) => {
            let (bin_dst, bin_dense, bin_inj) = meta(1);
            DOp::LoadBinStoreBr {
                ty: *ty,
                ptr: opd(ptr),
                idx: opd(idx),
                op: *op,
                a: opd(lhs),
                b: opd(rhs),
                bin_dst,
                bin_dense,
                bin_inj,
                st_ptr: opd(sp),
                st_idx: opd(si),
                st_v: opd(sv),
                target: block_entry[target.index()],
            }
        }
        (
            InstKind::Load { ptr, idx, ty },
            InstKind::Load { .. },
            Some(InstKind::Load { .. }),
            Some(InstKind::Load { .. }),
        ) => DOp::Load4 {
            ty: *ty,
            ptr: opd(ptr),
            idx: opd(idx),
        },
        (
            InstKind::Load { ptr, idx, ty },
            InstKind::Cmp { op, lhs, rhs },
            Some(InstKind::CondBr {
                cond,
                then_b,
                else_b,
            }),
            _,
        ) if is(cond, 1) => {
            let (cmp_dst, cmp_dense, cmp_inj) = meta(1);
            DOp::LoadCmpBr {
                ty: *ty,
                ptr: opd(ptr),
                idx: opd(idx),
                kind: cmp_kind(lhs, rhs),
                op: *op,
                a: opd(lhs),
                b: opd(rhs),
                t: block_entry[then_b.index()],
                e: block_entry[else_b.index()],
                cmp_dst,
                cmp_dense,
                cmp_inj,
            }
        }
        (
            InstKind::Load {
                ptr: p1,
                idx: x1,
                ty: t1,
            },
            InstKind::Load {
                ptr: p2,
                idx: x2,
                ty: t2,
            },
            Some(InstKind::Bin { .. }),
            _,
        ) => {
            let (ld_dst, ld_dense, ld_inj) = meta(1);
            DOp::LoadLoadBin {
                ty1: *t1,
                ptr1: opd(p1),
                idx1: opd(x1),
                ty2: *t2,
                ptr2: opd(p2),
                idx2: opd(x2),
                ld_dst,
                ld_dense,
                ld_inj,
            }
        }
        // a bin of the load just before it, alone or feeding a second bin
        (InstKind::Load { ptr, idx, ty }, InstKind::Bin { op, lhs, rhs }, third, _)
            if is(lhs, 0) || is(rhs, 0) =>
        {
            let load_lhs = is(lhs, 0);
            let (ty, op, ptr, idx) = (*ty, *op, opd(ptr), opd(idx));
            let other = if load_lhs { opd(rhs) } else { opd(lhs) };
            let (bin_dst, bin_dense, bin_inj) = meta(1);
            match third {
                Some(InstKind::Bin {
                    op: op2,
                    lhs: l2,
                    rhs: r2,
                }) => {
                    let (bin2_dst, bin2_dense, bin2_inj) = meta(2);
                    DOp::LoadBinBin {
                        ty,
                        op,
                        ptr,
                        idx,
                        other,
                        load_lhs,
                        bin_dst,
                        bin_dense,
                        bin_inj,
                        op2: *op2,
                        a2: opd(l2),
                        b2: opd(r2),
                        bin2_dst,
                        bin2_dense,
                        bin2_inj,
                    }
                }
                _ => DOp::LoadBin {
                    ty,
                    op,
                    ptr,
                    idx,
                    other,
                    load_lhs,
                    bin_dst,
                    bin_dense,
                    bin_inj,
                },
            }
        }
        (
            InstKind::Cmp { op, lhs, rhs },
            InstKind::CondBr {
                cond,
                then_b,
                else_b,
            },
            ..,
        ) if is(cond, 0) => DOp::CmpBr {
            kind: cmp_kind(lhs, rhs),
            op: *op,
            a: opd(lhs),
            b: opd(rhs),
            t: block_entry[then_b.index()],
            e: block_entry[else_b.index()],
        },
        (InstKind::Store { ptr, idx, value }, InstKind::Br { target }, ..) => DOp::StoreBr {
            ptr: opd(ptr),
            idx: opd(idx),
            v: opd(value),
            target: block_entry[target.index()],
        },
        _ => return None,
    };
    Some(slot(f, window[0], dense_base, op))
}

/// The slot of instruction `iid` holding `op`: the static metadata the
/// oracle looks up per step.
fn slot(f: &Function, iid: minpsid_ir::InstId, dense_base: u32, op: DOp) -> DInst {
    let inst = &f.insts[iid.index()];
    // Calls keep their dst: the return value is written through the call
    // op's slot when the callee returns (see the `Ret` arm).
    let has_result = !matches!(
        inst.kind,
        InstKind::Store { .. }
            | InstKind::Check { .. }
            | InstKind::Br { .. }
            | InstKind::CondBr { .. }
            | InstKind::Ret { .. }
    );
    DInst {
        op,
        dst: if has_result { scaled(iid.0) } else { u32::MAX },
        dense: dense_base + iid.0,
        inj: inst.injectable(),
    }
}

fn decode_inst(
    f: &Function,
    cx: &OpdCx,
    block_entry: &[u32],
    iid: minpsid_ir::InstId,
    dense_base: u32,
) -> DInst {
    let opd = |o: &Operand| cx.opd(o);
    let inst = &f.insts[iid.index()];
    let op = match &inst.kind {
        InstKind::Param { n } => DOp::Param { n: *n },
        InstKind::Bin { op, lhs, rhs } => {
            let (a, b) = (opd(lhs), opd(rhs));
            match (sty(f, lhs), sty(f, rhs)) {
                (Some(Ty::I64), Some(Ty::I64)) => DOp::BinII { op: *op, a, b },
                (Some(Ty::F64), Some(Ty::F64)) => DOp::BinFF { op: *op, a, b },
                _ => DOp::BinAny { op: *op, a, b },
            }
        }
        InstKind::Un { op, arg } => DOp::Un {
            op: *op,
            a: opd(arg),
        },
        InstKind::Cmp { op, lhs, rhs } => {
            let (a, b) = (opd(lhs), opd(rhs));
            match (sty(f, lhs), sty(f, rhs)) {
                (Some(Ty::I64), Some(Ty::I64)) => DOp::CmpII { op: *op, a, b },
                (Some(Ty::F64), Some(Ty::F64)) => DOp::CmpFF { op: *op, a, b },
                (Some(Ty::Bool), Some(Ty::Bool)) => DOp::CmpBB { op: *op, a, b },
                _ => DOp::CmpAny { op: *op, a, b },
            }
        }
        InstKind::Select {
            cond,
            then_v,
            else_v,
        } => DOp::Select {
            c: opd(cond),
            t: opd(then_v),
            e: opd(else_v),
        },
        InstKind::Cast { to, arg } => DOp::Cast {
            to: *to,
            a: opd(arg),
        },
        InstKind::Alloc { count } => DOp::Alloc { n: opd(count) },
        InstKind::Salloc { count } => DOp::Salloc { n: opd(count) },
        InstKind::Load { ptr, idx, ty } => DOp::Load {
            ty: *ty,
            ptr: opd(ptr),
            idx: opd(idx),
        },
        InstKind::Store { ptr, idx, value } => DOp::Store {
            ptr: opd(ptr),
            idx: opd(idx),
            v: opd(value),
        },
        InstKind::Call { func, args } => DOp::Call {
            callee: func.0,
            args: args.iter().map(opd).collect(),
        },
        InstKind::NArgs => DOp::NArgs,
        InstKind::ArgI { n } => DOp::ArgI { n: opd(n) },
        InstKind::ArgF { n } => DOp::ArgF { n: opd(n) },
        InstKind::DataLen { stream } => DOp::DataLen { stream: *stream },
        InstKind::DataI { stream, idx } => DOp::DataI {
            stream: *stream,
            idx: opd(idx),
        },
        InstKind::DataF { stream, idx } => DOp::DataF {
            stream: *stream,
            idx: opd(idx),
        },
        InstKind::OutI { v } => DOp::OutI { v: opd(v) },
        InstKind::OutF { v } => DOp::OutF { v: opd(v) },
        InstKind::Check { a, b } => DOp::Check {
            a: opd(a),
            b: opd(b),
        },
        InstKind::Br { target } => DOp::Br {
            target: block_entry[target.index()],
        },
        InstKind::CondBr {
            cond,
            then_b,
            else_b,
        } => DOp::CondBr {
            c: opd(cond),
            t: block_entry[then_b.index()],
            e: block_entry[else_b.index()],
        },
        InstKind::Ret { v } => DOp::Ret {
            v: v.as_ref().map(opd),
        },
    };
    slot(f, iid, dense_base, op)
}

/// Execute `run` from where it starts to a termination. Semantics (step
/// accounting, trap points, injection ordering, fault application, every
/// observer) are bit-identical to the reference walk in [`crate::oracle`].
/// One `match` picks the instantiations:
///
/// * *observed* — a run that captures checkpoints, or that wants a
///   profile or a trace (per the interpreter's config) — from its first
///   step to its last. Observing does not need the injection counters: a
///   fault-free run from the entry point — a GA candidate's profile, a
///   golden run's capture — executes *unarmed*, and what the counters
///   would have read is derived from what the observers keep anyway (see
///   [`crate::observe`]). Only a run that has a fault to fire, already
///   carries one, or starts mid-run from a restored counter executes
///   *armed-observed*; a faulty run captured from the entry point (the
///   states `propagate` compares with the golden run's) is one.
/// * *proving* from the first step, for [`Run::prove`].
/// * otherwise observer-free: the *armed* instantiation carries the
///   injection counters and the fault-fire check, the *clean* one strips
///   every per-step fault cost. A faulty run executes armed only up to the
///   flip, then finishes clean; a fault-free run is clean from the first
///   step. Nothing observes the injection counters after the fault has
///   fired, so dropping them mid-run is invisible. Beside the golden run's
///   store ([`Start::Beside`], [`Start::At`]), once the fault has fired,
///   the clean phase pauses at its later checkpoints and finishes early
///   when the state has converged onto the golden run (see
///   [`crate::converge`]). A run still going at the golden run's length
///   finishes on the *proving* instantiation instead, which stops it there
///   once a counted loop of it provably repeats itself to the step limit
///   (`hang.rs`).
pub(crate) fn execute(interp: &Interp<'_>, scratch: &mut ExecScratch, run: &Run<'_>) -> ExecResult {
    let golden = match run.golden(interp) {
        (Some(store), Some(k)) => {
            interp.restore(store, k, run.fault, &mut scratch.st);
            scratch.enter_decoded(interp.decoded());
            Some(store)
        }
        (golden, _) => {
            scratch.start_decoded(interp.decoded());
            golden
        }
    };
    let (input, fault) = (run.input, run.fault);
    let (steps, applied) = (scratch.st.steps, scratch.st.fault_applied);
    let resumed_at = (steps > 0).then_some(steps);
    let ckpt = match run.start {
        Start::Capture(cfg) => Some(CheckpointCollector::new(cfg, interp.module().num_insts())),
        _ => None,
    };
    let cfg = interp.config();
    let mut conv = Converge::off();
    // a fault this run did not see applied may sit in a slot pointer
    scratch.on_generic = applied;
    let observing = ckpt.is_some() || run.observe && (cfg.profile || cfg.trace);
    let r = if run.prove {
        assert!(
            fault.is_none() && !observing && matches!(run.start, Start::Entry),
            "a proving run is fault-free and unobserved from the entry point"
        );
        prove(interp, scratch, input, None, None, &mut conv)
    } else if observing {
        let armed = fault.is_some() || applied || steps > 0;
        scratch
            .obs
            .begin(interp, run.observe, ckpt, &scratch.dframes, steps);
        // the observed loop never hands off, so a run that will flip a
        // value (or already has) is generic from its first step
        scratch.on_generic |= fault.is_some();
        if armed {
            run_loop::<true, true, false>(interp, scratch, input, fault, resumed_at, &mut conv)
        } else {
            run_loop::<false, true, false>(interp, scratch, input, None, None, &mut conv)
        }
        .expect("the observed loops always run to a termination")
    } else {
        let mut ended = None;
        if fault.is_some() && !applied {
            ended = run_loop::<true, false, false>(
                interp, scratch, input, fault, resumed_at, &mut conv,
            );
            if let (None, Some(store)) = (&ended, golden) {
                conv = Converge::new(interp, store, resumed_at, scratch.st.steps);
            }
        }
        ended
            .or_else(|| {
                run_loop::<false, false, false>(
                    interp, scratch, input, fault, resumed_at, &mut conv,
                )
            })
            .unwrap_or_else(|| prove(interp, scratch, input, fault, resumed_at, &mut conv))
    };
    scratch.converge_stats = conv.stats;
    if let Some(ckpt) = scratch.obs.ckpt.take() {
        let mut store = ckpt.into_store();
        if r.termination == Termination::Exit {
            store.attach_tail(r.output.clone(), r.steps, r.ret);
        }
        scratch.captured = Some(store);
    }
    r
}

/// Run to the end on the proving instantiation from the state in
/// `scratch`, the budget for latch saves counted from there.
fn prove(
    interp: &Interp<'_>,
    scratch: &mut ExecScratch,
    input: &crate::value::ProgInput,
    fault: Option<FaultSpec>,
    resumed_at: Option<u64>,
    conv: &mut Converge<'_>,
) -> ExecResult {
    let step_limit = interp.config().step_limit;
    scratch.hang.begin(scratch.st.steps, step_limit);
    let r = run_loop::<false, false, true>(interp, scratch, input, fault, resumed_at, conv)
        .expect("the proving loop always runs to a termination");
    conv.stats.proof_words = scratch.hang.words;
    r
}

#[inline]
#[cold]
fn cold() {}

/// Branch-weight hint on stable Rust: the call to a `#[cold]` function
/// marks the taken side unlikely, so the block behind it is laid out away
/// from the hot path.
#[inline]
fn unlikely(b: bool) -> bool {
    if b {
        cold()
    }
    b
}

/// Why [`exec_loop`] returned. Deliberately small: the loop has hundreds
/// of exits, and each only has to say this much.
enum Stop {
    /// Armed only: the fault has fired at the last instruction, the one
    /// with dense index `flipped`; the run continues on the clean loop.
    Handoff { flipped: u32 },
    /// Clean only, at a pause of [`Converge`]: the state equals the golden
    /// run's at the checkpoint just visited, or the run has reached the
    /// golden run's length and continues on the proving loop (the running
    /// frame's pc synced back into the scratch).
    Paused,
    /// Proving only: the run ends at the step limit; the step counter
    /// holds where that was proved.
    HangProved,
    /// The run is over. `executed`: whether the instruction in flight got
    /// past its step accounting (false only when the accounting itself
    /// ends the run); `pc`: the slot carrying it in the running frame.
    End {
        termination: Termination,
        ret: Option<Value>,
        executed: bool,
        pc: usize,
    },
}

/// One instantiation of [`exec_loop`] from the state in `scratch`, and the
/// result of the run if it ended there (`None`: the armed loop handed
/// off, or the clean loop reached the golden run's length; see [`Stop`]).
fn run_loop<const ARMED: bool, const OBS: bool, const PROVE: bool>(
    interp: &Interp<'_>,
    scratch: &mut ExecScratch,
    input: &crate::value::ProgInput,
    fault: Option<FaultSpec>,
    resumed_at: Option<u64>,
    conv: &mut Converge<'_>,
) -> Option<ExecResult> {
    let lowered = interp.lowered();
    let dm = if scratch.on_generic {
        &lowered.generic
    } else {
        &lowered.slotted
    };
    match exec_loop::<ARMED, OBS, PROVE>(interp, dm, scratch, input, fault, conv) {
        Stop::Handoff { flipped } => {
            // a flipped slot pointer no longer addresses its slot
            scratch.on_generic = interp.is_salloc(flipped);
            None
        }
        Stop::Paused => conv
            .converged()
            .then(|| conv.finish(&mut scratch.st.output)),
        Stop::HangProved => Some(scratch.hang.finish(&mut scratch.st, resumed_at)),
        Stop::End {
            termination,
            ret,
            executed,
            pc,
        } => {
            let st = &mut scratch.st;
            let result = ExecResult {
                termination,
                output: std::mem::take(&mut st.output),
                profile: None,
                steps: st.steps,
                fault_applied: st.fault_applied,
                ret,
                trace: None,
                resumed_at,
                converged_at: None,
                hang_proved_at: None,
            };
            Some(if OBS {
                scratch.obs.finish(
                    interp,
                    &scratch.dframes,
                    (pc + scratch.obs.half) as u32,
                    executed,
                    result,
                    ARMED.then_some(st.inj_ctr),
                )
            } else {
                result
            })
        }
    }
}

/// The interpreter loop, monomorphized five ways — `ARMED` and `OBS` are
/// independent, `PROVE` goes with neither; see [`execute`]. Runs until
/// the run ends or has to continue elsewhere, writes the step counter back
/// into the scratch and says why it stopped.
///
/// * `ARMED`: counts injectable value productions and fires the fault.
///   Without it a produced value is a bare register write.
/// * `OBS`: never hands off and drives the scratch's [`Observers`] —
///   taken-branch counters, call/return bookkeeping, the register write
///   trace.
/// * `PROVE`: visits the latches of counted loops (`hang.rs`).
///
/// * clean (none): pauses at golden checkpoints for the convergence
///   early exit, and at the golden run's length to hand over to the
///   proving loop.
/// * proving: the clean loop plus a visit at every latch the decoder
///   found, after the latch's store; a run past the golden run's length.
/// * armed: stops at the first instruction boundary after the flip, with
///   the current frame's pc synced back into the scratch so the clean
///   variant can pick up mid-run.
/// * observed: a fault-free run from the entry point; captures
///   checkpoints (folded into the `next_pause` compare). It counts no
///   production — a value a call produces is produced at the callee's
///   return, not when the call executes, so the observers derive the
///   injection counts from executions minus the calls still suspended
///   (see [`crate::observe`]).
/// * armed-observed: a profiled, traced or captured run with a fault
///   armed or applied, or resumed mid-run; runs to its end on the
///   counters it entered with. A captured one starts at the entry point,
///   so its captures derive the injection counts as the observed loop's
///   do.
fn exec_loop<const ARMED: bool, const OBS: bool, const PROVE: bool>(
    interp: &Interp<'_>,
    dm: &DecodedModule,
    scratch: &mut ExecScratch,
    input: &crate::value::ProgInput,
    fault: Option<FaultSpec>,
    conv: &mut Converge<'_>,
) -> Stop {
    let step_limit = interp.config().step_limit;
    let mem_limit = interp.config().mem_limit;
    let call_depth_limit = interp.config().call_depth_limit;
    let output_limit = interp.config().output_limit;

    let ExecScratch {
        st,
        dframes,
        regs,
        args,
        shadow,
        converge_stats: _,
        on_generic: _,
        obs,
        hang,
        captured: _,
    } = scratch;
    let MachineState {
        frames: _,
        mem,
        stack_mem,
        output,
        steps,
        inj_ctr,
        per_inst_ctr,
        fault_applied,
    } = st;

    let (target_dense, target_nth, whole_nth) = match fault {
        Some(FaultSpec {
            target: FaultTarget::NthOfInst(gid, n),
            ..
        }) => (Some(interp.dense_index(gid) as u32), n, u64::MAX),
        Some(FaultSpec {
            target: FaultTarget::NthDynamic(n),
            ..
        }) => (None, 0, n),
        None => (None, 0, u64::MAX),
    };
    let fault_bit = fault.map(|f| f.bit).unwrap_or(0);

    // current-frame fields cached in locals; re-synced on call/return
    let top = *dframes.last().expect("scratch holds at least one frame");
    let mut pc = top.pc as usize;
    // the running frame's first register, as a byte pointer: operands
    // and destinations are byte offsets from it (see `OPD_SCALE`), so a
    // register access is base + index, unscaled. The arena moves only
    // when a call grows it, and the frame changes at calls and returns:
    // `frame_at!` re-derives it at exactly those two places
    macro_rules! frame_at {
        ($reg_base:expr) => {
            regs.as_mut_ptr().wrapping_add($reg_base).cast::<u8>()
        };
    }
    let mut frame = frame_at!(top.reg_base);
    // where the running frame's slots start: a slot-addressed half is
    // `stack_mem[sp_base + offset]`
    let mut sp_base = top.sp_base;
    let mut code: &[DInst] = &dm.funcs[top.func as usize].code;
    // armed only: dense index of the instruction whose value was flipped
    let mut flipped = u32::MAX;
    // observed only: whether register writes are traced, asked once — the
    // `Option`'s niche is a 64-bit constant, and tested at every write it
    // is hoisted into a register of its own, which `pc` then pays for
    // (see `Observers::half`, and the note on `capture` below) — and the
    // running function's base into the taken-branch counters, which lives
    // in the observers for the same reason
    let tracing = OBS && obs.trace.is_some();
    if OBS {
        obs.br_base = 2 * dm.funcs[top.func as usize].slot_base;
    }

    // the step counter lives in a register-resident local for the whole
    // loop; every exit path writes it back through `finish!` (or the
    // armed handoff) so the MachineState stays canonical
    let mut steps_l = *steps;
    // one threshold folds everything a step may owe besides executing
    // into a single compare: `next_pause` is the next step count at which
    // *something* must happen. The step limit expires at exactly
    // step_limit + 1, as the oracle (recomputed at each pause: held in a
    // local it is one more value live across the loop, and LLVM then
    // keeps `pc` on the stack); the other terms follow.
    // golden-convergence boundary, folded into the same compare: the next
    // checkpoint at which the (clean-phase) state is compared with the
    // golden run's, or the golden run's length; u64::MAX when early exit
    // is off for this run, and in a proving run, where `conv` has nothing
    // left to visit. Asked of `conv` at each pause, and the capture
    // boundary below of the observers, rather than held in locals: with
    // either one live across the loop, LLVM keeps `pc` on the stack, and
    // with the proving loop's boundary a constant it does so there
    macro_rules! conv_at {
        () => {
            if ARMED || OBS {
                u64::MAX
            } else {
                conv.next_at()
            }
        };
    }
    // checkpoint-capture boundary, folded into the same compare: one past
    // the completed-step count at which the next capture is due (the
    // pause sits in the tick of the instruction that follows the
    // boundary, so a capture already due pauses at the next tick);
    // u64::MAX when nothing is captured
    macro_rules! cap_at {
        () => {
            if OBS {
                obs.capture_at()
            } else {
                u64::MAX
            }
        };
    }
    let mut next_pause = step_limit.saturating_add(1).min(conv_at!()).min(cap_at!());
    // The capture is reached through a pointer, not by name: what the
    // observers call must not change how the loops compile. rustc's MIR
    // inliner inlines this crate's getters (`Interp::config`,
    // `Interp::dense_index`, `Output::len`) into this body only while the
    // call graph it can follow from here stays shallow; one more level
    // under `Observers::capture` and it leaves them to LLVM, which then
    // keeps `pc` on the stack in *every* instantiation (measured: the
    // clean loop 348 -> 285 M steps/s, `faultsim.per_inst_s` +20 %). It
    // does not follow a pointer.
    #[allow(clippy::type_complexity)]
    let capture: fn(
        &mut Observers,
        &Interp<'_>,
        &[DFrame],
        u32,
        &[Value],
        &[Value],
        (&mut Vec<u64>, &mut Vec<u64>, &mut Output),
        u64,
    ) = Observers::capture;
    // `$executed`: whether the instruction in flight got past its step
    // accounting (false only when the tick itself ends the run)
    macro_rules! finish {
        ($term:expr, $ret:expr) => {
            finish!($term, $ret, true)
        };
        ($term:expr, $ret:expr, $executed:expr) => {{
            // no run ends twice: every exit is off the hot path
            cold();
            *steps = steps_l;
            return Stop::End {
                termination: $term,
                ret: $ret,
                executed: $executed,
                pc,
            };
        }};
    }
    macro_rules! trap {
        ($kind:expr) => {
            finish!(Termination::Trap($kind), None)
        };
    }
    // per-step prologue: increment, checkpoint capture, limit check,
    // convergence boundary — all behind the one folded compare. `$half`
    // is the instruction's offset from the carrying slot (0 at the loop
    // top), so `pc + $half` is the standalone slot of the instruction
    // about to run — the logical pc a snapshot taken here would record.
    macro_rules! tick {
        ($half:expr) => {
            steps_l += 1;
            if OBS {
                obs.half = $half;
            }
            if unlikely(steps_l >= next_pause) {
                // cold: a capture is due, the limit expired, or a golden
                // checkpoint boundary was reached
                if OBS && steps_l >= cap_at!() {
                    // due before this instruction, on completed steps:
                    // the state is the one after `steps_l - 1` steps
                    capture(
                        obs,
                        interp,
                        dframes.as_slice(),
                        (pc + $half) as u32,
                        regs.as_slice(),
                        args.as_slice(),
                        (&mut *mem, &mut *stack_mem, &mut *output),
                        steps_l - 1,
                    );
                }
                if steps_l > step_limit {
                    finish!(Termination::StepLimit, None, false);
                }
                // clean only in effect: the proving loop's `conv_at!` is
                // u64::MAX, but compiling the arm out of it changes how
                // LLVM allocates the loop and puts `pc` on the stack
                if !ARMED && !OBS && steps_l == conv_at!() {
                    // the state is the one after `steps_l - 1` steps
                    let view = DecodedView {
                        dm,
                        dframes: dframes.as_slice(),
                        pc,
                        half: $half,
                        regs: regs.as_slice(),
                        args: args.as_slice(),
                        mem: mem.as_slice(),
                        stack_mem: stack_mem.as_slice(),
                        out_len: output.len(),
                    };
                    if conv.visit(&view, shadow) {
                        // resumable from the instruction about to run
                        dframes.last_mut().expect("frame stack is non-empty").pc =
                            (pc + $half) as u32;
                        *steps = steps_l - 1;
                        return Stop::Paused;
                    }
                }
                next_pause = step_limit.saturating_add(1).min(conv_at!()).min(cap_at!());
            }
        };
    }
    // observed only: count the taken branch of the control instruction at
    // offset `$half` of the carrying slot (`$else`: its second target)
    macro_rules! edge {
        ($half:expr, $else:expr) => {
            if OBS {
                obs.branches[obs.br_base + 2 * (pc + $half) + usize::from($else)] += 1;
            }
        };
    }
    // debug builds: byte offset `$off` — an operand or destination as
    // decode scaled it — names a whole register inside the arena
    macro_rules! check_in_frame {
        ($off:expr) => {
            debug_assert!(
                $off % OPD_SCALE as usize == 0
                    && (frame as usize - regs.as_ptr() as usize + $off) / (OPD_SCALE as usize)
                        < regs.len(),
                "register offset {} outside the running frame",
                $off
            )
        };
    }
    // the running frame's register at byte offset `$off`
    macro_rules! reg {
        ($off:expr) => {{
            let off = $off as usize;
            check_in_frame!(off);
            // SAFETY: decode scales register operands (instruction ids of
            // the running function) and constants (the interned slots
            // after them), all < num_regs on verified IR, by OPD_SCALE
            // bytes, the size of a register; `frame` points at the running
            // frame's first register and the arena holds its num_regs
            // registers from there (resized on call, truncated on return,
            // `frame` re-derived at both; restored frames are checked).
            unsafe { *frame.add(off).cast::<Value>() }
        }};
    }
    // operand fetch; trap order (UndefRead before type checks) matches the oracle
    macro_rules! raw {
        ($o:expr) => {{
            let v = reg!(*$o);
            if matches!(v, Value::Undef) {
                trap!(TrapKind::UndefRead);
            }
            v
        }};
    }
    // typed operand fetches: one match instead of raw!-then-as_x. On
    // verified IR a non-Undef register always holds its declared variant
    // (bit flips preserve the variant, const slots are pre-materialized),
    // so the only reachable trap here is UndefRead — checked per operand
    // in the same order as the oracle.
    macro_rules! int {
        ($o:expr) => {
            match reg!(*$o) {
                Value::I(x) => x,
                Value::Undef => trap!(TrapKind::UndefRead),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    macro_rules! flt {
        ($o:expr) => {
            match reg!(*$o) {
                Value::F(x) => x,
                Value::Undef => trap!(TrapKind::UndefRead),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    macro_rules! boolean {
        ($o:expr) => {
            match reg!(*$o) {
                Value::B(x) => x,
                Value::Undef => trap!(TrapKind::UndefRead),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    macro_rules! pointer {
        ($o:expr) => {
            match reg!(*$o) {
                Value::P(x) => x,
                Value::Undef => trap!(TrapKind::UndefRead),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    // fault application + injection counting + register write (+ trace
    // event) for one produced value; evaluates to the (possibly flipped)
    // value. Unarmed, it compiles down to the bare register write.
    macro_rules! produce {
        ($dense:expr, $inj:expr, $dst:expr, $v:expr) => {{
            let mut v = $v;
            if ARMED && $inj {
                let fire = match target_dense {
                    Some(td) => {
                        if td == $dense {
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
                    flipped = $dense;
                    v = flip_bit(v, fault_bit);
                }
                *inj_ctr += 1;
            }
            let dst = $dst as usize;
            check_in_frame!(dst);
            // SAFETY: dst is this instruction's id (< num_regs), scaled;
            // an in-frame register, see `reg!`.
            unsafe {
                *frame.add(dst).cast::<Value>() = v;
            }
            if OBS && tracing {
                if let Some(t) = obs.trace.as_mut() {
                    t.push(TraceEvent {
                        dense: $dense,
                        value: v,
                    });
                }
            }
            v
        }};
    }
    macro_rules! bin_ii {
        ($op:expr, $x:expr, $y:expr) => {{
            let (x, y) = ($x, $y);
            match $op {
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
            }
        }};
    }
    macro_rules! bin_ff {
        ($op:expr, $x:expr, $y:expr) => {{
            let (x, y) = ($x, $y);
            match $op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => trap!(TrapKind::TypeConfusion),
            }
        }};
    }
    // generic pair dispatch, identical to the oracle's Bin arm
    macro_rules! bin_any {
        ($op:expr, $a:expr, $b:expr) => {
            match ($a, $b) {
                (Value::I(x), Value::I(y)) => Value::I(bin_ii!($op, x, y)),
                (Value::F(x), Value::F(y)) => Value::F(bin_ff!($op, x, y)),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    macro_rules! cmp_ff {
        ($op:expr, $x:expr, $y:expr) => {{
            let (x, y) = ($x, $y);
            match $op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }};
    }
    macro_rules! cmp_any {
        ($op:expr, $a:expr, $b:expr) => {
            match ($a, $b) {
                (Value::I(x), Value::I(y)) => cmp_ord($op, x.cmp(&y)),
                (Value::B(x), Value::B(y)) => cmp_ord($op, x.cmp(&y)),
                (Value::F(x), Value::F(y)) => cmp_ff!($op, x, y),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    // a slot-addressed half (see the module docs) goes straight to its
    // word; the index stays checked, so a frame whose stack is shorter
    // than its function's slots — no run produces one, a bad restored
    // image could — panics instead of reading out of bounds
    macro_rules! load_word {
        ($ptr:expr, $idx:expr) => {{
            if *$ptr == SLOT {
                stack_mem[sp_base + *$idx as usize]
            } else {
                let p = pointer!($ptr);
                let i = int!($idx);
                let (space, base): (&[u64], u64) = if p & STACK_TAG != 0 {
                    (&*stack_mem, p & !STACK_TAG)
                } else {
                    (&*mem, p)
                };
                // u64 + signed offset; None (negative or overflow) is
                // exactly the oracle's i128 out-of-range condition
                let addr = match base.checked_add_signed(i) {
                    Some(a) if a < space.len() as u64 => a,
                    _ => trap!(TrapKind::OutOfBounds),
                };
                space[addr as usize]
            }
        }};
    }
    macro_rules! word_of {
        ($val:expr) => {
            match $val {
                Value::I(x) => x as u64,
                Value::F(x) => x.to_bits(),
                _ => trap!(TrapKind::TypeConfusion),
            }
        };
    }
    // one store, shared by the Store arm and the store-carrying fused
    // ops; operand fetch and trap order match the oracle's Store arm (a
    // slot-addressed store's pointer and index cannot trap)
    macro_rules! store_word {
        ($ptr:expr, $idx:expr, $v:expr) => {{
            if *$ptr == SLOT {
                let val = raw!($v);
                stack_mem[sp_base + *$idx as usize] = word_of!(val);
            } else {
                let p = pointer!($ptr);
                let i = int!($idx);
                let val = raw!($v);
                let (space, base): (&mut Vec<u64>, u64) = if p & STACK_TAG != 0 {
                    (&mut *stack_mem, p & !STACK_TAG)
                } else {
                    (&mut *mem, p)
                };
                let addr = match base.checked_add_signed(i) {
                    Some(a) if a < space.len() as u64 => a,
                    _ => trap!(TrapKind::OutOfBounds),
                };
                space[addr as usize] = word_of!(val);
            }
        }};
    }
    macro_rules! stream_idx {
        ($o:expr) => {{
            let i = int!($o);
            match usize::try_from(i) {
                Ok(ix) => ix,
                Err(_) => trap!(TrapKind::BadIndex),
            }
        }};
    }

    loop {
        // armed phase only: hand off to the clean loop at the first
        // instruction boundary after the fault has fired
        if ARMED && !OBS && *fault_applied {
            dframes.last_mut().expect("frame stack is non-empty").pc = pc as u32;
            *steps = steps_l;
            return Stop::Handoff { flipped };
        }
        // `code` is reassigned on call/return while `di` may still be
        // live, so index through a per-iteration copy of the reference
        let cur_code = code;
        debug_assert!(pc < cur_code.len());
        // SAFETY: pc is always a block entry or the sequential successor
        // of a non-terminator; verified IR ends every (non-empty) block
        // with a terminator, so both stay inside `code`.
        let di = unsafe { cur_code.get_unchecked(pc) };
        tick!(0);
        match &di.op {
            DOp::Param { n } => {
                // the frame's argument window is read here, not held in
                // locals: one more value live across the loop, and LLVM
                // keeps `pc` on the stack
                let top = dframes.last().expect("frame stack is non-empty");
                let v = if (*n as usize) < top.arg_len {
                    args[top.arg_base + *n as usize]
                } else {
                    Value::Undef
                };
                produce!(di.dense, di.inj, di.dst, v);
                pc += 1;
            }
            DOp::BinII { op, a, b } => {
                let r = bin_ii!(op, int!(a), int!(b));
                produce!(di.dense, di.inj, di.dst, Value::I(r));
                pc += 1;
            }
            DOp::BinFF { op, a, b } => {
                let r = bin_ff!(op, flt!(a), flt!(b));
                produce!(di.dense, di.inj, di.dst, Value::F(r));
                pc += 1;
            }
            DOp::BinAny { op, a, b } => {
                let x = raw!(a);
                let y = raw!(b);
                let r = bin_any!(op, x, y);
                produce!(di.dense, di.inj, di.dst, r);
                pc += 1;
            }
            DOp::Un { op, a } => {
                let v = raw!(a);
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
                produce!(di.dense, di.inj, di.dst, r);
                pc += 1;
            }
            DOp::CmpII { op, a, b } => {
                let (x, y) = (int!(a), int!(b));
                let r = cmp_ord(*op, x.cmp(&y));
                produce!(di.dense, di.inj, di.dst, Value::B(r));
                pc += 1;
            }
            DOp::CmpFF { op, a, b } => {
                let r = cmp_ff!(op, flt!(a), flt!(b));
                produce!(di.dense, di.inj, di.dst, Value::B(r));
                pc += 1;
            }
            DOp::CmpBB { op, a, b } => {
                let (x, y) = (boolean!(a), boolean!(b));
                let r = cmp_ord(*op, x.cmp(&y));
                produce!(di.dense, di.inj, di.dst, Value::B(r));
                pc += 1;
            }
            DOp::CmpAny { op, a, b } => {
                let x = raw!(a);
                let y = raw!(b);
                let r = cmp_any!(*op, x, y);
                produce!(di.dense, di.inj, di.dst, Value::B(r));
                pc += 1;
            }
            DOp::Select { c, t, e } => {
                let cv = boolean!(c);
                let r = if cv { raw!(t) } else { raw!(e) };
                produce!(di.dense, di.inj, di.dst, r);
                pc += 1;
            }
            DOp::Cast { to, a } => {
                let v = raw!(a);
                let r = match (v, to) {
                    (Value::I(x), Ty::F64) => Value::F(x as f64),
                    (Value::F(x), Ty::I64) => Value::I(x as i64), // saturating
                    (Value::B(x), Ty::I64) => Value::I(x as i64),
                    (Value::I(x), Ty::I64) => Value::I(x),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                pc += 1;
            }
            DOp::Alloc { n } => {
                let n = int!(n);
                if n < 0 {
                    trap!(TrapKind::NegativeAlloc);
                }
                let n = n as u64;
                let base = mem.len() as u64;
                if base + n > mem_limit {
                    trap!(TrapKind::MemLimit);
                }
                mem.resize((base + n) as usize, 0);
                produce!(di.dense, di.inj, di.dst, Value::P(base));
                pc += 1;
            }
            DOp::Salloc { n } => {
                let n = int!(n);
                if n < 0 {
                    trap!(TrapKind::NegativeAlloc);
                }
                let n = n as u64;
                let base = stack_mem.len() as u64;
                if base + n > mem_limit {
                    trap!(TrapKind::MemLimit);
                }
                stack_mem.resize((base + n) as usize, 0);
                produce!(di.dense, di.inj, di.dst, Value::P(STACK_TAG | base));
                pc += 1;
            }
            DOp::Load { ty, ptr, idx } => {
                let bits = load_word!(ptr, idx);
                let r = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                pc += 1;
            }
            DOp::Store { ptr, idx, v } => {
                store_word!(ptr, idx, v);
                pc += 1;
            }
            DOp::Call {
                callee,
                args: cargs,
            } => {
                if dframes.len() as u32 >= call_depth_limit {
                    trap!(TrapKind::CallDepth);
                }
                // argument fetch uses the caller's registers; push onto
                // the shared arg arena before switching frames
                let new_arg_base = args.len();
                for a in cargs.iter() {
                    let v = raw!(a);
                    args.push(v);
                }
                dframes.last_mut().unwrap().pc = pc as u32; // stay at the call
                let callee = *callee as usize;
                let cf = &dm.funcs[callee];
                let new_reg_base = regs.len();
                regs.resize(
                    new_reg_base + cf.num_regs as usize - cf.consts.len(),
                    Value::Undef,
                );
                regs.extend_from_slice(&cf.consts);
                frame = frame_at!(new_reg_base);
                dframes.push(DFrame {
                    func: callee as u32,
                    pc: cf.block_entry[0],
                    reg_base: new_reg_base,
                    arg_base: new_arg_base,
                    arg_len: cargs.len(),
                    sp_base: stack_mem.len(),
                });
                if OBS {
                    let caller = dframes[dframes.len() - 2].func;
                    obs.on_call(caller, callee, steps_l);
                    obs.br_base = 2 * cf.slot_base;
                }
                code = &dm.funcs[callee].code;
                pc = cf.block_entry[0] as usize;
                sp_base = stack_mem.len();
            }
            DOp::NArgs => {
                produce!(di.dense, di.inj, di.dst, Value::I(input.args.len() as i64));
                pc += 1;
            }
            DOp::ArgI { n } => {
                let ix = stream_idx!(n);
                match input.args.get(ix) {
                    Some(Scalar::I(v)) => {
                        produce!(di.dense, di.inj, di.dst, Value::I(*v));
                    }
                    Some(Scalar::F(_)) => trap!(TrapKind::ArgTypeMismatch),
                    None => trap!(TrapKind::ArgOutOfRange),
                }
                pc += 1;
            }
            DOp::ArgF { n } => {
                let ix = stream_idx!(n);
                match input.args.get(ix) {
                    Some(Scalar::F(v)) => {
                        produce!(di.dense, di.inj, di.dst, Value::F(*v));
                    }
                    Some(Scalar::I(_)) => trap!(TrapKind::ArgTypeMismatch),
                    None => trap!(TrapKind::ArgOutOfRange),
                }
                pc += 1;
            }
            DOp::DataLen { stream } => {
                let len = input
                    .streams
                    .get(*stream as usize)
                    .map(|s| s.len() as i64)
                    .unwrap_or(0);
                produce!(di.dense, di.inj, di.dst, Value::I(len));
                pc += 1;
            }
            DOp::DataI { stream, idx } => {
                let ix = stream_idx!(idx);
                match input.streams.get(*stream as usize) {
                    Some(Stream::I(v)) => match v.get(ix) {
                        Some(x) => {
                            produce!(di.dense, di.inj, di.dst, Value::I(*x));
                        }
                        None => trap!(TrapKind::StreamOutOfBounds),
                    },
                    Some(Stream::F(_)) => trap!(TrapKind::StreamTypeMismatch),
                    None => trap!(TrapKind::StreamOutOfBounds),
                }
                pc += 1;
            }
            DOp::DataF { stream, idx } => {
                let ix = stream_idx!(idx);
                match input.streams.get(*stream as usize) {
                    Some(Stream::F(v)) => match v.get(ix) {
                        Some(x) => {
                            produce!(di.dense, di.inj, di.dst, Value::F(*x));
                        }
                        None => trap!(TrapKind::StreamOutOfBounds),
                    },
                    Some(Stream::I(_)) => trap!(TrapKind::StreamTypeMismatch),
                    None => trap!(TrapKind::StreamOutOfBounds),
                }
                pc += 1;
            }
            DOp::OutI { v } => {
                let x = int!(v);
                output.push_i(x);
                if output.len() > output_limit {
                    finish!(Termination::StepLimit, None);
                }
                pc += 1;
            }
            DOp::OutF { v } => {
                let x = flt!(v);
                output.push_f(x);
                if output.len() > output_limit {
                    finish!(Termination::StepLimit, None);
                }
                pc += 1;
            }
            DOp::Check { a, b } => {
                let x = raw!(a);
                let y = raw!(b);
                if !bit_equal(x, y) {
                    finish!(Termination::Detected, None);
                }
                pc += 1;
            }
            DOp::Br { target } => {
                edge!(0, false);
                pc = *target as usize;
            }
            DOp::CondBr { c, t, e } => {
                let cv = boolean!(c);
                edge!(0, !cv);
                pc = if cv { *t } else { *e } as usize;
            }
            DOp::Ret { v } => {
                let rv = match v {
                    Some(v) => Some(raw!(v)),
                    None => None,
                };
                let finished = dframes.pop().unwrap();
                stack_mem.truncate(finished.sp_base);
                regs.truncate(finished.reg_base);
                args.truncate(finished.arg_base);
                if OBS {
                    obs.close_stretch(finished.func, steps_l);
                }
                match dframes.last() {
                    None => {
                        finish!(Termination::Exit, rv);
                    }
                    Some(&caller) => {
                        if OBS {
                            obs.br_base = 2 * dm.funcs[caller.func as usize].slot_base;
                        }
                        code = &dm.funcs[caller.func as usize].code;
                        pc = caller.pc as usize;
                        frame = frame_at!(caller.reg_base);
                        sp_base = caller.sp_base;
                        // the caller's pc still points at the call (calls
                        // are never fused): its return value materializes
                        // here, so this is its fault-injection point
                        let call = &code[pc];
                        if let Some(v) = rv {
                            produce!(call.dense, call.inj, call.dst, v);
                        }
                        pc += 1;
                    }
                }
            }
            DOp::CmpBr {
                kind,
                op,
                a,
                b,
                t,
                e,
            } => {
                // compare half (metadata on the carrying DInst)
                let r = match kind {
                    CmpKind::II => {
                        let (x, y) = (int!(a), int!(b));
                        cmp_ord(*op, x.cmp(&y))
                    }
                    CmpKind::FF => cmp_ff!(*op, flt!(a), flt!(b)),
                    CmpKind::BB => {
                        let (x, y) = (boolean!(a), boolean!(b));
                        cmp_ord(*op, x.cmp(&y))
                    }
                    CmpKind::Any => {
                        let x = raw!(a);
                        let y = raw!(b);
                        cmp_any!(*op, x, y)
                    }
                };
                let v = produce!(di.dense, di.inj, di.dst, Value::B(r));
                // branch half: a flip on a Bool stays a Bool, so the
                // branch reads the post-fault value exactly as the oracle does
                let cv = match v {
                    Value::B(c) => c,
                    _ => unreachable!("bit flip preserves the Bool variant"),
                };
                tick!(1);
                edge!(1, !cv);
                pc = if cv { *t } else { *e } as usize;
            }
            DOp::Load4 { ty, ptr, idx } => {
                // first load (metadata on the carrying DInst)
                let bits = load_word!(ptr, idx);
                let r = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                // the other three from their standalone slots — a bounded
                // variant check, not a dispatch round each; every half
                // fetches its address after the earlier halves' writes
                for h in 1..4 {
                    tick!(h);
                    // SAFETY: decode fused a 4-window of one block, so
                    // the standalone load copies sit in the three slots
                    // after the carrier
                    let dh = unsafe { cur_code.get_unchecked(pc + h) };
                    let DOp::Load { ty, ptr, idx } = &dh.op else {
                        unreachable!("Load4 chains load slots")
                    };
                    let bits = load_word!(ptr, idx);
                    let r = match ty {
                        Ty::I64 => Value::I(bits as i64),
                        Ty::F64 => Value::F(f64::from_bits(bits)),
                        _ => trap!(TrapKind::TypeConfusion),
                    };
                    produce!(dh.dense, dh.inj, dh.dst, r);
                }
                pc += 4;
            }
            DOp::LoadCmpBr {
                ty,
                ptr,
                idx,
                kind,
                op,
                a,
                b,
                t,
                e,
                cmp_dst,
                cmp_dense,
                cmp_inj,
            } => {
                // load half (metadata on the carrying DInst)
                let bits = load_word!(ptr, idx);
                let r = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                // compare half: operands fetched after the load write,
                // so a compare of the loaded slot reads the post-fault
                // value exactly as the oracle does
                tick!(1);
                let r = match kind {
                    CmpKind::II => {
                        let (x, y) = (int!(a), int!(b));
                        cmp_ord(*op, x.cmp(&y))
                    }
                    CmpKind::FF => cmp_ff!(*op, flt!(a), flt!(b)),
                    CmpKind::BB => {
                        let (x, y) = (boolean!(a), boolean!(b));
                        cmp_ord(*op, x.cmp(&y))
                    }
                    CmpKind::Any => {
                        let x = raw!(a);
                        let y = raw!(b);
                        cmp_any!(*op, x, y)
                    }
                };
                let v = produce!(*cmp_dense, *cmp_inj, *cmp_dst, Value::B(r));
                // branch half: a flip on a Bool stays a Bool
                let cv = match v {
                    Value::B(c) => c,
                    _ => unreachable!("bit flip preserves the Bool variant"),
                };
                tick!(2);
                edge!(2, !cv);
                pc = if cv { *t } else { *e } as usize;
            }
            DOp::StoreBr {
                ptr,
                idx,
                v,
                target,
            } => {
                // store half (carrying DInst; produces nothing)
                store_word!(ptr, idx, v);
                // branch half: control-only
                tick!(1);
                edge!(1, false);
                pc = *target as usize;
            }
            DOp::LoadBin {
                ty,
                op,
                ptr,
                idx,
                other,
                load_lhs,
                bin_dst,
                bin_dense,
                bin_inj,
            } => {
                // load half (metadata on the carrying DInst)
                let bits = load_word!(ptr, idx);
                let lv = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                let lv = produce!(di.dense, di.inj, di.dst, lv);
                // bin half: reads the post-fault load value; operand fetch
                // order (lhs before rhs) matches the oracle
                tick!(1);
                let (x, y) = if *load_lhs {
                    (lv, raw!(other))
                } else {
                    (raw!(other), lv)
                };
                let r = bin_any!(op, x, y);
                produce!(*bin_dense, *bin_inj, *bin_dst, r);
                pc += 2;
            }
            DOp::LoadLoadBin {
                ty1,
                ptr1,
                idx1,
                ty2,
                ptr2,
                idx2,
                ld_dst,
                ld_dense,
                ld_inj,
            } => {
                // first load (metadata on the carrying DInst)
                let bits = load_word!(ptr1, idx1);
                let r = match ty1 {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                // second load: address operands fetched after the first
                // write, so indirect chains read the post-fault value
                tick!(1);
                let bits = load_word!(ptr2, idx2);
                let r = match ty2 {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(*ld_dense, *ld_inj, *ld_dst, r);
                // bin third: executes from its standalone slot — a
                // bounded tag check, not a full dispatch round; operand
                // fetch happens after both load writes
                tick!(2);
                // SAFETY: decode fused a 3-window of one block, so the
                // standalone bin copy sits two slots after the carrier
                let d3 = unsafe { cur_code.get_unchecked(pc + 2) };
                match &d3.op {
                    DOp::BinII { op, a, b } => {
                        let r = bin_ii!(op, int!(a), int!(b));
                        produce!(d3.dense, d3.inj, d3.dst, Value::I(r));
                    }
                    DOp::BinFF { op, a, b } => {
                        let r = bin_ff!(op, flt!(a), flt!(b));
                        produce!(d3.dense, d3.inj, d3.dst, Value::F(r));
                    }
                    DOp::BinAny { op, a, b } => {
                        let x = raw!(a);
                        let y = raw!(b);
                        let r = bin_any!(op, x, y);
                        produce!(d3.dense, d3.inj, d3.dst, r);
                    }
                    _ => unreachable!("LoadLoadBin chains a bin slot"),
                }
                pc += 3;
            }
            DOp::LoadBinBin {
                ty,
                op,
                ptr,
                idx,
                other,
                load_lhs,
                bin_dst,
                bin_dense,
                bin_inj,
                op2,
                a2,
                b2,
                bin2_dst,
                bin2_dense,
                bin2_inj,
            } => {
                // load half (metadata on the carrying DInst)
                let bits = load_word!(ptr, idx);
                let lv = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                let lv = produce!(di.dense, di.inj, di.dst, lv);
                // first bin: reads the post-fault load value; operand
                // fetch order (lhs before rhs) matches the oracle
                tick!(1);
                let (x, y) = if *load_lhs {
                    (lv, raw!(other))
                } else {
                    (raw!(other), lv)
                };
                let r = bin_any!(op, x, y);
                produce!(*bin_dense, *bin_inj, *bin_dst, r);
                // second bin: operands fetched after the first's write
                tick!(2);
                let x = raw!(a2);
                let y = raw!(b2);
                let r = bin_any!(op2, x, y);
                produce!(*bin2_dense, *bin2_inj, *bin2_dst, r);
                pc += 3;
            }
            DOp::LoadBinStoreBr {
                ty,
                ptr,
                idx,
                op,
                a,
                b,
                bin_dst,
                bin_dense,
                bin_inj,
                st_ptr,
                st_idx,
                st_v,
                target,
            } => {
                // load half (metadata on the carrying DInst)
                let bits = load_word!(ptr, idx);
                let r = match ty {
                    Ty::I64 => Value::I(bits as i64),
                    Ty::F64 => Value::F(f64::from_bits(bits)),
                    _ => trap!(TrapKind::TypeConfusion),
                };
                produce!(di.dense, di.inj, di.dst, r);
                // bin half: operands fetched after the load's write
                tick!(1);
                let x = raw!(a);
                let y = raw!(b);
                let r = bin_any!(op, x, y);
                produce!(*bin_dense, *bin_inj, *bin_dst, r);
                // store half: value fetched after the bin's write
                tick!(2);
                store_word!(st_ptr, st_idx, st_v);
                if PROVE {
                    // a counted loop's latch: the counter is stored, the
                    // branch not yet taken
                    let func = dframes.last().expect("frame stack is non-empty").func;
                    let latches = &dm.funcs[func as usize].latches;
                    if let Some(latch) = latches.iter().find(|l| l.pc as usize == pc) {
                        let view = DecodedView {
                            dm,
                            dframes: dframes.as_slice(),
                            pc,
                            half: 3,
                            regs: regs.as_slice(),
                            args: args.as_slice(),
                            mem: mem.as_slice(),
                            stack_mem: stack_mem.as_slice(),
                            out_len: output.len(),
                        };
                        if hang.visit(latch, &view, steps_l) {
                            *steps = steps_l;
                            return Stop::HangProved;
                        }
                    }
                }
                // branch half: control-only
                tick!(3);
                edge!(3, false);
                pc = *target as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CheckpointConfig, SnapshotMode};
    use crate::value::{ProgInput, Scalar};
    use crate::ExecConfig;

    /// Index of the first fused superinstruction in [`OP_NAMES`] order;
    /// indices below it are straight-line single ops.
    const FIRST_FUSED: usize = 28;

    /// Every register operand and inline destination `op` carries, as
    /// decoded; a slot-addressed half's `(SLOT, word offset)` is none.
    fn registers(op: &DOp) -> Vec<Opd> {
        let half = |ptr: &Opd, idx: &Opd| match *ptr {
            SLOT => vec![],
            _ => vec![*ptr, *idx],
        };
        match op {
            DOp::Param { .. } | DOp::NArgs | DOp::DataLen { .. } | DOp::Br { .. } => vec![],
            DOp::BinII { a, b, .. }
            | DOp::BinFF { a, b, .. }
            | DOp::BinAny { a, b, .. }
            | DOp::CmpII { a, b, .. }
            | DOp::CmpFF { a, b, .. }
            | DOp::CmpBB { a, b, .. }
            | DOp::CmpAny { a, b, .. }
            | DOp::Check { a, b }
            | DOp::CmpBr { a, b, .. } => vec![*a, *b],
            DOp::Un { a, .. } | DOp::Cast { a, .. } => vec![*a],
            DOp::Select { c, t, e } => vec![*c, *t, *e],
            DOp::Alloc { n } | DOp::Salloc { n } | DOp::ArgI { n } | DOp::ArgF { n } => vec![*n],
            DOp::DataI { idx, .. } | DOp::DataF { idx, .. } => vec![*idx],
            DOp::OutI { v } | DOp::OutF { v } => vec![*v],
            DOp::CondBr { c, .. } => vec![*c],
            DOp::Ret { v } => v.iter().copied().collect(),
            DOp::Call { args, .. } => args.to_vec(),
            DOp::Load { ptr, idx, .. } | DOp::Load4 { ptr, idx, .. } => half(ptr, idx),
            DOp::Store { ptr, idx, v } | DOp::StoreBr { ptr, idx, v, .. } => {
                [half(ptr, idx), vec![*v]].concat()
            }
            DOp::LoadCmpBr {
                ptr,
                idx,
                a,
                b,
                cmp_dst,
                ..
            } => [half(ptr, idx), vec![*a, *b, *cmp_dst]].concat(),
            DOp::LoadLoadBin {
                ptr1,
                idx1,
                ptr2,
                idx2,
                ld_dst,
                ..
            } => [half(ptr1, idx1), half(ptr2, idx2), vec![*ld_dst]].concat(),
            DOp::LoadBin {
                ptr,
                idx,
                other,
                bin_dst,
                ..
            } => [half(ptr, idx), vec![*other, *bin_dst]].concat(),
            DOp::LoadBinBin {
                ptr,
                idx,
                other,
                bin_dst,
                a2,
                b2,
                bin2_dst,
                ..
            } => [half(ptr, idx), vec![*other, *bin_dst, *a2, *b2, *bin2_dst]].concat(),
            DOp::LoadBinStoreBr {
                ptr,
                idx,
                a,
                b,
                bin_dst,
                st_ptr,
                st_idx,
                st_v,
                ..
            } => [
                half(ptr, idx),
                vec![*a, *b, *bin_dst],
                half(st_ptr, st_idx),
                vec![*st_v],
            ]
            .concat(),
        }
    }

    /// The loop indexes code by pc and registers by byte offset; both
    /// strides are what x86 addressing takes in one step only while a
    /// code slot is a power of two and an operand is pre-scaled. A slot
    /// that grows back past 64 bytes costs the clean loop ~3 % and fails
    /// nothing else (EXPERIMENTS.md "Power-of-two strides").
    #[test]
    fn a_code_slot_is_64_bytes() {
        assert_eq!(std::mem::size_of::<DInst>(), 64);
    }

    /// The two lowerings are one layout — same slots, same fusion choice
    /// per slot, same block entries, same constant pool — and differ only
    /// in the address operands of slot-addressed halves. Every half
    /// [`DOp::for_each_mem_half`] reports is the load or store `half`
    /// slots after the carrier, and it reports every address an op
    /// carries, so no superinstruction quietly keeps computing. Every
    /// other register an op names, and every destination, is its IR id
    /// scaled by [`OPD_SCALE`].
    #[test]
    fn lowerings_differ_only_in_the_addresses_of_slot_halves() {
        let src = r#"
fn mix(a: [float], n: int, w: float) -> float {
    let s = 0.0;
    let t = 1.0;
    for i = 0 to n {
        let x = a[i];
        a[i] = a[(i + 1) % n] * w + x;
        s = s + cos(w * float(i)) * a[i];
        t = t + s * x - w;
        t = t * 0.5 + 1.0;
        if s > t { let u = s; s = t; t = u; }
    }
    return s + t;
}

fn main() {
    let n = arg_i(0);
    let buf: [float] = alloc(8);
    let acc = 3;
    for i = 0 to 8 { buf[i] = float(i) * 0.5; }
    for i = 0 to n {
        acc = acc + i * 3 % 7;
        if acc % 5 == 0 { out_i(acc); }
    }
    out_f(mix(buf, 8, 0.25));
    out_i(acc);
}
"#;
        let m = minic::compile(src, "lowerings").unwrap();
        let interp = Interp::new(&m, ExecConfig::default());
        let low = interp.lowered();
        assert_eq!(low.slotted.entry, low.generic.entry);
        // an op with its addresses blanked, and the addresses
        let split = |op: &DOp| {
            let mut op = op.clone();
            let mut halves = Vec::new();
            op.for_each_mem_half(|h, ptr, idx| {
                halves.push((h, *ptr, *idx));
                (*ptr, *idx) = (0, 0);
            });
            (format!("{op:?}"), halves)
        };
        let mut slotted_kinds = std::collections::BTreeSet::new();
        for ((f, s), g) in m
            .funcs
            .iter()
            .zip(&low.slotted.funcs)
            .zip(&low.generic.funcs)
        {
            assert_eq!(s.code.len(), g.code.len());
            assert_eq!(s.block_entry, g.block_entry);
            assert_eq!((s.num_regs, s.slot_base), (g.num_regs, g.slot_base));
            assert_eq!(format!("{:?}", s.consts), format!("{:?}", g.consts));
            let placed: Vec<_> = f.blocks.iter().flat_map(|b| &b.insts).collect();
            for (pc, (ds, dg)) in s.code.iter().zip(&g.code).enumerate() {
                assert_eq!((ds.dst, ds.dense, ds.inj), (dg.dst, dg.dense, dg.inj));
                // every register a slot names is a scaled one of its frame
                if dg.dst != u32::MAX {
                    assert_eq!(dg.dst, placed[pc].0 * OPD_SCALE, "dst of slot {pc}");
                }
                for op in [&ds.op, &dg.op] {
                    for r in registers(op) {
                        assert!(
                            r % OPD_SCALE == 0 && r / OPD_SCALE < g.num_regs,
                            "operand {r} of slot {pc}: {op:?}"
                        );
                    }
                }
                let ((shape_s, halves_s), (shape_g, halves_g)) = (split(&ds.op), split(&dg.op));
                assert_eq!(shape_s, shape_g, "slot {pc} differs in more than addresses");
                let address_fields = format!("{:?}", dg.op).matches("ptr").count();
                assert_eq!(halves_g.len(), address_fields, "{:?}", dg.op);
                for (&hs, &(h, ptr, idx)) in halves_s.iter().zip(&halves_g) {
                    let (InstKind::Load { ptr: p, .. } | InstKind::Store { ptr: p, .. }) =
                        &f.insts[placed[pc + h].index()].kind
                    else {
                        panic!("half {h} of slot {pc} is not a load or store");
                    };
                    assert_eq!(Operand::Value(minpsid_ir::InstId(ptr / OPD_SCALE)), *p);
                    if hs.1 == SLOT {
                        slotted_kinds.insert(ds.op.index());
                    } else {
                        assert_eq!(hs, (h, ptr, idx), "neither slotted nor generic");
                    }
                }
            }
        }
        let (slotted, all) = interp.slot_coverage();
        assert!(
            slotted * 2 > all,
            "{slotted} of {all} halves slot-addressed"
        );
        // plain loads and stores, and every superinstruction but the one
        // that touches no memory
        let unslotted: Vec<_> = (0..OP_NAMES.len())
            .filter(|&k| k >= FIRST_FUSED || matches!(OP_NAMES[k], "Load" | "Store"))
            .filter(|k| !slotted_kinds.contains(k))
            .map(|k| OP_NAMES[k])
            .collect();
        assert_eq!(unslotted, ["CmpBr"], "slot-addressed: {slotted_kinds:?}");
    }

    /// The enum, [`OP_NAMES`], [`DOp::index`], [`DOp::width`] and
    /// [`FIRST_FUSED`] are four hand-kept
    /// lists; `step_rate`'s per-op table is attributed through them. Decode one function
    /// holding every instruction kind at every operand typing and every
    /// window that fuses, and hold each emitted op to all four: its name
    /// is its variant's, and it sits at or past `FIRST_FUSED` exactly when
    /// it carries a window. Every index is seen, so a variant added
    /// without its rows fails here.
    #[test]
    fn every_op_kind_is_declared_once() {
        use minpsid_ir::{ModuleBuilder, UnOp};
        let mut mb = ModuleBuilder::new("kinds");
        let main = mb.declare("main", vec![Ty::I64], None);
        let mut fb = mb.body(main);
        let [cmp_br, store_br, load_bin, load_bin_bin, load_load_bin, load4, load_cmp_br, latch, exit] =
            std::array::from_fn(|_| fb.new_block("window"));

        // the plain kinds, no two neighbours a window
        let p = fb.param(0);
        let n = fb.nargs();
        let ai = fb.arg_i(n);
        let af = fb.arg_f(1i64);
        let len = fb.data_len(0);
        let di = fb.data_i(0, len);
        let df = fb.data_f(1, 0i64);
        let heap = fb.alloc(4i64);
        let s = fb.salloc(2i64);
        let ii = fb.add(Ty::I64, ai, di);
        let ff = fb.mul(Ty::F64, af, df);
        let mixed = fb.add(Ty::I64, ai, af);
        let neg = fb.un(UnOp::Neg, Ty::I64, mixed);
        let cast = fb.cast(Ty::F64, neg);
        let cii = fb.cmp(CmpOp::Lt, ai, di);
        let cff = fb.cmp(CmpOp::Lt, cast, ff);
        let cbb = fb.cmp(CmpOp::Eq, cii, cff);
        let cany = fb.cmp(CmpOp::Eq, ai, af);
        let sel = fb.select(Ty::I64, cbb, ii, p);
        fb.check(sel, sel);
        fb.out_i(sel);
        fb.out_f(ff);
        fb.call(main, None, vec![sel.into()]);
        let x = fb.load(Ty::I64, heap, 0i64);
        fb.store(s, 0i64, x);
        fb.cond_br(cany, cmp_br, exit);

        // one block per window
        fb.switch_to(cmp_br);
        let c = fb.cmp(CmpOp::Lt, x, 3i64);
        fb.cond_br(c, store_br, exit);
        fb.switch_to(store_br);
        fb.store(s, 1i64, x);
        fb.br(load_bin);
        fb.switch_to(load_bin);
        let a = fb.load(Ty::I64, s, 0i64);
        let b = fb.add(Ty::I64, 1i64, a);
        fb.out_i(b);
        fb.br(load_bin_bin);
        fb.switch_to(load_bin_bin);
        let a = fb.load(Ty::I64, s, 0i64);
        let b = fb.add(Ty::I64, a, 1i64);
        let c = fb.mul(Ty::I64, b, b);
        fb.out_i(c);
        fb.br(load_load_bin);
        fb.switch_to(load_load_bin);
        let a = fb.load(Ty::I64, s, 0i64);
        let b = fb.load(Ty::I64, s, 1i64);
        let c = fb.add(Ty::I64, x, x);
        fb.out_i(c);
        fb.out_i(a);
        fb.out_i(b);
        fb.br(load4);
        fb.switch_to(load4);
        for idx in [0i64, 1, 0, 1] {
            fb.load(Ty::I64, s, idx);
        }
        fb.out_i(x);
        fb.br(load_cmp_br);
        fb.switch_to(load_cmp_br);
        let a = fb.load(Ty::I64, s, 0i64);
        let c = fb.cmp(CmpOp::Lt, a, 9i64);
        fb.cond_br(c, latch, exit);
        fb.switch_to(latch);
        let a = fb.load(Ty::I64, s, 0i64);
        let b = fb.add(Ty::I64, a, 1i64);
        fb.store(s, 0i64, b);
        fb.br(load_cmp_br);
        fb.switch_to(exit);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();

        let mut seen = std::collections::BTreeSet::new();
        for di in &decode_module(&m).generic.funcs[0].code {
            let debug = format!("{:?}", di.op);
            let variant = debug.split([' ', '{']).next().unwrap();
            assert_eq!(OP_NAMES[di.op.index()], variant);
            assert_eq!(di.op.index() >= FIRST_FUSED, di.op.width() > 1, "{variant}");
            seen.insert(di.op.index());
        }
        let missing: Vec<_> = (0..OP_NAMES.len())
            .filter(|i| !seen.contains(i))
            .map(|i| OP_NAMES[i])
            .collect();
        assert!(missing.is_empty(), "no decoded op is a {missing:?}");
    }

    /// Every state the reference walk checkpoints hashes — and compares —
    /// equal to the same state held in the decoded arenas, wherever the
    /// boundary falls: on an instruction slot of its own or between the
    /// halves of a superinstruction, at any call depth.
    #[test]
    fn decoded_state_digests_equal_oracle_digests_at_every_boundary() {
        let src = r#"
fn rec(x: int) -> int {
    if x <= 1 { return 1; }
    return rec(x - 1) + x;
}

fn main() {
    let n = arg_i(0);
    let buf: [int] = alloc(16);
    let acc = 3;
    for i = 0 to n {
        buf[i % 16] = buf[(i + 1) % 16] + acc * i;
        acc = acc + buf[i % 16] % 7;
        if acc % 5 == 0 { out_i(acc); }
    }
    out_i(rec(n % 6 + 2));
    out_i(acc);
}
"#;
        let m = minic::compile(src, "digest").unwrap();
        let input = ProgInput::scalars(vec![Scalar::I(40)]);
        let interp = Interp::new(&m, ExecConfig::default());
        for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
            let cfg = CheckpointConfig {
                interval: 1,
                mode,
                ..CheckpointConfig::default()
            };
            let capture = Run {
                start: Start::Capture(cfg),
                ..Run::new(&input)
            };
            let (golden, store) = crate::oracle::execute(&interp, &capture);
            let store = store.expect("a capturing run captures");
            assert!(golden.exited());
            assert_eq!(store.len() as u64, golden.steps - 1, "one per boundary");

            let mut scratch = ExecScratch::default();
            scratch.start_decoded(interp.decoded());
            let mut conv = Converge::audit(&interp, &store);
            let r = run_loop::<false, false, false>(
                &interp,
                &mut scratch,
                &input,
                None,
                None,
                &mut conv,
            )
            .expect("the clean loop runs to a termination");
            assert_eq!(r.output, golden.output);
            assert_eq!(r.converged_at, None, "an audit never exits early");

            let log = conv.audit.expect("audit mode");
            let visited: Vec<usize> = log.iter().map(|v| v.0).collect();
            assert_eq!(visited, (0..store.len()).collect::<Vec<_>>());
            for &(k, digest_eq, exact, mid_fused) in &log {
                assert!(
                    digest_eq,
                    "digest differs at boundary {k} (fused: {mid_fused})"
                );
                assert!(exact, "state differs at boundary {k} (fused: {mid_fused})");
            }
            let fused = log.iter().filter(|v| v.3).count();
            assert!(fused > 0, "no boundary fell inside a superinstruction");
            assert!(fused < log.len(), "every boundary fell inside one");

            // the observed loop captures at those same boundaries — the
            // ones inside a superinstruction included — the very store
            let (_, captured) = interp.run_with_checkpoint_store(&input, cfg);
            assert!(
                crate::wire::encode_checkpoints(&captured)
                    == crate::wire::encode_checkpoints(&store),
                "{mode:?} store images differ"
            );

            // and a run that stops between the halves of a superinstruction
            // (the step limit expires on the second one) profiles and
            // traces like the reference walk
            for &(k, ..) in log.iter().filter(|v| v.3) {
                let cut = Interp::new(
                    &m,
                    ExecConfig {
                        step_limit: store.steps_at(k),
                        profile: true,
                        trace: true,
                        ..ExecConfig::default()
                    },
                );
                let stopped = cut.run(&input);
                let reference = crate::oracle::execute(&cut, &Run::new(&input)).0;
                assert_eq!(stopped.termination, Termination::StepLimit);
                assert_eq!(stopped.steps, reference.steps);
                assert_eq!(stopped.profile, reference.profile, "boundary {k}");
                assert_eq!(stopped.trace, reference.trace, "boundary {k}");
            }
        }
    }
}
