//! # minpsid-ir — the typed register IR underlying the MINPSID reproduction
//!
//! The SC'22 MINPSID paper performs all of its analyses (fault injection,
//! selective instruction duplication, weighted-CFG profiling) at the LLVM IR
//! level. This crate provides the equivalent substrate: a small, typed,
//! platform-neutral register IR with
//!
//! * values produced by instructions (every instruction has at most one
//!   typed result — the "return value" that the fault model bit-flips),
//! * functions made of basic blocks ending in a single terminator,
//! * an explicit control-flow graph with analyses (successors, predecessors,
//!   reverse postorder, dominators, natural-loop detection),
//! * a builder API for constructing modules programmatically,
//! * a verifier enforcing type- and dominance-correctness, and
//! * a per-opcode cycle cost model used for SID cost accounting (Eq. 1 of
//!   the paper).
//!
//! The IR is deliberately LLVM-shaped where it matters for the paper:
//! instructions are the unit of fault injection, duplication, and
//! cost/benefit bookkeeping, and each `(function, instruction)` pair has a
//! stable [`GlobalInstId`] used to key every profile in the pipeline.
//!
//! Locals are modelled with `Alloc`/`Load`/`Store` (pre-`mem2reg` LLVM
//! style) rather than phi nodes; this matches how the `minic` front end
//! lowers mutable variables and keeps dominance checking simple.

pub mod builder;
pub mod bytes;
pub mod cfg;
pub mod cost;
pub mod dom;
pub mod fingerprint;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use cfg::Cfg;
pub use cost::cycles;
pub use dom::DomTree;
pub use fingerprint::section_fingerprints;
pub use inst::{BinOp, CmpOp, Inst, InstId, InstKind, Operand, UnOp};
pub use module::{Block, BlockId, FuncId, Function, GlobalInstId, Module};
pub use types::Ty;
pub use verify::{verify_module, VerifyError};
