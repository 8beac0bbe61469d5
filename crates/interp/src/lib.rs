//! # minpsid-interp — deterministic interpreter for the minpsid IR
//!
//! This crate plays the role that native execution plus LLFI's runtime
//! instrumentation play in the paper:
//!
//! * it executes a verified [`minpsid_ir::Module`] against a
//!   [`ProgInput`] (scalar arguments + bulk data streams), producing the
//!   program *output stream* whose bit-exact comparison against a golden
//!   run defines an SDC;
//! * it can apply a [`FaultSpec`] — a single-bit flip in the return value
//!   of one chosen dynamic instruction — exactly once per run, which is the
//!   paper's fault model (§II-A, §III-A3);
//! * it classifies abnormal termination (traps → crash, step budget →
//!   hang, duplication-check mismatch → detected);
//! * it optionally collects a [`Profile`]: per-instruction dynamic counts
//!   (times each instruction's static cost, SID's cost input, Eq. 1) and
//!   per-block entry counts (the *indexed weighted-CFG list* of Fig. 5).
//!
//! Determinism is total: same module + same input + same fault spec ⇒ same
//! result, which is what lets fault-injection campaigns run embarrassingly
//! parallel with no coordination. Determinism is also what makes
//! checkpointed fault injection sound: a golden run can capture
//! [`Snapshot`]s of complete machine state, and a faulty run resumed from
//! the nearest snapshot before its injection point is bit-identical to a
//! from-scratch run (see [`snapshot`]).

pub mod converge;
pub mod decode;
pub mod exec;
pub mod fault;
mod hang;
mod observe;
#[doc(hidden)]
pub mod oracle;
pub mod profile;
pub mod snapshot;
pub mod value;
pub mod wire;

pub use converge::{divergence, memory_only_difference, ConvergeStats, Divergence};
pub use decode::ExecScratch;
pub use exec::{
    ExecConfig, ExecResult, Interp, MachineState, Run, Start, Termination, TraceEvent, TrapKind,
};
pub use fault::{flip_bit, FaultSpec, FaultTarget};
pub use profile::Profile;
pub use snapshot::{auto_interval, CheckpointConfig, CheckpointStore, Snapshot, SnapshotMode};
pub use value::{Output, OutputItem, ProgInput, Scalar, Stream, Value};
