//! Sampling profiler for the decoded dispatch loop.
//!
//! Pricing a superinstruction (EXPERIMENTS.md "The fusion table earns its
//! keep") starts from per-opcode attribution: how many of a run's steps
//! each op kind carries. This module answers that with statistical
//! sampling:
//! every `sample_every` interpreter steps, the op at the current pc gets
//! one sample. Samples attribute to the *carrying* op, so a fused
//! superinstruction accumulates samples for all of its halves — exactly
//! the per-superinstruction attribution needed to judge fusion choices.
//!
//! ## Why process-global state
//!
//! The profiler is deliberately *not* part of [`ExecConfig`]: config
//! fields feed the journal fingerprint (a resumed campaign must match its
//! WAL header), so a profiling knob there would change replay identity.
//! Instead the decoded loop reads one atomic at entry; enabling the
//! profiler changes *nothing* about execution semantics (sampling shares
//! the existing folded `next_pause` compare, so the disabled cost is zero
//! and the enabled cost is one extra min() whenever the cold pause path
//! runs).
//!
//! Determinism invariant: sampling only ever *reads* interpreter state.
//! Reports and WAL bytes are identical with the profiler on or off
//! (enforced by `tests/engine_equivalence.rs`).
//!
//! [`ExecConfig`]: crate::ExecConfig

use crate::decode::OP_NAMES;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of decoded op kinds ([`DOp`] variants).
///
/// [`DOp`]: crate::decode::DOp
pub const NUM_OPS: usize = OP_NAMES.len();

/// Index of the first fused superinstruction in [`OP_NAMES`] order;
/// indices below this are straight-line single ops (held to the decoder's
/// own tables by its `every_op_kind_is_declared_once` test).
pub const FIRST_FUSED: usize = 28;

/// Default sampling interval (steps between samples). Each sample costs
/// one hot-loop exit through the cold pause path, so on a ~3 ns/step
/// interpreter the interval sets the overhead directly: 8192 measures
/// under the 2% budget on the committed baseline (a 1024-step interval
/// benched at ~3.5% on hpccg),
/// while still collecting ~10⁴ samples/s — ample for per-op attribution
/// over a campaign's thousands of runs.
pub const DEFAULT_SAMPLE_EVERY: u64 = 8192;

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SAMPLES: [AtomicU64; NUM_OPS] = [ZERO; NUM_OPS];

static FUSED_SITES: AtomicU64 = AtomicU64::new(0);
static TOTAL_SITES: AtomicU64 = AtomicU64::new(0);
static SLOT_HALVES: AtomicU64 = AtomicU64::new(0);
static MEM_HALVES: AtomicU64 = AtomicU64::new(0);
static ENCODE_NS: AtomicU64 = AtomicU64::new(0);
static ENCODE_OPS: AtomicU64 = AtomicU64::new(0);
static RESTORE_NS: AtomicU64 = AtomicU64::new(0);
static RESTORE_OPS: AtomicU64 = AtomicU64::new(0);

/// Turn sampling on with the given interval (0 falls back to the
/// default). Affects every decoded run in the process from the next
/// loop entry on.
pub fn enable(sample_every: u64) {
    let every = if sample_every == 0 {
        DEFAULT_SAMPLE_EVERY
    } else {
        sample_every
    };
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Turn sampling off (accumulated samples are kept until [`reset`]).
pub fn disable() {
    SAMPLE_EVERY.store(0, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    SAMPLE_EVERY.load(Ordering::Relaxed) != 0
}

/// Current interval; 0 means off. Read once per `exec_loop` entry.
pub(crate) fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Record one sample for op index `op`. Called from the cold pause path
/// only — frequency is 1/sample_every, so a relaxed shared add is fine.
#[inline]
pub(crate) fn record(op: usize) {
    SAMPLES[op].fetch_add(1, Ordering::Relaxed);
}

/// Record static fusion and slot-addressing stats from one module decode
/// (idempotent store: re-decoding the same module overwrites with
/// identical values; the last decoded module wins if several differ).
pub(crate) fn record_decode_stats(
    fused_sites: u64,
    total_sites: u64,
    slot_halves: u64,
    mem_halves: u64,
) {
    FUSED_SITES.store(fused_sites, Ordering::Relaxed);
    TOTAL_SITES.store(total_sites, Ordering::Relaxed);
    SLOT_HALVES.store(slot_halves, Ordering::Relaxed);
    MEM_HALVES.store(mem_halves, Ordering::Relaxed);
}

/// Account one checkpoint encode (capture) of `ns` nanoseconds.
pub(crate) fn add_encode(ns: u64) {
    ENCODE_NS.fetch_add(ns, Ordering::Relaxed);
    ENCODE_OPS.fetch_add(1, Ordering::Relaxed);
}

/// Account one checkpoint restore of `ns` nanoseconds.
pub(crate) fn add_restore(ns: u64) {
    RESTORE_NS.fetch_add(ns, Ordering::Relaxed);
    RESTORE_OPS.fetch_add(1, Ordering::Relaxed);
}

/// Zero all accumulated samples and accounting (the interval setting is
/// untouched). Tests and back-to-back campaigns use this.
pub fn reset() {
    for s in &SAMPLES {
        s.store(0, Ordering::Relaxed);
    }
    FUSED_SITES.store(0, Ordering::Relaxed);
    TOTAL_SITES.store(0, Ordering::Relaxed);
    SLOT_HALVES.store(0, Ordering::Relaxed);
    MEM_HALVES.store(0, Ordering::Relaxed);
    ENCODE_NS.store(0, Ordering::Relaxed);
    ENCODE_OPS.store(0, Ordering::Relaxed);
    RESTORE_NS.store(0, Ordering::Relaxed);
    RESTORE_OPS.store(0, Ordering::Relaxed);
}

/// One consistent-enough view of the accumulated profile (reads are
/// relaxed; call after the runs of interest have finished).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterpProfileReport {
    /// Interval the samples were taken at (0 if profiling never ran).
    pub sample_every: u64,
    pub total_samples: u64,
    /// Samples attributed to fused superinstructions.
    pub fused_samples: u64,
    /// Static fused carrier slots in the last decoded module.
    pub fused_sites: u64,
    /// Total decoded slots in the last decoded module.
    pub total_sites: u64,
    /// Static loads and stores of the last decoded module that address a
    /// stack slot at decode time.
    pub slot_halves: u64,
    /// All static loads and stores of the last decoded module.
    pub mem_halves: u64,
    pub encode_ns: u64,
    pub encode_ops: u64,
    pub restore_ns: u64,
    pub restore_ops: u64,
    /// `(op name, samples)`, nonzero entries only, descending by count
    /// (ties broken by name for stable output).
    pub samples: Vec<(String, u64)>,
}

impl InterpProfileReport {
    /// Fraction of dynamic samples landing in fused superinstructions.
    pub fn fused_sample_rate(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.fused_samples as f64 / self.total_samples as f64
        }
    }

    /// Flamegraph-compatible folded-stacks rendering: one
    /// `minpsid;interp;<op> <count>` line per sampled op, in the same
    /// descending order as [`InterpProfileReport::samples`].
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (name, n) in &self.samples {
            out.push_str("minpsid;interp;");
            out.push_str(name);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

/// Snapshot the accumulated profile.
pub fn snapshot() -> InterpProfileReport {
    let mut samples = Vec::new();
    let mut total = 0u64;
    let mut fused = 0u64;
    for (i, s) in SAMPLES.iter().enumerate() {
        let n = s.load(Ordering::Relaxed);
        if n > 0 {
            total += n;
            if i >= FIRST_FUSED {
                fused += n;
            }
            samples.push((OP_NAMES[i].to_string(), n));
        }
    }
    samples.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    InterpProfileReport {
        sample_every: SAMPLE_EVERY.load(Ordering::Relaxed),
        total_samples: total,
        fused_samples: fused,
        fused_sites: FUSED_SITES.load(Ordering::Relaxed),
        total_sites: TOTAL_SITES.load(Ordering::Relaxed),
        slot_halves: SLOT_HALVES.load(Ordering::Relaxed),
        mem_halves: MEM_HALVES.load(Ordering::Relaxed),
        encode_ns: ENCODE_NS.load(Ordering::Relaxed),
        encode_ops: ENCODE_OPS.load(Ordering::Relaxed),
        restore_ns: RESTORE_NS.load(Ordering::Relaxed),
        restore_ops: RESTORE_OPS.load(Ordering::Relaxed),
        samples,
    }
}
