//! The fault specification applied by the interpreter.
//!
//! A [`FaultSpec`] pins down *one* transient hardware fault: which dynamic
//! instruction execution is hit and which bit of its return value flips.
//! The spec is constructed by `minpsid-faultsim` (which owns the sampling
//! policy) and consumed here (which owns the semantics).

use crate::value::Value;
use minpsid_ir::GlobalInstId;

/// Which dynamic instruction execution the fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The `n`-th (0-based) dynamic execution of *any* injectable
    /// instruction in the run — LLFI's whole-program random injection.
    NthDynamic(u64),
    /// The `n`-th (0-based) dynamic execution of one specific static
    /// instruction — used for per-instruction SDC-probability measurement.
    NthOfInst(GlobalInstId, u64),
}

/// A single-bit-flip fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    pub target: FaultTarget,
    /// Bit position to flip. For `Bool` results any value flips the bit;
    /// for 64-bit results it is taken modulo 64.
    pub bit: u32,
}

/// Flip `bit` in a runtime value, reinterpreting floats and pointers as
/// their 64-bit patterns (exactly what a flip in a physical register does).
/// Inlined into both dispatch loops' fault-fire paths: it sits on the
/// per-step injection-counter check, the hottest branch in a campaign.
#[inline]
pub fn flip_bit(v: Value, bit: u32) -> Value {
    match v {
        Value::I(x) => Value::I(x ^ (1i64 << (bit % 64))),
        Value::F(x) => Value::F(f64::from_bits(x.to_bits() ^ (1u64 << (bit % 64)))),
        Value::B(b) => Value::B(!b),
        Value::P(p) => Value::P(p ^ (1u64 << (bit % 64))),
        Value::Undef => Value::Undef,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_flip_is_involutive() {
        let v = Value::I(0x1234_5678_9abc_def0);
        for bit in [0, 17, 63] {
            assert_eq!(flip_bit(flip_bit(v, bit), bit), v);
        }
    }

    #[test]
    fn float_flip_targets_ieee_bits() {
        // flipping bit 63 of a double flips its sign
        let v = flip_bit(Value::F(1.5), 63);
        assert_eq!(v, Value::F(-1.5));
        // flipping a high exponent bit makes the value huge
        let v = flip_bit(Value::F(1.0), 62);
        let x = v.as_f().unwrap();
        assert!(x > 1e300 || x.is_infinite());
    }

    #[test]
    fn bool_flip_inverts() {
        assert_eq!(flip_bit(Value::B(true), 0), Value::B(false));
        assert_eq!(flip_bit(Value::B(false), 12), Value::B(true));
    }

    #[test]
    fn pointer_flip_changes_offset() {
        let v = flip_bit(Value::P(8), 1);
        assert_eq!(v, Value::P(10));
    }

    #[test]
    fn bit_is_taken_mod_64() {
        assert_eq!(flip_bit(Value::I(0), 64), Value::I(1));
    }
}
