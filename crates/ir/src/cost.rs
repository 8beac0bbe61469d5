//! Per-opcode cycle cost model.
//!
//! SID's knapsack *cost* for an instruction is its share of dynamic cycles
//! (paper Eq. 1). Because the reproduction runs interpreted rather than on
//! the authors' Xeon testbed, cycles come from a latency table patterned on
//! published per-op latencies of a modern out-of-order x86 core. Absolute
//! values only need to be *relatively* plausible — the knapsack normalizes
//! by total cycles — so the table favours simplicity. It is a constant:
//! nothing ever ran with other latencies.

use crate::bytes::Fnv;
use crate::inst::{BinOp, InstKind, UnOp};
use crate::types::Ty;

const INT_ALU: u64 = 1;
const INT_MUL: u64 = 3;
const INT_DIV: u64 = 20;
const FP_ADD: u64 = 3;
const FP_MUL: u64 = 4;
const FP_DIV: u64 = 14;
const FP_SQRT: u64 = 15;
const FP_TRANS: u64 = 25;
const MEM: u64 = 4;
const BRANCH: u64 = 1;
const CALL: u64 = 4;
const IO: u64 = 4;
const CHECK: u64 = 1;

/// Cycle cost of one dynamic execution of `kind` with result type `ty`.
pub fn cycles(kind: &InstKind, ty: Option<Ty>) -> u64 {
    let fp = ty == Some(Ty::F64);
    match kind {
        InstKind::Param { .. } => 0,
        InstKind::Bin { op, .. } => match (op, fp) {
            (BinOp::Mul, true) => FP_MUL,
            (BinOp::Mul, false) => INT_MUL,
            (BinOp::Div | BinOp::Rem, true) => FP_DIV,
            (BinOp::Div | BinOp::Rem, false) => INT_DIV,
            (_, true) => FP_ADD,
            (_, false) => INT_ALU,
        },
        InstKind::Un { op, .. } => match op {
            UnOp::Sqrt => FP_SQRT,
            UnOp::Sin | UnOp::Cos | UnOp::Exp | UnOp::Log => FP_TRANS,
            _ if fp => FP_ADD,
            _ => INT_ALU,
        },
        InstKind::Cmp { .. } | InstKind::Select { .. } | InstKind::Cast { .. } => INT_ALU,
        InstKind::Alloc { .. } => CALL,
        InstKind::Salloc { .. } => INT_ALU,
        InstKind::Load { .. } | InstKind::Store { .. } => MEM,
        InstKind::Call { .. } => CALL,
        InstKind::NArgs
        | InstKind::ArgI { .. }
        | InstKind::ArgF { .. }
        | InstKind::DataLen { .. }
        | InstKind::DataI { .. }
        | InstKind::DataF { .. }
        | InstKind::OutI { .. }
        | InstKind::OutF { .. } => IO,
        InstKind::Check { .. } => CHECK,
        InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. } => BRANCH,
    }
}

/// Feed the latencies to a key, as the text the settable `CostModel`
/// they replaced rendered, so no key written before moved: every one sets
/// cycle costs a profile reports, so every one enters.
pub fn key(h: &mut Fnv) {
    h.text(format_args!(
        "CostModel {{ int_alu: {INT_ALU:?}, int_mul: {INT_MUL:?}, int_div: {INT_DIV:?}, \
         fp_add: {FP_ADD:?}, fp_mul: {FP_MUL:?}, fp_div: {FP_DIV:?}, fp_sqrt: {FP_SQRT:?}, \
         fp_trans: {FP_TRANS:?}, mem: {MEM:?}, branch: {BRANCH:?}, call: {CALL:?}, \
         io: {IO:?}, check: {CHECK:?} }}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    #[test]
    fn fp_ops_cost_more_than_int() {
        let int_add = InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::ConstI(1),
            rhs: Operand::ConstI(2),
        };
        let fp_add = InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::ConstF(1.0),
            rhs: Operand::ConstF(2.0),
        };
        assert!(cycles(&fp_add, Some(Ty::F64)) > cycles(&int_add, Some(Ty::I64)));
    }

    #[test]
    fn division_dominates_addition() {
        let div = InstKind::Bin {
            op: BinOp::Div,
            lhs: Operand::ConstI(1),
            rhs: Operand::ConstI(2),
        };
        let add = InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::ConstI(1),
            rhs: Operand::ConstI(2),
        };
        assert!(cycles(&div, Some(Ty::I64)) > 10 * cycles(&add, Some(Ty::I64)));
    }

    #[test]
    fn params_are_free() {
        assert_eq!(cycles(&InstKind::Param { n: 0 }, Some(Ty::I64)), 0);
    }

    #[test]
    fn transcendentals_are_the_most_expensive_alu_ops() {
        let sin = InstKind::Un {
            op: UnOp::Sin,
            arg: Operand::ConstF(1.0),
        };
        assert_eq!(cycles(&sin, Some(Ty::F64)), FP_TRANS);
    }
}
