//! Per-opcode cycle cost model.
//!
//! SID's knapsack *cost* for an instruction is its share of dynamic cycles
//! (paper Eq. 1). Because the reproduction runs interpreted rather than on
//! the authors' Xeon testbed, cycles come from a latency table patterned on
//! published per-op latencies of a modern out-of-order x86 core. Absolute
//! values only need to be *relatively* plausible — the knapsack normalizes
//! by total cycles — so the table favours simplicity.

use crate::bytes::Fnv;
use crate::inst::{BinOp, InstKind, UnOp};
use crate::types::Ty;

/// Configurable per-opcode cycle latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    pub int_alu: u64,
    pub int_mul: u64,
    pub int_div: u64,
    pub fp_add: u64,
    pub fp_mul: u64,
    pub fp_div: u64,
    pub fp_sqrt: u64,
    pub fp_trans: u64,
    pub mem: u64,
    pub branch: u64,
    pub call: u64,
    pub io: u64,
    pub check: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 3,
            fp_mul: 4,
            fp_div: 14,
            fp_sqrt: 15,
            fp_trans: 25,
            mem: 4,
            branch: 1,
            call: 4,
            io: 4,
            check: 1,
        }
    }
}

impl CostModel {
    /// Cycle cost of one dynamic execution of `kind` with result type `ty`.
    pub fn cycles(&self, kind: &InstKind, ty: Option<Ty>) -> u64 {
        match kind {
            InstKind::Param { .. } => 0,
            InstKind::Bin { op, .. } => {
                let fp = ty == Some(Ty::F64);
                match op {
                    BinOp::Mul => {
                        if fp {
                            self.fp_mul
                        } else {
                            self.int_mul
                        }
                    }
                    BinOp::Div | BinOp::Rem => {
                        if fp {
                            self.fp_div
                        } else {
                            self.int_div
                        }
                    }
                    _ => {
                        if fp {
                            self.fp_add
                        } else {
                            self.int_alu
                        }
                    }
                }
            }
            InstKind::Un { op, .. } => match op {
                UnOp::Sqrt => self.fp_sqrt,
                UnOp::Sin | UnOp::Cos | UnOp::Exp | UnOp::Log => self.fp_trans,
                _ => {
                    if ty == Some(Ty::F64) {
                        self.fp_add
                    } else {
                        self.int_alu
                    }
                }
            },
            InstKind::Cmp { .. } | InstKind::Select { .. } | InstKind::Cast { .. } => self.int_alu,
            InstKind::Alloc { .. } => self.call,
            InstKind::Salloc { .. } => self.int_alu,
            InstKind::Load { .. } | InstKind::Store { .. } => self.mem,
            InstKind::Call { .. } => self.call,
            InstKind::NArgs
            | InstKind::ArgI { .. }
            | InstKind::ArgF { .. }
            | InstKind::DataLen { .. }
            | InstKind::DataI { .. }
            | InstKind::DataF { .. }
            | InstKind::OutI { .. }
            | InstKind::OutF { .. } => self.io,
            InstKind::Check { .. } => self.check,
            InstKind::Br { .. } | InstKind::CondBr { .. } | InstKind::Ret { .. } => self.branch,
        }
    }

    /// Feed the latencies to a key, each as `{:?}` renders it: every one
    /// sets cycle costs a profile reports, so every one enters.
    pub fn key(&self, h: &mut Fnv) {
        let CostModel {
            int_alu,
            int_mul,
            int_div,
            fp_add,
            fp_mul,
            fp_div,
            fp_sqrt,
            fp_trans,
            mem,
            branch,
            call,
            io,
            check,
        } = self;
        h.text(format_args!(
            "CostModel {{ int_alu: {int_alu:?}, int_mul: {int_mul:?}, int_div: {int_div:?}, \
             fp_add: {fp_add:?}, fp_mul: {fp_mul:?}, fp_div: {fp_div:?}, fp_sqrt: {fp_sqrt:?}, \
             fp_trans: {fp_trans:?}, mem: {mem:?}, branch: {branch:?}, call: {call:?}, \
             io: {io:?}, check: {check:?} }}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    #[test]
    fn fp_ops_cost_more_than_int() {
        let cm = CostModel::default();
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
        assert!(cm.cycles(&fp_add, Some(Ty::F64)) > cm.cycles(&int_add, Some(Ty::I64)));
    }

    #[test]
    fn division_dominates_addition() {
        let cm = CostModel::default();
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
        assert!(cm.cycles(&div, Some(Ty::I64)) > 10 * cm.cycles(&add, Some(Ty::I64)));
    }

    #[test]
    fn params_are_free() {
        let cm = CostModel::default();
        assert_eq!(cm.cycles(&InstKind::Param { n: 0 }, Some(Ty::I64)), 0);
    }

    #[test]
    fn transcendentals_are_the_most_expensive_alu_ops() {
        let cm = CostModel::default();
        let sin = InstKind::Un {
            op: UnOp::Sin,
            arg: Operand::ConstF(1.0),
        };
        assert_eq!(cm.cycles(&sin, Some(Ty::F64)), cm.fp_trans);
    }
}
