//! Dynamic execution profiles.
//!
//! A [`Profile`] captures the three signals the pipeline needs:
//!
//! 1. **Per-instruction dynamic counts and cycles** — SID's knapsack cost
//!    (Eq. 1) and the denominator of per-instruction FI sampling.
//! 2. **Per-block entry counts** — the *indexed weighted-CFG list* of
//!    paper Fig. 5, which the GA fitness function (Eq. 3) compares across
//!    inputs.
//! 3. **Per-edge execution counts** — the weighted CFG proper.

use minpsid_ir::{BlockId, FuncId, Module};
use std::collections::HashMap;

/// Dynamic profile of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Dynamic execution count per static instruction, dense in module
    /// numbering order.
    pub inst_counts: Vec<u64>,
    /// Total cycles attributed to each static instruction.
    pub inst_cycles: Vec<u64>,
    /// Entry count per basic block: `block_counts[func][block]`.
    pub block_counts: Vec<Vec<u64>>,
    /// Execution count per CFG edge, keyed `(from, to)`, per function.
    pub edge_counts: Vec<HashMap<(BlockId, BlockId), u64>>,
    /// Sum of `inst_cycles`.
    pub total_cycles: u64,
    /// Total dynamic instructions executed.
    pub total_insts: u64,
    /// Total dynamic executions of injectable instructions (the population
    /// whole-program random injection samples from).
    pub injectable_execs: u64,
    /// First dynamic step (1-based; 0 = function never executed) at which
    /// each function ran an instruction. Together with
    /// [`Profile::sec_last_step`] this is the per-section dynamic-instruction
    /// range the compositional FI planner uses.
    pub sec_first_step: Vec<u64>,
    /// Last dynamic step (1-based; 0 = never executed) per function.
    pub sec_last_step: Vec<u64>,
}

impl Profile {
    /// Empty profile shaped for `module`.
    pub fn for_module(module: &Module) -> Self {
        let n = module.num_insts();
        Profile {
            inst_counts: vec![0; n],
            inst_cycles: vec![0; n],
            block_counts: module
                .funcs
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
            edge_counts: module.funcs.iter().map(|_| HashMap::new()).collect(),
            total_cycles: 0,
            total_insts: 0,
            injectable_execs: 0,
            sec_first_step: vec![0; module.funcs.len()],
            sec_last_step: vec![0; module.funcs.len()],
        }
    }

    /// Dynamic step range `[first, last]` of a function, if it ever ran.
    pub fn section_range(&self, func: FuncId) -> Option<(u64, u64)> {
        let first = self.sec_first_step[func.index()];
        (first != 0).then(|| (first, self.sec_last_step[func.index()]))
    }

    /// The indexed weighted-CFG list of the *whole program*: the per-block
    /// entry counts of every function, concatenated in function order.
    /// This is the vector `L = {i_1, …, i_N}` of paper Eq. 3.
    pub fn indexed_cfg_list(&self) -> Vec<u64> {
        self.block_counts.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_ir::{ModuleBuilder, Ty};

    #[test]
    fn indexed_cfg_list_concatenates_functions() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let helper = mb.declare("h", vec![], Some(Ty::I64));
        let mut fb = mb.body(helper);
        fb.ret(1i64);
        mb.define(fb);
        let mut fb = mb.body(main);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();

        let mut p = Profile::for_module(&m);
        p.block_counts[0][0] = 7;
        p.block_counts[1][0] = 3;
        assert_eq!(p.indexed_cfg_list(), vec![7, 3]);
    }

    #[test]
    fn empty_profile_is_zeroed() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let p = Profile::for_module(&m);
        assert_eq!(p.total_cycles, 0);
        assert_eq!(p.inst_counts, vec![0]);
        assert!(p.edge_counts[0].is_empty());
    }
}
