//! Dynamic execution profiles.
//!
//! A [`Profile`] holds what one run counts, in the shape its readers use:
//!
//! 1. **Per-instruction dynamic counts** — the denominator of
//!    per-instruction FI sampling and, times each instruction's static
//!    cycle cost ([`Profile::inst_cycles`]), SID's knapsack cost (Eq. 1).
//! 2. **Per-block entry counts** — the *indexed weighted-CFG list* of
//!    paper Fig. 5, which the GA fitness function (Eq. 3) compares across
//!    inputs.

use minpsid_ir::{FuncId, Module};

/// Dynamic profile of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Dynamic execution count per static instruction, dense in module
    /// numbering order.
    pub inst_counts: Vec<u64>,
    /// Entry count per basic block, numbered in function order, then
    /// block order: the list `L = {i_1, …, i_N}` of paper Eq. 3.
    pub block_counts: Vec<u64>,
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
        Profile {
            inst_counts: vec![0; module.num_insts()],
            block_counts: vec![0; module.funcs.iter().map(|f| f.blocks.len()).sum()],
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

    /// The indexed weighted-CFG list of the *whole program*: a copy of
    /// [`Profile::block_counts`].
    pub fn indexed_cfg_list(&self) -> Vec<u64> {
        self.block_counts.clone()
    }

    /// Cycles spent in each static instruction of `module` (dense): its
    /// dynamic count times its cost per execution.
    pub fn inst_cycles(&self, module: &Module) -> Vec<u64> {
        assert_eq!(self.inst_counts.len(), module.num_insts());
        module
            .iter_insts()
            .zip(&self.inst_counts)
            .map(|((_, inst), &n)| n * minpsid_ir::cycles(&inst.kind, inst.ty))
            .collect()
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
        p.block_counts[0] = 7;
        p.block_counts[1] = 3;
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
        assert_eq!(p.inst_counts, vec![0]);
        assert_eq!(p.block_counts, vec![0]);
        assert_eq!(p.inst_cycles(&m), vec![0]);
    }
}
