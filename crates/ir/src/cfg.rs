//! Control-flow graph extraction and traversals.
//!
//! MINPSID's input search engine is driven by the *static CFG* built at
//! compilation (paper Fig. 4 step ③, Fig. 5): each node is a basic block,
//! each edge a possible transfer. The dynamic profiler later attaches
//! execution counts to these edges to form the weighted CFG.

use crate::inst::InstKind;
use crate::module::{BlockId, Function};

/// The static control-flow graph of one function.
///
/// Successors and predecessors are stored flat: block `b`'s successors
/// are `succ[succ_at[b]..succ_at[b + 1]]` and its predecessors likewise in
/// `pred`/`pred_at`, so building one costs a handful of allocations
/// whatever the number of blocks.
#[derive(Debug, Clone)]
pub struct Cfg {
    succ: Vec<BlockId>,
    succ_at: Vec<u32>,
    pred: Vec<BlockId>,
    pred_at: Vec<u32>,
    /// All edges `(from, to)` in block order, deduplicated.
    edges: Vec<(BlockId, BlockId)>,
}

impl Cfg {
    /// Build the CFG from a function's terminators.
    pub fn build(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut edges = Vec::new();
        let mut succ_at = Vec::with_capacity(n + 1);
        succ_at.push(0);
        for (bid, block) in func.iter_blocks() {
            if let Some(term) = block.terminator() {
                let targets = match &func.inst(term).kind {
                    InstKind::Br { target } => [Some(*target), None],
                    InstKind::CondBr { then_b, else_b, .. } => {
                        [Some(*then_b), (then_b != else_b).then_some(*else_b)]
                    }
                    _ => [None, None],
                };
                edges.extend(targets.into_iter().flatten().map(|t| (bid, t)));
            }
            succ_at.push(edges.len() as u32);
        }
        let succ = edges.iter().map(|&(_, to)| to).collect();
        // predecessors: the edges sorted by target, stably (block order)
        let mut pred_at = vec![0u32; n + 1];
        for &(_, to) in &edges {
            pred_at[to.index() + 1] += 1;
        }
        for b in 0..n {
            pred_at[b + 1] += pred_at[b];
        }
        let mut next = pred_at.clone();
        let mut pred = vec![BlockId(0); edges.len()];
        for &(from, to) in &edges {
            pred[next[to.index()] as usize] = from;
            next[to.index()] += 1;
        }
        Cfg {
            succ,
            succ_at,
            pred,
            pred_at,
            edges,
        }
    }

    pub fn num_blocks(&self) -> usize {
        self.succ_at.len() - 1
    }

    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succ[self.succ_at[b.index()] as usize..self.succ_at[b.index() + 1] as usize]
    }

    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.pred[self.pred_at[b.index()] as usize..self.pred_at[b.index() + 1] as usize]
    }

    /// All CFG edges in emission order.
    pub fn edges(&self) -> &[(BlockId, BlockId)] {
        &self.edges
    }

    /// Blocks reachable from the entry, in reverse postorder. Unreachable
    /// blocks are omitted (they get no profile weight either).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.num_blocks();
        if n == 0 {
            return vec![];
        }
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // iterative DFS with explicit successor cursor
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            let succs = self.succs(b);
            if *cursor < succs.len() {
                let s = succs[*cursor];
                *cursor += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::CmpOp;
    use crate::types::Ty;

    /// entry -> (loop_head -> loop_body -> loop_head | exit)
    fn loop_func() -> crate::module::Module {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let head = fb.new_block("head");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, 0i64, 10i64);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let _ = fb.add(Ty::I64, 1i64, 1i64);
        fb.br(head);
        fb.switch_to(exit);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    }

    #[test]
    fn builds_loop_cfg() {
        let m = loop_func();
        let cfg = Cfg::build(m.func(m.entry));
        assert_eq!(cfg.num_blocks(), 4);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1)]);
        assert_eq!(cfg.succs(BlockId(1)), &[BlockId(2), BlockId(3)]);
        assert_eq!(cfg.succs(BlockId(2)), &[BlockId(1)]);
        assert_eq!(cfg.preds(BlockId(1)).len(), 2);
        assert_eq!(cfg.edges().len(), 4);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m = loop_func();
        let cfg = Cfg::build(m.func(m.entry));
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn detects_unreachable_block() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let dead = fb.new_block("dead");
        fb.ret_void();
        fb.switch_to(dead);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let cfg = Cfg::build(m.func(m.entry));
        assert!(!cfg.reverse_postorder().contains(&dead));
    }

    #[test]
    fn condbr_with_equal_targets_is_single_edge() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let b = fb.new_block("b");
        let c = fb.cmp(CmpOp::Eq, 1i64, 1i64);
        fb.cond_br(c, b, b);
        fb.switch_to(b);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let cfg = Cfg::build(m.func(m.entry));
        assert_eq!(cfg.edges().len(), 1);
    }
}
