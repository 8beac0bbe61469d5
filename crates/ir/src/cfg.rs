//! Control-flow graph extraction and traversals.
//!
//! MINPSID's input search engine is driven by the *static CFG* built at
//! compilation (paper Fig. 4 step ③, Fig. 5): each node is a basic block,
//! each edge a possible transfer. The dynamic profiler later attaches
//! execution counts to these edges to form the weighted CFG.

use crate::inst::InstKind;
use crate::module::{BlockId, Function};

/// The static control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    /// All edges `(from, to)` in block order, deduplicated.
    edges: Vec<(BlockId, BlockId)>,
}

impl Cfg {
    /// Build the CFG from a function's terminators.
    pub fn build(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut edges = Vec::new();
        for (bid, block) in func.iter_blocks() {
            let Some(term) = block.terminator() else {
                continue;
            };
            let targets: Vec<BlockId> = match &func.inst(term).kind {
                InstKind::Br { target } => vec![*target],
                InstKind::CondBr { then_b, else_b, .. } => {
                    if then_b == else_b {
                        vec![*then_b]
                    } else {
                        vec![*then_b, *else_b]
                    }
                }
                _ => vec![],
            };
            for t in targets {
                succs[bid.index()].push(t);
                preds[t.index()].push(bid);
                edges.push((bid, t));
            }
        }
        Cfg {
            succs,
            preds,
            edges,
        }
    }

    pub fn num_blocks(&self) -> usize {
        self.succs.len()
    }

    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
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
            if *cursor < self.succs[b.index()].len() {
                let s = self.succs[b.index()][*cursor];
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
