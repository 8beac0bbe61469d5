//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm) and natural
//! loop detection.
//!
//! The verifier uses dominance for definite-assignment checking
//! (a value operand must be defined by an instruction that dominates the
//! use), and the static-analysis reports use loop structure to explain why
//! certain instructions are incubative (loop-bound comparisons such as the
//! FFT `icmp` of paper Fig. 3 are the canonical case).

use crate::cfg::Cfg;
use crate::module::BlockId;

/// Immediate-dominator tree over the reachable blocks of a function.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of `b`; entry's idom is itself.
    /// Unreachable blocks have `None`.
    idom: Vec<Option<BlockId>>,
    rpo: Vec<BlockId>,
}

impl DomTree {
    pub fn build(cfg: &Cfg) -> DomTree {
        let n = cfg.num_blocks();
        let rpo = cfg.reverse_postorder();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 || rpo.is_empty() {
            return DomTree { idom, rpo };
        }
        let entry = rpo[0];
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // first processed predecessor
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, rpo }
    }

    /// Immediate dominator of `b` (entry maps to itself); `None` if `b` is
    /// unreachable.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive). Unreachable blocks dominate
    /// nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[a.index()].is_none() || self.idom[b.index()].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let id = self.idom[cur.index()].unwrap();
            if id == cur {
                return false; // reached entry
            }
            cur = id;
        }
    }

    /// Blocks in reverse postorder (reachable only).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Back edges `(latch, header)`: edges whose target dominates the source.
    pub fn back_edges(&self, cfg: &Cfg) -> Vec<(BlockId, BlockId)> {
        cfg.edges()
            .iter()
            .copied()
            .filter(|&(from, to)| self.dominates(to, from))
            .collect()
    }

    /// Natural loop of a back edge `(latch, header)`: all blocks that can
    /// reach the latch without passing through the header, plus the header.
    pub fn natural_loop(&self, cfg: &Cfg, latch: BlockId, header: BlockId) -> Vec<BlockId> {
        let mut in_loop = vec![false; cfg.num_blocks()];
        in_loop[header.index()] = true;
        let mut stack = vec![];
        if !in_loop[latch.index()] {
            in_loop[latch.index()] = true;
            stack.push(latch);
        }
        while let Some(b) = stack.pop() {
            for &p in cfg.preds(b) {
                if !in_loop[p.index()] {
                    in_loop[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        (0..cfg.num_blocks() as u32)
            .map(BlockId)
            .filter(|b| in_loop[b.index()])
            .collect()
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].unwrap();
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].unwrap();
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::CmpOp;
    use crate::module::Module;

    /// Diamond: 0 -> {1, 2} -> 3
    fn diamond() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let l = fb.new_block("l");
        let r = fb.new_block("r");
        let join = fb.new_block("join");
        let c = fb.cmp(CmpOp::Lt, 1i64, 2i64);
        fb.cond_br(c, l, r);
        fb.switch_to(l);
        fb.br(join);
        fb.switch_to(r);
        fb.br(join);
        fb.switch_to(join);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    }

    fn looped() -> Module {
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
        fb.br(head);
        fb.switch_to(exit);
        fb.ret_void();
        mb.define(fb);
        mb.finish()
    }

    #[test]
    fn diamond_dominance() {
        let m = diamond();
        let cfg = Cfg::build(m.func(m.entry));
        let dom = DomTree::build(&cfg);
        let (e, l, r, j) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(dom.idom(l), Some(e));
        assert_eq!(dom.idom(r), Some(e));
        assert_eq!(dom.idom(j), Some(e), "join's idom is the branch block");
        assert!(dom.dominates(e, j));
        assert!(!dom.dominates(l, j));
        assert!(dom.dominates(l, l), "dominance is reflexive");
    }

    #[test]
    fn loop_back_edge_and_body() {
        let m = looped();
        let cfg = Cfg::build(m.func(m.entry));
        let dom = DomTree::build(&cfg);
        let back = dom.back_edges(&cfg);
        assert_eq!(back, vec![(BlockId(2), BlockId(1))]);
        let body = dom.natural_loop(&cfg, BlockId(2), BlockId(1));
        assert_eq!(body, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
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
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom(dead), None);
        assert!(!dom.dominates(BlockId(0), dead));
    }
}
