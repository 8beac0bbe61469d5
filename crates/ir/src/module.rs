//! Module / function / block containers and global instruction numbering.

use crate::inst::{Inst, InstId, InstKind};
use crate::types::Ty;

/// Index of a function within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl FuncId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a basic block within a [`Function`]. Block 0 is the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Module-wide identity of a static instruction. Every profile in the
/// pipeline (dynamic counts, cycles, SDC probability, benefit/cost, the
/// incubative-instruction set) is keyed by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalInstId {
    pub func: FuncId,
    pub inst: InstId,
}

/// A basic block: a sequence of instruction ids whose last element is the
/// unique terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    pub insts: Vec<InstId>,
    /// Optional label for printing.
    pub name: Option<String>,
}

impl Block {
    /// The terminator instruction id, if the block is complete.
    pub fn terminator(&self) -> Option<InstId> {
        self.insts.last().copied()
    }
}

/// A function: parameter types, optional return type, an instruction arena,
/// and the basic blocks indexing into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
    pub insts: Vec<Inst>,
    pub blocks: Vec<Block>,
}

impl Function {
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            insts: Vec::new(),
            blocks: Vec::new(),
        }
    }

    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of static instructions in the function.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterate `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// The block containing each instruction (dense map: `InstId -> BlockId`).
    pub fn inst_blocks(&self) -> Vec<BlockId> {
        let mut owner = vec![BlockId(u32::MAX); self.insts.len()];
        for (bid, b) in self.iter_blocks() {
            for &i in &b.insts {
                owner[i.index()] = bid;
            }
        }
        owner
    }
}

/// A whole program: functions plus the entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub name: String,
    pub funcs: Vec<Function>,
    pub entry: FuncId,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            entry: FuncId(0),
        }
    }

    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Iterate `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Iterate every static instruction in the module.
    pub fn iter_insts(&self) -> impl Iterator<Item = (GlobalInstId, &Inst)> {
        self.iter_funcs().flat_map(|(fid, f)| {
            f.insts.iter().enumerate().map(move |(i, inst)| {
                (
                    GlobalInstId {
                        func: fid,
                        inst: InstId(i as u32),
                    },
                    inst,
                )
            })
        })
    }

    /// Total number of static instructions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.insts.len()).sum()
    }

    /// Dense numbering of all static instructions, in `(func, inst)` order.
    /// Profiles store data in vectors indexed by this numbering.
    pub fn numbering(&self) -> InstNumbering {
        let mut base = Vec::with_capacity(self.funcs.len());
        let mut acc = 0usize;
        for f in &self.funcs {
            base.push(acc);
            acc += f.insts.len();
        }
        InstNumbering { base, total: acc }
    }

    pub fn inst(&self, id: GlobalInstId) -> &Inst {
        self.func(id.func).inst(id.inst)
    }
}

/// Dense module-wide instruction numbering (see [`Module::numbering`]).
#[derive(Debug, Clone)]
pub struct InstNumbering {
    base: Vec<usize>,
    total: usize,
}

impl InstNumbering {
    /// Dense index of a static instruction.
    pub fn index(&self, id: GlobalInstId) -> usize {
        self.base[id.func.index()] + id.inst.index()
    }

    /// Inverse mapping: dense index back to `GlobalInstId`.
    pub fn id_of(&self, dense: usize) -> GlobalInstId {
        // binary search for the owning function
        let func = match self.base.binary_search(&dense) {
            Ok(f) => {
                // could be the first instruction of func f, but empty
                // functions share the same base; pick the last one with
                // this base that is followed by a larger base (or end).
                let mut f = f;
                while f + 1 < self.base.len() && self.base[f + 1] == dense {
                    f += 1;
                }
                f
            }
            Err(ins) => ins - 1,
        };
        GlobalInstId {
            func: FuncId(func as u32),
            inst: InstId((dense - self.base[func]) as u32),
        }
    }

    /// Total number of static instructions in the module.
    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Convenience: whether an instruction kind is a synchronization point in
/// the paper's sense (§II-C): duplication checks must execute before any
/// function call, memory store, output, or control-flow transfer that could
/// let a corrupted value escape the data-flow of the duplicated region.
pub fn is_sync_point(kind: &InstKind) -> bool {
    matches!(
        kind,
        InstKind::Call { .. }
            | InstKind::Store { .. }
            | InstKind::OutI { .. }
            | InstKind::OutF { .. }
            | InstKind::Br { .. }
            | InstKind::CondBr { .. }
            | InstKind::Ret { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Operand};

    fn mk_func(name: &str, n_insts: usize) -> Function {
        let mut f = Function::new(name, vec![], None);
        for _ in 0..n_insts.saturating_sub(1) {
            f.insts.push(Inst::new(
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::ConstI(1),
                    rhs: Operand::ConstI(2),
                },
                Some(Ty::I64),
            ));
        }
        if n_insts > 0 {
            f.insts.push(Inst::new(InstKind::Ret { v: None }, None));
        }
        f.blocks.push(Block {
            insts: (0..n_insts as u32).map(InstId).collect(),
            name: None,
        });
        f
    }

    #[test]
    fn numbering_roundtrip() {
        let mut m = Module::new("t");
        m.funcs.push(mk_func("a", 3));
        m.funcs.push(mk_func("b", 0));
        m.funcs.push(mk_func("c", 5));
        let num = m.numbering();
        assert_eq!(num.len(), 8);
        for (id, _) in m.iter_insts() {
            let dense = num.index(id);
            assert_eq!(num.id_of(dense), id, "dense={dense}");
        }
    }

    #[test]
    fn func_lookup_by_name() {
        let mut m = Module::new("t");
        m.funcs.push(mk_func("main", 1));
        m.funcs.push(mk_func("helper", 1));
        assert_eq!(m.func_by_name("helper"), Some(FuncId(1)));
        assert_eq!(m.func_by_name("nope"), None);
    }

    #[test]
    fn sync_points_match_paper_definition() {
        assert!(is_sync_point(&InstKind::Ret { v: None }));
        assert!(is_sync_point(&InstKind::Store {
            ptr: Operand::ConstI(0),
            idx: Operand::ConstI(0),
            value: Operand::ConstI(0),
        }));
        assert!(is_sync_point(&InstKind::Call {
            func: FuncId(0),
            args: vec![]
        }));
        assert!(!is_sync_point(&InstKind::NArgs));
    }

    #[test]
    fn inst_blocks_assigns_owners() {
        let f = mk_func("a", 4);
        let owners = f.inst_blocks();
        assert!(owners.iter().all(|b| *b == BlockId(0)));
    }

    #[test]
    fn injectable_insts_excludes_terminators() {
        let mut m = Module::new("t");
        m.funcs.push(mk_func("a", 3));
        // two adds are injectable, ret is not
        assert_eq!(m.iter_insts().filter(|(_, i)| i.injectable()).count(), 2);
    }
}
