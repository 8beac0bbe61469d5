//! Module verifier: structural, type, and dominance checks.
//!
//! Every module entering the pipeline (from the builder, the `minic` front
//! end, or the SID duplication transform) is expected to verify. The SID
//! transform in particular re-verifies its output so protection never ships
//! a malformed binary.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::inst::{InstId, InstKind, Operand, UnOp};
use crate::module::{BlockId, Function, Module};
use crate::types::Ty;
use std::fmt;

/// A verification failure, located as precisely as possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub func: String,
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in `{}`: {}", self.func, self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module; collects all errors rather than stopping at the
/// first.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    if m.funcs.is_empty() {
        errs.push(VerifyError {
            func: "<module>".into(),
            detail: "module has no functions".into(),
        });
        return Err(errs);
    }
    if m.entry.index() >= m.funcs.len() {
        errs.push(VerifyError {
            func: "<module>".into(),
            detail: format!("entry {:?} out of range", m.entry),
        });
    } else if !m.func(m.entry).params.is_empty() {
        errs.push(VerifyError {
            func: m.func(m.entry).name.clone(),
            detail:
                "entry function must take no parameters (inputs arrive via arg/data intrinsics)"
                    .into(),
        });
    }
    for (_, f) in m.iter_funcs() {
        verify_function(m, f, &mut errs);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn operand_ty(f: &Function, o: &Operand) -> Option<Ty> {
    match o {
        Operand::Value(v) => f.insts.get(v.index()).and_then(|i| i.ty),
        Operand::ConstI(_) => Some(Ty::I64),
        Operand::ConstF(_) => Some(Ty::F64),
        Operand::ConstB(_) => Some(Ty::Bool),
    }
}

fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let err = |errs: &mut Vec<VerifyError>, detail: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            detail,
        });
    };

    if f.blocks.is_empty() {
        err(errs, "function has no blocks".into());
        return;
    }

    // block structure: non-empty, single trailing terminator, each inst in
    // exactly one block
    let mut seen = vec![0u8; f.insts.len()];
    for (bid, b) in f.iter_blocks() {
        if b.insts.is_empty() {
            err(errs, format!("block {bid:?} is empty"));
            continue;
        }
        for (pos, &iid) in b.insts.iter().enumerate() {
            if iid.index() >= f.insts.len() {
                err(errs, format!("block {bid:?} references bad inst {iid:?}"));
                continue;
            }
            seen[iid.index()] += 1;
            let is_term = f.inst(iid).kind.is_terminator();
            let is_last = pos + 1 == b.insts.len();
            if is_term != is_last {
                err(
                    errs,
                    format!(
                        "block {bid:?}: instruction {iid:?} ({}) {}",
                        f.inst(iid).kind.mnemonic(),
                        if is_term {
                            "is a terminator in the middle of the block"
                        } else {
                            "is the last instruction but not a terminator"
                        }
                    ),
                );
            }
        }
    }
    for (i, &count) in seen.iter().enumerate() {
        if count != 1 {
            err(
                errs,
                format!("instruction {i} appears in {count} blocks (expected 1)"),
            );
        }
    }
    if !errs.is_empty() && errs.iter().any(|e| e.func == f.name) {
        // structural damage: skip the finer checks that assume structure
        return;
    }

    // per-instruction typing
    let owners = f.inst_blocks();
    let mut targets_in_range = true;
    for (iid, inst) in f.insts.iter().enumerate() {
        let iid = InstId(iid as u32);
        check_types(m, f, iid, inst, errs);
        // Param placement: entry block only, index in range
        if let InstKind::Param { n } = inst.kind {
            if owners[iid.index()] != BlockId(0) {
                err(errs, format!("{iid:?}: param outside entry block"));
            }
            match f.params.get(n as usize) {
                None => err(errs, format!("{iid:?}: param index {n} out of range")),
                Some(&ty) => {
                    if inst.ty != Some(ty) {
                        err(errs, format!("{iid:?}: param type mismatch"));
                    }
                }
            }
        }
        // branch targets in range
        let targets = match &inst.kind {
            InstKind::Br { target } => [Some(*target), None],
            InstKind::CondBr { then_b, else_b, .. } => [Some(*then_b), Some(*else_b)],
            _ => [None, None],
        };
        for t in targets.into_iter().flatten() {
            if t.index() >= f.blocks.len() {
                targets_in_range = false;
                err(errs, format!("{iid:?}: branch target {t:?} out of range"));
            }
        }
    }
    if !targets_in_range {
        // the CFG indexes its tables by branch target
        return;
    }

    // dominance: each value operand's def dominates the use
    let cfg = Cfg::build(f);
    let dom = DomTree::build(&cfg);
    let mut pos_in_block = vec![0usize; f.insts.len()];
    for (_, b) in f.iter_blocks() {
        for (pos, &iid) in b.insts.iter().enumerate() {
            pos_in_block[iid.index()] = pos;
        }
    }
    let mut ops = Vec::new();
    for (bid, b) in f.iter_blocks() {
        for &iid in &b.insts {
            ops.clear();
            f.inst(iid).kind.value_operands(&mut ops);
            for &def in &ops {
                if def.index() >= f.insts.len() {
                    err(errs, format!("{iid:?}: operand {def:?} out of range"));
                    continue;
                }
                let def_block = owners[def.index()];
                let ok = if def_block == bid {
                    pos_in_block[def.index()] < pos_in_block[iid.index()]
                } else {
                    dom.dominates(def_block, bid)
                };
                if !ok {
                    err(
                        errs,
                        format!(
                            "{iid:?} ({}) uses {def:?} which does not dominate it",
                            f.inst(iid).kind.mnemonic()
                        ),
                    );
                }
            }
        }
    }
}

fn check_types(
    m: &Module,
    f: &Function,
    iid: InstId,
    inst: &crate::inst::Inst,
    errs: &mut Vec<VerifyError>,
) {
    let mut err = |detail: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            detail: format!("{iid:?}: {detail}"),
        })
    };
    let ot = |o: &Operand| operand_ty(f, o);
    match &inst.kind {
        InstKind::Param { .. } => {}
        InstKind::Bin { op, lhs, rhs } => {
            let (Some(lt), Some(rt), Some(ty)) = (ot(lhs), ot(rhs), inst.ty) else {
                return err("bin: missing types".into());
            };
            if lt != ty || rt != ty {
                err(format!(
                    "bin {op:?}: operand types {lt}/{rt} != result {ty}"
                ));
            } else if !ty.is_numeric() {
                err(format!("bin {op:?}: non-numeric type {ty}"));
            } else if op.int_only() && ty != Ty::I64 {
                err(format!("bin {op:?}: integer-only op on {ty}"));
            }
        }
        InstKind::Un { op, arg } => {
            let (Some(at), Some(ty)) = (ot(arg), inst.ty) else {
                return err("un: missing types".into());
            };
            if at != ty {
                err(format!("un {op:?}: operand {at} != result {ty}"));
            } else if op.float_only() && ty != Ty::F64 {
                err(format!("un {op:?}: float-only op on {ty}"));
            } else if *op == UnOp::Not && !matches!(ty, Ty::Bool | Ty::I64) {
                err(format!("not: invalid type {ty}"));
            } else if matches!(op, UnOp::Neg | UnOp::Abs) && !ty.is_numeric() {
                err(format!("un {op:?}: non-numeric type {ty}"));
            }
        }
        InstKind::Cmp { lhs, rhs, .. } => {
            let (Some(lt), Some(rt)) = (ot(lhs), ot(rhs)) else {
                return err("cmp: missing operand types".into());
            };
            if lt != rt {
                err(format!("cmp: operand types differ ({lt} vs {rt})"));
            } else if !lt.is_numeric() && lt != Ty::Bool {
                err(format!("cmp: invalid operand type {lt}"));
            }
            if inst.ty != Some(Ty::Bool) {
                err("cmp: result must be bool".into());
            }
        }
        InstKind::Select {
            cond,
            then_v,
            else_v,
        } => {
            if ot(cond) != Some(Ty::Bool) {
                err("select: condition must be bool".into());
            }
            if ot(then_v) != inst.ty || ot(else_v) != inst.ty {
                err("select: arm types must match result".into());
            }
        }
        InstKind::Cast { to, arg } => {
            let Some(at) = ot(arg) else {
                return err("cast: missing operand type".into());
            };
            let ok = matches!(
                (at, *to),
                (Ty::I64, Ty::F64) | (Ty::F64, Ty::I64) | (Ty::Bool, Ty::I64) | (Ty::I64, Ty::I64)
            );
            if !ok {
                err(format!("cast: {at} -> {to} unsupported"));
            }
            if inst.ty != Some(*to) {
                err("cast: result type != target type".into());
            }
        }
        InstKind::Alloc { count } | InstKind::Salloc { count } => {
            if ot(count) != Some(Ty::I64) {
                err("alloc: count must be i64".into());
            }
            if inst.ty != Some(Ty::Ptr) {
                err("alloc: result must be ptr".into());
            }
        }
        InstKind::Load { ptr, idx, ty } => {
            if ot(ptr) != Some(Ty::Ptr) {
                err("load: ptr operand must be ptr".into());
            }
            if ot(idx) != Some(Ty::I64) {
                err("load: index must be i64".into());
            }
            if !ty.is_numeric() {
                err(format!("load: element type {ty} not supported"));
            }
            if inst.ty != Some(*ty) {
                err("load: result type mismatch".into());
            }
        }
        InstKind::Store { ptr, idx, value } => {
            if ot(ptr) != Some(Ty::Ptr) {
                err("store: ptr operand must be ptr".into());
            }
            if ot(idx) != Some(Ty::I64) {
                err("store: index must be i64".into());
            }
            match ot(value) {
                Some(t) if t.is_numeric() => {}
                t => err(format!("store: value type {t:?} not supported")),
            }
        }
        InstKind::Call { func, args } => {
            let Some(callee) = m.funcs.get(func.index()) else {
                return err(format!("call: function {func:?} out of range"));
            };
            if callee.params.len() != args.len() {
                err(format!(
                    "call `{}`: expected {} args, got {}",
                    callee.name,
                    callee.params.len(),
                    args.len()
                ));
            } else {
                for (k, (a, &pt)) in args.iter().zip(&callee.params).enumerate() {
                    if ot(a) != Some(pt) {
                        err(format!("call `{}`: arg {k} type mismatch", callee.name));
                    }
                }
            }
            if inst.ty != callee.ret {
                err(format!("call `{}`: return type mismatch", callee.name));
            }
        }
        InstKind::NArgs | InstKind::DataLen { .. } => {
            if inst.ty != Some(Ty::I64) {
                err("nargs/data_len: result must be i64".into());
            }
        }
        InstKind::ArgI { n } | InstKind::ArgF { n } => {
            if ot(n) != Some(Ty::I64) {
                err("arg: index must be i64".into());
            }
        }
        InstKind::DataI { idx, .. } | InstKind::DataF { idx, .. } => {
            if ot(idx) != Some(Ty::I64) {
                err("data: index must be i64".into());
            }
        }
        InstKind::OutI { v } => {
            if ot(v) != Some(Ty::I64) {
                err("out_i: value must be i64".into());
            }
        }
        InstKind::OutF { v } => {
            if ot(v) != Some(Ty::F64) {
                err("out_f: value must be f64".into());
            }
        }
        InstKind::Check { a, b } => {
            let (ta, tb) = (ot(a), ot(b));
            if ta.is_none() || ta != tb {
                err(format!("check: operand types differ ({ta:?} vs {tb:?})"));
            }
        }
        InstKind::Br { .. } => {}
        InstKind::CondBr { cond, .. } => {
            if ot(cond) != Some(Ty::Bool) {
                err("condbr: condition must be bool".into());
            }
        }
        InstKind::Ret { v } => match (v, f.ret) {
            (None, None) => {}
            (Some(v), Some(rt)) => {
                if ot(v) != Some(rt) {
                    err(format!("ret: value type != declared return type {rt}"));
                }
            }
            (None, Some(_)) => err("ret: missing return value".into()),
            (Some(_), None) => err("ret: value returned from void function".into()),
        },
    }
}

/// Verify a module and panic with a readable report on failure. Intended
/// for tests and workload registration, where a malformed module is a bug.
pub fn assert_verified(m: &Module) {
    if let Err(errs) = verify_module(m) {
        let mut report = format!("module `{}` failed verification:\n", m.name);
        for e in &errs {
            report.push_str(&format!("  - {e}\n"));
        }
        panic!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, CmpOp};

    fn trivial() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], Some(Ty::I64));
        let mut fb = mb.body(main);
        let a = fb.add(Ty::I64, 1i64, 2i64);
        fb.ret(a);
        mb.define(fb);
        mb.finish()
    }

    #[test]
    fn accepts_trivial_module() {
        assert!(verify_module(&trivial()).is_ok());
    }

    #[test]
    fn rejects_type_mismatch_in_bin() {
        let mut m = trivial();
        // make the add mix i64 and f64
        m.funcs[0].insts[0].kind = InstKind::Bin {
            op: BinOp::Add,
            lhs: Operand::ConstI(1),
            rhs: Operand::ConstF(2.0),
        };
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.detail.contains("bin")));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = trivial();
        m.funcs[0].blocks[0].insts.pop(); // drop the ret
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_entry_with_params() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![Ty::I64], None);
        let mut fb = mb.body(main);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.detail.contains("entry function")));
    }

    #[test]
    fn rejects_use_before_def_across_blocks() {
        // entry: condbr -> (a | b); block a defines v; block b uses v
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let a = fb.new_block("a");
        let b = fb.new_block("b");
        let c = fb.cmp(CmpOp::Lt, 1i64, 2i64);
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        let v = fb.add(Ty::I64, 1i64, 1i64);
        fb.ret_void();
        fb.switch_to(b);
        fb.out_i(v); // v does not dominate this use
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.detail.contains("dominate")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_bad_call_arity() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let helper = mb.declare("h", vec![Ty::I64], None);
        let mut fb = mb.body(helper);
        fb.ret_void();
        mb.define(fb);
        let mut fb = mb.body(main);
        fb.call(helper, None, vec![]); // missing arg
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.detail.contains("expected 1 args")));
    }

    #[test]
    fn rejects_condbr_on_integer() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let b = fb.new_block("b");
        let v = fb.add(Ty::I64, 1i64, 1i64);
        fb.cond_br(v, b, b);
        fb.switch_to(b);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.detail.contains("condition")));
    }

    #[test]
    fn rejects_float_only_unop_on_int() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        let _ = fb.un(UnOp::Sqrt, Ty::I64, 4i64);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.detail.contains("float-only")));
    }

    #[test]
    fn rejects_ret_type_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], Some(Ty::F64));
        let mut fb = mb.body(main);
        fb.ret(1i64);
        mb.define(fb);
        let m = mb.finish();
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_out_of_range_branch_target_without_panicking() {
        // reachable from an `.ir` file: `br bb.7` in a one-block function
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], None);
        let mut fb = mb.body(main);
        fb.br(BlockId(7));
        mb.define(fb);
        let errs = verify_module(&mb.finish()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(
            errs[0].to_string(),
            "in `main`: InstId(0): branch target BlockId(7) out of range"
        );
    }
}
