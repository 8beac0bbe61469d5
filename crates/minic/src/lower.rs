//! Type checking and lowering of the minic AST to the minpsid IR.
//!
//! Lowering model (mirrors unoptimized clang → LLVM):
//!
//! * Each function gets **one** `salloc` at entry whose size is patched
//!   after the body is lowered; every mutable variable (anything that is
//!   ever the target of an assignment, plus `for`-loop counters) and every
//!   short-circuit temporary lives at a fixed offset in that frame slab.
//!   Immutable variables bind directly to the operand that produced them.
//! * `&&` / `||` lower to control flow through an `i64` frame slot, so
//!   they contribute real CFG edges (and incubative-instruction candidates,
//!   like compiled C's branchy conditionals do).
//! * `int` widens implicitly to `float`; all other conversions are
//!   explicit casts.

use crate::ast::*;
use crate::CompileError;
use minpsid_ir::{
    BinOp, BlockId, CmpOp, FuncId, FunctionBuilder, InstId, InstKind, Module, ModuleBuilder,
    Operand, Ty, UnOp,
};
use std::collections::{HashMap, HashSet};

/// Lower a parsed program into an IR module. The module still needs
/// [`minpsid_ir::verify_module`] (done by [`crate::compile`]).
pub fn lower(program: &Program, module_name: &str) -> Result<Module, CompileError> {
    let mut mb = ModuleBuilder::new(module_name);
    let mut sigs: Sigs = HashMap::new();

    for f in &program.fns {
        if BUILTINS.contains(&f.name) {
            return Err(err(f.line, format!("`{}` is a builtin name", f.name)));
        }
        if sigs.contains_key(f.name) {
            return Err(err(f.line, format!("duplicate function `{}`", f.name)));
        }
        let params: Vec<Ty> = f.params.iter().map(|(_, t)| ir_ty(*t)).collect();
        let fid = mb.declare(f.name, params, f.ret.map(ir_ty));
        sigs.insert(f.name, (fid, f));
    }

    let Some(&(main_id, main)) = sigs.get("main") else {
        return Err(err(0, "program has no `main` function".into()));
    };
    if !main.params.is_empty() {
        return Err(err(
            0,
            "`main` takes no parameters; read inputs with arg_i/arg_f/data_* builtins".into(),
        ));
    }
    mb.set_entry(main_id);

    let mut patches: Vec<(FuncId, InstId, i64)> = Vec::new();
    for f in &program.fns {
        let fid = sigs[f.name].0;
        let mut lowerer = FnLower::new(&mb, fid, f, &sigs)?;
        lowerer.lower_body()?;
        let (fb, slot_base, slots) = lowerer.finish();
        mb.define(fb);
        patches.push((fid, slot_base, slots));
    }

    let mut module = mb.finish();
    for (fid, slot_base, slots) in patches {
        let inst = module.func_mut(fid).inst_mut(slot_base);
        inst.kind = InstKind::Salloc {
            count: Operand::ConstI(slots),
        };
    }
    Ok(module)
}

/// Each function's id and declaration, by name.
type Sigs<'p, 'src> = HashMap<&'src str, (FuncId, &'p FnDecl<'src>)>;

const BUILTINS: &[&str] = &[
    "nargs", "arg_i", "arg_f", "data_len", "data_i", "data_f", "out_i", "out_f", "sqrt", "sin",
    "cos", "exp", "log", "floor", "abs", "min", "max", "int", "float", "alloc",
];

fn err(line: u32, msg: String) -> CompileError {
    CompileError { line, msg }
}

fn ir_ty(t: Type) -> Ty {
    match t {
        Type::Int => Ty::I64,
        Type::Float => Ty::F64,
        Type::Bool => Ty::Bool,
        Type::ArrInt | Type::ArrFloat => Ty::Ptr,
    }
}

/// Where a variable's current value lives.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// Immutable binding: the defining operand itself.
    Val(Operand),
    /// Mutable binding: offset into the function's frame slab.
    Slot(i64),
}

#[derive(Debug, Clone, Copy)]
struct VarInfo {
    ty: Type,
    place: Place,
}

struct LoopCtx {
    /// Target of `continue` (loop latch / header).
    continue_to: BlockId,
    /// Target of `break`.
    break_to: BlockId,
}

struct FnLower<'p, 'src> {
    fb: FunctionBuilder,
    decl: &'p FnDecl<'src>,
    sigs: &'p Sigs<'p, 'src>,
    /// The variables in scope, innermost last; `scope_starts` holds where
    /// each open scope's run of `vars` begins.
    vars: Vec<(&'src str, VarInfo)>,
    scope_starts: Vec<usize>,
    loops: Vec<LoopCtx>,
    assigned: HashSet<&'src str>,
    slot_base: InstId,
    next_slot: i64,
}

impl<'p, 'src> FnLower<'p, 'src> {
    fn new(
        mb: &ModuleBuilder,
        fid: FuncId,
        decl: &'p FnDecl<'src>,
        sigs: &'p Sigs<'p, 'src>,
    ) -> Result<Self, CompileError> {
        let mut fb = mb.body(fid);
        // frame slab; size patched in `lower`
        let slot_base = fb.salloc(0i64);

        let mut assigned = HashSet::new();
        collect_assigned(&decl.body, &mut assigned);

        let mut this = FnLower {
            fb,
            decl,
            sigs,
            vars: vec![],
            scope_starts: vec![0],
            loops: vec![],
            assigned,
            slot_base,
            next_slot: 0,
        };

        // bind parameters; assigned ones are copied into slots
        for (i, &(name, ty)) in decl.params.iter().enumerate() {
            let preg = this.fb.param(i);
            if this.assigned.contains(name) {
                if ty.is_array() {
                    return Err(err(
                        decl.line,
                        format!("array parameter `{name}` cannot be reassigned"),
                    ));
                }
                let off = this.alloc_slot();
                this.write_slot(off, ty, preg.into());
                this.declare_var(name, ty, Place::Slot(off), decl.line)?;
            } else {
                this.declare_var(name, ty, Place::Val(preg.into()), decl.line)?;
            }
        }
        Ok(this)
    }

    fn finish(self) -> (FunctionBuilder, InstId, i64) {
        (self.fb, self.slot_base, self.next_slot)
    }

    fn alloc_slot(&mut self) -> i64 {
        let off = self.next_slot;
        self.next_slot += 1;
        off
    }

    fn open_scope(&mut self) {
        self.scope_starts.push(self.vars.len());
    }

    fn close_scope(&mut self) {
        let start = self.scope_starts.pop().unwrap();
        self.vars.truncate(start);
    }

    fn declare_var(
        &mut self,
        name: &'src str,
        ty: Type,
        place: Place,
        line: u32,
    ) -> Result<(), CompileError> {
        let start = *self.scope_starts.last().unwrap();
        if self.vars[start..].iter().any(|&(n, _)| n == name) {
            return Err(err(
                line,
                format!("`{name}` already declared in this scope"),
            ));
        }
        self.vars.push((name, VarInfo { ty, place }));
        Ok(())
    }

    fn lookup(&self, name: &str, line: u32) -> Result<VarInfo, CompileError> {
        match self.vars.iter().rev().find(|&&(n, _)| n == name) {
            Some(&(_, v)) => Ok(v),
            None => Err(err(line, format!("unknown variable `{name}`"))),
        }
    }

    /// Store `value` (of minic type `ty`) into frame slot `off`.
    fn write_slot(&mut self, off: i64, ty: Type, value: Operand) {
        let v = match ty {
            Type::Bool => Operand::Value(self.fb.cast(Ty::I64, value)),
            _ => value,
        };
        let base = self.slot_base;
        self.fb.store(base, off, v);
    }

    /// Load the value of a slot as minic type `ty`.
    fn read_slot(&mut self, off: i64, ty: Type) -> Operand {
        let base = self.slot_base;
        match ty {
            Type::Float => Operand::Value(self.fb.load(Ty::F64, base, off)),
            Type::Bool => {
                let raw = self.fb.load(Ty::I64, base, off);
                Operand::Value(self.fb.cmp(CmpOp::Ne, raw, 0i64))
            }
            // ints (arrays never live in slots)
            _ => Operand::Value(self.fb.load(Ty::I64, base, off)),
        }
    }

    fn read_var(&mut self, v: VarInfo) -> Operand {
        match v.place {
            Place::Val(op) => op,
            Place::Slot(off) => self.read_slot(off, v.ty),
        }
    }

    /// Implicit `int -> float` widening; everything else must match.
    fn coerce(
        &mut self,
        op: Operand,
        from: Type,
        to: Type,
        line: u32,
    ) -> Result<Operand, CompileError> {
        if from == to {
            return Ok(op);
        }
        if from == Type::Int && to == Type::Float {
            return Ok(match op {
                Operand::ConstI(v) => Operand::ConstF(v as f64),
                _ => Operand::Value(self.fb.cast(Ty::F64, op)),
            });
        }
        Err(err(
            line,
            format!(
                "type mismatch: expected {}, found {}",
                to.name(),
                from.name()
            ),
        ))
    }

    /// Unify two numeric operands to a common type.
    fn unify_numeric(
        &mut self,
        (lop, lt): (Operand, Type),
        (rop, rt): (Operand, Type),
        line: u32,
        what: &str,
    ) -> Result<(Operand, Operand, Type), CompileError> {
        if !lt.is_numeric() || !rt.is_numeric() {
            return Err(err(
                line,
                format!(
                    "{what} requires numeric operands, found {} and {}",
                    lt.name(),
                    rt.name()
                ),
            ));
        }
        let common = if lt == Type::Float || rt == Type::Float {
            Type::Float
        } else {
            Type::Int
        };
        let l = self.coerce(lop, lt, common, line)?;
        let r = self.coerce(rop, rt, common, line)?;
        Ok((l, r, common))
    }

    // ---- statements ----

    fn lower_body(&mut self) -> Result<(), CompileError> {
        let decl = self.decl;
        let terminated = self.lower_block(&decl.body)?;
        if !terminated {
            match self.decl.ret {
                None => self.fb.ret_void(),
                Some(_) => {
                    return Err(err(
                        self.decl.line,
                        format!(
                            "function `{}` can reach its end without returning a value",
                            self.decl.name
                        ),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Lower a block in a fresh scope; returns whether control flow is
    /// terminated at the end (return/break/continue on all paths).
    fn lower_block(&mut self, block: &Block<'src>) -> Result<bool, CompileError> {
        self.open_scope();
        let mut terminated = false;
        for stmt in &block.stmts {
            if terminated {
                return Err(err(stmt_line(stmt), "unreachable code".into()));
            }
            terminated = self.lower_stmt(stmt)?;
        }
        self.close_scope();
        Ok(terminated)
    }

    fn lower_stmt(&mut self, stmt: &Stmt<'src>) -> Result<bool, CompileError> {
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                line,
            } => {
                // `alloc(n)` is only legal here, with an array annotation
                if let Expr::Call {
                    name: cname, args, ..
                } = init
                {
                    if *cname == "alloc" {
                        let Some(decl_ty) = ty else {
                            return Err(err(
                                *line,
                                "`alloc(n)` needs an array type annotation: `let a: [float] = alloc(n);`"
                                    .into(),
                            ));
                        };
                        if !decl_ty.is_array() {
                            return Err(err(
                                *line,
                                format!("`alloc(n)` produces an array, not {}", decl_ty.name()),
                            ));
                        }
                        if args.len() != 1 {
                            return Err(err(*line, "alloc takes one argument".into()));
                        }
                        let (n, nt) = self.lower_expr(&args[0])?;
                        if nt != Type::Int {
                            return Err(err(*line, "alloc size must be int".into()));
                        }
                        let ptr = self.fb.alloc(n);
                        self.fb.name_last(name);
                        self.declare_var(name, *decl_ty, Place::Val(ptr.into()), *line)?;
                        return Ok(false);
                    }
                }
                let (op, ety) = self.lower_expr(init)?;
                let var_ty = match ty {
                    Some(t) => *t,
                    None => ety,
                };
                let op = self.coerce(op, ety, var_ty, *line)?;
                if self.assigned.contains(name) {
                    if var_ty.is_array() {
                        return Err(err(
                            *line,
                            format!("array variable `{name}` cannot be reassigned"),
                        ));
                    }
                    let off = self.alloc_slot();
                    self.write_slot(off, var_ty, op);
                    self.declare_var(name, var_ty, Place::Slot(off), *line)?;
                } else {
                    self.declare_var(name, var_ty, Place::Val(op), *line)?;
                }
                Ok(false)
            }
            Stmt::Assign { name, value, line } => {
                let var = self.lookup(name, *line)?;
                let Place::Slot(off) = var.place else {
                    return Err(err(*line, format!("`{name}` is not assignable")));
                };
                let (op, ety) = self.lower_expr(value)?;
                let op = self.coerce(op, ety, var.ty, *line)?;
                self.write_slot(off, var.ty, op);
                Ok(false)
            }
            Stmt::AssignIdx {
                name,
                idx,
                value,
                line,
            } => {
                let var = self.lookup(name, *line)?;
                let Some(elem) = var.ty.elem() else {
                    return Err(err(*line, format!("`{name}` is not an array")));
                };
                let base = self.read_var(var);
                let (iop, ity) = self.lower_expr(idx)?;
                if ity != Type::Int {
                    return Err(err(*line, "array index must be int".into()));
                }
                let (vop, vty) = self.lower_expr(value)?;
                let vop = self.coerce(vop, vty, elem, *line)?;
                self.fb.store(base, iop, vop);
                Ok(false)
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
                line,
            } => {
                let (cop, cty) = self.lower_expr(cond)?;
                if cty != Type::Bool {
                    return Err(err(*line, "if condition must be bool".into()));
                }
                let then_block = self.fb.new_block("if.then");
                let else_block = self.fb.new_block("if.else");
                self.fb.cond_br(cop, then_block, else_block);

                self.fb.switch_to(then_block);
                let t_term = self.lower_block(then_b)?;
                let t_end = self.fb.current_block();

                self.fb.switch_to(else_block);
                let e_term = match else_b {
                    Some(b) => self.lower_block(b)?,
                    None => false,
                };
                let e_end = self.fb.current_block();

                if t_term && e_term {
                    return Ok(true);
                }
                let join = self.fb.new_block("if.join");
                if !t_term {
                    self.fb.switch_to(t_end);
                    self.fb.br(join);
                }
                if !e_term {
                    self.fb.switch_to(e_end);
                    self.fb.br(join);
                }
                self.fb.switch_to(join);
                Ok(false)
            }
            Stmt::While { cond, body, line } => {
                let header = self.fb.new_block("while.header");
                let body_block = self.fb.new_block("while.body");
                let exit = self.fb.new_block("while.exit");
                self.fb.br(header);

                self.fb.switch_to(header);
                let (cop, cty) = self.lower_expr(cond)?;
                if cty != Type::Bool {
                    return Err(err(*line, "while condition must be bool".into()));
                }
                self.fb.cond_br(cop, body_block, exit);

                self.fb.switch_to(body_block);
                self.loops.push(LoopCtx {
                    continue_to: header,
                    break_to: exit,
                });
                let terminated = self.lower_block(body)?;
                self.loops.pop();
                if !terminated {
                    self.fb.br(header);
                }
                self.fb.switch_to(exit);
                Ok(false)
            }
            Stmt::For {
                var,
                from,
                to_,
                body,
                line,
            } => {
                // evaluate bounds once, before the loop
                let (fop, fty) = self.lower_expr(from)?;
                if fty != Type::Int {
                    return Err(err(*line, "for-loop start must be int".into()));
                }
                let (top, tty) = self.lower_expr(to_)?;
                if tty != Type::Int {
                    return Err(err(*line, "for-loop bound must be int".into()));
                }
                let off = self.alloc_slot();
                self.write_slot(off, Type::Int, fop);

                let header = self.fb.new_block("for.header");
                let body_block = self.fb.new_block("for.body");
                let latch = self.fb.new_block("for.latch");
                let exit = self.fb.new_block("for.exit");
                self.fb.br(header);

                self.fb.switch_to(header);
                let i = self.read_slot(off, Type::Int);
                let c = self.fb.cmp(CmpOp::Lt, i, top);
                self.fb.cond_br(c, body_block, exit);

                self.fb.switch_to(body_block);
                self.open_scope();
                self.declare_var(var, Type::Int, Place::Slot(off), *line)?;
                self.loops.push(LoopCtx {
                    continue_to: latch,
                    break_to: exit,
                });
                let terminated = self.lower_block(body)?;
                self.loops.pop();
                self.close_scope();
                if !terminated {
                    self.fb.br(latch);
                }

                self.fb.switch_to(latch);
                let i = self.read_slot(off, Type::Int);
                let inc = self.fb.add(Ty::I64, i, 1i64);
                self.write_slot(off, Type::Int, inc.into());
                self.fb.br(header);

                self.fb.switch_to(exit);
                Ok(false)
            }
            Stmt::Return { value, line } => {
                match (value, self.decl.ret) {
                    (None, None) => self.fb.ret_void(),
                    (Some(v), Some(rt)) => {
                        let (op, ety) = self.lower_expr(v)?;
                        let op = self.coerce(op, ety, rt, *line)?;
                        self.fb.ret(op);
                    }
                    (None, Some(rt)) => {
                        return Err(err(
                            *line,
                            format!("function returns {}, but `return;` has no value", rt.name()),
                        ))
                    }
                    (Some(_), None) => {
                        return Err(err(*line, "void function cannot return a value".into()))
                    }
                }
                Ok(true)
            }
            Stmt::Break { line } => {
                let Some(ctx) = self.loops.last() else {
                    return Err(err(*line, "`break` outside of a loop".into()));
                };
                let target = ctx.break_to;
                self.fb.br(target);
                Ok(true)
            }
            Stmt::Continue { line } => {
                let Some(ctx) = self.loops.last() else {
                    return Err(err(*line, "`continue` outside of a loop".into()));
                };
                let target = ctx.continue_to;
                self.fb.br(target);
                Ok(true)
            }
            Stmt::Expr { e, line } => {
                match e {
                    Expr::Call { name, args, .. } => {
                        // void calls allowed only in statement position
                        self.lower_call(name, args, *line, true)?;
                    }
                    _ => {
                        self.lower_expr(e)?;
                    }
                }
                Ok(false)
            }
        }
    }

    // ---- expressions ----

    fn lower_expr(&mut self, e: &Expr) -> Result<(Operand, Type), CompileError> {
        match e {
            Expr::IntLit(v, _) => Ok((Operand::ConstI(*v), Type::Int)),
            Expr::FloatLit(v, _) => Ok((Operand::ConstF(*v), Type::Float)),
            Expr::BoolLit(v, _) => Ok((Operand::ConstB(*v), Type::Bool)),
            Expr::Var(name, line) => {
                let var = self.lookup(name, *line)?;
                let op = self.read_var(var);
                Ok((op, var.ty))
            }
            Expr::Index { name, idx, line } => {
                let var = self.lookup(name, *line)?;
                let Some(elem) = var.ty.elem() else {
                    return Err(err(*line, format!("`{name}` is not an array")));
                };
                let base = self.read_var(var);
                let (iop, ity) = self.lower_expr(idx)?;
                if ity != Type::Int {
                    return Err(err(*line, "array index must be int".into()));
                }
                let v = self.fb.load(ir_ty(elem), base, iop);
                Ok((v.into(), elem))
            }
            Expr::Unary { op, e, line } => {
                let (vop, vty) = self.lower_expr(e)?;
                match op {
                    UnaryOp::Neg => {
                        if !vty.is_numeric() {
                            return Err(err(*line, format!("cannot negate {}", vty.name())));
                        }
                        // fold literal negation
                        match vop {
                            Operand::ConstI(v) => Ok((Operand::ConstI(-v), Type::Int)),
                            Operand::ConstF(v) => Ok((Operand::ConstF(-v), Type::Float)),
                            _ => {
                                let r = self.fb.un(UnOp::Neg, ir_ty(vty), vop);
                                Ok((r.into(), vty))
                            }
                        }
                    }
                    UnaryOp::Not => {
                        if vty != Type::Bool {
                            return Err(err(
                                *line,
                                format!("`!` requires bool, found {}", vty.name()),
                            ));
                        }
                        let r = self.fb.un(UnOp::Not, Ty::Bool, vop);
                        Ok((r.into(), Type::Bool))
                    }
                }
            }
            Expr::Binary { op, l, r, line } => self.lower_binary(*op, l, r, *line),
            Expr::Call { name, args, line } => match self.lower_call(name, args, *line, false)? {
                Some(res) => Ok(res),
                None => Err(err(
                    *line,
                    format!("`{name}` returns no value and cannot be used in an expression"),
                )),
            },
        }
    }

    fn lower_binary(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        line: u32,
    ) -> Result<(Operand, Type), CompileError> {
        if op.is_logical() {
            return self.lower_short_circuit(op, l, r, line);
        }
        let lv = self.lower_expr(l)?;
        let rv = self.lower_expr(r)?;
        if op.is_comparison() {
            // bool == bool / bool != bool are allowed; otherwise numeric
            if lv.1 == Type::Bool && rv.1 == Type::Bool {
                if !matches!(op, BinaryOp::Eq | BinaryOp::Ne) {
                    return Err(err(line, "bools only support == and !=".into()));
                }
                let c = self.fb.cmp(cmp_op(op), lv.0, rv.0);
                return Ok((c.into(), Type::Bool));
            }
            let (lo, ro, _) = self.unify_numeric(lv, rv, line, "comparison")?;
            let c = self.fb.cmp(cmp_op(op), lo, ro);
            return Ok((c.into(), Type::Bool));
        }
        let (lo, ro, common) = self.unify_numeric(lv, rv, line, "arithmetic")?;
        let ir_op = match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => BinOp::Div,
            BinaryOp::Rem => BinOp::Rem,
            _ => unreachable!(),
        };
        let v = self.fb.bin(ir_op, ir_ty(common), lo, ro);
        Ok((v.into(), common))
    }

    /// `a && b` / `a || b` with short-circuit evaluation via a frame slot.
    fn lower_short_circuit(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        line: u32,
    ) -> Result<(Operand, Type), CompileError> {
        let (lop, lty) = self.lower_expr(l)?;
        if lty != Type::Bool {
            return Err(err(line, format!("`{op:?}` requires bool operands")));
        }
        let off = self.alloc_slot();
        let rhs_block = self.fb.new_block("sc.rhs");
        let skip_block = self.fb.new_block("sc.skip");
        let join = self.fb.new_block("sc.join");
        match op {
            BinaryOp::And => self.fb.cond_br(lop, rhs_block, skip_block),
            BinaryOp::Or => self.fb.cond_br(lop, skip_block, rhs_block),
            _ => unreachable!(),
        }

        self.fb.switch_to(rhs_block);
        let (rop, rty) = self.lower_expr(r)?;
        if rty != Type::Bool {
            return Err(err(line, format!("`{op:?}` requires bool operands")));
        }
        self.write_slot(off, Type::Bool, rop);
        self.fb.br(join);

        self.fb.switch_to(skip_block);
        let skip_value = op == BinaryOp::Or; // || short-circuits to true
        self.write_slot(off, Type::Bool, Operand::ConstB(skip_value));
        self.fb.br(join);

        self.fb.switch_to(join);
        let v = self.read_slot(off, Type::Bool);
        Ok((v, Type::Bool))
    }

    /// Lower a call; returns `None` for void calls (only allowed when
    /// `stmt_position`).
    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: u32,
        stmt_position: bool,
    ) -> Result<Option<(Operand, Type)>, CompileError> {
        let arity = |n: usize| -> Result<(), CompileError> {
            if args.len() != n {
                Err(err(
                    line,
                    format!("`{name}` takes {n} argument(s), got {}", args.len()),
                ))
            } else {
                Ok(())
            }
        };
        match name {
            "alloc" => Err(err(
                line,
                "`alloc(n)` is only allowed as the initializer of an array let-binding".into(),
            )),
            "nargs" => {
                arity(0)?;
                let v = self.fb.nargs();
                Ok(Some((v.into(), Type::Int)))
            }
            "arg_i" | "arg_f" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                if ty != Type::Int {
                    return Err(err(line, format!("`{name}` index must be int")));
                }
                let v = if name == "arg_i" {
                    (self.fb.arg_i(op).into(), Type::Int)
                } else {
                    (self.fb.arg_f(op).into(), Type::Float)
                };
                Ok(Some(v))
            }
            "data_len" | "data_i" | "data_f" => {
                let want = if name == "data_len" { 1 } else { 2 };
                arity(want)?;
                let Expr::IntLit(stream, _) = &args[0] else {
                    return Err(err(
                        line,
                        format!("`{name}` stream number must be an integer literal"),
                    ));
                };
                let stream = u32::try_from(*stream)
                    .map_err(|_| err(line, "stream number must be non-negative".into()))?;
                if name == "data_len" {
                    let v = self.fb.data_len(stream);
                    return Ok(Some((v.into(), Type::Int)));
                }
                let (iop, ity) = self.lower_expr(&args[1])?;
                if ity != Type::Int {
                    return Err(err(line, format!("`{name}` index must be int")));
                }
                let v = if name == "data_i" {
                    (self.fb.data_i(stream, iop).into(), Type::Int)
                } else {
                    (self.fb.data_f(stream, iop).into(), Type::Float)
                };
                Ok(Some(v))
            }
            "out_i" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                if ty != Type::Int {
                    return Err(err(
                        line,
                        format!("out_i requires int, found {}", ty.name()),
                    ));
                }
                self.fb.out_i(op);
                Ok(None)
            }
            "out_f" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                let op = self.coerce(op, ty, Type::Float, line)?;
                self.fb.out_f(op);
                Ok(None)
            }
            "sqrt" | "sin" | "cos" | "exp" | "log" | "floor" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                let op = self.coerce(op, ty, Type::Float, line)?;
                let un = match name {
                    "sqrt" => UnOp::Sqrt,
                    "sin" => UnOp::Sin,
                    "cos" => UnOp::Cos,
                    "exp" => UnOp::Exp,
                    "log" => UnOp::Log,
                    _ => UnOp::Floor,
                };
                let v = self.fb.un(un, Ty::F64, op);
                Ok(Some((v.into(), Type::Float)))
            }
            "abs" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                if !ty.is_numeric() {
                    return Err(err(line, "abs requires a numeric argument".into()));
                }
                let v = self.fb.un(UnOp::Abs, ir_ty(ty), op);
                Ok(Some((v.into(), ty)))
            }
            "min" | "max" => {
                arity(2)?;
                let lv = self.lower_expr(&args[0])?;
                let rv = self.lower_expr(&args[1])?;
                let (lo, ro, common) = self.unify_numeric(lv, rv, line, name)?;
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                let v = self.fb.bin(op, ir_ty(common), lo, ro);
                Ok(Some((v.into(), common)))
            }
            "int" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                let v = match ty {
                    Type::Int => op,
                    Type::Float | Type::Bool => Operand::Value(self.fb.cast(Ty::I64, op)),
                    _ => return Err(err(line, format!("cannot cast {} to int", ty.name()))),
                };
                Ok(Some((v, Type::Int)))
            }
            "float" => {
                arity(1)?;
                let (op, ty) = self.lower_expr(&args[0])?;
                let v = match ty {
                    Type::Float => op,
                    Type::Int => Operand::Value(self.fb.cast(Ty::F64, op)),
                    _ => return Err(err(line, format!("cannot cast {} to float", ty.name()))),
                };
                Ok(Some((v, Type::Float)))
            }
            _ => {
                // user function
                let Some(&(fid, callee)) = self.sigs.get(name) else {
                    return Err(err(line, format!("unknown function `{name}`")));
                };
                if args.len() != callee.params.len() {
                    return Err(err(
                        line,
                        format!(
                            "`{name}` takes {} argument(s), got {}",
                            callee.params.len(),
                            args.len()
                        ),
                    ));
                }
                let ret = callee.ret;
                let mut ops = Vec::with_capacity(args.len());
                for (a, &(_, pt)) in args.iter().zip(&callee.params) {
                    let (op, ty) = self.lower_expr(a)?;
                    let op = self.coerce(op, ty, pt, a.line())?;
                    ops.push(op);
                }
                let v = self.fb.call(fid, ret.map(ir_ty), ops);
                match ret {
                    Some(rt) => Ok(Some((v.into(), rt))),
                    None => {
                        if stmt_position {
                            Ok(None)
                        } else {
                            Err(err(
                                line,
                                format!(
                                    "`{name}` returns no value and cannot be used in an expression"
                                ),
                            ))
                        }
                    }
                }
            }
        }
    }
}

fn cmp_op(op: BinaryOp) -> CmpOp {
    match op {
        BinaryOp::Eq => CmpOp::Eq,
        BinaryOp::Ne => CmpOp::Ne,
        BinaryOp::Lt => CmpOp::Lt,
        BinaryOp::Le => CmpOp::Le,
        BinaryOp::Gt => CmpOp::Gt,
        BinaryOp::Ge => CmpOp::Ge,
        _ => unreachable!(),
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Let { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::AssignIdx { line, .. }
        | Stmt::If { line, .. }
        | Stmt::While { line, .. }
        | Stmt::For { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::Break { line }
        | Stmt::Continue { line }
        | Stmt::Expr { line, .. } => *line,
    }
}

fn collect_assigned<'src>(block: &Block<'src>, out: &mut HashSet<&'src str>) {
    for s in &block.stmts {
        match s {
            Stmt::Assign { name, .. } => {
                out.insert(*name);
            }
            Stmt::If { then_b, else_b, .. } => {
                collect_assigned(then_b, out);
                if let Some(b) = else_b {
                    collect_assigned(b, out);
                }
            }
            Stmt::While { body, .. } => collect_assigned(body, out),
            Stmt::For { body, .. } => collect_assigned(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn compile_err(src: &str) -> CompileError {
        compile(src, "t").unwrap_err()
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = compile_err("fn main() { out_i(x); }");
        assert!(e.msg.contains("unknown variable"));
    }

    #[test]
    fn rejects_type_mismatch_in_let_annotation() {
        let e = compile_err("fn main() { let x: int = 1.5; }");
        assert!(e.msg.contains("type mismatch"));
    }

    #[test]
    fn allows_int_to_float_widening() {
        assert!(compile("fn main() { let x: float = 1; out_f(x + 2); }", "t").is_ok());
    }

    #[test]
    fn rejects_float_to_int_narrowing() {
        let e = compile_err("fn main() { let x: int = 1.5 + 1; }");
        assert!(e.msg.contains("type mismatch"));
    }

    #[test]
    fn rejects_missing_return() {
        let e = compile_err(
            "fn f(x: int) -> int { if x > 0 { return 1; } }\nfn main() { out_i(f(1)); }",
        );
        assert!(e.msg.contains("without returning"));
    }

    #[test]
    fn rejects_unreachable_code() {
        let e = compile_err("fn main() { return; out_i(1); }");
        assert!(e.msg.contains("unreachable"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = compile_err("fn main() { break; }");
        assert!(e.msg.contains("outside of a loop"));
    }

    #[test]
    fn rejects_array_reassignment() {
        let e =
            compile_err("fn main() { let a: [int] = alloc(4); let b: [int] = alloc(4); a = b; }");
        assert!(e.msg.contains("cannot be reassigned") || e.msg.contains("not assignable"));
    }

    #[test]
    fn rejects_non_literal_stream_number() {
        let e = compile_err("fn main() { let s = 0; out_i(data_i(s, 0)); }");
        assert!(e.msg.contains("integer literal"));
    }

    #[test]
    fn rejects_void_call_in_expression() {
        let e = compile_err("fn f() { }\nfn main() { let x = f(); }");
        assert!(e.msg.contains("returns no value"));
    }

    #[test]
    fn rejects_missing_main() {
        let e = compile_err("fn f() { }");
        assert!(e.msg.contains("no `main`"));
    }

    #[test]
    fn rejects_duplicate_function() {
        let e = compile_err("fn f() { }\nfn f() { }\nfn main() { }");
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn rejects_builtin_shadowing() {
        let e = compile_err("fn sqrt(x: float) -> float { return x; }\nfn main() { }");
        assert!(e.msg.contains("builtin"));
    }

    #[test]
    fn rejects_condition_of_wrong_type() {
        let e = compile_err("fn main() { if 1 { out_i(1); } }");
        assert!(e.msg.contains("must be bool"));
    }

    #[test]
    fn rejects_main_with_params() {
        let e = compile_err("fn main(x: int) { }");
        assert!(e.msg.contains("main"));
    }

    #[test]
    fn shadowing_in_nested_scope_is_allowed() {
        assert!(compile(
            "fn main() { let x = 1; if x > 0 { let x = 2.5; out_f(x); } out_i(x); }",
            "t"
        )
        .is_ok());
    }

    #[test]
    fn duplicate_in_same_scope_is_rejected() {
        let e = compile_err("fn main() { let x = 1; let x = 2; }");
        assert!(e.msg.contains("already declared"));
    }
}
