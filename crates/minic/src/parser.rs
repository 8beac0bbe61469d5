//! Recursive-descent parser for minic.

use crate::ast::*;
use crate::lexer::{TokKind, Token};
use crate::CompileError;

/// Parse a token stream into a program whose names borrow from the
/// tokens' source.
pub fn parse<'src>(tokens: &[Token<'src>]) -> Result<Program<'src>, CompileError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
    };
    let mut fns = Vec::new();
    while !p.at(TokKind::Eof) {
        fns.push(p.fn_decl()?);
    }
    Ok(Program { fns })
}

struct Parser<'t, 'src> {
    toks: &'t [Token<'src>],
    pos: usize,
}

impl<'src> Parser<'_, 'src> {
    fn peek(&self) -> Token<'src> {
        self.toks[self.pos]
    }

    fn at(&self, kind: TokKind) -> bool {
        self.peek().kind == kind
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kind: TokKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokKind) -> Result<(), CompileError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn err(&self, msg: String) -> CompileError {
        CompileError {
            line: self.line(),
            msg,
        }
    }

    fn ident(&mut self) -> Result<&'src str, CompileError> {
        match self.peek().kind {
            TokKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn ty(&mut self) -> Result<Type, CompileError> {
        if self.eat(TokKind::LBracket) {
            let elem = self.ty()?;
            self.expect(TokKind::RBracket)?;
            return match elem {
                Type::Int => Ok(Type::ArrInt),
                Type::Float => Ok(Type::ArrFloat),
                other => Err(self.err(format!("array of {} not supported", other.name()))),
            };
        }
        let t = match self.peek().kind {
            TokKind::KwInt => Type::Int,
            TokKind::KwFloat => Type::Float,
            TokKind::KwBool => Type::Bool,
            other => return Err(self.err(format!("expected a type, found {}", other.describe()))),
        };
        self.bump();
        Ok(t)
    }

    fn fn_decl(&mut self) -> Result<FnDecl<'src>, CompileError> {
        let line = self.line();
        self.expect(TokKind::Fn)?;
        let name = self.ident()?;
        self.expect(TokKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(TokKind::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect(TokKind::Colon)?;
                let pty = self.ty()?;
                params.push((pname, pty));
                if !self.eat(TokKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokKind::RParen)?;
        let ret = if self.eat(TokKind::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Block<'src>, CompileError> {
        self.expect(TokKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(TokKind::RBrace) {
            if self.at(TokKind::Eof) {
                return Err(self.err("unexpected end of file inside block".into()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(TokKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt<'src>, CompileError> {
        let line = self.line();
        match self.peek().kind {
            TokKind::Let => {
                self.bump();
                let name = self.ident()?;
                let ty = if self.eat(TokKind::Colon) {
                    Some(self.ty()?)
                } else {
                    None
                };
                self.expect(TokKind::Assign)?;
                let init = self.expr()?;
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Let {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            TokKind::If => {
                self.bump();
                let cond = self.expr()?;
                let then_b = self.block()?;
                let else_b = if self.eat(TokKind::Else) {
                    if self.at(TokKind::If) {
                        // else-if chain: wrap the nested if in a block
                        let nested = self.stmt()?;
                        Some(Block {
                            stmts: vec![nested],
                        })
                    } else {
                        Some(self.block()?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_b,
                    else_b,
                    line,
                })
            }
            TokKind::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokKind::For => {
                self.bump();
                let var = self.ident()?;
                self.expect(TokKind::Assign)?;
                let from = self.expr()?;
                self.expect(TokKind::To)?;
                let to_ = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
                    from,
                    to_,
                    body,
                    line,
                })
            }
            TokKind::Return => {
                self.bump();
                let value = if self.at(TokKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            TokKind::Break => {
                self.bump();
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Break { line })
            }
            TokKind::Continue => {
                self.bump();
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Continue { line })
            }
            TokKind::Ident(name) => {
                // assignment, indexed assignment, or expression statement —
                // disambiguate by lookahead
                let next = self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind;
                if next == TokKind::Assign {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    self.expect(TokKind::Semi)?;
                    return Ok(Stmt::Assign { name, value, line });
                }
                if next == TokKind::LBracket {
                    // could be `a[i] = v;` or an expression using `a[i]`;
                    // parse the index expression and check for `=`
                    let save = self.pos;
                    self.bump();
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokKind::RBracket)?;
                    if self.eat(TokKind::Assign) {
                        let value = self.expr()?;
                        self.expect(TokKind::Semi)?;
                        return Ok(Stmt::AssignIdx {
                            name,
                            idx,
                            value,
                            line,
                        });
                    }
                    self.pos = save;
                }
                let e = self.expr()?;
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Expr { e, line })
            }
            _ => {
                let e = self.expr()?;
                self.expect(TokKind::Semi)?;
                Ok(Stmt::Expr { e, line })
            }
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr<'src>, CompileError> {
        self.binary(1)
    }

    /// A left-associative chain of binary operators that bind at least as
    /// tightly as `min_prec`; the operator's line is the node's line.
    fn binary(&mut self, min_prec: u8) -> Result<Expr<'src>, CompileError> {
        let mut l = self.unary_expr()?;
        while let Some((op, prec)) = binary_op(self.peek().kind) {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let r = self.binary(prec + 1)?;
            l = Expr::Binary {
                op,
                l: Box::new(l),
                r: Box::new(r),
                line,
            };
        }
        Ok(l)
    }

    fn unary_expr(&mut self) -> Result<Expr<'src>, CompileError> {
        let line = self.line();
        if self.eat(TokKind::Minus) {
            let e = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                e: Box::new(e),
                line,
            });
        }
        if self.eat(TokKind::Bang) {
            let e = self.unary_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                e: Box::new(e),
                line,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr<'src>, CompileError> {
        let line = self.line();
        match self.peek().kind {
            TokKind::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v, line))
            }
            TokKind::Float(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, line))
            }
            TokKind::True => {
                self.bump();
                Ok(Expr::BoolLit(true, line))
            }
            TokKind::False => {
                self.bump();
                Ok(Expr::BoolLit(false, line))
            }
            TokKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokKind::RParen)?;
                Ok(e)
            }
            // `int(x)` / `float(x)` cast syntax uses type keywords
            TokKind::KwInt | TokKind::KwFloat => {
                let name = if self.at(TokKind::KwInt) {
                    "int"
                } else {
                    "float"
                };
                self.bump();
                self.expect(TokKind::LParen)?;
                let arg = self.expr()?;
                self.expect(TokKind::RParen)?;
                Ok(Expr::Call {
                    name,
                    args: vec![arg],
                    line,
                })
            }
            TokKind::Ident(name) => {
                self.bump();
                if self.eat(TokKind::LParen) {
                    let mut args = Vec::new();
                    if !self.at(TokKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokKind::RParen)?;
                    Ok(Expr::Call { name, args, line })
                } else if self.eat(TokKind::LBracket) {
                    let idx = self.expr()?;
                    self.expect(TokKind::RBracket)?;
                    Ok(Expr::Index {
                        name,
                        idx: Box::new(idx),
                        line,
                    })
                } else {
                    Ok(Expr::Var(name, line))
                }
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.describe()
            ))),
        }
    }
}

/// A binary operator token's operator and precedence (C's order: `||`
/// loosest, then `&&`, comparisons, `+ -`, `* / %`).
fn binary_op(kind: TokKind) -> Option<(BinaryOp, u8)> {
    Some(match kind {
        TokKind::OrOr => (BinaryOp::Or, 1),
        TokKind::AndAnd => (BinaryOp::And, 2),
        TokKind::EqEq => (BinaryOp::Eq, 3),
        TokKind::NotEq => (BinaryOp::Ne, 3),
        TokKind::Lt => (BinaryOp::Lt, 3),
        TokKind::Le => (BinaryOp::Le, 3),
        TokKind::Gt => (BinaryOp::Gt, 3),
        TokKind::Ge => (BinaryOp::Ge, 3),
        TokKind::Plus => (BinaryOp::Add, 4),
        TokKind::Minus => (BinaryOp::Sub, 4),
        TokKind::Star => (BinaryOp::Mul, 5),
        TokKind::Slash => (BinaryOp::Div, 5),
        TokKind::Percent => (BinaryOp::Rem, 5),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program<'_> {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params_and_ret() {
        let p = parse_src("fn f(a: int, b: [float]) -> float { return 1.0; }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params, vec![("a", Type::Int), ("b", Type::ArrFloat)]);
        assert_eq!(f.ret, Some(Type::Float));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse_src("fn main() { let x = 1 + 2 * 3; }");
        let Stmt::Let { init, .. } = &p.fns[0].body.stmts[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinaryOp::Add,
            r,
            ..
        } = init
        else {
            panic!("top is +: {init:?}")
        };
        assert!(matches!(
            **r,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_src(
            "fn main() { if a < 1 { out_i(1); } else if a < 2 { out_i(2); } else { out_i(3); } }",
        );
        let Stmt::If {
            else_b: Some(e), ..
        } = &p.fns[0].body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(e.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_for_loop() {
        let p = parse_src("fn main() { for i = 0 to 10 { out_i(i); } }");
        assert!(matches!(p.fns[0].body.stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn distinguishes_indexed_assign_from_indexed_read() {
        let p = parse_src("fn main(a: [int]) { a[0] = 1; out_i(a[0]); }");
        assert!(matches!(p.fns[0].body.stmts[0], Stmt::AssignIdx { .. }));
        assert!(matches!(p.fns[0].body.stmts[1], Stmt::Expr { .. }));
    }

    #[test]
    fn parses_short_circuit_chain() {
        let p = parse_src("fn main() { let x = a && b || c; }");
        let Stmt::Let { init, .. } = &p.fns[0].body.stmts[0] else {
            panic!()
        };
        // || at the top, && nested left
        let Expr::Binary {
            op: BinaryOp::Or,
            l,
            ..
        } = init
        else {
            panic!()
        };
        assert!(matches!(
            **l,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn parses_cast_keywords_as_calls() {
        let p = parse_src("fn main() { let x = int(3.5) + 1; let y = float(2); }");
        assert_eq!(p.fns[0].body.stmts.len(), 2);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let toks = lex("fn main() { let x = 1 }").unwrap();
        let e = parse(&toks).unwrap_err();
        assert!(e.msg.contains("expected `;`"), "{}", e.msg);
    }

    #[test]
    fn error_reports_correct_line() {
        let toks = lex("fn main() {\n\n  let = 1;\n}").unwrap();
        let e = parse(&toks).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unary_minus_nests() {
        let p = parse_src("fn main() { let x = --1; }");
        let Stmt::Let { init, .. } = &p.fns[0].body.stmts[0] else {
            panic!()
        };
        let Expr::Unary { e, .. } = init else {
            panic!()
        };
        assert!(matches!(**e, Expr::Unary { .. }));
    }
}
