//! Abstract syntax tree for minic. Names borrow from the source text.

/// Source-level types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    Int,
    Float,
    Bool,
    ArrInt,
    ArrFloat,
}

impl Type {
    pub fn is_array(self) -> bool {
        matches!(self, Type::ArrInt | Type::ArrFloat)
    }

    pub fn is_numeric(self) -> bool {
        matches!(self, Type::Int | Type::Float)
    }

    /// Element type of an array type.
    pub fn elem(self) -> Option<Type> {
        match self {
            Type::ArrInt => Some(Type::Int),
            Type::ArrFloat => Some(Type::Float),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Type::Int => "int",
            Type::Float => "float",
            Type::Bool => "bool",
            Type::ArrInt => "[int]",
            Type::ArrFloat => "[float]",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Program<'src> {
    pub fns: Vec<FnDecl<'src>>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FnDecl<'src> {
    pub name: &'src str,
    pub params: Vec<(&'src str, Type)>,
    pub ret: Option<Type>,
    pub body: Block<'src>,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block<'src> {
    pub stmts: Vec<Stmt<'src>>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'src> {
    Let {
        name: &'src str,
        ty: Option<Type>,
        init: Expr<'src>,
        line: u32,
    },
    Assign {
        name: &'src str,
        value: Expr<'src>,
        line: u32,
    },
    AssignIdx {
        name: &'src str,
        idx: Expr<'src>,
        value: Expr<'src>,
        line: u32,
    },
    If {
        cond: Expr<'src>,
        then_b: Block<'src>,
        else_b: Option<Block<'src>>,
        line: u32,
    },
    While {
        cond: Expr<'src>,
        body: Block<'src>,
        line: u32,
    },
    /// `for var = from to to_ { body }` — half-open `[from, to_)`, `to_`
    /// evaluated once before the loop.
    For {
        var: &'src str,
        from: Expr<'src>,
        to_: Expr<'src>,
        body: Block<'src>,
        line: u32,
    },
    Return {
        value: Option<Expr<'src>>,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    Expr {
        e: Expr<'src>,
        line: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl BinaryOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'src> {
    IntLit(i64, u32),
    FloatLit(f64, u32),
    BoolLit(bool, u32),
    Var(&'src str, u32),
    Index {
        name: &'src str,
        idx: Box<Expr<'src>>,
        line: u32,
    },
    Call {
        name: &'src str,
        args: Vec<Expr<'src>>,
        line: u32,
    },
    Unary {
        op: UnaryOp,
        e: Box<Expr<'src>>,
        line: u32,
    },
    Binary {
        op: BinaryOp,
        l: Box<Expr<'src>>,
        r: Box<Expr<'src>>,
        line: u32,
    },
}

impl Expr<'_> {
    pub fn line(&self) -> u32 {
        match self {
            Expr::IntLit(_, l)
            | Expr::FloatLit(_, l)
            | Expr::BoolLit(_, l)
            | Expr::Var(_, l)
            | Expr::Index { line: l, .. }
            | Expr::Call { line: l, .. }
            | Expr::Unary { line: l, .. }
            | Expr::Binary { line: l, .. } => *l,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_helpers() {
        assert!(Type::ArrFloat.is_array());
        assert_eq!(Type::ArrFloat.elem(), Some(Type::Float));
        assert_eq!(Type::Int.elem(), None);
        assert!(Type::Float.is_numeric());
        assert!(!Type::Bool.is_numeric());
        assert_eq!(Type::ArrInt.name(), "[int]");
    }

    #[test]
    fn binary_op_classification() {
        assert!(BinaryOp::Le.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert!(!BinaryOp::Lt.is_logical());
    }

    #[test]
    fn expr_line_extraction() {
        let e = Expr::Binary {
            op: BinaryOp::Add,
            l: Box::new(Expr::IntLit(1, 3)),
            r: Box::new(Expr::IntLit(2, 3)),
            line: 3,
        };
        assert_eq!(e.line(), 3);
    }
}
