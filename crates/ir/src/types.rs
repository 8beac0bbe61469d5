//! Scalar types of the IR.

use std::fmt;

/// The scalar types a value in the IR can have.
///
/// `Ptr` values are opaque base offsets into the execution's linear memory;
/// element access always goes through `Load`/`Store` with an explicit `I64`
/// index, so pointer arithmetic never mixes with data arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// Boolean (the result type of comparisons).
    Bool,
    /// Opaque pointer into linear memory.
    Ptr,
}

impl Ty {
    /// True for the numeric types that arithmetic instructions accept.
    pub fn is_numeric(self) -> bool {
        matches!(self, Ty::I64 | Ty::F64)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I64 => "i64",
            Ty::F64 => "f64",
            Ty::Bool => "bool",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(Ty::I64.is_numeric());
        assert!(Ty::F64.is_numeric());
        assert!(!Ty::Bool.is_numeric());
        assert!(!Ty::Ptr.is_numeric());
    }

    #[test]
    fn display_names() {
        assert_eq!(Ty::I64.to_string(), "i64");
        assert_eq!(Ty::F64.to_string(), "f64");
        assert_eq!(Ty::Bool.to_string(), "bool");
        assert_eq!(Ty::Ptr.to_string(), "ptr");
    }
}
