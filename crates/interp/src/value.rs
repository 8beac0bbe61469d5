//! Runtime values, program inputs, and the output stream.

use std::fmt;

/// A runtime value held in a virtual register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I(i64),
    F(f64),
    B(bool),
    /// Pointer: an offset into the execution's linear memory.
    P(u64),
    /// Never produced by verified modules; reading it is a trap.
    Undef,
}

impl Value {
    pub fn as_i(self) -> Option<i64> {
        match self {
            Value::I(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f(self) -> Option<f64> {
        match self {
            Value::F(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_b(self) -> Option<bool> {
        match self {
            Value::B(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_p(self) -> Option<u64> {
        match self {
            Value::P(v) => Some(v),
            _ => None,
        }
    }
}

/// A scalar command-line-style argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    I(i64),
    F(f64),
}

impl Scalar {
    pub fn as_i(self) -> Option<i64> {
        match self {
            Scalar::I(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f(self) -> Option<f64> {
        match self {
            Scalar::F(v) => Some(v),
            _ => None,
        }
    }
}

/// A bulk input stream (an input file in the paper's setting): a typed,
/// read-only array the program accesses with `data_i` / `data_f`.
#[derive(Debug, Clone, PartialEq)]
pub enum Stream {
    I(Vec<i64>),
    F(Vec<f64>),
}

impl Stream {
    pub fn len(&self) -> usize {
        match self {
            Stream::I(v) => v.len(),
            Stream::F(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A concrete program input: the unit the GA search engine mutates and the
/// FI campaigns run against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgInput {
    pub args: Vec<Scalar>,
    pub streams: Vec<Stream>,
}

impl ProgInput {
    pub fn new(args: Vec<Scalar>, streams: Vec<Stream>) -> Self {
        ProgInput { args, streams }
    }

    /// Input with scalar arguments only.
    pub fn scalars(args: Vec<Scalar>) -> Self {
        ProgInput {
            args,
            streams: vec![],
        }
    }

    /// Bit-exact fingerprint (floats hash by bit pattern, so -0.0 and NaN
    /// payloads are distinguished, matching the interpreter's bit-exact
    /// semantics): the key journals, the golden-run store and sealed
    /// tables file this input under, and the name a harness panic gives
    /// it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = minpsid_ir::bytes::Fnv::new();
        h.u64(self.args.len() as u64);
        for a in &self.args {
            match a {
                Scalar::I(v) => {
                    h.bytes(b"i");
                    h.u64(*v as u64);
                }
                Scalar::F(v) => {
                    h.bytes(b"f");
                    h.u64(v.to_bits());
                }
            }
        }
        h.u64(self.streams.len() as u64);
        for s in &self.streams {
            match s {
                Stream::I(v) => {
                    h.bytes(b"I");
                    h.u64(v.len() as u64);
                    for x in v {
                        h.u64(*x as u64);
                    }
                }
                Stream::F(v) => {
                    h.bytes(b"F");
                    h.u64(v.len() as u64);
                    for x in v {
                        h.u64(x.to_bits());
                    }
                }
            }
        }
        h.finish()
    }
}

/// One item the program emitted.
#[derive(Debug, Clone, Copy)]
pub enum OutputItem {
    I(i64),
    F(f64),
}

impl PartialEq for OutputItem {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (OutputItem::I(a), OutputItem::I(b)) => a == b,
            // bit-exact comparison, NaN-stable: LLFI diffs output files
            // byte-wise, so two NaNs with equal payloads compare equal
            (OutputItem::F(a), OutputItem::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for OutputItem {}

impl fmt::Display for OutputItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputItem::I(v) => write!(f, "{v}"),
            OutputItem::F(v) => write!(f, "{v:?}"),
        }
    }
}

/// The full output stream of an execution. Equality is the paper's SDC
/// criterion: a fault whose run terminates normally but produces an output
/// unequal to the golden output is a silent data corruption.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Output {
    pub items: Vec<OutputItem>,
}

impl Output {
    pub fn push_i(&mut self, v: i64) {
        self.items.push(OutputItem::I(v));
    }

    pub fn push_f(&mut self, v: f64) {
        self.items.push(OutputItem::F(v));
    }

    /// Feed the output to a key, bit-exact and order-sensitive: the golden
    /// output a sealed table's signature pins and a journal's digest checks.
    pub fn key(&self, h: &mut minpsid_ir::bytes::Fnv) {
        h.u64(self.items.len() as u64);
        for item in &self.items {
            match item {
                OutputItem::I(v) => {
                    h.bytes(b"i");
                    h.u64(*v as u64);
                }
                OutputItem::F(v) => {
                    h.bytes(b"f");
                    h.u64(v.to_bits());
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_equality_is_bit_exact() {
        let mut a = Output::default();
        let mut b = Output::default();
        a.push_f(0.1 + 0.2);
        b.push_f(0.3);
        assert_ne!(a, b, "0.1+0.2 != 0.3 bitwise");

        let mut c = Output::default();
        let mut d = Output::default();
        c.push_f(f64::NAN);
        d.push_f(f64::NAN);
        assert_eq!(c, d, "identical NaN payloads compare equal");
    }

    #[test]
    fn output_type_confusion_is_inequality() {
        let mut a = Output::default();
        let mut b = Output::default();
        a.push_i(1);
        b.push_f(1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn negative_zero_differs_from_positive_zero() {
        let mut a = Output::default();
        let mut b = Output::default();
        a.push_f(0.0);
        b.push_f(-0.0);
        assert_ne!(a, b, "byte-wise file diff distinguishes -0.0");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::I(3).as_i(), Some(3));
        assert_eq!(Value::I(3).as_f(), None);
        assert_eq!(Value::F(2.5).as_f(), Some(2.5));
        assert_eq!(Value::B(true).as_b(), Some(true));
        assert_eq!(Value::P(9).as_p(), Some(9));
    }

    #[test]
    fn stream_len() {
        assert_eq!(Stream::I(vec![1, 2, 3]).len(), 3);
        assert!(Stream::F(vec![]).is_empty());
    }
}
