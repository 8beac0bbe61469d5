//! Per-function content fingerprints ("section" fingerprints).
//!
//! A section is one function. Its fingerprint covers the function's name,
//! signature, printed instruction text, block structure, and — transitively —
//! the fingerprints of every callee. Two modules that agree on a section's
//! fingerprint therefore agree on everything the fault-injection campaign
//! for that section can observe statically; the remaining dynamic context
//! (input, golden trajectory) is covered separately by the campaign's table
//! signature. Fingerprints are the key under which per-section outcome
//! tables are memoized and composed (FastFlip-style O(diff) re-campaigns).

use crate::bytes::Fnv;
use crate::inst::InstKind;
use crate::module::{FuncId, Module};
use crate::printer::print_inst;

/// The direct callees of each function, deduplicated, in call-site order.
pub fn callees(m: &Module) -> Vec<Vec<FuncId>> {
    m.funcs
        .iter()
        .map(|f| {
            let mut out: Vec<FuncId> = Vec::new();
            for inst in &f.insts {
                if let InstKind::Call { func, .. } = &inst.kind {
                    if !out.contains(func) {
                        out.push(*func);
                    }
                }
            }
            out
        })
        .collect()
}

/// Content hash of one function's own text: name, signature, blocks, and
/// every printed instruction. Call targets appear as positional `FuncId`s
/// here; their *content* is mixed in transitively by
/// [`section_fingerprints`].
fn local_fingerprint(m: &Module, fid: FuncId) -> u64 {
    let f = m.func(fid);
    let mut h = Fnv::new();
    h.bytes(f.name.as_bytes());
    h.u64(f.params.len() as u64);
    for p in &f.params {
        h.bytes(p.to_string().as_bytes());
    }
    match f.ret {
        Some(t) => h.bytes(t.to_string().as_bytes()),
        None => h.bytes(b"void"),
    }
    h.u64(if fid == m.entry { 1 } else { 0 });
    h.u64(f.blocks.len() as u64);
    for b in &f.blocks {
        h.u64(b.insts.len() as u64);
        for &iid in &b.insts {
            h.bytes(print_inst(f, iid).as_bytes());
        }
    }
    h.finish()
}

/// Stable per-section content fingerprints, one per function in module
/// order.
///
/// Computed as a fixpoint over the call graph: each round rehashes every
/// function's local fingerprint together with its callees' fingerprints
/// from the previous round. After `|funcs|` rounds every acyclic call chain
/// has fully propagated and cyclic components have converged to a
/// deterministic value, so editing any function changes the fingerprint of
/// that function and every (transitive) caller, and nothing else.
pub fn section_fingerprints(m: &Module) -> Vec<u64> {
    let n = m.funcs.len();
    let local: Vec<u64> = (0..n)
        .map(|i| local_fingerprint(m, FuncId(i as u32)))
        .collect();
    let calls = callees(m);
    let mut fp = local.clone();
    for _ in 0..n {
        let mut next = Vec::with_capacity(n);
        for i in 0..n {
            let mut h = Fnv::new();
            h.u64(local[i]);
            for &c in &calls[i] {
                h.u64(fp[c.index()]);
            }
            next.push(h.finish());
        }
        fp = next;
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Ty;

    fn two_func_module(helper_const: i64) -> Module {
        let mut mb = ModuleBuilder::new("t");
        let main = mb.declare("main", vec![], Some(Ty::I64));
        let helper = mb.declare("helper", vec![], Some(Ty::I64));

        let mut fb = mb.body(helper);
        let v = fb.add(Ty::I64, helper_const, 1i64);
        fb.ret(v);
        mb.define(fb);

        let mut fb = mb.body(main);
        let v = fb.call(helper, Some(Ty::I64), vec![]);
        fb.ret(v);
        mb.define(fb);

        mb.set_entry(main);
        mb.finish()
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let a = section_fingerprints(&two_func_module(7));
        let b = section_fingerprints(&two_func_module(7));
        assert_eq!(a, b);
    }

    #[test]
    fn editing_a_callee_changes_the_caller_fingerprint_too() {
        let a = section_fingerprints(&two_func_module(7));
        let b = section_fingerprints(&two_func_module(8));
        assert_ne!(a[1], b[1], "edited function must change");
        assert_ne!(a[0], b[0], "transitive caller must change");
    }

    #[test]
    fn editing_a_leaf_leaves_unrelated_functions_alone() {
        // Add an unrelated third function to both variants; its fingerprint
        // must not move when `helper` is edited.
        let mk = |c: i64| {
            let mut m = two_func_module(c);
            let mut f = crate::module::Function::new("island", vec![], None);
            f.insts
                .push(crate::inst::Inst::new(InstKind::Ret { v: None }, None));
            f.blocks.push(crate::module::Block {
                insts: vec![crate::inst::InstId(0)],
                name: None,
            });
            m.funcs.push(f);
            m
        };
        let a = section_fingerprints(&mk(7));
        let b = section_fingerprints(&mk(8));
        assert_eq!(a[2], b[2], "untouched function keeps its fingerprint");
        assert_ne!(a[1], b[1]);
    }

    #[test]
    fn recursive_functions_converge() {
        // self-recursive function: fixpoint must terminate deterministically
        let mut mb = ModuleBuilder::new("r");
        let rec = mb.declare("rec", vec![], None);
        let mut fb = mb.body(rec);
        fb.call(rec, None, vec![]);
        fb.ret_void();
        mb.define(fb);
        let m = mb.finish();
        let a = section_fingerprints(&m);
        let b = section_fingerprints(&m);
        assert_eq!(a, b);
    }
}
