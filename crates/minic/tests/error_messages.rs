//! Every compile error that interpolates a name, pinned by its exact
//! display (`line N: text`). Names travel from the source through the
//! token stream, the AST and the lowering's scope tables into these
//! messages; how they are held on the way must not move one byte here.

use minic::compile;

/// `(source, the error's display)`.
const CASES: &[(&str, &str)] = &[
    (
        "fn main() {\n  out_i(x);\n}",
        "line 2: unknown variable `x`",
    ),
    (
        "fn f() { }\nfn f() { }\nfn main() { }",
        "line 2: duplicate function `f`",
    ),
    (
        "fn main() {\n  let x = 1;\n  let x = 2;\n}",
        "line 3: `x` already declared in this scope",
    ),
    (
        "fn f(a: int, a: int) { }\nfn main() { }",
        "line 1: `a` already declared in this scope",
    ),
    (
        "fn main() {\n  let x = 1;\n  x[0] = 2;\n}",
        "line 3: `x` is not an array",
    ),
    (
        "fn main() {\n  let x = 1;\n  out_i(x[0]);\n}",
        "line 3: `x` is not an array",
    ),
    ("fn main() {\n  g(1);\n}", "line 2: unknown function `g`"),
    (
        "fn main() {\n  let y = g(1);\n}",
        "line 2: unknown function `g`",
    ),
    (
        "fn f(a: int) { }\nfn main() {\n  f(1, 2);\n}",
        "line 3: `f` takes 1 argument(s), got 2",
    ),
    (
        "fn main() {\n  out_i(1, 2);\n}",
        "line 2: `out_i` takes 1 argument(s), got 2",
    ),
    (
        "fn main() {\n  out_i(max(1));\n}",
        "line 2: `max` takes 2 argument(s), got 1",
    ),
    (
        "fn sqrt(x: float) -> float { return x; }\nfn main() { }",
        "line 1: `sqrt` is a builtin name",
    ),
    (
        "fn alloc() { }\nfn main() { }",
        "line 1: `alloc` is a builtin name",
    ),
    (
        "fn main() {\n  let x = 1;\n  x = 2;\n}\nfn g() {\n  let y = 1;\n  y[0] = 1;\n}",
        "line 7: `y` is not an array",
    ),
    (
        "fn main() {\n  let n = 1;\n  n2 = 2;\n}",
        "line 3: unknown variable `n2`",
    ),
    (
        "fn main() {\n  let x = 1;\n  if x > 0 { let z = 2; }\n  z = 3;\n}",
        "line 4: unknown variable `z`",
    ),
    (
        "fn main() {\n  let a: [int] = alloc(4);\n  a = a;\n}",
        "line 3: `a` is not assignable",
    ),
    (
        "fn f(a: [int]) {\n  a = a;\n}\nfn main() { }",
        "line 1: array parameter `a` cannot be reassigned",
    ),
    (
        "fn f(x: int) -> int {\n  if x > 0 { return 1; }\n}\nfn main() { }",
        "line 1: function `f` can reach its end without returning a value",
    ),
    (
        "fn f() { }\nfn main() {\n  let x = f();\n}",
        "line 3: `f` returns no value and cannot be used in an expression",
    ),
    (
        "fn f() { }\nfn main() {\n  out_i(f() + 1);\n}",
        "line 3: `f` returns no value and cannot be used in an expression",
    ),
    (
        "fn main() {\n  let s = 0;\n  out_i(data_i(s, 0));\n}",
        "line 3: `data_i` stream number must be an integer literal",
    ),
    (
        "fn main() {\n  out_i(data_len(1, 2));\n}",
        "line 2: `data_len` takes 1 argument(s), got 2",
    ),
    (
        "fn main() {\n  out_f(arg_f(1.5));\n}",
        "line 2: `arg_f` index must be int",
    ),
    (
        "fn main() {\n  out_f(data_f(0, true));\n}",
        "line 2: `data_f` index must be int",
    ),
    (
        "fn main() {\n  out_i(min(true, 1));\n}",
        "line 2: min requires numeric operands, found bool and int",
    ),
    (
        "fn f(b: [int]) {\n  let a = b;\n  a = b;\n}\nfn main() { }",
        "line 2: array variable `a` cannot be reassigned",
    ),
    (
        "fn main() {\n  for i = 0 to 3 {\n    i[0] = 1;\n  }\n}",
        "line 3: `i` is not an array",
    ),
    (
        "fn main() {\n  let = 1;\n}",
        "line 2: expected identifier, found `=`",
    ),
    (
        "fn main() {\n  foo bar;\n}",
        "line 2: expected `;`, found identifier `bar`",
    ),
    (
        "fn main() {\n  let x = foo bar;\n}",
        "line 2: expected `;`, found identifier `bar`",
    ),
    (
        "fn main() {\n  let x: foo = 1;\n}",
        "line 2: expected a type, found identifier `foo`",
    ),
    (
        "fn main() {\n  out_i(1) x\n}",
        "line 2: expected `;`, found identifier `x`",
    ),
    (
        "fn main x() { }",
        "line 1: expected `(`, found identifier `x`",
    ),
];

#[test]
fn name_bearing_errors_display_exactly() {
    for &(src, want) in CASES {
        match compile(src, "t") {
            Ok(_) => panic!("{src:?} compiled; expected `{want}`"),
            Err(e) => assert_eq!(e.to_string(), want, "{src:?}"),
        }
    }
}
