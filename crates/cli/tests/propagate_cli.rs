//! `minpsid propagate` on the real binary: a site an `analyze` row names
//! pastes into it, a fault no campaign could inject is refused, and
//! `minpsid run` says when the program did not exit.

use std::process::{Command, Output};

fn minpsid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid")
}

/// The site and dynamic count of `analyze`'s first row for `bench`.
fn top_site(bench: &str) -> (String, u64) {
    let out = minpsid(&[
        "analyze",
        bench,
        "--top",
        "1",
        "--per-inst",
        "6",
        "--seed",
        "42",
        "--threads",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");
    let report = String::from_utf8(out.stdout).unwrap();
    let row = report
        .lines()
        .find(|l| l.trim_start().starts_with("1 "))
        .expect("a first row");
    let (numbers, inst) = row.split_once(" | ").expect("a row names its instruction");
    let site = inst.split(" : ").next().unwrap().to_string();
    // the column before the sampling status
    let count = numbers.split_whitespace().rev().nth(1).unwrap();
    (site, count.parse().unwrap())
}

#[test]
fn an_analyze_row_pastes_into_propagate() {
    let (site, count) = top_site("pathfinder");
    let token = format!("{site}:{}:33", count - 1);
    let out = minpsid(&["propagate", "pathfinder", &token]);
    assert!(out.status.success(), "{token}: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with(&format!("fault: {token}\noutcome: ")),
        "{text}"
    );
    assert!(
        text.lines().last().unwrap().starts_with("ended: "),
        "{text}"
    );
    assert_eq!(
        minpsid(&["propagate", "pathfinder", &token]).stdout,
        text.as_bytes()
    );

    for bad in [
        format!("{site}:{count}:33"),
        format!("{site}:0:64"),
        "nosuch::%0:0:0".to_string(),
        format!("{site}:0"),
    ] {
        let out = minpsid(&["propagate", "pathfinder", &bad]);
        assert_eq!(out.status.code(), Some(1), "{bad}: {out:?}");
        assert!(out.stdout.is_empty(), "{bad} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{bad}: {err}");
    }
}

/// A program that traps is an error of `run`, printed under `--quiet`
/// too, after the output it produced; one that exits is not.
#[test]
fn run_exits_1_when_the_program_traps() {
    let dir = std::env::temp_dir().join(format!("minpsid-run-trap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prog = dir.join("t.mc");
    std::fs::write(
        &prog,
        "fn main() { let a = arg_i(0); out_i(7); out_i(10 / a); }\n",
    )
    .unwrap();
    let prog = prog.to_str().unwrap();

    let out = minpsid(&["run", prog, "--args", "i:0", "--quiet"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "7\n");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("Trap(DivByZero)"), "{err}");

    let out = minpsid(&["run", prog, "--args", "i:2", "--quiet"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "7\n5\n");
    assert!(out.stderr.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
