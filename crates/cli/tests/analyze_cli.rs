//! `minpsid analyze` on the real binary: the report's every byte, so the
//! SDC probability and interval columns, read from each site's outcome
//! counts, stay what the campaign measured.

use std::process::Command;

#[test]
fn analyze_prints_the_pinned_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(["analyze", "pathfinder", "--top", "5", "--per-inst", "6"])
        .args(["--seed", "42", "--threads", "1"])
        .output()
        .expect("spawn minpsid");
    assert!(out.status.success(), "{out:?}");
    let want = "\
138 static instructions, 39 carry measurable SDC benefit; top 5:
  rank   benefit  sdc-prob          95%-ci   dyn-count      sampling | instruction
     1   0.02614    100.0%   61.0%..100.0%         920          full | main::%77 : i64 = load i64 %0[2]
     2   0.02179     83.3%   43.6%.. 97.0%         920          full | main::%91 : i64 = load i64 %0[4]
     3   0.01340     50.0%   18.8%.. 81.2%         943          full | main::%26 : i64 = load i64 %0[2]
     4   0.01340     50.0%   18.8%.. 81.2%         943          full | main::%83 : i64 = load i64 %0[4]
     5   0.01307     50.0%   18.8%.. 81.2%         920          full | main::%73 : i64 = load i64 %0[3]
completeness: 1.0000
";
    assert_eq!(String::from_utf8(out.stdout).unwrap(), want);
}
