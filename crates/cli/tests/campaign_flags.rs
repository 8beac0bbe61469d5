//! What the command line promises about a campaign's budget and about the
//! flags it no longer has, on the real binary: `--deadline-secs` always
//! ends in an honest report, and a flag an older binary accepted — or one
//! the chosen subcommand does not read — is refused before anything runs,
//! while a trace log a retired flag wrote still reads.

use std::process::{Command, Output};

fn minpsid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid")
}

fn stdout_of(args: &[&str]) -> String {
    let out = minpsid(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// An expired budget, a loose one and one no clock can represent all exit
/// 0 with a completeness line and a CI annotation; the same seed prints
/// the same bytes twice; and a budget that never bites prints what no
/// budget prints.
#[test]
fn deadlines_end_in_an_honest_report() {
    let fi = ["fi", "pathfinder", "--quick", "--seed", "42", "--quiet"];
    let with = |extra: &[&str]| stdout_of(&[&fi[..], extra].concat());
    let unbounded = with(&[]);
    assert!(
        unbounded.contains("\ncompleteness: 1.0000\n"),
        "{unbounded}"
    );

    let expired = with(&["--deadline-secs", "0"]);
    assert!(expired.contains("\ncompleteness: 0.0000\n"), "{expired}");
    assert!(
        expired.contains("truncated: 120 of 120 planned"),
        "{expired}"
    );
    assert!(expired.contains("SDC probability") && expired.contains("CI"));
    assert_eq!(expired, with(&["--deadline-secs", "0"]));

    // 1e19 s overflowed `Instant + Duration`, 1e300 s `Duration` itself
    for loose in ["120", "1e19", "1e300"] {
        assert_eq!(with(&["--deadline-secs", loose]), unbounded, "{loose}");
    }
    for cmd in ["analyze", "minpsid"] {
        let args = [cmd, "pathfinder", "--quick", "--seed", "42", "--quiet"];
        let plain = stdout_of(&args);
        for loose in ["1e19", "1e300"] {
            let out = stdout_of(&[&args[..], &["--deadline-secs", loose]].concat());
            assert_eq!(out, plain, "{cmd} {loose}");
        }
    }
}

/// The retry scheduler's six flags went with it, and the flag audit took
/// three more (`--golden-cache-cap`: nothing capped; `--incremental`: on
/// wherever it was legal; `--checkpoint-interval`: the engine chooses),
/// and per-site early stopping took `--ci-half-width`; the IR optimizer
/// took `compile --opt` and the weighted-CFG export `cfg --fn`, and
/// `propagate`'s site token took `--nth` and `--bit`: each is a
/// usage error under every subcommand that used to read it, not a silent
/// no-op.
#[test]
fn retired_flags_are_unknown_flags() {
    for cmd in ["fi", "analyze", "sid", "minpsid"] {
        for flag in [
            "--max-retries",
            "--quarantine-after",
            "--quarantine-cap",
            "--injection-timeout-ms",
            "--chaos-panic-one-in",
            "--chaos-timeout-one-in",
            "--golden-cache-cap",
            "--incremental",
            "--checkpoint-interval",
            "--ci-half-width",
            "--profile-interp",
            "--profile-sample-every",
            "--profile-folded",
            "--opt",
            "--fn",
        ] {
            let out = minpsid(&[cmd, "pathfinder", "--quick", flag, "3"]);
            assert_eq!(out.status.code(), Some(1), "{cmd} {flag}: {out:?}");
            assert!(out.stdout.is_empty(), "{cmd} {flag} ran something");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("error: unknown flag {flag}")),
                "{cmd} {flag}: {err}"
            );
        }
    }
    let out = minpsid(&["compile", "pathfinder", "--opt"]);
    assert_eq!(out.status.code(), Some(1), "compile --opt: {out:?}");
    assert!(out.stdout.is_empty(), "compile --opt printed IR");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: unknown flag --opt"), "{err}");
    // `propagate` names its fault by site, instance and bit
    for flag in ["--nth", "--bit"] {
        let out = minpsid(&["propagate", "pathfinder", "main::%3:0:33", flag, "3"]);
        assert_eq!(out.status.code(), Some(1), "propagate {flag}: {out:?}");
        assert!(out.stdout.is_empty(), "propagate {flag} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("error: unknown flag {flag}")),
            "{err}"
        );
    }
}

/// The weighted-CFG DOT export went with its subcommand; the Fig. 5 route
/// is `examples/weighted_cfg.rs`. `minpsid cfg` is refused like a typo.
#[test]
fn the_retired_cfg_command_is_an_unknown_command() {
    let out = minpsid(&["cfg", "pathfinder"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "cfg printed something");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: unknown command"), "{err}");
}

/// The interpreter sampling profiler is gone, but a log it wrote still
/// reads: the wire fixture's `interp_profile` line passes `trace check`,
/// and `trace report` renders the rest of the log without a profile
/// section.
#[test]
fn a_log_holding_a_retired_interp_profile_still_reads() {
    let fixture = include_str!("../../trace/tests/fixtures/v12.jsonl");
    assert!(fixture.contains("\"kind\":\"interp_profile\""));
    let log = std::env::temp_dir().join(format!("minpsid-old-log-{}.jsonl", std::process::id()));
    std::fs::write(&log, fixture).expect("write the log");
    let log_arg = log.to_str().expect("utf-8 path");

    let check = stdout_of(&["trace", "check", log_arg]);
    let lines = fixture.lines().count();
    assert!(
        check.ends_with(&format!("{lines} events, schema ok\n")),
        "{check}"
    );

    let report = stdout_of(&["trace", "report", log_arg]);
    assert!(report.starts_with("# "), "{report}");
    for gone in ["Interpreter profile", "LoadBinStoreBr", "superinstructions"] {
        assert!(!report.contains(gone), "{gone:?} in:\n{report}");
    }
    let _ = std::fs::remove_file(&log);
}

/// `analyze` keeps no store: `--store S` used to exit 0, create nothing
/// and leave the next call to re-run every injection. Now the command
/// line is refused, naming the subcommand, and nothing is created.
#[test]
fn a_flag_the_subcommand_does_not_read_is_refused() {
    let store = std::env::temp_dir().join(format!("minpsid-analyze-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let s = store.to_str().expect("utf-8 temp path");
    let out = minpsid(&["analyze", "hpccg", "--per-inst", "40", "--store", s]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "analyze ran something");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: `minpsid analyze` does not read --store"),
        "{err}"
    );
    assert!(!store.exists(), "{} was created", store.display());
}
