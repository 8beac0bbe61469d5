//! The `experiments` binary end to end: two tables pinned byte for byte
//! (`fixtures/` holds what it prints at `--preset tiny --seed 42`; a
//! change that moves a table regenerates its fixture), the trace it
//! writes, the campaigns it runs, and its usage errors.

use std::path::Path;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn stdout_of(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
    String::from_utf8(out.stdout.clone()).expect("utf-8 tables")
}

#[test]
fn sec4_on_lu_matches_its_fixture() {
    let out = experiments(&[
        "sec4_incubative_stats",
        "--preset",
        "tiny",
        "--seed",
        "42",
        "--bench",
        "lu",
    ]);
    assert_eq!(stdout_of(&out), fixture("sec4_incubative_stats.lu.txt"));
}

/// fig2 on pathfinder, traced: the table matches its fixture, and the
/// trace is one that `minpsid trace check` and `trace report` accept.
#[test]
fn traced_fig2_on_pathfinder_matches_its_fixture() {
    let trace = std::env::temp_dir().join(format!("experiments-fig2-{}.jsonl", std::process::id()));
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let out = experiments(&[
        "fig2_baseline_loss",
        "--preset",
        "tiny",
        "--seed",
        "42",
        "--bench",
        "pathfinder",
        "--trace-out",
        trace_arg,
    ]);
    assert_eq!(
        stdout_of(&out),
        fixture("fig2_baseline_loss.pathfinder.txt")
    );

    let log = std::fs::read_to_string(&trace).expect("the trace was written");
    std::fs::remove_file(&trace).ok();
    assert!(!log.is_empty());
    let events = minpsid_trace::parse_log(&log)
        .unwrap_or_else(|(line, e)| panic!("trace line {line}: {e:?}"));
    let report = minpsid_trace::render_markdown(&minpsid_trace::summarize(&events));
    assert!(
        report.lines().any(|l| l.starts_with("## FI campaigns")),
        "{report}"
    );
}

/// A MINPSID pass extends its kernel's baseline profile: the reference
/// campaign runs once, so fig6 on one kernel runs one per-instruction
/// campaign for the reference and one per searched input. Coverage is read
/// from one whole-program campaign per evaluation input on the original
/// program, whatever the selections: none runs on a protected module.
#[test]
fn fig6_runs_the_reference_campaign_once() {
    let trace = std::env::temp_dir().join(format!("experiments-fig6-{}.jsonl", std::process::id()));
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let out = experiments(&[
        "fig6_minpsid_mitigation",
        "--preset",
        "tiny",
        "--seed",
        "42",
        "--bench",
        "pathfinder",
        "--trace-out",
        trace_arg,
    ]);
    stdout_of(&out);
    let log = std::fs::read_to_string(&trace).expect("the trace was written");
    std::fs::remove_file(&trace).ok();
    let events = minpsid_trace::parse_log(&log)
        .unwrap_or_else(|(line, e)| panic!("trace line {line}: {e:?}"));
    let campaigns = |kind: minpsid_trace::CampaignKind| {
        events
            .iter()
            .filter(|e| matches!(&e.event, minpsid_trace::Event::CampaignEnd { kind: k, .. } if *k == kind))
            .count()
    };
    let searched = events
        .iter()
        .filter(|e| matches!(e.event, minpsid_trace::Event::SearchInput { .. }))
        .count();
    assert!(searched > 0, "the pass searched no input");
    assert_eq!(
        campaigns(minpsid_trace::CampaignKind::PerInst),
        1 + searched
    );

    // the memo line counts the distinct (original program, input) pairs
    // evaluated: `unprotected runs N run / M reused`
    let stderr = String::from_utf8_lossy(&out.stderr);
    let inputs: usize = stderr
        .split("unprotected runs ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no memo line: {stderr}"));
    assert!(inputs > 0);
    assert_eq!(campaigns(minpsid_trace::CampaignKind::Program), inputs);
}

/// A usage error names what was wrong, lists the valid names and exits 2
/// before anything runs.
/// §VIII-B's rows are the threaded FFTs': a `--bench` naming another
/// kernel profiles, searches and evaluates none of them.
#[test]
fn sec8_on_another_kernel_runs_no_fft() {
    let out = experiments(&[
        "sec8_multithread",
        "--preset",
        "tiny",
        "--seed",
        "42",
        "--bench",
        "pathfinder",
    ]);
    let table = stdout_of(&out);
    assert!(table.contains("== Section VIII-B"), "{table}");
    assert!(!table.contains("baseline |"), "an FFT row: {table}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("baseline profiles 0 run / 0 reused, minpsid passes 0 run / 0 reused"),
        "{stderr}"
    );
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains("fig2_baseline_loss") && stderr.contains("pathfinder"),
        "{stderr}"
    );
}

#[test]
fn an_unknown_kernel_is_a_usage_error() {
    assert_usage_error(
        &["fig2_baseline_loss", "--bench", "knnn"],
        "unknown kernel `knnn`",
    );
}

#[test]
fn an_unknown_table_is_a_usage_error() {
    assert_usage_error(
        &["fig3_baseline_loss"],
        "unknown table `fig3_baseline_loss`",
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--threads", "2"], "unknown flag `--threads`");
}

#[test]
fn a_bad_value_is_a_usage_error() {
    assert_usage_error(&["--preset", "huge"], "unknown preset `huge`");
    assert_usage_error(&["--seed", "-1"], "bad seed `-1`");
    assert_usage_error(&["--seed"], "--seed needs a value");
}
