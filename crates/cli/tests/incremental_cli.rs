//! What the command line promises about incremental re-campaigns, on the
//! real binary: a cold store-backed `fi` run seals per-section outcome
//! tables; after a one-function edit, a re-run against the same store
//! prints the bytes a from-scratch run of the edited program prints while
//! executing under a fifth of the cold run's injections; and
//! `--no-incremental` leaves the table layer out. Journaled, the edited
//! re-run opens the unedited program's journal and supersedes it: nothing
//! is served from that journal, and the WAL it leaves equals a
//! from-scratch run's.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Two chunky leaves and a tiny one. Editing `tweak` from `x * 2` to
/// `x + x` keeps its value and instruction count, so every untouched
/// section's sealed table stays valid while `tweak`'s fingerprint (and its
/// caller's) changes.
const SOURCE: &str = r#"
fn heavy_a(n: int) -> int {
    let acc = 1;
    for i = 0 to n {
        let t = i * 3 + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        acc = acc + v - u;
    }
    return acc;
}
fn heavy_b(n: int) -> int {
    let acc = 1;
    for i = 0 to n {
        let t = i * 5 + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        acc = acc + v - u;
    }
    return acc;
}
fn tweak(x: int) -> int {
    return x * 2;
}
fn main() {
    let n = arg_i(0);
    let a = heavy_a(n);
    let b = heavy_b(n);
    out_i(tweak(a));
    out_i(tweak(b));
}
"#;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minpsid-incr-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Write the program, edited or not, to `dir/incr.mc`.
fn write_program(dir: &Path, edited: bool) -> PathBuf {
    let path = dir.join("incr.mc");
    let source = if edited {
        SOURCE.replace("return x * 2;", "return x + x;")
    } else {
        SOURCE.to_string()
    };
    std::fs::write(&path, source).expect("write program");
    path
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// `minpsid fi` on `program` with the campaign every run here shares,
/// plus `extra`: its stdout and stderr.
fn fi(program: &Path, extra: &[&str]) -> (String, String) {
    let mut args = vec![
        "fi",
        path_str(program),
        "--args",
        "i:32",
        "--injections",
        "400",
        "--seed",
        "7",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(&args)
        .output()
        .expect("spawn minpsid");
    assert!(out.status.success(), "{args:?}: {out:?}");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
    (text(out.stdout), text(out.stderr))
}

/// The first number followed by the word `label` on the stderr line
/// starting with `prefix`.
fn count(stderr: &str, prefix: &str, label: &str) -> Option<u64> {
    let line = stderr.lines().find(|l| l.starts_with(prefix))?;
    let words: Vec<&str> = line.split_whitespace().collect();
    words.windows(2).find_map(|w| {
        let word = w[1].trim_end_matches([',', ';']);
        (word == label).then(|| w[0].parse().ok()).flatten()
    })
}

/// `(injections served from tables, executed, tables sealed)` from the
/// `sections:` line.
fn sections(stderr: &str) -> (u64, u64, u64) {
    let get = |label| {
        count(stderr, "sections:", label).unwrap_or_else(|| panic!("no {label}:\n{stderr}"))
    };
    (get("injections"), get("executed"), get("tables"))
}

#[test]
fn an_edit_reexecutes_only_its_sections() {
    let dir = tmp("store");
    let store = dir.join("store");
    let store = path_str(&store);

    let program = write_program(&dir, false);
    let (_, cold) = fi(&program, &["--store", store]);
    let (_, cold_executed, sealed) = sections(&cold);
    assert!(sealed > 0, "the cold run sealed no tables:\n{cold}");

    let program = write_program(&dir, true);
    let (scratch, _) = fi(&program, &[]);
    let (warm, stderr) = fi(&program, &["--store", store]);
    assert_eq!(
        warm, scratch,
        "the re-campaign differs from a from-scratch run of the edited program"
    );
    let (served, executed, _) = sections(&stderr);
    assert!(served > 0, "the re-campaign served nothing from tables");
    assert!(
        executed * 5 < cold_executed,
        "not O(diff): executed {executed} of {cold_executed} cold injections"
    );

    let (_, off) = fi(&program, &["--store", store, "--no-incremental"]);
    assert!(
        !off.contains("sections:"),
        "--no-incremental still engaged the table layer:\n{off}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journaled_edit_supersedes_the_old_journal() {
    let dir = tmp("journal");
    let journal = dir.join("journal");
    let fresh = dir.join("fresh");

    let program = write_program(&dir, false);
    let (_, cold) = fi(&program, &["--journal", path_str(&journal)]);
    let (_, cold_executed, _) = sections(&cold);

    let program = write_program(&dir, true);
    let (scratch, _) = fi(&program, &["--journal", path_str(&fresh)]);
    let (warm, stderr) = fi(&program, &["--journal", path_str(&journal)]);
    assert_eq!(warm, scratch, "the journaled re-campaign differs");
    assert_eq!(
        count(&stderr, "journal:", "injections"),
        Some(0),
        "the unedited program's journal served the edited one:\n{stderr}"
    );
    let (served, executed, _) = sections(&stderr);
    assert!(served > 0 && executed * 5 < cold_executed, "{stderr}");
    let wal = |d: &Path| std::fs::read(d.join("campaign.wal")).expect("read WAL");
    assert_eq!(
        wal(&journal),
        wal(&fresh),
        "the superseded journal's WAL differs from a from-scratch one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
