//! The campaign loop on the real binary. Every composition the command
//! line builds — a plain `fi`, a journaled `fi`, the journaled MINPSID
//! pipeline — prints the same bytes at 1 and 4 worker threads, and a
//! journaled `fi` leaves the same WAL. And a per-instruction campaign
//! that repeats faults and proves hangs prints what a campaign replaying
//! every fault cold from program start prints.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "minpsid-engine-smoke-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn every_composition_prints_the_same_bytes_at_one_and_four_threads() {
    let args = [
        "hpccg",
        "--quick",
        "--seed",
        "42",
        "--injections",
        "60",
        "--per-inst",
        "4",
        "--quiet",
    ];
    let run = |cmd: &str, threads: &str, extra: &[&str]| {
        stdout_of(&[&[cmd][..], &args, &["--threads", threads], extra].concat())
    };
    assert_eq!(run("fi", "1", &[]), run("fi", "4", &[]), "fi");

    let (j1, j4) = (temp("fi-t1"), temp("fi-t4"));
    assert_eq!(
        run("fi", "1", &["--journal", path(&j1)]),
        run("fi", "4", &["--journal", path(&j4)]),
        "journaled fi"
    );
    let wal = |dir: &Path| std::fs::read(dir.join("campaign.wal")).expect("campaign WAL");
    assert!(wal(&j1) == wal(&j4), "journaled fi: the WALs differ");

    let (m1, m4) = (temp("mp-t1"), temp("mp-t4"));
    assert_eq!(
        run("minpsid", "1", &["--level", "0.5", "--journal", path(&m1)]),
        run("minpsid", "4", &["--level", "0.5", "--journal", path(&m4)]),
        "journaled minpsid"
    );
    for d in [j1, j4, m1, m4] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The value of `"key":` in a JSON line of the trace.
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("{key} in {line}: {e}"))
}

/// kmeans at 64 faults per site: a site executed once draws its 64 faults
/// from 64 possibilities, so the campaign serves repeats from their first
/// run, and kmeans' inflated iteration counts are proved hangs at a latch.
/// Both show in `campaign_end`, and neither moves a report byte: the
/// campaign prints what one with no checkpoint to resume or converge on,
/// and no golden length to prove a hang past, prints.
#[test]
fn deduped_and_proved_runs_print_what_a_cold_replay_prints() {
    let args = [
        "analyze",
        "kmeans",
        "--per-inst",
        "64",
        "--seed",
        "42",
        "--threads",
        "1",
    ];
    let dir = temp("dedup");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("dedup.jsonl");
    let warm = stdout_of(&[&args[..], &["--trace-out", path(&trace)]].concat());
    let cold = stdout_of(&[&args[..], &["--no-checkpoints"]].concat());
    assert_eq!(warm, cold);
    let log = std::fs::read_to_string(&trace).expect("trace log");
    let ends: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"kind\":\"campaign_end\""))
        .collect();
    assert!(!ends.is_empty(), "no campaign_end in the trace");
    for key in ["deduped", "hangs_proved"] {
        let n: u64 = ends.iter().map(|l| field(l, key)).sum();
        assert!(n > 0, "campaign_end reports no {key}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
