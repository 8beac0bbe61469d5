//! What protects a run from a process stopped from outside: a journaled
//! `minpsid` process that is told to stop (SIGTERM) or simply killed
//! (SIGKILL) mid-campaign leaves a WAL from which `--resume` prints the
//! report of a run nobody disturbed. Drives the real binary.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn minpsid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-interrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Start `args --journal dir` and send it `signal` once its WAL shows
/// progress. `None` when the run finished before it could be signalled
/// (the resume then serves everything — weaker, still has to match).
fn signalled_mid_run(args: &[&str], dir: &Path, signal: &str) -> Option<Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .arg("--journal")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn minpsid");
    let wal = dir.join("campaign.wal");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::fs::metadata(&wal).is_ok_and(|m| m.len() > 4096) {
        if child.try_wait().expect("poll child").is_some() {
            return None;
        }
        assert!(Instant::now() < deadline, "no journal progress in 120s");
        std::thread::sleep(Duration::from_millis(2));
    }
    let sent = Command::new("kill")
        .args([signal, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success(), "kill {signal} failed");
    Some(child.wait_with_output().expect("wait for child"))
}

/// Finish the run `dir` holds with `--resume`: it must print the report,
/// and leave the WAL, of the same command journaled to its end undisturbed
/// — so it also appended only what the interrupted run had not.
fn assert_resumes_to_undisturbed(args: &[&str], dir: &Path) {
    let whole_dir = dir.with_extension("whole");
    let _ = std::fs::remove_dir_all(&whole_dir);
    let whole = minpsid(&[args, &["--journal", whole_dir.to_str().unwrap()]].concat());
    assert!(whole.status.success(), "{whole:?}");
    let resumed = minpsid(&[args, &["--resume", dir.to_str().unwrap()]].concat());
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&whole.stdout)
    );
    let wal = |d: &Path| std::fs::read(d.join("campaign.wal")).expect("a journaled run's WAL");
    assert!(
        wal(dir) == wal(&whole_dir),
        "the resumed WAL is not the undisturbed run's"
    );
    for d in [dir, &whole_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// SIGTERM is the graceful path: the interrupt flag stops the pool, the
/// WAL is flushed, and the process exits non-zero naming the command
/// that finishes the campaign — which then appends only what is missing.
#[test]
fn sigterm_flushes_and_resume_prints_the_undisturbed_report() {
    let args: Vec<&str> = "fi hpccg --injections 3000 --seed 19 --threads 2"
        .split(' ')
        .collect();
    let dir = tmpdir("sigterm");
    if let Some(out) = signalled_mid_run(&args, &dir, "-TERM") {
        let diag = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "an interrupted run exits non-zero");
        assert!(
            diag.contains("--resume") && diag.contains(dir.to_str().unwrap()),
            "expected the resume hint on stderr: {diag}"
        );
    }
    assert_resumes_to_undisturbed(&args, &dir);
}

/// SIGKILL gives the process no say: whatever reached the WAL is the
/// whole story, and the resumed pipeline still ends where an undisturbed
/// one does.
#[test]
fn sigkilled_pipeline_resumes_to_the_undisturbed_report() {
    let args: Vec<&str> = "minpsid pathfinder --quick --seed 42 --level 0.5 --quiet"
        .split(' ')
        .collect();
    let dir = tmpdir("sigkill");
    if let Some(out) = signalled_mid_run(&args, &dir, "-KILL") {
        assert!(!out.status.success(), "SIGKILL is not an exit");
    }
    assert_resumes_to_undisturbed(&args, &dir);
}
