//! What the command line promises about a content-addressed store, on the
//! real binary: a store-backed run leaves a store that scrubs clean, a
//! second run is served from it and prints the same bytes, and a bit-rotted
//! object is caught by `store scrub` (exit 3) and recomputed by the next
//! run, after which the store scrubs clean again.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn minpsid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minpsid"))
        .args(args)
        .output()
        .expect("spawn minpsid")
}

/// A store-backed `minpsid` run on pathfinder: its stdout and stderr.
fn run(store: &Path, quiet: bool) -> (String, String) {
    let store = store.to_str().expect("utf-8 path");
    let mut args = vec![
        "minpsid",
        "pathfinder",
        "--quick",
        "--seed",
        "42",
        "--level",
        "0.5",
        "--store",
        store,
    ];
    if quiet {
        args.push("--quiet");
    }
    let out = minpsid(&args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
    (text(out.stdout), text(out.stderr))
}

/// `store scrub`'s exit code.
fn scrub(store: &Path) -> i32 {
    let out = minpsid(&["store", "scrub", store.to_str().expect("utf-8 path")]);
    out.status.code().expect("scrub exited")
}

fn objects(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("store directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            objects(&path, found);
        } else if path.extension().is_some_and(|e| e == "obj") {
            found.push(path);
        }
    }
}

/// The store's golden-cache line on stderr says every golden run was a
/// disk hit: no in-process hit, at least one disk hit, no miss.
fn served_from_disk(stderr: &str) -> bool {
    stderr.lines().any(|line| {
        let words: Vec<&str> = line.split_whitespace().collect();
        matches!(
            words[..],
            ["golden", "cache", "0", "hits", "/", n, "disk", "hits", "/", "0", "misses", ..]
                if n.parse::<u64>().is_ok_and(|n| n >= 1)
        )
    })
}

#[test]
fn a_store_scrubs_serves_and_heals() {
    let store = std::env::temp_dir().join(format!("minpsid-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let (first, _) = run(&store, true);
    assert_eq!(scrub(&store), 0, "a fresh store scrubs clean");

    let (second, stderr) = run(&store, false);
    assert_eq!(
        second, first,
        "a run served from the store prints the same bytes"
    );
    assert!(
        served_from_disk(&stderr),
        "not served from the store:\n{stderr}"
    );

    let mut found = Vec::new();
    objects(&store.join("objects"), &mut found);
    found.sort();
    let object = found.first().expect("the run stored objects");
    let mut bytes = std::fs::read(object).expect("read object");
    bytes[3] ^= 1;
    std::fs::write(object, bytes).expect("flip one bit");
    assert_eq!(scrub(&store), 3, "scrub on a corrupt store");

    let (third, _) = run(&store, true);
    assert_eq!(third, first, "a recomputed artifact prints the same bytes");
    assert_eq!(scrub(&store), 0, "the store scrubs clean again");
    let _ = std::fs::remove_dir_all(&store);
}
