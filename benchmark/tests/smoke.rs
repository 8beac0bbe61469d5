//! Contract tests: a `--smoke` run of every workload emits exactly the
//! metrics `BENCHMARK.json` declares, and the benchmark is built with the
//! release profile of the root manifest.
//!
//! The binary refuses to measure a debug build, so run these with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use minpsid_benchmark::report::{per_layer, valid_name, END_TO_END, WORKLOADS};
use minpsid_benchmark::selfcheck::result_metrics;
use minpsid_trace::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    parse(&text).unwrap()
}

/// `(name, unit)` of every entry of one of the contract's lists.
fn declared(doc: &Json, list: &str) -> BTreeSet<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(pairs: impl IntoIterator<Item = (String, &'static str)>) -> BTreeSet<(String, String)> {
    pairs.into_iter().map(|(n, u)| (n, u.to_string())).collect()
}

#[test]
fn catalogue_equals_benchmark_json_in_both_directions() {
    let doc = benchmark_json();
    let e2e = owned(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)));
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    assert_eq!(declared(&doc, "per_layer"), owned(per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in declared(&doc, "end_to_end")
        .iter()
        .chain(&declared(&doc, "per_layer"))
    {
        assert!(valid_name(name), "`{name}`");
    }
}

#[test]
fn smoke_run_emits_exactly_the_declared_metrics() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the benchmark binary refuses debug builds; use cargo test --release");
        return;
    }
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_minpsid-benchmark"))
                .current_dir(repo_root())
                .args(["--smoke", "--workload", workload, "--trace", trace])
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let metrics = result_metrics(&stdout).unwrap();
            let Json::Object(fields) = &metrics else {
                panic!("metrics is not an object")
            };
            let emitted: BTreeSet<(String, String)> = fields
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, declared(&doc, list), "{workload} --trace {trace}");
        }
    }
}

/// The `[profile.release]` table of a manifest, comments and blank lines
/// dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap().trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_matches_root() {
    let root = std::fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let own = std::fs::read_to_string(repo_root().join("benchmark/Cargo.toml")).unwrap();
    let expected = release_profile(&root);
    assert!(
        !expected.is_empty(),
        "root manifest has no [profile.release]"
    );
    assert_eq!(
        release_profile(&own),
        expected,
        "the benchmark would measure a differently optimised interpreter"
    );
}
