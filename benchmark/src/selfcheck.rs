//! The A/A self-check: every workload twice on one build. Each end-to-end
//! metric's relative difference is printed next to its bound from
//! `BENCHMARK.json`; the differences are written to
//! `benchmark/out/selfcheck.json` as the `noise` later A/B reports quote.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats::rel_diff;
use minpsid_trace::json::{parse, Json};
use std::path::Path;
use std::process::Command;

/// `setup_s` of a workload whose set-up is a few milliseconds differs by
/// more than any relative bound between two runs; below this many seconds
/// of absolute difference it passes.
const SETUP_FLOOR_S: f64 = 0.05;

/// The `metrics` object of the result line (the last line) of `stdout`.
pub fn result_metrics(stdout: &str) -> Result<Json, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let result = parse(line).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run not correct: {line}"));
    }
    result.get("metrics").cloned().ok_or("no metrics".into())
}

fn metric_value(metrics: &Json, name: &str) -> Result<f64, String> {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or(format!("no metric `{name}`"))
}

/// `bound` of each end-to-end metric declared in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.map(String::from)
                .zip(bound)
                .ok_or("BENCHMARK.json: metric without name or bound".to_string())
        })
        .collect()
}

fn run_once(exe: &Path, workload: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{workload}: exit {:?}", out.status.code()));
    }
    result_metrics(&String::from_utf8_lossy(&out.stdout))
}

/// Run the check; the process exit code.
pub fn run(exe: &Path, seed: u64, seconds: u64, out_dir: &Path) -> Result<i32, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let bounds = bounds(&text)?;
    let mut report = Json::obj();
    let mut worst = 0;
    println!("workload metric a b rel_diff bound verdict");
    for w in WORKLOADS {
        let (a, b) = (
            run_once(exe, w, seed, seconds)?,
            run_once(exe, w, seed, seconds)?,
        );
        let mut noise = Json::obj();
        for (name, _) in END_TO_END {
            let (va, vb) = (metric_value(&a, name)?, metric_value(&b, name)?);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|b| b.1)
                .ok_or(format!("BENCHMARK.json declares no `{name}`"))?;
            let diff = rel_diff(va, vb);
            let ok = diff <= bound || (name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S);
            if !ok {
                worst = 1;
            }
            println!(
                "{w} {name} {va:.6} {vb:.6} {diff:.4} {bound} {}",
                if ok { "ok" } else { "EXCEEDS" }
            );
            noise.set(name, Json::F64(diff));
        }
        let mut entry = Json::obj();
        entry.set("noise", noise);
        report.set(w, entry);
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join("selfcheck.json");
    std::fs::write(&path, report.render() + "\n").map_err(|e| e.to_string())?;
    println!("# wrote {}", path.display());
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_bounds_and_result_metrics() {
        let b =
            bounds(r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#);
        assert_eq!(b.unwrap(), vec![("wall_s".to_string(), 0.1)]);
        assert!(bounds(r#"{"end_to_end":[{"name":"wall_s"}]}"#).is_err());

        let out = "# header\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":2.5,\"unit\":\"s\"}}}\n";
        let m = result_metrics(out).unwrap();
        assert_eq!(metric_value(&m, "wall_s"), Ok(2.5));
        assert!(metric_value(&m, "setup_s").is_err());
        assert!(result_metrics(&out.replace("true", "false")).is_err());
    }
}
