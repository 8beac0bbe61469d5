//! `minpsid-benchmark`: one workload per process (so `peak_rss_mb` is that
//! workload's), or `--selfcheck` / no `--workload` to drive one child
//! process per workload. See `README.md`.

use minpsid_benchmark::pipeline::Mix;
use minpsid_benchmark::report::{result_json, WORKLOADS};
use minpsid_benchmark::spans::{self_by_name, totals_by_name, Tracer};
use minpsid_benchmark::{fi_units, incremental, selfcheck, suite, Budget, Run, Scale};
use minpsid_trace::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: minpsid-benchmark [--workload W] [--seed N] [--seconds N] \
[--trace 0|1 | --traced] [--smoke] [--selfcheck]
  W is one of pipeline_suite, search_heavy, fi_units, incremental_edit;
  without --workload every workload runs, each in its own process";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--traced" => a.trace = true,
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Run every workload, each as a child process of this binary with the
/// same flags; the exit code is the worst child's.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut worst = 0;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawning {w}: {e}"))?;
        worst = worst.max(status.code().unwrap_or(1));
    }
    Ok(worst)
}

fn header(args: &Args, workload: &str) -> Json {
    let mut h = Json::obj();
    h.set("workload", Json::Str(workload.into()));
    h.set("seed", Json::U64(args.seed));
    h.set("seconds", Json::U64(args.seconds));
    h.set("traced", Json::Bool(args.trace));
    h.set("smoke", Json::Bool(args.smoke));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    h.set("nproc", Json::U64(nproc as u64));
    h.set("threads", Json::U64(1));
    h.set("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into()));
    h.set("profile", Json::Str(env!("BENCH_PROFILE").into()));
    let commit = std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    h.set("commit", Json::Str(commit));
    h
}

fn run_workload(args: &Args, workload: &str) -> Result<i32, String> {
    let head = header(args, workload);
    println!("# {}", head.render());
    let scale = Scale { smoke: args.smoke };
    let budget = Budget {
        seconds: args.seconds as f64,
        one_pass: args.trace || args.smoke,
    };
    let out = out_dir();
    let scratch = out.join(format!("scratch-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let mut run = Run::new(args.trace);
    let mut ran = Ok(());
    match workload {
        "pipeline_suite" => suite::run(Mix::FiHeavy, args.seed, &scale, &budget, &mut run),
        "search_heavy" => suite::run(Mix::SearchHeavy, args.seed, &scale, &budget, &mut run),
        "fi_units" => fi_units::run(args.seed, &scale, &budget, &mut run),
        "incremental_edit" => {
            ran = incremental::run(args.seed, &scale, &budget, &scratch, &mut run)
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    ran.map_err(|e| format!("{workload}: {e}"))?;
    let Run {
        tracer,
        ledger,
        e2e,
        layers,
    } = run;

    for f in &ledger.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# failed_share {} ratio ({} failed of {} attempted)",
        ledger.failed_share(),
        ledger.failed,
        ledger.attempted
    );
    let metrics = if args.trace { &layers } else { &e2e };
    for (name, value, unit) in metrics.rows() {
        println!("{name} {value} {unit}");
    }
    if args.trace {
        write_spans(&tracer, &out.join(format!("{workload}.spans.jsonl")))?;
    }
    let result = result_json(&ledger, metrics);
    let line = result.render();
    let mut record = head;
    record.set("result", result);
    let kind = if args.trace { "traced" } else { "run" };
    let path = out.join(format!("{workload}.{kind}.json"));
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(ledger.exit_code())
}

fn write_spans(tracer: &Tracer, path: &Path) -> Result<(), String> {
    tracer
        .write_jsonl(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans: {} in {}", tracer.spans().len(), path.display());
    let own = self_by_name(tracer.spans());
    for (name, (total, calls)) in totals_by_name(tracer.spans()) {
        println!(
            "# span {name}: {calls} calls, {total:.6} s total, {:.6} s self",
            own[name]
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("minpsid-benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let code = parse_args().and_then(|args| {
        if args.selfcheck {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            selfcheck::run(&exe, args.seed, args.seconds, &out_dir())
        } else if let Some(w) = args.workload.clone() {
            run_workload(&args, &w)
        } else {
            run_all(&args)
        }
    });
    match code {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("minpsid-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
