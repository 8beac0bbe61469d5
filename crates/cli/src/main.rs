//! `minpsid` — command-line driver for the MINPSID reproduction.
//!
//! ```text
//! minpsid list                              # Table I: the benchmark suite
//! minpsid compile <bench|file.mc>           # emit textual IR
//! minpsid run <bench> [--args i:N f:X ...]  # execute and print output
//! minpsid fi <bench> [--injections N]       # whole-program FI campaign
//! minpsid sid <bench> [--level 0.5]         # baseline SID report
//! minpsid minpsid <bench> [--level 0.5]     # full MINPSID pipeline report
//! ```
//!
//! Benchmarks come from `minpsid-workloads`; `compile` also accepts a path
//! to a `.mc` (minic) source file.

use minpsid::{
    input_fingerprint, minpsid_config_fingerprint, module_fingerprint, module_section_map,
    run_minpsid_cached, run_minpsid_journaled, GoldenCache, MinpsidConfig, PipelineError,
};
use minpsid_faultsim::config::flag_value;
use minpsid_faultsim::{
    fi_journal_key, golden_run, interrupt, CampaignConfig, CampaignConfigBuilder, CampaignEngine,
    CampaignJournal, Deadline, ProgramCampaign, SchedSnapshot, Scheduler, TableMemo,
    TableStatsSnapshot,
};
use minpsid_interp::{ExecConfig, Interp, ProgInput, Scalar};
use minpsid_ir::printer::print_module;
use minpsid_ir::Module;
use minpsid_sid::{run_sid, SidConfig};
use minpsid_store::ArtifactStore;
use minpsid_trace as trace;
use std::io::{IsTerminal as _, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Set by `--quiet`: suppresses the CLI's stderr diagnostics (primary
/// results on stdout are unaffected).
static QUIET: AtomicBool = AtomicBool::new(false);

fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// A command that succeeded but wants a distinguishing exit code (e.g.
/// `store scrub` found and quarantined corruption: the store is healthy
/// again but CI must notice). 0 = plain success.
static EXIT_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `store scrub` exit code when the pass quarantined corrupt objects.
const SCRUB_CORRUPTION_EXIT: u8 = 3;

/// All CLI stderr diagnostics go through here so `--quiet` silences them
/// in one place.
macro_rules! diag {
    ($($arg:tt)*) => {
        if !crate::quiet() {
            eprintln!($($arg)*);
        }
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    if let Err(e) = check_flags(cmd, rest) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if rest.iter().any(|a| a == "--quiet") {
        QUIET.store(true, Ordering::Relaxed);
    }
    if let Err(e) = init_trace_sink(rest) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // --progress is a stderr convenience; --quiet wins outright.
    if rest.iter().any(|a| a == "--progress") && !quiet() {
        install_progress_meter();
    }
    let result = match cmd.as_str() {
        "list" => cmd_list(),
        "compile" => cmd_compile(rest),
        "run" => cmd_run(rest),
        "fi" => cmd_fi(rest),
        "analyze" => cmd_analyze(rest),
        "propagate" => cmd_propagate(rest),
        "sid" => cmd_sid(rest),
        "minpsid" => cmd_minpsid(rest),
        "sections" => cmd_sections(rest),
        "store" => cmd_store(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    let result =
        result.and_then(|()| trace::shutdown().map_err(|e| format!("writing trace log: {e}")));
    match result {
        Ok(()) => match EXIT_OVERRIDE.load(Ordering::Relaxed) {
            0 => ExitCode::SUCCESS,
            n => ExitCode::from(n),
        },
        Err(e) => {
            let _ = trace::shutdown();
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Install a live campaign meter (`--progress`): an observer that redraws
/// a single line on every `campaign_progress` sample and clears it when
/// the campaign ends. Works with or without `--trace-out`.
///
/// The meter only uses carriage returns and ANSI erase codes when stderr
/// is an actual terminal; redirected to a file or pipe it degrades to
/// plain lines throttled to at most one per second, so logs don't fill
/// with control bytes (the sampler fires every 50ms).
fn install_progress_meter() {
    let tty = std::io::stderr().is_terminal();
    let last_line = Mutex::new(None::<std::time::Instant>);
    trace::add_observer(move |ev| {
        if quiet() {
            return;
        }
        let mut err = std::io::stderr().lock();
        match &ev.event {
            trace::Event::CampaignProgress {
                kind,
                done,
                total,
                counts,
                elapsed_us,
            } => {
                let secs = (*elapsed_us as f64 / 1e6).max(1e-9);
                let rate = *done as f64 / secs;
                let eta = if rate > 0.0 && total > done {
                    (*total - *done) as f64 / rate
                } else {
                    0.0
                };
                let kind = match kind {
                    trace::CampaignKind::Program => "fi",
                    trace::CampaignKind::PerInst => "per-inst fi",
                };
                let line = format!(
                    "{kind}: {done}/{total} injections ({rate:.0}/s, ETA {eta:.1}s) \
                     sdc {} crash {} hang {} detected {}",
                    counts.sdc, counts.crash, counts.hang, counts.detected
                );
                if tty {
                    let _ = write!(err, "\r{line}   ");
                    let _ = err.flush();
                } else {
                    let mut last = last_line.lock().unwrap_or_else(|e| e.into_inner());
                    let due = last.is_none_or(|t| t.elapsed() >= std::time::Duration::from_secs(1));
                    if due {
                        *last = Some(std::time::Instant::now());
                        let _ = writeln!(err, "{line}");
                    }
                }
            }
            trace::Event::CampaignEnd {
                injections,
                elapsed_us,
                ..
            } => {
                let secs = (*elapsed_us as f64 / 1e6).max(1e-9);
                if tty {
                    let _ = write!(err, "\r\x1b[2K");
                }
                let _ = writeln!(
                    err,
                    "campaign done: {injections} injections in {secs:.2}s ({:.0}/s)",
                    *injections as f64 / secs
                );
                *last_line.lock().unwrap_or_else(|e| e.into_inner()) = None;
            }
            _ => {}
        }
    });
}

/// `--trace-out PATH`: open the trace sink before any command runs.
fn init_trace_sink(rest: &[String]) -> Result<(), String> {
    if let Some(path) = flag_value(rest, "--trace-out")? {
        trace::init_file(&path).map_err(|e| format!("cannot open trace file `{path}`: {e}"))?;
    }
    Ok(())
}

/// Every subcommand `main` dispatches (`help` also answers to `--help`
/// and `-h`).
const COMMANDS: &[&str] = &[
    "list",
    "compile",
    "run",
    "fi",
    "analyze",
    "propagate",
    "sid",
    "minpsid",
    "sections",
    "store",
    "trace",
    "help",
];

/// The subcommands that run a fault-injection campaign from the shared
/// campaign flags ([`parse_campaign`]).
const CAMPAIGNS: &[&str] = &["fi", "analyze", "sid", "minpsid"];

/// The subcommands that journal a run and keep a store ([`open_journal`],
/// [`open_run_store`], [`parse_incremental`]).
const JOURNALED: &[&str] = &["fi", "minpsid"];

/// Every `--flag`, whether a value follows it, and the subcommands that
/// read it. Anything else on the command line that starts with `--` is a
/// usage error (a misspelt flag used to run a different experiment,
/// silently), and so is a flag the chosen subcommand does not read (it
/// would be dropped, silently); a test holds the table to the flags
/// [`USAGE`] documents.
const FLAGS: &[(&str, bool, &[&str])] = &[
    // what to run on; `--args` is followed by any number of `i:N` / `f:X`
    (
        "--args",
        false,
        &["run", "fi", "analyze", "propagate", "sections"],
    ),
    ("--nth", true, &["propagate"]),
    ("--bit", true, &["propagate"]),
    ("--top", true, &["analyze"]),
    ("--static", false, &["sections"]),
    ("--kind", true, &["store"]),
    ("--out", true, &["trace"]),
    ("--level", true, &["sid", "minpsid"]),
    ("--json", false, &["minpsid"]),
    ("--help", false, &["help"]),
    // FI campaign
    ("--injections", true, CAMPAIGNS),
    ("--per-inst", true, CAMPAIGNS),
    ("--seed", true, CAMPAIGNS),
    ("--quick", false, CAMPAIGNS),
    ("--threads", true, CAMPAIGNS),
    ("--no-checkpoints", false, CAMPAIGNS),
    // scheduling
    ("--deadline-secs", true, &["fi", "analyze", "minpsid"]),
    // journal, store, incremental
    ("--journal", true, JOURNALED),
    ("--resume", true, JOURNALED),
    ("--max-inputs", true, &["minpsid"]),
    ("--store", true, &["fi", "minpsid", "store"]),
    ("--no-incremental", false, JOURNALED),
    // observability, read by `main` before any subcommand runs
    ("--trace-out", true, COMMANDS),
    ("--progress", false, COMMANDS),
    ("--quiet", false, COMMANDS),
];

/// Refuse a command line before anything runs: a `--flag` that no
/// subcommand reads, a value-taking flag without its value, or a flag the
/// subcommand `cmd` does not read. An unknown `cmd` is left to the
/// dispatcher to name.
fn check_flags(cmd: &str, rest: &[String]) -> Result<(), String> {
    let cmd = match cmd {
        "--help" | "-h" => "help",
        c => c,
    };
    for a in rest.iter().filter(|a| a.starts_with("--")) {
        let Some(&(_, value, readers)) = FLAGS.iter().find(|(f, ..)| f == a) else {
            return Err(format!("unknown flag {a}"));
        };
        if value {
            flag_value(rest, a)?;
        }
        if COMMANDS.contains(&cmd) && !readers.contains(&cmd) {
            return Err(format!(
                "`minpsid {cmd}` does not read {a} (read by: {})",
                readers.join(", ")
            ));
        }
    }
    Ok(())
}

const USAGE: &str = "minpsid — MINPSID (SC'22) reproduction driver

usage:
  minpsid list
  minpsid compile <bench|file.mc>
  minpsid run <bench> [--args i:N f:X ...]
  minpsid fi <bench> [--injections N] [--seed S]
  minpsid analyze <bench> [--top N]      # rank instructions by SDC benefit
  minpsid propagate <bench> [--nth K] [--bit B]
  minpsid sid <bench> [--level 0.5] [--seed S]
  minpsid minpsid <bench> [--level 0.5] [--seed S] [--json]
  minpsid sections <bench> [--static]    # per-function fingerprints and
                                         # dynamic ranges (incremental FI)
  minpsid trace report <log.jsonl> [-o|--out out/]  # analyze a trace log
  minpsid trace check <log.jsonl>              # validate a trace log
  minpsid store scrub <dir>              # verify every object; exit 3 if
                                         # corruption was found+quarantined
  minpsid store gc <dir>                 # drop unreferenced objects
  minpsid store ls <dir> [--kind K]      # list objects with back-refs,
                                         # filtered by artifact class,
                                         # plus per-kind byte totals
  minpsid help | --help

A flag the subcommand does not read is an error, not a no-op; the
parenthesized names below are the subcommands that read each group.

FI campaign options (fi/analyze/sid/minpsid):
  --injections N            whole-program campaign size (default 1000)
  --per-inst N              injections per static instruction (default 100)
  --quick                   small campaign preset for smoke tests
  --threads N               worker threads (default: all cores); reports
                            are byte-identical at any thread count
  --no-checkpoints          disable checkpointing (the golden run is
                            otherwise snapshotted every ~sqrt of its
                            steps); replay every injection from scratch

scheduling (fi/analyze/minpsid):
  --deadline-secs S         global wall-clock budget; expired work is
                            truncated (low-benefit sites first) and the
                            report carries a completeness score

crash-safe journal (fi/minpsid):
  --journal DIR             journal campaign progress to DIR; SIGINT or
                            SIGTERM flushes and exits with a resume hint
  --resume DIR              resume a journaled run (same flags required)
  --max-inputs N            cap on searched inputs (minpsid; default 25)

self-verifying artifact store (fi/minpsid; store):
  --store DIR               persist golden runs, checkpoints, and WAL
                            snapshots in a content-addressed store at
                            DIR (default <journal>/store when journaled;
                            artifacts are digest-verified on load —
                            corruption is quarantined and recomputed,
                            never served)

incremental re-campaigns (fi/minpsid, with --store or --journal): sealed
per-section outcome tables are memoized in the store and served on later
runs, so a re-campaign after an edit re-executes only the touched
functions. They are the only reuse across an edit: a journal of the
unedited program is superseded, not resumed.
  --no-incremental          always re-execute every injection

global options (any subcommand):
  --trace-out PATH          write a structured JSONL trace of the run
                            (analyze with `minpsid trace report`)
  --progress                live campaign meter on stderr (single-line
                            when stderr is a TTY, throttled plain lines
                            otherwise; silenced by --quiet)
  --quiet                   suppress stderr diagnostics";

fn usage() {
    eprintln!("{USAGE}");
}

fn cmd_list() -> Result<(), String> {
    println!("{:<15} {:<10} description", "benchmark", "suite");
    for b in minpsid_workloads::suite() {
        println!("{:<15} {:<10} {}", b.name, b.suite, b.description);
    }
    Ok(())
}

fn load_module(name: &str) -> Result<Module, String> {
    if name.ends_with(".mc") {
        let src = std::fs::read_to_string(name).map_err(|e| format!("reading {name}: {e}"))?;
        return minic::compile(&src, name).map_err(|e| format!("compiling {name}: {e}"));
    }
    if name.ends_with(".ir") {
        let src = std::fs::read_to_string(name).map_err(|e| format!("reading {name}: {e}"))?;
        let module =
            minpsid_ir::parser::parse_module(&src).map_err(|e| format!("parsing {name}: {e}"))?;
        if let Err(errs) = minpsid_ir::verify_module(&module) {
            return Err(format!("{name} failed verification: {}", errs[0]));
        }
        return Ok(module);
    }
    minpsid_workloads::by_name(name)
        .map(|b| b.compile())
        .ok_or_else(|| format!("unknown benchmark `{name}` (see `minpsid list`)"))
}

/// The journal directory of this run: `--journal DIR`, else `--resume DIR`.
fn journal_dir_flag(rest: &[String]) -> Result<Option<String>, String> {
    Ok(flag_value(rest, "--journal")?.or(flag_value(rest, "--resume")?))
}

fn parse_level(rest: &[String]) -> Result<f64, String> {
    match flag_value(rest, "--level")? {
        None => Ok(0.5),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("bad --level `{v}`"))
            .and_then(|l| {
                if l <= 0.0 {
                    Err(format!(
                        "--level {v} gives a zero protection budget \
                         (no instruction can be selected); use a level in (0, 1]"
                    ))
                } else if l > 1.0 {
                    Err("--level must be in (0, 1]".into())
                } else {
                    Ok(l)
                }
            }),
    }
}

/// Parse a flag whose value must be a positive integer (`0` is always a
/// configuration mistake for these: it silently yields an empty campaign
/// or an empty search).
fn parse_positive(rest: &[String], flag: &str, what: &str) -> Result<Option<u64>, String> {
    match flag_value(rest, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .map(Some)
            .ok_or_else(|| format!("bad {flag} `{v}` ({what})")),
    }
}

/// Campaign config from the shared FI flag vocabulary — a thin delegate
/// to [`CampaignConfigBuilder::from_flags`], which owns every validation
/// rule (the bench binaries parse the same flags through the same code).
fn parse_campaign(rest: &[String]) -> Result<CampaignConfig, String> {
    CampaignConfigBuilder::from_flags(rest).map(CampaignConfigBuilder::build)
}

/// `--deadline-secs`: the global wall-clock budget. Not part of the
/// campaign config (and so not of the journal fingerprint) — it bounds
/// how much work runs, never what that work computes.
fn parse_deadline(rest: &[String]) -> Result<Option<f64>, String> {
    CampaignConfigBuilder::from_flags(rest).map(|b| b.deadline())
}

fn first_arg<'a>(rest: &'a [String], what: &str) -> Result<&'a str, String> {
    rest.first()
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with("--"))
        .ok_or_else(|| format!("missing {what}"))
}

fn cmd_compile(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name or .mc file")?;
    let module = load_module(name)?;
    print!("{}", print_module(&module));
    println!(
        "; {} functions, {} static instructions",
        module.funcs.len(),
        module.num_insts()
    );
    Ok(())
}

/// Parse `--args i:5 f:2.5 ...` into a scalar-argument input; without
/// `--args`, benchmarks use their reference input.
fn parse_input(name: &str, rest: &[String]) -> Result<ProgInput, String> {
    if let Some(pos) = rest.iter().position(|a| a == "--args") {
        let mut scalars = Vec::new();
        for a in &rest[pos + 1..] {
            if a.starts_with("--") {
                break;
            }
            let (kind, v) = a
                .split_once(':')
                .ok_or_else(|| format!("bad arg `{a}` (want i:N or f:X)"))?;
            match kind {
                "i" => scalars.push(Scalar::I(v.parse().map_err(|_| format!("bad int `{v}`"))?)),
                "f" => scalars.push(Scalar::F(
                    v.parse().map_err(|_| format!("bad float `{v}`"))?,
                )),
                _ => return Err(format!("bad arg kind `{kind}`")),
            }
        }
        return Ok(ProgInput::scalars(scalars));
    }
    minpsid_workloads::by_name(name)
        .map(|b| b.model.materialize(&b.model.reference()))
        .ok_or_else(|| {
            format!("`{name}` is not a registered benchmark; pass --args for custom programs")
        })
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let r = Interp::new(&module, ExecConfig::default()).run(&input);
    for item in &r.output.items {
        println!("{item}");
    }
    diag!(
        "terminated: {:?}, {} dynamic instructions",
        r.termination,
        r.steps
    );
    Ok(())
}

fn cmd_fi(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let campaign = parse_campaign(rest)?;
    let sched = Scheduler::new(
        campaign.sched.clone(),
        Deadline::from_secs(parse_deadline(rest)?),
    );
    let store = open_run_store(rest)?;
    let journal = open_journal(
        rest,
        module_fingerprint(&module),
        fi_journal_key(&campaign),
        store.clone(),
    )?;
    let golden =
        golden_run(&module, &input, &campaign).map_err(|t| format!("golden run failed: {t:?}"))?;
    let input_fp = input_fingerprint(&input);
    let memo = match (parse_incremental(rest), &store) {
        (true, Some(s)) => Some(TableMemo::new(s.clone(), input_fp)),
        _ => None,
    };
    let mut engine =
        CampaignEngine::new(&module, &input, &golden, &campaign).with_scheduler(&sched);
    if let Some(j) = &journal {
        engine = engine.with_journal(j, input_fp);
    }
    if let Some(m) = &memo {
        engine = engine.with_tables(m);
    }
    let c = match engine.run_program() {
        Ok(c) => c,
        Err(_) => {
            let j = journal
                .as_ref()
                .expect("interrupts only surface under a journal");
            return Err(resume_hint("fi", rest, j.dir()));
        }
    };
    print_fi_report(&c, &sched.snapshot())?;
    if let Some(j) = &journal {
        let (served, appended) = j.usage();
        diag!(
            "journal: {served} injections served, {appended} records appended ({})",
            j.dir().display()
        );
    }
    if let Some(m) = &memo {
        table_stats_diag(&m.stats());
    }
    Ok(())
}

/// Whether sealed per-section outcome tables are memoized in the artifact
/// store and served on later runs: whenever a store is attached, unless
/// `--no-incremental` says to re-execute every injection.
fn parse_incremental(rest: &[String]) -> bool {
    !rest.iter().any(|a| a == "--no-incremental")
}

/// One stderr line of section-table usage, the incremental analogue of
/// the journal served/appended line.
fn table_stats_diag(ts: &TableStatsSnapshot) {
    diag!(
        "sections: {} hit / {} missed / {} recomputed; {} injections served \
         from tables, {} executed, {} tables sealed",
        ts.sections_hit,
        ts.sections_missed,
        ts.sections_recomputed,
        ts.injections_served,
        ts.injections_executed,
        ts.tables_sealed,
    );
}

/// `minpsid sections <bench>` — the per-function section table that
/// drives compositional FI: content fingerprint (stable under edits to
/// *other* functions), dense static-instruction range, injectable sites,
/// direct callees, and — unless `--static` — each section's
/// dynamic-instruction range under the benchmark input (golden run).
fn cmd_sections(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let map = module_section_map(&module);
    let calls = minpsid_ir::fingerprint::callees(&module);
    let golden = if rest.iter().any(|a| a == "--static") {
        None
    } else {
        let input = parse_input(name, rest)?;
        Some(
            golden_run(&module, &input, &CampaignConfig::default())
                .map_err(|t| format!("golden run failed: {t:?}"))?,
        )
    };
    println!(
        "{:<20} {:>16} {:>13} {:>10} {:>21}  callees",
        "function", "fingerprint", "dense range", "injectable", "dynamic steps"
    );
    for ((fid, f), &(fp, base, len)) in module.iter_funcs().zip(&map) {
        let injectable = f.insts.iter().filter(|i| i.injectable()).count();
        let dynamic = match &golden {
            None => "-".to_string(),
            Some(g) => match g.profile.section_range(fid) {
                Some((first, last)) => format!("[{first}, {last}]"),
                None => "(never runs)".to_string(),
            },
        };
        let callees: Vec<&str> = calls[fid.index()]
            .iter()
            .map(|c| module.func(*c).name.as_str())
            .collect();
        println!(
            "{:<20} {fp:016x} {:>13} {injectable:>10} {dynamic:>21}  {}",
            f.name,
            format!("[{base}, {})", base + len),
            if callees.is_empty() {
                "-".to_string()
            } else {
                callees.join(" ")
            }
        );
    }
    Ok(())
}

/// The self-verifying artifact store backing a run: `--store DIR`, or
/// `<journal>/store` when the run is journaled. `None` when neither is
/// given — campaigns then recompute everything in memory as before.
fn open_run_store(rest: &[String]) -> Result<Option<Arc<ArtifactStore>>, String> {
    let dir = match flag_value(rest, "--store")? {
        Some(d) => Some(std::path::PathBuf::from(d)),
        None => journal_dir_flag(rest)?.map(|d| std::path::PathBuf::from(d).join("store")),
    };
    match dir {
        None => Ok(None),
        Some(d) => ArtifactStore::open(&d)
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("opening artifact store {}: {e}", d.display())),
    }
}

/// `minpsid store <scrub|gc|ls> <dir>` — offline maintenance of an
/// artifact store. `scrub` exits with [`SCRUB_CORRUPTION_EXIT`] when it
/// quarantined corrupt objects, so CI can distinguish "store verified
/// clean" from "corruption found (and neutralized)".
fn cmd_store(rest: &[String]) -> Result<(), String> {
    let sub = rest
        .first()
        .map(|s| s.as_str())
        .ok_or("missing store subcommand (scrub|gc|ls)")?;
    let dir = flag_value(rest, "--store")?
        .or_else(|| rest.get(1).filter(|s| !s.starts_with("--")).cloned())
        .ok_or("missing store directory (pass a path or --store DIR)")?;
    let store = ArtifactStore::open(std::path::Path::new(&dir))
        .map_err(|e| format!("opening artifact store {dir}: {e}"))?;
    match sub {
        "scrub" => {
            let r = store.scrub().map_err(|e| format!("scrub: {e}"))?;
            println!("scrubbed {} objects ({} bytes)", r.objects, r.bytes);
            for (hex, kind) in &r.quarantined {
                println!("  quarantined: {kind} {hex}");
            }
            for name in &r.dangling_refs {
                println!("  dangling ref: {name} (target recomputes on next run)");
            }
            if r.found_corruption() {
                EXIT_OVERRIDE.store(SCRUB_CORRUPTION_EXIT, Ordering::Relaxed);
                diag!(
                    "scrub: {} corrupt objects quarantined; \
                     affected artifacts will be recomputed",
                    r.quarantined.len()
                );
            } else {
                println!("store clean");
            }
            Ok(())
        }
        "gc" => {
            let r = store.gc().map_err(|e| format!("gc: {e}"))?;
            println!(
                "gc: kept {}, removed {} ({} bytes freed), swept {} stale tmp files",
                r.kept, r.removed, r.bytes_freed, r.tmp_swept
            );
            Ok(())
        }
        "ls" => {
            // `--kind K` keeps only objects referenced under artifact
            // class K (`table`, `wal`, `golden`, ...); the per-kind
            // totals always cover the whole store.
            let kind_filter = flag_value(rest, "--kind")?;
            let mut totals: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
            for e in store.ls().map_err(|e| format!("ls: {e}"))? {
                let mut kinds: Vec<&str> = e
                    .refs
                    .iter()
                    .map(|r| r.split_once('/').map_or(r.as_str(), |(k, _)| k))
                    .collect();
                kinds.sort_unstable();
                kinds.dedup();
                if kinds.is_empty() {
                    kinds.push("(unreferenced)");
                }
                for k in &kinds {
                    let t = totals.entry((*k).to_string()).or_default();
                    t.0 += 1;
                    t.1 += e.bytes;
                }
                if let Some(f) = &kind_filter {
                    if !kinds.contains(&f.as_str()) {
                        continue;
                    }
                }
                println!(
                    "{} {:>10} {}",
                    e.digest,
                    e.bytes,
                    if e.refs.is_empty() {
                        "(unreferenced)".to_string()
                    } else {
                        e.refs.join(" ")
                    }
                );
            }
            for (k, (n, bytes)) in &totals {
                if kind_filter.as_ref().is_none_or(|f| f == k) {
                    println!("{k}: {n} objects, {bytes} bytes");
                }
            }
            Ok(())
        }
        other => Err(format!("unknown store subcommand `{other}` (scrub|gc|ls)")),
    }
}

/// `--journal DIR` / `--resume DIR` of `fi` and `minpsid`: open (or
/// refuse to resume a missing) campaign journal keyed by the run's
/// module and config, and install the interrupt handlers that make ^C /
/// SIGTERM flush instead of corrupt.
fn open_journal(
    rest: &[String],
    module_fp: u64,
    config_fp: u64,
    store: Option<Arc<ArtifactStore>>,
) -> Result<Option<CampaignJournal>, String> {
    let resume = flag_value(rest, "--resume")?;
    let Some(dir) = journal_dir_flag(rest)? else {
        return Ok(None);
    };
    let dir = std::path::PathBuf::from(dir);
    if resume.is_some() && !dir.join("campaign.wal").is_file() {
        return Err(format!(
            "--resume: no journal found at {} (start one with --journal)",
            dir.display()
        ));
    }
    let j = CampaignJournal::open(&dir, module_fp, config_fp, store)
        .map_err(|e| format!("opening journal: {e}"))?;
    let (recovered, truncated) = j.recovery_stats();
    if recovered > 0 || truncated > 0 {
        diag!("journal: recovered {recovered} records ({truncated} torn-tail bytes truncated)");
    }
    install_interrupt_handlers();
    Ok(Some(j))
}

/// What an interrupted `minpsid <cmd> <rest…>` prints: the same command
/// line with its `--journal DIR` / `--resume DIR` pair (flag and value,
/// wherever it stands) replaced by `--resume <journal dir>`.
fn resume_hint(cmd: &str, rest: &[String], journal_dir: &std::path::Path) -> String {
    let mut args: Vec<&str> = Vec::new();
    let mut skip = false;
    for a in rest {
        if skip {
            skip = false;
        } else if a == "--journal" || a == "--resume" {
            skip = true;
        } else {
            args.push(a);
        }
    }
    format!(
        "interrupted; progress saved — resume with: minpsid {cmd} {} --resume {}",
        args.join(" "),
        journal_dir.display()
    )
}

fn print_fi_report(c: &ProgramCampaign, snap: &SchedSnapshot) -> Result<(), String> {
    println!("injections: {}", c.counts.total());
    println!("  benign:   {}", c.counts.benign);
    println!("  sdc:      {}", c.counts.sdc);
    println!("  crash:    {}", c.counts.crash);
    println!("  hang:     {}", c.counts.hang);
    println!("  detected: {}", c.counts.detected);
    if c.truncated > 0 {
        println!(
            "  truncated: {} of {} planned (deadline expired)",
            c.truncated, c.planned
        );
    }
    println!(
        "SDC probability: {:.2}% (95% CI {:.2}%..{:.2}%)",
        c.sdc_prob() * 100.0,
        c.sdc_ci.lo * 100.0,
        c.sdc_ci.hi * 100.0
    );
    println!("completeness: {:.4}", snap.completeness());
    if snap.accounted() != snap.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            snap.planned - snap.accounted(),
            snap.planned
        ));
    }
    Ok(())
}

/// Rank instructions by SDC benefit under the reference input — the
/// §II-C profile SID's knapsack consumes, as a human-readable report.
fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    use minpsid_sid::CostBenefit;
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let top: usize = match flag_value(rest, "--top")? {
        None => 15,
        Some(v) => v.parse().map_err(|_| format!("bad --top `{v}`"))?,
    };
    let campaign = parse_campaign(rest)?;
    let sched = Scheduler::new(
        campaign.sched.clone(),
        Deadline::from_secs(parse_deadline(rest)?),
    );
    let golden =
        golden_run(&module, &input, &campaign).map_err(|t| format!("golden run failed: {t:?}"))?;
    let per_inst = CampaignEngine::new(&module, &input, &golden, &campaign)
        .with_scheduler(&sched)
        .run_per_instruction()
        .unwrap_or_else(|_| unreachable!("interrupts are only observed under a journal"));
    let cb = CostBenefit::build(&module, &golden, &per_inst);

    let numbering = module.numbering();
    let mut ranked: Vec<usize> = (0..cb.len()).filter(|&i| cb.benefit[i] > 0.0).collect();
    ranked.sort_by(|&a, &b| cb.benefit[b].partial_cmp(&cb.benefit[a]).unwrap());
    println!(
        "{} static instructions, {} carry measurable SDC benefit; top {}:",
        cb.len(),
        ranked.len(),
        top.min(ranked.len())
    );
    println!(
        "{:>6} {:>9} {:>9} {:>15} {:>11} {:>13} | instruction",
        "rank", "benefit", "sdc-prob", "95%-ci", "dyn-count", "sampling"
    );
    for (rank, &dense) in ranked.iter().take(top).enumerate() {
        let gid = numbering.id_of(dense);
        let func = module.func(gid.func);
        let ci = &per_inst.ci[dense];
        println!(
            "{:>6} {:>9.5} {:>8.1}% {:>6.1}%..{:>5.1}% {:>11} {:>13} | {}::{}",
            rank + 1,
            cb.benefit[dense],
            cb.sdc_prob[dense] * 100.0,
            ci.lo * 100.0,
            ci.hi * 100.0,
            cb.dyn_counts[dense],
            per_inst.status[dense].as_str(),
            func.name,
            minpsid_ir::printer::print_inst(func, gid.inst)
        );
    }
    let snap = sched.snapshot();
    println!("completeness: {:.4}", snap.completeness());
    if snap.accounted() != snap.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            snap.planned - snap.accounted(),
            snap.planned
        ));
    }
    Ok(())
}

fn cmd_propagate(rest: &[String]) -> Result<(), String> {
    use minpsid_faultsim::{render_report, trace_fault};
    use minpsid_interp::{FaultSpec, FaultTarget};
    let name = first_arg(rest, "benchmark name")?;
    let module = load_module(name)?;
    let input = parse_input(name, rest)?;
    let nth: u64 = match flag_value(rest, "--nth")? {
        None => 100,
        Some(v) => v.parse().map_err(|_| format!("bad --nth `{v}`"))?,
    };
    let bit: u32 = match flag_value(rest, "--bit")? {
        None => 33,
        Some(v) => v.parse().map_err(|_| format!("bad --bit `{v}`"))?,
    };
    let golden = Interp::new(&module, ExecConfig::default()).run(&input);
    if !golden.exited() {
        return Err(format!("golden run failed: {:?}", golden.termination));
    }
    let fault = FaultSpec {
        target: FaultTarget::NthDynamic(nth),
        bit,
    };
    let report = trace_fault(&module, &input, fault, &golden.output, golden.steps * 10);
    print!("{}", render_report(&module, &report));
    Ok(())
}

fn cmd_sid(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let b =
        minpsid_workloads::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = b.compile();
    let ref_input = b.model.materialize(&b.model.reference());
    let cfg = SidConfig {
        protection_level: parse_level(rest)?,
        campaign: parse_campaign(rest)?,
    };
    let r = run_sid(&module, &ref_input, &cfg).map_err(|t| format!("SID failed: {t:?}"))?;
    let selected = r.selection.iter().filter(|&&s| s).count();
    println!(
        "benchmark: {} ({} static instructions)",
        b.name,
        module.num_insts()
    );
    println!("protection level: {:.0}%", cfg.protection_level * 100.0);
    println!("selected instructions: {selected}");
    println!("duplicates inserted: {}", r.meta.num_dups);
    println!("checks inserted: {}", r.meta.num_checks);
    println!("expected SDC coverage: {:.2}%", r.expected_coverage * 100.0);
    Ok(())
}

/// Route SIGINT *and* SIGTERM through the cooperative interrupt flag so
/// a journaled campaign flushes its WAL and exits with a resume hint
/// instead of dying mid-write. Process managers and CI cancelers send
/// SIGTERM, interactive ^C sends SIGINT; both deserve the same graceful
/// path. Only an atomic store happens in the handler.
#[cfg(unix)]
fn install_interrupt_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        interrupt::request();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handlers() {}

fn cmd_minpsid(rest: &[String]) -> Result<(), String> {
    let name = first_arg(rest, "benchmark name")?;
    let b =
        minpsid_workloads::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let module = b.compile();
    let quick = rest.iter().any(|a| a == "--quick");
    let mut cfg = MinpsidConfig {
        protection_level: parse_level(rest)?,
        campaign: parse_campaign(rest)?,
        deadline_secs: parse_deadline(rest)?,
        incremental: parse_incremental(rest),
        ..MinpsidConfig::default()
    };
    if quick {
        cfg.ga.population = 4;
        cfg.ga.max_generations = 3;
        cfg.max_inputs = 4;
    }
    if let Some(n) = parse_positive(
        rest,
        "--max-inputs",
        "a zero cap means an empty input search; want a positive count",
    )? {
        cfg.max_inputs = n as usize;
    }
    // One store instance backs both tiers of persistence: the golden
    // cache's cross-invocation artifacts and the journal's compacted
    // WAL snapshots.
    let store = open_run_store(rest)?;
    let cache = match &store {
        Some(s) => GoldenCache::with_store(0, s.clone()),
        None => GoldenCache::new(),
    };

    let journal = open_journal(
        rest,
        module_fingerprint(&module),
        minpsid_config_fingerprint(&cfg),
        store.clone(),
    )?;

    let r = match &journal {
        Some(j) => match run_minpsid_journaled(&module, b.model.as_ref(), &cfg, &cache, j) {
            Ok(r) => r,
            Err(PipelineError::Interrupted) => return Err(resume_hint("minpsid", rest, j.dir())),
            Err(e) => return Err(format!("MINPSID failed: {e}")),
        },
        None => run_minpsid_cached(&module, b.model.as_ref(), &cfg, &cache)
            .map_err(|t| format!("MINPSID failed: {t:?}"))?,
    };

    if rest.iter().any(|a| a == "--json") {
        println!("{}", minpsid_json(name, &module, &cfg, &r, &cache).render());
    } else {
        println!(
            "benchmark: {} ({} static instructions)",
            b.name,
            module.num_insts()
        );
        println!("protection level: {:.0}%", cfg.protection_level * 100.0);
        println!("inputs searched: {}", r.inputs_searched);
        println!(
            "incubative instructions: {} ({:.2}% of static instructions)",
            r.incubative.len(),
            r.incubative.len() as f64 / module.num_insts() as f64 * 100.0
        );
        println!(
            "expected SDC coverage (conservative): {:.2}%",
            r.expected_coverage * 100.0
        );
        println!("campaign completeness: {:.4}", r.sched.completeness());
        if r.sched.truncated > 0 {
            println!(
                "deadline-truncated injections: {} of {} planned",
                r.sched.truncated, r.sched.planned
            );
        }
    }
    if r.sched.accounted() != r.sched.planned {
        return Err(format!(
            "scheduler accounting violated: {} of {} injections unaccounted",
            r.sched.planned - r.sched.accounted(),
            r.sched.planned
        ));
    }
    print_run_telemetry(&r.timings, &cache, r.deduped);
    if let Some(j) = &journal {
        let (served, appended) = j.usage();
        diag!(
            "  journal        {served} injections/evals served, {appended} records appended ({})",
            j.dir().display()
        );
    }
    if let Some(ts) = &r.table_stats {
        table_stats_diag(ts);
    }
    Ok(())
}

/// End-of-run telemetry (satellite of the tracing layer): the Fig. 8 time
/// breakdown plus golden-cache and run-memo effectiveness, as a small
/// stderr table so stdout stays parseable.
fn print_run_telemetry(t: &minpsid::Timings, cache: &GoldenCache, deduped: minpsid::Deduped) {
    let total = t.total().as_secs_f64().max(1e-9);
    let row = |name: &str, d: std::time::Duration| {
        diag!(
            "  {:<14} {:>8.2}s {:>5.1}%",
            name,
            d.as_secs_f64(),
            d.as_secs_f64() / total * 100.0
        );
    };
    diag!("-- run telemetry --");
    row("ref FI", t.ref_fi);
    row("incubative FI", t.incubative_fi);
    row("input search", t.search);
    row("select+xform", t.other);
    row("total", t.total());
    let lookups = cache.hits() + cache.misses() + cache.disk_hits();
    if lookups > 0 {
        diag!(
            "  golden cache   {} hits / {} disk hits / {} misses ({:.0}% hit rate, {} entries)",
            cache.hits(),
            cache.disk_hits(),
            cache.misses(),
            (cache.hits() + cache.disk_hits()) as f64 / lookups as f64 * 100.0,
            cache.len()
        );
    }
    diag!(
        "  run memo       {} GA evaluations / {} injections repeated an earlier run and took its result",
        deduped.evals,
        deduped.injections
    );
    if let Some(s) = cache.store() {
        if let Ok(q) = s.quarantined_count() {
            if q > 0 {
                diag!(
                    "  artifact store {q} quarantined objects (recomputed; \
                     inspect with `minpsid store ls`)"
                );
            }
        }
    }
}

/// Machine-readable `minpsid --json` summary (uses the trace crate's JSON
/// values so numbers round-trip exactly).
fn minpsid_json(
    name: &str,
    module: &Module,
    cfg: &MinpsidConfig,
    r: &minpsid::MinpsidResult,
    cache: &GoldenCache,
) -> trace::json::Json {
    use trace::json::Json;
    let mut timings = Json::obj();
    timings.set("ref_fi_s", Json::F64(r.timings.ref_fi.as_secs_f64()));
    timings.set(
        "incubative_fi_s",
        Json::F64(r.timings.incubative_fi.as_secs_f64()),
    );
    timings.set("search_s", Json::F64(r.timings.search.as_secs_f64()));
    timings.set("other_s", Json::F64(r.timings.other.as_secs_f64()));
    timings.set("total_s", Json::F64(r.timings.total().as_secs_f64()));
    let mut cache_obj = Json::obj();
    cache_obj.set("hits", Json::U64(cache.hits()));
    cache_obj.set("disk_hits", Json::U64(cache.disk_hits()));
    cache_obj.set("misses", Json::U64(cache.misses()));
    cache_obj.set("entries", Json::U64(cache.len() as u64));
    let mut o = Json::obj();
    o.set("benchmark", Json::Str(name.to_string()));
    o.set("static_insts", Json::U64(module.num_insts() as u64));
    o.set("protection_level", Json::F64(cfg.protection_level));
    o.set("inputs_searched", Json::U64(r.inputs_searched as u64));
    o.set("incubative", Json::U64(r.incubative.len() as u64));
    o.set("expected_coverage", Json::F64(r.expected_coverage));
    let mut sched = Json::obj();
    sched.set("planned", Json::U64(r.sched.planned));
    sched.set("completed", Json::U64(r.sched.completed));
    sched.set("truncated", Json::U64(r.sched.truncated));
    sched.set("completeness", Json::F64(r.sched.completeness()));
    o.set("sched", sched);
    o.set("timings", timings);
    o.set("golden_cache", cache_obj);
    if let Some(ts) = &r.table_stats {
        let mut t = Json::obj();
        t.set("sections_hit", Json::U64(ts.sections_hit));
        t.set("sections_missed", Json::U64(ts.sections_missed));
        t.set("sections_recomputed", Json::U64(ts.sections_recomputed));
        t.set("injections_served", Json::U64(ts.injections_served));
        t.set("injections_executed", Json::U64(ts.injections_executed));
        t.set("tables_sealed", Json::U64(ts.tables_sealed));
        o.set("section_tables", t);
    }
    o
}

/// `minpsid trace <report|check> <log> [-o out/]` — the offline analyzer.
fn cmd_trace(rest: &[String]) -> Result<(), String> {
    let sub = rest
        .first()
        .map(|s| s.as_str())
        .ok_or("missing trace subcommand (report|check)")?;
    let log_path = rest
        .get(1)
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with('-'))
        .ok_or("missing trace log path")?;
    let text = std::fs::read_to_string(log_path).map_err(|e| format!("reading {log_path}: {e}"))?;
    let events = trace::parse_log(&text)
        .map_err(|(line, e)| format!("{log_path}:{line}: invalid trace line: {e}"))?;
    match sub {
        "check" => {
            println!("{log_path}: {} events, schema ok", events.len());
            Ok(())
        }
        "report" => {
            let md = trace::render_markdown(&trace::summarize(&events));
            match flag_value(rest, "-o")?.or(flag_value(rest, "--out")?) {
                None => {
                    print!("{md}");
                }
                Some(dir) => {
                    let dir = std::path::Path::new(&dir);
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                    let md_path = dir.join("trace_report.md");
                    std::fs::write(&md_path, &md)
                        .map_err(|e| format!("writing {}: {e}", md_path.display()))?;
                    diag!("wrote {}", md_path.display());
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown trace subcommand `{other}` (want report|check)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_faultsim::CheckpointPolicy;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The flag table against the usage text: the same flags, and a value
    /// column that agrees with every `--flag VALUE` line of the option
    /// lists.
    #[test]
    fn flag_table_is_what_usage_documents() {
        use std::collections::BTreeSet;
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
            .collect();
        let table: BTreeSet<&str> = FLAGS.iter().map(|&(f, ..)| f).collect();
        assert_eq!(documented, table);
        assert_eq!(FLAGS.len(), table.len(), "a flag twice");

        let mut option_lines = 0;
        for line in USAGE.lines().filter(|l| l.starts_with("  --")) {
            let mut words = line.split_whitespace();
            let flag = words.next().unwrap();
            let placeholder = words
                .next()
                .is_some_and(|w| w.chars().all(|c| c.is_ascii_uppercase()));
            let value = FLAGS.iter().find(|(f, ..)| *f == flag).map(|&(_, v, _)| v);
            assert_eq!(value, Some(placeholder), "{line}");
            option_lines += 1;
        }
        assert_eq!(FLAGS.len(), 25);
        // every reader is a subcommand `main` dispatches
        for &(flag, _, readers) in FLAGS {
            for r in readers {
                assert!(COMMANDS.contains(r), "{flag} read by unknown `{r}`");
            }
        }
        assert!(option_lines >= 14, "{option_lines} option lines");
    }

    #[test]
    fn a_flag_nothing_reads_is_a_usage_error() {
        let err = check_flags("fi", &args(&["bfs", "--quick", "--per-instt", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag --per-instt");
        // removed two PRs ago, silently skipped since
        assert!(check_flags("fi", &args(&["hpccg", "--dispatch", "legacy"])).is_err());
        assert!(check_flags("fi", &args(&["hpccg", "--"])).is_err());
        // the second executor's flags went with it: no silent thread run
        let err = check_flags(
            "minpsid",
            &args(&["pathfinder", "--quick", "--workers", "4"]),
        )
        .unwrap_err();
        assert_eq!(err, "unknown flag --workers");
        assert!(check_flags("fi", &args(&["7", "--spool-dir", "/tmp/s"])).is_err());
        // the live endpoint and two flags that had no user, the retry
        // scheduler's six, then three the flag audit condemned (a cap no
        // caller set, a no-op, an interval the engine chooses): gone, not
        // ignored; and per-site early stopping, whose width is gone with it
        for (gone, value) in [
            ("--status-addr", "127.0.0.1:1"),
            ("--snapshot-mode", "full"),
            ("--chaos-flip-artifact-one-in", "3"),
            ("--max-retries", "0"),
            ("--quarantine-after", "3"),
            ("--quarantine-cap", "0"),
            ("--injection-timeout-ms", "5"),
            ("--chaos-panic-one-in", "40"),
            ("--chaos-timeout-one-in", "40"),
            ("--golden-cache-cap", "4"),
            ("--incremental", "--quiet"),
            ("--checkpoint-interval", "500"),
            ("--ci-half-width", "0.1"),
        ] {
            for cmd in ["fi", "analyze", "minpsid"] {
                let err = check_flags(cmd, &args(&["hpccg", "--quick", gone, value])).unwrap_err();
                assert_eq!(err, format!("unknown flag {gone}"));
            }
        }
        // positionals, values with one dash and `--args` lists pass
        for (cmd, ok) in [
            (
                "minpsid",
                &["bfs", "--quick", "--per-inst", "3", "--level", "-0.1"][..],
            ),
            ("run", &["custom.mc", "--args", "i:-5", "f:2.5", "--quiet"]),
            ("trace", &["report", "log.jsonl", "-o", "out"]),
            // an unknown command is the dispatcher's to name
            ("frobnicate", &["hpccg", "--store", "s"]),
        ] {
            assert_eq!(check_flags(cmd, &args(ok)), Ok(()), "{cmd} {ok:?}");
        }
        // and a known flag still needs its value, whoever reads it
        let err = check_flags("run", &args(&["fft", "--seed"])).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    /// A flag the chosen subcommand never reads is refused, naming the
    /// subcommand: `analyze` attaches no journal, store or table memo, so
    /// `analyze … --store S` used to exit 0, create nothing and re-run
    /// every injection on the next call.
    #[test]
    fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
        for (flag, value) in [
            ("--store", Some("S")),
            ("--journal", Some("J")),
            ("--resume", Some("J")),
            ("--no-incremental", None),
            ("--max-inputs", Some("3")),
        ] {
            let mut line = args(&["hpccg", "--per-inst", "40", flag]);
            line.extend(value.map(String::from));
            let err = check_flags("analyze", &line).unwrap_err();
            assert!(
                err.starts_with(&format!("`minpsid analyze` does not read {flag}")),
                "{err}"
            );
        }
        // what each reads, per subcommand
        let no = |cmd: &str, line: &[&str]| check_flags(cmd, &args(line)).is_err();
        assert!(no("sid", &["hpccg", "--deadline-secs", "1"]));
        assert!(no("fi", &["hpccg", "--level", "0.3"]));
        assert!(no("fi", &["hpccg", "--json"]));
        assert!(no("minpsid", &["hpccg", "--args", "i:3"]));
        assert!(no("run", &["fft", "--quick"]));
        assert!(no("sections", &["fft", "--seed", "3"]));
        assert!(no("--help", &["--top", "3"]));
        for (cmd, line) in [
            ("fi", &["hpccg", "--store", "S", "--no-incremental"][..]),
            ("minpsid", &["hpccg", "--max-inputs", "3", "--journal", "J"]),
            ("store", &["ls", "--store", "S", "--kind", "table"]),
            ("analyze", &["hpccg", "--deadline-secs", "1", "--top", "3"]),
            ("list", &["--quiet", "--trace-out", "t.jsonl"]),
            ("-h", &["--quiet"]),
        ] {
            assert_eq!(check_flags(cmd, &args(line)), Ok(()), "{cmd} {line:?}");
        }
    }

    /// The hint drops the journal flag with its value and nothing else:
    /// a journal directory named like the kernel keeps the kernel.
    #[test]
    fn resume_hint_keeps_an_argument_equal_to_the_journal_dir() {
        let dir = std::path::Path::new("fft");
        for flag in ["--journal", "--resume"] {
            let rest = args(&["fft", flag, "fft", "--quick", "--seed", "fft"]);
            assert_eq!(
                resume_hint("minpsid", &rest, dir),
                "interrupted; progress saved — resume with: \
                 minpsid minpsid fft --quick --seed fft --resume fft"
            );
        }
        let rest = args(&["hpccg", "--injections", "9", "--journal", "J"]);
        assert!(resume_hint("fi", &rest, std::path::Path::new("J"))
            .ends_with("minpsid fi hpccg --injections 9 --resume J"));
    }

    #[test]
    fn flag_value_finds_pairs() {
        let rest = args(&["bench", "--level", "0.3", "--seed", "9"]);
        assert_eq!(
            flag_value(&rest, "--level").unwrap().as_deref(),
            Some("0.3")
        );
        assert_eq!(flag_value(&rest, "--seed").unwrap().as_deref(), Some("9"));
        assert_eq!(flag_value(&rest, "--nope"), Ok(None));
    }

    #[test]
    fn flag_without_its_value_is_a_usage_error() {
        // last on the line
        let rest = args(&["bench", "--seed", "9", "--per-inst"]);
        let err = flag_value(&rest, "--per-inst").unwrap_err();
        assert!(err.contains("--per-inst needs a value"), "{err}");
        assert!(parse_campaign(&rest).is_err(), "not the default count");
        // followed by another flag, which is not its value
        let rest = args(&["bench", "--level", "--seed", "9"]);
        assert!(flag_value(&rest, "--level").is_err());
        assert!(parse_level(&rest).is_err(), "not the default level");
        assert_eq!(flag_value(&rest, "--seed").unwrap().as_deref(), Some("9"));
        // every route to a value goes through the same check
        assert!(parse_positive(&args(&["--max-inputs"]), "--max-inputs", "x").is_err());
        assert!(journal_dir_flag(&args(&["--journal", "--resume", "d"])).is_err());
        assert!(init_trace_sink(&args(&["--trace-out"])).is_err());
        // a single dash starts a value: a negative number is a (bad) value
        let err = parse_level(&args(&["--level", "-0.1"])).unwrap_err();
        assert!(!err.contains("needs a value"), "{err}");
    }

    #[test]
    fn level_parsing_validates_range() {
        assert_eq!(parse_level(&args(&["--level", "0.7"])).unwrap(), 0.7);
        assert_eq!(parse_level(&args(&[])).unwrap(), 0.5);
        assert!(parse_level(&args(&["--level", "1.5"])).is_err());
        assert!(parse_level(&args(&["--level", "abc"])).is_err());
        // a zero protection budget is a configuration mistake, not a run
        let err = parse_level(&args(&["--level", "0"])).unwrap_err();
        assert!(err.contains("zero protection budget"), "{err}");
        assert!(parse_level(&args(&["--level", "-0.1"])).is_err());
    }

    #[test]
    fn positive_flags_reject_zero_and_garbage() {
        assert_eq!(
            parse_positive(&args(&["--injections", "50"]), "--injections", "x").unwrap(),
            Some(50)
        );
        assert_eq!(
            parse_positive(&args(&[]), "--injections", "x").unwrap(),
            None
        );
        assert!(parse_positive(&args(&["--injections", "0"]), "--injections", "x").is_err());
        assert!(parse_positive(&args(&["--max-inputs", "0"]), "--max-inputs", "x").is_err());
        assert!(parse_positive(&args(&["--per-inst", "-3"]), "--per-inst", "x").is_err());
        assert!(parse_positive(&args(&["--per-inst", "abc"]), "--per-inst", "x").is_err());
    }

    #[test]
    fn campaign_flags_cover_sizes() {
        let c = parse_campaign(&args(&["--injections", "60", "--per-inst", "7"])).unwrap();
        assert_eq!(c.injections, 60);
        assert_eq!(c.per_inst_injections, 7);

        let q = parse_campaign(&args(&["--quick"])).unwrap();
        assert!(q.injections < CampaignConfig::default().injections);
        assert!(parse_campaign(&args(&["--injections", "0"])).is_err());
    }

    /// The one scheduling flag bounds the run and is not part of the
    /// campaign config, whose scheduler part has no knob left: with or
    /// without a deadline the config, and so every key hashed from it, is
    /// the default one.
    #[test]
    fn sched_flags_parse_into_sched_config() {
        let d = parse_campaign(&args(&[])).unwrap();
        assert_eq!(d.sched, minpsid_faultsim::SchedConfig::default());
        let with = parse_campaign(&args(&["--deadline-secs", "0.5"])).unwrap();
        assert_eq!(format!("{with:?}"), format!("{d:?}"));
    }

    #[test]
    fn deadline_flag_validates() {
        assert_eq!(parse_deadline(&args(&[])).unwrap(), None);
        assert_eq!(
            parse_deadline(&args(&["--deadline-secs", "2.5"])).unwrap(),
            Some(2.5)
        );
        assert_eq!(
            parse_deadline(&args(&["--deadline-secs", "0"])).unwrap(),
            Some(0.0),
            "an already-expired budget is allowed (truncate everything)"
        );
        // a budget no clock can hold is "never", not a panic
        for huge in ["1e19", "1e300"] {
            let d = parse_deadline(&args(&["--deadline-secs", huge])).unwrap();
            assert!(!Deadline::from_secs(d).is_bounded(), "{huge}");
        }
        assert!(parse_deadline(&args(&["--deadline-secs", "-1"])).is_err());
        assert!(parse_deadline(&args(&["--deadline-secs", "inf"])).is_err());
        assert!(parse_deadline(&args(&["--deadline-secs", "soon"])).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_into_policy() {
        let def = parse_campaign(&args(&[])).unwrap();
        assert_eq!(def.checkpoints, CheckpointPolicy::Auto);
        assert_eq!(def.seed, 42);

        // `Every` is the tests' reference policy, not a flag
        let off = parse_campaign(&args(&["--no-checkpoints", "--seed", "7"])).unwrap();
        assert_eq!(off.checkpoints, CheckpointPolicy::Disabled);
        assert_eq!(off.seed, 7);
    }

    #[test]
    fn tables_are_memoized_unless_told_not_to() {
        assert!(parse_incremental(&args(&["hpccg", "--store", "s"])));
        assert!(!parse_incremental(&args(&["hpccg", "--no-incremental"])));
        assert!(!parse_incremental(&args(&[
            "--no-incremental",
            "--store",
            "s"
        ])));
    }

    #[test]
    fn first_arg_skips_flags() {
        assert_eq!(
            first_arg(&args(&["fft", "--seed", "1"]), "x").unwrap(),
            "fft"
        );
        assert!(first_arg(&args(&["--seed", "1"]), "x").is_err());
        assert!(first_arg(&args(&[]), "x").is_err());
    }

    #[test]
    fn custom_args_parse_into_scalars() {
        let input = parse_input("custom.mc", &args(&["--args", "i:5", "f:2.5"])).unwrap();
        assert_eq!(input.args, vec![Scalar::I(5), Scalar::F(2.5)]);
        assert!(parse_input("custom.mc", &args(&["--args", "x:1"])).is_err());
    }

    #[test]
    fn benchmarks_resolve_reference_inputs() {
        let input = parse_input("fft", &args(&[])).unwrap();
        assert!(!input.args.is_empty());
        assert!(parse_input("not-a-bench", &args(&[])).is_err());
    }
}
