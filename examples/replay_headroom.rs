//! Where do a per-instruction campaign's steps go, and what could an
//! *exact* replay shortcut still save?
//!
//! For every kernel of the suite this resolves the reference input's
//! per-instruction plan (`CampaignPlan::faults`) one fault at a
//! time on the path a campaign's `inject` takes — `Interp::execute` beside
//! the golden run's checkpoints (`Start::Beside`) — and
//! prints five tables (EXPERIMENTS.md, "Replay headroom" and "Power-of-two
//! strides"):
//!
//! 1. **Steps by outcome**: the share of executed steps spent in runs that
//!    end SDC / benign / hang / crash. SDC and hang runs must reach their
//!    own end; only benign runs can rejoin the golden run.
//! 2. **Why unconverged benign runs missed**, as a share of all steps. Each
//!    such run is replayed on the reference walk with its states captured
//!    at the golden boundaries (`oracle::execute` on a `Start::Capture`) and
//!    compared there (`interp::divergence`): *no boundary* left after the
//!    flip; *never visited* — equal to golden at some boundary the back-off
//!    and the hashing budget passed over; otherwise what still differed at
//!    the last shared boundary — *shape* (call stack, pc, output length),
//!    *memory*, or *registers only* (the case a liveness-masked digest
//!    would admit, struck from ROADMAP 3(d)).
//! 3. **Engine vs raw loop**: the same faults through `CampaignEngine`
//!    (scheduler, accounting, reduction) against the bare loop above, the
//!    campaign's hangs, and its slowest single injection. *Trajectories*
//!    is how many distinct runs the hangs are: each hang fault is re-run
//!    profiled, and two hangs whose block-entry counts are equal retraced
//!    the same path to the step limit. *Proved* is how many hangs the
//!    counted-loop proof (ROADMAP 3(a)) stopped early, and *saved* the
//!    steps it did not run, as a share of what the kernel's runs would
//!    have executed without it.
//! 4. **Trajectory-map headroom** (ROADMAP item 3(b)): every distinct
//!    fault, in plan order, is replayed on the reference walk with its
//!    states captured at the golden boundaries, and each state that is not
//!    golden's is keyed by (boundary, state digest). *Map* is the steps a
//!    run executes after the first boundary whose key an earlier faulty
//!    run already reached — what a map from those keys to a finished run's
//!    outcome could serve at most; *back-off* the same for a map that, like
//!    golden convergence, hashes a run's state only at the 1st, 2nd, 4th,
//!    8th … boundary after it leaves golden, so it holds and looks up only
//!    those; *same site* that map kept per site; *in benign* how much of
//!    *map* is in runs that end benign. Two smaller
//!    levers beside it: *bool bit*, the runs at a `Bool` site whose
//!    instance already ran with another bit (every bit of a `B` flips it,
//!    so they repeat a run), and *no reader*, the runs at a site whose
//!    value no instruction reads.
//! 5. **Memory-only divergence** (ROADMAP item 3): every unconverged run
//!    that does not hang is compared with golden at each boundary after the
//!    flip (`interp::memory_only_difference`). *After mem-only* is the
//!    steps it executes after the first boundary where it differs from
//!    golden in memory alone; *same words* the steps in intervals whose two
//!    ends differ so in the same words — what an exact rule that skips
//!    golden intervals not reading those words could serve at most;
//!    *median words* the differing-word count at such a boundary.
//!
//! ```text
//! cargo run --release --example replay_headroom -- [--per-inst N] [--seed N]
//!     [--kernel NAME] [--default-mem-limit]
//! ```
//!
//! Defaults are the repo benchmark's `pipeline_suite` campaign: 6
//! injections per site, seed 42, 128 checkpoints, a 2^20-word memory cap
//! (`--default-mem-limit` keeps the CLI's 2^24).

use minpsid_repro::faultsim::config::flag_value;
use minpsid_repro::faultsim::{
    classify, faulty_exec_config, golden_run, CampaignConfigBuilder, CampaignEngine, Outcome,
};
use minpsid_repro::interp::{
    auto_interval, divergence, memory_only_difference, oracle, CheckpointConfig, CheckpointStore,
    Divergence, ExecConfig, ExecResult, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput,
    Run, SnapshotMode, Start,
};
use minpsid_repro::ir::{GlobalInstId, Ty};
use minpsid_repro::workloads;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Why an unconverged benign run missed; indexes `Kernel::missed`.
#[derive(Clone, Copy)]
enum Miss {
    NoBoundary,
    NeverVisited,
    Shape,
    Memory,
    Registers,
}

/// The site a fault was planned at.
struct Site {
    gid: GlobalInstId,
    /// Dynamic executions in the golden run.
    count: u64,
}

#[derive(Default)]
struct Kernel {
    /// Steps executed in runs ending sdc / benign / hang / crash+detected.
    by_outcome: [u64; 4],
    /// Of the benign steps: runs that converged, then one slot per `Miss`.
    benign_converged: u64,
    missed: [u64; 5],
    injections: u64,
    repeats: u64,
    hangs: u64,
    hangs_once: u64,
    /// Hangs the counted-loop proof stopped early, and the steps it saved.
    proved: u64,
    proof_saved: u64,
    /// The block-entry counts of every hang run, one profiled re-run each.
    hang_trajectories: HashSet<Vec<u64>>,
    hang_insts: BTreeSet<String>,
    raw: Duration,
    slowest: Duration,
    engine: Duration,
    /// Table 4: steps a trajectory map could serve — at any boundary, at
    /// the back-off's, at the back-off's from the same site — and of the
    /// first, those in runs that end benign; then the bool-bit and
    /// no-reader steps.
    map: [u64; 3],
    map_benign: u64,
    bool_bit: u64,
    unread: u64,
    /// Table 5, over unconverged runs that do not hang: steps after the
    /// first boundary where the state differs from golden's in memory
    /// alone, steps in intervals between two such boundaries that differ
    /// in the same words, and the differing-word count at each one.
    mem_after: u64,
    mem_same: u64,
    mem_words: Vec<usize>,
}

/// Table 4's memory of the runs so far, in plan order.
#[derive(Default)]
struct Trajectories {
    /// Golden's state digest at each boundary, by step count.
    golden: HashMap<u64, u64>,
    /// (boundary, state digest) of every non-golden state a run reached.
    seen: HashSet<(u64, u64)>,
    /// The same for the states a run reached at a boundary the back-off
    /// visits — the only ones it would hash — under `None` and under its
    /// site.
    visited: HashSet<(Option<GlobalInstId>, u64, u64)>,
    /// (site, instance) of the `Bool` sites' runs.
    bool_runs: HashSet<(GlobalInstId, u64)>,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if !args.iter().any(|a| a == "--per-inst") {
        args.extend(["--per-inst".to_string(), "6".to_string()]);
    }
    let only = flag_value(&args, "--kernel").expect("--kernel NAME");
    let mut cfg = CampaignConfigBuilder::from_flags(&args)
        .and_then(|b| b.max_checkpoints(128))
        .and_then(|b| b.threads(1))
        .expect("--per-inst N, --seed N")
        .build();
    if !args.iter().any(|a| a == "--default-mem-limit") {
        cfg.exec.mem_limit = 1 << 20;
    }

    let mut rows = Vec::new();
    for b in workloads::suite() {
        if only.as_deref().is_some_and(|k| k != b.name) {
            continue;
        }
        let module = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let golden = golden_run(&module, &input, &cfg).expect("reference input exits");
        let store = &golden.checkpoints;
        let engine = CampaignEngine::new(&module, &input, &golden, &cfg);
        let plan = engine.plan_per_instruction();
        let interp = Interp::new(&module, faulty_exec_config(&cfg, golden.steps));
        let profiling = Interp::new(
            &module,
            ExecConfig {
                profile: true,
                ..faulty_exec_config(&cfg, golden.steps)
            },
        );
        // the faulty run's states at golden's boundaries, every one kept
        let capture = CheckpointConfig {
            interval: auto_interval(golden.steps, cfg.max_checkpoints),
            mem_budget_bytes: usize::MAX,
            mode: SnapshotMode::Full,
            keyframe_every: 1,
        };
        // golden's own states at those boundaries, which no map needs to
        // hold, and the values some instruction reads
        let states = captured(&interp, &input, None, capture);
        let mut maps = Trajectories {
            golden: (0..states.len())
                .map(|i| (states.steps_at(i), states.materialize(i).digest()))
                .collect(),
            ..Trajectories::default()
        };
        let mut read = HashSet::new();
        for (func, f) in module.iter_funcs() {
            let mut ids = Vec::new();
            for inst in &f.insts {
                inst.kind.value_operands(&mut ids);
            }
            read.extend(ids.into_iter().map(|inst| GlobalInstId { func, inst }));
        }
        let mut k = Kernel::default();
        // every distinct planned fault on `inject`'s path, handed to `visit`
        // with its site's dynamic count, its result and outcome, and the
        // time the run and its classification took
        let replay = |visit: &mut dyn FnMut(Site, FaultSpec, &ExecResult, Outcome, Duration)| {
            let mut scratch = ExecScratch::default();
            let (mut injections, mut repeats) = (0, 0);
            for sec in &plan.sections {
                for (i, &(_, gid, count)) in sec.sites.iter().enumerate() {
                    let mut ran = HashSet::new();
                    for fault in plan.faults(sec, i) {
                        injections += 1;
                        if !ran.insert(fault) {
                            repeats += 1; // the engine serves these from the first run
                            continue;
                        }
                        let run = Run {
                            fault: Some(fault),
                            start: Start::Beside(store),
                            ..Run::new(&input)
                        };
                        let t = Instant::now();
                        let r = interp.execute(&mut scratch, &run);
                        let outcome = classify(&golden.output, &r);
                        let took = t.elapsed();
                        visit(Site { gid, count }, fault, &r, outcome, took);
                        scratch.recycle_output(r.output);
                    }
                }
            }
            (injections, repeats)
        };

        // the raw loop's time, best of three, then the same loop looked into
        k.raw = (0..3)
            .map(|_| {
                let mut total = Duration::ZERO;
                replay(&mut |_, _, _, _, took| total += took);
                total
            })
            .min()
            .expect("three runs");
        (k.injections, k.repeats) = replay(&mut |site, fault, r, outcome, took| {
            k.slowest = k.slowest.max(took);
            let end = r.hang_proved_at.or(r.converged_at).unwrap_or(r.steps);
            let executed = end - r.resumed_at.unwrap_or(0);
            let FaultTarget::NthOfInst(_, nth) = fault.target else {
                unreachable!("per-instruction faults name their site")
            };
            if module.inst(site.gid).ty == Some(Ty::Bool) && !maps.bool_runs.insert((site.gid, nth))
            {
                k.bool_bit += executed;
            }
            if !read.contains(&site.gid) {
                k.unread += executed;
            }
            let faulty = captured(&interp, &input, Some(fault), capture);
            let served = reuse(&faulty, site.gid, end, &mut maps);
            for (m, s) in k.map.iter_mut().zip(served) {
                *m += s;
            }
            if outcome == Outcome::Benign {
                k.map_benign += served[0];
            }
            match outcome {
                Outcome::Sdc => k.by_outcome[0] += executed,
                Outcome::Benign => k.by_outcome[1] += executed,
                Outcome::Hang => {
                    k.by_outcome[2] += executed;
                    k.hangs += 1;
                    k.hangs_once += u64::from(site.count == 1);
                    if let Some(at) = r.hang_proved_at {
                        k.proved += 1;
                        k.proof_saved += r.steps - at;
                    }
                    let profile = profiling
                        .run_with_fault_in(&mut ExecScratch::default(), &input, fault)
                        .profile;
                    k.hang_trajectories
                        .insert(profile.expect("a profiled run").indexed_cfg_list());
                    let kind = format!("{:?}", module.inst(site.gid).kind);
                    let name = kind.split([' ', '{', '(']).next().unwrap_or("?");
                    k.hang_insts.insert(name.to_string());
                }
                _ => k.by_outcome[3] += executed,
            }
            if outcome != Outcome::Hang && r.converged_at.is_none() {
                let [after, same] = memory_only(&faulty, &states, end, &mut k.mem_words);
                k.mem_after += after;
                k.mem_same += same;
            }
            if outcome != Outcome::Benign {
                return;
            }
            if r.converged_at.is_some() {
                k.benign_converged += executed;
                return;
            }
            let miss = why_missed(&faulty, store);
            k.missed[miss as usize] += executed;
        });

        // the same plan through the engine, best of three
        k.engine = (0..3)
            .map(|_| {
                let t = Instant::now();
                let report = CampaignEngine::new(&module, &input, &golden, &cfg)
                    .run_per_instruction()
                    .expect("no journal, no interrupt");
                std::hint::black_box(report);
                t.elapsed()
            })
            .min()
            .expect("three runs");
        rows.push((b.name, k));
    }
    print_tables(&rows);
}

/// `input` with `fault` (if any) on the reference walk, its states captured
/// every `capture.interval` steps.
fn captured(
    interp: &Interp<'_>,
    input: &ProgInput,
    fault: Option<FaultSpec>,
    capture: CheckpointConfig,
) -> CheckpointStore {
    let run = Run {
        fault,
        start: Start::Capture(capture),
        ..Run::new(input)
    };
    oracle::execute(interp, &run)
        .1
        .expect("a capturing run captures")
}

/// Say why a run whose states at every golden boundary are `faulty` never
/// met the golden run there.
fn why_missed(faulty: &CheckpointStore, golden: &CheckpointStore) -> Miss {
    // boundaries both stores hold, by step count (golden's may be thinned)
    let at: HashMap<u64, usize> = (0..faulty.len()).map(|i| (faulty.steps_at(i), i)).collect();
    let mut last = None;
    for g in 0..golden.len() {
        let Some(&f) = at.get(&golden.steps_at(g)) else {
            continue;
        };
        match divergence(&faulty.materialize(f), &golden.materialize(g)) {
            // equal before the flip, by construction: not a boundary that counts
            None if last.is_none() => {}
            None => return Miss::NeverVisited,
            Some(d) => last = Some(d),
        }
    }
    match last {
        None => Miss::NoBoundary,
        Some(Divergence::Shape) => Miss::Shape,
        Some(Divergence::Memory) => Miss::Memory,
        Some(Divergence::Registers) => Miss::Registers,
    }
}

/// Table 4 for one run, whose states at the golden boundaries are
/// `faulty`: the steps it executes (up to `end`) after the first state an
/// earlier run reached — at any boundary; at a boundary the back-off
/// visits, in a map that holds only visited states; the same, reached
/// from `site` — then remember its states.
fn reuse(
    faulty: &CheckpointStore,
    site: GlobalInstId,
    end: u64,
    maps: &mut Trajectories,
) -> [u64; 3] {
    let mut served = [None; 3];
    // boundaries since the run left golden: the back-off's ordinal
    let mut ord = 0u64;
    let mut keys = Vec::new();
    for i in 0..faulty.len() {
        let (steps, digest) = (faulty.steps_at(i), faulty.materialize(i).digest());
        let on_golden = maps.golden.get(&steps) == Some(&digest);
        if ord == 0 && on_golden {
            continue; // before the flip, or the flip already masked
        }
        ord += 1;
        if on_golden {
            continue; // back on golden: convergence's to serve
        }
        let visited = ord.is_power_of_two();
        let hits = [
            maps.seen.contains(&(steps, digest)),
            visited && maps.visited.contains(&(None, steps, digest)),
            visited && maps.visited.contains(&(Some(site), steps, digest)),
        ];
        for (s, hit) in served.iter_mut().zip(hits) {
            if hit && s.is_none() {
                *s = Some(end.saturating_sub(steps));
            }
        }
        keys.push((steps, digest, visited));
    }
    for (steps, digest, visited) in keys {
        maps.seen.insert((steps, digest));
        if visited {
            maps.visited.insert((None, steps, digest));
            maps.visited.insert((Some(site), steps, digest));
        }
    }
    served.map(|s| s.unwrap_or(0))
}

/// Table 5 for one run, whose states at the golden boundaries are
/// `faulty` and golden's `golden` (every boundary kept): the steps it
/// executes (up to `end`) after the first boundary past the flip where it
/// differs from golden in memory alone, and the steps in intervals whose
/// ends both differ so, in the same words. Pushes each such boundary's
/// differing-word count to `words`.
fn memory_only(
    faulty: &CheckpointStore,
    golden: &CheckpointStore,
    end: u64,
    words: &mut Vec<usize>,
) -> [u64; 2] {
    let at: HashMap<u64, usize> = (0..golden.len()).map(|i| (golden.steps_at(i), i)).collect();
    let (mut first, mut same, mut flipped) = (None, 0, false);
    let mut prev: Option<(u64, Vec<usize>)> = None;
    for i in 0..faulty.len() {
        let steps = faulty.steps_at(i);
        let Some(&gi) = at.get(&steps) else {
            break; // past golden's end
        };
        let (f, g) = (faulty.materialize(i), golden.materialize(gi));
        flipped = flipped || divergence(&f, &g).is_some();
        if !flipped {
            continue; // before the flip, or the flip already masked
        }
        let diff = memory_only_difference(&f, &g);
        if let Some(d) = &diff {
            first.get_or_insert(steps);
            words.push(d.len());
            if let Some((from, _)) = prev.as_ref().filter(|(_, p)| p == d) {
                same += steps - from;
            }
        }
        prev = diff.map(|d| (steps, d));
    }
    [first.map_or(0, |s| end.saturating_sub(s)), same]
}

fn print_tables(rows: &[(&str, Kernel)]) {
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let total = |k: &Kernel| k.by_outcome.iter().sum::<u64>();

    println!("steps executed, by how the run ended");
    println!(
        "{:<15} {:>13} {:>7} {:>7} {:>7} {:>7}",
        "kernel", "steps", "sdc", "benign", "hang", "crash"
    );
    let mut suite = Kernel::default();
    for (name, k) in rows {
        let t = total(k);
        println!(
            "{:<15} {:>13} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            name,
            t,
            pct(k.by_outcome[0], t),
            pct(k.by_outcome[1], t),
            pct(k.by_outcome[2], t),
            pct(k.by_outcome[3], t)
        );
        for (s, v) in suite.by_outcome.iter_mut().zip(k.by_outcome) {
            *s += v;
        }
        for (s, v) in suite.missed.iter_mut().zip(k.missed) {
            *s += v;
        }
        for (s, v) in suite.map.iter_mut().zip(k.map) {
            *s += v;
        }
        suite.benign_converged += k.benign_converged;
        suite.map_benign += k.map_benign;
        suite.bool_bit += k.bool_bit;
        suite.unread += k.unread;
        suite.mem_after += k.mem_after;
        suite.mem_same += k.mem_same;
        suite.mem_words.extend(&k.mem_words);
    }
    let t = total(&suite);
    println!(
        "{:<15} {:>13} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
        "suite",
        t,
        pct(suite.by_outcome[0], t),
        pct(suite.by_outcome[1], t),
        pct(suite.by_outcome[2], t),
        pct(suite.by_outcome[3], t)
    );

    println!("\nbenign steps: converged, or why not (share of all steps)");
    println!(
        "{:<15} {:>10} {:>12} {:>14} {:>7} {:>7} {:>10}",
        "kernel", "converged", "no boundary", "never visited", "shape", "memory", "registers"
    );
    for (name, k) in rows.iter().map(|(n, k)| (*n, k)).chain([("suite", &suite)]) {
        let t = total(k);
        println!(
            "{:<15} {:>9.1}% {:>11.1}% {:>13.1}% {:>6.1}% {:>6.1}% {:>9.1}%",
            name,
            pct(k.benign_converged, t),
            pct(k.missed[Miss::NoBoundary as usize], t),
            pct(k.missed[Miss::NeverVisited as usize], t),
            pct(k.missed[Miss::Shape as usize], t),
            pct(k.missed[Miss::Memory as usize], t),
            pct(k.missed[Miss::Registers as usize], t)
        );
    }

    println!("\nengine vs raw loop (one thread; repeats run once on both sides)");
    println!(
        "{:<15} {:>6} {:>8} {:>9} {:>9} {:>8} {:>6} {:>10} {:>12} {:>7} {:>7} {:>11}  hang sites",
        "kernel",
        "inj",
        "repeats",
        "raw ms",
        "engine ms",
        "engine",
        "hangs",
        "once-exec",
        "trajectories",
        "proved",
        "saved",
        "slowest"
    );
    for (name, k) in rows {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:<15} {:>6} {:>8} {:>9.1} {:>9.1} {:>+7.1}% {:>6} {:>10} {:>12} {:>7} {:>6.1}% {:>6.2} ms {:>2.0}%  {}",
            name,
            k.injections,
            k.repeats,
            ms(k.raw),
            ms(k.engine),
            100.0 * (ms(k.engine) / ms(k.raw) - 1.0),
            k.hangs,
            k.hangs_once,
            k.hang_trajectories.len(),
            k.proved,
            pct(k.proof_saved, total(k) + k.proof_saved),
            ms(k.slowest),
            100.0 * ms(k.slowest) / ms(k.raw),
            k.hang_insts.iter().cloned().collect::<Vec<_>>().join(",")
        );
    }

    println!("\ntrajectory-map headroom (share of all steps; in benign: share of map)");
    println!(
        "{:<15} {:>13} {:>7} {:>9} {:>10} {:>10} {:>9} {:>10}",
        "kernel", "steps", "map", "back-off", "same site", "in benign", "bool bit", "no reader"
    );
    for (name, k) in rows.iter().map(|(n, k)| (*n, k)).chain([("suite", &suite)]) {
        let t = total(k);
        println!(
            "{:<15} {:>13} {:>6.1}% {:>8.1}% {:>9.1}% {:>9.1}% {:>8.1}% {:>9.1}%",
            name,
            t,
            pct(k.map[0], t),
            pct(k.map[1], t),
            pct(k.map[2], t),
            pct(k.map_benign, k.map[0]),
            pct(k.bool_bit, t),
            pct(k.unread, t)
        );
    }

    println!("\nmemory-only divergence (unconverged runs that do not hang; share of all steps)");
    println!(
        "{:<15} {:>13} {:>14} {:>11} {:>13}",
        "kernel", "steps", "after mem-only", "same words", "median words"
    );
    for (name, k) in rows.iter().map(|(n, k)| (*n, k)).chain([("suite", &suite)]) {
        let t = total(k);
        let mut words = k.mem_words.clone();
        words.sort_unstable();
        let median = words
            .get(words.len() / 2)
            .map_or("-".into(), usize::to_string);
        println!(
            "{:<15} {:>13} {:>13.1}% {:>10.1}% {:>13}",
            name,
            t,
            pct(k.mem_after, t),
            pct(k.mem_same, t),
            median
        );
    }
}
