//! Engine-equivalence matrix: every composition of the `CampaignEngine`
//! (plain, explicit scheduler, journaled) must produce byte-identical
//! reports at every thread count, because the plan is fixed by the seed
//! and reduction happens in plan order regardless of how workers race.
//! Plus the crash story for the *parallel* journaled path: a campaign
//! SIGKILLed mid-run resumes from its WAL to the same bytes. Every fault
//! a per-instruction campaign plans, resolved one by one on a bare
//! interpreter, against what the engine — checkpoints, early exits,
//! deduplicated repeats — reports and journals for it; and every hang of
//! the kernels whose campaigns hang, proved at a latch or run out, against
//! the reference oracle. And the
//! interpreter's side of the bargain, on all 11 kernels: the decoded
//! engine's one-pass golden run and shared-interpreter input search
//! against the reference oracle and per-candidate profiling, the
//! injection counts a fault-free observed run derives against the ones
//! the oracle counts, and faults into the stack-slot pointers its slot
//! addressing takes for granted.

use minpsid_repro::faultsim::{
    faulty_exec_config, golden_run, CampaignConfig, CampaignConfigBuilder, CampaignEngine,
    CampaignJournal, GoldenRun, Scheduler,
};
use minpsid_repro::interp::{FaultSpec, ProgInput, Run, Start};
use minpsid_repro::ir::Module;
use minpsid_repro::workloads;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn journal_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-engine-eq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The WAL a journal (dropped by now) left in `dir`; removes `dir`.
fn wal_of(dir: &Path) -> Vec<u8> {
    let wal = std::fs::read(dir.join("campaign.wal")).expect("campaign WAL");
    let _ = std::fs::remove_dir_all(dir);
    wal
}

fn bench_module(name: &str) -> (Module, ProgInput) {
    let b = workloads::by_name(name).expect("workload exists");
    (b.compile(), b.model.materialize(&b.model.reference()))
}

/// `input` with `fault` beside `golden`'s checkpoints: a campaign's
/// injection.
fn beside<'a>(golden: &'a GoldenRun, input: &'a ProgInput, fault: FaultSpec) -> Run<'a> {
    Run {
        fault: Some(fault),
        start: Start::Beside(&golden.checkpoints),
        ..Run::new(input)
    }
}

/// Canonical report bytes for one engine composition: the debug render
/// of both campaign shapes (no timing fields, so fully deterministic).
fn reports(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    threads: usize,
    mode: &str,
) -> (String, String) {
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .and_then(|b| b.threads(threads as u64))
        .expect("valid matrix config")
        .build();
    let sched = Scheduler::unbounded();
    let dir = journal_dir(&format!("matrix-{mode}-t{threads}"));
    let journal;
    let mut engine = CampaignEngine::new(module, input, golden, &cfg);
    match mode {
        "plain" => {}
        "sched" => engine = engine.with_scheduler(&sched),
        "journaled" => {
            journal = CampaignJournal::open(&dir, 0, 0, None).expect("open journal");
            engine = engine.with_journal(&journal, 1);
        }
        other => panic!("unknown mode {other}"),
    }
    let program = engine.run_program().expect("no interrupt requested");
    let per_inst = engine
        .run_per_instruction()
        .expect("no interrupt requested");
    let _ = std::fs::remove_dir_all(&dir);
    (format!("{program:?}"), format!("{per_inst:?}"))
}

/// The matrix: {plain, scheduled, journaled} × {1, 2, 8} threads, all
/// nine compositions byte-identical for both campaign shapes.
#[test]
fn all_engine_compositions_are_byte_identical_across_thread_counts() {
    let (module, input) = bench_module("hpccg");
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .expect("valid matrix config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");

    let reference = reports(&module, &input, &golden, 1, "plain");
    for mode in ["plain", "sched", "journaled"] {
        for threads in [1usize, 2, 8] {
            let got = reports(&module, &input, &golden, threads, mode);
            assert_eq!(
                got, reference,
                "{mode} campaign at {threads} threads diverged from plain serial"
            );
        }
    }
}

/// The golden-convergence early exit changes what a checkpointed
/// injection executes, never what it resolves to: on every kernel of the
/// suite a per-instruction campaign from checkpoints — restores, suffix
/// replay, early exits — is byte-identical, in its report and in the
/// journal it leaves, to the same campaign with checkpointing disabled,
/// where every fault is replayed cold from program start to its own end.
#[test]
fn checkpointed_per_inst_campaign_equals_cold_replay_on_every_kernel() {
    use minpsid_repro::interp::{ExecScratch, FaultTarget, Interp};

    let builder = CampaignConfigBuilder::new(11)
        .per_inst_injections(3)
        .expect("valid config");
    let warm_cfg = builder.clone().build();
    let cold_cfg = builder.no_checkpoints().build();
    let run = |module: &Module, input: &ProgInput, golden: &GoldenRun, cfg: &CampaignConfig| {
        let dir = journal_dir(&format!(
            "early-exit-{}-{}",
            module.name,
            golden.checkpoints.len()
        ));
        let journal = CampaignJournal::open(&dir, 0, 0, None).expect("open journal");
        let per_inst = CampaignEngine::new(module, input, golden, cfg)
            .with_journal(&journal, 1)
            .run_per_instruction()
            .expect("no interrupt requested");
        drop(journal);
        let wal = std::fs::read(dir.join("campaign.wal")).expect("campaign WAL");
        let _ = std::fs::remove_dir_all(&dir);
        (format!("{per_inst:?}"), wal)
    };

    let (mut converged, mut cold_converged) = (0, 0);
    for b in workloads::suite() {
        let (module, input) = bench_module(b.name);
        let golden = golden_run(&module, &input, &warm_cfg).expect("golden run");
        let cold_golden = golden_run(&module, &input, &cold_cfg).expect("golden run");
        assert!(!golden.checkpoints.is_empty() && cold_golden.checkpoints.is_empty());
        let (warm_report, warm_wal) = run(&module, &input, &golden, &warm_cfg);
        let (cold_report, cold_wal) = run(&module, &input, &cold_golden, &cold_cfg);
        assert_eq!(warm_report, cold_report, "{}: PerInstSdc diverged", b.name);
        assert_eq!(warm_wal, cold_wal, "{}: WAL bytes diverged", b.name);

        // the identity proves nothing about the early exit unless these
        // kernels and stores take it: count it on a slice of the same
        // injection path (`Start::Beside` under the engine's limits)
        let interp = Interp::new(&module, faulty_exec_config(&warm_cfg, golden.steps));
        let mut scratch = ExecScratch::default();
        let population = golden.profile.injectable_execs;
        for i in 0..40 {
            let nth = population / 40 * i;
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: (i % 8) as u32,
            };
            if let Some(idx) = golden.checkpoints.nearest_for_dynamic(nth) {
                let r = interp.execute(&mut scratch, &beside(&golden, &input, fault));
                assert_eq!(r.resumed_at, Some(golden.checkpoints.steps_at(idx)));
                converged += usize::from(r.converged_at.is_some());
            }
        }
        // and on faults that precede the first checkpoint, which the
        // engine replays cold, beside the store instead of from it
        let first = golden.checkpoints.inj_ctr_at(0);
        for i in 0..8 {
            let nth = first / 8 * i;
            if golden.checkpoints.nearest_for_dynamic(nth).is_some() {
                continue;
            }
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: i as u32,
            };
            let r = interp.execute(&mut scratch, &beside(&golden, &input, fault));
            assert_eq!(r.resumed_at, None);
            cold_converged += usize::from(r.converged_at.is_some());
        }
    }
    assert!(
        converged >= 20,
        "only {converged} sampled injections converged"
    );
    assert!(
        cold_converged >= 5,
        "only {cold_converged} sampled cold injections converged"
    );
}

/// The engine against no engine at all. Every fault the per-instruction
/// plan holds for `bfs` at 64 injections per site — where a site executed
/// once can only draw from 64 distinct faults, so the campaign repeats
/// itself — is resolved here by one cold `Interp::run_with_fault_in` and
/// `classify`, nothing shared between two of them. The engine, which
/// resumes from checkpoints, exits early on convergence and serves a
/// repeated `(instance, bit)` from the first run of it, must arrive at the
/// same outcome stream at every site, the same report and the same WAL.
#[test]
fn every_planned_fault_resolved_alone_equals_the_engine() {
    use minpsid_repro::faultsim::outcome::{classify, OutcomeCounts};
    use minpsid_repro::faultsim::PerInstSdc;
    use minpsid_repro::interp::ExecScratch;
    use minpsid_repro::interp::Interp;
    use minpsid_repro::sched::{binomial_ci, SiteStatus, Z};

    const INPUT_FP: u64 = 1;
    let (module, input) = bench_module("bfs");
    let cfg = CampaignConfigBuilder::new(42)
        .per_inst_injections(64)
        .expect("valid config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let dir = journal_dir("planned-engine");
    let journal = CampaignJournal::open(&dir, 0, 0, None).expect("open journal");
    let engine =
        CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&journal, INPUT_FP);
    let report = engine
        .run_per_instruction()
        .expect("no interrupt requested");
    assert!(
        engine.deduped() > 0,
        "no site repeated a fault: the memo went untested"
    );

    // the reference: same plan, every fault on its own
    let plan = engine.plan_per_instruction();
    let interp = Interp::new(&module, faulty_exec_config(&cfg, golden.steps));
    let n = module.numbering().len();
    let mut expected = PerInstSdc {
        sdc_prob: vec![0.0; n],
        counts: vec![OutcomeCounts::default(); n],
        ci: vec![binomial_ci(0, 0, Z); n],
        status: vec![SiteStatus::Unsampled; n],
    };
    let ref_dir = journal_dir("planned-alone");
    let ref_journal = CampaignJournal::open(&ref_dir, 0, 0, None).expect("open journal");
    let mut repeats = 0;
    for sec in &plan.sections {
        for (i, &(dense, _, _)) in sec.sites.iter().enumerate() {
            let faults: Vec<_> = plan.faults(sec, i).collect();
            assert_eq!(faults.len(), 64);
            let counts = &mut expected.counts[dense];
            for (k, &fault) in faults.iter().enumerate() {
                repeats += usize::from(faults[..k].contains(&fault));
                let outcome = classify(
                    &golden.output,
                    &interp.run_with_fault_in(&mut ExecScratch::default(), &input, fault),
                );
                assert_eq!(
                    journal.per_inst_outcome(INPUT_FP, dense as u64, k as u64),
                    Some(outcome.to_u8()),
                    "site {dense}, injection {k}: {fault:?}"
                );
                counts.record(outcome);
                ref_journal.record_per_inst(
                    INPUT_FP,
                    dense as u64,
                    k as u64,
                    outcome.to_u8(),
                    true,
                );
            }
            expected.sdc_prob[dense] = counts.sdc_prob();
            expected.ci[dense] = binomial_ci(counts.sdc, counts.total(), Z);
            expected.status[dense] = SiteStatus::Full;
        }
    }
    assert_eq!(engine.deduped(), repeats as u64, "every repeat, no more");
    assert_eq!(format!("{report:?}"), format!("{expected:?}"));
    drop((journal, ref_journal));
    assert!(wal_of(&dir) == wal_of(&ref_dir), "WAL bytes diverged");
}

/// The hang proof against the oracle on the kernels whose campaigns hang.
/// Every distinct fault the per-instruction plan holds for fft, knn and
/// kmeans at the benchmark's 6 per site (seed 42, a 2^20-word memory cap)
/// that ends in a hang on the engine's path — resumed from the nearest
/// checkpoint, or beside the golden store before the first — ends, field
/// for field, as the reference walk's cold run to the step limit does.
/// The proofs are counted so that the identity is not vacuous, and pinned:
/// every kmeans hang (an inflated iteration count over a clustering that
/// has settled), six of fft's thirteen (an inflated `logn`, whose doubling
/// of `n` settles at 0), and none of knn's, whose inflated loop prints
/// every iteration.
#[test]
fn proved_hangs_equal_the_oracle_on_the_kernels_that_hang() {
    use minpsid_repro::faultsim::{classify, Outcome};
    use minpsid_repro::interp::{oracle, ExecScratch, Interp};
    use std::collections::HashSet;

    let mut cfg = CampaignConfigBuilder::new(42)
        .per_inst_injections(6)
        .and_then(|b| b.max_checkpoints(128))
        .expect("valid config")
        .build();
    cfg.exec.mem_limit = 1 << 20;
    let mut proofs = Vec::new();
    for name in ["fft", "knn", "kmeans"] {
        let (module, input) = bench_module(name);
        let golden = golden_run(&module, &input, &cfg).expect("golden run");
        let engine = CampaignEngine::new(&module, &input, &golden, &cfg);
        let plan = engine.plan_per_instruction();
        let interp = Interp::new(&module, faulty_exec_config(&cfg, golden.steps));
        let mut scratch = ExecScratch::default();
        let (mut hangs, mut proved, mut ran) = (0, 0, HashSet::new());
        for sec in &plan.sections {
            for i in 0..sec.sites.len() {
                for fault in plan.faults(sec, i).filter(|&f| ran.insert(f)) {
                    let r = interp.execute(&mut scratch, &beside(&golden, &input, fault));
                    if classify(&golden.output, &r) != Outcome::Hang {
                        continue;
                    }
                    hangs += 1;
                    proved += usize::from(r.hang_proved_at.is_some());
                    let faulty = Run {
                        fault: Some(fault),
                        ..Run::new(&input)
                    };
                    let want = oracle::execute(&interp, &faulty).0;
                    let what = format!("{name} {fault:?}, proved at {:?}", r.hang_proved_at);
                    assert_eq!(r.termination, want.termination, "{what}");
                    assert_eq!(r.output, want.output, "{what}");
                    assert_eq!(r.steps, want.steps, "{what}");
                    assert_eq!(r.fault_applied, want.fault_applied, "{what}");
                    assert_eq!(r.ret, want.ret, "{what}");
                    assert!(r.profile.is_none() && want.profile.is_none(), "{what}");
                    assert!(r.trace.is_none() && want.trace.is_none(), "{what}");
                    if let Some(at) = r.hang_proved_at {
                        let from = r.resumed_at.unwrap_or(0);
                        assert!(from < at && at < r.steps, "{what}");
                        let stats = scratch.converge_stats();
                        assert!(
                            stats.proof_words * 8 <= at - golden.steps,
                            "{what}: {} words over {} steps past golden",
                            stats.proof_words,
                            at - golden.steps
                        );
                    }
                }
            }
        }
        proofs.push((name, proved, hangs));
    }
    assert_eq!(
        proofs,
        [("fft", 6, 13), ("knn", 0, 5), ("kmeans", 5, 5)],
        "(kernel, hangs proved, hangs)"
    );
}

/// `golden_run` — one observed pass of the decoded engine yielding the
/// profile, the checkpoint store and the run's ending together — equals,
/// on every kernel of the suite and in both store encodings, what the
/// reference oracle produces the slow way: a profiled tree walk, then a
/// second, capturing walk at the interval the first one's length sets.
/// Equal means equal bytes: the store's object names hang off them.
#[test]
fn one_pass_golden_run_equals_the_oracles_two_passes_on_every_kernel() {
    use minpsid_repro::interp::wire::{encode_checkpoints, encode_golden};
    use minpsid_repro::interp::{
        auto_interval, oracle, CheckpointConfig, ExecConfig, Interp, SnapshotMode,
    };

    for mode in [SnapshotMode::Delta, SnapshotMode::Full] {
        let mut cfg = CampaignConfigBuilder::new(7)
            .max_checkpoints(128)
            .expect("valid config")
            .build();
        cfg.snapshot_mode = mode;
        for b in workloads::suite() {
            let (module, input) = bench_module(b.name);
            let golden = golden_run(&module, &input, &cfg).expect("golden run");

            let profiling = Interp::new(
                &module,
                ExecConfig {
                    profile: true,
                    ..cfg.exec.clone()
                },
            );
            let first = oracle::execute(&profiling, &Run::new(&input)).0;
            assert!(first.exited(), "{}", b.name);
            let capturing = Interp::new(&module, cfg.exec.clone());
            let ck = CheckpointConfig {
                interval: auto_interval(first.steps, cfg.max_checkpoints),
                mem_budget_bytes: cfg.checkpoint_mem_budget,
                mode: cfg.snapshot_mode,
                keyframe_every: cfg.keyframe_every,
            };
            let capture = Run {
                start: Start::Capture(ck),
                ..Run::new(&input)
            };
            let (second, store) = oracle::execute(&capturing, &capture);
            let store = store.expect("a capturing run captures");
            assert_eq!(second.steps, first.steps, "{}", b.name);
            assert!(!store.is_empty(), "{}: nothing captured", b.name);

            let profile = first.profile.expect("profiled walk");
            assert_eq!(golden.steps, first.steps, "{} ({mode:?}): steps", b.name);
            assert_eq!(golden.output, first.output, "{} ({mode:?}): output", b.name);
            assert_eq!(golden.profile, profile, "{} ({mode:?}): profile", b.name);
            assert!(
                golden.encode_meta() == encode_golden(&first.output, &profile, first.steps),
                "{} ({mode:?}): golden meta image",
                b.name
            );
            assert!(
                golden.encode_checkpoints() == encode_checkpoints(&store),
                "{} ({mode:?}): checkpoint store image",
                b.name
            );
        }
    }
}

/// A fault-free observed run counts no value production: the profile's
/// `injectable_execs` — the population every whole-program fault is
/// drawn from — and each checkpoint's `inj_ctr` and per-instruction
/// counts — which pick the checkpoint an injection resumes from and seed
/// its counter — are derived from block entries. On every kernel, on its
/// reference input and on two random ones, they equal what the oracle
/// counts production by production: the profile field by field, and the
/// store entry by entry and byte by byte in both encodings.
#[test]
fn derived_injection_counts_equal_the_oracles_on_every_kernel() {
    use minpsid_repro::interp::wire::encode_checkpoints;
    use minpsid_repro::interp::{
        auto_interval, oracle, CheckpointConfig, ExecConfig, Interp, SnapshotMode,
    };
    use rand::SeedableRng;

    let cfg = CampaignConfigBuilder::new(7).build();
    let (mut runs, mut checkpoints) = (0, 0);
    for b in workloads::suite() {
        let module = b.compile();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let params = [
            b.model.reference(),
            b.model.random(&mut rng),
            b.model.random(&mut rng),
        ];
        let interp = Interp::new(
            &module,
            ExecConfig {
                profile: true,
                ..cfg.exec.clone()
            },
        );
        for (k, params) in params.iter().enumerate() {
            let what = format!("{} input {k}", b.name);
            let input = b.model.materialize(params);
            let counted = oracle::execute(&interp, &Run::new(&input)).0;
            let derived = interp.run(&input);
            assert_eq!(derived.termination, counted.termination, "{what}");
            let (d, c) = (
                derived.profile.expect("profiled"),
                counted.profile.expect("profiled walk"),
            );
            assert_eq!(d.inst_counts, c.inst_counts, "{what}: inst_counts");
            assert_eq!(d.block_counts, c.block_counts, "{what}: block_counts");
            assert_eq!(
                d.injectable_execs, c.injectable_execs,
                "{what}: injectable_execs"
            );
            assert_eq!(d, c, "{what}: the rest of the profile");
            runs += 1;

            for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
                let ck = CheckpointConfig {
                    interval: auto_interval(counted.steps, cfg.max_checkpoints),
                    mem_budget_bytes: cfg.checkpoint_mem_budget,
                    mode,
                    keyframe_every: cfg.keyframe_every,
                };
                let capture = Run {
                    start: Start::Capture(ck),
                    ..Run::new(&input)
                };
                let want = oracle::execute(&interp, &capture).1.expect("captured");
                let (_, got) = interp.run_with_checkpoint_store(&input, ck);
                assert_eq!(got.len(), want.len(), "{what} ({mode:?})");
                for i in 0..want.len() {
                    let at = format!("{what} ({mode:?}), checkpoint {i}");
                    assert_eq!(got.inj_ctr_at(i), want.inj_ctr_at(i), "{at}: inj_ctr");
                    for dense in 0..module.num_insts() {
                        assert_eq!(
                            got.inj_count_at(i, dense),
                            want.inj_count_at(i, dense),
                            "{at}: inj_count of instruction {dense}"
                        );
                    }
                }
                assert!(
                    encode_checkpoints(&got) == encode_checkpoints(&want),
                    "{what} ({mode:?}): checkpoint store image"
                );
                checkpoints += want.len();
            }
        }
    }
    assert_eq!(runs, 33);
    assert!(checkpoints >= 2000, "{checkpoints} checkpoints compared");
}

/// `step_rate`'s per-op table reads each op kind's steps off one profiled
/// run: walking a function's slots window by window, a carrier executes
/// as often as its first instruction and carries its window's width in
/// steps. That is exact for a run that exits, because a window never
/// spans a call or a block — so every half of it runs exactly as often as
/// the first — and a fault-free run from the entry never dispatches a
/// standalone copy. On every kernel's reference input, each window's
/// halves run alike, and the carried steps sum to the clean run's steps.
#[test]
fn op_steps_read_off_one_profile_sum_to_each_kernels_run() {
    use minpsid_repro::interp::{ExecConfig, Interp};

    let mut kernels = 0;
    for b in workloads::suite() {
        let (module, input) = bench_module(b.name);
        let profiled = ExecConfig {
            profile: true,
            ..ExecConfig::default()
        };
        let interp = Interp::new(&module, profiled);
        let profile = interp.run(&input).profile.expect("profiled");
        let clean = Interp::new(&module, ExecConfig::default()).run(&input);
        assert!(clean.exited(), "{}", b.name);

        // an op's count is its width times its carriers' executions when
        // every half of each window it carries runs as often as the first
        let mut carried = 0;
        for slots in interp.op_names() {
            let mut pc = 0;
            while pc < slots.len() {
                let (name, width, dense) = slots[pc];
                let runs = profile.inst_counts[dense];
                for (k, &(.., d)) in slots[pc..pc + width].iter().enumerate() {
                    let what = format!("{}: {name} at slot {pc}, half {k}", b.name);
                    assert_eq!(profile.inst_counts[d], runs, "{what}");
                }
                carried += width as u64 * runs;
                pc += width;
            }
        }
        assert_eq!(carried, clean.steps, "{}: carried steps", b.name);
        kernels += 1;
    }
    assert_eq!(kernels, 11);
}

/// The decoded engine addresses a function's constant stack slots at
/// decode time, which is exact only while every `salloc` register holds
/// the pointer its `salloc` produced. On every kernel, a flip of that
/// pointer — at every `salloc` site, in its first and its last execution,
/// on bits that move it to a neighbour word (0), far off (5, 17), onto the
/// heap (62, the stack tag) and out of any space (63) — ends as the
/// reference oracle says, cold beside the golden store and resumed from
/// the nearest checkpoint. And every kernel keeps most of its loads and
/// stores slot-addressed: a front end that stops emitting entry-block
/// slots fails here instead of quietly costing a sixth of the speed.
#[test]
fn faults_into_slot_pointers_equal_the_oracle_on_every_kernel() {
    use minpsid_repro::interp::{oracle, ExecScratch, FaultTarget, Interp};
    use minpsid_repro::ir::InstKind;

    let cfg = CampaignConfigBuilder::new(7).build();
    let (mut sites, mut resumed, mut on_generic) = (0, 0, 0);
    for b in workloads::suite() {
        let (module, input) = bench_module(b.name);
        let golden = golden_run(&module, &input, &cfg).expect("golden run");
        let interp = Interp::new(&module, faulty_exec_config(&cfg, golden.steps));

        let (slotted, all) = interp.slot_coverage();
        assert!(
            slotted * 10 >= all * 7,
            "{}: only {slotted} of {all} loads and stores are slot-addressed",
            b.name
        );

        let numbering = module.numbering();
        let mut scratch = ExecScratch::default();
        for (gid, inst) in module.iter_insts() {
            let dense = numbering.index(gid);
            let executions = golden.profile.inst_counts[dense];
            if !matches!(inst.kind, InstKind::Salloc { .. }) || executions == 0 {
                continue;
            }
            sites += 1;
            for nth in [0, executions - 1] {
                for bit in [0, 5, 17, 62, 63] {
                    let fault = FaultSpec {
                        target: FaultTarget::NthOfInst(gid, nth),
                        bit,
                    };
                    let what = format!("{} {fault:?}", b.name);
                    let faulty = Run {
                        fault: Some(fault),
                        ..Run::new(&input)
                    };
                    let want = oracle::execute(&interp, &faulty).0;
                    assert!(want.fault_applied, "{what}");
                    let ends = |r: &minpsid_repro::interp::ExecResult| {
                        (r.termination, r.output.clone(), r.steps, r.fault_applied)
                    };
                    let store = &golden.checkpoints;
                    let cold = interp.execute(&mut scratch, &faulty);
                    assert_eq!(ends(&cold), ends(&want), "{what}, cold");
                    on_generic += usize::from(scratch.finished_on_generic());
                    let warm = interp.execute(&mut scratch, &beside(&golden, &input, fault));
                    assert_eq!(ends(&warm), ends(&want), "{what}, beside the store");
                    assert!(scratch.finished_on_generic(), "{what}");
                    if let Some(idx) = store.nearest_for_inst(dense, nth) {
                        assert_eq!(warm.resumed_at, Some(store.steps_at(idx)), "{what}");
                        resumed += 1;
                    }
                }
            }
        }
    }
    assert!(sites >= 20, "{sites} salloc sites");
    assert_eq!(
        on_generic,
        sites * 10,
        "every flipped slot pointer goes generic"
    );
    assert!(resumed >= 100, "{resumed} resumed runs");
}

/// The input search evaluates every GA candidate on the one profiling
/// interpreter it built at construction. On every kernel that search
/// returns what a search fed by per-candidate `profile_input` (a fresh
/// interpreter, hence a fresh decode, per candidate) returns: same
/// parameters, fitness, indexed CFG list and evaluation count, round
/// after round.
#[test]
fn search_on_a_shared_interpreter_equals_per_candidate_profiling() {
    use minpsid_repro::minpsid::{
        input_fingerprint, profile_input, EvalMemo, GaConfig, InputModel, ParamSpec, ParamValue,
        SearchEngine,
    };
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// The kernel's own model, remembering every input it materialized.
    struct Recording<'a> {
        inner: &'a dyn InputModel,
        inputs: Mutex<HashMap<u64, ProgInput>>,
    }
    impl InputModel for Recording<'_> {
        fn spec(&self) -> &[ParamSpec] {
            self.inner.spec()
        }
        fn materialize(&self, params: &[ParamValue]) -> ProgInput {
            let input = self.inner.materialize(params);
            let mut inputs = self.inputs.lock().expect("no panic under the lock");
            inputs.insert(input_fingerprint(&input), input.clone());
            input
        }
        fn random(&self, rng: &mut rand::rngs::StdRng) -> Vec<ParamValue> {
            self.inner.random(rng)
        }
        fn reference(&self) -> Vec<ParamValue> {
            self.inner.reference()
        }
    }
    /// Serves every candidate's list from a per-candidate `profile_input`.
    struct PerCandidate<'a> {
        module: &'a Module,
        model: &'a Recording<'a>,
        campaign: &'a CampaignConfig,
    }
    impl EvalMemo for PerCandidate<'_> {
        fn cfg_list(&self, input_fp: u64) -> Option<Vec<u64>> {
            let inputs = self.model.inputs.lock().expect("no panic under the lock");
            let input = inputs
                .get(&input_fp)
                .expect("materialized before evaluated");
            profile_input(self.module, input, self.campaign)
                .ok()
                .map(|p| p.block_counts)
        }
        fn record_cfg_list(&self, _: u64, _: &[u64]) {}
    }

    let campaign = CampaignConfigBuilder::new(7).build();
    let ga = GaConfig {
        population: 6,
        max_generations: 3,
        ..GaConfig::default()
    };
    for b in workloads::suite() {
        let module = b.compile();
        let model: &dyn InputModel = b.model.as_ref();
        let reference = model.materialize(&model.reference());
        let ref_list = profile_input(&module, &reference, &campaign)
            .expect("reference input exits")
            .indexed_cfg_list();

        let mut shared = SearchEngine::new(&module, model, campaign.clone(), ga.clone());
        let recording = Recording {
            inner: model,
            inputs: Mutex::new(HashMap::new()),
        };
        let memo = PerCandidate {
            module: &module,
            model: &recording,
            campaign: &campaign,
        };
        let mut fed = SearchEngine::new(&module, &recording, campaign.clone(), ga.clone());
        fed.set_eval_memo(&memo);
        shared.record_history(ref_list.clone());
        fed.record_history(ref_list);
        for round in 0..2 {
            let a = shared.next_ga_input().expect("a valid candidate");
            let f = fed.next_ga_input().expect("a valid candidate");
            assert_eq!(a.params, f.params, "{} round {round}: params", b.name);
            assert_eq!(a.input, f.input, "{} round {round}: input", b.name);
            assert_eq!(
                a.fitness.to_bits(),
                f.fitness.to_bits(),
                "{} round {round}: fitness",
                b.name
            );
            assert_eq!(a.cfg_list, f.cfg_list, "{} round {round}: list", b.name);
            assert_eq!(
                shared.profiled_runs, fed.profiled_runs,
                "{} round {round}: evaluations",
                b.name
            );
            shared.record_history(a.cfg_list);
            fed.record_history(f.cfg_list);
        }
        assert_eq!(shared.memo_served, 0);
        assert_eq!(
            fed.memo_served, fed.profiled_runs,
            "{}: every counted evaluation came from `profile_input`",
            b.name
        );
    }
}

/// Observation must be pure: the same two campaigns, journaled, with an
/// in-process observer and a trace writer attached produce the reports
/// *and the WAL* of a bare run.
/// The observer sees real events — the campaigns are sampled — but none
/// of it may leak into what a run reports or persists.
#[test]
fn observability_on_and_off_produce_byte_identical_reports() {
    use minpsid_repro::trace::{self, CampaignKind, Event};
    use std::sync::{Arc, Mutex};

    let (module, input) = bench_module("fft");
    let cfg = CampaignConfigBuilder::new(7)
        .injections(60)
        .and_then(|b| b.per_inst_injections(4))
        .expect("valid config")
        .build();
    let golden = golden_run(&module, &input, &cfg).expect("golden run");

    let run = |pass: &str| {
        let dir = journal_dir(&format!("observed-{pass}"));
        let journal = CampaignJournal::open(&dir, 0, 0, None).expect("open journal");
        let engine = CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&journal, 1);
        let reports = ["program", "per_inst"].map(|shape| run_shape(shape, &engine));
        drop(journal);
        (reports, wal_of(&dir))
    };

    let (bare, bare_wal) = run("off");

    let ends = Arc::new(Mutex::new(Vec::new()));
    let seen = ends.clone();
    trace::add_observer(move |ev| {
        if let Event::CampaignEnd { kind, .. } = &ev.event {
            seen.lock().unwrap().push(*kind);
        }
    });
    trace::init_writer(Box::new(std::io::sink()));
    let (observed, observed_wal) = run("on");
    trace::shutdown().expect("clean trace shutdown");

    assert_eq!(observed, bare, "reports changed under observation");
    assert!(observed_wal == bare_wal, "WAL changed under observation");
    // The observers must have actually seen the campaigns, or the identity
    // check proved nothing (sibling tests' campaigns reach the same sink).
    let ends = ends.lock().unwrap();
    assert!(
        ends.contains(&CampaignKind::Program) && ends.contains(&CampaignKind::PerInst),
        "a campaign_end per campaign: {ends:?}"
    );
}

/// Campaign the SIGKILL child and the resuming parent both run, in one of
/// the engine's two shapes: big enough to survive a few hundred
/// milliseconds on one core, parallel (8 workers) so the kill lands on
/// the multi-threaded journaled path.
fn sigkill_campaign(shape: &str) -> (Module, ProgInput, CampaignConfig) {
    let (module, input) = bench_module("hpccg");
    let sized = match shape {
        "per_inst" => CampaignConfigBuilder::new(11).per_inst_injections(8),
        "program" => CampaignConfigBuilder::new(11).injections(4000),
        other => panic!("unknown campaign shape {other}"),
    };
    let cfg = sized
        .and_then(|b| b.threads(8))
        .expect("valid sigkill config")
        .build();
    (module, input, cfg)
}

/// Run `engine` in `shape` and render its report (no timing fields).
fn run_shape(shape: &str, engine: &CampaignEngine) -> String {
    match shape {
        "per_inst" => format!("{:?}", engine.run_per_instruction().expect("no interrupt")),
        _ => format!("{:?}", engine.run_program().expect("no interrupt")),
    }
}

const CHILD_ENV: &str = "MINPSID_EQ_CHILD";

/// Child half of the SIGKILL test: re-invoked by `--exact` from the
/// parent with `MINPSID_EQ_CHILD` set to `<shape>=<journal directory>`.
/// A no-op (instant pass) in a normal test run.
#[test]
fn sigkill_resume_child() {
    let Ok(spec) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (shape, dir) = spec.split_once('=').expect("shape=dir");
    let (module, input, cfg) = sigkill_campaign(shape);
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let journal =
        CampaignJournal::open(std::path::Path::new(dir), 0, 0, None).expect("open child journal");
    run_shape(
        shape,
        &CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&journal, 1),
    );
}

/// SIGKILL a parallel journaled campaign mid-run (a real child process,
/// killed without warning once its WAL shows progress), then resume from
/// the surviving journal and demand the same bytes a never-crashed
/// campaign produces — for the per-instruction campaign and for the
/// whole-program one `minpsid fi` runs, whose only protection against a
/// process killed from outside is this path.
#[test]
fn sigkilled_parallel_journaled_campaign_resumes_bit_identically() {
    sigkill_then_resume("per_inst");
    sigkill_then_resume("program");
}

fn sigkill_then_resume(shape: &str) {
    let dir = journal_dir(&format!("sigkill-{shape}"));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["sigkill_resume_child", "--exact", "--nocapture"])
        .env(CHILD_ENV, format!("{shape}={}", dir.display()))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // Kill once the WAL shows real progress. If the campaign finishes
    // first the resume below simply serves every outcome — still a valid
    // (if weaker) equivalence check, so don't fail on a fast child.
    let wal = dir.join("campaign.wal");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = child.try_wait().expect("poll child").is_some();
        let progressed = std::fs::metadata(&wal)
            .map(|m| m.len() > 4096)
            .unwrap_or(false);
        if done || progressed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{shape}: child campaign made no journal progress within 120s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();

    // the reference: the same journaled campaign, never killed
    let (module, input, cfg) = sigkill_campaign(shape);
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let whole_dir = journal_dir(&format!("never-killed-{shape}"));
    let whole = CampaignJournal::open(&whole_dir, 0, 0, None).expect("open reference journal");
    let never_killed = run_shape(
        shape,
        &CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&whole, 1),
    );

    let journal = CampaignJournal::open(&dir, 0, 0, None).expect("reopen journal after SIGKILL");
    let (recovered, _truncated) = journal.recovery_stats();
    assert!(
        recovered > 0,
        "{shape}: the SIGKILLed campaign left no recoverable journal records"
    );
    let resumed = run_shape(
        shape,
        &CampaignEngine::new(&module, &input, &golden, &cfg).with_journal(&journal, 1),
    );
    assert_eq!(
        resumed, never_killed,
        "{shape}: resumed campaign diverged from a never-crashed one"
    );
    let (served, _appended) = journal.usage();
    assert!(
        served > 0,
        "{shape}: resume served nothing from the WAL — the crash recovery path was not exercised"
    );
    // and appended only what the kill lost: the log is the one a run that
    // was never killed writes
    assert!(
        std::fs::read(&wal).unwrap() == std::fs::read(whole_dir.join("campaign.wal")).unwrap(),
        "{shape}: the resumed WAL is not the never-crashed WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&whole_dir);
}

/// Bytes a campaign leaves behind, pinned across commits: hpccg at seed
/// 42 with the `--quick` campaign, each shape journaled and memoized on a
/// fresh store, at 1 and 4 threads. Each pair is the FNV-1a of the WAL
/// and of the sorted `(table ref, object digest)` list of the sealed
/// section tables. The constants were captured before the two campaign
/// shapes shared one loop; a change that moves a WAL record or a table
/// byte — an order, a key, a `ran` flag, a completeness bit — moves them.
#[test]
fn journaled_memoized_campaign_bytes_are_pinned() {
    use minpsid_repro::faultsim::TableMemo;
    use minpsid_repro::ir::bytes::Fnv;
    use minpsid_repro::store::ArtifactStore;
    use std::sync::Arc;

    const PINS: [(&str, u64, u64); 2] = [
        ("program", 0x627b_753d_a571_4994, 0x9ddc_521d_e565_3a16),
        ("per_inst", 0xc7f9_0a45_888a_e0e5, 0xd805_a5d6_0a6b_1671),
    ];
    let (module, input) = bench_module("hpccg");
    for threads in [1u64, 4] {
        let cfg = CampaignConfigBuilder::new(42)
            .injections(120)
            .and_then(|b| b.per_inst_injections(20))
            .and_then(|b| b.threads(threads))
            .expect("valid config")
            .build();
        let golden = golden_run(&module, &input, &cfg).expect("golden run");
        for (shape, wal_pin, tables_pin) in PINS {
            let dir = journal_dir(&format!("pins-{shape}-t{threads}"));
            let store_dir = journal_dir(&format!("pins-store-{shape}-t{threads}"));
            let store = Arc::new(ArtifactStore::open(&store_dir).expect("open store"));
            let memo = TableMemo::new(store.clone(), input.fingerprint());
            let journal = CampaignJournal::open(&dir, 0, 0, None).expect("open journal");
            let engine = CampaignEngine::new(&module, &input, &golden, &cfg)
                .with_journal(&journal, input.fingerprint())
                .with_tables(&memo);
            run_shape(shape, &engine);
            drop(journal);
            let mut wal = Fnv::new();
            wal.bytes(&wal_of(&dir));
            let mut tables = Fnv::new();
            let mut sealed = 0;
            for entry in store.ls().expect("list store") {
                for r in entry.refs.iter().filter(|r| r.starts_with("table/")) {
                    tables.bytes(r.as_bytes());
                    tables.bytes(entry.digest.hex().as_bytes());
                    sealed += 1;
                }
            }
            let _ = std::fs::remove_dir_all(&store_dir);
            assert!(sealed > 0, "{shape}: nothing sealed");
            assert_eq!(
                wal.finish(),
                wal_pin,
                "{shape} at {threads} threads: WAL bytes moved"
            );
            assert_eq!(
                tables.finish(),
                tables_pin,
                "{shape} at {threads} threads: sealed tables moved"
            );
        }
    }
}
