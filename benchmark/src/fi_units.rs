//! `fi_units`: whole-program injections resolved one at a time through
//! `CampaignEngine::program_executor().run_unit(i)` on the reference
//! input — the bare restore -> replay -> classify path with no GA,
//! journal, store or tables.

use crate::pipeline::{load_kernels, Kernel, MEM_LIMIT_WORDS};
use crate::report::{Metrics, FI_KERNELS};
use crate::spans::Tracer;
use crate::stats::{geomean, quantile, samples_beyond};
use crate::{Budget, Run, Scale};
use minpsid_bench::preset::Preset;
use minpsid_faultsim::{
    classify, golden_run, CampaignConfig, CampaignEngine, CheckpointPolicy, GoldenRun, Outcome,
    OutcomeCounts, ProgramUnitExecutor, SchedSnapshot,
};
use minpsid_interp::{ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, MachineState};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Units per pass for each of [`FI_KERNELS`]: a twelfth of the issue's
/// 25 000 / 30 000 / 150 000 / 150 000. A pass takes under 2 s, so a 15 s
/// run has about eight and pools, per kernel, latencies that leave
/// >= 160 samples beyond the 99th percentile.
const UNITS_PER_PASS: [usize; 4] = [2_000, 2_500, 12_500, 12_500];

/// The plan is sized for this many passes. Each pass resolves its own
/// units, so pooled latencies are of distinct faults.
const MAX_PASSES: usize = 16;

/// Plan index of the `j`-th unit of pass `pass`. The plan lays units out
/// section by section (function by function), so a pass strides through
/// it: every pass then samples every section alike and passes compare.
fn unit_index(pass: usize, j: usize) -> usize {
    j * MAX_PASSES + pass
}

/// Passes of a traced run: a fixed number, so that `faultsim.unit_samples`
/// and the outcome counts do not depend on the host's speed, and enough
/// for 80 samples beyond the 99th percentile of the costliest kernel.
const TRACED_PASSES: usize = 4;

/// Faults whose restore / replay / classify cost the traced run times
/// apart, per kernel.
const DECOMPOSE_SAMPLES: usize = 2_000;

/// One in this many resolved units is re-resolved without checkpoints.
const CHECK_ONE_IN: usize = 100;

struct FiKernel {
    kernel: Kernel,
    golden: GoldenRun,
    /// The plan size is part of the campaign config, and differs per kernel.
    cfg: CampaignConfig,
    units_per_pass: usize,
}

/// Everything before the first timed unit: compile, materialise the
/// reference input, golden run with checkpoint capture.
fn setup(seed: u64, scale: &Scale) -> Vec<FiKernel> {
    load_kernels(&FI_KERNELS)
        .into_iter()
        .map(|kernel| {
            let i = FI_KERNELS
                .iter()
                .position(|&n| n == kernel.name)
                .expect("an fi_units kernel");
            let div = if scale.smoke { 50 } else { 1 };
            let units_per_pass = (UNITS_PER_PASS[i] / div).max(CHECK_ONE_IN);
            let cfg = campaign_config(seed, units_per_pass);
            let golden = golden_run(&kernel.module, &kernel.ref_input, &cfg)
                .unwrap_or_else(|t| panic!("{}: reference input did not exit: {t:?}", kernel.name));
            FiKernel {
                kernel,
                golden,
                cfg,
                units_per_pass,
            }
        })
        .collect()
}

fn campaign_config(seed: u64, units_per_pass: usize) -> CampaignConfig {
    let mut cfg = Preset::Tiny.campaign(seed);
    cfg.threads = 1;
    cfg.exec.mem_limit = MEM_LIMIT_WORDS;
    cfg.injections = units_per_pass * MAX_PASSES;
    cfg
}

pub fn run(seed: u64, scale: &Scale, budget: &Budget, run: &mut Run) {
    let (setup_s, fi) = scale.repeat_setup(|_| setup(seed, scale), drop);
    run.e2e.set("setup_s", setup_s);

    let engines: Vec<CampaignEngine> = fi
        .iter()
        .map(|k| CampaignEngine::new(&k.kernel.module, &k.kernel.ref_input, &k.golden, &k.cfg))
        .collect();
    let mut executors: Vec<_> = engines.iter().map(|e| e.program_executor()).collect();

    // per kernel: every unit latency (us), and (plan index, outcome) in
    // resolution order
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); fi.len()];
    let mut outcomes: Vec<Vec<(usize, Outcome)>> = vec![Vec::new(); fi.len()];
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let started = Instant::now();
    let another = |passes: &[Vec<f64>]| match run.tracer.enabled() {
        true => passes.len() < TRACED_PASSES,
        false => passes.len() < MAX_PASSES && budget.another_pass(started, passes),
    };
    while another(&passes) {
        let pass = passes.len();
        let mut loops = Vec::new();
        for (ki, k) in fi.iter().enumerate() {
            latencies[ki].reserve(k.units_per_pass);
            let exec = &mut executors[ki];
            let t_kernel = Instant::now();
            for i in (0..k.units_per_pass).map(|j| unit_index(pass, j)) {
                let t = Instant::now();
                let (o, _) = exec.run_unit(i);
                latencies[ki].push(t.elapsed().as_nanos() as f64 / 1e3);
                outcomes[ki].push((i, o));
            }
            loops.push(t_kernel.elapsed().as_secs_f64());
        }
        passes.push(loops);
    }
    let units_per_pass: usize = fi.iter().map(|k| k.units_per_pass).sum();
    run.set_wall(&passes, units_per_pass as u64);

    if run.tracer.enabled() {
        traced_pass(
            seed,
            &fi,
            &mut executors,
            &outcomes,
            passes[0].iter().sum(),
            run,
        );
        unit_latency_metrics(&fi, &mut latencies, &mut run.layers);
        let mut sched = SchedSnapshot::default();
        for e in &engines {
            sched.merge(&e.scheduler().snapshot());
        }
        crate::set_sched(&mut run.layers, &sched);
    }

    // correctness, outside every timed region: a fixed 1-in-100 sample of
    // the resolved units must resolve to the same outcome on an executor
    // that has no checkpoints and so replays every fault from program start
    drop(executors);
    drop(engines);
    for (k, resolved) in fi.iter().zip(&outcomes) {
        let mut cfg = k.cfg.clone();
        cfg.checkpoints = CheckpointPolicy::Disabled;
        let golden = match golden_run(&k.kernel.module, &k.kernel.ref_input, &cfg) {
            Ok(g) => g,
            Err(t) => {
                let problem = format!("{}: golden run {t:?}", k.kernel.name);
                run.ledger.record(Some(problem));
                continue;
            }
        };
        let engine = CampaignEngine::new(&k.kernel.module, &k.kernel.ref_input, &golden, &cfg);
        let mut exec = engine.program_executor();
        for &(i, fast) in resolved.iter().step_by(CHECK_ONE_IN) {
            let (slow, _) = exec.run_unit(i);
            run.ledger.record((slow != fast).then(|| {
                format!(
                    "{}: unit {i} is {fast:?} from a checkpoint but {slow:?} from program start",
                    k.kernel.name
                )
            }));
        }
    }
}

/// The traced pass: pass 0's units again, one span per kernel loop, then
/// the golden run, the sampled per-injection decomposition and the
/// interpreter probes, each under its own span.
fn traced_pass(
    seed: u64,
    fi: &[FiKernel],
    executors: &mut [ProgramUnitExecutor<'_>],
    outcomes: &[Vec<(usize, Outcome)>],
    untraced_s: f64,
    run: &mut Run,
) {
    let Run {
        tracer,
        ledger,
        layers,
        ..
    } = run;
    let from_ns = tracer.now_ns();
    let t = Instant::now();
    let mut counts = OutcomeCounts::default();
    for ((k, exec), first) in fi.iter().zip(executors).zip(outcomes) {
        tracer.enter("faultsim.run_units", k.kernel.name);
        let mut changed = None;
        for &(i, before) in first.iter().take(k.units_per_pass) {
            let (o, _) = exec.run_unit(i);
            counts.record(o);
            if o != before {
                changed.get_or_insert(format!(
                    "{}: unit {i} resolved to {before:?}, then to {o:?}",
                    k.kernel.name
                ));
            }
        }
        tracer.exit();
        ledger.record(changed);
    }
    let traced_s = t.elapsed().as_secs_f64();
    crate::add_outcomes(layers, &counts);

    let mut golden_s = 0.0;
    for k in fi {
        let t = Instant::now();
        let g = tracer.time("faultsim.golden_run", k.kernel.name, || {
            golden_run(&k.kernel.module, &k.kernel.ref_input, &k.cfg)
        });
        golden_s += t.elapsed().as_secs_f64();
        black_box(g.ok());
    }
    layers.set("faultsim.golden_s", golden_s);
    decompose(seed, fi, tracer, layers);
    let kernels: Vec<&Kernel> = fi.iter().map(|k| &k.kernel).collect();
    crate::probes::interp_layers(&kernels, &fi[0].cfg, tracer, layers);
    crate::set_trace_quality(run, from_ns, traced_s, untraced_s);
}

/// Median and 99th percentile of every kernel's pooled unit latencies,
/// and their geometric means over the kernels.
fn unit_latency_metrics(fi: &[FiKernel], latencies: &mut [Vec<f64>], layers: &mut Metrics) {
    let (mut p50s, mut p99s, mut samples) = (Vec::new(), Vec::new(), 0usize);
    for (k, lat) in fi.iter().zip(latencies) {
        let (p50, p99) = (quantile(lat, 0.50), quantile(lat, 0.99));
        layers.set(&format!("faultsim.unit_us_p50.{}", k.kernel.name), p50);
        layers.set(&format!("faultsim.unit_us_p99.{}", k.kernel.name), p99);
        p50s.push(p50);
        p99s.push(p99);
        samples += lat.len();
        println!(
            "# {}: {} unit latencies, {} beyond p99",
            k.kernel.name,
            lat.len(),
            samples_beyond(lat.len(), 0.99)
        );
    }
    layers.set("faultsim.unit_us_p50", geomean(&p50s));
    layers.set("faultsim.unit_us_p99", geomean(&p99s));
    layers.set("faultsim.unit_samples", samples as f64);
}

/// Time restore, replay and classify apart on `DECOMPOSE_SAMPLES` faults
/// per kernel drawn from the seed: `nearest_for_dynamic` + `restore_into`
/// alone, `resume_from` whole (replay = whole - restore), `classify` alone.
fn decompose(seed: u64, fi: &[FiKernel], tracer: &mut Tracer, layers: &mut Metrics) {
    let (mut restore, mut replay, mut classify_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut suffix_steps, mut skipped_share, mut n) = (0.0, 0.0, 0usize);
    for k in fi {
        tracer.enter("probe.decompose", k.kernel.name);
        let cfg = &k.cfg;
        let exec = ExecConfig {
            profile: false,
            step_limit: k
                .golden
                .steps
                .saturating_mul(cfg.hang_multiplier)
                .max(10_000),
            ..cfg.exec.clone()
        };
        let interp = Interp::new(&k.kernel.module, exec);
        let store = &k.golden.checkpoints;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEC0);
        let mut state = MachineState::default();
        let mut scratch = ExecScratch::default();
        for _ in 0..DECOMPOSE_SAMPLES {
            let nth = rng.random_range(0..k.golden.profile.injectable_execs);
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: rng.random_range(0..64),
            };
            let t = Instant::now();
            let idx = store.nearest_for_dynamic(nth);
            if let Some(idx) = idx {
                store.restore_into(idx, &mut state);
            }
            let restore_us = t.elapsed().as_nanos() as f64 / 1e3;
            let t = Instant::now();
            let r = match idx {
                Some(idx) => {
                    interp.resume_from(&mut scratch, store, idx, &k.kernel.ref_input, fault)
                }
                None => interp.run_with_fault_in(&mut scratch, &k.kernel.ref_input, fault),
            };
            let whole_us = t.elapsed().as_nanos() as f64 / 1e3;
            let t = Instant::now();
            black_box(classify(&k.golden.output, &r));
            classify_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            restore.push(restore_us);
            replay.push((whole_us - restore_us).max(0.0));
            let skipped = r.resumed_at.unwrap_or(0);
            suffix_steps += r.steps.saturating_sub(skipped) as f64;
            skipped_share += skipped as f64 / r.steps.max(1) as f64;
            n += 1;
        }
        tracer.exit();
    }
    layers.set("interp.restore_us_p50", quantile(&mut restore, 0.50));
    layers.set("interp.restore_us_p99", quantile(&mut restore, 0.99));
    layers.set("interp.replay_us_p50", quantile(&mut replay, 0.50));
    layers.set("interp.replay_us_p99", quantile(&mut replay, 0.99));
    layers.set("interp.replay_steps_mean", suffix_steps / n as f64);
    layers.set("interp.replay_skipped_share", skipped_share / n as f64);
    layers.set("faultsim.classify_us_p50", quantile(&mut classify_us, 0.50));
}
