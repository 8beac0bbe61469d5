//! `pipeline_suite` and `search_heavy`: `run_minpsid_cached` with a fresh
//! cache, no journal and no store, on all 11 kernels. The two differ only
//! in the configuration, which puts the time in per-instruction FI for the
//! first and in the GA's candidate profiling for the second.

use crate::pipeline::{
    cached_pass, call_seconds, check_pass, load_kernels, minpsid_config, pass_injections, Call,
    Kernel, Mix,
};
use crate::report::KERNELS;
use crate::staged::staged_minpsid;
use crate::{Budget, Run, Scale, StagedTotals};
use minpsid::GoldenCache;
use minpsid_faultsim::{golden_run, CampaignEngine};
use std::time::Instant;

pub fn run(mix: Mix, seed: u64, scale: &Scale, budget: &Budget, run: &mut Run) {
    let (setup_s, kernels) = scale.repeat_setup(|_| load_kernels(&KERNELS), drop);
    run.e2e.set("setup_s", setup_s);
    let cfg = minpsid_config(mix, seed, scale);

    let mut digests = vec![None; kernels.len()];
    let mut passes = Vec::new();
    let mut first_pass: Vec<Call> = Vec::new();
    let mut injections = 0;
    let started = Instant::now();
    while budget.another_pass(started, &passes) {
        let calls = cached_pass(&kernels, &cfg);
        passes.push(call_seconds(&calls));
        injections = pass_injections(&calls);
        check_pass(&kernels, &calls, &mut digests, &mut run.ledger);
        if first_pass.is_empty() {
            first_pass = calls;
        }
    }
    run.set_wall(&passes, injections);

    if !run.tracer.enabled() {
        return;
    }
    crate::set_pass_timings(&first_pass, &kernels, &mut run.layers);
    let from_ns = run.tracer.now_ns();
    let t = Instant::now();
    let mut totals = StagedTotals::default();
    let mut staged = Vec::new();
    for k in &kernels {
        let cache = GoldenCache::new();
        let s = staged_minpsid(&mut run.tracer, k, &cfg, &cache, None);
        staged.push((s, cache));
    }
    let staged_s = t.elapsed().as_secs_f64();
    for ((k, (s, cache)), digest) in kernels.iter().zip(staged).zip(&digests) {
        totals.record(k, s, *digest, &cache, run);
    }
    totals.finish(&run.tracer, &mut run.layers);
    let refs: Vec<&Kernel> = kernels.iter().collect();
    crate::probes::interp_layers(&refs, &cfg.campaign, &mut run.tracer, &mut run.layers);
    crate::set_trace_quality(run, from_ns, staged_s, passes[0].iter().sum());
    if mix == Mix::FiHeavy {
        parallel_speedup(&kernels, &cfg.campaign);
    }
}

/// `run_per_instruction` on hpccg's reference input at 2 threads against
/// 1: a guard that the parallel executor still scales, printed with the
/// run's header. A host with one core cannot measure it, so it is left
/// out there — not reported as zero — and it is not a contract metric.
fn parallel_speedup(kernels: &[Kernel], cfg: &minpsid_faultsim::CampaignConfig) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("# faultsim.parallel_speedup_2t omitted: {cores} core");
        return;
    }
    let k = kernels
        .iter()
        .find(|k| k.name == "hpccg")
        .expect("hpccg is in the suite");
    let golden = golden_run(&k.module, &k.ref_input, cfg).expect("reference input exits");
    let time = |threads: usize| {
        let mut cfg = cfg.clone();
        cfg.threads = threads;
        let t = Instant::now();
        CampaignEngine::new(&k.module, &k.ref_input, &golden, &cfg)
            .run_per_instruction()
            .expect("no journal, no interrupt");
        t.elapsed().as_secs_f64()
    };
    time(1); // warm the caches both timed runs then share
    let (one, two) = (time(1), time(2));
    println!(
        "# faultsim.parallel_speedup_2t {:.3} ratio ({one:.3} s at 1 thread / {two:.3} s at 2, {cores} cores)",
        one / two
    );
}
