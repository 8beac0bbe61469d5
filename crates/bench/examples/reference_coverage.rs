//! Measured against expected coverage on the reference input: per kernel
//! and protection level, the baseline selection's measured coverage on the
//! reference input (its share of the SDC faults of one whole-program
//! campaign on the original program) next to the coverage SID promises,
//! and whether that promise lies inside the 95 % Wilson interval of the
//! tally. Reported, not gated: a 95 % interval misses about one time in
//! 20 by design. `by exec` is the promise re-weighted by dynamic
//! executions instead of cycles: a campaign's faults fall on executions,
//! while Eq. 2's benefit weights a site's SDC probability by its cycles.
//!
//! ```text
//! cargo run --release -p minpsid-bench --example reference_coverage -- [tiny|small|paper] [seed]
//! ```
use minpsid::{reference_profile, GoldenCache};
use minpsid_bench::Preset;
use minpsid_faultsim::{binomial_ci, Z};
use minpsid_sid::knapsack::selection_weight;
use minpsid_sid::{measure_unprotected, select};

fn main() {
    let mut args = std::env::args().skip(1);
    let preset = args
        .next()
        .map(|p| Preset::parse(&p).expect("a preset: tiny, small or paper"))
        .unwrap_or(Preset::Tiny);
    let seed = args.next().map_or(42, |s| s.parse().expect("a seed"));
    let levels = [0.3, 0.5, 0.7];
    println!("preset {preset:?}, seed {seed}, reference inputs");
    println!(
        "{:<15} {:>5} | {:>8} {:>8} {:>8} {:>17} {:>5} | inside",
        "benchmark", "level", "expected", "by exec", "measured", "95% Wilson", "SDCs"
    );
    let mut inside = [0usize; 3];
    let kernels = minpsid_workloads::suite();
    for b in &kernels {
        let module = b.compile();
        let cfg = preset.minpsid_config(0.5, seed);
        let reference = reference_profile(&module, b.model.as_ref(), &cfg, &GoldenCache::new())
            .unwrap_or_else(|t| panic!("{}: reference input failed: {t:?}", b.name));
        let input = b.model.materialize(&b.model.reference());
        let measured = measure_unprotected(&module, &input, &preset.campaign(seed))
            .unwrap_or_else(|t| panic!("{}: reference input failed: {t:?}", b.name));
        let sdcs: u64 = measured.site_sdc.iter().sum();
        let cb = &reference.cb;
        let by_exec: Vec<f64> = (cb.dyn_counts.iter().zip(&cb.sdc_prob))
            .map(|(&n, &p)| n as f64 * p)
            .collect();
        let total_by_exec: f64 = by_exec.iter().sum();
        for (li, &level) in levels.iter().enumerate() {
            let (selection, expected) = select(&module, &reference.cb, level, false);
            let ci = binomial_ci(selection_weight(&measured.site_sdc, &selection), sdcs, Z);
            let hit = ci.lo <= expected && expected <= ci.hi;
            inside[li] += usize::from(hit);
            let selected_by_exec: f64 = (by_exec.iter().zip(&selection))
                .filter(|(_, &s)| s)
                .map(|(w, _)| w)
                .sum();
            println!(
                "{:<15} {:>4.0}% | {:>7.2}% {:>7.2}% {:>7.2}% [{:>6.2}, {:>6.2}]% {:>5} | {}",
                b.name,
                level * 100.0,
                expected * 100.0,
                selected_by_exec / total_by_exec.max(f64::MIN_POSITIVE) * 100.0,
                measured.coverage(&selection) * 100.0,
                ci.lo * 100.0,
                ci.hi * 100.0,
                sdcs,
                if hit { "yes" } else { "no" }
            );
        }
    }
    println!();
    for (li, &level) in levels.iter().enumerate() {
        println!(
            "{:.0}% level: expected coverage inside the interval on {} of {} kernels",
            level * 100.0,
            inside[li],
            kernels.len()
        );
    }
}
