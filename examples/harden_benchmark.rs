//! End-to-end hardening of a real workload: run baseline SID and MINPSID
//! on the Kmeans benchmark (the paper's most extreme coverage-loss case)
//! and compare their worst-case coverage over random inputs.
//!
//! ```text
//! cargo run --release --example harden_benchmark [bench-name]
//! ```

use minpsid_repro::faultsim::CampaignConfigBuilder;
use minpsid_repro::minpsid::{
    reference_profile, run_minpsid_from, GaConfig, GoldenCache, MinpsidConfig, SearchStrategy,
};
use minpsid_repro::sid::{measure_unprotected, select_and_protect};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "kmeans".into());
    let bench = minpsid_repro::workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let module = bench.compile();
    println!(
        "hardening `{}` ({} static instructions)",
        bench.name,
        module.num_insts()
    );

    let cfg = MinpsidConfig {
        protection_level: 0.5,
        campaign: CampaignConfigBuilder::new(5)
            .injections(300)
            .and_then(|b| b.per_inst_injections(15))
            .expect("positive campaign sizes")
            .build(),
        ga: GaConfig {
            population: 8,
            max_generations: 5,
            seed: 17,
            ..GaConfig::default()
        },
        max_inputs: 8,
        stagnation_patience: 2,
        strategy: SearchStrategy::Genetic,
        use_dp: false,
        ..MinpsidConfig::default()
    };

    println!("running baseline SID (reference input only) ...");
    let reference =
        reference_profile(&module, bench.model.as_ref(), &cfg, &GoldenCache::new()).unwrap();
    let (baseline, expected, _, meta) =
        select_and_protect(&module, &reference.cb, cfg.protection_level, cfg.use_dp);
    println!(
        "  expected coverage {:.1}%, {} duplicates",
        expected * 100.0,
        meta.num_dups
    );

    println!("running MINPSID (GA input search + re-prioritization), extending that profile ...");
    let hardened = run_minpsid_from(&module, bench.model.as_ref(), &cfg, &reference).unwrap();
    println!(
        "  searched {} inputs, found {} incubative instructions, expected coverage {:.1}%",
        hardened.inputs_searched,
        hardened.incubative.len(),
        hardened.expected_coverage * 100.0
    );

    println!("\nevaluating both over 8 random inputs, one campaign on the original program each");
    println!("(in parentheses: the paper's convention, over the protected program's population):");
    println!("{:>4} {:>22} {:>22}", "#", "baseline cov", "minpsid cov");
    let mut rng = StdRng::seed_from_u64(99);
    let mut base_min = f64::INFINITY;
    let mut hard_min = f64::INFINITY;
    let mut shown = 0;
    while shown < 8 {
        let params = bench.model.random(&mut rng);
        let input = bench.model.materialize(&params);
        let Ok(measured) = measure_unprotected(&module, &input, &cfg.campaign) else {
            continue;
        };
        let (b, h) = (&baseline, &hardened.selection);
        let (bc, hc) = (measured.coverage(b), measured.coverage(h));
        shown += 1;
        println!(
            "{:>4} {:>12.1}% ({:>5.1}%) {:>12.1}% ({:>5.1}%)",
            shown,
            bc * 100.0,
            measured.paper_coverage(b) * 100.0,
            hc * 100.0,
            measured.paper_coverage(h) * 100.0
        );
        base_min = base_min.min(bc);
        hard_min = hard_min.min(hc);
    }
    println!(
        "\nworst case: baseline {:.1}% vs MINPSID {:.1}%",
        base_min * 100.0,
        hard_min * 100.0
    );
}
