//! Quick step-rate probe: the clean and the observed (profiling) loop's
//! steps/sec on hpccg's reference input.
use minpsid_interp::{ExecConfig, Interp};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let b = minpsid_workloads::by_name("hpccg").unwrap();
    let module = b.compile();
    let input = b.model.materialize(&b.model.reference());
    for (name, profile) in [("clean   ", false), ("observed", true)] {
        let interp = Interp::new(
            &module,
            ExecConfig {
                profile,
                ..ExecConfig::default()
            },
        );
        let steps = interp.run(&input).steps;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            black_box(interp.run(black_box(&input)));
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{name}: {:.2} ns/step  ({:.1} Msteps/s, {steps} steps)",
            best * 1e9 / steps as f64,
            steps as f64 / best / 1e6
        );
    }
}
