//! How often does a faulty run fall back onto the golden run — and how
//! much replay does stopping there save?
//!
//! For every kernel of the suite, injects a deterministic sample of
//! whole-program faults through the checkpointed path (`Interp::execute`
//! beside the golden run's checkpoints, exactly what a campaign's `inject`
//! calls), leaves out the runs no checkpoint precedes, and tabulates, per
//! outcome, the share of runs that were finished early
//! because their state equalled the golden run's at a checkpoint
//! (DESIGN.md §6, "Golden-convergence early exit"), next to the steps
//! executed and the tail steps left unreplayed. This is the per-kernel
//! table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example golden_convergence [faults-per-kernel]
//! ```

use minpsid_repro::faultsim::{classify, faulty_exec_config, golden_run, CampaignConfig, Outcome};
use minpsid_repro::interp::{ExecScratch, FaultSpec, FaultTarget, Interp, Run, Start};
use minpsid_repro::workloads;

fn main() {
    let faults: u64 = std::env::args()
        .nth(1)
        .map(|v| v.parse().expect("faults-per-kernel is a count"))
        .unwrap_or(2000);
    let cfg = CampaignConfig::default();
    println!(
        "{:<15} {:>7} {:>11} {:>7} {:>11} {:>12} {:>12} {:>7}",
        "kernel", "benign", "converged", "sdc", "converged", "executed", "saved", "saved"
    );
    for b in workloads::suite() {
        let module = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let golden = golden_run(&module, &input, &cfg).expect("reference input exits");
        let interp = Interp::new(&module, faulty_exec_config(&cfg, golden.steps));
        let mut scratch = ExecScratch::default();
        let population = golden.profile.injectable_execs;

        // (runs, converged) per outcome; steps executed and saved overall
        let (mut benign, mut sdc) = ((0u64, 0u64), (0u64, 0u64));
        let (mut executed, mut saved) = (0u64, 0u64);
        for i in 0..faults {
            let nth = i * population / faults;
            let fault = FaultSpec {
                target: FaultTarget::NthDynamic(nth),
                bit: (i * 7 % 64) as u32,
            };
            let run = Run {
                fault: Some(fault),
                start: Start::Beside(&golden.checkpoints),
                ..Run::new(&input)
            };
            let r = interp.execute(&mut scratch, &run);
            let Some(resumed_at) = r.resumed_at else {
                scratch.recycle_output(r.output);
                continue; // before the first checkpoint: a cold run
            };
            let tally = match classify(&golden.output, &r) {
                Outcome::Benign => Some(&mut benign),
                Outcome::Sdc => Some(&mut sdc),
                _ => None,
            };
            if let Some((runs, converged)) = tally {
                *runs += 1;
                *converged += u64::from(r.converged_at.is_some());
            }
            executed += r.converged_at.unwrap_or(r.steps) - resumed_at;
            saved += r.converged_at.map_or(0, |at| r.steps - at);
            scratch.recycle_output(r.output);
        }
        let share = |(runs, converged): (u64, u64)| 100.0 * converged as f64 / runs.max(1) as f64;
        println!(
            "{:<15} {:>7} {:>10.1}% {:>7} {:>10.1}% {:>12} {:>12} {:>6.1}%",
            b.name,
            benign.0,
            share(benign),
            sdc.0,
            share(sdc),
            executed,
            saved,
            100.0 * saved as f64 / (executed + saved).max(1) as f64
        );
    }
}
