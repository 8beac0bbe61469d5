//! Step-rate probe: per kernel, on its reference input, the clean and the
//! observed (profiling) loop's steps/sec, and how much of the run the
//! slotted lowering addresses at decode time — the share of dynamic
//! instructions that are loads or stores, the share that are
//! slot-addressed ones, and the static count behind it.
use minpsid_interp::{ExecConfig, Interp};
use minpsid_ir::InstKind;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    println!(
        "{:<15} {:>8} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "kernel", "steps", "mem %", "slot %", "static", "clean M/s", "obs M/s"
    );
    let (mut steps_all, mut mem_all, mut slot_all) = (0u64, 0u64, 0u64);
    for b in minpsid_workloads::suite() {
        let module = b.compile();
        let input = b.model.materialize(&b.model.reference());
        let [clean, observed] = [false, true].map(|profile| {
            Interp::new(
                &module,
                ExecConfig {
                    profile,
                    ..ExecConfig::default()
                },
            )
        });
        let p = observed.run(&input).profile.expect("profiled");
        let rate = |interp: &Interp| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                black_box(interp.run(black_box(&input)));
                best = best.min(t.elapsed().as_secs_f64());
            }
            p.total_insts as f64 / best / 1e6
        };
        let (mut mem, mut slot) = (0u64, 0u64);
        for ((_, inst), (dense, &n)) in module.iter_insts().zip(p.inst_counts.iter().enumerate()) {
            if matches!(inst.kind, InstKind::Load { .. } | InstKind::Store { .. }) {
                mem += n;
                if clean.slot_addressed(dense) {
                    slot += n;
                }
            }
        }
        let (slotted, all) = clean.slot_coverage();
        let pct = |n: u64| 100.0 * n as f64 / p.total_insts as f64;
        println!(
            "{:<15} {:>8} {:>7.1} {:>7.1} {:>9} {:>9.1} {:>9.1}",
            b.name,
            p.total_insts,
            pct(mem),
            pct(slot),
            format!("{slotted}/{all}"),
            rate(&clean),
            rate(&observed)
        );
        steps_all += p.total_insts;
        mem_all += mem;
        slot_all += slot;
    }
    println!(
        "suite: {steps_all} steps, {:.1} % loads/stores, {:.1} % slot-addressed",
        100.0 * mem_all as f64 / steps_all as f64,
        100.0 * slot_all as f64 / steps_all as f64
    );
}
