//! Step-rate probe: per kernel, on its reference input, the steps/sec of
//! each of the five instantiations of the decoded loop — clean; armed (a
//! fault aimed past the end of the trace, so it never fires and the armed
//! loop runs the whole program: what a faulty run pays up to its flip);
//! observed (a profiled fault-free run, what a GA candidate costs);
//! armed-observed (a profiled run with that same fault: what observing
//! cost before it stopped arming); and proving (the loop a faulty run
//! finishes on past the golden run's length, visiting every counted
//! loop's latch from the first step) — with the observed/clean ratio, under
//! a header naming the code-slot size, the loop's dispatch stride; and
//! how much of the run the slotted lowering addresses at
//! decode time — the share of dynamic instructions that are loads or
//! stores, the share that are slot-addressed ones, and the static count
//! behind it. Then, per op kind, what it carries: its static code slots
//! over the suite, its share of the suite's steps and the kernel where
//! that share peaks — the sizing column of a superinstruction's price
//! (EXPERIMENTS.md "The fusion table earns its keep"). The steps are
//! exact, read off the profiled run: walking each function's slots window
//! by window, a window's carrier executes as often as its first
//! instruction and carries its width in steps (`tests/engine_equivalence.rs`
//! holds the sum to the run's steps on every kernel).
use minpsid_interp::{ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput, Run};
use minpsid_ir::InstKind;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one op kind carries over the suite.
#[derive(Default)]
struct OpShare {
    slots: usize,
    steps: u64,
    /// `(share of the kernel's steps, kernel)` where it is largest.
    peak: (f64, &'static str),
}

fn main() {
    println!("code slot: {} B", Interp::code_slot_bytes());
    println!(
        "{:<15} {:>8} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "kernel",
        "steps",
        "mem %",
        "slot %",
        "static",
        "clean M/s",
        "armed M/s",
        "obs M/s",
        "armed-obs",
        "prove M/s",
        "obs/clean"
    );
    let never = FaultSpec {
        target: FaultTarget::NthDynamic(u64::MAX),
        bit: 0,
    };
    let (mut steps_all, mut mem_all, mut slot_all) = (0u64, 0u64, 0u64);
    let mut secs_all = [0f64; 5];
    let mut ops: BTreeMap<&str, OpShare> = BTreeMap::new();
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
        let r = observed.run(&input);
        let p = r.profile.expect("profiled");
        // best of 30: a run is ~100 us, so a handful is all scheduler
        let best_secs = |run: &dyn Fn(&ProgInput)| {
            let mut best = f64::INFINITY;
            for _ in 0..30 {
                let t = Instant::now();
                run(black_box(&input));
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };
        let armed = |interp: &Interp<'_>, i: &ProgInput| {
            interp.run_with_fault_in(&mut ExecScratch::default(), i, never)
        };
        let proving = |i: &ProgInput| {
            let run = Run {
                prove: true,
                ..Run::new(i)
            };
            clean.execute(&mut ExecScratch::default(), &run)
        };
        let secs = [
            best_secs(&|i| drop(black_box(clean.run(i)))),
            best_secs(&|i| drop(black_box(armed(&clean, i)))),
            best_secs(&|i| drop(black_box(observed.run(i)))),
            best_secs(&|i| drop(black_box(armed(&observed, i)))),
            best_secs(&|i| drop(black_box(proving(i)))),
        ];
        let rate = |secs: f64| r.steps as f64 / secs / 1e6;
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
        let pct = |n: u64| 100.0 * n as f64 / r.steps as f64;
        println!(
            "{:<15} {:>8} {:>7.1} {:>7.1} {:>9} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.2}",
            b.name,
            r.steps,
            pct(mem),
            pct(slot),
            format!("{slotted}/{all}"),
            rate(secs[0]),
            rate(secs[1]),
            rate(secs[2]),
            rate(secs[3]),
            rate(secs[4]),
            secs[0] / secs[2]
        );
        for (all, s) in secs_all.iter_mut().zip(secs) {
            *all += s;
        }
        steps_all += r.steps;
        mem_all += mem;
        slot_all += slot;

        let mut carried: BTreeMap<&str, u64> = BTreeMap::new();
        for slots in clean.op_names() {
            let mut pc = 0;
            while pc < slots.len() {
                let (name, width, dense) = slots[pc];
                *carried.entry(name).or_default() += width as u64 * p.inst_counts[dense];
                pc += width;
            }
            for (name, ..) in slots {
                ops.entry(name).or_default().slots += 1;
            }
        }
        for (name, n) in carried.into_iter().filter(|&(_, n)| n > 0) {
            let op = ops.entry(name).or_default();
            op.steps += n;
            let share = n as f64 / r.steps as f64;
            if share > op.peak.0 {
                op.peak = (share, b.name);
            }
        }
    }
    let [clean, armed, obs, armed_obs, prove] = secs_all.map(|s| steps_all as f64 / s / 1e6);
    println!(
        "suite: {steps_all} steps, {:.1} % loads/stores, {:.1} % slot-addressed; \
         clean {clean:.1} M/s, armed {armed:.1} M/s, observed {obs:.1} M/s ({:.2}x clean), \
         armed-observed {armed_obs:.1} M/s, proving {prove:.1} M/s",
        100.0 * mem_all as f64 / steps_all as f64,
        100.0 * slot_all as f64 / steps_all as f64,
        obs / clean
    );

    println!("\n{:<15} {:>6} {:>8}   peak", "op", "slots", "steps %");
    let mut ops: Vec<_> = ops.into_iter().collect();
    ops.sort_by_key(|(_, op)| std::cmp::Reverse(op.steps));
    for (name, op) in ops.into_iter().filter(|(_, op)| op.steps > 0) {
        println!(
            "{name:<15} {:>6} {:>8.2}   {:.1} % of {}",
            op.slots,
            100.0 * op.steps as f64 / steps_all as f64,
            100.0 * op.peak.0,
            op.peak.1
        );
    }
}
