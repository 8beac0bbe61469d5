//! The sampling profiler's state is process-global, so the test that
//! reads exact totals out of it has a process to itself: as a unit test
//! it shared one with 45 others that decode modules and run programs on
//! parallel threads, and now and then one of them landed between its
//! writes and its snapshot. Here the state is driven through the hooks
//! the interpreter really calls — a decode, a run, a capture, a restore.

use minpsid_interp::opprof::{
    disable, enable, enabled, reset, snapshot, DEFAULT_SAMPLE_EVERY, FIRST_FUSED, NUM_OPS,
};
use minpsid_interp::{
    CheckpointConfig, ExecConfig, ExecScratch, FaultSpec, FaultTarget, Interp, ProgInput,
};

#[test]
fn sampling_accumulates_and_folds() {
    reset();
    assert!(!enabled());
    enable(0);
    assert_eq!(snapshot().sample_every, DEFAULT_SAMPLE_EVERY);
    enable(256);
    assert_eq!(snapshot().sample_every, 256);

    // a loop long enough for a few dozen samples, on fused pairs and on
    // ops nothing fuses (the call and the return)
    let m = minic::compile(
        "fn id(x: int) -> int { return x; }\n\
         fn main() {\n let buf: [int] = alloc(8);\n let s = 0;\n\
         for i = 0 to 2000 { buf[i % 8] = id(i); s = s + buf[(i + 3) % 8]; }\n out_i(s);\n}\n",
        "opprof",
    )
    .unwrap();
    let interp = Interp::new(&m, ExecConfig::default());
    let input = ProgInput::default();

    // the decode left its static stats
    let snap = snapshot();
    assert!(snap.fused_sites > 0 && snap.fused_sites < snap.total_sites);
    let (slotted, all) = interp.slot_coverage();
    assert_eq!(
        (snap.slot_halves, snap.mem_halves),
        (slotted as u64, all as u64)
    );
    assert_eq!(snap.total_samples, 0);

    // one sample per 256 steps of every run, split by op
    let golden = interp.run(&input);
    assert!(golden.exited());
    let per_run = golden.steps / 256;
    assert!(per_run >= 20, "{} steps", golden.steps);
    let snap = snapshot();
    assert_eq!(snap.total_samples, per_run);
    assert!(snap.fused_samples > 0 && snap.fused_samples < snap.total_samples);
    assert!((snap.fused_sample_rate() - snap.fused_samples as f64 / per_run as f64).abs() < 1e-12);
    assert_eq!(
        snap.samples.iter().map(|(_, n)| n).sum::<u64>(),
        per_run,
        "nonzero entries only, and all of them"
    );
    assert!(snap.samples.windows(2).all(|w| w[0].1 >= w[1].1));
    assert!(snap.samples.len() <= NUM_OPS && FIRST_FUSED < NUM_OPS);
    let folded = snap.folded();
    assert_eq!(folded.lines().count(), snap.samples.len());
    let (name, n) = &snap.samples[0];
    assert!(folded.starts_with(&format!("minpsid;interp;{name} {n}\n")));

    // every capture is one encode, every resume one restore
    let ckpt = CheckpointConfig {
        interval: 1000,
        ..CheckpointConfig::default()
    };
    let (_, store) = interp.run_with_checkpoint_store(&input, ckpt);
    assert!(store.len() >= 5);
    let never = FaultSpec {
        target: FaultTarget::NthDynamic(u64::MAX),
        bit: 0,
    };
    let mut scratch = ExecScratch::default();
    for idx in [0, store.len() - 1] {
        assert!(interp
            .resume_from(&mut scratch, &store, idx, &input, never)
            .exited());
    }
    let snap = snapshot();
    assert_eq!(snap.encode_ops, store.len() as u64);
    assert_eq!(snap.restore_ops, 2);
    assert!(snap.encode_ns > 0 && snap.restore_ns > 0);

    disable();
    assert!(!enabled());
    let kept = snapshot().total_samples;
    interp.run(&input);
    assert_eq!(snapshot().total_samples, kept, "off: no more samples");
    reset();
    assert_eq!(snapshot().total_samples, 0);
    assert_eq!(snapshot().encode_ops, 0);
}
