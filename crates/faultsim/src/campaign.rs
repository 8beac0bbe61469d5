//! Campaign configuration, golden runs, result types and the two
//! convenience entry points.
//!
//! The orchestration core lives in [`crate::engine`]: every campaign —
//! plain, deadline-scheduled, journaled, traced, at any thread count —
//! executes through one [`CampaignEngine`] plan/execute/reduce pipeline.
//! This module keeps what surrounds it: [`CampaignConfig`] (the knobs),
//! [`golden_run`] (the fault-free reference execution and its checkpoint
//! store), the result types ([`ProgramCampaign`], [`PerInstSdc`]) and the
//! two thin wrappers ([`program_campaign`], [`per_instruction_campaign`])
//! for callers that want a default-policy campaign in one call.
//!
//! ## Checkpointed injection
//!
//! Faulty runs are bit-identical to the golden run up to the injection
//! point, so [`golden_run`] captures a [`CheckpointStore`] of snapshots
//! and each injection restores the nearest snapshot at or before its
//! target and executes only the suffix. With an interval near
//! sqrt(golden_steps) this cuts the replayed prefix from O(steps) to
//! O(sqrt(steps)) per injection on average, which is where campaigns
//! spend nearly all their time. Results are bit-identical to cold runs:
//! the same `OutcomeCounts` for the same seed with checkpointing on, off,
//! or at any interval.

use crate::engine::CampaignEngine;
use crate::outcome::OutcomeCounts;
use crate::parallel::default_threads;
use minpsid_interp::{
    auto_interval, CheckpointConfig, CheckpointStore, ExecConfig, ExecScratch, Interp, Output,
    Profile, ProgInput, Run, SnapshotMode, Termination,
};
use minpsid_ir::bytes::Fnv;
use minpsid_ir::Module;
use minpsid_sched::{BinomialCi, SchedConfig, SiteStatus};
use minpsid_trace as trace;
use minpsid_trace::CampaignKind;
use std::time::Duration;

/// How often the sampler thread publishes `campaign_progress` events.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::from_millis(50);

/// When and how densely the golden run snapshots its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Interval tuned to ~sqrt(golden_steps), capped so at most
    /// [`CampaignConfig::max_checkpoints`] snapshots are taken.
    #[default]
    Auto,
    /// Fixed interval in dynamic instructions.
    Every(u64),
    /// No snapshots; every injection replays from scratch.
    Disabled,
}

/// Campaign parameters (defaults follow §III-A3 of the paper).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Whole-program campaign size (paper: 1000).
    pub injections: usize,
    /// Per-static-instruction campaign size (paper: 100).
    pub per_inst_injections: usize,
    /// RNG seed; campaigns are fully deterministic given the seed.
    pub seed: u64,
    /// Worker threads (the paper farms FI out over 160 cores).
    pub threads: usize,
    /// Hang threshold as a multiple of the golden run's dynamic steps.
    pub hang_multiplier: u64,
    /// Base interpreter limits for faulty runs.
    pub exec: ExecConfig,
    /// Golden-run snapshot policy.
    pub checkpoints: CheckpointPolicy,
    /// Snapshot count cap under [`CheckpointPolicy::Auto`].
    pub max_checkpoints: u64,
    /// Total snapshot memory budget; exceeding it thins the store.
    pub checkpoint_mem_budget: usize,
    /// Full snapshots or delta chains (see [`SnapshotMode`]). Campaigns
    /// run delta: same restore semantics, ~5-10x less memory per
    /// checkpoint, so density can rise inside the same budget. No flag
    /// sets it; `Full` is the reference encoding tests compare against.
    pub snapshot_mode: SnapshotMode,
    /// Delta mode: full keyframe every this many stored checkpoints.
    pub keyframe_every: u32,
    /// Holds nothing; [`CampaignConfig::key`] hashes its retired knobs as
    /// a literal. Kept because `benchmark/` reads it and may not change
    /// here (ROADMAP 4(b)). The wall-clock deadline is *not* a config
    /// value — it lives on the [`Scheduler`](minpsid_sched::Scheduler) so
    /// a resumed run may get a fresh budget.
    pub sched: SchedConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 1000,
            per_inst_injections: 100,
            seed: 42,
            threads: default_threads(),
            hang_multiplier: 10,
            exec: ExecConfig::default(),
            checkpoints: CheckpointPolicy::Auto,
            max_checkpoints: 512,
            checkpoint_mem_budget: 256 << 20,
            snapshot_mode: SnapshotMode::Delta,
            keyframe_every: 16,
            sched: SchedConfig::default(),
        }
    }
}

/// The keys a [`CampaignConfig`] enters. Each lets a later run reuse
/// work, so each must cover exactly what determines that work's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigKey {
    /// A golden run's store ref (`config_fingerprint`), and through it a
    /// `fi` journal's header ([`fi_journal_key`]).
    Golden,
    /// A MINPSID journal's header, inside `MinpsidConfig`'s key.
    Journal,
    /// A sealed section table's signature ([`crate::table_sig`]).
    Table(CampaignKind),
}

/// What the keys hashed for [`CampaignConfig::sched`]: the `Debug` text
/// of its retired retry, quarantine and early-stop knobs at the values
/// every journal and sealed table written before their removal holds.
const RETIRED_SCHED: &str =
    "SchedConfig { max_retries: 2, backoff_base_ms: 1, backoff_cap_ms: 50, \
     quarantine_after: 2, quarantine_cap: 64, ci_half_width: 0.0, ci_z: 1.96 }";

impl CampaignConfig {
    /// Scaled-down preset for tests and tiny experiments.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            injections: 120,
            per_inst_injections: 20,
            seed,
            ..CampaignConfig::default()
        }
    }

    /// Feed this config to one of its keys. The destructure decides, per
    /// field, which keys it enters, so a field added to the struct does
    /// not compile until that is decided. The bytes are those each key
    /// hashed when it was built from `Debug` text, so no journal, store
    /// or table written before moves.
    pub fn key(&self, of: ConfigKey, h: &mut Fnv) {
        let CampaignConfig {
            // journal, table, fi: another seed draws other faults
            seed,
            // journal, fi. Not table: program tables are served per unit,
            // so a plan that grew executes only its tail
            injections,
            // journal, per-instruction table. Not fi: a whole-program
            // campaign does not read it
            per_inst_injections,
            // journal, as 0: campaigns are thread-count invariant, and a
            // journal must resume on another machine
            threads: _,
            // journal, table. Not fi, which no front end runs under
            // another value
            hang_multiplier,
            // every key
            exec,
            // golden (so fi), journal: they shape the golden run's
            // checkpoint store. Not table: checkpointed and cold
            // injections are bit-identical
            checkpoints,
            max_checkpoints,
            checkpoint_mem_budget,
            snapshot_mode,
            keyframe_every,
            // holds nothing: journal and table hash RETIRED_SCHED for it
            sched: _,
        } = self;
        let checkpoints = |h: &mut Fnv| match checkpoints {
            CheckpointPolicy::Auto => h.bytes(b"Auto"),
            CheckpointPolicy::Every(n) => h.text(format_args!("Every({n:?})")),
            CheckpointPolicy::Disabled => h.bytes(b"Disabled"),
        };
        let snapshot_mode = match snapshot_mode {
            SnapshotMode::Full => "Full",
            SnapshotMode::Delta => "Delta",
        };
        match of {
            ConfigKey::Golden => {
                exec.key(h);
                h.bytes(b"|");
                checkpoints(h);
                h.text(format_args!(
                    "|{max_checkpoints}|{checkpoint_mem_budget}|{snapshot_mode}|{keyframe_every}"
                ));
            }
            ConfigKey::Journal => {
                h.text(format_args!(
                    "CampaignConfig {{ injections: {injections:?}, \
                     per_inst_injections: {per_inst_injections:?}, seed: {seed:?}, threads: 0, \
                     hang_multiplier: {hang_multiplier:?}, exec: "
                ));
                exec.key(h);
                h.bytes(b", checkpoints: ");
                checkpoints(h);
                // the two retired fault-the-harness knobs, at the one value
                // a real run ever held
                h.text(format_args!(
                    ", max_checkpoints: {max_checkpoints:?}, \
                     checkpoint_mem_budget: {checkpoint_mem_budget:?}, \
                     snapshot_mode: {snapshot_mode}, keyframe_every: {keyframe_every:?}, \
                     chaos_panic_one_in: None, chaos_timeout_one_in: None, \
                     sched: {RETIRED_SCHED} }}"
                ));
            }
            ConfigKey::Table(kind) => {
                h.u64(*seed);
                h.u64(*hang_multiplier);
                if kind == CampaignKind::PerInst {
                    h.u64(*per_inst_injections as u64);
                }
                exec.key(h);
                h.bytes(RETIRED_SCHED.as_bytes());
            }
        }
    }
}

/// A `fi` journal's key: the golden key, with the seed and the plan size
/// mixed into the finished hash, since a whole-program campaign's
/// outcomes depend on both — resuming with another seed must open
/// another key, not serve another campaign's outcomes. Which fields
/// enter is decided in [`CampaignConfig::key`]'s destructure.
pub fn fi_journal_key(cfg: &CampaignConfig) -> u64 {
    let mut h = Fnv::new();
    cfg.key(ConfigKey::Golden, &mut h);
    h.finish()
        ^ cfg.seed.rotate_left(17)
        ^ (cfg.injections as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fault-free reference execution of (module, input).
#[derive(Debug, Clone)]
pub struct GoldenRun {
    pub output: Output,
    pub profile: Profile,
    pub steps: u64,
    /// Snapshots for resume-from-checkpoint injection; empty when
    /// checkpointing is disabled.
    pub checkpoints: CheckpointStore,
}

impl GoldenRun {
    /// Wire-encode the verdict surface (output, profile, steps) — the
    /// store's `golden` artifact class.
    pub fn encode_meta(&self) -> Vec<u8> {
        minpsid_interp::wire::encode_golden(&self.output, &self.profile, self.steps)
    }

    /// Wire-encode the checkpoint store — the store's `ckpt` artifact
    /// class, persisted separately because it dwarfs the meta and is
    /// independently corruptible.
    pub fn encode_checkpoints(&self) -> Vec<u8> {
        minpsid_interp::wire::encode_checkpoints(&self.checkpoints)
    }

    /// Rebuild a golden run from its two wire images, for campaigns under
    /// `exec`'s limits. Checked end to end: malformed bytes produce an
    /// error, never a panic, and no checkpoint may record more memory
    /// than `exec.mem_limit` lets a run allocate.
    pub fn decode(
        meta: &[u8],
        ckpt: &[u8],
        exec: &ExecConfig,
    ) -> Result<GoldenRun, minpsid_interp::wire::WireError> {
        let (output, profile, steps) = minpsid_interp::wire::decode_golden(meta)?;
        let mut checkpoints =
            minpsid_interp::wire::decode_checkpoints_within(ckpt, exec.mem_limit)?;
        // a golden run exited normally by construction; the entry
        // function's return value is not part of the meta image
        checkpoints.attach_tail(output.clone(), steps, None);
        Ok(GoldenRun {
            output,
            profile,
            steps,
            checkpoints,
        })
    }
}

/// Execute the golden (fault-free, profiled) run and, unless disabled,
/// capture its checkpoint store. Fails if the program does not exit
/// cleanly — campaign inputs must be error-free, matching the paper's
/// input-generation rule §III-A2.
///
/// One observed pass on one interpreter yields the profile, the
/// checkpoint store and the run's ending together. Under
/// [`CheckpointPolicy::Auto`] the capture interval is a function of the
/// run's length, which nothing knows before the run: an unobserved sizing
/// pass (the bare decoded loop) measures it first. A caller that has
/// already run this input under these limits skips that pass with
/// [`golden_run_sized`].
pub fn golden_run(
    module: &Module,
    input: &ProgInput,
    cfg: &CampaignConfig,
) -> Result<GoldenRun, Termination> {
    golden_run_sized(module, input, cfg, None)
}

/// [`golden_run`] for a caller that may already know the run's length:
/// `steps` is what an earlier fault-free run of `(module, input)` under
/// `cfg.exec`'s limits took (the input search's profile run of the input
/// it accepted), and stands in for the sizing pass of
/// [`CheckpointPolicy::Auto`]. It is a hint, checked against the captured
/// run: when that run's length disagrees, capture is redone at the
/// interval the true length sets, so the result never depends on it.
pub fn golden_run_sized(
    module: &Module,
    input: &ProgInput,
    cfg: &CampaignConfig,
    steps: Option<u64>,
) -> Result<GoldenRun, Termination> {
    let _span = trace::span("golden_run");
    let exec = ExecConfig {
        profile: true,
        ..cfg.exec.clone()
    };
    let interp = Interp::new(module, exec);
    let capture = |interval: u64| {
        let _span = trace::span("checkpoint_capture");
        let ck_cfg = CheckpointConfig {
            interval,
            mem_budget_bytes: cfg.checkpoint_mem_budget,
            mode: cfg.snapshot_mode,
            keyframe_every: cfg.keyframe_every,
        };
        interp.run_with_checkpoint_store(input, ck_cfg)
    };
    let (r, checkpoints) = match cfg.checkpoints {
        CheckpointPolicy::Auto => {
            let steps = match steps {
                Some(steps) => steps,
                None => {
                    let sizing = interp.execute(
                        &mut ExecScratch::default(),
                        &Run {
                            observe: false,
                            ..Run::new(input)
                        },
                    );
                    if sizing.termination != Termination::Exit {
                        return Err(sizing.termination);
                    }
                    sizing.steps
                }
            };
            let captured = capture(auto_interval(steps, cfg.max_checkpoints));
            if captured.0.termination == Termination::Exit && captured.0.steps != steps {
                capture(auto_interval(captured.0.steps, cfg.max_checkpoints))
            } else {
                captured
            }
        }
        CheckpointPolicy::Every(n) => capture(n.max(1)),
        CheckpointPolicy::Disabled => (interp.run(input), CheckpointStore::default()),
    };
    if r.termination != Termination::Exit {
        return Err(r.termination);
    }

    Ok(GoldenRun {
        output: r.output,
        profile: r.profile.expect("profiling was enabled"),
        steps: r.steps,
        checkpoints,
    })
}

/// Result of a whole-program campaign.
#[derive(Debug, Clone)]
pub struct ProgramCampaign {
    pub counts: OutcomeCounts,
    /// SDC outcomes by the static instruction each fault hit (dense in
    /// module numbering order).
    pub site_sdc: Vec<u64>,
    /// Wilson interval on the SDC probability (at [`Z`](minpsid_sched::Z)).
    pub sdc_ci: BinomialCi,
    /// Injections the campaign intended to run.
    pub planned: u64,
    /// Injections dropped because the wall-clock deadline expired.
    pub truncated: u64,
}

impl ProgramCampaign {
    pub fn sdc_prob(&self) -> f64 {
        self.counts.sdc_prob()
    }
}

/// Per-static-instruction SDC profile (dense in module numbering order).
#[derive(Debug, Clone)]
pub struct PerInstSdc {
    /// SDC probability of each static instruction; 0 for never-executed
    /// or non-injectable instructions.
    pub sdc_prob: Vec<f64>,
    /// Raw outcome counts per static instruction.
    pub counts: Vec<OutcomeCounts>,
    /// Wilson interval on each instruction's SDC probability (vacuous for
    /// unsampled instructions).
    pub ci: Vec<BinomialCi>,
    /// How sampling ended at each instruction. `Unsampled` for
    /// instructions outside the campaign (never executed, not injectable)
    /// and for sites the deadline prevented entirely.
    pub status: Vec<SiteStatus>,
}

impl PerInstSdc {
    pub fn len(&self) -> usize {
        self.sdc_prob.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sdc_prob.is_empty()
    }
}

/// Inject `cfg.injections` single-bit flips, each into a uniformly random
/// dynamic instruction execution and uniformly random bit, and classify
/// every outcome. Compatibility wrapper over [`CampaignEngine`] with no
/// policy layers attached (no deadline, no journal); attach layers on the
/// engine for anything more.
pub fn program_campaign(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
) -> ProgramCampaign {
    CampaignEngine::new(module, input, golden, cfg)
        .run_program()
        .unwrap_or_else(|_| unreachable!("interrupts only observed under a journal"))
}

/// Measure the SDC probability of every injectable static instruction by
/// injecting `cfg.per_inst_injections` faults into uniformly random
/// dynamic executions of it. Compatibility wrapper over
/// [`CampaignEngine`] with no policy layers attached.
pub fn per_instruction_campaign(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
) -> PerInstSdc {
    CampaignEngine::new(module, input, golden, cfg)
        .run_per_instruction()
        .unwrap_or_else(|_| unreachable!("interrupts only observed under a journal"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use minpsid_interp::Scalar;
    use minpsid_journal::{interrupt, CampaignJournal, Interrupted};
    use minpsid_sched::Scheduler;

    /// A small kernel with input-dependent branching: faults on the
    /// comparison flip the branch only when `x` is near the threshold.
    pub(crate) fn test_module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                for i = 0 to n {
                    let v = i * 3 + 1;
                    if v % 7 < 3 { acc = acc + v; }
                }
                out_i(acc);
            }
            "#,
            "campaign-test",
        )
        .unwrap()
    }

    pub(crate) fn input(n: i64) -> ProgInput {
        ProgInput::scalars(vec![Scalar::I(n)])
    }

    #[test]
    fn fi_journal_key_mixes_seed_and_plan_size() {
        let base = CampaignConfig::default();
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        let mut other_n = base.clone();
        other_n.injections += 1;
        assert_ne!(fi_journal_key(&base), fi_journal_key(&other_seed));
        assert_ne!(fi_journal_key(&base), fi_journal_key(&other_n));
        assert_eq!(fi_journal_key(&base), fi_journal_key(&base.clone()));
    }

    #[test]
    fn golden_run_profiles_and_exits() {
        let m = test_module();
        let g = golden_run(&m, &input(50), &CampaignConfig::default()).unwrap();
        assert_eq!(g.output.len(), 1);
        assert!(g.profile.injectable_execs > 0);
        assert!(g.steps > 100);
    }

    #[test]
    fn golden_run_round_trips_through_wire_images() {
        let m = test_module();
        let cfg = CampaignConfig::default(); // delta-mode checkpoints
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        assert!(!g.checkpoints.is_empty());
        let back = GoldenRun::decode(&g.encode_meta(), &g.encode_checkpoints(), &cfg.exec).unwrap();
        assert_eq!(back.output, g.output);
        assert_eq!(back.steps, g.steps);
        assert_eq!(back.profile.inst_counts, g.profile.inst_counts);
        assert_eq!(back.profile.injectable_execs, g.profile.injectable_execs);
        assert_eq!(back.checkpoints.len(), g.checkpoints.len());
        for i in 0..g.checkpoints.len() {
            assert_eq!(back.checkpoints.steps_at(i), g.checkpoints.steps_at(i));
            assert_eq!(back.checkpoints.inj_ctr_at(i), g.checkpoints.inj_ctr_at(i));
        }
        // encoding is deterministic, so the store dedups identical runs
        assert_eq!(g.encode_meta(), back.encode_meta());
        assert_eq!(g.encode_checkpoints(), back.encode_checkpoints());
    }

    /// The steps a caller hands `golden_run_sized` spare it the sizing
    /// pass and decide nothing: right, stale or absurd, the run and its
    /// store are the ones `golden_run` sizes for itself.
    #[test]
    fn sized_golden_run_does_not_depend_on_the_hint() {
        let m = test_module();
        let cfg = CampaignConfig::default();
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        assert!(g.checkpoints.len() > 2);
        for hint in [g.steps, g.steps / 3, g.steps * 7, 0] {
            let h = golden_run_sized(&m, &input(60), &cfg, Some(hint)).unwrap();
            assert_eq!(h.encode_meta(), g.encode_meta(), "hint {hint}");
            assert!(
                h.encode_checkpoints() == g.encode_checkpoints(),
                "hint {hint}: store image"
            );
        }
        // a fixed interval never had a sizing pass to skip
        let fixed = CampaignConfig {
            checkpoints: CheckpointPolicy::Every(23),
            ..CampaignConfig::default()
        };
        let a = golden_run(&m, &input(60), &fixed).unwrap();
        let b = golden_run_sized(&m, &input(60), &fixed, Some(5)).unwrap();
        assert!(a.encode_checkpoints() == b.encode_checkpoints());
        // and a hint does not make a trapping input a golden run
        let div = minic::compile("fn main() { out_i(10 / arg_i(0)); }", "div").unwrap();
        assert!(golden_run_sized(&div, &input(0), &cfg, Some(100)).is_err());
    }

    #[test]
    fn golden_run_rejects_trapping_input() {
        let m = minic::compile("fn main() { out_i(10 / arg_i(0)); }", "div").unwrap();
        let r = golden_run(&m, &input(0), &CampaignConfig::default());
        assert!(r.is_err());
    }

    #[test]
    fn program_campaign_accounts_for_every_injection() {
        let m = test_module();
        let cfg = CampaignConfig::quick(7);
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        let c = program_campaign(&m, &input(60), &g, &cfg);
        assert_eq!(c.counts.total(), cfg.injections as u64);
        // a real program under random bit flips shows a mix of outcomes
        assert!(c.counts.benign > 0, "some faults must be masked");
        assert!(
            c.counts.sdc > 0,
            "some faults must corrupt the accumulator: {:?}",
            c.counts
        );
    }

    #[test]
    fn unit_executor_reproduces_run_program_in_any_order() {
        let m = test_module();
        let cfg = CampaignConfig::quick(23);
        let g = golden_run(&m, &input(60), &cfg).unwrap();
        let whole = program_campaign(&m, &input(60), &g, &cfg);

        // Resolve the same plan unit-at-a-time in a scrambled order and
        // re-aggregate.
        let inp = input(60);
        let engine = CampaignEngine::new(&m, &inp, &g, &cfg);
        let mut ex = engine.program_executor();
        let mut order: Vec<usize> = (0..cfg.injections).collect();
        order.reverse();
        order.rotate_left(cfg.injections / 3);
        let mut counts = OutcomeCounts::default();
        for i in order {
            let (o, _) = ex.run_unit(i);
            counts.record(o);
        }
        assert_eq!(
            counts, whole.counts,
            "unit-at-a-time execution must reduce to the run_program report"
        );

        // and re-running a unit is idempotent
        let mut ex2 = engine.program_executor();
        assert_eq!(ex2.run_unit(3), ex2.run_unit(3));
    }

    #[test]
    fn campaigns_are_deterministic_given_seed() {
        let m = test_module();
        let cfg = CampaignConfig::quick(99);
        let g = golden_run(&m, &input(40), &cfg).unwrap();
        let a = program_campaign(&m, &input(40), &g, &cfg);
        let b = program_campaign(&m, &input(40), &g, &cfg);
        assert_eq!(a.counts, b.counts);

        let pa = per_instruction_campaign(&m, &input(40), &g, &cfg);
        let pb = per_instruction_campaign(&m, &input(40), &g, &cfg);
        assert_eq!(pa.sdc_prob, pb.sdc_prob);
    }

    #[test]
    fn different_seeds_differ() {
        let m = test_module();
        let g = golden_run(&m, &input(40), &CampaignConfig::default()).unwrap();
        let a = program_campaign(&m, &input(40), &g, &CampaignConfig::quick(1));
        let b = program_campaign(&m, &input(40), &g, &CampaignConfig::quick(2));
        assert_ne!(a.counts, b.counts, "distinct seeds sample differently");
    }

    #[test]
    fn per_instruction_campaign_shapes_match_module() {
        let m = test_module();
        let cfg = CampaignConfig::quick(5);
        let g = golden_run(&m, &input(30), &cfg).unwrap();
        let p = per_instruction_campaign(&m, &input(30), &g, &cfg);
        assert_eq!(p.len(), m.num_insts());
        // the output instruction (out_i) is not injectable -> prob 0;
        // at least one arithmetic instruction must show SDCs
        assert!(p.sdc_prob.iter().any(|&x| x > 0.0));
        assert!(p.sdc_prob.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn per_inst_counts_hit_requested_sample_size() {
        let m = test_module();
        let cfg = CampaignConfig::quick(3);
        let g = golden_run(&m, &input(20), &cfg).unwrap();
        let p = per_instruction_campaign(&m, &input(20), &g, &cfg);
        for (dense, c) in p.counts.iter().enumerate() {
            let executed = g.profile.inst_counts[dense] > 0;
            let inst = m.inst(m.numbering().id_of(dense));
            if executed && inst.injectable() {
                assert_eq!(c.total(), cfg.per_inst_injections as u64);
            } else {
                assert_eq!(c.total(), 0);
            }
        }
    }

    #[test]
    fn single_threaded_and_parallel_agree() {
        let m = test_module();
        let mut cfg1 = CampaignConfig::quick(11);
        cfg1.threads = 1;
        let mut cfg4 = CampaignConfig::quick(11);
        cfg4.threads = 4;
        let g = golden_run(&m, &input(25), &cfg1).unwrap();
        let a = program_campaign(&m, &input(25), &g, &cfg1);
        let b = program_campaign(&m, &input(25), &g, &cfg4);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn checkpointed_and_cold_campaigns_are_bit_identical() {
        // the load-bearing guarantee of checkpointed FI: the same seed
        // yields the same OutcomeCounts and per-instruction SDC profile
        // with checkpointing on (any interval) or off
        let m = test_module();
        let mut cold = CampaignConfig::quick(77);
        cold.checkpoints = CheckpointPolicy::Disabled;
        let mut auto_cfg = CampaignConfig::quick(77);
        auto_cfg.checkpoints = CheckpointPolicy::Auto;
        let mut fixed = CampaignConfig::quick(77);
        fixed.checkpoints = CheckpointPolicy::Every(23);
        let mut full = fixed.clone(); // the reference encoding, no delta chains
        full.snapshot_mode = SnapshotMode::Full;

        let g_cold = golden_run(&m, &input(60), &cold).unwrap();
        assert!(g_cold.checkpoints.is_empty());
        let g_auto = golden_run(&m, &input(60), &auto_cfg).unwrap();
        assert!(
            !g_auto.checkpoints.is_empty(),
            "run long enough to snapshot"
        );
        let g_fixed = golden_run(&m, &input(60), &fixed).unwrap();
        let g_full = golden_run(&m, &input(60), &full).unwrap();

        let a = program_campaign(&m, &input(60), &g_cold, &cold);
        let b = program_campaign(&m, &input(60), &g_auto, &auto_cfg);
        let c = program_campaign(&m, &input(60), &g_fixed, &fixed);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts, c.counts);
        let d = program_campaign(&m, &input(60), &g_full, &full);
        assert_eq!(a.counts, d.counts);

        let pa = per_instruction_campaign(&m, &input(60), &g_cold, &cold);
        let pb = per_instruction_campaign(&m, &input(60), &g_auto, &auto_cfg);
        let pc = per_instruction_campaign(&m, &input(60), &g_fixed, &fixed);
        assert_eq!(pa.sdc_prob, pb.sdc_prob);
        assert_eq!(pa.counts, pb.counts);
        assert_eq!(pa.counts, pc.counts);
        let pd = per_instruction_campaign(&m, &input(60), &g_full, &full);
        assert_eq!(pa.sdc_prob, pd.sdc_prob);
        assert_eq!(pa.counts, pd.counts);
    }

    #[test]
    fn checkpoint_store_respects_memory_budget() {
        let m = test_module();
        let mut cfg = CampaignConfig::quick(5);
        cfg.checkpoints = CheckpointPolicy::Every(10);
        cfg.checkpoint_mem_budget = 8 << 10; // force thinning
        let g = golden_run(&m, &input(200), &cfg).unwrap();
        assert!(g.checkpoints.total_bytes() <= 8 << 10);
        // thinned store must still be usable
        let c = program_campaign(&m, &input(200), &g, &cfg);
        assert_eq!(c.counts.total(), cfg.injections as u64);
    }

    pub(crate) fn journal_dir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("minpsid-campaign-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// `interrupt::request()` is process-wide and every journal-attached
    /// campaign polls it: the test that raises the flag and each test that
    /// attaches a journal hold this for their whole body.
    pub(crate) static INTERRUPT_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn journaled_campaigns_match_plain_ones_bit_identically() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = test_module();
        let cfg = CampaignConfig::quick(21);
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let plain = program_campaign(&m, &input(50), &g, &cfg);
        let plain_pi = per_instruction_campaign(&m, &input(50), &g, &cfg);

        let dir = journal_dir("bitident");
        let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
        let s = Scheduler::unbounded();
        let inp = input(50);
        // first pass: everything fresh (appended); scoped so the engine's
        // borrow of the journal ends before the journal is reopened
        {
            let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
                .with_scheduler(&s)
                .with_journal(&j, 9);
            let a = eng.run_program().unwrap();
            let a_pi = eng.run_per_instruction().unwrap();
            assert_eq!(a.counts, plain.counts);
            assert_eq!(a_pi.counts, plain_pi.counts);
            let (_, appended) = j.usage();
            assert!(appended > 0);
            j.sync().unwrap();
        }

        // second pass over a reopened journal: everything served, still
        // bit-identical
        drop(j);
        let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
        let s = Scheduler::unbounded();
        let eng = CampaignEngine::new(&m, &inp, &g, &cfg)
            .with_scheduler(&s)
            .with_journal(&j, 9);
        let b = eng.run_program().unwrap();
        let b_pi = eng.run_per_instruction().unwrap();
        assert_eq!(b.counts, plain.counts);
        assert_eq!(b_pi.counts, plain_pi.counts);
        assert_eq!(b_pi.sdc_prob, plain_pi.sdc_prob);
        let (served, appended) = j.usage();
        assert_eq!(appended, 0, "a fully journaled rerun executes nothing");
        assert_eq!(
            served,
            (cfg.injections as u64) + plain_pi.counts.iter().map(|c| c.total()).sum::<u64>()
        );
    }

    #[test]
    fn interrupted_campaign_preserves_progress_and_resumes() {
        let _flag = INTERRUPT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let m = test_module();
        let mut cfg = CampaignConfig::quick(31);
        cfg.threads = 1;
        let g = golden_run(&m, &input(50), &cfg).unwrap();
        let plain = program_campaign(&m, &input(50), &g, &cfg);

        let dir = journal_dir("interrupt");
        {
            let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
            // request the interrupt up front: the campaign must drain
            // immediately and report Interrupted without recording anything
            interrupt::request();
            let r = CampaignEngine::new(&m, &input(50), &g, &cfg)
                .with_journal(&j, 5)
                .run_program();
            interrupt::clear();
            assert_eq!(r.unwrap_err(), Interrupted);
        }
        // resume: completes and matches the uninterrupted counts
        let j = CampaignJournal::open(&dir, 1, 2, None).unwrap();
        let resumed = CampaignEngine::new(&m, &input(50), &g, &cfg)
            .with_journal(&j, 5)
            .run_program()
            .unwrap();
        assert_eq!(resumed.counts, plain.counts);
    }

    #[test]
    fn expired_deadline_truncates_gracefully() {
        use minpsid_sched::Deadline;
        let m = test_module();
        let cfg = CampaignConfig::quick(4);
        let g = golden_run(&m, &input(30), &cfg).unwrap();

        let s = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
        let c = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s)
            .run_program()
            .unwrap();
        assert_eq!(c.counts.total(), 0);
        assert_eq!(c.truncated, cfg.injections as u64);
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        assert_eq!(snap.completeness(), 0.0);

        let s = Scheduler::new(cfg.sched.clone(), Deadline::from_secs(Some(0.0)));
        let p = CampaignEngine::new(&m, &input(30), &g, &cfg)
            .with_scheduler(&s)
            .run_per_instruction()
            .unwrap();
        assert!(p.counts.iter().all(|c| c.total() == 0));
        assert!(p
            .status
            .iter()
            .all(|st| matches!(st, SiteStatus::Unsampled)));
        let snap = s.snapshot();
        assert_eq!(snap.accounted(), snap.planned);
        assert_eq!(snap.completeness(), 0.0);
    }

    #[test]
    fn hang_detection_catches_loop_bound_corruption() {
        // a loop whose bound lives in memory: flips on the bound load can
        // multiply the trip count far past the hang threshold
        let m = minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                let acc = 0;
                let i = 0;
                while i < n {
                    acc = acc + i;
                    i = i + 1;
                }
                out_i(acc);
            }
            "#,
            "hang-test",
        )
        .unwrap();
        let cfg = CampaignConfig {
            injections: 400,
            seed: 13,
            ..CampaignConfig::default()
        };
        let g = golden_run(&m, &input(100), &cfg).unwrap();
        let c = program_campaign(&m, &input(100), &g, &cfg);
        assert!(
            c.counts.hang > 0,
            "high-bit flips on `i`/`n` should hang: {:?}",
            c.counts
        );
    }
}
