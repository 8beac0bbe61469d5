//! What the three pipeline workloads share: the kernels, the MINPSID
//! configuration a seed expands to, one timed pipeline call, its result
//! digest and its correctness checks.

use crate::report::Ledger;
use crate::Scale;
use minpsid::{run_minpsid_cached, GoldenCache, InputModel, MinpsidConfig, MinpsidResult};
use minpsid_bench::preset::Preset;
use minpsid_faultsim::SchedSnapshot;
use minpsid_interp::{ExecConfig, Interp, ProgInput, Termination};
use minpsid_ir::Module;
use minpsid_journal::wal::fnv64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One compiled benchmark program with its input space.
pub struct Kernel {
    pub name: &'static str,
    pub source: &'static str,
    pub module: Module,
    pub model: Box<dyn InputModel + Send + Sync>,
    pub ref_input: ProgInput,
}

/// Compile `names` (suite order is kept) and materialise their reference
/// inputs. This is the part of set-up every workload pays.
pub fn load_kernels(names: &[&str]) -> Vec<Kernel> {
    let mut suite = minpsid_workloads::suite();
    suite.retain(|b| names.contains(&b.name));
    assert_eq!(suite.len(), names.len(), "unknown kernel in {names:?}");
    suite
        .into_iter()
        .map(|b| {
            let module = b.compile();
            let ref_input = b.model.materialize(&b.model.reference());
            Kernel {
                name: b.name,
                source: b.source,
                module,
                model: b.model,
                ref_input,
            }
        })
        .collect()
}

/// The GA's seed, whatever `--seed` is. Which inputs the GA proposes
/// decides how large the programs' runs are: with the GA seeded from
/// `--seed` and six searched inputs, `pipeline_suite`'s wall time spread
/// 12 % over ten seeds (hpccg alone 4.2 s to 5.9 s) against 3.6 % with
/// the GA seed pinned.
const GA_SEED: u64 = 42 ^ 0x6A;

/// Memory cap of a run under test, in 8-byte words (the product's default
/// is `1 << 24`, 128 MiB). A bit flipped in an allocation size makes a
/// faulty run allocate and zero up to the cap; under the default, how many
/// of the drawn faults do that decided `incremental_edit`'s wall time
/// (1.13 s to 1.52 s over ten seeds, against 1.01 s to 1.05 s under this
/// cap) and every workload's peak RSS (7 MiB to 72 MiB on `fi_units`).
/// 8 MiB is 64 times the `1 << 14` words under which every fault-free
/// run of every kernel still fits.
pub const MEM_LIMIT_WORDS: u64 = 1 << 20;

/// Inputs the search accepts per pipeline call (the preset's cap is 6).
/// Two keep a pass of every pipeline workload under 5 s, so that three or
/// more passes fit in a run and each call's fastest time can be taken;
/// the stages and their shares are those of a longer search.
const SEARCHED_INPUTS: usize = 2;

/// Which pipeline workload a configuration is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `pipeline_suite`: 6 injections per site, about 87 % FI.
    FiHeavy,
    /// `search_heavy`: 1 injection per site and a 16x8 GA, about 75 % search.
    SearchHeavy,
    /// `incremental_edit`: the preset's 12 injections per site.
    Preset,
}

/// The pipeline configuration of a workload. The seed feeds
/// `Preset::Tiny.minpsid_config(0.5, seed)` and nothing else; of what that
/// derives from it, the campaign seed stays — it picks every fault site
/// and bit — and the GA seed is pinned to [`GA_SEED`].
///
/// One thread, because on a 2-core host only a 1-thread run repeats well.
/// `stagnation_patience = max_inputs`, because with the preset's patience
/// the number of searched inputs — and with it a third of the work — is
/// decided by which faults the seed happens to draw.
pub fn minpsid_config(mix: Mix, seed: u64, scale: &Scale) -> MinpsidConfig {
    let mut cfg = Preset::Tiny.minpsid_config(0.5, seed);
    cfg.ga.seed = GA_SEED;
    cfg.campaign.threads = 1;
    cfg.campaign.exec.mem_limit = MEM_LIMIT_WORDS;
    cfg.max_inputs = SEARCHED_INPUTS;
    match mix {
        Mix::FiHeavy => cfg.campaign.per_inst_injections = 6,
        Mix::SearchHeavy => {
            cfg.campaign.per_inst_injections = 1;
            cfg.ga.population = 16;
            cfg.ga.max_generations = 8;
            cfg.ga.patience = 8;
        }
        Mix::Preset => {}
    }
    if scale.smoke {
        cfg.campaign.per_inst_injections = 1;
        cfg.max_inputs = 1;
        cfg.ga.population = 2;
        cfg.ga.max_generations = 1;
    }
    cfg.stagnation_patience = cfg.max_inputs;
    cfg
}

/// What must be equal between two runs that claim the same result:
/// selection bits, incubative indices, the bits of `expected_coverage`,
/// `inputs_searched`, and the bits of the re-prioritized benefit vector.
pub fn result_digest(
    selection: &[bool],
    incubative: &[usize],
    expected_coverage: f64,
    inputs_searched: usize,
    benefit: &[f64],
) -> u64 {
    let mut bytes = Vec::with_capacity(selection.len() + 8 * (incubative.len() + benefit.len()));
    bytes.extend(selection.iter().map(|&b| u8::from(b)));
    for &i in incubative {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&expected_coverage.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(inputs_searched as u64).to_le_bytes());
    for b in benefit {
        bytes.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

pub fn digest_of(r: &MinpsidResult) -> u64 {
    result_digest(
        &r.selection,
        &r.incubative,
        r.expected_coverage,
        r.inputs_searched,
        &r.cost_benefit.benefit,
    )
}

/// One timed pipeline call.
pub struct Call {
    pub seconds: f64,
    /// `Err` carries why the call produced no result (`Err` or panic).
    pub result: Result<MinpsidResult, String>,
}

/// Time `f`, turning a panic into a failed operation instead of a dead
/// benchmark.
pub fn timed_call<E: std::fmt::Debug>(f: impl FnOnce() -> Result<MinpsidResult, E>) -> Call {
    let t = Instant::now();
    let result = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("pipeline returned {e:?}")),
        Err(_) => Err("pipeline panicked".to_string()),
    };
    Call {
        seconds: t.elapsed().as_secs_f64(),
        result,
    }
}

/// One pass of `pipeline_suite` / `search_heavy`: `run_minpsid_cached`
/// with a fresh cache on every kernel, back to back.
pub fn cached_pass(kernels: &[Kernel], cfg: &MinpsidConfig) -> Vec<Call> {
    kernels
        .iter()
        .map(|k| {
            timed_call(|| run_minpsid_cached(&k.module, k.model.as_ref(), cfg, &GoldenCache::new()))
        })
        .collect()
}

/// Fault-free output of `module` on `input`, through `Interp::run` — not
/// through the pipeline under test.
pub fn plain_output(module: &Module, input: &ProgInput) -> Result<minpsid_interp::Output, String> {
    let r = Interp::new(module, ExecConfig::default()).run(input);
    if r.termination == Termination::Exit {
        Ok(r.output)
    } else {
        Err(format!("did not exit: {:?}", r.termination))
    }
}

/// The checks every pipeline result must pass; `None` when all hold.
/// `expected_digest` is the digest this kernel produced on an earlier
/// pass (or by a reference run); `None` on the first pass.
pub fn check_result(
    k: &Kernel,
    sched: &SchedSnapshot,
    digest: u64,
    protected: &Module,
    expected_digest: Option<u64>,
) -> Option<String> {
    if sched.accounted() != sched.planned {
        return Some(format!(
            "{}: {} injections accounted of {} planned",
            k.name,
            sched.accounted(),
            sched.planned
        ));
    }
    if sched.completeness() != 1.0 {
        return Some(format!("{}: completeness {}", k.name, sched.completeness()));
    }
    if let Some(e) = expected_digest {
        if e != digest {
            return Some(format!("{}: digest {digest:#x}, expected {e:#x}", k.name));
        }
    }
    match (
        plain_output(&k.module, &k.ref_input),
        plain_output(protected, &k.ref_input),
    ) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some(format!(
            "{}: protected module's output differs from the original's",
            k.name
        )),
        (Err(e), _) | (_, Err(e)) => Some(format!("{}: reference run {e}", k.name)),
    }
}

/// Check one pass of calls, one ledger operation per call. `digests[i]`
/// holds kernel `i`'s digest from the first pass that produced one.
pub fn check_pass(
    kernels: &[Kernel],
    calls: &[Call],
    digests: &mut [Option<u64>],
    ledger: &mut Ledger,
) {
    for ((k, call), expected) in kernels.iter().zip(calls).zip(digests) {
        let problem = match &call.result {
            Err(e) => Some(format!("{}: {e}", k.name)),
            Ok(r) => {
                let d = digest_of(r);
                let problem = check_result(k, &r.sched, d, &r.protected, *expected);
                expected.get_or_insert(d);
                problem
            }
        };
        ledger.record(problem);
    }
}

/// Seconds of each call of one pass, in kernel order.
pub fn call_seconds(calls: &[Call]) -> Vec<f64> {
    calls.iter().map(|c| c.seconds).collect()
}

/// Injections accounted by one pass.
pub fn pass_injections(calls: &[Call]) -> u64 {
    calls
        .iter()
        .filter_map(|c| c.result.as_ref().ok())
        .map(|r| r.sched.completed)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_component() {
        let base = result_digest(&[true, false], &[3], 0.5, 2, &[0.25, 0.0]);
        assert_eq!(
            base,
            result_digest(&[true, false], &[3], 0.5, 2, &[0.25, 0.0])
        );
        assert_ne!(
            base,
            result_digest(&[false, true], &[3], 0.5, 2, &[0.25, 0.0])
        );
        assert_ne!(
            base,
            result_digest(&[true, false], &[4], 0.5, 2, &[0.25, 0.0])
        );
        assert_ne!(
            base,
            result_digest(&[true, false], &[3], 0.5000001, 2, &[0.25, 0.0])
        );
        assert_ne!(
            base,
            result_digest(&[true, false], &[3], 0.5, 3, &[0.25, 0.0])
        );
        assert_ne!(
            base,
            result_digest(&[true, false], &[3], 0.5, 2, &[0.25, -0.0])
        );
    }

    #[test]
    fn a_wrong_digest_fails_the_operation() {
        let kernels = load_kernels(&["bfs"]);
        let k = &kernels[0];
        let sched = SchedSnapshot {
            planned: 4,
            completed: 4,
            ..SchedSnapshot::default()
        };
        assert_eq!(check_result(k, &sched, 7, &k.module, Some(7)), None);
        let problem = check_result(k, &sched, 7, &k.module, Some(8));
        assert!(problem.unwrap().contains("digest"));
        let lost = SchedSnapshot {
            planned: 5,
            ..sched
        };
        assert!(check_result(k, &lost, 7, &k.module, None)
            .unwrap()
            .contains("accounted"));
    }
}
