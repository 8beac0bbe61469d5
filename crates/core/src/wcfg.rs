//! Weighted CFG profiling and the GA fitness function (paper Fig. 5,
//! Eq. 3).

use minpsid_faultsim::CampaignConfig;
use minpsid_interp::{ExecConfig, ExecScratch, Interp, Profile, ProgInput, Run, Termination};
use minpsid_ir::Module;

/// A profiling interpreter for `module` under the campaign's limits.
/// Building one decodes the module, so callers that profile many inputs
/// (the search engine) build it once and go through [`profile_with`].
pub(crate) fn profiling_interp<'m>(module: &'m Module, campaign: &CampaignConfig) -> Interp<'m> {
    let exec = ExecConfig {
        profile: true,
        ..campaign.exec.clone()
    };
    Interp::new(module, exec)
}

/// Execute `input` once on a [`profiling_interp`], in `scratch`, and
/// return the profile with the run's length in dynamic steps. Fails on
/// inputs that error out (those are filtered, per the input-generation
/// rules of §III-A2).
pub(crate) fn profile_with(
    interp: &Interp<'_>,
    scratch: &mut ExecScratch,
    input: &ProgInput,
) -> Result<(Profile, u64), Termination> {
    let r = interp.execute(scratch, &Run::new(input));
    if r.termination != Termination::Exit {
        return Err(r.termination);
    }
    Ok((r.profile.expect("profiling enabled"), r.steps))
}

/// Execute `input` once with profiling and return the profile — the
/// dynamic-profiling step ⑤ of Fig. 4. Fails on inputs that error out.
pub fn profile_input(
    module: &Module,
    input: &ProgInput,
    campaign: &CampaignConfig,
) -> Result<Profile, Termination> {
    profile_with(
        &profiling_interp(module, campaign),
        &mut ExecScratch::default(),
        input,
    )
    .map(|(profile, _)| profile)
}

/// Fitness of a candidate's indexed CFG list against the search history
/// (Eq. 3): the Euclidean distances to every historical list, summed and
/// divided by `|M| + 1`. Higher is better — a distant execution shape
/// means new paths, hence likely new error-propagation behaviour.
pub fn fitness_score(current: &[u64], history: &[Vec<u64>]) -> f64 {
    if history.is_empty() {
        return f64::INFINITY; // first input is always novel
    }
    let mut sum = 0.0;
    for h in history {
        assert_eq!(
            current.len(),
            h.len(),
            "all inputs share the static CFG, so lists have equal length"
        );
        let mut sq = 0.0;
        for (a, b) in current.iter().zip(h) {
            let d = *a as f64 - *b as f64;
            sq += d * d;
        }
        sum += sq.sqrt();
    }
    sum / (history.len() as f64 + 1.0)
}

/// Shape-normalized fitness: each indexed CFG list is scaled to sum to 1
/// before the Eq. 3 distance, so the score measures differences in
/// execution *shape* (which paths, how often relative to each other)
/// rather than raw trip counts.
///
/// The paper's fitness is the unnormalized [`fitness_score`]; this
/// variant exists because the scaled-down benchmark generators randomize
/// instance sizes over wide ranges, and raw Euclidean distance is then
/// dominated by size rather than by the behavioural modes that harbour
/// incubative instructions (see the Fig. 7 discussion in EXPERIMENTS.md).
pub fn fitness_score_normalized(current: &[u64], history: &[Vec<u64>]) -> f64 {
    if history.is_empty() {
        return f64::INFINITY;
    }
    let norm = |l: &[u64]| -> Vec<f64> {
        let total: u64 = l.iter().sum();
        let t = total.max(1) as f64;
        l.iter().map(|&v| v as f64 / t).collect()
    };
    let cur = norm(current);
    let mut sum = 0.0;
    for h in history {
        assert_eq!(current.len(), h.len());
        let hn = norm(h);
        let mut sq = 0.0;
        for (a, b) in cur.iter().zip(&hn) {
            let d = a - b;
            sq += d * d;
        }
        sum += sq.sqrt();
    }
    sum / (history.len() as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_interp::Scalar;

    fn module() -> Module {
        minic::compile(
            r#"
            fn main() {
                let n = arg_i(0);
                for i = 0 to n {
                    if i % 2 == 0 { out_i(i); }
                }
            }
            "#,
            "wcfg-test",
        )
        .unwrap()
    }

    #[test]
    fn profiles_differ_between_inputs() {
        let m = module();
        let cfg = CampaignConfig::quick(1);
        let p1 = profile_input(&m, &ProgInput::scalars(vec![Scalar::I(4)]), &cfg).unwrap();
        let p2 = profile_input(&m, &ProgInput::scalars(vec![Scalar::I(40)]), &cfg).unwrap();
        assert_ne!(p1.indexed_cfg_list(), p2.indexed_cfg_list());
    }

    #[test]
    fn fitness_of_first_input_is_infinite() {
        assert_eq!(fitness_score(&[1, 2, 3], &[]), f64::INFINITY);
    }

    #[test]
    fn identical_execution_has_zero_fitness() {
        let l = vec![5u64, 9, 1];
        assert_eq!(fitness_score(&l, std::slice::from_ref(&l)), 0.0);
    }

    #[test]
    fn fitness_matches_eq3_by_hand() {
        // L = (0,0), history = {(3,4), (0,0)}: distances 5 and 0,
        // S_L = (5 + 0) / (2 + 1)
        let s = fitness_score(&[0, 0], &[vec![3, 4], vec![0, 0]]);
        assert!((s - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn farther_executions_score_higher() {
        let history = vec![vec![10u64, 10]];
        let near = fitness_score(&[11, 10], &history);
        let far = fitness_score(&[100, 10], &history);
        assert!(far > near);
    }

    #[test]
    fn trapping_input_is_rejected() {
        let m = minic::compile("fn main() { out_i(1 / arg_i(0)); }", "trap").unwrap();
        let cfg = CampaignConfig::quick(1);
        let r = profile_input(&m, &ProgInput::scalars(vec![Scalar::I(0)]), &cfg);
        assert!(r.is_err());
    }
}
