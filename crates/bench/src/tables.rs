//! The paper's evaluation as twelve views of one [`Sweep`]: each table
//! renders to the text its experiment prints (DESIGN.md §4 has the
//! index). A table asks the sweep for what it needs; what another table
//! already asked for is not computed again.

use crate::candlestick::Candlestick;
use crate::experiment::{Pass, Prepared, Sweep};
use minpsid::{reprioritize, FitnessKind, InputModel, ReprioritizeRule, SearchStrategy};
use minpsid_faultsim::{golden_run, program_campaign};
use minpsid_interp::{ExecConfig, Interp};
use minpsid_ir::Module;
use minpsid_sid::knapsack::{dp_select, greedy_select, selection_weight};
use minpsid_sid::transform::{CheckPlacement, TransformMeta};
use minpsid_sid::{duplicable, duplicate_module_with};
use minpsid_workloads::benchmarks::fft::mt_benchmark;
use minpsid_workloads::datasets::{BfsRealWorld, KmeansRealWorld};
use minpsid_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::{self, Write as _};
use std::rc::Rc;
use std::time::Instant;

/// A table: its name (the `experiments` argument) and its renderer.
pub type Table = (&'static str, fn(&mut Sweep, &mut String) -> fmt::Result);

/// Every table, in the order `experiments` with no table name prints them.
pub const TABLES: [Table; 12] = [
    ("fig2_baseline_loss", fig2_baseline_loss),
    ("fig6_minpsid_mitigation", fig6_minpsid_mitigation),
    ("fig7_search_efficiency", fig7_search_efficiency),
    ("sec4_incubative_stats", sec4_incubative_stats),
    ("fig8_time_breakdown", fig8_time_breakdown),
    ("fig9_case_study", fig9_case_study),
    ("sec8_overhead_variance", sec8_overhead_variance),
    ("sec8_multithread", sec8_multithread),
    ("ablation_reprioritization", ablation_reprioritization),
    ("ablation_search_strategy", ablation_search_strategy),
    ("ablation_check_placement", ablation_check_placement),
    ("ablation_knapsack", ablation_knapsack),
];

const LEVELS: [f64; 3] = [0.3, 0.5, 0.7];

/// The evaluation-input seed of the `li`-th protection level.
fn level_seed(seed: u64, li: usize) -> u64 {
    seed ^ (li as u64) << 8
}

/// Table II / III: the share of coverage-loss inputs per level.
fn loss_table(s: &mut String, title: &str, rows: &[(&str, [f64; 3])]) -> fmt::Result {
    writeln!(s)?;
    writeln!(s, "{title}")?;
    writeln!(
        s,
        "{:<15} {:>10} {:>10} {:>10}",
        "benchmark", "30% level", "50% level", "70% level"
    )?;
    let mut avg = [0.0f64; 3];
    for (name, row) in rows {
        writeln!(
            s,
            "{:<15} {:>9.2}% {:>9.2}% {:>9.2}%",
            name,
            row[0] * 100.0,
            row[1] * 100.0,
            row[2] * 100.0
        )?;
        for i in 0..3 {
            avg[i] += row[i];
        }
    }
    let n = rows.len().max(1) as f64;
    writeln!(
        s,
        "{:<15} {:>9.2}% {:>9.2}% {:>9.2}%",
        "Average",
        avg[0] / n * 100.0,
        avg[1] / n * 100.0,
        avg[2] / n * 100.0
    )
}

/// **Figure 2 + Table II**: the loss of SDC coverage in existing SID.
///
/// For every benchmark: profile with the reference input, protect at
/// 30/50/70 % levels, then measure SDC coverage over random inputs.
/// Prints the Fig. 2 candlesticks (expected coverage = the red bar) and
/// the Table II percentage of coverage-loss inputs.
pub fn fig2_baseline_loss(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    let eps = sw.preset.loss_epsilon();
    writeln!(
        s,
        "== Figure 2: SDC coverage of baseline SID across inputs =="
    )?;
    writeln!(
        s,
        "preset {:?}, {} eval inputs, {} injections/campaign",
        sw.preset,
        sw.preset.eval_inputs(),
        sw.campaign.injections
    )?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>5} | {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>9}",
        "benchmark", "level", "expected", "min", "q1", "med", "q3", "max", "loss-inputs"
    )?;
    let mut table2 = Vec::new();
    for b in sw.kernels() {
        let prepared = sw.baseline(&b);
        let mut loss_row = [0.0f64; 3];
        for (li, &level) in LEVELS.iter().enumerate() {
            let row = sw.evaluate(b.model.as_ref(), &prepared, level, level_seed(sw.seed, li));
            let stick = Candlestick::from(&row.coverage).expect("non-empty eval set");
            loss_row[li] = row.loss_fraction_with(eps);
            writeln!(
                s,
                "{:<15} {:>4.0}% | {:>7.2}% | {} | {:>8.2}%",
                b.name,
                level * 100.0,
                row.expected * 100.0,
                stick.pct(),
                loss_row[li] * 100.0
            )?;
        }
        table2.push((b.name, loss_row));
    }
    loss_table(
        s,
        "== Table II: percentage of random coverage-loss inputs (baseline SID) ==",
        &table2,
    )?;
    Ok(())
}

/// **Figure 6 + Table III**: MINPSID's mitigation of the SDC-coverage
/// loss, side by side with the baseline SID of Fig. 2, over the same
/// random-input sets.
pub fn fig6_minpsid_mitigation(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    let eps = sw.preset.loss_epsilon();
    writeln!(s, "== Figure 6: SDC coverage, MINPSID vs baseline SID ==")?;
    writeln!(
        s,
        "preset {:?}, {} eval inputs, {} injections/campaign",
        sw.preset,
        sw.preset.eval_inputs(),
        sw.campaign.injections
    )?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>5} {:<8} | {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>9}",
        "benchmark", "level", "method", "expected", "min", "q1", "med", "q3", "max", "loss-inputs"
    )?;
    let mut table3 = Vec::new();
    let mut mitigation_samples: Vec<f64> = Vec::new();
    for b in sw.kernels() {
        let base = sw.baseline(&b);
        let hard = sw.pass_at_half(&b);
        let mut loss_row = [0.0f64; 3];
        for (li, &level) in LEVELS.iter().enumerate() {
            let eval_seed = level_seed(sw.seed, li);
            let base_row = sw.evaluate(b.model.as_ref(), &base, level, eval_seed);
            let hard_row = sw.evaluate(b.model.as_ref(), &hard.prepared, level, eval_seed);
            loss_row[li] = hard_row.loss_fraction_with(eps);
            for (label, row) in [("baseline", &base_row), ("minpsid", &hard_row)] {
                let stick = Candlestick::from(&row.coverage).expect("non-empty");
                writeln!(
                    s,
                    "{:<15} {:>4.0}% {:<8} | {:>7.2}% | {} | {:>8.2}%",
                    b.name,
                    level * 100.0,
                    label,
                    row.expected * 100.0,
                    stick.pct(),
                    row.loss_fraction_with(eps) * 100.0
                )?;
            }
            // loss-of-coverage mitigation: how much of the baseline's
            // worst-case shortfall below its expectation MINPSID removes
            let base_short = (base_row.expected - base_row.min()).max(0.0);
            let hard_short = (hard_row.expected - hard_row.min()).max(0.0);
            if base_short > 1e-6 {
                mitigation_samples.push(((base_short - hard_short) / base_short).clamp(-1.0, 1.0));
            }
        }
        table3.push((b.name, loss_row));
    }
    loss_table(
        s,
        "== Table III: percentage of coverage-loss inputs under MINPSID ==",
        &table3,
    )?;
    if !mitigation_samples.is_empty() {
        let m = mitigation_samples.iter().sum::<f64>() / mitigation_samples.len() as f64;
        writeln!(s)?;
        writeln!(
            s,
            "average mitigation of the baseline's worst-case coverage shortfall: {:.1}% (paper: 97%)",
            m * 100.0
        )?;
    }
    Ok(())
}

/// **Figure 7**: incubative instructions identified per searched input —
/// MINPSID's GA input search engine versus the blind random searcher.
///
/// Three searchers are compared:
/// * `GA` — the paper's engine with the Eq. 3 (unnormalized) fitness;
/// * `GA-shape` — the same engine with a size-normalized fitness (an
///   adaptation for this reproduction's size-randomized generators, see
///   EXPERIMENTS.md);
/// * `random` — the blind baseline of the paper's Fig. 7.
///
/// Prints normalized cumulative counts per searched input (mean across
/// benchmarks) plus per-benchmark finals and the GA advantage.
pub fn fig7_search_efficiency(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    let budget = sw.preset.max_search_inputs();
    writeln!(
        s,
        "== Figure 7: incubative instructions found vs inputs searched =="
    )?;
    writeln!(s, "preset {:?}, search budget {budget} inputs", sw.preset)?;
    writeln!(s)?;
    let mut series: [Vec<Vec<f64>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut gains = [Vec::new(), Vec::new()];
    writeln!(
        s,
        "{:<15} {:>9} {:>10} {:>9} | {:>9} {:>10}",
        "benchmark", "GA", "GA-shape", "random", "GA gain", "shape gain"
    )?;
    for b in sw.kernels() {
        let histories = [
            (SearchStrategy::Genetic, FitnessKind::Euclidean),
            (SearchStrategy::Genetic, FitnessKind::NormalizedEuclidean),
            (SearchStrategy::Random, FitnessKind::Euclidean),
        ]
        .map(|(strategy, fitness)| exhausting_pass(sw, &b, strategy, fitness));
        let [ga_n, sh_n, rnd_n] = histories
            .each_ref()
            .map(|p| p.result.incubative_history.last().copied().unwrap_or(0));
        let gain = |a: usize, b: usize| -> f64 {
            if b > 0 {
                a as f64 / b as f64 - 1.0
            } else if a > 0 {
                1.0
            } else {
                0.0
            }
        };
        gains[0].push(gain(ga_n, rnd_n));
        gains[1].push(gain(sh_n, rnd_n));
        writeln!(
            s,
            "{:<15} {:>9} {:>10} {:>9} | {:>8.1}% {:>9.1}%",
            b.name,
            ga_n,
            sh_n,
            rnd_n,
            gain(ga_n, rnd_n) * 100.0,
            gain(sh_n, rnd_n) * 100.0
        )?;

        let norm = ga_n.max(sh_n).max(rnd_n).max(1) as f64;
        for (series, pass) in series.iter_mut().zip(&histories) {
            series.push(pad_normalize(&pass.result.incubative_history, budget, norm));
        }
    }

    writeln!(s)?;
    writeln!(
        s,
        "normalized cumulative incubative instructions (mean over benchmarks):"
    )?;
    writeln!(
        s,
        "{:>7} {:>10} {:>10} {:>10}",
        "inputs", "GA", "GA-shape", "random"
    )?;
    for i in 0..budget {
        writeln!(
            s,
            "{:>7} {:>10.3} {:>10.3} {:>10.3}",
            i + 1,
            mean_at(&series[0], i),
            mean_at(&series[1], i),
            mean_at(&series[2], i)
        )?;
    }
    for (name, g) in [("GA", &gains[0]), ("GA-shape", &gains[1])] {
        if !g.is_empty() {
            writeln!(
                s,
                "mean {name} advantage over random at convergence: {:+.1}% (paper GA: +45.6%)",
                g.iter().sum::<f64>() / g.len() as f64 * 100.0
            )?;
        }
    }
    Ok(())
}

/// The 50 % pass with `strategy` and `fitness` that searches its whole
/// input budget (Fig. 7 and the search-strategy ablation).
fn exhausting_pass(
    sw: &mut Sweep,
    b: &Benchmark,
    strategy: SearchStrategy,
    fitness: FitnessKind,
) -> Rc<Pass> {
    let mut cfg = sw.preset.minpsid_config(0.5, sw.seed);
    cfg.stagnation_patience = sw.preset.max_search_inputs();
    cfg.strategy = strategy;
    cfg.ga.fitness = fitness;
    sw.pass(b, &cfg)
}

/// Pad a cumulative history to `len` (carrying the last value) and
/// normalize by `norm`.
fn pad_normalize(history: &[usize], len: usize, norm: f64) -> Vec<f64> {
    (0..len)
        .map(|i| *history.get(i).or(history.last()).unwrap_or(&0) as f64 / norm)
        .collect()
}

fn mean_at(series: &[Vec<f64>], i: usize) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|s| s[i]).sum::<f64>() / series.len() as f64
}

/// **§IV statistics**: the share of incubative instructions per benchmark
/// (paper: 6.20 % in LU to 32.09 % in Needle, 15.79 % on average) and how
/// much of the baseline's coverage loss they explain — estimated as the
/// worst-case shortfall removed when only re-prioritization of the found
/// incubative set is applied (paper: ≥ 97 %).
pub fn sec4_incubative_stats(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(s, "== Section IV: incubative-instruction statistics ==")?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>8} {:>12} {:>10} | {:>12} {:>12} {:>12}",
        "benchmark", "#insts", "#incubative", "share", "base worst", "hard worst", "loss explained"
    )?;
    let mut shares = Vec::new();
    let mut explained = Vec::new();
    for b in sw.kernels() {
        let base = sw.baseline(&b);
        let hard = sw.pass_at_half(&b);
        let n_insts = base.module.num_insts();
        let n_incubative = hard.result.incubative.len();
        let share = n_incubative as f64 / n_insts as f64;
        shares.push(share);

        // coverage shortfall at the 50% level, with and without the
        // incubative re-prioritization
        let base_row = sw.evaluate(b.model.as_ref(), &base, 0.5, sw.seed);
        let hard_row = sw.evaluate(b.model.as_ref(), &hard.prepared, 0.5, sw.seed);
        let base_short = (base_row.expected - base_row.min()).max(0.0);
        let hard_short = (base_row.expected - hard_row.min()).max(0.0);
        let frac = if base_short > 1e-6 {
            ((base_short - hard_short) / base_short).clamp(0.0, 1.0)
        } else {
            1.0
        };
        explained.push(frac);
        writeln!(
            s,
            "{:<15} {:>8} {:>12} {:>9.2}% | {:>11.2}% {:>11.2}% {:>11.1}%",
            b.name,
            n_insts,
            n_incubative,
            share * 100.0,
            base_row.min() * 100.0,
            hard_row.min() * 100.0,
            frac * 100.0
        )?;
    }
    if !shares.is_empty() {
        writeln!(s)?;
        writeln!(
            s,
            "incubative share: min {:.2}%, max {:.2}%, mean {:.2}% (paper: 6.20% / 32.09% / 15.79%)",
            shares.iter().copied().fold(f64::INFINITY, f64::min) * 100.0,
            shares.iter().copied().fold(0.0f64, f64::max) * 100.0,
            shares.iter().sum::<f64>() / shares.len() as f64 * 100.0
        )?;
        writeln!(
            s,
            "mean coverage loss explained by incubative re-prioritization: {:.1}% (paper: >=97%)",
            explained.iter().sum::<f64>() / explained.len() as f64 * 100.0
        )?;
    }
    Ok(())
}

/// **Figure 8**: wall-clock breakdown of a MINPSID run per benchmark —
/// per-instruction FI on the reference input, per-instruction FI for
/// incubative identification, and the input search engine (the three
/// components covering >98 % of execution time in the paper).
pub fn fig8_time_breakdown(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Figure 8: MINPSID execution-time breakdown (seconds) =="
    )?;
    writeln!(s, "preset {:?}", sw.preset)?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>12} {:>16} {:>12} {:>10} {:>8}",
        "benchmark", "ref-input FI", "incubative FI", "search", "other", "total"
    )?;
    let mut totals = [0.0f64; 4];
    let mut count = 0usize;
    for b in sw.kernels() {
        let t = sw.pass_at_half(&b).result.timings;
        let parts = [t.ref_fi, t.incubative_fi, t.search, t.other].map(|d| d.as_secs_f64());
        writeln!(
            s,
            "{:<15} {:>12.2} {:>16.2} {:>12.2} {:>10.3} {:>8.2}",
            b.name,
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            t.total().as_secs_f64()
        )?;
        for (total, part) in totals.iter_mut().zip(parts) {
            *total += part;
        }
        count += 1;
    }
    if count > 0 {
        let n = count as f64;
        writeln!(
            s,
            "{:<15} {:>12.2} {:>16.2} {:>12.2} {:>10.3} {:>8.2}",
            "Average",
            totals[0] / n,
            totals[1] / n,
            totals[2] / n,
            totals[3] / n,
            (totals[0] + totals[1] + totals[2] + totals[3]) / n
        )?;
        writeln!(s)?;
        writeln!(
            s,
            "(paper, at full scale on a 160-core farm: ref FI 3.87 min, incubative FI 26.42 min, \
             search 33.41 min, total 63.71 min average)"
        )?;
    }
    Ok(())
}

/// **Figure 9 + Table IV (§VII case study)**: BFS on 30 KONECT-like
/// scale-free graphs and Kmeans on 10 Kaggle-like clustering tables,
/// baseline SID versus MINPSID.
///
/// Both protections are built exactly as in the main evaluation (random
/// reference input / GA search over the *generator's* input space); only
/// the evaluation inputs come from the fixed "real-world" dataset lists.
pub fn fig9_case_study(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Figure 9 / Table IV: MINPSID with real-world-like program inputs =="
    )?;
    writeln!(s, "preset {:?}", sw.preset)?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<18} {:>5} {:<8} | {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6} | {:>9}",
        "benchmark", "level", "method", "expected", "min", "q1", "med", "q3", "max", "loss-inputs"
    )?;
    let bfs = BfsRealWorld::new();
    let kmeans = KmeansRealWorld::new();
    let cases: [(&str, &dyn InputModel, _); 2] = [
        ("bfs", &bfs, bfs.dataset_params()),
        ("kmeans", &kmeans, kmeans.dataset_params()),
    ];
    for (name, rw_model, dataset) in cases {
        if !sw.selects(name) {
            continue;
        }
        let b = minpsid_workloads::by_name(name).expect("a suite kernel");
        let base = sw.baseline(&b);
        let hard = sw.pass_at_half(&b);
        for &level in &LEVELS {
            for (label, prepared) in [("baseline", &*base), ("minpsid", &hard.prepared)] {
                let row = sw.evaluate_fixed(rw_model, prepared, level, &dataset);
                let stick = Candlestick::from(&row.coverage).expect("non-empty dataset");
                writeln!(
                    s,
                    "{:<18} {:>4.0}% {:<8} | {:>7.2}% | {} | {:>8.2}%",
                    format!("{name} (rw)"),
                    level * 100.0,
                    label,
                    row.expected * 100.0,
                    stick.pct(),
                    row.loss_fraction_with(sw.preset.loss_epsilon()) * 100.0
                )?;
            }
        }
    }
    Ok(())
}

/// **§VIII-A**: performance-overhead variance across inputs — the actual
/// fraction of dynamic instructions duplicated when a protected program
/// runs with random inputs, versus the target protection level.
///
/// Paper: baseline SID actually duplicates 15.61 / 28.63 / 46.31 % of
/// dynamic instructions at the 30 / 50 / 70 % levels (shortfalls of
/// 14.4 / 21.4 / 23.7 points), and MINPSID behaves similarly.
pub fn sec8_overhead_variance(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Section VIII-A: duplicated-dynamic-instruction fraction across inputs =="
    )?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>5} | {:>12} {:>12} | {:>12} {:>12}",
        "benchmark", "level", "base dup%", "base short", "minpsid dup%", "minpsid short"
    )?;
    let n_eval = sw.preset.eval_inputs();
    let mut base_avgs = [0.0f64; 3];
    let mut hard_avgs = [0.0f64; 3];
    let mut count = 0usize;
    for b in sw.kernels() {
        let base = sw.baseline(&b);
        let hard = sw.pass_at_half(&b);
        for (li, &level) in LEVELS.iter().enumerate() {
            let [base_frac, hard_frac] = [&*base, &hard.prepared].map(|prepared| {
                let (protected, _, meta) = prepared.protect(level);
                let seed = sw.seed ^ li as u64;
                mean_dup_fraction(&protected, &meta, b.model.as_ref(), n_eval, seed)
            });
            writeln!(
                s,
                "{:<15} {:>4.0}% | {:>11.2}% {:>11.2}pp | {:>11.2}% {:>11.2}pp",
                b.name,
                level * 100.0,
                base_frac * 100.0,
                (level - base_frac) * 100.0,
                hard_frac * 100.0,
                (level - hard_frac) * 100.0
            )?;
            base_avgs[li] += base_frac;
            hard_avgs[li] += hard_frac;
        }
        count += 1;
    }
    if count > 0 {
        writeln!(s)?;
        for (li, &level) in LEVELS.iter().enumerate() {
            writeln!(
                s,
                "average @ {:>2.0}%: baseline {:.2}% (short {:.2}pp), minpsid {:.2}% (short {:.2}pp)",
                level * 100.0,
                base_avgs[li] / count as f64 * 100.0,
                (level - base_avgs[li] / count as f64) * 100.0,
                hard_avgs[li] / count as f64 * 100.0,
                (level - hard_avgs[li] / count as f64) * 100.0
            )?;
        }
        writeln!(
            s,
            "(paper baseline: 15.61 / 28.63 / 46.31% actual at 30 / 50 / 70% targets)"
        )?;
    }
    Ok(())
}

/// Mean dynamic duplicate fraction of a protected binary over `n` random
/// inputs.
fn mean_dup_fraction(
    protected: &Module,
    meta: &TransformMeta,
    model: &dyn InputModel,
    n: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let exec = ExecConfig {
        profile: true,
        ..ExecConfig::default()
    };
    let interp = Interp::new(protected, exec);
    let fractions: Vec<f64> = (0..10 * n + 20)
        .map(|_| interp.run(&model.materialize(&model.random(&mut rng))))
        .filter(|r| r.exited())
        .map(|r| meta.dynamic_dup_fraction(&r.profile.expect("a profiled run").inst_counts))
        .take(n)
        .collect();
    if fractions.is_empty() {
        return 0.0;
    }
    fractions.iter().sum::<f64>() / fractions.len() as f64
}

/// **§VIII-B**: SID and MINPSID on a multi-threaded FFT with 1 / 2 / 4
/// threads. Detection happens per thread before any synchronization
/// point, so a `T`-thread run is modelled as `T` shard transforms under
/// one protected instruction set (see `fft::MT_SOURCE`). Its rows are
/// FFT's, so a `--bench` naming another kernel leaves only the header.
///
/// Paper: baseline coverage loss 7.52 / 12.13 / 6.00 % at 1 / 2 / 4
/// threads; MINPSID reduces it to 2.50 / 5.50 / 1.46 %.
pub fn sec8_multithread(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Section VIII-B: multi-threaded FFT (protection level 50%) =="
    )?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<8} {:<8} | {:>8} | {:>8} | {:>10}",
        "threads", "method", "expected", "min cov", "mean loss"
    )?;
    let fft = sw.selects("fft");
    for threads in [1i64, 2, 4].into_iter().filter(|_| fft) {
        let b = mt_benchmark(threads);
        let base = sw.baseline(&b);
        let hard = sw.pass_at_half(&b);
        for (label, prepared) in [("baseline", &*base), ("minpsid", &hard.prepared)] {
            let row = sw.evaluate(b.model.as_ref(), prepared, 0.5, sw.seed ^ threads as u64);
            // mean loss of coverage relative to the expectation
            let mean_loss = row
                .coverage
                .iter()
                .map(|c| (row.expected - c).max(0.0))
                .sum::<f64>()
                / row.coverage.len().max(1) as f64;
            writeln!(
                s,
                "{:<8} {:<8} | {:>7.2}% | {:>7.2}% | {:>9.2}%",
                threads,
                label,
                row.expected * 100.0,
                row.min() * 100.0,
                mean_loss * 100.0
            )?;
        }
    }
    writeln!(s)?;
    writeln!(
        s,
        "(paper: baseline loss 7.52/12.13/6.00%, MINPSID 2.50/5.50/1.46% at 1/2/4 threads)"
    )?;
    Ok(())
}

/// **Ablation — re-prioritization rule** (DESIGN.md §5): how the benefit
/// rewrite for incubative instructions affects worst-case coverage.
///
/// * `max`  — the paper's rule: highest benefit observed across inputs;
/// * `mean` — mean observed benefit (less conservative);
/// * `ref`  — keep reference benefits (discard incubative knowledge —
///   degenerates to baseline selection).
pub fn ablation_reprioritization(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Ablation: re-prioritization rule (protection level 50%) =="
    )?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:<6} | {:>8} | {:>6} {:>6} {:>6} {:>6} {:>6}",
        "benchmark", "rule", "expected", "min", "q1", "med", "q3", "max"
    )?;
    let rules = [
        ("max", ReprioritizeRule::Max),
        ("mean", ReprioritizeRule::Mean),
        ("ref", ReprioritizeRule::ReferenceOnly),
    ];
    let mut mins: Vec<(usize, f64)> = Vec::new();
    for b in sw.kernels() {
        let pass = sw.pass_at_half(&b);
        let profiles = pass.result.tracker.profiles();
        for (ri, (label, rule)) in rules.iter().enumerate() {
            let mut cb = pass.prepared.cb.clone();
            cb.benefit = reprioritize(profiles, &pass.result.incubative, *rule);
            let prepared = Prepared {
                module: pass.prepared.module.clone(),
                cb,
            };
            let row = sw.evaluate(b.model.as_ref(), &prepared, 0.5, sw.seed);
            let stick = Candlestick::from(&row.coverage).expect("non-empty");
            writeln!(
                s,
                "{:<15} {:<6} | {:>7.2}% | {}",
                b.name,
                label,
                row.expected * 100.0,
                stick.pct()
            )?;
            mins.push((ri, stick.min));
        }
    }
    writeln!(s)?;
    for (ri, (label, _)) in rules.iter().enumerate() {
        let vals: Vec<f64> = mins
            .iter()
            .filter(|(r, _)| *r == ri)
            .map(|(_, v)| *v)
            .collect();
        if !vals.is_empty() {
            writeln!(
                s,
                "rule {:<5}: mean worst-case coverage {:.2}%",
                label,
                vals.iter().sum::<f64>() / vals.len() as f64 * 100.0
            )?;
        }
    }
    Ok(())
}

/// **Ablation — search strategy** (paper §X future work: "more efficient
/// fuzzing algorithms and heuristics"): the GA engine versus simulated
/// annealing versus blind random search, on the benchmarks with the
/// richest incubative structure. Reports incubative instructions found
/// and profiled-run budget consumed per strategy.
pub fn ablation_search_strategy(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    let budget = sw.preset.max_search_inputs();
    writeln!(s, "== Ablation: input-search strategy ==")?;
    writeln!(s, "preset {:?}, search budget {budget} inputs", sw.preset)?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<12} {:<10} | {:>12} {:>9} {:>10}",
        "benchmark", "strategy", "#incubative", "inputs", "time(s)"
    )?;
    let strategies = [
        ("genetic", SearchStrategy::Genetic),
        ("annealing", SearchStrategy::Annealing),
        ("random", SearchStrategy::Random),
    ];
    let mut totals = [0usize; 3];
    for name in ["kmeans", "needle", "pathfinder", "knn"] {
        if !sw.selects(name) {
            continue;
        }
        let b = minpsid_workloads::by_name(name).expect("a suite kernel");
        for (si, (label, strategy)) in strategies.iter().enumerate() {
            let pass = exhausting_pass(sw, &b, *strategy, FitnessKind::Euclidean);
            totals[si] += pass.result.incubative.len();
            writeln!(
                s,
                "{:<12} {:<10} | {:>12} {:>9} {:>10.1}",
                name,
                label,
                pass.result.incubative.len(),
                pass.result.inputs_searched,
                pass.elapsed.as_secs_f64()
            )?;
        }
    }
    writeln!(s)?;
    for (si, (label, _)) in strategies.iter().enumerate() {
        writeln!(s, "total incubative found by {label}: {}", totals[si])?;
    }
    Ok(())
}

/// **Ablation — check placement** (DESIGN.md §5): duplication checks
/// before the next synchronization point (paper §II-C) versus immediately
/// after each duplicate. Coverage is equivalent (the check always runs
/// before the value escapes); what changes is detection latency and
/// (marginally) the cycle overhead profile.
pub fn ablation_check_placement(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    let level = 0.5;
    writeln!(s, "== Ablation: check placement (protection level 50%) ==")?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:<12} | {:>8} {:>8} {:>10} | {:>12}",
        "benchmark", "placement", "detected", "sdc", "overhead", "steps(ref run)"
    )?;
    for b in sw.kernels() {
        let prepared = sw.baseline(&b);
        let cb = &prepared.cb;
        let selection = greedy_select(
            &cb.cost,
            &cb.benefit,
            &eligible(&prepared.module),
            cb.capacity(level),
        );
        let ref_input = b.model.materialize(&b.model.reference());
        for (label, placement) in [
            ("sync-point", CheckPlacement::BeforeSyncPoint),
            ("immediate", CheckPlacement::Immediate),
        ] {
            let (protected, meta) = duplicate_module_with(&prepared.module, &selection, placement);
            let golden = golden_run(&protected, &ref_input, &sw.campaign)
                .expect("the reference input exits");
            let c = program_campaign(&protected, &ref_input, &golden, &sw.campaign);
            let exec = ExecConfig {
                profile: true,
                ..ExecConfig::default()
            };
            let run = Interp::new(&protected, exec).run(&ref_input);
            let overhead = meta.dynamic_cycle_overhead(
                &run.profile.expect("a profiled run").inst_cycles(&protected),
            );
            writeln!(
                s,
                "{:<15} {:<12} | {:>8} {:>8} {:>9.2}% | {:>12}",
                b.name,
                label,
                c.counts.detected,
                c.counts.sdc,
                overhead * 100.0,
                run.steps
            )?;
        }
    }
    Ok(())
}

/// The instructions the transform may duplicate.
fn eligible(module: &Module) -> Vec<bool> {
    module.iter_insts().map(|(_, i)| duplicable(i)).collect()
}

/// **Ablation — knapsack solver** (DESIGN.md §5): greedy benefit-density
/// selection (what deployed SID systems use, and this repo's default)
/// versus the scaled-DP solver at 4096 columns (not exact at this scale:
/// weights round up to a column). Reports expected coverage, budget
/// utilisation, and solve time.
pub fn ablation_knapsack(sw: &mut Sweep, s: &mut String) -> fmt::Result {
    writeln!(s, "== Ablation: knapsack solver ==")?;
    writeln!(s)?;
    writeln!(
        s,
        "{:<15} {:>5} {:<7} | {:>9} {:>10} {:>10}",
        "benchmark", "level", "solver", "expected", "used/cap", "time(us)"
    )?;
    for b in sw.kernels() {
        let prepared = sw.baseline(&b);
        let cb = &prepared.cb;
        let eligible = eligible(&prepared.module);
        for level in LEVELS {
            let cap = cb.capacity(level);
            for (label, use_dp) in [("greedy", false), ("dp", true)] {
                let t0 = Instant::now();
                let sel = if use_dp {
                    dp_select(&cb.cost, &cb.benefit, &eligible, cap, 4096)
                } else {
                    greedy_select(&cb.cost, &cb.benefit, &eligible, cap)
                };
                let dt = t0.elapsed();
                writeln!(
                    s,
                    "{:<15} {:>4.0}% {:<7} | {:>8.2}% {:>9.1}% {:>10}",
                    b.name,
                    level * 100.0,
                    label,
                    cb.expected_coverage(&sel) * 100.0,
                    selection_weight(&cb.cost, &sel) as f64 / cap.max(1) as f64 * 100.0,
                    dt.as_micros()
                )?;
            }
        }
    }
    Ok(())
}
