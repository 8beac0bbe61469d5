//! Experiment presets and the `experiments` command line (hand-rolled:
//! the dependency budget has no CLI crate).

use crate::tables::{Table, TABLES};
use minpsid::{GaConfig, IncubativeConfig, MinpsidConfig, SearchStrategy};
use minpsid_faultsim::CampaignConfig;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Seconds-to-minutes: CI and smoke runs.
    Tiny,
    /// Minutes: the default for EXPERIMENTS.md numbers.
    Small,
    /// The paper's §III-A counts. Hours on one core.
    Paper,
}

impl Preset {
    pub fn parse(s: &str) -> Option<Preset> {
        match s {
            "tiny" => Some(Preset::Tiny),
            "small" => Some(Preset::Small),
            "paper" => Some(Preset::Paper),
            _ => None,
        }
    }

    /// Number of random inputs used to *evaluate* a protected program
    /// (the paper uses 50 for Fig. 2 and 30 for Fig. 6; we use one count).
    pub fn eval_inputs(self) -> usize {
        match self {
            Preset::Tiny => 6,
            Preset::Small => 15,
            Preset::Paper => 50,
        }
    }

    /// Whole-program campaign size (paper: 1000).
    pub fn injections(self) -> usize {
        match self {
            Preset::Tiny => 150,
            Preset::Small => 400,
            Preset::Paper => 1000,
        }
    }

    /// Per-instruction campaign size (paper: 100).
    pub fn per_inst_injections(self) -> usize {
        match self {
            Preset::Tiny => 12,
            Preset::Small => 30,
            Preset::Paper => 100,
        }
    }

    /// Input-search budget (paper converges around 21 inputs).
    pub fn max_search_inputs(self) -> usize {
        match self {
            Preset::Tiny => 6,
            Preset::Small => 12,
            Preset::Paper => 25,
        }
    }

    /// Noise slack for the "coverage-loss input" criterion, scaled to the
    /// campaign's binomial error bars.
    pub fn loss_epsilon(self) -> f64 {
        match self {
            Preset::Tiny => 0.06,
            Preset::Small => 0.04,
            Preset::Paper => 0.02,
        }
    }

    /// Checkpoint-store size cap for golden runs. Scales with campaign
    /// size: more injections amortize a denser snapshot grid.
    pub fn max_checkpoints(self) -> u64 {
        match self {
            Preset::Tiny => 128,
            Preset::Small => 512,
            Preset::Paper => 2048,
        }
    }

    /// Campaign config for this preset.
    pub fn campaign(self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections(),
            per_inst_injections: self.per_inst_injections(),
            seed,
            max_checkpoints: self.max_checkpoints(),
            ..CampaignConfig::default()
        }
    }

    pub fn minpsid_config(self, level: f64, seed: u64) -> MinpsidConfig {
        MinpsidConfig {
            protection_level: level,
            campaign: self.campaign(seed),
            ga: GaConfig {
                population: if self == Preset::Tiny { 6 } else { 10 },
                max_generations: if self == Preset::Tiny { 4 } else { 8 },
                seed: seed ^ 0x6A,
                ..GaConfig::default()
            },
            incubative: IncubativeConfig::default(),
            max_inputs: self.max_search_inputs(),
            stagnation_patience: if self == Preset::Tiny { 2 } else { 3 },
            strategy: SearchStrategy::Genetic,
            use_dp: false,
            deadline_secs: None,
            incremental: true,
        }
    }
}

/// The `experiments` command line.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// The tables to render, in the order given (all of them if none was).
    pub tables: Vec<Table>,
    pub preset: Preset,
    pub seed: u64,
    /// Restrict the per-kernel tables to one benchmark by name.
    pub bench: Option<String>,
    /// Write a structured JSONL trace of the experiment here.
    pub trace_out: Option<String>,
    /// Write each table to `DIR/<table>.txt` instead of stdout.
    pub out: Option<String>,
}

/// The usage text, with every table and kernel name.
pub fn usage() -> String {
    let tables: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
    let kernels: Vec<&str> = minpsid_workloads::suite().iter().map(|b| b.name).collect();
    format!(
        "usage: experiments [TABLE…] [--preset tiny|small|paper] [--seed N] [--bench KERNEL] \
         [--trace-out FILE] [--out DIR]\n\
         tables (none means all): {}\n\
         kernels: {}",
        tables.join(" "),
        kernels.join(" ")
    )
}

/// Parse the `experiments` arguments. An unknown table, kernel, flag or
/// value is an error naming it; the caller prints it with [`usage`].
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<ExperimentArgs, String> {
    let mut out = ExperimentArgs {
        tables: Vec::new(),
        preset: Preset::Tiny,
        seed: 42,
        bench: None,
        trace_out: None,
        out: None,
    };
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            let table = TABLES.iter().find(|(name, _)| *name == arg);
            out.tables
                .push(*table.ok_or(format!("unknown table `{arg}`"))?);
            continue;
        }
        let value = args.next().ok_or(format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--preset" => {
                out.preset = Preset::parse(&value)
                    .ok_or(format!("unknown preset `{value}` (tiny|small|paper)"))?;
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--bench" => {
                minpsid_workloads::by_name(&value).ok_or(format!("unknown kernel `{value}`"))?;
                out.bench = Some(value);
            }
            "--trace-out" => out.trace_out = Some(value),
            "--out" => out.out = Some(value),
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    if out.tables.is_empty() {
        out.tables = TABLES.to_vec();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_faultsim::CheckpointPolicy;

    fn parse(v: &[&str]) -> Result<ExperimentArgs, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.tables.len(), TABLES.len());
        assert_eq!(a.preset, Preset::Tiny);
        assert_eq!(a.seed, 42);
        assert!(a.bench.is_none());
        assert!(a.out.is_none());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "fig8_time_breakdown",
            "--preset",
            "paper",
            "--seed",
            "7",
            "fig2_baseline_loss",
            "--bench",
            "fft",
            "--out",
            "results",
        ])
        .unwrap();
        let names: Vec<&str> = a.tables.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["fig8_time_breakdown", "fig2_baseline_loss"]);
        assert_eq!(a.preset, Preset::Paper);
        assert_eq!(a.seed, 7);
        assert_eq!(a.bench.as_deref(), Some("fft"));
        assert_eq!(a.out.as_deref(), Some("results"));
    }

    #[test]
    fn rejects_bad_preset() {
        assert_eq!(
            parse(&["--preset", "huge"]).unwrap_err(),
            "unknown preset `huge` (tiny|small|paper)"
        );
        assert_eq!(parse(&["--seed", "x"]).unwrap_err(), "bad seed `x`");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn rejects_an_unknown_kernel() {
        assert_eq!(
            parse(&["--bench", "knnn"]).unwrap_err(),
            "unknown kernel `knnn`"
        );
        assert!(usage().contains("knn"), "{}", usage());
    }

    #[test]
    fn rejects_an_unknown_table() {
        assert_eq!(parse(&["fig3"]).unwrap_err(), "unknown table `fig3`");
        assert!(usage().contains("fig2_baseline_loss"), "{}", usage());
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert_eq!(
            parse(&["--threads", "2"]).unwrap_err(),
            "unknown flag `--threads`"
        );
    }

    #[test]
    fn paper_preset_matches_paper_counts() {
        assert_eq!(Preset::Paper.injections(), 1000);
        assert_eq!(Preset::Paper.per_inst_injections(), 100);
        assert_eq!(Preset::Paper.eval_inputs(), 50);
    }

    #[test]
    fn presets_are_ordered_by_scale() {
        assert!(Preset::Tiny.injections() < Preset::Small.injections());
        assert!(Preset::Small.injections() < Preset::Paper.injections());
        assert!(Preset::Tiny.max_checkpoints() < Preset::Paper.max_checkpoints());
    }

    #[test]
    fn campaigns_checkpoint_by_default() {
        let c = Preset::Small.campaign(1);
        assert_eq!(c.checkpoints, CheckpointPolicy::Auto);
        assert_eq!(c.max_checkpoints, Preset::Small.max_checkpoints());
    }
}
