//! Offline trace analyzer (the `tlparse` idiom): parse a JSONL trace log
//! into a [`TraceSummary`] and render it as markdown or HTML.
//!
//! Parsing is strict — the first malformed line fails the whole log with
//! its line number, so a schema drift is loud instead of producing a
//! silently wrong report.

use crate::event::{CampaignKind, Event, OutcomeTally, SchemaError, SectionAction, TimedEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse every line of a JSONL trace log. Blank lines are ignored;
/// anything else must decode. On failure returns (1-based line number,
/// error).
pub fn parse_log(text: &str) -> Result<Vec<TimedEvent>, (usize, SchemaError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(TimedEvent::parse_line(line).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

/// Aggregate per-stage span statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    pub name: String,
    pub calls: u64,
    pub total_us: u64,
}

/// One completed span instance, for the stage waterfall: begin/end pairs
/// matched by span id.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfallEntry {
    pub name: String,
    /// Timestamp of the span's begin event (µs since trace start).
    pub start_us: u64,
    pub dur_us: u64,
}

/// Cap on rendered waterfall rows: the first slice of a long run is what
/// shows the plan/execute/reduce shape; the full span set is still in
/// the stage table.
const WATERFALL_CAP: usize = 48;

/// Accumulated interpreter sampling-profiler state (v4 `interp_profile`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterpProfileStat {
    pub sample_every: u64,
    pub total_samples: u64,
    pub fused_samples: u64,
    pub fused_sites: u64,
    pub total_sites: u64,
    pub encode_ns: u64,
    pub encode_ops: u64,
    pub restore_ns: u64,
    pub restore_ops: u64,
    /// `(op name, samples)`, descending.
    pub samples: Vec<(String, u64)>,
}

impl InterpProfileStat {
    pub fn fused_sample_rate(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.fused_samples as f64 / self.total_samples as f64
        }
    }

    fn mean_us(ns: u64, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64 / 1e3
        }
    }

    /// Flamegraph-compatible folded stacks (`minpsid;interp;<op> <n>`).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (name, n) in &self.samples {
            let _ = writeln!(out, "minpsid;interp;{name} {n}");
        }
        out
    }
}

/// Aggregate statistics of one campaign shape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStat {
    pub campaigns: u64,
    pub injections: u64,
    pub elapsed_us: u64,
    pub counts: OutcomeTally,
    pub steps_executed: u64,
    pub steps_skipped: u64,
    pub restores: u64,
    /// Injections finished early on golden convergence, and the tail
    /// steps that left unreplayed.
    pub converged: u64,
    pub steps_saved: u64,
    /// Injections stopped once a counted loop of theirs provably repeated
    /// itself to the step limit.
    pub hangs_proved: u64,
    /// Injections that repeated a fault already run at their site and
    /// took its outcome without a replay.
    pub deduped: u64,
}

impl CampaignStat {
    pub fn throughput(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.injections as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }

    /// Fraction of from-scratch replay work not executed: the prefixes
    /// skipped via restores plus the tails saved by golden convergence.
    pub fn savings(&self) -> f64 {
        let avoided = self.steps_skipped + self.steps_saved;
        let total = self.steps_executed + avoided;
        if total == 0 {
            0.0
        } else {
            avoided as f64 / total as f64
        }
    }
}

/// One GA generation data point.
#[derive(Debug, Clone, PartialEq)]
pub struct GaPoint {
    pub input_index: u64,
    pub generation: u64,
    pub best_fitness: f64,
    pub mean_fitness: f64,
}

/// One accepted search input.
#[derive(Debug, Clone, PartialEq)]
pub struct InputPoint {
    pub index: u64,
    pub fitness: f64,
    pub new_incubative: u64,
    pub total_incubative: u64,
}

/// Everything the report renders, extracted in one pass.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub tool: Option<String>,
    pub events: usize,
    /// Wall time covered: `trace_end.dur_us`, or the last timestamp.
    pub wall_us: u64,
    pub stages: Vec<StageStat>,
    pub program: CampaignStat,
    pub per_inst: CampaignStat,
    pub functions: Vec<(String, OutcomeTally)>,
    pub ga: Vec<GaPoint>,
    pub inputs: Vec<InputPoint>,
    pub knapsack: Option<KnapsackStat>,
    pub cache: Option<CacheStat>,
    pub journal: Option<JournalStat>,
    /// Artifact-store accounting aggregated over `store_event`s.
    pub store: Option<StoreStat>,
    /// Section-cache accounting aggregated over `section_event`s.
    pub sections: Option<SectionStat>,
    /// Run-level scheduler accounting (last `sched_summary` event).
    pub sched: Option<SchedStat>,
    /// Raw scheduling event counts, present even when the run died
    /// before emitting its `sched_summary`.
    pub early_stop_events: u64,
    pub truncation_events: u64,
    /// Last sample of each named counter.
    pub counters: BTreeMap<String, u64>,
    /// Last sample of each named histogram.
    pub histograms: BTreeMap<String, Vec<(u64, u64)>>,
    /// Spans that began but never ended (crashed / truncated trace).
    pub open_spans: u64,
    /// Interpreter sampling profile (last `interp_profile` event).
    pub interp_profile: Option<InterpProfileStat>,
    /// Completed span instances in begin order, capped at
    /// [`WATERFALL_CAP`] rows.
    pub waterfall: Vec<WaterfallEntry>,
    /// Completed spans beyond the cap (not in `waterfall`).
    pub waterfall_dropped: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackStat {
    pub budget: u64,
    pub total_cycles: u64,
    pub eligible: u64,
    pub selected: u64,
    pub protected_cycle_fraction: f64,
    pub expected_coverage: f64,
}

/// Crash-safe journal accounting: what recovery found when the log was
/// opened, and how much of the run it then served vs executed fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStat {
    pub recovered_records: u64,
    pub truncated_bytes: u64,
    /// Intact records dropped past a mid-file checksum mismatch
    /// (nonzero = bit rot inside the WAL, not a torn tail).
    pub dropped_records: u64,
    pub served: u64,
    pub appended: u64,
}

/// Content-addressed artifact store accounting: per-op event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStat {
    pub publishes: u64,
    pub loads: u64,
    pub quarantines: u64,
    pub chaos_flips: u64,
}

/// Section-level memoization accounting aggregated over
/// `section_event`s: how much of the campaign was served from cached
/// per-section outcome tables vs executed fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionStat {
    pub hits: u64,
    pub misses: u64,
    pub recomputes: u64,
    pub composes: u64,
    /// Injections served from cached tables (sum of `units` on hits).
    pub served_injections: u64,
}

/// Scheduler accounting: early stopping and deadline truncation, plus
/// the campaign-level completeness score.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStat {
    pub early_stopped_sites: u64,
    pub early_stop_skipped: u64,
    pub truncated: u64,
    pub completeness: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStat {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheStat {
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

fn add_tally(into: &mut OutcomeTally, from: &OutcomeTally) {
    into.benign += from.benign;
    into.sdc += from.sdc;
    into.crash += from.crash;
    into.hang += from.hang;
    into.detected += from.detected;
}

/// Fold a parsed event stream into a [`TraceSummary`].
pub fn summarize(events: &[TimedEvent]) -> TraceSummary {
    let mut s = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    let mut stage_order: Vec<String> = Vec::new();
    let mut stages: BTreeMap<String, StageStat> = BTreeMap::new();
    let mut begun: u64 = 0;
    let mut ended: u64 = 0;
    let mut func_order: Vec<String> = Vec::new();
    let mut funcs: BTreeMap<String, OutcomeTally> = BTreeMap::new();
    // open spans by id, for waterfall begin/end pairing
    let mut open: BTreeMap<u64, u64> = BTreeMap::new();

    for te in events {
        s.wall_us = s.wall_us.max(te.ts_us);
        match &te.event {
            Event::TraceStart { tool } => s.tool = Some(tool.clone()),
            Event::TraceEnd { dur_us } => s.wall_us = s.wall_us.max(*dur_us),
            Event::SpanBegin { id, .. } => {
                begun += 1;
                open.insert(*id, te.ts_us);
            }
            Event::SpanEnd { id, name, dur_us } => {
                ended += 1;
                let st = stages.entry(name.clone()).or_insert_with(|| {
                    stage_order.push(name.clone());
                    StageStat {
                        name: name.clone(),
                        calls: 0,
                        total_us: 0,
                    }
                });
                st.calls += 1;
                st.total_us += dur_us;
                // waterfall entry: begin ts if paired, else derive from
                // the end event (pre-v4 logs may lack the begin line)
                let start_us = open
                    .remove(id)
                    .unwrap_or_else(|| te.ts_us.saturating_sub(*dur_us));
                if s.waterfall.len() < WATERFALL_CAP {
                    s.waterfall.push(WaterfallEntry {
                        name: name.clone(),
                        start_us,
                        dur_us: *dur_us,
                    });
                } else {
                    s.waterfall_dropped += 1;
                }
            }
            Event::Counter { name, value } => {
                s.counters.insert(name.clone(), *value);
            }
            Event::Histogram { name, buckets } => {
                s.histograms.insert(name.clone(), buckets.clone());
            }
            Event::CampaignProgress { .. } => {}
            Event::CampaignEnd {
                kind,
                injections,
                elapsed_us,
                counts,
                steps_executed,
                steps_skipped,
                restores,
                converged,
                steps_saved,
                hangs_proved,
                deduped,
            } => {
                let stat = match kind {
                    CampaignKind::Program => &mut s.program,
                    CampaignKind::PerInst => &mut s.per_inst,
                };
                stat.campaigns += 1;
                stat.injections += injections;
                stat.elapsed_us += elapsed_us;
                add_tally(&mut stat.counts, counts);
                stat.steps_executed += steps_executed;
                stat.steps_skipped += steps_skipped;
                stat.restores += restores;
                stat.converged += converged;
                stat.steps_saved += steps_saved;
                stat.hangs_proved += hangs_proved;
                stat.deduped += deduped;
            }
            Event::FunctionOutcomes { func, counts } => {
                let t = funcs.entry(func.clone()).or_insert_with(|| {
                    func_order.push(func.clone());
                    OutcomeTally::default()
                });
                add_tally(t, counts);
            }
            Event::GaGeneration {
                input_index,
                generation,
                best_fitness,
                mean_fitness,
                ..
            } => s.ga.push(GaPoint {
                input_index: *input_index,
                generation: *generation,
                best_fitness: *best_fitness,
                mean_fitness: *mean_fitness,
            }),
            Event::SearchInput {
                index,
                fitness,
                new_incubative,
                total_incubative,
            } => s.inputs.push(InputPoint {
                index: *index,
                fitness: *fitness,
                new_incubative: *new_incubative,
                total_incubative: *total_incubative,
            }),
            Event::Knapsack {
                budget,
                total_cycles,
                eligible,
                selected,
                protected_cycle_fraction,
                expected_coverage,
            } => {
                s.knapsack = Some(KnapsackStat {
                    budget: *budget,
                    total_cycles: *total_cycles,
                    eligible: *eligible,
                    selected: *selected,
                    protected_cycle_fraction: *protected_cycle_fraction,
                    expected_coverage: *expected_coverage,
                });
            }
            Event::CacheStats {
                hits,
                misses,
                entries,
            } => {
                s.cache = Some(CacheStat {
                    hits: *hits,
                    misses: *misses,
                    entries: *entries,
                });
            }
            Event::JournalRecovery {
                records,
                truncated_bytes,
                dropped_records,
            } => {
                let j = s.journal.get_or_insert_with(JournalStat::default);
                j.recovered_records = *records;
                j.truncated_bytes = *truncated_bytes;
                j.dropped_records = *dropped_records;
            }
            Event::JournalStats {
                recovered,
                appended,
            } => {
                let j = s.journal.get_or_insert_with(JournalStat::default);
                j.served = *recovered;
                j.appended = *appended;
            }
            Event::InterpProfile {
                sample_every,
                total_samples,
                fused_samples,
                fused_sites,
                total_sites,
                encode_ns,
                encode_ops,
                restore_ns,
                restore_ops,
                samples,
            } => {
                s.interp_profile = Some(InterpProfileStat {
                    sample_every: *sample_every,
                    total_samples: *total_samples,
                    fused_samples: *fused_samples,
                    fused_sites: *fused_sites,
                    total_sites: *total_sites,
                    encode_ns: *encode_ns,
                    encode_ops: *encode_ops,
                    restore_ns: *restore_ns,
                    restore_ops: *restore_ops,
                    samples: samples.clone(),
                });
            }
            Event::EarlyStop { .. } => s.early_stop_events += 1,
            Event::DeadlineTruncation { .. } => s.truncation_events += 1,
            Event::SchedSummary {
                early_stopped_sites,
                early_stop_skipped,
                truncated,
                completeness,
            } => {
                s.sched = Some(SchedStat {
                    early_stopped_sites: *early_stopped_sites,
                    early_stop_skipped: *early_stop_skipped,
                    truncated: *truncated,
                    completeness: *completeness,
                });
            }
            Event::StoreEvent { op, .. } => {
                let st = s.store.get_or_insert_with(StoreStat::default);
                match op.as_str() {
                    "publish" => st.publishes += 1,
                    "load" => st.loads += 1,
                    "quarantine" => st.quarantines += 1,
                    "chaos_flip" => st.chaos_flips += 1,
                    _ => {}
                }
            }
            Event::SectionEvent { action, units, .. } => {
                let st = s.sections.get_or_insert_with(SectionStat::default);
                match action {
                    SectionAction::Hit => {
                        st.hits += 1;
                        st.served_injections += units;
                    }
                    SectionAction::Miss => st.misses += 1,
                    SectionAction::Recompute => st.recomputes += 1,
                    SectionAction::Compose => st.composes += 1,
                }
            }
        }
    }
    s.open_spans = begun.saturating_sub(ended);
    s.stages = stage_order
        .into_iter()
        .map(|n| stages.remove(&n).unwrap())
        .collect();
    s.functions = func_order
        .into_iter()
        .map(|n| {
            let t = funcs.remove(&n).unwrap();
            (n, t)
        })
        .collect();
    s
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64 * 100.0
    }
}

fn tally_row(t: &OutcomeTally) -> String {
    let total = t.total();
    format!(
        "{} | {} ({:.1}%) | {} ({:.1}%) | {} ({:.1}%) | {} ({:.1}%) | {} ({:.1}%)",
        total,
        t.benign,
        pct(t.benign, total),
        t.sdc,
        pct(t.sdc, total),
        t.crash,
        pct(t.crash, total),
        t.hang,
        pct(t.hang, total),
        t.detected,
        pct(t.detected, total),
    )
}

fn campaign_section(out: &mut String, title: &str, c: &CampaignStat) {
    if c.campaigns == 0 {
        return;
    }
    let _ = writeln!(out, "### {title}\n");
    let _ = writeln!(out, "- campaigns: {}", c.campaigns);
    let _ = writeln!(out, "- injections: {}", c.injections);
    let _ = writeln!(
        out,
        "- throughput: {:.0} injections/s (cumulative campaign time {:.2} s)",
        c.throughput(),
        secs(c.elapsed_us)
    );
    let _ = writeln!(
        out,
        "\n| total | benign | sdc | crash | hang | detected |\n|---|---|---|---|---|---|"
    );
    let _ = writeln!(out, "| {} |", tally_row(&c.counts));
    let _ = writeln!(
        out,
        "\ncheckpoint restores: {} of {} injections resumed from a snapshot; \
         {} dynamic steps executed, {} skipped (**{:.1}% replay work saved**)\n",
        c.restores,
        c.injections,
        c.steps_executed,
        c.steps_skipped,
        c.savings() * 100.0
    );
    if c.converged > 0 {
        let _ = writeln!(
            out,
            "golden convergence: {} injection(s) finished early at a checkpoint \
             where their state equalled the golden run's; {} tail steps not replayed\n",
            c.converged, c.steps_saved
        );
    }
    if c.hangs_proved > 0 {
        let _ = writeln!(
            out,
            "hang proofs: {} of {} hang(s) stopped where a counted loop provably repeated \
             itself to the step limit; steps after the proof not executed\n",
            c.hangs_proved, c.counts.hang
        );
    }
    if c.deduped > 0 {
        let _ = writeln!(
            out,
            "deduplication: {} injection(s) repeated a fault already run at their site \
             and took its outcome without a replay\n",
            c.deduped
        );
    }
}

/// Render the summary as a markdown report.
pub fn render_markdown(s: &TraceSummary) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# minpsid trace report\n");
    if let Some(tool) = &s.tool {
        let _ = writeln!(out, "- tool: {tool}");
    }
    let _ = writeln!(out, "- events: {}", s.events);
    let _ = writeln!(out, "- wall time: {:.2} s", secs(s.wall_us));
    if s.open_spans > 0 {
        let _ = writeln!(
            out,
            "- **warning**: {} span(s) never ended — truncated or crashed run",
            s.open_spans
        );
    }
    let _ = writeln!(out);

    if !s.stages.is_empty() {
        let _ = writeln!(out, "## Stage time breakdown\n");
        let _ = writeln!(
            out,
            "| stage | calls | total s | share |\n|---|---|---|---|"
        );
        let denom: u64 = s.stages.iter().map(|st| st.total_us).sum();
        for st in &s.stages {
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {:.1}% |",
                st.name,
                st.calls,
                secs(st.total_us),
                pct(st.total_us, denom)
            );
        }
        let _ = writeln!(out);
    }

    if !s.waterfall.is_empty() {
        let _ = writeln!(out, "## Stage waterfall\n");
        // scale bars to the covered interval: offset spaces + duration █
        let t0 = s.waterfall.iter().map(|w| w.start_us).min().unwrap_or(0);
        let t1 = s
            .waterfall
            .iter()
            .map(|w| w.start_us + w.dur_us)
            .max()
            .unwrap_or(1)
            .max(t0 + 1);
        let span = (t1 - t0).max(1);
        const W: u64 = 40;
        let _ = writeln!(
            out,
            "| stage | start s | dur s | timeline |\n|---|---|---|---|"
        );
        for w in &s.waterfall {
            let off = ((w.start_us - t0) * W / span).min(W - 1);
            let len = ((w.dur_us * W).div_ceil(span)).clamp(1, W - off);
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | `{}{}` |",
                w.name,
                secs(w.start_us),
                secs(w.dur_us),
                "·".repeat(off as usize),
                "█".repeat(len as usize),
            );
        }
        if s.waterfall_dropped > 0 {
            let _ = writeln!(
                out,
                "\n({} later span(s) omitted; totals in the stage table above)",
                s.waterfall_dropped
            );
        }
        let _ = writeln!(out);
    }

    if let Some(p) = &s.interp_profile {
        let _ = writeln!(out, "## Interpreter profile\n");
        let _ = writeln!(
            out,
            "- {} samples, one every {} steps (~{} steps covered)",
            p.total_samples,
            p.sample_every,
            p.total_samples * p.sample_every
        );
        let _ = writeln!(
            out,
            "- fusion: {:.1}% of dynamic samples in superinstructions; {} of {} static slots are fused carriers ({:.1}%)",
            p.fused_sample_rate() * 100.0,
            p.fused_sites,
            p.total_sites,
            pct(p.fused_sites, p.total_sites)
        );
        if p.encode_ops + p.restore_ops > 0 {
            let _ = writeln!(
                out,
                "- snapshots: {} encode(s) at {:.1} µs mean, {} restore(s) at {:.1} µs mean",
                p.encode_ops,
                InterpProfileStat::mean_us(p.encode_ns, p.encode_ops),
                p.restore_ops,
                InterpProfileStat::mean_us(p.restore_ns, p.restore_ops),
            );
        }
        let _ = writeln!(out, "\n| op | samples | share | |\n|---|---|---|---|");
        let peak = p.samples.first().map(|&(_, n)| n).unwrap_or(1).max(1);
        for (name, n) in &p.samples {
            let bar = "█".repeat(((n * 24).div_ceil(peak)) as usize);
            let _ = writeln!(
                out,
                "| {} | {} | {:.1}% | {} |",
                name,
                n,
                pct(*n, p.total_samples),
                bar
            );
        }
        let _ = writeln!(out);
    }

    if s.program.campaigns + s.per_inst.campaigns > 0 {
        let _ = writeln!(out, "## FI campaigns\n");
        campaign_section(&mut out, "Whole-program campaigns", &s.program);
        campaign_section(&mut out, "Per-instruction campaigns", &s.per_inst);
    }

    if !s.functions.is_empty() {
        let _ = writeln!(out, "### Outcomes per function\n");
        let _ = writeln!(
            out,
            "| function | total | benign | sdc | crash | hang | detected | engine-err |\n|---|---|---|---|---|---|---|---|"
        );
        for (name, t) in &s.functions {
            let _ = writeln!(out, "| {} | {} |", name, tally_row(t));
        }
        let _ = writeln!(out);
    }

    if let Some(c) = &s.cache {
        let _ = writeln!(out, "## Golden-run cache\n");
        let _ = writeln!(
            out,
            "{} hits / {} misses ({:.1}% hit rate), {} entries\n",
            c.hits,
            c.misses,
            c.hit_rate() * 100.0,
            c.entries
        );
    }

    if let Some(j) = &s.journal {
        let _ = writeln!(out, "## Crash-safe journal\n");
        let _ = writeln!(
            out,
            "- recovery: {} record(s) replayed from the log, {} byte(s) of torn tail truncated",
            j.recovered_records, j.truncated_bytes
        );
        if j.dropped_records > 0 {
            let _ = writeln!(
                out,
                "- **mid-file corruption**: {} intact record(s) dropped past a checksum mismatch and recomputed",
                j.dropped_records
            );
        }
        let _ = writeln!(
            out,
            "- injections served from the journal: {} recovered vs {} executed fresh ({:.1}% of the run skipped)\n",
            j.served,
            j.appended,
            pct(j.served, j.served + j.appended)
        );
    }

    if let Some(st) = &s.store {
        let _ = writeln!(out, "## Artifact store\n");
        let _ = writeln!(
            out,
            "- {} publish(es), {} verified load(s), {} quarantine(s), {} chaos flip(s)\n",
            st.publishes, st.loads, st.quarantines, st.chaos_flips
        );
    }

    if let Some(sec) = &s.sections {
        let _ = writeln!(out, "## Section cache\n");
        let _ = writeln!(
            out,
            "- sections: {} hit, {} miss, {} recompute(d) after corruption; \
             {} composed report(s)",
            sec.hits, sec.misses, sec.recomputes, sec.composes
        );
        let _ = writeln!(
            out,
            "- {} injection(s) served from cached outcome tables ({} section hit rate)\n",
            sec.served_injections,
            pct(sec.hits, sec.hits + sec.misses + sec.recomputes)
        );
    }

    if s.sched.is_some() || s.early_stop_events + s.truncation_events > 0 {
        let _ = writeln!(out, "## Scheduling\n");
        let _ = writeln!(
            out,
            "- events: {} early-stop, {} deadline-truncation",
            s.early_stop_events, s.truncation_events
        );
        if let Some(r) = &s.sched {
            let _ = writeln!(
                out,
                "- early stop: {} site(s) converged early, {} injection(s) skipped with confidence",
                r.early_stopped_sites, r.early_stop_skipped
            );
            let _ = writeln!(out, "- deadline: {} injection(s) truncated", r.truncated);
            let _ = writeln!(out, "- **campaign completeness: {:.3}**", r.completeness);
        } else {
            let _ = writeln!(
                out,
                "- **warning**: no sched_summary event — run died before final accounting"
            );
        }
        let _ = writeln!(out);
    }

    if !s.ga.is_empty() {
        let _ = writeln!(out, "## GA search: fitness per generation\n");
        let _ = writeln!(
            out,
            "| input # | generation | best fitness | mean fitness |\n|---|---|---|---|"
        );
        for g in &s.ga {
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} |",
                g.input_index, g.generation, g.best_fitness, g.mean_fitness
            );
        }
        let _ = writeln!(out);
    }

    if !s.inputs.is_empty() {
        let _ = writeln!(out, "## Accepted search inputs\n");
        let _ = writeln!(
            out,
            "| input # | fitness (distance) | new incubative | cumulative incubative |\n|---|---|---|---|"
        );
        for p in &s.inputs {
            let _ = writeln!(
                out,
                "| {} | {:.4} | {} | {} |",
                p.index, p.fitness, p.new_incubative, p.total_incubative
            );
        }
        let _ = writeln!(out);
    }

    if let Some(k) = &s.knapsack {
        let _ = writeln!(out, "## Knapsack selection\n");
        let _ = writeln!(
            out,
            "- budget: {} of {} dynamic cycles ({:.1}%)",
            k.budget,
            k.total_cycles,
            pct(k.budget, k.total_cycles)
        );
        let _ = writeln!(
            out,
            "- selected: {} of {} eligible instructions",
            k.selected, k.eligible
        );
        let _ = writeln!(
            out,
            "- protected cycle fraction: {:.1}%",
            k.protected_cycle_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "- expected SDC coverage: {:.2}%\n",
            k.expected_coverage * 100.0
        );
    }

    if !s.counters.is_empty() {
        let _ = writeln!(out, "## Counters\n");
        let _ = writeln!(out, "| counter | value |\n|---|---|");
        for (name, v) in &s.counters {
            let _ = writeln!(out, "| {name} | {v} |");
        }
        let _ = writeln!(out);
    }

    if !s.histograms.is_empty() {
        let _ = writeln!(out, "## Histograms\n");
        for (name, buckets) in &s.histograms {
            let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
            let _ = writeln!(out, "### {name} ({total} samples)\n");
            let _ = writeln!(out, "| ≥ | count | |\n|---|---|---|");
            let peak = buckets.iter().map(|&(_, n)| n).max().unwrap_or(1).max(1);
            for &(lo, n) in buckets {
                let bar = "█".repeat(((n * 24).div_ceil(peak)) as usize);
                let _ = writeln!(out, "| {lo} | {n} | {bar} |");
            }
            let _ = writeln!(out);
        }
    }

    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render the summary as a self-contained HTML page (the markdown body
/// wrapped with minimal table styling; tables are converted structurally,
/// everything else is preformatted text).
pub fn render_html(s: &TraceSummary) -> String {
    let md = render_markdown(s);
    let mut body = String::with_capacity(md.len() * 2);
    let mut in_table = false;
    for line in md.lines() {
        let is_row = line.starts_with('|') && line.ends_with('|');
        let is_sep = is_row && line.chars().all(|c| matches!(c, '|' | '-' | ' '));
        if is_row && !is_sep {
            let cells: Vec<&str> = line[1..line.len() - 1].split('|').collect();
            let tag = if !in_table { "th" } else { "td" };
            if !in_table {
                body.push_str("<table>\n");
                in_table = true;
            }
            body.push_str("<tr>");
            for c in cells {
                let _ = write!(body, "<{tag}>{}</{tag}>", html_escape(c.trim()));
            }
            body.push_str("</tr>\n");
            continue;
        }
        if in_table && !is_row {
            body.push_str("</table>\n");
            in_table = false;
        }
        if is_sep {
            continue;
        }
        if let Some(h) = line.strip_prefix("### ") {
            let _ = writeln!(body, "<h3>{}</h3>", html_escape(h));
        } else if let Some(h) = line.strip_prefix("## ") {
            let _ = writeln!(body, "<h2>{}</h2>", html_escape(h));
        } else if let Some(h) = line.strip_prefix("# ") {
            let _ = writeln!(body, "<h1>{}</h1>", html_escape(h));
        } else if let Some(item) = line.strip_prefix("- ") {
            let _ = writeln!(body, "<div>• {}</div>", html_escape(item).replace("**", ""));
        } else if !line.is_empty() {
            let _ = writeln!(body, "<p>{}</p>", html_escape(line).replace("**", ""));
        }
    }
    if in_table {
        body.push_str("</table>\n");
    }
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>minpsid trace report</title>\n<style>\
         body{{font-family:system-ui,sans-serif;margin:2rem auto;max-width:70rem}}\
         table{{border-collapse:collapse;margin:1rem 0}}\
         th,td{{border:1px solid #ccc;padding:0.25rem 0.6rem;text-align:right}}\
         th{{background:#f3f3f3}}td:first-child,th:first-child{{text-align:left}}\
         </style></head><body>\n{body}</body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CampaignKind, Event};

    fn log_from(events: Vec<Event>) -> String {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| {
                TimedEvent {
                    ts_us: i as u64 * 10,
                    event,
                }
                .to_line()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::TraceStart { tool: "t".into() },
            Event::SpanBegin {
                id: 1,
                name: "ref_fi".into(),
            },
            Event::CampaignEnd {
                kind: CampaignKind::PerInst,
                injections: 200,
                elapsed_us: 1000,
                counts: OutcomeTally {
                    benign: 150,
                    sdc: 30,
                    crash: 15,
                    hang: 5,
                    ..OutcomeTally::default()
                },
                steps_executed: 4000,
                steps_skipped: 6000,
                restores: 180,
                converged: 40,
                steps_saved: 2500,
                hangs_proved: 4,
                deduped: 7,
            },
            Event::FunctionOutcomes {
                func: "main".into(),
                counts: OutcomeTally {
                    benign: 150,
                    sdc: 30,
                    crash: 15,
                    hang: 5,
                    ..OutcomeTally::default()
                },
            },
            Event::SpanEnd {
                id: 1,
                name: "ref_fi".into(),
                dur_us: 500,
            },
            Event::GaGeneration {
                input_index: 0,
                generation: 0,
                best_fitness: 2.0,
                mean_fitness: 1.0,
                population: 6,
                evals: 6,
            },
            Event::GaGeneration {
                input_index: 0,
                generation: 1,
                best_fitness: 3.0,
                mean_fitness: 1.5,
                population: 6,
                evals: 9,
            },
            Event::SearchInput {
                index: 1,
                fitness: 3.0,
                new_incubative: 2,
                total_incubative: 2,
            },
            Event::Knapsack {
                budget: 500,
                total_cycles: 1000,
                eligible: 50,
                selected: 20,
                protected_cycle_fraction: 0.5,
                expected_coverage: 0.9,
            },
            Event::CacheStats {
                hits: 3,
                misses: 1,
                entries: 1,
            },
            Event::JournalRecovery {
                records: 120,
                truncated_bytes: 7,
                dropped_records: 0,
            },
            Event::JournalStats {
                recovered: 150,
                appended: 50,
            },
            Event::EarlyStop {
                kind: CampaignKind::PerInst,
                site: 8,
                samples: 40,
                half_width: 0.04,
            },
            Event::DeadlineTruncation {
                kind: CampaignKind::PerInst,
                truncated: 12,
            },
            Event::SchedSummary {
                early_stopped_sites: 1,
                early_stop_skipped: 60,
                truncated: 12,
                completeness: 0.89,
            },
            Event::TraceEnd { dur_us: 90 },
        ]
    }

    #[test]
    fn summarize_aggregates_everything() {
        let events = parse_log(&log_from(sample_events())).unwrap();
        let s = summarize(&events);
        assert_eq!(s.tool.as_deref(), Some("t"));
        assert_eq!(s.stages.len(), 1);
        assert_eq!(s.stages[0].name, "ref_fi");
        assert_eq!(s.stages[0].total_us, 500);
        assert_eq!(s.per_inst.injections, 200);
        assert_eq!(s.per_inst.counts.sdc, 30);
        // (6000 skipped + 2500 saved) of 12500 golden-equivalent steps
        assert!((s.per_inst.savings() - 0.68).abs() < 1e-9);
        assert_eq!(s.program.campaigns, 0);
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.ga.len(), 2);
        assert_eq!(s.inputs.len(), 1);
        assert_eq!(s.cache.unwrap().hits, 3);
        assert!((s.cache.unwrap().hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(s.knapsack.unwrap().selected, 20);
        let j = s.journal.unwrap();
        assert_eq!(j.recovered_records, 120);
        assert_eq!(j.truncated_bytes, 7);
        assert_eq!(j.served, 150);
        assert_eq!(j.appended, 50);
        assert_eq!(s.open_spans, 0);
        assert_eq!(s.early_stop_events, 1);
        assert_eq!(s.truncation_events, 1);
        let r = s.sched.unwrap();
        assert_eq!(r.early_stop_skipped, 60);
        assert_eq!(r.truncated, 12);
        assert!((r.completeness - 0.89).abs() < 1e-9);
    }

    #[test]
    fn parse_log_reports_line_numbers() {
        let mut log = log_from(sample_events());
        log.push_str("\n{broken\n");
        let err = parse_log(&log).unwrap_err();
        assert_eq!(err.0, sample_events().len() + 1);
    }

    #[test]
    fn markdown_report_contains_required_sections() {
        let events = parse_log(&log_from(sample_events())).unwrap();
        let md = render_markdown(&summarize(&events));
        for needle in [
            "# minpsid trace report",
            "## Stage time breakdown",
            "| ref_fi |",
            "Per-instruction campaigns",
            "replay work saved",
            "40 injection(s) finished early",
            "2500 tail steps not replayed",
            "hang proofs: 4 of 5 hang(s) stopped",
            "7 injection(s) repeated a fault already run",
            "## Golden-run cache",
            "75.0% hit rate",
            "## GA search: fitness per generation",
            "## Knapsack selection",
            "expected SDC coverage: 90.00%",
            "## Crash-safe journal",
            "150 recovered vs 50 executed fresh",
            "## Scheduling",
            "1 early-stop, 1 deadline-truncation",
            "campaign completeness: 0.890",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn html_report_is_well_formed_enough() {
        let events = parse_log(&log_from(sample_events())).unwrap();
        let html = render_html(&summarize(&events));
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<h1>minpsid trace report</h1>"));
        assert_eq!(
            html.matches("<table>").count(),
            html.matches("</table>").count()
        );
        assert!(html.matches("<table>").count() >= 3);
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn interp_profile_section_renders_with_fusion_and_snapshot_costs() {
        let events = parse_log(&log_from(vec![Event::InterpProfile {
            sample_every: 1024,
            total_samples: 1000,
            fused_samples: 750,
            fused_sites: 30,
            total_sites: 120,
            encode_ns: 5_000_000,
            encode_ops: 10,
            restore_ns: 900_000,
            restore_ops: 9,
            samples: vec![("LoadBinStoreBr".into(), 700), ("BinII".into(), 300)],
        }]))
        .unwrap();
        let s = summarize(&events);
        let p = s.interp_profile.as_ref().unwrap();
        assert!((p.fused_sample_rate() - 0.75).abs() < 1e-12);
        assert_eq!(
            p.folded(),
            "minpsid;interp;LoadBinStoreBr 700\nminpsid;interp;BinII 300\n"
        );
        let md = render_markdown(&s);
        for needle in [
            "## Interpreter profile",
            "1000 samples, one every 1024 steps",
            "75.0% of dynamic samples in superinstructions",
            "30 of 120 static slots are fused carriers (25.0%)",
            "10 encode(s) at 500.0 µs mean, 9 restore(s) at 100.0 µs mean",
            "| LoadBinStoreBr | 700 | 70.0% |",
            "| BinII | 300 | 30.0% |",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn waterfall_renders_span_pairs_in_begin_order() {
        let log = [
            (
                0,
                Event::SpanBegin {
                    id: 1,
                    name: "plan".into(),
                },
            ),
            (
                100,
                Event::SpanEnd {
                    id: 1,
                    name: "plan".into(),
                    dur_us: 100,
                },
            ),
            (
                100,
                Event::SpanBegin {
                    id: 2,
                    name: "execute".into(),
                },
            ),
            (
                900,
                Event::SpanEnd {
                    id: 2,
                    name: "execute".into(),
                    dur_us: 800,
                },
            ),
            (
                900,
                Event::SpanBegin {
                    id: 3,
                    name: "reduce".into(),
                },
            ),
            (
                1000,
                Event::SpanEnd {
                    id: 3,
                    name: "reduce".into(),
                    dur_us: 100,
                },
            ),
        ]
        .into_iter()
        .map(|(ts_us, event)| TimedEvent { ts_us, event }.to_line())
        .collect::<Vec<_>>()
        .join("\n");
        let s = summarize(&parse_log(&log).unwrap());
        assert_eq!(s.waterfall.len(), 3);
        assert_eq!(s.waterfall[0].name, "plan");
        assert_eq!(s.waterfall[1].name, "execute");
        assert_eq!(s.waterfall[1].start_us, 100);
        assert_eq!(s.waterfall[1].dur_us, 800);
        assert_eq!(s.waterfall_dropped, 0);
        let md = render_markdown(&s);
        assert!(md.contains("## Stage waterfall"), "missing section:\n{md}");
        // execute starts after plan: its bar is offset from the margin
        let exec_row = md
            .lines()
            .find(|l| l.starts_with("| execute |") && l.contains('`'))
            .unwrap_or_else(|| panic!("no execute waterfall row in:\n{md}"));
        assert!(exec_row.contains('·'), "expected offset dots: {exec_row}");
        assert!(exec_row.contains('█'));
    }

    #[test]
    fn waterfall_is_capped_but_stage_totals_are_not() {
        let mut events = Vec::new();
        for i in 0..60u64 {
            events.push(Event::SpanBegin {
                id: i,
                name: "golden_run".into(),
            });
            events.push(Event::SpanEnd {
                id: i,
                name: "golden_run".into(),
                dur_us: 10,
            });
        }
        let s = summarize(&parse_log(&log_from(events)).unwrap());
        assert_eq!(s.waterfall.len(), 48);
        assert_eq!(s.waterfall_dropped, 12);
        assert_eq!(s.stages[0].calls, 60);
        assert!(render_markdown(&s).contains("12 later span(s) omitted"));
    }

    #[test]
    fn unended_spans_are_flagged() {
        let events = parse_log(&log_from(vec![Event::SpanBegin {
            id: 9,
            name: "search".into(),
        }]))
        .unwrap();
        let s = summarize(&events);
        assert_eq!(s.open_spans, 1);
        assert!(render_markdown(&s).contains("never ended"));
    }
}
