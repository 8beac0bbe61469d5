//! Offline trace analyzer (the `tlparse` idiom): parse a JSONL trace log
//! into a [`TraceSummary`] and render it as markdown.
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
        ratio(avoided, self.steps_executed + avoided)
    }
}

/// Everything the report renders, extracted in one pass. A kind the
/// report shows as it was logged is kept as its [`Event`]; only real
/// aggregates get a struct of their own.
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
    /// Every `ga_generation` event, in log order.
    pub ga: Vec<Event>,
    /// Every `search_input` event, in log order.
    pub inputs: Vec<Event>,
    /// The last `knapsack` event.
    pub knapsack: Option<Event>,
    /// The last `cache_stats` event.
    pub cache: Option<Event>,
    pub journal: Option<JournalStat>,
    /// Artifact-store accounting aggregated over `store_event`s.
    pub store: Option<StoreStat>,
    /// Section-cache accounting aggregated over `section_event`s.
    pub sections: Option<SectionStat>,
    /// Run-level scheduler accounting (the last `sched_summary` event).
    pub sched: Option<Event>,
    /// Raw deadline-truncation event count, present even when the run
    /// died before emitting its `sched_summary`.
    pub truncation_events: u64,
    /// Last sample of each named histogram.
    pub histograms: BTreeMap<String, Vec<(u64, u64)>>,
    /// Spans that began but never ended (crashed / truncated trace).
    pub open_spans: u64,
    /// Completed span instances in begin order, capped at
    /// [`WATERFALL_CAP`] rows.
    pub waterfall: Vec<WaterfallEntry>,
    /// Completed spans beyond the cap (not in `waterfall`).
    pub waterfall_dropped: u64,
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
    let mut begun: u64 = 0;
    let mut ended: u64 = 0;
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
                // stages and functions are listed in first-seen order
                let i = s.stages.iter().position(|st| st.name == *name);
                let i = i.unwrap_or_else(|| {
                    s.stages.push(StageStat {
                        name: name.clone(),
                        calls: 0,
                        total_us: 0,
                    });
                    s.stages.len() - 1
                });
                s.stages[i].calls += 1;
                s.stages[i].total_us += dur_us;
                // waterfall entry: begin ts if paired, else derive from
                // the end event — a span can begin on one writer and end
                // on the next, after `init_writer` replaced the first
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
                let i = s.functions.iter().position(|(f, _)| f == func);
                let i = i.unwrap_or_else(|| {
                    s.functions.push((func.clone(), OutcomeTally::default()));
                    s.functions.len() - 1
                });
                add_tally(&mut s.functions[i].1, counts);
            }
            Event::GaGeneration { .. } => s.ga.push(te.event.clone()),
            Event::SearchInput { .. } => s.inputs.push(te.event.clone()),
            Event::Knapsack { .. } => s.knapsack = Some(te.event.clone()),
            Event::CacheStats { .. } => s.cache = Some(te.event.clone()),
            // retired with the sampling profiler: an old log still reads
            Event::InterpProfile { .. } => {}
            Event::SchedSummary { .. } => s.sched = Some(te.event.clone()),
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
            Event::DeadlineTruncation { .. } => s.truncation_events += 1,
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
    s
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// `num / den`, 0 when there is nothing to divide by.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct(num: u64, den: u64) -> f64 {
    ratio(num, den) * 100.0
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

    if s.program.campaigns + s.per_inst.campaigns > 0 {
        let _ = writeln!(out, "## FI campaigns\n");
        campaign_section(&mut out, "Whole-program campaigns", &s.program);
        campaign_section(&mut out, "Per-instruction campaigns", &s.per_inst);
    }

    if !s.functions.is_empty() {
        let _ = writeln!(out, "### Outcomes per function\n");
        let _ = writeln!(
            out,
            "| function | total | benign | sdc | crash | hang | detected |\n|---|---|---|---|---|---|---|"
        );
        for (name, t) in &s.functions {
            let _ = writeln!(out, "| {} | {} |", name, tally_row(t));
        }
        let _ = writeln!(out);
    }

    if let Some(Event::CacheStats {
        hits,
        misses,
        entries,
    }) = &s.cache
    {
        let rate = pct(*hits, hits + misses);
        let _ = writeln!(out, "## Golden-run cache\n");
        let _ = writeln!(
            out,
            "{hits} hits / {misses} misses ({rate:.1}% hit rate), {entries} entries\n"
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

    if s.sched.is_some() || s.truncation_events > 0 {
        let _ = writeln!(out, "## Scheduling\n");
        let _ = writeln!(out, "- events: {} deadline-truncation", s.truncation_events);
        if let Some(Event::SchedSummary {
            truncated,
            completeness,
        }) = &s.sched
        {
            let _ = writeln!(out, "- deadline: {truncated} injection(s) truncated");
            let _ = writeln!(out, "- **campaign completeness: {completeness:.3}**");
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
        for ev in &s.ga {
            if let Event::GaGeneration {
                input_index: i,
                generation: g,
                best_fitness: best,
                mean_fitness: mean,
                ..
            } = ev
            {
                let _ = writeln!(out, "| {i} | {g} | {best:.4} | {mean:.4} |");
            }
        }
        let _ = writeln!(out);
    }

    if !s.inputs.is_empty() {
        let _ = writeln!(out, "## Accepted search inputs\n");
        let _ = writeln!(
            out,
            "| input # | fitness (distance) | new incubative | cumulative incubative |\n|---|---|---|---|"
        );
        for ev in &s.inputs {
            if let Event::SearchInput {
                index: i,
                fitness: f,
                new_incubative: new,
                total_incubative: total,
            } = ev
            {
                let _ = writeln!(out, "| {i} | {f:.4} | {new} | {total} |");
            }
        }
        let _ = writeln!(out);
    }

    if let Some(Event::Knapsack {
        budget,
        total_cycles,
        eligible,
        selected,
        protected_cycle_fraction,
        expected_coverage,
    }) = &s.knapsack
    {
        let share = pct(*budget, *total_cycles);
        let _ = writeln!(out, "## Knapsack selection\n");
        let _ = writeln!(
            out,
            "- budget: {budget} of {total_cycles} dynamic cycles ({share:.1}%)"
        );
        let _ = writeln!(
            out,
            "- selected: {selected} of {eligible} eligible instructions"
        );
        let _ = writeln!(
            out,
            "- protected cycle fraction: {:.1}%",
            protected_cycle_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "- expected SDC coverage: {:.2}%\n",
            expected_coverage * 100.0
        );
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
            Event::DeadlineTruncation {
                kind: CampaignKind::PerInst,
                truncated: 12,
            },
            Event::SchedSummary {
                truncated: 12,
                completeness: 0.89,
            },
            Event::Histogram {
                name: "fi.program.suffix_steps".into(),
                buckets: vec![(2, 1), (8, 7)],
            },
            Event::TraceEnd { dur_us: 90 },
        ]
    }

    /// Every markdown table row has as many cells as its header: a column
    /// dropped from the rows (as `engine-err` was in v10) must leave the
    /// header too. Returns the number of tables.
    fn assert_tables_are_rectangular(md: &str) -> usize {
        let mut tables = 0;
        let mut header: Option<usize> = None;
        for line in md.lines() {
            if !line.starts_with('|') {
                header = None;
                continue;
            }
            let cells = line.matches('|').count() - 1;
            match header {
                None => {
                    header = Some(cells);
                    tables += 1;
                }
                Some(n) => assert_eq!(cells, n, "row {line:?} in:\n{md}"),
            }
        }
        tables
    }

    #[test]
    fn every_table_row_has_its_headers_cell_count() {
        let events = parse_log(&log_from(sample_events())).unwrap();
        let md = render_markdown(&summarize(&events));
        // stages, waterfall, campaign, per-function, GA, inputs, histogram
        assert_eq!(assert_tables_are_rectangular(&md), 7, "{md}");
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
        assert!(matches!(s.cache, Some(Event::CacheStats { hits: 3, .. })));
        assert!(matches!(
            s.knapsack,
            Some(Event::Knapsack { selected: 20, .. })
        ));
        let j = s.journal.unwrap();
        assert_eq!(j.recovered_records, 120);
        assert_eq!(j.truncated_bytes, 7);
        assert_eq!(j.served, 150);
        assert_eq!(j.appended, 50);
        assert_eq!(s.open_spans, 0);
        assert_eq!(s.truncation_events, 1);
        assert!(matches!(
            s.sched,
            Some(Event::SchedSummary {
                truncated: 12,
                completeness,
            }) if (completeness - 0.89).abs() < 1e-9
        ));
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
            "- events: 1 deadline-truncation",
            "campaign completeness: 0.890",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn a_retired_interp_profile_event_renders_no_section() {
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
        let md = render_markdown(&summarize(&events));
        for needle in ["profile", "samples", "LoadBinStoreBr"] {
            assert!(!md.contains(needle), "{needle:?} in:\n{md}");
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
