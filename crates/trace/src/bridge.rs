//! Trace → metrics bridge: an in-process [`crate::sink`] observer that
//! mirrors the event stream into a [`Registry`] (for `/metrics`) and a
//! [`StatusBoard`] (for `/status`).
//!
//! The bridge is the only place that knows both vocabularies. Events are
//! already flowing for the JSONL trace; translating them here means the
//! engine, scheduler, and interpreter need no second instrumentation
//! path, and the live endpoints stay byte-for-byte irrelevant to the
//! trace itself (the observer only *reads* events).
//!
//! Outcome tallies arrive as absolute snapshots (`CampaignProgress`
//! carries the workers' cumulative counts), while Prometheus counters
//! must only ever move forward by increments — the bridge keeps the
//! previous tally per campaign kind and feeds the registry deltas.

use crate::event::{CampaignKind, Event, OutcomeTally, TimedEvent};
use minpsid_metrics::{CampaignView, QuarantineEntry, Registry, StatusBoard};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Buckets for stage-span durations (seconds): campaign stages range from
/// sub-millisecond golden runs to multi-minute execute phases.
const SPAN_BOUNDS: [f64; 8] = [0.001, 0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0];

struct KindState {
    /// The running campaign's last absolute tally (zero between
    /// campaigns): counters advance by the difference to it.
    prev: OutcomeTally,
    view: CampaignView,
}

struct BridgeState {
    per_kind: BTreeMap<&'static str, KindState>,
}

/// Install an observer on the global sink that forwards every event into
/// `registry` and `board`. `workload` labels the campaign views and
/// per-outcome series (the event stream itself only carries the campaign
/// *kind*; the caller knows which workload is being screened).
///
/// The observer lives until [`crate::sink::shutdown`] clears it.
pub fn install(registry: Arc<Registry>, board: Arc<StatusBoard>, workload: &str) {
    let workload = workload.to_string();
    let state = Mutex::new(BridgeState {
        per_kind: BTreeMap::new(),
    });
    crate::sink::add_observer(move |ev| {
        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
        apply(&mut st, ev, &registry, &board, &workload);
    });
}

fn outcome_counter(
    registry: &Registry,
    workload: &str,
    kind: &'static str,
    outcome: &str,
    delta: u64,
) {
    if delta == 0 {
        return;
    }
    registry
        .counter(
            "minpsid_injections_total",
            "Finished fault injections by campaign kind and outcome.",
            &[("workload", workload), ("kind", kind), ("outcome", outcome)],
        )
        .add(delta);
}

#[allow(clippy::too_many_arguments)]
fn apply_tally(
    st: &mut BridgeState,
    registry: &Registry,
    workload: &str,
    kind: CampaignKind,
    counts: &OutcomeTally,
    done: u64,
    total: u64,
    elapsed_us: u64,
    finished: bool,
) {
    let kind_str = kind.as_str();
    let entry = st.per_kind.entry(kind_str).or_insert_with(|| KindState {
        prev: OutcomeTally::default(),
        view: CampaignView {
            workload: workload.to_string(),
            kind: kind_str.to_string(),
            ..CampaignView::default()
        },
    });
    // Counters advance by delta from the previous absolute snapshot. A
    // tally that went backwards belongs to another campaign (one whose
    // predecessor's end was never seen, or campaigns of one kind
    // interleaving in one process, as parallel tests do): count it from
    // zero — an observer must not take the campaign down on underflow.
    let mut p = entry.prev;
    let went_backwards = [
        (p.benign, counts.benign),
        (p.sdc, counts.sdc),
        (p.crash, counts.crash),
        (p.hang, counts.hang),
        (p.detected, counts.detected),
        (p.engine_error, counts.engine_error),
    ]
    .iter()
    .any(|(before, now)| before > now);
    if went_backwards {
        p = OutcomeTally::default();
    }
    outcome_counter(
        registry,
        workload,
        kind_str,
        "benign",
        counts.benign - p.benign,
    );
    outcome_counter(registry, workload, kind_str, "sdc", counts.sdc - p.sdc);
    outcome_counter(
        registry,
        workload,
        kind_str,
        "crash",
        counts.crash - p.crash,
    );
    outcome_counter(registry, workload, kind_str, "hang", counts.hang - p.hang);
    outcome_counter(
        registry,
        workload,
        kind_str,
        "detected",
        counts.detected - p.detected,
    );
    outcome_counter(
        registry,
        workload,
        kind_str,
        "engine_error",
        counts.engine_error - p.engine_error,
    );
    // the next campaign of this kind starts its tally from zero again
    entry.prev = if finished {
        OutcomeTally::default()
    } else {
        *counts
    };

    let labels = [("workload", workload), ("kind", kind_str)];
    registry
        .gauge(
            "minpsid_campaign_done",
            "Injections finished so far in the campaign.",
            &labels,
        )
        .set(done as f64);
    registry
        .gauge(
            "minpsid_campaign_total",
            "Injections planned for the campaign.",
            &labels,
        )
        .set(total as f64);
    registry
        .gauge(
            "minpsid_campaign_elapsed_seconds",
            "Wall-clock time spent in the campaign so far.",
            &labels,
        )
        .set(elapsed_us as f64 / 1e6);

    let v = &mut entry.view;
    v.done = done;
    v.total = total;
    v.sdc = counts.sdc;
    v.benign = counts.benign;
    v.crash = counts.crash;
    v.timeout = counts.hang;
    v.elapsed_us = elapsed_us;
    v.finished = finished;
    v.eta_us = if finished {
        Some(0)
    } else if done > 0 && total > done {
        // Linear extrapolation from the throughput so far.
        Some((elapsed_us as u128 * (total - done) as u128 / done as u128) as u64)
    } else {
        None
    };
}

fn apply(
    st: &mut BridgeState,
    ev: &TimedEvent,
    registry: &Registry,
    board: &StatusBoard,
    workload: &str,
) {
    match &ev.event {
        Event::TraceStart { tool } => board.set_tool(tool),
        Event::SpanEnd { name, dur_us, .. } => {
            registry
                .histogram(
                    "minpsid_span_duration_seconds",
                    "Duration of named pipeline stages.",
                    &[("stage", name)],
                    &SPAN_BOUNDS,
                )
                .observe(*dur_us as f64 / 1e6);
        }
        Event::CampaignProgress {
            kind,
            done,
            total,
            counts,
            elapsed_us,
        } => {
            apply_tally(
                st,
                registry,
                workload,
                *kind,
                counts,
                *done,
                *total,
                *elapsed_us,
                false,
            );
            board.upsert_campaign(st.per_kind[kind.as_str()].view.clone());
        }
        Event::CampaignEnd {
            kind,
            injections,
            elapsed_us,
            counts,
            converged,
            steps_saved,
            deduped,
            ..
        } => {
            // one end event per campaign, so its totals are the deltas
            if *deduped > 0 {
                registry
                    .counter(
                        "minpsid_deduped_injections_total",
                        "Injections that repeated a fault already run at their site and took its outcome.",
                        &[("workload", workload), ("kind", kind.as_str())],
                    )
                    .add(*deduped);
            }
            if *converged > 0 {
                let labels = [("workload", workload), ("kind", kind.as_str())];
                registry
                    .counter(
                        "minpsid_converged_injections_total",
                        "Injections finished early at a golden checkpoint their state had converged onto.",
                        &labels,
                    )
                    .add(*converged);
                registry
                    .counter(
                        "minpsid_convergence_steps_saved_total",
                        "Dynamic steps not replayed because the injection had converged onto the golden run.",
                        &labels,
                    )
                    .add(*steps_saved);
            }
            // `total` is not carried by the end event; the final plan size
            // equals the injections actually finished plus whatever the
            // scheduler skipped, which the view already holds from the
            // last progress sample — keep the larger of the two.
            let prev_total = st
                .per_kind
                .get(kind.as_str())
                .map_or(0, |k| k.view.total)
                .max(*injections);
            apply_tally(
                st,
                registry,
                workload,
                *kind,
                counts,
                *injections,
                prev_total,
                *elapsed_us,
                true,
            );
            board.upsert_campaign(st.per_kind[kind.as_str()].view.clone());
        }
        Event::RetryAttempt { .. } => {
            board.add_retry();
            registry
                .counter(
                    "minpsid_sched_retries_total",
                    "Scheduler retry attempts across all campaigns.",
                    &[],
                )
                .inc();
        }
        Event::Quarantine {
            kind,
            site,
            failures,
            ..
        } => {
            board.push_quarantine(QuarantineEntry {
                workload: workload.to_string(),
                site: format!("{}#{site}", kind.as_str()),
                failures: *failures,
            });
            registry
                .counter(
                    "minpsid_sched_quarantined_sites_total",
                    "Injection sites quarantined after exhausting retries.",
                    &[],
                )
                .inc();
        }
        Event::EarlyStop { .. } => {
            board.add_early_stop();
            registry
                .counter(
                    "minpsid_sched_early_stopped_sites_total",
                    "Sites stopped early after their Wilson interval narrowed.",
                    &[],
                )
                .inc();
        }
        Event::DeadlineTruncation { .. } => {
            board.add_deadline_truncation();
            registry
                .counter(
                    "minpsid_sched_deadline_truncations_total",
                    "Campaigns truncated by the wall-clock deadline.",
                    &[],
                )
                .inc();
        }
        Event::SchedSummary { completeness, .. } => {
            registry
                .gauge(
                    "minpsid_campaign_completeness",
                    "Scheduler-reported completeness score in [0, 1].",
                    &[("workload", workload)],
                )
                .set(*completeness);
            // Stamp completeness onto every live view so `/status` shows it.
            for k in st.per_kind.values_mut() {
                k.view.completeness = Some(*completeness);
                board.upsert_campaign(k.view.clone());
            }
        }
        Event::StoreEvent { op, artifact, .. } => {
            registry
                .counter(
                    "minpsid_store_ops_total",
                    "Artifact-store operations (publish/load/quarantine/scrub/…) by artifact class.",
                    &[("workload", workload), ("op", op), ("artifact", artifact)],
                )
                .inc();
        }
        Event::SectionEvent { action, units, .. } => {
            registry
                .counter(
                    "minpsid_section_events_total",
                    "Incremental-campaign section-table dispositions (hit/miss/recompute/compose).",
                    &[("workload", workload), ("action", action.as_str())],
                )
                .inc();
            if matches!(action, crate::event::SectionAction::Hit) {
                registry
                    .counter(
                        "minpsid_section_injections_served_total",
                        "Injection outcomes served from sealed section tables instead of executing.",
                        &[("workload", workload)],
                    )
                    .add(*units);
            }
        }
        Event::InterpProfile {
            sample_every,
            total_samples,
            fused_samples,
            ..
        } => {
            registry
                .counter(
                    "minpsid_interp_profile_samples_total",
                    "Interpreter profiler samples taken.",
                    &[],
                )
                .add(*total_samples);
            registry
                .counter(
                    "minpsid_interp_profile_fused_samples_total",
                    "Interpreter profiler samples landing on fused superinstructions.",
                    &[],
                )
                .add(*fused_samples);
            registry
                .gauge(
                    "minpsid_interp_profile_sample_interval_steps",
                    "Dynamic steps between profiler samples.",
                    &[],
                )
                .set(*sample_every as f64);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minpsid_metrics::SampleValue;

    fn tally(benign: u64, sdc: u64) -> OutcomeTally {
        OutcomeTally {
            benign,
            sdc,
            ..OutcomeTally::default()
        }
    }

    fn ev(event: Event) -> TimedEvent {
        TimedEvent { ts_us: 0, event }
    }

    /// Drives `apply` directly (not through the global sink) so this test
    /// does not fight other tests over process-wide observer state.
    #[test]
    fn bridge_translates_events_into_registry_and_board() {
        let registry = Registry::new();
        let board = StatusBoard::new();
        let mut st = BridgeState {
            per_kind: BTreeMap::new(),
        };
        let mut feed = |e: Event| apply(&mut st, &ev(e), &registry, &board, "hpccg");

        feed(Event::TraceStart {
            tool: "minpsid test".into(),
        });
        feed(Event::CampaignProgress {
            kind: CampaignKind::Program,
            done: 10,
            total: 40,
            counts: tally(8, 2),
            elapsed_us: 1_000_000,
        });
        // Second absolute snapshot: counters must advance by the delta,
        // not re-add the cumulative totals.
        feed(Event::CampaignProgress {
            kind: CampaignKind::Program,
            done: 20,
            total: 40,
            counts: tally(15, 5),
            elapsed_us: 2_000_000,
        });
        feed(Event::RetryAttempt {
            kind: CampaignKind::Program,
            site: 7,
            attempt: 1,
            backoff_ms: 10,
            reason: "panic".into(),
        });
        feed(Event::Quarantine {
            kind: CampaignKind::Program,
            site: 7,
            failures: 3,
            reason: "panic".into(),
        });
        feed(Event::SchedSummary {
            retries: 1,
            recovered: 0,
            exhausted: 1,
            quarantined_sites: 1,
            quarantined_injections: 2,
            early_stopped_sites: 0,
            early_stop_skipped: 0,
            truncated: 0,
            completeness: 0.95,
        });
        feed(Event::CampaignEnd {
            kind: CampaignKind::Program,
            injections: 38,
            elapsed_us: 4_000_000,
            counts: tally(30, 8),
            steps_executed: 1000,
            steps_skipped: 500,
            restores: 38,
            converged: 9,
            steps_saved: 700,
            deduped: 0,
        });

        let snap = registry.snapshot();
        let find = |name: &str, label: Option<(&str, &str)>| -> SampleValue {
            snap.iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("family {name} registered"))
                .series
                .iter()
                .find(|s| {
                    label.is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("series in {name}"))
                .value
                .clone()
        };
        assert_eq!(
            find("minpsid_injections_total", Some(("outcome", "benign"))),
            SampleValue::Counter(30),
            "cumulative snapshots fed as deltas"
        );
        assert_eq!(
            find("minpsid_injections_total", Some(("outcome", "sdc"))),
            SampleValue::Counter(8)
        );
        assert_eq!(
            find("minpsid_sched_retries_total", None),
            SampleValue::Counter(1)
        );
        assert_eq!(
            find("minpsid_sched_quarantined_sites_total", None),
            SampleValue::Counter(1)
        );
        assert_eq!(
            find("minpsid_campaign_done", None),
            SampleValue::Gauge(38.0)
        );

        let doc = board.render_json_at(0);
        assert!(doc.contains("\"tool\":\"minpsid test\""), "{doc}");
        assert!(doc.contains("\"workload\":\"hpccg\""), "{doc}");
        assert!(doc.contains("\"done\":38"), "{doc}");
        assert!(doc.contains("\"finished\":true"), "{doc}");
        assert!(doc.contains("\"completeness\":0.95"), "{doc}");
        assert!(doc.contains("\"site\":\"program#7\""), "{doc}");
        assert!(doc.contains("\"retries\":1"), "{doc}");
    }

    /// A pipeline run with a status endpoint runs one campaign of a kind
    /// per input, all in one process: each restarts its tally at zero, and
    /// the counters must carry on from the previous campaign's totals.
    #[test]
    fn second_campaign_of_a_kind_adds_to_the_first() {
        let registry = Registry::new();
        let board = StatusBoard::new();
        let mut st = BridgeState {
            per_kind: BTreeMap::new(),
        };
        let mut feed = |e: Event| apply(&mut st, &ev(e), &registry, &board, "fft");
        for (progress, end) in [(tally(8, 2), tally(30, 8)), (tally(3, 1), tally(11, 4))] {
            feed(Event::CampaignProgress {
                kind: CampaignKind::PerInst,
                done: progress.benign + progress.sdc,
                total: 60,
                counts: progress,
                elapsed_us: 1_000,
            });
            feed(Event::CampaignEnd {
                kind: CampaignKind::PerInst,
                injections: end.benign + end.sdc,
                elapsed_us: 2_000,
                counts: end,
                steps_executed: 0,
                steps_skipped: 0,
                restores: 0,
                converged: 0,
                steps_saved: 0,
                deduped: 0,
            });
        }
        let count = |outcome: &str| {
            registry
                .snapshot()
                .iter()
                .find(|f| f.name == "minpsid_injections_total")
                .expect("family registered")
                .series
                .iter()
                .find(|s| s.labels.iter().any(|(k, v)| k == "outcome" && v == outcome))
                .map(|s| s.value.clone())
        };
        assert_eq!(count("benign"), Some(SampleValue::Counter(30 + 11)));
        assert_eq!(count("sdc"), Some(SampleValue::Counter(8 + 4)));

        // a tally below the running one (another campaign's, interleaved)
        // restarts the count instead of underflowing
        for counts in [tally(20, 5), tally(2, 0)] {
            feed(Event::CampaignProgress {
                kind: CampaignKind::PerInst,
                done: counts.benign + counts.sdc,
                total: 60,
                counts,
                elapsed_us: 3_000,
            });
        }
        assert_eq!(
            count("benign"),
            Some(SampleValue::Counter(30 + 11 + 20 + 2))
        );
    }

    #[test]
    fn bridge_counts_store_ops_by_op_and_artifact() {
        let registry = Registry::new();
        let board = StatusBoard::new();
        let mut st = BridgeState {
            per_kind: BTreeMap::new(),
        };
        let mut feed = |e: Event| apply(&mut st, &ev(e), &registry, &board, "hpccg");
        feed(Event::StoreEvent {
            op: "publish".into(),
            artifact: "golden".into(),
            bytes: 100,
        });
        feed(Event::StoreEvent {
            op: "publish".into(),
            artifact: "golden".into(),
            bytes: 100,
        });
        feed(Event::StoreEvent {
            op: "quarantine".into(),
            artifact: "ckpt".into(),
            bytes: 64,
        });

        let snap = registry.snapshot();
        let fam = snap
            .iter()
            .find(|f| f.name == "minpsid_store_ops_total")
            .expect("store counter family registered");
        let value = |op: &str, artifact: &str| {
            fam.series
                .iter()
                .find(|s| {
                    s.labels.iter().any(|(k, v)| k == "op" && v == op)
                        && s.labels
                            .iter()
                            .any(|(k, v)| k == "artifact" && v == artifact)
                })
                .map(|s| s.value.clone())
        };
        assert_eq!(value("publish", "golden"), Some(SampleValue::Counter(2)));
        assert_eq!(value("quarantine", "ckpt"), Some(SampleValue::Counter(1)));
    }

    #[test]
    fn section_events_become_hit_rate_counters() {
        use crate::event::SectionAction;
        let registry = Registry::new();
        let board = StatusBoard::new();
        let mut st = BridgeState {
            per_kind: BTreeMap::new(),
        };
        let mut feed = |action: SectionAction, units: u64| {
            apply(
                &mut st,
                &ev(Event::SectionEvent {
                    fp: 0xabcd,
                    action,
                    units,
                }),
                &registry,
                &board,
                "hpccg",
            )
        };
        feed(SectionAction::Hit, 100);
        feed(SectionAction::Hit, 20);
        feed(SectionAction::Miss, 0);
        feed(SectionAction::Recompute, 0);
        feed(SectionAction::Compose, 3);

        let snap = registry.snapshot();
        let fam = snap
            .iter()
            .find(|f| f.name == "minpsid_section_events_total")
            .expect("section counter family registered");
        let by_action = |a: &str| {
            fam.series
                .iter()
                .find(|s| s.labels.iter().any(|(k, v)| k == "action" && v == a))
                .map(|s| s.value.clone())
        };
        assert_eq!(by_action("hit"), Some(SampleValue::Counter(2)));
        assert_eq!(by_action("miss"), Some(SampleValue::Counter(1)));
        assert_eq!(by_action("recompute"), Some(SampleValue::Counter(1)));
        assert_eq!(by_action("compose"), Some(SampleValue::Counter(1)));
        let served = snap
            .iter()
            .find(|f| f.name == "minpsid_section_injections_served_total")
            .expect("served counter registered");
        assert_eq!(served.series[0].value, SampleValue::Counter(120));
    }

    #[test]
    fn eta_extrapolates_linearly_then_zeroes_at_finish() {
        let registry = Registry::new();
        let board = StatusBoard::new();
        let mut st = BridgeState {
            per_kind: BTreeMap::new(),
        };
        let mut feed = |e: Event| apply(&mut st, &ev(e), &registry, &board, "fft");
        feed(Event::CampaignProgress {
            kind: CampaignKind::PerInst,
            done: 25,
            total: 100,
            counts: tally(25, 0),
            elapsed_us: 1_000_000,
        });
        // 25 done in 1s -> 75 remaining at the same rate = 3s.
        assert!(board.render_json_at(0).contains("\"eta_us\":3000000"));
        feed(Event::CampaignEnd {
            kind: CampaignKind::PerInst,
            injections: 100,
            elapsed_us: 4_000_000,
            counts: tally(100, 0),
            steps_executed: 0,
            steps_skipped: 0,
            restores: 0,
            converged: 0,
            steps_saved: 0,
            deduped: 0,
        });
        let doc = board.render_json_at(0);
        assert!(doc.contains("\"eta_us\":0"), "{doc}");
        assert!(doc.contains("\"finished\":true"), "{doc}");
    }
}
