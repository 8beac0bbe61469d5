//! Property round-trip tests for the trace event schema: any event the
//! sink can emit must parse back bit-identically from its JSONL line —
//! the guarantee that `trace report` never silently misparses a log.

use minpsid_trace::{CampaignKind, Event, OutcomeTally, TimedEvent};
use proptest::prelude::*;

fn tally(seed: [u64; 5]) -> OutcomeTally {
    OutcomeTally {
        benign: seed[0],
        sdc: seed[1],
        crash: seed[2],
        hang: seed[3],
        detected: seed[4],
    }
}

fn kind(b: bool) -> CampaignKind {
    if b {
        CampaignKind::Program
    } else {
        CampaignKind::PerInst
    }
}

fn assert_roundtrip(ts_us: u64, event: Event) -> Result<(), TestCaseError> {
    let te = TimedEvent { ts_us, event };
    let line = te.to_line();
    prop_assert!(!line.contains('\n'), "JSONL lines must be single lines");
    let back =
        TimedEvent::parse_line(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
    prop_assert_eq!(back, te, "line: {}", line);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spans_and_names_round_trip(
        ts in 0u64..u64::MAX,
        id in 0u64..u64::MAX,
        // names exercise JSON string escaping: quotes, backslashes,
        // control chars, non-ASCII
        name in ".{0,24}",
        value in 0u64..u64::MAX,
        dur in 0u64..u64::MAX,
        which in 0u8..4,
    ) {
        let event = match which {
            0 => Event::SpanBegin { id, name },
            1 => Event::SpanEnd { id, name, dur_us: dur },
            2 => Event::StoreEvent { op: name.clone(), artifact: name, bytes: value },
            _ => Event::TraceStart { tool: name },
        };
        assert_roundtrip(ts, event)?;
    }

    #[test]
    fn campaign_events_round_trip(
        ts in 0u64..u64::MAX,
        seed in proptest::collection::vec(0u64..u64::MAX, 5),
        done in 0u64..u64::MAX,
        total in 0u64..u64::MAX,
        elapsed in 0u64..u64::MAX,
        execd in 0u64..u64::MAX,
        skipped in 0u64..u64::MAX,
        restores in 0u64..u64::MAX,
        is_program in proptest::prelude::any::<bool>(),
        progress in proptest::prelude::any::<bool>(),
    ) {
        let counts = tally([seed[0], seed[1], seed[2], seed[3], seed[4]]);
        let event = if progress {
            Event::CampaignProgress {
                kind: kind(is_program),
                done,
                total,
                counts,
                elapsed_us: elapsed,
            }
        } else {
            Event::CampaignEnd {
                kind: kind(is_program),
                injections: done,
                elapsed_us: elapsed,
                counts,
                steps_executed: execd,
                steps_skipped: skipped,
                restores,
                converged: restores / 3,
                steps_saved: skipped / 2,
                hangs_proved: done / 7,
                deduped: done / 5,
            }
        };
        assert_roundtrip(ts, event)?;
    }

    #[test]
    fn float_carrying_events_round_trip(
        ts in 0u64..u64::MAX,
        index in 0u64..1_000_000,
        generation in 0u64..10_000,
        // mantissa-rich values: quotients exercise shortest-repr printing
        num in -1_000_000i64..1_000_000,
        den in 1i64..10_000,
        counts in proptest::collection::vec(0u64..100_000, 4),
        which in 0u8..3,
    ) {
        let f = num as f64 / den as f64;
        let event = match which {
            0 => Event::GaGeneration {
                input_index: index,
                generation,
                best_fitness: f,
                mean_fitness: f / 3.0,
                population: counts[0],
                evals: counts[1],
            },
            1 => Event::SearchInput {
                index,
                fitness: f,
                new_incubative: counts[0],
                total_incubative: counts[1],
            },
            _ => Event::Knapsack {
                budget: counts[0],
                total_cycles: counts[1],
                eligible: counts[2],
                selected: counts[3],
                protected_cycle_fraction: f.abs().fract(),
                expected_coverage: (f / 7.0).abs().fract(),
            },
        };
        assert_roundtrip(ts, event)?;
    }

    #[test]
    fn histograms_and_functions_round_trip(
        ts in 0u64..u64::MAX,
        name in ".{0,16}",
        buckets in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..12),
        seed in proptest::collection::vec(0u64..u64::MAX, 5),
        which in 0u8..5,
    ) {
        let event = match which {
            0 => Event::Histogram { name, buckets },
            1 => Event::FunctionOutcomes {
                func: name,
                counts: tally([seed[0], seed[1], seed[2], seed[3], seed[4]]),
            },
            2 => Event::JournalRecovery { records: seed[0], truncated_bytes: seed[1], dropped_records: seed[2] },
            3 => Event::JournalStats { recovered: seed[0], appended: seed[1] },
            _ => Event::CacheStats { hits: seed[0], misses: seed[1], entries: seed[2] },
        };
        assert_roundtrip(ts, event)?;
    }

    /// A whole log of random events survives parse_log + line ordering.
    #[test]
    fn multi_line_logs_parse_in_order(
        values in proptest::collection::vec(0u64..u64::MAX, 1..20),
    ) {
        let log: String = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                TimedEvent {
                    ts_us: i as u64,
                    event: Event::JournalStats { recovered: v, appended: i as u64 },
                }
                .to_line() + "\n"
            })
            .collect();
        let parsed = minpsid_trace::parse_log(&log)
            .map_err(|(l, e)| TestCaseError::fail(format!("line {l}: {e}")))?;
        prop_assert_eq!(parsed.len(), values.len());
        for (i, (te, &v)) in parsed.iter().zip(&values).enumerate() {
            prop_assert_eq!(te.ts_us, i as u64);
            match &te.event {
                Event::JournalStats { recovered, .. } => prop_assert_eq!(*recovered, v),
                other => return Err(TestCaseError::fail(format!("wrong kind {other:?}"))),
            }
        }
    }
}
