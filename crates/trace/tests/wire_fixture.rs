//! The v12 wire format, pinned by bytes a v12 binary wrote.
//!
//! `fixtures/v12.jsonl` holds one line per event kind, in `Event`'s
//! declaration order, copied from logs of `minpsid <kernel> --quick
//! --journal … --profile-interp`, its `--resume`, and `fi fft`. The round-trip tests show that encoder and decoder agree with
//! each other; these show that both agree with what was shipped.

use minpsid_trace::{parse_log, Event, TimedEvent};

const FIXTURE: &str = include_str!("fixtures/v12.jsonl");

/// The fixture line of `event`'s kind. Exhaustive on purpose: a new kind
/// does not compile until it has a line number here, and
/// `every_kind_has_exactly_one_fixture_line` fails until the line is there.
fn position(event: &Event) -> usize {
    match event {
        Event::TraceStart { .. } => 0,
        Event::TraceEnd { .. } => 1,
        Event::SpanBegin { .. } => 2,
        Event::SpanEnd { .. } => 3,
        Event::Histogram { .. } => 4,
        Event::CampaignProgress { .. } => 5,
        Event::CampaignEnd { .. } => 6,
        Event::FunctionOutcomes { .. } => 7,
        Event::GaGeneration { .. } => 8,
        Event::SearchInput { .. } => 9,
        Event::Knapsack { .. } => 10,
        Event::CacheStats { .. } => 11,
        Event::JournalRecovery { .. } => 12,
        Event::JournalStats { .. } => 13,
        Event::DeadlineTruncation { .. } => 14,
        Event::InterpProfile { .. } => 15,
        Event::SchedSummary { .. } => 16,
        Event::StoreEvent { .. } => 17,
        Event::SectionEvent { .. } => 18,
    }
}

/// One past the last position above.
const KINDS: usize = 19;

#[test]
fn fixture_lines_re_encode_byte_identically() {
    for (i, line) in FIXTURE.lines().enumerate() {
        let te = TimedEvent::parse_line(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(te.to_line(), line, "line {}", i + 1);
    }
}

#[test]
fn fixture_parses_in_order() {
    let events = parse_log(FIXTURE).unwrap_or_else(|(l, e)| panic!("line {l}: {e}"));
    let lines: Vec<_> = FIXTURE.lines().map(TimedEvent::parse_line).collect();
    assert_eq!(events.into_iter().map(Ok).collect::<Vec<_>>(), lines);
}

#[test]
fn every_kind_has_exactly_one_fixture_line() {
    let events = parse_log(FIXTURE).unwrap_or_else(|(l, e)| panic!("line {l}: {e}"));
    let positions: Vec<usize> = events.iter().map(|te| position(&te.event)).collect();
    assert_eq!(positions, (0..KINDS).collect::<Vec<_>>());
}
