//! End-to-end tracing: run a small MINPSID pipeline with the trace sink
//! attached, then feed the captured log to the offline analyzer and check
//! the report sees the pipeline's structure — stage spans in order,
//! non-zero campaign counts, checkpoint savings, GA curves, knapsack and
//! cache summaries. Then, with a fresh sink, that a deadline-truncated
//! campaign of either shape emits one `deadline_truncation` event.
//!
//! The sink is process-wide state, so this file holds exactly one test
//! function (integration-test files are separate binaries, which isolates
//! it from the rest of the suite).

use minpsid_repro::faultsim::{golden_run, CampaignConfig, CampaignEngine, Deadline, Scheduler};
use minpsid_repro::interp::{ProgInput, Stream};
use minpsid_repro::minpsid::{
    run_minpsid_cached, GaConfig, GoldenCache, InputModel, MinpsidConfig, ParamSpec, ParamValue,
};
use minpsid_repro::trace::{self, CampaignKind, Event, TimedEvent};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Shared in-memory writer capturing the JSONL stream.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Model {
    spec: Vec<ParamSpec>,
}

impl InputModel for Model {
    fn spec(&self) -> &[ParamSpec] {
        &self.spec
    }

    fn materialize(&self, params: &[ParamValue]) -> ProgInput {
        let n = params[0].as_i().max(1) as usize;
        let base = params[1].as_i();
        let mut rng = StdRng::seed_from_u64(params[2].as_i() as u64);
        let data: Vec<i64> = (0..n).map(|_| base + rng.random_range(0..20i64)).collect();
        ProgInput::new(vec![], vec![Stream::I(data)])
    }

    fn reference(&self) -> Vec<ParamValue> {
        vec![ParamValue::I(24), ParamValue::I(5), ParamValue::I(42)]
    }
}

fn kind_positions(events: &[TimedEvent], want: &str) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.event.kind() == want)
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn traced_pipeline_round_trips_into_the_analyzer() {
    let module = minic::compile(
        r#"
        fn main() {
            let n = data_len(0);
            let acc = 0;
            for i = 0 to n {
                let v = data_i(0, i);
                if v > 50 { acc = acc + v * 3 + 17; } else { acc = acc + 1; }
            }
            out_i(acc);
        }
        "#,
        "trace-integration",
    )
    .unwrap();
    let model = Model {
        spec: vec![
            ParamSpec::int("n", 16, 48),
            ParamSpec::int("base", 0, 100),
            ParamSpec::int("seed", 0, 1_000_000),
        ],
    };
    let cfg = MinpsidConfig {
        protection_level: 0.5,
        campaign: CampaignConfig {
            injections: 120,
            per_inst_injections: 8,
            seed: 7,
            ..CampaignConfig::default()
        },
        ga: GaConfig {
            population: 5,
            max_generations: 3,
            seed: 11,
            ..GaConfig::default()
        },
        max_inputs: 4,
        stagnation_patience: 2,
        ..MinpsidConfig::default()
    };

    let buf = Buf::default();
    trace::init_writer(Box::new(buf.clone()));
    assert!(trace::active());
    let cache = GoldenCache::new();
    let result = run_minpsid_cached(&module, &model, &cfg, &cache).unwrap();
    trace::shutdown().unwrap();
    assert!(!trace::active());

    // every emitted line deserializes under the strict schema
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let events = trace::parse_log(&text).expect("every line parses");
    assert!(events.len() > 10, "a pipeline emits a real event stream");

    // framing and ordering: trace_start first, trace_end last, monotone
    // timestamps in between
    assert_eq!(events.first().unwrap().event.kind(), "trace_start");
    assert_eq!(events.last().unwrap().event.kind(), "trace_end");
    assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));

    // stage spans appear, and in pipeline order: ref_fi before the first
    // search, search before select_transform
    for stage in [
        "minpsid_pipeline",
        "ref_fi",
        "search",
        "incubative_fi",
        "select_transform",
    ] {
        assert!(
            events.iter().any(|e| matches!(
                &e.event,
                Event::SpanBegin { name, .. } if name == stage
            )),
            "missing span `{stage}`"
        );
    }
    let pos = |stage: &str| {
        events
            .iter()
            .position(|e| matches!(&e.event, Event::SpanBegin { name, .. } if name == stage))
            .unwrap()
    };
    assert!(pos("ref_fi") < pos("search"));
    assert!(pos("search") < pos("incubative_fi"));
    assert!(pos("incubative_fi") < pos("select_transform"));

    // every span that begins also ends
    let begins = kind_positions(&events, "span_begin").len();
    let ends = kind_positions(&events, "span_end").len();
    assert_eq!(begins, ends, "all spans closed");

    // FI campaigns ran and accounted for every injection
    let campaign_ends: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.event {
            Event::CampaignEnd {
                injections, counts, ..
            } => Some((*injections, *counts)),
            _ => None,
        })
        .collect();
    assert!(!campaign_ends.is_empty(), "campaign_end events present");
    let total: u64 = campaign_ends.iter().map(|(n, _)| n).sum();
    assert!(total > 0, "non-zero injections traced");
    for (n, counts) in &campaign_ends {
        assert_eq!(counts.total(), *n, "tally accounts for every injection");
    }

    // the per-input search series matches the pipeline's own accounting
    let inputs = kind_positions(&events, "search_input").len();
    assert_eq!(inputs, result.inputs_searched);
    assert!(
        !kind_positions(&events, "ga_generation").is_empty(),
        "GA generations traced"
    );
    assert_eq!(kind_positions(&events, "knapsack").len(), 1);
    assert_eq!(kind_positions(&events, "cache_stats").len(), 1);

    // the analyzer agrees with the raw stream and renders the report
    let summary = trace::summarize(&events);
    assert_eq!(summary.open_spans, 0);
    assert!(summary.per_inst.injections > 0);
    assert_eq!(summary.per_inst.counts.total(), summary.per_inst.injections);
    assert!(
        summary.per_inst.steps_skipped > 0,
        "checkpointed campaigns skip replay work"
    );
    assert!(summary.cache.is_some());
    assert!(summary.knapsack.is_some());
    assert!(!summary.ga.is_empty());

    let md = trace::render_markdown(&summary);
    for section in [
        "## Stage time breakdown",
        "## FI campaigns",
        "## Golden-run cache",
        "## GA search: fitness per generation",
        "## Knapsack selection",
        "replay work saved",
    ] {
        assert!(md.contains(section), "report missing `{section}`:\n{md}");
    }
    for stage in ["ref_fi", "incubative_fi", "select_transform"] {
        assert!(md.contains(stage), "report missing stage `{stage}`");
    }

    // a campaign the deadline cut reports its truncation once, with the
    // total, whichever shape it has (the per-instruction one used to emit
    // an event per site)
    let buf = Buf::default();
    trace::init_writer(Box::new(buf.clone()));
    let input = model.materialize(&model.reference());
    let golden = golden_run(&module, &input, &cfg.campaign).unwrap();
    let sched = Scheduler::new(cfg.campaign.sched.clone(), Deadline::from_secs(Some(0.0)));
    let engine =
        CampaignEngine::new(&module, &input, &golden, &cfg.campaign).with_scheduler(&sched);
    let program = engine.run_program().unwrap();
    let per_inst = engine.run_per_instruction().unwrap();
    trace::shutdown().unwrap();
    assert_eq!(program.truncated, cfg.campaign.injections as u64);
    assert!(per_inst.counts.iter().all(|c| c.total() == 0));
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let truncations: Vec<_> = trace::parse_log(&text)
        .expect("every line parses")
        .into_iter()
        .filter_map(|e| match e.event {
            Event::DeadlineTruncation { kind, truncated } => Some((kind, truncated)),
            _ => None,
        })
        .collect();
    let snap = sched.snapshot();
    assert_eq!(
        truncations,
        [
            (CampaignKind::Program, program.truncated),
            (CampaignKind::PerInst, snap.truncated - program.truncated),
        ]
    );
    assert_eq!(snap.accounted(), snap.planned);
}
