//! Incremental fault injection end-to-end: section-table composition
//! must be invisible when cold (byte-identical reports), a warm store
//! must serve everything, and an edit to one *leaf* function must
//! re-execute only that section (plus its callers) — the O(diff)
//! re-campaign the table layer exists for — while still producing the
//! exact bytes a from-scratch campaign of the edited program produces,
//! in both the reports and the journal's WAL. The tables are the only
//! way outcomes cross an edit: a journal of the unedited program is
//! superseded, never served to the edited one.

use minpsid_repro::faultsim::{
    golden_run, CampaignConfig, CampaignConfigBuilder, CampaignEngine, CampaignJournal, GoldenRun,
    TableMemo,
};
use minpsid_repro::interp::{ProgInput, Scalar};
use minpsid_repro::ir::Module;
use minpsid_repro::minic;
use minpsid_repro::minpsid::{input_fingerprint, module_fingerprint};
use minpsid_repro::store::ArtifactStore;
use minpsid_repro::workloads;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-incr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open_store(name: &str) -> Arc<ArtifactStore> {
    Arc::new(ArtifactStore::open(&tmp(name)).expect("open store"))
}

/// Canonical report bytes for both campaign shapes, optionally memoized
/// and optionally journaled.
fn reports(
    module: &Module,
    input: &ProgInput,
    golden: &GoldenRun,
    cfg: &CampaignConfig,
    memo: Option<&TableMemo>,
    journal: Option<&CampaignJournal>,
) -> (String, String) {
    let mut engine = CampaignEngine::new(module, input, golden, cfg);
    if let Some(j) = journal {
        engine = engine.with_journal(j, 1);
    }
    if let Some(m) = memo {
        engine = engine.with_tables(m);
    }
    let program = engine.run_program().expect("no interrupt requested");
    let per_inst = engine
        .run_per_instruction()
        .expect("no interrupt requested");
    (format!("{program:?}"), format!("{per_inst:?}"))
}

fn campaign(seed: u64, injections: u64, per_inst: u64) -> CampaignConfig {
    CampaignConfigBuilder::new(seed)
        .injections(injections)
        .and_then(|b| b.per_inst_injections(per_inst))
        .expect("valid campaign config")
        .build()
}

/// A program whose work lives in four chunky leaf functions; `main` and
/// the tiny `tweak` leaf are the only sections an edit to `tweak`
/// invalidates (callers mix callee fingerprints, so `main` re-runs too).
/// `TWEAK_V1` and `TWEAK_V2` compute the same value with the same
/// instruction count — the golden output, step count, and every other
/// section's dynamic profile are unchanged, which is exactly the
/// situation where sealed tables must survive the edit.
fn mini_source(tweak_body: &str) -> String {
    let mut heavies = String::new();
    for (name, k) in [
        ("heavy_a", 3),
        ("heavy_b", 5),
        ("heavy_c", 7),
        ("heavy_d", 11),
    ] {
        heavies.push_str(&format!(
            r#"
fn {name}(n: int) -> int {{
    let acc = 1;
    for i = 0 to n {{
        let t = i * {k} + 7;
        let u = t * t - i * 2;
        let v = u + t - 5;
        let w = v * {k} + u;
        let x = w - v + t;
        let y = x * 2 - w;
        acc = acc + y + v - u;
    }}
    return acc;
}}
"#
        ));
    }
    format!(
        r#"{heavies}
fn tweak(x: int) -> int {{
    return {tweak_body};
}}
fn main() {{
    let n = arg_i(0);
    let a = heavy_a(n);
    let b = heavy_b(n);
    let c = heavy_c(n);
    let d = heavy_d(n);
    out_i(tweak(a));
    out_i(tweak(b));
    out_i(tweak(c));
    out_i(tweak(d));
}}
"#
    )
}

const TWEAK_V1: &str = "x * 2";
const TWEAK_V2: &str = "x + x";
/// A behaviour-changing edit with the same instruction count: every
/// `heavy_*` section keeps its fingerprint and length, but no fault in
/// one can reach the output any more.
const TWEAK_ZERO: &str = "x - x";

fn mini_module(tweak_body: &str) -> (Module, ProgInput) {
    let module = minic::compile(&mini_source(tweak_body), "mini").expect("mini program compiles");
    (module, ProgInput::scalars(vec![Scalar::I(24)]))
}

/// Cold composition is invisible: a memoized engine over an empty store
/// produces byte-identical reports to a bare engine, executes everything
/// itself, and leaves sealed tables behind. A second memoized run over
/// the now-warm store re-executes nothing and still matches.
#[test]
fn cold_and_warm_memoized_campaigns_match_plain_byte_for_byte() {
    let b = workloads::by_name("hpccg").expect("workload exists");
    let (module, input) = (b.compile(), b.model.materialize(&b.model.reference()));
    let cfg = campaign(7, 60, 4);
    let golden = golden_run(&module, &input, &cfg).expect("golden run");
    let store = open_store("cold-warm");
    let input_fp = input_fingerprint(&input);

    let plain = reports(&module, &input, &golden, &cfg, None, None);

    let cold = TableMemo::new(store.clone(), input_fp);
    let got = reports(&module, &input, &golden, &cfg, Some(&cold), None);
    assert_eq!(got, plain, "cold memoized campaign diverged from plain");
    let s = cold.stats();
    assert!(s.injections_executed > 0, "cold run executed nothing");
    assert_eq!(s.injections_served, 0, "cold store served injections");
    assert!(s.tables_sealed > 0, "cold run sealed no tables");

    let warm = TableMemo::new(store, input_fp);
    let got = reports(&module, &input, &golden, &cfg, Some(&warm), None);
    assert_eq!(got, plain, "warm memoized campaign diverged from plain");
    let s = warm.stats();
    assert_eq!(
        s.injections_executed, 0,
        "warm store re-executed injections"
    );
    assert!(s.injections_served > 0, "warm store served nothing");
    assert!(s.sections_hit > 0, "warm store hit no sections");
}

/// The O(diff) acceptance check: seal tables for the v1 program, edit the
/// `tweak` leaf (same value, same instruction count, different
/// fingerprint), and re-campaign v2 against the same store. Only `tweak`
/// and its caller `main` may re-execute — more than 5x fewer injections
/// than the cold campaign — and the composed reports and journal WAL
/// must be byte-identical to a from-scratch campaign of v2.
#[test]
fn editing_one_leaf_function_reexecutes_only_its_sections() {
    let cfg = campaign(5, 120, 6);
    let store = open_store("edit-leaf");

    let (m1, input) = mini_module(TWEAK_V1);
    let g1 = golden_run(&m1, &input, &cfg).expect("v1 golden run");
    let input_fp = input_fingerprint(&input);
    let cold = TableMemo::new(store.clone(), input_fp);
    reports(&m1, &input, &g1, &cfg, Some(&cold), None);
    let cold_stats = cold.stats();
    assert!(cold_stats.tables_sealed > 0, "v1 run sealed no tables");

    let (m2, _) = mini_module(TWEAK_V2);
    let g2 = golden_run(&m2, &input, &cfg).expect("v2 golden run");
    assert_eq!(
        g1.steps, g2.steps,
        "the edit was meant to preserve the dynamic profile; the >5x \
         claim below would be vacuous otherwise"
    );

    let scratch = reports(&m2, &input, &g2, &cfg, None, None);
    let warm = TableMemo::new(store, input_fp);
    let incr = reports(&m2, &input, &g2, &cfg, Some(&warm), None);
    assert_eq!(
        incr, scratch,
        "incremental re-campaign diverged from a from-scratch campaign of the edited program"
    );

    let s = warm.stats();
    assert!(
        s.sections_hit > 0 && s.injections_served > 0,
        "no section survived the edit: {s:?}"
    );
    assert!(
        s.injections_executed > 0,
        "the edited section did not re-run: {s:?}"
    );
    assert!(
        s.injections_executed * 5 < cold_stats.injections_executed,
        "incremental re-campaign executed {} of {} cold injections — not O(diff)",
        s.injections_executed,
        cold_stats.injections_executed,
    );
}

/// Serving outcomes from tables still commits real records: a journaled
/// incremental re-campaign over the journal of the unedited program
/// writes the same WAL bytes a journaled from-scratch campaign writes, so
/// crash-resume and incrementality compose instead of conflicting.
#[test]
fn incremental_and_from_scratch_journals_are_byte_identical() {
    let cfg = campaign(9, 80, 4);
    let store = open_store("edit-wal");

    let (m1, input) = mini_module(TWEAK_V1);
    let g1 = golden_run(&m1, &input, &cfg).expect("v1 golden run");
    let input_fp = input_fingerprint(&input);
    let cold = TableMemo::new(store.clone(), input_fp);
    reports(&m1, &input, &g1, &cfg, Some(&cold), None);

    let (m2, _) = mini_module(TWEAK_V2);
    let g2 = golden_run(&m2, &input, &cfg).expect("v2 golden run");

    let scratch_dir = tmp("wal-scratch");
    let scratch_journal = CampaignJournal::open(&scratch_dir, module_fingerprint(&m2), 0, None)
        .expect("open scratch journal");
    let scratch = reports(&m2, &input, &g2, &cfg, None, Some(&scratch_journal));

    // the edit workflow: the v2 re-campaign opens the journal the v1
    // campaign wrote, which it supersedes
    let incr_dir = tmp("wal-incr");
    let v1_journal = CampaignJournal::open(&incr_dir, module_fingerprint(&m1), 0, None)
        .expect("open v1 journal");
    reports(&m1, &input, &g1, &cfg, None, Some(&v1_journal));
    drop(v1_journal);
    let incr_journal = CampaignJournal::open(&incr_dir, module_fingerprint(&m2), 0, None)
        .expect("open incremental journal over the v1 WAL");
    let warm = TableMemo::new(store, input_fp);
    let incr = reports(&m2, &input, &g2, &cfg, Some(&warm), Some(&incr_journal));

    assert_eq!(incr, scratch, "journaled reports diverged");
    assert!(
        warm.stats().injections_served > 0,
        "the incremental journal test served nothing from tables"
    );
    drop(scratch_journal);
    drop(incr_journal);
    let a = std::fs::read(scratch_dir.join("campaign.wal")).expect("scratch WAL");
    let b = std::fs::read(incr_dir.join("campaign.wal")).expect("incremental WAL");
    assert_eq!(a, b, "incremental WAL bytes diverged from from-scratch WAL");
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let _ = std::fs::remove_dir_all(&incr_dir);
}

/// Reuse across an edit is sound: seal v1, edit `tweak` so that it
/// returns 0, and re-campaign v2 through v1's journal, with and without
/// the store. v1's outcomes for the unedited `heavy_*` sites (SDCs there)
/// must not be served — the journal is superseded and the tables' golden
/// context refuses every section — so the reports equal a from-scratch
/// campaign of v2.
#[test]
fn a_behaviour_changing_edit_is_never_served_stale_outcomes() {
    let cfg = campaign(5, 60, 4);
    let (m1, input) = mini_module(TWEAK_V1);
    let (m2, _) = mini_module(TWEAK_ZERO);
    let g1 = golden_run(&m1, &input, &cfg).expect("v1 golden run");
    let g2 = golden_run(&m2, &input, &cfg).expect("v2 golden run");
    let input_fp = input_fingerprint(&input);
    let scratch = reports(&m2, &input, &g2, &cfg, None, None);
    assert_ne!(
        reports(&m1, &input, &g1, &cfg, None, None).1,
        scratch.1,
        "the edit was meant to change per-instruction outcomes"
    );

    for with_store in [false, true] {
        let dir = tmp(&format!("stale-{with_store}"));
        let store = with_store.then(|| open_store(&format!("stale-store-{with_store}")));
        let open = |m: &Module| {
            CampaignJournal::open(&dir, module_fingerprint(m), 3, store.clone())
                .expect("open journal")
        };
        let memo = || store.clone().map(|s| TableMemo::new(s, input_fp));

        let v1 = open(&m1);
        reports(&m1, &input, &g1, &cfg, memo().as_ref(), Some(&v1));
        v1.compact().expect("compact v1 journal");
        drop(v1);

        let v2 = open(&m2);
        let tables = memo();
        let incr = reports(&m2, &input, &g2, &cfg, tables.as_ref(), Some(&v2));
        assert_eq!(
            incr, scratch,
            "an edited program was served stale outcomes (store: {with_store})"
        );
        assert_eq!(v2.usage().0, 0, "the v1 journal served the edited program");
        if let Some(t) = tables {
            assert_eq!(t.stats().sections_hit, 0, "a v1 table served the edit");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Composition soundness, property form: for arbitrary campaign seeds
    /// and sizes over a genuinely multi-section program, a cold memoized
    /// campaign's composed reports are byte-identical to a monolithic
    /// (memo-free) campaign's — section planning and sealing must never
    /// perturb results.
    #[test]
    fn composed_reports_equal_monolithic_for_arbitrary_campaigns(
        seed in 0u64..1_000,
        injections in 20u64..90,
        per_inst in 2u64..6,
    ) {
        let (module, input) = mini_module(TWEAK_V1);
        let cfg = campaign(seed, injections, per_inst);
        let golden = golden_run(&module, &input, &cfg).expect("golden run");
        let plain = reports(&module, &input, &golden, &cfg, None, None);
        let store = open_store(&format!("prop-{seed}-{injections}-{per_inst}"));
        let memo = TableMemo::new(store, input_fingerprint(&input));
        let composed = reports(&module, &input, &golden, &cfg, Some(&memo), None);
        prop_assert_eq!(composed, plain, "composed cold campaign diverged from monolithic");
        prop_assert!(memo.stats().tables_sealed > 0);
    }
}
