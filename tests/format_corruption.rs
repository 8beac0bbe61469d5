//! One corruption harness over every byte format the tree persists:
//! each public decoder is fed every proper prefix and every
//! single-bit flip of a good image (`ir::bytes::mutations`) and must
//! answer with an error or with a value that is safe to use — never a
//! panic, never bytes it was not given. `faultsim::table`'s decoders are
//! crate-private; their case lives next to them.
//!
//! It also holds what stays readable of formats that lost a writer: the
//! bytes the retry scheduler removed in PR 22 left in journals and sealed
//! tables (record tag 8, outcome byte 5, the program table's per-unit
//! flag) are reserved, and a journal or store holding them is served as
//! if they were not there. The journal's section map (record tag 10)
//! lost its writer and its reader the same way.

use minpsid_repro::faultsim::{
    golden_run, CampaignConfig, CampaignEngine, Outcome, TableMemo, TABLE_ARTIFACT,
};
use minpsid_repro::interp::wire::{
    decode_checkpoints, decode_golden, encode_checkpoints, encode_golden,
};
use minpsid_repro::interp::{
    CheckpointConfig, CheckpointStore, ExecConfig, Interp, MachineState, ProgInput, Scalar,
    SnapshotMode,
};
use minpsid_repro::ir::bytes::{mutations, put_varint};
use minpsid_repro::journal::record::{DecodeError, Record};
use minpsid_repro::journal::wal::{encode_records, scan_bytes};
use minpsid_repro::journal::CampaignJournal;
use minpsid_repro::store::{ArtifactStore, Miss, StoreError};
use std::sync::Arc;

fn every_record() -> Vec<Record> {
    vec![
        Record::Header {
            module_fp: 1,
            config_fp: u64::MAX,
        },
        Record::GoldenDigest {
            input_fp: 3,
            output_fp: 4,
            steps: 5,
        },
        Record::PerInstOutcome {
            input_fp: 9,
            dense: 10,
            k: 11,
            outcome: 255,
        },
        Record::ProgramOutcome {
            input_fp: 6,
            index: 7,
            outcome: 0,
        },
        Record::EvalProfile {
            input_fp: 12,
            cfg_list: vec![0, u64::MAX, 17],
        },
        Record::SearchAccepted {
            index: 2,
            input_fp: 13,
        },
        Record::Selection {
            bits: vec![true, false, true, true, false, false, false, true, true],
        },
        Record::Quarantine {
            input_fp: 14,
            dense: 15,
            reason: 2, // the whole record is retired; old journals still open
        },
        Record::SectionMap {
            entries: vec![(0xdead_beef, 0, 12), (u64::MAX, 12, 3)],
        },
    ]
}

#[test]
fn journal_records() {
    for rec in every_record() {
        let good = rec.to_bytes();
        for bad in mutations(&good) {
            // a flip inside a field is another record, as good as any
            if let Ok(other) = Record::decode(&bad) {
                assert_eq!(bad.len(), good.len(), "{rec:?}: a truncation decoded");
                assert_eq!(Record::decode(&other.to_bytes()).as_ref(), Ok(&other));
            }
        }
    }
    // embedded lengths are refused before they are allocated or looped over
    for (tag, rest) in [(5u8, 8usize), (7, 0), (10, 0)] {
        let mut buf = vec![tag];
        buf.extend_from_slice(&vec![0; rest]);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(
            Record::decode(&buf),
            Err(DecodeError::LengthOverflow(u64::MAX)),
            "tag {tag}"
        );
    }
    // what only removed code wrote stays reserved: tag 9 (the second
    // executor's) is no record; tag 8 (the retry scheduler's quarantine)
    // reached campaign WALs, so it still decodes — to a record nothing
    // reads — and outcome byte 5 (its `EngineError`) is no outcome
    assert_eq!(Record::decode(&[9; 11]), Err(DecodeError::UnknownTag(9)));
    let retired = Record::Quarantine {
        input_fp: 14,
        dense: 15,
        reason: 1,
    };
    assert_eq!(retired.to_bytes()[0], 8);
    assert_eq!(Record::decode(&retired.to_bytes()), Ok(retired));
    assert_eq!(Outcome::from_u8(5), None);
    assert!((0..5).all(|b| Outcome::from_u8(b).map(Outcome::to_u8) == Some(b)));
}

#[test]
fn wal_images() {
    let records = every_record();
    let good = encode_records(&records);
    assert_eq!(scan_bytes(&good).records, records);
    // the image is a journal, retired records and all: a fact recorded
    // after the retired section map (tag 10) is still served
    let dir = scratch("wal-image");
    let mut image = records.clone();
    image.push(Record::PerInstOutcome {
        input_fp: 16,
        dense: 17,
        k: 0,
        outcome: 1,
    });
    std::fs::write(dir.join("campaign.wal"), encode_records(&image)).unwrap();
    let journal = CampaignJournal::open(&dir, 1, u64::MAX, None).expect("the image is a journal");
    assert!(matches!(image[image.len() - 2], Record::SectionMap { .. }));
    assert_eq!(journal.per_inst_outcome(16, 17, 0), Some(1));
    assert_eq!(journal.per_inst_outcome(9, 10, 11), Some(255));
    let _ = std::fs::remove_dir_all(&dir);
    for bad in mutations(&good) {
        let rec = scan_bytes(&bad);
        assert_eq!(rec.valid_len + rec.truncated_bytes, bad.len() as u64);
        assert!(rec.records.len() <= records.len());
        assert_eq!(
            rec.records,
            records[..rec.records.len()],
            "recovery is a prefix of what was written"
        );
        if bad.len() == good.len() {
            assert!(rec.records.len() < records.len(), "a flipped bit is seen");
        }
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("minpsid-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `campaign.wal` as the parent of PR 22 could leave it: site A gave up
/// after one `EngineError` (outcome byte 5) and was quarantined (tag 8),
/// site B recorded one `EngineError` among real outcomes. Both bytes are
/// reserved now: the journal opens, every record around them is served,
/// exactly the injections they stood for run, and the run ends at the
/// report and the (compacted) WAL of a run that never saw them.
#[test]
fn a_journal_holding_retired_records_resumes_to_the_undisturbed_run() {
    let module = minpsid_repro::minic::compile(KERNEL, "kernel").expect("kernel compiles");
    let input = ProgInput::scalars(vec![Scalar::I(9)]);
    let mut cfg = CampaignConfig::quick(5);
    cfg.per_inst_injections = 6;
    let golden = golden_run(&module, &input, &cfg).unwrap();
    let run = |dir: &std::path::Path| {
        let journal = CampaignJournal::open(dir, 1, 2, None).unwrap();
        let report = CampaignEngine::new(&module, &input, &golden, &cfg)
            .with_journal(&journal, 3)
            .run_per_instruction()
            .unwrap();
        let appended = journal.usage().1;
        journal.compact().unwrap();
        (
            report,
            appended,
            std::fs::read(dir.join("campaign.wal")).unwrap(),
        )
    };

    let calm_dir = scratch("retired-calm");
    let (calm, all, calm_wal) = run(&calm_dir);
    let records = scan_bytes(&calm_wal).records;
    let dense_of = |r: &Record| match r {
        Record::PerInstOutcome { dense, .. } => Some(*dense),
        _ => None,
    };
    let mut sites: Vec<u64> = records.iter().filter_map(dense_of).collect();
    sites.dedup();
    let (a, b) = (sites[1], sites[sites.len() - 2]);

    let retire = |r: &Record| -> Vec<Record> {
        let &Record::PerInstOutcome {
            input_fp, dense, k, ..
        } = r
        else {
            return vec![r.clone()];
        };
        let engine_error = Record::PerInstOutcome {
            input_fp,
            dense,
            k,
            outcome: 5,
        };
        let quarantine = Record::Quarantine {
            input_fp,
            dense,
            reason: 0,
        };
        match k {
            0 if dense == a => vec![engine_error, quarantine],
            _ if dense == a => vec![],
            2 if dense == b => vec![engine_error],
            _ => vec![r.clone()],
        }
    };
    let old: Vec<Record> = records.iter().flat_map(retire).collect();
    let dir = scratch("retired");
    std::fs::write(dir.join("campaign.wal"), encode_records(&old)).unwrap();
    let (resumed, appended, wal) = run(&dir);
    assert_eq!(resumed.counts, calm.counts);
    assert_eq!(resumed.status, calm.status);
    assert_eq!(
        appended,
        cfg.per_inst_injections as u64 + 1,
        "all of site A and one injection of site B ran, of {all}"
    );
    assert!(wal == calm_wal, "compacted WALs differ");
    let _ = std::fs::remove_dir_all(&calm_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program table sealed before PR 22 carries a per-unit flag byte that
/// is reserved now: 0 or 1, read and ignored. Such a table still serves
/// its section.
#[test]
fn a_program_table_with_the_reserved_byte_set_is_served() {
    let module = minpsid_repro::minic::compile(KERNEL, "kernel").expect("kernel compiles");
    let input = ProgInput::scalars(vec![Scalar::I(9)]);
    let cfg = CampaignConfig::quick(5);
    let golden = golden_run(&module, &input, &cfg).unwrap();
    let root = scratch("reserved-table");
    let store = Arc::new(ArtifactStore::open(&root).unwrap());
    let run = || {
        let memo = TableMemo::new(store.clone(), 3);
        let report = CampaignEngine::new(&module, &input, &golden, &cfg)
            .with_tables(&memo)
            .run_program()
            .unwrap();
        (report.counts, memo.stats())
    };
    let (cold, stats) = run();
    assert_eq!(stats.injections_executed, cfg.injections as u64);

    // rewrite every sealed program table with the flag of each unit set
    const HEADER: usize = 4 + 4 + 1 + 1 + 8 + 8 + 8;
    let mut rewritten = 0;
    for entry in std::fs::read_dir(root.join("refs").join(TABLE_ARTIFACT)).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let name = file.strip_suffix(".ref").expect("a ref file");
        let mut bytes = store.get(TABLE_ARTIFACT, name).unwrap();
        assert_eq!(bytes[8], b'p', "run_program seals program tables");
        let units = bytes[HEADER] as usize;
        assert!(units < 0x80 && bytes.len() == HEADER + 1 + 2 * units);
        for u in 0..units {
            assert_eq!(bytes[HEADER + 2 + 2 * u], 0, "written 0");
            bytes[HEADER + 2 + 2 * u] = 1;
        }
        store.put(TABLE_ARTIFACT, name, &bytes).unwrap();
        rewritten += units;
    }
    assert_eq!(rewritten, cfg.injections);

    let (warm, stats) = run();
    assert_eq!(warm, cold);
    assert_eq!(stats.injections_executed, 0, "{stats:?}");
    assert_eq!(stats.injections_served, cfg.injections as u64);
    let _ = std::fs::remove_dir_all(&root);
}

const KERNEL: &str = r#"
fn bump(x: int) -> int {
    return x * 3 + 1;
}
fn main() {
    let n = arg_i(0);
    let a: [int] = alloc(n);
    let acc = 0;
    for i = 0 to n {
        a[i] = bump(i) + acc;
        acc = acc + a[i] - i;
        out_i(acc);
    }
}
"#;

/// What a campaign does with a checkpoint store it decoded.
fn use_store(store: &CheckpointStore, num_insts: usize) {
    let mut st = MachineState::default();
    for i in 0..store.len() {
        for dense in 0..num_insts {
            store.inj_count_at(i, dense);
        }
        store.materialize(i);
        store.restore_into(i, &mut st);
    }
    for dense in 0..num_insts {
        store.nearest_for_inst(dense, 1);
    }
}

#[test]
fn golden_and_checkpoint_images() {
    let module = minpsid_repro::minic::compile(KERNEL, "kernel").expect("kernel compiles");
    let input = ProgInput::scalars(vec![Scalar::I(5)]);
    let interp = Interp::new(
        &module,
        ExecConfig {
            profile: true,
            ..ExecConfig::default()
        },
    );
    let steps = interp.run(&input).steps;

    for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
        let cfg = CheckpointConfig {
            interval: steps / 12,
            mode,
            keyframe_every: 4,
            ..CheckpointConfig::default()
        };
        let (run, store) = interp.run_with_checkpoint_store(&input, cfg);
        assert!(run.exited() && store.len() >= 10, "{} entries", store.len());
        let good = encode_checkpoints(&store);
        decode_checkpoints(&good).expect("the image it wrote");
        for bad in mutations(&good) {
            if let Ok(back) = decode_checkpoints(&bad) {
                assert_eq!(bad.len(), good.len(), "a truncation decoded");
                use_store(&back, module.num_insts());
            }
        }

        // a delta's memory lengths are bare varints that a restore resizes
        // to, and no single flip makes one large: written one word past
        // what a run may allocate over every one-byte field of the image
        // — the lengths among them — the image is refused or decodes to
        // states of the size it carries, never to the size it names
        if mode == SnapshotMode::Delta {
            let limit = ExecConfig::default().mem_limit;
            let mut hostile = Vec::new();
            put_varint(&mut hostile, limit + 1);
            let mut refused = 0;
            for at in (0..good.len()).filter(|&at| good[at] < 0x80) {
                let bad = [&good[..at], &hostile[..], &good[at + 1..]].concat();
                match decode_checkpoints(&bad) {
                    Ok(back) => {
                        for i in 0..back.len() {
                            let bytes = back.materialize(i).approx_bytes() as u64;
                            assert!(bytes < 8 * limit, "byte {at}: a {bytes}-byte state");
                        }
                    }
                    Err(_) => refused += 1,
                }
            }
            // both lengths of every delta (keyframes every fourth entry)
            let deltas = store.len() - store.len().div_ceil(4);
            assert!(refused >= 2 * deltas, "{refused} refusals, {deltas} deltas");
        }

        if mode == SnapshotMode::Full {
            let profile = run.profile.expect("profiled run");
            let good = encode_golden(&run.output, &profile, run.steps);
            assert_eq!(decode_golden(&good).unwrap().0, run.output);
            for bad in mutations(&good) {
                // a flip inside a field is another run, as good as any
                if let Ok(other) = decode_golden(&bad) {
                    assert_eq!(bad.len(), good.len(), "a truncation decoded");
                    let again = encode_golden(&other.0, &other.1, other.2);
                    assert_eq!(decode_golden(&again), Ok(other));
                }
            }
        }
    }
}

#[test]
fn store_objects_and_refs() {
    let root =
        std::env::temp_dir().join(format!("minpsid-format-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::open(&root).unwrap();
    let original = b"thirty-two bytes of artifact....".to_vec();
    store.put("golden", "run", &original).unwrap();
    let digest = minpsid_repro::store::sha256(&original);
    let hex = digest.hex();
    let object = root
        .join("objects")
        .join(&hex[..2])
        .join(format!("{hex}.obj"));
    assert_eq!(std::fs::read(&object).unwrap(), original);

    // verify-on-load: a rotten object is quarantined, never served
    for bad in mutations(&original) {
        std::fs::write(&object, &bad).unwrap();
        match store.load("golden", &digest) {
            Err(StoreError::Corrupt { .. }) => assert!(!object.exists(), "quarantined"),
            other => panic!("served {other:?} for a corrupt object"),
        }
        assert_eq!(store.get("golden", "run"), Err(Miss::Absent));
    }
    std::fs::write(&object, &original).unwrap();

    // a rotten ref reads as absent (or unreadable), never as other bytes
    let ref_file = root.join("refs").join("golden").join("run.ref");
    let good_ref = std::fs::read(&ref_file).unwrap();
    for bad in mutations(&good_ref) {
        std::fs::write(&ref_file, &bad).unwrap();
        if let Ok(bytes) = store.get("golden", "run") {
            assert_eq!(bytes, original);
        }
    }
    std::fs::write(&ref_file, &good_ref).unwrap();
    assert_eq!(store.get("golden", "run").unwrap(), original);
    let _ = std::fs::remove_dir_all(&root);
}
