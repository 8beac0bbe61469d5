//! Recovery invariants of the WAL, exercised through the public
//! [`CampaignJournal`] API: a log with a torn or bit-flipped tail
//! reopens at the last valid record, keeps its intact prefix
//! bit-identically, and persists the truncation.

use minpsid_journal::{CampaignJournal, JournalError};
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("minpsid-journal-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("campaign.wal")
}

/// Write a journal with `n` per-inst outcomes and return the wal bytes.
fn seed_journal(dir: &Path, n: u64) -> Vec<u8> {
    let j = CampaignJournal::open(dir, 0xAB, 0xCD, None).unwrap();
    for i in 0..n {
        j.record_per_inst(1, i, 0, (i % 6) as u8, true);
    }
    j.sync().unwrap();
    drop(j);
    std::fs::read(wal_path(dir)).unwrap()
}

#[test]
fn truncated_tail_reopens_at_last_valid_record() {
    let dir = tmpdir("trunc");
    let full = seed_journal(&dir, 50);

    // chop off part of the last frame (simulates a crash mid-write)
    std::fs::write(wal_path(&dir), &full[..full.len() - 7]).unwrap();
    let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
    let (recovered, truncated) = j.recovery_stats();
    assert_eq!(recovered, 49, "only the torn final record is lost");
    assert!(truncated > 0);
    for i in 0..49 {
        assert_eq!(j.per_inst_outcome(1, i, 0), Some((i % 6) as u8));
    }
    assert_eq!(j.per_inst_outcome(1, 49, 0), None);
    drop(j);

    // the truncation is durable: a second reopen sees a clean log
    let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
    assert_eq!(j.recovery_stats(), (49, 0));
}

#[test]
fn bit_flipped_tail_record_is_dropped_and_prefix_kept() {
    let dir = tmpdir("flip");
    let mut bytes = seed_journal(&dir, 30);

    // flip one bit inside the final frame's payload
    let n = bytes.len();
    bytes[n - 2] ^= 0x10;
    std::fs::write(wal_path(&dir), &bytes).unwrap();

    let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
    let (recovered, truncated) = j.recovery_stats();
    assert_eq!(recovered, 29);
    assert!(truncated > 0, "corrupt frame counts as truncated tail");
    for i in 0..29 {
        assert_eq!(j.per_inst_outcome(1, i, 0), Some((i % 6) as u8));
    }
}

#[test]
fn mid_log_corruption_keeps_only_the_prefix() {
    let dir = tmpdir("mid");
    let mut bytes = seed_journal(&dir, 40);

    // corrupt a byte roughly in the middle: everything after it is
    // untrusted (the scan cannot re-synchronize on unframed bytes)
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(wal_path(&dir), &bytes).unwrap();

    let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
    let (recovered, truncated) = j.recovery_stats();
    assert!(recovered < 40);
    assert!(truncated > 0);
    // whatever survived is the exact prefix
    for i in 0..recovered {
        assert_eq!(j.per_inst_outcome(1, i, 0), Some((i % 6) as u8));
    }
}

#[test]
fn resume_after_crash_appends_cleanly() {
    let dir = tmpdir("resume-append");
    let full = seed_journal(&dir, 20);
    std::fs::write(wal_path(&dir), &full[..full.len() - 3]).unwrap();

    // reopen (drops record 19), then write new work and reopen again:
    // the journal must hold the intact prefix plus the new records
    {
        let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
        j.record_per_inst(1, 19, 0, 5, true);
        j.record_per_inst(2, 0, 0, 3, true);
        j.sync().unwrap();
    }
    let j = CampaignJournal::open(&dir, 0xAB, 0xCD, None).unwrap();
    assert_eq!(j.recovery_stats().1, 0, "no torn tail after clean close");
    assert_eq!(j.per_inst_outcome(1, 18, 0), Some(0));
    assert_eq!(j.per_inst_outcome(1, 19, 0), Some(5));
    assert_eq!(j.per_inst_outcome(2, 0, 0), Some(3));
}

#[test]
fn wrong_run_is_refused_with_a_mismatch_error() {
    let dir = tmpdir("mismatch");
    seed_journal(&dir, 3);
    match CampaignJournal::open(&dir, 0xAB, 0xFF, None) {
        Err(JournalError::Mismatch { expected, found }) => {
            assert_eq!(expected, (0xAB, 0xFF));
            assert_eq!(found, (0xAB, 0xCD));
        }
        Err(other) => panic!("expected mismatch, got {other}"),
        Ok(_) => panic!("expected mismatch, journal opened"),
    }
}
