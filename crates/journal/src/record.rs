//! Journal record types and their binary codec.
//!
//! Records are the WAL payloads: small, self-describing binary blobs
//! (tag byte + little-endian fields). The codec is hand-rolled for the
//! same reason the trace schema is: no external deps, and decode must be
//! total — any byte sequence either parses to exactly the record that
//! produced it or fails loudly, never misparses. Framing, checksums, and
//! torn-tail handling live in [`crate::wal`]; a record never sees a
//! corrupt payload.

pub use minpsid_store::bytes::Error as DecodeError;
use minpsid_store::bytes::{put_u64, Reader};

/// One durable fact about campaign progress. Keys are FNV-64
/// fingerprints computed by the caller (the journal is below the layers
/// that know about modules and inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// First record of every journal: which (module, config) the log
    /// belongs to. Only the same pair resumes. Another module under the
    /// same config (the program was edited) supersedes the log: it is
    /// rewritten to hold just the new header. Another config is refused —
    /// replaying outcomes of a different campaign would be silent garbage.
    Header { module_fp: u64, config_fp: u64 },
    /// Digest of a completed golden run for one input. Resume re-executes
    /// golden runs (they are cheap relative to campaigns) and verifies
    /// them against this digest.
    GoldenDigest {
        input_fp: u64,
        output_fp: u64,
        steps: u64,
    },
    /// Outcome of one per-instruction-campaign injection, keyed by
    /// (input, dense instruction index, repetition). The faulted bit is
    /// implied: it is drawn from an RNG seeded by exactly this key.
    PerInstOutcome {
        input_fp: u64,
        dense: u64,
        k: u64,
        outcome: u8,
    },
    /// Outcome of one whole-program-campaign injection.
    ProgramOutcome {
        input_fp: u64,
        index: u64,
        outcome: u8,
    },
    /// Memoized GA evaluation: the indexed weighted-CFG list of one
    /// candidate input, so resume replays the search without re-running
    /// the interpreter on already-evaluated candidates.
    EvalProfile { input_fp: u64, cfg_list: Vec<u64> },
    /// The search accepted input number `index` with this fingerprint
    /// (consistency check during resume).
    SearchAccepted { index: u64, input_fp: u64 },
    /// Final knapsack selection bitmap over dense instruction indices.
    Selection { bits: Vec<bool> },
    /// Retired: a site the retry scheduler removed in PR 22 gave up on.
    /// Nothing writes it and the journal's index ignores it (the site
    /// simply runs), but it still decodes — a WAL decode failure reads as
    /// a torn tail and would drop every later record of an old journal.
    Quarantine {
        input_fp: u64,
        dense: u64,
        reason: u8,
    },
    /// Retired: a module's per-section identity (`(fingerprint, dense
    /// base, instruction count)` per function), which older journals hold.
    /// Outcomes cross an edit only through the store's sealed section
    /// tables, so nothing writes or reads it, but it still decodes — like
    /// [`Record::Quarantine`].
    SectionMap { entries: Vec<(u64, u64, u64)> },
}

const TAG_HEADER: u8 = 1;
const TAG_GOLDEN: u8 = 2;
const TAG_PER_INST: u8 = 3;
const TAG_PROGRAM: u8 = 4;
const TAG_EVAL: u8 = 5;
const TAG_ACCEPTED: u8 = 6;
const TAG_SELECTION: u8 = 7;
// 8 is reserved too, but unlike 9 it did reach campaign WALs, so it is
// decoded (and ignored) rather than rejected.
const TAG_QUARANTINE: u8 = 8;
// 9 is reserved: it was `ShardUnit`, written only into the spool segments
// of the process fleet removed in PR 19 (never into a campaign WAL), and
// is never reused.
// 10 is retired like 8: older campaign WALs hold it, so it still decodes.
const TAG_SECTION_MAP: u8 = 10;

impl Record {
    /// Append the binary encoding of `self` to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Header {
                module_fp,
                config_fp,
            } => {
                buf.push(TAG_HEADER);
                put_u64(buf, *module_fp);
                put_u64(buf, *config_fp);
            }
            Record::GoldenDigest {
                input_fp,
                output_fp,
                steps,
            } => {
                buf.push(TAG_GOLDEN);
                put_u64(buf, *input_fp);
                put_u64(buf, *output_fp);
                put_u64(buf, *steps);
            }
            Record::PerInstOutcome {
                input_fp,
                dense,
                k,
                outcome,
            } => {
                buf.push(TAG_PER_INST);
                put_u64(buf, *input_fp);
                put_u64(buf, *dense);
                put_u64(buf, *k);
                buf.push(*outcome);
            }
            Record::ProgramOutcome {
                input_fp,
                index,
                outcome,
            } => {
                buf.push(TAG_PROGRAM);
                put_u64(buf, *input_fp);
                put_u64(buf, *index);
                buf.push(*outcome);
            }
            Record::EvalProfile { input_fp, cfg_list } => {
                buf.push(TAG_EVAL);
                put_u64(buf, *input_fp);
                put_u64(buf, cfg_list.len() as u64);
                for v in cfg_list {
                    put_u64(buf, *v);
                }
            }
            Record::SearchAccepted { index, input_fp } => {
                buf.push(TAG_ACCEPTED);
                put_u64(buf, *index);
                put_u64(buf, *input_fp);
            }
            Record::Selection { bits } => {
                buf.push(TAG_SELECTION);
                put_u64(buf, bits.len() as u64);
                // pack 8 selections per byte: selections cover every static
                // instruction, so the dense form matters
                let mut byte = 0u8;
                for (i, &b) in bits.iter().enumerate() {
                    if b {
                        byte |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        buf.push(byte);
                        byte = 0;
                    }
                }
                if bits.len() % 8 != 0 {
                    buf.push(byte);
                }
            }
            Record::Quarantine {
                input_fp,
                dense,
                reason,
            } => {
                buf.push(TAG_QUARANTINE);
                put_u64(buf, *input_fp);
                put_u64(buf, *dense);
                buf.push(*reason);
            }
            Record::SectionMap { entries } => {
                buf.push(TAG_SECTION_MAP);
                put_u64(buf, entries.len() as u64);
                for &(fp, base, len) in entries {
                    put_u64(buf, fp);
                    put_u64(buf, base);
                    put_u64(buf, len);
                }
            }
        }
    }

    /// Decode one record occupying the whole of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Record, DecodeError> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            TAG_HEADER => Record::Header {
                module_fp: r.u64()?,
                config_fp: r.u64()?,
            },
            TAG_GOLDEN => Record::GoldenDigest {
                input_fp: r.u64()?,
                output_fp: r.u64()?,
                steps: r.u64()?,
            },
            TAG_PER_INST => Record::PerInstOutcome {
                input_fp: r.u64()?,
                dense: r.u64()?,
                k: r.u64()?,
                outcome: r.u8()?,
            },
            TAG_PROGRAM => Record::ProgramOutcome {
                input_fp: r.u64()?,
                index: r.u64()?,
                outcome: r.u8()?,
            },
            TAG_EVAL => {
                let input_fp = r.u64()?;
                let n = r.u64()?;
                let n = r.count(n, 8)?;
                let mut cfg_list = Vec::with_capacity(n);
                for _ in 0..n {
                    cfg_list.push(r.u64()?);
                }
                Record::EvalProfile { input_fp, cfg_list }
            }
            TAG_ACCEPTED => Record::SearchAccepted {
                index: r.u64()?,
                input_fp: r.u64()?,
            },
            TAG_SELECTION => {
                let n = r.u64()?;
                // eight selections per byte
                let bytes = r
                    .count(n.div_ceil(8), 1)
                    .map_err(|_| DecodeError::LengthOverflow(n))?;
                let packed = r.take(bytes)?;
                let bits = (0..n as usize)
                    .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
                    .collect();
                Record::Selection { bits }
            }
            TAG_QUARANTINE => Record::Quarantine {
                input_fp: r.u64()?,
                dense: r.u64()?,
                reason: r.u8()?,
            },
            TAG_SECTION_MAP => {
                let n = r.u64()?;
                let n = r.count(n, 24)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.u64()?, r.u64()?, r.u64()?));
                }
                Record::SectionMap { entries }
            }
            t => return Err(DecodeError::UnknownTag(t)),
        };
        r.done()?;
        Ok(rec)
    }

    /// Encode into a fresh buffer (convenience for tests and the WAL).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40);
        self.encode(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(rec: Record) {
        let bytes = rec.to_bytes();
        assert_eq!(Record::decode(&bytes).unwrap(), rec, "bytes: {bytes:?}");
    }

    #[test]
    fn every_record_round_trips() {
        rt(Record::Header {
            module_fp: 1,
            config_fp: u64::MAX,
        });
        rt(Record::GoldenDigest {
            input_fp: 3,
            output_fp: 4,
            steps: 5,
        });
        rt(Record::PerInstOutcome {
            input_fp: 9,
            dense: 10,
            k: 11,
            outcome: 255,
        });
        rt(Record::ProgramOutcome {
            input_fp: 6,
            index: 7,
            outcome: 0,
        });
        rt(Record::EvalProfile {
            input_fp: 12,
            cfg_list: vec![],
        });
        rt(Record::EvalProfile {
            input_fp: 12,
            cfg_list: vec![0, u64::MAX, 17],
        });
        rt(Record::SearchAccepted {
            index: 2,
            input_fp: 13,
        });
        rt(Record::Selection { bits: vec![] });
        rt(Record::Selection {
            bits: vec![true, false, true, true, false, false, false, true, true],
        });
        rt(Record::Quarantine {
            input_fp: 14,
            dense: 15,
            reason: 1,
        });
        rt(Record::SectionMap { entries: vec![] });
        rt(Record::SectionMap {
            entries: vec![(0xdead_beef, 0, 12), (u64::MAX, 12, 3)],
        });
    }

    #[test]
    fn bad_tags_and_trailing_bytes_are_rejected() {
        // truncations and bit flips of every variant: tests/format_corruption.rs
        assert_eq!(Record::decode(&[99]), Err(DecodeError::UnknownTag(99)));
        let mut extra = Record::Header {
            module_fp: 1,
            config_fp: 2,
        }
        .to_bytes();
        extra.push(0);
        assert_eq!(Record::decode(&extra), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // an EvalProfile claiming u64::MAX entries must fail before the
        // Vec::with_capacity, not OOM
        let mut buf = vec![super::TAG_EVAL];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Record::decode(&buf),
            Err(DecodeError::LengthOverflow(_))
        ));
        let mut buf = vec![super::TAG_SELECTION];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Record::decode(&buf),
            Err(DecodeError::LengthOverflow(_))
        ));
        let mut buf = vec![super::TAG_SECTION_MAP];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 24]);
        assert!(matches!(
            Record::decode(&buf),
            Err(DecodeError::LengthOverflow(_))
        ));
    }
}
