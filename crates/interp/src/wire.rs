//! Wire codec for persistable golden-run artifacts.
//!
//! Two artifact classes cross the process boundary into the
//! content-addressed store: the golden *meta* (output stream, profile,
//! step count) and the golden *checkpoint store* (keyframes + delta
//! chains). Both get a compact little-endian binary encoding here —
//! deterministic (equal values encode to equal bytes, so the store
//! dedups them by content) and **checked** on the way back in: the
//! reader never panics on malformed bytes, never allocates more than
//! the input could possibly describe, and returns a typed
//! [`WireError`] instead. Digest verification in the store catches
//! bit rot before decode; the checked reader is the second wall, so a
//! store bug or a foreign file can at worst produce an error, not UB
//! or an abort.
//!
//! Integers are varint-encoded (LEB128, ≤ 10 bytes) except raw memory
//! words, which stay fixed 8-byte LE — HPC heaps are dense with
//! high-entropy floats where varints only add bytes.

use crate::exec::{Frame, MachineState};
use crate::profile::Profile;
use crate::snapshot::{
    CheckpointStore, FrameDiff, FramesDelta, SnapBody, SnapDelta, Snapshot, StoredSnap,
};
use crate::value::{Output, OutputItem, Value};
pub use minpsid_ir::bytes::Error as WireError;
use minpsid_ir::bytes::{put_u32, put_u64, put_varint, Reader};
use minpsid_ir::{BlockId, FuncId};

/// Format version; bump on any layout change (decoders reject other
/// versions rather than guessing). v2 added the per-section dynamic step
/// ranges (`sec_first_step`/`sec_last_step`) to encoded profiles; v3
/// dropped their cycles, edge counts and step total, and stores the block
/// entries as one list; v4 dropped each stored state's per-instruction
/// fault counter and fault-applied flag.
pub const WIRE_VERSION: u32 = 4;

const GOLDEN_MAGIC: &[u8; 4] = b"MPSG";
const CKPT_MAGIC: &[u8; 4] = b"MPSC";

// --- values / output ---

fn w_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::I(x) => {
            buf.push(0);
            put_u64(buf, x as u64);
        }
        Value::F(x) => {
            buf.push(1);
            put_u64(buf, x.to_bits());
        }
        Value::B(x) => {
            buf.push(2);
            buf.push(u8::from(x));
        }
        Value::P(x) => {
            buf.push(3);
            put_u64(buf, x);
        }
        Value::Undef => buf.push(4),
    }
}

fn r_value(r: &mut Reader) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        0 => Value::I(r.u64()? as i64),
        1 => Value::F(f64::from_bits(r.u64()?)),
        2 => Value::B(match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Invalid("bool byte")),
        }),
        3 => Value::P(r.u64()?),
        4 => Value::Undef,
        _ => return Err(WireError::Invalid("value tag")),
    })
}

fn w_values(buf: &mut Vec<u8>, vs: &[Value]) {
    put_varint(buf, vs.len() as u64);
    for &v in vs {
        w_value(buf, v);
    }
}

fn r_values(r: &mut Reader) -> Result<Vec<Value>, WireError> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r_value(r)?);
    }
    Ok(out)
}

fn w_output_items(buf: &mut Vec<u8>, items: &[OutputItem]) {
    put_varint(buf, items.len() as u64);
    for item in items {
        match *item {
            OutputItem::I(v) => {
                buf.push(0);
                put_u64(buf, v as u64);
            }
            OutputItem::F(v) => {
                buf.push(1);
                put_u64(buf, v.to_bits());
            }
        }
    }
}

fn r_output_items(r: &mut Reader) -> Result<Vec<OutputItem>, WireError> {
    let n = r.count(9)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.u8()? {
            0 => OutputItem::I(r.u64()? as i64),
            1 => OutputItem::F(f64::from_bits(r.u64()?)),
            _ => return Err(WireError::Invalid("output item tag")),
        });
    }
    Ok(out)
}

// --- raw word memories & varint vectors ---

fn w_words(buf: &mut Vec<u8>, words: &[u64]) {
    put_varint(buf, words.len() as u64);
    for &w in words {
        put_u64(buf, w);
    }
}

fn r_words(r: &mut Reader) -> Result<Vec<u64>, WireError> {
    let n = r.count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn w_varints(buf: &mut Vec<u8>, vals: &[u64]) {
    put_varint(buf, vals.len() as u64);
    for &v in vals {
        put_varint(buf, v);
    }
}

fn r_varints(r: &mut Reader) -> Result<Vec<u64>, WireError> {
    let n = r.count(1)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.varint()?);
    }
    Ok(out)
}

// --- frames & machine state ---

fn w_frame(buf: &mut Vec<u8>, f: &Frame) {
    put_u32(buf, f.func.0);
    put_u32(buf, f.block.0);
    put_varint(buf, f.pos as u64);
    w_values(buf, &f.regs);
    w_values(buf, &f.args);
    put_varint(buf, f.sp_base as u64);
}

fn r_frame(r: &mut Reader) -> Result<Frame, WireError> {
    Ok(Frame {
        func: FuncId(r.u32()?),
        block: BlockId(r.u32()?),
        pos: r.varint()? as usize,
        regs: r_values(r)?,
        args: r_values(r)?,
        sp_base: r.varint()? as usize,
    })
}

fn w_frames(buf: &mut Vec<u8>, frames: &[Frame]) {
    put_varint(buf, frames.len() as u64);
    for f in frames {
        w_frame(buf, f);
    }
}

fn r_frames(r: &mut Reader) -> Result<Vec<Frame>, WireError> {
    let n = r.count(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r_frame(r)?);
    }
    Ok(out)
}

fn w_state(buf: &mut Vec<u8>, st: &MachineState) {
    w_frames(buf, &st.frames);
    w_words(buf, &st.mem);
    w_words(buf, &st.stack_mem);
    w_output_items(buf, &st.output.items);
    put_varint(buf, st.steps);
    put_varint(buf, st.inj_ctr);
}

fn r_state(r: &mut Reader) -> Result<MachineState, WireError> {
    Ok(MachineState {
        frames: r_frames(r)?,
        mem: r_words(r)?,
        stack_mem: r_words(r)?,
        output: Output {
            items: r_output_items(r)?,
        },
        steps: r.varint()?,
        inj_ctr: r.varint()?,
        // a stored state never carries a fault: `Interp::restore` arms
        // both afresh
        per_inst_ctr: 0,
        fault_applied: false,
    })
}

fn w_snapshot(buf: &mut Vec<u8>, s: &Snapshot) {
    w_state(buf, &s.state);
    w_varints(buf, &s.inj_counts);
}

fn r_snapshot(r: &mut Reader) -> Result<Snapshot, WireError> {
    Ok(Snapshot {
        state: r_state(r)?,
        inj_counts: r_varints(r)?,
    })
}

// --- delta bodies ---

fn w_runs(buf: &mut Vec<u8>, runs: &[(usize, Vec<u64>)]) {
    put_varint(buf, runs.len() as u64);
    for (start, words) in runs {
        put_varint(buf, *start as u64);
        w_words(buf, words);
    }
}

fn r_runs(r: &mut Reader) -> Result<Vec<(usize, Vec<u64>)>, WireError> {
    let n = r.count(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.varint()? as usize;
        out.push((start, r_words(r)?));
    }
    Ok(out)
}

fn w_delta(buf: &mut Vec<u8>, d: &SnapDelta) {
    match &d.frames {
        FramesDelta::Sparse(diffs) => {
            buf.push(0);
            put_varint(buf, diffs.len() as u64);
            for diff in diffs {
                put_u32(buf, diff.block.0);
                put_varint(buf, diff.pos as u64);
                put_varint(buf, diff.regs.len() as u64);
                for &(i, v) in &diff.regs {
                    put_u32(buf, i);
                    w_value(buf, v);
                }
            }
        }
        FramesDelta::Full(frames) => {
            buf.push(1);
            w_frames(buf, frames);
        }
    }
    w_runs(buf, &d.mem);
    put_varint(buf, d.mem_len as u64);
    w_runs(buf, &d.stack);
    put_varint(buf, d.stack_len as u64);
    w_output_items(buf, &d.out_tail);
    put_varint(buf, d.inj.len() as u64);
    buf.extend_from_slice(&d.inj);
}

fn r_delta(r: &mut Reader) -> Result<SnapDelta, WireError> {
    let frames = match r.u8()? {
        0 => {
            let n = r.count(6)?;
            let mut diffs = Vec::with_capacity(n);
            for _ in 0..n {
                let block = BlockId(r.u32()?);
                let pos = r.varint()? as usize;
                let k = r.count(5)?;
                let mut regs = Vec::with_capacity(k);
                for _ in 0..k {
                    let i = r.u32()?;
                    regs.push((i, r_value(r)?));
                }
                diffs.push(FrameDiff { block, pos, regs });
            }
            FramesDelta::Sparse(diffs)
        }
        1 => FramesDelta::Full(r_frames(r)?),
        _ => return Err(WireError::Invalid("frames-delta tag")),
    };
    Ok(SnapDelta {
        frames,
        mem: r_runs(r)?,
        mem_len: r.varint()? as usize,
        stack: r_runs(r)?,
        stack_len: r.varint()? as usize,
        out_tail: r_output_items(r)?,
        inj: {
            let n = r.count(1)?;
            r.take(n)?.to_vec()
        },
    })
}

// --- checkpoint store ---

/// Encode a [`CheckpointStore`] as a self-describing byte image
/// (`MPSC` + version + entries). Deterministic: equal stores encode to
/// equal bytes.
pub fn encode_checkpoints(store: &CheckpointStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + store.total_bytes() / 4);
    buf.extend_from_slice(CKPT_MAGIC);
    put_u32(&mut buf, WIRE_VERSION);
    put_varint(&mut buf, store.num_insts as u64);
    put_varint(&mut buf, store.entries.len() as u64);
    for e in &store.entries {
        put_varint(&mut buf, e.steps);
        put_varint(&mut buf, e.inj_ctr);
        put_u32(&mut buf, e.key);
        put_varint(&mut buf, e.bytes as u64);
        match &e.body {
            SnapBody::Key(s) => {
                buf.push(0);
                w_snapshot(&mut buf, s);
            }
            SnapBody::Delta(d) => {
                buf.push(1);
                w_delta(&mut buf, d);
            }
        }
    }
    buf
}

/// [`decode_checkpoints_within`] the default [`ExecConfig`]'s `mem_limit`.
///
/// [`ExecConfig`]: crate::ExecConfig
pub fn decode_checkpoints(bytes: &[u8]) -> Result<CheckpointStore, WireError> {
    decode_checkpoints_within(bytes, crate::ExecConfig::default().mem_limit)
}

/// Decode a [`CheckpointStore`] image, validating structure end to end:
/// every delta chain starts at an in-range keyframe, every keyframe
/// carries the advertised `num_insts` counts and every delta applies to
/// its predecessor, so downstream `restore_into`/`inj_count_at` cannot
/// index out of bounds. `mem_limit` is the `ExecConfig::mem_limit` of the
/// runs that will restore from the store: a delta recording a longer
/// memory is refused before its length is allocated (the run that
/// captured it obeyed the same limit). The per-checkpoint state digests
/// are not on the wire; they are retaken here from the decoded states.
/// The golden tail is not either: see [`CheckpointStore::attach_tail`].
pub fn decode_checkpoints_within(
    bytes: &[u8],
    mem_limit: u64,
) -> Result<CheckpointStore, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != CKPT_MAGIC {
        return Err(WireError::Invalid("checkpoint magic"));
    }
    if r.u32()? != WIRE_VERSION {
        return Err(WireError::Invalid("wire version"));
    }
    let num_insts = r.varint()? as usize;
    let n = r.count(14)?;
    let mut entries: Vec<StoredSnap> = Vec::with_capacity(n);
    for i in 0..n {
        let steps = r.varint()?;
        let inj_ctr = r.varint()?;
        let key = r.u32()?;
        let bytes = r.varint()? as usize;
        let body = match r.u8()? {
            0 => SnapBody::Key(r_snapshot(&mut r)?),
            1 => SnapBody::Delta(r_delta(&mut r)?),
            _ => return Err(WireError::Invalid("snapshot body tag")),
        };
        match &body {
            SnapBody::Key(s) => {
                if key as usize != i {
                    return Err(WireError::Invalid("keyframe not its own key"));
                }
                if s.inj_counts.len() != num_insts {
                    return Err(WireError::Invalid("keyframe inj_counts length"));
                }
            }
            SnapBody::Delta(_) => {
                if key as usize >= i || !matches!(entries[key as usize].body, SnapBody::Key(_)) {
                    return Err(WireError::Invalid("delta key out of range"));
                }
            }
        }
        entries.push(StoredSnap {
            steps,
            inj_ctr,
            key,
            bytes,
            digest: 0, // derived: filled in by `from_decoded`
            body,
        });
    }
    r.finish()?;
    CheckpointStore::from_decoded(entries, num_insts, mem_limit).map_err(WireError::Invalid)
}

// --- profile ---

fn w_profile(buf: &mut Vec<u8>, p: &Profile) {
    w_varints(buf, &p.inst_counts);
    w_varints(buf, &p.block_counts);
    put_varint(buf, p.injectable_execs);
    w_varints(buf, &p.sec_first_step);
    w_varints(buf, &p.sec_last_step);
}

fn r_profile(r: &mut Reader) -> Result<Profile, WireError> {
    let inst_counts = r_varints(r)?;
    let block_counts = r_varints(r)?;
    let injectable_execs = r.varint()?;
    let sec_first_step = r_varints(r)?;
    let sec_last_step = r_varints(r)?;
    if sec_first_step.len() != sec_last_step.len() {
        return Err(WireError::Invalid("section range length mismatch"));
    }
    Ok(Profile {
        inst_counts,
        block_counts,
        injectable_execs,
        sec_first_step,
        sec_last_step,
    })
}

// --- golden meta ---

/// Encode a golden run's verdict surface — output stream, profile, step
/// count — as one `MPSG` image (the store's `golden` artifact class).
pub fn encode_golden(output: &Output, profile: &Profile, steps: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256 + output.items.len() * 9);
    buf.extend_from_slice(GOLDEN_MAGIC);
    put_u32(&mut buf, WIRE_VERSION);
    w_output_items(&mut buf, &output.items);
    w_profile(&mut buf, profile);
    put_varint(&mut buf, steps);
    buf
}

/// Decode an `MPSG` golden-meta image back into (output, profile,
/// steps).
pub fn decode_golden(bytes: &[u8]) -> Result<(Output, Profile, u64), WireError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != GOLDEN_MAGIC {
        return Err(WireError::Invalid("golden magic"));
    }
    if r.u32()? != WIRE_VERSION {
        return Err(WireError::Invalid("wire version"));
    }
    let output = Output {
        items: r_output_items(&mut r)?,
    };
    let profile = r_profile(&mut r)?;
    let steps = r.varint()?;
    r.finish()?;
    Ok((output, profile, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CheckpointCollector, CheckpointConfig, SnapshotMode};

    fn sample_state(seed: u64) -> MachineState {
        MachineState {
            frames: vec![
                Frame {
                    func: FuncId(0),
                    block: BlockId(1),
                    pos: 3,
                    regs: vec![
                        Value::I(seed as i64),
                        Value::F(f64::from_bits(0x7ff8_0000_dead_beef)), // NaN payload
                        Value::B(true),
                        Value::Undef,
                    ],
                    args: vec![Value::P(16)],
                    sp_base: 0,
                },
                Frame {
                    func: FuncId(2),
                    block: BlockId(0),
                    pos: 0,
                    regs: vec![Value::I(-1)],
                    args: vec![],
                    sp_base: 8,
                },
            ],
            mem: (0..64).map(|i| i * seed).collect(),
            stack_mem: vec![seed; 16],
            output: Output {
                items: vec![OutputItem::I(7), OutputItem::F(0.1 + seed as f64)],
            },
            steps: 1000 + seed,
            inj_ctr: 500 + seed,
            per_inst_ctr: 0,
            fault_applied: false,
        }
    }

    fn states_bit_equal(a: &MachineState, b: &MachineState) {
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.func, fb.func);
            assert_eq!(fa.block, fb.block);
            assert_eq!(fa.pos, fb.pos);
            assert_eq!(fa.sp_base, fb.sp_base);
            let bits = |v: &Value| format!("{v:?}");
            assert_eq!(
                fa.regs.iter().map(bits).collect::<Vec<_>>(),
                fb.regs.iter().map(bits).collect::<Vec<_>>()
            );
            assert_eq!(
                fa.args.iter().map(bits).collect::<Vec<_>>(),
                fb.args.iter().map(bits).collect::<Vec<_>>()
            );
        }
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.stack_mem, b.stack_mem);
        assert_eq!(a.output, b.output);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.inj_ctr, b.inj_ctr);
    }

    #[test]
    fn golden_meta_round_trips_and_is_deterministic() {
        let output = Output {
            items: vec![
                OutputItem::I(i64::MIN),
                OutputItem::F(f64::NAN),
                OutputItem::F(-0.0),
            ],
        };
        let profile = Profile {
            inst_counts: vec![0, 3, u64::MAX],
            block_counts: vec![5, 6],
            injectable_execs: 17,
            sec_first_step: vec![1, 0],
            sec_last_step: vec![40, 0],
        };
        let bytes = encode_golden(&output, &profile, 12345);
        assert_eq!(bytes, encode_golden(&output, &profile, 12345));
        let (o2, p2, steps) = decode_golden(&bytes).unwrap();
        assert_eq!(o2, output);
        assert_eq!(p2, profile);
        assert_eq!(steps, 12345);
    }

    #[test]
    fn checkpoint_store_round_trips_full_and_delta() {
        for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
            let store = ten_entry_store(mode);
            let bytes = encode_checkpoints(&store);
            assert_eq!(bytes, encode_checkpoints(&store), "deterministic");
            let back = decode_checkpoints(&bytes).unwrap();
            assert_eq!(back.len(), store.len());
            assert_eq!(back.total_bytes(), store.total_bytes());
            for i in 0..store.len() {
                assert_eq!(back.steps_at(i), store.steps_at(i));
                assert_eq!(back.inj_ctr_at(i), store.inj_ctr_at(i));
                // not on the wire: retaken from the decoded state
                assert_eq!(back.entries[i].digest, store.entries[i].digest);
                assert_eq!(
                    back.entries[i].digest,
                    crate::converge::digest_of(&store.materialize(i).state)
                );
                for dense in 0..8 {
                    assert_eq!(back.inj_count_at(i, dense), store.inj_count_at(i, dense));
                }
                let a = store.materialize(i);
                let b = back.materialize(i);
                states_bit_equal(&a.state, &b.state);
                assert_eq!(a.inj_counts, b.inj_counts);
            }
        }
    }

    #[test]
    fn delta_that_does_not_apply_is_an_error_not_a_panic() {
        let cfg = CheckpointConfig {
            interval: 1,
            mode: SnapshotMode::Delta,
            ..CheckpointConfig::default()
        };
        let mut coll = CheckpointCollector::new(cfg, 8);
        for i in 0..3u64 {
            let mut st = sample_state(i + 1);
            st.steps = (i + 1) * 100;
            coll.capture(&st);
        }
        let store = coll.into_store();
        decode_checkpoints(&encode_checkpoints(&store)).unwrap();

        // a memory run that ends past the advertised length
        let mut bad = store.clone();
        let SnapBody::Delta(d) = &mut bad.entries[1].body else {
            panic!("second entry is a delta");
        };
        assert!(!d.mem.is_empty(), "sample states differ in memory");
        d.mem[0].0 = d.mem_len;
        assert_eq!(
            decode_checkpoints(&encode_checkpoints(&bad)).err(),
            Some(WireError::Invalid(
                "delta does not apply to its predecessor"
            ))
        );

        // a sparse frame diff naming a register the frame does not have
        let mut bad = store.clone();
        let SnapBody::Delta(d) = &mut bad.entries[2].body else {
            panic!("third entry is a delta");
        };
        let FramesDelta::Sparse(diffs) = &mut d.frames else {
            panic!("sample states share a stack shape");
        };
        diffs[1].regs.push((7, Value::I(0)));
        assert!(decode_checkpoints(&encode_checkpoints(&bad)).is_err());
    }

    #[test]
    fn empty_store_round_trips() {
        let store = CheckpointStore::default();
        let back = decode_checkpoints(&encode_checkpoints(&store)).unwrap();
        assert!(back.is_empty());
    }

    /// Ten captures of a changing machine with a moving injection count,
    /// stored as `mode` says (delta: keyframes at 0, 3, 6, 9).
    fn ten_entry_store(mode: SnapshotMode) -> CheckpointStore {
        let cfg = CheckpointConfig {
            interval: 1,
            mode,
            keyframe_every: 3,
            ..CheckpointConfig::default()
        };
        let mut coll = CheckpointCollector::new(cfg, 8);
        for i in 0..10u64 {
            let mut st = sample_state(i);
            st.steps = (i + 1) * 100;
            st.inj_ctr = (i + 1) * 10;
            coll.inj_counts[(i % 8) as usize] += 1;
            coll.inj_counts[(i * 3 % 8) as usize] += 200; // two-byte varints
            coll.capture(&st);
        }
        coll.into_store()
    }

    /// What a campaign does with a store it decoded.
    fn use_store(store: &CheckpointStore) {
        let mut st = MachineState::default();
        for i in 0..store.len() {
            for dense in 0..store.num_insts {
                store.inj_count_at(i, dense);
            }
            store.materialize(i);
            store.restore_into(i, &mut st);
        }
        for dense in 0..store.num_insts {
            store.nearest_for_inst(dense, 1);
        }
    }

    #[test]
    fn corrupt_images_error_or_decode_to_a_store_that_is_safe_to_use() {
        for mode in [SnapshotMode::Full, SnapshotMode::Delta] {
            let good = encode_checkpoints(&ten_entry_store(mode));
            for bad in minpsid_ir::bytes::mutations(&good) {
                if let Ok(store) = decode_checkpoints(&bad) {
                    assert_eq!(bad.len(), good.len(), "a truncation decoded");
                    use_store(&store);
                }
            }
            // bad magic / version
            let mut bad = good.clone();
            bad[0] ^= 0xff;
            assert_eq!(
                decode_checkpoints(&bad).err(),
                Some(WireError::Invalid("checkpoint magic"))
            );
            let mut bad = good.clone();
            bad[4] ^= 0xff;
            assert_eq!(
                decode_checkpoints(&bad).err(),
                Some(WireError::Invalid("wire version"))
            );
            // trailing garbage is rejected, not silently ignored
            let mut bad = good.clone();
            bad.push(0);
            assert!(decode_checkpoints(&bad).is_err());
        }

        // an injection-count stream that names an instruction the module
        // does not have, or stops inside a varint
        let store = ten_entry_store(SnapshotMode::Delta);
        for inj in [vec![8, 1], vec![0, 0x80]] {
            let mut bad = store.clone();
            let SnapBody::Delta(d) = &mut bad.entries[1].body else {
                panic!("second entry is a delta");
            };
            d.inj = inj;
            assert_eq!(
                decode_checkpoints(&encode_checkpoints(&bad)).err(),
                Some(WireError::Invalid(
                    "delta does not apply to its predecessor"
                ))
            );
        }

        let meta = encode_golden(
            &Output::default(),
            &Profile {
                inst_counts: vec![],
                block_counts: vec![],
                injectable_execs: 0,
                sec_first_step: vec![],
                sec_last_step: vec![],
            },
            0,
        );
        for cut in 0..meta.len() {
            assert!(decode_golden(&meta[..cut]).is_err());
        }
    }
}
