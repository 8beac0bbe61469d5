//! The supervisor ↔ worker wire protocol.
//!
//! Workers talk to the supervisor over their own stdin/stdout pipes
//! with length-prefixed binary frames: `[len u32 LE][payload]`, where
//! `payload[0]` is a message tag. The framing is deliberately dumb —
//! no versioning handshake beyond [`ToSupervisor::Ready`], no partial
//! frames — because both ends are the same binary re-exec'd, and a
//! malformed frame means a corrupted worker that should be killed and
//! replaced, not negotiated with.
//!
//! Clean EOF on either pipe means the peer is gone: for the supervisor
//! that is the worker-death signal driving lease reassignment.

use minpsid_store::bytes::{put_u32, put_u64, Error, Reader};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload. An `ASSIGN` carries one `u64` per
/// unit, so this admits shards of ~2M units — far past any real plan —
/// while a garbage length prefix dies immediately instead of
/// allocating gigabytes.
pub const MAX_FRAME: usize = 16 << 20;

const TAG_READY: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_SHARD_DONE: u8 = 3;
const TAG_ASSIGN: u8 = 16;
const TAG_SHUTDOWN: u8 = 17;

/// Messages a worker sends up to the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToSupervisor {
    /// Sent once after startup: the worker finished its golden run and
    /// is ready for leases. `population` is its injectable-exec count,
    /// cross-checked against the supervisor's own golden run so a
    /// determinism drift is caught before any shard is reduced.
    Ready { population: u64 },
    /// Lease renewal: `done` units of `shard` are executed and spooled.
    Heartbeat { shard: u32, done: u64 },
    /// The shard's spool segment is complete and fsynced.
    ShardDone { shard: u32 },
}

/// Messages the supervisor sends down to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// Lease of one shard: execute `units` in order, spool each result
    /// into the `(shard, attempt)` segment, heartbeat as you go.
    Assign {
        shard: u32,
        attempt: u32,
        units: Vec<u64>,
    },
    /// Drain and exit cleanly.
    Shutdown,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("fleet proto: {msg}"))
}

impl ToSupervisor {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        match self {
            ToSupervisor::Ready { population } => {
                b.push(TAG_READY);
                put_u64(&mut b, *population);
            }
            ToSupervisor::Heartbeat { shard, done } => {
                b.push(TAG_HEARTBEAT);
                put_u32(&mut b, *shard);
                put_u64(&mut b, *done);
            }
            ToSupervisor::ShardDone { shard } => {
                b.push(TAG_SHARD_DONE);
                put_u32(&mut b, *shard);
            }
        }
        b
    }

    pub fn decode(bytes: &[u8]) -> io::Result<ToSupervisor> {
        Self::parse(bytes).map_err(|e| bad(&e.to_string()))
    }

    fn parse(bytes: &[u8]) -> Result<ToSupervisor, Error> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_READY => ToSupervisor::Ready {
                population: r.u64()?,
            },
            TAG_HEARTBEAT => ToSupervisor::Heartbeat {
                shard: r.u32()?,
                done: r.u64()?,
            },
            TAG_SHARD_DONE => ToSupervisor::ShardDone { shard: r.u32()? },
            t => return Err(Error::UnknownTag(t)),
        };
        r.done()?;
        Ok(msg)
    }
}

impl ToWorker {
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        match self {
            ToWorker::Assign {
                shard,
                attempt,
                units,
            } => {
                b.push(TAG_ASSIGN);
                put_u32(&mut b, *shard);
                put_u32(&mut b, *attempt);
                put_u32(&mut b, units.len() as u32);
                for &u in units {
                    put_u64(&mut b, u);
                }
            }
            ToWorker::Shutdown => b.push(TAG_SHUTDOWN),
        }
        b
    }

    pub fn decode(bytes: &[u8]) -> io::Result<ToWorker> {
        Self::parse(bytes).map_err(|e| bad(&e.to_string()))
    }

    fn parse(bytes: &[u8]) -> Result<ToWorker, Error> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_ASSIGN => {
                let shard = r.u32()?;
                let attempt = r.u32()?;
                let n = r.u32()?;
                let n = r.count(n.into(), 8)?;
                let mut units = Vec::with_capacity(n);
                for _ in 0..n {
                    units.push(r.u64()?);
                }
                ToWorker::Assign {
                    shard,
                    attempt,
                    units,
                }
            }
            TAG_SHUTDOWN => ToWorker::Shutdown,
            t => return Err(Error::UnknownTag(t)),
        };
        r.done()?;
        Ok(msg)
    }
}

/// Write one `[len][payload]` frame and flush it (frames are the unit
/// of progress visibility; an unflushed heartbeat is a missed lease
/// renewal).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "oversized fleet frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is clean EOF at a frame boundary — the
/// peer closed its end. EOF mid-frame is an error (a torn write means
/// the peer died mid-send).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(bad("EOF inside frame length")),
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(bad(&format!("bad frame length {len}")));
    }
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..])? {
            0 => return Err(bad("EOF inside frame payload")),
            n => at += n,
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip_through_frames() {
        let msgs = vec![
            ToSupervisor::Ready { population: 12345 },
            ToSupervisor::Heartbeat { shard: 7, done: 42 },
            ToSupervisor::ShardDone { shard: u32::MAX },
        ];
        let mut pipe = Vec::new();
        for m in &msgs {
            write_frame(&mut pipe, &m.encode()).unwrap();
        }
        let mut r = &pipe[..];
        for m in &msgs {
            let frame = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&ToSupervisor::decode(&frame).unwrap(), m);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn assign_round_trips_with_units() {
        let m = ToWorker::Assign {
            shard: 3,
            attempt: 2,
            units: vec![0, 9, u64::MAX],
        };
        assert_eq!(ToWorker::decode(&m.encode()).unwrap(), m);
        let s = ToWorker::Shutdown;
        assert_eq!(ToWorker::decode(&s.encode()).unwrap(), s);
    }
}
