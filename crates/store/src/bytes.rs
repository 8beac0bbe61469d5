//! How bytes are read, written and checksummed by the journal family
//! (`journal::record`, `journal::wal`) and this crate:
//! fixed-width little-endian integers behind a checked cursor, and the
//! FNV-1a 64 that frames WAL payloads. `minpsid_ir::bytes` is the same
//! decision for the formats rooted at the IR crate; the two crate trees
//! share no dependency edge. `#[inline]` for the reason given there.

use std::fmt;

/// Why a payload failed to decode. Reaching this for a WAL frame that
/// passed its checksum means a writer bug or version skew, so the
/// recovery path treats it like corruption: stop at the previous record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    Truncated,
    UnknownTag(u8),
    TrailingBytes(usize),
    LengthOverflow(u64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "payload truncated"),
            Error::UnknownTag(t) => write!(f, "unknown tag {t}"),
            Error::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            Error::LengthOverflow(n) => write!(f, "embedded length {n} exceeds payload"),
        }
    }
}

impl std::error::Error for Error {}

#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A checked cursor over one payload.
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.bytes.len() < n {
            return Err(Error::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n`, a length prefix just read, as a count of items each at least
    /// `min_bytes` long: refused before any allocation if the rest of the
    /// payload could not hold that many.
    #[inline]
    pub fn count(&self, n: u64, min_bytes: usize) -> Result<usize, Error> {
        match usize::try_from(n) {
            Ok(k) if k.saturating_mul(min_bytes.max(1)) <= self.bytes.len() => Ok(k),
            _ => Err(Error::LengthOverflow(n)),
        }
    }

    #[inline]
    pub fn done(self) -> Result<(), Error> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(Error::TrailingBytes(n)),
        }
    }
}

/// FNV-1a 64. Collision resistance is irrelevant where this is used —
/// torn-write detection in WAL frames, picking a bit to flip under chaos —
/// and content addresses are SHA-256 ([`crate::sha256`]).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_what_was_put_and_refuses_the_rest() {
        let mut buf = vec![7];
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.u8(), Err(Error::Truncated));
        r.done().unwrap();

        let mut r = Reader::new(&buf);
        assert_eq!(r.take(usize::MAX), Err(Error::Truncated));
        assert_eq!(r.take(5).map(<[u8]>::len), Ok(5));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));

        let mut r = Reader::new(&buf[..3]);
        assert_eq!(r.u64(), Err(Error::Truncated));
        assert_eq!(r.u8(), Ok(7), "a failed read consumes nothing");
        assert_eq!(r.done(), Err(Error::TrailingBytes(2)));
    }

    #[test]
    fn counts_are_bounded_by_the_rest_of_the_payload() {
        let r = Reader::new(&[0; 24]);
        assert_eq!(r.count(3, 8), Ok(3));
        assert_eq!(r.count(1, 24), Ok(1));
        assert_eq!(r.count(4, 8), Err(Error::LengthOverflow(4)));
        assert_eq!(r.count(u64::MAX, 8), Err(Error::LengthOverflow(u64::MAX)));
        assert_eq!(r.count(25, 0), Err(Error::LengthOverflow(25)));
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
