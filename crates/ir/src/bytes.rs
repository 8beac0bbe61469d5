//! How bytes are read, written and hashed by every format rooted at this
//! crate: golden-meta and checkpoint images (`interp::wire`), the
//! per-checkpoint injection-count streams (`interp::snapshot`), sealed
//! outcome tables (`faultsim::table`) and every FNV-1a fingerprint
//! (`ir::fingerprint`, `core::cache`, table signatures).
//!
//! Integers are little-endian; variable-width ones are LEB128 of at most
//! ten bytes. The [`Reader`] is **checked**: it never panics on malformed
//! bytes, never lets a length promise more than the input could hold, and
//! returns a typed [`Error`] instead — so a foreign or rotten image can at
//! worst produce an error, not UB or an abort.
//!
//! Everything here runs per byte or per field in another crate, and thin
//! LTO does not inline it there unasked: without the `#[inline]`s a
//! checkpoint lookup (`CheckpointStore::nearest_for_inst`) takes twice as
//! long as with the private copies this module replaced.

use std::fmt;

/// Why a byte image failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value it promised.
    Truncated,
    /// Structurally impossible content (bad magic/version/tag, a length
    /// larger than the remaining input, a varint past 64 bits, ...).
    Invalid(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "wire image truncated"),
            Error::Invalid(what) => write!(f, "wire image invalid: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A checked cursor over a byte image.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.buf.len() < n {
            return Err(Error::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        let (&b, rest) = self.buf.split_first().ok_or(Error::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn varint(&mut self) -> Result<u64, Error> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(Error::Invalid("varint exceeds 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(Error::Invalid("varint exceeds 64 bits"));
            }
        }
    }

    /// A count of items each at least `min_bytes` long. Bounds every
    /// allocation by what the remaining input could actually hold, so a
    /// malformed length can't balloon memory before `Truncated` fires.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, Error> {
        let n = self.varint()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(Error::Invalid("count exceeds remaining input"));
        }
        Ok(n)
    }

    #[inline]
    pub fn finish(self) -> Result<(), Error> {
        if self.remaining() != 0 {
            return Err(Error::Invalid("trailing bytes"));
        }
        Ok(())
    }
}

/// Streaming FNV-1a accumulator. Doubles as a `fmt::Write` sink, so
/// `Debug`-renderable structure can be folded in without allocating the
/// rendered string.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    #[allow(clippy::new_without_default)]
    #[inline]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Every proper prefix and every single-bit flip of `image`: the
/// corruptions each decoder in the workspace is tested against.
#[doc(hidden)]
pub fn mutations(image: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..image.len()).map(|cut| image[..cut].to_vec());
    let flips = (0..image.len() * 8).map(|bit| {
        let mut bad = image.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    prefixes.chain(flips)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_overlong_ones_are_invalid() {
        let vals = [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &vals {
            assert_eq!(r.varint(), Ok(v));
        }
        r.finish().unwrap();

        // ten bytes hold 70 bits: the last may only carry bit 63
        let mut ten = vec![0xff; 9];
        ten.push(0x01);
        assert_eq!(Reader::new(&ten).varint(), Ok(u64::MAX));
        ten[9] = 0x02;
        assert!(matches!(Reader::new(&ten).varint(), Err(Error::Invalid(_))));
        ten[9] = 0x81;
        assert!(matches!(Reader::new(&ten).varint(), Err(Error::Invalid(_))));
        assert_eq!(Reader::new(&ten[..9]).varint(), Err(Error::Truncated));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_input() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf).count(8), Ok(3));
        assert!(Reader::new(&buf[..24]).count(8).is_err());
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count(0).is_err());
        assert_eq!(Reader::new(&huge).take(usize::MAX), Err(Error::Truncated));
    }

    #[test]
    fn fnv_matches_the_reference_vectors_however_it_is_fed() {
        // FNV-1a 64 test vectors (Fowler/Noll/Vo)
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        let mut w = Fnv::new();
        fmt::Write::write_str(&mut w, "foo").unwrap();
        fmt::Write::write_str(&mut w, "bar").unwrap();
        assert_eq!(w.finish(), h.finish());
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.u64(0x0807_0605_0403_0201);
        b.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn mutations_are_every_prefix_then_every_flip() {
        let all: Vec<_> = mutations(&[0b1010_0000, 0xff]).collect();
        assert_eq!(all.len(), 2 + 16);
        assert_eq!(all[0], Vec::<u8>::new());
        assert_eq!(all[1], vec![0b1010_0000]);
        assert_eq!(all[2], vec![0b1010_0001, 0xff]);
        assert_eq!(all[17], vec![0b1010_0000, 0b0111_1111]);
        assert!(all[2..].iter().all(|m| m.len() == 2));
    }
}
