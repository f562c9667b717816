//! The one wire reader every protocol above the MAC decodes with.
//!
//! Discovery, registrar replication, VNC projection and projector control
//! all frame their messages the same way: big-endian integers, u16- or
//! u32-length-prefixed blobs, u16-prefixed UTF-8 strings, and counted
//! lists. [`Reader`] owns those rules, so every decoder is total on
//! arbitrary bytes and rejects malformed input the same way:
//!
//! * a read past the end is [`WireError::Truncated`], never a panic;
//! * a string that is not UTF-8 is [`WireError::BadString`];
//! * an unknown tag, version or enum byte is [`WireError::BadTag`];
//! * a message must fill its buffer exactly — [`Reader::finish`] turns
//!   leftovers into [`WireError::TrailingBytes`];
//! * a list reserves no more than the remaining input could hold
//!   ([`Reader::capacity`]), so a forged count cannot make a short frame
//!   allocate for 65,535 elements.
//!
//! The write side has one rule for length prefixes: a string is cut at the
//! last char boundary its u16 prefix can count ([`put_str16`]), and any
//! other count or length goes through [`prefix`], which panics in every
//! build profile rather than emit a prefix that disagrees with its body.

use bytes::{BufMut, Bytes};

/// Why a frame was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-message.
    Truncated,
    /// An unknown protocol, version, message or enum byte.
    BadTag(u8),
    /// A string was not UTF-8.
    BadString,
    /// Bytes remained after a well-formed message — a framing bug or a
    /// smuggled payload; wire messages must parse exactly.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadString => write!(f, "invalid UTF-8 in string"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over one received frame. Every read checks the remaining
/// length first; blobs are zero-copy views into the frame.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
    /// Bytes of `buf` already read.
    pos: usize,
}

impl Reader {
    /// Start reading `buf` from its first byte.
    pub fn new(buf: Bytes) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// The next `N` bytes, copied out.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.need(N)?;
        let mut a = [0; N];
        a.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    /// One byte that must equal `want` (a protocol or version byte);
    /// anything else is [`WireError::BadTag`].
    pub fn tag(&mut self, want: u8) -> Result<(), WireError> {
        match self.u8()? {
            got if got == want => Ok(()),
            got => Err(WireError::BadTag(got)),
        }
    }

    /// The next `n` bytes, as a view into the frame.
    pub fn bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        self.need(n)?;
        let view = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(view)
    }

    /// A blob behind a u16 length prefix.
    pub fn bytes16(&mut self) -> Result<Bytes, WireError> {
        let n = self.u16()? as usize;
        self.bytes(n)
    }

    /// A blob behind a u32 length prefix.
    pub fn bytes32(&mut self) -> Result<Bytes, WireError> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// A blob behind a u32 length prefix, borrowed from the frame: what
    /// [`Reader::bytes32`] reads, without the view's reference count, for a
    /// caller that is done with the blob before its next read.
    pub fn slice32(&mut self) -> Result<&[u8], WireError> {
        let n = self.u32()? as usize;
        self.need(n)?;
        let at = self.pos;
        self.pos += n;
        Ok(&self.buf[at..at + n])
    }

    /// A UTF-8 string behind a u16 length prefix (see [`put_str16`]).
    pub fn str16(&mut self) -> Result<String, WireError> {
        let raw = self.bytes16()?;
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadString)
    }

    /// How many of `count` announced elements to reserve room for, when
    /// each takes at least `min_len` (≥ 1) bytes on the wire: never more
    /// than the remaining input can hold. For a well-formed frame this is
    /// `count` itself.
    pub fn capacity(&self, count: usize, min_len: usize) -> usize {
        count.min(self.remaining() / min_len)
    }

    /// End of message: any byte left over is
    /// [`WireError::TrailingBytes`].
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }
}

/// `len` as a length or count prefix of type `T` (`u16` or `u32`).
/// Panics, in every build profile, when `len` does not fit: a wrapped
/// prefix would make the receiver misparse everything after it.
pub fn prefix<T: TryFrom<usize>>(len: usize) -> T {
    T::try_from(len).unwrap_or_else(|_| panic!("{len} does not fit its length prefix"))
}

/// Write `s` behind a u16 length prefix. A string longer than the prefix
/// can count is cut at the last char boundary that fits, so the prefix
/// always matches the body and the body stays valid UTF-8.
pub fn put_str16(buf: &mut impl BufMut, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    buf.put_u16(len as u16);
    buf.put_slice(&s.as_bytes()[..len]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> Reader {
        Reader::new(Bytes::from(bytes.to_vec()))
    }

    #[test]
    fn integers_are_big_endian_and_bounded() {
        let mut r = reader(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0203));
        assert_eq!(r.u32(), Ok(0x0405_0607));
        assert_eq!(r.u64(), Err(WireError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.bytes(7).as_deref(), Ok(&[8, 9, 10, 11, 12, 13, 14][..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn slice32_borrows_what_bytes32_views() {
        let frame = [0, 0, 0, 3, 7, 8, 9, 0, 0, 0, 0, 0, 0, 0, 9, 1];
        let (mut a, mut b) = (reader(&frame), reader(&frame));
        assert_eq!(a.slice32(), Ok(&[7, 8, 9][..]));
        assert_eq!(b.bytes32().as_deref(), Ok(&[7, 8, 9][..]));
        assert_eq!(a.slice32(), Ok(&[][..]));
        // A length past the end is Truncated, as for bytes32.
        assert_eq!(a.slice32(), Err(WireError::Truncated));
        assert_eq!(b.u32(), Ok(0));
        assert_eq!(b.bytes32(), Err(WireError::Truncated));
        assert_eq!(a.capacity(100, 1), 1);
        assert_eq!(a.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn capacity_is_capped_by_the_remaining_input() {
        let r = reader(&[0; 40]);
        assert_eq!(r.capacity(3, 9), 3);
        assert_eq!(r.capacity(65_535, 9), 4);
        assert_eq!(r.capacity(65_535, 1), 40);
        assert_eq!(reader(&[]).capacity(u32::MAX as usize, 17), 0);
    }

    #[test]
    fn prefix_passes_what_fits() {
        assert_eq!(prefix::<u16>(65_535), u16::MAX);
        assert_eq!(prefix::<u32>(65_536), 65_536);
    }
}
