//! Length-prefixed binary records with a magic header — the one
//! encoding every durable zr-store artifact (tree records, layer
//! records, root pins) uses.
//!
//! The format is deliberately dumb: little-endian fixed-width integers
//! and `u64`-length-prefixed byte strings, preceded by an ASCII magic
//! that doubles as the format version (`zr-tree-rec-v1`, ...). Decoding
//! is total — every read is bounds-checked and a bad magic or short
//! buffer comes back as [`StoreError::Corrupt`], never a panic — which
//! is what makes crash-truncated files safe to reopen.

use crate::error::{Result, StoreError};

/// A record encoder.
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Start a record with the given magic/version string.
    pub fn new(magic: &str) -> Enc {
        let mut enc = Enc { buf: Vec::new() };
        enc.str(magic);
        enc
    }

    /// Start a bare fragment with no magic — for sub-records that are
    /// concatenated into a framed parent (tree-record entries).
    pub fn raw() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Append a digest as a length-prefixed lowercase hex string: the
    /// bytes `str(&hex(digest))` writes, without the `String`.
    pub fn hex(&mut self, digest: &[u8]) -> &mut Self {
        self.u64(digest.len() as u64 * 2);
        zr_digest::push_hex(&mut self.buf, digest);
        self
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget what was written but keep the allocation — one scratch
    /// encoder for many short fragments.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The finished record.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A record decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    magic: &'static str,
}

impl<'a> Dec<'a> {
    /// Open a record, verifying its magic.
    pub fn new(buf: &'a [u8], magic: &'static str) -> Result<Dec<'a>> {
        let mut dec = Dec { buf, pos: 0, magic };
        let found = dec.str()?;
        if found != magic {
            return Err(StoreError::corrupt(format!(
                "bad magic: expected {magic:?}, found {found:?}"
            )));
        }
        Ok(dec)
    }

    /// Open a bare fragment with no magic (the counterpart of
    /// [`Enc::raw`]); `label` names it in error messages.
    pub fn raw(buf: &'a [u8], label: &'static str) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            magic: label,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(StoreError::corrupt(format!(
                "{}: truncated at byte {} (wanted {n} more of {})",
                self.magic,
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&l| l <= self.buf.len())
            .ok_or_else(|| StoreError::corrupt(format!("{}: absurd length {len}", self.magic)))?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string in place, without copying
    /// it out of the buffer.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|_| StoreError::corrupt(format!("{}: invalid UTF-8", self.magic)))
    }

    /// Current byte offset — lets a caller slice the underlying buffer
    /// around a group of fields (the tree-record splitter keeps each
    /// entry's exact bytes).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes read since offset `start` (an earlier [`pos`](Self::pos)).
    pub fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// Assert the record is fully consumed (trailing garbage is how
    /// truncation bugs hide).
    pub fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StoreError::corrupt(format!(
                "{}: {} trailing bytes",
                self.magic,
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut enc = Enc::new("test-v1");
        enc.u8(7).u32(0xDEAD).u64(1 << 40).bytes(b"abc").str("hé");
        let buf = enc.finish();
        let mut dec = Dec::new(&buf, "test-v1").unwrap();
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD);
        assert_eq!(dec.u64().unwrap(), 1 << 40);
        assert_eq!(dec.bytes().unwrap(), b"abc");
        assert_eq!(dec.str().unwrap(), "hé");
        dec.done().unwrap();
    }

    #[test]
    fn bad_magic_and_truncation_are_corrupt_not_panics() {
        let buf = Enc::new("other-v1").finish();
        assert!(matches!(
            Dec::new(&buf, "test-v1"),
            Err(StoreError::Corrupt(_))
        ));
        let mut enc = Enc::new("test-v1");
        enc.u64(99);
        let mut buf = enc.finish();
        buf.truncate(buf.len() - 3);
        let mut dec = Dec::new(&buf, "test-v1").unwrap();
        assert!(dec.u64().is_err());
        // A length prefix larger than the buffer must not allocate.
        let mut enc = Enc::new("test-v1");
        enc.u64(u64::MAX);
        let buf = enc.finish();
        let mut dec = Dec::new(&buf, "test-v1").unwrap();
        assert!(dec.bytes().is_err());
    }

    #[test]
    fn done_rejects_trailing_bytes() {
        let mut enc = Enc::new("test-v1");
        enc.u8(1);
        let buf = enc.finish();
        let dec = Dec::new(&buf, "test-v1").unwrap();
        assert!(dec.done().is_err());
    }
}
