//! Allocation-free little-endian payload codecs.
//!
//! Task payloads are tiny (a UTS node is a 20-byte digest plus two
//! integers). These helpers build and parse them into a stack buffer
//! without `serde`'s framing overhead, keeping task records at the exact
//! sizes the paper reports (Table 2).

use crate::descriptor::MAX_PAYLOAD;

/// Builds a payload in a fixed stack buffer.
pub struct PayloadWriter {
    buf: [u8; MAX_PAYLOAD],
    len: usize,
}

impl PayloadWriter {
    /// Empty writer.
    pub fn new() -> PayloadWriter {
        PayloadWriter {
            buf: [0; MAX_PAYLOAD],
            len: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) -> &mut Self {
        assert!(
            self.len + bytes.len() <= MAX_PAYLOAD,
            "payload overflow: {} + {} > {MAX_PAYLOAD}",
            self.len,
            bytes.len()
        );
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.push(&[v])
    }

    /// Append a `u16` (LE).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.push(&v.to_le_bytes())
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.push(&v.to_le_bytes())
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.push(&v.to_le_bytes())
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.push(v)
    }

    /// The finished payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for PayloadWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses a payload written by [`PayloadWriter`].
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let Some(&bytes) = self.buf[self.pos..].first_chunk::<N>() else {
            panic!(
                "payload underflow: reading {N} bytes at {} of {}",
                self.pos,
                self.buf.len()
            );
        };
        self.pos += N;
        bytes
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> u8 {
        u8::from_le_bytes(self.take())
    }

    /// Read a `u16` (LE).
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Read `N` raw bytes into an array.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        self.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_fields() {
        let mut w = PayloadWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).bytes(&[1, 2, 3]);
        let mut r = PayloadReader::new(w.as_slice());
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u16(), 300);
        assert_eq!(r.u32(), 70_000);
        assert_eq!(r.u64(), 1 << 40);
        assert_eq!(r.bytes::<3>(), [1, 2, 3]);
    }

    #[test]
    fn digest_sized_payload() {
        // A UTS node: 20-byte digest + depth + child index = 28 bytes.
        let digest = [0xABu8; 20];
        let mut w = PayloadWriter::new();
        w.bytes(&digest).u32(17).u32(3);
        assert_eq!(w.len(), 28);
        let mut r = PayloadReader::new(w.as_slice());
        assert_eq!(r.bytes::<20>(), digest);
        assert_eq!(r.u32(), 17);
        assert_eq!(r.u32(), 3);
    }

    #[test]
    #[should_panic(expected = "payload underflow")]
    fn underflow_detected() {
        let mut r = PayloadReader::new(&[1, 2]);
        let _ = r.u32();
    }

    #[test]
    #[should_panic(expected = "payload overflow")]
    fn overflow_detected() {
        let mut w = PayloadWriter::new();
        for _ in 0..=MAX_PAYLOAD {
            w.u8(0);
        }
    }

    #[test]
    fn empty_and_default() {
        let w = PayloadWriter::default();
        assert!(w.is_empty());
        assert_eq!(w.as_slice(), &[] as &[u8]);
    }
}
