//! Binary wire format with byte accounting.
//!
//! RTF provides "automatic (de-)serialization for objects to be transferred
//! over network (user inputs, application state updates, etc.)" (§II). This
//! module is that layer: a compact little-endian binary writer/reader used
//! by the packet envelope ([`crate::event`]) and by applications for their
//! payloads. Byte counts flow into the per-task cost accounting — the
//! paper's `t_*_dser`/`t_su` parameters scale with serialized size.

use bytes::{Bytes, BytesMut};
use std::fmt;

/// Errors raised while decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum tag had no known mapping.
    BadTag(u8),
    /// A length prefix exceeded the remaining buffer (corrupt frame).
    BadLength(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remaining")
            }
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadLength(l) => write!(f, "bad length prefix {l}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializer that appends to a growable buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Empties the writer, keeping its allocation: an encode loop reuses
    /// one writer for every frame and takes each frame out with
    /// [`copy_frame`](Self::copy_frame).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Copies the bytes written so far into a fresh immutable frame — one
    /// allocation and one copy whichever `bytes` implementation is linked
    /// — and keeps the writer's buffer for the next frame.
    pub fn copy_frame(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }

    /// Reserves a `u32` length prefix for a byte string whose length is
    /// not known yet and returns its position. Write the string's bytes,
    /// then call [`end_len`](Self::end_len): the result is byte-identical
    /// to [`put_bytes`](Self::put_bytes) on the finished string, without
    /// serializing it into a buffer of its own first.
    pub fn begin_len(&mut self) -> usize {
        let at = self.buf.len();
        self.put_u32(0);
        at
    }

    /// Patches the prefix reserved at `at` with the number of bytes
    /// written after it, and returns that number.
    pub fn end_len(&mut self, at: usize) -> usize {
        let len = self.buf.len().saturating_sub(at + 4);
        let prefix = u32::try_from(len).unwrap_or(u32::MAX);
        debug_assert_eq!(prefix as usize, len, "byte string exceeds u32");
        let patched = self.patch(at, &prefix.to_le_bytes());
        debug_assert!(patched, "end_len({at}) without a matching begin_len");
        len
    }

    /// Overwrites already-written bytes starting at `at` — a count
    /// reserved before its items were written, or the one per-receiver
    /// field of a frame otherwise shared by every receiver. Writes nothing
    /// and returns `false` when `bytes` would not fit inside what has been
    /// written.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) -> bool {
        let slot = at
            .checked_add(bytes.len())
            .and_then(|end| self.buf.get_mut(at..end));
        match slot {
            Some(slot) => {
                slot.copy_from_slice(bytes);
                true
            }
            None => false,
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.extend_from_slice(&[v]);
    }

    /// Appends a `u16` (little endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` (little endian).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` (little endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string (u32 prefix).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finishes and returns the immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Deserializer over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far — after reading a field, the offset one past
    /// its last byte, which lets a caller that keeps the receive buffer
    /// remember *where* a byte string sits instead of copying it.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads `n` raw bytes (no length prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n]; // lint: allow(panic, "in bounds: the remaining() guard above rejects reads past the buffer")
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2"))) // lint: allow(panic, "take(2) returned exactly 2 bytes, so the array conversion is infallible")
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4"))) // lint: allow(panic, "take(4) returned exactly 4 bytes, so the array conversion is infallible")
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8"))) // lint: allow(panic, "take(8) returned exactly 8 bytes, so the array conversion is infallible")
    }

    /// Reads an `f32`.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4"))) // lint: allow(panic, "take(4) returned exactly 4 bytes, so the array conversion is infallible")
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8"))) // lint: allow(panic, "take(8) returned exactly 8 bytes, so the array conversion is infallible")
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(WireError::BadLength(len as u64));
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string (lossy for invalid UTF-8).
    pub fn get_string(&mut self) -> Result<String, WireError> {
        Ok(String::from_utf8_lossy(self.get_bytes()?).into_owned())
    }
}

/// Types encodable on the wire.
pub trait Wire: Sized {
    /// Serializes `self` into the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Deserializes a value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: serialize to a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Convenience: deserialize a value from the front of a slice. Bytes
    /// after the value are *not* an error here — a type whose frame must
    /// end with it checks that in its own `decode`.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(1000);
        w.put_u32(123456);
        w.put_u64(u64::MAX - 1);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1000);
        assert_eq!(r.get_u32().unwrap(), 123456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert!(r.is_exhausted());
    }

    #[test]
    fn patch_overwrites_in_place_and_refuses_out_of_range() {
        let mut w = WireWriter::new();
        w.put_u8(9);
        w.put_u32(0);
        w.put_u16(7);
        assert!(w.patch(1, &0xAABB_CCDDu32.to_le_bytes()));
        assert!(!w.patch(4, &[0; 4]), "would run past the end");
        assert!(!w.patch(usize::MAX, &[0; 4]), "offset overflow");
        assert_eq!(w.len(), 7, "patching never grows the buffer");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(r.get_u16().unwrap(), 7);
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut w = WireWriter::new();
        w.put_bytes(b"payload");
        w.put_str("zoné-1");
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_string().unwrap(), "zoné-1");
    }

    #[test]
    fn truncated_read_fails() {
        let mut r = WireReader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn bad_length_prefix_fails() {
        let mut w = WireWriter::new();
        w.put_u32(1_000_000); // claims a megabyte that is not there
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap_err(), WireError::BadLength(1_000_000));
    }

    #[test]
    fn empty_byte_string() {
        let mut w = WireWriter::new();
        w.put_bytes(b"");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert!(r.is_exhausted());
    }

    #[test]
    fn writer_len_tracks_bytes() {
        let mut w = WireWriter::with_capacity(16);
        assert!(w.is_empty());
        w.put_u32(1);
        assert_eq!(w.len(), 4);
        w.put_bytes(b"abc");
        assert_eq!(w.len(), 4 + 4 + 3);
    }

    #[test]
    fn reused_writer_produces_identical_frames() {
        let encode = |w: &mut WireWriter| {
            w.put_u8(9);
            w.put_bytes(b"state");
            w.put_f64(0.25);
        };
        let mut fresh = WireWriter::new();
        encode(&mut fresh);
        let expected = fresh.finish();

        let mut w = WireWriter::new();
        w.put_bytes(b"leftover from the previous frame");
        for _ in 0..3 {
            w.clear();
            assert!(w.is_empty());
            encode(&mut w);
            assert_eq!(w.copy_frame(), expected);
        }
    }

    #[test]
    fn patched_length_prefix_equals_put_bytes() {
        for body in [&b""[..], b"x", b"a longer application payload"] {
            let mut direct = WireWriter::new();
            direct.put_u8(7);
            direct.put_bytes(body);

            let mut patched = WireWriter::new();
            patched.put_u8(7);
            let at = patched.begin_len();
            for &b in body {
                patched.put_u8(b);
            }
            assert_eq!(patched.end_len(at), body.len());
            assert_eq!(patched.finish(), direct.finish());
        }
    }

    #[test]
    fn wire_trait_round_trip() {
        #[derive(Debug, PartialEq)]
        struct Point {
            x: f32,
            y: f32,
        }
        impl Wire for Point {
            fn encode(&self, w: &mut WireWriter) {
                w.put_f32(self.x);
                w.put_f32(self.y);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Point {
                    x: r.get_f32()?,
                    y: r.get_f32()?,
                })
            }
        }
        let p = Point { x: 3.0, y: -4.5 };
        assert_eq!(Point::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
