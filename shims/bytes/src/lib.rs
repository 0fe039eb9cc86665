//! A minimal, dependency-free stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so this
//! vendors the slice-of-API the store's binary codec and the wire use: [`BytesMut`]
//! (and `Vec<u8>`) as an append-only builder (via [`BufMut`]), and [`Bytes`] as a
//! consuming read cursor (via [`Buf`]). Unlike the real crate there is
//! no refcounted zero-copy sharing — `slice`/`copy_to_bytes` copy — but
//! the observable behaviour for encode/decode round-trips is identical.

use std::ops::Deref;

/// Read side: a cursor over immutable bytes.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_i64_le(&mut self) -> i64;
    fn get_f64_le(&mut self) -> f64;
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
    /// Skip `cnt` unread bytes.
    fn advance(&mut self, cnt: usize);
}

/// Write side: an append-only byte sink.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_i64_le(&mut self, v: i64);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, src: &[u8]);
}

/// Immutable bytes with a consuming read position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes { data: Vec::new(), pos: 0 }
    }

    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes { data: data.to_vec(), pos: 0 }
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes { data: data.to_vec(), pos: 0 }
    }

    /// Unread bytes left in the cursor.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of `range` within the unread remainder.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        Bytes { data: self.data[self.pos..][range].to_vec(), pos: 0 }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }

    #[inline]
    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "buffer underflow");
        let start = self.pos;
        self.pos += n;
        &self.data[start..start + n]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, pos: 0 }
    }
}

/// The unread bytes, in the vector the `Bytes` was made from: nothing is
/// allocated, so a reader can hand one buffer back and forth.
impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Vec<u8> {
        let Bytes { mut data, pos } = bytes;
        data.drain(..pos);
        data
    }
}

macro_rules! get_le {
    ($self:ident, $t:ty) => {{
        let mut raw = [0u8; std::mem::size_of::<$t>()];
        raw.copy_from_slice($self.take(std::mem::size_of::<$t>()));
        <$t>::from_le_bytes(raw)
    }};
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        get_le!(self, u32)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        get_le!(self, u64)
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        get_le!(self, i64)
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        get_le!(self, f64)
    }

    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        Bytes { data: self.take(len).to_vec(), pos: 0 }
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        self.take(cnt);
    }
}

/// A growable byte buffer; freeze it into [`Bytes`] to read it back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data, pos: 0 }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(buf: BytesMut) -> Vec<u8> {
        buf.data
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32_le(0xdead_beef);
        buf.put_i64_le(-42);
        buf.put_u64_le(u64::MAX);
        buf.put_f64_le(2.5);
        buf.put_slice(b"abcd");
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_i64_le(), -42);
        assert_eq!(b.get_u64_le(), u64::MAX);
        assert_eq!(b.get_f64_le(), 2.5);
        assert_eq!(b.copy_to_bytes(3).as_ref(), b"abc");
        b.advance(1);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_is_relative_to_cursor() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        b.get_u8();
        assert_eq!(b.slice(0..2).as_ref(), &[2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], 2);
    }
}
