//! Offline stand-in for the `bytes` crate (1.x API subset).
//!
//! Backed by a plain `Vec<u8>` plus a read cursor instead of refcounted
//! shared buffers — the codec only needs correctness and a compatible API,
//! not zero-copy splitting. `split_to` therefore copies; `freeze` moves the
//! buffer (dropping the consumed front in place), as upstream's does
//! without copying. Every observable behaviour (big-endian put/get,
//! `advance`, deref to the unread bytes, `Buf` for `&[u8]`) matches
//! upstream.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// Immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: data.to_vec(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Growable byte buffer with a read cursor at the front.
///
/// Writes append at the back; reads (`get_*`, `advance`, `split_to`)
/// consume from the front. Deref exposes only the unread tail, matching
/// upstream `BytesMut`.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    head: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
            head: 0,
        }
    }

    fn unread(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Drops the consumed front once it dominates the buffer, so a
    /// long-lived streaming buffer stays proportional to its *unread*
    /// bytes (upstream BytesMut reclaims the same way).
    fn reclaim(&mut self) {
        if self.head > 32 && self.head >= self.data.len() / 2 {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }

    /// Makes room for at least `additional` more bytes without another
    /// allocation (amortised growth, like `Vec::reserve`).
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Drops every byte, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Splits off and returns the first `n` unread bytes.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of bounds");
        let front = self.unread()[..n].to_vec();
        self.head += n;
        BytesMut {
            data: front,
            head: 0,
        }
    }

    /// Converts the unread bytes into an immutable [`Bytes`], moving the
    /// allocation rather than copying it.
    pub fn freeze(mut self) -> Bytes {
        self.data.drain(..self.head);
        Bytes { data: self.data }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.unread() == other.unread()
    }
}

impl Eq for BytesMut {}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.unread()
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let head = self.head;
        &mut self.data[head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.unread()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            data: src.to_vec(),
            head: 0,
        }
    }
}

/// Read-side cursor operations.
pub trait Buf {
    /// Number of unread bytes.
    fn remaining(&self) -> usize;
    /// Skips `n` unread bytes.
    fn advance(&mut self, n: usize);
    /// Fills `dst` from the next `dst.len()` unread bytes and consumes
    /// them; panics on underflow.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.head += n;
        self.reclaim();
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        assert!(n <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self.unread()[..n]);
        self.head += n;
        self.reclaim();
    }
}

/// A slice is its own read cursor: reads consume from the front by
/// re-slicing, and never allocate.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        assert!(n <= self.len(), "buffer underflow");
        let (front, rest) = self.split_at(n);
        dst.copy_from_slice(front);
        *self = rest;
    }
}

/// Write-side append operations.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get_round_trips() {
        let mut b = BytesMut::new();
        b.put_u32(0xDEAD_BEEF);
        b.put_u8(7);
        b.put_u16(300);
        b.put_u64(u64::MAX - 1);
        b.put_slice(&[1, 2, 3]);
        assert_eq!(b.len(), 4 + 1 + 2 + 8 + 3);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 300);
        assert_eq!(b.get_u64(), u64::MAX - 1);
        assert_eq!(&b[..], &[1, 2, 3]);
        let mut front = [0; 2];
        b.copy_to_slice(&mut front);
        assert_eq!(front, [1, 2]);
        assert_eq!(&b[..], &[3]);
    }

    #[test]
    fn advance_and_split_expose_the_tail() {
        let mut b = BytesMut::from(&[0, 1, 2, 3, 4, 5][..]);
        b.advance(2);
        assert_eq!(&b[..], &[2, 3, 4, 5]);
        let front = b.split_to(3);
        assert_eq!(&front[..], &[2, 3, 4]);
        assert_eq!(&b[..], &[5]);
        assert_eq!(front.to_vec(), vec![2, 3, 4]);
    }

    #[test]
    fn freeze_keeps_only_unread() {
        let mut b = BytesMut::new();
        b.put_u16(0x0102);
        b.advance(1);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[2]);
    }

    #[test]
    fn freeze_moves_the_unread_bytes_after_advance() {
        let mut b = BytesMut::with_capacity(64);
        for i in 0..40u8 {
            b.put_u8(i);
        }
        b.advance(3);
        let ptr = b.data.as_ptr();
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &(3..40).collect::<Vec<u8>>()[..]);
        assert_eq!(frozen.data.as_ptr(), ptr, "freeze keeps the allocation");
        // Past the reclaim threshold the consumed front is already gone.
        let mut b = BytesMut::from(&(0..100).collect::<Vec<u8>>()[..]);
        b.advance(60);
        assert_eq!(&b.freeze()[..], &(60..100).collect::<Vec<u8>>()[..]);
    }

    #[test]
    fn slices_read_as_cursors() {
        let bytes = [0, 0, 1, 2, 9, 8, 7];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.get_u16(), 0);
        assert_eq!(cur.get_u16(), 0x0102);
        cur.advance(1);
        assert_eq!(cur.remaining(), 2);
        assert_eq!(cur.get_u8(), 8);
        assert_eq!(cur, &[7][..]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn slice_underflow_panics() {
        let mut cur: &[u8] = &[1, 2, 3];
        let _ = cur.get_u32();
    }

    #[test]
    fn consumed_front_is_reclaimed() {
        let mut b = BytesMut::new();
        for frame in 0..1_000u32 {
            b.put_u32(frame);
            assert_eq!(b.get_u32(), frame);
        }
        // One frame in flight at a time: capacity must not grow with the
        // total bytes ever streamed through.
        assert!(
            b.data.len() < 128,
            "backing store kept {} bytes",
            b.data.len()
        );
    }

    #[test]
    fn clear_drops_read_and_unread_bytes() {
        let mut b = BytesMut::from(&[1, 2, 3, 4][..]);
        b.advance(1);
        b.clear();
        assert!(b.is_empty());
        b.put_u8(9);
        assert_eq!(&b[..], &[9]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = BytesMut::new();
        b.put_u8(1);
        let _ = b.get_u32();
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_after_partial_reads_panics() {
        let mut b = BytesMut::new();
        b.put_u32(7);
        b.put_u16(9);
        assert_eq!(b.get_u32(), 7);
        // Two bytes left: an eight-byte read must refuse, not read stale
        // or zeroed bytes.
        let _ = b.get_u64();
    }
}
