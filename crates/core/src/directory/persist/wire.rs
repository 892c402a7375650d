//! Little-endian byte helpers shared by the snapshot and journal codecs.
//!
//! Deliberately minimal: fixed-width LE primitives plus a bounds-checked
//! [`Reader`]. Every read returns [`PersistError::Truncated`] instead of
//! panicking, so decoding arbitrary (fuzzed, faulted) bytes is safe.

use super::PersistError;
use crate::path::{PathView, PeerPath};
use nearpeer_topology::RouterId;

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a peer path as `u16 len | len × u32 router`.
pub(crate) fn put_path(out: &mut Vec<u8>, path: PathView<'_>) {
    let routers = path.routers();
    debug_assert!(routers.len() <= u16::MAX as usize);
    put_u16(out, routers.len() as u16);
    for r in routers {
        put_u32(out, r.0);
    }
}

/// Bounds-checked cursor over an immutable byte slice.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length prefix that will be used to reserve or iterate; the
    /// value is additionally bounded by the bytes actually remaining (each
    /// element needs at least `min_elem_bytes`), so a corrupt length can't
    /// drive a huge allocation.
    pub(crate) fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(PersistError::Truncated);
        }
        Ok(n)
    }

    /// Reads a path written by [`put_path`].
    pub(crate) fn path(&mut self) -> Result<PeerPath, PersistError> {
        let n = self.u16()? as usize;
        let mut routers = Vec::with_capacity(n);
        for _ in 0..n {
            routers.push(RouterId(self.u32()?));
        }
        PeerPath::new(routers).map_err(|e| PersistError::Corrupt(format!("stored path: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(PersistError::Truncated));
    }

    #[test]
    fn roundtrip_path() {
        let path = PeerPath::new(vec![RouterId(5), RouterId(3), RouterId(0)]).unwrap();
        let mut buf = Vec::new();
        put_path(&mut buf, path.view());
        let mut r = Reader::new(&buf);
        assert_eq!(r.path().unwrap(), path);
    }

    #[test]
    fn len_prefix_rejects_absurd_lengths() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut r = Reader::new(&buf);
        assert_eq!(r.len_prefix(4), Err(PersistError::Truncated));
    }

    #[test]
    fn invalid_stored_path_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 0); // empty path is invalid
        let mut r = Reader::new(&buf);
        assert!(matches!(r.path(), Err(PersistError::Corrupt(_))));
    }
}
