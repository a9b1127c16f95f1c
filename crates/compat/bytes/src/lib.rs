//! Offline stand-in for the subset of the `bytes` crate this workspace
//! uses: [`Bytes`] (cheaply cloneable immutable buffer), [`BytesMut`]
//! (growable builder) and the [`Buf`]/[`BufMut`] cursor traits.
//!
//! [`Bytes`] is a sub-range of either a `&'static [u8]` or an
//! `Arc<[u8]>`, so `clone()` and `slice()` are O(1) and never copy
//! payload — the property the simulated network relies on when it fans
//! one packet out to capture hooks and receivers. An empty or static
//! buffer allocates nothing, and any other costs exactly one allocation:
//! the `Arc<[u8]>` holding its bytes.

#![forbid(unsafe_code)]

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// The backing store of a [`Bytes`].
#[derive(Clone)]
enum Store {
    Static(&'static [u8]),
    /// Reference count and payload in one allocation (`Arc<Vec<u8>>`
    /// would take two: the `Arc` box and the vector's buffer).
    Shared(Arc<[u8]>),
}

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Building one from a slice copies the bytes once into a fresh
/// `Arc<[u8]>`; building one from an owned `Vec`, `Box` or `String` does
/// the same and frees the source, so a producer that writes into a
/// reused buffer and then copies pays one allocation per `Bytes`.
#[derive(Clone)]
pub struct Bytes {
    store: Store,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::from_static(&[])
    }
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation).
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wraps a static slice (no allocation, no copy).
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes {
            store: Store::Static(s),
            start: 0,
            end: s.len(),
        }
    }

    /// Copies `s` into a new `Bytes`: one allocation, none when empty.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        if s.is_empty() {
            return Bytes::new();
        }
        Bytes {
            store: Store::Shared(Arc::from(s)),
            start: 0,
            end: s.len(),
        }
    }

    /// The whole backing store.
    fn store(&self) -> &[u8] {
        match &self.store {
            Store::Static(s) => s,
            Store::Shared(s) => s,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same allocation (O(1), no copy).
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice out of bounds: {lo}..{hi} of {len}"
        );
        Bytes {
            store: self.store.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.store()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// A growable byte builder; freeze it into [`Bytes`] when done.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty builder with at least `cap` reserved bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`] (one
    /// allocation, for the copy).
    pub fn freeze(self) -> Bytes {
        Bytes::copy_from_slice(&self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read-cursor trait over a contiguous buffer (the slice of the real
/// `bytes::Buf` this workspace needs).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte, advancing.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a big-endian `u16`, advancing.
    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes([self.chunk()[0], self.chunk()[1]]);
        self.advance(2);
        v
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

/// Write-cursor trait (the slice of the real `bytes::BufMut` this
/// workspace needs).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

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
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn slice_and_split() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(b.slice(2..4).as_ref(), &[2, 3]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[0, 1]);
        assert_eq!(b.as_ref(), &[2, 3, 4, 5]);
    }

    #[test]
    fn builder_freeze() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_slice(b"xy");
        assert_eq!(m.freeze().as_ref(), &[0xAB, 0x01, 0x02, b'x', b'y']);
    }

    #[test]
    fn buf_cursor() {
        let mut b = Bytes::from(vec![0xDE, 0xAD, 0xBE]);
        assert_eq!(b.get_u16(), 0xDEAD);
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.get_u8(), 0xBE);
        assert_eq!(b.remaining(), 0);
    }
}
