//! Offline stand-in for the `bytes` crate.
//!
//! Implements exactly the subset of the real `bytes::Bytes` API this
//! workspace uses: a cheaply cloneable, sliceable view into a shared,
//! immutable byte buffer. `Bytes::from(vec)` takes ownership without
//! copying; `clone` and `slice` are reference-count bumps; the payload
//! is freed when the last view drops.
//!
//! The representation is a shared buffer plus an `(offset, len)` window:
//! an `Arc<Vec<u8>>` for a vector taken over without copying, an
//! `Arc<[u8]>` for a copy, so that, as in the real crate,
//! `copy_from_slice` allocates once (the counts and the bytes in one
//! block) and zero-copy slicing of received messages stays a refcount
//! bump.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable view into a shared byte buffer.
#[derive(Clone)]
pub struct Bytes {
    buf: Shared,
    off: usize,
    len: usize,
}

/// The buffer a [`Bytes`] views.
#[derive(Clone)]
enum Shared {
    /// A vector taken over by `From<Vec<u8>>`.
    Vec(Arc<Vec<u8>>),
    /// A copy, made in one allocation.
    Copy(Arc<[u8]>),
}

impl Shared {
    fn bytes(&self) -> &[u8] {
        match self {
            Shared::Vec(v) => v,
            Shared::Copy(c) => c,
        }
    }
}

impl Bytes {
    /// An empty `Bytes`. Allocates only the (empty) backing `Arc`.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copy `data` into a freshly allocated shared buffer, in one
    /// allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            buf: Shared::Copy(Arc::from(data)),
            off: 0,
            len: data.len(),
        }
    }

    /// Length of this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-copy sub-view; panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            buf: self.buf.clone(),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Shared::Vec(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf.bytes()[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == other[..]
    }
}

impl<const N: usize> PartialEq<Bytes> for [u8; N] {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == **other
    }
}

impl<'a, T: ?Sized> PartialEq<&'a T> for Bytes
where
    Bytes: PartialEq<T>,
{
    fn eq(&self, other: &&'a T) -> bool {
        *self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy_and_sliceable() {
        let v = vec![1u8, 2, 3, 4, 5];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec> must not copy");
        assert_eq!(b.len(), 5);
        let s = b.slice(1..4);
        assert_eq!(s, [2, 3, 4]);
        assert_eq!(s.as_ptr(), ptr.wrapping_add(1));
        let s2 = s.slice(..2);
        assert_eq!(s2, &[2u8, 3][..]);
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b, *b"hello");
        assert_eq!(b, b"hello");
        assert_eq!(b, b"hello".to_vec());
        assert_eq!(b, b"hello"[..]);
        assert_eq!(b.clone(), b);
        assert_ne!(b, b"help!");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::copy_from_slice(b"abc").slice(1..5);
    }
}
