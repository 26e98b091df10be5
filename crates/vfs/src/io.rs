//! Zero-copy and vectored I/O types for the [`FileSystem`] trait.
//!
//! SplitFS's central claim is that data operations should be processor
//! loads and stores on mapped persistent memory.  The plain POSIX read
//! path contradicts that: `read_at` memcpys bytes out of a DAX mapping
//! into a caller buffer, and every `write` is one contiguous span even
//! when the application assembled the record from parts.  This module
//! provides the types that let the API express what the hardware can do:
//!
//! * [`IoVec`] — one slice of a gathered write, the argument unit of
//!   [`FileSystem::writev_at`] and [`FileSystem::appendv`];
//! * [`ReadView`] — the result of [`FileSystem::read_view`]: either a
//!   **borrow-guard** over mapped device memory (zero memcpy; SplitFS and
//!   the kernel file system serve this from their mapping structures) or
//!   an owned buffer (the baseline fallback), behind one type so callers
//!   are written once.
//!
//! [`FileSystem`]: crate::FileSystem
//! [`FileSystem::writev_at`]: crate::FileSystem::writev_at
//! [`FileSystem::appendv`]: crate::FileSystem::appendv
//! [`FileSystem::read_view`]: crate::FileSystem::read_view

use std::ops::Deref;

use pmem::PmemView;

/// One slice of a gathered (vectored) write, the moral equivalent of
/// `struct iovec`.
///
/// A `&[IoVec<'_>]` describes a logically contiguous byte range assembled
/// from discontiguous parts; [`FileSystem::writev_at`](crate::FileSystem::writev_at)
/// and [`FileSystem::appendv`](crate::FileSystem::appendv) write it as one
/// operation — one syscall-equivalent, one allocation/journal decision,
/// and (on SplitFS) one staging gather with one log fence.
#[derive(Debug, Clone, Copy)]
pub struct IoVec<'a> {
    data: &'a [u8],
}

impl<'a> IoVec<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    /// The wrapped bytes.
    pub fn as_slice(&self) -> &'a [u8] {
        self.data
    }

    /// Length of this slice in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl AsRef<[u8]> for IoVec<'_> {
    fn as_ref(&self) -> &[u8] {
        self.data
    }
}

impl<'a> From<&'a [u8]> for IoVec<'a> {
    fn from(data: &'a [u8]) -> Self {
        Self::new(data)
    }
}

impl<'a, const N: usize> From<&'a [u8; N]> for IoVec<'a> {
    fn from(data: &'a [u8; N]) -> Self {
        Self::new(data)
    }
}

/// Total byte length of a gather list.
pub fn iov_total_len(iov: &[IoVec<'_>]) -> u64 {
    iov.iter().map(|v| v.len() as u64).sum()
}

/// The result of a [`FileSystem::read_view`](crate::FileSystem::read_view):
/// file bytes served either as a zero-copy borrow of mapped device memory
/// or as an owned buffer, behind one dereferenceable type.
///
/// A `Mapped` view is a borrow guard: it pins the underlying device region
/// (readers-writer semantics) for its lifetime, exactly like holding a
/// pointer into a DAX mapping.  Treat it as short-lived: drop it (or
/// [`ReadView::into_vec`] it) before issuing further writes from the same
/// thread, and never hold one while blocking on a lock that a writing
/// thread may own — the pinned region blocks writers from **any** thread,
/// so parking on such a lock with a live view is an ABBA deadlock.
#[derive(Debug)]
pub enum ReadView<'a> {
    /// A zero-copy borrow of mapped persistent memory — no memcpy was
    /// performed to produce these bytes.
    Mapped(PmemView<'a>),
    /// An owned copy (baseline fallback, hole-spanning reads, or ranges
    /// overlaid by not-yet-relinked staged data).
    Owned(Vec<u8>),
}

impl ReadView<'_> {
    /// The bytes of the view.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ReadView::Mapped(view) => view,
            ReadView::Owned(buf) => buf,
        }
    }

    /// Length of the view in bytes (like a `read` return value, this may be
    /// shorter than requested near end of file).
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the view is empty (offset at or past end of file).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes were served without a memcpy.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self, ReadView::Mapped(_))
    }

    /// Converts the view into an owned vector, copying only if the view was
    /// zero-copy (an `Owned` view is returned as-is).  This also releases
    /// the borrow guard, so it is the right way to keep the bytes around
    /// across further file-system calls.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            ReadView::Mapped(view) => view.to_vec(),
            ReadView::Owned(buf) => buf,
        }
    }
}

impl Deref for ReadView<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ReadView<'_> {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iovec_wraps_and_measures_slices() {
        let a = [1u8, 2, 3];
        let b: &[u8] = &[4, 5];
        let iov = [IoVec::from(&a), IoVec::new(b), IoVec::new(&[])];
        assert_eq!(iov_total_len(&iov), 5);
        assert_eq!(iov[1].as_ref(), b);
        assert!(iov[2].is_empty());
        assert_eq!(iov[0].len(), 3);
    }

    #[test]
    fn owned_view_dereferences_and_converts_without_copy_semantics() {
        let view = ReadView::Owned(vec![7u8; 10]);
        assert_eq!(view.len(), 10);
        assert!(!view.is_zero_copy());
        assert_eq!(&view[..3], &[7, 7, 7]);
        assert_eq!(view.into_vec(), vec![7u8; 10]);
    }

    #[test]
    fn mapped_view_reports_zero_copy() {
        let device = pmem::PmemBuilder::new(1024 * 1024).build();
        device.write_uncharged(64, &[9u8; 32]);
        let inner = device
            .try_read_view(
                64,
                32,
                pmem::AccessPattern::Sequential,
                pmem::TimeCategory::UserData,
            )
            .unwrap();
        let view = ReadView::Mapped(inner);
        assert!(view.is_zero_copy());
        assert_eq!(view.len(), 32);
        assert!(view.iter().all(|&b| b == 9));
        assert_eq!(view.into_vec(), vec![9u8; 32]);
    }
}
