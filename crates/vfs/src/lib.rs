//! Common file-system interface for the SplitFS reproduction.
//!
//! Every file system in the workspace — the ext4-DAX-like kernel file
//! system (`kernelfs`), the baselines (PMFS, NOVA, Strata) and SplitFS
//! itself — implements the [`FileSystem`] trait, so workloads, example
//! applications and the benchmark harness are written once and run against
//! any of them.  The trait mirrors the subset of POSIX the paper's U-Split
//! library intercepts — `open`, `close`, `pread`/`pwrite`, `read`/`write`
//! with a file offset, `fsync`, `ftruncate`, `unlink`, `rename`, `mkdir`,
//! `readdir`, `stat` and `lseek` — and extends it with the operations a
//! persistent-memory file system can serve better than POSIX can express:
//!
//! * **Zero-copy reads** — [`FileSystem::read_view`] returns a
//!   [`ReadView`] borrow guard; SplitFS and the kernel file system serve
//!   it directly from their DAX mappings with no memcpy, while the
//!   baselines fall back to an owned buffer behind the same type.
//! * **Vectored writes** — [`FileSystem::writev_at`] and
//!   [`FileSystem::appendv`] take a gather list of [`IoVec`]s and apply it
//!   as *one* operation: one syscall-equivalent, one allocation/journal
//!   decision, and on SplitFS one staging gather whose operation-log
//!   entries group-commit under a single fence.
//! * **Batched durability** — [`FileSystem::fsync_many`] retires the
//!   staged state of many descriptors in one transaction (SplitFS routes
//!   it through the batched relink ioctl: one kernel journal commit for M
//!   files), and [`FileSystem::fdatasync`] skips metadata work when only
//!   data durability is needed.
//!
//! The vectored writes are the **required** primitives: an implementor
//! supplies [`FileSystem::writev_at`] and [`FileSystem::appendv`] — one
//! write body that takes an offset or "end of file" — and the scalar
//! [`FileSystem::write_at`] and the POSIX conveniences (`append`,
//! `read_file`, `write_file`) are provided on top of them.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod io;
pub mod path;
pub mod trace;
pub mod types;
pub mod util;

use std::sync::Arc;

pub use error::{FsError, FsResult};
pub use io::{iov_total_len, IoVec, ReadView};
pub use trace::TracedFs;
pub use types::{ConsistencyClass, Fd, FileStat, OpenFlags, SeekFrom};

use pmem::PmemDevice;

/// The POSIX-like file-system interface shared by every file system in the
/// reproduction.
///
/// Paths are absolute, `/`-separated UTF-8 strings (e.g. `"/db/wal.log"`).
/// File descriptors are plain integers scoped to the file-system instance.
pub trait FileSystem: Send + Sync {
    /// Short human-readable name used in experiment reports
    /// (e.g. `"ext4-DAX"`, `"NOVA-strict"`, `"SplitFS-POSIX"`).
    fn name(&self) -> String;

    /// The crash-consistency guarantee class this configuration provides,
    /// used to group comparable file systems (paper Table 3).
    fn consistency(&self) -> ConsistencyClass;

    /// The persistent-memory device this file system runs on.
    fn device(&self) -> &Arc<PmemDevice>;

    /// Opens (and possibly creates) the file at `path`.
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd>;

    /// Closes an open descriptor.
    fn close(&self, fd: Fd) -> FsResult<()>;

    /// Reads up to `buf.len()` bytes at absolute `offset` (like `pread`).
    /// Returns the number of bytes read; 0 at or past end of file.
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize>;

    /// Writes `data` at absolute `offset` (like `pwrite`), extending the
    /// file if the range goes past the current end.  Returns bytes written.
    /// Provided: a gather of one slice through [`FileSystem::writev_at`].
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.writev_at(fd, offset, &[IoVec::new(data)])
    }

    /// Reads from the descriptor's current offset, advancing it.
    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize>;

    /// Writes at the descriptor's current offset (or at end of file when the
    /// descriptor was opened with `append`), advancing it.
    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize>;

    /// Moves the descriptor's offset.  Returns the new absolute offset.
    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64>;

    /// Flushes all completed-but-volatile state of this file to the
    /// persistence domain.  In SplitFS this is where staged appends are
    /// relinked into the target file.
    fn fsync(&self, fd: Fd) -> FsResult<()>;

    /// Truncates or extends the file to exactly `size` bytes.
    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()>;

    /// Returns metadata for the open descriptor.
    fn fstat(&self, fd: Fd) -> FsResult<FileStat>;

    /// Returns metadata for `path`.
    fn stat(&self, path: &str) -> FsResult<FileStat>;

    /// Removes the file at `path` (directories use [`FileSystem::rmdir`]).
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Atomically renames `old` to `new`, replacing `new` if it exists.
    fn rename(&self, old: &str, new: &str) -> FsResult<()>;

    /// Creates a directory at `path` (parent must exist).
    fn mkdir(&self, path: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &str) -> FsResult<()>;

    /// Lists the entry names (not full paths) in the directory at `path`.
    fn readdir(&self, path: &str) -> FsResult<Vec<String>>;

    /// Whole-file-system synchronization point.  For most file systems this
    /// is a no-op; Strata uses it to run a digest, and SplitFS uses it in
    /// tests to force relinks of every open file.
    fn sync(&self) -> FsResult<()> {
        Ok(())
    }

    // ------------------------------------------------------------------
    // Zero-copy / vectored / batch-durable extensions
    // ------------------------------------------------------------------

    /// Reads up to `len` bytes at absolute `offset` as a [`ReadView`].
    ///
    /// File systems that can serve the range from a DAX mapping return a
    /// zero-copy borrow ([`ReadView::Mapped`]); the provided default reads
    /// through [`FileSystem::read_at`] into an owned buffer.  Like
    /// `read_at`, the view is clipped at end of file and empty at or past
    /// it.
    ///
    /// A mapped view is a borrow guard over device memory: drop it (or
    /// [`ReadView::into_vec`] it) before issuing writes that may touch the
    /// same region from the same thread.
    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        let mut buf = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let n = self.read_at(fd, offset + done as u64, &mut buf[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        buf.truncate(done);
        Ok(ReadView::Owned(buf))
    }

    /// Writes a gather list at absolute `offset` as one logical operation,
    /// extending the file if the range goes past the current end.  Returns
    /// the total bytes written.
    ///
    /// Implementations pay the per-operation costs (syscall, allocation,
    /// journal/log commit) once for the whole gather; the scalar
    /// [`FileSystem::write_at`] is this with one slice.
    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize>;

    /// Appends a gather list at the end of file as one logical operation.
    ///
    /// Implementations resolve the end-of-file offset and perform the
    /// write under a single file-state lock, so two concurrent appenders
    /// can never interleave into overlapping offsets.
    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize>;

    /// Flushes the completed-but-volatile state of many descriptors to the
    /// persistence domain as one batch.
    ///
    /// On SplitFS the staged extents of every named file are retired
    /// through a single batched relink — one kernel trap and one journal
    /// transaction for the whole set — and the kernel file system forces
    /// one journal commit instead of one per descriptor.  The provided
    /// default fsyncs each descriptor in turn.
    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        for &fd in fds {
            self.fsync(fd)?;
        }
        Ok(())
    }

    /// Like [`FileSystem::fsync`], but only guarantees *data* durability:
    /// file systems that force a metadata journal commit on `fsync` may
    /// skip it here (the `fdatasync(2)` contract).  The provided default
    /// falls back to a full `fsync`.
    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        self.fsync(fd)
    }

    // ------------------------------------------------------------------
    // Conveniences (implemented on the primitives above)
    // ------------------------------------------------------------------

    /// Returns `true` when `path` refers to an existing file or directory.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Convenience: appends `data` at the current end of file.  Delegates
    /// to [`FileSystem::appendv`], so implementations that resolve the end
    /// of file under their file-state lock make plain `append` race-free
    /// too.
    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.appendv(fd, &[IoVec::new(data)])
    }

    /// Convenience: reads the whole file at `path` into a vector, through
    /// [`FileSystem::read_view`] (one copy at most, zero while viewing).
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read_only())?;
        let size = self.fstat(fd)?.size as usize;
        // Materialize before close: a mapped view is a borrow guard over
        // device memory and must not be held across further operations.
        let buf = self.read_view(fd, 0, size)?.into_vec();
        self.close(fd)?;
        Ok(buf)
    }

    /// Convenience: creates/truncates `path` and writes `data` to it,
    /// followed by an `fsync`.
    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(path, OpenFlags::create_truncate())?;
        let mut done = 0usize;
        while done < data.len() {
            let n = self.write_at(fd, done as u64, &data[done..])?;
            if n == 0 {
                return Err(FsError::Io("short write".to_string()));
            }
            done += n;
        }
        self.fsync(fd)?;
        self.close(fd)
    }
}

#[cfg(test)]
mod tests {
    // The trait's provided methods are exercised against real file systems
    // in the kernelfs / splitfs crates and in the workspace integration
    // tests; this module only checks that the trait is object safe.
    use super::*;

    #[test]
    fn filesystem_trait_is_object_safe() {
        fn _takes_dyn(_fs: &dyn FileSystem) {}
    }
}
