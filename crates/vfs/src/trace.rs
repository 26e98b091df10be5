//! [`TracedFs`]: the span-recording decorator over any [`FileSystem`].
//!
//! Wrapping a file system in `TracedFs` opens one [`obs::SpanGuard`]
//! around *every* trait method, so each operation's simulated time,
//! per [`pmem::TimeCategory`], lands in the recorder's per-op
//! aggregates.  Data-path methods get their own
//! [`obs::OpKind`]; metadata operations (stat, rename, mkdir,
//! readdir, ...) are spanned as [`obs::OpKind::Other`] so the sum of
//! all spans reconciles against the device's aggregate stats.
//!
//! The wrapper adds no synchronization of its own (spans are
//! thread-local and lock-free) and delegates every call unchanged, so
//! a traced run behaves identically to an untraced one — the only
//! override beyond spanning is [`FileSystem::append`], which forwards
//! straight to the inner `appendv` under an [`obs::OpKind::Append`]
//! span rather than re-entering the traced `appendv` (the nested
//! guard would be passive anyway; this keeps one guard per call).

use std::sync::Arc;

use obs::{OpKind, Recorder};
use pmem::PmemDevice;

use crate::{
    ConsistencyClass, Fd, FileStat, FileSystem, FsResult, IoVec, OpenFlags, ReadView, SeekFrom,
};

/// A [`FileSystem`] decorator that records one span per operation into
/// an [`obs::Recorder`].
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
    recorder: Arc<Recorder>,
}

impl TracedFs {
    /// Wraps `inner` so every operation records into `recorder`.
    pub fn new(inner: Arc<dyn FileSystem>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    /// The recorder operations are recorded into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &Arc<dyn FileSystem> {
        &self.inner
    }
}

impl FileSystem for TracedFs {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn consistency(&self) -> ConsistencyClass {
        self.inner.consistency()
    }

    fn device(&self) -> &Arc<PmemDevice> {
        self.inner.device()
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let kind = if flags.create {
            OpKind::Create
        } else {
            OpKind::Open
        };
        let _span = self.recorder.span(kind);
        self.inner.open(path, flags)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Close);
        self.inner.close(fd)
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Read);
        self.inner.read_at(fd, offset, buf)
    }

    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Write);
        self.inner.write_at(fd, offset, data)
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Read);
        self.inner.read(fd, buf)
    }

    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Write);
        self.inner.write(fd, data)
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.lseek(fd, pos)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Fsync);
        self.inner.fsync(fd)
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.ftruncate(fd, size)
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.fstat(fd)
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.stat(path)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.unlink(path)
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.rename(old, new)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.mkdir(path)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.rmdir(path)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.readdir(path)
    }

    fn sync(&self) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Other);
        self.inner.sync()
    }

    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        let _span = self.recorder.span(OpKind::ReadView);
        self.inner.read_view(fd, offset, len)
    }

    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::WritevAt);
        self.inner.writev_at(fd, offset, iov)
    }

    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Appendv);
        self.inner.appendv(fd, iov)
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let _span = self.recorder.span(OpKind::Append);
        self.inner.appendv(fd, &[IoVec::new(data)])
    }

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::FsyncMany);
        self.inner.fsync_many(fds)
    }

    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        let _span = self.recorder.span(OpKind::Fdatasync);
        self.inner.fdatasync(fd)
    }
}
