//! io_uring-shaped asynchronous frontend over [`vfs::FileSystem`].
//!
//! The synchronous API blocks every caller through staging plus a log
//! fence, so a server fronting many connections cannot keep thousands
//! of operations in flight per core.  This crate adds the missing
//! shape: callers enqueue [`Sqe`]s (append/write/read/fsync) into a
//! lock-free per-thread **submission ring** and harvest [`Cqe`]s from a
//! paired **completion ring**.  Completions carry a **durability
//! epoch** — a monotonically published sequence number meaning "every
//! write with epoch ≤ N is durable" — so a caller awaits
//! [`RingFs::await_epoch`] instead of issuing `fsync`.
//!
//! A *drainer* (the caller itself, or a file system's maintenance
//! daemon) pops submissions from every registered ring and hands the
//! whole cross-ring batch to one [`RingBackend::run_batch`] call.
//! That is the structural win over the synchronous path: the backend
//! sees operations against *unrelated* files side by side and can
//! coalesce their ordering fences — something a blocking `appendv`,
//! which returns before the next operation exists, can never do.
//!
//! Epoch rules (the invariants the tests and CI gate):
//!
//! 1. A backend publishes an epoch only *after* the fence that made
//!    every write with that epoch durable.
//! 2. A [`Cqe`] never reports an epoch greater than the backend's
//!    published epoch at the time the completion is posted.
//! 3. Published epochs are monotone (`fetch_max` publication).
//!
//! Lock ordering: the drain lock is the outermost lock — a drainer
//! acquires file-system locks (file states, the staging pool) *under*
//! it, so no thread may submit, drain, or await an epoch while holding
//! any file-system lock.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use pmem::PmemDevice;
use vfs::{Fd, FileSystem, FsError, FsResult, IoVec};

/// Default number of submissions a single drain pass will pop.
pub const DEFAULT_DRAIN_BATCH: usize = 256;

// ---------------------------------------------------------------------
// Submission and completion entries
// ---------------------------------------------------------------------

/// The operation carried by one submission entry.  Buffers are owned:
/// a submission outlives the submitting stack frame and crosses
/// threads to whichever drainer executes it.
#[derive(Debug, Clone)]
pub enum SqeOp {
    /// Append a gather list at the end of file (offset resolved under
    /// the file-state lock at execution time, like `appendv`).
    Appendv {
        /// Target descriptor.
        fd: Fd,
        /// Gather list, one owned buffer per slice.
        bufs: Vec<Vec<u8>>,
    },
    /// Write a gather list at an absolute offset (like `writev_at`).
    WritevAt {
        /// Target descriptor.
        fd: Fd,
        /// Absolute file offset of the first byte.
        offset: u64,
        /// Gather list, one owned buffer per slice.
        bufs: Vec<Vec<u8>>,
    },
    /// Read up to `len` bytes at an absolute offset; the bytes come
    /// back in [`Cqe::data`].
    Read {
        /// Source descriptor.
        fd: Fd,
        /// Absolute file offset of the first byte.
        offset: u64,
        /// Maximum bytes to read.
        len: usize,
    },
    /// Flush the descriptor's completed-but-volatile state.
    Fsync {
        /// Target descriptor.
        fd: Fd,
    },
}

impl SqeOp {
    /// Whether this operation writes data (and therefore participates
    /// in the batch's durability fence and epoch).
    pub fn is_write(&self) -> bool {
        matches!(self, SqeOp::Appendv { .. } | SqeOp::WritevAt { .. })
    }

    /// The descriptor the operation targets.
    pub fn fd(&self) -> Fd {
        match self {
            SqeOp::Appendv { fd, .. }
            | SqeOp::WritevAt { fd, .. }
            | SqeOp::Read { fd, .. }
            | SqeOp::Fsync { fd } => *fd,
        }
    }
}

/// One submission-queue entry.
#[derive(Debug, Clone)]
pub struct Sqe {
    /// Opaque caller tag, echoed verbatim in the matching [`Cqe`].
    pub user_data: u64,
    /// The operation to perform.
    pub op: SqeOp,
}

impl Sqe {
    /// Builds an append submission from owned buffers.
    pub fn appendv(user_data: u64, fd: Fd, bufs: Vec<Vec<u8>>) -> Self {
        Self {
            user_data,
            op: SqeOp::Appendv { fd, bufs },
        }
    }

    /// Builds a positioned vectored-write submission.
    pub fn writev_at(user_data: u64, fd: Fd, offset: u64, bufs: Vec<Vec<u8>>) -> Self {
        Self {
            user_data,
            op: SqeOp::WritevAt { fd, offset, bufs },
        }
    }

    /// Builds a positioned read submission.
    pub fn read(user_data: u64, fd: Fd, offset: u64, len: usize) -> Self {
        Self {
            user_data,
            op: SqeOp::Read { fd, offset, len },
        }
    }

    /// Builds an fsync submission.
    pub fn fsync(user_data: u64, fd: Fd) -> Self {
        Self {
            user_data,
            op: SqeOp::Fsync { fd },
        }
    }
}

/// One completion-queue entry.
#[derive(Debug)]
pub struct Cqe {
    /// The submitting caller's tag, copied from the [`Sqe`].
    pub user_data: u64,
    /// Bytes transferred (writes/reads) or 0 (fsync), or the error the
    /// operation failed with.
    pub result: FsResult<u64>,
    /// The durability epoch this completion is covered by: once
    /// [`RingBackend::published_epoch`] reaches this value, the
    /// operation's effects are durable.  Never greater than the
    /// published epoch at posting time (epoch rule 2).
    pub epoch: u64,
    /// The bytes a [`SqeOp::Read`] produced.
    pub data: Option<Vec<u8>>,
}

// ---------------------------------------------------------------------
// Lock-free single-producer / single-consumer ring
// ---------------------------------------------------------------------

/// A bounded lock-free SPSC ring buffer.
///
/// Soundness contract (enforced by the owning types, not by this
/// struct): at most one thread pushes concurrently and at most one
/// thread pops concurrently.  [`Ring`] is `!Sync`, making the caller
/// side single-threaded; the drainer side is serialized by
/// [`RingFs`]'s drain lock.
struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    mask: usize,
    /// Next slot to pop (consumer cursor).
    head: AtomicUsize,
    /// Next slot to push (producer cursor).
    tail: AtomicUsize,
}

// SAFETY: the single-producer/single-consumer contract above means a
// slot is touched by exactly one thread at a time, with the Acquire /
// Release cursor pair ordering the hand-off.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return Err(value);
        }
        // SAFETY: only the single producer writes this slot, and the
        // consumer cannot read it until the Release store below.
        unsafe { *self.slots[tail & self.mask].get() = Some(value) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: only the single consumer reads this slot, and the
        // producer cannot reuse it until the Release store below.
        let value = unsafe { (*self.slots[head & self.mask].get()).take() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }
}

// ---------------------------------------------------------------------
// Ring pair
// ---------------------------------------------------------------------

/// The shared state behind one caller's ring pair: its submission
/// ring, its completion ring, a bounded-overflow spill list, and the
/// submitted-but-unharvested count.
struct RingCore {
    sq: SpscRing<Sqe>,
    cq: SpscRing<Cqe>,
    /// Completions that arrived while the completion ring was full
    /// (the caller stopped harvesting).  Never dropped — io_uring's
    /// overflow semantics, minus the flag.
    overflow: Mutex<VecDeque<Cqe>>,
    /// Submitted entries whose completion has not been *posted* yet
    /// (queued plus executing).  Lets `await_epoch` distinguish "work
    /// still in flight elsewhere" from "that epoch will never come".
    in_flight: AtomicUsize,
}

/// A caller's handle to one submission/completion ring pair.
///
/// `Ring` is `Send` but deliberately `!Sync`: one thread owns the
/// submitting and harvesting side (the single-producer /
/// single-consumer half of the lock-free contract).  Drop the handle
/// to retire the pair; the hub holds only a weak reference and prunes
/// dead rings on the next drain.
pub struct Ring {
    core: Arc<RingCore>,
    /// `Cell` is `Send + !Sync`; inherits exactly that marker pair.
    _single_thread: PhantomData<Cell<()>>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl Ring {
    /// Submission-queue capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.core.sq.capacity()
    }

    /// Entries submitted and not yet harvested (queued, executing, or
    /// waiting in the completion ring).
    pub fn in_flight(&self) -> usize {
        self.core.in_flight.load(Ordering::Acquire)
    }

    /// Entries sitting in the submission ring awaiting a drain.
    pub fn pending(&self) -> usize {
        self.core.sq.len()
    }

    /// Enqueues one submission.  Fails (returning the entry) when the
    /// submission ring is full — the caller should drain or harvest
    /// and retry.
    pub fn try_submit(&self, sqe: Sqe) -> Result<(), Sqe> {
        self.core.in_flight.fetch_add(1, Ordering::AcqRel);
        match self.core.sq.try_push(sqe) {
            Ok(()) => Ok(()),
            Err(sqe) => {
                self.core.in_flight.fetch_sub(1, Ordering::AcqRel);
                Err(sqe)
            }
        }
    }

    /// Pops every available completion into `out`; returns how many.
    pub fn harvest(&self, out: &mut Vec<Cqe>) -> usize {
        let mut n = 0;
        {
            let mut spilled = self.core.overflow.lock();
            while let Some(cqe) = spilled.pop_front() {
                out.push(cqe);
                n += 1;
            }
        }
        while let Some(cqe) = self.core.cq.try_pop() {
            out.push(cqe);
            n += 1;
        }
        n
    }
}

// ---------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------

/// What executes drained batches: a file system (or an adapter over
/// one) that can run a cross-ring batch of submissions and stamp the
/// resulting completions with durability epochs.
pub trait RingBackend: Send + Sync {
    /// Executes `sqes` and returns exactly one [`Cqe`] per entry, in
    /// the same order.  Writes in the batch may share durability
    /// fences; the backend publishes the batch's epoch *before*
    /// returning (epoch rules 1–2).
    fn run_batch(&self, sqes: Vec<Sqe>) -> Vec<Cqe>;

    /// The highest epoch known durable.  Monotone.
    fn published_epoch(&self) -> u64;

    /// The device the backend runs on (for counter attribution).
    fn device(&self) -> &Arc<PmemDevice>;
}

/// A [`RingBackend`] any [`FileSystem`] can back: executes each
/// operation synchronously, then retires the batch's write
/// descriptors with one `fsync_many` and advances a private epoch.
/// The batch still amortizes the per-descriptor durability work even
/// though the file system underneath has no epoch concept of its own.
pub struct SyncBackend {
    fs: Arc<dyn FileSystem>,
    epoch: AtomicU64,
}

impl SyncBackend {
    /// Wraps `fs` with a fresh epoch counter starting at zero.
    pub fn new(fs: Arc<dyn FileSystem>) -> Self {
        Self {
            fs,
            epoch: AtomicU64::new(0),
        }
    }

    fn execute(&self, op: &SqeOp) -> (FsResult<u64>, Option<Vec<u8>>) {
        match op {
            SqeOp::Appendv { fd, bufs } => {
                let iov: Vec<IoVec<'_>> = bufs.iter().map(|b| IoVec::new(b)).collect();
                (self.fs.appendv(*fd, &iov).map(|n| n as u64), None)
            }
            SqeOp::WritevAt { fd, offset, bufs } => {
                let iov: Vec<IoVec<'_>> = bufs.iter().map(|b| IoVec::new(b)).collect();
                (
                    self.fs.writev_at(*fd, *offset, &iov).map(|n| n as u64),
                    None,
                )
            }
            SqeOp::Read { fd, offset, len } => {
                let mut buf = vec![0u8; *len];
                match self.fs.read_at(*fd, *offset, &mut buf) {
                    Ok(n) => {
                        buf.truncate(n);
                        (Ok(n as u64), Some(buf))
                    }
                    Err(e) => (Err(e), None),
                }
            }
            SqeOp::Fsync { fd } => (self.fs.fsync(*fd).map(|_| 0), None),
        }
    }
}

impl RingBackend for SyncBackend {
    fn run_batch(&self, sqes: Vec<Sqe>) -> Vec<Cqe> {
        let mut results = Vec::with_capacity(sqes.len());
        let mut write_fds: Vec<Fd> = Vec::new();
        let mut durable_work = false;
        for sqe in &sqes {
            let (result, data) = self.execute(&sqe.op);
            if result.is_ok() {
                match sqe.op {
                    SqeOp::Appendv { fd, .. } | SqeOp::WritevAt { fd, .. } => write_fds.push(fd),
                    SqeOp::Fsync { .. } => durable_work = true,
                    SqeOp::Read { .. } => {}
                }
            }
            results.push((result, data));
        }
        write_fds.sort_unstable();
        write_fds.dedup();
        let mut fsync_err = None;
        if !write_fds.is_empty() {
            match self.fs.fsync_many(&write_fds) {
                Ok(()) => durable_work = true,
                Err(e) => fsync_err = Some(e),
            }
        }
        // Publish before posting completions (epoch rule 2).
        let epoch = if durable_work {
            self.epoch.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            self.epoch.load(Ordering::Acquire)
        };
        sqes.into_iter()
            .zip(results)
            .map(|(sqe, (result, data))| {
                // A write is only durable if the batch fence ran; surface
                // the fence failure on every write it stranded.
                let result = match (&fsync_err, &sqe.op) {
                    (Some(e), op) if op.is_write() && result.is_ok() => Err(e.clone()),
                    _ => result,
                };
                Cqe {
                    user_data: sqe.user_data,
                    result,
                    epoch,
                    data,
                }
            })
            .collect()
    }

    fn published_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn device(&self) -> &Arc<PmemDevice> {
        self.fs.device()
    }
}

// ---------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------

/// The ring hub: hands out per-thread ring pairs over one
/// [`RingBackend`] and drains them in cross-ring batches.
///
/// Drains may be driven by any thread — the submitting caller while it
/// waits, or a background daemon — and are serialized by an internal
/// drain lock, so the backend always sees one batch at a time and the
/// submission rings keep their single-consumer contract.
pub struct RingFs {
    backend: Arc<dyn RingBackend>,
    rings: Mutex<Vec<Weak<RingCore>>>,
    drain_lock: Mutex<()>,
}

impl std::fmt::Debug for RingFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingFs")
            .field("rings", &self.rings.lock().len())
            .field("published_epoch", &self.published_epoch())
            .finish()
    }
}

impl RingFs {
    /// Builds a hub over an explicit backend.
    pub fn with_backend(backend: Arc<dyn RingBackend>) -> Arc<Self> {
        Arc::new(Self {
            backend,
            rings: Mutex::new(Vec::new()),
            drain_lock: Mutex::new(()),
        })
    }

    /// Builds a hub over any file system via [`SyncBackend`].
    pub fn new(fs: Arc<dyn FileSystem>) -> Arc<Self> {
        Self::with_backend(Arc::new(SyncBackend::new(fs)))
    }

    /// Creates and registers a ring pair with at least `depth`
    /// submission slots (rounded up to a power of two).
    pub fn ring(&self, depth: usize) -> Ring {
        let core = Arc::new(RingCore {
            sq: SpscRing::new(depth),
            cq: SpscRing::new(depth.max(2) * 2),
            overflow: Mutex::new(VecDeque::new()),
            in_flight: AtomicUsize::new(0),
        });
        self.rings.lock().push(Arc::downgrade(&core));
        Ring {
            core,
            _single_thread: PhantomData,
        }
    }

    /// The backend's highest published durability epoch.
    pub fn published_epoch(&self) -> u64 {
        self.backend.published_epoch()
    }

    /// Entries submitted to any live ring whose completion has not
    /// been posted yet.
    pub fn in_flight(&self) -> usize {
        self.rings
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|core| core.in_flight.load(Ordering::Acquire))
            .sum()
    }

    /// Pops up to `max` submissions round-robin across every live ring,
    /// executes them as **one** backend batch (coalescing durability
    /// fences across unrelated files), and posts the completions back
    /// to their submitting rings.  Returns the number of completions
    /// posted.  Safe to call from any thread; concurrent drains
    /// serialize.
    pub fn drain(&self, max: usize) -> usize {
        let _consumer = self.drain_lock.lock();
        let cores: Vec<Arc<RingCore>> = {
            let mut rings = self.rings.lock();
            rings.retain(|w| w.strong_count() > 0);
            rings.iter().filter_map(Weak::upgrade).collect()
        };
        if cores.is_empty() || max == 0 {
            return 0;
        }
        let mut origins: Vec<usize> = Vec::new();
        let mut sqes: Vec<Sqe> = Vec::new();
        'fill: loop {
            let mut popped_any = false;
            for (i, core) in cores.iter().enumerate() {
                if sqes.len() >= max {
                    break 'fill;
                }
                if let Some(sqe) = core.sq.try_pop() {
                    origins.push(i);
                    sqes.push(sqe);
                    popped_any = true;
                }
            }
            if !popped_any {
                break;
            }
        }
        if sqes.is_empty() {
            return 0;
        }
        let count = sqes.len();
        let cqes = self.backend.run_batch(sqes);
        debug_assert_eq!(cqes.len(), count, "run_batch must map sqes 1:1 to cqes");
        for (i, cqe) in origins.into_iter().zip(cqes) {
            let core = &cores[i];
            if let Err(cqe) = core.cq.try_push(cqe) {
                core.overflow.lock().push_back(cqe);
            }
            core.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
        count
    }

    /// Blocks (draining) until the published durability epoch reaches
    /// `epoch`.  Fails with [`FsError::InvalidArgument`] if nothing is
    /// in flight anywhere and the epoch still has not been published —
    /// that epoch was never submitted, so it will never arrive.
    pub fn await_epoch(&self, epoch: u64) -> FsResult<()> {
        loop {
            if self.backend.published_epoch() >= epoch {
                self.declare_epoch(epoch);
                return Ok(());
            }
            if self.drain(DEFAULT_DRAIN_BATCH) == 0 {
                if self.backend.published_epoch() >= epoch {
                    self.declare_epoch(epoch);
                    return Ok(());
                }
                if self.in_flight() == 0 {
                    return Err(FsError::InvalidArgument);
                }
                // Another drainer holds the batch; let it finish.
                std::thread::yield_now();
            }
        }
    }

    /// Declares the satisfied `await_epoch` on the device's durability
    /// ledger: this is the application-visible promise the crash-point
    /// fuzzer's oracle checks (publication happened under the backend's
    /// fence, so the declaration rule holds).
    fn declare_epoch(&self, epoch: u64) {
        self.backend
            .device()
            .declare(pmem::Promise::EpochDurable { epoch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::OpenFlags;

    fn test_fs() -> Arc<dyn FileSystem> {
        let device = pmem::PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        kernelfs::Ext4Dax::mkfs(device).unwrap()
    }

    #[test]
    fn spsc_ring_pushes_and_pops_in_order() {
        let ring = SpscRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        assert!(ring.try_push(99).is_err());
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
        // Wrap around the cursor mask.
        for round in 0..10 {
            ring.try_push(round).unwrap();
            assert_eq!(ring.try_pop(), Some(round));
        }
    }

    #[test]
    fn spsc_ring_survives_concurrent_producer_consumer() {
        let ring = Arc::new(SpscRing::new(8));
        const N: u64 = 10_000;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match ring.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut next = 0u64;
        while next < N {
            if let Some(v) = ring.try_pop() {
                assert_eq!(v, next);
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn ring_round_trip_appends_read_and_awaits_epoch() {
        let fs = test_fs();
        let hub = RingFs::new(Arc::clone(&fs));
        let fd = fs.open("/ring.log", OpenFlags::create()).unwrap();
        let ring = hub.ring(8);

        ring.try_submit(Sqe::appendv(1, fd, vec![b"hello ".to_vec()]))
            .unwrap();
        ring.try_submit(Sqe::appendv(2, fd, vec![b"rings".to_vec()]))
            .unwrap();
        assert_eq!(ring.pending(), 2);
        assert_eq!(hub.drain(DEFAULT_DRAIN_BATCH), 2);

        let mut cqes = Vec::new();
        assert_eq!(ring.harvest(&mut cqes), 2);
        let max_epoch = cqes.iter().map(|c| c.epoch).max().unwrap();
        assert!(max_epoch > 0);
        assert!(max_epoch <= hub.published_epoch());
        hub.await_epoch(max_epoch).unwrap();

        ring.try_submit(Sqe::read(3, fd, 0, 11)).unwrap();
        hub.drain(DEFAULT_DRAIN_BATCH);
        cqes.clear();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].user_data, 3);
        assert_eq!(cqes[0].data.as_deref(), Some(&b"hello rings"[..]));
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    fn full_submission_ring_rejects_and_recovers() {
        let fs = test_fs();
        let hub = RingFs::new(Arc::clone(&fs));
        let fd = fs.open("/full.log", OpenFlags::create()).unwrap();
        let ring = hub.ring(2);
        for i in 0..ring.capacity() as u64 {
            ring.try_submit(Sqe::appendv(i, fd, vec![vec![0u8; 8]]))
                .unwrap();
        }
        let rejected = ring.try_submit(Sqe::fsync(99, fd));
        assert!(rejected.is_err());
        assert_eq!(ring.in_flight(), ring.capacity());
        hub.drain(DEFAULT_DRAIN_BATCH);
        ring.try_submit(rejected.unwrap_err()).unwrap();
        hub.drain(DEFAULT_DRAIN_BATCH);
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len(), ring.capacity() + 1);
        assert!(cqes.iter().all(|c| c.result.is_ok()));
    }

    #[test]
    fn await_epoch_rejects_epochs_that_were_never_submitted() {
        let fs = test_fs();
        let hub = RingFs::new(fs);
        assert!(matches!(hub.await_epoch(1), Err(FsError::InvalidArgument)));
    }

    #[test]
    fn completion_overflow_never_drops_entries() {
        let fs = test_fs();
        let hub = RingFs::new(Arc::clone(&fs));
        let fd = fs.open("/overflow.log", OpenFlags::create()).unwrap();
        let ring = hub.ring(4);
        // Submit + drain repeatedly without harvesting: completions
        // exceed the completion ring and spill into the overflow list.
        let mut submitted = 0u64;
        for _round in 0..6 {
            for _ in 0..4 {
                ring.try_submit(Sqe::appendv(submitted, fd, vec![vec![1u8; 4]]))
                    .unwrap();
                submitted += 1;
            }
            hub.drain(DEFAULT_DRAIN_BATCH);
        }
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len() as u64, submitted);
        let mut tags: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..submitted).collect::<Vec<_>>());
    }

    #[test]
    fn errors_travel_in_the_cqe_not_the_batch() {
        let fs = test_fs();
        let hub = RingFs::new(Arc::clone(&fs));
        let fd = fs.open("/errs.log", OpenFlags::create()).unwrap();
        let ring = hub.ring(4);
        ring.try_submit(Sqe::appendv(1, fd, vec![b"ok".to_vec()]))
            .unwrap();
        ring.try_submit(Sqe::fsync(2, 9999 as Fd)).unwrap();
        hub.drain(DEFAULT_DRAIN_BATCH);
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len(), 2);
        let ok = cqes.iter().find(|c| c.user_data == 1).unwrap();
        let bad = cqes.iter().find(|c| c.user_data == 2).unwrap();
        assert!(ok.result.is_ok());
        assert!(bad.result.is_err());
    }
}
