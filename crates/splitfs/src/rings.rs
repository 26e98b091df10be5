//! Async submission/completion rings over SplitFS: the ring's calling
//! convention for the one staging pipeline, and durability-epoch
//! publication.
//!
//! U-Split stages every write the same way (`SplitFs::stage_batch`):
//! non-temporal stores into staging space, one data fence, one
//! operation-log group commit, for however many writes the batch holds.
//! A synchronous `appendv` is a batch of one and pays the two fences
//! alone — by the time it returns there is no second operation to share
//! them with.  A drained ring batch *does* have the other operations in
//! hand, across **unrelated files**, and pays the same two fences for
//! all of them.  What this module adds is only what is the ring's: sqe →
//! op resolution, the lock order, the `Cqe`s, and the epoch a mode
//! without a log completes with.
//!
//! **Durability epochs.**  The operation log's sequence numbers double
//! as the epoch currency: once a group commit's fence retires, every
//! sequence number in it is durable, and the instance publishes the
//! batch's maximum with a `fetch_max` (rule: publish only *after* the
//! fence).  A completion's [`aio::Cqe::epoch`] is the largest sequence
//! number covering that operation, so `published_epoch() >= cqe.epoch`
//! means "this write survives any crash from now on" — the caller
//! awaits that instead of issuing `fsync`.  Modes that do not log data
//! operations (POSIX) fall back to a private epoch counter bumped
//! after a fence of the batch's staged bytes; the epoch then promises
//! exactly what the mode itself promises (staged bytes durable, no
//! atomicity).
//!
//! **Lock ordering.**  [`SplitFs::ring_batch`] locks the batch's file
//! states in **inode order** (the `fsync_many` rule) and is always
//! entered from a drain — never while the caller holds a file-state
//! lock.  The hub's drain lock is therefore ordered *before* every
//! file-state lock: do not submit, drain, or await an epoch while
//! holding one.

use std::sync::{Arc, Weak};

use aio::{Cqe, RingBackend, RingFs, Sqe, SqeOp};
use pmem::{PmemDevice, TimeCategory};
use vfs::{FileSystem, FsError, FsResult};

use crate::fs::{SplitFs, StageOp};

/// How many drain rounds one daemon pass performs before yielding back
/// to provisioning/checkpoint work, so a firehose of submissions
/// cannot starve the rest of maintenance.
const DAEMON_DRAIN_ROUNDS: usize = 4;

impl SplitFs {
    /// The highest durability epoch this instance has published: every
    /// operation-log sequence number ≤ the returned value is covered
    /// by a group-commit fence and survives a crash.
    pub fn published_epoch(&self) -> u64 {
        self.published_epoch
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Publishes `epoch` (monotone `fetch_max`).  Callers must only
    /// pass sequence numbers whose log entries are already fenced.
    pub(crate) fn publish_epoch(&self, epoch: u64) {
        self.published_epoch
            .fetch_max(epoch, std::sync::atomic::Ordering::AcqRel);
        // The caller's contract (entries already fenced) is exactly the
        // oracle's declaration rule, so the durability promise rides here.
        self.device.declare(pmem::Promise::EpochDurable { epoch });
    }

    /// Attaches `hub` so the maintenance daemon's worker drains its
    /// rings on every tick.  Held weakly — the hub's backend owns the
    /// strong reference to this instance.
    pub fn attach_ring_hub(&self, hub: &Arc<RingFs>) {
        *self.ring_hub.write() = Some(Arc::downgrade(hub));
    }

    /// Drains the attached ring hub (a bounded number of rounds),
    /// under a [`obs::OpKind::RingDrain`] span when a recorder is
    /// attached.  Called by the daemon worker; a no-op without a hub.
    pub(crate) fn drain_rings(&self) {
        let hub = match self.ring_hub.read().as_ref().and_then(Weak::upgrade) {
            Some(hub) => hub,
            None => return,
        };
        let _span = self
            .recorder
            .read()
            .as_ref()
            .map(|r| r.span(obs::OpKind::RingDrain));
        for _ in 0..DAEMON_DRAIN_ROUNDS {
            if hub.drain(aio::DEFAULT_DRAIN_BATCH) == 0 {
                break;
            }
        }
    }

    /// Executes one drained cross-ring batch: reads and fsyncs run
    /// through the synchronous entry points; the batch's writes go
    /// through the staging core together — **one** data fence and
    /// **one** log group commit across every file they touch — and
    /// complete with the durability epoch that covers them.  Returns one
    /// [`Cqe`] per sqe, in order.  Operations within a batch are unordered
    /// with respect to each other (io_uring semantics without links).
    pub fn ring_batch(&self, sqes: Vec<Sqe>) -> Vec<Cqe> {
        let mut cqes: Vec<Option<Cqe>> = (0..sqes.len()).map(|_| None).collect();
        let cqe = |sqe: &Sqe, result: FsResult<u64>, data: Option<Vec<u8>>| Cqe {
            user_data: sqe.user_data,
            result,
            epoch: self.published_epoch(),
            data,
        };

        // Reads and fsyncs first, through the synchronous entry points
        // (they take file-state locks internally, so they must run
        // before the batch's write guards are held).
        for (i, sqe) in sqes.iter().enumerate() {
            match &sqe.op {
                SqeOp::Read { fd, offset, len } => {
                    let mut buf = vec![0u8; *len];
                    cqes[i] = Some(match self.read_at(*fd, *offset, &mut buf) {
                        Ok(n) => {
                            buf.truncate(n);
                            cqe(sqe, Ok(n as u64), Some(buf))
                        }
                        Err(e) => cqe(sqe, Err(e), None),
                    });
                }
                SqeOp::Fsync { fd } => {
                    let result = FileSystem::fsync(self, *fd).map(|_| 0u64);
                    if result.is_ok() && !self.config.mode.logs_data_ops() {
                        // Without a log the relink/fence that fsync just
                        // performed *is* the durability point.
                        self.published_epoch
                            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
                    }
                    cqes[i] = Some(cqe(sqe, result, None));
                }
                SqeOp::Appendv { .. } | SqeOp::WritevAt { .. } => {}
            }
        }

        self.ring_writes(&sqes, &mut cqes);

        sqes.iter()
            .zip(cqes)
            .map(|(sqe, done)| {
                done.unwrap_or_else(|| cqe(sqe, Err(FsError::InvalidArgument), None))
            })
            .collect()
    }

    /// The write half of [`SplitFs::ring_batch`]: resolves each write sqe
    /// to a file state, locks the distinct states in inode order, runs the
    /// lot through [`SplitFs::stage_batch`] and builds the completions.
    fn ring_writes(&self, sqes: &[Sqe], cqes: &mut [Option<Cqe>]) {
        let mut writes = Vec::new();
        for (i, sqe) in sqes.iter().enumerate() {
            match &sqe.op {
                SqeOp::Appendv { fd, bufs } => writes.push((i, *fd, None, bufs)),
                SqeOp::WritevAt { fd, offset, bufs } => writes.push((i, *fd, Some(*offset), bufs)),
                SqeOp::Read { .. } | SqeOp::Fsync { .. } => {}
            }
        }
        if writes.is_empty() {
            return;
        }
        self.charge_usplit();
        let mut complete = |i: usize, result: FsResult<u64>, epoch: u64| {
            cqes[i] = Some(Cqe {
                user_data: sqes[i].user_data,
                result,
                epoch,
                data: None,
            });
        };
        let bump_private_epoch = || {
            self.published_epoch
                .fetch_add(1, std::sync::atomic::Ordering::AcqRel)
                + 1
        };

        if !self.config.use_staging {
            // Staging ablation: no fence to coalesce — run each write
            // through the synchronous path and fence the batch once.
            let results: Vec<(usize, FsResult<u64>)> = writes
                .iter()
                .map(|&(i, fd, offset, bufs)| {
                    let iov: Vec<vfs::IoVec<'_>> =
                        bufs.iter().map(|b| b.as_slice().into()).collect();
                    let result = match offset {
                        None => self.appendv(fd, &iov),
                        Some(offset) => self.writev_at(fd, offset, &iov),
                    };
                    (i, result.map(|n| n as u64))
                })
                .collect();
            let mut epoch = self.published_epoch();
            if results.iter().any(|(_, result)| result.is_ok()) {
                self.device.fence(TimeCategory::UserData);
                epoch = bump_private_epoch();
            }
            for (i, result) in results {
                complete(i, result, epoch);
            }
            return;
        }

        // Lock the batch's distinct files in inode order (the
        // `fsync_many` rule, so concurrent batches, fsync batches and
        // the checkpoint sweep can never deadlock against each other).
        let mut unique = Vec::new();
        let mut resolved = Vec::new();
        for (i, fd, offset, bufs) in writes {
            match self.fds.get(fd) {
                Ok(desc) if desc.flags.write => {
                    resolved.push((i, desc.ino, offset, bufs));
                    unique.push(desc);
                }
                Ok(_) => complete(i, Err(FsError::PermissionDenied), self.published_epoch()),
                Err(e) => complete(i, Err(e), self.published_epoch()),
            }
        }
        unique.sort_by_key(|desc| desc.ino);
        unique.dedup_by_key(|desc| desc.ino);
        let mut ops: Vec<StageOp<'_, Vec<u8>>> = resolved
            .iter()
            .map(|&(_, ino, offset, iov)| StageOp {
                state: unique
                    .binary_search_by_key(&ino, |desc| desc.ino)
                    .expect("every resolved write's state is in the batch"),
                offset,
                iov,
                result: Ok(0),
            })
            .collect();
        // A full log: the guards go for the checkpoint, and the batch runs
        // again under fresh ones.
        let mut epoch = loop {
            let mut guards: Vec<_> = unique.iter().map(|desc| desc.state.write()).collect();
            if let Some(epoch) = self.stage_batch(&mut guards, &mut ops) {
                break epoch;
            }
            drop(guards);
            if let Err(e) = self.checkpoint_for_room() {
                for op in ops.iter_mut().filter(|op| op.result.is_err()) {
                    op.result = Err(e.clone());
                }
                break 0;
            }
        };

        let count = ops.iter().filter(|op| op.staged()).count() as u64;
        let logging = self.config.mode.logs_data_ops();
        if count > 0 && !logging {
            // No log: this fence is the durability point (the mode's own
            // guarantee — staged bytes durable, no atomicity).  One private
            // epoch per batch.
            self.device.fence(TimeCategory::UserData);
            epoch = bump_private_epoch();
        }
        for (&(i, _, _, bufs), op) in resolved.iter().zip(ops) {
            if op.staged() {
                self.device.stats().add_appendv(bufs.len() as u64);
                complete(i, op.result, epoch);
            } else {
                complete(i, op.result, self.published_epoch());
            }
        }
    }
}

/// The [`RingBackend`] that runs drained batches through
/// [`SplitFs::ring_batch`] — cross-file fence coalescing plus
/// operation-log durability epochs.
pub struct SplitRingBackend {
    fs: Arc<SplitFs>,
}

impl SplitRingBackend {
    /// Wraps a SplitFS instance.
    pub fn new(fs: Arc<SplitFs>) -> Self {
        Self { fs }
    }
}

impl RingBackend for SplitRingBackend {
    fn run_batch(&self, sqes: Vec<Sqe>) -> Vec<Cqe> {
        self.fs.ring_batch(sqes)
    }

    fn published_epoch(&self) -> u64 {
        self.fs.published_epoch()
    }

    fn device(&self) -> &Arc<PmemDevice> {
        FileSystem::device(&*self.fs)
    }
}

/// Builds a ring hub over `fs` and attaches it, so the instance's
/// maintenance daemon drains the hub's rings on every tick.  The hub
/// keeps the instance alive (its backend holds the `Arc`); the
/// instance holds the hub only weakly.
pub fn ring_hub(fs: &Arc<SplitFs>) -> Arc<RingFs> {
    let hub = RingFs::with_backend(Arc::new(SplitRingBackend::new(Arc::clone(fs))));
    fs.attach_ring_hub(&hub);
    hub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitConfig;
    use crate::modes::Mode;
    use vfs::OpenFlags;

    fn strict_fs() -> Arc<SplitFs> {
        let device = pmem::PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(4, 8 * 1024 * 1024)
            .with_oplog_size(512 * 1024);
        SplitFs::new(kernel, config).unwrap()
    }

    #[test]
    fn batch_coalesces_fences_across_unrelated_files() {
        let fs = strict_fs();
        let hub = ring_hub(&fs);
        let ring = hub.ring(16);
        let mut fds = Vec::new();
        for i in 0..4 {
            fds.push(
                fs.open(&format!("/ring-{i}.log"), OpenFlags::create())
                    .unwrap(),
            );
        }
        // The first entry into the log's first chunk also fences the
        // chunk's map bit; log one before measuring.
        let warm = fs.open("/ring-warm.log", OpenFlags::create()).unwrap();
        fs.append(warm, &[0; 64]).unwrap();
        fs.maintenance_quiesce();
        let before = FileSystem::device(&*fs).stats().snapshot();
        for (i, fd) in fds.iter().enumerate() {
            ring.try_submit(Sqe::appendv(i as u64, *fd, vec![vec![i as u8; 64]]))
                .unwrap();
        }
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
        let delta = FileSystem::device(&*fs).stats().snapshot().delta(&before);
        // Four writes to four different files, two fences total — the
        // synchronous path would have paid eight.
        assert_eq!(delta.fences, 2, "one data fence + one log fence");

        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len(), 4);
        let epoch = cqes.iter().map(|c| c.epoch).max().unwrap();
        assert!(epoch > 0 && epoch <= fs.published_epoch());
        hub.await_epoch(epoch).unwrap();
        for (i, fd) in fds.iter().enumerate() {
            FileSystem::fsync(&*fs, *fd).unwrap();
            assert_eq!(
                fs.read_file(&format!("/ring-{i}.log")).unwrap(),
                vec![i as u8; 64]
            );
        }
    }

    #[test]
    fn appends_to_one_file_in_a_batch_never_overlap() {
        let fs = strict_fs();
        let hub = ring_hub(&fs);
        let ring = hub.ring(8);
        let fd = fs.open("/seq.log", OpenFlags::create()).unwrap();
        for i in 0..6u64 {
            ring.try_submit(Sqe::appendv(i, fd, vec![vec![i as u8 + 1; 32]]))
                .unwrap();
        }
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert!(cqes.iter().all(|c| c.result == Ok(32)));
        FileSystem::fsync(&*fs, fd).unwrap();
        let data = fs.read_file("/seq.log").unwrap();
        assert_eq!(data.len(), 6 * 32);
        // Each append occupies its own disjoint range, in some order.
        let mut seen: Vec<u8> = data.chunks(32).map(|c| c[0]).collect();
        for chunk in data.chunks(32) {
            assert!(chunk.iter().all(|&b| b == chunk[0]));
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_batch_reads_fsyncs_and_writes_complete() {
        let fs = strict_fs();
        let hub = ring_hub(&fs);
        let ring = hub.ring(8);
        let fd = fs.open("/mixed.log", OpenFlags::create()).unwrap();
        fs.append(fd, b"pre-existing").unwrap();
        ring.try_submit(Sqe::read(1, fd, 0, 12)).unwrap();
        ring.try_submit(Sqe::appendv(2, fd, vec![b"-more".to_vec()]))
            .unwrap();
        ring.try_submit(Sqe::fsync(3, fd)).unwrap();
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes.len(), 3);
        let read = cqes.iter().find(|c| c.user_data == 1).unwrap();
        assert_eq!(read.data.as_deref(), Some(&b"pre-existing"[..]));
        assert!(cqes.iter().all(|c| c.result.is_ok()));
        let epoch = cqes.iter().map(|c| c.epoch).max().unwrap();
        assert!(epoch <= fs.published_epoch());
    }

    #[test]
    fn daemon_drains_rings_without_caller_drains() {
        let fs = strict_fs();
        let hub = ring_hub(&fs);
        let ring = hub.ring(8);
        let fd = fs.open("/daemon.log", OpenFlags::create()).unwrap();
        for i in 0..4u64 {
            ring.try_submit(Sqe::appendv(i, fd, vec![vec![7u8; 16]]))
                .unwrap();
        }
        // Never call hub.drain from this thread: the maintenance tick
        // must pick the submissions up on its own.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut cqes = Vec::new();
        while cqes.len() < 4 {
            ring.harvest(&mut cqes);
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never drained the ring"
            );
            std::thread::yield_now();
        }
        assert!(cqes.iter().all(|c| c.result == Ok(16)));
    }

    #[test]
    fn epoch_is_never_reported_ahead_of_publication() {
        let fs = strict_fs();
        let hub = ring_hub(&fs);
        let ring = hub.ring(32);
        let fd = fs.open("/epochs.log", OpenFlags::create()).unwrap();
        let mut harvested = 0u64;
        let mut cqes = Vec::new();
        for round in 0..8u64 {
            for i in 0..4u64 {
                ring.try_submit(Sqe::appendv(round * 4 + i, fd, vec![vec![1u8; 48]]))
                    .unwrap();
            }
            hub.drain(aio::DEFAULT_DRAIN_BATCH);
            cqes.clear();
            ring.harvest(&mut cqes);
            for cqe in &cqes {
                // The invariant the whole design hangs on: a completion
                // may never claim an epoch the instance has not fenced.
                assert!(cqe.epoch <= fs.published_epoch());
                assert!(cqe.result.is_ok());
            }
            harvested += cqes.len() as u64;
        }
        assert_eq!(harvested, 32);
    }
}
