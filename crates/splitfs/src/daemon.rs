//! The U-Split background maintenance daemon.
//!
//! The SplitFS paper (§3.3) moves staging-file pre-allocation and
//! log/staging garbage collection off the critical path onto a background
//! thread; this module is that subsystem.  One worker thread, owned by
//! a [`MaintenanceDaemon`] attached to a [`SplitFs`] instance, performs
//! four kinds of work:
//!
//! 1. **Asynchronous staging provisioning** — the
//!    [`StagingPool`](crate::staging::StagingPool) keeps the file after
//!    the active one mapped.  When the active file moves on and that
//!    spare is missing or unmapped, the worker maps it, or builds one
//!    when the pool has no file left, so
//!    [`StagingPool::take`](crate::staging::StagingPool::take) neither
//!    maps nor creates a file inline under load.
//! 2. **Batched background relink** — files that accumulate many staged
//!    extents are relinked in the background through
//!    [`kernelfs::Ext4Dax::ioctl_relink_batch`], shrinking the work left
//!    for the next foreground `fsync`.
//! 3. **Epoch checkpointing** — once the active epoch of the operation
//!    log passes its configured fill fraction, or a writer sealed a full
//!    one, the worker *seals* it ([`crate::oplog::OpLog::try_seal`]: the
//!    retired half becomes active and foreground writers continue
//!    immediately), relinks the sealed entries' files **one at a time** —
//!    never holding two state locks, never quiescing the instance, each
//!    file's `Invalidate` marker committed under its lock — and retires
//!    the sealed half with one watermark store
//!    ([`crate::oplog::OpLog::truncate_sealed`]).  This is the same
//!    checkpoint a writer runs itself, with no state lock held, when it
//!    finds both halves full; the daemon's job is to get there first, so
//!    that no writer waits (`checkpoint_stalls` counts those that do).
//! 4. **Staging recycling** — staging files whose contents were fully
//!    relinked are truncated, re-provisioned and returned to the pool
//!    instead of leaking until shutdown.
//!
//! Work arrives two ways: foreground paths *nudge* the daemon when they
//! observe a watermark or threshold crossing, and the worker also wakes
//! on a periodic tick so maintenance happens even without nudges.  Tasks
//! wait in one queue, and a task already queued is not queued twice.
//! The daemon holds only a [`Weak`] reference to its file system; the
//! worker upgrades it for the duration of one task, so an
//! in-flight task briefly keeps the instance alive after the application
//! drops its last handle — the instance's `Drop` (and the worker join)
//! then runs when that task finishes.  No thread ever outlives the
//! instance or touches a torn-down one; callers that need *all*
//! background work finished at a known point (e.g. before simulating a
//! crash) use [`SplitFs::maintenance_quiesce`].
//!
//! Crash safety: every background relink goes through the same journaled,
//! atomic kernel primitive as a foreground `fsync`, and recovery
//! ([`crate::recovery`]) treats relinked staging ranges (holes),
//! `Invalidate` markers and `StagingRecycle` markers identically whether
//! the work was foreground or background — a crash before, during, or
//! after a background pass produces identical recovered file contents.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::fs::SplitFs;

/// How often the idle worker wakes to poll for work without a nudge.
const TICK: Duration = Duration::from_millis(1);

/// Fill fraction of the active operation-log epoch past which the worker
/// checkpoints in the background (seal, relink the sealed files, truncate),
/// so the foreground never hits a full log.
pub(crate) const CHECKPOINT_FRACTION: f64 = 0.5;

/// One unit of background maintenance work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Map (or build) the staging file after the active one.
    ProvisionStaging,
    /// Relink the staged extents of the file with this inode.
    RelinkFile(u64),
    /// Seal the active operation-log epoch (if not already sealed) and
    /// retire the sealed half: relink its files one at a time, then
    /// truncate it.
    Checkpoint,
}

#[derive(Debug, Default)]
struct Queue {
    tasks: VecDeque<Task>,
    in_flight: usize,
    shutdown: bool,
}

#[derive(Debug, Default)]
pub(crate) struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when work is submitted or shutdown is requested.
    work: Condvar,
    /// Signalled when the queue drains and no task is in flight.
    idle: Condvar,
}

/// Handle to the maintenance thread of one U-Split instance and its
/// queue.
#[derive(Debug)]
pub struct MaintenanceDaemon {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl MaintenanceDaemon {
    /// Starts the maintenance thread for `fs`.
    ///
    /// The worker holds only a weak reference: it cannot keep the instance
    /// alive, and it exits as soon as the instance is gone or shutdown is
    /// signalled.
    pub(crate) fn start(fs: &Arc<SplitFs>) -> Self {
        let shared = Arc::new(Shared::default());
        let weak = Arc::downgrade(fs);
        let shared_handle = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("usplit-maint".into())
            .spawn(move || worker_loop(weak, shared_handle))
            .expect("spawn maintenance worker");
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueues `task` unless an identical task is already queued.
    pub(crate) fn submit(&self, task: Task) {
        let mut q = self.shared.queue.lock();
        if q.shutdown || q.tasks.contains(&task) {
            return;
        }
        q.tasks.push_back(task);
        drop(q);
        self.shared.work.notify_one();
    }

    /// A clonable handle used to wait for idleness without holding the
    /// owner's daemon mutex.
    pub(crate) fn shared_handle(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Blocks until the queue is empty and no task is in flight.
    pub(crate) fn wait_idle(shared: &Shared) {
        let mut q = shared.queue.lock();
        while !q.shutdown && (!q.tasks.is_empty() || q.in_flight > 0) {
            shared.idle.wait(&mut q);
        }
    }

    fn shutdown(&mut self) {
        let mut q = self.shared.queue.lock();
        q.shutdown = true;
        drop(q);
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
        if let Some(handle) = self.worker.take() {
            // The worker can be the thread dropping the last Arc<SplitFs>
            // (and therefore the daemon); it must not join itself.
            if handle.thread().id() != thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for MaintenanceDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(fs: Weak<SplitFs>, shared: Arc<Shared>) {
    loop {
        // Wait for a nudge, a tick timeout, or shutdown.
        let task = {
            let mut q = shared.queue.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(task) = q.tasks.pop_front() {
                    q.in_flight += 1;
                    break Some(task);
                }
                let timed_out = shared.work.wait_for(&mut q, TICK).timed_out();
                if q.shutdown {
                    return;
                }
                if timed_out {
                    q.in_flight += 1;
                    break None; // periodic tick
                }
            }
        };

        let alive = match fs.upgrade() {
            Some(fs) => {
                // Ring drains run first and outside the Maintenance
                // span (spans are outermost-only, and the drain opens
                // its own RingDrain span).
                fs.drain_rings();
                // Background work gets its own Maintenance span so the
                // per-op time breakdown accounts for daemon charges too.
                let _span = fs.maintenance_span();
                match task {
                    Some(Task::ProvisionStaging) | None => fs.maintenance_tick(),
                    Some(Task::RelinkFile(ino)) => fs.background_relink(ino),
                    Some(Task::Checkpoint) => fs.background_checkpoint(),
                }
                true
            }
            None => false,
        };

        {
            let mut q = shared.queue.lock();
            q.in_flight -= 1;
            if q.tasks.is_empty() && q.in_flight == 0 {
                shared.idle.notify_all();
            }
        }
        if !alive {
            return;
        }
    }
}

impl SplitFs {
    /// One maintenance pass: recycle exhausted staging files, make the
    /// staging file after the active one ready, then checkpoint if the
    /// operation log is past its threshold.  Runs on the worker for every
    /// tick and every [`Task::ProvisionStaging`] nudge.
    pub(crate) fn maintenance_tick(&self) {
        use std::sync::atomic::Ordering;
        if self.config.use_staging {
            // Return fully-relinked staging files to the pool first: one
            // may become the spare, which saves building a fresh file.
            self.recycle_staging();
            if self.staging.needs_provisioning() {
                // Device full or similar: the foreground inline path
                // surfaces persistent errors to the application.
                let _ = self.staging.prepare_spare();
            }
        }
        // Re-arm the foreground's provisioning nudge after the spare is
        // prepared (or found ready).
        self.provision_nudged.store(false, Ordering::Relaxed);
        if let Some(oplog) = self.oplog.as_ref() {
            if oplog.sealed_pending() || oplog.utilization() >= CHECKPOINT_FRACTION {
                self.background_checkpoint();
            }
        }
    }

    /// Background relink of one file's staged extents (batched through
    /// `ioctl_relink_batch` like every relink).  Errors are swallowed: the
    /// staged data stays staged and the next foreground `fsync` retries
    /// and reports them.  Public for crash tests that run it daemon-off.
    pub fn background_relink(&self, ino: u64) {
        if let Some(state) = self.files.get(ino) {
            let _ = self.relink_batch(&mut [state.write()]);
        }
    }

    /// The background epoch checkpoint: seal the active epoch if it is
    /// still past [`CHECKPOINT_FRACTION`] (writers continue into the empty
    /// half immediately — no quiesce, no stop-the-world), then retire the
    /// sealed half by relinking its files one state lock at a time and
    /// truncating it.  Counted in the device statistics when a full
    /// retirement pass ran.
    pub(crate) fn background_checkpoint(&self) {
        let mut ran = false;
        if let Some(oplog) = self.oplog.as_ref() {
            // A nudge queued behind a tick that already sealed and retired
            // finds a fresh epoch: sealing it would swap out a few entries.
            if oplog.utilization() >= CHECKPOINT_FRACTION {
                let _ = oplog.try_seal();
            }
            if oplog.sealed_pending() {
                ran = self.retire_sealed().is_ok();
            }
        }
        // Re-arm the foreground's checkpoint nudge either way: on success
        // utilization is back to zero; on give-up a later append re-nudges
        // and a later tick retries.
        self.checkpoint_nudged
            .store(false, std::sync::atomic::Ordering::Relaxed);
        if ran {
            self.device.stats().add_daemon_checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vfs::{FileSystem, OpenFlags};

    use super::CHECKPOINT_FRACTION;
    use crate::{Mode, SplitConfig, SplitFs};

    #[test]
    fn a_checkpoint_queued_behind_one_that_retired_the_epoch_seals_nothing() {
        let device = pmem::PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(2, 4 * 1024 * 1024)
            .with_oplog_size(64 * 1024)
            .without_daemon();
        let fs = SplitFs::new(kernel, config).unwrap();
        let oplog = fs.oplog.as_ref().unwrap();
        let fd = fs.open("/a", OpenFlags::create()).unwrap();
        while oplog.utilization() < CHECKPOINT_FRACTION {
            fs.append(fd, &[7u8; 100]).unwrap();
        }
        let swaps = || device.stats().snapshot().oplog_epoch_swaps;
        let before = swaps();
        // A tick past the threshold, then the writer's nudge queued
        // behind it: the second finds the fresh epoch nearly empty.
        fs.background_checkpoint();
        fs.background_checkpoint();
        assert_eq!(swaps() - before, 1, "one epoch past half, one swap");
        assert!(!oplog.sealed_pending());
    }
}
