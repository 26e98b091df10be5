//! The U-Split background maintenance daemon.
//!
//! The SplitFS paper (§3.3) moves staging-file pre-allocation and
//! log/staging garbage collection off the critical path onto a background
//! thread; this module is that subsystem.  One or more worker threads,
//! owned by a [`MaintenanceDaemon`] attached to a [`SplitFs`] instance,
//! perform four kinds of work:
//!
//! 1. **Asynchronous staging provisioning** — when any lane of the
//!    [`StagingPool`](crate::staging::StagingPool) drops below its low
//!    watermark, workers create and map fresh staging files until that
//!    lane's high watermark is restored, so
//!    [`StagingPool::take`](crate::staging::StagingPool::take) never has
//!    to fall back to inline file creation under load.  The watermarks
//!    are static: the configured pool-level ones, divided across the
//!    lanes.
//! 2. **Batched background relink** — files that accumulate many staged
//!    extents are relinked in the background through
//!    [`kernelfs::Ext4Dax::ioctl_relink_batch`], shrinking the work left
//!    for the next foreground `fsync`.
//! 3. **Epoch checkpointing** — once the active epoch of the operation
//!    log passes its configured fill fraction, a worker *seals* it
//!    ([`crate::oplog::OpLog::try_seal`]: the empty half becomes active and
//!    foreground writers continue immediately), relinks the sealed
//!    entries' files **one at a time** — never holding two state locks,
//!    never quiescing the instance — group-commits the resulting
//!    `Invalidate` markers under a single fence, and re-zeroes only the
//!    sealed half ([`crate::oplog::OpLog::truncate_sealed`]).  The seed's
//!    stop-the-world quiesced checkpoint (every file lock held across the
//!    truncate) is gone.
//! 4. **Staging recycling** — staging files whose contents were fully
//!    relinked are truncated, re-provisioned and returned to the pool
//!    instead of leaking until shutdown.
//!
//! Work arrives two ways: foreground paths *nudge* the daemon when they
//! observe a watermark or threshold crossing, and workers also wake on a
//! periodic tick so maintenance happens even without nudges.  Each worker
//! owns a **private queue**: nudges are routed by task (relinks shard by
//! inode), so submitting work for different files never contends on one
//! daemon mutex.  The daemon holds only a [`Weak`] reference to its file
//! system; a worker upgrades it for the duration of one task, so an
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

use crate::config::DaemonConfig;
use crate::fs::SplitFs;

/// How often an idle worker wakes to poll watermarks without a nudge.
const TICK: Duration = Duration::from_millis(1);

/// Fill fraction of the active operation-log epoch past which a worker
/// checkpoints in the background (seal, relink the sealed files, truncate),
/// so the foreground never hits a full log.
pub(crate) const CHECKPOINT_FRACTION: f64 = 0.5;

/// One unit of background maintenance work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Provision staging files until the high watermark is restored.
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

/// Handle to the worker threads of one U-Split instance.  Each worker has
/// its own queue; `submit` routes tasks so relinks for different inodes
/// land on different workers.
pub struct MaintenanceDaemon {
    shareds: Vec<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MaintenanceDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceDaemon")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MaintenanceDaemon {
    /// Starts `config.workers` maintenance threads for `fs`.
    ///
    /// Workers hold only a weak reference: they cannot keep the instance
    /// alive, and they exit as soon as it is gone or shutdown is signalled.
    pub(crate) fn start(fs: &Arc<SplitFs>, config: &DaemonConfig) -> Self {
        let count = config.workers.max(1);
        let mut shareds = Vec::with_capacity(count);
        let mut workers = Vec::with_capacity(count);
        for i in 0..count {
            let shared = Arc::new(Shared::default());
            let weak = Arc::downgrade(fs);
            let shared_handle = Arc::clone(&shared);
            shareds.push(shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("usplit-maint-{i}"))
                    .spawn(move || worker_loop(weak, shared_handle))
                    .expect("spawn maintenance worker"),
            );
        }
        Self { shareds, workers }
    }

    /// Routes `task` to its worker's queue.  Relinks shard by inode so
    /// different files' background work proceeds on different workers;
    /// provisioning and checkpointing get stable homes at the two ends so
    /// they do not queue behind each other when two or more workers run.
    fn route(&self, task: Task) -> &Arc<Shared> {
        let n = self.shareds.len();
        let idx = match task {
            Task::ProvisionStaging => 0,
            Task::Checkpoint => n - 1,
            Task::RelinkFile(ino) => ino as usize % n,
        };
        &self.shareds[idx]
    }

    /// Enqueues `task` unless an identical task is already queued on its
    /// worker.
    pub(crate) fn submit(&self, task: Task) {
        let shared = self.route(task);
        let mut q = shared.queue.lock();
        if q.shutdown || q.tasks.contains(&task) {
            return;
        }
        q.tasks.push_back(task);
        drop(q);
        shared.work.notify_one();
    }

    /// Clonable handles used to wait for idleness without holding the
    /// owner's daemon mutex.
    pub(crate) fn shared_handles(&self) -> Vec<Arc<Shared>> {
        self.shareds.clone()
    }

    /// Blocks until every queue is empty and no task is in flight.
    pub(crate) fn wait_idle(shareds: &[Arc<Shared>]) {
        for shared in shareds {
            let mut q = shared.queue.lock();
            while !q.shutdown && (!q.tasks.is_empty() || q.in_flight > 0) {
                shared.idle.wait(&mut q);
            }
        }
    }

    fn shutdown(&mut self) {
        for shared in &self.shareds {
            let mut q = shared.queue.lock();
            q.shutdown = true;
            drop(q);
            shared.work.notify_all();
            shared.idle.notify_all();
        }
        let me = thread::current().id();
        for handle in self.workers.drain(..) {
            // A worker can be the thread dropping the last Arc<SplitFs>
            // (and therefore the daemon); it must not join itself.
            if handle.thread().id() != me {
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
    /// One maintenance pass: restore every lane below the low watermark
    /// to the high watermark, recycle exhausted staging files, then
    /// checkpoint if the operation log is past its threshold.  Runs on a
    /// worker for every tick and every [`Task::ProvisionStaging`] nudge.
    pub(crate) fn maintenance_tick(&self) {
        use std::sync::atomic::Ordering;
        if self.config.use_staging {
            let (low, high) = self.staging.lane_watermarks();
            for lane in 0..self.staging.lane_count() {
                if self.staging.lane_unconsumed(lane) >= low {
                    continue;
                }
                while self.staging.lane_unconsumed(lane) < high {
                    if self.staging.provision_lane(lane).is_err() {
                        // Device full or similar: the foreground inline
                        // path surfaces persistent errors to the
                        // application.
                        break;
                    }
                }
            }
            // Return fully-relinked staging files to the pool.
            self.recycle_staging();
        }
        // Re-arm the foreground's provisioning nudge after the pool is
        // refilled (or found healthy).
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
    /// and reports them.
    pub(crate) fn background_relink(&self, ino: u64) {
        if let Some(state) = self.files.get(ino) {
            let _ = self.relink_batch(&mut [state.write()], None);
        }
    }

    /// The background epoch checkpoint: seal the active epoch (writers
    /// continue into the empty half immediately — no quiesce, no
    /// stop-the-world), then retire the sealed half by relinking its
    /// files one state lock at a time and truncating it.  Counted in the
    /// device statistics when a full retirement pass ran.
    pub(crate) fn background_checkpoint(&self) {
        let mut ran = false;
        if let Some(oplog) = self.oplog.as_ref() {
            let _ = oplog.try_seal();
            if oplog.sealed_pending() {
                ran = self.retire_sealed(None, true);
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
