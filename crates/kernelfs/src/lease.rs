//! Instance leases: the kernel-side resource partition that lets many
//! U-Split instances share one kernel file system.
//!
//! SplitFS's multi-process story (paper §3.1: "multiple applications,
//! each linking the SplitFS library, over one shared ext4 DAX") requires
//! the kernel half to arbitrate ownership of the per-instance resources —
//! the staging-file pool slice and the operation-log range each U-Split
//! instance writes with plain stores, no kernel mediation per operation.
//! Without explicit ownership, two instances could stage into the same
//! files, and recovery could not tell whose log is whose (the
//! kernel/user-collaboration design of KucoFS draws the same conclusion:
//! shared resources need per-process leases).
//!
//! The [`LeaseManager`] hands out integer **instance ids**.  An id maps
//! deterministically onto a resource slice:
//!
//! * [`staging_dir`] — the directory holding that instance's staging
//!   files (its exclusive slice of the staging pool), and
//! * [`oplog_path`] — that instance's operation-log file (its dedicated
//!   log range).
//!
//! Lease records are **persisted through the journal**: every acquire and
//! release commits a [`JournalRecord::Lease`](crate::journal::JournalRecord)
//! and then updates the in-place lease table block (see
//! [`crate::layout`]), following the same logical-record → fence →
//! in-place-update discipline as every other metadata mutation.  After a
//! crash, [`Ext4Dax::mount`](crate::Ext4Dax::mount) therefore knows
//! exactly which instances held leases — those instances are **orphaned**
//! (their owners died with the crash) and `splitfs::recovery` replays
//! each orphan's operation log independently before the id is reused.
//!
//! In-memory, the manager distinguishes *held* leases (owned by a live
//! instance in this process) from *active* ones (recorded on the device).
//! An active-but-not-held lease is an orphan awaiting recovery.  An
//! acquisition that collides with a held id is a **lease conflict** — it
//! is counted in the device statistics and must be zero in a healthy
//! multi-instance run.

use std::sync::Arc;

use parking_lot::Mutex;

use pmem::{PersistMode, PmemDevice, TimeCategory};

use crate::layout::{Superblock, BLOCK_SIZE};

/// Maximum number of instance leases (bounded by the one-block lease
/// table: one byte per slot, capped well below that for sanity).
pub const MAX_INSTANCES: u32 = 256;

/// Root directory of all SplitFS bookkeeping on the kernel file system.
/// The single source of truth for the layout: `splitfs::SPLITFS_DIR`
/// aliases this constant, and every per-instance path nests under it.
pub const SPLITFS_ROOT: &str = "/.splitfs";

/// Path of instance 0's operation-log file (the original
/// single-instance layout; `splitfs::OPLOG_PATH` aliases it).
pub const OPLOG_PATH_0: &str = "/.splitfs/oplog";

/// Directory on the kernel file system holding `instance_id`'s staging
/// files — its exclusive slice of the staging pool.  Instance 0 keeps the
/// original single-instance layout ([`SPLITFS_ROOT`] itself).
pub fn staging_dir(instance_id: u32) -> String {
    if instance_id == 0 {
        SPLITFS_ROOT.to_string()
    } else {
        format!("{SPLITFS_ROOT}/inst-{instance_id}")
    }
}

/// Path of `instance_id`'s operation-log file — its dedicated log range.
/// Instance 0 keeps the original single-instance path ([`OPLOG_PATH_0`]).
pub fn oplog_path(instance_id: u32) -> String {
    if instance_id == 0 {
        OPLOG_PATH_0.to_string()
    } else {
        format!("{SPLITFS_ROOT}/oplog-{instance_id}")
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Leases recorded on the device (the persisted state).
    active: Vec<bool>,
    /// Leases owned by a live instance in this process.  `active` minus
    /// `held` is the orphan set.
    held: Vec<bool>,
}

/// The in-memory lease table plus its persistence into the lease-table
/// block.  Journaling the logical records is the owner's
/// ([`crate::Ext4Dax`]) job, so the commit → in-place-update ordering is
/// visible in one place.
#[derive(Debug)]
pub struct LeaseManager {
    device: Arc<PmemDevice>,
    /// Device byte offset of the lease table block.
    table_offset: u64,
    inner: Mutex<Inner>,
}

impl LeaseManager {
    /// Creates a manager over the lease area described by `sb`, seeded
    /// with `active` instance ids (recovered at mount; empty at mkfs).
    /// None of the seeded leases is *held* — they are all orphans until
    /// recovered and released.
    pub fn new(device: Arc<PmemDevice>, sb: &Superblock, active: &[u32]) -> Self {
        let mut inner = Inner {
            active: vec![false; MAX_INSTANCES as usize],
            held: vec![false; MAX_INSTANCES as usize],
        };
        for &id in active {
            if (id as usize) < inner.active.len() {
                inner.active[id as usize] = true;
            }
        }
        Self {
            device,
            table_offset: sb.lease_start * BLOCK_SIZE as u64,
            inner: Mutex::new(inner),
        }
    }

    /// Reads the persisted lease table (mount-time helper, uncharged like
    /// the rest of the mount scan).  Returns the active instance ids.
    pub fn load_active(device: &Arc<PmemDevice>, sb: &Superblock) -> Vec<u32> {
        let mut table = vec![0u8; MAX_INSTANCES as usize];
        device.read_uncharged(sb.lease_start * BLOCK_SIZE as u64, &mut table);
        table
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != 0)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Reserves the lowest instance id that is neither active on the
    /// device (a live or orphaned lease) nor held in this process.
    /// Returns `None` when every slot is taken.  The caller must journal
    /// the acquisition and then call [`LeaseManager::persist`].
    pub fn reserve(&self) -> Option<u32> {
        let mut inner = self.inner.lock();
        let id = (0..MAX_INSTANCES as usize).find(|&i| !inner.active[i] && !inner.held[i])?;
        inner.active[id] = true;
        inner.held[id] = true;
        Some(id as u32)
    }

    /// Releases a lease: the id leaves both the persisted and the held
    /// set.  The caller must journal the release and then call
    /// [`LeaseManager::persist`].
    pub fn clear(&self, id: u32) {
        let mut inner = self.inner.lock();
        let idx = id as usize;
        if idx < inner.active.len() {
            inner.active[idx] = false;
            inner.held[idx] = false;
        }
    }

    /// Drops the in-process hold on a lease **without** touching the
    /// persisted record — exactly what a process crash does.  The lease
    /// becomes an orphan: still active on the device, recoverable, and
    /// its id is not reused until recovery releases it.
    pub fn abandon(&self, id: u32) {
        let mut inner = self.inner.lock();
        let idx = id as usize;
        if idx < inner.held.len() {
            inner.held[idx] = false;
        }
    }

    /// Atomically claims an orphaned lease for recovery: succeeds only
    /// when the lease is active with no live holder, and marks it held so
    /// a concurrent claimer fails.  The claimer replays the orphan's log
    /// and then releases the lease.
    pub fn claim_orphan(&self, id: u32) -> bool {
        let mut inner = self.inner.lock();
        let idx = id as usize;
        if idx >= inner.active.len() || !inner.active[idx] || inner.held[idx] {
            return false;
        }
        inner.held[idx] = true;
        true
    }

    /// Instance ids whose leases are active on the device but not held by
    /// any live instance in this process — crashed instances whose
    /// operation logs recovery must replay.
    pub fn orphans(&self) -> Vec<u32> {
        let inner = self.inner.lock();
        (0..inner.active.len())
            .filter(|&i| inner.active[i] && !inner.held[i])
            .map(|i| i as u32)
            .collect()
    }

    /// Whether `id`'s lease is active (held or orphaned).
    pub fn is_active(&self, id: u32) -> bool {
        let inner = self.inner.lock();
        inner.active.get(id as usize).copied().unwrap_or(false)
    }

    /// Whether `id`'s lease is held by a live instance in this process.
    pub fn is_held(&self, id: u32) -> bool {
        let inner = self.inner.lock();
        inner.held.get(id as usize).copied().unwrap_or(false)
    }

    /// Number of active leases (held plus orphaned).
    pub fn active_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.active.iter().filter(|&&a| a).count()
    }

    /// Writes the lease table block in place (non-temporal stores plus a
    /// fence, like every metadata structure).  Call after the matching
    /// journal record committed, while its transaction guard is alive.
    pub fn persist(&self) {
        let table: Vec<u8> = {
            let inner = self.inner.lock();
            inner.active.iter().map(|&a| u8::from(a)).collect()
        };
        self.device.write(
            self.table_offset,
            &table,
            PersistMode::NonTemporal,
            TimeCategory::Metadata,
        );
        self.device.fence(TimeCategory::Metadata);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn manager(active: &[u32]) -> (Arc<PmemDevice>, Superblock, LeaseManager) {
        let device = PmemBuilder::new(64 * 1024 * 1024).build();
        let sb = Superblock::compute(device.size() as u64 / BLOCK_SIZE as u64, 1024).unwrap();
        let mgr = LeaseManager::new(Arc::clone(&device), &sb, active);
        (device, sb, mgr)
    }

    #[test]
    fn reserve_hands_out_lowest_free_ids() {
        let (_d, _sb, mgr) = manager(&[]);
        assert_eq!(mgr.reserve(), Some(0));
        assert_eq!(mgr.reserve(), Some(1));
        mgr.clear(0);
        assert_eq!(mgr.reserve(), Some(0), "released ids are reused");
    }

    #[test]
    fn orphans_are_active_but_not_held_and_block_reuse() {
        let (_d, _sb, mgr) = manager(&[0]);
        assert_eq!(mgr.orphans(), vec![0]);
        assert!(mgr.is_active(0) && !mgr.is_held(0));
        // A fresh reserve skips the orphan's id.
        assert_eq!(mgr.reserve(), Some(1), "orphan ids are not reusable");
        // Recovery releases the orphan; the id becomes reusable.
        mgr.clear(0);
        assert_eq!(mgr.reserve(), Some(0));
        assert!(mgr.is_held(0));
    }

    #[test]
    fn abandon_turns_a_held_lease_into_an_orphan() {
        let (_d, _sb, mgr) = manager(&[]);
        let id = mgr.reserve().unwrap();
        assert!(mgr.orphans().is_empty());
        mgr.abandon(id);
        assert_eq!(mgr.orphans(), vec![id]);
        assert!(mgr.is_active(id), "the persisted record survives a crash");
    }

    #[test]
    fn persist_round_trips_through_the_table_block() {
        let (device, sb, mgr) = manager(&[]);
        mgr.reserve().unwrap();
        mgr.reserve().unwrap();
        mgr.clear(0);
        mgr.persist();
        assert_eq!(LeaseManager::load_active(&device, &sb), vec![1]);
    }

    #[test]
    fn instance_paths_partition_by_id() {
        assert_eq!(staging_dir(0), "/.splitfs");
        assert_eq!(oplog_path(0), "/.splitfs/oplog");
        assert_eq!(staging_dir(3), "/.splitfs/inst-3");
        assert_eq!(oplog_path(3), "/.splitfs/oplog-3");
        // Distinct ids never share a resource path.
        assert_ne!(staging_dir(1), staging_dir(2));
        assert_ne!(oplog_path(1), oplog_path(2));
    }
}
