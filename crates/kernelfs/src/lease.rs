//! Instance ids: the partition that lets many U-Split instances share one
//! kernel file system.
//!
//! SplitFS's multi-process story (paper §3.1: "multiple applications,
//! each linking the SplitFS library, over one shared ext4 DAX") gives each
//! U-Split instance resources it writes with plain stores, no kernel
//! mediation per operation: a slice of the staging-file pool and an
//! operation log.  An integer **instance id** names both:
//!
//! * [`staging_dir`] — the directory holding that instance's staging
//!   files (its exclusive slice of the staging pool), and
//! * [`oplog_path`] — that instance's operation-log file.
//!
//! The kernel hands ids out through [`InstanceClaims`]: a live instance
//! claims its id when it starts and drops the claim when it goes away, by
//! a clean shutdown or a crash alike.  Claims live in kernel memory only.
//! Ownership belongs to live processes, and after a machine crash none is
//! alive, so nothing about it needs to reach the media.
//!
//! What a crashed instance leaves behind is its operation log, and the log
//! file is what names it: `splitfs::recovery` lists [`SPLITFS_ROOT`], maps
//! each log file back to its id ([`oplog_id`]), and replays every log
//! whose id no live instance claims — claiming the id first, so two
//! starting instances never replay the same log and no log is replayed
//! while its owner lives.

use std::collections::BTreeSet;

use parking_lot::Mutex;

/// Maximum number of instance ids claimed at once.
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

/// Path of `instance_id`'s operation-log file.  Instance 0 keeps the
/// original single-instance path ([`OPLOG_PATH_0`]).
pub fn oplog_path(instance_id: u32) -> String {
    if instance_id == 0 {
        OPLOG_PATH_0.to_string()
    } else {
        format!("{SPLITFS_ROOT}/oplog-{instance_id}")
    }
}

/// The inverse of [`oplog_path`]: the id whose operation log is the entry
/// `name` of [`SPLITFS_ROOT`], or `None` when `name` is no instance's log.
pub fn oplog_id(name: &str) -> Option<u32> {
    let id = match name.strip_prefix("oplog")? {
        "" => 0,
        rest => rest.strip_prefix('-')?.parse().ok()?,
    };
    (id < MAX_INSTANCES && oplog_path(id) == format!("{SPLITFS_ROOT}/{name}")).then_some(id)
}

/// The ids live instances hold.
#[derive(Debug, Default)]
pub struct InstanceClaims(Mutex<BTreeSet<u32>>);

impl InstanceClaims {
    /// Claims the lowest id no one holds; `None` when all
    /// [`MAX_INSTANCES`] are held.
    pub fn claim_lowest(&self) -> Option<u32> {
        let mut held = self.0.lock();
        let id = (0..MAX_INSTANCES).find(|id| !held.contains(id))?;
        held.insert(id);
        Some(id)
    }

    /// Claims `id` if no one holds it.
    pub fn claim(&self, id: u32) -> bool {
        id < MAX_INSTANCES && self.0.lock().insert(id)
    }

    /// Drops the claim on `id`.
    pub fn release(&self, id: u32) {
        self.0.lock().remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_hands_out_lowest_free_ids() {
        let claims = InstanceClaims::default();
        assert_eq!(claims.claim_lowest(), Some(0));
        assert_eq!(claims.claim_lowest(), Some(1));
        assert!(!claims.claim(1), "a held id cannot be claimed again");
        assert!(claims.claim(3));
        assert_eq!(claims.claim_lowest(), Some(2));
        claims.release(0);
        assert_eq!(claims.claim_lowest(), Some(0), "released ids are reused");
        assert_eq!(claims.claim_lowest(), Some(4));
        assert!(!claims.claim(MAX_INSTANCES));
    }

    #[test]
    fn every_id_taken_leaves_none_to_claim() {
        let claims = InstanceClaims::default();
        for id in 0..MAX_INSTANCES {
            assert_eq!(claims.claim_lowest(), Some(id));
        }
        assert_eq!(claims.claim_lowest(), None);
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

    #[test]
    fn log_names_map_back_to_their_ids() {
        for id in [0, 1, 7, 42, MAX_INSTANCES - 1] {
            let path = oplog_path(id);
            let name = path.rsplit('/').next().unwrap();
            assert_eq!(oplog_id(name), Some(id), "{path}");
        }
        for name in [
            "oplog-0",
            "oplog-01",
            "oplog-+1",
            "oplog-",
            "oplog1",
            "oplog-256",
            "inst-1",
            "staging-0",
            "",
        ] {
            assert_eq!(oplog_id(name), None, "{name:?}");
        }
    }
}
