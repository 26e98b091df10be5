//! The declared-durability oracle's promise ledger.
//!
//! Crash-point fuzzing needs ground truth: when a crash image is captured
//! at an arbitrary fence boundary, which guarantees had the file system
//! already handed out?  The ledger records every such **promise** — an
//! `fsync` that returned, an `await_epoch` that was satisfied, a relink
//! batch whose journal transaction committed — in declaration order.  The fuzzer snapshots the ledger
//! length *before* copying device shards into a crash image, so every
//! recorded promise was established strictly before the captured state;
//! recovery from that image must honor all of them.
//!
//! The ledger lives in `pmem` (not in a file-system crate) because every
//! layer that makes promises — splitfs, kernelfs, aio — already holds the
//! device, and the device is the one object shared across instances.
//! Declaration sites run on production hot paths, so the whole mechanism
//! is behind one relaxed atomic load when disabled.
//!
//! Soundness rule for declaration sites: declare **after** the fence (or
//! journal commit, or epoch publish) that establishes the durability being
//! promised, never before.  The capture-side ordering (ledger length
//! first, shard bytes second) then guarantees the oracle is conservative:
//! it can miss a promise that raced the capture, but it can never check a
//! promise whose durability point had not been reached.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// A durability guarantee the system has handed to its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Promise {
    /// The first `len` bytes of the file at `path` are durable and hash to
    /// `hash` (see [`content_hash`]).  Declared by workloads/tests from
    /// their *own* expected bytes after a durability call returns — the
    /// oracle never trusts the device to define what should be on the
    /// device.
    FileDurable {
        /// Absolute file path.
        path: String,
        /// Number of durable bytes promised.
        len: u64,
        /// [`content_hash`] of those bytes.
        hash: u64,
    },
    /// All content promises previously made for `path` are void (the file
    /// is about to be unlinked, renamed away, or rewritten).  Declared
    /// *before* the voiding operation starts so a crash mid-operation
    /// cannot strand a stale content promise.
    FileRetracted {
        /// Absolute file path whose content promises no longer bind.
        path: String,
    },
    /// After recovery, `path` must exist (`exists == true`) or must not
    /// (`exists == false`).  Declared after a journaled metadata operation
    /// (create+fsync, rename, unlink) returns.
    PathDurable {
        /// Absolute path.
        path: String,
        /// Whether the path must resolve after recovery.
        exists: bool,
    },
    /// `fsync`/`fsync_many` returned for the file — counted for
    /// classification (the binding content check rides on
    /// [`Promise::FileDurable`], which carries expected bytes).
    FsyncReturned {
        /// Declaring instance.
        instance: u32,
        /// Inode of the fsynced file.
        ino: u64,
        /// File size at the time the call returned.
        size: u64,
    },
    /// Every ring operation with epoch `<= epoch` is durable (an
    /// `await_epoch` call was satisfied, or a batch publish advanced the
    /// published epoch past it).
    EpochDurable {
        /// The durability epoch that is now stable.
        epoch: u64,
    },
    /// A relink batch's journal transaction committed and its data fence
    /// completed.
    RelinkCommitted {
        /// Declaring instance.
        instance: u32,
        /// Number of staged extents retired by the batch.
        ops: u64,
    },
    /// An operation-log group commit fenced entries up to `seq`.
    OplogCommitted {
        /// Declaring instance.
        instance: u32,
        /// Highest log sequence number covered by the commit.
        seq: u64,
    },
}

impl Promise {
    /// Stable label for reports and classification tallies.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Promise::FileDurable { .. } => "file_durable",
            Promise::FileRetracted { .. } => "file_retracted",
            Promise::PathDurable { .. } => "path_durable",
            Promise::FsyncReturned { .. } => "fsync_returned",
            Promise::EpochDurable { .. } => "epoch_durable",
            Promise::RelinkCommitted { .. } => "relink_committed",
            Promise::OplogCommitted { .. } => "oplog_committed",
        }
    }
}

/// One ledger entry: a promise plus its declaration-order sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromiseRecord {
    /// Position in declaration order (0-based, dense).
    pub seq: u64,
    /// The promise itself.
    pub promise: Promise,
}

/// An append-only, declaration-ordered log of [`Promise`]s.
///
/// Disabled by default; production paths pay one relaxed atomic load.
#[derive(Debug, Default)]
pub struct PromiseLedger {
    enabled: AtomicBool,
    records: Mutex<Vec<PromiseRecord>>,
}

impl PromiseLedger {
    /// Turns recording on or off.  Disabling does not clear prior records.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether declarations are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records a promise; returns its sequence number, or `None` when the
    /// ledger is disabled.
    pub fn declare(&self, promise: Promise) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        let mut records = self.records.lock();
        let seq = records.len() as u64;
        records.push(PromiseRecord { seq, promise });
        Some(seq)
    }

    /// Number of records declared so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no promise has been declared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `n` records in declaration order (clamped to the current
    /// length).  Used by the fuzzer with the length snapshotted at crash
    /// capture.
    pub fn records_up_to(&self, n: usize) -> Vec<PromiseRecord> {
        let records = self.records.lock();
        records[..n.min(records.len())].to_vec()
    }

    /// Every record in declaration order.
    pub fn records(&self) -> Vec<PromiseRecord> {
        self.records.lock().clone()
    }

    /// Drops all records (recording state is unchanged).
    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

/// FNV-1a content hash used by [`Promise::FileDurable`].  Declaration sites
/// and the oracle checker must agree on this function; it is exported so
/// both compute it from their own byte views.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_records_nothing() {
        let ledger = PromiseLedger::default();
        assert_eq!(ledger.declare(Promise::EpochDurable { epoch: 1 }), None);
        assert!(ledger.is_empty());
    }

    #[test]
    fn declaration_order_assigns_dense_seqs() {
        let ledger = PromiseLedger::default();
        ledger.set_enabled(true);
        assert_eq!(ledger.declare(Promise::EpochDurable { epoch: 1 }), Some(0));
        assert_eq!(
            ledger.declare(Promise::PathDurable {
                path: "/a".into(),
                exists: true,
            }),
            Some(1)
        );
        let records = ledger.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert_eq!(ledger.records_up_to(1).len(), 1);
        assert_eq!(ledger.records_up_to(99).len(), 2);
    }

    #[test]
    fn content_hash_is_order_sensitive() {
        assert_ne!(content_hash(b"ab"), content_hash(b"ba"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_eq!(content_hash(b"splitfs"), content_hash(b"splitfs"));
    }
}
