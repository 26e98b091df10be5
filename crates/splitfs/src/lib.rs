//! SplitFS: a user-space library file system for persistent memory.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*SplitFS: Reducing Software Overhead in File Systems for Persistent
//! Memory*, SOSP 2019).  The design splits file-system responsibilities:
//!
//! * **U-Split** (this crate, [`SplitFs`]) serves data operations in user
//!   space: reads and overwrites become loads and stores on memory-mapped
//!   file regions, appends are staged in pre-allocated staging files, and
//!   in strict mode every data operation is made atomic through a 64-byte,
//!   single-fence operation log.
//! * **K-Split** ([`kernelfs::Ext4Dax`]) handles every metadata operation
//!   and provides the journaled, atomic relink primitive that moves staged
//!   blocks into target files without copying data — submitted in bulk
//!   through [`kernelfs::Ext4Dax::ioctl_relink_batch`], which copies the
//!   partial blocks at a run's ends in the same call and returns the new
//!   sizes, so one trap and one journal transaction cover every staged
//!   extent an `fsync` retires.
//!
//! **Many instances, one kernel**: any number of [`SplitFs`] instances
//! (the paper's one-per-process deployment) can be mounted concurrently
//! over a single shared [`kernelfs::Ext4Dax`].  Each instance leases an
//! exclusive staging-directory slice and a dedicated operation-log file
//! from the kernel ([`kernelfs::lease`]); log entries are tagged with the
//! instance id, and [`recovery`] replays each instance's log
//! independently — instance B recovers intact even when instance A
//! crashed mid-relink.
//!
//! The batching machinery is the *public contract*, not internal plumbing:
//! SplitFS implements the full zero-copy / vectored / batch-durable
//! [`vfs::FileSystem`] surface —
//!
//! * [`vfs::FileSystem::read_view`] serves committed, mapped ranges as
//!   **zero-copy borrows** of the collection of mmaps (no memcpy; staged
//!   overlays and holes fall back to an owned buffer);
//! * [`vfs::FileSystem::appendv`] / [`vfs::FileSystem::writev_at`] stage
//!   N slices by their total length, not slice by slice: the gather is
//!   made durable with **one fence** and logged as **one 64 B entry per
//!   staged run** (one staging allocation) under one more — a gather that
//!   needs two runs group-commits both entries
//!   ([`oplog::OpLog::append_batch`]).  Two fences per gathered record
//!   where N plain appends cost 2N.  The end of file is resolved
//!   under the file-state lock, so concurrent appenders can never
//!   interleave into overlapping offsets;
//! * [`vfs::FileSystem::fsync_many`] retires the staged extents of M
//!   files through a single `ioctl_relink_batch` — one kernel trap and
//!   **one journal transaction** for the whole set.
//!
//! # Architecture
//!
//! The crate is organized as a foreground data path plus a background
//! maintenance subsystem:
//!
//! * [`fs`] — the POSIX-like entry points ([`SplitFs`]), per-mode routing
//!   of reads/overwrites/appends, the **one staging pipeline** every
//!   write goes through (`stage_batch`: stage, one fence, one log group
//!   commit, publish — a synchronous call is a batch of one), and the
//!   operation-log full handling (epoch seal, or on-demand log growth
//!   while the sealed half is still
//!   being retired — never a stall, never a deadlock).  The per-file
//!   registry ([`state::FileRegistry`], one lock over its inode map and
//!   its path index) and the descriptor table ([`state::FdTable`], one
//!   map) are unsharded, and a descriptor holds its file's state, so the
//!   per-descriptor data path probes the descriptor table and not the
//!   registry; the registry is indexed by path as well as by inode, so
//!   `stat`, `unlink` and `rename` lock only the files they name;
//! * [`staging`] — the pool of pre-allocated, pre-mapped staging files
//!   the append path carves allocations out of: one active file, cursor
//!   and free list behind one lock, with inline creation as the dry
//!   pool's last resort, separate counters for pre-allocated,
//!   background-provisioned and emergency inline file creations, and
//!   **recycling**: a fully-relinked staging file is truncated,
//!   re-provisioned and returned to the pool behind a durable
//!   `StagingRecycle` log marker instead of leaking;
//! * [`batch`] — planning: staged extents are coalesced into runs and
//!   split into block-aligned [`kernelfs::RelinkOp`] moves plus unaligned
//!   head/tail copy spans;
//! * [`relink`] — the user-space half of relink and the **one retire
//!   pipeline** (`relink_batch`) behind `fsync`, `fsync_many`, `close`
//!   and every background pass: submits the planned moves and copies of
//!   all its files through the batched kernel entry point — one trap —
//!   takes the targets' sizes from its reply, retains the staging
//!   mappings for the targets' mmap collections, and emits `Invalidate`
//!   markers;
//! * [`oplog`] — the single-fence redo log as a **two-epoch segment-swap
//!   log**: group commit ([`oplog::OpLog::append_batch`]: many entries,
//!   one fence), truncation by sealing the active half and re-zeroing it
//!   only after its files are retired ([`oplog::OpLog::try_seal`] /
//!   [`oplog::OpLog::truncate_sealed`] — no stop-the-world), and
//!   on-demand growth that extends the active epoch's extent list while
//!   preserving the sealed/active split.  A chunk map marks the 64 KiB
//!   chunks that may hold entries, so recovery reads only those;
//! * [`daemon`] — the **background maintenance daemon**
//!   ([`daemon::MaintenanceDaemon`]): one worker thread with one queue
//!   that replenishes the staging pool to static watermarks before it
//!   runs dry, relinks heavily-staged files in the background,
//!   recycles exhausted staging files, and retires sealed log epochs one
//!   file-state lock at a time, so the foreground never performs file
//!   creation or log truncation on the critical path;
//! * [`rings`] — the **async ring backend**: a drained submission batch
//!   from [`aio`] rings is one call into the staging pipeline, so writes
//!   to *unrelated files* share one data fence and one log group commit
//!   (two fences for K writes where K synchronous calls pay 2K), and
//!   complete with the **durability epoch** — the highest fenced
//!   operation-log sequence number — so callers await
//!   `published_epoch() >= cqe.epoch` instead of issuing `fsync`;
//! * [`recovery`] — idempotent, **per-instance** crash recovery by log
//!   replay: orphaned leases name the crashed instances, each orphan's
//!   log replays independently (foreign-tagged entries are refused), and
//!   recovered contents are identical whether a crash lands before,
//!   during, or after a background batch relink;
//! * [`config`] / [`modes`] / [`state`] / [`mmap_collection`] — tunables
//!   (including [`DaemonConfig`]), the three consistency modes, and the
//!   DRAM bookkeeping structures.
//!
//! ```
//! use splitfs::{SplitConfig, SplitFs, Mode};
//! use vfs::{FileSystem, OpenFlags};
//!
//! let device = pmem::PmemBuilder::new(256 * 1024 * 1024).build();
//! let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
//! // The maintenance daemon starts by default; `SplitConfig::without_daemon`
//! // restores the seed's inline-maintenance behaviour for ablations.
//! let fs = SplitFs::new(kernel, SplitConfig::new(Mode::Strict)).unwrap();
//!
//! let fd = fs.open("/data.log", OpenFlags::create()).unwrap();
//! fs.append(fd, b"hello persistent world").unwrap();
//! fs.fsync(fd).unwrap();
//! assert_eq!(fs.read_file("/data.log").unwrap(), b"hello persistent world");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod config;
pub mod daemon;
pub mod fs;
pub mod mmap_collection;
pub mod modes;
pub mod oplog;
pub mod recovery;
pub mod relink;
pub mod rings;
pub mod staging;
pub mod state;

pub use config::{DaemonConfig, SplitConfig};
pub use fs::{MemoryUsage, SplitFs, OPLOG_PATH, SPLITFS_DIR};
pub use modes::{Guarantees, Mode};
pub use recovery::{recover, recover_instance, recover_orphans, RecoveryReport};
pub use rings::{ring_hub, SplitRingBackend};
