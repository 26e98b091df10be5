//! Baseline persistent-memory file systems.
//!
//! The SplitFS paper evaluates against four publicly available PM file
//! systems.  `kernelfs::Ext4Dax` plays the part of ext4 DAX; this crate
//! provides the other three:
//!
//! * [`Pmfs`] — in-place data, undo-journaled metadata, synchronous
//!   ("sync" guarantee class).
//! * [`Nova`] — per-inode log-structured, in [`NovaMode::Relaxed`]
//!   (in-place data, "sync") or [`NovaMode::Strict`] (copy-on-write data,
//!   "strict").  Each operation writes two cache lines and issues two
//!   fences for its log — the contrast point for SplitFS's one-line /
//!   one-fence operation log.
//! * [`Strata`] — user-space private log plus digest into a shared area
//!   ("strict"), reproducing the double-write behaviour on append-heavy
//!   workloads.
//!
//! All three implement [`vfs::FileSystem`] so workloads and benchmarks run
//! unchanged against them, and they share that implementation: one front
//! end (the core lock, descriptor, permission and path checks, the cursor,
//! `stat`, `readdir`, `lseek` and the `fsync` entry points) over one
//! mechanical core (namespace, inodes, allocator, block map).  What each
//! module adds is its persistence design and nothing else: the entry
//! charge of a call (a kernel trap for PMFS and NOVA, LibFS bookkeeping for
//! Strata), the journal or log record of each metadata operation, the data
//! write of a gather, and Strata's log-first read and digest.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod common;
pub mod nova;
pub mod pmfs;
pub mod strata;

pub use nova::{Nova, NovaMode};
pub use pmfs::Pmfs;
pub use strata::Strata;
