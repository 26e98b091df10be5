//! ext4-DAX-like kernel file system for the SplitFS reproduction.
//!
//! This crate is the K-Split substrate: an extent-based, journaling,
//! DAX-capable persistent-memory file system with the three capabilities
//! SplitFS builds on:
//!
//! 1. ordinary POSIX metadata and data operations routed through a modelled
//!    kernel boundary ([`fs::Ext4Dax`] implementing [`vfs::FileSystem`]),
//! 2. DAX memory mapping of file extents ([`Ext4Dax::dax_map`]), and
//! 3. the relink ioctl ([`Ext4Dax::ioctl_relink_batch`]) — atomic,
//!    journaled, metadata-only moves of blocks between files, the
//!    reproduction of the 500-line `EXT4_IOC_MOVE_EXT` patch described in
//!    §3.5 of the paper, with the partial-block copies at a run's ends in
//!    the same transaction — and
//! 4. **instance ids** ([`lease`]) — the partition that lets many U-Split
//!    instances share one kernel file system: each live instance claims an
//!    id ([`Ext4Dax::claim_instance`]) that names its exclusive staging
//!    directory and operation-log path.  Claims live in kernel memory
//!    only; a crashed instance is found by its operation-log file.
//!
//! Used on its own it is also the "ext4 DAX" baseline in every experiment.
//! Each piece of kernel state is one structure behind one lock; the lock
//! order that keeps them deadlock-free is documented at the top of [`fs`]
//! and in `ARCHITECTURE.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod dax;
pub mod dir;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod layout;
pub mod lease;

pub use dax::{DaxMapping, MapSegment};
pub use fs::{Ext4Dax, RelinkOp, ROOT_INO};
pub use layout::BLOCK_SIZE;
pub use lease::{oplog_id, oplog_path, staging_dir, MAX_INSTANCES};
