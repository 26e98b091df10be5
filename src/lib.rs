//! Root convenience crate for the SplitFS reproduction workspace.
//!
//! This crate simply re-exports the member crates so that examples and
//! integration tests at the repository root can depend on a single name.
//! The actual implementation lives in the workspace crates:
//!
//! * [`pmem`] — emulated persistent-memory device, persistence semantics,
//!   crash injection and the calibrated cost model.
//! * [`vfs`] — the common `FileSystem` trait every file system implements.
//! * [`kernelfs`] — the ext4-DAX-like kernel file system (K-Split substrate).
//! * [`baselines`] — NOVA (strict/relaxed), PMFS and Strata baselines.
//! * [`splitfs`] — the paper's contribution: the U-Split user-space library
//!   file system with staging files, relink and the operation log.
//! * [`apps`] — LSM key-value store, WAL database and AOF store substrates.
//! * [`workloads`] — YCSB, TPC-C-like, Varmail-like and utility workloads.
//! * [`obs`] — op spans with per-category time and the metrics JSON export.

pub use apps;
pub use baselines;
pub use kernelfs;
pub use obs;
pub use pmem;
pub use splitfs;
pub use vfs;
pub use workloads;
