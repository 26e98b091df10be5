//! Crash-point fuzzing and fault injection with a declared-durability
//! oracle.
//!
//! SplitFS hands out durability guarantees through many doors — `fsync`
//! returning, [`aio`]'s `await_epoch` satisfying, a relink batch's
//! journal transaction committing.  A
//! crash-consistency test that hard-codes one expected post-crash state
//! per scenario cannot keep up with that surface.  This crate inverts
//! the scheme: the workload **declares each promise as it is handed
//! out** (into the device's [`pmem::PromiseLedger`]), the fuzzer crashes
//! the system at systematically enumerated fence boundaries, and a
//! single oracle checks every recovered image against exactly the
//! promises that were outstanding at the crash point.
//!
//! The moving parts:
//!
//! * [`seed`] — `CHAOS_SEED` plumbing: one environment variable reseeds
//!   every fuzz loop and property test in the workspace, and every
//!   failure message prints the seed that reproduces it.
//! * [`oracle`] — the checker: replays the promise ledger's
//!   latest-wins state against a recovered kernel file system, plus a
//!   non-panicking `fsck` (namespace scan + metadata walk).
//! * [`harness`] — the shared post-crash helper the integration tests
//!   mount through: mount, per-instance recovery, oracle + fsck
//!   assertion.
//! * [`fuzz`] — the engine: pass 1 counts the fence boundaries a
//!   seeded [`workloads::crashmix`] run crosses; pass 2 replays the
//!   workload once per sampled boundary, captures a [`pmem::CrashImage`]
//!   at that exact fence, recovers it and runs the oracle.  A
//!   differential mode crashes the same points under
//!   [`pmem::CrashPolicy::KeepAll`] and `LoseUnflushed` to auto-classify
//!   missing-fence bugs, and a media-fault mode poisons live block
//!   ranges to verify read errors propagate and stay contained.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fuzz;
pub mod harness;
pub mod oracle;
pub mod seed;

pub use fuzz::{DiffReport, FuzzConfig, FuzzReport, MediaFaultReport, Reach};
pub use harness::Recovered;
pub use oracle::OracleReport;
pub use seed::chaos_seed;
