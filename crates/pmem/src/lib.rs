//! Emulated persistent memory (PM) for the SplitFS reproduction.
//!
//! The SplitFS paper evaluates on Intel Optane DC Persistent Memory Modules.
//! This crate provides a software stand-in with the three properties the
//! paper's measurements depend on:
//!
//! 1. **Byte addressability with cache-line persistence semantics** —
//!    stores become persistent only after an explicit flush (`clwb`) and
//!    ordering fence (`sfence`), or when issued as non-temporal stores
//!    followed by a fence ([`device::PmemDevice`], [`persist`]).
//! 2. **Crash behaviour** — on a simulated crash, cache lines that were
//!    written but never flushed+fenced are lost; everything that reached the
//!    persistence domain survives ([`device::PmemDevice::crash`]).
//! 3. **A calibrated cost model** — every device access and every software
//!    action charges simulated nanoseconds from [`cost::CostModel`] to the
//!    device's [`stats::Stats`], which its [`clock::SimClock`] reads,
//!    decomposed by [`stats::TimeCategory`] so that the paper's definition
//!    of *software overhead* (total time minus the time spent accessing
//!    user data on the device, §5.7) can be computed exactly.
//!
//! The device is deliberately simple: a sharded, lock-protected byte array.
//! File systems built on top of it (kernelfs, baselines, splitfs) implement
//! their real data structures — allocators, journals, logs, extent trees —
//! against this address space, so the *code paths* of the paper are
//! exercised even though the medium is DRAM.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cost;
pub mod crash;
pub mod device;
pub mod oracle;
pub mod persist;
pub mod stats;

pub use clock::SimClock;
pub use cost::CostModel;
pub use crash::CrashPolicy;
pub use device::{CrashImage, FenceHook, MediaError, PmemBuilder, PmemDevice, PmemView};
pub use oracle::{content_hash, Promise, PromiseLedger, PromiseRecord};
pub use persist::{AccessPattern, PersistMode};
pub use stats::{Stats, StatsSnapshot, TimeCategory};

/// Size of a CPU cache line in bytes.  Persistence is tracked at this
/// granularity, matching the 64 B unit the paper's logging protocol is
/// designed around.
pub const CACHE_LINE: usize = 64;

/// Size of a small (4 KiB) page, the unit of page faults on the DAX mmap
/// path.
pub const PAGE_4K: usize = 4096;

/// Size of a huge (2 MiB) page.  SplitFS memory-maps files in 2 MiB chunks
/// so it can use huge pages (§3.6, §4).
pub const PAGE_2M: usize = 2 * 1024 * 1024;
