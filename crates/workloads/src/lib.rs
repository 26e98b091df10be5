//! Workload generators and drivers for the SplitFS evaluation.
//!
//! Each module corresponds to a workload family the paper uses:
//!
//! * [`ycsb`] — the YCSB core workloads A–F (zipfian / latest / uniform key
//!   distributions) driven against the LSM key-value store.
//! * [`tpcc`] — a TPC-C-like transaction mix (new-order, payment,
//!   order-status, delivery, stock-level) driven against the WAL database.
//! * [`io_patterns`] — the §5.6 microbenchmarks: sequential/random
//!   reads/writes and appends in 4 KiB units.
//! * [`varmail`] — the §5.4 Varmail-like single-file system-call latency
//!   microbenchmark behind Table 6.
//! * [`utilities`] — git/tar/rsync-like metadata-heavy utility workloads
//!   (§5.9).
//! * [`appbench`] — drivers that run the applications from the `apps` crate
//!   on any [`vfs::FileSystem`] and collect a [`RunResult`].
//! * [`crashmix`] — the crash-point fuzzing workload: a seeded mixed op
//!   stream (appends, fsyncs, renames, unlinks, ring appends) that
//!   declares [`pmem::Promise`]s into the device ledger as each
//!   durability guarantee is handed out, driving the `chaos` crate's
//!   declared-durability oracle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod appbench;
pub mod crashmix;
pub mod io_patterns;
pub mod tpcc;
pub mod utilities;
pub mod varmail;
pub mod ycsb;

use pmem::{StatsSnapshot, TimeCategory};

/// The outcome of running one workload on one file system.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// File-system configuration name (e.g. "SplitFS-strict").
    pub fs_name: String,
    /// Workload name (e.g. "YCSB-A run").
    pub workload: String,
    /// Number of application-level operations performed.
    pub ops: u64,
    /// Simulated nanoseconds the workload took.
    pub elapsed_ns: f64,
    /// Device/software statistics accumulated during the run.
    pub stats: StatsSnapshot,
}

impl RunResult {
    /// Builds a result from a stats delta and elapsed simulated time.
    pub fn new(
        fs_name: impl Into<String>,
        workload: impl Into<String>,
        ops: u64,
        elapsed_ns: f64,
        stats: StatsSnapshot,
    ) -> Self {
        Self {
            fs_name: fs_name.into(),
            workload: workload.into(),
            ops,
            elapsed_ns,
            stats,
        }
    }

    /// Throughput in thousands of operations per simulated second.
    pub fn kops_per_sec(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.ops as f64 / (self.elapsed_ns / 1e9) / 1e3
    }

    /// Mean simulated latency per operation in nanoseconds.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.elapsed_ns / self.ops as f64
    }

    /// The paper's software overhead: total time minus user-data device
    /// time (§5.7).
    pub fn software_overhead_ns(&self) -> f64 {
        self.stats.software_overhead_ns()
    }

    /// Fraction of total time that is software overhead.
    pub fn software_overhead_fraction(&self) -> f64 {
        let total = self.stats.total_time_ns();
        if total <= 0.0 {
            return 0.0;
        }
        self.software_overhead_ns() / total
    }

    /// Total bytes written to the device during the run.
    pub fn bytes_written(&self) -> u64 {
        self.stats.total_bytes_written()
    }

    /// Bytes of application data written (user-data category).
    pub fn user_bytes_written(&self) -> u64 {
        self.stats.written(TimeCategory::UserData)
    }

    /// Write amplification relative to the user-data bytes.
    pub fn write_amplification(&self) -> Option<f64> {
        self.stats.write_amplification(self.user_bytes_written())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_are_consistent() {
        let stats = StatsSnapshot {
            time_ns: [600.0, 100.0, 100.0, 100.0, 100.0],
            bytes_written: [4096, 0, 1024, 64, 0],
            ..StatsSnapshot::default()
        };
        let r = RunResult::new("fs", "wl", 1000, 1_000_000.0, stats);
        assert!((r.kops_per_sec() - 1000.0).abs() < 0.001);
        assert!((r.ns_per_op() - 1000.0).abs() < 1e-9);
        assert!((r.software_overhead_ns() - 400.0).abs() < 1e-9);
        assert!((r.software_overhead_fraction() - 0.4).abs() < 1e-9);
        assert_eq!(r.bytes_written(), 5184);
        assert!((r.write_amplification().unwrap() - 5184.0 / 4096.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_is_handled() {
        let r = RunResult::new("fs", "wl", 0, 0.0, StatsSnapshot::default());
        assert_eq!(r.kops_per_sec(), 0.0);
        assert_eq!(r.ns_per_op(), 0.0);
        assert_eq!(r.software_overhead_fraction(), 0.0);
    }
}
