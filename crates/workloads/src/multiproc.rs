//! Multi-instance (multi-"process") U-Split saturation workload.
//!
//! The paper's deployment model runs one U-Split instance per application
//! process, all over one shared kernel file system.  This workload models
//! that: `instances` concurrent [`SplitFs`] instances are mounted on a
//! **single** [`Ext4Dax`], each instance leases its own staging-pool
//! slice and operation-log range from the kernel, and each drives
//! `threads_per_instance` writer threads — one private WAL file per
//! thread — at saturation.
//!
//! The headline metric is **aggregate critical-path throughput**: as in
//! [`crate::walshard`], each worker measures its own simulated time
//! ([`pmem::SimClock::thread_time_ns`]), and the run's makespan is the
//! maximum over all workers of all instances.  Because every instance has
//! a private operation log, staging pool, registry and daemon, adding
//! instances must scale aggregate throughput the same way adding threads
//! to one instance does — with **zero lease conflicts** (the leases are
//! handed out once, at mount) and zero cross-instance interference beyond
//! the sharded kernel itself.
//!
//! [`verify`] checks every instance's files afterwards through a fresh
//! kernel-side read, so cross-instance contamination (one instance's
//! bytes in another's file) fails the run.

use std::sync::Arc;
use std::time::Instant;

use kernelfs::Ext4Dax;
use parking_lot::Mutex;
use pmem::{SimClock, StatsSnapshot};
use splitfs::{SplitConfig, SplitFs};
use vfs::{FileSystem, FsError, FsResult, IoVec, OpenFlags};

/// Parameters of one multi-instance saturation run.
#[derive(Debug, Clone)]
pub struct MultiProcConfig {
    /// Number of concurrent U-Split instances over the shared kernel.
    pub instances: usize,
    /// Writer threads per instance; each owns one WAL file.
    pub threads_per_instance: usize,
    /// Payload bytes per record (a 16-byte header is prepended).
    pub record_size: usize,
    /// Records each thread appends (fixed per-thread work, so perfect
    /// scaling keeps the makespan flat as instances grow).
    pub records_per_thread: u64,
    /// Group-commit interval: `fsync` after this many records (0 = only
    /// at the end).
    pub fsync_every: u64,
}

impl Default for MultiProcConfig {
    fn default() -> Self {
        Self {
            instances: 2,
            threads_per_instance: 1,
            record_size: 1008,
            records_per_thread: 2048,
            fsync_every: 64,
        }
    }
}

/// The outcome of one multi-instance run.
#[derive(Debug, Clone)]
pub struct MultiProcResult {
    /// Instances mounted.
    pub instances: usize,
    /// Total records appended across every instance and thread.
    pub ops: u64,
    /// Total payload bytes appended.
    pub bytes: u64,
    /// Host wall-clock nanoseconds for the measured phase.
    pub wall_ns: f64,
    /// Total simulated nanoseconds charged by all threads (the serial
    /// cost of the work).
    pub elapsed_ns: f64,
    /// Aggregate makespan: the maximum over every worker thread of its
    /// own simulated critical path.
    pub critical_ns: f64,
    /// Device statistics delta for the measured phase (includes the lease
    /// counters: conflicts must be zero).
    pub stats: StatsSnapshot,
    /// The instance ids the kernel leased out, in mount order.
    pub instance_ids: Vec<u32>,
}

impl MultiProcResult {
    /// Aggregate critical-path simulated throughput in kops/s.
    pub fn kops_per_sec(&self) -> f64 {
        if self.critical_ns <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.critical_ns * 1e6
        }
    }

    /// Host wall-clock throughput in kops/s (informational).
    pub fn kops_per_sec_wall(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.wall_ns * 1e6
        }
    }
}

/// Path of instance `i`'s thread-`t` WAL file.
fn wal_path(instance: usize, thread: usize) -> String {
    format!("/proc-{instance}/wal-{thread}.log")
}

fn record(instance: usize, thread: usize, index: u64, payload: usize) -> (Vec<u8>, Vec<u8>) {
    let mut header = vec![0u8; 16];
    header[0..8].copy_from_slice(&((instance as u64) << 32 | thread as u64).to_le_bytes());
    header[8..16].copy_from_slice(&index.to_le_bytes());
    let body = vec![fill_byte(instance, thread); payload];
    (header, body)
}

/// Per-(instance, thread) payload fill byte; distinct values make
/// cross-instance contamination detectable byte by byte.
fn fill_byte(instance: usize, thread: usize) -> u8 {
    (instance as u8)
        .wrapping_mul(31)
        .wrapping_add(thread as u8)
        .wrapping_add(1)
}

/// Runs the workload: mounts `config.instances` U-Split instances over
/// `kernel` (each with `split_config`), drives every instance's writer
/// threads flat out, verifies per-file integrity, and unmounts.  Returns
/// aggregate timings plus the lease/contention counters.
pub fn run(
    kernel: &Arc<Ext4Dax>,
    split_config: &SplitConfig,
    config: &MultiProcConfig,
) -> FsResult<MultiProcResult> {
    if config.instances == 0 || config.threads_per_instance == 0 || config.records_per_thread == 0 {
        return Err(FsError::InvalidArgument);
    }
    let device = Arc::clone(kernel.device());

    // The measured phase starts before the mounts: lease acquisition is
    // part of the multi-instance story and the lease counters must appear
    // in the reported delta.  Throughput is computed from the workers'
    // critical paths only, so mount cost does not distort it.
    let before = device.stats().snapshot();
    let start_sim = device.clock().now_ns_f64();
    let start_wall = Instant::now();

    // Mount every instance and open every WAL up front so the append loop
    // below is pure append/fsync.
    let mut instances: Vec<Arc<SplitFs>> = Vec::with_capacity(config.instances);
    let mut fds: Vec<Vec<vfs::Fd>> = Vec::with_capacity(config.instances);
    for i in 0..config.instances {
        let fs = SplitFs::new(Arc::clone(kernel), split_config.clone())?;
        fs.mkdir(&format!("/proc-{i}"))?;
        let mut inst_fds = Vec::with_capacity(config.threads_per_instance);
        for t in 0..config.threads_per_instance {
            inst_fds.push(fs.open(&wal_path(i, t), OpenFlags::create())?);
        }
        instances.push(fs);
        fds.push(inst_fds);
    }
    let instance_ids: Vec<u32> = instances.iter().map(|fs| fs.instance_id()).collect();

    let thread_times: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, fs) in instances.iter().enumerate() {
            for (t, &fd) in fds[i].iter().enumerate() {
                let fs = Arc::clone(fs);
                let config = config.clone();
                let thread_times = &thread_times;
                scope.spawn(move || {
                    let t0 = SimClock::thread_time_ns();
                    for idx in 0..config.records_per_thread {
                        let (header, body) = record(i, t, idx, config.record_size);
                        let iov = [IoVec::new(&header), IoVec::new(&body)];
                        fs.appendv(fd, &iov).expect("multiproc append");
                        if config.fsync_every > 0 && (idx + 1) % config.fsync_every == 0 {
                            fs.fsync(fd).expect("multiproc fsync");
                        }
                    }
                    fs.fsync(fd).expect("multiproc final fsync");
                    thread_times.lock().push(SimClock::thread_time_ns() - t0);
                });
            }
        }
    });
    let wall_ns = start_wall.elapsed().as_nanos() as f64;
    let elapsed_ns = device.clock().now_ns_f64() - start_sim;
    let critical_ns = thread_times.lock().iter().cloned().fold(0.0f64, f64::max);

    for (i, fs) in instances.iter().enumerate() {
        for &fd in &fds[i] {
            fs.close(fd)?;
        }
    }
    // Clean unmount: leases released.  The stats delta closes over it so
    // the lease-release counters balance the acquires.  A daemon worker
    // mid-tick may still hold an instance, and whoever drops it last runs
    // the unmount, so each one is dropped here once this thread holds it
    // alone.
    for mut fs in instances {
        while let Err(shared) = Arc::try_unwrap(fs) {
            fs = shared;
            std::thread::yield_now();
        }
    }
    let stats = device.stats().snapshot().delta(&before);

    // Integrity is part of the run's contract: a contaminated file must
    // fail the run, not report healthy throughput.
    verify(kernel, config)?;

    let ops = (config.instances * config.threads_per_instance) as u64 * config.records_per_thread;
    Ok(MultiProcResult {
        instances: config.instances,
        ops,
        bytes: ops * config.record_size as u64,
        wall_ns,
        elapsed_ns,
        critical_ns,
        stats,
        instance_ids,
    })
}

/// Verifies every instance's WALs through the kernel file system: each
/// file must hold exactly `records_per_thread` records, in order, with
/// intact headers and payloads carrying the owner's fill byte — a foreign
/// fill byte means one instance's data bled into another's file.
pub fn verify(kernel: &Arc<Ext4Dax>, config: &MultiProcConfig) -> FsResult<()> {
    let record_len = 16 + config.record_size;
    for i in 0..config.instances {
        for t in 0..config.threads_per_instance {
            let path = wal_path(i, t);
            let data = kernel.read_file(&path)?;
            if data.len() != record_len * config.records_per_thread as usize {
                return Err(FsError::Io(format!(
                    "{path}: {} bytes, expected {}",
                    data.len(),
                    record_len * config.records_per_thread as usize
                )));
            }
            let want_owner = (i as u64) << 32 | t as u64;
            let fill = fill_byte(i, t);
            for (idx, rec) in data.chunks(record_len).enumerate() {
                let owner = u64::from_le_bytes(rec[0..8].try_into().unwrap());
                let index = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                if owner != want_owner || index != idx as u64 {
                    return Err(FsError::Io(format!(
                        "{path}: record {idx} carries header ({owner:#x}, {index})"
                    )));
                }
                if rec[16..].iter().any(|&b| b != fill) {
                    return Err(FsError::Io(format!(
                        "{path}: record {idx} torn or cross-contaminated"
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitfs::Mode;

    fn kernel() -> Arc<Ext4Dax> {
        let device = pmem::PmemBuilder::new(512 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Ext4Dax::mkfs(device).unwrap()
    }

    fn strict_config() -> SplitConfig {
        SplitConfig::new(Mode::Strict)
            .with_staging(4, 8 * 1024 * 1024)
            .with_oplog_size(512 * 1024)
    }

    #[test]
    fn two_instances_share_one_kernel_without_conflicts() {
        let kernel = kernel();
        let config = MultiProcConfig {
            instances: 2,
            threads_per_instance: 2,
            records_per_thread: 256,
            record_size: 240,
            fsync_every: 32,
        };
        let result = run(&kernel, &strict_config(), &config).unwrap();
        assert_eq!(result.ops, 2 * 2 * 256);
        assert_eq!(result.instance_ids, vec![0, 1]);
        assert_eq!(
            result.stats.lease_conflicts, 0,
            "leases are handed out once, never contended: {:?}",
            result.stats
        );
        assert_eq!(result.stats.lease_acquires, 2);
        // Private logs and pools: the parallel makespan beats the serial
        // total.
        assert!(result.critical_ns < result.elapsed_ns);
        assert_eq!(result.stats.checkpoint_stalls, 0);
        verify(&kernel, &config).unwrap();
        // Clean unmounts released every lease.
        assert_eq!(kernel.lease_active_count(), 0);
    }

    #[test]
    fn multiproc_rejects_empty_configs() {
        let kernel = kernel();
        let config = MultiProcConfig {
            instances: 0,
            ..MultiProcConfig::default()
        };
        assert!(run(&kernel, &strict_config(), &config).is_err());
    }
}
