//! WAL-per-shard saturation workload.
//!
//! Models the write path of a sharded server (a log-structured store, a
//! message broker, a database with per-core commit logs): `threads`
//! worker threads each own one write-ahead log file and drive it at
//! saturation — append a record, group-commit with an `fsync` every
//! `fsync_every` records, repeat.  No thread ever touches another
//! thread's file, so a file system whose internal state is properly
//! sharded should scale throughput with the thread count, while a global
//! lock on the metadata/write path flattens the curve.
//!
//! Unlike the single-threaded microbenchmarks, the headline metric here
//! is **critical-path simulated throughput**: the global simulated clock
//! sums every thread's charges and cannot distinguish serialized from
//! parallel execution, so each worker instead measures its own simulated
//! time ([`pmem::SimClock::thread_time_ns`] — its charges plus the
//! simulated work others completed while it was blocked on a contended
//! lock), and the run's makespan is the maximum over the workers.  A
//! file system with one global lock serializes every charge onto every
//! waiter's critical path (throughput flat in the thread count); sharded
//! state keeps each worker's path at its own work (throughput ~linear).
//! Host wall-clock time is reported alongside, and the result carries the
//! contention counters (`staging_lock_waits`, `shard_lock_waits`,
//! `oplog_epoch_swaps`, `checkpoint_stalls`, ...) the `scaling`
//! experiment prints.  Runs at up to 16 threads in the harness; on a
//! SplitFS instance configured with one staging lane per writer
//! (`SplitConfig::with_staging_lanes`), `staging_lock_waits` stays ~zero
//! because disjoint writers bump disjoint staging cursors.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pmem::{SimClock, StatsSnapshot};
use vfs::{FileSystem, FsError, FsResult, IoVec, OpenFlags};

/// Parameters of one saturation run.
#[derive(Debug, Clone)]
pub struct WalShardConfig {
    /// Number of worker threads; each owns one WAL file.
    pub threads: usize,
    /// Payload bytes per record (a 16-byte header is prepended).
    pub record_size: usize,
    /// Records each thread appends (fixed per-thread work, so perfect
    /// scaling keeps wall time flat as threads grow).
    pub records_per_shard: u64,
    /// Group-commit interval: `fsync` after this many records (0 = only
    /// at the end).
    pub fsync_every: u64,
    /// Directory holding the `wal-<t>.log` files.
    pub dir: String,
}

impl Default for WalShardConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            record_size: 1008,
            records_per_shard: 2048,
            fsync_every: 64,
            dir: "/wal".to_string(),
        }
    }
}

/// The outcome of one saturation run.
#[derive(Debug, Clone)]
pub struct WalShardResult {
    /// Worker threads used.
    pub threads: usize,
    /// Total records appended across all threads.
    pub ops: u64,
    /// Total payload bytes appended.
    pub bytes: u64,
    /// Host wall-clock nanoseconds for the measured phase.
    pub wall_ns: f64,
    /// Total simulated nanoseconds charged by all threads (the global
    /// clock delta — the serial cost of the work).
    pub elapsed_ns: f64,
    /// Critical-path simulated nanoseconds: the maximum over worker
    /// threads of (own charges + simulated waits on contended locks).
    /// This is the parallel makespan and the basis of the scaling metric.
    pub critical_ns: f64,
    /// Device statistics delta for the measured phase.
    pub stats: StatsSnapshot,
}

impl WalShardResult {
    /// Critical-path simulated throughput in kops/s — the scaling metric.
    pub fn kops_per_sec(&self) -> f64 {
        if self.critical_ns <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.critical_ns * 1e6
        }
    }

    /// Host wall-clock throughput in kops/s (informational; depends on
    /// the machine's real core count).
    pub fn kops_per_sec_wall(&self) -> f64 {
        if self.wall_ns <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.wall_ns * 1e6
        }
    }
}

fn record(thread: usize, index: u64, payload: usize) -> (Vec<u8>, Vec<u8>) {
    let mut header = vec![0u8; 16];
    header[0..8].copy_from_slice(&(thread as u64).to_le_bytes());
    header[8..16].copy_from_slice(&index.to_le_bytes());
    let body = vec![(thread as u8).wrapping_add(1); payload];
    (header, body)
}

/// Runs the saturation workload: `threads` appender threads, each with a
/// private WAL file, all driven flat out.  Returns wall-clock and
/// simulated timings plus the contention counters.
pub fn run(fs: &Arc<dyn FileSystem>, config: &WalShardConfig) -> FsResult<WalShardResult> {
    if config.threads == 0 || config.records_per_shard == 0 {
        return Err(FsError::InvalidArgument);
    }
    let device = Arc::clone(fs.device());
    if !fs.exists(&config.dir) {
        fs.mkdir(&config.dir)?;
    }
    // Open (create) every file up front so the measured phase is pure
    // append/fsync.
    let fds: Vec<_> = (0..config.threads)
        .map(|t| fs.open(&format!("{}/wal-{t}.log", config.dir), OpenFlags::create()))
        .collect::<FsResult<_>>()?;

    let before = device.stats().snapshot();
    let start_sim = device.clock().now_ns_f64();
    let start_wall = Instant::now();
    let thread_times: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.threads));
    std::thread::scope(|scope| {
        for (t, &fd) in fds.iter().enumerate() {
            let fs = Arc::clone(fs);
            let config = config.clone();
            let thread_times = &thread_times;
            scope.spawn(move || {
                let t0 = SimClock::thread_time_ns();
                for i in 0..config.records_per_shard {
                    let (header, body) = record(t, i, config.record_size);
                    let iov = [IoVec::new(&header), IoVec::new(&body)];
                    fs.appendv(fd, &iov).expect("walshard append");
                    if config.fsync_every > 0 && (i + 1) % config.fsync_every == 0 {
                        fs.fsync(fd).expect("walshard fsync");
                    }
                }
                fs.fsync(fd).expect("walshard final fsync");
                thread_times.lock().push(SimClock::thread_time_ns() - t0);
            });
        }
    });
    let wall_ns = start_wall.elapsed().as_nanos() as f64;
    let elapsed_ns = device.clock().now_ns_f64() - start_sim;
    let critical_ns = thread_times.lock().iter().cloned().fold(0.0f64, f64::max);
    let stats = device.stats().snapshot().delta(&before);
    for fd in fds {
        fs.close(fd)?;
    }
    let ops = config.threads as u64 * config.records_per_shard;
    Ok(WalShardResult {
        threads: config.threads,
        ops,
        bytes: ops * config.record_size as u64,
        wall_ns,
        elapsed_ns,
        critical_ns,
        stats,
    })
}

/// Verifies every shard's WAL after a run (or after crash recovery):
/// each file must hold exactly `records_per_shard` records, in order,
/// with intact headers and untorn payloads.
pub fn verify(fs: &Arc<dyn FileSystem>, config: &WalShardConfig) -> FsResult<()> {
    let record_len = 16 + config.record_size;
    for t in 0..config.threads {
        let path = format!("{}/wal-{t}.log", config.dir);
        let data = fs.read_file(&path)?;
        if data.len() != record_len * config.records_per_shard as usize {
            return Err(FsError::Io(format!(
                "{path}: {} bytes, expected {}",
                data.len(),
                record_len * config.records_per_shard as usize
            )));
        }
        for (i, rec) in data.chunks(record_len).enumerate() {
            let thread = u64::from_le_bytes(rec[0..8].try_into().unwrap());
            let index = u64::from_le_bytes(rec[8..16].try_into().unwrap());
            if thread != t as u64 || index != i as u64 {
                return Err(FsError::Io(format!(
                    "{path}: record {i} carries header ({thread}, {index})"
                )));
            }
            let fill = (t as u8).wrapping_add(1);
            if rec[16..].iter().any(|&b| b != fill) {
                return Err(FsError::Io(format!("{path}: record {i} payload torn")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_splitfs() -> Arc<dyn FileSystem> {
        let device = pmem::PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
        let config = splitfs::SplitConfig::new(splitfs::Mode::Strict)
            .with_staging(4, 8 * 1024 * 1024)
            .with_oplog_size(512 * 1024);
        splitfs::SplitFs::new(kernel, config).unwrap()
    }

    #[test]
    fn walshard_preserves_per_file_integrity_under_concurrency() {
        let fs = strict_splitfs();
        let config = WalShardConfig {
            threads: 4,
            records_per_shard: 256,
            record_size: 240,
            fsync_every: 32,
            ..WalShardConfig::default()
        };
        let result = run(&fs, &config).unwrap();
        assert_eq!(result.ops, 4 * 256);
        assert!(result.wall_ns > 0.0);
        assert!(result.critical_ns > 0.0);
        // Distinct files on sharded state: the parallel makespan must be
        // well below the serial total.
        assert!(result.critical_ns < result.elapsed_ns);
        verify(&fs, &config).unwrap();
        // Saturation at four writers must not stall the foreground on log
        // truncation: epoch swaps or growth only.
        assert_eq!(result.stats.checkpoint_stalls, 0);
    }

    #[test]
    fn walshard_with_lane_per_writer_never_contends_on_staging() {
        // One staging lane per writer thread and no background pushes
        // (daemon off): eight disjoint-file appenders must take staging
        // space without a single contended lane acquisition.
        let device = pmem::PmemBuilder::new(512 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
        let config = splitfs::SplitConfig::new(splitfs::Mode::Strict)
            .with_staging(8, 8 * 1024 * 1024)
            .with_staging_lanes(8)
            .with_oplog_size(512 * 1024)
            .without_daemon();
        let fs: Arc<dyn FileSystem> = splitfs::SplitFs::new(kernel, config).unwrap();
        let config = WalShardConfig {
            threads: 8,
            records_per_shard: 192,
            record_size: 496,
            fsync_every: 32,
            ..WalShardConfig::default()
        };
        let result = run(&fs, &config).unwrap();
        verify(&fs, &config).unwrap();
        assert_eq!(
            result.stats.staging_lock_waits, 0,
            "disjoint writers on disjoint lanes must never contend: {:?}",
            result.stats
        );
        assert_eq!(result.stats.staging_lane_steals, 0, "no lane ran dry");
        assert_eq!(result.stats.checkpoint_stalls, 0);
    }

    #[test]
    fn walshard_rejects_empty_configs() {
        let fs = strict_splitfs();
        let config = WalShardConfig {
            threads: 0,
            ..WalShardConfig::default()
        };
        assert!(run(&fs, &config).is_err());
    }
}
