//! Closed-loop latency workload behind `harness -- latency`.
//!
//! `threads` worker threads each own one log file and drive a mixed
//! closed-loop request stream — vectored appends, periodic overwrites
//! at the file head, periodic zero-copy read-backs, group-commit
//! `fsync`s — with *no think time*: the next request issues the moment
//! the previous one returns, so the per-op simulated latency
//! distribution is exactly the service-time distribution of the file
//! system under that concurrency.
//!
//! Unlike the throughput workloads this one exists to feed the span
//! recorder: the caller wraps the file system in [`vfs::TracedFs`]
//! before handing it in, and everything the workload does — including
//! file creation, the directory setup and the final `fsync_many` /
//! closes — happens inside the traced window, so the recorder's
//! per-op time breakdown reconciles against the device's aggregate
//! stats for the same window.

use std::sync::Arc;

use parking_lot::Mutex;
use pmem::SimClock;
use vfs::{FileSystem, FsError, FsResult, IoVec, OpenFlags};

/// Parameters of one closed-loop latency run.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Worker threads; each owns one file.
    pub threads: usize,
    /// Closed-loop append operations per thread.
    pub ops_per_thread: u64,
    /// Payload bytes per appended record (a 16-byte header is added).
    pub record_size: usize,
    /// `fsync` after this many appends (0 = only at the end).
    pub fsync_every: u64,
    /// Zero-copy read-back of one record after this many appends
    /// (0 = never).
    pub read_every: u64,
    /// Overwrite of the first record after this many appends
    /// (0 = never).
    pub write_every: u64,
    /// Directory holding the per-thread files.
    pub dir: String,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 1024,
            record_size: 1008,
            fsync_every: 64,
            read_every: 32,
            write_every: 128,
            dir: "/latency".to_string(),
        }
    }
}

/// The outcome of one latency run (the latency distributions live in
/// the recorder the caller attached, not here).
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Worker threads used.
    pub threads: usize,
    /// Total operations issued across all threads (appends plus the
    /// interleaved reads, overwrites and fsyncs).
    pub ops: u64,
    /// Total appends across all threads.
    pub appends: u64,
    /// Critical-path simulated nanoseconds: the maximum over workers of
    /// their own thread time.
    pub critical_ns: f64,
    /// Total simulated nanoseconds (global clock delta; the serial sum).
    pub elapsed_ns: f64,
}

fn record(thread: usize, index: u64, payload: usize) -> (Vec<u8>, Vec<u8>) {
    let mut header = vec![0u8; 16];
    header[0..8].copy_from_slice(&(thread as u64).to_le_bytes());
    header[8..16].copy_from_slice(&index.to_le_bytes());
    (header, vec![(thread as u8).wrapping_add(1); payload])
}

/// Runs the closed-loop workload.  Everything — directory creation,
/// opens, the request loop, the final batched durability point and the
/// closes — happens inside this call, so a caller measuring the window
/// around it captures every operation.
pub fn run(fs: &Arc<dyn FileSystem>, config: &LatencyConfig) -> FsResult<LatencyResult> {
    if config.threads == 0 || config.ops_per_thread == 0 {
        return Err(FsError::InvalidArgument);
    }
    let device = Arc::clone(fs.device());
    if !fs.exists(&config.dir) {
        fs.mkdir(&config.dir)?;
    }
    let start_sim = device.clock().now_ns_f64();
    let record_len = (16 + config.record_size) as u64;
    let thread_times: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.threads));
    let ops_total: Mutex<u64> = Mutex::new(0);
    let fds: Mutex<Vec<vfs::Fd>> = Mutex::new(Vec::with_capacity(config.threads));
    std::thread::scope(|scope| {
        for t in 0..config.threads {
            let fs = Arc::clone(fs);
            let config = config.clone();
            let (thread_times, ops_total, fds) = (&thread_times, &ops_total, &fds);
            scope.spawn(move || {
                let t0 = SimClock::thread_time_ns();
                let mut ops = 0u64;
                let fd = fs
                    .open(&format!("{}/lat-{t}.log", config.dir), OpenFlags::create())
                    .expect("latency open");
                ops += 1;
                for i in 0..config.ops_per_thread {
                    let (header, body) = record(t, i, config.record_size);
                    let iov = [IoVec::new(&header), IoVec::new(&body)];
                    fs.appendv(fd, &iov).expect("latency append");
                    ops += 1;
                    if config.read_every > 0 && (i + 1) % config.read_every == 0 {
                        // Read back a record this thread already wrote.
                        let back = (i / 2) * record_len;
                        let view = fs
                            .read_view(fd, back, record_len as usize)
                            .expect("latency read");
                        assert!(!view.as_slice().is_empty(), "read-back hit a hole");
                        ops += 1;
                    }
                    if config.write_every > 0 && (i + 1) % config.write_every == 0 {
                        let (header, body) = record(t, 0, config.record_size);
                        fs.write_at(fd, 0, &header).expect("latency overwrite");
                        fs.write_at(fd, 16, &body).expect("latency overwrite");
                        ops += 2;
                    }
                    if config.fsync_every > 0 && (i + 1) % config.fsync_every == 0 {
                        fs.fsync(fd).expect("latency fsync");
                        ops += 1;
                    }
                }
                thread_times.lock().push(SimClock::thread_time_ns() - t0);
                *ops_total.lock() += ops;
                fds.lock().push(fd);
            });
        }
    });
    // One batched durability point over every file, then close them —
    // still inside the measured window.
    let fds = fds.into_inner();
    fs.fsync_many(&fds)?;
    let mut ops = ops_total.into_inner() + 1;
    for fd in fds {
        fs.close(fd)?;
        ops += 1;
    }
    let critical_ns = thread_times.lock().iter().cloned().fold(0.0f64, f64::max);
    Ok(LatencyResult {
        threads: config.threads,
        ops,
        appends: config.threads as u64 * config.ops_per_thread,
        critical_ns,
        elapsed_ns: device.clock().now_ns_f64() - start_sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{MetricsSnapshot, OpKind, Recorder};
    use vfs::TracedFs;

    fn strict_splitfs() -> Arc<splitfs::SplitFs> {
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
    fn traced_run_reconciles_spans_with_aggregate_stats() {
        let fs = strict_splitfs();
        let device = Arc::clone(fs.device());
        let recorder = Arc::new(Recorder::new());
        fs.attach_recorder(Arc::clone(&recorder));
        let traced: Arc<dyn vfs::FileSystem> =
            Arc::new(TracedFs::new(fs.clone(), Arc::clone(&recorder)));
        let before = device.stats().snapshot();
        let config = LatencyConfig {
            threads: 4,
            ops_per_thread: 256,
            record_size: 496,
            ..LatencyConfig::default()
        };
        let result = run(&traced, &config).unwrap();
        fs.maintenance_quiesce();
        let stats = device.stats().snapshot().delta(&before);
        let snap = MetricsSnapshot::new("SplitFS-strict", config.threads, &recorder, stats);

        assert_eq!(result.appends, 4 * 256);
        let appendv = snap.op(OpKind::Appendv).expect("appendv spans recorded");
        assert_eq!(appendv.count, result.appends);
        assert!(appendv.p99_ns >= appendv.p50_ns);
        assert!(snap.op(OpKind::Fsync).is_some());
        assert!(snap.op(OpKind::ReadView).is_some());
        assert!(snap.op(OpKind::Create).is_some());

        // The acceptance criterion: the per-op breakdown sums to within
        // 1% of the aggregate per-category stats for the same window.
        let err = snap.attribution_error(1000.0);
        assert!(
            err < 0.01,
            "span attribution off by {:.3}% (spans {:?} vs stats {:?})",
            err * 100.0,
            snap.span_time_by_category(),
            snap.stats.time_ns
        );
    }

    #[test]
    fn latency_rejects_empty_configs() {
        let fs = strict_splitfs();
        let traced: Arc<dyn vfs::FileSystem> = fs;
        let config = LatencyConfig {
            threads: 0,
            ..LatencyConfig::default()
        };
        assert!(run(&traced, &config).is_err());
    }
}
