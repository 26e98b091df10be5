//! Multi-threaded writer stress and epoch-swap crash consistency.
//!
//! The sharded hot path's contract under concurrency:
//!
//! * appends from N threads to N distinct files never tear, reorder or
//!   cross files, across epoch swaps and the checkpoints a full log
//!   makes them wait on;
//! * operation-log sequence numbers stay globally unique and, per file,
//!   order the staged writes exactly as they were issued;
//! * a crash while the log is split across a sealed and an active epoch
//!   recovers by replaying **both halves** in sequence order;
//! * a full log is checkpointed by its writer, with no state lock held,
//!   and never grows.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice};
use splitfs::oplog::{LogOp, OpLog};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::{FileSystem, OpenFlags};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(512 * 1024 * 1024).build()
}

/// Scans the on-device operation log (whatever its current size).
fn scan_log(kernel: &Arc<Ext4Dax>) -> Vec<splitfs::oplog::LogEntry> {
    let fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
    let size = kernel.fstat(fd).unwrap().size;
    let mapping = kernel.dax_map(fd, 0, size, false).unwrap();
    let entries = OpLog::scan(kernel.device(), &mapping, size);
    kernel.close(fd).unwrap();
    entries
}

/// The size of the operation-log file on `kernel`.
fn log_size(kernel: &Arc<Ext4Dax>) -> u64 {
    kernel.stat(OPLOG_PATH).unwrap().size
}

#[test]
fn eight_concurrent_writers_keep_files_isolated_and_seqs_ordered() {
    // The writers run on a helper thread, so a deadlock fails the test
    // instead of hanging it.
    let (done, finished) = mpsc::channel();
    let writers = std::thread::spawn(move || {
        eight_writers();
        done.send(()).unwrap();
    });
    // A panic drops the sender and surfaces through the join below.
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("eight writers filling the log deadlocked");
    }
    writers.join().expect("a writer panicked");
}

fn eight_writers() {
    const THREADS: usize = 8;
    const RECORDS: u64 = 48;
    const RECORD: usize = 512;
    const LOG: u64 = 256 * 64;

    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Small log (256 slots, two epochs of about 128) so the stream crosses
    // its capacity several times.  No daemon: the swaps happen inline on
    // the writer threads, the worst case for ordering, and nothing retires
    // a sealed half but a writer that finds the log full, releases its
    // state lock and checkpoints.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(4, 8 * 1024 * 1024)
        .with_oplog_size(LOG)
        .without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();

    let fds: Vec<_> = (0..THREADS)
        .map(|t| fs.open(&format!("/w{t}.log"), OpenFlags::create()).unwrap())
        .collect();
    let before = device.stats().snapshot();
    std::thread::scope(|scope| {
        for (t, &fd) in fds.iter().enumerate() {
            let fs = Arc::clone(&fs);
            scope.spawn(move || {
                for i in 0..RECORDS {
                    let mut rec = vec![t as u8 + 1; RECORD];
                    rec[0] = (i % 251) as u8;
                    fs.append(fd, &rec).unwrap();
                    if (i + 1) % 16 == 0 {
                        fs.fsync(fd).unwrap();
                    }
                }
            });
        }
    });
    let delta = device.stats().snapshot().delta(&before);
    assert!(
        delta.oplog_epoch_swaps > 0,
        "the stream crossed an epoch: {delta:?}"
    );
    assert!(
        delta.checkpoint_stalls > 0,
        "384 appends fill both halves, so a writer checkpointed: {delta:?}"
    );
    assert_eq!(log_size(&kernel), LOG, "the log never grows");

    // Ordering across epoch swaps: every surviving staged write's
    // sequence number is globally unique (an `Invalidate` marker reuses
    // its cohort's max seq by design), and per target file the staged
    // writes appear in issue order (monotonic target offsets when sorted
    // by seq).
    let entries = scan_log(&kernel);
    let mut seqs: Vec<u64> = entries
        .iter()
        .filter(|e| e.op == LogOp::StagedWrite)
        .map(|e| e.seq)
        .collect();
    let n = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), n, "duplicate staged-write sequence numbers");
    for &fd in &fds {
        let ino = fs.fstat(fd).unwrap().ino;
        let mut last = None;
        for e in entries
            .iter()
            .filter(|e| e.op == LogOp::StagedWrite && e.target_ino == ino)
        {
            if let Some(prev) = last {
                assert!(
                    e.target_offset > prev,
                    "file {ino}: staged writes out of order across swaps"
                );
            }
            last = Some(e.target_offset);
        }
    }

    // Per-file byte integrity.
    for (t, &fd) in fds.iter().enumerate() {
        fs.fsync(fd).unwrap();
        let data = fs.read_file(&format!("/w{t}.log")).unwrap();
        assert_eq!(data.len(), RECORDS as usize * RECORD, "file {t} length");
        for (i, rec) in data.chunks(RECORD).enumerate() {
            assert_eq!(rec[0], (i as u64 % 251) as u8, "file {t} record {i} order");
            assert!(
                rec[1..].iter().all(|&b| b == t as u8 + 1),
                "file {t} record {i} torn or cross-contaminated"
            );
        }
        fs.close(fd).unwrap();
    }
}

#[test]
fn crash_mid_epoch_swap_replays_both_halves_in_order() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(256 * 64)
        .without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    // Stage writes for /a: their log entries land in the first epoch.
    let fa = fs.open("/a.db", OpenFlags::create()).unwrap();
    let part1: Vec<u8> = (0..8192u32).map(|i| (i % 240) as u8).collect();
    fs.append(fa, &part1).unwrap();

    // Seal: entries for /a are now in the SEALED half, unretired.
    assert!(fs.seal_oplog_epoch(), "seal must succeed");
    assert!(!fs.seal_oplog_epoch(), "second seal refused while pending");

    // More staged writes land in the new ACTIVE half — including an
    // overwrite-adjacent append to /a (ordering across the halves
    // matters) and a second file.
    let part2 = vec![0xE7u8; 4096];
    fs.append(fa, &part2).unwrap();
    let fb = fs.open("/b.db", OpenFlags::create()).unwrap();
    let content_b = vec![0x3Cu8; 6000];
    fs.append(fb, &content_b).unwrap();

    // Crash with the log split across both epochs: no fsync, no close, no
    // retirement ran.
    drop(fs);
    device.crash();

    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert!(
        report.replayed >= 3,
        "staged appends from both halves replay: {report:?}"
    );

    let mut expected_a = part1.clone();
    expected_a.extend_from_slice(&part2);
    assert_eq!(
        kernel2.read_file("/a.db").unwrap(),
        expected_a,
        "/a.db must recover sealed-epoch then active-epoch bytes in order"
    );
    assert_eq!(kernel2.read_file("/b.db").unwrap(), content_b);

    // Recovery is idempotent and a new instance starts clean.
    let fs2 = SplitFs::new(Arc::clone(&kernel2), config).unwrap();
    assert_eq!(fs2.read_file("/a.db").unwrap(), expected_a);
    assert_eq!(fs2.oplog_entries(), 0, "log re-zeroed after recovery");
}

#[test]
fn crash_after_a_foreground_checkpoint_recovers_every_acknowledged_byte() {
    // Seal with entries pending, then fill the active epoch: the sealed
    // half is still pending, so a swap is impossible and the writer
    // releases its lock and checkpoints, again and again, in a log that
    // keeps its size.  Then crash: every acknowledged byte recovers.
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Epochs of 32 and 29 entries.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(64 * 64)
        .without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let before = device.stats().snapshot();

    let fd = fs.open("/full.db", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    // Fill part of the first epoch.
    for i in 0..8u32 {
        let rec = vec![(i + 1) as u8; 1024];
        fs.append(fd, &rec).unwrap();
        expected.extend_from_slice(&rec);
    }
    assert!(fs.seal_oplog_epoch());
    for i in 8..80u32 {
        let rec = vec![((i % 240) + 1) as u8; 1024];
        fs.append(fd, &rec).unwrap();
        expected.extend_from_slice(&rec);
    }
    let delta = device.stats().snapshot().delta(&before);
    assert!(
        delta.checkpoint_stalls > 0,
        "the writer checkpointed a full log: {delta:?}"
    );
    assert_eq!(log_size(&kernel), config.oplog_size, "the log never grows");

    drop(fs);
    device.crash();

    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert!(report.replayed > 0, "{report:?}");
    assert_eq!(
        kernel2.read_file("/full.db").unwrap(),
        expected,
        "the checkpointed and the live entries all recover, in order"
    );
}
