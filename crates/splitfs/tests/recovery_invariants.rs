//! Recovery pays for what was logged, not for the size of the logs.
//!
//! The kernel journal keeps one invariant — *every byte outside the
//! records written since the last reset is zero* — and mount clears only
//! what its scan found written.  The U-Split operation log keeps nothing
//! live behind its watermark record, and oplog replay retires what it
//! found with one record store.  These tests hold that design to its four
//! promises: the cost of recovery does not depend on how large the logs
//! are, both invariants really are restored by every recovery (under
//! every crash policy, torn tails included), a crash inside the recovery
//! code itself is recovered from, and a replay that fails leaves the log
//! for the next one to replay.  A fifth holds for the markers that retire
//! log entries: replay never undoes a change that bypassed the log after
//! a relink, however full the log was.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kernelfs::layout::Superblock;
use kernelfs::{Ext4Dax, BLOCK_SIZE};
use pmem::{CrashPolicy, PmemBuilder, PmemDevice, TimeCategory};
use splitfs::oplog::{is_reserved, LogEntry, LogOp, OpLog, Watermarks, ENTRY_SIZE, MAP_OFFSET};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::{FileSystem, OpenFlags};

const MIB: u64 = 1024 * 1024;
const DEVICE_BYTES: usize = 32 * MIB as usize;

fn new_device(policy: CrashPolicy) -> Arc<PmemDevice> {
    PmemBuilder::new(DEVICE_BYTES)
        .track_persistence(true)
        .crash_policy(policy)
        .build()
}

/// Strict mode at the default (8 MiB) operation-log size, daemon off so
/// the fence sequence of a run is a function of the calls alone.
fn strict_config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB)
        .without_daemon()
}

/// Mount plus replay of instance 0's log: the recovery the benchmark's
/// `crash_recover` op times.
fn mount_and_recover(
    device: &Arc<PmemDevice>,
    config: &SplitConfig,
) -> (Arc<Ext4Dax>, splitfs::RecoveryReport) {
    let kernel = Ext4Dax::mount(Arc::clone(device)).expect("mount");
    let report = recover(&kernel, config).expect("oplog replay");
    (kernel, report)
}

struct RecoveryCost {
    replayed: usize,
    bytes_written: u64,
    sim_ns: f64,
}

/// 100 strict 1 KiB appends, a crash, and what mount + replay then cost
/// on a stack whose operation log is `oplog_size` bytes.
fn recovery_cost(oplog_size: u64) -> RecoveryCost {
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config().with_oplog_size(oplog_size);
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let fd = fs.open("/wal.log", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 0..100u8 {
        let record = [i; 1024];
        fs.append(fd, &record).unwrap();
        expected.extend_from_slice(&record);
    }
    drop(fs);
    device.crash();

    let before = device.stats().snapshot();
    let t0 = device.clock().now_ns_f64();
    let (kernel, report) = mount_and_recover(&device, &config);
    let sim_ns = device.clock().now_ns_f64() - t0;
    let delta = device.stats().snapshot().delta(&before);
    assert_eq!(
        kernel.read_file("/wal.log").unwrap(),
        expected,
        "every acknowledged append survives ({oplog_size} B log)"
    );
    RecoveryCost {
        replayed: report.replayed,
        bytes_written: delta.bytes_written.iter().sum(),
        sim_ns,
    }
}

#[test]
fn recovery_cost_does_not_depend_on_log_size() {
    let small = recovery_cost(64 * 1024);
    let default = recovery_cost(strict_config().oplog_size);
    assert_eq!(strict_config().oplog_size, 8 * MIB, "the default log");
    assert!(small.replayed > 0);
    assert_eq!(small.replayed, default.replayed);
    let bytes = default.bytes_written as f64 / small.bytes_written as f64;
    assert!(
        (0.8..=1.25).contains(&bytes),
        "device bytes written by mount + recover: {} (64 KiB log) vs {} (8 MiB log)",
        small.bytes_written,
        default.bytes_written
    );
    let time = default.sim_ns / small.sim_ns;
    assert!(
        (0.9..=1.1).contains(&time),
        "simulated mount + recover: {:.0} ns (64 KiB log) vs {:.0} ns (8 MiB log)",
        small.sim_ns,
        default.sim_ns
    );
}

/// Offset of the first non-zero byte, if any.
fn first_nonzero(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b != 0)
}

/// Mounts and recovers `device` and checks what each reset leaves: the
/// journal area is all-zero once mount returns, and once the replay
/// returns the operation log holds no live entry — every slot outside the
/// reserved ones is zero, torn, or at or below its region's watermark —
/// and its chunk map is clear.
fn assert_logs_retired_after_recovery(device: &Arc<PmemDevice>, config: &SplitConfig, what: &str) {
    let kernel = Ext4Dax::mount(Arc::clone(device)).expect("mount");
    let mut block = vec![0u8; BLOCK_SIZE];
    device.read_uncharged(0, &mut block);
    let sb = Superblock::from_block(&block).unwrap();
    let mut journal = vec![0u8; (sb.journal_blocks * BLOCK_SIZE as u64) as usize];
    device.read_uncharged(sb.journal_start * BLOCK_SIZE as u64, &mut journal);
    assert_eq!(
        first_nonzero(&journal),
        None,
        "{what}: journal byte left non-zero by mount"
    );

    recover(&kernel, config).expect("oplog replay");
    let log = kernel.read_file(OPLOG_PATH).unwrap();
    assert_eq!(log.len() as u64, config.oplog_size);
    let map = MAP_OFFSET as usize..(MAP_OFFSET + ENTRY_SIZE) as usize;
    assert_eq!(first_nonzero(&log[map]), None, "{what}: chunk map left set");
    let log_fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
    let mapping = kernel.dax_map(log_fd, 0, config.oplog_size, false).unwrap();
    let retired = Watermarks::read(device, &mapping).expect("a watermark record");
    kernel.close(log_fd).unwrap();
    for (at, slot) in (0..).step_by(ENTRY_SIZE as usize).zip(log.chunks_exact(64)) {
        if is_reserved(at) {
            continue;
        }
        assert!(
            LogEntry::decode(slot).is_none_or(|entry| retired.retires(&entry)),
            "{what}: live oplog entry at {at} left by recovery"
        );
    }
}

#[test]
fn logs_hold_nothing_live_after_recovery() {
    for policy in [
        CrashPolicy::LoseUnflushed,
        CrashPolicy::KeepAll,
        CrashPolicy::TornWrites { seed: 0x7EA2 },
    ] {
        let device = new_device(policy);
        // Every crash image is recovered on this second device, from
        // inside the fence hook, so no image outlives its check.
        let scratch = new_device(CrashPolicy::LoseUnflushed);
        let config = strict_config();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, config.clone()).unwrap();
        let a = fs.open("/a.db", OpenFlags::create()).unwrap();
        for i in 0..6u8 {
            fs.append(a, &[i; 1024]).unwrap();
        }
        fs.fsync(a).unwrap();

        // From here on, power fails at every fence boundary: the journal
        // commits, in-place updates and oplog appends below are each cut
        // before they become durable — lost, kept or torn by the policy.
        let points = Arc::new(AtomicU64::new(0));
        let torn = Arc::new(AtomicU64::new(0));
        {
            let (scratch, config) = (Arc::clone(&scratch), config.clone());
            let (points, torn) = (Arc::clone(&points), Arc::clone(&torn));
            device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
                let image = dev.capture_crash_image();
                torn.fetch_add(image.torn_lines(), Ordering::Relaxed);
                scratch.restore_crash_image(&image);
                drop(image);
                assert_logs_retired_after_recovery(
                    &scratch,
                    &config,
                    &format!("{policy:?}, before fence {ordinal}"),
                );
                points.fetch_add(1, Ordering::Relaxed);
            })));
        }
        let b = fs.open("/b.db", OpenFlags::create()).unwrap();
        fs.append(b, &[0xB0; 1024]).unwrap();
        fs.append(a, &[0xA0; 3000]).unwrap();
        fs.fsync(b).unwrap();
        fs.rename("/b.db", "/c.db").unwrap();
        fs.append(a, &[0xA1; 64]).unwrap();
        device.set_fence_hook(None);
        assert!(points.load(Ordering::Relaxed) >= 10, "{policy:?}");
        if matches!(policy, CrashPolicy::TornWrites { .. }) {
            assert!(torn.load(Ordering::Relaxed) > 0, "no line was ever torn");
        }

        drop(fs);
        device.crash();
        assert_logs_retired_after_recovery(&device, &config, &format!("{policy:?}, at the end"));
    }
}

/// The files the idempotence test acknowledges, with their contents.
fn acknowledged_workload(fs: &Arc<SplitFs>) -> Vec<(&'static str, Vec<u8>)> {
    let mut expected = Vec::new();
    for (path, fill, synced) in [("/synced.db", 0x10u8, 2), ("/staged.db", 0x50u8, 0)] {
        let fd = fs.open(path, OpenFlags::create()).unwrap();
        let mut content = Vec::new();
        for i in 0..4u8 {
            let record = vec![fill + i; 1024 + 512 * i as usize];
            fs.append(fd, &record).unwrap();
            content.extend_from_slice(&record);
            if i + 1 == synced {
                fs.fsync(fd).unwrap();
            }
        }
        expected.push((path, content));
    }
    expected
}

/// A second acknowledged workload, large enough that its replay takes
/// several relink calls: 240 appends alternating 4 KiB and 1.5 KiB over
/// four files, so most land off a block boundary, and one early fsync.
fn interleaved_workload(fs: &Arc<SplitFs>) -> Vec<(&'static str, Vec<u8>)> {
    let paths = ["/i0.db", "/i1.db", "/i2.db", "/i3.db"];
    let fds: Vec<_> = paths
        .iter()
        .map(|path| fs.open(path, OpenFlags::create()).unwrap())
        .collect();
    let mut contents = vec![Vec::new(); paths.len()];
    for i in 0..240usize {
        let file = i % paths.len();
        let len = [4096, 1536][(i / paths.len()) % 2];
        let record = vec![(i % 251) as u8 + 1; len];
        fs.append(fds[file], &record).unwrap();
        contents[file].extend_from_slice(&record);
        if i == 9 {
            fs.fsync(fds[0]).unwrap();
        }
    }
    paths.into_iter().zip(contents).collect()
}

/// The whole restart of a crashed stack: mount, replay, new instance.
fn restart(device: &Arc<PmemDevice>, config: &SplitConfig) -> Arc<SplitFs> {
    let (kernel, _) = mount_and_recover(device, config);
    SplitFs::new(kernel, config.clone()).expect("restart U-Split")
}

#[test]
fn recovery_is_idempotent_under_its_own_crash() {
    for workload in [acknowledged_workload, interleaved_workload] {
        let device = new_device(CrashPolicy::LoseUnflushed);
        let config = strict_config();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, config.clone()).unwrap();
        let expected = workload(&fs);
        drop(fs);
        device.crash();
        let crashed = device.capture_crash_image();

        // How many fences one uninterrupted restart issues.
        let start = device.fence_ordinal();
        drop(restart(&device, &config));
        let fences = device.fence_ordinal() - start;
        assert!(fences >= 10, "a restart fences {fences} times");

        // Cut the restart before each of them in turn, then restart again
        // from what that cut left on the media.
        let mut points = 0;
        for k in 0..fences {
            device.restore_crash_image(&crashed);
            let target = device.fence_ordinal() + k;
            let cut = Arc::new(parking_lot::Mutex::new(None));
            {
                let cut = Arc::clone(&cut);
                device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
                    if ordinal == target {
                        *cut.lock() = Some(dev.capture_crash_image());
                    }
                })));
            }
            drop(restart(&device, &config));
            device.set_fence_hook(None);
            let Some(image) = cut.lock().take() else {
                continue;
            };
            device.restore_crash_image(&image);
            drop(image);

            let fs = restart(&device, &config);
            for (path, content) in &expected {
                assert_eq!(
                    &fs.read_file(path).unwrap(),
                    content,
                    "{path} after a crash before restart fence {k}"
                );
            }
            drop(fs);
            let kernel = Ext4Dax::mount(Arc::clone(&device)).unwrap();
            let dirty = kernel.check_namespace();
            assert!(
                dirty.is_empty(),
                "namespace after a crash before restart fence {k}: {dirty:?}"
            );
            points += 1;
        }
        assert!(points >= 10, "only {points} crash points were reached");
    }
}

struct RestartCost {
    /// Software time less page-fault charges, ns.
    software_ns: f64,
    log_bytes_read: u64,
}

/// The same acknowledged workload, a crash and `recover` on a stack whose
/// operation log is `oplog_size` bytes, then what the instance's start
/// over the cleared log costs.
fn restart_cost(oplog_size: u64) -> RestartCost {
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config().with_oplog_size(oplog_size);
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let expected = acknowledged_workload(&fs);
    drop(fs);
    device.crash();
    let (kernel, report) = mount_and_recover(&device, &config);
    assert!(report.replayed > 0);

    let before = device.stats().snapshot();
    let fs = SplitFs::new(kernel, config).expect("restart U-Split");
    let delta = device.stats().snapshot().delta(&before);
    for (path, content) in &expected {
        assert_eq!(&fs.read_file(path).unwrap(), content, "{path}");
    }
    let cost = device.cost();
    let faults = delta.page_faults as f64 * cost.page_fault_4k_ns
        + delta.huge_page_faults as f64 * cost.page_fault_2m_ns;
    RestartCost {
        software_ns: delta.time(TimeCategory::Software) - faults,
        log_bytes_read: delta.bytes_read[TimeCategory::OpLog.index_in_all()],
    }
}

#[test]
fn a_restart_over_a_recovered_log_reads_one_block() {
    // The start replays its log again before it builds an `OpLog` over
    // it, here the file `recover` has just cleared.  The scan charges its
    // reads as software time; the rest of a start does not depend on the
    // log's size once page faults are set aside.
    let small = restart_cost(64 * 1024);
    let default = restart_cost(strict_config().oplog_size);
    let block = new_device(CrashPolicy::LoseUnflushed)
        .cost()
        .pm_read_cost(BLOCK_SIZE, true);
    assert!(
        default.software_ns - small.software_ns <= 2.0 * block,
        "a start over a cleared 8 MiB log charged {:.0} ns more than over a \
         64 KiB one; two 4 KiB reads cost {:.0} ns",
        default.software_ns - small.software_ns,
        2.0 * block
    );
    assert!(
        default.log_bytes_read <= 2 * BLOCK_SIZE as u64,
        "{} B of log read",
        default.log_bytes_read
    );
}

#[test]
fn a_media_error_in_replay_fails_closed_and_a_retry_replays_everything() {
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let expected = acknowledged_workload(&fs);
    drop(fs);
    device.crash();
    let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");

    // Poison the first byte of the newest staged write: nothing was ever
    // fsynced after it, so replay has to read it.
    let scan_log = || {
        let log_fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
        let mapping = kernel.dax_map(log_fd, 0, config.oplog_size, false).unwrap();
        let entries = OpLog::scan(&device, &mapping, config.oplog_size);
        kernel.close(log_fd).unwrap();
        entries
    };
    let logged = scan_log();
    let newest = logged
        .iter()
        .rev()
        .find(|e| e.op == LogOp::StagedWrite)
        .expect("a staged write");
    let staging_fd = kernel
        .open_by_ino(newest.staging_ino, OpenFlags::read_only())
        .unwrap();
    let staged = kernel
        .dax_map(staging_fd, newest.staging_offset, newest.len, false)
        .unwrap();
    let (dev_off, _) = staged.translate(newest.staging_offset).unwrap();
    kernel.close(staging_fd).unwrap();
    device.poison_range(dev_off, 1);

    // Descriptors are numbered in order: every one recovery opened lies
    // between two probes.
    let probe = || {
        let fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
        kernel.close(fd).unwrap();
        fd
    };
    let first = probe();
    assert!(
        recover(&kernel, &config).is_err(),
        "the media error surfaces"
    );
    let last = probe();
    assert!(last > first + 1, "recovery opened descriptors");
    for fd in first + 1..last {
        assert!(kernel.fd_ino(fd).is_err(), "recovery left fd {fd} open");
    }
    assert_eq!(
        scan_log(),
        logged,
        "the failed recovery left the log as it was"
    );

    device.clear_poison();
    let report = recover(&kernel, &config).expect("oplog replay");
    assert!(report.replayed > 0);
    for (path, content) in &expected {
        assert_eq!(&kernel.read_file(path).unwrap(), content, "{path}");
    }
    assert!(scan_log().is_empty(), "the retry cleared the log");
}

#[test]
fn replay_moves_aligned_staged_blocks_instead_of_copying_them() {
    // Replay retires staged writes the way fsync does: aligned blocks move
    // through the relink ioctl, 64 ops per call, and no byte is copied.
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let fd = fs.open("/aligned.db", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 0..100u8 {
        let record = [i + 1; BLOCK_SIZE];
        fs.append(fd, &record).unwrap();
        expected.extend_from_slice(&record);
    }
    drop(fs);
    device.crash();

    let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
    let before = device.stats().snapshot();
    let report = recover(&kernel, &config).expect("oplog replay");
    let delta = device.stats().snapshot().delta(&before);
    assert_eq!(report.replayed, 100);
    assert_eq!(delta.batched_relinks, 2, "100 moves in calls of 64");
    assert_eq!(delta.relink_batch_ops, 100, "every staged block moves");
    assert_eq!(
        delta.bytes_written[TimeCategory::UserData.index_in_all()],
        0,
        "no staged byte is copied"
    );
    assert_eq!(delta.fsync_many_calls, 0);
    assert!(kernel.read_file("/aligned.db").unwrap() == expected);
}

#[test]
fn replay_copies_only_the_bytes_the_staging_file_still_holds() {
    // Regression: when the staging file is shorter than a logged range,
    // `read_at` stops at its end of file and replay must write what was
    // read — not pad the target with a zero tail that was never staged.
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let fd = fs.open("/short.db", OpenFlags::create()).unwrap();
    let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8 + 1).collect();
    fs.append(fd, &payload).unwrap();

    let log_fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
    let mapping = kernel.dax_map(log_fd, 0, config.oplog_size, false).unwrap();
    let entries = OpLog::scan(&device, &mapping, config.oplog_size);
    kernel.close(log_fd).unwrap();
    let staged: Vec<_> = entries
        .iter()
        .filter(|e| e.op == LogOp::StagedWrite)
        .collect();
    assert_eq!(staged.len(), 1);
    assert_eq!(staged[0].len, 3000);
    let staging_fd = kernel
        .open_by_ino(staged[0].staging_ino, OpenFlags::read_write())
        .unwrap();
    kernel
        .ftruncate(staging_fd, staged[0].staging_offset + 1000)
        .unwrap();
    kernel.close(staging_fd).unwrap();
    drop(fs);
    drop(kernel);
    device.crash();

    let (kernel, report) = mount_and_recover(&device, &config);
    assert_eq!(report.replayed, 1);
    let recovered = kernel.read_file("/short.db").unwrap();
    assert_eq!(recovered.len(), 1000, "no zero tail past the staged bytes");
    assert!(recovered == payload[..1000], "the staged bytes themselves");
}

#[test]
fn replay_reads_each_staging_file_once_not_each_entry() {
    // Replay learns which staged bytes a relink already moved from one
    // extent read per staging file, not from a kernel probe per entry.
    // 100 entries in one staging file cost 12 traps: finding, opening,
    // sizing, mapping and closing the log, opening and closing the
    // staging file and the target, one extent read and two relink
    // ioctls.  A probe per entry takes 112.
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = strict_config();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let fd = fs.open("/wal.log", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 0..100u8 {
        let record = [i; 1024];
        fs.append(fd, &record).unwrap();
        expected.extend_from_slice(&record);
    }
    drop(fs);
    device.crash();

    let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
    let before = device.stats().snapshot();
    let report = recover(&kernel, &config).expect("oplog replay");
    let traps = device.stats().snapshot().delta(&before).kernel_traps;
    assert_eq!(report.replayed, 100);
    assert!(traps <= 15, "replaying 100 entries took {traps} traps");
    assert!(kernel.read_file("/wal.log").unwrap() == expected);
}

/// The five callers of the relink pipeline.
#[derive(Clone, Copy, Debug)]
enum Relink {
    Fsync,
    FsyncMany,
    Close,
    Checkpoint,
    Daemon,
}

/// The two changes that bypass the log once staged bytes are relinked.
#[derive(Clone, Copy, Debug)]
enum Unlogged {
    /// 100 B of 0xEE at the offset, in place in sync mode.
    Overwrite,
    /// `ftruncate` to the offset.
    Cut,
}

/// `mode`, daemon off, a 4 KiB log: `appends` appends of 100 B (append
/// `i` holds byte `i`, from 1), a relink by `how`, the `change` at `at`,
/// then a crash, mount and replay.  Returns what `/f` should hold, what
/// it holds, and how many entries replay put back.
fn change_after_relink(
    mode: Mode,
    appends: u8,
    how: Relink,
    change: Unlogged,
    at: u64,
) -> (Vec<u8>, Vec<u8>, usize) {
    let device = new_device(CrashPolicy::LoseUnflushed);
    let config = SplitConfig::new(mode)
        .with_staging(2, 4 * MIB)
        .with_oplog_size(4 * 1024)
        .without_daemon();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let mut fd = fs.open("/f", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 1..=appends {
        fs.append(fd, &[i; 100]).unwrap();
        expected.extend_from_slice(&[i; 100]);
    }
    match how {
        Relink::Fsync => fs.fsync(fd).unwrap(),
        Relink::FsyncMany => fs.fsync_many(&[fd]).unwrap(),
        Relink::Close => {
            fs.close(fd).unwrap();
            fd = fs.open("/f", OpenFlags::read_write()).unwrap();
        }
        Relink::Checkpoint => fs.checkpoint().unwrap(),
        Relink::Daemon => fs.background_relink(fs.fstat(fd).unwrap().ino),
    }
    let at_usize = at as usize;
    match change {
        Unlogged::Overwrite => {
            fs.write_at(fd, at, &[0xEE; 100]).unwrap();
            expected[at_usize..at_usize + 100].fill(0xEE);
        }
        Unlogged::Cut => {
            fs.ftruncate(fd, at).unwrap();
            expected.truncate(at_usize);
        }
    }
    drop(fs);
    device.crash();

    let (kernel, report) = mount_and_recover(&device, &config);
    (expected, kernel.read_file("/f").unwrap(), report.replayed)
}

#[test]
fn replay_never_undoes_a_change_that_bypassed_the_log_after_a_relink() {
    // A relink's `Invalidate` marker tells replay that the staged entries
    // it covers are applied.  Sync mode overwrites committed bytes in
    // place without logging them, and a cut is logged in no mode: if the
    // marker were lost, replay would put the older staged bytes back —
    // a copied partial block keeps its staging range mapped.  32 appends
    // fill the active half of a 4 KiB log, so the relink's marker finds
    // it full; 61 fill both halves with the sealed one pending, and the
    // partial block the relink copied starts at 4096.
    let mut lost = Vec::new();
    for mode in [Mode::Sync, Mode::Strict] {
        for (appends, at) in [(32, 0), (61, 6000)] {
            for how in [
                Relink::Fsync,
                Relink::FsyncMany,
                Relink::Close,
                Relink::Checkpoint,
                Relink::Daemon,
            ] {
                for change in [Unlogged::Overwrite, Unlogged::Cut] {
                    let (expected, got, replayed) =
                        change_after_relink(mode, appends, how, change, at);
                    if got != expected {
                        let byte = got.get(at as usize).copied();
                        lost.push(format!(
                            "{mode:?}, {appends} appends, {how:?}, {change:?} at {at}: \
                             {} bytes (want {}), byte {at} reads {byte:x?}, replayed {replayed}",
                            got.len(),
                            expected.len()
                        ));
                    }
                }
            }
        }
    }
    assert!(lost.is_empty(), "replay undid a returned change: {lost:#?}");
}
