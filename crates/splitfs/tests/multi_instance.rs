//! Multi-instance U-Split over one kernel file system.
//!
//! The invariants under test:
//!
//! * N concurrent [`SplitFs`] instances over one [`Ext4Dax`] claim
//!   distinct instance ids, and so disjoint staging directories and
//!   operation-log files;
//! * an instance crashing — even **mid-relink** — never disturbs another
//!   instance, and per-instance recovery restores the crashed instance's
//!   files while the survivor keeps appending;
//! * a whole-device crash recovers every instance's log independently,
//!   found by its log file alone, and concurrent starts replay each log
//!   once;
//! * entries tagged with another instance's id never replay
//!   (cross-contamination guard).

use std::sync::{Arc, Barrier};

use chaos::Recovered;
use kernelfs::{Ext4Dax, RelinkOp, BLOCK_SIZE};
use pmem::{PmemBuilder, PmemDevice};
use splitfs::oplog::{LogEntry, LogOp, OpLog};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, OpenFlags};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(512 * 1024 * 1024).build()
}

fn strict_config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(256 * 1024)
        .without_daemon()
}

/// Scans one instance's operation log through the kernel and returns its
/// staged-write entries.
fn staged_entries(kernel: &Arc<Ext4Dax>, instance_id: u32) -> Vec<LogEntry> {
    let path = kernelfs::lease::oplog_path(instance_id);
    let log_fd = kernel.open(&path, OpenFlags::read_only()).unwrap();
    let log_size = kernel.fstat(log_fd).unwrap().size;
    let mapping = kernel.dax_map(log_fd, 0, log_size, false).unwrap();
    let entries = OpLog::scan(kernel.device(), &mapping, log_size);
    kernel.close(log_fd).unwrap();
    entries
        .into_iter()
        .filter(|e| e.op == LogOp::StagedWrite)
        .collect()
}

/// Relinks exactly the first `count` staged entries of an instance's log
/// at the kernel level — the deterministic stand-in for a crash landing
/// mid-way through a relink sweep.
fn relink_first_entries(kernel: &Arc<Ext4Dax>, instance_id: u32, count: usize) {
    let entries = staged_entries(kernel, instance_id);
    assert!(
        entries.len() > count,
        "need more than {count} staged entries to emulate a partial relink"
    );
    let mut fds = Vec::new();
    let mut ops = Vec::new();
    for entry in entries.iter().take(count) {
        let src_fd = kernel
            .open_by_ino(entry.staging_ino, OpenFlags::read_write())
            .unwrap();
        let dst_fd = kernel
            .open_by_ino(entry.target_ino, OpenFlags::read_write())
            .unwrap();
        fds.push(src_fd);
        fds.push(dst_fd);
        ops.push(RelinkOp {
            src_fd,
            src_offset: entry.staging_offset,
            dst_fd,
            dst_offset: entry.target_offset,
            len: entry.len,
        });
    }
    let sizes = kernel.ioctl_relink_batch(&ops, &[]).unwrap();
    for op in &ops {
        let size = sizes.iter().find(|&&(fd, _)| fd == op.dst_fd).unwrap().1;
        assert!(size >= op.dst_offset + op.len, "{op:?} against size {size}");
    }
    for fd in fds {
        kernel.close(fd).unwrap();
    }
}

#[test]
fn concurrent_instances_lease_disjoint_resources() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let a = SplitFs::new(Arc::clone(&kernel), strict_config()).unwrap();
    let b = SplitFs::new(Arc::clone(&kernel), strict_config()).unwrap();

    assert_eq!(a.instance_id(), 0);
    assert_eq!(b.instance_id(), 1);
    assert_ne!(a.staging_dir(), b.staging_dir());
    assert_ne!(a.oplog_file(), b.oplog_file());

    // Both instances append and fsync concurrently-visible files.
    let fa = a.open("/a.log", OpenFlags::create()).unwrap();
    let fb = b.open("/b.log", OpenFlags::create()).unwrap();
    let pa = vec![0xAAu8; 3 * BLOCK_SIZE];
    let pb = vec![0xBBu8; 3 * BLOCK_SIZE];
    a.append(fa, &pa).unwrap();
    b.append(fb, &pb).unwrap();
    a.fsync(fa).unwrap();
    b.fsync(fb).unwrap();
    assert_eq!(a.read_file("/a.log").unwrap(), pa);
    assert_eq!(b.read_file("/b.log").unwrap(), pb);

    // A third instance takes the next free id; clean drops return all
    // three, and the lowest is handed out again.
    let c = SplitFs::new(Arc::clone(&kernel), strict_config()).unwrap();
    assert_eq!(c.instance_id(), 2);
    drop(a);
    drop(b);
    drop(c);
    let d = SplitFs::new(Arc::clone(&kernel), strict_config()).unwrap();
    assert_eq!(d.instance_id(), 0);
}

#[test]
fn instance_crash_mid_relink_recovers_while_other_keeps_appending() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let b = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let a_id = a.instance_id();

    // A stages four block-aligned appends (never fsynced: everything
    // lives in staging files plus A's log).
    let fa = a.open("/a.db", OpenFlags::create()).unwrap();
    let mut expected_a = Vec::new();
    for i in 0..4u8 {
        let block = vec![0x10 + i; BLOCK_SIZE];
        a.append(fa, &block).unwrap();
        expected_a.extend_from_slice(&block);
    }

    // B starts its own append stream.
    let fb = b.open("/b.db", OpenFlags::create()).unwrap();
    let mut expected_b = Vec::new();
    for i in 0..4u8 {
        let block = vec![0x80 + i; BLOCK_SIZE];
        b.append(fb, &block).unwrap();
        expected_b.extend_from_slice(&block);
    }

    // A crashes MID-RELINK: the first two staged entries were already
    // moved by the kernel (journaled, atomic), the rest were not, and no
    // Invalidate marker or log truncation ever happened.
    relink_first_entries(&kernel, a_id, 2);
    drop(a);

    // B keeps appending and fsyncing while A lies dead — a live instance
    // is never disturbed by another's crash.
    for i in 4..8u8 {
        let block = vec![0x80 + i; BLOCK_SIZE];
        b.append(fb, &block).unwrap();
        expected_b.extend_from_slice(&block);
    }
    b.fsync(fb).unwrap();

    // Per-instance recovery replays A's log: the relinked prefix is
    // recognized as applied (holes), the rest replays.  B is untouched.
    let mut rec = Recovered::attach(Arc::clone(&kernel));
    rec.recover_orphans(&config).unwrap();
    assert_eq!(rec.recovered_orphan_ids(), vec![a_id]);
    let report = *rec.report(a_id).unwrap();
    assert!(report.already_applied >= 2, "{report:?}");
    assert!(report.replayed >= 2, "{report:?}");
    rec.assert_clean();
    assert_eq!(kernel.read_file("/a.db").unwrap(), expected_a);

    // B's view and the kernel's agree, with no contamination from A's
    // replay.
    assert_eq!(b.read_file("/b.db").unwrap(), expected_b);
    b.close(fb).unwrap();
    assert_eq!(kernel.read_file("/b.db").unwrap(), expected_b);

    // A's id is free again, and a fresh instance starts clean on it.
    let a2 = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    assert_eq!(a2.instance_id(), a_id);
    assert_eq!(a2.read_file("/a.db").unwrap(), expected_a);
    assert_eq!(a2.oplog_entries(), 0);
    let snap = device.stats().snapshot();
    assert_eq!(snap.instances_recovered, 1, "{snap:?}");
}

#[test]
fn full_device_crash_recovers_every_instance_independently() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let b = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    let fa = a.open("/a.db", OpenFlags::create()).unwrap();
    let fb = b.open("/b.db", OpenFlags::create()).unwrap();
    let pa: Vec<u8> = (0..3 * BLOCK_SIZE as u32)
        .map(|i| (i % 251) as u8)
        .collect();
    let pb: Vec<u8> = (0..2 * BLOCK_SIZE as u32)
        .map(|i| (i % 239) as u8)
        .collect();
    a.append(fa, &pa).unwrap();
    b.append(fb, &pb).unwrap();
    // No fsync, no close: both instances' data exists only in staging
    // files plus their private logs.  The machine dies with both.
    drop(a);
    drop(b);
    device.crash();

    // The log files alone name the instances to recover.
    let mut rec = Recovered::mount(&device).unwrap();
    rec.recover_orphans(&config).unwrap();
    assert_eq!(rec.recovered_orphan_ids(), vec![0, 1]);
    for (_, report) in &rec.orphan_reports {
        assert!(report.replayed >= 1, "{report:?}");
    }
    rec.assert_clean();
    let kernel2 = Arc::clone(&rec.kernel);
    assert_eq!(kernel2.read_file("/a.db").unwrap(), pa);
    assert_eq!(kernel2.read_file("/b.db").unwrap(), pb);

    // The next mount starts with a clean slate and reuses the ids.
    let fresh = SplitFs::new(Arc::clone(&kernel2), config).unwrap();
    assert_eq!(fresh.instance_id(), 0);
    assert_eq!(fresh.read_file("/a.db").unwrap(), pa);
}

#[test]
fn foreign_tagged_entries_are_never_replayed() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let a_id = a.instance_id();

    let fa = a.open("/a.db", OpenFlags::create()).unwrap();
    let payload = vec![0x42u8; BLOCK_SIZE];
    a.append(fa, &payload).unwrap();

    // Forge an entry in A's log tagged with another instance's id: a
    // checksum-valid copy of A's staged write, pointing one block past
    // the real append.  If replay ignored the tag, /a.db would grow a
    // garbage block.
    let real = staged_entries(&kernel, a_id);
    assert_eq!(real.len(), 1);
    let mut forged = real[0];
    forged.instance_id = a_id + 7;
    forged.target_offset = real[0].target_offset + BLOCK_SIZE as u64;
    forged.seq = real[0].seq + 1;
    let path = kernelfs::lease::oplog_path(a_id);
    let log_fd = kernel.open(&path, OpenFlags::read_write()).unwrap();
    let log_size = kernel.fstat(log_fd).unwrap().size;
    let mapping = kernel.dax_map(log_fd, 0, log_size, false).unwrap();
    // The real entry occupies slot 0 of the active epoch; slot 1 is free.
    let slot_off = {
        let entries = OpLog::scan(kernel.device(), &mapping, log_size);
        entries.len() as u64 * 64
    };
    let (dev_off, _) = mapping.translate(slot_off).unwrap();
    device.write(
        dev_off,
        &forged.encode(),
        pmem::PersistMode::NonTemporal,
        pmem::TimeCategory::OpLog,
    );
    device.fence(pmem::TimeCategory::OpLog);
    kernel.close(log_fd).unwrap();

    drop(a);
    device.crash();

    let mut rec = Recovered::mount(&device).unwrap();
    let report = *rec.recover_instance(&config, a_id).unwrap();
    assert_eq!(
        report.foreign, 1,
        "the forged entry is rejected: {report:?}"
    );
    assert_eq!(report.replayed, 1, "the genuine entry replays: {report:?}");
    // assert_clean would trip on the *deliberately* foreign entry; the
    // containment claim here is the inverse — it was counted and skipped
    // — so only the fsck half applies.
    assert!(rec.fsck().is_empty(), "{:?}", rec.fsck());
    assert_eq!(
        rec.kernel.read_file("/a.db").unwrap(),
        payload,
        "the foreign entry must not extend the file"
    );
}

/// A crashed instance's id is reused only once its log is replayed: the
/// next start claims the id and replays the log as its own before it logs
/// anything.
#[test]
fn orphaned_ids_are_not_reused_before_recovery() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();

    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    assert_eq!(a.instance_id(), 0);
    let fa = a.open("/a.db", OpenFlags::create()).unwrap();
    let block = vec![0x3Cu8; BLOCK_SIZE];
    a.append(fa, &block).unwrap();
    // A dies with its append staged and logged, never relinked.
    drop(a);
    assert_eq!(staged_entries(&kernel, 0).len(), 1);
    assert!(kernel.read_file("/a.db").unwrap().is_empty());

    let b = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    assert_eq!(b.instance_id(), 0, "the id is free once its owner is gone");
    let replayed: Vec<(u32, usize)> = b
        .recovered_logs()
        .iter()
        .map(|(id, report)| (*id, report.replayed))
        .collect();
    assert_eq!(replayed, vec![(0, 1)], "A's log replayed as B's own");
    assert_eq!(kernel.read_file("/a.db").unwrap(), block);
    assert_eq!(b.oplog_entries(), 0, "B starts on an empty log");
    assert!(staged_entries(&kernel, 0).is_empty());
}

/// An instance that goes away — shut down or crashed, a `Drop` either way
/// — leaves its log unclaimed, and the next start replays it, even when a
/// different instance's id is the one that start takes.
#[test]
fn a_gone_instances_log_is_replayed_by_the_next_start() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let b = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    assert_eq!((b.instance_id(), a.instance_id()), (0, 1));

    let fa = a.open("/a.db", OpenFlags::create()).unwrap();
    let pa: Vec<u8> = (0..2 * BLOCK_SIZE as u32)
        .map(|i| (i % 233) as u8)
        .collect();
    a.append(fa, &pa).unwrap();
    // No fsync, no close: A's bytes live in its staging files and its log.
    drop(a);

    let fb = b.open("/b.db", OpenFlags::create()).unwrap();
    let pb = vec![0xB0u8; BLOCK_SIZE];
    b.append(fb, &pb).unwrap();
    drop(b);
    device.crash();

    let kernel = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let fresh = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    assert_eq!(fresh.instance_id(), 0);
    assert_eq!(kernel.read_file("/a.db").unwrap(), pa, "A's appends");
    assert_eq!(kernel.read_file("/b.db").unwrap(), pb, "B's appends");
    assert!(Recovered::attach(kernel).fsck().is_empty());
}

/// Four starts racing over four crashed logs: each log replays once, and
/// every acknowledged append lands in its file.
#[test]
fn concurrent_starts_replay_each_crashed_log_once() {
    const INSTANCES: usize = 4;
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let instances: Vec<_> = (0..INSTANCES)
        .map(|_| SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap())
        .collect();
    let mut expected = Vec::new();
    for (i, fs) in instances.iter().enumerate() {
        let path = format!("/f{i}.db");
        let fd = fs.open(&path, OpenFlags::create()).unwrap();
        let mut bytes = Vec::new();
        for k in 0..=i as u8 {
            let block = vec![(i as u8) << 4 | k; BLOCK_SIZE];
            fs.append(fd, &block).unwrap();
            bytes.extend_from_slice(&block);
        }
        expected.push((path, bytes));
    }
    let logged: usize = (0..INSTANCES as u32)
        .map(|id| staged_entries(&kernel, id).len())
        .sum();
    assert_eq!(logged, 1 + 2 + 3 + 4);
    drop(instances);
    device.crash();

    let kernel = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let barrier = Barrier::new(INSTANCES);
    let started: Vec<Arc<SplitFs>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..INSTANCES)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut ids: Vec<u32> = started.iter().map(|fs| fs.instance_id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), INSTANCES, "live ids are unique");
    let replayed: usize = started
        .iter()
        .flat_map(|fs| fs.recovered_logs())
        .map(|(_, report)| report.replayed)
        .sum();
    assert_eq!(replayed, logged, "each logged write replays exactly once");
    for (path, bytes) in &expected {
        assert_eq!(&kernel.read_file(path).unwrap(), bytes, "{path}");
    }
}
