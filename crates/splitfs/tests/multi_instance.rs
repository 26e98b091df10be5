//! Multi-instance U-Split over one kernel file system.
//!
//! The invariants under test:
//!
//! * N concurrent [`SplitFs`] instances over one [`Ext4Dax`] lease
//!   disjoint staging directories and operation-log files, with zero
//!   lease conflicts;
//! * an instance crashing — even **mid-relink** — never disturbs another
//!   instance, and per-instance recovery restores the crashed instance's
//!   files while the survivor keeps appending;
//! * a whole-device crash recovers every instance's log independently;
//! * entries tagged with another instance's id never replay
//!   (cross-contamination guard).

use std::sync::Arc;

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
    assert_eq!(kernel.lease_active_count(), 2);

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

    // Clean drops return both leases.
    drop(a);
    drop(b);
    assert_eq!(kernel.lease_active_count(), 0);
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
    a.abandon_lease_on_drop();
    drop(a);
    assert_eq!(kernel.lease_orphans(), vec![a_id]);

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

    // A's lease was released by recovery; the id is reusable and a fresh
    // instance starts clean on it.
    assert!(kernel.lease_orphans().is_empty());
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
    // files plus their private logs.  The machine dies with both leases
    // active.
    a.abandon_lease_on_drop();
    b.abandon_lease_on_drop();
    drop(a);
    drop(b);
    device.crash();

    let mut rec = Recovered::mount(&device).unwrap();
    let mut orphans = rec.kernel.lease_orphans();
    orphans.sort_unstable();
    assert_eq!(orphans, vec![0, 1], "both leases survive the crash");

    rec.recover_orphans(&config).unwrap();
    let mut recovered_ids = rec.recovered_orphan_ids();
    recovered_ids.sort_unstable();
    assert_eq!(recovered_ids, vec![0, 1]);
    for (_, report) in &rec.orphan_reports {
        assert!(report.replayed >= 1, "{report:?}");
    }
    rec.assert_clean();
    let kernel2 = Arc::clone(&rec.kernel);
    assert_eq!(kernel2.read_file("/a.db").unwrap(), pa);
    assert_eq!(kernel2.read_file("/b.db").unwrap(), pb);
    assert_eq!(kernel2.lease_active_count(), 0);

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

    a.abandon_lease_on_drop();
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

#[test]
fn orphaned_ids_are_not_reused_before_recovery() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Orphan recovery disabled: the crashed instance must stay orphaned
    // until this test recovers it explicitly.
    let config = strict_config().without_orphan_recovery();

    let a = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    assert_eq!(a.instance_id(), 0);
    a.abandon_lease_on_drop();
    drop(a);

    // The orphan blocks id 0; a new instance leases the next id.
    let b = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    assert_eq!(b.instance_id(), 1);
    assert_eq!(kernel.lease_orphans(), vec![0]);

    // Recovery releases the orphan; the id becomes reusable.
    let mut rec = Recovered::attach(Arc::clone(&kernel));
    rec.recover_orphans(&config).unwrap();
    assert_eq!(rec.recovered_orphan_ids(), vec![0]);
    let c = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    assert_eq!(c.instance_id(), 0);
}
