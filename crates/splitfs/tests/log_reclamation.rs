//! Giving operation-log space back costs a constant: retiring an epoch and
//! retiring what a recovery replayed each store one watermark record and
//! the chunk map, however many entries they retire.  Device bytes only,
//! so a shared runner cannot trip these: zeroing the retired slots writes
//! 64 B per entry.  A log that holds an instance's own entries and no
//! record at all was written under another format, and recovery refuses
//! it.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice, TimeCategory};
use splitfs::oplog::{LogEntry, LogOp, OpLog, CHUNK_SIZE, ENTRY_SIZE, MAP_OFFSET};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::{FileSystem, FsError, OpenFlags};

const MIB: u64 = 1024 * 1024;

/// The most operation-log bytes a retirement may write: three lines.
const BOUND: u64 = 3 * ENTRY_SIZE;

/// An operation log of `size` bytes in a file of a fresh K-Split.
fn oplog(size: u64) -> (Arc<PmemDevice>, OpLog) {
    let device = PmemBuilder::new(64 * MIB as usize)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fd = kernel.open("/log", OpenFlags::create()).unwrap();
    kernel.ftruncate(fd, size).unwrap();
    let mapping = kernel.dax_map(fd, 0, size, true).unwrap();
    OpLog::format(&device, &mapping, size);
    let oplog = OpLog::new(Arc::clone(&device), mapping, size).unwrap();
    (device, oplog)
}

/// Operation-log bytes written by retiring an epoch of `entries`.
fn epoch_retirement_bytes(entries: usize) -> u64 {
    let (device, oplog) = oplog(4 * MIB);
    let mut batch = vec![LogEntry::new(LogOp::StagedWrite, 0); 100];
    for _ in 0..entries / batch.len() {
        oplog.append_batch(&mut batch).unwrap();
    }
    assert_eq!(oplog.entries_used(), entries as u64);
    assert!(oplog.try_seal());
    let before = device.stats().snapshot();
    oplog.truncate_sealed();
    assert!(!oplog.sealed_pending());
    device
        .stats()
        .snapshot()
        .delta(&before)
        .written(TimeCategory::OpLog)
}

#[test]
fn retiring_an_epoch_of_100_entries_writes_three_lines_at_most() {
    let bytes = epoch_retirement_bytes(100);
    assert!(bytes <= BOUND, "{bytes} B of log written");
}

#[test]
fn retiring_an_epoch_of_10_000_entries_writes_three_lines_at_most() {
    let bytes = epoch_retirement_bytes(10_000);
    assert!(bytes <= BOUND, "{bytes} B of log written");
}

#[test]
fn recovering_a_2000_entry_log_writes_three_lines_of_it_at_most() {
    let device = PmemBuilder::new(64 * MIB as usize).build();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB)
        .without_daemon();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let fd = fs.open("/wal.log", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 0..2000u32 {
        let record = [(i % 251) as u8 + 1; 100];
        fs.append(fd, &record).unwrap();
        expected.extend_from_slice(&record);
    }
    drop(fs);
    device.crash();

    let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
    let before = device.stats().snapshot();
    let report = recover(&kernel, &config).expect("oplog replay");
    let bytes = device
        .stats()
        .snapshot()
        .delta(&before)
        .written(TimeCategory::OpLog);
    assert!(report.entries_scanned >= 2000, "{report:?}");
    assert!(
        kernel.read_file("/wal.log").unwrap() == expected,
        "every acknowledged append survives"
    );
    assert!(bytes <= BOUND, "{bytes} B of log written");
}

/// Instance 0's log holding three entries tagged `instance_id`, the first
/// chunk marked and no watermark record, as a file of recycled blocks may
/// hold one when power fails before [`OpLog::format`]'s fence.
fn recordless_log(instance_id: u32) -> (Arc<Ext4Dax>, SplitConfig) {
    let device = PmemBuilder::new(64 * MIB as usize).build();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB)
        .with_oplog_size(CHUNK_SIZE)
        .without_daemon();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    drop(SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap());
    let mut log = vec![0u8; CHUNK_SIZE as usize];
    log[MAP_OFFSET as usize] = 1;
    for (seq, slot) in (1..=3).zip(log.chunks_exact_mut(ENTRY_SIZE as usize)) {
        let entry = LogEntry {
            seq,
            ..LogEntry::new(LogOp::Invalidate, instance_id)
        };
        slot.copy_from_slice(&entry.encode());
    }
    kernel.write_file(OPLOG_PATH, &log).unwrap();
    (kernel, config)
}

#[test]
fn own_entries_without_a_watermark_record_are_refused() {
    let (kernel, config) = recordless_log(0);
    assert!(
        matches!(recover(&kernel, &config), Err(FsError::Corrupted(_))),
        "a record-less log with live entries replayed"
    );
    // Refused, not cleared: the next attempt finds the same entries.
    assert!(matches!(
        recover(&kernel, &config),
        Err(FsError::Corrupted(_))
    ));
}

#[test]
fn foreign_entries_without_a_watermark_record_are_retired() {
    let (kernel, config) = recordless_log(7);
    let report = recover(&kernel, &config).expect("foreign ghosts only");
    assert_eq!((report.entries_scanned, report.foreign), (3, 3));
    let again = recover(&kernel, &config).unwrap();
    assert_eq!(again.entries_scanned, 0, "{again:?}");
}
