//! Crash consistency of the background maintenance daemon.
//!
//! The invariant under test: recovery produces **identical file contents**
//! whether a crash lands before, during, or after a background batch
//! relink.  "During" is emulated deterministically by replaying exactly
//! what a maintenance worker does — scan the operation log, build the
//! [`RelinkOp`] batch, submit it through `ioctl_relink_batch` — and then
//! crashing before any U-Split bookkeeping (`Invalidate` markers, log
//! truncation) happens.

use std::sync::Arc;

use chaos::Recovered;
use kernelfs::{Ext4Dax, RelinkOp, BLOCK_SIZE};
use pmem::{PmemBuilder, PmemDevice};
use splitfs::oplog::{LogOp, OpLog};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::{FileSystem, IoVec, OpenFlags};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(256 * 1024 * 1024).build()
}

fn strict_config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(256 * 1024)
}

/// Runs the common workload: block-aligned appends to two files, never
/// fsynced, so everything is staged and logged when the function returns.
/// Returns the expected per-file contents.
fn stage_workload(fs: &Arc<SplitFs>) -> Vec<(String, Vec<u8>)> {
    let mut expected = Vec::new();
    for (name, fill) in [("/a.db", 0x11u8), ("/b.db", 0x22u8)] {
        let fd = fs.open(name, OpenFlags::create()).unwrap();
        let mut content = Vec::new();
        for i in 0..4u8 {
            let block = vec![fill.wrapping_add(i); BLOCK_SIZE];
            fs.append(fd, &block).unwrap();
            content.extend_from_slice(&block);
        }
        expected.push((name.to_string(), content));
        // No fsync, no close: the data exists only in staging files plus
        // the operation log.
    }
    expected
}

/// Emulates the daemon's batched relink at the kernel level: scan the
/// log, build one `RelinkOp` per staged entry, submit the whole batch.
/// Mirrors what `checkpoint_quiesced` submits, without any of the
/// follow-up bookkeeping — as if the crash hit right after the batch.
fn apply_background_batch(kernel: &Arc<Ext4Dax>, config: &SplitConfig) -> usize {
    let log_fd = kernel.open(OPLOG_PATH, OpenFlags::read_write()).unwrap();
    let log_size = kernel.fstat(log_fd).unwrap().size.min(config.oplog_size);
    let mapping = kernel.dax_map(log_fd, 0, log_size, false).unwrap();
    let entries = OpLog::scan(kernel.device(), &mapping, log_size);
    let mut ops = Vec::new();
    let mut fds = Vec::new();
    for entry in entries.iter().filter(|e| e.op == LogOp::StagedWrite) {
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
    kernel.ioctl_relink_batch(&ops, &[]).unwrap();
    for fd in fds {
        kernel.close(fd).unwrap();
    }
    kernel.close(log_fd).unwrap();
    ops.len()
}

/// Mounts the crashed device through the shared chaos harness, replays
/// instance 0's log, asserts the recovered tree is fsck-clean with no
/// foreign entries, and returns per-file contents.
fn recover_and_read(
    device: &Arc<PmemDevice>,
    config: &SplitConfig,
    names: &[String],
) -> (splitfs::RecoveryReport, Vec<Vec<u8>>) {
    let mut rec = Recovered::mount(device).unwrap();
    let report = *rec.recover_instance(config, 0).unwrap();
    rec.assert_clean();
    let contents = names
        .iter()
        .map(|name| rec.kernel.read_file(name).unwrap())
        .collect();
    (report, contents)
}

#[test]
fn crash_before_background_batch_replays_from_the_log() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let expected = stage_workload(&fs);
    fs.maintenance_quiesce();
    drop(fs); // joins the daemon's worker before the crash snapshot
    device.crash();

    let names: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
    let (report, contents) = recover_and_read(&device, &config, &names);
    assert!(
        report.replayed >= names.len(),
        "nothing was relinked, so every staged append replays: {report:?}"
    );
    for ((name, want), got) in expected.iter().zip(contents) {
        assert_eq!(&got, want, "{name}");
    }
}

#[test]
fn crash_between_batch_submission_and_completion_is_idempotent() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let expected = stage_workload(&fs);
    fs.maintenance_quiesce();
    drop(fs);

    // The daemon's batch lands (journaled, atomic), but the crash hits
    // before any Invalidate marker or log truncation.
    let applied = apply_background_batch(&kernel, &config);
    assert!(applied >= 2, "the batch covers both files' staged runs");
    device.crash();

    let names: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
    let (report, contents) = recover_and_read(&device, &config, &names);
    assert_eq!(
        report.replayed, 0,
        "relinked entries leave holes and must not replay: {report:?}"
    );
    assert!(
        report.already_applied >= names.len(),
        "the stale log entries are recognized as applied: {report:?}"
    );
    for ((name, want), got) in expected.iter().zip(contents) {
        assert_eq!(&got, want, "{name}");
    }
}

#[test]
fn recovered_contents_identical_before_during_and_after_the_batch() {
    // Run the same workload three times, crashing at a different point of
    // the background relink each time; the recovered images must agree.
    let mut images: Vec<Vec<Vec<u8>>> = Vec::new();
    for scenario in ["before", "during", "after"] {
        let device = device();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let config = strict_config();
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
        let expected = stage_workload(&fs);
        fs.maintenance_quiesce();
        drop(fs);
        match scenario {
            "before" => {}
            "during" => {
                apply_background_batch(&kernel, &config);
            }
            "after" => {
                // Batch plus completion: a second recovery pass stands in
                // for the bookkeeping that marks entries applied.
                apply_background_batch(&kernel, &config);
                recover(&kernel, &config).unwrap();
            }
            _ => unreachable!(),
        }
        device.crash();
        let names: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
        let (_report, contents) = recover_and_read(&device, &config, &names);
        for ((name, want), got) in expected.iter().zip(&contents) {
            assert_eq!(got, want, "scenario {scenario}, file {name}");
        }
        images.push(contents);
    }
    assert!(
        images.windows(2).all(|w| w[0] == w[1]),
        "crash timing must not change the recovered image"
    );
}

#[test]
fn crash_after_background_checkpoint_truncates_cleanly() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Tiny log so the daemon's checkpoint threshold (50%) is crossed by a
    // modest append stream.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(128 * 64);
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    assert!(fs.daemon_running());

    let fd = fs.open("/wal", OpenFlags::create()).unwrap();
    let mut expected = Vec::new();
    for i in 0..100u32 {
        let chunk = vec![(i % 251) as u8; 512];
        fs.append(fd, &chunk).unwrap();
        expected.extend_from_slice(&chunk);
        if i == 49 {
            // Wait for the first background checkpoint (nudged at 32
            // entries, half of a 64-entry epoch) to retire its half before
            // the writer can fill the other one.  When it does fill it
            // first, the writer checkpoints itself: legal, but not the
            // background truncation this test is about.
            fs.maintenance_quiesce();
        }
    }
    fs.maintenance_quiesce();
    let snap = device.stats().snapshot();
    assert!(
        snap.daemon_checkpoints >= 1,
        "the daemon checkpointed in the background: {snap:?}"
    );
    assert!(
        fs.oplog_entries() < 64,
        "the log was truncated in the background ({} entries)",
        fs.oplog_entries()
    );
    drop(fs);
    device.crash();

    let (report, contents) = recover_and_read(&device, &config, &["/wal".to_string()]);
    assert_eq!(contents[0], expected, "no acknowledged byte may be lost");
    // The checkpoint truncated the log, so recovery sees far fewer entries
    // than the 100 staged writes, and none of them double-applies.
    assert!(
        report.entries_scanned < 100,
        "the truncated log holds only post-checkpoint entries: {report:?}"
    );
}

#[test]
fn daemon_provisioning_eliminates_inline_staging_creation() {
    let device = PmemBuilder::new(512 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Small staging files so the workload exhausts the initial pool many
    // times over; the daemon keeps the file after the active one ready.
    let config = SplitConfig::new(Mode::Posix).with_staging(4, 2 * 1024 * 1024);
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();

    let fds: Vec<_> = (0..4)
        .map(|i| fs.open(&format!("/t{i}"), OpenFlags::create()).unwrap())
        .collect();
    let block = vec![0xEEu8; 4096];
    // ~24 MiB total through an 8 MiB pool: without provisioning this would
    // force inline creations.  Round-robin appends interleave the files'
    // staging space, so each fsync submits a multi-extent batch.
    for round in 0..24 {
        // Interleave the files' appends so their staging space is
        // interleaved too: each file's staged data then forms many
        // discontiguous runs, exactly like concurrent appenders.
        for _ in 0..64 {
            for &fd in &fds {
                fs.append(fd, &block).unwrap();
            }
        }
        for &fd in &fds {
            fs.fsync(fd).unwrap();
        }
        if round % 2 == 1 {
            // Give the nudged provisioning a deterministic point to land.
            fs.maintenance_quiesce();
        }
    }
    fs.maintenance_quiesce();
    let snap = device.stats().snapshot();
    assert_eq!(
        snap.staging_inline_creates, 0,
        "the daemon must keep the foreground path free of file creation: {snap:?}"
    );
    assert!(
        snap.staging_bg_creates + snap.staging_recycles > 0,
        "replenishment happened in the background (fresh files or \
         recycled fully-relinked ones): {snap:?}"
    );
    assert!(snap.batched_relinks > 0);
    assert!(
        snap.relink_batch_ops > snap.batched_relinks,
        "at least one batch covered multiple staged runs: {snap:?}"
    );
    for &fd in &fds {
        fs.close(fd).unwrap();
    }
}

#[test]
fn dropping_the_instance_joins_the_workers() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, strict_config()).unwrap();
    assert!(fs.daemon_running());
    let fd = fs.open("/x", OpenFlags::create()).unwrap();
    fs.append(fd, &[1u8; 4096]).unwrap();
    fs.maintenance_quiesce();
    drop(fs); // must not hang or leak threads

    // A second instance over the same device recovers and starts cleanly.
    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let fs2 = SplitFs::new(kernel2, strict_config()).unwrap();
    assert_eq!(fs2.read_file("/x").unwrap(), vec![1u8; 4096]);
}

#[test]
fn a_two_run_appendv_group_commits_and_replays_after_a_crash() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    // An appendv is one log entry per staged run.  This one starts in a
    // block tail that another file's take has since closed, so it is two
    // runs — the rest of the tail and a fresh block — whose two entries
    // share one transaction, annotating the surrounding Appendv span with
    // a GroupCommit event.
    let recorder = Arc::new(obs::Recorder::new());
    let fd = fs.open("/group.db", OpenFlags::create()).unwrap();
    let other = fs.open("/group.other", OpenFlags::create()).unwrap();
    let head = vec![0x22u8; 1000];
    fs.append(fd, &head).unwrap();
    fs.append(other, &[0x55u8; 1000]).unwrap();
    let a = vec![0x33u8; BLOCK_SIZE];
    let b = vec![0x44u8; BLOCK_SIZE];
    {
        let _span = recorder.span(obs::OpKind::Appendv);
        fs.appendv(fd, &[IoVec::new(&a), IoVec::new(&b)]).unwrap();
    }
    let group_commit = obs::SpanEvent::ALL
        .iter()
        .position(|e| *e == obs::SpanEvent::GroupCommit)
        .unwrap();
    let appendv = recorder
        .aggregate()
        .into_iter()
        .find(|agg| agg.kind == obs::OpKind::Appendv)
        .expect("the appendv span was recorded");
    assert_eq!(
        appendv.events[group_commit], 1,
        "the two runs' entries share one group commit"
    );
    fs.maintenance_quiesce();
    drop(fs);
    device.crash();

    // Recovery over the crashed device replays the append.
    let (report, contents) = recover_and_read(&device, &config, &["/group.db".to_string()]);
    assert!(report.replayed >= 1, "{report:?}");
    assert_eq!(contents[0], [head, a, b].concat());
}

#[test]
fn disabled_daemon_still_works_with_inline_maintenance() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config().without_daemon();
    let fs = SplitFs::new(kernel, config).unwrap();
    assert!(!fs.daemon_running());
    let fd = fs.open("/inline", OpenFlags::create()).unwrap();
    let payload = vec![9u8; 64 * 1024];
    fs.append(fd, &payload).unwrap();
    fs.fsync(fd).unwrap();
    assert_eq!(fs.read_file("/inline").unwrap(), payload);
    fs.maintenance_quiesce(); // no-op, must not block
}
