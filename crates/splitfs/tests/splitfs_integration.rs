//! Integration tests for SplitFS over the kernel file system, covering the
//! behaviours the paper's design section promises: user-space data paths,
//! staged appends with relink, the three consistency modes, functional
//! equivalence with ext4 DAX (§5.3), and crash recovery of the operation
//! log.

use std::sync::Arc;

use kernelfs::{Ext4Dax, BLOCK_SIZE};
use parking_lot::Mutex;
use pmem::{PmemBuilder, PmemDevice, TimeCategory};
use splitfs::{recover, Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, FsError, OpenFlags, SeekFrom};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(256 * 1024 * 1024).build()
}

fn small_config(mode: Mode) -> SplitConfig {
    SplitConfig::new(mode)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(256 * 1024)
}

fn splitfs(mode: Mode) -> (Arc<PmemDevice>, Arc<Ext4Dax>, Arc<SplitFs>) {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), small_config(mode)).unwrap();
    (device, kernel, fs)
}

#[test]
fn append_fsync_read_round_trip_in_all_modes() {
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, _k, fs) = splitfs(mode);
        let fd = fs.open("/log", OpenFlags::create()).unwrap();
        let mut expected = Vec::new();
        for i in 0..20u32 {
            let chunk = vec![i as u8; 4096];
            fs.append(fd, &chunk).unwrap();
            expected.extend_from_slice(&chunk);
            if i % 5 == 4 {
                fs.fsync(fd).unwrap();
            }
        }
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.read_file("/log").unwrap(), expected, "mode {mode:?}");
    }
}

#[test]
fn staged_appends_are_visible_before_fsync() {
    let (_d, _k, fs) = splitfs(Mode::Posix);
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    fs.append(fd, b"hello ").unwrap();
    fs.append(fd, b"world").unwrap();
    // No fsync yet: the data lives in staging files but must be visible to
    // this process.
    assert_eq!(fs.fstat(fd).unwrap().size, 11);
    let mut buf = vec![0u8; 11];
    assert_eq!(fs.read_at(fd, 0, &mut buf).unwrap(), 11);
    assert_eq!(&buf, b"hello world");
    fs.close(fd).unwrap();
}

#[test]
fn repeated_overwrites_of_the_same_range_keep_the_last_write() {
    // Regression test: strict mode stages every write, so overwriting one
    // range twice between fsyncs produces overlapping staged runs; the
    // relink path must apply them in generations (last writer wins), not
    // reject the batch as overlapping.
    let (_d, _k, fs) = splitfs(Mode::Strict);
    let fd = fs.open("/page", OpenFlags::create()).unwrap();
    fs.write_at(fd, 0, &vec![0xAAu8; 4096]).unwrap();
    fs.write_at(fd, 0, &vec![0xBBu8; 4096]).unwrap();
    // Partial third overwrite on top, unaligned.
    fs.write_at(fd, 100, &[0xCCu8; 200]).unwrap();
    fs.fsync(fd).expect("fsync after overlapping overwrites");
    let data = fs.read_file("/page").unwrap();
    assert!(data[..100].iter().all(|&b| b == 0xBB));
    assert!(data[100..300].iter().all(|&b| b == 0xCC));
    assert!(data[300..4096].iter().all(|&b| b == 0xBB));
    fs.close(fd).unwrap();
}

#[test]
fn overwrites_round_trip_in_all_modes() {
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, _k, fs) = splitfs(mode);
        let base: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/data", &base).unwrap();

        let fd = fs.open("/data", OpenFlags::read_write()).unwrap();
        // Aligned overwrite.
        fs.write_at(fd, 8192, &vec![0xAB; 4096]).unwrap();
        // Unaligned overwrite crossing a block boundary.
        fs.write_at(fd, 4000, &vec![0xCD; 300]).unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();

        let out = fs.read_file("/data").unwrap();
        assert_eq!(&out[..4000], &base[..4000], "mode {mode:?}");
        assert_eq!(&out[4000..4300], &[0xCD; 300][..], "mode {mode:?}");
        assert_eq!(&out[4300..8192], &base[4300..8192], "mode {mode:?}");
        assert_eq!(&out[8192..12288], &[0xAB; 4096][..], "mode {mode:?}");
        assert_eq!(&out[12288..], &base[12288..], "mode {mode:?}");
    }
}

#[test]
fn functional_equivalence_with_ext4_dax() {
    // §5.3: the file-system state after a workload on SplitFS must match
    // the state the same workload produces on ext4 DAX.
    let run = |fs: &dyn FileSystem| {
        fs.mkdir("/app").unwrap();
        let fd = fs.open("/app/a.db", OpenFlags::create()).unwrap();
        for i in 0..10u32 {
            fs.append(fd, &vec![i as u8; 1000]).unwrap();
        }
        fs.write_at(fd, 500, b"PATCHED").unwrap();
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        fs.write_file("/app/b.txt", b"second file").unwrap();
        fs.rename("/app/b.txt", "/app/c.txt").unwrap();
        fs.unlink("/app/a.db").unwrap();
        fs.write_file("/app/a.db", b"recreated").unwrap();
        (
            fs.read_file("/app/a.db").unwrap(),
            fs.read_file("/app/c.txt").unwrap(),
            {
                let mut names = fs.readdir("/app").unwrap();
                names.sort();
                names
            },
        )
    };

    let ext4_device = device();
    let ext4 = Ext4Dax::mkfs(ext4_device).unwrap();
    let expected = run(ext4.as_ref());

    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, _k, fs) = splitfs(mode);
        let got = run(fs.as_ref());
        assert_eq!(got, expected, "mode {mode:?}");
    }
}

#[test]
fn data_operations_avoid_kernel_traps() {
    let (d, _k, fs) = splitfs(Mode::Posix);
    let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 199) as u8).collect();
    fs.write_file("/big", &payload).unwrap();

    let fd = fs.open("/big", OpenFlags::read_write()).unwrap();
    // Warm the mapping with one read.
    let mut buf = vec![0u8; 4096];
    fs.read_at(fd, 0, &mut buf).unwrap();

    // Drain the maintenance daemon: write_file nudged background staging
    // provisioning, whose file creations trap into the kernel by design.
    // Only the foreground read/overwrite path is under test here.
    fs.maintenance_quiesce();

    let before = d.stats().snapshot();
    for i in 0..32u64 {
        fs.read_at(fd, i * 4096, &mut buf).unwrap();
        fs.write_at(fd, i * 4096, &buf).unwrap();
    }
    let delta = d.stats().snapshot().delta(&before);
    assert_eq!(
        delta.kernel_traps, 0,
        "reads and overwrites of mapped regions must not trap into the kernel"
    );
    fs.close(fd).unwrap();
}

#[test]
fn append_fsync_relinks_without_copying_data() {
    let (d, _k, fs) = splitfs(Mode::Posix);
    let fd = fs.open("/wal", OpenFlags::create()).unwrap();
    // Block-aligned appends: relink should move them with metadata only.
    for i in 0..8u32 {
        fs.append(fd, &vec![i as u8; BLOCK_SIZE]).unwrap();
    }
    let staged_bytes = 8 * BLOCK_SIZE as u64;
    let before = d.stats().snapshot();
    fs.fsync(fd).unwrap();
    let delta = d.stats().snapshot().delta(&before);
    assert!(
        delta.written(TimeCategory::UserData) < BLOCK_SIZE as u64,
        "fsync must not rewrite the {staged_bytes} staged bytes, wrote {}",
        delta.written(TimeCategory::UserData)
    );
    fs.close(fd).unwrap();
    // And the data is still correct.
    let data = fs.read_file("/wal").unwrap();
    assert_eq!(data.len(), staged_bytes as usize);
    for i in 0..8usize {
        assert!(data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE]
            .iter()
            .all(|&b| b == i as u8));
    }
}

/// `fsync` leaves nothing unpersisted, in every mode, with relink and
/// without it.  In POSIX mode, whose appends fence nothing, the staged
/// bytes drain at a fence of their own, before the relink's journal
/// commit makes them part of the file rather than at it.
#[test]
fn fsync_drains_staged_bytes_before_the_relink_commits_them() {
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        for relink in [true, false] {
            let device = PmemBuilder::new(32 * 1024 * 1024).build();
            let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
            let config = SplitConfig::new(mode)
                .with_staging(2, 2 * 1024 * 1024)
                .with_oplog_size(256 * 1024)
                .without_daemon();
            let config = if relink {
                config
            } else {
                config.without_relink()
            };
            let fs = SplitFs::new(kernel, config).unwrap();
            let fd = fs.open("/log", OpenFlags::create()).unwrap();
            fs.append(fd, &[0x5A; BLOCK_SIZE]).unwrap();
            let staged = device.unpersisted_lines();

            // The lines still to drain at each fence inside the fsync.
            let pending: Arc<Mutex<Vec<usize>>> = Arc::default();
            {
                let pending = Arc::clone(&pending);
                device.set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| {
                    pending.lock().push(d.unpersisted_lines());
                })));
            }
            fs.fsync(fd).unwrap();
            device.set_fence_hook(None);
            let what = format!("{mode:?}, relink {relink}");
            assert_eq!(device.unpersisted_lines(), 0, "{what}");

            if mode == Mode::Posix && !relink {
                // The ablation copies the staged block through the kernel's
                // write path, whose commit fence drains it: no fence of its
                // own goes first.  The journal lines beside the block's 64
                // depend on where the journal head sits.
                assert_eq!(*pending.lock(), [66, 1, 65, 1], "{what}");
            }
            if mode == Mode::Posix && relink {
                let pending = std::mem::take(&mut *pending.lock());
                assert_eq!(staged, BLOCK_SIZE / 64, "{what}");
                assert_eq!(
                    pending[0], staged,
                    "{what}: the first fence drains the staged block alone: {pending:?}"
                );
                assert!(
                    pending.len() > 1 && pending[1] > 0,
                    "{what}: the journal commit fences after it: {pending:?}"
                );
            }
        }
    }
}

#[test]
fn unaligned_appends_still_round_trip() {
    let (_d, _k, fs) = splitfs(Mode::Strict);
    let fd = fs.open("/aof", OpenFlags::append()).unwrap();
    let mut expected = Vec::new();
    for i in 0..200u32 {
        let record = format!("SET key{i} value{i}\n");
        fs.write(fd, record.as_bytes()).unwrap();
        expected.extend_from_slice(record.as_bytes());
        if i % 50 == 49 {
            fs.fsync(fd).unwrap();
        }
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    assert_eq!(fs.read_file("/aof").unwrap(), expected);
}

#[test]
fn strict_append_uses_one_log_entry_and_one_extra_fence() {
    let (d, _k, fs) = splitfs(Mode::Strict);
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    // Warm up staging allocation paths.
    fs.append(fd, &vec![0u8; BLOCK_SIZE]).unwrap();
    let before = d.stats().snapshot();
    fs.append(fd, &vec![1u8; BLOCK_SIZE]).unwrap();
    let delta = d.stats().snapshot().delta(&before);
    assert_eq!(
        delta.written(TimeCategory::OpLog),
        64,
        "exactly one 64-byte operation-log entry per append"
    );
    assert_eq!(
        delta.kernel_traps, 0,
        "appends must not trap into the kernel"
    );
    assert!(
        delta.fences <= 2,
        "append needs at most a data fence plus one log fence, saw {}",
        delta.fences
    );
    fs.close(fd).unwrap();
}

#[test]
fn oplog_checkpoint_relinks_and_resets_when_full() {
    let (_d, _k, fs) = {
        let device = device();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        // Tiny log: 64 entries.
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(2, 8 * 1024 * 1024)
            .with_oplog_size(64 * 64);
        let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
        (device, kernel, fs)
    };
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    // More appends than the log can hold: SplitFS must checkpoint and keep
    // going rather than fail.
    for i in 0..200u32 {
        fs.append(fd, &vec![(i % 256) as u8; 512]).unwrap();
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    let data = fs.read_file("/f").unwrap();
    assert_eq!(data.len(), 200 * 512);
    // The final checkpoint runs on the maintenance daemon; drain it so the
    // entry count below reflects the log's post-checkpoint steady state.
    fs.maintenance_quiesce();
    assert!(fs.oplog_entries() < 64);
}

#[test]
fn crash_before_fsync_loses_nothing_in_strict_mode() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = small_config(Mode::Strict);
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    let fd = fs.open("/db", OpenFlags::create()).unwrap();
    let payload: Vec<u8> = (0..3 * BLOCK_SIZE as u32)
        .map(|i| (i % 253) as u8)
        .collect();
    fs.append(fd, &payload).unwrap();
    // No fsync, no close: strict mode still guarantees the append is
    // durable and atomic once the call returned.
    device.crash();

    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert!(
        report.replayed >= 1,
        "recovery must replay the staged append"
    );
    let data = kernel2.read_file("/db").unwrap();
    assert_eq!(data, payload);
}

#[test]
fn crash_after_fsync_does_not_double_apply() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = small_config(Mode::Strict);
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    let fd = fs.open("/db", OpenFlags::create()).unwrap();
    let payload = vec![7u8; 2 * BLOCK_SIZE];
    fs.append(fd, &payload).unwrap();
    fs.fsync(fd).unwrap();
    device.crash();

    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert_eq!(
        report.replayed, 0,
        "already-relinked appends must not be replayed (report: {report:?})"
    );
    assert_eq!(kernel2.read_file("/db").unwrap(), payload);
}

#[test]
fn recovery_is_idempotent_across_repeated_crashes() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = small_config(Mode::Strict);
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

    let fd = fs.open("/db", OpenFlags::create()).unwrap();
    let payload = vec![3u8; BLOCK_SIZE];
    fs.append(fd, &payload).unwrap();
    device.crash();

    // First recovery, then crash again immediately (before the log reset is
    // necessarily the last thing that persisted), then recover again.
    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    recover(&kernel2, &config).unwrap();
    device.crash();
    let kernel3 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    recover(&kernel3, &config).unwrap();
    assert_eq!(kernel3.read_file("/db").unwrap(), payload);
}

#[test]
fn posix_mode_append_without_fsync_may_lose_data_but_keeps_metadata_consistent() {
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), small_config(Mode::Posix)).unwrap();
    let fd = fs.open("/maybe", OpenFlags::create()).unwrap();
    fs.append(fd, &vec![1u8; BLOCK_SIZE]).unwrap();
    device.crash();

    // POSIX mode promises only metadata consistency: the file exists, the
    // file system mounts, but the unsynced append may be gone.
    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    assert!(kernel2.exists("/maybe"));
    let size = kernel2.stat("/maybe").unwrap().size;
    assert!(size == 0 || size == BLOCK_SIZE as u64);
}

#[test]
fn dup_descriptors_share_their_offset() {
    let (_d, _k, fs) = splitfs(Mode::Posix);
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    fs.write(fd, b"0123456789").unwrap();
    fs.lseek(fd, SeekFrom::Start(2)).unwrap();
    let dup = fs.dup(fd).unwrap();
    let mut buf = [0u8; 3];
    fs.read(dup, &mut buf).unwrap();
    assert_eq!(&buf, b"234");
    // The original descriptor observes the dup's reads.
    let mut buf2 = [0u8; 2];
    fs.read(fd, &mut buf2).unwrap();
    assert_eq!(&buf2, b"56");
    fs.close(fd).unwrap();
    fs.close(dup).unwrap();
}

#[test]
fn truncate_discards_staged_appends_beyond_new_size() {
    let (_d, _k, fs) = splitfs(Mode::Posix);
    let fd = fs.open("/t", OpenFlags::create()).unwrap();
    fs.append(fd, &vec![1u8; 6000]).unwrap();
    fs.ftruncate(fd, 1000).unwrap();
    assert_eq!(fs.fstat(fd).unwrap().size, 1000);
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    let data = fs.read_file("/t").unwrap();
    assert_eq!(data.len(), 1000);
    assert!(data.iter().all(|&b| b == 1));
}

#[test]
fn a_truncate_unmaps_the_freed_block_past_the_old_size_too() {
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, _k, fs) = splitfs(mode);
        let fd = fs.open("/t", OpenFlags::create()).unwrap();
        // The second block holds 2508 bytes; a read maps the whole block.
        fs.append(fd, &vec![1u8; 6604]).unwrap();
        fs.fsync(fd).unwrap();
        fs.read_at(fd, 6000, &mut [0u8; 100]).unwrap();
        // The truncate frees that block, and the file grows back past the
        // old size into a block of its own.
        fs.ftruncate(fd, 1789).unwrap();
        fs.append(fd, &vec![2u8; 7000 - 1789]).unwrap();
        fs.fsync(fd).unwrap();
        let mut past = [0u8; 396];
        assert_eq!(fs.read_at(fd, 6604, &mut past).unwrap(), 396);
        assert!(
            past.iter().all(|&b| b == 2),
            "{mode:?}: the bytes past the old size read the freed block"
        );
    }
}

#[test]
fn unlink_removes_file_and_cached_state() {
    let (_d, _k, fs) = splitfs(Mode::Posix);
    fs.write_file("/gone", b"bye").unwrap();
    fs.unlink("/gone").unwrap();
    assert!(!fs.exists("/gone"));
    assert_eq!(fs.read_file("/gone"), Err(FsError::NotFound));
    // Re-creating the path works and starts empty.
    fs.write_file("/gone", b"new").unwrap();
    assert_eq!(fs.read_file("/gone").unwrap(), b"new");
}

#[test]
fn concurrent_instances_with_different_modes_coexist() {
    // §3.2: applications using different modes run side by side on the same
    // kernel file system without interfering.
    let device = device();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let posix = SplitFs::new(Arc::clone(&kernel), small_config(Mode::Posix)).unwrap();
    let strict = SplitFs::new(
        Arc::clone(&kernel),
        SplitConfig::new(Mode::Strict)
            .with_staging(2, 4 * 1024 * 1024)
            .with_oplog_size(128 * 1024),
    )
    .unwrap();

    posix.write_file("/from_posix", b"posix data").unwrap();
    strict.write_file("/from_strict", b"strict data").unwrap();

    assert_eq!(strict.read_file("/from_posix").unwrap(), b"posix data");
    assert_eq!(posix.read_file("/from_strict").unwrap(), b"strict data");
    assert_eq!(posix.consistency(), vfs::ConsistencyClass::Posix);
    assert_eq!(strict.consistency(), vfs::ConsistencyClass::Strict);
}

#[test]
fn ablation_configurations_still_produce_correct_files() {
    // Figure 3's ablation settings change performance, never correctness.
    let configs = [
        small_config(Mode::Posix).without_staging(),
        small_config(Mode::Posix).without_relink(),
        small_config(Mode::Posix),
    ];
    for config in configs {
        let device = device();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
        let fd = fs.open("/w", OpenFlags::create()).unwrap();
        let mut expected = Vec::new();
        for i in 0..10u32 {
            let block = vec![i as u8; BLOCK_SIZE];
            fs.append(fd, &block).unwrap();
            expected.extend_from_slice(&block);
            if i % 3 == 2 {
                fs.fsync(fd).unwrap();
            }
        }
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(
            fs.read_file("/w").unwrap(),
            expected,
            "config {:?}",
            (config.use_staging, config.use_relink)
        );
    }
}

#[test]
fn memory_usage_is_bounded_and_observable() {
    let (_d, _k, fs) = splitfs(Mode::Strict);
    for i in 0..20 {
        fs.write_file(&format!("/file-{i}"), &vec![0u8; 8192])
            .unwrap();
    }
    let usage = fs.memory_usage();
    assert!(usage.cached_files >= 20);
    assert!(usage.approx_bytes > 0);
    // §5.10: SplitFS metadata stays within ~100 MB even for large workloads;
    // twenty small files must be nowhere near that.
    assert!(usage.approx_bytes < 10 * 1024 * 1024);
}

#[test]
fn rename_over_a_cached_file_serves_the_moved_file() {
    // Regression test: the replaced target used to keep its cached state
    // under the same path as the moved file, and `stat` returned whichever
    // of the two the registry's hash order produced first.  Filler files
    // vary that order from round to round.
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, kernel, fs) = splitfs(mode);
        for round in 0..20 {
            let (a, b) = (format!("/a{round}"), format!("/b{round}"));
            fs.write_file(&a, &vec![7u8; 5000]).unwrap();
            fs.write_file(&b, &[9u8; 100]).unwrap();
            fs.rename(&a, &b).unwrap();

            let st = fs.stat(&b).unwrap();
            assert_eq!(
                st.ino,
                kernel.stat(&b).unwrap().ino,
                "{mode:?} round {round}"
            );
            assert_eq!(st.size, 5000, "{mode:?} round {round}");
            assert_eq!(fs.stat(&a), Err(FsError::NotFound));
            // One cached state per live file: the replaced one is gone.
            assert_eq!(fs.memory_usage().cached_files, 2 * round + 1);
            fs.write_file(&format!("/filler{round}"), b"x").unwrap();
        }
    }
}

#[test]
fn directory_rename_rekeys_cached_descendants() {
    // Regression test: cached paths beneath a renamed directory used to go
    // stale — the old path still resolved, and the new one fell through to
    // the kernel, hiding staged bytes from the process that wrote them.
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let (_d, kernel, fs) = splitfs(mode);
        fs.mkdir("/d1").unwrap();
        fs.mkdir("/d10").unwrap();
        fs.write_file("/d10/f", b"sibling with a longer name")
            .unwrap();
        let fd = fs.open("/d1/f", OpenFlags::create()).unwrap();
        fs.append(fd, &[0x5Au8; 3000]).unwrap();

        fs.rename("/d1", "/d2").unwrap();
        assert_eq!(fs.stat("/d1/f"), Err(FsError::NotFound), "{mode:?}");
        assert_eq!(fs.stat("/d2/f").unwrap().size, 3000, "{mode:?}");
        assert_eq!(fs.stat("/d10/f").unwrap().size, 26, "{mode:?}");

        let reader = fs.open("/d2/f", OpenFlags::read_only()).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(fs.read_at(reader, 0, &mut buf), Ok(3000));
        assert!(buf[..3000].iter().all(|&b| b == 0x5A));
        fs.close(reader).unwrap();

        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(kernel.read_file("/d2/f").unwrap(), vec![0x5Au8; 3000]);
    }
}

/// One-off measurement for the O(1) claim: host time per `stat`, `rename`
/// and `unlink` must not grow with the number of cached files.  Run with
/// `cargo test --release -p splitfs --test splitfs_integration -- --ignored
/// --nocapture metadata_ops_do_not_slow_down`.
#[test]
#[ignore = "host-clock measurement; run by hand in release mode"]
fn metadata_ops_do_not_slow_down_as_cached_files_grow() {
    const PROBES: usize = 2000;
    let mut per_op_ns = Vec::new();
    for residents in [1024usize, 8192] {
        let device = PmemBuilder::new(512 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(device).unwrap();
        let fs = SplitFs::new(kernel, small_config(Mode::Sync)).unwrap();
        // 16 residents per directory at either size, so the kernel's own
        // per-directory work is the same and only U-Split's cache grows.
        let dirs = residents / 16;
        for d in 0..dirs {
            fs.mkdir(&format!("/d{d}")).unwrap();
        }
        for r in 0..residents {
            fs.write_file(&format!("/d{}/r{r}", r % dirs), b"resident")
                .unwrap();
        }
        for p in 0..PROBES {
            fs.write_file(&format!("/d{}/p{p}.tmp", p % 64), b"probe")
                .unwrap();
        }
        let time = |op: &dyn Fn(usize)| {
            let t0 = std::time::Instant::now();
            (0..PROBES).for_each(op);
            t0.elapsed().as_nanos() as f64 / PROBES as f64
        };
        let stat = time(&|p| {
            fs.stat(&format!("/d{}/p{p}.tmp", p % 64)).unwrap();
        });
        let rename = time(&|p| {
            let d = p % 64;
            fs.rename(&format!("/d{d}/p{p}.tmp"), &format!("/d{d}/p{p}.dat"))
                .unwrap();
        });
        let unlink = time(&|p| fs.unlink(&format!("/d{}/p{p}.dat", p % 64)).unwrap());
        println!(
            "{residents} resident files: stat {stat:.0} ns, rename {rename:.0} ns, unlink {unlink:.0} ns"
        );
        per_op_ns.push([stat, rename, unlink]);
    }
    for (small, large) in per_op_ns[0].iter().zip(&per_op_ns[1]) {
        assert!(
            *large < 2.0 * *small,
            "an op slowed down with 8x the cached files: {per_op_ns:?}"
        );
    }
}

/// What a crash image of a rename shows once mounted: the free-block
/// count, `check_namespace()`'s violations and the bytes under the name.
type Cut = (u64, Vec<String>, Vec<u8>);

/// A `rename` over a file U-Split has cached but no application holds
/// open frees the replaced file inside the rename's own transaction: at
/// every fence of the call, and after it, the crash image mounts with a
/// clean namespace, the name holding the old bytes or the new ones and
/// the free-block count matching one side of the rename.  U-Split keeps
/// a kernel descriptor for every cached file; were the replaced file
/// orphaned on it and freed at its close, a crash between the two
/// transactions would leave an unnamed inode and its blocks behind.
#[test]
fn a_crash_inside_a_rename_over_a_cached_closed_file_leaks_nothing() {
    const BYTES: usize = 32 * 1024 * 1024;
    let old = vec![0x0Au8; 3 * BLOCK_SIZE];
    let new = vec![0x0Bu8; BLOCK_SIZE];
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let device = PmemBuilder::new(BYTES).track_persistence(true).build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let config = SplitConfig::new(mode)
            .with_staging(2, 2 * 1024 * 1024)
            .with_oplog_size(256 * 1024)
            .without_daemon();
        let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
        fs.write_file("/a", &old).unwrap();
        fs.write_file("/b", &new).unwrap();
        // Cached: `stat` is served by U-Split's state, not the kernel.
        assert_eq!(fs.stat("/a").unwrap().size, old.len() as u64);
        fs.sync().unwrap();
        let before = kernel.free_blocks();

        let spare = PmemBuilder::new(BYTES).track_persistence(true).build();
        let seen: Arc<Mutex<Vec<Cut>>> = Arc::default();
        let check = {
            let (spare, seen) = (Arc::clone(&spare), Arc::clone(&seen));
            move |dev: &PmemDevice| {
                spare.restore_crash_image(&dev.capture_crash_image());
                let kernel = Ext4Dax::mount(Arc::clone(&spare)).expect("mount");
                let bytes = kernel.read_file("/a").unwrap();
                seen.lock()
                    .push((kernel.free_blocks(), kernel.check_namespace(), bytes));
            }
        };
        {
            let check = check.clone();
            device.set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| check(d))));
        }
        fs.rename("/b", "/a").unwrap();
        device.set_fence_hook(None);
        check(&device);
        let after = kernel.free_blocks();
        assert!(after >= before + 3, "{mode:?}: {before} -> {after}");

        let seen = seen.lock();
        assert!(seen.len() >= 2, "{mode:?}: {} cuts", seen.len());
        for (i, (free, violations, bytes)) in seen.iter().enumerate() {
            let what = format!("{mode:?}, cut {i}");
            assert_eq!(violations, &[] as &[String], "{what}");
            if *bytes == old {
                assert_eq!(*free, before, "{what}: old name, free blocks");
            } else {
                assert!(*bytes == new, "{what}: /a holds neither file");
                assert_eq!(*free, after, "{what}: new name, free blocks");
            }
        }
        assert!(seen.last().unwrap().2 == new, "{mode:?}: rename lost");
    }
}
