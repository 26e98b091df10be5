//! Acceptance tests for the zero-copy / vectored / batch-durable API on
//! SplitFS: `read_view` serves mapped bytes with zero memcpy, `appendv`
//! gathers N slices under one operation-log fence, and `fsync_many`
//! retires M staged files in one kernel journal transaction — each
//! verified by counters, not asserted by construction.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, TimeCategory};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, IoVec, OpenFlags};

fn strict_fs() -> Arc<SplitFs> {
    let device = PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(device).unwrap();
    // The daemon is disabled so background work cannot perturb the fence
    // and transaction counts the assertions depend on.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(4, 16 * 1024 * 1024)
        .without_daemon();
    SplitFs::new(kernel, config).unwrap()
}

/// Logs one entry, so the log's first chunk is open: the first entry into
/// a chunk also fences the chunk's map bit, which the fence and byte
/// counts below leave out.
fn open_log_chunk(fs: &Arc<SplitFs>) {
    let fd = fs.open("/warm.log", OpenFlags::create()).unwrap();
    fs.append(fd, &[0; 64]).unwrap();
}

#[test]
fn read_view_serves_committed_bytes_with_zero_memcpy() {
    let fs = strict_fs();
    let fd = fs.open("/zc.bin", OpenFlags::create()).unwrap();
    let data: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
    fs.append(fd, &data).unwrap();
    fs.fsync(fd).unwrap(); // relink: the bytes are now committed + mapped

    let before = fs.device().stats().snapshot();
    let view = fs.read_view(fd, 4096, 8192).unwrap();
    assert!(
        view.is_zero_copy(),
        "committed, mapped, unstaged range must be served as a borrow"
    );
    assert_eq!(&*view, &data[4096..12288]);
    drop(view);
    let delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(
        delta.zero_copy_read_bytes, 8192,
        "every byte of the view was served without a memcpy"
    );
}

#[test]
fn read_view_falls_back_to_owned_over_staged_data() {
    let fs = strict_fs();
    let fd = fs.open("/staged.bin", OpenFlags::create()).unwrap();
    fs.append(fd, &[7u8; 4096]).unwrap();
    // Not fsynced: the bytes live in the staging file, overlaid on reads.
    let view = fs.read_view(fd, 0, 4096).unwrap();
    assert!(!view.is_zero_copy(), "staged overlays take the owned path");
    assert_eq!(view.len(), 4096);
    assert!(view.iter().all(|&b| b == 7));
}

#[test]
fn appendv_gathers_n_slices_under_one_oplog_fence() {
    let fs = strict_fs();
    open_log_chunk(&fs);
    let fd = fs.open("/gather.log", OpenFlags::create()).unwrap();
    let parts: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i + 1; 512]).collect();
    let iov: Vec<IoVec<'_>> = parts.iter().map(|p| IoVec::new(p)).collect();

    let before = fs.device().stats().snapshot();
    assert_eq!(fs.appendv(fd, &iov).unwrap(), 8 * 512);
    let delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(
        delta.fences, 2,
        "one fence for the staged data, one for the log entry — \
         independent of slice count"
    );
    assert_eq!(
        delta.written(TimeCategory::OpLog),
        64,
        "the gather is one staged run: one 64 B log entry, not one per slice"
    );
    assert_eq!(delta.oplog_group_commits, 0, "one entry is not a group");
    assert_eq!(delta.appendv_calls, 1);
    assert_eq!(delta.appendv_slices, 8);
    assert_eq!(delta.kernel_traps, 0, "the gather never enters the kernel");

    // The gather reads back contiguously (through the staged overlay).
    let mut expected = Vec::new();
    for p in &parts {
        expected.extend_from_slice(p);
    }
    assert_eq!(fs.read_file("/gather.log").unwrap(), expected);

    // N individual appends cost 2 fences each; the gather cost 2 total.
    let before = fs.device().stats().snapshot();
    for p in &parts {
        fs.append(fd, p).unwrap();
    }
    let loop_delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(loop_delta.fences, 16, "2 fences per individual append");
}

/// The log pays per staged run, not per slice (§3.3: one 64 B entry per
/// operation).  A key-value store's put is a header, a key and a value in
/// one `appendv`; staged slice by slice it logged three entries.
#[test]
fn a_gathered_append_logs_one_entry_per_staged_run() {
    const PUTS: u64 = 1000;
    let fs = strict_fs();
    open_log_chunk(&fs);
    let fd = fs.open("/wal.log", OpenFlags::create()).unwrap();
    let (header, key, value) = ([1u8; 8], [2u8; 16], [3u8; 256]);
    let put = [IoVec::new(&header), IoVec::new(&key), IoVec::new(&value)];
    let (before, entries_before) = (fs.device().stats().snapshot(), fs.oplog_entries());
    let extents_before = fs.memory_usage().staged_extents as u64;
    for _ in 0..PUTS {
        fs.appendv(fd, &put).unwrap();
    }
    let delta = fs.device().stats().snapshot().delta(&before);
    let logged = delta.written(TimeCategory::OpLog);
    assert!(
        logged * 10 <= PUTS * 64 * 11,
        "{} B of log per put, where one 64 B entry is the cost",
        logged as f64 / PUTS as f64
    );
    let entries = fs.oplog_entries() - entries_before;
    assert_eq!(logged, 64 * entries);
    assert_eq!(
        fs.memory_usage().staged_extents as u64 - extents_before,
        entries,
        "one staged extent per log entry"
    );

    // A gather that starts in a block tail another file's take has closed
    // is two runs: the rest of the tail, then a fresh block.  Two entries,
    // committed together.
    let fd = fs.open("/a.log", OpenFlags::create()).unwrap();
    let other = fs.open("/b.log", OpenFlags::create()).unwrap();
    fs.append(fd, &[4u8; 1000]).unwrap();
    fs.append(other, &[5u8; 1000]).unwrap();
    let before = fs.device().stats().snapshot();
    let big = [6u8; 4000];
    fs.appendv(fd, &[IoVec::new(&header), IoVec::new(&big)])
        .unwrap();
    let delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(delta.written(TimeCategory::OpLog), 2 * 64);
    assert_eq!(delta.oplog_group_commits, 1);
    assert_eq!(delta.fences, 2);
    let expected = [&[4u8; 1000][..], &header, &big].concat();
    assert_eq!(fs.read_file("/a.log").unwrap(), expected);
}

#[test]
fn concurrent_appendv_streams_never_interleave_into_overlap() {
    let fs = strict_fs();
    let fd = fs.open("/race.log", OpenFlags::create()).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4u8 {
            let fs = Arc::clone(&fs);
            scope.spawn(move || {
                let half = vec![t + 1; 96];
                for _ in 0..32 {
                    fs.appendv(fd, &[IoVec::new(&half), IoVec::new(&half)])
                        .unwrap();
                }
            });
        }
    });
    fs.fsync(fd).unwrap();
    let data = fs.read_file("/race.log").unwrap();
    assert_eq!(data.len(), 4 * 32 * 192);
    for rec in data.chunks(192) {
        assert!(
            rec.iter().all(|&b| b == rec[0]),
            "a gathered append must land as one contiguous record"
        );
    }
}

#[test]
fn fsync_many_retires_m_files_in_one_journal_transaction() {
    let fs = strict_fs();
    const FILES: usize = 5;
    let mut fds = Vec::new();
    for i in 0..FILES {
        let fd = fs
            .open(&format!("/many-{i}.dat"), OpenFlags::create())
            .unwrap();
        // Block-aligned appends so the whole batch relinks with no
        // unaligned head/tail copies (copies would journal separately).
        fs.append(fd, &vec![i as u8 + 1; 8192]).unwrap();
        fds.push(fd);
    }

    let before = fs.device().stats().snapshot();
    fs.fsync_many(&fds).unwrap();
    let delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(
        delta.journal_txns, 1,
        "one journal transaction commits every file's relink: {delta:?}"
    );
    assert_eq!(delta.batched_relinks, 1, "one ioctl covers all five files");
    assert_eq!(delta.relink_batch_ops as usize, FILES);
    assert_eq!(delta.fsync_many_calls, 1);
    assert_eq!(delta.fsync_many_files as usize, FILES);

    // Everything is durably in its target file.
    for (i, _) in fds.iter().enumerate() {
        let data = fs.read_file(&format!("/many-{i}.dat")).unwrap();
        assert_eq!(data, vec![i as u8 + 1; 8192]);
    }

    // Compare: fsyncing the same files one at a time costs one
    // transaction per file.
    for (i, &fd) in fds.iter().enumerate() {
        fs.append(fd, &vec![i as u8 + 1; 8192]).unwrap();
    }
    let before = fs.device().stats().snapshot();
    for &fd in &fds {
        fs.fsync(fd).unwrap();
    }
    let loop_delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(loop_delta.journal_txns as usize, FILES);
}

#[test]
fn fsync_many_with_nothing_staged_only_fences() {
    let fs = strict_fs();
    let a = fs.open("/a", OpenFlags::create()).unwrap();
    let b = fs.open("/b", OpenFlags::create()).unwrap();
    fs.fsync_many(&[a, b]).unwrap();
    let before = fs.device().stats().snapshot();
    fs.fsync_many(&[a, b, a]).unwrap(); // duplicates are fine
    let delta = fs.device().stats().snapshot().delta(&before);
    assert_eq!(delta.batched_relinks, 0);
    assert_eq!(delta.fences, 1);
}

/// `fsync(fd)` is `fsync_many(&[fd])` with one guard: on identical
/// instances the two leave identical statistics behind, down to the
/// simulated time, apart from the `fsync_many` call counters.
#[test]
fn fsync_is_fsync_many_of_one() {
    let run = |batched: bool| {
        let fs = strict_fs();
        let fd = fs.open("/one.dat", OpenFlags::create()).unwrap();
        let before = fs.device().stats().snapshot();
        let sync = |fd| match batched {
            true => fs.fsync_many(&[fd]),
            false => fs.fsync(fd),
        };
        // Unaligned appends, then an overwrite of staged bytes (a second
        // relink generation), then nothing staged at all.
        fs.append(fd, &vec![0x11; 10_000]).unwrap();
        fs.append(fd, &vec![0x22; 3_000]).unwrap();
        sync(fd).unwrap();
        fs.append(fd, &vec![0x33; 8192]).unwrap();
        fs.write_at(fd, 12_000, &[0x44; 5_000]).unwrap();
        sync(fd).unwrap();
        sync(fd).unwrap();
        let mut delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.fsync_many_calls, if batched { 3 } else { 0 });
        delta.fsync_many_calls = 0;
        delta.fsync_many_files = 0;
        (delta, fs.read_file("/one.dat").unwrap())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn writev_at_straddling_eof_overwrites_and_stages_in_one_call() {
    // POSIX mode: the overwrite half goes in place through the mmaps, the
    // append half is staged — one call, correct split.
    let device = PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(device).unwrap();
    let config = SplitConfig::new(Mode::Posix)
        .with_staging(4, 16 * 1024 * 1024)
        .without_daemon();
    let fs = SplitFs::new(kernel, config).unwrap();

    let fd = fs.open("/straddle.bin", OpenFlags::create()).unwrap();
    fs.append(fd, &vec![0xAA; 8192]).unwrap();
    fs.fsync(fd).unwrap();

    let head = vec![0xBB; 3000];
    let tail = vec![0xCC; 9000];
    let n = fs
        .writev_at(fd, 6000, &[IoVec::new(&head), IoVec::new(&tail)])
        .unwrap();
    assert_eq!(n, 12000);
    fs.fsync(fd).unwrap();

    let data = fs.read_file("/straddle.bin").unwrap();
    assert_eq!(data.len(), 18000);
    assert!(data[..6000].iter().all(|&b| b == 0xAA));
    assert!(data[6000..9000].iter().all(|&b| b == 0xBB));
    assert!(data[9000..].iter().all(|&b| b == 0xCC));
}
