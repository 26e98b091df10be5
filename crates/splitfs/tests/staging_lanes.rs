//! The staging pool: recycle-path correctness and crash recovery.
//!
//! The contracts under test:
//!
//! * a fully-retired staging file recycled through the `StagingRecycle`
//!   machinery re-enters the pool's free list, and an aborted recycle
//!   puts it back where it was;
//! * a crash anywhere around a recycle — file out of the pool, marker
//!   durable, rebuild not yet done — recovers to the right file contents
//!   and a freshly mounted instance rebuilds a consistent pool (fully
//!   stocked, cursors reset, leftovers reclaimed);
//! * staged bytes that leave without a relink — dropped with a replaced
//!   file, or taken by a write that then failed — count as retired, so
//!   their staging files recycle; a truncate applies what it cuts first,
//!   so recovery does not bring it back, even when the log is full.

use std::sync::Arc;

use pmem::{PmemBuilder, PmemDevice};
use splitfs::{recover, Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, OpenFlags};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(256 * 1024 * 1024).build()
}

const FILE_SIZE: u64 = 2 * 1024 * 1024;

fn laned_config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, FILE_SIZE)
        .with_oplog_size(256 * 1024)
        .without_daemon()
}

/// Appends one staging file's worth (plus a little) so the pool's cursor
/// moves past its first file, and leaves it all staged.  Returns
/// the descriptor and the file's expected contents.
fn stage_past_one_staging_file(fs: &Arc<SplitFs>, path: &str, fill: u8) -> (vfs::Fd, Vec<u8>) {
    let fd = fs.open(path, OpenFlags::create()).unwrap();
    let mut content = Vec::new();
    let block = vec![fill; 64 * 1024];
    let blocks = (FILE_SIZE / block.len() as u64) + 2;
    for _ in 0..blocks {
        fs.append(fd, &block).unwrap();
        content.extend_from_slice(&block);
    }
    (fd, content)
}

/// [`stage_past_one_staging_file`], then fsync so every staged byte is
/// retired.  Returns the file's expected contents.
fn exhaust_one_staging_file(fs: &Arc<SplitFs>, path: &str, fill: u8) -> Vec<u8> {
    let (fd, content) = stage_past_one_staging_file(fs, path, fill);
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    content
}

#[test]
fn recycled_staging_file_reenters_the_lane_it_came_from() {
    let device = device();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), laned_config()).unwrap();
    let pool = fs.staging_pool();

    exhaust_one_staging_file(&fs, "/wal.log", 0x5A);

    // The pool's first file is now exhausted and fully retired.
    let rec = pool.begin_recycle().expect("an exhausted, retired file");
    let ino = rec.ino();
    assert!(!pool.holds(ino), "a file mid-recycle is out of the pool");
    let before = pool.unconsumed_files();
    pool.rebuild(rec).unwrap();
    assert!(
        pool.holds(ino),
        "rebuild returned the file to the pool's free list"
    );
    assert_eq!(
        pool.unconsumed_files(),
        before + 1,
        "the pool regained one unconsumed file"
    );
    assert_eq!(device.stats().snapshot().staging_recycles, 1);

    // An aborted recycle puts the file back, still exhausted.
    exhaust_one_staging_file(&fs, "/wal2.log", 0x3C);
    let rec = pool.begin_recycle().expect("second recyclable file");
    let ino = rec.ino();
    let before = pool.unconsumed_files();
    pool.abort_recycle(rec);
    assert!(pool.holds(ino), "abort restores the file");
    assert_eq!(
        pool.unconsumed_files(),
        before,
        "the aborted file went back as exhausted, not unconsumed"
    );
}

#[test]
fn crash_mid_recycle_recovers_contents_and_lane_geometry() {
    let device = device();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = laned_config();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let pool = fs.staging_pool();

    let content = exhaust_one_staging_file(&fs, "/db.log", 0x77);
    // Stage (but do not fsync) a second file: its bytes live only in
    // staging plus the log, so recovery must replay them.
    let fd = fs.open("/tail.log", OpenFlags::create()).unwrap();
    let tail = vec![0xE1u8; 100_000];
    fs.append(fd, &tail).unwrap();

    // Crash **mid-recycle**: the retired staging file is out of the pool
    // (DRAM state only) but neither truncated nor rebuilt — exactly the
    // window between `begin_recycle` and the durable marker/rebuild.
    let rec = pool.begin_recycle().expect("a recyclable file");
    let recycled_ino = rec.ino();
    drop(rec); // the crash destroys the in-flight recycle bookkeeping
    drop(fs);
    device.crash();

    let kernel2 = kernelfs::Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert!(report.replayed > 0, "the unsynced tail replays: {report:?}");
    assert_eq!(
        kernel2.read_file("/db.log").unwrap(),
        content,
        "relinked bytes survive a crash mid-recycle"
    );
    assert_eq!(kernel2.read_file("/tail.log").unwrap(), tail);

    // A fresh instance adopts the staging directory and rebuilds a
    // consistent pool: fully stocked, every cursor reset.
    let fs2 = SplitFs::new(Arc::clone(&kernel2), config.clone()).unwrap();
    let pool2 = fs2.staging_pool();
    assert_eq!(
        pool2.unconsumed_files(),
        config.staging_files,
        "every adopted staging file is unconsumed again (cursors rebuilt)"
    );
    // Every cursor is at zero: block by block, the pool hands out each
    // adopted file whole, from its first block to its last.
    let mut files = Vec::new();
    let mut expected = 0;
    for _ in 0..config.staging_files as u64 * FILE_SIZE / 4096 {
        let a = pool2.take(4096, 0, None).unwrap();
        if files.last() != Some(&a.staging_ino) {
            files.push(a.staging_ino);
            expected = 0;
        }
        assert_eq!(
            (a.staging_offset, a.len),
            (expected, 4096),
            "staging file {} was handed out from a reset cursor",
            files.len() - 1
        );
        expected += 4096;
    }
    assert_eq!(files.len(), config.staging_files);
    assert_eq!(
        device.stats().snapshot().staging_inline_creates,
        0,
        "nothing was built inline"
    );
    // The file caught mid-recycle is back in rotation (adopted) and the
    // instance is fully writable.
    assert!(
        pool2.holds(recycled_ino)
            || kernel2
                .open_by_ino(recycled_ino, OpenFlags::read_only())
                .is_err(),
        "the mid-recycle file either rejoined the pool or was reclaimed"
    );
    let fd = fs2.open("/after.log", OpenFlags::create()).unwrap();
    fs2.append(fd, b"post-recovery append").unwrap();
    fs2.fsync(fd).unwrap();
    assert_eq!(
        fs2.read_file("/after.log").unwrap(),
        b"post-recovery append"
    );
}

#[test]
fn remount_truncates_staging_leftovers_beyond_the_pool_size() {
    let device = device();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // First incarnation provisions extra files beyond the configured
    // pool: emulate by taking enough to force inline creations.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, FILE_SIZE)
        .with_oplog_size(256 * 1024)
        .without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let fd = fs.open("/big.log", OpenFlags::create()).unwrap();
    let block = vec![0x42u8; 128 * 1024];
    // > 2 files' capacity: the pool must create extras inline.
    for _ in 0..40 {
        fs.append(fd, &block).unwrap();
    }
    fs.fsync(fd).unwrap();
    assert!(device.stats().snapshot().staging_inline_creates > 0);
    fs.close(fd).unwrap();
    drop(fs);

    // Remount: the new pool adopts `staging_files` files and truncates
    // the leftovers so their blocks return to the allocator.
    let fs2 = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let entries = kernel.readdir(fs2.staging_dir()).unwrap();
    let mut rebuilt = 0;
    let mut reclaimed = 0;
    for name in entries.iter().filter(|n| n.starts_with("stage-")) {
        let stat = kernel
            .stat(&format!("{}/{}", fs2.staging_dir(), name))
            .unwrap();
        if stat.size == FILE_SIZE {
            rebuilt += 1;
        } else {
            assert_eq!(stat.size, 0, "{name}: leftovers are truncated");
            reclaimed += 1;
        }
    }
    assert_eq!(rebuilt, config.staging_files, "adopted set matches config");
    assert!(reclaimed > 0, "the inline extras were reclaimed");
}

/// Staged bytes that leave without a relink — a truncate, or the last
/// close of a file a rename replaced — are accounted as retired, so the
/// staging file they filled can recycle.
#[test]
fn discarded_staged_bytes_release_their_staging_file() {
    for replaced_by_rename in [false, true] {
        let device = device();
        let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, laned_config()).unwrap();
        let pool = fs.staging_pool();
        let (fd, _) = stage_past_one_staging_file(&fs, "/victim.log", 0x42);
        assert!(
            pool.begin_recycle().is_none(),
            "unapplied staged bytes pin their staging file"
        );
        if replaced_by_rename {
            fs.write_file("/fresh.log", b"replacement").unwrap();
            fs.rename("/fresh.log", "/victim.log").unwrap();
            // The replaced file keeps its staged bytes while a descriptor
            // holds it; its last close discards them.
            assert!(
                pool.begin_recycle().is_none(),
                "the open replaced file still reads its staged bytes"
            );
            fs.close(fd).unwrap();
        } else {
            fs.ftruncate(fd, 0).unwrap();
        }
        let rec = pool.begin_recycle().unwrap_or_else(|| {
            panic!("rename={replaced_by_rename}: the discarded bytes still pin their file")
        });
        pool.rebuild(rec).unwrap();
        if !replaced_by_rename {
            fs.close(fd).unwrap();
        }
    }
}

/// A strict instance over a small device, with `/victim.log` open.
fn small_device_fs() -> (Arc<kernelfs::Ext4Dax>, Arc<SplitFs>, vfs::Fd) {
    let device = PmemBuilder::new(32 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), laned_config()).unwrap();
    let fd = fs.open("/victim.log", OpenFlags::create()).unwrap();
    (kernel, fs, fd)
}

/// Writes `/fill` through K-Split until no block is free; returns its
/// descriptor for [`free_device`].
fn fill_device(kernel: &kernelfs::Ext4Dax) -> vfs::Fd {
    let fill = kernel.open("/fill", OpenFlags::create()).unwrap();
    let mut filled = 0;
    for chunk in [1024 * 1024, 4096] {
        while kernel.write_at(fill, filled, &vec![1u8; chunk]).is_ok() {
            filled += chunk as u64;
        }
    }
    assert_eq!(kernel.free_blocks(), 0);
    fill
}

fn free_device(kernel: &kernelfs::Ext4Dax, fill: vfs::Fd) {
    kernel.close(fill).unwrap();
    kernel.unlink("/fill").unwrap();
}

/// Recycles `files` exhausted staging files, or names the one the failed
/// write still pins.
fn recycle(fs: &SplitFs, files: usize) {
    let pool = fs.staging_pool();
    for file in 0..files {
        let rec = pool
            .begin_recycle()
            .unwrap_or_else(|| panic!("staging file {file} is pinned by the failed write"));
        pool.rebuild(rec).unwrap();
    }
}

/// A write that runs out of staging space part-way fails with `NoSpace`,
/// and the staging it took before that holds nothing anyone will relink:
/// it counts as retired, so once the file's live data is relinked its
/// staging files recycle.
#[test]
fn a_write_that_runs_out_of_staging_space_leaves_its_staging_files_recyclable() {
    let (kernel, fs, fd) = small_device_fs();
    // Live data: all of the first staging file but its last block.
    let live = vec![0x4Cu8; FILE_SIZE as usize - 4096];
    fs.append(fd, &live).unwrap();
    let fill = fill_device(&kernel);

    // The last block of the first staging file and all of the second are
    // taken before the third take finds the pool dry and the device full.
    let doomed = vec![0xD0u8; FILE_SIZE as usize + 8192];
    assert_eq!(fs.append(fd, &doomed), Err(vfs::FsError::NoSpace));
    assert_eq!(fs.fstat(fd).unwrap().size, live.len() as u64);

    free_device(&kernel, fill);
    fs.fsync(fd).unwrap();
    recycle(&fs, 2);
    // And the pool serves the write now.
    fs.append(fd, &doomed).unwrap();
    fs.fsync(fd).unwrap();
    assert!(fs.read_file("/victim.log").unwrap() == [live, doomed].concat());
}

/// The same for a write whose log group commit fails: the active epoch is
/// full, the sealed one is not yet retired, and the log cannot grow on a
/// full device.
#[test]
fn a_write_whose_group_commit_fails_leaves_its_staging_file_recyclable() {
    let (kernel, fs, fd) = small_device_fs();
    // Nothing retires the sealed half: the daemon is off.
    assert!(fs.seal_oplog_epoch());
    // One 1 KiB append is one entry.  Fill the active epoch but one slot,
    // and the first staging file but its last kilobyte.
    let epoch_entries = 256 * 1024 / 2 / 64;
    let mut live = Vec::new();
    for i in 0..epoch_entries - 1 {
        let kib = [i as u8; 1024];
        fs.append(fd, &kib).unwrap();
        live.extend_from_slice(&kib);
    }
    assert_eq!(fs.oplog_entries(), epoch_entries as u64 - 1);
    let fill = fill_device(&kernel);

    // Two runs, the first staging file's last kilobyte and a fresh block
    // of the second, need two slots.
    let doomed = vec![0xD0u8; 4096];
    assert_eq!(fs.append(fd, &doomed), Err(vfs::FsError::NoSpace));
    assert_eq!(fs.fstat(fd).unwrap().size, live.len() as u64);

    free_device(&kernel, fill);
    fs.fsync(fd).unwrap();
    recycle(&fs, 1);
    fs.append(fd, &doomed).unwrap();
    fs.fsync(fd).unwrap();
    assert!(fs.read_file("/victim.log").unwrap() == [live, doomed].concat());
}

/// A log group that finds the log full, on a device with no block left:
/// the writer's checkpoint cannot relink the staged 1 KiB tails, whose
/// partial blocks are copied into new ones, so the append fails with
/// `NoSpace`, is counted as a checkpoint stall and changes nothing.  The
/// log file keeps its size, no descriptor is left open, so the
/// instance's files give back every block once they are unlinked, and
/// the same append succeeds once space is freed.
#[test]
fn a_checkpoint_with_no_blocks_left_fails_with_state_unchanged() {
    let device = PmemBuilder::new(32 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // The root directory takes a data block with its first entry and keeps
    // it; every other block the test takes must come back.
    let first = kernel.open("/victim.log", OpenFlags::create()).unwrap();
    kernel.close(first).unwrap();
    kernel.unlink("/victim.log").unwrap();
    let after_mkfs = kernel.free_blocks();
    let fs = SplitFs::new(Arc::clone(&kernel), laned_config()).unwrap();
    let fd = fs.open("/victim.log", OpenFlags::create()).unwrap();
    // The sealed half stays pending (the daemon is off) and the active one
    // has one slot left, so a two-entry group can only checkpoint.
    assert!(fs.seal_oplog_epoch());
    let mut live = Vec::new();
    for i in 0..256 * 1024 / 2 / 64 - 1 {
        let kib = [i as u8; 1024];
        fs.append(fd, &kib).unwrap();
        live.extend_from_slice(&kib);
    }
    let log_size = kernel.stat(fs.oplog_file()).unwrap().size;
    let fill = fill_device(&kernel);

    let doomed = vec![0xD0u8; 4096];
    let stalls = || device.stats().snapshot().checkpoint_stalls;
    assert_eq!(fs.append(fd, &doomed), Err(vfs::FsError::NoSpace));
    assert_eq!(stalls(), 1);
    let mut read = vec![0u8; live.len() + doomed.len()];
    assert_eq!(fs.read_at(fd, 0, &mut read), Ok(live.len()));
    assert!(read[..live.len()] == live);
    assert_eq!(kernel.stat(fs.oplog_file()).unwrap().size, log_size);
    assert_eq!(kernel.check_namespace(), Vec::<String>::new());

    free_device(&kernel, fill);
    fs.append(fd, &doomed).unwrap();
    assert_eq!(stalls(), 2);
    assert_eq!(kernel.stat(fs.oplog_file()).unwrap().size, log_size);
    fs.fsync(fd).unwrap();
    assert!(fs.read_file("/victim.log").unwrap() == [live, doomed].concat());
    fs.close(fd).unwrap();

    let dir = fs.staging_dir().to_string();
    drop(fs);
    kernel.unlink("/victim.log").unwrap();
    for name in kernel.readdir(&dir).unwrap() {
        kernel.unlink(&format!("{dir}/{name}")).unwrap();
    }
    kernel.rmdir(&dir).unwrap();
    assert_eq!(
        kernel.free_blocks(),
        after_mkfs,
        "an open orphan holds blocks"
    );
}

/// A new instance whose log cannot be extended to the configured size
/// fails with `NoSpace` and keeps no descriptor on the log file, so the
/// log and the staging directory give back every block once they are
/// unlinked.
#[test]
fn a_mount_that_cannot_size_its_log_fails_without_an_open_orphan() {
    let device = PmemBuilder::new(32 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // The root directory takes a data block with its first entry and keeps
    // it; every other block the test takes must come back.
    let first = kernel.open("/fill", OpenFlags::create()).unwrap();
    kernel.close(first).unwrap();
    kernel.unlink("/fill").unwrap();
    let after_mkfs = kernel.free_blocks();
    let small = laned_config().with_oplog_size(64 * 1024);
    let fs = SplitFs::new(Arc::clone(&kernel), small.clone()).unwrap();
    let dir = fs.staging_dir().to_string();
    drop(fs);

    // The staging files are adopted in place; only the log must grow.
    let fill = fill_device(&kernel);
    let grown = small.with_oplog_size(1024 * 1024);
    assert_eq!(
        SplitFs::new(Arc::clone(&kernel), grown).err(),
        Some(vfs::FsError::NoSpace)
    );
    assert_eq!(kernel.check_namespace(), Vec::<String>::new());

    free_device(&kernel, fill);
    for name in kernel.readdir(&dir).unwrap() {
        kernel.unlink(&format!("{dir}/{name}")).unwrap();
    }
    kernel.rmdir(&dir).unwrap();
    assert_eq!(
        kernel.free_blocks(),
        after_mkfs,
        "an open orphan holds blocks"
    );
}

/// A staging file the pool cannot size fails `provision` with `NoSpace`
/// and keeps no descriptor on the file: once it is unlinked, its inode is
/// gone.
#[test]
fn a_staging_file_that_cannot_be_sized_fails_without_an_open_orphan() {
    let device = PmemBuilder::new(32 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), laned_config()).unwrap();
    let dir = fs.staging_dir().to_string();
    let before = kernel.readdir(&dir).unwrap();

    let fill = fill_device(&kernel);
    assert_eq!(
        fs.staging_pool().provision().err(),
        Some(vfs::FsError::NoSpace)
    );
    let mut left = kernel.readdir(&dir).unwrap();
    left.retain(|name| !before.contains(name));
    assert_eq!(left.len(), 1, "the failed build left its empty file");
    let path = format!("{dir}/{}", left[0]);
    let ino = kernel.stat(&path).unwrap().ino;
    kernel.unlink(&path).unwrap();
    assert_eq!(
        kernel.open_by_ino(ino, OpenFlags::read_only()).err(),
        Some(vfs::FsError::NotFound),
        "the unlinked staging file lives on as an open orphan"
    );
    assert_eq!(kernel.check_namespace(), Vec::<String>::new());
    free_device(&kernel, fill);
}

/// A log group larger than a whole epoch fails with `NoSpace` and changes
/// nothing: no checkpoint can make room for it, so a writer that sealed
/// and checkpointed to make some would do so forever.  The batch runs on
/// a helper thread so a livelock fails the test instead of hanging it.
#[test]
fn a_log_group_larger_than_an_epoch_fails_with_state_unchanged() {
    const APPENDS: usize = 40;
    let (done, finished) = std::sync::mpsc::channel();
    let batch = std::thread::spawn(move || {
        let device = PmemBuilder::new(32 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        // 4 KiB of log: two epochs of 32 entries.
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(2, FILE_SIZE)
            .with_oplog_size(4096)
            .without_daemon();
        let fs = SplitFs::new(kernel, config).unwrap();
        let fd = fs.open("/burst.log", OpenFlags::create()).unwrap();
        // Each small append of the batch is its own staged run, so the
        // batch's group commit carries one entry per append.
        let sqes = (0..APPENDS)
            .map(|i| aio::Sqe::appendv(i as u64, fd, vec![vec![i as u8; 100]]))
            .collect();
        let results: Vec<_> = fs.ring_batch(sqes).into_iter().map(|c| c.result).collect();
        let unchanged = (
            fs.fstat(fd).unwrap().size,
            fs.oplog_entries(),
            device.stats().snapshot().oplog_epoch_swaps,
        );
        // The batch took staging space and gave it back: a batch that fits
        // goes through as if the failed one never ran.
        let small = (0..4)
            .map(|i| aio::Sqe::appendv(i, fd, vec![vec![i as u8; 100]]))
            .collect();
        let after: Vec<_> = fs.ring_batch(small).into_iter().map(|c| c.result).collect();
        fs.fsync(fd).unwrap();
        done.send(()).unwrap();
        (
            results,
            unchanged,
            after,
            fs.read_file("/burst.log").unwrap(),
        )
    });
    // A panic drops the sender and surfaces through the join below.
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        finished.recv_timeout(std::time::Duration::from_secs(60))
    {
        panic!("a group larger than an epoch livelocked the writer");
    }
    let (results, unchanged, after, content) = batch.join().expect("the batch thread panicked");
    assert!(
        results.iter().all(|r| *r == Err(vfs::FsError::NoSpace)),
        "{results:?}"
    );
    assert_eq!(unchanged, (0, 0, 0), "size, log entries and epoch swaps");
    assert!(after.iter().all(|r| *r == Ok(100)), "{after:?}");
    let expected: Vec<u8> = (0..4).flat_map(|i| vec![i as u8; 100]).collect();
    assert!(content == expected, "{} bytes read back", content.len());
}

/// A crash right after a truncate cut staged bytes must not bring them
/// back: the truncate applies them and cuts them in the file, while
/// writes staged after it still replay.
#[test]
fn recovery_does_not_resurrect_discarded_staged_bytes() {
    let device = device();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = laned_config();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();

    // Everything staged is cut off, then the file is written again.
    let emptied = fs.open("/emptied.log", OpenFlags::create()).unwrap();
    fs.append(emptied, &vec![0xD1u8; 100_000]).unwrap();
    fs.ftruncate(emptied, 0).unwrap();
    fs.append(emptied, b"written after the truncate").unwrap();
    // A truncate through the middle of one staged write.
    let halved = fs.open("/halved.log", OpenFlags::create()).unwrap();
    fs.append(halved, &vec![0xD2u8; 8192]).unwrap();
    fs.ftruncate(halved, 4096).unwrap();

    drop(fs);
    device.crash();
    let kernel2 = kernelfs::Ext4Dax::mount(Arc::clone(&device)).unwrap();
    recover(&kernel2, &config).unwrap();
    let emptied = kernel2.read_file("/emptied.log").unwrap();
    assert!(
        emptied == b"written after the truncate",
        "{} bytes came back",
        emptied.len()
    );
    let halved = kernel2.read_file("/halved.log").unwrap();
    assert!(halved == [0xD2u8; 4096], "{} bytes came back", halved.len());
}

/// A truncate that returned on a full log is not undone by recovery.  32
/// appends of 100 B fill the first epoch of a 4 KiB log exactly, so the
/// marker saying the cut writes must not replay finds no room; the
/// truncate applies them, commits the marker after a seal and cuts them
/// in the file.  With the first epoch sealed beforehand, 29 appends fill
/// the second, and the truncate checkpoints before its marker fits.  Both
/// ways of cutting: `ftruncate` and an `O_TRUNC` open.
#[test]
fn a_truncate_on_a_full_log_is_not_undone_by_recovery() {
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, FILE_SIZE)
        .with_oplog_size(4096)
        .without_daemon();
    for (o_trunc, sealed) in [(false, false), (true, false), (false, true), (true, true)] {
        let case = format!("O_TRUNC {o_trunc}, sealed {sealed}");
        let device = device();
        let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, config.clone()).unwrap();
        let fd = fs.open("/a", OpenFlags::create()).unwrap();
        let appends = if sealed { 29 } else { 32 };
        assert!(!sealed || fs.seal_oplog_epoch());
        for i in 0..appends {
            fs.append(fd, &[i; 100]).unwrap();
        }
        assert_eq!(fs.oplog_entries(), appends as u64, "{case}");
        let stalls = device.stats().snapshot().checkpoint_stalls;
        if o_trunc {
            fs.open("/a", OpenFlags::create_truncate()).unwrap();
        } else {
            fs.ftruncate(fd, 0).unwrap();
        }
        assert_eq!(fs.fstat(fd).unwrap().size, 0, "{case}");
        let checkpointed = device.stats().snapshot().checkpoint_stalls - stalls;
        assert_eq!(checkpointed, sealed as u64, "{case}");

        drop(fs);
        device.crash();
        let kernel2 = kernelfs::Ext4Dax::mount(Arc::clone(&device)).unwrap();
        let report = recover(&kernel2, &config).unwrap();
        assert_eq!(report.replayed, 0, "{case}: {report:?}");
        let content = kernel2.read_file("/a").unwrap();
        assert!(
            content.is_empty(),
            "{case}: {} bytes came back",
            content.len()
        );
    }
}
