//! The operation log's chunk map: recovery reads the map and then only the
//! chunks it marks.  These tests hold that bound to a whole-file scan that
//! knows nothing of the map — at every fence of the operations that move
//! the map, under every crash policy — and show that the map does not
//! decay back into a full scan over a long run of epoch swaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kernelfs::{DaxMapping, Ext4Dax};
use pmem::{CrashPolicy, PmemBuilder, PmemDevice};
use splitfs::oplog::{
    is_reserved, LogEntry, OpLog, Watermarks, CHUNK_SIZE, ENTRY_SIZE, MAP_OFFSET, WATERMARK_OFFSET,
};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::util::is_zeroed;
use vfs::{FileSystem, OpenFlags};

const MIB: u64 = 1024 * 1024;

fn new_device(policy: CrashPolicy) -> Arc<PmemDevice> {
    PmemBuilder::new(16 * MIB as usize)
        .track_persistence(true)
        .crash_policy(policy)
        .build()
}

/// Strict mode, daemon off so every seal and checkpoint is the test's
/// own, over a log of `chunks` chunks.
fn config(chunks: u64) -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 2 * MIB)
        .with_oplog_size(chunks * CHUNK_SIZE)
        .without_daemon()
}

/// What the whole-file scan finds outside the reserved slots: every
/// live entry, sorted by sequence number, and the offset of every slot
/// that holds one.  Every other slot is zero, torn, or an entry at or
/// below its region's watermark.
struct WholeFile {
    entries: Vec<LogEntry>,
    live: Vec<u64>,
    watermarks: Option<Watermarks>,
}

/// Every slot of the file, read a 4 KiB block at a time and judged
/// against the watermark record: a scan that knows nothing of the map.
fn whole_file_scan(device: &PmemDevice, mapping: &DaxMapping, size: u64) -> WholeFile {
    let watermarks = Watermarks::read(device, mapping);
    let retired = watermarks.unwrap_or_default();
    let mut scan = WholeFile {
        entries: Vec::new(),
        live: Vec::new(),
        watermarks,
    };
    let mut block = [0u8; 4096];
    let mut off = 0u64;
    while off + ENTRY_SIZE <= size {
        let want = (size - off).min(block.len() as u64);
        let Some((dev_off, contig)) = mapping.translate(off) else {
            off += want;
            continue;
        };
        let n = (want.min(contig) / ENTRY_SIZE * ENTRY_SIZE) as usize;
        if n == 0 {
            off += ENTRY_SIZE;
            continue;
        }
        let block = &mut block[..n];
        device.read_uncharged(dev_off, block);
        for (i, slot) in block.chunks_exact(ENTRY_SIZE as usize).enumerate() {
            let at = off + i as u64 * ENTRY_SIZE;
            if is_reserved(at) || is_zeroed(slot) {
                continue;
            }
            if let Some(entry) = LogEntry::decode(slot).filter(|e| !retired.retires(e)) {
                scan.live.push(at);
                scan.entries.push(entry);
            }
        }
        off += n as u64;
    }
    scan.entries.sort_by_key(|e| e.seq);
    scan
}

/// Runs `f` over the mapping and size of instance 0's log on `kernel`.
fn with_log<T>(kernel: &Arc<Ext4Dax>, f: impl FnOnce(&DaxMapping, u64) -> T) -> T {
    let fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
    let size = kernel.fstat(fd).unwrap().size;
    let mapping = kernel.dax_map(fd, 0, size, false).unwrap();
    let out = f(&mapping, size);
    kernel.close(fd).unwrap();
    out
}

/// Files and the bytes every recovery must leave in them.
type Expected = Arc<Vec<(&'static str, Vec<u8>)>>;

/// Mounts the crash image on `device`, checks that the bounded scan finds
/// exactly the live entries the whole-file scan does — none at or below
/// its region's watermark, none missed — recovers, and checks that the
/// files hold `expected` and the log nothing live afterwards: every slot
/// outside the reserved ones is zero, torn, or an entry at or below its
/// region's watermark, and the map is clear.
fn check_crash_image(
    device: &Arc<PmemDevice>,
    config: &SplitConfig,
    expected: &[(&str, Vec<u8>)],
    what: &str,
) {
    let kernel = Ext4Dax::mount(Arc::clone(device)).expect("mount");
    with_log(&kernel, |mapping, size| {
        let bounded = OpLog::survey(device, mapping, size);
        let whole = whole_file_scan(device, mapping, size);
        assert_eq!(
            bounded.watermarks, whole.watermarks,
            "{what}: records differ"
        );
        assert_eq!(bounded.entries, whole.entries, "{what}: entries differ");
    });
    recover(&kernel, config).expect("oplog replay");
    for (path, content) in expected {
        assert!(
            kernel.read_file(path).unwrap() == *content,
            "{what}: {path} differs after recovery"
        );
    }
    with_log(&kernel, |mapping, size| {
        let whole = whole_file_scan(device, mapping, size);
        assert!(whole.watermarks.is_some(), "{what}: no watermark record");
        assert_eq!(whole.live, [] as [u64; 0], "{what}: live after recovery");
    });
    assert_eq!(
        marked_chunks(&kernel),
        [] as [u64; 0],
        "{what}: map left marked"
    );
}

/// Runs `op` with power failing at each of its fences in turn: every
/// crash image is checked on `spare`.  Returns how many were.
fn cut_every_fence(
    device: &Arc<PmemDevice>,
    spare: &Arc<PmemDevice>,
    config: &SplitConfig,
    expected: &Expected,
    what: &str,
    op: impl FnOnce(),
) -> u64 {
    let points = Arc::new(AtomicU64::new(0));
    {
        let (spare, config, what) = (Arc::clone(spare), config.clone(), what.to_string());
        let expected = Arc::clone(expected);
        let points = Arc::clone(&points);
        device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
            let image = dev.capture_crash_image();
            spare.restore_crash_image(&image);
            drop(image);
            let what = format!("{what}, before fence {ordinal}");
            check_crash_image(&spare, &config, &expected, &what);
            points.fetch_add(1, Ordering::Relaxed);
        })));
    }
    op();
    device.set_fence_hook(None);
    points.load(Ordering::Relaxed)
}

/// The chunks the map marks, read from the log file.
fn marked_chunks(kernel: &Arc<Ext4Dax>) -> Vec<u64> {
    let log = kernel.read_file(OPLOG_PATH).unwrap();
    let map = &log[MAP_OFFSET as usize..(MAP_OFFSET + ENTRY_SIZE) as usize];
    (0..log.len() as u64 / CHUNK_SIZE)
        .filter(|&c| map[(c / 8) as usize] >> (c % 8) & 1 == 1)
        .collect()
}

#[test]
fn a_crash_at_any_fence_of_what_moves_the_map_loses_no_entry() {
    // Both seeds tear the line of an entry that opens a chunk so that
    // some of it survives while the map's bit for the chunk does not,
    // should the two stores ever share a fence.
    for policy in [
        CrashPolicy::LoseUnflushed,
        CrashPolicy::TornWrites { seed: 1 },
        CrashPolicy::TornWrites { seed: 5 },
    ] {
        let device = new_device(policy);
        let spare = new_device(CrashPolicy::LoseUnflushed);
        let none = Expected::default();
        // Two chunks: epoch 0 is chunk 0 less the reserved slots, epoch 1 is
        // chunk 1.
        let config = config(2);
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
        let fd = fs.open("/a.db", OpenFlags::create()).unwrap();
        for i in 0..4u8 {
            fs.append(fd, &[i + 1; 1000]).unwrap();
        }
        assert!(fs.seal_oplog_epoch());
        assert_eq!(marked_chunks(&kernel), [0]);

        // An append that opens chunk 1: its map bit, then its entry.
        let cuts = cut_every_fence(&device, &spare, &config, &none, "opening append", || {
            fs.append(fd, &[0xA0; 1000]).unwrap();
        });
        assert!(cuts >= 3, "{policy:?}: {cuts} fences in the append");
        assert_eq!(marked_chunks(&kernel), [0, 1]);

        // A checkpoint retires the sealed epoch: its watermark is stored,
        // then chunk 0's bit is cleared.
        let cuts = cut_every_fence(&device, &spare, &config, &none, "checkpoint", || {
            fs.checkpoint().unwrap();
        });
        assert!(cuts >= 2, "{policy:?}: {cuts} fences in the checkpoint");
        assert_eq!(marked_chunks(&kernel), [1]);

        // Seal epoch 1 and fill epoch 0 while it is pending: the next
        // append finds the log full and cannot seal, so it checkpoints —
        // relinks the file and retires epoch 1, clearing chunk 1's bit —
        // then seals epoch 0 and opens chunk 1 again.
        assert!(fs.seal_oplog_epoch());
        let full = fs.oplog_entries()
            + (CHUNK_SIZE - (MAP_OFFSET + ENTRY_SIZE - WATERMARK_OFFSET)) / ENTRY_SIZE;
        while fs.oplog_entries() < full {
            fs.append(fd, &[0xB0; 16]).unwrap();
        }
        assert_eq!(fs.oplog_entries(), full);
        let stalls = device.stats().snapshot().checkpoint_stalls;
        let cuts = cut_every_fence(
            &device,
            &spare,
            &config,
            &none,
            "checkpointing append",
            || {
                fs.append(fd, &[0xC0; 1000]).unwrap();
            },
        );
        assert_eq!(device.stats().snapshot().checkpoint_stalls, stalls + 1);
        assert!(cuts >= 5, "{policy:?}: {cuts} fences in the checkpoint");
        assert_eq!(marked_chunks(&kernel), [0, 1]);
        assert_eq!(kernel.stat(OPLOG_PATH).unwrap().size, 2 * CHUNK_SIZE);

        // Recovery stores one watermark record, then clears the map.  The
        // fsync settles the filler's thousand entries, so one replays.
        fs.fsync(fd).unwrap();
        fs.append(fd, &[0xD0; 1000]).unwrap();
        drop(fs);
        drop(kernel);
        device.crash();
        let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
        let cuts = cut_every_fence(&device, &spare, &config, &none, "recovery", || {
            recover(&kernel, &config).expect("oplog replay");
        });
        assert!(cuts >= 2, "{policy:?}: {cuts} fences in the recovery");
        assert_eq!(marked_chunks(&kernel), [] as [u64; 0]);
    }
}

#[test]
fn a_crash_at_any_fence_of_a_retirement_replays_every_live_entry_and_no_retired_one() {
    for policy in [
        CrashPolicy::LoseUnflushed,
        CrashPolicy::TornWrites { seed: 3 },
    ] {
        let device = new_device(policy);
        let spare = new_device(CrashPolicy::LoseUnflushed);
        // Four chunks: two per epoch.
        let config = config(4);
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
        // Held open, so nothing is relinked but by the checkpoint.
        let fds = ["/a.db", "/b.db"].map(|path| fs.open(path, OpenFlags::create()).unwrap());
        let mut files = vec![("/a.db", Vec::new()), ("/b.db", Vec::new())];
        let append = |files: &mut Vec<(&str, Vec<u8>)>, round: u8, count: usize| {
            for (i, (_, content)) in files.iter_mut().enumerate() {
                for k in 0..count {
                    let record = vec![round * 16 + (i * count + k) as u8 % 16 + 1; 700];
                    fs.append(fds[i], &record).unwrap();
                    content.extend_from_slice(&record);
                }
            }
        };
        // Epoch 0 takes the first round and is sealed; the second round
        // stays live in epoch 1 while epoch 0 retires.
        append(&mut files, 1, 40);
        assert!(fs.seal_oplog_epoch());
        append(&mut files, 2, 30);
        let expected: Expected = Arc::new(files.clone());
        let cuts = cut_every_fence(&device, &spare, &config, &expected, "checkpoint", || {
            fs.checkpoint().unwrap();
        });
        assert!(cuts >= 3, "{policy:?}: {cuts} fences in the checkpoint");
        let marks = with_log(&kernel, |mapping, _| Watermarks::read(&device, mapping));
        assert!(
            marks.is_some_and(|m| m.seq[0] > 0 && m.seq[1] == 0),
            "{policy:?}: the checkpoint raised epoch 0's watermark: {marks:?}"
        );

        // Live entries in both regions when the power fails: the second
        // round's, and a third round's appended after the checkpoint.
        append(&mut files, 3, 20);
        let expected: Expected = Arc::new(files);
        drop(fs);
        drop(kernel);
        device.crash();
        let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
        let cuts = cut_every_fence(&device, &spare, &config, &expected, "recovery", || {
            recover(&kernel, &config).expect("oplog replay");
        });
        assert!(cuts >= 2, "{policy:?}: {cuts} fences in the recovery");
        for (path, content) in expected.iter() {
            assert!(
                kernel.read_file(path).unwrap() == *content,
                "{policy:?}: {path}"
            );
        }
    }
}

#[test]
fn the_map_marks_only_chunks_holding_entries_however_many_epochs_swap() {
    let device = PmemBuilder::new(64 * MIB as usize)
        .track_persistence(false)
        .build();
    // Four chunks: two per epoch.
    let config = config(4);
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    let fd = fs.open("/wal.log", OpenFlags::create()).unwrap();
    let before = device.stats().snapshot();
    for round in 0..6 {
        // Enough entries to reach into an epoch's second chunk.
        for _ in 0..1500 {
            fs.append(fd, &[round + 1; 64]).unwrap();
        }
        fs.checkpoint().unwrap();
        let (holding, scanned) = with_log(&kernel, |mapping, size| {
            let whole = whole_file_scan(&device, mapping, size);
            let mut holding: Vec<u64> = whole.live.iter().map(|off| off / CHUNK_SIZE).collect();
            holding.dedup();
            (holding, OpLog::survey(&device, mapping, size).chunks)
        });
        assert!(
            !holding.is_empty(),
            "round {round}: the checkpoint's markers"
        );
        assert_eq!(
            marked_chunks(&kernel),
            holding,
            "round {round}: marked chunks against chunks holding live entries"
        );
        assert_eq!(scanned, holding, "round {round}: chunks the scan read");
    }
    let swaps = device.stats().snapshot().delta(&before).oplog_epoch_swaps;
    assert!(swaps >= 4, "{swaps} epoch swaps");
}
