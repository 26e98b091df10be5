//! The operation log's chunk map: recovery reads the map and then only the
//! chunks it marks.  These tests hold that bound to the whole-file scan it
//! replaced — at every fence of the operations that move the map, under
//! every crash policy — and show that the map does not decay back into a
//! full scan over a long run of epoch swaps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kernelfs::{DaxMapping, Ext4Dax};
use pmem::{CrashPolicy, PmemBuilder, PmemDevice};
use splitfs::oplog::{LogEntry, OpLog, CHUNK_SIZE, ENTRY_SIZE, MAP_OFFSET};
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

/// Strict mode, daemon off so every seal, checkpoint and growth is the
/// test's own, over a log of `chunks` chunks.
fn config(chunks: u64) -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 2 * MIB)
        .with_oplog_size(chunks * CHUNK_SIZE)
        .without_daemon()
}

/// What the whole-file scan finds: every checksum-valid entry, sorted by
/// sequence number, and the offset of every slot that is not all-zero.
struct WholeFile {
    entries: Vec<LogEntry>,
    written: Vec<u64>,
}

/// The scan recovery ran before the chunk map: every slot of the file,
/// read a 4 KiB block at a time.  It knows nothing of the map, so the
/// map's slot is among the `written` ones whenever a bit is set.
fn whole_file_scan(device: &PmemDevice, mapping: &DaxMapping, size: u64) -> WholeFile {
    let mut scan = WholeFile {
        entries: Vec::new(),
        written: Vec::new(),
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
            if !is_zeroed(slot) {
                scan.written.push(off + i as u64 * ENTRY_SIZE);
                scan.entries.extend(LogEntry::decode(slot));
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

/// Mounts the crash image on `device`, checks that the bounded scan finds
/// exactly the entries the whole-file scan does, recovers, and checks
/// that the whole log file — map included — is zero afterwards.
fn check_crash_image(device: &Arc<PmemDevice>, config: &SplitConfig, what: &str) {
    let kernel = Ext4Dax::mount(Arc::clone(device)).expect("mount");
    with_log(&kernel, |mapping, size| {
        let bounded = OpLog::scan_written(device, mapping, size);
        let mut whole = whole_file_scan(device, mapping, size);
        assert_eq!(bounded.entries, whole.entries, "{what}: entries differ");
        let written: Vec<u64> = bounded
            .written
            .iter()
            .flat_map(|&(from, to)| (from..to).step_by(ENTRY_SIZE as usize))
            .collect();
        whole.written.retain(|&off| off != MAP_OFFSET);
        assert_eq!(written, whole.written, "{what}: written slots differ");
    });
    recover(&kernel, config).expect("oplog replay");
    let log = kernel.read_file(OPLOG_PATH).unwrap();
    assert_eq!(
        log.iter().position(|&b| b != 0),
        None,
        "{what}: log byte left non-zero by recovery"
    );
}

/// Runs `op` with power failing at each of its fences in turn: every
/// crash image is checked on `spare`.  Returns how many were.
fn cut_every_fence(
    device: &Arc<PmemDevice>,
    spare: &Arc<PmemDevice>,
    config: &SplitConfig,
    what: &str,
    op: impl FnOnce(),
) -> u64 {
    let points = Arc::new(AtomicU64::new(0));
    {
        let (spare, config, what) = (Arc::clone(spare), config.clone(), what.to_string());
        let points = Arc::clone(&points);
        device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
            let image = dev.capture_crash_image();
            spare.restore_crash_image(&image);
            drop(image);
            check_crash_image(&spare, &config, &format!("{what}, before fence {ordinal}"));
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
        // Two chunks: epoch 0 is chunk 0 less the map's slot, epoch 1 is
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
        let cuts = cut_every_fence(&device, &spare, &config, "opening append", || {
            fs.append(fd, &[0xA0; 1000]).unwrap();
        });
        assert!(cuts >= 3, "{policy:?}: {cuts} fences in the append");
        assert_eq!(marked_chunks(&kernel), [0, 1]);

        // A checkpoint retires the sealed epoch: its slots are zeroed, then
        // chunk 0's bit is cleared.
        let cuts = cut_every_fence(&device, &spare, &config, "checkpoint", || {
            fs.checkpoint().unwrap();
        });
        assert!(cuts >= 2, "{policy:?}: {cuts} fences in the checkpoint");
        assert_eq!(marked_chunks(&kernel), [1]);

        // Seal epoch 1 and fill epoch 0 while it is pending: the next
        // append finds the log full and cannot seal, so it grows the log
        // into chunks 2 and 3, and opens chunk 2.
        assert!(fs.seal_oplog_epoch());
        let full = fs.oplog_entries() + (CHUNK_SIZE - ENTRY_SIZE) / ENTRY_SIZE;
        while fs.oplog_entries() < full {
            fs.append(fd, &[0xB0; 16]).unwrap();
        }
        assert_eq!(fs.oplog_entries(), full);
        let grows = device.stats().snapshot().oplog_grows;
        let cuts = cut_every_fence(&device, &spare, &config, "growing append", || {
            fs.append(fd, &[0xC0; 1000]).unwrap();
        });
        assert_eq!(device.stats().snapshot().oplog_grows, grows + 1);
        assert!(cuts >= 4, "{policy:?}: {cuts} fences in the growth");
        assert_eq!(marked_chunks(&kernel), [0, 1, 2]);

        // Recovery clears the slots it found, then the map.  The fsync
        // settles the filler's thousand entries, so one replays.
        fs.fsync(fd).unwrap();
        fs.append(fd, &[0xD0; 1000]).unwrap();
        drop(fs);
        drop(kernel);
        device.crash();
        let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
        let cuts = cut_every_fence(&device, &spare, &config, "recovery", || {
            recover(&kernel, &config).expect("oplog replay");
        });
        assert!(cuts >= 2, "{policy:?}: {cuts} fences in the recovery");
        assert_eq!(marked_chunks(&kernel), [] as [u64; 0]);
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
            let mut holding: Vec<u64> = whole
                .written
                .iter()
                .filter(|&&off| off != MAP_OFFSET)
                .map(|off| off / CHUNK_SIZE)
                .collect();
            holding.dedup();
            (holding, OpLog::scan_written(&device, mapping, size).chunks)
        });
        assert!(
            !holding.is_empty(),
            "round {round}: the checkpoint's markers"
        );
        assert_eq!(
            marked_chunks(&kernel),
            holding,
            "round {round}: marked chunks against chunks holding entries"
        );
        assert_eq!(scanned, holding, "round {round}: chunks the scan read");
    }
    let swaps = device.stats().snapshot().delta(&before).oplog_epoch_swaps;
    assert!(swaps >= 4, "{swaps} epoch swaps");
}
