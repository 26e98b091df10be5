//! What each metadata operation costs in heap allocations.
//!
//! Host time cannot be gated on a shared machine, but the allocations an
//! operation makes are deterministic, so tier-1 can count them the way
//! `trap_budget.rs` counts kernel traps.  A counting global allocator
//! tallies `alloc` and `realloc` calls per thread; the daemon is off, so
//! everything an operation allocates is allocated on the calling thread.
//!
//! The budgets pin the encoders that write into buffers the caller
//! already sized: a journal commit reuses one transaction buffer, an inode
//! record and a directory entry are encoded on the stack, `normalize`
//! makes its one `String` in one pass, and a path that is already
//! canonical is taken as it is.  A `realloc` anywhere in a file's
//! metadata life means something grows a buffer field by field again.
//! An append allocates nothing at all once warm: the staging batch keeps
//! its working lists on the stack, and the device's statistics cells are
//! registered once per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kernelfs::dir;
use kernelfs::journal::{Journal, JournalRecord};
use kernelfs::layout::Superblock;
use kernelfs::{Ext4Dax, BLOCK_SIZE};
use pmem::PmemBuilder;
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{path, FileSystem, OpenFlags};

const MIB: usize = 1024 * 1024;

/// Passes every call to the system allocator, counting allocations and
/// reallocations of the calling thread.
struct Counting;

thread_local! {
    // `const` and drop-free: the allocator may touch them at any point
    // of a thread's life without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations one call made on this thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Heap {
    allocs: u64,
    reallocs: u64,
}

fn heap_of<R>(call: impl FnOnce() -> R) -> (R, Heap) {
    let allocs = ALLOCS.with(Cell::get);
    let reallocs = REALLOCS.with(Cell::get);
    let out = call();
    let heap = Heap {
        allocs: ALLOCS.with(Cell::get) - allocs,
        reallocs: REALLOCS.with(Cell::get) - reallocs,
    };
    (out, heap)
}

const NONE: Heap = Heap {
    allocs: 0,
    reallocs: 0,
};

/// SplitFS over a fresh 64 MiB K-Split, daemon off.
fn splitfs(mode: Mode) -> Arc<SplitFs> {
    let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
    let kernel = Ext4Dax::mkfs(device).unwrap();
    let config = SplitConfig::new(mode)
        .with_staging(2, 4 * MIB as u64)
        .without_daemon();
    SplitFs::new(kernel, config).unwrap()
}

#[test]
fn normalize_allocates_its_one_string() {
    for raw in [
        "/",
        "/..",
        "/d07/f000123.tmp",
        "//d07///./f000123.tmp/",
        "/a/b/../../c/./d/..",
    ] {
        let (norm, heap) = heap_of(|| path::normalize(raw).unwrap());
        assert_eq!(
            heap,
            Heap {
                allocs: 1,
                reallocs: 0
            },
            "{raw:?} -> {norm:?}"
        );
    }
}

#[test]
fn a_canonical_path_is_taken_without_allocating() {
    for canonical in ["/", "/d07", "/d07/f000123.tmp"] {
        let (norm, heap) = heap_of(|| path::normalized(canonical).unwrap());
        assert_eq!(heap, NONE, "{canonical:?}");
        assert_eq!(norm, canonical);
    }
}

#[test]
fn a_journal_commit_allocates_nothing_after_the_first() {
    let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
    let sb = Superblock::compute(device.size() as u64 / BLOCK_SIZE as u64, 1024).unwrap();
    let journal = Journal::new(Arc::clone(&device), &sb);
    journal.format();
    let create = [
        JournalRecord::CreateInode {
            ino: 9,
            parent: 2,
            name: "f000123.tmp".into(),
            is_dir: false,
        },
        JournalRecord::SetSize { ino: 9, size: 4096 },
    ];
    let relink = [
        JournalRecord::SetRangeMapping {
            ino: 9,
            logical: 0,
            count: 10,
            extents: vec![(0, 7000, 10)],
        },
        JournalRecord::SetRangeMapping {
            ino: 4,
            logical: 30,
            count: 10,
            extents: Vec::new(),
        },
        JournalRecord::SetSize {
            ino: 9,
            size: 40_960,
        },
    ];
    // The first commit sizes the transaction buffer; every later one of
    // at most that size reuses it.
    journal.commit(&create).unwrap();
    journal.commit(&relink).unwrap();
    for records in [&create[..], &relink[..], &relink[2..]] {
        let (_, heap) = heap_of(|| drop(journal.commit(records).unwrap()));
        assert_eq!(heap, NONE, "{records:?}");
    }
}

#[test]
fn persisting_an_inode_with_inline_extents_allocates_nothing() {
    let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
    let fs = Ext4Dax::mkfs(device).unwrap();
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    fs.write_at(fd, 0, &[5u8; 3 * BLOCK_SIZE]).unwrap();
    fs.ftruncate(fd, 3 * BLOCK_SIZE as u64 - 100).unwrap();
    // The same size persists the inode and nothing else; a size inside
    // the mapped blocks adds one `SetSize` commit to the persist.
    let (_, heap) = heap_of(|| fs.ftruncate(fd, 3 * BLOCK_SIZE as u64 - 100).unwrap());
    assert_eq!(heap, NONE, "persist");
    let (_, heap) = heap_of(|| fs.ftruncate(fd, 3 * BLOCK_SIZE as u64 - 50).unwrap());
    assert_eq!(heap, NONE, "commit + persist");
}

#[test]
fn a_directory_entry_and_its_tombstone_encode_without_allocating() {
    let name = "x".repeat(path::NAME_MAX);
    let ((entry, tomb), heap) = heap_of(|| {
        (
            dir::encode_entry(77, &name),
            dir::encode_tombstone(name.len()),
        )
    });
    assert_eq!(heap, NONE);
    assert_eq!(entry.len(), dir::entry_size(&name));
    assert_eq!(tomb.len(), entry.len());
}

/// Before the encoders wrote into caller-owned buffers and `normalize`
/// became one pass, a file life made 159.13 allocations and 100.13
/// reallocations; the budget is 60 % of the former.  Now it makes 60.
const LIFE_ALLOCS_BUDGET: f64 = 0.60 * 159.13;

#[test]
fn a_meta_churn_file_life_never_reallocates() {
    let fs = splitfs(Mode::Sync);
    fs.mkdir("/d07").unwrap();
    let chunk = vec![0x5Au8; 1024];
    let mut buf = vec![0u8; 4 * 1024];
    // One `meta_churn` file life: create, 4 x 1 KiB append, fsync, close,
    // stat, rename, open, read, close, unlink.
    let life = |i: usize, buf: &mut [u8]| {
        let tmp = format!("/d07/f{i:06}.tmp");
        let dat = format!("/d07/f{i:06}.dat");
        heap_of(|| {
            let fd = fs.open(&tmp, OpenFlags::create()).unwrap();
            for _ in 0..4 {
                fs.append(fd, &chunk).unwrap();
            }
            fs.fsync(fd).unwrap();
            fs.close(fd).unwrap();
            fs.stat(&tmp).unwrap();
            fs.rename(&tmp, &dat).unwrap();
            let fd = fs.open(&dat, OpenFlags::read_write()).unwrap();
            assert_eq!(fs.read_at(fd, 0, buf).unwrap(), buf.len());
            fs.close(fd).unwrap();
            fs.unlink(&dat).unwrap();
        })
        .1
    };
    // Warm every table the lives touch, then count 100 of them.
    for i in 0..50 {
        life(i, &mut buf);
    }
    let lives = 100;
    let mut total = NONE;
    for i in 50..50 + lives {
        let heap = life(i, &mut buf);
        assert_eq!(heap.reallocs, 0, "life {i}: {heap:?}");
        total.allocs += heap.allocs;
    }
    let per_life = total.allocs as f64 / lives as f64;
    assert!(
        per_life <= LIFE_ALLOCS_BUDGET,
        "{per_life:.2} allocations per life, budget {LIFE_ALLOCS_BUDGET:.2}"
    );
}

/// Allocations a strict `fsync` of ten staged 4 KiB blocks makes: the
/// relink batch's working lists and the journal transaction's records.
const FSYNC_ALLOCS_BUDGET: u64 = 21;

#[test]
fn a_strict_fsync_of_ten_staged_blocks_never_reallocates() {
    let fs = splitfs(Mode::Strict);
    let fd = fs.open("/wal", OpenFlags::create()).unwrap();
    let block = vec![0xC3u8; BLOCK_SIZE];
    // The first relink is the largest transaction the journal has seen,
    // so it grows the journal's buffer once; no later one grows anything.
    for round in 0..20 {
        for _ in 0..10 {
            fs.append(fd, &block).unwrap();
        }
        let (_, heap) = heap_of(|| fs.fsync(fd).unwrap());
        if round > 0 {
            assert_eq!(heap.reallocs, 0, "fsync {round}: {heap:?}");
            assert!(
                heap.allocs <= FSYNC_ALLOCS_BUDGET,
                "fsync {round}: {heap:?}, budget {FSYNC_ALLOCS_BUDGET}"
            );
        }
    }
}

#[test]
fn an_append_allocates_nothing() {
    for mode in [Mode::Strict, Mode::Sync, Mode::Posix] {
        for len in [BLOCK_SIZE, 1024] {
            let fs = splitfs(mode);
            let fd = fs.open("/wal", OpenFlags::create()).unwrap();
            let data = vec![0xA5u8; len];
            // Warm-up: the first appends register the thread's statistics
            // cells and grow the file's staged-extent list; an fsync keeps
            // the list's capacity for the appends after it.
            for _ in 0..16 {
                fs.append(fd, &data).unwrap();
            }
            fs.fsync(fd).unwrap();
            for i in 0..16 {
                let (_, heap) = heap_of(|| fs.append(fd, &data).unwrap());
                assert_eq!(heap, NONE, "{mode:?}, {len} B append {i}");
            }
        }
    }
}
