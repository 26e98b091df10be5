//! Cross-crate integration test: the same application workloads must
//! produce identical observable state on every file system in the
//! workspace, from the ext4-DAX kernel substrate to the baselines and all
//! three SplitFS modes.  This is the repository-wide version of the
//! paper's §5.3 correctness validation.

use std::sync::Arc;

use proptest::prelude::*;
use splitfs_repro::apps::aof::{AofStore, FsyncPolicy};
use splitfs_repro::apps::lsm::{LsmConfig, LsmStore};
use splitfs_repro::baselines::{Nova, NovaMode, Pmfs, Strata};
use splitfs_repro::kernelfs::Ext4Dax;
use splitfs_repro::pmem::PmemBuilder;
use splitfs_repro::splitfs::{Mode, SplitConfig, SplitFs};
use splitfs_repro::vfs::{FileSystem, FsError, IoVec, OpenFlags};

fn all_filesystems() -> Vec<Arc<dyn FileSystem>> {
    let mut out: Vec<Arc<dyn FileSystem>> = Vec::new();
    for i in 0..7 {
        let device = PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        match i {
            0 => out.push(Ext4Dax::mkfs(device).unwrap()),
            1 => out.push(Pmfs::new(device)),
            2 => out.push(Nova::new(device, NovaMode::Relaxed)),
            3 => out.push(Nova::new(device, NovaMode::Strict)),
            4 => out.push(Strata::new(device)),
            5 => {
                let kernel = Ext4Dax::mkfs(device).unwrap();
                out.push(SplitFs::new(kernel, SplitConfig::new(Mode::Posix)).unwrap());
            }
            _ => {
                let kernel = Ext4Dax::mkfs(device).unwrap();
                out.push(SplitFs::new(kernel, SplitConfig::new(Mode::Strict)).unwrap());
            }
        }
    }
    out
}

#[test]
fn posix_file_operations_agree_across_all_filesystems() {
    let mut states = Vec::new();
    for fs in all_filesystems() {
        fs.mkdir("/work").unwrap();
        let fd = fs.open("/work/data.bin", OpenFlags::create()).unwrap();
        // Mixed appends and overwrites, some unaligned.
        for i in 0..30u32 {
            fs.append(fd, &vec![i as u8; 700]).unwrap();
        }
        fs.write_at(fd, 1000, b"OVERWRITTEN-REGION").unwrap();
        fs.fsync(fd).unwrap();
        fs.ftruncate(fd, 15_000).unwrap();
        fs.close(fd).unwrap();
        fs.rename("/work/data.bin", "/work/renamed.bin").unwrap();

        let content = fs.read_file("/work/renamed.bin").unwrap();
        let mut listing = fs.readdir("/work").unwrap();
        listing.sort();
        states.push((fs.name(), content, listing));
    }
    let (_, first_content, first_listing) = &states[0];
    for (name, content, listing) in &states {
        assert_eq!(content, first_content, "file content differs on {name}");
        assert_eq!(
            listing, first_listing,
            "directory listing differs on {name}"
        );
    }
}

/// The renames POSIX refuses — a directory into its own subtree, a file
/// over a directory, a directory over a file or over another directory —
/// fail with the same error everywhere and leave the tree as it was; a
/// directory moved elsewhere keeps its contents.
#[test]
fn refused_renames_agree_across_all_filesystems() {
    use FsError::{InvalidArgument, IsADirectory, NotADirectory};
    for fs in all_filesystems() {
        let name = fs.name();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/e", b"kept").unwrap();
        fs.write_file("/x", b"x").unwrap();
        let refused = [
            ("/a", "/a/b/c", InvalidArgument),
            ("/a", "/a/b", InvalidArgument),
            ("/x", "/d", IsADirectory),
            ("/a", "/d", IsADirectory),
            ("/a", "/x", NotADirectory),
        ];
        for (old, new, err) in refused {
            assert_eq!(fs.rename(old, new), Err(err), "{name}: {old} -> {new}");
        }
        let mut root = fs.readdir("/").unwrap();
        root.sort();
        assert_eq!(root, ["a", "d", "x"], "{name}");
        assert_eq!(fs.readdir("/a").unwrap(), ["b"], "{name}");
        assert_eq!(fs.read_file("/d/e").unwrap(), b"kept", "{name}");
        assert_eq!(fs.read_file("/x").unwrap(), b"x", "{name}");

        fs.rename("/d", "/a/b/d").unwrap();
        assert_eq!(fs.read_file("/a/b/d/e").unwrap(), b"kept", "{name}");
        let mut root = fs.readdir("/").unwrap();
        root.sort();
        assert_eq!(root, ["a", "x"], "{name}");
    }
}

/// What an application can observe around an `unlink` of a file it still
/// holds open (sizes, bytes and error codes — no inode numbers, which
/// differ between stacks).
#[derive(Debug, PartialEq)]
struct UnlinkWhileOpen {
    fstat_after_unlink: u64,
    reopen: Result<(), FsError>,
    recreated_size: u64,
    recreated_is_a_new_inode: bool,
    size_after_more_appends: u64,
    closes: [Result<(), FsError>; 2],
}

fn unlink_while_open(fs: &dyn FileSystem, kernel: &Ext4Dax) -> UnlinkWhileOpen {
    let payload: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
    let fd = fs.open("/victim", OpenFlags::create()).unwrap();
    fs.append(fd, &payload).unwrap();
    fs.fsync(fd).unwrap();
    let old_ino = fs.fstat(fd).unwrap().ino;

    fs.unlink("/victim").unwrap();
    // The name is gone; the open descriptor keeps serving the file.
    let fstat_after_unlink = fs.fstat(fd).unwrap().size;
    let mut read_back = vec![0u8; payload.len()];
    assert_eq!(fs.read_at(fd, 0, &mut read_back), Ok(payload.len()));
    assert_eq!(read_back, payload, "{}", fs.name());
    let reopen = fs.open("/victim", OpenFlags::read_only()).map(|_| ());

    // Re-creating the path yields a fresh, empty file.
    let fresh = fs.open("/victim", OpenFlags::create()).unwrap();
    let fresh_stat = fs.fstat(fresh).unwrap();
    assert_eq!(fs.stat("/victim").unwrap().ino, fresh_stat.ino);

    // The orphan still takes writes, and they stay out of the new file.
    fs.append(fd, b"written after the unlink").unwrap();
    let size_after_more_appends = fs.fstat(fd).unwrap().size;
    assert_eq!(fs.fstat(fresh).unwrap().size, 0, "{}", fs.name());

    // The blocks go at the last close, not before.
    let free_before = kernel.free_blocks();
    let closes = [fs.close(fd), fs.close(fresh)];
    assert!(
        kernel.free_blocks() >= free_before + 3,
        "{}: the orphan's blocks were not freed at its last close",
        fs.name()
    );
    assert_eq!(
        kernel.check_namespace(),
        Vec::<String>::new(),
        "{}",
        fs.name()
    );
    UnlinkWhileOpen {
        fstat_after_unlink,
        reopen,
        recreated_size: fresh_stat.size,
        recreated_is_a_new_inode: fresh_stat.ino != old_ino,
        size_after_more_appends,
        closes,
    }
}

#[test]
fn unlink_with_an_open_descriptor_matches_the_kernel_underneath() {
    // SplitFS ≡ the kernel it sits on: POSIX (and `Ext4Dax`'s orphan
    // handling) keep an unlinked file usable until its last close.
    let device = || {
        PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build()
    };
    let bare = Ext4Dax::mkfs(device()).unwrap();
    let reference = unlink_while_open(&*bare, &bare);
    assert_eq!(reference.reopen, Err(FsError::NotFound));
    assert_eq!(reference.closes, [Ok(()), Ok(())]);
    assert!(reference.recreated_is_a_new_inode);

    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let kernel = Ext4Dax::mkfs(device()).unwrap();
        let fs = SplitFs::new(Arc::clone(&kernel), SplitConfig::new(mode)).unwrap();
        // Let the daemon finish provisioning, so that the free-block
        // comparison sees only the foreground's effect.
        fs.maintenance_quiesce();
        assert_eq!(unlink_while_open(&*fs, &kernel), reference, "{mode:?}");
    }
}

/// One baseline through an unlink and a rename over a file it holds open:
/// the descriptor keeps serving the file, logged and digested bytes alike,
/// and its blocks go back at the last close.
fn orphan_outlives_its_name(fs: &dyn FileSystem, allocated: &dyn Fn() -> u64) {
    let name = fs.name();
    let payload: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
    let before = allocated();
    let fd = fs.open("/victim", OpenFlags::create()).unwrap();
    fs.append(fd, &payload[..2 * 4096]).unwrap();
    // Strata digests its log into the shared area; the last block stays
    // in the log.
    fs.sync().unwrap();
    fs.append(fd, &payload[2 * 4096..]).unwrap();
    fs.fsync(fd).unwrap();

    fs.unlink("/victim").unwrap();
    assert_eq!(
        fs.fstat(fd).map(|s| s.size),
        Ok(payload.len() as u64),
        "{name}"
    );
    let mut back = vec![0u8; payload.len()];
    assert_eq!(fs.read_at(fd, 0, &mut back), Ok(payload.len()), "{name}");
    assert!(back == payload, "{name}: the orphan's bytes differ");
    fs.append(fd, b"after the unlink").unwrap();
    let mut tail = [0u8; 16];
    assert_eq!(
        fs.read_at(fd, payload.len() as u64, &mut tail),
        Ok(16),
        "{name}"
    );
    assert_eq!(&tail, b"after the unlink", "{name}");
    let reopen = fs.open("/victim", OpenFlags::read_only()).map(|_| ());
    assert_eq!(reopen, Err(FsError::NotFound), "{name}");
    fs.sync().unwrap();
    assert!(
        allocated() >= before + 3,
        "{name}: freed before the last close"
    );
    assert_eq!(fs.close(fd), Ok(()), "{name}");
    assert_eq!(fs.fstat(fd).map(|_| ()), Err(FsError::BadFd), "{name}");
    fs.sync().unwrap();
    assert_eq!(allocated(), before, "{name}: the orphan's blocks leaked");

    // A rename over an open file orphans the replaced file the same way.
    let fd = fs.open("/old", OpenFlags::create()).unwrap();
    fs.append(fd, &payload).unwrap();
    fs.write_file("/new", b"replacement").unwrap();
    fs.sync().unwrap();
    let with_both = allocated();
    fs.rename("/new", "/old").unwrap();
    assert_eq!(fs.read_file("/old").unwrap(), b"replacement", "{name}");
    assert_eq!(fs.read_at(fd, 0, &mut back), Ok(payload.len()), "{name}");
    assert!(back == payload, "{name}: the replaced file's bytes differ");
    assert_eq!(
        allocated(),
        with_both,
        "{name}: freed before the last close"
    );
    assert_eq!(fs.close(fd), Ok(()), "{name}");
    assert_eq!(
        allocated(),
        with_both - 3,
        "{name}: the replaced file leaked"
    );
    fs.unlink("/old").unwrap();
    fs.sync().unwrap();
    assert_eq!(allocated(), before, "{name}");
}

#[test]
fn baselines_keep_an_unlinked_or_replaced_file_until_its_last_close() {
    let device = || {
        PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build()
    };
    let pmfs = Pmfs::new(device());
    orphan_outlives_its_name(&*pmfs, &|| pmfs.allocated_blocks());
    for mode in [NovaMode::Relaxed, NovaMode::Strict] {
        let nova = Nova::new(device(), mode);
        orphan_outlives_its_name(&*nova, &|| nova.allocated_blocks());
    }
    let strata = Strata::new(device());
    orphan_outlives_its_name(&*strata, &|| strata.allocated_blocks());
}

/// `write` on `O_APPEND` descriptors from several threads: every file
/// system must resolve the end of file under the lock the write holds, so
/// no record lands on top of another.
#[test]
fn concurrent_o_append_writes_never_overlap_on_any_filesystem() {
    const THREADS: usize = 4;
    const WRITES: usize = 2000;
    const RECORD: usize = 64;
    for fs in all_filesystems() {
        fs.close(fs.open("/shared.log", OpenFlags::create()).unwrap())
            .unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (fs, start) = (&fs, &start);
                s.spawn(move || {
                    // One descriptor per thread: the offsets are private,
                    // only the end of file is shared.
                    let fd = fs.open("/shared.log", OpenFlags::append()).unwrap();
                    start.wait();
                    for _ in 0..WRITES {
                        assert_eq!(fs.write(fd, &[t as u8 + 1; RECORD]), Ok(RECORD));
                    }
                    fs.close(fd).unwrap();
                });
            }
        });
        let data = fs.read_file("/shared.log").unwrap();
        assert_eq!(
            data.len(),
            THREADS * WRITES * RECORD,
            "{}: appends overwrote one another",
            fs.name()
        );
        let mut per_thread = [0usize; THREADS];
        for record in data.chunks(RECORD) {
            let tag = record[0];
            assert!(
                (1..=THREADS as u8).contains(&tag) && record.iter().all(|&b| b == tag),
                "{}: torn record {record:?}",
                fs.name()
            );
            per_thread[tag as usize - 1] += 1;
        }
        assert_eq!(per_thread, [WRITES; THREADS], "{}", fs.name());
    }
}

#[test]
fn lsm_store_produces_identical_results_on_every_filesystem() {
    let mut answers = Vec::new();
    for fs in all_filesystems() {
        let mut store = LsmStore::open(
            Arc::clone(&fs),
            LsmConfig {
                dir: "/db".to_string(),
                memtable_bytes: 32 * 1024,
                sync_writes: false,
                compaction_trigger: 3,
            },
        )
        .unwrap();
        for i in 0..400u32 {
            store
                .put(
                    format!("key{:05}", i % 150).as_bytes(),
                    format!("v{i}").as_bytes(),
                )
                .unwrap();
        }
        store.flush_memtable().unwrap();
        let mut probe = Vec::new();
        for key in (0..150u32).step_by(13) {
            probe.push(store.get(format!("key{key:05}").as_bytes()).unwrap());
        }
        let scan = store.scan(b"key00050", 5).unwrap();
        answers.push((fs.name(), probe, scan));
    }
    let (_, first_probe, first_scan) = &answers[0];
    for (name, probe, scan) in &answers {
        assert_eq!(probe, first_probe, "LSM point reads differ on {name}");
        assert_eq!(scan, first_scan, "LSM scans differ on {name}");
    }
}

#[test]
fn vectored_and_batched_io_agrees_across_all_filesystems() {
    // Drive the whole new surface — appendv, writev_at, read_view,
    // fsync_many, fdatasync — with awkward (unaligned, empty, straddling)
    // shapes, and require byte-identical observable state everywhere.
    let mut states = Vec::new();
    for fs in all_filesystems() {
        fs.mkdir("/vec").unwrap();
        let a = fs.open("/vec/a.bin", OpenFlags::create()).unwrap();
        let b = fs.open("/vec/b.bin", OpenFlags::create()).unwrap();

        // Gathered appends from odd-sized parts, including an empty slice.
        let p1 = vec![0x11u8; 700];
        let p2 = vec![0x22u8; 4096];
        let p3 = vec![0x33u8; 3];
        let iov = [
            IoVec::new(&p1),
            IoVec::new(&[]),
            IoVec::new(&p2),
            IoVec::new(&p3),
        ];
        assert_eq!(fs.appendv(a, &iov).unwrap(), 700 + 4096 + 3);
        fs.appendv(b, &iov).unwrap();
        fs.appendv(b, &[IoVec::new(&p3)]).unwrap();

        // A vectored overwrite straddling the end of file.
        let q1 = vec![0x44u8; 1000];
        let q2 = vec![0x55u8; 6000];
        assert_eq!(
            fs.writev_at(a, 4000, &[IoVec::new(&q1), IoVec::new(&q2)])
                .unwrap(),
            7000
        );
        fs.fdatasync(a).unwrap();

        // Batched durability over both files (duplicates allowed).
        fs.fsync_many(&[a, b, a]).unwrap();

        // read_view windows must agree with the full contents.
        let full_a = fs.read_file("/vec/a.bin").unwrap();
        let window = fs.read_view(a, 3500, 2000).unwrap();
        assert_eq!(
            window.as_slice(),
            &full_a[3500..5500],
            "read_view window disagrees with read_file on {}",
            fs.name()
        );
        let clipped = fs.read_view(a, full_a.len() as u64 - 10, 100).unwrap();
        assert_eq!(clipped.len(), 10, "view must clip at EOF on {}", fs.name());
        assert!(fs
            .read_view(a, full_a.len() as u64 + 5, 10)
            .unwrap()
            .is_empty());
        drop(window);
        drop(clipped);

        let full_b = fs.read_file("/vec/b.bin").unwrap();
        fs.close(a).unwrap();
        fs.close(b).unwrap();
        states.push((fs.name(), full_a, full_b));
    }
    let (_, first_a, first_b) = &states[0];
    for (name, a, b) in &states {
        assert_eq!(a, first_a, "vectored file A differs on {name}");
        assert_eq!(b, first_b, "vectored file B differs on {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An arbitrary IoVec split of a buffer, appended with one `appendv`,
    /// produces exactly the same bytes as one contiguous `write_at` of the
    /// unsplit buffer — on a kernel-backed SplitFS and on the kernel file
    /// system itself.
    #[test]
    fn iovec_split_roundtrips_like_contiguous_write(
        data in prop::collection::vec(any::<u8>(), 1..6000),
        cut_points in prop::collection::vec(any::<u16>(), 0..5),
    ) {
        // Turn the arbitrary cut points into a partition of `data`.
        let mut cuts: Vec<usize> = cut_points
            .iter()
            .map(|&c| c as usize % (data.len() + 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut slices: Vec<&[u8]> = Vec::new();
        let mut prev = 0usize;
        for &c in &cuts {
            slices.push(&data[prev..c]);
            prev = c;
        }
        slices.push(&data[prev..]);
        let iov: Vec<IoVec<'_>> = slices.iter().map(|s| IoVec::new(s)).collect();

        let filesystems: Vec<Arc<dyn FileSystem>> = {
            let device = PmemBuilder::new(96 * 1024 * 1024)
                .track_persistence(false)
                .build();
            let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
            let split_device = PmemBuilder::new(96 * 1024 * 1024)
                .track_persistence(false)
                .build();
            let split_kernel = Ext4Dax::mkfs(split_device).unwrap();
            vec![
                kernel,
                SplitFs::new(split_kernel, SplitConfig::new(Mode::Strict)).unwrap(),
            ]
        };
        for fs in filesystems {
            let contiguous = fs.open("/contig.bin", OpenFlags::create()).unwrap();
            fs.write_at(contiguous, 0, &data).unwrap();
            fs.fsync(contiguous).unwrap();

            let gathered = fs.open("/gather.bin", OpenFlags::create()).unwrap();
            let n = fs.appendv(gathered, &iov).unwrap();
            prop_assert_eq!(n, data.len());
            fs.fsync(gathered).unwrap();

            let a = fs.read_file("/contig.bin").unwrap();
            let b = fs.read_file("/gather.bin").unwrap();
            prop_assert_eq!(&a, &data, "contiguous write diverged on {}", fs.name());
            prop_assert_eq!(&b, &data, "gathered appendv diverged on {}", fs.name());
            fs.close(contiguous).unwrap();
            fs.close(gathered).unwrap();
        }
    }
}

#[test]
fn aof_store_state_agrees_across_filesystems() {
    let mut sizes = Vec::new();
    for fs in all_filesystems() {
        let mut store =
            AofStore::open(Arc::clone(&fs), "/redis.aof", FsyncPolicy::EveryN(16)).unwrap();
        for i in 0..200 {
            store.set(&format!("k{i}"), &format!("v{i}")).unwrap();
        }
        for i in (0..200).step_by(3) {
            store.del(&format!("k{i}")).unwrap();
        }
        store.shutdown().unwrap();
        // Reopen to force a full AOF replay.
        let store = AofStore::open(Arc::clone(&fs), "/redis.aof", FsyncPolicy::Never).unwrap();
        sizes.push((
            fs.name(),
            store.len(),
            store.get("k1").cloned(),
            store.get("k3").cloned(),
        ));
    }
    let (_, first_len, first_k1, first_k3) = &sizes[0];
    for (name, len, k1, k3) in &sizes {
        assert_eq!(len, first_len, "AOF key count differs on {name}");
        assert_eq!(k1, first_k1, "AOF value differs on {name}");
        assert_eq!(k3, first_k3, "AOF deleted key differs on {name}");
    }
}
