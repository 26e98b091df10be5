//! Crash-consistency integration tests for the kernel file system: after a
//! crash at an arbitrary point, the file system must mount, its metadata
//! must be consistent (every directory entry points at a live inode, sizes
//! are sane), and operations that the journal committed must be visible.
//!
//! The post-crash consistency walk is the shared [`chaos::Recovered`]
//! harness — the same fsck the crash-point fuzzer runs at every
//! enumerated fence boundary — so this file only states what each
//! scenario additionally promises.

use std::sync::Arc;

use chaos::Recovered;
use kernelfs::{Ext4Dax, BLOCK_SIZE};
use pmem::{PmemBuilder, PmemDevice};
use proptest::prelude::*;
use vfs::{FileSystem, OpenFlags};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(192 * 1024 * 1024).build()
}

/// Remounts the crashed device and runs the shared fsck walk; returns the
/// recovered kernel for scenario-specific assertions.
fn recover_clean(device: &Arc<PmemDevice>) -> Arc<Ext4Dax> {
    let rec = Recovered::mount(device).unwrap();
    rec.assert_clean();
    rec.kernel
}

#[test]
fn fsynced_files_survive_crashes_completely() {
    let device = device();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    fs.mkdir("/keep").unwrap();
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    fs.write_file("/keep/a.bin", &payload).unwrap();
    fs.write_file("/keep/b.bin", b"short").unwrap();
    device.crash();

    let fs2 = recover_clean(&device);
    assert_eq!(fs2.read_file("/keep/a.bin").unwrap(), payload);
    assert_eq!(fs2.read_file("/keep/b.bin").unwrap(), b"short");
}

#[test]
fn rename_is_atomic_under_crash() {
    let device = device();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    fs.write_file("/target", b"old contents").unwrap();
    fs.write_file("/incoming.tmp", b"new contents").unwrap();
    fs.rename("/incoming.tmp", "/target").unwrap();
    device.crash();

    let fs2 = recover_clean(&device);
    // After the crash the target is exactly one of the two versions and the
    // temporary name never coexists with a completed rename.
    let data = fs2.read_file("/target").unwrap();
    assert!(
        data == b"new contents" || data == b"old contents",
        "rename left a torn state: {data:?}"
    );
    if data == b"new contents" {
        assert!(!fs2.exists("/incoming.tmp"));
    }
}

#[test]
fn unlinked_files_stay_unlinked_after_crash() {
    let device = device();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    fs.write_file("/doomed", &vec![9u8; 20_000]).unwrap();
    let free_before = fs.free_blocks();
    fs.unlink("/doomed").unwrap();
    let free_after = fs.free_blocks();
    assert!(free_after > free_before);
    device.crash();

    let fs2 = recover_clean(&device);
    assert!(!fs2.exists("/doomed"));
}

/// A file unlinked, or replaced by a rename, while a descriptor holds it
/// open lives until its last close.  A crash before that close leaves an
/// inode no entry names, and mount frees it.
#[test]
fn mount_frees_files_unlinked_or_replaced_while_open() {
    for replace in [false, true] {
        let device = device();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        fs.write_file("/victim", &vec![7u8; 3 * BLOCK_SIZE])
            .unwrap();
        if replace {
            fs.write_file("/incoming", b"new contents").unwrap();
        }
        let free_before = fs.free_blocks();
        let _open = fs.open("/victim", OpenFlags::read_only()).unwrap();
        if replace {
            fs.rename("/incoming", "/victim").unwrap();
        } else {
            fs.unlink("/victim").unwrap();
        }
        assert_eq!(
            fs.free_blocks(),
            free_before,
            "the open file keeps its blocks"
        );
        device.crash();

        let fs2 = recover_clean(&device);
        assert!(
            fs2.free_blocks() >= free_before + 3,
            "replace={replace}: {} free after mount, {free_before} before",
            fs2.free_blocks()
        );
        assert_eq!(fs2.exists("/victim"), replace);
        // The freed inode's record is gone from the media: a second mount
        // finds the same tree.
        device.crash();
        let fs3 = recover_clean(&device);
        assert_eq!(fs3.free_blocks(), fs2.free_blocks(), "replace={replace}");
    }
}

/// Within a mount an inode number is never handed out twice; a mount
/// hands out numbers from just past the highest live inode, so a freed
/// number above it comes back after a crash.  U-Split leans on both:
/// a log entry whose target inode is gone is skipped by recovery, and
/// every log is replayed before an instance's first create.
#[test]
fn inode_numbers_are_reused_only_after_a_remount() {
    let create = |fs: &Ext4Dax, path: &str| {
        let fd = fs.open(path, OpenFlags::create()).unwrap();
        let ino = fs.fstat(fd).unwrap().ino;
        fs.close(fd).unwrap();
        ino
    };
    let device = device();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    assert_eq!((create(&fs, "/a"), create(&fs, "/b")), (2, 3));
    fs.unlink("/b").unwrap();
    assert_eq!(create(&fs, "/c"), 4, "a freed number stays retired");
    fs.unlink("/c").unwrap();
    device.crash();

    let fs2 = recover_clean(&device);
    assert_eq!(create(&fs2, "/d"), 3, "the mount reuses /b's number");
}

#[test]
fn rename_across_ns_shards_recovers_exactly_one_link() {
    // The source and destination directories get consecutive inode
    // numbers, which hash to different namespace shards, so every rename
    // below crosses shards and its journal record spans two guard sets.
    // After a crash, replay must leave each file with exactly one link —
    // under its old name or its new name, never both, never neither.
    let device = device();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    fs.mkdir("/srcdir").unwrap();
    fs.mkdir("/dstdir").unwrap();
    const FILES: usize = 8;
    for i in 0..FILES {
        fs.write_file(&format!("/srcdir/f{i}"), format!("payload-{i}").as_bytes())
            .unwrap();
    }
    for i in 0..FILES {
        fs.rename(&format!("/srcdir/f{i}"), &format!("/dstdir/g{i}"))
            .unwrap();
    }
    device.crash();

    let fs2 = recover_clean(&device);
    for i in 0..FILES {
        let old = fs2.exists(&format!("/srcdir/f{i}"));
        let new = fs2.exists(&format!("/dstdir/g{i}"));
        assert!(
            old ^ new,
            "file {i}: old={old} new={new} — rename replay must leave exactly one link"
        );
        let surviving = if new {
            format!("/dstdir/g{i}")
        } else {
            format!("/srcdir/f{i}")
        };
        assert_eq!(
            fs2.read_file(&surviving).unwrap(),
            format!("payload-{i}").as_bytes()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary sequences of creates, writes, renames and unlinks followed
    /// by a crash always leave a mountable, metadata-consistent file
    /// system, and every file whose final write was fsynced has exactly its
    /// last contents.
    #[test]
    fn random_workloads_crash_into_consistent_states(
        steps in prop::collection::vec((0u8..4, 0u8..6, 1u16..5000), 3..25),
    ) {
        let device = device();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let mut synced: std::collections::HashMap<String, Vec<u8>> = Default::default();
        for (op, file_idx, len) in steps {
            let path = format!("/file-{file_idx}");
            match op {
                0 | 1 => {
                    // write_file fsyncs, so the contents are durable.
                    let data = vec![(len % 251) as u8; len as usize];
                    fs.write_file(&path, &data).unwrap();
                    synced.insert(path, data);
                }
                2 => {
                    if fs.exists(&path) {
                        fs.unlink(&path).unwrap();
                        synced.remove(&path);
                    }
                }
                _ => {
                    // Unsynced append: may or may not survive, but must not
                    // corrupt metadata.
                    let fd = fs.open(&path, OpenFlags::append()).unwrap();
                    fs.write(fd, &vec![7u8; len as usize]).unwrap();
                    fs.close(fd).unwrap();
                    synced.remove(&path);
                }
            }
        }
        device.crash();
        let rec = Recovered::mount(&device).unwrap();
        let fsck = rec.fsck();
        prop_assert!(fsck.is_empty(), "fsck violations: {:#?}", fsck);
        for (path, expected) in &synced {
            let data = rec.kernel.read_file(path).unwrap();
            prop_assert_eq!(&data, expected, "durable file {} lost data", path);
        }
    }
}
