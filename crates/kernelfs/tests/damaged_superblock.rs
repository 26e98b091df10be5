//! A superblock mount cannot trust fails the mount closed.  Mount reads
//! every region by the bounds block 0 gives, so a damaged field must end
//! in `Err(Corrupted)` before any of them is read — never in a panic, and
//! never in an error that only the bytes past a region happened to cause.

use std::sync::Arc;

use kernelfs::layout::FORMAT_VERSION;
use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice};
use vfs::{FileSystem, FsError, OpenFlags};

/// A formatted 64 MiB device with one file on it.
fn formatted() -> Arc<PmemDevice> {
    let device = PmemBuilder::new(64 * 1024 * 1024).build();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    fs.write_file("/a", b"kept").unwrap();
    device
}

/// Overwrites superblock slot `slot` with `value` and mounts.
fn mount_with(slot: u64, value: u64) -> Result<(), FsError> {
    let device = formatted();
    device.write_uncharged(slot * 8, &value.to_le_bytes());
    Ext4Dax::mount(device).map(|_| ())
}

fn assert_corrupted(result: Result<(), FsError>, what: &str) {
    assert!(
        matches!(result, Err(FsError::Corrupted(_))),
        "{what}: {result:?}"
    );
}

#[test]
fn an_undamaged_superblock_mounts() {
    let kernel = Ext4Dax::mount(formatted()).unwrap();
    let fd = kernel.open("/a", OpenFlags::read_only()).unwrap();
    assert_eq!(kernel.fstat(fd).unwrap().size, 4);
}

#[test]
fn a_journal_past_the_device_fails_the_mount() {
    assert_corrupted(mount_with(4, 1 << 40), "journal_blocks = 2^40");
}

#[test]
fn a_device_size_the_device_does_not_have_fails_the_mount() {
    assert_corrupted(mount_with(1, 1 << 20), "total_blocks = 2^20");
}

#[test]
fn an_inode_table_past_its_region_fails_the_mount() {
    assert_corrupted(mount_with(2, 1 << 30), "inode_count = 2^30");
}

#[test]
fn any_format_version_but_the_current_one_fails_the_mount() {
    assert_eq!(FORMAT_VERSION, 3);
    // Version 1 is the format with the instance-lease table, version 2
    // the one whose journal records carry FNV-1a checksums.
    for version in [0, 1, 2, FORMAT_VERSION + 1, u64::MAX] {
        assert_corrupted(mount_with(14, version), &format!("version {version}"));
    }
    assert!(mount_with(14, FORMAT_VERSION).is_ok());
}
