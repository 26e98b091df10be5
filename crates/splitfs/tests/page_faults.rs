//! U-Split takes only the page faults it needs.
//!
//! A start maps the operation log and two staging files, the active one and
//! the spare after it, each from its cursor: a restart resumes a staging
//! file past its last hole and maps only what is left.  The daemon maps
//! each further staging file when it becomes the spare.  Each 2 MiB chunk of a mapping should cost one
//! huge-page fault, also on a device that earlier lives of the instance
//! have fragmented.  After a relink the retained staging mappings serve
//! the file, so a read that misses them should map only the stretch they
//! lack.  These tests count the faults.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::{CrashPolicy, PmemBuilder, SimClock};
use splitfs::{recover, Mode, SplitConfig, SplitFs};
use vfs::{Fd, FileSystem, OpenFlags};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
const CHUNK: u64 = 2 * MIB as u64;
const FILES: usize = 8;

#[test]
fn a_restarted_instance_maps_its_staging_files_and_log_with_huge_faults_only() {
    let device = PmemBuilder::new(256 * MIB)
        .track_persistence(true)
        .crash_policy(CrashPolicy::LoseUnflushed)
        .build();
    // Daemon off: nothing but the restart maps a staging file while it runs.
    let config = SplitConfig::new(Mode::Strict).without_daemon();
    // Each cycle stages a little over 2 MiB in the active 16 MiB file, so
    // the next start resumes it 2 MiB further on and maps one chunk less:
    // 8 chunks of the spare and 4 of the 8 MiB log, plus the active file's
    // rest.  The fourth cycle leaves no 2 MiB past the last hole, and that
    // start rebuilds the file and maps it whole.
    let chunks = [18, 16, 14, 20];
    let path = |f: usize| format!("/f{f}.log");
    let mut kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let mut fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let mut model = vec![Vec::new(); FILES];
    for (cycle, want) in chunks.into_iter().enumerate() {
        // The `crash_recover` benchmark's cycle: 1 KiB appends over eight
        // files, an fsync after every 8th, then a crash.
        let fds: Vec<Fd> = (0..FILES)
            .map(|f| fs.open(&path(f), OpenFlags::create()).unwrap())
            .collect();
        for i in 0..2000usize {
            let f = (i * 7 + i / 13 + cycle) % FILES;
            let chunk = vec![(i % 251) as u8 ^ cycle as u8; KIB];
            fs.append(fds[f], &chunk).unwrap();
            model[f].extend_from_slice(&chunk);
            if i % 8 == 7 {
                fs.fsync(fds[f]).unwrap();
            }
        }
        drop(fs);
        drop(kernel);
        device.crash();
        kernel = Ext4Dax::mount(Arc::clone(&device)).unwrap();
        recover(&kernel, &config).unwrap();
        for (f, want) in model.iter().enumerate() {
            assert!(
                kernel.read_file(&path(f)).unwrap() == *want,
                "cycle {cycle}: file {f} lost acknowledged bytes"
            );
        }

        let before = device.stats().snapshot();
        fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(
            (delta.page_faults, delta.huge_page_faults),
            (0, want),
            "cycle {cycle}: the restart maps {} MiB of staging files and log",
            want * CHUNK / MIB as u64
        );
    }
}

#[test]
fn the_daemon_maps_the_spare_staging_file_off_the_append_path() {
    let device = PmemBuilder::new(256 * MIB).track_persistence(false).build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict).with_staging(4, CHUNK);
    let fs = SplitFs::new(kernel, config).unwrap();
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    let block = vec![0x5Au8; 4 * KIB];
    let start = device.stats().snapshot();
    for file in 0..3u64 {
        for _ in 0..CHUNK / block.len() as u64 {
            let t0 = SimClock::thread_time_ns();
            fs.append(fd, &block).unwrap();
            let spent = SimClock::thread_time_ns() - t0;
            assert!(
                spent < 22_000.0,
                "file {file}: an append spent {spent} sim ns, a 2 MiB fault's worth"
            );
        }
        fs.maintenance_quiesce();
        // The first append into each next file moved the active file on;
        // the daemon then mapped the new spare, one 2 MiB chunk.
        let delta = device.stats().snapshot().delta(&start);
        assert_eq!(
            (delta.page_faults, delta.huge_page_faults),
            (0, file),
            "file {file}: one staging file mapped per file boundary"
        );
        assert_eq!(delta.staging_inline_creates, 0);
    }
}

#[test]
fn a_read_of_a_relinked_files_copied_tail_faults_once() {
    let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB as u64)
        .without_daemon();
    let fs = SplitFs::new(kernel, config).unwrap();
    let fd = fs.open("/f", OpenFlags::create()).unwrap();
    // 511 whole blocks and 100 bytes: the fsync relinks the blocks, whose
    // staging mapping the file keeps, and copies the 100 bytes through the
    // kernel into a block of the file's own.
    let data: Vec<u8> = (0..2 * MIB - 4096 + 100).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.write(fd, &data).unwrap(), data.len());
    fs.fsync(fd).unwrap();

    let last = data.len() - 1;
    let before = device.stats().snapshot();
    let view = fs.read_view(fd, last as u64, 1).unwrap();
    let delta = device.stats().snapshot().delta(&before);
    assert_eq!(&view[..], &data[last..]);
    assert_eq!(
        (delta.page_faults, delta.huge_page_faults),
        (1, 0),
        "only the copied tail block is mapped"
    );
    drop(view);
    let mut back = vec![0u8; data.len()];
    assert_eq!(fs.read_at(fd, 0, &mut back).unwrap(), data.len());
    assert!(back == data, "the file reads back as written");
}
