//! Tiered-capacity policy: daemon-driven demotion of idle files to the
//! capacity tier, heat promotion back to PM, the adaptive PM-utilization
//! watermark gate, and the per-tick QoS bandwidth cap.
//!
//! The mechanism itself (journaled segment records, crash atomicity,
//! tier-exclusive placement) is tested in `kernelfs`; these tests drive
//! the **policy** that decides when files move.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{PmemBuilder, PmemDevice};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, OpenFlags};

const MIB: usize = 1024 * 1024;

fn tiered_kernel(device: &Arc<PmemDevice>, pm: usize) -> Arc<kernelfs::Ext4Dax> {
    kernelfs::Ext4Dax::mkfs_shaped(Arc::clone(device), pm).unwrap()
}

fn config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB as u64)
        .with_oplog_size(256 * 1024)
        .without_daemon()
        .with_tier_demote_after_ms(1.0)
        .with_tier_pm_watermark(0.0)
}

fn write_file(fs: &Arc<SplitFs>, path: &str, fill: u8, len: usize) -> vfs::Fd {
    let fd = fs.open(path, OpenFlags::create()).unwrap();
    fs.append(fd, &vec![fill; len]).unwrap();
    fs.fsync(fd).unwrap();
    fd
}

#[test]
fn sweep_demotes_only_idle_relinked_files() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    let fs = SplitFs::new(Arc::clone(&kernel), config()).unwrap();

    let idle = write_file(&fs, "/idle.dat", 0x11, 256 * 1024);
    let busy = write_file(&fs, "/busy.dat", 0x22, 256 * 1024);

    // Nothing is idle yet: the sweep must not move anything.
    assert_eq!(fs.sweep_tier_demotions(), 0);

    // Make both files old, then touch one: only the untouched file is a
    // candidate.
    device.clock().advance(2_000_000.0);
    let mut one = [0u8; 1];
    fs.read_at(busy, 0, &mut one).unwrap();
    assert_eq!(fs.sweep_tier_demotions(), 1, "only the idle file demotes");
    assert_eq!(device.stats().snapshot().tier_demotions, 1);
    let (cap_used, _) = kernel.cap_usage();
    assert_eq!(cap_used, 64, "256 KiB = 64 capacity blocks");

    // The demoted file reads back correctly from the capacity tier.
    let mut buf = vec![0u8; 256 * 1024];
    fs.read_at(idle, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x11));
    assert!(device.stats().snapshot().tier_cap_reads > 0);
    fs.close(idle).unwrap();
    fs.close(busy).unwrap();
}

#[test]
fn pm_watermark_gates_demotion() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    // Watermark 1.0: PM can never be "full enough", so nothing demotes
    // no matter how idle it gets.
    let fs = SplitFs::new(Arc::clone(&kernel), config().with_tier_pm_watermark(1.0)).unwrap();
    let fd = write_file(&fs, "/pinned.dat", 0x33, 128 * 1024);
    device.clock().advance(10_000_000.0);
    assert_eq!(fs.sweep_tier_demotions(), 0, "below the watermark");
    assert_eq!(kernel.cap_usage().0, 0);
    fs.close(fd).unwrap();
}

#[test]
fn bandwidth_cap_defers_demotions_across_ticks() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    // Budget of one block per tick: the first candidate consumes it and
    // every further candidate is deferred (and counted).
    let fs = SplitFs::new(
        Arc::clone(&kernel),
        config().with_tier_bandwidth_per_tick(4096),
    )
    .unwrap();
    let a = write_file(&fs, "/a.dat", 0x44, 64 * 1024);
    let b = write_file(&fs, "/b.dat", 0x55, 64 * 1024);
    device.clock().advance(5_000_000.0);

    assert_eq!(fs.sweep_tier_demotions(), 1, "budget admits one file");
    let snap = device.stats().snapshot();
    assert_eq!(snap.tier_demotions, 1);
    assert!(
        snap.tier_bandwidth_deferrals >= 1,
        "the second candidate was deferred, not dropped"
    );
    // The next tick picks up the deferred file.
    device.clock().advance(5_000_000.0);
    assert_eq!(fs.sweep_tier_demotions(), 1, "deferred file demotes later");
    assert_eq!(device.stats().snapshot().tier_demotions, 2);
    fs.close(a).unwrap();
    fs.close(b).unwrap();
}

/// A write means the file is hot again: it promotes before the bytes
/// land — whether the write arrives synchronously or through a ring —
/// and the merged contents read back from PM.
fn write_promotes_a_demoted_file(through_ring: bool) {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    let fs = SplitFs::new(Arc::clone(&kernel), config()).unwrap();
    let fd = write_file(&fs, "/hot.dat", 0x66, 128 * 1024);
    device.clock().advance(5_000_000.0);
    assert_eq!(fs.sweep_tier_demotions(), 1);
    assert!(kernel.cap_usage().0 > 0);

    if through_ring {
        let hub = splitfs::ring_hub(&fs);
        let ring = hub.ring(1);
        ring.try_submit(aio::Sqe::writev_at(1, fd, 0, vec![vec![0x77; 4096]]))
            .unwrap();
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
        let mut cqes = Vec::new();
        ring.harvest(&mut cqes);
        assert_eq!(cqes[0].result, Ok(4096));
    } else {
        fs.write_at(fd, 0, &[0x77; 4096]).unwrap();
    }
    assert_eq!(kernel.cap_usage().0, 0, "whole file back on PM");
    assert!(device.stats().snapshot().tier_promotions >= 1);
    fs.fsync(fd).unwrap();
    assert_eq!(fs.sweep_tier_demotions(), 0, "just written: not idle");
    let mut buf = vec![0u8; 128 * 1024];
    fs.read_at(fd, 0, &mut buf).unwrap();
    assert!(buf[..4096].iter().all(|&b| b == 0x77));
    assert!(buf[4096..].iter().all(|&b| b == 0x66));
    fs.close(fd).unwrap();
}

#[test]
fn writes_promote_demoted_files_eagerly() {
    write_promotes_a_demoted_file(false);
}

#[test]
fn ring_writes_promote_demoted_files_eagerly() {
    write_promotes_a_demoted_file(true);
}

#[test]
fn flat_devices_never_demote() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    assert!(!kernel.is_tiered());
    let fs = SplitFs::new(Arc::clone(&kernel), config()).unwrap();
    let fd = write_file(&fs, "/flat.dat", 0x88, 64 * 1024);
    device.clock().advance(10_000_000.0);
    assert_eq!(fs.sweep_tier_demotions(), 0, "no capacity tier, no sweep");
    fs.close(fd).unwrap();
}

#[test]
fn daemon_demotes_in_the_background() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    // Daemon on: the maintenance tick runs the sweep without any nudge.
    let cfg = SplitConfig::new(Mode::Strict)
        .with_staging(2, 4 * MIB as u64)
        .with_oplog_size(256 * 1024)
        .with_tier_demote_after_ms(1.0)
        .with_tier_pm_watermark(0.0);
    let fs = SplitFs::new(Arc::clone(&kernel), cfg).unwrap();
    assert!(fs.daemon_running());
    let fd = write_file(&fs, "/bg.dat", 0x99, 128 * 1024);
    device.clock().advance(5_000_000.0);

    let deadline = Instant::now() + Duration::from_secs(10);
    while device.stats().snapshot().tier_demotions == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        device.stats().snapshot().tier_demotions >= 1,
        "a maintenance tick demoted the idle file"
    );
    // Data still correct through the bounce path.
    let mut buf = vec![0u8; 128 * 1024];
    fs.read_at(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x99));
    fs.close(fd).unwrap();
}

#[test]
fn demoted_files_survive_remount_and_reopen_cold() {
    let device = PmemBuilder::new(64 * MIB).build();
    let kernel = tiered_kernel(&device, 48 * MIB);
    let cfg = config();
    let fs = SplitFs::new(Arc::clone(&kernel), cfg.clone()).unwrap();
    let fd = write_file(&fs, "/persist.dat", 0xAB, 96 * 1024);
    device.clock().advance(5_000_000.0);
    assert_eq!(fs.sweep_tier_demotions(), 1);
    fs.close(fd).unwrap();
    drop(fs);
    drop(kernel);
    device.crash();

    // Remount: the segment table reloads and a fresh instance opens the
    // file already knowing it is cold (no stale PM mapping is created).
    let kernel2 = kernelfs::Ext4Dax::mount(Arc::clone(&device)).unwrap();
    assert!(kernel2.is_tiered());
    assert!(kernel2.cap_usage().0 > 0, "segments survived the remount");
    let fs2 = SplitFs::new(Arc::clone(&kernel2), cfg).unwrap();
    let fd = fs2.open("/persist.dat", OpenFlags::read_only()).unwrap();
    let mut buf = vec![0u8; 96 * 1024];
    fs2.read_at(fd, 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0xAB));
    fs2.close(fd).unwrap();
}
