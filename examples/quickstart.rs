//! Quickstart: create a SplitFS instance on an emulated PM device, write a
//! file with one gathered `appendv`, fsync (which relinks the staged
//! data), and read it back zero-copy through a `ReadView` — while printing
//! what the split architecture did under the hood.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use splitfs_repro::kernelfs::Ext4Dax;
use splitfs_repro::pmem::{PmemBuilder, TimeCategory};
use splitfs_repro::splitfs::{Mode, SplitConfig, SplitFs};
use splitfs_repro::vfs::{FileSystem, IoVec, OpenFlags};

fn main() {
    // 1. An emulated persistent-memory device (512 MiB).
    let device = PmemBuilder::new(512 * 1024 * 1024)
        .track_persistence(false)
        .build();

    // 2. The kernel file system (K-Split) formatted on it.
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).expect("format the device");

    // 3. A SplitFS (U-Split) instance in strict mode: every operation is
    //    synchronous and atomic.
    let fs = SplitFs::new(kernel, SplitConfig::new(Mode::Strict)).expect("start SplitFS");

    println!(
        "mounted {} on a {} MiB device",
        fs.name(),
        device.size() / (1024 * 1024)
    );

    // 4. Write a log file with ONE gathered append: all 16 records go to
    //    staging together, their operation-log entries group-commit under a
    //    single fence.  The parent directory must exist first: metadata
    //    operations are passed through to the kernel.
    fs.mkdir("/app").expect("mkdir");
    let fd = fs.open("/app/wal.log", OpenFlags::create()).expect("open");

    let records: Vec<String> = (0..16u32)
        .map(|i| format!("record-{i:04}: persistent memory is byte addressable\n"))
        .collect();
    let iov: Vec<IoVec<'_>> = records.iter().map(|r| IoVec::new(r.as_bytes())).collect();

    let before = device.stats().snapshot();
    fs.appendv(fd, &iov).expect("appendv");
    let staged = device.stats().snapshot().delta(&before);
    println!(
        "gathered 16 records in one appendv: {} bytes staged, {} kernel traps, \
         {} fences, {} op-log entries",
        staged.written(TimeCategory::UserData),
        staged.kernel_traps,
        staged.fences,
        fs.oplog_entries(),
    );

    // 5. fsync: the staged appends are relinked into the target file —
    //    a metadata-only operation, no data copy.
    let before = device.stats().snapshot();
    fs.fsync(fd).expect("fsync");
    let relinked = device.stats().snapshot().delta(&before);
    println!(
        "fsync relinked the staged data: {} user-data bytes rewritten (expected ~0), {} kernel traps",
        relinked.written(TimeCategory::UserData),
        relinked.kernel_traps,
    );

    // 6. Read it back zero-copy: the view borrows the mapped blocks that
    //    were just relinked into the file — no memcpy.
    let size = fs.fstat(fd).expect("fstat").size as usize;
    let before = device.stats().snapshot();
    let view = fs.read_view(fd, 0, size).expect("read view");
    let lines = view
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    let zero_copy = view.is_zero_copy();
    drop(view);
    let read_delta = device.stats().snapshot().delta(&before);
    println!(
        "read back {size} bytes ({lines} records) — zero-copy: {zero_copy}, \
         {} bytes served without memcpy",
        read_delta.zero_copy_read_bytes,
    );

    fs.close(fd).expect("close");

    // 7. Where did the simulated time go?
    let snap = device.stats().snapshot();
    println!("\nsimulated time breakdown:");
    for cat in [
        TimeCategory::UserData,
        TimeCategory::Metadata,
        TimeCategory::Journal,
        TimeCategory::OpLog,
        TimeCategory::Software,
    ] {
        println!("  {:>10}: {:>10.0} ns", cat.label(), snap.time(cat));
    }
    println!(
        "  software overhead = {:.0} ns ({:.1}% of total)",
        snap.software_overhead_ns(),
        snap.software_overhead_ns() / snap.total_time_ns() * 100.0
    );
}
