//! What each operation costs in kernel traps, per mode.
//!
//! Paper Table 1 is about what crosses from U-Split into the kernel, and
//! how often.  Appends, reads of mapped data and overwrites stay in user
//! space; an `fsync` is one trap — the relink ioctl, which moves the
//! block-aligned middle of what it retires, copies the partial blocks at
//! either end and returns the new size — whatever the alignment, and so is
//! an `fsync_many` of many files; a `close` after an `fsync` finds nothing
//! left to retire.  The test counts `kernel_traps` around each call.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice, StatsSnapshot, TimeCategory};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, OpenFlags};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
const BLOCK: usize = 4096;

/// Runs `call`, asserts it took `traps` kernel traps, and returns the
/// statistics it moved.
fn budget(device: &PmemDevice, what: &str, traps: u64, call: impl FnOnce()) -> StatsSnapshot {
    let before = device.stats().snapshot();
    call();
    let delta = device.stats().snapshot().delta(&before);
    assert_eq!(delta.kernel_traps, traps, "{what}");
    delta
}

#[test]
fn every_operation_keeps_its_trap_budget_in_every_mode() {
    for mode in [Mode::Posix, Mode::Sync, Mode::Strict] {
        let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        // Daemon off: nothing but the call under test enters the kernel.
        let config = SplitConfig::new(mode)
            .with_staging(2, 4 * MIB as u64)
            .without_daemon();
        let fs = SplitFs::new(kernel, config).unwrap();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        let traps = |what: &str, traps: u64, call: &mut dyn FnMut()| {
            budget(&device, &format!("{mode:?}: {what}"), traps, call)
        };

        let block = vec![0xA1u8; BLOCK];
        traps("append", 0, &mut || {
            fs.append(fd, &block).unwrap();
        });
        fs.append(fd, &block).unwrap();
        let delta = traps("fsync of an aligned run", 1, &mut || fs.fsync(fd).unwrap());
        assert_eq!(delta.relink_batch_ops, 1, "{mode:?}: one move");
        assert_eq!(delta.written(TimeCategory::UserData), 0, "{mode:?}");

        let mut buf = vec![0u8; 2 * BLOCK];
        traps("mapped read", 0, &mut || {
            assert_eq!(fs.read_at(fd, 0, &mut buf).unwrap(), 2 * BLOCK);
        });
        assert!(buf.iter().all(|&b| b == 0xA1), "{mode:?}");

        // [8192, 8292): one copy into a block the batch allocates.
        fs.append(fd, &[0xB2; 100]).unwrap();
        let delta = traps("fsync of a sub-block run", 1, &mut || fs.fsync(fd).unwrap());
        assert_eq!(delta.relink_batch_ops, 0, "{mode:?}: no move");
        assert_eq!(delta.written(TimeCategory::UserData), 100, "{mode:?}");

        // [8292, 16484): a head copy to the end of the block the last
        // fsync allocated, one moved block, a tail copy into a new one.
        fs.append(fd, &[0xC3; 2 * BLOCK]).unwrap();
        let delta = traps("fsync of a head + middle + tail run", 1, &mut || {
            fs.fsync(fd).unwrap()
        });
        assert_eq!(delta.relink_batch_ops, 1, "{mode:?}: one move");
        assert_eq!(
            delta.written(TimeCategory::UserData),
            (BLOCK - 100 + 100) as u64,
            "{mode:?}: the head and the tail are copied"
        );
        assert_eq!(delta.journal_txns, 1, "{mode:?}: one transaction");

        traps("in-place overwrite", 0, &mut || {
            fs.write_at(fd, 100, &[0xD4; 200]).unwrap();
        });
        // Strict mode staged the overwrite; the other modes have nothing
        // staged and only fence.
        let staged = u64::from(mode == Mode::Strict);
        traps("fsync after an overwrite", staged, &mut || {
            fs.fsync(fd).unwrap()
        });

        let others: Vec<_> = (0..3)
            .map(|i| fs.open(&format!("/g{i}"), OpenFlags::create()).unwrap())
            .collect();
        for (i, &other) in others.iter().enumerate() {
            fs.append(other, &vec![i as u8; BLOCK + 300 * i]).unwrap();
        }
        traps("fsync_many of 3 files", 1, &mut || {
            fs.fsync_many(&others).unwrap()
        });
        traps("close after fsync", 0, &mut || fs.close(fd).unwrap());

        let mut want = [
            vec![0xA1; 2 * BLOCK],
            vec![0xB2; 100],
            vec![0xC3; 2 * BLOCK],
        ]
        .concat();
        want[100..300].fill(0xD4);
        assert!(fs.read_file("/f").unwrap() == want, "{mode:?}");
        for (i, _) in others.iter().enumerate() {
            assert_eq!(
                fs.read_file(&format!("/g{i}")).unwrap(),
                vec![i as u8; BLOCK + 300 * i],
                "{mode:?}"
            );
        }
    }
}
