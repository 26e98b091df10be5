//! Durability-epoch ordering across the async submission rings.
//!
//! Three invariants, one property-based, one crash-based and one
//! equivalence:
//!
//! 1. A completion may **never** report an epoch the instance has not
//!    published — i.e. an epoch whose operation-log group commit has
//!    not fenced yet.  The property test drives random cross-file
//!    batches through a ring and checks every harvested completion
//!    against `published_epoch()` at harvest time.
//! 2. After a crash, recovery replays exactly the writes whose epochs
//!    were published: everything harvested (and hence fenced) survives,
//!    and submissions that were never drained — which have no epoch —
//!    leave no trace.
//! 3. A synchronous call is a ring batch of one: the same op list played
//!    through `appendv`/`writev_at`/`fsync` and through a depth-1 ring
//!    leaves the same bytes, fences, log entries and staged extents.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::PmemBuilder;
use proptest::prelude::*;
use splitfs::oplog::{LogEntry, LogOp, OpLog};
use splitfs::{recover, Mode, SplitConfig, SplitFs, OPLOG_PATH};
use vfs::{FileSystem, IoVec, OpenFlags};

fn strict_config() -> SplitConfig {
    SplitConfig::new(Mode::Strict)
        .with_staging(2, 8 * 1024 * 1024)
        .with_oplog_size(256 * 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random cross-file append batches: every completion's epoch is
    /// already published when harvested (the fence happened first),
    /// every batch completes 1:1, and the per-file contents equal the
    /// submission order once the final epoch is awaited.
    #[test]
    fn completions_never_outrun_the_published_epoch(
        batches in prop::collection::vec(
            prop::collection::vec((0usize..3, 1usize..1500), 1..10),
            1..6,
        ),
    ) {
        let device = PmemBuilder::new(128 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, strict_config()).unwrap();
        let hub = splitfs::ring_hub(&fs);
        let ring = hub.ring(32);
        let fds: Vec<_> = (0..3)
            .map(|i| fs.open(&format!("/p{i}.log"), OpenFlags::create()).unwrap())
            .collect();
        let mut expected = vec![Vec::new(); 3];
        let mut user_data = 0u64;
        let mut cqes = Vec::new();
        for batch in &batches {
            for &(file, len) in batch {
                let fill = (user_data % 251) as u8 + 1;
                ring.try_submit(aio::Sqe::appendv(
                    user_data,
                    fds[file],
                    vec![vec![fill; len]],
                ))
                .unwrap();
                expected[file].extend(std::iter::repeat_n(fill, len));
                user_data += 1;
            }
            while hub.in_flight() > 0 {
                hub.drain(aio::DEFAULT_DRAIN_BATCH);
            }
            cqes.clear();
            ring.harvest(&mut cqes);
            let published = fs.published_epoch();
            prop_assert_eq!(cqes.len(), batch.len());
            for cqe in &cqes {
                prop_assert!(cqe.result.is_ok(), "{:?}", cqe.result);
                prop_assert!(
                    cqe.epoch <= published,
                    "epoch {} reported before publication {}",
                    cqe.epoch,
                    published
                );
                prop_assert!(cqe.epoch > 0, "logged writes carry a real epoch");
            }
        }
        hub.await_epoch(fs.published_epoch()).unwrap();
        for (i, fd) in fds.iter().enumerate() {
            fs.fsync(*fd).unwrap();
            prop_assert_eq!(
                fs.read_file(&format!("/p{i}.log")).unwrap(),
                expected[i].clone()
            );
        }
    }
}

/// Crash after awaiting the harvested epochs, with eight more
/// submissions sitting undrained in the ring: recovery replays every
/// published epoch (all 24 harvested appends reappear byte-for-byte)
/// and nothing beyond it (the undrained submissions never touched the
/// log, so the file ends exactly at the awaited epoch's data).
#[test]
fn recovery_replays_exactly_the_published_epochs() {
    // Persistence tracking on: this test crashes the device.  The
    // daemon stays off so undrained submissions provably stay undrained.
    let device = PmemBuilder::new(256 * 1024 * 1024).build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = strict_config().without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();
    let hub = splitfs::ring_hub(&fs);
    let ring = hub.ring(64);
    let fd = fs.open("/epochs.db", OpenFlags::create()).unwrap();

    let mut expected = Vec::new();
    for i in 0..24u64 {
        let fill = i as u8 + 1;
        ring.try_submit(aio::Sqe::appendv(i, fd, vec![vec![fill; 600]]))
            .unwrap();
        expected.extend(std::iter::repeat_n(fill, 600));
    }
    while hub.in_flight() > 0 {
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
    }
    let mut cqes = Vec::new();
    ring.harvest(&mut cqes);
    assert_eq!(cqes.len(), 24);
    assert!(cqes.iter().all(|c| c.result == Ok(600)));
    let max_epoch = cqes.iter().map(|c| c.epoch).max().unwrap();
    hub.await_epoch(max_epoch).unwrap();
    assert!(max_epoch <= fs.published_epoch());

    // Eight more submissions that nothing ever drains: they have no
    // epoch and must not survive the crash.
    for i in 24..32u64 {
        ring.try_submit(aio::Sqe::appendv(i, fd, vec![vec![0xEEu8; 600]]))
            .unwrap();
    }

    drop(ring);
    drop(hub); // the hub's backend holds the instance's strong Arc
    drop(fs);
    device.crash();

    let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    let report = recover(&kernel2, &config).unwrap();
    assert!(report.replayed > 0, "{report:?}");
    assert_eq!(
        kernel2.read_file("/epochs.db").unwrap(),
        expected,
        "recovery must replay every published epoch and nothing past it"
    );
}

/// One step of the sync ≡ ring equivalence op list, on file `0` or `1`.
#[derive(Debug, Clone)]
enum Op {
    Append(usize, Vec<Vec<u8>>),
    WriteAt(usize, u64, Vec<Vec<u8>>),
    Fsync(usize),
}

/// A fixed-seed list of 60 ops: gathers of 1–4 slices of up to 48 KiB
/// (about 3.5 MiB in all, so the 2 MiB staging files are straddled), an
/// fsync every seventh op and, when `overwrites`, a gather somewhere
/// inside the bytes written so far every fifth.
fn op_list(overwrites: bool) -> Vec<Op> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut sizes = [0u64; 2];
    (0..60)
        .map(|i| {
            let file = next(2) as usize;
            if i % 7 == 6 {
                return Op::Fsync(file);
            }
            let gather: Vec<Vec<u8>> = (0..1 + next(4))
                .map(|_| vec![i as u8 + 1; 1 + next(48 * 1024) as usize])
                .collect();
            if overwrites && i % 5 == 4 && sizes[file] > 0 {
                return Op::WriteAt(file, next(sizes[file]), gather);
            }
            sizes[file] += gather.iter().map(|b| b.len() as u64).sum::<u64>();
            Op::Append(file, gather)
        })
        .collect()
}

/// Everything a run leaves behind that the merge of the two write
/// pipelines must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    files: Vec<Vec<u8>>,
    fences: u64,
    flushes: u64,
    bytes_written: [u64; 5],
    /// After every op: staged extents awaiting relink, log entries in use.
    per_op: Vec<(usize, u64)>,
    /// The operation log as recovery would scan it: one `StagedWrite` per
    /// staged extent (target range, staging location, sequence number)
    /// and one `Invalidate` per relink.
    log: Vec<LogEntry>,
}

fn iov(bufs: &[Vec<u8>]) -> Vec<IoVec<'_>> {
    bufs.iter().map(|b| IoVec::new(b)).collect()
}

fn play(mode: Mode, ops: &[Op], through_ring: bool) -> Outcome {
    let device = PmemBuilder::new(128 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // No daemon: nothing but the op list touches the log or the pool.
    let config = SplitConfig::new(mode)
        .with_staging(4, 2 * 1024 * 1024)
        .with_oplog_size(256 * 1024)
        .without_daemon();
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    let hub = splitfs::ring_hub(&fs);
    let ring = hub.ring(1);
    let fds = [
        fs.open("/eq-0.dat", OpenFlags::create()).unwrap(),
        fs.open("/eq-1.dat", OpenFlags::create()).unwrap(),
    ];
    let before = device.stats().snapshot();
    let mut per_op = Vec::new();
    let mut cqes = Vec::new();
    for op in ops {
        if through_ring {
            let sqe = match op.clone() {
                Op::Append(file, bufs) => aio::Sqe::appendv(0, fds[file], bufs),
                Op::WriteAt(file, offset, bufs) => aio::Sqe::writev_at(0, fds[file], offset, bufs),
                Op::Fsync(file) => aio::Sqe::fsync(0, fds[file]),
            };
            ring.try_submit(sqe).unwrap();
            assert_eq!(hub.drain(aio::DEFAULT_DRAIN_BATCH), 1);
            cqes.clear();
            ring.harvest(&mut cqes);
            assert!(cqes[0].result.is_ok(), "{op:?}: {:?}", cqes[0].result);
        } else {
            match op {
                Op::Append(file, bufs) => fs.appendv(fds[*file], &iov(bufs)).map(drop),
                Op::WriteAt(file, offset, bufs) => {
                    fs.writev_at(fds[*file], *offset, &iov(bufs)).map(drop)
                }
                Op::Fsync(file) => fs.fsync(fds[*file]),
            }
            .unwrap();
        }
        per_op.push((fs.memory_usage().staged_extents, fs.oplog_entries()));
    }
    let delta = device.stats().snapshot().delta(&before);

    let log_fd = kernel.open(OPLOG_PATH, OpenFlags::read_only()).unwrap();
    let log_size = kernel.fstat(log_fd).unwrap().size;
    let mapping = kernel.dax_map(log_fd, 0, log_size, false).unwrap();
    let log = OpLog::scan(&device, &mapping, log_size);
    Outcome {
        files: vec![
            fs.read_file("/eq-0.dat").unwrap(),
            fs.read_file("/eq-1.dat").unwrap(),
        ],
        fences: delta.fences,
        flushes: delta.flushes,
        bytes_written: delta.bytes_written,
        per_op,
        log,
    }
}

#[test]
fn a_synchronous_call_is_a_ring_batch_of_one() {
    // Sync mode logs appends but overwrites in place, where a ring
    // `WritevAt` stages the whole range: only strict mode plays overwrites.
    for (mode, overwrites) in [(Mode::Strict, true), (Mode::Sync, false)] {
        let ops = op_list(overwrites);
        let sync = play(mode, &ops, false);
        let staging_ops = ops.iter().filter(|op| !matches!(op, Op::Fsync(_)));
        let staged_writes = sync.log.iter().filter(|e| e.op == LogOp::StagedWrite);
        assert!(
            staged_writes.count() > staging_ops.count(),
            "{mode:?}: no op took more than one staging allocation"
        );
        assert_eq!(sync, play(mode, &ops, true), "{mode:?}");
    }
}
