//! A staging block belongs to one file.
//!
//! The staging pool hands a block to exactly one file, and the unfilled
//! rest of a block to the file whose last staged extent ends in it, so
//! small appends to many open files each fill their own blocks and an
//! `fsync` relinks them whole instead of copying every extent through the
//! kernel.  These tests hold that to what an application sees: the
//! interleaved small-append pattern costs one relink per `fsync` and no
//! copy; every read agrees with an in-memory model before `fsync`, after
//! it, and after a crash cut at every fence under each crash policy; and
//! staging files keep recycling under a long-lived instance while tails
//! are live.

use std::sync::Arc;

use aio::Sqe;
use kernelfs::Ext4Dax;
use parking_lot::Mutex;
use pmem::{CrashPolicy, PmemBuilder, PmemDevice, TimeCategory};
use splitfs::{recover, Mode, SplitConfig, SplitFs};
use vfs::{Fd, FileSystem, IoVec, OpenFlags};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
const BLOCK: usize = 4096;
const FILES: usize = 8;

fn config(mode: Mode) -> SplitConfig {
    // Daemon off: the fence sequence of a run is a function of its calls.
    SplitConfig::new(mode)
        .with_staging(2, 2 * MIB as u64)
        .with_oplog_size(64 * KIB as u64)
        .without_daemon()
}

fn path(file: usize) -> String {
    format!("/f{file}")
}

#[test]
fn interleaved_small_appends_relink_whole_blocks() {
    for mode in [Mode::Sync, Mode::Strict] {
        let device = PmemBuilder::new(64 * MIB).track_persistence(false).build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, config(mode)).unwrap();
        let fds: Vec<Fd> = (0..6)
            .map(|f| fs.open(&path(f), OpenFlags::create()).unwrap())
            .collect();
        // Six file lives interleaved, a kilobyte at a time.
        let mut contents = vec![Vec::new(); fds.len()];
        for round in 0..4u8 {
            for (f, &fd) in fds.iter().enumerate() {
                let chunk = vec![16 * f as u8 + round + 1; KIB];
                fs.append(fd, &chunk).unwrap();
                contents[f].extend_from_slice(&chunk);
            }
        }
        let read = |fd: Fd| {
            let mut buf = vec![0u8; BLOCK];
            assert_eq!(fs.read_at(fd, 0, &mut buf).unwrap(), BLOCK);
            buf
        };
        for (f, &fd) in fds.iter().enumerate() {
            assert_eq!(read(fd), contents[f], "{mode:?}: file {f} before fsync");
            let before = device.stats().snapshot();
            fs.fsync(fd).unwrap();
            let delta = device.stats().snapshot().delta(&before);
            assert_eq!(
                (delta.batched_relinks, delta.relink_batch_ops),
                (1, 1),
                "{mode:?}: file {f}'s four extents fill one staging block: one relink op"
            );
            assert_eq!(
                delta.written(TimeCategory::UserData),
                0,
                "{mode:?}: file {f}: no staged byte is copied"
            );
            // The relink ioctl, which returns the new size too.
            assert_eq!(delta.kernel_traps, 1, "{mode:?}: file {f}");

            let before = device.stats().snapshot();
            assert_eq!(read(fd), contents[f], "{mode:?}: file {f} after fsync");
            let delta = device.stats().snapshot().delta(&before);
            assert_eq!(
                (delta.page_faults, delta.kernel_traps),
                (0, 0),
                "{mode:?}: file {f}: the staging mapping was retained"
            );
        }
    }
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A write length between 1 B and 9 KiB for a write at `offset`: tiny,
    /// about a kilobyte, anything, or ending within a few bytes of a block
    /// end — on it, short of it, past it.
    fn len_at(&mut self, offset: usize) -> usize {
        let len = match self.below(4) {
            0 => 1 + self.below(64),
            1 => 900 + self.below(300),
            2 => 1 + self.below(9 * KIB),
            _ => {
                let to_block_end = BLOCK - offset % BLOCK + BLOCK * self.below(2);
                (to_block_end + self.below(7)).saturating_sub(3)
            }
        };
        len.clamp(1, 9 * KIB)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let tag = self.next();
        (0..len)
            .map(|i| (tag >> (8 * (i % 8))) as u8 ^ i as u8 | 1)
            .collect()
    }
}

/// One write of a call, with the offset the model resolved for it.
#[derive(Clone)]
struct Write {
    file: usize,
    /// Whether the call named the offset (an overwrite) or appended.
    positional: bool,
    offset: usize,
    data: Vec<u8>,
}

impl std::fmt::Debug for Write {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.positional { "write" } else { "append" };
        write!(
            f,
            "{kind}(f{}, {}+{})",
            self.file,
            self.offset,
            self.data.len()
        )
    }
}

#[derive(Debug, Clone)]
enum Call {
    Write(Write),
    /// A ring batch: unrelated files, and one file named twice.
    Batch(Vec<Write>),
    Truncate {
        file: usize,
        size: usize,
    },
    Fsync {
        file: usize,
    },
}

fn apply(content: &mut Vec<u8>, write: &Write) {
    let end = write.offset + write.data.len();
    if content.len() < end {
        content.resize(end, 0);
    }
    content[write.offset..end].copy_from_slice(&write.data);
}

/// The next call of a seeded run against `model`; the model is updated.
/// A ring batch carries an overwrite only in strict mode: elsewhere the
/// ring stages it where the synchronous call writes in place, and the two
/// do not compose (ROADMAP item 1(f)).
fn next_call(rng: &mut Rng, model: &mut [Vec<u8>], strict: bool) -> Call {
    let write = |rng: &mut Rng, model: &mut [Vec<u8>], file: usize, positional: bool| {
        let size = model[file].len();
        let offset = if positional {
            rng.below(size + 1)
        } else {
            size
        };
        let len = rng.len_at(offset);
        let data = rng.bytes(len);
        let write = Write {
            file,
            positional,
            offset,
            data,
        };
        apply(&mut model[file], &write);
        write
    };
    let file = rng.below(FILES);
    match rng.below(100) {
        0..=49 => Call::Write(write(rng, model, file, false)),
        50..=61 => Call::Write(write(rng, model, file, true)),
        62..=69 => {
            let size = rng.below(model[file].len() + 1);
            model[file].truncate(size);
            Call::Truncate { file, size }
        }
        70..=84 => Call::Fsync { file },
        _ => {
            let other = (file + 1 + rng.below(FILES - 1)) % FILES;
            let third = rng.below(FILES);
            let overwrite = rng.below(3) == 0 && strict;
            Call::Batch(vec![
                write(rng, model, file, false),
                write(rng, model, other, overwrite),
                write(rng, model, file, false),
                write(rng, model, third, false),
            ])
        }
    }
}

/// A synchronous write's bytes as a gather of one to three slices, cut
/// where its length says: no draw from the generator, so a seed issues the
/// same calls whether or not they gather.
fn gather(data: &[u8]) -> Vec<IoVec<'_>> {
    let len = data.len();
    let (a, b) = match len % 3 {
        0 => (len, len),
        1 => (len / 2, len),
        _ => (len / 3, len - len / 5),
    };
    [&data[..a], &data[a..b], &data[b..]]
        .into_iter()
        .filter(|slice| !slice.is_empty())
        .map(IoVec::new)
        .collect()
}

fn issue(fs: &Arc<SplitFs>, fds: &[Fd], call: &Call) {
    let sqe = |w: &Write| {
        if w.positional {
            Sqe::writev_at(0, fds[w.file], w.offset as u64, vec![w.data.clone()])
        } else {
            Sqe::appendv(0, fds[w.file], vec![w.data.clone()])
        }
    };
    match call {
        Call::Write(w) if w.positional => {
            fs.writev_at(fds[w.file], w.offset as u64, &gather(&w.data))
                .unwrap();
        }
        Call::Write(w) => {
            fs.appendv(fds[w.file], &gather(&w.data)).unwrap();
        }
        Call::Batch(writes) => {
            for (cqe, w) in fs
                .ring_batch(writes.iter().map(sqe).collect())
                .iter()
                .zip(writes)
            {
                assert_eq!(cqe.result, Ok(w.data.len() as u64));
            }
        }
        Call::Truncate { file, size } => fs.ftruncate(fds[*file], *size as u64).unwrap(),
        Call::Fsync { file } => fs.fsync(fds[*file]).unwrap(),
    }
}

fn read_all(fs: &Arc<SplitFs>, fd: Fd) -> Vec<u8> {
    let size = fs.fstat(fd).unwrap().size as usize;
    let mut buf = vec![0u8; size + 1];
    let n = fs.read_at(fd, 0, &mut buf).unwrap();
    buf.truncate(n);
    buf
}

fn open_files(fs: &Arc<SplitFs>) -> Vec<Fd> {
    (0..FILES)
        .map(|f| fs.open(&path(f), OpenFlags::create()).unwrap())
        .collect()
}

/// Every file a call touched reads back as the model says.
fn assert_reads_match(fs: &Arc<SplitFs>, fds: &[Fd], model: &[Vec<u8>], call: &Call, what: &str) {
    let files: Vec<usize> = match call {
        Call::Write(w) => vec![w.file],
        Call::Batch(writes) => writes.iter().map(|w| w.file).collect(),
        Call::Truncate { file, .. } | Call::Fsync { file } => vec![*file],
    };
    for file in files {
        let found = read_all(fs, fds[file]);
        assert!(
            found == model[file],
            "{what}: file {file} after {call:?}: {}",
            difference(&found, &model[file])
        );
    }
}

/// Where two contents part, for a failure message.
fn difference(found: &[u8], model: &[u8]) -> String {
    let at = found.iter().zip(model).position(|(a, b)| a != b);
    format!(
        "{} bytes found, {} in the model, first difference at {at:?}",
        found.len(),
        model.len()
    )
}

#[test]
fn reads_match_the_model_before_and_after_every_fsync() {
    for seed in 0..200u64 {
        let mode = [Mode::Sync, Mode::Strict][seed as usize % 2];
        let device = PmemBuilder::new(32 * MIB).track_persistence(false).build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(Arc::clone(&kernel), config(mode)).unwrap();
        let fds = open_files(&fs);
        let mut rng = Rng(seed);
        let mut model = vec![Vec::new(); FILES];
        for step in 0..60 {
            let call = next_call(&mut rng, &mut model, mode == Mode::Strict);
            issue(&fs, &fds, &call);
            assert_reads_match(
                &fs,
                &fds,
                &model,
                &call,
                &format!("seed {seed} step {step}"),
            );
        }
        for (file, &fd) in fds.iter().enumerate() {
            fs.fsync(fd).unwrap();
            assert!(read_all(&fs, fd) == model[file], "seed {seed}: file {file}");
            assert!(
                kernel.read_file(&path(file)).unwrap() == model[file],
                "seed {seed}: file {file} as the kernel holds it"
            );
        }
    }
}

/// What a crash cut may find: the model before the call in flight, and
/// that call's writes.
#[derive(Default)]
struct InFlight {
    before: Vec<Vec<u8>>,
    writes: Vec<Write>,
    /// `(file, size)` of a truncate in flight.
    truncate: Option<(usize, usize)>,
    what: String,
    /// Whether the call stays clear of K-Split (a write or a ring batch).
    kernel_free: bool,
    /// The first cut whose recovered contents the model does not allow.
    violation: Option<String>,
}

impl InFlight {
    /// Whether `found` is a content `file` may have after recovery.  Every
    /// call that returned is durable (strict mode); of the call in flight,
    /// each write is applied whole or not at all — except under torn
    /// writes, where the log entries of one group commit (a write that
    /// crossed the end of its block tail has two) survive one by one:
    /// there every byte is the one some state around the call holds at
    /// its position, or the zero of a hole behind a write that did not
    /// survive.
    fn allows(&self, file: usize, found: &[u8], torn: bool) -> bool {
        let before = &self.before[file];
        if let Some((_, size)) = self.truncate.filter(|&(f, _)| f == file) {
            return found == &before[..] || found == &before[..size];
        }
        let writes: Vec<&Write> = self.writes.iter().filter(|w| w.file == file).collect();
        let states: Vec<Vec<u8>> = (0..1u32 << writes.len())
            .map(|subset| {
                let mut content = before.clone();
                for (k, write) in writes.iter().enumerate() {
                    if subset >> k & 1 == 1 {
                        apply(&mut content, write);
                    }
                }
                content
            })
            .collect();
        if !torn {
            return states.iter().any(|state| state == found);
        }
        let longest = states.iter().map(Vec::len).max().unwrap_or(0);
        (before.len()..=longest).contains(&found.len())
            && found.iter().enumerate().all(|(at, byte)| {
                *byte == 0 && at >= before.len() || states.iter().any(|s| s.get(at) == Some(byte))
            })
    }
}

const CUT_DEVICE: usize = 8 * MIB;

/// Runs the calls `next` yields on a fresh strict stack over a tracked
/// device, checking every read against the model, and before every fence
/// `k` with `(k + phase) % stride == 0` cuts the power: the image the crash
/// policy leaves is mounted on `scratch`, recovered, and every file is held
/// to what [`InFlight::allows`].  Ends with a crash of the quiesced device.
/// Returns the number of cuts verified.
fn run_with_cuts(
    label: &str,
    policy: CrashPolicy,
    (phase, stride): (u64, u64),
    scratch: &Arc<PmemDevice>,
    mut next: impl FnMut(&mut [Vec<u8>]) -> Option<Call>,
) -> u64 {
    let torn = matches!(policy, CrashPolicy::TornWrites { .. });
    let device = PmemBuilder::new(CUT_DEVICE)
        .track_persistence(true)
        .crash_policy(policy)
        .build();
    let config = config(Mode::Strict);
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fs = SplitFs::new(kernel, config.clone()).unwrap();
    let fds = open_files(&fs);
    fs.sync().unwrap();

    let mut model = vec![Vec::new(); FILES];
    let in_flight = Arc::new(Mutex::new(InFlight::default()));
    let cuts = Arc::new(std::sync::atomic::AtomicU64::new(0));
    {
        let (in_flight, scratch, config, cuts, label) = (
            Arc::clone(&in_flight),
            Arc::clone(scratch),
            config.clone(),
            Arc::clone(&cuts),
            label.to_string(),
        );
        device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
            if !(ordinal + phase).is_multiple_of(stride) {
                return;
            }
            // K-Split journals deltas against inode records it updates in
            // place, which a torn line leaves half old, half new (ROADMAP
            // item 1(d)): under torn writes only the calls that stay in
            // U-Split — staging stores and log entries — are cut.
            if torn && !in_flight.lock().kernel_free {
                return;
            }
            // Power fails before this fence completes.
            scratch.restore_crash_image(&dev.capture_crash_image());
            let kernel = Ext4Dax::mount(Arc::clone(&scratch)).expect("mount");
            recover(&kernel, &config).expect("oplog replay");
            let mut in_flight = in_flight.lock();
            for file in 0..FILES {
                let found = kernel.read_file(&path(file)).unwrap();
                if !in_flight.allows(file, &found, torn) && in_flight.violation.is_none() {
                    // Reported by the caller's thread: a fence can run
                    // inside a destructor, where a panic would abort.
                    in_flight.violation = Some(format!(
                        "{label} {policy:?}, cut before fence {ordinal} of {}: \
                         file {file} against the model before the call: {}",
                        in_flight.what,
                        difference(&found, &in_flight.before[file]),
                    ));
                }
            }
            cuts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        })));
    }
    let mut step = 0;
    loop {
        let before = model.clone();
        let Some(call) = next(&mut model) else { break };
        {
            let mut in_flight = in_flight.lock();
            in_flight.before = before;
            in_flight.what = format!("step {step} {call:?}");
            in_flight.truncate = None;
            in_flight.kernel_free = matches!(call, Call::Write(_) | Call::Batch(_));
            in_flight.writes = match &call {
                Call::Write(w) => vec![w.clone()],
                Call::Batch(writes) => writes.clone(),
                Call::Truncate { file, size } => {
                    in_flight.truncate = Some((*file, *size));
                    Vec::new()
                }
                Call::Fsync { .. } => Vec::new(),
            };
        }
        issue(&fs, &fds, &call);
        assert_eq!(in_flight.lock().violation, None);
        assert_reads_match(&fs, &fds, &model, &call, &format!("{label} step {step}"));
        step += 1;
    }
    device.set_fence_hook(None);

    // And the crash of the quiesced device: everything the calls returned
    // with.
    drop(fs);
    device.crash();
    let kernel = Ext4Dax::mount(Arc::clone(&device)).expect("mount");
    recover(&kernel, &config).expect("oplog replay");
    for (file, content) in model.iter().enumerate() {
        assert!(
            &kernel.read_file(&path(file)).unwrap() == content,
            "{label} {policy:?}: file {file} after the final crash"
        );
    }
    cuts.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn a_crash_cut_at_any_fence_recovers_what_the_model_promises() {
    let scratch = PmemBuilder::new(CUT_DEVICE)
        .track_persistence(false)
        .build();
    let mut cuts = 0;
    for seed in 0..210u64 {
        // Every tenth seed is cut before every fence of its run (seven
        // seeds per policy), the others before every sixth, a different
        // sixth for each: a cut costs a mount.
        let stride = if seed % 10 == 0 { 1 } else { 6 };
        let policy = [
            CrashPolicy::LoseUnflushed,
            CrashPolicy::KeepAll,
            CrashPolicy::TornWrites { seed },
        ][seed as usize % 3];
        let mut rng = Rng(seed ^ 0xC4A0_5EED);
        let mut steps = 0..10;
        cuts += run_with_cuts(
            &format!("seed {seed}"),
            policy,
            (seed, stride),
            &scratch,
            |model| steps.next().map(|_| next_call(&mut rng, model, true)),
        );
    }
    assert!(cuts >= 1000, "only {cuts} crash cuts were verified");
}

/// A scripted write: `len` bytes at `offset`, or appended.
fn scripted(model: &mut [Vec<u8>], file: usize, offset: Option<usize>, len: usize) -> Call {
    let write = Write {
        file,
        positional: offset.is_some(),
        offset: offset.unwrap_or(model[file].len()),
        data: Rng((file + len) as u64).bytes(len),
    };
    apply(&mut model[file], &write);
    Call::Write(write)
}

#[test]
fn a_crash_inside_fsync_loses_nothing_the_log_still_holds() {
    let scratch = PmemBuilder::new(CUT_DEVICE)
        .track_persistence(false)
        .build();
    // Regression, seeds 3 and 1 of the run above before the fix.  The
    // second append's log entry covers the end of the block `fsync` relinks
    // *and* the three bytes behind it, which `fsync` copies: cut between
    // the two, replay used to find "a hole" under the entry and skip it,
    // three unrelinked bytes included.
    let mut script = [Some(1000), Some(3099), None].into_iter();
    let cuts = run_with_cuts(
        "tail behind a relinked block",
        CrashPolicy::LoseUnflushed,
        (0, 1),
        &scratch,
        |model| {
            script.next().map(|len| match len {
                Some(len) => scripted(model, 0, None, len),
                None => Call::Fsync { file: 0 },
            })
        },
    );
    assert!(cuts >= 8, "{cuts}");

    // Regression, seed 112.  An overwrite staged over earlier appends goes
    // down as a second generation; once its block is relinked its log entry
    // is a hole, while the first generation's copied tail still sits in
    // staging under *its* entries.  Replayed oldest first, those older
    // bytes landed on top of the relinked block.
    let mut script = [
        (None, 4099),
        (None, 2055),
        (Some(1005), 7190),
        (None, 13),
        (None, 0),
    ]
    .into_iter();
    let cuts = run_with_cuts(
        "older tail under a newer relinked block",
        CrashPolicy::KeepAll,
        (0, 1),
        &scratch,
        |model| {
            script.next().map(|(offset, len)| match len {
                0 => Call::Fsync { file: 0 },
                len => scripted(model, 0, offset, len),
            })
        },
    );
    assert!(cuts >= 16, "{cuts}");
}

#[test]
fn staging_files_recycle_under_a_long_life_while_tails_are_live() {
    let device = PmemBuilder::new(128 * MIB).track_persistence(false).build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 2 * MIB as u64)
        .with_oplog_size(256 * KIB as u64);
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
    let fds = open_files(&fs);
    let mut rng = Rng(24);
    let mut model = vec![Vec::new(); FILES];
    let mut staged_bytes = 0usize;
    // Twelve staging files' worth through a pool of two: every file keeps
    // a live tail between its fsyncs, and the daemon has to recycle the
    // staging files behind them.
    while staged_bytes < 24 * MIB {
        let file = rng.below(FILES);
        let len = rng.len_at(model[file].len());
        let data = rng.bytes(len);
        fs.append(fds[file], &data).unwrap();
        staged_bytes += data.len();
        model[file].extend_from_slice(&data);
        if rng.below(6) == 0 {
            let synced = rng.below(FILES);
            fs.fsync(fds[synced]).unwrap();
            // Read back the last block and a half: relinked blocks and the
            // copied tail.
            let from = model[synced].len().saturating_sub(BLOCK + BLOCK / 2);
            let mut buf = vec![0u8; model[synced].len() - from];
            fs.read_at(fds[synced], from as u64, &mut buf).unwrap();
            assert!(
                buf == model[synced][from..],
                "file {synced} at {from}: {}",
                difference(&buf, &model[synced][from..])
            );
        }
        if model[file].len() > 3 * MIB {
            // Keep the files small enough to compare whole at the end.
            fs.ftruncate(fds[file], 0).unwrap();
            model[file].clear();
        }
    }
    fs.maintenance_quiesce();
    for (file, &fd) in fds.iter().enumerate() {
        assert!(read_all(&fs, fd) == model[file], "file {file} before fsync");
        fs.fsync(fd).unwrap();
        assert!(
            kernel.read_file(&path(file)).unwrap() == model[file],
            "file {file} as the kernel holds it"
        );
    }
    let recycles = device.stats().snapshot().staging_recycles;
    assert!(recycles >= 4, "only {recycles} staging files were recycled");
}
