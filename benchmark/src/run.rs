//! What an op list runs against, and the loop that measures it.
//!
//! A [`Target`] owns one mounted stack (device, K-Split, U-Split, and for
//! `kv_ycsb_a` the store on top), executes ops one at a time and checks every
//! result against an in-memory model.  [`measure`] drives a target through
//! the timed rounds of a [`Plan`]; it never looks at a clock to decide when
//! to stop.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use apps::lsm::{LsmConfig, LsmStore};
use kernelfs::Ext4Dax;
use pmem::{CrashPolicy, PmemBuilder, PmemDevice, SimClock, Stats, StatsSnapshot, TimeCategory};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{Fd, FileSystem, OpenFlags};

use crate::gen::{
    Op, Plan, Workload, CRASH_FILES, INPLACE_BLOCKS, KEY_LEN, KV_KEYS, META_DIRS, META_RESIDENTS,
    PAGE, VALUE_LEN,
};
use crate::trace::{SpanFs, TraceStore, APP_GET, APP_PUT};
use crate::{est, host};

/// What, if anything, sits between a target and its file system.
#[derive(Clone)]
pub enum Wrap {
    /// Nothing: every timed (untraced) run.
    Plain,
    /// The benchmark's own [`SpanFs`]: the traced run.
    Span(Arc<TraceStore>),
    /// The product's `vfs::TracedFs` + `obs::Recorder`: the
    /// `vfs.traced_overhead_ns` twin.
    Obs(Arc<obs::Recorder>),
}

impl Wrap {
    fn around(&self, fs: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        match self {
            Wrap::Plain => fs,
            Wrap::Span(store) => SpanFs::wrap(fs, store),
            Wrap::Obs(recorder) => Arc::new(vfs::TracedFs::new(fs, Arc::clone(recorder))),
        }
    }

    fn store(&self) -> Option<&TraceStore> {
        match self {
            Wrap::Span(store) => Some(store),
            _ => None,
        }
    }
}

const MIB: usize = 1 << 20;

/// Something an op list can be run against.
pub trait Target {
    fn device(&self) -> &Arc<PmemDevice>;
    /// The span store of a traced target; [`measure`] records only inside
    /// timed rounds.
    fn trace(&self) -> Option<&TraceStore>;
    /// Work before timed round `round` that no clock sees.
    fn before_round(&mut self, _round: usize) {}
    /// Runs one op and checks its result; a wrong result counts as failed.
    fn exec(&mut self, op: Op);
    fn failed(&self) -> u64;
}

/// Device-wide counters summed over the timed rounds (every thread, so the
/// maintenance daemon's work is in here too).
#[derive(Clone, Copy, Debug, Default)]
pub struct Dev {
    pub time_ns: [f64; 5],
    pub bytes_written: f64,
    pub bytes_read: f64,
    pub fences: f64,
    pub flushes: f64,
    pub page_faults: f64,
    pub kernel_traps: f64,
    pub journal_txns: f64,
    pub staging_inline_creates: f64,
    pub staging_bg_creates: f64,
    pub batched_relinks: f64,
    pub relink_batch_ops: f64,
    pub oplog_group_commits: f64,
    pub oplog_epoch_swaps: f64,
    pub daemon_checkpoints: f64,
    pub checkpoint_stalls: f64,
    pub staging_lock_waits: f64,
    pub shard_lock_waits: f64,
    pub ns_shard_lock_waits: f64,
    pub path_cache_hits: f64,
    pub path_cache_misses: f64,
}

impl Dev {
    fn add(&mut self, d: &StatsSnapshot) {
        for (sum, ns) in self.time_ns.iter_mut().zip(d.time_ns) {
            *sum += ns;
        }
        self.bytes_written += d.total_bytes_written() as f64;
        self.bytes_read += d.total_bytes_read() as f64;
        self.fences += d.fences as f64;
        self.flushes += d.flushes as f64;
        self.page_faults += (d.page_faults + d.huge_page_faults) as f64;
        self.kernel_traps += d.kernel_traps as f64;
        self.journal_txns += d.journal_txns as f64;
        self.staging_inline_creates += d.staging_inline_creates as f64;
        self.staging_bg_creates += d.staging_bg_creates as f64;
        self.batched_relinks += d.batched_relinks as f64;
        self.relink_batch_ops += d.relink_batch_ops as f64;
        self.oplog_group_commits += d.oplog_group_commits as f64;
        self.oplog_epoch_swaps += d.oplog_epoch_swaps as f64;
        self.daemon_checkpoints += d.daemon_checkpoints as f64;
        self.checkpoint_stalls += d.checkpoint_stalls as f64;
        self.staging_lock_waits += d.staging_lock_waits as f64;
        self.shard_lock_waits += d.shard_lock_waits as f64;
        self.ns_shard_lock_waits += d.ns_shard_lock_waits as f64;
        self.path_cache_hits += d.path_cache_hits as f64;
        self.path_cache_misses += d.path_cache_misses as f64;
    }

    pub fn time(&self, cat: TimeCategory) -> f64 {
        self.time_ns[cat.index_in_all()]
    }
}

/// Host times of one round, per op.  The first four are scaled to the
/// nominal host speed by the [`Reference`] slices run around and inside the
/// round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundHost {
    pub wall_ns: f64,
    pub cpu_ns: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    /// Unscaled wall ns per op.
    pub raw_wall_ns: f64,
    /// Nominal reference time over measured reference time: above 1 on a
    /// host that is faster than nominal.
    pub host_speed: f64,
}

/// Everything the timed rounds of one run yielded.
#[derive(Default)]
pub struct Measured {
    pub ops: u64,
    pub user_bytes: u64,
    pub rounds: Vec<RoundHost>,
    /// Process CPU (all threads) over the rounds, ns, unscaled.
    pub cpu_ns: u64,
    /// The foreground thread's share of `cpu_ns`.
    pub main_cpu_ns: u64,
    /// The foreground thread's simulated time (its critical path), ns.
    pub sim_ns: f64,
    /// Of which charged as user-data device access.
    pub sim_user_ns: f64,
    pub dev: Dev,
}

impl Measured {
    /// Median over the rounds of one per-round host reading.
    pub fn median(&self, reading: impl Fn(&RoundHost) -> f64) -> f64 {
        est::median(&self.rounds.iter().map(reading).collect::<Vec<_>>())
    }
}

/// A fixed kernel that measures how fast the host is right now.
///
/// The sandbox shares its memory system with other tenants and drifts by tens
/// of percent over minutes (README, "Noise protocol").  One slice of the kernel copies
/// [`Reference::COPIES`] pool pages to and from seeded positions of a 128 MiB
/// buffer, much as the device emulation does, and then runs a dependent
/// chain of [`Reference::STEPS`] multiplications: about two thirds memory
/// traffic and one third arithmetic, because that is how the five workloads
/// respond to the drift — a copy-only kernel slows down more than they do and
/// over-corrects.  [`measure`] runs a slice before every round and
/// [`REFERENCE_SLICES`] more spread through it, with the round's clocks
/// stopped, and multiplies the round's host times by nominal ÷ measured slice
/// time.  The kernel touches only its own memory, so no change to the product
/// can move it.
pub struct Reference {
    buf: Vec<u8>,
    page: Vec<u8>,
    state: u64,
}

/// Reference slices spread through one round.  Two slices at a round's ends
/// say little about the half second a `crash_recover` round takes.
const REFERENCE_SLICES: usize = 16;

impl Reference {
    const BYTES: usize = 128 * MIB;
    const COPIES: usize = 128;
    const STEPS: usize = 30_000;
    /// What one slice takes on the host the benchmark was calibrated on.
    const NOMINAL_NS: f64 = 150e3;

    pub fn new(plan: &Plan) -> Self {
        let mut reference = Reference {
            buf: vec![1; Self::BYTES],
            page: plan.page(0).to_vec(),
            state: 0x9e37_79b9_7f4a_7c15,
        };
        reference.slice_ns();
        reference
    }

    /// One slice of the kernel, in ns.
    pub fn slice_ns(&mut self) -> f64 {
        let start = Instant::now();
        for i in 0..Self::COPIES {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let at = (self.state as usize % (Self::BYTES / PAGE)) * PAGE;
            if i % 2 == 0 {
                self.buf[at..at + PAGE].copy_from_slice(&self.page);
            } else {
                self.page.copy_from_slice(&self.buf[at..at + PAGE]);
            }
        }
        let mut chain = self.state | 1;
        for _ in 0..Self::STEPS {
            chain = chain.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ 0x55;
        }
        std::hint::black_box((&mut self.page, chain));
        start.elapsed().as_nanos() as f64
    }
}

/// Runs the first `rounds` timed rounds of `plan` against `target`.
pub fn measure<T: Target>(target: &mut T, plan: &Plan, rounds: usize) -> Measured {
    let mut m = Measured::default();
    let mut reference = Reference::new(plan);
    let user = TimeCategory::UserData.index_in_all();
    let mut samples: Vec<u32> = Vec::with_capacity(plan.round_ops / plan.sample_stride + 1);
    let mut until_sample = 0;
    for (round, ops) in plan.timed().chunks(plan.round_ops).take(rounds).enumerate() {
        target.before_round(round);
        let slice_every = (ops.len() / REFERENCE_SLICES).max(1);
        let (mut ref_ns, mut slices) = (reference.slice_ns(), 1.0);
        let stats0 = target.device().stats().snapshot();
        let cpu0 = host::process_cpu_ns();
        let main0 = host::thread_cpu_ns();
        let sim0 = SimClock::thread_time_ns();
        let user0 = Stats::thread_category_time_ns()[user];
        if let Some(trace) = target.trace() {
            trace.set_recording(true);
        }
        samples.clear();
        let mut wall_ns = 0.0;
        // CPU the foreground thread spent on reference slices inside the round.
        let mut ref_cpu_ns = 0;
        let mut until_slice = slice_every;
        let mut start = Instant::now();
        for &op in ops {
            if until_sample == 0 {
                until_sample = plan.sample_stride;
                let t0 = Instant::now();
                target.exec(op);
                samples.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            } else {
                target.exec(op);
            }
            until_sample -= 1;
            until_slice -= 1;
            if until_slice == 0 {
                until_slice = slice_every;
                wall_ns += start.elapsed().as_nanos() as f64;
                let ref_cpu0 = host::thread_cpu_ns();
                ref_ns += reference.slice_ns();
                slices += 1.0;
                ref_cpu_ns += host::thread_cpu_ns() - ref_cpu0;
                start = Instant::now();
            }
        }
        wall_ns += start.elapsed().as_nanos() as f64;
        if let Some(trace) = target.trace() {
            trace.set_recording(false);
        }
        let cpu_ns = (host::process_cpu_ns() - cpu0).saturating_sub(ref_cpu_ns);
        m.cpu_ns += cpu_ns;
        m.main_cpu_ns += (host::thread_cpu_ns() - main0).saturating_sub(ref_cpu_ns);
        m.sim_ns += SimClock::thread_time_ns() - sim0;
        m.sim_user_ns += Stats::thread_category_time_ns()[user] - user0;
        m.dev
            .add(&target.device().stats().snapshot().delta(&stats0));
        m.ops += ops.len() as u64;
        m.user_bytes += ops.iter().map(|op| op.user_bytes(plan.chunk)).sum::<u64>();

        let host_speed = Reference::NOMINAL_NS * slices / ref_ns;
        let (p50, p95) = est::p50_p95(&mut samples);
        let per_op = host_speed / ops.len() as f64;
        m.rounds.push(RoundHost {
            wall_ns: wall_ns * per_op,
            cpu_ns: cpu_ns as f64 * per_op,
            p50_ns: p50 * host_speed,
            p95_ns: p95 * host_speed,
            raw_wall_ns: wall_ns / ops.len() as f64,
            host_speed,
        });
    }
    m
}

/// Which file system an [`FsTarget`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// U-Split over K-Split, in the workload's mode.
    Split,
    /// K-Split (ext4-DAX) alone: the `kernelfs.direct_*` twin.
    Ext4,
}

pub fn device_bytes(workload: Workload) -> usize {
    match workload {
        Workload::WalAppend | Workload::InplaceRw | Workload::KvYcsbA => 512 * MIB,
        Workload::MetaChurn | Workload::CrashRecover => 256 * MIB,
    }
}

fn mode_of(workload: Workload) -> Mode {
    match workload {
        Workload::InplaceRw => Mode::Posix,
        Workload::MetaChurn => Mode::Sync,
        _ => Mode::Strict,
    }
}

/// Builds a device.  Untracked devices are written once, end to
/// end and uncharged, so no timed op pays a first-touch page fault.  The
/// tracked `crash_recover` device is *not*: bulk writes would leave the
/// persistence tracker's line sets with a capacity every later fence has to
/// drain, so that workload warms with its untimed first cycle instead.
pub fn build_device(bytes: usize, tracked: bool) -> Arc<PmemDevice> {
    if tracked {
        return PmemBuilder::new(bytes)
            .track_persistence(true)
            .crash_policy(CrashPolicy::LoseUnflushed)
            .build();
    }
    let device = PmemBuilder::new(bytes).track_persistence(false).build();
    let zeros = vec![0u8; MIB];
    for mib in 0..bytes / MIB {
        device.write_uncharged((mib * MIB) as u64, &zeros);
    }
    device
}

/// Host milliseconds the phases of every `crash_recover` cycle took.
#[derive(Default)]
pub struct CrashLog {
    pub crash_ms: Vec<f64>,
    pub mount_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub replayed: u64,
}

const SLOTS: usize = 8;

/// A file-system-level target: the four workloads whose ops are
/// `vfs::FileSystem` calls.
pub struct FsTarget<'p> {
    plan: &'p Plan,
    device: Arc<PmemDevice>,
    stack: Stack,
    kernel: Option<Arc<Ext4Dax>>,
    split: Option<Arc<SplitFs>>,
    /// What the ops are issued to: U-Split, K-Split, or either behind a
    /// [`SpanFs`].  `None` only while `crash_recover` has the stack down.
    fs: Option<Arc<dyn FileSystem>>,
    wrap: Wrap,
    fds: [Fd; SLOTS],
    slot_path: [u32; SLOTS],
    /// The model: per path row, the pool page of every chunk the file holds.
    files: Vec<Option<Vec<u16>>>,
    /// The model: per `meta_churn` directory, the rows that exist in it.
    dirs: Vec<BTreeSet<u32>>,
    /// The model: version tag of every `inplace_rw` block.
    tags: Vec<u16>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Set by `set_up` and cleared by the first crash or re-format, so round
    /// 0 does not format a file system nothing has happened to.
    fresh: bool,
    /// Never re-format between episodes.
    keep: bool,
    failed: u64,
    pub crash: CrashLog,
}

impl<'p> FsTarget<'p> {
    /// Builds the device and mounts and preloads `stack` on it: everything
    /// `setup_s` times.
    pub fn set_up(plan: &'p Plan, stack: Stack, wrap: Wrap) -> Self {
        let tracked = plan.workload == Workload::CrashRecover;
        let mut target = FsTarget {
            plan,
            device: build_device(device_bytes(plan.workload), tracked),
            stack,
            kernel: None,
            split: None,
            fs: None,
            wrap,
            fds: [0; SLOTS],
            slot_path: [0; SLOTS],
            files: Vec::new(),
            dirs: Vec::new(),
            tags: Vec::new(),
            rbuf: vec![0; 4 * PAGE],
            wbuf: plan.page(0).to_vec(),
            fresh: true,
            keep: false,
            failed: 0,
            crash: CrashLog::default(),
        };
        target.format();
        target
    }

    /// Formats the device (again), mounts the stack and prepares the
    /// workload's files on it; the model starts over with the file system.
    fn format(&mut self) {
        self.fs = None;
        self.split = None;
        self.kernel = None;
        let kernel = Ext4Dax::mkfs(Arc::clone(&self.device)).expect("mkfs");
        let dirty = kernel.check_namespace();
        assert!(dirty.is_empty(), "mkfs left a dirty namespace: {dirty:?}");
        self.kernel = Some(kernel);
        self.files = vec![None; self.plan.paths.len()];
        self.dirs = vec![BTreeSet::new(); META_DIRS];
        if self.plan.workload == Workload::InplaceRw {
            self.preload_inplace();
        }
        let failed = self.failed;
        self.mount();
        self.prepare();
        assert_eq!(
            self.failed,
            failed,
            "set-up of {} failed",
            self.plan.workload.name()
        );
    }

    fn kernel(&self) -> &Arc<Ext4Dax> {
        self.kernel.as_ref().expect("kernel file system is mounted")
    }

    fn mount(&mut self) {
        let kernel = Arc::clone(self.kernel());
        let fs: Arc<dyn FileSystem> = match self.stack {
            Stack::Ext4 => kernel,
            Stack::Split => {
                let config = SplitConfig::new(mode_of(self.plan.workload));
                let split = SplitFs::new(kernel, config).expect("mount U-Split");
                self.split = Some(Arc::clone(&split));
                split
            }
        };
        self.fs = Some(self.wrap.around(fs));
    }

    /// Writes the 256 MiB `inplace_rw` file through K-Split, every block
    /// tagged version 0, before U-Split mounts.
    fn preload_inplace(&mut self) {
        let kernel = Arc::clone(self.kernel());
        let path = &self.plan.paths[0].path;
        let fd = kernel.open(path, OpenFlags::create()).expect("create");
        let mut buf = vec![0u8; MIB];
        for mib in 0..INPLACE_BLOCKS * PAGE / MIB {
            for (i, block) in buf.chunks_exact_mut(PAGE).enumerate() {
                block.copy_from_slice(&self.wbuf);
                let id = (mib * MIB / PAGE + i) as u32;
                block[..4].copy_from_slice(&id.to_le_bytes());
                block[4..8].copy_from_slice(&0u32.to_le_bytes());
            }
            let n = kernel
                .write_at(fd, (mib * MIB) as u64, &buf)
                .expect("preload");
            assert_eq!(n, MIB, "short preload write");
        }
        kernel.fsync(fd).expect("fsync preload");
        kernel.close(fd).expect("close preload");
        self.tags = vec![0; INPLACE_BLOCKS];
    }

    /// Per-workload preparation through the mounted file system.
    fn prepare(&mut self) {
        let plan = self.plan;
        let fs = Arc::clone(self.fs.as_ref().expect("mounted"));
        match plan.workload {
            Workload::WalAppend => {
                // Row 0 at first; after a re-format, the segment the previous
                // life ended by opening.
                fs.mkdir("/wal").expect("mkdir");
                self.exec(Op::Open {
                    slot: 0,
                    create: true,
                    path: self.slot_path[0],
                });
            }
            Workload::InplaceRw => {
                self.files[0] = Some(Vec::new());
                self.exec(Op::Open {
                    slot: 0,
                    create: false,
                    path: 0,
                });
                // Touch every 2 MiB mmap unit so the timed phase maps nothing.
                for unit in 0..INPLACE_BLOCKS * PAGE / (2 * MIB) {
                    self.exec(Op::TagRead {
                        block: (unit * 2 * MIB / PAGE) as u16,
                    });
                }
            }
            Workload::MetaChurn => {
                for dir in 0..META_DIRS as u16 {
                    fs.mkdir(&plan.paths[plan.dir_path(dir) as usize].path)
                        .expect("mkdir");
                }
                let first = plan.paths.len() - META_DIRS - META_DIRS * META_RESIDENTS;
                for row in first..plan.paths.len() - META_DIRS {
                    self.exec(Op::Open {
                        slot: 0,
                        create: true,
                        path: row as u32,
                    });
                    self.exec(Op::Close { slot: 0 });
                }
            }
            Workload::CrashRecover => {
                fs.mkdir("/crash").expect("mkdir");
                for slot in 0..CRASH_FILES {
                    self.exec(Op::Open {
                        slot: slot as u8,
                        create: true,
                        path: slot as u32,
                    });
                }
            }
            Workload::KvYcsbA => unreachable!("kv_ycsb_a runs on a KvTarget"),
        }
    }

    /// Keeps the file system of this target alive for the whole list (the
    /// long-life twins).
    pub fn never_reformat(&mut self) {
        self.keep = true;
    }

    /// Reads the whole file open in slot 0 through the mounted file system
    /// and counts the chunks that differ from the model.
    pub fn misread_chunks(&mut self) -> u64 {
        let chunk = self.plan.chunk;
        let fs = self.fs.as_deref().expect("file system is mounted");
        let pages = self.files[self.slot_path[0] as usize]
            .as_deref()
            .unwrap_or(&[]);
        let mut wrong = 0;
        for (i, &page) in pages.iter().enumerate() {
            let got = fs.read_at(self.fds[0], (i * chunk) as u64, &mut self.rbuf[..chunk]);
            wrong +=
                (got != Ok(chunk) || self.rbuf[..chunk] != self.plan.page(page)[..chunk]) as u64;
        }
        wrong
    }

    /// The mounted U-Split instance.
    pub fn split(&self) -> &Arc<SplitFs> {
        self.split.as_ref().expect("target runs on U-Split")
    }

    /// The descriptor open in `slot`.
    pub fn fd(&self, slot: usize) -> Fd {
        self.fds[slot]
    }

    /// U-Split's DRAM bookkeeping in KiB (0 on the ext4 twin).
    pub fn dram_kib(&self) -> f64 {
        self.split
            .as_ref()
            .map_or(0.0, |s| s.memory_usage().approx_bytes as f64 / 1024.0)
    }

    fn chunks_match(&self, pages: &[u16], data: &[u8]) -> bool {
        let chunk = self.plan.chunk;
        data.len() == pages.len() * chunk
            && pages
                .iter()
                .zip(data.chunks_exact(chunk))
                .all(|(&page, got)| got == &self.plan.page(page)[..chunk])
    }

    /// The `crash_recover` op: quiesce, crash, mount, recover, verify every
    /// acknowledged byte through K-Split, restart U-Split.
    fn crash_recover(&mut self) -> bool {
        let config = SplitConfig::new(mode_of(self.plan.workload));
        let split = self.split.take().expect("crash_recover runs on U-Split");
        // This life of the file system is spent: a second crash on it would
        // fall outside what recovery gets right (README, "Known failures").
        self.fresh = false;
        split.maintenance_quiesce();
        // Dropping the last handle joins the maintenance worker, so nothing
        // writes the device between the crash and the mount.
        self.fs = None;
        drop(split);
        self.kernel = None;

        let t = Instant::now();
        self.device.crash();
        self.crash.crash_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let kernel = match Ext4Dax::mount(Arc::clone(&self.device)) {
            Ok(kernel) => kernel,
            Err(e) => panic!("mount after crash: {e}"),
        };
        self.crash.mount_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let report = splitfs::recover(&kernel, &config).expect("oplog replay");
        self.crash.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.crash.replayed += report.replayed as u64;

        // In strict mode every append that returned is durable, fsynced or
        // not: the recovered files must hold exactly the model's bytes.
        let mut ok = true;
        for row in 0..CRASH_FILES {
            let pages = self.files[row].as_deref().unwrap_or(&[]);
            ok &= match kernel.read_file(&self.plan.paths[row].path) {
                Ok(data) => self.chunks_match(pages, &data),
                Err(_) => false,
            };
        }

        self.kernel = Some(kernel);
        self.mount();
        let inner = self.split.as_ref().expect("remounted");
        for slot in 0..CRASH_FILES {
            let path = &self.plan.paths[slot].path;
            self.fds[slot] = inner.open(path, OpenFlags::read_write()).expect("reopen");
        }
        ok
    }

    fn exec_checked(&mut self, op: Op) -> bool {
        let plan = self.plan;
        if op == Op::CrashRecover {
            return self.crash_recover();
        }
        let fs = self.fs.as_deref().expect("file system is mounted");
        match op {
            Op::Open { slot, create, path } => {
                let flags = if create {
                    OpenFlags::create()
                } else {
                    OpenFlags::read_write()
                };
                let ent = &plan.paths[path as usize];
                let Ok(fd) = fs.open(&ent.path, flags) else {
                    return false;
                };
                self.fds[slot as usize] = fd;
                self.slot_path[slot as usize] = path;
                if create && self.files[path as usize].is_none() {
                    self.files[path as usize] = Some(Vec::new());
                    if let Some(dir) = ent.dir {
                        self.dirs[dir as usize].insert(path);
                    }
                }
                self.files[path as usize].is_some()
            }
            Op::Close { slot } => fs.close(self.fds[slot as usize]).is_ok(),
            Op::Append { slot, page } => {
                let data = &plan.page(page)[..plan.chunk];
                let ok = fs.append(self.fds[slot as usize], data) == Ok(plan.chunk);
                match self.files[self.slot_path[slot as usize] as usize].as_mut() {
                    Some(pages) if ok => {
                        pages.push(page);
                        true
                    }
                    _ => false,
                }
            }
            Op::Fsync { slot } => fs.fsync(self.fds[slot as usize]).is_ok(),
            Op::ReadChunks { slot, n, chunk } => {
                let len = n as usize * plan.chunk;
                let offset = chunk as u64 * plan.chunk as u64;
                let got = fs.read_at(self.fds[slot as usize], offset, &mut self.rbuf[..len]);
                let pages = self.files[self.slot_path[slot as usize] as usize].as_deref();
                let Some(pages) =
                    pages.and_then(|p| p.get(chunk as usize..chunk as usize + n as usize))
                else {
                    return false;
                };
                got == Ok(len) && self.chunks_match(pages, &self.rbuf[..len])
            }
            Op::TagRead { block } => {
                let offset = block as u64 * PAGE as u64;
                let got = fs.read_at(self.fds[0], offset, &mut self.rbuf[..PAGE]);
                let mut want = [0u8; 8];
                want[..4].copy_from_slice(&(block as u32).to_le_bytes());
                want[4..].copy_from_slice(&(self.tags[block as usize] as u32).to_le_bytes());
                got == Ok(PAGE)
                    && self.rbuf[..8] == want
                    && self.rbuf[PAGE - 8..PAGE] == self.wbuf[PAGE - 8..]
            }
            Op::TagWrite { block, ver } => {
                self.wbuf[..4].copy_from_slice(&(block as u32).to_le_bytes());
                self.wbuf[4..8].copy_from_slice(&(ver as u32).to_le_bytes());
                let offset = block as u64 * PAGE as u64;
                self.tags[block as usize] = ver;
                fs.write_at(self.fds[0], offset, &self.wbuf) == Ok(PAGE)
            }
            Op::Stat { path } => match (
                fs.stat(&plan.paths[path as usize].path),
                &self.files[path as usize],
            ) {
                (Ok(st), Some(pages)) => !st.is_dir && st.size == (pages.len() * plan.chunk) as u64,
                _ => false,
            },
            Op::Rename { path } => {
                let (old, new) = (&plan.paths[path as usize], &plan.paths[path as usize + 1]);
                let ok = fs.rename(&old.path, &new.path).is_ok();
                self.files[path as usize + 1] = self.files[path as usize].take();
                if let Some(dir) = old.dir {
                    self.dirs[dir as usize].remove(&path);
                }
                if let Some(dir) = new.dir {
                    self.dirs[dir as usize].insert(path + 1);
                }
                ok && self.files[path as usize + 1].is_some()
            }
            Op::Unlink { path } => {
                let ent = &plan.paths[path as usize];
                let ok = fs.unlink(&ent.path).is_ok();
                if let Some(dir) = ent.dir {
                    self.dirs[dir as usize].remove(&path);
                }
                ok && self.files[path as usize].take().is_some()
            }
            Op::Readdir { path } => {
                let dir = (path - plan.dir_path(0)) as usize;
                let want: HashSet<&str> = self.dirs[dir]
                    .iter()
                    .map(|&row| plan.paths[row as usize].base())
                    .collect();
                match fs.readdir(&plan.paths[path as usize].path) {
                    Ok(names) => {
                        names.len() == want.len() && names.iter().all(|n| want.contains(n.as_str()))
                    }
                    Err(_) => false,
                }
            }
            Op::Put { .. } | Op::Get { .. } | Op::CrashRecover => false,
        }
    }
}

impl Target for FsTarget<'_> {
    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn trace(&self) -> Option<&TraceStore> {
        self.wrap.store()
    }

    fn before_round(&mut self, round: usize) {
        let episode = self.plan.episode_rounds;
        if episode > 0
            && round.is_multiple_of(episode)
            && !std::mem::take(&mut self.fresh)
            && !self.keep
        {
            self.format();
        }
    }

    fn exec(&mut self, op: Op) {
        if !self.exec_checked(op) {
            // The long-life twins expect failures; a timed run does not.
            if self.failed == 0 && !self.keep {
                eprintln!("first failed op: {op:?}");
            }
            self.failed += 1;
        }
    }

    fn failed(&self) -> u64 {
        self.failed
    }
}

/// The application-level target: `apps::LsmStore` over U-Split (strict).
pub struct KvTarget<'p> {
    plan: &'p Plan,
    device: Arc<PmemDevice>,
    wrap: Wrap,
    store: Option<LsmStore>,
    /// The model: latest version put for every key in this episode.
    vers: Vec<u32>,
    value: [u8; VALUE_LEN],
    /// Set by `set_up`, so round 0 does not format a second time.
    fresh: bool,
    failed: u64,
    /// Memtable flushes and compactions of the episodes already ended.
    pub flushes: u64,
    pub compactions: u64,
}

impl<'p> KvTarget<'p> {
    /// Builds the device and the first episode's stack: everything
    /// `setup_s` times.
    pub fn set_up(plan: &'p Plan, wrap: Wrap) -> Self {
        let mut target = KvTarget {
            plan,
            device: build_device(device_bytes(plan.workload), false),
            wrap,
            store: None,
            vers: Vec::new(),
            value: [0; VALUE_LEN],
            fresh: true,
            failed: 0,
            flushes: 0,
            compactions: 0,
        };
        target.new_episode();
        target
    }

    /// Ends the running episode and starts the next on the same device:
    /// `mkfs`, a new strict U-Split, a new store, the 20 k-key load.
    pub fn new_episode(&mut self) {
        self.end_episode();
        let kernel = Ext4Dax::mkfs(Arc::clone(&self.device)).expect("mkfs");
        let dirty = kernel.check_namespace();
        assert!(dirty.is_empty(), "mkfs over a used device: {dirty:?}");
        let split: Arc<dyn FileSystem> =
            SplitFs::new(kernel, SplitConfig::new(Mode::Strict)).expect("mount U-Split");
        let store = LsmStore::open(self.wrap.around(split), LsmConfig::default());
        self.store = Some(store.expect("open store"));
        self.vers = vec![0; KV_KEYS];
        for key in 0..KV_KEYS as u16 {
            self.put(key, 0);
        }
        assert_eq!(self.failed, 0, "kv_ycsb_a load failed");
    }

    /// Drops the store and with it U-Split (joining its maintenance worker).
    pub fn end_episode(&mut self) {
        if let Some(store) = self.store.take() {
            self.flushes += store.flush_count();
            self.compactions += store.compaction_count();
        }
    }

    /// Fills `self.value` with version `ver` of key `key`.
    fn fill_value(&mut self, key: u16, ver: u32) {
        let body = VALUE_LEN - 8;
        let at = (key as usize * 131 + ver as usize * 31) % (self.plan.pool.len() - body);
        self.value[..4].copy_from_slice(&(key as u32).to_le_bytes());
        self.value[4..8].copy_from_slice(&ver.to_le_bytes());
        self.value[8..].copy_from_slice(&self.plan.pool[at..at + body]);
    }

    fn put(&mut self, key: u16, ver: u32) {
        self.fill_value(key, ver);
        let key_bytes: &[u8; KEY_LEN] = &self.plan.keys[key as usize];
        let store = self.store.as_mut().expect("episode is running");
        if store.put(key_bytes, &self.value).is_err() {
            self.failed += 1;
        }
        self.vers[key as usize] = ver;
    }

    fn get(&mut self, key: u16) {
        let ver = self.vers[key as usize];
        self.fill_value(key, ver);
        let store = self.store.as_ref().expect("episode is running");
        match store.get(&self.plan.keys[key as usize]) {
            Ok(Some(value)) if value == self.value => {}
            _ => self.failed += 1,
        }
    }
}

impl Target for KvTarget<'_> {
    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn trace(&self) -> Option<&TraceStore> {
        self.wrap.store()
    }

    fn before_round(&mut self, round: usize) {
        if round.is_multiple_of(self.plan.episode_rounds) && !std::mem::take(&mut self.fresh) {
            self.new_episode();
        }
    }

    fn exec(&mut self, op: Op) {
        if let Some(trace) = self.wrap.store() {
            trace.begin_app();
        }
        let name = match op {
            Op::Put { key, ver } => {
                self.put(key, ver);
                APP_PUT
            }
            Op::Get { key } => {
                self.get(key);
                APP_GET
            }
            _ => unreachable!("kv_ycsb_a lists hold only puts and gets"),
        };
        if let Some(trace) = self.wrap.store() {
            trace.end_app(name);
        }
    }

    fn failed(&self) -> u64 {
        self.failed
    }
}
