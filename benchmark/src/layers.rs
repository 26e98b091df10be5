//! The per-layer metrics of a traced run.
//!
//! Three sources feed them.  Spans: [`crate::trace::SpanFs`] around every
//! call into U-Split, application spans around every `put`/`get`.  Counters:
//! the device-wide `pmem::Stats` the product already keeps, read at the round
//! boundaries.  Twins: the layers under U-Split cannot be spanned from
//! outside (U-Split holds a concrete `Arc<Ext4Dax>`), so their cost is
//! estimated by running a leading slice of the *same op list* on a reduced
//! stack — bare K-Split, the device calls alone, the async ring, the
//! product's own `TracedFs`.

use std::sync::Arc;

use aio::{Cqe, Ring, RingFs, Sqe};
use pmem::{AccessPattern, PersistMode, PmemDevice, SimClock, TimeCategory};
use splitfs::SplitFs;
use vfs::{Fd, FileSystem, OpenFlags};

use crate::est;
use crate::gen::{self, Op, Plan, Workload, PAGE};
use crate::host;
use crate::metrics::Values;
use crate::run::{
    build_device, device_bytes, measure, FsTarget, KvTarget, Measured, Stack, Target, Wrap,
};
use crate::trace::{TraceStore, APP_GET, APP_PUT, FDATASYNC, FSYNC, FS_METRIC_OPS, SPAN_NAMES};

/// Ops in the traced run's one long `kv_ycsb_a` episode.
const LONG_EPISODE_OPS: usize = 600_000;
/// Ring submissions kept in flight by the `aio` twin.
const RING_DEPTH: usize = 16;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median round wall time per op, ns, at the nominal host speed.
fn host_ns_per_op(m: &Measured) -> f64 {
    m.median(|r| r.wall_ns)
}

/// Span and counter metrics of the traced run `m`; `base` is the untraced
/// run of the leading `base.rounds.len()` rounds it is compared with.
pub fn from_run(v: &mut Values, m: &Measured, base: &Measured, trace: &TraceStore) {
    let ops = m.ops as f64;
    let d = &m.dev;
    let per_op = |x: f64| x / ops;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    for (id, name) in SPAN_NAMES[..FS_METRIC_OPS].iter().enumerate() {
        let s = trace.summary(id);
        v.set(&format!("{name}.calls"), s.calls as f64);
        v.set(&format!("{name}.host_p50_ns"), s.host_p50_ns);
        v.set(&format!("{name}.host_p95_ns"), s.host_p95_ns);
        v.set(&format!("{name}.sim_ns"), s.sim_ns);
    }
    let fsyncs = (trace.summary(FSYNC).calls + trace.summary(FDATASYNC).calls) as f64;

    v.set("splitfs.staging_inline_creates", d.staging_inline_creates);
    v.set("splitfs.staging_bg_creates", d.staging_bg_creates);
    v.set("splitfs.oplog_epoch_swaps", d.oplog_epoch_swaps);
    v.set(
        "splitfs.oplog_group_commits_per_op",
        per_op(d.oplog_group_commits),
    );
    v.set(
        "splitfs.relink_ops_per_fsync",
        ratio(d.relink_batch_ops, fsyncs),
    );
    v.set("splitfs.daemon_checkpoints", d.daemon_checkpoints);
    v.set("splitfs.checkpoint_stalls", d.checkpoint_stalls);
    v.set("splitfs.staging_lock_waits", d.staging_lock_waits);
    v.set("splitfs.shard_lock_waits", d.shard_lock_waits);
    v.set(
        "splitfs.sim_oplog_ns_per_op",
        per_op(d.time(TimeCategory::OpLog)),
    );
    v.set(
        "splitfs.daemon_cpu_share",
        ratio(
            m.cpu_ns.saturating_sub(m.main_cpu_ns) as f64,
            m.cpu_ns as f64,
        ),
    );

    v.set("kernelfs.traps_per_op", per_op(d.kernel_traps));
    v.set("kernelfs.journal_txns_per_op", per_op(d.journal_txns));
    v.set(
        "kernelfs.relink_ops_per_batch",
        ratio(d.relink_batch_ops, d.batched_relinks),
    );
    v.set("kernelfs.page_faults_per_op", per_op(d.page_faults));
    v.set(
        "kernelfs.path_cache_hit_rate",
        ratio(d.path_cache_hits, d.path_cache_hits + d.path_cache_misses),
    );
    v.set("kernelfs.ns_shard_lock_waits", d.ns_shard_lock_waits);
    v.set(
        "kernelfs.sim_meta_journal_ns_per_op",
        per_op(d.time(TimeCategory::Metadata) + d.time(TimeCategory::Journal)),
    );

    v.set("pmem.fences_per_op", per_op(d.fences));
    v.set("pmem.flushes_per_op", per_op(d.flushes));
    v.set("pmem.bytes_written_per_op", per_op(d.bytes_written));
    v.set("pmem.bytes_read_per_op", per_op(d.bytes_read));
    v.set(
        "pmem.sim_userdata_ns_per_op",
        per_op(d.time(TimeCategory::UserData)),
    );
    v.set(
        "pmem.sim_software_ns_per_op",
        per_op(d.time(TimeCategory::Software)),
    );

    let traced = host_ns_per_op(m);
    let plain = host_ns_per_op(base);
    v.set("bench.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    let walls: Vec<f64> = m.rounds.iter().map(|r| r.wall_ns).collect();
    let spread = if walls.len() < 2 {
        0.0
    } else {
        est::quartile_spread(&walls)
    };
    v.set("bench.round_spread_pct", spread * 100.0);
    v.set("bench.host_speed", m.median(|r| r.host_speed));
    v.set("bench.timer_pair_ns", host::timer_pair_ns());
}

/// `crash_recover`: the phases of the crash cycles and the tracked floor.
pub fn crash_metrics(v: &mut Values, target: &FsTarget<'_>) {
    v.set("splitfs.recover_ms", mean(&target.crash.recover_ms));
    v.set("splitfs.replayed_entries", target.crash.replayed as f64);
    v.set("kernelfs.mount_ms", mean(&target.crash.mount_ms));
    v.set("pmem.crash_ms", mean(&target.crash.crash_ms));
}

/// `kv_ycsb_a`: application spans and the store's own counters.
pub fn app_metrics(v: &mut Values, target: &KvTarget<'_>, trace: &TraceStore) {
    for (id, op) in [(APP_PUT, "put"), (APP_GET, "get")] {
        let s = trace.summary(id);
        v.set(&format!("apps.{op}.host_p50_ns"), s.host_p50_ns);
        v.set(&format!("apps.{op}.host_p95_ns"), s.host_p95_ns);
    }
    v.set("apps.self_share", trace.app_self_share());
    v.set("apps.fs_calls_per_op", trace.fs_calls_per_app_call());
    v.set("apps.flushes", target.flushes as f64);
    v.set("apps.compactions", target.compactions as f64);
}

/// `kernelfs.direct_*`: the leading `rounds` rounds on bare K-Split.
/// `split_sw` is U-Split's simulated software ns per op on the same ops.
fn direct_ext4(v: &mut Values, plan: &Plan, rounds: usize, split_sw: f64) -> u64 {
    let mut target = FsTarget::set_up(plan, Stack::Ext4, Wrap::Plain);
    let m = measure(&mut target, plan, rounds);
    let ops = m.ops as f64;
    v.set("kernelfs.direct_host_ns_per_op", host_ns_per_op(&m));
    v.set("kernelfs.direct_sim_ns_per_op", m.sim_ns / ops);
    v.set(
        "kernelfs.direct_sim_sw_x",
        (m.sim_ns - m.sim_user_ns) / ops / split_sw,
    );
    target.failed()
}

/// The op list's device calls alone: every data op becomes the same-size
/// `write`, `read` or `fence` on a bare device, metadata ops become nothing.
struct FloorTarget<'p> {
    plan: &'p Plan,
    device: Arc<PmemDevice>,
    buf: Vec<u8>,
    /// Where the next append lands; appends walk the device and wrap.
    at: u64,
}

impl FloorTarget<'_> {
    fn next(&mut self, len: usize) -> u64 {
        let offset = self.at;
        self.at = (self.at + len as u64) % (self.device.size() - self.buf.len()) as u64;
        offset
    }
}

impl Target for FloorTarget<'_> {
    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn trace(&self) -> Option<&TraceStore> {
        None
    }

    fn exec(&mut self, op: Op) {
        let plan = self.plan;
        let user = TimeCategory::UserData;
        match op {
            Op::Append { page, .. } => {
                let offset = self.next(plan.chunk);
                let data = &plan.page(page)[..plan.chunk];
                self.device
                    .write(offset, data, PersistMode::NonTemporal, user);
            }
            Op::TagWrite { block, .. } => {
                let offset = block as u64 * PAGE as u64;
                self.device
                    .write(offset, plan.page(0), PersistMode::NonTemporal, user);
            }
            Op::TagRead { block } => {
                let offset = block as u64 * PAGE as u64;
                self.device
                    .read(offset, &mut self.buf[..PAGE], AccessPattern::Random, user);
            }
            Op::ReadChunks { n, .. } => {
                let len = n as usize * plan.chunk;
                let offset = self.next(len);
                self.device
                    .read(offset, &mut self.buf[..len], AccessPattern::Random, user);
            }
            Op::Fsync { .. } => self.device.fence(user),
            _ => {}
        }
    }

    fn failed(&self) -> u64 {
        0
    }
}

/// `pmem.floor_*`: the median round's host ns per op of the device calls
/// alone, on an untracked or a tracked device.
fn device_floor(plan: &Plan, rounds: usize, tracked: bool) -> f64 {
    let mut target = FloorTarget {
        plan,
        device: build_device(device_bytes(plan.workload), tracked),
        buf: vec![0; 4 * PAGE],
        at: 0,
    };
    host_ns_per_op(&measure(&mut target, plan, rounds))
}

/// The `wal_append` writes through `aio::RingFs` on U-Split's ring backend,
/// [`RING_DEPTH`] in flight; an fsync becomes "drain, then await the highest
/// epoch a completion named".  Rotation goes through the synchronous calls;
/// read-backs are skipped.
struct RingTarget<'p> {
    plan: &'p Plan,
    /// Keeps the stack mounted; the ops bypass its model.
    stack: FsTarget<'p>,
    split: Arc<SplitFs>,
    hub: Arc<RingFs>,
    ring: Ring,
    fd: Fd,
    cqes: Vec<Cqe>,
    epoch: u64,
    submitted: u64,
    failed: u64,
}

impl RingTarget<'_> {
    /// Drains one batch and folds its completions into `epoch` and `failed`.
    fn drain(&mut self) {
        self.hub.drain(RING_DEPTH);
        self.ring.harvest(&mut self.cqes);
        for cqe in self.cqes.drain(..) {
            self.failed += (cqe.result != Ok(self.plan.chunk as u64)) as u64;
            self.epoch = self.epoch.max(cqe.epoch);
        }
    }

    fn sync_call(&mut self, result: vfs::FsResult<()>) {
        self.failed += result.is_err() as u64;
    }
}

impl Target for RingTarget<'_> {
    fn device(&self) -> &Arc<PmemDevice> {
        self.stack.device()
    }

    fn trace(&self) -> Option<&TraceStore> {
        None
    }

    fn exec(&mut self, op: Op) {
        let plan = self.plan;
        match op {
            Op::Append { page, .. } => {
                let data = plan.page(page)[..plan.chunk].to_vec();
                let mut sqe = Sqe::appendv(self.submitted, self.fd, vec![data]);
                self.submitted += 1;
                while let Err(back) = self.ring.try_submit(sqe) {
                    self.drain();
                    sqe = back;
                }
                if self.ring.in_flight() >= RING_DEPTH {
                    self.drain();
                }
            }
            Op::Fsync { .. } => {
                while self.ring.in_flight() > 0 {
                    self.drain();
                }
                let awaited = self.hub.await_epoch(self.epoch);
                self.sync_call(awaited);
            }
            Op::Close { .. } => {
                let closed = self.split.close(self.fd);
                self.sync_call(closed);
            }
            Op::Unlink { path } => {
                let unlinked = self.split.unlink(&plan.paths[path as usize].path);
                self.sync_call(unlinked);
            }
            Op::Open { path, .. } => {
                match self
                    .split
                    .open(&plan.paths[path as usize].path, OpenFlags::create())
                {
                    Ok(fd) => self.fd = fd,
                    Err(_) => self.failed += 1,
                }
            }
            _ => {}
        }
    }

    fn failed(&self) -> u64 {
        self.failed
    }
}

/// `aio.ring_*`: the first round through a [`RingTarget`].
fn ring_twin(v: &mut Values, plan: &Plan) -> u64 {
    let stack = FsTarget::set_up(plan, Stack::Split, Wrap::Plain);
    let split = Arc::clone(stack.split());
    let hub = splitfs::ring_hub(&split);
    let mut target = RingTarget {
        plan,
        fd: stack.fd(0),
        ring: hub.ring(RING_DEPTH),
        stack,
        split,
        hub,
        cqes: Vec::new(),
        epoch: 0,
        submitted: 0,
        failed: 0,
    };
    let m = measure(&mut target, plan, 1);
    v.set("aio.ring_host_ns_per_op", host_ns_per_op(&m));
    v.set("aio.ring_fences_per_op", m.dev.fences / m.ops as f64);
    target.failed()
}

/// `vfs.traced_overhead_ns`: the leading `rounds` rounds through the
/// product's `vfs::TracedFs` + `obs::Recorder`, against the untraced `base`.
fn traced_fs_twin(v: &mut Values, plan: &Plan, rounds: usize, base: &Measured) -> u64 {
    let recorder = Arc::new(obs::Recorder::new());
    let mut target = FsTarget::set_up(plan, Stack::Split, Wrap::Obs(recorder));
    let m = measure(&mut target, plan, rounds);
    v.set(
        "vfs.traced_overhead_ns",
        host_ns_per_op(&m) - host_ns_per_op(base),
    );
    target.failed()
}

/// `apps.long_run_wrong_gets`: one [`LONG_EPISODE_OPS`]-op life of the store,
/// far past the episode length the timed run keeps to.
fn long_episode(v: &mut Values, plan: &Plan, seed: u64) {
    let ops = gen::kv_long_episode(seed, LONG_EPISODE_OPS);
    let mut target = KvTarget::set_up(plan, Wrap::Plain);
    for op in ops {
        target.exec(op);
    }
    v.set("apps.long_run_wrong_gets", target.failed() as f64);
}

/// Segments the `wal_append` long life appends on one U-Split instance.
const LONG_LIFE_SEGMENTS: usize = 12;

/// `splitfs.long_run_*`: the leading segments of the `wal_append` list on one
/// U-Split instance that is never re-formatted, far past the one segment a
/// timed life holds.  Every segment is read back whole before its rotation.
fn long_life(v: &mut Values, plan: &Plan) {
    let mut target = FsTarget::set_up(plan, Stack::Split, Wrap::Plain);
    target.never_reformat();
    let ops = &plan.timed()[..plan.round_ops * LONG_LIFE_SEGMENTS.min(plan.rounds())];
    let sim0 = SimClock::thread_time_ns();
    let mut scan_ns = 0.0;
    let mut misread = 0;
    for &op in ops {
        if matches!(op, Op::Close { .. }) {
            let before = SimClock::thread_time_ns();
            misread += target.misread_chunks();
            scan_ns += SimClock::thread_time_ns() - before;
        }
        target.exec(op);
    }
    let sim_ns = SimClock::thread_time_ns() - sim0 - scan_ns;
    v.set("splitfs.long_run_misread_blocks", misread as f64);
    v.set("splitfs.long_run_sim_ns_per_op", sim_ns / ops.len() as f64);
}

/// `splitfs.long_run_failed_recoveries`: the whole `crash_recover` list on one
/// file system that is never re-formatted, so every crash but the first hits
/// a file system that has already been recovered once.
fn recrash(v: &mut Values, plan: &Plan) {
    let mut target = FsTarget::set_up(plan, Stack::Split, Wrap::Plain);
    target.never_reformat();
    for &op in &plan.ops {
        target.exec(op);
    }
    v.set("splitfs.long_run_failed_recoveries", target.failed() as f64);
}

/// Runs the twins that apply to `plan.workload` on its leading `rounds`
/// rounds.  Returns the ops that failed on a twin.
pub fn twins(v: &mut Values, plan: &Plan, seed: u64, rounds: usize, base: &Measured) -> u64 {
    let split_sw = (base.sim_ns - base.sim_user_ns) / base.ops as f64;
    let mut failed = 0;
    match plan.workload {
        Workload::WalAppend => {
            failed += direct_ext4(v, plan, rounds, split_sw);
            failed += ring_twin(v, plan);
            failed += traced_fs_twin(v, plan, rounds, base);
            long_life(v, plan);
        }
        Workload::InplaceRw | Workload::MetaChurn => {
            failed += direct_ext4(v, plan, rounds, split_sw);
        }
        Workload::CrashRecover => {
            v.set(
                "pmem.floor_tracked_host_ns_per_op",
                device_floor(plan, rounds, true),
            );
            recrash(v, plan);
        }
        Workload::KvYcsbA => long_episode(v, plan, seed),
    }
    if plan.workload != Workload::KvYcsbA {
        v.set(
            "pmem.floor_host_ns_per_op",
            device_floor(plan, rounds, false),
        );
    }
    failed
}
