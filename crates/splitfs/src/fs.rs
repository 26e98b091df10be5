//! The U-Split user-space library file system.
//!
//! [`SplitFs`] implements the [`vfs::FileSystem`] trait the way the paper's
//! LD_PRELOAD library implements the POSIX API:
//!
//! * **reads and overwrites** are served from the collection of memory
//!   mappings with loads and non-temporal stores — no kernel trap;
//! * **appends** (and, in strict mode, overwrites) are redirected to
//!   pre-allocated staging files and moved into the target file with the
//!   relink primitive at the next `fsync`/`close`;
//! * **metadata operations** (`open`, `close`, `unlink`, `rename`,
//!   `mkdir`, ...) are passed through to the kernel file system
//!   ([`kernelfs::Ext4Dax`]), which journals them;
//! * in sync/strict mode, staged operations are recorded in the
//!   [operation log](crate::oplog) so they survive a crash that happens
//!   before the relink;
//! * the staging pool and the operation log are **per instance**, named
//!   by an instance id claimed from the kernel ([`kernelfs::lease`]), so
//!   many `SplitFs` instances — one per application process in the
//!   paper's deployment — share one kernel file system without stepping
//!   on each other's resources.

use std::ops::DerefMut;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};

use kernelfs::{Ext4Dax, BLOCK_SIZE};
use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{
    iov_total_len, path as vpath, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult,
    IoVec, OpenFlags, ReadView, SeekFrom,
};

use crate::batch::RELINK_CHUNK;
use crate::config::SplitConfig;
use crate::daemon::{MaintenanceDaemon, Task, CHECKPOINT_FRACTION};
use crate::mmap_collection::{MAP_POPULATE, MMAP_SIZE};
use crate::modes::Mode;
use crate::oplog::{LogEntry, LogOp, OpLog};
use crate::recovery::{self, RecoveryReport};
use crate::staging::{StagingAllocation, StagingPool};
use crate::state::{Descriptor, FdTable, FileRegistry, FileState, StagedExtent};

/// Directory on the kernel file system holding SplitFS's own files
/// (staging files and the operation logs).  Instance 0 stages directly in
/// it; every further concurrent instance stages in a subdirectory (see
/// [`kernelfs::lease::staging_dir`]).  Aliases the kernel-side layout
/// constant so the two crates can never disagree about the paths.
pub const SPLITFS_DIR: &str = kernelfs::lease::SPLITFS_ROOT;

/// Path of instance 0's operation-log file.  Further instances log to
/// their own file (see [`kernelfs::lease::oplog_path`]).
pub const OPLOG_PATH: &str = kernelfs::lease::OPLOG_PATH_0;

/// A SplitFS (U-Split) instance layered over a kernel file system.
///
/// Many instances can be mounted concurrently over **one** shared
/// [`Ext4Dax`] — the paper's multi-process story, one instance per
/// process.  Each instance claims an instance id from the kernel, which
/// names an exclusive slice of the staging pool (its staging directory)
/// and a dedicated operation-log file.  [`Drop`] and a crash alike just
/// drop the claim: the next start replays the log it left (see
/// [`crate::recovery`]).
pub struct SplitFs {
    pub(crate) kernel: Arc<Ext4Dax>,
    pub(crate) device: Arc<PmemDevice>,
    pub(crate) config: SplitConfig,
    /// Instance id claimed from the kernel file system; stamps every
    /// operation-log entry and names the staging dir / oplog file.
    pub(crate) instance_id: u32,
    /// This instance's exclusive staging directory.
    pub(crate) staging_dir: String,
    /// This instance's operation-log path.
    pub(crate) oplog_file: String,
    /// What this instance's start replayed (see
    /// [`SplitFs::recovered_logs`]).
    recovered: Vec<(u32, RecoveryReport)>,
    pub(crate) files: FileRegistry,
    pub(crate) fds: FdTable,
    pub(crate) staging: StagingPool,
    pub(crate) oplog: Option<OpLog>,
    /// The descriptor the log was opened and mapped through, held for the
    /// instance's life and released by `Drop`.
    oplog_fd: Option<Fd>,
    /// Background maintenance daemon (None when disabled by config).
    /// Behind a mutex so `Drop` can take it and join its thread.
    pub(crate) daemon: Mutex<Option<MaintenanceDaemon>>,
    /// Serializes sealed-epoch retirement (the sweep that relinks every
    /// file with sealed staged data and then truncates the sealed epoch).
    /// Taken only by a thread that holds no file-state lock, since the
    /// sweep blocks on every one in turn.
    retire_lock: Mutex<()>,
    /// Set when a checkpoint nudge is outstanding, so the append hot path
    /// can skip the daemon mutexes while utilization stays above the
    /// threshold.  Cleared by the worker when the checkpoint runs.
    pub(crate) checkpoint_nudged: std::sync::atomic::AtomicBool,
    /// Same, for staging-provisioning nudges.
    pub(crate) provision_nudged: std::sync::atomic::AtomicBool,
    /// Span recorder for background maintenance work, when one is
    /// attached (see [`SplitFs::attach_recorder`]).  Foreground spans
    /// come from the `vfs::TracedFs` wrapper; the daemon cannot go
    /// through the wrapper, so it opens its own `Maintenance` spans
    /// against this recorder.  RwLock: written once per measured run,
    /// read once per daemon dispatch.
    pub(crate) recorder: parking_lot::RwLock<Option<Arc<obs::Recorder>>>,
    /// Highest durability epoch published by this instance: every
    /// operation-log sequence number ≤ this value is covered by a
    /// group-commit fence (see [`crate::rings`]).  Published with
    /// `fetch_max` *after* the fence, so readers can never observe an
    /// epoch whose entries are still volatile.
    pub(crate) published_epoch: std::sync::atomic::AtomicU64,
    /// The async ring hub attached to this instance, if any (weak: the
    /// hub's backend holds the `Arc<SplitFs>`, so a strong reference
    /// here would leak the cycle).  Drained by the maintenance worker.
    pub(crate) ring_hub: parking_lot::RwLock<Option<std::sync::Weak<aio::RingFs>>>,
}

impl std::fmt::Debug for SplitFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitFs")
            .field("mode", &self.config.mode)
            .field("instance", &self.instance_id)
            .field("open_files", &self.files.len())
            .finish()
    }
}

/// DRAM footprint of a U-Split instance (resource-consumption experiment,
/// §5.10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Number of files with cached state.
    pub cached_files: usize,
    /// Number of staged extents awaiting relink.
    pub staged_extents: usize,
    /// Number of mapped segments across all collections.
    pub mmap_segments: usize,
    /// Approximate bytes of DRAM used by the above.
    pub approx_bytes: usize,
}

impl SplitFs {
    /// Creates a U-Split instance over `kernel` with the given
    /// configuration.
    ///
    /// This pre-allocates the staging files and maps the first two (the
    /// daemon maps the rest as they come up), creates (or recovers) the
    /// operation log when the mode requires one, and is the moral
    /// equivalent of `LD_PRELOAD`-ing the SplitFS library into a process.
    pub fn new(kernel: Arc<Ext4Dax>, config: SplitConfig) -> FsResult<Arc<Self>> {
        let device = Arc::clone(kernel.device());

        // Claim this instance's id first: from here on no other start
        // replays the log at its path, which this one replays as its own.
        let instance_id = kernel.claim_instance()?;

        // Everything between the claim and the construction of the
        // instance (whose `Drop` drops the claim) must drop it on failure,
        // or every failed start would leak an id.
        let built = (|| {
            // Instances that crashed, or went away with staged writes
            // unretired, left their logs behind: replay every log no live
            // instance claims.  Each replays independently, so instance B
            // recovers even if instance A died mid-relink.
            let mut recovered = recovery::recover_orphans(&kernel, &config)?;
            let (staging, oplog, own) =
                Self::build_instance_resources(&kernel, &device, &config, instance_id)?;
            recovered.push((instance_id, own));
            Ok((staging, oplog, recovered))
        })();
        let (staging, oplog, recovered) = match built {
            Ok(built) => built,
            Err(e) => {
                kernel.release_instance(instance_id);
                return Err(e);
            }
        };
        let (oplog, oplog_fd) = oplog.unzip();
        let fs = Arc::new(Self {
            kernel,
            device: Arc::clone(&device),
            config,
            instance_id,
            staging_dir: kernelfs::lease::staging_dir(instance_id),
            oplog_file: kernelfs::lease::oplog_path(instance_id),
            recovered,
            files: FileRegistry::new(device),
            fds: FdTable::new(),
            staging,
            oplog,
            oplog_fd,
            daemon: Mutex::new(None),
            retire_lock: Mutex::new(()),
            checkpoint_nudged: std::sync::atomic::AtomicBool::new(false),
            provision_nudged: std::sync::atomic::AtomicBool::new(false),
            recorder: parking_lot::RwLock::new(None),
            published_epoch: std::sync::atomic::AtomicU64::new(0),
            ring_hub: parking_lot::RwLock::new(None),
        });
        if fs.config.daemon.enabled && fs.config.use_staging {
            *fs.daemon.lock() = Some(MaintenanceDaemon::start(&fs));
        }
        Ok(fs)
    }

    /// Builds everything the freshly claimed `instance_id` owns: replays
    /// the log at its path, ensures the bookkeeping root exists, and
    /// constructs the staging pool and (when the mode logs) the operation
    /// log.  Returns them with the replay's report.
    #[allow(clippy::type_complexity)]
    fn build_instance_resources(
        kernel: &Arc<Ext4Dax>,
        device: &Arc<PmemDevice>,
        config: &SplitConfig,
        instance_id: u32,
    ) -> FsResult<(StagingPool, Option<(OpLog, Fd)>, RecoveryReport)> {
        let staging_dir = kernelfs::lease::staging_dir(instance_id);
        let oplog_file = kernelfs::lease::oplog_path(instance_id);

        // A predecessor with the same id, crashed or shut down, may have
        // left a log behind; replay is idempotent and leaves nothing live
        // in the file for this instance.
        let own = recovery::recover_instance(kernel, config, instance_id)?;

        // Instance subdirectories nest under the shared bookkeeping root;
        // make sure it exists (another instance may win the race).
        if !kernel.exists(SPLITFS_DIR) {
            match kernel.mkdir(SPLITFS_DIR) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        let staging =
            StagingPool::new(Arc::clone(kernel), Arc::clone(device), &staging_dir, config)?;

        let oplog = if config.mode.logs_data_ops() {
            let fd = kernel.open(&oplog_file, OpenFlags::create())?;
            // The descriptor is closed on every failure path, or the log
            // file would stay an open orphan once unlinked.
            let oplog = (|| -> FsResult<_> {
                // A file of the configured size was replayed and retired
                // by the `recover_instance` above and holds nothing live
                // as it stands, its chunk map clear.
                let fresh = kernel.fstat(fd)?.size != config.oplog_size;
                kernel.ftruncate(fd, config.oplog_size)?;
                let mapping = kernel.dax_map(fd, 0, config.oplog_size, MAP_POPULATE)?;
                if fresh {
                    // A file that is new, or whose size just changed, sits
                    // on blocks the kernel allocator hands out unzeroed,
                    // which could hold checksum-valid ghosts: this one time
                    // the whole log but its watermark records is filled.
                    OpLog::format(device, &mapping, config.oplog_size);
                }
                OpLog::new(Arc::clone(device), mapping, config.oplog_size)
            })()
            .inspect_err(|_| {
                let _ = kernel.close(fd);
            })?;
            Some((oplog, fd))
        } else {
            None
        };
        Ok((staging, oplog, own))
    }

    /// The mode this instance runs in.
    pub fn mode(&self) -> Mode {
        self.config.mode
    }

    /// The instance id claimed from the kernel file system.
    pub fn instance_id(&self) -> u32 {
        self.instance_id
    }

    /// The operation logs this instance's start replayed: one
    /// `(instance_id, report)` per log, its own last.
    pub fn recovered_logs(&self) -> &[(u32, RecoveryReport)] {
        &self.recovered
    }

    /// This instance's exclusive staging directory.
    pub fn staging_dir(&self) -> &str {
        &self.staging_dir
    }

    /// This instance's operation-log path.
    pub fn oplog_file(&self) -> &str {
        &self.oplog_file
    }

    /// Whether the background maintenance worker is running.
    pub fn daemon_running(&self) -> bool {
        self.daemon.lock().is_some()
    }

    /// The staging pool (exposed for experiments and tests that assert on
    /// provisioning behaviour).
    pub fn staging_pool(&self) -> &StagingPool {
        &self.staging
    }

    /// Blocks until the maintenance daemon has drained its queue and its
    /// worker is idle.  A no-op when the daemon is disabled.  Used by
    /// experiments that need a deterministic point at which all nudged
    /// background work (provisioning, relinks, checkpoints) has landed.
    pub fn maintenance_quiesce(&self) {
        let shared = self.daemon.lock().as_ref().map(|d| d.shared_handle());
        if let Some(shared) = shared {
            MaintenanceDaemon::wait_idle(&shared);
        }
    }

    /// Attaches a span recorder for background maintenance work: every
    /// daemon dispatch from now on runs under an
    /// [`obs::OpKind::Maintenance`] span against `recorder`, so the
    /// per-op time breakdown covers daemon charges too.  Foreground
    /// operations are spanned by wrapping the instance in
    /// [`vfs::TracedFs`] with the same recorder.
    pub fn attach_recorder(&self, recorder: Arc<obs::Recorder>) {
        *self.recorder.write() = Some(recorder);
    }

    /// Opens a `Maintenance` span when a recorder is attached (the daemon
    /// worker calls this around each dispatched task).
    pub(crate) fn maintenance_span(&self) -> Option<obs::SpanGuard> {
        self.recorder
            .read()
            .as_ref()
            .map(|r| r.span(obs::OpKind::Maintenance))
    }

    /// Nudges the daemon with `task`; a no-op when the daemon is disabled.
    pub(crate) fn nudge(&self, task: Task) {
        if let Some(daemon) = self.daemon.lock().as_ref() {
            daemon.submit(task);
        }
    }

    /// The kernel file system underneath.
    pub fn kernel(&self) -> &Arc<Ext4Dax> {
        &self.kernel
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SplitConfig {
        &self.config
    }

    /// Duplicates a descriptor; both descriptors share one file offset
    /// (§3.5, "Handling dup").
    pub fn dup(&self, fd: Fd) -> FsResult<Fd> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        // Counted under the state lock, so a racing last `close` of an
        // unlinked file cannot drop the state between the two steps.
        let mut st = desc.state.write();
        let new_fd = self.fds.dup(fd)?;
        st.open_fds += 1;
        Ok(new_fd)
    }

    /// DRAM footprint of the instance's bookkeeping structures.
    pub fn memory_usage(&self) -> MemoryUsage {
        let states = self.files.snapshot_keyed();
        let mut usage = MemoryUsage {
            cached_files: states.len(),
            ..MemoryUsage::default()
        };
        for (_ino, state) in &states {
            let st = state.read();
            usage.staged_extents += st.staged.len();
            usage.mmap_segments += st.mmaps.len();
        }
        usage.approx_bytes = usage.cached_files * std::mem::size_of::<FileState>()
            + usage.staged_extents * std::mem::size_of::<StagedExtent>()
            + usage.mmap_segments * 24
            + self.fds.len() * std::mem::size_of::<Descriptor>();
        usage
    }

    /// Number of operation-log entries currently in use (0 in POSIX mode).
    pub fn oplog_entries(&self) -> u64 {
        self.oplog.as_ref().map(|l| l.entries_used()).unwrap_or(0)
    }

    /// Forces an epoch swap on the operation log **without** retiring the
    /// sealed half (retirement happens on the next checkpoint or daemon
    /// pass).  Returns `false` when the mode has no log or the other half
    /// is still pending retirement.  Exposed for crash tests and
    /// experiments that need entries split across both epochs at a
    /// deterministic point.
    pub fn seal_oplog_epoch(&self) -> bool {
        self.oplog.as_ref().is_some_and(OpLog::try_seal)
    }

    // ------------------------------------------------------------------
    // Cost helpers
    // ------------------------------------------------------------------

    pub(crate) fn charge_usplit(&self) {
        let cost = self.device.cost();
        self.device.charge_software(cost.usplit_bookkeeping_ns);
    }

    fn charge_mmap_lookup(&self) {
        let cost = self.device.cost();
        self.device.charge_software(cost.usplit_mmap_lookup_ns);
    }

    // ------------------------------------------------------------------
    // File-state management
    // ------------------------------------------------------------------

    /// Runs `f` on the cached state bound to `norm`, under its write lock.
    /// The path index is probed without any state lock held, so the
    /// binding is re-checked once the lock is.
    fn with_bound_state(&self, norm: &str, f: impl FnOnce(&mut FileState)) {
        if let Some(state) = self.files.find_by_path(norm) {
            let mut st = state.write();
            if st.linked_path() == Some(norm) {
                f(&mut st);
            }
        }
    }

    /// Drops the cached state of a file that has neither a name nor an
    /// open application descriptor: unmaps it and closes U-Split's kernel
    /// descriptor, at which point the kernel frees an orphan's blocks.
    /// Called with the state's write lock held.
    fn drop_if_unreferenced(&self, st: &mut FileState) {
        if st.linked_path().is_some() || st.open_fds > 0 {
            return;
        }
        self.discard_staged(st);
        self.files.remove(st.ino);
        // munmap cost per mapped segment.
        let munmap_ns = self.device.cost().mmap_setup_ns * 0.5;
        self.device
            .charge_software(st.mmaps.len() as f64 * munmap_ns);
        let _ = self.kernel.close(st.kernel_fd);
    }

    /// Re-keys every cached file beneath a renamed directory.  The one
    /// walk over all cached files left on the metadata path: a directory
    /// move changes the meaning of every path under it, which the kernel,
    /// too, treats as a global event (its directory-move generation).
    fn rekey_descendants(&self, old_dir: &str, new_dir: &str) {
        for (_ino, state) in self.files.snapshot_keyed() {
            let mut st = state.write();
            let moved = st
                .linked_path()
                .and_then(|p| p.strip_prefix(old_dir))
                .filter(|rest| rest.starts_with('/'))
                .map(|rest| format!("{new_dir}{rest}"));
            // Only a file that moved with the directory: since the kernel
            // call another thread may have re-created `old_dir` and opened
            // a new file under the same name.
            if let Some(moved) = moved {
                if self.kernel.stat(&moved).is_ok_and(|now| now.ino == st.ino) {
                    self.files.bind(&mut st, &moved);
                }
            }
        }
    }

    /// Relinks every file with staged data and truncates the operation log
    /// by **epoch swap** (§3.3: performed when the log fills up, by
    /// [`FileSystem::sync`], and in the background by the maintenance
    /// daemon).
    ///
    /// No stop-the-world pass exists: the active epoch is sealed (writers
    /// continue into the empty half immediately), the sealed epoch's files
    /// are relinked one at a time — never holding two state locks — and
    /// only then is the sealed half retired by its watermark.  The caller
    /// must hold no file-state lock.  Fails with the first relink error,
    /// and the sealed half then stays pending.
    pub fn checkpoint(&self) -> FsResult<()> {
        if let Some(oplog) = self.oplog.as_ref() {
            let _ = oplog.try_seal();
        }
        self.retire_sealed()
    }

    /// Makes room for a writer whose log group found the active epoch full
    /// and the other half still being retired: the writer has released
    /// its state locks and waits on a blocking [`SplitFs::checkpoint`], as
    /// a jbd2 transaction waits for a checkpoint when its journal has no
    /// room.  The log never grows.  Counted as a checkpoint stall.
    pub(crate) fn checkpoint_for_room(&self) -> FsResult<()> {
        self.device.stats().add_checkpoint_stall();
        self.checkpoint()
    }

    /// Retires the sealed epoch: relinks every file with staged data one
    /// state lock at a time — never two — committing its marker into the
    /// *active* epoch, and truncates the sealed half.  With no operation
    /// log (POSIX mode) it degrades to a plain relink-everything sweep.
    ///
    /// Fails with the first relink error — every other file is still
    /// relinked — and the sealed epoch then stays pending.
    pub(crate) fn retire_sealed(&self) -> FsResult<()> {
        let _retire = self.retire_lock.lock();
        // Only a sweep that *started after* the seal may truncate: every
        // sealed entry's staged extent was recorded (under its file lock)
        // before the seal's writer drain, so such a sweep provably visits
        // it.  A sweep that was already running when the seal landed may
        // have passed a file before its sealed entry appeared.
        let sealed_at_start = self.oplog.as_ref().is_some_and(OpLog::sealed_pending);
        let mut swept = Ok(());
        for (_, state) in self.files.snapshot_keyed() {
            // A failed relink leaves that file's data staged and its log
            // entries live; the sealed epoch must stay pending.
            swept = swept.and(self.relink_batch(&mut [state.write()]));
        }
        match self.oplog.as_ref() {
            Some(oplog) if swept.is_ok() && sealed_at_start && !oplog.truncate_sealed() => {
                Err(FsError::Io("operation log watermark store failed".into()))
            }
            _ => swept,
        }
    }

    /// Recycles staging files whose contents were fully retired: each one
    /// gets a durable `StagingRecycle` marker in the operation log (so
    /// recovery never replays a stale entry over the file's fresh blocks),
    /// is truncated and re-provisioned, and rejoins the pool's unconsumed
    /// tail — closing the seed's leak of one staging file per ~16 MiB of
    /// appends.  Runs on the maintenance tick.
    pub(crate) fn recycle_staging(&self) {
        loop {
            let Some(rec) = self.staging.begin_recycle() else {
                return;
            };
            if let Some(oplog) = self.oplog.as_ref() {
                let mut marker = LogEntry {
                    staging_ino: rec.ino(),
                    ..LogEntry::new(LogOp::StagingRecycle, self.instance_id)
                };
                if oplog.append(&mut marker).is_err() {
                    // No log space: put the file back and retry on a later
                    // tick, after a checkpoint has made room.
                    self.staging.abort_recycle(rec);
                    return;
                }
            }
            if self.staging.rebuild(rec).is_err() {
                // Rebuild failure (device full): the file is dropped from
                // the pool; the marker is harmless.
                return;
            }
        }
    }

    /// Ensures a mapping of the target file covering `offset` exists in the
    /// collection.  A miss maps the unmapped stretch of the [`MMAP_SIZE`]
    /// region around `offset`, which is the whole region when nothing in it
    /// is mapped yet; mapped bytes are not mapped again, since hits already
    /// trust the collection (see [`crate::mmap_collection`]).  Returns the
    /// device offset and contiguous length, or `None` when the gap cannot
    /// be mapped (holes) and the caller must fall back to the kernel.
    fn ensure_mapped(&self, state: &mut FileState, offset: u64) -> Option<(u64, u64)> {
        self.charge_mmap_lookup();
        if let Some(hit) = state.mmaps.lookup(offset) {
            return Some(hit);
        }
        // Only ranges the kernel has blocks for can be mapped.
        let alloc_end = state.kernel_size.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64;
        if offset >= alloc_end {
            return None;
        }
        let region_start = offset - offset % MMAP_SIZE;
        let region_end = alloc_end.min(region_start + MMAP_SIZE);
        let (gap_start, gap_end) = state.mmaps.gap_around(offset, region_start, region_end);
        match self.kernel.dax_map(
            state.kernel_fd,
            gap_start,
            gap_end - gap_start,
            MAP_POPULATE,
        ) {
            Ok(mapping) => {
                for seg in &mapping.segments {
                    state
                        .mmaps
                        .insert(seg.file_offset, seg.device_offset, seg.len);
                }
                state.mmaps.lookup(offset)
            }
            Err(_) => None,
        }
    }

    /// Serves a read of committed (non-staged) file content.
    fn read_committed(
        &self,
        state: &mut FileState,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
    ) -> FsResult<()> {
        let mut pos = 0usize;
        let mut first = true;
        while pos < buf.len() {
            let file_off = offset + pos as u64;
            if file_off >= state.kernel_size {
                buf[pos..].fill(0);
                break;
            }
            let want = (buf.len() - pos).min((state.kernel_size - file_off) as usize);
            match self.ensure_mapped(state, file_off) {
                Some((dev_off, contig)) => {
                    let n = want.min(contig as usize);
                    let p = if first {
                        pattern
                    } else {
                        AccessPattern::Sequential
                    };
                    self.device.try_read(
                        dev_off,
                        &mut buf[pos..pos + n],
                        p,
                        TimeCategory::UserData,
                    )?;
                    pos += n;
                }
                None => {
                    // Hole or unmappable region: fall back to the kernel
                    // read path for this chunk.
                    let n = self.kernel.read_at(
                        state.kernel_fd,
                        file_off,
                        &mut buf[pos..pos + want],
                    )?;
                    if n == 0 {
                        buf[pos..pos + want].fill(0);
                        pos += want;
                    } else {
                        pos += n;
                    }
                }
            }
            first = false;
        }
        Ok(())
    }

    /// Overlays staged extents (newest last) on top of a read.
    fn overlay_staged(&self, state: &FileState, offset: u64, buf: &mut [u8]) -> FsResult<()> {
        let end = offset + buf.len() as u64;
        for ext in &state.staged {
            let ext_end = ext.target_offset + ext.len;
            if ext.target_offset >= end || ext_end <= offset {
                continue;
            }
            let copy_start = ext.target_offset.max(offset);
            let copy_end = ext_end.min(end);
            let dev = ext.device_offset + (copy_start - ext.target_offset);
            let dst = (copy_start - offset) as usize;
            let n = (copy_end - copy_start) as usize;
            self.device.try_read(
                dev,
                &mut buf[dst..dst + n],
                AccessPattern::Random,
                TimeCategory::UserData,
            )?;
        }
        Ok(())
    }

    /// Writes data in place through the collection of mmaps (POSIX/sync
    /// overwrites).  Falls back to the kernel write path when a region
    /// cannot be mapped.
    fn write_in_place(&self, state: &mut FileState, offset: u64, data: &[u8]) -> FsResult<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let file_off = offset + pos as u64;
            let want = data.len() - pos;
            match self.ensure_mapped(state, file_off) {
                Some((dev_off, contig)) => {
                    let n = want.min(contig as usize);
                    self.device.write(
                        dev_off,
                        &data[pos..pos + n],
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    pos += n;
                }
                None => {
                    let n =
                        self.kernel
                            .write_at(state.kernel_fd, file_off, &data[pos..pos + want])?;
                    state.kernel_size = state.kernel_size.max(file_off + n as u64);
                    pos += n;
                }
            }
        }
        Ok(())
    }

    /// The one staging pipeline (§3.3–3.4): every write of `ops` goes to
    /// staging space with non-temporal stores, and in logging modes the
    /// whole batch then shares **one** data fence and **one** operation-log
    /// group commit — two fences for K writes to any number of files.  A
    /// synchronous `appendv`/`writev_at` is a batch of one; a drained ring
    /// batch brings its inode-ordered guards ([`crate::rings`]).  An op is
    /// staged by its length, not by its slices: each staging allocation
    /// it takes is one staged run, one `StagedExtent` and one log entry.
    ///
    /// `states` are file states whose write locks the caller holds; each
    /// op names one by index.  An append's offset is resolved here, under
    /// that lock, and a staged op's size is visible to the ops behind it.
    /// Every op's `result` is filled in; if the group commit fails, no
    /// entry is durable, so every staged op fails and the cached sizes roll
    /// back.  An allocation a failed op leaves behind is retired at once.
    /// Returns the highest sequence number committed (0 when the mode does
    /// not log, or nothing was staged).
    ///
    /// A log with no room for the group ([`SplitFs::commit_group`]) rolls
    /// the batch back the same way and returns `None`: the caller must
    /// release its state locks, wait on [`SplitFs::checkpoint_for_room`]
    /// and run the batch again.
    pub(crate) fn stage_batch<S, B>(
        &self,
        states: &mut [S],
        ops: &mut [StageOp<'_, B>],
    ) -> Option<u64>
    where
        S: DerefMut<Target = FileState>,
        B: AsRef<[u8]>,
    {
        // Per file of the batch: its size on entry (restored if the group
        // commit fails) and where its latest staged chunk ends — the latest
        // chunk *of this file* earlier in the batch, else `staged.last()`.
        // A write that starts at that target offset continues the chunk,
        // and the pool carves it from the block tail the chunk left.
        let mut files: Vec<(u64, Option<ChunkEnd>)> = states
            .iter()
            .map(|st| {
                let last = st.staged.last().map(|e| ChunkEnd {
                    target: e.target_offset + e.len,
                    staging: (e.staging_ino, e.staging_offset + e.len),
                });
                (st.cached_size, last)
            })
            .collect();
        // Staged chunks of the whole batch: (file, allocation, target
        // offset), one per allocation — a staged run gets one log entry
        // however many slices it gathers.  A lone writer's allocations are
        // contiguous in the staging file and coalesce into one run at
        // relink time.
        let mut pending: Vec<(usize, StagingAllocation, u64)> = Vec::new();
        for op in ops.iter_mut() {
            let total: u64 = op.iov.iter().map(|b| b.as_ref().len() as u64).sum();
            op.result = Ok(total);
            if total == 0 {
                continue;
            }
            let st = &mut *states[op.state];
            let start = op.offset.unwrap_or(st.cached_size);
            let end = start + total;
            let first_chunk = pending.len();
            let tail_before = files[op.state].1;
            // The takes walk the op's length; the stores walk its slices
            // into each allocation.
            let mut slices = op.iov.iter().map(|b| b.as_ref());
            let mut data: &[u8] = &[];
            let mut cur = start;
            while cur < end {
                let after = files[op.state]
                    .1
                    .filter(|last| last.target == cur)
                    .map(|last| last.staging);
                let alloc = match self.staging.take(end - cur, cur % BLOCK_SIZE as u64, after) {
                    Ok(alloc) => alloc,
                    Err(e) => {
                        // The op's earlier allocations hold nothing anyone
                        // will relink: retire them, or their staging file
                        // could never recycle.
                        op.result = Err(e);
                        let freed = pending.drain(first_chunk..);
                        self.staging
                            .note_retired(freed.map(|(_, a, _)| (a.staging_ino, a.len)));
                        files[op.state].1 = tail_before;
                        break;
                    }
                };
                let mut dev = alloc.device_offset;
                let run_end = dev + alloc.len;
                while dev < run_end {
                    if data.is_empty() {
                        data = slices.next().expect("the slices hold the op's length");
                        continue;
                    }
                    let n = data.len().min((run_end - dev) as usize);
                    self.device.write(
                        dev,
                        &data[..n],
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    dev += n as u64;
                    data = &data[n..];
                }
                pending.push((op.state, alloc, cur));
                cur += alloc.len;
                files[op.state].1 = Some(ChunkEnd {
                    target: cur,
                    staging: (alloc.staging_ino, alloc.staging_offset + alloc.len),
                });
            }
            if op.result.is_ok() {
                st.cached_size = st.cached_size.max(start + total);
            }
        }
        if pending.is_empty() {
            return Some(0);
        }

        let mut entries: Vec<LogEntry> = Vec::new();
        if let Some(oplog) = self.oplog.as_ref() {
            // The staged data must be in the persistence domain before a
            // valid log entry can point at it.
            self.device.fence(TimeCategory::UserData);
            entries.extend(pending.iter().map(|(file, alloc, cur)| LogEntry {
                target_ino: states[*file].ino,
                target_offset: *cur,
                len: alloc.len,
                staging_ino: alloc.staging_ino,
                staging_offset: alloc.staging_offset,
                ..LogEntry::new(LogOp::StagedWrite, self.instance_id)
            }));
            let committed = self.commit_group(oplog, &mut entries);
            if committed != Ok(true) {
                let e = committed.clone().err().unwrap_or(FsError::NoSpace);
                for (st, (pre_size, _)) in states.iter_mut().zip(&files) {
                    st.cached_size = *pre_size;
                }
                let freed = pending.iter().map(|(_, a, _)| (a.staging_ino, a.len));
                self.staging.note_retired(freed);
                for op in ops.iter_mut().filter(|op| op.staged()) {
                    op.result = Err(e.clone());
                }
                // A full log (`Ok(false)`) is the caller's to checkpoint.
                return committed.is_err().then_some(0);
            }
        }
        // Every sequence number of the batch is durable now: declare it
        // and publish the durability epoch ring completions await.
        let max_seq = entries.last().map_or(0, |e| e.seq);
        if max_seq > 0 {
            self.device.declare(pmem::Promise::OplogCommitted {
                instance: self.instance_id,
                seq: max_seq,
            });
            self.publish_epoch(max_seq);
        }

        for (k, (file, alloc, cur)) in pending.iter().enumerate() {
            states[*file].staged.push(StagedExtent {
                target_offset: *cur,
                len: alloc.len,
                staging_ino: alloc.staging_ino,
                staging_fd: alloc.staging_fd,
                staging_offset: alloc.staging_offset,
                device_offset: alloc.device_offset,
                seq: entries.get(k).map_or(0, |e| e.seq),
            });
        }

        // Nudge the maintenance daemon on threshold crossings.  The
        // condition checks are lock-free (whether the pool's spare staging
        // file is ready, and per-task pending flags), so a condition that
        // holds while the daemon works does not put mutex traffic on every
        // append.
        if self.config.daemon.enabled {
            use std::sync::atomic::Ordering;
            if self.staging.needs_provisioning()
                && self
                    .provision_nudged
                    .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                self.nudge(Task::ProvisionStaging);
            }
            if let Some(oplog) = self.oplog.as_ref() {
                if oplog.utilization() >= CHECKPOINT_FRACTION
                    && self
                        .checkpoint_nudged
                        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    self.nudge(Task::Checkpoint);
                }
            }
            for st in states.iter() {
                if st.staged.len() >= 4 * RELINK_CHUNK {
                    // A long-running writer that never fsyncs would
                    // otherwise accumulate unbounded staged state; retire
                    // it in the background.
                    self.nudge(Task::RelinkFile(st.ino));
                }
            }
        }
        Some(max_seq)
    }

    /// Group-commits `entries` under the caller's state locks.  A full
    /// active epoch is sealed, the daemon nudged to retire it, and the
    /// group retried in the fresh half; every seal is progress, so this
    /// never spins.  `Ok(false)`: the other half is still being retired
    /// and nothing was logged — the caller must release its state locks,
    /// wait on [`SplitFs::checkpoint_for_room`] and try again.  A group
    /// larger than an epoch fails with `NoSpace`, since no checkpoint
    /// makes room for it.
    pub(crate) fn commit_group(&self, oplog: &OpLog, entries: &mut [LogEntry]) -> FsResult<bool> {
        loop {
            match oplog.append_batch(entries) {
                Err(FsError::NoSpace) if oplog.ever_fits(entries.len()) => {
                    if !oplog.try_seal() {
                        return Ok(false);
                    }
                    self.nudge(Task::Checkpoint);
                }
                done => return done.map(|()| true),
            }
        }
    }

    /// The synchronous write body behind `appendv`, `writev_at` and
    /// `write`: `at` is an absolute offset, or `None` for the end of file
    /// (resolved under the state write lock, so concurrent appenders
    /// serialize instead of racing a stale size into overlapping offsets).
    /// Returns the bytes written and the offset just past them.
    fn vectored_write(
        &self,
        desc: &Descriptor,
        at: Option<u64>,
        iov: &[IoVec<'_>],
    ) -> FsResult<(usize, u64)> {
        self.charge_usplit();
        if !desc.flags.write {
            return Err(FsError::PermissionDenied);
        }
        let total = iov_total_len(iov);
        let mut st = desc.state.write();
        if total == 0 {
            return Ok((0, at.unwrap_or(st.cached_size)));
        }
        if self.config.use_staging && (at.is_none() || self.config.mode.stages_overwrites()) {
            // Appends in every mode, and in strict mode every data write:
            // staged whole, applied atomically at the next fsync.
            let st = self.stage_one(&desc.state, st, at, iov)?;
            return Ok((total as usize, at.map_or(st.cached_size, |o| o + total)));
        }
        // Replay must not put staged bytes back over an unlogged overwrite.
        while !self.commit_due(&mut [&mut *st])? {
            drop(st);
            self.checkpoint_for_room()?;
            st = desc.state.write();
        }
        let offset = at.unwrap_or(st.cached_size);
        let end = offset + total;
        let overwrite_end = end.min(st.kernel_size);
        // Split the gather at the end of the committed file: existing
        // bytes are overwritten in place through the mmaps, the remainder
        // is re-gathered and staged (or falls through to the kernel) as
        // one batch.
        let mut tail: Vec<IoVec<'_>> = Vec::new();
        let mut cur = offset;
        for v in iov {
            let s = v.as_slice();
            if s.is_empty() {
                continue;
            }
            let v_end = cur + s.len() as u64;
            if cur < overwrite_end {
                let n = ((overwrite_end - cur) as usize).min(s.len());
                self.write_in_place(&mut st, cur, &s[..n])?;
                if n < s.len() {
                    tail.push(IoVec::new(&s[n..]));
                }
            } else {
                tail.push(*v);
            }
            cur = v_end;
        }
        if offset < overwrite_end && self.config.mode.fences_data_ops() {
            self.device.fence(TimeCategory::UserData);
        }
        if end > st.kernel_size {
            let append_from = offset.max(st.kernel_size);
            if self.config.use_staging {
                st = self.stage_one(&desc.state, st, Some(append_from), &tail)?;
            } else {
                // Figure 3 ablation: without staging, appends fall through
                // to the kernel file system.
                let mut cur = append_from;
                for v in &tail {
                    self.kernel.write_at(st.kernel_fd, cur, v.as_slice())?;
                    cur += v.len() as u64;
                }
                st.kernel_size = end;
            }
        }
        st.cached_size = st.cached_size.max(end);
        Ok((total as usize, end))
    }

    /// [`SplitFs::stage_batch`] with one op, under `st`, the write lock of
    /// `state`.  A full log releases the lock for a checkpoint and runs
    /// the op again under a fresh one, which is handed back.
    fn stage_one<'a>(
        &self,
        state: &'a RwLock<FileState>,
        mut st: RwLockWriteGuard<'a, FileState>,
        at: Option<u64>,
        iov: &[IoVec<'_>],
    ) -> FsResult<RwLockWriteGuard<'a, FileState>> {
        loop {
            let mut op = [StageOp {
                state: 0,
                offset: at,
                iov,
                result: Ok(0),
            }];
            if self.stage_batch(&mut [&mut *st], &mut op).is_some() {
                let [op] = op;
                return op.result.map(|_| st);
            }
            drop(st);
            self.checkpoint_for_room()?;
            st = state.write();
        }
    }

    /// The read body behind `read_at` and `read`.
    fn read_desc(&self, desc: &Descriptor, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.charge_usplit();
        if !desc.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let mut st = desc.state.write();
        if offset >= st.cached_size || buf.is_empty() {
            return Ok(0);
        }
        let n = ((st.cached_size - offset) as usize).min(buf.len());
        let pattern = desc.read_pattern(offset);
        self.read_committed(&mut st, offset, &mut buf[..n], pattern)?;
        self.overlay_staged(&st, offset, &mut buf[..n])?;
        desc.note_read_end(offset + n as u64);
        Ok(n)
    }

    /// The durability body behind `fsync` (one state) and `fsync_many`
    /// (its inode-ordered guards): retire whatever is staged, or — with
    /// nothing staged — push in-place overwrites done with unfenced
    /// non-temporal stores (POSIX mode) into the persistence domain.
    fn sync_states<S: DerefMut<Target = FileState>>(&self, states: &mut [S]) -> FsResult<()> {
        if states.iter().any(|st| !st.staged.is_empty()) {
            self.relink_batch(states)?;
        } else {
            self.device.fence(TimeCategory::UserData);
        }
        // Durability established above — the promises may now be declared
        // (ledger-enabled runs only; see pmem::oracle).
        for st in states.iter() {
            self.device.declare(pmem::Promise::FsyncReturned {
                instance: self.instance_id,
                ino: st.ino,
                size: st.cached_size,
            });
        }
        Ok(())
    }
}

/// Where a file's latest staged chunk ends: in the target file, and as
/// the `(staging inode, staging offset)` [`StagingPool::take`] continues
/// from.
#[derive(Clone, Copy)]
struct ChunkEnd {
    target: u64,
    staging: (u64, u64),
}

/// One write of a [`SplitFs::stage_batch`].
pub(crate) struct StageOp<'a, B> {
    /// Index of the target file in the batch's locked states.
    pub(crate) state: usize,
    /// Absolute target offset, or `None` to append at the end of file.
    pub(crate) offset: Option<u64>,
    /// The gather list.
    pub(crate) iov: &'a [B],
    /// Filled in by the batch: the bytes staged, or why not.
    pub(crate) result: FsResult<u64>,
}

impl<B> StageOp<'_, B> {
    /// Whether the batch staged bytes for this op (an empty gather
    /// succeeds without staging anything).
    pub(crate) fn staged(&self) -> bool {
        matches!(self.result, Ok(n) if n > 0)
    }
}

impl Drop for SplitFs {
    fn drop(&mut self) {
        // Shut down and join the maintenance worker before the instance's
        // pools and logs disappear.
        if let Some(daemon) = self.daemon.get_mut().take() {
            drop(daemon);
        }
        // The kernel descriptors the instance holds go with it, as they
        // would at process exit: each cached file's, and the log's (the
        // staging pool releases its own).
        for (_, state) in self.files.snapshot_keyed() {
            let _ = self.kernel.release(state.read().kernel_fd);
        }
        if let Some(fd) = self.oplog_fd {
            let _ = self.kernel.release(fd);
        }
        // Last, as a process's exit does: the next start that finds the
        // log unclaimed replays what it holds.
        self.kernel.release_instance(self.instance_id);
    }
}

impl FileSystem for SplitFs {
    fn name(&self) -> String {
        self.config.mode.label().to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        self.config.mode.consistency_class()
    }

    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_usplit();
        let norm = vpath::normalized(path)?;
        loop {
            // Metadata operation: pass through to the kernel.
            let kernel_fd = self.kernel.open(&norm, flags)?;
            // Cache the attributes (§3.5: "performs stat() on the file and
            // caches its attributes in user-space").
            let stat = self.kernel.fstat(kernel_fd)?;

            // Take the registry lock only to find or insert the entry;
            // the state itself is locked after the registry guard is
            // released, so no thread ever holds the registry lock while
            // waiting on a state lock.
            let (state, created) = self.files.get_or_insert_with(stat.ino, || {
                let mut fresh = FileState::new(stat.ino, kernel_fd, stat.size);
                fresh.kernel_fd_writable = flags.write;
                fresh
            });
            let mut st = state.write();
            if !self.files.holds(stat.ino, &state) {
                // Between the lookup and the lock a racing `unlink` (or a
                // `rename` over the file) took the state's name and, with
                // no descriptor open, dropped it and closed its kernel
                // descriptor.  Resolve the path again: this `open` now
                // comes after that operation.
                if st.kernel_fd != kernel_fd {
                    let _ = self.kernel.close(kernel_fd);
                }
                continue;
            }
            if !created && st.kernel_fd != kernel_fd {
                // Keep exactly one kernel descriptor per file, preferring
                // the most capable one: relink and the fallback write path
                // need a writable descriptor even if the application later
                // reopens the file read-only.
                if flags.write && !st.kernel_fd_writable {
                    let old = st.kernel_fd;
                    st.kernel_fd = kernel_fd;
                    st.kernel_fd_writable = true;
                    let _ = self.kernel.close(old);
                } else {
                    let _ = self.kernel.close(kernel_fd);
                }
            }
            if flags.truncate {
                if !st.staged.is_empty() || st.invalidate_due > 0 {
                    // The kernel emptied the file; what is staged is cut as
                    // `ftruncate` cuts it: applied, then cut again.  A full
                    // log sends the open round again after a checkpoint.
                    if !self.apply_before_cut(&mut st, 0)? {
                        drop(st);
                        self.checkpoint_for_room()?;
                        continue;
                    }
                    self.kernel.ftruncate(st.kernel_fd, 0)?;
                }
                st.kernel_size = 0;
                st.cached_size = 0;
                st.mmaps.clear();
            } else {
                st.kernel_size = stat.size;
                st.cached_size = st.cached_size.max(stat.size);
            }
            // Bind the name (a no-op when the state already carries it).
            self.files.bind(&mut st, &norm);
            st.open_fds += 1;
            return Ok(self.fds.insert(stat.ino, flags, Arc::clone(&state)));
        }
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        {
            // Appends are relinked on fsync *or close* (§3.4).
            let mut st = desc.state.write();
            self.relink_batch(&mut [&mut *st])?;
            st.open_fds = st.open_fds.saturating_sub(1);
            // Cached attributes and mappings are retained after close
            // (§3.5) — unless the file lost its name while it was open.
            self.drop_if_unreferenced(&mut st);
        }
        self.fds.remove(fd)?;
        Ok(())
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.read_desc(&*self.fds.get(fd)?, offset, buf)
    }

    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        if !desc.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let mut st = desc.state.write();
        if offset >= st.cached_size || len == 0 {
            return Ok(ReadView::Owned(Vec::new()));
        }
        let n = ((st.cached_size - offset) as usize).min(len);
        let end = offset + n as u64;
        let pattern = desc.read_pattern(offset);
        desc.note_read_end(end);

        // Zero-copy when the range holds only committed bytes (no staged
        // overlay) served by one contiguous region of the collection of
        // mmaps: the view is then a borrow of the mapped blocks, the same
        // loads a pointer into the DAX mapping would issue.
        let staged_overlap = st
            .staged
            .iter()
            .any(|e| e.target_offset < end && offset < e.target_offset + e.len);
        if !staged_overlap && end <= st.kernel_size {
            if let Some((dev_off, contig)) = self.ensure_mapped(&mut st, offset) {
                if contig >= n as u64 {
                    if let Some(view) =
                        self.device
                            .try_read_view(dev_off, n, pattern, TimeCategory::UserData)
                    {
                        return Ok(ReadView::Mapped(view));
                    }
                }
            }
        }
        // Fallback: staged overlays, holes, or mapping-discontiguous
        // ranges take the owned-copy path.
        let mut buf = vec![0u8; n];
        self.read_committed(&mut st, offset, &mut buf, pattern)?;
        self.overlay_staged(&st, offset, &mut buf)?;
        Ok(ReadView::Owned(buf))
    }

    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.vectored_write(&*self.fds.get(fd)?, Some(offset), iov)
            .map(|(n, _)| n)
    }

    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let (n, _) = self.vectored_write(&*self.fds.get(fd)?, None, iov)?;
        self.device.stats().add_appendv(iov.len() as u64);
        Ok(n)
    }

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        self.charge_usplit();
        if fds.is_empty() {
            return Ok(());
        }
        // Resolve the distinct files behind the descriptors and lock them
        // in inode order (the same order the ring batches use, so
        // concurrent batches cannot deadlock against each other).
        let mut descs = fds
            .iter()
            .map(|&fd| self.fds.get(fd))
            .collect::<FsResult<Vec<_>>>()?;
        descs.sort_by_key(|desc| desc.ino);
        descs.dedup_by_key(|desc| desc.ino);
        let mut guards: Vec<_> = descs.iter().map(|desc| desc.state.write()).collect();
        self.sync_states(&mut guards)?;
        self.device.stats().add_fsync_many(fds.len() as u64);
        Ok(())
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let desc = self.fds.get(fd)?;
        // The offset stays locked across the whole call, like Linux's
        // `f_pos_lock` (POSIX 2.9.7): two calls through one description,
        // or its `dup`s, never read the same bytes or lose an advance.
        // Lock order: offset, then file state.
        let mut pos = desc.offset.lock();
        let n = self.read_desc(&desc, *pos, buf)?;
        *pos += n as u64;
        Ok(n)
    }

    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let desc = self.fds.get(fd)?;
        // Locked across the call, as in `read`.
        let mut pos = desc.offset.lock();
        // An O_APPEND descriptor writes at the end of file, which only the
        // write body can resolve race-free.
        let at = (!desc.flags.append).then_some(*pos);
        let (n, end) = self.vectored_write(&desc, at, &[IoVec::new(data)])?;
        *pos = end;
        Ok(n)
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        // Seeks are resolved entirely in user space against the cached size.
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        let mut cur = desc.offset.lock();
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => *cur as i128 + d as i128,
            SeekFrom::End(d) => desc.state.read().cached_size as i128 + d as i128,
        };
        if new < 0 {
            return Err(FsError::InvalidArgument);
        }
        *cur = new as u64;
        Ok(new as u64)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        let mut st = desc.state.write();
        self.sync_states(&mut [&mut *st])
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        let mut st = desc.state.write();
        while !self.apply_before_cut(&mut st, size)? {
            drop(st);
            self.checkpoint_for_room()?;
            st = desc.state.write();
        }
        self.kernel.ftruncate(st.kernel_fd, size)?;
        if size < st.kernel_size {
            // A mapping runs to the end of the file's last block, past the
            // old size: drop everything from the new size on.
            st.mmaps.remove_range(size, u64::MAX - size);
        }
        st.kernel_size = size;
        st.cached_size = size.max(
            st.staged
                .iter()
                .map(|e| e.target_offset + e.len)
                .max()
                .unwrap_or(0),
        );
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.charge_usplit();
        let desc = self.fds.get(fd)?;
        let st = desc.state.read();
        Ok(FileStat {
            ino: st.ino,
            size: st.cached_size,
            blocks: st.cached_size.div_ceil(BLOCK_SIZE as u64),
            is_dir: false,
            nlink: 1,
        })
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.charge_usplit();
        let norm = vpath::normalized(path)?;
        // Prefer the cached user-space view so staged appends are visible
        // to the calling process immediately.
        if let Some(state) = self.files.find_by_path(&norm) {
            let st = state.read();
            if st.linked_path() == Some(&*norm) {
                return Ok(FileStat {
                    ino: st.ino,
                    size: st.cached_size,
                    blocks: st.cached_size.div_ceil(BLOCK_SIZE as u64),
                    is_dir: false,
                    nlink: 1,
                });
            }
        }
        self.kernel.stat(&norm)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.charge_usplit();
        let norm = vpath::normalized(path)?;
        // Drop cached state and unmap (the expensive part of unlink in
        // SplitFS, §5.4).  With application descriptors still open the
        // state only loses its name and goes at the last close, like the
        // kernel's own orphan.
        self.with_bound_state(&norm, |st| {
            self.files.unbind(st);
            self.drop_if_unreferenced(st);
        });
        self.kernel.unlink(&norm)
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.charge_usplit();
        let old_norm = vpath::normalized(old)?;
        let new_norm = vpath::normalized(new)?;
        let move_gen = self.kernel.dir_move_generation();
        // The file the rename is about to replace, identified before the
        // kernel call: afterwards the name means the moved file, which a
        // racing `open` may already have bound.
        let replaced = self.files.find_by_path(&new_norm);
        if old_norm != new_norm {
            if let Some(state) = &replaced {
                // A replaced file no application holds goes first, as in
                // `unlink`: closing U-Split's own kernel descriptor lets the
                // kernel free it inside the rename's transaction rather
                // than orphan it until a second one.  A closed file has no
                // staged bytes (close relinks them), so a failed rename
                // costs only the cache.
                let mut st = state.write();
                if st.linked_path() == Some(&*new_norm) && st.open_fds == 0 {
                    self.files.unbind(&mut st);
                    self.drop_if_unreferenced(&mut st);
                }
            }
        }
        self.kernel.rename(&old_norm, &new_norm)?;
        if old_norm == new_norm {
            return Ok(());
        }
        if let Some(state) = replaced {
            let mut st = state.write();
            if st.linked_path() == Some(&*new_norm) {
                // As after `unlink`: the open file lost its name, and keeps
                // its blocks and staged bytes until its last descriptor
                // closes.
                self.files.unbind(&mut st);
                self.drop_if_unreferenced(&mut st);
            }
        }
        self.with_bound_state(&old_norm, |st| self.files.bind(st, &new_norm));
        if self.kernel.dir_move_generation() != move_gen {
            self.rekey_descendants(&old_norm, &new_norm);
        }
        Ok(())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.charge_usplit();
        self.kernel.mkdir(path)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.charge_usplit();
        self.kernel.rmdir(path)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.charge_usplit();
        let mut entries = self.kernel.readdir(path)?;
        // Hide SplitFS's own bookkeeping directory from applications.
        if vpath::normalized(path)? == "/" {
            entries.retain(|e| e != ".splitfs");
        }
        Ok(entries)
    }

    fn sync(&self) -> FsResult<()> {
        self.checkpoint()?;
        self.kernel.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn splitfs(mode: Mode) -> (Arc<Ext4Dax>, Arc<SplitFs>) {
        let device = pmem::PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(device).unwrap();
        let config = SplitConfig::new(mode).with_staging(2, 8 * 1024 * 1024);
        let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();
        (kernel, fs)
    }

    /// Paths of every cached state that still has a name.
    fn linked_paths(fs: &SplitFs) -> Vec<String> {
        fs.files
            .snapshot_keyed()
            .iter()
            .filter_map(|(_, state)| state.read().linked_path().map(str::to_string))
            .collect()
    }

    #[test]
    fn a_descriptor_holds_the_registered_state_of_its_file() {
        let (_kernel, fs) = splitfs(Mode::Sync);
        // The descriptor's state is the one the registry holds for its
        // inode; returns what a read through the descriptor serves.
        let read = |fd: Fd| {
            let desc = fs.fds.get(fd).unwrap();
            let registered = fs.files.get(desc.ino).expect("open file unregistered");
            assert!(Arc::ptr_eq(&desc.state, &registered), "fd {fd}");
            let mut buf = vec![0u8; 64];
            fs.read_at(fd, 0, &mut buf).map(|n| buf[..n].to_vec())
        };
        let holds = |fd: Fd, want: &[u8]| assert_eq!(read(fd).unwrap(), want, "fd {fd}");

        // `dup`, then close of the original.
        fs.write_file("/a", b"alpha").unwrap();
        let a = fs.open("/a", OpenFlags::read_write()).unwrap();
        let a2 = fs.dup(a).unwrap();
        fs.close(a).unwrap();
        holds(a2, b"alpha");
        // Unlink while open, and a new file under the name.
        fs.unlink("/a").unwrap();
        holds(a2, b"alpha");
        fs.write_file("/a", b"another").unwrap();
        holds(a2, b"alpha");
        // `rename` over the open file: the descriptor keeps the replaced
        // file, as after an unlink, and the name serves the new one.
        fs.write_file("/b", b"bravo").unwrap();
        let b = fs.open("/b", OpenFlags::read_only()).unwrap();
        fs.write_file("/c", b"charlie").unwrap();
        fs.rename("/c", "/b").unwrap();
        holds(b, b"bravo");
        assert_eq!(fs.read_file("/b").unwrap(), b"charlie");
        // `open(O_TRUNC)` of the same path shares the state.
        let t = fs.open("/b", OpenFlags::read_write()).unwrap();
        let t2 = fs.open("/b", OpenFlags::create_truncate()).unwrap();
        holds(t, b"");
        fs.write(t2, b"tango").unwrap();
        holds(t, b"tango");
        holds(t2, b"tango");

        // The last close drops the states that lost their names.
        let unnamed = [a2, b].map(|fd| fs.fds.get(fd).unwrap().ino);
        for fd in [a2, b, t, t2] {
            fs.close(fd).unwrap();
        }
        assert!(unnamed.iter().all(|&ino| fs.files.get(ino).is_none()));
    }

    #[test]
    fn a_shared_offset_hands_out_each_block_once() {
        const THREADS: usize = 4;
        const BLOCKS: u64 = 1024;
        const BLOCK: usize = 4096;
        let (_kernel, fs) = splitfs(Mode::Posix);
        let numbered = |n: u64| {
            let mut block = vec![0u8; BLOCK];
            block[..8].copy_from_slice(&n.to_le_bytes());
            block
        };
        let tag = |buf: &[u8]| u64::from_le_bytes(buf[..8].try_into().unwrap());
        // Four threads through one description — half of them through a
        // `dup` of it — each take 4 KiB per call until the file runs out.
        // Every block must come out exactly once.
        let drain = |fd: Fd, op: &(dyn Fn(Fd) -> Option<u64> + Sync)| {
            let dup = fs.dup(fd).unwrap();
            let start = std::sync::Barrier::new(THREADS);
            let mut got: Vec<u64> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (start, fd) = (&start, [fd, dup][t % 2]);
                        s.spawn(move || {
                            start.wait();
                            std::iter::from_fn(|| op(fd)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap())
                    .collect::<Vec<_>>()
            });
            fs.close(dup).unwrap();
            got.sort_unstable();
            got
        };

        // `read`: the file's blocks are numbered; each must be read once.
        let blocks: Vec<u8> = (0..BLOCKS).flat_map(numbered).collect();
        fs.write_file("/blocks", &blocks).unwrap();
        let fd = fs.open("/blocks", OpenFlags::read_only()).unwrap();
        let read = drain(fd, &|fd| {
            let mut buf = vec![0u8; BLOCK];
            match fs.read(fd, &mut buf).unwrap() {
                0 => None,
                n => Some(tag(&buf[..n])),
            }
        });
        let repeats = read.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(
            read.len(),
            BLOCKS as usize,
            "{repeats} reads repeated a block"
        );
        assert_eq!(read, (0..BLOCKS).collect::<Vec<_>>());
        fs.close(fd).unwrap();

        // `write`: BLOCKS numbered writes in all, each must land in a block
        // of its own.
        let written = AtomicU64::new(0);
        let fd = fs.open("/out", OpenFlags::create()).unwrap();
        drain(fd, &|fd| {
            let n = written.fetch_add(1, Ordering::Relaxed);
            (n < BLOCKS).then(|| {
                fs.write(fd, &numbered(n)).unwrap();
                n
            })
        });
        let out = fs.read_file("/out").unwrap();
        let mut landed: Vec<u64> = out.chunks(BLOCK).map(tag).collect();
        landed.sort_unstable();
        assert_eq!(
            landed,
            (0..BLOCKS).collect::<Vec<_>>(),
            "an advance was lost"
        );
        fs.close(fd).unwrap();
    }

    #[test]
    fn path_ops_never_wait_on_an_unrelated_files_lock() {
        let (_kernel, fs) = splitfs(Mode::Strict);
        for name in ["/busy", "/a", "/c"] {
            fs.write_file(name, b"payload").unwrap();
        }
        let busy = fs.files.find_by_path("/busy").unwrap();
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _guard = busy.write();
                locked_tx.send(()).unwrap();
                // Held until the main thread has seen the outcome.
                let _ = release_rx.recv();
            });
            locked_rx.recv().unwrap();
            let fs = &fs;
            s.spawn(move || {
                let stat = fs.stat("/a").map(|st| st.size);
                let exists = fs.exists("/c");
                let renamed = fs.rename("/a", "/b");
                let unlinked = fs.unlink("/b");
                done_tx.send((stat, exists, renamed, unlinked)).unwrap();
            });
            // On a scan-based implementation the worker parks on `/busy`'s
            // lock; release it after the timeout so the scope can join and
            // the test fails instead of hanging.
            let outcome = done_rx.recv_timeout(Duration::from_secs(20));
            drop(release_tx);
            assert_eq!(
                outcome.expect("a path op waited on an unrelated file's state lock"),
                (Ok(7), true, Ok(()), Ok(()))
            );
        });
        assert!(!fs.exists("/a") && !fs.exists("/b"));
    }

    #[test]
    fn open_racing_unlink_never_returns_a_dead_descriptor() {
        const ROUNDS: usize = 3000;
        let (kernel, fs) = splitfs(Mode::Posix);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut opened = 0usize;
        std::thread::scope(|s| {
            let (fs, done) = (&fs, &done);
            // The state of `/x` is cached with no descriptor open each time
            // the unlink runs, so the unlink drops it.
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    fs.write_file("/x", b"payload").unwrap();
                    fs.unlink("/x").unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            // An `open` that resolved the path before the unlink must not
            // come back holding the dropped state.
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let Ok(fd) = fs.open("/x", OpenFlags::read_only()) else {
                    continue;
                };
                opened += 1;
                let size = fs.fstat(fd).expect("descriptor of a dropped state").size;
                assert!(size == 0 || size == 7, "{size}");
                fs.close(fd).unwrap();
            }
        });
        assert!(opened > 0, "the opener never saw the file");
        assert!(kernel.check_namespace().is_empty());
    }

    #[test]
    fn concurrent_churn_keeps_the_path_index_exact() {
        const THREADS: usize = 8;
        const FILES: usize = 40;
        let (kernel, fs) = splitfs(Mode::Sync);
        for t in 0..THREADS {
            fs.mkdir(&format!("/t{t}")).unwrap();
        }
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (fs, start) = (&fs, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..FILES {
                        let tmp = format!("/t{t}/f{i}.tmp");
                        let dat = format!("/t{t}/f{i}.dat");
                        let fd = fs.open(&tmp, OpenFlags::create()).unwrap();
                        fs.append(fd, &vec![t as u8; 100 + i]).unwrap();
                        match i % 4 {
                            // Renamed while open, closed under the new name.
                            0 => {
                                fs.rename(&tmp, &dat).unwrap();
                                fs.close(fd).unwrap();
                            }
                            // Unlinked while open: gone at the close.
                            1 => {
                                fs.unlink(&tmp).unwrap();
                                assert_eq!(fs.fstat(fd).unwrap().size, 100 + i as u64);
                                fs.close(fd).unwrap();
                            }
                            // Renamed over the previous survivor.
                            2 => {
                                fs.close(fd).unwrap();
                                fs.rename(&tmp, &format!("/t{t}/f{}.dat", i - 2)).unwrap();
                            }
                            // Closed, then unlinked.
                            _ => {
                                fs.close(fd).unwrap();
                                assert!(fs.exists(&tmp));
                                fs.unlink(&tmp).unwrap();
                            }
                        }
                    }
                });
            }
        });
        fs.sync().unwrap();

        let linked = linked_paths(&fs);
        // Per thread: every `i % 4 == 0` file's name survives (replaced in
        // content by its `i + 2` neighbour).
        assert_eq!(linked.len(), THREADS * FILES / 4);
        assert_eq!(fs.files.bound_paths(), linked.len());
        assert_eq!(fs.files.len(), linked.len(), "unnamed states were dropped");
        for path in &linked {
            let (cached, truth) = (fs.stat(path).unwrap(), kernel.stat(path).unwrap());
            assert_eq!((cached.ino, cached.size), (truth.ino, truth.size), "{path}");
        }
        assert!(kernel.check_namespace().is_empty());
    }
}
