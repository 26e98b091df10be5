//! Staging files (paper §3.3, "Staging"), lane-sharded.
//!
//! Appends — and, in strict mode, overwrites — are first written to
//! pre-allocated, pre-mapped *staging files* and only attached to their
//! target file at the next `fsync`/`close` via relink.  The pool
//! pre-creates a configurable number of staging files at startup
//! (`SplitConfig::staging_files` × `staging_file_size`) so that taking
//! staging space in the write path is a cheap cursor bump.
//!
//! The pool is partitioned into **lanes** (default one per maintenance
//! worker, overridable with [`SplitConfig::with_staging_lanes`]), each
//! owning its own active staging file, cursor and free list behind its
//! own lock.  [`StagingPool::take`] routes by the calling thread — every
//! thread is assigned a home lane on first use — so disjoint writers
//! bump disjoint cursors and never contend on one pool mutex (the
//! `staging_lock_waits` statistic counts the contended acquisitions that
//! do happen).  A lane that runs dry first **steals** a fresh file from
//! the globally longest free list (`staging_lane_steals`), and only when
//! every lane is dry does it fall back to inline creation.
//!
//! **A staging block belongs to one file.**  A lane's cursor only ever
//! rests on a block boundary: a fresh take enters the block there at the
//! write's phase (its target offset modulo the block size) and the cursor
//! moves past every block the allocation touched, so no second file is
//! ever handed bytes of that block.  The unfilled rest of a block — its
//! *tail* — belongs to the file whose **last staged extent ends in it**,
//! for as long as that extent stays staged: a write that continues the
//! extent in the target is carved right behind it instead of from the
//! cursor, so a file's small appends fill its own blocks however many
//! other files' appends interleave, and the next `fsync` relinks them
//! whole.  The owner record is the file's own `staged.last()` — the pool
//! keeps none, and nothing is released at `close`, `unlink` or a discard:
//! the tail dies when the relink drains the extents.  Recycle cannot race
//! a carve: the carve runs under the staging file's lane lock and is
//! counted into `consumed`, and the extent that owns the tail is
//! unretired for as long as the tail is live, so
//! [`StagingPool::begin_recycle`]'s `retired >= consumed` cannot hold for
//! that file.  A lone writer sees the offsets it always saw: while nobody
//! else has taken, its tail's block end still *is* the cursor, and the
//! continuation then runs past the block end as one allocation — the old
//! contiguous cursor bump.
//!
//! Each U-Split instance owns one pool, rooted in the staging directory
//! its kernel lease names ([`kernelfs::lease::staging_dir`]) — the
//! instance's exclusive slice of the machine-wide staging resources.  Two
//! concurrent instances therefore never hand out overlapping staging
//! space, and recovery can attribute every staging file to its owner.
//! On mount the pool **adopts** the staging files a previous incarnation
//! left in the directory (rebuilding them lane by lane; cursors restart
//! at zero because the instance's operation log is always recovered and
//! zeroed before the pool is built) and truncates any leftovers beyond
//! the configured pool size so their blocks return to the allocator.
//!
//! When a lane runs low, replacements come from two sources:
//!
//! * the [background maintenance daemon](crate::daemon) provisions fresh
//!   files asynchronously whenever a lane falls below its low watermark
//!   (this is the paper's design: staging allocation happens "on a
//!   background thread").  Every lane runs with the same static
//!   watermarks, the configured pool-level ones divided across the lanes
//!   ([`StagingPool::lane_watermarks`]); and
//! * as a last resort, [`StagingPool::take`] creates a file **inline** on
//!   the foreground write path.  Inline creations are counted separately
//!   ([`StagingPool::files_created_inline`] and the device-wide
//!   `staging_inline_creates` statistic) so experiments can verify the
//!   daemon eliminates them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use kernelfs::{DaxMapping, Ext4Dax, BLOCK_SIZE};
use pmem::{PmemDevice, SimClock};
use vfs::{Fd, FileSystem, FsError, FsResult, OpenFlags};

use crate::config::SplitConfig;
use crate::mmap_collection::MAP_POPULATE;

const BLOCK: u64 = BLOCK_SIZE as u64;

/// Distinguishes pools for the per-thread lane cache below (two pools —
/// two instances, or a remount — must not share routing state).
static POOL_IDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread cache of `pool id → lane seed`.  A thread's seed in a
    /// pool is assigned by that pool's own counter on the thread's first
    /// `take`, so the N writer threads of one workload get the N
    /// consecutive seeds 0..N — and therefore N **distinct** home lanes
    /// whenever the pool has at least N lanes — regardless of what other
    /// pools or unrelated threads in the process are doing.  The map
    /// grows by one entry per (thread, pool) pair and entries for dead
    /// pools are not purged (a pool cannot reach other threads' locals);
    /// the growth is bounded by pools-ever-created × live threads and a
    /// few machine words per entry.
    static POOL_LANE_SEEDS: std::cell::RefCell<HashMap<u64, usize>> =
        std::cell::RefCell::new(HashMap::new());

    /// Single-entry fast path over [`POOL_LANE_SEEDS`]: the last
    /// `(pool id, seed)` this thread resolved.  A thread almost always
    /// takes from one pool, so the common case is an integer compare
    /// instead of a hash probe.  `u64::MAX` is never a real pool id.
    static LAST_POOL_SEED: std::cell::Cell<(u64, usize)> =
        const { std::cell::Cell::new((u64::MAX, 0)) };
}

/// A slice of staging space handed to the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingAllocation {
    /// Inode of the staging file (recorded in operation-log entries).
    pub staging_ino: u64,
    /// Kernel descriptor of the staging file (used for relink).
    pub staging_fd: Fd,
    /// Byte offset of the allocation within the staging file.
    pub staging_offset: u64,
    /// Device offset where the data should be written directly.
    pub device_offset: u64,
    /// Usable length of the allocation (may be shorter than requested;
    /// callers loop).
    pub len: u64,
}

#[derive(Debug)]
struct StagingFile {
    fd: Fd,
    ino: u64,
    mapping: DaxMapping,
    /// Where the next fresh block is handed out: always on a block
    /// boundary, past every block `take` has touched.
    cursor: u64,
    size: u64,
    /// Bytes actually handed out by `take`, fresh or carved from a tail
    /// (excludes alignment padding).
    consumed: u64,
    /// Bytes whose staged data was retired (relinked or copied into its
    /// target).  When an exhausted file's `retired` catches up with its
    /// `consumed`, the file is recyclable.
    retired: u64,
}

impl StagingFile {
    /// Hands out up to `len` bytes at `start`, stopping at `limit` and at
    /// the end of the device extent under `start`.  The shared cursor moves
    /// past every block the allocation touches: it only ever rests on a
    /// boundary, so the next fresh taker gets a block of its own.
    ///
    /// Inlined into the fresh path of `take` (every 4 KiB append), with
    /// the carve kept out of line: left to the compiler, `wal_append`'s
    /// `op_p50_ns` read 2–3 % higher in 19 of 20 pairs.
    #[inline(always)]
    fn allocate(&mut self, start: u64, len: u64, limit: u64) -> FsResult<StagingAllocation> {
        let (device_offset, contig) = self
            .mapping
            .translate(start)
            .ok_or_else(|| FsError::Io("staging file mapping hole".into()))?;
        let take = len.min(limit - start).min(contig);
        self.cursor = self.cursor.max((start + take).next_multiple_of(BLOCK));
        self.consumed += take;
        Ok(StagingAllocation {
            staging_ino: self.ino,
            staging_fd: self.fd,
            staging_offset: start,
            device_offset,
            len: take,
        })
    }
}

/// A staging file pulled out of the pool for recycling (see
/// [`StagingPool::begin_recycle`]).  Remembers its lane so that
/// [`StagingPool::rebuild`] returns it to the free list it came from.
#[derive(Debug)]
pub struct RecycledFile {
    file: StagingFile,
    lane: usize,
}

impl RecycledFile {
    /// Inode of the file being recycled.
    pub fn ino(&self) -> u64 {
        self.file.ino
    }

    /// The lane the file was (and will again be) provisioned for.
    pub fn lane(&self) -> usize {
        self.lane
    }
}

/// One lane of the pool: its own files, cursor and free list behind its
/// own lock, plus lock-free mirrors the hot paths and the daemon read.
#[derive(Debug)]
struct Lane {
    inner: Mutex<LaneInner>,
    /// Mirror of `files.len() - active`, readable without the lane lock.
    unconsumed: AtomicUsize,
    /// Whether this lane was below the low watermark at the last
    /// [`StagingPool::refresh_pressure`]; transitions maintain the
    /// pool-level `lanes_below_low` counter.
    below_low: AtomicBool,
}

#[derive(Debug, Default)]
struct LaneInner {
    files: Vec<StagingFile>,
    /// Index of the staging file allocations are currently served from.
    active: usize,
}

impl Lane {
    fn new() -> Self {
        Self {
            inner: Mutex::new(LaneInner::default()),
            unconsumed: AtomicUsize::new(0),
            // A fresh lane has no files, hence starts below the (≥1) low
            // watermark; the pool-level counter is initialized to match.
            below_low: AtomicBool::new(true),
        }
    }

    /// Refreshes the lock-free unconsumed-files mirror; call with the lane
    /// lock held after any mutation of `files`/`active`, followed by
    /// [`StagingPool::refresh_pressure`].
    fn refresh_unconsumed(&self, inner: &LaneInner) {
        self.unconsumed.store(
            inner.files.len().saturating_sub(inner.active),
            Ordering::Relaxed,
        );
    }
}

/// Splits a pool-level file count across `lanes` lanes (at least one per
/// lane, so every lane can make progress).
fn per_lane(count: usize, lanes: usize) -> usize {
    count.div_ceil(lanes.max(1)).max(1)
}

/// The `(low, high)` watermarks every lane of a pool for `config` runs
/// with: the configured low/high split — with `staging_files` bounding
/// the high side, so the preallocated pool shape is always provisioned
/// back — divided across the lanes.
fn per_lane_watermarks(config: &SplitConfig, lanes: usize) -> (usize, usize) {
    let low = per_lane(config.daemon.staging_low_watermark, lanes);
    let high = per_lane(
        config
            .daemon
            .staging_high_watermark
            .max(config.staging_files),
        lanes,
    )
    .max(low + 1);
    (low, high)
}

/// The lane-sharded pool of staging files owned by one U-Split instance.
#[derive(Debug)]
pub struct StagingPool {
    kernel: Arc<Ext4Dax>,
    device: Arc<PmemDevice>,
    dir: String,
    file_size: u64,
    lanes: Vec<Lane>,
    /// Per-lane `(low, high)` provisioning watermarks, the same for every
    /// lane and fixed at construction.
    watermarks: (usize, usize),
    /// This pool's key in the per-thread lane-seed cache.
    pool_id: u64,
    /// Hands out lane seeds to threads on their first `take`.
    thread_seq: AtomicUsize,
    /// Name counter for `stage-N` paths — lock-free, so reserving a name
    /// (the daemon's background-build path and inline creation) never
    /// touches a lane lock.
    next_name: AtomicU64,
    /// Staging-file inode → lane index, so `note_retired`/`translate`
    /// touch exactly one lane's lock.  Entries for files in recycle limbo
    /// or mid-steal may be transiently stale; readers fall back to a
    /// full-lane scan on a miss.
    index: RwLock<HashMap<u64, usize>>,
    /// Number of lanes currently below their low watermark — the O(1)
    /// read behind [`StagingPool::needs_provisioning`], maintained by
    /// [`StagingPool::refresh_pressure`] so the append hot path never
    /// scans the lane array.
    lanes_below_low: AtomicUsize,
    created_preallocated: AtomicU64,
    created_inline: AtomicU64,
    created_background: AtomicU64,
}

impl StagingPool {
    /// Creates the pool, pre-allocating `config.staging_files` staging files
    /// (at least one **per lane**, so no lane starts dry and steals on its
    /// first take) under `dir` (created if missing) on the kernel file
    /// system, distributed round-robin across
    /// `config.effective_staging_lanes()` lanes.  Staging files left behind
    /// by a previous incarnation of this instance are adopted (rebuilt) in
    /// name order; leftovers beyond the configured pool size are truncated
    /// so their blocks are reclaimed.
    pub fn new(
        kernel: Arc<Ext4Dax>,
        device: Arc<PmemDevice>,
        dir: &str,
        config: &SplitConfig,
    ) -> FsResult<Self> {
        if !kernel.exists(dir) {
            kernel.mkdir(dir)?;
        }
        let lane_count = config.effective_staging_lanes();
        let pool = Self {
            kernel,
            device,
            dir: dir.to_string(),
            file_size: config.staging_file_size,
            lanes: (0..lane_count).map(|_| Lane::new()).collect(),
            watermarks: per_lane_watermarks(config, lane_count),
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            thread_seq: AtomicUsize::new(0),
            next_name: AtomicU64::new(0),
            index: RwLock::new(HashMap::new()),
            // Every fresh lane starts empty, i.e. below its low watermark.
            lanes_below_low: AtomicUsize::new(lane_count),
            created_preallocated: AtomicU64::new(0),
            created_inline: AtomicU64::new(0),
            created_background: AtomicU64::new(0),
        };

        // Names a previous incarnation left behind, in numeric order: the
        // initial pool adopts them first so their (truncated) blocks are
        // reused instead of leaking alongside fresh allocations.
        let mut existing: Vec<u64> = pool
            .kernel
            .readdir(dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|name| name.strip_prefix("stage-").and_then(|n| n.parse().ok()))
            .collect();
        existing.sort_unstable();

        let initial = config.staging_files.max(lane_count);
        for i in 0..initial {
            let name = match existing.get(i) {
                Some(&name) => name,
                None => pool.reserve_name(),
            };
            pool.next_name.fetch_max(name + 1, Ordering::Relaxed);
            let file = pool.build_staging_file(name)?;
            let lane_idx = i % lane_count;
            pool.index.write().insert(file.ino, lane_idx);
            let lane = &pool.lanes[lane_idx];
            let mut inner = lane.inner.lock();
            inner.files.push(file);
            lane.refresh_unconsumed(&inner);
            drop(inner);
            pool.refresh_pressure(lane_idx);
            pool.created_preallocated.fetch_add(1, Ordering::Relaxed);
        }
        // Stale files beyond the initial pool size: give their blocks back
        // to the allocator.  They will be re-extended if the pool ever
        // grows back over their names.
        for &name in existing.iter().skip(initial) {
            pool.next_name.fetch_max(name + 1, Ordering::Relaxed);
            let path = format!("{dir}/stage-{name}");
            if let Ok(fd) = pool.kernel.open(&path, OpenFlags::read_write()) {
                let _ = pool.kernel.ftruncate(fd, 0);
                let _ = pool.kernel.close(fd);
            }
        }
        Ok(pool)
    }

    /// Reserves the next `stage-N` name.  Lock-free: a bare atomic
    /// increment, so the daemon's background-build path and inline
    /// creation never serialize on pool state just to pick a name.
    fn reserve_name(&self) -> u64 {
        self.next_name.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's home lane: its per-pool seed (assigned from
    /// this pool's counter on first use) modulo the lane count.  The
    /// common single-pool case is served by a one-entry thread-local
    /// cache (an integer compare); pool switches fall back to the map.
    fn home_lane(&self) -> usize {
        let (cached_pool, cached_seed) = LAST_POOL_SEED.with(|c| c.get());
        let seed = if cached_pool == self.pool_id {
            cached_seed
        } else {
            let seed = POOL_LANE_SEEDS.with(|seeds| {
                *seeds
                    .borrow_mut()
                    .entry(self.pool_id)
                    .or_insert_with(|| self.thread_seq.fetch_add(1, Ordering::Relaxed))
            });
            LAST_POOL_SEED.with(|c| c.set((self.pool_id, seed)));
            seed
        };
        seed % self.lanes.len()
    }

    /// Re-evaluates whether `lane_idx` sits below the low watermark and
    /// maintains the pool-level `lanes_below_low` counter on transitions.
    /// Call after any change to the lane's unconsumed mirror.  Racing
    /// refreshers can transiently skew the counter by a transition, which
    /// at worst delays or duplicates one daemon nudge — the next append
    /// or tick re-converges it.
    fn refresh_pressure(&self, lane_idx: usize) {
        let lane = &self.lanes[lane_idx];
        let below = lane.unconsumed.load(Ordering::Relaxed) < self.watermarks.0;
        if lane.below_low.swap(below, Ordering::Relaxed) != below {
            if below {
                self.lanes_below_low.fetch_add(1, Ordering::Relaxed);
            } else {
                self.lanes_below_low.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of lanes the pool is partitioned into.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The lane `take` would route the calling thread to (exposed for
    /// tests asserting the routing rule).
    pub fn lane_for_current_thread(&self) -> usize {
        self.home_lane()
    }

    /// The lane currently holding the staging file with inode `ino`, if
    /// any (exposed for recycle-correctness tests).
    pub fn lane_of(&self, ino: u64) -> Option<usize> {
        self.with_file_lane(ino, |_| ()).map(|(lane, ())| lane)
    }

    /// Acquires a lane's lock with contention accounting: `try_lock`
    /// first; on failure the contended acquisition is counted in the
    /// device-wide `staging_lock_waits` statistic and the blocked time is
    /// charged to the waiting thread's simulated critical path.
    fn lock_lane(&self, lane_idx: usize) -> MutexGuard<'_, LaneInner> {
        let lane = &self.lanes[lane_idx];
        match lane.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.device.stats().add_staging_lock_wait();
                let t0 = self.device.clock().now_ns_f64();
                let guard = lane.inner.lock();
                SimClock::charge_thread_wait(self.device.clock().now_ns_f64() - t0);
                guard
            }
        }
    }

    /// Creates, pre-allocates and maps one staging file.  Deliberately does
    /// **not** hold any lane lock: file creation goes through the kernel
    /// file system and is the expensive part, so builders (the daemon, or
    /// an unlucky foreground thread) must not block concurrent `take`s.
    fn build_staging_file(&self, name: u64) -> FsResult<StagingFile> {
        let path = format!("{}/stage-{}", self.dir, name);
        let fd = self.kernel.open(&path, OpenFlags::create())?;
        // A stale file left by a previous incarnation of this instance may
        // have holes where relink moved blocks out; empty it first so the
        // extension below re-allocates every block.  Safe: the instance's
        // operation log is always recovered (and zeroed) before the pool
        // is built, so nothing references the old staging bytes.
        if self.kernel.fstat(fd)?.size > 0 {
            self.kernel.ftruncate(fd, 0)?;
        }
        // Pre-allocate the whole file so appends never allocate in the
        // critical path, then map it once.
        self.kernel.ftruncate(fd, self.file_size)?;
        let mapping = self.kernel.dax_map(fd, 0, self.file_size, MAP_POPULATE)?;
        let ino = self.kernel.fd_ino(fd)?;
        Ok(StagingFile {
            fd,
            ino,
            mapping,
            cursor: 0,
            size: self.file_size,
            consumed: 0,
            retired: 0,
        })
    }

    /// Asynchronously provisions one staging file into `lane_idx` (called
    /// by a maintenance worker).  The new file is appended to the lane's
    /// unconsumed tail.
    pub fn provision_lane(&self, lane_idx: usize) -> FsResult<()> {
        let name = self.reserve_name();
        let file = self.build_staging_file(name)?;
        self.index.write().insert(file.ino, lane_idx);
        let lane = &self.lanes[lane_idx];
        let mut inner = lane.inner.lock();
        inner.files.push(file);
        lane.refresh_unconsumed(&inner);
        drop(inner);
        self.refresh_pressure(lane_idx);
        self.created_background.fetch_add(1, Ordering::Relaxed);
        self.device.stats().add_staging_bg_create();
        Ok(())
    }

    /// Number of staging files with unconsumed capacity in `lane_idx`
    /// (the lane's active file plus every file after it).  Lock-free.
    pub fn lane_unconsumed(&self, lane_idx: usize) -> usize {
        self.lanes[lane_idx].unconsumed.load(Ordering::Relaxed)
    }

    /// The `(low, high)` provisioning watermarks every lane runs with.
    pub fn lane_watermarks(&self) -> (usize, usize) {
        self.watermarks
    }

    /// Number of staging files that still have unconsumed capacity across
    /// all lanes.  Lock-free: sums the per-lane mirrors.
    pub fn unconsumed_files(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.unconsumed.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether any lane has fallen below its low watermark and background
    /// provisioning should run.
    pub fn needs_provisioning(&self) -> bool {
        self.lanes_below_low.load(Ordering::Relaxed) > 0
    }

    /// Number of staging files created so far, from every source
    /// (pre-allocated at startup, background-provisioned, and emergency
    /// inline creations).
    pub fn files_created(&self) -> u64 {
        self.created_preallocated.load(Ordering::Relaxed)
            + self.created_inline.load(Ordering::Relaxed)
            + self.created_background.load(Ordering::Relaxed)
    }

    /// Staging files pre-allocated at startup.
    pub fn files_created_preallocated(&self) -> u64 {
        self.created_preallocated.load(Ordering::Relaxed)
    }

    /// Staging files created inline on the foreground write path because
    /// the pool ran dry — the number the daemon exists to keep at zero.
    pub fn files_created_inline(&self) -> u64 {
        self.created_inline.load(Ordering::Relaxed)
    }

    /// Staging files provisioned asynchronously by maintenance workers.
    pub fn files_created_background(&self) -> u64 {
        self.created_background.load(Ordering::Relaxed)
    }

    /// Pops a fully-unconsumed file off `inner`'s tail, if one exists.
    /// Only a file the lane's cursor has not touched may move: either a
    /// file strictly beyond the active one, or the active slot itself if
    /// it is still pristine.
    fn pop_pristine(inner: &mut LaneInner) -> Option<StagingFile> {
        let can_pop = match inner.files.len().checked_sub(1) {
            Some(last) if last > inner.active => true,
            Some(last) if last == inner.active => inner.files[last].consumed == 0,
            _ => false,
        };
        if can_pop {
            inner.files.pop()
        } else {
            None
        }
    }

    /// Steals one fully-unconsumed staging file for `dest` from the lane
    /// with the globally longest free list.  Returns `None` only when no
    /// other lane has a file to spare — inline creation is strictly the
    /// everything-is-dry fallback.
    fn steal_for(&self, dest: usize) -> Option<StagingFile> {
        // Candidate victims in descending free-list length.  Pass 1
        // `try_lock`s each: blocking on — or squatting near — another
        // lane's hot lock would put this stealer on that lane's owner's
        // critical path, which is exactly what lanes exist to avoid, so
        // a busy victim is skipped for the next-longest one.  Pass 2,
        // reached only when every spare-holding lane was momentarily
        // busy, blocks on them in turn: a short wait on a victim's lock
        // is still far cheaper (and quieter) than creating a file inline
        // while spares exist.
        let mut victims: Vec<usize> = (0..self.lanes.len())
            .filter(|&i| i != dest && self.lanes[i].unconsumed.load(Ordering::Relaxed) > 0)
            .collect();
        victims
            .sort_by_key(|&i| std::cmp::Reverse(self.lanes[i].unconsumed.load(Ordering::Relaxed)));
        for pass in 0..2 {
            for &victim in &victims {
                let lane = &self.lanes[victim];
                if pass > 0 && lane.unconsumed.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                let inner = if pass == 0 {
                    lane.inner.try_lock()
                } else {
                    Some(lane.inner.lock())
                };
                let Some(mut inner) = inner else { continue };
                let Some(file) = Self::pop_pristine(&mut inner) else {
                    continue;
                };
                lane.refresh_unconsumed(&inner);
                drop(inner);
                self.refresh_pressure(victim);
                // Index update happens outside any lane lock (lock-ordering
                // rule: the index is never acquired while a lane is held).
                self.index.write().insert(file.ino, dest);
                self.device.stats().add_staging_lane_steal();
                obs::event(obs::SpanEvent::LaneSteal);
                return Some(file);
            }
        }
        None
    }

    /// Takes up to `len` bytes of staging space whose in-file offset is
    /// congruent to `phase` modulo the block size, so that a later relink of
    /// the target range can stay block-aligned.  Returns an allocation that
    /// may be shorter than `len`; callers loop until satisfied.
    ///
    /// `after` is the `(staging inode, staging end offset)` of the staged
    /// extent this write continues in its target file, if there is one: a
    /// predecessor that ends inside a block left that block's tail to its
    /// file, and the write is carved there (see the module doc's ownership
    /// rule).  Everything else — and whatever a tail could not hold — is a
    /// fresh block from the calling thread's home lane: concurrent takers
    /// on different lanes proceed without synchronizing at all.
    pub fn take(
        &self,
        len: u64,
        phase: u64,
        after: Option<(u64, u64)>,
    ) -> FsResult<StagingAllocation> {
        let cost = self.device.cost();
        self.device.charge_software(cost.usplit_staging_take_ns);
        let lane_idx = self.home_lane();
        let lane = &self.lanes[lane_idx];
        let mut inner = self.lock_lane(lane_idx);
        // A predecessor that ends on a block boundary (every 4 KiB append)
        // leaves no tail: two compares and on to the shared cursor.
        if let Some((ino, end)) = after.filter(|&(_, end)| phase != 0 && end % BLOCK == phase) {
            // The tail nearly always sits in a file of the lane this thread
            // takes from anyway; one written from another thread is found
            // through the index, under its own lane's lock.
            if let Some(out) = Self::carve(&mut inner, ino, end, len) {
                return Ok(out);
            }
            drop(inner);
            let carved = self.with_file_lane(ino, |other| Self::carve(other, ino, end, len));
            if let Some((_, Some(out))) = carved {
                return Ok(out);
            }
            inner = self.lock_lane(lane_idx);
        }
        loop {
            if inner.active >= inner.files.len() {
                // The home lane is dry.  The lock is dropped while a
                // replacement is found so concurrent takers sharing the
                // lane and the daemon can still make progress.
                drop(inner);
                let file = match self.steal_for(lane_idx) {
                    Some(file) => file,
                    None => {
                        // Every lane is dry and the daemon has not kept
                        // pace (or is disabled): replenish inline.
                        let name = self.reserve_name();
                        let file = self.build_staging_file(name)?;
                        self.index.write().insert(file.ino, lane_idx);
                        self.created_inline.fetch_add(1, Ordering::Relaxed);
                        self.device.stats().add_staging_inline_create();
                        obs::event(obs::SpanEvent::InlineCreate);
                        file
                    }
                };
                inner = self.lock_lane(lane_idx);
                inner.files.push(file);
                lane.refresh_unconsumed(&inner);
                self.refresh_pressure(lane_idx);
                continue;
            }
            let active = inner.active;
            let file = &mut inner.files[active];
            // The cursor sits on a block boundary: the block is this
            // taker's alone, entered at the requested phase.
            let start = file.cursor + phase;
            if start >= file.size {
                inner.active += 1;
                lane.refresh_unconsumed(&inner);
                self.refresh_pressure(lane_idx);
                continue;
            }
            return file.allocate(start, len, file.size);
        }
    }

    /// The carve branch of [`StagingPool::take`]: continues, at `end`, the
    /// staged extent that ends there inside a block of staging file `ino`.
    /// The rest of that block is the extent's file's and nobody else's, so
    /// the allocation stops at the block end — unless that block end still
    /// is the file's cursor (nobody took since: every single-writer run),
    /// in which case it runs on like one contiguous cursor bump.  `None`
    /// when the lane does not hold the file or its mapping has a hole
    /// there; the caller then takes a fresh block.
    #[inline(never)]
    fn carve(inner: &mut LaneInner, ino: u64, end: u64, len: u64) -> Option<StagingAllocation> {
        let file = inner.files.iter_mut().find(|f| f.ino == ino)?;
        let block_end = end.next_multiple_of(BLOCK);
        let limit = if file.cursor == block_end {
            file.size
        } else {
            block_end.min(file.size)
        };
        if end >= limit {
            return None;
        }
        file.allocate(end, len, limit).ok()
    }

    /// Finds the lane currently holding the staging file `ino` and runs
    /// `f` on its locked inner state (membership is verified under the
    /// lane's lock), returning the lane index alongside `f`'s result.
    /// The indexed lane is probed first, with a full scan as fallback —
    /// the index can be transiently stale while a file is mid-steal or
    /// in recycle limbo.  The single resolution path shared by every
    /// by-inode lookup (`note_retired`/`translate`/`fd_for`/`lane_of`),
    /// so the staleness rule cannot diverge between them.
    fn with_file_lane<R>(
        &self,
        ino: u64,
        mut f: impl FnMut(&mut LaneInner) -> R,
    ) -> Option<(usize, R)> {
        // Copy the indexed lane out so the pool-wide index read guard is
        // released *before* the lane mutex is acquired — blocking on a
        // busy lane while pinning the index would stall every writer of
        // the index (provisioning, steals, recycles) pool-wide.
        let indexed = self.index.read().get(&ino).copied();
        if let Some(lane_idx) = indexed {
            let mut inner = self.lanes[lane_idx].inner.lock();
            if inner.files.iter().any(|file| file.ino == ino) {
                return Some((lane_idx, f(&mut inner)));
            }
        }
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let mut inner = lane.inner.lock();
            if inner.files.iter().any(|file| file.ino == ino) {
                return Some((lane_idx, f(&mut inner)));
            }
        }
        None
    }

    /// Records that `len` bytes staged in `staging_ino` were retired
    /// (relinked or copied into its target).  Feeds the recyclability
    /// accounting: an exhausted file whose retired bytes catch up with
    /// its consumed bytes can be recycled.
    pub fn note_retired(&self, staging_ino: u64, len: u64) {
        self.with_file_lane(staging_ino, |inner| {
            if let Some(file) = inner.files.iter_mut().find(|f| f.ino == staging_ino) {
                file.retired = (file.retired + len).min(file.consumed);
            }
        });
    }

    /// Takes one recyclable staging file out of the pool: a file some
    /// lane's cursor has moved past (no future `take` touches it) whose
    /// staged bytes were all retired.  The caller appends the durable
    /// `StagingRecycle` log marker, then calls [`StagingPool::rebuild`]
    /// (or [`StagingPool::abort_recycle`] on failure).
    pub fn begin_recycle(&self) -> Option<RecycledFile> {
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            // `try_lock`: a lane busy serving takes is skipped this pass —
            // holding its lock here would put the recycler's sweep on the
            // foreground append path's critical section.
            let Some(mut inner) = lane.inner.try_lock() else {
                continue;
            };
            let Some(idx) = inner.files[..inner.active]
                .iter()
                .position(|f| f.consumed > 0 && f.retired >= f.consumed)
            else {
                continue;
            };
            let file = inner.files.remove(idx);
            inner.active -= 1;
            lane.refresh_unconsumed(&inner);
            self.refresh_pressure(lane_idx);
            return Some(RecycledFile {
                file,
                lane: lane_idx,
            });
        }
        None
    }

    /// Re-provisions a recycled file: frees its remaining blocks,
    /// pre-allocates fresh ones, remaps it and returns it to **its own
    /// lane's** unconsumed tail (so recycling never migrates capacity
    /// between lanes).
    pub fn rebuild(&self, rec: RecycledFile) -> FsResult<()> {
        let RecycledFile {
            file,
            lane: lane_idx,
        } = rec;
        // Free whatever blocks the relinks left behind (padding, copied
        // spans), then pre-allocate the full size again.
        let rebuild = (|| -> FsResult<DaxMapping> {
            self.kernel.ftruncate(file.fd, 0)?;
            self.kernel.ftruncate(file.fd, file.size)?;
            self.kernel.dax_map(file.fd, 0, file.size, MAP_POPULATE)
        })();
        let mapping = match rebuild {
            Ok(mapping) => mapping,
            Err(e) => {
                // The file is dropped from the pool; forget its lane.
                self.index.write().remove(&file.ino);
                return Err(e);
            }
        };
        self.index.write().insert(file.ino, lane_idx);
        let lane = &self.lanes[lane_idx];
        let mut inner = lane.inner.lock();
        inner.files.push(StagingFile {
            fd: file.fd,
            ino: file.ino,
            mapping,
            cursor: 0,
            size: file.size,
            consumed: 0,
            retired: 0,
        });
        lane.refresh_unconsumed(&inner);
        drop(inner);
        self.refresh_pressure(lane_idx);
        self.device.stats().add_staging_recycle();
        Ok(())
    }

    /// Puts a file taken by [`StagingPool::begin_recycle`] back untouched
    /// in its lane (the recycle marker could not be made durable).
    pub fn abort_recycle(&self, rec: RecycledFile) {
        let lane_idx = rec.lane;
        let lane = &self.lanes[lane_idx];
        let mut inner = lane.inner.lock();
        // Re-insert before the active index: the file is exhausted.
        inner.files.insert(0, rec.file);
        inner.active += 1;
        lane.refresh_unconsumed(&inner);
        drop(inner);
        self.refresh_pressure(lane_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::Mode;
    use pmem::PmemBuilder;

    fn setup_with(config: SplitConfig) -> (Arc<PmemDevice>, Arc<Ext4Dax>, StagingPool) {
        let device = PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let pool = StagingPool::new(
            Arc::clone(&kernel),
            Arc::clone(&device),
            "/.splitfs",
            &config,
        )
        .unwrap();
        (device, kernel, pool)
    }

    fn setup() -> (Arc<PmemDevice>, Arc<Ext4Dax>, StagingPool) {
        setup_with(SplitConfig::new(Mode::Posix).with_staging(2, 4 * 1024 * 1024))
    }

    #[test]
    fn pool_preallocates_staging_files() {
        let (_d, kernel, pool) = setup();
        assert_eq!(pool.files_created(), 2);
        assert_eq!(pool.files_created_preallocated(), 2);
        assert_eq!(pool.files_created_inline(), 0);
        assert_eq!(pool.unconsumed_files(), 2);
        let entries = kernel.readdir("/.splitfs").unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&"stage-0".to_string()));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (_d, _k, pool) = setup();
        let a = pool.take(4096, 0, None).unwrap();
        let b = pool.take(4096, 0, None).unwrap();
        assert_ne!(a.device_offset, b.device_offset);
        assert!(a.staging_offset + a.len <= b.staging_offset || a.staging_ino != b.staging_ino);
    }

    #[test]
    fn phase_alignment_is_respected() {
        let (_d, _k, pool) = setup();
        let a = pool.take(1000, 100, None).unwrap();
        assert_eq!(a.staging_offset % BLOCK_SIZE as u64, 100);
        let b = pool.take(4096, 0, None).unwrap();
        assert_eq!(b.staging_offset % BLOCK_SIZE as u64, 0);
    }

    #[test]
    fn exhausting_preallocated_files_replenishes_inline() {
        let (device, _k, pool) = setup();
        // 2 files x 4 MiB; take 3 MiB chunks until we exceed the initial
        // capacity and force an inline replenish.
        let mut taken = 0u64;
        while taken < 10 * 1024 * 1024 {
            let a = pool.take(3 * 1024 * 1024, 0, None).unwrap();
            assert!(a.len > 0);
            taken += a.len;
        }
        assert!(pool.files_created() > 2);
        assert!(
            pool.files_created_inline() > 0,
            "emergency creations are attributed to the inline counter"
        );
        assert_eq!(pool.files_created_background(), 0);
        assert_eq!(
            device.stats().snapshot().staging_inline_creates,
            pool.files_created_inline(),
            "device-wide statistic mirrors the pool counter"
        );
    }

    #[test]
    fn background_provisioning_prevents_inline_creation() {
        let config = SplitConfig::new(Mode::Posix)
            .with_staging(2, 4 * 1024 * 1024)
            .with_staging_watermarks(2, 4);
        let (device, _k, pool) = setup_with(config);
        // Drain most of the pre-allocated capacity, then provision like the
        // daemon would before the pool runs dry.
        let mut taken = 0u64;
        while taken < 7 * 1024 * 1024 {
            taken += pool.take(1024 * 1024, 0, None).unwrap().len;
        }
        assert!(pool.needs_provisioning());
        pool.provision_lane(0).unwrap();
        pool.provision_lane(0).unwrap();
        assert!(!pool.needs_provisioning());
        while taken < 14 * 1024 * 1024 {
            taken += pool.take(1024 * 1024, 0, None).unwrap().len;
        }
        assert_eq!(pool.files_created_inline(), 0);
        assert_eq!(pool.files_created_background(), 2);
        assert_eq!(device.stats().snapshot().staging_bg_creates, 2);
        assert_eq!(device.stats().snapshot().staging_inline_creates, 0);
    }

    #[test]
    fn reserve_name_is_lock_free_and_monotonic_under_concurrency() {
        let (_d, _k, pool) = setup();
        // Names 0 and 1 were consumed by the pre-allocated pool.
        let names = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let names = &names;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..256 {
                        mine.push(pool.reserve_name());
                    }
                    names.lock().unwrap().extend(mine);
                });
            }
        });
        let mut names = names.into_inner().unwrap();
        assert_eq!(names.len(), 1024);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 1024, "duplicate staging-file names");
        assert_eq!(*names.first().unwrap(), 2);
        assert_eq!(*names.last().unwrap(), 2 + 1024 - 1);
    }

    #[test]
    fn lanes_follow_the_configured_count_and_distribute_files() {
        let config = SplitConfig::new(Mode::Posix)
            .with_staging(8, 4 * 1024 * 1024)
            .with_staging_lanes(4);
        let (_d, _k, pool) = setup_with(config);
        assert_eq!(pool.lane_count(), 4);
        for i in 0..4 {
            assert_eq!(pool.lane_unconsumed(i), 2, "round-robin distribution");
        }
    }

    #[test]
    fn lane_exhaustion_steals_from_the_longest_free_list_before_inline() {
        let config = SplitConfig::new(Mode::Posix)
            .with_staging(4, 4 * 1024 * 1024)
            .with_staging_lanes(2);
        let (device, _k, pool) = setup_with(config);
        let my_lane = pool.lane_for_current_thread();
        let other = 1 - my_lane;
        assert_eq!(pool.lane_unconsumed(my_lane), 2);
        // Drain the home lane's two files plus more: the third and fourth
        // files must come from the other lane (steals), and only then may
        // an inline creation happen.
        let mut taken = 0u64;
        while taken < 15 * 1024 * 1024 {
            taken += pool.take(4 * 1024 * 1024, 0, None).unwrap().len;
        }
        let s = device.stats().snapshot();
        assert_eq!(s.staging_lane_steals, 2, "both spare files were stolen");
        assert_eq!(
            pool.files_created_inline(),
            0,
            "no inline creation while another lane had spares"
        );
        assert_eq!(pool.lane_unconsumed(other), 0);
        // One more full file's worth now requires an inline creation.
        while taken < 17 * 1024 * 1024 {
            taken += pool.take(4 * 1024 * 1024, 0, None).unwrap().len;
        }
        assert!(pool.files_created_inline() > 0);
    }

    #[test]
    fn takes_from_distinct_threads_route_to_distinct_lanes() {
        let config = SplitConfig::new(Mode::Posix)
            .with_staging(8, 4 * 1024 * 1024)
            .with_staging_lanes(4);
        let (device, _k, pool) = setup_with(config);
        let lanes = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let lanes = &lanes;
                scope.spawn(move || {
                    for _ in 0..64 {
                        pool.take(4096, 0, None).unwrap();
                    }
                    lanes.lock().unwrap().push(pool.lane_for_current_thread());
                });
            }
        });
        let mut lanes = lanes.into_inner().unwrap();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![0, 1, 2, 3], "four writers, four distinct lanes");
        assert_eq!(
            device.stats().snapshot().staging_lock_waits,
            0,
            "disjoint lanes never contend"
        );
    }

    /// One appending file as `stage_batch` sees it: every write continues
    /// the file's latest staged chunk.
    #[derive(Default)]
    struct Appender {
        /// Target offset of the next write.
        cur: u64,
        /// `(staging inode, staging end offset)` of the latest chunk.
        last: Option<(u64, u64)>,
        chunks: Vec<StagingAllocation>,
    }

    impl Appender {
        fn at(cur: u64) -> Self {
            Self {
                cur,
                ..Self::default()
            }
        }

        fn write(&mut self, pool: &StagingPool, len: u64) {
            let mut left = len;
            while left > 0 {
                let a = pool.take(left, self.cur % BLOCK, self.last).unwrap();
                assert!(a.len > 0 && a.len <= left);
                assert_eq!(a.staging_offset % BLOCK, self.cur % BLOCK, "phase");
                self.last = Some((a.staging_ino, a.staging_offset + a.len));
                self.cur += a.len;
                left -= a.len;
                self.chunks.push(a);
            }
        }

        /// The writer's chunks as `(staging file, offset, len)`, files
        /// numbered in the order they were first used.
        fn sequence(&self) -> Vec<(usize, u64, u64)> {
            let mut files = Vec::new();
            self.chunks
                .iter()
                .map(|a| {
                    if !files.contains(&a.staging_ino) {
                        files.push(a.staging_ino);
                    }
                    let file = files.iter().position(|&f| f == a.staging_ino).unwrap();
                    (file, a.staging_offset, a.len)
                })
                .collect()
        }

        /// Every `(staging file, block)` the writer's chunks touch.
        fn blocks(&self) -> std::collections::HashSet<(u64, u64)> {
            self.chunks
                .iter()
                .flat_map(|a| {
                    let blocks =
                        a.staging_offset / BLOCK..(a.staging_offset + a.len).div_ceil(BLOCK);
                    blocks.map(|b| (a.staging_ino, b))
                })
                .collect()
        }
    }

    #[test]
    fn interleaved_takers_never_share_a_block() {
        let (_d, _k, pool) = setup();
        let mut writers = [Appender::at(0), Appender::at(1024), Appender::at(2048)];
        for round in 0..40u64 {
            for (w, writer) in writers.iter_mut().enumerate() {
                // Sub-block, block-straddling and multi-block sizes.
                writer.write(&pool, [1024, 300, 5000, 4096, 1][(round as usize + w) % 5]);
            }
        }
        let [a, b, c] = writers.each_ref().map(Appender::blocks);
        assert!(a.is_disjoint(&b) && a.is_disjoint(&c) && b.is_disjoint(&c));
        // Each writer filled the blocks it was given: its chunks are
        // contiguous wherever the next one started inside a block.
        for writer in &writers {
            for pair in writer.chunks.windows(2) {
                let end = pair[0].staging_offset + pair[0].len;
                if end % BLOCK != 0 {
                    assert_eq!(
                        (pair[1].staging_ino, pair[1].staging_offset),
                        (pair[0].staging_ino, end)
                    );
                }
            }
        }
    }

    #[test]
    fn a_tail_is_never_handed_to_a_second_taker() {
        let (_d, _k, pool) = setup();
        let mut owner = Appender::at(0);
        owner.write(&pool, 1024);
        let owned = owner.chunks[0];
        // Phase 1024 would fit right behind the owner's kilobyte; a taker
        // that does not continue it gets a block of its own all the same.
        let other = pool.take(1024, 1024, None).unwrap();
        assert_eq!(other.staging_offset, BLOCK + 1024);
        // So does one that names a predecessor its phase does not match.
        let stranger = pool
            .take(1024, 2048, Some((owned.staging_ino, 1024)))
            .unwrap();
        assert_eq!(stranger.staging_offset, 2 * BLOCK + 2048);
        // The owner still finds its tail where it left it.
        owner.write(&pool, 1024);
        assert_eq!(owner.sequence(), vec![(0, 0, 1024), (0, 1024, 1024)]);
    }

    #[test]
    fn a_continuation_passes_the_block_end_only_while_the_cursor_has_not_moved() {
        let (_d, _k, pool) = setup();
        let mut alone = Appender::at(0);
        alone.write(&pool, 1024);
        alone.write(&pool, 8192);
        assert_eq!(
            alone.sequence(),
            vec![(0, 0, 1024), (0, 1024, 8192)],
            "nobody took in between: one allocation across two block ends"
        );

        let mut crowded = Appender::at(0);
        crowded.write(&pool, 1024);
        let first = crowded.chunks[0].staging_offset;
        let other = pool.take(4096, 0, None).unwrap();
        assert_eq!(other.staging_offset, first + BLOCK);
        crowded.write(&pool, 8192);
        assert_eq!(
            crowded.sequence(),
            vec![
                (0, first, 1024),
                (0, first + 1024, 3072),
                (0, first + 2 * BLOCK, 5120)
            ],
            "the tail ends at its block; the rest is a fresh block past the other taker's"
        );
    }

    #[test]
    fn a_lone_writer_gets_the_cursor_bump_sequence_it_always_got() {
        // The sequences `take` produced before staging blocks had owners
        // (dumped from that pool): a lone appender's chunks are one cursor
        // bump after another, split only at the end of a staging file.
        let lone = |sizes: &[u64]| {
            let (_d, _k, pool) =
                setup_with(SplitConfig::new(Mode::Posix).with_staging(2, 2 * 1024 * 1024));
            let mut writer = Appender::default();
            for &len in sizes {
                writer.write(&pool, len);
            }
            writer.sequence()
        };
        assert_eq!(
            lone(&[4096; 6]),
            (0..6).map(|i| (0, i * 4096, 4096)).collect::<Vec<_>>()
        );
        assert_eq!(
            lone(&[300; 30]),
            (0..30).map(|i| (0, i * 300, 300)).collect::<Vec<_>>()
        );
        assert_eq!(
            lone(&[
                1, 4095, 300, 9000, 4096, 100, 5000, 2_000_000, 70_000, 7, 300, 4096, 50_000, 8192,
                1024, 1024, 2000
            ]),
            vec![
                (0, 0, 1),
                (0, 1, 4095),
                (0, 4096, 300),
                (0, 4396, 9000),
                (0, 13396, 4096),
                (0, 17492, 100),
                (0, 17592, 5000),
                (0, 22592, 2_000_000),
                (0, 2_022_592, 70_000),
                (0, 2_092_592, 7),
                (0, 2_092_599, 300),
                (0, 2_092_899, 4096),
                (0, 2_096_995, 157),
                (1, 0, 49_843),
                (1, 49_843, 8192),
                (1, 58_035, 1024),
                (1, 59_059, 1024),
                (1, 60_083, 2000),
            ]
        );
    }

    #[test]
    fn a_live_tail_keeps_its_staging_file_from_recycle_and_carves_count_as_consumed() {
        let (_d, _k, pool) =
            setup_with(SplitConfig::new(Mode::Posix).with_staging(2, 2 * 1024 * 1024));
        let mut owner = Appender::at(0);
        owner.write(&pool, 1024);
        let file = owner.chunks[0].staging_ino;
        // Another writer uses up the rest of the file and moves on to the
        // next one; everything it staged is retired.
        let mut other = Appender::at(0);
        while other.last.is_none_or(|(ino, _)| ino == file) {
            other.write(&pool, 256 * 1024);
        }
        for chunk in other.chunks.iter().filter(|a| a.staging_ino == file) {
            pool.note_retired(file, chunk.len);
        }
        assert!(
            pool.begin_recycle().is_none(),
            "the owner's kilobyte is unretired: its tail is live"
        );
        // The owner carves from the exhausted file; the carve is counted.
        owner.write(&pool, 2048);
        assert_eq!(owner.sequence(), vec![(0, 0, 1024), (0, 1024, 2048)]);
        pool.note_retired(file, 1024);
        assert!(
            pool.begin_recycle().is_none(),
            "retiring the first extent alone does not cover the carved bytes"
        );
        // The owner's extents retire (its `relink_batch`): the tail is dead.
        pool.note_retired(file, 2048);
        let recycled = pool.begin_recycle().expect("fully retired and exhausted");
        assert_eq!(recycled.ino(), file);
        pool.abort_recycle(recycled);
    }
}
