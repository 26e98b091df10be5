//! Staging files (paper §3.3, "Staging").
//!
//! Appends — and, in strict mode, overwrites — are first written to
//! pre-allocated, pre-mapped *staging files* and only attached to their
//! target file at the next `fsync`/`close` via relink.  The pool
//! pre-allocates a configurable number of staging files at startup
//! (`SplitConfig::staging_files` × `staging_file_size`) so that taking
//! staging space in the write path is a cheap cursor bump.
//!
//! **The active staging file and the one after it are mapped.**  Mapping
//! a file populates its page tables (a 2 MiB fault per chunk), so a start
//! maps only those two and leaves the rest of the pool allocated but
//! unmapped; the file after the active one is the *spare*.  When the
//! active file is used up and the spare takes its place, the new spare is
//! missing or unmapped, and the [maintenance daemon](crate::daemon) maps
//! it — or builds one when the pool has no file left — off the critical
//! path ([`StagingPool::prepare_spare`]).  A take that reaches an unmapped
//! active file (the daemon is off, or lagging) maps it inline.
//!
//! The pool is one list of files — the active one, its cursor and the
//! unconsumed files behind it — under one lock.  A `take` that finds the
//! lock held, by the daemon or by another writer, is counted in the
//! `staging_lock_waits` statistic.
//!
//! **A staging block belongs to one file.**  The cursor only ever rests
//! on a block boundary: a fresh take enters the block there at the
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
//! a carve: the carve runs under the pool lock and is counted into
//! `consumed`, and the extent that owns the tail is unretired for as long
//! as the tail is live, so [`StagingPool::begin_recycle`]'s
//! `retired >= consumed` cannot hold for that file.  A lone writer sees
//! the offsets it always saw: while nobody else has taken, its tail's
//! block end still *is* the cursor, and the continuation then runs past
//! the block end as one allocation — the old contiguous cursor bump.
//!
//! Each U-Split instance owns one pool, rooted in the staging directory
//! its instance id names ([`kernelfs::lease::staging_dir`]) — the
//! instance's exclusive slice of the machine-wide staging resources.  Two
//! concurrent instances therefore never hand out overlapping staging
//! space, and recovery can attribute every staging file to its owner.
//! On mount the pool **adopts** the staging files a previous incarnation
//! left in the directory as they stand: an intact file resumes at zero,
//! and one whose relinks left holes resumes at the first 2 MiB boundary
//! past its last hole ([`StagingPool::new`]).  Only a file with no 2 MiB
//! left there is truncated and re-allocated.  Nothing before a resume
//! point is needed, because the instance's operation log is always
//! replayed and retired before the pool is built.  Leftovers beyond the
//! configured pool size are truncated so their blocks return to the
//! allocator.  Every map of a staging file covers `[cursor, size)` only.
//!
//! When the pool runs dry, a [`StagingPool::take`] creates a file
//! **inline** on the foreground write path.  Inline creations are
//! counted in the device-wide `staging_inline_creates` statistic so
//! experiments can verify the daemon eliminates them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use kernelfs::{DaxMapping, Ext4Dax, BLOCK_SIZE};
use pmem::{PmemDevice, SimClock, PAGE_2M};
use vfs::{Fd, FileSystem, FsError, FsResult, OpenFlags};

use crate::config::SplitConfig;
use crate::mmap_collection::MAP_POPULATE;

const BLOCK: u64 = BLOCK_SIZE as u64;
/// A huge page: staging maps start on this boundary.
const HUGE: u64 = PAGE_2M as u64;

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
    /// `None` until the file is the spare or the active one (see the
    /// module doc).
    mapping: Option<DaxMapping>,
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
            .as_ref()
            .and_then(|m| m.translate(start))
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

/// The staging files' descriptors go with the pool, as they would at
/// process exit.
impl Drop for StagingPool {
    fn drop(&mut self) {
        for file in &self.inner.get_mut().files {
            let _ = self.kernel.release(file.fd);
        }
    }
}

/// A staging file pulled out of the pool for recycling (see
/// [`StagingPool::begin_recycle`]).
#[derive(Debug)]
pub struct RecycledFile {
    file: StagingFile,
}

impl RecycledFile {
    /// Inode of the file being recycled.
    pub fn ino(&self) -> u64 {
        self.file.ino
    }
}

/// What the pool lock guards.
#[derive(Debug, Default)]
struct PoolInner {
    files: Vec<StagingFile>,
    /// Index of the staging file allocations are currently served from.
    active: usize,
}

/// The pool of staging files owned by one U-Split instance.
#[derive(Debug)]
pub struct StagingPool {
    kernel: Arc<Ext4Dax>,
    device: Arc<PmemDevice>,
    dir: String,
    file_size: u64,
    inner: Mutex<PoolInner>,
    /// Whether the file after the active one exists and is mapped,
    /// readable without the pool lock: the append path's provisioning
    /// check and the daemon read it.
    spare_ready: AtomicBool,
    /// Name counter for `stage-N` paths — lock-free, so reserving a name
    /// (the daemon's background-build path and inline creation) never
    /// touches the pool lock.
    next_name: AtomicU64,
}

impl StagingPool {
    /// Creates the pool, pre-allocating `config.staging_files` staging
    /// files (at least one) under `dir` (created if missing) on the kernel
    /// file system, and mapping the first two: the active file and its
    /// spare, each from its cursor.  Staging files left behind by a
    /// previous incarnation of this instance are adopted in name order, as
    /// they stand: an intact file resumes at 0 and a holed one at the
    /// first 2 MiB boundary past its last hole, with no journal
    /// transaction; only a file with no 2 MiB left there, or of another
    /// size, is truncated and re-allocated.  Leftovers beyond the
    /// configured pool size are truncated so their blocks are reclaimed.
    pub fn new(
        kernel: Arc<Ext4Dax>,
        device: Arc<PmemDevice>,
        dir: &str,
        config: &SplitConfig,
    ) -> FsResult<Self> {
        if !kernel.exists(dir) {
            kernel.mkdir(dir)?;
        }
        let pool = Self {
            kernel,
            device,
            dir: dir.to_string(),
            file_size: config.staging_file_size,
            inner: Mutex::new(PoolInner::default()),
            spare_ready: AtomicBool::new(false),
            next_name: AtomicU64::new(0),
        };

        // Names a previous incarnation left behind, in numeric order: the
        // initial pool adopts them first so their blocks are reused
        // instead of leaking alongside fresh allocations.
        let mut existing: Vec<u64> = pool
            .kernel
            .readdir(dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|name| name.strip_prefix("stage-").and_then(|n| n.parse().ok()))
            .collect();
        existing.sort_unstable();

        let initial = config.staging_files.max(1);
        for i in 0..initial {
            let file = match existing.get(i) {
                Some(&name) => {
                    pool.next_name.fetch_max(name + 1, Ordering::Relaxed);
                    pool.adopt_staging_file(name, i < 2)?
                }
                None => pool.build_staging_file(pool.reserve_name(), i < 2)?,
            };
            pool.push(file);
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

    /// Refreshes the lock-free spare-ready mirror; call with the pool lock
    /// held after any change to `files`, `active` or a mapping.
    fn refresh_spare(&self, inner: &PoolInner) {
        let ready = inner
            .files
            .get(inner.active + 1)
            .is_some_and(|f| f.mapping.is_some());
        self.spare_ready.store(ready, Ordering::Relaxed);
    }

    /// Appends `file` to the unconsumed tail of the pool.
    fn push(&self, file: StagingFile) {
        let mut inner = self.inner.lock();
        inner.files.push(file);
        self.refresh_spare(&inner);
    }

    /// Whether the pool currently holds the staging file with inode `ino`
    /// (exposed for recycle-correctness tests).
    pub fn holds(&self, ino: u64) -> bool {
        self.inner.lock().files.iter().any(|f| f.ino == ino)
    }

    /// Acquires the pool lock for `take` with contention accounting:
    /// `try_lock` first; on failure the contended acquisition is counted
    /// in the device-wide `staging_lock_waits` statistic and the blocked
    /// time is charged to the waiting thread's simulated critical path.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.device.stats().add_staging_lock_wait();
                let t0 = self.device.clock().now_ns_f64();
                let guard = self.inner.lock();
                SimClock::charge_thread_wait(self.device.clock().now_ns_f64() - t0);
                guard
            }
        }
    }

    /// Maps `[from, size)` of a pre-allocated staging file, populating its
    /// page tables up front.  `from` is the file's cursor, a 2 MiB boundary,
    /// so every chunk is one huge-page fault.
    fn map(&self, fd: Fd, from: u64) -> FsResult<DaxMapping> {
        self.kernel
            .dax_map(fd, from, self.file_size - from, MAP_POPULATE)
    }

    /// Frees every block of a staging file and pre-allocates the whole file
    /// again, so appends never allocate in the critical path.
    fn reallocate(&self, fd: Fd) -> FsResult<()> {
        self.kernel.ftruncate(fd, 0)?;
        self.kernel.ftruncate(fd, self.file_size)
    }

    /// Creates and pre-allocates one fresh staging file, and maps it if
    /// `map`.  Deliberately does **not** hold the pool lock: file creation
    /// goes through the kernel file system and is the expensive part, so
    /// builders (the daemon, or an unlucky foreground thread) must not
    /// block concurrent `take`s.
    fn build_staging_file(&self, name: u64, map: bool) -> FsResult<StagingFile> {
        let path = format!("{}/stage-{}", self.dir, name);
        let fd = self.kernel.open(&path, OpenFlags::create())?;
        self.ready(fd, map, || {
            self.kernel.ftruncate(fd, self.file_size).map(|()| 0)
        })
    }

    /// Adopts `stage-{name}`, which a previous incarnation of this instance
    /// left behind, as it stands: it resumes at its
    /// [resume point](Self::resume_point), or is rebuilt like a recycled
    /// file when it has none.  Maps it from its cursor if `map`.
    fn adopt_staging_file(&self, name: u64, map: bool) -> FsResult<StagingFile> {
        let path = format!("{}/stage-{}", self.dir, name);
        let fd = self.kernel.open(&path, OpenFlags::read_write())?;
        self.ready(fd, map, || match self.resume_point(fd)? {
            Some(at) => Ok(at),
            None => self.reallocate(fd).map(|()| 0),
        })
    }

    /// Readies the staging file open at `fd`: `blocks` sees to its blocks
    /// and returns its cursor, and the file is mapped from there if `map`.
    /// The descriptor is closed on every failure path, or the file would
    /// stay an open orphan once the staging directory is emptied.
    fn ready(
        &self,
        fd: Fd,
        map: bool,
        blocks: impl FnOnce() -> FsResult<u64>,
    ) -> FsResult<StagingFile> {
        let (cursor, mapping, ino) = (|| -> FsResult<_> {
            let cursor = blocks()?;
            let mapping = map.then(|| self.map(fd, cursor)).transpose()?;
            Ok((cursor, mapping, self.kernel.fd_ino(fd)?))
        })()
        .inspect_err(|_| {
            let _ = self.kernel.close(fd);
        })?;
        Ok(StagingFile {
            fd,
            ino,
            mapping,
            cursor,
            size: self.file_size,
            consumed: 0,
            retired: 0,
        })
    }

    /// Where an adopted staging file resumes, or `None` if it must be
    /// rebuilt.  An intact file (the configured size, every block mapped,
    /// as the `fstat` shows) resumes at 0.  Otherwise one `mapped_runs`
    /// call finds its last run; if that reaches the end of the file, the
    /// file resumes at the run's first 2 MiB boundary, as long as 2 MiB is
    /// left there.  Nothing needs the bytes before it: the instance's log
    /// is replayed and retired before the pool is built, and the blocks
    /// relinks left there are freed at the file's next recycle.
    fn resume_point(&self, fd: Fd) -> FsResult<Option<u64>> {
        let stat = self.kernel.fstat(fd)?;
        if stat.size != self.file_size {
            return Ok(None);
        }
        if stat.blocks * BLOCK == self.file_size {
            return Ok(Some(0));
        }
        let (_, runs) = self.kernel.mapped_runs(fd)?;
        let at = runs
            .last()
            .filter(|&&(first, len)| (first + len) * BLOCK == self.file_size)
            .map(|&(first, _)| (first * BLOCK).next_multiple_of(HUGE))
            .filter(|&at| at + HUGE <= self.file_size);
        if at.is_some() {
            self.device.stats().add_staging_resume();
        }
        Ok(at)
    }

    /// Builds and maps one more staging file and appends it to the pool's
    /// unconsumed tail (the maintenance daemon's build when the pool has no
    /// file after the active one).
    pub fn provision(&self) -> FsResult<()> {
        let name = self.reserve_name();
        let file = self.build_staging_file(name, true)?;
        self.push(file);
        self.device.stats().add_staging_bg_create();
        Ok(())
    }

    /// Makes the spare ready (called by the maintenance daemon): maps the
    /// file after the active one, or builds one when the pool has none.
    /// The map runs without the pool lock; a take that made the file
    /// active meanwhile has mapped it inline, and the daemon's mapping is
    /// dropped.  The daemon is the only recycler, so the file cannot have
    /// been rebuilt under the mapping in between.
    pub fn prepare_spare(&self) -> FsResult<()> {
        loop {
            let spare = {
                let inner = self.inner.lock();
                match inner.files.get(inner.active + 1) {
                    Some(f) if f.mapping.is_some() => return Ok(()),
                    spare => spare.map(|f| (f.fd, f.ino, f.cursor)),
                }
            };
            let Some((fd, ino, cursor)) = spare else {
                self.provision()?;
                continue;
            };
            let mapping = self.map(fd, cursor)?;
            let mut inner = self.inner.lock();
            if let Some(file) = inner.files.iter_mut().find(|f| f.ino == ino) {
                file.mapping.get_or_insert(mapping);
            }
            self.refresh_spare(&inner);
        }
    }

    /// Number of staging files that still have unconsumed capacity (the
    /// active file plus every file after it).
    pub fn unconsumed_files(&self) -> usize {
        let inner = self.inner.lock();
        inner.files.len().saturating_sub(inner.active)
    }

    /// Whether the file after the active one is missing or unmapped, so
    /// the daemon should prepare it.  Lock-free.
    pub fn needs_provisioning(&self) -> bool {
        !self.spare_ready.load(Ordering::Relaxed)
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
    /// fresh block from the cursor.
    pub fn take(
        &self,
        len: u64,
        phase: u64,
        after: Option<(u64, u64)>,
    ) -> FsResult<StagingAllocation> {
        let cost = self.device.cost();
        self.device.charge_software(cost.usplit_staging_take_ns);
        let mut inner = self.lock();
        // A predecessor that ends on a block boundary (every 4 KiB append)
        // leaves no tail: two compares and on to the cursor.
        if let Some((ino, end)) = after.filter(|&(_, end)| phase != 0 && end % BLOCK == phase) {
            if let Some(out) = Self::carve(&mut inner, ino, end, len) {
                return Ok(out);
            }
        }
        loop {
            if inner.active >= inner.files.len() {
                // The pool is dry and the daemon has not kept pace (or is
                // disabled): replenish inline.  The lock is dropped while
                // the file is built so the daemon can still make progress.
                drop(inner);
                let name = self.reserve_name();
                let file = self.build_staging_file(name, true)?;
                self.device.stats().add_staging_inline_create();
                obs::event(obs::SpanEvent::InlineCreate);
                inner = self.lock();
                inner.files.push(file);
                self.refresh_spare(&inner);
                continue;
            }
            let active = inner.active;
            let file = &mut inner.files[active];
            // The cursor sits on a block boundary: the block is this
            // taker's alone, entered at the requested phase.
            let start = file.cursor + phase;
            if start >= file.size {
                inner.active += 1;
                self.refresh_spare(&inner);
                continue;
            }
            if file.mapping.is_none() {
                // The daemon is off or has not prepared this file yet: map
                // it inline.
                file.mapping = Some(self.map(file.fd, file.cursor)?);
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
    /// when the pool does not hold the file or its mapping has a hole
    /// there; the caller then takes a fresh block.
    #[inline(never)]
    fn carve(inner: &mut PoolInner, ino: u64, end: u64, len: u64) -> Option<StagingAllocation> {
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

    /// Records that the bytes of each `(staging inode, bytes)` in `retired`
    /// were retired (relinked, copied into their target or dropped), under
    /// one take of the pool lock; a run of entries from one staging file is
    /// summed into one update.  Feeds the recyclability accounting: an
    /// exhausted file whose retired bytes catch up with its consumed bytes
    /// can be recycled.
    pub fn note_retired(&self, retired: impl IntoIterator<Item = (u64, u64)>) {
        let mut retired = retired.into_iter().peekable();
        if retired.peek().is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        while let Some((ino, mut len)) = retired.next() {
            while let Some((_, more)) = retired.next_if(|&(next, _)| next == ino) {
                len += more;
            }
            if let Some(file) = inner.files.iter_mut().find(|f| f.ino == ino) {
                file.retired = (file.retired + len).min(file.consumed);
            }
        }
    }

    /// Takes one recyclable staging file out of the pool: a file the
    /// cursor has moved past (no future `take` touches it) whose staged
    /// bytes were all retired.  The caller appends the durable
    /// `StagingRecycle` log marker, then calls [`StagingPool::rebuild`]
    /// (or [`StagingPool::abort_recycle`] on failure).
    pub fn begin_recycle(&self) -> Option<RecycledFile> {
        // `try_lock`: a pool busy serving a take is skipped this pass —
        // holding its lock here would put the recycler's sweep on the
        // foreground append path's critical section.
        let mut inner = self.inner.try_lock()?;
        let idx = inner.files[..inner.active]
            .iter()
            .position(|f| f.consumed > 0 && f.retired >= f.consumed)?;
        let file = inner.files.remove(idx);
        inner.active -= 1;
        self.refresh_spare(&inner);
        Some(RecycledFile { file })
    }

    /// Re-provisions a recycled file: frees its remaining blocks,
    /// pre-allocates fresh ones and returns it, unmapped, to the pool's
    /// unconsumed tail; it is mapped when it becomes the spare.  On error
    /// the file is dropped from the pool.
    pub fn rebuild(&self, rec: RecycledFile) -> FsResult<()> {
        let file = rec.file;
        // Free whatever blocks the relinks left behind (padding, copied
        // spans), then pre-allocate the full size again.
        self.reallocate(file.fd)?;
        self.push(StagingFile {
            fd: file.fd,
            ino: file.ino,
            mapping: None,
            cursor: 0,
            size: file.size,
            consumed: 0,
            retired: 0,
        });
        self.device.stats().add_staging_recycle();
        Ok(())
    }

    /// Puts a file taken by [`StagingPool::begin_recycle`] back untouched
    /// (the recycle marker could not be made durable).
    pub fn abort_recycle(&self, rec: RecycledFile) {
        let mut inner = self.inner.lock();
        // Re-insert before the active index: the file is exhausted.
        inner.files.insert(0, rec.file);
        inner.active += 1;
        self.refresh_spare(&inner);
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
        let (device, kernel, pool) = setup();
        let snap = device.stats().snapshot();
        assert_eq!(
            (snap.staging_inline_creates, snap.staging_bg_creates),
            (0, 0)
        );
        assert_eq!(pool.unconsumed_files(), 2);
        let entries = kernel.readdir("/.splitfs").unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&"stage-0".to_string()));
    }

    #[test]
    fn only_the_active_file_and_its_spare_are_mapped() {
        let (device, kernel, pool) =
            setup_with(SplitConfig::new(Mode::Posix).with_staging(4, 2 * 1024 * 1024));
        assert_eq!(kernel.readdir("/.splitfs").unwrap().len(), 4);
        assert_eq!(device.stats().snapshot().huge_page_faults, 2);
        assert!(!pool.needs_provisioning(), "the spare is mapped");
        // Into the second file: its successor is the spare now, unmapped.
        let mut taken = 0u64;
        while taken <= 2 * 1024 * 1024 {
            taken += pool.take(1024 * 1024, 0, None).unwrap().len;
        }
        assert!(pool.needs_provisioning());
        pool.prepare_spare().unwrap();
        assert!(!pool.needs_provisioning());
        assert_eq!(device.stats().snapshot().huge_page_faults, 3);
        // Into the fourth file with no daemon: the third, now the spare, is
        // ready, and the take that reaches the unmapped fourth maps it
        // inline, which is not an inline create.
        while taken <= 6 * 1024 * 1024 {
            taken += pool.take(1024 * 1024, 0, None).unwrap().len;
        }
        let snap = device.stats().snapshot();
        assert_eq!(snap.huge_page_faults, 4);
        assert_eq!(
            (snap.staging_inline_creates, snap.staging_bg_creates),
            (0, 0)
        );
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
        let snap = device.stats().snapshot();
        assert!(
            snap.staging_inline_creates > 0,
            "emergency creations are attributed to the inline counter"
        );
        assert_eq!(snap.staging_bg_creates, 0);
    }

    #[test]
    fn background_provisioning_prevents_inline_creation() {
        let (device, _k, pool) =
            setup_with(SplitConfig::new(Mode::Posix).with_staging(2, 4 * 1024 * 1024));
        // Drain the pre-allocated capacity and beyond, preparing the spare
        // like the daemon would each time the active file moves on.
        let mut taken = 0u64;
        while taken < 14 * 1024 * 1024 {
            taken += pool.take(1024 * 1024, 0, None).unwrap().len;
            if pool.needs_provisioning() {
                pool.prepare_spare().unwrap();
            }
        }
        assert!(!pool.needs_provisioning());
        let snap = device.stats().snapshot();
        assert_eq!(snap.staging_inline_creates, 0);
        assert_eq!(snap.staging_bg_creates, 3);
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
    fn concurrent_takes_hand_out_each_staging_block_once() {
        // One 2 MiB file (512 blocks) and 4 × 64 takes that need 576
        // blocks between them: the pool runs dry mid-run, and takers build
        // files inline, with the pool lock dropped, while the others race.
        let (device, _k, pool) =
            setup_with(SplitConfig::new(Mode::Posix).with_staging(1, 2 * 1024 * 1024));
        let taken = std::sync::Mutex::new(Vec::new());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = &pool;
                let taken = &taken;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut mine = Vec::new();
                    for i in 0..64u64 {
                        let len = [4096, 9000, 1024, 13_000][i as usize % 4];
                        let phase = (i % 4) * 1024;
                        let a = pool.take(len, phase, None).unwrap();
                        assert!(a.len > 0 && a.len <= len);
                        assert_eq!(a.staging_offset % BLOCK, phase, "phase");
                        mine.push(a);
                    }
                    taken.lock().unwrap().extend(mine);
                });
            }
        });
        let taken = taken.into_inner().unwrap();
        assert_eq!(taken.len(), 256);
        let mut blocks = std::collections::HashSet::new();
        for a in &taken {
            for block in a.staging_offset / BLOCK..(a.staging_offset + a.len).div_ceil(BLOCK) {
                assert!(
                    blocks.insert((a.staging_ino, block)),
                    "staging block {block} of ino {} handed out twice",
                    a.staging_ino
                );
            }
        }
        assert!(
            device.stats().snapshot().staging_inline_creates >= 1,
            "the pool ran dry"
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
            pool.note_retired([(file, chunk.len)]);
        }
        assert!(
            pool.begin_recycle().is_none(),
            "the owner's kilobyte is unretired: its tail is live"
        );
        // The owner carves from the exhausted file; the carve is counted.
        owner.write(&pool, 2048);
        assert_eq!(owner.sequence(), vec![(0, 0, 1024), (0, 1024, 2048)]);
        pool.note_retired([(file, 1024)]);
        assert!(
            pool.begin_recycle().is_none(),
            "retiring the first extent alone does not cover the carved bytes"
        );
        // The owner's extents retire (its `relink_batch`): the tail is dead.
        pool.note_retired([(file, 2048)]);
        let recycled = pool.begin_recycle().expect("fully retired and exhausted");
        assert_eq!(recycled.ino(), file);
        pool.abort_recycle(recycled);
    }
}
