//! Time and write-volume accounting.
//!
//! The SplitFS paper's central metric is *software overhead*: the time a
//! file-system operation takes minus the time spent actually reading or
//! writing the user's data on the PM device (§5.7).  To compute this the
//! device and the file systems classify every charge into a
//! [`TimeCategory`]; [`Stats`] accumulates per-category simulated time and
//! per-category bytes written (the latter gives write amplification and PM
//! wear, which the paper uses when comparing against Strata).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Per-category simulated picoseconds charged **by the current
    /// thread**, across every [`Stats`] instance (mirrors the clock's
    /// thread-time tee).  The observability layer reads deltas of this
    /// around an operation span to attribute the thread's charges to
    /// that operation; absolute values are meaningless across threads.
    static THREAD_CAT_PICOS: [Cell<u64>; 5] =
        const { [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)] };
}

/// What a charge of simulated time (or a burst of written bytes) was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Reading or writing the application's own data bytes on the device.
    /// This is the "time spent actually accessing data on the PM device"
    /// term in the paper's software-overhead definition.
    UserData,
    /// File-system metadata on the device: inodes, allocator bitmaps,
    /// directory blocks, extent trees.
    Metadata,
    /// Journal / log writes performed by the file system for crash
    /// consistency (jbd2 transactions, NOVA inode logs, PMFS undo journal,
    /// Strata private logs).
    Journal,
    /// SplitFS operation-log writes (64 B logical redo entries).
    OpLog,
    /// Pure software time: kernel traps, VFS path handling, allocation
    /// decisions, index lookups, user-space bookkeeping, page faults.
    Software,
}

impl TimeCategory {
    /// All categories, in a stable order (used for reporting).
    pub const ALL: [TimeCategory; 5] = [
        TimeCategory::UserData,
        TimeCategory::Metadata,
        TimeCategory::Journal,
        TimeCategory::OpLog,
        TimeCategory::Software,
    ];

    fn index(self) -> usize {
        match self {
            TimeCategory::UserData => 0,
            TimeCategory::Metadata => 1,
            TimeCategory::Journal => 2,
            TimeCategory::OpLog => 3,
            TimeCategory::Software => 4,
        }
    }

    /// Position of this category in [`TimeCategory::ALL`] — the index
    /// into the per-category arrays of [`StatsSnapshot`] and of
    /// [`Stats::thread_category_time_ns`].
    pub fn index_in_all(self) -> usize {
        self.index()
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::UserData => "user-data",
            TimeCategory::Metadata => "metadata",
            TimeCategory::Journal => "journal",
            TimeCategory::OpLog => "oplog",
            TimeCategory::Software => "software",
        }
    }
}

/// Shared, thread-safe accumulator of simulated time and device traffic.
#[derive(Debug, Default)]
pub struct Stats {
    time_ps: [AtomicU64; 5],
    bytes_written: [AtomicU64; 5],
    bytes_read: [AtomicU64; 5],
    flushes: AtomicU64,
    fences: AtomicU64,
    page_faults: AtomicU64,
    huge_page_faults: AtomicU64,
    kernel_traps: AtomicU64,
    maintenance: MaintenanceCounters,
    vectored: VectoredCounters,
    scaling: ScalingCounters,
    lease: LeaseCounters,
    ring: RingCounters,
    namespace: NamespaceCounters,
    chaos: ChaosCounters,
    tier: TierCounters,
}

/// Counters for the tiered-capacity subsystem: segment migrations between
/// the PM tier and the block-granular capacity tier, raw capacity-tier
/// traffic, and demotion work deferred by the QoS bandwidth cap.  The
/// `tiering` experiment is scored on demotions *and* promotions being
/// non-zero while the hot set sustains PM-class throughput.
#[derive(Debug, Default)]
pub struct TierCounters {
    /// Segments demoted from PM to the capacity tier.
    tier_demotions: AtomicU64,
    /// Segments promoted from the capacity tier back to PM.
    tier_promotions: AtomicU64,
    /// Bytes moved PM → capacity by demotions.
    tier_demoted_bytes: AtomicU64,
    /// Bytes moved capacity → PM by promotions.
    tier_promoted_bytes: AtomicU64,
    /// Read requests served by the capacity tier.
    tier_cap_reads: AtomicU64,
    /// Bytes read from the capacity tier.
    tier_cap_read_bytes: AtomicU64,
    /// Write requests issued to the capacity tier.
    tier_cap_writes: AtomicU64,
    /// Bytes written to the capacity tier.
    tier_cap_write_bytes: AtomicU64,
    /// Demotion candidates skipped in a maintenance tick because the
    /// per-tick migration bandwidth budget was exhausted (QoS capping so
    /// a demotion storm cannot starve the append path).
    tier_bandwidth_deferrals: AtomicU64,
}

/// Counters for the crash-point fuzzing and fault-injection machinery:
/// crash images captured (one per explored fence boundary plus one per
/// direct `crash()` call), cache lines that survived torn under
/// `CrashPolicy::TornWrites`, checked reads that failed on an injected
/// media error, and durability promises recorded on the device's ledger.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Crashes injected: `capture_crash_image` calls plus in-place `crash()`es.
    crash_captures: AtomicU64,
    /// Cache lines that survived as a torn prefix/suffix in a capture.
    torn_lines: AtomicU64,
    /// Checked reads that overlapped a poisoned range and failed.
    media_read_errors: AtomicU64,
    /// Durability promises recorded on the ledger.
    promises_declared: AtomicU64,
}

/// Counters for the sharded kernel namespace and its full-path lookup
/// cache: contended namespace-shard acquisitions (the `metadata`
/// experiment is scored on this staying ~zero for threads in disjoint
/// directories), path-cache probes that hit or missed, and cache
/// invalidations (per-directory generation bumps plus global
/// directory-move bumps).
#[derive(Debug, Default)]
pub struct NamespaceCounters {
    /// Times a namespace-shard lock was contended: a `try_lock` failed
    /// and the thread had to block.
    ns_shard_lock_waits: AtomicU64,
    /// Full-path cache probes that returned a usable (validated) entry.
    path_cache_hits: AtomicU64,
    /// Full-path cache probes that missed or failed generation
    /// validation, forcing a per-component directory walk.
    path_cache_misses: AtomicU64,
    /// Cache invalidations: per-directory generation bumps (unlink,
    /// rename, rmdir) and global directory-move generation bumps.
    path_cache_invalidations: AtomicU64,
}

/// Counters for the asynchronous submission/completion rings: how many
/// queued submissions drains observed (their sum over drains is the
/// offered ring depth), how many drains completed two or more
/// operations as one backend batch, and how many ordering fences those
/// batches saved relative to the synchronous one-fence-pair-per-write
/// path.  The `openloop` experiment is scored on `fences_amortized`
/// staying non-zero once callers keep ≥ 2 writes in flight.
#[derive(Debug, Default)]
pub struct RingCounters {
    /// Total submissions popped across all ring drains (Σ batch size).
    ring_depth: AtomicU64,
    /// Drains that posted two or more completions as one batch.
    /// Single-completion drains are not counted: the counter's purpose
    /// is to evidence *batching*, mirroring the `appendv` rule.
    completion_batch: AtomicU64,
    /// Ordering fences avoided by coalescing a batch's writes under a
    /// shared fence pair instead of fencing each write separately.
    fences_amortized: AtomicU64,
}

/// Counters for the multi-instance lease manager: how many instance
/// leases were handed out and returned, how many acquisitions collided
/// with a live holder (the `multi` experiment is scored on this staying
/// **zero**), and how many crashed instances' operation logs recovery
/// replayed.
#[derive(Debug, Default)]
pub struct LeaseCounters {
    /// Instance leases acquired.
    lease_acquires: AtomicU64,
    /// Instance leases released.
    lease_releases: AtomicU64,
    /// Lease acquisitions refused because the requested instance id was
    /// already held by a live instance.
    lease_conflicts: AtomicU64,
    /// Orphaned (crashed) instances whose operation logs were replayed.
    instances_recovered: AtomicU64,
}

/// Counters for the multi-core scaling work: sharded-lock contention,
/// operation-log epoch swaps, and checkpoint stalls.  The `scaling`
/// experiment is scored on these: under distinct-file concurrency shard
/// lock waits should stay low and checkpoint stalls should be **zero**
/// (truncation happens by epoch swap, never by stopping the world).
#[derive(Debug, Default)]
pub struct ScalingCounters {
    /// Times a sharded lock (kernel inode shard, splitfs registry shard,
    /// ...) was contended: a `try_lock` failed and the thread had to block.
    shard_lock_waits: AtomicU64,
    /// Operation-log epoch swaps (the active log half was sealed and the
    /// empty half took over).
    oplog_epoch_swaps: AtomicU64,
    /// Sealed-epoch truncations (the sealed half was re-zeroed after its
    /// staged data was retired).
    oplog_epoch_truncates: AtomicU64,
    /// On-demand growths of the operation log.
    oplog_grows: AtomicU64,
    /// Times a foreground writer found the log full with no epoch to swap
    /// to and no room to grow — the stop-the-world stall the epoch design
    /// exists to eliminate.
    checkpoint_stalls: AtomicU64,
    /// Simulated nanoseconds foreground writers spent stalled on log
    /// space (in picoseconds internally, like the clock).
    checkpoint_stall_ps: AtomicU64,
    /// Staging files recycled back into the pool after being fully
    /// relinked (instead of leaking until shutdown).
    staging_recycles: AtomicU64,
    /// Times a staging-lane lock was contended: a `try_lock` on the lane
    /// failed and the taker had to block.  Disjoint writers routed to
    /// disjoint lanes keep this ~zero — the lane-sharded pool's whole
    /// point.
    staging_lock_waits: AtomicU64,
    /// Staging files stolen from another lane's free list because the
    /// taker's home lane ran dry.
    staging_lane_steals: AtomicU64,
    /// Per-lane watermark adjustments made by the adaptive provisioning
    /// controller (grow or shrink).
    staging_adaptive_resizes: AtomicU64,
    /// Files whose long-unsynced staged extents were relinked by the
    /// cold-file policy to reclaim staging space under pressure.
    staging_cold_relinks: AtomicU64,
}

/// Counters for the U-Split background-maintenance subsystem: staging-file
/// provisioning, batched relink and operation-log group commit.  They live
/// on the device's shared [`Stats`] so the daemon (splitfs), the batched
/// relink entry point (kernelfs) and the experiment harness (bench) all
/// observe one consistent view.
#[derive(Debug, Default)]
pub struct MaintenanceCounters {
    /// Staging files created inline on the foreground write path because
    /// the pool ran dry (the failure mode the daemon exists to eliminate).
    staging_inline_creates: AtomicU64,
    /// Staging files created asynchronously by a maintenance worker.
    staging_bg_creates: AtomicU64,
    /// Invocations of the batched relink entry point.
    batched_relinks: AtomicU64,
    /// Total relink operations (coalesced staged runs) across all
    /// batched invocations.
    relink_batch_ops: AtomicU64,
    /// Operation-log group commits (multiple entries, one fence).
    oplog_group_commits: AtomicU64,
    /// Background checkpoints (relink-all plus log truncate) completed by a
    /// maintenance worker.
    daemon_checkpoints: AtomicU64,
}

/// Counters for the vectored / zero-copy / batch-durable I/O API: bytes
/// served without a memcpy through [`read views`](crate::PmemView),
/// gathered `appendv`/`writev_at` calls, `fsync_many` batches and kernel
/// journal transactions.  They make the API's wins observable (the paper's
/// methodology: count fences and transactions, don't assert).
#[derive(Debug, Default)]
pub struct VectoredCounters {
    /// Bytes served as zero-copy borrows of device memory (no memcpy).
    zero_copy_read_bytes: AtomicU64,
    /// Gathered (multi-slice) `appendv` calls.
    appendv_calls: AtomicU64,
    /// Total slices gathered across all `appendv` calls.
    appendv_slices: AtomicU64,
    /// Batched durability (`fsync_many`) calls.
    fsync_many_calls: AtomicU64,
    /// Total descriptors retired across all `fsync_many` calls.
    fsync_many_files: AtomicU64,
    /// Kernel journal transactions committed (jbd2-style commits plus the
    /// forced commits an `fsync` models).
    journal_txns: AtomicU64,
}

impl Stats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `ns` of simulated time attributed to `cat`.
    pub fn add_time(&self, cat: TimeCategory, ns: f64) {
        if !ns.is_finite() || ns <= 0.0 {
            return;
        }
        let picos = (ns * 1000.0).round() as u64;
        self.time_ps[cat.index()].fetch_add(picos, Ordering::Relaxed);
        THREAD_CAT_PICOS.with(|t| {
            let cell = &t[cat.index()];
            cell.set(cell.get() + picos);
        });
    }

    /// Simulated nanoseconds charged **by the calling thread** per
    /// category (in [`TimeCategory::ALL`] order), across every `Stats`
    /// instance, since the thread started.  The per-thread counterpart
    /// of [`StatsSnapshot::time_ns`] and the category-resolved
    /// counterpart of [`crate::SimClock::thread_time_ns`]: the
    /// observability layer takes deltas of this around an operation to
    /// build the per-op software-overhead breakdown.  Never reset;
    /// consumers subtract a starting sample.
    pub fn thread_category_time_ns() -> [f64; 5] {
        THREAD_CAT_PICOS.with(|t| std::array::from_fn(|i| t[i].get() as f64 / 1000.0))
    }

    /// Records `n` bytes written to the device attributed to `cat`.
    pub fn add_bytes_written(&self, cat: TimeCategory, n: u64) {
        self.bytes_written[cat.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes read from the device attributed to `cat`.
    pub fn add_bytes_read(&self, cat: TimeCategory, n: u64) {
        self.bytes_read[cat.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cache-line flushes (`clwb`/`clflush`).
    pub fn add_flushes(&self, n: u64) {
        self.flushes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one ordering fence (`sfence`).
    pub fn add_fence(&self) {
        self.fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` 4 KiB page faults.
    pub fn add_page_faults(&self, n: u64) {
        self.page_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` 2 MiB huge-page faults.
    pub fn add_huge_page_faults(&self, n: u64) {
        self.huge_page_faults.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one user/kernel boundary crossing (a system call).
    pub fn add_kernel_trap(&self) {
        self.kernel_traps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one staging file created inline on the write path.
    pub fn add_staging_inline_create(&self) {
        self.maintenance
            .staging_inline_creates
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one staging file created by a background worker.
    pub fn add_staging_bg_create(&self) {
        self.maintenance
            .staging_bg_creates
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batched relink applying `ops` relink operations.
    pub fn add_batched_relink(&self, ops: u64) {
        self.maintenance
            .batched_relinks
            .fetch_add(1, Ordering::Relaxed);
        self.maintenance
            .relink_batch_ops
            .fetch_add(ops, Ordering::Relaxed);
    }

    /// Records one operation-log group commit.
    pub fn add_oplog_group_commit(&self) {
        self.maintenance
            .oplog_group_commits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed background checkpoint.
    pub fn add_daemon_checkpoint(&self) {
        self.maintenance
            .daemon_checkpoints
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` bytes served zero-copy (no memcpy) from device memory.
    pub fn add_zero_copy_read_bytes(&self, n: u64) {
        self.vectored
            .zero_copy_read_bytes
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one vectored append of `slices` slices.  Single-slice
    /// calls are not counted: plain `append` delegates to `appendv`
    /// everywhere, and the counter's purpose is to evidence *gathering* —
    /// counting degenerate gathers would drown that signal.
    pub fn add_appendv(&self, slices: u64) {
        if slices < 2 {
            return;
        }
        self.vectored.appendv_calls.fetch_add(1, Ordering::Relaxed);
        self.vectored
            .appendv_slices
            .fetch_add(slices, Ordering::Relaxed);
    }

    /// Records one `fsync_many` call retiring `files` descriptors.
    pub fn add_fsync_many(&self, files: u64) {
        self.vectored
            .fsync_many_calls
            .fetch_add(1, Ordering::Relaxed);
        self.vectored
            .fsync_many_files
            .fetch_add(files, Ordering::Relaxed);
    }

    /// Records one kernel journal transaction commit.
    pub fn add_journal_txn(&self) {
        self.vectored.journal_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contended sharded-lock acquisition (a `try_lock` failed
    /// and the thread blocked).
    pub fn add_shard_lock_wait(&self) {
        self.scaling
            .shard_lock_waits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one operation-log epoch swap (seal of the active half).
    pub fn add_oplog_epoch_swap(&self) {
        self.scaling
            .oplog_epoch_swaps
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sealed-epoch truncation.
    pub fn add_oplog_epoch_truncate(&self) {
        self.scaling
            .oplog_epoch_truncates
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one on-demand operation-log growth.
    pub fn add_oplog_grow(&self) {
        self.scaling.oplog_grows.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one foreground stall on operation-log space lasting `ns`
    /// simulated nanoseconds.
    pub fn add_checkpoint_stall(&self, ns: f64) {
        self.scaling
            .checkpoint_stalls
            .fetch_add(1, Ordering::Relaxed);
        if ns.is_finite() && ns > 0.0 {
            self.scaling
                .checkpoint_stall_ps
                .fetch_add((ns * 1000.0).round() as u64, Ordering::Relaxed);
        }
    }

    /// Records one staging file recycled back into the pool.
    pub fn add_staging_recycle(&self) {
        self.scaling
            .staging_recycles
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contended staging-lane lock acquisition (a `try_lock`
    /// on the lane failed and the taker blocked).
    pub fn add_staging_lock_wait(&self) {
        self.scaling
            .staging_lock_waits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one staging file stolen from another lane's free list.
    pub fn add_staging_lane_steal(&self) {
        self.scaling
            .staging_lane_steals
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one adaptive watermark adjustment on a staging lane.
    pub fn add_staging_adaptive_resize(&self) {
        self.scaling
            .staging_adaptive_resizes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cold file whose staged extents were relinked to
    /// reclaim staging space.
    pub fn add_staging_cold_relink(&self) {
        self.scaling
            .staging_cold_relinks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one instance-lease acquisition.
    pub fn add_lease_acquire(&self) {
        self.lease.lease_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one instance-lease release.
    pub fn add_lease_release(&self) {
        self.lease.lease_releases.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one refused lease acquisition (instance id held by a live
    /// instance).
    pub fn add_lease_conflict(&self) {
        self.lease.lease_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one orphaned instance whose operation log was replayed.
    pub fn add_instance_recovered(&self) {
        self.lease
            .instances_recovered
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contended namespace-shard lock acquisition (a
    /// `try_lock` failed and the thread blocked).
    pub fn add_ns_shard_lock_wait(&self) {
        self.namespace
            .ns_shard_lock_waits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one validated full-path cache hit.
    pub fn add_path_cache_hit(&self) {
        self.namespace
            .path_cache_hits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one full-path cache miss (absent or stale entry).
    pub fn add_path_cache_miss(&self) {
        self.namespace
            .path_cache_misses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one path-cache invalidation (a generation bump).
    pub fn add_path_cache_invalidation(&self) {
        self.namespace
            .path_cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one crash-image capture.
    pub fn add_crash_capture(&self) {
        self.chaos.crash_captures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` cache lines surviving torn in a crash capture.
    pub fn add_torn_lines(&self, n: u64) {
        self.chaos.torn_lines.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one checked read failing on an injected media error.
    pub fn add_media_read_error(&self) {
        self.chaos.media_read_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durability promise declared on the ledger.
    pub fn add_promise_declared(&self) {
        self.chaos.promises_declared.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one segment demotion moving `bytes` from PM to the
    /// capacity tier.
    pub fn add_tier_demotion(&self, bytes: u64) {
        self.tier.tier_demotions.fetch_add(1, Ordering::Relaxed);
        self.tier
            .tier_demoted_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one segment promotion moving `bytes` from the capacity
    /// tier back to PM.
    pub fn add_tier_promotion(&self, bytes: u64) {
        self.tier.tier_promotions.fetch_add(1, Ordering::Relaxed);
        self.tier
            .tier_promoted_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one capacity-tier read of `bytes` bytes.
    pub fn add_cap_read(&self, bytes: u64) {
        self.tier.tier_cap_reads.fetch_add(1, Ordering::Relaxed);
        self.tier
            .tier_cap_read_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one capacity-tier write of `bytes` bytes.
    pub fn add_cap_write(&self, bytes: u64) {
        self.tier.tier_cap_writes.fetch_add(1, Ordering::Relaxed);
        self.tier
            .tier_cap_write_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one demotion candidate deferred by the per-tick migration
    /// bandwidth budget.
    pub fn add_tier_bandwidth_deferral(&self) {
        self.tier
            .tier_bandwidth_deferrals
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one ring drain that popped `depth` queued submissions.
    pub fn add_ring_drain(&self, depth: u64) {
        self.ring.ring_depth.fetch_add(depth, Ordering::Relaxed);
    }

    /// Records one drain that posted two or more completions as a
    /// single backend batch.
    pub fn add_completion_batch(&self) {
        self.ring.completion_batch.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` ordering fences avoided by batch coalescing.
    pub fn add_fences_amortized(&self, n: u64) {
        self.ring.fences_amortized.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a copyable snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut time_ns = [0.0f64; 5];
        let mut written = [0u64; 5];
        let mut read = [0u64; 5];
        for (i, slot) in self.time_ps.iter().enumerate() {
            time_ns[i] = slot.load(Ordering::Relaxed) as f64 / 1000.0;
        }
        for (i, slot) in self.bytes_written.iter().enumerate() {
            written[i] = slot.load(Ordering::Relaxed);
        }
        for (i, slot) in self.bytes_read.iter().enumerate() {
            read[i] = slot.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            time_ns,
            bytes_written: written,
            bytes_read: read,
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            page_faults: self.page_faults.load(Ordering::Relaxed),
            huge_page_faults: self.huge_page_faults.load(Ordering::Relaxed),
            kernel_traps: self.kernel_traps.load(Ordering::Relaxed),
            staging_inline_creates: self
                .maintenance
                .staging_inline_creates
                .load(Ordering::Relaxed),
            staging_bg_creates: self.maintenance.staging_bg_creates.load(Ordering::Relaxed),
            batched_relinks: self.maintenance.batched_relinks.load(Ordering::Relaxed),
            relink_batch_ops: self.maintenance.relink_batch_ops.load(Ordering::Relaxed),
            oplog_group_commits: self.maintenance.oplog_group_commits.load(Ordering::Relaxed),
            daemon_checkpoints: self.maintenance.daemon_checkpoints.load(Ordering::Relaxed),
            zero_copy_read_bytes: self.vectored.zero_copy_read_bytes.load(Ordering::Relaxed),
            appendv_calls: self.vectored.appendv_calls.load(Ordering::Relaxed),
            appendv_slices: self.vectored.appendv_slices.load(Ordering::Relaxed),
            fsync_many_calls: self.vectored.fsync_many_calls.load(Ordering::Relaxed),
            fsync_many_files: self.vectored.fsync_many_files.load(Ordering::Relaxed),
            journal_txns: self.vectored.journal_txns.load(Ordering::Relaxed),
            shard_lock_waits: self.scaling.shard_lock_waits.load(Ordering::Relaxed),
            oplog_epoch_swaps: self.scaling.oplog_epoch_swaps.load(Ordering::Relaxed),
            oplog_epoch_truncates: self.scaling.oplog_epoch_truncates.load(Ordering::Relaxed),
            oplog_grows: self.scaling.oplog_grows.load(Ordering::Relaxed),
            checkpoint_stalls: self.scaling.checkpoint_stalls.load(Ordering::Relaxed),
            checkpoint_stall_ns: self.scaling.checkpoint_stall_ps.load(Ordering::Relaxed) as f64
                / 1000.0,
            staging_recycles: self.scaling.staging_recycles.load(Ordering::Relaxed),
            staging_lock_waits: self.scaling.staging_lock_waits.load(Ordering::Relaxed),
            staging_lane_steals: self.scaling.staging_lane_steals.load(Ordering::Relaxed),
            staging_adaptive_resizes: self
                .scaling
                .staging_adaptive_resizes
                .load(Ordering::Relaxed),
            staging_cold_relinks: self.scaling.staging_cold_relinks.load(Ordering::Relaxed),
            lease_acquires: self.lease.lease_acquires.load(Ordering::Relaxed),
            lease_releases: self.lease.lease_releases.load(Ordering::Relaxed),
            lease_conflicts: self.lease.lease_conflicts.load(Ordering::Relaxed),
            instances_recovered: self.lease.instances_recovered.load(Ordering::Relaxed),
            ring_depth: self.ring.ring_depth.load(Ordering::Relaxed),
            completion_batch: self.ring.completion_batch.load(Ordering::Relaxed),
            fences_amortized: self.ring.fences_amortized.load(Ordering::Relaxed),
            ns_shard_lock_waits: self.namespace.ns_shard_lock_waits.load(Ordering::Relaxed),
            path_cache_hits: self.namespace.path_cache_hits.load(Ordering::Relaxed),
            path_cache_misses: self.namespace.path_cache_misses.load(Ordering::Relaxed),
            path_cache_invalidations: self
                .namespace
                .path_cache_invalidations
                .load(Ordering::Relaxed),
            crash_captures: self.chaos.crash_captures.load(Ordering::Relaxed),
            torn_lines: self.chaos.torn_lines.load(Ordering::Relaxed),
            media_read_errors: self.chaos.media_read_errors.load(Ordering::Relaxed),
            promises_declared: self.chaos.promises_declared.load(Ordering::Relaxed),
            tier_demotions: self.tier.tier_demotions.load(Ordering::Relaxed),
            tier_promotions: self.tier.tier_promotions.load(Ordering::Relaxed),
            tier_demoted_bytes: self.tier.tier_demoted_bytes.load(Ordering::Relaxed),
            tier_promoted_bytes: self.tier.tier_promoted_bytes.load(Ordering::Relaxed),
            tier_cap_reads: self.tier.tier_cap_reads.load(Ordering::Relaxed),
            tier_cap_read_bytes: self.tier.tier_cap_read_bytes.load(Ordering::Relaxed),
            tier_cap_writes: self.tier.tier_cap_writes.load(Ordering::Relaxed),
            tier_cap_write_bytes: self.tier.tier_cap_write_bytes.load(Ordering::Relaxed),
            tier_bandwidth_deferrals: self.tier.tier_bandwidth_deferrals.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for slot in &self.time_ps {
            slot.store(0, Ordering::Relaxed);
        }
        for slot in &self.bytes_written {
            slot.store(0, Ordering::Relaxed);
        }
        for slot in &self.bytes_read {
            slot.store(0, Ordering::Relaxed);
        }
        self.flushes.store(0, Ordering::Relaxed);
        self.fences.store(0, Ordering::Relaxed);
        self.page_faults.store(0, Ordering::Relaxed);
        self.huge_page_faults.store(0, Ordering::Relaxed);
        self.kernel_traps.store(0, Ordering::Relaxed);
        self.maintenance
            .staging_inline_creates
            .store(0, Ordering::Relaxed);
        self.maintenance
            .staging_bg_creates
            .store(0, Ordering::Relaxed);
        self.maintenance.batched_relinks.store(0, Ordering::Relaxed);
        self.maintenance
            .relink_batch_ops
            .store(0, Ordering::Relaxed);
        self.maintenance
            .oplog_group_commits
            .store(0, Ordering::Relaxed);
        self.maintenance
            .daemon_checkpoints
            .store(0, Ordering::Relaxed);
        self.vectored
            .zero_copy_read_bytes
            .store(0, Ordering::Relaxed);
        self.vectored.appendv_calls.store(0, Ordering::Relaxed);
        self.vectored.appendv_slices.store(0, Ordering::Relaxed);
        self.vectored.fsync_many_calls.store(0, Ordering::Relaxed);
        self.vectored.fsync_many_files.store(0, Ordering::Relaxed);
        self.vectored.journal_txns.store(0, Ordering::Relaxed);
        self.scaling.shard_lock_waits.store(0, Ordering::Relaxed);
        self.scaling.oplog_epoch_swaps.store(0, Ordering::Relaxed);
        self.scaling
            .oplog_epoch_truncates
            .store(0, Ordering::Relaxed);
        self.scaling.oplog_grows.store(0, Ordering::Relaxed);
        self.scaling.checkpoint_stalls.store(0, Ordering::Relaxed);
        self.scaling.checkpoint_stall_ps.store(0, Ordering::Relaxed);
        self.scaling.staging_recycles.store(0, Ordering::Relaxed);
        self.scaling.staging_lock_waits.store(0, Ordering::Relaxed);
        self.scaling.staging_lane_steals.store(0, Ordering::Relaxed);
        self.scaling
            .staging_adaptive_resizes
            .store(0, Ordering::Relaxed);
        self.scaling
            .staging_cold_relinks
            .store(0, Ordering::Relaxed);
        self.lease.lease_acquires.store(0, Ordering::Relaxed);
        self.lease.lease_releases.store(0, Ordering::Relaxed);
        self.lease.lease_conflicts.store(0, Ordering::Relaxed);
        self.lease.instances_recovered.store(0, Ordering::Relaxed);
        self.ring.ring_depth.store(0, Ordering::Relaxed);
        self.ring.completion_batch.store(0, Ordering::Relaxed);
        self.ring.fences_amortized.store(0, Ordering::Relaxed);
        self.namespace
            .ns_shard_lock_waits
            .store(0, Ordering::Relaxed);
        self.namespace.path_cache_hits.store(0, Ordering::Relaxed);
        self.namespace.path_cache_misses.store(0, Ordering::Relaxed);
        self.namespace
            .path_cache_invalidations
            .store(0, Ordering::Relaxed);
        self.chaos.crash_captures.store(0, Ordering::Relaxed);
        self.chaos.torn_lines.store(0, Ordering::Relaxed);
        self.chaos.media_read_errors.store(0, Ordering::Relaxed);
        self.chaos.promises_declared.store(0, Ordering::Relaxed);
        self.tier.tier_demotions.store(0, Ordering::Relaxed);
        self.tier.tier_promotions.store(0, Ordering::Relaxed);
        self.tier.tier_demoted_bytes.store(0, Ordering::Relaxed);
        self.tier.tier_promoted_bytes.store(0, Ordering::Relaxed);
        self.tier.tier_cap_reads.store(0, Ordering::Relaxed);
        self.tier.tier_cap_read_bytes.store(0, Ordering::Relaxed);
        self.tier.tier_cap_writes.store(0, Ordering::Relaxed);
        self.tier.tier_cap_write_bytes.store(0, Ordering::Relaxed);
        self.tier
            .tier_bandwidth_deferrals
            .store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`Stats`], plus derived metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Simulated nanoseconds per [`TimeCategory`] (indexed by `TimeCategory::ALL` order).
    pub time_ns: [f64; 5],
    /// Bytes written to the device per category.
    pub bytes_written: [u64; 5],
    /// Bytes read from the device per category.
    pub bytes_read: [u64; 5],
    /// Number of cache-line flushes issued.
    pub flushes: u64,
    /// Number of ordering fences issued.
    pub fences: u64,
    /// Number of 4 KiB page faults taken.
    pub page_faults: u64,
    /// Number of 2 MiB huge-page faults taken.
    pub huge_page_faults: u64,
    /// Number of kernel traps (system calls) taken.
    pub kernel_traps: u64,
    /// Staging files created inline on the foreground write path.
    pub staging_inline_creates: u64,
    /// Staging files created by a background maintenance worker.
    pub staging_bg_creates: u64,
    /// Invocations of the batched relink entry point.
    pub batched_relinks: u64,
    /// Total relink operations (coalesced staged runs) across all batches.
    pub relink_batch_ops: u64,
    /// Operation-log group commits (multiple entries, one fence).
    pub oplog_group_commits: u64,
    /// Background checkpoints completed by a maintenance worker.
    pub daemon_checkpoints: u64,
    /// Bytes served as zero-copy borrows (no memcpy) of device memory.
    pub zero_copy_read_bytes: u64,
    /// Gathered (multi-slice) `appendv` calls.
    pub appendv_calls: u64,
    /// Total slices gathered across all `appendv` calls.
    pub appendv_slices: u64,
    /// Batched durability (`fsync_many`) calls.
    pub fsync_many_calls: u64,
    /// Total descriptors retired across all `fsync_many` calls.
    pub fsync_many_files: u64,
    /// Kernel journal transactions committed.
    pub journal_txns: u64,
    /// Contended sharded-lock acquisitions (a `try_lock` failed first).
    pub shard_lock_waits: u64,
    /// Operation-log epoch swaps (active half sealed, empty half armed).
    pub oplog_epoch_swaps: u64,
    /// Sealed-epoch truncations.
    pub oplog_epoch_truncates: u64,
    /// On-demand operation-log growths.
    pub oplog_grows: u64,
    /// Foreground stalls on operation-log space (must be zero under the
    /// epoch design).
    pub checkpoint_stalls: u64,
    /// Simulated nanoseconds spent in those stalls.
    pub checkpoint_stall_ns: f64,
    /// Staging files recycled back into the pool after full relink.
    pub staging_recycles: u64,
    /// Contended staging-lane lock acquisitions (a `try_lock` failed
    /// first).  ~Zero for disjoint writers on a lane-per-writer pool.
    pub staging_lock_waits: u64,
    /// Staging files stolen across lanes after a home lane ran dry.
    pub staging_lane_steals: u64,
    /// Adaptive watermark adjustments on staging lanes.
    pub staging_adaptive_resizes: u64,
    /// Cold files relinked to reclaim staging space under pressure.
    pub staging_cold_relinks: u64,
    /// Instance leases acquired.
    pub lease_acquires: u64,
    /// Instance leases released.
    pub lease_releases: u64,
    /// Lease acquisitions refused because the id was held by a live
    /// instance (must be zero in a healthy multi-instance run).
    pub lease_conflicts: u64,
    /// Orphaned (crashed) instances whose operation logs were replayed.
    pub instances_recovered: u64,
    /// Total submissions popped across all ring drains (Σ batch size).
    pub ring_depth: u64,
    /// Ring drains that posted two or more completions as one batch.
    pub completion_batch: u64,
    /// Ordering fences avoided by coalescing batched writes under a
    /// shared fence pair.
    pub fences_amortized: u64,
    /// Contended namespace-shard lock acquisitions (a `try_lock` failed
    /// first).  ~Zero for threads working in disjoint directories.
    pub ns_shard_lock_waits: u64,
    /// Validated full-path cache hits (deep resolve served by one probe).
    pub path_cache_hits: u64,
    /// Full-path cache misses (absent or stale entry; component walk).
    pub path_cache_misses: u64,
    /// Path-cache invalidations (per-directory and directory-move
    /// generation bumps).
    pub path_cache_invalidations: u64,
    /// Crash images captured (fuzzer crash points plus direct `crash()`).
    pub crash_captures: u64,
    /// Cache lines that survived torn in crash captures
    /// (`CrashPolicy::TornWrites`).
    pub torn_lines: u64,
    /// Checked reads that failed on an injected media error.
    pub media_read_errors: u64,
    /// Durability promises recorded on the device's ledger.
    pub promises_declared: u64,
    /// Segments demoted from PM to the capacity tier.
    pub tier_demotions: u64,
    /// Segments promoted from the capacity tier back to PM.
    pub tier_promotions: u64,
    /// Bytes moved PM → capacity by demotions.
    pub tier_demoted_bytes: u64,
    /// Bytes moved capacity → PM by promotions.
    pub tier_promoted_bytes: u64,
    /// Read requests served by the capacity tier.
    pub tier_cap_reads: u64,
    /// Bytes read from the capacity tier.
    pub tier_cap_read_bytes: u64,
    /// Write requests issued to the capacity tier.
    pub tier_cap_writes: u64,
    /// Bytes written to the capacity tier.
    pub tier_cap_write_bytes: u64,
    /// Demotion candidates deferred by the per-tick bandwidth budget.
    pub tier_bandwidth_deferrals: u64,
}

impl StatsSnapshot {
    /// Simulated time attributed to `cat`.
    pub fn time(&self, cat: TimeCategory) -> f64 {
        self.time_ns[cat.index()]
    }

    /// Bytes written to the device for `cat`.
    pub fn written(&self, cat: TimeCategory) -> u64 {
        self.bytes_written[cat.index()]
    }

    /// Total simulated time across all categories.
    pub fn total_time_ns(&self) -> f64 {
        self.time_ns.iter().sum()
    }

    /// Total bytes written across all categories.
    pub fn total_bytes_written(&self) -> u64 {
        self.bytes_written.iter().sum()
    }

    /// Total bytes read across all categories.
    pub fn total_bytes_read(&self) -> u64 {
        self.bytes_read.iter().sum()
    }

    /// The paper's software overhead: total time minus user-data device time.
    pub fn software_overhead_ns(&self) -> f64 {
        self.total_time_ns() - self.time(TimeCategory::UserData)
    }

    /// Write amplification relative to `user_bytes` of application data.
    /// Returns `None` when no user bytes were written.
    pub fn write_amplification(&self, user_bytes: u64) -> Option<f64> {
        if user_bytes == 0 {
            None
        } else {
            Some(self.total_bytes_written() as f64 / user_bytes as f64)
        }
    }

    /// Element-wise difference `self - earlier`; used to measure a phase
    /// without subtracting counter fields by hand.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut out = *self;
        for i in 0..5 {
            out.time_ns[i] -= earlier.time_ns[i];
            out.bytes_written[i] = out.bytes_written[i].saturating_sub(earlier.bytes_written[i]);
            out.bytes_read[i] = out.bytes_read[i].saturating_sub(earlier.bytes_read[i]);
        }
        out.flushes = out.flushes.saturating_sub(earlier.flushes);
        out.fences = out.fences.saturating_sub(earlier.fences);
        out.page_faults = out.page_faults.saturating_sub(earlier.page_faults);
        out.huge_page_faults = out
            .huge_page_faults
            .saturating_sub(earlier.huge_page_faults);
        out.kernel_traps = out.kernel_traps.saturating_sub(earlier.kernel_traps);
        out.staging_inline_creates = out
            .staging_inline_creates
            .saturating_sub(earlier.staging_inline_creates);
        out.staging_bg_creates = out
            .staging_bg_creates
            .saturating_sub(earlier.staging_bg_creates);
        out.batched_relinks = out.batched_relinks.saturating_sub(earlier.batched_relinks);
        out.relink_batch_ops = out
            .relink_batch_ops
            .saturating_sub(earlier.relink_batch_ops);
        out.oplog_group_commits = out
            .oplog_group_commits
            .saturating_sub(earlier.oplog_group_commits);
        out.daemon_checkpoints = out
            .daemon_checkpoints
            .saturating_sub(earlier.daemon_checkpoints);
        out.zero_copy_read_bytes = out
            .zero_copy_read_bytes
            .saturating_sub(earlier.zero_copy_read_bytes);
        out.appendv_calls = out.appendv_calls.saturating_sub(earlier.appendv_calls);
        out.appendv_slices = out.appendv_slices.saturating_sub(earlier.appendv_slices);
        out.fsync_many_calls = out
            .fsync_many_calls
            .saturating_sub(earlier.fsync_many_calls);
        out.fsync_many_files = out
            .fsync_many_files
            .saturating_sub(earlier.fsync_many_files);
        out.journal_txns = out.journal_txns.saturating_sub(earlier.journal_txns);
        out.shard_lock_waits = out
            .shard_lock_waits
            .saturating_sub(earlier.shard_lock_waits);
        out.oplog_epoch_swaps = out
            .oplog_epoch_swaps
            .saturating_sub(earlier.oplog_epoch_swaps);
        out.oplog_epoch_truncates = out
            .oplog_epoch_truncates
            .saturating_sub(earlier.oplog_epoch_truncates);
        out.oplog_grows = out.oplog_grows.saturating_sub(earlier.oplog_grows);
        out.checkpoint_stalls = out
            .checkpoint_stalls
            .saturating_sub(earlier.checkpoint_stalls);
        out.checkpoint_stall_ns -= earlier.checkpoint_stall_ns;
        out.staging_recycles = out
            .staging_recycles
            .saturating_sub(earlier.staging_recycles);
        out.staging_lock_waits = out
            .staging_lock_waits
            .saturating_sub(earlier.staging_lock_waits);
        out.staging_lane_steals = out
            .staging_lane_steals
            .saturating_sub(earlier.staging_lane_steals);
        out.staging_adaptive_resizes = out
            .staging_adaptive_resizes
            .saturating_sub(earlier.staging_adaptive_resizes);
        out.staging_cold_relinks = out
            .staging_cold_relinks
            .saturating_sub(earlier.staging_cold_relinks);
        out.lease_acquires = out.lease_acquires.saturating_sub(earlier.lease_acquires);
        out.lease_releases = out.lease_releases.saturating_sub(earlier.lease_releases);
        out.lease_conflicts = out.lease_conflicts.saturating_sub(earlier.lease_conflicts);
        out.instances_recovered = out
            .instances_recovered
            .saturating_sub(earlier.instances_recovered);
        out.ring_depth = out.ring_depth.saturating_sub(earlier.ring_depth);
        out.completion_batch = out
            .completion_batch
            .saturating_sub(earlier.completion_batch);
        out.fences_amortized = out
            .fences_amortized
            .saturating_sub(earlier.fences_amortized);
        out.ns_shard_lock_waits = out
            .ns_shard_lock_waits
            .saturating_sub(earlier.ns_shard_lock_waits);
        out.path_cache_hits = out.path_cache_hits.saturating_sub(earlier.path_cache_hits);
        out.path_cache_misses = out
            .path_cache_misses
            .saturating_sub(earlier.path_cache_misses);
        out.path_cache_invalidations = out
            .path_cache_invalidations
            .saturating_sub(earlier.path_cache_invalidations);
        out.crash_captures = out.crash_captures.saturating_sub(earlier.crash_captures);
        out.torn_lines = out.torn_lines.saturating_sub(earlier.torn_lines);
        out.media_read_errors = out
            .media_read_errors
            .saturating_sub(earlier.media_read_errors);
        out.promises_declared = out
            .promises_declared
            .saturating_sub(earlier.promises_declared);
        out.tier_demotions = out.tier_demotions.saturating_sub(earlier.tier_demotions);
        out.tier_promotions = out.tier_promotions.saturating_sub(earlier.tier_promotions);
        out.tier_demoted_bytes = out
            .tier_demoted_bytes
            .saturating_sub(earlier.tier_demoted_bytes);
        out.tier_promoted_bytes = out
            .tier_promoted_bytes
            .saturating_sub(earlier.tier_promoted_bytes);
        out.tier_cap_reads = out.tier_cap_reads.saturating_sub(earlier.tier_cap_reads);
        out.tier_cap_read_bytes = out
            .tier_cap_read_bytes
            .saturating_sub(earlier.tier_cap_read_bytes);
        out.tier_cap_writes = out.tier_cap_writes.saturating_sub(earlier.tier_cap_writes);
        out.tier_cap_write_bytes = out
            .tier_cap_write_bytes
            .saturating_sub(earlier.tier_cap_write_bytes);
        out.tier_bandwidth_deferrals = out
            .tier_bandwidth_deferrals
            .saturating_sub(earlier.tier_bandwidth_deferrals);
        out
    }

    /// Alias for [`StatsSnapshot::delta`], kept for older call sites.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.delta(earlier)
    }

    /// Every scalar event counter as `(name, value)` pairs, in a stable
    /// order — the single source the JSON exporters iterate instead of
    /// naming each field again.
    pub fn counters(&self) -> [(&'static str, u64); 51] {
        [
            ("flushes", self.flushes),
            ("fences", self.fences),
            ("page_faults", self.page_faults),
            ("huge_page_faults", self.huge_page_faults),
            ("kernel_traps", self.kernel_traps),
            ("staging_inline_creates", self.staging_inline_creates),
            ("staging_bg_creates", self.staging_bg_creates),
            ("batched_relinks", self.batched_relinks),
            ("relink_batch_ops", self.relink_batch_ops),
            ("oplog_group_commits", self.oplog_group_commits),
            ("daemon_checkpoints", self.daemon_checkpoints),
            ("zero_copy_read_bytes", self.zero_copy_read_bytes),
            ("appendv_calls", self.appendv_calls),
            ("appendv_slices", self.appendv_slices),
            ("fsync_many_calls", self.fsync_many_calls),
            ("fsync_many_files", self.fsync_many_files),
            ("journal_txns", self.journal_txns),
            ("shard_lock_waits", self.shard_lock_waits),
            ("oplog_epoch_swaps", self.oplog_epoch_swaps),
            ("oplog_epoch_truncates", self.oplog_epoch_truncates),
            ("oplog_grows", self.oplog_grows),
            ("checkpoint_stalls", self.checkpoint_stalls),
            ("staging_recycles", self.staging_recycles),
            ("staging_lock_waits", self.staging_lock_waits),
            ("staging_lane_steals", self.staging_lane_steals),
            ("staging_adaptive_resizes", self.staging_adaptive_resizes),
            ("staging_cold_relinks", self.staging_cold_relinks),
            ("lease_acquires", self.lease_acquires),
            ("lease_releases", self.lease_releases),
            ("lease_conflicts", self.lease_conflicts),
            ("instances_recovered", self.instances_recovered),
            ("ring_depth", self.ring_depth),
            ("completion_batch", self.completion_batch),
            ("fences_amortized", self.fences_amortized),
            ("ns_shard_lock_waits", self.ns_shard_lock_waits),
            ("path_cache_hits", self.path_cache_hits),
            ("path_cache_misses", self.path_cache_misses),
            ("path_cache_invalidations", self.path_cache_invalidations),
            ("crash_captures", self.crash_captures),
            ("torn_lines", self.torn_lines),
            ("media_read_errors", self.media_read_errors),
            ("promises_declared", self.promises_declared),
            ("tier_demotions", self.tier_demotions),
            ("tier_promotions", self.tier_promotions),
            ("tier_demoted_bytes", self.tier_demoted_bytes),
            ("tier_promoted_bytes", self.tier_promoted_bytes),
            ("tier_cap_reads", self.tier_cap_reads),
            ("tier_cap_read_bytes", self.tier_cap_read_bytes),
            ("tier_cap_writes", self.tier_cap_writes),
            ("tier_cap_write_bytes", self.tier_cap_write_bytes),
            ("tier_bandwidth_deferrals", self.tier_bandwidth_deferrals),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_time_by_category() {
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, 100.0);
        s.add_time(TimeCategory::Software, 50.0);
        s.add_time(TimeCategory::Software, 25.0);
        let snap = s.snapshot();
        assert!((snap.time(TimeCategory::UserData) - 100.0).abs() < 1e-6);
        assert!((snap.time(TimeCategory::Software) - 75.0).abs() < 1e-6);
        assert!((snap.total_time_ns() - 175.0).abs() < 1e-6);
        assert!((snap.software_overhead_ns() - 75.0).abs() < 1e-6);
    }

    #[test]
    fn write_amplification_counts_all_categories() {
        let s = Stats::new();
        s.add_bytes_written(TimeCategory::UserData, 4096);
        s.add_bytes_written(TimeCategory::Journal, 4096);
        let snap = s.snapshot();
        assert_eq!(snap.total_bytes_written(), 8192);
        assert_eq!(snap.write_amplification(4096), Some(2.0));
        assert_eq!(snap.write_amplification(0), None);
    }

    #[test]
    fn delta_since_isolates_a_phase() {
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, 10.0);
        s.add_fence();
        let before = s.snapshot();
        s.add_time(TimeCategory::UserData, 5.0);
        s.add_fence();
        s.add_fence();
        let delta = s.snapshot().delta_since(&before);
        assert!((delta.time(TimeCategory::UserData) - 5.0).abs() < 1e-6);
        assert_eq!(delta.fences, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let s = Stats::new();
        s.add_time(TimeCategory::Journal, 10.0);
        s.add_bytes_written(TimeCategory::Journal, 64);
        s.add_kernel_trap();
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.total_time_ns(), 0.0);
        assert_eq!(snap.total_bytes_written(), 0);
        assert_eq!(snap.kernel_traps, 0);
    }

    #[test]
    fn thread_category_tee_tracks_own_charges_only() {
        std::thread::spawn(|| {
            let s = Stats::new();
            let t0 = Stats::thread_category_time_ns();
            s.add_time(TimeCategory::OpLog, 40.0);
            s.add_time(TimeCategory::OpLog, 2.5);
            // A second instance tees into the same thread-local.
            let s2 = Stats::new();
            s2.add_time(TimeCategory::Software, 7.5);
            let t1 = Stats::thread_category_time_ns();
            let oplog = TimeCategory::OpLog.index_in_all();
            let sw = TimeCategory::Software.index_in_all();
            assert!((t1[oplog] - t0[oplog] - 42.5).abs() < 1e-6);
            assert!((t1[sw] - t0[sw] - 7.5).abs() < 1e-6);
            // Resetting an instance leaves the thread tee monotone.
            s.reset();
            let t2 = Stats::thread_category_time_ns();
            assert!(t2[oplog] >= t1[oplog]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn delta_alias_and_counters_agree() {
        let s = Stats::new();
        s.add_fence();
        s.add_kernel_trap();
        let snap = s.snapshot();
        assert_eq!(snap.delta(&StatsSnapshot::default()), snap);
        assert_eq!(snap.delta_since(&StatsSnapshot::default()), snap);
        let counters = snap.counters();
        assert_eq!(counters.iter().find(|(n, _)| *n == "fences").unwrap().1, 1);
        assert_eq!(
            counters
                .iter()
                .find(|(n, _)| *n == "kernel_traps")
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn counters_name_every_counter_field() {
        // Every field of `StatsSnapshot` is 8 bytes wide: three 5-element
        // per-category arrays, one f64 scalar (`checkpoint_stall_ns`) and
        // N scalar u64 event counters.  `counters()` must name all N —
        // the list drifted 31 → 34 → 38 by hand before this check.
        let words = std::mem::size_of::<StatsSnapshot>() / 8;
        let scalar_counters = words - 3 * 5 - 1;
        let counters = StatsSnapshot::default().counters();
        assert_eq!(
            counters.len(),
            scalar_counters,
            "StatsSnapshot has {scalar_counters} scalar counter fields but \
             counters() names {}; a field was added without extending \
             counters() (and likely snapshot()/reset()/delta())",
            counters.len()
        );
        // Names must be unique, or the JSON exporters silently collide.
        let mut names: Vec<&str> = counters.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), counters.len(), "duplicate counter name");

        // Drive every counter to a non-zero value through the public API,
        // then check that delta() subtracts each one: a snapshot minus
        // itself must be exactly the default (a field missed in delta()
        // would survive the subtraction).
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, 1.0);
        s.add_bytes_written(TimeCategory::UserData, 1);
        s.add_bytes_read(TimeCategory::UserData, 1);
        s.add_flushes(1);
        s.add_fence();
        s.add_page_faults(1);
        s.add_huge_page_faults(1);
        s.add_kernel_trap();
        s.add_staging_inline_create();
        s.add_staging_bg_create();
        s.add_batched_relink(1);
        s.add_oplog_group_commit();
        s.add_daemon_checkpoint();
        s.add_zero_copy_read_bytes(1);
        s.add_appendv(2);
        s.add_fsync_many(1);
        s.add_journal_txn();
        s.add_shard_lock_wait();
        s.add_oplog_epoch_swap();
        s.add_oplog_epoch_truncate();
        s.add_oplog_grow();
        s.add_checkpoint_stall(1.0);
        s.add_staging_recycle();
        s.add_staging_lock_wait();
        s.add_staging_lane_steal();
        s.add_staging_adaptive_resize();
        s.add_staging_cold_relink();
        s.add_lease_acquire();
        s.add_lease_release();
        s.add_lease_conflict();
        s.add_instance_recovered();
        s.add_ring_drain(1);
        s.add_completion_batch();
        s.add_fences_amortized(1);
        s.add_ns_shard_lock_wait();
        s.add_path_cache_hit();
        s.add_path_cache_miss();
        s.add_path_cache_invalidation();
        s.add_crash_capture();
        s.add_torn_lines(1);
        s.add_media_read_error();
        s.add_promise_declared();
        s.add_tier_demotion(1);
        s.add_tier_promotion(1);
        s.add_cap_read(1);
        s.add_cap_write(1);
        s.add_tier_bandwidth_deferral();
        let snap = s.snapshot();
        for (name, value) in snap.counters() {
            assert!(value > 0, "counter {name} untouched by its add method");
        }
        assert_eq!(
            snap.delta(&snap),
            StatsSnapshot::default(),
            "delta() missed a field: snapshot minus itself must be zero"
        );
    }

    #[test]
    fn invalid_time_charges_are_ignored() {
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, -1.0);
        s.add_time(TimeCategory::UserData, f64::NAN);
        assert_eq!(s.snapshot().total_time_ns(), 0.0);
    }
}
