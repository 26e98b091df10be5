//! Time and write-volume accounting.
//!
//! The SplitFS paper's central metric is *software overhead*: the time a
//! file-system operation takes minus the time spent actually reading or
//! writing the user's data on the PM device (§5.7).  To compute this the
//! device and the file systems classify every charge into a
//! [`TimeCategory`]; [`Stats`] accumulates per-category simulated time and
//! per-category bytes written (the latter gives write amplification and PM
//! wear, which the paper uses when comparing against Strata).
//!
//! Beside the three per-category arrays, [`Stats`] carries scalar event
//! counters (fences, traps, journal commits, ...).  Each is declared
//! **once**, as a row of `counter_table!` below; the atomic cell, the
//! [`StatsSnapshot`] field, the 1:1 `add_*` recorder and the counter's
//! part of `snapshot()` / `reset()` / `delta()` are all generated from
//! that row.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Length of every per-category array.
const CATS: usize = TimeCategory::ALL.len();

thread_local! {
    /// Per-category simulated picoseconds charged **by the current
    /// thread**, across every [`Stats`] instance (mirrors the clock's
    /// thread-time tee).  The observability layer reads deltas of this
    /// around an operation span to attribute the thread's charges to
    /// that operation; absolute values are meaningless across threads.
    static THREAD_CAT_PICOS: [Cell<u64>; CATS] = const { [const { Cell::new(0) }; CATS] };
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
    /// All categories, in declaration order (used for reporting).
    pub const ALL: [TimeCategory; 5] = [
        TimeCategory::UserData,
        TimeCategory::Metadata,
        TimeCategory::Journal,
        TimeCategory::OpLog,
        TimeCategory::Software,
    ];

    /// Position of this category in [`TimeCategory::ALL`] — the index
    /// into the per-category arrays of [`StatsSnapshot`] and of
    /// [`Stats::thread_category_time_ns`].
    pub fn index_in_all(self) -> usize {
        self as usize
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

/// Expands the rows of `counter_table!` into everything that has to know
/// every counter: the [`Stats`] cells, the [`StatsSnapshot`] fields, the
/// 1:1 recorders, and `snapshot` / `reset` / `delta`.
///
/// Fields rather than an `enum Counter` index into `[AtomicU64; N]`
/// because readers name counters as public fields of the snapshot; the
/// storage type of a counter is the one `AtomicU64` in the generated
/// `Stats` below.
macro_rules! define_counters {
    ($(
        $(#[$doc:meta])* $name:ident
        $(=> $(#[$add_doc:meta])* $add:ident += $step:tt)? ;
    )*) => {
        /// Number of rows in the counter table.
        #[cfg(test)]
        const COUNTERS: usize = [$(stringify!($name)),*].len();

        /// Shared, thread-safe accumulator of simulated time and device traffic.
        #[derive(Debug, Default)]
        pub struct Stats {
            time_ps: [AtomicU64; CATS],
            bytes_written: [AtomicU64; CATS],
            bytes_read: [AtomicU64; CATS],
            $($name: AtomicU64,)*
        }

        /// A point-in-time copy of [`Stats`], plus derived metrics.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct StatsSnapshot {
            /// Simulated nanoseconds per [`TimeCategory`] (indexed by `TimeCategory::ALL` order).
            pub time_ns: [f64; CATS],
            /// Bytes written to the device per category.
            pub bytes_written: [u64; CATS],
            /// Bytes read from the device per category.
            pub bytes_read: [u64; CATS],
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Stats {
            $($(define_counters!(@recorder $name $(#[$add_doc])* $add $step);)?)*

            /// Takes a copyable snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                let load = |slot: &AtomicU64| slot.load(Ordering::Relaxed);
                StatsSnapshot {
                    time_ns: std::array::from_fn(|i| load(&self.time_ps[i]) as f64 / 1000.0),
                    bytes_written: std::array::from_fn(|i| load(&self.bytes_written[i])),
                    bytes_read: std::array::from_fn(|i| load(&self.bytes_read[i])),
                    $($name: load(&self.$name),)*
                }
            }

            /// Resets every counter to zero.
            pub fn reset(&self) {
                let per_category = [&self.time_ps, &self.bytes_written, &self.bytes_read];
                for slot in per_category.into_iter().flatten() {
                    slot.store(0, Ordering::Relaxed);
                }
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }

        impl StatsSnapshot {
            /// Element-wise difference `self - earlier`; used to measure a phase
            /// without subtracting counter fields by hand.
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                let sub = |now: &[u64; CATS], then: &[u64; CATS]| {
                    std::array::from_fn(|i| now[i].saturating_sub(then[i]))
                };
                StatsSnapshot {
                    time_ns: std::array::from_fn(|i| self.time_ns[i] - earlier.time_ns[i]),
                    bytes_written: sub(&self.bytes_written, &earlier.bytes_written),
                    bytes_read: sub(&self.bytes_read, &earlier.bytes_read),
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
    (@recorder $name:ident $(#[$doc:meta])* $add:ident 1) => {
        $(#[$doc])*
        pub fn $add(&self) {
            self.$name.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@recorder $name:ident $(#[$doc:meta])* $add:ident n) => {
        $(#[$doc])*
        pub fn $add(&self, n: u64) {
            self.$name.fetch_add(n, Ordering::Relaxed);
        }
    };
}

/// The counter table: every scalar event counter of [`Stats`], declared
/// once.  A row is the counter's doc comment and name, then — when one
/// call bumps exactly this counter — `=>`, the recorder's doc comment,
/// its name and `+= 1` (no argument) or `+= n` (a `u64` argument).  A row
/// that ends at the name is moved by a hand-written compound recorder in
/// the `impl Stats` below the table.  Row order is the order of the
/// [`StatsSnapshot`] fields.
///
/// The table is a macro handed the name of the macro to expand the rows
/// with, so that the unit tests can expand the same rows into the list of
/// recorders they drive.
macro_rules! counter_table {
    ($with:ident) => {
        $with! {
            // Device events.

            /// Number of cache-line flushes issued.
            flushes =>
                /// Records `n` cache-line flushes (`clwb`/`clflush`).
                add_flushes += n;
            /// Number of ordering fences issued.
            fences =>
                /// Records one ordering fence (`sfence`).
                add_fence += 1;
            /// Number of 4 KiB page faults taken.
            page_faults =>
                /// Records `n` 4 KiB page faults.
                add_page_faults += n;
            /// Number of 2 MiB huge-page faults taken.
            huge_page_faults =>
                /// Records `n` 2 MiB huge-page faults.
                add_huge_page_faults += n;
            /// Number of kernel traps (system calls) taken.
            kernel_traps =>
                /// Records one user/kernel boundary crossing (a system call).
                add_kernel_trap += 1;

            // U-Split background maintenance: staging-file provisioning,
            // batched relink and operation-log group commit.  They live on
            // the device's shared `Stats` so the daemon (splitfs), the
            // batched relink entry point (kernelfs) and the experiment
            // harness (bench) all observe one consistent view.

            /// Staging files created inline on the foreground write path because
            /// the pool ran dry (the failure mode the daemon exists to eliminate).
            staging_inline_creates =>
                /// Records one staging file created inline on the write path.
                add_staging_inline_create += 1;
            /// Staging files created asynchronously by a maintenance worker.
            staging_bg_creates =>
                /// Records one staging file created by a background worker.
                add_staging_bg_create += 1;
            /// Invocations of the batched relink entry point.
            batched_relinks;
            /// Total relink operations (coalesced staged runs) across all
            /// batched invocations.
            relink_batch_ops;
            /// Operation-log group commits (multiple entries, one fence).
            oplog_group_commits =>
                /// Records one operation-log group commit.
                add_oplog_group_commit += 1;
            /// Background checkpoints (relink-all plus log truncate) completed by a
            /// maintenance worker.
            daemon_checkpoints =>
                /// Records one completed background checkpoint.
                add_daemon_checkpoint += 1;

            // The vectored / zero-copy / batch-durable I/O API: bytes served
            // without a memcpy through read views (`PmemView`), gathered
            // `appendv`/`writev_at` calls, `fsync_many` batches and kernel
            // journal transactions.  They make the API's wins observable (the
            // paper's methodology: count fences and transactions, don't
            // assert).

            /// Bytes served as zero-copy borrows of device memory (no memcpy).
            zero_copy_read_bytes =>
                /// Records `n` bytes served zero-copy (no memcpy) from device memory.
                add_zero_copy_read_bytes += n;
            /// Gathered (multi-slice) `appendv` calls.
            appendv_calls;
            /// Total slices gathered across all `appendv` calls.
            appendv_slices;
            /// Batched durability (`fsync_many`) calls.
            fsync_many_calls;
            /// Total descriptors retired across all `fsync_many` calls.
            fsync_many_files;
            /// Kernel journal transactions committed (jbd2-style commits plus the
            /// forced commits an `fsync` models).
            journal_txns =>
                /// Records one kernel journal transaction commit.
                add_journal_txn += 1;

            // Multi-core scaling: shared-lock contention, operation-log
            // epoch swaps, and checkpoint stalls.  Under distinct-file
            // concurrency lock waits should stay low and checkpoint
            // stalls should be **zero** (truncation happens by epoch swap,
            // never by stopping the world).

            /// Times a shared lock the foreground and the daemon both take
            /// (the kernel inode table, the kernel journal head or the U-Split
            /// registry) was contended: a `try_lock` failed and the thread had
            /// to block.  None of these locks is sharded; the name stays
            /// because the benchmark reports it as `splitfs.shard_lock_waits`.
            shard_lock_waits =>
                /// Records one contended acquisition of such a lock (a `try_lock`
                /// failed and the thread blocked).
                add_shard_lock_wait += 1;
            /// Operation-log epoch swaps (the active log half was sealed and the
            /// empty half took over).
            oplog_epoch_swaps =>
                /// Records one operation-log epoch swap (seal of the active half).
                add_oplog_epoch_swap += 1;
            /// Sealed-epoch truncations (the sealed half was re-zeroed after its
            /// staged data was retired).
            oplog_epoch_truncates =>
                /// Records one sealed-epoch truncation.
                add_oplog_epoch_truncate += 1;
            /// On-demand growths of the operation log.
            oplog_grows =>
                /// Records one on-demand operation-log growth.
                add_oplog_grow += 1;
            /// Times a foreground writer found the log full with no epoch to swap
            /// to and no room to grow — the stop-the-world stall the epoch design
            /// exists to eliminate (must be zero under it).
            checkpoint_stalls =>
                /// Records one foreground stall on operation-log space.
                add_checkpoint_stall += 1;
            /// Staging files recycled back into the pool after being fully
            /// relinked (instead of leaking until shutdown).
            staging_recycles =>
                /// Records one staging file recycled back into the pool.
                add_staging_recycle += 1;
            /// Times a `take` found the one staging-pool lock held — by the
            /// maintenance daemon (provisioning, recycling, retire accounting)
            /// or by another writer — and had to block.
            staging_lock_waits =>
                /// Records one contended staging-pool lock acquisition (a
                /// `try_lock` on the pool failed and the taker blocked).
                add_staging_lock_wait += 1;

            // The multi-instance lease manager: how many crashed instances'
            // operation logs recovery replayed.

            /// Orphaned (crashed) instances whose operation logs were replayed.
            instances_recovered =>
                /// Records one orphaned instance whose operation log was replayed.
                add_instance_recovered += 1;

            // The asynchronous submission/completion rings: how many queued
            // submissions drains observed (their sum over drains is the
            // offered ring depth), how many drains completed two or more
            // operations as one backend batch, and how many ordering fences
            // those batches saved relative to the synchronous
            // one-fence-pair-per-write path.

            /// Total submissions popped across all ring drains (Σ batch size).
            ring_depth =>
                /// Records one ring drain that popped `n` queued submissions.
                add_ring_drain += n;
            /// Drains that posted two or more completions as one batch.
            /// Single-completion drains are not counted: the counter's purpose
            /// is to evidence *batching*, mirroring the `appendv` rule.
            completion_batch =>
                /// Records one drain that posted two or more completions as a
                /// single backend batch.
                add_completion_batch += 1;
            /// Ordering fences avoided by coalescing a batch's writes under a
            /// shared fence pair instead of fencing each write separately.
            fences_amortized =>
                /// Records `n` ordering fences avoided by batch coalescing.
                add_fences_amortized += n;

            // The kernel namespace lock and its full-path lookup cache:
            // contended acquisitions of the lock and path-cache probes that
            // hit or missed.

            /// Contended acquisitions of the namespace lock: a `try_lock`
            /// failed and the thread had to block.
            ns_shard_lock_waits =>
                /// Records one contended acquisition of the namespace lock.
                add_ns_shard_lock_wait += 1;
            /// Full-path cache probes that returned a usable (validated) entry:
            /// a deep resolve served by one probe.
            path_cache_hits =>
                /// Records one validated full-path cache hit.
                add_path_cache_hit += 1;
            /// Full-path cache probes that missed or failed generation
            /// validation, forcing a per-component directory walk.
            path_cache_misses =>
                /// Records one full-path cache miss (absent or stale entry).
                add_path_cache_miss += 1;

            // The crash-point fuzzing and fault-injection machinery: crash
            // images captured (one per explored fence boundary plus one per
            // direct `crash()` call), cache lines that survived torn under
            // `CrashPolicy::TornWrites`, checked reads that failed on an
            // injected media error, and durability promises recorded on the
            // device's ledger.

            /// Crashes injected: `capture_crash_image` calls plus in-place `crash()`es.
            crash_captures =>
                /// Records one crash-image capture.
                add_crash_capture += 1;
            /// Cache lines that survived as a torn prefix/suffix in a capture
            /// (`CrashPolicy::TornWrites`).
            torn_lines =>
                /// Records `n` cache lines surviving torn in a crash capture.
                add_torn_lines += n;
            /// Checked reads that overlapped a poisoned range and failed.
            media_read_errors =>
                /// Records one checked read failing on an injected media error.
                add_media_read_error += 1;
            /// Durability promises recorded on the ledger.
            promises_declared =>
                /// Records one durability promise declared on the ledger.
                add_promise_declared += 1;
        }
    };
}

counter_table!(define_counters);

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
        self.time_ps[cat.index_in_all()].fetch_add(picos, Ordering::Relaxed);
        THREAD_CAT_PICOS.with(|t| {
            let cell = &t[cat.index_in_all()];
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
    pub fn thread_category_time_ns() -> [f64; CATS] {
        THREAD_CAT_PICOS.with(|t| std::array::from_fn(|i| t[i].get() as f64 / 1000.0))
    }

    /// Records `n` bytes written to the device attributed to `cat`.
    pub fn add_bytes_written(&self, cat: TimeCategory, n: u64) {
        self.bytes_written[cat.index_in_all()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes read from the device attributed to `cat`.
    pub fn add_bytes_read(&self, cat: TimeCategory, n: u64) {
        self.bytes_read[cat.index_in_all()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one batched relink applying `ops` relink operations.
    pub fn add_batched_relink(&self, ops: u64) {
        self.batched_relinks.fetch_add(1, Ordering::Relaxed);
        self.relink_batch_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Records one vectored append of `slices` slices.  Single-slice
    /// calls are not counted: plain `append` delegates to `appendv`
    /// everywhere, and the counter's purpose is to evidence *gathering* —
    /// counting degenerate gathers would drown that signal.
    pub fn add_appendv(&self, slices: u64) {
        if slices < 2 {
            return;
        }
        self.appendv_calls.fetch_add(1, Ordering::Relaxed);
        self.appendv_slices.fetch_add(slices, Ordering::Relaxed);
    }

    /// Records one `fsync_many` call retiring `files` descriptors.
    pub fn add_fsync_many(&self, files: u64) {
        self.fsync_many_calls.fetch_add(1, Ordering::Relaxed);
        self.fsync_many_files.fetch_add(files, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Simulated time attributed to `cat`.
    pub fn time(&self, cat: TimeCategory) -> f64 {
        self.time_ns[cat.index_in_all()]
    }

    /// Bytes written to the device for `cat`.
    pub fn written(&self, cat: TimeCategory) -> u64 {
        self.bytes_written[cat.index_in_all()]
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
    fn delta_isolates_a_phase() {
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, 10.0);
        s.add_bytes_read(TimeCategory::Metadata, 64);
        s.add_fence();
        let before = s.snapshot();
        assert_eq!(before.delta(&StatsSnapshot::default()), before);
        s.add_time(TimeCategory::UserData, 5.0);
        s.add_bytes_read(TimeCategory::Metadata, 128);
        s.add_fence();
        s.add_fence();
        let delta = s.snapshot().delta(&before);
        assert!((delta.time(TimeCategory::UserData) - 5.0).abs() < 1e-6);
        assert_eq!(delta.total_bytes_read(), 128);
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

    /// One table row as the test sees it: the counter's name, a reader of
    /// its snapshot field, and its 1:1 recorder (`None` for a row moved
    /// by a hand-written compound recorder).
    type Row = (&'static str, fn(&StatsSnapshot) -> u64, Option<fn(&Stats)>);

    /// Expands the counter table into one [`Row`] per counter.
    macro_rules! rows {
        ($(
            $(#[$doc:meta])* $name:ident
            $(=> $(#[$add_doc:meta])* $add:ident += $step:tt)? ;
        )*) => {
            [$((stringify!($name), |snap| snap.$name, rows!(@recorder $($add $step)?)),)*]
        };
        (@recorder) => { None };
        (@recorder $add:ident 1) => { Some(|s| s.$add()) };
        (@recorder $add:ident n) => { Some(|s| s.$add(3)) };
    }

    /// The hand-written recorder that moves a table row declared without
    /// one.
    fn compound_recorder(name: &str) -> fn(&Stats) {
        match name {
            "batched_relinks" | "relink_batch_ops" => |s| s.add_batched_relink(3),
            "appendv_calls" | "appendv_slices" => |s| s.add_appendv(2),
            "fsync_many_calls" | "fsync_many_files" => |s| s.add_fsync_many(3),
            other => panic!(
                "table row `{other}` has no recorder: give it `=> add_* += 1` (or `n`) \
                 in the table, or name its compound recorder here"
            ),
        }
    }

    #[test]
    fn counters_name_every_counter_field() {
        let table: [Row; COUNTERS] = counter_table!(rows);
        for (name, field, recorder) in table {
            let s = Stats::new();
            recorder.unwrap_or_else(|| compound_recorder(name))(&s);
            let snap = s.snapshot();
            assert!(field(&snap) > 0, "{name}: its recorder left the field at 0");
            assert_eq!(
                snap.delta(&snap),
                StatsSnapshot::default(),
                "{name}: delta() of a snapshot with itself must be zero"
            );
            s.reset();
            assert_eq!(
                s.snapshot(),
                StatsSnapshot::default(),
                "{name}: reset() left it non-zero"
            );
        }
    }

    #[test]
    fn invalid_time_charges_are_ignored() {
        let s = Stats::new();
        s.add_time(TimeCategory::UserData, -1.0);
        s.add_time(TimeCategory::UserData, f64::NAN);
        assert_eq!(s.snapshot().total_time_ns(), 0.0);
    }
}
