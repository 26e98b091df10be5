//! Crash recovery (paper §5.3), per U-Split instance.
//!
//! In POSIX and sync modes SplitFS needs nothing beyond the kernel file
//! system's own journal recovery.  In strict (and sync-for-appends) mode,
//! an instance's operation log may hold staged writes that were durable in
//! a staging file but not yet relinked into their target when the crash
//! hit.  Each instance has its **own** log (named by its instance id, see
//! [`kernelfs::lease`]), replayed independently of every other — instance
//! B's log recovers unchanged even when instance A crashed mid-relink.
//! For one log, recovery:
//!
//! 1. reads the log's watermark records and chunk map, then scans the
//!    chunks the map marks — in **both epochs**, whatever the
//!    sealed/active geometry was at the crash — a 4 KiB block at a time,
//!    and keeps every live entry (checksum-valid and above its region's
//!    watermark), ordered by the global sequence number.  An unmarked
//!    chunk holds no live entry (the chunk-map invariant of
//!    [`crate::oplog`]), so the scan reads what was logged since the last
//!    retirement, not the whole file,
//! 2. drops entries **tagged with another instance's id** (cross-instance
//!    contamination must never replay; such entries are counted in
//!    [`RecoveryReport::foreign`]).  The instance's own entries in a log
//!    with no watermark record were written under another format: the
//!    log is refused with [`FsError::Corrupted`],
//! 3. drops entries covered by an `Invalidate` record (their relink
//!    completed before the crash) or by a `StagingRecycle` record (their
//!    staging file was re-provisioned, so its blocks hold unrelated data),
//! 4. **settles newest first**: per target file it keeps the ranges newer
//!    entries settled, so an older entry never lands on what a newer one
//!    wrote, by this replay or by a relink before the crash.  Each staging
//!    file's size and mapped block runs are read once, in one trap
//!    ([`Ext4Dax::mapped_runs`]), and every entry is split against those
//!    runs by binary search.  A staging range that is a hole was relinked
//!    already (this makes replay idempotent); an entry that straddles the
//!    end of a relinked run, whose partial last block was copied, becomes
//!    its mapped and its hole pieces.  Each still-mapped, unsettled piece
//!    becomes a staged run,
//! 5. makes **one relink submission** of every target's runs, planned by
//!    [`batch::plan`] as `fsync` plans them: aligned blocks move, partial
//!    ones are copied, and each call's journal commit is durable before
//!    step 6, and
//! 6. retires every entry step 1 found: **one** watermark record that
//!    raises both regions' watermarks to the newest entry's sequence
//!    number, under one fence, and then — no marked chunk holding a live
//!    entry now — the chunk map under a second.
//!
//! Step 6 writes two lines however much was logged: nothing that was
//! logged is zeroed.  What it leaves holds no live entry, so it can be
//! handed to a new [`OpLog`] as is, which numbers on above the
//! watermarks.  The record store is all-or-nothing under a crash: a torn
//! record fails its checksum and the one before it stays in force, so
//! either every entry stays live and the next recovery replays again, or
//! none does — never a marker retired while the staged write it covers
//! stays live.  A crash between the two fences leaves chunks marked that
//! hold nothing live, which the next recovery reads in vain and clears.
//!
//! A failure before step 6 — a media error under a staged block, say —
//! closes every descriptor recovery opened and leaves the log as it was,
//! so a later recovery replays it.
//!
//! The logs themselves say which instances need recovery: nothing but its
//! log file outlives an instance, and no record of who is alive is kept
//! on the media — after a machine crash no one is.
//! [`SplitFs::new`](crate::SplitFs::new) first claims its own instance id,
//! then runs [`recover_orphans`], which replays every log file in
//! [`SPLITFS_DIR`](crate::SPLITFS_DIR) whose id no live instance claims,
//! and last replays the log at its own id's path, as its own.  Because a
//! start claims its own id first, a single instance's restart replays its
//! predecessor's log once.  Replaying a log that holds nothing live reads
//! its three reserved slots and stores nothing.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kernelfs::{Ext4Dax, BLOCK_SIZE};
use vfs::{Fd, FileSystem, FsError, FsResult, OpenFlags};

use crate::batch::{self, StagedRun};
use crate::config::SplitConfig;
use crate::oplog::{LogEntry, LogOp, OpLog};

/// Summary of a recovery pass over one instance's log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid entries found in the log.
    pub entries_scanned: usize,
    /// Staged writes replayed into their target files.
    pub replayed: usize,
    /// Entries skipped because an `Invalidate` record covered them.
    pub invalidated: usize,
    /// Entries skipped because the staging range was already relinked.
    pub already_applied: usize,
    /// Entries skipped because their staging file was recycled after their
    /// data was retired.
    pub recycled: usize,
    /// Entries skipped because they carried another instance's id — the
    /// cross-contamination guard.  Always zero in a healthy system.
    pub foreign: usize,
}

/// The ranges of one target file that entries already visited — newer
/// ones — have settled: disjoint, keyed by start.
#[derive(Default)]
struct Settled(BTreeMap<u64, u64>);

impl Settled {
    /// Settles `[start, end)` and returns the parts of it that were still
    /// open, in order.
    fn claim(&mut self, start: u64, end: u64) -> Vec<(u64, u64)> {
        // Disjoint ranges sorted by start are sorted by end as well.
        let mut touching: Vec<(u64, u64)> = self
            .0
            .range(..=end)
            .rev()
            .take_while(|&(_, &e)| e >= start)
            .map(|(&s, &e)| (s, e))
            .collect();
        touching.reverse();
        let mut open = Vec::new();
        let (mut lo, mut hi) = (start, start);
        for (s, e) in touching {
            if s > hi {
                open.push((hi, s));
            }
            lo = lo.min(s);
            hi = hi.max(e);
            self.0.remove(&s);
        }
        if hi < end {
            open.push((hi, end));
            hi = end;
        }
        self.0.insert(lo, hi);
        open
    }
}

/// Splits the `len` bytes at `start` of a staging file into the pieces
/// its mapped block `runs` (sorted and disjoint, as
/// [`Ext4Dax::mapped_runs`] returns them) cover and the holes between
/// them, in order: `(from, to, mapped)`.
fn pieces(runs: &[(u64, u64)], start: u64, len: u64) -> Vec<(u64, u64, bool)> {
    let (block, end) = (BLOCK_SIZE as u64, start + len);
    let first = runs.partition_point(|&(b, n)| (b + n) * block <= start);
    let mut out = Vec::new();
    let mut at = start;
    for &(b, n) in &runs[first..] {
        let (s, e) = (b * block, ((b + n) * block).min(end));
        if s >= end {
            break;
        }
        if s > at {
            out.push((at, s, false));
        }
        out.push((at.max(s), e, true));
        at = e;
    }
    if at < end {
        out.push((at, end, false));
    }
    out
}

/// Replays the **default instance's** (instance 0's) operation log.
///
/// Kept for the single-instance workflows and tests; multi-instance
/// callers use [`recover_instance`] or [`recover_orphans`].  Safe to call
/// when no log exists (returns an empty report) and safe to call
/// repeatedly: replay is idempotent.
pub fn recover(kernel: &Arc<Ext4Dax>, config: &SplitConfig) -> FsResult<RecoveryReport> {
    recover_instance(kernel, config, 0)
}

/// Replays the operation log of one instance, identified by its id.
///
/// Only entries tagged with `instance_id` replay; entries carrying any
/// other id are counted as [`RecoveryReport::foreign`] and skipped, so a
/// contaminated log can never bleed one instance's staged writes into
/// another's files.
pub fn recover_instance(
    kernel: &Arc<Ext4Dax>,
    _config: &SplitConfig,
    instance_id: u32,
) -> FsResult<RecoveryReport> {
    let path = kernelfs::lease::oplog_path(instance_id);
    if !kernel.exists(&path) {
        return Ok(RecoveryReport::default());
    }
    let log_fd = kernel.open(&path, OpenFlags::read_write())?;
    let mut fds = HashMap::new();
    let replayed = replay_log(kernel, log_fd, instance_id, &mut fds);
    // Every descriptor is closed on every path.  A replay that failed —
    // a media error in a staged block, say — returned before step 6, so
    // the log still holds every entry for the next recovery.
    let closed = fds
        .into_values()
        .flatten()
        .chain([log_fd])
        .map(|fd| kernel.close(fd))
        .fold(Ok(()), FsResult::and);
    let report = replayed?;
    closed?;
    Ok(report)
}

/// Steps 1–6 over the open log `log_fd`.  Every staging and target inode
/// is opened once into `fds` (`None`: it is gone), however many entries
/// name it; the caller closes them.
fn replay_log(
    kernel: &Arc<Ext4Dax>,
    log_fd: Fd,
    instance_id: u32,
    fds: &mut HashMap<u64, Option<Fd>>,
) -> FsResult<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let device = Arc::clone(kernel.device());
    // The actual file size, not the configured one: the instance that
    // wrote the log may have been configured with another size.
    let log_size = kernel.fstat(log_fd)?.size;
    if log_size == 0 {
        return Ok(report);
    }
    let mapping = kernel.dax_map(log_fd, 0, log_size, false)?;
    let scan = OpLog::survey(&device, &mapping, log_size);
    report.entries_scanned = scan.entries.len();

    // Cross-contamination guard: this log belongs to `instance_id`, so an
    // entry tagged otherwise is corruption (or another instance's write
    // landing in the wrong file) and must not replay.
    let (entries, foreign): (Vec<LogEntry>, Vec<LogEntry>) = scan
        .entries
        .iter()
        .partition(|e| e.instance_id == instance_id);
    report.foreign = foreign.len();
    if scan.watermarks.is_none() && !entries.is_empty() {
        // Every log this code writes stores a watermark record before its
        // first entry: these entries were written under another format.
        // Foreign ones without a record are ghosts on recycled blocks,
        // which the clear below retires like any other foreign entry.
        return Err(FsError::Corrupted(format!(
            "operation log of instance {instance_id}: {} entries and no watermark record",
            entries.len()
        )));
    }

    // Highest invalidated sequence number per target file, and highest
    // recycle sequence number per staging file.
    let mut invalidated_up_to: HashMap<u64, u64> = HashMap::new();
    let mut recycled_up_to: HashMap<u64, u64> = HashMap::new();
    for entry in &entries {
        match entry.op {
            LogOp::Invalidate => {
                let slot = invalidated_up_to.entry(entry.target_ino).or_insert(0);
                *slot = (*slot).max(entry.covers);
            }
            LogOp::StagingRecycle => {
                let slot = recycled_up_to.entry(entry.staging_ino).or_insert(0);
                *slot = (*slot).max(entry.seq);
            }
            LogOp::StagedWrite => {}
        }
    }

    let mut staged: Vec<&LogEntry> = entries
        .iter()
        .filter(|e| e.op == LogOp::StagedWrite)
        .collect();
    staged.sort_by_key(|e| e.seq);

    let mut open_once = |ino: u64| {
        *fds.entry(ino)
            .or_insert_with(|| kernel.open_by_ino(ino, OpenFlags::read_write()).ok())
    };
    // Each staging file's extent map, read once: which blocks still hold
    // staged bytes, and its size, which a logged range may run past.
    let mut staging_maps: HashMap<Fd, (u64, Vec<(u64, u64)>)> = HashMap::new();
    let mut settled: HashMap<u64, Settled> = HashMap::new();
    // Per target, ordered so that ops fall into the same ioctls every time.
    let mut runs: BTreeMap<Fd, Vec<StagedRun<()>>> = BTreeMap::new();
    // Newest first: a target range is settled by the newest entry that
    // wrote it, by this replay or by a relink before the crash.
    for entry in staged.into_iter().rev() {
        if invalidated_up_to
            .get(&entry.target_ino)
            .map(|&s| entry.seq <= s)
            .unwrap_or(false)
        {
            report.invalidated += 1;
            continue;
        }
        if recycled_up_to
            .get(&entry.staging_ino)
            .map(|&s| entry.seq <= s)
            .unwrap_or(false)
        {
            // The staging file was truncated and re-provisioned after this
            // entry's data was retired: its blocks hold unrelated bytes
            // now, so the entry must not replay.
            report.recycled += 1;
            continue;
        }
        let Some(staging_fd) = open_once(entry.staging_ino) else {
            report.already_applied += 1;
            continue;
        };
        let &mut (staging_size, ref staging_runs) = match staging_maps.entry(staging_fd) {
            Entry::Occupied(map) => map.into_mut(),
            Entry::Vacant(map) => map.insert(kernel.mapped_runs(staging_fd)?),
        };
        // What of the staging range still holds the data: a completed
        // relink leaves a hole.
        let pieces = pieces(staging_runs, entry.staging_offset, entry.len);
        // The target may have been unlinked after the write was logged.
        let any_mapped = pieces.iter().any(|&(.., mapped)| mapped);
        let target_fd = any_mapped.then(|| open_once(entry.target_ino)).flatten();
        let settled = settled.entry(entry.target_ino).or_default();
        for (at, end, mapped) in pieces {
            let to_target = |staging: u64| entry.target_offset + (staging - entry.staging_offset);
            // A hole is in the target already; either way the range is this
            // entry's now.
            let open = settled.claim(to_target(at), to_target(end));
            let (true, Some(target_fd)) = (mapped, target_fd) else {
                continue;
            };
            let runs = runs.entry(target_fd).or_default();
            for (from, to) in open {
                let staging_offset = at + (from - to_target(at));
                // Only what the staging file still holds replays.
                let len = (to - from).min(staging_size.saturating_sub(staging_offset));
                if len > 0 {
                    runs.push(StagedRun {
                        target_offset: from,
                        staging_fd,
                        staging_offset,
                        device_offset: (),
                        len,
                        max_seq: entry.seq,
                    });
                }
            }
        }
        match target_fd {
            Some(_) => report.replayed += 1,
            None => report.already_applied += 1,
        }
    }
    // Settled runs are disjoint: each target's are one generation, and all
    // go in one submission, whose commits are durable before the clear.
    let (mut moves, mut copies) = (Vec::new(), Vec::new());
    for (&target_fd, runs) in &runs {
        let plan = batch::plan(runs, target_fd, true);
        moves.extend(plan.ops);
        copies.extend(plan.copies.into_iter().map(|span| span.op));
    }
    batch::submit(kernel, &moves, &copies)?;

    // Retire what the scan found: the watermark record, then the chunk
    // map, which leaves nothing live for the next instance.  An empty log
    // needs no store and no fence.
    OpLog::clear(&device, &mapping, &scan)?;
    Ok(report)
}

/// Replays the log of every instance no live instance claims — one that
/// crashed, or went away with staged writes unretired.  Each `oplog` or
/// `oplog-N` file in [`SPLITFS_DIR`](crate::SPLITFS_DIR) names its
/// instance ([`kernelfs::oplog_id`]); an unclaimed one is claimed (so two
/// concurrent starts never replay the same log, and no log is replayed
/// while its owner lives), replayed independently of every other, and
/// released.  A missing directory means there is no log to replay.
///
/// Returns one `(instance_id, report)` pair per replayed log.
pub fn recover_orphans(
    kernel: &Arc<Ext4Dax>,
    config: &SplitConfig,
) -> FsResult<Vec<(u32, RecoveryReport)>> {
    let mut ids: Vec<u32> = match kernel.readdir(crate::SPLITFS_DIR) {
        Ok(names) => names
            .iter()
            .filter_map(|name| kernelfs::oplog_id(name))
            .collect(),
        Err(FsError::NotFound) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    ids.sort_unstable();
    let mut out = Vec::new();
    for id in ids {
        if !kernel.try_claim_instance(id) {
            continue;
        }
        // A failed replay leaves the log as it was, unclaimed, so a later
        // start retries it.
        let report = recover_instance(kernel, config, id);
        kernel.release_instance(id);
        out.push((id, report?));
        kernel.device().stats().add_instance_recovered();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{pieces, Settled};

    #[test]
    fn a_claim_returns_what_was_open_and_settles_the_range() {
        let mut settled = Settled::default();
        assert_eq!(settled.claim(100, 200), vec![(100, 200)]);
        assert_eq!(settled.claim(100, 200), vec![], "settled already");
        assert_eq!(settled.claim(150, 250), vec![(200, 250)]);
        assert_eq!(settled.claim(0, 50), vec![(0, 50)]);
        // Across both settled ranges and the gap between them.
        assert_eq!(settled.claim(25, 300), vec![(50, 100), (250, 300)]);
        assert_eq!(settled.claim(0, 300), vec![]);
        // Ranges that only touch merge without overlapping.
        assert_eq!(settled.claim(300, 400), vec![(300, 400)]);
        assert_eq!(settled.0.len(), 1);
        assert_eq!(settled.0.get(&0), Some(&400));
    }

    #[test]
    fn an_entry_that_straddles_a_runs_end_replays_only_its_mapped_blocks() {
        // Blocks 0-1 and 4 are mapped; a relink moved blocks 2-3 out.
        let runs = [(0, 2), (4, 1)];
        // Inside one run: one mapped piece.
        assert_eq!(pieces(&runs, 100, 4900), [(100, 5000, true)]);
        // From the first run's last block into the hole, and on to the end
        // of the next run.
        assert_eq!(
            pieces(&runs, 6000, 14480),
            [
                (6000, 8192, true),
                (8192, 16384, false),
                (16384, 20480, true)
            ]
        );
        // Wholly in the hole, and past every run.
        assert_eq!(pieces(&runs, 9000, 100), [(9000, 9100, false)]);
        assert_eq!(pieces(&runs, 20480, 20), [(20480, 20500, false)]);
    }
}
