//! The user-space half of the relink primitive (paper §3.3, Figure 2):
//! the one way staged bytes are retired.
//!
//! On `fsync`, `fsync_many`, `close`, an operation-log checkpoint or a
//! background relink, `SplitFs::relink_batch` moves every staged extent of
//! the files it is given into their targets — and crash recovery replays
//! what a log still holds through the same planner and submission
//! ([`crate::recovery`]):
//!
//! * staged extents are coalesced into runs and planned by
//!   [`crate::batch`]: block-aligned portions become [`kernelfs::RelinkOp`]
//!   moves, unaligned head/tail bytes (the paper's partial-block case)
//!   copies, all submitted through the **batched**
//!   [`kernelfs::Ext4Dax::ioctl_relink_batch`] — one trap and one journal
//!   transaction per 64 ops, however many files and whatever their
//!   alignment; the call returns the targets' new sizes;
//! * the mappings that served the staged data are retained in the target
//!   file's collection of mmaps, so later reads hit the same physical
//!   blocks without new page faults;
//! * in sync/strict mode each file's `Invalidate` entry, so recovery will
//!   not replay the applied writes, group-commits under one fence under the
//!   batch's locks; a full log leaves it due, settled before the next change
//!   that bypasses the log (a sync-mode overwrite in place, a cut).
//!
//! With `use_relink` disabled (Figure 3 ablation) the staged data is copied
//! into the target through the kernel write path instead, one `write_at`
//! per span and an `fstat` per file, which is exactly the "staging without
//! relink" configuration whose cost the paper measures.
//!
//! Staged bytes that are dropped rather than applied leave through
//! `SplitFs::discard_staged`, beside it.

use std::ops::DerefMut;

use kernelfs::RelinkOp;
use pmem::{AccessPattern, TimeCategory};
use vfs::{Fd, FileSystem, FsResult};

use crate::batch::{self, RelinkPlan};
use crate::fs::SplitFs;
use crate::oplog::{LogEntry, LogOp};
use crate::state::FileState;

impl SplitFs {
    /// The one retire pipeline: applies every staged extent of `states` —
    /// file states whose write locks the caller holds — to the target
    /// files through a single batched relink, so one kernel trap and one
    /// journal transaction cover an `fsync`, an `fsync_many` or a ring's
    /// files alike, and the sizes it returns refresh each file's kernel
    /// size.  In POSIX mode one fence before the first submission drains
    /// the staged bytes, which no append fenced, ahead of the journal
    /// record that makes them part of a file; sync and strict mode fenced
    /// each staged byte before its log entry, and without relink the
    /// kernel's write path copies the bytes under its own commit fence.
    /// The files' `Invalidate` markers commit under one more, under the
    /// locks ([`SplitFs::commit_due`]).
    ///
    /// Runs that overwrite one another (strict-mode overwrites of one
    /// range between two fsyncs) split a file into ordered generations;
    /// all but the last go down on their own, in order, which gives
    /// last-writer-wins.  A file's last generation — for an append-only
    /// file the only one — joins the submission every file shares.
    pub(crate) fn relink_batch<S: DerefMut<Target = FileState>>(
        &self,
        states: &mut [S],
    ) -> FsResult<()> {
        let use_relink = self.config.use_relink;
        // The copies a plan hands the kernel beside its moves.
        let kernel_copies = |plan: &RelinkPlan| -> Vec<RelinkOp> {
            if use_relink {
                plan.copies.iter().map(|span| span.op).collect()
            } else {
                Vec::new()
            }
        };
        let apply = |st: &mut FileState, plan: &RelinkPlan, sizes: &[(Fd, u64)]| -> FsResult<()> {
            // Retain the staging mappings: the physical blocks that backed
            // the staging ranges now back the target ranges, so reads keep
            // using them without faulting (Figure 2, step 3).
            for m in &plan.retained {
                st.mmaps.insert(m.target_offset, m.device_offset, m.len);
            }
            if !use_relink {
                // The Figure 3 ablation, the configuration the paper
                // measures: every staged byte goes through the kernel's
                // write path.  A media error under the staged bytes fails
                // the call before anything is written.
                for span in &plan.copies {
                    let mut buf = vec![0u8; span.op.len as usize];
                    self.device.try_read(
                        span.device_offset,
                        &mut buf,
                        AccessPattern::Sequential,
                        TimeCategory::UserData,
                    )?;
                    self.kernel
                        .write_at(st.kernel_fd, span.op.dst_offset, &buf)?;
                }
            }
            for &(fd, size) in sizes {
                if fd == st.kernel_fd {
                    st.kernel_size = st.kernel_size.max(size);
                }
            }
            Ok(())
        };

        let mut unfenced = use_relink && !self.config.mode.fences_data_ops();
        let mut submit = |ops: &[RelinkOp], copies: &[RelinkOp]| {
            if std::mem::take(&mut unfenced) {
                self.device.fence(TimeCategory::UserData);
            }
            batch::submit(&self.kernel, ops, copies)
        };

        let mut shared: Vec<RelinkOp> = Vec::new();
        let mut shared_copies: Vec<RelinkOp> = Vec::new();
        let mut planned: Vec<(usize, RelinkPlan)> = Vec::new();
        for (i, st) in states.iter_mut().enumerate() {
            let st = &mut **st;
            let runs = batch::coalesce(&st.staged);
            let generations = batch::generations(&runs);
            let Some((last, earlier)) = generations.split_last() else {
                continue;
            };
            for generation in earlier {
                let plan = batch::plan(generation, st.kernel_fd, use_relink);
                let sizes = submit(&plan.ops, &kernel_copies(&plan))?;
                apply(st, &plan, &sizes)?;
            }
            let plan = batch::plan(last, st.kernel_fd, use_relink);
            shared.extend_from_slice(&plan.ops);
            shared_copies.extend(kernel_copies(&plan));
            planned.push((i, plan));
        }
        if !planned.is_empty() {
            let sizes = submit(&shared, &shared_copies)?;
            let mut retired = 0u64;
            // Noted once for the batch, also when a file fails.
            let staged = planned.iter().map(|(i, _)| states[*i].staged.len());
            let mut freed = Vec::with_capacity(staged.sum());
            let applied = planned.iter().try_for_each(|(i, plan)| -> FsResult<()> {
                let st = &mut *states[*i];
                apply(st, plan, &sizes)?;
                // Everything staged is in the target file now.
                retired += st.staged.len() as u64;
                for ext in st.staged.drain(..) {
                    st.invalidate_due = st.invalidate_due.max(ext.seq);
                    freed.push((ext.staging_ino, ext.len));
                }
                if !use_relink {
                    // The kernel's write path reports no file size.
                    st.kernel_size = self.kernel.fstat(st.kernel_fd)?.size;
                }
                st.cached_size = st.cached_size.max(st.kernel_size);
                Ok(())
            });
            self.staging.note_retired(freed);
            applied?;
            // The staged bytes are durable and the batch's journal
            // transaction is complete.
            self.device.declare(pmem::Promise::RelinkCommitted {
                instance: self.instance_id,
                ops: retired,
            });
        }
        // One that does not commit stays due, for an unlogged change to settle.
        let _ = self.commit_due(states);
        Ok(())
    }

    /// Readies `st` for a cut to `size`: applies the staged extents if the
    /// cut would cut any, then settles the due marker, since replaying a
    /// copied partial block after the unlogged cut would bring cut bytes
    /// back.  `Ok(false)`: the log is full; the caller releases the lock,
    /// waits on [`SplitFs::checkpoint_for_room`] and calls again.
    pub(crate) fn apply_before_cut(&self, st: &mut FileState, size: u64) -> FsResult<bool> {
        if st.staged.iter().any(|e| e.target_offset + e.len > size) {
            self.relink_batch(&mut [&mut *st])?;
        }
        self.commit_due(&mut [st])
    }

    /// Drops every staged extent of `st` **without** applying it (the file
    /// lost its name and its last descriptor), feeds the staging pool's
    /// recyclability accounting and commits the marker as a relink does.
    /// A marker a full log leaves due is moot by rule: recovery skips an
    /// entry whose target inode is gone, a mount reuses no number before
    /// a crash (`inode_numbers_are_reused_only_after_a_remount`, kernelfs)
    /// and `SplitFs::new` replays every log before its first create
    /// (`build_instance_resources`).  Called with the state's write lock.
    pub(crate) fn discard_staged(&self, st: &mut FileState) {
        let due = &mut st.invalidate_due;
        self.staging.note_retired(st.staged.drain(..).map(|e| {
            *due = (*due).max(e.seq);
            (e.staging_ino, e.len)
        }));
        let _ = self.commit_due(&mut [st]);
    }

    /// Group-commits the due `Invalidate` markers of `states`, whose write
    /// locks the caller holds, under one fence ([`SplitFs::commit_group`]).
    /// `Ok(false)`: the log is full and every marker stays due.
    pub(crate) fn commit_due<S: DerefMut<Target = FileState>>(
        &self,
        states: &mut [S],
    ) -> FsResult<bool> {
        let mut markers: Vec<LogEntry> = states
            .iter()
            .filter(|st| st.invalidate_due > 0)
            .map(|st| LogEntry {
                target_ino: st.ino,
                covers: st.invalidate_due,
                ..LogEntry::new(LogOp::Invalidate, self.instance_id)
            })
            .collect();
        let Some(oplog) = self.oplog.as_ref().filter(|_| !markers.is_empty()) else {
            return Ok(true);
        };
        let committed = self.commit_group(oplog, &mut markers)?;
        if committed {
            states.iter_mut().for_each(|st| st.invalidate_due = 0);
        }
        Ok(committed)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vfs::{FileSystem, FsError, OpenFlags};

    use crate::{Mode, SplitConfig, SplitFs};

    #[test]
    fn media_error_under_a_staged_tail_fails_fsync_and_keeps_the_extents() {
        let device = pmem::PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let config = SplitConfig::new(Mode::Strict).with_staging(2, 4 * 1024 * 1024);
        let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();

        let committed = vec![0xC0u8; 4096];
        let tail = vec![0x7Au8; 300];
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.append(fd, &committed).unwrap();
        fs.fsync(fd).unwrap();
        fs.append(fd, &tail).unwrap();

        let state = Arc::clone(&fs.fds.get(fd).unwrap().state);
        let staged_at = state.read().staged.last().unwrap().device_offset;
        device.poison_range(staged_at, 64);
        match fs.fsync(fd) {
            Err(FsError::Io(msg)) => assert!(msg.contains("media read error"), "{msg}"),
            other => panic!("fsync over a poisoned staged tail returned {other:?}"),
        }
        assert_eq!(state.read().staged.len(), 1, "the tail stays staged");
        assert_eq!(kernel.read_file("/f").unwrap(), committed);

        device.clear_poison();
        fs.fsync(fd).unwrap();
        assert!(state.read().staged.is_empty());
        assert_eq!(
            kernel.read_file("/f").unwrap(),
            [committed, tail].concat(),
            "the retry applies the tail once the media reads again"
        );
    }
}
