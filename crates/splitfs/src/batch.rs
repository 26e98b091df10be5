//! Relink batching: the one way staged bytes reach their target file.
//!
//! Staged extents are coalesced into runs; each run is split into a
//! block-aligned middle (moved, zero copies) and unaligned head/tail bytes
//! (copied), and every middle, head and tail becomes one [`RelinkOp`] — a
//! move or a [`CopySpan`] — of one `submit`: at most 64 ops per
//! [`kernelfs::Ext4Dax::ioctl_relink_batch`] call, each one trap and one
//! journal transaction, whatever the alignment.  An `fsync`, a background
//! checkpoint of many files and crash recovery all retire through it.

use kernelfs::{Ext4Dax, RelinkOp, BLOCK_SIZE};
use vfs::{Fd, FsResult};

use crate::state::StagedExtent;

/// Most moves and copies submitted per `ioctl_relink_batch` call: larger
/// batches amortize the journal transaction further but hold the kernel
/// lock longer.  A file with four chunks' worth of staged extents is
/// relinked in the background.
pub(crate) const RELINK_CHUNK: usize = 64;

/// Submits `moves` and `copies` through
/// [`Ext4Dax::ioctl_relink_batch`], at most [`RELINK_CHUNK`] of them per
/// call, each call one trap and one journal transaction; returns every
/// destination's size after the calls.
pub(crate) fn submit(
    kernel: &Ext4Dax,
    moves: &[RelinkOp],
    copies: &[RelinkOp],
) -> FsResult<Vec<(Fd, u64)>> {
    let mut sizes = Vec::new();
    let (mut moves, mut copies) = (moves, copies);
    while !moves.is_empty() || !copies.is_empty() {
        let (m, more_moves) = moves.split_at(moves.len().min(RELINK_CHUNK));
        let (c, more_copies) = copies.split_at(copies.len().min(RELINK_CHUNK - m.len()));
        sizes.extend(kernel.ioctl_relink_batch(m, c)?);
        (moves, copies) = (more_moves, more_copies);
    }
    Ok(sizes)
}

/// Where a run sits on the device: a `u64` offset on the retire path,
/// whose staging files are pre-mapped, and `()` in crash recovery, which
/// works from the log.  A plan's copies and retained mappings carry the
/// same type, so none can claim a device offset recovery never had.
pub trait DeviceOffset: Copy + Default {
    /// The location `skip` bytes further on.
    fn advance(self, skip: u64) -> Self;
}

impl DeviceOffset for u64 {
    fn advance(self, skip: u64) -> u64 {
        self + skip
    }
}

impl DeviceOffset for () {
    fn advance(self, _skip: u64) {}
}

/// A group of staged extents that are contiguous in the target file, in the
/// staging file and on the device, so they can be applied with a single
/// relink and served through a single retained mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedRun<D = u64> {
    /// Offset of the run within the target file.
    pub target_offset: u64,
    /// Kernel descriptor of the staging file holding the run's bytes.
    pub staging_fd: Fd,
    /// Offset of the run within the staging file.
    pub staging_offset: u64,
    /// Device offset of the run, where its planner knows one.
    pub device_offset: D,
    /// Length of the run in bytes.
    pub len: u64,
    /// Highest operation-log sequence number the run covers.
    pub max_seq: u64,
}

/// Coalesces staged extents (in operation order) into maximal runs.
pub fn coalesce(staged: &[StagedExtent]) -> Vec<StagedRun> {
    let mut runs: Vec<StagedRun> = Vec::new();
    for ext in staged {
        if let Some(last) = runs.last_mut() {
            let contiguous_target = last.target_offset + last.len == ext.target_offset;
            // On the device too: a staging file the allocator built from
            // several extents is contiguous in its offsets across a seam
            // the run's one `device_offset` cannot span.
            let contiguous_staging = last.staging_fd == ext.staging_fd
                && last.staging_offset + last.len == ext.staging_offset
                && last.device_offset + last.len == ext.device_offset;
            if contiguous_target && contiguous_staging {
                last.len += ext.len;
                last.max_seq = last.max_seq.max(ext.seq);
                continue;
            }
        }
        runs.push(StagedRun {
            target_offset: ext.target_offset,
            staging_fd: ext.staging_fd,
            staging_offset: ext.staging_offset,
            device_offset: ext.device_offset,
            len: ext.len,
            max_seq: ext.seq,
        });
    }
    runs
}

/// Partitions `runs` (in operation order) into *generations*: contiguous
/// groups whose target ranges are mutually disjoint.  A run overwriting a
/// range that an earlier run of the current group already covers starts a
/// new generation.
///
/// Each generation can be applied with one batched relink (the kernel
/// rejects overlapping ranges within a batch); applying the generations
/// **in order** preserves last-writer-wins semantics for overwrites — in
/// strict mode the same file range is routinely staged more than once
/// between fsyncs.
pub fn generations(runs: &[StagedRun]) -> Vec<&[StagedRun]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 0..runs.len() {
        let overlaps_current = runs[start..i].iter().any(|prev| {
            prev.target_offset < runs[i].target_offset + runs[i].len
                && runs[i].target_offset < prev.target_offset + prev.len
        });
        if overlaps_current {
            out.push(&runs[start..i]);
            start = i;
        }
    }
    if start < runs.len() {
        out.push(&runs[start..]);
    }
    out
}

/// A byte span applied by copying: unaligned head/tail bytes, a run whose
/// staging phase does not match the target's, or — relink disabled — a
/// whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopySpan<D = u64> {
    /// The copy as the relink ioctl takes it: from the staging file's range
    /// to the target's.
    pub op: RelinkOp,
    /// Device offset of the staged bytes, where the ablation without
    /// relink reads them before writing them through the kernel.
    pub device_offset: D,
}

/// A staging mapping retained for the target file's mmap collection: after
/// the relink the physical blocks that backed the staging range back the
/// target range, so reads keep hitting them without new page faults
/// (paper Figure 2, step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetainedMapping<D = u64> {
    /// Target-file offset the mapping now serves.
    pub target_offset: u64,
    /// Device offset of the physical blocks.
    pub device_offset: D,
    /// Length in bytes.
    pub len: u64,
}

/// Everything needed to apply a file's staged runs.
#[derive(Debug, Default)]
pub struct RelinkPlan<D = u64> {
    /// Block moves, submitted through `ioctl_relink_batch`.
    pub ops: Vec<RelinkOp>,
    /// Byte spans applied by copying: beside the moves in the same
    /// submission, or through the kernel write path without relink.
    pub copies: Vec<CopySpan<D>>,
    /// Mappings to retain in the target's collection after the moves.
    pub retained: Vec<RetainedMapping<D>>,
}

impl<D> RelinkPlan<D> {
    /// Whether the plan does nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.copies.is_empty()
    }
}

/// Plans the application of `runs` to the target file behind `target_fd`.
///
/// With `use_relink`, every run's block-aligned middle becomes a
/// [`RelinkOp`] and only unaligned head/tail bytes (or phase-mismatched
/// runs) are copied; without it (the Figure 3 ablation) everything is
/// copied, through the kernel write path.
pub fn plan<D: DeviceOffset>(
    runs: &[StagedRun<D>],
    target_fd: Fd,
    use_relink: bool,
) -> RelinkPlan<D> {
    let block = BLOCK_SIZE as u64;
    let mut plan = RelinkPlan::default();
    for run in runs {
        // `len` bytes from `skip` bytes into the run.
        let copy = |skip: u64, len: u64| CopySpan {
            op: RelinkOp {
                src_fd: run.staging_fd,
                src_offset: run.staging_offset + skip,
                dst_fd: target_fd,
                dst_offset: run.target_offset + skip,
                len,
            },
            device_offset: run.device_offset.advance(skip),
        };
        if !use_relink {
            plan.copies.push(copy(0, run.len));
            continue;
        }
        let t_start = run.target_offset;
        let t_end = run.target_offset + run.len;
        let aligned_start = t_start.div_ceil(block) * block;
        let aligned_end = (t_end / block) * block;

        // The staging allocation was phase-aligned with the target, so the
        // aligned target range corresponds to an aligned staging range.
        let phase_matches = run.staging_offset % block == t_start % block;

        if phase_matches && aligned_end > aligned_start {
            let head = aligned_start - t_start;
            let len = aligned_end - aligned_start;
            plan.ops.push(RelinkOp {
                src_fd: run.staging_fd,
                src_offset: run.staging_offset + head,
                dst_fd: target_fd,
                dst_offset: aligned_start,
                len,
            });
            plan.retained.push(RetainedMapping {
                target_offset: aligned_start,
                device_offset: run.device_offset.advance(head),
                len,
            });
            if head > 0 {
                plan.copies.push(copy(0, head));
            }
            let tail = t_end - aligned_end;
            if tail > 0 {
                plan.copies.push(copy(aligned_end - t_start, tail));
            }
        } else {
            // Fully unaligned (sub-block) run: copy it.
            plan.copies.push(copy(0, run.len));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(target: u64, staging: u64, len: u64, seq: u64) -> StagedExtent {
        StagedExtent {
            target_offset: target,
            len,
            staging_ino: 70,
            staging_fd: 10,
            staging_offset: staging,
            device_offset: 1_000_000 + staging,
            seq,
        }
    }

    #[test]
    fn contiguous_staged_extents_coalesce_into_one_run() {
        let staged = vec![
            ext(0, 0, 4096, 1),
            ext(4096, 4096, 4096, 2),
            ext(8192, 8192, 4096, 3),
        ];
        let runs = coalesce(&staged);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 12288);
        assert_eq!(runs[0].max_seq, 3);
    }

    #[test]
    fn gaps_in_target_or_staging_split_runs() {
        // Gap in the target range.
        let staged = vec![ext(0, 0, 4096, 1), ext(8192, 4096, 4096, 2)];
        assert_eq!(coalesce(&staged).len(), 2);
        // Gap in the staging range.
        let staged = vec![ext(0, 0, 4096, 1), ext(4096, 8192, 4096, 2)];
        assert_eq!(coalesce(&staged).len(), 2);
    }

    #[test]
    fn a_device_seam_inside_the_staging_file_splits_runs() {
        // Contiguous in the target and in the staging file's offsets, but
        // the staging file's second block sits elsewhere on the device.
        let mut second = ext(4096, 4096, 4096, 2);
        second.device_offset = 9_000_000;
        let runs = coalesce(&[ext(0, 0, 4096, 1), second]);
        assert_eq!(runs.len(), 2);
        let plan = plan(&runs, 7, true);
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.retained[1].target_offset, 4096);
        assert_eq!(plan.retained[1].device_offset, 9_000_000);
    }

    #[test]
    fn overlapping_runs_split_into_ordered_generations() {
        // Two overwrites of [0, 4096) with a disjoint run between them.
        let runs = coalesce(&[
            ext(0, 0, 4096, 1),
            ext(8192, 4096, 4096, 2),
            ext(0, 8192, 4096, 3),
        ]);
        assert_eq!(runs.len(), 3);
        let gens = generations(&runs);
        assert_eq!(gens.len(), 2, "overwrite of the same range splits");
        assert_eq!(gens[0].len(), 2);
        assert_eq!(gens[1].len(), 1);
        assert_eq!(gens[1][0].max_seq, 3, "the later write lands last");

        // Disjoint runs stay in one generation.
        let runs = coalesce(&[ext(0, 0, 4096, 1), ext(8192, 4096, 4096, 2)]);
        assert_eq!(generations(&runs).len(), 1);
        assert!(generations(&[]).is_empty());
    }

    #[test]
    fn aligned_runs_become_pure_relink_ops() {
        let runs = coalesce(&[ext(0, 0, 8192, 1), ext(16384, 16384, 4096, 2)]);
        let plan = plan(&runs, 42, true);
        assert_eq!(plan.ops.len(), 2);
        assert!(plan.copies.is_empty());
        assert_eq!(plan.retained.len(), 2);
        assert_eq!(plan.ops[0].dst_fd, 42);
        assert_eq!(plan.ops[0].len, 8192);
        assert_eq!(plan.ops[1].dst_offset, 16384);
    }

    #[test]
    fn unaligned_head_and_tail_are_copied() {
        // Run covering [100, 8292): head [100, 4096), middle [4096, 8192),
        // tail [8192, 8292).
        let runs = coalesce(&[ext(100, 100, 8192, 5)]);
        let plan = plan(&runs, 7, true);
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.ops[0].dst_offset, 4096);
        assert_eq!(plan.ops[0].len, 4096);
        assert_eq!(plan.copies.len(), 2);
        assert_eq!(plan.copies[0].op.len, 4096 - 100);
        assert_eq!(plan.copies[1].op.dst_offset, 8192);
        assert_eq!(plan.copies[1].op.len, 100);
        // A copy reads the staging file where the run's tail sits in it.
        assert_eq!(plan.copies[1].op.src_offset, 8192);
        assert_eq!(plan.copies[1].device_offset, 1_000_000 + 8192);
    }

    #[test]
    fn phase_mismatch_falls_back_to_copy() {
        // Target offset aligned but staging offset is not congruent.
        let mut e = ext(0, 100, 4096, 1);
        e.staging_offset = 100;
        let plan = plan(&coalesce(&[e]), 7, true);
        assert!(plan.ops.is_empty());
        assert_eq!(plan.copies.len(), 1);
    }

    #[test]
    fn relink_disabled_copies_everything() {
        let runs = coalesce(&[ext(0, 0, 8192, 1)]);
        let plan = plan(&runs, 7, false);
        assert!(plan.ops.is_empty());
        assert_eq!(plan.copies.len(), 1);
        assert_eq!(plan.copies[0].op.len, 8192);
    }
}
