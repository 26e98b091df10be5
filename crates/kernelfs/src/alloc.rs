//! Block allocator.
//!
//! A bitmap over the whole device tracks which 4 KiB blocks are in use.
//! Allocation prefers contiguous runs (ext4's extent-friendly behaviour):
//! [`BlockAllocator::alloc_extents`] returns as few extents as possible for
//! a request, falling back to multiple runs only when the device is
//! fragmented.  The in-memory bitmap is authoritative during operation and
//! is written through to the device (metadata traffic) so a crash-recovered
//! mount can rebuild it; the journal's `AllocBlocks`/`FreeBlocks` records
//! repair any half-written bitmap updates.
//!
//! **Requests of 2 MiB or more come back as whole 2 MiB chunks.**  A DAX
//! mapping takes one huge-page fault per 2 MiB piece that is aligned both
//! in the file and on the device, and a 4 KiB fault per page of anything
//! else (paper §3.3, §4).  So a request of at least 512 blocks first takes
//! free 2 MiB-aligned runs, cut at a chunk boundary unless the run ends the
//! request, searched from the cursor round to the cursor again.  Every run
//! but the last thus begins the next at a 2 MiB-aligned file offset.  Only
//! what no whole free chunk can hold, normally the sub-chunk remainder,
//! comes from fragments.  Taking the unaligned fragments at the cursor
//! first would leave a staging file or the operation log faulting at 4 KiB
//! for the rest of its life.
//!
//! The file system keeps one allocator behind one lock, a leaf lock: no
//! other lock is taken while it is held.

use std::sync::Arc;

use pmem::{PersistMode, PmemDevice, TimeCategory};
use vfs::{FsError, FsResult};

use crate::layout::{Superblock, BLOCK_SIZE};

/// A contiguous run of physical blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    /// First physical block of the run.
    pub start: u64,
    /// Number of blocks in the run.
    pub len: u64,
}

/// Bitmap-based block allocator over the data area `[data_start,
/// total_blocks)`.
#[derive(Debug)]
pub struct BlockAllocator {
    /// One bit per block of the device; bit set = in use.
    words: Vec<u64>,
    total_blocks: u64,
    data_start: u64,
    /// Rotating allocation cursor to spread allocations and keep appends to
    /// different files from interleaving too aggressively.
    cursor: u64,
    free_blocks: u64,
}

impl BlockAllocator {
    /// Creates an allocator for a freshly formatted device: all metadata
    /// region blocks are marked used, all data blocks free.
    pub fn format(sb: &Superblock) -> Self {
        let mut alloc = Self {
            words: vec![0u64; (sb.total_blocks as usize).div_ceil(64)],
            total_blocks: sb.total_blocks,
            data_start: sb.data_start,
            cursor: sb.data_start,
            free_blocks: sb.total_blocks,
        };
        for b in 0..sb.data_start {
            alloc.set_used(b);
        }
        alloc
    }

    /// Rebuilds the allocator from a bitmap image read from the device.
    pub fn from_bitmap_image(sb: &Superblock, image: &[u8]) -> Self {
        let mut words = vec![0u64; (sb.total_blocks as usize).div_ceil(64)];
        for (i, word) in words.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&image[i * 8..(i + 1) * 8]);
            *word = u64::from_le_bytes(bytes);
        }
        let mut alloc = Self {
            words,
            total_blocks: sb.total_blocks,
            data_start: sb.data_start,
            cursor: sb.data_start,
            free_blocks: 0,
        };
        alloc.free_blocks = (sb.data_start..sb.total_blocks)
            .filter(|&b| !alloc.is_used(b))
            .count() as u64;
        alloc
    }

    /// Serializes the bitmap into the image written to the bitmap region.
    pub fn to_bitmap_image(&self, sb: &Superblock) -> Vec<u8> {
        let mut image = vec![0u8; (sb.bitmap_blocks * BLOCK_SIZE as u64) as usize];
        for (i, word) in self.words.iter().enumerate() {
            let dst = &mut image[i * 8..(i + 1) * 8];
            dst.copy_from_slice(&word.to_le_bytes());
        }
        image
    }

    fn is_used(&self, block: u64) -> bool {
        self.words[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    fn set_used(&mut self, block: u64) {
        let word = &mut self.words[(block / 64) as usize];
        let bit = 1u64 << (block % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.free_blocks -= 1;
        }
    }

    fn set_free(&mut self, block: u64) {
        let word = &mut self.words[(block / 64) as usize];
        let bit = 1u64 << (block % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.free_blocks += 1;
        }
    }

    /// Number of free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Marks an explicit run as used (journal replay).
    pub fn mark_used(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            if b < self.total_blocks {
                self.set_used(b);
            }
        }
    }

    /// Marks an explicit run as free (journal replay / file delete).
    pub fn mark_free(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            if b >= self.data_start && b < self.total_blocks {
                self.set_free(b);
            }
        }
    }

    /// Blocks per 2 MiB huge page (with 4 KiB blocks).
    const HUGE_ALIGN: u64 = 512;

    /// Finds a free run of at least one 2 MiB chunk, and at most `want`
    /// blocks, starting on a 2 MiB boundary at or after `from`.  ext4's
    /// multi-block allocator aligns large allocations the same way, which
    /// is what makes DAX huge-page mappings possible (paper §4 discusses
    /// how fragile this is once the device fragments).
    fn find_aligned_run_from(&self, from: u64, want: u64) -> Option<BlockRun> {
        let mut b = from.max(self.data_start).div_ceil(Self::HUGE_ALIGN) * Self::HUGE_ALIGN;
        while b + Self::HUGE_ALIGN <= self.total_blocks {
            let mut len = 0;
            while b + len < self.total_blocks && !self.is_used(b + len) && len < want {
                len += 1;
            }
            if len >= Self::HUGE_ALIGN {
                return Some(BlockRun { start: b, len });
            }
            b += Self::HUGE_ALIGN;
        }
        None
    }

    fn find_run_from(&self, from: u64, want: u64) -> Option<BlockRun> {
        let mut b = from.max(self.data_start);
        while b < self.total_blocks {
            if self.is_used(b) {
                b += 1;
                continue;
            }
            let start = b;
            let mut len = 0;
            while b < self.total_blocks && !self.is_used(b) && len < want {
                len += 1;
                b += 1;
            }
            return Some(BlockRun { start, len });
        }
        None
    }

    /// The whole-chunk pass of an allocation: while `*remaining` holds at
    /// least one 2 MiB chunk, takes a free 2 MiB-aligned run, searching from
    /// the cursor to the device's end and then from the data area's start.  A
    /// run is cut at a chunk boundary unless it ends the request.  Taken
    /// runs go to `runs` and leave the cursor at their end.
    fn alloc_chunks(&mut self, runs: &mut Vec<BlockRun>, remaining: &mut u64) {
        let mut from = self.cursor;
        let mut wrapped = false;
        while *remaining >= Self::HUGE_ALIGN {
            match self.find_aligned_run_from(from, *remaining) {
                Some(mut run) => {
                    if run.len < *remaining {
                        run.len -= run.len % Self::HUGE_ALIGN;
                    }
                    for b in run.start..run.start + run.len {
                        self.set_used(b);
                    }
                    *remaining -= run.len;
                    from = run.start + run.len;
                    self.cursor = from;
                    runs.push(run);
                }
                None if !wrapped => {
                    wrapped = true;
                    from = self.data_start;
                }
                None => break,
            }
        }
    }

    /// Allocates `count` blocks, preferring a single contiguous run starting
    /// at the allocation cursor; a request of at least 2 MiB first takes
    /// whole aligned chunks (module docs).  Returns the runs actually
    /// allocated (possibly more than one when fragmented) or
    /// [`FsError::NoSpace`].
    pub fn alloc_extents(&mut self, count: u64) -> FsResult<Vec<BlockRun>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > self.free_blocks {
            return Err(FsError::NoSpace);
        }
        let mut runs = Vec::new();
        let mut remaining = count;
        self.alloc_chunks(&mut runs, &mut remaining);
        let mut from = self.cursor;
        let mut wrapped = false;
        while remaining > 0 {
            match self.find_run_from(from, remaining) {
                Some(run) if run.len > 0 => {
                    for b in run.start..run.start + run.len {
                        self.set_used(b);
                    }
                    remaining -= run.len;
                    from = run.start + run.len;
                    runs.push(run);
                }
                _ => {
                    if wrapped {
                        // Roll back this partial allocation before failing.
                        for run in &runs {
                            self.mark_free(run.start, run.len);
                        }
                        return Err(FsError::NoSpace);
                    }
                    wrapped = true;
                    from = self.data_start;
                }
            }
        }
        self.cursor = from;
        Ok(runs)
    }

    /// Writes the bitmap bytes covering each run of `runs` through to the
    /// device (metadata traffic), one non-temporal store per run, then one
    /// fence.
    pub fn persist_runs(&self, device: &Arc<PmemDevice>, sb: &Superblock, runs: &[BlockRun]) {
        if runs.is_empty() {
            return;
        }
        let bitmap_base = sb.bitmap_start * BLOCK_SIZE as u64;
        for run in runs {
            let first_byte = run.start / 8;
            let last_byte = (run.start + run.len - 1) / 8;
            let bytes: Vec<u8> = (first_byte..=last_byte)
                .map(|i| self.words[(i / 8) as usize].to_le_bytes()[(i % 8) as usize])
                .collect();
            device.write(
                bitmap_base + first_byte,
                &bytes,
                PersistMode::NonTemporal,
                TimeCategory::Metadata,
            );
        }
        device.fence(TimeCategory::Metadata);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_sb() -> Superblock {
        Superblock::compute(1 << 16, 1024).unwrap()
    }

    #[test]
    fn fresh_allocator_reserves_metadata_regions() {
        let sb = test_sb();
        let alloc = BlockAllocator::format(&sb);
        assert_eq!(alloc.free_blocks(), sb.total_blocks - sb.data_start);
        assert!(alloc.is_used(0));
        assert!(alloc.is_used(sb.data_start - 1));
        assert!(!alloc.is_used(sb.data_start));
    }

    #[test]
    fn allocates_contiguous_runs_when_possible() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let runs = alloc.alloc_extents(64).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 64);
        assert!(runs[0].start >= sb.data_start);
    }

    #[test]
    fn consecutive_allocations_do_not_overlap() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let a = alloc.alloc_extents(16).unwrap();
        let b = alloc.alloc_extents(16).unwrap();
        let a_set: std::collections::HashSet<u64> = (a[0].start..a[0].start + a[0].len).collect();
        for run in &b {
            for blk in run.start..run.start + run.len {
                assert!(!a_set.contains(&blk));
            }
        }
    }

    #[test]
    fn freeing_makes_blocks_reusable() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let before = alloc.free_blocks();
        let runs = alloc.alloc_extents(128).unwrap();
        assert_eq!(alloc.free_blocks(), before - 128);
        for run in &runs {
            alloc.mark_free(run.start, run.len);
        }
        assert_eq!(alloc.free_blocks(), before);
    }

    #[test]
    fn exhausting_the_device_returns_no_space() {
        let sb = Superblock::compute(8192, 256).unwrap();
        let mut alloc = BlockAllocator::format(&sb);
        let free = alloc.free_blocks();
        alloc.alloc_extents(free).unwrap();
        assert!(matches!(alloc.alloc_extents(1), Err(FsError::NoSpace)));
    }

    #[test]
    fn fragmented_allocation_spans_multiple_runs() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        // Consume the whole device, then free every other block of a 100-
        // block window so the only free space is single-block holes.
        let all = alloc.free_blocks();
        let runs = alloc.alloc_extents(all).unwrap();
        let start = runs[0].start;
        for i in (0..100).step_by(2) {
            alloc.mark_free(start + i, 1);
        }
        let frag = alloc.alloc_extents(10).unwrap();
        assert!(frag.len() > 1, "expected a fragmented allocation");
        assert_eq!(frag.iter().map(|r| r.len).sum::<u64>(), 10);
    }

    #[test]
    fn bitmap_image_round_trips() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        alloc.alloc_extents(37).unwrap();
        let image = alloc.to_bitmap_image(&sb);
        let rebuilt = BlockAllocator::from_bitmap_image(&sb, &image);
        assert_eq!(rebuilt.free_blocks(), alloc.free_blocks());
        for b in 0..sb.total_blocks {
            assert_eq!(rebuilt.is_used(b), alloc.is_used(b), "block {b}");
        }
    }

    #[test]
    fn a_large_allocation_persists_one_store_per_run_and_rebuilds_exactly() {
        let sb = Superblock::compute(8192, 256).unwrap();
        let device = pmem::PmemBuilder::new(8192 * BLOCK_SIZE)
            .track_persistence(false)
            .build();
        let bitmap_at = sb.bitmap_start * BLOCK_SIZE as u64;
        let mut alloc = BlockAllocator::format(&sb);
        device.write_uncharged(bitmap_at, &alloc.to_bitmap_image(&sb));

        let runs = alloc.alloc_extents(4096).unwrap();
        // A store covers a run's bitmap bytes.
        let stores: Vec<usize> = runs
            .iter()
            .map(|r| ((r.start + r.len - 1) / 8 - r.start / 8 + 1) as usize)
            .collect();
        let before = device.stats().snapshot();
        alloc.persist_runs(&device, &sb, &runs);
        let delta = device.stats().snapshot().delta(&before);
        let cost = device.cost();
        let charged: f64 =
            stores.iter().map(|&n| cost.pm_write_cost(n)).sum::<f64>() + cost.sfence_ns;
        assert_eq!(delta.fences, 1);
        assert_eq!(
            delta.written(TimeCategory::Metadata),
            stores.iter().sum::<usize>() as u64
        );
        assert!(
            (delta.time(TimeCategory::Metadata) - charged).abs() < 1e-6,
            "{} sim ns for {} stores of {stores:?} bytes",
            delta.time(TimeCategory::Metadata),
            stores.len()
        );

        // What a mount rebuilds from the device is the allocator in memory.
        let mut image = vec![0u8; (sb.bitmap_blocks * BLOCK_SIZE as u64) as usize];
        device.read_uncharged(bitmap_at, &mut image);
        let rebuilt = BlockAllocator::from_bitmap_image(&sb, &image);
        assert_eq!(rebuilt.to_bitmap_image(&sb), alloc.to_bitmap_image(&sb));
        assert_eq!(rebuilt.free_blocks(), alloc.free_blocks());
    }

    const CHUNK: u64 = BlockAllocator::HUGE_ALIGN;

    /// The first 2 MiB-aligned block of the data area.
    fn first_chunk(sb: &Superblock) -> u64 {
        sb.data_start.div_ceil(CHUNK) * CHUNK
    }

    #[test]
    fn a_large_request_skips_the_fragments_at_the_cursor_for_whole_chunks() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let c0 = first_chunk(&sb);
        // From the cursor on, the first four chunks hold only unaligned
        // fragments: the first block of each is in use.
        for chunk in 0..4 {
            alloc.mark_used(c0 + chunk * CHUNK, 1);
        }
        let runs = alloc.alloc_extents(4 * CHUNK).unwrap();
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 4 * CHUNK);
        assert_eq!(runs[0].start, c0 + 4 * CHUNK, "{runs:?}");
        for run in &runs {
            assert_eq!(run.start % CHUNK, 0, "{run:?} is not 2 MiB-aligned");
            assert_eq!(run.len % CHUNK, 0, "{run:?} is not whole chunks");
        }
    }

    #[test]
    fn aligned_runs_are_whole_chunks_unless_they_end_the_request() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let c0 = first_chunk(&sb);
        // The first aligned free run is 700 blocks long.
        alloc.mark_used(c0 + 700, 1);
        let runs = alloc.alloc_extents(1000).unwrap();
        assert_eq!((runs[0].start, runs[0].len), (c0, CHUNK));
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 1000);
        // With room behind it, a run that ends the request is not cut.
        let runs = alloc.alloc_extents(1000).unwrap();
        assert_eq!(runs.len(), 1, "{runs:?}");
        assert_eq!((runs[0].start % CHUNK, runs[0].len), (0, 1000));
    }

    #[test]
    fn the_aligned_search_wraps_to_a_chunk_behind_the_cursor() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        let c0 = first_chunk(&sb);
        // Only the unaligned head and chunk c0 are free, and the cursor is
        // past both.
        alloc.mark_used(c0 + CHUNK, sb.total_blocks - c0 - CHUNK);
        alloc.cursor = c0 + CHUNK;
        let runs = alloc.alloc_extents(CHUNK).unwrap();
        assert_eq!(runs.len(), 1, "{runs:?}");
        assert_eq!((runs[0].start, runs[0].len), (c0, CHUNK));
    }

    #[test]
    fn zero_block_allocation_is_empty() {
        let sb = test_sb();
        let mut alloc = BlockAllocator::format(&sb);
        assert!(alloc.alloc_extents(0).unwrap().is_empty());
    }
}
