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
//! request, from any shard (the home shard first, then the others), and
//! searched from the shard's cursor round to the cursor again.  Every run
//! but the last thus begins the next at a 2 MiB-aligned file offset.  Only
//! what no whole free chunk can hold, normally the sub-chunk remainder,
//! comes from fragments.  Taking a shard's unaligned fragments first would
//! leave a staging file or the operation log faulting at 4 KiB for the rest
//! of its life.

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

/// Bitmap-based block allocator over a block region `[region_lo,
/// region_hi)`.  The whole-device constructors ([`BlockAllocator::format`],
/// [`BlockAllocator::from_bitmap_image`]) cover the full data area; the
/// `_region` variants restrict search and accounting to a slice of it, so
/// a [`ShardedAllocator`] can run one allocator per shard without the
/// shards ever touching the same bitmap words.
#[derive(Debug)]
pub struct BlockAllocator {
    /// One bit per block of the device; bit set = in use.  Only the bits
    /// inside `[region_lo, region_hi)` are meaningful for a region-scoped
    /// allocator.
    words: Vec<u64>,
    total_blocks: u64,
    data_start: u64,
    /// First block this allocator may hand out.
    region_lo: u64,
    /// One past the last block this allocator may hand out.
    region_hi: u64,
    /// Rotating allocation cursor to spread allocations and keep appends to
    /// different files from interleaving too aggressively.
    cursor: u64,
    free_blocks: u64,
}

impl BlockAllocator {
    /// Creates an allocator for a freshly formatted device: all metadata
    /// region blocks are marked used, all data blocks free.
    pub fn format(sb: &Superblock) -> Self {
        Self::format_region(sb, sb.data_start, sb.total_blocks)
    }

    /// Creates a fresh allocator restricted to blocks `[lo, hi)`.
    pub fn format_region(sb: &Superblock, lo: u64, hi: u64) -> Self {
        let words = vec![0u64; (sb.total_blocks as usize).div_ceil(64)];
        let mut alloc = Self {
            words,
            total_blocks: sb.total_blocks,
            data_start: sb.data_start,
            region_lo: lo,
            region_hi: hi,
            cursor: lo,
            free_blocks: sb.total_blocks,
        };
        // Reserve the metadata regions and any tail bits beyond the device.
        for b in 0..sb.data_start {
            alloc.set_used(b);
        }
        alloc.free_blocks = hi.saturating_sub(lo);
        alloc
    }

    /// Rebuilds the allocator from a bitmap image read from the device.
    pub fn from_bitmap_image(sb: &Superblock, image: &[u8]) -> Self {
        Self::from_bitmap_image_region(sb, image, sb.data_start, sb.total_blocks)
    }

    /// Rebuilds a region-scoped allocator from a bitmap image.
    pub fn from_bitmap_image_region(sb: &Superblock, image: &[u8], lo: u64, hi: u64) -> Self {
        let mut words = vec![0u64; (sb.total_blocks as usize).div_ceil(64)];
        for (i, word) in words.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            let src = &image[i * 8..(i + 1) * 8];
            bytes.copy_from_slice(src);
            *word = u64::from_le_bytes(bytes);
        }
        let mut free = 0;
        for b in lo..hi {
            if words[(b / 64) as usize] & (1 << (b % 64)) == 0 {
                free += 1;
            }
        }
        Self {
            words,
            total_blocks: sb.total_blocks,
            data_start: sb.data_start,
            region_lo: lo,
            region_hi: hi,
            cursor: lo,
            free_blocks: free,
        }
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
        let mut b = from.max(self.region_lo).div_ceil(Self::HUGE_ALIGN) * Self::HUGE_ALIGN;
        while b + Self::HUGE_ALIGN <= self.region_hi {
            let mut len = 0;
            while b + len < self.region_hi && !self.is_used(b + len) && len < want {
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
        let mut b = from.max(self.region_lo);
        while b < self.region_hi {
            if self.is_used(b) {
                b += 1;
                continue;
            }
            let start = b;
            let mut len = 0;
            while b < self.region_hi && !self.is_used(b) && len < want {
                len += 1;
                b += 1;
            }
            return Some(BlockRun { start, len });
        }
        None
    }

    /// The whole-chunk pass of an allocation: while `*remaining` holds at
    /// least one 2 MiB chunk, takes a free 2 MiB-aligned run, searching from
    /// the cursor to the region's end and then from the region's start.  A
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
                    from = self.region_lo;
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
                    from = self.region_lo;
                }
            }
        }
        self.cursor = from;
        Ok(runs)
    }

    /// Stores the bitmap bytes covering each run of `runs` (metadata
    /// traffic), one non-temporal store per run, so the on-device bitmap
    /// tracks the in-memory one once the caller fences.
    fn store_runs(&self, device: &Arc<PmemDevice>, sb: &Superblock, runs: &[BlockRun]) {
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
    }
}

/// Maximum number of allocator shards.  The data area is split into up to
/// this many 2 MiB-aligned regions, each behind its own lock, so
/// allocations for different inode shards never serialize on one bitmap
/// lock (and never write the same bitmap word).
pub const ALLOC_SHARDS: usize = 8;

/// A block allocator sharded into per-region sub-allocators.
///
/// `hint` (the inode number) steers an allocation to a home shard; when
/// that shard runs dry the request spills into the others, so the sharded
/// allocator refuses an allocation only when the whole device is full.
/// Regions are 2 MiB-aligned: shards never share a bitmap word, so
/// concurrent `persist_runs` calls from different shards cannot clobber
/// each other's on-device bitmap bytes.
#[derive(Debug)]
pub struct ShardedAllocator {
    shards: Vec<parking_lot::Mutex<BlockAllocator>>,
    /// `(lo, hi)` block bounds per shard.
    regions: Vec<(u64, u64)>,
}

impl ShardedAllocator {
    fn region_bounds(sb: &Superblock) -> Vec<(u64, u64)> {
        // Interior boundaries must be **absolute** multiples of the 2 MiB
        // alignment unit (which is also a multiple of the 64-block bitmap
        // word): `data_start` itself is arbitrary, and a boundary inside a
        // bitmap word would let two shards persist the same on-device
        // bitmap byte from diverging private copies.
        let align = BlockAllocator::HUGE_ALIGN;
        let aligned_base = sb.data_start.div_ceil(align) * align;
        let aligned_blocks = sb.total_blocks.saturating_sub(aligned_base);
        let shards = ((aligned_blocks / align) as usize).clamp(1, ALLOC_SHARDS);
        if shards == 1 || aligned_blocks == 0 {
            return vec![(sb.data_start, sb.total_blocks)];
        }
        let per = (aligned_blocks / shards as u64) / align * align;
        let mut out = Vec::with_capacity(shards);
        for i in 0..shards as u64 {
            // Shard 0 absorbs the unaligned head below `aligned_base`.
            let lo = if i == 0 {
                sb.data_start
            } else {
                aligned_base + i * per
            };
            let hi = if i == shards as u64 - 1 {
                sb.total_blocks
            } else {
                aligned_base + (i + 1) * per
            };
            out.push((lo, hi));
        }
        out
    }

    /// Creates a sharded allocator for a freshly formatted device.
    pub fn format(sb: &Superblock) -> Self {
        let regions = Self::region_bounds(sb);
        let shards = regions
            .iter()
            .map(|&(lo, hi)| parking_lot::Mutex::new(BlockAllocator::format_region(sb, lo, hi)))
            .collect();
        Self { shards, regions }
    }

    /// Rebuilds the sharded allocator from a bitmap image.
    pub fn from_bitmap_image(sb: &Superblock, image: &[u8]) -> Self {
        let regions = Self::region_bounds(sb);
        let shards = regions
            .iter()
            .map(|&(lo, hi)| {
                parking_lot::Mutex::new(BlockAllocator::from_bitmap_image_region(sb, image, lo, hi))
            })
            .collect();
        Self { shards, regions }
    }

    /// Serializes the merged bitmap (metadata prefix plus every shard's
    /// region bits) into the image written to the bitmap region.
    pub fn to_bitmap_image(&self, sb: &Superblock) -> Vec<u8> {
        let mut image = vec![0u8; (sb.bitmap_blocks * BLOCK_SIZE as u64) as usize];
        // Metadata blocks are always in use.
        for b in 0..sb.data_start {
            image[(b / 8) as usize] |= 1 << (b % 8);
        }
        for (shard, &(lo, hi)) in self.shards.iter().zip(&self.regions) {
            let guard = shard.lock();
            for b in lo..hi {
                if guard.is_used(b) {
                    image[(b / 8) as usize] |= 1 << (b % 8);
                }
            }
        }
        image
    }

    fn shard_of(&self, block: u64) -> usize {
        self.regions
            .iter()
            .position(|&(lo, hi)| block >= lo && block < hi)
            .unwrap_or(self.regions.len() - 1)
    }

    /// Total free data blocks across all shards.
    pub fn free_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().free_blocks()).sum()
    }

    /// Allocates `count` blocks, preferring the shard `hint` maps to and
    /// spilling into the others when it runs dry.  A request of at least
    /// 2 MiB first takes whole aligned chunks from every shard in that
    /// order, before any shard's fragments (module docs).
    pub fn alloc_extents(&self, hint: u64, count: u64) -> FsResult<Vec<BlockRun>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let n = self.shards.len();
        let order = (0..n).map(|k| (hint as usize + k) % n);
        let mut runs: Vec<BlockRun> = Vec::new();
        let mut remaining = count;
        if count >= BlockAllocator::HUGE_ALIGN {
            for idx in order.clone() {
                self.shards[idx]
                    .lock()
                    .alloc_chunks(&mut runs, &mut remaining);
            }
        }
        for idx in order {
            if remaining == 0 {
                return Ok(runs);
            }
            let mut shard = self.shards[idx].lock();
            let avail = shard.free_blocks();
            if avail == 0 {
                continue;
            }
            let take = remaining.min(avail);
            if let Ok(got) = shard.alloc_extents(take) {
                remaining -= take;
                runs.extend(got);
            }
        }
        if remaining == 0 {
            return Ok(runs);
        }
        // Not enough space anywhere: roll back what was taken.
        for run in &runs {
            self.mark_free(run.start, run.len);
        }
        Err(FsError::NoSpace)
    }

    /// Splits `[start, start+len)` at shard-region boundaries.
    fn split_by_region(&self, start: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        let mut b = start;
        let end = start + len;
        while b < end {
            let idx = self.shard_of(b);
            let (_, hi) = self.regions[idx];
            let chunk = (end - b).min(hi.saturating_sub(b).max(1));
            out.push((idx, b, chunk));
            b += chunk;
        }
        out
    }

    /// Marks an explicit run as used (journal replay).
    pub fn mark_used(&self, start: u64, len: u64) {
        for (idx, b, chunk) in self.split_by_region(start, len) {
            self.shards[idx].lock().mark_used(b, chunk);
        }
    }

    /// Marks an explicit run as free (journal replay / file delete).
    pub fn mark_free(&self, start: u64, len: u64) {
        for (idx, b, chunk) in self.split_by_region(start, len) {
            self.shards[idx].lock().mark_free(b, chunk);
        }
    }

    /// Writes the bitmap bytes covering `runs` through to the device, one
    /// store per run and shard, then one fence.  Each run is stored under
    /// its owning shard's lock; interior region boundaries are absolute
    /// 2 MiB (and hence bitmap-word) multiples, so shards never write each
    /// other's bitmap bytes.
    pub fn persist_runs(&self, device: &Arc<PmemDevice>, sb: &Superblock, runs: &[BlockRun]) {
        if runs.is_empty() {
            return;
        }
        for run in runs {
            for (idx, b, chunk) in self.split_by_region(run.start, run.len) {
                self.shards[idx].lock().store_runs(
                    device,
                    sb,
                    &[BlockRun {
                        start: b,
                        len: chunk,
                    }],
                );
            }
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
        let alloc = ShardedAllocator::format(&sb);
        device.write_uncharged(bitmap_at, &alloc.to_bitmap_image(&sb));

        let runs = alloc.alloc_extents(3, 4096).unwrap();
        // A store covers a run's bitmap bytes within one shard's region.
        let stores: Vec<usize> = runs
            .iter()
            .flat_map(|r| alloc.split_by_region(r.start, r.len))
            .map(|(_, b, len)| ((b + len - 1) / 8 - b / 8 + 1) as usize)
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
        let rebuilt = ShardedAllocator::from_bitmap_image(&sb, &image);
        assert_eq!(rebuilt.to_bitmap_image(&sb), alloc.to_bitmap_image(&sb));
        assert_eq!(rebuilt.free_blocks(), alloc.free_blocks());
    }

    #[test]
    fn shard_region_boundaries_never_split_a_bitmap_word() {
        // data_start is not a multiple of 64 under realistic layouts; the
        // interior shard boundaries still must be, or two shards would
        // persist the same on-device bitmap byte from private copies.
        let sb = test_sb();
        assert_ne!(sb.data_start % 64, 0, "layout exercises the unaligned case");
        let sharded = ShardedAllocator::format(&sb);
        assert!(sharded.regions.len() > 1);
        // Contiguous cover of the whole data area.
        assert_eq!(sharded.regions.first().unwrap().0, sb.data_start);
        assert_eq!(sharded.regions.last().unwrap().1, sb.total_blocks);
        for pair in sharded.regions.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "regions are contiguous");
            assert_eq!(
                pair[0].1 % 64,
                0,
                "interior boundary {} splits a bitmap word",
                pair[0].1
            );
        }
        // Allocations from two adjacent shards persist without clobbering
        // each other: fill shard 0 so it spills nothing, allocate at the
        // head of shard 1, and check both survive a bitmap round trip.
        let a = sharded.alloc_extents(0, 16).unwrap();
        let b = sharded.alloc_extents(1, 16).unwrap();
        let image = sharded.to_bitmap_image(&sb);
        let rebuilt = ShardedAllocator::from_bitmap_image(&sb, &image);
        assert_eq!(rebuilt.free_blocks(), sharded.free_blocks());
        for run in a.iter().chain(b.iter()) {
            for blk in run.start..run.start + run.len {
                let byte = image[(blk / 8) as usize];
                assert_ne!(byte & (1 << (blk % 8)), 0, "block {blk} lost");
            }
        }
    }

    const CHUNK: u64 = BlockAllocator::HUGE_ALIGN;

    /// The first 2 MiB-aligned block of the data area.
    fn first_chunk(sb: &Superblock) -> u64 {
        sb.data_start.div_ceil(CHUNK) * CHUNK
    }

    #[test]
    fn a_large_request_takes_whole_aligned_chunks_from_any_shard() {
        let sb = test_sb();
        let sharded = ShardedAllocator::format(&sb);
        // The home shard keeps only unaligned fragments: the first block of
        // each of its chunks is in use.  The next shard is empty.
        let home = 1;
        let (lo, hi) = sharded.regions[home];
        for chunk in (lo..hi).step_by(CHUNK as usize) {
            sharded.mark_used(chunk, 1);
        }
        let runs = sharded.alloc_extents(home as u64, 4 * CHUNK).unwrap();
        assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), 4 * CHUNK);
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
