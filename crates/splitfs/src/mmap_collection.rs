//! The collection of memory-mappings (paper §3.3, "Collection of mmaps").
//!
//! A single logical file served by U-Split may have its bytes spread over
//! several physical regions: parts of the original file mapped on demand in
//! 2 MiB (`MMAP_SIZE`) chunks, and regions relinked in from staging files whose
//! mappings are retained (no new page faults) after the relink.  The
//! collection tracks, per file, which byte ranges are mapped and at which
//! device offsets, so reads and overwrites can be served with loads and
//! stores without entering the kernel.
//!
//! A miss maps only the gap around it (`MmapCollection::gap_around`), not
//! the whole 2 MiB region: the retained staging mappings usually cover the
//! rest of the region already, and re-mapping them would take one page
//! fault per 4 KiB page for bytes that are already served.  This is sound
//! because a hit already trusts the collection: a mapped byte is served
//! from its segment whether or not the rest of its region is mapped, so a
//! gap-only map adds nothing a hit does not rely on.  What both rely on is
//! that whoever frees a file's blocks drops their mappings: `unlink`, and
//! a truncate, which drops everything from the new size on, including the
//! part of the old last block past the old size.  An empty
//! region is the case whose gap is the whole region, which still maps
//! whole and can take its one huge-page fault.

use std::collections::BTreeMap;

/// Granularity of on-demand target-file mappings: 2 MiB, the smallest the
/// paper supports, so every region can be served by one huge-page fault.
pub(crate) const MMAP_SIZE: u64 = 2 * 1024 * 1024;

/// Mappings U-Split creates are pre-faulted (`MAP_POPULATE`).
pub(crate) const MAP_POPULATE: bool = true;

/// A byte-granularity map from file offsets to device offsets.
#[derive(Debug, Default, Clone)]
pub struct MmapCollection {
    /// file_offset → (device_offset, len); ranges never overlap.
    segments: BTreeMap<u64, (u64, u64)>,
}

impl MmapCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct mapped segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.segments.values().map(|&(_, len)| len).sum()
    }

    /// The unmapped stretch of `[lo, hi)` around the unmapped
    /// `file_offset`, as `(start, end)`: from the end of the segment before
    /// it (or `lo`) to the start of the segment after it (or `hi`).
    pub(crate) fn gap_around(&self, file_offset: u64, lo: u64, hi: u64) -> (u64, u64) {
        let start = self
            .segments
            .range(..=file_offset)
            .next_back()
            .map_or(lo, |(&s, &(_, len))| (s + len).max(lo));
        let end = self
            .segments
            .range(file_offset + 1..)
            .next()
            .map_or(hi, |(&s, _)| s.min(hi));
        (start, end)
    }

    /// Translates a file offset to `(device_offset, contiguous_len)`.
    pub fn lookup(&self, file_offset: u64) -> Option<(u64, u64)> {
        let (&start, &(dev, len)) = self.segments.range(..=file_offset).next_back()?;
        if file_offset < start + len {
            let delta = file_offset - start;
            Some((dev + delta, len - delta))
        } else {
            None
        }
    }

    /// Returns `true` when the whole range `[offset, offset+len)` is mapped.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            match self.lookup(cur) {
                Some((_, contig)) => cur += contig.min(end - cur),
                None => return false,
            }
        }
        true
    }

    /// Removes any mapping overlapping `[offset, offset+len)`.
    pub fn remove_range(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut to_remove = Vec::new();
        let mut to_insert = Vec::new();
        for (&start, &(dev, seg_len)) in self.segments.range(..end) {
            let seg_end = start + seg_len;
            if seg_end <= offset {
                continue;
            }
            to_remove.push(start);
            if start < offset {
                to_insert.push((start, dev, offset - start));
            }
            if seg_end > end {
                to_insert.push((end, dev + (end - start), seg_end - end));
            }
        }
        for s in to_remove {
            self.segments.remove(&s);
        }
        for (s, d, l) in to_insert {
            self.segments.insert(s, (d, l));
        }
    }

    /// Inserts a mapping of `[file_offset, file_offset+len)` to
    /// `device_offset`, replacing anything it overlaps and merging with
    /// adjacent segments that are contiguous on both sides.
    pub fn insert(&mut self, file_offset: u64, device_offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.remove_range(file_offset, len);
        let mut start = file_offset;
        let mut dev = device_offset;
        let mut length = len;
        // Merge with predecessor.
        if let Some((&prev_start, &(prev_dev, prev_len))) = self.segments.range(..start).next_back()
        {
            if prev_start + prev_len == start && prev_dev + prev_len == dev {
                self.segments.remove(&prev_start);
                start = prev_start;
                dev = prev_dev;
                length += prev_len;
            }
        }
        // Merge with successor.
        if let Some((&next_start, &(next_dev, next_len))) = self.segments.range(start + 1..).next()
        {
            if start + length == next_start && dev + length == next_dev {
                self.segments.remove(&next_start);
                length += next_len;
            }
        }
        self.segments.insert(start, (dev, length));
    }

    /// Drops every mapping (called on `unlink`, §3.5).
    pub fn clear(&mut self) {
        self.segments.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_and_covers() {
        let mut c = MmapCollection::new();
        c.insert(0, 1_000_000, 4096);
        c.insert(8192, 2_000_000, 4096);
        assert_eq!(c.lookup(0), Some((1_000_000, 4096)));
        assert_eq!(c.lookup(100), Some((1_000_100, 3996)));
        assert_eq!(c.lookup(4096), None);
        assert!(c.covers(0, 4096));
        assert!(!c.covers(0, 8192));
        assert!(c.covers(8192, 4096));
        assert_eq!(c.mapped_bytes(), 8192);
    }

    #[test]
    fn contiguous_inserts_merge() {
        let mut c = MmapCollection::new();
        c.insert(0, 1_000_000, 4096);
        c.insert(4096, 1_004_096, 4096);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(8191), Some((1_008_191, 1)));
        // Non-contiguous device offsets must not merge.
        c.insert(8192, 9_000_000, 4096);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overlapping_insert_replaces_old_mapping() {
        let mut c = MmapCollection::new();
        c.insert(0, 1_000_000, 8192);
        // Relink places new physical blocks under the middle of the range.
        c.insert(4096, 5_000_000, 4096);
        assert_eq!(c.lookup(0), Some((1_000_000, 4096)));
        assert_eq!(c.lookup(4096), Some((5_000_000, 4096)));
        assert_eq!(c.mapped_bytes(), 8192);
    }

    #[test]
    fn remove_range_splits_segments() {
        let mut c = MmapCollection::new();
        c.insert(0, 1_000_000, 12288);
        c.remove_range(4096, 4096);
        assert!(c.covers(0, 4096));
        assert!(!c.covers(4096, 1));
        assert!(c.covers(8192, 4096));
        assert_eq!(c.lookup(8192), Some((1_008_192, 4096)));
    }

    #[test]
    fn clear_empties_the_collection() {
        let mut c = MmapCollection::new();
        c.insert(0, 500, 100);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn gap_around_spans_the_unmapped_stretch_of_a_region() {
        const REGION: u64 = MMAP_SIZE;
        let mut c = MmapCollection::new();
        // Empty: the whole region.
        assert_eq!(
            c.gap_around(REGION + 4096, REGION, 2 * REGION),
            (REGION, 2 * REGION)
        );
        // Between two segments.
        c.insert(REGION, 1_000_000, 8192);
        c.insert(REGION + 40_960, 9_000_000, 4096);
        assert_eq!(
            c.gap_around(REGION + 20_000, REGION, 2 * REGION),
            (REGION + 8192, REGION + 40_960)
        );
        // Clamped to the region: the segments either side lie outside it.
        let mut c = MmapCollection::new();
        c.insert(0, 5_000_000, 4096);
        c.insert(3 * REGION, 7_000_000, 4096);
        assert_eq!(
            c.gap_around(REGION + 100, REGION, 2 * REGION),
            (REGION, 2 * REGION)
        );
    }
}
