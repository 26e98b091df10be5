//! Inodes and extent maps.
//!
//! Each file's mapping from logical 4 KiB blocks to physical device blocks
//! is an extent map (a sorted map of contiguous runs), the same structure
//! ext4 uses and the structure the relink primitive manipulates: relink is
//! nothing more than an atomic exchange of extent-map ranges between two
//! inodes.
//!
//! Inodes are persisted as fixed 256-byte records in the inode table; maps
//! with more extents than fit inline spill into a chain of overflow blocks
//! allocated from the data area.
//!
//! # Persisting by changed lines
//!
//! An inode keeps the images its last persist stored (`Inode::stored`):
//! the record and, per chain index, the overflow block and its image.  A
//! charged persist writes only the 64-byte lines of the new images that
//! differ from that copy (`changed_lines`); a record with no copy, or a
//! chain index whose block number changed, is written whole.  A relink
//! that adds one extent to a long map therefore writes a few lines, not
//! every 4 KiB block of the chain.
//!
//! This rests on one invariant: **the copy equals the device bytes of
//! every line it covers.**  It holds because:
//!
//! * `Ext4Dax::persist_inode` is the only writer of a live inode's record
//!   and chain — a chain block is neither data nor another chain's while
//!   it is in one (mount marks every loaded chain block used whatever the
//!   bitmap says, and a trimmed block goes back to the allocator only
//!   after the record that drops it is fenced);
//! * a freed inode's record is zeroed only after the inode has left the
//!   inode table, and a new inode starts with no copy;
//! * every store is fenced before the persist returns.
//!
//! Under it the media image after each persist is byte-identical to a
//! whole rewrite's: the skipped stores would have written the bytes
//! already there.  So no crash state is added under any `CrashPolicy`,
//! and fewer lines are in flight for `TornWrites` to tear.

use std::collections::BTreeMap;
use std::ops::Range;

use pmem::CACHE_LINE;
use vfs::util::{ByteReader, ByteWriter};
use vfs::{FsError, FsResult};

use crate::alloc::BlockRun;
use crate::layout::{BLOCK_SIZE, INODE_RECORD_SIZE};

/// Number of extents stored inline in the 256-byte inode record.
pub const INLINE_EXTENTS: usize = 9;

/// Number of extents stored in one overflow block.
pub const EXTENTS_PER_OVERFLOW: usize = (BLOCK_SIZE - 12) / 24;

/// A contiguous mapping of logical file blocks to physical device blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First logical block within the file.
    pub logical: u64,
    /// First physical block on the device.
    pub phys: u64,
    /// Number of blocks.
    pub len: u64,
}

/// The kind of object an inode describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// An in-memory inode.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number.
    pub ino: u64,
    /// File or directory.
    pub kind: InodeKind,
    /// Link count.
    pub nlink: u32,
    /// Size in bytes (for directories: the byte length of the dirent area).
    pub size: u64,
    /// Logical-to-physical extent map.
    pub extents: ExtentMap,
    /// Overflow blocks currently holding spilled extents (persisted chain).
    pub overflow_blocks: Vec<u64>,
    /// The images the last persist stored, as [`Inode::serialize`] built
    /// them; `None` before the first persist.  See the module doc.
    pub(crate) stored: Option<InodeImages>,
}

/// An inode's serialized form: its table record and, per chain index,
/// the overflow block and its image.  Only a map that spills has a chain,
/// so only such a map costs heap images.
pub type InodeImages = ([u8; INODE_RECORD_SIZE], Vec<(u64, Vec<u8>)>);

/// Writes one extent as `(logical, phys, len)`.
fn put_extent(w: &mut ByteWriter<'_>, ext: Extent) {
    w.put_u64(ext.logical);
    w.put_u64(ext.phys);
    w.put_u64(ext.len);
}

impl Inode {
    /// Creates a fresh inode with no extents.
    pub fn new(ino: u64, kind: InodeKind) -> Self {
        Self {
            ino,
            kind,
            nlink: 1,
            size: 0,
            extents: ExtentMap::new(),
            overflow_blocks: Vec::new(),
            stored: None,
        }
    }

    /// Whether this inode is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == InodeKind::Directory
    }

    /// Number of blocks currently mapped.
    pub fn mapped_blocks(&self) -> u64 {
        self.extents.mapped_blocks()
    }

    /// Serializes the inode into its 256-byte table record plus the images
    /// of any overflow blocks.  `overflow_blocks` must already contain the
    /// physical block numbers to use (the file system allocates them before
    /// calling this when the extent count grows).
    pub fn serialize(&self) -> InodeImages {
        let mut record = [0u8; INODE_RECORD_SIZE];
        let mut w = ByteWriter::new(&mut record);
        w.put_u8(match self.kind {
            InodeKind::File => 1,
            InodeKind::Directory => 2,
        });
        w.put_u32(self.nlink);
        w.put_u64(self.size);
        w.put_u64(self.extents.len() as u64);
        w.put_u64(*self.overflow_blocks.first().unwrap_or(&0));
        let mut extents = self.extents.iter();
        for ext in extents.by_ref().take(INLINE_EXTENTS) {
            put_extent(&mut w, ext);
        }

        let mut chain = Vec::with_capacity(self.overflow_blocks_needed());
        for idx in 0..self.overflow_blocks_needed() {
            let mut image = vec![0u8; BLOCK_SIZE];
            let mut w = ByteWriter::new(&mut image);
            let count = (self.extents.len() - INLINE_EXTENTS - idx * EXTENTS_PER_OVERFLOW)
                .min(EXTENTS_PER_OVERFLOW);
            w.put_u32(count as u32);
            for ext in extents.by_ref().take(count) {
                put_extent(&mut w, ext);
            }
            let next = self.overflow_blocks.get(idx + 1).copied().unwrap_or(0);
            image[BLOCK_SIZE - 8..].copy_from_slice(&next.to_le_bytes());
            chain.push((self.overflow_blocks[idx], image));
        }
        (record, chain)
    }

    /// Number of overflow blocks needed for the current extent count.
    pub fn overflow_blocks_needed(&self) -> usize {
        let n = self.extents.len();
        n.saturating_sub(INLINE_EXTENTS)
            .div_ceil(EXTENTS_PER_OVERFLOW)
    }

    /// How many more extents the map can gain before its chain needs
    /// another block.
    pub(crate) fn spare_extents(&self) -> usize {
        (INLINE_EXTENTS + self.overflow_blocks.len() * EXTENTS_PER_OVERFLOW)
            .saturating_sub(self.extents.len())
    }

    /// Deserializes an inode from its table record; spilled extents are
    /// loaded by the caller via [`Inode::load_overflow`] since reading the
    /// chain requires device access.  Returns `None` for a free slot.
    pub fn deserialize(ino: u64, record: &[u8]) -> FsResult<Option<(Self, u64, u64)>> {
        let mut r = ByteReader::new(record);
        let mode = r.get_u8().ok_or(FsError::Corrupted("short inode".into()))?;
        if mode == 0 {
            return Ok(None);
        }
        let kind = match mode {
            1 => InodeKind::File,
            2 => InodeKind::Directory,
            _ => return Err(FsError::Corrupted(format!("bad inode mode {mode}"))),
        };
        let nlink = r
            .get_u32()
            .ok_or(FsError::Corrupted("short inode".into()))?;
        let size = r
            .get_u64()
            .ok_or(FsError::Corrupted("short inode".into()))?;
        let extent_count = r
            .get_u64()
            .ok_or(FsError::Corrupted("short inode".into()))?;
        let overflow_head = r
            .get_u64()
            .ok_or(FsError::Corrupted("short inode".into()))?;
        let mut map = ExtentMap::new();
        let inline = (extent_count as usize).min(INLINE_EXTENTS);
        for _ in 0..inline {
            let logical = r
                .get_u64()
                .ok_or(FsError::Corrupted("short extent".into()))?;
            let phys = r
                .get_u64()
                .ok_or(FsError::Corrupted("short extent".into()))?;
            let len = r
                .get_u64()
                .ok_or(FsError::Corrupted("short extent".into()))?;
            map.insert(Extent { logical, phys, len });
        }
        let inode = Self {
            ino,
            kind,
            nlink,
            size,
            extents: map,
            overflow_blocks: Vec::new(),
            stored: None,
        };
        Ok(Some((inode, extent_count, overflow_head)))
    }

    /// Parses one overflow block image, adding its extents to the map.
    /// Returns the next block in the chain (0 when this was the last).
    pub fn load_overflow(&mut self, block_no: u64, image: &[u8]) -> FsResult<u64> {
        let mut r = ByteReader::new(image);
        let count = r
            .get_u32()
            .ok_or(FsError::Corrupted("short overflow block".into()))? as usize;
        if count > EXTENTS_PER_OVERFLOW {
            return Err(FsError::Corrupted("overflow block count too large".into()));
        }
        for _ in 0..count {
            let logical = r
                .get_u64()
                .ok_or(FsError::Corrupted("short overflow extent".into()))?;
            let phys = r
                .get_u64()
                .ok_or(FsError::Corrupted("short overflow extent".into()))?;
            let len = r
                .get_u64()
                .ok_or(FsError::Corrupted("short overflow extent".into()))?;
            self.extents.insert(Extent { logical, phys, len });
        }
        self.overflow_blocks.push(block_no);
        let mut next_bytes = [0u8; 8];
        next_bytes.copy_from_slice(&image[BLOCK_SIZE - 8..BLOCK_SIZE]);
        Ok(u64::from_le_bytes(next_bytes))
    }
}

/// The maximal runs of 64-byte lines in which `new` differs from `old`, as
/// byte ranges of `new` — all of `new` when there is no `old`.  `new` is
/// written at a line-aligned offset, so each run is whole device lines.
pub(crate) fn changed_lines<'a>(
    new: &'a [u8],
    old: Option<&'a [u8]>,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let old = old.filter(|old| old.len() == new.len());
    let lines = new.len().div_ceil(CACHE_LINE);
    let bytes = move |line: usize| line * CACHE_LINE..((line + 1) * CACHE_LINE).min(new.len());
    let differs = move |line: usize| {
        let Some(old) = old else { return true };
        let (a, b) = (&old[bytes(line)], &new[bytes(line)]);
        // A whole line compares as an array: a few vector compares, not a
        // `memcmp` call per line.
        match (
            <&[u8; CACHE_LINE]>::try_from(a),
            <&[u8; CACHE_LINE]>::try_from(b),
        ) {
            (Ok(a), Ok(b)) => a != b,
            _ => a != b,
        }
    };
    let mut line = 0;
    std::iter::from_fn(move || {
        while line < lines && !differs(line) {
            line += 1;
        }
        let start = line;
        while line < lines && differs(line) {
            line += 1;
        }
        (start < line).then(|| bytes(start).start..bytes(line - 1).end)
    })
}

/// A sorted map of non-overlapping extents keyed by logical block.
#[derive(Debug, Clone, Default)]
pub struct ExtentMap {
    map: BTreeMap<u64, (u64, u64)>, // logical -> (phys, len)
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map has no extents.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of mapped blocks.
    pub fn mapped_blocks(&self) -> u64 {
        self.map.values().map(|&(_, len)| len).sum()
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = Extent> + '_ {
        self.map
            .iter()
            .map(|(&logical, &(phys, len))| Extent { logical, phys, len })
    }

    /// Looks up the physical block backing `logical`, returning the physical
    /// block and how many blocks (starting there) are contiguous.
    pub fn lookup(&self, logical: u64) -> Option<(u64, u64)> {
        let (&start, &(phys, len)) = self.map.range(..=logical).next_back()?;
        if logical < start + len {
            let delta = logical - start;
            Some((phys + delta, len - delta))
        } else {
            None
        }
    }

    /// Inserts a mapping, merging with adjacent extents when both the
    /// logical and physical ranges are contiguous.  The caller must ensure
    /// the logical range is not already mapped.
    pub fn insert(&mut self, ext: Extent) {
        if ext.len == 0 {
            return;
        }
        let mut logical = ext.logical;
        let mut phys = ext.phys;
        let mut len = ext.len;
        // Merge with the preceding extent.
        if let Some((&prev_log, &(prev_phys, prev_len))) = self.map.range(..logical).next_back() {
            if prev_log + prev_len == logical && prev_phys + prev_len == phys {
                self.map.remove(&prev_log);
                logical = prev_log;
                phys = prev_phys;
                len += prev_len;
            }
        }
        // Merge with the following extent.
        if let Some((&next_log, &(next_phys, next_len))) = self.map.range(logical + 1..).next() {
            if logical + len == next_log && phys + len == next_phys {
                self.map.remove(&next_log);
                len += next_len;
            }
        }
        self.map.insert(logical, (phys, len));
    }

    /// Removes the mapping for `[logical, logical+count)`, returning the
    /// physical runs that were freed.  Unmapped holes inside the range are
    /// skipped.
    pub fn remove_range(&mut self, logical: u64, count: u64) -> Vec<BlockRun> {
        if count == 0 {
            return Vec::new();
        }
        let end = logical + count;
        let mut freed = Vec::new();
        let mut to_reinsert = Vec::new();
        let mut to_remove = Vec::new();
        // Extents do not overlap, so none that starts before the one
        // straddling `logical` reaches the range.
        let first = self
            .map
            .range(..=logical)
            .next_back()
            .map_or(logical, |(&start, _)| start);
        for (&start, &(phys, len)) in self.map.range(first..end) {
            let ext_end = start + len;
            if ext_end <= logical {
                continue;
            }
            to_remove.push(start);
            // Left part kept.
            if start < logical {
                to_reinsert.push(Extent {
                    logical: start,
                    phys,
                    len: logical - start,
                });
            }
            // Right part kept.
            if ext_end > end {
                to_reinsert.push(Extent {
                    logical: end,
                    phys: phys + (end - start),
                    len: ext_end - end,
                });
            }
            // Middle part freed.
            let freed_start_logical = start.max(logical);
            let freed_end_logical = ext_end.min(end);
            freed.push(BlockRun {
                start: phys + (freed_start_logical - start),
                len: freed_end_logical - freed_start_logical,
            });
        }
        for start in to_remove {
            self.map.remove(&start);
        }
        for ext in to_reinsert {
            self.insert(ext);
        }
        freed
    }

    /// Removes every mapping at or beyond `from_logical`, returning the
    /// freed physical runs (used by truncate and unlink).
    pub fn truncate_from(&mut self, from_logical: u64) -> Vec<BlockRun> {
        // Extents do not overlap: the last one ends last.
        let max = self
            .map
            .last_key_value()
            .map_or(0, |(&l, &(_, len))| l + len);
        if max <= from_logical {
            return Vec::new();
        }
        self.remove_range(from_logical, max - from_logical)
    }

    /// Extracts (without removing) the mapping of `[logical, logical+count)`
    /// as a list of extents relative to the file.  Returns an error if any
    /// block in the range is unmapped — swap_extents requires both ranges to
    /// be fully allocated, as the real ioctl does.
    pub fn extract_range(&self, logical: u64, count: u64) -> FsResult<Vec<Extent>> {
        let mut out = Vec::new();
        let mut cur = logical;
        let end = logical + count;
        while cur < end {
            let (phys, contig) = self.lookup(cur).ok_or(FsError::InvalidArgument)?;
            let take = contig.min(end - cur);
            out.push(Extent {
                logical: cur,
                phys,
                len: take,
            });
            cur += take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            len: 4,
        });
        m.insert(Extent {
            logical: 10,
            phys: 200,
            len: 2,
        });
        assert_eq!(m.lookup(0), Some((100, 4)));
        assert_eq!(m.lookup(3), Some((103, 1)));
        assert_eq!(m.lookup(4), None);
        assert_eq!(m.lookup(11), Some((201, 1)));
        assert_eq!(m.mapped_blocks(), 6);
    }

    #[test]
    fn adjacent_extents_merge() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            len: 4,
        });
        m.insert(Extent {
            logical: 4,
            phys: 104,
            len: 4,
        });
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup(7), Some((107, 1)));
        // Physically discontiguous extents must not merge.
        m.insert(Extent {
            logical: 8,
            phys: 500,
            len: 2,
        });
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn remove_range_splits_extents() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            len: 10,
        });
        let freed = m.remove_range(3, 4);
        assert_eq!(freed, vec![BlockRun { start: 103, len: 4 }]);
        assert_eq!(m.lookup(2), Some((102, 1)));
        assert_eq!(m.lookup(3), None);
        assert_eq!(m.lookup(7), Some((107, 3)));
        assert_eq!(m.mapped_blocks(), 6);
    }

    #[test]
    fn truncate_from_frees_the_tail() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            len: 8,
        });
        m.insert(Extent {
            logical: 20,
            phys: 300,
            len: 4,
        });
        let freed = m.truncate_from(4);
        let total_freed: u64 = freed.iter().map(|r| r.len).sum();
        assert_eq!(total_freed, 8);
        assert_eq!(m.mapped_blocks(), 4);
        assert_eq!(m.lookup(21), None);
    }

    /// `ExtentMap` against a map of single blocks, over a seeded stream
    /// of inserts, range removals, truncations and lookups.  Physical
    /// blocks follow their logical ones in two bases, so inserts merge,
    /// and are otherwise unique, so they do not.
    #[test]
    fn extent_map_matches_a_per_block_model() {
        const BLOCKS: u64 = 256;
        let mut seed = 0x5EED_E7E4_u64;
        let mut next = move |n: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        fn sorted(mut phys: Vec<u64>) -> Vec<u64> {
            phys.sort_unstable();
            phys
        }
        let blocks = |runs: Vec<BlockRun>| {
            sorted(runs.iter().flat_map(|r| r.start..r.start + r.len).collect())
        };
        let mut map = ExtentMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new(); // logical -> phys
        let mut fresh_phys = 100_000;
        for op in 0..20_000 {
            let logical = next(BLOCKS);
            let count = (1 + next(32)).min(BLOCKS - logical);
            let at = format!("op {op}");
            match next(10) {
                0..=3 => {
                    map.remove_range(logical, count);
                    let phys = match next(3) {
                        0 => 1_000 + logical,
                        1 => 5_000 + logical,
                        _ => {
                            fresh_phys += count + 1;
                            fresh_phys
                        }
                    };
                    map.insert(Extent {
                        logical,
                        phys,
                        len: count,
                    });
                    for i in 0..count {
                        model.insert(logical + i, phys + i);
                    }
                }
                4..=6 => {
                    let expect: Vec<u64> = (logical..logical + count)
                        .filter_map(|l| model.remove(&l))
                        .collect();
                    assert_eq!(
                        blocks(map.remove_range(logical, count)),
                        sorted(expect),
                        "{at}"
                    );
                }
                7 => {
                    let expect: Vec<u64> = model.split_off(&logical).into_values().collect();
                    assert_eq!(blocks(map.truncate_from(logical)), sorted(expect), "{at}");
                }
                _ => {
                    let expect = model.get(&logical).map(|&phys| {
                        let run =
                            (1..).take_while(|i| model.get(&(logical + i)) == Some(&(phys + i)));
                        (phys, 1 + run.count() as u64)
                    });
                    assert_eq!(map.lookup(logical), expect, "{at}");
                }
            }
            let mut end = 0;
            let mut expanded = Vec::new();
            for ext in map.iter() {
                assert!(ext.len > 0 && ext.logical >= end, "{at}: {ext:?} overlaps");
                end = ext.logical + ext.len;
                expanded.extend((0..ext.len).map(|i| (ext.logical + i, ext.phys + i)));
            }
            assert!(
                expanded
                    .iter()
                    .copied()
                    .eq(model.iter().map(|(&l, &p)| (l, p))),
                "{at}"
            );
            assert_eq!(map.mapped_blocks(), model.len() as u64, "{at}");
        }
    }

    #[test]
    fn extract_range_requires_full_mapping() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            len: 4,
        });
        assert!(m.extract_range(0, 4).is_ok());
        assert!(m.extract_range(2, 4).is_err());
    }

    #[test]
    fn inode_record_round_trips_inline_extents() {
        let mut ino = Inode::new(7, InodeKind::File);
        ino.size = 12345;
        ino.nlink = 2;
        for i in 0..5u64 {
            ino.extents.insert(Extent {
                logical: i * 10,
                phys: 1000 + i * 100,
                len: 3,
            });
        }
        let (record, overflow) = ino.serialize();
        assert_eq!(record.len(), INODE_RECORD_SIZE);
        assert!(overflow.is_empty());
        let (parsed, count, overflow_head) = Inode::deserialize(7, &record).unwrap().unwrap();
        assert_eq!(count, 5);
        assert_eq!(overflow_head, 0);
        assert_eq!(parsed.size, 12345);
        assert_eq!(parsed.nlink, 2);
        assert_eq!(parsed.extents.len(), 5);
        assert_eq!(parsed.extents.lookup(40), Some((1400, 3)));
    }

    #[test]
    fn inode_record_spills_to_overflow_blocks() {
        let mut ino = Inode::new(8, InodeKind::File);
        // Insert far more extents than fit inline, physically discontiguous
        // so they cannot merge.
        let n = INLINE_EXTENTS + EXTENTS_PER_OVERFLOW + 5;
        for i in 0..n as u64 {
            ino.extents.insert(Extent {
                logical: i * 2,
                phys: 10_000 + i * 7,
                len: 1,
            });
        }
        assert_eq!(ino.overflow_blocks_needed(), 2);
        ino.overflow_blocks = vec![555, 556];
        let (record, overflow) = ino.serialize();
        assert_eq!(overflow.len(), 2);
        assert_eq!(overflow[0].0, 555);
        assert_eq!(overflow[1].0, 556);

        // Rebuild from record + overflow images.
        let (mut parsed, count, head) = Inode::deserialize(8, &record).unwrap().unwrap();
        assert_eq!(count as usize, n);
        assert_eq!(head, 555);
        let next = parsed.load_overflow(555, &overflow[0].1).unwrap();
        assert_eq!(next, 556);
        let next = parsed.load_overflow(556, &overflow[1].1).unwrap();
        assert_eq!(next, 0);
        assert_eq!(parsed.extents.len(), n);
        assert_eq!(parsed.extents.lookup(0), Some((10_000, 1)));
        assert_eq!(
            parsed.extents.lookup((n as u64 - 1) * 2),
            Some((10_000 + (n as u64 - 1) * 7, 1))
        );
    }

    #[test]
    fn changed_lines_are_maximal_runs_of_differing_lines() {
        let old = vec![0u8; 8 * CACHE_LINE];
        let runs = |new: &[u8], old: Option<&[u8]>| changed_lines(new, old).collect::<Vec<_>>();
        assert_eq!(runs(&old, None), vec![0..old.len()]);
        assert!(runs(&old, Some(&old)).is_empty());

        let mut new = old.clone();
        new[0] = 1; // line 0
        new[2 * CACHE_LINE + 5] = 1; // lines 2 and 3 ...
        new[3 * CACHE_LINE + 63] = 1;
        new[7 * CACHE_LINE] = 1; // ... and the last line
        assert_eq!(
            runs(&new, Some(&old)),
            vec![
                0..CACHE_LINE,
                2 * CACHE_LINE..4 * CACHE_LINE,
                7 * CACHE_LINE..8 * CACHE_LINE
            ]
        );
    }

    #[test]
    fn free_slot_deserializes_to_none() {
        let record = vec![0u8; INODE_RECORD_SIZE];
        assert!(Inode::deserialize(3, &record).unwrap().is_none());
    }

    #[test]
    fn corrupt_mode_is_detected() {
        let mut record = vec![0u8; INODE_RECORD_SIZE];
        record[0] = 9;
        assert!(matches!(
            Inode::deserialize(3, &record),
            Err(FsError::Corrupted(_))
        ));
    }
}
