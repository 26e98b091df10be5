//! On-device layout of the kernel file system.
//!
//! The device is divided into fixed regions, announced by a superblock in
//! block 0:
//!
//! ```text
//! +------------+-------------+-----------------+-------------+--------------+-----------------+
//! | superblock | lease table | journal         | inode table | block bitmap | data blocks ... |
//! | 1 block    | LEASE_BLOCKS| JOURNAL_BLOCKS  | computed    | computed     | rest            |
//! +------------+-------------+-----------------+-------------+--------------+-----------------+
//! ```
//!
//! The lease table records which U-Split instances currently own a slice
//! of the staging/operation-log resources (see [`crate::lease`]); it is a
//! journaled in-place structure like the inode table, so recovery knows
//! which instance owned what.
//!
//! All metadata is stored little-endian.  Blocks are 4 KiB, matching the
//! allocation unit of ext4 and the granularity at which SplitFS relinks
//! staged appends into target files.

use vfs::{FsError, FsResult};

/// File-system block size in bytes.
pub const BLOCK_SIZE: usize = 4096;

/// Size of one serialized inode record in the inode table.
pub const INODE_RECORD_SIZE: usize = 256;

/// Magic number identifying a formatted device.
pub const SUPERBLOCK_MAGIC: u64 = 0x5350_4C49_5446_5331; // "SPLITFS1"

/// Number of journal blocks (16 MiB with 4 KiB blocks).
pub const JOURNAL_BLOCKS: u64 = 4096;

/// Number of blocks in the instance-lease table.
pub const LEASE_BLOCKS: u64 = 1;

/// Default number of inodes a format creates.
pub const DEFAULT_INODE_COUNT: u64 = 65_536;

/// The superblock: region boundaries and format parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Magic number ([`SUPERBLOCK_MAGIC`]).
    pub magic: u64,
    /// Total number of 4 KiB blocks on the device.
    pub total_blocks: u64,
    /// Number of inodes in the inode table.
    pub inode_count: u64,
    /// First block of the instance-lease table.
    pub lease_start: u64,
    /// Number of blocks in the instance-lease table.
    pub lease_blocks: u64,
    /// First block of the journal region.
    pub journal_start: u64,
    /// Number of blocks in the journal region.
    pub journal_blocks: u64,
    /// First block of the inode table.
    pub itable_start: u64,
    /// Number of blocks in the inode table.
    pub itable_blocks: u64,
    /// First block of the data-block bitmap.
    pub bitmap_start: u64,
    /// Number of blocks in the bitmap.
    pub bitmap_blocks: u64,
    /// First data block.
    pub data_start: u64,
}

impl Superblock {
    /// Computes a layout for a device with `total_blocks` blocks and
    /// `inode_count` inodes.
    pub fn compute(total_blocks: u64, inode_count: u64) -> FsResult<Self> {
        let lease_start = 1;
        let lease_blocks = LEASE_BLOCKS;
        let journal_start = lease_start + lease_blocks;
        let journal_blocks = JOURNAL_BLOCKS.min(total_blocks / 8).max(64);
        let itable_start = journal_start + journal_blocks;
        let inodes_per_block = (BLOCK_SIZE / INODE_RECORD_SIZE) as u64;
        let itable_blocks = inode_count.div_ceil(inodes_per_block);
        let bitmap_start = itable_start + itable_blocks;
        // One bit per block in the whole device (slightly generous: the
        // bitmap also covers the metadata regions, which are marked used).
        let bitmap_blocks = total_blocks.div_ceil(8 * BLOCK_SIZE as u64).max(1);
        let data_start = bitmap_start + bitmap_blocks;
        if data_start + 16 >= total_blocks {
            return Err(FsError::NoSpace);
        }
        Ok(Self {
            magic: SUPERBLOCK_MAGIC,
            total_blocks,
            inode_count,
            lease_start,
            lease_blocks,
            journal_start,
            journal_blocks,
            itable_start,
            itable_blocks,
            bitmap_start,
            bitmap_blocks,
            data_start,
        })
    }

    /// Serializes the superblock into a 4 KiB block image.  Everything
    /// past the twelve fields is zero; slots 12 and 13 (bytes 96..112)
    /// are reserved and are not reused.
    pub fn to_block(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let fields = [
            self.magic,
            self.total_blocks,
            self.inode_count,
            self.lease_start,
            self.lease_blocks,
            self.journal_start,
            self.journal_blocks,
            self.itable_start,
            self.itable_blocks,
            self.bitmap_start,
            self.bitmap_blocks,
            self.data_start,
        ];
        for (i, v) in fields.iter().enumerate() {
            buf[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Parses a superblock from a block image, validating the magic.
    pub fn from_block(buf: &[u8]) -> FsResult<Self> {
        if buf.len() < 96 {
            return Err(FsError::Corrupted("superblock too short".into()));
        }
        let read_u64 = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let sb = Self {
            magic: read_u64(0),
            total_blocks: read_u64(1),
            inode_count: read_u64(2),
            lease_start: read_u64(3),
            lease_blocks: read_u64(4),
            journal_start: read_u64(5),
            journal_blocks: read_u64(6),
            itable_start: read_u64(7),
            itable_blocks: read_u64(8),
            bitmap_start: read_u64(9),
            bitmap_blocks: read_u64(10),
            data_start: read_u64(11),
        };
        if sb.magic != SUPERBLOCK_MAGIC {
            return Err(FsError::Corrupted("bad superblock magic".into()));
        }
        Ok(sb)
    }

    /// Byte offset of the inode record for `ino`.
    pub fn inode_offset(&self, ino: u64) -> u64 {
        self.itable_start * BLOCK_SIZE as u64 + ino * INODE_RECORD_SIZE as u64
    }

    /// Number of data blocks available to files.
    pub fn data_blocks(&self) -> u64 {
        self.total_blocks - self.data_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_do_not_overlap() {
        let sb = Superblock::compute(1 << 18, DEFAULT_INODE_COUNT).unwrap(); // 1 GiB
        assert!(sb.lease_start >= 1);
        assert!(sb.journal_start >= sb.lease_start + sb.lease_blocks);
        assert!(sb.itable_start >= sb.journal_start + sb.journal_blocks);
        assert!(sb.bitmap_start >= sb.itable_start + sb.itable_blocks);
        assert!(sb.data_start >= sb.bitmap_start + sb.bitmap_blocks);
        assert!(sb.data_start < sb.total_blocks);
    }

    #[test]
    fn superblock_round_trips_through_serialization() {
        let sb = Superblock::compute(1 << 16, 4096).unwrap();
        let block = sb.to_block();
        let parsed = Superblock::from_block(&block).unwrap();
        assert_eq!(sb, parsed);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let sb = Superblock::compute(1 << 16, 4096).unwrap();
        let mut block = sb.to_block();
        block[0] ^= 0xFF;
        assert!(matches!(
            Superblock::from_block(&block),
            Err(FsError::Corrupted(_))
        ));
    }

    #[test]
    fn tiny_device_is_rejected() {
        assert!(Superblock::compute(128, 1024).is_err());
    }

    #[test]
    fn inode_offsets_are_within_the_itable() {
        let sb = Superblock::compute(1 << 18, 1024).unwrap();
        let first = sb.inode_offset(0);
        let last = sb.inode_offset(1023);
        assert_eq!(first, sb.itable_start * BLOCK_SIZE as u64);
        assert!(last < sb.bitmap_start * BLOCK_SIZE as u64);
    }
}
