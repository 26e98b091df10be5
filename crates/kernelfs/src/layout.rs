//! On-device layout of the kernel file system.
//!
//! The device is divided into fixed regions, announced by a superblock in
//! block 0:
//!
//! ```text
//! +------------+----------+-----------------+-------------+--------------+-----------------+
//! | superblock | (unused) | journal         | inode table | block bitmap | data blocks ... |
//! | 1 block    | 1 block  | JOURNAL_BLOCKS  | computed    | computed     | rest            |
//! +------------+----------+-----------------+-------------+--------------+-----------------+
//! ```
//!
//! Block 1 is never written.  Format version 1 kept an instance-lease
//! table there; version 2 keeps no record of which U-Split instances are
//! alive (see [`crate::lease`]), and leaving the block empty keeps every
//! later region on the block it had.
//!
//! Block 0 holds more than the superblock's fields:
//!
//! ```text
//! bytes 0..80     ten u64 fields (magic, geometry, region starts and sizes)
//! bytes 80..112   slots 10 to 13: zero
//! bytes 112..120  slot 14: FORMAT_VERSION
//! bytes 128..192  the journal chunk map: one 64 B line (see crate::journal)
//! ```
//!
//! The map line sits in block 0, outside the journal area, so "the journal
//! area reads all-zero after mount" holds with the map marking chunks.
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

/// On-media format version, in superblock slot 14.  Mount refuses any
/// other value.  Version 1 added the journal chunk map; version 2 dropped
/// the instance-lease table and its two superblock fields, and retired
/// journal tags 9 and 12; version 3 replaced the byte-serial FNV-1a
/// record checksum with the word-wise `vfs::util::checksum32`.
pub const FORMAT_VERSION: u64 = 3;

/// Byte offset, in block 0, of the journal chunk map's 64 B line.
pub const JOURNAL_MAP_OFFSET: u64 = 128;

/// Bytes of the journal chunk map line.
pub const JOURNAL_MAP_LEN: usize = 64;

/// Number of journal blocks (16 MiB with 4 KiB blocks).
pub const JOURNAL_BLOCKS: u64 = 4096;

/// First block of the journal: block 1 is unused (see the module doc).
const JOURNAL_START: u64 = 2;

/// Default number of inodes a format creates.
pub const DEFAULT_INODE_COUNT: u64 = 65_536;

/// Superblock slot holding [`FORMAT_VERSION`].
const VERSION_SLOT: usize = 14;

/// The superblock: region boundaries and format parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Magic number ([`SUPERBLOCK_MAGIC`]).
    pub magic: u64,
    /// Format version ([`FORMAT_VERSION`]), in slot 14.
    pub version: u64,
    /// Total number of 4 KiB blocks on the device.
    pub total_blocks: u64,
    /// Number of inodes in the inode table.
    pub inode_count: u64,
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
        let journal_start = JOURNAL_START;
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
            version: FORMAT_VERSION,
            total_blocks,
            inode_count,
            journal_start,
            journal_blocks,
            itable_start,
            itable_blocks,
            bitmap_start,
            bitmap_blocks,
            data_start,
        })
    }

    /// Serializes the superblock into a 4 KiB block image: the ten
    /// fields, then the version in slot 14.  Everything else, the journal
    /// chunk map's line included, is zero.
    pub fn to_block(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BLOCK_SIZE];
        let fields = [
            self.magic,
            self.total_blocks,
            self.inode_count,
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
        buf[VERSION_SLOT * 8..(VERSION_SLOT + 1) * 8].copy_from_slice(&self.version.to_le_bytes());
        buf
    }

    /// Parses a superblock from a block image, validating the magic and
    /// the format version.
    pub fn from_block(buf: &[u8]) -> FsResult<Self> {
        if buf.len() < (VERSION_SLOT + 1) * 8 {
            return Err(FsError::Corrupted("superblock too short".into()));
        }
        let read_u64 = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let sb = Self {
            magic: read_u64(0),
            version: read_u64(VERSION_SLOT),
            total_blocks: read_u64(1),
            inode_count: read_u64(2),
            journal_start: read_u64(3),
            journal_blocks: read_u64(4),
            itable_start: read_u64(5),
            itable_blocks: read_u64(6),
            bitmap_start: read_u64(7),
            bitmap_blocks: read_u64(8),
            data_start: read_u64(9),
        };
        if sb.magic != SUPERBLOCK_MAGIC {
            return Err(FsError::Corrupted("bad superblock magic".into()));
        }
        if sb.version != FORMAT_VERSION {
            return Err(FsError::Corrupted(format!(
                "unsupported format version {}",
                sb.version
            )));
        }
        Ok(sb)
    }

    /// Accepts the superblock for a device of `device_bytes` only if it
    /// describes exactly that device and [`Superblock::compute`] reproduces
    /// it field for field.  Every region bound mount reads by is then one
    /// `mkfs` could have written, so a damaged field fails the mount with
    /// [`FsError::Corrupted`] instead of sending a read past the device.
    pub(crate) fn check_geometry(&self, device_bytes: u64) -> FsResult<()> {
        let sized = self.total_blocks.checked_mul(BLOCK_SIZE as u64) == Some(device_bytes);
        if sized && Self::compute(self.total_blocks, self.inode_count).ok() == Some(*self) {
            Ok(())
        } else {
            Err(FsError::Corrupted("superblock geometry".into()))
        }
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
        assert!(sb.journal_start >= 1);
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
    fn a_version_other_than_the_current_one_is_rejected() {
        let sb = Superblock::compute(1 << 16, 4096).unwrap();
        assert_eq!(sb.version, FORMAT_VERSION);
        // Version 1 is the format with the instance-lease table, version
        // 2 the one with FNV-1a record checksums.
        for version in [0, 1, 2, FORMAT_VERSION + 1] {
            let mut block = sb.to_block();
            block[VERSION_SLOT * 8..(VERSION_SLOT + 1) * 8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                Superblock::from_block(&block),
                Err(FsError::Corrupted(_))
            ));
        }
    }

    #[test]
    fn geometry_is_accepted_only_as_compute_gives_it_for_the_device() {
        let sb = Superblock::compute(1 << 16, 4096).unwrap();
        let bytes = (1u64 << 16) * BLOCK_SIZE as u64;
        assert_eq!(sb.check_geometry(bytes), Ok(()));
        assert!(sb.check_geometry(bytes / 2).is_err());
        for damage in [
            Superblock {
                journal_blocks: 1 << 40,
                ..sb
            },
            Superblock {
                total_blocks: 1 << 20,
                ..sb
            },
            Superblock {
                inode_count: 1 << 30,
                ..sb
            },
            Superblock {
                inode_count: 4097,
                ..sb
            },
            Superblock {
                data_start: sb.data_start + 1,
                ..sb
            },
        ] {
            assert!(
                matches!(damage.check_geometry(bytes), Err(FsError::Corrupted(_))),
                "{damage:?}"
            );
        }
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
