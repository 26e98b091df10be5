//! The on-media bytes of every K-Split encoder, pinned.
//!
//! The constants below are the output of the encoders as they were before
//! they began writing into caller-owned buffers (a `ByteWriter` that grew
//! a `Vec` one field at a time).  Encoding is a performance concern only:
//! the format must not change by a single bit, or a device written by one
//! build would mount differently under the next.  Each case encodes the
//! same values and compares the bytes exactly.
//!
//! Format version 2 retired journal tags 9 and 12 and the superblock's two
//! lease-table fields.  The constants of the records that followed the
//! retired ones were regenerated then (their transaction ids moved down),
//! and the superblock was pinned.  Format version 3 changed the record
//! checksum from byte-serial FNV-1a to the word-wise `checksum32`: the
//! last four bytes of every journal constant, and the superblock's
//! version slot, were regenerated then.

use kernelfs::dir;
use kernelfs::inode::{Extent, Inode, InodeKind, INLINE_EXTENTS};
use kernelfs::journal::JournalRecord;
use kernelfs::layout::Superblock;
use kernelfs::BLOCK_SIZE;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One record of every tag in use (two `SetRangeMapping`s: with extents
/// and without), each with its expected bytes.  Record `i` is encoded with
/// transaction id `0x0102_0304_0506_0708 + i`.
fn records() -> Vec<(JournalRecord, &'static str)> {
    vec![
        (
            JournalRecord::CreateInode {
                ino: 17,
                parent: 2,
                name: "wal.log".into(),
                is_dir: false,
            },
            "524a011a00080706050403020111000000000000000200000000000000070077616c2e6c6f670050b07476",
        ),
        (
            JournalRecord::Unlink {
                parent: 5,
                name: "gone.dat".into(),
                ino: 33,
                free_inode: true,
            },
            "524a021b00090706050403020105000000000000000800676f6e652e646174210000000000000001a50fa010",
        ),
        (
            JournalRecord::Rename {
                old_parent: 2,
                old_name: "a.tmp".into(),
                new_parent: 9,
                new_name: "b.dat".into(),
                ino: 41,
                replaced_ino: 40,
            },
            "524a032e000a0706050403020102000000000000000500612e746d7009000000000000000500622e646174290000000000000028000000000000009876b405",
        ),
        (
            JournalRecord::SetSize {
                ino: 17,
                size: 0x1_2345_6789,
            },
            "524a0410000b0706050403020111000000000000008967452301000000aae67296",
        ),
        (
            JournalRecord::AddExtent {
                ino: 17,
                logical: 3,
                phys: 9000,
                len: 16,
            },
            "524a0520000c0706050403020111000000000000000300000000000000282300000000000010000000000000008ac2fa88",
        ),
        (
            JournalRecord::TruncateExtents {
                ino: 17,
                from_logical: 4,
            },
            "524a0610000d0706050403020111000000000000000400000000000000aa89742e",
        ),
        (
            JournalRecord::AllocBlocks { start: 777, len: 12 },
            "524a0710000e0706050403020109030000000000000c000000000000007a03f2c6",
        ),
        (
            JournalRecord::FreeBlocks { start: 888, len: 1 },
            "524a0810000f0706050403020178030000000000000100000000000000b2d31d83",
        ),
        (
            JournalRecord::SetRangeMapping {
                ino: 12,
                logical: 64,
                count: 6,
                extents: vec![(64, 5000, 2), (66, 7000, 4)],
            },
            "524a0b4a0010070605040302010c000000000000004000000000000000060000000000000002004000000000000000881300000000000002000000000000004200000000000000581b00000000000004000000000000004daa86e1",
        ),
        (
            JournalRecord::SetRangeMapping {
                ino: 13,
                logical: 8,
                count: 2,
                extents: vec![],
            },
            "524a0b1a0011070605040302010d000000000000000800000000000000020000000000000000001a4db2c9",
        ),
        (
            JournalRecord::Commit,
            "524a0a00001207060504030201b9facc98",
        ),
    ]
}

#[test]
fn journal_records_encode_to_the_pinned_bytes() {
    // Encoded back to back into one buffer, as a commit does: each record
    // lands after the previous one, unchanged by what precedes it.
    let mut out = vec![0xEE; 3];
    let mut expected = "eeeeee".to_string();
    for (i, (record, bytes)) in records().iter().enumerate() {
        let mut alone = Vec::new();
        record
            .encode_into(0x0102_0304_0506_0708 + i as u64, &mut alone)
            .unwrap();
        assert_eq!(hex(&alone), *bytes, "{record:?}");
        record
            .encode_into(0x0102_0304_0506_0708 + i as u64, &mut out)
            .unwrap();
        expected.push_str(bytes);
    }
    assert_eq!(hex(&out), expected);
}

#[test]
fn a_superblock_encodes_to_the_pinned_bytes() {
    // 256 MiB, 4096 inodes.  Format version 2 keeps every region on the
    // block version 1 put it on; block 1, the old lease table, is unused.
    let sb = Superblock::compute(1 << 16, 4096).unwrap();
    assert_eq!(
        (
            sb.journal_start,
            sb.itable_start,
            sb.bitmap_start,
            sb.data_start
        ),
        (2, 4098, 4354, 4356)
    );
    let block = sb.to_block();
    let used = "31534654494c505300000100000000000010000000000000020000000000000000100000\
         000000000210000000000000000100000000000002110000000000000200000000000000\
         041100000000000000000000000000000000000000000000000000000000000000000000\
         000000000300000000000000";
    assert_eq!(hex(&block[..120]), used);
    assert!(block[120..].iter().all(|&b| b == 0));
}

#[test]
fn an_inline_inode_record_encodes_to_the_pinned_bytes() {
    let mut inode = Inode::new(21, InodeKind::File);
    inode.size = 40_000;
    inode.nlink = 2;
    for i in 0..3u64 {
        inode.extents.insert(Extent {
            logical: i * 4,
            phys: 1000 + i * 100,
            len: 2,
        });
    }
    let (record, chain) = inode.serialize();
    assert!(chain.is_empty());
    let used = "0102000000409c0000000000000300000000000000000000000000000000000000000000\
                00e803000000000000020000000000000004000000000000004c04000000000000020000\
                00000000000800000000000000b0040000000000000200000000000000";
    assert_eq!(hex(&record), format!("{used:0<512}"));
}

#[test]
fn a_spilled_inode_record_and_its_chain_encode_to_the_pinned_bytes() {
    let mut inode = Inode::new(22, InodeKind::Directory);
    inode.size = 4096;
    let n = INLINE_EXTENTS + 3;
    for i in 0..n as u64 {
        inode.extents.insert(Extent {
            logical: i * 2,
            phys: 10_000 + i * 7,
            len: 1,
        });
    }
    // A second chain block reserved but not needed yet: the one image
    // links to it.
    inode.overflow_blocks = vec![555, 556];
    let (record, chain) = inode.serialize();
    let used = "020100000000100000000000000c000000000000002b0200000000000000000000000000\
                001027000000000000010000000000000002000000000000001727000000000000010000\
                000000000004000000000000001e27000000000000010000000000000006000000000000\
                002527000000000000010000000000000008000000000000002c27000000000000010000\
                00000000000a00000000000000332700000000000001000000000000000c000000000000\
                003a2700000000000001000000000000000e000000000000004127000000000000010000\
                0000000000100000000000000048270000000000000100000000000000";
    assert_eq!(hex(&record), format!("{used:0<512}"));

    assert_eq!(chain.len(), 1);
    let (block, image) = &chain[0];
    assert_eq!(*block, 555);
    assert_eq!(image.len(), BLOCK_SIZE);
    let head = "0300000012000000000000004f2700000000000001000000000000001400000000000000\
                5627000000000000010000000000000016000000000000005d2700000000000001000000\
                00000000";
    assert_eq!(hex(&image[..head.len() / 2]), head);
    assert!(image[head.len() / 2..BLOCK_SIZE - 8]
        .iter()
        .all(|&b| b == 0));
    assert_eq!(
        hex(&image[BLOCK_SIZE - 8..]),
        "2c02000000000000",
        "next: 556"
    );
}

#[test]
fn a_directory_entry_and_its_tombstone_encode_to_the_pinned_bytes() {
    let name = "sstable-000001.sst";
    assert_eq!(
        hex(&dir::encode_entry(0x0a0b, name)),
        "0b0a000000000000120073737461626c652d3030303030312e737374"
    );
    assert_eq!(
        hex(&dir::encode_tombstone(name.len())),
        "00000000000000001200000000000000000000000000000000000000"
    );
}
