//! Directory entry serialization.
//!
//! Directory contents are stored in the directory inode's data blocks as a
//! sequence of variable-length entries:
//!
//! ```text
//! [ino u64][name_len u16][name bytes]
//! ```
//!
//! An entry with `ino == 0` is a tombstone left by unlink/rename so that
//! removal does not rewrite the whole directory.  The in-memory directory
//! map (rebuilt at mount by scanning the entries) is the operational source
//! of truth; the serialized form exists so that a crash-recovered mount can
//! rebuild it.
//!
//! A live entry's name is at most [`NAME_MAX`] bytes: the namespace
//! operations refuse longer names, and the scan refuses a live entry with
//! one as corrupt.  So every entry, and every tombstone replacing one, is
//! encoded into a fixed buffer on the stack.

use std::collections::BTreeMap;
use std::ops::Deref;

use vfs::path::NAME_MAX;
use vfs::util::{ByteReader, ByteWriter};
use vfs::{FsError, FsResult};

/// Bytes of an entry before its name: the inode number and the length.
pub const ENTRY_HEADER: usize = 8 + 2;

/// Serialized size of an entry with the given name length.
pub fn entry_size(name: &str) -> usize {
    ENTRY_HEADER + name.len()
}

/// One encoded entry or tombstone, on the stack.
#[derive(Debug, Clone, Copy)]
pub struct EncodedEntry {
    bytes: [u8; ENTRY_HEADER + NAME_MAX],
    len: usize,
}

impl Deref for EncodedEntry {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Encodes a single directory entry.  `name` is at most [`NAME_MAX`]
/// bytes (the namespace operations check it first).
pub fn encode_entry(ino: u64, name: &str) -> EncodedEntry {
    let mut bytes = [0u8; ENTRY_HEADER + NAME_MAX];
    let mut w = ByteWriter::new(&mut bytes);
    w.put_u64(ino);
    w.put_str(name);
    let len = w.position();
    EncodedEntry { bytes, len }
}

/// Encodes a tombstone of the same size as the entry it replaces, so the
/// byte layout of following entries is unchanged: inode 0, the same name
/// length, and zeroes where the name was.
pub fn encode_tombstone(name_len: usize) -> EncodedEntry {
    let mut bytes = [0u8; ENTRY_HEADER + NAME_MAX];
    let mut w = ByteWriter::new(&mut bytes);
    w.put_u64(0);
    w.put_bytes(&[0u8; NAME_MAX][..name_len]);
    let len = w.position();
    EncodedEntry { bytes, len }
}

/// One parsed directory entry and where it sits in the directory data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode the entry points to (0 for a tombstone).
    pub ino: u64,
    /// Entry name (empty for a tombstone).
    pub name: String,
    /// Byte offset of the entry within the directory data.
    pub offset: u64,
    /// Serialized length of the entry in bytes.
    pub len: usize,
}

/// Scans serialized directory data, returning every entry including
/// tombstones.  Stops cleanly at the end of valid data.
pub fn scan_entries(data: &[u8]) -> FsResult<Vec<DirEntry>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + ENTRY_HEADER <= data.len() {
        let mut r = ByteReader::new(&data[pos..]);
        let ino = r
            .get_u64()
            .ok_or(FsError::Corrupted("short dirent".into()))?;
        let name_bytes = r
            .get_bytes()
            .ok_or(FsError::Corrupted("short dirent name".into()))?;
        let len = r.position();
        let name = if ino == 0 {
            String::new()
        } else if name_bytes.len() > NAME_MAX {
            return Err(FsError::Corrupted("dirent name too long".into()));
        } else {
            String::from_utf8(name_bytes)
                .map_err(|_| FsError::Corrupted("dirent name not utf-8".into()))?
        };
        out.push(DirEntry {
            ino,
            name,
            offset: pos as u64,
            len,
        });
        pos += len;
    }
    Ok(out)
}

/// Builds the in-memory name → inode map from serialized directory data.
pub fn build_map(data: &[u8]) -> FsResult<BTreeMap<String, u64>> {
    let mut map = BTreeMap::new();
    for entry in scan_entries(data)? {
        if entry.ino != 0 {
            map.insert(entry.name, entry.ino);
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_scan_round_trip() {
        let mut data = Vec::new();
        data.extend_from_slice(&encode_entry(10, "wal.log"));
        data.extend_from_slice(&encode_entry(11, "sstable-000001.sst"));
        data.extend_from_slice(&encode_entry(12, "MANIFEST"));
        let entries = scan_entries(&data).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].name, "wal.log");
        assert_eq!(entries[2].ino, 12);
        let map = build_map(&data).unwrap();
        assert_eq!(map.get("MANIFEST"), Some(&12));
    }

    #[test]
    fn tombstones_are_skipped_by_build_map() {
        let mut data = Vec::new();
        let live = encode_entry(10, "keep.txt");
        let dead = encode_entry(11, "gone.txt");
        data.extend_from_slice(&live);
        data.extend_from_slice(&dead);
        // Overwrite the second entry with a tombstone of identical size.
        let tomb = encode_tombstone("gone.txt".len());
        assert_eq!(tomb.len(), dead.len());
        let start = live.len();
        data[start..start + tomb.len()].copy_from_slice(&tomb);

        let map = build_map(&data).unwrap();
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("keep.txt"));
        // But the scan still sees both slots.
        assert_eq!(scan_entries(&data).unwrap().len(), 2);
    }

    #[test]
    fn entry_size_matches_encoding() {
        for name in ["a", "some-longer-name.dat", ""] {
            assert_eq!(encode_entry(5, name).len(), entry_size(name));
        }
    }

    #[test]
    fn trailing_garbage_smaller_than_header_is_ignored() {
        let mut data = encode_entry(3, "x").to_vec();
        data.extend_from_slice(&[0xAA; 5]);
        let entries = scan_entries(&data).unwrap();
        assert_eq!(entries.len(), 1);
    }
}
