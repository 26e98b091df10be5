//! DAX memory mappings.
//!
//! ext4 DAX maps file extents straight into a process's address space: a
//! load or store to a mapped virtual address touches the PM physical block
//! directly, with no page cache and no kernel involvement after the mapping
//! is set up (§2.2 of the paper).  In the reproduction, a [`DaxMapping`]
//! hands U-Split the *device offsets* backing a file range; U-Split then
//! reads and writes the emulated device at those offsets, which is the
//! moral equivalent of dereferencing the mmapped pointer.
//!
//! The cost of establishing a mapping (VMA setup plus page faults — 4 KiB
//! faults, or a single 2 MiB huge-page fault when alignment allows) is
//! charged by the file system when it builds the mapping; translating
//! offsets afterwards is free, exactly the asymmetry the paper exploits.

/// One contiguous piece of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapSegment {
    /// Offset within the file where this segment starts.
    pub file_offset: u64,
    /// Device (physical) byte offset backing it.
    pub device_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A memory mapping of a contiguous file range, possibly backed by several
/// physical extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaxMapping {
    /// Inode of the mapped file.
    pub ino: u64,
    /// First mapped byte of the file.
    pub file_offset: u64,
    /// Length of the mapped range in bytes.
    pub len: u64,
    /// Physical segments backing the range, in file order.
    pub segments: Vec<MapSegment>,
}

impl DaxMapping {
    /// Returns `true` if `file_offset` falls inside the mapped range.
    pub fn covers(&self, file_offset: u64) -> bool {
        file_offset >= self.file_offset && file_offset < self.file_offset + self.len
    }

    /// Translates a file offset into `(device_offset, contiguous_len)`.
    /// Returns `None` when the offset is outside the mapping or falls in a
    /// hole (unmapped segment gap).
    pub fn translate(&self, file_offset: u64) -> Option<(u64, u64)> {
        if !self.covers(file_offset) {
            return None;
        }
        for seg in &self.segments {
            if file_offset >= seg.file_offset && file_offset < seg.file_offset + seg.len {
                let delta = file_offset - seg.file_offset;
                return Some((seg.device_offset + delta, seg.len - delta));
            }
        }
        None
    }

    /// End of the mapped file range (exclusive).
    pub fn end(&self) -> u64 {
        self.file_offset + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DaxMapping {
        DaxMapping {
            ino: 9,
            file_offset: 4096,
            len: 8192,
            segments: vec![
                MapSegment {
                    file_offset: 4096,
                    device_offset: 1_000_000,
                    len: 4096,
                },
                MapSegment {
                    file_offset: 8192,
                    device_offset: 5_000_000,
                    len: 4096,
                },
            ],
        }
    }

    #[test]
    fn translate_within_segments() {
        let m = sample();
        assert_eq!(m.translate(4096), Some((1_000_000, 4096)));
        assert_eq!(m.translate(5000), Some((1_000_904, 3192)));
        assert_eq!(m.translate(8192), Some((5_000_000, 4096)));
        assert_eq!(m.translate(12_287), Some((5_004_095, 1)));
    }

    #[test]
    fn translate_outside_mapping_is_none() {
        let m = sample();
        assert_eq!(m.translate(0), None);
        assert_eq!(m.translate(12_288), None);
        assert!(!m.covers(12_288));
        assert!(m.covers(4096));
    }

    #[test]
    fn translate_in_a_hole_is_none() {
        let mut m = sample();
        m.segments.remove(1);
        assert_eq!(m.translate(9000), None);
    }
}
