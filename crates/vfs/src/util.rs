//! Small utilities shared by the file-system implementations.

/// 32-bit FNV-1a checksum.
///
/// Used as the transactional checksum embedded in journal records and in
/// SplitFS operation-log entries (§3.3: a 4-byte checksum lets a log entry
/// be validated with a single fence instead of two).  FNV-1a is not
/// cryptographic; it only needs to detect torn or partially written
/// entries, the same role CRC32 plays in the original system.
pub fn checksum32(data: &[u8]) -> u32 {
    const OFFSET: u32 = 0x811c_9dc5;
    const PRIME: u32 = 0x0100_0193;
    let mut hash = OFFSET;
    for &b in data {
        hash ^= b as u32;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Whether every byte of `data` is zero.
///
/// The recovery scans ask this of whole 4 KiB blocks of logs that are
/// almost entirely zero, so it compares against a block of zeroes — a
/// `memcmp`, wide loads in every build profile — instead of testing bytes
/// one at a time.
pub fn is_zeroed(data: &[u8]) -> bool {
    const ZEROS: [u8; 4096] = [0; 4096];
    data.chunks(ZEROS.len()).all(|c| c == &ZEROS[..c.len()])
}

/// A little-endian byte writer over a buffer the caller owns and has
/// already sized.
///
/// The writer never allocates: every on-media encoder fills a stack array,
/// a fixed-size image or a reused buffer through it, and a write past the
/// end of the buffer is a bug in the caller's sizing, so it panics.
#[derive(Debug)]
pub struct ByteWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> ByteWriter<'a> {
    /// Creates a writer at the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a `u16` (little endian).
    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string (u16 length).  A longer string
    /// is a bug in the caller, which bounds every length it encodes: it
    /// panics instead of wrapping the length.
    pub fn put_bytes(&mut self, v: &[u8]) {
        let len = u16::try_from(v.len()).expect("length-prefixed field over 64 KiB");
        self.put_u16(len);
        self.put(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Number of bytes written so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// A little-endian byte reader matching [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.get_u16()? as usize;
        self.take(len).map(|s| s.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).ok()
    }

    /// Number of bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_zeroed_sees_a_single_set_bit_anywhere() {
        assert!(is_zeroed(&[]));
        let mut buf = vec![0u8; 3 * 4096 + 17];
        assert!(is_zeroed(&buf));
        for at in [0, 63, 4095, 4096, 3 * 4096 + 16] {
            buf[at] = 0x80;
            assert!(!is_zeroed(&buf), "byte {at}");
            buf[at] = 0;
        }
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data = b"splitfs operation log entry";
        let base = checksum32(data);
        let mut corrupted = data.to_vec();
        corrupted[3] ^= 0x01;
        assert_ne!(base, checksum32(&corrupted));
    }

    #[test]
    fn checksum_of_empty_is_fnv_offset() {
        assert_eq!(checksum32(&[]), 0x811c_9dc5);
    }

    #[test]
    fn byte_writer_reader_round_trip() {
        let mut bytes = [0u8; 1 + 2 + 4 + 8 + 2 + 7];
        let mut w = ByteWriter::new(&mut bytes);
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_str("wal.log");
        assert_eq!(w.position(), bytes.len());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16(), Some(300));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), Some(1 << 40));
        assert_eq!(r.get_str().as_deref(), Some("wal.log"));
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn reader_returns_none_past_the_end() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), None);
        assert_eq!(r.get_u16(), Some(0x0201));
        assert_eq!(r.get_u8(), None);
    }
}
