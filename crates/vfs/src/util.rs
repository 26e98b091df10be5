//! Small utilities shared by the file-system implementations.

/// 32-bit record checksum, computed a 64-bit word at a time.
///
/// The transactional checksum of journal records and SplitFS
/// operation-log entries (§3.3: a 4-byte checksum lets a log entry be
/// validated with a single fence instead of two).  The length and then
/// each little-endian word (the tail zero-padded) are xored into the
/// state, which is multiplied by an odd constant and xor-shifted; every
/// step is a bijection, so a change to one word changes the 64-bit state,
/// which is folded to 32 bits.  Not cryptographic: it detects torn or
/// partially written entries, as CRC32 does in the original system.
pub fn checksum32(data: &[u8]) -> u32 {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |state: u64, word: u64| {
        let h = (state ^ word).wrapping_mul(MUL);
        h ^ (h >> 29)
    };
    let mut words = data.chunks_exact(8);
    let mut state = mix(0x6A09_E667_F3BC_C908, data.len() as u64);
    for word in &mut words {
        state = mix(state, u64::from_le_bytes(word.try_into().unwrap()));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        state = mix(state, u64::from_le_bytes(padded));
    }
    let state = mix(state, 0);
    (state ^ (state >> 32)) as u32
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
    fn checksum_of_empty_and_of_a_log_entry_are_pinned() {
        // Every journal record and operation-log entry on media carries
        // this function's output: a change to it is a format change.
        let entry: Vec<u8> = (0..60u8).collect();
        assert_eq!(
            (checksum32(&[]), checksum32(&entry)),
            (0x41b3_b835, 0xb986_19df)
        );
    }

    /// A 60 B entry: the bytes an operation-log line checksums.
    fn entry() -> [u8; 60] {
        std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
    }

    #[test]
    fn every_single_bit_flip_of_an_entry_changes_its_checksum() {
        let entry = entry();
        let base = checksum32(&entry);
        for bit in 0..entry.len() * 8 {
            let mut flipped = entry;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum32(&flipped), base, "bit {bit}");
        }
    }

    #[test]
    fn an_all_zero_entry_does_not_checksum_to_zero() {
        assert_ne!(checksum32(&[0u8; 60]), 0);
    }

    #[test]
    fn every_prefix_of_a_buffer_checksums_differently() {
        let mut buf = [0u8; 200];
        buf[..60].copy_from_slice(&entry());
        let mut seen: Vec<u32> = (0..=buf.len()).map(|n| checksum32(&buf[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), buf.len() + 1);
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
