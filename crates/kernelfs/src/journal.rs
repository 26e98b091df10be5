//! Metadata journal (the jbd2 stand-in).
//!
//! The kernel file system journals *logical* metadata records: every
//! metadata mutation appends records describing the change, followed by a
//! commit record, all made persistent with a single fence before the
//! corresponding in-place metadata structures are updated.  After a crash,
//! committed transactions are replayed idempotently on top of whatever
//! in-place state survived, which is exactly the guarantee SplitFS relies
//! on when it routes metadata operations (including relink) through the
//! kernel file system.
//!
//! Costs: each record is a non-temporal device write in the
//! [`TimeCategory::Journal`] class; the commit charges the per-transaction
//! software cost from the [`CostModel`](pmem::CostModel) plus one fence.
//!
//! # One log
//!
//! The journal area is one log with one head, as jbd2's is.  Every
//! committer — a system call in the foreground or a relink batch of the
//! U-Split maintenance daemon — takes the head lock, draws its
//! transaction id under it, writes its records and fences, so records lie
//! on media in transaction-id order and recovery replays them in the
//! order it reads them.  When the journal fills it resets as a whole, and
//! only once every committed transaction has finished applying its
//! in-place metadata updates — the [`TxnGuard`] returned by
//! [`Journal::commit`] tracks exactly that window.
//!
//! # The all-zero invariant
//!
//! *Every byte of the journal outside the records written since its last
//! reset is zero.*  `mkfs` establishes it with the one whole-journal
//! zero-fill ([`Journal::format`]); every later reset relies on it and
//! zeroes only what was written: the full-journal reset at run time
//! clears `[0, head)`, and mount — whose [`Journal::scan`] leaves the head
//! one past the journal's last non-zero byte, torn tail included — clears
//! exactly that extent after replay.  A reset therefore costs what was
//! journaled, not the size of the journal, and a recovery scan may stop
//! parsing at the first slot that is not a valid record: nothing but
//! zeroes (or the torn tail of the one unfenced commit) follows.
//!
//! # The chunk map
//!
//! *A chunk whose bit is clear on media is all-zero on media.*  The
//! journal is cut into [`CHUNK_SIZE`] chunks, and one 64 B line in block 0
//! ([`JOURNAL_MAP_OFFSET`], outside the journal area) holds a bit per
//! chunk — the operation log's rule, applied to the kernel journal.  A
//! scan reads the line and fetches the journal only up to the highest
//! marked chunk, so a mount costs what the last life journaled:
//!
//! * a commit whose bytes reach a chunk the map does not cover stores the
//!   line with that chunk's bit set and fences — before the first record
//!   byte lands there.  A DRAM mirror of what the map covers, under the
//!   head lock, spares every other commit that store;
//! * [`Journal::format`] and both resets store a map of chunk 0 alone, the
//!   resets after the fence that makes their zeroes durable and with no
//!   fence of their own: until a later fence persists it, the older map on
//!   media still marks a superset.
//!
//! A torn store leaves each byte old or new.  A raise only sets bits and a
//! clear follows durable zeroes, so the map on media always marks every
//! chunk that holds a non-zero byte.  A line that reads all-zero was never
//! written or is damaged (chunk 0 is always marked), and the scan then
//! reads the whole journal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pmem::{PersistMode, PmemDevice, TimeCategory};
use vfs::util::{checksum32, is_zeroed, ByteReader, ByteWriter};
use vfs::{FsError, FsResult};

use crate::layout::{Superblock, BLOCK_SIZE, JOURNAL_BLOCKS, JOURNAL_MAP_LEN, JOURNAL_MAP_OFFSET};

/// Magic prefix of every journal record.
const RECORD_MAGIC: u16 = 0x4A52; // "JR"

/// Bytes of a record before its payload: magic, tag, payload length, tid.
const RECORD_HEADER: usize = 2 + 1 + 2 + 8;

/// Journal bytes one bit of the chunk map covers (the operation log's
/// chunk size).
pub const CHUNK_SIZE: u64 = 64 * 1024;

// The map line has a bit for every chunk of the largest journal.
const _: () =
    assert!(JOURNAL_BLOCKS * BLOCK_SIZE as u64 <= 8 * JOURNAL_MAP_LEN as u64 * CHUNK_SIZE);

/// The most extents one [`JournalRecord::SetRangeMapping`] can carry: its
/// payload (26 bytes plus 24 per extent) must fit the record's `u16`
/// length.
pub const MAX_RANGE_EXTENTS: usize = (u16::MAX as usize - 26) / 24;

/// One logical metadata mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A new inode was created and linked into a directory.
    CreateInode {
        /// New inode number.
        ino: u64,
        /// Parent directory inode.
        parent: u64,
        /// Entry name within the parent.
        name: String,
        /// Whether the new inode is a directory.
        is_dir: bool,
    },
    /// A directory entry was removed (and the inode freed if `free_inode`).
    Unlink {
        /// Parent directory inode.
        parent: u64,
        /// Entry name within the parent.
        name: String,
        /// The inode the entry referred to.
        ino: u64,
        /// Whether the inode itself was freed (link count reached zero).
        free_inode: bool,
    },
    /// A rename, possibly replacing an existing destination entry.
    Rename {
        /// Source parent directory.
        old_parent: u64,
        /// Source entry name.
        old_name: String,
        /// Destination parent directory.
        new_parent: u64,
        /// Destination entry name.
        new_name: String,
        /// The inode being renamed.
        ino: u64,
        /// Inode of a replaced destination entry (0 when none).
        replaced_ino: u64,
    },
    /// The file size changed.
    SetSize {
        /// Inode number.
        ino: u64,
        /// New size in bytes.
        size: u64,
    },
    /// A contiguous extent was added to a file's mapping.
    AddExtent {
        /// Inode number.
        ino: u64,
        /// First logical block covered.
        logical: u64,
        /// First physical block.
        phys: u64,
        /// Number of blocks.
        len: u64,
    },
    /// All extents at or beyond `from_logical` were removed.
    TruncateExtents {
        /// Inode number.
        ino: u64,
        /// First logical block to drop.
        from_logical: u64,
    },
    /// Blocks were allocated in the bitmap.
    AllocBlocks {
        /// First physical block.
        start: u64,
        /// Number of blocks.
        len: u64,
    },
    /// Blocks were freed in the bitmap.
    FreeBlocks {
        /// First physical block.
        start: u64,
        /// Number of blocks.
        len: u64,
    },
    /// Replaces the mapping of a logical block range with an explicit list
    /// of `(logical, phys, len)` extents.  Used by the relink ioctl so that
    /// replaying the record after a crash always produces the post-relink
    /// state, no matter how far the in-place updates got.
    SetRangeMapping {
        /// Inode whose mapping changes.
        ino: u64,
        /// First logical block of the affected range.
        logical: u64,
        /// Number of logical blocks affected (extents outside are kept).
        count: u64,
        /// The new extents inside the range, as `(logical, phys, len)`.
        extents: Vec<(u64, u64, u64)>,
    },
    /// Transaction commit marker.
    Commit,
}

impl JournalRecord {
    fn type_tag(&self) -> u8 {
        match self {
            JournalRecord::CreateInode { .. } => 1,
            JournalRecord::Unlink { .. } => 2,
            JournalRecord::Rename { .. } => 3,
            JournalRecord::SetSize { .. } => 4,
            JournalRecord::AddExtent { .. } => 5,
            JournalRecord::TruncateExtents { .. } => 6,
            JournalRecord::AllocBlocks { .. } => 7,
            JournalRecord::FreeBlocks { .. } => 8,
            JournalRecord::Commit => 10,
            JournalRecord::SetRangeMapping { .. } => 11,
            // Tags 9, 12 and 13 are retired and never reused: a record
            // carrying one decodes as invalid and ends the scan like a
            // torn one.
        }
    }

    /// Bytes [`JournalRecord::encode_payload`] writes.
    fn payload_len(&self) -> usize {
        match self {
            JournalRecord::CreateInode { name, .. } => 8 + 8 + 2 + name.len() + 1,
            JournalRecord::Unlink { name, .. } => 8 + 2 + name.len() + 8 + 1,
            JournalRecord::Rename {
                old_name, new_name, ..
            } => 8 + 2 + old_name.len() + 8 + 2 + new_name.len() + 8 + 8,
            JournalRecord::SetSize { .. }
            | JournalRecord::TruncateExtents { .. }
            | JournalRecord::AllocBlocks { .. }
            | JournalRecord::FreeBlocks { .. } => 16,
            JournalRecord::AddExtent { .. } => 32,
            JournalRecord::SetRangeMapping { extents, .. } => 24 + 2 + 24 * extents.len(),
            JournalRecord::Commit => 0,
        }
    }

    fn encode_payload(&self, w: &mut ByteWriter<'_>) {
        match self {
            JournalRecord::CreateInode {
                ino,
                parent,
                name,
                is_dir,
            } => {
                w.put_u64(*ino);
                w.put_u64(*parent);
                w.put_str(name);
                w.put_u8(u8::from(*is_dir));
            }
            JournalRecord::Unlink {
                parent,
                name,
                ino,
                free_inode,
            } => {
                w.put_u64(*parent);
                w.put_str(name);
                w.put_u64(*ino);
                w.put_u8(u8::from(*free_inode));
            }
            JournalRecord::Rename {
                old_parent,
                old_name,
                new_parent,
                new_name,
                ino,
                replaced_ino,
            } => {
                w.put_u64(*old_parent);
                w.put_str(old_name);
                w.put_u64(*new_parent);
                w.put_str(new_name);
                w.put_u64(*ino);
                w.put_u64(*replaced_ino);
            }
            JournalRecord::SetSize { ino, size } => {
                w.put_u64(*ino);
                w.put_u64(*size);
            }
            JournalRecord::AddExtent {
                ino,
                logical,
                phys,
                len,
            } => {
                w.put_u64(*ino);
                w.put_u64(*logical);
                w.put_u64(*phys);
                w.put_u64(*len);
            }
            JournalRecord::TruncateExtents { ino, from_logical } => {
                w.put_u64(*ino);
                w.put_u64(*from_logical);
            }
            JournalRecord::AllocBlocks { start, len }
            | JournalRecord::FreeBlocks { start, len } => {
                w.put_u64(*start);
                w.put_u64(*len);
            }
            JournalRecord::SetRangeMapping {
                ino,
                logical,
                count,
                extents,
            } => {
                w.put_u64(*ino);
                w.put_u64(*logical);
                w.put_u64(*count);
                // Bounded by the payload length check in `encode_into`.
                w.put_u16(extents.len() as u16);
                for (l, p, n) in extents {
                    w.put_u64(*l);
                    w.put_u64(*p);
                    w.put_u64(*n);
                }
            }
            JournalRecord::Commit => {}
        }
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(payload);
        let rec = match tag {
            1 => JournalRecord::CreateInode {
                ino: r.get_u64()?,
                parent: r.get_u64()?,
                name: r.get_str()?,
                is_dir: r.get_u8()? != 0,
            },
            2 => JournalRecord::Unlink {
                parent: r.get_u64()?,
                name: r.get_str()?,
                ino: r.get_u64()?,
                free_inode: r.get_u8()? != 0,
            },
            3 => JournalRecord::Rename {
                old_parent: r.get_u64()?,
                old_name: r.get_str()?,
                new_parent: r.get_u64()?,
                new_name: r.get_str()?,
                ino: r.get_u64()?,
                replaced_ino: r.get_u64()?,
            },
            4 => JournalRecord::SetSize {
                ino: r.get_u64()?,
                size: r.get_u64()?,
            },
            5 => JournalRecord::AddExtent {
                ino: r.get_u64()?,
                logical: r.get_u64()?,
                phys: r.get_u64()?,
                len: r.get_u64()?,
            },
            6 => JournalRecord::TruncateExtents {
                ino: r.get_u64()?,
                from_logical: r.get_u64()?,
            },
            7 => JournalRecord::AllocBlocks {
                start: r.get_u64()?,
                len: r.get_u64()?,
            },
            8 => JournalRecord::FreeBlocks {
                start: r.get_u64()?,
                len: r.get_u64()?,
            },
            10 => JournalRecord::Commit,
            11 => {
                let ino = r.get_u64()?;
                let logical = r.get_u64()?;
                let count = r.get_u64()?;
                let n = r.get_u16()? as usize;
                let mut extents = Vec::with_capacity(n);
                for _ in 0..n {
                    extents.push((r.get_u64()?, r.get_u64()?, r.get_u64()?));
                }
                JournalRecord::SetRangeMapping {
                    ino,
                    logical,
                    count,
                    extents,
                }
            }
            _ => return None,
        };
        Some(rec)
    }

    /// Appends the record (with transaction id `tid`) to `out` in its
    /// on-device form: `magic, tag, payload_len, tid, payload, checksum`.
    /// Nothing is allocated once `out` has the room.
    ///
    /// A payload longer than its `u16` length field can say — a
    /// `SetRangeMapping` of more than [`MAX_RANGE_EXTENTS`] — is refused with
    /// [`FsError::NoSpace`] and `out` left as it was: written with a
    /// wrapped length, mount's scan would read the record as torn and drop
    /// it with every transaction after it.
    pub fn encode_into(&self, tid: u64, out: &mut Vec<u8>) -> FsResult<()> {
        let payload_len = u16::try_from(self.payload_len()).map_err(|_| FsError::NoSpace)?;
        let start = out.len();
        let body_len = RECORD_HEADER + payload_len as usize;
        out.resize(start + body_len + 4, 0);
        let record = &mut out[start..];
        let mut w = ByteWriter::new(record);
        w.put_u16(RECORD_MAGIC);
        w.put_u8(self.type_tag());
        w.put_u16(payload_len);
        w.put_u64(tid);
        self.encode_payload(&mut w);
        // The length field was written before the payload: a payload of any
        // other length would put the checksum in the wrong place on media.
        assert_eq!(w.position(), body_len, "payload_len disagrees: {self:?}");
        let crc = checksum32(&record[..body_len]);
        record[body_len..].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }
}

/// How much of the journal one recovery read fetches.  Larger than any
/// one record (a record is at most 64 KiB of payload plus its frame), so a
/// straddling record is complete after one more read.
/// Mount reads the inode table in pieces of the same size.
pub(crate) const SCAN_CHUNK: usize = 128 * 1024;

/// What [`Journal::parse_record`] made of the bytes it was given.
enum Parsed {
    /// A checksum-valid record occupying the first `total` bytes.
    Record {
        tid: u64,
        rec: JournalRecord,
        total: usize,
    },
    /// The bytes end inside the record's header or body.
    NeedMore,
    /// Not a record: wrong magic, torn (checksum mismatch) or unknown tag.
    Invalid,
}

/// How many times a committer waits for the full journal to drain before
/// giving up (the journal drains as soon as its in-flight transactions
/// finish applying their in-place updates, so this bound is never reached
/// in practice).
const COMMIT_RETRIES: usize = 10_000;

/// Keeps a committed transaction's journal records from being reset away
/// until the transaction's in-place metadata updates have been applied.
/// Hold it for the rest of the mutating operation and drop it when the
/// in-place state matches the journaled state.
#[derive(Debug)]
pub struct TxnGuard<'a> {
    in_flight: &'a AtomicU64,
}

impl Drop for TxnGuard<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the journal's head lock guards.
#[derive(Debug, Default)]
struct Head {
    /// Next free byte offset within the journal (volatile; the on-device
    /// contents are the source of truth for recovery).
    offset: u64,
    /// The DRAM mirror of the chunk map: the journal bytes `[0, marked)`
    /// are covered by chunks the map on media marks.  A whole number of
    /// chunks; 0 until a format or a scan has set it.
    marked: u64,
    /// The transaction being committed, encoded whole before its one
    /// device write.  Cleared, never freed, by every commit, so once it
    /// has grown to the largest transaction so far a commit allocates
    /// nothing.
    txn: Vec<u8>,
}

/// The journal manager.  Owns the journal area of the device as one log.
#[derive(Debug)]
pub struct Journal {
    device: Arc<PmemDevice>,
    /// Device byte offset of the journal area.
    start: u64,
    /// Journal area length in bytes.
    len: u64,
    /// The next free byte offset and the transaction buffer (see
    /// [`Head`]).  The lock is held across the record write and fence so
    /// that the journal is torn only at its very end, and across the
    /// transaction-id draw so that media order is transaction-id order.
    head: Mutex<Head>,
    /// Committed transactions whose in-place metadata updates have not
    /// finished yet ([`TxnGuard`]s still alive).  The journal only resets
    /// when this is zero: resetting earlier could discard the journal
    /// record of a transaction whose in-place updates are still partial,
    /// which a crash at that instant could not repair.
    in_flight: AtomicU64,
    /// The id the next transaction takes; read and advanced under `head`.
    next_tid: AtomicU64,
}

impl Journal {
    /// Creates a journal manager over the journal area described by `sb`.
    /// Does not touch the device; call [`Journal::format`] for a fresh file
    /// system or [`Journal::scan`] when mounting.
    pub fn new(device: Arc<PmemDevice>, sb: &Superblock) -> Self {
        Self {
            device,
            start: sb.journal_start * BLOCK_SIZE as u64,
            len: sb.journal_blocks * BLOCK_SIZE as u64,
            head: Mutex::new(Head::default()),
            in_flight: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Zeroes the whole journal area.  Only `mkfs` needs this: the journal
    /// area of an unformatted device holds unknown bytes, and this fill is
    /// what establishes the all-zero invariant (module docs) every later
    /// [`Journal::reset`] relies on.
    /// It also stores a chunk map of chunk 0 alone, under the same fence.
    pub fn format(&self) {
        let mut head = self.head.lock();
        self.device.zero(
            self.start,
            self.len as usize,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        head.offset = 0;
        self.store_map(&mut head, CHUNK_SIZE);
        self.device.fence(TimeCategory::Journal);
    }

    /// Stores the chunk map line marking the chunks of `[0, marked)` and
    /// records it in the mirror.  Does not fence.
    fn store_map(&self, head: &mut Head, marked: u64) {
        let mut line = [0u8; JOURNAL_MAP_LEN];
        for chunk in 0..(marked / CHUNK_SIZE) as usize {
            line[chunk / 8] |= 1 << (chunk % 8);
        }
        self.device.write(
            JOURNAL_MAP_OFFSET,
            &line,
            PersistMode::NonTemporal,
            TimeCategory::Metadata,
        );
        head.marked = marked;
    }

    /// Sets the next transaction id (used after recovery so new
    /// transactions sort after every recovered one).
    pub fn set_next_tid(&self, tid: u64) {
        self.next_tid.store(tid, Ordering::SeqCst);
    }

    /// Returns the number of journal bytes currently used.
    pub fn used_bytes(&self) -> u64 {
        self.head.lock().offset
    }

    /// Commits a transaction consisting of `records` (a commit marker is
    /// appended automatically).  Returns a [`TxnGuard`] the caller must
    /// keep alive until the matching in-place metadata updates are done.
    ///
    /// All record writes use non-temporal stores followed by a single fence
    /// under the head lock, after which the transaction is durable.  A
    /// transaction may use the whole journal; one larger than that fails
    /// with [`FsError::NoSpace`].  Only a transaction that reached its
    /// fence takes a transaction id and counts in `journal_txns`.  A
    /// record [`JournalRecord::encode_into`] refuses fails the commit the
    /// same way, with [`FsError::NoSpace`] before the device is touched.
    pub fn commit(&self, records: &[JournalRecord]) -> FsResult<TxnGuard<'_>> {
        let cost = self.device.cost();
        for _attempt in 0..COMMIT_RETRIES {
            let mut guard = self
                .device
                .lock_contended(|| self.head.try_lock(), || self.head.lock());
            let head = &mut *guard;
            let tid = self.next_tid.load(Ordering::SeqCst);
            head.txn.clear();
            for rec in records.iter().chain([&JournalRecord::Commit]) {
                rec.encode_into(tid, &mut head.txn)?;
            }
            let need = head.txn.len() as u64;
            if need > self.len {
                return Err(FsError::NoSpace);
            }
            if head.offset + need > self.len {
                // Full: reset the whole journal, which preserves the
                // invariant that the surviving records always form a
                // contiguous suffix of history (trivially: nothing
                // survives).  The reset waits for in-flight transactions
                // to finish applying in place; their appliers never block
                // on the journal, so yielding drains them.
                if self.in_flight.load(Ordering::SeqCst) != 0 {
                    drop(guard);
                    std::thread::yield_now();
                    continue;
                }
                self.zero_used(head);
            }
            // Software cost of assembling the transaction.
            self.device.charge(
                TimeCategory::Software,
                cost.ext4_journal_txn_ns + records.len() as f64 * cost.ext4_journal_per_block_ns,
            );
            let end = head.offset + need;
            if end > head.marked {
                // The records reach a chunk the map does not mark: mark
                // it durably before their first byte lands there.
                self.store_map(head, end.div_ceil(CHUNK_SIZE) * CHUNK_SIZE);
                self.device.fence(TimeCategory::Metadata);
            }
            self.device.write(
                self.start + head.offset,
                &head.txn,
                PersistMode::NonTemporal,
                TimeCategory::Journal,
            );
            self.device.fence(TimeCategory::Journal);
            head.offset = end;
            self.next_tid.store(tid + 1, Ordering::SeqCst);
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            self.device.stats().add_journal_txn();
            return Ok(TxnGuard {
                in_flight: &self.in_flight,
            });
        }
        Err(FsError::Io("journal wedged".into()))
    }

    /// Discards the journal's contents: zeroes `[0, head)` — all that can
    /// be non-zero, by the all-zero invariant — with one fence, and
    /// rewinds the head.  Mount calls this once the replayed state is
    /// durable in place; nothing may be committing concurrently.
    pub fn reset(&self) {
        self.zero_used(&mut self.head.lock());
    }

    /// Zeroes the used prefix of the journal (`head` is the locked head),
    /// fences once, and rewinds the head.  Then, unless the map marks
    /// chunk 0 alone already, stores a map of chunk 0 alone and leaves it
    /// for the next fence to persist (module docs).
    fn zero_used(&self, head: &mut Head) {
        self.device.zero(
            self.start,
            head.offset as usize,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        head.offset = 0;
        self.device.fence(TimeCategory::Journal);
        if head.marked != CHUNK_SIZE {
            self.store_map(head, CHUNK_SIZE);
        }
    }

    /// Parses the record at the start of `raw`.
    fn parse_record(raw: &[u8]) -> Parsed {
        let mut r = ByteReader::new(raw);
        let (Some(magic), Some(tag), Some(payload_len), Some(tid)) =
            (r.get_u16(), r.get_u8(), r.get_u16(), r.get_u64())
        else {
            return Parsed::NeedMore;
        };
        if magic != RECORD_MAGIC {
            return Parsed::Invalid;
        }
        let header_len = r.position();
        let body_len = header_len + payload_len as usize;
        let total = body_len + 4;
        if total > raw.len() {
            return Parsed::NeedMore;
        }
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&raw[body_len..total]);
        if checksum32(&raw[..body_len]) != u32::from_le_bytes(crc_bytes) {
            // Torn record: everything from here on is garbage.
            return Parsed::Invalid;
        }
        match JournalRecord::decode(tag, &raw[header_len..body_len]) {
            Some(rec) => Parsed::Record { tid, rec, total },
            None => Parsed::Invalid,
        }
    }

    /// [`Journal::scan_written`]'s records and highest transaction id.
    pub fn scan(&self) -> (Vec<JournalRecord>, u64) {
        let scan = self.scan_written();
        (scan.records, scan.max_tid)
    }

    /// Scans the journal (mount path): reads the chunk map, then streams
    /// the journal off the device `SCAN_CHUNK` bytes at a time up to the
    /// end of the highest marked chunk (all of it if the map line is
    /// all-zero), and returns the records of every committed transaction
    /// in media order — which is transaction-id order, since ids are drawn
    /// under the head lock — the highest transaction id seen, and the
    /// journal bytes fetched.  Records of a transaction without a commit
    /// marker (torn at the crash point) are discarded.  The head is left
    /// one past the journal's last non-zero byte, which covers a torn tail
    /// beyond the last valid record, so the [`Journal::reset`] that must
    /// follow — once the replayed state is durable in place, and before
    /// anything commits — clears exactly what the crashed mount left
    /// behind.
    pub fn scan_written(&self) -> JournalScan {
        let mut line = [0u8; JOURNAL_MAP_LEN];
        self.device.read_uncharged(JOURNAL_MAP_OFFSET, &mut line);
        let limit = match line.iter().rposition(|&b| b != 0) {
            Some(i) => {
                let highest = i as u64 * 8 + 7 - u64::from(line[i].leading_zeros());
                ((highest + 1) * CHUNK_SIZE).min(self.len)
            }
            None => self.len,
        };
        let mut records: Vec<JournalRecord> = Vec::new();
        let mut max_tid = 0;
        let mut pending: Vec<JournalRecord> = Vec::new();
        // Journal bytes fetched but not parsed yet: the head of a record
        // that runs into the next chunk, then that chunk.
        let mut window: Vec<u8> = Vec::new();
        let mut parsing = true;
        let mut used = 0u64;
        let mut fetched = 0u64;
        while fetched < limit {
            let n = SCAN_CHUNK.min((limit - fetched) as usize);
            let carried = window.len();
            window.resize(carried + n, 0);
            let chunk = &mut window[carried..];
            self.device.read_uncharged(self.start + fetched, chunk);
            // Past the records the journal is zero (the invariant), so
            // whole blocks are tested first and bytes only in the last
            // block that holds any.
            if let Some(block) = chunk.rchunks(BLOCK_SIZE).position(|b| !is_zeroed(b)) {
                let end = n - block * BLOCK_SIZE;
                let last = chunk[..end]
                    .iter()
                    .rposition(|&b| b != 0)
                    .expect("block is not all-zero");
                used = fetched + last as u64 + 1;
            }
            fetched += n as u64;
            let mut pos = 0usize;
            while parsing {
                match Self::parse_record(&window[pos..]) {
                    Parsed::Record { tid, rec, total } => {
                        if matches!(rec, JournalRecord::Commit) {
                            records.append(&mut pending);
                            max_tid = tid;
                        } else {
                            pending.push(rec);
                        }
                        pos += total;
                    }
                    Parsed::NeedMore => break,
                    Parsed::Invalid => parsing = false,
                }
            }
            // Once parsing has stopped the window is only a read buffer.
            window.drain(..if parsing { pos } else { window.len() });
        }
        let mut head = self.head.lock();
        head.offset = used;
        head.marked = limit.div_ceil(CHUNK_SIZE) * CHUNK_SIZE;
        JournalScan {
            records,
            max_tid,
            fetched,
        }
    }
}

/// What [`Journal::scan_written`] found.
#[derive(Debug)]
pub struct JournalScan {
    /// The records of every committed transaction, in transaction-id order.
    pub records: Vec<JournalRecord>,
    /// The highest committed transaction id (0 if none).
    pub max_tid: u64,
    /// Journal bytes read off the device.
    pub fetched: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn setup() -> (Arc<PmemDevice>, Superblock) {
        let device = PmemBuilder::new(64 * 1024 * 1024)
            .cost_model(pmem::CostModel::calibrated())
            .build();
        let sb = Superblock::compute(device.size() as u64 / BLOCK_SIZE as u64, 1024).unwrap();
        (device, sb)
    }

    /// One record's on-device bytes.
    fn encode(rec: &JournalRecord, tid: u64) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_into(tid, &mut out).unwrap();
        out
    }

    /// What a mount's scan of `device`'s journal finds.
    fn recover(device: &Arc<PmemDevice>, sb: &Superblock) -> (Vec<JournalRecord>, u64) {
        Journal::new(Arc::clone(device), sb).scan()
    }

    #[test]
    fn records_round_trip_through_encoding() {
        let records = vec![
            JournalRecord::CreateInode {
                ino: 12,
                parent: 2,
                name: "wal.log".into(),
                is_dir: false,
            },
            JournalRecord::AddExtent {
                ino: 12,
                logical: 0,
                phys: 9000,
                len: 16,
            },
            JournalRecord::Rename {
                old_parent: 2,
                old_name: "a".into(),
                new_parent: 3,
                new_name: "b".into(),
                ino: 12,
                replaced_ino: 0,
            },
            JournalRecord::SetRangeMapping {
                ino: 12,
                logical: 64,
                count: 6,
                extents: vec![(64, 5000, 2), (66, 7000, 4)],
            },
        ];
        for rec in &records {
            let bytes = encode(rec, 7);
            let mut r = ByteReader::new(&bytes);
            r.get_u16().unwrap();
            let tag = r.get_u8().unwrap();
            let plen = r.get_u16().unwrap() as usize;
            let _tid = r.get_u64().unwrap();
            let start = r.position();
            let decoded = JournalRecord::decode(tag, &bytes[start..start + plen]).unwrap();
            assert_eq!(&decoded, rec);
        }
        // Retired tags decode as nothing, whatever their payload.
        for tag in [9, 12, 13] {
            assert_eq!(JournalRecord::decode(tag, &[0u8; 64]), None);
        }
    }

    #[test]
    fn committed_transactions_survive_crash_and_recover_in_tid_order() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal
            .commit(&[JournalRecord::SetSize { ino: 5, size: 4096 }])
            .unwrap();
        journal
            .commit(&[JournalRecord::AllocBlocks { start: 100, len: 4 }])
            .unwrap();
        device.crash();
        let (records, max_tid) = recover(&device, &sb);
        assert_eq!(
            records,
            vec![
                JournalRecord::SetSize { ino: 5, size: 4096 },
                JournalRecord::AllocBlocks { start: 100, len: 4 },
            ]
        );
        assert_eq!(max_tid, 2);
    }

    #[test]
    fn torn_uncommitted_transaction_is_discarded() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 10 }])
            .unwrap();
        // Hand-write a record with no commit marker and no fence after
        // it, as if the crash happened mid-transaction.
        let torn = encode(&JournalRecord::SetSize { ino: 2, size: 99 }, 9);
        device.write(
            journal.start + journal.used_bytes(),
            &torn,
            PersistMode::Temporal,
            TimeCategory::Journal,
        );
        device.crash();
        let (records, _) = recover(&device, &sb);
        assert_eq!(records, vec![JournalRecord::SetSize { ino: 1, size: 10 }]);
    }

    #[test]
    fn journal_resets_when_full() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        // Each commit is small; force many commits to eventually wrap.
        let big_name = "x".repeat(200);
        let create = |i: u64| JournalRecord::CreateInode {
            ino: i,
            parent: 2,
            name: big_name.clone(),
            is_dir: false,
        };
        let txn_len =
            (encode(&create(0), 1).len() + encode(&JournalRecord::Commit, 1).len()) as u64;
        let commits = 50_000u64;
        assert!(
            commits * txn_len > journal.len,
            "the commits overflow the journal"
        );
        for i in 0..commits {
            journal.commit(&[create(i)]).unwrap();
        }
        // If we got here without error the reset path worked; the head is
        // within the journal and holds only what followed the last reset.
        let used = journal.used_bytes();
        assert!(used <= journal.len);
        assert_eq!(used % txn_len, 0);
        assert!(used < commits * txn_len);
    }

    #[test]
    fn a_transaction_larger_than_the_journal_fails_and_counts_nothing() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 1 }])
            .unwrap();
        let name = "z".repeat(1000);
        let records: Vec<JournalRecord> = (0..journal.len / 1000 + 1)
            .map(|ino| JournalRecord::CreateInode {
                ino,
                parent: 2,
                name: name.clone(),
                is_dir: false,
            })
            .collect();
        let used = journal.used_bytes();
        let before = device.stats().snapshot();
        assert_eq!(journal.commit(&records).err(), Some(FsError::NoSpace));
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.journal_txns, 0, "a failed commit is no transaction");
        assert_eq!(journal.used_bytes(), used);
        // The failure took no transaction id: the next commit follows the
        // first.
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 2 }])
            .unwrap();
        assert_eq!(recover(&device, &sb).1, 2);
    }

    #[test]
    fn a_record_too_long_for_its_length_field_fails_and_counts_nothing() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 1 }])
            .unwrap();
        // 3 000 extents are 72 026 payload bytes: past what the record's
        // `u16` length (and the map's `u16` count) can say.
        let too_long = JournalRecord::SetRangeMapping {
            ino: 5,
            logical: 0,
            count: 6_000,
            extents: (0..3_000).map(|i| (2 * i, 10_000 + 3 * i, 1)).collect(),
        };
        let mut out = vec![0xAB; 7];
        assert_eq!(too_long.encode_into(2, &mut out), Err(FsError::NoSpace));
        assert_eq!(out, vec![0xAB; 7], "a refused record writes nothing");

        let used = journal.used_bytes();
        let before = device.stats().snapshot();
        let records = [JournalRecord::SetSize { ino: 5, size: 9 }, too_long];
        assert_eq!(journal.commit(&records).err(), Some(FsError::NoSpace));
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.journal_txns, 0, "a failed commit is no transaction");
        assert_eq!(delta.written(TimeCategory::Journal), 0);
        assert_eq!(journal.used_bytes(), used);
        // The failure took no transaction id, and the refused record is
        // nowhere on media to be misread as a torn tail.
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 2 }])
            .unwrap();
        let (records, max_tid) = recover(&device, &sb);
        assert_eq!(max_tid, 2);
        assert_eq!(
            records,
            vec![
                JournalRecord::SetSize { ino: 1, size: 1 },
                JournalRecord::SetSize { ino: 1, size: 2 },
            ]
        );
    }

    #[test]
    fn reset_waits_for_in_flight_transactions() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        // Hold a guard (an "in-place updates still running" transaction)
        // and fill the whole journal: no region may reset over it, so
        // once nothing fits anywhere the commit must fail rather than
        // discard the guarded record.
        let guard = journal
            .commit(&[JournalRecord::SetSize { ino: 9, size: 9 }])
            .unwrap();
        let big_name = "y".repeat(200);
        let mut filled = false;
        for i in 0..200_000u64 {
            if journal
                .commit(&[JournalRecord::CreateInode {
                    ino: i,
                    parent: 2,
                    name: big_name.clone(),
                    is_dir: false,
                }])
                .is_err()
            {
                filled = true;
                break;
            }
        }
        assert!(filled, "the journal filled while the guard was held");
        // The guarded transaction's record survived: no reset ran.
        let (records, _) = recover(&device, &sb);
        assert!(records.contains(&JournalRecord::SetSize { ino: 9, size: 9 }));
        // Once the guard drops, the whole-journal reset unblocks commits.
        drop(guard);
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 1 }])
            .unwrap();
    }

    #[test]
    fn recovery_tid_restores_ordering_for_new_commits() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal
            .commit(&[JournalRecord::SetSize { ino: 1, size: 1 }])
            .unwrap();
        let (_, max_tid) = recover(&device, &sb);
        // Mount's contract: replayed contents are checkpointed in place,
        // then the journal is formatted and the tid counter restored.
        let recovered = Journal::new(Arc::clone(&device), &sb);
        recovered.set_next_tid(max_tid + 1);
        recovered.format();
        recovered
            .commit(&[JournalRecord::SetSize { ino: 1, size: 2 }])
            .unwrap();
        let (records, new_max) = recover(&device, &sb);
        assert_eq!(records, vec![JournalRecord::SetSize { ino: 1, size: 2 }]);
        assert_eq!(
            new_max,
            max_tid + 1,
            "new commits sort after recovered ones"
        );
    }

    #[test]
    fn scan_covers_a_torn_tail_and_reset_zeroes_only_what_was_written() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        // Enough records that some straddle the scan's chunk boundaries,
        // then one small transaction.
        let name = "n".repeat(200);
        let commits = 3 * SCAN_CHUNK as u64 / 250;
        for ino in 0..commits {
            let create = JournalRecord::CreateInode {
                ino,
                parent: 2,
                name: name.clone(),
                is_dir: false,
            };
            journal.commit(&[create]).unwrap();
        }
        journal
            .commit(&[JournalRecord::SetSize { ino: 7, size: 7 }])
            .unwrap();
        let head = journal.used_bytes();
        assert!(head > 2 * SCAN_CHUNK as u64);
        // The torn tail of a commit the crash cut short: bytes past the
        // last valid record that parse as nothing.
        let torn = [0xEEu8; 100];
        device.write(
            journal.start + head,
            &torn,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );

        let mounted = Journal::new(Arc::clone(&device), &sb);
        let (records, max_tid) = mounted.scan();
        assert_eq!(records.len() as u64, commits + 1);
        assert_eq!(
            records.last(),
            Some(&JournalRecord::SetSize { ino: 7, size: 7 })
        );
        assert_eq!(max_tid, commits + 1);
        let used = mounted.used_bytes();
        assert_eq!(used, head + 100);

        let before = device.stats().snapshot();
        mounted.reset();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(
            delta.written(TimeCategory::Journal),
            used,
            "the reset writes the used extent, not the journal"
        );
        assert_eq!(delta.fences, 1);
        assert_eq!(mounted.used_bytes(), 0);
        let mut raw = vec![0u8; mounted.len as usize];
        device.read_uncharged(mounted.start, &mut raw);
        assert!(is_zeroed(&raw), "the journal is all-zero");
    }

    #[test]
    fn concurrent_commits_from_many_threads_all_recover() {
        let (device, sb) = setup();
        let journal = Arc::new(Journal::new(Arc::clone(&device), &sb));
        journal.format();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let journal = Arc::clone(&journal);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        journal
                            .commit(&[JournalRecord::SetSize {
                                ino: t * 1000 + i,
                                size: i,
                            }])
                            .unwrap();
                    }
                });
            }
        });
        device.crash();
        let (records, max_tid) = recover(&device, &sb);
        assert_eq!(records.len(), 400);
        assert_eq!(max_tid, 400);
        // Each thread's records come back in the order it committed them:
        // tids are drawn under the head lock, so media order is tid order
        // and the scan needs no sort.
        let mut next = [0u64; 4];
        for rec in &records {
            let JournalRecord::SetSize { ino, size } = *rec else {
                panic!("unexpected record {rec:?}");
            };
            let t = (ino / 1000) as usize;
            assert_eq!((ino % 1000, size), (next[t], next[t]), "thread {t}");
            next[t] += 1;
        }
        assert_eq!(next, [100; 4]);
    }

    /// The chunk map line on `device`.
    fn map_line(device: &PmemDevice) -> [u8; JOURNAL_MAP_LEN] {
        let mut line = [0u8; JOURNAL_MAP_LEN];
        device.read_uncharged(JOURNAL_MAP_OFFSET, &mut line);
        line
    }

    /// A transaction of about 5 KiB.
    fn txn(ino: u64) -> Vec<JournalRecord> {
        (0..20)
            .map(|i| JournalRecord::CreateInode {
                ino: ino * 100 + i,
                parent: 2,
                name: "m".repeat(220),
                is_dir: false,
            })
            .collect()
    }

    #[test]
    fn format_marks_chunk_zero_and_a_commit_marks_each_chunk_it_opens_once() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        assert_eq!(map_line(&device)[..2], [0b1, 0]);
        let mut ino = 0;
        let before = device.stats().snapshot();
        while journal.used_bytes() < 3 * CHUNK_SIZE + 100 {
            journal.commit(&txn(ino)).unwrap();
            ino += 1;
        }
        let delta = device.stats().snapshot().delta(&before);
        // One map store per chunk opened (1, 2 and 3), each with its fence,
        // beside the one fence of every commit.
        assert_eq!(
            delta.written(TimeCategory::Metadata),
            3 * JOURNAL_MAP_LEN as u64
        );
        assert_eq!(delta.fences, ino + 3);
        assert_eq!(map_line(&device)[..2], [0b1111, 0]);
        let scan = Journal::new(Arc::clone(&device), &sb).scan_written();
        assert_eq!(scan.fetched, 4 * CHUNK_SIZE, "the scan stops at chunk 3");
        assert_eq!(scan.max_tid, ino);
    }

    #[test]
    fn an_all_zero_map_scans_the_whole_journal() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        journal.commit(&txn(1)).unwrap();
        assert_eq!(recover(&device, &sb).0, txn(1));
        device.write_uncharged(JOURNAL_MAP_OFFSET, &[0u8; JOURNAL_MAP_LEN]);
        let mounted = Journal::new(Arc::clone(&device), &sb);
        let scan = mounted.scan_written();
        assert_eq!(
            scan.fetched, journal.len,
            "a map never written marks every chunk"
        );
        assert_eq!((scan.records, scan.max_tid), (txn(1), 1));
        // The reset that follows the scan stores a map of chunk 0 again.
        mounted.reset();
        assert_eq!(map_line(&device)[..2], [0b1, 0]);
        assert_eq!(mounted.scan_written().fetched, CHUNK_SIZE);
    }

    #[test]
    fn a_reset_adds_no_fence() {
        let (device, sb) = setup();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        let mut ino = 0;
        while journal.used_bytes() < CHUNK_SIZE + 100 {
            journal.commit(&txn(ino)).unwrap();
            ino += 1;
        }
        assert_eq!(map_line(&device)[0], 0b11);
        let before = device.stats().snapshot();
        journal.reset();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.fences, 1, "the zeroes' fence, and no other");
        assert_eq!(
            delta.written(TimeCategory::Metadata),
            JOURNAL_MAP_LEN as u64
        );
        assert_eq!(map_line(&device)[0], 0b1);
        // A reset with the map at chunk 0 already stores nothing more.
        let before = device.stats().snapshot();
        journal.reset();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.fences, 1);
        assert_eq!(delta.written(TimeCategory::Metadata), 0);
    }
}
