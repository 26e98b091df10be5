//! The SplitFS operation log (paper §3.3, "Optimized logging"), as a
//! **two-epoch (segment-swap) log**.
//!
//! In strict (and sync, for appends) mode, U-Split records each staged data
//! operation in a per-instance operation log so that a crash before the
//! next `fsync`/relink can be recovered.  The log is a pre-allocated file
//! on the kernel file system that U-Split maps once and then writes with
//! non-temporal stores — no kernel involvement per entry.  The
//! optimizations the paper describes are all present:
//!
//! * one 64 B entry and **one** fence per operation (NOVA needs two cache
//!   lines and two fences).  An entry covers a *staged run* — one staging
//!   allocation — however many slices the operation gathers; an operation
//!   that needs two allocations logs two entries under the one fence,
//!   which [`OpLog::append_batch`] counts as a group commit,
//! * a 4 B checksum inside the entry distinguishes valid from torn entries,
//!   so no second fence is needed to persist a tail pointer,
//! * the tail lives only in DRAM and is advanced with an atomic
//!   fetch-and-add so concurrent threads can reserve slots without locks,
//! * used space is given back by advancing a durable **sequence
//!   watermark**, as ext4's jbd2 frees journal space by advancing its
//!   start sequence: nothing that was logged is written a second time.
//!
//! # On-media layout
//!
//! The log file is an array of 64 B slots, at least one 4 KiB block of
//! them ([`MIN_LOG_SIZE`]).  The last three slots of the first block are
//! reserved:
//!
//! * the last ([`MAP_OFFSET`]) holds the **chunk map**, a bitmap with one
//!   bit per [`CHUNK_SIZE`] (64 KiB) of file offset — bit `i` of
//!   little-endian word `i / 64` covers `[i * 64 KiB, (i + 1) * 64 KiB)`.
//!   Its 512 bits reach the first 32 MiB of the file; chunks past that
//!   have no bit and are always read;
//! * the two before it ([`WATERMARK_OFFSET`]) hold the **watermark
//!   records** below.
//!
//! Every other slot belongs to one of the two epochs below.  The reserved
//! slots close the block rather than open it so that entry offsets are
//! those of a log without them.
//!
//! # Watermarks
//!
//! Each epoch is a *region*: an entry records the region its slot was
//! reserved in, and region *e* has a durable watermark W_e.  **An entry is
//! live only if its sequence number is above its region's watermark**;
//! every other entry is retired, and recovery reads past it as it reads
//! past a torn slot.  The log numbers each entry when it reserves the
//! entry's slot, from one counter for both regions, so raising W_e to the
//! highest number handed out retires everything region *e* holds and
//! nothing a later reservation in it gets.
//!
//! The watermarks live in two checksummed records stored alternately:
//! record *g* (its generation) goes to slot `g % 2`, so a torn store
//! leaves record *g − 1* readable, and the newest valid record is the
//! state ([`Watermarks`]).  Retiring an epoch ([`OpLog::truncate_sealed`])
//! or a recovered log ([`OpLog::clear`]) is one record store and one fence
//! (and the chunk-map clear below): retiring costs a constant, not what
//! was logged.
//!
//! A log is zero-filled only when its blocks are new to it — at creation
//! or resize ([`OpLog::format`]) — because the kernel allocator hands out
//! recycled blocks unzeroed.  An [`OpLog`] numbers on from the highest
//! watermark, and stores a first record when it finds none, so a log that
//! holds entries holds a record: recovery refuses one that does not.
//!
//! # The chunk-map invariant
//!
//! *A chunk whose bit is clear on media holds no live entry.*  It lets
//! recovery read the map and then only the marked chunks, so finding the
//! live entries costs what was logged since the last retirement.  Three
//! rules keep it:
//!
//! * a writer makes a chunk's bit durable — one 64 B store and a fence —
//!   before its first entry store into the chunk since the bit was last
//!   cleared.  A DRAM mirror of the map tells every later append that the
//!   bit is set already, so an epoch pays one extra fence per 1024
//!   entries;
//! * a truncation first makes its watermark durable, and only then clears
//!   the bits of the chunks that lie wholly in the truncated epoch (all
//!   they hold is retired now) under a second fence; recovery does the
//!   same for every marked chunk once its record is durable;
//! * every map store writes the whole line from the mirror under one
//!   lock, and publishes the new words to the mirror only after its
//!   fence, so no concurrent set is lost and no writer trusts a bit that
//!   is not yet durable.
//!
//! A torn map store keeps each byte old or new: a set never loses an old
//! bit, and a clear only drops bits of chunks that hold no live entry.
//! The map therefore needs no checksum.
//!
//! # Epochs
//!
//! The log file is fixed in size, as in the paper, and split into **two
//! epochs** (halves).  Writers group-commit into the active epoch; when it
//! fills (or the checkpoint threshold is crossed), [`OpLog::try_seal`]
//! atomically swaps the retired other half in as the new active epoch, so
//! writers go on at once.  The sealed half is then retired *in the
//! background*: its files are relinked one at a time (never holding two
//! state locks), and only then is its watermark raised
//! ([`OpLog::truncate_sealed`]).  If the new active epoch also fills
//! before retirement finishes, the writer gives up its state locks and
//! waits on a blocking checkpoint, as ext4's jbd2 makes a transaction
//! wait for a checkpoint when its journal has no room: the log never
//! grows.  `checkpoint_stalls` counts those waits.
//!
//! Each epoch is a fixed list of byte extents of the log file: the
//! reserved slots split the half that holds them in two.  An entry names
//! its region, so recovery needs no record of that geometry.
//!
//! The epoch split sits at the entry-aligned middle of the file, so in a
//! log of a whole number of chunk pairs no chunk is shared by the two
//! epochs and a truncation can clear the bits of all it retired.
//!
//! Recovery does not care about the split: it scans every marked chunk of
//! the file (both epochs, any geometry) and replays live entries **in
//! sequence order**, which is global across epochs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kernelfs::DaxMapping;
use pmem::{PersistMode, PmemDevice, TimeCategory};
use vfs::util::{checksum32, is_zeroed};
use vfs::{FsError, FsResult};

/// Size of one log entry.
pub const ENTRY_SIZE: u64 = 64;

/// How much of the log one recovery read fetches (and one zeroing store
/// clears): a 4 KiB block.
const SCAN_BLOCK: usize = 4096;

/// The smallest log file: one block, its reserved slots included.
pub const MIN_LOG_SIZE: u64 = SCAN_BLOCK as u64;

/// Log-file bytes one bit of the chunk map covers.
pub const CHUNK_SIZE: u64 = 64 * 1024;

/// File offset of the chunk map: the last slot of the first 4 KiB block.
pub const MAP_OFFSET: u64 = SCAN_BLOCK as u64 - ENTRY_SIZE;

/// File offset of the first of the two watermark-record slots, which sit
/// just before the map.
pub const WATERMARK_OFFSET: u64 = MAP_OFFSET - 2 * ENTRY_SIZE;

/// The reserved slots: both watermark records, then the map.
const RESERVED: std::ops::Range<u64> = WATERMARK_OFFSET..SCAN_BLOCK as u64;

/// Chunks the one-slot map has a bit for: the first 32 MiB of the file.
const MAP_CHUNKS: u64 = ENTRY_SIZE * 8;

/// The map as the little-endian words of its slot.
type ChunkMap = [u64; (ENTRY_SIZE / 8) as usize];

/// Whether the slot at file offset `off` is one of the reserved ones.
pub fn is_reserved(off: u64) -> bool {
    RESERVED.contains(&off)
}

/// `[from, to)` of the log file as slot extents: the range less the
/// reserved slots.
fn slot_extents(from: u64, to: u64) -> Vec<(u64, u64)> {
    [(from, to.min(RESERVED.start)), (from.max(RESERVED.end), to)]
        .into_iter()
        .filter(|&(a, b)| a < b)
        .map(|(a, b)| (a, b - a))
        .collect()
}

/// Calls `f(from, to)`, in order, for each log-file range the
/// epoch-relative `[off, off + len)` of an epoch made of `extents` lies
/// in, up to the first error.
fn file_ranges(
    extents: &[(u64, u64)],
    mut off: u64,
    mut len: u64,
    mut f: impl FnMut(u64, u64) -> FsResult<()>,
) -> FsResult<()> {
    for &(start, ext_len) in extents {
        if len == 0 {
            break;
        }
        if off >= ext_len {
            off -= ext_len;
            continue;
        }
        let n = len.min(ext_len - off);
        f(start + off, start + off + n)?;
        (off, len) = (0, len - n);
    }
    if len > 0 {
        return Err(FsError::Io("operation log epoch hole".into()));
    }
    Ok(())
}

/// Writes the 64 B `line` into the slot at file offset `off` with a
/// non-temporal store, unfenced.
fn store_line(
    device: &PmemDevice,
    mapping: &DaxMapping,
    off: u64,
    line: &[u8; ENTRY_SIZE as usize],
) -> FsResult<()> {
    let (dev_off, _) = mapping
        .translate(off)
        .ok_or_else(|| FsError::Io("operation log reserved slot unmapped".into()))?;
    device.write(dev_off, line, PersistMode::NonTemporal, TimeCategory::OpLog);
    Ok(())
}

/// Writes `map` into the map slot with a non-temporal store and fences.
fn store_map(device: &PmemDevice, mapping: &DaxMapping, map: &ChunkMap) -> FsResult<()> {
    let mut line = [0u8; ENTRY_SIZE as usize];
    for (bytes, word) in line.chunks_exact_mut(8).zip(map) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    store_line(device, mapping, MAP_OFFSET, &line)?;
    device.fence(TimeCategory::OpLog);
    Ok(())
}

/// Reads `buf` from the device as recovery reads the log: one sequential
/// read, charged as software time.
fn read_charged(device: &PmemDevice, dev_off: u64, buf: &mut [u8]) {
    device.read_uncharged(dev_off, buf);
    device.charge_software(device.cost().pm_read_cost(buf.len(), true));
    device
        .stats()
        .add_bytes_read(TimeCategory::OpLog, buf.len() as u64);
}

/// The reserved slots, in one read (all zero when the block is unmapped).
fn read_reserved(
    device: &PmemDevice,
    mapping: &DaxMapping,
) -> [u8; SCAN_BLOCK - WATERMARK_OFFSET as usize] {
    let mut slots = [0u8; SCAN_BLOCK - WATERMARK_OFFSET as usize];
    if let Some((dev_off, _)) = mapping.translate(WATERMARK_OFFSET) {
        read_charged(device, dev_off, &mut slots);
    }
    slots
}

/// Magic tag in every entry.
const ENTRY_MAGIC: u16 = 0x4F4C; // "OL"

/// Magic tag in every watermark record.
const WATERMARK_MAGIC: u16 = 0x4D57; // "WM"

/// The kind of a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Data was written to a staging file and must be moved to the target
    /// file (by relink) if a crash happens before the next `fsync`.
    StagedWrite,
    /// Every staged write for `target_ino` with sequence number ≤
    /// [`LogEntry::covers`] has been relinked into the target (or
    /// dropped) and must not be replayed.
    Invalidate,
    /// The staging file `staging_ino` was recycled (truncated and
    /// re-provisioned) after all of its staged data was retired: staged
    /// writes referencing it with a sequence number below the marker's own
    /// must not be replayed, because the file's blocks now hold unrelated
    /// new data.
    StagingRecycle,
}

impl LogOp {
    fn tag(self) -> u8 {
        match self {
            LogOp::StagedWrite => 1,
            LogOp::Invalidate => 2,
            LogOp::StagingRecycle => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(LogOp::StagedWrite),
            2 => Some(LogOp::Invalidate),
            3 => Some(LogOp::StagingRecycle),
            _ => None,
        }
    }
}

/// A decoded operation-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Entry kind.
    pub op: LogOp,
    /// Target file inode.
    pub target_ino: u64,
    /// Offset within the target file the staged data belongs at (for
    /// `Invalidate`: unused).
    pub target_offset: u64,
    /// Length of the staged data in bytes (for `Invalidate`: unused).
    pub len: u64,
    /// Staging file inode holding the data.
    pub staging_ino: u64,
    /// Offset of the data within the staging file.
    pub staging_offset: u64,
    /// Sequence number the log gave the entry when it reserved its slot
    /// ([`OpLog::append_batch`]): global across epochs, rising with every
    /// reservation.
    pub seq: u64,
    /// For an `Invalidate`: the highest sequence number it covers.  Zero
    /// for the other kinds.
    pub covers: u64,
    /// The epoch region the entry's slot was reserved in, set by the log
    /// with `seq`: the entry is retired once `seq` is at or below that
    /// region's watermark.
    pub region: u8,
    /// Id of the U-Split instance that wrote the entry (see
    /// [`kernelfs::lease`]).  Each instance has its own log file, so the
    /// tag is a cross-contamination check: recovery of instance N's log
    /// refuses to replay an entry tagged with another instance's id.
    pub instance_id: u32,
}

impl LogEntry {
    /// An entry of kind `op` by `instance_id` with every other field
    /// zero; the log fills in `seq` and `region` when it appends it.
    pub fn new(op: LogOp, instance_id: u32) -> Self {
        Self {
            op,
            target_ino: 0,
            target_offset: 0,
            len: 0,
            staging_ino: 0,
            staging_offset: 0,
            seq: 0,
            covers: 0,
            region: 0,
            instance_id,
        }
    }

    /// Serializes the entry into its 64-byte on-log form.  Bytes 12..20
    /// hold an `Invalidate`'s `covers`, and every other kind's target
    /// offset.
    pub fn encode(&self) -> [u8; ENTRY_SIZE as usize] {
        let mut buf = [0u8; ENTRY_SIZE as usize];
        buf[0..2].copy_from_slice(&ENTRY_MAGIC.to_le_bytes());
        buf[2] = self.op.tag();
        buf[3] = self.region;
        let offset_or_covers = match self.op {
            LogOp::Invalidate => self.covers,
            _ => self.target_offset,
        };
        buf[4..12].copy_from_slice(&self.target_ino.to_le_bytes());
        buf[12..20].copy_from_slice(&offset_or_covers.to_le_bytes());
        buf[20..28].copy_from_slice(&self.len.to_le_bytes());
        buf[28..36].copy_from_slice(&self.staging_ino.to_le_bytes());
        buf[36..44].copy_from_slice(&self.staging_offset.to_le_bytes());
        buf[44..52].copy_from_slice(&self.seq.to_le_bytes());
        buf[52..56].copy_from_slice(&self.instance_id.to_le_bytes());
        let crc = checksum32(&buf[..60]);
        buf[60..64].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a 64-byte slot.  Returns `None` for all-zero slots (never
    /// written), torn entries (checksum mismatch), unknown tags and
    /// regions.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let buf = valid_line(buf, ENTRY_MAGIC)?;
        let op = LogOp::from_tag(buf[2])?;
        let region = buf[3];
        if region > 1 {
            return None;
        }
        let offset_or_covers = read_u64(buf, 12);
        let (target_offset, covers) = match op {
            LogOp::Invalidate => (0, offset_or_covers),
            _ => (offset_or_covers, 0),
        };
        Some(Self {
            op,
            target_ino: read_u64(buf, 4),
            target_offset,
            len: read_u64(buf, 20),
            staging_ino: read_u64(buf, 28),
            staging_offset: read_u64(buf, 36),
            seq: read_u64(buf, 44),
            covers,
            region,
            instance_id: u32::from_le_bytes([buf[52], buf[53], buf[54], buf[55]]),
        })
    }
}

/// The little-endian `u64` at `buf[at..at + 8]`.
fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// `buf`'s first 64 bytes if they start with `magic` and end with their
/// checksum; an all-zero or torn slot is `None`.
fn valid_line(buf: &[u8], magic: u16) -> Option<&[u8]> {
    let buf = buf.get(..ENTRY_SIZE as usize)?;
    if u16::from_le_bytes([buf[0], buf[1]]) != magic {
        return None;
    }
    let crc_stored = u32::from_le_bytes([buf[60], buf[61], buf[62], buf[63]]);
    (checksum32(&buf[..60]) == crc_stored).then_some(buf)
}

/// The two regions' watermarks, as the newest valid watermark record
/// holds them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watermarks {
    /// How many records were stored up to this one: record `g` lives in
    /// reserved slot `g % 2`.  Zero for a log that never held one.
    pub generation: u64,
    /// W_e per region `e`: an entry of region `e` whose sequence number
    /// is at or below `seq[e]` is retired.
    pub seq: [u64; 2],
}

impl Watermarks {
    /// Whether `entry` is retired.
    pub fn retires(&self, entry: &LogEntry) -> bool {
        entry.seq <= self.seq[entry.region as usize]
    }

    /// The higher of the two watermarks.
    fn top(&self) -> u64 {
        self.seq[0].max(self.seq[1])
    }

    /// The record that follows this one, holding `seq`.
    fn next(&self, seq: [u64; 2]) -> Self {
        Self {
            generation: self.generation + 1,
            seq,
        }
    }

    /// Reads the newest valid record of a log file, if it holds one.
    pub fn read(device: &PmemDevice, mapping: &DaxMapping) -> Option<Self> {
        Self::newest(&read_reserved(device, mapping))
    }

    /// The newest valid record of the reserved slots `slots`.
    fn newest(slots: &[u8]) -> Option<Self> {
        slots
            .chunks_exact(ENTRY_SIZE as usize)
            .take(2)
            .enumerate()
            .filter_map(|(slot, line)| {
                let line = valid_line(line, WATERMARK_MAGIC)?;
                let generation = read_u64(line, 2);
                (generation % 2 == slot as u64).then(|| Self {
                    generation,
                    seq: [read_u64(line, 10), read_u64(line, 18)],
                })
            })
            .max_by_key(|marks| marks.generation)
    }

    /// Stores the record into its slot, overwriting the record before
    /// the one it follows, and fences.
    fn store(&self, device: &PmemDevice, mapping: &DaxMapping) -> FsResult<()> {
        let mut line = [0u8; ENTRY_SIZE as usize];
        line[0..2].copy_from_slice(&WATERMARK_MAGIC.to_le_bytes());
        line[2..10].copy_from_slice(&self.generation.to_le_bytes());
        line[10..18].copy_from_slice(&self.seq[0].to_le_bytes());
        line[18..26].copy_from_slice(&self.seq[1].to_le_bytes());
        let crc = checksum32(&line[..60]);
        line[60..64].copy_from_slice(&crc.to_le_bytes());
        let slot = WATERMARK_OFFSET + self.generation % 2 * ENTRY_SIZE;
        store_line(device, mapping, slot, &line)?;
        device.fence(TimeCategory::OpLog);
        Ok(())
    }
}

/// One epoch (half) of the log: a list of byte extents of the log file
/// and an epoch-relative tail.
#[derive(Debug)]
struct Epoch {
    /// `(file_offset, len)` extents composing this epoch, in order.
    extents: Vec<(u64, u64)>,
    /// Total capacity in bytes.
    cap: u64,
    /// Epoch-relative byte offset of the next free slot (DRAM-only).
    tail: AtomicU64,
    /// Appends currently writing into this epoch; a seal waits for this to
    /// drain before the sweep starts, and a truncate can only run on an
    /// epoch no writer can reach anymore.
    writers: AtomicU64,
}

impl Epoch {
    fn new(extents: Vec<(u64, u64)>) -> Self {
        Self {
            cap: extents.iter().map(|(_, len)| len).sum(),
            extents,
            tail: AtomicU64::new(0),
            writers: AtomicU64::new(0),
        }
    }
}

/// The two-epoch operation log of one U-Split instance.
#[derive(Debug)]
pub struct OpLog {
    device: Arc<PmemDevice>,
    /// Mapping of the log file.
    mapping: DaxMapping,
    epochs: [Epoch; 2],
    /// Index of the active epoch.
    active: AtomicUsize,
    /// Set while the non-active epoch holds sealed entries awaiting
    /// retirement (relink of their files, then truncation).
    sealed_pending: AtomicBool,
    /// The next sequence number, global across epochs.
    seq: AtomicU64,
    /// The durable watermark record, which truncations advance.
    watermarks: Mutex<Watermarks>,
    /// DRAM mirror of the chunk map.  A word is stored (`Release`) only
    /// after the map store that holds it was fenced, and appends load it
    /// (`Acquire`) before their entry stores: a set bit seen here is
    /// durable.
    map: [AtomicU64; (ENTRY_SIZE / 8) as usize],
    /// Serializes map stores, so each writes the line from an up-to-date
    /// mirror.
    map_lock: Mutex<()>,
}

impl OpLog {
    /// Wraps an already-mapped log file of `size` bytes (at least
    /// [`MIN_LOG_SIZE`]).  The file is split into two epochs at an
    /// entry-aligned midpoint; the reserved slots belong to neither.
    ///
    /// The file must hold no live entry and a clear chunk map: the caller
    /// has either just formatted it ([`OpLog::format`]) or hands over one
    /// that recovery replayed and cleared.  Numbering goes on above the
    /// highest watermark; a file with no watermark record gets its first
    /// one here, before any entry.
    pub fn new(device: Arc<PmemDevice>, mapping: DaxMapping, size: u64) -> FsResult<Self> {
        assert!(
            size >= MIN_LOG_SIZE,
            "a {size} B operation log has no room for its reserved slots"
        );
        let watermarks = match Watermarks::read(&device, &mapping) {
            Some(marks) => marks,
            None => {
                let first = Watermarks::default().next([0, 0]);
                first.store(&device, &mapping)?;
                first
            }
        };
        let half = (size / 2) / ENTRY_SIZE * ENTRY_SIZE;
        Ok(Self {
            device,
            mapping,
            epochs: [
                Epoch::new(slot_extents(0, half)),
                Epoch::new(slot_extents(half, size)),
            ],
            active: AtomicUsize::new(0),
            sealed_pending: AtomicBool::new(false),
            seq: AtomicU64::new(watermarks.top() + 1),
            watermarks: Mutex::new(watermarks),
            map: Default::default(),
            map_lock: Mutex::new(()),
        })
    }

    /// Makes the bits of the chunks `[from, to)` of the file touches
    /// durable, for an entry store there.  Costs a mirror load per chunk
    /// whose bit is set already, a map store and a fence otherwise.
    fn mark(&self, from: u64, to: u64) -> FsResult<()> {
        for chunk in from / CHUNK_SIZE..(to.div_ceil(CHUNK_SIZE)).min(MAP_CHUNKS) {
            let (word, bit) = ((chunk / 64) as usize, 1u64 << (chunk % 64));
            if self.map[word].load(Ordering::Acquire) & bit == 0 {
                self.update_map(|map| map[word] |= bit)?;
            }
        }
        Ok(())
    }

    /// Applies `edit` to the mirror's words; if that changes them, stores
    /// the map, fences, and only then publishes the new words.
    fn update_map(&self, edit: impl FnOnce(&mut ChunkMap)) -> FsResult<()> {
        let _guard = self.map_lock.lock();
        let old: ChunkMap = std::array::from_fn(|i| self.map[i].load(Ordering::Relaxed));
        let mut new = old;
        edit(&mut new);
        if new != old {
            store_map(&self.device, &self.mapping, &new)?;
            for (mirror, word) in self.map.iter().zip(new) {
                mirror.store(word, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Number of entries currently in the log (both epochs).
    pub fn entries_used(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.tail.load(Ordering::Relaxed).min(e.cap))
            .sum::<u64>()
            / ENTRY_SIZE
    }

    /// Whether a group of `entries` fits in an empty epoch: whether any
    /// checkpoint can make room for it.
    pub(crate) fn ever_fits(&self, entries: usize) -> bool {
        self.epochs
            .iter()
            .any(|e| ENTRY_SIZE * entries as u64 <= e.cap)
    }

    /// Whether the sealed epoch still holds entries awaiting retirement.
    pub fn sealed_pending(&self) -> bool {
        self.sealed_pending.load(Ordering::SeqCst)
    }

    /// Fraction of the active epoch currently in use, in `[0, 1]`.  The
    /// maintenance daemon seals and retires in the background once this
    /// passes its configured threshold, so that no writer has to wait on
    /// a checkpoint.
    pub fn utilization(&self) -> f64 {
        let epoch = &self.epochs[self.active.load(Ordering::Relaxed)];
        epoch.tail.load(Ordering::Relaxed).min(epoch.cap) as f64 / epoch.cap.max(1) as f64
    }

    /// Seals the active epoch and swaps the retired half in as the new
    /// active epoch.  Returns `false` when the other half is still being
    /// retired: only a checkpoint makes room then.
    ///
    /// After the swap, this waits for in-flight appends to the sealed
    /// epoch to drain, so by the time the caller sweeps the file states,
    /// every sealed entry's staged extent is recorded under its file lock.
    pub fn try_seal(&self) -> bool {
        if self
            .sealed_pending
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // The flag, won above, makes this thread the only one moving
        // `active` until the sealed half is retired.
        let old = self.active.load(Ordering::SeqCst);
        debug_assert_eq!(self.epochs[1 - old].tail.load(Ordering::SeqCst), 0);
        self.active.store(1 - old, Ordering::SeqCst);
        // Drain writers that reserved in the old epoch before the swap.
        while self.epochs[old].writers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        self.device.stats().add_oplog_epoch_swap();
        true
    }

    /// Retires the sealed epoch — raises its watermark, then clears the
    /// map bits of the chunks wholly inside it — and arms it as the next
    /// swap target.  Call only after every staged write logged in it has
    /// been relinked (or otherwise invalidated) — the checkpoint sweep,
    /// on the daemon or on a writer that found the log full, is the only
    /// caller.  A watermark that cannot be stored leaves the epoch sealed.
    /// Returns whether the epoch was retired.
    pub fn truncate_sealed(&self) -> bool {
        let sealed = 1 - self.active.load(Ordering::SeqCst);
        let retired = self.truncate_epoch(sealed).is_ok();
        if retired {
            self.sealed_pending.store(false, Ordering::SeqCst);
        }
        retired
    }

    fn truncate_epoch(&self, idx: usize) -> FsResult<()> {
        let epoch = &self.epochs[idx];
        {
            let mut marks = self.watermarks.lock();
            // No writer reaches the epoch (its writers drained at the
            // seal), so every entry in it holds a number handed out
            // already; one the epoch gets once active again will not be.
            let top = self.seq.load(Ordering::SeqCst) - 1;
            if marks.seq[idx] < top {
                let mut seq = marks.seq;
                seq[idx] = top;
                let next = marks.next(seq);
                next.store(&self.device, &self.mapping)?;
                *marks = next;
            }
        }
        // Everything the epoch holds is retired, durably.  Every slot but
        // the reserved ones is in one epoch, so a chunk the other epoch
        // does not reach holds no live entry now — and no writer reaches
        // it before the next swap.
        let other = &self.epochs[1 - idx].extents;
        let shared = |chunk: u64| {
            let (from, to) = (chunk * CHUNK_SIZE, (chunk + 1) * CHUNK_SIZE);
            other
                .iter()
                .any(|&(start, len)| start < to && from < start + len)
        };
        let mut clear = ChunkMap::default();
        for &(start, len) in &epoch.extents {
            for chunk in start / CHUNK_SIZE..(start + len).div_ceil(CHUNK_SIZE).min(MAP_CHUNKS) {
                if !shared(chunk) {
                    clear[(chunk / 64) as usize] |= 1 << (chunk % 64);
                }
            }
        }
        // Failing to clear a bit leaves a retired chunk marked: recovery
        // reads it in vain, which the invariant allows.
        let _ = self.update_map(|map| {
            for (word, clear) in map.iter_mut().zip(clear) {
                *word &= !clear;
            }
        });
        epoch.tail.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Appends an entry: one 64 B non-temporal write plus one fence.  See
    /// [`OpLog::append_batch`].
    pub fn append(&self, entry: &mut LogEntry) -> FsResult<()> {
        self.append_batch(std::slice::from_mut(entry))
    }

    /// Appends several entries under **one** fence (group commit), giving
    /// each its sequence number and region.
    ///
    /// The slots are reserved with a single fetch-and-add on the active
    /// epoch's DRAM tail and numbered in slot order while the epoch still
    /// counts this writer, so no truncation of the epoch can pass them.
    /// Every entry is written with non-temporal stores, and one fence
    /// makes the whole group durable together.  Callers must only use
    /// this for entries whose durability may land together.  A group that
    /// opens a chunk first makes the chunk's map bit durable, before any
    /// of its entry stores.
    ///
    /// Returns [`FsError::NoSpace`] (reserving nothing) when the group
    /// does not fit in the active epoch.
    pub fn append_batch(&self, entries: &mut [LogEntry]) -> FsResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let cost = self.device.cost();
        let need = ENTRY_SIZE * entries.len() as u64;
        let (idx, epoch, offset) = loop {
            let idx = self.active.load(Ordering::SeqCst);
            let epoch = &self.epochs[idx];
            epoch.writers.fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) != idx {
                // Lost a race with a seal; the old epoch must not receive
                // this append (its sweep may already be underway).
                epoch.writers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let offset = epoch.tail.fetch_add(need, Ordering::Relaxed);
            if offset + need > epoch.cap {
                // Roll the reservation back so a later swap starts clean.
                epoch.tail.fetch_sub(need, Ordering::Relaxed);
                epoch.writers.fetch_sub(1, Ordering::SeqCst);
                return Err(FsError::NoSpace);
            }
            break (idx, epoch, offset);
        };
        let first = self.seq.fetch_add(entries.len() as u64, Ordering::SeqCst);
        for (entry, seq) in entries.iter_mut().zip(first..) {
            entry.seq = seq;
            entry.region = idx as u8;
        }
        let bail = |e: FsError| {
            // Roll the reservation back when no later writer has
            // reserved past it (an unconditional subtract could slide
            // the tail under a live neighbour's slot); otherwise the
            // unfenced slots simply read as torn or live-but-unused until
            // the epoch's watermark passes their numbers.
            let _ = epoch.tail.compare_exchange(
                offset + need,
                offset,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            epoch.writers.fetch_sub(1, Ordering::SeqCst);
            Err(e)
        };
        let extents = &epoch.extents;
        let mut slots = entries.iter();
        let written =
            file_ranges(extents, offset, need, |from, to| self.mark(from, to)).and_then(|()| {
                file_ranges(extents, offset, need, |from, to| {
                    let ranged = (from..to).step_by(ENTRY_SIZE as usize);
                    for (file_off, entry) in ranged.zip(&mut slots) {
                        self.device.charge_software(cost.usplit_log_entry_cpu_ns);
                        let (dev_off, _) = self
                            .mapping
                            .translate(file_off)
                            .ok_or_else(|| FsError::Io("operation log mapping hole".into()))?;
                        self.device.write(
                            dev_off,
                            &entry.encode(),
                            PersistMode::NonTemporal,
                            TimeCategory::OpLog,
                        );
                    }
                    Ok(())
                })
            });
        if let Err(e) = written {
            return bail(e);
        }
        self.device.fence(TimeCategory::OpLog);
        epoch.writers.fetch_sub(1, Ordering::SeqCst);
        if entries.len() > 1 {
            self.device.stats().add_oplog_group_commit();
            obs::event(obs::SpanEvent::GroupCommit);
        }
        Ok(())
    }

    /// Stores zeroes over `[from, to)` of a log mapping with non-temporal
    /// stores, unfenced, one store per 4 KiB block the range touches: a
    /// fill that starts inside a block does not make every store straddle
    /// two.
    fn store_zeros(device: &PmemDevice, mapping: &DaxMapping, from: u64, to: u64) {
        let zeros = [0u8; SCAN_BLOCK];
        let mut off = from;
        while off < to {
            let chunk = (to - off).min(SCAN_BLOCK as u64 - off % SCAN_BLOCK as u64) as usize;
            if let Some((dev_off, contig)) = mapping.translate(off) {
                let n = chunk.min(contig as usize);
                device.write(
                    dev_off,
                    &zeros[..n],
                    PersistMode::NonTemporal,
                    TimeCategory::OpLog,
                );
                off += n as u64;
            } else {
                off += chunk as u64;
            }
        }
    }

    /// Zero-fills a log file of `size` bytes whose blocks are new to the
    /// log — a new file, or one whose size just changed — under one
    /// fence: every slot, the map included, except the two watermark
    /// records, which keep what the file held.  A resized log thus numbers
    /// on above what it held before, and a crash in the middle leaves the
    /// old record in force over whatever the fill did not reach.
    pub fn format(device: &PmemDevice, mapping: &DaxMapping, size: u64) {
        Self::store_zeros(device, mapping, 0, WATERMARK_OFFSET);
        Self::store_zeros(device, mapping, MAP_OFFSET, size);
        device.fence(TimeCategory::OpLog);
    }

    /// Scans the log (recovery path) and returns every live entry, sorted
    /// by sequence number.  See [`OpLog::survey`], which also reports
    /// what [`OpLog::clear`] needs.
    pub fn scan(device: &PmemDevice, mapping: &DaxMapping, size: u64) -> Vec<LogEntry> {
        Self::survey(device, mapping, size).entries
    }

    /// Scans the log (recovery path): reads the reserved slots — the
    /// watermark records and the chunk map — in one read, then every
    /// chunk the map marks and every chunk past its reach; by the
    /// chunk-map invariant, no other chunk holds a live entry.  Sequence
    /// numbers are global across epochs and every entry names its region,
    /// so the scan needs no knowledge of the sealed/active split: both
    /// epochs are read and the merge happens by `seq`.
    /// Torn slots and retired entries yield nothing.
    ///
    /// Each chunk is read a 4 KiB block at a time, each read one
    /// sequential device read charged as software time.
    pub fn survey(device: &PmemDevice, mapping: &DaxMapping, size: u64) -> LogScan {
        let reserved = read_reserved(device, mapping);
        let (records, map) = reserved.split_at((MAP_OFFSET - WATERMARK_OFFSET) as usize);
        let mut scan = LogScan {
            watermarks: Watermarks::newest(records),
            map_marked: !is_zeroed(map),
            ..LogScan::default()
        };
        let retired = scan.watermarks.unwrap_or_default();
        let chunks = size.div_ceil(CHUNK_SIZE);
        scan.chunks.extend(
            map.iter()
                .flat_map(|byte| (0..8).map(move |bit| byte >> bit & 1 == 1))
                .take(chunks.min(MAP_CHUNKS) as usize)
                .enumerate()
                .filter(|&(_, marked)| marked)
                .map(|(chunk, _)| chunk as u64),
        );
        scan.chunks.extend(MAP_CHUNKS..chunks);
        let mut block = [0u8; SCAN_BLOCK];
        for &chunk in &scan.chunks {
            let end = size.min((chunk + 1) * CHUNK_SIZE);
            let mut off = chunk * CHUNK_SIZE;
            while off + ENTRY_SIZE <= end {
                let want = (end - off).min(SCAN_BLOCK as u64);
                let Some((dev_off, contig)) = mapping.translate(off) else {
                    off += want;
                    continue;
                };
                // Whole slots only; extents are block-granular, so a slot
                // never straddles two reads.
                let n = (want.min(contig) / ENTRY_SIZE * ENTRY_SIZE) as usize;
                if n == 0 {
                    off += ENTRY_SIZE;
                    continue;
                }
                let block = &mut block[..n];
                read_charged(device, dev_off, block);
                for (i, slot) in block.chunks_exact(ENTRY_SIZE as usize).enumerate() {
                    if is_reserved(off + i as u64 * ENTRY_SIZE) {
                        continue;
                    }
                    scan.entries
                        .extend(LogEntry::decode(slot).filter(|entry| !retired.retires(entry)));
                }
                off += n as u64;
            }
        }
        scan.entries.sort_by_key(|e| e.seq);
        scan
    }

    /// Retires what `scan` found (recovery path): raises both watermarks
    /// to its newest entry under one fence, then — no marked chunk holds a
    /// live entry now — clears the chunk map under a second.  A scan that
    /// found nothing live and nothing marked costs no store and no fence.
    pub fn clear(device: &PmemDevice, mapping: &DaxMapping, scan: &LogScan) -> FsResult<()> {
        if let Some(newest) = scan.entries.last() {
            let marks = scan.watermarks.unwrap_or_default();
            let top = newest.seq.max(marks.top());
            marks.next([top, top]).store(device, mapping)?;
        }
        if scan.map_marked {
            store_map(device, mapping, &ChunkMap::default())?;
        }
        Ok(())
    }
}

/// What [`OpLog::survey`] found in a log file.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Every live entry (checksum-valid and above its region's
    /// watermark), sorted by sequence number.
    pub entries: Vec<LogEntry>,
    /// The chunks read, ascending: those the map marks, and every chunk
    /// past its reach.
    pub chunks: Vec<u64>,
    /// The newest valid watermark record; `None` for a log that holds
    /// none, whose every valid entry is live.
    pub watermarks: Option<Watermarks>,
    /// Whether the map held any bit.
    map_marked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelfs::MapSegment;
    use pmem::PmemBuilder;

    impl OpLog {
        /// Truncates both epochs and rewinds to epoch 0.  Product code
        /// never discards a whole live log (truncation goes through
        /// [`OpLog::try_seal`] / [`OpLog::truncate_sealed`]); the tests
        /// use this to start a case from an empty log.
        fn reset(&self) {
            self.truncate_epoch(0).unwrap();
            self.truncate_epoch(1).unwrap();
            self.active.store(0, Ordering::SeqCst);
            self.sealed_pending.store(false, Ordering::SeqCst);
        }
    }

    /// A mapping of `size` log bytes at device offset 1 MiB; in the real
    /// system the mapping comes from `Ext4Dax::dax_map`.
    fn mapping(size: u64) -> DaxMapping {
        DaxMapping {
            ino: 99,
            file_offset: 0,
            len: size,
            segments: vec![MapSegment {
                file_offset: 0,
                device_offset: 1024 * 1024,
                len: size,
            }],
        }
    }

    fn log(size: u64) -> (Arc<PmemDevice>, OpLog, DaxMapping) {
        let device = PmemBuilder::new(16 * 1024 * 1024).build();
        let mapping = mapping(size);
        let oplog = OpLog::new(Arc::clone(&device), mapping.clone(), size).unwrap();
        (device, oplog, mapping)
    }

    /// Entries the active epoch of a fresh `size`-byte log holds.
    fn epoch0_entries(size: u64) -> usize {
        (slot_extents(0, size / 2)
            .iter()
            .map(|(_, len)| len)
            .sum::<u64>()
            / ENTRY_SIZE) as usize
    }

    fn sample_entry() -> LogEntry {
        LogEntry {
            target_ino: 12,
            target_offset: 8192,
            len: 4096,
            staging_ino: 77,
            staging_offset: 65536,
            ..LogEntry::new(LogOp::StagedWrite, 7)
        }
    }

    /// Appends one sample entry and returns it as logged.
    fn append(oplog: &OpLog) -> FsResult<LogEntry> {
        let mut entry = sample_entry();
        oplog.append(&mut entry).map(|()| entry)
    }

    #[test]
    fn entry_round_trips_through_64_bytes() {
        let e = LogEntry {
            seq: 5,
            region: 1,
            ..sample_entry()
        };
        let bytes = e.encode();
        assert_eq!(bytes.len(), 64);
        assert_eq!(LogEntry::decode(&bytes), Some(e));
        let recycle = LogEntry {
            staging_ino: 4,
            seq: 9,
            ..LogEntry::new(LogOp::StagingRecycle, 7)
        };
        assert_eq!(LogEntry::decode(&recycle.encode()), Some(recycle));
        let invalidate = LogEntry {
            target_ino: 12,
            covers: 8,
            seq: 10,
            ..LogEntry::new(LogOp::Invalidate, 7)
        };
        assert_eq!(LogEntry::decode(&invalidate.encode()), Some(invalidate));
    }

    #[test]
    fn torn_entry_is_rejected_by_checksum() {
        let mut bytes = LogEntry {
            seq: 5,
            ..sample_entry()
        }
        .encode();
        bytes[20] ^= 0xFF;
        assert_eq!(LogEntry::decode(&bytes), None);
        assert_eq!(LogEntry::decode(&[0u8; 64]), None);
    }

    #[test]
    fn append_writes_one_line_and_one_fence() {
        let (device, oplog, _) = log(64 * 1024);
        // The first entry into a chunk makes the chunk's map bit durable
        // first: one more line and one more fence.
        let before = device.stats().snapshot();
        append(&oplog).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 2 * 64);
        assert_eq!(delta.fences, 2, "the map bit, then the entry");
        let before = device.stats().snapshot();
        append(&oplog).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 64);
        assert_eq!(delta.fences, 1, "exactly one fence per logged operation");
    }

    #[test]
    fn entries_survive_crash_and_scan_in_order() {
        let (device, oplog, mapping) = log(64 * 1024);
        let logged: Vec<LogEntry> = (0..5).map(|_| append(&oplog).unwrap()).collect();
        device.crash();
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries, logged, "numbered 1.. in slot order, region 0");
        assert_eq!(entries[0].seq, 1);
        assert!(entries.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn full_active_epoch_reports_no_space_and_reset_clears_it() {
        let size = MIN_LOG_SIZE;
        let (device, oplog, mapping) = log(size);
        for _ in 0..epoch0_entries(size) {
            append(&oplog).unwrap();
        }
        assert_eq!(
            append(&oplog),
            Err(FsError::NoSpace),
            "active epoch is full"
        );
        oplog.reset();
        assert_eq!(oplog.entries_used(), 0);
        append(&oplog).unwrap();
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, size);
        assert_eq!(entries.len(), 1, "the reset retired every earlier entry");
    }

    #[test]
    fn seal_swaps_epochs_without_stopping_writers() {
        let size = MIN_LOG_SIZE;
        let (device, oplog, mapping) = log(size);
        for _ in 0..epoch0_entries(size) {
            append(&oplog).unwrap();
        }
        assert_eq!(append(&oplog), Err(FsError::NoSpace));
        let before = device.stats().snapshot();
        assert!(oplog.try_seal(), "other epoch is free");
        assert!(oplog.sealed_pending());
        // Writers continue immediately into the fresh epoch.
        assert_eq!(append(&oplog).unwrap().region, 1);
        // A second seal is refused until the sealed half is retired.
        assert!(!oplog.try_seal());
        // Every entry visible across both epochs, in seq order.
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, size);
        assert_eq!(entries.len(), epoch0_entries(size) + 1);
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
        // Truncating the sealed half retires only its entries.
        oplog.truncate_sealed();
        assert!(!oplog.sealed_pending());
        let entries = OpLog::scan(&device, &mapping, size);
        assert_eq!(entries.len(), 1, "only the new-epoch entry survives");
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.oplog_epoch_swaps, 1);
        // The other half is free again, so a new seal succeeds.
        assert!(oplog.try_seal());
    }

    #[test]
    fn group_commit_uses_one_fence_for_many_entries() {
        let (device, oplog, mapping) = log(64 * 1024);
        append(&oplog).unwrap(); // open the chunk, then measure
        let before = device.stats().snapshot();
        let mut batch = vec![sample_entry(); 8];
        oplog.append_batch(&mut batch).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 8 * 64);
        assert_eq!(delta.fences, 1, "one fence covers the whole group");
        assert_eq!(delta.oplog_group_commits, 1);
        let seqs: Vec<u64> = batch.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (2..10).collect::<Vec<_>>(), "numbered in slot order");
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries.len(), 9);
    }

    #[test]
    fn group_commit_rejects_oversized_batches_without_reserving() {
        let size = MIN_LOG_SIZE;
        let (_device, oplog, _mapping) = log(size);
        let mut batch = vec![sample_entry(); epoch0_entries(size) + 1];
        assert_eq!(oplog.append_batch(&mut batch), Err(FsError::NoSpace));
        assert_eq!(oplog.entries_used(), 0, "failed batch reserves nothing");
        assert_eq!(append(&oplog).unwrap().seq, 1, "and numbers nothing");
    }

    #[test]
    fn retiring_an_epoch_stores_one_record_not_its_slots() {
        let (device, oplog, mapping) = log(1024 * 1024);
        for entries in [4, 1000] {
            for _ in 0..entries {
                append(&oplog).unwrap();
            }
            assert!(oplog.try_seal());
            let before = device.stats().snapshot();
            oplog.truncate_sealed();
            let delta = device.stats().snapshot().delta(&before);
            assert_eq!(
                delta.written(TimeCategory::OpLog),
                2 * 64,
                "{entries} entries: the watermark record and the chunk map, whatever was logged"
            );
            assert_eq!(delta.fences, 2);
            assert!(OpLog::scan(&device, &mapping, 1024 * 1024).is_empty());
        }
        assert_eq!(oplog.entries_used(), 0);
        // An empty epoch still stores the numbers handed out in the other
        // one, once; after that its watermark is current, and retiring it
        // stores nothing.
        for fences in [1, 0, 0] {
            assert!(oplog.try_seal());
            let before = device.stats().snapshot();
            oplog.truncate_sealed();
            assert_eq!(device.stats().snapshot().delta(&before).fences, fences);
        }
    }

    #[test]
    fn an_entry_reserved_right_after_its_regions_truncation_survives_a_crash() {
        let size = 64 * 1024;
        let (device, oplog, mapping) = log(size);
        let sealed = append(&oplog).unwrap();
        assert!(oplog.try_seal());
        oplog.truncate_sealed();
        assert_eq!(oplog.watermarks.lock().seq, [sealed.seq, 0]);
        // Epoch 0 becomes active again: its first reservation is numbered
        // above the watermark its truncation just stored.
        assert!(oplog.try_seal());
        let fresh = append(&oplog).unwrap();
        assert_eq!((fresh.region, fresh.seq), (0, sealed.seq + 1));
        device.crash();
        let scan = OpLog::survey(&device, &mapping, size);
        assert_eq!(scan.watermarks.map(|w| w.seq), Some([sealed.seq, 0]));
        assert_eq!(scan.entries, [fresh]);
    }

    #[test]
    fn a_torn_record_leaves_the_one_before_it() {
        for seed in 0..8 {
            let device = PmemBuilder::new(16 * 1024 * 1024)
                .track_persistence(true)
                .crash_policy(pmem::CrashPolicy::TornWrites { seed })
                .build();
            let mapping = mapping(MIN_LOG_SIZE);
            let oplog = OpLog::new(Arc::clone(&device), mapping.clone(), MIN_LOG_SIZE).unwrap();
            append(&oplog).unwrap();
            assert!(oplog.try_seal());
            oplog.truncate_sealed();
            let durable = *oplog.watermarks.lock();
            append(&oplog).unwrap();
            assert!(oplog.try_seal());
            // Cut power inside the next truncation, at its record's fence.
            let image = Arc::new(parking_lot::Mutex::new(None));
            {
                let image = Arc::clone(&image);
                device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, _| {
                    image
                        .lock()
                        .get_or_insert_with(|| dev.capture_crash_image());
                })));
            }
            oplog.truncate_sealed();
            device.set_fence_hook(None);
            device.restore_crash_image(&image.lock().take().unwrap());
            let found = Watermarks::read(&device, &mapping).expect("a record survives");
            assert!(
                found == durable || found == *oplog.watermarks.lock(),
                "seed {seed}: {found:?}"
            );
        }
    }

    #[test]
    fn a_log_numbers_on_above_its_highest_watermark() {
        let size = 64 * 1024;
        let (device, oplog, mapping) = log(size);
        for _ in 0..3 {
            append(&oplog).unwrap();
        }
        let scan = OpLog::survey(&device, &mapping, size);
        OpLog::clear(&device, &mapping, &scan).unwrap();
        assert!(OpLog::scan(&device, &mapping, size).is_empty());
        let reopened = OpLog::new(Arc::clone(&device), mapping.clone(), size).unwrap();
        assert_eq!(reopened.watermarks.lock().seq, [3, 3]);
        assert_eq!(append(&reopened).unwrap().seq, 4);
        // A format zeroes the slots and keeps the record.
        OpLog::format(&device, &mapping, size);
        assert_eq!(
            Watermarks::read(&device, &mapping),
            Some(*reopened.watermarks.lock())
        );
    }

    #[test]
    fn scan_skips_retired_and_torn_slots_and_clear_stores_one_record() {
        let size = 64 * 1024;
        let (device, oplog, mapping) = log(size);
        let retired = append(&oplog).unwrap();
        assert!(oplog.try_seal());
        oplog.truncate_sealed();
        assert!(oplog.try_seal());
        let live: Vec<LogEntry> = (0..3).map(|_| append(&oplog).unwrap()).collect();
        // A torn entry (checksum no longer matches) two slots further on.
        let mut torn = LogEntry {
            seq: 99,
            ..sample_entry()
        }
        .encode();
        torn[20] ^= 0xFF;
        let (dev_off, _) = mapping.translate(5 * ENTRY_SIZE).unwrap();
        device.write(
            dev_off,
            &torn,
            PersistMode::NonTemporal,
            TimeCategory::OpLog,
        );

        let before = device.stats().snapshot();
        let scan = OpLog::survey(&device, &mapping, size);
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(
            scan.entries, live,
            "the retired and the torn slot are no entry"
        );
        assert!(!live.contains(&retired));
        assert_eq!(scan.chunks, [0], "the one chunk the appends marked");
        let per_block = device.cost().pm_read_cost(4096, true);
        let reserved_read = device.cost().pm_read_cost(192, true);
        let charged = delta.time(TimeCategory::Software);
        assert!(
            (charged - (reserved_read + 16.0 * per_block)).abs() < 1.0,
            "the reserved slots, then one sequential read per 4 KiB block: {charged} ns"
        );
        assert_eq!(
            delta.bytes_read[TimeCategory::OpLog.index_in_all()],
            192 + CHUNK_SIZE
        );

        // Retiring them is the record, then the map: two lines, two fences.
        let before = device.stats().snapshot();
        OpLog::clear(&device, &mapping, &scan).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 2 * 64);
        assert_eq!(delta.fences, 2);
        let rescan = OpLog::survey(&device, &mapping, size);
        assert!(rescan.entries.is_empty() && rescan.chunks.is_empty());
        let top = live.last().unwrap().seq;
        assert_eq!(rescan.watermarks.map(|w| w.seq), Some([top, top]));
        // Nothing left to retire costs nothing.
        let before = device.stats().snapshot();
        OpLog::clear(&device, &mapping, &rescan).unwrap();
        assert_eq!(device.stats().snapshot().delta(&before).fences, 0);
    }

    #[test]
    fn utilization_tracks_active_epoch_fill_fraction() {
        let size = MIN_LOG_SIZE;
        let (_device, oplog, _mapping) = log(size);
        assert_eq!(oplog.utilization(), 0.0);
        for _ in 0..epoch0_entries(size) / 2 {
            append(&oplog).unwrap();
        }
        assert!((oplog.utilization() - 0.5).abs() < 1e-9);
        // Sealing swaps in the empty epoch: utilization drops to zero.
        assert!(oplog.try_seal());
        assert_eq!(oplog.utilization(), 0.0);
    }

    #[test]
    fn concurrent_appends_reserve_distinct_slots() {
        let (device, oplog, mapping) = log(64 * 1024);
        let oplog = Arc::new(oplog);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let oplog = Arc::clone(&oplog);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut e = sample_entry();
                    e.target_offset = t * 1000 + i;
                    oplog.append(&mut e).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries.len(), 200);
        // All sequence numbers distinct.
        let mut seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 200);
    }

    #[test]
    fn concurrent_appends_race_a_seal_without_losing_entries() {
        let (device, oplog, mapping) = log(64 * 1024);
        let oplog = Arc::new(oplog);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let oplog = Arc::clone(&oplog);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut e = sample_entry();
                    e.target_offset = t * 1000 + i;
                    oplog.append(&mut e).unwrap();
                }
            }));
        }
        // Seal mid-stream; writers must continue into the new epoch.
        let sealer = {
            let oplog = Arc::clone(&oplog);
            std::thread::spawn(move || oplog.try_seal())
        };
        for h in handles {
            h.join().unwrap();
        }
        sealer.join().unwrap();
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries.len(), 200, "no append lost across the swap");
    }
}
