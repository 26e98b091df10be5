//! The SplitFS operation log (paper §3.3, "Optimized logging"), as a
//! **two-epoch (segment-swap) log**.
//!
//! In strict (and sync, for appends) mode, U-Split records each staged data
//! operation in a per-instance operation log so that a crash before the
//! next `fsync`/relink can be recovered.  The log is a pre-allocated,
//! zero-initialized file on the kernel file system that U-Split maps once
//! and then writes with non-temporal stores — no kernel involvement per
//! entry.  The optimizations the paper describes are all present:
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
//! * a never-written slot is all-zero; recovery treats any non-zero,
//!   checksum-valid 64 B slot as a potentially valid entry.
//!
//! # On-media layout
//!
//! The log file is an array of 64 B slots, with one exception: in a file
//! of at least one 4 KiB block, the last slot of that first block
//! ([`MAP_OFFSET`]) holds the **chunk map**, a bitmap with one bit per
//! [`CHUNK_SIZE`] (64 KiB) of file offset — bit `i` of little-endian word
//! `i / 64` covers `[i * 64 KiB, (i + 1) * 64 KiB)`.  Its 512 bits reach
//! the first 32 MiB of the file; chunks past that have no bit and are
//! always read.  Every other slot belongs to one of the two epochs below.
//! The map sits in a slot rather than in front of them so that entry
//! offsets are those of a log without it, and a one-block log keeps 63
//! of its 64 slots.
//!
//! # The all-zero invariant
//!
//! *Every slot outside the entries written since the last truncation is
//! zero.*  It is established **once**, when the log file is created (or
//! its size changed) and its freshly allocated blocks — the kernel
//! allocator recycles blocks without zeroing them — are zero-filled by
//! [`SplitFs::new`](crate::SplitFs::new), and again for each extension
//! before [`OpLog::grow`] installs it.  Everything after that relies on
//! it instead of re-establishing it: an epoch truncation clears only the
//! epoch's used prefix (`high_water`), recovery clears exactly the slots
//! its scan found non-zero ([`OpLog::scan_written`] reports them, torn
//! ones included), and an [`OpLog`] built over a file that recovery has
//! just cleared starts with nothing to clear.  Clearing the log thus
//! costs what was logged, never the size of the log.
//!
//! # The chunk-map invariant
//!
//! *A chunk whose bit is clear on media is all-zero on media.*  It lets
//! recovery read the map and then only the marked chunks, so finding the
//! entries costs what was logged too.  Three rules keep it:
//!
//! * a writer makes a chunk's bit durable — one 64 B store and a fence —
//!   before its first entry store into the chunk since the bit was last
//!   cleared.  A DRAM mirror of the map tells every later append that the
//!   bit is set already, so an epoch pays one extra fence per 1024
//!   entries;
//! * a truncation first zeroes its slots and fences, and only then clears
//!   the bits of the chunks that lie wholly in the truncated epoch (they
//!   are all-zero now) under a second fence; recovery does the same for
//!   every marked chunk once it has cleared what its scan found;
//! * every map store writes the whole line from the mirror under one
//!   lock, and publishes the new words to the mirror only after its
//!   fence, so no concurrent set is lost and no writer trusts a bit that
//!   is not yet durable.
//!
//! A torn map store keeps each byte old or new: a set never loses an old
//! bit, and a clear only drops bits of chunks already zero.  The map
//! therefore needs no checksum.
//!
//! # Epochs
//!
//! The seed's log was one region: when it filled, the owner had to
//! *quiesce* — take every file-state lock, relink everything, and re-zero
//! the log — a stop-the-world pause on the write hot path.  The log is now
//! split into **two epochs** (halves).  Writers group-commit into the
//! active epoch; when it fills (or the checkpoint threshold is crossed),
//! [`OpLog::try_seal`] atomically swaps the empty other half in as the new
//! active epoch.  The sealed half is then retired *in the background*: its
//! files are relinked one at a time (never holding two state locks), and
//! only then is the sealed half re-zeroed ([`OpLog::truncate_sealed`]).
//! If the new active epoch also fills before retirement finishes, the log
//! *grows* instead of stalling — `checkpoint_stalls` stays zero by design.
//!
//! Each epoch is a list of byte extents of the log file, not a fixed
//! half: [`OpLog::grow`] appends the file extension to the **active**
//! epoch only, preserving the sealed/active split (a sealed entry is never
//! moved or rescanned into the wrong epoch by a grow).
//!
//! The epoch split sits at the entry-aligned middle of the file, so in a
//! log of a whole number of chunk pairs no chunk is shared by the two
//! epochs and a truncation can clear the bits of all it zeroed.
//!
//! Recovery does not care about the split: it scans every marked chunk of
//! the file (both epochs, any geometry) and replays valid entries **in
//! sequence order**, which is global across epochs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use kernelfs::DaxMapping;
use pmem::{PersistMode, PmemDevice, TimeCategory};
use vfs::util::{checksum32, is_zeroed};
use vfs::{FsError, FsResult};

/// Size of one log entry.
pub const ENTRY_SIZE: u64 = 64;

/// How much of the log one recovery read fetches (and one zeroing store
/// clears): a 4 KiB block.
const SCAN_BLOCK: usize = 4096;

/// Log-file bytes one bit of the chunk map covers.
pub const CHUNK_SIZE: u64 = 64 * 1024;

/// File offset of the chunk map: the last slot of the first 4 KiB block.
pub const MAP_OFFSET: u64 = SCAN_BLOCK as u64 - ENTRY_SIZE;

/// Chunks the one-slot map has a bit for: the first 32 MiB of the file.
const MAP_CHUNKS: u64 = ENTRY_SIZE * 8;

/// The map as the little-endian words of its slot.
type ChunkMap = [u64; (ENTRY_SIZE / 8) as usize];

/// Whether a log file of `size` bytes holds a chunk map.  Smaller logs
/// have no map and are scanned whole; a log never grows across the line
/// (see [`OpLog::grow`]).
fn has_map(size: u64) -> bool {
    size >= MAP_OFFSET + ENTRY_SIZE
}

/// `[from, to)` of a log file of `size` bytes as slot extents: the range
/// less the map's slot.
fn slot_extents(from: u64, to: u64, size: u64) -> Vec<(u64, u64)> {
    let (map_from, map_to) = (MAP_OFFSET, MAP_OFFSET + ENTRY_SIZE);
    let pieces = if has_map(size) && from < map_to && map_from < to {
        vec![(from, map_from), (map_to, to)]
    } else {
        vec![(from, to)]
    };
    pieces
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

/// Writes `map` into the map slot with a non-temporal store and fences.
fn store_map(device: &PmemDevice, mapping: &DaxMapping, map: &ChunkMap) -> FsResult<()> {
    let (dev_off, _) = mapping
        .translate(MAP_OFFSET)
        .ok_or_else(|| FsError::Io("operation log chunk map unmapped".into()))?;
    let mut line = [0u8; ENTRY_SIZE as usize];
    for (bytes, word) in line.chunks_exact_mut(8).zip(map) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    device.write(
        dev_off,
        &line,
        PersistMode::NonTemporal,
        TimeCategory::OpLog,
    );
    device.fence(TimeCategory::OpLog);
    Ok(())
}

/// Magic tag in every entry.
const ENTRY_MAGIC: u16 = 0x4F4C; // "OL"

/// The kind of a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Data was written to a staging file and must be moved to the target
    /// file (by relink) if a crash happens before the next `fsync`.
    StagedWrite,
    /// Every staged write for `target_ino` with sequence number ≤ `seq` has
    /// been relinked into the target and must not be replayed.
    Invalidate,
    /// The staging file `staging_ino` was recycled (truncated and
    /// re-provisioned) after all of its staged data was retired: staged
    /// writes referencing it with sequence number ≤ `seq` must not be
    /// replayed, because the file's blocks now hold unrelated new data.
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
    /// Offset within the target file the staged data belongs at.
    pub target_offset: u64,
    /// Length of the staged data in bytes (for `Invalidate`: unused).
    pub len: u64,
    /// Staging file inode holding the data.
    pub staging_ino: u64,
    /// Offset of the data within the staging file.
    pub staging_offset: u64,
    /// Monotonic sequence number assigned by the log.
    pub seq: u64,
    /// Id of the U-Split instance that wrote the entry (see
    /// [`kernelfs::lease`]).  Each instance has its own log file, so the
    /// tag is a cross-contamination check: recovery of instance N's log
    /// refuses to replay an entry tagged with another instance's id.
    pub instance_id: u32,
}

impl LogEntry {
    /// Serializes the entry into its 64-byte on-log form.
    pub fn encode(&self) -> [u8; ENTRY_SIZE as usize] {
        let mut buf = [0u8; ENTRY_SIZE as usize];
        buf[0..2].copy_from_slice(&ENTRY_MAGIC.to_le_bytes());
        buf[2] = self.op.tag();
        // buf[3] reserved
        buf[4..12].copy_from_slice(&self.target_ino.to_le_bytes());
        buf[12..20].copy_from_slice(&self.target_offset.to_le_bytes());
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
    /// written), torn entries (checksum mismatch) and unknown tags.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < ENTRY_SIZE as usize {
            return None;
        }
        if buf.iter().all(|&b| b == 0) {
            return None;
        }
        let magic = u16::from_le_bytes([buf[0], buf[1]]);
        if magic != ENTRY_MAGIC {
            return None;
        }
        let crc_stored = u32::from_le_bytes([buf[60], buf[61], buf[62], buf[63]]);
        if checksum32(&buf[..60]) != crc_stored {
            return None;
        }
        let read_u64 = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[o..o + 8]);
            u64::from_le_bytes(b)
        };
        Some(Self {
            op: LogOp::from_tag(buf[2])?,
            target_ino: read_u64(4),
            target_offset: read_u64(12),
            len: read_u64(20),
            staging_ino: read_u64(28),
            staging_offset: read_u64(36),
            seq: read_u64(44),
            instance_id: u32::from_le_bytes([buf[52], buf[53], buf[54], buf[55]]),
        })
    }
}

/// One epoch (half) of the log: a list of byte extents of the log file,
/// an epoch-relative tail, and a high-water mark for cheap truncation.
#[derive(Debug)]
struct Epoch {
    /// `(file_offset, len)` extents composing this epoch, in order.
    /// Grows only for the active epoch (see [`OpLog::grow`]).
    extents: RwLock<Vec<(u64, u64)>>,
    /// Total capacity in bytes.
    cap: AtomicU64,
    /// Epoch-relative byte offset of the next free slot (DRAM-only).
    tail: AtomicU64,
    /// One past the last byte ever written since the previous truncate.
    high_water: AtomicU64,
    /// Appends currently writing into this epoch; a seal waits for this to
    /// drain before the sweep starts, and a truncate can only run on an
    /// epoch no writer can reach anymore.
    writers: AtomicU64,
}

impl Epoch {
    fn new(extents: Vec<(u64, u64)>) -> Self {
        let cap: u64 = extents.iter().map(|(_, len)| len).sum();
        Self {
            extents: RwLock::new(extents),
            cap: AtomicU64::new(cap),
            tail: AtomicU64::new(0),
            // The log under a new `OpLog` is all-zero (see `OpLog::new`):
            // nothing has been written since the last truncation.
            high_water: AtomicU64::new(0),
            writers: AtomicU64::new(0),
        }
    }
}

/// The two-epoch operation log of one U-Split instance.
#[derive(Debug)]
pub struct OpLog {
    device: Arc<PmemDevice>,
    /// Mapping of the log file.  Behind a lock because the log can *grow*:
    /// when the active epoch fills while the sealed epoch is still being
    /// retired, the owner extends the file and swaps in a larger mapping
    /// instead of stalling — see [`crate::fs::SplitFs`]'s log-full
    /// handling.
    mapping: RwLock<DaxMapping>,
    epochs: [Epoch; 2],
    /// Index of the active epoch.
    active: AtomicUsize,
    /// Set while the non-active epoch holds sealed entries awaiting
    /// retirement (relink of their files, then truncation).
    sealed_pending: AtomicBool,
    /// Serializes the two geometry mutations — the active-epoch swap
    /// ([`OpLog::try_seal`]) and the extent-list extension
    /// ([`OpLog::grow`]) — so a growth can never attach the file
    /// extension to an epoch that a concurrent seal just retired.
    geometry: Mutex<()>,
    /// Total log-file size in bytes.
    size: AtomicU64,
    /// Monotonic sequence counter, global across epochs.
    seq: AtomicU64,
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
    /// Wraps an already-mapped log file of `size` bytes.  The file is
    /// split into two epochs at an entry-aligned midpoint; the chunk
    /// map's slot belongs to neither.
    ///
    /// The mapped bytes must be **all-zero** (the module's invariant): the
    /// caller has either just zero-filled a new file or is handing over
    /// one that recovery scanned and cleared — so the map is clear, too.
    pub fn new(device: Arc<PmemDevice>, mapping: DaxMapping, size: u64) -> Self {
        let half = (size / 2) / ENTRY_SIZE * ENTRY_SIZE;
        Self {
            device,
            mapping: RwLock::new(mapping),
            epochs: [
                Epoch::new(slot_extents(0, half, size)),
                Epoch::new(slot_extents(half, size, size)),
            ],
            active: AtomicUsize::new(0),
            sealed_pending: AtomicBool::new(false),
            geometry: Mutex::new(()),
            size: AtomicU64::new(size),
            seq: AtomicU64::new(1),
            map: Default::default(),
            map_lock: Mutex::new(()),
        }
    }

    /// Makes the bits of the chunks `[from, to)` of the file touches
    /// durable, for an entry store there.  Costs a mirror load per chunk
    /// whose bit is set already, a map store and a fence otherwise.
    fn mark(&self, mapping: &DaxMapping, from: u64, to: u64) -> FsResult<()> {
        if !has_map(self.size()) {
            return Ok(());
        }
        for chunk in from / CHUNK_SIZE..(to.div_ceil(CHUNK_SIZE)).min(MAP_CHUNKS) {
            let (word, bit) = ((chunk / 64) as usize, 1u64 << (chunk % 64));
            if self.map[word].load(Ordering::Acquire) & bit == 0 {
                self.update_map(mapping, |map| map[word] |= bit)?;
            }
        }
        Ok(())
    }

    /// Applies `edit` to the mirror's words; if that changes them, stores
    /// the map, fences, and only then publishes the new words.
    fn update_map(&self, mapping: &DaxMapping, edit: impl FnOnce(&mut ChunkMap)) -> FsResult<()> {
        let _guard = self.map_lock.lock();
        let old: ChunkMap = std::array::from_fn(|i| self.map[i].load(Ordering::Relaxed));
        let mut new = old;
        edit(&mut new);
        if new != old {
            store_map(&self.device, mapping, &new)?;
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
            .map(|e| {
                e.tail
                    .load(Ordering::Relaxed)
                    .min(e.cap.load(Ordering::Relaxed))
            })
            .sum::<u64>()
            / ENTRY_SIZE
    }

    /// Whether an append to the active epoch would not fit.
    pub fn is_full(&self) -> bool {
        !self.fits(1)
    }

    /// Whether a group of `entries` would fit in the active epoch now.
    pub fn fits(&self, entries: usize) -> bool {
        let epoch = &self.epochs[self.active.load(Ordering::Relaxed)];
        epoch.tail.load(Ordering::Relaxed) + ENTRY_SIZE * entries as u64
            <= epoch.cap.load(Ordering::Relaxed)
    }

    /// Whether a group of `entries` would fit in the other epoch once it
    /// is empty: whether a seal can make room for the group at all.
    pub(crate) fn fits_after_seal(&self, entries: usize) -> bool {
        let epoch = &self.epochs[1 - self.active.load(Ordering::Relaxed)];
        ENTRY_SIZE * entries as u64 <= epoch.cap.load(Ordering::Relaxed)
    }

    /// Current capacity of the log file in bytes (grows on demand).
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Whether the sealed epoch still holds entries awaiting retirement.
    pub fn sealed_pending(&self) -> bool {
        self.sealed_pending.load(Ordering::SeqCst)
    }

    /// Fraction of the active epoch currently in use, in `[0, 1]`.  The
    /// maintenance daemon seals and retires in the background once this
    /// passes its configured threshold so the foreground never observes
    /// [`FsError::NoSpace`].
    pub fn utilization(&self) -> f64 {
        let epoch = &self.epochs[self.active.load(Ordering::Relaxed)];
        let cap = epoch.cap.load(Ordering::Relaxed);
        epoch.tail.load(Ordering::Relaxed).min(cap) as f64 / cap.max(1) as f64
    }

    /// Reserves the next sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Seals the active epoch and swaps the empty half in as the new
    /// active epoch.  Returns the sequence-number watermark at the swap
    /// (every sealed entry's `seq` is below it), or `None` when the other
    /// half is still being retired (the caller should grow instead — never
    /// stall).
    ///
    /// After the swap, this waits for in-flight appends to the sealed
    /// epoch to drain, so by the time the caller sweeps the file states,
    /// every sealed entry's staged extent is recorded under its file lock.
    pub fn try_seal(&self) -> Option<u64> {
        if self
            .sealed_pending
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return None;
        }
        let old = {
            let _geometry = self.geometry.lock();
            let old = self.active.load(Ordering::SeqCst);
            let new = 1 - old;
            debug_assert_eq!(self.epochs[new].tail.load(Ordering::SeqCst), 0);
            self.active.store(new, Ordering::SeqCst);
            old
        };
        // Drain writers that reserved in the old epoch before the swap.
        while self.epochs[old].writers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        self.device.stats().add_oplog_epoch_swap();
        Some(self.seq.load(Ordering::SeqCst))
    }

    /// Re-zeroes the sealed epoch's used prefix, clears the map bits of
    /// the chunks wholly inside the epoch, and arms it as the next swap
    /// target.  Call only after every staged write logged in it has been
    /// relinked (or otherwise invalidated) — the epoch-checkpoint sweep in
    /// [`crate::daemon`] is the only caller.
    pub fn truncate_sealed(&self) {
        let sealed = 1 - self.active.load(Ordering::SeqCst);
        self.truncate_epoch(sealed);
        self.sealed_pending.store(false, Ordering::SeqCst);
    }

    fn truncate_epoch(&self, idx: usize) {
        let epoch = &self.epochs[idx];
        let used = epoch
            .high_water
            .load(Ordering::Relaxed)
            .min(epoch.cap.load(Ordering::Relaxed));
        let mapping = self.mapping.read();
        let extents = epoch.extents.read();
        let mut rem = used;
        for &(start, len) in extents.iter() {
            if rem == 0 {
                break;
            }
            let chunk = rem.min(len);
            Self::zero_range(&self.device, &mapping, start, start + chunk);
            rem -= chunk;
        }
        // The slots are zero and fenced; past `used` they were zero
        // already.  Every slot but the map's is in one epoch, so a chunk
        // the other epoch does not reach is all-zero now — and no writer
        // reaches it before the next swap.
        let other = self.epochs[1 - idx].extents.read();
        let shared = |chunk: u64| {
            let (from, to) = (chunk * CHUNK_SIZE, (chunk + 1) * CHUNK_SIZE);
            other
                .iter()
                .any(|&(start, len)| start < to && from < start + len)
        };
        let mut clear = ChunkMap::default();
        for &(start, len) in extents.iter() {
            for chunk in start / CHUNK_SIZE..(start + len).div_ceil(CHUNK_SIZE).min(MAP_CHUNKS) {
                if !shared(chunk) {
                    clear[(chunk / 64) as usize] |= 1 << (chunk % 64);
                }
            }
        }
        if has_map(self.size()) {
            // Failing to clear a bit leaves a zero chunk marked: recovery
            // reads it in vain, which the invariant allows.
            let _ = self.update_map(&mapping, |map| {
                for (word, clear) in map.iter_mut().zip(clear) {
                    *word &= !clear;
                }
            });
        }
        epoch.high_water.store(0, Ordering::Relaxed);
        epoch.tail.store(0, Ordering::Relaxed);
    }

    /// Installs a larger mapping after the log file was extended.  The new
    /// mapping must cover `[0, new_size)` of the same file, and the caller
    /// must have **zeroed the extension** `[size, new_size)` first — the
    /// kernel allocator recycles freed blocks without zeroing, and a
    /// checksum-valid ghost entry in the extension would be replayed by
    /// recovery.  The extension is appended to the **active** epoch's
    /// extent list, preserving the sealed/active split: sealed entries
    /// keep their file offsets and are still truncated (and only them)
    /// when retirement finishes.  Shrinking is not supported.  Safe under
    /// concurrent appends: a reservation past the old capacity fails with
    /// `NoSpace` and is retried by the caller after the growth lands.
    ///
    /// The extension's map bits are clear, as its zeroed chunks require.
    /// A log without a map must not grow into one: its entries' chunks
    /// would be unmarked.
    pub fn grow(&self, mapping: DaxMapping, new_size: u64) {
        let mut m = self.mapping.write();
        // The geometry lock pins `active` across the extension: without
        // it a concurrent seal could swap epochs between the load and the
        // push, attaching the extension to the just-sealed half.
        let _geometry = self.geometry.lock();
        let old_size = self.size();
        if new_size <= old_size {
            return;
        }
        assert!(
            has_map(old_size) || !has_map(new_size),
            "a {old_size} B operation log cannot grow past its chunk map's slot"
        );
        *m = mapping;
        let epoch = &self.epochs[self.active.load(Ordering::SeqCst)];
        epoch.extents.write().push((old_size, new_size - old_size));
        epoch.cap.fetch_add(new_size - old_size, Ordering::SeqCst);
        self.size.store(new_size, Ordering::SeqCst);
        self.device.stats().add_oplog_grow();
    }

    /// Appends an entry: one 64 B non-temporal write plus one fence.
    ///
    /// Returns [`FsError::NoSpace`] when the active epoch is full; the
    /// caller is expected to seal (epoch swap) or grow and retry.
    pub fn append(&self, entry: &LogEntry) -> FsResult<()> {
        self.append_batch(std::slice::from_ref(entry))
    }

    /// Appends several entries under **one** fence (group commit).
    ///
    /// The slots are reserved with a single fetch-and-add on the active
    /// epoch's DRAM tail, every entry is written with non-temporal stores,
    /// and one fence makes the whole group durable together.  Callers must
    /// only use this for entries whose durability may land together.  A
    /// group that opens a chunk first makes the chunk's map bit durable,
    /// before any of its entry stores.
    ///
    /// Returns [`FsError::NoSpace`] (reserving nothing) when the group
    /// does not fit in the active epoch.
    pub fn append_batch(&self, entries: &[LogEntry]) -> FsResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let cost = self.device.cost();
        let need = ENTRY_SIZE * entries.len() as u64;
        let (epoch, offset) = loop {
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
            if offset + need > epoch.cap.load(Ordering::Relaxed) {
                // Roll the reservation back so a later swap starts clean.
                epoch.tail.fetch_sub(need, Ordering::Relaxed);
                epoch.writers.fetch_sub(1, Ordering::SeqCst);
                return Err(FsError::NoSpace);
            }
            break (epoch, offset);
        };
        let bail = |e: FsError| {
            // Roll the reservation back when no later writer has
            // reserved past it (an unconditional subtract could slide
            // the tail under a live neighbour's slot); otherwise the
            // unfenced slots simply read as torn/empty, and the truncation
            // that covers the whole reservation clears them.
            epoch.high_water.fetch_max(offset + need, Ordering::Relaxed);
            let _ = epoch.tail.compare_exchange(
                offset + need,
                offset,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            epoch.writers.fetch_sub(1, Ordering::SeqCst);
            Err(e)
        };
        let mapping = self.mapping.read();
        let extents = epoch.extents.read();
        let mut slots = entries.iter();
        let written = file_ranges(&extents, offset, need, |from, to| {
            self.mark(&mapping, from, to)
        })
        .and_then(|()| {
            file_ranges(&extents, offset, need, |from, to| {
                let ranged = (from..to).step_by(ENTRY_SIZE as usize);
                for (file_off, entry) in ranged.zip(&mut slots) {
                    self.device.charge_software(cost.usplit_log_entry_cpu_ns);
                    let (dev_off, _) = mapping
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
        epoch.high_water.fetch_max(offset + need, Ordering::Relaxed);
        epoch.writers.fetch_sub(1, Ordering::SeqCst);
        if entries.len() > 1 {
            self.device.stats().add_oplog_group_commit();
            obs::event(obs::SpanEvent::GroupCommit);
        }
        Ok(())
    }

    /// Zeroes `[from, to)` of a log mapping with non-temporal stores and
    /// one trailing fence.  Used by epoch truncation, by the owner when
    /// zero-filling a new log file or a freshly grown extension before
    /// [`OpLog::grow`] installs it.
    pub fn zero_range(device: &Arc<PmemDevice>, mapping: &DaxMapping, from: u64, to: u64) {
        Self::zero_ranges(device, mapping, &[(from, to)]);
    }

    /// Zeroes every `[from, to)` range of a log mapping with non-temporal
    /// stores, then fences **once**: the ranges are cleared together or —
    /// if the crash comes first — not at all.  Recovery clears the slots
    /// its scan reported through this (see [`OpLog::clear`]).
    fn zero_ranges(device: &Arc<PmemDevice>, mapping: &DaxMapping, ranges: &[(u64, u64)]) {
        let zeros = [0u8; SCAN_BLOCK];
        for &(from, to) in ranges {
            let mut off = from;
            while off < to {
                let chunk = (to - off).min(zeros.len() as u64) as usize;
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
        device.fence(TimeCategory::OpLog);
    }

    /// Scans the log (recovery path) and returns every valid entry,
    /// sorted by sequence number.  See [`OpLog::scan_written`], which also
    /// reports what to clear afterwards.
    pub fn scan(device: &Arc<PmemDevice>, mapping: &DaxMapping, size: u64) -> Vec<LogEntry> {
        Self::scan_written(device, mapping, size).entries
    }

    /// Scans the log (recovery path): reads the chunk map, then every
    /// chunk it marks and every chunk past its reach — by the chunk-map
    /// invariant, all others are zero.  Sequence numbers are global across
    /// epochs, so the scan needs no knowledge of the sealed/active split
    /// or of any grow history: both epochs are read and the merge happens
    /// by `seq`.  Torn or zero slots yield no entry, but every slot that
    /// is not all-zero — valid or torn — is reported in
    /// [`LogScan::written`], which with the map is all a caller has to
    /// clear ([`OpLog::clear`]) to restore both invariants.
    ///
    /// The map is one read and each chunk is read a 4 KiB block at a time,
    /// each read one sequential device read charged as software time.
    pub fn scan_written(device: &Arc<PmemDevice>, mapping: &DaxMapping, size: u64) -> LogScan {
        let read = |dev_off: u64, buf: &mut [u8]| {
            device.read_uncharged(dev_off, buf);
            device.charge_software(device.cost().pm_read_cost(buf.len(), true));
            device
                .stats()
                .add_bytes_read(TimeCategory::OpLog, buf.len() as u64);
        };
        let mut scan = LogScan::default();
        let chunks = size.div_ceil(CHUNK_SIZE);
        if has_map(size) {
            let mut line = [0u8; ENTRY_SIZE as usize];
            if let Some((dev_off, _)) = mapping.translate(MAP_OFFSET) {
                read(dev_off, &mut line);
            }
            scan.map_marked = !is_zeroed(&line);
            let map_chunks = chunks.min(MAP_CHUNKS) as usize;
            scan.chunks.extend(
                line.iter()
                    .flat_map(|byte| (0..8).map(move |bit| byte >> bit & 1 == 1))
                    .take(map_chunks)
                    .enumerate()
                    .filter(|&(_, marked)| marked)
                    .map(|(chunk, _)| chunk as u64),
            );
            scan.chunks.extend(MAP_CHUNKS..chunks);
        } else {
            scan.chunks.extend(0..chunks);
        }
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
                read(dev_off, block);
                for (i, slot) in block.chunks_exact(ENTRY_SIZE as usize).enumerate() {
                    let at = off + i as u64 * ENTRY_SIZE;
                    if is_zeroed(slot) || (at == MAP_OFFSET && has_map(size)) {
                        continue;
                    }
                    match scan.written.last_mut() {
                        Some((_, to)) if *to == at => *to = at + ENTRY_SIZE,
                        _ => scan.written.push((at, at + ENTRY_SIZE)),
                    }
                    scan.entries.extend(LogEntry::decode(slot));
                }
                off += n as u64;
            }
        }
        scan.entries.sort_by_key(|e| e.seq);
        scan
    }

    /// Clears what `scan` found (recovery path): zeroes its written slots
    /// under one fence, then — every marked chunk is all-zero now — the
    /// chunk map under a second.  The whole log file is zero afterwards.
    /// A scan that found nothing costs no store and no fence.
    pub fn clear(device: &Arc<PmemDevice>, mapping: &DaxMapping, scan: &LogScan) -> FsResult<()> {
        if !scan.written.is_empty() {
            Self::zero_ranges(device, mapping, &scan.written);
        }
        if scan.map_marked {
            store_map(device, mapping, &ChunkMap::default())?;
        }
        Ok(())
    }
}

/// What [`OpLog::scan_written`] found in a log file.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Every checksum-valid entry, sorted by sequence number.
    pub entries: Vec<LogEntry>,
    /// The file ranges `[from, to)`, ascending and entry-aligned, that
    /// cover every slot that is not all-zero (adjacent slots merged).
    pub written: Vec<(u64, u64)>,
    /// The chunks read, ascending: those the map marks, and every chunk
    /// past its reach (all of them in a log too small for a map).
    pub chunks: Vec<u64>,
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
            self.truncate_epoch(0);
            self.truncate_epoch(1);
            self.active.store(0, Ordering::SeqCst);
            self.sealed_pending.store(false, Ordering::SeqCst);
        }
    }

    fn log(size: u64) -> (Arc<PmemDevice>, OpLog, DaxMapping) {
        let device = PmemBuilder::new(16 * 1024 * 1024).build();
        // Map the log region directly at device offset 1 MiB for the unit
        // tests; in the real system the mapping comes from Ext4Dax::dax_map.
        let mapping = DaxMapping {
            ino: 99,
            file_offset: 0,
            len: size,
            segments: vec![MapSegment {
                file_offset: 0,
                device_offset: 1024 * 1024,
                len: size,
            }],
        };
        let oplog = OpLog::new(Arc::clone(&device), mapping.clone(), size);
        (device, oplog, mapping)
    }

    fn sample_entry(seq: u64) -> LogEntry {
        LogEntry {
            op: LogOp::StagedWrite,
            target_ino: 12,
            target_offset: 8192,
            len: 4096,
            staging_ino: 77,
            staging_offset: 65536,
            seq,
            instance_id: 7,
        }
    }

    #[test]
    fn entry_round_trips_through_64_bytes() {
        let e = sample_entry(5);
        let bytes = e.encode();
        assert_eq!(bytes.len(), 64);
        assert_eq!(LogEntry::decode(&bytes), Some(e));
        let mut recycle = sample_entry(9);
        recycle.op = LogOp::StagingRecycle;
        assert_eq!(LogEntry::decode(&recycle.encode()), Some(recycle));
    }

    #[test]
    fn torn_entry_is_rejected_by_checksum() {
        let mut bytes = sample_entry(5).encode();
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
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 2 * 64);
        assert_eq!(delta.fences, 2, "the map bit, then the entry");
        let before = device.stats().snapshot();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 64);
        assert_eq!(delta.fences, 1, "exactly one fence per logged operation");
    }

    #[test]
    fn entries_survive_crash_and_scan_in_order() {
        let (device, oplog, mapping) = log(64 * 1024);
        for _ in 0..5 {
            let seq = oplog.next_seq();
            oplog.append(&sample_entry(seq)).unwrap();
        }
        device.crash();
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries.len(), 5);
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn full_active_epoch_reports_no_space_and_reset_clears_it() {
        let (device, oplog, mapping) = log(256); // 2 epochs x 2 entries
        for _ in 0..2 {
            let seq = oplog.next_seq();
            oplog.append(&sample_entry(seq)).unwrap();
        }
        assert!(oplog.is_full(), "active epoch is full");
        assert_eq!(
            oplog.append(&sample_entry(oplog.next_seq())),
            Err(FsError::NoSpace)
        );
        oplog.reset();
        assert_eq!(oplog.entries_used(), 0);
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, 256);
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn seal_swaps_epochs_without_stopping_writers() {
        let (device, oplog, mapping) = log(256); // 2 entries per epoch
        oplog.reset();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        assert!(oplog.is_full());
        let before = device.stats().snapshot();
        let watermark = oplog.try_seal().expect("other epoch is free");
        assert!(watermark > 2);
        assert!(oplog.sealed_pending());
        // Writers continue immediately into the fresh epoch.
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        // A second seal is refused until the sealed half is retired.
        assert!(oplog.try_seal().is_none());
        // All three entries visible across both epochs, in seq order.
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &mapping, 256);
        assert_eq!(entries.len(), 3);
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
        // Truncating the sealed half removes only its entries.
        oplog.truncate_sealed();
        assert!(!oplog.sealed_pending());
        let entries = OpLog::scan(&device, &mapping, 256);
        assert_eq!(entries.len(), 1, "only the new-epoch entry survives");
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.oplog_epoch_swaps, 1);
        // The other half is free again, so a new seal succeeds.
        assert!(oplog.try_seal().is_some());
    }

    #[test]
    fn grow_preserves_the_sealed_active_split() {
        // Regression test for grow-during-checkpoint: the file extension
        // must join the ACTIVE epoch only; sealed entries stay where they
        // are and are removed (and only them) by the eventual truncate.
        let size = 256u64;
        let (device, oplog, _mapping) = log(size);
        oplog.reset();
        // Fill the active epoch and seal it (2 entries in the sealed half).
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.try_seal().unwrap();
        // Fill the new active epoch too; now both halves are full and the
        // sealed half is still pending — exactly the grow-during-checkpoint
        // situation.
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        assert_eq!(
            oplog.append(&sample_entry(oplog.next_seq())),
            Err(FsError::NoSpace)
        );
        // Grow the file to twice the size (extension is zeroed first, as
        // the SplitFs grow path does).
        let new_size = size * 2;
        let grown = DaxMapping {
            ino: 99,
            file_offset: 0,
            len: new_size,
            segments: vec![MapSegment {
                file_offset: 0,
                device_offset: 1024 * 1024,
                len: new_size,
            }],
        };
        OpLog::zero_range(&device, &grown, size, new_size);
        oplog.grow(grown.clone(), new_size);
        // Appends proceed into the grown active epoch.
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        device.fence(TimeCategory::OpLog);
        let entries = OpLog::scan(&device, &grown, new_size);
        assert_eq!(entries.len(), 6, "sealed + active + grown all visible");
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
        // Retiring the sealed half drops exactly the two sealed entries.
        oplog.truncate_sealed();
        let entries = OpLog::scan(&device, &grown, new_size);
        assert_eq!(entries.len(), 4);
        assert!(entries.iter().all(|e| e.seq >= 3));
    }

    #[test]
    fn group_commit_uses_one_fence_for_many_entries() {
        let (device, oplog, mapping) = log(64 * 1024);
        oplog.reset(); // establish a known-zero log
        oplog.append(&sample_entry(oplog.next_seq())).unwrap(); // open the chunk, then measure
        let before = device.stats().snapshot();
        let batch: Vec<LogEntry> = (0..8).map(|_| sample_entry(oplog.next_seq())).collect();
        oplog.append_batch(&batch).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 8 * 64);
        assert_eq!(delta.fences, 1, "one fence covers the whole group");
        assert_eq!(delta.oplog_group_commits, 1);
        let entries = OpLog::scan(&device, &mapping, 64 * 1024);
        assert_eq!(entries.len(), 9);
    }

    #[test]
    fn group_commit_rejects_oversized_batches_without_reserving() {
        let (_device, oplog, _mapping) = log(256); // 2 entries per epoch
        let batch: Vec<LogEntry> = (0..3).map(|_| sample_entry(oplog.next_seq())).collect();
        assert_eq!(oplog.append_batch(&batch), Err(FsError::NoSpace));
        assert_eq!(oplog.entries_used(), 0, "failed batch reserves nothing");
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
    }

    #[test]
    fn reset_only_zeroes_the_used_prefix() {
        let (device, oplog, _mapping) = log(1024 * 1024);
        oplog.reset(); // first reset pays for the whole (unknown) log
        for _ in 0..4 {
            oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        }
        let before = device.stats().snapshot();
        oplog.reset();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(
            delta.written(TimeCategory::OpLog),
            4 * 64 + 64,
            "truncation work is proportional to entries used (plus the chunk map), not log size"
        );
        assert_eq!(oplog.entries_used(), 0);
    }

    #[test]
    fn scan_reports_valid_and_torn_slots_and_clearing_them_restores_zero() {
        let size = 64 * 1024;
        let (device, oplog, mapping) = log(size);
        for _ in 0..3 {
            oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        }
        // A torn entry (checksum no longer matches) two slots further on,
        // and one valid entry at the very end of the file.
        let mut torn = sample_entry(99).encode();
        torn[20] ^= 0xFF;
        for (slot, bytes) in [(5, torn), (size / ENTRY_SIZE - 1, sample_entry(7).encode())] {
            let (dev_off, _) = mapping.translate(slot * ENTRY_SIZE).unwrap();
            device.write(
                dev_off,
                &bytes,
                PersistMode::NonTemporal,
                TimeCategory::OpLog,
            );
        }

        let before = device.stats().snapshot();
        let scan = OpLog::scan_written(&device, &mapping, size);
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(scan.entries.len(), 4, "the torn slot is not an entry");
        assert_eq!(
            scan.written,
            [(0, 192), (320, 384), (size - 64, size)],
            "adjacent slots merge; the torn slot is reported too"
        );
        assert_eq!(scan.chunks, [0], "the one chunk the appends marked");
        let per_block = device.cost().pm_read_cost(4096, true);
        let map_read = device.cost().pm_read_cost(64, true);
        let charged = delta.time(TimeCategory::Software);
        assert!(
            (charged - (map_read + 16.0 * per_block)).abs() < 1.0,
            "the map, then one sequential read per 4 KiB block: {charged} ns"
        );
        assert_eq!(
            delta.bytes_read[TimeCategory::OpLog.index_in_all()],
            64 + size
        );

        let before = device.stats().snapshot();
        OpLog::zero_ranges(&device, &mapping, &scan.written);
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 5 * 64);
        assert_eq!(delta.fences, 1, "cleared together or not at all");
        let rescan = OpLog::scan_written(&device, &mapping, size);
        assert!(rescan.entries.is_empty() && rescan.written.is_empty());

        // Clearing the map as well leaves nothing to read but the map.
        let before = device.stats().snapshot();
        OpLog::clear(&device, &mapping, &rescan).unwrap();
        let delta = device.stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::OpLog), 64);
        assert_eq!(delta.fences, 1);
        let rescan = OpLog::scan_written(&device, &mapping, size);
        assert!(rescan.chunks.is_empty());
        let mut file = vec![0u8; size as usize];
        device.read_uncharged(mapping.translate(0).unwrap().0, &mut file);
        assert!(is_zeroed(&file), "the whole log, map included, is zero");
    }

    #[test]
    fn utilization_tracks_active_epoch_fill_fraction() {
        let (_device, oplog, _mapping) = log(512); // 4 entries per epoch
        assert_eq!(oplog.utilization(), 0.0);
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        oplog.append(&sample_entry(oplog.next_seq())).unwrap();
        assert!((oplog.utilization() - 0.5).abs() < 1e-9);
        // Sealing swaps in the empty epoch: utilization drops to zero.
        oplog.try_seal().unwrap();
        assert_eq!(oplog.utilization(), 0.0);
    }

    #[test]
    fn concurrent_appends_reserve_distinct_slots() {
        use std::sync::Arc as StdArc;
        let (device, oplog, mapping) = log(64 * 1024);
        let oplog = StdArc::new(oplog);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let oplog = StdArc::clone(&oplog);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut e = sample_entry(0);
                    e.seq = oplog.next_seq();
                    e.target_offset = t * 1000 + i;
                    oplog.append(&e).unwrap();
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
        use std::sync::Arc as StdArc;
        let (device, oplog, mapping) = log(64 * 1024);
        oplog.reset();
        let oplog = StdArc::new(oplog);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let oplog = StdArc::clone(&oplog);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let mut e = sample_entry(0);
                    e.seq = oplog.next_seq();
                    e.target_offset = t * 1000 + i;
                    oplog.append(&e).unwrap();
                }
            }));
        }
        // Seal mid-stream; writers must continue into the new epoch.
        let sealer = {
            let oplog = StdArc::clone(&oplog);
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
