//! The emulated persistent-memory device.
//!
//! [`PmemDevice`] is a flat, byte-addressable physical address space backed
//! by DRAM, sharded into lock-protected chunks so that concurrent file
//! systems can access disjoint regions in parallel.  It models:
//!
//! * store visibility vs persistence (temporal stores must be flushed and
//!   fenced; non-temporal stores persist at the next fence),
//! * crash behaviour (unflushed lines are lost, see [`crate::crash`]),
//! * access cost (every read/write/flush/fence charges simulated time to
//!   the shared [`Stats`], classified by [`TimeCategory`]; the device's
//!   [`SimClock`] reads their sum).
//!
//! File systems treat offsets into the device as "physical PM addresses";
//! a DAX mmap in `kernelfs` is simply a range of device offsets handed to
//! user space (U-Split), exactly as ext4 DAX hands out PM physical pages
//! through the page table.
//!
//! # Persistence tracking
//!
//! A shard of a tracked device owns, beside its bytes, two cache-line
//! bitmaps, *dirty* (stored, not flushed) and *pending* (flushed or stored
//! non-temporally; durable at the next fence), and an *undo store*: the
//! durable 64 B of each marked line.  They change only under the shard's
//! write lock, the one a store takes anyway, and keep one invariant:
//! **every marked line has exactly one undo entry holding its durable
//! bytes; an unmarked line's data is durable**.  A store saves the lines
//! it is the first to mark before it copies, a flush moves marks from
//! dirty to pending, and a fence copies nothing: it drops the entries of
//! the lines it makes durable and keeps those still dirty, a line both
//! pending and dirty taking its fence-time bytes as its durable ones.  A
//! crash, or a captured image, starts from the data and puts each entry
//! back (or tears the line against it).  Two summaries steer the fence:
//! the device holds a bit per shard, set while it has pending lines, and
//! each bitmap a bit per 64-line word, clear only while the word is zero.
//! A fence visits flagged shards and words only, and walks a shard's undo
//! store only while the shard has a dirty line, so it costs the lines
//! stored since the last fence, not the device's size or past writes.
//!
//! # Host copies
//!
//! A store is one copy under its shard's write lock.  A
//! [`PersistMode::NonTemporal`] store of at least 4 KiB on an untracked
//! x86_64 device streams: SSE2 `movntdq` stores over the 16-byte-aligned
//! middle, plain copies for the unaligned head and tail, and one `sfence`
//! before the lock is released.  It does not read the lines it replaces,
//! as the modelled `movnt` would not.  Shorter stores are read back soon
//! and would pay the fence for too few lines; a store to a tracked device
//! reads the clean lines it replaces into the undo store anyway, so it
//! would save no read.  Streaming changes host time only: bytes, marks
//! and charges are those of the plain copy.

use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::crash::{tear_line, CrashPolicy};
use crate::oracle::{Promise, PromiseLedger};
use crate::persist::{AccessPattern, PersistMode};
use crate::stats::{Stats, TimeCategory};
use crate::CACHE_LINE;

/// Size of one device shard.  Accesses spanning shards are split internally.
const SHARD_SIZE: usize = 1 << 20; // 1 MiB

/// Cache lines in one shard.  A line never spans shards because
/// `SHARD_SIZE` is a multiple of `CACHE_LINE`.
const SHARD_LINES: usize = SHARD_SIZE / CACHE_LINE;

/// One bit per cache line of a shard, in 64-line words (2 KiB).
type LineBitmap = [u64; SHARD_LINES / 64];

/// Builder for [`PmemDevice`].
#[derive(Debug, Clone)]
pub struct PmemBuilder {
    size: usize,
    cost: CostModel,
    track_persistence: bool,
    crash_policy: CrashPolicy,
}

impl PmemBuilder {
    /// Starts a builder for a device of `size` bytes.  The size is rounded
    /// up to a whole number of shards.
    pub fn new(size: usize) -> Self {
        Self {
            size,
            cost: CostModel::calibrated(),
            track_persistence: true,
            crash_policy: CrashPolicy::default(),
        }
    }

    /// Uses the given cost model instead of [`CostModel::calibrated`].
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables or disables persistence tracking: per shard, the dirty /
    /// pending line bitmaps and the undo store that crash injection needs.
    /// Disabling it leaves stores with nothing to mark or save and is
    /// appropriate for pure-performance experiments that never call
    /// [`PmemDevice::crash`].
    pub fn track_persistence(mut self, enable: bool) -> Self {
        self.track_persistence = enable;
        self
    }

    /// Sets the crash policy.
    pub fn crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Builds the device.
    pub fn build(self) -> Arc<PmemDevice> {
        let n_shards = self.size.div_ceil(SHARD_SIZE).max(1);
        let summary_words = if self.track_persistence {
            n_shards.div_ceil(64)
        } else {
            0
        };
        let shards = (0..n_shards)
            .map(|_| {
                RwLock::new(Shard {
                    data: vec![0u8; SHARD_SIZE].into_boxed_slice(),
                    persist: self.track_persistence.then(Persistence::new),
                })
            })
            .collect();
        let stats = Arc::new(Stats::new());
        Arc::new(PmemDevice {
            size: n_shards * SHARD_SIZE,
            shards,
            pending_shards: (0..summary_words).map(|_| AtomicU64::new(0)).collect(),
            track_persistence: self.track_persistence,
            crash_policy: self.crash_policy,
            clock: Arc::new(SimClock::new(Arc::clone(&stats))),
            stats,
            cost: self.cost,
            fence_seq: AtomicU64::new(0),
            fence_hook: FenceHookSlot(Mutex::new(None)),
            fence_hook_armed: AtomicBool::new(false),
            poison: Mutex::new(Vec::new()),
            poison_armed: AtomicBool::new(false),
            ledger: PromiseLedger::default(),
        })
    }
}

/// A fence interceptor: called at the *start* of every
/// [`PmemDevice::fence`] with the fence's ordinal (0-based, monotone per
/// device), before any pending line drains.  A crash image captured inside
/// the hook at ordinal `k` therefore models "power fails before fence `k`
/// completes".  The hook runs on the fencing thread with no device locks
/// held; it must not call `fence` itself.
pub type FenceHook = Arc<dyn Fn(&PmemDevice, u64) + Send + Sync>;

struct FenceHookSlot(Mutex<Option<FenceHook>>);

impl std::fmt::Debug for FenceHookSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FenceHookSlot")
    }
}

/// A point-in-time post-crash image of the whole device, computed under the
/// device's [`CrashPolicy`] by [`PmemDevice::capture_crash_image`].
///
/// Capturing does not perturb the live device: the workload keeps running
/// and the image is later [restored](PmemDevice::restore_crash_image) into
/// a fresh device to exercise recovery.  The image also snapshots the
/// promise-ledger length *before* any byte is copied, so every recorded
/// promise with `seq < ledger_len` was established strictly before the
/// captured state.
#[derive(Debug, Clone)]
pub struct CrashImage {
    size: usize,
    fence_ordinal: u64,
    ledger_len: usize,
    torn_lines: u64,
    shards: Vec<Box<[u8]>>,
}

impl CrashImage {
    /// Device capacity the image was captured from.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Value of the device fence ordinal when the capture ran.
    pub fn fence_ordinal(&self) -> u64 {
        self.fence_ordinal
    }

    /// Promise-ledger length snapshotted at the start of the capture;
    /// promises with `seq` below this bound recovery from this image.
    pub fn ledger_len(&self) -> usize {
        self.ledger_len
    }

    /// Number of cache lines that survived torn (always 0 outside
    /// [`CrashPolicy::TornWrites`]).
    pub fn torn_lines(&self) -> u64 {
        self.torn_lines
    }
}

#[derive(Debug)]
struct Shard {
    /// The volatile view: what loads observe right now.
    data: Box<[u8]>,
    /// `None` when persistence tracking is disabled.
    persist: Option<Box<Persistence>>,
}

/// What a tracked shard knows about durability.  See the module
/// documentation for the invariant tying `undo` to the marks.
#[derive(Debug)]
struct Persistence {
    /// Lines written but not flushed.
    dirty: Marks,
    /// Lines flushed or written non-temporally: persistent at the next
    /// fence.  A temporal store onto a pending line sets its dirty bit
    /// too; the fence then persists the line and leaves it dirty.
    pending: Marks,
    /// The durable bytes of every dirty or pending line.
    undo: Undo,
}

/// Undo capacity, in lines, that a fence emptying the store keeps: 64 KiB
/// of saved bytes.  Above it, capacity goes back to the allocator, so a
/// bulk write's lines do not stay reserved after the fence that made them
/// durable.
const UNDO_KEPT_LINES: usize = (64 << 10) / CACHE_LINE;

const _: () = assert!(SHARD_LINES <= 1 << 16, "undo line indices are u16");

/// A shard's undo store: one entry per marked line, its index within the
/// shard (`SHARD_LINES` fits a `u16`) and its durable bytes, in the order
/// the lines were first marked.
#[derive(Debug, Default)]
struct Undo {
    lines: Vec<u16>,
    bytes: Vec<[u8; CACHE_LINE]>,
}

impl Undo {
    /// Saves the lines `bits` sets in bitmap word `w`, one run at a time,
    /// from `data`: the shard's bytes before the store that marks them.
    fn save(&mut self, w: usize, mut bits: u64, data: &[u8]) {
        while bits != 0 {
            let lo = bits.trailing_zeros() as usize;
            let len = (bits >> lo).trailing_ones() as usize;
            let first = w * 64 + lo;
            self.lines
                .extend((first..first + len).map(|line| line as u16));
            let (lines, _) = data[bytes_of(&(first..first + len))].as_chunks::<CACHE_LINE>();
            self.bytes.extend_from_slice(lines);
            bits &= u64::MAX.checked_shl((lo + len) as u32).unwrap_or(0);
        }
    }

    /// Keeps the entries of the lines `dirty` sets, taking a line's bytes
    /// from `data` when `pending` sets it too: the fence persists it as it
    /// reads now.
    fn keep_dirty(&mut self, dirty: &LineBitmap, pending: &LineBitmap, data: &[u8]) {
        let is_set = |words: &LineBitmap, line: usize| words[line / 64] >> (line % 64) & 1 != 0;
        let mut kept = 0;
        for i in 0..self.lines.len() {
            let line = usize::from(self.lines[i]);
            if !is_set(dirty, line) {
                continue;
            }
            self.lines[kept] = self.lines[i];
            self.bytes[kept] = if is_set(pending, line) {
                data[line_bytes(line)].try_into().expect("one line")
            } else {
                self.bytes[i]
            };
            kept += 1;
        }
        self.lines.truncate(kept);
        self.bytes.truncate(kept);
    }

    /// Empties the store, keeping at most [`UNDO_KEPT_LINES`] of capacity.
    fn clear(&mut self) {
        self.lines.clear();
        self.bytes.clear();
        self.lines.shrink_to(UNDO_KEPT_LINES);
        self.bytes.shrink_to(UNDO_KEPT_LINES);
    }

    /// Turns `image`, a copy of the shard's bytes (or the bytes
    /// themselves), into what `policy` lets a crash leave: each saved line
    /// put back, torn against the line's current bytes, or left as it is.
    /// `first_line` is the device-wide index of the shard's first line;
    /// returns the lines torn.
    fn apply(&self, policy: CrashPolicy, first_line: u64, image: &mut [u8]) -> u64 {
        let entries = self.lines.iter().zip(&self.bytes);
        match policy {
            CrashPolicy::KeepAll => 0,
            CrashPolicy::LoseUnflushed => {
                for (&line, durable) in entries {
                    image[line_bytes(line.into())].copy_from_slice(durable);
                }
                0
            }
            CrashPolicy::TornWrites { seed } => {
                for (&line, durable) in entries {
                    let bytes = line_bytes(line.into());
                    let torn = tear_line(
                        seed,
                        first_line + u64::from(line),
                        durable,
                        &image[bytes.clone()],
                    );
                    image[bytes].copy_from_slice(&torn);
                }
                self.lines.len() as u64
            }
        }
    }
}

/// A line bitmap and its summary, one bit per word (32 B): a clear bit
/// means its word is zero, a set one promises nothing.
#[derive(Debug)]
struct Marks {
    words: LineBitmap,
    flagged: [u64; SHARD_LINES / 64 / 64],
}

impl Marks {
    const EMPTY: Self = Self {
        words: [0; SHARD_LINES / 64],
        flagged: [0; SHARD_LINES / 64 / 64],
    };

    fn set(&mut self, w: usize, mask: u64) {
        self.words[w] |= mask;
        self.flagged[w / 64] |= u64::from(mask != 0) << (w % 64);
    }

    /// Whether every word is zero.
    fn is_empty(&self) -> bool {
        set_bits(self.flagged).all(|w| self.words[w] == 0)
    }

    /// The flagged words as `(index, bits)`, zeroing them and the summary.
    fn take(&mut self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let words = &mut self.words;
        set_bits(std::mem::take(&mut self.flagged)).map(move |w| (w, std::mem::take(&mut words[w])))
    }
}

/// The shortest non-temporal store that streams past the host cache.  A
/// streamed copy does not read the lines it replaces, so a 4 KiB
/// overwrite of a cold block costs about 0.7x a cached copy (on a 2-core
/// x86_64 host).  But its closing `sfence` waits for the lines to drain,
/// and a line it wrote is not in cache when it is read back: streaming
/// the 64 B operation-log entries and journal records made `wal_append`
/// ~20 % slower, and streaming 1 KiB appends, read back soon after, made
/// `meta_churn` ~18 % slower.
const STREAM_MIN: usize = 4096;

/// Copies `src` into `dst` with SSE2 non-temporal stores (`movntdq`) over
/// the 16-byte-aligned middle of `dst` and plain copies for its unaligned
/// head and tail, then issues one `sfence`.  The caller holds the shard's
/// write lock, so the fence completes before the guard drops and every
/// later holder of the lock sees the bytes.
#[cfg(target_arch = "x86_64")]
fn stream_copy(dst: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_sfence, _mm_stream_si128};
    assert_eq!(dst.len(), src.len(), "stream_copy: length mismatch");
    let head = dst.as_ptr().align_offset(16).min(dst.len());
    let body = (dst.len() - head) & !15;
    let (dst_head, dst_rest) = dst.split_at_mut(head);
    let (dst_body, dst_tail) = dst_rest.split_at_mut(body);
    let (src_head, src_rest) = src.split_at(head);
    let (src_body, src_tail) = src_rest.split_at(body);
    dst_head.copy_from_slice(src_head);
    dst_tail.copy_from_slice(src_tail);
    let to = dst_body.as_mut_ptr().cast::<__m128i>();
    let from = src_body.as_ptr().cast::<__m128i>();
    // SAFETY: SSE2 is part of the x86_64 baseline.  `dst_body` and
    // `src_body` are `body` bytes long, `body` is a multiple of 16, so
    // chunk `i < body / 16` lies inside both; `to` is 16-byte aligned, as
    // `_mm_stream_si128` requires, and `_mm_loadu_si128` takes any
    // alignment.  `core::arch` requires an `_mm_sfence` after streaming
    // stores before any other access to the memory: it is issued here,
    // while the caller still holds the write lock that orders every other
    // access to `dst`.
    unsafe {
        for i in 0..body / 16 {
            _mm_stream_si128(to.add(i), _mm_loadu_si128(from.add(i)));
        }
        _mm_sfence();
    }
}

/// Targets without SSE2 streaming stores copy through the cache.
#[cfg(not(target_arch = "x86_64"))]
fn stream_copy(dst: &mut [u8], src: &[u8]) {
    dst.copy_from_slice(src);
}

/// Splits the access `[offset, offset + len)` at shard boundaries and calls
/// `f(shard index, start within that shard, the part of 0..len it covers)`.
#[inline]
fn for_each_shard_span(offset: u64, len: usize, mut f: impl FnMut(usize, usize, Range<usize>)) {
    let mut done = 0usize;
    while done < len {
        let abs = offset as usize + done;
        let within = abs % SHARD_SIZE;
        let n = (SHARD_SIZE - within).min(len - done);
        f(abs / SHARD_SIZE, within, done..done + n);
        done += n;
    }
}

/// The cache lines `[start, start + n)` overlaps (`n > 0`), counted from
/// the origin `start` is measured from: a shard's first byte, or the
/// device's.
fn lines_of(start: usize, n: usize) -> Range<usize> {
    start / CACHE_LINE..(start + n).div_ceil(CACHE_LINE)
}

fn bytes_of(lines: &Range<usize>) -> Range<usize> {
    lines.start * CACHE_LINE..lines.end * CACHE_LINE
}

fn line_bytes(line: usize) -> Range<usize> {
    bytes_of(&(line..line + 1))
}

/// Splits a non-empty line range into `(word index, mask)` pairs.
fn word_masks(lines: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (lines.start, lines.end - 1);
    (first / 64..=last / 64).map(move |w| {
        let lo = if w == first / 64 { first % 64 } else { 0 };
        let hi = if w == last / 64 { last % 64 } else { 63 };
        (w, (u64::MAX >> (63 - hi)) & (u64::MAX << lo))
    })
}

/// The indices of the set bits of `words`, ascending: the one sparse walk
/// under a fence's shard loop and every bitmap walk of a shard.
fn set_bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (bit < 64).then_some(w * 64 + bit)
        })
    })
}

impl Persistence {
    fn new() -> Box<Self> {
        Box::new(Self {
            dirty: Marks::EMPTY,
            pending: Marks::EMPTY,
            undo: Undo::default(),
        })
    }

    /// Records a store over `lines`, before it copies: the lines it is the
    /// first to mark are saved from `data` with their durable bytes.
    fn mark(&mut self, lines: Range<usize>, mode: PersistMode, data: &[u8]) {
        for (w, mask) in word_masks(lines) {
            let clean = mask & !(self.dirty.words[w] | self.pending.words[w]);
            if clean != 0 {
                self.undo.save(w, clean, data);
            }
            match mode {
                PersistMode::Temporal => self.dirty.set(w, mask),
                PersistMode::NonTemporal => {
                    self.dirty.words[w] &= !mask;
                    self.pending.set(w, mask);
                }
            }
        }
    }

    /// `clwb` over `lines`: dirty lines become pending; clean and pending
    /// lines stay as they are.  Returns whether any line moved.
    fn flush(&mut self, lines: Range<usize>) -> bool {
        let mut any = 0;
        for (w, mask) in word_masks(lines) {
            let moved = self.dirty.words[w] & mask;
            self.dirty.words[w] &= !moved;
            self.pending.set(w, moved);
            any |= moved;
        }
        any != 0
    }

    /// `sfence`: pending lines become durable where they are, so their
    /// entries go, unless a line is dirty too; returns the words visited.
    fn drain(&mut self, data: &[u8]) -> usize {
        if self.dirty.is_empty() {
            self.undo.clear();
        } else {
            self.undo
                .keep_dirty(&self.dirty.words, &self.pending.words, data);
        }
        self.pending.take().count()
    }

    /// The words flagged dirty or pending, as `(index, dirty | pending)`.
    fn marked(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (d, p) = (&self.dirty, &self.pending);
        let flagged = d.flagged.iter().zip(p.flagged).map(|(a, b)| a | b);
        set_bits(flagged).map(|w| (w, d.words[w] | p.words[w]))
    }

    /// Applies `policy` to `data` in place, touching only the saved lines,
    /// and forgets them: afterwards every line is durable and nothing is
    /// marked.  `first_line` is the device-wide index of the shard's first
    /// line; returns the lines torn and the bitmap words visited.
    fn crash(&mut self, data: &mut [u8], policy: CrashPolicy, first_line: u64) -> (u64, usize) {
        let torn = self.undo.apply(policy, first_line, data);
        self.undo.clear();
        for (w, bits) in self.dirty.take() {
            self.pending.set(w, bits); // a crash treats both marks alike
        }
        (torn, self.pending.take().count())
    }

    /// Forgets every mark and entry: the shard's bytes are all durable.
    fn forget(&mut self) {
        self.undo.clear();
        self.dirty.take().for_each(drop);
        self.pending.take().for_each(drop);
    }
}

/// The emulated persistent-memory device.  See the module documentation.
#[derive(Debug)]
pub struct PmemDevice {
    size: usize,
    shards: Vec<RwLock<Shard>>,
    /// One bit per shard, set exactly while the shard's pending bitmap is
    /// non-empty.  Set and cleared only under that shard's write lock.
    /// Empty when persistence tracking is disabled.
    pending_shards: Box<[AtomicU64]>,
    track_persistence: bool,
    crash_policy: CrashPolicy,
    clock: Arc<SimClock>,
    stats: Arc<Stats>,
    cost: CostModel,
    /// Monotone count of fences issued; the hook sees each fence's ordinal.
    fence_seq: AtomicU64,
    fence_hook: FenceHookSlot,
    /// Fast-path gate so un-instrumented runs pay one relaxed load per fence.
    fence_hook_armed: AtomicBool,
    /// Byte ranges that fail checked reads (media-error injection).
    poison: Mutex<Vec<(u64, u64)>>,
    poison_armed: AtomicBool,
    ledger: PromiseLedger,
}

impl PmemDevice {
    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The shared statistics accumulator.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Acquires a shared lock with contention accounting: `try_lock`
    /// is attempted first; on failure the contended acquisition is counted
    /// in `shard_lock_waits` and the blocked time — measured as the global
    /// simulated-clock delta across `lock`, i.e. the simulated work other
    /// threads completed while this one could not proceed — is charged to
    /// the calling thread's critical path
    /// ([`SimClock::charge_thread_wait`](crate::SimClock::charge_thread_wait)).
    /// Every lock the foreground and the daemon share (the kernel inode
    /// table, the kernel journal's head, the U-Split registry) funnels
    /// through this one helper so the wait-accounting rule cannot drift
    /// between call sites.
    pub fn lock_contended<G>(
        &self,
        try_lock: impl FnOnce() -> Option<G>,
        lock: impl FnOnce() -> G,
    ) -> G {
        match try_lock() {
            Some(guard) => guard,
            None => {
                self.stats().add_shard_lock_wait();
                let t0 = self.clock().now_ns_f64();
                let guard = lock();
                crate::SimClock::charge_thread_wait(self.clock().now_ns_f64() - t0);
                guard
            }
        }
    }

    /// Charges `ns` of pure software time (kernel traps, allocation
    /// decisions, bookkeeping) to the stats, and so to the clock.
    pub fn charge_software(&self, ns: f64) {
        self.stats.add_time(TimeCategory::Software, ns);
    }

    /// Charges `ns` of time attributed to an arbitrary category.
    pub fn charge(&self, cat: TimeCategory, ns: f64) {
        self.stats.add_time(cat, ns);
    }

    fn check_range(&self, offset: u64, len: usize) {
        let end = offset
            .checked_add(len as u64)
            .expect("pmem access offset overflow");
        assert!(
            end <= self.size as u64,
            "pmem access out of range: offset {offset} len {len} device size {}",
            self.size
        );
    }

    /// Reads `buf.len()` bytes starting at `offset`, charging read cost.
    pub fn read(&self, offset: u64, buf: &mut [u8], pattern: AccessPattern, cat: TimeCategory) {
        self.check_range(offset, buf.len());
        self.read_uncharged(offset, buf);
        let ns = self.cost.pm_read_cost(buf.len(), pattern.is_sequential());
        self.stats.add_time(cat, ns);
        self.stats.add_bytes_read(cat, buf.len() as u64);
    }

    /// Serves a read as a **zero-copy borrow** of device memory, charging
    /// read cost but performing no memcpy.  This models a load-from-DAX
    /// access: the caller gets the physical bytes directly.
    ///
    /// Returns `None` when the range is empty or crosses a shard boundary
    /// (the borrow is backed by one shard's read guard); callers fall back
    /// to an owned [`PmemDevice::read`].  The returned [`PmemView`] holds a
    /// shard read lock for its lifetime, so **any** writer to the same
    /// 1 MiB shard — same thread or another — blocks until it is dropped.
    /// On a tracked device the shard's line bitmaps live under the same
    /// lock, so a flush of the shard, a fence that finds pending lines in
    /// it and a crash-image capture behind a queued writer block too.
    /// Treat a view as short-lived: drop (or copy out of) it before
    /// issuing further device writes, flushes, fences or captures from
    /// the same thread, and never hold one while blocking on a lock
    /// another writing thread may own, or the pinned shard becomes one
    /// side of an ABBA deadlock.
    pub fn try_read_view(
        &self,
        offset: u64,
        len: usize,
        pattern: AccessPattern,
        cat: TimeCategory,
    ) -> Option<PmemView<'_>> {
        if len == 0 {
            return None;
        }
        self.check_range(offset, len);
        if self.poison_hit(offset, len).is_some() {
            // Refuse the zero-copy path so the caller's owned-read fallback
            // (which reads through `try_read`) surfaces the media error.
            return None;
        }
        let start = offset as usize;
        let shard_idx = start / SHARD_SIZE;
        if (start + len - 1) / SHARD_SIZE != shard_idx {
            return None;
        }
        let guard = self.shards[shard_idx].read();
        let ns = self.cost.pm_read_cost(len, pattern.is_sequential());
        self.stats.add_time(cat, ns);
        self.stats.add_bytes_read(cat, len as u64);
        self.stats.add_zero_copy_read_bytes(len as u64);
        Some(PmemView {
            guard,
            start: start % SHARD_SIZE,
            len,
        })
    }

    /// Reads without charging any simulated time.  Used by recovery scans
    /// whose cost is charged explicitly by the caller, and by tests.
    pub fn read_uncharged(&self, offset: u64, buf: &mut [u8]) {
        self.check_range(offset, buf.len());
        for_each_shard_span(offset, buf.len(), |shard_idx, within, part| {
            let shard = self.shards[shard_idx].read();
            let n = part.len();
            buf[part].copy_from_slice(&shard.data[within..within + n]);
        });
    }

    /// Writes `data` at `offset`, charging write cost.
    ///
    /// With [`PersistMode::Temporal`] the bytes are visible but not yet
    /// persistent (the affected cache lines become *dirty*).  With
    /// [`PersistMode::NonTemporal`] the lines become *pending* and will be
    /// persistent after the next [`PmemDevice::fence`].
    pub fn write(&self, offset: u64, data: &[u8], mode: PersistMode, cat: TimeCategory) {
        self.check_range(offset, data.len());
        self.store(offset, data, mode);
        let ns = self.cost.pm_write_cost(data.len());
        self.stats.add_time(cat, ns);
        self.stats.add_bytes_written(cat, data.len() as u64);
    }

    /// Charges the time and statistics of writing `len` bytes without
    /// modifying any device contents.  Used to model traffic whose payload
    /// is irrelevant to correctness (e.g. the jbd2 commit-block rewrite an
    /// `fsync` forces) without clobbering live data structures.
    pub fn charge_write_traffic(&self, len: usize, cat: TimeCategory) {
        let ns = self.cost.pm_write_cost(len);
        self.stats.add_time(cat, ns);
        self.stats.add_bytes_written(cat, len as u64);
    }

    /// Writes without charging simulated time (bulk test setup, mkfs-style
    /// initialization whose cost the experiments do not measure).
    pub fn write_uncharged(&self, offset: u64, data: &[u8]) {
        self.check_range(offset, data.len());
        self.store(offset, data, PersistMode::NonTemporal);
    }

    /// On a tracked device, marks the lines `data` touches and saves those
    /// it is the first to mark; then copies `data` into the volatile view —
    /// all under the one shard write lock.  A non-temporal store of at
    /// least [`STREAM_MIN`] bytes on an untracked device streams past the
    /// host cache ([`stream_copy`]); every other store is a plain copy.
    fn store(&self, offset: u64, data: &[u8], mode: PersistMode) {
        let stream =
            mode == PersistMode::NonTemporal && !self.track_persistence && data.len() >= STREAM_MIN;
        for_each_shard_span(offset, data.len(), |shard_idx, within, part| {
            let n = part.len();
            let mut guard = self.shards[shard_idx].write();
            let shard = &mut *guard;
            if let Some(persist) = shard.persist.as_mut() {
                persist.mark(lines_of(within, n), mode, &shard.data);
                if mode == PersistMode::NonTemporal {
                    self.flag_pending(shard_idx);
                }
            }
            let dst = &mut shard.data[within..within + n];
            if stream {
                stream_copy(dst, &data[part]);
            } else {
                dst.copy_from_slice(&data[part]);
            }
        });
    }

    /// The summary word and bit of shard `idx`.  Every access is `Relaxed`:
    /// the bit publishes no data, it only steers which shard locks a fence
    /// takes.  The bitmaps are read under the shard lock, and a fence owes
    /// durability only to stores that happen-before it, whose flag it is
    /// then guaranteed to observe.
    fn pending_flag(&self, idx: usize) -> (&AtomicU64, u64) {
        (&self.pending_shards[idx / 64], 1 << (idx % 64))
    }

    /// Call with shard `idx`'s write lock held, after giving it a pending
    /// line.
    fn flag_pending(&self, idx: usize) {
        let (word, bit) = self.pending_flag(idx);
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Call with shard `idx`'s write lock held, when emptying its pending
    /// bitmap.
    fn unflag_pending(&self, idx: usize) {
        let (word, bit) = self.pending_flag(idx);
        word.fetch_and(!bit, Ordering::Relaxed);
    }

    /// Flushes (`clwb`) every cache line overlapping `[offset, offset+len)`:
    /// dirty lines become pending and will persist at the next fence.
    /// Charges one `clwb` per line touched.
    pub fn flush(&self, offset: u64, len: usize, cat: TimeCategory) {
        if len == 0 {
            return;
        }
        self.check_range(offset, len);
        let lines = lines_of(offset as usize, len).len() as u64;
        if self.track_persistence {
            for_each_shard_span(offset, len, |shard_idx, within, part| {
                let mut shard = self.shards[shard_idx].write();
                let persist = shard.persist.as_mut().expect("tracked shard");
                if persist.flush(lines_of(within, part.len())) {
                    self.flag_pending(shard_idx);
                }
            });
        }
        let ns = lines as f64 * self.cost.clwb_ns;
        self.stats.add_time(cat, ns);
        self.stats.add_flushes(lines);
    }

    /// Issues an ordering fence (`sfence`): all pending lines reach the
    /// persistence domain.  Charges one fence.
    ///
    /// Every fence has a 0-based ordinal; when a [`FenceHook`] is
    /// installed it runs first, *before* pending lines drain, so a crash
    /// image captured inside it reflects a power failure at exactly this
    /// boundary.
    pub fn fence(&self, cat: TimeCategory) {
        let ordinal = self.fence_seq.fetch_add(1, Ordering::Relaxed);
        if self.fence_hook_armed.load(Ordering::Acquire) {
            let hook = self.fence_hook.0.lock().clone();
            if let Some(hook) = hook {
                hook(self, ordinal);
            }
        }
        self.drain_pending();
        self.stats.add_time(cat, self.cost.sfence_ns);
        self.stats.add_fence();
    }

    /// Drains the flagged shards; returns the bitmap words visited.
    fn drain_pending(&self) -> usize {
        let (mut visited, load) = (0, |w: &AtomicU64| w.load(Ordering::Relaxed));
        for idx in set_bits(self.pending_shards.iter().map(load)) {
            let mut guard = self.shards[idx].write();
            self.unflag_pending(idx);
            let shard = &mut *guard;
            let persist = shard.persist.as_mut().expect("tracked shard");
            visited += persist.drain(&shard.data);
        }
        visited
    }

    /// Convenience: flush the range and fence, i.e. make `[offset,
    /// offset+len)` persistent.  Equivalent to `clwb*; sfence`.
    pub fn persist(&self, offset: u64, len: usize, cat: TimeCategory) {
        self.flush(offset, len, cat);
        self.fence(cat);
    }

    /// Writes zeroes over the range.
    pub fn zero(&self, offset: u64, len: usize, mode: PersistMode, cat: TimeCategory) {
        const CHUNK: usize = 64 * 1024;
        let zeros = [0u8; CHUNK];
        let mut done = 0usize;
        while done < len {
            let n = CHUNK.min(len - done);
            self.write(offset + done as u64, &zeros[..n], mode, cat);
            done += n;
        }
    }

    /// Injects a crash: the volatile view is replaced by the persistent
    /// image according to the [`CrashPolicy`].  After this call the device
    /// contents are exactly what a real machine would find on PM after a
    /// power failure, and recovery code can be exercised.
    ///
    /// The repair is done in place, one shard at a time, and touches only
    /// the lines that were dirty or pending, so it costs what was left
    /// unpersisted and allocates no image.  It is therefore a single cut
    /// only on a quiesced device; to crash under a running workload,
    /// [capture](PmemDevice::capture_crash_image) an image instead.
    ///
    /// # Panics
    ///
    /// Panics if the device was built with persistence tracking disabled —
    /// crashing such a device is always a test-configuration bug.
    pub fn crash(&self) {
        assert!(
            self.track_persistence,
            "crash() requires a device built with track_persistence(true)"
        );
        let mut torn_lines = 0u64;
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut guard = shard.write();
            self.unflag_pending(idx);
            let shard = &mut *guard;
            let persist = shard.persist.as_mut().expect("tracked shard");
            let first_line = (idx * SHARD_LINES) as u64;
            torn_lines += persist
                .crash(&mut shard.data, self.crash_policy, first_line)
                .0;
        }
        self.stats.add_torn_lines(torn_lines);
    }

    /// Computes the post-crash device contents under the [`CrashPolicy`]
    /// *without* perturbing the live device, so a concurrent workload can
    /// keep running after the capture (the crash-point fuzzer captures one
    /// image per fence boundary from inside a [`FenceHook`]).
    ///
    /// Ordering contract: the capture first takes a read guard on **every**
    /// shard, in ascending order, and holds them all; then it snapshots
    /// the ledger length; then it copies bytes.  Every path that makes
    /// bytes durable (a store marking its lines, a flush, a fence draining
    /// them) needs a shard's write lock, takes one such lock at a time and
    /// waits for nothing while holding it, so the capture cannot deadlock
    /// with them and nothing can become durable between the ledger cut and
    /// the byte copy; declaration sites declare only *after* their
    /// durability fence.  Together that makes the image consistent with
    /// its ledger prefix: every included promise was durable before the
    /// capture began, and no operation declared after the cut can have
    /// leaked effects into the image.  At worst the image misses a promise
    /// that raced the capture — the conservative direction.
    ///
    /// A thread that holds a [`PmemView`] must not capture: a writer
    /// queued behind the view's read guard blocks the capture's own read
    /// of that shard.
    ///
    /// # Panics
    ///
    /// Panics if the device was built with persistence tracking disabled —
    /// crash-imaging such a device is always a test-configuration bug.
    pub fn capture_crash_image(&self) -> CrashImage {
        assert!(
            self.track_persistence,
            "capture_crash_image() requires a device built with track_persistence(true)"
        );
        // Quiesce the device: stores, flushes and fence drains block on
        // their shard until the capture finishes.
        let guards: Vec<_> = self.shards.iter().map(|shard| shard.read()).collect();
        let ledger_len = self.ledger.len();
        let fence_ordinal = self.fence_seq.load(Ordering::Relaxed);
        let mut torn_lines = 0u64;
        let mut shards = Vec::with_capacity(guards.len());
        for (idx, shard) in guards.iter().enumerate() {
            let persist = shard.persist.as_ref().expect("tracked shard");
            let mut img = shard.data.clone();
            let first_line = (idx * SHARD_LINES) as u64;
            torn_lines += persist.undo.apply(self.crash_policy, first_line, &mut img);
            shards.push(img);
        }
        drop(guards);
        self.stats.add_torn_lines(torn_lines);
        CrashImage {
            size: self.size,
            fence_ordinal,
            ledger_len,
            torn_lines,
            shards,
        }
    }

    /// Overwrites this device's contents with a captured [`CrashImage`]
    /// and clears persistence tracking (every byte is then durable) — the state a real machine finds on PM after the power
    /// failure the image models.  The device must have the same capacity
    /// the image was captured from.
    pub fn restore_crash_image(&self, image: &CrashImage) {
        assert_eq!(
            image.size, self.size,
            "crash image size {} does not match device size {}",
            image.size, self.size
        );
        for (idx, (shard, img)) in self.shards.iter().zip(&image.shards).enumerate() {
            let mut s = shard.write();
            s.data.copy_from_slice(img);
            if let Some(persist) = s.persist.as_mut() {
                persist.forget();
                self.unflag_pending(idx);
            }
        }
    }

    /// Installs (or removes, with `None`) the fence interceptor.  See
    /// [`FenceHook`] for the calling contract.
    pub fn set_fence_hook(&self, hook: Option<FenceHook>) {
        let armed = hook.is_some();
        *self.fence_hook.0.lock() = hook;
        self.fence_hook_armed.store(armed, Ordering::Release);
    }

    /// Number of fences issued so far (the next fence gets this ordinal).
    pub fn fence_ordinal(&self) -> u64 {
        self.fence_seq.load(Ordering::Relaxed)
    }

    /// The declared-durability promise ledger attached to this device.
    pub fn ledger(&self) -> &PromiseLedger {
        &self.ledger
    }

    /// Records a durability promise on the ledger (no-op returning `None`
    /// unless the ledger is enabled).  Call only *after* the fence /
    /// journal commit / epoch publish that establishes the promised
    /// durability — see the [`crate::oracle`] soundness rule.
    pub fn declare(&self, promise: Promise) -> Option<u64> {
        self.ledger.declare(promise)
    }

    /// Marks `[offset, offset+len)` as failing media: subsequent
    /// [`PmemDevice::try_read`] calls overlapping the range return
    /// [`MediaError`], and [`PmemDevice::try_read_view`] refuses the range
    /// so callers fall back to their checked owned-read path.  Ranges
    /// accumulate until [`PmemDevice::clear_poison`].
    pub fn poison_range(&self, offset: u64, len: u64) {
        self.check_range(offset, len as usize);
        self.poison.lock().push((offset, len));
        self.poison_armed.store(true, Ordering::Release);
    }

    /// Removes every poisoned range.
    pub fn clear_poison(&self) {
        self.poison.lock().clear();
        self.poison_armed.store(false, Ordering::Release);
    }

    /// First poisoned byte overlapping `[offset, offset+len)`, if any.
    fn poison_hit(&self, offset: u64, len: usize) -> Option<u64> {
        if len == 0 || !self.poison_armed.load(Ordering::Acquire) {
            return None;
        }
        let end = offset + len as u64;
        let ranges = self.poison.lock();
        ranges
            .iter()
            .filter(|&&(s, l)| offset < s + l && s < end)
            .map(|&(s, _)| s.max(offset))
            .min()
    }

    /// Like [`PmemDevice::read`], but fails with [`MediaError`] when the
    /// range overlaps a poisoned region.  File-system data paths read
    /// through this so injected media errors propagate to their callers
    /// instead of silently serving bytes.
    pub fn try_read(
        &self,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
        cat: TimeCategory,
    ) -> Result<(), MediaError> {
        if let Some(bad) = self.poison_hit(offset, buf.len()) {
            return Err(MediaError { offset: bad });
        }
        self.read(offset, buf, pattern, cat);
        Ok(())
    }

    /// Number of cache lines currently written but not yet persistent
    /// (dirty, pending, or both — each line counts once).  Used by tests
    /// asserting that a code path left nothing unflushed.
    pub fn unpersisted_lines(&self) -> usize {
        let mut lines = 0;
        for shard in &self.shards {
            if let Some(persist) = &shard.read().persist {
                for (_, bits) in persist.marked() {
                    lines += bits.count_ones() as usize;
                }
            }
        }
        lines
    }
}

/// A media read error returned by [`PmemDevice::try_read`] when the range
/// overlaps a [poisoned](PmemDevice::poison_range) region — the emulated
/// equivalent of an uncorrectable-ECC machine check on a PM load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaError {
    /// Device offset of the first failing byte within the attempted read.
    pub offset: u64,
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "media read error at device offset {}", self.offset)
    }
}

impl std::error::Error for MediaError {}

/// A zero-copy borrow of a contiguous device range, returned by
/// [`PmemDevice::try_read_view`].
///
/// Dereferences to the bytes as they are *now* — the volatile view, exactly
/// what a load from a DAX mapping observes.  The view holds a shard read
/// lock; writers to the same 1 MiB shard block while it is alive.
pub struct PmemView<'a> {
    guard: RwLockReadGuard<'a, Shard>,
    start: usize,
    len: usize,
}

impl Deref for PmemView<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.guard.data[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for PmemView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemView").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_device() -> Arc<PmemDevice> {
        PmemBuilder::new(4 * SHARD_SIZE)
            .cost_model(CostModel::calibrated())
            .build()
    }

    #[test]
    fn read_back_what_was_written() {
        let dev = small_device();
        let data = vec![0xABu8; 300];
        dev.write(
            1000,
            &data,
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        let mut out = vec![0u8; 300];
        dev.read(
            1000,
            &mut out,
            AccessPattern::Sequential,
            TimeCategory::UserData,
        );
        assert_eq!(out, data);
    }

    /// Short and streamed stores (untracked, non-temporal, 4 KiB and
    /// more), with unaligned heads, tails and sources, across a shard
    /// boundary: each reads back exactly, and the bytes around it stay.
    #[test]
    fn writes_spanning_shards_round_trip() {
        const PAD: usize = 64;
        for tracked in [false, true] {
            let dev = PmemBuilder::new(4 * SHARD_SIZE)
                .track_persistence(tracked)
                .build();
            for len in [200, 4095, 4096, 4097, 3 * 4096 + 17] {
                for skew in [1, 15, 16] {
                    let offset = (SHARD_SIZE - len / 2 / CACHE_LINE * CACHE_LINE + skew) as u64;
                    let around = offset - PAD as u64;
                    let mut expect = vec![0xEEu8; len + 2 * PAD];
                    dev.write_uncharged(around, &expect);
                    let source: Vec<u8> = (0..len + 3).map(|i| (i % 251) as u8).collect();
                    let data = &source[3..];
                    dev.write(
                        offset,
                        data,
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    expect[PAD..PAD + len].copy_from_slice(data);
                    let mut out = vec![0u8; expect.len()];
                    dev.read_uncharged(around, &mut out);
                    assert!(
                        out == expect,
                        "tracked {tracked}, len {len}, {skew} B off alignment"
                    );
                }
            }
        }
    }

    /// A reader that acquires a block's number sees every byte the writer
    /// streamed into it before publishing the number with a release store,
    /// through an owned read and through a borrowed view.
    #[test]
    fn streamed_blocks_are_visible_to_an_acquiring_reader() {
        const BLOCK: usize = 4096;
        const BLOCKS: usize = 4 * SHARD_SIZE / BLOCK;
        const ROUNDS: u64 = 64;
        let dev = PmemBuilder::new(4 * SHARD_SIZE)
            .track_persistence(false)
            .build();
        let published = AtomicU64::new(0);
        let round_done = std::sync::Barrier::new(2);
        // Counted, not asserted: a panic here would leave the writer
        // waiting at the barrier forever.
        let mut torn_reads = Vec::new();
        let mut check = |seq: u64, bytes: &[u8]| {
            if bytes
                .chunks_exact(8)
                .any(|stamp| u64::from_le_bytes(stamp.try_into().unwrap()) != seq)
            {
                torn_reads.push(seq);
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    for i in 0..BLOCKS {
                        let seq = round * BLOCKS as u64 + i as u64 + 1;
                        let block = seq.to_le_bytes().repeat(BLOCK / 8);
                        dev.write(
                            (i * BLOCK) as u64,
                            &block,
                            PersistMode::NonTemporal,
                            TimeCategory::UserData,
                        );
                        published.store(seq, Ordering::Release);
                    }
                    round_done.wait();
                }
            });
            let mut buf = vec![0u8; BLOCK];
            for round in 0..ROUNDS {
                let last = (round + 1) * BLOCKS as u64;
                let mut seen = round * BLOCKS as u64;
                while seen < last {
                    let seq = published.load(Ordering::Acquire);
                    if seq == seen {
                        std::hint::spin_loop();
                        continue;
                    }
                    seen = seq;
                    let at = ((seq - 1) as usize % BLOCKS * BLOCK) as u64;
                    dev.read(at, &mut buf, AccessPattern::Random, TimeCategory::UserData);
                    check(seq, &buf);
                    let view = dev
                        .try_read_view(at, BLOCK, AccessPattern::Random, TimeCategory::UserData)
                        .expect("a block lies inside one shard");
                    check(seq, &view);
                }
                round_done.wait();
            }
        });
        assert!(
            torn_reads.is_empty(),
            "blocks read without their stamp: {torn_reads:?}"
        );
    }

    #[test]
    fn out_of_range_access_panics() {
        let dev = small_device();
        let size = dev.size() as u64;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.write_uncharged(size - 10, &[0u8; 20]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn temporal_store_is_lost_on_crash_without_flush() {
        let dev = small_device();
        dev.write(0, &[7u8; 64], PersistMode::Temporal, TimeCategory::UserData);
        dev.crash();
        let mut out = [0xFFu8; 64];
        dev.read_uncharged(0, &mut out);
        assert_eq!(out, [0u8; 64], "unflushed temporal store must not survive");
    }

    #[test]
    fn temporal_store_survives_after_flush_and_fence() {
        let dev = small_device();
        dev.write(
            128,
            &[9u8; 64],
            PersistMode::Temporal,
            TimeCategory::UserData,
        );
        dev.flush(128, 64, TimeCategory::UserData);
        dev.fence(TimeCategory::UserData);
        dev.crash();
        let mut out = [0u8; 64];
        dev.read_uncharged(128, &mut out);
        assert_eq!(out, [9u8; 64]);
    }

    #[test]
    fn nt_store_survives_after_fence_only() {
        let dev = small_device();
        dev.write(
            256,
            &[5u8; 64],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        dev.fence(TimeCategory::UserData);
        dev.crash();
        let mut out = [0u8; 64];
        dev.read_uncharged(256, &mut out);
        assert_eq!(out, [5u8; 64]);
    }

    #[test]
    fn nt_store_without_fence_is_lost() {
        let dev = small_device();
        dev.write(
            320,
            &[4u8; 64],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        dev.crash();
        let mut out = [9u8; 64];
        dev.read_uncharged(320, &mut out);
        assert_eq!(out, [0u8; 64]);
    }

    #[test]
    fn keep_all_crash_policy_preserves_unflushed_data() {
        let dev = PmemBuilder::new(SHARD_SIZE)
            .crash_policy(CrashPolicy::KeepAll)
            .build();
        dev.write(
            64,
            &[3u8; 64],
            PersistMode::Temporal,
            TimeCategory::UserData,
        );
        dev.crash();
        let mut out = [0u8; 64];
        dev.read_uncharged(64, &mut out);
        assert_eq!(out, [3u8; 64]);
    }

    #[test]
    fn write_charges_calibrated_cost() {
        let dev = small_device();
        let before = dev.clock().now_ns_f64();
        dev.write(
            0,
            &[0u8; 4096],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        let elapsed = dev.clock().now_ns_f64() - before;
        assert!(
            (elapsed - 671.0).abs() < 10.0,
            "4 KiB write cost was {elapsed}"
        );
    }

    #[test]
    fn stats_classify_traffic_by_category() {
        let dev = small_device();
        dev.write(
            0,
            &[0u8; 4096],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        dev.write(
            8192,
            &[0u8; 64],
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        let snap = dev.stats().snapshot();
        assert_eq!(snap.written(TimeCategory::UserData), 4096);
        assert_eq!(snap.written(TimeCategory::Journal), 64);
        assert!(snap.software_overhead_ns() > 0.0);
    }

    #[test]
    fn unpersisted_lines_tracks_outstanding_writes() {
        let dev = small_device();
        assert_eq!(dev.unpersisted_lines(), 0);
        dev.write(
            0,
            &[1u8; 256],
            PersistMode::Temporal,
            TimeCategory::UserData,
        );
        assert_eq!(dev.unpersisted_lines(), 4);
        dev.flush(0, 256, TimeCategory::UserData);
        assert_eq!(dev.unpersisted_lines(), 4); // pending, not yet fenced
        dev.fence(TimeCategory::UserData);
        assert_eq!(dev.unpersisted_lines(), 0);
    }

    #[test]
    fn read_view_borrows_without_copy_and_counts_zero_copy_bytes() {
        let dev = small_device();
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        dev.write_uncharged(2048, &data);
        let before = dev.stats().snapshot();
        let view = dev
            .try_read_view(2048, 300, AccessPattern::Sequential, TimeCategory::UserData)
            .expect("in-shard range");
        assert_eq!(&*view, &data[..]);
        drop(view);
        let delta = dev.stats().snapshot().delta(&before);
        assert_eq!(delta.zero_copy_read_bytes, 300);
        assert_eq!(delta.bytes_read[0], 300); // UserData index
    }

    #[test]
    fn read_view_refuses_shard_straddling_and_empty_ranges() {
        let dev = small_device();
        assert!(dev
            .try_read_view(
                SHARD_SIZE as u64 - 10,
                20,
                AccessPattern::Sequential,
                TimeCategory::UserData
            )
            .is_none());
        assert!(dev
            .try_read_view(0, 0, AccessPattern::Sequential, TimeCategory::UserData)
            .is_none());
    }

    #[test]
    fn zero_clears_the_range() {
        let dev = small_device();
        dev.write_uncharged(500, &[0xEEu8; 1000]);
        dev.zero(500, 1000, PersistMode::NonTemporal, TimeCategory::Metadata);
        let mut out = vec![0xAAu8; 1000];
        dev.read_uncharged(500, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "track_persistence")]
    fn crash_without_tracking_panics() {
        let dev = PmemBuilder::new(SHARD_SIZE)
            .track_persistence(false)
            .build();
        dev.crash();
    }

    #[test]
    fn fence_hook_sees_each_ordinal_before_pending_lines_drain() {
        let dev = small_device();
        dev.write(
            0,
            &[1u8; 64],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        let seen: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        dev.set_fence_hook(Some(Arc::new(move |d: &PmemDevice, ordinal| {
            seen2.lock().push((ordinal, d.unpersisted_lines()));
        })));
        dev.fence(TimeCategory::UserData);
        dev.fence(TimeCategory::UserData);
        dev.set_fence_hook(None);
        dev.fence(TimeCategory::UserData);
        let seen = seen.lock();
        // Ordinal 0 ran with the NT line still unpersisted (hook precedes
        // the drain); ordinal 1 saw nothing outstanding; ordinal 2 was
        // after the hook was removed.
        assert_eq!(&*seen, &[(0, 1), (1, 0)]);
        assert_eq!(dev.fence_ordinal(), 3);
    }

    #[test]
    fn captured_image_restores_into_a_fresh_device() {
        let dev = small_device();
        dev.write(
            4096,
            &[0xC3u8; 128],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        );
        dev.fence(TimeCategory::UserData);
        // Unfenced write after the durable one: must not appear in the image.
        dev.write(
            8192,
            &[0x77u8; 64],
            PersistMode::Temporal,
            TimeCategory::UserData,
        );
        let image = dev.capture_crash_image();
        // The live device is unperturbed by the capture.
        let mut live = [0u8; 64];
        dev.read_uncharged(8192, &mut live);
        assert_eq!(live, [0x77u8; 64]);

        let fresh = PmemBuilder::new(dev.size()).build();
        fresh.restore_crash_image(&image);
        let mut out = [0u8; 128];
        fresh.read_uncharged(4096, &mut out);
        assert_eq!(out, [0xC3u8; 128]);
        // The unfenced temporal store must not have made it into the image.
        let mut lost = [0xFFu8; 64];
        fresh.read_uncharged(8192, &mut lost);
        assert_eq!(lost, [0u8; 64]);
        assert_eq!(image.fence_ordinal(), 1);
    }

    #[test]
    fn torn_writes_preserve_prefix_or_suffix_per_line() {
        let seed = 0xDEAD_BEEF;
        let dev = PmemBuilder::new(SHARD_SIZE)
            .crash_policy(CrashPolicy::TornWrites { seed })
            .build();
        let old = [0x11u8; 256];
        dev.write(0, &old, PersistMode::NonTemporal, TimeCategory::UserData);
        dev.fence(TimeCategory::UserData);
        let new = [0x99u8; 256];
        dev.write(0, &new, PersistMode::Temporal, TimeCategory::UserData);
        let image = dev.capture_crash_image();
        assert_eq!(image.torn_lines(), 4);
        dev.restore_crash_image(&image);
        let mut out = [0u8; 256];
        dev.read_uncharged(0, &mut out);
        for line in 0..4u64 {
            let lo = line as usize * CACHE_LINE;
            let got = &out[lo..lo + CACHE_LINE];
            let expect =
                crate::crash::tear_line(seed, line, &old[..CACHE_LINE], &new[..CACHE_LINE]);
            assert_eq!(got, &expect[..], "line {line}");
        }
    }

    #[test]
    fn poisoned_ranges_fail_checked_reads_until_cleared() {
        let dev = small_device();
        dev.write_uncharged(10_000, &[5u8; 512]);
        let mut buf = [0u8; 64];
        assert!(dev
            .try_read(
                10_000,
                &mut buf,
                AccessPattern::Sequential,
                TimeCategory::UserData
            )
            .is_ok());
        dev.poison_range(10_100, 50);
        let err = dev
            .try_read(
                10_000,
                &mut [0u8; 512],
                AccessPattern::Sequential,
                TimeCategory::UserData,
            )
            .unwrap_err();
        assert_eq!(err.offset, 10_100);
        assert!(err.to_string().contains("media read error"));
        // Non-overlapping reads still succeed, and the zero-copy path
        // refuses the poisoned range so callers hit the checked fallback.
        assert!(dev
            .try_read(
                20_000,
                &mut buf,
                AccessPattern::Sequential,
                TimeCategory::UserData
            )
            .is_ok());
        assert!(dev
            .try_read_view(
                10_050,
                200,
                AccessPattern::Sequential,
                TimeCategory::UserData
            )
            .is_none());
        dev.clear_poison();
        assert!(dev
            .try_read(
                10_000,
                &mut [0u8; 512],
                AccessPattern::Sequential,
                TimeCategory::UserData
            )
            .is_ok());
    }

    #[test]
    fn capture_snapshots_ledger_length_before_bytes() {
        let dev = small_device();
        dev.ledger().set_enabled(true);
        dev.declare(Promise::EpochDurable { epoch: 1 });
        let image = dev.capture_crash_image();
        dev.declare(Promise::EpochDurable { epoch: 2 });
        assert_eq!(image.ledger_len(), 1);
        assert_eq!(dev.ledger().records_up_to(image.ledger_len()).len(), 1);
    }

    #[test]
    fn temporal_store_on_a_pending_line_counts_once() {
        let dev = small_device();
        dev.write(0, &[1u8; 64], PersistMode::Temporal, TimeCategory::UserData);
        dev.flush(0, 64, TimeCategory::UserData);
        // Flushed but unfenced: pending.  The second store makes the line
        // dirty as well; it is still one unpersisted line.
        dev.write(0, &[2u8; 8], PersistMode::Temporal, TimeCategory::UserData);
        assert_eq!(dev.unpersisted_lines(), 1);
        // The fence persists the line as it reads now and leaves it dirty.
        dev.fence(TimeCategory::UserData);
        assert_eq!(dev.unpersisted_lines(), 1);
        dev.crash();
        let mut out = [0u8; 64];
        dev.read_uncharged(0, &mut out);
        assert_eq!(out[..8], [2u8; 8]);
        assert_eq!(out[8..], [1u8; 56]);
        assert_eq!(dev.unpersisted_lines(), 0);
    }

    /// A line stored temporally while pending is persisted as it reads at
    /// the fence and stays dirty: from then on a crash puts back, or tears
    /// against, those fence-time bytes, in place and in a captured image.
    #[test]
    fn a_line_stored_while_pending_keeps_its_fence_time_bytes() {
        const CAT: TimeCategory = TimeCategory::UserData;
        const SEED: u64 = 0x7EA2;
        // A line of shard 1 whose tear keeps bytes of both sides.
        let line = (SHARD_LINES as u64..)
            .find(|&l| (8..56).contains(&crate::crash::torn_cut(SEED, l).0))
            .unwrap();
        let at = line * CACHE_LINE as u64;
        let read_line = |dev: &PmemDevice| {
            let mut out = [0u8; CACHE_LINE];
            dev.read_uncharged(at, &mut out);
            out
        };
        for policy in [
            CrashPolicy::LoseUnflushed,
            CrashPolicy::TornWrites { seed: SEED },
        ] {
            let dev = PmemBuilder::new(2 * SHARD_SIZE)
                .crash_policy(policy)
                .build();
            dev.write(at, &[1; 64], PersistMode::NonTemporal, CAT);
            dev.fence(CAT);
            dev.write(at, &[2; 64], PersistMode::NonTemporal, CAT);
            dev.write(at + 8, &[3; 8], PersistMode::Temporal, CAT);
            let at_fence = read_line(&dev);
            dev.fence(CAT);
            assert_eq!(
                dev.unpersisted_lines(),
                1,
                "{policy:?}: the line stays dirty"
            );
            dev.write(at, &[4; 64], PersistMode::Temporal, CAT);
            let expect = match policy {
                CrashPolicy::TornWrites { seed } => tear_line(seed, line, &at_fence, &[4; 64]),
                _ => at_fence.to_vec(),
            };
            let fresh = PmemBuilder::new(dev.size()).build();
            fresh.restore_crash_image(&dev.capture_crash_image());
            assert_eq!(read_line(&fresh).to_vec(), expect, "{policy:?}: captured");
            dev.crash();
            assert_eq!(read_line(&dev).to_vec(), expect, "{policy:?}: in place");
        }
    }

    /// Lines saved in shard `idx`'s undo store.
    fn saved_lines(dev: &PmemDevice, idx: usize) -> usize {
        let shard = dev.shards[idx].read();
        shard
            .persist
            .as_ref()
            .expect("tracked shard")
            .undo
            .lines
            .len()
    }

    /// A fence that leaves its shard no dirty line empties the shard's undo
    /// store; one that leaves some keeps their entries and no others.
    #[test]
    fn a_fence_that_leaves_no_dirty_line_empties_the_undo_store() {
        const CAT: TimeCategory = TimeCategory::UserData;
        let dev = small_device();
        dev.write(0, &[1; 256], PersistMode::Temporal, CAT);
        dev.write(4096, &[2; 64], PersistMode::NonTemporal, CAT);
        dev.write(SHARD_SIZE as u64, &[3; 128], PersistMode::Temporal, CAT);
        assert_eq!((saved_lines(&dev, 0), saved_lines(&dev, 1)), (5, 2));
        dev.flush(0, 256, CAT);
        dev.fence(CAT);
        // Shard 1 had nothing pending: the fence did not visit it.
        assert_eq!((saved_lines(&dev, 0), saved_lines(&dev, 1)), (0, 2));
        dev.write(0, &[4; 128], PersistMode::Temporal, CAT);
        dev.flush(0, 64, CAT);
        dev.fence(CAT);
        assert_eq!(saved_lines(&dev, 0), 1, "line 1 is still dirty");
        dev.flush(64, 64, CAT);
        dev.fence(CAT);
        assert_eq!(saved_lines(&dev, 0), 0);
        assert_eq!(dev.unpersisted_lines(), 2, "shard 1's lines");
    }

    /// The tracker holds memory for the lines not yet durable, not for
    /// what was ever written: after 128 MiB of stores and one fence, each
    /// shard's undo store keeps at most 64 KiB of capacity.
    #[test]
    fn tracker_memory_follows_unpersisted_lines() {
        let dev = PmemBuilder::new(256 << 20).build();
        let undo_capacity = |dev: &PmemDevice| -> usize {
            let shards = dev.shards.iter().map(|shard| {
                let shard = shard.read();
                shard
                    .persist
                    .as_ref()
                    .expect("tracked shard")
                    .undo
                    .bytes
                    .capacity()
            });
            shards.sum::<usize>() * CACHE_LINE
        };
        let mib = vec![0xA5u8; 1 << 20];
        for at in 0..128u64 {
            dev.write_uncharged(at << 20, &mib);
        }
        assert!(
            undo_capacity(&dev) >= 128 << 20,
            "every stored line is saved"
        );
        dev.fence(TimeCategory::UserData);
        let held = undo_capacity(&dev);
        assert!(
            held <= (64 << 10) * dev.shards.len(),
            "{held} B of undo capacity over {} shards after the fence",
            dev.shards.len()
        );
        assert_eq!(dev.unpersisted_lines(), 0);
    }

    #[test]
    fn line_bitmaps_take_the_flagged_words_and_split_across_words() {
        let mut marks = Marks::EMPTY;
        let lines = [0, 1, 5, 62, 63, 64, 65, 130, 4095, 4096, 16_383];
        for line in lines.into_iter().chain(192..256) {
            marks.set(line / 64, 1 << (line % 64));
        }
        assert!(!marks.is_empty());
        let mut taken = [0; SHARD_LINES / 64];
        for (w, bits) in marks.take() {
            taken[w] = bits;
        }
        assert_eq!(
            set_bits(taken).collect::<Vec<_>>(),
            lines[..8]
                .iter()
                .copied()
                .chain(192..256)
                .chain(lines[8..].iter().copied())
                .collect::<Vec<_>>()
        );
        assert_eq!(marks.words, [0; SHARD_LINES / 64], "take zeroes every word");
        assert_eq!(marks.flagged, [0; 4]);
        assert!(marks.is_empty());
        assert_eq!(
            set_bits([1 << 63, 0, 0b101]).collect::<Vec<_>>(),
            [63, 128, 130]
        );
        assert_eq!(
            word_masks(62..130).collect::<Vec<_>>(),
            [(0, 0b11 << 62), (1, u64::MAX), (2, 0b11)]
        );
    }

    /// A fence visits the bitmap words that hold pending lines, and a
    /// crash the words that hold dirty or pending ones: never the rest of
    /// a shard's 256, nor a shard with nothing marked.
    #[test]
    fn drains_and_crashes_visit_only_the_marked_words() {
        const CAT: TimeCategory = TimeCategory::UserData;
        const WORD: u64 = 64 * CACHE_LINE as u64; // bytes one bitmap word covers
        let dev = small_device();
        let store = |offset: u64, len: usize, mode| dev.write(offset, &vec![0x5A; len], mode, CAT);
        store(0, 64, PersistMode::NonTemporal);
        assert_eq!(dev.drain_pending(), 1);
        assert_eq!(dev.drain_pending(), 0, "the fence left nothing flagged");
        for k in [2, 7, 64, 300] {
            // Every third word; for k = 300, across all four shards.
            for i in 0..k {
                store(3 * i * WORD + 128, 64, PersistMode::NonTemporal);
            }
            assert_eq!(dev.drain_pending(), k as usize, "{k} words");
        }
        // Lines 4095 and 4096: the last word a summary word covers and the
        // first of the next.  A temporal store reaches the fence by flush.
        let straddle = 4096 * CACHE_LINE as u64 - 64;
        store(straddle, 128, PersistMode::NonTemporal);
        assert_eq!(dev.drain_pending(), 2);
        store(
            straddle - 2 * WORD,
            3 * WORD as usize,
            PersistMode::Temporal,
        );
        dev.flush(straddle - 2 * WORD, 3 * WORD as usize, CAT);
        assert_eq!(dev.drain_pending(), 4, "words 61 to 64");
        assert_eq!(dev.unpersisted_lines(), 0);

        // The repair `crash()` makes, shard by shard: the bitmap words each
        // shard visits.
        let crash_visits = |dev: &PmemDevice| -> Vec<usize> {
            let lines = (0..).step_by(SHARD_LINES);
            let shards = dev.shards.iter().zip(lines).map(|(shard, first_line)| {
                let shard = &mut *shard.write();
                let persist = shard.persist.as_mut().expect("tracked shard");
                persist
                    .crash(&mut shard.data, dev.crash_policy, first_line)
                    .1
            });
            shards.collect()
        };
        let visited = |visits: Vec<usize>| {
            let shards = visits.iter().filter(|&&words| words > 0).count();
            (visits.iter().sum::<usize>(), shards)
        };
        let big = PmemBuilder::new(256 << 20).build();
        big.write((100 << 20) + 64, &[1; 8], PersistMode::Temporal, CAT);
        assert_eq!(visited(crash_visits(&big)), (1, 1), "one word in one shard");
        assert_eq!(visited(crash_visits(&big)), (0, 0));
        // A dirty line made pending leaves a zero dirty word flagged; the
        // crash still counts the line's word once.
        big.write(64, &[1; 8], PersistMode::Temporal, CAT);
        big.write(64, &[2; 8], PersistMode::NonTemporal, CAT);
        assert_eq!(visited(crash_visits(&big)), (1, 1));
        big.crash();
        assert_eq!(big.unpersisted_lines(), 0);
    }

    /// Panics unless every word of every shard's bitmaps whose summary bit
    /// is clear is zero, and every shard's undo store holds exactly one
    /// entry per marked line and none for any other (the crash checks of
    /// the reference model test that each holds its line's durable bytes).
    fn assert_summaries_hold(dev: &PmemDevice, at: &str) {
        for (idx, shard) in dev.shards.iter().enumerate() {
            let shard = shard.read();
            let persist = shard.persist.as_ref().expect("tracked shard");
            for (name, marks) in [("dirty", &persist.dirty), ("pending", &persist.pending)] {
                for (w, &word) in marks.words.iter().enumerate() {
                    assert!(
                        word == 0 || marks.flagged[w / 64] & 1 << (w % 64) != 0,
                        "{at}: shard {idx} {name} word {w} is {word:#x} but unflagged"
                    );
                }
            }
            let mut saved = [0u64; SHARD_LINES / 64];
            for &line in &persist.undo.lines {
                let (w, bit) = (usize::from(line) / 64, 1 << (line % 64));
                assert!(
                    saved[w] & bit == 0,
                    "{at}: shard {idx} saves line {line} twice"
                );
                saved[w] |= bit;
            }
            for (w, (d, p)) in persist
                .dirty
                .words
                .iter()
                .zip(persist.pending.words)
                .enumerate()
            {
                assert_eq!(
                    saved[w],
                    d | p,
                    "{at}: shard {idx} word {w}: saved vs marked"
                );
            }
            assert_eq!(persist.undo.bytes.len(), persist.undo.lines.len(), "{at}");
        }
    }

    /// The seeded op stream of the reference-model test below, on the
    /// tracked device alone, with the summary invariant checked after every
    /// op, capture, restore and crash.
    #[test]
    fn word_summaries_hold_under_the_reference_model_stream() {
        const CAT: TimeCategory = TimeCategory::UserData;
        let policies = [
            CrashPolicy::LoseUnflushed,
            CrashPolicy::KeepAll,
            CrashPolicy::TornWrites { seed: 0x7EA2 },
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            let dev = PmemBuilder::new(4 * SHARD_SIZE)
                .crash_policy(policy)
                .build();
            let size = dev.size();
            let mut rng = Rng(0x5EED_0000 + p as u64);
            for round in 0..4 {
                for op in 0..600 {
                    let (offset, len) = rng.range(size);
                    let mode = if rng.below(2) == 0 {
                        PersistMode::Temporal
                    } else {
                        PersistMode::NonTemporal
                    };
                    match rng.below(20) {
                        0..=10 => {
                            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                            dev.write(offset, &bytes, mode, CAT);
                        }
                        11 => dev.write_uncharged(offset, &vec![rng.next() as u8; len]),
                        12 => dev.zero(offset, len, mode, CAT),
                        13..=16 => dev.flush(offset, len, CAT),
                        _ => dev.fence(CAT),
                    }
                    assert_summaries_hold(&dev, &format!("{policy:?}, round {round}, op {op}"));
                }
                let at = format!("{policy:?}, round {round}");
                let image = dev.capture_crash_image();
                assert_summaries_hold(&dev, &format!("{at}, capture"));
                // Restored over marks of its own, which the restore clears.
                let fresh = PmemBuilder::new(size).build();
                fresh.write(
                    SHARD_SIZE as u64 - 64,
                    &[7; 128],
                    PersistMode::Temporal,
                    CAT,
                );
                fresh.restore_crash_image(&image);
                assert_summaries_hold(&fresh, &format!("{at}, restore"));
                assert_eq!(fresh.unpersisted_lines(), 0, "{at}, restore");
                dev.crash();
                assert_summaries_hold(&dev, &format!("{at}, crash"));
                assert_eq!(dev.unpersisted_lines(), 0, "{at}, crash");
            }
        }
    }

    /// The tracker the per-shard bitmaps replaced — two device-wide sets
    /// of line indices beside a volatile and a durable byte array — kept
    /// as the reference model (with the union count the bitmaps report).
    struct Oracle {
        data: Vec<u8>,
        shadow: Vec<u8>,
        dirty: HashSet<u64>,
        pending: HashSet<u64>,
    }

    impl Oracle {
        fn lines(offset: u64, len: usize) -> std::ops::RangeInclusive<u64> {
            offset / CACHE_LINE as u64..=(offset + len as u64 - 1) / CACHE_LINE as u64
        }

        fn write(&mut self, offset: u64, bytes: &[u8], mode: PersistMode) {
            self.data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
            for line in Self::lines(offset, bytes.len()) {
                match mode {
                    PersistMode::Temporal => {
                        self.dirty.insert(line);
                    }
                    PersistMode::NonTemporal => {
                        self.dirty.remove(&line);
                        self.pending.insert(line);
                    }
                }
            }
        }

        fn flush(&mut self, offset: u64, len: usize) {
            for line in Self::lines(offset, len) {
                if self.dirty.remove(&line) {
                    self.pending.insert(line);
                }
            }
        }

        fn fence(&mut self) {
            for line in self.pending.drain() {
                let bytes = line as usize * CACHE_LINE..(line as usize + 1) * CACHE_LINE;
                self.shadow[bytes.clone()].copy_from_slice(&self.data[bytes]);
            }
        }

        fn unpersisted(&self) -> usize {
            self.dirty.union(&self.pending).count()
        }

        /// Post-crash bytes become both views; returns the lines torn.
        fn crash(&mut self, policy: CrashPolicy) -> u64 {
            let mut image = match policy {
                CrashPolicy::KeepAll => self.data.clone(),
                _ => self.shadow.clone(),
            };
            let mut torn = 0;
            if let CrashPolicy::TornWrites { seed } = policy {
                for &line in self.dirty.union(&self.pending) {
                    let bytes = line as usize * CACHE_LINE..(line as usize + 1) * CACHE_LINE;
                    let survivor = tear_line(
                        seed,
                        line,
                        &self.shadow[bytes.clone()],
                        &self.data[bytes.clone()],
                    );
                    image[bytes].copy_from_slice(&survivor);
                    torn += 1;
                }
            }
            self.data.clone_from(&image);
            self.shadow = image;
            self.dirty.clear();
            self.pending.clear();
            torn
        }
    }

    /// splitmix64: the seeded op stream of the reference-model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A length of 1 B–200 KiB, mostly small, and an offset that is
        /// line-unaligned and, one time in four, straddles a shard boundary.
        fn range(&mut self, size: usize) -> (u64, usize) {
            let len = 1 + match self.below(20) {
                0..=11 => self.below(256),
                12..=16 => self.below(8 << 10),
                _ => self.below(200 << 10),
            };
            let offset = if self.below(4) == 0 {
                (1 + self.below(size / SHARD_SIZE - 1)) * SHARD_SIZE - 1 - self.below(len)
            } else {
                self.below(size - len)
            };
            (offset as u64, len)
        }
    }

    fn contents(dev: &PmemDevice) -> Vec<u8> {
        let mut out = vec![0u8; dev.size()];
        dev.read_uncharged(0, &mut out);
        out
    }

    #[test]
    fn device_matches_the_two_set_reference_model_under_every_crash_policy() {
        const CAT: TimeCategory = TimeCategory::UserData;
        const ROUNDS: usize = 4;
        const OPS_PER_ROUND: usize = 600;
        let policies = [
            CrashPolicy::LoseUnflushed,
            CrashPolicy::KeepAll,
            CrashPolicy::TornWrites { seed: 0x7EA2 },
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            let dev = PmemBuilder::new(4 * SHARD_SIZE)
                .crash_policy(policy)
                .build();
            // Takes every op too; its non-temporal stores of 4 KiB and more
            // stream.  It cannot crash, so it restores each round's image.
            let twin = PmemBuilder::new(4 * SHARD_SIZE)
                .track_persistence(false)
                .build();
            let size = dev.size();
            let mut oracle = Oracle {
                data: vec![0; size],
                shadow: vec![0; size],
                dirty: HashSet::new(),
                pending: HashSet::new(),
            };
            let mut rng = Rng(0x5EED_0000 + p as u64);
            for round in 0..ROUNDS {
                for _ in 0..OPS_PER_ROUND {
                    let (offset, len) = rng.range(size);
                    let mode = if rng.below(2) == 0 {
                        PersistMode::Temporal
                    } else {
                        PersistMode::NonTemporal
                    };
                    match rng.below(20) {
                        0..=10 => {
                            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                            for d in [&dev, &twin] {
                                d.write(offset, &bytes, mode, CAT);
                            }
                            oracle.write(offset, &bytes, mode);
                        }
                        11 => {
                            let bytes = vec![rng.next() as u8; len];
                            for d in [&dev, &twin] {
                                d.write_uncharged(offset, &bytes);
                            }
                            oracle.write(offset, &bytes, PersistMode::NonTemporal);
                        }
                        12 => {
                            for d in [&dev, &twin] {
                                d.zero(offset, len, mode, CAT);
                            }
                            oracle.write(offset, &vec![0; len], mode);
                        }
                        13..=16 => {
                            for d in [&dev, &twin] {
                                d.flush(offset, len, CAT);
                            }
                            oracle.flush(offset, len);
                        }
                        _ => {
                            for d in [&dev, &twin] {
                                d.fence(CAT);
                            }
                            oracle.fence();
                            assert_eq!(dev.unpersisted_lines(), oracle.unpersisted());
                        }
                    }
                }
                let at = format!("{policy:?}, round {round}");
                assert!(contents(&dev) == oracle.data, "volatile view: {at}");
                assert!(contents(&twin) == oracle.data, "untracked twin: {at}");
                assert_eq!(dev.unpersisted_lines(), oracle.unpersisted(), "{at}");

                let torn_before = dev.stats().snapshot().torn_lines;
                let image = dev.capture_crash_image();
                let fresh = PmemBuilder::new(size).build();
                fresh.restore_crash_image(&image);
                dev.crash();
                let torn = oracle.crash(policy);
                twin.restore_crash_image(&image);
                assert!(contents(&fresh) == oracle.data, "capture + restore: {at}");
                assert!(contents(&dev) == oracle.data, "crash in place: {at}");
                assert_eq!(image.torn_lines(), torn, "{at}");
                assert_eq!(
                    dev.stats().snapshot().torn_lines - torn_before,
                    2 * torn,
                    "{at}"
                );
                // The crash left shadow == data and nothing marked: a second
                // crash changes nothing, and the next round starts clean.
                assert_eq!(dev.unpersisted_lines(), 0, "{at}");
                dev.crash();
                assert!(contents(&dev) == oracle.data, "second crash: {at}");
            }
        }
    }

    #[test]
    fn capture_is_a_point_in_time_cut_under_concurrent_fenced_writers() {
        const WRITERS: usize = 4;
        const CAPTURES: usize = 200;
        const BURST: u64 = 32; // stores a writer may make per capture
        const SLOT: usize = 4 * CACHE_LINE;
        // Two slots share shard 0, one lies in shard 1, one straddles the
        // boundary between shards 2 and 3.
        let slots: [usize; WRITERS] = [
            0,
            SLOT,
            SHARD_SIZE + 7 * SLOT,
            3 * SHARD_SIZE - 2 * CACHE_LINE,
        ];
        let dev = small_device();
        dev.ledger().set_enabled(true);
        let budget = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        // (ledger cut, the counter each line of each slot holds in the image)
        let mut cuts: Vec<(usize, Vec<Vec<u64>>)> = Vec::with_capacity(CAPTURES);

        std::thread::scope(|scope| {
            for (w, &slot) in slots.iter().enumerate() {
                let (dev, budget, stop) = (&dev, &budget, &stop);
                scope.spawn(move || {
                    let mut counter = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        if counter >= budget.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                            continue;
                        }
                        counter += 1;
                        // The ledger doubles as the test's clock: "about to
                        // store `counter`" before the store, "`counter` is
                        // durable" after its fence.
                        dev.declare(Promise::OplogCommitted {
                            instance: w as u32,
                            seq: counter,
                        });
                        let bytes = counter.to_le_bytes().repeat(SLOT / 8);
                        dev.write(
                            slot as u64,
                            &bytes,
                            PersistMode::NonTemporal,
                            TimeCategory::UserData,
                        );
                        dev.fence(TimeCategory::UserData);
                        dev.declare(Promise::EpochDurable {
                            epoch: (w as u64) << 32 | counter,
                        });
                    }
                });
            }
            for _ in 0..CAPTURES {
                budget.fetch_add(BURST, Ordering::SeqCst);
                let image = dev.capture_crash_image();
                let held = slots
                    .iter()
                    .map(|&slot| {
                        (slot..slot + SLOT)
                            .step_by(CACHE_LINE)
                            .map(|at| {
                                let line = &image.shards[at / SHARD_SIZE][at % SHARD_SIZE..][..8];
                                u64::from_le_bytes(line.try_into().unwrap())
                            })
                            .collect()
                    })
                    .collect();
                cuts.push((image.ledger_len(), held));
            }
            stop.store(true, Ordering::SeqCst);
        });

        let records = dev.ledger().records();
        let mut begun = [0u64; WRITERS];
        let mut durable = [0u64; WRITERS];
        let mut seen = 0;
        for (ledger_len, held) in cuts {
            for record in &records[seen..ledger_len] {
                match record.promise {
                    Promise::OplogCommitted { instance, seq } => begun[instance as usize] = seq,
                    Promise::EpochDurable { epoch } => {
                        durable[(epoch >> 32) as usize] = epoch & 0xFFFF_FFFF
                    }
                    _ => unreachable!(),
                }
            }
            seen = ledger_len;
            for w in 0..WRITERS {
                for &value in &held[w] {
                    assert!(
                        durable[w] <= value && value <= begun[w],
                        "writer {w} at ledger cut {ledger_len}: the image holds {value}, \
                         {} was promised durable and {} had been begun",
                        durable[w],
                        begun[w]
                    );
                }
            }
        }
        assert!(
            durable.iter().all(|&c| c > 0),
            "every writer ran: {durable:?}"
        );
    }

    /// Host-time guard, run by CI in a release build.  On the `HashSet`
    /// tracker a fence walked the capacity its `pending` set had ever
    /// reached, so the first ratio was in the hundreds.  A fence that
    /// walks and zeroes its shard's whole 2 KiB pending bitmap made the
    /// second 2.8 to 5.2 (2-core x86_64 host); one that visits only the
    /// flagged words read 1.1 to 1.5 while it copied each pending line
    /// into a shadow image, and reads 1.5 to 1.65 with the undo store,
    /// where the store saves the 64 B it replaces and the fence drops the
    /// entry.
    #[test]
    #[ignore = "host-time measurement; CI runs it in a release build"]
    fn fence_cost_does_not_depend_on_bytes_ever_written() {
        fn median_store_and_fence_ns(dev: &PmemDevice) -> u128 {
            let mut samples: Vec<u128> = (0..1000u64)
                .map(|i| {
                    let t0 = std::time::Instant::now();
                    dev.write(
                        i % 64 * 4096, // first-touch page faults stay below the median
                        &[i as u8; 64],
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    dev.fence(TimeCategory::UserData);
                    t0.elapsed().as_nanos()
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2]
        }
        let fresh = median_store_and_fence_ns(&PmemBuilder::new(256 << 20).build());
        let used = PmemBuilder::new(256 << 20).build();
        let mib = vec![0xA5u8; 1 << 20];
        for at in 0..128u64 {
            used.write_uncharged(at << 20, &mib);
        }
        used.fence(TimeCategory::UserData);
        let used = median_store_and_fence_ns(&used);
        assert!(
            used <= 10 * fresh.max(1),
            "a 64 B store + fence costs {used} ns after 128 MiB were written, {fresh} ns on a fresh device"
        );
        let untracked = PmemBuilder::new(256 << 20).track_persistence(false).build();
        let untracked = median_store_and_fence_ns(&untracked);
        assert!(
            2 * fresh <= 5 * untracked.max(1),
            "a 64 B store + fence costs {fresh} ns on a tracked device, {untracked} ns on an untracked one"
        );
    }
}
