//! The ext4-DAX-like kernel file system (`Ext4Dax`).
//!
//! This is the K-Split half of the SplitFS architecture and, used on its
//! own, the "ext4 DAX" baseline of the paper's evaluation.  Every public
//! operation models a system call: it charges a kernel trap and VFS path
//! cost before doing the real work against the journal, allocator, inode
//! table and directory structures, so the software overhead the paper
//! measures for kernel file systems emerges naturally from the same code
//! paths that maintain correctness.
//!
//! Two non-POSIX entry points exist solely for SplitFS:
//!
//! * [`Ext4Dax::dax_map`] — the `mmap(MAP_POPULATE)` equivalent, returning
//!   the physical device ranges backing a file range so U-Split can serve
//!   reads/overwrites with loads and stores.
//! * [`Ext4Dax::ioctl_relink_batch`] — the patched `EXT4_IOC_MOVE_EXT`
//!   ioctl: an atomic, journaled, metadata-only move of blocks from one
//!   file to another, which is the primitive behind SplitFS's optimized
//!   appends and atomic data operations.  One call moves many ranges and
//!   copies the partial blocks at the ends of what it moves, all in one
//!   trap and one transaction.
//!
//! # Kernel state and lock ordering
//!
//! K-Split is ext4-DAX serving one application's metadata (paper §3), so
//! each piece of kernel state is one structure behind one lock:
//!
//! * **namespace** — one `RwLock<Namespace>`: every directory's entry map,
//!   the open counts, the orphans, the next inode number and the
//!   directory-move generation;
//! * **inode table** — one `RwLock` over every live inode; the data path
//!   (`appendv`, `writev_at`, `ioctl_relink_batch`) takes only this lock;
//! * **block allocator** — one `Mutex<BlockAllocator>`;
//! * **journal** — one log behind one head lock, under which every
//!   committer draws its transaction id (see `journal.rs`);
//! * **descriptor table** and **path cache** — one map each.
//!
//! Lock order: the namespace before the inode table, never the other way
//! round.  The allocator, journal, descriptor and path-cache locks are
//! leaves: each is taken and released without acquiring another lock.
//!
//! `open`, `unlink`, `rename`, `mkdir` and `rmdir` take the namespace write
//! lock once, resolve their paths under it and then mutate, so nothing
//! they resolved can change before they act.  `stat` and `readdir` resolve
//! under the read lock.
//!
//! Above the namespace sits a **full-path lookup cache**: resolving a deep
//! path is one hash probe instead of a per-component walk.  Entries are
//! pinned to a per-directory generation (bumped by unlink/rename/rmdir)
//! plus the directory-move generation (bumped when a directory is renamed,
//! which invalidates every cached deep path whose prefix could have moved;
//! rmdir needs no bump — a removed directory's state vanishes and inode
//! numbers are never reused within a mount, so descendants fail validation
//! forever).  Creates overwrite their exact cache key instead of bumping
//! the parent generation, so sibling entries stay hot under create-heavy
//! churn, and negative entries record confirmed absences.  Fills happen
//! under the namespace lock, read or write, and invalidations under its
//! write lock, so fills and invalidations serialize through it.
//!
//! Contended acquisitions of the inode table are counted in
//! `pmem::StatsSnapshot::shard_lock_waits`; contended acquisitions of the
//! namespace lock in `ns_shard_lock_waits`; path-cache effectiveness in
//! `path_cache_hits` / `path_cache_misses` (the benchmark's traced run
//! reports `kernelfs.ns_shard_lock_waits` and `kernelfs.path_cache_hit_rate`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory, PAGE_2M};
use vfs::{
    iov_total_len, path as vpath, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult,
    IoVec, OpenFlags, ReadView, SeekFrom,
};

use crate::alloc::{BlockAllocator, BlockRun};
use crate::dax::{DaxMapping, MapSegment};
use crate::dir;
use crate::inode::{changed_lines, Extent, ExtentMap, Inode, InodeKind};
use crate::journal::{Journal, JournalRecord, MAX_RANGE_EXTENTS, SCAN_CHUNK};
use crate::layout::{Superblock, BLOCK_SIZE, DEFAULT_INODE_COUNT, INODE_RECORD_SIZE};
use crate::lease::{LeaseManager, MAX_INSTANCES};

/// Inode number of the root directory.
pub const ROOT_INO: u64 = 1;

#[derive(Debug, Clone)]
struct OpenFile {
    ino: u64,
    offset: u64,
    flags: OpenFlags,
    /// End of the previous read, used to classify the next read as
    /// sequential or random for latency purposes.
    last_read_end: u64,
}

#[derive(Debug, Clone, Copy)]
struct DirSlot {
    ino: u64,
    /// Byte offset of the entry within the directory data.
    entry_offset: u64,
    /// Length of the serialized entry.
    entry_len: usize,
}

/// One directory's in-memory state: its entry map plus the invalidation
/// generation the full-path cache pins entries to.
#[derive(Debug, Default)]
struct DirState {
    entries: BTreeMap<String, DirSlot>,
    /// Bumped on every destructive entry change (unlink, rename, rmdir);
    /// path-cache entries pinned to an older generation fail validation.
    /// Creates do not bump it — they overwrite their exact cache key
    /// instead, so sibling entries stay hot under create-heavy churn.
    gen: u64,
}

/// The directory namespace, behind the file system's one namespace lock.
#[derive(Debug)]
struct Namespace {
    /// Directory inode → its entries and invalidation generation.
    dirs: HashMap<u64, DirState>,
    /// Open-descriptor counts, keyed by file inode.
    open_counts: HashMap<u64, u32>,
    /// Inodes whose last link was removed while still open; freed on the
    /// final close.
    orphans: HashSet<u64>,
    /// The next inode number to hand out: one past the largest in use at
    /// mkfs or mount, so numbers are never reused within a mount.
    next_ino: u64,
    /// See [`PathCacheEntry::move_gen`].
    move_gen: u64,
}

impl Namespace {
    fn new(dirs: HashMap<u64, BTreeMap<String, DirSlot>>, max_ino: u64) -> Self {
        Namespace {
            dirs: dirs
                .into_iter()
                .map(|(ino, entries)| (ino, DirState { entries, gen: 0 }))
                .collect(),
            open_counts: HashMap::new(),
            orphans: HashSet::new(),
            next_ino: max_ino.max(ROOT_INO) + 1,
            move_gen: 0,
        }
    }

    fn dir(&self, ino: u64) -> FsResult<&DirState> {
        self.dirs.get(&ino).ok_or(FsError::NotADirectory)
    }

    fn dir_mut(&mut self, ino: u64) -> FsResult<&mut DirState> {
        self.dirs.get_mut(&ino).ok_or(FsError::NotADirectory)
    }

    /// Takes the next inode number, or [`FsError::NoSpace`] once the inode
    /// table of `inode_count` slots is full.
    fn alloc_ino(&mut self, inode_count: u64) -> FsResult<u64> {
        if self.next_ino >= inode_count {
            return Err(FsError::NoSpace);
        }
        self.next_ino += 1;
        Ok(self.next_ino - 1)
    }
}

/// A validated full-path cache entry.  `ino == None` is a negative
/// entry: the name was confirmed absent from `parent` at fill time.
#[derive(Debug, Clone, Copy)]
struct PathCacheEntry {
    /// Inode of the directory holding (or lacking) the final component.
    parent: u64,
    /// The parent directory's [`DirState::gen`] at fill time.
    parent_gen: u64,
    /// The directory-move generation at fill time.  A directory rename
    /// anywhere bumps it, invalidating every cached deep path whose prefix
    /// chain could have moved.
    move_gen: u64,
    ino: Option<u64>,
}

/// The full-path lookup cache layered above the namespace: deep
/// `resolve()` becomes one hash probe (plus a generation check) instead of
/// a per-component walk.
#[derive(Debug, Default)]
struct PathCache(RwLock<HashMap<String, PathCacheEntry>>);

impl PathCache {
    fn get(&self, path: &str) -> Option<PathCacheEntry> {
        self.0.read().get(path).copied()
    }

    fn insert(&self, path: &str, entry: PathCacheEntry) {
        self.0.write().insert(path.to_string(), entry);
    }

    fn remove(&self, path: &str) {
        self.0.write().remove(path);
    }
}

type InodeTable = HashMap<u64, Inode>;

/// Refuses a final component longer than [`vpath::NAME_MAX`] with
/// [`FsError::InvalidArgument`].  Creates, `mkdir` and rename targets call
/// it before anything changes: a longer name would wrap the directory
/// entry's `u16` length and make the device unmountable.
fn check_new_name(norm: &str) -> FsResult<()> {
    let name = &norm[norm.rfind('/').map_or(0, |i| i + 1)..];
    if name.len() > vpath::NAME_MAX {
        return Err(FsError::InvalidArgument);
    }
    Ok(())
}

/// The live inode `ino` of `table`.
fn inode_ref(table: &InodeTable, ino: u64) -> FsResult<&Inode> {
    table.get(&ino).ok_or(FsError::BadFd)
}

/// The live inode `ino` of `table`, mutably.
fn inode_mut(table: &mut InodeTable, ino: u64) -> FsResult<&mut Inode> {
    table.get_mut(&ino).ok_or(FsError::BadFd)
}

/// The ext4-DAX-like kernel file system.
#[derive(Debug)]
pub struct Ext4Dax {
    device: Arc<PmemDevice>,
    sb: Superblock,
    inodes: RwLock<InodeTable>,
    ns: RwLock<Namespace>,
    path_cache: PathCache,
    fds: RwLock<HashMap<Fd, OpenFile>>,
    next_fd: AtomicU64,
    alloc: Mutex<BlockAllocator>,
    journal: Journal,
    leases: LeaseManager,
}

/// One range of an [`Ext4Dax::ioctl_relink_batch`] call: the bytes of
/// `[src_offset, src_offset + len)` of `src_fd` come to back
/// `[dst_offset, dst_offset + len)` of `dst_fd`.
///
/// As a *move* every field is block-aligned and the source's blocks change
/// owner.  As a *copy* — the partial-block case — any alignment is allowed
/// and the bytes are copied, leaving the source as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelinkOp {
    /// Descriptor of the file the bytes come from (a staging file).
    pub src_fd: Fd,
    /// Byte offset of the source range.
    pub src_offset: u64,
    /// Descriptor of the file the bytes go to (the target file).
    pub dst_fd: Fd,
    /// Byte offset of the destination range.
    pub dst_offset: u64,
    /// Length of the range in bytes.
    pub len: u64,
}

/// What [`Ext4Dax::take_range`] mapped, for its caller to commit or give
/// back.
struct Taken {
    /// `(logical block, count)` of every hole that was filled.
    holes: Vec<(u64, u64)>,
    /// The blocks that fill them.
    runs: Vec<BlockRun>,
    /// The `AllocBlocks`/`AddExtent` records describing the fill.
    records: Vec<JournalRecord>,
    /// The chain length before the call.
    chain_len: usize,
}

impl Ext4Dax {
    /// Write-locks the inode table.  Contended acquisitions are counted
    /// and the blocked time (measured as the global simulated-clock delta
    /// — the work others completed while this thread waited) is charged to
    /// the calling thread's critical path, so lock serialization shows up
    /// in per-thread simulated throughput exactly as it would on real
    /// hardware.
    fn inodes_write(&self) -> RwLockWriteGuard<'_, InodeTable> {
        self.device
            .lock_contended(|| self.inodes.try_write(), || self.inodes.write())
    }

    /// Read-locks the inode table, counting contention (see
    /// [`Ext4Dax::inodes_write`] for the wait accounting).
    fn inodes_read(&self) -> RwLockReadGuard<'_, InodeTable> {
        self.device
            .lock_contended(|| self.inodes.try_read(), || self.inodes.read())
    }

    /// Namespace-lock acquisition with contention accounting: a failed
    /// `try_lock` counts an `ns_shard_lock_waits` and charges the blocked
    /// time (global simulated-clock delta) to the calling thread's critical
    /// path — mirroring [`PmemDevice::lock_contended`] for the inode table.
    fn ns_contended<G>(&self, try_lock: impl FnOnce() -> Option<G>, lock: impl FnOnce() -> G) -> G {
        match try_lock() {
            Some(guard) => guard,
            None => {
                self.device.stats().add_ns_shard_lock_wait();
                let t0 = self.device.clock().now_ns_f64();
                let guard = lock();
                pmem::SimClock::charge_thread_wait(self.device.clock().now_ns_f64() - t0);
                guard
            }
        }
    }

    /// Read-locks the namespace.
    fn ns_read(&self) -> RwLockReadGuard<'_, Namespace> {
        self.ns_contended(|| self.ns.try_read(), || self.ns.read())
    }

    /// Write-locks the namespace.
    fn ns_write(&self) -> RwLockWriteGuard<'_, Namespace> {
        self.ns_contended(|| self.ns.try_write(), || self.ns.write())
    }

    /// Looks up (and clones) an open descriptor.
    fn lookup_fd(&self, fd: Fd) -> FsResult<OpenFile> {
        self.fds.read().get(&fd).cloned().ok_or(FsError::BadFd)
    }

    fn insert_fd(&self, ino: u64, flags: OpenFlags) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.write().insert(
            fd,
            OpenFile {
                ino,
                offset: 0,
                flags,
                last_read_end: u64::MAX,
            },
        );
        fd
    }

    fn update_fd(&self, fd: Fd, f: impl FnOnce(&mut OpenFile)) {
        if let Some(file) = self.fds.write().get_mut(&fd) {
            f(file);
        }
    }

    /// Formats the device and returns the file system mounted.
    ///
    /// Formatting itself is not an operation the paper measures, so its
    /// device traffic is written without simulated-time charges.
    pub fn mkfs(device: Arc<PmemDevice>) -> FsResult<Arc<Self>> {
        if !device.size().is_multiple_of(BLOCK_SIZE) {
            return Err(FsError::InvalidArgument);
        }
        let total_blocks = device.size() as u64 / BLOCK_SIZE as u64;
        let sb = Superblock::compute(total_blocks, DEFAULT_INODE_COUNT.min(total_blocks / 4))?;
        device.write_uncharged(0, &sb.to_block());

        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();

        // Fresh lease table: no instance owns anything yet.
        device.write_uncharged(
            sb.lease_start * BLOCK_SIZE as u64,
            &vec![0u8; MAX_INSTANCES as usize],
        );
        let leases = LeaseManager::new(Arc::clone(&device), &sb, &[]);

        let alloc = BlockAllocator::format(&sb);
        // Zero the inode table so unused slots parse as free.
        let itable_bytes = (sb.itable_blocks * BLOCK_SIZE as u64) as usize;
        device.write_uncharged(
            sb.itable_start * BLOCK_SIZE as u64,
            &vec![0u8; itable_bytes],
        );
        device.write_uncharged(
            sb.bitmap_start * BLOCK_SIZE as u64,
            &alloc.to_bitmap_image(&sb),
        );

        let mut root = Inode::new(ROOT_INO, InodeKind::Directory);
        let fs = Self {
            device,
            sb,
            inodes: RwLock::new(HashMap::new()),
            ns: RwLock::new(Namespace::new(
                HashMap::from([(ROOT_INO, BTreeMap::new())]),
                ROOT_INO,
            )),
            path_cache: PathCache::default(),
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            alloc: Mutex::new(alloc),
            journal,
            leases,
        };
        fs.persist_inode(&mut root, false);
        fs.inodes.write().insert(ROOT_INO, root);
        Ok(Arc::new(fs))
    }

    /// Mounts an already-formatted device: reads the superblock, replays the
    /// journal, and rebuilds the in-memory inode, directory and allocator
    /// state from the on-device structures.
    ///
    /// The replayed state is then written back in place and **fenced**
    /// before the journal is discarded: the journal records are the only
    /// durable copy of a replayed change until that fence, so a crash that
    /// persists the discard must find the in-place state already durable.
    /// The discard itself clears only the journal's used extent (see
    /// [`crate::journal`]), so a mount costs what was journaled, not the
    /// size of the journal.
    pub fn mount(device: Arc<PmemDevice>) -> FsResult<Arc<Self>> {
        let mut sb_block = vec![0u8; BLOCK_SIZE];
        device.read_uncharged(0, &mut sb_block);
        let sb = Superblock::from_block(&sb_block)?;
        sb.check_geometry(device.size() as u64)?;

        // 1. Journal recovery (records in media order, which is
        //    transaction-id order).  The scan reads only the chunks the
        //    journal's chunk map marks, and leaves the head at the
        //    journal's used extent for the reset at the end of the mount.
        let journal = Journal::new(Arc::clone(&device), &sb);
        let (records, max_tid) = journal.scan();

        // 2. Read the lease table: leases active at the crash whose owners
        //    died with it.  Journal replay below re-applies any
        //    acquire/release whose in-place table update did not land.
        let mut lease_ids: std::collections::HashSet<u32> = LeaseManager::load_active(&device, &sb)
            .into_iter()
            .collect();

        // 3. Read the bitmap and inode table.
        let mut bitmap_image = vec![0u8; (sb.bitmap_blocks * BLOCK_SIZE as u64) as usize];
        device.read_uncharged(sb.bitmap_start * BLOCK_SIZE as u64, &mut bitmap_image);
        let mut alloc = BlockAllocator::from_bitmap_image(&sb, &bitmap_image);

        // The table is read in one pass, `SCAN_CHUNK` bytes at a time;
        // only a slot whose mode byte is non-zero holds an inode.
        let mut inodes: HashMap<u64, Inode> = HashMap::new();
        let mut table = vec![0u8; SCAN_CHUNK];
        let mut block = vec![0u8; BLOCK_SIZE];
        let table_len = sb.inode_count * INODE_RECORD_SIZE as u64;
        let mut at = 0u64;
        while at < table_len {
            let piece = &mut table[..SCAN_CHUNK.min((table_len - at) as usize)];
            device.read_uncharged(sb.inode_offset(0) + at, piece);
            let first = at / INODE_RECORD_SIZE as u64;
            for (i, record) in piece.chunks_exact(INODE_RECORD_SIZE).enumerate() {
                let ino = first + i as u64;
                if ino == 0 || record[0] == 0 {
                    continue;
                }
                if let Some((mut inode, _count, overflow_head)) = Inode::deserialize(ino, record)? {
                    let mut next = overflow_head;
                    while next != 0 {
                        device.read_uncharged(next * BLOCK_SIZE as u64, &mut block);
                        next = inode.load_overflow(next, &block)?;
                    }
                    inodes.insert(ino, inode);
                }
            }
            at += piece.len() as u64;
        }

        // 4. Rebuild directories from their data blocks.
        let mut dirs: HashMap<u64, BTreeMap<String, DirSlot>> = HashMap::new();
        for (&ino, inode) in &inodes {
            if !inode.is_dir() {
                continue;
            }
            let data = Self::read_file_raw(&device, inode);
            let mut map = BTreeMap::new();
            for entry in dir::scan_entries(&data)? {
                if entry.ino != 0 {
                    map.insert(
                        entry.name.clone(),
                        DirSlot {
                            ino: entry.ino,
                            entry_offset: entry.offset,
                            entry_len: entry.len,
                        },
                    );
                }
            }
            dirs.insert(ino, map);
        }

        // 5. Replay committed journal records idempotently on the
        //    in-memory state.
        for rec in &records {
            Self::replay_record(rec, &mut inodes, &mut dirs, &mut alloc, &mut lease_ids);
        }
        let dropped = Self::drop_stale_entries(&records, &mut dirs);

        // Only data allocations persist the bitmap; a chain block's bit
        // reaches it only when it shares a byte with one.  So the loaded
        // chains are marked used whatever the bitmap says — after the image
        // to write back is taken, and before any chain is grown below — and
        // no chain block is handed out again as data or as another chain.
        let bitmap_image = alloc.to_bitmap_image(&sb);
        for inode in inodes.values() {
            for &b in &inode.overflow_blocks {
                alloc.mark_used(b, 1);
            }
        }

        let max_ino = inodes.keys().copied().max().unwrap_or(ROOT_INO);

        let lease_seed: Vec<u32> = lease_ids.into_iter().collect();
        let leases = LeaseManager::new(Arc::clone(&device), &sb, &lease_seed);

        let fs = Self {
            device,
            sb,
            inodes: RwLock::new(inodes),
            ns: RwLock::new(Namespace::new(dirs, max_ino)),
            path_cache: PathCache::default(),
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            alloc: Mutex::new(alloc),
            journal,
            leases,
        };
        {
            // Make the in-place state match the replayed state, then the
            // journal contents are no longer needed.
            fs.leases.persist();
            for inode in fs.inodes.write().values_mut() {
                fs.reserve_chain(inode)?;
                fs.persist_inode(inode, false);
            }
            fs.device
                .write_uncharged(fs.sb.bitmap_start * BLOCK_SIZE as u64, &bitmap_image);
            // The entries replay dropped are tombstoned on the device, or
            // the next mount, without these records, would find them again.
            for (parent, slot) in dropped {
                if slot.entry_offset == u64::MAX {
                    continue;
                }
                if let Some(dir) = fs.inodes.read().get(&parent) {
                    let tomb = dir::encode_tombstone(slot.entry_len - dir::ENTRY_HEADER);
                    Self::write_file_raw(&fs.device, dir, slot.entry_offset, &tomb);
                }
            }
            // The in-place writes above are only pending; they must be
            // durable before the records that can redo them disappear.
            fs.device.fence(TimeCategory::Metadata);
            fs.journal.set_next_tid(max_tid + 1);
            fs.journal.reset();
        }
        Ok(Arc::new(fs))
    }

    /// An inode has exactly one directory entry: for every inode the
    /// journal names, the one its last record names, or none after an
    /// unlink.  Drops every other entry pointing at such an inode and
    /// returns them, to be tombstoned on the device.  One is an old entry
    /// whose tombstone was lost, or torn: a torn line can keep the inode
    /// number under a zeroed name, which replay, matching names, misses.
    fn drop_stale_entries(
        records: &[JournalRecord],
        dirs: &mut HashMap<u64, BTreeMap<String, DirSlot>>,
    ) -> Vec<(u64, DirSlot)> {
        let mut last: HashMap<u64, Option<(u64, &str)>> = HashMap::new();
        for rec in records {
            match rec {
                JournalRecord::CreateInode {
                    ino, parent, name, ..
                } => {
                    last.insert(*ino, Some((*parent, name.as_str())));
                }
                JournalRecord::Unlink { ino, .. } => {
                    last.insert(*ino, None);
                }
                JournalRecord::Rename {
                    ino,
                    new_parent,
                    new_name,
                    replaced_ino,
                    ..
                } => {
                    last.insert(*ino, Some((*new_parent, new_name.as_str())));
                    if *replaced_ino != 0 {
                        last.insert(*replaced_ino, None);
                    }
                }
                _ => {}
            }
        }
        let mut dropped = Vec::new();
        for (&dir, map) in dirs.iter_mut() {
            map.retain(|name, slot| {
                let stale = last
                    .get(&slot.ino)
                    .is_some_and(|&entry| entry != Some((dir, name.as_str())));
                if stale {
                    dropped.push((dir, *slot));
                }
                !stale
            });
        }
        dropped
    }

    fn replay_record(
        rec: &JournalRecord,
        inodes: &mut HashMap<u64, Inode>,
        dirs: &mut HashMap<u64, BTreeMap<String, DirSlot>>,
        alloc: &mut BlockAllocator,
        lease_ids: &mut std::collections::HashSet<u32>,
    ) {
        match rec {
            JournalRecord::CreateInode {
                ino,
                parent,
                name,
                is_dir,
            } => {
                inodes.entry(*ino).or_insert_with(|| {
                    Inode::new(
                        *ino,
                        if *is_dir {
                            InodeKind::Directory
                        } else {
                            InodeKind::File
                        },
                    )
                });
                if *is_dir {
                    dirs.entry(*ino).or_default();
                }
                if let Some(parent_map) = dirs.get_mut(parent) {
                    parent_map.entry(name.clone()).or_insert(DirSlot {
                        ino: *ino,
                        entry_offset: u64::MAX,
                        entry_len: dir::entry_size(name),
                    });
                }
            }
            JournalRecord::Unlink {
                parent,
                name,
                ino,
                free_inode,
            } => {
                if let Some(parent_map) = dirs.get_mut(parent) {
                    parent_map.remove(name);
                }
                if *free_inode {
                    inodes.remove(ino);
                    dirs.remove(ino);
                }
            }
            JournalRecord::Rename {
                old_parent,
                old_name,
                new_parent,
                new_name,
                ino,
                replaced_ino,
            } => {
                if let Some(map) = dirs.get_mut(old_parent) {
                    map.remove(old_name);
                }
                if *replaced_ino != 0 {
                    inodes.remove(replaced_ino);
                    dirs.remove(replaced_ino);
                }
                if let Some(map) = dirs.get_mut(new_parent) {
                    map.insert(
                        new_name.clone(),
                        DirSlot {
                            ino: *ino,
                            entry_offset: u64::MAX,
                            entry_len: dir::entry_size(new_name),
                        },
                    );
                }
            }
            JournalRecord::SetSize { ino, size } => {
                if let Some(inode) = inodes.get_mut(ino) {
                    inode.size = *size;
                }
            }
            JournalRecord::AddExtent {
                ino,
                logical,
                phys,
                len,
            } => {
                // The record sets its range, as `SetRangeMapping` does: the
                // map may already hold later changes to it (a relink out of
                // the range, a truncate and a regrow), which the records
                // after this one redo.
                if let Some(inode) = inodes.get_mut(ino) {
                    inode.extents.remove_range(*logical, *len);
                    inode.extents.insert(Extent {
                        logical: *logical,
                        phys: *phys,
                        len: *len,
                    });
                }
            }
            JournalRecord::TruncateExtents { ino, from_logical } => {
                if let Some(inode) = inodes.get_mut(ino) {
                    inode.extents.truncate_from(*from_logical);
                }
            }
            JournalRecord::AllocBlocks { start, len } => {
                alloc.mark_used(*start, *len);
            }
            JournalRecord::FreeBlocks { start, len } => {
                alloc.mark_free(*start, *len);
            }
            JournalRecord::SwapExtents { .. } => {
                // Descriptive only; relink journals SetRangeMapping records.
            }
            JournalRecord::SetRangeMapping {
                ino,
                logical,
                count,
                extents,
            } => {
                if let Some(inode) = inodes.get_mut(ino) {
                    inode.extents.remove_range(*logical, *count);
                    for &(l, p, n) in extents {
                        inode.extents.insert(Extent {
                            logical: l,
                            phys: p,
                            len: n,
                        });
                    }
                }
            }
            JournalRecord::Lease {
                instance_id,
                acquire,
            } => {
                if *acquire {
                    lease_ids.insert(*instance_id);
                } else {
                    lease_ids.remove(instance_id);
                }
            }
            JournalRecord::Commit => {}
        }
    }

    /// Reads a whole file's contents straight from its extents, without any
    /// cost accounting (mount-time helper).
    fn read_file_raw(device: &Arc<PmemDevice>, inode: &Inode) -> Vec<u8> {
        let mut out = vec![0u8; inode.size as usize];
        let mut pos = 0u64;
        while pos < inode.size {
            let block = pos / BLOCK_SIZE as u64;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let remaining = (inode.size - pos) as usize;
            let chunk = (BLOCK_SIZE - within).min(remaining);
            if let Some((phys, _)) = inode.extents.lookup(block) {
                device.read_uncharged(
                    phys * BLOCK_SIZE as u64 + within as u64,
                    &mut out[pos as usize..pos as usize + chunk],
                );
            }
            pos += chunk as u64;
        }
        out
    }

    /// Writes `data` at byte `offset` of a file straight into its allocated
    /// blocks, without any cost accounting (mount-time helper).
    fn write_file_raw(device: &Arc<PmemDevice>, inode: &Inode, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let at = offset + pos as u64;
            let within = (at % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(data.len() - pos);
            if let Some((phys, _)) = inode.extents.lookup(at / BLOCK_SIZE as u64) {
                device.write_uncharged(
                    phys * BLOCK_SIZE as u64 + within as u64,
                    &data[pos..pos + chunk],
                );
            }
            pos += chunk;
        }
    }

    // ------------------------------------------------------------------
    // Cost helpers
    // ------------------------------------------------------------------

    fn charge_syscall(&self) {
        let cost = self.device.cost();
        self.device.stats().add_kernel_trap();
        self.device
            .charge_software(cost.kernel_trap_ns + cost.vfs_path_ns);
    }

    fn charge(&self, ns: f64) {
        self.device.charge_software(ns);
    }

    // ------------------------------------------------------------------
    // Metadata persistence helpers
    // ------------------------------------------------------------------

    /// Writes the inode record (and its overflow chain) with charged
    /// metadata traffic.  Called with the inode table write-locked.
    fn write_inode(&self, inode: &mut Inode) {
        self.persist_inode(inode, true);
    }

    /// Persists `inode`'s record and overflow chain in place — the only
    /// writer of a live inode's record and chain.
    ///
    /// A charged persist writes, per image, one non-temporal store for
    /// each maximal run of 64-byte lines that differ from what the last
    /// persist stored ([`Inode::stored`]), then fences once.  A record with
    /// no stored copy, and a chain index whose block changed, compare
    /// against nothing and are written whole; so is everything on the
    /// uncharged mount and mkfs paths, which seed the copy.  The skipped
    /// lines already hold exactly the bytes a whole rewrite would store
    /// (the invariant in [`crate::inode`]), so the media image and every
    /// crash state are those of a whole rewrite, with fewer lines in
    /// flight.
    ///
    /// The chain must already hold the blocks the map needs
    /// ([`Ext4Dax::reserve_chain`], before the caller's commit); blocks it
    /// no longer needs go back to the allocator once the record that drops
    /// them is fenced.
    fn persist_inode(&self, inode: &mut Inode, charged: bool) {
        let needed = inode.overflow_blocks_needed();
        assert!(
            inode.overflow_blocks.len() >= needed,
            "ino {}: overflow chain not reserved before its commit",
            inode.ino
        );
        let trimmed = if needed < inode.overflow_blocks.len() {
            inode.overflow_blocks.split_off(needed)
        } else {
            Vec::new()
        };
        let (record, chain) = inode.serialize();
        let stored = if charged { inode.stored.take() } else { None };
        let (old_record, old_chain) = match &stored {
            Some((record, chain)) => (Some(record.as_slice()), chain.as_slice()),
            None => (None, &[][..]),
        };
        let write = |off: u64, new: &[u8], old: Option<&[u8]>| {
            for run in changed_lines(new, old) {
                let at = off + run.start as u64;
                if charged {
                    self.device.write(
                        at,
                        &new[run],
                        PersistMode::NonTemporal,
                        TimeCategory::Metadata,
                    );
                } else {
                    self.device.write_uncharged(at, &new[run]);
                }
            }
        };
        write(self.sb.inode_offset(inode.ino), &record, old_record);
        for (idx, (block, image)) in chain.iter().enumerate() {
            let old = old_chain
                .get(idx)
                .filter(|(old_block, _)| old_block == block)
                .map(|(_, old)| old.as_slice());
            write(block * BLOCK_SIZE as u64, image, old);
        }
        if charged {
            self.device.fence(TimeCategory::Metadata);
        }
        inode.stored = Some((record, chain));
        if !trimmed.is_empty() {
            let mut alloc = self.alloc.lock();
            for b in trimmed {
                alloc.mark_free(b, 1);
            }
        }
    }

    /// Grows `inode`'s overflow chain to hold its extent map.  Every call
    /// that adds extents reserves the chain this way **before** its journal
    /// commit, so a full device fails the call with nothing changed rather
    /// than leaving a committed map that cannot be persisted.
    fn reserve_chain(&self, inode: &mut Inode) -> FsResult<()> {
        let missing = inode
            .overflow_blocks_needed()
            .saturating_sub(inode.overflow_blocks.len());
        for run in self.alloc.lock().alloc_extents(missing as u64)? {
            inode.overflow_blocks.extend(run.start..run.start + run.len);
        }
        Ok(())
    }

    /// Shortens `inode`'s overflow chain to `len` blocks, returning the
    /// rest to the allocator.
    fn truncate_chain(&self, inode: &mut Inode, len: usize) {
        if len < inode.overflow_blocks.len() {
            let mut alloc = self.alloc.lock();
            for b in inode.overflow_blocks.drain(len..) {
                alloc.mark_free(b, 1);
            }
        }
    }

    /// Zeroes a freed inode's on-device record.
    fn zero_inode_record(&self, ino: u64) {
        let zero = [0u8; INODE_RECORD_SIZE];
        let off = self.sb.inode_offset(ino);
        self.device
            .write(off, &zero, PersistMode::NonTemporal, TimeCategory::Metadata);
    }

    /// Resolves a **normalized** path to `(parent_ino, name, Option<ino>)`
    /// under the caller's namespace guard, read or write.  The name is a
    /// slice of the path.
    ///
    /// Fast path: one hash probe of the full-path cache, validated against
    /// the namespace (directory-move generation and parent generation both
    /// unchanged since fill) — a deep resolve costs one dirent charge
    /// instead of one per component.  Near miss: if the full path is absent
    /// but the parent directory's path is cached, the final component is
    /// looked up in the parent alone (two dirent charges).  Slow path: a
    /// per-component walk, then a cache fill.  Directory-ness of
    /// intermediate components is checked against the namespace's
    /// directory maps, so resolution needs no inode.
    fn resolve_norm<'p>(
        &self,
        ns: &Namespace,
        norm: &'p str,
    ) -> FsResult<(u64, &'p str, Option<u64>)> {
        let cost = self.device.cost();
        let (parent_path, name) = vpath::split(norm)?;
        if let Some(e) = self.path_cache.get(norm) {
            if e.move_gen == ns.move_gen
                && ns.dirs.get(&e.parent).map(|d| d.gen) == Some(e.parent_gen)
            {
                self.charge(cost.ext4_dirent_ns);
                self.device.stats().add_path_cache_hit();
                return Ok((e.parent, name, e.ino));
            }
            // Stale entry: drop it so the walk below refills the slot.
            self.path_cache.remove(norm);
        }
        self.device.stats().add_path_cache_miss();
        obs::event(obs::SpanEvent::PathCacheMiss);
        // Near miss: the parent directory's own path is often still
        // cached (creates of fresh names in a warm directory).  A
        // positive **directory** entry needs no parent-generation check
        // here: inode numbers are never reused and every directory move
        // bumps `move_gen`, so "`move_gen` unchanged and the directory
        // still exists" proves the inode is still at that path.
        if parent_path != "/" {
            if let Some(pe) = self.path_cache.get(parent_path) {
                if pe.move_gen != ns.move_gen {
                    self.path_cache.remove(parent_path);
                } else if let Some(p_ino) = pe.ino {
                    if let Some(d) = ns.dirs.get(&p_ino) {
                        // One probe plus one dirent lookup instead of a
                        // per-component walk.
                        self.charge(2.0 * cost.ext4_dirent_ns);
                        let ino = d.entries.get(name).map(|s| s.ino);
                        self.path_cache.insert(
                            norm,
                            PathCacheEntry {
                                parent: p_ino,
                                parent_gen: d.gen,
                                move_gen: ns.move_gen,
                                ino,
                            },
                        );
                        return Ok((p_ino, name, ino));
                    }
                    // The cached inode is not a live directory (it was
                    // removed, or the entry names a file): evict and take
                    // the walk below.
                    self.path_cache.remove(parent_path);
                }
            }
        }
        let mut dir_ino = ROOT_INO;
        for comp in vpath::components(parent_path) {
            self.charge(cost.ext4_dirent_ns);
            let slot = ns
                .dir(dir_ino)?
                .entries
                .get(comp)
                .ok_or(FsError::NotFound)?;
            dir_ino = slot.ino;
        }
        self.charge(cost.ext4_dirent_ns);
        let d = ns.dir(dir_ino)?;
        let ino = d.entries.get(name).map(|s| s.ino);
        // Fill (positive or negative).
        self.path_cache.insert(
            norm,
            PathCacheEntry {
                parent: dir_ino,
                parent_gen: d.gen,
                move_gen: ns.move_gen,
                ino,
            },
        );
        Ok((dir_ino, name, ino))
    }

    /// Ensures blocks are allocated to cover file byte range
    /// `[offset, offset+len)`, journaling the allocation in a transaction
    /// of its own.  Called with the inode table write-locked; the journal
    /// guard is dropped internally after the allocator bitmap is persisted
    /// (a wrapped-away allocation record can at worst leak blocks, never
    /// corrupt).
    fn allocate_range(&self, inode: &mut Inode, offset: u64, len: u64) -> FsResult<()> {
        let taken = self.take_range(inode, offset, len)?;
        if taken.runs.is_empty() {
            return Ok(());
        }
        let txn = match self.journal.commit(&taken.records) {
            Ok(txn) => txn,
            Err(e) => {
                self.give_back(inode, &taken);
                return Err(e);
            }
        };
        self.alloc
            .lock()
            .persist_runs(&self.device, &self.sb, &taken.runs);
        drop(txn);
        Ok(())
    }

    /// The uncommitted half of [`Ext4Dax::allocate_range`]: maps every hole
    /// of `[offset, offset+len)` to fresh blocks in memory and reserves the
    /// chain the larger map needs, returning the `AllocBlocks`/`AddExtent`
    /// records for the caller's transaction.  A failure leaves the map,
    /// chain and allocator as they were; after a success the caller either
    /// commits the records and persists the runs, or calls
    /// [`Ext4Dax::give_back`].
    fn take_range(&self, inode: &mut Inode, offset: u64, len: u64) -> FsResult<Taken> {
        let mut taken = Taken {
            holes: Vec::new(),
            runs: Vec::new(),
            records: Vec::new(),
            chain_len: inode.overflow_blocks.len(),
        };
        if len == 0 {
            return Ok(taken);
        }
        let cost = self.device.cost();
        let first_block = offset / BLOCK_SIZE as u64;
        let last_block = (offset + len - 1) / BLOCK_SIZE as u64;
        let mut b = first_block;
        while b <= last_block {
            match inode.extents.lookup(b) {
                Some((_, contig)) => b += contig.min(last_block - b + 1),
                None => {
                    let start = b;
                    while b <= last_block && inode.extents.lookup(b).is_none() {
                        b += 1;
                    }
                    taken.holes.push((start, b - start));
                }
            }
        }
        if taken.holes.is_empty() {
            return Ok(taken);
        }
        let staged = (|| -> FsResult<()> {
            for &(logical, count) in &taken.holes {
                self.charge(cost.ext4_alloc_ns);
                let runs = self.alloc.lock().alloc_extents(count)?;
                let mut l = logical;
                for run in &runs {
                    taken.records.push(JournalRecord::AllocBlocks {
                        start: run.start,
                        len: run.len,
                    });
                    taken.records.push(JournalRecord::AddExtent {
                        ino: inode.ino,
                        logical: l,
                        phys: run.start,
                        len: run.len,
                    });
                    inode.extents.insert(Extent {
                        logical: l,
                        phys: run.start,
                        len: run.len,
                    });
                    l += run.len;
                }
                taken.runs.extend(runs);
            }
            self.reserve_chain(inode)
        })();
        match staged {
            Ok(()) => Ok(taken),
            Err(e) => {
                self.give_back(inode, &taken);
                Err(e)
            }
        }
    }

    /// Undoes a [`Ext4Dax::take_range`] whose records were never
    /// committed: the holes become holes again and every block taken, data
    /// or chain, goes back.
    fn give_back(&self, inode: &mut Inode, taken: &Taken) {
        for &(logical, count) in &taken.holes {
            inode.extents.remove_range(logical, count);
        }
        for run in &taken.runs {
            self.alloc.lock().mark_free(run.start, run.len);
        }
        self.truncate_chain(inode, taken.chain_len);
    }

    /// Zeroes what a write starting at `to` leaves between the end of file
    /// and itself, so that it reads as zero once the size covers it: the
    /// rest of the block holding the end of file, and the head of the
    /// write's own block — wherever those blocks are allocated.  Whole
    /// blocks between stay as they are (holes, for every caller but a
    /// growing `ftruncate`).  `eof` is the size the file has before the
    /// call raises it past `to`.  Returns whether it stored anything; the
    /// caller fences.
    fn zero_past_eof(&self, inode: &Inode, eof: u64, to: u64) -> bool {
        let block = BLOCK_SIZE as u64;
        let mut stored = false;
        if to <= eof {
            return stored;
        }
        let eof_block_end = eof.next_multiple_of(block).min(to);
        let to_block_start = (to - to % block).max(eof_block_end);
        for (from, to) in [(eof, eof_block_end), (to_block_start, to)] {
            if let Some((phys, _)) = inode.extents.lookup(from / block).filter(|_| from < to) {
                self.device.zero(
                    phys * block + from % block,
                    (to - from) as usize,
                    PersistMode::NonTemporal,
                    TimeCategory::Metadata,
                );
                stored = true;
            }
        }
        stored
    }

    /// Releases freed runs after their `FreeBlocks` records are durably
    /// journaled: marks them free in the allocator and persists the bitmap
    /// bytes.  Freeing before the commit would let a concurrent allocation
    /// re-issue the blocks while the free was still undurable.
    fn release_runs(&self, runs: &[BlockRun]) {
        if runs.is_empty() {
            return;
        }
        let mut alloc = self.alloc.lock();
        for run in runs {
            alloc.mark_free(run.start, run.len);
        }
        alloc.persist_runs(&self.device, &self.sb, runs);
    }

    /// Appends a directory entry, extending the directory data as needed.
    /// Called with the namespace and the inode table write-locked.
    fn dir_append_entry(
        &self,
        dir: &mut DirState,
        parent_inode: &mut Inode,
        name: &str,
        ino: u64,
    ) -> FsResult<()> {
        let cost = self.device.cost();
        self.charge(cost.ext4_dirent_ns);
        let entry = dir::encode_entry(ino, name);
        let offset = parent_inode.size;
        self.allocate_range(parent_inode, offset, entry.len() as u64)?;
        self.write_blocks(parent_inode, offset, &entry, TimeCategory::Metadata)?;
        parent_inode.size = offset + entry.len() as u64;
        dir.entries.insert(
            name.to_string(),
            DirSlot {
                ino,
                entry_offset: offset,
                entry_len: entry.len(),
            },
        );
        Ok(())
    }

    /// Overwrites a directory entry with a tombstone and bumps the
    /// parent's invalidation generation (every destructive entry change —
    /// unlink, rename, rmdir — funnels through here).  Called with the
    /// namespace and the inode table write-locked.
    fn dir_remove_entry(
        &self,
        dir: &mut DirState,
        parent_inode: &Inode,
        name: &str,
    ) -> FsResult<DirSlot> {
        let cost = self.device.cost();
        self.charge(cost.ext4_dirent_ns);
        let slot = dir.entries.remove(name).ok_or(FsError::NotFound)?;
        dir.gen += 1;
        if slot.entry_offset != u64::MAX {
            let tomb = dir::encode_tombstone(slot.entry_len - dir::ENTRY_HEADER);
            self.write_blocks(
                parent_inode,
                slot.entry_offset,
                &tomb,
                TimeCategory::Metadata,
            )?;
        }
        Ok(slot)
    }

    /// Writes `data` into the file's already-allocated blocks starting at
    /// byte `offset`, charging the given traffic category.
    fn write_blocks(
        &self,
        inode: &Inode,
        offset: u64,
        data: &[u8],
        cat: TimeCategory,
    ) -> FsResult<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let file_off = offset + pos as u64;
            let block = file_off / BLOCK_SIZE as u64;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(data.len() - pos);
            let (phys, _) = inode
                .extents
                .lookup(block)
                .ok_or_else(|| FsError::Io("write to unallocated block".into()))?;
            self.device.write(
                phys * BLOCK_SIZE as u64 + within as u64,
                &data[pos..pos + chunk],
                PersistMode::NonTemporal,
                cat,
            );
            pos += chunk;
        }
        Ok(())
    }

    fn read_blocks(
        &self,
        inode: &Inode,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
        cat: TimeCategory,
    ) -> FsResult<()> {
        let cost = self.device.cost();
        let mut pos = 0usize;
        let mut first = true;
        while pos < buf.len() {
            let file_off = offset + pos as u64;
            let block = file_off / BLOCK_SIZE as u64;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(buf.len() - pos);
            self.charge(cost.ext4_extent_lookup_ns);
            match inode.extents.lookup(block) {
                Some((phys, _)) => {
                    let p = if first {
                        pattern
                    } else {
                        AccessPattern::Sequential
                    };
                    self.device.try_read(
                        phys * BLOCK_SIZE as u64 + within as u64,
                        &mut buf[pos..pos + chunk],
                        p,
                        cat,
                    )?;
                }
                // A hole reads as zeroes.
                None => buf[pos..pos + chunk].fill(0),
            }
            first = false;
            pos += chunk;
        }
        Ok(())
    }

    /// Detaches every block of `inode` — extents and overflow blocks —
    /// returning the journal records describing the frees plus the runs
    /// to release **after** those records commit.
    fn free_inode_blocks(&self, inode: &mut Inode) -> (Vec<JournalRecord>, Vec<BlockRun>) {
        let mut records = Vec::new();
        let mut runs = Vec::new();
        let freed = inode.extents.truncate_from(0);
        let overflow: Vec<u64> = inode.overflow_blocks.drain(..).collect();
        for run in freed {
            records.push(JournalRecord::FreeBlocks {
                start: run.start,
                len: run.len,
            });
            runs.push(run);
        }
        for b in overflow {
            records.push(JournalRecord::FreeBlocks { start: b, len: 1 });
            runs.push(BlockRun { start: b, len: 1 });
        }
        (records, runs)
    }

    /// Writes a gather list at `offset` with the inode table write-locked:
    /// one allocation pass over the whole range, one data write per slice,
    /// one `SetSize` journal commit when extending, and one inode persist —
    /// the per-operation costs are paid once regardless of how many slices
    /// the caller assembled the write from.
    fn writev_locked(&self, inode: &mut Inode, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let cost = self.device.cost();
        let total = iov_total_len(iov);
        if total == 0 {
            return Ok(0);
        }
        self.allocate_range(inode, offset, total)?;
        // POSIX: what lies between the old end of file and a write beyond
        // it reads as zero.
        self.zero_past_eof(inode, inode.size, offset);
        let mut cur = offset;
        for v in iov {
            if v.is_empty() {
                continue;
            }
            self.write_blocks(inode, cur, v.as_slice(), TimeCategory::UserData)?;
            cur += v.len() as u64;
        }
        self.charge(cost.ext4_inode_update_ns);
        let new_end = offset + total;
        if new_end > inode.size {
            let txn = self.journal.commit(&[JournalRecord::SetSize {
                ino: inode.ino,
                size: new_end,
            }])?;
            inode.size = new_end;
            self.write_inode(inode);
            drop(txn);
        } else {
            self.write_inode(inode);
        }
        Ok(total as usize)
    }

    /// Shared entry path for the vectored writes: one trap, permission
    /// check, then [`Ext4Dax::writev_locked`] at either the given offset or
    /// (for appends) the end of file **resolved under the same inode-table
    /// lock**, so concurrent appenders to one file serialize instead of
    /// racing a stale `fstat`.
    fn vectored_write(&self, fd: Fd, at: Option<u64>, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.charge_syscall();
        let file = self.lookup_fd(fd)?;
        if !file.flags.write {
            return Err(FsError::PermissionDenied);
        }
        let mut inodes = self.inodes_write();
        let inode = inodes.get_mut(&file.ino).ok_or(FsError::BadFd)?;
        let offset = match at {
            Some(offset) => offset,
            None => inode.size,
        };
        self.writev_locked(inode, offset, iov)
    }

    // ------------------------------------------------------------------
    // SplitFS-specific entry points
    // ------------------------------------------------------------------

    /// Establishes a DAX mapping over `[offset, offset+len)` of the file.
    ///
    /// All blocks in the range must be allocated (SplitFS guarantees this by
    /// pre-allocating staging files and only mapping written regions).  With
    /// `populate`, page faults for the whole range are taken up front
    /// (`MAP_POPULATE`), using a 2 MiB huge-page fault per aligned,
    /// physically contiguous 2 MiB chunk and 4 KiB faults elsewhere.
    pub fn dax_map(&self, fd: Fd, offset: u64, len: u64, populate: bool) -> FsResult<DaxMapping> {
        self.charge_syscall();
        let cost = self.device.cost();
        self.charge(cost.mmap_setup_ns);
        let file = self.lookup_fd(fd)?;
        let inodes = self.inodes_read();
        let inode = inodes.get(&file.ino).ok_or(FsError::BadFd)?;

        let first_block = offset / BLOCK_SIZE as u64;
        let block_count = len.div_ceil(BLOCK_SIZE as u64);
        let extents = inode
            .extents
            .extract_range(first_block, block_count)
            .map_err(|_| FsError::InvalidArgument)?;
        let mut segments = Vec::with_capacity(extents.len());
        for ext in &extents {
            segments.push(MapSegment {
                file_offset: ext.logical * BLOCK_SIZE as u64,
                device_offset: ext.phys * BLOCK_SIZE as u64,
                len: ext.len * BLOCK_SIZE as u64,
            });
        }
        // Clamp the first/last segment to the requested byte range.
        if let Some(first) = segments.first_mut() {
            let skip = offset - first.file_offset;
            first.file_offset += skip;
            first.device_offset += skip;
            first.len -= skip;
        }
        let end = offset + len;
        if let Some(last) = segments.last_mut() {
            let seg_end = last.file_offset + last.len;
            if seg_end > end {
                last.len -= seg_end - end;
            }
        }

        if populate {
            // Fault accounting.
            let mut remaining = len;
            let mut fault_4k = 0u64;
            let mut fault_2m = 0u64;
            for seg in &segments {
                let virt_aligned = seg.file_offset % PAGE_2M as u64 == 0;
                let phys_aligned = seg.device_offset % PAGE_2M as u64 == 0;
                let mut seg_rem = seg.len.min(remaining);
                if virt_aligned && phys_aligned {
                    let huge_pages = seg_rem / PAGE_2M as u64;
                    fault_2m += huge_pages;
                    seg_rem -= huge_pages * PAGE_2M as u64;
                }
                fault_4k += seg_rem.div_ceil(BLOCK_SIZE as u64);
                remaining = remaining.saturating_sub(seg.len);
            }
            self.charge(fault_4k as f64 * cost.page_fault_4k_ns);
            self.charge(fault_2m as f64 * cost.page_fault_2m_ns);
            self.device.stats().add_page_faults(fault_4k);
            self.device.stats().add_huge_page_faults(fault_2m);
        }

        Ok(DaxMapping {
            ino: file.ino,
            file_offset: offset,
            len,
            segments,
        })
    }

    /// The batched relink ioctl: applies every move in `moves` and every
    /// copy in `copies` as **one** journal transaction, and returns each
    /// destination descriptor's file size after the batch.
    ///
    /// Semantically each move is one `EXT4_IOC_MOVE_EXT` and each copy a
    /// write of the source's bytes, but the whole batch commits
    /// atomically: after a crash either every move and copy in the batch is
    /// visible or none is, and the jbd2-style transaction cost is paid once
    /// instead of once per op.  SplitFS's `fsync` path submits a file's
    /// staged runs through this entry point — block-aligned middles as
    /// moves, partial-block heads and tails as copies — and the background
    /// maintenance daemon uses it to retire many files' staged data in a
    /// single transaction.  The returned sizes spare the caller an `fstat`.
    ///
    /// The batch takes the inode table's write lock and no namespace lock.
    ///
    /// Constraints, checked up front before any state changes:
    ///
    /// * every move's offsets and length are block-aligned (a copy's need
    ///   not be),
    /// * `src != dst` within an op, and every source range is fully mapped,
    /// * no two ranges of one file overlap across the batch, sources and
    ///   destinations, moves and copies alike (a batch never reads a range
    ///   another of its ops writes),
    /// * every copy's source reads without a media error,
    /// * no move carries more than [`MAX_RANGE_EXTENTS`] extents, the most
    ///   one journal record holds ([`FsError::NoSpace`] otherwise).
    ///
    /// A copy's bytes are read through the source file's own extents, and
    /// any destination block they land in that is a hole is allocated, its
    /// `AllocBlocks`/`AddExtent` records joining the batch's transaction.
    /// A full device fails the batch with every map as it was.  A
    /// destination's size rises once, to the end of its last range, with
    /// one `SetSize`; what the batch leaves between the old end of file
    /// and a range past it is zeroed first (the rest of the old last block
    /// and the head of the range's block), so the new size exposes no
    /// stale byte.  Copied and zeroed bytes are fenced before the commit
    /// record is written.
    ///
    /// Zero-length ops are permitted and skipped.
    pub fn ioctl_relink_batch(
        &self,
        moves: &[RelinkOp],
        copies: &[RelinkOp],
    ) -> FsResult<Vec<(Fd, u64)>> {
        let block = BLOCK_SIZE as u64;
        // Validate alignment before taking any lock.
        for op in moves {
            if !op.src_offset.is_multiple_of(block)
                || !op.dst_offset.is_multiple_of(block)
                || !op.len.is_multiple_of(block)
            {
                return Err(FsError::InvalidArgument);
            }
        }
        if moves.iter().chain(copies).all(|op| op.len == 0) {
            return Ok(Vec::new());
        }
        // One kernel trap for the whole batch.
        self.charge_syscall();
        let cost = self.device.cost();

        // Resolve descriptors, then lock the inode table.
        let resolve = |ops: &[RelinkOp]| -> FsResult<Vec<(u64, u64, RelinkOp)>> {
            ops.iter()
                .filter(|op| op.len > 0)
                .map(|op| {
                    let src = self.lookup_fd(op.src_fd)?;
                    let dst = self.lookup_fd(op.dst_fd)?;
                    if src.ino == dst.ino {
                        return Err(FsError::InvalidArgument);
                    }
                    Ok((src.ino, dst.ino, *op))
                })
                .collect()
        };
        let moves = resolve(moves)?;
        let copies = resolve(copies)?;
        let mut inodes = self.inodes_write();

        // Upfront validation pass: all inodes resolve and all source ranges
        // are fully mapped.  Nothing is mutated until every op has passed,
        // so a bad batch leaves the file system untouched.
        // `(ino, offset, len, bound)`: each op's range in both files, and a
        // bound on the extents a move can add to that file's map (its moved
        // extents plus one split in the destination, one split in the
        // source; a copy's blocks are counted when they are taken).
        let mut ranges: Vec<(u64, u64, u64, usize)> =
            Vec::with_capacity(2 * (moves.len() + copies.len()));
        for &(src_ino, dst_ino, op) in &moves {
            let moved = inode_ref(&inodes, src_ino)?
                .extents
                .extract_range(op.src_offset / block, op.len / block)?;
            if moved.len() > MAX_RANGE_EXTENTS {
                return Err(FsError::NoSpace);
            }
            ranges.push((src_ino, op.src_offset, op.len, 1));
            ranges.push((dst_ino, op.dst_offset, op.len, moved.len() + 1));
        }
        for &(src_ino, dst_ino, op) in &copies {
            let first = op.src_offset / block;
            let end = (op.src_offset + op.len).div_ceil(block);
            inode_ref(&inodes, src_ino)?
                .extents
                .extract_range(first, end - first)?;
            ranges.push((src_ino, op.src_offset, op.len, 0));
            ranges.push((dst_ino, op.dst_offset, op.len, 0));
        }
        // The initial-state validation above is only sound if no op
        // consumes another op's input or output: reject any overlapping
        // ranges within one file across the batch, so a mid-apply failure
        // (which would leave volatile state diverged from the journal) is
        // impossible by construction.
        for (i, &(ino_a, off_a, len_a, _)) in ranges.iter().enumerate() {
            for &(ino_b, off_b, len_b, _) in &ranges[i + 1..] {
                if ino_a == ino_b && off_a < off_b + len_b && off_b < off_a + len_a {
                    return Err(FsError::InvalidArgument);
                }
            }
        }
        // Every copy's bytes, read before anything changes: a media error
        // fails the batch untouched.
        let mut bytes: Vec<Vec<u8>> = Vec::with_capacity(copies.len());
        for &(src_ino, _, op) in &copies {
            let mut buf = vec![0u8; op.len as usize];
            self.read_blocks(
                inode_ref(&inodes, src_ino)?,
                op.src_offset,
                &mut buf,
                AccessPattern::Sequential,
                TimeCategory::UserData,
            )?;
            bytes.push(buf);
        }

        // The copies' missing destination blocks.  Taken first: they are
        // what a full device can refuse, and until the moves below nothing
        // else has changed.
        let give_back_all = |inodes: &mut InodeTable, taken: &[(u64, Taken)]| {
            for (ino, t) in taken.iter().rev() {
                if let Ok(inode) = inode_mut(inodes, *ino) {
                    self.give_back(inode, t);
                }
            }
        };
        let mut taken: Vec<(u64, Taken)> = Vec::with_capacity(copies.len());
        for &(_, dst_ino, op) in &copies {
            match self.take_range(inode_mut(&mut inodes, dst_ino)?, op.dst_offset, op.len) {
                Ok(t) => taken.push((dst_ino, t)),
                Err(e) => {
                    give_back_all(&mut inodes, &taken);
                    return Err(e);
                }
            }
        }

        // A map whose bound exceeds its chain's room may need another
        // overflow block, reserved after the moves and before the commit.
        // If one may, every map the moves touch is saved first, so a full
        // device fails the batch with nothing changed.
        let mut may_grow_chain = false;
        for &(ino, .., bound) in &ranges {
            if bound > 0 {
                let bound: usize = ranges.iter().filter(|r| r.0 == ino).map(|r| r.3).sum();
                may_grow_chain |= bound > inode_ref(&inodes, ino)?.spare_extents();
            }
        }
        let mut saved: Vec<(u64, ExtentMap, usize)> = Vec::new();
        if may_grow_chain {
            for &(ino, .., bound) in &ranges {
                if bound > 0 && saved.iter().all(|s| s.0 != ino) {
                    let inode = inode_ref(&inodes, ino)?;
                    saved.push((ino, inode.extents.clone(), inode.overflow_blocks.len()));
                }
            }
        }

        let mut records: Vec<JournalRecord> = Vec::with_capacity(moves.len() * 2 + 2);
        for (_, t) in &mut taken {
            records.append(&mut t.records);
        }
        let mut freed_all: Vec<BlockRun> = Vec::new();
        let mut touched: Vec<u64> = Vec::with_capacity(2 * (moves.len() + copies.len()));

        for &(src_ino, dst_ino, op) in &moves {
            let src_block = op.src_offset / block;
            let dst_block = op.dst_offset / block;
            let count = op.len / block;

            self.charge(cost.ext4_extent_lookup_ns * 2.0);

            // The source range was validated as fully mapped above.
            let moved = inode_ref(&inodes, src_ino)?
                .extents
                .extract_range(src_block, count)?;

            // Unmap the destination range; replaced blocks are freed only
            // after the batch's journal records commit.
            let freed = inode_mut(&mut inodes, dst_ino)?
                .extents
                .remove_range(dst_block, count);

            // Move the source mappings into the destination.
            let mut dst_extents_record = Vec::new();
            {
                let dst_inode = inode_mut(&mut inodes, dst_ino)?;
                for ext in &moved {
                    let logical = dst_block + (ext.logical - src_block);
                    dst_inode.extents.insert(Extent {
                        logical,
                        phys: ext.phys,
                        len: ext.len,
                    });
                    dst_extents_record.push((logical, ext.phys, ext.len));
                }
            }
            // Unmap the source range (the blocks now belong to the
            // destination).
            inode_mut(&mut inodes, src_ino)?
                .extents
                .remove_range(src_block, count);

            records.push(JournalRecord::SetRangeMapping {
                ino: dst_ino,
                logical: dst_block,
                count,
                extents: dst_extents_record,
            });
            records.push(JournalRecord::SetRangeMapping {
                ino: src_ino,
                logical: src_block,
                count,
                extents: Vec::new(),
            });
            for run in &freed {
                records.push(JournalRecord::FreeBlocks {
                    start: run.start,
                    len: run.len,
                });
            }
            freed_all.extend(freed);
            touched.push(src_ino);
            touched.push(dst_ino);
        }
        touched.extend(copies.iter().map(|&(_, dst_ino, _)| dst_ino));
        touched.sort_unstable();
        touched.dedup();
        if may_grow_chain {
            let reserved = touched
                .iter()
                .try_for_each(|&ino| self.reserve_chain(inode_mut(&mut inodes, ino)?));
            if let Err(e) = reserved {
                for (ino, extents, chain_len) in saved {
                    let inode = inode_mut(&mut inodes, ino)?;
                    inode.extents = extents;
                    self.truncate_chain(inode, chain_len);
                }
                give_back_all(&mut inodes, &taken);
                return Err(e);
            }
        }

        // Per destination, its ranges in file order: zero what each leaves
        // between the end of file so far and itself, store the copies, and
        // raise the size once.
        let mut writes: Vec<(u64, u64, u64, Fd, Option<usize>)> =
            moves
                .iter()
                .map(|&(_, dst_ino, op)| (dst_ino, op.dst_offset, op.len, op.dst_fd, None))
                .chain(copies.iter().enumerate().map(|(i, &(_, dst_ino, op))| {
                    (dst_ino, op.dst_offset, op.len, op.dst_fd, Some(i))
                }))
                .collect();
        writes.sort_unstable_by_key(|w| (w.0, w.1));
        let mut sizes: Vec<(Fd, u64)> = Vec::new();
        let mut stored = false;
        for group in writes.chunk_by(|a, b| a.0 == b.0) {
            let ino = group[0].0;
            let inode = inode_mut(&mut inodes, ino)?;
            let mut end = inode.size;
            for &(_, offset, len, _, copy) in group {
                stored |= self.zero_past_eof(inode, end, offset);
                if let Some(i) = copy {
                    self.write_blocks(inode, offset, &bytes[i], TimeCategory::UserData)?;
                    stored = true;
                }
                end = end.max(offset + len);
            }
            if end > inode.size {
                inode.size = end;
                records.push(JournalRecord::SetSize { ino, size: end });
            }
            for &(.., fd, _) in group {
                if sizes.iter().all(|&(f, _)| f != fd) {
                    sizes.push((fd, end));
                }
            }
        }
        if stored {
            self.device.fence(TimeCategory::UserData);
        }

        // Journal every move and copy of the batch as one transaction.
        let txn = self.journal.commit(&records)?;

        // In-place metadata updates, once per touched inode, then the
        // bitmap: the copies' new blocks and the moves' replaced ones.
        for ino in touched {
            let inode = inode_mut(&mut inodes, ino)?;
            self.write_inode(inode);
        }
        let mut alloc = self.alloc.lock();
        for run in &freed_all {
            alloc.mark_free(run.start, run.len);
        }
        freed_all.extend(taken.iter().flat_map(|(_, t)| t.runs.iter().copied()));
        alloc.persist_runs(&self.device, &self.sb, &freed_all);
        drop(alloc);
        drop(txn);
        self.device.stats().add_batched_relink(moves.len() as u64);
        obs::event(obs::SpanEvent::RelinkBatch);
        Ok(sizes)
    }

    /// Returns the number of free data blocks (used by tests and by the
    /// resource-consumption experiment).
    pub fn free_blocks(&self) -> u64 {
        self.alloc.lock().free_blocks()
    }

    /// The directory-move generation: bumped by every `rename` of a
    /// directory and by nothing else.  A user-level cache keyed by full
    /// path compares the value before and after its own `rename` call to
    /// learn, without another trap, whether paths beneath the renamed
    /// name changed meaning.
    pub fn dir_move_generation(&self) -> u64 {
        self.ns_read().move_gen
    }

    /// Whole-tree namespace consistency check (an in-memory fsck), used by
    /// the concurrent-metadata stress tests.  Read-locks the namespace and
    /// then the inode table, in lock order, so it can run concurrently with
    /// foreground metadata traffic and still observe an atomic snapshot.
    /// Returns one human-readable string per violation; an empty vector
    /// means the tree is consistent.
    pub fn check_namespace(&self) -> Vec<String> {
        let ns = self.ns_read();
        let inodes = self.inodes_read();
        let mut violations = Vec::new();

        // Pass 1: every directory state belongs to a directory inode, every
        // entry points at a live inode; count how often each ino is linked.
        let mut refcount: HashMap<u64, u64> = HashMap::new();
        for (&dir_ino, dir) in &ns.dirs {
            match inodes.get(&dir_ino) {
                None => violations.push(format!("dir {dir_ino}: directory state without an inode")),
                Some(inode) if !inode.is_dir() => violations.push(format!(
                    "dir {dir_ino}: directory state but inode kind is not a directory"
                )),
                Some(_) => {}
            }
            for (name, slot) in &dir.entries {
                if !inodes.contains_key(&slot.ino) {
                    violations.push(format!(
                        "dir {dir_ino}: entry {name:?} points at missing inode {}",
                        slot.ino
                    ));
                }
                *refcount.entry(slot.ino).or_insert(0) += 1;
            }
        }

        // Pass 2: link-count discipline.  Every live inode except the root
        // is referenced exactly once (no hard links in this model), except
        // unlinked-while-open orphans, which must not be referenced at all;
        // directory inodes must have directory state and files must not.
        for (&ino, inode) in inodes.iter() {
            let refs = refcount.get(&ino).copied().unwrap_or(0);
            let orphaned = ns.orphans.contains(&ino);
            let has_dir_state = ns.dirs.contains_key(&ino);
            if inode.is_dir() != has_dir_state {
                violations.push(format!(
                    "ino {ino}: inode is_dir={} but directory state present={}",
                    inode.is_dir(),
                    has_dir_state
                ));
            }
            if ino == ROOT_INO {
                continue;
            }
            if orphaned && refs != 0 {
                violations.push(format!(
                    "ino {ino}: orphaned (unlinked while open) but still linked {refs}x"
                ));
            } else if !orphaned && refs != 1 {
                violations.push(format!("ino {ino}: linked {refs}x (expected exactly 1)"));
            }
        }

        violations
    }

    /// Opens an existing inode by number, bypassing path resolution.  This
    /// models opening through the inode cache / a file handle; SplitFS's
    /// crash recovery uses it because operation-log entries reference files
    /// by inode number, not by path.
    pub fn open_by_ino(&self, ino: u64, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_syscall();
        let mut ns = self.ns_write();
        if !self.inodes_read().contains_key(&ino) {
            return Err(FsError::NotFound);
        }
        *ns.open_counts.entry(ino).or_insert(0) += 1;
        Ok(self.insert_fd(ino, flags))
    }

    /// Closes `fd` as a process's exit does, without a trap of its own:
    /// a U-Split instance going away releases the descriptors it held for
    /// its life this way.
    pub fn release(&self, fd: Fd) -> FsResult<()> {
        let file = self.fds.write().remove(&fd).ok_or(FsError::BadFd)?;
        let mut ns = self.ns_write();
        let count = ns.open_counts.entry(file.ino).or_insert(1);
        *count = count.saturating_sub(1);
        if *count == 0 {
            ns.open_counts.remove(&file.ino);
            if ns.orphans.remove(&file.ino) {
                // Last close of an unlinked file: release its storage.
                let mut inodes = self.inodes_write();
                if let Some(mut inode) = inodes.remove(&file.ino) {
                    let (mut records, runs) = self.free_inode_blocks(&mut inode);
                    records.push(JournalRecord::Unlink {
                        parent: 0,
                        name: String::new(),
                        ino: file.ino,
                        free_inode: true,
                    });
                    let txn = self.journal.commit(&records)?;
                    self.zero_inode_record(file.ino);
                    self.release_runs(&runs);
                    drop(txn);
                }
            }
        }
        Ok(())
    }

    /// Returns the inode number behind an open descriptor.
    pub fn fd_ino(&self, fd: Fd) -> FsResult<u64> {
        Ok(self.lookup_fd(fd)?.ino)
    }

    /// Returns `true` when every block of `[offset, offset+len)` is mapped
    /// (allocated) in the file.  SplitFS recovery uses this as the
    /// idempotency test for replaying a staged append: once the relink has
    /// moved the blocks out of the staging file the range is a hole and the
    /// log entry must be skipped.
    pub fn range_mapped(&self, fd: Fd, offset: u64, len: u64) -> FsResult<bool> {
        self.charge_syscall();
        let file = self.lookup_fd(fd)?;
        let inodes = self.inodes_read();
        let inode = inodes.get(&file.ino).ok_or(FsError::BadFd)?;
        if len == 0 {
            return Ok(true);
        }
        let first = offset / BLOCK_SIZE as u64;
        let count = (offset + len).div_ceil(BLOCK_SIZE as u64) - first;
        Ok(inode.extents.extract_range(first, count).is_ok())
    }

    // ------------------------------------------------------------------
    // Instance leases (multi-instance U-Split; see `lease.rs`)
    // ------------------------------------------------------------------

    /// Acquires a lease on the lowest free instance id, journaling the
    /// lease record and persisting the lease table.  The id maps onto the
    /// instance's exclusive staging directory and operation-log path
    /// ([`crate::lease::staging_dir`] / [`crate::lease::oplog_path`]).
    pub fn lease_acquire(&self) -> FsResult<u32> {
        self.charge_syscall();
        let id = self.leases.reserve().ok_or(FsError::NoSpace)?;
        if let Err(e) = self.commit_lease(id, true) {
            // Nothing was journaled or persisted: undo the in-memory
            // reservation so the id is not leaked (and in-memory state
            // keeps matching the device).
            self.leases.clear(id);
            return Err(e);
        }
        Ok(id)
    }

    /// Releases an instance lease (clean shutdown, or recovery retiring an
    /// orphan), journaling the release and persisting the lease table.
    pub fn lease_release(&self, id: u32) -> FsResult<()> {
        self.charge_syscall();
        self.leases.clear(id);
        self.commit_lease(id, false)?;
        Ok(())
    }

    /// Abandons the in-process hold on a lease without releasing the
    /// persisted record — emulates the owning process crashing.  The
    /// lease becomes an orphan: [`Ext4Dax::lease_orphans`] reports it and
    /// recovery replays its operation log before the id is reused.
    pub fn lease_abandon(&self, id: u32) {
        self.leases.abandon(id);
    }

    /// Instance ids with an active lease but no live holder — crashed
    /// instances awaiting per-instance log recovery.
    pub fn lease_orphans(&self) -> Vec<u32> {
        self.leases.orphans()
    }

    /// Atomically claims an orphaned lease for recovery (see
    /// [`LeaseManager::claim_orphan`]); the claimer replays the orphan's
    /// operation log and then calls [`Ext4Dax::lease_release`].
    pub fn lease_claim_orphan(&self, id: u32) -> bool {
        self.leases.claim_orphan(id)
    }

    /// Whether `id`'s lease is active (held by a live instance or
    /// orphaned).
    pub fn lease_is_active(&self, id: u32) -> bool {
        self.leases.is_active(id)
    }

    /// Number of active instance leases.
    pub fn lease_active_count(&self) -> usize {
        self.leases.active_count()
    }

    /// Commits the lease record and updates the in-place lease table
    /// under the transaction guard (record → fence → in-place update,
    /// like every other metadata mutation).
    fn commit_lease(&self, instance_id: u32, acquire: bool) -> FsResult<()> {
        let txn = self.journal.commit(&[JournalRecord::Lease {
            instance_id,
            acquire,
        }])?;
        self.leases.persist();
        drop(txn);
        // Journaled and persisted: recovery must now honor this lease
        // state (active or orphaned if acquired; gone if released).
        self.device.declare(pmem::Promise::LeaseJournaled {
            instance: instance_id,
            acquired: acquire,
        });
        Ok(())
    }
}

impl FileSystem for Ext4Dax {
    fn name(&self) -> String {
        "ext4-DAX".to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        ConsistencyClass::Posix
    }

    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_syscall();
        let cost = self.device.cost();
        let norm = vpath::normalized(path)?;
        if flags.create {
            check_new_name(&norm)?;
        }
        let mut ns = self.ns_write();
        let (parent, name, existing) = self.resolve_norm(&ns, &norm)?;
        let ino = match existing {
            Some(ino) => {
                if flags.exclusive && flags.create {
                    return Err(FsError::AlreadyExists);
                }
                if ns.dirs.contains_key(&ino) && (flags.write || flags.truncate) {
                    return Err(FsError::IsADirectory);
                }
                if flags.truncate {
                    let mut inodes = self.inodes_write();
                    let inode = inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
                    let mut records = vec![
                        JournalRecord::SetSize { ino, size: 0 },
                        JournalRecord::TruncateExtents {
                            ino,
                            from_logical: 0,
                        },
                    ];
                    let (free_records, runs) = self.free_inode_blocks(inode);
                    records.extend(free_records);
                    inode.size = 0;
                    let txn = self.journal.commit(&records)?;
                    self.write_inode(inode);
                    self.release_runs(&runs);
                    drop(txn);
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                let ino = ns.alloc_ino(self.sb.inode_count)?;
                self.charge(cost.ext4_inode_update_ns);
                let txn = self.journal.commit(&[JournalRecord::CreateInode {
                    ino,
                    parent,
                    name: name.to_string(),
                    is_dir: false,
                }])?;
                let mut inodes = self.inodes_write();
                inodes.insert(ino, Inode::new(ino, InodeKind::File));
                self.dir_append_entry(
                    ns.dir_mut(parent)?,
                    inode_mut(&mut inodes, parent)?,
                    name,
                    ino,
                )?;
                self.write_inode(inode_mut(&mut inodes, ino)?);
                self.write_inode(inode_mut(&mut inodes, parent)?);
                drop(txn);
                // Exact-key positive overwrite (no generation bump):
                // sibling cache entries stay live across create churn.
                self.path_cache.insert(
                    &norm,
                    PathCacheEntry {
                        parent,
                        parent_gen: ns.dir(parent)?.gen,
                        move_gen: ns.move_gen,
                        ino: Some(ino),
                    },
                );
                ino
            }
        };
        *ns.open_counts.entry(ino).or_insert(0) += 1;
        Ok(self.insert_fd(ino, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.charge_syscall();
        self.release(fd)
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.charge_syscall();
        let file = self.lookup_fd(fd)?;
        if !file.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let n = {
            let inodes = self.inodes_read();
            let inode = inodes.get(&file.ino).ok_or(FsError::BadFd)?;
            if offset >= inode.size || buf.is_empty() {
                return Ok(0);
            }
            let n = ((inode.size - offset) as usize).min(buf.len());
            let pattern = if offset == file.last_read_end {
                AccessPattern::Sequential
            } else {
                AccessPattern::Random
            };
            self.read_blocks(
                inode,
                offset,
                &mut buf[..n],
                pattern,
                TimeCategory::UserData,
            )?;
            n
        };
        self.update_fd(fd, |f| f.last_read_end = offset + n as u64);
        Ok(n)
    }

    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.vectored_write(fd, Some(offset), iov)
    }

    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let n = self.vectored_write(fd, None, iov)?;
        self.device.stats().add_appendv(iov.len() as u64);
        Ok(n)
    }

    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        self.charge_syscall();
        let cost = self.device.cost();
        let file = self.lookup_fd(fd)?;
        if !file.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let pattern = if offset == file.last_read_end {
            AccessPattern::Sequential
        } else {
            AccessPattern::Random
        };
        let inodes = self.inodes_read();
        let inode = inodes.get(&file.ino).ok_or(FsError::BadFd)?;
        if offset >= inode.size || len == 0 {
            return Ok(ReadView::Owned(Vec::new()));
        }
        let n = ((inode.size - offset) as usize).min(len);
        // Zero-copy when one physical extent covers the whole range: the
        // bytes are served straight from the DAX-mapped blocks with no
        // memcpy, exactly what a load from the mapping would do.
        let block = offset / BLOCK_SIZE as u64;
        let within = offset % BLOCK_SIZE as u64;
        self.charge(cost.ext4_extent_lookup_ns);
        let direct = inode.extents.lookup(block).and_then(|(phys, contig)| {
            let contig_bytes = contig * BLOCK_SIZE as u64 - within;
            if contig_bytes >= n as u64 {
                Some(phys * BLOCK_SIZE as u64 + within)
            } else {
                None
            }
        });
        self.update_fd(fd, |f| f.last_read_end = offset + n as u64);
        if let Some(dev_off) = direct {
            if let Some(view) =
                self.device
                    .try_read_view(dev_off, n, pattern, TimeCategory::UserData)
            {
                return Ok(ReadView::Mapped(view));
            }
        }
        // Multi-extent range or hole: fall back to an owned copy.
        let mut buf = vec![0u8; n];
        self.read_blocks(inode, offset, &mut buf, pattern, TimeCategory::UserData)?;
        Ok(ReadView::Owned(buf))
    }

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        if fds.is_empty() {
            return Ok(());
        }
        // One trap and one forced jbd2 commit cover the whole set: the
        // running transaction holds every descriptor's metadata, so forcing
        // it once is exactly what `fsync`-ing them back to back would have
        // paid M times.
        self.charge_syscall();
        let cost = self.device.cost();
        for &fd in fds {
            self.lookup_fd(fd)?;
        }
        self.device.fence(TimeCategory::UserData);
        self.charge(cost.ext4_journal_txn_ns + 8.0 * cost.ext4_journal_per_block_ns);
        self.device
            .charge_write_traffic(2 * BLOCK_SIZE, TimeCategory::Journal);
        self.device.fence(TimeCategory::Journal);
        self.device.stats().add_journal_txn();
        self.device.stats().add_fsync_many(fds.len() as u64);
        Ok(())
    }

    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        // Data writes were issued with non-temporal stores and metadata is
        // journaled at operation time, so data durability needs only the
        // trap and a fence — the jbd2 forcing that makes `fsync` expensive
        // (Table 6) is skipped.
        self.charge_syscall();
        self.lookup_fd(fd)?;
        self.device.fence(TimeCategory::UserData);
        Ok(())
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let offset = self.lookup_fd(fd)?.offset;
        let n = self.read_at(fd, offset, buf)?;
        self.update_fd(fd, |f| f.offset = offset + n as u64);
        Ok(n)
    }

    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let file = self.lookup_fd(fd)?;
        if file.flags.append {
            // O_APPEND: resolve the end of file under the inode-table lock, so
            // concurrent appenders never interleave.
            let n = self.vectored_write(fd, None, &[IoVec::new(data)])?;
            let size = {
                let inodes = self.inodes_read();
                inodes.get(&file.ino).map(|i| i.size).unwrap_or(0)
            };
            self.update_fd(fd, |f| f.offset = size);
            return Ok(n);
        }
        let offset = file.offset;
        let n = self.write_at(fd, offset, data)?;
        self.update_fd(fd, |f| f.offset = offset + n as u64);
        Ok(n)
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.charge_syscall();
        let file = self.lookup_fd(fd)?;
        let size = {
            let inodes = self.inodes_read();
            inodes.get(&file.ino).ok_or(FsError::BadFd)?.size
        };
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => file.offset as i128 + d as i128,
            SeekFrom::End(d) => size as i128 + d as i128,
        };
        if new < 0 {
            return Err(FsError::InvalidArgument);
        }
        let new = new as u64;
        self.update_fd(fd, |f| f.offset = new);
        Ok(new)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.charge_syscall();
        let cost = self.device.cost();
        self.lookup_fd(fd)?;
        // Data writes were issued with non-temporal stores; the fence pushes
        // anything still pending into the persistence domain.
        self.device.fence(TimeCategory::UserData);
        // fsync on ext4 also forces the running jbd2 transaction to commit:
        // the handle wait, commit record and metadata buffer flushes are
        // what make ext4 DAX fsync so much more expensive than SplitFS's
        // relink-based fsync (paper Table 6).
        self.charge(cost.ext4_journal_txn_ns + 8.0 * cost.ext4_journal_per_block_ns);
        self.device
            .charge_write_traffic(2 * BLOCK_SIZE, TimeCategory::Journal);
        self.device.fence(TimeCategory::Journal);
        self.device.stats().add_journal_txn();
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.charge_syscall();
        let cost = self.device.cost();
        let file = self.lookup_fd(fd)?;
        let ino = file.ino;
        let mut inodes = self.inodes_write();
        let inode = inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
        let old_size = inode.size;
        self.charge(cost.ext4_inode_update_ns);
        if size < old_size {
            let from_block = size.div_ceil(BLOCK_SIZE as u64);
            inode.size = size;
            let freed = inode.extents.truncate_from(from_block);
            // POSIX: bytes between the new EOF and the end of its block must
            // read as zero if the file is later extended, so the partial
            // tail block is zeroed (as ext4 does on truncate).
            let within = size % BLOCK_SIZE as u64;
            if within != 0 {
                if let Some((phys, _)) = inode.extents.lookup(size / BLOCK_SIZE as u64) {
                    self.device.zero(
                        phys * BLOCK_SIZE as u64 + within,
                        (BLOCK_SIZE as u64 - within) as usize,
                        PersistMode::NonTemporal,
                        TimeCategory::Metadata,
                    );
                }
            }
            let mut records = vec![
                JournalRecord::SetSize { ino, size },
                JournalRecord::TruncateExtents {
                    ino,
                    from_logical: from_block,
                },
            ];
            for run in &freed {
                records.push(JournalRecord::FreeBlocks {
                    start: run.start,
                    len: run.len,
                });
            }
            let txn = self.journal.commit(&records)?;
            self.write_inode(inode);
            self.release_runs(&freed);
            drop(txn);
        } else if size > old_size {
            // Eager allocation on extension; SplitFS relies on this to
            // pre-allocate staging files.
            self.allocate_range(inode, old_size, size - old_size)?;
            self.zero_past_eof(inode, old_size, size);
            let txn = self
                .journal
                .commit(&[JournalRecord::SetSize { ino, size }])?;
            inode.size = size;
            self.write_inode(inode);
            drop(txn);
        } else {
            self.write_inode(inode);
        }
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.charge_syscall();
        let file = self.lookup_fd(fd)?;
        let inodes = self.inodes_read();
        let inode = inodes.get(&file.ino).ok_or(FsError::BadFd)?;
        Ok(FileStat {
            ino: inode.ino,
            size: inode.size,
            blocks: inode.mapped_blocks(),
            is_dir: inode.is_dir(),
            nlink: inode.nlink,
        })
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.charge_syscall();
        let norm = vpath::normalized(path)?;
        let ino = if norm == "/" {
            ROOT_INO
        } else {
            let (_, _, existing) = self.resolve_norm(&self.ns_read(), &norm)?;
            existing.ok_or(FsError::NotFound)?
        };
        let inodes = self.inodes_read();
        let inode = inodes.get(&ino).ok_or(FsError::NotFound)?;
        Ok(FileStat {
            ino: inode.ino,
            size: inode.size,
            blocks: inode.mapped_blocks(),
            is_dir: inode.is_dir(),
            nlink: inode.nlink,
        })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let norm = vpath::normalized(path)?;
        let mut ns = self.ns_write();
        let ns = &mut *ns;
        let (parent, name, existing) = self.resolve_norm(ns, &norm)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        if ns.dirs.contains_key(&ino) {
            return Err(FsError::IsADirectory);
        }
        let mut inodes = self.inodes_write();
        self.dir_remove_entry(ns.dir_mut(parent)?, inode_ref(&inodes, parent)?, name)?;
        if ns.open_counts.get(&ino).copied().unwrap_or(0) > 0 {
            ns.orphans.insert(ino);
            let txn = self.journal.commit(&[JournalRecord::Unlink {
                parent,
                name: name.to_string(),
                ino,
                free_inode: false,
            }])?;
            self.write_inode(inode_mut(&mut inodes, parent)?);
            drop(txn);
        } else {
            let (mut records, runs) = self.free_inode_blocks(inode_mut(&mut inodes, ino)?);
            records.push(JournalRecord::Unlink {
                parent,
                name: name.to_string(),
                ino,
                free_inode: true,
            });
            let txn = self.journal.commit(&records)?;
            inodes.remove(&ino);
            self.zero_inode_record(ino);
            self.write_inode(inode_mut(&mut inodes, parent)?);
            self.release_runs(&runs);
            drop(txn);
        }
        // Negative entry filled after the gen bump: the next
        // create-then-open of this exact path still misses once, but repeat
        // lookups of a deleted path (create-heavy churn probing for
        // collisions) hit.
        self.path_cache.insert(
            &norm,
            PathCacheEntry {
                parent,
                parent_gen: ns.dir(parent)?.gen,
                move_gen: ns.move_gen,
                ino: None,
            },
        );
        Ok(())
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.charge_syscall();
        let old_norm = vpath::normalized(old)?;
        let new_norm = vpath::normalized(new)?;
        check_new_name(&new_norm)?;
        let mut ns = self.ns_write();
        let ns = &mut *ns;
        let (old_parent, old_name, old_ino) = self.resolve_norm(ns, &old_norm)?;
        let ino = old_ino.ok_or(FsError::NotFound)?;
        let (new_parent, new_name, new_existing) = self.resolve_norm(ns, &new_norm)?;
        let replaced_ino = new_existing.unwrap_or(0);
        if replaced_ino == ino {
            return Ok(());
        }
        if replaced_ino != 0 && ns.dirs.contains_key(&replaced_ino) {
            return Err(FsError::IsADirectory);
        }
        // A directory move changes the meaning of every path beneath it:
        // bump the directory-move generation, which every cached deep path
        // is pinned to.
        if ns.dirs.contains_key(&ino) {
            ns.move_gen += 1;
        }

        let mut inodes = self.inodes_write();
        let mut records = vec![JournalRecord::Rename {
            old_parent,
            old_name: old_name.to_string(),
            new_parent,
            new_name: new_name.to_string(),
            ino,
            replaced_ino,
        }];
        let mut freed_runs = Vec::new();
        if replaced_ino != 0 {
            let (free_records, runs) =
                self.free_inode_blocks(inode_mut(&mut inodes, replaced_ino)?);
            records.extend(free_records);
            freed_runs = runs;
        }
        let txn = self.journal.commit(&records)?;

        self.dir_remove_entry(
            ns.dir_mut(old_parent)?,
            inode_ref(&inodes, old_parent)?,
            old_name,
        )?;
        if replaced_ino != 0 {
            self.dir_remove_entry(
                ns.dir_mut(new_parent)?,
                inode_ref(&inodes, new_parent)?,
                new_name,
            )?;
            inodes.remove(&replaced_ino);
            self.zero_inode_record(replaced_ino);
        }
        self.dir_append_entry(
            ns.dir_mut(new_parent)?,
            inode_mut(&mut inodes, new_parent)?,
            new_name,
            ino,
        )?;
        self.write_inode(inode_mut(&mut inodes, old_parent)?);
        self.write_inode(inode_mut(&mut inodes, new_parent)?);
        self.release_runs(&freed_runs);
        drop(txn);
        // Refresh both endpoints (a directory move uses the bumped
        // generation, so its own fills survive it).
        for (norm, parent, ino) in [
            (&old_norm, old_parent, None),
            (&new_norm, new_parent, Some(ino)),
        ] {
            self.path_cache.insert(
                norm,
                PathCacheEntry {
                    parent,
                    parent_gen: ns.dir(parent)?.gen,
                    move_gen: ns.move_gen,
                    ino,
                },
            );
        }
        Ok(())
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let norm = vpath::normalized(path)?;
        check_new_name(&norm)?;
        let mut ns = self.ns_write();
        let ns = &mut *ns;
        let (parent, name, existing) = self.resolve_norm(ns, &norm)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let ino = ns.alloc_ino(self.sb.inode_count)?;
        let txn = self.journal.commit(&[JournalRecord::CreateInode {
            ino,
            parent,
            name: name.to_string(),
            is_dir: true,
        }])?;
        let mut inodes = self.inodes_write();
        inodes.insert(ino, Inode::new(ino, InodeKind::Directory));
        ns.dirs.insert(ino, DirState::default());
        self.dir_append_entry(
            ns.dir_mut(parent)?,
            inode_mut(&mut inodes, parent)?,
            name,
            ino,
        )?;
        self.write_inode(inode_mut(&mut inodes, ino)?);
        self.write_inode(inode_mut(&mut inodes, parent)?);
        drop(txn);
        self.path_cache.insert(
            &norm,
            PathCacheEntry {
                parent,
                parent_gen: ns.dir(parent)?.gen,
                move_gen: ns.move_gen,
                ino: Some(ino),
            },
        );
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let norm = vpath::normalized(path)?;
        let mut ns = self.ns_write();
        let ns = &mut *ns;
        let (parent, name, existing) = self.resolve_norm(ns, &norm)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        match ns.dirs.get(&ino) {
            None => return Err(FsError::NotADirectory),
            Some(dir) if !dir.entries.is_empty() => return Err(FsError::NotEmpty),
            Some(_) => {}
        }
        let mut inodes = self.inodes_write();
        self.dir_remove_entry(ns.dir_mut(parent)?, inode_ref(&inodes, parent)?, name)?;
        let (mut records, runs) = self.free_inode_blocks(inode_mut(&mut inodes, ino)?);
        records.push(JournalRecord::Unlink {
            parent,
            name: name.to_string(),
            ino,
            free_inode: true,
        });
        let txn = self.journal.commit(&records)?;
        inodes.remove(&ino);
        // No directory-move bump needed: cached descendants carry
        // `parent == ino`, and inos are never reused, so the missing
        // `DirState` fails their validation probe forever after.
        ns.dirs.remove(&ino);
        self.zero_inode_record(ino);
        self.write_inode(inode_mut(&mut inodes, parent)?);
        self.release_runs(&runs);
        drop(txn);
        self.path_cache.insert(
            &norm,
            PathCacheEntry {
                parent,
                parent_gen: ns.dir(parent)?.gen,
                move_gen: ns.move_gen,
                ino: None,
            },
        );
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.charge_syscall();
        let norm = vpath::normalized(path)?;
        let ns = self.ns_read();
        let ino = if norm == "/" {
            ROOT_INO
        } else {
            let (_, _, existing) = self.resolve_norm(&ns, &norm)?;
            existing.ok_or(FsError::NotFound)?
        };
        Ok(ns.dir(ino)?.entries.keys().cloned().collect())
    }

    fn sync(&self) -> FsResult<()> {
        self.charge_syscall();
        self.device.fence(TimeCategory::Metadata);
        Ok(())
    }
}

/// The single move the kernel tests relink: one [`RelinkOp`] through
/// [`Ext4Dax::ioctl_relink_batch`].
#[cfg(test)]
impl Ext4Dax {
    fn relink(
        &self,
        src_fd: Fd,
        src_offset: u64,
        dst_fd: Fd,
        dst_offset: u64,
        len: u64,
    ) -> FsResult<()> {
        let op = RelinkOp {
            src_fd,
            src_offset,
            dst_fd,
            dst_offset,
            len,
        };
        self.ioctl_relink_batch(&[op], &[]).map(|_| ())
    }
}

#[cfg(test)]
mod persist_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn fs() -> Arc<Ext4Dax> {
        let device = PmemBuilder::new(256 * 1024 * 1024).build();
        Ext4Dax::mkfs(device).unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        let fs = fs();
        let fd = fs.open("/a.txt", OpenFlags::create()).unwrap();
        let data = b"hello persistent memory".to_vec();
        assert_eq!(fs.write_at(fd, 0, &data).unwrap(), data.len());
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.read_at(fd, 0, &mut buf).unwrap(), data.len());
        assert_eq!(buf, data);
        assert_eq!(fs.fstat(fd).unwrap().size, data.len() as u64);
        fs.close(fd).unwrap();
    }

    #[test]
    fn open_missing_without_create_fails() {
        let fs = fs();
        assert_eq!(
            fs.open("/missing", OpenFlags::read_only()),
            Err(FsError::NotFound)
        );
    }

    #[test]
    fn relink_moves_blocks_without_copy() {
        let fs = fs();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let target = fs.open("/target", OpenFlags::create()).unwrap();
        // Write two blocks of recognizable data into the staging file.
        let block_a = vec![0xAAu8; BLOCK_SIZE];
        let block_b = vec![0xBBu8; BLOCK_SIZE];
        fs.write_at(staging, 0, &block_a).unwrap();
        fs.write_at(staging, BLOCK_SIZE as u64, &block_b).unwrap();

        let written_before = fs.device().stats().snapshot().total_bytes_written();
        fs.relink(staging, 0, target, 0, 2 * BLOCK_SIZE as u64)
            .unwrap();
        let delta = fs.device().stats().snapshot().total_bytes_written() - written_before;
        // Only metadata (inode records, journal, bitmap) is written; the
        // 8 KiB of data must not be copied.
        assert!(
            delta < BLOCK_SIZE as u64,
            "relink wrote {delta} bytes; expected metadata only"
        );

        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read_at(target, 0, &mut buf).unwrap();
        assert_eq!(buf, block_a);
        fs.read_at(target, BLOCK_SIZE as u64, &mut buf).unwrap();
        assert_eq!(buf, block_b);
        assert_eq!(fs.fstat(target).unwrap().size, 2 * BLOCK_SIZE as u64);
        // The staging range is now a hole.
        assert_eq!(fs.fstat(staging).unwrap().blocks, 0);
    }

    #[test]
    fn relink_batch_moves_many_extents_in_one_transaction() {
        let fs = fs();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let a = fs.open("/a", OpenFlags::create()).unwrap();
        let b = fs.open("/b", OpenFlags::create()).unwrap();
        // Four distinct blocks of staged data.
        for i in 0..4u8 {
            fs.write_at(
                staging,
                i as u64 * BLOCK_SIZE as u64,
                &vec![0x10 + i; BLOCK_SIZE],
            )
            .unwrap();
        }
        let before = fs.device().stats().snapshot();
        let sizes = fs
            .ioctl_relink_batch(
                &[
                    RelinkOp {
                        src_fd: staging,
                        src_offset: 0,
                        dst_fd: a,
                        dst_offset: 0,
                        len: 2 * BLOCK_SIZE as u64,
                    },
                    RelinkOp {
                        src_fd: staging,
                        src_offset: 2 * BLOCK_SIZE as u64,
                        dst_fd: b,
                        dst_offset: 0,
                        len: 2 * BLOCK_SIZE as u64,
                    },
                ],
                &[],
            )
            .unwrap();
        let two_blocks = 2 * BLOCK_SIZE as u64;
        assert_eq!(sizes, [(a, two_blocks), (b, two_blocks)]);
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.kernel_traps, 1, "one syscall for the whole batch");
        assert_eq!(delta.batched_relinks, 1);
        assert_eq!(delta.relink_batch_ops, 2);
        // No data was copied.
        assert!(delta.written(TimeCategory::UserData) == 0);
        let mut buf = vec![0u8; BLOCK_SIZE];
        fs.read_at(a, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0x10));
        fs.read_at(b, BLOCK_SIZE as u64, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0x13));
        // Staging ranges became holes.
        assert_eq!(fs.fstat(staging).unwrap().blocks, 0);
    }

    #[test]
    fn relink_batch_validates_before_mutating() {
        let fs = fs();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let target = fs.open("/t", OpenFlags::create()).unwrap();
        fs.write_at(staging, 0, &vec![9u8; BLOCK_SIZE]).unwrap();
        // Second op references an unmapped source range, so the whole batch
        // must be rejected with the first op not applied.
        let err = fs.ioctl_relink_batch(
            &[
                RelinkOp {
                    src_fd: staging,
                    src_offset: 0,
                    dst_fd: target,
                    dst_offset: 0,
                    len: BLOCK_SIZE as u64,
                },
                RelinkOp {
                    src_fd: staging,
                    src_offset: 64 * BLOCK_SIZE as u64,
                    dst_fd: target,
                    dst_offset: BLOCK_SIZE as u64,
                    len: BLOCK_SIZE as u64,
                },
            ],
            &[],
        );
        assert!(err.is_err());
        assert_eq!(fs.fstat(target).unwrap().size, 0);
        assert_eq!(fs.fstat(staging).unwrap().blocks, 1, "source untouched");
    }

    #[test]
    fn a_move_of_more_extents_than_one_record_holds_fails_before_moving() {
        let fs = fs();
        let b = BLOCK_SIZE as u64;
        let n = MAX_RANGE_EXTENTS as u64 + 1;
        // A file of `n` blocks whose every block is its own extent: its
        // even blocks are relinked in from a staging file, one move each.
        let frag = fs.open("/frag", OpenFlags::create()).unwrap();
        fs.ftruncate(frag, n * b).unwrap();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        fs.ftruncate(staging, n.div_ceil(2) * b).unwrap();
        let moves: Vec<RelinkOp> = (0..n.div_ceil(2))
            .map(|i| RelinkOp {
                src_fd: staging,
                src_offset: i * b,
                dst_fd: frag,
                dst_offset: 2 * i * b,
                len: b,
            })
            .collect();
        fs.ioctl_relink_batch(&moves, &[]).unwrap();
        let extents = |fd| {
            let ino = fs.fd_ino(fd).unwrap();
            fs.inodes_read()[&ino].extents.len()
        };
        assert_eq!(extents(frag), n as usize);

        let target = fs.open("/t", OpenFlags::create()).unwrap();
        let all = same_offset(frag, target, 0, n * b);
        let before = fs.device().stats().snapshot();
        assert_eq!(fs.ioctl_relink_batch(&[all], &[]), Err(FsError::NoSpace));
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.journal_txns, 0);
        assert_eq!(extents(frag), n as usize, "source untouched");
        assert_eq!(fs.fstat(target).unwrap().size, 0);
        // One extent fewer fits one record.
        let most = same_offset(frag, target, 0, (n - 1) * b);
        fs.ioctl_relink_batch(&[most], &[]).unwrap();
        assert_eq!(extents(target), n as usize - 1);
        assert_eq!(extents(frag), 1);
        assert_eq!(fs.check_namespace(), Vec::<String>::new());
    }

    #[test]
    fn crash_after_relink_batch_preserves_every_move() {
        let device = PmemBuilder::new(256 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let a = fs.open("/a", OpenFlags::create()).unwrap();
        let b = fs.open("/b", OpenFlags::create()).unwrap();
        let pa = vec![1u8; BLOCK_SIZE];
        let pb = vec![2u8; BLOCK_SIZE];
        fs.write_at(staging, 0, &pa).unwrap();
        fs.write_at(staging, BLOCK_SIZE as u64, &pb).unwrap();
        fs.fsync(staging).unwrap();
        fs.ioctl_relink_batch(
            &[
                RelinkOp {
                    src_fd: staging,
                    src_offset: 0,
                    dst_fd: a,
                    dst_offset: 0,
                    len: BLOCK_SIZE as u64,
                },
                RelinkOp {
                    src_fd: staging,
                    src_offset: BLOCK_SIZE as u64,
                    dst_fd: b,
                    dst_offset: 0,
                    len: BLOCK_SIZE as u64,
                },
            ],
            &[],
        )
        .unwrap();

        device.crash();
        let fs2 = Ext4Dax::mount(device).unwrap();
        assert_eq!(fs2.read_file("/a").unwrap(), pa);
        assert_eq!(fs2.read_file("/b").unwrap(), pb);
    }

    #[test]
    fn relink_rejects_unaligned_requests() {
        let fs = fs();
        let a = fs.open("/a", OpenFlags::create()).unwrap();
        let b = fs.open("/b", OpenFlags::create()).unwrap();
        assert_eq!(
            fs.relink(a, 10, b, 0, BLOCK_SIZE as u64),
            Err(FsError::InvalidArgument)
        );
    }

    #[test]
    fn crash_after_relink_preserves_the_move() {
        let device = PmemBuilder::new(256 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let target = fs.open("/t", OpenFlags::create()).unwrap();
        let payload = vec![7u8; BLOCK_SIZE];
        fs.write_at(staging, 0, &payload).unwrap();
        fs.fsync(staging).unwrap();
        fs.relink(staging, 0, target, 0, BLOCK_SIZE as u64).unwrap();

        device.crash();
        let fs2 = Ext4Dax::mount(device).unwrap();
        let data = fs2.read_file("/t").unwrap();
        assert_eq!(data, payload);
    }

    #[test]
    fn truncate_to_unaligned_size_zeroes_the_block_tail() {
        // Regression test: shrink to a mid-block size, then extend the file
        // past that point; the bytes between the truncation point and the
        // old data must read as zero.
        let fs = fs();
        let fd = fs.open("/t.bin", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![0xAAu8; 2 * BLOCK_SIZE]).unwrap();
        fs.ftruncate(fd, 5000).unwrap();
        // Extend far past the old end with a sparse write.
        fs.write_at(fd, 3 * BLOCK_SIZE as u64, b"tail").unwrap();
        let mut buf = vec![0xFFu8; 1000];
        fs.read_at(fd, 5000, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0),
            "bytes beyond the truncation point must be zero"
        );
        let mut head = vec![0u8; 5000];
        fs.read_at(fd, 0, &mut head).unwrap();
        assert!(head.iter().all(|&b| b == 0xAA));
        fs.close(fd).unwrap();
    }

    #[test]
    fn appendv_gathers_slices_with_one_trap_and_one_size_commit() {
        let fs = fs();
        let fd = fs.open("/v.bin", OpenFlags::create()).unwrap();
        let parts: [&[u8]; 3] = [&[1u8; 100], &[2u8; 4096], &[3u8; 17]];
        let iov: Vec<IoVec<'_>> = parts.iter().map(|p| IoVec::new(p)).collect();
        let before = fs.device().stats().snapshot();
        assert_eq!(fs.appendv(fd, &iov).unwrap(), 100 + 4096 + 17);
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.kernel_traps, 1, "one trap for the whole gather");
        assert_eq!(delta.appendv_calls, 1);
        assert_eq!(delta.appendv_slices, 3);

        // The gathered bytes are logically contiguous.
        let mut expected = Vec::new();
        for p in parts {
            expected.extend_from_slice(p);
        }
        assert_eq!(fs.read_file("/v.bin").unwrap(), expected);

        // A second appendv lands exactly after the first (EOF resolved
        // under the same lock as the write).
        fs.appendv(fd, &[IoVec::new(&[9u8; 10])]).unwrap();
        assert_eq!(fs.fstat(fd).unwrap().size, (100 + 4096 + 17 + 10) as u64);
    }

    #[test]
    fn concurrent_appends_never_overlap() {
        let fs = fs();
        let fd = fs.open("/race.bin", OpenFlags::create()).unwrap();
        let fs2 = Arc::clone(&fs);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let fs = Arc::clone(&fs2);
                scope.spawn(move || {
                    for _ in 0..50 {
                        fs.append(fd, &[t + 1; 64]).unwrap();
                    }
                });
            }
        });
        let data = fs.read_file("/race.bin").unwrap();
        assert_eq!(data.len(), 4 * 50 * 64, "no append may overwrite another");
        // Every 64-byte record is homogeneous: interleaved-at-overlapping-
        // offsets appends would tear records.
        for rec in data.chunks(64) {
            assert!(rec.iter().all(|&b| b == rec[0]), "torn append record");
        }
    }

    #[test]
    fn concurrent_distinct_file_appends_stay_isolated() {
        // Eight threads, eight files, every append and fsync racing the
        // others for the one inode table.  Each file's contents must come
        // out intact and in order.
        let fs = fs();
        let fds: Vec<Fd> = (0..8)
            .map(|t| {
                fs.open(&format!("/shard-{t}.bin"), OpenFlags::create())
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for (t, &fd) in fds.iter().enumerate() {
                let fs = Arc::clone(&fs);
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let mut rec = vec![t as u8 + 1; 256];
                        rec[0] = (i % 251) as u8;
                        fs.append(fd, &rec).unwrap();
                    }
                    fs.fsync(fd).unwrap();
                });
            }
        });
        for (t, &fd) in fds.iter().enumerate() {
            let data = fs.read_file(&format!("/shard-{t}.bin")).unwrap();
            assert_eq!(data.len(), 64 * 256, "file {t}");
            for (i, rec) in data.chunks(256).enumerate() {
                assert_eq!(rec[0], (i as u64 % 251) as u8, "file {t} record {i} order");
                assert!(
                    rec[1..].iter().all(|&b| b == t as u8 + 1),
                    "file {t} record {i} torn"
                );
            }
            fs.close(fd).unwrap();
        }
    }

    #[test]
    fn concurrent_relink_batches_on_disjoint_files() {
        // Relink batches for disjoint file pairs must be able to run
        // concurrently and land all moves intact.
        let fs = fs();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let fs = Arc::clone(&fs);
                scope.spawn(move || {
                    let staging = fs
                        .open(&format!("/stage-{t}"), OpenFlags::create())
                        .unwrap();
                    let target = fs.open(&format!("/tgt-{t}"), OpenFlags::create()).unwrap();
                    for round in 0..8u64 {
                        let fill = (t * 16 + round + 1) as u8;
                        fs.write_at(staging, round * BLOCK_SIZE as u64, &vec![fill; BLOCK_SIZE])
                            .unwrap();
                        fs.relink(
                            staging,
                            round * BLOCK_SIZE as u64,
                            target,
                            round * BLOCK_SIZE as u64,
                            BLOCK_SIZE as u64,
                        )
                        .unwrap();
                    }
                });
            }
        });
        for t in 0..4u64 {
            let data = fs.read_file(&format!("/tgt-{t}")).unwrap();
            assert_eq!(data.len(), 8 * BLOCK_SIZE);
            for (round, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
                let fill = (t * 16 + round as u64 + 1) as u8;
                assert!(chunk.iter().all(|&b| b == fill), "file {t} round {round}");
            }
        }
    }

    #[test]
    fn read_view_is_zero_copy_for_extent_contiguous_ranges() {
        let fs = fs();
        let fd = fs.open("/view.bin", OpenFlags::create()).unwrap();
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        fs.write_at(fd, 0, &data).unwrap();
        let before = fs.device().stats().snapshot();
        let view = fs.read_view(fd, 100, 4000).unwrap();
        assert!(view.is_zero_copy(), "single-extent range must borrow");
        assert_eq!(&*view, &data[100..4100]);
        drop(view);
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.zero_copy_read_bytes, 4000);

        // Clipped at end of file, empty past it.
        assert_eq!(fs.read_view(fd, 8000, 1000).unwrap().len(), 192);
        assert!(fs.read_view(fd, 9000, 10).unwrap().is_empty());
    }

    #[test]
    fn a_write_past_the_end_of_file_leaves_zeroes_in_the_gap() {
        // A device small enough that its data blocks are all written once:
        // they go back to the allocator full of old bytes ...
        let fs = Ext4Dax::mkfs(PmemBuilder::new(16 * 1024 * 1024).build()).unwrap();
        let mut filled = 0;
        let fd = fs.open("/old", OpenFlags::create()).unwrap();
        while fs.write_at(fd, filled, &[0xEEu8; 64 * 1024]).is_ok() {
            filled += 64 * 1024;
        }
        assert!(filled > 0);
        fs.close(fd).unwrap();
        fs.unlink("/old").unwrap();
        // ... and come out again under a file written with gaps: inside a
        // new block, behind the old tail, and across a hole.
        let fd = fs.open("/gaps", OpenFlags::create()).unwrap();
        fs.write_at(fd, 300, &[1u8; 100]).unwrap();
        fs.write_at(fd, 1000, &[2u8; 100]).unwrap();
        fs.write_at(fd, 3 * 4096 + 7, &[3u8; 100]).unwrap();
        let mut expected = vec![0u8; 3 * 4096 + 107];
        expected[300..400].fill(1);
        expected[1000..1100].fill(2);
        expected[3 * 4096 + 7..].fill(3);
        assert_eq!(fs.read_file("/gaps").unwrap(), expected);
    }

    /// A device that held 0xEE in every byte before `mkfs`: its blocks come
    /// out of the allocator full of stale bytes.
    fn stale_fs() -> Arc<Ext4Dax> {
        let size = 16 * 1024 * 1024;
        let device = PmemBuilder::new(size).track_persistence(false).build();
        device.write_uncharged(0, &vec![0xEE; size]);
        Ext4Dax::mkfs(device).unwrap()
    }

    #[test]
    fn a_growing_truncate_zeroes_the_rest_of_the_old_last_block() {
        let fs = stale_fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &[1u8; 1024]).unwrap();
        fs.ftruncate(fd, 8192).unwrap();
        let mut buf = vec![0xFFu8; 3072];
        assert_eq!(fs.read_at(fd, 1024, &mut buf).unwrap(), 3072);
        assert!(
            buf.iter().all(|&b| b == 0),
            "the old block's stale bytes show"
        );
    }

    #[test]
    fn a_relink_past_the_old_last_block_zeroes_its_rest() {
        let fs = stale_fs();
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        fs.write_at(staging, 0, &[2u8; BLOCK_SIZE]).unwrap();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &[1u8; 1024]).unwrap();
        fs.relink(staging, 0, fd, 8192, BLOCK_SIZE as u64).unwrap();
        let mut want = vec![0u8; 8192 + BLOCK_SIZE];
        want[..1024].fill(1);
        want[8192..].fill(2);
        assert_eq!(fs.read_file("/f").unwrap(), want);
    }

    /// A staging file holding `3 * BLOCK_SIZE` bytes that differ by offset,
    /// and a target holding 1000 bytes of 7.
    fn staged_pair(fs: &Ext4Dax) -> (Fd, Fd, Vec<u8>) {
        let staging = fs.open("/staging", OpenFlags::create()).unwrap();
        let staged: Vec<u8> = (0..3 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fs.write_at(staging, 0, &staged).unwrap();
        let target = fs.open("/t", OpenFlags::create()).unwrap();
        fs.write_at(target, 0, &[7u8; 1000]).unwrap();
        (staging, target, staged)
    }

    /// `len` bytes at `offset` of `src`, to the same offset of `dst`.
    fn same_offset(src: Fd, dst: Fd, offset: u64, len: u64) -> RelinkOp {
        RelinkOp {
            src_fd: src,
            src_offset: offset,
            dst_fd: dst,
            dst_offset: offset,
            len,
        }
    }

    #[test]
    fn relink_batch_copies_partial_blocks_beside_its_moves() {
        let device = PmemBuilder::new(64 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let (staging, target, staged) = staged_pair(&fs);
        let b = BLOCK_SIZE as u64;
        let op = |offset, len| same_offset(staging, target, offset, len);
        // [1000, 2b + 1100): a head into the target's block, a moved block,
        // a tail into a block the batch allocates.
        let before = fs.device().stats().snapshot();
        let sizes = fs
            .ioctl_relink_batch(&[op(b, b)], &[op(1000, b - 1000), op(2 * b, 1100)])
            .unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(sizes, [(target, 2 * b + 1100)]);
        assert_eq!(delta.kernel_traps, 1);
        assert_eq!(delta.journal_txns, 1);
        assert_eq!((delta.batched_relinks, delta.relink_batch_ops), (1, 1));
        assert_eq!(delta.written(TimeCategory::UserData), b - 1000 + 1100);

        let want = [&[7u8; 1000][..], &staged[1000..2 * BLOCK_SIZE + 1100]].concat();
        assert_eq!(fs.read_file("/t").unwrap(), want);
        assert_eq!(fs.fstat(target).unwrap().size, 2 * b + 1100);
        // The moved block left the staging file; the copied ones stay.
        assert_eq!(fs.fstat(staging).unwrap().blocks, 2);
        device.crash();
        let fs = Ext4Dax::mount(device).unwrap();
        assert_eq!(fs.read_file("/t").unwrap(), want);
    }

    #[test]
    fn relink_batch_rejects_bad_copies_before_mutating() {
        let fs = fs();
        let (staging, target, _) = staged_pair(&fs);
        let b = BLOCK_SIZE as u64;
        let op = |offset, len| same_offset(staging, target, offset, len);
        let unchanged = |fs: &Ext4Dax| {
            assert_eq!(fs.read_file("/t").unwrap(), vec![7u8; 1000]);
            assert_eq!(fs.fstat(staging).unwrap().blocks, 3, "source untouched");
        };
        // A copy out of a hole of the source.
        assert_eq!(
            fs.ioctl_relink_batch(&[op(b, b)], &[op(3 * b + 10, 20)]),
            Err(FsError::InvalidArgument)
        );
        unchanged(&fs);
        // A copy into the range a move of the batch writes.
        assert_eq!(
            fs.ioctl_relink_batch(&[op(b, b)], &[op(2 * b - 10, 20)]),
            Err(FsError::InvalidArgument)
        );
        unchanged(&fs);
        // A copy whose source does not read back.
        let ino = fs.fd_ino(staging).unwrap();
        let (phys, _) = fs.inodes_read()[&ino].extents.lookup(2).unwrap();
        fs.device().poison_range(phys * b + 500, 8);
        match fs.ioctl_relink_batch(&[op(b, b)], &[op(2 * b, 1100)]) {
            Err(FsError::Io(msg)) => assert!(msg.contains("media read error"), "{msg}"),
            other => panic!("a batch over a poisoned source returned {other:?}"),
        }
        unchanged(&fs);
        fs.device().clear_poison();
        fs.ioctl_relink_batch(&[op(b, b)], &[op(2 * b, 1100)])
            .unwrap();
        assert_eq!(fs.fstat(target).unwrap().size, 2 * b + 1100);
    }

    #[test]
    fn a_mount_drops_the_entries_whose_tombstones_tore() {
        let device = PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        for name in ["/moved", "/gone", "/kept"] {
            fs.write_file(name, name.as_bytes()).unwrap();
        }
        // Where each entry sits on the device, before it is unlinked.
        let entry = |name: &str| {
            let slot = fs.ns_read().dirs[&ROOT_INO].entries[name];
            let b = BLOCK_SIZE as u64;
            let (phys, _) = fs.inodes_read()[&ROOT_INO]
                .extents
                .lookup(slot.entry_offset / b)
                .unwrap();
            (slot, phys * b + slot.entry_offset % b)
        };
        let torn = [entry("moved"), entry("gone")];
        fs.rename("/moved", "/archived").unwrap();
        fs.unlink("/gone").unwrap();
        drop(fs);
        // Both tombstones tore the way a torn line can: the inode number
        // survived, the name is zeros.  The journal still holds both
        // records.
        for (slot, at) in torn {
            device.write_uncharged(at, &slot.ino.to_le_bytes());
        }

        // Twice: the second mount finds the journal reset, so what the first
        // one repaired must be on the device.
        for mount in 0..2 {
            let fs = Ext4Dax::mount(Arc::clone(&device)).unwrap();
            assert_eq!(fs.check_namespace(), Vec::<String>::new(), "mount {mount}");
            let mut names = fs.readdir("/").unwrap();
            names.sort();
            assert_eq!(names, ["archived", "kept"], "mount {mount}");
            assert_eq!(fs.read_file("/archived").unwrap(), b"/moved");
        }
    }

    #[test]
    fn range_mapped_sees_every_block_an_unaligned_range_touches() {
        let fs = fs();
        let fd = fs.open("/r", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &[5u8; 4096]).unwrap();
        fs.ftruncate(fd, 3 * 4096).unwrap();
        fs.ftruncate(fd, 4096).unwrap();
        assert!(fs.range_mapped(fd, 4000, 96).unwrap());
        assert!(
            !fs.range_mapped(fd, 4000, 200).unwrap(),
            "200 bytes from 4000 reach into the second block, which is gone"
        );
    }

    #[test]
    fn fsync_many_forces_one_journal_commit_for_many_files() {
        let fs = fs();
        let mut fds = Vec::new();
        for i in 0..6 {
            let fd = fs.open(&format!("/f{i}"), OpenFlags::create()).unwrap();
            fs.write_at(fd, 0, &[i as u8; 512]).unwrap();
            fds.push(fd);
        }
        let before = fs.device().stats().snapshot();
        fs.fsync_many(&fds).unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.kernel_traps, 1);
        assert_eq!(delta.journal_txns, 1, "one forced commit for all six");
        assert_eq!(delta.fsync_many_calls, 1);
        assert_eq!(delta.fsync_many_files, 6);
        assert!(fs.fsync_many(&[]).is_ok());
        assert_eq!(fs.fsync_many(&[9999]), Err(FsError::BadFd));
    }

    #[test]
    fn fdatasync_skips_the_journal_forcing() {
        let fs = fs();
        let fd = fs.open("/d.bin", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &[1u8; 4096]).unwrap();
        let before = fs.device().stats().snapshot();
        fs.fdatasync(fd).unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::Journal), 0);
        assert_eq!(delta.journal_txns, 0);
        let before = fs.device().stats().snapshot();
        fs.fsync(fd).unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        assert!(delta.written(TimeCategory::Journal) > 0);
    }

    #[test]
    fn a_full_inode_table_refuses_creates_and_mounts_clean() {
        // 4 MiB is 1024 blocks, so 256 inode slots: 0 is the "no inode"
        // sentinel and 1 the root, which leaves 254 to create.
        let device = PmemBuilder::new(4 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        assert_eq!(fs.sb.inode_count, 256);
        for i in 0..254 {
            let name = format!("/n{i}");
            if i % 8 == 7 {
                fs.mkdir(&name).unwrap();
            } else {
                let fd = fs.open(&name, OpenFlags::create()).unwrap();
                fs.close(fd).unwrap();
            }
        }
        assert_eq!(fs.open("/file", OpenFlags::create()), Err(FsError::NoSpace));
        assert_eq!(fs.mkdir("/dir"), Err(FsError::NoSpace));
        let mut names = fs.readdir("/").unwrap();
        names.sort();
        assert_eq!(names.len(), 254);
        for name in ["/file", "/dir"] {
            assert_eq!(fs.stat(name), Err(FsError::NotFound), "{name}");
        }
        assert_eq!(fs.check_namespace(), Vec::<String>::new());
        drop(fs);

        let fs = Ext4Dax::mount(device).unwrap();
        let mut mounted = fs.readdir("/").unwrap();
        mounted.sort();
        assert_eq!(mounted, names);
        assert_eq!(fs.check_namespace(), Vec::<String>::new());
    }

    #[test]
    fn names_longer_than_name_max_are_refused_before_anything_changes() {
        let device = PmemBuilder::new(16 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let longest = format!("/{}", "n".repeat(vpath::NAME_MAX));
        let dir = format!("/{}", "d".repeat(vpath::NAME_MAX));
        fs.write_file(&longest, b"255 bytes of name").unwrap();
        fs.mkdir(&dir).unwrap();
        let moved = format!("{dir}/{}", "m".repeat(vpath::NAME_MAX));
        fs.write_file("/short", b"renamed").unwrap();
        fs.rename("/short", &moved).unwrap();

        for len in [vpath::NAME_MAX + 1, 70_000] {
            let name = format!("/{}", "x".repeat(len));
            let before = device.stats().snapshot();
            assert_eq!(
                fs.open(&name, OpenFlags::create()),
                Err(FsError::InvalidArgument),
                "create, {len} bytes"
            );
            assert_eq!(fs.mkdir(&name), Err(FsError::InvalidArgument), "mkdir");
            assert_eq!(
                fs.rename(&longest, &name),
                Err(FsError::InvalidArgument),
                "rename target"
            );
            let delta = device.stats().snapshot().delta(&before);
            assert_eq!(delta.journal_txns, 0, "{len} bytes: nothing journaled");
            assert_eq!(delta.written(TimeCategory::Metadata), 0, "{len} bytes");
            assert_eq!(fs.stat(&name), Err(FsError::NotFound));
        }
        assert_eq!(fs.check_namespace(), Vec::<String>::new());
        drop(fs);

        let fs = Ext4Dax::mount(device).unwrap();
        assert_eq!(fs.check_namespace(), Vec::<String>::new());
        assert_eq!(fs.read_file(&longest).unwrap(), b"255 bytes of name");
        assert_eq!(fs.read_file(&moved).unwrap(), b"renamed");
        let mut root = fs.readdir("/").unwrap();
        root.sort();
        assert_eq!(root, vec![dir[1..].to_string(), longest[1..].to_string()]);
    }

    #[test]
    fn mount_after_clean_operations_recovers_tree() {
        let device = PmemBuilder::new(256 * 1024 * 1024).build();
        let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        fs.mkdir("/dir").unwrap();
        fs.write_file("/dir/file.bin", &vec![3u8; 10_000]).unwrap();
        fs.write_file("/top.txt", b"top level").unwrap();
        drop(fs);

        let fs2 = Ext4Dax::mount(device).unwrap();
        assert_eq!(fs2.read_file("/dir/file.bin").unwrap(), vec![3u8; 10_000]);
        assert_eq!(fs2.read_file("/top.txt").unwrap(), b"top level");
        let entries = fs2.readdir("/").unwrap();
        assert!(entries.contains(&"dir".to_string()));
        assert!(entries.contains(&"top.txt".to_string()));
    }
}
