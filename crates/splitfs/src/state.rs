//! Per-file and per-descriptor bookkeeping kept in DRAM by U-Split.
//!
//! U-Split caches file attributes at `open` and keeps them after `close`
//! (§3.5), tracks which byte ranges are staged in staging files awaiting a
//! relink, and owns the collection of memory mappings for each file.  The
//! cache is indexed twice: by inode, for `open` and the daemon, and by
//! path, so that `stat`, `unlink` and `rename` cost a hash probe however
//! many files are cached.
//!
//! A [`Descriptor`] is the handle from a descriptor number to its file: it
//! holds the file's state itself, so a read or overwrite takes one probe of
//! the descriptor table and none of the registry.  That handle is the
//! registered state for as long as the descriptor is open, because a state
//! leaves the registry only once no descriptor refers to it.  `dup`-ed
//! descriptors share one `Descriptor`, and with it one offset, so they
//! observe each other's seeks, as the paper requires.
//!
//! All of this state is **instance-private DRAM**: every [`SplitFs`]
//! instance has its own sharded registry and descriptor table, so
//! concurrent instances over one kernel file system share nothing here —
//! the only cross-instance coordination is the kernel lease on staging
//! and log resources ([`kernelfs::lease`]).
//!
//! [`SplitFs`]: crate::SplitFs

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use vfs::{Fd, FsError, FsResult, OpenFlags};

use crate::mmap_collection::MmapCollection;

/// A range of a target file whose data currently lives in a staging file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedExtent {
    /// Offset within the target file where this data belongs.
    pub target_offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Inode of the staging file holding the bytes.
    pub staging_ino: u64,
    /// Kernel descriptor of the staging file.
    pub staging_fd: Fd,
    /// Offset of the bytes within the staging file.
    pub staging_offset: u64,
    /// Device offset of the bytes (staging files are pre-mapped).
    pub device_offset: u64,
    /// Operation-log sequence number (0 when the mode does not log).
    pub seq: u64,
}

/// Everything U-Split knows about one file, shared by all descriptors that
/// refer to it.
#[derive(Debug)]
pub struct FileState {
    /// Inode number in the kernel file system.
    pub ino: u64,
    /// Normalized path the file is known under — the key of its binding in
    /// the registry's path index — or `None` when it has no name: `unlink`
    /// (and a `rename` that replaces the file) takes it away while
    /// application descriptors remain open, and the state is then dropped
    /// at the last `close`.  Changes only in [`ShardedRegistry::bind`] /
    /// [`ShardedRegistry::unbind`].
    path: Option<String>,
    /// The kernel descriptor U-Split keeps open for metadata operations,
    /// DAX mapping and relink.
    pub kernel_fd: Fd,
    /// Whether `kernel_fd` was opened with write permission (relink and the
    /// kernel-fallback write path require a writable descriptor).
    pub kernel_fd_writable: bool,
    /// File size as the kernel file system knows it.
    pub kernel_size: u64,
    /// File size as the application sees it (kernel size plus staged
    /// appends).
    pub cached_size: u64,
    /// Staged-but-not-yet-relinked writes, in operation order.
    pub staged: Vec<StagedExtent>,
    /// The collection of memory mappings serving reads and overwrites.
    pub mmaps: MmapCollection,
    /// Number of application descriptors currently open on this file.
    pub open_fds: u32,
}

impl FileState {
    /// Creates the state for a freshly opened file.  It carries no name
    /// until [`ShardedRegistry::bind`] gives it one.
    pub fn new(ino: u64, kernel_fd: Fd, size: u64) -> Self {
        Self {
            ino,
            path: None,
            kernel_fd,
            kernel_fd_writable: true,
            kernel_size: size,
            cached_size: size,
            staged: Vec::new(),
            mmaps: MmapCollection::new(),
            open_fds: 0,
        }
    }

    /// The path this file is bound under, or `None` once it has been
    /// unlinked (or replaced by a rename).
    pub fn linked_path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

/// One open file description: what an application descriptor, and every
/// `dup` of it, refers to.
#[derive(Debug)]
pub struct Descriptor {
    /// Inode of the file the descriptor refers to.
    pub ino: u64,
    /// Flags the descriptor was opened with.
    pub flags: OpenFlags,
    /// The file's state.  While the descriptor is open this is the state
    /// the registry holds for `ino`: a state is dropped from the registry
    /// only when no descriptor refers to it.
    pub state: Arc<RwLock<FileState>>,
    /// Current offset.  `read` and `write` hold it across the whole call,
    /// so calls through one description never read the same bytes or lose
    /// an advance; it is taken before the file state's lock, never under
    /// it.
    pub offset: Mutex<u64>,
    /// End of the previous read (sequential-vs-random classification).
    /// Only a hint for the cost model, so it is read and written relaxed.
    last_read_end: AtomicU64,
}

impl Descriptor {
    /// How a read starting at `offset` accesses the device: sequentially
    /// when it continues the previous read through this description.
    pub(crate) fn read_pattern(&self, offset: u64) -> pmem::AccessPattern {
        if self.last_read_end.load(Ordering::Relaxed) == offset {
            pmem::AccessPattern::Sequential
        } else {
            pmem::AccessPattern::Random
        }
    }

    /// Records that a read ended at `end`.
    pub(crate) fn note_read_end(&self, end: u64) {
        self.last_read_end.store(end, Ordering::Relaxed);
    }
}

/// The registry of per-file state, keyed by inode.
pub type FileRegistry = HashMap<u64, Arc<RwLock<FileState>>>;

/// Number of shards in the U-Split file registry, its path index and the
/// descriptor table.
pub const STATE_SHARDS: usize = 16;

/// The per-file state registry, sharded by inode so concurrent opens,
/// lookups and appends on distinct files never serialize on one registry
/// lock, plus the **path index** that makes the path-taking operations
/// (`stat`, `unlink`, `rename`) point lookups: a `normalized path → inode`
/// map sharded by path hash.
///
/// Index invariant: *a path is bound iff a linked, cached [`FileState`]
/// carries that path, and to that state's inode only.*  Bindings change
/// only through [`Self::bind`] / [`Self::unbind`], which take the state
/// `&mut` — i.e. under its write lock.  Path-index shard locks are leaf
/// locks: nothing else is acquired while one is held.
///
/// Contended shard acquisitions (of either kind) are counted in the
/// device-wide `shard_lock_waits` statistic when a stats handle is
/// attached.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<RwLock<FileRegistry>>,
    paths: Vec<RwLock<HashMap<String, u64>>>,
    device: Option<Arc<pmem::PmemDevice>>,
}

impl ShardedRegistry {
    /// Creates an empty registry; `device` (when given) receives
    /// shard-contention counts and per-thread wait charges.
    pub fn new(device: Option<Arc<pmem::PmemDevice>>) -> Self {
        Self {
            shards: (0..STATE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            paths: (0..STATE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            device,
        }
    }

    fn shard(&self, ino: u64) -> &RwLock<FileRegistry> {
        &self.shards[ino as usize % self.shards.len()]
    }

    /// A path's shard, picked by a cheap FNV-1a so that the only keyed
    /// (SipHash) pass over the path is the shard map's own.  Paths an
    /// adversary aimed at one shard would cost contention, not collisions.
    fn path_shard(&self, path: &str) -> &RwLock<HashMap<String, u64>> {
        let hash = vfs::util::checksum32(path.as_bytes());
        &self.paths[(hash ^ (hash >> 16)) as usize % self.paths.len()]
    }

    fn read_shard<'a, T>(&self, shard: &'a RwLock<T>) -> parking_lot::RwLockReadGuard<'a, T> {
        match &self.device {
            Some(device) => device.lock_contended(|| shard.try_read(), || shard.read()),
            None => shard.read(),
        }
    }

    fn write_shard<'a, T>(&self, shard: &'a RwLock<T>) -> parking_lot::RwLockWriteGuard<'a, T> {
        match &self.device {
            Some(device) => device.lock_contended(|| shard.try_write(), || shard.write()),
            None => shard.write(),
        }
    }

    /// Looks up the state of `ino`.
    pub fn get(&self, ino: u64) -> Option<Arc<RwLock<FileState>>> {
        self.read_shard(self.shard(ino)).get(&ino).cloned()
    }

    /// Returns the state for `ino`, inserting a fresh one built by `make`
    /// when absent.  The boolean is `true` when this call created it.
    pub fn get_or_insert_with(
        &self,
        ino: u64,
        make: impl FnOnce() -> FileState,
    ) -> (Arc<RwLock<FileState>>, bool) {
        let shard = self.shard(ino);
        if let Some(state) = self.read_shard(shard).get(&ino) {
            return (Arc::clone(state), false);
        }
        match self.write_shard(shard).entry(ino) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let state = Arc::new(RwLock::new(make()));
                e.insert(Arc::clone(&state));
                (state, true)
            }
        }
    }

    /// Removes and returns the state of `ino`.  The caller has already
    /// [`unbound`](Self::unbind) it.
    pub fn remove(&self, ino: u64) -> Option<Arc<RwLock<FileState>>> {
        self.write_shard(self.shard(ino)).remove(&ino)
    }

    /// Whether `state` is still the registered state of `ino`.  A state
    /// looked up without its lock can be [`removed`](Self::remove) before
    /// the lock is taken; whoever is about to give it a name or a
    /// descriptor asks again under the lock.
    pub fn holds(&self, ino: u64, state: &Arc<RwLock<FileState>>) -> bool {
        self.read_shard(self.shard(ino))
            .get(&ino)
            .is_some_and(|current| Arc::ptr_eq(current, state))
    }

    /// Snapshot of every cached state with its inode key, so callers can
    /// identify an entry **without** taking its state lock (a sweep that
    /// already holds one state's write lock must not even read-lock it).
    pub fn snapshot_keyed(&self) -> Vec<(u64, Arc<RwLock<FileState>>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                self.read_shard(shard)
                    .iter()
                    .map(|(ino, state)| (*ino, Arc::clone(state))),
            );
        }
        out
    }

    /// Names `st` `path`: binds the path to the state's inode, dropping
    /// the binding of the name the state was last seen under.  `st` is the
    /// state's write guard.
    pub fn bind(&self, st: &mut FileState, path: &str) {
        if st.path.as_deref() == Some(path) {
            return;
        }
        self.unbind(st);
        st.path = Some(path.to_string());
        self.write_shard(self.path_shard(path))
            .insert(path.to_string(), st.ino);
    }

    /// Takes `st`'s name away (unlink, or replacement by a rename).  `st`
    /// is the state's write guard.
    pub fn unbind(&self, st: &mut FileState) {
        if let Some(path) = st.path.take() {
            self.remove_binding(&path, st.ino);
        }
    }

    /// Removes `path`'s binding if it still points at `ino` (a newer file
    /// of the same name, bound by a racing `open`, keeps its own).
    fn remove_binding(&self, path: &str, ino: u64) {
        let mut shard = self.write_shard(self.path_shard(path));
        if shard.get(path) == Some(&ino) {
            shard.remove(path);
        }
    }

    /// Finds a cached state by path: one probe of the path index, then one
    /// of the inode shard.  The index lock is released in between, so the
    /// caller re-checks [`FileState::linked_path`] under the state lock.
    pub fn find_by_path(&self, path: &str) -> Option<Arc<RwLock<FileState>>> {
        let ino = self.read_shard(self.path_shard(path)).get(path).copied()?;
        self.get(ino)
    }

    /// Number of bound paths.
    #[cfg(test)]
    pub(crate) fn bound_paths(&self) -> usize {
        self.paths.iter().map(|s| s.read().len()).sum()
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no file state is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hashes descriptor numbers with one multiply (Fibonacci hashing) in
/// place of SipHash: the table hands the numbers out itself, as small
/// sequential integers, so no caller can pick keys that collide.  The
/// rotation brings the product's well-mixed high bits down to the low
/// bits the map indexes its buckets with.
#[derive(Debug, Default)]
struct FdHasher(u64);

impl Hasher for FdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type FdMap = HashMap<Fd, Arc<Descriptor>, BuildHasherDefault<FdHasher>>;

/// The descriptor table, sharded by descriptor number with a lock-free
/// descriptor allocator, so the per-operation descriptor lookup never
/// serializes on one table lock.  A `dup` maps a second number to the
/// same [`Descriptor`].
#[derive(Debug)]
pub struct ShardedFdTable {
    shards: Vec<RwLock<FdMap>>,
    next_fd: AtomicU64,
}

impl Default for ShardedFdTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedFdTable {
    /// Creates an empty table.  Descriptors start at 3, like a process
    /// whose stdio is already occupied.
    pub fn new() -> Self {
        Self {
            shards: (0..STATE_SHARDS)
                .map(|_| RwLock::new(FdMap::default()))
                .collect(),
            next_fd: AtomicU64::new(3),
        }
    }

    fn shard(&self, fd: Fd) -> &RwLock<FdMap> {
        &self.shards[fd as usize % self.shards.len()]
    }

    fn insert_desc(&self, desc: Arc<Descriptor>) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.shard(fd).write().insert(fd, desc);
        fd
    }

    /// Registers a new descriptor for the file whose registered state is
    /// `state`.
    pub fn insert(&self, ino: u64, flags: OpenFlags, state: Arc<RwLock<FileState>>) -> Fd {
        self.insert_desc(Arc::new(Descriptor {
            ino,
            flags,
            state,
            offset: Mutex::new(0),
            last_read_end: AtomicU64::new(u64::MAX),
        }))
    }

    /// Duplicates a descriptor; the new descriptor shares the original's
    /// offset (POSIX `dup` semantics, §3.5).
    pub fn dup(&self, fd: Fd) -> FsResult<Fd> {
        let desc = self.get(fd)?;
        Ok(self.insert_desc(desc))
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> FsResult<Arc<Descriptor>> {
        self.shard(fd)
            .read()
            .get(&fd)
            .cloned()
            .ok_or(FsError::BadFd)
    }

    /// Removes a descriptor, returning it.
    pub fn remove(&self, fd: Fd) -> FsResult<Arc<Descriptor>> {
        self.shard(fd).write().remove(&fd).ok_or(FsError::BadFd)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(ino: u64) -> Arc<RwLock<FileState>> {
        Arc::new(RwLock::new(FileState::new(ino, 100 + ino, 0)))
    }

    #[test]
    fn dup_shares_the_offset() {
        let table = ShardedFdTable::new();
        let fd = table.insert(7, OpenFlags::read_write(), state(7));
        let dup = table.dup(fd).unwrap();
        assert_ne!(fd, dup);
        *table.get(fd).unwrap().offset.lock() = 4096;
        assert_eq!(*table.get(dup).unwrap().offset.lock(), 4096);
    }

    #[test]
    fn remove_invalidates_only_that_descriptor() {
        let table = ShardedFdTable::new();
        let a = table.insert(1, OpenFlags::read_only(), state(1));
        let b = table.insert(2, OpenFlags::read_only(), state(2));
        table.remove(a).unwrap();
        assert!(table.get(a).is_err());
        assert!(table.get(b).is_ok());
        assert_eq!(table.len(), 1);
    }
}
