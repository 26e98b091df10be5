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
//! The registry ([`FileRegistry`]) is one lock over both indexes and the
//! descriptor table ([`FdTable`]) one map: both locks are leaves.
//!
//! All of this state is **instance-private DRAM**: every [`SplitFs`]
//! instance has its own registry and descriptor table, so concurrent
//! instances over one kernel file system share nothing here — the only
//! cross-instance coordination is the instance id each claims from the
//! kernel, which names its staging and log resources
//! ([`kernelfs::lease`]).
//!
//! [`SplitFs`]: crate::SplitFs

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
    /// at the last `close`.  Changes only in [`FileRegistry::bind`] /
    /// [`FileRegistry::unbind`].
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
    /// Highest retired sequence number whose `Invalidate` is not logged yet.
    pub invalidate_due: u64,
    /// The collection of memory mappings serving reads and overwrites.
    pub mmaps: MmapCollection,
    /// Number of application descriptors currently open on this file.
    pub open_fds: u32,
}

impl FileState {
    /// Creates the state for a freshly opened file.  It carries no name
    /// until [`FileRegistry::bind`] gives it one.
    pub fn new(ino: u64, kernel_fd: Fd, size: u64) -> Self {
        Self {
            ino,
            path: None,
            kernel_fd,
            kernel_fd_writable: true,
            kernel_size: size,
            cached_size: size,
            staged: Vec::new(),
            invalidate_due: 0,
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

/// The registry's two maps: every cached state by inode, and the path
/// index, normalized path → inode.
#[derive(Debug, Default)]
struct Maps {
    files: HashMap<u64, Arc<RwLock<FileState>>>,
    paths: HashMap<String, u64>,
}

/// The per-file state registry, keyed by inode, plus the **path index**
/// that makes the path-taking operations (`stat`, `unlink`, `rename`)
/// point lookups.  Both maps live behind one lock.
///
/// Index invariant: *a path is bound iff a linked, cached [`FileState`]
/// carries that path, and to that state's inode only.*  Bindings change
/// only through [`Self::bind`] / [`Self::unbind`], which take the state
/// `&mut` — i.e. under its write lock.  The registry lock is a leaf: it
/// may be taken under a state's write lock, and no guard of it outlives
/// the call that took it.  Contended acquisitions are counted in the
/// device-wide `shard_lock_waits` statistic.
#[derive(Debug)]
pub struct FileRegistry {
    maps: RwLock<Maps>,
    device: Arc<pmem::PmemDevice>,
}

impl FileRegistry {
    /// Creates an empty registry; `device` receives contention counts and
    /// per-thread wait charges.
    pub fn new(device: Arc<pmem::PmemDevice>) -> Self {
        Self {
            maps: RwLock::new(Maps::default()),
            device,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Maps> {
        self.device
            .lock_contended(|| self.maps.try_read(), || self.maps.read())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Maps> {
        self.device
            .lock_contended(|| self.maps.try_write(), || self.maps.write())
    }

    /// Looks up the state of `ino`.
    pub fn get(&self, ino: u64) -> Option<Arc<RwLock<FileState>>> {
        self.read().files.get(&ino).cloned()
    }

    /// Returns the state for `ino`, inserting a fresh one built by `make`
    /// when absent.  The boolean is `true` when this call created it.
    pub fn get_or_insert_with(
        &self,
        ino: u64,
        make: impl FnOnce() -> FileState,
    ) -> (Arc<RwLock<FileState>>, bool) {
        if let Some(state) = self.get(ino) {
            return (state, false);
        }
        match self.write().files.entry(ino) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(e) => (Arc::clone(e.insert(Arc::new(RwLock::new(make())))), true),
        }
    }

    /// Removes and returns the state of `ino`.  The caller has already
    /// [`unbound`](Self::unbind) it.
    pub fn remove(&self, ino: u64) -> Option<Arc<RwLock<FileState>>> {
        self.write().files.remove(&ino)
    }

    /// Whether `state` is still the registered state of `ino`.  A state
    /// looked up without its lock can be [`removed`](Self::remove) before
    /// the lock is taken; whoever is about to give it a name or a
    /// descriptor asks again under the lock.
    pub fn holds(&self, ino: u64, state: &Arc<RwLock<FileState>>) -> bool {
        self.read()
            .files
            .get(&ino)
            .is_some_and(|current| Arc::ptr_eq(current, state))
    }

    /// Snapshot of every cached state with its inode key, so callers can
    /// identify an entry **without** taking its state lock (a sweep that
    /// already holds one state's write lock must not even read-lock it).
    pub fn snapshot_keyed(&self) -> Vec<(u64, Arc<RwLock<FileState>>)> {
        self.read()
            .files
            .iter()
            .map(|(ino, state)| (*ino, Arc::clone(state)))
            .collect()
    }

    /// Names `st` `path`: binds the path to the state's inode, dropping
    /// the binding of the name the state was last seen under.  `st` is the
    /// state's write guard.
    pub fn bind(&self, st: &mut FileState, path: &str) {
        if st.path.as_deref() != Some(path) {
            self.set_path(st, Some(path));
        }
    }

    /// Takes `st`'s name away (unlink, or replacement by a rename).  `st`
    /// is the state's write guard.
    pub fn unbind(&self, st: &mut FileState) {
        if st.path.is_some() {
            self.set_path(st, None);
        }
    }

    fn set_path(&self, st: &mut FileState, path: Option<&str>) {
        let mut maps = self.write();
        // The old name's binding goes only if it still points here: a
        // newer file of the same name, bound by a racing `open`, keeps it.
        if let Some(old) = st.path.take() {
            if maps.paths.get(&old) == Some(&st.ino) {
                maps.paths.remove(&old);
            }
        }
        if let Some(path) = path {
            maps.paths.insert(path.to_string(), st.ino);
            st.path = Some(path.to_string());
        }
    }

    /// Finds a cached state by path: two probes under one acquisition of
    /// the lock.  No state lock is held meanwhile, so the caller re-checks
    /// [`FileState::linked_path`] under it.
    pub fn find_by_path(&self, path: &str) -> Option<Arc<RwLock<FileState>>> {
        let maps = self.read();
        let ino = maps.paths.get(path)?;
        maps.files.get(ino).cloned()
    }

    /// Number of bound paths.
    #[cfg(test)]
    pub(crate) fn bound_paths(&self) -> usize {
        self.read().paths.len()
    }

    /// Number of cached files.
    pub(crate) fn len(&self) -> usize {
        self.read().files.len()
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

/// The descriptor table: one map from descriptor number to
/// [`Descriptor`], numbers drawn from a lock-free counter.  A `dup` maps a
/// second number to the same [`Descriptor`].
#[derive(Debug)]
pub struct FdTable {
    map: RwLock<FdMap>,
    next_fd: AtomicU64,
}

impl Default for FdTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FdTable {
    /// Creates an empty table.  Descriptors start at 3, like a process
    /// whose stdio is already occupied.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(FdMap::default()),
            next_fd: AtomicU64::new(3),
        }
    }

    fn insert_desc(&self, desc: Arc<Descriptor>) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.map.write().insert(fd, desc);
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
        self.map.read().get(&fd).cloned().ok_or(FsError::BadFd)
    }

    /// Removes a descriptor, returning it.
    pub fn remove(&self, fd: Fd) -> FsResult<Arc<Descriptor>> {
        self.map.write().remove(&fd).ok_or(FsError::BadFd)
    }

    /// Number of open descriptors.
    pub(crate) fn len(&self) -> usize {
        self.map.read().len()
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
        let table = FdTable::new();
        let fd = table.insert(7, OpenFlags::read_write(), state(7));
        let dup = table.dup(fd).unwrap();
        assert_ne!(fd, dup);
        *table.get(fd).unwrap().offset.lock() = 4096;
        assert_eq!(*table.get(dup).unwrap().offset.lock(), 4096);
    }

    #[test]
    fn remove_invalidates_only_that_descriptor() {
        let table = FdTable::new();
        let a = table.insert(1, OpenFlags::read_only(), state(1));
        let b = table.insert(2, OpenFlags::read_only(), state(2));
        table.remove(a).unwrap();
        assert!(table.get(a).is_err());
        assert!(table.get(b).is_ok());
        assert_eq!(table.len(), 1);
    }

    fn registry() -> FileRegistry {
        FileRegistry::new(
            pmem::PmemBuilder::new(1 << 20)
                .track_persistence(false)
                .build(),
        )
    }

    /// Caches a fresh state for `ino` and returns it.
    fn cached(reg: &FileRegistry, ino: u64) -> Arc<RwLock<FileState>> {
        let (st, created) = reg.get_or_insert_with(ino, || FileState::new(ino, 100 + ino, 0));
        assert!(created, "inode {ino} was already cached");
        st
    }

    fn resolves_to(reg: &FileRegistry, path: &str, st: &Arc<RwLock<FileState>>) -> bool {
        reg.find_by_path(path)
            .is_some_and(|found| Arc::ptr_eq(&found, st))
    }

    #[test]
    fn bind_rebind_and_unbind_keep_one_binding_per_state() {
        let reg = registry();
        let file = cached(&reg, 1);
        let (again, created) = reg.get_or_insert_with(1, || unreachable!());
        assert!(!created && Arc::ptr_eq(&again, &file));
        let mut st = file.write();

        reg.bind(&mut st, "/a");
        assert_eq!(st.linked_path(), Some("/a"));
        assert!(resolves_to(&reg, "/a", &file));
        reg.bind(&mut st, "/a");
        assert_eq!(reg.bound_paths(), 1, "re-binding the same name is a no-op");

        reg.bind(&mut st, "/dir/b");
        assert_eq!(st.linked_path(), Some("/dir/b"));
        assert!(reg.find_by_path("/a").is_none(), "the old name is unbound");
        assert!(resolves_to(&reg, "/dir/b", &file));
        assert_eq!(reg.bound_paths(), 1);

        reg.unbind(&mut st);
        assert_eq!(st.linked_path(), None);
        assert!(reg.find_by_path("/dir/b").is_none());
        assert_eq!(reg.bound_paths(), 0);
        assert_eq!(reg.len(), 1, "an unnamed state stays cached");
        reg.unbind(&mut st);
        assert_eq!(
            reg.bound_paths(),
            0,
            "unbinding an unnamed state is a no-op"
        );
    }

    #[test]
    fn unbinding_an_old_file_keeps_a_newer_files_binding() {
        let reg = registry();
        let (old, new) = (cached(&reg, 1), cached(&reg, 2));
        reg.bind(&mut old.write(), "/x");
        // A file re-created under the name, bound by a racing `open`
        // before the old one's unlink got to unbind it.
        reg.bind(&mut new.write(), "/x");
        assert!(resolves_to(&reg, "/x", &new));

        reg.unbind(&mut old.write());
        assert!(resolves_to(&reg, "/x", &new), "the newer binding stays");
        assert_eq!(reg.bound_paths(), 1);
        // Re-naming the old file does not take the name from the new one
        // either.
        reg.bind(&mut old.write(), "/y");
        reg.bind(&mut old.write(), "/z");
        assert!(resolves_to(&reg, "/x", &new));
        assert!(resolves_to(&reg, "/z", &old));
        assert_eq!(reg.bound_paths(), 2);
    }

    #[test]
    fn a_removed_state_is_found_by_no_path_and_held_no_longer() {
        let reg = registry();
        let file = cached(&reg, 5);
        reg.bind(&mut file.write(), "/gone");
        assert!(reg.holds(5, &file));

        // What dropping an unreferenced state does: unbind, then remove.
        reg.unbind(&mut file.write());
        assert!(reg.remove(5).is_some_and(|st| Arc::ptr_eq(&st, &file)));
        assert!(reg.find_by_path("/gone").is_none());
        assert!(reg.get(5).is_none());
        assert!(!reg.holds(5, &file));
        assert!(reg.remove(5).is_none());

        // The inode cached again is a new state; the old handle is stale.
        let fresh = cached(&reg, 5);
        reg.bind(&mut fresh.write(), "/gone");
        assert!(resolves_to(&reg, "/gone", &fresh));
        assert!(reg.holds(5, &fresh) && !reg.holds(5, &file));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn len_bound_paths_and_snapshot_agree() {
        let reg = registry();
        assert_eq!(reg.len(), 0);
        let states: Vec<_> = (1..=20).map(|ino| cached(&reg, ino)).collect();
        for st in states.iter().filter(|st| st.read().ino % 4 != 0) {
            let mut st = st.write();
            let path = format!("/f{}", st.ino);
            reg.bind(&mut st, &path);
        }
        let check = |cached: usize, bound: usize| {
            assert_eq!(reg.len(), cached);
            assert_eq!(reg.bound_paths(), bound);
            let snapshot = reg.snapshot_keyed();
            assert_eq!(snapshot.len(), cached);
            let mut inos: Vec<u64> = snapshot.iter().map(|(ino, _)| *ino).collect();
            inos.sort_unstable();
            inos.dedup();
            assert_eq!(inos.len(), cached, "each inode once");
            for (ino, st) in &snapshot {
                assert_eq!(st.read().ino, *ino);
                assert!(reg.holds(*ino, st));
                if let Some(path) = st.read().linked_path() {
                    assert!(resolves_to(&reg, path, st));
                }
            }
            let linked = snapshot
                .iter()
                .filter(|(_, st)| st.read().linked_path().is_some())
                .count();
            assert_eq!(
                linked, bound,
                "a path is bound iff a cached state carries it"
            );
        };
        check(20, 15);

        for st in &states[..5] {
            let mut st = st.write();
            reg.unbind(&mut st);
            reg.remove(st.ino).unwrap();
        }
        check(15, 11);
    }
}
