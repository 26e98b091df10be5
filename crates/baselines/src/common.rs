//! The front end and mechanical core the three baselines share.
//!
//! PMFS, NOVA and Strata differ in *how* they persist data and metadata
//! (in-place vs copy-on-write vs private-log-then-digest) and in the
//! logging traffic each operation generates, and in nothing else:
//!
//! * [`FsCore`] is the mechanics: a namespace, inodes, a block allocator,
//!   descriptors and the mapping of file bytes to device blocks, with *no*
//!   cost accounting beyond raw device traffic.
//! * [`Baseline`] is the one [`FileSystem`] implementation: the core lock,
//!   descriptor, permission and path checks in their error order, the
//!   cursor, `stat`/`readdir`/`lseek`, the `fsync` entry points and the
//!   gather preamble (empty writes, end of file resolved under the lock).
//! * A [`Design`] is where the front end ends: the entry charge of a call,
//!   the journal or log record of each metadata operation, the data write
//!   of a gather, and a design's own read and `sync`.  `pmfs.rs`, `nova.rs`
//!   and `strata.rs` hold one design each, so the performance differences
//!   between the baselines come only from their persistence designs.
//!
//! The baselines are performance-faithful rather than recovery-faithful:
//! they keep their metadata authoritative in memory (the paper's
//! experiments never crash the baselines; crash-consistency experiments
//! target SplitFS and the kernel file system, which have full on-device
//! recovery paths).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{
    iov_total_len, path as vpath, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult,
    IoVec, OpenFlags, SeekFrom,
};

/// File-system block size used by the baselines (matches kernelfs).
pub const BLOCK_SIZE: usize = 4096;

/// Inode number of the root directory.
pub const ROOT_INO: u64 = 1;

/// An open-descriptor record.
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// Inode the descriptor refers to.
    pub ino: u64,
    /// Current file offset for `read`/`write`.
    pub offset: u64,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
    /// End offset of the previous read (for sequential-vs-random latency).
    pub last_read_end: u64,
}

/// A file or directory tracked by the core.
#[derive(Debug, Clone)]
pub struct Node {
    /// Inode number.
    pub ino: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// File size in bytes.
    pub size: u64,
    /// Physical device block backing each 4 KiB logical block.
    pub blocks: Vec<u64>,
    /// Open descriptors on the node.
    pub opens: u32,
    /// Whether a directory entry names the node.  An unlinked or replaced
    /// node that is still open is an orphan: it keeps its blocks until its
    /// last close.
    pub linked: bool,
}

impl Node {
    fn new(ino: u64, is_dir: bool) -> Self {
        Self {
            ino,
            is_dir,
            size: 0,
            blocks: Vec::new(),
            opens: 0,
            linked: true,
        }
    }
}

/// The shared mechanical core.
#[derive(Debug)]
pub struct FsCore {
    device: Arc<PmemDevice>,
    /// Free-block stack over the device's data area.
    free_blocks: Vec<u64>,
    nodes: HashMap<u64, Node>,
    dirs: HashMap<u64, BTreeMap<String, u64>>,
    next_ino: u64,
    fds: HashMap<Fd, OpenFile>,
    next_fd: Fd,
    /// Total blocks handed out (for space accounting).
    allocated_blocks: u64,
}

impl FsCore {
    /// Creates a core over the device, reserving `reserved_bytes` at the
    /// start of the device for the file system's own structures (logs,
    /// journals) and using the rest as data blocks.
    pub fn new(device: Arc<PmemDevice>, reserved_bytes: u64) -> Self {
        let first_block = reserved_bytes.div_ceil(BLOCK_SIZE as u64);
        let total_blocks = device.size() as u64 / BLOCK_SIZE as u64;
        // Stack of free blocks, lowest block on top so allocation tends to
        // be contiguous and low-to-high.
        let mut free_blocks: Vec<u64> = (first_block..total_blocks).rev().collect();
        free_blocks.shrink_to_fit();
        let mut nodes = HashMap::new();
        nodes.insert(ROOT_INO, Node::new(ROOT_INO, true));
        let mut dirs = HashMap::new();
        dirs.insert(ROOT_INO, BTreeMap::new());
        Self {
            device,
            free_blocks,
            nodes,
            dirs,
            next_ino: ROOT_INO + 1,
            fds: HashMap::new(),
            next_fd: 3,
            allocated_blocks: 0,
        }
    }

    /// Allocates one data block.
    pub fn alloc_block(&mut self) -> FsResult<u64> {
        let b = self.free_blocks.pop().ok_or(FsError::NoSpace)?;
        self.allocated_blocks += 1;
        Ok(b)
    }

    /// Returns a block to the free pool.
    pub fn free_block(&mut self, block: u64) {
        self.allocated_blocks = self.allocated_blocks.saturating_sub(1);
        self.free_blocks.push(block);
    }

    /// Number of data blocks currently allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocated_blocks
    }

    /// Resolves a path to `(parent_ino, name, Option<ino>)`.
    pub fn resolve(&self, path: &str) -> FsResult<(u64, String, Option<u64>)> {
        let norm = vpath::normalize(path)?;
        let (parent_path, name) = vpath::split(&norm)?;
        let mut dir_ino = ROOT_INO;
        for comp in vpath::components(parent_path) {
            let child = self.lookup(dir_ino, comp)?.ok_or(FsError::NotFound)?;
            if !self.nodes.get(&child).map(|n| n.is_dir).unwrap_or(false) {
                return Err(FsError::NotADirectory);
            }
            dir_ino = child;
        }
        Ok((dir_ino, name.to_string(), self.lookup(dir_ino, name)?))
    }

    /// The inode `name` names in directory `dir`, if any.
    fn lookup(&self, dir: u64, name: &str) -> FsResult<Option<u64>> {
        let map = self.dirs.get(&dir).ok_or(FsError::NotADirectory)?;
        Ok(map.get(name).copied())
    }

    /// Resolves a path that may be the root directory.
    pub fn resolve_existing(&self, path: &str) -> FsResult<u64> {
        let norm = vpath::normalize(path)?;
        if norm == "/" {
            return Ok(ROOT_INO);
        }
        let (_, _, ino) = self.resolve(&norm)?;
        ino.ok_or(FsError::NotFound)
    }

    /// Creates a file or directory node linked under `parent` as `name`.
    pub fn create_node(&mut self, parent: u64, name: &str, is_dir: bool) -> FsResult<u64> {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.nodes.insert(ino, Node::new(ino, is_dir));
        if is_dir {
            self.dirs.insert(ino, BTreeMap::new());
        }
        self.dirs
            .get_mut(&parent)
            .ok_or(FsError::NotADirectory)?
            .insert(name.to_string(), ino);
        Ok(ino)
    }

    /// Removes the directory entry; the node and its blocks go now, or at
    /// its last close if a descriptor still holds it.
    pub fn remove_node(&mut self, parent: u64, name: &str) -> FsResult<()> {
        let ino = self
            .dirs
            .get_mut(&parent)
            .ok_or(FsError::NotADirectory)?
            .remove(name)
            .ok_or(FsError::NotFound)?;
        self.nodes.get_mut(&ino).ok_or(FsError::NotFound)?.linked = false;
        self.dirs.remove(&ino);
        self.release(ino);
        Ok(())
    }

    /// Frees node `ino` and its blocks once no entry names it and no
    /// descriptor holds it.
    fn release(&mut self, ino: u64) {
        let Entry::Occupied(entry) = self.nodes.entry(ino) else {
            return;
        };
        if entry.get().linked || entry.get().opens > 0 {
            return;
        }
        for b in entry.remove().blocks {
            self.free_block(b);
        }
    }

    /// Accesses a node immutably.
    pub fn node(&self, ino: u64) -> FsResult<&Node> {
        self.nodes.get(&ino).ok_or(FsError::BadFd)
    }

    /// Accesses a node mutably.
    pub fn node_mut(&mut self, ino: u64) -> FsResult<&mut Node> {
        self.nodes.get_mut(&ino).ok_or(FsError::BadFd)
    }

    /// Lists a directory.
    pub fn list_dir(&self, ino: u64) -> FsResult<Vec<String>> {
        Ok(self
            .dirs
            .get(&ino)
            .ok_or(FsError::NotADirectory)?
            .keys()
            .cloned()
            .collect())
    }

    /// Whether a directory is empty.
    pub fn dir_is_empty(&self, ino: u64) -> bool {
        self.dirs.get(&ino).map(|m| m.is_empty()).unwrap_or(true)
    }

    /// Moves a directory entry (rename), replacing a regular file at the
    /// destination, which [`FsCore::remove_node`] frees.  Refuses, before
    /// changing anything, a directory moved into its own subtree
    /// (`InvalidArgument`), any entry moved over a directory
    /// (`IsADirectory`) and a directory moved over a file
    /// (`NotADirectory`).
    pub fn move_entry(
        &mut self,
        old_parent: u64,
        old_name: &str,
        new_parent: u64,
        new_name: &str,
    ) -> FsResult<()> {
        let ino = self
            .lookup(old_parent, old_name)?
            .ok_or(FsError::NotFound)?;
        let replaced = self.lookup(new_parent, new_name)?;
        let moves_dir = self.node(ino)?.is_dir;
        if moves_dir && self.holds(ino, new_parent) {
            return Err(FsError::InvalidArgument);
        }
        if let Some(replaced) = replaced.filter(|&r| r != ino) {
            if self.node(replaced)?.is_dir {
                return Err(FsError::IsADirectory);
            }
            if moves_dir {
                return Err(FsError::NotADirectory);
            }
            self.remove_node(new_parent, new_name)?;
        }
        if let Some(map) = self.dirs.get_mut(&old_parent) {
            map.remove(old_name);
        }
        if let Some(map) = self.dirs.get_mut(&new_parent) {
            map.insert(new_name.to_string(), ino);
        }
        Ok(())
    }

    /// Whether directory `dir` is `root` or lies beneath it.
    fn holds(&self, root: u64, dir: u64) -> bool {
        let mut children = self
            .dirs
            .get(&root)
            .into_iter()
            .flat_map(|map| map.values());
        root == dir || children.any(|&child| self.holds(child, dir))
    }

    // ------------------------------------------------------------------
    // Descriptor table
    // ------------------------------------------------------------------

    /// Registers an open descriptor.
    pub fn insert_fd(&mut self, ino: u64, flags: OpenFlags) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        if let Some(node) = self.nodes.get_mut(&ino) {
            node.opens += 1;
        }
        self.fds.insert(
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

    /// Looks up a descriptor.
    pub fn fd(&self, fd: Fd) -> FsResult<OpenFile> {
        self.fds.get(&fd).cloned().ok_or(FsError::BadFd)
    }

    /// Mutable access to a descriptor.
    pub fn fd_mut(&mut self, fd: Fd) -> FsResult<&mut OpenFile> {
        self.fds.get_mut(&fd).ok_or(FsError::BadFd)
    }

    /// Removes a descriptor; the last close of an orphan frees it.
    pub fn remove_fd(&mut self, fd: Fd) -> FsResult<OpenFile> {
        let file = self.fds.remove(&fd).ok_or(FsError::BadFd)?;
        if let Some(node) = self.nodes.get_mut(&file.ino) {
            node.opens -= 1;
        }
        self.release(file.ino);
        Ok(file)
    }

    /// Computes an lseek result.
    pub fn seek(&mut self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        let file = self.fd(fd)?;
        let size = self.node(file.ino)?.size;
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => file.offset as i128 + d as i128,
            SeekFrom::End(d) => size as i128 + d as i128,
        };
        if new < 0 {
            return Err(FsError::InvalidArgument);
        }
        self.fd_mut(fd)?.offset = new as u64;
        Ok(new as u64)
    }

    /// Builds a [`FileStat`] for a node.
    pub fn stat_node(&self, ino: u64) -> FsResult<FileStat> {
        let node = self.node(ino)?;
        Ok(FileStat {
            ino,
            size: node.size,
            blocks: node.blocks.len() as u64,
            is_dir: node.is_dir,
            nlink: node.linked.into(),
        })
    }

    // ------------------------------------------------------------------
    // Data path helpers
    // ------------------------------------------------------------------

    /// Ensures the node has backing blocks covering bytes
    /// `[0, offset+len)`, allocating as needed.  Returns how many blocks
    /// were newly allocated.
    pub fn ensure_blocks(&mut self, ino: u64, offset: u64, len: u64) -> FsResult<u64> {
        let needed_blocks = (offset + len).div_ceil(BLOCK_SIZE as u64) as usize;
        let current = self.node(ino)?.blocks.len();
        let mut newly = 0;
        for _ in current..needed_blocks {
            let b = self.alloc_block()?;
            self.node_mut(ino)?.blocks.push(b);
            newly += 1;
        }
        Ok(newly)
    }

    /// Writes `data` at `offset` into already-allocated blocks, charging the
    /// device traffic to `cat` with the given persistence mode.
    pub fn write_data(
        &self,
        ino: u64,
        offset: u64,
        data: &[u8],
        mode: PersistMode,
        cat: TimeCategory,
    ) -> FsResult<()> {
        let node = self.node(ino)?;
        for (block, within, range) in block_chunks(offset, data.len()) {
            let phys = *node
                .blocks
                .get(block as usize)
                .ok_or_else(|| FsError::Io("write beyond allocated blocks".into()))?;
            let at = phys * BLOCK_SIZE as u64 + within as u64;
            self.device.write(at, &data[range], mode, cat);
        }
        Ok(())
    }

    /// Reads file bytes into `buf`, charging device traffic to `cat`.
    pub fn read_data(
        &self,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
        cat: TimeCategory,
    ) -> FsResult<()> {
        let node = self.node(ino)?;
        let mut pattern = pattern;
        for (block, within, range) in block_chunks(offset, buf.len()) {
            match node.blocks.get(block as usize) {
                Some(&phys) => {
                    let at = phys * BLOCK_SIZE as u64 + within as u64;
                    self.device.read(at, &mut buf[range], pattern, cat);
                }
                None => buf[range].fill(0),
            }
            pattern = AccessPattern::Sequential;
        }
        Ok(())
    }

    /// Truncates a node, freeing blocks beyond the new size.
    pub fn truncate(&mut self, ino: u64, size: u64) -> FsResult<()> {
        let keep_blocks = size.div_ceil(BLOCK_SIZE as u64) as usize;
        let freed: Vec<u64> = {
            let node = self.node_mut(ino)?;
            node.size = size;
            if node.blocks.len() > keep_blocks {
                node.blocks.split_off(keep_blocks)
            } else {
                Vec::new()
            }
        };
        for b in freed {
            self.free_block(b);
        }
        Ok(())
    }
}

/// Splits the `len` bytes at file offset `offset` at block boundaries:
/// yields each piece's logical block, its offset inside that block, and
/// its range in the caller's buffer.
pub fn block_chunks(offset: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let file_off = offset + pos as u64;
        let within = (file_off % BLOCK_SIZE as u64) as usize;
        let range = pos..len.min(pos + BLOCK_SIZE - within);
        pos = range.end;
        (!range.is_empty()).then_some((file_off / BLOCK_SIZE as u64, within, range))
    })
}

/// A metadata operation, handed to [`Design::metadata`] once the front end
/// has validated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meta {
    /// `open` with `O_CREAT` of a new regular file.
    Create,
    /// `ftruncate` of file `ino` to `size` bytes, either way, or an
    /// `O_TRUNC` open (size 0).
    Truncate { ino: u64, size: u64 },
    /// `unlink` of file `ino`.
    Unlink { ino: u64 },
    /// `rename`.
    Rename,
    /// `mkdir`.
    Mkdir,
    /// `rmdir` of an empty directory.
    Rmdir,
}

/// One baseline's persistence design: everything in which PMFS, NOVA and
/// Strata differ.  [`Baseline`] calls these hooks from its one
/// [`FileSystem`] implementation, with the core write lock held for every
/// hook that takes the core.
pub trait Design: Send + Sync {
    /// Display name for reports.
    fn name(&self) -> String;

    /// The guarantee class the design provides.
    fn consistency(&self) -> ConsistencyClass;

    /// Charged on entry to every call but `sync`.  Kernel file systems
    /// trap and walk the VFS; a user-space design overrides this.
    fn charge_entry(&self, device: &PmemDevice) {
        let cost = device.cost();
        device.stats().add_kernel_trap();
        device.charge_software(cost.kernel_trap_ns + cost.vfs_path_ns);
    }

    /// Charged on entry to a read, in place of [`Design::charge_entry`].
    fn charge_read(&self, device: &PmemDevice) {
        self.charge_entry(device);
    }

    /// Makes a validated metadata operation durable in the design's own
    /// journal or log.  Runs before the core applies the operation, except
    /// for a rename, which the core must first accept.
    fn metadata(&self, core: &mut FsCore, op: Meta) -> FsResult<()>;

    /// Writes a non-empty gather at `offset` of file `ino` (end of file
    /// already resolved), allocating, persisting and growing the file as
    /// the design does.
    fn write(&self, core: &mut FsCore, ino: u64, offset: u64, iov: &[IoVec<'_>]) -> FsResult<()>;

    /// Reads `buf.len()` bytes of file `ino` at `offset`, all inside the
    /// file.
    fn read(
        &self,
        core: &FsCore,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
        pattern: AccessPattern,
    ) -> FsResult<()> {
        core.read_data(ino, offset, buf, pattern, TimeCategory::UserData)
    }

    /// Whole-file-system synchronization point ([`FileSystem::sync`]).
    fn sync(&self, _core: &mut FsCore) -> FsResult<()> {
        Ok(())
    }
}

/// The non-empty slices of a gather written at `offset`, each with the file
/// offset it lands at.
pub fn placed<'a>(offset: u64, iov: &'a [IoVec<'a>]) -> impl Iterator<Item = (u64, &'a [u8])> {
    iov.iter()
        .scan(offset, |cur, v| {
            let at = *cur;
            *cur += v.len() as u64;
            Some((at, v.as_slice()))
        })
        .filter(|(_, data)| !data.is_empty())
}

/// The front end every baseline shares: one [`FileSystem`] over an
/// [`FsCore`] behind one lock, with the persistence design `D` called at
/// the points where the baselines differ.
#[derive(Debug)]
pub struct Baseline<D> {
    device: Arc<PmemDevice>,
    pub(crate) core: RwLock<FsCore>,
    pub(crate) design: D,
}

impl<D: Design> Baseline<D> {
    /// Formats a baseline on the device, reserving `reserved_bytes` at its
    /// start for the design's journal or log.
    pub(crate) fn format(device: Arc<PmemDevice>, reserved_bytes: u64, design: D) -> Arc<Self> {
        let core = FsCore::new(Arc::clone(&device), reserved_bytes);
        Arc::new(Self {
            device,
            core: RwLock::new(core),
            design,
        })
    }

    /// The gather path: one entry charge and one design write for the
    /// whole gather.  With `at == None` the write lands at the end of
    /// file, resolved under the same core lock as the write itself, so
    /// concurrent appenders serialize instead of racing a stale `fstat`.
    fn gather(&self, fd: Fd, at: Option<u64>, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let file = core.fd(fd)?;
        if !file.flags.write {
            return Err(FsError::PermissionDenied);
        }
        let total = iov_total_len(iov);
        if total == 0 {
            return Ok(0);
        }
        let offset = match at {
            Some(offset) => offset,
            None => core.node(file.ino)?.size,
        };
        self.design.write(&mut core, file.ino, offset, iov)?;
        Ok(total as usize)
    }

    /// Number of data blocks allocated to files, orphans included.
    pub fn allocated_blocks(&self) -> u64 {
        self.core.read().allocated_blocks()
    }

    /// Resolves `path` to a directory entry that must exist.
    fn existing(core: &FsCore, path: &str) -> FsResult<(u64, String, u64)> {
        let (parent, name, ino) = core.resolve(path)?;
        Ok((parent, name, ino.ok_or(FsError::NotFound)?))
    }
}

impl<D: Design> FileSystem for Baseline<D> {
    fn name(&self) -> String {
        self.design.name()
    }

    fn consistency(&self) -> ConsistencyClass {
        self.design.consistency()
    }

    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = match existing {
            Some(ino) => {
                if flags.exclusive && flags.create {
                    return Err(FsError::AlreadyExists);
                }
                if flags.truncate {
                    self.design
                        .metadata(&mut core, Meta::Truncate { ino, size: 0 })?;
                    core.truncate(ino, 0)?;
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                self.design.metadata(&mut core, Meta::Create)?;
                core.create_node(parent, &name, false)?
            }
        };
        Ok(core.insert_fd(ino, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        self.core.write().remove_fd(fd)?;
        Ok(())
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.design.charge_read(&self.device);
        let mut core = self.core.write();
        let file = core.fd(fd)?;
        if !file.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let size = core.node(file.ino)?.size;
        if offset >= size || buf.is_empty() {
            return Ok(0);
        }
        let n = ((size - offset) as usize).min(buf.len());
        let pattern = if offset == file.last_read_end {
            AccessPattern::Sequential
        } else {
            AccessPattern::Random
        };
        self.design
            .read(&core, file.ino, offset, &mut buf[..n], pattern)?;
        core.fd_mut(fd)?.last_read_end = offset + n as u64;
        Ok(n)
    }

    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.gather(fd, Some(offset), iov)
    }

    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        let n = self.gather(fd, None, iov)?;
        self.device.stats().add_appendv(iov.len() as u64);
        Ok(n)
    }

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        // Every design persists each operation before it returns; the
        // batch pays one entry charge for the set.
        if fds.is_empty() {
            return Ok(());
        }
        self.design.charge_entry(&self.device);
        let core = self.core.read();
        for &fd in fds {
            core.fd(fd)?;
        }
        self.device.stats().add_fsync_many(fds.len() as u64);
        Ok(())
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let offset = self.core.read().fd(fd)?.offset;
        let n = self.read_at(fd, offset, buf)?;
        self.core.write().fd_mut(fd)?.offset = offset + n as u64;
        Ok(n)
    }

    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        // An `O_APPEND` descriptor writes at the end of file, which only
        // the gather can resolve under its lock; the cursor then moves to
        // the end of the written range.
        let file = self.core.read().fd(fd)?;
        let at = (!file.flags.append).then_some(file.offset);
        let n = self.gather(fd, at, &[IoVec::new(data)])?;
        let mut core = self.core.write();
        let end = match at {
            Some(offset) => offset + n as u64,
            None => core.node(file.ino)?.size,
        };
        core.fd_mut(fd)?.offset = end;
        Ok(n)
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.design.charge_entry(&self.device);
        self.core.write().seek(fd, pos)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        // Every design persists each operation before it returns; fsync
        // pays only the entry charge.
        self.design.charge_entry(&self.device);
        self.core.read().fd(fd)?;
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let ino = core.fd(fd)?.ino;
        self.design
            .metadata(&mut core, Meta::Truncate { ino, size })?;
        if size > core.node(ino)?.size {
            core.ensure_blocks(ino, 0, size)?;
            core.node_mut(ino)?.size = size;
        } else {
            core.truncate(ino, size)?;
        }
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.design.charge_entry(&self.device);
        let core = self.core.read();
        let file = core.fd(fd)?;
        core.stat_node(file.ino)
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.design.charge_entry(&self.device);
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.stat_node(ino)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let (parent, name, ino) = Self::existing(&core, path)?;
        if core.node(ino)?.is_dir {
            return Err(FsError::IsADirectory);
        }
        self.design.metadata(&mut core, Meta::Unlink { ino })?;
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let (old_parent, old_name, _) = Self::existing(&core, old)?;
        let (new_parent, new_name, _) = core.resolve(new)?;
        // The move touches no device byte, so moving first keeps a refused
        // rename out of the journal without reordering any device traffic.
        core.move_entry(old_parent, &old_name, new_parent, &new_name)?;
        self.design.metadata(&mut core, Meta::Rename)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists);
        }
        self.design.metadata(&mut core, Meta::Mkdir)?;
        core.create_node(parent, &name, true)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.design.charge_entry(&self.device);
        let mut core = self.core.write();
        let (parent, name, ino) = Self::existing(&core, path)?;
        if !core.node(ino)?.is_dir {
            return Err(FsError::NotADirectory);
        }
        if !core.dir_is_empty(ino) {
            return Err(FsError::NotEmpty);
        }
        self.design.metadata(&mut core, Meta::Rmdir)?;
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.design.charge_entry(&self.device);
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.list_dir(ino)
    }

    fn sync(&self) -> FsResult<()> {
        self.design.sync(&mut self.core.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn core() -> FsCore {
        let device = PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        FsCore::new(device, 1024 * 1024)
    }

    #[test]
    fn create_resolve_and_remove() {
        let mut c = core();
        let ino = c.create_node(ROOT_INO, "file.txt", false).unwrap();
        assert_eq!(c.resolve("/file.txt").unwrap().2, Some(ino));
        assert_eq!(c.resolve_existing("/file.txt").unwrap(), ino);
        c.remove_node(ROOT_INO, "file.txt").unwrap();
        assert_eq!(c.resolve("/file.txt").unwrap().2, None);
    }

    #[test]
    fn nested_directories_resolve() {
        let mut c = core();
        let d1 = c.create_node(ROOT_INO, "a", true).unwrap();
        let d2 = c.create_node(d1, "b", true).unwrap();
        let f = c.create_node(d2, "c.dat", false).unwrap();
        assert_eq!(c.resolve_existing("/a/b/c.dat").unwrap(), f);
        assert!(matches!(
            c.resolve("/a/missing/c.dat"),
            Err(FsError::NotFound)
        ));
    }

    #[test]
    fn data_round_trips_through_blocks() {
        let mut c = core();
        let ino = c.create_node(ROOT_INO, "f", false).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        c.ensure_blocks(ino, 0, data.len() as u64).unwrap();
        c.write_data(
            ino,
            0,
            &data,
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        )
        .unwrap();
        c.node_mut(ino).unwrap().size = data.len() as u64;
        let mut out = vec![0u8; data.len()];
        c.read_data(
            ino,
            0,
            &mut out,
            AccessPattern::Sequential,
            TimeCategory::UserData,
        )
        .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn truncate_frees_blocks() {
        let mut c = core();
        let ino = c.create_node(ROOT_INO, "f", false).unwrap();
        c.ensure_blocks(ino, 0, 10 * BLOCK_SIZE as u64).unwrap();
        let before = c.allocated_blocks();
        c.truncate(ino, BLOCK_SIZE as u64).unwrap();
        assert_eq!(c.allocated_blocks(), before - 9);
    }

    #[test]
    fn rename_replaces_destination() {
        let mut c = core();
        let a = c.create_node(ROOT_INO, "a", false).unwrap();
        let _b = c.create_node(ROOT_INO, "b", false).unwrap();
        c.move_entry(ROOT_INO, "a", ROOT_INO, "b").unwrap();
        assert_eq!(c.resolve_existing("/b").unwrap(), a);
        assert!(c.resolve_existing("/a").is_err());
    }

    #[test]
    fn fd_lifecycle() {
        let mut c = core();
        let ino = c.create_node(ROOT_INO, "f", false).unwrap();
        let fd = c.insert_fd(ino, OpenFlags::create());
        assert_eq!(c.fd(fd).unwrap().ino, ino);
        c.seek(fd, SeekFrom::Start(42)).unwrap();
        assert_eq!(c.fd(fd).unwrap().offset, 42);
        c.remove_fd(fd).unwrap();
        assert!(c.fd(fd).is_err());
    }
}
