//! Shared machinery for the baseline file systems.
//!
//! PMFS, NOVA and Strata differ in *how* they persist data and metadata
//! (in-place vs copy-on-write vs private-log-then-digest) and in the
//! logging traffic each operation generates, but they share the mechanical
//! parts of being a file system: a namespace, inodes, a block allocator and
//! the mapping of file bytes to device blocks.  [`FsCore`] provides those
//! mechanics with *no* cost accounting beyond raw device traffic; each
//! baseline charges its own software costs and extra journal/log traffic
//! around the core calls so that the performance differences between the
//! baselines come only from their architectural differences, as in the
//! paper.
//!
//! The baselines are performance-faithful rather than recovery-faithful:
//! they keep their metadata authoritative in memory (the paper's
//! experiments never crash the baselines; crash-consistency experiments
//! target SplitFS and the kernel file system, which have full on-device
//! recovery paths).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{path as vpath, Fd, FileStat, FsError, FsResult, IoVec, OpenFlags, SeekFrom};

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
}

impl Node {
    fn new(ino: u64, is_dir: bool) -> Self {
        Self {
            ino,
            is_dir,
            size: 0,
            blocks: Vec::new(),
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

    /// The device the core writes to.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
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
            let map = self.dirs.get(&dir_ino).ok_or(FsError::NotADirectory)?;
            let &child = map.get(comp).ok_or(FsError::NotFound)?;
            if !self.nodes.get(&child).map(|n| n.is_dir).unwrap_or(false) {
                return Err(FsError::NotADirectory);
            }
            dir_ino = child;
        }
        let map = self.dirs.get(&dir_ino).ok_or(FsError::NotADirectory)?;
        Ok((dir_ino, name.to_string(), map.get(name).copied()))
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

    /// Removes the directory entry and, when this was the last reference,
    /// frees the node's blocks.  Returns the freed block count.
    pub fn remove_node(&mut self, parent: u64, name: &str) -> FsResult<u64> {
        let ino = self
            .dirs
            .get_mut(&parent)
            .ok_or(FsError::NotADirectory)?
            .remove(name)
            .ok_or(FsError::NotFound)?;
        let node = self.nodes.remove(&ino).ok_or(FsError::NotFound)?;
        self.dirs.remove(&ino);
        let freed = node.blocks.len() as u64;
        for b in node.blocks {
            self.free_block(b);
        }
        Ok(freed)
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

    /// Moves a directory entry (rename); frees a replaced destination node.
    pub fn move_entry(
        &mut self,
        old_parent: u64,
        old_name: &str,
        new_parent: u64,
        new_name: &str,
    ) -> FsResult<()> {
        let ino = self
            .dirs
            .get_mut(&old_parent)
            .ok_or(FsError::NotADirectory)?
            .remove(old_name)
            .ok_or(FsError::NotFound)?;
        if self
            .dirs
            .get(&new_parent)
            .ok_or(FsError::NotADirectory)?
            .contains_key(new_name)
        {
            self.remove_node(new_parent, new_name)?;
        }
        self.dirs
            .get_mut(&new_parent)
            .ok_or(FsError::NotADirectory)?
            .insert(new_name.to_string(), ino);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Descriptor table
    // ------------------------------------------------------------------

    /// Registers an open descriptor.
    pub fn insert_fd(&mut self, ino: u64, flags: OpenFlags) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
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

    /// Removes a descriptor.
    pub fn remove_fd(&mut self, fd: Fd) -> FsResult<OpenFile> {
        self.fds.remove(&fd).ok_or(FsError::BadFd)
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
            nlink: 1,
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
        let mut pos = 0usize;
        while pos < data.len() {
            let file_off = offset + pos as u64;
            let block_idx = (file_off / BLOCK_SIZE as u64) as usize;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(data.len() - pos);
            let phys = *node
                .blocks
                .get(block_idx)
                .ok_or_else(|| FsError::Io("write beyond allocated blocks".into()))?;
            self.device.write(
                phys * BLOCK_SIZE as u64 + within as u64,
                &data[pos..pos + chunk],
                mode,
                cat,
            );
            pos += chunk;
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
        let mut pos = 0usize;
        let mut first = true;
        while pos < buf.len() {
            let file_off = offset + pos as u64;
            let block_idx = (file_off / BLOCK_SIZE as u64) as usize;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(buf.len() - pos);
            match node.blocks.get(block_idx) {
                Some(&phys) => {
                    let p = if first {
                        pattern
                    } else {
                        AccessPattern::Sequential
                    };
                    self.device.read(
                        phys * BLOCK_SIZE as u64 + within as u64,
                        &mut buf[pos..pos + chunk],
                        p,
                        cat,
                    );
                }
                None => buf[pos..pos + chunk].fill(0),
            }
            first = false;
            pos += chunk;
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

/// POSIX `write` for the three baselines: the data goes to the
/// descriptor's offset or, on an `O_APPEND` descriptor, to the end of file
/// — passed to `body` as `None`, because only the file system's write
/// body can resolve it under the lock the write itself holds.  The
/// descriptor's offset moves to the end of the written range afterwards.
pub fn write_at_cursor(
    core: &parking_lot::RwLock<FsCore>,
    fd: Fd,
    data: &[u8],
    body: impl FnOnce(Option<u64>, &[IoVec<'_>]) -> FsResult<usize>,
) -> FsResult<usize> {
    let file = core.read().fd(fd)?;
    let at = (!file.flags.append).then_some(file.offset);
    let n = body(at, &[IoVec::new(data)])?;
    let mut core = core.write();
    let end = match at {
        Some(offset) => offset + n as u64,
        None => core.node(file.ino)?.size,
    };
    core.fd_mut(fd)?.offset = end;
    Ok(n)
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
