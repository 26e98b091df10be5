//! NOVA baseline.
//!
//! NOVA (Xu & Swanson, FAST '16) is a log-structured PM file system: every
//! inode has its own log on PM, and each operation appends a log entry and
//! then persists the new log tail.  The paper's evaluation uses two
//! configurations (§3.2):
//!
//! * **NOVA-relaxed** — in-place data updates, no checksums: the "sync"
//!   guarantee class.
//! * **NOVA-strict** — copy-on-write data updates: the "strict" class.
//!
//! The cost structure SplitFS contrasts itself with is NOVA's logging: at
//! least **two cache lines written and two fences** per operation (the log
//! entry and the persisted log tail), versus SplitFS's single 64 B entry
//! and single fence (§3.3).  That behaviour is reproduced here: every
//! mutating operation calls `Nova::log_op`, which writes a 128 B entry,
//! fences, updates the on-PM tail, and fences again.

use std::sync::Arc;

use parking_lot::RwLock;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{
    iov_total_len, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult, IoVec, OpenFlags,
    SeekFrom,
};

use crate::common::{write_at_cursor, FsCore, BLOCK_SIZE};

/// Bytes reserved at the start of the device for the per-inode logs
/// (modelled as one circular region).
const LOG_RESERVED: u64 = 64 * 1024 * 1024;

/// Size of a NOVA log entry: two cache lines.
const LOG_ENTRY: usize = 128;

/// Which NOVA configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NovaMode {
    /// In-place data updates; synchronous but not atomic ("NOVA-relaxed").
    Relaxed,
    /// Copy-on-write data updates; synchronous and atomic ("NOVA-strict").
    Strict,
}

/// The NOVA baseline file system.
#[derive(Debug)]
pub struct Nova {
    device: Arc<PmemDevice>,
    core: RwLock<FsCore>,
    mode: NovaMode,
    log_head: RwLock<u64>,
}

impl Nova {
    /// Creates (formats) a NOVA instance in the given mode.
    pub fn new(device: Arc<PmemDevice>, mode: NovaMode) -> Arc<Self> {
        let core = FsCore::new(Arc::clone(&device), LOG_RESERVED);
        Arc::new(Self {
            device,
            core: RwLock::new(core),
            mode,
            log_head: RwLock::new(0),
        })
    }

    fn charge_syscall(&self) {
        let cost = self.device.cost();
        self.device.stats().add_kernel_trap();
        self.device
            .charge_software(cost.kernel_trap_ns + cost.vfs_path_ns);
    }

    /// Appends one log entry for an operation: 128 B entry + fence, then the
    /// on-PM log tail (one cache line) + fence — NOVA's two-line/two-fence
    /// pattern.
    fn log_op(&self) {
        let cost = self.device.cost();
        self.device.charge_software(cost.nova_log_entry_ns);
        let mut head = self.log_head.write();
        if *head + LOG_ENTRY as u64 + 64 > LOG_RESERVED {
            *head = 0;
        }
        let entry = [0u8; LOG_ENTRY];
        self.device.write(
            *head,
            &entry,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        self.device.fence(TimeCategory::Journal);
        *head += LOG_ENTRY as u64;
        // Persist the log tail pointer (one cache line) with a second fence.
        let tail = [0u8; 64];
        self.device.write(
            *head,
            &tail,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        self.device.fence(TimeCategory::Journal);
        *head += 64;
        self.device.charge_software(cost.nova_radix_update_ns);
    }

    /// Writes one slice's bytes with the core lock held, in the mode's
    /// style (relaxed: in place; strict: copy-on-write per touched block).
    /// Does not fence, update the size, or log — the caller does that once
    /// per logical operation.
    fn write_slice(&self, core: &mut FsCore, ino: u64, offset: u64, data: &[u8]) -> FsResult<()> {
        let cost = self.device.cost();
        let old_size = core.node(ino)?.size;
        match self.mode {
            NovaMode::Relaxed => {
                let newly = core.ensure_blocks(ino, offset, data.len() as u64)?;
                if newly > 0 {
                    self.device.charge_software(cost.nova_alloc_ns);
                }
                core.write_data(
                    ino,
                    offset,
                    data,
                    PersistMode::NonTemporal,
                    TimeCategory::UserData,
                )?;
            }
            NovaMode::Strict => {
                // Copy-on-write: every touched block gets a freshly
                // allocated replacement containing merged old + new bytes.
                // Holes below the write are filled with allocated blocks
                // first so the logical-to-physical map stays dense.
                core.ensure_blocks(ino, offset, data.len() as u64)?;
                let first_block = offset / BLOCK_SIZE as u64;
                let last_block = (offset + data.len() as u64 - 1) / BLOCK_SIZE as u64;
                self.device.charge_software(cost.nova_alloc_ns);
                for block in first_block..=last_block {
                    let block_start = block * BLOCK_SIZE as u64;
                    let mut image = vec![0u8; BLOCK_SIZE];
                    // Preserve existing bytes of a partially overwritten
                    // block.
                    let had_old = old_size > block_start;
                    if had_old {
                        core.read_data(
                            ino,
                            block_start,
                            &mut image,
                            AccessPattern::Sequential,
                            TimeCategory::UserData,
                        )?;
                    }
                    // Overlay the new bytes.
                    let copy_start = offset.max(block_start);
                    let copy_end =
                        (offset + data.len() as u64).min(block_start + BLOCK_SIZE as u64);
                    let src_from = (copy_start - offset) as usize;
                    let src_to = (copy_end - offset) as usize;
                    let dst_from = (copy_start - block_start) as usize;
                    image[dst_from..dst_from + (src_to - src_from)]
                        .copy_from_slice(&data[src_from..src_to]);

                    // Write the replacement block and swap it in.
                    let new_block = core.alloc_block()?;
                    self.device.write(
                        new_block * BLOCK_SIZE as u64,
                        &image,
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    let node = core.node_mut(ino)?;
                    let old_block = node.blocks[block as usize];
                    node.blocks[block as usize] = new_block;
                    core.free_block(old_block);
                }
            }
        }
        let new_end = offset + data.len() as u64;
        if new_end > old_size {
            core.node_mut(ino)?.size = new_end;
        }
        Ok(())
    }

    /// The shared write path: one trap, one data fence and **one** inode
    /// log commit (2 cache lines, 2 fences) for the whole gather.  With
    /// `at == None` the write lands at the end of file, resolved under the
    /// same core lock as the write — concurrent appenders serialize.
    fn vectored_write(&self, fd: Fd, at: Option<u64>, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.charge_syscall();
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
        let mut cur = offset;
        for v in iov {
            if v.is_empty() {
                continue;
            }
            self.write_slice(&mut core, file.ino, cur, v.as_slice())?;
            cur += v.len() as u64;
        }
        self.device.fence(TimeCategory::UserData);
        // Commit the operation in the inode log (2 cache lines, 2 fences).
        self.log_op();
        Ok(total as usize)
    }
}

impl FileSystem for Nova {
    fn name(&self) -> String {
        match self.mode {
            NovaMode::Relaxed => "NOVA-relaxed".to_string(),
            NovaMode::Strict => "NOVA-strict".to_string(),
        }
    }

    fn consistency(&self) -> ConsistencyClass {
        match self.mode {
            NovaMode::Relaxed => ConsistencyClass::Sync,
            NovaMode::Strict => ConsistencyClass::Strict,
        }
    }

    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_syscall();
        let cost = self.device.cost();
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = match existing {
            Some(ino) => {
                if flags.exclusive && flags.create {
                    return Err(FsError::AlreadyExists);
                }
                if flags.truncate {
                    self.log_op();
                    core.truncate(ino, 0)?;
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                self.device.charge_software(cost.nova_alloc_ns);
                self.log_op();
                core.create_node(parent, &name, false)?
            }
        };
        Ok(core.insert_fd(ino, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.charge_syscall();
        self.core.write().remove_fd(fd)?;
        Ok(())
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.charge_syscall();
        let cost = self.device.cost();
        self.device.charge_software(cost.nova_radix_update_ns * 0.5);
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
        core.read_data(
            file.ino,
            offset,
            &mut buf[..n],
            pattern,
            TimeCategory::UserData,
        )?;
        core.fd_mut(fd)?.last_read_end = offset + n as u64;
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

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        // Operations are synchronous; the batch pays one trap for the set.
        if fds.is_empty() {
            return Ok(());
        }
        self.charge_syscall();
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
        write_at_cursor(&self.core, fd, data, |at, iov| {
            self.vectored_write(fd, at, iov)
        })
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.charge_syscall();
        self.core.write().seek(fd, pos)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        // Operations are synchronous; fsync costs only the trap.
        self.charge_syscall();
        self.core.read().fd(fd)?;
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let file = core.fd(fd)?;
        self.log_op();
        if size > core.node(file.ino)?.size {
            core.ensure_blocks(file.ino, 0, size)?;
            core.node_mut(file.ino)?.size = size;
        } else {
            core.truncate(file.ino, size)?;
        }
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.charge_syscall();
        let core = self.core.read();
        let file = core.fd(fd)?;
        core.stat_node(file.ino)
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.charge_syscall();
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.stat_node(ino)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        if core.node(ino)?.is_dir {
            return Err(FsError::IsADirectory);
        }
        self.log_op();
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (old_parent, old_name, old_ino) = core.resolve(old)?;
        old_ino.ok_or(FsError::NotFound)?;
        let (new_parent, new_name, _) = core.resolve(new)?;
        // Rename touches two directory logs.
        self.log_op();
        self.log_op();
        core.move_entry(old_parent, &old_name, new_parent, &new_name)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists);
        }
        self.log_op();
        core.create_node(parent, &name, true)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        if !core.node(ino)?.is_dir {
            return Err(FsError::NotADirectory);
        }
        if !core.dir_is_empty(ino) {
            return Err(FsError::NotEmpty);
        }
        self.log_op();
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.charge_syscall();
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.list_dir(ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn fs(mode: NovaMode) -> Arc<Nova> {
        let device = PmemBuilder::new(128 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Nova::new(device, mode)
    }

    #[test]
    fn strict_and_relaxed_round_trip_data() {
        for mode in [NovaMode::Relaxed, NovaMode::Strict] {
            let fs = fs(mode);
            let fd = fs.open("/f", OpenFlags::create()).unwrap();
            let data: Vec<u8> = (0..9000u32).map(|i| (i % 241) as u8).collect();
            fs.write_at(fd, 0, &data).unwrap();
            // Partial overwrite in the middle.
            fs.write_at(fd, 4000, &[0xEE; 200]).unwrap();
            let mut out = vec![0u8; data.len()];
            fs.read_at(fd, 0, &mut out).unwrap();
            assert_eq!(&out[..4000], &data[..4000]);
            assert_eq!(&out[4000..4200], &[0xEE; 200]);
            assert_eq!(&out[4200..], &data[4200..]);
        }
    }

    #[test]
    fn every_write_logs_two_cache_lines_and_two_fences() {
        let fs = fs(NovaMode::Strict);
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        let before = fs.device().stats().snapshot();
        fs.write_at(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        assert_eq!(delta.written(TimeCategory::Journal), 192); // 128 + 64
                                                               // Data fence + two log fences.
        assert_eq!(delta.fences, 3);
    }

    #[test]
    fn strict_cow_does_not_write_in_place() {
        let fs = fs(NovaMode::Strict);
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        let ino = core.fd(fd).unwrap().ino;
        let first = core.node(ino).unwrap().blocks[0];
        drop(core);
        fs.write_at(fd, 0, &vec![2u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        let second = core.node(ino).unwrap().blocks[0];
        assert_ne!(first, second, "strict mode must copy-on-write");
    }

    #[test]
    fn relaxed_overwrites_in_place() {
        let fs = fs(NovaMode::Relaxed);
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        let ino = core.fd(fd).unwrap().ino;
        let first = core.node(ino).unwrap().blocks[0];
        drop(core);
        fs.write_at(fd, 0, &vec![2u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        assert_eq!(core.node(ino).unwrap().blocks[0], first);
    }

    #[test]
    fn consistency_classes_match_modes() {
        assert_eq!(fs(NovaMode::Relaxed).consistency(), ConsistencyClass::Sync);
        assert_eq!(fs(NovaMode::Strict).consistency(), ConsistencyClass::Strict);
    }
}
