//! PMFS baseline.
//!
//! PMFS (Dulloor et al., EuroSys '14) writes data in place, keeps metadata
//! consistent with a fine-grained undo journal, and makes every operation
//! synchronous: when a `write` returns, the data is persistent.  Data
//! operations are *not* atomic — a crash can leave a partially applied
//! overwrite — which places PMFS in the paper's "sync" guarantee class
//! together with NOVA-relaxed and SplitFS-sync (Table 3).

use std::sync::Arc;

use parking_lot::RwLock;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{
    iov_total_len, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult, IoVec, OpenFlags,
    SeekFrom,
};

use crate::common::{write_at_cursor, FsCore};

/// Bytes reserved at the start of the device for the PMFS undo journal.
const JOURNAL_RESERVED: u64 = 4 * 1024 * 1024;

/// Size of one undo-journal record.
const JOURNAL_RECORD: usize = 64;

/// The PMFS baseline file system.
#[derive(Debug)]
pub struct Pmfs {
    device: Arc<PmemDevice>,
    core: RwLock<FsCore>,
    journal_head: RwLock<u64>,
}

impl Pmfs {
    /// Creates (formats) a PMFS instance on the device.
    pub fn new(device: Arc<PmemDevice>) -> Arc<Self> {
        let core = FsCore::new(Arc::clone(&device), JOURNAL_RESERVED);
        Arc::new(Self {
            device,
            core: RwLock::new(core),
            journal_head: RwLock::new(0),
        })
    }

    fn charge_syscall(&self) {
        let cost = self.device.cost();
        self.device.stats().add_kernel_trap();
        self.device
            .charge_software(cost.kernel_trap_ns + cost.vfs_path_ns);
    }

    /// Writes `records` 64-byte undo-journal records and persists them.
    fn journal(&self, records: usize) {
        let cost = self.device.cost();
        self.device
            .charge_software(records as f64 * cost.pmfs_journal_record_ns);
        let mut head = self.journal_head.write();
        let entry = [0u8; JOURNAL_RECORD];
        for _ in 0..records {
            if *head + JOURNAL_RECORD as u64 > JOURNAL_RESERVED {
                *head = 0;
            }
            self.device.write(
                *head,
                &entry,
                PersistMode::NonTemporal,
                TimeCategory::Journal,
            );
            *head += JOURNAL_RECORD as u64;
        }
        self.device.fence(TimeCategory::Journal);
    }

    /// The shared write path: one trap, one allocation/journal decision
    /// and one trailing fence for the whole gather.  With `at == None` the
    /// write lands at the end of file, resolved under the same core lock
    /// as the write itself — concurrent appenders serialize instead of
    /// racing a stale `fstat`.
    fn vectored_write(&self, fd: Fd, at: Option<u64>, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.charge_syscall();
        let cost = self.device.cost();
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
        let newly = core.ensure_blocks(file.ino, offset, total)?;
        if newly > 0 {
            // Block allocation updates allocator metadata under journal
            // protection.
            self.device
                .charge_software(cost.pmfs_alloc_ns * newly.div_ceil(8) as f64);
            self.journal(1 + (newly as usize).div_ceil(64));
        }
        // In-place synchronous data writes, one fence for the gather.
        let mut cur = offset;
        for v in iov {
            if v.is_empty() {
                continue;
            }
            core.write_data(
                file.ino,
                cur,
                v.as_slice(),
                PersistMode::NonTemporal,
                TimeCategory::UserData,
            )?;
            cur += v.len() as u64;
        }
        self.device.fence(TimeCategory::UserData);
        let node = core.node_mut(file.ino)?;
        let new_end = offset + total;
        if new_end > node.size {
            node.size = new_end;
            self.device.charge_software(cost.pmfs_inode_update_ns);
            drop(core);
            self.journal(1);
        }
        Ok(total as usize)
    }
}

impl FileSystem for Pmfs {
    fn name(&self) -> String {
        "PMFS".to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        ConsistencyClass::Sync
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
                    self.journal(2);
                    core.truncate(ino, 0)?;
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                self.device.charge_software(cost.pmfs_inode_update_ns);
                self.journal(2);
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
        // Every operation is already synchronous; the batch pays one trap
        // instead of one per descriptor.
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
        // Every operation is already synchronous; fsync only pays the trap.
        self.charge_syscall();
        self.core.read().fd(fd)?;
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let file = core.fd(fd)?;
        self.journal(2);
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
        self.journal(2);
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (old_parent, old_name, old_ino) = core.resolve(old)?;
        old_ino.ok_or(FsError::NotFound)?;
        let (new_parent, new_name, _) = core.resolve(new)?;
        self.journal(3);
        core.move_entry(old_parent, &old_name, new_parent, &new_name)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.charge_syscall();
        let mut core = self.core.write();
        let (parent, name, existing) = core.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists);
        }
        self.journal(2);
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
        self.journal(2);
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
    use crate::common::BLOCK_SIZE;
    use pmem::PmemBuilder;

    fn fs() -> Arc<Pmfs> {
        let device = PmemBuilder::new(64 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Pmfs::new(device)
    }

    #[test]
    fn write_read_round_trip() {
        let fs = fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        let data = vec![9u8; 3 * BLOCK_SIZE + 17];
        fs.write_at(fd, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        assert_eq!(fs.read_at(fd, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn writes_are_synchronous() {
        // Synchronous means the data write was fenced before returning —
        // nothing should remain unpersisted after write_at.
        let device = PmemBuilder::new(64 * 1024 * 1024).build();
        let fs = Pmfs::new(Arc::clone(&device));
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![1u8; 8192]).unwrap();
        assert_eq!(device.unpersisted_lines(), 0);
    }

    #[test]
    fn metadata_operations_journal() {
        let fs = fs();
        let before = fs
            .device()
            .stats()
            .snapshot()
            .written(TimeCategory::Journal);
        let fd = fs.open("/newfile", OpenFlags::create()).unwrap();
        fs.close(fd).unwrap();
        fs.unlink("/newfile").unwrap();
        let after = fs
            .device()
            .stats()
            .snapshot()
            .written(TimeCategory::Journal);
        assert!(after > before, "create/unlink must write journal records");
    }

    #[test]
    fn rename_and_directories() {
        let fs = fs();
        fs.mkdir("/dir").unwrap();
        fs.write_file("/dir/a", b"abc").unwrap();
        fs.rename("/dir/a", "/dir/b").unwrap();
        assert_eq!(fs.read_file("/dir/b").unwrap(), b"abc");
        assert!(fs.stat("/dir/a").is_err());
        assert_eq!(fs.readdir("/dir").unwrap(), vec!["b".to_string()]);
    }
}
