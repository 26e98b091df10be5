//! Strata baseline (PM layer).
//!
//! Strata (Kwon et al., SOSP '17) writes every update — data and metadata —
//! into a per-process private log on PM; a *digest* later coalesces the log
//! and copies the surviving data into a shared area.  Two consequences the
//! SplitFS paper highlights are reproduced here:
//!
//! * **Double writes**: append-dominated workloads cannot be coalesced, so
//!   the data is written twice (private log, then shared area), roughly
//!   doubling PM write traffic and wear (§2.3, Table 7 discussion).
//! * **Visibility**: updates are only visible to other processes after the
//!   digest; within the owning process the in-memory index makes them
//!   visible immediately.
//!
//! A digest runs automatically when the private log passes a utilization
//! threshold, and can be forced with [`vfs::FileSystem::sync`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{
    iov_total_len, ConsistencyClass, Fd, FileStat, FileSystem, FsError, FsResult, IoVec, OpenFlags,
    SeekFrom,
};

use crate::common::{write_at_cursor, FsCore, BLOCK_SIZE};

/// Default private-log capacity.  The paper evaluates Strata with a 20 GB
/// log on scaled-down YCSB; the default here is sized for the scaled-down
/// workloads the harness runs and can be overridden with
/// [`Strata::with_log_capacity`].
pub const DEFAULT_LOG_CAPACITY: u64 = 128 * 1024 * 1024;

/// Digest when the log is this full.
const DIGEST_THRESHOLD: f64 = 0.75;

/// Per-entry header written ahead of the data in the private log.
const LOG_HEADER: usize = 64;

#[derive(Debug, Clone, Copy)]
struct LogExtent {
    /// Byte offset within the private log where the block's latest data is.
    log_offset: u64,
    /// Number of valid bytes (always a full block except the file tail).
    len: u64,
}

/// The Strata baseline file system.
#[derive(Debug)]
pub struct Strata {
    device: Arc<PmemDevice>,
    core: RwLock<FsCore>,
    state: RwLock<LogState>,
    log_capacity: u64,
}

#[derive(Debug, Default)]
struct LogState {
    /// Next free byte in the private log region.
    head: u64,
    /// Latest logged version of each (ino, block) not yet digested.
    pending: HashMap<(u64, u64), LogExtent>,
    /// Count of digests performed (exposed for tests/experiments).
    digests: u64,
}

impl Strata {
    /// Creates a Strata instance with the default private-log capacity.
    pub fn new(device: Arc<PmemDevice>) -> Arc<Self> {
        Self::with_log_capacity(device, DEFAULT_LOG_CAPACITY)
    }

    /// Creates a Strata instance with an explicit private-log capacity.
    pub fn with_log_capacity(device: Arc<PmemDevice>, log_capacity: u64) -> Arc<Self> {
        let core = FsCore::new(Arc::clone(&device), log_capacity);
        Arc::new(Self {
            device,
            core: RwLock::new(core),
            state: RwLock::new(LogState::default()),
            log_capacity,
        })
    }

    /// Number of digest passes run so far.
    pub fn digest_count(&self) -> u64 {
        self.state.read().digests
    }

    fn charge_libfs(&self) {
        // Strata's LibFS handles the operation in user space: no kernel
        // trap, but index/lease bookkeeping.
        let cost = self.device.cost();
        self.device.charge_software(cost.strata_index_ns);
    }

    /// Appends one entry (header + payload) to the private log.
    fn log_append(&self, state: &mut LogState, payload: &[u8]) -> u64 {
        let cost = self.device.cost();
        self.device.charge_software(cost.strata_log_append_ns);
        let need = (LOG_HEADER + payload.len()) as u64;
        debug_assert!(need <= self.log_capacity);
        if state.head + need > self.log_capacity {
            // The caller digests before this can happen in normal operation;
            // wrap defensively.
            state.head = 0;
        }
        let header = [0u8; LOG_HEADER];
        self.device.write(
            state.head,
            &header,
            PersistMode::NonTemporal,
            TimeCategory::Journal,
        );
        let data_off = state.head + LOG_HEADER as u64;
        if !payload.is_empty() {
            self.device.write(
                data_off,
                payload,
                PersistMode::NonTemporal,
                TimeCategory::UserData,
            );
        }
        self.device.fence(TimeCategory::UserData);
        state.head += need;
        data_off
    }

    /// Runs a digest: coalesces the pending log entries and copies each
    /// surviving block into the shared area, then resets the log.
    fn digest(&self, core: &mut FsCore, state: &mut LogState) -> FsResult<()> {
        let cost = self.device.cost();
        let pending: Vec<((u64, u64), LogExtent)> = state.pending.drain().collect();
        for ((ino, block), ext) in pending {
            // The file may have been unlinked since the write was logged.
            if core.node(ino).is_err() {
                continue;
            }
            core.ensure_blocks(ino, block * BLOCK_SIZE as u64, ext.len)?;
            let mut buf = vec![0u8; ext.len as usize];
            self.device.read(
                ext.log_offset,
                &mut buf,
                AccessPattern::Sequential,
                TimeCategory::Journal,
            );
            self.device
                .charge_software(ext.len as f64 * cost.strata_digest_ns_per_byte);
            core.write_data(
                ino,
                block * BLOCK_SIZE as u64,
                &buf,
                PersistMode::NonTemporal,
                TimeCategory::Journal,
            )?;
        }
        self.device.fence(TimeCategory::Journal);
        state.head = 0;
        state.digests += 1;
        Ok(())
    }

    fn maybe_digest(&self, core: &mut FsCore, state: &mut LogState) -> FsResult<()> {
        if state.head as f64 >= self.log_capacity as f64 * DIGEST_THRESHOLD {
            self.digest(core, state)?;
        }
        Ok(())
    }

    /// Logs one slice's bytes with both locks held.  Each touched block
    /// becomes one log entry (header + block image); the caller updates
    /// the size and runs the digest check once per logical operation.
    fn write_slice_locked(
        &self,
        core: &mut FsCore,
        state: &mut LogState,
        ino: u64,
        offset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        let mut pos = 0usize;
        while pos < data.len() {
            let file_off = offset + pos as u64;
            let block = file_off / BLOCK_SIZE as u64;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(data.len() - pos);
            // Build the full-block image the log stores (merge with any
            // previous content so the digest can copy whole blocks).
            let mut image = vec![0u8; BLOCK_SIZE];
            let old_size = core.node(ino)?.size;
            if old_size > block * BLOCK_SIZE as u64 {
                // Read existing content (from log or shared area) without
                // recursing through read_at's permission/offset logic.
                match state.pending.get(&(ino, block)) {
                    Some(ext) => {
                        let take = ext.len as usize;
                        self.device.read(
                            ext.log_offset,
                            &mut image[..take],
                            AccessPattern::Random,
                            TimeCategory::UserData,
                        );
                    }
                    None => {
                        core.read_data(
                            ino,
                            block * BLOCK_SIZE as u64,
                            &mut image,
                            AccessPattern::Random,
                            TimeCategory::UserData,
                        )?;
                    }
                }
            }
            image[within..within + chunk].copy_from_slice(&data[pos..pos + chunk]);
            let valid = (within + chunk)
                .max((old_size.saturating_sub(block * BLOCK_SIZE as u64) as usize).min(BLOCK_SIZE));
            let log_offset = self.log_append(state, &image[..valid]);
            state.pending.insert(
                (ino, block),
                LogExtent {
                    log_offset,
                    len: valid as u64,
                },
            );
            // Writes become visible (to this process) as they land, so the
            // size must track each logged block for the merge reads above.
            let new_end = file_off + chunk as u64;
            if new_end > core.node(ino)?.size {
                core.node_mut(ino)?.size = new_end;
            }
            pos += chunk;
        }
        Ok(())
    }

    /// The shared write path: one LibFS bookkeeping charge and one digest
    /// check for the whole gather.  With `at == None` the write lands at
    /// the end of file, resolved under the same locks as the write —
    /// concurrent appenders serialize.
    fn vectored_write(&self, fd: Fd, at: Option<u64>, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
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
            self.write_slice_locked(&mut core, &mut state, file.ino, cur, v.as_slice())?;
            cur += v.len() as u64;
        }
        self.maybe_digest(&mut core, &mut state)?;
        Ok(total as usize)
    }
}

impl FileSystem for Strata {
    fn name(&self) -> String {
        "Strata".to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        ConsistencyClass::Strict
    }

    fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = match existing {
            Some(ino) => {
                if flags.exclusive && flags.create {
                    return Err(FsError::AlreadyExists);
                }
                if flags.truncate {
                    self.log_append(&mut state, &[]);
                    state.pending.retain(|(i, _), _| *i != ino);
                    core.truncate(ino, 0)?;
                }
                ino
            }
            None => {
                if !flags.create {
                    return Err(FsError::NotFound);
                }
                self.log_append(&mut state, &[]);
                core.create_node(parent, &name, false)?
            }
        };
        Ok(core.insert_fd(ino, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.charge_libfs();
        self.core.write().remove_fd(fd)?;
        Ok(())
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.charge_libfs();
        let mut core = self.core.write();
        let state = self.state.read();
        let file = core.fd(fd)?;
        if !file.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let size = core.node(file.ino)?.size;
        if offset >= size || buf.is_empty() {
            return Ok(0);
        }
        let n = ((size - offset) as usize).min(buf.len());
        // Serve each block from the freshest location: private log if the
        // block has an undigested write, shared area otherwise.
        let mut pos = 0usize;
        while pos < n {
            let file_off = offset + pos as u64;
            let block = file_off / BLOCK_SIZE as u64;
            let within = (file_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - within).min(n - pos);
            match state.pending.get(&(file.ino, block)) {
                Some(ext) if (within as u64) < ext.len => {
                    let take = chunk.min((ext.len - within as u64) as usize);
                    self.device.read(
                        ext.log_offset + within as u64,
                        &mut buf[pos..pos + take],
                        AccessPattern::Random,
                        TimeCategory::UserData,
                    );
                    if take < chunk {
                        buf[pos + take..pos + chunk].fill(0);
                    }
                }
                _ => {
                    core.read_data(
                        file.ino,
                        file_off,
                        &mut buf[pos..pos + chunk],
                        AccessPattern::Random,
                        TimeCategory::UserData,
                    )?;
                }
            }
            pos += chunk;
        }
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
        // Log writes are already persistent; the batch pays the LibFS
        // bookkeeping once for the set.
        if fds.is_empty() {
            return Ok(());
        }
        self.charge_libfs();
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
        self.charge_libfs();
        self.core.write().seek(fd, pos)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        // Log writes are already persistent; fsync is a no-op beyond the
        // LibFS bookkeeping.
        self.charge_libfs();
        self.core.read().fd(fd)?;
        Ok(())
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let file = core.fd(fd)?;
        self.log_append(&mut state, &[]);
        if size > core.node(file.ino)?.size {
            core.ensure_blocks(file.ino, 0, size)?;
            core.node_mut(file.ino)?.size = size;
        } else {
            let keep = size.div_ceil(BLOCK_SIZE as u64);
            state
                .pending
                .retain(|(i, b), _| *i != file.ino || *b < keep);
            core.truncate(file.ino, size)?;
        }
        Ok(())
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.charge_libfs();
        let core = self.core.read();
        let file = core.fd(fd)?;
        core.stat_node(file.ino)
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.charge_libfs();
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.stat_node(ino)
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        if core.node(ino)?.is_dir {
            return Err(FsError::IsADirectory);
        }
        self.log_append(&mut state, &[]);
        state.pending.retain(|(i, _), _| *i != ino);
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let (old_parent, old_name, old_ino) = core.resolve(old)?;
        old_ino.ok_or(FsError::NotFound)?;
        let (new_parent, new_name, _) = core.resolve(new)?;
        self.log_append(&mut state, &[]);
        core.move_entry(old_parent, &old_name, new_parent, &new_name)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let (parent, name, existing) = core.resolve(path)?;
        if existing.is_some() {
            return Err(FsError::AlreadyExists);
        }
        self.log_append(&mut state, &[]);
        core.create_node(parent, &name, true)?;
        Ok(())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.charge_libfs();
        let mut core = self.core.write();
        let mut state = self.state.write();
        let (parent, name, existing) = core.resolve(path)?;
        let ino = existing.ok_or(FsError::NotFound)?;
        if !core.node(ino)?.is_dir {
            return Err(FsError::NotADirectory);
        }
        if !core.dir_is_empty(ino) {
            return Err(FsError::NotEmpty);
        }
        self.log_append(&mut state, &[]);
        core.remove_node(parent, &name)?;
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.charge_libfs();
        let core = self.core.read();
        let ino = core.resolve_existing(path)?;
        core.list_dir(ino)
    }

    fn sync(&self) -> FsResult<()> {
        let mut core = self.core.write();
        let mut state = self.state.write();
        self.digest(&mut core, &mut state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn fs() -> Arc<Strata> {
        let device = PmemBuilder::new(128 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Strata::with_log_capacity(device, 8 * 1024 * 1024)
    }

    #[test]
    fn data_round_trips_before_and_after_digest() {
        let fs = fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 233) as u8).collect();
        fs.write_at(fd, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        fs.read_at(fd, 0, &mut out).unwrap();
        assert_eq!(out, data, "reads from the private log");

        fs.sync().unwrap(); // force a digest
        let mut out2 = vec![0u8; data.len()];
        fs.read_at(fd, 0, &mut out2).unwrap();
        assert_eq!(out2, data, "reads from the shared area after digest");
    }

    #[test]
    fn appends_are_written_twice() {
        let fs = fs();
        let fd = fs.open("/log", OpenFlags::append()).unwrap();
        let payload = vec![5u8; 64 * 1024];
        fs.write(fd, &payload).unwrap();
        fs.sync().unwrap();
        let snap = fs.device().stats().snapshot();
        let amp = snap.write_amplification(payload.len() as u64).unwrap();
        assert!(
            amp >= 2.0,
            "Strata must write appended data at least twice, got {amp:.2}x"
        );
    }

    #[test]
    fn digest_triggers_automatically_when_log_fills() {
        let fs = fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        // 8 MiB log, 75% threshold: ~6 MiB of appends force a digest.
        let chunk = vec![1u8; 64 * 1024];
        for i in 0..120u64 {
            fs.write_at(fd, i * chunk.len() as u64, &chunk).unwrap();
        }
        assert!(fs.digest_count() >= 1);
        // Data still correct after the automatic digest.
        let mut out = vec![0u8; chunk.len()];
        fs.read_at(fd, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
    }

    #[test]
    fn overwrites_coalesce_in_the_log() {
        let fs = fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        // Overwrite the same block many times, then digest: only the last
        // version is copied to the shared area.
        for v in 0..10u8 {
            fs.write_at(fd, 0, &vec![v; BLOCK_SIZE]).unwrap();
        }
        fs.sync().unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        fs.read_at(fd, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 9));
    }

    #[test]
    fn unlink_discards_pending_log_entries() {
        let fs = fs();
        let fd = fs.open("/gone", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        fs.close(fd).unwrap();
        fs.unlink("/gone").unwrap();
        // A digest after the unlink must not resurrect the file.
        fs.sync().unwrap();
        assert!(fs.stat("/gone").is_err());
    }
}
