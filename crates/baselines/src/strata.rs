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
use vfs::{ConsistencyClass, FsResult, IoVec};

use crate::common::{block_chunks, placed, Baseline, Design, FsCore, Meta, BLOCK_SIZE};

/// Default private-log capacity.  The paper evaluates Strata with a 20 GB
/// log on scaled-down YCSB; the default here is sized for the scaled-down
/// workloads the harness runs and can be overridden with
/// `Strata::with_log_capacity`.
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
pub type Strata = Baseline<PrivateLog>;

impl Strata {
    /// Creates a Strata instance with the default private-log capacity.
    pub fn new(device: Arc<PmemDevice>) -> Arc<Self> {
        Self::with_log_capacity(device, DEFAULT_LOG_CAPACITY)
    }

    /// Creates a Strata instance with an explicit private-log capacity.
    pub fn with_log_capacity(device: Arc<PmemDevice>, log_capacity: u64) -> Arc<Self> {
        let log = PrivateLog {
            device: Arc::clone(&device),
            state: RwLock::new(LogState::default()),
            log_capacity,
        };
        Baseline::format(device, log_capacity, log)
    }

    /// Number of digest passes run so far.
    pub fn digest_count(&self) -> u64 {
        self.design.state.read().digests
    }
}

/// Strata's persistence design: every update, data and metadata, appended
/// to a private log in user space, and digested into the shared area when
/// the log fills or on `sync`.
#[derive(Debug)]
pub struct PrivateLog {
    device: Arc<PmemDevice>,
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

impl PrivateLog {
    /// Appends one entry (header + payload) to the private log.
    fn log_append(&self, core: &mut FsCore, state: &mut LogState, payload: &[u8]) -> FsResult<u64> {
        let need = (LOG_HEADER + payload.len()) as u64;
        debug_assert!(need <= self.log_capacity);
        if state.head + need > self.log_capacity {
            // One gather can outrun the digest threshold: digest now rather
            // than overwrite entries still pending.
            self.digest(core, state)?;
        }
        let cost = self.device.cost();
        self.device.charge_software(cost.strata_log_append_ns);
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
        Ok(data_off)
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

    /// Reads file bytes with the log state held, each block from the
    /// freshest location: the private log if the block has an undigested
    /// write, the shared area otherwise.
    fn read_locked(
        &self,
        core: &FsCore,
        state: &LogState,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<()> {
        for (block, within, range) in block_chunks(offset, buf.len()) {
            let piece = &mut buf[range.clone()];
            match state.pending.get(&(ino, block)) {
                Some(ext) if (within as u64) < ext.len => {
                    let take = piece.len().min((ext.len - within as u64) as usize);
                    let (logged, past) = piece.split_at_mut(take);
                    self.device.read(
                        ext.log_offset + within as u64,
                        logged,
                        AccessPattern::Random,
                        TimeCategory::UserData,
                    );
                    past.fill(0);
                }
                _ => {
                    let file_off = offset + range.start as u64;
                    let random = AccessPattern::Random;
                    core.read_data(ino, file_off, piece, random, TimeCategory::UserData)?;
                }
            }
        }
        Ok(())
    }

    /// Logs one slice's bytes with both locks held.  Each touched block
    /// becomes one log entry (header + block image) and grows the file as
    /// it lands; the caller runs the digest check once per logical
    /// operation.
    fn write_slice_locked(
        &self,
        core: &mut FsCore,
        state: &mut LogState,
        ino: u64,
        offset: u64,
        data: &[u8],
    ) -> FsResult<()> {
        for (block, within, range) in block_chunks(offset, data.len()) {
            let block_start = block * BLOCK_SIZE as u64;
            // Build the full-block image the log stores (merge with any
            // previous content so the digest can copy whole blocks).
            let mut image = vec![0u8; BLOCK_SIZE];
            let old_size = core.node(ino)?.size;
            if old_size > block_start {
                self.read_locked(core, state, ino, block_start, &mut image)?;
            }
            let end = within + range.len();
            image[within..end].copy_from_slice(&data[range]);
            let old_here = old_size.saturating_sub(block_start).min(BLOCK_SIZE as u64);
            let valid = end.max(old_here as usize);
            let log_offset = self.log_append(core, state, &image[..valid])?;
            state.pending.insert(
                (ino, block),
                LogExtent {
                    log_offset,
                    len: valid as u64,
                },
            );
            // Writes become visible (to this process) as they land, so the
            // size must track each logged block for the merge reads above.
            let new_end = block_start + end as u64;
            if new_end > core.node(ino)?.size {
                core.node_mut(ino)?.size = new_end;
            }
        }
        Ok(())
    }
}

impl Design for PrivateLog {
    fn name(&self) -> String {
        "Strata".to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        ConsistencyClass::Strict
    }

    fn charge_entry(&self, device: &PmemDevice) {
        // Strata's LibFS handles the operation in user space: no kernel
        // trap, but index/lease bookkeeping.
        device.charge_software(device.cost().strata_index_ns);
    }

    fn metadata(&self, core: &mut FsCore, op: Meta) -> FsResult<()> {
        let mut state = self.state.write();
        self.log_append(core, &mut state, &[])?;
        // Undigested blocks past a cut, or of a removed file, must not be
        // digested back into it.
        let cut = match op {
            Meta::Truncate { ino, size } => Some((ino, size.div_ceil(BLOCK_SIZE as u64))),
            Meta::Unlink { ino } => Some((ino, 0)),
            _ => None,
        };
        if let Some((ino, keep)) = cut {
            state.pending.retain(|(i, b), _| *i != ino || *b < keep);
        }
        Ok(())
    }

    /// One digest check for the whole gather.
    fn write(&self, core: &mut FsCore, ino: u64, offset: u64, iov: &[IoVec<'_>]) -> FsResult<()> {
        let mut state = self.state.write();
        for (at, data) in placed(offset, iov) {
            self.write_slice_locked(core, &mut state, ino, at, data)?;
        }
        if state.head as f64 >= self.log_capacity as f64 * DIGEST_THRESHOLD {
            self.digest(core, &mut state)?;
        }
        Ok(())
    }

    fn read(
        &self,
        core: &FsCore,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
        _pattern: AccessPattern,
    ) -> FsResult<()> {
        self.read_locked(core, &self.state.read(), ino, offset, buf)
    }

    fn sync(&self, core: &mut FsCore) -> FsResult<()> {
        self.digest(core, &mut self.state.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;
    use vfs::{FileSystem, OpenFlags};

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

    #[test]
    fn an_entry_that_would_not_fit_digests_instead_of_overwriting_the_log() {
        // 5 MiB logged stays under the 6 MiB digest threshold; the next
        // 4 MiB write runs past the end of the 8 MiB log mid-gather.  Its
        // entries must not land on the first write's undigested ones.
        let fs = fs();
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        let first: Vec<u8> = (0..5 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_at(fd, 0, &first).unwrap();
        assert_eq!(fs.digest_count(), 0);
        fs.write_at(fd, 16 * 1024 * 1024, &vec![7u8; 4 * 1024 * 1024])
            .unwrap();
        let mut out = vec![0u8; first.len()];
        assert_eq!(fs.read_at(fd, 0, &mut out).unwrap(), first.len());
        let wrong = out.iter().zip(&first).filter(|(a, b)| a != b).count();
        assert_eq!(wrong, 0, "{wrong} bytes of the first write read back wrong");
        assert_eq!(fs.digest_count(), 1);
    }
}
