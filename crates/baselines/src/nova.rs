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
//! mutating operation calls `InodeLog::log_op`, which writes a 128 B entry,
//! fences, updates the on-PM tail, and fences again.

use std::sync::Arc;

use parking_lot::Mutex;

use pmem::{AccessPattern, PersistMode, PmemDevice, TimeCategory};
use vfs::{ConsistencyClass, FsResult, IoVec};

use crate::common::{block_chunks, placed, Baseline, Design, FsCore, Meta, BLOCK_SIZE};

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
pub type Nova = Baseline<InodeLog>;

impl Nova {
    /// Creates (formats) a NOVA instance in the given mode.
    pub fn new(device: Arc<PmemDevice>, mode: NovaMode) -> Arc<Self> {
        let log = InodeLog {
            device: Arc::clone(&device),
            mode,
            head: Mutex::new(0),
        };
        Baseline::format(device, LOG_RESERVED, log)
    }
}

/// NOVA's persistence design: a per-inode log that every operation appends
/// one entry to, with data written in place or copied on write.
#[derive(Debug)]
pub struct InodeLog {
    device: Arc<PmemDevice>,
    mode: NovaMode,
    head: Mutex<u64>,
}

impl InodeLog {
    /// Appends one log entry for an operation: 128 B entry + fence, then the
    /// on-PM log tail (one cache line) + fence — NOVA's two-line/two-fence
    /// pattern.
    fn log_op(&self) {
        let cost = self.device.cost();
        self.device.charge_software(cost.nova_log_entry_ns);
        let mut head = self.head.lock();
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
    /// Does not fence or log — the caller does that once per logical
    /// operation.
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
                // allocated replacement containing merged old + new bytes
                // (zeros where it was a hole).
                self.device.charge_software(cost.nova_alloc_ns);
                for (block, within, range) in block_chunks(offset, data.len()) {
                    let block_start = block * BLOCK_SIZE as u64;
                    let mut image = vec![0u8; BLOCK_SIZE];
                    // Preserve existing bytes of a partially overwritten
                    // block.
                    if old_size > block_start {
                        core.read_data(
                            ino,
                            block_start,
                            &mut image,
                            AccessPattern::Sequential,
                            TimeCategory::UserData,
                        )?;
                    }
                    // Overlay the new bytes.
                    image[within..within + range.len()].copy_from_slice(&data[range]);

                    // Write the replacement block and swap it in.
                    let new_block = core.alloc_block()?;
                    self.device.write(
                        new_block * BLOCK_SIZE as u64,
                        &image,
                        PersistMode::NonTemporal,
                        TimeCategory::UserData,
                    );
                    if let Some(old_block) = core.node_mut(ino)?.blocks.insert(block, new_block) {
                        core.free_block(old_block);
                    }
                }
            }
        }
        let new_end = offset + data.len() as u64;
        if new_end > old_size {
            core.node_mut(ino)?.size = new_end;
        }
        Ok(())
    }
}

impl Design for InodeLog {
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

    fn charge_read(&self, device: &PmemDevice) {
        self.charge_entry(device);
        // A read looks its blocks up in the inode's radix tree.
        device.charge_software(device.cost().nova_radix_update_ns * 0.5);
    }

    fn metadata(&self, _core: &mut FsCore, op: Meta) -> FsResult<()> {
        if op == Meta::Create {
            let cost = self.device.cost();
            self.device.charge_software(cost.nova_alloc_ns);
        }
        self.log_op();
        if op == Meta::Rename {
            // Rename touches two directory logs.
            self.log_op();
        }
        Ok(())
    }

    /// One data fence and **one** inode log commit (2 cache lines, 2
    /// fences) for the whole gather.
    fn write(&self, core: &mut FsCore, ino: u64, offset: u64, iov: &[IoVec<'_>]) -> FsResult<()> {
        for (at, data) in placed(offset, iov) {
            self.write_slice(core, ino, at, data)?;
        }
        self.device.fence(TimeCategory::UserData);
        self.log_op();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;
    use vfs::{FileSystem, OpenFlags};

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
        let first = core.node(ino).unwrap().blocks[&0];
        drop(core);
        fs.write_at(fd, 0, &vec![2u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        let second = core.node(ino).unwrap().blocks[&0];
        assert_ne!(first, second, "strict mode must copy-on-write");
    }

    #[test]
    fn relaxed_overwrites_in_place() {
        let fs = fs(NovaMode::Relaxed);
        let fd = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_at(fd, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        let ino = core.fd(fd).unwrap().ino;
        let first = core.node(ino).unwrap().blocks[&0];
        drop(core);
        fs.write_at(fd, 0, &vec![2u8; BLOCK_SIZE]).unwrap();
        let core = fs.core.read();
        assert_eq!(core.node(ino).unwrap().blocks[&0], first);
    }

    #[test]
    fn consistency_classes_match_modes() {
        assert_eq!(fs(NovaMode::Relaxed).consistency(), ConsistencyClass::Sync);
        assert_eq!(fs(NovaMode::Strict).consistency(), ConsistencyClass::Strict);
    }
}
