//! PMFS baseline.
//!
//! PMFS (Dulloor et al., EuroSys '14) writes data in place, keeps metadata
//! consistent with a fine-grained undo journal, and makes every operation
//! synchronous: when a `write` returns, the data is persistent.  Data
//! operations are *not* atomic — a crash can leave a partially applied
//! overwrite — which places PMFS in the paper's "sync" guarantee class
//! together with NOVA-relaxed and SplitFS-sync (Table 3).

use std::sync::Arc;

use parking_lot::Mutex;

use pmem::{PersistMode, PmemDevice, TimeCategory};
use vfs::{iov_total_len, ConsistencyClass, FsResult, IoVec};

use crate::common::{placed, Baseline, Design, FsCore, Meta};

/// Bytes reserved at the start of the device for the PMFS undo journal.
const JOURNAL_RESERVED: u64 = 4 * 1024 * 1024;

/// Size of one undo-journal record.
const JOURNAL_RECORD: usize = 64;

/// The PMFS baseline file system.
pub type Pmfs = Baseline<UndoJournal>;

impl Pmfs {
    /// Creates (formats) a PMFS instance on the device.
    pub fn new(device: Arc<PmemDevice>) -> Arc<Self> {
        let journal = UndoJournal {
            device: Arc::clone(&device),
            head: Mutex::new(0),
        };
        Baseline::format(device, JOURNAL_RESERVED, journal)
    }
}

/// PMFS's persistence design: data written in place and fenced before the
/// call returns, metadata under a fine-grained undo journal.
#[derive(Debug)]
pub struct UndoJournal {
    device: Arc<PmemDevice>,
    head: Mutex<u64>,
}

impl UndoJournal {
    /// Writes `records` 64-byte undo-journal records and persists them.
    fn journal(&self, records: usize) {
        let cost = self.device.cost();
        self.device
            .charge_software(records as f64 * cost.pmfs_journal_record_ns);
        let mut head = self.head.lock();
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
}

impl Design for UndoJournal {
    fn name(&self) -> String {
        "PMFS".to_string()
    }

    fn consistency(&self) -> ConsistencyClass {
        ConsistencyClass::Sync
    }

    fn metadata(&self, _core: &mut FsCore, op: Meta) -> FsResult<()> {
        if op == Meta::Create {
            let cost = self.device.cost();
            self.device.charge_software(cost.pmfs_inode_update_ns);
        }
        self.journal(if op == Meta::Rename { 3 } else { 2 });
        Ok(())
    }

    /// One allocation/journal decision and one trailing fence for the
    /// whole gather.
    fn write(&self, core: &mut FsCore, ino: u64, offset: u64, iov: &[IoVec<'_>]) -> FsResult<()> {
        let cost = self.device.cost();
        let total = iov_total_len(iov);
        let newly = core.ensure_blocks(ino, offset, total)?;
        if newly > 0 {
            // Block allocation updates allocator metadata under journal
            // protection.
            self.device
                .charge_software(cost.pmfs_alloc_ns * newly.div_ceil(8) as f64);
            self.journal(1 + (newly as usize).div_ceil(64));
        }
        // In-place synchronous data writes, one fence for the gather.
        for (at, data) in placed(offset, iov) {
            core.write_data(
                ino,
                at,
                data,
                PersistMode::NonTemporal,
                TimeCategory::UserData,
            )?;
        }
        self.device.fence(TimeCategory::UserData);
        let node = core.node_mut(ino)?;
        let new_end = offset + total;
        if new_end > node.size {
            node.size = new_end;
            self.device.charge_software(cost.pmfs_inode_update_ns);
            self.journal(1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::BLOCK_SIZE;
    use pmem::PmemBuilder;
    use vfs::{FileSystem, OpenFlags};

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
