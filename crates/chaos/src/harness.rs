//! The shared post-crash helper the integration tests mount through.
//!
//! Before this crate, every crash test hand-rolled its own post-crash
//! block: mount, replay the right logs, walk the tree asserting
//! metadata invariants.  [`Recovered`] centralizes that: one call
//! mounts the crashed device, the `recover_*` methods replay the logs no
//! live instance claims or one instance's log, and
//! [`Recovered::assert_clean`] / [`Recovered::assert_promises`] run the
//! fsck walk, the foreign-entry containment check and the
//! declared-durability oracle, panicking with every violation they found.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::{PmemDevice, PromiseRecord};
use splitfs::{recover_instance, recover_orphans, RecoveryReport, SplitConfig};
use vfs::FsResult;

use crate::oracle::{self, OracleReport};

/// A mounted post-crash file system plus every recovery report the
/// helper produced on it.
#[derive(Debug)]
pub struct Recovered {
    /// The remounted kernel file system.
    pub kernel: Arc<Ext4Dax>,
    /// Reports from [`Recovered::recover_orphans`], per replayed log's
    /// instance id.
    pub orphan_reports: Vec<(u32, RecoveryReport)>,
    /// Reports from explicit per-instance replays.
    pub instance_reports: Vec<(u32, RecoveryReport)>,
}

impl Recovered {
    /// Mounts a crashed device.
    pub fn mount(device: &Arc<PmemDevice>) -> FsResult<Self> {
        Ok(Self {
            kernel: Ext4Dax::mount(Arc::clone(device))?,
            orphan_reports: Vec::new(),
            instance_reports: Vec::new(),
        })
    }

    /// Wraps an already-mounted kernel — the in-process path, where a
    /// live instance recovers a crashed peer without a remount.
    pub fn attach(kernel: Arc<Ext4Dax>) -> Self {
        Self {
            kernel,
            orphan_reports: Vec::new(),
            instance_reports: Vec::new(),
        }
    }

    /// Mounts and immediately replays every instance's log — the normal
    /// whole-device crash path.
    pub fn mount_and_recover(device: &Arc<PmemDevice>, config: &SplitConfig) -> FsResult<Self> {
        let mut rec = Self::mount(device)?;
        rec.recover_orphans(config)?;
        Ok(rec)
    }

    /// Replays the operation log of every instance no live instance
    /// claims (see [`splitfs::recover_orphans`]).
    pub fn recover_orphans(&mut self, config: &SplitConfig) -> FsResult<()> {
        self.orphan_reports
            .extend(recover_orphans(&self.kernel, config)?);
        Ok(())
    }

    /// Replays one instance's operation log, claimed or not.
    pub fn recover_instance(
        &mut self,
        config: &SplitConfig,
        instance_id: u32,
    ) -> FsResult<&RecoveryReport> {
        let report = recover_instance(&self.kernel, config, instance_id)?;
        self.instance_reports.push((instance_id, report));
        Ok(&self.instance_reports.last().unwrap().1)
    }

    /// The report of the most recent replay of `instance_id`, searching
    /// explicit replays first, then orphan recovery.
    pub fn report(&self, instance_id: u32) -> Option<&RecoveryReport> {
        self.instance_reports
            .iter()
            .rev()
            .chain(self.orphan_reports.iter().rev())
            .find(|(id, _)| *id == instance_id)
            .map(|(_, r)| r)
    }

    /// Instance ids [`Recovered::recover_orphans`] replayed on this mount.
    pub fn recovered_orphan_ids(&self) -> Vec<u32> {
        self.orphan_reports.iter().map(|(id, _)| *id).collect()
    }

    /// Total foreign-tagged entries across every report — the
    /// cross-instance containment guard; nonzero means one instance's
    /// log carried another's entries.
    pub fn foreign_entries(&self) -> usize {
        self.orphan_reports
            .iter()
            .chain(self.instance_reports.iter())
            .map(|(_, r)| r.foreign)
            .sum()
    }

    /// Runs the namespace/metadata fsck on the recovered tree.
    pub fn fsck(&self) -> Vec<String> {
        oracle::fsck(&self.kernel)
    }

    /// Checks the declared-durability oracle against the given ledger
    /// slice (normally `CrashImage::ledger_len` records).
    pub fn check_promises(&self, records: &[PromiseRecord]) -> OracleReport {
        oracle::check_promises(&self.kernel, records)
    }

    /// Asserts the recovered image is structurally sound: fsck-clean
    /// and zero foreign entries.  Panics otherwise.
    pub fn assert_clean(&self) {
        let violations = self.fsck();
        if !violations.is_empty() {
            panic!("post-crash fsck failed:\n  {}", violations.join("\n  "));
        }
        assert_eq!(
            self.foreign_entries(),
            0,
            "foreign log entries crossed an instance boundary"
        );
    }

    /// Asserts [`Recovered::assert_clean`] *and* that every promise in
    /// `records` holds on the recovered tree.
    pub fn assert_promises(&self, records: &[PromiseRecord]) {
        self.assert_clean();
        let report = self.check_promises(records);
        if !report.is_clean() {
            panic!(
                "durability oracle violated ({} promises checked):\n  {}",
                report.promises_checked,
                report.violations.join("\n  ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemBuilder, Promise};
    use splitfs::{Mode, SplitFs};
    use vfs::{FileSystem, OpenFlags};

    fn config() -> SplitConfig {
        SplitConfig::new(Mode::Strict)
            .with_staging(2, 2 * 1024 * 1024)
            .with_oplog_size(128 * 1024)
            .without_daemon()
    }

    #[test]
    fn mount_and_recover_replays_an_orphan_and_checks_promises() {
        let device = PmemBuilder::new(96 * 1024 * 1024)
            .track_persistence(true)
            .build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let fs = SplitFs::new(kernel, config()).unwrap();
        device.ledger().set_enabled(true);

        let fd = fs.open("/x", OpenFlags::create()).unwrap();
        let payload = vec![0x5Au8; 10_000];
        fs.append(fd, &payload).unwrap();
        fs.fsync(fd).unwrap();
        device.declare(Promise::FileDurable {
            path: "/x".into(),
            len: payload.len() as u64,
            hash: pmem::content_hash(&payload),
        });
        let ledger_len = device.ledger().len();
        drop(fs);
        device.crash();

        let rec = Recovered::mount_and_recover(&device, &config()).unwrap();
        assert_eq!(rec.recovered_orphan_ids(), vec![0]);
        assert!(rec.report(0).is_some());
        rec.assert_promises(&device.ledger().records_up_to(ledger_len));
    }

    #[test]
    #[should_panic(expected = "durability oracle violated")]
    fn broken_promises_panic() {
        let device = PmemBuilder::new(64 * 1024 * 1024).build();
        Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let rec = Recovered::mount(&device).unwrap();
        rec.assert_promises(&[PromiseRecord {
            seq: 0,
            promise: Promise::PathDurable {
                path: "/never-created".into(),
                exists: true,
            },
        }]);
    }
}
