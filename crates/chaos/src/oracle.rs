//! The declared-durability checker: recovered state vs. promise ledger.
//!
//! Given the [`pmem::PromiseRecord`]s that were in the ledger when a
//! crash image was captured, [`check_promises`] replays them in
//! declaration order into a **latest-wins** expectation per path, then
//! checks the recovered kernel file system against
//! those expectations:
//!
//! * the newest [`pmem::Promise::FileDurable`] per path binds — the file
//!   must exist, be at least the promised length, and its promised
//!   prefix must hash to the promised value;
//! * a [`pmem::Promise::FileRetracted`] withdraws every earlier promise
//!   for the path (content *and* existence), so a crash in the middle
//!   of the voiding rename/unlink checks nothing stale;
//! * the newest [`pmem::Promise::PathDurable`] per path binds existence.
//!
//! The remaining promise kinds (`fsync_returned`, `epoch_durable`,
//! `relink_committed`, `oplog_committed`) are **counted, not checked**:
//! their binding content obligations are restated as `FileDurable`
//! promises by the workload (which knows the expected bytes), and their
//! internal sequence numbers do not survive log truncation.  The counts
//! still matter — they prove the fuzzer exercised each promise door and
//! feed the differential classifier.
//!
//! [`fsck`] is the promise-free half: a non-panicking port of the
//! namespace scan plus the POSIX metadata walk (every reachable
//! directory entry stats) that the integration tests previously
//! hand-rolled.  Sizes are deliberately *not* compared against
//! allocated blocks: relink transfers extents out of staging files and
//! leaves holes behind, so sparse files are a designed-in state, not
//! corruption.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::oracle::content_hash;
use pmem::{Promise, PromiseRecord};
use vfs::FileSystem;

/// The outcome of checking one recovered image against its ledger.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Strictly-checked promises (content and existence) that were
    /// evaluated against the recovered state.
    pub promises_checked: u64,
    /// Tally of every declared promise by [`Promise::kind_label`].
    pub promise_counts: BTreeMap<&'static str, u64>,
    /// Human-readable descriptions of every broken promise.  Empty on a
    /// clean check.
    pub violations: Vec<String>,
}

impl OracleReport {
    /// True when every checked promise held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Latest-wins expectation for one path, built from the ledger.
#[derive(Default)]
struct PathExpectation {
    /// `Some((len, hash))` when a content promise binds.
    content: Option<(u64, u64)>,
    /// `Some(exists)` when an existence promise binds.
    exists: Option<bool>,
}

/// Checks a recovered kernel file system against the promises that were
/// in the ledger at capture time.
pub fn check_promises(kernel: &Arc<Ext4Dax>, records: &[PromiseRecord]) -> OracleReport {
    let mut report = OracleReport::default();
    let mut paths: HashMap<&str, PathExpectation> = HashMap::new();
    for rec in records {
        *report
            .promise_counts
            .entry(rec.promise.kind_label())
            .or_insert(0) += 1;
        match &rec.promise {
            Promise::FileDurable { path, len, hash } => {
                paths.entry(path).or_default().content = Some((*len, *hash));
            }
            Promise::FileRetracted { path } => {
                // Withdraw everything: the path is mid-rename/unlink, so
                // neither its content nor its existence is promised.
                paths.insert(path, PathExpectation::default());
            }
            Promise::PathDurable { path, exists } => {
                paths.entry(path).or_default().exists = Some(*exists);
            }
            Promise::FsyncReturned { .. }
            | Promise::EpochDurable { .. }
            | Promise::RelinkCommitted { .. }
            | Promise::OplogCommitted { .. } => {}
        }
    }

    for (path, expect) in &paths {
        if let Some(exists) = expect.exists {
            report.promises_checked += 1;
            let found = kernel.exists(path);
            if found != exists {
                report.violations.push(format!(
                    "path promise broken: {path} should {}exist but {}",
                    if exists { "" } else { "not " },
                    if found { "does" } else { "does not" },
                ));
            }
        }
        let Some((len, hash)) = expect.content else {
            continue;
        };
        report.promises_checked += 1;
        let data = match kernel.read_file(path) {
            Ok(data) => data,
            Err(e) => {
                report
                    .violations
                    .push(format!("content promise broken: {path} unreadable: {e}"));
                continue;
            }
        };
        if (data.len() as u64) < len {
            report.violations.push(format!(
                "content promise broken: {path} holds {} bytes, {len} promised durable",
                data.len()
            ));
            continue;
        }
        let got = content_hash(&data[..len as usize]);
        if got != hash {
            report.violations.push(format!(
                "content promise broken: {path} promised prefix of {len} bytes \
                 hashes to {got:#x}, ledger says {hash:#x}"
            ));
        }
    }
    report
}

/// Non-panicking file-system check: the kernel's namespace invariants
/// plus a recursive POSIX metadata walk.  Returns one description per
/// violation; empty means the recovered image is consistent.
pub fn fsck(kernel: &Arc<Ext4Dax>) -> Vec<String> {
    let mut violations = kernel.check_namespace();
    walk(kernel, "/", &mut violations);
    violations
}

fn walk(kernel: &Arc<Ext4Dax>, dir: &str, violations: &mut Vec<String>) {
    let names = match kernel.readdir(dir) {
        Ok(names) => names,
        Err(e) => {
            violations.push(format!("fsck: readdir({dir}) failed: {e}"));
            return;
        }
    };
    for name in names {
        let path = if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        };
        let stat = match kernel.stat(&path) {
            Ok(stat) => stat,
            Err(e) => {
                violations.push(format!("fsck: dangling entry {path}: {e}"));
                continue;
            }
        };
        if stat.is_dir {
            walk(kernel, &path, violations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemBuilder;

    fn fresh() -> Arc<Ext4Dax> {
        let device = PmemBuilder::new(64 * 1024 * 1024).build();
        Ext4Dax::mkfs(device).unwrap()
    }

    fn rec(seq: u64, promise: Promise) -> PromiseRecord {
        PromiseRecord { seq, promise }
    }

    #[test]
    fn latest_content_promise_binds_and_is_checked() {
        let kernel = fresh();
        kernel.write_file("/a", b"hello world").unwrap();
        let records = vec![
            rec(
                0,
                Promise::FileDurable {
                    path: "/a".into(),
                    len: 5,
                    hash: content_hash(b"stale"),
                },
            ),
            rec(
                1,
                Promise::FileDurable {
                    path: "/a".into(),
                    len: 11,
                    hash: content_hash(b"hello world"),
                },
            ),
        ];
        let report = check_promises(&kernel, &records);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.promise_counts["file_durable"], 2);
    }

    #[test]
    fn broken_content_and_existence_promises_are_reported() {
        let kernel = fresh();
        kernel.write_file("/a", b"short").unwrap();
        let records = vec![
            rec(
                0,
                Promise::FileDurable {
                    path: "/a".into(),
                    len: 100,
                    hash: 1,
                },
            ),
            rec(
                1,
                Promise::PathDurable {
                    path: "/missing".into(),
                    exists: true,
                },
            ),
        ];
        let report = check_promises(&kernel, &records);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
    }

    #[test]
    fn retraction_withdraws_earlier_promises() {
        let kernel = fresh();
        let records = vec![
            rec(
                0,
                Promise::FileDurable {
                    path: "/gone".into(),
                    len: 4,
                    hash: 9,
                },
            ),
            rec(
                1,
                Promise::PathDurable {
                    path: "/gone".into(),
                    exists: true,
                },
            ),
            rec(
                2,
                Promise::FileRetracted {
                    path: "/gone".into(),
                },
            ),
        ];
        let report = check_promises(&kernel, &records);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn fsck_passes_on_a_fresh_tree() {
        let kernel = fresh();
        kernel.mkdir("/d").unwrap();
        kernel.write_file("/d/f", &vec![1u8; 9000]).unwrap();
        assert!(fsck(&kernel).is_empty());
    }
}
