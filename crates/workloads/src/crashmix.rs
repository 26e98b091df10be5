//! The crash-point fuzzing workload: a deterministic mixed op stream
//! that **declares durability promises** as it runs.
//!
//! `crashmix` is the driver half of the declared-durability oracle
//! (`crates/chaos`).  Worker threads churn disjoint file sets with a
//! seeded mix of appends, creates, fsyncs, batched fsyncs, renames,
//! unlinks and read-backs, and after every operation whose return
//! conveys a durability guarantee they record a [`pmem::Promise`] in the
//! device's [`pmem::PromiseLedger`].  A crash image captured at any
//! fence boundary then carries the exact set of promises the
//! application had been handed before that boundary, and the oracle
//! checks the recovered file system against them.
//!
//! The declaration discipline that keeps the oracle sound:
//!
//! * **Durability promises are declared *after* the guaranteeing call
//!   returns** (`fsync`, `await_epoch`, a journaled metadata op).  The
//!   crash image snapshots the ledger length *before* the shard bytes,
//!   so every promise in the image was made strictly before the crash
//!   point — never optimistically.
//! * **Retractions are declared *before* the destructive call starts**
//!   ([`pmem::Promise::FileRetracted`]).  A crash in the middle of a
//!   rename or unlink therefore never leaves a content promise alive
//!   for a path that is legitimately gone.
//! * **Files are append-only and archive names are fresh.**  Promised
//!   prefixes are never overwritten, so a content promise stays
//!   checkable (length + FNV hash of the promised prefix) no matter how
//!   much later, unpromised data the file gained.
//!
//! The op stream is a pure function of the configured seed (each thread
//! derives its own [`rand::rngs::StdRng`]), so the chaos engine can
//! replay the same workload across crash points and across the
//! differential [`pmem::CrashPolicy`] pair.

use std::sync::Arc;

use pmem::oracle::content_hash;
use pmem::Promise;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitfs::SplitFs;
use vfs::{Fd, FileSystem, FsError, FsResult, OpenFlags};

/// Parameters of one crashmix run.
#[derive(Debug, Clone)]
pub struct CrashMixConfig {
    /// Seed for every thread's op stream (threads derive disjoint
    /// sub-seeds from it).
    pub seed: u64,
    /// Worker threads; each owns a disjoint directory of files.
    pub threads: usize,
    /// Live files per thread (archived/unlinked files are replaced so
    /// the working set stays at this size).
    pub files_per_thread: usize,
    /// Mixed operations each thread performs after setup.
    pub ops_per_thread: usize,
    /// Also drive an async submission ring per thread and declare the
    /// awaited epoch's content durable.
    pub use_rings: bool,
    /// Root directory of the workload's namespace.
    pub dir: String,
}

impl Default for CrashMixConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5EED,
            threads: 3,
            files_per_thread: 4,
            ops_per_thread: 96,
            use_rings: false,
            dir: "/chaos".to_string(),
        }
    }
}

/// One live file a worker owns: its path, open descriptor, the exact
/// bytes written so far, and how much of that prefix has been promised
/// durable.
struct FileSlot {
    path: String,
    fd: Fd,
    expected: Vec<u8>,
    durable_len: usize,
}

/// Runs the workload to completion, declaring promises into
/// `fs.device()`'s ledger as it goes (declarations are free no-ops when
/// the ledger is disabled).  Returns the total operation count.
pub fn run(fs: &Arc<SplitFs>, config: &CrashMixConfig) -> FsResult<u64> {
    if config.threads == 0 || config.files_per_thread == 0 {
        return Err(FsError::InvalidArgument);
    }
    if !fs.exists(&config.dir) {
        fs.mkdir(&config.dir)?;
    }
    for t in 0..config.threads {
        let dir = format!("{}/t{t}", config.dir);
        if !fs.exists(&dir) {
            fs.mkdir(&dir)?;
        }
    }
    let hub = config.use_rings.then(|| splitfs::ring_hub(fs));
    let mut total = 0u64;
    std::thread::scope(|scope| -> FsResult<()> {
        let mut handles = Vec::with_capacity(config.threads);
        for t in 0..config.threads {
            let fs = Arc::clone(fs);
            let hub = hub.clone();
            let config = config.clone();
            handles.push(scope.spawn(move || -> FsResult<u64> {
                let mut ops = worker(&fs, &config, t)?;
                if let Some(hub) = hub {
                    ops += ring_phase(&fs, &hub, &config, t)?;
                }
                Ok(ops)
            }));
        }
        for h in handles {
            total += h.join().expect("crashmix worker panicked")?;
        }
        Ok(())
    })?;
    Ok(total)
}

/// One worker's seeded op stream over its own directory.
fn worker(fs: &Arc<SplitFs>, config: &CrashMixConfig, t: usize) -> FsResult<u64> {
    let device = Arc::clone(fs.device());
    let mut rng = StdRng::seed_from_u64(
        config
            .seed
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (t as u64 + 1),
    );
    let mut ops = 0u64;
    let mut archived = 0usize;
    let mut slots = Vec::with_capacity(config.files_per_thread);
    for j in 0..config.files_per_thread {
        slots.push(create_slot(
            fs,
            &format!("{}/t{t}/f{j}", config.dir),
            &device,
        )?);
        ops += 1;
    }

    for _ in 0..config.ops_per_thread {
        let j = rng.random_range(0..slots.len());
        match rng.random_range(0..100u32) {
            // Append deterministic bytes; no durability is promised yet.
            0..=54 => {
                let slot = &mut slots[j];
                let len = rng.random_range(64..1200usize);
                let base = slot.expected.len();
                let buf: Vec<u8> = (0..len)
                    .map(|i| ((base + i) as u8) ^ (t as u8).wrapping_mul(31))
                    .collect();
                fs.write_at(slot.fd, base as u64, &buf)?;
                slot.expected.extend_from_slice(&buf);
            }
            // fsync: the returned call guarantees everything written so
            // far, so promise the full current prefix.
            55..=74 => {
                let slot = &mut slots[j];
                fs.fsync(slot.fd)?;
                declare_content(&device, slot);
            }
            // Batched fsync over every live file.
            75..=81 => {
                let fds: Vec<Fd> = slots.iter().map(|s| s.fd).collect();
                fs.fsync_many(&fds)?;
                for slot in &mut slots {
                    declare_content(&device, slot);
                }
            }
            // Read-back self check against the expected bytes (a live
            // invariant, independent of the post-crash oracle).
            82..=87 => {
                let slot = &slots[j];
                let mut buf = vec![0u8; slot.expected.len()];
                if !slot.expected.is_empty() {
                    fs.read_at(slot.fd, 0, &mut buf)?;
                }
                if buf != slot.expected {
                    return Err(FsError::Corrupted(format!(
                        "crashmix live read-back mismatch on {}",
                        slot.path
                    )));
                }
            }
            // Archive: rename to a fresh name that is never touched
            // again, then recreate the working slot.
            88..=93 => {
                let slot = slots.swap_remove(j);
                let new_path = format!("{}/t{t}/arch-{archived}", config.dir);
                archived += 1;
                fs.close(slot.fd)?;
                // Retract *before* the rename so a crash mid-op cannot
                // strand a content promise on the vanishing path.
                device.declare(Promise::FileRetracted {
                    path: slot.path.clone(),
                });
                fs.rename(&slot.path, &new_path)?;
                device.declare(Promise::PathDurable {
                    path: new_path.clone(),
                    exists: true,
                });
                device.declare(Promise::PathDurable {
                    path: slot.path.clone(),
                    exists: false,
                });
                if slot.durable_len > 0 {
                    // The same inode now serves the archive name; its
                    // promised prefix rode along.
                    device.declare(Promise::FileDurable {
                        path: new_path,
                        len: slot.durable_len as u64,
                        hash: content_hash(&slot.expected[..slot.durable_len]),
                    });
                }
                slots.push(create_slot(fs, &slot.path, &device)?);
            }
            // Unlink and recreate.
            _ => {
                let slot = slots.swap_remove(j);
                fs.close(slot.fd)?;
                device.declare(Promise::FileRetracted {
                    path: slot.path.clone(),
                });
                fs.unlink(&slot.path)?;
                device.declare(Promise::PathDurable {
                    path: slot.path.clone(),
                    exists: false,
                });
                slots.push(create_slot(fs, &slot.path, &device)?);
            }
        }
        ops += 1;
    }

    // Final group commit: every surviving byte becomes promised, which
    // gives late crash points a dense set of content checks.
    let fds: Vec<Fd> = slots.iter().map(|s| s.fd).collect();
    fs.fsync_many(&fds)?;
    for slot in &mut slots {
        declare_content(&device, slot);
        fs.close(slot.fd)?;
    }
    Ok(ops + 1)
}

/// Creates (or truncates) a working file and promises its existence —
/// the create is journaled by the kernel before it returns.
fn create_slot(
    fs: &Arc<SplitFs>,
    path: &str,
    device: &Arc<pmem::PmemDevice>,
) -> FsResult<FileSlot> {
    // Withdraw any standing promise about this path *before* the create:
    // a recreate follows an unlink/rename that declared `exists: false`,
    // and the create can land durably before its own `exists: true`
    // declaration — a ledger cut in that window must check nothing.
    // Negative promises need retract-before-op just like content ones.
    device.declare(Promise::FileRetracted {
        path: path.to_string(),
    });
    let fd = fs.open(path, OpenFlags::create_truncate())?;
    device.declare(Promise::PathDurable {
        path: path.to_string(),
        exists: true,
    });
    Ok(FileSlot {
        path: path.to_string(),
        fd,
        expected: Vec::new(),
        durable_len: 0,
    })
}

/// Promises the slot's full current prefix durable (call only after a
/// guaranteeing call returned).
fn declare_content(device: &pmem::PmemDevice, slot: &mut FileSlot) {
    device.declare(Promise::FileDurable {
        path: slot.path.clone(),
        len: slot.expected.len() as u64,
        hash: content_hash(&slot.expected),
    });
    slot.durable_len = slot.expected.len();
}

/// Drives one submission ring: a burst of vectored appends, then
/// `await_epoch` on the highest completed epoch, after which the
/// covered bytes are promised durable.
fn ring_phase(
    fs: &Arc<SplitFs>,
    hub: &Arc<aio::RingFs>,
    config: &CrashMixConfig,
    t: usize,
) -> FsResult<u64> {
    let device = Arc::clone(fs.device());
    let path = format!("{}/t{t}/ring.log", config.dir);
    let fd = fs.open(&path, OpenFlags::create_truncate())?;
    device.declare(Promise::PathDurable {
        path: path.clone(),
        exists: true,
    });
    let ring = hub.ring(16);
    let mut expected = Vec::new();
    let total = 24u64;
    let (mut submitted, mut completed) = (0u64, 0u64);
    let mut max_epoch = 0u64;
    let mut cqes = Vec::new();
    while completed < total {
        while submitted < total {
            let a = vec![(t as u8).wrapping_add(1); 96];
            let b = vec![(submitted as u8).wrapping_add(7); 32];
            match ring.try_submit(aio::Sqe::appendv(submitted, fd, vec![a.clone(), b.clone()])) {
                Ok(()) => {
                    expected.extend_from_slice(&a);
                    expected.extend_from_slice(&b);
                    submitted += 1;
                }
                Err(_) => break, // ring full: harvest first
            }
        }
        hub.drain(aio::DEFAULT_DRAIN_BATCH);
        cqes.clear();
        ring.harvest(&mut cqes);
        if cqes.is_empty() {
            std::thread::yield_now();
            continue;
        }
        for cqe in &cqes {
            cqe.result.clone()?;
            max_epoch = max_epoch.max(cqe.epoch);
            completed += 1;
        }
    }
    // `await_epoch` returning is the ring API's durability promise for
    // every completion at or below the epoch — i.e. all of them.
    hub.await_epoch(max_epoch)?;
    device.declare(Promise::FileDurable {
        path,
        len: expected.len() as u64,
        hash: content_hash(&expected),
    });
    fs.close(fd)?;
    Ok(total + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitfs::{Mode, SplitConfig};

    fn strict_fs() -> Arc<SplitFs> {
        let device = pmem::PmemBuilder::new(96 * 1024 * 1024)
            .track_persistence(true)
            .build();
        let kernel = kernelfs::Ext4Dax::mkfs(device).unwrap();
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(6, 2 * 1024 * 1024)
            .without_daemon();
        SplitFs::new(kernel, config).unwrap()
    }

    #[test]
    fn crashmix_runs_and_declares_promises() {
        let fs = strict_fs();
        fs.device().ledger().set_enabled(true);
        let config = CrashMixConfig {
            threads: 2,
            files_per_thread: 2,
            ops_per_thread: 40,
            ..CrashMixConfig::default()
        };
        let ops = run(&fs, &config).unwrap();
        assert!(ops > 80);
        let records = fs.device().ledger().records();
        assert!(!records.is_empty());
        let durable = records
            .iter()
            .filter(|r| matches!(r.promise, Promise::FileDurable { .. }))
            .count();
        assert!(durable > 0, "expected content promises in the ledger");
    }

    #[test]
    fn crashmix_content_promises_hold_live() {
        let fs = strict_fs();
        fs.device().ledger().set_enabled(true);
        let config = CrashMixConfig {
            threads: 1,
            files_per_thread: 2,
            ops_per_thread: 30,
            seed: 7,
            ..CrashMixConfig::default()
        };
        run(&fs, &config).unwrap();
        // Replay the ledger's *latest* content promise per path against
        // the live tree: every promised prefix must be present.
        let mut latest: std::collections::HashMap<String, Option<(u64, u64)>> =
            std::collections::HashMap::new();
        for rec in fs.device().ledger().records() {
            match rec.promise {
                Promise::FileDurable { path, len, hash } => {
                    latest.insert(path, Some((len, hash)));
                }
                Promise::FileRetracted { path } => {
                    latest.insert(path, None);
                }
                _ => {}
            }
        }
        let mut checked = 0;
        for (path, promise) in latest {
            let Some((len, hash)) = promise else { continue };
            let data = fs.read_file(&path).unwrap();
            assert!(data.len() as u64 >= len, "{path} shorter than promised");
            assert_eq!(content_hash(&data[..len as usize]), hash, "{path} prefix");
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn ring_phase_declares_awaited_epoch_content() {
        let fs = strict_fs();
        fs.device().ledger().set_enabled(true);
        let config = CrashMixConfig {
            threads: 1,
            files_per_thread: 1,
            ops_per_thread: 5,
            use_rings: true,
            ..CrashMixConfig::default()
        };
        run(&fs, &config).unwrap();
        let ring_promise = fs.device().ledger().records().into_iter().any(|r| {
            matches!(&r.promise, Promise::FileDurable { path, len, .. }
                if path.ends_with("ring.log") && *len > 0)
        });
        assert!(ring_promise, "ring phase must promise awaited content");
        let data = fs.read_file("/chaos/t0/ring.log").unwrap();
        assert_eq!(data.len(), 24 * 128);
    }
}
