//! The kernel journal's chunk map: mount's scan reads the map and then the
//! journal only up to the highest chunk it marks.  These tests hold that
//! bounded scan to a whole-journal scan at every fence of what moves the
//! map, under every crash policy, and hold its cost to what was journaled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kernelfs::journal::{Journal, JournalRecord, CHUNK_SIZE};
use kernelfs::layout::{Superblock, BLOCK_SIZE, JOURNAL_MAP_LEN, JOURNAL_MAP_OFFSET};
use pmem::{CrashPolicy, PmemBuilder, PmemDevice};
use vfs::util::is_zeroed;

const MIB: usize = 1024 * 1024;

/// A tracked device of `mib` MiB and the layout `mkfs` would give it.
fn new_device(mib: usize, policy: CrashPolicy) -> (Arc<PmemDevice>, Superblock) {
    let device = PmemBuilder::new(mib * MIB)
        .track_persistence(true)
        .crash_policy(policy)
        .build();
    let sb = Superblock::compute((mib * MIB / BLOCK_SIZE) as u64, 256).unwrap();
    (device, sb)
}

/// A transaction of about 5 KiB, distinct for each `n`.
fn txn(n: u64) -> Vec<JournalRecord> {
    (0..20)
        .map(|i| JournalRecord::CreateInode {
            ino: n * 100 + i,
            parent: 2,
            name: format!("{n:0>220}"),
            is_dir: false,
        })
        .collect()
}

/// The chunks the map on `device` marks.
fn marked_chunks(device: &PmemDevice) -> Vec<u64> {
    let mut line = [0u8; JOURNAL_MAP_LEN];
    device.read_uncharged(JOURNAL_MAP_OFFSET, &mut line);
    (0..8 * JOURNAL_MAP_LEN as u64)
        .filter(|&c| line[(c / 8) as usize] >> (c % 8) & 1 == 1)
        .collect()
}

/// The chunks of `device`'s journal that hold a non-zero byte.
fn written_chunks(device: &PmemDevice, sb: &Superblock) -> Vec<u64> {
    let mut journal = vec![0u8; (sb.journal_blocks * BLOCK_SIZE as u64) as usize];
    device.read_uncharged(sb.journal_start * BLOCK_SIZE as u64, &mut journal);
    journal
        .chunks(CHUNK_SIZE as usize)
        .enumerate()
        .filter(|(_, chunk)| !is_zeroed(chunk))
        .map(|(c, _)| c as u64)
        .collect()
}

/// What a crash image inside the running operation may recover.
#[derive(Clone, Default)]
struct Expect {
    /// The transactions durable in the journal, in commit order.
    durable: Vec<Vec<JournalRecord>>,
    /// The transaction being committed, if any: it is recovered whole or
    /// not at all.
    next: Option<Vec<JournalRecord>>,
    /// A reset is running.  Its zeroes may persist in any order, so any
    /// whole-transaction prefix of `durable` may be recovered — or, once
    /// they are durable, `next` alone.
    resetting: bool,
}

impl Expect {
    fn allows(&self, records: &[JournalRecord]) -> bool {
        let upto = |k: usize| self.durable[..k].concat();
        let all = self.durable.len();
        if self.resetting {
            (0..=all).any(|k| records == upto(k)) || self.next.as_deref() == Some(records)
        } else {
            records == upto(all)
                || self
                    .next
                    .as_ref()
                    .is_some_and(|next| records == [upto(all), next.clone()].concat())
        }
    }
}

/// Checks one crash image on `spare`: the map marks every chunk holding a
/// non-zero byte, the bounded scan finds exactly what a whole-journal
/// scan finds, and that is what `expect` allows.
fn check_crash_image(spare: &Arc<PmemDevice>, sb: &Superblock, expect: &Expect, what: &str) {
    let marked = marked_chunks(spare);
    for chunk in written_chunks(spare, sb) {
        assert!(
            marked.contains(&chunk),
            "{what}: chunk {chunk} holds bytes the map {marked:?} does not mark"
        );
    }
    let bounded = Journal::new(Arc::clone(spare), sb).scan_written();
    // An all-zero map line makes the scan read the whole journal.
    spare.write_uncharged(JOURNAL_MAP_OFFSET, &[0u8; JOURNAL_MAP_LEN]);
    let whole = Journal::new(Arc::clone(spare), sb).scan_written();
    assert_eq!(whole.fetched, sb.journal_blocks * BLOCK_SIZE as u64);
    assert_eq!(bounded.records, whole.records, "{what}: records differ");
    assert_eq!(bounded.max_tid, whole.max_tid, "{what}: max tid differs");
    assert!(
        expect.allows(&bounded.records),
        "{what}: the scan found {} records",
        bounded.records.len()
    );
}

/// Runs `op` with power failing at each of its fences in turn, every crash
/// image checked on a spare device against what `expect` holds at that
/// moment.  Returns how many images were checked.
fn cut_every_fence(
    device: &Arc<PmemDevice>,
    sb: &Superblock,
    expect: &Arc<Mutex<Expect>>,
    what: &str,
    op: impl FnOnce(),
) -> u64 {
    let points = Arc::new(AtomicU64::new(0));
    {
        let spare = PmemBuilder::new(device.size())
            .track_persistence(true)
            .build();
        let (sb, expect, points) = (*sb, Arc::clone(expect), Arc::clone(&points));
        let what = what.to_string();
        device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
            spare.restore_crash_image(&dev.capture_crash_image());
            let expect = expect.lock().clone();
            check_crash_image(&spare, &sb, &expect, &format!("{what}, fence {ordinal}"));
            points.fetch_add(1, Ordering::Relaxed);
        })));
    }
    op();
    device.set_fence_hook(None);
    points.load(Ordering::Relaxed)
}

/// Commits `txns` one at a time, keeping `expect` up to date: each is
/// `next` while it commits and durable once the commit returns.  A commit
/// that reset the journal leaves only itself durable.
fn commit_all(
    journal: &Journal,
    expect: &Mutex<Expect>,
    txns: impl IntoIterator<Item = Vec<JournalRecord>>,
) {
    for txn in txns {
        expect.lock().next = Some(txn.clone());
        let used = journal.used_bytes();
        drop(journal.commit(&txn).unwrap());
        let mut e = expect.lock();
        if journal.used_bytes() < used {
            e.durable.clear();
        }
        e.durable.push(txn);
        e.next = None;
    }
}

/// The torn seeds cut the map's line both ways: seed 1 keeps the old
/// first byte (the bits of chunks 0–7), seed 4 the new one.  A map store
/// sharing a fence with the bytes it must cover — a raise after its
/// records, or a reset's map before its zeroes — fails under one of them.
const POLICIES: [CrashPolicy; 4] = [
    CrashPolicy::LoseUnflushed,
    CrashPolicy::KeepAll,
    CrashPolicy::TornWrites { seed: 1 },
    CrashPolicy::TornWrites { seed: 4 },
];

#[test]
fn a_crash_at_any_fence_of_commits_that_open_chunks_loses_nothing() {
    for policy in POLICIES {
        // A 512 KiB journal: eight chunks.
        let (device, sb) = new_device(4, policy);
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        assert_eq!(marked_chunks(&device), [0]);
        let expect = Arc::new(Mutex::new(Expect::default()));
        let txns = (0..).map(txn);
        let mut txns = txns.take_while(|_| journal.used_bytes() < 3 * CHUNK_SIZE + 100);
        let cuts = cut_every_fence(&device, &sb, &expect, "opening commits", || {
            commit_all(&journal, &expect, &mut txns);
        });
        assert_eq!(marked_chunks(&device), [0, 1, 2, 3], "{policy:?}");
        let commits = expect.lock().durable.len() as u64;
        assert_eq!(
            cuts,
            commits + 3,
            "{policy:?}: a fence per commit and per raise"
        );
    }
}

#[test]
fn a_crash_at_any_fence_of_a_full_journal_reset_loses_nothing() {
    for policy in POLICIES {
        // The smallest journal: 64 blocks, four chunks.
        let (device, sb) = new_device(2, policy);
        assert_eq!(sb.journal_blocks, 64);
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        let expect = Arc::new(Mutex::new(Expect::default()));
        let len = sb.journal_blocks * BLOCK_SIZE as u64;
        let mut n = 0u64;
        while journal.used_bytes() + 2 * 5_000 < len {
            commit_all(&journal, &expect, [txn(n)]);
            n += 1;
        }
        assert_eq!(marked_chunks(&device), [0, 1, 2, 3]);
        // The last commit that fits, then the one that resets, then one more.
        let cuts = cut_every_fence(&device, &sb, &expect, "reset", || {
            commit_all(&journal, &expect, [txn(n)]);
            let full = journal.used_bytes();
            expect.lock().resetting = true;
            commit_all(&journal, &expect, [txn(n + 1)]);
            expect.lock().resetting = false;
            assert!(journal.used_bytes() < full, "the commit reset the journal");
            commit_all(&journal, &expect, [txn(n + 2)]);
        });
        assert_eq!(cuts, 4, "{policy:?}: the reset adds only its zeroes' fence");
        assert_eq!(marked_chunks(&device), [0], "{policy:?}");
        assert_eq!(written_chunks(&device, &sb), [0], "{policy:?}");
    }
}

#[test]
fn a_crash_at_any_fence_of_a_mount_reset_and_the_first_commit_loses_nothing() {
    for policy in POLICIES {
        let (device, sb) = new_device(4, policy);
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        let expect = Arc::new(Mutex::new(Expect::default()));
        let mut n = 0u64;
        while journal.used_bytes() < 2 * CHUNK_SIZE + 100 {
            commit_all(&journal, &expect, [txn(n)]);
            n += 1;
        }
        drop(journal);
        device.crash();
        assert_eq!(marked_chunks(&device), [0, 1, 2]);

        // Mount's contract: scan, (replay in place), reset, then commit.
        let mounted = Journal::new(Arc::clone(&device), &sb);
        let scan = mounted.scan_written();
        assert_eq!(scan.records, expect.lock().durable.concat(), "{policy:?}");
        assert_eq!(scan.fetched, 3 * CHUNK_SIZE);
        mounted.set_next_tid(scan.max_tid + 1);
        let cuts = cut_every_fence(&device, &sb, &expect, "mount reset", || {
            expect.lock().resetting = true;
            mounted.reset();
            {
                let mut e = expect.lock();
                e.durable.clear();
                e.resetting = false;
            }
            commit_all(&mounted, &expect, [txn(n)]);
        });
        assert_eq!(cuts, 2, "{policy:?}: the reset's fence and the commit's");
        assert_eq!(marked_chunks(&device), [0], "{policy:?}");
    }
}

/// Mount-cost guard: the scan fetches what the last life journaled, not the
/// journal.  Deterministic: it counts bytes, not time.
#[test]
fn a_scan_fetches_what_was_journaled_not_the_journal() {
    for mib in [8, 128] {
        let device = PmemBuilder::new(mib * MIB).build();
        let sb = Superblock::compute((mib * MIB / BLOCK_SIZE) as u64, 256).unwrap();
        let journal = Journal::new(Arc::clone(&device), &sb);
        journal.format();
        for n in 0..8 {
            journal.commit(&txn(n)).unwrap();
        }
        assert!((38_000..42_000).contains(&journal.used_bytes()));
        let scan = Journal::new(Arc::clone(&device), &sb).scan_written();
        let len = sb.journal_blocks * BLOCK_SIZE as u64;
        assert_eq!(len, mib as u64 * MIB as u64 / 8);
        assert_eq!(scan.records.len(), 8 * 20);
        assert!(
            scan.fetched <= CHUNK_SIZE,
            "a {len} B journal: the scan fetched {} B",
            scan.fetched
        );
    }
}
