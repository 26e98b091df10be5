//! The crash-point fuzzing engine.
//!
//! Pass 1 ([`enumerate_fences`]) runs the seeded
//! [`workloads::crashmix`] workload once and counts the fence
//! boundaries it crosses.  Pass 2 ([`run`]) replays the same workload
//! once per sampled boundary with a [`pmem::FenceHook`] armed: when the
//! target fence ordinal fires, the hook captures a
//! [`pmem::CrashImage`] — ledger length first, shard bytes second — and
//! the run continues undisturbed.  The image is then restored into a
//! fresh device, mounted, recovered ([`crate::harness::Recovered`]),
//! and checked against exactly the promises that were in the ledger at
//! capture time, plus the fsck walk and the foreign-entry containment
//! guard.
//!
//! A campaign with [`FuzzConfig::prior_life`] cuts a restarted instance:
//! each trial's device first lives one crashed life of the workload (and
//! one file of whole blocks, whose relink leaves holes in the active
//! staging file), and the instance under test adopts the staging files
//! that life left.  At every cut the device statistics since the
//! instance started say which rare paths ran before it ([`Reach`]).
//!
//! Fence counts are *mostly* deterministic but can drift by a few
//! ordinals across replays (the workload's threads interleave
//! differently on each run, which reorders who fences), so the sampler only targets ordinals below
//! 90% of the enumerated count and a replay whose target never fires
//! is reported as `points_unreached` rather than an error.
//!
//! [`run_differential`] crashes the same points under
//! [`pmem::CrashPolicy::KeepAll`] and `LoseUnflushed` and classifies
//! each divergence: a violation only under `LoseUnflushed` is a
//! missing flush/fence, a violation under both is a logic bug, and a
//! violation only under `KeepAll` is unclassifiable (and should never
//! happen — losing *less* state cannot hurt a correct system).
//!
//! [`run_media_faults`] covers the non-crash fault axis: it poisons
//! byte ranges of a durable file's blocks and verifies the read error
//! propagates to the application as `EIO`, neighboring files stay
//! readable, and clearing the poison restores the data intact.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use kernelfs::Ext4Dax;
use parking_lot::Mutex;
use pmem::{
    content_hash, CrashImage, CrashPolicy, PmemBuilder, PmemDevice, Promise, PromiseRecord,
    StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, FsError, FsResult, OpenFlags};
use workloads::crashmix::{self, CrashMixConfig};

use crate::harness::Recovered;

/// Parameters of one fuzzing campaign (one mode, one crash policy).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed: drives the workload and the boundary sampler.
    pub seed: u64,
    /// SplitFS mode under test.
    pub mode: Mode,
    /// What happens to unfenced lines at the crash point.
    pub policy: CrashPolicy,
    /// Maximum crash points to explore (sampled evenly across the
    /// enumerated boundaries when there are more).
    pub max_points: usize,
    /// The workload replayed for every point.
    pub workload: CrashMixConfig,
    /// Device size for each trial.
    pub device_size: usize,
    /// Operation-log size of each trial.
    pub oplog_size: u64,
    /// Whether each trial's device lives one crashed life of the workload
    /// (under `/prior`) before the instance under test starts on it.
    pub prior_life: bool,
}

impl FuzzConfig {
    /// The bounded smoke-gate profile: a small concurrent workload,
    /// sized so one mode explores 100+ points in seconds.
    pub fn smoke(mode: Mode, seed: u64) -> Self {
        Self {
            seed,
            mode,
            policy: CrashPolicy::LoseUnflushed,
            max_points: 100,
            workload: CrashMixConfig {
                seed,
                threads: 2,
                files_per_thread: 2,
                ops_per_thread: 24,
                use_rings: false,
                dir: "/chaos".to_string(),
            },
            device_size: 64 * 1024 * 1024,
            oplog_size: 256 * 1024,
            prior_life: false,
        }
    }
}

/// How many crash points were cut after each of a list of rare paths had
/// run in the instance under test, read from the device statistics since
/// it started (its own start included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reach {
    /// A fully retired staging file was recycled.
    pub staging_recycle: u64,
    /// The operation log sealed its active epoch.
    pub epoch_seal: u64,
    /// A writer found the log full and waited on a checkpoint.
    pub checkpoint_stall: u64,
    /// The start resumed a staging file past its last hole.
    pub resumed_adoption: u64,
}

impl Reach {
    /// One point's reach: 1 for each path `delta` shows ran.
    fn at_cut(delta: &StatsSnapshot) -> Self {
        let ran = |n: u64| (n > 0) as u64;
        Self {
            staging_recycle: ran(delta.staging_recycles),
            epoch_seal: ran(delta.oplog_epoch_swaps),
            checkpoint_stall: ran(delta.checkpoint_stalls),
            resumed_adoption: ran(delta.staging_resumes),
        }
    }

    /// Adds `other`'s points to these.
    pub fn add(&mut self, other: &Reach) {
        self.staging_recycle += other.staging_recycle;
        self.epoch_seal += other.epoch_seal;
        self.checkpoint_stall += other.checkpoint_stall;
        self.resumed_adoption += other.resumed_adoption;
    }

    /// `(path, points)`, in the order the report prints them.
    pub fn rows(&self) -> [(&'static str, u64); 4] {
        [
            ("staging-file recycle", self.staging_recycle),
            ("epoch seal", self.epoch_seal),
            ("checkpoint stall", self.checkpoint_stall),
            ("resumed adoption", self.resumed_adoption),
        ]
    }
}

/// The outcome of one fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Fence boundaries the enumeration pass counted.
    pub fences_enumerated: u64,
    /// Crash points captured, recovered and checked.
    pub points_explored: u64,
    /// Sampled ordinals whose fence never fired on the replay (fence
    /// count drift under concurrency).
    pub points_unreached: u64,
    /// Every oracle violation, prefixed with the crash ordinal.
    pub violations: Vec<String>,
    /// Recovered images that failed the fsck walk (or failed to mount).
    pub fsck_failures: u64,
    /// Strictly-checked promises across all points.
    pub promises_checked: u64,
    /// Declared promises by kind across all points.
    pub promise_counts: BTreeMap<&'static str, u64>,
    /// Points cut after each rare path ran.
    pub reach: Reach,
}

/// The split configuration every trial uses: small staging so the
/// workload crosses relink and group-commit boundaries quickly, daemon
/// off so the only concurrency is the workload's own threads.  After a
/// prior life the staging files are 4 MiB, not 2: a 2 MiB file has no
/// 2 MiB left past a hole, so a restart would rebuild it, not resume it.
fn split_config(config: &FuzzConfig) -> SplitConfig {
    let staging_mib = if config.prior_life { 4 } else { 2 };
    SplitConfig::new(config.mode)
        .with_staging(4, staging_mib * 1024 * 1024)
        .with_oplog_size(config.oplog_size)
        .without_daemon()
}

/// Builds a fresh device + instance for one trial, with the ledger
/// enabled before `SplitFs::new`, after the crashed prior life if the
/// campaign asks for one.  Also returns the statistics from just before
/// the instance started, which a point's [`Reach`] is read against.
fn build(config: &FuzzConfig) -> FsResult<(Arc<PmemDevice>, Arc<SplitFs>, StatsSnapshot)> {
    let device = PmemBuilder::new(config.device_size)
        .track_persistence(true)
        .crash_policy(config.policy)
        .build();
    device.ledger().set_enabled(true);
    let split = split_config(config);
    let mut kernel = Ext4Dax::mkfs(Arc::clone(&device))?;
    if config.prior_life {
        let fs = SplitFs::new(kernel, split.clone())?;
        let prior = CrashMixConfig {
            dir: "/prior".to_string(),
            ..config.workload.clone()
        };
        crashmix::run(&fs, &prior)?;
        // `crashmix`'s appends are smaller than a block and relink as
        // copies; a last file of whole blocks moves some out, so the
        // restart finds a hole in the active staging file to resume past.
        let blocks = vec![0xA5u8; 64 * 1024];
        fs.write_file("/prior/blocks", &blocks)?;
        device.declare(Promise::FileDurable {
            path: "/prior/blocks".to_string(),
            len: blocks.len() as u64,
            hash: content_hash(&blocks),
        });
        drop(fs);
        device.crash();
        kernel = Recovered::mount_and_recover(&device, &split)?.kernel;
    }
    let started = device.stats().snapshot();
    let fs = SplitFs::new(kernel, split)?;
    Ok((device, fs, started))
}

/// Pass 1: runs the workload once and returns `(setup_fences,
/// total_fences)` — the fence ordinal at which setup (mkfs + instance
/// start) finished, and the ordinal count when the workload completed.
/// Crash points are sampled from the span in between.
pub fn enumerate_fences(config: &FuzzConfig) -> FsResult<(u64, u64)> {
    let (device, fs, _) = build(config)?;
    let setup = device.fence_ordinal();
    crashmix::run(&fs, &config.workload)?;
    drop(fs);
    Ok((setup, device.fence_ordinal()))
}

/// Pass 2, one point: replays the workload with the hook armed at
/// `target`, returning the captured image, the ledger slice established
/// before it and the rare paths that ran before the cut — or `None`
/// when the replay never reached the target ordinal.
fn capture_at(
    config: &FuzzConfig,
    target: u64,
) -> FsResult<Option<(CrashImage, Vec<PromiseRecord>, Reach)>> {
    let (device, fs, started) = build(config)?;
    let slot: Arc<Mutex<Option<(CrashImage, Reach)>>> = Arc::new(Mutex::new(None));
    let hook_slot = Arc::clone(&slot);
    device.set_fence_hook(Some(Arc::new(move |dev: &PmemDevice, ordinal: u64| {
        if ordinal == target {
            let mut slot = hook_slot.lock();
            if slot.is_none() {
                let reach = Reach::at_cut(&dev.stats().snapshot().delta(&started));
                *slot = Some((dev.capture_crash_image(), reach));
            }
        }
    })));
    crashmix::run(&fs, &config.workload)?;
    drop(fs);
    device.set_fence_hook(None);
    let image = slot.lock().take();
    Ok(image.map(|(image, reach)| {
        let records = device.ledger().records_up_to(image.ledger_len());
        (image, records, reach)
    }))
}

/// What recovering one captured image produced.
struct PointOutcome {
    violations: Vec<String>,
    fsck_failed: bool,
    promises_checked: u64,
    promise_counts: BTreeMap<&'static str, u64>,
}

/// Restores a captured image into a fresh device, mounts + recovers
/// it, and runs fsck plus the promise oracle.  A recovery panic is a
/// violation, not a test-harness crash.
fn recover_point(
    config: &FuzzConfig,
    image: &CrashImage,
    records: &[PromiseRecord],
) -> PointOutcome {
    let device = PmemBuilder::new(config.device_size)
        .track_persistence(true)
        .build();
    device.restore_crash_image(image);
    let split = split_config(config);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let rec = Recovered::mount_and_recover(&device, &split)?;
        let fsck = rec.fsck();
        let mut oracle = rec.check_promises(records);
        if rec.foreign_entries() > 0 {
            oracle.violations.push(format!(
                "containment broken: {} foreign log entries replayed",
                rec.foreign_entries()
            ));
        }
        Ok::<_, FsError>((fsck, oracle))
    }));
    match result {
        Ok(Ok((fsck, oracle))) => PointOutcome {
            fsck_failed: !fsck.is_empty(),
            violations: fsck.into_iter().chain(oracle.violations).collect(),
            promises_checked: oracle.promises_checked,
            promise_counts: oracle.promise_counts,
        },
        Ok(Err(e)) => PointOutcome {
            violations: vec![format!("recovery failed: {e}")],
            fsck_failed: true,
            promises_checked: 0,
            promise_counts: BTreeMap::new(),
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            PointOutcome {
                violations: vec![format!("recovery panicked: {msg}")],
                fsck_failed: true,
                promises_checked: 0,
                promise_counts: BTreeMap::new(),
            }
        }
    }
}

/// Samples up to `max_points` distinct ordinals from `[setup, 0.9 *
/// total)`: evenly strided with seeded jitter, so points cover the
/// whole run instead of clustering.
fn sample_points(config: &FuzzConfig, setup: u64, total: u64) -> Vec<u64> {
    // Beyond 90% of the enumerated count, replay drift makes the
    // target unlikely to fire; below `setup`, the hook is not armed.
    let limit = ((total as f64) * 0.9) as u64;
    if limit <= setup {
        return Vec::new();
    }
    let span = limit - setup;
    if span <= config.max_points as u64 {
        return (setup..limit).collect();
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x005A_17F5_C4A5);
    let mut points = Vec::with_capacity(config.max_points);
    for i in 0..config.max_points as u64 {
        let lo = setup + i * span / config.max_points as u64;
        let hi = setup + (i + 1) * span / config.max_points as u64;
        points.push(if hi > lo + 1 {
            rng.random_range(lo..hi)
        } else {
            lo
        });
    }
    points.dedup();
    points
}

/// Runs one full campaign: enumerate, sample, and for every sampled
/// boundary capture + recover + check.
pub fn run(config: &FuzzConfig) -> FsResult<FuzzReport> {
    let (setup, total) = enumerate_fences(config)?;
    let mut report = FuzzReport {
        fences_enumerated: total,
        ..FuzzReport::default()
    };
    for target in sample_points(config, setup, total) {
        let Some((image, records, reach)) = capture_at(config, target)? else {
            report.points_unreached += 1;
            continue;
        };
        let outcome = recover_point(config, &image, &records);
        report.points_explored += 1;
        report.reach.add(&reach);
        if outcome.fsck_failed {
            report.fsck_failures += 1;
        }
        report.violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| format!("fence {target}: {v}")),
        );
        report.promises_checked += outcome.promises_checked;
        for (kind, n) in outcome.promise_counts {
            *report.promise_counts.entry(kind).or_insert(0) += n;
        }
    }
    Ok(report)
}

/// Differential classification of one crash point set.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Points where both policies recovered cleanly.
    pub consistent: u64,
    /// Violation only under `LoseUnflushed`: a missing flush/fence
    /// (the state was written but never made durable).
    pub missing_fence: u64,
    /// Violation under both policies: a logic bug independent of cache
    /// survival.
    pub logic_bug: u64,
    /// Violation only under `KeepAll` — impossible for a correct
    /// oracle/system pair, so any count here demands investigation.
    pub unclassified: u64,
    /// Points one of the two replays never reached.
    pub skipped: u64,
}

/// Crashes the same sampled points under `KeepAll` and `LoseUnflushed`
/// and classifies every divergence.
pub fn run_differential(config: &FuzzConfig, max_points: usize) -> FsResult<DiffReport> {
    let keep = FuzzConfig {
        policy: CrashPolicy::KeepAll,
        max_points,
        ..config.clone()
    };
    let lose = FuzzConfig {
        policy: CrashPolicy::LoseUnflushed,
        max_points,
        ..config.clone()
    };
    let (setup, total) = enumerate_fences(&lose)?;
    let mut report = DiffReport::default();
    for target in sample_points(&lose, setup, total) {
        let keep_outcome = capture_at(&keep, target)?
            .map(|(image, records, _)| recover_point(&keep, &image, &records));
        let lose_outcome = capture_at(&lose, target)?
            .map(|(image, records, _)| recover_point(&lose, &image, &records));
        let (Some(keep_outcome), Some(lose_outcome)) = (keep_outcome, lose_outcome) else {
            report.skipped += 1;
            continue;
        };
        match (
            keep_outcome.violations.is_empty(),
            lose_outcome.violations.is_empty(),
        ) {
            (true, true) => report.consistent += 1,
            (true, false) => report.missing_fence += 1,
            (false, false) => report.logic_bug += 1,
            (false, true) => report.unclassified += 1,
        }
    }
    Ok(report)
}

/// The outcome of the media-fault verification pass.
#[derive(Debug, Clone, Default)]
pub struct MediaFaultReport {
    /// Poisoned ranges injected.
    pub injected: u64,
    /// Reads of poisoned data that surfaced as `EIO` to the caller.
    pub propagated: u64,
    /// Whether files outside the poisoned ranges stayed fully readable.
    pub contained: bool,
    /// Whether clearing the poison restored the data intact.
    pub restored: bool,
}

/// Verifies media read errors propagate and stay contained: two files
/// are made durable, several ranges of the first file's blocks are
/// poisoned, and reads must fail with `EIO` on the victim, succeed on
/// the neighbor, and succeed everywhere once the poison clears.
pub fn run_media_faults(config: &FuzzConfig) -> FsResult<MediaFaultReport> {
    let (device, fs, _) = build(config)?;
    let victim: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 249) as u8).collect();
    let neighbor: Vec<u8> = (0..32 * 1024u32).map(|i| (i % 253) as u8).collect();
    fs.write_file("/victim", &victim)?;
    fs.write_file("/neighbor", &neighbor)?;
    let kernel = Arc::clone(fs.kernel());
    drop(fs);

    // Map the victim's blocks to device offsets and poison three
    // distinct ranges.
    let fd = kernel.open("/victim", OpenFlags::read_only())?;
    let size = kernel.fstat(fd)?.size;
    let mapping = kernel.dax_map(fd, 0, size, false)?;
    let mut report = MediaFaultReport::default();
    for file_off in [0u64, size / 2, size - 128] {
        let (dev_off, _) = mapping
            .translate(file_off)
            .ok_or_else(|| FsError::Io("victim mapping has a hole".into()))?;
        device.poison_range(dev_off, 64);
        report.injected += 1;
    }

    // Every read overlapping a poisoned range must surface EIO.
    for file_off in [0u64, size / 2, size - 128] {
        let mut buf = vec![0u8; 128];
        match kernel.read_at(fd, file_off, &mut buf) {
            Err(FsError::Io(msg)) if msg.contains("media read error") => {
                report.propagated += 1;
            }
            other => {
                return Err(FsError::Io(format!(
                    "poisoned read at {file_off} returned {other:?} instead of EIO"
                )))
            }
        }
    }

    // Containment: the neighbor file never touches the poisoned blocks.
    report.contained = kernel.read_file("/neighbor")? == neighbor;

    // Clearing the poison restores the victim bit-for-bit (the data
    // under the poisoned range was never altered, only unreadable).
    device.clear_poison();
    report.restored = kernel.read_file("/victim")? == victim;
    kernel.close(fd)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::chaos_seed;

    fn tiny(mode: Mode) -> FuzzConfig {
        let mut config = FuzzConfig::smoke(mode, chaos_seed(0xC4A0_5EED));
        config.max_points = 6;
        config.workload.ops_per_thread = 12;
        config
    }

    #[test]
    fn enumeration_counts_setup_and_workload_fences() {
        let config = tiny(Mode::Strict);
        let (setup, total) = enumerate_fences(&config).unwrap();
        assert!(setup > 0, "mkfs and instance start must fence");
        assert!(
            total > setup + 50,
            "the workload must cross many boundaries: setup={setup} total={total}"
        );
    }

    #[test]
    fn strict_mode_points_recover_clean() {
        let config = tiny(Mode::Strict);
        let report = run(&config).unwrap();
        assert!(
            report.points_explored >= 3,
            "too few points reached: {report:?}"
        );
        assert!(
            report.violations.is_empty(),
            "seed {}: {:#?}",
            crate::seed::replay_banner(config.seed),
            report.violations
        );
        assert_eq!(report.fsck_failures, 0);
        assert!(report.promises_checked > 0);
    }

    #[test]
    fn posix_mode_points_recover_clean() {
        let config = FuzzConfig {
            mode: Mode::Posix,
            ..tiny(Mode::Posix)
        };
        let report = run(&config).unwrap();
        assert!(report.points_explored >= 3, "{report:?}");
        assert!(
            report.violations.is_empty(),
            "seed {}: {:#?}",
            crate::seed::replay_banner(config.seed),
            report.violations
        );
    }

    #[test]
    fn torn_writes_policy_recovers_clean() {
        let mut config = tiny(Mode::Strict);
        config.policy = CrashPolicy::TornWrites { seed: config.seed };
        let report = run(&config).unwrap();
        assert!(report.points_explored >= 3, "{report:?}");
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn a_restarted_instance_is_cut_after_resuming_its_staging_file() {
        let mut config = tiny(Mode::Strict);
        config.prior_life = true;
        let report = run(&config).unwrap();
        assert!(report.points_explored >= 3, "{report:?}");
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.reach.resumed_adoption, report.points_explored);
    }

    #[test]
    fn differential_classifies_without_unclassified_divergences() {
        let config = tiny(Mode::Strict);
        let report = run_differential(&config, 4).unwrap();
        assert!(
            report.consistent + report.missing_fence + report.logic_bug >= 2,
            "{report:?}"
        );
        assert_eq!(report.unclassified, 0, "{report:?}");
        assert_eq!(report.logic_bug, 0, "{report:?}");
        assert_eq!(report.missing_fence, 0, "{report:?}");
    }

    #[test]
    fn media_faults_propagate_and_stay_contained() {
        let report = run_media_faults(&tiny(Mode::Posix)).unwrap();
        assert_eq!(report.injected, 3);
        assert_eq!(report.propagated, 3);
        assert!(report.contained);
        assert!(report.restored);
    }
}
