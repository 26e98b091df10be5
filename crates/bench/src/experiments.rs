//! The experiments behind every table and figure of the paper's evaluation.
//!
//! Each function reproduces one table or figure: it builds the relevant
//! file-system configurations, runs the workload the paper describes, and
//! returns printable rows.  The `harness` binary wraps these in a CLI
//! (README.md lists the experiments); the paper's own numbers are recorded
//! next to the constants they calibrate in `pmem::CostModel`.

use std::sync::Arc;

use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::FileSystem;
use workloads::appbench::{self, YcsbRunConfig};
use workloads::io_patterns::{self, IoBenchConfig, IoPattern};
use workloads::tpcc::TpccConfig;
use workloads::utilities;
use workloads::varmail;
use workloads::ycsb::YcsbWorkload;

use crate::{make_fs, make_splitfs, reset_measurement, FsKind};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs so the whole suite finishes in a couple of minutes.
    Quick,
    /// Paper-sized inputs (128 MiB files, 10⁵-record YCSB, …).
    Full,
}

impl Scale {
    fn io_bytes(self) -> u64 {
        match self {
            Scale::Quick => 16 * 1024 * 1024,
            Scale::Full => 128 * 1024 * 1024,
        }
    }

    fn device_bytes(self) -> usize {
        match self {
            Scale::Quick => 320 * 1024 * 1024,
            Scale::Full => 1024 * 1024 * 1024,
        }
    }

    fn ycsb_records(self) -> u64 {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 100_000,
        }
    }

    fn ycsb_ops(self) -> u64 {
        match self {
            Scale::Quick => 3_000,
            Scale::Full => 100_000,
        }
    }

    fn tpcc_txns(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Full => 3_000,
        }
    }

    fn redis_sets(self) -> u64 {
        match self {
            Scale::Quick => 10_000,
            Scale::Full => 200_000,
        }
    }

    fn varmail_iterations(self) -> u64 {
        match self {
            Scale::Quick => 50,
            Scale::Full => 500,
        }
    }

    fn tree(self) -> utilities::TreeConfig {
        match self {
            Scale::Quick => utilities::TreeConfig {
                dirs: 4,
                files_per_dir: 32,
                mean_file_size: 4096,
                seed: 11,
            },
            Scale::Full => utilities::TreeConfig {
                dirs: 16,
                files_per_dir: 128,
                mean_file_size: 8192,
                seed: 11,
            },
        }
    }
}

/// One row of printable output.
pub type Row = Vec<String>;

/// Builds a fresh emulated device of `bytes` bytes with a formatted kernel
/// file system on it — the setup every hand-rolled experiment shares.
/// Persistence tracking (the crash-simulation shadow copy) stays off
/// except for the experiments that actually crash the device.
fn setup_device(
    bytes: usize,
    track_persistence: bool,
) -> (Arc<pmem::PmemDevice>, Arc<kernelfs::Ext4Dax>) {
    let device = pmem::PmemBuilder::new(bytes)
        .track_persistence(track_persistence)
        .build();
    let kernel = kernelfs::Ext4Dax::mkfs(Arc::clone(&device)).expect("mkfs ext4-dax");
    (device, kernel)
}

// ----------------------------------------------------------------------
// Table 1 — software overhead of a 4 KiB append
// ----------------------------------------------------------------------

/// Reproduces Table 1: the mean cost of a 4 KiB append and its software
/// overhead over the raw device write, for the five file systems the paper
/// lists.
pub fn table1(scale: Scale) -> Vec<Row> {
    let kinds = [
        FsKind::Ext4Dax,
        FsKind::Pmfs,
        FsKind::NovaStrict,
        FsKind::SplitStrict,
        FsKind::SplitPosix,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let fixture = make_fs(kind, scale.device_bytes());
        let row = io_patterns::append_software_overhead(&fixture.fs, scale.io_bytes())
            .expect("append overhead run");
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.0}", row.append_ns),
            format!("{:.0}", row.overhead_ns),
            format!("{:.0}%", row.overhead_pct),
        ]);
    }
    rows
}

// ----------------------------------------------------------------------
// Table 6 — system-call latencies (Varmail-like sequence)
// ----------------------------------------------------------------------

/// Reproduces Table 6: mean latency (µs) of each system call in the
/// Varmail-like sequence for the three SplitFS modes and ext4 DAX.
pub fn table6(scale: Scale) -> Vec<Row> {
    let kinds = [
        FsKind::SplitStrict,
        FsKind::SplitSync,
        FsKind::SplitPosix,
        FsKind::Ext4Dax,
    ];
    let mut per_fs = Vec::new();
    for kind in kinds {
        let fixture = make_fs(kind, scale.device_bytes());
        reset_measurement(&fixture);
        let lat = varmail::run(&fixture.fs, scale.varmail_iterations()).expect("varmail run");
        per_fs.push((kind, lat));
    }
    let calls = ["open", "close", "append", "fsync", "read", "unlink"];
    let mut rows = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        let mut row = vec![call.to_string()];
        for (_, lat) in &per_fs {
            row.push(format!("{:.2}", lat.as_rows()[i].1));
        }
        rows.push(row);
    }
    // The extra row the sharded namespace adds to Table 6: the full-path
    // lookup cache hit rate over the run (the second and third open of
    // each file and its unlink resolve in one hash probe).
    let mut row = vec!["cache hit %".to_string()];
    for (_, lat) in &per_fs {
        row.push(format!("{:.1}", lat.cache_hit_rate * 100.0));
    }
    rows.push(row);
    rows
}

// ----------------------------------------------------------------------
// Table 7 — SplitFS-strict vs Strata, YCSB on the LSM store
// ----------------------------------------------------------------------

/// Reproduces Table 7: raw Strata throughput and SplitFS-strict throughput
/// normalized to it, for the scaled-down YCSB workloads.
pub fn table7(scale: Scale) -> Vec<Row> {
    let workloads = [
        ("Load A", YcsbWorkload::A, true),
        ("Run A", YcsbWorkload::A, false),
        ("Run B", YcsbWorkload::B, false),
        ("Run C", YcsbWorkload::C, false),
        ("Run D", YcsbWorkload::D, false),
        ("Load E", YcsbWorkload::E, true),
        ("Run E", YcsbWorkload::E, false),
        ("Run F", YcsbWorkload::F, false),
    ];
    let config = YcsbRunConfig {
        record_count: scale.ycsb_records(),
        op_count: scale.ycsb_ops(),
        ..YcsbRunConfig::default()
    };
    let mut rows = Vec::new();
    for (label, workload, use_load) in workloads {
        let pick = |r: appbench::YcsbResult| if use_load { r.load } else { r.run };
        let strata = {
            let fixture = make_fs(FsKind::Strata, scale.device_bytes());
            reset_measurement(&fixture);
            pick(appbench::run_ycsb(&fixture.fs, workload, &config).expect("ycsb on strata"))
        };
        let split = {
            let fixture = make_fs(FsKind::SplitStrict, scale.device_bytes());
            reset_measurement(&fixture);
            pick(appbench::run_ycsb(&fixture.fs, workload, &config).expect("ycsb on splitfs"))
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.1} kops/s", strata.kops_per_sec()),
            format!("{:.2}x", split.kops_per_sec() / strata.kops_per_sec()),
        ]);
    }
    rows
}

// ----------------------------------------------------------------------
// Figure 3 — contribution of each technique
// ----------------------------------------------------------------------

/// Reproduces Figure 3: 4 KiB sequential overwrites and 4 KiB appends
/// (fsync every 10 operations) on ext4 DAX and on SplitFS-POSIX with the
/// techniques enabled one after another: split architecture only, plus
/// staging, plus relink.  Values are throughput normalized to ext4 DAX.
pub fn fig3(scale: Scale) -> Vec<Row> {
    let configs: Vec<(&str, Option<SplitConfig>)> = vec![
        ("ext4 DAX", None),
        (
            "+ split architecture",
            Some(SplitConfig::new(Mode::Posix).without_staging()),
        ),
        (
            "+ staging",
            Some(SplitConfig::new(Mode::Posix).without_relink()),
        ),
        ("+ relink", Some(SplitConfig::new(Mode::Posix))),
    ];
    let io = IoBenchConfig {
        total_bytes: scale.io_bytes(),
        fsync_every: 10,
        ..IoBenchConfig::default()
    };

    let mut results: Vec<(String, f64, f64)> = Vec::new();
    for (label, config) in configs {
        let fixture = match config {
            None => make_fs(FsKind::Ext4Dax, scale.device_bytes()),
            Some(c) => make_splitfs(c.with_staging(4, 16 * 1024 * 1024), scale.device_bytes()),
        };
        let overwrite =
            io_patterns::run_pattern(&fixture.fs, IoPattern::SequentialWrite, &io).unwrap();
        let append = io_patterns::run_pattern(&fixture.fs, IoPattern::Append, &io).unwrap();
        results.push((
            label.to_string(),
            overwrite.kops_per_sec(),
            append.kops_per_sec(),
        ));
    }
    let base_overwrite = results[0].1;
    let base_append = results[0].2;
    results
        .into_iter()
        .map(|(label, ow, ap)| {
            vec![
                label,
                format!("{:.2}x", ow / base_overwrite),
                format!("{:.2}x", ap / base_append),
            ]
        })
        .collect()
}

// ----------------------------------------------------------------------
// Figure 4 — IO patterns, grouped by guarantee class
// ----------------------------------------------------------------------

/// Reproduces Figure 4: throughput of the five IO patterns for every file
/// system, normalized to the baseline of its guarantee class (ext4 DAX for
/// POSIX, PMFS for sync, NOVA-strict for strict).
pub fn fig4(scale: Scale) -> Vec<Row> {
    let groups: [(&str, FsKind, Vec<FsKind>); 3] = [
        ("POSIX", FsKind::Ext4Dax, vec![FsKind::SplitPosix]),
        ("sync", FsKind::Pmfs, vec![FsKind::SplitSync]),
        (
            "strict",
            FsKind::NovaStrict,
            vec![FsKind::Strata, FsKind::SplitStrict],
        ),
    ];
    // §5.6: each benchmark reads/writes the whole file in 4 KiB units; no
    // periodic fsync is part of the measured loop.
    let io = IoBenchConfig {
        total_bytes: scale.io_bytes(),
        fsync_every: 0,
        ..IoBenchConfig::default()
    };
    let mut rows = Vec::new();
    for (group, baseline, others) in groups {
        let mut base_results: Vec<(IoPattern, f64)> = Vec::new();
        {
            let fixture = make_fs(baseline, scale.device_bytes());
            for pattern in IoPattern::ALL {
                let r = io_patterns::run_pattern(&fixture.fs, pattern, &io).unwrap();
                base_results.push((pattern, r.kops_per_sec()));
            }
        }
        for (pattern, kops) in &base_results {
            rows.push(vec![
                group.to_string(),
                baseline.label().to_string(),
                pattern.label().to_string(),
                format!("{kops:.1} kops/s"),
                "1.00x".to_string(),
            ]);
        }
        for other in others {
            let fixture = make_fs(other, scale.device_bytes());
            for (pattern, base_kops) in &base_results {
                let r = io_patterns::run_pattern(&fixture.fs, *pattern, &io).unwrap();
                rows.push(vec![
                    group.to_string(),
                    other.label().to_string(),
                    pattern.label().to_string(),
                    format!("{:.1} kops/s", r.kops_per_sec()),
                    format!("{:.2}x", r.kops_per_sec() / base_kops),
                ]);
            }
        }
    }
    rows
}

// ----------------------------------------------------------------------
// Figure 5 — relative software overhead in applications
// ----------------------------------------------------------------------

/// Reproduces Figure 5: file-system software overhead of YCSB Load A,
/// YCSB Run A and TPC-C, relative to the SplitFS mode providing the same
/// guarantees (lower is better; SplitFS is 1.0 by construction).
pub fn fig5(scale: Scale) -> Vec<Row> {
    let groups: [(&str, FsKind, Vec<FsKind>); 3] = [
        ("POSIX", FsKind::SplitPosix, vec![FsKind::Ext4Dax]),
        (
            "sync",
            FsKind::SplitSync,
            vec![FsKind::Pmfs, FsKind::NovaRelaxed],
        ),
        ("strict", FsKind::SplitStrict, vec![FsKind::NovaStrict]),
    ];
    let ycsb_config = YcsbRunConfig {
        record_count: scale.ycsb_records(),
        op_count: scale.ycsb_ops(),
        ..YcsbRunConfig::default()
    };
    let tpcc_config = TpccConfig::default();

    let overheads = |fs: &Arc<dyn FileSystem>| -> (f64, f64, f64) {
        let ycsb = appbench::run_ycsb(fs, YcsbWorkload::A, &ycsb_config).expect("ycsb");
        let tpcc = appbench::run_tpcc(fs, &tpcc_config, scale.tpcc_txns()).expect("tpcc");
        (
            ycsb.load.software_overhead_ns(),
            ycsb.run.software_overhead_ns(),
            tpcc.software_overhead_ns(),
        )
    };

    let mut rows = Vec::new();
    for (group, split_kind, baselines) in groups {
        let split = make_fs(split_kind, scale.device_bytes());
        let split_overheads = overheads(&split.fs);
        rows.push(vec![
            group.to_string(),
            split_kind.label().to_string(),
            "1.00x".into(),
            "1.00x".into(),
            "1.00x".into(),
        ]);
        for baseline in baselines {
            let fixture = make_fs(baseline, scale.device_bytes());
            let other = overheads(&fixture.fs);
            rows.push(vec![
                group.to_string(),
                baseline.label().to_string(),
                format!("{:.2}x", other.0 / split_overheads.0),
                format!("{:.2}x", other.1 / split_overheads.1),
                format!("{:.2}x", other.2 / split_overheads.2),
            ]);
        }
    }
    rows
}

// ----------------------------------------------------------------------
// Figure 6 — application throughput / runtime
// ----------------------------------------------------------------------

/// Reproduces Figure 6: data-intensive application throughput (YCSB A–F,
/// Redis SET, TPC-C) and metadata-heavy utility runtimes (git/tar/rsync),
/// for every file system grouped by guarantee class.  Throughput rows are
/// normalized to the group's baseline (higher is better); utility rows are
/// runtimes (lower is better).
pub fn fig6(scale: Scale) -> Vec<Row> {
    let groups: [(&str, FsKind, Vec<FsKind>); 3] = [
        ("POSIX", FsKind::Ext4Dax, vec![FsKind::SplitPosix]),
        (
            "sync",
            FsKind::Pmfs,
            vec![FsKind::NovaRelaxed, FsKind::SplitSync],
        ),
        ("strict", FsKind::NovaStrict, vec![FsKind::SplitStrict]),
    ];
    let ycsb_config = YcsbRunConfig {
        record_count: scale.ycsb_records(),
        op_count: scale.ycsb_ops(),
        ..YcsbRunConfig::default()
    };
    let tpcc_config = TpccConfig::default();

    let run_apps = |fs: &Arc<dyn FileSystem>| -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for wl in YcsbWorkload::ALL {
            let r = appbench::run_ycsb(fs, wl, &ycsb_config).expect("ycsb");
            if wl == YcsbWorkload::A {
                out.push(("YCSB Load A".to_string(), r.load.kops_per_sec()));
            }
            out.push((format!("YCSB Run {}", wl.label()), r.run.kops_per_sec()));
        }
        let redis = appbench::run_redis_set(fs, scale.redis_sets(), 100).expect("redis");
        out.push(("Redis SET".to_string(), redis.kops_per_sec()));
        let tpcc = appbench::run_tpcc(fs, &tpcc_config, scale.tpcc_txns()).expect("tpcc");
        out.push(("TPC-C".to_string(), tpcc.kops_per_sec()));
        out
    };

    let mut rows = Vec::new();
    for (group, baseline, others) in &groups {
        let base_fixture = make_fs(*baseline, scale.device_bytes());
        let base = run_apps(&base_fixture.fs);
        for (wl, kops) in &base {
            rows.push(vec![
                group.to_string(),
                baseline.label().to_string(),
                wl.clone(),
                format!("{kops:.1} kops/s"),
                "1.00x".to_string(),
            ]);
        }
        for other in others {
            let fixture = make_fs(*other, scale.device_bytes());
            let results = run_apps(&fixture.fs);
            for ((wl, kops), (_, base_kops)) in results.iter().zip(base.iter()) {
                rows.push(vec![
                    group.to_string(),
                    other.label().to_string(),
                    wl.clone(),
                    format!("{kops:.1} kops/s"),
                    format!("{:.2}x", kops / base_kops),
                ]);
            }
        }
    }

    // Metadata-heavy utilities (right half of Figure 6): runtimes in
    // simulated milliseconds, POSIX-class comparison.
    for kind in [FsKind::Ext4Dax, FsKind::NovaRelaxed, FsKind::SplitPosix] {
        let fixture = make_fs(kind, scale.device_bytes());
        let tree = scale.tree();
        let paths = utilities::build_tree(&fixture.fs, "/src", &tree).expect("tree");
        let git = utilities::git_like(&fixture.fs, "/src", &paths).expect("git");
        let tar = utilities::tar_like(&fixture.fs, &paths, "/archive.tar").expect("tar");
        let rsync = utilities::rsync_like(&fixture.fs, "/src", &paths, "/dst").expect("rsync");
        for result in [git, tar, rsync] {
            rows.push(vec![
                "utilities".to_string(),
                kind.label().to_string(),
                result.workload.clone(),
                format!("{:.2} ms", result.elapsed_ns / 1e6),
                String::new(),
            ]);
        }
    }
    rows
}

// ----------------------------------------------------------------------
// §5.3 — recovery time vs log entries
// ----------------------------------------------------------------------

/// Reproduces the recovery-time discussion of §5.3: time to replay an
/// operation log with an increasing number of valid entries.
pub fn recovery(scale: Scale) -> Vec<Row> {
    let entry_counts: &[u64] = match scale {
        Scale::Quick => &[100, 1_000, 5_000],
        Scale::Full => &[1_000, 10_000, 18_000, 50_000],
    };
    let mut rows = Vec::new();
    for &entries in entry_counts {
        // Persistence tracking stays on: this experiment crashes the device.
        let (device, kernel) = setup_device(scale.device_bytes(), true);
        // The daemon is disabled here on purpose: this experiment measures
        // how recovery cost scales with the number of *surviving* log
        // entries, and a background checkpoint would relink the staged
        // data and truncate the log mid-run.  The log keeps its default
        // size: replay must cost what was logged, not what the log could
        // hold, and a log sized to its contents would hide a recovery
        // that scans or clears the whole file.
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(4, 16 * 1024 * 1024)
            .without_daemon();
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).expect("splitfs");
        let fd = fs
            .open("/recover-me", vfs::OpenFlags::create())
            .expect("open");
        // Cache-line-sized appends, as in the paper's worst-case experiment.
        for i in 0..entries {
            fs.append(fd, &[i as u8; 64]).expect("append");
        }
        drop(fs);
        device.crash();

        let kernel2 = kernelfs::Ext4Dax::mount(Arc::clone(&device)).expect("mount");
        let start = device.clock().now_ns_f64();
        let report = splitfs::recover(&kernel2, &config).expect("recover");
        let elapsed_ms = (device.clock().now_ns_f64() - start) / 1e6;
        rows.push(vec![
            entries.to_string(),
            format!("{}", report.replayed),
            format!("{elapsed_ms:.2} ms"),
        ]);
    }
    rows
}

// ----------------------------------------------------------------------
// §5.10 — resource consumption
// ----------------------------------------------------------------------

/// Reproduces §5.10: DRAM used by U-Split bookkeeping and the number of
/// staging files / operation-log entries after a write-heavy run.
pub fn resources(scale: Scale) -> Vec<Row> {
    let (_device, kernel) = setup_device(scale.device_bytes(), false);
    let config = SplitConfig::new(Mode::Strict).with_staging(4, 16 * 1024 * 1024);
    let fs = SplitFs::new(Arc::clone(&kernel), config).expect("splitfs");
    let fs_dyn: Arc<dyn FileSystem> = Arc::clone(&fs) as Arc<dyn FileSystem>;

    let ycsb_config = YcsbRunConfig {
        record_count: scale.ycsb_records(),
        op_count: scale.ycsb_ops(),
        ..YcsbRunConfig::default()
    };
    appbench::run_ycsb(&fs_dyn, YcsbWorkload::A, &ycsb_config).expect("ycsb");

    let usage = fs.memory_usage();
    vec![
        vec!["cached files".into(), usage.cached_files.to_string()],
        vec!["staged extents".into(), usage.staged_extents.to_string()],
        vec!["mmap segments".into(), usage.mmap_segments.to_string()],
        vec![
            "approx DRAM".into(),
            format!("{:.2} MiB", usage.approx_bytes as f64 / (1024.0 * 1024.0)),
        ],
        vec!["oplog entries".into(), fs.oplog_entries().to_string()],
    ]
}

// ----------------------------------------------------------------------
// Crash-point fuzzing — oracle-checked recovery at sampled fences
// ----------------------------------------------------------------------

/// One campaign of [`crashfuzz_report`]: one mode under one crash policy.
#[derive(Debug, Clone)]
pub struct CrashFuzzCampaign {
    /// The SplitFS mode under test.
    pub mode: Mode,
    /// What the crash does to lines that were written but not fenced.
    pub policy: pmem::CrashPolicy,
    /// Whether the workload ran its async-ring phase.
    pub use_rings: bool,
    /// What the campaign explored and found.
    pub report: chaos::FuzzReport,
}

impl CrashFuzzCampaign {
    /// `mode/policy`, plus `+rings` when the ring phase ran.
    pub fn label(&self) -> String {
        let policy = match self.policy {
            pmem::CrashPolicy::LoseUnflushed => "lose-unflushed",
            pmem::CrashPolicy::KeepAll => "keep-all",
            pmem::CrashPolicy::TornWrites { .. } => "torn-writes",
        };
        let rings = if self.use_rings { "+rings" } else { "" };
        format!("{}/{policy}{rings}", self.mode.label())
    }
}

/// Everything the crash-point fuzzing experiment found.
#[derive(Debug, Clone)]
pub struct CrashFuzzReport {
    /// The seed that steered the workloads and the sampled fences.
    pub seed: u64,
    /// Strict lose-unflushed with rings, POSIX lose-unflushed and strict
    /// torn-writes, in that order.
    pub campaigns: Vec<CrashFuzzCampaign>,
    /// KeepAll vs LoseUnflushed classification of one strict point set.
    pub diff: chaos::DiffReport,
    /// Read-error propagation and containment.
    pub media: chaos::MediaFaultReport,
}

impl CrashFuzzReport {
    /// Sums one field of every campaign's report.
    pub fn total(&self, field: impl Fn(&chaos::FuzzReport) -> u64) -> u64 {
        self.campaigns.iter().map(|c| field(&c.report)).sum()
    }
}

/// The crash-point fuzzing experiment: enumerate every fence boundary
/// the concurrent crash-mix workload crosses, crash at a sampled set of
/// them per mode/policy, recover each image and hold it to the
/// declared-durability oracle plus fsck; then the differential
/// (KeepAll vs LoseUnflushed) classifier and the media-fault injection
/// round.  `crashfuzz_report_holds_the_ci_gate` asserts the acceptance
/// bar.  `CHAOS_SEED` steers the workload and the sampled boundaries;
/// `CRASHFUZZ_EXTENDED=1` switches to the nightly profile (several times
/// more points per mode).
pub fn crashfuzz_report(scale: Scale) -> CrashFuzzReport {
    use chaos::FuzzConfig;
    use pmem::CrashPolicy;

    let extended = std::env::var("CRASHFUZZ_EXTENDED")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let seed = chaos::chaos_seed(0xC4A0_5EED);
    let per_mode = match (scale, extended) {
        (Scale::Quick, false) => 120,
        (Scale::Quick, true) => 500,
        (Scale::Full, false) => 400,
        (Scale::Full, true) => 1500,
    };

    // Strict mode runs the ring phase too: drained batches go through the
    // same staging core as synchronous writes and must recover as clean.
    // POSIX mode has no log, so an awaited ring epoch promises no more
    // than the mode does; the ring phase promises file content and is
    // left out there.
    let configs = [
        (Mode::Strict, CrashPolicy::LoseUnflushed, true),
        (Mode::Posix, CrashPolicy::LoseUnflushed, false),
        (Mode::Strict, CrashPolicy::TornWrites { seed }, false),
    ];
    // Every campaign builds its own devices, so they run side by side.
    std::thread::scope(|scope| {
        let campaigns: Vec<_> = configs
            .into_iter()
            .map(|(mode, policy, use_rings)| {
                scope.spawn(move || {
                    let mut config = FuzzConfig::smoke(mode, seed);
                    config.policy = policy;
                    config.max_points = per_mode;
                    config.workload.use_rings = use_rings;
                    let report = chaos::fuzz::run(&config).expect("crashfuzz run");
                    CrashFuzzCampaign {
                        mode,
                        policy,
                        use_rings,
                        report,
                    }
                })
            })
            .collect();
        let strict = FuzzConfig::smoke(Mode::Strict, seed);
        let diff =
            chaos::fuzz::run_differential(&strict, per_mode / 3).expect("crashfuzz differential");
        let media = chaos::fuzz::run_media_faults(&strict).expect("crashfuzz media faults");
        CrashFuzzReport {
            seed,
            campaigns: campaigns
                .into_iter()
                .map(|c| c.join().expect("crashfuzz campaign panicked"))
                .collect(),
            diff,
            media,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full experiments are exercised by the harness; these smoke tests
    // keep the cheapest ones compiling and running correctly in CI, and
    // the crash-point fuzzer's gate runs in full.

    #[test]
    fn table1_orders_file_systems_as_the_paper_does() {
        let rows = table1(Scale::Quick);
        assert_eq!(rows.len(), 5);
        let append_ns: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // ext4 DAX (row 0) must be the slowest; SplitFS-POSIX (row 4) the
        // fastest — the central claim of Table 1.
        let ext4 = append_ns[0];
        let split_posix = append_ns[4];
        let split_strict = append_ns[3];
        assert!(
            ext4 > split_strict,
            "ext4 {ext4} vs SplitFS-strict {split_strict}"
        );
        assert!(
            split_strict >= split_posix,
            "strict {split_strict} vs posix {split_posix}"
        );
        assert!(
            ext4 / split_posix > 2.0,
            "SplitFS should be several times faster"
        );
    }

    #[test]
    fn recovery_scales_with_entries() {
        let rows = recovery(Scale::Quick);
        assert_eq!(rows.len(), 3);
        let replayed: Vec<u64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(replayed[0] > 0);
        assert!(replayed[2] > replayed[0]);
    }

    /// The crash-point fuzzer's acceptance bar, at the depth
    /// `CRASHFUZZ_EXTENDED` selects: ≥ 200 points across strict and POSIX,
    /// every recovered image clean under the oracle and fsck, no
    /// divergence the differential cannot classify, and every injected
    /// media fault surfaced on its own file only.
    #[test]
    fn crashfuzz_report_holds_the_ci_gate() {
        let report = crashfuzz_report(Scale::Quick);
        let replay = chaos::seed::replay_banner(report.seed);
        let violations: Vec<String> = report
            .campaigns
            .iter()
            .flat_map(|c| {
                c.report
                    .violations
                    .iter()
                    .map(|v| format!("{}: {v}", c.label()))
            })
            .collect();
        assert!(
            report.total(|r| r.points_explored) >= 200,
            "{replay}: {report:#?}"
        );
        assert!(violations.is_empty(), "{replay}: {violations:#?}");
        assert_eq!(
            report.total(|r| r.fsck_failures),
            0,
            "{replay}: {report:#?}"
        );
        for c in &report.campaigns {
            // Strict mode logs every staged write, through a ring or not;
            // POSIX mode logs none.
            assert_eq!(
                c.report.promise_counts.contains_key("oplog_committed"),
                c.mode == Mode::Strict,
                "{replay}: {c:#?}"
            );
        }
        assert_eq!(report.diff.unclassified, 0, "{replay}: {:?}", report.diff);
        assert_eq!(
            report.media.propagated, report.media.injected,
            "media faults swallowed: {:?}",
            report.media
        );
        assert!(
            report.media.contained,
            "a media fault bled into a neighbour file: {:?}",
            report.media
        );
    }
}
