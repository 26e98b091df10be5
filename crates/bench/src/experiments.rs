//! The experiments behind every table and figure of the paper's evaluation.
//!
//! Each function reproduces one table or figure: it builds the relevant
//! file-system configurations, runs the workload the paper describes, and
//! returns a typed [`Table`].  [`EXPERIMENTS`] lists them by name; the
//! `harness` binary walks that list (README.md lists the experiments).  The
//! paper's own numbers are recorded next to the constants they calibrate in
//! `pmem::CostModel`.

use std::sync::Arc;

use pmem::CostModel;
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::FileSystem;
use workloads::appbench::{self, YcsbRunConfig};
use workloads::io_patterns::{self, IoBenchConfig, IoPattern};
use workloads::tpcc::TpccConfig;
use workloads::utilities;
use workloads::varmail;
use workloads::ycsb::YcsbWorkload;

use crate::{make_fs, make_splitfs, reset_measurement, Cell, FsKind, Table, Unit};

/// An experiment: its name, what it reproduces, and the function that runs
/// it.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> Table);

/// Every experiment, in the order `harness all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 11] = [
    ("table1", "software overhead of a 4 KiB append (Table 1)", table1),
    ("table2", "cost-model constants vs paper Table 2", table2),
    ("table6", "system-call latencies, Varmail-like sequence (Table 6)", table6),
    ("table7", "SplitFS-strict vs Strata, YCSB on the LSM store (Table 7)", table7),
    ("fig3", "contribution of each SplitFS technique (Figure 3)", fig3),
    ("fig4", "IO-pattern throughput by guarantee class (Figure 4)", fig4),
    ("fig5", "relative software overhead in applications (Figure 5)", fig5),
    ("fig6", "application performance and utilities (Figure 6)", fig6),
    ("recovery", "operation-log replay time vs entries (§5.3)", recovery),
    ("resources", "U-Split DRAM footprint after a YCSB run (§5.10)", resources),
    ("crashfuzz", "crash-point fuzzing: oracle-checked recovery at sampled fence boundaries", crashfuzz),
];

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs so the whole suite finishes in a couple of minutes.
    Quick,
    /// Paper-sized inputs (128 MiB files, 10⁵-record YCSB, …).
    Full,
}

impl Scale {
    /// `quick` at quick scale, `full` at paper scale.
    fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    fn io_bytes(self) -> u64 {
        self.pick(16, 128) * 1024 * 1024
    }

    fn device_bytes(self) -> usize {
        self.pick(320, 1024) * 1024 * 1024
    }

    fn ycsb(self) -> YcsbRunConfig {
        let records = self.pick(3_000, 100_000);
        YcsbRunConfig {
            record_count: records,
            op_count: records,
            ..YcsbRunConfig::default()
        }
    }

    fn tpcc_txns(self) -> u64 {
        self.pick(300, 3_000)
    }

    fn redis_sets(self) -> u64 {
        self.pick(10_000, 200_000)
    }

    fn varmail_iterations(self) -> u64 {
        self.pick(50, 500)
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

/// Builds a fresh emulated device of `bytes` bytes with a formatted kernel
/// file system on it — the setup every hand-rolled experiment shares.
/// Persistence tracking (the crash-simulation line marks and undo store) stays off
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

/// A guarantee class of one figure: its name, the file system the others
/// are normalized to, and those others.  Each figure groups its own set.
type Class = (&'static str, FsKind, &'static [FsKind]);

/// One file system's results within its class: the class, the file
/// system, and `(label, value, value over the class reference's value of
/// the same label)`.
type ClassResults = (&'static str, FsKind, Vec<(String, f64, f64)>);

/// Runs `measure` on a fresh device for each class's reference, then for
/// each other member, and pairs every value with its ratio to the
/// reference's value of the same label (1 for the reference itself).
fn by_class(
    classes: &[Class],
    scale: Scale,
    measure: impl Fn(&Arc<dyn FileSystem>) -> Vec<(String, f64)>,
) -> Vec<ClassResults> {
    let mut out = Vec::new();
    for &(class, reference, others) in classes {
        let base = measure(&make_fs(reference, scale.device_bytes()).fs);
        let ones = base.iter().map(|(l, v)| (l.clone(), *v, 1.0)).collect();
        out.push((class, reference, ones));
        for &kind in others {
            let results = measure(&make_fs(kind, scale.device_bytes()).fs)
                .into_iter()
                .zip(&base)
                .map(|((label, value), (_, base))| (label, value, value / base))
                .collect();
            out.push((class, kind, results));
        }
    }
    out
}

/// One row per result: class, file system, label, throughput and its ratio
/// to the class reference (Figures 4 and 6).
fn throughput_rows(table: &mut Table, measured: Vec<ClassResults>) {
    for (class, kind, results) in measured {
        for (label, kops, ratio) in results {
            table.rows.push(vec![
                Cell::text(class),
                Cell::text(kind.label()),
                Cell::Text(label),
                Cell::Num(kops, 1, Unit::KopsPerSec),
                Cell::Num(ratio, 2, Unit::Ratio),
            ]);
        }
    }
}

/// Reproduces Table 1: the mean cost of a 4 KiB append and its software
/// overhead over the raw device write, for the five file systems the paper
/// lists.  SplitFS runs daemon-off: the daemon's host-time ticks advance
/// the device clock the rows read, so a row would move between runs.
pub fn table1(scale: Scale) -> Table {
    let mut table = Table::new(
        "Table 1 — software overhead of appending a 4 KiB block",
        &[
            "File system",
            "Append (ns)",
            "Overhead (ns)",
            "Overhead (%)",
        ],
    );
    let bytes = scale.device_bytes();
    let split = |mode| make_splitfs(SplitConfig::new(mode).without_daemon(), bytes);
    for kind in [
        FsKind::Ext4Dax,
        FsKind::Pmfs,
        FsKind::NovaStrict,
        FsKind::SplitStrict,
        FsKind::SplitPosix,
    ] {
        let fixture = match kind {
            FsKind::SplitStrict => split(Mode::Strict),
            FsKind::SplitPosix => split(Mode::Posix),
            _ => make_fs(kind, bytes),
        };
        let row = io_patterns::append_software_overhead(&fixture.fs, scale.io_bytes())
            .expect("append overhead run");
        table.rows.push(vec![
            Cell::text(kind.label()),
            Cell::Bare(row.append_ns, 0, Unit::Ns),
            Cell::Bare(row.overhead_ns, 0, Unit::Ns),
            Cell::Num(row.overhead_pct, 0, Unit::Percent),
        ]);
    }
    table
}

/// Reproduces Table 2: the calibrated device cost model next to the
/// paper's measured PM properties.  It runs nothing, at either scale.
pub fn table2(_scale: Scale) -> Table {
    let m = CostModel::calibrated();
    let ns = |value| Cell::Num(value, 0, Unit::Ns);
    let row = |property: &str, model, paper| vec![Cell::text(property), ns(model), paper];
    Table {
        title: "Table 2 — device cost model (calibrated to Izraelevitz et al.)",
        columns: &["Property", "Model value", "Paper value"],
        rows: vec![
            row(
                "Sequential read latency",
                m.pm_read_seq_latency_ns,
                ns(169.0),
            ),
            row("Random read latency", m.pm_read_rand_latency_ns, ns(305.0)),
            row(
                "4 KiB write",
                m.pm_write_cost(4096),
                Cell::text("671 ns (derived from Table 1)"),
            ),
            row(
                "Store + flush + fence",
                m.pm_write_cost(64) + m.persist_cost(1),
                ns(91.0),
            ),
        ],
    }
}

/// Reproduces Table 6: mean latency (µs) of each system call in the
/// Varmail-like sequence for the three SplitFS modes and ext4 DAX.
pub fn table6(scale: Scale) -> Table {
    let mut per_fs = Vec::new();
    for kind in [
        FsKind::SplitStrict,
        FsKind::SplitSync,
        FsKind::SplitPosix,
        FsKind::Ext4Dax,
    ] {
        let fixture = make_fs(kind, scale.device_bytes());
        reset_measurement(&fixture);
        per_fs.push(varmail::run(&fixture.fs, scale.varmail_iterations()).expect("varmail run"));
    }
    let mut table = Table::new(
        "Table 6 — system-call latency (us)",
        &["Syscall", "Strict", "Sync", "POSIX", "ext4 DAX"],
    );
    for (i, (call, _)) in per_fs[0].as_rows().into_iter().enumerate() {
        let mut row = vec![Cell::text(call)];
        row.extend(
            per_fs
                .iter()
                .map(|lat| Cell::Bare(lat.as_rows()[i].1, 2, Unit::Us)),
        );
        table.rows.push(row);
    }
    // The extra row the sharded namespace adds to Table 6: the full-path
    // lookup cache hit rate over the run (the second and third open of
    // each file and its unlink resolve in one hash probe).
    let mut row = vec![Cell::text("cache hit %")];
    row.extend(
        per_fs
            .iter()
            .map(|lat| Cell::Bare(lat.cache_hit_rate * 100.0, 1, Unit::Percent)),
    );
    table.rows.push(row);
    table
}

/// Reproduces Table 7: raw Strata throughput and SplitFS-strict throughput
/// normalized to it, for the scaled-down YCSB workloads.
pub fn table7(scale: Scale) -> Table {
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
    let config = scale.ycsb();
    let mut table = Table::new(
        "Table 7 — SplitFS-strict vs Strata (YCSB on the LSM store)",
        &["Workload", "Strata", "SplitFS (normalized)"],
    );
    for (label, workload, use_load) in workloads {
        let kops = |kind| {
            let fixture = make_fs(kind, scale.device_bytes());
            reset_measurement(&fixture);
            let r = appbench::run_ycsb(&fixture.fs, workload, &config).expect("ycsb");
            if use_load { r.load } else { r.run }.kops_per_sec()
        };
        let strata = kops(FsKind::Strata);
        let split = kops(FsKind::SplitStrict);
        table.rows.push(vec![
            Cell::text(label),
            Cell::Num(strata, 1, Unit::KopsPerSec),
            Cell::Num(split / strata, 2, Unit::Ratio),
        ]);
    }
    table
}

/// Reproduces Figure 3: 4 KiB sequential overwrites and 4 KiB appends
/// (fsync every 10 operations) on ext4 DAX and on SplitFS-POSIX with the
/// techniques enabled one after another: split architecture only, plus
/// staging, plus relink.  Values are throughput normalized to ext4 DAX.
pub fn fig3(scale: Scale) -> Table {
    let configs = [
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
    let mut results = Vec::new();
    for (label, config) in configs {
        let fixture = match config {
            None => make_fs(FsKind::Ext4Dax, scale.device_bytes()),
            Some(c) => make_splitfs(c, scale.device_bytes()),
        };
        let overwrite =
            io_patterns::run_pattern(&fixture.fs, IoPattern::SequentialWrite, &io).unwrap();
        let append = io_patterns::run_pattern(&fixture.fs, IoPattern::Append, &io).unwrap();
        results.push((label, overwrite.kops_per_sec(), append.kops_per_sec()));
    }
    let (_, base_overwrite, base_append) = results[0];
    let mut table = Table::new(
        "Figure 3 — contribution of SplitFS techniques (normalized to ext4 DAX)",
        &["Configuration", "Sequential overwrites", "Appends"],
    );
    for (label, overwrite, append) in results {
        table.rows.push(vec![
            Cell::text(label),
            Cell::Num(overwrite / base_overwrite, 2, Unit::Ratio),
            Cell::Num(append / base_append, 2, Unit::Ratio),
        ]);
    }
    table
}

/// Reproduces Figure 4: throughput of the five IO patterns for every file
/// system, normalized to the baseline of its guarantee class (ext4 DAX for
/// POSIX, PMFS for sync, NOVA-strict for strict).
pub fn fig4(scale: Scale) -> Table {
    const CLASSES: [Class; 3] = [
        ("POSIX", FsKind::Ext4Dax, &[FsKind::SplitPosix]),
        ("sync", FsKind::Pmfs, &[FsKind::SplitSync]),
        (
            "strict",
            FsKind::NovaStrict,
            &[FsKind::Strata, FsKind::SplitStrict],
        ),
    ];
    // §5.6: each benchmark reads/writes the whole file in 4 KiB units; no
    // periodic fsync is part of the measured loop.
    let io = IoBenchConfig {
        total_bytes: scale.io_bytes(),
        fsync_every: 0,
        ..IoBenchConfig::default()
    };
    let measured = by_class(&CLASSES, scale, |fs| {
        IoPattern::ALL
            .into_iter()
            .map(|pattern| {
                let r = io_patterns::run_pattern(fs, pattern, &io).unwrap();
                (pattern.label().to_string(), r.kops_per_sec())
            })
            .collect()
    });
    let mut table = Table::new(
        "Figure 4 — IO-pattern throughput by guarantee class",
        &[
            "Class",
            "File system",
            "Pattern",
            "Throughput",
            "vs baseline",
        ],
    );
    throughput_rows(&mut table, measured);
    table
}

/// Reproduces Figure 5: file-system software overhead of YCSB Load A,
/// YCSB Run A and TPC-C, relative to the SplitFS mode providing the same
/// guarantees (lower is better; SplitFS is 1.0 by construction).
pub fn fig5(scale: Scale) -> Table {
    const CLASSES: [Class; 3] = [
        ("POSIX", FsKind::SplitPosix, &[FsKind::Ext4Dax]),
        (
            "sync",
            FsKind::SplitSync,
            &[FsKind::Pmfs, FsKind::NovaRelaxed],
        ),
        ("strict", FsKind::SplitStrict, &[FsKind::NovaStrict]),
    ];
    let ycsb_config = scale.ycsb();
    let tpcc_config = TpccConfig::default();
    let measured = by_class(&CLASSES, scale, |fs| {
        let ycsb = appbench::run_ycsb(fs, YcsbWorkload::A, &ycsb_config).expect("ycsb");
        let tpcc = appbench::run_tpcc(fs, &tpcc_config, scale.tpcc_txns()).expect("tpcc");
        vec![
            ("YCSB Load A".into(), ycsb.load.software_overhead_ns()),
            ("YCSB Run A".into(), ycsb.run.software_overhead_ns()),
            ("TPC-C".into(), tpcc.software_overhead_ns()),
        ]
    });
    let mut table = Table::new(
        "Figure 5 — relative software overhead (lower is better, SplitFS = 1.0)",
        &["Class", "File system", "YCSB Load A", "YCSB Run A", "TPC-C"],
    );
    for (class, kind, results) in measured {
        let ratios = results.iter().map(|r| Cell::Num(r.2, 2, Unit::Ratio));
        let mut row = vec![Cell::text(class), Cell::text(kind.label())];
        row.extend(ratios);
        table.rows.push(row);
    }
    table
}

/// Reproduces Figure 6: data-intensive application throughput (YCSB A–F,
/// Redis SET, TPC-C) and metadata-heavy utility runtimes (git/tar/rsync),
/// for every file system grouped by guarantee class.  Throughput rows are
/// normalized to the group's baseline (higher is better); utility rows are
/// runtimes (lower is better).
pub fn fig6(scale: Scale) -> Table {
    const CLASSES: [Class; 3] = [
        ("POSIX", FsKind::Ext4Dax, &[FsKind::SplitPosix]),
        (
            "sync",
            FsKind::Pmfs,
            &[FsKind::NovaRelaxed, FsKind::SplitSync],
        ),
        ("strict", FsKind::NovaStrict, &[FsKind::SplitStrict]),
    ];
    let ycsb_config = scale.ycsb();
    let tpcc_config = TpccConfig::default();
    let measured = by_class(&CLASSES, scale, |fs| {
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
    });
    let mut table = Table::new(
        "Figure 6 — application performance",
        &["Class", "File system", "Workload", "Result", "vs baseline"],
    );
    throughput_rows(&mut table, measured);

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
            table.rows.push(vec![
                Cell::text("utilities"),
                Cell::text(kind.label()),
                Cell::Text(result.workload),
                Cell::Num(result.elapsed_ns / 1e6, 2, Unit::Ms),
                Cell::text(""),
            ]);
        }
    }
    table
}

/// Reproduces the recovery-time discussion of §5.3: time to replay an
/// operation log with an increasing number of valid entries.
pub fn recovery(scale: Scale) -> Table {
    let entry_counts: &[u64] = match scale {
        Scale::Quick => &[100, 1_000, 5_000],
        Scale::Full => &[1_000, 10_000, 18_000, 50_000],
    };
    let mut table = Table::new(
        "§5.3 — recovery time vs valid log entries",
        &["Log entries", "Replayed", "Recovery time"],
    );
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
        let config = SplitConfig::new(Mode::Strict).without_daemon();
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
        table.rows.push(vec![
            Cell::count(entries),
            Cell::count(report.replayed as u64),
            Cell::Num(elapsed_ms, 2, Unit::Ms),
        ]);
    }
    table
}

/// Reproduces §5.10: DRAM used by U-Split bookkeeping and the number of
/// staging files / operation-log entries after a write-heavy run.
pub fn resources(scale: Scale) -> Table {
    let (_device, kernel) = setup_device(scale.device_bytes(), false);
    let fs = SplitFs::new(Arc::clone(&kernel), SplitConfig::new(Mode::Strict)).expect("splitfs");
    let fs_dyn: Arc<dyn FileSystem> = Arc::clone(&fs) as Arc<dyn FileSystem>;
    appbench::run_ycsb(&fs_dyn, YcsbWorkload::A, &scale.ycsb()).expect("ycsb");

    let usage = fs.memory_usage();
    let count = |label: &str, n: usize| vec![Cell::text(label), Cell::count(n as u64)];
    Table {
        title: "§5.10 — resource consumption after YCSB-A on SplitFS-strict",
        columns: &["Metric", "Value"],
        rows: vec![
            count("cached files", usage.cached_files),
            count("staged extents", usage.staged_extents),
            count("mmap segments", usage.mmap_segments),
            vec![
                Cell::text("approx DRAM"),
                Cell::Num(usage.approx_bytes as f64 / (1024.0 * 1024.0), 2, Unit::MiB),
            ],
            vec![Cell::text("oplog entries"), Cell::count(fs.oplog_entries())],
        ],
    }
}

/// One campaign of [`crashfuzz_report`]: one mode under one crash policy.
#[derive(Debug, Clone)]
pub struct CrashFuzzCampaign {
    /// The mode, crash policy, workload and log size it ran.
    pub config: chaos::FuzzConfig,
    /// What the campaign explored and found.
    pub report: chaos::FuzzReport,
}

impl CrashFuzzCampaign {
    /// `mode/policy`, plus `+rings` when the ring phase ran and
    /// `+restart` when each trial's instance was a restart.
    pub fn label(&self) -> String {
        let policy = match self.config.policy {
            pmem::CrashPolicy::LoseUnflushed => "lose-unflushed",
            pmem::CrashPolicy::KeepAll => "keep-all",
            pmem::CrashPolicy::TornWrites { .. } => "torn-writes",
        };
        let rings = if self.config.workload.use_rings {
            "+rings"
        } else {
            ""
        };
        let restart = if self.config.prior_life {
            "+restart"
        } else {
            ""
        };
        format!("{}/{policy}{rings}{restart}", self.config.mode.label())
    }
}

/// Everything the crash-point fuzzing experiment found.
#[derive(Debug, Clone)]
pub struct CrashFuzzReport {
    /// The seed that steered the workloads and the sampled fences.
    pub seed: u64,
    /// Strict lose-unflushed with rings, POSIX lose-unflushed, strict
    /// torn-writes, sync lose-unflushed on a 4 KiB log and strict
    /// lose-unflushed after a crashed prior life, in that order.
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

    /// Points cut after each rare path ran, over every campaign.
    pub fn reach(&self) -> chaos::Reach {
        let mut reach = chaos::Reach::default();
        for c in &self.campaigns {
            reach.add(&c.report.reach);
        }
        reach
    }

    /// One row per campaign, then the differential, the media round and
    /// the totals.  The last four columns are the reach: how many of the
    /// points were cut after each rare path ran.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Crash-point fuzzing — oracle-checked recovery at sampled fence boundaries",
            &[
                "Campaign",
                "Fences",
                "Points",
                "Unreached",
                "Violations",
                "Fsck failures",
                "Promises checked",
                "Recycled",
                "Sealed",
                "Stalled",
                "Resumed",
                "Copied",
                "Discarded",
            ],
        );
        let dash = || Cell::text("-");
        let reach = |reach: &chaos::Reach| reach.rows().map(|(_, points)| Cell::count(points));
        for c in &self.campaigns {
            let r = &c.report;
            table.rows.push(
                [
                    Cell::Text(c.label()),
                    Cell::count(r.fences_enumerated),
                    Cell::count(r.points_explored),
                    Cell::count(r.points_unreached),
                    Cell::count(r.violations.len() as u64),
                    Cell::count(r.fsck_failures),
                    Cell::count(r.promises_checked),
                ]
                .into_iter()
                .chain(reach(&r.reach))
                .collect(),
            );
        }
        let diff = &self.diff;
        table.rows.push(vec![
            Cell::text("differential keep-all vs lose-unflushed"),
            dash(),
            Cell::count(diff.consistent + diff.missing_fence + diff.logic_bug + diff.unclassified),
            Cell::count(diff.skipped),
            Cell::count(diff.logic_bug),
            dash(),
            Cell::List(vec![
                Cell::Num(diff.missing_fence as f64, 0, Unit::Of("missing-fence")),
                Cell::Num(diff.unclassified as f64, 0, Unit::Of("unclassified")),
            ]),
            dash(),
            dash(),
            dash(),
            dash(),
            dash(),
            dash(),
        ]);
        let media = &self.media;
        table.rows.push(vec![
            Cell::text("media read-error ranges"),
            dash(),
            Cell::count(media.injected),
            Cell::count(0),
            Cell::count(media.injected - media.propagated),
            Cell::count(!media.contained as u64),
            Cell::text(if media.restored {
                "restored: true"
            } else {
                "restored: false"
            }),
            dash(),
            dash(),
            dash(),
            dash(),
            dash(),
            dash(),
        ]);
        let fences = self.campaigns.iter().map(|c| c.report.fences_enumerated);
        table.rows.push(
            [
                Cell::text("total"),
                Cell::count(fences.max().unwrap_or(0)),
                Cell::count(self.total(|r| r.points_explored)),
                Cell::count(self.total(|r| r.points_unreached)),
                Cell::count(self.total(|r| r.violations.len() as u64)),
                Cell::count(self.total(|r| r.fsck_failures)),
                Cell::count(self.total(|r| r.promises_checked)),
            ]
            .into_iter()
            .chain(reach(&self.reach()))
            .collect(),
        );
        table
    }
}

/// The crash-point fuzzing experiment as a table; each violation it found
/// also goes to stderr with its campaign.
pub fn crashfuzz(scale: Scale) -> Table {
    let report = crashfuzz_report(scale);
    for c in &report.campaigns {
        for violation in &c.report.violations {
            eprintln!("crashfuzz[{}] violation: {violation}", c.label());
        }
    }
    report.table()
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
    // left out there.  Sync mode fills a 4 KiB log with three times the
    // ops (writers wait on checkpoints, relinks find no room for their
    // markers), and samples a third as many of its dearer points.  The
    // restart campaign's trials each run the workload twice, a crashed
    // prior life and the cut one, so it too samples a third as many.
    let campaign = |mode, policy, use_rings| {
        let mut config = FuzzConfig::smoke(mode, seed);
        config.policy = policy;
        config.max_points = per_mode;
        config.workload.use_rings = use_rings;
        config
    };
    let mut sync = campaign(Mode::Sync, CrashPolicy::LoseUnflushed, false);
    sync.oplog_size = 4 * 1024;
    sync.max_points = per_mode / 3;
    sync.workload.ops_per_thread *= 3;
    let mut restart = campaign(Mode::Strict, CrashPolicy::LoseUnflushed, false);
    restart.prior_life = true;
    restart.max_points = per_mode / 3;
    let configs = [
        campaign(Mode::Strict, CrashPolicy::LoseUnflushed, true),
        campaign(Mode::Posix, CrashPolicy::LoseUnflushed, false),
        campaign(Mode::Strict, CrashPolicy::TornWrites { seed }, false),
        sync,
        restart,
    ];
    // Every campaign builds its own devices, so they run side by side.
    std::thread::scope(|scope| {
        let campaigns: Vec<_> = configs
            .into_iter()
            .map(|config| {
                scope.spawn(move || CrashFuzzCampaign {
                    report: chaos::fuzz::run(&config).expect("crashfuzz run"),
                    config,
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
        let rows = table1(Scale::Quick).rows;
        assert_eq!(rows.len(), 5);
        let append_ns: Vec<f64> = rows.iter().map(|r| r[1].value().unwrap()).collect();
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
        let rows = recovery(Scale::Quick).rows;
        assert_eq!(rows.len(), 3);
        let replayed: Vec<f64> = rows.iter().map(|r| r[1].value().unwrap()).collect();
        assert!(replayed[0] > 0.0);
        assert!(replayed[2] > replayed[0]);
    }

    /// The crash-point fuzzer's acceptance bar, at the depth
    /// `CRASHFUZZ_EXTENDED` selects: ≥ 200 points across strict, POSIX
    /// and sync, some sync points cut after a writer waited on a
    /// checkpoint, every restart point cut after its start resumed a
    /// staging file, each rare path of the reach reached at 5 points or
    /// more unless it is listed unreached with its reason, every
    /// recovered image clean under the oracle and fsck, no divergence the
    /// differential cannot classify, and every injected media fault
    /// surfaced on its own file only.
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
            // Strict and sync mode log every staged write, through a ring
            // or not; POSIX mode logs none.
            assert_eq!(
                c.report.promise_counts.contains_key("oplog_committed"),
                c.config.mode != Mode::Posix,
                "{replay}: {c:#?}"
            );
        }
        // The sync campaign's log fills before some of its points.
        let sync = &report.campaigns[3];
        assert!(
            sync.report.reach.checkpoint_stall > 0,
            "{replay}: {sync:#?}"
        );
        // Every restart point is cut in a life whose start resumed its
        // active staging file.
        let restart = &report.campaigns[4];
        assert_eq!(
            restart.report.reach.resumed_adoption, restart.report.points_explored,
            "{replay}: {restart:#?}"
        );
        // Paths no campaign can reach, and why.
        const UNREACHED: [(&str, &str); 2] = [
            (
                "staging-file recycle",
                "every trial runs with the daemon off, and only its tick recycles",
            ),
            (
                "staged discard",
                "a file's state is dropped only at its last close or unlink, \
                 and close relinks its staged bytes first",
            ),
        ];
        for (path, points) in report.reach().rows() {
            match UNREACHED.iter().find(|(p, _)| *p == path) {
                Some((_, why)) => assert_eq!(points, 0, "{replay}: {path} is reached now ({why})"),
                None => assert!(points >= 5, "{replay}: {path} at {points} points"),
            }
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
