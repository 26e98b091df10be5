//! Experiment harness: regenerates every table and figure of the SplitFS
//! paper's evaluation section on the emulated persistent-memory stack.
//!
//! ```text
//! cargo run --release -p bench --bin harness -- <experiment>... [--full]
//! ```
//!
//! An experiment is `all` or one of the names in `EXPERIMENTS` below,
//! which an unknown name prints with a line on each.  `--full` switches
//! from the quick sizes to paper-scale inputs.  `CHAOS_SEED` steers the
//! crashfuzz workload and sampled boundaries; `CRASHFUZZ_EXTENDED=1`
//! selects the nightly-depth crashfuzz profile.

use bench::experiments::{self, CrashFuzzReport, Row, Scale};
use bench::print_table;
use pmem::CostModel;

/// Every experiment, in the order `all` runs them, with what it
/// reproduces.
const EXPERIMENTS: [(&str, &str); 11] = [
    ("table1", "software overhead of a 4 KiB append (Table 1)"),
    ("table2", "cost-model constants vs paper Table 2"),
    (
        "table6",
        "system-call latencies, Varmail-like sequence (Table 6)",
    ),
    (
        "table7",
        "SplitFS-strict vs Strata, YCSB on the LSM store (Table 7)",
    ),
    ("fig3", "contribution of each SplitFS technique (Figure 3)"),
    (
        "fig4",
        "IO-pattern throughput by guarantee class (Figure 4)",
    ),
    (
        "fig5",
        "relative software overhead in applications (Figure 5)",
    ),
    ("fig6", "application performance and utilities (Figure 6)"),
    ("recovery", "operation-log replay time vs entries (§5.3)"),
    (
        "resources",
        "U-Split DRAM footprint after a YCSB run (§5.10)",
    ),
    (
        "crashfuzz",
        "crash-point fuzzing: oracle-checked recovery at sampled fence boundaries",
    ),
];

fn run(which: &str, scale: Scale) {
    match which {
        "table1" => print_table(
            "Table 1 — software overhead of appending a 4 KiB block",
            &[
                "File system",
                "Append (ns)",
                "Overhead (ns)",
                "Overhead (%)",
            ],
            &experiments::table1(scale),
        ),
        "table2" => {
            let m = CostModel::calibrated();
            print_table(
                "Table 2 — device cost model (calibrated to Izraelevitz et al.)",
                &["Property", "Model value", "Paper value"],
                &[
                    vec![
                        "Sequential read latency".into(),
                        format!("{} ns", m.pm_read_seq_latency_ns),
                        "169 ns".into(),
                    ],
                    vec![
                        "Random read latency".into(),
                        format!("{} ns", m.pm_read_rand_latency_ns),
                        "305 ns".into(),
                    ],
                    vec![
                        "4 KiB write".into(),
                        format!("{:.0} ns", m.pm_write_cost(4096)),
                        "671 ns (derived from Table 1)".into(),
                    ],
                    vec![
                        "Store + flush + fence".into(),
                        format!("{:.0} ns", m.pm_write_cost(64) + m.persist_cost(1)),
                        "91 ns".into(),
                    ],
                ],
            );
        }
        "table6" => print_table(
            "Table 6 — system-call latency (us)",
            &["Syscall", "Strict", "Sync", "POSIX", "ext4 DAX"],
            &experiments::table6(scale),
        ),
        "table7" => print_table(
            "Table 7 — SplitFS-strict vs Strata (YCSB on the LSM store)",
            &["Workload", "Strata", "SplitFS (normalized)"],
            &experiments::table7(scale),
        ),
        "fig3" => print_table(
            "Figure 3 — contribution of SplitFS techniques (normalized to ext4 DAX)",
            &["Configuration", "Sequential overwrites", "Appends"],
            &experiments::fig3(scale),
        ),
        "fig4" => print_table(
            "Figure 4 — IO-pattern throughput by guarantee class",
            &[
                "Class",
                "File system",
                "Pattern",
                "Throughput",
                "vs baseline",
            ],
            &experiments::fig4(scale),
        ),
        "fig5" => print_table(
            "Figure 5 — relative software overhead (lower is better, SplitFS = 1.0)",
            &["Class", "File system", "YCSB Load A", "YCSB Run A", "TPC-C"],
            &experiments::fig5(scale),
        ),
        "fig6" => print_table(
            "Figure 6 — application performance",
            &["Class", "File system", "Workload", "Result", "vs baseline"],
            &experiments::fig6(scale),
        ),
        "recovery" => print_table(
            "§5.3 — recovery time vs valid log entries",
            &["Log entries", "Replayed", "Recovery time"],
            &experiments::recovery(scale),
        ),
        "resources" => print_table(
            "§5.10 — resource consumption after YCSB-A on SplitFS-strict",
            &["Metric", "Value"],
            &experiments::resources(scale),
        ),
        "crashfuzz" => {
            let report = experiments::crashfuzz_report(scale);
            print_table(
                "Crash-point fuzzing — oracle-checked recovery at sampled fence boundaries",
                &[
                    "Campaign",
                    "Fences",
                    "Points",
                    "Unreached",
                    "Violations",
                    "Fsck failures",
                    "Promises checked",
                ],
                &crashfuzz_rows(&report),
            );
            for c in &report.campaigns {
                for violation in &c.report.violations {
                    eprintln!("crashfuzz[{}] violation: {violation}", c.label());
                }
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'; one of:");
            for (name, what) in EXPERIMENTS {
                eprintln!("  {name:<10} {what}");
            }
            eprintln!("  {:<10} everything above", "all");
            std::process::exit(2);
        }
    }
}

/// The crashfuzz table: one row per campaign, then the differential, the
/// media round and the totals.
fn crashfuzz_rows(report: &CrashFuzzReport) -> Vec<Row> {
    let mut rows: Vec<Row> = report
        .campaigns
        .iter()
        .map(|c| {
            let r = &c.report;
            vec![
                c.label(),
                r.fences_enumerated.to_string(),
                r.points_explored.to_string(),
                r.points_unreached.to_string(),
                r.violations.len().to_string(),
                r.fsck_failures.to_string(),
                r.promises_checked.to_string(),
            ]
        })
        .collect();
    let diff = &report.diff;
    rows.push(vec![
        "differential keep-all vs lose-unflushed".into(),
        "-".into(),
        (diff.consistent + diff.missing_fence + diff.logic_bug + diff.unclassified).to_string(),
        diff.skipped.to_string(),
        diff.logic_bug.to_string(),
        "-".into(),
        format!(
            "{} missing-fence, {} unclassified",
            diff.missing_fence, diff.unclassified
        ),
    ]);
    let media = &report.media;
    rows.push(vec![
        "media read-error ranges".into(),
        "-".into(),
        media.injected.to_string(),
        "0".into(),
        (media.injected - media.propagated).to_string(),
        (!media.contained as u64).to_string(),
        format!("restored: {}", media.restored),
    ]);
    let fences = report.campaigns.iter().map(|c| c.report.fences_enumerated);
    rows.push(vec![
        "total".into(),
        fences.max().unwrap_or(0).to_string(),
        report.total(|r| r.points_explored).to_string(),
        report.total(|r| r.points_unreached).to_string(),
        report.total(|r| r.violations.len() as u64).to_string(),
        report.total(|r| r.fsck_failures).to_string(),
        report.total(|r| r.promises_checked).to_string(),
    ]);
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    for experiment in which {
        if experiment == "all" {
            for (name, _) in EXPERIMENTS {
                run(name, scale);
            }
        } else {
            run(experiment, scale);
        }
    }
}
