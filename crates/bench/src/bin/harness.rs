//! Experiment harness: regenerates every table and figure of the SplitFS
//! paper's evaluation section on the emulated persistent-memory stack.
//!
//! ```text
//! cargo run --release -p bench --bin harness -- <experiment> [--full]
//!
//! experiments:
//!   table1     software overhead of a 4 KiB append (Table 1)
//!   table2     cost-model constants vs paper Table 2
//!   table6     system-call latencies, Varmail-like sequence (Table 6)
//!   table7     SplitFS-strict vs Strata, YCSB on the LSM store (Table 7)
//!   fig3       contribution of each SplitFS technique (Figure 3)
//!   fig4       IO-pattern throughput by guarantee class (Figure 4)
//!   fig5       relative software overhead in applications (Figure 5)
//!   fig6       application performance and utilities (Figure 6)
//!   recovery   operation-log replay time vs entries (§5.3)
//!   daemon     inline vs daemon-backed maintenance on concurrent appends
//!   scaling    WAL-per-shard saturation throughput at 1/2/4/8/16 threads
//!   vectored   N x append vs one appendv of N slices (fences, journal txns)
//!   multi      aggregate throughput at 1/2/4 U-Split instances on one kernel
//!   latency    per-op latency percentiles + software overhead (five FSes)
//!   openloop   async-ring offered-load sweep vs the synchronous baseline
//!   metadata   concurrent create/resolve scale-out at 1/2/4/8 threads
//!   resources  U-Split DRAM footprint after a YCSB run (§5.10)
//!   crashfuzz  crash-point fuzzing: oracle-checked recovery at sampled
//!              fence boundaries, differential triage, media faults
//!   all        everything above
//!
//! `--full` switches from the quick sizes to paper-scale inputs.
//! `CHAOS_SEED` steers the crashfuzz workload and sampled boundaries;
//! `CRASHFUZZ_EXTENDED=1` selects the nightly-depth crashfuzz profile.
//! ```

use bench::experiments::{self, Scale};
use bench::print_table;
use pmem::CostModel;

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
        "daemon" => print_table(
            "Background maintenance — inline vs daemon-backed append/fsync",
            &[
                "Configuration",
                "ns/append",
                "Inline creates",
                "BG creates",
                "Relink batches",
                "Ops/batch",
                "Group commits",
                "BG checkpoints",
            ],
            &experiments::daemon_maintenance(scale),
        ),
        "scaling" => {
            let report = experiments::scaling_report(scale);
            print_table(
                "Scaling — WAL-per-shard distinct-file appends (SplitFS-strict, lane per writer)",
                &[
                    "Threads",
                    "Throughput",
                    "vs 1 thread",
                    "Wall-clock",
                    "Staging lock waits",
                    "Lane steals",
                    "Shard lock waits",
                    "Epoch swaps",
                    "Epoch truncates",
                    "Log grows",
                    "Checkpoint stalls",
                    "Staging recycles",
                ],
                &report.rows,
            );
            // Machine-readable mirror of the table for the CI smoke gate.
            for line in &report.json {
                println!("SCALING_JSON {line}");
            }
        }
        "vectored" => print_table(
            "Vectored I/O — N x append vs one appendv of N slices",
            &[
                "File system",
                "Shape",
                "ns/record",
                "Fences/record",
                "Journal txns/record",
                "Log entries/record",
                "Group commits",
                "appendv calls",
            ],
            &experiments::vectored(scale),
        ),
        "multi" => print_table(
            "Multi-instance — N U-Split instances over one kernel file system",
            &[
                "Instances",
                "Aggregate",
                "vs 1 instance",
                "Wall-clock",
                "Lease acquires",
                "Lease releases",
                "Lease conflicts",
                "Epoch swaps",
                "Checkpoint stalls",
            ],
            &experiments::multi(scale),
        ),
        "latency" => {
            let report = experiments::latency_report(scale);
            print_table(
                "Latency — per-op percentiles on the closed-loop mixed workload (4 threads)",
                &[
                    "File system",
                    "Op",
                    "Count",
                    "p50",
                    "p90",
                    "p99",
                    "p999",
                    "max",
                    "SW overhead/op",
                ],
                &report.rows,
            );
            // Machine-readable mirror of the table for the CI smoke gate.
            for line in &report.json {
                println!("METRICS_JSON {line}");
            }
        }
        "openloop" => {
            print_table(
                "Open-loop rings — offered-load sweep on SplitFS-strict (4 threads)",
                &[
                    "In flight/thread",
                    "Completions",
                    "p50",
                    "p99",
                    "p999",
                    "Fences/op",
                    "Sync fences/op",
                    "Epoch violations",
                ],
                &experiments::openloop(scale),
            );
        }
        "metadata" => {
            let report = experiments::metadata_report(scale);
            print_table(
                "Metadata — concurrent create/resolve scale-out (SplitFS-strict, sharded namespace)",
                &[
                    "Threads",
                    "Creates",
                    "vs 1 thread",
                    "Resolves",
                    "Cache hit rate",
                    "NS shard waits",
                    "Cache invalidations",
                    "Consistency failures",
                ],
                &report.rows,
            );
            // Machine-readable mirror of the table for the CI smoke gate.
            for line in &report.json {
                println!("METADATA_JSON {line}");
            }
        }
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
                    "Mode",
                    "Policy",
                    "Fences",
                    "Points",
                    "Unreached",
                    "Violations",
                    "Fsck failures",
                    "Promises checked",
                ],
                &report.rows,
            );
            // Machine-readable mirror of the table for the CI smoke gate.
            for line in &report.json {
                println!("CRASHFUZZ_JSON {line}");
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "valid: table1 table2 table6 table7 fig3 fig4 fig5 fig6 recovery daemon scaling vectored multi latency openloop metadata resources crashfuzz all"
            );
            std::process::exit(2);
        }
    }
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

    let everything = [
        "table1",
        "table2",
        "table6",
        "table7",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "recovery",
        "daemon",
        "scaling",
        "vectored",
        "multi",
        "latency",
        "openloop",
        "metadata",
        "resources",
        "crashfuzz",
    ];
    for experiment in which {
        if experiment == "all" {
            for e in everything {
                run(e, scale);
            }
        } else {
            run(experiment, scale);
        }
    }
}
