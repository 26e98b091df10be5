//! The `harness` binary end to end: it prints a registered experiment's
//! table, and an unknown name lists every registered experiment and exits
//! with status 2.

use std::process::Command;

use bench::experiments::EXPERIMENTS;

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("run harness")
}

#[test]
fn table2_prints_its_title_header_and_four_rows() {
    let out = harness(&["table2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        [
            "",
            "## Table 2 — device cost model (calibrated to Izraelevitz et al.)",
            "",
            "| Property | Model value | Paper value |",
            "|---|---|---|",
            "| Sequential read latency | 169 ns | 169 ns |",
            "| Random read latency | 305 ns | 305 ns |",
            "| 4 KiB write | 671 ns | 671 ns (derived from Table 1) |",
            "| Store + flush + fence | 135 ns | 91 ns |",
        ]
    );
}

#[test]
fn an_unknown_name_lists_every_experiment_once_and_exits_2() {
    let out = harness(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let listed: Vec<&str> = stderr
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    let mut expected: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    expected.push("all");
    assert_eq!(listed, expected, "{stderr}");
}
