//! Fixed-work, two-clock benchmark of the SplitFS reproduction.
//!
//! One process runs one `(workload, seed)`: it builds the op list, sets the
//! stack up, runs the list, checks every result against a model and prints
//! the metrics, the last line of standard output being one JSON object.
//! See README.md for the workloads, the metrics and the noise protocol.

mod est;
mod gen;
mod host;
mod layers;
mod metrics;
mod run;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gen::{Plan, Scale, Workload};
use metrics::Values;
use run::{measure, FsTarget, KvTarget, Measured, Stack, Target, Wrap};
use trace::TraceStore;

/// Set-ups per run: untimed ones first, then the timed ones `setup_s` is the
/// median of; the last one is used.
const SETUPS: (usize, usize) = (2, 5);

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>] \
         [--smoke] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("no workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            // Accepted for the driver's sake and checked, but never used to
            // size the work: a (workload, seed) pair always runs the same ops.
            "--seconds" => {
                value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => scale = Scale::Smoke,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
        scale,
        out,
    })
}

/// Sets a stack up `warm + timed` times, one after the other (the previous
/// one is torn down first, so peak memory is one stack), and keeps the last.
/// The first `warm` are not timed: a fresh process gets its first few hundred
/// MiB from the kernel page by page and only then reuses its heap
/// (`host::pin_allocator`), and a median of a mix of the two does not repeat.
fn set_up_repeatedly<T>(warm: usize, timed: usize, build: impl Fn() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(timed);
    let mut last = None;
    for rep in 0..warm + timed {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        if rep >= warm {
            seconds.push(start.elapsed().as_secs_f64());
        }
    }
    (last.expect("at least one set-up"), est::median(&seconds))
}

/// What one run of the op list leaves behind.
struct Outcome {
    measured: Measured,
    setup_s: f64,
    failed: u64,
    /// Metrics only the target itself can report.
    extra: Values,
}

/// Sets the target up, runs the untimed warm-up ops and the first `rounds`
/// timed rounds, and lets `report` add what only the target knows.
fn run_target<T: Target>(
    plan: &Plan,
    rounds: usize,
    (warm, timed): (usize, usize),
    build: impl Fn() -> T,
    report: impl FnOnce(&mut T, &mut Values),
) -> Outcome {
    let (mut target, setup_s) = set_up_repeatedly(warm, timed, build);
    for &op in &plan.ops[..plan.warmup_ops] {
        target.exec(op);
    }
    let measured = measure(&mut target, plan, rounds);
    let mut extra = Values::default();
    report(&mut target, &mut extra);
    Outcome {
        measured,
        setup_s,
        failed: target.failed(),
        extra,
    }
}

fn run_list(plan: &Plan, wrap: Wrap, rounds: usize, setups: (usize, usize)) -> Outcome {
    if plan.workload == Workload::KvYcsbA {
        return run_target(
            plan,
            rounds,
            setups,
            || KvTarget::set_up(plan, wrap.clone()),
            |target, extra| {
                target.end_episode();
                if let Wrap::Span(trace) = &wrap {
                    layers::app_metrics(extra, target, trace);
                }
            },
        );
    }
    run_target(
        plan,
        rounds,
        setups,
        || FsTarget::set_up(plan, Stack::Split, wrap.clone()),
        |target, extra| {
            extra.set("splitfs.dram_kib", target.dram_kib());
            if plan.workload == Workload::CrashRecover {
                layers::crash_metrics(extra, target);
            }
        },
    )
}

fn print_table(values: &Values, names: impl Iterator<Item = (String, &'static str)>) {
    for (name, unit) in names {
        println!("{name:<40} {:>18.4} {unit}", values.get(&name));
    }
}

fn run(args: &Args) -> Result<String, String> {
    let plan = gen::plan(args.workload, args.seed, args.scale);
    let smoke = args.scale == Scale::Smoke;
    let setups = if smoke { (0, 2) } else { SETUPS };
    println!(
        "workload={} seed={} input_hash={:016x} ops={} rounds={}x{} trace={}",
        plan.workload.name(),
        args.seed,
        plan.input_hash,
        plan.timed().len(),
        plan.rounds(),
        plan.round_ops,
        args.trace as u8,
    );

    if !args.trace {
        let out = run_list(&plan, Wrap::Plain, plan.rounds(), setups);
        let mut values = metrics::end_to_end(&out.measured);
        values.set("setup_s", out.setup_s);
        values.set("peak_rss_mib", host::peak_rss_mib());
        println!(
            "host_speed={:.4} (host times below are scaled by it; unscaled wall_kops={:.4})",
            out.measured.median(|r| r.host_speed),
            1e6 / out.measured.median(|r| r.raw_wall_ns),
        );
        print_table(
            &values,
            metrics::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)),
        );
        return Ok(metrics::result_line(
            false,
            out.measured.ops,
            out.failed,
            &values,
        ));
    }

    // End-to-end metrics are never taken with tracing on.  The traced run
    // plays the whole list through `SpanFs`; an untraced run of its leading
    // quarter gives the tracing overhead and the twins their reference.
    let lead = (plan.rounds() / 4).max(1);
    let base = run_list(&plan, Wrap::Plain, lead, (0, 1));
    let trace = TraceStore::new();
    let traced = run_list(&plan, Wrap::Span(trace.clone()), plan.rounds(), (0, 1));
    let mut values = traced.extra;
    layers::from_run(&mut values, &traced.measured, &base.measured, &trace);
    let mut failed = base.failed + traced.failed;
    failed += layers::twins(&mut values, &plan, args.seed, lead, &base.measured);
    let attempted = traced.measured.ops;
    values.set("bench.fail_share", failed as f64 / attempted as f64);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let file = args
        .out
        .join(format!("trace-{}.json", plan.workload.name()));
    std::fs::write(
        &file,
        trace.to_json(plan.workload.name(), args.seed, plan.input_hash),
    )
    .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("trace written to {}", file.display());

    print_table(&values, metrics::per_layer().into_iter());
    Ok(metrics::result_line(true, attempted, failed, &values))
}

fn main() -> ExitCode {
    host::pin_allocator();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::Op;

    /// `cargo test` runs tests on parallel threads, and a starved maintenance
    /// worker changes what the foreground has to do itself: one run at a time.
    static ONE_RUN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke_run(workload: Workload, seed: u64) -> (u64, Outcome) {
        let _one = ONE_RUN.lock().unwrap_or_else(|e| e.into_inner());
        let plan = gen::plan(workload, seed, Scale::Smoke);
        let outcome = run_list(&plan, Wrap::Plain, plan.rounds(), (0, 1));
        (plan.input_hash, outcome)
    }

    /// Same seed: same hash, same work, same simulated metrics.
    #[test]
    fn same_seed_repeats_work_and_simulated_metrics() {
        for workload in [Workload::WalAppend, Workload::MetaChurn] {
            let (hash_a, a) = smoke_run(workload, 3);
            let (hash_b, b) = smoke_run(workload, 3);
            assert_eq!(hash_a, hash_b);
            assert_eq!((a.failed, b.failed), (0, 0), "{}", workload.name());
            assert_eq!(a.measured.ops, b.measured.ops);
            assert_eq!(a.measured.user_bytes, b.measured.user_bytes);
            let (va, vb) = (
                metrics::end_to_end(&a.measured),
                metrics::end_to_end(&b.measured),
            );
            // The daemon ticks on host time, so the match is close, not exact;
            // the smoke scale amortises its work over 1/50 of the ops.
            for name in ["sim_ns_per_op", "sim_sw_ns_per_op", "pm_write_amp"] {
                let (x, y) = (va.get(name), vb.get(name));
                assert!(x > 0.0 && (x - y).abs() / x < 0.01, "{name}: {x} vs {y}");
            }
        }
    }

    /// One timed life of `wal_append` stays inside the region U-Split reads
    /// back correctly (README, "Known failures", 2): every block of the
    /// segment, not only the eight the list samples.
    #[test]
    fn a_wal_append_life_reads_back_whole() {
        let _one = ONE_RUN.lock().unwrap_or_else(|e| e.into_inner());
        let plan = gen::plan(Workload::WalAppend, 5, Scale::Smoke);
        let mut target = FsTarget::set_up(&plan, Stack::Split, Wrap::Plain);
        for &op in plan.timed() {
            if matches!(op, Op::Close { .. }) {
                break;
            }
            target.exec(op);
        }
        assert_eq!(target.failed(), 0);
        assert_eq!(target.misread_chunks(), 0);
    }

    #[test]
    fn every_workload_is_correct_at_smoke_scale() {
        for workload in [
            Workload::InplaceRw,
            Workload::KvYcsbA,
            Workload::CrashRecover,
        ] {
            let (_, outcome) = smoke_run(workload, 2);
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            assert!(outcome.measured.ops > 0);
        }
    }
}
