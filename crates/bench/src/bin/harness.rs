//! Experiment harness: regenerates every table and figure of the SplitFS
//! paper's evaluation section on the emulated persistent-memory stack.
//!
//! ```text
//! cargo run --release -p bench --bin harness -- <experiment>... [--full]
//! ```
//!
//! An experiment is `all` or one of the names in
//! `bench::experiments::EXPERIMENTS`, which an unknown name prints with a
//! line on each.  `--full` switches from the quick sizes to paper-scale
//! inputs.  The environment variables an experiment reads (`CHAOS_SEED`,
//! `CRASHFUZZ_EXTENDED`) are documented with it in `bench::experiments`.

use bench::experiments::{Scale, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let mut which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if which.is_empty() {
        which.push("all");
    }

    for wanted in which {
        let mut chosen = EXPERIMENTS
            .iter()
            .filter(|(name, ..)| wanted == "all" || *name == wanted)
            .peekable();
        if chosen.peek().is_none() {
            eprintln!("unknown experiment '{wanted}'; one of:");
            for (name, what, _) in EXPERIMENTS {
                eprintln!("  {name:<10} {what}");
            }
            eprintln!("  {:<10} everything above", "all");
            std::process::exit(2);
        }
        for (_, _, run) in chosen {
            print!("{}", run(scale));
        }
    }
}
