//! Line-ceiling guard: the non-test lines in `crates/` may not grow past
//! [`CEILING`].
//!
//! Lines are counted the way ARCHITECTURE.md's mechanism audit counts
//! them: every `.rs` file under `crates/` outside a `tests` directory and
//! not named `*_tests.rs`, each of its lines up to its first line that
//! starts with `#[cfg(test)]`, comments included.  In shell:
//!
//! ```sh
//! for f in $(find crates -name '*.rs' -not -path '*/tests/*' -not -name '*_tests.rs'); do
//!   awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n+0 }' "$f"
//! done | awk '{ s += $1 } END { print s }'
//! ```
//!
//! A change that lowers the count lowers [`CEILING`] to match; a change
//! that raises it says what it adds, and why, where it raises it.  Run
//! `cargo test --release --test line_ceiling -- --nocapture` for the
//! per-crate totals.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The most non-test lines `crates/` may hold.
const CEILING: usize = 22_569;

/// Every counted file under `dir`.
fn counted_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "tests" {
                counted_files(&path, out);
            }
        } else if name.ends_with(".rs") && !name.ends_with("_tests.rs") {
            out.push(path);
        }
    }
}

#[test]
fn non_test_lines_in_crates_stay_under_the_ceiling() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    counted_files(&crates, &mut files);
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        let lines = text
            .lines()
            .take_while(|line| !line.starts_with("#[cfg(test)]"))
            .count();
        // The crate is the path up to its `src` directory.
        let name: Vec<String> = file
            .strip_prefix(&crates)
            .unwrap()
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .take_while(|c| c != "src")
            .collect();
        *per_crate.entry(name.join("/")).or_default() += lines;
    }
    let total: usize = per_crate.values().sum();
    for (name, lines) in &per_crate {
        println!("{name:>20} {lines:>6}");
    }
    println!("{:>20} {total:>6} (ceiling {CEILING})", "total");
    assert!(
        total <= CEILING,
        "{total} non-test lines in crates/, above the ceiling of {CEILING}"
    );
}
