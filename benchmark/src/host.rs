//! Host-side clocks and memory readings (Linux).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc malloc's two adaptive thresholds for the life of the process.
///
/// Left alone, they move as 1 MiB device shards are freed and allocated
/// again: one set-up gets its memory from fresh `mmap`s (a page fault per
/// 4 KiB), the next from the heap, the one after from a heap that was just
/// trimmed — and set-up time differs by 2x from one to the next.  With both
/// pinned, blocks under 32 MiB always come from the heap and the heap is never
/// given back, so every set-up after the first reuses the same resident pages.
pub fn pin_allocator() {
    // SAFETY: `mallopt` only stores the two tunables; it is called once,
    // before any other thread exists.  Both parameters and values are within
    // the ranges glibc documents (32 MiB is its largest mmap threshold).
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    assert!(ok, "mallopt refused the thresholds");
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and both clock ids are defined there.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process, threads that have exited
/// included, so work moved onto a maintenance thread still shows.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Median cost in ns of one back-to-back `Instant::now()` pair: what every
/// sampled op latency and every span carries on top of the op itself.
pub fn timer_pair_ns() -> f64 {
    let mut pairs: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    pairs.sort_by(f64::total_cmp);
    pairs[pairs.len() / 2]
}
