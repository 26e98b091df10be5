//! Simulated time.
//!
//! All performance results in the reproduction are reported in *simulated
//! nanoseconds*: each device access and each modelled software action
//! charges a cost (from [`crate::cost::CostModel`]) to the device's
//! [`Stats`], one [`crate::TimeCategory`] at a time, and the [`SimClock`]
//! reads their sum.  This makes the experiments deterministic and
//! independent of the speed of the machine running the emulation, while
//! preserving the relative costs the paper measures on real persistent
//! memory.

use std::cell::Cell;
use std::sync::Arc;

use crate::stats::Stats;

thread_local! {
    /// Simulated picoseconds the current thread waited on contended
    /// locks.  See [`SimClock::charge_thread_wait`].
    static THREAD_WAIT_PICOS: Cell<u64> = const { Cell::new(0) };
}

/// A monotonically increasing simulated clock, in nanoseconds.
///
/// The clock is shared (via `Arc`) between the device, the file systems and
/// the workload drivers.  It keeps no total of its own: it reads the
/// simulated time charged to its [`Stats`] in every category since their
/// last [`Stats::reset`], in picoseconds, so that repeated tiny charges
/// (per-byte bandwidth costs) do not vanish to rounding.
#[derive(Debug)]
pub struct SimClock {
    stats: Arc<Stats>,
}

impl SimClock {
    /// Creates a clock that reads `stats`.
    pub fn new(stats: Arc<Stats>) -> Self {
        Self { stats }
    }

    /// Simulated nanoseconds of work performed **by the calling thread**
    /// (its own charges to any [`Stats`], plus waits recorded with
    /// [`SimClock::charge_thread_wait`]).  The global clock sums every
    /// thread's charges and therefore cannot distinguish serialized from
    /// parallel execution; per-thread time gives each thread's critical
    /// path, so a multi-threaded workload's simulated makespan is the
    /// maximum over its threads' deltas of this value.
    pub fn thread_time_ns() -> f64 {
        (Stats::thread_time_ps() + THREAD_WAIT_PICOS.with(Cell::get)) as f64 / 1000.0
    }

    /// Records `ns` simulated nanoseconds the calling thread spent blocked
    /// on a contended lock.  This extends only the thread's critical path
    /// ([`SimClock::thread_time_ns`]), not the global clock: the waited-for
    /// work was already charged globally by the thread performing it.
    /// Lock helpers measure the wait as the global-clock delta across the
    /// blocking acquisition — exactly the simulated work others got done
    /// while this thread could not proceed.
    pub fn charge_thread_wait(ns: f64) {
        if !ns.is_finite() || ns <= 0.0 {
            return;
        }
        THREAD_WAIT_PICOS.with(|t| t.set(t.get() + (ns * 1000.0).round() as u64));
    }

    /// Returns the current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.stats.time_ps() / 1000
    }

    /// Returns the current simulated time in fractional nanoseconds.
    pub fn now_ns_f64(&self) -> f64 {
        self.stats.time_ps() as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeCategory;

    /// A clock over fresh stats, and a charger of `ns` to them.
    fn clock() -> (SimClock, Arc<Stats>, impl Fn(f64)) {
        let stats = Arc::new(Stats::new());
        let charged = Arc::clone(&stats);
        let advance = move |ns| charged.add_time(TimeCategory::Software, ns);
        (SimClock::new(Arc::clone(&stats)), stats, advance)
    }

    #[test]
    fn advances_and_reads() {
        let (c, _, advance) = clock();
        assert_eq!(c.now_ns(), 0);
        advance(100.0);
        advance(0.5);
        advance(0.5);
        assert_eq!(c.now_ns(), 101);
    }

    #[test]
    fn fractional_charges_accumulate() {
        let (c, _, advance) = clock();
        for _ in 0..1000 {
            advance(0.001);
        }
        // 1000 * 0.001 ns = 1 ns, representable exactly in picoseconds.
        assert_eq!(c.now_ns(), 1);
    }

    #[test]
    fn ignores_invalid_charges() {
        let (c, _, advance) = clock();
        advance(-5.0);
        advance(f64::NAN);
        advance(f64::INFINITY);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn reset_zeroes_the_clock() {
        let (c, stats, advance) = clock();
        advance(42.0);
        stats.reset();
        assert_eq!(c.now_ns(), 0);
        advance(8.0);
        assert_eq!(c.now_ns(), 8);
    }

    #[test]
    fn concurrent_advances_are_not_lost() {
        let stats = Arc::new(Stats::new());
        let c = SimClock::new(Arc::clone(&stats));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let stats = Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    stats.add_time(TimeCategory::Software, 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now_ns(), 40_000);
    }
}
