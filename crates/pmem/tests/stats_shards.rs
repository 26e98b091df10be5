//! The device's accounting is sharded per charging thread: each thread
//! adds into cells only it writes, and a snapshot sums them.  These tests
//! hold the sums to the exact totals of a known set of charges — across
//! threads, across a reset, and across devices made and dropped on one
//! thread — so that no charge is lost or counted twice.

use std::sync::Arc;

use pmem::{AccessPattern, PersistMode, PmemBuilder, PmemDevice, StatsSnapshot, TimeCategory};

const MIB: usize = 1024 * 1024;

/// Picoseconds one charge of `ns` adds: what the stats round it to.
fn ps(ns: f64) -> u64 {
    (ns * 1000.0).round() as u64
}

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(4 * MIB).track_persistence(false).build()
}

/// One round of mixed charges: a 64 B store, a 128 B read, a flush of
/// two lines, a fence, software time, and one of each kind of counter
/// recorder.  `at` keeps each thread on its own lines.
fn mixed_round(device: &PmemDevice, at: u64) {
    device.write(
        at,
        &[7u8; 64],
        PersistMode::NonTemporal,
        TimeCategory::OpLog,
    );
    let mut buf = [0u8; 128];
    device.read(at, &mut buf, AccessPattern::Random, TimeCategory::UserData);
    device.flush(at, 128, TimeCategory::Metadata);
    device.fence(TimeCategory::Journal);
    device.charge_software(3.25);
    let stats = device.stats();
    stats.add_kernel_trap();
    stats.add_page_faults(2);
    stats.add_batched_relink(3, 1);
}

/// The snapshot `rounds` mixed rounds add up to, and its time in
/// picoseconds.
fn expected(device: &PmemDevice, rounds: u64) -> (StatsSnapshot, u64) {
    let cost = device.cost();
    let mut time_ps = [0u64; 5];
    let mut charge = |cat: TimeCategory, ns: f64| time_ps[cat.index_in_all()] += rounds * ps(ns);
    charge(TimeCategory::OpLog, cost.pm_write_cost(64));
    charge(TimeCategory::UserData, cost.pm_read_cost(128, false));
    charge(TimeCategory::Metadata, 2.0 * cost.clwb_ns);
    charge(TimeCategory::Journal, cost.sfence_ns);
    charge(TimeCategory::Software, 3.25);
    let mut bytes_written = [0; 5];
    bytes_written[TimeCategory::OpLog.index_in_all()] = 64 * rounds;
    let mut bytes_read = [0; 5];
    bytes_read[TimeCategory::UserData.index_in_all()] = 128 * rounds;
    let snapshot = StatsSnapshot {
        time_ns: time_ps.map(|ps| ps as f64 / 1000.0),
        bytes_written,
        bytes_read,
        flushes: 2 * rounds,
        fences: rounds,
        kernel_traps: rounds,
        page_faults: 2 * rounds,
        batched_relinks: rounds,
        relink_batch_ops: 3 * rounds,
        relink_batch_copies: rounds,
        ..StatsSnapshot::default()
    };
    (snapshot, time_ps.iter().sum())
}

#[test]
fn charges_from_four_threads_sum_to_the_exact_totals() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 100_000;
    let device = device();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let device = Arc::clone(&device);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    mixed_round(&device, t * 4096);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let (want, want_ps) = expected(&device, THREADS * ROUNDS);
    assert_eq!(device.stats().snapshot(), want);
    assert_eq!(device.clock().now_ns_f64(), want_ps as f64 / 1000.0);

    // A thread registering after the workers exited folds their cells
    // into the retired total; nothing is lost or counted twice.
    let late = Arc::clone(&device);
    std::thread::spawn(move || mixed_round(&late, 0))
        .join()
        .unwrap();
    let (want, want_ps) = expected(&device, THREADS * ROUNDS + 1);
    assert_eq!(device.stats().snapshot(), want);
    assert_eq!(device.clock().now_ns_f64(), want_ps as f64 / 1000.0);
}

#[test]
fn after_a_reset_charges_count_from_zero() {
    let device = device();
    for _ in 0..10 {
        mixed_round(&device, 0);
    }
    device.stats().reset();
    assert_eq!(device.stats().snapshot(), StatsSnapshot::default());
    assert_eq!(device.clock().now_ns(), 0);
    let other = Arc::clone(&device);
    std::thread::spawn(move || mixed_round(&other, 4096))
        .join()
        .unwrap();
    for _ in 0..2 {
        mixed_round(&device, 0);
    }
    let (want, want_ps) = expected(&device, 3);
    assert_eq!(device.stats().snapshot(), want);
    assert_eq!(device.clock().now_ns_f64(), want_ps as f64 / 1000.0);
}

#[test]
fn devices_made_and_dropped_on_one_thread_count_only_their_own_charges() {
    for i in 1..=10u64 {
        let device = device();
        for _ in 0..i {
            mixed_round(&device, 0);
        }
        let (want, want_ps) = expected(&device, i);
        assert_eq!(device.stats().snapshot(), want, "device {i}");
        assert_eq!(
            device.clock().now_ns_f64(),
            want_ps as f64 / 1000.0,
            "device {i}"
        );
    }
}
