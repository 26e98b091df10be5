//! IO-pattern microbenchmarks (paper §5.6, Figure 4, and the Figure 3 /
//! Table 1 append microbenchmark).
//!
//! Each benchmark performs 4 KiB operations over a single file: sequential
//! reads, random reads, sequential overwrites, random overwrites, and
//! appends.  Write benchmarks issue an `fsync` every `fsync_every`
//! operations (the paper uses every 10 for Figure 3 and at the end for
//! Table 1).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vfs::{FileSystem, FsResult, OpenFlags};

use crate::RunResult;

/// Operation size used by every pattern (the paper's unit).
pub const OP_SIZE: usize = 4096;

/// The five access patterns of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPattern {
    /// Read the file front to back in 4 KiB units.
    SequentialRead,
    /// Read 4 KiB units in random order.
    RandomRead,
    /// Overwrite the file front to back in 4 KiB units.
    SequentialWrite,
    /// Overwrite 4 KiB units in random order.
    RandomWrite,
    /// Append 4 KiB units to an initially empty file.
    Append,
}

impl IoPattern {
    /// All five patterns in the order Figure 4 lists them.
    pub const ALL: [IoPattern; 5] = [
        IoPattern::SequentialRead,
        IoPattern::RandomRead,
        IoPattern::SequentialWrite,
        IoPattern::RandomWrite,
        IoPattern::Append,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            IoPattern::SequentialRead => "seq-read",
            IoPattern::RandomRead => "rand-read",
            IoPattern::SequentialWrite => "seq-write",
            IoPattern::RandomWrite => "rand-write",
            IoPattern::Append => "append",
        }
    }

    /// Whether this pattern writes.
    pub fn is_write(self) -> bool {
        !matches!(self, IoPattern::SequentialRead | IoPattern::RandomRead)
    }
}

/// Parameters for one microbenchmark run.
#[derive(Debug, Clone)]
pub struct IoBenchConfig {
    /// Total bytes read or written (the paper uses a 128 MiB file).
    pub total_bytes: u64,
    /// Issue an `fsync` after this many write operations (0 = only at the
    /// end).
    pub fsync_every: u64,
    /// Path of the benchmark file.
    pub path: String,
    /// Random seed for the random patterns.
    pub seed: u64,
}

impl Default for IoBenchConfig {
    fn default() -> Self {
        Self {
            total_bytes: 128 * 1024 * 1024,
            fsync_every: 10,
            path: "/bench.dat".to_string(),
            seed: 7,
        }
    }
}

/// Runs one IO pattern against `fs`, returning ops + timing + stats.
pub fn run_pattern(
    fs: &Arc<dyn FileSystem>,
    pattern: IoPattern,
    config: &IoBenchConfig,
) -> FsResult<RunResult> {
    let ops = config.total_bytes / OP_SIZE as u64;

    // Pre-create the file for read/overwrite patterns (setup is not
    // measured).  Writing in 2 MiB chunks gives the allocator large,
    // huge-page-alignable extents, as a realistic file copy would.
    if pattern != IoPattern::Append {
        let fd = fs.open(&config.path, OpenFlags::create_truncate())?;
        let chunk = vec![0x5Au8; 2 * 1024 * 1024];
        let mut off = 0u64;
        while off < config.total_bytes {
            let n = chunk.len().min((config.total_bytes - off) as usize);
            fs.write_at(fd, off, &chunk[..n])?;
            off += n as u64;
        }
        fs.fsync(fd)?;
        fs.close(fd)?;
    } else if fs.exists(&config.path) {
        fs.unlink(&config.path)?;
    }

    let mut offsets: Vec<u64> = (0..ops).map(|i| i * OP_SIZE as u64).collect();
    if matches!(pattern, IoPattern::RandomRead | IoPattern::RandomWrite) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        offsets.shuffle(&mut rng);
    }

    let fd = fs.open(&config.path, OpenFlags::create())?;
    let mut buf = vec![0u8; OP_SIZE];
    let write_block: Vec<u8> = (0..OP_SIZE).map(|i| (i % 251) as u8).collect();

    // Measure only the benchmark loop.
    let result = RunResult::measure(fs, format!("io-{}", pattern.label()), ops, || {
        match pattern {
            IoPattern::SequentialRead | IoPattern::RandomRead => {
                for &off in &offsets {
                    fs.read_at(fd, off, &mut buf)?;
                }
            }
            IoPattern::SequentialWrite | IoPattern::RandomWrite => {
                for (i, &off) in offsets.iter().enumerate() {
                    fs.write_at(fd, off, &write_block)?;
                    if config.fsync_every > 0 && (i as u64 + 1).is_multiple_of(config.fsync_every) {
                        fs.fsync(fd)?;
                    }
                }
                if config.fsync_every > 0 {
                    fs.fsync(fd)?;
                }
            }
            IoPattern::Append => {
                for i in 0..ops {
                    fs.append(fd, &write_block)?;
                    if config.fsync_every > 0 && (i + 1) % config.fsync_every == 0 {
                        fs.fsync(fd)?;
                    }
                }
                if config.fsync_every > 0 {
                    fs.fsync(fd)?;
                }
            }
        }
        Ok(())
    })?;
    fs.close(fd)?;
    Ok(result)
}

/// The Table 1 microbenchmark: append 4 KiB blocks (128 MiB total by
/// default) with a single `fsync` at the end, and report the mean cost of
/// one append plus its software overhead above the raw device write.
pub fn append_software_overhead(
    fs: &Arc<dyn FileSystem>,
    total_bytes: u64,
) -> FsResult<AppendOverhead> {
    let config = IoBenchConfig {
        total_bytes,
        fsync_every: 0,
        path: "/append-overhead.dat".to_string(),
        seed: 1,
    };
    let result = run_pattern(fs, IoPattern::Append, &config)?;
    let device_write_ns = fs.device().cost().pm_write_cost(OP_SIZE);
    let per_op = result.ns_per_op();
    Ok(AppendOverhead {
        fs_name: result.fs_name.clone(),
        append_ns: per_op,
        overhead_ns: per_op - device_write_ns,
        overhead_pct: (per_op - device_write_ns) / device_write_ns * 100.0,
        device_write_ns,
    })
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct AppendOverhead {
    /// File-system name.
    pub fs_name: String,
    /// Mean simulated time per 4 KiB append.
    pub append_ns: f64,
    /// Software overhead above the raw device write.
    pub overhead_ns: f64,
    /// Overhead as a percentage of the raw device write.
    pub overhead_pct: f64,
    /// The raw 4 KiB device write cost (≈ 671 ns in the calibrated model).
    pub device_write_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelfs::Ext4Dax;
    use pmem::PmemBuilder;

    fn fs() -> Arc<dyn FileSystem> {
        let device = PmemBuilder::new(128 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Ext4Dax::mkfs(device).unwrap() as Arc<dyn FileSystem>
    }

    fn small_config() -> IoBenchConfig {
        IoBenchConfig {
            total_bytes: 2 * 1024 * 1024,
            fsync_every: 10,
            path: "/bench.dat".to_string(),
            seed: 3,
        }
    }

    #[test]
    fn every_pattern_runs_and_reports_ops() {
        let fs = fs();
        for pattern in IoPattern::ALL {
            let result = run_pattern(&fs, pattern, &small_config()).unwrap();
            assert_eq!(result.ops, 512, "pattern {pattern:?}");
            assert!(result.elapsed_ns > 0.0);
            assert!(result.kops_per_sec() > 0.0);
        }
    }

    #[test]
    fn random_reads_are_slower_than_sequential() {
        let fs = fs();
        let seq = run_pattern(&fs, IoPattern::SequentialRead, &small_config()).unwrap();
        let rand = run_pattern(&fs, IoPattern::RandomRead, &small_config()).unwrap();
        assert!(
            rand.ns_per_op() > seq.ns_per_op(),
            "random {} vs sequential {}",
            rand.ns_per_op(),
            seq.ns_per_op()
        );
    }

    #[test]
    fn append_overhead_reports_positive_software_cost() {
        let fs = fs();
        let row = append_software_overhead(&fs, 1024 * 1024).unwrap();
        assert!((row.device_write_ns - 671.0).abs() < 10.0);
        assert!(
            row.overhead_ns > 0.0,
            "kernel FS appends must have overhead"
        );
        assert!(row.append_ns > row.device_write_ns);
    }
}
