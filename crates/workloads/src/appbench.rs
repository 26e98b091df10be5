//! Application benchmark drivers (Figures 5, 6 and Table 7).
//!
//! These functions run the `apps` crate's LevelDB-like, SQLite-like and
//! Redis-like applications on any [`vfs::FileSystem`], measuring only the
//! workload phase (setup/load traffic can be measured separately by
//! requesting the load result) and returning [`RunResult`]s with the
//! simulated time and device statistics the experiment tables need.

use std::sync::Arc;

use apps::aof::{AofStore, FsyncPolicy};
use apps::lsm::{LsmConfig, LsmStore};
use vfs::{FileSystem, FsResult};

use crate::tpcc::{TpccConfig, TpccDriver};
use crate::ycsb::{YcsbGenerator, YcsbOp, YcsbWorkload};
use crate::RunResult;

/// Parameters for a YCSB-on-LSM run.
#[derive(Debug, Clone)]
pub struct YcsbRunConfig {
    /// Number of records loaded before the run phase.
    pub record_count: u64,
    /// Number of operations in the run phase.
    pub op_count: u64,
    /// Value size in bytes (YCSB default is 10 × 100 B fields).
    pub value_size: usize,
    /// LSM store configuration.
    pub lsm: LsmConfig,
    /// Random seed.
    pub seed: u64,
}

impl Default for YcsbRunConfig {
    fn default() -> Self {
        Self {
            record_count: 10_000,
            op_count: 10_000,
            value_size: 1000,
            lsm: LsmConfig::default(),
            seed: 42,
        }
    }
}

/// Result of the two YCSB phases.
#[derive(Debug, Clone)]
pub struct YcsbResult {
    /// The load phase (insert `record_count` records).
    pub load: RunResult,
    /// The run phase (`op_count` operations of the chosen workload).
    pub run: RunResult,
}

/// Runs one YCSB workload on the LSM store over `fs`.
pub fn run_ycsb(
    fs: &Arc<dyn FileSystem>,
    workload: YcsbWorkload,
    config: &YcsbRunConfig,
) -> FsResult<YcsbResult> {
    let mut generator = YcsbGenerator::new(
        workload,
        config.record_count,
        config.value_size,
        config.seed,
    );
    let mut store = LsmStore::open(Arc::clone(fs), config.lsm.clone())?;

    // Load phase.
    let keys: Vec<u64> = generator.load_keys().collect();
    let load = RunResult::measure(
        fs,
        format!("YCSB-{} load", workload.label()),
        config.record_count,
        || {
            for key in keys {
                let value = generator.value_for(key);
                store.put(&YcsbGenerator::format_key(key), &value)?;
            }
            store.flush_memtable()?;
            Ok(())
        },
    )?;

    // Run phase.
    let ops: Vec<YcsbOp> = (0..config.op_count).map(|_| generator.next_op()).collect();
    let run = RunResult::measure(
        fs,
        format!("YCSB-{} run", workload.label()),
        config.op_count,
        || {
            for op in ops {
                match op {
                    YcsbOp::Read(key) => {
                        store.get(&YcsbGenerator::format_key(key))?;
                    }
                    YcsbOp::Update(key, value) | YcsbOp::Insert(key, value) => {
                        store.put(&YcsbGenerator::format_key(key), &value)?;
                    }
                    YcsbOp::Scan(key, count) => {
                        store.scan(&YcsbGenerator::format_key(key), count)?;
                    }
                    YcsbOp::ReadModifyWrite(key, value) => {
                        let k = YcsbGenerator::format_key(key);
                        store.get(&k)?;
                        store.put(&k, &value)?;
                    }
                }
            }
            store.shutdown()?;
            Ok(())
        },
    )?;

    Ok(YcsbResult { load, run })
}

/// Runs `transactions` TPC-C-like transactions on the WAL database over
/// `fs`.  Setup (table population) is excluded from the measured result.
pub fn run_tpcc(
    fs: &Arc<dyn FileSystem>,
    config: &TpccConfig,
    transactions: u64,
) -> FsResult<RunResult> {
    let mut driver = TpccDriver::setup(Arc::clone(fs), config.clone())?;
    RunResult::measure(fs, "TPC-C", transactions, || {
        driver.run(transactions)?;
        driver.shutdown()?;
        Ok(())
    })
}

/// Runs `sets` Redis-like SET commands against the AOF store over `fs`
/// (the paper's "Set in Redis" workload: 1 M key-value pairs, AOF mode,
/// periodic fsync).
pub fn run_redis_set(fs: &Arc<dyn FileSystem>, sets: u64, fsync_every: u64) -> FsResult<RunResult> {
    let mut store = AofStore::open(
        Arc::clone(fs),
        "/redis.aof",
        FsyncPolicy::EveryN(fsync_every.max(1)),
    )?;
    RunResult::measure(fs, "Redis SET", sets, || {
        for i in 0..sets {
            store.set(&format!("key:{i:012}"), &format!("value-{i:032}"))?;
        }
        store.shutdown()?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelfs::Ext4Dax;
    use pmem::PmemBuilder;

    fn fs() -> Arc<dyn FileSystem> {
        let device = PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Ext4Dax::mkfs(device).unwrap() as Arc<dyn FileSystem>
    }

    fn tiny_ycsb() -> YcsbRunConfig {
        YcsbRunConfig {
            record_count: 200,
            op_count: 300,
            value_size: 100,
            lsm: LsmConfig {
                memtable_bytes: 32 * 1024,
                ..LsmConfig::default()
            },
            seed: 1,
        }
    }

    #[test]
    fn ycsb_a_runs_and_produces_throughput() {
        let fs = fs();
        let result = run_ycsb(&fs, YcsbWorkload::A, &tiny_ycsb()).unwrap();
        assert_eq!(result.load.ops, 200);
        assert_eq!(result.run.ops, 300);
        assert!(result.run.kops_per_sec() > 0.0);
        assert!(result.run.software_overhead_ns() > 0.0);
    }

    #[test]
    fn ycsb_e_scans_do_not_crash() {
        let fs = fs();
        let result = run_ycsb(&fs, YcsbWorkload::E, &tiny_ycsb()).unwrap();
        assert!(result.run.elapsed_ns > 0.0);
    }

    #[test]
    fn tpcc_runs_transactions() {
        let fs = fs();
        let config = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 10,
            items: 50,
            ..TpccConfig::default()
        };
        let result = run_tpcc(&fs, &config, 50).unwrap();
        assert_eq!(result.ops, 50);
        assert!(result.ns_per_op() > 0.0);
    }

    #[test]
    fn redis_sets_append_to_the_aof() {
        let fs = fs();
        let result = run_redis_set(&fs, 500, 50).unwrap();
        assert_eq!(result.ops, 500);
        assert!(fs.stat("/redis.aof").unwrap().size > 0);
    }
}
