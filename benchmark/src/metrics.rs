//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names (a test below holds the two
//! together); README.md defines each one.

use std::collections::BTreeMap;

use obs::JsonObject;

use crate::run::Measured;
use crate::trace::{FS_METRIC_OPS, SPAN_NAMES};

/// The nine end-to-end metrics, the same on every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_kops", "kops/s"),
    ("cpu_ns_per_op", "ns"),
    ("op_p50_ns", "ns"),
    ("op_p95_ns", "ns"),
    ("sim_ns_per_op", "sim_ns"),
    ("sim_sw_ns_per_op", "sim_ns"),
    ("pm_write_amp", "ratio"),
    ("peak_rss_mib", "MiB"),
];

const LAYER_SCALARS: [(&str, &str); 54] = [
    ("splitfs.staging_inline_creates", "count"),
    ("splitfs.staging_bg_creates", "count"),
    ("splitfs.oplog_epoch_swaps", "count"),
    ("splitfs.oplog_group_commits_per_op", "1/op"),
    ("splitfs.relink_ops_per_fsync", "1/op"),
    ("splitfs.daemon_checkpoints", "count"),
    ("splitfs.checkpoint_stalls", "count"),
    ("splitfs.staging_lock_waits", "count"),
    ("splitfs.shard_lock_waits", "count"),
    ("splitfs.sim_oplog_ns_per_op", "sim_ns"),
    ("splitfs.dram_kib", "KiB"),
    ("splitfs.daemon_cpu_share", "ratio"),
    ("splitfs.long_run_misread_blocks", "count"),
    ("splitfs.long_run_sim_ns_per_op", "sim_ns"),
    ("splitfs.long_run_failed_recoveries", "count"),
    ("splitfs.recover_ms", "ms"),
    ("splitfs.replayed_entries", "count"),
    ("kernelfs.traps_per_op", "1/op"),
    ("kernelfs.journal_txns_per_op", "1/op"),
    ("kernelfs.relink_ops_per_batch", "ratio"),
    ("kernelfs.page_faults_per_op", "1/op"),
    ("kernelfs.path_cache_hit_rate", "ratio"),
    ("kernelfs.ns_shard_lock_waits", "count"),
    ("kernelfs.sim_meta_journal_ns_per_op", "sim_ns"),
    ("kernelfs.mount_ms", "ms"),
    ("kernelfs.direct_host_ns_per_op", "ns"),
    ("kernelfs.direct_sim_ns_per_op", "sim_ns"),
    ("kernelfs.direct_sim_sw_x", "ratio"),
    ("pmem.fences_per_op", "1/op"),
    ("pmem.flushes_per_op", "1/op"),
    ("pmem.bytes_written_per_op", "B/op"),
    ("pmem.bytes_read_per_op", "B/op"),
    ("pmem.sim_userdata_ns_per_op", "sim_ns"),
    ("pmem.sim_software_ns_per_op", "sim_ns"),
    ("pmem.floor_host_ns_per_op", "ns"),
    ("pmem.floor_tracked_host_ns_per_op", "ns"),
    ("pmem.crash_ms", "ms"),
    ("apps.put.host_p50_ns", "ns"),
    ("apps.put.host_p95_ns", "ns"),
    ("apps.get.host_p50_ns", "ns"),
    ("apps.get.host_p95_ns", "ns"),
    ("apps.self_share", "ratio"),
    ("apps.fs_calls_per_op", "1/op"),
    ("apps.flushes", "count"),
    ("apps.compactions", "count"),
    ("apps.long_run_wrong_gets", "count"),
    ("aio.ring_host_ns_per_op", "ns"),
    ("aio.ring_fences_per_op", "1/op"),
    ("vfs.traced_overhead_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.round_spread_pct", "%"),
    ("bench.host_speed", "ratio"),
    ("bench.timer_pair_ns", "ns"),
    ("bench.fail_share", "ratio"),
];

/// Every per-layer metric: four per spanned file-system op, then the scalars.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for name in &SPAN_NAMES[..FS_METRIC_OPS] {
        for (suffix, unit) in [
            ("calls", "count"),
            ("host_p50_ns", "ns"),
            ("host_p95_ns", "ns"),
            ("sim_ns", "sim_ns"),
        ] {
            all.push((format!("{name}.{suffix}"), unit));
        }
    }
    all.extend(LAYER_SCALARS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// Metric values by name.  A metric nobody set prints as 0: "does not apply
/// to this workload".
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line, in catalogue order.  Panics
    /// on a value whose name the catalogue does not have.
    fn to_json<'a>(&self, catalogue: impl Iterator<Item = (&'a str, &'a str)>) -> String {
        let mut known = 0;
        let mut obj = JsonObject::new();
        for (name, unit) in catalogue {
            known += self.0.contains_key(name) as usize;
            let metric = JsonObject::new()
                .f64("value", self.get(name))
                .str("unit", unit);
            obj = obj.raw(name, &metric.finish());
        }
        assert_eq!(
            known,
            self.0.len(),
            "a metric outside the catalogue was set"
        );
        obj.finish()
    }
}

/// The end-to-end metrics of a timed, untraced run (`setup_s` and
/// `peak_rss_mib` are added by the caller).  Host readings are medians over
/// the rounds of values scaled to the nominal host speed.
pub fn end_to_end(m: &Measured) -> Values {
    let mut v = Values::default();
    let ops = m.ops as f64;
    v.set("wall_kops", 1e6 / m.median(|r| r.wall_ns));
    v.set("cpu_ns_per_op", m.median(|r| r.cpu_ns));
    v.set("op_p50_ns", m.median(|r| r.p50_ns));
    v.set("op_p95_ns", m.median(|r| r.p95_ns));
    v.set("sim_ns_per_op", m.sim_ns / ops);
    v.set("sim_sw_ns_per_op", (m.sim_ns - m.sim_user_ns) / ops);
    v.set("pm_write_amp", m.dev.bytes_written / m.user_bytes as f64);
    v
}

/// The one-line JSON result the contract asks for.
pub fn result_line(traced: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics = if traced {
        let layer = per_layer();
        values.to_json(layer.iter().map(|(n, u)| (n.as_str(), *u)))
    } else {
        values.to_json(END_TO_END.iter().copied())
    };
    JsonObject::new()
        .raw("correct", if failed == 0 { "true" } else { "false" })
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the catalogue name the same metrics with the
    /// same units.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            text.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            ))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "end_to_end {name} ({unit}) missing");
        }
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        for (name, unit) in &layer {
            assert!(listed(name, unit), "per_layer {name} ({unit}) missing");
        }
        let names = text.matches("\"name\": \"").count();
        assert_eq!(names, 5 + END_TO_END.len() + layer.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let line = result_line(false, 10, 0, &v);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }
}
