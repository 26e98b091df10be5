//! Unified metrics export: one structure, one serializer.
//!
//! [`MetricsSnapshot`] folds the device's aggregate
//! [`StatsSnapshot`] counters together with the span recorder's per-op
//! latency percentiles, and renders the whole thing as a single JSON object — the payload
//! of the harness's `METRICS_JSON` lines that CI greps and gates on.
//!
//! Within one op's JSON object the scalar percentile fields are
//! emitted *before* the nested `events` object, so a shell pipeline
//! (`grep -o '"op":"appendv"[^}]*'`) can cut one op's scalars without
//! a JSON parser.

use pmem::{StatsSnapshot, TimeCategory};

use crate::json::{self, JsonObject};
use crate::span::{OpKind, Recorder, SpanEvent};

const CATS: usize = TimeCategory::ALL.len();

/// Latency and attribution summary for one op kind, extracted from the
/// recorder's merged histogram.
#[derive(Debug, Clone)]
pub struct OpMetrics {
    /// The operation kind.
    pub kind: OpKind,
    /// Spans recorded.
    pub count: u64,
    /// Mean span latency, simulated nanoseconds (exact).
    pub mean_ns: f64,
    /// Median span latency (histogram-quantized, ≲6% relative error).
    pub p50_ns: u64,
    /// 90th-percentile span latency.
    pub p90_ns: u64,
    /// 99th-percentile span latency.
    pub p99_ns: u64,
    /// 99.9th-percentile span latency.
    pub p999_ns: u64,
    /// Maximum span latency (exact).
    pub max_ns: u64,
    /// Simulated nanoseconds per [`TimeCategory`] inside these spans
    /// ([`TimeCategory::ALL`] order).
    pub cat_ns: [f64; CATS],
    /// Simulated lock-wait nanoseconds inside these spans (span time no
    /// category claims).
    pub wait_ns: f64,
    /// Event annotations, in [`SpanEvent::ALL`] order.
    pub events: [u64; SpanEvent::COUNT],
}

impl OpMetrics {
    /// Total span time: every category plus waits.
    pub fn total_ns(&self) -> f64 {
        self.cat_ns.iter().sum::<f64>() + self.wait_ns
    }

    /// The paper's software overhead inside these spans: span time
    /// minus user-data device time.
    pub fn software_overhead_ns(&self) -> f64 {
        self.total_ns() - self.cat_ns[TimeCategory::UserData.index_in_all()]
    }

    /// Renders this op's summary as a JSON object (scalar fields
    /// first, nested `events` last; see the module docs).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .str("op", self.kind.label())
            .u64("count", self.count)
            .f64("mean_ns", self.mean_ns)
            .u64("p50_ns", self.p50_ns)
            .u64("p90_ns", self.p90_ns)
            .u64("p99_ns", self.p99_ns)
            .u64("p999_ns", self.p999_ns)
            .u64("max_ns", self.max_ns);
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            obj = obj.f64(
                &format!("{}_ns", cat.label().replace('-', "_")),
                self.cat_ns[i],
            );
        }
        obj = obj.f64("wait_ns", self.wait_ns);
        let mut events = JsonObject::new();
        for (i, ev) in SpanEvent::ALL.iter().enumerate() {
            if self.events[i] > 0 {
                events = events.u64(ev.label(), self.events[i]);
            }
        }
        obj.raw("events", &events.finish()).finish()
    }
}

/// Everything one measured run produced, in one exportable structure.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// File-system configuration name (e.g. `"SplitFS-strict"`).
    pub fs_name: String,
    /// Worker threads the workload used.
    pub threads: usize,
    /// Per-op latency summaries, one per op kind that recorded spans.
    pub ops: Vec<OpMetrics>,
    /// The device's aggregate counters for the same window.
    pub stats: StatsSnapshot,
}

impl MetricsSnapshot {
    /// Builds a snapshot from a recorder's aggregates and the matching
    /// stats delta.
    pub fn new(
        fs_name: impl Into<String>,
        threads: usize,
        recorder: &Recorder,
        stats: StatsSnapshot,
    ) -> Self {
        let ops = recorder
            .aggregate()
            .into_iter()
            .map(|a| OpMetrics {
                kind: a.kind,
                count: a.hist.count(),
                mean_ns: a.hist.mean(),
                p50_ns: a.hist.percentile(0.50),
                p90_ns: a.hist.percentile(0.90),
                p99_ns: a.hist.percentile(0.99),
                p999_ns: a.hist.percentile(0.999),
                max_ns: a.hist.max(),
                cat_ns: a.cat_ns,
                wait_ns: a.wait_ns,
                events: a.events,
            })
            .collect();
        Self {
            fs_name: fs_name.into(),
            threads,
            ops,
            stats,
        }
    }

    /// Total spans recorded across every op kind.
    pub fn total_spans(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    /// The summary for one op kind, if it recorded any spans.
    pub fn op(&self, kind: OpKind) -> Option<&OpMetrics> {
        self.ops.iter().find(|o| o.kind == kind)
    }

    /// Sum of span-attributed time per category across every op kind
    /// ([`TimeCategory::ALL`] order) — the per-op breakdown's side of
    /// the reconciliation against [`StatsSnapshot::time_ns`].
    pub fn span_time_by_category(&self) -> [f64; CATS] {
        let mut out = [0.0; CATS];
        for op in &self.ops {
            for (total, ns) in out.iter_mut().zip(op.cat_ns.iter()) {
                *total += ns;
            }
        }
        out
    }

    /// Largest relative disagreement, across categories, between the
    /// span-attributed time and the aggregate stats time (`0.0` =
    /// perfect attribution).  Categories with less than `floor_ns` on
    /// both sides are skipped — relative error on ~zero time is noise.
    pub fn attribution_error(&self, floor_ns: f64) -> f64 {
        let spans = self.span_time_by_category();
        let mut worst = 0.0f64;
        for (span_ns, &agg) in spans.iter().zip(self.stats.time_ns.iter()) {
            if agg < floor_ns && *span_ns < floor_ns {
                continue;
            }
            let denom = agg.max(floor_ns);
            worst = worst.max((span_ns - agg).abs() / denom);
        }
        worst
    }

    /// Renders the whole snapshot as one JSON object — the payload of
    /// a `METRICS_JSON` line.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .str("experiment", "latency")
            .str("fs", &self.fs_name)
            .u64("threads", self.threads as u64)
            .u64("spans", self.total_spans())
            .raw("ops", &json::array(self.ops.iter().map(|o| o.to_json())));
        let mut time = JsonObject::new();
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            time = time.f64(cat.label(), self.stats.time_ns[i]);
        }
        obj = obj.raw("time_ns", &time.finish());
        let mut counters = JsonObject::new();
        for (name, value) in self.stats.counters() {
            counters = counters.u64(name, value);
        }
        obj.raw("counters", &counters.finish()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEvent;
    use pmem::SimClock;
    use std::sync::Arc;

    fn sample_snapshot() -> MetricsSnapshot {
        let rec = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            let rec = Arc::clone(&rec);
            scope.spawn(move || {
                for i in 0..100u64 {
                    let _g = rec.span(OpKind::Appendv);
                    SimClock::charge_thread_wait(10.0 + i as f64);
                    if i == 0 {
                        crate::span::event(SpanEvent::LaneSteal);
                    }
                }
            });
        });
        let stats = StatsSnapshot {
            time_ns: [100.0, 20.0, 10.0, 5.0, 40.0],
            ..StatsSnapshot::default()
        };
        MetricsSnapshot::new("SplitFS-strict", 4, &rec, stats)
    }

    #[test]
    fn snapshot_extracts_percentiles_and_serializes() {
        let snap = sample_snapshot();
        assert_eq!(snap.total_spans(), 100);
        let op = snap.op(OpKind::Appendv).expect("appendv recorded");
        assert!(op.p99_ns >= op.p50_ns);
        assert!(op.max_ns >= op.p999_ns);
        assert_eq!(op.events[SpanEvent::LaneSteal.index()], 1);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""experiment":"latency""#));
        assert!(json.contains(r#""fs":"SplitFS-strict""#));
        assert!(json.contains(r#""op":"appendv""#));
        assert!(json.contains(r#""p99_ns":"#));
        assert!(json.contains(r#""lane_steal":1"#));
        assert!(json.contains(r#""counters":{"#));
        // The grep contract: scalars reachable without a JSON parser.
        let cut = json
            .split(r#""op":"appendv""#)
            .nth(1)
            .unwrap()
            .split('}')
            .next()
            .unwrap();
        assert!(cut.contains(r#""p50_ns":"#));
        assert!(cut.contains(r#""p99_ns":"#));
    }

    #[test]
    fn counters_object_lists_the_counter_table_in_order() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let object = json
            .split(r#""counters":{"#)
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("counters object");
        let listed: Vec<&str> = object
            .split(',')
            .map(|pair| pair.split(':').next().unwrap().trim_matches('"'))
            .collect();
        let table: Vec<&str> = snap.stats.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn attribution_error_compares_span_and_aggregate_time() {
        let mut snap = sample_snapshot();
        // Span time was all waits, so category sums are ~zero and the
        // aggregate has real time: large disagreement.
        assert!(snap.attribution_error(1.0) > 0.5);
        // Force agreement and check it reports ~zero.
        let spans = snap.span_time_by_category();
        snap.stats.time_ns = spans;
        assert!(snap.attribution_error(1.0) < 1e-9);
    }
}
