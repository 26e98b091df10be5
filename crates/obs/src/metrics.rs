//! One measured run in one structure.
//!
//! [`MetricsSnapshot`] folds the device's aggregate
//! [`StatsSnapshot`] counters together with the span recorder's per-op
//! latency percentiles, and checks the per-op time breakdown against
//! the aggregate ([`MetricsSnapshot::attribution_error`]).

use pmem::{StatsSnapshot, TimeCategory};

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
    /// Median span latency (histogram-quantized, ≲6% relative error).
    pub p50_ns: u64,
    /// 99th-percentile span latency.
    pub p99_ns: u64,
    /// 99.9th-percentile span latency.
    pub p999_ns: u64,
    /// Maximum span latency (exact).
    pub max_ns: u64,
    /// Simulated nanoseconds per [`TimeCategory`] inside these spans
    /// ([`TimeCategory::ALL`] order).
    pub cat_ns: [f64; CATS],
    /// Event annotations, in [`SpanEvent::ALL`] order.
    pub events: [u64; SpanEvent::COUNT],
}

/// Everything one measured run produced, in one exportable structure.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-op latency summaries, one per op kind that recorded spans.
    pub ops: Vec<OpMetrics>,
    /// The device's aggregate counters for the same window.
    pub stats: StatsSnapshot,
}

impl MetricsSnapshot {
    /// Builds a snapshot from a recorder's aggregates and the matching
    /// stats delta.
    pub fn new(recorder: &Recorder, stats: StatsSnapshot) -> Self {
        let ops = recorder
            .aggregate()
            .into_iter()
            .map(|a| OpMetrics {
                kind: a.kind,
                count: a.hist.count(),
                p50_ns: a.hist.percentile(0.50),
                p99_ns: a.hist.percentile(0.99),
                p999_ns: a.hist.percentile(0.999),
                max_ns: a.hist.max(),
                cat_ns: a.cat_ns,
                events: a.events,
            })
            .collect();
        Self { ops, stats }
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
        MetricsSnapshot::new(&rec, stats)
    }

    #[test]
    fn snapshot_extracts_percentiles() {
        let snap = sample_snapshot();
        assert_eq!(snap.total_spans(), 100);
        let op = snap.op(OpKind::Appendv).expect("appendv recorded");
        assert!(op.p99_ns >= op.p50_ns);
        assert!(op.max_ns >= op.p999_ns);
        assert_eq!(op.events[SpanEvent::LaneSteal.index()], 1);
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
