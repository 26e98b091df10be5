//! One measured run in one structure.
//!
//! [`MetricsSnapshot`] folds the device's aggregate
//! [`StatsSnapshot`] counters together with the span recorder's per-op
//! aggregates, and checks the per-op time breakdown against the
//! aggregate ([`MetricsSnapshot::attribution_error`]).

use pmem::{StatsSnapshot, TimeCategory};

use crate::span::{OpAggregate, OpKind, Recorder};

const CATS: usize = TimeCategory::ALL.len();

/// Everything one measured run produced, in one exportable structure.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-op aggregates, one per op kind that recorded spans.
    pub ops: Vec<OpAggregate>,
    /// The device's aggregate counters for the same window.
    pub stats: StatsSnapshot,
}

impl MetricsSnapshot {
    /// Builds a snapshot from a recorder's aggregates and the matching
    /// stats delta.
    pub fn new(recorder: &Recorder, stats: StatsSnapshot) -> Self {
        Self {
            ops: recorder.aggregate(),
            stats,
        }
    }

    /// Total spans recorded across every op kind.
    pub fn total_spans(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    /// The summary for one op kind, if it recorded any spans.
    pub fn op(&self, kind: OpKind) -> Option<&OpAggregate> {
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
                        crate::span::event(SpanEvent::InlineCreate);
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
    fn snapshot_counts_spans_and_events() {
        let snap = sample_snapshot();
        assert_eq!(snap.total_spans(), 100);
        let op = snap.op(OpKind::Appendv).expect("appendv recorded");
        assert_eq!(op.count, 100);
        assert_eq!(op.events[SpanEvent::InlineCreate.index()], 1);
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
