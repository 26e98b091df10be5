//! Observability layer for the SplitFS reproduction.
//!
//! The paper's headline metric is *software overhead per operation*
//! (§5.7), but `pmem::stats` only reports it as a run-level aggregate.
//! This crate turns it into a per-operation distribution:
//!
//! * [`span`] — RAII **op spans**.  A [`Recorder`] hands out a
//!   [`SpanGuard`] per file-system operation; while the guard lives,
//!   every simulated-time charge the thread makes (via
//!   [`pmem::Stats::add_time`]) is attributed to the span's
//!   per-[`pmem::TimeCategory`] breakdown, and instrumentation points
//!   annotate the span with [`SpanEvent`]s (lane steal, inline create,
//!   epoch swap, ...).  Recording is thread-local and lock-free on the
//!   hot path: each thread owns a histogram shard it updates with plain
//!   relaxed atomics, and the only mutex is taken once per
//!   (thread, op-kind) at first use, never per operation.
//! * [`hist`] — **log-linear latency histograms** (HDR-style: 16
//!   sub-buckets per power of two, ≲6% relative error) with mergeable
//!   shards and p50/p90/p99/p999 extraction.
//! * [`metrics`] — [`MetricsSnapshot`] folds the device's
//!   [`pmem::StatsSnapshot`] counters together with the recorder's
//!   per-op percentiles into one structure, and reconciles the per-op
//!   time breakdown against the aggregate.
//! * [`json`] — the tiny ordered JSON writer the benchmark's result
//!   lines and trace files use.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod span;

pub use hist::Histogram;
pub use json::JsonObject;
pub use metrics::{MetricsSnapshot, OpMetrics};
pub use span::{event, OpKind, Recorder, SpanEvent, SpanGuard};
