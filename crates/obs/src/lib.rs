//! Observability layer for the SplitFS reproduction.
//!
//! The paper's headline metric is *software overhead per operation*
//! (§5.7), but `pmem::stats` only reports it as a run-level aggregate.
//! This crate attributes it to the operations that paid for it:
//!
//! * [`span`] — RAII **op spans**.  A [`Recorder`] hands out a
//!   [`SpanGuard`] per file-system operation; while the guard lives,
//!   every simulated-time charge the thread makes (via
//!   [`pmem::Stats::add_time`]) is attributed to the span's
//!   per-[`pmem::TimeCategory`] breakdown, and instrumentation points
//!   annotate the span with [`SpanEvent`]s (inline create, group
//!   commit, relink batch).  Recording is thread-local and lock-free on
//!   the hot path: each thread owns a shard per op kind that it updates
//!   with plain relaxed atomics, and the only mutex is taken once per
//!   (thread, op-kind) at first use, never per operation.
//! * [`metrics`] — [`MetricsSnapshot`] folds the device's
//!   [`pmem::StatsSnapshot`] counters together with the recorder's
//!   per-op aggregates into one structure, and reconciles the per-op
//!   time breakdown against the aggregate.
//! * [`json`] — the tiny ordered JSON writer the benchmark's result
//!   lines and trace files use.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod metrics;
pub mod span;

pub use json::JsonObject;
pub use metrics::MetricsSnapshot;
pub use span::{event, OpAggregate, OpKind, Recorder, SpanEvent, SpanGuard};
