//! RAII per-operation tracing spans.
//!
//! A [`Recorder`] hands out one [`SpanGuard`] per file-system operation
//! (the `vfs` tracing wrapper opens one around every trait method).
//! While the guard lives, the thread's simulated-time charges — tracked
//! per [`TimeCategory`] by a thread-local tee inside
//! [`pmem::Stats::add_time`] — accrue to the span, and instrumentation
//! points inside the file systems annotate it with [`SpanEvent`]s via
//! [`event`].  When the guard drops, the span's count, per-category
//! simulated time and events are added to a shard owned by the
//! recording thread, so software overhead is attributed to the
//! operation that paid for it.
//!
//! **Nesting.**  Span state is thread-local and only the *outermost*
//! guard on a thread records; inner guards are passive.  An `appendv`
//! that falls into an inline staging create therefore charges the
//! create's time (and its [`SpanEvent::InlineCreate`] annotation) to
//! the `appendv` span — the operation the application actually paid
//! for.
//!
//! **Lock freedom.**  The hot path takes no lock: each thread owns one
//! `OpShard` per (recorder, op kind), found through a thread-local
//! cache and updated with relaxed atomic adds (the atomics exist only
//! so a reader can aggregate concurrently).  The recorder's registry
//! mutex is touched once per (thread, op kind) at shard creation,
//! never per operation — there is no new mutex on the append path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{Stats, TimeCategory};

/// The kind of file-system operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// `open` of an existing file.
    Open,
    /// `open` with the create flag (file birth).
    Create,
    /// `close`.
    Close,
    /// `read` / `read_at` (copying reads).
    Read,
    /// `read_view` (zero-copy reads).
    ReadView,
    /// `write` / `write_at`.
    Write,
    /// `writev_at` (vectored writes).
    WritevAt,
    /// Plain `append`.
    Append,
    /// `appendv` (vectored appends).
    Appendv,
    /// `fsync`.
    Fsync,
    /// `fsync_many` (batched durability).
    FsyncMany,
    /// `fdatasync`.
    Fdatasync,
    /// Background maintenance-daemon work (ticks, relinks, checkpoints).
    Maintenance,
    /// Draining async submission rings into a coalesced backend batch.
    RingDrain,
    /// Everything else (metadata ops: stat, rename, mkdir, readdir, ...).
    Other,
}

impl OpKind {
    /// Number of operation kinds.
    pub const COUNT: usize = 15;

    /// Every kind, in display order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Open,
        OpKind::Create,
        OpKind::Close,
        OpKind::Read,
        OpKind::ReadView,
        OpKind::Write,
        OpKind::WritevAt,
        OpKind::Append,
        OpKind::Appendv,
        OpKind::Fsync,
        OpKind::FsyncMany,
        OpKind::Fdatasync,
        OpKind::Maintenance,
        OpKind::RingDrain,
        OpKind::Other,
    ];

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case label used in tables and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Create => "create",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::ReadView => "read_view",
            OpKind::Write => "write",
            OpKind::WritevAt => "writev_at",
            OpKind::Append => "append",
            OpKind::Appendv => "appendv",
            OpKind::Fsync => "fsync",
            OpKind::FsyncMany => "fsync_many",
            OpKind::Fdatasync => "fdatasync",
            OpKind::Maintenance => "maintenance",
            OpKind::RingDrain => "ring_drain",
            OpKind::Other => "other",
        }
    }
}

/// A notable event inside an operation, annotated by the file systems'
/// instrumentation points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanEvent {
    /// Staging exhausted; the foreground created a staging file inline.
    InlineCreate,
    /// Several operation-log entries committed under one fence.
    GroupCommit,
    /// Multiple staged files relinked in one batched kernel transaction.
    RelinkBatch,
}

impl SpanEvent {
    /// Number of event kinds.
    pub const COUNT: usize = 3;

    /// Every event, in display order.
    pub const ALL: [SpanEvent; SpanEvent::COUNT] = [
        SpanEvent::InlineCreate,
        SpanEvent::GroupCommit,
        SpanEvent::RelinkBatch,
    ];

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable snake-case label used in dumps and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            SpanEvent::InlineCreate => "inline_create",
            SpanEvent::GroupCommit => "group_commit",
            SpanEvent::RelinkBatch => "relink_batch",
        }
    }
}

const CATS: usize = TimeCategory::ALL.len();

/// One thread's private accumulation state for one (recorder, op kind).
///
/// The owner thread updates it with relaxed atomic adds (no RMW
/// contention: no other thread ever writes); the recorder reads it when
/// aggregating.
#[derive(Default)]
struct OpShard {
    count: AtomicU64,
    /// Per-category simulated time inside spans, picoseconds.
    cat_ps: [AtomicU64; CATS],
    events: [AtomicU64; SpanEvent::COUNT],
}

/// Aggregated view of one op kind across every thread's shard.
#[derive(Debug, Clone)]
pub struct OpAggregate {
    /// The operation kind.
    pub kind: OpKind,
    /// Spans recorded.
    pub count: u64,
    /// Simulated nanoseconds spent per [`TimeCategory`] inside these
    /// spans, in [`TimeCategory::ALL`] order.
    pub cat_ns: [f64; CATS],
    /// Event annotation counts, in [`SpanEvent::ALL`] order.
    pub events: [u64; SpanEvent::COUNT],
}

struct ThreadSpan {
    depth: u32,
    start_cat_ns: [f64; CATS],
    events: [u64; SpanEvent::COUNT],
}

struct ThreadState {
    span: ThreadSpan,
    /// Cache of this thread's shards, keyed by (recorder id, kind).
    /// Linear scan: a thread touches at most a handful of recorders.
    cache: Vec<(u64, u8, Arc<OpShard>)>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            span: ThreadSpan {
                depth: 0,
                start_cat_ns: [0.0; CATS],
                events: [0; SpanEvent::COUNT],
            },
            cache: Vec::new(),
        })
    };
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// A per-run span recorder: the sink for every span opened against it
/// and the point its per-op aggregates are read from.
///
/// Cheap to share (`Arc`); create one per measured run so aggregates
/// cover exactly the measurement window.
pub struct Recorder {
    id: u64,
    /// Registry of every thread's shard, per op kind.  Locked only at
    /// shard creation (once per thread and kind) and at aggregation.
    shards: [Mutex<Vec<Arc<OpShard>>>; OpKind::COUNT],
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("id", &self.id).finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Opens a span of `kind`.  If the thread already has an open span
    /// (any recorder), the returned guard is passive: its time and
    /// events accrue to the outermost span.  Hold the guard for exactly
    /// the duration of the operation.
    pub fn span(self: &Arc<Self>, kind: OpKind) -> SpanGuard {
        let outermost = STATE.with(|s| {
            let mut s = s.borrow_mut();
            let span = &mut s.span;
            span.depth += 1;
            if span.depth == 1 {
                span.start_cat_ns = Stats::thread_category_time_ns();
                span.events = [0; SpanEvent::COUNT];
                true
            } else {
                false
            }
        });
        SpanGuard {
            recorder: if outermost {
                Some(Arc::clone(self))
            } else {
                None
            },
            kind,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Returns this thread's shard for `kind`, creating and registering
    /// it on first use.
    fn shard(&self, kind: OpKind, state: &mut ThreadState) -> Arc<OpShard> {
        let key = (self.id, kind.index() as u8);
        if let Some((_, _, shard)) = state.cache.iter().find(|(id, k, _)| (*id, *k) == key) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(OpShard::default());
        self.shards[kind.index()].lock().push(Arc::clone(&shard));
        state.cache.push((key.0, key.1, Arc::clone(&shard)));
        shard
    }

    /// Merges every thread's shards into one [`OpAggregate`] per op
    /// kind that recorded at least one span.  Call after the workload
    /// quiesces; concurrent recording is safe but the aggregate is then
    /// only approximate.
    pub fn aggregate(&self) -> Vec<OpAggregate> {
        let mut out = Vec::new();
        for kind in OpKind::ALL {
            let shards = self.shards[kind.index()].lock();
            if shards.is_empty() {
                continue;
            }
            let mut count = 0u64;
            let mut cat_ps = [0u64; CATS];
            let mut events = [0u64; SpanEvent::COUNT];
            for shard in shards.iter() {
                count += shard.count.load(Ordering::Relaxed);
                for (dst, src) in cat_ps.iter_mut().zip(shard.cat_ps.iter()) {
                    *dst += src.load(Ordering::Relaxed);
                }
                for (dst, src) in events.iter_mut().zip(shard.events.iter()) {
                    *dst += src.load(Ordering::Relaxed);
                }
            }
            if count == 0 {
                continue;
            }
            out.push(OpAggregate {
                kind,
                count,
                cat_ns: std::array::from_fn(|i| cat_ps[i] as f64 / 1000.0),
                events,
            });
        }
        out
    }
}

/// RAII guard for one operation span; created by [`Recorder::span`].
///
/// Dropping the outermost guard on a thread records the span; nested
/// guards only maintain the depth count.  The guard is intentionally
/// `!Send`: a span measures one thread's critical path.
#[must_use = "a span measures the time until the guard drops"]
pub struct SpanGuard {
    /// `Some` for the outermost guard (records on drop), `None` for
    /// passive nested guards.
    recorder: Option<Arc<Recorder>>,
    kind: OpKind,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("kind", &self.kind)
            .field("outermost", &self.recorder.is_some())
            .finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder.take() else {
            STATE.with(|s| {
                let span = &mut s.borrow_mut().span;
                span.depth = span.depth.saturating_sub(1);
            });
            return;
        };
        let end_cat_ns = Stats::thread_category_time_ns();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.span.depth = 0;
            let cat_ps: [u64; CATS] = std::array::from_fn(|i| {
                ((end_cat_ns[i] - s.span.start_cat_ns[i]).max(0.0) * 1000.0).round() as u64
            });
            let events = s.span.events;
            let shard = recorder.shard(self.kind, &mut s);
            shard.count.fetch_add(1, Ordering::Relaxed);
            for (dst, &src) in shard.cat_ps.iter().zip(cat_ps.iter()) {
                if src > 0 {
                    dst.fetch_add(src, Ordering::Relaxed);
                }
            }
            for (dst, &src) in shard.events.iter().zip(events.iter()) {
                if src > 0 {
                    dst.fetch_add(src, Ordering::Relaxed);
                }
            }
        });
    }
}

/// Annotates the current span (if any) with `event`.
///
/// Called from instrumentation points inside the file systems; costs a
/// thread-local increment — safe on the hottest paths.
pub fn event(event: SpanEvent) {
    STATE.with(|s| {
        let span = &mut s.borrow_mut().span;
        if span.depth > 0 {
            span.events[event.index()] += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemBuilder, SimClock};

    #[test]
    fn outermost_span_records_and_nested_is_passive() {
        let rec = Arc::new(Recorder::new());
        {
            let _outer = rec.span(OpKind::Appendv);
            {
                let _inner = rec.span(OpKind::Create);
                event(SpanEvent::InlineCreate);
            }
            event(SpanEvent::InlineCreate);
        }
        let aggs = rec.aggregate();
        assert_eq!(aggs.len(), 1, "only the outermost span records");
        let a = &aggs[0];
        assert_eq!(a.kind, OpKind::Appendv);
        assert_eq!(a.count, 1);
        assert_eq!(
            a.events[SpanEvent::InlineCreate.index()],
            2,
            "the nested span's event and the outer one's both land on the outermost"
        );
    }

    #[test]
    fn span_captures_category_time() {
        let device = PmemBuilder::new(1024 * 1024).build();
        let rec = Arc::new(Recorder::new());
        {
            let _g = rec.span(OpKind::Write);
            device.charge(TimeCategory::UserData, 500.0);
            device.charge(TimeCategory::Software, 250.0);
            SimClock::charge_thread_wait(125.0);
        }
        let aggs = rec.aggregate();
        let a = aggs.iter().find(|a| a.kind == OpKind::Write).unwrap();
        let user = TimeCategory::UserData.index_in_all();
        let sw = TimeCategory::Software.index_in_all();
        assert!((a.cat_ns[user] - 500.0).abs() < 1e-6, "{:?}", a.cat_ns);
        assert!((a.cat_ns[sw] - 250.0).abs() < 1e-6);
        let total: f64 = a.cat_ns.iter().sum();
        assert!(
            (total - 750.0).abs() < 1e-6,
            "a lock wait is no category's time"
        );
        assert_eq!(a.count, 1);
    }

    #[test]
    fn shards_merge_across_threads() {
        let rec = Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _g = rec.span(OpKind::Fsync);
                        SimClock::charge_thread_wait(10.0);
                    }
                });
            }
        });
        let aggs = rec.aggregate();
        let a = aggs.iter().find(|a| a.kind == OpKind::Fsync).unwrap();
        assert_eq!(a.count, 400);
    }

    #[test]
    fn events_outside_spans_do_not_panic() {
        event(SpanEvent::GroupCommit);
    }
}
