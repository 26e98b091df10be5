//! The benchmark's own tracing: spans around every call into a layer.
//!
//! [`SpanFs`] wraps the file system a workload drives and records one span
//! per `vfs::FileSystem` call (host ns and foreground simulated ns).  The
//! `kv_ycsb_a` target opens an application span around every `put`/`get`, so
//! the file-system spans it causes carry it as their parent.  Nothing in the
//! product is edited: U-Split calls K-Split through a concrete
//! `Arc<Ext4Dax>`, so the layers below U-Split are not spanned here but
//! estimated by twin runs (see `layers.rs`).
//!
//! Spans live in memory until the run ends.  Every span feeds its op's
//! duration list (for exact percentiles) and simulated-time total; the first
//! [`RAW_SPANS`] are also kept whole and written to `out/trace-<workload>.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use obs::JsonObject;
use pmem::{PmemDevice, SimClock};
use vfs::{
    ConsistencyClass, Fd, FileStat, FileSystem, FsResult, IoVec, OpenFlags, ReadView, SeekFrom,
};

use crate::est;

/// Span names, `layer.op`.  The first [`FS_METRIC_OPS`] file-system ops are
/// reported as per-layer metrics; `other` collects the rest of the trait
/// (`read`, `lseek`, `fstat`, `ftruncate`, `mkdir`, ...).
pub const SPAN_NAMES: [&str; 17] = [
    "splitfs.append",
    "splitfs.appendv",
    "splitfs.fsync",
    "splitfs.fdatasync",
    "splitfs.read_at",
    "splitfs.read_view",
    "splitfs.write_at",
    "splitfs.write",
    "splitfs.open",
    "splitfs.close",
    "splitfs.stat",
    "splitfs.rename",
    "splitfs.unlink",
    "splitfs.readdir",
    "splitfs.other",
    "apps.put",
    "apps.get",
];
/// Rows of [`SPAN_NAMES`].
pub const APPEND: usize = 0;
pub const APPENDV: usize = 1;
pub const FSYNC: usize = 2;
pub const FDATASYNC: usize = 3;
pub const READ_AT: usize = 4;
pub const READ_VIEW: usize = 5;
pub const WRITE_AT: usize = 6;
pub const WRITE: usize = 7;
pub const OPEN: usize = 8;
pub const CLOSE: usize = 9;
pub const STAT: usize = 10;
pub const RENAME: usize = 11;
pub const UNLINK: usize = 12;
pub const READDIR: usize = 13;
/// File-system ops reported as `splitfs.<op>.*` metrics.
pub const FS_METRIC_OPS: usize = 14;
const OTHER: usize = 14;
pub const APP_PUT: usize = 15;
pub const APP_GET: usize = 16;
/// Whole spans kept for the trace file.
const RAW_SPANS: usize = 20_000;

struct RawSpan {
    name: u8,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: u32,
    sim_ns: f32,
}

#[derive(Default)]
struct Inner {
    durs: Vec<Vec<u32>>,
    sim_ns: Vec<f64>,
    raw: Vec<RawSpan>,
    total: u64,
    /// The open application span: its raw-window row, host and simulated start.
    app: Option<(Option<u32>, Instant, f64)>,
    app_ns: u64,
    fs_in_app_ns: u64,
    fs_in_app_calls: u64,
}

impl Inner {
    /// Adds a finished span; `slot` is the raw-window row reserved for it at
    /// its start, if any.
    fn record(&mut self, name: usize, slot: Option<u32>, span: RawSpan) {
        self.durs[name].push(span.dur_ns);
        self.sim_ns[name] += span.sim_ns as f64;
        self.total += 1;
        match slot {
            Some(slot) => self.raw[slot as usize] = span,
            None if self.raw.len() < RAW_SPANS => self.raw.push(span),
            None => {}
        }
    }
}

/// Per-op summary of the recorded spans.
pub struct OpSummary {
    pub calls: u64,
    pub host_p50_ns: f64,
    pub host_p95_ns: f64,
    /// Mean foreground simulated ns per call.
    pub sim_ns: f64,
}

/// In-memory span store shared by [`SpanFs`] and the application target.
pub struct TraceStore {
    epoch: Instant,
    /// Spans are recorded only inside timed rounds; set-up, re-formats and
    /// recovery call through [`SpanFs`] unrecorded.
    recording: AtomicBool,
    inner: Mutex<Inner>,
}

impl TraceStore {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceStore {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                durs: vec![Vec::new(); SPAN_NAMES.len()],
                sim_ns: vec![0.0; SPAN_NAMES.len()],
                ..Inner::default()
            }),
        })
    }

    /// Turns span recording on (timed rounds) or off (everything else).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace store poisoned by a panic")
    }

    fn raw_span(&self, name: usize, parent: Option<u32>, start: Instant, sim0: f64) -> RawSpan {
        RawSpan {
            name: name as u8,
            parent,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos().min(u32::MAX as u128) as u32,
            sim_ns: (SimClock::thread_time_ns() - sim0) as f32,
        }
    }

    /// Times `call` as one file-system span named `name`.
    fn span<R>(&self, name: usize, call: impl FnOnce() -> R) -> R {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let sim0 = SimClock::thread_time_ns();
        let start = Instant::now();
        let result = call();
        let mut span = self.raw_span(name, None, start, sim0);
        let mut inner = self.lock();
        if let Some((parent, ..)) = inner.app {
            span.parent = parent;
            inner.fs_in_app_ns += span.dur_ns as u64;
            inner.fs_in_app_calls += 1;
        }
        inner.record(name, None, span);
        result
    }

    /// Opens the application span the following file-system spans belong to,
    /// reserving its row in the raw window so children can name it.
    pub fn begin_app(&self) {
        if !self.recording.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.lock();
        let slot = (inner.raw.len() < RAW_SPANS).then(|| {
            inner.raw.push(RawSpan {
                name: 0,
                parent: None,
                start_ns: 0,
                dur_ns: 0,
                sim_ns: 0.0,
            });
            inner.raw.len() as u32 - 1
        });
        inner.app = Some((slot, Instant::now(), SimClock::thread_time_ns()));
    }

    /// Closes the open application span as `name`.
    pub fn end_app(&self, name: usize) {
        let mut inner = self.lock();
        let Some((slot, start, sim0)) = inner.app.take() else {
            return;
        };
        let span = self.raw_span(name, None, start, sim0);
        inner.app_ns += span.dur_ns as u64;
        inner.record(name, slot, span);
    }

    pub fn summary(&self, name: usize) -> OpSummary {
        let mut inner = self.lock();
        let calls = inner.durs[name].len() as u64;
        let (host_p50_ns, host_p95_ns) = est::p50_p95(&mut inner.durs[name]);
        OpSummary {
            calls,
            host_p50_ns,
            host_p95_ns,
            sim_ns: if calls == 0 {
                0.0
            } else {
                inner.sim_ns[name] / calls as f64
            },
        }
    }

    /// Share of application-call host time not spent inside file-system spans.
    pub fn app_self_share(&self) -> f64 {
        let inner = self.lock();
        if inner.app_ns == 0 {
            0.0
        } else {
            1.0 - inner.fs_in_app_ns as f64 / inner.app_ns as f64
        }
    }

    /// File-system calls per application call.
    pub fn fs_calls_per_app_call(&self) -> f64 {
        let inner = self.lock();
        let apps = (inner.durs[APP_PUT].len() + inner.durs[APP_GET].len()) as f64;
        if apps == 0.0 {
            0.0
        } else {
            inner.fs_in_app_calls as f64 / apps
        }
    }

    /// Renders the trace file: a summary per span name and the raw window.
    pub fn to_json(&self, workload: &str, seed: u64, input_hash: u64) -> String {
        let ops: Vec<String> = (0..SPAN_NAMES.len())
            .filter_map(|name| {
                let s = self.summary(name);
                (s.calls > 0).then(|| {
                    JsonObject::new()
                        .str("name", SPAN_NAMES[name])
                        .u64("calls", s.calls)
                        .f64("host_p50_ns", s.host_p50_ns)
                        .f64("host_p95_ns", s.host_p95_ns)
                        .f64("sim_ns_mean", s.sim_ns)
                        .finish()
                })
            })
            .collect();
        let inner = self.lock();
        let spans: Vec<String> = inner
            .raw
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let obj = JsonObject::new()
                    .u64("id", id as u64)
                    .str("name", SPAN_NAMES[s.name as usize])
                    .u64("start_ns", s.start_ns)
                    .u64("end_ns", s.start_ns + s.dur_ns as u64)
                    .f64("sim_ns", s.sim_ns as f64);
                match s.parent {
                    Some(p) => obj.u64("parent", p as u64),
                    None => obj.raw("parent", "null"),
                }
                .finish()
            })
            .collect();
        JsonObject::new()
            .str("workload", workload)
            .u64("seed", seed)
            .str("input_hash", &format!("{input_hash:016x}"))
            .u64("spans_recorded", inner.total)
            .u64("spans_in_file", inner.raw.len() as u64)
            .raw("ops", &obs::json::array(ops))
            .raw("spans", &obs::json::array(spans))
            .finish()
    }
}

/// A `FileSystem` that records a span around every call into `inner`.
pub struct SpanFs {
    inner: Arc<dyn FileSystem>,
    store: Arc<TraceStore>,
}

impl SpanFs {
    pub fn wrap(inner: Arc<dyn FileSystem>, store: &Arc<TraceStore>) -> Arc<dyn FileSystem> {
        Arc::new(SpanFs {
            inner,
            store: Arc::clone(store),
        })
    }
}

impl FileSystem for SpanFs {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn consistency(&self) -> ConsistencyClass {
        self.inner.consistency()
    }
    fn device(&self) -> &Arc<PmemDevice> {
        self.inner.device()
    }
    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.store.span(APPEND, || self.inner.append(fd, data))
    }
    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.store.span(APPENDV, || self.inner.appendv(fd, iov))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.store.span(FSYNC, || self.inner.fsync(fd))
    }
    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        self.store.span(FDATASYNC, || self.inner.fdatasync(fd))
    }
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.store
            .span(READ_AT, || self.inner.read_at(fd, offset, buf))
    }
    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        self.store
            .span(READ_VIEW, || self.inner.read_view(fd, offset, len))
    }
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.store
            .span(WRITE_AT, || self.inner.write_at(fd, offset, data))
    }
    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.store.span(WRITE, || self.inner.write(fd, data))
    }
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        self.store.span(OPEN, || self.inner.open(path, flags))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        self.store.span(CLOSE, || self.inner.close(fd))
    }
    fn stat(&self, path: &str) -> FsResult<FileStat> {
        self.store.span(STAT, || self.inner.stat(path))
    }
    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        self.store.span(RENAME, || self.inner.rename(old, new))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.store.span(UNLINK, || self.inner.unlink(path))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.store.span(READDIR, || self.inner.readdir(path))
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.store.span(OTHER, || self.inner.read(fd, buf))
    }
    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.store.span(OTHER, || self.inner.lseek(fd, pos))
    }
    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        self.store.span(OTHER, || self.inner.ftruncate(fd, size))
    }
    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        self.store.span(OTHER, || self.inner.fstat(fd))
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.store.span(OTHER, || self.inner.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.store.span(OTHER, || self.inner.rmdir(path))
    }
    fn sync(&self) -> FsResult<()> {
        self.store.span(OTHER, || self.inner.sync())
    }
    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        self.store
            .span(OTHER, || self.inner.writev_at(fd, offset, iov))
    }
    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        self.store.span(OTHER, || self.inner.fsync_many(fds))
    }
    // `exists`, `read_file` and `write_file` keep the trait's provided
    // bodies, so they decompose into the spanned primitives above.
}
