//! End-to-end span attribution through the traced SplitFS stack.
//!
//! The invariants under test: work a foreground operation triggers
//! internally — here, the inline staging-file creation that a drained
//! pool forces onto the `appendv` path — is charged to the *enclosing*
//! operation's span (as an event annotation and as category time),
//! never double-counted under a nested span; and the per-op breakdown
//! across the whole run reconciles against the device's aggregate
//! per-category times.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use obs::{MetricsSnapshot, OpKind, Recorder, SpanEvent};
use pmem::{PmemBuilder, TimeCategory};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::{FileSystem, IoVec, OpenFlags, TracedFs};

fn event_index(event: SpanEvent) -> usize {
    SpanEvent::ALL.iter().position(|e| *e == event).unwrap()
}

#[test]
fn inline_create_is_charged_to_the_appendv_span() {
    let device = PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    // Minimum-size staging files (2 MiB floor) and no daemon: once the
    // pre-provisioned 4 MiB pool drains, the appendv path must create
    // replacement staging files inline, inside the foreground operation.
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(2, 2 * 1024 * 1024)
        .with_oplog_size(512 * 1024)
        .without_daemon();
    let fs = SplitFs::new(kernel, config).unwrap();
    let recorder = Arc::new(Recorder::new());
    fs.attach_recorder(Arc::clone(&recorder));
    let traced: Arc<dyn FileSystem> = Arc::new(TracedFs::new(fs, Arc::clone(&recorder)));

    let before = device.stats().snapshot();
    let fd = traced.open("/spans.dat", OpenFlags::create()).unwrap();
    let header = [0xAAu8; 16];
    let body = [0xBBu8; 4080];
    for _ in 0..1536 {
        let iov = [IoVec::new(&header), IoVec::new(&body)];
        traced.appendv(fd, &iov).unwrap();
    }
    traced.fsync(fd).unwrap();
    traced.close(fd).unwrap();
    let stats = device.stats().snapshot().delta(&before);
    assert!(
        stats.staging_inline_creates > 0,
        "6 MiB of appends through a 4 MiB pool must create staging \
         files inline: {stats:?}"
    );

    let snap = MetricsSnapshot::new(&recorder, stats);
    let appendv = snap.op(OpKind::Appendv).expect("appendv spans recorded");
    assert_eq!(appendv.count, 1536);

    // Every inline creation fired inside an appendv span and is
    // annotated there...
    assert_eq!(
        appendv.events[event_index(SpanEvent::InlineCreate)],
        snap.stats.staging_inline_creates,
        "inline creations must be attributed to the appendv spans"
    );
    // ...and its cost (kernel file creation = metadata + journal work)
    // lands in the appendv spans' own category time.
    assert!(appendv.cat_ns[TimeCategory::Metadata.index_in_all()] > 0.0);
    assert!(appendv.cat_ns[TimeCategory::Journal.index_in_all()] > 0.0);

    // No nested span was opened for the internal work: exactly one span
    // per traced call (open + 1536 appendv + fsync + close).
    assert_eq!(snap.total_spans(), 1 + 1536 + 1 + 1);

    // The whole window still reconciles: per-op category time sums to
    // the aggregate stats within 1%.
    let err = snap.attribution_error(1000.0);
    assert!(
        err < 0.01,
        "span attribution off by {:.3}% (spans {:?} vs stats {:?})",
        err * 100.0,
        snap.span_time_by_category(),
        snap.stats.time_ns
    );
}

/// Four writers at once, each on its own file — appends, read-backs,
/// head overwrites and fsyncs — then one `fsync_many` and the closes, all
/// traced, with the daemon's dispatches under their own spans: the per-op
/// category time still sums to the aggregate within 1%.
#[test]
fn four_writers_reconcile_spans_with_aggregate_stats() {
    let device = PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(4, 8 * 1024 * 1024)
        .with_oplog_size(512 * 1024);
    let fs = SplitFs::new(kernel, config).unwrap();
    let recorder = Arc::new(Recorder::new());
    fs.attach_recorder(Arc::clone(&recorder));
    let traced: Arc<dyn FileSystem> = Arc::new(TracedFs::new(fs.clone(), Arc::clone(&recorder)));

    let before = device.stats().snapshot();
    let fds: Vec<_> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4u8)
            .map(|t| {
                let traced = &traced;
                scope.spawn(move || {
                    let fd = traced
                        .open(&format!("/lat-{t}.log"), OpenFlags::create())
                        .unwrap();
                    let header = [t; 16];
                    let body = [t + 1; 496];
                    for i in 1..=256u64 {
                        let iov = [IoVec::new(&header), IoVec::new(&body)];
                        traced.appendv(fd, &iov).unwrap();
                        if i % 32 == 0 {
                            let view = traced.read_view(fd, i / 2 * 512, 512).unwrap();
                            assert_eq!(view.len(), 512);
                        }
                        if i % 128 == 0 {
                            traced.write_at(fd, 0, &header).unwrap();
                        }
                        if i % 64 == 0 {
                            traced.fsync(fd).unwrap();
                        }
                    }
                    fd
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    traced.fsync_many(&fds).unwrap();
    for fd in fds {
        traced.close(fd).unwrap();
    }
    fs.maintenance_quiesce();
    let stats = device.stats().snapshot().delta(&before);
    let snap = MetricsSnapshot::new(&recorder, stats);

    let appendv = snap.op(OpKind::Appendv).expect("appendv spans recorded");
    assert_eq!(appendv.count, 4 * 256);
    assert!(appendv.p99_ns >= appendv.p50_ns);
    for kind in [OpKind::Create, OpKind::ReadView, OpKind::Fsync] {
        assert!(snap.op(kind).is_some(), "no {kind:?} span recorded");
    }
    let err = snap.attribution_error(1000.0);
    assert!(
        err < 0.01,
        "span attribution off by {:.3}% (spans {:?} vs stats {:?})",
        err * 100.0,
        snap.span_time_by_category(),
        snap.stats.time_ns
    );
}

#[test]
fn relink_batches_are_charged_to_the_fsync_span() {
    let device = PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let config = SplitConfig::new(Mode::Strict)
        .with_staging(4, 4 * 1024 * 1024)
        .with_oplog_size(512 * 1024);
    let fs = SplitFs::new(kernel, config).unwrap();
    let recorder = Arc::new(Recorder::new());
    fs.attach_recorder(Arc::clone(&recorder));
    let traced: Arc<dyn FileSystem> = Arc::new(TracedFs::new(fs, Arc::clone(&recorder)));

    let fd = traced.open("/relink.dat", OpenFlags::create()).unwrap();
    let block = [0x5Au8; 4096];
    for _ in 0..16 {
        traced.append(fd, &block).unwrap();
    }
    traced.fsync(fd).unwrap();
    traced.close(fd).unwrap();

    let snap = MetricsSnapshot::new(&recorder, device.stats().snapshot());
    let fsync = snap.op(OpKind::Fsync).expect("fsync spans recorded");
    assert!(
        fsync.events[event_index(SpanEvent::RelinkBatch)] > 0,
        "the fsync-time relink batch must be annotated on the fsync span"
    );
    // The append override routes through appendv under a single Append
    // span — 16 spans, no extra Appendv spans underneath.
    let append = snap.op(OpKind::Append).expect("append spans recorded");
    assert_eq!(append.count, 16);
    assert!(snap.op(OpKind::Appendv).is_none());
}
