//! Property-based tests of the device's persistence semantics: the crash
//! model must agree with a simple reference model in which a cache line's
//! bytes are persistent as of the last fence that found the line pending —
//! written with a non-temporal store, or flushed, since the fence before.

use std::sync::Arc;

use pmem::{AccessPattern, PersistMode, PmemBuilder, PmemDevice, TimeCategory};
use proptest::prelude::*;

const DEVICE_SIZE: usize = 4 * 1024 * 1024;

#[derive(Debug, Clone)]
enum Action {
    WriteTemporal { offset: u32, len: u16, value: u8 },
    WriteNt { offset: u32, len: u16, value: u8 },
    Flush { offset: u32, len: u16 },
    Fence,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let off = 0u32..(DEVICE_SIZE as u32 - 65_536);
    let len = 1u16..4096;
    prop_oneof![
        (off.clone(), len.clone(), any::<u8>())
            .prop_map(|(offset, len, value)| Action::WriteTemporal { offset, len, value }),
        (off.clone(), len.clone(), any::<u8>()).prop_map(|(offset, len, value)| Action::WriteNt {
            offset,
            len,
            value
        }),
        (off, len).prop_map(|(offset, len)| Action::Flush { offset, len }),
        Just(Action::Fence),
    ]
}

/// Reference model: tracks the volatile view, the persistent view and the
/// per-line dirty/pending state, mirroring the documented semantics.
struct Model {
    volatile: Vec<u8>,
    persistent: Vec<u8>,
    dirty: std::collections::HashSet<u64>,
    pending: std::collections::HashSet<u64>,
}

impl Model {
    fn new() -> Self {
        Self {
            volatile: vec![0; DEVICE_SIZE],
            persistent: vec![0; DEVICE_SIZE],
            dirty: Default::default(),
            pending: Default::default(),
        }
    }

    fn lines(offset: u32, len: u16) -> impl Iterator<Item = u64> {
        let first = offset as u64 / 64;
        let last = (offset as u64 + len as u64 - 1) / 64;
        first..=last
    }

    fn apply(&mut self, action: &Action) {
        match action {
            Action::WriteTemporal { offset, len, value } => {
                self.volatile[*offset as usize..*offset as usize + *len as usize].fill(*value);
                // A temporal store does not take back a write-back already
                // under way: a pending line stays pending (and the next
                // fence persists the line as it then reads, this store
                // included) and is dirty again on top of that.
                for line in Self::lines(*offset, *len) {
                    self.dirty.insert(line);
                }
            }
            Action::WriteNt { offset, len, value } => {
                self.volatile[*offset as usize..*offset as usize + *len as usize].fill(*value);
                for line in Self::lines(*offset, *len) {
                    self.dirty.remove(&line);
                    self.pending.insert(line);
                }
            }
            Action::Flush { offset, len } => {
                for line in Self::lines(*offset, *len) {
                    if self.dirty.remove(&line) {
                        self.pending.insert(line);
                    }
                }
            }
            Action::Fence => {
                for line in self.pending.drain() {
                    let start = (line * 64) as usize;
                    self.persistent[start..start + 64]
                        .copy_from_slice(&self.volatile[start..start + 64]);
                }
            }
        }
    }
}

fn apply_to_device(device: &Arc<PmemDevice>, action: &Action) {
    match action {
        Action::WriteTemporal { offset, len, value } => device.write(
            *offset as u64,
            &vec![*value; *len as usize],
            PersistMode::Temporal,
            TimeCategory::UserData,
        ),
        Action::WriteNt { offset, len, value } => device.write(
            *offset as u64,
            &vec![*value; *len as usize],
            PersistMode::NonTemporal,
            TimeCategory::UserData,
        ),
        Action::Flush { offset, len } => {
            device.flush(*offset as u64, *len as usize, TimeCategory::UserData)
        }
        Action::Fence => device.fence(TimeCategory::UserData),
    }
}

/// NT store, temporal store to the same line, fence, crash: the fence
/// persists the line — both stores — because the temporal store leaves it
/// pending.  A model that dropped `pending` on a temporal store (as this
/// one used to) loses the whole line here.
#[test]
fn a_temporal_store_does_not_cancel_a_pending_line() {
    let actions = [
        Action::WriteNt {
            offset: 4096,
            len: 64,
            value: 0xAA,
        },
        Action::WriteTemporal {
            offset: 4104,
            len: 8,
            value: 0xBB,
        },
        Action::Fence,
        // Dirty again after the fence: this one is lost.
        Action::WriteTemporal {
            offset: 4112,
            len: 8,
            value: 0xCC,
        },
    ];
    let device = PmemBuilder::new(DEVICE_SIZE).build();
    let mut model = Model::new();
    for action in &actions {
        apply_to_device(&device, action);
        model.apply(action);
    }
    device.crash();
    let mut line = [0u8; 64];
    device.read_uncharged(4096, &mut line);
    let mut expected = [0xAAu8; 64];
    expected[8..16].fill(0xBB);
    assert_eq!(line, expected, "the device persists both stores");
    assert_eq!(
        line[..],
        model.persistent[4096..4160],
        "and so does the model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The volatile view always matches the model, and after a crash the
    /// device contents match the model's persistent view exactly.
    #[test]
    fn crash_contents_match_reference_model(
        actions in prop::collection::vec(action_strategy(), 1..40),
        probe_offsets in prop::collection::vec(0u32..(DEVICE_SIZE as u32 - 128), 8),
    ) {
        let device = PmemBuilder::new(DEVICE_SIZE).build();
        let mut model = Model::new();
        for action in &actions {
            apply_to_device(&device, action);
            model.apply(action);
        }
        // Volatile view agrees before the crash.
        for &off in &probe_offsets {
            let mut buf = [0u8; 128];
            device.read(off as u64, &mut buf, AccessPattern::Random, TimeCategory::UserData);
            prop_assert_eq!(&buf[..], &model.volatile[off as usize..off as usize + 128]);
        }
        // Persistent view agrees after the crash.
        device.crash();
        for &off in &probe_offsets {
            let mut buf = [0u8; 128];
            device.read_uncharged(off as u64, &mut buf);
            prop_assert_eq!(&buf[..], &model.persistent[off as usize..off as usize + 128]);
        }
    }

    /// Simulated time is monotone and every charged byte is accounted for
    /// in the statistics.
    #[test]
    fn time_and_traffic_accounting_is_monotone(
        actions in prop::collection::vec(action_strategy(), 1..30),
    ) {
        let device = PmemBuilder::new(DEVICE_SIZE).build();
        let mut last_ns = 0.0f64;
        let mut expected_written = 0u64;
        for action in &actions {
            apply_to_device(&device, action);
            let now = device.clock().now_ns_f64();
            prop_assert!(now >= last_ns, "clock went backwards");
            last_ns = now;
            if let Action::WriteTemporal { len, .. } | Action::WriteNt { len, .. } = action {
                expected_written += *len as u64;
            }
        }
        let snap = device.stats().snapshot();
        prop_assert_eq!(snap.total_bytes_written(), expected_written);
    }
}
