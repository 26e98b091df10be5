//! Store and persistence semantics.
//!
//! Persistent memory is written either with regular (temporal) stores that
//! land in the CPU cache and must later be flushed (`clwb`) and ordered
//! (`sfence`) to become persistent, or with non-temporal stores (`movnt`)
//! that bypass the cache and become persistent at the next fence (§2.1 of
//! the paper).  The emulated device models both.

/// How a store reaches the persistence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistMode {
    /// Regular store: visible immediately, persistent only after an explicit
    /// flush of the affected cache lines followed by a fence.
    Temporal,
    /// Non-temporal store (`movnt`): bypasses the cache; persistent at the
    /// next fence without a separate flush.  SplitFS uses these for data
    /// writes and operation-log entries.
    ///
    /// On the host, a non-temporal store of at least 4 KiB to an untracked
    /// device is copied with SSE2 streaming stores on x86_64, so it does
    /// not first read the lines it replaces; one `sfence` under the shard's
    /// write lock ends it.  Shorter stores, stores to a tracked device
    /// (which reads each clean line it replaces into its undo store) and
    /// other targets copy through the cache.  Either way the bytes, the
    /// persistence marks and the charged cost are the same.
    NonTemporal,
}

/// Access pattern of a read, which determines the latency charged
/// (Table 2: sequential 169 ns vs random 305 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// The read continues a streaming access.
    Sequential,
    /// The read jumps to an unrelated location.
    Random,
}

impl AccessPattern {
    /// Returns `true` for [`AccessPattern::Sequential`].
    pub fn is_sequential(self) -> bool {
        matches!(self, AccessPattern::Sequential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_pattern_helpers() {
        assert!(AccessPattern::Sequential.is_sequential());
        assert!(!AccessPattern::Random.is_sequential());
    }

    #[test]
    fn persist_modes_are_distinct() {
        assert_ne!(PersistMode::Temporal, PersistMode::NonTemporal);
    }
}
