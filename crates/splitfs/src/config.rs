//! Tunable parameters of a SplitFS instance (paper §3.6).

use crate::modes::Mode;

/// Configuration of the background maintenance daemon (paper §3.3: staging
/// pre-allocation and garbage collection happen "on a background thread").
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Whether the maintenance worker runs at all.  With this off, staging
    /// replenishment, log truncation and relink all happen inline on the
    /// foreground paths (the seed's behaviour, kept for ablation).  With
    /// it on, the worker keeps the staging file after the active one
    /// mapped (see [`crate::staging`]).
    pub enabled: bool,
}

impl DaemonConfig {
    /// Daemon enabled.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self::enabled()
    }
}

/// Configuration of a U-Split instance.
///
/// The defaults follow the paper but are scaled down to fit the emulated
/// devices the test-suite and benchmark harness create (the paper's 160 MiB
/// staging files and 128 MiB operation log assume a multi-hundred-gigabyte
/// PM module).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitConfig {
    /// Consistency mode of this instance.
    pub mode: Mode,
    /// Number of staging files pre-allocated at startup (the first two
    /// are mapped then, the rest when they are about to be written).
    pub staging_files: usize,
    /// Size of each staging file in bytes.
    pub staging_file_size: u64,
    /// Size of the operation log in bytes (64 B per entry).
    pub oplog_size: u64,
    /// Ablation switch (Figure 3): route appends through staging files.
    /// With this off, appends fall through to the kernel file system.
    pub use_staging: bool,
    /// Ablation switch (Figure 3): use the relink ioctl on `fsync`.  With
    /// this off, staged appends are copied into the target file instead of
    /// being relinked.
    pub use_relink: bool,
    /// Background maintenance daemon parameters.
    pub daemon: DaemonConfig,
}

impl SplitConfig {
    /// Default configuration (scaled for the emulated devices) in the given
    /// mode.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            staging_files: 4,
            staging_file_size: 16 * 1024 * 1024,
            oplog_size: 8 * 1024 * 1024,
            use_staging: true,
            use_relink: true,
            daemon: DaemonConfig::default(),
        }
    }

    /// Sets the staging pool shape.
    pub fn with_staging(mut self, files: usize, file_size: u64) -> Self {
        self.staging_files = files.max(1);
        self.staging_file_size = file_size.max(2 * 1024 * 1024);
        self
    }

    /// Sets the operation-log size (minimum one 4 KiB block, i.e. 64
    /// entries).
    pub fn with_oplog_size(mut self, size: u64) -> Self {
        self.oplog_size = size.max(4096);
        self
    }

    /// Disables staging (Figure 3 ablation: "split architecture only").
    pub fn without_staging(mut self) -> Self {
        self.use_staging = false;
        self.use_relink = false;
        self
    }

    /// Disables relink but keeps staging (Figure 3 ablation: staged appends
    /// are copied on `fsync` instead of relinked).
    pub fn without_relink(mut self) -> Self {
        self.use_relink = false;
        self
    }

    /// Disables the background maintenance daemon (ablation: the seed's
    /// inline-maintenance behaviour).
    pub fn without_daemon(mut self) -> Self {
        self.daemon.enabled = false;
        self
    }
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self::new(Mode::Posix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_defaults_and_builders() {
        let c = SplitConfig::new(Mode::Strict);
        assert!(c.daemon.enabled, "daemon is on by default");
        let c = SplitConfig::new(Mode::Strict).without_daemon();
        assert_eq!(c.daemon, DaemonConfig { enabled: false });
        let c = SplitConfig::new(Mode::Posix).with_staging(1, 1024);
        assert_eq!(
            (c.staging_files, c.staging_file_size),
            (1, 2 * 1024 * 1024),
            "a staging file holds at least one 2 MiB page"
        );
    }

    #[test]
    fn ablation_switches_compose() {
        let c = SplitConfig::new(Mode::Posix).without_staging();
        assert!(!c.use_staging && !c.use_relink);
        let c = SplitConfig::new(Mode::Posix).without_relink();
        assert!(c.use_staging && !c.use_relink);
    }
}
