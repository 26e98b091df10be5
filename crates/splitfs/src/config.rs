//! Tunable parameters of a SplitFS instance (paper §3.6).

use crate::modes::Mode;

/// Configuration of the background maintenance daemon (paper §3.3: staging
/// pre-allocation and garbage collection happen "on a background thread").
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Whether the maintenance worker runs at all.  With this off, staging
    /// replenishment, log truncation and relink all happen inline on the
    /// foreground paths (the seed's behaviour, kept for ablation).
    pub enabled: bool,
    /// When fewer than this many unconsumed staging files remain, the
    /// worker starts provisioning replacements.
    pub staging_low_watermark: usize,
    /// The worker provisions until this many unconsumed staging files
    /// exist.
    pub staging_high_watermark: usize,
}

impl DaemonConfig {
    /// Daemon enabled with the scaled-down defaults.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            staging_low_watermark: 1,
            staging_high_watermark: 3,
        }
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
    /// Number of staging files pre-allocated at startup.
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

    /// Sets the staging-pool watermarks the daemon provisions between.
    pub fn with_staging_watermarks(mut self, low: usize, high: usize) -> Self {
        self.daemon.staging_low_watermark = low.max(1);
        self.daemon.staging_high_watermark = high.max(low.max(1) + 1);
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
        assert_eq!(
            c.daemon,
            DaemonConfig {
                enabled: false,
                ..DaemonConfig::default()
            },
            "turning the daemon off keeps its watermarks"
        );
        let c = SplitConfig::new(Mode::Posix).with_staging_watermarks(2, 2);
        assert_eq!(c.daemon.staging_low_watermark, 2);
        assert!(
            c.daemon.staging_high_watermark > c.daemon.staging_low_watermark,
            "high watermark stays above low"
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
