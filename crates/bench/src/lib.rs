//! Shared fixtures and the result shape of the experiment harness.
//!
//! Every experiment needs the same thing: a fresh emulated PM device with a
//! particular file system mounted on it.  [`FsKind`] enumerates the eight
//! configurations the paper compares and [`make_fs`] builds one.  Every
//! experiment returns a [`Table`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;

pub use table::{Cell, Table, Unit};

use std::sync::Arc;

use baselines::{Nova, NovaMode, Pmfs, Strata};
use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::FileSystem;

/// The file-system configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// ext4 DAX (kernel file system alone) — POSIX class.
    Ext4Dax,
    /// PMFS — sync class.
    Pmfs,
    /// NOVA with in-place data updates — sync class.
    NovaRelaxed,
    /// NOVA with copy-on-write data updates — strict class.
    NovaStrict,
    /// Strata (PM layer) — strict class.
    Strata,
    /// SplitFS in POSIX mode.
    SplitPosix,
    /// SplitFS in sync mode.
    SplitSync,
    /// SplitFS in strict mode.
    SplitStrict,
}

impl FsKind {
    /// Every configuration, grouped roughly as the paper's figures list
    /// them.
    pub const ALL: [FsKind; 8] = [
        FsKind::Ext4Dax,
        FsKind::SplitPosix,
        FsKind::Pmfs,
        FsKind::NovaRelaxed,
        FsKind::SplitSync,
        FsKind::NovaStrict,
        FsKind::Strata,
        FsKind::SplitStrict,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            FsKind::Ext4Dax => "ext4-DAX",
            FsKind::Pmfs => "PMFS",
            FsKind::NovaRelaxed => "NOVA-relaxed",
            FsKind::NovaStrict => "NOVA-strict",
            FsKind::Strata => "Strata",
            FsKind::SplitPosix => "SplitFS-POSIX",
            FsKind::SplitSync => "SplitFS-sync",
            FsKind::SplitStrict => "SplitFS-strict",
        }
    }
}

/// A mounted file system plus the device it lives on.
pub struct Fixture {
    /// The file system under test.
    pub fs: Arc<dyn FileSystem>,
    /// The emulated device (for clock/stats access).
    pub device: Arc<PmemDevice>,
    /// The configuration that was built.
    pub kind: FsKind,
}

/// Builds a fresh device of `device_size` bytes with `kind` mounted on it.
///
/// Persistence tracking (the crash-simulation line marks and undo store)
/// is disabled — performance experiments never crash the device, and the
/// tracking would save every line a store first replaces.
pub fn make_fs(kind: FsKind, device_size: usize) -> Fixture {
    let device = PmemBuilder::new(device_size)
        .track_persistence(false)
        .build();
    let fs: Arc<dyn FileSystem> = match kind {
        FsKind::Ext4Dax => Ext4Dax::mkfs(Arc::clone(&device)).expect("mkfs ext4-dax"),
        FsKind::Pmfs => Pmfs::new(Arc::clone(&device)),
        FsKind::NovaRelaxed => Nova::new(Arc::clone(&device), NovaMode::Relaxed),
        FsKind::NovaStrict => Nova::new(Arc::clone(&device), NovaMode::Strict),
        FsKind::Strata => Strata::new(Arc::clone(&device)),
        FsKind::SplitPosix | FsKind::SplitSync | FsKind::SplitStrict => {
            let kernel = Ext4Dax::mkfs(Arc::clone(&device)).expect("mkfs ext4-dax");
            let mode = match kind {
                FsKind::SplitPosix => Mode::Posix,
                FsKind::SplitSync => Mode::Sync,
                _ => Mode::Strict,
            };
            SplitFs::new(kernel, SplitConfig::new(mode)).expect("splitfs init")
        }
    };
    Fixture { fs, device, kind }
}

/// Builds a SplitFS fixture with an explicit configuration (the Figure 3
/// ablation).
pub fn make_splitfs(config: SplitConfig, device_size: usize) -> Fixture {
    let device = PmemBuilder::new(device_size)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(Arc::clone(&device)).expect("mkfs ext4-dax");
    let kind = match config.mode {
        Mode::Posix => FsKind::SplitPosix,
        Mode::Sync => FsKind::SplitSync,
        Mode::Strict => FsKind::SplitStrict,
    };
    let fs = SplitFs::new(kernel, config).expect("splitfs init");
    Fixture { fs, device, kind }
}

/// Resets the fixture's statistics, and with them the clock that reads
/// them; used between the setup phase and the measured phase of an
/// experiment.
pub fn reset_measurement(fixture: &Fixture) {
    fixture.device.stats().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::OpenFlags;

    #[test]
    fn every_fs_kind_builds_and_does_basic_io() {
        for kind in FsKind::ALL {
            let fixture = make_fs(kind, 128 * 1024 * 1024);
            let fs = &fixture.fs;
            assert_eq!(fs.name(), kind.label(), "{kind:?}");
            let fd = fs.open("/smoke.dat", OpenFlags::create()).unwrap();
            fs.write_at(fd, 0, b"smoke test payload").unwrap();
            fs.fsync(fd).unwrap();
            let mut buf = vec![0u8; 18];
            fs.read_at(fd, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"smoke test payload", "{kind:?}");
            fs.close(fd).unwrap();
        }
    }
}
