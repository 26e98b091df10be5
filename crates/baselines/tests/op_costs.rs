//! Per-operation costs of the three baselines, pinned exactly.
//!
//! One fixed script runs on PMFS, NOVA-relaxed, NOVA-strict and Strata,
//! each on a fresh untracked device.  Every call's `StatsSnapshot::delta`
//! is rendered as one row: simulated nanoseconds per `TimeCategory`,
//! bytes written and read per category, fences and kernel traps.  The rows must
//! match the committed tables below to the last digit, so a charge, device
//! store or fence that moves, disappears or doubles fails here with the
//! row that changed.
//!
//! This is the baselines' slice of the op-cost table (ROADMAP item 21).

use std::fmt::Write as _;
use std::sync::Arc;

use baselines::{Nova, NovaMode, Pmfs, Strata};
use pmem::{PmemBuilder, PmemDevice, StatsSnapshot, TimeCategory};
use vfs::{FileSystem, IoVec, OpenFlags, SeekFrom};

fn device() -> Arc<PmemDevice> {
    PmemBuilder::new(256 * 1024 * 1024)
        .track_persistence(false)
        .build()
}

/// One row: the op's label, then only the non-zero figures.
fn row(label: &str, d: &StatsSnapshot) -> String {
    let mut out = format!("{label:<16}");
    for (i, cat) in TimeCategory::ALL.iter().enumerate() {
        if d.time_ns[i] != 0.0 {
            write!(out, " {}={:.3}ns", cat.label(), d.time_ns[i]).unwrap();
        }
    }
    for (i, cat) in TimeCategory::ALL.iter().enumerate() {
        if d.bytes_written[i] != 0 {
            write!(out, " w:{}={}", cat.label(), d.bytes_written[i]).unwrap();
        }
    }
    for (i, cat) in TimeCategory::ALL.iter().enumerate() {
        if d.bytes_read[i] != 0 {
            write!(out, " r:{}={}", cat.label(), d.bytes_read[i]).unwrap();
        }
    }
    write!(out, " fences={} traps={}", d.fences, d.kernel_traps).unwrap();
    out.trim_end().to_string()
}

/// Runs the script and renders one row per call.
fn script(fs: &dyn FileSystem) -> String {
    let stats = fs.device().stats();
    let mut table = String::new();
    let mut step = |label: &str, op: &mut dyn FnMut()| {
        let before = stats.snapshot();
        op();
        let delta = stats.snapshot().delta(&before);
        writeln!(table, "{}", row(label, &delta)).unwrap();
    };
    let pattern: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    let mut fd = 0;
    let mut fd2 = 0;
    let mut buf = vec![0u8; 8192];

    step("create", &mut || {
        fd = fs.open("/f", OpenFlags::create()).unwrap()
    });
    step("append 4096", &mut || {
        assert_eq!(fs.append(fd, &pattern[..4096]).unwrap(), 4096)
    });
    step("append 700", &mut || {
        assert_eq!(fs.append(fd, &pattern[..700]).unwrap(), 700)
    });
    step("appendv 2", &mut || {
        let iov = [IoVec::new(&pattern[..100]), IoVec::new(&pattern[..200])];
        assert_eq!(fs.appendv(fd, &iov).unwrap(), 300)
    });
    step("overwrite", &mut || {
        assert_eq!(fs.write_at(fd, 1000, &pattern[..5000]).unwrap(), 5000)
    });
    step("read_at", &mut || {
        assert_eq!(fs.read_at(fd, 0, &mut buf).unwrap(), 6000)
    });
    step("read_at eof", &mut || {
        assert_eq!(fs.read_at(fd, 6000, &mut buf).unwrap(), 0)
    });
    step("lseek", &mut || {
        assert_eq!(fs.lseek(fd, SeekFrom::Start(2000)).unwrap(), 2000)
    });
    step("write", &mut || {
        assert_eq!(fs.write(fd, &pattern[..300]).unwrap(), 300)
    });
    step("read", &mut || {
        assert_eq!(fs.read(fd, &mut buf[..1000]).unwrap(), 1000)
    });
    step("fsync", &mut || fs.fsync(fd).unwrap());
    step("fsync_many", &mut || fs.fsync_many(&[fd]).unwrap());
    step("fstat", &mut || {
        assert_eq!(fs.fstat(fd).unwrap().size, 6000)
    });
    step("ftruncate grow", &mut || fs.ftruncate(fd, 20_000).unwrap());
    step("ftruncate cut", &mut || fs.ftruncate(fd, 3000).unwrap());
    step("open O_TRUNC", &mut || {
        fd2 = fs.open("/f", OpenFlags::create_truncate()).unwrap()
    });
    step("append reopened", &mut || {
        assert_eq!(fs.append(fd2, &pattern[..700]).unwrap(), 700)
    });
    step("mkdir", &mut || fs.mkdir("/d").unwrap());
    step("create in dir", &mut || {
        let fd3 = fs.open("/d/x", OpenFlags::create()).unwrap();
        fs.close(fd3).unwrap();
    });
    step("rename", &mut || fs.rename("/f", "/d/g").unwrap());
    step("stat", &mut || {
        assert_eq!(fs.stat("/d/g").unwrap().size, 700)
    });
    step("readdir", &mut || {
        assert_eq!(fs.readdir("/d").unwrap().len(), 2)
    });
    step("unlink", &mut || fs.unlink("/d/x").unwrap());
    step("close", &mut || fs.close(fd).unwrap());
    step("mkdir empty", &mut || fs.mkdir("/e").unwrap());
    step("rmdir", &mut || fs.rmdir("/e").unwrap());
    step("sync", &mut || fs.sync().unwrap());
    assert_eq!(fs.read_file("/d/g").unwrap(), &pattern[..700]);
    table
}

fn assert_table(fs: Arc<dyn FileSystem>, expected: &str) {
    let actual = script(&*fs);
    assert_eq!(
        actual,
        expected,
        "{}: per-op costs moved; the rendered table is\n{actual}",
        fs.name()
    );
}

#[test]
fn pmfs_op_costs_are_pinned() {
    assert_table(Pmfs::new(device()), PMFS);
}

#[test]
fn nova_relaxed_op_costs_are_pinned() {
    assert_table(Nova::new(device(), NovaMode::Relaxed), NOVA_RELAXED);
}

#[test]
fn nova_strict_op_costs_are_pinned() {
    assert_table(Nova::new(device(), NovaMode::Strict), NOVA_STRICT);
}

#[test]
fn strata_op_costs_are_pinned() {
    assert_table(Strata::new(device()), STRATA);
}

const PMFS: &str = "\
create           journal=190.752ns software=1660.000ns w:journal=128 fences=1 traps=1
append 4096      user-data=701.064ns journal=301.128ns software=2460.000ns w:user-data=4096 w:journal=192 fences=3 traps=1
append 700       user-data=203.550ns journal=301.128ns software=2460.000ns w:user-data=700 w:journal=192 fences=3 traps=1
appendv 2        user-data=215.950ns journal=110.376ns software=1280.000ns w:user-data=300 w:journal=64 fences=2 traps=1
overwrite        user-data=904.500ns journal=110.376ns software=1280.000ns w:user-data=5000 w:journal=64 fences=2 traps=1
read_at          user-data=626.400ns software=600.000ns r:user-data=6000 fences=0 traps=1
read_at eof      software=600.000ns fences=0 traps=1
lseek            software=600.000ns fences=0 traps=1
write            user-data=144.950ns software=600.000ns w:user-data=300 fences=1 traps=1
read             user-data=330.400ns software=600.000ns r:user-data=1000 fences=0 traps=1
fsync            software=600.000ns fences=0 traps=1
fsync_many       software=600.000ns fences=0 traps=1
fstat            software=600.000ns fences=0 traps=1
ftruncate grow   user-data=422.128ns journal=301.128ns software=2040.000ns w:user-data=2192 w:journal=192 fences=3 traps=1
ftruncate cut    user-data=261.564ns journal=190.752ns software=1360.000ns w:user-data=1096 w:journal=128 fences=2 traps=1
open O_TRUNC     journal=190.752ns software=1360.000ns w:journal=128 fences=1 traps=1
append reopened  user-data=203.550ns journal=301.128ns software=2460.000ns w:user-data=700 w:journal=192 fences=3 traps=1
mkdir            journal=190.752ns software=1360.000ns w:journal=128 fences=1 traps=1
create in dir    journal=190.752ns software=2260.000ns w:journal=128 fences=1 traps=2
rename           journal=271.128ns software=1740.000ns w:journal=192 fences=1 traps=1
stat             software=600.000ns fences=0 traps=1
readdir          software=600.000ns fences=0 traps=1
unlink           journal=190.752ns software=1360.000ns w:journal=128 fences=1 traps=1
close            software=600.000ns fences=0 traps=1
mkdir empty      journal=190.752ns software=1360.000ns w:journal=128 fences=1 traps=1
rmdir            journal=190.752ns software=1360.000ns w:journal=128 fences=1 traps=1
sync             fences=0 traps=0
";

const NOVA_RELAXED: &str = "\
create           journal=230.128ns software=1540.000ns w:journal=192 fences=2 traps=1
append 4096      user-data=701.064ns journal=230.128ns software=1540.000ns w:user-data=4096 w:journal=192 fences=3 traps=1
append 700       user-data=203.550ns journal=230.128ns software=1540.000ns w:user-data=700 w:journal=192 fences=3 traps=1
appendv 2        user-data=215.950ns journal=230.128ns software=1240.000ns w:user-data=300 w:journal=192 fences=3 traps=1
overwrite        user-data=904.500ns journal=230.128ns software=1240.000ns w:user-data=5000 w:journal=192 fences=3 traps=1
read_at          user-data=626.400ns software=730.000ns r:user-data=6000 fences=0 traps=1
read_at eof      software=730.000ns fences=0 traps=1
lseek            software=600.000ns fences=0 traps=1
write            user-data=144.950ns journal=230.128ns software=1240.000ns w:user-data=300 w:journal=192 fences=3 traps=1
read             user-data=330.400ns software=730.000ns r:user-data=1000 fences=0 traps=1
fsync            software=600.000ns fences=0 traps=1
fsync_many       software=600.000ns fences=0 traps=1
fstat            software=600.000ns fences=0 traps=1
ftruncate grow   user-data=422.128ns journal=460.256ns software=1880.000ns w:user-data=2192 w:journal=384 fences=5 traps=1
ftruncate cut    user-data=261.564ns journal=460.256ns software=1880.000ns w:user-data=1096 w:journal=384 fences=5 traps=1
open O_TRUNC     journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
append reopened  user-data=203.550ns journal=230.128ns software=1540.000ns w:user-data=700 w:journal=192 fences=3 traps=1
mkdir            journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
create in dir    journal=230.128ns software=2140.000ns w:journal=192 fences=2 traps=2
rename           journal=460.256ns software=1880.000ns w:journal=384 fences=4 traps=1
stat             software=600.000ns fences=0 traps=1
readdir          software=600.000ns fences=0 traps=1
unlink           journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
close            software=600.000ns fences=0 traps=1
mkdir empty      journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
rmdir            journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
sync             fences=0 traps=0
";

const NOVA_STRICT: &str = "\
create           journal=230.128ns software=1540.000ns w:journal=192 fences=2 traps=1
append 4096      user-data=701.064ns journal=230.128ns software=1540.000ns w:user-data=4096 w:journal=192 fences=3 traps=1
append 700       user-data=701.064ns journal=230.128ns software=1540.000ns w:user-data=4096 w:journal=192 fences=3 traps=1
appendv 2        user-data=1918.204ns journal=230.128ns software=1840.000ns w:user-data=8192 w:journal=192 r:user-data=8192 fences=3 traps=1
overwrite        user-data=1918.204ns journal=230.128ns software=1540.000ns w:user-data=8192 w:journal=192 r:user-data=8192 fences=3 traps=1
read_at          user-data=626.400ns software=730.000ns r:user-data=6000 fences=0 traps=1
read_at eof      software=730.000ns fences=0 traps=1
lseek            software=600.000ns fences=0 traps=1
write            user-data=974.102ns journal=230.128ns software=1540.000ns w:user-data=4096 w:journal=192 r:user-data=4096 fences=3 traps=1
read             user-data=330.400ns software=730.000ns r:user-data=1000 fences=0 traps=1
fsync            software=600.000ns fences=0 traps=1
fsync_many       software=600.000ns fences=0 traps=1
fstat            software=600.000ns fences=0 traps=1
ftruncate grow   user-data=974.102ns journal=460.256ns software=2180.000ns w:user-data=4096 w:journal=384 r:user-data=4096 fences=5 traps=1
ftruncate cut    user-data=974.102ns journal=460.256ns software=2180.000ns w:user-data=4096 w:journal=384 r:user-data=4096 fences=5 traps=1
open O_TRUNC     journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
append reopened  user-data=701.064ns journal=230.128ns software=1540.000ns w:user-data=4096 w:journal=192 fences=3 traps=1
mkdir            journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
create in dir    journal=230.128ns software=2140.000ns w:journal=192 fences=2 traps=2
rename           journal=460.256ns software=1880.000ns w:journal=384 fences=4 traps=1
stat             software=600.000ns fences=0 traps=1
readdir          software=600.000ns fences=0 traps=1
unlink           journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
close            software=600.000ns fences=0 traps=1
mkdir empty      journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
rmdir            journal=230.128ns software=1240.000ns w:journal=192 fences=2 traps=1
sync             fences=0 traps=0
";

const STRATA: &str = "\
create           user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
append 4096      user-data=701.064ns journal=80.376ns software=770.000ns w:user-data=4096 w:journal=64 fences=1 traps=0
append 700       user-data=203.550ns journal=80.376ns software=770.000ns w:user-data=700 w:journal=64 fences=1 traps=0
appendv 2        user-data=1113.800ns journal=160.752ns software=1190.000ns w:user-data=1800 w:journal=128 r:user-data=1500 fences=2 traps=0
overwrite        user-data=1820.438ns journal=160.752ns software=1190.000ns w:user-data=6000 w:journal=128 r:user-data=5096 fences=2 traps=0
read_at          user-data=762.400ns software=350.000ns r:user-data=6000 fences=0 traps=0
read_at eof      software=350.000ns fences=0 traps=0
lseek            software=350.000ns fences=0 traps=0
write            user-data=1110.102ns journal=80.376ns software=770.000ns w:user-data=4096 w:journal=64 r:user-data=4096 fences=1 traps=0
read             user-data=330.400ns software=350.000ns r:user-data=1000 fences=0 traps=0
fsync            software=350.000ns fences=0 traps=0
fsync_many       software=350.000ns fences=0 traps=0
fstat            software=350.000ns fences=0 traps=0
ftruncate grow   user-data=1084.426ns journal=160.752ns software=1190.000ns w:user-data=4096 w:journal=128 r:user-data=1904 fences=2 traps=0
ftruncate cut    user-data=1140.102ns journal=160.752ns software=1190.000ns w:user-data=4096 w:journal=128 r:user-data=4096 fences=2 traps=0
open O_TRUNC     user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
append reopened  user-data=203.550ns journal=80.376ns software=770.000ns w:user-data=700 w:journal=64 fences=1 traps=0
mkdir            user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
create in dir    user-data=30.000ns journal=80.376ns software=1120.000ns w:journal=64 fences=1 traps=0
rename           user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
stat             software=350.000ns fences=0 traps=0
readdir          software=350.000ns fences=0 traps=0
unlink           user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
close            software=350.000ns fences=0 traps=0
mkdir empty      user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
rmdir            user-data=30.000ns journal=80.376ns software=770.000ns w:journal=64 fences=1 traps=0
sync             journal=390.330ns software=35.000ns w:journal=700 r:journal=700 fences=1 traps=0
";
