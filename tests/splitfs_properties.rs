//! Property-based tests: SplitFS (all three modes) must behave like a
//! simple in-memory file model for arbitrary sequences of data operations
//! and of namespace operations, and crash-recovery in strict mode must
//! never lose an acknowledged append.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use splitfs_repro::kernelfs::Ext4Dax;
use splitfs_repro::pmem::PmemBuilder;
use splitfs_repro::splitfs::{recover, Mode, SplitConfig, SplitFs};
use splitfs_repro::vfs::{Fd, FileSystem, FsError, OpenFlags};

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    Append(Vec<u8>),
    WriteAt(u16, Vec<u8>),
    Fsync,
    Truncate(u16),
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (prop::collection::vec(any::<u8>(), 1..2000)).prop_map(Op::Append),
        (any::<u16>(), prop::collection::vec(any::<u8>(), 1..1500))
            .prop_map(|(off, data)| Op::WriteAt(off, data)),
        Just(Op::Fsync),
        any::<u16>().prop_map(Op::Truncate),
        Just(Op::Reopen),
    ]
}

/// Applies an op to the reference model (a plain byte vector).
fn apply_model(model: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Append(data) => model.extend_from_slice(data),
        Op::WriteAt(off, data) => {
            let off = *off as usize;
            if model.len() < off + data.len() {
                model.resize(off + data.len(), 0);
            }
            model[off..off + data.len()].copy_from_slice(data);
        }
        Op::Truncate(size) => {
            let size = *size as usize;
            if model.len() > size {
                model.truncate(size);
            } else {
                model.resize(size, 0);
            }
        }
        Op::Fsync | Op::Reopen => {}
    }
}

fn run_against_splitfs(mode: Mode, ops: &[Op]) -> (Vec<u8>, Vec<u8>) {
    let device = PmemBuilder::new(192 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(device).unwrap();
    let config = SplitConfig::new(mode)
        .with_staging(2, 4 * 1024 * 1024)
        .with_oplog_size(512 * 1024);
    let fs = SplitFs::new(kernel, config).unwrap();

    let mut model = Vec::new();
    let mut fd = fs.open("/prop.dat", OpenFlags::create()).unwrap();
    for op in ops {
        match op {
            Op::Append(data) => {
                fs.append(fd, data).unwrap();
            }
            Op::WriteAt(off, data) => {
                fs.write_at(fd, *off as u64, data).unwrap();
            }
            Op::Fsync => fs.fsync(fd).unwrap(),
            Op::Truncate(size) => fs.ftruncate(fd, *size as u64).unwrap(),
            Op::Reopen => {
                fs.close(fd).unwrap();
                fd = fs.open("/prop.dat", OpenFlags::read_write()).unwrap();
            }
        }
        apply_model(&mut model, op);
    }
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    (fs.read_file("/prop.dat").unwrap(), model)
}

/// Directory names the namespace workload moves its (at most three)
/// directories between, and the file names inside them.
const DIR_NAMES: usize = 4;
const FILE_NAMES: usize = 8;

/// One step of the generated namespace workload.  New names are picked by
/// (directory, file) index, existing files by rank among the live paths;
/// a step whose operands do not exist is skipped.
#[derive(Debug, Clone)]
enum NsOp {
    /// `open(O_CREAT)`; the descriptor stays open.
    Create(usize, usize),
    /// Append without `fsync`, opening the file first if need be.
    Append(usize, u16),
    Close(usize),
    Reopen(usize),
    RenameFile(usize, (usize, usize)),
    RenameDir(usize, usize),
    Unlink(usize),
}

fn ns_op_strategy() -> impl Strategy<Value = NsOp> {
    let name = || (0..DIR_NAMES, 0..FILE_NAMES);
    let live = || 0..DIR_NAMES * FILE_NAMES;
    prop_oneof![
        name().prop_map(|(d, n)| NsOp::Create(d, n)),
        name().prop_map(|(d, n)| NsOp::Create(d, n)),
        (live(), 1u16..3000).prop_map(|(f, len)| NsOp::Append(f, len)),
        live().prop_map(NsOp::Close),
        live().prop_map(NsOp::Reopen),
        (live(), name()).prop_map(|(f, to)| NsOp::RenameFile(f, to)),
        (0..DIR_NAMES, 0..DIR_NAMES).prop_map(|(from, to)| NsOp::RenameDir(from, to)),
        live().prop_map(NsOp::Unlink),
    ]
}

/// The reference: every live path with its inode and size, plus the
/// descriptors the workload holds (one per open file, keyed by inode).
#[derive(Default)]
struct NsModel {
    files: HashMap<String, (u64, u64)>,
    open: HashMap<u64, Fd>,
}

impl NsModel {
    /// The live path of rank `pick` (wrapping), if any file is live.
    fn pick(&self, pick: usize) -> Option<String> {
        let mut paths: Vec<&String> = self.files.keys().collect();
        paths.sort();
        paths.get(pick % paths.len().max(1)).map(|p| p.to_string())
    }
}

fn file_path(dir: usize, name: usize) -> String {
    format!("/dir{dir}/f{name}")
}

/// Runs `ops` against SplitFS, comparing `stat` of **every** path with the
/// model after each step, and the kernel's view of every live path with it
/// at the end.
fn run_namespace_ops(mode: Mode, ops: &[NsOp]) -> Result<(), String> {
    let device = PmemBuilder::new(192 * 1024 * 1024)
        .track_persistence(false)
        .build();
    let kernel = Ext4Dax::mkfs(device).unwrap();
    let config = SplitConfig::new(mode)
        .with_staging(2, 4 * 1024 * 1024)
        .with_oplog_size(512 * 1024);
    let fs = SplitFs::new(Arc::clone(&kernel), config).unwrap();

    let mut dir_live = [false; DIR_NAMES];
    for (d, live) in dir_live.iter_mut().enumerate().take(3) {
        fs.mkdir(&format!("/dir{d}")).unwrap();
        *live = true;
    }
    let mut model = NsModel::default();
    for op in ops {
        match *op {
            NsOp::Create(d, n) if dir_live[d] => {
                let path = file_path(d, n);
                let fd = fs.open(&path, OpenFlags::create()).unwrap();
                let ino = fs.fstat(fd).unwrap().ino;
                model.files.entry(path).or_insert((ino, 0));
                // One descriptor per file: a second one goes right back.
                if let Some(extra) = model.open.insert(ino, fd) {
                    fs.close(extra).unwrap();
                }
            }
            NsOp::Append(f, len) => {
                if let Some(path) = model.pick(f) {
                    let (ino, size) = model.files.get_mut(&path).unwrap();
                    let fd = *model
                        .open
                        .entry(*ino)
                        .or_insert_with(|| fs.open(&path, OpenFlags::read_write()).unwrap());
                    fs.append(fd, &vec![f as u8; len as usize]).unwrap();
                    *size += len as u64;
                }
            }
            NsOp::Close(f) => {
                if let Some(path) = model.pick(f) {
                    if let Some(fd) = model.open.remove(&model.files[&path].0) {
                        fs.close(fd).unwrap();
                    }
                }
            }
            NsOp::Reopen(f) => {
                if let Some(path) = model.pick(f) {
                    model
                        .open
                        .entry(model.files[&path].0)
                        .or_insert_with(|| fs.open(&path, OpenFlags::read_write()).unwrap());
                }
            }
            NsOp::RenameFile(f, to) if dir_live[to.0] => {
                if let Some(old) = model.pick(f) {
                    let new = file_path(to.0, to.1);
                    fs.rename(&old, &new).unwrap();
                    let moved = model.files.remove(&old).unwrap();
                    let replaced = model.files.insert(new, moved);
                    // A replaced file has no blocks any more; all its
                    // descriptor is still good for is `close`.
                    if let Some(fd) = replaced
                        .filter(|r| r.0 != moved.0)
                        .and_then(|(ino, _)| model.open.remove(&ino))
                    {
                        prop_assert_eq!(fs.close(fd), Ok(()));
                    }
                }
            }
            NsOp::RenameDir(from, to) if dir_live[from] && !dir_live[to] => {
                fs.rename(&format!("/dir{from}"), &format!("/dir{to}"))
                    .unwrap();
                dir_live[from] = false;
                dir_live[to] = true;
                let prefix = format!("/dir{from}/");
                model.files = std::mem::take(&mut model.files)
                    .into_iter()
                    .map(|(path, v)| match path.strip_prefix(&prefix) {
                        Some(rest) => (format!("/dir{to}/{rest}"), v),
                        None => (path, v),
                    })
                    .collect();
            }
            NsOp::Unlink(f) => {
                if let Some(path) = model.pick(f) {
                    let (ino, size) = model.files.remove(&path).unwrap();
                    fs.unlink(&path).unwrap();
                    // An open descriptor outlives the name.
                    if let Some(fd) = model.open.remove(&ino) {
                        prop_assert_eq!(fs.fstat(fd).map(|st| (st.ino, st.size)), Ok((ino, size)));
                        fs.close(fd).unwrap();
                    }
                }
            }
            _ => {}
        }
        for d in 0..DIR_NAMES {
            for n in 0..FILE_NAMES {
                let path = file_path(d, n);
                let got = fs.stat(&path).map(|st| (st.ino, st.size));
                let want = model.files.get(&path).copied().ok_or(FsError::NotFound);
                prop_assert_eq!(got, want, "stat({}) after {:?}", path, op);
            }
        }
    }
    for fd in model.open.values() {
        fs.fsync(*fd).unwrap();
    }
    for (path, want) in &model.files {
        let st = kernel.stat(path).unwrap();
        prop_assert_eq!((st.ino, st.size), *want, "kernel stat({})", path);
    }
    // Everything else U-Split cached was dropped with its name.
    prop_assert_eq!(fs.memory_usage().cached_files, model.files.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary operation sequences observe the same bytes on SplitFS as
    /// on the in-memory reference model, in every mode.
    #[test]
    fn splitfs_matches_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..25),
        mode_idx in 0usize..3,
    ) {
        let mode = [Mode::Posix, Mode::Sync, Mode::Strict][mode_idx];
        let (actual, expected) = run_against_splitfs(mode, &ops);
        prop_assert_eq!(actual, expected);
    }

    /// Arbitrary create / append / close / re-open / rename / unlink
    /// sequences keep U-Split's path-indexed attribute cache in step with
    /// a path → (inode, size) model and, once synced, with the kernel.
    #[test]
    fn path_index_matches_reference_model(
        ops in prop::collection::vec(ns_op_strategy(), 1..60),
        mode_idx in 0usize..3,
    ) {
        let mode = [Mode::Posix, Mode::Sync, Mode::Strict][mode_idx];
        run_namespace_ops(mode, &ops)?;
    }

    /// In strict mode, any prefix of appends acknowledged before a crash is
    /// recovered completely — the file never loses or corrupts acknowledged
    /// data, even without an fsync.
    #[test]
    fn strict_mode_appends_survive_crashes(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..3000), 1..12),
    ) {
        let device = PmemBuilder::new(192 * 1024 * 1024).build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
        let config = SplitConfig::new(Mode::Strict)
            .with_staging(2, 4 * 1024 * 1024)
            .with_oplog_size(256 * 1024);
        let fs = SplitFs::new(Arc::clone(&kernel), config.clone()).unwrap();

        let fd = fs.open("/crash.dat", OpenFlags::create()).unwrap();
        let mut expected = Vec::new();
        for chunk in &chunks {
            fs.append(fd, chunk).unwrap();
            expected.extend_from_slice(chunk);
        }
        device.crash();

        let kernel2 = Ext4Dax::mount(Arc::clone(&device)).unwrap();
        recover(&kernel2, &config).unwrap();
        let data = kernel2.read_file("/crash.dat").unwrap();
        prop_assert_eq!(data, expected);
    }
}
