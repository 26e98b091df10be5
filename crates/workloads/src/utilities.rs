//! Metadata-heavy utility workloads (paper §5.9, Figure 6 right half).
//!
//! The paper evaluates git, tar and rsync — workloads dominated by file
//! creation, stat, rename and small writes, where SplitFS's extra
//! user-space bookkeeping is pure overhead.  These generators reproduce the
//! same operation mixes on a synthetic file tree:
//!
//! * [`git_like`] — "git add + commit": hash and copy many small source
//!   files into an object store, write an index, and move refs with renames.
//! * [`tar_like`] — pack a directory tree into one large archive file with
//!   sequential appends.
//! * [`rsync_like`] — mirror a tree into another directory: stat + create +
//!   copy + fsync per file.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vfs::{FileSystem, FsResult, OpenFlags};

use crate::RunResult;

/// Shape of the synthetic source tree.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Number of directories.
    pub dirs: usize,
    /// Files per directory.
    pub files_per_dir: usize,
    /// Mean file size in bytes.
    pub mean_file_size: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            dirs: 8,
            files_per_dir: 64,
            mean_file_size: 4096,
            seed: 11,
        }
    }
}

/// Creates the synthetic source tree under `root` (setup, not measured by
/// callers that reset stats afterwards).
pub fn build_tree(
    fs: &Arc<dyn FileSystem>,
    root: &str,
    config: &TreeConfig,
) -> FsResult<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    if !fs.exists(root) {
        fs.mkdir(root)?;
    }
    let mut paths = Vec::new();
    for d in 0..config.dirs {
        let dir = format!("{root}/dir{d:03}");
        if !fs.exists(&dir) {
            fs.mkdir(&dir)?;
        }
        for f in 0..config.files_per_dir {
            let path = format!("{dir}/file{f:04}.c");
            let size = rng.random_range(config.mean_file_size / 2..config.mean_file_size * 2);
            let content: Vec<u8> = (0..size)
                .map(|i| ((i * 31 + f * 7 + d) % 251) as u8)
                .collect();
            fs.write_file(&path, &content)?;
            paths.push(path);
        }
    }
    Ok(paths)
}

/// "git add + commit" over the tree at `root`: every file is stat-ed, read,
/// and copied into an object store under a content-derived name; then an
/// index file and a ref file are written and atomically renamed into place.
pub fn git_like(fs: &Arc<dyn FileSystem>, root: &str, paths: &[String]) -> FsResult<RunResult> {
    let objects = format!("{root}/.git-objects");
    let fs2 = Arc::clone(fs);
    let paths = paths.to_vec();
    let root = root.to_string();
    let ops = paths.len() as u64;
    RunResult::measure(fs, "git", ops, move || {
        if !fs2.exists(&objects) {
            fs2.mkdir(&objects)?;
        }
        let mut index = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            let meta = fs2.stat(path)?;
            let data = fs2.read_file(path)?;
            // Content "hash": cheap but content-derived, so object names are
            // stable like git blob ids.
            let hash = vfs::util::checksum32(&data);
            let object_path = format!("{objects}/obj-{hash:08x}-{i}");
            fs2.write_file(&object_path, &data)?;
            index.extend_from_slice(format!("{path} {hash:08x} {}\n", meta.size).as_bytes());
        }
        // Write the index and commit ref via temp-file + rename, as git does.
        let index_tmp = format!("{root}/.git-index.tmp");
        fs2.write_file(&index_tmp, &index)?;
        fs2.rename(&index_tmp, &format!("{root}/.git-index"))?;
        let ref_tmp = format!("{root}/.git-ref.tmp");
        fs2.write_file(&ref_tmp, b"commit-0000001\n")?;
        fs2.rename(&ref_tmp, &format!("{root}/.git-HEAD"))?;
        Ok(())
    })
}

/// "tar" the tree at `root` into `archive`: read every file and append a
/// header + its contents to one growing archive, fsyncing at the end.
pub fn tar_like(fs: &Arc<dyn FileSystem>, paths: &[String], archive: &str) -> FsResult<RunResult> {
    let fs2 = Arc::clone(fs);
    let paths = paths.to_vec();
    let archive = archive.to_string();
    let ops = paths.len() as u64;
    RunResult::measure(fs, "tar", ops, move || {
        let fd = fs2.open(&archive, OpenFlags::create_truncate())?;
        for path in &paths {
            let data = fs2.read_file(path)?;
            let mut header = vec![0u8; 512];
            let name = path.as_bytes();
            header[..name.len().min(100)].copy_from_slice(&name[..name.len().min(100)]);
            header[124..136].copy_from_slice(format!("{:012}", data.len()).as_bytes());
            fs2.append(fd, &header)?;
            fs2.append(fd, &data)?;
            // Pad to the 512-byte record size like tar.
            let pad = (512 - data.len() % 512) % 512;
            if pad > 0 {
                fs2.append(fd, &vec![0u8; pad])?;
            }
        }
        fs2.fsync(fd)?;
        fs2.close(fd)?;
        Ok(())
    })
}

/// "rsync" the tree at `src_root` into `dst_root`: stat source and (missing)
/// destination, create the destination file, copy the bytes and fsync it.
pub fn rsync_like(
    fs: &Arc<dyn FileSystem>,
    src_root: &str,
    paths: &[String],
    dst_root: &str,
) -> FsResult<RunResult> {
    let fs2 = Arc::clone(fs);
    let paths = paths.to_vec();
    let src_root = src_root.to_string();
    let dst_root = dst_root.to_string();
    let ops = paths.len() as u64;
    RunResult::measure(fs, "rsync", ops, move || {
        if !fs2.exists(&dst_root) {
            fs2.mkdir(&dst_root)?;
        }
        for path in &paths {
            let rel = path.strip_prefix(src_root.as_str()).unwrap_or(path);
            let dst_path = format!("{dst_root}{rel}");
            // Ensure the destination directory exists.
            let norm = vfs::path::normalize(&dst_path)?;
            if let Ok((parent, _)) = vfs::path::split(&norm) {
                if !fs2.exists(parent) {
                    fs2.mkdir(parent)?;
                }
            }
            let _ = fs2.stat(path)?;
            let exists = fs2.exists(&dst_path);
            let data = fs2.read_file(path)?;
            if !exists {
                fs2.write_file(&dst_path, &data)?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelfs::Ext4Dax;
    use pmem::PmemBuilder;

    fn fs() -> Arc<dyn FileSystem> {
        let device = PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        Ext4Dax::mkfs(device).unwrap() as Arc<dyn FileSystem>
    }

    fn tiny_tree() -> TreeConfig {
        TreeConfig {
            dirs: 2,
            files_per_dir: 8,
            mean_file_size: 1024,
            seed: 5,
        }
    }

    #[test]
    fn git_like_creates_objects_and_index() {
        let fs = fs();
        let paths = build_tree(&fs, "/src", &tiny_tree()).unwrap();
        let result = git_like(&fs, "/src", &paths).unwrap();
        assert_eq!(result.ops, 16);
        assert!(result.elapsed_ns > 0.0);
        assert!(fs.exists("/src/.git-index"));
        assert!(fs.exists("/src/.git-HEAD"));
        assert_eq!(fs.readdir("/src/.git-objects").unwrap().len(), 16);
    }

    #[test]
    fn tar_like_produces_one_archive_holding_everything() {
        let fs = fs();
        let paths = build_tree(&fs, "/src", &tiny_tree()).unwrap();
        let result = tar_like(&fs, &paths, "/archive.tar").unwrap();
        assert_eq!(result.ops, 16);
        let total_input: u64 = paths.iter().map(|p| fs.stat(p).unwrap().size).sum();
        let archive_size = fs.stat("/archive.tar").unwrap().size;
        assert!(archive_size >= total_input, "archive must contain all data");
    }

    #[test]
    fn rsync_like_mirrors_the_tree() {
        let fs = fs();
        let paths = build_tree(&fs, "/src", &tiny_tree()).unwrap();
        let result = rsync_like(&fs, "/src", &paths, "/dst").unwrap();
        assert_eq!(result.ops, 16);
        for path in &paths {
            let rel = path.strip_prefix("/src").unwrap();
            let copy = format!("/dst{rel}");
            assert_eq!(
                fs.read_file(&copy).unwrap(),
                fs.read_file(path).unwrap(),
                "mismatch for {copy}"
            );
        }
    }
}
