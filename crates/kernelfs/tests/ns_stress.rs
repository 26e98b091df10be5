//! Concurrent metadata stress: eight threads race create/rename/unlink
//! (plus stats and readdirs that exercise the full-path cache) over
//! **overlapping** names, so they keep taking the one namespace lock and
//! the one inode-table lock from each other, and a path one thread
//! resolved is often gone or taken by the time the next thread resolves
//! it.  Afterwards the whole-tree fsck ([`Ext4Dax::check_namespace`]) must
//! find zero violations and every surviving path must stat cleanly.

use std::sync::Arc;

use kernelfs::Ext4Dax;
use pmem::PmemBuilder;
use vfs::{FileSystem, FsError, OpenFlags};

fn fs() -> Arc<Ext4Dax> {
    let device = PmemBuilder::new(256 * 1024 * 1024).build();
    Ext4Dax::mkfs(device).unwrap()
}

/// Errors a racing metadata op is allowed to see: somebody else already
/// created/removed/renamed the node this iteration was aiming at.
fn racy_ok(e: &FsError) -> bool {
    matches!(
        e,
        FsError::NotFound | FsError::AlreadyExists | FsError::IsADirectory | FsError::NotEmpty
    )
}

#[test]
fn concurrent_create_rename_unlink_keeps_tree_consistent() {
    let fs = fs();
    const DIRS: usize = 4;
    const THREADS: usize = 8;
    const ITERS: usize = 120;
    for d in 0..DIRS {
        fs.mkdir(&format!("/d{d}")).unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let fs = Arc::clone(&fs);
            scope.spawn(move || {
                for i in 0..ITERS {
                    // Deliberately overlapping names: only THREADS/2 name
                    // slots, so two threads regularly fight over one path.
                    let slot = (t + i) % (THREADS / 2);
                    let src_dir = (t + i) % DIRS;
                    let dst_dir = (t + i + 1) % DIRS;
                    let src = format!("/d{src_dir}/f{slot}");
                    let dst = format!("/d{dst_dir}/f{slot}");
                    match fs.open(&src, OpenFlags::create()) {
                        Ok(fd) => fs.close(fd).unwrap(),
                        Err(e) => assert!(racy_ok(&e), "create {src}: {e}"),
                    }
                    if let Err(e) = fs.rename(&src, &dst) {
                        assert!(racy_ok(&e), "rename {src} -> {dst}: {e}");
                    }
                    if let Err(e) = fs.stat(&dst) {
                        assert!(racy_ok(&e), "stat {dst}: {e}");
                    }
                    if i % 3 == 0 {
                        if let Err(e) = fs.unlink(&dst) {
                            assert!(racy_ok(&e), "unlink {dst}: {e}");
                        }
                    }
                }
            });
        }
    });

    let violations = fs.check_namespace();
    assert!(violations.is_empty(), "fsck violations: {violations:#?}");
    // Every surviving entry must stat cleanly through the path cache.
    for d in 0..DIRS {
        let dir = format!("/d{d}");
        for name in fs.readdir(&dir).unwrap() {
            fs.stat(&format!("{dir}/{name}"))
                .unwrap_or_else(|e| panic!("dangling entry {dir}/{name}: {e}"));
        }
    }
}
