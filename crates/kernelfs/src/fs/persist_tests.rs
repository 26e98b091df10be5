//! K-Split's in-place inode persistence: the changed-lines path against
//! a whole rewrite, overflow-chain reservation, and crash cuts inside a
//! chain-growing relink.

use super::*;
use crate::inode::{EXTENTS_PER_OVERFLOW, INLINE_EXTENTS};
use pmem::{CrashPolicy, PmemBuilder};
use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

const B: u64 = BLOCK_SIZE as u64;

fn small_fs(mib: usize) -> Arc<Ext4Dax> {
    Ext4Dax::mkfs(PmemBuilder::new(mib << 20).build()).unwrap()
}

/// `(size, extents)` of one inode.
type Map = (u64, Vec<Extent>);

fn map_of(fs: &Ext4Dax, fd: Fd) -> Map {
    let ino = fs.fd_ino(fd).unwrap();
    let inodes = fs.inodes_read();
    let inode = &inodes[&ino];
    (inode.size, inode.extents.iter().collect())
}

/// Every live inode's map, by inode number.
fn all_maps(fs: &Ext4Dax) -> BTreeMap<u64, Map> {
    let mut maps = BTreeMap::new();
    for (&ino, inode) in fs.inodes_read().iter() {
        maps.insert(ino, (inode.size, inode.extents.iter().collect()));
    }
    maps
}

/// Mounts a byte copy of `fs`'s device; returns its maps and free blocks.
fn mount_copy(fs: &Ext4Dax) -> (BTreeMap<u64, Map>, u64) {
    let size = fs.device.size();
    let copy = PmemBuilder::new(size).track_persistence(false).build();
    let mut bytes = vec![0u8; size];
    fs.device.read_uncharged(0, &mut bytes);
    copy.write_uncharged(0, &bytes);
    let mounted = Ext4Dax::mount(copy).unwrap();
    (all_maps(&mounted), mounted.free_blocks())
}

/// What the invariant in [`crate::inode`] promises: every live inode's
/// record and chain on the device, and its stored copy, equal a fresh
/// `serialize()`; chain and data blocks are pairwise disjoint; and the
/// allocator counts exactly those blocks as used.  Returns each inode's
/// chain length.
fn assert_in_place_state(fs: &Ext4Dax) -> BTreeMap<u64, usize> {
    let mut chains = BTreeMap::new();
    // Block -> (ino, chain index or `None` for data).
    let mut owned: HashMap<u64, (u64, Option<usize>)> = HashMap::new();
    let mut claim = |block: u64, owner: (u64, Option<usize>)| {
        if let Some(prev) = owned.insert(block, owner) {
            panic!("block {block} is both {prev:?} and {owner:?}");
        }
    };
    for (&ino, inode) in fs.inodes_read().iter() {
        let (record, chain) = inode.serialize();
        let mut on_device = vec![0u8; record.len()];
        fs.device
            .read_uncharged(fs.sb.inode_offset(ino), &mut on_device);
        assert_eq!(on_device, record, "ino {ino}: record on the device");
        assert_eq!(inode.overflow_blocks.len(), chain.len(), "ino {ino}");
        chains.insert(ino, chain.len());
        for (idx, (block, image)) in chain.iter().enumerate() {
            let mut on_device = vec![0u8; BLOCK_SIZE];
            fs.device.read_uncharged(block * B, &mut on_device);
            assert_eq!(
                &on_device, image,
                "ino {ino}: chain block {idx} on the device"
            );
            claim(*block, (ino, Some(idx)));
        }
        assert_eq!(
            inode.stored,
            Some((record, chain)),
            "ino {ino}: stored copy"
        );
        for ext in inode.extents.iter() {
            for b in ext.phys..ext.phys + ext.len {
                claim(b, (ino, None));
            }
        }
    }
    let data_blocks = fs.sb.total_blocks - fs.sb.data_start;
    assert_eq!(
        fs.free_blocks(),
        data_blocks - owned.len() as u64,
        "allocator disagrees with the maps and chains"
    );
    chains
}

/// Writes single blocks at every other logical block from `first`, so each
/// becomes an extent of its own; returns how many writes succeeded.
fn fragment(fs: &Ext4Dax, fd: Fd, first: u64, count: u64) -> u64 {
    (0..count)
        .take_while(|i| {
            fs.write_at(fd, (first + 2 * i) * B, &[0xA5; BLOCK_SIZE])
                .is_ok()
        })
        .count() as u64
}

struct Rng(u64);

impl Rng {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random op against one of `files`; a failed op (a full device, a
/// relink of an unmapped range) must leave every map as it was.
fn random_op(fs: &Ext4Dax, rng: &mut Rng, files: &mut [(String, Fd)], created: &mut u64) {
    let slot = rng.below(files.len() as u64) as usize;
    let fd = files[slot].1;
    let mut before = all_maps(fs);
    let result = match rng.below(10) {
        0..=2 => {
            let at = rng.below(96) * B + rng.below(B);
            let len = 1 + rng.below(2 * B) as usize;
            fs.write_at(fd, at, &vec![rng.next() as u8; len])
                .map(|_| ())
        }
        3 => {
            let count = 8 + rng.below(EXTENTS_PER_OVERFLOW as u64 + 40);
            fragment(fs, fd, rng.below(64), count);
            Ok(())
        }
        4..=6 => {
            // Move a mapped run out of the middle of one file into another:
            // both maps split, and a chain may grow in either.
            let dst =
                files[(slot + 1 + rng.below(files.len() as u64 - 1) as usize) % files.len()].1;
            let (_, extents) = map_of(fs, fd);
            if extents.is_empty() {
                return;
            }
            let ext = extents[rng.below(extents.len() as u64) as usize];
            let start = ext.logical + rng.below(ext.len);
            let len = 1 + rng.below(3.min(ext.logical + ext.len - start));
            fs.relink(fd, start * B, dst, rng.below(160) * B, len * B)
        }
        7 | 8 => {
            let size = map_of(fs, fd).0;
            let new_size = if rng.below(2) == 0 {
                size / (2 + rng.below(3))
            } else {
                size + rng.below(8 * B)
            };
            fs.ftruncate(fd, new_size)
        }
        _ => {
            // Unlink frees the file's data and chain; the next file's writes
            // take the freed blocks back from the allocator.
            let (path, fd) = files[slot].clone();
            fs.close(fd).unwrap();
            fs.unlink(&path).unwrap();
            *created += 1;
            let path = format!("/f{created}");
            let fd = fs.open(&path, OpenFlags::create()).unwrap();
            files[slot] = (path, fd);
            before = all_maps(fs);
            fs.write_at(fd, 0, &vec![0x3C; 3 * BLOCK_SIZE]).map(|_| ())
        }
    };
    if let Err(e) = result {
        assert!(
            matches!(e, FsError::NoSpace | FsError::InvalidArgument),
            "unexpected {e:?}"
        );
        assert_eq!(all_maps(fs), before, "a failed op changed a map");
    }
}

/// The seeded model: after every op, [`assert_in_place_state`]; after
/// every eighth, a mount of a copy of the device shows the same maps.
fn in_place_persists_match_a_fresh_serialize_and_remount(seeds: Range<u64>) {
    // Chain-length changes seen across all seeds: grew, shrank, grew again
    // after shrinking, and the longest chain.
    let (mut grew, mut shrank, mut regrew, mut longest) = (0, 0, 0, 0);
    for seed in seeds {
        let fs = small_fs(4);
        let mut rng = Rng(seed);
        let mut created = 3;
        let mut files: Vec<(String, Fd)> = (0..3)
            .map(|i| {
                let path = format!("/f{i}");
                let fd = fs.open(&path, OpenFlags::create()).unwrap();
                (path, fd)
            })
            .collect();
        let mut chains = BTreeMap::new();
        let mut shrunk = Vec::new();
        for step in 0..24 {
            random_op(&fs, &mut rng, &mut files, &mut created);
            let now = assert_in_place_state(&fs);
            for (ino, &len) in &now {
                let before = chains.get(ino).copied().unwrap_or(0);
                if len > before {
                    grew += 1;
                    regrew += shrunk.contains(ino) as u32;
                } else if len < before {
                    shrank += 1;
                    shrunk.push(*ino);
                }
                longest = longest.max(len);
            }
            chains = now;
            if step % 8 == 7 {
                let (maps, free) = mount_copy(&fs);
                assert_eq!(maps, all_maps(&fs), "seed {seed} step {step}: remount");
                // A freed chain block's bit can linger in the bitmap (a
                // persisted byte carries its neighbours' bits), so a mount
                // may count it used: a leak, never a used block as free.
                assert!(free <= fs.free_blocks(), "seed {seed} step {step}: free");
            }
        }
        assert!(fs.check_namespace().is_empty(), "seed {seed}");
    }
    assert!(
        grew > 0 && shrank > 0 && regrew > 0 && longest >= 2,
        "chains grew {grew}, shrank {shrank}, regrew {regrew}, longest {longest}"
    );
}

#[test]
fn in_place_persists_match_a_fresh_serialize_and_remount_seeds_0_to_99() {
    in_place_persists_match_a_fresh_serialize_and_remount(0..100);
}

#[test]
fn in_place_persists_match_a_fresh_serialize_and_remount_seeds_100_to_199() {
    in_place_persists_match_a_fresh_serialize_and_remount(100..200);
}

#[test]
fn a_chain_that_grows_shrinks_and_regrows_is_rewritten_whole_where_its_blocks_changed() {
    // 4 MiB: one allocator region, so freed blocks come back once the
    // cursor wraps.
    let fs = small_fs(4);
    let fd = fs.open("/frag", OpenFlags::create()).unwrap();
    let two_blocks = (INLINE_EXTENTS + EXTENTS_PER_OVERFLOW + 10) as u64;
    assert_eq!(fragment(&fs, fd, 0, two_blocks), two_blocks);
    let ino = fs.fd_ino(fd).unwrap();
    let chain = |fs: &Ext4Dax| fs.inodes_read()[&ino].overflow_blocks.clone();
    let grown = chain(&fs);
    assert_eq!(grown.len(), 2);
    assert_in_place_state(&fs);

    // Shrink to one chain block, hand the freed one to another file as
    // data, then regrow: the second chain block is a new block, written
    // whole, and the other file's data is untouched.
    fs.ftruncate(fd, (2 * (INLINE_EXTENTS + 20) as u64) * B)
        .unwrap();
    assert_eq!(chain(&fs), grown[..1]);
    let pad = fs.open("/pad", OpenFlags::create()).unwrap();
    let mut at = 0;
    let reused = loop {
        fs.write_at(pad, at, &[0x77; BLOCK_SIZE])
            .expect("the freed chain block must come back as data");
        at += B;
        let (_, extents) = map_of(&fs, pad);
        if let Some(e) = extents
            .iter()
            .find(|e| (e.phys..e.phys + e.len).contains(&grown[1]))
        {
            break e.logical + (grown[1] - e.phys);
        }
    };
    let other = fs.open("/other", OpenFlags::create()).unwrap();
    fs.relink(pad, reused * B, other, 0, B).unwrap();
    fs.close(pad).unwrap();
    fs.unlink("/pad").unwrap();
    assert_in_place_state(&fs);
    let regrow = EXTENTS_PER_OVERFLOW as u64;
    assert_eq!(
        fragment(&fs, fd, 2 * (INLINE_EXTENTS + 20) as u64, regrow),
        regrow
    );
    let regrown = chain(&fs);
    assert_eq!(regrown.len(), 2);
    assert_ne!(regrown[1], grown[1]);
    assert_in_place_state(&fs);
    assert!(fs.read_file("/other").unwrap().iter().all(|&b| b == 0x77));
    assert_eq!(mount_copy(&fs).0, all_maps(&fs));
}

/// The root cause of the benchmark's second-crash failures
/// (`splitfs.long_run_failed_recoveries` 3 of 11): after a mount, a live
/// chain block went out as the next file's data.
#[test]
fn mount_keeps_loaded_overflow_chains_allocated() {
    let device = PmemBuilder::new(8 << 20).build();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let fd = fs.open("/frag", OpenFlags::create()).unwrap();
    fragment(&fs, fd, 0, (INLINE_EXTENTS + 5) as u64);
    let (frag, map, free) = (fs.fd_ino(fd).unwrap(), map_of(&fs, fd), fs.free_blocks());
    let (sb, chain_block) = (fs.sb, fs.inodes_read()[&frag].overflow_blocks[0]);
    fs.close(fd).unwrap();
    drop(fs);

    // Whether a chain block's bit reached the bitmap depends on whether a
    // data allocation later persisted the byte it shares.  Clear it: a
    // mount that trusted the bitmap would hand the block out as the next
    // file's data, whose writes would overwrite the chain the following
    // mount reads.
    let at = sb.bitmap_start * B + chain_block / 8;
    let mut byte = [0u8];
    device.read_uncharged(at, &mut byte);
    device.write_uncharged(at, &[byte[0] & !(1 << (chain_block % 8))]);

    let fs = Ext4Dax::mount(Arc::clone(&device)).unwrap();
    assert_eq!(fs.free_blocks(), free);
    let fd = fs.open("/next", OpenFlags::create()).unwrap();
    fs.write_at(fd, 0, &vec![0xEE; 8 * BLOCK_SIZE]).unwrap();
    assert_in_place_state(&fs);
    drop(fs);
    let fs = Ext4Dax::mount(device).unwrap();
    assert_eq!(all_maps(&fs)[&frag], map);
}

/// The journal still holds an allocation of blocks 80..83, the relink
/// that moved them out, and a regrow that allocated block 82 onward
/// again; replayed onto the newer in-place map, the three must redo in
/// order — not skip the first and stack the last on what the relink's
/// replay left.
#[test]
fn replayed_add_extent_records_set_their_range() {
    let fs = small_fs(4);
    let a = fs.open("/a", OpenFlags::create()).unwrap();
    let b = fs.open("/b", OpenFlags::create()).unwrap();
    fs.write_at(a, 80 * B, &vec![1u8; 5 * BLOCK_SIZE / 2])
        .unwrap();
    fs.relink(a, 80 * B, b, 0, 3 * B).unwrap();
    fs.ftruncate(a, 90 * B).unwrap();
    assert_eq!(map_of(&fs, a).1.len(), 1);
    assert_eq!(mount_copy(&fs).0, all_maps(&fs));
}

/// Writes `/fill` until the device is full; returns its descriptor and
/// size.
fn fill_device(fs: &Ext4Dax) -> (Fd, u64) {
    let fill = fs.open("/fill", OpenFlags::create()).unwrap();
    let mut filled = 0;
    for chunk in [64 * B, B] {
        while fs
            .write_at(fill, filled, &vec![1u8; chunk as usize])
            .is_ok()
        {
            filled += chunk;
        }
    }
    assert_eq!(fs.free_blocks(), 0);
    (fill, filled)
}

#[test]
fn relink_fails_closed_when_a_chain_cannot_grow() {
    let fs = small_fs(16);
    let a = fs.open("/a", OpenFlags::create()).unwrap();
    fs.ftruncate(a, 64 * B).unwrap();
    let b = fs.open("/b", OpenFlags::create()).unwrap();
    let (fill, _) = fill_device(&fs);
    fs.close(fill).unwrap();

    let relink = |i: u64| fs.relink(a, 2 * i * B, b, 2 * i * B, B);
    let mut failed = None;
    for i in 0..30 {
        let before = (map_of(&fs, a), map_of(&fs, b));
        match relink(i) {
            Ok(()) => {}
            Err(e) => {
                assert_eq!(e, FsError::NoSpace);
                assert_eq!((map_of(&fs, a), map_of(&fs, b)), before);
                assert!(fs.check_namespace().is_empty());
                assert_in_place_state(&fs);
                failed = Some(i);
                break;
            }
        }
    }
    let first_failure = failed.expect("a full device must stop the chain from growing");
    assert!(first_failure > 0);

    fs.unlink("/fill").unwrap();
    for i in first_failure..30 {
        relink(i).unwrap();
    }
    assert_in_place_state(&fs);
    assert!(fs.check_namespace().is_empty());
    assert_eq!(map_of(&fs, b).1.len(), 30);
    assert_eq!(mount_copy(&fs).0, all_maps(&fs));
}

#[test]
fn a_relink_batch_fails_closed_when_a_copy_cannot_get_a_block() {
    let fs = small_fs(16);
    let src = fs.open("/src", OpenFlags::create()).unwrap();
    fs.write_at(src, 0, &vec![3u8; 3 * BLOCK_SIZE]).unwrap();
    let dst = fs.open("/dst", OpenFlags::create()).unwrap();
    fs.write_at(dst, 0, &[1u8; 100]).unwrap();
    let (fill, filled) = fill_device(&fs);

    // A head into the destination's block, a moved block, and a tail that
    // needs a block of its own.
    let op = |offset: u64, len: u64| RelinkOp {
        src_fd: src,
        src_offset: offset,
        dst_fd: dst,
        dst_offset: offset,
        len,
    };
    let (moves, copies) = ([op(B, B)], [op(100, B - 100), op(2 * B, 50)]);
    let before = all_maps(&fs);
    assert_eq!(
        fs.ioctl_relink_batch(&moves, &copies),
        Err(FsError::NoSpace)
    );
    assert_eq!(all_maps(&fs), before, "a failed batch changed a map");
    assert_eq!(fs.free_blocks(), 0);
    assert_in_place_state(&fs);
    assert_eq!(fs.read_file("/dst").unwrap(), vec![1u8; 100]);

    fs.ftruncate(fill, filled - B).unwrap();
    assert_eq!(
        fs.ioctl_relink_batch(&moves, &copies),
        Ok(vec![(dst, 2 * B + 50)])
    );
    let mut want = vec![3u8; 2 * BLOCK_SIZE + 50];
    want[..100].fill(1);
    assert_eq!(fs.read_file("/dst").unwrap(), want);
    assert_eq!(fs.free_blocks(), 0);
    assert_in_place_state(&fs);
    assert_eq!(mount_copy(&fs).0, all_maps(&fs));
}

#[test]
fn allocation_fails_closed_when_a_chain_cannot_grow() {
    let fs = small_fs(16);
    let frag = fs.open("/frag", OpenFlags::create()).unwrap();
    assert_eq!(
        fragment(&fs, frag, 0, INLINE_EXTENTS as u64),
        INLINE_EXTENTS as u64
    );
    let (fill, filled) = fill_device(&fs);
    // Free exactly one block: enough for the data, not for the chain block
    // a tenth extent needs.
    fs.ftruncate(fill, filled - B).unwrap();
    assert_eq!(fs.free_blocks(), 1);
    let before = map_of(&fs, frag);
    let at = 2 * INLINE_EXTENTS as u64 * B;
    assert_eq!(fs.write_at(frag, at, &[9u8; 10]), Err(FsError::NoSpace));
    assert_eq!(map_of(&fs, frag), before);
    assert_eq!(fs.free_blocks(), 1);
    assert_in_place_state(&fs);
    fs.ftruncate(fill, filled - 2 * B).unwrap();
    assert_eq!(fs.write_at(frag, at, &[9u8; 10]), Ok(10));
    assert_in_place_state(&fs);
}

/// One cut per fence of [`cut_chain_growing_relinks`]: the relink it fell
/// in (1-based), a hash of the post-crash device image, the source and
/// target maps a mount of it shows, and whether that mount is consistent.
type Cut = (usize, u64, (Map, Map), bool);

/// A target whose map fills all but four slots of its first chain block
/// and a contiguous source: relinking every other source block into holes
/// of the target grows the target's chain to two blocks and gives the
/// source its first.  Every fence is a cut, mounted on the spot.  With
/// `whole`, every persist rewrites the whole record and chain (the stored
/// copies are dropped first), as the parent commit did.  Returns the maps
/// before and after each relink, and the cuts.
fn cut_chain_growing_relinks(policy: CrashPolicy, whole: bool) -> (Vec<(Map, Map)>, Vec<Cut>) {
    let device = PmemBuilder::new(2 << 20).crash_policy(policy).build();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let dst = fs.open("/dst", OpenFlags::create()).unwrap();
    let dst_extents = (INLINE_EXTENTS + EXTENTS_PER_OVERFLOW - 4) as u64;
    assert_eq!(fragment(&fs, dst, 0, dst_extents), dst_extents);
    let src = fs.open("/src", OpenFlags::create()).unwrap();
    fs.write_at(src, 0, &vec![0x5A; 24 * BLOCK_SIZE]).unwrap();
    let inos = (fs.fd_ino(src).unwrap(), fs.fd_ino(dst).unwrap());

    let mut states = vec![(map_of(&fs, src), map_of(&fs, dst))];
    let cuts: Arc<Mutex<Vec<Cut>>> = Arc::default();
    let current = Arc::new(AtomicUsize::new(0));
    {
        let (cuts, current) = (Arc::clone(&cuts), Arc::clone(&current));
        device.set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| {
            let fresh = PmemBuilder::new(d.size()).build();
            fresh.restore_crash_image(&d.capture_crash_image());
            let mut bytes = vec![0u8; d.size()];
            fresh.read_uncharged(0, &mut bytes);
            let mut hash = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(&bytes, &mut hash);
            let mounted = Ext4Dax::mount(fresh).unwrap();
            let maps = all_maps(&mounted);
            cuts.lock().unwrap().push((
                current.load(Ordering::Relaxed),
                std::hash::Hasher::finish(&hash),
                (maps[&inos.0].clone(), maps[&inos.1].clone()),
                mounted.check_namespace().is_empty(),
            ));
        })));
    }
    for i in 0..INLINE_EXTENTS as u64 {
        if whole {
            for inode in fs.inodes_write().values_mut() {
                inode.stored = None;
            }
        }
        current.store(i as usize + 1, Ordering::Relaxed);
        fs.relink(
            src,
            (2 * i + 1) * B,
            dst,
            (2 * (dst_extents + i) + 1) * B,
            B,
        )
        .unwrap();
        states.push((map_of(&fs, src), map_of(&fs, dst)));
    }
    device.set_fence_hook(None);
    let chain_len = |ino: u64| fs.inodes_read()[&ino].overflow_blocks.len();
    assert_eq!((chain_len(inos.0), chain_len(inos.1)), (1, 2));
    let cuts = std::mem::take(&mut *cuts.lock().unwrap());
    (states, cuts)
}

/// Writing only the changed lines adds no crash state: at every cut the
/// device image is byte-identical to the one whole rewrites leave, under
/// every policy.  With lines lost whole, a mount shows the maps before or
/// after the relink the cut fell in.  (Under `TornWrites` a torn in-place
/// line can mount a mix with whole rewrites too — ROADMAP item 2 — so
/// there the claim is the identity.)
#[test]
fn cuts_inside_chain_growing_relinks_match_whole_rewrites() {
    for policy in [
        CrashPolicy::LoseUnflushed,
        CrashPolicy::TornWrites { seed: 0x5EED },
        CrashPolicy::TornWrites { seed: 0xC4A0_5EED },
    ] {
        let (states, cuts) = cut_chain_growing_relinks(policy, false);
        let (_, whole) = cut_chain_growing_relinks(policy, true);
        assert!(cuts.len() >= 3 * INLINE_EXTENTS);
        assert_eq!(cuts.len(), whole.len(), "{policy:?}: fences");
        for (idx, (cut, whole)) in cuts.iter().zip(&whole).enumerate() {
            assert_eq!(
                cut, whole,
                "{policy:?}: cut {idx} differs from a whole rewrite's"
            );
            if policy == CrashPolicy::LoseUnflushed {
                let (op, _, maps, clean) = cut;
                assert!(
                    *maps == states[op - 1] || *maps == states[*op],
                    "a cut inside relink {op} mounted a mix"
                );
                assert!(clean, "a cut inside relink {op}");
            }
        }
    }
}

#[test]
fn relink_metadata_bytes_do_not_scale_with_chain_length() {
    let fs = small_fs(16);
    let mut written = Vec::new();
    for chain_blocks in [1, 4] {
        // The same number of extents in the last chain block either way,
        // so the relinked extent lands in the same line of it.
        let extents = (INLINE_EXTENTS + (chain_blocks - 1) * EXTENTS_PER_OVERFLOW + 50) as u64;
        let dst = fs
            .open(&format!("/dst{chain_blocks}"), OpenFlags::create())
            .unwrap();
        assert_eq!(fragment(&fs, dst, 0, extents), extents);
        let ino = fs.fd_ino(dst).unwrap();
        assert_eq!(fs.inodes_read()[&ino].overflow_blocks.len(), chain_blocks);
        let src = fs
            .open(&format!("/src{chain_blocks}"), OpenFlags::create())
            .unwrap();
        fs.write_at(src, 0, &[1u8; BLOCK_SIZE]).unwrap();

        let before = fs.device().stats().snapshot();
        fs.relink(src, 0, dst, 2 * extents * B, B).unwrap();
        let delta = fs.device().stats().snapshot().delta(&before);
        written.push(delta.written(TimeCategory::Metadata));
    }
    assert_eq!(
        written[0], written[1],
        "metadata bytes per relink: {written:?}"
    );
    assert!(written[0] <= 1024, "metadata bytes per relink: {written:?}");
}

/// A batch whose copies land past the destination's old end of file — a
/// head 100 bytes behind it, so the gap is zeroed, and a tail into a block
/// the batch allocates — beside a moved block.  A cut before any fence of
/// the batch mounts both files as they were before it or as they are after
/// it: the copied and zeroed bytes are fenced before the commit record.
#[test]
fn cuts_inside_a_copying_relink_batch_mount_the_files_before_or_after_it() {
    let device = PmemBuilder::new(4 << 20)
        .crash_policy(CrashPolicy::LoseUnflushed)
        .build();
    let fs = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
    let src = fs.open("/src", OpenFlags::create()).unwrap();
    let staged: Vec<u8> = (0..3 * BLOCK_SIZE).map(|i| (i % 253) as u8 | 1).collect();
    fs.write_at(src, 0, &staged).unwrap();
    let dst = fs.open("/dst", OpenFlags::create()).unwrap();
    fs.write_at(dst, 0, &[9u8; 900]).unwrap();
    // Both files' bytes.
    let files = |fs: &Ext4Dax| [fs.read_file("/dst").unwrap(), fs.read_file("/src").unwrap()];
    let before = files(&fs);

    let cuts: Arc<Mutex<Vec<[Vec<u8>; 2]>>> = Arc::default();
    {
        let cuts = Arc::clone(&cuts);
        device.set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| {
            let fresh = PmemBuilder::new(d.size()).build();
            fresh.restore_crash_image(&d.capture_crash_image());
            let mounted = Ext4Dax::mount(fresh).unwrap();
            assert!(mounted.check_namespace().is_empty());
            cuts.lock().unwrap().push(files(&mounted));
        })));
    }
    let op = |offset: u64, len: u64| RelinkOp {
        src_fd: src,
        src_offset: offset,
        dst_fd: dst,
        dst_offset: offset,
        len,
    };
    fs.ioctl_relink_batch(&[op(B, B)], &[op(1000, B - 1000), op(2 * B, 300)])
        .unwrap();
    device.set_fence_hook(None);

    let after = files(&fs);
    let mut want = staged[..2 * BLOCK_SIZE + 300].to_vec();
    want[..900].fill(9);
    want[900..1000].fill(0);
    assert_eq!(after[0], want);
    let cuts = std::mem::take(&mut *cuts.lock().unwrap());
    assert!(cuts.len() >= 4, "{} fences", cuts.len());
    for (idx, cut) in cuts.iter().enumerate() {
        assert!(*cut == before || *cut == after, "cut {idx} mounted a mix");
    }
    assert!(cuts[0] == before && cuts[cuts.len() - 1] == after);
}

/// `unlink` and `rmdir` journal the removal before they tombstone the
/// entry, as `rename` does: at the first fence inside the call, the
/// journal commit's, the parent's entry still holds the live name, so a
/// commit that fails leaves the name where it was.
#[test]
fn unlink_and_rmdir_journal_the_removal_before_the_tombstone() {
    for what in ["unlink of an open file", "unlink", "rmdir"] {
        let fs = small_fs(8);
        fs.mkdir("/p").unwrap();
        if what == "rmdir" {
            fs.mkdir("/p/x").unwrap();
        } else {
            let fd = fs.open("/p/x", OpenFlags::create()).unwrap();
            fs.write_at(fd, 0, &[7u8; 100]).unwrap();
            if what == "unlink" {
                fs.close(fd).unwrap();
            }
        }
        // Where the entry sits on the device.
        let parent = fs.stat("/p").unwrap().ino;
        let slot = fs.ns_read().dirs[&parent].entries["x"];
        let (phys, _) = fs.inodes_read()[&parent]
            .extents
            .lookup(slot.entry_offset / B)
            .unwrap();
        let at = phys * B + slot.entry_offset % B;
        let entry = move |d: &PmemDevice| {
            let mut bytes = vec![0u8; slot.entry_len];
            d.read_uncharged(at, &mut bytes);
            bytes
        };

        let first: Arc<Mutex<Option<Vec<u8>>>> = Arc::default();
        {
            let first = Arc::clone(&first);
            fs.device
                .set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| {
                    first.lock().unwrap().get_or_insert_with(|| entry(d));
                })));
        }
        match what {
            "rmdir" => fs.rmdir("/p/x").unwrap(),
            _ => fs.unlink("/p/x").unwrap(),
        }
        fs.device.set_fence_hook(None);

        let first = first.lock().unwrap().take();
        assert_eq!(
            first.as_deref(),
            Some(&*dir::encode_entry(slot.ino, "x")),
            "{what}: the entry at the first fence"
        );
        assert_eq!(entry(&fs.device), &*dir::encode_tombstone(1), "{what}");
    }
}

#[test]
fn a_rename_fences_only_what_it_stored() {
    // Within one directory the parent is persisted once: a second persist
    // of the same inode would store nothing and fence anyway.
    for (from, to) in [("/p/a", "/p/b"), ("/p/b", "/q/b")] {
        let fs = small_fs(8);
        for dir in ["/p", "/q"] {
            fs.mkdir(dir).unwrap();
        }
        fs.write_file(from, &[7u8; 100]).unwrap();
        let pending: Arc<Mutex<Vec<usize>>> = Arc::default();
        {
            let pending = Arc::clone(&pending);
            fs.device
                .set_fence_hook(Some(Arc::new(move |d: &PmemDevice, _| {
                    pending.lock().unwrap().push(d.unpersisted_lines());
                })));
        }
        fs.rename(from, to).unwrap();
        fs.device.set_fence_hook(None);
        let pending = pending.lock().unwrap().clone();
        assert!(
            !pending.is_empty() && pending.iter().all(|&lines| lines > 0),
            "{from} -> {to}: a fence drained nothing: {pending:?}"
        );
    }
}
