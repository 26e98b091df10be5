//! Seed → fixed op list.
//!
//! Every workload is a list of [`Op`]s built here, from `--seed` alone,
//! before any clock starts; the product only ever receives the ops.  The
//! *shape* of a list (how many ops of which kind, where the periodic events
//! fall) depends on the workload and the scale, never on the seed, so two
//! seeds do the same amount of work on different bytes, offsets, keys and
//! directories.  No list is ever cut short by a timer.

/// Bytes in one pool page, one 4 KiB block and one `inplace_rw` op.
pub const PAGE: usize = 4096;
/// Distinct random pages payloads are cut from.
pub const POOL_PAGES: usize = 256;
/// Bytes in one `kv_ycsb_a` key.
pub const KEY_LEN: usize = 16;
/// Bytes in one `kv_ycsb_a` value.
pub const VALUE_LEN: usize = 256;
/// Keys in the `kv_ycsb_a` store.
pub const KV_KEYS: usize = 20_000;
/// 4 KiB blocks in the `inplace_rw` file (256 MiB).
pub const INPLACE_BLOCKS: usize = 65_536;
/// Directories `meta_churn` spreads its files over.
pub const META_DIRS: usize = 64;
/// Files each `meta_churn` directory holds before the timed phase.
pub const META_RESIDENTS: usize = 16;
/// Files `crash_recover` appends to.
pub const CRASH_FILES: usize = 8;

/// The five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WalAppend,
    InplaceRw,
    MetaChurn,
    KvYcsbA,
    CrashRecover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WalAppend,
        Workload::InplaceRw,
        Workload::MetaChurn,
        Workload::KvYcsbA,
        Workload::CrashRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WalAppend => "wal_append",
            Workload::InplaceRw => "inplace_rw",
            Workload::MetaChurn => "meta_churn",
            Workload::KvYcsbA => "kv_ycsb_a",
            Workload::CrashRecover => "crash_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One operation of a workload.  Eight bytes, so an 8 M-op list is 64 MiB.
///
/// File ops name an open-descriptor `slot` and a row of [`Plan::paths`];
/// payloads are the head of a pool page, so the model needs one `u16` per
/// appended chunk to know every byte a file must hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `open(paths[path])` into `slot`; `create` adds `O_CREAT`.
    Open {
        slot: u8,
        create: bool,
        path: u32,
    },
    Close {
        slot: u8,
    },
    /// Append one chunk ([`Plan::chunk`] bytes): the head of pool page `page`.
    Append {
        slot: u8,
        page: u16,
    },
    Fsync {
        slot: u8,
    },
    /// Read `n` chunks starting at chunk index `chunk` and compare.
    ReadChunks {
        slot: u8,
        n: u8,
        chunk: u32,
    },
    /// `inplace_rw`: read block `block` of slot 0 and check its version tag.
    TagRead {
        block: u16,
    },
    /// `inplace_rw`: overwrite block `block` of slot 0, tagged `ver`.
    TagWrite {
        block: u16,
        ver: u16,
    },
    Stat {
        path: u32,
    },
    /// Rename `paths[path]` to `paths[path + 1]`.
    Rename {
        path: u32,
    },
    Unlink {
        path: u32,
    },
    Readdir {
        path: u32,
    },
    /// `kv_ycsb_a`: put version `ver` of key `key`.
    Put {
        key: u16,
        ver: u32,
    },
    /// `kv_ycsb_a`: get key `key` and compare with the latest put.
    Get {
        key: u16,
    },
    /// `crash_recover`: quiesce, crash, mount, recover, verify, restart.
    CrashRecover,
}

impl Op {
    fn encode(self) -> u64 {
        let pack = |kind: u64, a: u64, b: u64, c: u64| kind << 56 | a << 48 | b << 32 | c;
        match self {
            Op::Open { slot, create, path } => pack(1, slot as u64, create as u64, path as u64),
            Op::Close { slot } => pack(2, slot as u64, 0, 0),
            Op::Append { slot, page } => pack(3, slot as u64, page as u64, 0),
            Op::Fsync { slot } => pack(4, slot as u64, 0, 0),
            Op::ReadChunks { slot, n, chunk } => pack(5, slot as u64, n as u64, chunk as u64),
            Op::TagRead { block } => pack(6, 0, block as u64, 0),
            Op::TagWrite { block, ver } => pack(7, 0, block as u64, ver as u64),
            Op::Stat { path } => pack(8, 0, 0, path as u64),
            Op::Rename { path } => pack(9, 0, 0, path as u64),
            Op::Unlink { path } => pack(10, 0, 0, path as u64),
            Op::Readdir { path } => pack(11, 0, 0, path as u64),
            Op::Put { key, ver } => pack(12, 0, key as u64, ver as u64),
            Op::Get { key } => pack(13, 0, key as u64, 0),
            Op::CrashRecover => pack(14, 0, 0, 0),
        }
    }

    /// User bytes this op asks the file system to store.
    pub fn user_bytes(self, chunk: usize) -> u64 {
        match self {
            Op::Append { .. } => chunk as u64,
            Op::TagWrite { .. } => PAGE as u64,
            Op::Put { .. } => (KEY_LEN + VALUE_LEN) as u64,
            _ => 0,
        }
    }
}

/// One row of the path table.
#[derive(Clone, Debug)]
pub struct PathEnt {
    pub path: String,
    /// Index of the `meta_churn` directory the path lives in, if any.
    pub dir: Option<u16>,
}

impl PathEnt {
    fn new(path: String, dir: Option<u16>) -> Self {
        Self { path, dir }
    }

    /// The last path component.
    pub fn base(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Full size or the 1/50 `--smoke` size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// A generated workload: the op list plus the tables its ops index.
pub struct Plan {
    pub workload: Workload,
    pub ops: Vec<Op>,
    /// Leading ops run untimed (the `crash_recover` warm-up cycle).
    pub warmup_ops: usize,
    /// Ops per timed round; the timed ops are a whole number of rounds.
    pub round_ops: usize,
    /// Rounds between two re-formats of the file system (`kv_ycsb_a`
    /// episodes); 0 when the workload never re-formats.
    pub episode_rounds: usize,
    /// Every `sample_stride`-th op is timed on the host clock.
    pub sample_stride: usize,
    /// Bytes per [`Op::Append`].
    pub chunk: usize,
    pub paths: Vec<PathEnt>,
    /// `POOL_PAGES` random pages.
    pub pool: Vec<u8>,
    /// `kv_ycsb_a` keys by key id (a seeded permutation of the key space).
    pub keys: Vec<[u8; KEY_LEN]>,
    /// Hash of everything above: same seed, same hash.
    pub input_hash: u64,
}

impl Plan {
    pub fn timed(&self) -> &[Op] {
        &self.ops[self.warmup_ops..]
    }

    pub fn rounds(&self) -> usize {
        self.timed().len() / self.round_ops
    }

    /// The head of pool page `page`.
    pub fn page(&self, page: u16) -> &[u8] {
        let start = page as usize * PAGE;
        &self.pool[start..start + PAGE]
    }

    /// Row of the path table holding `meta_churn` directory `dir`.
    pub fn dir_path(&self, dir: u16) -> u32 {
        (self.paths.len() - META_DIRS + dir as usize) as u32
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// YCSB's Zipfian generator (Gray et al.), ranks `0..n`, rank 0 hottest.
struct Zipf {
    n: f64,
    zeta2: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n: n as f64,
            zeta2,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < self.zeta2 {
            1
        } else {
            let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
            r.min(self.n as usize - 1)
        }
    }
}

fn hash_word(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    h ^ (h >> 29)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = hash_word(h, u64::from_le_bytes(word));
    }
    hash_word(h, bytes.len() as u64)
}

/// Builds the op list of `workload` for `seed` at `scale`.
pub fn plan(workload: Workload, seed: u64, scale: Scale) -> Plan {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ workload as u64);
    let mut pool = vec![0u8; POOL_PAGES * PAGE];
    for word in pool.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let mut plan = Plan {
        workload,
        ops: Vec::new(),
        warmup_ops: 0,
        round_ops: 0,
        episode_rounds: 0,
        sample_stride: 7,
        chunk: PAGE,
        paths: Vec::new(),
        pool,
        keys: Vec::new(),
        input_hash: 0,
    };
    let smoke = scale == Scale::Smoke;
    // Where the cost of a list depends on *which* directory or file an op
    // lands in, that choice comes from a generator every seed shares, and the
    // seed only relabels the directories or files.
    let mut shape = Rng::new(0x5eed_1e55 ^ workload as u64);
    match workload {
        Workload::WalAppend => wal_append(&mut plan, &mut rng, smoke),
        Workload::InplaceRw => inplace_rw(&mut plan, &mut rng, smoke),
        Workload::MetaChurn => meta_churn(&mut plan, &mut rng, &mut shape, smoke),
        Workload::KvYcsbA => kv_ycsb_a(&mut plan, &mut rng, smoke),
        Workload::CrashRecover => crash_recover(&mut plan, &mut rng, &mut shape, smoke),
    }
    assert!(plan.round_ops > 0 && plan.timed().len().is_multiple_of(plan.round_ops));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in &plan.ops {
        h = hash_word(h, op.encode());
    }
    for ent in &plan.paths {
        h = hash_bytes(h, ent.path.as_bytes());
    }
    for key in &plan.keys {
        h = hash_bytes(h, key);
    }
    plan.input_hash = hash_bytes(h, &plan.pool);
    plan
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn random_page(rng: &mut Rng) -> u16 {
    rng.below(POOL_PAGES as u64) as u16
}

/// Groups of ten 4 KiB appends and an fsync per WAL segment: 1200 groups are
/// 46.9 MiB, after which the segment is read back at eight random blocks,
/// closed, unlinked and the next one opened.
const WAL_GROUPS: usize = 1200;

fn wal_append(plan: &mut Plan, rng: &mut Rng, smoke: bool) {
    // One segment is one life of the file system (an episode, and a round),
    // for three reasons (README, "Known failures" and "Lives").  A strict
    // U-Split instance serves reads correctly only for the first ~62 MiB it
    // stages.  Past its first few segments its simulated cost follows the
    // allocator's fragmentation, which differs from run to run.  And once a
    // life takes the last of its four pre-allocated 16 MiB staging files the
    // daemon starts provisioning more, and whether the foreground then queues
    // behind it on a lock (2 ms of simulated wait, 7 % of a life) flips with
    // the build and the hour.  The traced run plays one long life too.
    let segments = if smoke { 6 } else { 320 };
    plan.episode_rounds = 1;
    plan.paths = (0..=segments)
        .map(|s| PathEnt::new(format!("/wal/{s:06}.log"), None))
        .collect();
    // Segment 0 is opened in set-up; each segment ends by opening the next,
    // so the last segment's successor stays open (and empty) at exit.
    for segment in 0..segments {
        for _ in 0..WAL_GROUPS {
            for _ in 0..10 {
                plan.ops.push(Op::Append {
                    slot: 0,
                    page: random_page(rng),
                });
            }
            plan.ops.push(Op::Fsync { slot: 0 });
        }
        for _ in 0..8 {
            plan.ops.push(Op::ReadChunks {
                slot: 0,
                n: 1,
                chunk: rng.below(WAL_GROUPS as u64 * 10) as u32,
            });
        }
        plan.ops.push(Op::Close { slot: 0 });
        plan.ops.push(Op::Unlink {
            path: segment as u32,
        });
        plan.ops.push(Op::Open {
            slot: 0,
            create: true,
            path: segment as u32 + 1,
        });
    }
    plan.round_ops = plan.ops.len() / segments;
}

fn inplace_rw(plan: &mut Plan, rng: &mut Rng, smoke: bool) {
    let (rounds, round_ops) = if smoke { (8, 20_000) } else { (64, 125_000) };
    plan.paths = vec![PathEnt::new("/data.bin".to_string(), None)];
    let mut vers = vec![0u16; INPLACE_BLOCKS];
    for _ in 0..rounds * round_ops {
        let block = rng.below(INPLACE_BLOCKS as u64) as u16;
        if rng.next_u64() & 1 == 0 {
            plan.ops.push(Op::TagRead { block });
        } else {
            vers[block as usize] += 1;
            plan.ops.push(Op::TagWrite {
                block,
                ver: vers[block as usize],
            });
        }
    }
    plan.round_ops = round_ops;
}

/// Files whose life cycles interleave in one `meta_churn` batch.
const META_WINDOW: usize = 6;
/// 1 KiB appends per `meta_churn` file.  With four, the thirteen ops of a
/// file's life put the median op inside the append population (close, close
/// and read are faster, the other six slower); with two it fell into the gap
/// between the appends and the opens and moved by 15 % from run to run.
const META_APPENDS: usize = 4;

fn meta_churn(plan: &mut Plan, rng: &mut Rng, shape: &mut Rng, smoke: bool) {
    // K-Split never reuses an inode number, and a 256 MiB device has 16 384
    // of them: six rounds (10 800 files and the residents) are one life of
    // the file system, after which the target formats the device again.
    let (rounds, batches_per_round) = if smoke { (6, 60) } else { (60, 300) };
    let batches = rounds * batches_per_round;
    plan.episode_rounds = 6;
    plan.chunk = 1024;
    // Rows 2f and 2f+1 are file f's name before and after its rename; the
    // resident files and then the directories close the table.
    // Files go to the directories in permutations, 64 at a time, so every
    // directory takes the same share of the churn; the seed names them.
    let mut name: Vec<usize> = (0..META_DIRS).collect();
    shuffle(&mut name, rng);
    let mut dirs_of = Vec::with_capacity(batches * META_WINDOW);
    let mut order: Vec<u16> = (0..META_DIRS as u16).collect();
    for f in 0..batches * META_WINDOW {
        if f % META_DIRS == 0 {
            shuffle(&mut order, shape);
        }
        let dir = order[f % META_DIRS];
        dirs_of.push(dir);
        for ext in ["tmp", "dat"] {
            let path = format!("/d{:02}/f{f:06}.{ext}", name[dir as usize]);
            plan.paths.push(PathEnt::new(path, Some(dir)));
        }
    }
    for dir in 0..META_DIRS as u16 {
        for r in 0..META_RESIDENTS {
            let path = format!("/d{:02}/r{r:02}.dat", name[dir as usize]);
            plan.paths.push(PathEnt::new(path, Some(dir)));
        }
    }
    for dir_name in name {
        plan.paths
            .push(PathEnt::new(format!("/d{dir_name:02}"), None));
    }
    for batch in 0..batches {
        let files = batch * META_WINDOW..(batch + 1) * META_WINDOW;
        let stage = |ops: &mut Vec<Op>, make: &mut dyn FnMut(u8, u32) -> Op| {
            for (slot, f) in files.clone().enumerate() {
                ops.push(make(slot as u8, 2 * f as u32));
            }
        };
        let listed = plan.dir_path(dirs_of[files.start]);
        let ops = &mut plan.ops;
        stage(ops, &mut |slot, path| Op::Open {
            slot,
            create: true,
            path,
        });
        for _ in 0..META_APPENDS {
            stage(ops, &mut |slot, _| Op::Append {
                slot,
                page: random_page(rng),
            });
        }
        stage(ops, &mut |slot, _| Op::Fsync { slot });
        stage(ops, &mut |slot, _| Op::Close { slot });
        stage(ops, &mut |_, path| Op::Stat { path });
        stage(ops, &mut |_, path| Op::Rename { path });
        ops.push(Op::Readdir { path: listed });
        stage(ops, &mut |slot, path| Op::Open {
            slot,
            create: false,
            path: path + 1,
        });
        stage(ops, &mut |slot, _| Op::ReadChunks {
            slot,
            n: META_APPENDS as u8,
            chunk: 0,
        });
        stage(ops, &mut |slot, _| Op::Close { slot });
        stage(ops, &mut |_, path| Op::Unlink { path: path + 1 });
    }
    plan.round_ops = plan.ops.len() / rounds;
}

fn kv_ycsb_a(plan: &mut Plan, rng: &mut Rng, smoke: bool) {
    // An episode is one life of the store on a freshly formatted file
    // system: 20 k keys loaded untimed, then 88 k timed ops.  That keeps an
    // episode (README, "Known failures" and "Lives") below the op count at
    // which the store starts returning wrong values, below the ~48 MiB of
    // staging at which the daemon starts provisioning beside the foreground,
    // and ~1.5 k puts short of the ninth memtable flush, so that every
    // episode holds eight flushes and one compaction whatever the seed's
    // share of puts.
    let (episodes, episode_ops) = if smoke { (1, 60_000) } else { (30, 88_000) };
    plan.episode_rounds = 1;
    plan.round_ops = episode_ops;
    kv_keys(plan, rng);
    kv_ops(&mut plan.ops, rng, episodes, episode_ops);
}

fn kv_keys(plan: &mut Plan, rng: &mut Rng) {
    let mut ids: Vec<u32> = (0..KV_KEYS as u32).collect();
    shuffle(&mut ids, rng);
    plan.keys = ids
        .iter()
        .map(|id| {
            let mut key = [0u8; KEY_LEN];
            key.copy_from_slice(format!("user{id:012}").as_bytes());
            key
        })
        .collect();
}

/// Appends `episodes` × `episode_ops` Zipfian 50/50 get/put ops; versions
/// restart at every episode because the store does.
fn kv_ops(ops: &mut Vec<Op>, rng: &mut Rng, episodes: usize, episode_ops: usize) {
    let zipf = Zipf::new(KV_KEYS, 0.99);
    for _ in 0..episodes {
        let mut vers = vec![0u32; KV_KEYS];
        for _ in 0..episode_ops {
            let key = zipf.rank(rng) as u16;
            if rng.next_u64() & 1 == 0 {
                ops.push(Op::Get { key });
            } else {
                vers[key as usize] += 1;
                ops.push(Op::Put {
                    key,
                    ver: vers[key as usize],
                });
            }
        }
    }
}

/// The traced run's one long episode (README, "Known failures"): `ops` ops
/// over the same key space in a single life of the store.
pub fn kv_long_episode(seed: u64, ops: usize) -> Vec<Op> {
    let mut long = Vec::with_capacity(ops);
    kv_ops(&mut long, &mut Rng::new(seed ^ 0x6c6f_6e67), 1, ops);
    long
}

fn crash_recover(plan: &mut Plan, rng: &mut Rng, shape: &mut Rng, smoke: bool) {
    let (cycles, appends) = if smoke { (1, 400) } else { (10, 2000) };
    plan.chunk = 1024;
    plan.episode_rounds = 1;
    plan.sample_stride = 1;
    plan.paths = (0..CRASH_FILES)
        .map(|f| PathEnt::new(format!("/crash/f{f}.log"), None))
        .collect();
    // Which file each append goes to decides how much an fsync relinks and a
    // recovery replays: the sequence is every seed's, the seed names the files.
    let mut name: Vec<u8> = (0..CRASH_FILES as u8).collect();
    shuffle(&mut name, rng);
    // Cycle 0 is the untimed warm-up; every cycle ends in a crash.
    for _ in 0..=cycles {
        for i in 0..appends {
            let slot = name[shape.below(CRASH_FILES as u64) as usize];
            plan.ops.push(Op::Append {
                slot,
                page: random_page(rng),
            });
            if i % 8 == 7 {
                plan.ops.push(Op::Fsync { slot });
            }
        }
        plan.ops.push(Op::CrashRecover);
    }
    plan.round_ops = plan.ops.len() / (cycles + 1);
    plan.warmup_ops = plan.round_ops;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 8);
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for workload in Workload::ALL {
            let a = plan(workload, 1, Scale::Smoke);
            let b = plan(workload, 1, Scale::Smoke);
            let c = plan(workload, 2, Scale::Smoke);
            assert_eq!(a.input_hash, b.input_hash, "{}", workload.name());
            assert!(a.ops == b.ops);
            assert_ne!(a.input_hash, c.input_hash, "{}", workload.name());
            // The shape never depends on the seed.
            assert_eq!(a.ops.len(), c.ops.len());
            assert_eq!(a.round_ops, c.round_ops);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(KV_KEYS, 0.99);
        let mut rng = Rng::new(7);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = zipf.rank(&mut rng);
            assert!(r < KV_KEYS);
            hot += (r < KV_KEYS / 100) as usize;
        }
        // The hottest 1 % of keys draw far more than 1 % of requests.
        assert!(hot > 30_000, "{hot}");
    }
}
