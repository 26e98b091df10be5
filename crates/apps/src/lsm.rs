//! A LevelDB-like log-structured merge-tree key-value store.
//!
//! The store produces the same file-system traffic pattern as LevelDB under
//! YCSB, which is what the SplitFS evaluation measures: every `put` appends
//! a record to a write-ahead log (and optionally fsyncs it), full memtables
//! are flushed to immutable sorted string tables (SSTables) with large
//! sequential writes followed by an fsync, reads consult the memtable and
//! then the SSTables newest-first, and a simple compaction merges SSTables
//! and unlinks the old ones.
//!
//! Each SSTable is indexed twice in memory.  A point read hashes its key
//! once and probes each table's point index, an open-addressed hash table:
//! a table without the key usually costs one slot read, a hit one slot
//! read and one key compare.  Scans and compaction walk the sorted index.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::ops::Bound;
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use vfs::{Fd, FileSystem, FsError, FsResult, IoVec, OpenFlags};

/// Tuning knobs for [`LsmStore`].
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Directory that holds the WAL, SSTables and MANIFEST.
    pub dir: String,
    /// Flush the memtable to an SSTable once it holds this many bytes.
    pub memtable_bytes: usize,
    /// Fsync the write-ahead log after every put (YCSB's `sync` option).
    pub sync_writes: bool,
    /// Merge all SSTables once their count reaches this threshold.
    pub compaction_trigger: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            dir: "/leveldb".to_string(),
            memtable_bytes: 2 * 1024 * 1024,
            sync_writes: false,
            compaction_trigger: 6,
        }
    }
}

/// One entry of an SSTable's sorted index: key, value offset, value
/// length; a tombstone has `len == u32::MAX`.
type IndexEntry = (Vec<u8>, u64, u32);

/// In-memory metadata of one SSTable: two views of its keys.  Point reads
/// go through the point index; scans and compaction walk the sorted index.
#[derive(Debug)]
struct SsTable {
    path: String,
    /// Cached open descriptor, like LevelDB's table cache: lookups read
    /// through it instead of re-opening the file per operation.
    fd: Fd,
    /// Every entry of the file, tombstones included, in key order.
    index: Vec<IndexEntry>,
    /// Open-addressed hash slots over `index`, a power of two of at least
    /// twice its length.  A slot is 0 when empty, else the key hash's high
    /// 32 bits (a fingerprint) over the entry's position in `index` plus
    /// one; a key's probe starts at the slot its hash's low bits name.
    points: Vec<u64>,
}

/// The hash a point lookup probes with: fixed-key, so slot order and probe
/// lengths repeat from run to run.
fn point_hash(key: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(key);
    hasher.finish()
}

/// The bits of a point-index slot that hold the key hash's fingerprint.
const FINGERPRINT: u64 = !(u32::MAX as u64);

impl SsTable {
    fn new(path: &str, fd: Fd, index: Vec<IndexEntry>) -> Self {
        let slots = (2 * index.len()).max(1).next_power_of_two();
        let mut points = vec![0u64; slots];
        for (pos, (key, _, _)) in index.iter().enumerate() {
            let hash = point_hash(key);
            let mut slot = hash as usize & (slots - 1);
            while points[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            points[slot] = hash & FINGERPRINT | (pos as u64 + 1);
        }
        Self {
            path: path.to_string(),
            fd,
            index,
            points,
        }
    }

    /// The entry of `key`, whose [`point_hash`] is `hash`.  A missing key
    /// usually costs one slot read; a present one a slot read and a key
    /// compare.
    fn lookup(&self, key: &[u8], hash: u64) -> Option<&IndexEntry> {
        let mask = self.points.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let point = self.points[slot];
            if point == 0 {
                return None;
            }
            if point & FINGERPRINT == hash & FINGERPRINT {
                let entry = &self.index[(point as u32 - 1) as usize];
                if entry.0 == key {
                    return Some(entry);
                }
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Value stored in the memtable: `None` is a tombstone.
type MemValue = Option<Vec<u8>>;

/// The LSM key-value store.
pub struct LsmStore {
    fs: Arc<dyn FileSystem>,
    config: LsmConfig,
    memtable: BTreeMap<Vec<u8>, MemValue>,
    memtable_bytes: usize,
    wal_fd: Fd,
    wal_path: String,
    /// SSTables, oldest first (reads scan newest first).
    sstables: Vec<SsTable>,
    next_table_id: u64,
    /// Number of memtable flushes performed (exposed for tests).
    flushes: u64,
    /// Number of compactions performed (exposed for tests).
    compactions: u64,
}

impl std::fmt::Debug for LsmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmStore")
            .field("dir", &self.config.dir)
            .field("memtable_entries", &self.memtable.len())
            .field("sstables", &self.sstables.len())
            .finish()
    }
}

const TOMBSTONE: u32 = u32::MAX;

impl LsmStore {
    /// Creates (or reopens) a store in `config.dir` on `fs`.  An existing
    /// store is recovered: SSTables are re-indexed and the WAL is replayed
    /// into the memtable.
    pub fn open(fs: Arc<dyn FileSystem>, config: LsmConfig) -> FsResult<Self> {
        if !fs.exists(&config.dir) {
            fs.mkdir(&config.dir)?;
        }
        let wal_path = format!("{}/wal.log", config.dir);

        // Recover SSTables (named sstable-<id>.sst).
        let mut sstables = Vec::new();
        let mut next_table_id = 0;
        let mut names = fs.readdir(&config.dir)?;
        names.sort();
        for name in &names {
            if let Some(id) = name
                .strip_prefix("sstable-")
                .and_then(|s| s.strip_suffix(".sst"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                let path = format!("{}/{}", config.dir, name);
                let table = Self::load_sstable(fs.as_ref(), &path)?;
                sstables.push(table);
                next_table_id = next_table_id.max(id + 1);
            }
        }

        // Replay the WAL into a fresh memtable.
        let mut memtable = BTreeMap::new();
        let mut memtable_bytes = 0;
        if fs.exists(&wal_path) {
            let data = fs.read_file(&wal_path)?;
            for (key, value) in Self::parse_wal(&data) {
                memtable_bytes += key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 16;
                memtable.insert(key, value);
            }
        }
        let wal_fd = fs.open(&wal_path, OpenFlags::append())?;

        Ok(Self {
            fs,
            config,
            memtable,
            memtable_bytes,
            wal_fd,
            wal_path,
            sstables,
            next_table_id,
            flushes: 0,
            compactions: 0,
        })
    }

    /// Number of memtable flushes so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Number of compactions so far.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Number of live SSTables.
    pub fn sstable_count(&self) -> usize {
        self.sstables.len()
    }

    /// Encodes the 8-byte WAL record header (key length + value length or
    /// tombstone marker).  The record body is gathered from the caller's
    /// key/value slices directly via `appendv` — no concatenation buffer.
    fn wal_header(key: &[u8], value: Option<&[u8]>) -> [u8; 8] {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(key.len() as u32).to_le_bytes());
        let vlen = match value {
            Some(v) => v.len() as u32,
            None => TOMBSTONE,
        };
        header[4..].copy_from_slice(&vlen.to_le_bytes());
        header
    }

    fn parse_wal(data: &[u8]) -> Vec<(Vec<u8>, MemValue)> {
        let mut out = Vec::new();
        let mut cursor = data;
        while cursor.remaining() >= 8 {
            let klen = cursor.get_u32_le() as usize;
            let vlen_raw = cursor.get_u32_le();
            let vlen = if vlen_raw == TOMBSTONE {
                0
            } else {
                vlen_raw as usize
            };
            if cursor.remaining() < klen + vlen {
                break; // torn tail
            }
            let key = cursor.copy_to_bytes(klen).to_vec();
            let value = if vlen_raw == TOMBSTONE {
                None
            } else {
                Some(cursor.copy_to_bytes(vlen).to_vec())
            };
            out.push((key, value));
        }
        out
    }

    /// Inserts or updates a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> FsResult<()> {
        self.write_entry(key, Some(value))
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&mut self, key: &[u8]) -> FsResult<()> {
        self.write_entry(key, None)
    }

    fn write_entry(&mut self, key: &[u8], value: Option<&[u8]>) -> FsResult<()> {
        let header = Self::wal_header(key, value);
        let mut iov = [IoVec::new(&header), IoVec::new(key), IoVec::new(&[])];
        if let Some(v) = value {
            iov[2] = IoVec::new(v);
        }
        self.fs.appendv(self.wal_fd, &iov)?;
        if self.config.sync_writes {
            self.fs.fdatasync(self.wal_fd)?;
        }
        self.memtable_bytes += key.len() + value.map_or(0, <[u8]>::len) + 16;
        self.memtable
            .insert(key.to_vec(), value.map(<[u8]>::to_vec));
        if self.memtable_bytes >= self.config.memtable_bytes {
            self.flush_memtable()?;
        }
        Ok(())
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> FsResult<Option<Vec<u8>>> {
        if let Some(value) = self.memtable.get(key) {
            return Ok(value.clone());
        }
        let hash = point_hash(key);
        for table in self.sstables.iter().rev() {
            if let Some(&(_, offset, len)) = table.lookup(key, hash) {
                if len == TOMBSTONE {
                    return Ok(None);
                }
                // Zero-copy on file systems that serve mapped views; the
                // value is materialized once, into its final Vec.
                let view = self.fs.read_view(table.fd, offset, len as usize)?;
                return Ok(Some(view.into_vec()));
            }
        }
        Ok(None)
    }

    /// Returns up to `count` key/value pairs with keys ≥ `start`, in key
    /// order (the YCSB scan operation).
    ///
    /// One ordered merge of the memtable and every table's sorted index
    /// from `start`: each step takes the smallest next key of any source,
    /// the newest source holding it decides its value, a tombstone hides
    /// it, and every source steps past it.  Only the values returned are
    /// read.
    pub fn scan(&self, start: &[u8], count: usize) -> FsResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut memtable = self
            .memtable
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .peekable();
        // A cursor into each table's index, newest table first.
        let mut tables: Vec<(&SsTable, usize)> = self
            .sstables
            .iter()
            .rev()
            .map(|t| (t, t.index.partition_point(|(k, _, _)| k.as_slice() < start)))
            .collect();
        let mut out = Vec::new();
        while out.len() < count {
            let mut next = memtable.peek().map(|&(k, _)| k);
            for &(table, pos) in &tables {
                if let Some((k, _, _)) = table.index.get(pos) {
                    if next.is_none_or(|n| k < n) {
                        next = Some(k);
                    }
                }
            }
            let Some(key) = next else { break };
            // `Some(None)` once the newest source holding `key` is a tombstone.
            let mut value = memtable.next_if(|&(k, _)| k == key).map(|(_, v)| v.clone());
            for (table, pos) in &mut tables {
                let Some(&(_, off, len)) = table.index.get(*pos).filter(|(k, ..)| k == key) else {
                    continue;
                };
                *pos += 1;
                if value.is_none() {
                    value = Some(if len == TOMBSTONE {
                        None
                    } else {
                        Some(self.fs.read_view(table.fd, off, len as usize)?.into_vec())
                    });
                }
            }
            if let Some(Some(v)) = value {
                out.push((key.clone(), v));
            }
        }
        Ok(out)
    }

    /// Flushes the memtable into a new SSTable and truncates the WAL.
    pub fn flush_memtable(&mut self) -> FsResult<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let id = self.next_table_id;
        self.next_table_id += 1;
        let path = format!("{}/sstable-{:06}.sst", self.config.dir, id);
        let entries: Vec<(Vec<u8>, MemValue)> =
            std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let table = Self::write_sstable(self.fs.as_ref(), &path, &entries)?;
        self.sstables.push(table);
        self.flushes += 1;

        // The WAL's contents are now durable in the SSTable.
        self.fs.close(self.wal_fd)?;
        self.fs.unlink(&self.wal_path)?;
        self.wal_fd = self.fs.open(&self.wal_path, OpenFlags::append())?;

        if self.sstables.len() >= self.config.compaction_trigger {
            self.compact()?;
        }
        Ok(())
    }

    /// Merges every SSTable into one and removes the inputs.
    pub fn compact(&mut self) -> FsResult<()> {
        if self.sstables.len() < 2 {
            return Ok(());
        }
        // Newest value wins: iterate oldest → newest into a map.
        let mut merged: BTreeMap<Vec<u8>, MemValue> = BTreeMap::new();
        let old: Vec<SsTable> = std::mem::take(&mut self.sstables);
        for table in &old {
            for (key, offset, len) in &table.index {
                if *len == TOMBSTONE {
                    merged.insert(key.clone(), None);
                } else {
                    let view = self.fs.read_view(table.fd, *offset, *len as usize)?;
                    merged.insert(key.clone(), Some(view.into_vec()));
                }
            }
        }
        // Drop tombstones entirely: this is a full merge.
        let entries: Vec<(Vec<u8>, MemValue)> =
            merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        let id = self.next_table_id;
        self.next_table_id += 1;
        let path = format!("{}/sstable-{:06}.sst", self.config.dir, id);
        if !entries.is_empty() {
            let table = Self::write_sstable(self.fs.as_ref(), &path, &entries)?;
            self.sstables.push(table);
        }
        for table in &old {
            self.fs.close(table.fd)?;
            self.fs.unlink(&table.path)?;
        }
        self.compactions += 1;
        Ok(())
    }

    /// Writes a sorted run of entries as an SSTable and returns its
    /// in-memory index.
    fn write_sstable(
        fs: &dyn FileSystem,
        path: &str,
        entries: &[(Vec<u8>, MemValue)],
    ) -> FsResult<SsTable> {
        let fd = fs.open(path, OpenFlags::create_truncate())?;
        let mut index = Vec::with_capacity(entries.len());
        let mut buf = BytesMut::new();
        let mut offset = 0u64;
        for (key, value) in entries {
            let vlen = match value {
                Some(v) => v.len() as u32,
                None => TOMBSTONE,
            };
            buf.put_u32_le(key.len() as u32);
            buf.put_u32_le(vlen);
            buf.put_slice(key);
            let value_offset = offset + 8 + key.len() as u64;
            if let Some(v) = value {
                buf.put_slice(v);
            }
            index.push((key.clone(), value_offset, vlen));
            offset = value_offset + value.as_ref().map(|v| v.len() as u64).unwrap_or(0);

            // Write in large sequential chunks, as LevelDB's table builder
            // does.
            if buf.len() >= 256 * 1024 {
                fs.write(fd, &buf)?;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            fs.write(fd, &buf)?;
        }
        fs.fsync(fd)?;
        // The descriptor is kept open and cached for reads (table cache).
        Ok(SsTable::new(path, fd, index))
    }

    /// Rebuilds an SSTable's index by scanning the file (recovery path).
    fn load_sstable(fs: &dyn FileSystem, path: &str) -> FsResult<SsTable> {
        let data = fs.read_file(path)?;
        let mut cursor = &data[..];
        let mut index = Vec::new();
        let mut offset = 0u64;
        while cursor.remaining() >= 8 {
            let klen = cursor.get_u32_le() as usize;
            let vlen_raw = cursor.get_u32_le();
            let vlen = if vlen_raw == TOMBSTONE {
                0
            } else {
                vlen_raw as usize
            };
            if cursor.remaining() < klen + vlen {
                return Err(FsError::Corrupted(format!("truncated sstable {path}")));
            }
            let key = cursor.copy_to_bytes(klen).to_vec();
            cursor.advance(vlen);
            index.push((key, offset + 8 + klen as u64, vlen_raw));
            offset += 8 + klen as u64 + vlen as u64;
        }
        let fd = fs.open(path, OpenFlags::read_only())?;
        Ok(SsTable::new(path, fd, index))
    }

    /// Flushes everything and fsyncs (clean shutdown).
    pub fn shutdown(&mut self) -> FsResult<()> {
        self.flush_memtable()?;
        self.fs.fsync(self.wal_fd)?;
        self.fs.close(self.wal_fd)?;
        for table in &self.sstables {
            self.fs.close(table.fd)?;
        }
        self.sstables.clear();
        Ok(())
    }
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

    fn small_config() -> LsmConfig {
        LsmConfig {
            dir: "/db".to_string(),
            memtable_bytes: 64 * 1024,
            sync_writes: false,
            compaction_trigger: 4,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        for i in 0..500u32 {
            store
                .put(
                    format!("key{i:05}").as_bytes(),
                    format!("value-{i}").as_bytes(),
                )
                .unwrap();
        }
        for i in (0..500u32).step_by(37) {
            let got = store.get(format!("key{i:05}").as_bytes()).unwrap();
            assert_eq!(got, Some(format!("value-{i}").into_bytes()));
        }
        assert_eq!(store.get(b"missing").unwrap(), None);
    }

    #[test]
    fn updates_and_deletes_are_visible_across_flushes() {
        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        store.put(b"k", b"v1").unwrap();
        store.flush_memtable().unwrap();
        store.put(b"k", b"v2").unwrap();
        store.flush_memtable().unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b"v2".to_vec()));
        store.delete(b"k").unwrap();
        assert_eq!(store.get(b"k").unwrap(), None);
        store.flush_memtable().unwrap();
        assert_eq!(store.get(b"k").unwrap(), None);
    }

    #[test]
    fn memtable_flushes_when_full_and_compaction_bounds_table_count() {
        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        let value = vec![7u8; 1000];
        for i in 0..1000u32 {
            store.put(format!("key{i:06}").as_bytes(), &value).unwrap();
        }
        assert!(store.flush_count() > 0, "memtable must have flushed");
        assert!(
            store.sstable_count() < small_config().compaction_trigger + 1,
            "compaction must bound the SSTable count"
        );
        // Spot-check data survived flush + compaction.
        assert_eq!(store.get(b"key000500").unwrap(), Some(value.clone()));
    }

    #[test]
    fn scan_returns_sorted_ranges_across_sources() {
        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        for i in (0..100u32).rev() {
            store
                .put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        store.flush_memtable().unwrap();
        for i in 100..120u32 {
            store
                .put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let result = store.scan(b"key0095", 10).unwrap();
        assert_eq!(result.len(), 10);
        let keys: Vec<String> = result
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys[0], "key0095");
        assert_eq!(keys[9], "key0104");
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    /// A run of tombstones does not hide the live keys behind it, and
    /// every memtable key that sorts before a returned table key is
    /// returned.
    #[test]
    fn scan_reaches_live_keys_past_tombstones_and_every_memtable_key() {
        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        for i in 0..100u32 {
            store.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        store.flush_memtable().unwrap();
        for i in 0..20u32 {
            store.delete(format!("k{i:03}").as_bytes()).unwrap();
        }
        store.flush_memtable().unwrap();
        let keys: Vec<Vec<u8>> = store
            .scan(b"k000", 5)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let expected: Vec<Vec<u8>> = (20..25u32)
            .map(|i| format!("k{i:03}").into_bytes())
            .collect();
        assert_eq!(keys, expected);

        let mut store = LsmStore::open(fs(), small_config()).unwrap();
        for key in ["y1", "y2", "y3", "y4"] {
            store.put(key.as_bytes(), b"table").unwrap();
        }
        store.flush_memtable().unwrap();
        store.put(b"m", b"memtable").unwrap();
        store.put(b"n", b"memtable").unwrap();
        assert_eq!(
            store.scan(b"a", 2).unwrap(),
            vec![
                (b"m".to_vec(), b"memtable".to_vec()),
                (b"n".to_vec(), b"memtable".to_vec()),
            ]
        );
    }

    #[test]
    fn store_recovers_from_wal_and_sstables_on_reopen() {
        let fs = fs();
        {
            let mut store = LsmStore::open(Arc::clone(&fs), small_config()).unwrap();
            for i in 0..200u32 {
                store
                    .put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            store.flush_memtable().unwrap();
            // These land only in the WAL (no flush, no clean shutdown).
            store.put(b"wal-only", b"survives").unwrap();
        }
        let store = LsmStore::open(fs, small_config()).unwrap();
        assert_eq!(store.get(b"key0123").unwrap(), Some(b"v123".to_vec()));
        assert_eq!(store.get(b"wal-only").unwrap(), Some(b"survives".to_vec()));
    }

    /// `LsmStore` against a `BTreeMap` over a seeded stream of puts,
    /// deletes, gets, flushes, compactions and reopens.  A 4 KiB memtable
    /// and a compaction trigger of 3 keep several tables alive at once;
    /// gets cover keys never put and keys only ever deleted, a tombstone in
    /// a newer table over a value in an older one, a key rewritten in every
    /// table, and a merged table of more than 1000 keys; scans from a
    /// random key compare with the map's range.
    #[test]
    fn store_matches_a_map_model_across_flushes_compactions_and_reopens() {
        const PUT_KEYS: u64 = 2500;
        const ALL_KEYS: u64 = 3000;
        let config = LsmConfig {
            dir: "/model".to_string(),
            memtable_bytes: 4096,
            sync_writes: false,
            compaction_trigger: 3,
        };
        let mut seed = 0x15A_5EED_u64;
        let mut next = move |n: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        // Key 0 is the empty key; keys at or past PUT_KEYS are never put.
        let key = |n: u64| {
            if n == 0 {
                Vec::new()
            } else {
                format!("k{n}").into_bytes()
            }
        };
        let fs = fs();
        let mut store = LsmStore::open(Arc::clone(&fs), config.clone()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        // A tombstone in the newer table shadows the value in the older.
        store.put(b"shadowed", b"old").unwrap();
        store.put(b"hot", b"first").unwrap();
        store.flush_memtable().unwrap();
        store.delete(b"shadowed").unwrap();
        store.put(b"hot", b"second").unwrap();
        store.flush_memtable().unwrap();
        model.insert(b"hot".to_vec(), b"second".to_vec());
        assert_eq!(store.sstable_count(), 2);
        assert_eq!(store.get(b"shadowed").unwrap(), None);

        let mut largest_table = 0;
        let mut reopens = 0;
        for step in 0..20_000u64 {
            // The hot key goes into every table: it is rewritten far more
            // often than a 4 KiB memtable fills, and before every flush.
            if step % 4 == 0 {
                let value = format!("hot-{step}").into_bytes();
                store.put(b"hot", &value).unwrap();
                model.insert(b"hot".to_vec(), value);
            }
            match next(1000) {
                0..=439 => {
                    let k = key(next(PUT_KEYS));
                    let value = vec![b'a' + (step % 26) as u8; next(24) as usize];
                    store.put(&k, &value).unwrap();
                    model.insert(k, value);
                }
                440..=539 => {
                    let k = key(next(ALL_KEYS));
                    store.delete(&k).unwrap();
                    model.remove(&k);
                }
                540..=899 => {
                    let k = key(next(ALL_KEYS));
                    assert_eq!(
                        store.get(&k).unwrap().as_ref(),
                        model.get(&k),
                        "step {step}"
                    );
                }
                900..=949 => {
                    let start = key(next(ALL_KEYS));
                    let count = next(12) as usize;
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(start.clone()..)
                        .take(count)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(store.scan(&start, count).unwrap(), expected, "step {step}");
                }
                950..=979 => {
                    let k = format!("absent-{}", next(ALL_KEYS)).into_bytes();
                    assert_eq!(store.get(&k).unwrap(), None, "step {step}");
                }
                980..=993 => {
                    let value = format!("hot-{step}-flush").into_bytes();
                    store.put(b"hot", &value).unwrap();
                    model.insert(b"hot".to_vec(), value);
                    store.flush_memtable().unwrap();
                }
                994..=997 => store.compact().unwrap(),
                _ => {
                    // Reopen without a clean shutdown: every table is
                    // re-indexed from its file and the WAL replayed.
                    drop(store);
                    store = LsmStore::open(Arc::clone(&fs), config.clone()).unwrap();
                    reopens += 1;
                }
            }
            for table in &store.sstables {
                largest_table = largest_table.max(table.index.len());
                assert!(
                    table.index.iter().any(|(k, _, _)| k == b"hot"),
                    "step {step}: {} lacks the hot key",
                    table.path
                );
            }
        }
        assert!(largest_table > 1000, "largest table {largest_table} keys");
        assert!(reopens > 0);
        assert_eq!(store.get(b"shadowed").unwrap(), None);
        for n in 0..ALL_KEYS {
            let k = key(n);
            assert_eq!(store.get(&k).unwrap().as_ref(), model.get(&k), "key {n}");
        }
    }
}
