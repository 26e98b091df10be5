//! A SQLite-like embedded database in write-ahead-logging (WAL) mode.
//!
//! The SplitFS paper runs TPC-C on SQLite in WAL mode; what the file system
//! observes is: random page reads from the main database file, whole dirty
//! pages appended to the WAL at commit followed by an `fsync`, and periodic
//! checkpoints that write the WAL's pages back into the main file.  This
//! module reproduces exactly that traffic with a small page-based table
//! store: rows are kept in 4 KiB pages, an in-memory row index maps keys to
//! pages, transactions buffer dirty pages and commit them to the WAL, and a
//! checkpoint copies the newest version of each page into the database file
//! and truncates the WAL.
//!
//! Commits normally go through the synchronous vectored path (one
//! `writev_at`, one `fdatasync`).  [`WalDb::attach_ring`] switches the
//! commit to an [`aio`] submission ring instead: the WAL frames are
//! submitted as one `WritevAt` sqe and durability comes from awaiting the
//! completion's **durability epoch** rather than issuing the fsync — so
//! concurrent databases over one ring hub share log fences.  The
//! synchronous path is untouched and remains the default.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use vfs::{Fd, FileSystem, FsError, FsResult, IoVec, OpenFlags};

/// Page size used by the pager.
pub const PAGE_SIZE: usize = 4096;

/// Configuration of a [`WalDb`].
#[derive(Debug, Clone)]
pub struct WalDbConfig {
    /// Path of the main database file.
    pub db_path: String,
    /// Path of the write-ahead log.
    pub wal_path: String,
    /// Checkpoint once the WAL holds this many frames.
    pub checkpoint_frames: usize,
    /// Fsync the WAL at every commit (SQLite `synchronous=FULL`).
    pub sync_commits: bool,
    /// Maximum clean pages kept in the in-memory page cache (SQLite's page
    /// cache is bounded; reads beyond it hit the file system).
    pub cache_pages: usize,
}

impl Default for WalDbConfig {
    fn default() -> Self {
        Self {
            db_path: "/sqlite/main.db".to_string(),
            wal_path: "/sqlite/main.db-wal".to_string(),
            checkpoint_frames: 1000,
            sync_commits: true,
            cache_pages: 1024,
        }
    }
}

/// A row location: which page holds it.
type RowKey = (u8, u64);

/// Ring-commit state: the hub whose backend executes the batches, one
/// submission ring, and the next submission tag.
struct RingCommit {
    hub: Arc<aio::RingFs>,
    ring: aio::Ring,
    next_user_data: u64,
}

/// The WAL-mode page store.
pub struct WalDb {
    fs: Arc<dyn FileSystem>,
    config: WalDbConfig,
    ring: Option<RingCommit>,
    db_fd: Fd,
    wal_fd: Fd,
    /// Number of pages in the database file.
    page_count: u64,
    /// Latest WAL offset of each page image not yet checkpointed.
    wal_index: BTreeMap<u64, u64>,
    /// Frames currently in the WAL.
    wal_frames: usize,
    /// Byte length of the WAL file.
    wal_len: u64,
    /// key → page number.
    row_index: HashMap<RowKey, u64>,
    /// Free bytes per page.
    free_space: BTreeMap<u64, usize>,
    /// Pages modified by the current transaction.
    dirty: BTreeMap<u64, Vec<u8>>,
    /// Clean page cache.
    cache: BTreeMap<u64, Vec<u8>>,
    /// Committed transactions (exposed for experiments).
    commits: u64,
    /// Checkpoints run (exposed for experiments).
    checkpoints: u64,
}

impl std::fmt::Debug for WalDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalDb")
            .field("pages", &self.page_count)
            .field("rows", &self.row_index.len())
            .field("wal_frames", &self.wal_frames)
            .finish()
    }
}

/// WAL frame header: page number + payload length.
const FRAME_HEADER: usize = 16;

impl WalDb {
    /// Creates or reopens a database at the configured paths.
    pub fn open(fs: Arc<dyn FileSystem>, config: WalDbConfig) -> FsResult<Self> {
        // Ensure the parent directory exists.
        let norm = vfs::path::normalize(&config.db_path)?;
        if let Ok((parent, _)) = vfs::path::split(&norm) {
            if parent != "/" && !fs.exists(parent) {
                fs.mkdir(parent)?;
            }
        }
        let db_fd = fs.open(&config.db_path, OpenFlags::create())?;
        let wal_fd = fs.open(&config.wal_path, OpenFlags::create())?;
        let db_size = fs.fstat(db_fd)?.size;
        let page_count = db_size / PAGE_SIZE as u64;

        let mut db = Self {
            fs,
            config,
            ring: None,
            db_fd,
            wal_fd,
            page_count,
            wal_index: BTreeMap::new(),
            wal_frames: 0,
            wal_len: 0,
            row_index: HashMap::new(),
            free_space: BTreeMap::new(),
            dirty: BTreeMap::new(),
            cache: BTreeMap::new(),
            commits: 0,
            checkpoints: 0,
        };
        db.recover()?;
        Ok(db)
    }

    /// Rebuilds the in-memory row index from the database file and replays
    /// committed WAL frames.
    fn recover(&mut self) -> FsResult<()> {
        // Replay WAL frames over the page set.
        let wal_data = self.fs.read_file(&self.config.wal_path)?;
        let mut cursor = &wal_data[..];
        let mut offset = 0u64;
        while cursor.remaining() >= FRAME_HEADER {
            let page_no = cursor.get_u64_le();
            let len = cursor.get_u64_le() as usize;
            if len != PAGE_SIZE || cursor.remaining() < len {
                break;
            }
            cursor.advance(len);
            self.wal_index.insert(page_no, offset + FRAME_HEADER as u64);
            self.page_count = self.page_count.max(page_no + 1);
            self.wal_frames += 1;
            offset += (FRAME_HEADER + len) as u64;
        }
        self.wal_len = offset;

        // Scan every page to rebuild the row index and free-space map.
        for page_no in 0..self.page_count {
            let page = self.load_page(page_no)?;
            let (rows, free) = Self::parse_page(&page);
            for (key, _, _) in rows {
                self.row_index.insert(key, page_no);
            }
            self.free_space.insert(page_no, free);
        }
        Ok(())
    }

    /// Number of committed transactions.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Number of checkpoints performed.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints
    }

    /// Number of rows currently stored.
    pub fn row_count(&self) -> usize {
        self.row_index.len()
    }

    // ------------------------------------------------------------------
    // Page layout: [n u16] then n records of [table u8][key u64][len u16][bytes]
    // ------------------------------------------------------------------

    fn parse_page(page: &[u8]) -> (Vec<(RowKey, usize, usize)>, usize) {
        let mut rows = Vec::new();
        let mut cursor = page;
        if cursor.remaining() < 2 {
            return (rows, PAGE_SIZE - 2);
        }
        let n = cursor.get_u16_le() as usize;
        let mut pos = 2usize;
        for _ in 0..n {
            if cursor.remaining() < 11 {
                break;
            }
            let table = cursor.get_u8();
            let key = cursor.get_u64_le();
            let len = cursor.get_u16_le() as usize;
            if cursor.remaining() < len {
                break;
            }
            cursor.advance(len);
            rows.push(((table, key), pos + 11, len));
            pos += 11 + len;
        }
        (rows, PAGE_SIZE.saturating_sub(pos))
    }

    fn rebuild_page(rows: &BTreeMap<RowKey, Vec<u8>>) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(PAGE_SIZE);
        buf.put_u16_le(rows.len() as u16);
        for ((table, key), value) in rows {
            buf.put_u8(*table);
            buf.put_u64_le(*key);
            buf.put_u16_le(value.len() as u16);
            buf.put_slice(value);
        }
        let mut page = buf.to_vec();
        page.resize(PAGE_SIZE, 0);
        page
    }

    fn page_rows(&mut self, page_no: u64) -> FsResult<BTreeMap<RowKey, Vec<u8>>> {
        let page = self.load_page(page_no)?;
        let (rows, _) = Self::parse_page(&page);
        let mut map = BTreeMap::new();
        for (key, offset, len) in rows {
            map.insert(key, page[offset..offset + len].to_vec());
        }
        Ok(map)
    }

    fn load_page(&mut self, page_no: u64) -> FsResult<Vec<u8>> {
        if let Some(p) = self.dirty.get(&page_no) {
            return Ok(p.clone());
        }
        if let Some(p) = self.cache.get(&page_no) {
            return Ok(p.clone());
        }
        let mut page = vec![0u8; PAGE_SIZE];
        if let Some(&wal_off) = self.wal_index.get(&page_no) {
            self.fs.read_at(self.wal_fd, wal_off, &mut page)?;
        } else {
            self.fs
                .read_at(self.db_fd, page_no * PAGE_SIZE as u64, &mut page)?;
        }
        self.cache_insert(page_no, page.clone());
        Ok(page)
    }

    /// Inserts a clean page into the bounded cache, evicting the
    /// lowest-numbered clean page when the cache is full.
    fn cache_insert(&mut self, page_no: u64, page: Vec<u8>) {
        if self.cache.len() >= self.config.cache_pages {
            self.cache.pop_first();
        }
        self.cache.insert(page_no, page);
    }

    fn mark_dirty(&mut self, page_no: u64, rows: &BTreeMap<RowKey, Vec<u8>>) {
        let page = Self::rebuild_page(rows);
        let used: usize = 2 + rows.values().map(|v| 11 + v.len()).sum::<usize>();
        self.free_space
            .insert(page_no, PAGE_SIZE.saturating_sub(used));
        self.cache.remove(&page_no);
        self.dirty.insert(page_no, page);
    }

    fn allocate_page(&mut self) -> u64 {
        let page_no = self.page_count;
        self.page_count += 1;
        self.free_space.insert(page_no, PAGE_SIZE - 2);
        self.dirty
            .insert(page_no, Self::rebuild_page(&BTreeMap::new()));
        page_no
    }

    fn find_page_with_space(&self, need: usize) -> Option<u64> {
        self.free_space
            .iter()
            .find(|(_, &free)| free >= need + 11)
            .map(|(&p, _)| p)
    }

    // ------------------------------------------------------------------
    // Row operations (used inside a transaction)
    // ------------------------------------------------------------------

    /// Inserts or updates a row.
    pub fn upsert(&mut self, table: u8, key: u64, value: &[u8]) -> FsResult<()> {
        if value.len() + 11 + 2 > PAGE_SIZE {
            return Err(FsError::InvalidArgument);
        }
        let row_key = (table, key);
        if let Some(&page_no) = self.row_index.get(&row_key) {
            let mut rows = self.page_rows(page_no)?;
            let old_len = rows.get(&row_key).map(|v| v.len()).unwrap_or(0);
            let used: usize = 2 + rows.values().map(|v| 11 + v.len()).sum::<usize>();
            if used - old_len + value.len() <= PAGE_SIZE {
                rows.insert(row_key, value.to_vec());
                self.mark_dirty(page_no, &rows);
                return Ok(());
            }
            // Row no longer fits here: remove and fall through to re-insert.
            rows.remove(&row_key);
            self.mark_dirty(page_no, &rows);
            self.row_index.remove(&row_key);
        }
        let page_no = match self.find_page_with_space(value.len()) {
            Some(p) => p,
            None => self.allocate_page(),
        };
        let mut rows = self.page_rows(page_no)?;
        rows.insert(row_key, value.to_vec());
        self.mark_dirty(page_no, &rows);
        self.row_index.insert(row_key, page_no);
        Ok(())
    }

    /// Reads a row.
    pub fn get(&mut self, table: u8, key: u64) -> FsResult<Option<Vec<u8>>> {
        let row_key = (table, key);
        let Some(&page_no) = self.row_index.get(&row_key) else {
            return Ok(None);
        };
        let rows = self.page_rows(page_no)?;
        Ok(rows.get(&row_key).cloned())
    }

    /// Deletes a row.
    pub fn delete(&mut self, table: u8, key: u64) -> FsResult<bool> {
        let row_key = (table, key);
        let Some(page_no) = self.row_index.remove(&row_key) else {
            return Ok(false);
        };
        let mut rows = self.page_rows(page_no)?;
        rows.remove(&row_key);
        self.mark_dirty(page_no, &rows);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Commits the current transaction: every dirty page becomes a WAL
    /// frame, in page order, the WAL is fsynced, and a checkpoint runs if
    /// the WAL has grown past the configured threshold.
    pub fn commit(&mut self) -> FsResult<()> {
        if self.dirty.is_empty() {
            self.commits += 1;
            return Ok(());
        }
        let dirty: Vec<(u64, Vec<u8>)> = std::mem::take(&mut self.dirty).into_iter().collect();
        // Every frame is gathered from its 16-byte header and the page
        // image in place — one vectored write commits the transaction
        // instead of one copy into a contiguous buffer.
        let mut headers = Vec::with_capacity(dirty.len());
        let mut offsets = Vec::with_capacity(dirty.len());
        let mut frame_off = self.wal_len;
        for (page_no, _) in &dirty {
            let mut header = [0u8; FRAME_HEADER];
            header[..8].copy_from_slice(&page_no.to_le_bytes());
            header[8..].copy_from_slice(&(PAGE_SIZE as u64).to_le_bytes());
            headers.push(header);
            offsets.push((*page_no, frame_off + FRAME_HEADER as u64));
            frame_off += (FRAME_HEADER + PAGE_SIZE) as u64;
        }
        let written = if self.ring.is_some() {
            let mut bufs = Vec::with_capacity(dirty.len() * 2);
            for (header, (_, page)) in headers.iter().zip(&dirty) {
                bufs.push(header.to_vec());
                bufs.push(page.clone());
            }
            self.ring_commit(bufs)? as usize
        } else {
            let mut iov = Vec::with_capacity(dirty.len() * 2);
            for (header, (_, page)) in headers.iter().zip(&dirty) {
                iov.push(IoVec::new(&header[..]));
                iov.push(IoVec::new(page));
            }
            let written = self.fs.writev_at(self.wal_fd, self.wal_len, &iov)?;
            if self.config.sync_commits {
                // The WAL is data-durability only: the page images must be
                // persistent, the file metadata can trail (fdatasync).
                self.fs.fdatasync(self.wal_fd)?;
            }
            written
        };
        self.wal_len += written as u64;
        self.wal_frames += dirty.len();
        for (page_no, off) in offsets {
            self.wal_index.insert(page_no, off);
        }
        for (page_no, page) in dirty {
            self.cache_insert(page_no, page);
        }
        self.commits += 1;
        if self.wal_frames >= self.config.checkpoint_frames {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Routes subsequent commits through `hub`'s submission rings: the
    /// transaction's WAL frames become one `WritevAt` submission and
    /// durability comes from awaiting the completion's durability epoch
    /// instead of an `fdatasync`.  `hub` must be built over the same
    /// file system this database runs on.  The synchronous path is
    /// restored by never calling this (it stays the default).
    pub fn attach_ring(&mut self, hub: Arc<aio::RingFs>) {
        let ring = hub.ring(8);
        self.ring = Some(RingCommit {
            hub,
            ring,
            next_user_data: 1,
        });
    }

    /// Commits one transaction's gathered frames through the attached
    /// ring, then awaits the completion's epoch when commits are
    /// synchronous.
    fn ring_commit(&mut self, bufs: Vec<Vec<u8>>) -> FsResult<u64> {
        let rc = self.ring.as_mut().expect("ring attached");
        let user_data = rc.next_user_data;
        rc.next_user_data += 1;
        let mut sqe = aio::Sqe::writev_at(user_data, self.wal_fd, self.wal_len, bufs);
        loop {
            match rc.ring.try_submit(sqe) {
                Ok(()) => break,
                Err(back) => {
                    // Ring full: help drain, then retry.
                    sqe = back;
                    rc.hub.drain(aio::DEFAULT_DRAIN_BATCH);
                }
            }
        }
        let mut cqes = Vec::new();
        let cqe = loop {
            rc.hub.drain(aio::DEFAULT_DRAIN_BATCH);
            rc.ring.harvest(&mut cqes);
            if let Some(pos) = cqes.iter().position(|c| c.user_data == user_data) {
                break cqes.swap_remove(pos);
            }
            std::thread::yield_now();
        };
        let written = cqe.result?;
        if self.config.sync_commits {
            rc.hub.await_epoch(cqe.epoch)?;
        }
        Ok(written)
    }

    /// Discards the current transaction's dirty pages.
    pub fn rollback(&mut self) {
        self.dirty.clear();
        // The free-space map may now be stale for the rolled-back pages;
        // rebuild lazily on next access by dropping those entries.
        self.free_space.clear();
        self.cache.clear();
    }

    /// Copies the newest version of every WAL page back into the database
    /// file, in page order, and truncates the WAL (SQLite checkpoint).
    pub fn checkpoint(&mut self) -> FsResult<()> {
        let pages: Vec<u64> = self.wal_index.keys().copied().collect();
        for page_no in pages {
            let page = self.load_page(page_no)?;
            self.fs
                .write_at(self.db_fd, page_no * PAGE_SIZE as u64, &page)?;
        }
        self.fs.fsync(self.db_fd)?;
        self.fs.ftruncate(self.wal_fd, 0)?;
        self.fs.fsync(self.wal_fd)?;
        self.wal_index.clear();
        self.wal_frames = 0;
        self.wal_len = 0;
        self.checkpoints += 1;
        Ok(())
    }

    /// Flushes everything and closes the files.
    pub fn shutdown(&mut self) -> FsResult<()> {
        self.commit()?;
        self.checkpoint()?;
        self.fs.close(self.db_fd)?;
        self.fs.close(self.wal_fd)?;
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

    fn config() -> WalDbConfig {
        WalDbConfig {
            checkpoint_frames: 64,
            ..WalDbConfig::default()
        }
    }

    #[test]
    fn upsert_get_delete_round_trip() {
        let mut db = WalDb::open(fs(), config()).unwrap();
        db.upsert(1, 42, b"hello row").unwrap();
        db.commit().unwrap();
        assert_eq!(db.get(1, 42).unwrap(), Some(b"hello row".to_vec()));
        assert_eq!(db.get(1, 43).unwrap(), None);
        assert!(db.delete(1, 42).unwrap());
        db.commit().unwrap();
        assert_eq!(db.get(1, 42).unwrap(), None);
    }

    #[test]
    fn rows_spread_across_pages_and_grow_the_file() {
        let mut db = WalDb::open(fs(), config()).unwrap();
        let row = vec![3u8; 500];
        for key in 0..200u64 {
            db.upsert(1, key, &row).unwrap();
        }
        db.commit().unwrap();
        assert!(db.page_count > 10, "200 x 500 B rows need many pages");
        for key in (0..200u64).step_by(17) {
            assert_eq!(db.get(1, key).unwrap(), Some(row.clone()));
        }
    }

    #[test]
    fn updates_that_no_longer_fit_move_to_another_page() {
        let mut db = WalDb::open(fs(), config()).unwrap();
        // Fill one page almost completely.
        for key in 0..7u64 {
            db.upsert(1, key, &vec![1u8; 500]).unwrap();
        }
        db.commit().unwrap();
        // Grow one row so it cannot stay on its page.
        db.upsert(1, 3, &vec![2u8; 2000]).unwrap();
        db.commit().unwrap();
        assert_eq!(db.get(1, 3).unwrap(), Some(vec![2u8; 2000]));
        assert_eq!(db.get(1, 2).unwrap(), Some(vec![1u8; 500]));
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_preserves_data() {
        let mut db = WalDb::open(
            fs(),
            WalDbConfig {
                checkpoint_frames: 8,
                ..WalDbConfig::default()
            },
        )
        .unwrap();
        for key in 0..500u64 {
            db.upsert(2, key, format!("row-{key}").as_bytes()).unwrap();
            if key % 10 == 9 {
                db.commit().unwrap();
            }
        }
        db.commit().unwrap();
        assert!(
            db.checkpoint_count() > 0,
            "WAL threshold must force checkpoints"
        );
        db.checkpoint().unwrap();
        for key in (0..500u64).step_by(71) {
            assert_eq!(
                db.get(2, key).unwrap(),
                Some(format!("row-{key}").into_bytes())
            );
        }
    }

    #[test]
    fn rollback_discards_uncommitted_changes() {
        let mut db = WalDb::open(fs(), config()).unwrap();
        db.upsert(1, 1, b"committed").unwrap();
        db.commit().unwrap();
        db.upsert(1, 1, b"uncommitted").unwrap();
        db.rollback();
        assert_eq!(db.get(1, 1).unwrap(), Some(b"committed".to_vec()));
    }

    #[test]
    fn ring_commits_preserve_data_and_survive_reopen() {
        let device = PmemBuilder::new(256 * 1024 * 1024)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(device).unwrap();
        let split = splitfs::SplitFs::new(
            kernel,
            splitfs::SplitConfig::new(splitfs::Mode::Strict)
                .with_staging(4, 8 * 1024 * 1024)
                .with_oplog_size(512 * 1024),
        )
        .unwrap();
        let hub = splitfs::ring_hub(&split);
        let fs: Arc<dyn FileSystem> = split;
        {
            let mut db = WalDb::open(Arc::clone(&fs), config()).unwrap();
            db.attach_ring(Arc::clone(&hub));
            for key in 0..120u64 {
                db.upsert(1, key, format!("ring-{key}").as_bytes()).unwrap();
                if key % 8 == 7 {
                    db.commit().unwrap();
                }
            }
            db.commit().unwrap();
            // No clean shutdown: the awaited epochs are the durability.
        }
        let mut db = WalDb::open(fs, config()).unwrap();
        for key in [0u64, 63, 119] {
            assert_eq!(
                db.get(1, key).unwrap(),
                Some(format!("ring-{key}").into_bytes()),
                "key {key}"
            );
        }
    }

    /// Two fresh stacks in one process run the same transactions: page
    /// eviction, the frame order of a commit and the checkpoint's write
    /// order must not depend on a per-instance hasher, so the device
    /// traffic and the WAL come out byte for byte the same.
    #[test]
    fn the_same_transactions_give_the_same_traffic_and_wal() {
        let run = || {
            let device = PmemBuilder::new(64 * 1024 * 1024)
                .track_persistence(false)
                .build();
            let fs: Arc<dyn FileSystem> = Ext4Dax::mkfs(Arc::clone(&device)).unwrap();
            let config = WalDbConfig {
                checkpoint_frames: 48,
                cache_pages: 8,
                ..WalDbConfig::default()
            };
            let mut db = WalDb::open(Arc::clone(&fs), config.clone()).unwrap();
            let mut seed = 0x7CC_5EED_u64;
            for txn in 0..150u64 {
                for _ in 0..6 {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let key = (seed >> 33) % 400;
                    let table = (key % 3) as u8;
                    if key.is_multiple_of(5) {
                        db.get(table, key).unwrap();
                    } else {
                        let row = vec![(txn % 251) as u8; 100 + (key % 7) as usize * 40];
                        db.upsert(table, key, &row).unwrap();
                    }
                }
                db.commit().unwrap();
            }
            assert!(db.checkpoint_count() > 0);
            let wal = fs.read_file(&config.wal_path).unwrap();
            assert!(!wal.is_empty());
            (device.stats().snapshot(), wal)
        };
        let (first_stats, first_wal) = run();
        let (second_stats, second_wal) = run();
        assert!(first_wal == second_wal, "the WAL bytes differ");
        assert_eq!(first_stats, second_stats);
    }

    #[test]
    fn database_recovers_after_reopen() {
        let fs = fs();
        {
            let mut db = WalDb::open(Arc::clone(&fs), config()).unwrap();
            for key in 0..100u64 {
                db.upsert(1, key, format!("persistent-{key}").as_bytes())
                    .unwrap();
            }
            db.commit().unwrap();
            // Half the data is checkpointed into the main file, half stays
            // in the WAL.
            db.checkpoint().unwrap();
            for key in 100..150u64 {
                db.upsert(1, key, format!("persistent-{key}").as_bytes())
                    .unwrap();
            }
            db.commit().unwrap();
            // No clean shutdown.
        }
        let mut db = WalDb::open(fs, config()).unwrap();
        for key in [0u64, 99, 100, 149] {
            assert_eq!(
                db.get(1, key).unwrap(),
                Some(format!("persistent-{key}").into_bytes()),
                "key {key}"
            );
        }
    }
}
