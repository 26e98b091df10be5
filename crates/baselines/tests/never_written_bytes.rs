//! No read returns bytes its file never wrote, on any baseline.
//!
//! Each baseline runs on a device whose every byte starts as 0xEE, so a
//! block handed out without being zeroed shows up in the first read that
//! reaches it.  Each case writes a file through the `FileSystem` surface,
//! keeps a model of what it wrote (never-written bytes are zero), and
//! reads the whole file back before and after a `sync` (Strata's digest
//! moves its blocks from the private log into the shared area).

use std::sync::Arc;

use baselines::{Nova, NovaMode, Pmfs, Strata};
use pmem::{PmemBuilder, PmemDevice};
use vfs::{Fd, FileSystem, OpenFlags};

const DEVICE_BYTES: usize = 80 * 1024 * 1024;
const BLOCK: usize = 4096;

/// A device every byte of which holds 0xEE.
fn filled_device() -> Arc<PmemDevice> {
    let device = PmemBuilder::new(DEVICE_BYTES)
        .track_persistence(false)
        .build();
    let chunk = vec![0xEEu8; 1024 * 1024];
    for at in (0..DEVICE_BYTES).step_by(chunk.len()) {
        device.write_uncharged(at as u64, &chunk);
    }
    device
}

fn baselines() -> Vec<Arc<dyn FileSystem>> {
    vec![
        Pmfs::new(filled_device()),
        Nova::new(filled_device(), NovaMode::Relaxed),
        Nova::new(filled_device(), NovaMode::Strict),
        Strata::with_log_capacity(filled_device(), 8 * 1024 * 1024),
    ]
}

/// A file and the bytes it must read back.
struct Model<'a> {
    fs: &'a dyn FileSystem,
    path: &'static str,
    fd: Fd,
    bytes: Vec<u8>,
}

impl<'a> Model<'a> {
    fn create(fs: &'a dyn FileSystem, path: &'static str) -> Self {
        let fd = fs.open(path, OpenFlags::create()).unwrap();
        Self {
            fs,
            path,
            fd,
            bytes: Vec::new(),
        }
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.fs.write_at(self.fd, offset as u64, data).unwrap();
        let end = offset + data.len();
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[offset..end].copy_from_slice(data);
    }

    fn ftruncate(&mut self, size: usize) {
        self.fs.ftruncate(self.fd, size as u64).unwrap();
        self.bytes.resize(size, 0);
    }

    /// Bytes that read back other than the model says, before and after a
    /// `sync`.
    fn wrong_bytes(&self) -> [usize; 2] {
        [(), ()].map(|_| {
            let read = self.fs.read_file(self.path).unwrap();
            assert_eq!(read.len(), self.bytes.len(), "{}", self.path);
            let wrong = read.iter().zip(&self.bytes).filter(|(a, b)| a != b);
            let wrong = wrong.count();
            self.fs.sync().unwrap();
            wrong
        })
    }
}

#[test]
fn never_written_bytes_read_zero_on_every_baseline() {
    let mut failures = Vec::new();
    for fs in baselines() {
        let fs = &*fs;
        let mut cases: Vec<(&str, Model<'_>)> = Vec::new();

        let mut f = Model::create(fs, "/shrink-grow");
        f.write_at(0, &[0x11; 2 * BLOCK]);
        f.ftruncate(100);
        f.ftruncate(4 * BLOCK);
        cases.push(("shrink then grow", f));

        let mut f = Model::create(fs, "/shrink-write");
        f.write_at(0, &[0x22; 2 * BLOCK]);
        f.ftruncate(100);
        f.write_at(6000, &[0x33; 100]);
        cases.push(("shrink then write past EOF", f));

        let mut f = Model::create(fs, "/hole");
        f.write_at(5000, &[0x44; 100]);
        cases.push(("a hole from a write past EOF", f));

        let mut f = Model::create(fs, "/tail-hole");
        f.write_at(0, &[0x55; 700]);
        f.write_at(2 * BLOCK + 1000, &[0x55; 100]);
        cases.push(("a write past an unaligned EOF", f));

        let mut f = Model::create(fs, "/inner-hole");
        f.ftruncate(4 * BLOCK);
        f.write_at(BLOCK + 100, &[0x77; 100]);
        cases.push(("a write into a hole below EOF", f));

        // Another file's blocks are freed, then reused by a small write
        // and by growth.
        let mut old = Model::create(fs, "/old");
        old.write_at(0, &[0xAB; 64 * BLOCK]);
        fs.sync().unwrap();
        fs.close(old.fd).unwrap();
        fs.unlink("/old").unwrap();
        fs.sync().unwrap();
        let mut f = Model::create(fs, "/reused");
        f.write_at(0, &[0x66; 100]);
        fs.sync().unwrap();
        f.ftruncate(64 * BLOCK);
        cases.push(("growth after another file's blocks were freed", f));

        for (case, file) in &cases {
            let wrong = file.wrong_bytes();
            if wrong != [0, 0] {
                failures.push(format!(
                    "{}: {case}: {} bytes wrong before sync, {} after",
                    fs.name(),
                    wrong[0],
                    wrong[1]
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
