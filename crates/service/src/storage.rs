//! The storage write layer: real files plus deterministic fault injection.
//!
//! Durability code never touches `std::fs::File` directly — it writes
//! through the [`StorageFile`] trait, so the same WAL/snapshot logic runs
//! over a [`RealFile`] in production and a [`FaultFile`] under test. The
//! fault layer mirrors `cp_net::FaultPlan`: every fault fate is a pure
//! function of `(seed, file tag, operation ordinal)` drawn from a
//! throwaway RNG, so a faulted run is exactly as reproducible as a clean
//! one and a zero-rate config is behaviorally identical to no faults.
//!
//! Injected kinds model the classic storage failure taxonomy:
//!
//! * **short write** — `write` persists a prefix and returns `Ok(n < len)`
//!   (legal POSIX behavior; callers must loop);
//! * **torn write** — a prefix reaches the file and the call errors, the
//!   on-disk state a power cut mid-`write` leaves behind;
//! * **ENOSPC** — the write errors with nothing persisted;
//! * **failed fsync** — `sync` errors without syncing.
//!
//! All injected faults are *error-visible* to the writer (or legal short
//! counts), so the WAL's truncate-and-retry discipline can always restore
//! the committed prefix; silent corruption is out of scope (the checksum
//! layer catches it at recovery instead).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use cp_runtime::rng::{Rng, SeedableRng, StdRng};

use crate::metrics::ServiceMetrics;

/// The write-side file operations durability code is allowed to use.
pub trait StorageFile: std::fmt::Debug + Send {
    /// Writes a prefix of `buf`, returning how many bytes were accepted
    /// (possibly fewer than `buf.len()`).
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize>;
    /// Forces written data to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
    /// Truncates the file to `len` bytes and repositions the cursor there.
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()>;
}

/// A plain filesystem-backed [`StorageFile`].
#[derive(Debug)]
pub struct RealFile {
    file: File,
}

impl RealFile {
    /// Opens (or creates) `path` for writing, cursor at `pos`.
    pub fn open(path: &Path, pos: u64) -> std::io::Result<RealFile> {
        // Recovery reopens logs mid-file, so an existing file must keep
        // its bytes: never truncate here.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        file.seek(SeekFrom::Start(pos))?;
        Ok(RealFile { file })
    }
}

impl StorageFile for RealFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

/// Per-operation storage fault probabilities. Write operations draw among
/// the three write kinds (mutually exclusive per call); sync operations
/// fail with `fail_fsync`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaults {
    /// Seed for the per-operation fault rolls.
    pub seed: u64,
    /// Probability a write persists only a prefix and returns `Ok(n)`.
    pub short_write: f64,
    /// Probability a write persists a prefix and then errors.
    pub torn_write: f64,
    /// Probability a write errors with nothing persisted (disk full).
    pub enospc: f64,
    /// Probability a sync errors without syncing.
    pub fail_fsync: f64,
}

impl StorageFaults {
    /// Splits a total write-fault probability `rate` evenly across the
    /// three write kinds, and fails syncs at the full `rate`.
    pub fn uniform(seed: u64, rate: f64) -> StorageFaults {
        let p = rate.clamp(0.0, 1.0) / 3.0;
        StorageFaults {
            seed,
            short_write: p,
            torn_write: p,
            enospc: p,
            fail_fsync: rate.clamp(0.0, 1.0),
        }
    }

    /// Whether every rate is zero.
    pub fn is_none(&self) -> bool {
        self.short_write == 0.0
            && self.torn_write == 0.0
            && self.enospc == 0.0
            && self.fail_fsync == 0.0
    }
}

/// One injected storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StorageFaultKind {
    ShortWrite,
    TornWrite,
    Enospc,
    FailedFsync,
}

impl StorageFaultKind {
    fn label(self) -> &'static str {
        match self {
            StorageFaultKind::ShortWrite => "short_write",
            StorageFaultKind::TornWrite => "torn_write",
            StorageFaultKind::Enospc => "enospc",
            StorageFaultKind::FailedFsync => "fsync",
        }
    }
}

/// FNV-1a over the fault seed and an operation's identity — the same
/// keyed-throwaway-RNG construction as `cp_net::FaultInjector::fault_key`,
/// so fault fates never consume from (or perturb) any other stream.
fn fault_key(seed: u64, tag: u64, op: u8, ordinal: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in tag.to_le_bytes().into_iter().chain([op]).chain(ordinal.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A [`StorageFile`] wrapper injecting deterministic write-path faults.
///
/// `tag` identifies the file (e.g. the shard index), so two files under
/// the same fault seed see independent — but each reproducible — fault
/// streams. Injected faults are counted in `cp_wal_faults_total`.
#[derive(Debug)]
pub struct FaultFile<F> {
    inner: F,
    faults: StorageFaults,
    tag: u64,
    writes: u64,
    syncs: u64,
    metrics: Arc<ServiceMetrics>,
}

impl<F: StorageFile> FaultFile<F> {
    /// Wraps `inner` with the given fault config.
    pub fn new(inner: F, faults: StorageFaults, tag: u64, metrics: Arc<ServiceMetrics>) -> Self {
        FaultFile { inner, faults, tag, writes: 0, syncs: 0, metrics }
    }

    fn draw(&self, op: u8, ordinal: u64) -> Option<StorageFaultKind> {
        if self.faults.is_none() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(fault_key(self.faults.seed, self.tag, op, ordinal));
        let roll = rng.gen::<f64>();
        if op == b's' {
            return (roll < self.faults.fail_fsync).then_some(StorageFaultKind::FailedFsync);
        }
        let mut edge = self.faults.short_write;
        if roll < edge {
            return Some(StorageFaultKind::ShortWrite);
        }
        edge += self.faults.torn_write;
        if roll < edge {
            return Some(StorageFaultKind::TornWrite);
        }
        edge += self.faults.enospc;
        if roll < edge {
            return Some(StorageFaultKind::Enospc);
        }
        None
    }

    fn record(&self, kind: StorageFaultKind) {
        self.metrics.wal_faults.inc(kind.label());
    }

    /// Best-effort write of all of `buf` to the inner file (used to
    /// persist the prefix of a torn write).
    fn write_prefix(&mut self, buf: &[u8]) {
        let mut off = 0;
        while off < buf.len() {
            match self.inner.write(&buf[off..]) {
                Ok(0) | Err(_) => return,
                Ok(n) => off += n,
            }
        }
    }
}

impl<F: StorageFile> StorageFile for FaultFile<F> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let ordinal = self.writes;
        self.writes += 1;
        match self.draw(b'w', ordinal) {
            None => self.inner.write(buf),
            Some(kind @ StorageFaultKind::ShortWrite) => {
                self.record(kind);
                // A legal partial count: at least one byte, at most half.
                let n = (buf.len() / 2).max(1).min(buf.len());
                self.write_prefix(&buf[..n]);
                Ok(n)
            }
            Some(kind @ StorageFaultKind::TornWrite) => {
                self.record(kind);
                let n = (buf.len() / 2).max(1).min(buf.len());
                self.write_prefix(&buf[..n]);
                Err(std::io::Error::other("injected torn write"))
            }
            Some(kind @ StorageFaultKind::Enospc) => {
                self.record(kind);
                Err(std::io::Error::other("injected ENOSPC"))
            }
            Some(StorageFaultKind::FailedFsync) => unreachable!("sync kind on write op"),
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let ordinal = self.syncs;
        self.syncs += 1;
        match self.draw(b's', ordinal) {
            None => self.inner.sync(),
            Some(kind) => {
                self.record(kind);
                Err(std::io::Error::other("injected fsync failure"))
            }
        }
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        // Truncation is the *recovery* arm of the retry discipline; faults
        // model the write path, so it passes through clean.
        self.inner.truncate_to(len)
    }
}

/// Opens `path` as a [`StorageFile`] at `pos`, fault-wrapped when a fault
/// config is present.
pub fn open_storage(
    path: &Path,
    pos: u64,
    faults: Option<StorageFaults>,
    tag: u64,
    metrics: &Arc<ServiceMetrics>,
) -> std::io::Result<Box<dyn StorageFile>> {
    let real = RealFile::open(path, pos)?;
    Ok(match faults {
        Some(f) if !f.is_none() => Box::new(FaultFile::new(real, f, tag, Arc::clone(metrics))),
        _ => Box::new(real),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_all(file: &mut dyn StorageFile, buf: &[u8]) -> std::io::Result<()> {
        let mut off = 0;
        while off < buf.len() {
            match file.write(&buf[off..])? {
                0 => return Err(std::io::Error::other("write zero")),
                n => off += n,
            }
        }
        Ok(())
    }

    #[test]
    fn real_file_round_trips_and_truncates() {
        let path = tmp("real.bin");
        let mut f = RealFile::open(&path, 0).unwrap();
        write_all(&mut f, b"hello world").unwrap();
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        f.truncate_to(5).unwrap();
        write_all(&mut f, b"!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello!");
    }

    #[test]
    fn zero_rate_faults_are_identity() {
        let path = tmp("zero.bin");
        let metrics = Arc::new(ServiceMetrics::new());
        let faults = StorageFaults::uniform(1, 0.0);
        assert!(faults.is_none());
        let mut f =
            FaultFile::new(RealFile::open(&path, 0).unwrap(), faults, 0, Arc::clone(&metrics));
        write_all(&mut f, b"clean").unwrap();
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"clean");
        assert_eq!(metrics.wal_faults.total(), 0);
    }

    #[test]
    fn fault_stream_is_deterministic_and_counted() {
        let run = |seed: u64| {
            let path = tmp(&format!("det-{seed}.bin"));
            let metrics = Arc::new(ServiceMetrics::new());
            let faults = StorageFaults::uniform(seed, 0.9);
            let mut f =
                FaultFile::new(RealFile::open(&path, 0).unwrap(), faults, 3, Arc::clone(&metrics));
            let mut outcomes = Vec::new();
            for i in 0..64u64 {
                let buf = vec![i as u8; 16];
                outcomes.push(match f.write(&buf) {
                    Ok(n) => format!("ok{n}"),
                    Err(e) => format!("err:{e}"),
                });
                outcomes.push(match f.sync() {
                    Ok(()) => "sync".to_string(),
                    Err(e) => format!("syncerr:{e}"),
                });
            }
            std::fs::remove_file(&path).ok();
            (outcomes, metrics.wal_faults.total())
        };
        let (a, faults_a) = run(42);
        let (b, faults_b) = run(42);
        assert_eq!(a, b, "same seed, same fault stream");
        assert!(faults_a > 0, "90% rate over 128 ops must fault");
        assert_eq!(faults_a, faults_b);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn torn_write_persists_a_prefix_then_errors() {
        // Drive a torn-only config until one fires; the file must hold a
        // strict prefix of the attempted buffer afterwards.
        let path = tmp("torn.bin");
        let metrics = Arc::new(ServiceMetrics::new());
        let faults = StorageFaults {
            seed: 7,
            short_write: 0.0,
            torn_write: 1.0,
            enospc: 0.0,
            fail_fsync: 0.0,
        };
        let mut f =
            FaultFile::new(RealFile::open(&path, 0).unwrap(), faults, 0, Arc::clone(&metrics));
        let err = f.write(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn"));
        let on_disk = std::fs::read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < 10, "prefix persisted: {on_disk:?}");
        assert!(b"0123456789".starts_with(&on_disk[..]));
    }
}
