//! The per-shard append-only write-ahead log.
//!
//! Every store mutation is one [`VisitEvent`], encoded as a checksummed,
//! length-prefixed record and appended to the shard's log *before* the
//! mutation is applied in memory (and so before any response is written
//! — the ack barrier). Recovery replays the log over the last snapshot;
//! a torn or checksum-failing suffix is discarded, so the recovered
//! state is always a prefix of the acked event stream.
//!
//! Log layout:
//!
//! ```text
//! [magic "CPWAL001"] [generation: u64 LE]      — 16-byte log header
//! [len: u32 LE] [checksum: u64 LE] [payload]   — records, back to back
//! ```
//!
//! with `checksum = FNV-1a64(len_le ++ payload)` — the length is covered
//! so a record whose length field was torn cannot masquerade as valid.
//!
//! The **generation** makes checkpointing unambiguous. A snapshot records
//! `(generation, covered)`: "I already contain the first `covered`
//! records of log generation `generation`". Truncating the log after a
//! snapshot starts a fresh generation, so recovery can always tell a
//! pre-truncation log (same generation → skip the covered prefix, it is
//! in the snapshot) from a post-truncation one (new generation → replay
//! everything) — even when both happen to hold the same record count.
//!
//! Write errors follow a truncate-and-retry discipline: any failed or
//! torn append rewinds the file to the last committed offset and retries
//! the whole record, so the log on disk is always a clean concatenation
//! of complete records (plus at most one torn tail from the final crash).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::ServiceMetrics;
use crate::storage::{open_storage, StorageFaults, StorageFile};

/// Largest record the reader will accept; a length beyond this is treated
/// as a torn/corrupt tail, not an allocation request.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Frame header size: `u32` length + `u64` checksum.
pub(crate) const HEADER_BYTES: usize = 12;

/// Log-file magic, followed by the `u64` generation.
const LOG_MAGIC: &[u8; 8] = b"CPWAL001";

/// Log header size: magic + generation.
const LOG_HEADER_BYTES: usize = 16;

/// Appends between syncs under [`FsyncPolicy::Batch`] — the starting
/// point the [`GroupCommitTuner`] adapts from.
pub const BATCH_INTERVAL: u64 = 64;

/// Smallest batch the tuner will shrink to.
pub const TUNE_MIN_BATCH: u64 = 8;

/// Largest batch the tuner will grow to.
pub const TUNE_MAX_BATCH: u64 = 1024;

/// Fsync overhead budget, in percent of wall time: above this the batch
/// grows (amortize harder), an order of magnitude below it the batch
/// shrinks (durability latency is nearly free at low load). 7% overhead
/// keeps durable-mode throughput above the 0.93× ratio the crash bench
/// gates on.
const TUNE_OVERHEAD_BUDGET_PCT: u64 = 7;

/// Attempts before a write or sync error is given up on.
const MAX_ATTEMPTS: usize = 8;

/// Adapts the group-commit batch size to offered load.
///
/// Pure arithmetic over observed timings — no clocks of its own, so it is
/// unit-testable with synthetic inputs. After each batch-triggered sync
/// the caller reports how long the batch took to fill (`elapsed_micros`)
/// and how long the sync itself took (`fsync_micros`):
///
/// - fsync overhead above `TUNE_OVERHEAD_BUDGET_PCT` of wall time means
///   the load is outrunning the amortization — the batch doubles (capped
///   at [`TUNE_MAX_BATCH`]);
/// - overhead below 1% means batches fill slowly relative to the sync
///   cost — the batch halves (floored at [`TUNE_MIN_BATCH`]) so records
///   reach stable storage sooner when the extra syncs are nearly free.
///
/// The tuner is only installed when no storage faults are injected: the
/// seeded fault stream advances per file operation, so adapting the sync
/// cadence under faults would perturb chaos/crash determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitTuner {
    batch: u64,
}

impl Default for GroupCommitTuner {
    fn default() -> Self {
        GroupCommitTuner { batch: BATCH_INTERVAL }
    }
}

impl GroupCommitTuner {
    /// The current appends-between-syncs target.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Feeds one completed batch's timings; returns the next batch size.
    /// `pending` is how many records the sync committed (a flush below
    /// the target — e.g. a checkpoint — reports fewer and never grows).
    pub fn on_sync(&mut self, pending: u64, elapsed_micros: u64, fsync_micros: u64) -> u64 {
        let overhead = fsync_micros.saturating_mul(100);
        if overhead > elapsed_micros.saturating_mul(TUNE_OVERHEAD_BUDGET_PCT)
            && pending >= self.batch
        {
            self.batch = (self.batch * 2).min(TUNE_MAX_BATCH);
        } else if overhead < elapsed_micros {
            self.batch = (self.batch / 2).max(TUNE_MIN_BATCH);
        }
        self.batch
    }
}

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every record — maximum durability, minimum throughput.
    Always,
    /// Group commit: sync every [`BATCH_INTERVAL`] records.
    #[default]
    Batch,
    /// Never sync; rely on the kernel's writeback (still survives
    /// `kill -9` — the page cache belongs to the kernel, not the process).
    Never,
}

impl FsyncPolicy {
    /// Parses a CLI value (`always` / `batch` / `never`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    /// The CLI / log label.
    pub fn label(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }
}

/// What a probe decided, inside a [`VisitEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A visit that issued no hidden request (nothing to test, or
    /// training dormant): only the FORCUM observation applies.
    Observe,
    /// A visit whose hidden probe was inconclusive and deferred.
    Defer,
    /// A decided probe over `group`.
    Probe {
        /// The cookie group under test (marked useful when `marking`).
        group: Vec<String>,
        /// Whether the decision attributed the difference to cookies.
        marking: bool,
        /// Detection time, in microseconds.
        detection_micros: u64,
        /// Full visit-step duration, in milliseconds.
        duration_ms: f64,
    },
    /// A usefulness-TTL decay: the marks named in `observed` are dropped
    /// and FORCUM training restarts, so the next visits re-probe them.
    /// Issued by the crawler's re-verification queue, never by a page view.
    Expire,
}

/// One durable store mutation: everything `SiteEntry::apply` needs to
/// replay the visit's state change without re-rendering the world.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitEvent {
    /// The visited host (keys the shard and the store entry).
    pub host: String,
    /// Cookie names observed in the visit (request + response) — the
    /// FORCUM observation input.
    pub observed: Vec<String>,
    /// What the visit's probe concluded.
    pub kind: EventKind,
}

const TAG_OBSERVE: u8 = 1;
const TAG_DEFER: u8 = 2;
const TAG_PROBE: u8 = 3;
const TAG_EXPIRE: u8 = 4;

/// Shared binary-codec primitives (also used by the snapshot format).
pub(crate) mod codec {
    /// FNV-1a64 over `bytes`.
    pub fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    pub fn put_strs<S: AsRef<str>>(out: &mut Vec<u8>, strs: &[S]) {
        put_u32(out, strs.len() as u32);
        for s in strs {
            put_str(out, s.as_ref());
        }
    }

    /// A bounds-checked reader over an encoded buffer. Every accessor
    /// returns `None` on overrun or malformed data — decoding is total.
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        pub fn done(&self) -> bool {
            self.pos == self.buf.len()
        }

        pub fn u8(&mut self) -> Option<u8> {
            let b = *self.buf.get(self.pos)?;
            self.pos += 1;
            Some(b)
        }

        pub fn u32(&mut self) -> Option<u32> {
            let bytes = self.buf.get(self.pos..self.pos + 4)?;
            self.pos += 4;
            Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
        }

        pub fn u64(&mut self) -> Option<u64> {
            let bytes = self.buf.get(self.pos..self.pos + 8)?;
            self.pos += 8;
            Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
        }

        pub fn str(&mut self) -> Option<String> {
            let len = self.u32()? as usize;
            let bytes = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
            self.pos += len;
            String::from_utf8(bytes.to_vec()).ok()
        }

        pub fn strs(&mut self) -> Option<Vec<String>> {
            let count = self.u32()? as usize;
            // An honest count can't exceed the bytes left (each string
            // costs ≥ 4 bytes); reject before allocating.
            if count > (self.buf.len() - self.pos) / 4 {
                return None;
            }
            (0..count).map(|_| self.str()).collect()
        }
    }
}

impl VisitEvent {
    /// Encodes the event payload (no frame).
    fn encode_payload(&self) -> Vec<u8> {
        use codec::{put_str, put_strs, put_u64};
        let mut out = Vec::with_capacity(64);
        match &self.kind {
            EventKind::Observe => out.push(TAG_OBSERVE),
            EventKind::Defer => out.push(TAG_DEFER),
            EventKind::Probe { .. } => out.push(TAG_PROBE),
            EventKind::Expire => out.push(TAG_EXPIRE),
        }
        put_str(&mut out, &self.host);
        put_strs(&mut out, &self.observed);
        if let EventKind::Probe { group, marking, detection_micros, duration_ms } = &self.kind {
            put_strs(&mut out, group);
            out.push(u8::from(*marking));
            put_u64(&mut out, *detection_micros);
            put_u64(&mut out, duration_ms.to_bits());
        }
        out
    }

    /// Decodes a payload produced by [`encode_payload`](Self::encode_payload).
    /// `None` on any malformation (including trailing bytes). Shared with
    /// the replication follower, which decodes the same frames off a socket.
    pub(crate) fn decode_payload(payload: &[u8]) -> Option<VisitEvent> {
        let mut cur = codec::Cursor::new(payload);
        let tag = cur.u8()?;
        let host = cur.str()?;
        let observed = cur.strs()?;
        let kind = match tag {
            TAG_OBSERVE => EventKind::Observe,
            TAG_DEFER => EventKind::Defer,
            TAG_PROBE => {
                let group = cur.strs()?;
                let marking = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let detection_micros = cur.u64()?;
                let duration_ms = f64::from_bits(cur.u64()?);
                EventKind::Probe { group, marking, detection_micros, duration_ms }
            }
            TAG_EXPIRE => EventKind::Expire,
            _ => return None,
        };
        cur.done().then_some(VisitEvent { host, observed, kind })
    }

    /// Encodes the full framed record: header + payload.
    pub fn encode_record(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let len = payload.len() as u32;
        debug_assert!(len <= MAX_RECORD_BYTES, "oversized WAL record");
        let mut framed = Vec::with_capacity(HEADER_BYTES + payload.len());
        framed.extend_from_slice(&len.to_le_bytes());
        let mut sum = codec::fnv1a(&len.to_le_bytes());
        sum ^= codec::fnv1a(&payload).rotate_left(1);
        framed.extend_from_slice(&sum.to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }
}

/// Frame checksum over the length prefix and payload.
pub(crate) fn frame_checksum(len_le: &[u8; 4], payload: &[u8]) -> u64 {
    codec::fnv1a(len_le) ^ codec::fnv1a(payload).rotate_left(1)
}

/// The log file for shard `shard` under `dir`.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard:02}.log"))
}

/// What [`read_log`] found in a log file.
#[derive(Debug, Default, PartialEq)]
pub struct LogContents {
    /// The log's generation (0 when the header itself was missing/torn —
    /// the log then also reports no events).
    pub generation: u64,
    /// The decoded records of the valid prefix, in append order.
    pub events: Vec<VisitEvent>,
    /// Byte length of the valid prefix (header + whole records).
    pub good: u64,
    /// Trailing bytes discarded as torn or corrupt.
    pub torn: u64,
}

/// Reads and validates a log file front to back.
///
/// Validation stops at the first torn or checksum-failing byte; whatever
/// precedes it is the valid prefix, whatever follows is reported as torn.
/// A missing file is an empty log, as is one whose 16-byte header never
/// made it to disk.
pub fn read_log(path: &Path) -> std::io::Result<LogContents> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut contents = LogContents { torn: bytes.len() as u64, ..LogContents::default() };
    let Some(header) = bytes.get(..LOG_HEADER_BYTES) else { return Ok(contents) };
    if &header[..8] != LOG_MAGIC {
        return Ok(contents);
    }
    contents.generation = u64::from_le_bytes(header[8..].try_into().expect("8-byte slice"));
    let mut good = LOG_HEADER_BYTES;
    while let Some(header) = bytes.get(good..good + HEADER_BYTES) {
        let len_le: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        let len = u32::from_le_bytes(len_le);
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let sum = u64::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
        let Some(payload) = bytes.get(good + HEADER_BYTES..good + HEADER_BYTES + len as usize)
        else {
            break; // short payload: the torn tail of the final record
        };
        if frame_checksum(&len_le, payload) != sum {
            break;
        }
        let Some(event) = VisitEvent::decode_payload(payload) else { break };
        contents.events.push(event);
        good += HEADER_BYTES + len as usize;
    }
    contents.good = good as u64;
    contents.torn = bytes.len() as u64 - contents.good;
    Ok(contents)
}

/// One shard's open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn StorageFile>,
    /// Byte offset of the end of the last fully committed record.
    committed: u64,
    /// Complete records in the file (committed prefix).
    records: u64,
    /// This log's generation (bumped by [`reset`](Self::reset)).
    generation: u64,
    /// Records appended since the last successful sync.
    pending: u64,
    /// Whether the file may hold garbage past `committed` (a failed
    /// append whose rewind also failed) — re-truncated before reuse.
    dirty: bool,
    /// Set when a reset failed mid-way: the on-disk layout is no longer
    /// trustworthy, so appends refuse rather than ack into a broken log.
    poisoned: bool,
    fsync: FsyncPolicy,
    /// Present under [`FsyncPolicy::Batch`] with no injected faults.
    tuner: Option<GroupCommitTuner>,
    /// When the current group-commit batch started filling.
    batch_started: Instant,
    metrics: Arc<ServiceMetrics>,
}

impl Wal {
    /// Opens the log at `path` from what [`read_log`] reported: truncating
    /// to `contents.good` discards a previous crash's torn tail before new
    /// records follow it. A log with no valid header (fresh, or torn
    /// before the header landed) is rewritten from scratch at `generation`
    /// — pass one past the snapshot's generation so the fresh log can
    /// never be mistaken for the one the snapshot covered.
    pub fn open(
        path: &Path,
        contents: &LogContents,
        generation: u64,
        fsync: FsyncPolicy,
        faults: Option<StorageFaults>,
        tag: u64,
        metrics: &Arc<ServiceMetrics>,
    ) -> std::io::Result<Wal> {
        let fresh = contents.good < LOG_HEADER_BYTES as u64;
        let committed = if fresh { 0 } else { contents.good };
        let file = open_storage(path, committed, faults, tag, metrics)?;
        let mut wal = Wal {
            file,
            committed,
            records: if fresh { 0 } else { contents.events.len() as u64 },
            generation: if fresh { generation } else { contents.generation },
            pending: 0,
            dirty: false,
            poisoned: false,
            fsync,
            // Tuning changes the file-operation sequence, which would
            // shift the seeded fault stream — so only tune fault-free.
            tuner: (fsync == FsyncPolicy::Batch && faults.is_none())
                .then(GroupCommitTuner::default),
            batch_started: Instant::now(),
            metrics: Arc::clone(metrics),
        };
        wal.file.truncate_to(committed)?;
        if fresh {
            wal.write_header()?;
        }
        Ok(wal)
    }

    /// Writes the 16-byte log header at the current (zero) offset, with
    /// the append retry discipline.
    fn write_header(&mut self) -> std::io::Result<()> {
        debug_assert_eq!(self.committed, 0);
        let mut header = Vec::with_capacity(LOG_HEADER_BYTES);
        header.extend_from_slice(LOG_MAGIC);
        header.extend_from_slice(&self.generation.to_le_bytes());
        let mut last_err = None;
        for _ in 0..MAX_ATTEMPTS {
            if self.dirty {
                self.file.truncate_to(0)?;
                self.dirty = false;
            }
            match self.write_frame(&header) {
                Ok(()) => {
                    self.committed = LOG_HEADER_BYTES as u64;
                    return Ok(());
                }
                Err(e) => {
                    self.dirty = true;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    /// End of the committed prefix, in bytes.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Complete records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's current generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends one record, retrying (with rewind to the committed offset)
    /// on write errors, then syncs per the fsync policy. On `Ok`, the
    /// record is fully in the file — the caller may ack.
    pub fn append(&mut self, event: &VisitEvent) -> std::io::Result<()> {
        self.append_record(&event.encode_record())
    }

    /// [`append`](Self::append) for a record already framed by
    /// [`VisitEvent::encode_record`] — the store journals and ships one
    /// encoding, and a follower journals the frame it received.
    pub(crate) fn append_record(&mut self, frame: &[u8]) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other("wal poisoned by a failed truncation"));
        }
        let mut last_err: Option<std::io::Error> = None;
        let mut attempts = 0;
        while attempts < MAX_ATTEMPTS {
            attempts += 1;
            if self.dirty {
                self.file.truncate_to(self.committed)?;
                self.dirty = false;
            }
            match self.write_frame(frame) {
                Ok(()) => {
                    self.committed += frame.len() as u64;
                    self.records += 1;
                    self.pending += 1;
                    self.metrics.wal_records_total.inc();
                    return self.policy_sync();
                }
                Err(e) => {
                    // The file may hold a partial frame; rewind before the
                    // next attempt (or the next append) writes anything.
                    self.dirty = true;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let mut off = 0;
        while off < frame.len() {
            match self.file.write(&frame[off..])? {
                0 => return Err(std::io::Error::other("wal write returned 0")),
                n => off += n,
            }
        }
        Ok(())
    }

    /// The current appends-between-syncs target (tuned or static).
    pub fn batch_target(&self) -> u64 {
        self.tuner.map_or(BATCH_INTERVAL, |t| t.batch())
    }

    fn policy_sync(&mut self) -> std::io::Result<()> {
        match self.fsync {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::Batch if self.pending >= self.batch_target() => {
                let pending = self.pending;
                let elapsed = self.batch_started.elapsed().as_micros() as u64;
                let sync_started = Instant::now();
                self.sync()?;
                if let Some(tuner) = &mut self.tuner {
                    tuner.on_sync(pending, elapsed, sync_started.elapsed().as_micros() as u64);
                }
                self.batch_started = Instant::now();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Forces the committed prefix to stable storage, retrying transient
    /// sync failures. Timing lands in `cp_wal_fsync_micros`.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let started = Instant::now();
        let mut last_err = None;
        for _ in 0..MAX_ATTEMPTS {
            match self.file.sync() {
                Ok(()) => {
                    self.pending = 0;
                    self.metrics.wal_fsync.observe(started.elapsed().as_micros() as u64);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    /// Empties the log and starts the next generation (after its contents
    /// were folded into a snapshot). A failed reset poisons the log —
    /// its on-disk layout can no longer be trusted, so further appends
    /// error instead of acking records recovery might not find.
    pub fn reset(&mut self) -> std::io::Result<()> {
        let result = (|| {
            self.file.truncate_to(0)?;
            self.committed = 0;
            self.records = 0;
            self.pending = 0;
            self.dirty = false;
            self.generation += 1;
            self.write_header()
        })();
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageFaults;

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-wal-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<VisitEvent> {
        vec![
            VisitEvent {
                host: "a.example".into(),
                observed: vec!["sid".into(), "theme".into()],
                kind: EventKind::Observe,
            },
            VisitEvent {
                host: "a.example".into(),
                observed: vec!["sid".into()],
                kind: EventKind::Defer,
            },
            VisitEvent {
                host: "b.example".into(),
                observed: vec![],
                kind: EventKind::Probe {
                    group: vec!["sid".into(), "tr".into()],
                    marking: true,
                    detection_micros: 1234,
                    duration_ms: 1.234,
                },
            },
            VisitEvent {
                host: "b.example".into(),
                observed: vec!["sid".into(), "theme".into()],
                kind: EventKind::Expire,
            },
        ]
    }

    #[test]
    fn payload_codec_round_trips() {
        for event in sample_events() {
            let payload = event.encode_payload();
            assert_eq!(VisitEvent::decode_payload(&payload), Some(event));
        }
        // Trailing garbage, truncation, and bad tags are all rejected.
        let mut payload = sample_events()[0].encode_payload();
        payload.push(0);
        assert_eq!(VisitEvent::decode_payload(&payload), None, "trailing byte");
        let payload = sample_events()[2].encode_payload();
        assert_eq!(VisitEvent::decode_payload(&payload[..payload.len() - 1]), None, "truncated");
        assert_eq!(VisitEvent::decode_payload(&[99]), None, "unknown tag");
        assert_eq!(VisitEvent::decode_payload(&[]), None, "empty");
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp_dir().join("round.log");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let mut wal =
            Wal::open(&path, &LogContents::default(), 1, FsyncPolicy::Always, None, 0, &metrics)
                .unwrap();
        for event in sample_events() {
            wal.append(&event).unwrap();
        }
        assert_eq!(wal.records(), 4);
        let contents = read_log(&path).unwrap();
        assert_eq!(contents.events, sample_events());
        assert_eq!(contents.generation, 1);
        assert_eq!(contents.good, wal.committed());
        assert_eq!(contents.torn, 0);
        assert_eq!(metrics.wal_records_total.get(), 4);
        assert!(metrics.wal_fsync.count() >= 4, "fsync=always syncs every append");
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let path = tmp_dir().join("torn.log");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let mut wal =
            Wal::open(&path, &LogContents::default(), 1, FsyncPolicy::Never, None, 0, &metrics)
                .unwrap();
        for event in sample_events() {
            wal.append(&event).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let all = read_log(&path).unwrap();
        assert_eq!(all.events.len(), 4);
        // Every possible kill point: the log cut at any byte must yield a
        // prefix of the event stream, never a panic or an invented event.
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let contents = read_log(&path).unwrap();
            assert!(contents.events.len() <= 4);
            assert_eq!(
                &all.events[..contents.events.len()],
                &contents.events[..],
                "prefix at cut {cut}"
            );
            assert_eq!(contents.good + contents.torn, cut as u64);
            assert!(contents.good <= all.good);
        }
    }

    #[test]
    fn corrupted_byte_stops_replay_at_the_damage() {
        let path = tmp_dir().join("corrupt.log");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let mut wal =
            Wal::open(&path, &LogContents::default(), 1, FsyncPolicy::Never, None, 0, &metrics)
                .unwrap();
        for event in sample_events() {
            wal.append(&event).unwrap();
        }
        drop(wal);
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte in the records region: records up to the damage
        // survive, everything after is discarded.
        let mut bytes = clean.clone();
        let mid = LOG_HEADER_BYTES + (bytes.len() - LOG_HEADER_BYTES) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_log(&path).unwrap();
        assert!(contents.events.len() < 4, "damage discards at least one record");
        assert_eq!(contents.events[..], sample_events()[..contents.events.len()]);
        assert_eq!(contents.good + contents.torn, clean.len() as u64);
        // Damage inside the log header empties the whole log.
        let mut bytes = clean.clone();
        bytes[3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_log(&path).unwrap();
        assert_eq!(contents.events, Vec::new());
        assert_eq!(contents.good, 0);
    }

    #[test]
    fn write_faults_leave_identical_bytes_for_the_acked_subsequence() {
        // The strong retry-correctness property: a fault-handled log holds
        // exactly the records whose append returned Ok, byte-identical to
        // a clean log of that subsequence.
        let dir = tmp_dir();
        let faulted_path = dir.join("fault.log");
        let clean_path = dir.join("clean.log");
        std::fs::remove_file(&faulted_path).ok();
        std::fs::remove_file(&clean_path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let faults = StorageFaults::uniform(0xFA17, 0.4);
        let fresh = LogContents::default();
        let mut faulted =
            Wal::open(&faulted_path, &fresh, 1, FsyncPolicy::Batch, Some(faults), 1, &metrics)
                .unwrap();
        let mut clean =
            Wal::open(&clean_path, &fresh, 1, FsyncPolicy::Batch, None, 0, &metrics).unwrap();
        let mut acked = 0usize;
        for i in 0..200u64 {
            let event = VisitEvent {
                host: format!("s{}.example", i % 7),
                observed: vec![format!("c{i}")],
                kind: if i % 3 == 0 {
                    EventKind::Probe {
                        group: vec![format!("c{i}")],
                        marking: i % 6 == 0,
                        detection_micros: i,
                        duration_ms: i as f64 / 1000.0,
                    }
                } else {
                    EventKind::Observe
                },
            };
            if faulted.append(&event).is_ok() {
                acked += 1;
                clean.append(&event).unwrap();
            }
        }
        assert!(metrics.wal_faults.total() > 0, "40% fault rate over 200 appends must fire");
        assert!(acked > 0, "8 retries at 40% rate ack almost everything");
        let faulted = read_log(&faulted_path).unwrap();
        let clean = read_log(&clean_path).unwrap();
        assert_eq!(faulted.events, clean.events);
        assert_eq!(faulted.events.len(), acked);
        assert_eq!(faulted.torn, 0, "every failed append was rewound");
    }

    #[test]
    fn unwritable_wal_errors_without_corrupting_the_prefix() {
        let path = tmp_dir().join("enospc.log");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let mut wal =
            Wal::open(&path, &LogContents::default(), 1, FsyncPolicy::Never, None, 0, &metrics)
                .unwrap();
        let event = sample_events().remove(0);
        wal.append(&event).unwrap();
        let committed = wal.committed();
        drop(wal);
        // Reopen with a certain-ENOSPC fault plan: appends must fail after
        // the retry budget, leaving the committed prefix intact.
        let all_enospc = StorageFaults {
            seed: 1,
            short_write: 0.0,
            torn_write: 0.0,
            enospc: 1.0,
            fail_fsync: 0.0,
        };
        let contents = read_log(&path).unwrap();
        assert_eq!(contents.good, committed);
        let mut wal =
            Wal::open(&path, &contents, 1, FsyncPolicy::Never, Some(all_enospc), 0, &metrics)
                .unwrap();
        assert!(wal.append(&event).is_err());
        assert_eq!(wal.committed(), committed);
        drop(wal);
        let contents = read_log(&path).unwrap();
        assert_eq!(contents.events, vec![event]);
        assert_eq!(contents.good, committed);
        assert_eq!(contents.torn, 0);
    }

    #[test]
    fn reset_empties_the_log_and_bumps_the_generation() {
        let path = tmp_dir().join("reset.log");
        std::fs::remove_file(&path).ok();
        let metrics = Arc::new(ServiceMetrics::new());
        let mut wal =
            Wal::open(&path, &LogContents::default(), 1, FsyncPolicy::Batch, None, 0, &metrics)
                .unwrap();
        for event in sample_events() {
            wal.append(&event).unwrap();
        }
        wal.reset().unwrap();
        assert_eq!(wal.committed(), LOG_HEADER_BYTES as u64);
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.generation(), 2);
        let contents = read_log(&path).unwrap();
        assert!(contents.events.is_empty());
        assert_eq!(contents.generation, 2);
        assert_eq!((contents.good, contents.torn), (LOG_HEADER_BYTES as u64, 0));
        // The log keeps working after a reset.
        wal.append(&sample_events()[0]).unwrap();
        assert_eq!(read_log(&path).unwrap().events.len(), 1);
    }

    #[test]
    fn tuner_grows_under_fsync_pressure_and_shrinks_when_idle() {
        let mut tuner = GroupCommitTuner::default();
        assert_eq!(tuner.batch(), BATCH_INTERVAL);
        // Heavy load: each 1ms interval spends half its time in fsync
        // (50% overhead ≫ 7% budget) → the batch doubles each sync until
        // the cap.
        let mut grown = Vec::new();
        for _ in 0..8 {
            grown.push(tuner.on_sync(tuner.batch(), 1_000, 500));
        }
        assert_eq!(grown, vec![128, 256, 512, 1024, 1024, 1024, 1024, 1024]);
        // Idle load: the batch takes 100ms to fill against a 50µs fsync
        // (0.05% overhead < 1%) → halve down to the floor.
        let mut shrunk = Vec::new();
        for _ in 0..10 {
            shrunk.push(tuner.on_sync(tuner.batch(), 100_000, 50));
        }
        assert_eq!(shrunk, vec![512, 256, 128, 64, 32, 16, 8, 8, 8, 8]);
        // In-budget overhead (3% — between 1% and 7%) holds steady.
        assert_eq!(tuner.on_sync(tuner.batch(), 10_000, 300), 8);
        // A short flush (checkpoint sync below the target) never grows,
        // even when its fsync looked expensive.
        let mut tuner = GroupCommitTuner::default();
        assert_eq!(tuner.on_sync(3, 100, 90), BATCH_INTERVAL);
    }

    #[test]
    fn batch_wal_tunes_only_without_faults() {
        let dir = tmp_dir();
        let metrics = Arc::new(ServiceMetrics::new());
        let fresh = LogContents::default();
        let path = dir.join("tuned.log");
        std::fs::remove_file(&path).ok();
        let wal = Wal::open(&path, &fresh, 1, FsyncPolicy::Batch, None, 0, &metrics).unwrap();
        assert_eq!(wal.batch_target(), BATCH_INTERVAL);
        drop(wal);
        // Injected faults pin the cadence: the seeded fault stream
        // advances per file op, so the op sequence must stay fixed.
        let faulted_path = dir.join("tuned-faulted.log");
        std::fs::remove_file(&faulted_path).ok();
        let faults = StorageFaults::uniform(7, 0.0);
        let mut wal =
            Wal::open(&faulted_path, &fresh, 1, FsyncPolicy::Batch, Some(faults), 0, &metrics)
                .unwrap();
        for event in sample_events().iter().cycle().take(200) {
            wal.append(event).unwrap();
        }
        assert_eq!(wal.batch_target(), BATCH_INTERVAL, "faulted logs never adapt");
        // Always/Never policies have no batch to tune either.
        let always_path = dir.join("tuned-always.log");
        std::fs::remove_file(&always_path).ok();
        let wal =
            Wal::open(&always_path, &fresh, 1, FsyncPolicy::Always, None, 0, &metrics).unwrap();
        assert_eq!(wal.batch_target(), BATCH_INTERVAL);
    }

    #[test]
    fn fsync_policy_parses_cli_values() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            assert_eq!(FsyncPolicy::parse(p.label()), Some(p));
        }
    }
}
