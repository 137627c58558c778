//! The sharded training store, optionally crash-safe.
//!
//! Per-site FORCUM training state lives in `N` shards; a host hashes to
//! exactly one shard (FNV-1a), so visits to different sites rarely share
//! a lock. Each shard is one map from host to a boxed [`SiteEntry`],
//! behind two locks:
//!
//! - the *writer* lock serializes the shard's mutations end to end: a
//!   [`transact`](ShardedStore::transact) holds it from plan through WAL
//!   append, apply and replication ship;
//! - the *map* lock guards the entries. Only the writer-lock holder ever
//!   takes its write side, and only to insert a host or apply one event.
//!
//! Reads ([`summary`](ShardedStore::summary),
//! [`read_entry`](ShardedStore::read_entry)) take the map lock's read
//! side alone. Its write side is never held across a WAL append, an fsync
//! or a ship, so a read waits at most for one in-memory apply, never
//! behind the journal; and a read guard the writer holds blocks no other
//! reader. See `DESIGN.md` §14.
//!
//! With a [`DurabilityConfig`], every mutation is a [`VisitEvent`] that
//! goes through [`transact`](ShardedStore::transact): the event is
//! appended to the shard's WAL *before* it is applied in memory (and so
//! before any response can be written — the ack barrier), and every
//! `snapshot_every` events the shard is checkpointed into an atomic
//! snapshot and its WAL truncated. [`open`](ShardedStore::open) recovers
//! by loading each shard's snapshot and replaying the WAL records the
//! snapshot does not already cover.
//!
//! Lock order is writer → map → WAL.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cookiepicker_core::{ForcumState, NameSet, SiteTraining, TrainingSummary};
use cp_runtime::sync::{Mutex, RwLock};

use crate::metrics::ServiceMetrics;
use crate::replication::{Backlog, PeerStatus, Replicator, DEFAULT_BACKLOG_CAP};
use crate::snapshot::{
    decode_snapshot_bytes, encode_snapshot_bytes, load_snapshot, write_snapshot,
};
use crate::storage::StorageFaults;
use crate::wal::{read_log, wal_path, EventKind, FsyncPolicy, VisitEvent, Wal};

/// Per-site state: the FORCUM lifecycle plus the service-side accumulators
/// backing [`TrainingSummary`].
#[derive(Debug, Clone, Default)]
pub struct SiteEntry {
    /// FORCUM training state of this entry's site, which the store key
    /// names (so the state does not hold the host again).
    pub forcum: ForcumState<Option<SiteTraining>>,
    /// Cookie names marked useful so far.
    pub marked: NameSet,
    /// Hidden-request probes issued (decided + deferred).
    pub probes: usize,
    /// Probes whose decision attributed the difference to cookies.
    pub marking_probes: usize,
    /// Probes deferred because the (simulated) hidden fetch was faulted.
    pub deferred_probes: usize,
    /// Sum of detection times, in microseconds.
    pub detection_micros_total: u64,
    /// Sum of full visit-step durations, in milliseconds.
    pub duration_ms_total: f64,
}

impl SiteEntry {
    fn new(stability_window: usize) -> Self {
        SiteEntry { forcum: ForcumState::new(stability_window), ..SiteEntry::default() }
    }

    /// Applies one event to this entry — the single mutation path, shared
    /// by the live visit handler and WAL replay, so a replayed entry is
    /// bit-identical to the entry the events originally built. Allocates
    /// only for a cookie name the entry has not seen.
    ///
    /// Returns the cookie names newly marked useful.
    pub fn apply(&mut self, event: &VisitEvent) -> Vec<String> {
        let host = event.host.as_str();
        match &event.kind {
            EventKind::Observe => {
                self.forcum.observe(host, &event.observed, 0, false);
                Vec::new()
            }
            EventKind::Defer => {
                self.probes += 1;
                self.deferred_probes += 1;
                self.forcum.defer(host, &event.observed);
                Vec::new()
            }
            EventKind::Probe { group, marking, detection_micros, duration_ms } => {
                let mut marked_now = Vec::new();
                if *marking {
                    for name in group {
                        if self.marked.insert(name) {
                            marked_now.push(name.clone());
                        }
                    }
                }
                self.probes += 1;
                self.marking_probes += usize::from(*marking);
                self.detection_micros_total += detection_micros;
                self.duration_ms_total += duration_ms;
                self.forcum.observe(host, &event.observed, marked_now.len(), true);
                marked_now
            }
            EventKind::Expire => {
                // Usefulness-TTL decay: drop the named marks and restart
                // training, so the site's next visits probe them again and
                // either re-mark (still useful) or leave them unmarked.
                for name in &event.observed {
                    self.marked.remove(name);
                }
                self.forcum.restart(host);
                Vec::new()
            }
        }
    }

    /// Builds the API summary for `host`. Averages divide by *decided*
    /// probes only: deferred probes record no detection time (the suspect
    /// hidden page is never compared), so counting them in the
    /// denominator would understate both averages under faults.
    pub fn summary(&self, host: &str) -> TrainingSummary {
        let decided = self.probes - self.deferred_probes;
        let denom = decided.max(1) as f64;
        TrainingSummary {
            host: host.to_string(),
            probes: self.probes,
            marking_probes: self.marking_probes,
            deferred_probes: self.deferred_probes,
            avg_detection_ms: self.detection_micros_total as f64 / 1_000.0 / denom,
            avg_duration_ms: self.duration_ms_total / denom,
            training_active: self.forcum.is_active(host),
        }
    }
}

/// One shard's entries: host → boxed entry, so the table's spare buckets
/// cost a key and a pointer, not a whole entry.
type Entries = HashMap<Box<str>, Box<SiteEntry>>;

/// One shard: its entries and the lock that serializes its writers (see
/// the module docs).
#[derive(Debug, Default)]
struct Shard {
    writer: Mutex<()>,
    entries: RwLock<Entries>,
}

/// How a store persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the per-shard WALs and snapshots.
    pub dir: PathBuf,
    /// When WAL appends are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Events between automatic per-shard checkpoints.
    pub snapshot_every: u64,
    /// Injected storage faults (tests / chaos harness), if any.
    pub faults: Option<StorageFaults>,
}

impl DurabilityConfig {
    /// A config with the default group-commit policy and checkpoint
    /// interval, no injected faults.
    pub fn new(dir: PathBuf) -> Self {
        DurabilityConfig {
            dir,
            fsync: FsyncPolicy::Batch,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            faults: None,
        }
    }
}

/// Default events between automatic per-shard checkpoints.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 4096;

/// What [`ShardedStore::open`] recovered from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Shards restored from a snapshot file.
    pub snapshots_loaded: usize,
    /// WAL records replayed on top of the snapshots.
    pub records_replayed: u64,
    /// Torn/corrupt trailing WAL bytes discarded.
    pub torn_tail_bytes: u64,
    /// Wall-clock recovery time, in microseconds.
    pub recovery_micros: u64,
}

/// The durability side of a store: one WAL per shard plus checkpoint
/// bookkeeping. Absent entirely for in-memory stores.
#[derive(Debug)]
struct Durable {
    config: DurabilityConfig,
    wals: Vec<Mutex<Wal>>,
    /// Events appended since the shard's last checkpoint.
    since_snapshot: Vec<AtomicU64>,
    metrics: Arc<ServiceMetrics>,
}

impl Durable {
    /// Checkpoints shard `idx`: snapshot the entries, then truncate the
    /// WAL they came from. `flush` additionally fsyncs the WAL first
    /// (graceful shutdown wants the log durable even if the snapshot
    /// write fails).
    ///
    /// Caller holds the shard's writer lock and a read guard on its
    /// entries; this takes the WAL lock. Crash-safety of the sequence: the
    /// snapshot names the exact `(generation, records)` prefix it folds
    /// in, so a crash (or a failure) anywhere between the snapshot rename
    /// and the WAL reset replays nothing twice and loses nothing.
    fn checkpoint_shard(&self, idx: usize, entries: &Entries, flush: bool) -> std::io::Result<()> {
        let mut wal = self.wals[idx].lock();
        if flush {
            wal.sync()?;
        }
        write_snapshot(
            &self.config.dir,
            idx,
            entries,
            wal.generation(),
            wal.records(),
            self.config.faults,
            snapshot_fault_tag(idx),
            &self.metrics,
        )?;
        wal.reset()
    }

    /// Bumps the shard's event counter and checkpoints when it crosses
    /// the configured interval. Errors are absorbed into
    /// `cp_snapshot_total{result="error"}` — a failed checkpoint costs
    /// nothing but WAL length, so the visit itself still succeeds.
    /// Caller holds the shard's writer lock.
    fn maybe_checkpoint(&self, idx: usize, shard: &Shard) {
        let since = self.since_snapshot[idx].fetch_add(1, Ordering::Relaxed) + 1;
        if since < self.config.snapshot_every {
            return;
        }
        // Reset the counter even when the checkpoint fails: retrying on
        // every subsequent event would turn one bad disk into a write
        // storm. The next interval will try again.
        self.since_snapshot[idx].store(0, Ordering::Relaxed);
        let ok = self.checkpoint_shard(idx, &shard.entries.read(), false).is_ok();
        self.metrics.snapshot.inc(if ok { "ok" } else { "error" });
    }
}

/// Fault-stream tag for shard `idx`'s WAL file.
fn wal_fault_tag(idx: usize) -> u64 {
    idx as u64
}

/// Fault-stream tag for shard `idx`'s snapshot file (disjoint from the
/// WAL tags so the two files draw independent fault streams).
fn snapshot_fault_tag(idx: usize) -> u64 {
    (1 << 32) | idx as u64
}

/// A host-sharded map of [`SiteEntry`]s.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Shard>,
    /// Sites with state, maintained at entry creation so
    /// [`site_count`](Self::site_count) never sweeps the shard locks.
    sites: AtomicUsize,
    /// Events applied since open — local mutations and replicated ones
    /// alike. The replication handshake and `/healthz` report it; the
    /// router promotes the follower with the highest value.
    applied: AtomicU64,
    /// Present while this node is a primary: every applied event is also
    /// shipped to the followers before the caller may ack it.
    repl: RwLock<Option<Arc<Replicator>>>,
    /// Bounded ring of recently applied records (wire framing), shared
    /// with the replicator so a reconnecting follower can be replayed the
    /// gap. Node-global and role-independent: a follower fills it from
    /// the stream it applies, so a promoted ex-follower can immediately
    /// serve resyncs for the records it witnessed.
    backlog: Arc<Mutex<Backlog>>,
    stability_window: usize,
    durable: Option<Durable>,
}

impl ShardedStore {
    /// Creates a purely in-memory store with `shards` shards (rounded up
    /// to at least 1).
    pub fn new(shards: usize, stability_window: usize) -> Self {
        ShardedStore {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            sites: AtomicUsize::new(0),
            applied: AtomicU64::new(0),
            repl: RwLock::new(None),
            backlog: Arc::new(Mutex::new(Backlog::new(DEFAULT_BACKLOG_CAP))),
            stability_window,
            durable: None,
        }
    }

    /// Opens a store, recovering from `durability.dir` when durability is
    /// configured: per shard, load the snapshot (if any), replay the WAL
    /// records it does not cover, discard the torn tail, and reopen the
    /// log for appending. Recovered state is exactly the acked prefix —
    /// a record either fully round-trips its checksum or is discarded.
    pub fn open(
        shards: usize,
        stability_window: usize,
        durability: Option<DurabilityConfig>,
        metrics: Arc<ServiceMetrics>,
    ) -> std::io::Result<(Self, RecoveryStats)> {
        let mut store = ShardedStore::new(shards, stability_window);
        let Some(config) = durability else {
            return Ok((store, RecoveryStats::default()));
        };
        let started = Instant::now();
        std::fs::create_dir_all(&config.dir)?;
        let mut stats = RecoveryStats::default();
        let mut wals = Vec::with_capacity(store.shards.len());
        let mut since_snapshot = Vec::with_capacity(store.shards.len());
        for idx in 0..store.shards.len() {
            let snap = load_snapshot(&config.dir, idx, stability_window)?;
            let (entries, snap_generation, covered) = match snap {
                Some(s) => {
                    stats.snapshots_loaded += 1;
                    (s.entries, s.wal_generation, s.wal_covered)
                }
                None => (HashMap::new(), 0, 0),
            };
            let path = wal_path(&config.dir, idx);
            let contents = read_log(&path)?;
            stats.torn_tail_bytes += contents.torn;
            // Same generation → the snapshot already contains the first
            // `covered` records. A different generation means the WAL was
            // truncated after that snapshot: everything in it is new.
            let skip = if contents.generation == snap_generation {
                covered.min(contents.events.len() as u64) as usize
            } else {
                0
            };
            for event in &contents.events {
                if store.shard_of(&event.host) != idx {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "wal {} holds a record for {} which hashes to shard {} — \
                             was the store created with a different shard count?",
                            path.display(),
                            event.host,
                            store.shard_of(&event.host)
                        ),
                    ));
                }
            }
            let shard = &store.shards[idx];
            store.sites.fetch_add(entries.len(), Ordering::Relaxed);
            *shard.entries.write() =
                entries.into_iter().map(|(host, e)| (host.into_boxed_str(), Box::new(e))).collect();
            for event in &contents.events[skip..] {
                store.update(shard, &event.host, |entry| entry.apply(event));
                stats.records_replayed += 1;
            }
            let wal = Wal::open(
                &path,
                &contents,
                snap_generation + 1,
                config.fsync,
                config.faults,
                wal_fault_tag(idx),
                &metrics,
            )?;
            since_snapshot.push(AtomicU64::new(wal.records()));
            wals.push(Mutex::new(wal));
        }
        stats.recovery_micros = started.elapsed().as_micros() as u64;
        store.durable = Some(Durable { config, wals, since_snapshot, metrics });
        Ok((store, stats))
    }

    /// Whether this store persists its mutations.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `host` hashes to (FNV-1a, stable across runs).
    pub fn shard_of(&self, host: &str) -> usize {
        (fnv1a(host) % self.shards.len() as u64) as usize
    }

    /// Runs one durable mutation against `host`'s entry, creating the
    /// entry on first contact. Only `host`'s shard is locked, and its
    /// writers serialize for the whole sequence:
    ///
    /// 1. `plan` inspects the entry and produces the [`VisitEvent`] to
    ///    apply (or `None` for a read-only visit) plus whatever context
    ///    `finish` needs; readers of the shard proceed meanwhile;
    /// 2. the event is appended to the shard's WAL — **the ack barrier**:
    ///    an `Err` here aborts the visit before any state changes;
    /// 3. the event is applied to the entry;
    /// 4. `finish` builds the result from the updated entry;
    /// 5. the shard is checkpointed if its interval came due;
    /// 6. when this node is a primary, the event is shipped to the
    ///    followers — an `Err` here (quorum lost) also fails the visit:
    ///    the event is applied locally but, like a torn WAL tail, was
    ///    never acknowledged, so the durability contract holds.
    pub fn transact<P, R>(
        &self,
        host: &str,
        plan: impl FnOnce(&SiteEntry) -> (Option<VisitEvent>, P),
        finish: impl FnOnce(&SiteEntry, Vec<String>, P) -> R,
    ) -> std::io::Result<R> {
        let idx = self.shard_of(host);
        let shard = &self.shards[idx];
        let _writer = shard.writer.lock();
        // A first contact plans against a fresh entry, inserted only when
        // the event applies: a write that fails to journal leaves no host.
        let (event, context) = {
            let entries = shard.entries.read();
            match entries.get(host) {
                Some(entry) => plan(entry),
                None => {
                    drop(entries);
                    plan(&SiteEntry::new(self.stability_window))
                }
            }
        };
        // The framed record, encoded at most once per event: journaled and
        // shipped from the same bytes. Standalone in-memory writes never
        // encode it.
        let mut record = None;
        if let Some(event) = &event {
            debug_assert_eq!(event.host, host, "event host must match the locked entry");
            if let Some(durable) = &self.durable {
                let frame = record.insert(event.encode_record());
                durable.wals[idx].lock().append_record(frame)?;
            }
        }
        let result = self.update(shard, host, |entry| {
            let marked_now = match &event {
                Some(event) => {
                    self.applied.fetch_add(1, Ordering::Release);
                    entry.apply(event)
                }
                None => Vec::new(),
            };
            finish(entry, marked_now, context)
        });
        if let Some(event) = &event {
            if let Some(durable) = &self.durable {
                durable.maybe_checkpoint(idx, shard);
            }
            // Still under the writer lock: ships from different shards
            // serialize on the replicator lock (writer → replicator order),
            // so every follower sees one global record order. The ship
            // itself appends the record to the backlog ring; standalone
            // writes advance the ring's sequence without the encoding
            // cost (a later follower of this node bootstraps instead).
            let replicator = self.repl.read().clone();
            match replicator {
                Some(replicator) => {
                    replicator.ship_record(record.unwrap_or_else(|| event.encode_record()))?;
                }
                None => {
                    self.backlog.lock().advance();
                }
            }
        }
        Ok(result)
    }

    /// Applies one replicated event — the follower-side twin of
    /// [`transact`](Self::transact): journal to the local WAL (followers
    /// keep their own logs), apply through the same `SiteEntry::apply`
    /// path, and checkpoint on the usual interval. Never re-ships:
    /// followers hold no replicator.
    ///
    /// `record` is the frame `event` arrived in: it is journaled and kept
    /// in the backlog as received, never re-encoded.
    pub fn apply_replicated(&self, event: &VisitEvent, record: Vec<u8>) -> std::io::Result<()> {
        let idx = self.shard_of(&event.host);
        let shard = &self.shards[idx];
        let _writer = shard.writer.lock();
        if let Some(durable) = &self.durable {
            durable.wals[idx].lock().append_record(&record)?;
        }
        self.update(shard, &event.host, |entry| {
            self.applied.fetch_add(1, Ordering::Release);
            entry.apply(event)
        });
        // Retain the record in the backlog ring (writer → backlog order):
        // if this follower is later promoted, it can replay these records
        // to peers that reconnect behind it.
        self.backlog.lock().push(Arc::new(record));
        if let Some(durable) = &self.durable {
            durable.maybe_checkpoint(idx, shard);
        }
        Ok(())
    }

    /// Events applied since open (local and replicated).
    pub fn applied_seq(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Installs (or clears) the primary-side replicator. Leading installs
    /// one; adopting a newer generation's stream clears it. The outgoing
    /// replicator (if any) is retired so its maintenance thread exits.
    pub fn set_replicator(&self, replicator: Option<Arc<Replicator>>) {
        let old = {
            let mut repl = self.repl.write();
            std::mem::replace(&mut *repl, replicator)
        };
        if let Some(old) = old {
            old.retire();
        }
    }

    /// The shared record backlog (for wiring a replicator to it).
    pub fn backlog_handle(&self) -> Arc<Mutex<Backlog>> {
        Arc::clone(&self.backlog)
    }

    /// Reconfigures how many recent records the backlog ring retains.
    pub fn set_backlog_capacity(&self, capacity: usize) {
        self.backlog.lock().set_capacity(capacity);
    }

    /// Max records any *connected* follower is behind, when this node is
    /// a primary.
    pub fn replication_lag(&self) -> u64 {
        self.repl.read().as_ref().map_or(0, |r| r.lag())
    }

    /// Per-peer replication rows for `/healthz` (empty unless primary).
    pub fn replication_peers(&self) -> Vec<PeerStatus> {
        self.repl.read().as_ref().map(|r| r.peer_statuses()).unwrap_or_default()
    }

    /// Encodes the node's entire in-memory state as one snapshot blob for
    /// `GET /v1/repl/snapshot` — the bootstrap source for a follower too
    /// far behind the backlog. Every shard's writer lock is held while the
    /// entries are encoded, straight from the maps, so the blob is a
    /// consistent cut and its embedded `wal_covered` equals the applied
    /// sequence it reflects (no write can be mid-flight).
    pub fn encode_bootstrap(&self, generation: u64) -> Vec<u8> {
        let _writers: Vec<_> = self.shards.iter().map(|shard| shard.writer.lock()).collect();
        let maps: Vec<_> = self.shards.iter().map(|shard| shard.entries.read()).collect();
        let applied = self.applied.load(Ordering::Acquire);
        encode_snapshot_bytes(maps.iter().flat_map(|map| map.iter()), generation, applied)
    }

    /// Installs a bootstrap blob from [`Self::encode_bootstrap`]: replaces every
    /// shard's entries, re-anchors the applied sequence and the backlog at
    /// the blob's cut, and (for durable stores) checkpoints so a restart
    /// recovers the installed state. Returns the new applied sequence.
    pub fn install_bootstrap(&self, bytes: &[u8]) -> std::io::Result<u64> {
        let contents = decode_snapshot_bytes(bytes, self.stability_window).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed bootstrap snapshot")
        })?;
        let mut per_shard: Vec<Entries> = (0..self.shards.len()).map(|_| Entries::new()).collect();
        for (host, entry) in contents.entries {
            let idx = self.shard_of(&host);
            per_shard[idx].insert(host.into_boxed_str(), Box::new(entry));
        }
        let mut total = 0usize;
        for (idx, entries) in per_shard.into_iter().enumerate() {
            total += entries.len();
            let shard = &self.shards[idx];
            let _writer = shard.writer.lock();
            // The replaced entries are freed after the write guard drops.
            let _old = std::mem::replace(&mut *shard.entries.write(), entries);
            if let Some(durable) = &self.durable {
                // Fold the installed state into the shard's snapshot and
                // truncate its WAL — the old log belongs to a lineage this
                // node just abandoned.
                let ok = durable.checkpoint_shard(idx, &shard.entries.read(), false).is_ok();
                durable.metrics.snapshot.inc(if ok { "ok" } else { "error" });
                durable.since_snapshot[idx].store(0, Ordering::Relaxed);
            }
        }
        self.sites.store(total, Ordering::Relaxed);
        self.applied.store(contents.wal_covered, Ordering::Release);
        self.backlog.lock().reset_to(contents.wal_covered);
        Ok(contents.wal_covered)
    }

    /// Runs `f` on `host`'s entry under its shard's map write side,
    /// creating (and counting) the entry on first contact — the only time
    /// this allocates. Caller holds the shard's writer lock.
    fn update<R>(&self, shard: &Shard, host: &str, f: impl FnOnce(&mut SiteEntry) -> R) -> R {
        let mut entries = shard.entries.write();
        if let Some(entry) = entries.get_mut(host) {
            return f(entry);
        }
        let mut entry = Box::new(SiteEntry::new(self.stability_window));
        let result = f(&mut entry);
        entries.insert(host.into(), entry);
        self.sites.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Builds `host`'s [`TrainingSummary`] — the hot-path read. It takes
    /// only the map lock's read side, so it never waits behind a
    /// `transact`'s WAL append or ship. Returns `None` for never-visited
    /// sites.
    pub fn summary(&self, host: &str) -> Option<TrainingSummary> {
        self.read_entry(host, |entry| entry.summary(host))
    }

    /// Flushes every WAL and checkpoints every shard — the graceful
    /// shutdown path. After a clean checkpoint, a restart replays zero
    /// records. Keeps going on per-shard errors and returns the first.
    pub fn checkpoint(&self) -> std::io::Result<()> {
        let Some(durable) = &self.durable else { return Ok(()) };
        let mut first_err = None;
        for (idx, shard) in self.shards.iter().enumerate() {
            let _writer = shard.writer.lock();
            let result = durable.checkpoint_shard(idx, &shard.entries.read(), true);
            durable.metrics.snapshot.inc(if result.is_ok() { "ok" } else { "error" });
            if result.is_ok() {
                durable.since_snapshot[idx].store(0, Ordering::Relaxed);
            } else if first_err.is_none() {
                first_err = result.err();
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Runs `f` with exclusive access to `host`'s entry, creating the entry
    /// on first contact. Only `host`'s shard is locked. Mutations made here
    /// are **not** journaled — durable stores must go through
    /// [`transact`](Self::transact).
    pub fn with_entry<R>(&self, host: &str, f: impl FnOnce(&mut SiteEntry) -> R) -> R {
        let shard = &self.shards[self.shard_of(host)];
        let _writer = shard.writer.lock();
        self.update(shard, host, f)
    }

    /// Runs `f` with shared access to `host`'s entry, or returns `None` if
    /// the site has never been visited. Like [`summary`](Self::summary),
    /// it takes only the map lock's read side.
    pub fn read_entry<R>(&self, host: &str, f: impl FnOnce(&SiteEntry) -> R) -> Option<R> {
        self.shards[self.shard_of(host)].entries.read().get(host).map(|entry| f(entry))
    }

    /// Total number of sites with state, across all shards. Maintained
    /// atomically at entry creation, so this is a single load.
    pub fn site_count(&self) -> usize {
        self.sites.load(Ordering::Relaxed)
    }

    /// Every useful mark, as sorted `host cookie` lines — the comparable
    /// artifact the crash harness diffs across kill/recover cycles.
    pub fn marks(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (host, entry) in shard.entries.read().iter() {
                out.extend(entry.marked.iter().map(|name| format!("{host} {name}")));
            }
        }
        out.sort_unstable();
        out
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_data_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cp-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn observe_event(host: &str, names: &[&str]) -> VisitEvent {
        VisitEvent {
            host: host.to_string(),
            observed: names.iter().map(|s| s.to_string()).collect(),
            kind: EventKind::Observe,
        }
    }

    fn probe_event(host: &str, group: &[&str], marking: bool, micros: u64) -> VisitEvent {
        VisitEvent {
            host: host.to_string(),
            observed: group.iter().map(|s| s.to_string()).collect(),
            kind: EventKind::Probe {
                group: group.iter().map(|s| s.to_string()).collect(),
                marking,
                detection_micros: micros,
                duration_ms: micros as f64 / 1_000.0,
            },
        }
    }

    #[test]
    fn entries_create_on_first_contact() {
        let store = ShardedStore::new(8, 5);
        assert_eq!(store.site_count(), 0);
        assert!(store.read_entry("a.example", |_| ()).is_none());
        store.with_entry("a.example", |e| {
            assert!(e.forcum.is_active("a.example"));
            e.probes = 3;
        });
        assert_eq!(store.site_count(), 1);
        assert_eq!(store.read_entry("a.example", |e| e.probes), Some(3));
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        let store = ShardedStore::new(8, 5);
        for host in ["a.example", "b.example", "news1.example", "x"] {
            let s = store.shard_of(host);
            assert!(s < 8);
            assert_eq!(s, store.shard_of(host), "stable hash");
        }
        // Degenerate constructions still work.
        assert_eq!(ShardedStore::new(0, 5).shard_count(), 1);
    }

    #[test]
    fn summary_from_accumulators() {
        let store = ShardedStore::new(4, 2);
        store.with_entry("s.example", |e| {
            e.probes = 4;
            e.marking_probes = 1;
            e.detection_micros_total = 8_000;
            e.duration_ms_total = 40.0;
            e.forcum.observe("s.example", ["c".to_string()], 0, true);
        });
        let summary = store.read_entry("s.example", |e| e.summary("s.example")).unwrap();
        assert_eq!(summary.probes, 4);
        assert_eq!(summary.marking_probes, 1);
        assert_eq!(summary.avg_detection_ms, 2.0);
        assert_eq!(summary.avg_duration_ms, 10.0);
        assert!(summary.training_active);
        // Zero-probe summaries divide by max(1).
        let empty = SiteEntry::new(3).summary("fresh.example");
        assert_eq!(empty.avg_detection_ms, 0.0);
    }

    #[test]
    fn summary_averages_exclude_deferred_probes() {
        // Two decided probes took 8 ms of detection in total; two deferred
        // probes recorded nothing. The average is per *decided* probe —
        // 4 ms — not diluted to 2 ms by the deferrals.
        let mut entry = SiteEntry::new(5);
        entry.apply(&probe_event("s.example", &["a"], false, 3_000));
        entry.apply(&probe_event("s.example", &["a"], true, 5_000));
        entry.apply(&VisitEvent {
            host: "s.example".into(),
            observed: vec!["a".into()],
            kind: EventKind::Defer,
        });
        entry.apply(&VisitEvent {
            host: "s.example".into(),
            observed: vec!["a".into()],
            kind: EventKind::Defer,
        });
        let summary = entry.summary("s.example");
        assert_eq!(summary.probes, 4, "probes counts decided + deferred");
        assert_eq!(summary.deferred_probes, 2);
        assert_eq!(summary.avg_detection_ms, 4.0, "denominator excludes deferred probes");
        assert_eq!(summary.avg_duration_ms, 4.0);
        // All-deferred sites report zero averages, not NaN.
        let mut all_deferred = SiteEntry::new(5);
        all_deferred.apply(&VisitEvent {
            host: "d.example".into(),
            observed: vec![],
            kind: EventKind::Defer,
        });
        let summary = all_deferred.summary("d.example");
        assert_eq!(summary.probes, 1);
        assert_eq!(summary.avg_detection_ms, 0.0);
    }

    #[test]
    fn expire_drops_marks_and_restarts_training() {
        let mut entry = SiteEntry::new(2);
        entry.apply(&probe_event("s.example", &["sid"], true, 1_000));
        entry.apply(&probe_event("s.example", &["theme"], true, 1_000));
        assert_eq!(entry.marked.len(), 2);
        // Drive the site dormant, then expire one mark.
        for _ in 0..4 {
            entry.apply(&observe_event("s.example", &["sid", "theme"]));
        }
        assert!(!entry.forcum.is_active("s.example"), "stable site goes dormant");
        let marked_now = entry.apply(&VisitEvent {
            host: "s.example".into(),
            observed: vec!["sid".into()],
            kind: EventKind::Expire,
        });
        assert!(marked_now.is_empty(), "expiry never marks");
        assert_eq!(entry.marked.iter().collect::<Vec<_>>(), ["theme"]);
        assert!(entry.forcum.is_active("s.example"), "expiry restarts training");
        // The expired cookie can be re-marked through the normal probe path.
        entry.apply(&probe_event("s.example", &["sid"], true, 1_000));
        assert_eq!(entry.marked.len(), 2);
    }

    #[test]
    fn apply_is_the_single_mutation_path() {
        let mut entry = SiteEntry::new(3);
        assert_eq!(entry.apply(&observe_event("a.example", &["sid"])), Vec::<String>::new());
        let marked = entry.apply(&probe_event("a.example", &["sid", "theme"], true, 100));
        assert_eq!(marked, vec!["sid".to_string(), "theme".to_string()]);
        // Re-marking is idempotent: already-marked names are not "new".
        let marked = entry.apply(&probe_event("a.example", &["sid"], true, 100));
        assert_eq!(marked, Vec::<String>::new());
        assert_eq!(entry.marked.len(), 2);
        assert_eq!(entry.probes, 2);
        assert_eq!(entry.marking_probes, 2);
        let site = entry.forcum.site("a.example").unwrap();
        assert_eq!(site.pages_seen, 3);
        assert_eq!(site.hidden_requests, 2);
        assert_eq!(site.marks, 2);
    }

    #[test]
    fn concurrent_visits_to_distinct_sites() {
        let store = std::sync::Arc::new(ShardedStore::new(16, 5));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let store = store.clone();
                s.spawn(move || {
                    let host = format!("site{t}.example");
                    for _ in 0..500 {
                        store.with_entry(&host, |e| e.probes += 1);
                    }
                });
            }
        });
        assert_eq!(store.site_count(), 8);
        for t in 0..8 {
            assert_eq!(store.read_entry(&format!("site{t}.example"), |e| e.probes), Some(500));
        }
    }

    #[test]
    fn transact_journals_and_recovers() {
        let dir = tmp_data_dir("transact");
        let metrics = Arc::new(ServiceMetrics::new());
        let config = DurabilityConfig::new(dir.clone());
        let (store, stats) =
            ShardedStore::open(4, 5, Some(config.clone()), Arc::clone(&metrics)).unwrap();
        assert_eq!(stats.records_replayed, 0);
        assert_eq!(stats.snapshots_loaded, 0);
        assert_eq!(stats.torn_tail_bytes, 0);
        assert!(store.is_durable());
        let marked = store
            .transact(
                "a.example",
                |_| (Some(probe_event("a.example", &["sid"], true, 500)), ()),
                |entry, marked_now, ()| {
                    assert_eq!(entry.marked.len(), 1);
                    marked_now
                },
            )
            .unwrap();
        assert_eq!(marked, vec!["sid".to_string()]);
        store
            .transact(
                "b.example",
                |_| (Some(observe_event("b.example", &["tr"])), ()),
                |_, _, ()| (),
            )
            .unwrap();
        // A plan that returns no event journals nothing.
        store.transact("a.example", |_| (None, ()), |_, _, ()| ()).unwrap();
        assert_eq!(metrics.wal_records_total.get(), 2);
        assert_eq!(store.marks(), vec!["a.example sid".to_string()]);
        // Simulated crash: drop without checkpoint, reopen from disk.
        drop(store);
        let metrics = Arc::new(ServiceMetrics::new());
        let (recovered, stats) = ShardedStore::open(4, 5, Some(config), metrics).unwrap();
        assert_eq!(stats.records_replayed, 2);
        assert_eq!(stats.torn_tail_bytes, 0);
        assert_eq!(recovered.marks(), vec!["a.example sid".to_string()]);
        assert_eq!(recovered.read_entry("a.example", |e| e.probes), Some(1));
        assert_eq!(recovered.read_entry("b.example", |e| e.probes), Some(0));
    }

    #[test]
    fn replicated_records_are_journaled_and_kept_as_received() {
        let events = [
            probe_event("a.example", &["sid"], true, 500),
            observe_event("b.example", &["tr"]),
            probe_event("a.example", &["lang"], false, 70),
        ];
        let open = |dir: &PathBuf| {
            let config = DurabilityConfig::new(dir.clone());
            ShardedStore::open(2, 5, Some(config), Arc::new(ServiceMetrics::new())).unwrap()
        };
        let primary_dir = tmp_data_dir("journal-primary");
        let follower_dir = tmp_data_dir("journal-follower");
        let (primary, _) = open(&primary_dir);
        let (follower, _) = open(&follower_dir);
        for event in &events {
            let planned = event.clone();
            primary.transact(&event.host, |_| (Some(planned), ()), |_, _, ()| ()).unwrap();
            let record = event.encode_record();
            let received = record.as_ptr();
            follower.apply_replicated(event, record).unwrap();
            let backlog = follower.backlog.lock();
            let (_, kept) = backlog.range(backlog.head() - 1, 1).pop().unwrap();
            assert_eq!(kept.as_ptr(), received, "the backlog keeps the received frame");
        }
        for shard in 0..2 {
            let primary_log = std::fs::read(wal_path(&primary_dir, shard)).unwrap();
            let follower_log = std::fs::read(wal_path(&follower_dir, shard)).unwrap();
            assert_eq!(
                follower_log, primary_log,
                "shard {shard}: the follower journals the same bytes"
            );
        }
        let marks = follower.marks();
        drop(follower);
        let (recovered, stats) = open(&follower_dir);
        assert_eq!(stats.records_replayed, 3);
        assert_eq!(recovered.marks(), marks);
    }

    #[test]
    fn checkpoint_makes_restart_replay_nothing() {
        let dir = tmp_data_dir("checkpoint");
        let metrics = Arc::new(ServiceMetrics::new());
        let config = DurabilityConfig::new(dir.clone());
        let (store, _) =
            ShardedStore::open(2, 5, Some(config.clone()), Arc::clone(&metrics)).unwrap();
        for i in 0..20u64 {
            let host = format!("s{}.example", i % 5);
            store
                .transact(
                    &host,
                    |_| (Some(probe_event(&host, &[&format!("c{i}")], i % 2 == 0, i)), ()),
                    |_, _, ()| (),
                )
                .unwrap();
        }
        let marks = store.marks();
        let summary = store.read_entry("s0.example", |e| e.summary("s0.example")).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(metrics.snapshot.get("ok"), 2, "one snapshot per shard");
        drop(store);
        let metrics = Arc::new(ServiceMetrics::new());
        let (reopened, stats) =
            ShardedStore::open(2, 5, Some(config.clone()), Arc::clone(&metrics)).unwrap();
        assert_eq!(stats.records_replayed, 0, "clean restart replays zero records");
        assert_eq!(stats.snapshots_loaded, 2);
        assert_eq!(reopened.marks(), marks);
        let again = reopened.read_entry("s0.example", |e| e.summary("s0.example")).unwrap();
        assert_eq!(again.probes, summary.probes);
        assert_eq!(again.avg_detection_ms, summary.avg_detection_ms);
        // Work after the checkpoint lands in the fresh WAL generation and
        // replays on the next recovery.
        reopened
            .transact(
                "s9.example",
                |_| (Some(probe_event("s9.example", &["z"], true, 7)), ()),
                |_, _, ()| (),
            )
            .unwrap();
        drop(reopened);
        let (last, stats) =
            ShardedStore::open(2, 5, Some(config), Arc::new(ServiceMetrics::new())).unwrap();
        assert_eq!(stats.records_replayed, 1);
        assert!(last.marks().contains(&"s9.example z".to_string()));
    }

    #[test]
    fn automatic_checkpoint_triggers_on_interval() {
        let dir = tmp_data_dir("interval");
        let metrics = Arc::new(ServiceMetrics::new());
        let mut config = DurabilityConfig::new(dir);
        config.snapshot_every = 4;
        let (store, _) = ShardedStore::open(1, 5, Some(config), Arc::clone(&metrics)).unwrap();
        for i in 0..9u64 {
            store
                .transact(
                    "host.example",
                    |_| (Some(observe_event("host.example", &[])), ()),
                    |_, _, ()| (),
                )
                .unwrap();
            let _ = i;
        }
        assert_eq!(metrics.snapshot.get("ok"), 2, "9 events at interval 4 → 2 checkpoints");
    }

    #[test]
    fn double_recovery_is_idempotent() {
        // Recovering twice from the same directory (the second time after
        // the first recovery truncated the torn tail) yields identical
        // state — recovery itself must not mutate what it recovers.
        let dir = tmp_data_dir("double");
        let config = DurabilityConfig::new(dir.clone());
        let (store, _) =
            ShardedStore::open(2, 5, Some(config.clone()), Arc::new(ServiceMetrics::new()))
                .unwrap();
        for i in 0..10u64 {
            let host = format!("h{}.example", i % 3);
            store
                .transact(&host, |_| (Some(probe_event(&host, &["k"], true, i)), ()), |_, _, ()| ())
                .unwrap();
        }
        drop(store);
        let (a, stats_a) =
            ShardedStore::open(2, 5, Some(config.clone()), Arc::new(ServiceMetrics::new()))
                .unwrap();
        let marks_a = a.marks();
        drop(a);
        let (b, stats_b) =
            ShardedStore::open(2, 5, Some(config), Arc::new(ServiceMetrics::new())).unwrap();
        assert_eq!(stats_a.records_replayed, stats_b.records_replayed);
        assert_eq!(marks_a, b.marks());
    }

    #[test]
    fn summary_reads_match_locked_reads() {
        let store = ShardedStore::new(4, 3);
        assert_eq!(store.summary("never.example"), None);
        store.with_entry("s.example", |e| {
            e.apply(&probe_event("s.example", &["sid"], true, 3_000));
            e.apply(&probe_event("s.example", &["sid"], false, 5_000));
        });
        let lock_free = store.summary("s.example").unwrap();
        let locked = store.read_entry("s.example", |e| e.summary("s.example")).unwrap();
        assert_eq!(lock_free, locked);
        assert_eq!(lock_free.avg_detection_ms, 4.0);
        assert!(lock_free.training_active);
    }

    /// Readers hammer `summary()` while one writer updates an entry whose
    /// fields are held in a fixed arithmetic relationship — any torn read
    /// (a mix of two updates) breaks the relationship and fails.
    #[test]
    fn summary_readers_never_observe_torn_entries() {
        use cp_runtime::rng::{Rng, SeedableRng, StdRng};

        let store = Arc::new(ShardedStore::new(2, 3));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let host = "torn.example";
        std::thread::scope(|s| {
            {
                let store = Arc::clone(&store);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5EC_10C);
                    for _ in 0..4_000 {
                        // Invariants every publish maintains — and any torn
                        // mix of two publishes breaks:
                        //   detection_micros_total == probes * 1000 (avg 1.0)
                        //   duration_ms_total == probes as f64      (avg 1.0)
                        //   marking_probes == probes / 2
                        let jitter = rng.gen_range(0..3u64) as usize;
                        store.with_entry(host, |e| {
                            e.probes += 1 + jitter;
                            e.marking_probes = e.probes / 2;
                            e.detection_micros_total = e.probes as u64 * 1_000;
                            e.duration_ms_total = e.probes as f64;
                        });
                    }
                    done.store(true, Ordering::Release);
                });
            }
            for _ in 0..3 {
                let store = Arc::clone(&store);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut seen = 0u64;
                    let mut last_probes = 0usize;
                    while !done.load(Ordering::Acquire) || seen == 0 {
                        let Some(summary) = store.summary(host) else { continue };
                        seen += 1;
                        // probes*1000 / 1000.0 / probes is exactly 1.0 in
                        // f64 for any probes < 2^53 — no rounding slack.
                        assert_eq!(summary.avg_detection_ms, 1.0, "torn detection total");
                        assert_eq!(summary.avg_duration_ms, 1.0, "torn duration total");
                        assert_eq!(summary.marking_probes, summary.probes / 2, "torn marks");
                        assert!(
                            summary.probes >= last_probes,
                            "summaries must be monotone under a single writer"
                        );
                        last_probes = summary.probes;
                    }
                });
            }
        });
        // Post-quiescence the summary agrees with the locked entry exactly.
        let lock_free = store.summary(host).unwrap();
        let locked = store.read_entry(host, |e| e.summary(host)).unwrap();
        assert_eq!(lock_free, locked);
    }

    /// Replays one seeded event stream and checks every host's summary
    /// equals the post-quiescence locked summary — summaries report
    /// exactly what the entries hold, event for event.
    #[test]
    fn summaries_equal_locked_summaries_after_event_stream() {
        use cp_runtime::rng::{Rng, SeedableRng, StdRng};

        let store = ShardedStore::new(8, 4);
        let mut rng = StdRng::seed_from_u64(0x1517_0A5E);
        let hosts: Vec<String> = (0..20).map(|i| format!("h{i}.example")).collect();
        for _ in 0..2_000 {
            let host = &hosts[rng.gen_range(0..hosts.len())];
            let roll = rng.gen_range(0..10u64);
            let event = match roll {
                0..=3 => observe_event(host, &["a", "b"]),
                4..=6 => probe_event(host, &["a"], roll == 4, rng.gen_range(0..5_000)),
                7..=8 => VisitEvent {
                    host: host.clone(),
                    observed: vec!["a".into()],
                    kind: EventKind::Defer,
                },
                _ => VisitEvent {
                    host: host.clone(),
                    observed: vec!["a".into()],
                    kind: EventKind::Expire,
                },
            };
            store.transact(host, |_| (Some(event), ()), |_, _, ()| ()).unwrap();
        }
        for host in &hosts {
            let lock_free = store.summary(host);
            let locked = store.read_entry(host, |e| e.summary(host));
            assert_eq!(lock_free, locked, "{host}");
        }
        assert_eq!(store.site_count(), hosts.len());
    }

    #[test]
    fn shard_count_mismatch_fails_loudly() {
        let dir = tmp_data_dir("mismatch");
        let config = DurabilityConfig::new(dir.clone());
        let (store, _) =
            ShardedStore::open(8, 5, Some(config.clone()), Arc::new(ServiceMetrics::new()))
                .unwrap();
        for host in ["a.example", "b.example", "c.example", "d.example"] {
            store.transact(host, |_| (Some(observe_event(host, &[])), ()), |_, _, ()| ()).unwrap();
        }
        drop(store);
        let err = ShardedStore::open(3, 5, Some(config), Arc::new(ServiceMetrics::new()))
            .expect_err("reopening with a different shard count must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different shard count"), "{err}");
    }
}
