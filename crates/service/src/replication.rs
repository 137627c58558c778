//! WAL-shipped replication: primary → follower record streams, generation
//! fencing, ack policies, and the self-healing resync ladder. See
//! `DESIGN.md` §15–§16 for the full picture.
//!
//! The wire protocol reuses the WAL's record frame byte-for-byte. A
//! primary opens one TCP stream per follower and sends:
//!
//! ```text
//! [b"CPREPL01"][generation u64 LE]                  // 16-byte handshake
//! [len u32 LE][fnv1a64 u64 LE][payload]             // then WAL frames
//! ```
//!
//! The follower replies to the handshake with 17 bytes —
//! `[status u8][generation u64 LE][applied_seq u64 LE]` — where status 0
//! accepts the stream and status 1 **fences** it: the handshake carried a
//! generation older than one the follower has already seen, so the sender
//! is a stale primary and must stand down. After an accepted handshake the
//! follower acks every applied record with its absolute applied sequence
//! (u64 LE). The primary reads the reply's `applied_seq` and replays the
//! records the follower is missing from its in-memory [`Backlog`] before
//! the stream goes live; a follower too far behind for the backlog is sent
//! a control frame naming the primary's HTTP address and bootstraps from
//! `GET /v1/repl/snapshot` instead.
//!
//! Control frames share the record framing but set the high bit of the
//! length word (`CONTROL_BIT`) — real records never reach
//! [`MAX_RECORD_BYTES`], so the bit is unambiguous and the checksum still
//! covers the frame.
//!
//! Because every record of a generation flows over a single ordered stream
//! (ships are serialized under the replicator lock), an ack of record `n`
//! implies the follower holds records `1..=n` — streams are strict
//! prefixes. That prefix property is what makes quorum acks sufficient for
//! failover: if a response reached the client, some majority-side follower
//! holds everything up to and including that event, so promoting the
//! most-caught-up follower loses no acked write.
//!
//! A peer is never permanently dead. [`ship`](Replicator::ship) writes
//! each record to every live peer first, then collects their acks against
//! one [`ACK_DEADLINE`] that covers them all, so a write waits once, for
//! the slowest live peer. A stream still silent at the deadline is demoted
//! to *catching-up* and fed from the backlog off the write path; a stream
//! that errors goes *down* and is redialed with seeded jittered backoff by
//! the maintenance thread ([`run_maintenance`]). Only *live* peers count
//! toward the quorum and the lag gauge.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cp_runtime::sync::Mutex;

use crate::metrics::ServiceMetrics;
use crate::store::ShardedStore;
use crate::wal::{frame_checksum, VisitEvent, HEADER_BYTES, MAX_RECORD_BYTES};

/// Handshake magic: protocol name + version.
pub const REPL_MAGIC: &[u8; 8] = b"CPREPL01";

/// Primary → follower handshake length (magic + generation).
pub const HANDSHAKE_BYTES: usize = 16;

/// Follower → primary handshake reply length (status + generation +
/// applied sequence).
pub const HANDSHAKE_REPLY_BYTES: usize = 17;

/// Socket timeouts on replication streams outside the ship hot path
/// (handshakes, backlog drains). Generous: a stall this long is
/// indistinguishable from a dead peer.
const STREAM_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`ship`](Replicator::ship) waits for a record's acks, counted
/// from its write to the last live peer. One deadline covers every live
/// peer, and a peer still silent when it passes is demoted to
/// catching-up, so stalled followers add at most this much to a client
/// write, however many there are. It also bounds a live peer's blocked
/// write.
pub const ACK_DEADLINE: Duration = Duration::from_millis(250);

/// Default capacity of the primary's in-memory record backlog — how far a
/// reconnecting follower may be behind and still resync from the live
/// ring instead of a snapshot bootstrap.
pub const DEFAULT_BACKLOG_CAP: usize = 4096;

/// High bit of the frame length word: set on control frames, never on
/// records (records are capped at [`MAX_RECORD_BYTES`] = 1 MiB).
const CONTROL_BIT: u32 = 1 << 31;

/// Control frame kind: "you are too far behind my backlog — bootstrap
/// from `GET /v1/repl/snapshot` at the HTTP address in this payload".
const CONTROL_BOOTSTRAP: u8 = 1;

/// Largest accepted control payload (kind byte + an address).
const MAX_CONTROL_BYTES: u32 = 1024;

/// Records per chunk when draining the backlog to a catching-up peer.
const DRAIN_CHUNK: usize = 64;

/// A catching-up peer whose remaining gap is at most this many records is
/// finished synchronously under the replicator lock, so the promotion to
/// live cannot race a concurrent ship.
const FINAL_CHUNK: usize = 32;

/// Maintenance thread cadence.
const MAINT_TICK: Duration = Duration::from_millis(25);

/// Redial backoff bounds (jittered, doubling per attempt).
const REDIAL_BASE: Duration = Duration::from_millis(100);
const REDIAL_MAX: Duration = Duration::from_secs(2);

/// How long a peer that was just sent a bootstrap hint is left alone
/// before the redial probes whether the snapshot install finished.
const BOOTSTRAP_REDIAL: Duration = Duration::from_millis(500);

/// How many follower acks must land before a write is acknowledged to the
/// client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplAckPolicy {
    /// Ack the client on the local append alone. Records still go to the
    /// live followers, and [`ship`](Replicator::ship) still waits up to
    /// [`ACK_DEADLINE`] for their acks, but a missing ack never fails the
    /// write.
    None,
    /// Ack once a majority of the cluster (primary included) holds the
    /// record — the smallest policy that survives any single node death.
    #[default]
    Quorum,
    /// Ack only when every follower holds the record.
    All,
}

impl ReplAckPolicy {
    /// Parses a `--repl-ack` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ReplAckPolicy::None),
            "quorum" => Some(ReplAckPolicy::Quorum),
            "all" => Some(ReplAckPolicy::All),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn label(self) -> &'static str {
        match self {
            ReplAckPolicy::None => "none",
            ReplAckPolicy::Quorum => "quorum",
            ReplAckPolicy::All => "all",
        }
    }

    /// Follower acks required before the client sees a response, for a
    /// cluster of `followers` + 1 primary. Quorum counts the primary
    /// itself toward the majority: with 2 followers (3 nodes) one
    /// follower ack makes 2 of 3.
    pub fn required_acks(self, followers: usize) -> usize {
        match self {
            ReplAckPolicy::None => 0,
            ReplAckPolicy::Quorum => followers.div_ceil(2),
            ReplAckPolicy::All => followers,
        }
    }
}

/// What this node currently is, cluster-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Not participating in replication.
    Standalone,
    /// Accepting writes and shipping them to followers.
    Primary,
    /// Applying a primary's stream; rejects direct writes.
    Follower,
}

impl Role {
    /// The `/healthz` label.
    pub fn label(self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }

    fn from_u8(v: u8) -> Role {
        match v {
            1 => Role::Primary,
            2 => Role::Follower,
            _ => Role::Standalone,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Role::Standalone => 0,
            Role::Primary => 1,
            Role::Follower => 2,
        }
    }
}

/// The node's cluster identity: its role and the highest generation it has
/// witnessed. The generation is monotone — it only ever moves forward, and
/// every fencing decision compares against it.
pub struct ClusterState {
    role: AtomicU8,
    generation: AtomicU64,
    /// Bumped under [`apply_gate`](Self::apply_gate) whenever a follower
    /// stream is adopted. A stream applies records only while its epoch is
    /// current, so a superseded stream can never slip an apply in after a
    /// newer stream's handshake reply reported `applied_seq` — which would
    /// make the primary's gap arithmetic resend (double-apply) a record.
    stream_epoch: AtomicU64,
    /// Serializes follower-stream adoption, record application, and
    /// snapshot-bootstrap installs against each other.
    apply_gate: Mutex<()>,
}

impl Default for ClusterState {
    fn default() -> Self {
        ClusterState {
            role: AtomicU8::new(0),
            generation: AtomicU64::new(0),
            stream_epoch: AtomicU64::new(0),
            apply_gate: Mutex::new(()),
        }
    }
}

impl std::fmt::Debug for ClusterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterState")
            .field("role", &self.role())
            .field("generation", &self.generation())
            .finish()
    }
}

impl ClusterState {
    pub fn new() -> Self {
        ClusterState::default()
    }

    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    pub fn set_role(&self, role: Role) {
        self.role.store(role.as_u8(), Ordering::Release);
    }

    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advances the witnessed generation (never backwards).
    pub fn witness_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::AcqRel);
    }
}

/// Bounded ring of recently applied records, in their wire framing. Every
/// node keeps one — as a primary it is filled by [`Replicator::ship`], as
/// a follower by the stream apply path — so whichever node leads next can
/// replay the gap to a reconnecting peer without touching disk.
///
/// `head` is the node's lineage sequence (it equals
/// [`applied_seq`](crate::store::ShardedStore::applied_seq) as long as the
/// backlog is advanced for every applied event); the ring retains the
/// records for `(head - len, head]`.
#[derive(Debug)]
pub struct Backlog {
    records: VecDeque<Arc<Vec<u8>>>,
    head: u64,
    capacity: usize,
}

impl Backlog {
    pub fn new(capacity: usize) -> Self {
        Backlog { records: VecDeque::new(), head: 0, capacity: capacity.max(1) }
    }

    /// Appends one encoded record, trimming to capacity. Returns the
    /// record's sequence number.
    pub fn push(&mut self, record: Arc<Vec<u8>>) -> u64 {
        self.head += 1;
        self.records.push_back(record);
        while self.records.len() > self.capacity {
            self.records.pop_front();
        }
        self.head
    }

    /// Advances the sequence without retaining the record — the standalone
    /// write path, which has no encoded frame at hand. Gaps make the ring
    /// useless for replay, so it is cleared; a later follower of this node
    /// will bootstrap from a snapshot instead.
    pub fn advance(&mut self) -> u64 {
        self.head += 1;
        self.records.clear();
        self.head
    }

    /// Re-anchors the sequence (e.g. after a snapshot bootstrap installed
    /// `seq` events' worth of state) with an empty ring.
    pub fn reset_to(&mut self, seq: u64) {
        self.records.clear();
        self.head = seq;
    }

    /// Sequence number of the most recent record.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Whether every record in `(after, head]` is retained.
    pub fn covers(&self, after: u64) -> bool {
        after >= self.head - self.records.len() as u64
    }

    /// Up to `max` retained records with sequence `> after`, in order.
    pub fn range(&self, after: u64, max: usize) -> Vec<(u64, Arc<Vec<u8>>)> {
        let first = self.head - self.records.len() as u64 + 1;
        let start = after.saturating_sub(first).saturating_add(u64::from(after >= first)) as usize;
        self.records
            .iter()
            .enumerate()
            .skip(start)
            .take(max)
            .map(|(i, r)| (first + i as u64, Arc::clone(r)))
            .collect()
    }

    /// Changes the capacity, trimming if it shrank.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.records.len() > self.capacity {
            self.records.pop_front();
        }
    }
}

/// A peer's position in the slow-peer state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// In the synchronous ship path; counts toward the quorum.
    Live,
    /// Connected but behind; fed from the backlog by the maintenance
    /// thread, promoted back to live when it catches up.
    CatchingUp,
    /// Stream gone; redialed with backoff by the maintenance thread.
    Down,
}

impl PeerState {
    pub fn label(self) -> &'static str {
        match self {
            PeerState::Live => "live",
            PeerState::CatchingUp => "catching-up",
            PeerState::Down => "down",
        }
    }
}

/// One follower's `/healthz` row.
#[derive(Debug, Clone)]
pub struct PeerStatus {
    pub addr: String,
    pub state: PeerState,
    pub connected: bool,
    pub acked_seq: u64,
}

/// One follower connection on the primary side.
struct Peer {
    addr: String,
    stream: Option<TcpStream>,
    state: PeerState,
    /// Sequence (this node's numbering) of the last record fully written
    /// to the stream — what the backlog drain resumes from. A partially
    /// written frame is unrecoverable in-band, so write errors always
    /// close the stream.
    sent: u64,
    /// The follower's own applied sequence from its last ack.
    acked: u64,
    /// Records written whose acks have not been read yet.
    pending: u64,
    /// Partial-ack reassembly: acks are 8 bytes and a deadline can split
    /// one; the remainder is picked up on the next harvest.
    ack_buf: [u8; 8],
    ack_filled: usize,
    /// When a down peer may be redialed.
    redial_at: Instant,
    /// Consecutive failed redials (drives the backoff).
    attempts: u32,
}

impl Peer {
    /// A peer with no stream yet.
    fn new(addr: String) -> Peer {
        Peer {
            addr,
            stream: None,
            state: PeerState::Down,
            sent: 0,
            acked: 0,
            pending: 0,
            ack_buf: [0u8; 8],
            ack_filled: 0,
            redial_at: Instant::now(),
            attempts: 0,
        }
    }

    /// Installs what [`establish`] or a backlog drain produced, against
    /// backlog head `head`, and returns whether the peer went live. This
    /// is the only way into [`PeerState::Live`]: a stream goes live when it
    /// owes no acks and has been sent every record up to `head`, which the
    /// caller checks under the replicator lock so no ship can slip in
    /// between. Going live arms the ship path's write timeout: a blocked
    /// send gives up after [`ACK_DEADLINE`] and the peer goes down (a
    /// timed-out write leaves the frame torn mid-stream).
    fn install(
        &mut self,
        idx: usize,
        established: Established,
        head: u64,
        metrics: &ServiceMetrics,
    ) -> bool {
        let Established::Stream(job) = established else {
            // Hinted: leave the peer alone while it installs the snapshot.
            down_peer(self, idx, metrics);
            self.attempts = 0;
            self.redial_at = Instant::now() + BOOTSTRAP_REDIAL;
            return false;
        };
        let live = job.pending == 0 && job.sent >= head;
        if live {
            job.stream.set_write_timeout(Some(ACK_DEADLINE)).ok();
        }
        self.state = if live { PeerState::Live } else { PeerState::CatchingUp };
        self.stream = Some(job.stream);
        self.sent = job.sent;
        self.acked = job.acked;
        self.pending = job.pending;
        self.ack_buf = job.ack_buf;
        self.ack_filled = job.ack_filled;
        self.attempts = 0;
        metrics.set_repl_peer_up(idx, true);
        live
    }

    fn status(&self) -> PeerStatus {
        PeerStatus {
            addr: self.addr.clone(),
            state: self.state,
            connected: self.stream.is_some(),
            acked_seq: self.acked,
        }
    }
}

struct ReplInner {
    peers: Vec<Peer>,
}

/// The primary side of replication: one ordered stream per follower,
/// created by a successful [`connect`](Replicator::connect) handshake.
///
/// [`ship`](Replicator::ship) serializes all records under one lock so
/// every follower sees the same global order — the prefix property the
/// promotion rule depends on. Lock order is shard → replicator → backlog;
/// the backlog lock is a leaf.
pub struct Replicator {
    inner: Mutex<ReplInner>,
    backlog: Arc<Mutex<Backlog>>,
    required: usize,
    generation: u64,
    /// This primary's HTTP address, sent in bootstrap hints.
    advertise: String,
    /// Set when the node stops being this generation's primary; the
    /// maintenance thread exits on it.
    retired: AtomicBool,
    metrics: Arc<ServiceMetrics>,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("generation", &self.generation)
            .field("required", &self.required)
            .finish()
    }
}

/// What establishing a stream to a follower produced.
enum Established {
    /// Stream handshaked, with its gap replayed from the backlog as far as
    /// the drain got; the job's cursor says where the stream is, and
    /// [`Peer::install`] decides whether that is live.
    Stream(DrainJob),
    /// The follower is beyond the backlog: it was sent a bootstrap hint
    /// and the stream was closed. Redial after the install window.
    Hinted,
}

impl Replicator {
    /// Opens a stream to every follower and runs the handshake. Fails —
    /// without becoming primary — if any follower is unreachable or
    /// fences the generation (its reply names a newer one). A reachable
    /// follower that is behind is *not* an error: its gap is replayed from
    /// `backlog`, or it is hinted to bootstrap and picked up by the
    /// maintenance thread.
    pub fn connect(
        followers: &[String],
        generation: u64,
        policy: ReplAckPolicy,
        advertise: String,
        backlog: Arc<Mutex<Backlog>>,
        metrics: Arc<ServiceMetrics>,
    ) -> std::io::Result<Replicator> {
        let mut peers = Vec::with_capacity(followers.len());
        for (idx, addr) in followers.iter().enumerate() {
            let established = establish(addr, generation, &advertise, &backlog, &metrics)?;
            let head = backlog.lock().head();
            let mut peer = Peer::new(addr.clone());
            peer.install(idx, established, head, &metrics);
            peers.push(peer);
        }
        metrics.set_repl_peers(peers.len());
        metrics.repl_lag_records.set(0);
        Ok(Replicator {
            inner: Mutex::new(ReplInner { peers }),
            backlog,
            required: policy.required_acks(followers.len()),
            generation,
            advertise,
            retired: AtomicBool::new(false),
            metrics,
        })
    }

    /// The generation this replicator streams under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stops the maintenance thread; called when the node is demoted or
    /// shuts down.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Max records any *connected* peer is behind the backlog head. Down
    /// peers are excluded: a dead peer's lag grows without bound and says
    /// nothing about the health of the streams actually carrying writes
    /// (it comes back as `cp_repl_peer_up == 0` instead).
    pub fn lag(&self) -> u64 {
        let inner = self.inner.lock();
        let head = self.backlog.lock().head();
        connected_lag(&inner, head)
    }

    /// Per-peer rows for `/healthz`.
    pub fn peer_statuses(&self) -> Vec<PeerStatus> {
        self.inner.lock().peers.iter().map(Peer::status).collect()
    }

    /// Ships one event to every live follower. The record is written to
    /// every live peer first, then their acks are collected against one
    /// [`ACK_DEADLINE`] taken after the last write, so the write waits
    /// once, for the slowest live peer, not once per peer. `Err` when
    /// fewer than the policy's required acks landed — the caller must then
    /// *not* acknowledge the write to its client (the event is applied
    /// locally but unacked, exactly like a torn WAL tail: present on this
    /// node, invisible to the contract). A peer still silent at the
    /// deadline is demoted to catching-up instead of holding the shard
    /// lock hostage.
    pub fn ship(&self, event: &VisitEvent) -> std::io::Result<()> {
        self.ship_record(event.encode_record())
    }

    /// [`ship`](Self::ship) for a record already framed by
    /// [`VisitEvent::encode_record`].
    pub(crate) fn ship_record(&self, record: Vec<u8>) -> std::io::Result<()> {
        let record = Arc::new(record);
        let started = Instant::now();
        let mut inner = self.inner.lock();
        let head = self.backlog.lock().push(Arc::clone(&record));
        for (idx, peer) in inner.peers.iter_mut().enumerate() {
            if peer.state != PeerState::Live {
                continue;
            }
            if peer.stream.as_mut().is_some_and(|s| s.write_all(&record).is_ok()) {
                peer.sent = head;
                peer.pending += 1;
            } else {
                down_peer(peer, idx, &self.metrics);
            }
        }
        let deadline = Instant::now() + ACK_DEADLINE;
        let mut acks = 0usize;
        for (idx, peer) in inner.peers.iter_mut().enumerate() {
            if peer.state != PeerState::Live {
                continue;
            }
            match harvest_acks(peer, deadline) {
                Ok(true) => {
                    acks += 1;
                    self.metrics.record_repl_ship(idx);
                }
                Ok(false) => {
                    // Silent but intact: the stream keeps its framing, so
                    // the maintenance thread can keep feeding it and
                    // reading late acks. It no longer gates client writes.
                    peer.state = PeerState::CatchingUp;
                    self.metrics.repl_slow_demotions_total.inc();
                }
                Err(_) => down_peer(peer, idx, &self.metrics),
            }
        }
        let lag = connected_lag(&inner, head);
        drop(inner);
        self.metrics.repl_lag_records.set(lag.min(i64::MAX as u64) as i64);
        let waited = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.metrics.repl_ack_micros.observe(waited);
        self.metrics.repl_ack_stall_max_micros.set_max(waited.min(i64::MAX as u64) as i64);
        if acks < self.required {
            return Err(std::io::Error::other(format!(
                "replication quorum lost: {acks} of {} required follower acks",
                self.required
            )));
        }
        Ok(())
    }

    /// One maintenance pass: redial down peers whose backoff expired and
    /// drain the backlog to catching-up peers. Runs off the write path.
    fn maintain(&self) {
        let n = self.inner.lock().peers.len();
        for idx in 0..n {
            if self.retired.load(Ordering::Acquire) {
                return;
            }
            self.maintain_peer(idx);
        }
        let inner = self.inner.lock();
        let head = self.backlog.lock().head();
        let lag = connected_lag(&inner, head);
        drop(inner);
        self.metrics.repl_lag_records.set(lag.min(i64::MAX as u64) as i64);
    }

    fn maintain_peer(&self, idx: usize) {
        enum Job {
            Redial(String),
            Drain(DrainJob),
        }
        let job = {
            let mut inner = self.inner.lock();
            let peer = &mut inner.peers[idx];
            match peer.state {
                PeerState::Live => return,
                PeerState::Down => {
                    if Instant::now() < peer.redial_at {
                        return;
                    }
                    Job::Redial(peer.addr.clone())
                }
                PeerState::CatchingUp => {
                    // Take the stream: ship skips non-live peers and
                    // redial skips non-down peers, so this thread owns it
                    // until it is put back.
                    let Some(stream) = peer.stream.take() else {
                        down_peer(peer, idx, &self.metrics);
                        return;
                    };
                    Job::Drain(DrainJob {
                        stream,
                        sent: peer.sent,
                        acked: peer.acked,
                        pending: peer.pending,
                        ack_buf: peer.ack_buf,
                        ack_filled: peer.ack_filled,
                    })
                }
            }
        };
        match job {
            Job::Redial(addr) => self.finish_redial(idx, &addr),
            Job::Drain(job) => self.finish_drain(idx, job),
        }
    }

    /// Redials a down peer (no locks held across the dial) and installs
    /// the result.
    fn finish_redial(&self, idx: usize, addr: &str) {
        let established =
            establish(addr, self.generation, &self.advertise, &self.backlog, &self.metrics);
        let mut inner = self.inner.lock();
        let peer = &mut inner.peers[idx];
        if peer.state != PeerState::Down {
            return;
        }
        match established {
            Ok(established) => {
                // Races with concurrent ships are settled under the lock:
                // live only if nothing shipped since the replay finished.
                let head = self.backlog.lock().head();
                if peer.install(idx, established, head, &self.metrics) {
                    self.metrics.repl_resync_total.inc();
                }
            }
            Err(_) => {
                peer.attempts = peer.attempts.saturating_add(1);
                peer.redial_at =
                    Instant::now() + redial_backoff(self.generation, idx, peer.attempts);
            }
        }
    }

    /// Feeds backlog records to a catching-up peer whose stream was taken
    /// by [`maintain_peer`], then reinstalls the stream and, if the gap
    /// closed, promotes the peer back to live under the lock.
    fn finish_drain(&self, idx: usize, mut job: DrainJob) {
        let outcome = job.drain(&self.backlog, &self.metrics);
        let mut inner = self.inner.lock();
        let peer = &mut inner.peers[idx];
        peer.acked = job.acked;
        match outcome {
            DrainOutcome::Progress => {
                // Close the race window: finish a small remaining gap
                // under the lock (ships are briefly blocked), so the
                // promotion cannot miss records shipped mid-drain.
                let (remaining, head) = {
                    let backlog = self.backlog.lock();
                    (backlog.range(job.sent, FINAL_CHUNK + 1), backlog.head())
                };
                let small_gap =
                    job.sent + (remaining.len() as u64) >= head && remaining.len() <= FINAL_CHUNK;
                if small_gap && job.finish(&remaining, &self.metrics).is_err() {
                    down_peer(peer, idx, &self.metrics);
                } else if peer.install(idx, Established::Stream(job), head, &self.metrics) {
                    self.metrics.repl_resync_total.inc();
                }
            }
            DrainOutcome::Overrun => {
                // The ring no longer covers the peer's position (it was
                // trimmed while the peer lagged): hint a bootstrap and
                // drop to down; the redial probes the install.
                let _ = send_bootstrap_hint(&mut job.stream, &self.advertise, &self.metrics);
                peer.install(idx, Established::Hinted, 0, &self.metrics);
            }
            DrainOutcome::Dead => down_peer(peer, idx, &self.metrics),
        }
    }
}

/// Worst lag among *connected* peers against backlog head `head`. Down
/// peers are excluded — their staleness is visible via `cp_repl_peer_up`
/// instead of pinning the lag gauge forever.
fn connected_lag(inner: &ReplInner, head: u64) -> u64 {
    inner
        .peers
        .iter()
        .filter(|p| p.state != PeerState::Down)
        .map(|p| head.saturating_sub(p.acked))
        .max()
        .unwrap_or(0)
}

/// Marks a peer down and schedules its redial.
fn down_peer(peer: &mut Peer, idx: usize, metrics: &ServiceMetrics) {
    peer.stream = None;
    peer.state = PeerState::Down;
    peer.pending = 0;
    peer.ack_filled = 0;
    peer.attempts = peer.attempts.saturating_add(1);
    peer.redial_at = Instant::now() + redial_backoff(0, idx, peer.attempts);
    metrics.set_repl_peer_up(idx, false);
}

/// Seeded jittered backoff: doubling base capped at [`REDIAL_MAX`], plus
/// up to 50 ms of deterministic jitter so a fleet of primaries redialing
/// one recovered follower does not thundering-herd it.
fn redial_backoff(generation: u64, idx: usize, attempts: u32) -> Duration {
    let base = REDIAL_BASE.saturating_mul(1u32 << attempts.min(4)).min(REDIAL_MAX);
    let mut x = generation
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(idx as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(u64::from(attempts));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    base + Duration::from_millis(x % 50)
}

/// Runs the peer-maintenance loop until the replicator is retired: redials
/// down peers with jittered backoff and drains the backlog to catching-up
/// peers, all off the client write path.
pub fn run_maintenance(replicator: Arc<Replicator>) {
    while !replicator.retired.load(Ordering::Acquire) {
        std::thread::sleep(MAINT_TICK);
        replicator.maintain();
    }
}

/// A stream plus its drain cursor: what [`establish`] hands to
/// [`Peer::install`], and what the maintenance thread owns while it drains
/// a catching-up peer with the replicator lock released.
struct DrainJob {
    stream: TcpStream,
    sent: u64,
    acked: u64,
    pending: u64,
    ack_buf: [u8; 8],
    ack_filled: usize,
}

enum DrainOutcome {
    /// Sent what the backlog had (possibly nothing); stream healthy.
    Progress,
    /// The backlog no longer covers the peer's position.
    Overrun,
    /// The stream errored.
    Dead,
}

impl DrainJob {
    fn drain(&mut self, backlog: &Mutex<Backlog>, metrics: &ServiceMetrics) -> DrainOutcome {
        self.stream.set_write_timeout(Some(STREAM_TIMEOUT)).ok();
        loop {
            // Keep the in-flight window bounded so acks are read roughly
            // as fast as records are written.
            if self.pending > DRAIN_CHUNK as u64 {
                match self.harvest(Instant::now() + STREAM_TIMEOUT) {
                    Ok(true) => {}
                    Ok(false) => return DrainOutcome::Progress,
                    Err(_) => return DrainOutcome::Dead,
                }
            }
            let chunk = {
                let backlog = backlog.lock();
                if !backlog.covers(self.sent) {
                    return DrainOutcome::Overrun;
                }
                backlog.range(self.sent, DRAIN_CHUNK)
            };
            if chunk.is_empty() {
                // Nothing left to send; settle outstanding acks.
                return match self.harvest(Instant::now() + ACK_DEADLINE) {
                    Ok(_) => DrainOutcome::Progress,
                    Err(_) => DrainOutcome::Dead,
                };
            }
            for (seq, record) in &chunk {
                if self.stream.write_all(record).is_err() {
                    return DrainOutcome::Dead;
                }
                self.sent = *seq;
                self.pending += 1;
                metrics.repl_resync_records_total.inc();
            }
        }
    }

    /// Sends the last few records of a drain and settles their acks while
    /// the caller holds the replicator lock, so a blocked write gives up
    /// after [`ACK_DEADLINE`], as a ship's does.
    fn finish(
        &mut self,
        records: &[(u64, Arc<Vec<u8>>)],
        metrics: &ServiceMetrics,
    ) -> std::io::Result<()> {
        self.stream.set_write_timeout(Some(ACK_DEADLINE))?;
        for (seq, record) in records {
            self.stream.write_all(record)?;
            self.sent = *seq;
            self.pending += 1;
            metrics.repl_resync_records_total.inc();
        }
        self.harvest(Instant::now() + ACK_DEADLINE)?;
        Ok(())
    }

    fn harvest(&mut self, deadline: Instant) -> std::io::Result<bool> {
        let DrainJob { stream, ack_buf, ack_filled, pending, acked, .. } = self;
        harvest_acks_raw(stream, ack_buf, ack_filled, pending, acked, deadline)
    }
}

/// Reads cumulative acks until none are outstanding or `deadline` passes.
/// `Ok(true)` means fully settled; `Ok(false)` is a timeout (stream
/// intact, acks still owed); `Err` is a dead stream.
fn harvest_acks(peer: &mut Peer, deadline: Instant) -> std::io::Result<bool> {
    let Peer { stream, ack_buf, ack_filled, pending, acked, .. } = peer;
    let stream = stream.as_mut().expect("caller checked the stream");
    harvest_acks_raw(stream, ack_buf, ack_filled, pending, acked, deadline)
}

fn harvest_acks_raw(
    stream: &mut TcpStream,
    ack_buf: &mut [u8; 8],
    ack_filled: &mut usize,
    pending: &mut u64,
    acked: &mut u64,
    deadline: Instant,
) -> std::io::Result<bool> {
    while *pending > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let read = if remaining.is_zero() {
            // Past the deadline, acks already received still count: a
            // ship that spent the deadline on one silent peer must not
            // demote the next peer, whose ack arrived meanwhile.
            stream.set_nonblocking(true)?;
            let read = stream.read(&mut ack_buf[*ack_filled..]);
            stream.set_nonblocking(false)?;
            read
        } else {
            stream.set_read_timeout(Some(remaining))?;
            stream.read(&mut ack_buf[*ack_filled..])
        };
        match read {
            Ok(0) => return Err(std::io::Error::other("replication stream closed")),
            Ok(n) => {
                *ack_filled += n;
                if *ack_filled == 8 {
                    *acked = (*acked).max(u64::from_le_bytes(*ack_buf));
                    *ack_filled = 0;
                    *pending -= 1;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Dials `addr`, handshakes `generation`, and brings the follower as far
/// forward as the backlog allows. `Err` only for unreachable or fenced
/// followers — a follower that is merely behind becomes `Behind` (stream
/// kept, drain continues off-path) or `Hinted` (sent a snapshot-bootstrap
/// control frame and closed).
fn establish(
    addr: &str,
    generation: u64,
    advertise: &str,
    backlog: &Mutex<Backlog>,
    metrics: &ServiceMetrics,
) -> std::io::Result<Established> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(STREAM_TIMEOUT))?;
    stream.set_write_timeout(Some(STREAM_TIMEOUT))?;
    let mut handshake = [0u8; HANDSHAKE_BYTES];
    handshake[..8].copy_from_slice(REPL_MAGIC);
    handshake[8..].copy_from_slice(&generation.to_le_bytes());
    stream.write_all(&handshake)?;
    let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
    stream.read_exact(&mut reply)?;
    if reply[0] != 0 {
        let theirs = u64::from_le_bytes(reply[1..9].try_into().expect("8-byte slice"));
        return Err(std::io::Error::other(format!(
            "follower {addr} fenced generation {generation}: it has already \
             witnessed generation {theirs}"
        )));
    }
    let follower_seq = u64::from_le_bytes(reply[9..17].try_into().expect("8-byte slice"));
    // Replay the gap from the ring. The backlog lock is only held to copy
    // chunk references — never across stream I/O. A follower at the head
    // has nothing to replay — nor has one ahead of it, which the rejoin
    // path produces legitimately: a demoted primary may hold events it
    // applied locally but never got acked. Those are torn-tail state, not
    // a divergence; the stream simply continues from there.
    let mut job = DrainJob {
        stream,
        sent: follower_seq,
        acked: follower_seq,
        pending: 0,
        ack_buf: [0u8; 8],
        ack_filled: 0,
    };
    match job.drain(backlog, metrics) {
        DrainOutcome::Progress => Ok(Established::Stream(job)),
        DrainOutcome::Overrun => {
            send_bootstrap_hint(&mut job.stream, advertise, metrics)?;
            Ok(Established::Hinted)
        }
        DrainOutcome::Dead => Err(std::io::Error::other(format!(
            "follower {addr} dropped the stream during backlog replay"
        ))),
    }
}

/// Frames and sends one bootstrap control frame naming this primary's
/// HTTP address, counting it once sent.
fn send_bootstrap_hint(
    stream: &mut TcpStream,
    advertise: &str,
    metrics: &ServiceMetrics,
) -> std::io::Result<()> {
    let mut payload = Vec::with_capacity(1 + advertise.len());
    payload.push(CONTROL_BOOTSTRAP);
    payload.extend_from_slice(advertise.as_bytes());
    let len_le = (payload.len() as u32 | CONTROL_BIT).to_le_bytes();
    let sum = frame_checksum(&len_le, &payload);
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len_le);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame)?;
    metrics.repl_bootstrap_hints_total.inc();
    Ok(())
}

/// Reads exactly `buf.len()` bytes, riding out socket timeouts so an idle
/// primary does not kill the stream; bails on EOF, real errors, or when
/// shutdown has begun.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutting_down: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutting_down.load(Ordering::Acquire) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// Fetches a full snapshot from `addr`'s `/v1/repl/snapshot` and installs
/// it, re-anchoring this node at the primary's applied sequence. Caller
/// holds the cluster apply gate.
fn bootstrap_from(addr: &str, store: &ShardedStore) -> std::io::Result<u64> {
    let (host, port) = addr
        .rsplit_once(':')
        .ok_or_else(|| std::io::Error::other(format!("malformed bootstrap address {addr}")))?;
    let port: u16 = port
        .parse()
        .map_err(|_| std::io::Error::other(format!("malformed bootstrap port in {addr}")))?;
    let mut client = crate::loadgen::Client::with_policy(host, port, 2, Duration::from_millis(25));
    let response = client
        .request("GET", "/v1/repl/snapshot", &[])
        .map_err(|e| std::io::Error::other(format!("snapshot fetch from {addr} failed: {e:?}")))?;
    if response.status != 200 {
        return Err(std::io::Error::other(format!(
            "snapshot fetch from {addr} failed: status {}",
            response.status
        )));
    }
    store.install_bootstrap(&response.body)
}

/// Serves one inbound replication stream on the follower side: validate
/// the handshake (fencing stale generations), then apply each framed
/// record through the same [`SiteEntry::apply`](crate::store::SiteEntry)
/// path recovery uses and ack it with this node's absolute applied
/// sequence — the number the primary's resync arithmetic is anchored on.
///
/// Accepting a handshake adopts its generation: the node becomes (or
/// stays) a follower of that primary and drops any replicator it held —
/// a primary receiving a newer generation's stream has been superseded
/// and steps down. If a newer generation arrives mid-stream (on another
/// connection), this stream stops acking and closes: a record from a
/// dead generation is never applied after the succession. Adoption and
/// application are serialized under the cluster's apply gate with a
/// stream epoch, so a superseded stream can never apply a record after a
/// newer stream's handshake reply reported the node's position.
pub fn serve_follower_stream(
    mut stream: TcpStream,
    store: &ShardedStore,
    cluster: &ClusterState,
    shutting_down: &AtomicBool,
    metrics: &ServiceMetrics,
) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(STREAM_TIMEOUT)).ok();
    stream.set_write_timeout(Some(STREAM_TIMEOUT)).ok();
    let mut handshake = [0u8; HANDSHAKE_BYTES];
    if !read_full(&mut stream, &mut handshake, shutting_down) || &handshake[..8] != REPL_MAGIC {
        return;
    }
    let generation = u64::from_le_bytes(handshake[8..].try_into().expect("8-byte slice"));
    let my_epoch = {
        let _gate = cluster.apply_gate.lock();
        let current = cluster.generation();
        // Strictly older generations are fenced; an equal generation is
        // fenced too when this node is that generation's primary (two
        // primaries of one generation would be split brain).
        let stale =
            generation < current || (generation == current && cluster.role() == Role::Primary);
        let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
        reply[0] = u8::from(stale);
        reply[1..9].copy_from_slice(&current.to_le_bytes());
        reply[9..17].copy_from_slice(&store.applied_seq().to_le_bytes());
        if stream.write_all(&reply).is_err() || stale {
            return;
        }
        cluster.witness_generation(generation);
        cluster.set_role(Role::Follower);
        store.set_replicator(None);
        cluster.stream_epoch.fetch_add(1, Ordering::AcqRel) + 1
    };
    loop {
        let mut header = [0u8; HEADER_BYTES];
        if !read_full(&mut stream, &mut header, shutting_down) {
            return;
        }
        let len_le: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        let raw_len = u32::from_le_bytes(len_le);
        let control = raw_len & CONTROL_BIT != 0;
        let len = raw_len & !CONTROL_BIT;
        if len == 0 || len > MAX_RECORD_BYTES || (control && len > MAX_CONTROL_BYTES) {
            return;
        }
        let sum = u64::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
        // The whole frame, header included: a record is journaled and kept
        // in the backlog exactly as it arrived.
        let mut frame = vec![0u8; HEADER_BYTES + len as usize];
        frame[..HEADER_BYTES].copy_from_slice(&header);
        if !read_full(&mut stream, &mut frame[HEADER_BYTES..], shutting_down) {
            return;
        }
        let payload = &frame[HEADER_BYTES..];
        if frame_checksum(&len_le, payload) != sum {
            return;
        }
        if control {
            handle_control(payload, store, cluster, generation, my_epoch, metrics);
            return;
        }
        let Some(event) = VisitEvent::decode_payload(payload) else { return };
        {
            let _gate = cluster.apply_gate.lock();
            // Fence mid-stream: a newer primary may have adopted this
            // node since the handshake. Never apply (or ack) a dead
            // generation's record after the succession.
            if cluster.stream_epoch.load(Ordering::Acquire) != my_epoch
                || cluster.generation() != generation
                || cluster.role() != Role::Follower
            {
                return;
            }
            if store.apply_replicated(&event, frame).is_err() {
                return;
            }
        }
        if stream.write_all(&store.applied_seq().to_le_bytes()).is_err() {
            return;
        }
    }
}

/// Dispatches one control frame. Today there is exactly one kind: the
/// snapshot-bootstrap hint. The whole install runs under the apply gate,
/// so a concurrent new stream's handshake blocks until the node's
/// position is post-install — its reply can never advertise a stale
/// sequence the primary would then double-ship against.
fn handle_control(
    payload: &[u8],
    store: &ShardedStore,
    cluster: &ClusterState,
    generation: u64,
    my_epoch: u64,
    metrics: &ServiceMetrics,
) {
    if payload.first() != Some(&CONTROL_BOOTSTRAP) {
        return;
    }
    let Ok(addr) = std::str::from_utf8(&payload[1..]) else { return };
    let _gate = cluster.apply_gate.lock();
    if cluster.stream_epoch.load(Ordering::Acquire) != my_epoch
        || cluster.generation() != generation
        || cluster.role() != Role::Follower
    {
        return;
    }
    if bootstrap_from(addr, store).is_ok() {
        metrics.repl_bootstrap_total.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_policy_parse_and_label_round_trip() {
        for policy in [ReplAckPolicy::None, ReplAckPolicy::Quorum, ReplAckPolicy::All] {
            assert_eq!(ReplAckPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(ReplAckPolicy::parse("majority"), None);
        assert_eq!(ReplAckPolicy::default(), ReplAckPolicy::Quorum);
    }

    #[test]
    fn quorum_counts_the_primary_toward_the_majority() {
        // followers → required follower acks (primary + acks is a majority
        // of followers + 1 nodes).
        for (followers, required) in [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)] {
            assert_eq!(
                ReplAckPolicy::Quorum.required_acks(followers),
                required,
                "{followers} followers"
            );
        }
        assert_eq!(ReplAckPolicy::None.required_acks(4), 0);
        assert_eq!(ReplAckPolicy::All.required_acks(4), 4);
    }

    #[test]
    fn cluster_generation_is_monotone() {
        let cluster = ClusterState::new();
        assert_eq!(cluster.role(), Role::Standalone);
        assert_eq!(cluster.generation(), 0);
        cluster.witness_generation(3);
        cluster.witness_generation(2);
        assert_eq!(cluster.generation(), 3, "generations never move backwards");
        cluster.set_role(Role::Primary);
        assert_eq!(cluster.role(), Role::Primary);
        assert_eq!(cluster.role().label(), "primary");
    }

    fn rec(i: u64) -> Arc<Vec<u8>> {
        Arc::new(vec![i as u8; 4])
    }

    #[test]
    fn backlog_ring_retains_a_bounded_suffix() {
        let mut backlog = Backlog::new(4);
        assert_eq!(backlog.head(), 0);
        assert!(backlog.covers(0), "empty ring covers its own head");
        for i in 1..=10u64 {
            assert_eq!(backlog.push(rec(i)), i);
        }
        assert_eq!(backlog.head(), 10);
        // Capacity 4 retains (6, 10].
        assert!(backlog.covers(6));
        assert!(!backlog.covers(5));
        let all: Vec<u64> = backlog.range(6, 100).iter().map(|(s, _)| *s).collect();
        assert_eq!(all, vec![7, 8, 9, 10]);
        let chunk: Vec<u64> = backlog.range(7, 2).iter().map(|(s, _)| *s).collect();
        assert_eq!(chunk, vec![8, 9]);
        assert!(backlog.range(10, 8).is_empty(), "caught up → nothing to replay");
        // Payloads ride along with their sequence numbers.
        let (seq, record) = backlog.range(9, 1).pop().unwrap();
        assert_eq!(seq, 10);
        assert_eq!(*record, vec![10u8; 4]);
    }

    #[test]
    fn backlog_advance_gives_up_replay_but_keeps_the_sequence() {
        let mut backlog = Backlog::new(8);
        backlog.push(rec(1));
        backlog.push(rec(2));
        assert_eq!(backlog.advance(), 3, "standalone writes keep the lineage counter");
        assert!(backlog.covers(3), "head itself is always covered");
        assert!(!backlog.covers(2), "the gap poisons replay");
        assert!(backlog.range(0, 10).is_empty());
        backlog.reset_to(42);
        assert_eq!(backlog.head(), 42);
        assert!(backlog.covers(42));
        assert!(!backlog.covers(41));
    }

    #[test]
    fn backlog_capacity_shrink_trims_oldest() {
        let mut backlog = Backlog::new(8);
        for i in 1..=8u64 {
            backlog.push(rec(i));
        }
        backlog.set_capacity(2);
        assert!(backlog.covers(6));
        assert!(!backlog.covers(5));
        assert_eq!(backlog.range(6, 10).len(), 2);
    }

    #[test]
    fn redial_backoff_is_bounded_and_deterministic() {
        for attempts in 0..12 {
            let d = redial_backoff(3, 1, attempts);
            assert!(d >= REDIAL_BASE, "{attempts} attempts → {d:?}");
            assert!(d <= REDIAL_MAX + Duration::from_millis(50), "{attempts} attempts → {d:?}");
        }
        assert_eq!(redial_backoff(7, 2, 3), redial_backoff(7, 2, 3), "seeded jitter is stable");
    }

    #[test]
    fn control_frames_use_the_high_length_bit() {
        const { assert!(MAX_RECORD_BYTES < CONTROL_BIT, "record lengths can never look like control") };
        let payload = [CONTROL_BOOTSTRAP, b'x'];
        let len_le = (payload.len() as u32 | CONTROL_BIT).to_le_bytes();
        let raw = u32::from_le_bytes(len_le);
        assert_ne!(raw & CONTROL_BIT, 0);
        assert_eq!(raw & !CONTROL_BIT, 2);
    }

    #[test]
    fn peer_state_labels() {
        assert_eq!(PeerState::Live.label(), "live");
        assert_eq!(PeerState::CatchingUp.label(), "catching-up");
        assert_eq!(PeerState::Down.label(), "down");
    }

    /// A scripted in-process follower: accepts one replication stream,
    /// answers the handshake as a fresh node (`[0, generation, applied
    /// 0]`), then acks each frame it reads after `ack_delay` — or never,
    /// when that is `None`. The thread ends when the primary hangs up.
    fn scripted_follower(
        generation: u64,
        ack_delay: Option<Duration>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind port 0");
        let addr = listener.local_addr().expect("bound address").to_string();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("primary dials");
            let mut handshake = [0u8; HANDSHAKE_BYTES];
            stream.read_exact(&mut handshake).expect("handshake");
            let mut reply = [0u8; HANDSHAKE_REPLY_BYTES];
            reply[1..9].copy_from_slice(&generation.to_le_bytes());
            stream.write_all(&reply).expect("handshake reply");
            let mut applied = 0u64;
            let mut header = [0u8; HEADER_BYTES];
            while stream.read_exact(&mut header).is_ok() {
                let len = u32::from_le_bytes(header[..4].try_into().unwrap());
                let mut payload = vec![0u8; len as usize];
                if stream.read_exact(&mut payload).is_err() {
                    return;
                }
                let Some(delay) = ack_delay else { continue };
                std::thread::sleep(delay);
                applied += 1;
                if stream.write_all(&applied.to_le_bytes()).is_err() {
                    return;
                }
            }
        });
        (addr, thread)
    }

    /// Leads `ack_delays.len()` scripted followers under `policy`, ships
    /// one event, and returns how long the ship took, its result, the
    /// peers' rows and the slow-demotion count.
    fn ship_once(
        policy: ReplAckPolicy,
        ack_delays: &[Option<Duration>],
    ) -> (Duration, std::io::Result<()>, Vec<PeerStatus>, u64) {
        let (addrs, threads): (Vec<_>, Vec<_>) =
            ack_delays.iter().map(|delay| scripted_follower(1, *delay)).unzip();
        let metrics = Arc::new(ServiceMetrics::new());
        let replicator = Replicator::connect(
            &addrs,
            1,
            policy,
            "127.0.0.1:1".to_string(),
            Arc::new(Mutex::new(Backlog::new(16))),
            Arc::clone(&metrics),
        )
        .expect("scripted followers accept the handshake");
        let event = VisitEvent {
            host: "shop.example".to_string(),
            observed: vec!["sid".to_string()],
            kind: crate::wal::EventKind::Observe,
        };
        let started = Instant::now();
        let result = replicator.ship(&event);
        let elapsed = started.elapsed();
        let peers = replicator.peer_statuses();
        drop(replicator);
        for thread in threads {
            thread.join().expect("scripted follower");
        }
        (elapsed, result, peers, metrics.repl_slow_demotions_total.get())
    }

    #[test]
    fn ship_waits_for_the_slowest_follower_not_the_sum() {
        let delay = Some(Duration::from_millis(100));
        let (elapsed, result, peers, _) = ship_once(ReplAckPolicy::Quorum, &[delay, delay]);
        result.expect("quorum acked");
        assert!(elapsed < Duration::from_millis(150), "ship took {elapsed:?}");
        for peer in peers {
            assert_eq!((peer.state, peer.acked_seq), (PeerState::Live, 1), "{}", peer.addr);
        }
    }

    #[test]
    fn silent_followers_share_one_ack_deadline() {
        let (elapsed, result, peers, demotions) = ship_once(ReplAckPolicy::None, &[None, None]);
        result.expect("policy none never fails a write");
        assert!(elapsed < ACK_DEADLINE.mul_f64(1.5), "ship took {elapsed:?}");
        assert!(peers.iter().all(|p| p.state == PeerState::CatchingUp), "{peers:?}");
        assert_eq!(demotions, 2);
    }

    #[test]
    fn an_ack_that_lands_while_a_silent_peer_is_awaited_still_counts() {
        let delay = Some(Duration::from_millis(100));
        let (elapsed, result, peers, demotions) = ship_once(ReplAckPolicy::Quorum, &[None, delay]);
        result.expect("the second follower's ack makes the quorum");
        assert!(elapsed < ACK_DEADLINE.mul_f64(1.5), "ship took {elapsed:?}");
        assert_eq!(peers[0].state, PeerState::CatchingUp);
        assert_eq!((peers[1].state, peers[1].acked_seq), (PeerState::Live, 1));
        assert_eq!(demotions, 1);
    }
}
