//! The cp-serve server: configuration, start-up, routing, shutdown.
//!
//! [`start`] binds the listener, opens the training store and hands every
//! connection to the sharded readiness loop in `eventloop`: `workers`
//! shard threads, each running a nonblocking poller over its own
//! connections (epoll on Linux, `poll(2)` on other unix targets). Each
//! accepted connection goes to the shard that owns the fewest, the
//! lowest-numbered on a tie, and stays there. There is no thread per
//! connection and no queue. Admission is bounded: beyond
//! `workers + queue_capacity` open connections a new one gets an inline
//! `503`. On non-unix targets `start` fails with `Unsupported`.
//!
//! This module owns what a node's requests share: `route` and its
//! handlers, the store, the world and the cluster role. The loop serves
//! them through its handler trait, the one the router implements too, so
//! everything about a connection is decided the same way on both tiers.
//!
//! Shutdown is graceful: the flag flips, a self-connect wakes a shard,
//! and each shard takes in any connection handed to it and finishes the
//! responses it holds before exiting.

use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cookiepicker_core::{decide_analyzed, CookiePickerConfig};
use cp_runtime::json::{FromJson, Json, ToJson};

use crate::cache::AnalysisCache;
use crate::eventloop::{Handler, Routed};
use crate::http::{HttpRequest, Limits};
use crate::metrics::{Endpoint, ServiceMetrics};
use crate::replication::{
    self, ClusterState, ReplAckPolicy, Replicator, Role, DEFAULT_BACKLOG_CAP,
};
use crate::storage::StorageFaults;
use crate::store::{DurabilityConfig, RecoveryStats, ShardedStore, DEFAULT_SNAPSHOT_EVERY};
use crate::wal::FsyncPolicy;
use crate::world::{ChaosConfig, EmbeddedWorld, VisitPlan, DEFAULT_SITE_CACHE};
use cp_webworld::WorldKind;

/// Salt mixed into the population seed to derive the chaos seed, so the
/// fault stream is decorrelated from (but still determined by) `--seed`.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED_FA17_5EED;

/// Server construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Interface to bind (the service is loopback-only by default).
    pub host: String,
    /// Port to bind; `0` picks a free port.
    pub port: u16,
    /// Seed for the embedded site population.
    pub seed: u64,
    /// Which world the universe enumerates: the paper's Table-1 sites
    /// (default) or `uniform:N` procedural hosts derived on demand.
    pub world: WorldKind,
    /// Event-loop shard threads serving connections.
    pub workers: usize,
    /// Shards in the training store.
    pub shards: usize,
    /// Connections admitted beyond one per shard: at most `workers +
    /// queue_capacity` are open at once, and the next is answered `503`.
    pub queue_capacity: usize,
    /// Per-connection timeout: a connection idle this long waiting for a
    /// request, or stalled this long while its response is written, is
    /// closed. Zero would close every connection before its request is
    /// read, so the CLI's `--timeout-ms` must be at least 1.
    pub timeout: Duration,
    /// Message size caps.
    pub limits: Limits,
    /// Detection configuration used by `/v1/classify` and `/v1/visit`.
    pub picker: CookiePickerConfig,
    /// Page-analysis cache capacity (compiled pages kept for reuse).
    pub cache_capacity: usize,
    /// Chaos mode: hidden-fetch fault rate in `[0, 1]`. `0.0` (the
    /// default) disables fault injection entirely — the fault-free path
    /// is byte-identical to a build without chaos.
    pub chaos_fault_rate: f64,
    /// When set, the training store is durable: per-shard WALs and
    /// snapshots live under this directory and are recovered on start.
    pub data_dir: Option<PathBuf>,
    /// When WAL appends are forced to stable storage (durable mode only).
    pub fsync: FsyncPolicy,
    /// Events between automatic per-shard checkpoints (durable mode only).
    pub snapshot_every: u64,
    /// Injected storage-fault rate in `[0, 1]` for the durable write
    /// layer. `0.0` (the default) means the real filesystem, untouched.
    pub storage_fault_rate: f64,
    /// Seed for the storage-fault stream (independent of `--seed`).
    pub storage_fault_seed: u64,
    /// When set, a replication listener binds this port (0 picks a free
    /// one) and the node can follow a primary's WAL stream.
    pub repl_port: Option<u16>,
    /// Follower acks required before a write is acknowledged, when this
    /// node leads.
    pub repl_ack: ReplAckPolicy,
    /// Follower replication addresses (`host:port`) to lead at startup.
    /// Empty (the default) starts the node standalone.
    pub repl_followers: Vec<String>,
    /// Cluster generation to lead at when `repl_followers` is non-empty.
    /// A follower that has witnessed a newer generation fences the
    /// handshake and startup fails — the stale-primary rejoin gate.
    pub repl_generation: u64,
    /// Records the resync backlog ring retains. A reconnecting follower
    /// within this window replays from memory; one beyond it bootstraps
    /// from a snapshot.
    pub repl_backlog: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            seed: 7,
            world: WorldKind::Table1,
            workers: 4,
            shards: 16,
            queue_capacity: 128,
            timeout: Duration::from_secs(5),
            limits: Limits::default(),
            picker: CookiePickerConfig::default(),
            cache_capacity: 512,
            chaos_fault_rate: 0.0,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            storage_fault_rate: 0.0,
            storage_fault_seed: 0,
            repl_port: None,
            repl_ack: ReplAckPolicy::default(),
            repl_followers: Vec::new(),
            repl_generation: 1,
            repl_backlog: DEFAULT_BACKLOG_CAP,
        }
    }
}

/// State shared by the event-loop shards, the replication threads and the
/// handle.
struct Shared {
    world: EmbeddedWorld,
    store: ShardedStore,
    metrics: Arc<ServiceMetrics>,
    picker: CookiePickerConfig,
    cache: AnalysisCache,
    shutting_down: AtomicBool,
    /// Set by whichever exit path runs the final checkpoint first, so a
    /// `wait()` + `Drop` pair checkpoints exactly once.
    checkpointed: AtomicBool,
    recovery: RecoveryStats,
    addr: SocketAddr,
    /// Cluster role + witnessed generation (standalone/gen 0 when the
    /// node never participates in replication).
    cluster: ClusterState,
    /// Ack policy applied whenever this node leads.
    repl_ack: ReplAckPolicy,
    /// Bound replication-listener address, when `repl_port` was set.
    repl_addr: Option<SocketAddr>,
}

impl Shared {
    /// Flips the shutdown flag; the first caller also wakes a shard out of
    /// its poll (and the replication listener out of its blocking
    /// `accept`, if any) with throwaway self-connects.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            if let Some(repl_addr) = self.repl_addr {
                let _ = TcpStream::connect_timeout(&repl_addr, Duration::from_secs(1));
            }
        }
    }

    /// Becomes primary of `generation`, streaming to `followers`: opens
    /// and handshakes every stream first, so a fenced or unreachable
    /// follower fails the attempt without a role change.
    fn lead(&self, generation: u64, followers: &[String]) -> std::io::Result<()> {
        let current = self.cluster.generation();
        if generation < current || (generation == current && self.cluster.role() == Role::Primary) {
            return Err(std::io::Error::other(format!(
                "generation {generation} is fenced: this node has already witnessed \
                 generation {current}"
            )));
        }
        let replicator = Arc::new(Replicator::connect(
            followers,
            generation,
            self.repl_ack,
            self.addr.to_string(),
            self.store.backlog_handle(),
            Arc::clone(&self.metrics),
        )?);
        // The maintenance thread redials down peers and drains the backlog
        // to catching-up ones, off the write path. It exits when the
        // replicator is retired (role change or shutdown).
        let maintained = Arc::clone(&replicator);
        std::thread::spawn(move || replication::run_maintenance(maintained));
        self.store.set_replicator(Some(replicator));
        self.cluster.witness_generation(generation);
        self.cluster.set_role(Role::Primary);
        Ok(())
    }
}

/// Accepts replication streams and serves each on its own thread. The
/// per-stream threads are detached: they exit on EOF, checksum failure,
/// fencing, or the shutdown flag (stream reads poll it between timeouts).
fn repl_accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            replication::serve_follower_stream(
                stream,
                &shared.store,
                &shared.cluster,
                &shared.shutting_down,
                &shared.metrics,
            );
        });
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// The event-loop shards and the replication listener.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.addr.port()
    }

    /// The bound replication-listener address, when `repl_port` was set.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.shared.repl_addr
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Requests a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// What recovery replayed when the server opened its store (all
    /// zeros for in-memory servers).
    pub fn recovery(&self) -> RecoveryStats {
        self.shared.recovery
    }

    /// Blocks until every shard and the replication listener have exited,
    /// then (for durable stores) flushes the WALs and writes a final
    /// snapshot so a clean restart replays zero records. Call
    /// [`shutdown`](Self::shutdown) first (or `POST /v1/shutdown`).
    pub fn wait(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // All shards are gone: no more mutations. Retire the replicator
        // first (its maintenance thread exits) so nothing redials peers
        // while the process winds down, then checkpoint.
        self.shared.store.set_replicator(None);
        if !self.shared.checkpointed.swap(true, Ordering::SeqCst) {
            if let Err(e) = self.shared.store.checkpoint() {
                eprintln!("cp-serve: final checkpoint failed: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Binds and starts the service.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let mut world = EmbeddedWorld::with_world(config.seed, config.world, DEFAULT_SITE_CACHE);
    if config.chaos_fault_rate > 0.0 {
        let chaos =
            ChaosConfig::uniform(config.seed ^ CHAOS_SEED_SALT, config.chaos_fault_rate.min(1.0));
        world.set_chaos(Some(chaos));
    }
    let metrics = Arc::new(ServiceMetrics::new());
    let durability = config.data_dir.as_ref().map(|dir| DurabilityConfig {
        dir: dir.clone(),
        fsync: config.fsync,
        snapshot_every: config.snapshot_every.max(1),
        faults: (config.storage_fault_rate > 0.0).then(|| {
            StorageFaults::uniform(config.storage_fault_seed, config.storage_fault_rate.min(1.0))
        }),
    });
    let (store, recovery) = ShardedStore::open(
        config.shards,
        config.picker.stability_window,
        durability,
        Arc::clone(&metrics),
    )?;
    metrics.recovery_records_replayed.set(recovery.records_replayed.min(i64::MAX as u64) as i64);
    metrics.recovery_torn_tail_bytes.set(recovery.torn_tail_bytes.min(i64::MAX as u64) as i64);
    store.set_backlog_capacity(config.repl_backlog.max(1));
    let repl_listener = match config.repl_port {
        Some(port) => Some(TcpListener::bind((config.host.as_str(), port))?),
        None => None,
    };
    let repl_addr = repl_listener.as_ref().map(TcpListener::local_addr).transpose()?;
    let shared = Arc::new(Shared {
        world,
        store,
        metrics,
        picker: config.picker.clone(),
        cache: AnalysisCache::new(config.cache_capacity),
        shutting_down: AtomicBool::new(false),
        checkpointed: AtomicBool::new(false),
        recovery,
        addr,
        cluster: ClusterState::new(),
        repl_ack: config.repl_ack,
        repl_addr,
    });

    // Lead at startup before any serving thread exists: a fenced or
    // unreachable follower fails `start` cleanly (nothing to join), which
    // is how a stale primary learns it cannot rejoin at its old
    // generation.
    if !config.repl_followers.is_empty() {
        shared.lead(config.repl_generation, &config.repl_followers)?;
    }
    let repl_thread = repl_listener.map(|listener| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || repl_accept_loop(&shared, &listener))
    });

    // From here on, dropping the handle — on the error return below too —
    // shuts down and joins whatever has started. The shards own clones of
    // the listener; the original drops when `start` returns, so joining
    // them releases the port.
    let mut handle = ServerHandle { shared, threads: repl_thread.into_iter().collect() };
    handle.threads.extend(crate::eventloop::spawn(&handle.shared, &listener, &config)?);
    Ok(handle)
}

impl Handler for Shared {
    type Shard = ();

    fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn route(&self, _: &mut (), request: &HttpRequest) -> Routed {
        route(self, request)
    }
}

/// Routes one request to its handler.
fn route(shared: &Shared, request: &HttpRequest) -> Routed {
    let method = request.method.as_str();
    let target = request.target.as_str();
    match (method, target) {
        ("GET", "/healthz") => {
            let mut body = Json::object()
                .set("status", "ok")
                .set("seed", shared.world.seed())
                .set("world", shared.world.universe().kind().to_string())
                .set("hosts", shared.world.host_count())
                .set("sites_trained", shared.store.site_count())
                .set("role", shared.cluster.role().label())
                .set("generation", shared.cluster.generation())
                .set("replication_lag_records", shared.store.replication_lag())
                .set("replication_applied_seq", shared.store.applied_seq())
                .set("replication_resyncs", shared.metrics.repl_resync_total.get())
                .set(
                    "replication_ack_stall_max_micros",
                    shared.metrics.repl_ack_stall_max_micros.get(),
                )
                .set("durable", shared.store.is_durable());
            let peers = shared.store.replication_peers();
            if !peers.is_empty() {
                let rows: Vec<Json> = peers
                    .iter()
                    .map(|p| {
                        Json::object()
                            .set("addr", p.addr.as_str())
                            .set("state", p.state.label())
                            .set("connected", p.connected)
                            .set("acked_seq", p.acked_seq)
                    })
                    .collect();
                body = body.set("replication_peers", Json::Array(rows));
            }
            if shared.store.is_durable() {
                let r = shared.recovery;
                body = body.set(
                    "recovery",
                    Json::object()
                        .set("snapshots_loaded", r.snapshots_loaded)
                        .set("records_replayed", r.records_replayed)
                        .set("torn_tail_bytes", r.torn_tail_bytes)
                        .set("recovery_ms", r.recovery_micros as f64 / 1_000.0),
                );
            }
            json(Endpoint::Healthz, 200, body.to_compact().into_bytes())
        }
        ("GET", "/metrics") => {
            let body = shared.metrics.render_prometheus().into_bytes();
            (Endpoint::Metrics, 200, Cow::Borrowed("text/plain; version=0.0.4"), body)
        }
        ("GET", "/v1/marks") => {
            // The crash harness's comparable artifact: every useful mark,
            // one sorted `host cookie` line each.
            let mut lines = shared.store.marks().join("\n");
            if !lines.is_empty() {
                lines.push('\n');
            }
            (Endpoint::Marks, 200, Cow::Borrowed("text/plain; charset=utf-8"), lines.into_bytes())
        }
        ("POST", "/v1/classify") => classify(shared, &request.body),
        ("POST", "/v1/visit") => visit(shared, &request.body),
        ("POST", "/v1/expire") => expire(shared, &request.body),
        ("POST", "/v1/repl/lead") => repl_lead(shared, &request.body),
        ("GET", "/v1/repl/snapshot") => {
            // The resync-ladder's last rung: a follower too far behind the
            // backlog downloads a consistent full-state snapshot (exact
            // on-disk `CPSNAP01` format) and installs it atomically.
            let body = shared.store.encode_bootstrap(shared.cluster.generation());
            (Endpoint::Repl, 200, Cow::Borrowed("application/octet-stream"), body)
        }
        ("GET", t) if t == "/v1/sites" || t.starts_with("/v1/sites?") => {
            sites_list(shared, t.strip_prefix("/v1/sites").and_then(|q| q.strip_prefix('?')))
        }
        ("GET", t) if t.starts_with("/v1/sites/") => site_summary(shared, &t["/v1/sites/".len()..]),
        ("POST", "/v1/shutdown") => {
            shared.begin_shutdown();
            let body = Json::object().set("status", "shutting down").to_compact().into_bytes();
            json(Endpoint::Shutdown, 200, body)
        }
        _ => json(Endpoint::Other, 404, error_json("no such route")),
    }
}

/// `POST /v1/classify`: run the Figure-5 decision on a caller-provided
/// page pair. Body: `{"regular": html, "hidden": html, "config"?: {...}}`.
fn classify(shared: &Shared, body: &[u8]) -> Routed {
    let parsed = match parse_json_body(body) {
        Ok(json) => json,
        Err(msg) => return bad_request(Endpoint::Classify, msg),
    };
    let (regular, hidden) = match (
        parsed.get("regular").and_then(Json::as_str),
        parsed.get("hidden").and_then(Json::as_str),
    ) {
        (Some(r), Some(h)) => (r, h),
        _ => return bad_request(Endpoint::Classify, "body needs string fields regular and hidden"),
    };
    let config = match parsed.get("config") {
        Some(json) => match CookiePickerConfig::from_json(json) {
            Ok(config) => config,
            Err(_) => return bad_request(Endpoint::Classify, "invalid config object"),
        },
        None => shared.picker.clone(),
    };
    // Compiled pipeline: analyses come from the page cache (repeated
    // bodies skip parse + extract), the decision runs over them.
    // `detection_micros` covers lookup/compile + both kernels, so it stays
    // comparable to the uncached path's parse-to-verdict measurement.
    let started = Instant::now();
    let (analysis_regular, hit) = shared.cache.get_or_analyze(regular, config.compare_from_body);
    shared.metrics.analysis_cache.inc(if hit { "hit" } else { "miss" });
    let (analysis_hidden, hit) = shared.cache.get_or_analyze(hidden, config.compare_from_body);
    shared.metrics.analysis_cache.inc(if hit { "hit" } else { "miss" });
    let mut decision = decide_analyzed(&analysis_regular, &analysis_hidden, &config);
    decision.detection_micros = started.elapsed().as_micros() as u64;
    shared.metrics.detection.observe(decision.detection_micros);
    let verdict = if decision.cookies_caused_difference { "useful" } else { "noise" };
    shared.metrics.decisions.inc(verdict);
    let body = decision.to_json().to_compact().into_bytes();
    json(Endpoint::Classify, 200, body)
}

/// A follower rejects direct writes: only the primary's replicated
/// stream may mutate it, or the router's promotion would race client
/// writes it never acked.
fn not_primary(endpoint: Endpoint) -> Routed {
    json(endpoint, 503, error_json("not primary"))
}

/// `POST /v1/visit`: one FORCUM training step against the embedded world.
/// Body: `{"host": h, "path"?: "/", "cookie"?: "a=1; b=2"}`.
fn visit(shared: &Shared, body: &[u8]) -> Routed {
    if shared.cluster.role() == Role::Follower {
        return not_primary(Endpoint::Visit);
    }
    let parsed = match parse_json_body(body) {
        Ok(json) => json,
        Err(msg) => return bad_request(Endpoint::Visit, msg),
    };
    let host = match parsed.get("host").and_then(Json::as_str) {
        Some(host) => host,
        None => return bad_request(Endpoint::Visit, "body needs a string field host"),
    };
    if !shared.world.contains(host) {
        // Count the rejection: crawlers watch cp_site_derive_total
        // {result="unknown"} to notice they are probing a stale frontier.
        shared.metrics.site_derive.inc("unknown");
        return json(Endpoint::Visit, 404, error_json("unknown host"));
    }
    let path = parsed.get("path").and_then(Json::as_str).unwrap_or("/");
    let cookie = parsed.get("cookie").and_then(Json::as_str);
    // Plan → journal → apply → respond. The WAL append inside `transact`
    // is the ack barrier: if it fails, no state changed and the client
    // sees 503 — never an acked-but-lost visit.
    let outcome = shared.store.transact(
        host,
        |entry| match shared.world.plan_visit(
            entry,
            host,
            path,
            cookie,
            &shared.picker,
            &shared.cache,
            &shared.metrics,
        ) {
            Some((event, plan)) => (Some(event), Some(plan)),
            None => (None, None),
        },
        |entry, marked_now, plan: Option<VisitPlan>| plan.map(|p| p.finish(entry, marked_now)),
    );
    let outcome = match outcome {
        Ok(outcome) => outcome.expect("host existence checked above"),
        Err(e) => {
            eprintln!("cp-serve: visit to {host} not journaled: {e}");
            return json(Endpoint::Visit, 503, error_json("durability unavailable"));
        }
    };
    if let Some(record) = &outcome.record {
        let verdict = if record.decision.cookies_caused_difference { "useful" } else { "noise" };
        shared.metrics.decisions.inc(verdict);
    }
    json(Endpoint::Visit, 200, outcome.to_compact_json().into_bytes())
}

/// `POST /v1/expire`: drop usefulness marks whose TTL decayed and restart
/// the site's training — the crawler's re-verification entry point. Body:
/// `{"host": h, "cookies": ["name", ...]}`. Only cookies currently marked
/// expire; when none are, no event is journaled and `expired` is 0.
fn expire(shared: &Shared, body: &[u8]) -> Routed {
    if shared.cluster.role() == Role::Follower {
        return not_primary(Endpoint::Expire);
    }
    let parsed = match parse_json_body(body) {
        Ok(json) => json,
        Err(msg) => return bad_request(Endpoint::Expire, msg),
    };
    let host = match parsed.get("host").and_then(Json::as_str) {
        Some(host) => host,
        None => return bad_request(Endpoint::Expire, "body needs a string field host"),
    };
    let cookies: Vec<String> = match parsed.get("cookies").and_then(Json::as_array) {
        Some(items) => items.iter().filter_map(Json::as_str).map(str::to_string).collect(),
        None => return bad_request(Endpoint::Expire, "body needs an array field cookies"),
    };
    if !shared.world.contains(host) {
        shared.metrics.site_derive.inc("unknown");
        return json(Endpoint::Expire, 404, error_json("unknown host"));
    }
    let result = shared.store.transact(
        host,
        |entry| {
            let expired: Vec<String> =
                cookies.iter().filter(|c| entry.marked.contains(c)).cloned().collect();
            if expired.is_empty() {
                (None, 0usize)
            } else {
                let n = expired.len();
                let event = crate::wal::VisitEvent {
                    host: host.to_string(),
                    observed: expired,
                    kind: crate::wal::EventKind::Expire,
                };
                (Some(event), n)
            }
        },
        |entry, _, expired: usize| {
            Json::object()
                .set("host", host)
                .set("expired", expired)
                .set("marked_total", entry.marked.len())
                .set("training_active", entry.forcum.is_active(host))
        },
    );
    match result {
        Ok(body) => json(Endpoint::Expire, 200, body.to_compact().into_bytes()),
        Err(e) => {
            eprintln!("cp-serve: expire on {host} not journaled: {e}");
            json(Endpoint::Expire, 503, error_json("durability unavailable"))
        }
    }
}

/// `POST /v1/repl/lead`: become the primary of a new generation — the
/// router's promotion entry point. Body:
/// `{"generation": N, "followers": ["host:port", ...]}`. Handshakes every
/// follower before any role change; a stale generation (locally or at any
/// follower) is a 409 and the node's role is untouched.
fn repl_lead(shared: &Shared, body: &[u8]) -> Routed {
    let parsed = match parse_json_body(body) {
        Ok(json) => json,
        Err(msg) => return bad_request(Endpoint::Repl, msg),
    };
    let generation = match parsed.get("generation").and_then(Json::as_f64) {
        Some(g) if g >= 1.0 => g as u64,
        _ => return bad_request(Endpoint::Repl, "body needs a positive integer generation"),
    };
    let followers: Vec<String> = match parsed.get("followers").and_then(Json::as_array) {
        Some(items) => items.iter().filter_map(Json::as_str).map(str::to_string).collect(),
        None => return bad_request(Endpoint::Repl, "body needs an array field followers"),
    };
    match shared.lead(generation, &followers) {
        Ok(()) => {
            let body = Json::object()
                .set("role", shared.cluster.role().label())
                .set("generation", generation)
                .set("followers", followers.len())
                .set("ack", shared.repl_ack.label())
                .to_compact()
                .into_bytes();
            json(Endpoint::Repl, 200, body)
        }
        Err(e) if e.to_string().contains("fenced") => {
            json(Endpoint::Repl, 409, error_json(&e.to_string()))
        }
        Err(e) => json(Endpoint::Repl, 503, error_json(&format!("cannot lead: {e}"))),
    }
}

/// Default and maximum page sizes for `GET /v1/sites`. The cap is what
/// makes the route safe on a million-host world: no request enumerates
/// more than one bounded page.
const SITES_PAGE_DEFAULT: usize = 50;
const SITES_PAGE_MAX: usize = 500;

/// `GET /v1/sites[?after=<host>&limit=<n>]`: keyset pagination over the
/// world's enumerable hosts in canonical order. `after` is the last host
/// of the previous page; the response's `next` is the cursor for the
/// following page (`null` once exhausted).
fn sites_list(shared: &Shared, query: Option<&str>) -> Routed {
    let mut after: Option<&str> = None;
    let mut limit = SITES_PAGE_DEFAULT;
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("after", v)) => after = Some(v),
            Some(("limit", v)) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => limit = n.min(SITES_PAGE_MAX),
                _ => return bad_request(Endpoint::Sites, "limit must be a positive integer"),
            },
            _ => return bad_request(Endpoint::Sites, "unknown query parameter"),
        }
    }
    // Fetch one host beyond the page so `more` is exact: clients never
    // need a sentinel extra request to discover they hit the last page.
    let Some(mut hosts) = shared.world.hosts_after(after, limit + 1) else {
        return bad_request(Endpoint::Sites, "unknown after cursor");
    };
    let more = hosts.len() > limit;
    hosts.truncate(limit);
    let next = if more { hosts.last().cloned() } else { None };
    let body = Json::object()
        .set("total", shared.world.host_count())
        .set("count", hosts.len())
        .set("more", more)
        .set("next", next.map_or(Json::Null, Json::from))
        .set("hosts", hosts)
        .to_compact()
        .into_bytes();
    json(Endpoint::Sites, 200, body)
}

/// `GET /v1/sites/{host}`: the training summary for a visited site. The
/// store answers it under its map lock's read side alone, so it never
/// waits behind a visit's WAL append or replication ship.
fn site_summary(shared: &Shared, host: &str) -> Routed {
    match shared.store.summary(host) {
        Some(summary) => json(Endpoint::Sites, 200, summary.to_json().to_compact().into_bytes()),
        None if shared.world.contains(host) => {
            json(Endpoint::Sites, 404, error_json("site not yet visited"))
        }
        None => json(Endpoint::Sites, 404, error_json("unknown host")),
    }
}

fn parse_json_body(body: &[u8]) -> Result<Json, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8")?;
    Json::parse(text).map_err(|_| "body is not valid json")
}

/// A JSON response.
pub(crate) fn json(endpoint: Endpoint, status: u16, body: Vec<u8>) -> Routed {
    (endpoint, status, Cow::Borrowed("application/json"), body)
}

fn bad_request(endpoint: Endpoint, msg: &str) -> Routed {
    json(endpoint, 400, error_json(msg))
}

pub(crate) fn error_json(msg: &str) -> Vec<u8> {
    Json::object().set("error", msg).to_compact().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{write_request, HttpConn};

    fn request(
        addr: SocketAddr,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> crate::http::HttpResponse {
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = HttpConn::new(stream, Limits::default());
        write_request(conn.stream_mut(), method, target, "127.0.0.1", body).unwrap();
        conn.read_response().unwrap()
    }

    fn test_server() -> ServerHandle {
        start(ServeConfig {
            workers: 2,
            timeout: Duration::from_millis(2_000),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn healthz_and_metrics() {
        let server = test_server();
        let resp = request(server.addr(), "GET", "/healthz", b"");
        assert_eq!(resp.status, 200);
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
        let resp = request(server.addr(), "GET", "/metrics", b"");
        assert_eq!(resp.status, 200);
        assert!(resp.body_string().contains("cp_requests_total{endpoint=\"healthz\"} 1"));
    }

    #[test]
    fn visit_then_site_summary() {
        let server = test_server();
        let body = br#"{"host":"news1.example","path":"/"}"#;
        let resp = request(server.addr(), "POST", "/v1/visit", body);
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("host").and_then(Json::as_str), Some("news1.example"));
        let resp = request(server.addr(), "GET", "/v1/sites/news1.example", b"");
        assert_eq!(resp.status, 200);
        let resp = request(server.addr(), "GET", "/v1/sites/never-visited.example", b"");
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn classify_round_trip() {
        let server = test_server();
        let payload = Json::object()
            .set("regular", "<html><body><p>with pref</p><div>extra</div></body></html>")
            .set("hidden", "<html><body><p>plain</p></body></html>")
            .to_compact();
        let resp = request(server.addr(), "POST", "/v1/classify", payload.as_bytes());
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let json = Json::parse(&resp.body_string()).unwrap();
        assert!(json.get("cookies_caused_difference").and_then(Json::as_bool).is_some());
        assert!(json.get("tree_sim").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn malformed_and_unknown() {
        let server = test_server();
        assert_eq!(request(server.addr(), "POST", "/v1/classify", b"not json").status, 400);
        assert_eq!(request(server.addr(), "POST", "/v1/visit", b"{}").status, 400);
        assert_eq!(
            request(server.addr(), "POST", "/v1/visit", br#"{"host":"nope.example"}"#).status,
            404
        );
        assert_eq!(request(server.addr(), "GET", "/nope", b"").status, 404);
    }

    #[test]
    fn close_causes_are_accounted() {
        let server = test_server();
        // A normal keep-alive request, then the client hangs up → "client".
        {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut conn = HttpConn::new(stream, Limits::default());
            write_request(conn.stream_mut(), "GET", "/healthz", "127.0.0.1", b"").unwrap();
            assert_eq!(conn.read_response().unwrap().status, 200);
        }
        // A malformed request → 400 and a close with cause "error".
        {
            use std::io::Write as _;
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut conn = HttpConn::new(stream, Limits::default());
            conn.stream_mut().write_all(b"BOGUS\r\n\r\n").unwrap();
            assert_eq!(conn.read_response().unwrap().status, 400);
        }
        // The shard observes both closes asynchronously; poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (client, error) = (
                server.metrics().conn_closed.get("client"),
                server.metrics().conn_closed.get("error"),
            );
            if client >= 1 && error >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "close causes not accounted: client={client} error={error}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn chaos_rate_defers_some_visits() {
        let server = start(ServeConfig {
            workers: 2,
            chaos_fault_rate: 0.9,
            timeout: Duration::from_millis(2_000),
            ..ServeConfig::default()
        })
        .unwrap();
        // For every site: an initial visit collects the jar, then two
        // cookie-bearing visits probe. At a 90% fault rate with 2 retries
        // each probe defers with p≈0.46, so across ~60 probes the seeded
        // fault stream is certain to defer some.
        let hosts: Vec<String> =
            EmbeddedWorld::new(7).hosts().iter().map(|h| h.to_string()).collect();
        let mut deferred = 0u64;
        for host in &hosts {
            let body = Json::object().set("host", host.as_str()).to_compact();
            let first = request(server.addr(), "POST", "/v1/visit", body.as_bytes());
            let json = Json::parse(&first.body_string()).unwrap();
            let jar: Vec<String> = json
                .get("set_cookies")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect();
            for i in 1..=2 {
                let body = Json::object()
                    .set("host", host.as_str())
                    .set("path", format!("/page/{i}"))
                    .set("cookie", jar.join("; "))
                    .to_compact();
                let resp = request(server.addr(), "POST", "/v1/visit", body.as_bytes());
                assert_eq!(resp.status, 200, "{}", resp.body_string());
                let json = Json::parse(&resp.body_string()).unwrap();
                if json.get("inconclusive").and_then(Json::as_str).is_some() {
                    assert_eq!(json.get("probed").and_then(Json::as_bool), Some(false));
                    deferred += 1;
                }
            }
        }
        assert!(deferred > 0, "90% fault rate over ~60 probes must defer at least one");
        let metrics = request(server.addr(), "GET", "/metrics", b"").body_string();
        let total: u64 = crate::metrics::INCONCLUSIVE_REASONS
            .iter()
            .filter_map(|r| {
                let series = format!("cp_probe_inconclusive_total{{reason=\"{r}\"}}");
                crate::metrics::scrape_counter(&metrics, &series)
            })
            .sum();
        assert_eq!(total, deferred, "deferrals and inconclusive counters agree");
    }

    #[test]
    fn expire_endpoint_drops_marks_and_restarts_training() {
        let server = test_server();
        assert_eq!(
            request(
                server.addr(),
                "POST",
                "/v1/expire",
                br#"{"host":"nope.example","cookies":[]}"#
            )
            .status,
            404
        );
        assert_eq!(request(server.addr(), "POST", "/v1/expire", b"{}").status, 400);
        assert_eq!(
            request(server.addr(), "POST", "/v1/expire", br#"{"host":"news1.example"}"#).status,
            400,
            "cookies array is required"
        );
        // Train news1 far enough to plant a mark directly, then expire it.
        let body = br#"{"host":"news1.example","path":"/"}"#;
        assert_eq!(request(server.addr(), "POST", "/v1/visit", body).status, 200);
        server.shared.store.with_entry("news1.example", |e| {
            e.marked.insert("sid");
        });
        let resp = request(
            server.addr(),
            "POST",
            "/v1/expire",
            br#"{"host":"news1.example","cookies":["sid","never-marked"]}"#,
        );
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("expired").and_then(Json::as_f64), Some(1.0));
        assert_eq!(json.get("marked_total").and_then(Json::as_f64), Some(0.0));
        assert_eq!(json.get("training_active").and_then(Json::as_bool), Some(true));
        // A second expiry of the same cookie is a no-op.
        let resp = request(
            server.addr(),
            "POST",
            "/v1/expire",
            br#"{"host":"news1.example","cookies":["sid"]}"#,
        );
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("expired").and_then(Json::as_f64), Some(0.0));
        let metrics = request(server.addr(), "GET", "/metrics", b"").body_string();
        assert_eq!(
            crate::metrics::scrape_counter(&metrics, "cp_requests_total{endpoint=\"expire\"}"),
            Some(5)
        );
    }

    #[test]
    fn sites_listing_reports_the_more_hint() {
        let server = test_server();
        // 30 Table-1 hosts: a 25-page has more, its second page does not.
        let resp = request(server.addr(), "GET", "/v1/sites?limit=25", b"");
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("more").and_then(Json::as_bool), Some(true));
        let next = json.get("next").and_then(Json::as_str).expect("cursor present").to_string();
        let resp = request(server.addr(), "GET", &format!("/v1/sites?limit=25&after={next}"), b"");
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("more").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("next"), Some(&Json::Null));
        assert_eq!(json.get("count").and_then(Json::as_f64), Some(5.0));
        // An exact-boundary page still reports more=false on the last page.
        let resp = request(server.addr(), "GET", "/v1/sites?limit=30", b"");
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("more").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("next"), Some(&Json::Null));
    }

    #[test]
    fn marks_endpoint_and_healthz_durability_fields() {
        let server = test_server();
        let resp = request(server.addr(), "GET", "/v1/marks", b"");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_string(), "", "fresh store has no marks");
        let resp = request(server.addr(), "GET", "/healthz", b"");
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("durable").and_then(Json::as_bool), Some(false));
        assert!(json.get("recovery").is_none(), "in-memory servers report no recovery");
    }

    #[test]
    fn durable_server_checkpoints_on_shutdown_and_recovers() {
        let dir = std::env::temp_dir().join(format!("cp-serve-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = |dir: &PathBuf| ServeConfig {
            workers: 2,
            data_dir: Some(dir.clone()),
            timeout: Duration::from_millis(2_000),
            ..ServeConfig::default()
        };
        let mut server = start(config(&dir)).unwrap();
        assert_eq!(server.recovery().records_replayed, 0);
        assert_eq!(server.recovery().snapshots_loaded, 0, "first start has nothing on disk");
        let body = br#"{"host":"news1.example","path":"/"}"#;
        assert_eq!(request(server.addr(), "POST", "/v1/visit", body).status, 200);
        server.shutdown();
        server.wait();
        drop(server);

        let server = start(config(&dir)).unwrap();
        let recovery = server.recovery();
        assert_eq!(recovery.records_replayed, 0, "clean shutdown → snapshot covers the WAL");
        assert_eq!(recovery.snapshots_loaded, ServeConfig::default().shards);
        let resp = request(server.addr(), "GET", "/healthz", b"");
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("sites_trained").and_then(Json::as_f64), Some(1.0));
        let recovery_json = json.get("recovery").expect("durable healthz reports recovery");
        assert_eq!(recovery_json.get("records_replayed").and_then(Json::as_f64), Some(0.0));
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = test_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut conn = HttpConn::new(stream, Limits::default());
        // Three requests in one burst: the serving path must answer all
        // of them, in order, without waiting for one response to be read
        // before parsing the next request.
        let mut batch = Vec::new();
        write_request(&mut batch, "GET", "/healthz", "127.0.0.1", b"").unwrap();
        write_request(&mut batch, "POST", "/v1/visit", "127.0.0.1", br#"{"host":"news1.example"}"#)
            .unwrap();
        write_request(&mut batch, "GET", "/v1/sites/news1.example", "127.0.0.1", b"").unwrap();
        use std::io::Write as _;
        conn.stream_mut().write_all(&batch).unwrap();
        let first = conn.read_response().unwrap();
        assert_eq!(first.status, 200);
        assert!(first.body_string().contains("\"status\":\"ok\""));
        let second = conn.read_response().unwrap();
        assert_eq!(second.status, 200);
        assert!(second.body_string().contains("news1.example"));
        let third = conn.read_response().unwrap();
        assert_eq!(third.status, 200, "{}", third.body_string());
    }

    #[test]
    fn event_loop_counts_wakeups_and_exposes_ready_gauge() {
        let server = test_server();
        assert_eq!(request(server.addr(), "GET", "/healthz", b"").status, 200);
        let text = request(server.addr(), "GET", "/metrics", b"").body_string();
        let wakeups =
            crate::metrics::scrape_counter(&text, "cp_event_loop_wakeups_total").unwrap_or(0);
        assert!(wakeups > 0, "serving a request implies at least one wakeup:\n{text}");
        assert!(text.contains("cp_ready_conns"), "{text}");
    }

    #[test]
    fn replicated_pair_mirrors_marks_and_fences_follower_writes() {
        // Follower first (its replication listener must be up), then a
        // primary led at startup with --repl-ack all semantics.
        let follower = start(ServeConfig {
            workers: 2,
            repl_port: Some(0),
            timeout: Duration::from_millis(2_000),
            ..ServeConfig::default()
        })
        .unwrap();
        let follower_repl = follower.repl_addr().expect("repl listener bound").to_string();
        let primary = start(ServeConfig {
            workers: 2,
            repl_followers: vec![follower_repl],
            repl_ack: ReplAckPolicy::All,
            timeout: Duration::from_millis(2_000),
            ..ServeConfig::default()
        })
        .unwrap();
        // Train S6 — the Table-1 site with genuinely useful preference
        // cookies — accumulating the jar across visits so the probes see
        // the cookies they are judging.
        let host = cp_webworld::table1_population(7)[5].domain.clone();
        let mut jar: Vec<String> = Vec::new();
        for i in 0..8 {
            let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
            let mut body = Json::object().set("host", host.as_str()).set("path", path);
            if !jar.is_empty() {
                body = body.set("cookie", jar.join("; "));
            }
            let resp = request(primary.addr(), "POST", "/v1/visit", body.to_compact().as_bytes());
            assert_eq!(resp.status, 200, "every acked visit is on the follower too");
            let json = Json::parse(&resp.body_string()).unwrap();
            for cookie in json.get("set_cookies").and_then(Json::as_array).into_iter().flatten() {
                let cookie = cookie.as_str().unwrap().to_string();
                if !jar.contains(&cookie) {
                    jar.push(cookie);
                }
            }
        }
        // Acks were synchronous (policy all): the follower already holds
        // every record the primary acked.
        let primary_marks = request(primary.addr(), "GET", "/v1/marks", b"").body_string();
        let follower_marks = request(follower.addr(), "GET", "/v1/marks", b"").body_string();
        assert!(!primary_marks.is_empty(), "training must have marked something");
        assert_eq!(primary_marks, follower_marks, "acked marks are on the follower");
        // Roles, generations, and lag in healthz.
        let health =
            Json::parse(&request(primary.addr(), "GET", "/healthz", b"").body_string()).unwrap();
        assert_eq!(health.get("role").and_then(Json::as_str), Some("primary"));
        assert_eq!(health.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(health.get("replication_lag_records").and_then(Json::as_f64), Some(0.0));
        let health =
            Json::parse(&request(follower.addr(), "GET", "/healthz", b"").body_string()).unwrap();
        assert_eq!(health.get("role").and_then(Json::as_str), Some("follower"));
        assert_eq!(health.get("generation").and_then(Json::as_f64), Some(1.0));
        assert!(health.get("replication_applied_seq").and_then(Json::as_f64).unwrap() >= 1.0);
        // Direct writes to the follower are fenced.
        let resp = request(follower.addr(), "POST", "/v1/visit", br#"{"host":"news1.example"}"#);
        assert_eq!(resp.status, 503);
        assert!(resp.body_string().contains("not primary"));
        let resp = request(
            follower.addr(),
            "POST",
            "/v1/expire",
            br#"{"host":"news1.example","cookies":["sid"]}"#,
        );
        assert_eq!(resp.status, 503);
        // Replication metrics rendered on the primary.
        let metrics = request(primary.addr(), "GET", "/metrics", b"").body_string();
        let shipped =
            crate::metrics::scrape_counter(&metrics, "cp_repl_records_total{peer=\"0\"}").unwrap();
        assert!(shipped >= 1, "{shipped} records shipped");
        assert!(metrics.contains("cp_repl_ack_micros_count"));
    }

    #[test]
    fn lead_endpoint_fences_stale_generations() {
        let server = test_server();
        // Leading with no followers is legal (required acks 0).
        let resp =
            request(server.addr(), "POST", "/v1/repl/lead", br#"{"generation":5,"followers":[]}"#);
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let json = Json::parse(&resp.body_string()).unwrap();
        assert_eq!(json.get("role").and_then(Json::as_str), Some("primary"));
        // An older generation is fenced with 409 and no state change.
        let resp =
            request(server.addr(), "POST", "/v1/repl/lead", br#"{"generation":3,"followers":[]}"#);
        assert_eq!(resp.status, 409, "{}", resp.body_string());
        assert!(resp.body_string().contains("fenced"));
        let health =
            Json::parse(&request(server.addr(), "GET", "/healthz", b"").body_string()).unwrap();
        assert_eq!(health.get("generation").and_then(Json::as_f64), Some(5.0));
        assert_eq!(health.get("role").and_then(Json::as_str), Some("primary"));
        // Malformed bodies are 400s.
        assert_eq!(request(server.addr(), "POST", "/v1/repl/lead", b"{}").status, 400);
        assert_eq!(
            request(server.addr(), "POST", "/v1/repl/lead", br#"{"generation":0,"followers":[]}"#)
                .status,
            400
        );
    }

    #[test]
    fn graceful_shutdown_via_endpoint() {
        let mut server = test_server();
        let resp = request(server.addr(), "POST", "/v1/shutdown", b"");
        assert_eq!(resp.status, 200);
        server.wait(); // must return: shards woken and drained
        assert!(server.shared.shutting_down.load(Ordering::SeqCst));
    }
}
