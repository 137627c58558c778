//! cp-route — the thin tier in front of a replicated cp-serve cluster.
//!
//! The router owns cluster membership so the nodes do not have to: it
//! leads backend 0 at generation 1 on startup, heartbeats every backend's
//! `/healthz`, and when the primary misses [`RouterConfig::miss_threshold`]
//! consecutive heartbeats it promotes the **most caught-up** alive
//! follower (highest `replication_applied_seq`) at `generation + 1` via
//! `POST /v1/repl/lead`. Because the primary only acked writes a quorum
//! of followers had applied, the most caught-up follower holds every
//! acked record — promotion loses nothing (DESIGN.md §15).
//!
//! Request routing is deliberately simple:
//!
//! * writes (`/v1/visit`, `/v1/expire`), `/v1/marks`, `/v1/sites`, and
//!   anything unrecognized proxy to the current primary;
//! * `GET /v1/sites/{host}` rides a 64-points-per-backend consistent-hash
//!   ring over the host, falling forward to the next alive backend;
//! * `POST /v1/classify` rides the same ring keyed on the body bytes
//!   (classify is stateless, so any backend may serve it);
//! * `/healthz`, `/metrics`, and `/v1/shutdown` are the router's own.
//!
//! A proxy failure is answered `503 backend unavailable` — the client
//! retries through its normal budget and lands on the promoted primary
//! once the heartbeat loop has fenced the dead one.
//!
//! The router serves on the node's event loop: `workers` shards, plus the
//! one heartbeat thread. Connection placement, the `workers + 128`
//! admission cap with its `503 {"error":"server overloaded"}` answer, the
//! 5 s connection timeout, parse errors, close causes and the loop's
//! metrics are the node's own. Each shard keeps one keep-alive client per
//! backend it has proxied to, and a proxied request holds its shard for
//! one upstream round trip.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cp_runtime::json::Json;
use cp_runtime::sync::Mutex;

use crate::eventloop::{Handler, Routed};
use crate::http::HttpRequest;
use crate::loadgen::Client;
use crate::metrics::{Endpoint, ServiceMetrics};
use crate::replication::ReplAckPolicy;
use crate::server::{error_json, json, ServeConfig};

/// Virtual points each backend contributes to the consistent-hash ring —
/// enough to keep the load split within a few percent of even across a
/// handful of backends.
const RING_POINTS: usize = 64;

/// Attempts (100 ms apart) to lead backend 0 on startup before giving up —
/// covers backends that are still binding their replication listeners.
const LEAD_ATTEMPTS: u32 = 50;

/// One backend's two addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendAddr {
    /// HTTP serving address, `host:port`.
    pub http: String,
    /// Replication listener address, `host:port` — what a new primary
    /// tells its peers to stream to.
    pub repl: String,
}

impl BackendAddr {
    /// Parses a `HTTP_ADDR,REPL_ADDR` spec (the CLI's `--backend` value).
    pub fn parse(spec: &str) -> Result<BackendAddr, String> {
        let (http, repl) = spec
            .split_once(',')
            .ok_or_else(|| format!("backend spec {spec:?} must be HTTP_ADDR,REPL_ADDR"))?;
        let backend = BackendAddr { http: http.to_string(), repl: repl.to_string() };
        if backend.http_parts().is_none() || split_host_port(repl).is_none() {
            return Err(format!("backend spec {spec:?} needs host:port addresses"));
        }
        Ok(backend)
    }

    /// The HTTP address split for a client connect; `None` when malformed.
    fn http_parts(&self) -> Option<(&str, u16)> {
        split_host_port(&self.http)
    }
}

fn split_host_port(addr: &str) -> Option<(&str, u16)> {
    let (host, port) = addr.rsplit_once(':')?;
    let port: u16 = port.parse().ok()?;
    if host.is_empty() {
        return None;
    }
    Some((host, port))
}

/// Router construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` picks a free port.
    pub port: u16,
    /// Event-loop shards serving client connections, as
    /// [`ServeConfig::workers`] counts them for a node.
    pub workers: usize,
    /// The cluster, in lead-preference order: backend 0 is the initial
    /// primary, the rest its followers.
    pub backends: Vec<BackendAddr>,
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before a backend is declared dead.
    pub miss_threshold: u32,
    /// Ack policy the promoted primary applies (informational — the nodes
    /// enforce it; the router reports it in `/healthz`).
    pub ack: ReplAckPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            backends: Vec::new(),
            heartbeat: Duration::from_millis(250),
            miss_threshold: 3,
            ack: ReplAckPolicy::default(),
        }
    }
}

/// What the heartbeat loop knows about one backend.
#[derive(Debug, Default)]
struct BackendState {
    alive: AtomicBool,
    /// Consecutive failed heartbeats.
    misses: AtomicU64,
    /// `replication_applied_seq` from the last good heartbeat — the
    /// promotion tiebreaker.
    applied_seq: AtomicU64,
    /// `replication_resyncs` from the last good heartbeat — completed
    /// follower resyncs this backend has performed as primary.
    resyncs: AtomicU64,
    /// `replication_ack_stall_max_micros` from the last good heartbeat —
    /// the worst single-ship stall this backend has seen.
    ack_stall_micros: AtomicU64,
}

struct RouterShared {
    backends: Vec<BackendAddr>,
    states: Vec<BackendState>,
    /// Sorted `(point_hash, backend_index)` pairs.
    ring: Vec<(u64, usize)>,
    primary: AtomicUsize,
    generation: AtomicU64,
    ack: ReplAckPolicy,
    metrics: Arc<ServiceMetrics>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    /// Wall time from promotion to the first proxied 2xx write — how long
    /// writers were dark. `Some` between those two events.
    promoted_at: Mutex<Option<Instant>>,
    last_blackout_ms: AtomicU64,
    /// `replication_applied_seq` of the follower the last promotion chose
    /// — the records replay never had to re-send.
    last_promotion_seq: AtomicU64,
}

/// Keep-alive backend clients by backend index. Each shard and the
/// heartbeat loop keep their own; a failed backend's client is dropped so
/// the next request dials fresh.
type Clients = HashMap<usize, Client>;

impl Handler for RouterShared {
    type Shard = Clients;

    fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn route(&self, clients: &mut Clients, request: &HttpRequest) -> Routed {
        route(self, clients, request)
    }
}

impl RouterShared {
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    fn alive(&self, idx: usize) -> bool {
        self.states[idx].alive.load(Ordering::Acquire)
    }
}

/// A running router. Dropping the handle shuts it down.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    /// The event-loop shards and the heartbeat loop.
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.addr.port()
    }

    /// The router's metric registry.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Requests a graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the shards and the heartbeat loop have exited.
    pub fn wait(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

/// Binds the router, leads backend 0 at generation 1, and starts the
/// heartbeat thread and the event-loop shards. Fails when no backend
/// accepts the initial lead within `LEAD_ATTEMPTS` tries.
pub fn start_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(std::io::Error::other("router needs at least one backend"));
    }
    for backend in &config.backends {
        if backend.http_parts().is_none() || split_host_port(&backend.repl).is_none() {
            return Err(std::io::Error::other(format!(
                "backend {:?} needs host:port addresses",
                backend.http
            )));
        }
    }
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(RouterShared {
        states: config.backends.iter().map(|_| BackendState::default()).collect(),
        ring: build_ring(&config.backends),
        backends: config.backends,
        primary: AtomicUsize::new(0),
        generation: AtomicU64::new(0),
        ack: config.ack,
        metrics: Arc::new(ServiceMetrics::new()),
        shutting_down: AtomicBool::new(false),
        addr,
        promoted_at: Mutex::new(None),
        last_blackout_ms: AtomicU64::new(0),
        last_promotion_seq: AtomicU64::new(0),
    });
    // Optimistic until the first heartbeat pass says otherwise.
    for state in &shared.states {
        state.alive.store(true, Ordering::Release);
    }
    lead_initial(&shared)?;

    let heartbeat = {
        let shared = Arc::clone(&shared);
        let interval = config.heartbeat.max(Duration::from_millis(10));
        let threshold = config.miss_threshold.max(1) as u64;
        std::thread::spawn(move || heartbeat_loop(&shared, interval, threshold))
    };
    // From here on, dropping the handle — on the error return below too —
    // shuts down and joins whatever has started.
    let mut handle = RouterHandle { shared, threads: vec![heartbeat] };
    let serve = ServeConfig { workers: config.workers, ..ServeConfig::default() };
    handle.threads.extend(crate::eventloop::spawn(&handle.shared, &listener, &serve)?);
    Ok(handle)
}

/// Leads backend 0 at generation 1 with every other backend as a
/// follower, retrying while the cluster is still coming up.
fn lead_initial(shared: &Arc<RouterShared>) -> std::io::Result<()> {
    let followers: Vec<String> = shared.backends.iter().skip(1).map(|b| b.repl.clone()).collect();
    let body = Json::object().set("generation", 1u64).set("followers", followers).to_compact();
    let (host, port) = shared.backends[0].http_parts().expect("validated in start_router");
    let mut last = String::from("no attempt made");
    for _ in 0..LEAD_ATTEMPTS {
        let mut client = Client::with_policy(host, port, 0, Duration::from_millis(5));
        match client.request("POST", "/v1/repl/lead", body.as_bytes()) {
            Ok(resp) if resp.status == 200 => {
                shared.generation.store(1, Ordering::Release);
                shared.primary.store(0, Ordering::Release);
                return Ok(());
            }
            Ok(resp) => last = format!("status {}: {}", resp.status, resp.body_string()),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(std::io::Error::other(format!(
        "backend {} refused the initial lead: {last}",
        shared.backends[0].http
    )))
}

/// 64-bit FNV-1a with an avalanche finalizer. Bare FNV clusters the high
/// bits for short, similar inputs (`addr#0`, `addr#1`, …), and the ring's
/// ordering is dominated by high bits — the finalizer spreads the points.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    hash ^ (hash >> 33)
}

fn build_ring(backends: &[BackendAddr]) -> Vec<(u64, usize)> {
    let mut ring: Vec<(u64, usize)> = Vec::with_capacity(backends.len() * RING_POINTS);
    for (idx, backend) in backends.iter().enumerate() {
        for point in 0..RING_POINTS {
            ring.push((ring_hash(format!("{}#{point}", backend.http).as_bytes()), idx));
        }
    }
    ring.sort_unstable();
    ring
}

/// Walks the ring clockwise from the key's hash to the first alive
/// backend that is not `skip`; `None` when there is none.
fn ring_walk(
    ring: &[(u64, usize)],
    states: &[BackendState],
    key: &[u8],
    skip: Option<usize>,
) -> Option<usize> {
    let hash = ring_hash(key);
    let start = ring.partition_point(|(point, _)| *point < hash);
    (0..ring.len())
        .map(|step| ring[(start + step) % ring.len()].1)
        .find(|&idx| Some(idx) != skip && states[idx].alive.load(Ordering::Acquire))
}

/// The first alive backend clockwise from the key's hash; `fallback` (the
/// primary) when everything is down.
fn ring_route(
    ring: &[(u64, usize)],
    states: &[BackendState],
    key: &[u8],
    fallback: usize,
) -> usize {
    ring_walk(ring, states, key, None).unwrap_or(fallback)
}

/// Polls every backend's `/healthz`, tallies misses, and promotes when the
/// primary goes dark.
fn heartbeat_loop(shared: &Arc<RouterShared>, interval: Duration, threshold: u64) {
    let mut clients = Clients::new();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        for idx in 0..shared.backends.len() {
            let ok = probe_backend(shared, &mut clients, idx);
            let state = &shared.states[idx];
            if ok {
                state.misses.store(0, Ordering::Release);
                state.alive.store(true, Ordering::Release);
            } else {
                clients.remove(&idx);
                let misses = state.misses.fetch_add(1, Ordering::AcqRel) + 1;
                if misses >= threshold {
                    state.alive.store(false, Ordering::Release);
                }
            }
        }
        // Roll the per-backend resync observations up into the router's
        // own exposition: total resyncs across the cluster, worst stall.
        let resyncs: u64 = shared.states.iter().map(|s| s.resyncs.load(Ordering::Acquire)).sum();
        let stall = shared.states.iter().map(|s| s.ack_stall_micros.load(Ordering::Acquire)).max();
        shared.metrics.route_resyncs_observed.set(resyncs.min(i64::MAX as u64) as i64);
        shared
            .metrics
            .route_max_ack_stall_micros
            .set_max(stall.unwrap_or(0).min(i64::MAX as u64) as i64);
        let primary = shared.primary.load(Ordering::Acquire);
        if !shared.alive(primary) {
            try_promote(shared, &mut clients);
        }
        std::thread::sleep(interval);
    }
}

/// One heartbeat: fetches a backend's `/healthz` and records its applied
/// sequence and witnessed generation. `false` on any failure.
fn probe_backend(shared: &Arc<RouterShared>, clients: &mut Clients, idx: usize) -> bool {
    let Some((host, port)) = shared.backends[idx].http_parts() else { return false };
    let client = clients
        .entry(idx)
        .or_insert_with(|| Client::with_policy(host, port, 1, Duration::from_millis(2)));
    let Ok(resp) = client.request("GET", "/healthz", b"") else { return false };
    if resp.status != 200 {
        return false;
    }
    let Ok(health) = Json::parse(&resp.body_string()) else { return false };
    if let Some(seq) = health.get("replication_applied_seq").and_then(Json::as_f64) {
        shared.states[idx].applied_seq.store(seq as u64, Ordering::Release);
    }
    if let Some(resyncs) = health.get("replication_resyncs").and_then(Json::as_f64) {
        shared.states[idx].resyncs.store(resyncs as u64, Ordering::Release);
    }
    if let Some(stall) = health.get("replication_ack_stall_max_micros").and_then(Json::as_f64) {
        shared.states[idx].ack_stall_micros.store(stall.max(0.0) as u64, Ordering::Release);
    }
    if let Some(generation) = health.get("generation").and_then(Json::as_f64) {
        shared.generation.fetch_max(generation as u64, Ordering::AcqRel);
    }
    true
}

/// Promotes the alive backend with the highest applied sequence at
/// `generation + 1`. A failed lead leaves everything unchanged — the next
/// heartbeat tick retries.
fn try_promote(shared: &Arc<RouterShared>, clients: &mut Clients) {
    let candidate = (0..shared.backends.len())
        .filter(|&idx| shared.alive(idx))
        .max_by_key(|&idx| shared.states[idx].applied_seq.load(Ordering::Acquire));
    let Some(new_primary) = candidate else { return };
    let generation = shared.generation.load(Ordering::Acquire) + 1;
    let followers: Vec<String> = (0..shared.backends.len())
        .filter(|&idx| idx != new_primary && shared.alive(idx))
        .map(|idx| shared.backends[idx].repl.clone())
        .collect();
    let body =
        Json::object().set("generation", generation).set("followers", followers).to_compact();
    let Some((host, port)) = shared.backends[new_primary].http_parts() else { return };
    let client = clients
        .entry(new_primary)
        .or_insert_with(|| Client::with_policy(host, port, 1, Duration::from_millis(2)));
    match client.request("POST", "/v1/repl/lead", body.as_bytes()) {
        Ok(resp) if resp.status == 200 => {
            shared.last_promotion_seq.store(
                shared.states[new_primary].applied_seq.load(Ordering::Acquire),
                Ordering::Release,
            );
            shared.primary.store(new_primary, Ordering::Release);
            shared.generation.store(generation, Ordering::Release);
            shared.metrics.failover_total.inc();
            *shared.promoted_at.lock() = Some(Instant::now());
        }
        _ => {
            clients.remove(&new_primary);
        }
    }
}

/// Routes one request: router-local endpoints answer directly, everything
/// else proxies to the backend the routing table picks.
fn route(shared: &RouterShared, clients: &mut Clients, request: &HttpRequest) -> Routed {
    let method = request.method.as_str();
    let target = request.target.as_str();
    let primary = shared.primary.load(Ordering::Acquire);
    match (method, target) {
        ("GET", "/healthz") => {
            let alive = (0..shared.backends.len()).filter(|&idx| shared.alive(idx)).count();
            let body = Json::object()
                .set("status", "ok")
                .set("role", "router")
                .set("generation", shared.generation.load(Ordering::Acquire))
                .set("primary", shared.backends[primary].http.as_str())
                .set("ack", shared.ack.label())
                .set("backends_total", shared.backends.len() as u64)
                .set("backends_alive", alive as u64)
                .set("failovers", shared.metrics.failover_total.get())
                .set("last_failover_blackout_ms", shared.last_blackout_ms.load(Ordering::Acquire))
                .set("last_promotion_seq", shared.last_promotion_seq.load(Ordering::Acquire))
                .set("replication_lag_records", follower_lag(shared, primary))
                .set("resyncs_observed", shared.metrics.route_resyncs_observed.get())
                .set("max_ack_stall_micros", shared.metrics.route_max_ack_stall_micros.get())
                .set("read_failovers", shared.metrics.route_read_failover_total.get())
                .to_compact();
            json(Endpoint::Healthz, 200, body.into_bytes())
        }
        ("GET", "/metrics") => {
            let body = shared.metrics.render_prometheus().into_bytes();
            (Endpoint::Metrics, 200, Cow::Borrowed("text/plain; version=0.0.4"), body)
        }
        ("POST", "/v1/shutdown") => {
            shared.begin_shutdown();
            let body = Json::object().set("status", "shutting down").to_compact().into_bytes();
            json(Endpoint::Shutdown, 200, body)
        }
        ("GET", t) if t.starts_with("/v1/sites/") => {
            let host = &t["/v1/sites/".len()..];
            ring_read(shared, clients, host.as_bytes(), Endpoint::Sites, request, primary)
        }
        ("POST", "/v1/classify") => {
            ring_read(shared, clients, &request.body, Endpoint::Classify, request, primary)
        }
        _ => {
            let endpoint = match (method, target) {
                ("POST", "/v1/visit") => Endpoint::Visit,
                ("POST", "/v1/expire") => Endpoint::Expire,
                ("GET", "/v1/marks") => Endpoint::Marks,
                ("GET", t) if t.starts_with("/v1/sites") => Endpoint::Sites,
                _ => Endpoint::Other,
            };
            let routed = proxy(shared, clients, primary, endpoint, request);
            // First successful proxied write after a promotion closes the
            // write blackout — record how long writers were dark.
            if matches!(endpoint, Endpoint::Visit | Endpoint::Expire)
                && (200..300).contains(&routed.1)
            {
                if let Some(promoted) = shared.promoted_at.lock().take() {
                    shared
                        .last_blackout_ms
                        .store(promoted.elapsed().as_millis() as u64, Ordering::Release);
                }
            }
            routed
        }
    }
}

/// The primary's applied sequence minus the slowest alive follower's —
/// `0` when there is nothing alive to lag.
fn follower_lag(shared: &RouterShared, primary: usize) -> u64 {
    let primary_seq = shared.states[primary].applied_seq.load(Ordering::Acquire);
    (0..shared.backends.len())
        .filter(|&idx| idx != primary && shared.alive(idx))
        .map(|idx| {
            primary_seq.saturating_sub(shared.states[idx].applied_seq.load(Ordering::Acquire))
        })
        .max()
        .unwrap_or(0)
}

/// A ring-routed read with one-hop failover: the first pick can die
/// between heartbeats (the loop needs `miss_threshold` ticks to notice),
/// so a transport failure retries ONCE on the next alive distinct backend
/// instead of bouncing a 503 to the client. Reads only — replicated state
/// and stateless classify are safe to serve from any backend — and one
/// hop only, so a sick cluster degrades to errors, not a retry storm.
fn ring_read(
    shared: &RouterShared,
    clients: &mut Clients,
    key: &[u8],
    endpoint: Endpoint,
    request: &HttpRequest,
    primary: usize,
) -> Routed {
    let idx = ring_route(&shared.ring, &shared.states, key, primary);
    match try_proxy(shared, clients, idx, endpoint, request) {
        Ok(routed) => routed,
        Err(()) => match ring_walk(&shared.ring, &shared.states, key, Some(idx)) {
            Some(next) => {
                shared.metrics.route_read_failover_total.inc();
                proxy(shared, clients, next, endpoint, request)
            }
            None => unavailable(endpoint),
        },
    }
}

/// Forwards the request to backend `idx` and relays the response. Any
/// transport failure drops the cached client and answers `503` — the
/// heartbeat loop, not the proxy path, decides who is dead.
fn proxy(
    shared: &RouterShared,
    clients: &mut Clients,
    idx: usize,
    endpoint: Endpoint,
    request: &HttpRequest,
) -> Routed {
    try_proxy(shared, clients, idx, endpoint, request).unwrap_or_else(|()| unavailable(endpoint))
}

/// `Err(())` is a transport failure (connect/read/write) — the backend
/// never produced an HTTP response. Backend-sent errors come back as
/// `Ok` with their real status.
fn try_proxy(
    shared: &RouterShared,
    clients: &mut Clients,
    idx: usize,
    endpoint: Endpoint,
    request: &HttpRequest,
) -> Result<Routed, ()> {
    let Some((host, port)) = shared.backends[idx].http_parts() else {
        return Err(());
    };
    let client = clients
        .entry(idx)
        .or_insert_with(|| Client::with_policy(host, port, 1, Duration::from_millis(2)));
    match client.request(&request.method, &request.target, &request.body) {
        Ok(resp) => {
            let content_type =
                resp.headers.get("content-type").unwrap_or("application/json").to_string();
            Ok((endpoint, resp.status, Cow::Owned(content_type), resp.body))
        }
        Err(_) => {
            clients.remove(&idx);
            Err(())
        }
    }
}

fn unavailable(endpoint: Endpoint) -> Routed {
    json(endpoint, 503, error_json("backend unavailable"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpConn, Limits};
    use crate::server::start;

    #[test]
    fn backend_spec_parsing() {
        let backend = BackendAddr::parse("127.0.0.1:8080,127.0.0.1:9080").unwrap();
        assert_eq!(backend.http, "127.0.0.1:8080");
        assert_eq!(backend.repl, "127.0.0.1:9080");
        assert_eq!(backend.http_parts(), Some(("127.0.0.1", 8080)));
        for bad in ["127.0.0.1:8080", "a,b", "127.0.0.1:8080,host:notaport", ":1,:2"] {
            assert!(BackendAddr::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn ring_skips_dead_backends_and_spreads_load() {
        let backends: Vec<BackendAddr> = (0..3)
            .map(|i| BackendAddr {
                http: format!("127.0.0.1:{}", 8000 + i),
                repl: format!("127.0.0.1:{}", 9000 + i),
            })
            .collect();
        let ring = build_ring(&backends);
        assert_eq!(ring.len(), 3 * RING_POINTS);
        let states: Vec<BackendState> = (0..3).map(|_| BackendState::default()).collect();
        for state in &states {
            state.alive.store(true, Ordering::Release);
        }
        let mut hits = [0u64; 3];
        for i in 0..3000 {
            let key = format!("host-{i}.example");
            hits[ring_route(&ring, &states, key.as_bytes(), 0)] += 1;
        }
        assert!(hits.iter().all(|&n| n > 500), "ring must spread load: {hits:?}");
        // Killing a backend reroutes its keys without moving the others.
        states[1].alive.store(false, Ordering::Release);
        for i in 0..3000 {
            let key = format!("host-{i}.example");
            let idx = ring_route(&ring, &states, key.as_bytes(), 0);
            assert_ne!(idx, 1, "dead backend must not be routed to");
        }
        // Same key, same backend — the hash is stable.
        let a = ring_route(&ring, &states, b"news1.example", 0);
        let b = ring_route(&ring, &states, b"news1.example", 0);
        assert_eq!(a, b);
        // The read-failover hop skips the backend that just failed.
        let next = ring_walk(&ring, &states, b"news1.example", Some(a));
        assert!(next.is_some_and(|idx| idx != a && idx != 1), "{next:?}");
        // All dead: fall back to the primary index.
        for state in &states {
            state.alive.store(false, Ordering::Release);
        }
        assert_eq!(ring_route(&ring, &states, b"news1.example", 2), 2);
    }

    fn request(
        addr: SocketAddr,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> crate::http::HttpResponse {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut conn = HttpConn::new(stream, Limits::default());
        crate::http::write_request(conn.stream_mut(), method, target, &addr.to_string(), body)
            .unwrap();
        conn.read_response().unwrap()
    }

    #[test]
    fn router_promotes_the_most_caught_up_follower_on_primary_death() {
        let node = |_| {
            start(ServeConfig {
                workers: 2,
                repl_port: Some(0),
                timeout: Duration::from_millis(2_000),
                ..ServeConfig::default()
            })
            .unwrap()
        };
        let nodes: Vec<_> = (0..3).map(node).collect();
        let backends: Vec<BackendAddr> = nodes
            .iter()
            .map(|n| BackendAddr {
                http: n.addr().to_string(),
                repl: n.repl_addr().expect("repl listener").to_string(),
            })
            .collect();
        let router = start_router(RouterConfig {
            workers: 2,
            backends,
            heartbeat: Duration::from_millis(50),
            miss_threshold: 2,
            ack: ReplAckPolicy::Quorum,
            ..RouterConfig::default()
        })
        .unwrap();

        // Train S6 (useful preference cookies) through the router,
        // accumulating the jar across visits until a mark lands.
        let host = cp_webworld::table1_population(7)[5].domain.clone();
        let mut jar: Vec<String> = Vec::new();
        for i in 0..8 {
            let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
            let mut body = Json::object().set("host", host.as_str()).set("path", path);
            if !jar.is_empty() {
                body = body.set("cookie", jar.join("; "));
            }
            let resp = request(router.addr(), "POST", "/v1/visit", body.to_compact().as_bytes());
            assert_eq!(resp.status, 200, "{}", resp.body_string());
            let json = Json::parse(&resp.body_string()).unwrap();
            for cookie in json.get("set_cookies").and_then(Json::as_array).into_iter().flatten() {
                let cookie = cookie.as_str().unwrap().to_string();
                if !jar.contains(&cookie) {
                    jar.push(cookie);
                }
            }
        }
        let marks_before = request(router.addr(), "GET", "/v1/marks", b"").body_string();
        assert!(!marks_before.is_empty(), "training must have marked something");
        // Ring reads and router health answer. The trained site's summary
        // is replicated, so whichever backend the ring picks has it.
        let resp = request(router.addr(), "GET", &format!("/v1/sites/{host}"), b"");
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let health =
            Json::parse(&request(router.addr(), "GET", "/healthz", b"").body_string()).unwrap();
        assert_eq!(health.get("role").and_then(Json::as_str), Some("router"));
        assert_eq!(health.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(health.get("backends_alive").and_then(Json::as_f64), Some(3.0));

        // Kill the primary out from under the router.
        nodes[0].shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "router never promoted a follower");
            let health =
                Json::parse(&request(router.addr(), "GET", "/healthz", b"").body_string()).unwrap();
            if health.get("failovers").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0 {
                assert_eq!(health.get("generation").and_then(Json::as_f64), Some(2.0));
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        // Writes work again through the promoted primary, and no acked
        // mark was lost in the handoff.
        let deadline = Instant::now() + Duration::from_secs(10);
        let write_body =
            Json::object().set("host", host.as_str()).set("path", "/after-failover").to_compact();
        loop {
            let resp = request(router.addr(), "POST", "/v1/visit", write_body.as_bytes());
            if resp.status == 200 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "writes never recovered after failover: last {} {}",
                resp.status,
                resp.body_string()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        let marks_after = request(router.addr(), "GET", "/v1/marks", b"").body_string();
        for line in marks_before.lines() {
            assert!(
                marks_after.lines().any(|l| l == line),
                "acked mark {line:?} lost across failover"
            );
        }
        let health =
            Json::parse(&request(router.addr(), "GET", "/healthz", b"").body_string()).unwrap();
        assert!(
            health.get("last_promotion_seq").and_then(Json::as_f64).unwrap() >= 1.0,
            "promotion must pick a caught-up follower"
        );
        router.shutdown();
    }
}
