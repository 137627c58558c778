//! A deterministic closed-loop load generator for cp-serve.
//!
//! `threads` client threads drive real TCP connections with keep-alive.
//! The visit mix is seeded and *partitioned*: thread `t` owns the sites
//! whose index satisfies `idx % threads == t`, so every site sees its
//! visits in one thread's deterministic order. Combined with the embedded
//! world's per-request noise derivation, two runs with the same seed
//! against same-seed servers produce identical decision counters — the
//! property `tests/serve_determinism.rs` pins.
//!
//! Latency is measured per request on the client (request written →
//! response parsed); the report carries exact p50/p95/p99 over all
//! samples, plus the client-side verdict tally to cross-check against the
//! server's `/metrics` counters.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cp_runtime::json::{Json, ToJson};
use cp_runtime::rng::{Rng, SeedableRng, StdRng, Zipf};
use cp_webworld::{table1_population, uniform_host};

use crate::http::{append_request, write_request, HttpConn, HttpError, HttpResponse, Limits};
use crate::metrics::{quantile_from_buckets, scrape_counter, scrape_histogram};

/// Load-generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server host.
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Client threads (each with its own RNG stream).
    pub threads: usize,
    /// Keep-alive connections per thread. `1` (the default) is the
    /// classic closed loop: one request in flight per thread. Larger
    /// values drive each thread's connections in batched rounds — write
    /// one request on every connection, then read every response — so a
    /// single client thread keeps many server connections busy with at
    /// most one outstanding request per connection. The per-thread draw
    /// sequence is unchanged, but requests in the same round cannot see
    /// each other's cookies, so cross-run counter identity is only
    /// guaranteed at `connections: 1`.
    pub connections: usize,
    /// Total requests across all threads.
    pub requests: u64,
    /// Seed: must match the server's `--seed` for the visit mix to make
    /// sense (hosts come from the same Table-1 population).
    pub seed: u64,
    /// When `Some(n)`, visit hosts are drawn from a `uniform:n` world
    /// (`{slug}-u{i}.example`) with a Zipf-ranked index instead of the
    /// Table-1 partition — for driving `serve --world uniform:N`. The
    /// per-thread draw sequence is still seeded, but with sampled hosts
    /// shared across threads the server-side mark state interleaves, so
    /// cross-run counter identity is only guaranteed in the default
    /// (partitioned Table-1) mode.
    pub hosts: Option<u64>,
    /// Zipf exponent for [`LoadgenConfig::hosts`] sampling (rank 1 — index
    /// 0 — is the hottest host). Ignored when `hosts` is `None`.
    pub zipf: f64,
    /// Transport retries per request (see [`Client`] for the phase rules).
    pub retries: u32,
    /// Base backoff before the first retry; doubles on each further retry.
    pub backoff: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads: 4,
            connections: 1,
            requests: 10_000,
            seed: 7,
            hosts: None,
            zipf: 1.0,
            retries: DEFAULT_RETRIES,
            backoff: DEFAULT_RETRY_BACKOFF,
        }
    }
}

/// Aggregated run report.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests completed (responses parsed).
    pub requests: u64,
    /// Responses by status class.
    pub status_2xx: u64,
    /// 4xx responses (should be 0 under the standard mix).
    pub status_4xx: u64,
    /// 5xx responses (must be 0).
    pub status_5xx: u64,
    /// Transport failures (connect/read/write errors).
    pub transport_errors: u64,
    /// Wall-clock duration of the run, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Client-measured latency percentiles, microseconds.
    pub p50_micros: u64,
    /// 95th percentile.
    pub p95_micros: u64,
    /// 99th percentile.
    pub p99_micros: u64,
    /// Worst observed latency.
    pub max_micros: u64,
    /// Client-side tally of `useful` verdicts (visits that probed + classify calls).
    pub client_useful: u64,
    /// Client-side tally of `noise` verdicts.
    pub client_noise: u64,
    /// Server-side `cp_decisions_total{verdict="useful"}` scraped after the run.
    pub server_useful: u64,
    /// Server-side `cp_decisions_total{verdict="noise"}`.
    pub server_noise: u64,
    /// Whether the client tally matches the server counters exactly.
    pub counters_match: bool,
    /// Detection timings recorded by the server (`cp_detection_micros` count).
    pub detection_count: u64,
    /// Server-side detection latency median, from the histogram buckets.
    pub detection_p50_micros: f64,
    /// Server-side detection latency 99th percentile.
    pub detection_p99_micros: f64,
    /// Analysis-cache hits scraped after the run.
    pub cache_hits: u64,
    /// Analysis-cache misses scraped after the run.
    pub cache_misses: u64,
    /// Visits answered `inconclusive` (chaos-faulted hidden fetches).
    pub deferred_probes: u64,
    /// Client-side request retries (stale keep-alive recoveries).
    pub client_retries: u64,
    /// Client-side connections abandoned after a transport failure.
    pub client_reconnects: u64,
    /// Server-side `cp_retry_total` (hidden-fetch retries) after the run.
    pub server_retry_total: u64,
    /// Server-side successful hidden fetches after the run.
    pub hidden_fetch_ok: u64,
    /// Whether the final `/metrics` scrape succeeded. `false` when the
    /// server died mid-run (the crash harness kills it on purpose): the
    /// client-side tallies and marks are still valid, every `server_*`
    /// field is zero.
    pub metrics_scraped: bool,
    /// Server-side `cp_wal_records_total` after the run (0 for in-memory
    /// servers).
    pub server_wal_records: u64,
    /// Injected storage faults the server survived during the run
    /// (`cp_wal_faults_total` summed over kinds).
    pub server_wal_faults: u64,
    /// Sorted, deduplicated `"host cookie"` lines for every mark observed —
    /// the chaos gate diffs these against a fault-free oracle run.
    pub marks: Vec<String>,
    /// Keep-alive connections per thread the run was configured with.
    pub connections: usize,
    /// Requests completed per connection, thread-major (thread 0's
    /// connections first). Single-connection runs report one entry per
    /// thread.
    pub per_connection_requests: Vec<u64>,
    /// Server-side `cp_event_loop_wakeups_total` after the run: how many
    /// times the server's event-loop shards woke from their poll.
    pub server_event_loop_wakeups: u64,
    /// Requests re-sent after a 503 response — the cluster's "not acked"
    /// signal while a failover is in flight.
    pub retried_requests: u64,
    /// Client-acked marks missing from the server's final `/v1/marks`
    /// dump. An acked mark may never be lost by a failover, so the
    /// cluster gate pins this at zero.
    pub lost_acks: u64,
    /// Client-acked marks confirmed present in the final `/v1/marks` dump.
    pub marks_verified: u64,
    /// Follower resyncs completed during the run, scraped from the
    /// target's final metrics (`cp_repl_resync_total` on a node,
    /// `cp_route_resyncs_observed` when the target is a router — summed,
    /// since a node exposes only one of the pair as nonzero).
    pub resyncs_observed: u64,
    /// Worst single-ship write stall a slow follower caused, in
    /// microseconds (max of `cp_repl_ack_stall_max_micros` and
    /// `cp_route_max_ack_stall_micros`).
    pub max_ack_stall_micros: u64,
}

impl ToJson for LoadgenReport {
    fn to_json(&self) -> Json {
        Json::object()
            .set("requests", self.requests)
            .set("status_2xx", self.status_2xx)
            .set("status_4xx", self.status_4xx)
            .set("status_5xx", self.status_5xx)
            .set("transport_errors", self.transport_errors)
            .set("elapsed_ms", self.elapsed_ms)
            .set("throughput_rps", self.throughput_rps)
            .set(
                "latency_micros",
                Json::object()
                    .set("p50", self.p50_micros)
                    .set("p95", self.p95_micros)
                    .set("p99", self.p99_micros)
                    .set("max", self.max_micros),
            )
            .set(
                "decisions",
                Json::object()
                    .set("client_useful", self.client_useful)
                    .set("client_noise", self.client_noise)
                    .set("server_useful", self.server_useful)
                    .set("server_noise", self.server_noise)
                    .set("counters_match", self.counters_match),
            )
            .set(
                "detection",
                Json::object()
                    .set("count", self.detection_count)
                    .set("p50_micros", self.detection_p50_micros)
                    .set("p99_micros", self.detection_p99_micros)
                    .set("cache_hits", self.cache_hits)
                    .set("cache_misses", self.cache_misses),
            )
            .set(
                "robustness",
                Json::object()
                    .set("deferred_probes", self.deferred_probes)
                    .set("client_retries", self.client_retries)
                    .set("client_reconnects", self.client_reconnects)
                    .set("server_retry_total", self.server_retry_total)
                    .set("hidden_fetch_ok", self.hidden_fetch_ok)
                    .set("wal_records", self.server_wal_records)
                    .set("wal_faults", self.server_wal_faults),
            )
            .set(
                "serving",
                Json::object()
                    .set("connections", self.connections as u64)
                    .set("per_connection_requests", self.per_connection_requests.clone())
                    .set("event_loop_wakeups", self.server_event_loop_wakeups),
            )
            .set(
                "failover",
                Json::object()
                    .set("reconnects", self.client_reconnects)
                    .set("retried_requests", self.retried_requests)
                    .set("lost_acks", self.lost_acks)
                    .set("marks_verified", self.marks_verified)
                    .set("resyncs_observed", self.resyncs_observed)
                    .set("max_ack_stall_micros", self.max_ack_stall_micros),
            )
            .set("metrics_scraped", self.metrics_scraped)
            .set("marks", self.marks.clone())
    }
}

/// Default pause before re-sending a request on a fresh connection — long
/// enough for the server's close to finish propagating, short enough to be
/// noise in any latency sample.
const DEFAULT_RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Default transport retries (the pre-policy behavior: exactly one).
const DEFAULT_RETRIES: u32 = 1;

/// A kept-alive connection idle at least this long is checked for a
/// server-side close before it is reused. Servers close idle keep-alives
/// (cp-serve after its read timeout), and a request written into a closed
/// socket fails only at the read, where a POST may not be re-sent. Busy
/// connections skip the check.
const IDLE_CHECK_AFTER: Duration = Duration::from_millis(10);

/// A keep-alive HTTP client over one TCP connection.
///
/// Failure handling is phase-aware. A connect- or write-phase failure on a
/// *reused* connection means the server timed the keep-alive out between
/// requests and nothing reached its handler, so any method is safe to
/// re-send on a fresh connection. A read-phase failure arrives after
/// the request went out — the server may already have processed it — so
/// only idempotent GETs retry; re-sending a POST could double-apply a
/// training step. A failure on a *fresh* first connection means the server
/// is down, and no retry budget changes that — it fails immediately. So
/// that a POST does not hit that read-phase failure after an idle spell,
/// a connection idle for `IDLE_CHECK_AFTER` is checked for a server-side
/// close before it is reused, and redialed if closed.
pub struct Client {
    host: String,
    port: u16,
    conn: Option<HttpConn<TcpStream>>,
    /// When `conn` last finished a response.
    idle_since: Instant,
    /// Transport retries allowed per request (beyond the first attempt).
    max_retries: u32,
    /// Backoff before the first retry; doubles on each further retry.
    backoff: Duration,
    /// Requests re-sent after a transport failure.
    pub retries: u64,
    /// Broken connections abandoned (each retry implies one, but a
    /// non-retried failure also counts).
    pub reconnects: u64,
    /// Requests re-sent after a 503 response. The cluster only answers
    /// 503 when the write is *unacked* (replication quorum lost, a
    /// follower fencing a direct write, or the router mid-failover), so
    /// re-sending any method is contract-safe — the unacked attempt is
    /// invisible, exactly like a torn WAL tail.
    pub status_retries: u64,
}

impl Client {
    /// Creates a client for `host:port` (connects lazily) with the default
    /// policy: one retry after a 5 ms pause.
    pub fn new(host: &str, port: u16) -> Self {
        Client::with_policy(host, port, DEFAULT_RETRIES, DEFAULT_RETRY_BACKOFF)
    }

    /// Creates a client with an explicit transport-retry budget and base
    /// backoff (doubled on each further retry). `retries: 0` disables
    /// re-sending entirely.
    pub fn with_policy(host: &str, port: u16, retries: u32, backoff: Duration) -> Self {
        Client {
            host: host.to_string(),
            port,
            conn: None,
            idle_since: Instant::now(),
            max_retries: retries,
            backoff,
            retries: 0,
            reconnects: 0,
            status_retries: 0,
        }
    }

    /// Pauses before retry number `attempt` (1-based): exponential
    /// doubling, capped so a large budget cannot sleep for minutes.
    fn backoff_pause(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(1u32 << attempt.saturating_sub(1).min(10))
    }

    /// Drops a kept-alive connection that the server closed while it sat
    /// idle for [`IDLE_CHECK_AFTER`] or longer. A nonblocking peek on a live
    /// idle connection would block; EOF, an error or unrequested bytes mean
    /// it cannot carry another request.
    fn drop_closed_idle_conn(&mut self) {
        let Some(conn) = &mut self.conn else { return };
        if self.idle_since.elapsed() < IDLE_CHECK_AFTER {
            return;
        }
        let stream = conn.stream_mut();
        let live = stream.set_nonblocking(true).is_ok()
            && matches!(stream.peek(&mut [0]), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
            && stream.set_nonblocking(false).is_ok();
        if !live {
            self.conn = None;
            self.reconnects += 1;
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut HttpConn<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect((self.host.as_str(), self.port))?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.set_write_timeout(Some(Duration::from_secs(10)))?;
            stream.set_nodelay(true)?;
            self.conn = Some(HttpConn::new(stream, Limits::default()));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the response, retrying up to the
    /// configured budget where that is safe (see the type docs for the
    /// phase rules).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<HttpResponse, HttpError> {
        let host = format!("{}:{}", self.host, self.port);
        let mut attempts: u32 = 0;
        loop {
            self.drop_closed_idle_conn();
            let reused = self.conn.is_some();
            // A first attempt failing on a fresh connection means the
            // server is unreachable; retries only cover reused connections
            // (stale keep-alives) and the fresh retries that follow one.
            let may_retry = (reused || attempts > 0) && attempts < self.max_retries;
            let write_result = (|| {
                let conn = self.connect().map_err(HttpError::Io)?;
                write_request(conn.stream_mut(), method, target, &host, body).map_err(HttpError::Io)
            })();
            let read_result = match write_result {
                Ok(()) => self.conn.as_mut().expect("connected above").read_response(),
                Err(err) => {
                    self.conn = None;
                    self.reconnects += 1;
                    // Nothing reached the handler: any method may re-send.
                    if may_retry {
                        attempts += 1;
                        self.retries += 1;
                        std::thread::sleep(self.backoff_pause(attempts));
                        continue;
                    }
                    return Err(err);
                }
            };
            match read_result {
                Ok(response) => {
                    let close = response
                        .headers
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    if close {
                        self.conn = None;
                    }
                    self.idle_since = Instant::now();
                    // A 503 means the request was *not* acked (see
                    // `status_retries`), so any method may re-send — this
                    // is what rides out a failover's promotion window.
                    if response.status == 503 && attempts < self.max_retries {
                        attempts += 1;
                        self.retries += 1;
                        self.status_retries += 1;
                        std::thread::sleep(self.backoff_pause(attempts));
                        continue;
                    }
                    return Ok(response);
                }
                Err(err) => {
                    self.conn = None;
                    self.reconnects += 1;
                    // The request went out; only idempotent GETs re-send.
                    if may_retry && method == "GET" {
                        attempts += 1;
                        self.retries += 1;
                        std::thread::sleep(self.backoff_pause(attempts));
                        continue;
                    }
                    return Err(err);
                }
            }
        }
    }
}

/// Deterministic (regular, hidden) page pairs for the classify slice of
/// the mix: index 0 differs structurally (useful), 1 and 2 do not.
const CLASSIFY_PAIRS: [(&str, &str); 3] = [
    (
        "<html><body><h1>Home</h1><ul><li>saved item</li><li>saved item</li></ul>\
         <div><p>personalized shelf</p><p>another row</p></div></body></html>",
        "<html><body><h1>Home</h1><p>log in to see your items</p></body></html>",
    ),
    (
        "<html><body><h1>News</h1><p>story one</p><p>story two</p></body></html>",
        "<html><body><h1>News</h1><p>story one</p><p>story two</p></body></html>",
    ),
    (
        "<html><body><div><p>banner A</p><p>content</p></div></body></html>",
        "<html><body><div><p>banner B</p><p>content</p></div></body></html>",
    ),
];

struct ThreadTally {
    samples: Vec<u64>,
    status_2xx: u64,
    status_4xx: u64,
    status_5xx: u64,
    transport_errors: u64,
    useful: u64,
    noise: u64,
    deferred: u64,
    retries: u64,
    reconnects: u64,
    status_retries: u64,
    /// `"host cookie"` lines for every cookie marked useful during the run.
    marks: Vec<String>,
    /// Requests completed on each of this thread's connections.
    conn_requests: Vec<u64>,
}

/// Runs the load and returns the aggregated report. The final `/metrics`
/// scrape (for the counter cross-check) happens after every client thread
/// has finished.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, HttpError> {
    let threads = config.threads.max(1);
    // Zipf mode samples hosts per request; the Table-1 partition is only
    // built (and only meaningful) in the default mode.
    let hosts: Vec<String> = if config.hosts.is_some() {
        Vec::new()
    } else {
        table1_population(config.seed).into_iter().map(|s| s.domain).collect()
    };
    let started = Instant::now();

    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let quota = config.requests / threads as u64
                    + u64::from((t as u64) < config.requests % threads as u64);
                // Thread t owns every (threads)-th site: per-site visit
                // order is single-threaded, hence deterministic.
                let owned: Vec<&str> = hosts
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| idx % threads == t)
                    .map(|(_, h)| h.as_str())
                    .collect();
                let config = &*config;
                scope.spawn(move || client_thread(config, t as u64, quota, &owned))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let elapsed_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let mut samples = Vec::new();
    let mut report = LoadgenReport {
        requests: 0,
        status_2xx: 0,
        status_4xx: 0,
        status_5xx: 0,
        transport_errors: 0,
        elapsed_ms,
        throughput_rps: 0.0,
        p50_micros: 0,
        p95_micros: 0,
        p99_micros: 0,
        max_micros: 0,
        client_useful: 0,
        client_noise: 0,
        server_useful: 0,
        server_noise: 0,
        counters_match: false,
        detection_count: 0,
        detection_p50_micros: 0.0,
        detection_p99_micros: 0.0,
        cache_hits: 0,
        cache_misses: 0,
        deferred_probes: 0,
        client_retries: 0,
        client_reconnects: 0,
        server_retry_total: 0,
        hidden_fetch_ok: 0,
        metrics_scraped: false,
        server_wal_records: 0,
        server_wal_faults: 0,
        marks: Vec::new(),
        connections: config.connections.max(1),
        per_connection_requests: Vec::new(),
        server_event_loop_wakeups: 0,
        retried_requests: 0,
        lost_acks: 0,
        marks_verified: 0,
        resyncs_observed: 0,
        max_ack_stall_micros: 0,
    };
    for tally in tallies {
        report.requests += tally.samples.len() as u64;
        report.status_2xx += tally.status_2xx;
        report.status_4xx += tally.status_4xx;
        report.status_5xx += tally.status_5xx;
        report.transport_errors += tally.transport_errors;
        report.client_useful += tally.useful;
        report.client_noise += tally.noise;
        report.deferred_probes += tally.deferred;
        report.client_retries += tally.retries;
        report.client_reconnects += tally.reconnects;
        report.retried_requests += tally.status_retries;
        report.marks.extend(tally.marks);
        report.per_connection_requests.extend(tally.conn_requests);
        samples.extend(tally.samples);
    }
    report.marks.sort_unstable();
    report.marks.dedup();
    samples.sort_unstable();
    report.p50_micros = percentile(&samples, 0.50);
    report.p95_micros = percentile(&samples, 0.95);
    report.p99_micros = percentile(&samples, 0.99);
    report.max_micros = samples.last().copied().unwrap_or(0);
    report.throughput_rps =
        if elapsed_ms > 0.0 { report.requests as f64 / (elapsed_ms / 1_000.0) } else { 0.0 };

    // Cross-check the server's counters against the client tally. The
    // scrape is best-effort: a server that died mid-run (the crash
    // harness kills one on purpose) still yields a report — the client
    // tallies and marks above are exactly what that harness consumes.
    let mut client = Client::with_policy(&config.host, config.port, config.retries, config.backoff);
    if let Ok(response) = client.request("GET", "/metrics", b"") {
        let exposition = response.body_string();
        report.metrics_scraped = true;
        report.server_useful =
            scrape_counter(&exposition, "cp_decisions_total{verdict=\"useful\"}").unwrap_or(0);
        report.server_noise =
            scrape_counter(&exposition, "cp_decisions_total{verdict=\"noise\"}").unwrap_or(0);
        report.counters_match = report.server_useful == report.client_useful
            && report.server_noise == report.client_noise;
        // Server-side detection timings: the histogram covers every
        // decide() the server ran, including the cached path's analysis
        // lookups.
        let buckets = scrape_histogram(&exposition, "cp_detection_micros");
        report.detection_count = buckets.last().map(|(_, total)| *total).unwrap_or(0);
        if report.detection_count > 0 {
            report.detection_p50_micros = quantile_from_buckets(&buckets, 0.50);
            report.detection_p99_micros = quantile_from_buckets(&buckets, 0.99);
        }
        report.cache_hits =
            scrape_counter(&exposition, "cp_analysis_cache_total{result=\"hit\"}").unwrap_or(0);
        report.cache_misses =
            scrape_counter(&exposition, "cp_analysis_cache_total{result=\"miss\"}").unwrap_or(0);
        report.server_retry_total = scrape_counter(&exposition, "cp_retry_total").unwrap_or(0);
        report.hidden_fetch_ok =
            scrape_counter(&exposition, "cp_hidden_fetch_total{result=\"ok\"}").unwrap_or(0);
        report.server_event_loop_wakeups =
            scrape_counter(&exposition, "cp_event_loop_wakeups_total").unwrap_or(0);
        report.server_wal_records =
            scrape_counter(&exposition, "cp_wal_records_total").unwrap_or(0);
        report.server_wal_faults = crate::metrics::WAL_FAULT_KINDS
            .iter()
            .map(|kind| {
                let series = format!("cp_wal_faults_total{{kind=\"{kind}\"}}");
                scrape_counter(&exposition, &series).unwrap_or(0)
            })
            .sum();
        report.resyncs_observed = scrape_counter(&exposition, "cp_repl_resync_total").unwrap_or(0)
            + scrape_counter(&exposition, "cp_route_resyncs_observed").unwrap_or(0);
        report.max_ack_stall_micros = scrape_counter(&exposition, "cp_repl_ack_stall_max_micros")
            .unwrap_or(0)
            .max(scrape_counter(&exposition, "cp_route_max_ack_stall_micros").unwrap_or(0));
    }
    // Verify every client-acked mark against the server's final dump: an
    // acked mark missing server-side is a lost write, which a failover is
    // never allowed to cause (the cluster gate pins `lost_acks` at 0).
    // Best-effort like the scrape above — a server the crash harness
    // killed verifies nothing, it does not invent losses.
    if !report.marks.is_empty() {
        if let Ok(response) = client.request("GET", "/v1/marks", b"") {
            if response.status == 200 {
                let body = response.body_string();
                let server_marks: std::collections::HashSet<&str> = body.lines().collect();
                for mark in &report.marks {
                    if server_marks.contains(mark.as_str()) {
                        report.marks_verified += 1;
                    } else {
                        report.lost_acks += 1;
                    }
                }
            }
        }
    }
    Ok(report)
}

/// One host draw: Zipf-ranked uniform-world host, or a uniform pick from
/// the thread's Table-1 partition. The partition path draws exactly one
/// `gen_range`, byte-identical to the pre-Zipf sequence.
fn pick_host(sampler: &Option<Zipf>, owned: &[&str], rng: &mut StdRng) -> String {
    match sampler {
        Some(zipf) => uniform_host(zipf.sample(rng) - 1),
        None => owned[rng.gen_range(0..owned.len())].to_string(),
    }
}

/// Draws the next request of the seeded mix. The draw order is a pure
/// function of the thread RNG, independent of which connection ends up
/// carrying the request.
fn draw_request(
    sampler: &Option<Zipf>,
    owned: &[&str],
    rng: &mut StdRng,
    jars: &HashMap<String, Vec<String>>,
) -> (&'static str, String, String) {
    let has_sites = sampler.is_some() || !owned.is_empty();
    let roll = rng.gen_range(0..100u64);
    if roll < 86 && has_sites {
        let host = pick_host(sampler, owned, rng);
        let path = match rng.gen_range(0..5u64) {
            0 => "/".to_string(),
            n => format!("/page/{n}"),
        };
        // Formatted directly (keys in sorted order, byte-identical to the
        // Json-tree rendering): hosts, paths, and issued cookies are all
        // escape-free, and this runs for 86% of the mix.
        let payload = match jars.get(&host).filter(|jar| !jar.is_empty()) {
            Some(jar) => {
                format!(
                    "{{\"cookie\":\"{}\",\"host\":\"{host}\",\"path\":\"{path}\"}}",
                    jar.join("; ")
                )
            }
            None => format!("{{\"host\":\"{host}\",\"path\":\"{path}\"}}"),
        };
        ("POST", "/v1/visit".to_string(), payload)
    } else if roll < 90 {
        ("GET", "/healthz".to_string(), String::new())
    } else if roll < 94 && has_sites {
        let host = pick_host(sampler, owned, rng);
        ("GET", format!("/v1/sites/{host}"), String::new())
    } else {
        let (regular, hidden) = CLASSIFY_PAIRS[rng.gen_range(0..CLASSIFY_PAIRS.len())];
        let payload = Json::object().set("regular", regular).set("hidden", hidden);
        ("POST", "/v1/classify".to_string(), payload.to_compact())
    }
}

fn client_thread(config: &LoadgenConfig, t: u64, quota: u64, owned: &[&str]) -> ThreadTally {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sampler = config.hosts.map(|n| Zipf::new(n, config.zipf));
    let mut jars: HashMap<String, Vec<String>> = HashMap::new();
    let connections = config.connections.max(1);
    let mut tally = ThreadTally {
        samples: Vec::with_capacity(quota as usize),
        status_2xx: 0,
        status_4xx: 0,
        status_5xx: 0,
        transport_errors: 0,
        useful: 0,
        noise: 0,
        deferred: 0,
        retries: 0,
        reconnects: 0,
        status_retries: 0,
        marks: Vec::new(),
        conn_requests: vec![0; connections],
    };

    if connections > 1 {
        drive_connections(config, quota, &sampler, owned, &mut rng, &mut jars, &mut tally);
        return tally;
    }

    let mut client = Client::with_policy(&config.host, config.port, config.retries, config.backoff);
    for _ in 0..quota {
        let (method, target, body) = draw_request(&sampler, owned, &mut rng, &jars);
        let sent = Instant::now();
        match client.request(method, &target, body.as_bytes()) {
            Ok(response) => {
                tally.samples.push(sent.elapsed().as_micros() as u64);
                tally.conn_requests[0] += 1;
                match response.status {
                    200..=299 => tally.status_2xx += 1,
                    500..=599 => tally.status_5xx += 1,
                    _ => tally.status_4xx += 1,
                }
                if response.status == 200 {
                    observe_verdicts(&response, target.as_str(), &mut tally, &mut jars);
                }
            }
            Err(_) => tally.transport_errors += 1,
        }
    }
    tally.retries = client.retries;
    tally.reconnects = client.reconnects;
    tally.status_retries = client.status_retries;
    tally
}

/// Multi-connection closed loop: each round writes one request on every
/// connection, then reads every response — at most one outstanding
/// request per connection, `connections` in flight per thread. Transport
/// failures abandon the connection (a fresh one connects next round)
/// without re-sending: the batched loop never risks double-applying a
/// training step.
fn drive_connections(
    config: &LoadgenConfig,
    quota: u64,
    sampler: &Option<Zipf>,
    owned: &[&str],
    rng: &mut StdRng,
    jars: &mut HashMap<String, Vec<String>>,
    tally: &mut ThreadTally,
) {
    let connections = config.connections.max(1);
    let mut conns: Vec<Option<HttpConn<TcpStream>>> = (0..connections).map(|_| None).collect();
    let host_header = format!("{}:{}", config.host, config.port);
    let mut wire: Vec<u8> = Vec::with_capacity(1024);
    let mut remaining = quota;
    while remaining > 0 {
        let batch = remaining.min(connections as u64) as usize;
        let requests: Vec<(&str, String, String)> =
            (0..batch).map(|_| draw_request(sampler, owned, rng, jars)).collect();
        let mut sent_at: Vec<Option<Instant>> = vec![None; batch];
        for (c, (method, target, body)) in requests.iter().enumerate() {
            if conns[c].is_none() {
                match connect_conn(&config.host, config.port) {
                    Ok(conn) => conns[c] = Some(conn),
                    Err(_) => {
                        tally.transport_errors += 1;
                        tally.reconnects += 1;
                        continue;
                    }
                }
            }
            let conn = conns[c].as_mut().expect("connected above");
            wire.clear();
            append_request(&mut wire, method, target, &host_header, body.as_bytes());
            match conn.stream_mut().write_all(&wire) {
                Ok(()) => sent_at[c] = Some(Instant::now()),
                Err(_) => {
                    conns[c] = None;
                    tally.transport_errors += 1;
                    tally.reconnects += 1;
                }
            }
        }
        for c in 0..batch {
            let Some(sent) = sent_at[c] else { continue };
            let Some(conn) = conns[c].as_mut() else { continue };
            match conn.read_response() {
                Ok(response) => {
                    tally.samples.push(sent.elapsed().as_micros() as u64);
                    tally.conn_requests[c] += 1;
                    match response.status {
                        200..=299 => tally.status_2xx += 1,
                        500..=599 => tally.status_5xx += 1,
                        _ => tally.status_4xx += 1,
                    }
                    let close = response
                        .headers
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    if response.status == 200 {
                        observe_verdicts(&response, requests[c].1.as_str(), tally, jars);
                    }
                    if close {
                        conns[c] = None;
                    }
                }
                Err(_) => {
                    conns[c] = None;
                    tally.transport_errors += 1;
                    tally.reconnects += 1;
                }
            }
        }
        remaining -= batch as u64;
    }
}

fn connect_conn(host: &str, port: u16) -> std::io::Result<HttpConn<TcpStream>> {
    let stream = TcpStream::connect((host, port))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    Ok(HttpConn::new(stream, Limits::default()))
}

/// Updates the client-side verdict tally and cookie jars from a response.
fn observe_verdicts(
    response: &HttpResponse,
    target: &str,
    tally: &mut ThreadTally,
    jars: &mut HashMap<String, Vec<String>>,
) {
    // Borrow the body: the tally runs once per response, so a lossy
    // copy here would be the client's single biggest allocation.
    let Ok(body) = std::str::from_utf8(&response.body) else { return };
    let Ok(json) = Json::parse(body) else { return };
    if target == "/v1/visit" {
        if let Some(record) = json.get("record").filter(|r| **r != Json::Null) {
            match record
                .get("decision")
                .and_then(|d| d.get("cookies_caused_difference"))
                .and_then(Json::as_bool)
            {
                Some(true) => tally.useful += 1,
                Some(false) => tally.noise += 1,
                None => {}
            }
        }
        tally.deferred += u64::from(json.get("inconclusive").and_then(Json::as_str).is_some());
        if let (Some(host), Some(marked_now)) = (
            json.get("host").and_then(Json::as_str),
            json.get("marked_now").and_then(Json::as_array),
        ) {
            tally
                .marks
                .extend(marked_now.iter().filter_map(Json::as_str).map(|n| format!("{host} {n}")));
        }
        if let (Some(host), Some(set_cookies)) = (
            json.get("host").and_then(Json::as_str),
            json.get("set_cookies").and_then(Json::as_array),
        ) {
            let jar = jars.entry(host.to_string()).or_default();
            for cookie in set_cookies.iter().filter_map(Json::as_str) {
                if !jar.iter().any(|c| c == cookie) {
                    jar.push(cookie.to_string());
                }
            }
        }
    } else if target == "/v1/classify" {
        match json.get("cookies_caused_difference").and_then(Json::as_bool) {
            Some(true) => tally.useful += 1,
            Some(false) => tally.noise += 1,
            None => {}
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank: the smallest value with at least q of the mass below it.
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, ServeConfig};

    #[test]
    fn percentiles_are_exact() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.95), 95);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn zipf_host_sampling_is_pinned_for_a_fixed_seed() {
        // Mirrors client_thread's per-thread rng derivation for thread 0 so
        // the sampled host sequence is exactly what a run would visit.
        let config = LoadgenConfig {
            seed: 7,
            hosts: Some(1_000_000),
            zipf: 1.1,
            ..LoadgenConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(config.seed ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let sampler = config.hosts.map(|n| Zipf::new(n, config.zipf));
        let drawn: Vec<String> = (0..8).map(|_| pick_host(&sampler, &[], &mut rng)).collect();
        assert_eq!(
            drawn,
            [
                "health-u79.example",
                "arts-u0.example",
                "computers-u212.example",
                "sports-u119.example",
                "kids-u6.example",
                "regional-u100.example",
                "kids-u111.example",
                "science-u11.example",
            ]
        );
        // The sampled distribution must stay head-heavy: rank 1 gets ~12.6%
        // of the mass at s=1.1 over a million hosts, and ranks beyond 1000
        // still collect a meaningful tail share.
        let zipf = sampler.unwrap();
        let mut rank1 = 0u64;
        let mut over1000 = 0u64;
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            assert!((1..=1_000_000).contains(&rank));
            if rank == 1 {
                rank1 += 1;
            }
            if rank > 1000 {
                over1000 += 1;
            }
        }
        assert_eq!((rank1, over1000), (1259, 3084), "distribution pinned for seed 7");
    }

    #[test]
    fn small_run_against_live_server() {
        let server = start(ServeConfig { seed: 7, workers: 2, ..ServeConfig::default() }).unwrap();
        let report = run(&LoadgenConfig {
            port: server.port(),
            threads: 2,
            requests: 200,
            seed: 7,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.requests, 200);
        assert_eq!(report.status_5xx, 0);
        assert_eq!(report.transport_errors, 0);
        assert_eq!(report.status_4xx, 0, "standard mix never 4xxes");
        assert!(
            report.counters_match,
            "client tally {}/{} vs server {}/{}",
            report.client_useful, report.client_noise, report.server_useful, report.server_noise
        );
        assert!(report.p50_micros <= report.p95_micros);
        assert!(report.p95_micros <= report.p99_micros);
        assert_eq!(
            report.detection_count,
            report.client_useful + report.client_noise,
            "one detection timing per decision"
        );
        assert!(report.detection_p50_micros <= report.detection_p99_micros);
        assert!(report.cache_misses > 0, "first sight of each body is a miss");
        assert!(report.cache_hits > 0, "the mix replays bodies, so some must hit");
        // Fault-free run: no deferrals, no server-side hidden-fetch
        // retries, and every probe's hidden fetch succeeded.
        assert_eq!(report.deferred_probes, 0);
        assert_eq!(report.server_retry_total, 0);
        // Every decided visit probe had an ok hidden fetch; the verdict
        // tally is strictly larger because classify calls also count.
        assert!(report.hidden_fetch_ok > 0);
        assert!(report.hidden_fetch_ok <= report.client_useful + report.client_noise);
        assert!(report.marks.windows(2).all(|w| w[0] < w[1]), "marks sorted and deduplicated");
        assert!(report.metrics_scraped);
        assert_eq!(report.server_wal_records, 0, "in-memory server journals nothing");
        assert_eq!(report.server_wal_faults, 0);
        // Steady single-node run: nothing 503ed, and every acked mark is
        // present in the server's final dump.
        assert_eq!(report.retried_requests, 0);
        assert_eq!(report.lost_acks, 0, "an acked mark may never go missing");
        assert_eq!(report.marks_verified, report.marks.len() as u64);
        let json = report.to_json().to_compact();
        assert!(json.contains("\"counters_match\":true"));
        assert!(json.contains("\"deferred_probes\":0"));
        assert!(json.contains("\"metrics_scraped\":true"));
        assert!(json.contains("\"lost_acks\":0"));
    }

    #[test]
    fn client_retries_503_responses_within_budget() {
        use crate::http::write_response;
        // A hand-rolled backend that 503s twice, then answers 200 — the
        // shape of a router riding out a promotion window.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0u32;
            loop {
                let mut conn = HttpConn::new(stream.try_clone().unwrap(), Limits::default());
                let Ok(request) = conn.read_request() else { break };
                served += 1;
                let (status, reason, body): (u16, &str, &[u8]) = if served <= 2 {
                    (503, "Service Unavailable", b"{\"error\":\"not primary\"}")
                } else {
                    (200, "OK", b"{\"ok\":true}")
                };
                write_response(&mut stream, status, reason, "application/json", body, true)
                    .unwrap();
                if !request.keep_alive() || served >= 3 {
                    break;
                }
            }
        });
        let mut client = Client::with_policy("127.0.0.1", port, 3, Duration::from_millis(1));
        let response = client.request("POST", "/v1/visit", b"{}").unwrap();
        assert_eq!(response.status, 200, "the budget outlasts the blackout");
        assert_eq!(client.status_retries, 2);
        assert_eq!(client.retries, 2);
        server.join().unwrap();

        // Budget exhausted: the last 503 surfaces instead of an error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let mut conn = HttpConn::new(stream.try_clone().unwrap(), Limits::default());
                if conn.read_request().is_err() {
                    break;
                }
                write_response(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    b"{}",
                    true,
                )
                .unwrap();
            }
        });
        let mut client = Client::with_policy("127.0.0.1", port, 1, Duration::from_millis(1));
        let response = client.request("POST", "/v1/visit", b"{}").unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(client.status_retries, 1);
        server.join().unwrap();
    }

    #[test]
    fn multi_connection_run_reports_per_connection_counts() {
        let server = start(ServeConfig { seed: 7, workers: 2, ..ServeConfig::default() }).unwrap();
        let report = run(&LoadgenConfig {
            port: server.port(),
            threads: 2,
            connections: 4,
            requests: 200,
            seed: 7,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.requests, 200);
        assert_eq!(report.status_5xx, 0);
        assert_eq!(report.transport_errors, 0);
        assert!(report.counters_match, "batched rounds still tally every verdict");
        assert_eq!(report.connections, 4);
        assert_eq!(report.per_connection_requests.len(), 8, "2 threads x 4 connections");
        assert_eq!(report.per_connection_requests.iter().sum::<u64>(), 200);
        assert!(
            report.per_connection_requests.iter().all(|&n| n > 0),
            "round-robin batches touch every connection: {:?}",
            report.per_connection_requests
        );
        assert!(report.server_event_loop_wakeups > 0, "the event loop counts wakeups");
        let json = report.to_json().to_compact();
        assert!(json.contains("\"connections\":4"));
        assert!(json.contains("\"per_connection_requests\":"));
    }

    #[test]
    fn zipf_run_against_a_uniform_world() {
        let server = start(ServeConfig {
            seed: 7,
            workers: 2,
            world: cp_webworld::WorldKind::Uniform(10_000),
            ..ServeConfig::default()
        })
        .unwrap();
        let report = run(&LoadgenConfig {
            port: server.port(),
            threads: 2,
            requests: 300,
            seed: 7,
            hosts: Some(10_000),
            zipf: 1.1,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.requests, 300);
        assert_eq!(report.status_5xx, 0, "derived sites must never error");
        assert_eq!(report.transport_errors, 0);
        assert!(report.status_2xx > 0);
    }

    #[test]
    fn run_survives_a_dead_server() {
        // Bind-then-drop to get a port nothing listens on: every request
        // fails at the transport, and the final scrape fails too — the
        // report must still come back (the crash harness depends on it).
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let report = run(&LoadgenConfig {
            port,
            threads: 2,
            requests: 8,
            seed: 7,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(report.requests, 0);
        assert_eq!(report.transport_errors, 8);
        assert!(!report.metrics_scraped, "no server, no scrape");
        assert!(!report.counters_match);
    }

    #[test]
    fn chaos_run_defers_and_marks_subset_of_oracle() {
        let oracle_server =
            start(ServeConfig { seed: 7, workers: 2, ..ServeConfig::default() }).unwrap();
        let chaos_server = start(ServeConfig {
            seed: 7,
            workers: 2,
            chaos_fault_rate: 0.25,
            ..ServeConfig::default()
        })
        .unwrap();
        let run_against = |port: u16| {
            run(&LoadgenConfig {
                port,
                threads: 2,
                requests: 600,
                seed: 7,
                ..LoadgenConfig::default()
            })
            .unwrap()
        };
        let oracle = run_against(oracle_server.port());
        let chaos = run_against(chaos_server.port());
        assert_eq!(chaos.status_5xx, 0, "faults degrade to deferrals, never 5xx");
        assert_eq!(chaos.transport_errors, 0);
        assert!(chaos.deferred_probes > 0, "25% fault rate must defer some probes");
        assert!(chaos.counters_match, "verdicts only counted for decided probes");
        for mark in &chaos.marks {
            assert!(oracle.marks.contains(mark), "chaos run invented mark {mark}");
        }
    }
}
