//! Service metrics and their Prometheus text rendering.
//!
//! A fixed, allocation-free registry: every series the server exports is a
//! named field, bumped through atomics ([`cp_runtime::metrics`]) on the hot
//! path. One family table lists every family in exposition order — its
//! name, label key and values, and rendering rule — and `GET /metrics`
//! renders the classic text exposition by walking that table:
//!
//! ```text
//! cp_requests_total{endpoint="visit"} 9000
//! cp_request_micros_bucket{route="visit",le="1024"} 4123
//! cp_decisions_total{verdict="useful"} 211
//! cp_ready_conns 0
//! ```
//!
//! Adding a metric takes one field in [`ServiceMetrics`] and one row in
//! its family table.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};

use cp_runtime::metrics::{Counter, Gauge, Histogram};

/// `result` label values for `cp_hidden_fetch_total`, in rendering order.
pub const HIDDEN_FETCH_RESULTS: [&str; 6] =
    ["ok", "drop", "reset", "http_5xx", "truncated", "deadline"];

/// `reason` label values for `cp_probe_inconclusive_total`, in rendering
/// order — mirrors `cookiepicker_core::InconclusiveReason::ALL`.
pub const INCONCLUSIVE_REASONS: [&str; 4] = ["transport", "deadline", "server_error", "truncated"];

/// `result` label values for `cp_site_derive_total`, in rendering order.
pub const SITE_DERIVE_RESULTS: [&str; 3] = ["hit", "miss", "unknown"];

/// `cause` label values for `cp_conn_closed_total`, in rendering order.
/// `client` covers clean peer closes and client-requested closes
/// (HTTP/1.0, `Connection: close`); `timeout` a stalled read (slowloris,
/// half-sent body); `error` protocol violations (400/413); `shed` the
/// inline 503 past the admission cap; `drain` keep-alives ended by shutdown;
/// `write_failed` a response the peer stopped reading.
pub const CONN_CLOSE_CAUSES: [&str; 6] =
    ["client", "timeout", "error", "shed", "drain", "write_failed"];

/// `kind` label values for `cp_wal_faults_total`, in rendering order —
/// the injected storage-fault taxonomy (`crate::storage::StorageFaults`).
pub const WAL_FAULT_KINDS: [&str; 4] = ["short_write", "torn_write", "enospc", "fsync"];

/// The endpoints the server distinguishes in its per-endpoint series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /v1/classify`.
    Classify,
    /// `POST /v1/visit`.
    Visit,
    /// `GET /v1/sites/{host}`.
    Sites,
    /// `GET /v1/marks`.
    Marks,
    /// `POST /v1/expire`.
    Expire,
    /// `POST /v1/repl/lead` (cluster control plane).
    Repl,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// Anything else (404s, bad requests).
    Other,
}

impl Endpoint {
    /// All endpoints, in declaration (and rendering) order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Classify,
        Endpoint::Visit,
        Endpoint::Sites,
        Endpoint::Marks,
        Endpoint::Expire,
        Endpoint::Repl,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The label values, indexed like [`Endpoint::ALL`].
    const LABELS: [&'static str; 10] = [
        "healthz", "metrics", "classify", "visit", "sites", "marks", "expire", "repl", "shutdown",
        "other",
    ];

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }

    /// Position in [`Endpoint::ALL`], which lists the variants in
    /// declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

/// Bucket bounds for the detection-time histogram, in microseconds. Powers
/// of two: detection times span roughly three orders of magnitude between
/// a cache-hit re-comparison and a cold parse of a large page, and
/// power-of-two buckets keep relative error constant across that range.
pub const DETECTION_BUCKETS_MICROS: [u64; 14] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Bucket bounds for the WAL fsync-latency histogram, in microseconds.
/// Wider than the detection buckets: an fsync is tens of microseconds on
/// a warm SSD page cache but can stall for hundreds of milliseconds when
/// the device queue backs up, and both tails matter for the fsync-policy
/// trade-off.
pub const WAL_FSYNC_BUCKETS_MICROS: [u64; 12] =
    [8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144];

/// Bucket bounds for the per-route request-time histogram
/// (`cp_request_micros`), in microseconds. Powers of two from 1µs to
/// ~32ms: a cached healthz is single-digit microseconds while a cold
/// classify parse can run tens of milliseconds, and constant relative
/// error across that span is what a latency SLO needs.
pub const REQUEST_BUCKETS_MICROS: [u64; 16] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Bucket bounds for the crawler revisit-lag histogram, in scheduler
/// ticks. Lag is zero when the frontier keeps up and grows by whole
/// politeness windows when it falls behind, so power-of-two tick buckets
/// resolve both regimes.
pub const CRAWL_LAG_BUCKETS_TICKS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Follower slots the fixed registry reserves for the per-peer series
/// (`cp_repl_records_total{peer}`, `cp_repl_peer_up{peer}`) — the
/// registry is allocation-free, so they are fixed arrays and peers beyond
/// them share the last slot.
pub const MAX_REPL_PEERS: usize = 8;

/// `peer` label values, one per follower slot.
const PEER_LABELS: [&str; MAX_REPL_PEERS] = ["0", "1", "2", "3", "4", "5", "6", "7"];

/// A counter family over a fixed set of label values: one [`Counter`] per
/// value, bumped by value. The label key lives in the family's table row.
#[derive(Debug)]
pub struct LabeledCounter {
    values: &'static [&'static str],
    counters: Box<[Counter]>,
}

impl LabeledCounter {
    /// A zeroed family over `values`, in rendering order.
    pub(crate) fn new(values: &'static [&'static str]) -> Self {
        LabeledCounter { values, counters: values.iter().map(|_| Counter::new()).collect() }
    }

    fn counter(&self, value: &str) -> Option<&Counter> {
        self.values.iter().position(|v| *v == value).map(|i| &self.counters[i])
    }

    /// Adds one to the `value` series; values outside the set are ignored.
    pub fn inc(&self, value: &str) {
        if let Some(counter) = self.counter(value) {
            counter.inc();
        }
    }

    /// The current value of the `value` series (0 outside the set).
    pub fn get(&self, value: &str) -> u64 {
        self.counter(value).map_or(0, Counter::get)
    }

    /// The sum across every label value.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(Counter::get).sum()
    }
}

/// Declares the registry struct with each field's initial value written
/// beside it (`field: Type = init`; without `= init` the field starts at
/// `Default::default()`), and a `new()` that builds it from those values.
macro_rules! registry {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* $vis:vis $field:ident: $ty:ty $(= $init:expr)?,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* $vis $field: $ty,)*
        }

        impl $name {
            /// Creates a zeroed registry.
            pub fn new() -> Self {
                $name { $($field: registry!(@init $($init)?),)* }
            }
        }
    };
    (@init) => { Default::default() };
    (@init $init:expr) => { $init };
}

registry! {
    /// The server's metric registry, fields in exposition order. Each
    /// field is named by one row of the family table.
    #[derive(Debug)]
    pub struct ServiceMetrics {
        /// Requests routed to each endpoint, indexed like [`Endpoint::ALL`].
        requests: [Counter; 10],
        /// Per-route handling time (request parsed → response built) in
        /// power-of-two buckets, indexed like `requests`.
        request_micros: [Histogram; 10] =
            std::array::from_fn(|_| Histogram::with_bounds(&REQUEST_BUCKETS_MICROS)),
        /// Responses by status class (`2xx`, `4xx`, `5xx`).
        pub responses: LabeledCounter = LabeledCounter::new(&["2xx", "4xx", "5xx"]),
        /// Detection verdicts: `useful` (difference attributed to cookies)
        /// or `noise` (page dynamics).
        pub decisions: LabeledCounter = LabeledCounter::new(&["useful", "noise"]),
        /// Server-side detection time (`decide` proper, excluding transport
        /// and body parsing), in microseconds.
        pub detection: Histogram = Histogram::with_bounds(&DETECTION_BUCKETS_MICROS),
        /// Hidden-fetch outcomes by [`HIDDEN_FETCH_RESULTS`] result.
        pub hidden_fetch: LabeledCounter = LabeledCounter::new(&HIDDEN_FETCH_RESULTS),
        /// Deferred probes by [`INCONCLUSIVE_REASONS`] reason.
        pub probe_inconclusive: LabeledCounter = LabeledCounter::new(&INCONCLUSIVE_REASONS),
        /// Hidden-fetch retries issued (attempts beyond the first).
        pub retry_total: Counter,
        /// Page-analysis cache lookups: `hit` (body already compiled) or
        /// `miss` (parse + extract ran).
        pub analysis_cache: LabeledCounter = LabeledCounter::new(&["hit", "miss"]),
        /// Site lookups against the lazy world by [`SITE_DERIVE_RESULTS`]
        /// result.
        pub site_derive: LabeledCounter = LabeledCounter::new(&SITE_DERIVE_RESULTS),
        /// Time to derive one site from the universe (cache misses only), in
        /// microseconds.
        pub site_derive_micros: Histogram = Histogram::with_bounds(&DETECTION_BUCKETS_MICROS),
        /// Connections with readiness events in the poll batches the
        /// event-loop shards are processing right now, summed over shards.
        pub ready_conns: Gauge,
        /// Event-loop wakeups: returns from a shard's poll, timeouts
        /// included.
        pub event_loop_wakeups: Counter,
        /// Connections accepted over the server's lifetime.
        pub connections_total: Counter,
        /// Connections answered `503` and closed at accept, past the
        /// `workers + queue_capacity` admission cap.
        pub rejected_total: Counter,
        /// Connection closes by [`CONN_CLOSE_CAUSES`] cause.
        pub conn_closed: LabeledCounter = LabeledCounter::new(&CONN_CLOSE_CAUSES),
        /// WAL records appended (and therefore durably acked).
        pub wal_records_total: Counter,
        /// WAL fsync latency, in microseconds.
        pub wal_fsync: Histogram = Histogram::with_bounds(&WAL_FSYNC_BUCKETS_MICROS),
        /// Snapshots written, by result (`ok` / `error`).
        pub snapshot: LabeledCounter = LabeledCounter::new(&["ok", "error"]),
        /// Injected storage faults handled, by [`WAL_FAULT_KINDS`] kind.
        pub wal_faults: LabeledCounter = LabeledCounter::new(&WAL_FAULT_KINDS),
        /// Replicated records acked per follower, indexed by peer position.
        repl_records: [Counter; MAX_REPL_PEERS],
        /// 1 while the peer's stream is connected (live or catching-up),
        /// 0 while it is down; indexed like `repl_records`.
        repl_peer_up: [Gauge; MAX_REPL_PEERS],
        /// Followers the current replicator streams to: only this many
        /// per-peer series render.
        repl_peer_count: AtomicUsize,
        /// Max records any *connected* follower trails the primary's shipped
        /// count (down peers are excluded — see `cp_repl_peer_up`).
        pub repl_lag_records: Gauge,
        /// Peers brought back to the live stream after a disconnect or
        /// demotion (each is one completed resync).
        pub repl_resync_total: Counter,
        /// Backlog records replayed to catching-up or reconnecting peers.
        pub repl_resync_records_total: Counter,
        /// Live peers demoted to catching-up for missing the per-ship ack
        /// deadline.
        pub repl_slow_demotions_total: Counter,
        /// Bootstrap hints sent to peers beyond the backlog (primary side).
        pub repl_bootstrap_hints_total: Counter,
        /// Snapshot bootstraps installed (follower side).
        pub repl_bootstrap_total: Counter,
        /// Worst single-ship wall time since start, in microseconds — the
        /// stall a slow follower actually added to a client write.
        pub repl_ack_stall_max_micros: Gauge,
        /// Full replication round-trip per shipped record (encode → every
        /// live follower acked), in microseconds.
        pub repl_ack_micros: Histogram = Histogram::with_bounds(&WAL_FSYNC_BUCKETS_MICROS),
        /// Primary promotions performed (bumped by the router tier).
        pub failover_total: Counter,
        /// Ring reads failed over to the next alive backend after a transport
        /// error (router tier).
        pub route_read_failover_total: Counter,
        /// Sum of `cp_repl_resync_total` across the backends a router
        /// heartbeats (router tier).
        pub route_resyncs_observed: Gauge,
        /// Max `cp_repl_ack_stall_max_micros` across those backends.
        pub route_max_ack_stall_micros: Gauge,
        /// Hosts currently queued in the crawler frontier.
        pub crawl_frontier_depth: Gauge,
        /// Visits the crawler completed (any outcome).
        pub crawl_visits_total: Counter,
        /// Hosts the crawler discovered via keyset enumeration.
        pub crawl_discovered_total: Counter,
        /// Crawler visits whose probe deferred (`ProbeOutcome::Inconclusive`).
        pub crawl_inconclusive_total: Counter,
        /// Crawler reschedules forced by backoff (inconclusive or transport).
        pub crawl_backoff_total: Counter,
        /// Crawled hosts the resolver rejected (dropped from the frontier).
        pub crawl_unknown_host_total: Counter,
        /// Marks expired by the usefulness TTL into the re-verification queue.
        pub crawl_expired_marks_total: Counter,
        /// Lag between a revisit's due tick and its actual visit tick, in
        /// ticks (scheduler pressure: 0-lag means the frontier keeps up).
        pub crawl_revisit_lag: Histogram = Histogram::with_bounds(&CRAWL_LAG_BUCKETS_TICKS),
        /// WAL records replayed by the last startup recovery.
        pub recovery_records_replayed: Gauge,
        /// Torn-tail bytes discarded by the last startup recovery.
        pub recovery_torn_tail_bytes: Gauge,
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        let i = endpoint.index();
        self.requests[i].inc();
        self.request_micros[i].observe(micros);
        self.responses.inc(match status {
            200..=299 => "2xx",
            500..=599 => "5xx",
            _ => "4xx",
        });
    }

    /// The current value of one `cp_site_derive_total` series.
    pub fn site_derive_count(&self, result: &str) -> u64 {
        self.site_derive.get(result)
    }

    /// Sets how many per-peer series render (the follower count of the
    /// current replicator, capped at [`MAX_REPL_PEERS`]).
    pub fn set_repl_peers(&self, peers: usize) {
        self.repl_peer_count.store(peers.min(MAX_REPL_PEERS), Ordering::Relaxed);
    }

    /// Flips one `cp_repl_peer_up{peer}` series (out-of-range indices are
    /// dropped, mirroring the render cap).
    pub fn set_repl_peer_up(&self, idx: usize, up: bool) {
        if let Some(gauge) = self.repl_peer_up.get(idx) {
            gauge.set(i64::from(up));
        }
    }

    /// Records one acked replicated record for follower `peer` (peers
    /// beyond the fixed slots share the last one).
    pub fn record_repl_ship(&self, peer: usize) {
        self.repl_records[peer.min(MAX_REPL_PEERS - 1)].inc();
    }

    /// The family table, in exposition order: one row per family.
    fn families(&self) -> impl IntoIterator<Item = Family<'_>> {
        use Series::{Counters, Gauges, Histograms};
        let peers = self.repl_peer_count.load(Ordering::Relaxed);
        [
            Family::per_endpoint("cp_requests_total", "endpoint", Counters(&self.requests)),
            Family::per_endpoint("cp_request_micros", "route", Histograms(&self.request_micros)),
            Family::labeled("cp_responses_total", "class", &self.responses),
            Family::labeled("cp_decisions_total", "verdict", &self.decisions),
            Family::histogram("cp_detection_micros", &self.detection),
            Family::labeled("cp_hidden_fetch_total", "result", &self.hidden_fetch),
            Family::labeled("cp_probe_inconclusive_total", "reason", &self.probe_inconclusive),
            Family::counter("cp_retry_total", &self.retry_total),
            Family::labeled("cp_analysis_cache_total", "result", &self.analysis_cache),
            Family::labeled("cp_site_derive_total", "result", &self.site_derive),
            Family::histogram("cp_site_derive_micros", &self.site_derive_micros),
            Family::gauge("cp_ready_conns", &self.ready_conns),
            Family::counter("cp_event_loop_wakeups_total", &self.event_loop_wakeups),
            Family::counter("cp_connections_total", &self.connections_total),
            Family::counter("cp_rejected_total", &self.rejected_total),
            Family::labeled("cp_conn_closed_total", "cause", &self.conn_closed),
            Family::counter("cp_wal_records_total", &self.wal_records_total),
            Family::histogram("cp_wal_fsync_micros", &self.wal_fsync),
            Family::labeled("cp_snapshot_total", "result", &self.snapshot),
            Family::labeled("cp_wal_faults_total", "kind", &self.wal_faults),
            Family::first_peers("cp_repl_records_total", peers, Counters(&self.repl_records)),
            Family::first_peers("cp_repl_peer_up", peers, Gauges(&self.repl_peer_up)),
            Family::gauge("cp_repl_lag_records", &self.repl_lag_records),
            Family::counter("cp_repl_resync_total", &self.repl_resync_total),
            Family::counter("cp_repl_resync_records_total", &self.repl_resync_records_total),
            Family::counter("cp_repl_slow_demotions_total", &self.repl_slow_demotions_total),
            Family::counter("cp_repl_bootstrap_hints_total", &self.repl_bootstrap_hints_total),
            Family::counter("cp_repl_bootstrap_total", &self.repl_bootstrap_total),
            Family::gauge("cp_repl_ack_stall_max_micros", &self.repl_ack_stall_max_micros),
            Family::histogram("cp_repl_ack_micros", &self.repl_ack_micros),
            Family::counter("cp_failover_total", &self.failover_total),
            Family::counter("cp_route_read_failover_total", &self.route_read_failover_total),
            Family::gauge("cp_route_resyncs_observed", &self.route_resyncs_observed),
            Family::gauge("cp_route_max_ack_stall_micros", &self.route_max_ack_stall_micros),
            Family::gauge("cp_crawl_frontier_depth", &self.crawl_frontier_depth),
            Family::counter("cp_crawl_visits_total", &self.crawl_visits_total),
            Family::counter("cp_crawl_discovered_total", &self.crawl_discovered_total),
            Family::counter("cp_crawl_inconclusive_total", &self.crawl_inconclusive_total),
            Family::counter("cp_crawl_backoff_total", &self.crawl_backoff_total),
            Family::counter("cp_crawl_unknown_host_total", &self.crawl_unknown_host_total),
            Family::counter("cp_crawl_expired_marks_total", &self.crawl_expired_marks_total),
            Family::histogram("cp_crawl_revisit_lag_ticks", &self.crawl_revisit_lag),
            Family::gauge("cp_recovery_records_replayed", &self.recovery_records_replayed),
            Family::gauge("cp_recovery_torn_tail_bytes", &self.recovery_torn_tail_bytes),
        ]
    }

    /// Renders the Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for family in self.families() {
            family.render(&mut out);
        }
        out
    }
}

/// One row of the family table: a family's name, label key, label values
/// and series. Each constructor is one rendering rule.
struct Family<'a> {
    name: &'static str,
    /// Label key; empty for an unlabeled family.
    key: &'static str,
    /// One label value per rendered series, in order.
    values: &'a [&'static str],
    series: Series<'a>,
}

/// A family's series, indexed like its label values. The variant is the
/// Prometheus type.
enum Series<'a> {
    Counters(&'a [Counter]),
    Gauges(&'a [Gauge]),
    /// Histograms follow the idle rule: one without observations renders
    /// no sample lines.
    Histograms(&'a [Histogram]),
}

impl<'a> Family<'a> {
    fn unlabeled(name: &'static str, series: Series<'a>) -> Self {
        Family { name, key: "", values: &[""], series }
    }

    /// An unlabeled counter, always rendered.
    fn counter(name: &'static str, counter: &'a Counter) -> Self {
        Self::unlabeled(name, Series::Counters(std::slice::from_ref(counter)))
    }

    /// An unlabeled gauge, always rendered.
    fn gauge(name: &'static str, gauge: &'a Gauge) -> Self {
        Self::unlabeled(name, Series::Gauges(std::slice::from_ref(gauge)))
    }

    /// An unlabeled histogram, rendered once observed.
    fn histogram(name: &'static str, histogram: &'a Histogram) -> Self {
        Self::unlabeled(name, Series::Histograms(std::slice::from_ref(histogram)))
    }

    /// A fixed-label counter family: every value renders, zeros included.
    fn labeled(name: &'static str, key: &'static str, counter: &'a LabeledCounter) -> Self {
        Family { name, key, values: counter.values, series: Series::Counters(&counter.counters) }
    }

    /// One series per [`Endpoint`], labeled `key`.
    fn per_endpoint(name: &'static str, key: &'static str, series: Series<'a>) -> Self {
        Family { name, key, values: &Endpoint::LABELS, series }
    }

    /// One series per follower slot in use: the first `peers` of `series`.
    fn first_peers(name: &'static str, peers: usize, series: Series<'a>) -> Self {
        Family { name, key: "peer", values: &PEER_LABELS[..peers], series }
    }

    /// Writes the `# TYPE` line, then each series' sample lines.
    fn render(&self, out: &mut String) {
        let kind = match self.series {
            Series::Counters(_) => "counter",
            Series::Gauges(_) => "gauge",
            Series::Histograms(_) => "histogram",
        };
        let _ = writeln!(out, "# TYPE {} {kind}", self.name);
        for (i, value) in self.values.iter().enumerate() {
            let label = if self.key.is_empty() {
                String::new()
            } else {
                format!("{}=\"{value}\"", self.key)
            };
            match self.series {
                Series::Counters(c) => write_sample(out, self.name, &label, c[i].get()),
                Series::Gauges(g) => write_sample(out, self.name, &label, g[i].get()),
                Series::Histograms(h) => write_histogram(out, self.name, &label, &h[i]),
            }
        }
    }
}

/// Writes one sample line, `name{labels} value` (no braces when `labels`
/// is empty).
fn write_sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Writes a histogram's cumulative `_bucket` lines, `_sum` and `_count` —
/// or nothing while it has no observations.
fn write_histogram(out: &mut String, name: &str, label: &str, histogram: &Histogram) {
    if histogram.count() == 0 {
        return;
    }
    let bucket = format!("{name}_bucket");
    let sep = if label.is_empty() { "" } else { "," };
    for (bound, cumulative) in histogram.snapshot() {
        let le = if bound == u64::MAX { "+Inf".to_string() } else { bound.to_string() };
        write_sample(out, &bucket, &format!("{label}{sep}le=\"{le}\""), cumulative);
    }
    write_sample(out, &format!("{name}_sum"), label, histogram.sum_micros());
    write_sample(out, &format!("{name}_count"), label, histogram.count());
}

/// Parses a counter value out of a Prometheus exposition, e.g.
/// `scrape_counter(text, "cp_decisions_total{verdict=\"useful\"}")`.
/// Returns `None` when the exact series line is absent.
pub fn scrape_counter(exposition: &str, series: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.trim().parse().ok()
    })
}

/// Parses the cumulative buckets of a label-free histogram out of a
/// Prometheus exposition: `scrape_histogram(text, "cp_detection_micros")`
/// returns `(upper_bound, cumulative_count)` pairs in exposition order,
/// with `+Inf` mapped to `u64::MAX`. Empty when the histogram was not
/// rendered (no observations).
pub fn scrape_histogram(exposition: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut buckets = Vec::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some((le, value)) = rest.split_once("\"}") else { continue };
        let bound = if le == "+Inf" { Some(u64::MAX) } else { le.parse().ok() };
        if let (Some(bound), Ok(cumulative)) = (bound, value.trim().parse()) {
            buckets.push((bound, cumulative));
        }
    }
    buckets
}

/// Estimates a quantile from cumulative histogram buckets (as returned by
/// [`scrape_histogram`]), linearly interpolating within the winning bucket
/// — the scrape-side mirror of `Histogram::quantile_micros`. Returns `0.0`
/// for an empty histogram.
pub fn quantile_from_buckets(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total = buckets.last().map(|&(_, c)| c).unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut lower = 0u64;
    let mut below = 0u64;
    for &(bound, cumulative) in buckets {
        if cumulative >= rank {
            let in_bucket = cumulative - below;
            let upper = if bound == u64::MAX { lower.saturating_mul(2).max(1) } else { bound };
            let fraction = (rank - below) as f64 / in_bucket.max(1) as f64;
            return lower as f64 + fraction * (upper.saturating_sub(lower)) as f64;
        }
        below = cumulative;
        if bound != u64::MAX {
            lower = bound;
        }
    }
    lower as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_series() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Visit, 200, 500);
        m.record(Endpoint::Visit, 400, 100);
        m.record(Endpoint::Classify, 500, 100);
        assert_eq!(m.requests[Endpoint::Visit.index()].get(), 2);
        assert_eq!(m.responses.get("2xx"), 1);
        assert_eq!(m.responses.get("4xx"), 1);
        assert_eq!(m.responses.get("5xx"), 1);
        assert_eq!(m.request_micros[Endpoint::Visit.index()].count(), 2);
    }

    #[test]
    fn endpoint_index_is_its_position_in_all() {
        for (i, endpoint) in Endpoint::ALL.into_iter().enumerate() {
            assert_eq!(endpoint.index(), i);
        }
        assert_eq!(Endpoint::Visit.label(), "visit");
        assert_eq!(Endpoint::Other.label(), "other");
    }

    #[test]
    fn prometheus_text_is_scrapable() {
        let m = ServiceMetrics::new();
        m.record(Endpoint::Healthz, 200, 42);
        m.decisions.inc("useful");
        m.decisions.inc("noise");
        m.decisions.inc("noise");
        m.ready_conns.set(3);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"healthz\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"visit\"}"), Some(0));
        assert_eq!(scrape_counter(&text, "cp_decisions_total{verdict=\"useful\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_decisions_total{verdict=\"noise\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_ready_conns"), Some(3));
        assert!(text.contains("cp_request_micros_bucket{route=\"healthz\",le=\"64\"} 1"));
        assert!(text.contains("le=\"+Inf\""));
        assert_eq!(scrape_counter(&text, "nope"), None);
        // Idle endpoints emit no histogram series.
        assert!(!text.contains("cp_request_micros_count{route=\"visit\"}"));
    }

    #[test]
    fn detection_histogram_and_cache_counters_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Idle detection histogram emits no buckets, but the cache
        // counters always render (zero is meaningful there).
        assert!(!empty.contains("cp_detection_micros_bucket"));
        assert_eq!(scrape_counter(&empty, "cp_analysis_cache_total{result=\"hit\"}"), Some(0));

        m.detection.observe(3);
        m.detection.observe(100);
        m.analysis_cache.inc("hit");
        m.analysis_cache.inc("miss");
        m.analysis_cache.inc("miss");
        let text = m.render_prometheus();
        assert!(text.contains("cp_detection_micros_bucket{le=\"4\"} 1"));
        assert!(text.contains("cp_detection_micros_bucket{le=\"+Inf\"} 2"));
        assert_eq!(scrape_counter(&text, "cp_detection_micros_count"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_analysis_cache_total{result=\"hit\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_analysis_cache_total{result=\"miss\"}"), Some(2));
    }

    #[test]
    fn fault_series_render_with_zeros_and_count_by_label() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Zero is meaningful for all fault series (it says "no faults"),
        // so every label renders even on an untouched registry.
        for label in HIDDEN_FETCH_RESULTS {
            let series = format!("cp_hidden_fetch_total{{result=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        for label in INCONCLUSIVE_REASONS {
            let series = format!("cp_probe_inconclusive_total{{reason=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        for label in CONN_CLOSE_CAUSES {
            let series = format!("cp_conn_closed_total{{cause=\"{label}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        assert_eq!(scrape_counter(&empty, "cp_retry_total"), Some(0));

        m.hidden_fetch.inc("ok");
        m.hidden_fetch.inc("ok");
        m.hidden_fetch.inc("truncated");
        m.hidden_fetch.inc("bogus"); // unknown labels are ignored
        m.probe_inconclusive.inc("server_error");
        m.conn_closed.inc("timeout");
        m.conn_closed.inc("shed");
        m.retry_total.inc();
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_hidden_fetch_total{result=\"ok\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_hidden_fetch_total{result=\"truncated\"}"), Some(1));
        assert_eq!(m.hidden_fetch.get("ok"), 2);
        assert_eq!(m.hidden_fetch.get("bogus"), 0);
        assert_eq!(m.hidden_fetch.total(), 3);
        assert_eq!(
            scrape_counter(&text, "cp_probe_inconclusive_total{reason=\"server_error\"}"),
            Some(1)
        );
        assert_eq!(scrape_counter(&text, "cp_conn_closed_total{cause=\"timeout\"}"), Some(1));
        assert_eq!(m.conn_closed.get("shed"), 1);
        assert_eq!(scrape_counter(&text, "cp_retry_total"), Some(1));
    }

    #[test]
    fn durability_series_render_with_zeros() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Durability counters always render: zero says "no records / no
        // faults / no snapshots", which is meaningful. The fsync histogram
        // follows the idle-histogram rule (no buckets until observed).
        assert_eq!(scrape_counter(&empty, "cp_wal_records_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_snapshot_total{result=\"ok\"}"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_snapshot_total{result=\"error\"}"), Some(0));
        for kind in WAL_FAULT_KINDS {
            let series = format!("cp_wal_faults_total{{kind=\"{kind}\"}}");
            assert_eq!(scrape_counter(&empty, &series), Some(0), "{series}");
        }
        assert_eq!(scrape_counter(&empty, "cp_recovery_records_replayed"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_recovery_torn_tail_bytes"), Some(0));
        assert!(!empty.contains("cp_wal_fsync_micros_bucket"));

        m.wal_records_total.add(5);
        m.wal_fsync.observe(40);
        m.snapshot.inc("ok");
        m.snapshot.inc("ok");
        m.snapshot.inc("error");
        m.wal_faults.inc("torn_write");
        m.wal_faults.inc("enospc");
        m.wal_faults.inc("bogus"); // unknown kinds are ignored
        m.recovery_records_replayed.set(17);
        m.recovery_torn_tail_bytes.set(3);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_wal_records_total"), Some(5));
        assert_eq!(scrape_counter(&text, "cp_wal_fsync_micros_count"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_snapshot_total{result=\"ok\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_snapshot_total{result=\"error\"}"), Some(1));
        assert_eq!(m.snapshot.get("ok"), 2);
        assert_eq!(m.snapshot.get("error"), 1);
        assert_eq!(scrape_counter(&text, "cp_wal_faults_total{kind=\"torn_write\"}"), Some(1));
        assert_eq!(m.wal_faults.total(), 2);
        assert_eq!(scrape_counter(&text, "cp_recovery_records_replayed"), Some(17));
        assert_eq!(scrape_counter(&text, "cp_recovery_torn_tail_bytes"), Some(3));
    }

    #[test]
    fn replication_series_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // No replicator → no per-peer series; the lag gauge and the
        // failover counter always render (zero is meaningful for both).
        assert!(!empty.contains("cp_repl_records_total{peer="));
        assert_eq!(scrape_counter(&empty, "cp_repl_lag_records"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_failover_total"), Some(0));
        assert!(!empty.contains("cp_repl_ack_micros_bucket"));

        m.set_repl_peers(2);
        m.record_repl_ship(0);
        m.record_repl_ship(0);
        m.record_repl_ship(1);
        m.repl_lag_records.set(3);
        m.repl_ack_micros.observe(120);
        m.failover_total.inc();
        m.set_repl_peer_up(0, true);
        m.repl_resync_total.inc();
        m.repl_resync_records_total.add(5);
        m.repl_slow_demotions_total.inc();
        m.repl_bootstrap_hints_total.inc();
        m.repl_bootstrap_total.inc();
        m.repl_ack_stall_max_micros.set_max(900);
        m.repl_ack_stall_max_micros.set_max(40);
        m.route_read_failover_total.inc();
        m.route_resyncs_observed.set(2);
        m.route_max_ack_stall_micros.set(900);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_repl_records_total{peer=\"0\"}"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_repl_records_total{peer=\"1\"}"), Some(1));
        assert!(!text.contains("cp_repl_records_total{peer=\"2\"}"));
        assert_eq!(m.repl_records[0].get(), 2);
        assert_eq!(scrape_counter(&text, "cp_repl_lag_records"), Some(3));
        assert_eq!(scrape_counter(&text, "cp_repl_ack_micros_count"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_peer_up{peer=\"0\"}"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_peer_up{peer=\"1\"}"), Some(0));
        assert_eq!(scrape_counter(&text, "cp_repl_resync_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_resync_records_total"), Some(5));
        assert_eq!(scrape_counter(&text, "cp_repl_slow_demotions_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_bootstrap_hints_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_repl_bootstrap_total"), Some(1));
        // set_max is a running maximum: the later, smaller sample is ignored.
        assert_eq!(scrape_counter(&text, "cp_repl_ack_stall_max_micros"), Some(900));
        assert_eq!(scrape_counter(&text, "cp_route_read_failover_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_route_resyncs_observed"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_route_max_ack_stall_micros"), Some(900));
        assert_eq!(scrape_counter(&text, "cp_failover_total"), Some(1));
        // Peers beyond the fixed slots share the last counter; the peer
        // count is capped to the rendered range.
        m.set_repl_peers(64);
        m.record_repl_ship(63);
        assert_eq!(m.repl_records[MAX_REPL_PEERS - 1].get(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("cp_repl_records_total{peer=\"7\"}"));
        assert!(!text.contains("cp_repl_records_total{peer=\"8\"}"));
        // The repl control endpoint participates in the per-endpoint series.
        m.record(Endpoint::Repl, 200, 10);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"repl\"}"), Some(1));
    }

    #[test]
    fn crawl_series_render_with_zeros() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Crawl counters always render (zero = "crawler idle"); the lag
        // histogram follows the idle-histogram rule.
        assert_eq!(scrape_counter(&empty, "cp_crawl_frontier_depth"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_visits_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_unknown_host_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_crawl_expired_marks_total"), Some(0));
        assert!(!empty.contains("cp_crawl_revisit_lag_ticks_bucket"));

        m.crawl_frontier_depth.set(12);
        m.crawl_visits_total.add(7);
        m.crawl_discovered_total.add(3);
        m.crawl_inconclusive_total.inc();
        m.crawl_backoff_total.inc();
        m.crawl_unknown_host_total.inc();
        m.crawl_expired_marks_total.add(2);
        m.crawl_revisit_lag.observe(0);
        m.crawl_revisit_lag.observe(9);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_crawl_frontier_depth"), Some(12));
        assert_eq!(scrape_counter(&text, "cp_crawl_visits_total"), Some(7));
        assert_eq!(scrape_counter(&text, "cp_crawl_discovered_total"), Some(3));
        assert_eq!(scrape_counter(&text, "cp_crawl_inconclusive_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_backoff_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_unknown_host_total"), Some(1));
        assert_eq!(scrape_counter(&text, "cp_crawl_expired_marks_total"), Some(2));
        assert_eq!(scrape_counter(&text, "cp_crawl_revisit_lag_ticks_count"), Some(2));
        let buckets = scrape_histogram(&text, "cp_crawl_revisit_lag_ticks");
        assert_eq!(buckets.first(), Some(&(1, 1)));
        // The expire endpoint participates in the per-endpoint series.
        m.record(Endpoint::Expire, 200, 10);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_requests_total{endpoint=\"expire\"}"), Some(1));
    }

    #[test]
    fn event_loop_series_render() {
        let m = ServiceMetrics::new();
        let empty = m.render_prometheus();
        // Wakeups and the ready-conns gauge always render (zero says "no
        // loop activity"); the per-route pow2 histogram follows the
        // idle-histogram rule.
        assert_eq!(scrape_counter(&empty, "cp_event_loop_wakeups_total"), Some(0));
        assert_eq!(scrape_counter(&empty, "cp_ready_conns"), Some(0));
        assert!(!empty.contains("cp_request_micros_bucket"));

        m.event_loop_wakeups.add(4);
        m.ready_conns.set(2);
        m.record(Endpoint::Healthz, 200, 7);
        m.record(Endpoint::Healthz, 200, 100);
        let text = m.render_prometheus();
        assert_eq!(scrape_counter(&text, "cp_event_loop_wakeups_total"), Some(4));
        assert_eq!(scrape_counter(&text, "cp_ready_conns"), Some(2));
        // 7µs lands in the le="8" pow2 bucket; idle routes stay absent.
        assert!(text.contains("cp_request_micros_bucket{route=\"healthz\",le=\"8\"} 1"));
        assert!(text.contains("cp_request_micros_count{route=\"healthz\"} 2"));
        assert!(!text.contains("cp_request_micros_count{route=\"visit\"}"));
        assert_eq!(m.request_micros[Endpoint::Healthz.index()].count(), 2);
    }

    #[test]
    fn inconclusive_labels_match_core_taxonomy() {
        let labels: Vec<&str> =
            cookiepicker_core::InconclusiveReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, INCONCLUSIVE_REASONS);
    }

    #[test]
    fn scrape_histogram_round_trips_the_rendering() {
        let m = ServiceMetrics::new();
        for micros in [1, 3, 3, 50, 5000, 100_000] {
            m.detection.observe(micros);
        }
        let text = m.render_prometheus();
        let buckets = scrape_histogram(&text, "cp_detection_micros");
        assert_eq!(buckets, m.detection.snapshot());
        assert_eq!(buckets.last().unwrap(), &(u64::MAX, 6));
        // Quantiles estimated from the scrape agree with the histogram's
        // own interpolation.
        for q in [0.5, 0.9, 0.99] {
            let scraped = quantile_from_buckets(&buckets, q);
            let native = m.detection.quantile_micros(q);
            assert!((scraped - native).abs() < 1e-9, "q={q}: {scraped} vs {native}");
        }
        assert_eq!(quantile_from_buckets(&[], 0.5), 0.0);
        assert!(scrape_histogram(&text, "cp_site_derive_micros").is_empty());
    }
}
