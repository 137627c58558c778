//! The simulated network: host registry, fetch, latency accounting and
//! traffic statistics.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use cp_runtime::rng::{SeedableRng, StdRng};
use cp_runtime::sync::Mutex;

use cp_cookies::{SimDuration, SimTime};

use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::latency::LatencyModel;
use crate::message::{Request, Response, StatusCode};
use crate::server::Server;

/// How long a client waits on a dropped request before giving up, when the
/// caller supplied no deadline of its own.
const DROP_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Error returned by [`SimNetwork::fetch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No server is registered for the request host.
    UnknownHost(
        /// The host that could not be resolved.
        String,
    ),
    /// The request (or its response) vanished in transit; the client gave
    /// up after `waited`.
    Dropped {
        /// The destination host.
        host: String,
        /// How long the client waited before timing out.
        waited: SimDuration,
    },
    /// The connection was reset mid-exchange.
    ConnectionReset {
        /// The destination host.
        host: String,
        /// Time into the exchange when the reset hit.
        after: SimDuration,
    },
    /// The response did not arrive within the caller's deadline.
    DeadlineExceeded {
        /// The destination host.
        host: String,
        /// The deadline that was exceeded.
        deadline: SimDuration,
    },
    /// The response body arrived shorter than its declared length.
    TruncatedBody {
        /// The destination host.
        host: String,
        /// Time into the exchange when the stream ended.
        after: SimDuration,
        /// Bytes actually received.
        received: usize,
        /// Bytes the response declared.
        expected: usize,
    },
}

impl NetError {
    /// The host the failed exchange targeted.
    pub fn host(&self) -> &str {
        match self {
            NetError::UnknownHost(h) => h,
            NetError::Dropped { host, .. }
            | NetError::ConnectionReset { host, .. }
            | NetError::DeadlineExceeded { host, .. }
            | NetError::TruncatedBody { host, .. } => host,
        }
    }

    /// Whether retrying the same request can plausibly succeed. Resolution
    /// failures are permanent; everything else is substrate weather.
    pub fn is_transient(&self) -> bool {
        !matches!(self, NetError::UnknownHost(_))
    }

    /// The simulated time the failed attempt consumed before the client
    /// observed the failure (zero for resolution failures).
    pub fn elapsed(&self) -> SimDuration {
        match self {
            NetError::UnknownHost(_) => SimDuration::ZERO,
            NetError::Dropped { waited, .. } => *waited,
            NetError::ConnectionReset { after, .. } => *after,
            NetError::DeadlineExceeded { deadline, .. } => *deadline,
            NetError::TruncatedBody { after, .. } => *after,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownHost(h) => write!(f, "unknown host {h:?}"),
            NetError::Dropped { host, waited } => {
                write!(f, "request to {host} dropped (timed out after {waited})")
            }
            NetError::ConnectionReset { host, after } => {
                write!(f, "connection to {host} reset after {after}")
            }
            NetError::DeadlineExceeded { host, deadline } => {
                write!(f, "request to {host} exceeded its {deadline} deadline")
            }
            NetError::TruncatedBody { host, received, expected, .. } => {
                write!(f, "response from {host} truncated ({received} of {expected} bytes)")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// The result of one simulated HTTP exchange.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The server's response.
    pub response: Response,
    /// The simulated network latency of the exchange.
    pub latency: SimDuration,
}

/// Cumulative traffic statistics, for overhead experiments (E4/A4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total requests issued.
    pub requests: u64,
    /// Total request bytes (approximate wire size).
    pub bytes_up: u64,
    /// Total response bytes (approximate wire size).
    pub bytes_down: u64,
}

/// One entry of the network's request log (enabled via
/// [`SimNetwork::enable_request_log`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedRequest {
    /// Destination host.
    pub host: String,
    /// Request path.
    pub path: String,
    /// The `Cookie` header as sent, if any.
    pub cookie_header: Option<String>,
    /// Whether the request carried the `X-Requested-With` marker typical of
    /// extension XHRs (what an evasion-minded operator would look for).
    pub xhr: bool,
    /// Simulated time the request was issued.
    pub at: SimTime,
}

struct HostEntry {
    server: Arc<dyn Server>,
    latency: LatencyModel,
}

/// Resolves hosts that are not in a [`SimNetwork`]'s explicit registry.
///
/// This is how a network backs onto a *lazily derived* world: instead of
/// registering millions of servers up front, install a resolver that
/// derives a server for any host it recognizes. Resolution order in
/// [`SimNetwork::fetch_with_deadline`] is explicit registry first, then the
/// resolver; a host neither knows yields [`NetError::UnknownHost`].
///
/// Implementations are expected to be deterministic (same host → same
/// server) and to do their own memoization if derivation is costly.
pub trait HostResolver: Send + Sync {
    /// Returns the origin server and latency model for `host`, or `None`
    /// if the host does not exist in the resolver's world.
    fn resolve(&self, host: &str) -> Option<(Arc<dyn Server>, LatencyModel)>;
}

/// An in-process network connecting a browser to registered origin servers.
///
/// Deterministic: latency draws come from a single seeded RNG, so a fixed
/// seed and request sequence reproduce identical timings.
pub struct SimNetwork {
    hosts: HashMap<String, HostEntry>,
    resolver: Option<Arc<dyn HostResolver>>,
    rng: Mutex<StdRng>,
    stats: Mutex<NetworkStats>,
    log: Mutex<Option<Vec<LoggedRequest>>>,
    fault: Option<FaultInjector>,
}

impl SimNetwork {
    /// Creates an empty network with the given latency-RNG seed.
    pub fn new(seed: u64) -> Self {
        SimNetwork {
            hosts: HashMap::new(),
            resolver: None,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: Mutex::new(NetworkStats::default()),
            log: Mutex::new(None),
            fault: None,
        }
    }

    /// Installs a fallback [`HostResolver`] consulted for hosts absent from
    /// the explicit registry. Explicit registrations always win.
    pub fn set_resolver(&mut self, resolver: Arc<dyn HostResolver>) {
        self.resolver = Some(resolver);
    }

    /// Builder-style [`SimNetwork::set_resolver`].
    pub fn with_resolver(mut self, resolver: Arc<dyn HostResolver>) -> Self {
        self.set_resolver(resolver);
        self
    }

    /// Installs a fault plan: subsequent fetches may fail or degrade per the
    /// plan's seeded rates. Fault decisions draw from their own hash-derived
    /// RNG, so the latency stream is unchanged — a plan with all-zero rates
    /// reproduces fault-free runs bit for bit.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan));
    }

    /// Turns on per-request logging (off by default; the log grows without
    /// bound while enabled).
    pub fn enable_request_log(&mut self) {
        *self.log.lock() = Some(Vec::new());
    }

    /// Drains and returns the request log (empty if logging is disabled).
    pub fn take_request_log(&self) -> Vec<LoggedRequest> {
        self.log.lock().as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Registers `server` for `host` with the default latency model.
    pub fn register(&mut self, host: impl Into<String>, server: impl Server + 'static) {
        self.register_with_latency(host, server, LatencyModel::default());
    }

    /// Registers `server` for `host` with a specific latency model.
    pub fn register_with_latency(
        &mut self,
        host: impl Into<String>,
        server: impl Server + 'static,
        latency: LatencyModel,
    ) {
        self.hosts.insert(
            host.into().to_ascii_lowercase(),
            HostEntry { server: Arc::new(server), latency },
        );
    }

    /// Hosts currently registered.
    pub fn hosts(&self) -> Vec<&str> {
        self.hosts.keys().map(String::as_str).collect()
    }

    /// Performs one HTTP exchange at simulated time `now`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownHost`] if no server is registered for the URL's
    /// host; with a fault plan installed, any other [`NetError`] variant per
    /// the plan's rates.
    pub fn fetch(&self, req: &Request, now: SimTime) -> Result<FetchOutcome, NetError> {
        self.fetch_with_deadline(req, now, None)
    }

    /// [`fetch`](Self::fetch) with a client-side response deadline: if the
    /// exchange's sampled latency exceeds `deadline`, the client abandons it
    /// and gets [`NetError::DeadlineExceeded`] after exactly `deadline` of
    /// simulated waiting.
    ///
    /// # Errors
    ///
    /// As [`fetch`](Self::fetch), plus [`NetError::DeadlineExceeded`].
    pub fn fetch_with_deadline(
        &self,
        req: &Request,
        now: SimTime,
        deadline: Option<SimDuration>,
    ) -> Result<FetchOutcome, NetError> {
        let host = req.url.host();
        // Explicit registrations win; the resolver is the lazy fallback.
        // A host neither knows fails with UnknownHost — resolution misses
        // are explicit, never silently-empty sites.
        let (server, latency_model) = match self.hosts.get(host) {
            Some(entry) => (Arc::clone(&entry.server), entry.latency.clone()),
            None => match self.resolver.as_ref().and_then(|r| r.resolve(host)) {
                Some(resolved) => resolved,
                None => return Err(NetError::UnknownHost(host.to_string())),
            },
        };
        if let Some(log) = self.log.lock().as_mut() {
            log.push(LoggedRequest {
                host: host.to_string(),
                path: req.url.path().to_string(),
                cookie_header: req.cookie_header().map(str::to_string),
                xhr: req.headers.contains("x-requested-with"),
                at: now,
            });
        }
        let fault = self.fault.as_ref().and_then(|inj| {
            inj.sample(host, req.url.path(), req.headers.contains("x-requested-with"))
        });

        // Faults that kill the exchange before any response bytes flow. The
        // request itself still went out, so upstream traffic is accounted.
        match fault {
            Some(FaultKind::Drop) => {
                self.count(req, None);
                let waited = deadline.map_or(DROP_TIMEOUT, |d| d.min(DROP_TIMEOUT));
                return Err(NetError::Dropped { host: host.to_string(), waited });
            }
            Some(FaultKind::Reset(after)) => {
                self.count(req, None);
                return Err(NetError::ConnectionReset { host: host.to_string(), after });
            }
            _ => {}
        }

        let mut response = server.handle(req, now);
        let mut latency = latency_model.sample(&mut *self.rng.lock(), response.body.len());
        match fault {
            Some(FaultKind::ExtraLatency(extra)) => latency += extra,
            Some(FaultKind::Http5xx(status)) => {
                response = Response::html(
                    StatusCode(status),
                    format!("<html><body><h1>{status} upstream error</h1></body></html>"),
                );
            }
            _ => {}
        }

        if let Some(d) = deadline {
            if latency > d {
                // The client hangs up at the deadline; the response is
                // abandoned on the wire.
                self.count(req, None);
                return Err(NetError::DeadlineExceeded { host: host.to_string(), deadline: d });
            }
        }

        if matches!(fault, Some(FaultKind::Truncate)) {
            let expected = response.body.len();
            let received = expected / 2;
            let mut stats = self.stats.lock();
            stats.requests += 1;
            stats.bytes_up += req.wire_size() as u64;
            stats.bytes_down += received as u64;
            return Err(NetError::TruncatedBody {
                host: host.to_string(),
                after: latency,
                received,
                expected,
            });
        }

        self.count(req, Some(&response));
        Ok(FetchOutcome { response, latency })
    }

    fn count(&self, req: &Request, response: Option<&Response>) {
        let mut stats = self.stats.lock();
        stats.requests += 1;
        stats.bytes_up += req.wire_size() as u64;
        if let Some(response) = response {
            stats.bytes_down += response.wire_size() as u64;
        }
    }

    /// A snapshot of the cumulative traffic statistics.
    pub fn stats(&self) -> NetworkStats {
        self.stats.lock().clone()
    }

    /// Resets the traffic statistics (e.g. between experiment phases).
    pub fn reset_stats(&self) {
        *self.stats.lock() = NetworkStats::default();
    }
}

impl fmt::Debug for SimNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNetwork")
            .field("hosts", &self.hosts.keys().collect::<Vec<_>>())
            .field("stats", &*self.stats.lock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, StatusCode};
    use crate::url::Url;

    fn echo_server() -> impl Server {
        |req: &Request, _: SimTime| {
            Response::html(StatusCode::OK, format!("<p>{}</p>", req.url.path()))
        }
    }

    fn get(url: &str) -> Request {
        Request::new(Method::Get, Url::parse(url).unwrap())
    }

    #[test]
    fn fetch_routes_by_host() {
        let mut net = SimNetwork::new(1);
        net.register("a.example", echo_server());
        let out = net.fetch(&get("http://a.example/x"), SimTime::EPOCH).unwrap();
        assert!(out.response.body_string().contains("/x"));
        assert!(out.latency > SimDuration::ZERO);
    }

    #[test]
    fn unknown_host_errors() {
        let net = SimNetwork::new(1);
        let err = net.fetch(&get("http://nowhere.example/"), SimTime::EPOCH).unwrap_err();
        assert_eq!(err, NetError::UnknownHost("nowhere.example".into()));
    }

    /// Resolves every `*.derived.example` host to a shared echo server.
    struct DerivedWorld;
    impl HostResolver for DerivedWorld {
        fn resolve(&self, host: &str) -> Option<(Arc<dyn Server>, LatencyModel)> {
            host.ends_with(".derived.example")
                .then(|| (Arc::new(echo_server()) as Arc<dyn Server>, LatencyModel::fast()))
        }
    }

    #[test]
    fn resolver_backfills_unregistered_hosts() {
        let mut net = SimNetwork::new(1);
        net.register("a.example", |_: &Request, _: SimTime| {
            Response::html(StatusCode::OK, "<p>registered</p>")
        });
        net.set_resolver(Arc::new(DerivedWorld));
        // Registered hosts still win over the resolver.
        let out = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap();
        assert!(out.response.body_string().contains("registered"));
        // Unregistered-but-resolvable hosts are served lazily.
        let out = net.fetch(&get("http://x.derived.example/p"), SimTime::EPOCH).unwrap();
        assert!(out.response.body_string().contains("/p"));
        assert_eq!(net.stats().requests, 2);
        // Hosts outside the resolver's world stay explicit errors.
        let err = net.fetch(&get("http://nowhere.example/"), SimTime::EPOCH).unwrap_err();
        assert_eq!(err, NetError::UnknownHost("nowhere.example".into()));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut net = SimNetwork::new(1);
        net.register("a.example", echo_server());
        for _ in 0..3 {
            net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap();
        }
        let s = net.stats();
        assert_eq!(s.requests, 3);
        assert!(s.bytes_down > 0 && s.bytes_up > 0);
        net.reset_stats();
        assert_eq!(net.stats(), NetworkStats::default());
    }

    #[test]
    fn deterministic_latency_sequence() {
        let run = || {
            let mut net = SimNetwork::new(42);
            net.register("a.example", echo_server());
            (0..5)
                .map(|_| net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap().latency)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn request_log_captures_cookie_and_marker_headers() {
        let mut net = SimNetwork::new(4);
        net.register("a.example", echo_server());
        net.enable_request_log();
        let mut req = get("http://a.example/p");
        req.headers.set("Cookie", "a=1");
        net.fetch(&req, SimTime::from_secs(9)).unwrap();
        let mut hidden = get("http://a.example/p");
        hidden.headers.set("X-Requested-With", "XMLHttpRequest");
        net.fetch(&hidden, SimTime::from_secs(10)).unwrap();

        let log = net.take_request_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].cookie_header.as_deref(), Some("a=1"));
        assert!(!log[0].xhr);
        assert!(log[1].xhr);
        assert_eq!(log[1].at, SimTime::from_secs(10));
        assert!(net.take_request_log().is_empty(), "take drains the log");
    }

    #[test]
    fn request_log_disabled_by_default() {
        let mut net = SimNetwork::new(4);
        net.register("a.example", echo_server());
        net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap();
        assert!(net.take_request_log().is_empty());
    }

    #[test]
    fn zero_rate_fault_plan_is_bit_identical_to_no_plan() {
        use crate::fault::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let mut net = SimNetwork::new(42);
            net.register("a.example", echo_server());
            if let Some(plan) = plan {
                net.set_fault_plan(plan);
            }
            (0..20)
                .map(|_| net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap().latency)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(FaultPlan::new(9))));
    }

    #[test]
    fn injected_faults_surface_as_taxonomy_errors() {
        use crate::fault::{FaultPlan, FaultRates};
        let with_rates = |rates: FaultRates| {
            let mut net = SimNetwork::new(1);
            net.register("a.example", echo_server());
            net.set_fault_plan(FaultPlan::new(5).with_default(rates));
            net
        };

        let net = with_rates(FaultRates { drop: 1.0, ..FaultRates::NONE });
        let err = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap_err();
        assert!(matches!(err, NetError::Dropped { .. }), "{err}");
        assert!(err.is_transient());
        assert_eq!(err.host(), "a.example");
        assert_eq!(err.elapsed(), SimDuration::from_secs(30), "default drop timeout");
        assert_eq!(net.stats().requests, 1, "failed attempts still count as traffic");
        assert_eq!(net.stats().bytes_down, 0);

        let net = with_rates(FaultRates { reset: 1.0, ..FaultRates::NONE });
        let err = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap_err();
        assert!(matches!(err, NetError::ConnectionReset { .. }), "{err}");
        assert!(err.elapsed() > SimDuration::ZERO);

        let net = with_rates(FaultRates { http_5xx: 1.0, ..FaultRates::NONE });
        let out = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap();
        assert!(!out.response.status.is_success(), "5xx is a response, not an error");
        assert!((500..=503).contains(&out.response.status.0));

        let net = with_rates(FaultRates { truncate: 1.0, ..FaultRates::NONE });
        let err = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap_err();
        let NetError::TruncatedBody { received, expected, .. } = &err else {
            panic!("expected truncation, got {err}");
        };
        assert!(received < expected);
        assert!(net.stats().bytes_down < net.stats().bytes_up + *expected as u64);
    }

    #[test]
    fn deadline_trips_on_injected_latency_only() {
        use crate::fault::{FaultPlan, FaultRates};
        let mut net = SimNetwork::new(3);
        net.register("a.example", echo_server());
        let budget = Some(SimDuration::from_secs(60));
        let ok = net.fetch_with_deadline(&get("http://a.example/"), SimTime::EPOCH, budget);
        assert!(ok.is_ok(), "natural latency is far under a 60 s budget");

        net.set_fault_plan(FaultPlan::new(2).with_default(FaultRates {
            extra_latency: 1.0,
            extra_latency_ms: 120_000,
            ..FaultRates::NONE
        }));
        let err =
            net.fetch_with_deadline(&get("http://a.example/"), SimTime::EPOCH, budget).unwrap_err();
        assert_eq!(
            err,
            NetError::DeadlineExceeded {
                host: "a.example".into(),
                deadline: SimDuration::from_secs(60)
            }
        );
        assert_eq!(err.elapsed(), SimDuration::from_secs(60), "the client waits out the deadline");
        // Without a deadline the same fault just makes the fetch slow.
        let out = net.fetch(&get("http://a.example/"), SimTime::EPOCH).unwrap();
        assert!(out.latency >= SimDuration::from_secs(120));
    }

    #[test]
    fn hidden_class_rates_spare_regular_traffic() {
        use crate::fault::FaultPlan;
        let mut net = SimNetwork::new(8);
        net.register("a.example", echo_server());
        net.set_fault_plan(
            FaultPlan::new(8).with_hidden(crate::fault::FaultRates {
                drop: 1.0,
                ..crate::fault::FaultRates::NONE
            }),
        );
        assert!(net.fetch(&get("http://a.example/"), SimTime::EPOCH).is_ok());
        let mut hidden = get("http://a.example/");
        hidden.headers.set("X-Requested-With", "XMLHttpRequest");
        assert!(net.fetch(&hidden, SimTime::EPOCH).is_err());
    }

    #[test]
    fn per_host_latency_models() {
        let mut net = SimNetwork::new(7);
        net.register_with_latency("fast.example", echo_server(), LatencyModel::fast());
        net.register_with_latency("slow.example", echo_server(), LatencyModel::slow_site());
        let avg = |host: &str, net: &SimNetwork| -> u64 {
            (0..50)
                .map(|_| {
                    net.fetch(&get(&format!("http://{host}/")), SimTime::EPOCH)
                        .unwrap()
                        .latency
                        .as_millis()
                })
                .sum::<u64>()
                / 50
        };
        assert!(avg("slow.example", &net) > avg("fast.example", &net) * 3);
    }
}
