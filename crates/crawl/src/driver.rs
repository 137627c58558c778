//! Visit drivers: the crawler's pluggable path to the world.
//!
//! The scheduler never talks to the store or the network directly — it
//! hands `(host, path, cookie header)` to a [`VisitDriver`] and reacts to
//! the typed result. [`InProcessDriver`] executes visits against an
//! embedded world and sharded store in this process (what `cookiepicker
//! crawl` uses by default); [`HttpDriver`] speaks to a live `cp-serve`
//! over `POST /v1/visit` / `POST /v1/expire`, so the same crawl loop can
//! refresh a remote corpus. Both return identical data for identical
//! worlds, which `tests` pin.

use std::time::Duration;

use cookiepicker_core::{CookiePickerConfig, RetryPolicy};
use cp_runtime::json::Json;
use cp_runtime::sync::Mutex;
use cp_serve::loadgen::Client;
use cp_serve::metrics::ServiceMetrics;
use cp_serve::wal::{EventKind, VisitEvent};
use cp_serve::world::VisitPlan;
use cp_serve::{AnalysisCache, EmbeddedWorld, ShardedStore};
use std::sync::Arc;

/// What one visit did, from the crawler's point of view.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlVisit {
    /// Cookie names newly marked useful by this visit.
    pub marked_now: Vec<String>,
    /// Total marks for the site after this visit.
    pub marked_total: usize,
    /// Whether FORCUM training is still active for the site.
    pub training_active: bool,
    /// `name=value` cookies the site issued for the visited path — the
    /// crawler's per-path jar entry for its next visit there.
    pub set_cookies: Vec<String>,
    /// Inconclusive-reason label when the probe deferred.
    pub inconclusive: Option<String>,
}

/// Result of driving one visit.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveResult {
    /// The visit ran; here is what happened.
    Visited(CrawlVisit),
    /// The resolver rejected the host — drop it from the frontier.
    UnknownHost,
    /// The visit could not be delivered (HTTP transport failure, WAL
    /// append failure); retry under the backoff policy.
    Transport(String),
}

/// Result of driving one mark-expiry probe.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpireResult {
    /// The expiry applied; this many marks were actually dropped.
    Expired(usize),
    /// The resolver rejected the host.
    UnknownHost,
    /// The expiry could not be delivered; the crawler restores the mark
    /// ages and retries.
    Transport(String),
}

/// The crawler's path to the world. Implementations must be callable from
/// the worker pool, hence `Sync`.
pub trait VisitDriver: Sync {
    /// Drives one FORCUM visit.
    fn visit(&self, host: &str, path: &str, cookie_header: Option<&str>) -> DriveResult;

    /// Expires `cookies`' usefulness marks on `host` (the ones still
    /// marked), restarting the site's training.
    fn expire(&self, host: &str, cookies: &[String]) -> ExpireResult;

    /// Every useful mark, as sorted `host cookie` lines.
    fn marks(&self) -> Vec<String>;
}

/// Drives visits against an [`EmbeddedWorld`] + [`ShardedStore`] in this
/// process — the same plan → journal → apply → finish sequence as the
/// server's `POST /v1/visit`, minus the TCP.
pub struct InProcessDriver {
    world: EmbeddedWorld,
    store: ShardedStore,
    config: CookiePickerConfig,
    analyses: AnalysisCache,
    metrics: Arc<ServiceMetrics>,
}

impl InProcessDriver {
    /// Wires a driver from its parts. The store may be durable (visits go
    /// through `transact`, so WAL appends still gate acks) or in-memory.
    pub fn new(
        world: EmbeddedWorld,
        store: ShardedStore,
        config: CookiePickerConfig,
        analyses: AnalysisCache,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        InProcessDriver { world, store, config, analyses, metrics }
    }

    /// The embedded world this driver visits.
    pub fn world(&self) -> &EmbeddedWorld {
        &self.world
    }

    /// The training store behind this driver.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }
}

impl VisitDriver for InProcessDriver {
    fn visit(&self, host: &str, path: &str, cookie_header: Option<&str>) -> DriveResult {
        if !self.world.contains(host) {
            // Same accounting as the server's 404: the rejection shows up
            // in cp_site_derive_total{result="unknown"}.
            self.metrics.site_derive.inc("unknown");
            return DriveResult::UnknownHost;
        }
        let outcome = self.store.transact(
            host,
            |entry| match self.world.plan_visit(
                entry,
                host,
                path,
                cookie_header,
                &self.config,
                &self.analyses,
                &self.metrics,
            ) {
                Some((event, plan)) => (Some(event), Some(plan)),
                None => (None, None),
            },
            |entry, marked_now, plan: Option<VisitPlan>| plan.map(|p| p.finish(entry, marked_now)),
        );
        match outcome {
            Ok(Some(out)) => {
                if let Some(record) = &out.record {
                    let verdict =
                        if record.decision.cookies_caused_difference { "useful" } else { "noise" };
                    self.metrics.decisions.inc(verdict);
                }
                DriveResult::Visited(CrawlVisit {
                    marked_now: out.marked_now,
                    marked_total: out.marked_total,
                    training_active: out.training_active,
                    set_cookies: out.set_cookies,
                    inconclusive: out.inconclusive,
                })
            }
            Ok(None) => DriveResult::UnknownHost,
            Err(e) => DriveResult::Transport(e.to_string()),
        }
    }

    fn expire(&self, host: &str, cookies: &[String]) -> ExpireResult {
        if !self.world.contains(host) {
            self.metrics.site_derive.inc("unknown");
            return ExpireResult::UnknownHost;
        }
        let result = self.store.transact(
            host,
            |entry| {
                // Only cookies still marked expire; the event goes through
                // the same WAL-then-apply path as every other mutation.
                let expired: Vec<String> =
                    cookies.iter().filter(|c| entry.marked.contains(c)).cloned().collect();
                if expired.is_empty() {
                    (None, 0)
                } else {
                    let n = expired.len();
                    let event = VisitEvent {
                        host: host.to_string(),
                        observed: expired,
                        kind: EventKind::Expire,
                    };
                    (Some(event), n)
                }
            },
            |_, _, n| n,
        );
        match result {
            Ok(n) => ExpireResult::Expired(n),
            Err(e) => ExpireResult::Transport(e.to_string()),
        }
    }

    fn marks(&self) -> Vec<String> {
        self.store.marks()
    }
}

/// Drives visits against a live `cp-serve` over HTTP, with a small pool of
/// keep-alive connections (one per concurrent worker, grown on demand).
pub struct HttpDriver {
    host: String,
    port: u16,
    retries: u32,
    backoff: Duration,
    pool: Mutex<Vec<Client>>,
}

impl HttpDriver {
    /// A driver for the server at `host:port`, retrying per `retry` (the
    /// crawler's [`RetryPolicy`] maps onto the client's transport retries).
    pub fn new(host: &str, port: u16, retry: &RetryPolicy) -> Self {
        HttpDriver {
            host: host.to_string(),
            port,
            retries: retry.max_retries,
            backoff: Duration::from_millis(retry.backoff.as_millis()),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a pooled client, returning the client afterwards.
    fn with_client<R>(&self, f: impl FnOnce(&mut Client) -> R) -> R {
        let mut client = self.pool.lock().pop().unwrap_or_else(|| {
            Client::with_policy(&self.host, self.port, self.retries, self.backoff)
        });
        let result = f(&mut client);
        self.pool.lock().push(client);
        result
    }
}

impl VisitDriver for HttpDriver {
    fn visit(&self, host: &str, path: &str, cookie_header: Option<&str>) -> DriveResult {
        let mut payload = Json::object().set("host", host).set("path", path);
        if let Some(cookie) = cookie_header {
            payload = payload.set("cookie", cookie);
        }
        let body = payload.to_compact();
        let response =
            self.with_client(|client| client.request("POST", "/v1/visit", body.as_bytes()));
        let response = match response {
            Ok(response) => response,
            Err(e) => return DriveResult::Transport(e.to_string()),
        };
        match response.status {
            404 => DriveResult::UnknownHost,
            200 => match Json::parse(&response.body_string()) {
                Ok(json) => DriveResult::Visited(CrawlVisit {
                    marked_now: string_array(&json, "marked_now"),
                    marked_total: json.get("marked_total").and_then(Json::as_f64).unwrap_or(0.0)
                        as usize,
                    training_active: json
                        .get("training_active")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    set_cookies: string_array(&json, "set_cookies"),
                    inconclusive: json
                        .get("inconclusive")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                }),
                Err(_) => DriveResult::Transport("unparseable visit response".to_string()),
            },
            status => DriveResult::Transport(format!("visit returned {status}")),
        }
    }

    fn expire(&self, host: &str, cookies: &[String]) -> ExpireResult {
        let body = Json::object().set("host", host).set("cookies", cookies.to_vec()).to_compact();
        let response =
            self.with_client(|client| client.request("POST", "/v1/expire", body.as_bytes()));
        let response = match response {
            Ok(response) => response,
            Err(e) => return ExpireResult::Transport(e.to_string()),
        };
        match response.status {
            404 => ExpireResult::UnknownHost,
            200 => match Json::parse(&response.body_string()) {
                Ok(json) => ExpireResult::Expired(
                    json.get("expired").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                ),
                Err(_) => ExpireResult::Transport("unparseable expire response".to_string()),
            },
            status => ExpireResult::Transport(format!("expire returned {status}")),
        }
    }

    fn marks(&self) -> Vec<String> {
        let response = self.with_client(|client| client.request("GET", "/v1/marks", b""));
        match response {
            Ok(response) if response.status == 200 => {
                response.body_string().lines().map(str::to_string).collect()
            }
            _ => Vec::new(),
        }
    }
}

fn string_array(json: &Json, field: &str) -> Vec<String> {
    json.get(field)
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(Json::as_str).map(str::to_string).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_webworld::WorldKind;

    fn driver() -> InProcessDriver {
        let config = CookiePickerConfig::default();
        let store = ShardedStore::new(8, config.stability_window);
        InProcessDriver::new(
            EmbeddedWorld::with_world(7, WorldKind::Table1, 256),
            store,
            config,
            AnalysisCache::new(256),
            Arc::new(ServiceMetrics::new()),
        )
    }

    #[test]
    fn unknown_host_is_rejected_and_counted() {
        let d = driver();
        assert_eq!(d.visit("bogus.example", "/", None), DriveResult::UnknownHost);
        assert_eq!(d.expire("bogus.example", &["x".to_string()]), ExpireResult::UnknownHost);
        assert_eq!(d.metrics.site_derive_count("unknown"), 2);
        assert_eq!(d.store().site_count(), 0, "rejected hosts never enter the store");
    }

    #[test]
    fn visit_expire_round_trip() {
        let d = driver();
        let host = d.world().hosts()[0].clone();
        let first = match d.visit(&host, "/", None) {
            DriveResult::Visited(v) => v,
            other => panic!("expected a visit, got {other:?}"),
        };
        assert!(first.training_active);
        assert!(!first.set_cookies.is_empty());
        // Expiring a never-marked cookie is a no-op (no event journaled).
        assert_eq!(d.expire(&host, &["nope".to_string()]), ExpireResult::Expired(0));
        // Force a mark into the store, then expire it through the driver.
        d.store().with_entry(&host, |e| {
            e.marked.insert("sid");
        });
        assert_eq!(d.expire(&host, &["sid".to_string()]), ExpireResult::Expired(1));
        assert!(d.marks().is_empty());
        assert!(
            d.store().read_entry(&host, |e| e.forcum.is_active(&host)).unwrap(),
            "expiry restarts training"
        );
    }
}
