//! The embedded synthetic Web the service trains against.
//!
//! `POST /v1/visit` runs one FORCUM step: render the regular page for the
//! visited host with the cookies the client presented, render the hidden
//! version with the not-yet-marked persistent cookies stripped, run the
//! Figure-5 decision, and update the site's training state in the sharded
//! store.
//!
//! Unlike `cp_webworld::SiteServer` (which draws page-dynamics noise from
//! one shared RNG, making renders depend on global request order), the
//! embedded world derives the noise RNG from `(site seed, path, variant)`
//! — every render is a pure function of the request, so a fixed visit mix
//! produces identical decision counters no matter how worker threads
//! interleave. That is both the scalability story (no global RNG lock on
//! the hot path) and what makes `loadgen` runs reproducible.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use cookiepicker_core::{decide_analyzed, CookiePickerConfig, DetectionRecord};
use cp_cookies::{parse_cookie_header, SimTime};
use cp_net::{FaultKind, FaultRates};
use cp_runtime::json::{escape_into, Json, ToJson};
use cp_runtime::lru::Lru;
use cp_runtime::rng::{SeedableRng, StdRng};
use cp_runtime::sync::Mutex;
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::universe::{Universe, WorldKind};
use cp_webworld::SiteSpec;

use crate::cache::AnalysisCache;
use crate::metrics::ServiceMetrics;
use crate::store::SiteEntry;
use crate::wal::{EventKind, VisitEvent};

/// Noise-stream salts for the two page variants of one visit. Distinct
/// salts mean the regular and hidden renders see *different* page-dynamics
/// noise — exactly the adversarial condition the detectors must reject.
const REGULAR_SALT: u64 = 0x5245_4755_4c41_5221;
const HIDDEN_SALT: u64 = 0x4849_4444_454e_5f21;

/// Chaos mode: deterministic fault injection for the embedded world's
/// hidden fetches. Each probe's fate is a pure function of
/// `(seed, host, path, probe sequence, attempt)`, so a chaos run is as
/// reproducible as a fault-free one — and a rate-zero config is
/// behaviorally identical to no chaos at all.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the per-fetch fault rolls (independent of the world seed).
    pub seed: u64,
    /// Fault rates applied to hidden fetches.
    pub rates: FaultRates,
    /// Retries after a faulted hidden fetch before the probe defers.
    pub retries: u32,
}

impl ChaosConfig {
    /// A config injecting faults at `rate` (split across fault kinds, as in
    /// [`FaultRates::uniform`]) with the default retry budget.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        ChaosConfig { seed, rates: FaultRates::uniform(rate), retries: 2 }
    }
}

/// The `cp_hidden_fetch_total` result label and the inconclusive reason a
/// fault kind maps to.
fn fault_labels(kind: &FaultKind) -> (&'static str, &'static str) {
    match kind {
        FaultKind::Drop => ("drop", "transport"),
        FaultKind::Reset(_) => ("reset", "transport"),
        FaultKind::Http5xx(_) => ("http_5xx", "server_error"),
        FaultKind::Truncate => ("truncated", "truncated"),
        FaultKind::ExtraLatency(_) => ("deadline", "deadline"),
    }
}

/// FNV-1a over the chaos seed and the probe's identity. `seq` is the
/// site's probe ordinal (decided + deferred), so a deferred probe re-rolls
/// its fate on the next visit instead of failing forever.
fn chaos_key(seed: u64, host: &str, path: &str, seq: u64, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in host.bytes().chain([0xFF]).chain(path.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in seq.to_le_bytes().into_iter().chain(attempt.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The outcome of one `/v1/visit` FORCUM step.
#[derive(Debug, Clone)]
pub struct VisitOutcome {
    /// Visited host.
    pub host: String,
    /// Visited path (after entry-redirect resolution).
    pub path: String,
    /// The probe record, when a hidden request was issued (a visit with no
    /// testable cookies performs no probe).
    pub record: Option<DetectionRecord>,
    /// Cookie names newly marked useful by this visit.
    pub marked_now: Vec<String>,
    /// Total cookies marked useful for this site so far.
    pub marked_total: usize,
    /// Whether FORCUM training is still active for the site.
    pub training_active: bool,
    /// `name=value` cookies the site (re-)issues for this path — the
    /// client's jar for its next visit.
    pub set_cookies: Vec<String>,
    /// When the hidden fetch was faulted (chaos mode) and the probe
    /// deferred, the inconclusive-reason label; `None` for decided visits
    /// and visits that probe nothing.
    pub inconclusive: Option<String>,
}

impl VisitOutcome {
    /// Compact JSON rendering, byte-identical to
    /// `self.to_json().to_compact()`. The visit response is the hottest
    /// body on the serving path, so the common no-probe case writes one
    /// string directly instead of building (and then walking) a
    /// [`Json`] tree; probe responses carry a nested record and take the
    /// tree path.
    pub fn to_compact_json(&self) -> String {
        if self.record.is_some() {
            return self.to_json().to_compact();
        }
        use std::fmt::Write as _;
        let mut out = String::with_capacity(160);
        out.push_str("{\"host\":");
        escape_into(&mut out, &self.host);
        out.push_str(",\"inconclusive\":");
        match &self.inconclusive {
            Some(reason) => escape_into(&mut out, reason),
            None => out.push_str("null"),
        }
        out.push_str(",\"marked_now\":");
        write_str_array(&mut out, &self.marked_now);
        let _ = write!(out, ",\"marked_total\":{}", self.marked_total);
        out.push_str(",\"path\":");
        escape_into(&mut out, &self.path);
        out.push_str(",\"probed\":false,\"record\":null,\"set_cookies\":");
        write_str_array(&mut out, &self.set_cookies);
        out.push_str(",\"training_active\":");
        out.push_str(if self.training_active { "true" } else { "false" });
        out.push('}');
        out
    }
}

/// Compact JSON array of string literals (matches the tree rendering).
fn write_str_array(out: &mut String, items: &[String]) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, item);
    }
    out.push(']');
}

impl ToJson for VisitOutcome {
    fn to_json(&self) -> Json {
        Json::object()
            .set("host", &self.host)
            .set("path", &self.path)
            .set("probed", self.record.is_some())
            .set("record", self.record.as_ref().map(ToJson::to_json))
            .set("marked_now", self.marked_now.clone())
            .set("marked_total", self.marked_total)
            .set("training_active", self.training_active)
            .set("set_cookies", self.set_cookies.clone())
            .set("inconclusive", self.inconclusive.as_ref().map(|r| Json::from(r.as_str())))
    }
}

/// Default capacity of the derived-site LRU: comfortably holds the paper
/// populations and a hot Zipf head, bounded regardless of world size.
pub const DEFAULT_SITE_CACHE: usize = 1024;

/// A site spec derived from the universe plus what per-visit code would
/// otherwise re-format on every request: each cookie's `name=value`.
#[derive(Debug)]
pub struct DerivedSite {
    /// The derived (or pinned-overlay) spec.
    pub spec: Arc<SiteSpec>,
    /// `name=value` of each cookie in `spec.cookies`, in the same order,
    /// formatted once when the site enters the cache.
    issued: Vec<String>,
}

impl DerivedSite {
    fn new(spec: Arc<SiteSpec>) -> Self {
        let issued = spec
            .cookies
            .iter()
            .map(|c| format!("{}={}", c.name, cookie_value(&spec, &c.name)))
            .collect();
        DerivedSite { spec, issued }
    }

    /// The `name=value` cookies this site (re-)issues on `path`, in spec
    /// order — what the client should present next time, and FORCUM's
    /// new-cookie signal: the cookies whose scope matches `path`.
    pub fn issued_for(&self, path: &str) -> Vec<String> {
        self.spec
            .cookies
            .iter()
            .zip(&self.issued)
            .filter(|(c, _)| c.scope.matches(path))
            .map(|(_, issued)| issued.clone())
            .collect()
    }
}

/// How a site lookup was satisfied — the `result` label on
/// `cp_site_derive_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveOutcome {
    /// Served from the derived-site cache.
    Hit,
    /// Derived from the universe and cached.
    Miss,
    /// The host does not exist in the universe.
    Unknown,
}

impl DeriveOutcome {
    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            DeriveOutcome::Hit => "hit",
            DeriveOutcome::Miss => "miss",
            DeriveOutcome::Unknown => "unknown",
        }
    }
}

/// Bounded exact-LRU of derived sites, keyed by host, on the same [`Lru`]
/// as [`AnalysisCache`]. This is what makes a `uniform:1000000` world
/// O(cache) memory: only the hosts actually visited recently are
/// materialized.
struct SiteCache {
    entries: Mutex<Lru<String, Arc<DerivedSite>>>,
}

impl SiteCache {
    fn new(capacity: usize) -> Self {
        SiteCache { entries: Mutex::new(Lru::new(capacity)) }
    }

    /// Looks up `host`, deriving from `universe` on a miss. Returns the
    /// site (if the host exists), how the lookup was satisfied, and the
    /// derivation time in microseconds (0 for hits).
    fn get_or_derive(
        &self,
        universe: &Universe,
        host: &str,
    ) -> (Option<Arc<DerivedSite>>, DeriveOutcome, u64) {
        if let Some(site) = self.entries.lock().get(host) {
            return (Some(Arc::clone(site)), DeriveOutcome::Hit, 0);
        }
        // Derive outside the lock: misses on distinct hosts proceed in
        // parallel; a racing double-derive is benign (pure function).
        let started = Instant::now();
        let Some(spec) = universe.derive(host) else {
            return (None, DeriveOutcome::Unknown, 0);
        };
        let site = Arc::new(DerivedSite::new(spec));
        let micros = started.elapsed().as_micros() as u64;
        let site = Arc::clone(self.entries.lock().get_or_insert(host.to_string(), site));
        (Some(site), DeriveOutcome::Miss, micros)
    }
}

/// The seeded world the service trains against: a lazy [`Universe`] plus a
/// bounded cache of the sites actually being visited. No `SiteSpec` is
/// materialized at startup beyond the 36 pinned paper overlays, so startup
/// cost and resident memory are independent of the world size.
pub struct EmbeddedWorld {
    universe: Arc<Universe>,
    cache: SiteCache,
    seed: u64,
    chaos: Option<ChaosConfig>,
}

impl fmt::Debug for EmbeddedWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmbeddedWorld")
            .field("seed", &self.seed)
            .field("world", &self.universe.kind())
            .field("chaos", &self.chaos)
            .finish()
    }
}

impl EmbeddedWorld {
    /// The Table-1 world for `seed` (the service default).
    pub fn new(seed: u64) -> Self {
        EmbeddedWorld::with_world(seed, WorldKind::Table1, DEFAULT_SITE_CACHE)
    }

    /// A world of the given kind with a derived-site cache of
    /// `cache_capacity` entries.
    pub fn with_world(seed: u64, kind: WorldKind, cache_capacity: usize) -> Self {
        EmbeddedWorld {
            universe: Arc::new(Universe::new(seed, kind)),
            cache: SiteCache::new(cache_capacity),
            seed,
            chaos: None,
        }
    }

    /// Builds the Table-1 world with chaos mode on.
    pub fn with_chaos(seed: u64, chaos: ChaosConfig) -> Self {
        let mut world = EmbeddedWorld::new(seed);
        world.chaos = Some(chaos);
        world
    }

    /// Turns chaos mode on (`Some`) or off (`None`).
    pub fn set_chaos(&mut self, chaos: Option<ChaosConfig>) {
        self.chaos = chaos;
    }

    /// The active chaos config, if any.
    pub fn chaos(&self) -> Option<&ChaosConfig> {
        self.chaos.as_ref()
    }

    /// The population seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The universe this world derives from.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// Whether `host` exists in this world, without deriving its spec.
    pub fn contains(&self, host: &str) -> bool {
        self.universe.contains(host)
    }

    /// The derived site for `host`, if it exists in this world.
    pub fn site(&self, host: &str) -> Option<Arc<DerivedSite>> {
        self.cache.get_or_derive(&self.universe, host).0
    }

    /// [`EmbeddedWorld::site`], recording the lookup on `metrics`
    /// (`cp_site_derive_total{result}`; `cp_site_derive_micros` on actual
    /// derivations).
    pub fn site_recorded(&self, host: &str, metrics: &ServiceMetrics) -> Option<Arc<DerivedSite>> {
        let (site, outcome, micros) = self.cache.get_or_derive(&self.universe, host);
        metrics.site_derive.inc(outcome.label());
        if outcome == DeriveOutcome::Miss {
            metrics.site_derive_micros.observe(micros);
        }
        site
    }

    /// Number of enumerable hosts (pinned Table-2 hosts excluded, exactly
    /// as in the materialized world).
    pub fn host_count(&self) -> u64 {
        self.universe.host_count()
    }

    /// Keyset pagination over the enumerable hosts: up to `limit` hosts
    /// strictly after `after`. `None` for an unknown cursor.
    pub fn hosts_after(&self, after: Option<&str>, limit: usize) -> Option<Vec<String>> {
        self.universe.hosts_after(after, limit)
    }

    /// All enumerable hosts in canonical order. O(world size) — for tests
    /// and small-world tooling; request paths must use
    /// [`EmbeddedWorld::hosts_after`].
    pub fn hosts(&self) -> Vec<String> {
        self.universe.hosts_after(None, usize::MAX).expect("no cursor")
    }

    /// Renders one page variant deterministically: noise comes from a
    /// stream derived from `(site seed, path, salt)`, never shared state.
    fn render(
        &self,
        spec: &SiteSpec,
        path: &str,
        cookies: &[(String, String)],
        salt: u64,
    ) -> String {
        let mut noise = StdRng::seed_from_u64(mix(spec.seed, path, salt));
        let input = RenderInput { spec, path, cookies, now: SimTime::EPOCH };
        render_page(&input, &mut noise)
    }

    /// Plans one FORCUM step against `entry` **without mutating it**: all
    /// rendering, comparison, and fault rolls happen here, and the result
    /// is the single [`VisitEvent`] to apply. The durable visit path
    /// journals that event between plan and apply — the WAL append is the
    /// ack barrier, so planning must be free of store side effects.
    ///
    /// Every visit to a known host yields exactly one event: `Observe`
    /// when nothing is probed, `Defer` when the (simulated) hidden fetch
    /// faulted, `Probe` when a decision was reached. Cache traffic,
    /// detection time, and fault labels are recorded on `metrics`.
    ///
    /// Returns `None` when `host` is not part of this world.
    #[allow(clippy::too_many_arguments)] // one handler's worth of context
    pub fn plan_visit(
        &self,
        entry: &SiteEntry,
        host: &str,
        path: &str,
        cookie_header: Option<&str>,
        config: &CookiePickerConfig,
        analyses: &AnalysisCache,
        metrics: &ServiceMetrics,
    ) -> Option<(VisitEvent, VisitPlan)> {
        let site = self.site_recorded(host, metrics)?;
        let spec: &SiteSpec = &site.spec;
        // FORCUM step 1: resolve the entry redirect to the real container.
        let path = if spec.entry_redirect && path == "/" { "/home" } else { path };

        let sent: Vec<(String, String)> =
            cookie_header.map(parse_cookie_header).unwrap_or_default();

        // Step 2: the test group — persistent cookies that were attached to
        // the request and are not yet marked useful (SentCookies strategy).
        let group: Vec<String> = sent
            .iter()
            .filter(|(name, _)| {
                !entry.marked.contains(name)
                    && spec.cookies.iter().any(|c| &c.name == name && c.is_persistent())
            })
            .map(|(name, _)| name.clone())
            .collect();

        // Cookies the site (re-)issues on this path: each formatted once
        // when the site entered the derive cache, filtered by scope here.
        let set_cookies: Vec<String> = site.issued_for(path);
        let mut observed: Vec<String> = sent.iter().map(|(name, _)| name.clone()).collect();
        observed.extend(
            set_cookies.iter().filter_map(|sc| sc.split_once('=')).map(|(n, _)| n.to_string()),
        );

        if entry.forcum.is_active(host) && !group.is_empty() {
            // Chaos gate: the hidden fetch's fate is decided before any
            // rendering. A faulted fetch is retried (fresh roll per
            // attempt); if every attempt faults, the probe is
            // inconclusive and judgement defers — the suspect hidden page
            // is never compared, so a fault can delay a mark but never
            // flip one.
            if let Some(chaos) = &self.chaos {
                let seq = entry.probes as u64;
                let mut fate = None;
                for attempt in 0..=chaos.retries {
                    if attempt > 0 {
                        metrics.retry_total.inc();
                    }
                    let key = chaos_key(chaos.seed, host, path, seq, attempt);
                    fate = chaos.rates.sample(&mut StdRng::seed_from_u64(key));
                    if fate.is_none() {
                        break;
                    }
                }
                if let Some(kind) = fate {
                    let (result, reason) = fault_labels(&kind);
                    metrics.hidden_fetch.inc(result);
                    metrics.probe_inconclusive.inc(reason);
                    return Some((
                        VisitEvent { host: host.to_string(), observed, kind: EventKind::Defer },
                        VisitPlan {
                            host: host.to_string(),
                            record: None,
                            path: path.to_string(),
                            set_cookies,
                            inconclusive: Some(reason.to_string()),
                        },
                    ));
                }
            }
            metrics.hidden_fetch.inc("ok");
            let regular = self.render(spec, path, &sent, REGULAR_SALT);
            // Steps 2–3: the hidden request strips the group's cookies and
            // builds the hidden DOM with the same parser.
            let disabled: HashSet<&str> = group.iter().map(String::as_str).collect();
            let hidden_cookies: Vec<(String, String)> =
                sent.iter().filter(|(n, _)| !disabled.contains(n.as_str())).cloned().collect();
            let hidden = self.render(spec, path, &hidden_cookies, HIDDEN_SALT);

            // Step 4: identify usefulness, through the page-analysis cache.
            let detection_started = Instant::now();
            let (analysis_regular, hit) =
                analyses.get_or_analyze(&regular, config.compare_from_body);
            metrics.analysis_cache.inc(if hit { "hit" } else { "miss" });
            let (analysis_hidden, hit) = analyses.get_or_analyze(&hidden, config.compare_from_body);
            metrics.analysis_cache.inc(if hit { "hit" } else { "miss" });
            let mut decision = decide_analyzed(&analysis_regular, &analysis_hidden, config);
            decision.detection_micros = detection_started.elapsed().as_micros() as u64;
            metrics.detection.observe(decision.detection_micros);

            let marking = decision.cookies_caused_difference;
            let detection_micros = decision.detection_micros;
            let duration_ms = detection_micros as f64 / 1_000.0;
            // Step 5 (marking useful cookies) happens in `SiteEntry::apply`.
            let record = DetectionRecord {
                host: host.to_string(),
                path: path.to_string(),
                group: group.clone(),
                decision,
                hidden_latency_ms: 0,
                duration_ms,
            };
            return Some((
                VisitEvent {
                    host: host.to_string(),
                    observed,
                    kind: EventKind::Probe { group, marking, detection_micros, duration_ms },
                },
                VisitPlan {
                    host: host.to_string(),
                    record: Some(record),
                    path: path.to_string(),
                    set_cookies,
                    inconclusive: None,
                },
            ));
        }

        Some((
            VisitEvent { host: host.to_string(), observed, kind: EventKind::Observe },
            VisitPlan {
                host: host.to_string(),
                record: None,
                path: path.to_string(),
                set_cookies,
                inconclusive: None,
            },
        ))
    }

    /// Runs one FORCUM step against `entry`: plan, apply, finish. The
    /// in-memory convenience path (and what the durable path decomposes
    /// into around its WAL append).
    ///
    /// Returns `None` when `host` is not part of this world.
    #[allow(clippy::too_many_arguments)] // one handler's worth of context
    pub fn visit(
        &self,
        entry: &mut SiteEntry,
        host: &str,
        path: &str,
        cookie_header: Option<&str>,
        config: &CookiePickerConfig,
        analyses: &AnalysisCache,
        metrics: &ServiceMetrics,
    ) -> Option<VisitOutcome> {
        let (event, plan) =
            self.plan_visit(entry, host, path, cookie_header, config, analyses, metrics)?;
        let marked_now = entry.apply(&event);
        Some(plan.finish(entry, marked_now))
    }
}

/// A planned visit: everything the response needs that is not derivable
/// from the updated entry. The [`VisitEvent`] to apply travels alongside
/// (see [`EmbeddedWorld::plan_visit`]) so the durable path can journal it
/// by move instead of cloning it out of the plan.
#[derive(Debug, Clone)]
pub struct VisitPlan {
    /// Visited host.
    pub host: String,
    /// The probe record, when a hidden request was issued and decided.
    pub record: Option<DetectionRecord>,
    /// Visited path (after entry-redirect resolution).
    pub path: String,
    /// `name=value` cookies the site (re-)issues for this path.
    pub set_cookies: Vec<String>,
    /// Inconclusive-reason label when the probe deferred.
    pub inconclusive: Option<String>,
}

impl VisitPlan {
    /// Builds the [`VisitOutcome`] from the entry *after*
    /// [`SiteEntry::apply`] consumed this plan's companion event;
    /// `marked_now` is what `apply` returned.
    pub fn finish(self, entry: &SiteEntry, marked_now: Vec<String>) -> VisitOutcome {
        let training_active = entry.forcum.is_active(&self.host);
        VisitOutcome {
            host: self.host,
            path: self.path,
            record: self.record,
            marked_now,
            marked_total: entry.marked.len(),
            training_active,
            set_cookies: self.set_cookies,
            inconclusive: self.inconclusive,
        }
    }
}

/// Stable per-site cookie value (mirrors the jar-friendly values
/// `SiteServer` issues: deterministic in the site seed and cookie name).
pub fn cookie_value(spec: &SiteSpec, name: &str) -> String {
    format!("{}{:08x}", &name[..1.min(name.len())], spec.seed ^ name.len() as u64)
}

fn mix(seed: u64, path: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(23) ^ salt;
    for b in path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ShardedStore;
    use cp_webworld::table1_population;

    fn world_and_store() -> (EmbeddedWorld, ShardedStore) {
        (EmbeddedWorld::new(7), ShardedStore::new(8, 40))
    }

    fn visit(
        world: &EmbeddedWorld,
        store: &ShardedStore,
        host: &str,
        path: &str,
        cookies: Option<&str>,
    ) -> Option<VisitOutcome> {
        let config = CookiePickerConfig::default();
        let analyses = AnalysisCache::new(64);
        let metrics = ServiceMetrics::new();
        store
            .with_entry(host, |e| world.visit(e, host, path, cookies, &config, &analyses, &metrics))
    }

    #[test]
    fn fast_visit_json_matches_tree_rendering() {
        // Real outcomes from the world (with and without issued cookies)…
        let (world, store) = world_and_store();
        let host = world.hosts()[0].clone();
        for cookies in [None, Some("a=1; b=2")] {
            let outcome = visit(&world, &store, &host, "/", cookies).unwrap();
            assert_eq!(outcome.to_compact_json(), outcome.to_json().to_compact());
        }
        // …plus a synthetic one exercising every escape-needing field.
        let quirky = VisitOutcome {
            host: "we\"ird\\.example".to_string(),
            path: "/p\na\tth".to_string(),
            record: None,
            marked_now: vec!["se\u{7}ss".to_string()],
            marked_total: 3,
            training_active: true,
            set_cookies: vec!["a=\"1\"".to_string(), "b=2".to_string()],
            inconclusive: Some("time\rout".to_string()),
        };
        assert_eq!(quirky.to_compact_json(), quirky.to_json().to_compact());
    }

    #[test]
    fn issued_for_equals_the_scope_filtered_cookie_list() {
        let reference = |spec: &SiteSpec, path: &str| -> Vec<String> {
            spec.cookies
                .iter()
                .filter(|c| c.scope.matches(path))
                .map(|c| format!("{}={}", c.name, cookie_value(spec, &c.name)))
                .collect()
        };
        let worlds = [
            EmbeddedWorld::new(7),
            EmbeddedWorld::with_world(11, WorldKind::parse("uniform:100000").unwrap(), 64),
        ];
        let (mut sites, mut checked) = (0, 0);
        for world in &worlds {
            for host in world.hosts_after(None, 300).unwrap() {
                let site = world.site(&host).unwrap();
                let mut paths = site.spec.page_paths();
                // The entry-redirect target, the front page, and a path no
                // prefix scope matches.
                paths.extend(["/", "/home", "/~unscoped/page"].map(String::from));
                for path in &paths {
                    assert_eq!(site.issued_for(path), reference(&site.spec, path), "{host}{path}");
                    checked += 1;
                }
                sites += 1;
            }
        }
        assert_eq!(sites, 330, "every Table-1 site and 300 uniform ones");
        assert!(checked > 3_000, "only {checked} paths checked");
    }

    #[test]
    fn population_has_thirty_sites() {
        let world = EmbeddedWorld::new(7);
        assert_eq!(world.hosts().len(), 30);
        assert!(world.site("nonexistent.example").is_none());
    }

    #[test]
    fn unknown_host_is_none() {
        let (world, store) = world_and_store();
        assert!(visit(&world, &store, "nope.example", "/", None).is_none());
    }

    #[test]
    fn first_visit_sets_cookies_but_probes_nothing() {
        let (world, store) = world_and_store();
        let host = world.hosts()[0].to_string();
        let out = visit(&world, &store, &host, "/", None).unwrap();
        assert!(out.record.is_none(), "no cookies presented → no probe");
        assert!(!out.set_cookies.is_empty(), "site issues its cookies");
        assert!(out.training_active);
    }

    #[test]
    fn presented_cookies_trigger_a_probe() {
        let (world, store) = world_and_store();
        let host = world.hosts()[0].to_string();
        let first = visit(&world, &store, &host, "/", None).unwrap();
        let jar = first.set_cookies.join("; ");
        let second = visit(&world, &store, &host, "/page/1", Some(&jar)).unwrap();
        let record = second.record.expect("persistent cookies under test");
        assert!(!record.group.is_empty());
        assert_eq!(record.host, host);
    }

    #[test]
    fn useful_cookies_get_marked_trackers_do_not() {
        let (world, store) = world_and_store();
        // S6 (index 5) carries two really-useful preference cookies.
        let specs = table1_population(7);
        let useful_site = specs[5].domain.clone();
        let tracker_site = specs[2].domain.clone();
        for host in [&useful_site, &tracker_site] {
            let mut jar: Vec<String> = Vec::new();
            for i in 0..8 {
                let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
                let header = jar.join("; ");
                let out = visit(
                    &world,
                    &store,
                    host,
                    &path,
                    if header.is_empty() { None } else { Some(&header) },
                )
                .unwrap();
                for sc in &out.set_cookies {
                    if !jar.contains(sc) {
                        jar.push(sc.clone());
                    }
                }
            }
        }
        let marked_useful = store.read_entry(&useful_site, |e| e.marked.len()).unwrap();
        let marked_tracker = store.read_entry(&tracker_site, |e| e.marked.len()).unwrap();
        assert!(marked_useful > 0, "S6's preference cookies must be marked");
        assert_eq!(marked_tracker, 0, "pure trackers must not be marked");
    }

    #[test]
    fn visits_are_deterministic() {
        let run = || {
            let (world, store) = world_and_store();
            let mut verdicts = (0u32, 0u32);
            for host in &world.hosts() {
                let mut jar: Vec<String> = Vec::new();
                for i in 0..4 {
                    let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
                    let header = jar.join("; ");
                    let out = visit(
                        &world,
                        &store,
                        host,
                        &path,
                        if header.is_empty() { None } else { Some(&header) },
                    )
                    .unwrap();
                    if let Some(r) = &out.record {
                        if r.decision.cookies_caused_difference {
                            verdicts.0 += 1;
                        } else {
                            verdicts.1 += 1;
                        }
                    }
                    for sc in &out.set_cookies {
                        if !jar.contains(sc) {
                            jar.push(sc.clone());
                        }
                    }
                }
            }
            verdicts
        };
        let a = run();
        assert_eq!(a, run(), "same seed + same visit mix → same verdict counts");
        assert!(a.0 + a.1 > 0);
    }

    #[test]
    fn entry_redirect_resolves_to_container() {
        let (world, store) = world_and_store();
        let specs = table1_population(7);
        if let Some(spec) = specs.iter().find(|s| s.entry_redirect) {
            let out = visit(&world, &store, &spec.domain, "/", None).unwrap();
            assert_eq!(out.path, "/home");
        }
    }

    #[test]
    fn outcome_json_shape() {
        let (world, store) = world_and_store();
        let host = world.hosts()[0].to_string();
        let out = visit(&world, &store, &host, "/", None).unwrap();
        let json = out.to_json();
        assert_eq!(json.get("host").and_then(Json::as_str), Some(host.as_str()));
        assert_eq!(json.get("probed").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("record"), Some(&Json::Null));
        assert_eq!(json.get("inconclusive"), Some(&Json::Null));
        assert!(json.get("set_cookies").and_then(Json::as_array).is_some());
    }

    /// Drives every site through `rounds` passes over the same paths and
    /// returns (sorted "host cookie" marks, deferred visits, metrics).
    fn drive(world: &EmbeddedWorld, rounds: usize) -> (Vec<String>, usize, ServiceMetrics) {
        let store = ShardedStore::new(8, 40);
        let config = CookiePickerConfig::default();
        let analyses = AnalysisCache::new(256);
        let metrics = ServiceMetrics::new();
        let mut marks = Vec::new();
        let mut deferred = 0;
        for host in &world.hosts() {
            let mut jar: Vec<String> = Vec::new();
            for round in 0..rounds {
                for i in 0..6 {
                    let path = if i == 0 { "/".to_string() } else { format!("/page/{i}") };
                    let header = jar.join("; ");
                    let out = store
                        .with_entry(host, |e| {
                            world.visit(
                                e,
                                host,
                                &path,
                                if header.is_empty() { None } else { Some(&header) },
                                &config,
                                &analyses,
                                &metrics,
                            )
                        })
                        .unwrap();
                    deferred += usize::from(out.inconclusive.is_some());
                    marks.extend(out.marked_now.iter().map(|n| format!("{host} {n}")));
                    for sc in &out.set_cookies {
                        if !jar.contains(sc) {
                            jar.push(sc.clone());
                        }
                    }
                    let _ = round;
                }
            }
        }
        marks.sort_unstable();
        (marks, deferred, metrics)
    }

    #[test]
    fn zero_rate_chaos_is_identical_to_no_chaos() {
        let plain = drive(&EmbeddedWorld::new(7), 2);
        let zero = drive(&EmbeddedWorld::with_chaos(7, ChaosConfig::uniform(99, 0.0)), 2);
        assert_eq!(plain.0, zero.0, "rate 0.0 must not perturb a single decision");
        assert_eq!(zero.1, 0);
        assert_eq!(zero.2.hidden_fetch.get("ok"), plain.2.hidden_fetch.get("ok"));
    }

    #[test]
    fn chaos_defers_probes_but_never_invents_marks() {
        let (oracle, oracle_deferred, _) = drive(&EmbeddedWorld::new(7), 3);
        assert_eq!(oracle_deferred, 0, "fault-free run defers nothing");
        let chaos = ChaosConfig::uniform(0xC4A05, 0.3);
        let (marks, deferred, metrics) = drive(&EmbeddedWorld::with_chaos(7, chaos.clone()), 3);
        assert!(deferred > 0, "30% fault rate over ~540 probes must defer some");
        for mark in &marks {
            assert!(oracle.contains(mark), "chaos run invented mark {mark}");
        }
        let inconclusive: u64 = crate::metrics::INCONCLUSIVE_REASONS
            .iter()
            .map(|r| {
                let text = metrics.render_prometheus();
                let series = format!("cp_probe_inconclusive_total{{reason=\"{r}\"}}");
                crate::metrics::scrape_counter(&text, &series).unwrap()
            })
            .sum();
        assert_eq!(inconclusive, deferred as u64, "every deferral is accounted by reason");

        // Same seed, same visit mix → bit-identical chaos run.
        let again = drive(&EmbeddedWorld::with_chaos(7, chaos), 3);
        assert_eq!((marks, deferred), (again.0, again.1));
    }

    #[test]
    fn chaos_retry_rerolls_fate_across_visits() {
        // A deferred probe must not be doomed to fail forever: the fault
        // roll keys on the site's probe ordinal, so the same (host, path)
        // can succeed on a later round.
        let world = EmbeddedWorld::with_chaos(7, ChaosConfig::uniform(1, 0.5));
        let (marks, deferred, metrics) = drive(&world, 4);
        assert!(deferred > 0);
        assert!(!marks.is_empty(), "even at 50% faults, retries + rerolls land marks");
        assert!(metrics.retry_total.get() > 0, "faulted attempts trigger retries");
    }
}
