//! The in-process replay behind the per-layer numbers.
//!
//! It feeds the workload's own request sequence, in send order, through
//! the same public layer calls the server makes for each route, with a
//! span around every call:
//!
//! | span | call |
//! |---|---|
//! | `http.parse` / `http.encode` | `parse_request_buffer` / `append_response` |
//! | `json.parse` / `json.encode` | `Json::parse` of the body / the response body's writer |
//! | `store.transact` / `store.summary` | `ShardedStore::transact` / `ShardedStore::summary` |
//! | `world.plan_visit` / `world.finish` | the visit plan inside `transact`, and `VisitPlan::finish` |
//! | `world.site` / `world.render` | `EmbeddedWorld::site_recorded` / `render_page` |
//! | `cache.hit` / `cache.miss` | `AnalysisCache::get_or_analyze`, named by its result |
//! | `core.decide` | `decide_analyzed` |
//! | `wal.append` / `repl.ship` | `Wal::append` on a scratch log / `Replicator::ship` to in-process followers |
//!
//! `world.plan_visit` mirrors `EmbeddedWorld::plan_visit` step for step
//! (that function is one call, so its inner layers cannot be spanned from
//! outside); the traced pass checks every mirrored plan against the real
//! `plan_visit` run on an identical store entry. After each probe it also
//! re-parses the rendered pair (`html.parse`, `core.analyze`) and checks
//! that `decide_analyzed` is bit-identical to `decide_reference`. Those
//! checks run outside the request spans.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cookiepicker_core::{
    decide_analyzed, decide_reference, CookiePickerConfig, Decision, DetectionRecord, ForcumState,
    PageAnalysis,
};
use cp_cookies::{parse_cookie_header, SimTime};
use cp_runtime::json::{Json, ToJson};
use cp_runtime::rng::{SeedableRng, StdRng};
use cp_runtime::sync::Mutex;
use cp_serve::http::{append_response, parse_request_buffer, Limits};
use cp_serve::replication::{run_maintenance, Backlog, DEFAULT_BACKLOG_CAP};
use cp_serve::store::SiteEntry;
use cp_serve::wal::{read_log, EventKind, FsyncPolicy, VisitEvent, Wal};
use cp_serve::world::{VisitOutcome, VisitPlan};
use cp_serve::{
    AnalysisCache, EmbeddedWorld, ReplAckPolicy, Replicator, ServeConfig, ServerHandle,
    ShardedStore, WorldKind, DEFAULT_SITE_CACHE,
};
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::SiteSpec;

use crate::client::Jar;
use crate::trace::Tracer;
use crate::workload::{Req, Route, Topology, Workload, CLASSIFY_PAIRS};

/// Noise-stream salts of the regular and hidden render, as the embedded
/// world uses them.
const REGULAR_SALT: u64 = 0x5245_4755_4c41_5221;
const HIDDEN_SALT: u64 = 0x4849_4444_454e_5f21;

/// A write-ahead log's file header (magic and generation) precedes its
/// records.
const WAL_HEADER_BYTES: u64 = 16;

/// The embedded world's per-render noise seed: FNV-1a over the path,
/// keyed by the site seed and the variant salt.
fn mix(seed: u64, path: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(23) ^ salt;
    for b in path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render(spec: &SiteSpec, path: &str, cookies: &[(String, String)], salt: u64) -> String {
    let mut noise = StdRng::seed_from_u64(mix(spec.seed, path, salt));
    render_page(&RenderInput { spec, path, cookies, now: SimTime::EPOCH }, &mut noise)
}

/// Failed correctness checks and how many were made.
#[derive(Debug, Default)]
pub struct Checks {
    /// Mirrored visit plans compared against `EmbeddedWorld::plan_visit`.
    pub plans_compared: u64,
    /// Probe pairs whose `decide_analyzed` was compared with
    /// `decide_reference`.
    pub pairs_compared: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Write-ahead-log figures from the replay's scratch log.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalFigures {
    /// Records appended.
    pub records: u64,
    /// Log bytes past the header.
    pub bytes: u64,
    /// Syncs the group-commit policy issued.
    pub syncs: u64,
    /// Time spent in those syncs, µs.
    pub sync_us: u64,
}

/// What one replay pass measured.
pub struct Outcome {
    /// Summed time of the request spans (or of the same regions untraced), ns.
    pub request_ns: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Visits among them.
    pub visits: u64,
    /// Visits that probed (rendered and decided a page pair).
    pub probes: u64,
    /// `useful` verdicts over visits and classify calls.
    pub useful: u64,
    /// `noise` verdicts over visits and classify calls.
    pub noise: u64,
    /// Site lookups served from the derive cache.
    pub site_hits: u64,
    /// Site lookups that derived the site.
    pub site_misses: u64,
    /// Analysis-cache lookups that hit.
    pub cache_hits: u64,
    /// Analysis-cache lookups that compiled the page.
    pub cache_misses: u64,
    /// Request plus response bytes.
    pub wire_bytes: u64,
    /// Scratch-log figures (cluster workload only).
    pub wal: Option<WalFigures>,
    /// Correctness checks (traced pass only).
    pub checks: Checks,
}

/// The real `plan_visit`, run beside the mirrored one.
struct Oracle {
    world: EmbeddedWorld,
    cache: AnalysisCache,
    metrics: cp_serve::metrics::ServiceMetrics,
}

struct ReplRig {
    replicator: Arc<Replicator>,
    maintenance: Option<std::thread::JoinHandle<()>>,
    followers: Vec<ServerHandle>,
}

impl Drop for ReplRig {
    fn drop(&mut self) {
        self.replicator.retire();
        if let Some(handle) = self.maintenance.take() {
            let _ = handle.join();
        }
        for follower in &self.followers {
            follower.shutdown();
        }
    }
}

struct Engine<'t> {
    tracer: &'t Tracer,
    traced: bool,
    world: EmbeddedWorld,
    store: ShardedStore,
    cache: AnalysisCache,
    picker: CookiePickerConfig,
    metrics: Arc<cp_serve::metrics::ServiceMetrics>,
    limits: Limits,
    wal: Option<RefCell<Wal>>,
    repl: Option<ReplRig>,
    oracle: Option<Oracle>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    last_pair: RefCell<Option<(String, String, Decision)>>,
}

fn world_of(workload: &Workload, seed: u64) -> EmbeddedWorld {
    let kind = match workload.world {
        Some(spec) => WorldKind::parse(spec).expect("workload worlds parse"),
        None => WorldKind::Table1,
    };
    EmbeddedWorld::with_world(seed, kind, DEFAULT_SITE_CACHE)
}

impl<'t> Engine<'t> {
    fn new(
        workload: &Workload,
        seed: u64,
        tracer: &'t Tracer,
        traced: bool,
        dir: &Path,
    ) -> Result<Self, String> {
        let defaults = ServeConfig::default();
        let picker = defaults.picker.clone();
        let metrics = Arc::new(cp_serve::metrics::ServiceMetrics::new());
        let (wal, repl) = if workload.topology == Topology::Cluster {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = dir.join("replay-wal.log");
            let contents = read_log(&path).map_err(|e| e.to_string())?;
            let wal = Wal::open(&path, &contents, 1, FsyncPolicy::Batch, None, 0, &metrics)
                .map_err(|e| format!("scratch wal: {e}"))?;
            (Some(RefCell::new(wal)), Some(repl_rig(seed, dir, &metrics)?))
        } else {
            (None, None)
        };
        let oracle = traced.then(|| Oracle {
            world: world_of(workload, seed),
            cache: AnalysisCache::new(defaults.cache_capacity),
            metrics: cp_serve::metrics::ServiceMetrics::new(),
        });
        Ok(Engine {
            tracer,
            traced,
            world: world_of(workload, seed),
            store: ShardedStore::new(defaults.shards, picker.stability_window),
            cache: AnalysisCache::new(defaults.cache_capacity),
            picker,
            metrics,
            limits: defaults.limits,
            wal,
            repl,
            oracle,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            last_pair: RefCell::new(None),
        })
    }

    fn lookup(&self, html: &str) -> Arc<PageAnalysis> {
        let open = self.tracer.enter("cache.lookup");
        let (analysis, hit) = self.cache.get_or_analyze(html, self.picker.compare_from_body);
        self.tracer.exit_as(open, Some(if hit { "cache.hit" } else { "cache.miss" }));
        let counter = if hit { &self.cache_hits } else { &self.cache_misses };
        counter.set(counter.get() + 1);
        analysis
    }

    /// `EmbeddedWorld::plan_visit` without chaos, one span per layer call.
    fn plan(
        &self,
        entry: &SiteEntry,
        host: &str,
        path: &str,
        cookie_header: Option<&str>,
    ) -> Option<(VisitEvent, VisitPlan)> {
        let t = self.tracer;
        let site = t.span("world.site", || self.world.site_recorded(host, &self.metrics))?;
        let spec: &SiteSpec = &site.spec;
        let path = if spec.entry_redirect && path == "/" { "/home" } else { path };
        let sent: Vec<(String, String)> =
            cookie_header.map(parse_cookie_header).unwrap_or_default();
        let group: Vec<String> = sent
            .iter()
            .filter(|(name, _)| {
                !entry.marked.contains(name)
                    && spec.cookies.iter().any(|c| &c.name == name && c.is_persistent())
            })
            .map(|(name, _)| name.clone())
            .collect();
        let set_cookies: Vec<String> = site.issued_for(path);
        let mut observed: Vec<String> = sent.iter().map(|(name, _)| name.clone()).collect();
        observed.extend(
            set_cookies.iter().filter_map(|sc| sc.split_once('=')).map(|(n, _)| n.to_string()),
        );
        let plan = |record| VisitPlan {
            host: host.to_string(),
            record,
            path: path.to_string(),
            set_cookies: set_cookies.clone(),
            inconclusive: None,
        };
        if !entry.forcum.is_active(host) || group.is_empty() {
            let event = VisitEvent { host: host.to_string(), observed, kind: EventKind::Observe };
            return Some((event, plan(None)));
        }
        let regular = t.span("world.render", || render(spec, path, &sent, REGULAR_SALT));
        let disabled: HashSet<&str> = group.iter().map(String::as_str).collect();
        let hidden_cookies: Vec<(String, String)> =
            sent.iter().filter(|(n, _)| !disabled.contains(n.as_str())).cloned().collect();
        let hidden = t.span("world.render", || render(spec, path, &hidden_cookies, HIDDEN_SALT));
        let detection_started = Instant::now();
        let analysis_regular = self.lookup(&regular);
        let analysis_hidden = self.lookup(&hidden);
        let mut decision = t.span("core.decide", || {
            decide_analyzed(&analysis_regular, &analysis_hidden, &self.picker)
        });
        decision.detection_micros = detection_started.elapsed().as_micros() as u64;
        let marking = decision.cookies_caused_difference;
        let detection_micros = decision.detection_micros;
        let duration_ms = detection_micros as f64 / 1_000.0;
        if self.traced {
            *self.last_pair.borrow_mut() = Some((regular, hidden, decision.clone()));
        }
        let record = DetectionRecord {
            host: host.to_string(),
            path: path.to_string(),
            group: group.clone(),
            decision,
            hidden_latency_ms: 0,
            duration_ms,
        };
        let event = VisitEvent {
            host: host.to_string(),
            observed,
            kind: EventKind::Probe { group, marking, detection_micros, duration_ms },
        };
        Some((event, plan(Some(record))))
    }

    /// The real `plan_visit` on the entry `transact` is about to see.
    fn oracle_plan(&self, host: &str, path: &str, cookie: Option<&str>) -> Option<VisitPlan> {
        let oracle = self.oracle.as_ref()?;
        let run = |entry: &SiteEntry| {
            oracle
                .world
                .plan_visit(entry, host, path, cookie, &self.picker, &oracle.cache, &oracle.metrics)
                .map(|(_, plan)| plan)
        };
        match self.store.read_entry(host, run) {
            Some(plan) => plan,
            None => run(&SiteEntry {
                forcum: ForcumState::new(self.picker.stability_window),
                ..SiteEntry::default()
            }),
        }
    }

    /// Serves one request; returns the time spent inside its request
    /// region, ns.
    fn serve(&self, id: u32, req: &Req, jar: &mut Jar, out: &mut Outcome) -> Result<u64, String> {
        let cookie = jar.header_for(req);
        let mut wire = Vec::with_capacity(512);
        req.wire(cookie.as_deref(), &mut wire);
        let expected = match req.route {
            Route::Visit => self.oracle_plan(&req.host, &req.path, cookie.as_deref()),
            _ => None,
        };
        let t = self.tracer;
        t.set_request(id);
        let started = Instant::now();
        let root = t.enter(req.route.label());
        let mut response = Vec::with_capacity(1024);
        let request = match t.span("http.parse", || parse_request_buffer(&wire, &self.limits)) {
            Ok(Some((request, _))) => request,
            _ => return Err(format!("request {id} did not parse")),
        };
        let body_json = |body: &[u8]| {
            t.span("json.parse", || Json::parse(std::str::from_utf8(body).unwrap_or("")))
                .map_err(|e| format!("request {id} body: {e}"))
        };
        let mut visited: Option<VisitOutcome> = None;
        let (status, reason, body) = match req.route {
            Route::Visit => {
                let json = body_json(&request.body)?;
                let host = json.get("host").and_then(Json::as_str).unwrap_or("");
                let path = json.get("path").and_then(Json::as_str).unwrap_or("/");
                let cookie = json.get("cookie").and_then(Json::as_str);
                let outcome = t.span("store.transact", || {
                    self.store.transact(
                        host,
                        |entry| match t
                            .span("world.plan_visit", || self.plan(entry, host, path, cookie))
                        {
                            Some((event, plan)) => (Some(event), Some(plan)),
                            None => (None, None),
                        },
                        |entry, marked_now, plan: Option<VisitPlan>| {
                            t.span("world.finish", || plan.map(|p| p.finish(entry, marked_now)))
                        },
                    )
                });
                let outcome = outcome
                    .map_err(|e| format!("visit {id}: {e}"))?
                    .ok_or_else(|| format!("visit {id}: unknown host {host}"))?;
                if self.wal.is_some() || self.repl.is_some() {
                    let event = event_of(&outcome, cookie);
                    if let Some(wal) = &self.wal {
                        t.span("wal.append", || wal.borrow_mut().append(&event))
                            .map_err(|e| format!("scratch wal append: {e}"))?;
                    }
                    if let Some(repl) = &self.repl {
                        t.span("repl.ship", || repl.replicator.ship(&event))
                            .map_err(|e| format!("replication ship: {e}"))?;
                    }
                }
                let body = t.span("json.encode", || outcome.to_compact_json());
                visited = Some(outcome);
                (200, "OK", body)
            }
            Route::Classify => {
                let json = body_json(&request.body)?;
                let regular = json.get("regular").and_then(Json::as_str).unwrap_or("");
                let hidden = json.get("hidden").and_then(Json::as_str).unwrap_or("");
                let a = self.lookup(regular);
                let b = self.lookup(hidden);
                let decision = t.span("core.decide", || decide_analyzed(&a, &b, &self.picker));
                count_verdict(out, decision.cookies_caused_difference);
                (200, "OK", t.span("json.encode", || decision.to_json().to_compact()))
            }
            Route::Sites => match t.span("store.summary", || self.store.summary(&req.host)) {
                Some(summary) => {
                    (200, "OK", t.span("json.encode", || summary.to_json().to_compact()))
                }
                None => {
                    let body = t.span("json.encode", || {
                        Json::object().set("error", "site not yet visited").to_compact()
                    });
                    (404, "Not Found", body)
                }
            },
            Route::Healthz => {
                let body = t.span("json.encode", || {
                    Json::object()
                        .set("status", "ok")
                        .set("sites_trained", self.store.site_count())
                        .to_compact()
                });
                (200, "OK", body)
            }
        };
        t.span("http.encode", || {
            append_response(
                &mut response,
                status,
                reason,
                "application/json",
                body.as_bytes(),
                true,
            )
        });
        t.exit(root);
        let elapsed = started.elapsed().as_nanos() as u64;

        out.requests += 1;
        out.wire_bytes += (wire.len() + response.len()) as u64;
        if let Some(outcome) = visited {
            out.visits += 1;
            if let Some(record) = &outcome.record {
                out.probes += 1;
                count_verdict(out, record.decision.cookies_caused_difference);
            }
            jar.store(&req.host, outcome.set_cookies.iter().map(String::as_str));
            if let Some(plan) = expected {
                out.checks.plans_compared += 1;
                if let Some(why) = plan_mismatch(&plan, &outcome) {
                    out.checks.failures.push(format!("visit {id} to {}: {why}", req.host));
                }
            }
        }
        if let Some((regular, hidden, decision)) = self.last_pair.borrow_mut().take() {
            self.check_pair(id, &regular, &hidden, &decision, &mut out.checks);
        }
        Ok(elapsed)
    }

    /// Re-parses a rendered probe pair and checks `decide_analyzed`
    /// against `decide_reference`, bit for bit.
    fn check_pair(
        &self,
        id: u32,
        regular: &str,
        hidden: &str,
        served: &Decision,
        checks: &mut Checks,
    ) {
        let t = self.tracer;
        t.set_request(id);
        let doc_regular = t.span("html.parse", || cp_html::parse_document(regular));
        let doc_hidden = t.span("html.parse", || cp_html::parse_document(hidden));
        let from_body = self.picker.compare_from_body;
        let a = t.span("core.analyze", || PageAnalysis::from_document(&doc_regular, from_body));
        let b = t.span("core.analyze", || PageAnalysis::from_document(&doc_hidden, from_body));
        let fresh = decide_analyzed(&a, &b, &self.picker);
        let reference =
            t.span("core.reference", || decide_reference(&doc_regular, &doc_hidden, &self.picker));
        checks.pairs_compared += 1;
        for (label, decision) in [("fresh analyses", &fresh), ("served (cached) analyses", served)]
        {
            if !same_decision(decision, &reference) {
                checks.failures.push(format!(
                    "request {id}: decide_analyzed over {label} ({}, {}, {}) != decide_reference ({}, {}, {})",
                    decision.tree_sim,
                    decision.text_sim,
                    decision.cookies_caused_difference,
                    reference.tree_sim,
                    reference.text_sim,
                    reference.cookies_caused_difference
                ));
            }
        }
    }
}

fn count_verdict(out: &mut Outcome, useful: bool) {
    if useful {
        out.useful += 1;
    } else {
        out.noise += 1;
    }
}

fn same_decision(a: &Decision, b: &Decision) -> bool {
    a.tree_sim.to_bits() == b.tree_sim.to_bits()
        && a.text_sim.to_bits() == b.text_sim.to_bits()
        && a.cookies_caused_difference == b.cookies_caused_difference
}

/// Where a mirrored visit differs from the real `plan_visit`'s plan
/// (timings aside), if anywhere.
fn plan_mismatch(expected: &VisitPlan, got: &VisitOutcome) -> Option<String> {
    if expected.path != got.path || expected.set_cookies != got.set_cookies {
        return Some(format!("path/cookies {:?} vs {:?}", expected.path, got.path));
    }
    match (&expected.record, &got.record) {
        (None, None) => None,
        (Some(e), Some(g)) if e.group == g.group && same_decision(&e.decision, &g.decision) => None,
        (e, g) => Some(format!(
            "probe {:?} vs {:?}",
            e.as_ref().map(|r| (&r.group, r.decision.tree_sim, r.decision.text_sim)),
            g.as_ref().map(|r| (&r.group, r.decision.tree_sim, r.decision.text_sim))
        )),
    }
}

/// The event the server journals and ships for `outcome`.
fn event_of(outcome: &VisitOutcome, cookie: Option<&str>) -> VisitEvent {
    let mut observed: Vec<String> =
        cookie.map(parse_cookie_header).unwrap_or_default().into_iter().map(|(n, _)| n).collect();
    observed.extend(
        outcome.set_cookies.iter().filter_map(|sc| sc.split_once('=')).map(|(n, _)| n.to_string()),
    );
    let kind = match &outcome.record {
        None => EventKind::Observe,
        Some(record) => EventKind::Probe {
            group: record.group.clone(),
            marking: record.decision.cookies_caused_difference,
            detection_micros: record.decision.detection_micros,
            duration_ms: record.duration_ms,
        },
    };
    VisitEvent { host: outcome.host.clone(), observed, kind }
}

/// Two durable in-process followers and a quorum replicator leading them.
fn repl_rig(
    seed: u64,
    dir: &Path,
    metrics: &Arc<cp_serve::metrics::ServiceMetrics>,
) -> Result<ReplRig, String> {
    let mut followers = Vec::new();
    for i in 0..2 {
        let config = ServeConfig {
            seed,
            repl_port: Some(0),
            data_dir: Some(dir.join(format!("replay-follower{i}"))),
            fsync: FsyncPolicy::Batch,
            ..ServeConfig::default()
        };
        followers.push(cp_serve::start(config).map_err(|e| format!("replay follower: {e}"))?);
    }
    let addrs: Vec<String> = followers
        .iter()
        .map(|f| f.repl_addr().expect("followers bind a replication port").to_string())
        .collect();
    let replicator = Arc::new(
        Replicator::connect(
            &addrs,
            1,
            ReplAckPolicy::Quorum,
            "127.0.0.1:1".to_string(),
            Arc::new(Mutex::new(Backlog::new(DEFAULT_BACKLOG_CAP))),
            Arc::clone(metrics),
        )
        .map_err(|e| format!("replay replicator: {e}"))?,
    );
    let maintained = Arc::clone(&replicator);
    let maintenance = Some(std::thread::spawn(move || run_maintenance(maintained)));
    Ok(ReplRig { replicator, maintenance, followers })
}

/// Replays `requests` (`(client thread, request)` in send order) through
/// a fresh in-process stack. `traced` records spans and runs the
/// correctness checks; untraced runs the same calls bare.
pub fn run(
    workload: &Workload,
    seed: u64,
    requests: &[(usize, Req)],
    tracer: &Tracer,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let engine = Engine::new(workload, seed, tracer, traced, dir)?;
    let threads = requests.iter().map(|(t, _)| t + 1).max().unwrap_or(1);
    let mut jars: Vec<Jar> = (0..threads).map(|_| Jar::default()).collect();
    let mut out = Outcome {
        request_ns: 0,
        requests: 0,
        visits: 0,
        probes: 0,
        useful: 0,
        noise: 0,
        site_hits: 0,
        site_misses: 0,
        cache_hits: 0,
        cache_misses: 0,
        wire_bytes: 0,
        wal: None,
        checks: Checks::default(),
    };
    for (id, (thread, req)) in requests.iter().enumerate() {
        out.request_ns += engine.serve(id as u32, req, &mut jars[*thread], &mut out)?;
    }
    // Classify pairs are fixed inputs, so they are checked once here.
    if traced {
        for (regular, hidden) in CLASSIFY_PAIRS {
            let a = PageAnalysis::from_html(regular, engine.picker.compare_from_body);
            let b = PageAnalysis::from_html(hidden, engine.picker.compare_from_body);
            let served = decide_analyzed(&a, &b, &engine.picker);
            let reference = decide_reference(
                &cp_html::parse_document(regular),
                &cp_html::parse_document(hidden),
                &engine.picker,
            );
            out.checks.pairs_compared += 1;
            if !same_decision(&served, &reference) {
                out.checks
                    .failures
                    .push("classify pair: decide_analyzed != decide_reference".into());
            }
        }
    }
    out.site_hits = engine.metrics.site_derive_count("hit");
    out.site_misses = engine.metrics.site_derive_count("miss");
    out.cache_hits = engine.cache_hits.get();
    out.cache_misses = engine.cache_misses.get();
    out.wal = engine.wal.as_ref().map(|wal| {
        let wal = wal.borrow();
        WalFigures {
            records: wal.records(),
            bytes: wal.committed().saturating_sub(WAL_HEADER_BYTES),
            syncs: engine.metrics.wal_fsync.count(),
            sync_us: engine.metrics.wal_fsync.sum_micros(),
        }
    });
    Ok(out)
}
