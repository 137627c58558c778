//! The autonomous crawl loop: discrete-tick scheduling over the frontier.
//!
//! Time is virtual. Each tick the crawler pops at most `workers` due
//! entries (hosts are distinct by the one-entry-per-host invariant),
//! executes them on a worker pool, and processes the outcomes **in pop
//! order**. Pop order is fully determined by the frontier's
//! `(due, class, seq)` key and outcome processing is ordered, so a crawl
//! is a pure function of `(seed, config)` — byte-identical visit order
//! and final marks no matter how the worker threads interleave. When
//! nothing is due the clock fast-forwards to the next due tick, so an
//! idle frontier costs nothing.
//!
//! One tick corresponds to [`TICK_MILLIS`] of simulated time; the retry
//! policy's millisecond backoffs are mapped onto ticks through it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cookiepicker_core::RetryPolicy;
use cp_runtime::json::{Json, ToJson};
use cp_serve::metrics::ServiceMetrics;
use cp_webworld::table1_population;
use cp_webworld::universe::{Universe, WorldKind};

use crate::driver::{DriveResult, ExpireResult, VisitDriver};
use crate::frontier::{Frontier, Priority};
use crate::politeness::{HostBudget, Politeness};
use crate::revisit::MarkAges;

/// Simulated milliseconds per scheduler tick. The retry policy's default
/// 250 ms base backoff is exactly one tick.
pub const TICK_MILLIS: u64 = 250;

/// Crawl parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlConfig {
    /// Seed for the world (must match the server's in HTTP mode).
    pub seed: u64,
    /// Which world the frontier enumerates.
    pub world: WorldKind,
    /// Concurrent visits per tick (worker-pool width).
    pub workers: usize,
    /// Stop after this many virtual ticks (`None` = run to convergence).
    pub ticks: Option<u64>,
    /// Stop after this much wall-clock time (`None` = no wall cap). A
    /// duration-capped run trades determinism for throughput measurement.
    pub duration: Option<Duration>,
    /// Usefulness TTL in ticks: marks older than this decay into the
    /// re-verification queue. `None` = marks never decay (hosts retire
    /// once dormant).
    pub ttl_ticks: Option<u64>,
    /// Per-host politeness budget.
    pub politeness: Politeness,
    /// Retry/backoff policy for inconclusive probes and transport
    /// failures (milliseconds are mapped to ticks via [`TICK_MILLIS`]).
    pub retry: RetryPolicy,
    /// Hosts fetched per keyset-discovery page.
    pub discover_batch: usize,
    /// Discovery refills the frontier whenever it drops below this.
    pub low_water: usize,
    /// Cap on hosts discovered via enumeration (`None` = the whole world).
    pub max_hosts: Option<u64>,
    /// Extra hosts injected into the frontier at tick 0, ahead of
    /// discovery — e.g. stale hosts the world no longer resolves.
    pub extra_hosts: Vec<String>,
    /// Record one `"tick host path"` line per visit (tests; unbounded, so
    /// keep it off for large worlds).
    pub record_log: bool,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            seed: 7,
            world: WorldKind::Table1,
            workers: 4,
            ticks: None,
            duration: None,
            ttl_ticks: None,
            politeness: Politeness::default(),
            retry: RetryPolicy::default(),
            discover_batch: 256,
            low_water: 64,
            max_hosts: None,
            extra_hosts: Vec::new(),
            record_log: false,
        }
    }
}

/// Table-1 reproduction audit, computed when the crawl ran the Table-1
/// world: the paper's persistent-cookie universe vs what got marked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Audit {
    /// Persistent cookies across the population (the paper counts 103).
    pub persistent: usize,
    /// Cookies marked useful (the paper marks 7).
    pub marked: usize,
    /// Marked cookies that are really useful per the site specs (3).
    pub real: usize,
}

/// What a crawl did.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// The world crawled.
    pub world: String,
    /// The population seed.
    pub seed: u64,
    /// Worker-pool width.
    pub workers: usize,
    /// Virtual ticks elapsed.
    pub ticks: u64,
    /// Wall-clock duration, milliseconds.
    pub elapsed_ms: f64,
    /// Visits completed (any outcome the driver returned).
    pub visits: u64,
    /// Visits per wall-clock second.
    pub visits_per_sec: f64,
    /// Hosts discovered via keyset enumeration.
    pub discovered: u64,
    /// Hosts retired (dormant, nothing left to watch).
    pub retired: u64,
    /// TTL-expiry probes delivered.
    pub expiries: u64,
    /// Marks actually dropped by those probes.
    pub expired_marks: u64,
    /// Hosts dropped because the resolver rejected them.
    pub unknown_hosts: u64,
    /// Visits whose probe deferred (inconclusive).
    pub inconclusive: u64,
    /// Backoff reschedules (inconclusive or transport).
    pub backoffs: u64,
    /// Transport failures observed.
    pub transport_errors: u64,
    /// Revisit lag median, in ticks (0 = the frontier keeps up).
    pub revisit_lag_p50_ticks: f64,
    /// Revisit lag 99th percentile, in ticks.
    pub revisit_lag_p99_ticks: f64,
    /// Frontier depth when the crawl stopped.
    pub frontier_depth_final: usize,
    /// Hosts with live crawl state when the crawl stopped.
    pub hosts_tracked_final: usize,
    /// Peak resident set (`VmHWM`), in kB; 0 where unavailable.
    pub max_rss_kb: u64,
    /// FNV-1a digest over the executed `(tick, host, path)` sequence —
    /// two same-seed runs must agree byte-for-byte.
    pub order_digest: String,
    /// Every useful mark after the crawl, as sorted `host cookie` lines.
    pub marks: Vec<String>,
    /// Table-1 audit (Table-1 worlds only).
    pub table1: Option<Table1Audit>,
    /// One `"tick host path"` line per visit, when
    /// [`CrawlConfig::record_log`] was set.
    pub visit_log: Vec<String>,
}

impl ToJson for CrawlReport {
    fn to_json(&self) -> Json {
        let mut json = Json::object()
            .set("world", self.world.as_str())
            .set("seed", self.seed)
            .set("workers", self.workers)
            .set("ticks", self.ticks)
            .set("elapsed_ms", self.elapsed_ms)
            .set("visits", self.visits)
            .set("visits_per_sec", self.visits_per_sec)
            .set("discovered", self.discovered)
            .set("retired", self.retired)
            .set("expiries", self.expiries)
            .set("expired_marks", self.expired_marks)
            .set("unknown_hosts", self.unknown_hosts)
            .set("inconclusive", self.inconclusive)
            .set("backoffs", self.backoffs)
            .set("transport_errors", self.transport_errors)
            .set("revisit_lag_p50_ticks", self.revisit_lag_p50_ticks)
            .set("revisit_lag_p99_ticks", self.revisit_lag_p99_ticks)
            .set("frontier_depth_final", self.frontier_depth_final)
            .set("hosts_tracked_final", self.hosts_tracked_final)
            .set("max_rss_kb", self.max_rss_kb)
            .set("order_digest", self.order_digest.as_str())
            .set("marks_count", self.marks.len());
        if let Some(audit) = &self.table1 {
            json = json.set(
                "table1",
                Json::object()
                    .set("persistent", audit.persistent)
                    .set("marked", audit.marked)
                    .set("real", audit.real),
            );
        }
        json
    }
}

/// Per-host crawl state. Dropped when the host retires or is rejected —
/// the resident footprint scales with the *active* frontier, not the
/// world.
struct HostState {
    /// Canonical page paths, visited round-robin.
    paths: Vec<String>,
    /// Next round-robin index into `paths`.
    next_path: usize,
    /// Per-path cookie jar: exactly the `set_cookies` the last visit to
    /// that path returned. Presenting the path-scoped jar (rather than a
    /// cumulative union) reproduces browser cookie-scope semantics — a
    /// cumulative jar lets section trackers piggyback into probe groups
    /// and over-marks the Table-1 world.
    jar: HashMap<String, Vec<String>>,
    /// Politeness budget.
    budget: HostBudget,
    /// Consecutive failed attempts (inconclusive or transport).
    attempts: u32,
    /// Birth ticks of this host's usefulness marks.
    ages: MarkAges,
}

/// One scheduled unit of work for the worker pool.
enum Job {
    Visit { host: String, path: String, cookie: Option<String> },
    Expire { host: String, cookies: Vec<(String, u64)> },
}

enum JobResult {
    Visit(DriveResult),
    Expire(ExpireResult),
}

/// Runs a crawl to completion (convergence, tick budget, or wall cap) and
/// reports. Crawl-side counters land on `metrics` (`cp_crawl_*`); in
/// in-process mode pass the driver's registry so one scrape shows both
/// sides.
pub fn crawl(
    config: &CrawlConfig,
    driver: &dyn VisitDriver,
    metrics: &ServiceMetrics,
) -> CrawlReport {
    let universe = Universe::new(config.seed, config.world);
    let workers = config.workers.max(1);
    let mut frontier = Frontier::new();
    let mut states: HashMap<String, HostState> = HashMap::new();
    let mut cursor: Option<String> = None;
    let mut exhausted = false;
    let mut discovered = 0u64;
    let mut tick = 0u64;
    let mut digest = Digest::new();
    let started = Instant::now();

    let mut report = CrawlReport {
        world: config.world.to_string(),
        seed: config.seed,
        workers,
        ticks: 0,
        elapsed_ms: 0.0,
        visits: 0,
        visits_per_sec: 0.0,
        discovered: 0,
        retired: 0,
        expiries: 0,
        expired_marks: 0,
        unknown_hosts: 0,
        inconclusive: 0,
        backoffs: 0,
        transport_errors: 0,
        revisit_lag_p50_ticks: 0.0,
        revisit_lag_p99_ticks: 0.0,
        frontier_depth_final: 0,
        hosts_tracked_final: 0,
        max_rss_kb: 0,
        order_digest: String::new(),
        marks: Vec::new(),
        table1: None,
        visit_log: Vec::new(),
    };

    for host in &config.extra_hosts {
        frontier.push(host.clone(), 0, Priority::Discover);
    }

    loop {
        if config.ticks.is_some_and(|max| tick >= max) {
            break;
        }
        if config.duration.is_some_and(|limit| started.elapsed() >= limit) {
            break;
        }

        // Incremental discovery: refill only when the frontier runs low,
        // so a million-host world never materializes more than a page or
        // two of hosts at a time.
        while !exhausted && frontier.len() < config.low_water {
            let room = config.max_hosts.map_or(u64::MAX, |m| m.saturating_sub(discovered));
            let want = (config.discover_batch.max(1) as u64).min(room) as usize;
            if want == 0 {
                exhausted = true;
                break;
            }
            match universe.hosts_after(cursor.as_deref(), want) {
                Some(page) if !page.is_empty() => {
                    cursor = page.last().cloned();
                    discovered += page.len() as u64;
                    metrics.crawl_discovered_total.add(page.len() as u64);
                    let short = page.len() < want;
                    for host in page {
                        frontier.push(host, tick, Priority::Discover);
                    }
                    if short {
                        exhausted = true;
                    }
                }
                _ => exhausted = true,
            }
        }

        if frontier.is_empty() {
            break; // converged: nothing scheduled, nothing left to discover
        }

        // Fast-forward idle time, then re-check the tick budget.
        let next_due = frontier.next_due().expect("frontier is non-empty");
        if next_due > tick {
            tick = next_due;
            if config.ticks.is_some_and(|max| tick >= max) {
                break;
            }
        }

        // Pop this tick's batch: at most `workers` due entries, hosts
        // distinct by construction.
        let mut jobs: Vec<Job> = Vec::with_capacity(workers);
        while jobs.len() < workers {
            let Some(entry) = frontier.pop_due(tick) else { break };
            metrics.crawl_revisit_lag.observe(tick - entry.due);
            let state = states.entry(entry.host.clone()).or_insert_with(|| HostState {
                paths: universe
                    .derive(&entry.host)
                    .map(|spec| spec.page_paths())
                    .filter(|paths| !paths.is_empty())
                    .unwrap_or_else(|| vec!["/".to_string()]),
                next_path: 0,
                jar: HashMap::new(),
                budget: HostBudget::new(&config.politeness),
                attempts: 0,
                ages: MarkAges::new(),
            });
            if entry.class == Priority::TtlWait {
                let ttl = config.ttl_ticks.expect("TtlWait scheduled only with a TTL");
                let cookies = state.ages.take_expired(ttl, tick);
                if cookies.is_empty() {
                    // Re-marked since parking; park again (or retire).
                    match state.ages.next_expiry(ttl) {
                        Some(due) => {
                            frontier.push(entry.host, due.max(tick + 1), Priority::TtlWait)
                        }
                        None => {
                            states.remove(&entry.host);
                            report.retired += 1;
                        }
                    }
                    continue;
                }
                jobs.push(Job::Expire { host: entry.host, cookies });
            } else {
                let path = state.paths[state.next_path % state.paths.len()].clone();
                let cookie =
                    state.jar.get(&path).filter(|jar| !jar.is_empty()).map(|jar| jar.join("; "));
                state.budget.spend(&config.politeness, tick);
                jobs.push(Job::Visit { host: entry.host, path, cookie });
            }
        }
        metrics.crawl_frontier_depth.set(frontier.len() as i64);
        if jobs.is_empty() {
            tick += 1;
            continue;
        }

        // Execute concurrently; results come back in pop order, so the
        // sequential outcome processing below is deterministic.
        let results = cp_runtime::par::par_map_indexed(&jobs, Some(workers), |_, job| match job {
            Job::Visit { host, path, cookie } => {
                JobResult::Visit(driver.visit(host, path, cookie.as_deref()))
            }
            Job::Expire { host, cookies } => {
                let names: Vec<String> = cookies.iter().map(|(n, _)| n.clone()).collect();
                JobResult::Expire(driver.expire(host, &names))
            }
        });

        for (job, result) in jobs.into_iter().zip(results) {
            match (job, result) {
                (Job::Visit { host, path, .. }, JobResult::Visit(outcome)) => {
                    apply_visit(
                        config,
                        metrics,
                        &mut frontier,
                        &mut states,
                        &mut report,
                        &mut digest,
                        tick,
                        host,
                        path,
                        outcome,
                    );
                }
                (Job::Expire { host, cookies }, JobResult::Expire(outcome)) => {
                    apply_expire(
                        config,
                        metrics,
                        &mut frontier,
                        &mut states,
                        &mut report,
                        &mut digest,
                        tick,
                        host,
                        cookies,
                        outcome,
                    );
                }
                _ => unreachable!("job kinds round-trip through the pool"),
            }
        }
        tick += 1;
    }

    let elapsed = started.elapsed();
    report.ticks = tick;
    report.elapsed_ms = elapsed.as_secs_f64() * 1_000.0;
    report.visits_per_sec = if elapsed.as_secs_f64() > 0.0 {
        report.visits as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    report.discovered = discovered;
    report.revisit_lag_p50_ticks = metrics.crawl_revisit_lag.quantile_micros(0.50);
    report.revisit_lag_p99_ticks = metrics.crawl_revisit_lag.quantile_micros(0.99);
    report.frontier_depth_final = frontier.len();
    metrics.crawl_frontier_depth.set(frontier.len() as i64);
    report.hosts_tracked_final = states.len();
    report.max_rss_kb = max_rss_kb();
    report.order_digest = digest.hex();
    report.marks = driver.marks();
    if config.world == WorldKind::Table1 {
        report.table1 = Some(table1_audit(config.seed, &report.marks));
    }
    report
}

/// Processes one visit outcome (called in pop order).
#[allow(clippy::too_many_arguments)] // one scheduler step's worth of context
fn apply_visit(
    config: &CrawlConfig,
    metrics: &ServiceMetrics,
    frontier: &mut Frontier,
    states: &mut HashMap<String, HostState>,
    report: &mut CrawlReport,
    digest: &mut Digest,
    tick: u64,
    host: String,
    path: String,
    outcome: DriveResult,
) {
    match outcome {
        DriveResult::Visited(visit) => {
            report.visits += 1;
            metrics.crawl_visits_total.inc();
            digest.update(tick, &host, &path);
            if config.record_log {
                report.visit_log.push(format!("{tick} {host} {path}"));
            }
            let state = states.get_mut(&host).expect("visited hosts have state");
            if !visit.marked_now.is_empty() {
                state.ages.record(&visit.marked_now, tick);
            }
            state.jar.insert(path, visit.set_cookies);
            if let Some(_reason) = visit.inconclusive {
                // The probe deferred: revisit the same path under backoff
                // so the group is re-tested, not skipped.
                report.inconclusive += 1;
                metrics.crawl_inconclusive_total.inc();
                reschedule_backoff(
                    config,
                    metrics,
                    frontier,
                    report,
                    state,
                    tick,
                    host,
                    Priority::Training,
                );
                return;
            }
            state.attempts = 0;
            state.next_path += 1;
            if visit.training_active {
                let due = state.budget.earliest(&config.politeness, tick + 1);
                frontier.push(host, due, Priority::Training);
            } else {
                park_or_retire(config, frontier, states, report, tick, host);
            }
        }
        DriveResult::UnknownHost => {
            drop_unknown(metrics, states, report, &host);
        }
        DriveResult::Transport(error) => {
            report.transport_errors += 1;
            eprintln!("cp-crawl: visit to {host} failed in transit: {error}");
            let state = states.get_mut(&host).expect("visited hosts have state");
            reschedule_backoff(
                config,
                metrics,
                frontier,
                report,
                state,
                tick,
                host,
                Priority::Training,
            );
        }
    }
}

/// Processes one expiry outcome (called in pop order).
#[allow(clippy::too_many_arguments)] // one scheduler step's worth of context
fn apply_expire(
    config: &CrawlConfig,
    metrics: &ServiceMetrics,
    frontier: &mut Frontier,
    states: &mut HashMap<String, HostState>,
    report: &mut CrawlReport,
    digest: &mut Digest,
    tick: u64,
    host: String,
    cookies: Vec<(String, u64)>,
    outcome: ExpireResult,
) {
    match outcome {
        ExpireResult::Expired(n) => {
            report.expiries += 1;
            report.expired_marks += n as u64;
            metrics.crawl_expired_marks_total.add(n as u64);
            digest.update(tick, &host, "!expire");
            if n > 0 {
                // Training restarted: re-verify through the normal visit
                // path under the politeness budget.
                let state = states.get_mut(&host).expect("expiring hosts have state");
                state.attempts = 0;
                let due = state.budget.earliest(&config.politeness, tick + 1);
                frontier.push(host, due, Priority::Reverify);
            } else {
                // Nothing was marked on the training side; park on the
                // remaining ages or retire.
                park_or_retire(config, frontier, states, report, tick, host);
            }
        }
        ExpireResult::UnknownHost => {
            drop_unknown(metrics, states, report, &host);
        }
        ExpireResult::Transport(error) => {
            report.transport_errors += 1;
            eprintln!("cp-crawl: expire on {host} failed in transit: {error}");
            let state = states.get_mut(&host).expect("expiring hosts have state");
            // The decay was not delivered: restore the birth ticks so the
            // retry's `take_expired` hands out the same batch.
            for (name, marked_at) in &cookies {
                state.ages.restore(name, *marked_at);
            }
            reschedule_backoff(
                config,
                metrics,
                frontier,
                report,
                state,
                tick,
                host,
                Priority::TtlWait,
            );
        }
    }
}

/// Requeues a failed host under the retry policy: seeded jittered
/// exponential backoff while the budget lasts, then one deadline-floor
/// pause before the cycle restarts.
#[allow(clippy::too_many_arguments)] // one scheduler step's worth of context
fn reschedule_backoff(
    config: &CrawlConfig,
    metrics: &ServiceMetrics,
    frontier: &mut Frontier,
    report: &mut CrawlReport,
    state: &mut HostState,
    tick: u64,
    host: String,
    class: Priority,
) {
    state.attempts += 1;
    report.backoffs += 1;
    metrics.crawl_backoff_total.inc();
    let pause = if state.attempts > config.retry.max_retries {
        state.attempts = 0;
        (config.retry.deadline_floor.as_millis() / TICK_MILLIS).max(1)
    } else {
        backoff_ticks(&config.retry, config.seed, &host, state.attempts)
    };
    let due = state.budget.earliest(&config.politeness, tick + pause);
    frontier.push(host, due, class);
}

/// A dormant host either parks until its oldest mark decays (TTL mode) or
/// retires outright, releasing its state.
fn park_or_retire(
    config: &CrawlConfig,
    frontier: &mut Frontier,
    states: &mut HashMap<String, HostState>,
    report: &mut CrawlReport,
    tick: u64,
    host: String,
) {
    let state = states.get_mut(&host).expect("host has state");
    match config.ttl_ticks.and_then(|ttl| state.ages.next_expiry(ttl)) {
        Some(due) => frontier.push(host, due.max(tick + 1), Priority::TtlWait),
        None => {
            states.remove(&host);
            report.retired += 1;
        }
    }
}

/// Drops a resolver-rejected host: counted, logged once, never requeued —
/// a stale frontier entry cannot loop.
fn drop_unknown(
    metrics: &ServiceMetrics,
    states: &mut HashMap<String, HostState>,
    report: &mut CrawlReport,
    host: &str,
) {
    report.unknown_hosts += 1;
    metrics.crawl_unknown_host_total.inc();
    eprintln!("cp-crawl: host {host} rejected by the resolver; dropped from the frontier");
    states.remove(host);
}

/// Backoff for retry number `attempt` (1-based), in ticks: the policy's
/// base doubles per attempt and is scaled by a deterministic jitter factor
/// drawn from `(seed, host, attempt)` — reproducible, but uncorrelated
/// across hosts so synchronized failures do not re-arrive in lockstep.
fn backoff_ticks(retry: &RetryPolicy, seed: u64, host: &str, attempt: u32) -> u64 {
    let base_ms = retry.backoff.as_millis().max(1) << (attempt - 1).min(16);
    let jitter = retry.jitter.clamp(0.0, 1.0);
    let unit = (fnv_key(seed, host, attempt) >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 - jitter + 2.0 * jitter * unit;
    ((base_ms as f64 * factor) / TICK_MILLIS as f64).ceil().max(1.0) as u64
}

fn fnv_key(seed: u64, host: &str, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in host.bytes().chain(attempt.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming FNV-1a over the executed work sequence.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, tick: u64, host: &str, path: &str) {
        for b in
            tick.to_le_bytes().into_iter().chain(host.bytes()).chain([0xFF]).chain(path.bytes())
        {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Audits marks against the Table-1 population specs.
fn table1_audit(seed: u64, marks: &[String]) -> Table1Audit {
    let specs = table1_population(seed);
    let persistent = specs.iter().map(|s| s.persistent_count()).sum();
    let real = marks
        .iter()
        .filter_map(|line| line.split_once(' '))
        .filter(|(host, cookie)| {
            specs
                .iter()
                .find(|s| s.domain == *host)
                .is_some_and(|s| s.useful_cookie_names().iter().any(|n| n == cookie))
        })
        .count();
    Table1Audit { persistent, marked: marks.len(), real }
}

/// Peak resident set size (`VmHWM` from `/proc/self/status`), in kB.
/// Returns 0 where procfs is unavailable.
pub fn max_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0)
}
